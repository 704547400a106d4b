//! Chaos suite: corrupted traces through the full serving path.
//!
//! The fault model matches what production link streams actually do:
//! self-loops, exact replays, hours-late timestamps, mangled lines.
//! Every test asserts the same contract — no panic, quarantine counts
//! visible, and degradation bounded: the surviving (healthy) events must
//! produce *exactly* the model the clean trace produces, so accuracy on
//! survivors is identical by construction, not merely "within noise".

use std::collections::BTreeSet;
use std::process::Command;

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::io::{
    read_edge_list_lossy, write_edge_list, FaultConfig, FaultyReader,
};
use ssf_repro::dyngraph::{DynamicNetwork, NodeId, Timestamp};
use ssf_repro::prelude::*;

#[allow(clippy::expect_used)] // test helper
fn chaos_config() -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .quarantine_duplicates(true)
        .max_lag(Some(5))
        .build()
        .expect("valid chaos configuration")
}

/// The clean trace: deduplicated, time-ordered events of a synthetic
/// coauthor network.
fn clean_events() -> Vec<(NodeId, NodeId, Timestamp)> {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let ordered: BTreeSet<(Timestamp, NodeId, NodeId)> =
        g.links().map(|l| (l.t, l.u, l.v)).collect();
    ordered.into_iter().map(|(t, u, v)| (u, v, t)).collect()
}

#[test]
fn predictor_survives_hostile_stream_with_bounded_degradation() {
    let events = clean_events();

    let mut clean = OnlineLinkPredictor::new(chaos_config());
    for &(u, v, t) in &events {
        assert!(clean.observe(u, v, t).is_accepted());
    }

    // Hostile replay: after every 6th healthy event (>16% junk ratio),
    // inject a self-loop, an exact duplicate, or a stale event. All junk
    // reuses existing node ids and timestamps, so the surviving stream is
    // the clean stream exactly.
    let mut hostile = OnlineLinkPredictor::new(chaos_config());
    let mut injected = 0u64;
    for (i, &(u, v, t)) in events.iter().enumerate() {
        assert!(hostile.observe(u, v, t).is_accepted());
        if i % 6 == 5 {
            let head = hostile.network().max_timestamp().unwrap_or(0);
            let outcome = match injected % 3 {
                0 => hostile.observe(u, u, t), // self-loop
                1 => hostile.observe(u, v, t), // exact replay
                _ if head > 5 => {
                    let (u0, v0, _) = events[0];
                    hostile.observe(u0, v0, 0) // hopelessly late
                }
                _ => hostile.observe(v, v, t), // self-loop until time moves
            };
            assert!(!outcome.is_accepted(), "junk event {i} was accepted");
            injected += 1;
        }
    }
    assert_eq!(injected, (events.len() / 6) as u64);
    assert!(injected > 0);

    // No panic happened (we are here), the junk was quarantined and
    // counted, and the healthy events all made it in.
    let health = hostile.health();
    assert_eq!(health.quarantined, injected);
    assert_eq!(health.accepted, events.len() as u64);
    assert_eq!(clean.health().quarantined, 0);

    // Bounded degradation: the surviving stream equals the clean stream,
    // so the networks and the fitted models must agree exactly.
    assert_eq!(clean.network().link_count(), hostile.network().link_count());
    assert_eq!(clean.network().node_count(), hostile.network().node_count());
    assert!(clean.is_fitted());
    assert!(hostile.is_fitted());
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 7), (5, 11)] {
        assert_eq!(
            clean.score(a, b),
            hostile.score(a, b),
            "scores diverged on ({a}, {b})"
        );
    }
}

/// Writes `contents` to a fresh temp file and returns its path.
#[allow(clippy::expect_used)] // test helper
fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir()
        .join(format!("ssf-chaos-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

#[allow(clippy::expect_used)] // test helper
fn clean_edge_list() -> (DynamicNetwork, Vec<u8>) {
    let g = DatasetSpec::coauthor().scaled(0.1).generate(7);
    let mut buf = Vec::new();
    write_edge_list(&g, &mut buf).expect("write to memory");
    (g, buf)
}

#[test]
fn cli_evaluate_survives_corrupted_trace_with_identical_results() {
    let (g, clean_bytes) = clean_edge_list();
    let clean_lines = g.link_count();

    // ≥10% junk: self-loops on real ids, garbage, and bad timestamps.
    let mut corrupted = clean_bytes.clone();
    let n_junk = clean_lines / 6;
    for i in 0..n_junk {
        let line = match i % 3 {
            0 => format!("{0} {0} 3\n", i % 40),
            1 => "@@ chaos #! ??\n".to_string(),
            _ => format!("{} {} not-a-time\n", i, i + 1),
        };
        corrupted.extend_from_slice(line.as_bytes());
    }
    let clean_path = temp_file("clean.txt", &clean_bytes);
    let dirty_path = temp_file("dirty.txt", &corrupted);

    let run = |path: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_ssf"))
            .args(["evaluate"])
            .arg(path)
            .args(["--methods", "cn,aa", "--seed", "7"])
            .output()
            .expect("run ssf evaluate")
    };
    let clean_out = run(&clean_path);
    let dirty_out = run(&dirty_path);
    let _ = std::fs::remove_file(&clean_path);
    let _ = std::fs::remove_file(&dirty_path);

    let dirty_stderr = String::from_utf8_lossy(&dirty_out.stderr).into_owned();
    assert!(clean_out.status.success(), "clean run failed");
    assert!(
        dirty_out.status.success(),
        "corrupted run must degrade, not die: {dirty_stderr}"
    );
    // The quarantine is visible and counted on stderr; no backtraces.
    assert!(
        dirty_stderr.contains(&format!("quarantined {n_junk} of")),
        "stderr missing quarantine summary: {dirty_stderr}"
    );
    assert!(!dirty_stderr.contains("panicked"), "{dirty_stderr}");
    assert!(!dirty_stderr.contains("RUST_BACKTRACE"), "{dirty_stderr}");
    assert!(String::from_utf8_lossy(&clean_out.stderr).is_empty());
    // Junk only reuses known ids, so the surviving network is the clean
    // network and the metrics agree exactly — degradation is bounded.
    assert_eq!(
        String::from_utf8_lossy(&clean_out.stdout),
        String::from_utf8_lossy(&dirty_out.stdout)
    );
}

#[test]
fn cli_survives_fault_injected_reader_mangling() {
    let (_, clean_bytes) = clean_edge_list();
    let mangled = {
        use std::io::Read as _;
        let mut out = Vec::new();
        FaultyReader::new(
            clean_bytes.as_slice(),
            FaultConfig {
                corrupt_rate: 0.15,
                truncate_rate: 0.05,
                garbage_rate: 0.1,
                seed: 42,
                ..FaultConfig::default()
            },
        )
        .read_to_end(&mut out)
        .expect("fault injection over memory");
        out
    };
    // Sanity: the mangled bytes still parse leniently with losses.
    let report = read_edge_list_lossy(mangled.as_slice());
    assert!(!report.rejected.is_empty(), "faults should reject lines");
    assert!(report.accepted > 0, "most lines should survive");

    let path = temp_file("mangled.txt", &mangled);
    let out = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .arg("stats")
        .arg(&path)
        .output()
        .expect("run ssf stats");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stats must serve survivors: {stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cli_fatal_errors_use_the_error_contract() {
    let out = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .args(["stats", "/nonexistent/ssf-chaos-input.txt"])
        .output()
        .expect("run ssf stats");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");
}

/// A model file whose output layer is self-consistent but one class wide
/// is refused at load time through the `error:` contract, never reaching
/// scoring.
#[test]
fn cli_predict_refuses_shape_inconsistent_model() {
    let (_, edges) = clean_edge_list();
    let net = temp_file("shape-net.txt", &edges);
    let model = std::env::temp_dir()
        .join(format!("ssf-chaos-{}-shape-model.txt", std::process::id()));
    let trained = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .arg("train")
        .arg(&net)
        .arg("--out")
        .arg(&model)
        .args(["--epochs", "2"])
        .output()
        .expect("run ssf train");
    assert!(
        trained.status.success(),
        "{}",
        String::from_utf8_lossy(&trained.stderr)
    );
    let text = std::fs::read_to_string(&model).expect("read model");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let last = lines
        .iter()
        .rposition(|l| l.starts_with("dims "))
        .expect("a dims line");
    let inputs: usize = lines[last]
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("dims inputs");
    lines[last] = format!("dims {inputs} 1");
    lines[last + 1] = std::iter::once("w")
        .chain(std::iter::repeat_n("0000000000000000", inputs))
        .collect::<Vec<_>>()
        .join(" ");
    lines[last + 2] = "b 0000000000000000".to_owned();
    let bad = temp_file("shape-bad.txt", (lines.join("\n") + "\n").as_bytes());

    let out = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .arg("predict")
        .arg(&net)
        .arg(&bad)
        .args(["3", "17"])
        .output()
        .expect("run ssf predict");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for path in [net, model, bad] {
        let _ = std::fs::remove_file(path);
    }
}

/// A reader that closes the pipe before the CLI writes (`ssf extract …
/// | head -1`) ends the run cleanly: status 0 and nothing on stderr,
/// never a panic.
#[test]
fn cli_broken_pipe_is_a_clean_exit() {
    use std::process::Stdio;
    let (_, edges) = clean_edge_list();
    let net = temp_file("pipe-net.txt", &edges);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .arg("extract")
        .arg(&net)
        .args(["3", "17", "--k", "20", "--dot"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ssf extract");
    // Close the read end before the child has loaded its input.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for ssf extract");
    let _ = std::fs::remove_file(&net);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// `ssf serve` replays a small network, scores its candidate sweep
/// serially and on a fresh snapshot's parallel path, and reports the
/// two bit-identical along with a health line.
#[test]
fn cli_serve_scores_bit_identically_and_reports_health() {
    let (_, edges) = clean_edge_list();
    let net = temp_file("serve-net.txt", &edges);
    let out = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .arg("serve")
        .arg(&net)
        .args(["--pairs", "64", "--threads", "2", "--epochs", "15"])
        .output()
        .expect("run ssf serve");
    let _ = std::fs::remove_file(&net);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stdout.lines().any(|l| l.starts_with("scored 64 pairs")
            && l.ends_with("bit-identical")),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("health: fitted=true")
            && !l.contains("cache_hit_rate")),
        "{stdout}"
    );
}

/// `ssf patterns` over a generated coauthor network prints the same
/// pattern ranking, byte for byte, as the checked-in fixture.
#[test]
fn cli_patterns_output_matches_fixture() {
    let net = std::env::temp_dir()
        .join(format!("ssf-chaos-{}-patterns-net.txt", std::process::id()));
    let generated = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .args(["generate", "coauthor", "--scale", "0.2", "--out"])
        .arg(&net)
        .output()
        .expect("run ssf generate");
    assert!(
        generated.status.success(),
        "{}",
        String::from_utf8_lossy(&generated.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ssf"))
        .arg("patterns")
        .arg(&net)
        .args(["--samples", "200", "--k", "10"])
        .output()
        .expect("run ssf patterns");
    let _ = std::fs::remove_file(&net);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("fixtures/patterns_coauthor_k10.txt")
    );
}
