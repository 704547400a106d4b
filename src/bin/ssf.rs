//! `ssf` — command-line interface to the reproduction.
//!
//! ```console
//! $ ssf stats network.txt
//! $ ssf generate coauthor --scale 0.3 --seed 7 --out net.txt
//! $ ssf extract network.txt 12 57 --k 10
//! $ ssf roles network.txt 12 57
//! $ ssf patterns network.txt --samples 500 --k 10
//! $ ssf evaluate network.txt --methods cn,katz,ssflr,ssfnm
//! $ ssf serve network.txt --threads 4
//! ```
//!
//! Edge lists are whitespace-separated `u v t` lines (KONECT style; see
//! `dyngraph::io`).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssf_repro::baselines;
use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::{
    io, metrics, stats::NetworkStats, DynamicNetwork, GraphView,
};
use ssf_repro::methods::{Method, MethodOptions};
use ssf_repro::model::SsfnmModel;
use ssf_repro::obs::{ObsHandle, Registry};
use ssf_repro::ssf_core::{
    ExtractionCache, HopSubgraph, PatternMiner, RoleAnalysis, SsfConfig,
    SsfExtractor, StructureSubgraph,
};
use ssf_repro::ssf_eval::{
    backtest_splits, BacktestConfig, ResultsTable, Split, SplitConfig,
};
use ssf_repro::{
    CoalesceConfig, Coalescer, DurabilityPolicy, FsyncPolicy,
    OnlineLinkPredictor, OnlinePredictorConfig, SystemClock, Ticket,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_json = flag(&args, "--metrics-json");
    let metrics_stderr = args.iter().any(|a| a == "--metrics-stderr");
    let registry = (metrics_json.is_some() || metrics_stderr)
        .then(|| Arc::new(Registry::new()));
    let obs = registry.as_ref().map_or_else(ObsHandle::noop, |r| {
        ObsHandle::of_registry(Arc::clone(r))
    });
    let mut out = std::io::stdout().lock();
    let result = dispatch(&args, &obs, &mut out)
        .and_then(|()| out.flush().map_err(CliError::Out));
    if let Some(registry) = registry {
        let json = registry.snapshot().to_json();
        if metrics_stderr {
            eprint!("{json}");
        }
        if let Some(path) = metrics_json {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("warning: cannot write metrics to {path}: {e}");
            }
        }
    }
    match result {
        // A reader that stops early (`ssf extract … | head -1`) is not a
        // failure of this program.
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Out(e)) if e.kind() == ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(CliError::Out(e)) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Msg(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand stopped: a message for the one `error:` line, or a
/// failed write to stdout.
enum CliError {
    Msg(String),
    Out(std::io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Msg(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Msg(msg.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Out(e)
    }
}

/// Runs the selected subcommand under its `ssf.cli.<subcommand>` span.
fn dispatch(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let span = obs.span(match args.first().map(String::as_str) {
        Some("stats") => "ssf.cli.stats",
        Some("generate") => "ssf.cli.generate",
        Some("extract") => "ssf.cli.extract",
        Some("roles") => "ssf.cli.roles",
        Some("patterns") => "ssf.cli.patterns",
        Some("evaluate") => "ssf.cli.evaluate",
        Some("train") => "ssf.cli.train",
        Some("predict") => "ssf.cli.predict",
        Some("serve") => "ssf.cli.serve",
        Some("serve-loop") => "ssf.cli.serve_loop",
        Some("save") => "ssf.cli.save",
        Some("restore") => "ssf.cli.restore",
        _ => "ssf.cli.other",
    });
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..], out),
        Some("generate") => cmd_generate(&args[1..], out),
        Some("extract") => cmd_extract(&args[1..], obs, out),
        Some("roles") => cmd_roles(&args[1..], out),
        Some("patterns") => cmd_patterns(&args[1..], obs, out),
        Some("evaluate") => cmd_evaluate(&args[1..], obs, out),
        Some("train") => cmd_train(&args[1..], obs, out),
        Some("predict") => cmd_predict(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], obs, out),
        Some("serve-loop") => cmd_serve_loop(&args[1..], obs, out),
        Some("save") => cmd_save(&args[1..], obs, out),
        Some("restore") => cmd_restore(&args[1..], obs, out),
        Some("--help") | Some("-h") | None => {
            print_usage(out).map_err(CliError::Out)
        }
        Some(other) => {
            Err(format!("unknown subcommand {other:?}; try --help").into())
        }
    };
    span.finish();
    result
}

fn print_usage(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "ssf — Structure Subgraph Feature link prediction (ICDCS 2019 reproduction)

USAGE:
  ssf stats    <edge-list>                     network statistics
  ssf generate <dataset> [--scale F] [--seed N] [--out FILE]
                                               synthetic Table II dataset
  ssf extract  <edge-list> <u> <v> [--k N] [--dot]
                                               SSF vector (+GraphViz DOT) of a pair
  ssf roles    <edge-list> <u> <v> [--h N]     structure-node role analysis
  ssf patterns <edge-list> [--samples N] [--k N]
                                               frequent K-structure patterns
  ssf evaluate <edge-list> [--methods a,b] [--k N] [--seed N]
                                               AUC/F1 of the Table III methods
  ssf train    <edge-list> --out MODEL [--k N] [--epochs N]
                                               fit SSFNM, persist the model
  ssf predict  <edge-list> <model> <u> <v>     score a pair with a saved model
  ssf serve    <edge-list> [--threads N] [--pairs N] [--k N]
               [--epochs N] [--seed N] [--window W]
                                               replay the stream through the
                                               online predictor, publish a
                                               snapshot, score candidates in
                                               parallel, report health
  ssf serve-loop <edge-list> [--qps N] [--duration-ms N] [--clients N]
               [--max-batch N] [--queue N] [--deadline-us N]
               [--threads N] [--k N] [--epochs N] [--seed N]
               [--window W]
               [--arrivals closed|fixed|poisson]
                                               run the request-coalescing
                                               front-end under load and
                                               report the SLO (p50/p99, miss
                                               rate, batch size, sheds);
                                               closed-loop clients wait for
                                               each ticket (--qps 0 is
                                               unpaced), open-loop arrivals
                                               (fixed-rate or Poisson,
                                               --qps required) follow their
                                               schedule regardless of
                                               completions — the honest
                                               overload model
  ssf save     <edge-list> --dir DIR [--k N] [--epochs N] [--seed N]
               [--refit-every N] [--fsync always|never|N]
               [--window W] [--advance T]      ingest through a durable
                                               predictor (WAL per event) and
                                               checkpoint one SSF1 snapshot;
                                               --advance pushes the horizon
                                               to T (expiring aged links)
                                               before the checkpoint
  ssf restore  --dir DIR [--strict] [--at-revision N] [--score U,V]
               [--k N] [--epochs N] [--seed N] [--refit-every N]
               [--window W] [--advance T]      recover snapshot + WAL tail;
                                               --strict fails if anything was
                                               dropped, --at-revision rewinds

Sliding windows: --window W keeps only links stamped in the inclusive
range [horizon - W, horizon]; older links expire as the horizon advances
(implicitly with newer events, or explicitly via --advance). The durable
state records its window, so save and restore must agree on --window.

Global flags (any subcommand):
  --metrics-json PATH   write an ssf.metrics.v1 JSON snapshot of pipeline
                        telemetry (span timings, counters, histograms)
  --metrics-stderr      print the same snapshot to stderr

Datasets: eu-email contact facebook coauthor prosper slashdot digg"
    )
}

/// Reads an edge list leniently by default: malformed lines are
/// quarantined with a `warning:` summary on stderr and the healthy rest
/// of the file is served. `--strict` restores fail-fast parsing (first
/// bad line is a fatal `error:`).
fn load(path: &str, args: &[String]) -> Result<DynamicNetwork, String> {
    let file =
        File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    if args.iter().any(|a| a == "--strict") {
        return io::read_edge_list(reader).map_err(|e| e.to_string());
    }
    let report = io::read_edge_list_lossy(reader);
    if !report.rejected.is_empty() {
        eprintln!(
            "warning: {path}: quarantined {} of {} data lines",
            report.rejected.len(),
            report.accepted + report.rejected.len()
        );
        const SHOWN: usize = 5;
        for r in report.rejected.iter().take(SHOWN) {
            eprintln!("warning:   line {}: {}", r.line, r.reason);
        }
        if report.rejected.len() > SHOWN {
            eprintln!(
                "warning:   … and {} more",
                report.rejected.len() - SHOWN
            );
        }
    }
    Ok(report.network)
}

/// Tiny flag parser: `--name value` pairs after the positional arguments.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v:?}")),
    }
}

fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.first().ok_or("usage: ssf stats <edge-list>")?;
    let g = load(path, args)?;
    let s = NetworkStats::of(&g);
    let stat = g.to_static();
    writeln!(out, "{s}")?;
    writeln!(out, "distinct edges:        {}", stat.edge_count())?;
    writeln!(
        out,
        "multi-link ratio:      {:.2}",
        g.link_count() as f64 / stat.edge_count().max(1) as f64
    )?;
    writeln!(
        out,
        "global clustering:     {:.4}",
        metrics::global_clustering(&stat)
    )?;
    writeln!(
        out,
        "degree gini (hubness): {:.4}",
        metrics::degree_gini(&stat)
    )?;
    let comps = metrics::connected_components(&stat);
    writeln!(
        out,
        "components:            {} (largest {})",
        comps.len(),
        comps.first().map_or(0, Vec::len)
    )?;
    Ok(())
}

fn cmd_generate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let name = args.first().ok_or("usage: ssf generate <dataset>")?;
    let spec = DatasetSpec::paper_datasets()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let scale: f64 = parse_flag(args, "--scale", 1.0)?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let spec = if scale < 1.0 {
        spec.scaled(scale)
    } else {
        spec
    };
    let g = spec.generate(seed);
    match flag(args, "--out") {
        Some(path) => {
            let mut file = File::create(&path)
                .map_err(|e| format!("cannot create {path}: {e}"))?;
            io::write_edge_list(&g, &mut file).map_err(|e| e.to_string())?;
            writeln!(out, "wrote {} links to {path}", g.link_count())?;
        }
        None => {
            io::write_edge_list(&g, out)?;
        }
    }
    Ok(())
}

fn parse_pair(args: &[String]) -> Result<(String, u32, u32), String> {
    let path = args.first().ok_or("missing edge-list path")?.clone();
    let u: u32 = args
        .get(1)
        .ok_or("missing node u")?
        .parse()
        .map_err(|_| "node u must be an integer")?;
    let v: u32 = args
        .get(2)
        .ok_or("missing node v")?
        .parse()
        .map_err(|_| "node v must be an integer")?;
    Ok((path, u, v))
}

fn cmd_extract(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (path, u, v) = parse_pair(args)?;
    let k: usize = parse_flag(args, "--k", 10)?;
    let g = load(&path, args)?;
    let n = g.node_count() as u32;
    if u >= n || v >= n || u == v {
        return Err(
            format!("invalid target pair ({u}, {v}) for {n} nodes").into()
        );
    }
    let l_t = g.max_timestamp().ok_or("network has no links")? + 1;
    let ex = SsfExtractor::new(SsfConfig::new(k));
    // A recorder-carrying cache routes the ssf.core.* stage spans into the
    // metrics snapshot; scores are bit-identical to the uncached path.
    let mut cache = ExtractionCache::with_recorder(obs.clone());
    let f = ex
        .try_extract_cached(&g, u, v, l_t, &mut cache)
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "SSF({u}-{v}) K={k} h={} |V_S|={} dim={}",
        f.radius(),
        f.structure_node_count(),
        f.values().len()
    )?;
    let formatted: Vec<String> =
        f.values().iter().map(|x| format!("{x:.4}")).collect();
    writeln!(out, "[{}]", formatted.join(", "))?;
    if args.iter().any(|a| a == "--dot") {
        let (ks, _, _) = ex.k_structure(&g, u, v);
        writeln!(out)?;
        write!(out, "{}", ssf_repro::ssf_core::viz::to_dot(&ks, None))?;
    }
    Ok(())
}

fn cmd_roles(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (path, u, v) = parse_pair(args)?;
    let h: u32 = parse_flag(args, "--h", 1)?;
    let g = load(&path, args)?;
    let n = g.node_count() as u32;
    if u >= n || v >= n || u == v {
        return Err(
            format!("invalid target pair ({u}, {v}) for {n} nodes").into()
        );
    }
    let hop = HopSubgraph::extract(&g, u, v, h);
    let s = StructureSubgraph::combine(&hop);
    write!(out, "{}", RoleAnalysis::analyze(&hop, &s))?;
    Ok(())
}

fn cmd_patterns(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args.first().ok_or("usage: ssf patterns <edge-list>")?;
    let samples: usize = parse_flag(args, "--samples", 500)?;
    let k: usize = parse_flag(args, "--k", 10)?;
    let g = load(path, args)?;
    let pairs: Vec<(u32, u32)> = g
        .to_static()
        .edges()
        .map(|(u, v, _)| (u, v))
        .take(samples)
        .collect();
    let ex = SsfExtractor::new(SsfConfig::new(k));
    let mut cache = ExtractionCache::with_recorder(obs.clone());
    let mut miner = PatternMiner::new();
    for &(u, v) in &pairs {
        let p = ex
            .try_k_structure_cached(&g, u, v, &mut cache)
            .map_err(|e| e.to_string())?;
        miner.observe(&p.0);
    }
    writeln!(
        out,
        "{} observations, {} distinct patterns",
        miner.observations(),
        miner.distinct_patterns()
    )?;
    for (rank, (sig, count)) in miner.ranked().into_iter().take(3).enumerate() {
        writeln!(out, "#{} ({count} occurrences):", rank + 1)?;
        writeln!(out, "{sig}")?;
    }
    Ok(())
}

fn cmd_train(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args
        .first()
        .ok_or("usage: ssf train <edge-list> --out MODEL")?;
    let model_path = flag(args, "--out").ok_or("--out MODEL required")?;
    let g = load(path, args)?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let opts = MethodOptions {
        k: parse_flag(args, "--k", 10)?,
        nm_epochs: parse_flag(args, "--epochs", 200)?,
        seed,
        ..MethodOptions::default()
    };
    let split = Split::with_min_positives(
        &g,
        &SplitConfig {
            seed,
            max_positives: Some(400),
            ..SplitConfig::default()
        },
        50,
    )
    .map_err(|e| e.to_string())?;
    let extra = backtest_splits(
        &split.history,
        &BacktestConfig {
            split: SplitConfig {
                seed,
                max_positives: Some(400),
                ..SplitConfig::default()
            },
            folds: 3,
            stride: 1,
            min_positives: 25,
        },
    )
    .unwrap_or_default();
    let model = SsfnmModel::try_fit_observed(&split, &extra, &opts, obs)
        .map_err(|e| e.to_string())?;
    let file = File::create(&model_path)
        .map_err(|e| format!("cannot create {model_path}: {e}"))?;
    model
        .save(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    let r = Method::Ssfnm.evaluate_augmented(&split, &extra, &opts);
    writeln!(
        out,
        "trained SSFNM on {} samples (held-out AUC {:.3}, F1 {:.3}); wrote {model_path}",
        split.train.len(),
        r.auc,
        r.f1
    )?;
    Ok(())
}

fn cmd_predict(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let net_path = args
        .first()
        .ok_or("usage: ssf predict <edge-list> <model> <u> <v>")?;
    let model_path = args.get(1).ok_or("missing model path")?;
    let u: u32 = args
        .get(2)
        .ok_or("missing node u")?
        .parse()
        .map_err(|_| "node u must be an integer")?;
    let v: u32 = args
        .get(3)
        .ok_or("missing node v")?
        .parse()
        .map_err(|_| "node v must be an integer")?;
    let g = load(net_path, args)?;
    let n = g.node_count() as u32;
    if u >= n || v >= n || u == v {
        return Err(
            format!("invalid target pair ({u}, {v}) for {n} nodes").into()
        );
    }
    let file = File::open(model_path)
        .map_err(|e| format!("cannot open {model_path}: {e}"))?;
    let model =
        SsfnmModel::load(BufReader::new(file)).map_err(|e| e.to_string())?;
    let present = g.max_timestamp().ok_or("network has no links")? + 1;
    let p = model
        .try_score(&g, u, v, present)
        .map_err(|e| e.to_string())?;
    writeln!(out, "P(link {u}-{v} emerges at t={present}) = {p:.4}")?;
    Ok(())
}

/// Replays an edge list through the single-writer online predictor,
/// publishes an immutable snapshot and scores a deterministic candidate
/// batch serially, then on the parallel read path of a second, freshly
/// published snapshot (cold memo), checking the two bit-match before
/// reporting throughput and health.
fn cmd_serve(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args.first().ok_or("usage: ssf serve <edge-list>")?;
    let g = load(path, args)?;
    let threads: usize = parse_flag(args, "--threads", 4)?;
    let n_pairs: u32 = parse_flag(args, "--pairs", 256)?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let opts = MethodOptions {
        k: parse_flag(args, "--k", 10)?,
        nm_epochs: parse_flag(args, "--epochs", 40)?,
        seed,
        ..MethodOptions::default()
    };
    let config = OnlinePredictorConfig::builder()
        .method(opts)
        .refit_every(u32::MAX) // one deliberate refit after ingest
        .window(window_width(args)?)
        .build()
        .map_err(|e| e.to_string())?;
    let mut predictor = OnlineLinkPredictor::with_recorder(config, obs.clone());

    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    let t0 = Instant::now();
    let accepted = observe_all(&mut predictor, &events);
    let ingest_secs = t0.elapsed().as_secs_f64();
    writeln!(
        out,
        "ingested {accepted} of {} events \
         in {ingest_secs:.3}s ({:.0} events/s)",
        events.len(),
        accepted as f64 / ingest_secs.max(1e-9),
    )?;
    if let Err(e) = predictor.try_refit() {
        eprintln!("warning: serving degraded, refit failed: {e}");
    }

    let snap = predictor.snapshot();
    let n = g.node_count() as u32;
    if n < 2 {
        return Err("network too small to serve".into());
    }
    // Deterministic candidate sweep: strided pairs across the node space.
    let pairs: Vec<(u32, u32)> = (0..n_pairs)
        .map(|i| {
            let u = i.wrapping_mul(7).wrapping_add(seed as u32) % n;
            let v = i.wrapping_mul(11).wrapping_add(1) % n;
            if u == v {
                (u, (v + 1) % n)
            } else {
                (u, v)
            }
        })
        .collect();

    let t0 = Instant::now();
    let serial = snap.score_batch(&pairs);
    let serial_secs = t0.elapsed().as_secs_f64();
    // A freshly published snapshot starts with a cold score memo, so the
    // parallel pass times extraction, not memo hits on the serial pass.
    let fresh = predictor.snapshot();
    let t0 = Instant::now();
    let parallel = fresh.score_batch_parallel(&pairs, threads);
    let parallel_secs = t0.elapsed().as_secs_f64();
    let identical = serial
        .iter()
        .zip(&parallel)
        .all(|(a, b)| a.map(f64::to_bits) == b.map(f64::to_bits));
    if !identical {
        return Err("parallel scores diverged from the serial path".into());
    }

    let scored = parallel.iter().filter(|s| s.is_some()).count();
    writeln!(
        out,
        "scored {} pairs ({scored} with a model): serial {:.1} pairs/s, \
         parallel x{threads} {:.1} pairs/s ({:.2}x), bit-identical",
        pairs.len(),
        pairs.len() as f64 / serial_secs.max(1e-9),
        pairs.len() as f64 / parallel_secs.max(1e-9),
        serial_secs / parallel_secs.max(1e-9),
    )?;
    let health = predictor.health();
    writeln!(
        out,
        "health: fitted={} epoch={} model_epoch={:?} accepted={} \
         quarantined={} degraded_scores={}",
        health.fitted,
        snap.epoch(),
        health.model_epoch,
        health.accepted,
        health.quarantined,
        health.degraded_scores,
    )?;
    Ok(())
}

/// Feeds `events` to the predictor in order; returns how many it accepted.
fn observe_all(p: &mut OnlineLinkPredictor, events: &[(u32, u32, u32)]) -> u64 {
    let mut accepted = 0;
    for &(u, v, t) in events {
        if p.observe(u, v, t).is_accepted() {
            accepted += 1;
        }
    }
    accepted
}

/// How the `serve-loop` load generator times its submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Submit, wait for the ticket, pace to the offered rate.
    Closed,
    /// Fixed-interval schedule, independent of completions.
    OpenFixed,
    /// Poisson (exponential inter-arrival) schedule, independent of
    /// completions.
    OpenPoisson,
}

/// How often an open-loop client waiting for its next arrival polls its
/// oldest outstanding ticket.
const POLL_INTERVAL: Duration = Duration::from_micros(50);

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Stamps every resolved ticket at the front of `pending`, recording
/// the latency of the ones that completed (sheds and expiries do not
/// count). The coalescer retires requests in admission order, so
/// polling only the oldest ticket sees each completion as it lands.
fn take_ready(pending: &mut VecDeque<(Instant, Ticket)>, lat: &mut Vec<u64>) {
    while let Some((issued, ticket)) = pending.front() {
        let Some(outcome) = ticket.try_take() else {
            break;
        };
        if outcome.is_ok() {
            lat.push(elapsed_ns(*issued));
        }
        pending.pop_front();
    }
}

/// `serve-loop`: the request-coalescing front-end under load. Ingests
/// the stream through the online predictor like `serve`, then puts the
/// published snapshot behind a [`Coalescer`] and drives it with client
/// threads. Closed-loop clients each submit one pair, wait for the
/// ticket, and pace to the offered rate (`--qps 0` submits as fast as
/// the loop allows). Open-loop clients (`--arrivals fixed|poisson`)
/// follow their arrival schedule regardless of completions — a
/// backed-up server keeps receiving load, so overload surfaces as
/// admission sheds and deadline misses instead of politely throttled
/// clients. Between arrivals they poll their oldest ticket and stamp
/// each completion when first seen; after the arrival window they wait
/// on the rest in order. Reports the SLO numbers the coalescer exists
/// to serve: p50/p99 end-to-end latency, deadline-miss rate, mean batch
/// size and overload sheds.
fn cmd_serve_loop(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args.first().ok_or("usage: ssf serve-loop <edge-list>")?;
    let g = load(path, args)?;
    let threads: usize = parse_flag(args, "--threads", 1)?;
    let clients: usize = parse_flag(args, "--clients", 4)?;
    let qps: u64 = parse_flag(args, "--qps", 0)?;
    let duration_ms: u64 = parse_flag(args, "--duration-ms", 1000)?;
    let max_batch: usize = parse_flag(args, "--max-batch", 32)?;
    let queue: usize = parse_flag(args, "--queue", 256)?;
    let deadline_us: u64 = parse_flag(args, "--deadline-us", 250_000)?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let arrivals = match flag(args, "--arrivals").as_deref() {
        None | Some("closed") => Arrivals::Closed,
        Some("fixed") => Arrivals::OpenFixed,
        Some("poisson") => Arrivals::OpenPoisson,
        Some(v) => {
            return Err(format!(
                "invalid value for --arrivals: {v:?} \
                 (closed, fixed, poisson)"
            )
            .into())
        }
    };
    if arrivals != Arrivals::Closed && qps == 0 {
        return Err("open-loop arrivals need --qps > 0".into());
    }
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    let n = g.node_count() as u32;
    if n < 2 {
        return Err("network too small to serve".into());
    }
    let opts = MethodOptions {
        k: parse_flag(args, "--k", 10)?,
        nm_epochs: parse_flag(args, "--epochs", 40)?,
        seed,
        ..MethodOptions::default()
    };
    let config = OnlinePredictorConfig::builder()
        .method(opts)
        .refit_every(u32::MAX) // one deliberate refit after ingest
        .window(window_width(args)?)
        .build()
        .map_err(|e| e.to_string())?;
    let mut predictor = OnlineLinkPredictor::with_recorder(config, obs.clone());
    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    let accepted = observe_all(&mut predictor, &events);
    writeln!(out, "ingested {accepted} events")?;
    if let Err(e) = predictor.try_refit() {
        eprintln!("warning: serving degraded, refit failed: {e}");
    }
    let snap = predictor.snapshot();

    // Typed configuration errors (ConfigError::ZeroBatch & friends)
    // surface here as `error:` lines, never panics.
    let coalesce_config = CoalesceConfig::builder()
        .max_batch(max_batch)
        .queue_capacity(queue)
        .worker_threads(threads)
        .default_deadline_ns(Some(deadline_us.saturating_mul(1_000).max(1)))
        .build()
        .map_err(|e| e.to_string())?;
    let coalescer = Coalescer::with_clock_and_recorder(
        snap,
        coalesce_config,
        Arc::new(SystemClock::new()),
        obs.clone(),
    );
    let duration = Duration::from_millis(duration_ms);
    // Per-client pacing interval; `--qps 0` means unpaced.
    let interval =
        (qps > 0).then(|| Duration::from_secs_f64(clients as f64 / qps as f64));
    let worker = {
        let c = coalescer.clone();
        std::thread::spawn(move || c.run_worker())
    };
    let t0 = Instant::now();
    let mut latencies_ns: Vec<u64> = Vec::new();
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..clients)
            .map(|who| {
                let c = coalescer.clone();
                s.spawn(move || {
                    // Deterministic per-client pair stream (splitmix-
                    // style LCG; no RNG dependency in the CLI).
                    let mut state =
                        seed ^ (who as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut next_u32 = move || {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 33) as u32
                    };
                    let mut lat: Vec<u64> = Vec::new();
                    // Open-loop tickets queue here in submission order,
                    // so submissions never wait on completions.
                    let mut pending: VecDeque<(Instant, Ticket)> =
                        VecDeque::new();
                    let start = Instant::now();
                    let mut next = start;
                    while start.elapsed() < duration {
                        if let Some(iv) = interval {
                            // Until the next arrival is due, poll the
                            // oldest ticket so each completion is
                            // stamped when it lands.
                            loop {
                                take_ready(&mut pending, &mut lat);
                                let now = Instant::now();
                                if now >= next {
                                    break;
                                }
                                let wait = next - now;
                                std::thread::sleep(if pending.is_empty() {
                                    wait
                                } else {
                                    wait.min(POLL_INTERVAL)
                                });
                            }
                            next += match arrivals {
                                Arrivals::OpenPoisson => {
                                    // Inverse-CDF exponential draw on
                                    // the LCG stream, clamped away
                                    // from zero so the schedule always
                                    // moves forward.
                                    let u = (f64::from(next_u32()) + 1.0)
                                        / 4_294_967_296.0;
                                    Duration::from_secs_f64(
                                        (-u.ln() * iv.as_secs_f64()).max(1e-9),
                                    )
                                }
                                _ => iv,
                            };
                        }
                        let u = next_u32() % n;
                        let mut v = next_u32() % n;
                        if u == v {
                            v = (v + 1) % n;
                        }
                        let issued = Instant::now();
                        if let Ok(ticket) = c.submit(u, v) {
                            if arrivals == Arrivals::Closed {
                                if ticket.wait().is_ok() {
                                    lat.push(elapsed_ns(issued));
                                }
                            } else {
                                pending.push_back((issued, ticket));
                            }
                        }
                    }
                    for (issued, ticket) in pending {
                        if ticket.wait().is_ok() {
                            lat.push(elapsed_ns(issued));
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            let lat =
                h.join().map_err(|_| "client thread panicked".to_string())?;
            latencies_ns.extend(lat);
        }
        Ok(())
    })?;
    let elapsed = t0.elapsed().as_secs_f64();
    coalescer.shutdown();
    worker
        .join()
        .map_err(|_| "worker thread panicked".to_string())?;

    let stats = coalescer.stats();
    if stats.accepted + stats.rejected() != stats.submitted
        || stats.completed + stats.expired != stats.accepted
    {
        return Err(
            format!("serving counters do not reconcile: {stats:?}").into()
        );
    }
    latencies_ns.sort_unstable();
    let quantile_us = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ns.len() - 1) as f64 * q).round() as usize;
        latencies_ns[idx.min(latencies_ns.len() - 1)] as f64 / 1e3
    };
    let offered = if qps > 0 {
        format!("{qps} qps offered")
    } else {
        "unpaced".to_string()
    };
    let arrival_label = match arrivals {
        Arrivals::Closed => "closed-loop",
        Arrivals::OpenFixed => "open-loop fixed-rate",
        Arrivals::OpenPoisson => "open-loop poisson",
    };
    writeln!(
        out,
        "serve-loop: {clients} client(s), {arrival_label}, {offered}, \
         {duration_ms} ms, max_batch {max_batch}, queue {queue}, \
         deadline {deadline_us}us"
    )?;
    writeln!(
        out,
        "completed {} of {} submitted: {:.0} qps achieved, \
         p50 {:.0}us, p99 {:.0}us",
        stats.completed,
        stats.submitted,
        stats.completed as f64 / elapsed.max(1e-9),
        quantile_us(0.50),
        quantile_us(0.99),
    )?;
    let miss_rate = if stats.submitted == 0 {
        0.0
    } else {
        stats.deadline_misses() as f64 / stats.submitted as f64
    };
    writeln!(
        out,
        "slo: deadline miss rate {miss_rate:.4} ({} misses), \
         shed {} overloaded, mean batch size {:.2} over {} batches",
        stats.deadline_misses(),
        stats.rejected_overload,
        stats.mean_batch_size(),
        stats.batches,
    )?;
    Ok(())
}

/// The predictor configuration `save` and `restore` share. Both parse
/// the same flags with the same defaults: the durable state carries a
/// fingerprint of the configuration it was written under, and recovery
/// refuses a mismatch — so the two commands must derive the config
/// identically.
fn predictor_config(args: &[String]) -> Result<OnlinePredictorConfig, String> {
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let opts = MethodOptions {
        k: parse_flag(args, "--k", 10)?,
        nm_epochs: parse_flag(args, "--epochs", 40)?,
        seed,
        ..MethodOptions::default()
    };
    OnlinePredictorConfig::builder()
        .method(opts)
        .refit_every(parse_flag(args, "--refit-every", 64)?)
        .window(window_width(args)?)
        .build()
        .map_err(|e| e.to_string())
}

/// `--window W`: sliding-window width in timestamp ticks; absent means
/// unbounded (the append-only behavior every command had before).
fn window_width(args: &[String]) -> Result<Option<u32>, String> {
    match flag(args, "--window") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value for --window: {v:?}")),
    }
}

/// `--advance T`: explicitly pushes a predictor's horizon to `T`,
/// expiring links that fall behind the new cutoff, and reports what
/// aged out. A no-op when the horizon is already at `T`.
fn apply_advance(
    p: &mut OnlineLinkPredictor,
    args: &[String],
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let Some(to) = flag(args, "--advance") else {
        return Ok(());
    };
    let to: u32 = to
        .parse()
        .map_err(|_| format!("invalid value for --advance: {to:?}"))?;
    match p.advance(to).map_err(|e| e.to_string())? {
        Some(report) => writeln!(
            out,
            "advanced horizon to {}: expired {} link(s) behind cutoff {}",
            report.horizon, report.expired_links, report.cutoff,
        )?,
        None => writeln!(out, "horizon already at {to}; nothing to expire")?,
    }
    Ok(())
}

fn fsync_policy(args: &[String]) -> Result<FsyncPolicy, String> {
    match flag(args, "--fsync").as_deref() {
        None | Some("always") => Ok(FsyncPolicy::Always),
        Some("never") => Ok(FsyncPolicy::Never),
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
            _ => Err(format!(
                "invalid value for --fsync: {v:?} \
                 (always, never, or a record count >= 1)"
            )),
        },
    }
}

fn report_warnings(report: &ssf_repro::RecoveryReport) {
    if report.tail_truncated {
        eprintln!(
            "warning: WAL tail was torn; dropped {} bytes after the \
             last valid record",
            report.bytes_dropped
        );
    }
    for path in &report.corrupt_snapshots {
        eprintln!("warning: skipped corrupt snapshot {}", path.display());
    }
}

/// Replays an edge list through a durable predictor — every event hits
/// the write-ahead log before memory — then checkpoints the full state
/// as one atomic snapshot, leaving `--dir` ready for load-and-serve
/// startup (`ssf restore`, or `ScoringSnapshot::load` in process).
fn cmd_save(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args
        .first()
        .ok_or("usage: ssf save <edge-list> --dir DIR")?;
    let dir = flag(args, "--dir").ok_or("--dir DIR required")?;
    let g = load(path, args)?;
    let config = predictor_config(args)?;
    let policy = DurabilityPolicy {
        fsync: fsync_policy(args)?,
        ..DurabilityPolicy::default()
    };
    let (mut p, report) = OnlineLinkPredictor::open_with(
        config,
        Path::new(&dir),
        policy,
        obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    report_warnings(&report);
    if report.snapshot_revision.is_some() || report.records_replayed > 0 {
        eprintln!(
            "warning: {dir} already held durable state at revision {}; \
             appending this edge list on top",
            p.network().revision()
        );
    }
    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    let t0 = Instant::now();
    for &(u, v, t) in &events {
        p.observe(u, v, t);
    }
    if let Some(e) = p.last_wal_error() {
        return Err(format!("WAL append failed: {e}").into());
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    apply_advance(&mut p, args, out)?;
    let snapshot = p.checkpoint().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "logged {} events in {ingest_secs:.3}s ({:.0} events/s)",
        events.len(),
        events.len() as f64 / ingest_secs.max(1e-9),
    )?;
    writeln!(
        out,
        "checkpoint {} at revision {} (fitted={})",
        snapshot.display(),
        p.network().revision(),
        p.is_fitted(),
    )?;
    Ok(())
}

/// Recovers a predictor from a durability directory: newest valid
/// snapshot, then the WAL tail replayed through the normal ingest
/// path. Lossy by default (torn tails and corrupt snapshots become
/// `warning:` lines); `--strict` turns any loss into a fatal error.
fn cmd_restore(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let dir = flag(args, "--dir")
        .ok_or("usage: ssf restore --dir DIR [--strict] [--score U,V]")?;
    let config = predictor_config(args)?;
    let strict = args.iter().any(|a| a == "--strict");
    let (mut p, report) = match flag(args, "--at-revision") {
        Some(rev) => {
            let rev: u64 = rev.parse().map_err(|_| {
                format!("invalid value for --at-revision: {rev:?}")
            })?;
            OnlineLinkPredictor::open_to_revision(config, Path::new(&dir), rev)
        }
        None => OnlineLinkPredictor::open_with(
            config,
            Path::new(&dir),
            DurabilityPolicy::default(),
            obs.clone(),
        ),
    }
    .map_err(|e| e.to_string())?;
    report_warnings(&report);
    if strict && report.is_lossy() {
        return Err(format!(
            "recovery dropped data ({} WAL bytes truncated, {} corrupt \
             snapshot(s) skipped); rerun without --strict to accept the \
             recovered prefix",
            report.bytes_dropped,
            report.corrupt_snapshots.len(),
        )
        .into());
    }
    match report.snapshot_revision {
        Some(rev) => writeln!(
            out,
            "restored snapshot at revision {rev} + {} WAL records",
            report.records_replayed
        )?,
        None => writeln!(
            out,
            "no snapshot; replayed {} WAL records from genesis",
            report.records_replayed
        )?,
    }
    apply_advance(&mut p, args, out)?;
    let h = p.health();
    writeln!(
        out,
        "health: revision={} fitted={} model_epoch={:?} accepted={} \
         quarantined={}",
        p.network().revision(),
        h.fitted,
        h.model_epoch,
        h.accepted,
        h.quarantined,
    )?;
    if let Some(w) = p.window() {
        writeln!(
            out,
            "window: width={} horizon={} cutoff={} (out-of-window events \
             quarantined so far: {})",
            w.width,
            w.horizon,
            w.cutoff(),
            p.stats().out_of_window,
        )?;
    }
    if let Some(pair) = flag(args, "--score") {
        let (u, v) = pair
            .split_once(',')
            .ok_or_else(|| format!("--score expects U,V, got {pair:?}"))?;
        let u: u32 = u
            .trim()
            .parse()
            .map_err(|_| format!("invalid node in --score: {u:?}"))?;
        let v: u32 = v
            .trim()
            .parse()
            .map_err(|_| format!("invalid node in --score: {v:?}"))?;
        match p.score(u, v) {
            Some(s) => writeln!(out, "P(link {u}-{v}) = {s:.4}")?,
            None => writeln!(
                out,
                "P(link {u}-{v}) unavailable (no fitted model, unknown \
                 node, or u == v)"
            )?,
        }
    }
    Ok(())
}

fn cmd_evaluate(
    args: &[String],
    obs: &ObsHandle,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args.first().ok_or("usage: ssf evaluate <edge-list>")?;
    let g = load(path, args)?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let k: usize = parse_flag(args, "--k", 10)?;
    let methods: Vec<Method> = match flag(args, "--methods") {
        None => Method::all().to_vec(),
        Some(list) => list
            .split(',')
            .map(|name| {
                Method::parse(name.trim())
                    .ok_or_else(|| format!("unknown method {name:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let split = Split::with_min_positives(
        &g,
        &SplitConfig {
            seed,
            max_positives: Some(400),
            ..SplitConfig::default()
        },
        50,
    )
    .map_err(|e| e.to_string())?;
    let opts = MethodOptions {
        k,
        seed,
        nmf: baselines::NmfConfig {
            seed,
            ..baselines::NmfConfig::default()
        },
        ..MethodOptions::default()
    };
    // Earlier-window folds augment the supervised training sets, exactly
    // as in the Table III harness.
    let extra = backtest_splits(
        &split.history,
        &BacktestConfig {
            split: SplitConfig {
                seed,
                max_positives: Some(400),
                ..SplitConfig::default()
            },
            folds: 3,
            stride: 1,
            min_positives: 25,
        },
    )
    .unwrap_or_default();
    let mut table = ResultsTable::new();
    for m in methods {
        let span = obs.span("ssf.cli.evaluate_method");
        table.record("input", &m.evaluate_augmented(&split, &extra, &opts));
        span.finish();
        obs.counter("ssf.cli.methods_evaluated", 1);
    }
    write!(out, "{table}")?;
    Ok(())
}
