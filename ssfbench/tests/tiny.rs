//! A tiny-scale pass of every workload in both modes: each run must
//! pass its correctness gates and report exactly the metrics, with the
//! units, that `BENCHMARK.json` lists.

use ssfbench::{run, Options, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the package")
}

/// The string values of `key` inside the JSON array under `section`.
fn listed(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("closed array")];
    let marker = format!("\"{key}\": \"");
    body.match_indices(&marker)
        .map(|(i, _)| {
            let rest = &body[i + marker.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = benchmark_json();
    for (section, expected) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names = listed(&json, section, "name");
        let units = listed(&json, section, "unit");
        let ours: Vec<(String, String)> = expected
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let theirs: Vec<(String, String)> =
            names.into_iter().zip(units).collect();
        assert_eq!(ours, theirs, "{section} differs from BENCHMARK.json");
    }
    let workloads = listed(&json, "workloads", "name");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(ours, workloads);
}

#[test]
fn every_workload_reports_every_metric_at_tiny_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 3,
                seconds: 0.6,
                trace,
                scale: 0.1,
            };
            let r = run(&opts)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                r.gate_failures.is_empty(),
                "{} trace={trace}: {:?}",
                workload.name(),
                r.gate_failures
            );
            assert!(r.attempted >= 1);
            let metrics = r.metrics(trace).expect("every listed metric");
            let listed = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(metrics.len(), listed.len());
            for m in &metrics {
                assert!(
                    m.value.is_finite(),
                    "{} trace={trace}: {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}
