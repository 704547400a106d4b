//! Shared harness utilities for the experiment binaries.
//!
//! Every paper table/figure has a binary in `src/bin/`:
//!
//! | binary    | reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — feature comparison on the Figure 1 celebrity network |
//! | `table2`  | Table II — dataset statistics |
//! | `table3`  | Table III — AUC/F1 of all 15 methods × 7 datasets |
//! | `fig6`    | Figure 6 — most frequent K-structure-subgraph patterns |
//! | `fig7`    | Figure 7 — SSFNM across K ∈ {5, 10, 15, 20} |
//! | `ablation`| DESIGN.md §5 — entry-encoding and θ sweeps |
//!
//! All binaries accept `--fast` (scaled-down datasets and budgets),
//! `--seed <n>`, `--data-dir <path>` (real KONECT edge lists, see
//! `datasets::io`), and `--datasets a,b,c` to filter.

// Bench harness, not the serving data path: a failed expectation
// aborts the run and IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use datasets::DatasetSpec;
use dyngraph::DynamicNetwork;
use ssf_eval::{
    backtest_splits, BacktestConfig, Split, SplitConfig, SplitError,
};

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Scale datasets and training budgets down for a quick smoke run.
    pub fast: bool,
    /// Base RNG seed (generation, splitting, training).
    pub seed: u64,
    /// Directory searched for real KONECT edge lists.
    pub data_dir: PathBuf,
    /// If non-empty: only run datasets whose name matches (case-insensitive).
    pub datasets: Vec<String>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            fast: false,
            seed: 7,
            data_dir: PathBuf::from("data"),
            datasets: Vec::new(),
        }
    }
}

impl HarnessOptions {
    /// Parses the common flags from `std::env::args()`-style input,
    /// ignoring unknown flags (binaries parse their own extras).
    ///
    /// # Panics
    ///
    /// Panics with a usage message if a flag is missing its value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = HarnessOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--fast" => opts.fast = true,
                "--seed" => {
                    let v = it.next().expect("--seed requires a value");
                    opts.seed = v.parse().expect("--seed must be an integer");
                }
                "--data-dir" => {
                    let v = it.next().expect("--data-dir requires a value");
                    opts.data_dir = PathBuf::from(v);
                }
                "--datasets" => {
                    let v = it.next().expect("--datasets requires a value");
                    opts.datasets = v
                        .split(',')
                        .map(|s| s.trim().to_lowercase())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                _ => {}
            }
        }
        opts
    }

    /// The dataset specs selected by the filter, scaled down in fast mode.
    pub fn selected_specs(&self) -> Vec<DatasetSpec> {
        DatasetSpec::paper_datasets()
            .into_iter()
            .filter(|s| {
                self.datasets.is_empty()
                    || self
                        .datasets
                        .iter()
                        .any(|d| s.name.to_lowercase().contains(d))
            })
            .map(|s| if self.fast { s.scaled(0.15) } else { s })
            .collect()
    }

    /// Minimum positives a split must have (widening the window as
    /// needed).
    pub fn min_positives(&self) -> usize {
        if self.fast {
            60
        } else {
            150
        }
    }

    /// Cap on positives to bound supervised feature extraction.
    pub fn max_positives(&self) -> usize {
        if self.fast {
            120
        } else {
            400
        }
    }
}

/// A loaded dataset ready for evaluation.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// Spec the network was produced from.
    pub spec: DatasetSpec,
    /// The full dynamic network.
    pub network: DynamicNetwork,
    /// Train/test split over the last timestamps.
    pub split: Split,
    /// Earlier-window splits used to augment supervised training
    /// ([`ssf_repro::methods::Method::evaluate_augmented`]); strictly
    /// predate the evaluation window, so nothing leaks.
    pub extra_train: Vec<Split>,
    /// The prediction window the split settled on (ticks).
    pub window: u32,
}

/// Loads (or generates) and splits a dataset.
///
/// # Errors
///
/// Propagates [`SplitError`] when the network cannot produce a usable
/// split even at the widest window.
pub fn prepare(
    spec: &DatasetSpec,
    opts: &HarnessOptions,
) -> Result<PreparedDataset, SplitError> {
    let (network, _prov) = spec
        .load_or_generate(&opts.data_dir, opts.seed)
        .expect("real dataset file exists but is malformed");
    let cfg = SplitConfig {
        seed: opts.seed,
        max_positives: Some(opts.max_positives()),
        ..SplitConfig::default()
    };
    let split =
        Split::with_min_positives(&network, &cfg, opts.min_positives())?;
    let window = network.max_timestamp().expect("non-empty")
        - split.history.max_timestamp().expect("non-empty history");
    // Supervised training-set augmentation: three earlier prediction
    // windows carved out of the *history* (they end before the evaluation
    // window starts). Their negatives are sampled against the truncated
    // stream only — a pair unlinked then may link later, a small and
    // realistic amount of label pessimism.
    let extra_train = backtest_splits(
        &split.history,
        &BacktestConfig {
            split: cfg,
            folds: 3,
            stride: window.max(1),
            min_positives: opts.min_positives() / 2,
        },
    )
    .unwrap_or_default();
    Ok(PreparedDataset {
        spec: spec.clone(),
        network,
        split,
        extra_train,
        window,
    })
}

/// Builds the paper's Figure 1 celebrity network: celebrities A, B, C with
/// fan crowds, fans X, Y of C only. Returns `(network, (a, b), (x, y))`.
///
/// Links carry timestamps so the same example also exercises the temporal
/// encodings (celebrity interactions are recent and repeated).
pub fn figure1_network() -> (DynamicNetwork, (u32, u32), (u32, u32)) {
    let mut g = DynamicNetwork::new();
    let (a, b, c, x, y) = (0u32, 1u32, 2u32, 3u32, 4u32);
    // A and B frequently interact with celebrity C (recent, repeated).
    for t in [6, 7, 8, 9] {
        g.add_link(a, c, t);
        g.add_link(b, c, t);
    }
    // X and Y are fans of C with the same number of (older) comments, so
    // the weighted rWRA ties exactly like the unweighted indices do.
    for t in [1, 2, 3, 4] {
        g.add_link(x, c, t);
        g.add_link(y, c, t);
    }
    // Fan crowds make A, B, C high degree.
    let mut next = 5u32;
    for celeb in [a, b, c] {
        for _ in 0..8 {
            g.add_link(celeb, next, 1 + next % 9);
            next += 1;
        }
    }
    (g, (a, b), (x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_common_flags() {
        let o = HarnessOptions::parse(args(&[
            "--fast",
            "--seed",
            "42",
            "--datasets",
            "digg,Contact",
            "--data-dir",
            "/tmp/x",
        ]));
        assert!(o.fast);
        assert_eq!(o.seed, 42);
        assert_eq!(o.datasets, vec!["digg", "contact"]);
        assert_eq!(o.data_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn selected_specs_filter_and_scale() {
        let mut o = HarnessOptions::default();
        assert_eq!(o.selected_specs().len(), 7);
        o.datasets = vec!["digg".to_string()];
        let sel = o.selected_specs();
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].name, "Digg");
        o.fast = true;
        assert!(o.selected_specs()[0].nodes < 3215);
    }

    #[test]
    fn prepare_produces_usable_split() {
        let opts = HarnessOptions {
            fast: true,
            ..HarnessOptions::default()
        };
        let spec = DatasetSpec::coauthor().scaled(0.2);
        let prep = prepare(&spec, &opts).unwrap();
        assert!(prep.window >= 1);
        let positives = prep
            .split
            .train
            .iter()
            .chain(&prep.split.test)
            .filter(|s| s.label)
            .count();
        assert!(positives >= 2);
    }

    #[test]
    fn figure1_network_shape() {
        let (g, (a, b), (x, y)) = figure1_network();
        // A-B and X-Y are the target links: absent.
        assert!(!g.has_link(a, b));
        assert!(!g.has_link(x, y));
        // Celebrities have high degree, fans degree 1.
        assert!(g.degree(a) >= 9);
        assert_eq!(g.degree(x), 1);
        assert_eq!(g.link_count_between(a, 2), 4);
    }
}
