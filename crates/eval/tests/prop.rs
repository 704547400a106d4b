//! Property-based tests for the evaluation metrics and the split.

use std::collections::BTreeSet;

use dyngraph::{DynamicNetwork, NodeId, Timestamp};
use proptest::prelude::*;

use ssf_eval::metrics::{accuracy_at, auc, best_f1_threshold, f1_at};
use ssf_eval::{Split, SplitConfig, SplitError};

fn scored() -> impl Strategy<Value = Vec<(f64, bool)>> {
    prop::collection::vec((-10.0..10.0f64, any::<bool>()), 2..60)
}

proptest! {
    /// AUC is bounded and complementation-symmetric: negating scores and
    /// labels flips it around 0.5.
    #[test]
    fn auc_bounded_and_symmetric(s in scored()) {
        let a = auc(&s);
        prop_assert!((0.0..=1.0).contains(&a));
        let flipped: Vec<(f64, bool)> =
            s.iter().map(|&(v, y)| (-v, y)).collect();
        let b = auc(&flipped);
        let pos = s.iter().filter(|&&(_, y)| y).count();
        if pos > 0 && pos < s.len() {
            prop_assert!((a + b - 1.0).abs() < 1e-9);
        }
    }

    /// AUC is invariant under strictly monotone score transforms.
    #[test]
    fn auc_invariant_to_monotone_transform(s in scored()) {
        let transformed: Vec<(f64, bool)> =
            s.iter().map(|&(v, y)| (v.exp(), y)).collect();
        prop_assert!((auc(&s) - auc(&transformed)).abs() < 1e-12);
    }

    /// F1 and accuracy are bounded in [0, 1] at any threshold.
    #[test]
    fn f1_and_accuracy_bounded(s in scored(), t in -12.0..12.0f64) {
        let f = f1_at(&s, t);
        prop_assert!((0.0..=1.0).contains(&f));
        let acc = accuracy_at(&s, t);
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    /// The chosen threshold really maximizes F1 over all candidates.
    #[test]
    fn best_threshold_is_optimal(s in scored()) {
        let t = best_f1_threshold(&s);
        let best = f1_at(&s, t);
        for &(cand, _) in &s {
            prop_assert!(f1_at(&s, cand) <= best + 1e-12);
        }
    }

    /// A perfectly separated sample has AUC 1 and a perfect threshold.
    #[test]
    fn perfect_separation_detected(
        pos in prop::collection::vec(5.0..10.0f64, 1..20),
        neg in prop::collection::vec(-10.0..4.9f64, 1..20),
    ) {
        let s: Vec<(f64, bool)> = pos
            .iter()
            .map(|&v| (v, true))
            .chain(neg.iter().map(|&v| (v, false)))
            .collect();
        prop_assert_eq!(auc(&s), 1.0);
        let t = best_f1_threshold(&s);
        prop_assert_eq!(f1_at(&s, t), 1.0);
    }
}

/// The window-doubling loop as it was when every window tried built a
/// full split, history copy included: the behaviour the planned loop must
/// reproduce exactly.
fn copying_with_min_positives(
    g: &DynamicNetwork,
    config: &SplitConfig,
    min_positives: usize,
) -> Result<Split, SplitError> {
    let span = match (g.min_timestamp(), g.max_timestamp()) {
        (Some(lo), Some(hi)) => hi - lo + 1,
        _ => return Err(SplitError::EmptyNetwork),
    };
    let mut window = config.window.max(1);
    let mut last_err = SplitError::NoPositives;
    while window <= span / 2 {
        match Split::new(g, &SplitConfig { window, ..*config }) {
            Ok(split) => {
                let positives = split
                    .train
                    .iter()
                    .chain(&split.test)
                    .filter(|s| s.label)
                    .count();
                if positives >= min_positives {
                    return Ok(split);
                }
                last_err = SplitError::NoPositives;
            }
            Err(e) => last_err = e,
        }
        window *= 2;
    }
    Split::new(
        g,
        &SplitConfig {
            window: (span / 2).max(1),
            ..*config
        },
    )
    .map_err(|_| last_err)
}

fn network() -> impl Strategy<Value = DynamicNetwork> {
    (
        3u32..24,
        prop::collection::vec((0u32..24, 0u32..24, 1u32..14), 0..90),
    )
        .prop_map(|(n, links)| {
            let mut g = DynamicNetwork::new();
            g.ensure_node(n - 1);
            for (u, v, t) in links {
                let (u, v) = (u % n, v % n);
                if u != v {
                    g.add_link(u, v, t);
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Planning each window and copying the history once for the one
    /// accepted returns what building every window in full returned:
    /// the same history, samples, `l_t`, or the same error.
    #[test]
    fn with_min_positives_matches_the_copying_loop(
        g in network(),
        window in 1u32..6,
        max_positives in (any::<bool>(), 0usize..12)
            .prop_map(|(capped, cap)| capped.then_some(cap)),
        min_positives in 0usize..24,
        seed in 0u64..1000,
    ) {
        let config = SplitConfig {
            window,
            seed,
            max_positives,
            ..SplitConfig::default()
        };
        prop_assert_eq!(
            Split::with_min_positives(&g, &config, min_positives),
            copying_with_min_positives(&g, &config, min_positives)
        );
    }

    /// Positives are exactly the window's pairs with no history link,
    /// as tested on the copied history itself.
    #[test]
    fn positives_are_the_window_pairs_absent_from_history(
        g in network(),
        window in 1u32..6,
        seed in 0u64..1000,
    ) {
        let config = SplitConfig { window, seed, ..SplitConfig::default() };
        if let Ok(split) = Split::new(&g, &config) {
            let start: Timestamp =
                split.history.max_timestamp().map_or(0, |t| t + 1);
            let got: BTreeSet<(NodeId, NodeId)> = split
                .train
                .iter()
                .chain(&split.test)
                .filter(|s| s.label)
                .map(|s| (s.u, s.v))
                .collect();
            let want: BTreeSet<(NodeId, NodeId)> = g
                .links()
                .filter(|l| l.t >= start && !split.history.has_link(l.u, l.v))
                .map(|l| (l.u, l.v))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
