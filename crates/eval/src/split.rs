//! Train/test splitting (§VI-C2 of the paper).
//!
//! "We choose the last timestamp of the dynamic networks as the present
//! time `l_t`, then select 70 percent of the real links at `l_t` as
//! positive samples for training, and the remaining links are selected as
//! positive samples for test. We randomly select fake links as negative
//! samples and set them have the same number as positive samples in both
//! training set and test set."

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use dyngraph::{DynamicNetwork, GraphView, NodeId, Timestamp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One labeled candidate link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSample {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// `true` = the link really emerges in the prediction window.
    pub label: bool,
}

/// Split configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitConfig {
    /// Fraction of positives (and negatives) assigned to training (paper:
    /// 0.7).
    pub train_fraction: f64,
    /// Width of the prediction window in timestamp ticks. The paper
    /// predicts the single last tick (`window = 1`); sparse synthetic
    /// datasets may need a wider window for statistically meaningful test
    /// sets — EXPERIMENTS.md records what each run used.
    pub window: u32,
    /// RNG seed for negative sampling and shuffling.
    pub seed: u64,
    /// Optional cap on positives (subsampled after shuffling) for fast
    /// runs.
    pub max_positives: Option<usize>,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            train_fraction: 0.7,
            window: 1,
            seed: 1,
            max_positives: None,
        }
    }
}

/// Errors from splitting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SplitError {
    /// The network has no links at all.
    EmptyNetwork,
    /// No links fall in the prediction window, or no usable positives
    /// remain.
    NoPositives,
    /// The node set is too small to sample enough never-linked negatives.
    NotEnoughNegatives,
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::EmptyNetwork => write!(f, "network has no links"),
            SplitError::NoPositives => {
                write!(f, "no positive links in the prediction window")
            }
            SplitError::NotEnoughNegatives => {
                write!(f, "cannot sample enough never-linked negative pairs")
            }
        }
    }
}

impl Error for SplitError {}

/// A prepared experiment: history network + labeled train/test samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// The history `G_{[t_min, window_start)}` features are extracted from.
    pub history: DynamicNetwork,
    /// The prediction time `l_t` (the network's last timestamp).
    pub l_t: Timestamp,
    /// Labeled training samples (balanced, shuffled).
    pub train: Vec<LinkSample>,
    /// Labeled test samples (balanced, shuffled).
    pub test: Vec<LinkSample>,
}

/// A split's samples and prediction window, decided on the full network
/// without copying its history. [`Split::new`] is a plan plus one
/// [`Plan::into_split`].
struct Plan {
    t_min: Timestamp,
    window_start: Timestamp,
    l_t: Timestamp,
    positives: usize,
    train: Vec<LinkSample>,
    test: Vec<LinkSample>,
}

impl Plan {
    /// Copies the history `G_{[t_min, window_start)}` out of `g`, the
    /// network the plan was made on.
    fn into_split<G: GraphView + ?Sized>(
        self,
        g: &G,
    ) -> Result<Split, SplitError> {
        // `window_start > t_min` makes the period non-empty; a failure
        // would be an internal invariant break, surfaced as NoPositives
        // rather than a panic on the serving path.
        let history = g
            .period(self.t_min, self.window_start)
            .map_err(|_| SplitError::NoPositives)?;
        Ok(Split {
            history,
            l_t: self.l_t,
            train: self.train,
            test: self.test,
        })
    }
}

/// `true` if `u` and `v` share a link older than `t`, i.e. a link of the
/// history `G_{[t_min, t)}`, read off the shorter incidence row of `g`.
fn linked_before<G: GraphView + ?Sized>(
    g: &G,
    u: NodeId,
    v: NodeId,
    t: Timestamp,
) -> bool {
    let (a, b) = if g.multi_degree(u) <= g.multi_degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    g.incident_links(a).any(|(w, s)| w == b && s < t)
}

impl Split {
    /// Builds the split.
    ///
    /// Positives are the distinct node pairs with a link in the window
    /// `(l_t − window, l_t]` *that do not also have an earlier history
    /// link* — predicting the re-occurrence of an existing pair is trivial
    /// lookup, and including such pairs would let every history-aware
    /// feature separate the classes perfectly. Negatives are uniformly
    /// sampled pairs with no link at any time.
    ///
    /// # Errors
    ///
    /// * [`SplitError::EmptyNetwork`] — `g` has no links.
    /// * [`SplitError::NoPositives`] — nothing to predict in the window.
    /// * [`SplitError::NotEnoughNegatives`] — pathological tiny/dense
    ///   graph.
    pub fn new<G: GraphView + ?Sized>(
        g: &G,
        config: &SplitConfig,
    ) -> Result<Self, SplitError> {
        Self::plan(g, config)?.into_split(g)
    }

    /// Everything [`Split::new`] decides, with the same RNG draws and
    /// errors, minus the history copy.
    fn plan<G: GraphView + ?Sized>(
        g: &G,
        config: &SplitConfig,
    ) -> Result<Plan, SplitError> {
        let l_t = g.max_timestamp().ok_or(SplitError::EmptyNetwork)?;
        let t_min = g.min_timestamp().ok_or(SplitError::EmptyNetwork)?;
        let window = config.window.max(1);
        let window_start = l_t.saturating_sub(window - 1).max(t_min);
        if window_start <= t_min {
            // The window must leave some history.
            return Err(SplitError::NoPositives);
        }

        // Distinct new pairs in the window.
        let mut positives: Vec<(NodeId, NodeId)> = Vec::new();
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        g.links().for_each(|link| {
            if link.t >= window_start
                && !linked_before(g, link.u, link.v, window_start)
                && seen.insert((link.u, link.v))
            {
                positives.push((link.u, link.v));
            }
        });
        if positives.is_empty() {
            return Err(SplitError::NoPositives);
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        positives.shuffle(&mut rng);
        if let Some(cap) = config.max_positives {
            positives.truncate(cap.max(2));
        }

        // Negative pairs: never linked at any time.
        let n = g.node_count() as NodeId;
        if n < 3 {
            return Err(SplitError::NotEnoughNegatives);
        }
        let mut negatives: Vec<(NodeId, NodeId)> = Vec::new();
        let mut used: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut attempts = 0usize;
        let budget = positives.len() * 1000;
        while negatives.len() < positives.len() {
            attempts += 1;
            if attempts > budget {
                return Err(SplitError::NotEnoughNegatives);
            }
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let pair = (a.min(b), a.max(b));
            if g.has_link(pair.0, pair.1) || !used.insert(pair) {
                continue;
            }
            negatives.push(pair);
        }

        // 70/30 split of each class, then interleave and shuffle.
        let cut_pos =
            ((positives.len() as f64) * config.train_fraction).round() as usize;
        let cut_pos =
            cut_pos.clamp(1, positives.len().saturating_sub(1).max(1));
        let cut_neg = cut_pos; // balanced classes
        let mut train: Vec<LinkSample> = Vec::new();
        let mut test: Vec<LinkSample> = Vec::new();
        for (i, &(u, v)) in positives.iter().enumerate() {
            let s = LinkSample { u, v, label: true };
            if i < cut_pos {
                train.push(s);
            } else {
                test.push(s);
            }
        }
        for (i, &(u, v)) in negatives.iter().enumerate() {
            let s = LinkSample { u, v, label: false };
            if i < cut_neg {
                train.push(s);
            } else {
                test.push(s);
            }
        }
        train.shuffle(&mut rng);
        test.shuffle(&mut rng);
        if test.iter().all(|s| !s.label) || test.is_empty() {
            return Err(SplitError::NoPositives);
        }
        Ok(Plan {
            t_min,
            window_start,
            l_t,
            positives: positives.len(),
            train,
            test,
        })
    }

    /// Builds a split whose prediction window is widened (starting from
    /// `config.window`) until at least `min_positives` positive pairs exist
    /// or the window would swallow the whole history. The paper predicts
    /// the single last tick; synthetic traces with few fresh pairs per tick
    /// need this to obtain statistically meaningful test sets (the window
    /// actually used is visible through the returned split's
    /// [`Split::history`] span and is logged by the harness).
    ///
    /// # Errors
    ///
    /// Same as [`Split::new`], when even the widest window fails.
    ///
    /// Each window tried is only planned; the history is copied once, for
    /// the window returned.
    pub fn with_min_positives<G: GraphView + ?Sized>(
        g: &G,
        config: &SplitConfig,
        min_positives: usize,
    ) -> Result<Self, SplitError> {
        let span = match (g.min_timestamp(), g.max_timestamp()) {
            (Some(lo), Some(hi)) => hi - lo + 1,
            _ => return Err(SplitError::EmptyNetwork),
        };
        let mut window = config.window.max(1);
        let mut last_err = SplitError::NoPositives;
        // Keep at least half the span as history.
        while window <= span / 2 {
            match Split::plan(g, &SplitConfig { window, ..*config }) {
                Ok(plan) => {
                    if plan.positives >= min_positives {
                        return plan.into_split(g);
                    }
                    last_err = SplitError::NoPositives;
                }
                Err(e) => last_err = e,
            }
            window *= 2;
        }
        // Fall back to the widest acceptable window even if thin.
        Split::new(
            g,
            &SplitConfig {
                window: (span / 2).max(1),
                ..*config
            },
        )
        .map_err(|_| last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 40-node network: dense early activity at t ∈ [1, 9], fresh pairs at
    /// t = 10.
    fn sample_network() -> DynamicNetwork {
        let mut g = DynamicNetwork::new();
        for i in 0..40u32 {
            let j = (i + 1) % 40;
            g.add_link(i, j, 1 + (i % 9));
        }
        // New links at the last tick between far-apart nodes.
        for i in 0..10u32 {
            g.add_link(i, i + 20, 10);
        }
        g
    }

    #[test]
    fn split_balances_classes() {
        let g = sample_network();
        let s = Split::new(&g, &SplitConfig::default()).unwrap();
        assert_eq!(s.l_t, 10);
        let count = |v: &[LinkSample], label| {
            v.iter().filter(|s| s.label == label).count()
        };
        assert_eq!(count(&s.train, true), count(&s.train, false));
        assert_eq!(count(&s.test, true), count(&s.test, false));
        assert_eq!(count(&s.train, true) + count(&s.test, true), 10);
    }

    #[test]
    fn history_excludes_window() {
        let g = sample_network();
        let s = Split::new(&g, &SplitConfig::default()).unwrap();
        assert_eq!(s.history.max_timestamp(), Some(9));
        assert!(!s.history.has_link(0, 20));
    }

    #[test]
    fn positives_are_new_pairs() {
        let g = sample_network();
        let s = Split::new(&g, &SplitConfig::default()).unwrap();
        for sample in s.train.iter().chain(&s.test) {
            if sample.label {
                assert!(!s.history.has_link(sample.u, sample.v));
                assert!(g.has_link(sample.u, sample.v));
            } else {
                assert!(!g.has_link(sample.u, sample.v));
            }
        }
    }

    #[test]
    fn seed_determines_split() {
        let g = sample_network();
        let a = Split::new(&g, &SplitConfig::default()).unwrap();
        let b = Split::new(&g, &SplitConfig::default()).unwrap();
        assert_eq!(a, b);
        let c = Split::new(
            &g,
            &SplitConfig {
                seed: 99,
                ..SplitConfig::default()
            },
        )
        .unwrap();
        assert!(a.train != c.train || a.test != c.test);
    }

    #[test]
    fn window_widens_positives() {
        let mut g = sample_network();
        g.extend([(3, 30, 9), (5, 33, 9)]);
        let narrow = Split::new(&g, &SplitConfig::default()).unwrap();
        let wide = Split::new(
            &g,
            &SplitConfig {
                window: 2,
                ..SplitConfig::default()
            },
        )
        .unwrap();
        let positives = |s: &Split| {
            s.train.iter().chain(&s.test).filter(|x| x.label).count()
        };
        assert!(positives(&wide) > positives(&narrow));
        assert_eq!(wide.history.max_timestamp(), Some(8));
    }

    #[test]
    fn max_positives_caps() {
        let g = sample_network();
        let s = Split::new(
            &g,
            &SplitConfig {
                max_positives: Some(4),
                ..SplitConfig::default()
            },
        )
        .unwrap();
        let pos = s.train.iter().chain(&s.test).filter(|x| x.label).count();
        assert_eq!(pos, 4);
    }

    #[test]
    fn empty_network_rejected() {
        assert_eq!(
            Split::new(&DynamicNetwork::new(), &SplitConfig::default()),
            Err(SplitError::EmptyNetwork)
        );
    }

    #[test]
    fn single_tick_network_has_no_history() {
        let g: DynamicNetwork = [(0, 1, 5), (1, 2, 5)].into_iter().collect();
        assert_eq!(
            Split::new(&g, &SplitConfig::default()),
            Err(SplitError::NoPositives)
        );
    }

    #[test]
    fn with_min_positives_widens_until_enough() {
        let mut g = DynamicNetwork::new();
        for i in 0..60u32 {
            g.add_link(i, (i + 1) % 60, 1 + (i % 8));
        }
        // One fresh pair per tick at ticks 9 and 10.
        g.add_link(0, 30, 9);
        g.add_link(1, 31, 10);
        let cfg = SplitConfig::default();
        // Window 1 has a single positive — not even splittable into
        // non-empty train and test positives.
        assert!(Split::new(&g, &cfg).is_err());
        let wide = Split::with_min_positives(&g, &cfg, 2).unwrap();
        assert_eq!(
            wide.train
                .iter()
                .chain(&wide.test)
                .filter(|s| s.label)
                .count(),
            2
        );
    }

    #[test]
    fn repeat_only_window_yields_no_positives() {
        // Window links all repeat history pairs.
        let g: DynamicNetwork = [(0, 1, 1), (1, 2, 2), (0, 1, 3), (1, 2, 3)]
            .into_iter()
            .collect();
        assert_eq!(
            Split::new(&g, &SplitConfig::default()),
            Err(SplitError::NoPositives)
        );
    }
}
