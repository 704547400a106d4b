//! End-to-end integration tests: dataset generation → splitting → every
//! Table III method → metric sanity, plus determinism across the whole
//! pipeline, and offline = online: a fitted [`SsfnmModel`] reproduces the
//! offline SSFNM scores.

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::methods::{Method, MethodOptions};
use ssf_repro::ssf_eval::{
    backtest_splits, BacktestConfig, LinkSample, ResultsTable, Split,
    SplitConfig,
};
use ssf_repro::{SsfError, SsfnmModel};

fn quick_opts() -> MethodOptions {
    MethodOptions {
        nm_epochs: 15,
        ..MethodOptions::default()
    }
}

#[allow(clippy::expect_used)] // test helper
fn small_split(spec: &DatasetSpec, seed: u64) -> Split {
    let g = spec.generate(seed);
    Split::with_min_positives(
        &g,
        &SplitConfig {
            seed,
            max_positives: Some(60),
            ..SplitConfig::default()
        },
        30,
    )
    .expect("generated dataset must split")
}

#[test]
fn every_method_runs_on_every_topology_class() {
    let specs = [
        DatasetSpec::contact().scaled(0.12), // RepeatedContact
        DatasetSpec::digg().scaled(0.08),    // HubDominated
        DatasetSpec::coauthor().scaled(0.15), // Community
    ];
    let opts = quick_opts();
    for (i, spec) in specs.iter().enumerate() {
        let split = small_split(spec, 100 + i as u64);
        for method in Method::all() {
            let r = method.evaluate(&split, &opts);
            assert!(
                (0.0..=1.0).contains(&r.auc) && r.auc.is_finite(),
                "{} AUC out of range on {}: {}",
                r.name,
                spec.name,
                r.auc
            );
            assert!(
                (0.0..=1.0).contains(&r.f1) && r.f1.is_finite(),
                "{} F1 out of range on {}",
                r.name,
                spec.name
            );
        }
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let spec = DatasetSpec::coauthor().scaled(0.12);
    let opts = quick_opts();
    let run = || {
        let split = small_split(&spec, 7);
        let r1 = Method::Ssfnm.evaluate(&split, &opts);
        let r2 = Method::Cn.evaluate(&split, &opts);
        (r1.auc, r1.f1, r2.auc, r2.f1)
    };
    assert_eq!(run(), run());
}

#[test]
fn results_table_collects_full_grid() {
    let spec = DatasetSpec::digg().scaled(0.08);
    let split = small_split(&spec, 3);
    let opts = quick_opts();
    let mut table = ResultsTable::new();
    for m in [Method::Cn, Method::Pa, Method::Ssflr] {
        table.record(spec.name, &m.evaluate(&split, &opts));
    }
    assert_eq!(table.methods().len(), 3);
    assert_eq!(table.datasets().len(), 1);
    assert!(table.best_by_auc(spec.name).is_some());
    let csv = table.to_csv();
    assert_eq!(csv.lines().count(), 4); // header + 3 rows
    assert!(table.to_string().contains("Digg"));
}

#[test]
fn split_has_no_label_leakage_into_history() {
    let spec = DatasetSpec::facebook().scaled(0.08);
    let split = small_split(&spec, 5);
    for s in split.train.iter().chain(&split.test) {
        assert!(
            !split.history.has_link(s.u, s.v),
            "candidate pair ({}, {}) must be absent from history",
            s.u,
            s.v
        );
    }
}

#[test]
fn supervised_and_ranking_agree_on_obvious_signal() {
    // A network where positives always close triangles: every reasonable
    // method must beat chance comfortably.
    let spec = DatasetSpec::coauthor().scaled(0.2);
    let split = small_split(&spec, 7);
    let opts = MethodOptions {
        nm_epochs: 80,
        ..MethodOptions::default()
    };
    for m in [Method::Cn, Method::Ssflr, Method::Ssfnm] {
        let r = m.evaluate(&split, &opts);
        assert!(
            r.auc > 0.55,
            "{} should beat chance on community data: {}",
            r.name,
            r.auc
        );
    }
}

/// Offline = online: SSFNM trained by [`SsfnmModel::try_fit`] on a split
/// plus earlier-window folds scores the held-out pairs bit for bit as
/// [`Method::evaluate_augmented`] does, and so does the model read back
/// from its saved form.
#[test]
#[allow(clippy::expect_used)]
fn fitted_model_scores_match_offline_ssfnm_bit_for_bit() {
    let split = small_split(&DatasetSpec::coauthor().scaled(0.2), 7);
    let extra = backtest_splits(
        &split.history,
        &BacktestConfig {
            split: SplitConfig {
                seed: 7,
                max_positives: Some(60),
                ..SplitConfig::default()
            },
            folds: 2,
            stride: 1,
            min_positives: 10,
        },
    )
    .expect("history must backtest");
    assert!(!extra.is_empty(), "the fit must see extra folds");
    let opts = quick_opts();
    let to_bits = |scores: &[f64]| -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    };
    let offline = Method::Ssfnm.evaluate_augmented(&split, &extra, &opts);
    let model = SsfnmModel::try_fit(&split, &extra, &opts).expect("fit");
    let mut saved = Vec::new();
    model.save(&mut saved).expect("save");
    let loaded = SsfnmModel::load(saved.as_slice()).expect("load");
    let present = split.history.max_timestamp().expect("history") + 1;
    for (name, m) in [("fitted", &model), ("loaded", &loaded)] {
        let online: Vec<f64> = split
            .test
            .iter()
            .map(|s| {
                m.try_score(&split.history, s.u, s.v, present)
                    .expect("test pairs are valid")
            })
            .collect();
        assert_eq!(
            to_bits(&online),
            to_bits(&offline.test_scores),
            "{name} model diverged from the offline scores"
        );
    }
}

/// The fit contract: a self pair or an endpoint outside the fold's id
/// space, in the split's train samples or in an extra fold, is refused
/// as [`SsfError::Extract`] rather than trained on.
#[test]
#[allow(clippy::expect_used)]
fn fit_refuses_degenerate_and_out_of_range_samples() {
    let split = small_split(&DatasetSpec::coauthor().scaled(0.15), 3);
    let n = split.history.node_count() as u32;
    let good = split.train[0];
    let opts = MethodOptions {
        nm_epochs: 2,
        ..MethodOptions::default()
    };
    let hand_built = |train: Vec<LinkSample>| Split {
        history: split.history.clone(),
        l_t: split.l_t,
        train,
        test: Vec::new(),
    };
    SsfnmModel::try_fit(&hand_built(vec![good]), &[], &opts)
        .expect("a valid hand-built split fits");
    for bad in [(3, 3), (0, n), (n + 5, 1)] {
        let bad = LinkSample {
            u: bad.0,
            v: bad.1,
            label: true,
        };
        let own = SsfnmModel::try_fit(&hand_built(vec![good, bad]), &[], &opts);
        let extra = SsfnmModel::try_fit(
            &hand_built(vec![good]),
            &[hand_built(vec![bad])],
            &opts,
        );
        for (r, which) in [(own, "train"), (extra, "extra fold")] {
            assert!(
                matches!(r, Err(SsfError::Extract(_))),
                "{bad:?} in the {which}: {r:?}"
            );
        }
    }
}
