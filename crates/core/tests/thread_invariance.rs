//! A fit and the engine's open-time hoods pass must not depend on the
//! thread count. The workers claim short blocks of candidates, queries and
//! objects as they go, so which worker computes what changes from run to
//! run; every byte of the artifact and every served score must not.
//! Counts of 3 and 5 divide neither the candidate lists nor the query runs
//! evenly, and 8 exceeds the cores of most test hosts.

use hics_core::{FitBuilder, HicsParams};
use hics_data::model::{HicsModel, ScorerKind, ScorerSpec};
use hics_data::{Dataset, SyntheticConfig};
use hics_outlier::{IndexKind, QueryEngine};

const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

/// 2-d and 3-d correlated blocks, so the search keeps subspaces of both
/// sizes and the self-join runs both packed row lengths.
fn data() -> Dataset {
    let mut config = SyntheticConfig::new(1200, 8).with_seed(11);
    config.subspace_dims = (2, 3);
    config.clusters_per_subspace = (2, 3);
    config.generate().dataset
}

fn fit(data: &Dataset, threads: usize, top_k: usize, precompute: bool) -> HicsModel {
    let mut p = HicsParams::paper_defaults();
    p.search.m = 20;
    p.search.candidate_cutoff = 40;
    p.search.top_k = top_k;
    p.search.max_dim = Some(3);
    p.search.seed = 5;
    p.search.max_threads = threads;
    FitBuilder::new(p)
        .scorer(ScorerSpec {
            kind: ScorerKind::Lof,
            k: 10,
        })
        .index(IndexKind::VpTree)
        .precompute(precompute)
        .fit(data)
}

#[test]
fn fit_bytes_do_not_depend_on_the_thread_count() {
    let data = data();
    let model = fit(&data, 1, 12, true);
    let dims: Vec<usize> = model.subspaces().iter().map(|s| s.dims.len()).collect();
    assert!(
        dims.contains(&2) && dims.contains(&3),
        "the search should keep 2-d and 3-d subspaces, kept {dims:?}"
    );
    let want = model.to_bytes();
    for threads in &THREADS[1..] {
        let got = fit(&data, *threads, 12, true).to_bytes();
        assert!(got == want, "{threads} threads changed the artifact bytes");
    }
}

#[test]
fn fewer_subspaces_than_threads_give_the_same_bytes() {
    let data = data();
    let want = fit(&data, 1, 2, true).to_bytes();
    for threads in [3, 5, 8] {
        let got = fit(&data, threads, 2, true).to_bytes();
        assert!(
            got == want,
            "top_k 2 on {threads} threads changed the bytes"
        );
    }
}

#[test]
fn open_time_hoods_do_not_depend_on_the_thread_count() {
    let data = data();
    let bare = fit(&data, 2, 12, false);
    assert!(
        bare.hoods().is_none(),
        "the fallback needs a model without hoods"
    );
    let stored = fit(&data, 2, 12, true);
    let one = QueryEngine::from_model(&bare, 1);
    let five = QueryEngine::from_model(&bare, 5);
    let adopted = QueryEngine::from_model(&stored, 1);
    assert!(!one.index_stats().precomputed && adopted.index_stats().precomputed);
    // Every training point (its own hoods and LOF) and a few novel points
    // (the stored densities and clamp) score bit for bit alike.
    let novel = [0.5, -0.25, 1.5];
    let rows = (0..data.n())
        .map(|i| data.row(i))
        .chain(novel.iter().map(|&v| vec![v; data.d()]));
    for (i, row) in rows.enumerate() {
        let want = one.score(&row).unwrap().to_bits();
        assert_eq!(
            five.score(&row).unwrap().to_bits(),
            want,
            "row {i}, 5 threads"
        );
        assert_eq!(
            adopted.score(&row).unwrap().to_bits(),
            want,
            "row {i}, stored"
        );
    }
}
