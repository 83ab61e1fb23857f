//! Pins the bytes of a workload-shaped fit: a 3000×8 dataset of 2-d
//! correlated blocks with 3 clusters each, searched with Welch's test
//! (M = 20, subspaces up to 3-d), indexed with VP-trees and written with
//! the LOF (k = 10) hoods section. Any change to the search, the trees,
//! the all-points kNN pass or the artifact encoder that moves a single bit
//! of the model fails here.

use hics_core::{FitBuilder, HicsParams};
use hics_data::model::{fnv1a, ScorerKind, ScorerSpec, FNV_OFFSET};
use hics_data::SyntheticConfig;
use hics_outlier::IndexKind;

fn pinned_model_bytes(threads: usize) -> Vec<u8> {
    let mut config = SyntheticConfig::new(3000, 8).with_seed(7);
    config.subspace_dims = (2, 2);
    config.clusters_per_subspace = (3, 3);
    let data = config.generate().dataset;
    let mut p = HicsParams::paper_defaults();
    p.search.m = 20;
    p.search.candidate_cutoff = 100;
    p.search.top_k = 20;
    p.search.max_dim = Some(3);
    p.search.seed = 7;
    p.search.max_threads = threads;
    FitBuilder::new(p)
        .scorer(ScorerSpec {
            kind: ScorerKind::Lof,
            k: 10,
        })
        .index(IndexKind::VpTree)
        .precompute(true)
        .fit(&data)
        .to_bytes()
}

#[test]
fn workload_shaped_fit_bytes_are_pinned() {
    let bytes = pinned_model_bytes(2);
    assert_eq!(
        (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
        (PINNED_LEN, PINNED_FNV1A),
        "the fitted artifact's bytes moved"
    );
    // The self-join cuts its queries into one run per thread on any host.
    assert_eq!(pinned_model_bytes(1), bytes, "thread count changed bytes");
}

/// Length and FNV-1a of the artifact as first written, before the
/// all-points kNN pass became a tree-order self-join.
const PINNED_LEN: usize = 1_795_784;
const PINNED_FNV1A: u64 = 16_541_577_581_988_637_193;
