//! Mutation test of the engine's open: small version-1, version-2 and
//! version-4 artifacts are corrupted one field at a time — every byte
//! flipped, every aligned `u32` and `f64` field overwritten with edge
//! values — and the checksum is re-stamped so each mutation reaches the
//! validation behind it. Every mutated artifact that
//! `ModelArtifact::from_bytes` accepts must open into a `QueryEngine`,
//! with the index the artifact implies and with a forced VP-tree, and
//! score one fixed row without panicking: the open upgrades whatever the
//! parser lets through.

use hics_data::envelope::artifact_checksum;
use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, ModelHoods, ModelIndex, ModelSubspace,
    NormKind, ScorerKind, ScorerSpec,
};
use hics_data::{Dataset, ModelArtifact};
use hics_outlier::{subspace_hoods, IndexKind, QueryEngine, SubspaceIndex, SubspaceLayout};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A 24 × 3 model over two subspaces, with repeated values so distance
/// ties occur.
fn small_model() -> HicsModel {
    let cols = (0..3)
        .map(|j| {
            (0..24)
                .map(|i| ((i * (j + 2)) % 7) as f64 * 0.5 - 1.0)
                .collect()
        })
        .collect();
    let (data, norm) = apply_normalization(&Dataset::from_columns(cols), NormKind::MinMax);
    let subspaces = [vec![0, 1], vec![1, 2]].map(|dims| ModelSubspace {
        dims,
        contrast: 0.5,
    });
    let scorer = ScorerSpec {
        kind: ScorerKind::Lof,
        k: 3,
    };
    HicsModel::new(
        data,
        NormKind::MinMax,
        norm,
        subspaces.to_vec(),
        scorer,
        AggregationKind::Average,
    )
}

/// The model encoded as version 1 (bare), version 2 (VP-trees) and
/// version 4 (VP-trees and hoods).
fn artifacts() -> [(u32, Vec<u8>); 3] {
    let v1 = small_model();
    let (mut v2, mut trees, mut hoods) = (v1.clone(), Vec::new(), Vec::new());
    for s in v1.subspaces() {
        let layout = SubspaceLayout::gather(v1.dataset(), &s.dims);
        let index = SubspaceIndex::build(&layout, IndexKind::VpTree);
        hoods.push(subspace_hoods(&layout, &index, v1.scorer(), 1));
        let SubspaceIndex::VpTree(tree) = index else {
            unreachable!("a VP-tree was asked for")
        };
        trees.push(tree.into_data());
    }
    v2.set_index(Some(ModelIndex { trees }));
    let mut v4 = v2.clone();
    v4.set_hoods(Some(ModelHoods { subspaces: hoods }));
    [(1, v1.to_bytes()), (2, v2.to_bytes()), (4, v4.to_bytes())]
}

/// Writes `value` at `at` and re-stamps the checksum.
fn stamped(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    let checksum = artifact_checksum(&out);
    out[64..72].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Every mutation of `bytes`, with a description: each byte XOR-ed with
/// three masks, each 4-aligned `u32` and each 8-aligned `f64` overwritten
/// with edge values (counts and ids around `n = 24`, signed zeros,
/// extremes, non-finite values).
fn mutations(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..bytes.len()).flat_map(move |at| {
        [0x01u8, 0x80, 0xff].map(|mask| {
            let value = [bytes[at] ^ mask];
            (format!("byte {at} ^ {mask:#x}"), stamped(bytes, at, &value))
        })
    });
    let words = (0..bytes.len() - 3).step_by(4).flat_map(move |at| {
        [0u32, 1, 2, 3, 23, 24, 25, 0x8000_0000, u32::MAX].map(|v| {
            (
                format!("u32 {at} = {v}"),
                stamped(bytes, at, &v.to_le_bytes()),
            )
        })
    });
    let floats = (0..bytes.len() - 7).step_by(8).flat_map(move |at| {
        let values = [
            0.0,
            -0.0,
            0.5,
            -1.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        values.map(|v| {
            (
                format!("f64 {at} = {v:e}"),
                stamped(bytes, at, &v.to_le_bytes()),
            )
        })
    });
    flips.chain(words).chain(floats)
}

#[test]
fn every_accepted_mutation_opens_and_scores() {
    let started = std::time::Instant::now();
    let row = [0.3, -0.2, 0.7];
    let (mut tried, mut accepted, mut failed) = (0usize, 0usize, Vec::new());
    for (version, bytes) in artifacts() {
        for (what, mutated) in mutations(&bytes) {
            tried += 1;
            let Ok(artifact) = ModelArtifact::from_bytes(&mutated) else {
                continue;
            };
            accepted += 1;
            let artifact = Arc::new(artifact);
            for index in [None, Some(IndexKind::VpTree)] {
                let open = || {
                    let engine = QueryEngine::from_artifact(Arc::clone(&artifact), index, 1);
                    engine.score(&row).map(f64::to_bits)
                };
                if catch_unwind(AssertUnwindSafe(open)).is_err() {
                    failed.push(format!("v{version} {what}, index {index:?}"));
                }
            }
        }
    }
    eprintln!(
        "{tried} mutations, {accepted} accepted, {} panicked, {:.2}s",
        failed.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(accepted > 0, "no mutation reached the open");
    assert!(failed.is_empty(), "panicked: {failed:#?}");
}
