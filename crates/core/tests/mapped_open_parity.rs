//! Parity of the mapped open with the heap open. A memory-mapped open
//! releases each window and section of the file once it has validated it,
//! and reads a released page from the file again when it needs it once
//! more (the order check re-reads the column it sorts). None of that may
//! change a verdict: for every mutation of a model artifact and of a
//! dataset store — every byte XOR-ed with three masks, every aligned `u32`
//! and `f64` overwritten with edge values, the checksum re-stamped so the
//! mutation reaches the validation behind it — `open_mmap` of the bytes
//! written to a file must agree with `from_bytes` of the same bytes: both
//! accept, or both fail with the same message.

use hics_data::envelope::{artifact_checksum, WINDOW};
use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, ModelHoods, ModelIndex, ModelSubspace,
    NormKind, ScorerKind, ScorerSpec,
};
use hics_data::{Dataset, HicsError, ModelArtifact};
use hics_outlier::{subspace_hoods, IndexKind, SubspaceIndex, SubspaceLayout};
use hics_store::DatasetStore;
use std::path::{Path, PathBuf};

/// An `n` × 3 model over two subspaces, with repeated values so distance
/// ties occur (`n = 24` is the model `open_mutations` corrupts).
fn model(n: usize) -> HicsModel {
    let cols = (0..3)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (j + 2)) % 7) as f64 * 0.5 - 1.0 + (i / 7) as f64 * 1e-3)
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
fn artifacts(n: usize) -> [(u32, Vec<u8>); 3] {
    let v1 = model(n);
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

/// A 40-row, 3-attribute dataset store.
fn store() -> Vec<u8> {
    let cols = (0..3)
        .map(|j| {
            (0..40)
                .map(|i| ((i * (j + 3)) % 11) as f64 * 0.25)
                .collect()
        })
        .collect();
    let path = temp_path("store-src");
    hics_store::write_dataset_store(&path, &Dataset::from_columns(cols), 16, NormKind::MinMax)
        .expect("write store");
    let bytes = std::fs::read(&path).expect("read store");
    std::fs::remove_file(&path).ok();
    bytes
}

/// A per-process file path for `what`.
fn temp_path(what: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hics-parity-{what}-{}", std::process::id()))
}

/// Writes `value` at `at` and re-stamps the checksum.
fn stamped(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    let checksum = artifact_checksum(&out);
    out[64..72].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Every mutation `open_mutations` makes of `bytes`, as (description,
/// offset, new bytes): each byte XOR-ed with three masks, each 4-aligned
/// `u32` and each 8-aligned `f64` overwritten with edge values.
fn edits(bytes: &[u8]) -> impl Iterator<Item = (String, usize, Vec<u8>)> + '_ {
    let flips = (0..bytes.len()).flat_map(move |at| {
        [0x01u8, 0x80, 0xff]
            .map(|mask| (format!("byte {at} ^ {mask:#x}"), at, vec![bytes[at] ^ mask]))
    });
    let words = (0..bytes.len() - 3).step_by(4).flat_map(move |at| {
        [0u32, 1, 2, 3, 23, 24, 25, 0x8000_0000, u32::MAX]
            .map(|v| (format!("u32 {at} = {v}"), at, v.to_le_bytes().to_vec()))
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
        values.map(|v| (format!("f64 {at} = {v:e}"), at, v.to_le_bytes().to_vec()))
    });
    flips.chain(words).chain(floats)
}

/// `bytes` with one edit applied and the checksum re-stamped.
fn mutated<'a>(bytes: &'a [u8]) -> impl Fn((String, usize, Vec<u8>)) -> (String, Vec<u8>) + 'a {
    move |(what, at, value)| (what, stamped(bytes, at, &value))
}

/// The verdict of one open: accepted, or the error's message.
fn verdict<T>(opened: Result<T, HicsError>) -> Result<(), String> {
    opened.map(drop).map_err(|e| e.to_string())
}

/// Opens every mutation both ways and returns the mutation count, the
/// number accepted and the disagreements.
fn compare(
    cases: impl Iterator<Item = (String, Vec<u8>)>,
    path: &Path,
    mapped: impl Fn(&Path) -> Result<(), String>,
    heap: impl Fn(&[u8]) -> Result<(), String>,
) -> (usize, usize, Vec<String>) {
    let (mut tried, mut accepted, mut differ) = (0, 0, Vec::new());
    for (what, bytes) in cases {
        tried += 1;
        std::fs::write(path, &bytes).expect("write mutation");
        let (m, h) = (mapped(path), heap(&bytes));
        accepted += usize::from(h.is_ok());
        if m != h {
            differ.push(format!("{what}: mapped {m:?}, heap {h:?}"));
        }
    }
    std::fs::remove_file(path).ok();
    (tried, accepted, differ)
}

#[test]
fn mapped_and_heap_model_opens_agree_on_every_mutation() {
    let started = std::time::Instant::now();
    let path = temp_path("model.hics");
    let (mut tried, mut accepted, mut differ) = (0, 0, Vec::new());
    for (version, bytes) in artifacts(24) {
        let (t, a, d) = compare(
            edits(&bytes).map(mutated(&bytes)),
            &path,
            |p| verdict(ModelArtifact::open_mmap(p)),
            |b| verdict(ModelArtifact::from_bytes(b)),
        );
        tried += t;
        accepted += a;
        differ.extend(d.into_iter().map(|d| format!("v{version} {d}")));
    }
    eprintln!(
        "model: {tried} mutations, {accepted} accepted, {} differ, {:.2}s",
        differ.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(accepted > 0, "no mutation was accepted");
    assert!(differ.is_empty(), "{differ:#?}");
}

/// An artifact of more than one checksum window, so the open releases and
/// re-reads pages mid-validation: every 2741st of its mutations.
#[test]
fn mapped_and_heap_opens_agree_on_a_many_page_artifact() {
    let path = temp_path("wide.hics");
    let (_, v4) = artifacts(4000).into_iter().last().expect("three encodings");
    assert!(v4.len() > WINDOW, "{} bytes", v4.len());
    let (tried, accepted, differ) = compare(
        edits(&v4)
            .step_by(2741)
            .chain([("untouched".to_string(), 0, v4[..1].to_vec())])
            .map(mutated(&v4)),
        &path,
        |p| verdict(ModelArtifact::open_mmap(p)),
        |b| verdict(ModelArtifact::from_bytes(b)),
    );
    eprintln!(
        "{}-byte model: {tried} mutations, {accepted} accepted",
        v4.len()
    );
    assert!(accepted > 0, "not even the untouched artifact opened");
    assert!(differ.is_empty(), "{differ:#?}");
}

#[test]
fn mapped_and_heap_store_opens_agree_on_every_mutation() {
    let started = std::time::Instant::now();
    let bytes = store();
    let (tried, accepted, differ) = compare(
        edits(&bytes).map(mutated(&bytes)),
        &temp_path("data.hicsstore"),
        |p| verdict(DatasetStore::open_mmap(p)),
        |b| verdict(DatasetStore::from_bytes(b)),
    );
    eprintln!(
        "store: {tried} mutations, {accepted} accepted, {} differ, {:.2}s",
        differ.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(accepted > 0, "no mutation was accepted");
    assert!(differ.is_empty(), "{differ:#?}");
}
