//! Property tests for the dataset store: rows streamed through the writer
//! (across every chunking) come back bit-identical from the mmap reader,
//! and corrupted or truncated stores are rejected with located errors,
//! never panics or silent misreads.

use hics_data::model::{fnv1a, FNV_OFFSET};
use hics_data::{ArtifactSection, Dataset, HicsError, NormKind, SyntheticConfig};
use hics_store::{write_dataset_store, DatasetStore, StoreWriter};
use proptest::prelude::*;
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hics-store-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.hicsstore",
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Quantised finite values (exact ties included — the hardest case for
/// bit-equality through the normalising writer).
fn gen_value(raw: u32) -> f64 {
    (raw % 113) as f64 / 9.0 - 6.0
}

/// Writes the rows through the streaming writer and returns the bytes.
fn write_rows(rows: &[Vec<f64>], chunk_rows: usize, norm: NormKind) -> Vec<u8> {
    let path = temp_path("prop");
    let mut w = StoreWriter::create(&path, chunk_rows, norm);
    for row in rows {
        w.push_row(row).expect("push");
    }
    w.finish(None).expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Streaming write → mmap read is bit-exact for every shape, chunking
    /// and normalisation, and the encoding is independent of the chunk
    /// size the writer happened to use.
    #[test]
    fn write_read_roundtrip_is_bit_exact(
        n in 1usize..60,
        d in 1usize..5,
        raw in prop::collection::vec(0u32..10_000, 4..40),
        chunk_rows in 1usize..70,
        norm_code in 0u32..3,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| gen_value(raw[(i * d + j) % raw.len()])).collect())
            .collect();
        let norm = match norm_code {
            0 => NormKind::None,
            1 => NormKind::MinMax,
            _ => NormKind::ZScore,
        };
        let bytes = write_rows(&rows, chunk_rows, norm);
        let store = DatasetStore::from_bytes(&bytes).expect("valid store");
        prop_assert_eq!(store.n(), n);
        prop_assert_eq!(store.d(), d);
        prop_assert_eq!(store.norm_kind(), norm);
        // Reference: materialise + normalise in one shot.
        let data = Dataset::from_rows(&rows);
        let (reference, params) =
            hics_data::model::apply_normalization(&data, norm);
        prop_assert_eq!(store.norm_params(), &params[..]);
        for j in 0..d {
            let col = store.column(j);
            prop_assert!(matches!(col, Cow::Borrowed(_)), "column {} copied", j);
            prop_assert!(col.as_ref() == reference.col(j), "column {} differs", j);
        }
        // Chunking must not leak into the encoding: any other chunk size
        // yields the same bytes.
        let other_chunk = chunk_rows % n + 1;
        prop_assert_eq!(&bytes, &write_rows(&rows, other_chunk, norm));
    }

    /// Every strict prefix of a valid store is rejected with an error.
    #[test]
    fn truncation_anywhere_is_rejected(
        n in 1usize..30,
        d in 1usize..4,
        raw in prop::collection::vec(0u32..10_000, 4..20),
        cut_seed in any::<u32>(),
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| gen_value(raw[(i * d + j) % raw.len()])).collect())
            .collect();
        let bytes = write_rows(&rows, 7, NormKind::None);
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(DatasetStore::from_bytes(&bytes[..cut]).is_err(), "prefix {} accepted", cut);
    }

    /// Flipping any single byte anywhere in the store must be rejected —
    /// the FNV-1a scheme guarantees single-byte corruption always changes
    /// the checksum.
    #[test]
    fn single_byte_corruption_anywhere_is_rejected(
        n in 1usize..30,
        d in 1usize..4,
        raw in prop::collection::vec(0u32..10_000, 4..20),
        pos_seed in any::<u32>(),
        flip in 1u32..256,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| gen_value(raw[(i * d + j) % raw.len()])).collect())
            .collect();
        let mut bytes = write_rows(&rows, 11, NormKind::MinMax);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip as u8;
        prop_assert!(DatasetStore::from_bytes(&bytes).is_err(), "flipped byte {} accepted", pos);
    }
}

/// Recomputes and writes the header checksum so corruption tests can reach
/// the validation *behind* it.
fn restamp(bytes: &mut [u8]) {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes[..64].iter().chain(&bytes[72..]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    bytes[64..72].copy_from_slice(&h.to_le_bytes());
}

/// Targeted corruption cases with exact error-class and section/offset
/// matching.
#[test]
fn corruption_reports_section_and_offset() {
    let data = Dataset::from_columns_named(
        vec![vec![1.0, 2.0, 3.5, -1.0], vec![0.5, 0.25, 0.125, 8.0]],
        vec!["alpha".into(), "beta".into()],
    );
    let path = temp_path("targeted");
    write_dataset_store(&path, &data, 3, NormKind::None).expect("write");
    let good = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();

    // Bad magic.
    let mut bad = good.clone();
    bad[2] = b'X';
    assert!(matches!(
        DatasetStore::from_bytes(&bad),
        Err(HicsError::BadMagic)
    ));

    // Future version.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        DatasetStore::from_bytes(&bad),
        Err(HicsError::UnsupportedVersion(9))
    ));

    // Header claims more payload than the file holds → located truncation.
    let mut bad = good.clone();
    bad[56..64].copy_from_slice(&(good.len() as u64).to_le_bytes());
    match DatasetStore::from_bytes(&bad) {
        Err(HicsError::Truncated {
            section, offset, ..
        }) => {
            assert_eq!(section, ArtifactSection::Header);
            assert_eq!(offset, 72);
        }
        other => panic!("expected located truncation, got {other:?}"),
    }

    // Flipped payload byte → checksum mismatch.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(
        DatasetStore::from_bytes(&bad),
        Err(HicsError::ChecksumMismatch { .. })
    ));

    // A NaN smuggled into the column pages behind a fresh checksum is
    // caught by the finite check, located in the pages section.
    let mut bad = good.clone();
    let len = bad.len();
    bad[len - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
    restamp(&mut bad);
    match DatasetStore::from_bytes(&bad) {
        Err(HicsError::InvalidModel {
            section, offset, ..
        }) => {
            assert_eq!(section, ArtifactSection::Pages);
            assert!(offset > 72, "offset {offset} should be inside the payload");
        }
        other => panic!("expected InvalidModel in pages, got {other:?}"),
    }

    // Absurd header counts behind a fresh checksum are rejected without
    // allocating.
    for field_offset in [16usize, 24] {
        let mut bad = good.clone();
        bad[field_offset..field_offset + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        restamp(&mut bad);
        assert!(
            matches!(
                DatasetStore::from_bytes(&bad),
                Err(HicsError::InvalidModel { .. }) | Err(HicsError::Truncated { .. })
            ),
            "field at {field_offset} not rejected cleanly"
        );
    }
}

/// The store's exit-code classes match the model artifact's, so scripts
/// driving `hics import`/`fit` branch identically on both file kinds.
#[test]
fn error_classes_share_the_artifact_exit_codes() {
    assert_eq!(HicsError::BadMagic.exit_code(), 4);
    let e = HicsError::Truncated {
        section: ArtifactSection::Pages,
        offset: 100,
        needed: 8,
        available: 0,
    };
    assert_eq!(e.exit_code(), 4);
    assert!(e.to_string().contains("pages"), "{e}");
}

/// Pins the bytes of a min-max store written through the spill path, as
/// `hoods_pinned` pins the model artifact's: any change to the header, the
/// checksum, the shared sections or the spill reassembly that moves a
/// single bit fails here.
#[test]
fn spilled_minmax_store_bytes_are_pinned() {
    let data = SyntheticConfig::new(500, 6)
        .with_seed(11)
        .generate()
        .dataset;
    let path = temp_path("pinned");
    let summary = write_dataset_store(&path, &data, 64, NormKind::MinMax).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert_eq!(summary.spilled_chunks, 500 / 64, "the writer must spill");
    assert_eq!(
        (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
        (PINNED_STORE_LEN, PINNED_STORE_FNV1A),
        "the store's bytes moved"
    );
}

/// Length and FNV-1a of the pinned store as first written, before the
/// three file kinds shared one envelope module.
const PINNED_STORE_LEN: usize = 24_224;
const PINNED_STORE_FNV1A: u64 = 6_919_687_527_049_034_265;
