//! Property tests for the model artifact: serialisation round-trips exactly
//! (model → bytes → model → bytes), and corrupted or truncated artifacts
//! are rejected with errors, never panics or silent misreads.

use hics_data::manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
use hics_data::model::{
    AggregationKind, HicsModel, HoodsData, ModelHoods, ModelIndex, ModelSubspace, NormKind,
    ScorerKind, ScorerSpec, VpNodeData, VpTreeData, VP_NONE,
};
use hics_data::{ArtifactSection, Dataset, HicsError, ModelArtifact};
use proptest::prelude::*;

/// Builds a valid model from generated raw material. Values are quantised
/// to a small grid so columns contain exact ties (the hardest case for the
/// rank index) while staying finite.
#[allow(clippy::too_many_arguments)]
fn build_model(
    n: usize,
    d: usize,
    raw: Vec<u32>,
    sub_picks: Vec<Vec<bool>>,
    scorer_code: u32,
    k: u32,
    agg_avg: bool,
    norm_code: u32,
) -> HicsModel {
    let cols: Vec<Vec<f64>> = (0..d)
        .map(|j| {
            (0..n)
                .map(|i| (raw[(j * n + i) % raw.len()] % 97) as f64 / 7.0 - 5.0)
                .collect()
        })
        .collect();
    let data = Dataset::from_columns(cols);
    let norm_kind = match norm_code % 3 {
        0 => NormKind::None,
        1 => NormKind::MinMax,
        _ => NormKind::ZScore,
    };
    let (trained, norm) = hics_data::model::apply_normalization(&data, norm_kind);
    let mut subspaces: Vec<ModelSubspace> = sub_picks
        .iter()
        .enumerate()
        .map(|(s, picks)| {
            let mut dims: Vec<usize> = (0..d).filter(|&j| picks[j % picks.len()]).collect();
            if dims.is_empty() {
                dims.push(s % d);
            }
            ModelSubspace {
                dims,
                contrast: (s as f64 + 1.0) / 10.0,
            }
        })
        .collect();
    if subspaces.is_empty() {
        subspaces.push(ModelSubspace {
            dims: vec![0],
            contrast: 0.5,
        });
    }
    let kind = match scorer_code % 3 {
        0 => ScorerKind::Lof,
        1 => ScorerKind::KnnMean,
        _ => ScorerKind::KnnKth,
    };
    HicsModel::new(
        trained,
        norm_kind,
        norm,
        subspaces,
        ScorerSpec { kind, k: k.max(1) },
        if agg_avg {
            AggregationKind::Average
        } else {
            AggregationKind::Max
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// bytes → model → bytes is the identity on canonical encodings, and
    /// model → bytes → model preserves every field.
    #[test]
    fn roundtrip_is_identity(
        n in 2usize..40,
        d in 1usize..6,
        raw in prop::collection::vec(0u32..1000, 8..40),
        sub_picks in prop::collection::vec(prop::collection::vec(any::<bool>(), 1..6), 1..5),
        scorer_code in 0u32..3,
        k in 1u32..20,
        agg_avg in any::<bool>(),
        norm_code in 0u32..3,
    ) {
        let model = build_model(n, d, raw, sub_picks, scorer_code, k, agg_avg, norm_code);
        let bytes = model.to_bytes();
        let decoded = HicsModel::from_bytes(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {}", decoded.err().unwrap());
        let decoded = decoded.unwrap();
        prop_assert_eq!(&model, &decoded);
        // Canonical encoding: decoding and re-encoding reproduces the bytes.
        prop_assert_eq!(bytes, decoded.to_bytes());
    }

    /// Every strict prefix of a valid artifact is rejected with an error
    /// (truncation anywhere — header, sections, padding — never panics).
    #[test]
    fn truncation_anywhere_is_rejected(
        n in 2usize..20,
        d in 1usize..4,
        raw in prop::collection::vec(0u32..1000, 8..20),
        cut_seed in any::<u32>(),
    ) {
        let model = build_model(n, d, raw, vec![vec![true]], 0, 5, true, 0);
        let bytes = model.to_bytes();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(HicsModel::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
    }

    /// Flipping any single byte anywhere in the artifact — header,
    /// checksum field, any section, even padding — must be rejected. The
    /// FNV-1a checksum guarantees single-byte corruption always changes
    /// the computed hash, so decoding can never silently misread.
    #[test]
    fn single_byte_corruption_anywhere_is_rejected(
        n in 2usize..20,
        d in 1usize..4,
        raw in prop::collection::vec(0u32..1000, 8..20),
        pos_seed in any::<u32>(),
        flip in 1u32..256,
    ) {
        let model = build_model(n, d, raw, vec![vec![true]], 1, 3, false, 1);
        let mut bytes = model.to_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip as u8;
        prop_assert!(
            HicsModel::from_bytes(&bytes).is_err(),
            "flipped byte {pos} accepted"
        );
    }
}

/// Targeted (non-property) corruption cases with exact error matching.
#[test]
fn corrupt_magic_version_and_length_have_specific_errors() {
    let model = build_model(
        10,
        3,
        (0..30).collect(),
        vec![vec![true, false]],
        0,
        4,
        true,
        2,
    );
    let good = model.to_bytes();

    let mut bad = good.clone();
    bad[3] = b'X';
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::BadMagic)
    ));

    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::UnsupportedVersion(7))
    ));

    // Header claims more payload than the file holds.
    let mut bad = good.clone();
    let lie = (good.len() as u64).to_le_bytes();
    bad[56..64].copy_from_slice(&lie);
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::Truncated { .. })
    ));

    // Trailing garbage after the declared payload.
    let mut bad = good.clone();
    bad.extend_from_slice(&[0u8; 16]);
    assert!(HicsModel::from_bytes(&bad).is_err());

    // Scorer k of zero (structural check, caught before the checksum,
    // located in the header).
    let mut bad = good.clone();
    bad[44..48].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::InvalidModel {
            section: ArtifactSection::Header,
            ..
        })
    ));

    // A flipped payload byte is a checksum mismatch.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::ChecksumMismatch { .. })
    ));

    // A single-object model is structurally invalid (kNN scoring needs two
    // reference objects), even with a freshly stamped checksum.
    let mut bad = good;
    bad[16..24].copy_from_slice(&1u64.to_le_bytes());
    restamp(&mut bad);
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::InvalidModel { .. })
    ));
}

/// Recomputes and writes the header checksum (FNV-1a over bytes 0..64 and
/// 72..end) so corruption tests can reach the validation *behind* it.
fn restamp(bytes: &mut [u8]) {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes[..64].iter().chain(&bytes[72..]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    bytes[64..72].copy_from_slice(&h.to_le_bytes());
}

/// The simplest structurally valid VP-tree over `n` objects: one leaf
/// holding every id. Enough to exercise the version-2 section machinery
/// without depending on the tree builder (which lives downstream in
/// `hics-outlier`).
fn single_leaf_tree(n: usize) -> VpTreeData {
    VpTreeData {
        nodes: vec![VpNodeData {
            vantage: VP_NONE,
            inner: VP_NONE,
            outer: VP_NONE,
            start: 0,
            len: n as u32,
            mu: 0.0,
        }],
        ids: (0..n as u32).collect(),
    }
}

/// A model without an index serialises as format version 1 — byte-stream
/// compatible with pre-index readers — and loads with the brute fallback
/// (`index() == None`); a model with trees serialises as version 2 and
/// round-trips the trees exactly.
#[test]
fn version_1_and_2_roundtrip_and_fall_back() {
    let mut model = build_model(
        12,
        3,
        (0..36).collect(),
        vec![vec![true, false, true]],
        0,
        3,
        true,
        0,
    );
    let v1 = model.to_bytes();
    assert_eq!(u32::from_le_bytes(v1[8..12].try_into().unwrap()), 1);
    let loaded_v1 = HicsModel::from_bytes(&v1).expect("v1 loads");
    assert!(loaded_v1.index().is_none(), "v1 falls back to brute");
    assert_eq!(loaded_v1, model);

    let trees: Vec<VpTreeData> = model
        .subspaces()
        .iter()
        .map(|_| single_leaf_tree(model.n()))
        .collect();
    model.set_index(Some(ModelIndex { trees }));
    let v2 = model.to_bytes();
    assert_eq!(u32::from_le_bytes(v2[8..12].try_into().unwrap()), 2);
    assert!(v2.len() > v1.len(), "v2 appends the index section");
    let loaded_v2 = HicsModel::from_bytes(&v2).expect("v2 loads");
    assert_eq!(loaded_v2.index(), model.index());
    assert_eq!(loaded_v2, model);
    // Canonical encodings both ways.
    assert_eq!(loaded_v1.to_bytes(), v1);
    assert_eq!(loaded_v2.to_bytes(), v2);
}

/// Truncation anywhere inside the version-2 index section is rejected —
/// as is a structurally corrupt tree hiding behind a valid checksum.
#[test]
fn index_section_truncation_and_corruption_are_rejected() {
    let mut model = build_model(10, 2, (0..20).collect(), vec![vec![true]], 1, 2, false, 1);
    let v1_len = model.to_bytes().len();
    let trees: Vec<VpTreeData> = model
        .subspaces()
        .iter()
        .map(|_| single_leaf_tree(model.n()))
        .collect();
    model.set_index(Some(ModelIndex { trees }));
    let v2 = model.to_bytes();

    // Every cut that removes part of the index section must fail loudly.
    for cut in [v1_len, v1_len + 4, v2.len() - 9, v2.len() - 4, v2.len() - 1] {
        assert!(
            HicsModel::from_bytes(&v2[..cut]).is_err(),
            "cut at {cut} of {} accepted",
            v2.len()
        );
    }

    // A duplicated leaf id (checksum freshly stamped so the corruption is
    // only visible to the tree validator) is rejected as invalid, located
    // in the index section.
    let mut bad = v2.clone();
    let ids_end = bad.len();
    let prev = bad[ids_end - 8..ids_end - 4].to_vec();
    bad[ids_end - 4..].copy_from_slice(&prev);
    restamp(&mut bad);
    match HicsModel::from_bytes(&bad) {
        Err(HicsError::InvalidModel {
            section, offset, ..
        }) => {
            assert_eq!(section, ArtifactSection::Index);
            assert!(offset >= v1_len, "offset {offset} before the section");
        }
        other => panic!("expected InvalidModel in index section, got {other:?}"),
    }

    // An unknown index kind is rejected.
    let mut bad = v2.clone();
    bad[v1_len..v1_len + 4].copy_from_slice(&9u32.to_le_bytes());
    restamp(&mut bad);
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::InvalidModel {
            section: ArtifactSection::Index,
            ..
        })
    ));
}

/// Deterministic hoods for `model`: the shape the fit stores (LRDs exactly
/// for LOF), with values spanning the section's domain — zeros, `+∞`
/// densities (duplicate points) and ordinary finite values.
fn synthetic_hoods(model: &HicsModel) -> ModelHoods {
    let n = model.n();
    let lof = model.scorer().kind == ScorerKind::Lof;
    ModelHoods {
        subspaces: (0..model.subspaces().len())
            .map(|s| HoodsData {
                clamp: 1.5 + s as f64,
                k_distance: (0..n).map(|i| (i % 4) as f64 * 0.25).collect(),
                lrd: if lof {
                    (0..n)
                        .map(|i| {
                            if i == 0 {
                                f64::INFINITY
                            } else {
                                1.0 / i as f64
                            }
                        })
                        .collect()
                } else {
                    Vec::new()
                },
            })
            .collect(),
    }
}

fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

/// Rewrites the header's payload length after a test grew or shrank the
/// payload, then re-stamps the checksum.
fn repatch_length(bytes: &mut [u8]) {
    let payload = (bytes.len() - 72) as u64;
    bytes[56..64].copy_from_slice(&payload.to_le_bytes());
    restamp(bytes);
}

/// A model carrying hoods serialises as version 4 — with and without an
/// index, for every scorer — and round-trips exactly; dropping the hoods
/// gives back the version-1/2 bytes unchanged.
#[test]
fn hoods_section_roundtrips_as_version_4() {
    for scorer_code in 0..3 {
        for with_index in [false, true] {
            let mut model = build_model(
                14,
                3,
                (0..42).collect(),
                vec![vec![true, false, true], vec![false, true]],
                scorer_code,
                3,
                true,
                1,
            );
            if with_index {
                let trees = model
                    .subspaces()
                    .iter()
                    .map(|_| single_leaf_tree(model.n()))
                    .collect();
                model.set_index(Some(ModelIndex { trees }));
            }
            let plain = model.to_bytes();
            assert_eq!(version_of(&plain), if with_index { 2 } else { 1 });
            model.set_hoods(Some(synthetic_hoods(&model)));
            let v4 = model.to_bytes();
            assert_eq!(version_of(&v4), 4);
            let back = HicsModel::from_bytes(&v4).expect("v4 loads");
            assert_eq!(back.hoods(), model.hoods());
            assert_eq!(back.index(), model.index());
            assert_eq!(back, model);
            assert_eq!(back.to_bytes(), v4, "canonical encoding");
            let artifact = ModelArtifact::from_bytes(&v4).expect("v4 maps");
            assert!(artifact.has_hoods());
            for (s, h) in model.hoods().unwrap().subspaces.iter().enumerate() {
                assert_eq!(artifact.hoods(s).as_ref(), Some(h));
            }
            model.set_hoods(None);
            assert_eq!(model.to_bytes(), plain, "no hoods, no version bump");
        }
    }
}

/// Hostile bytes in the hoods section: every truncation is an error, and
/// with the checksum re-stamped (so only the parser can see the fault) a
/// NaN or negative k-distance, a NaN LRD, LRDs on a kNN artifact and
/// missing LRDs on a LOF artifact are each a typed error located in the
/// hoods section — never a panic, an abort or a silent load.
#[test]
fn hoods_section_truncation_and_hostile_values_are_rejected() {
    let hoods_error = |bytes: &[u8], what: &str| {
        for result in [
            HicsModel::from_bytes(bytes).map(|_| ()),
            ModelArtifact::from_bytes(bytes).map(|_| ()),
        ] {
            match result {
                Err(HicsError::InvalidModel {
                    section: ArtifactSection::Hoods,
                    ..
                }) => {}
                other => panic!("{what}: expected InvalidModel in hoods, got {other:?}"),
            }
        }
    };
    // LOF, one subspace, no index: the section is the tail of the file.
    let mut lof = build_model(10, 2, (0..20).collect(), vec![vec![true]], 0, 2, true, 0);
    let n = lof.n();
    lof.set_hoods(Some(synthetic_hoods(&lof)));
    let v4 = lof.to_bytes();
    let section = 8 + 16 * n;
    let start = v4.len() - section;
    let kd0 = start + 8;
    let lrd0 = kd0 + 8 * n;

    for cut in start..v4.len() {
        assert!(
            HicsModel::from_bytes(&v4[..cut]).is_err(),
            "cut at {cut} of {} accepted",
            v4.len()
        );
        assert!(ModelArtifact::from_bytes(&v4[..cut]).is_err(), "cut {cut}");
    }

    for (at, value, what) in [
        (kd0 + 8, f64::NAN, "NaN k-distance"),
        (kd0 + 16, -0.5, "negative k-distance"),
        (kd0, f64::NEG_INFINITY, "-inf k-distance"),
        (lrd0 + 8, f64::NAN, "NaN LRD"),
        (lrd0, -1.0, "negative LRD"),
        (start, f64::NAN, "NaN clamp"),
        (start, f64::INFINITY, "infinite clamp"),
    ] {
        let mut bad = v4.clone();
        bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
        restamp(&mut bad);
        hoods_error(&bad, what);
    }

    // LRDs missing on a LOF artifact.
    let mut bad = v4[..v4.len() - 8 * n].to_vec();
    repatch_length(&mut bad);
    hoods_error(&bad, "LOF without LRDs");

    // LRDs present on a kNN artifact.
    let mut knn = build_model(10, 2, (0..20).collect(), vec![vec![true]], 1, 2, true, 0);
    knn.set_hoods(Some(synthetic_hoods(&knn)));
    let good = knn.to_bytes();
    assert!(HicsModel::from_bytes(&good).is_ok());
    let mut bad = good.clone();
    bad.extend(std::iter::repeat_n(0x3f, 8 * n));
    repatch_length(&mut bad);
    hoods_error(&bad, "kNN with LRDs");

    // Flipping the header's scorer between LOF and kNN changes the
    // section's shape under the same bytes.
    let mut bad = v4.clone();
    bad[40..44].copy_from_slice(&1u32.to_le_bytes());
    restamp(&mut bad);
    hoods_error(&bad, "LOF section under a kNN header");
    let mut bad = good.clone();
    bad[40..44].copy_from_slice(&0u32.to_le_bytes());
    restamp(&mut bad);
    hoods_error(&bad, "kNN section under a LOF header");

    // A huge object count is rejected before anything is sized from it.
    let mut bad = v4.clone();
    bad[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    restamp(&mut bad);
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::InvalidModel { .. })
    ));
}

/// Index kind 0 ("no trees") exists only so a version-4 artifact can carry
/// hoods without an index; in a version-2 stream it is an unknown kind.
#[test]
fn index_kind_zero_is_version_4_only() {
    let mut model = build_model(10, 2, (0..20).collect(), vec![vec![true]], 1, 2, false, 1);
    let v1_len = model.to_bytes().len();
    model.set_index(Some(ModelIndex {
        trees: vec![single_leaf_tree(model.n())],
    }));
    let mut bad = model.to_bytes();
    bad[v1_len..v1_len + 4].copy_from_slice(&0u32.to_le_bytes());
    restamp(&mut bad);
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::InvalidModel {
            section: ArtifactSection::Index,
            ..
        })
    ));
}

/// Version 3 is the sharded manifest's envelope — same magic and header
/// shape — and is never decoded as a model: both model loaders reject a
/// manifest byte stream with the typed version error, whose message names
/// the manifest.
#[test]
fn version_3_manifest_bytes_are_not_a_model() {
    let manifest = ShardManifest {
        total_n: 20,
        d: 2,
        aggregation: ShardAggregation::Mean,
        partition: PartitionKind::Contiguous,
        shards: vec![ShardEntry {
            file: "m.shard0.hics".into(),
            n: 20,
        }],
    };
    let bytes = manifest.to_bytes();
    assert_eq!(version_of(&bytes), 3);
    let model_err = HicsModel::from_bytes(&bytes).expect_err("manifest is not a model");
    let artifact_err = ModelArtifact::from_bytes(&bytes).expect_err("manifest is not a model");
    for err in [model_err, artifact_err] {
        assert!(matches!(err, HicsError::UnsupportedVersion(3)), "{err:?}");
        assert!(err.to_string().contains("sharded model manifest"), "{err}");
    }
    // A model byte stream relabelled as version 3 is rejected the same way.
    let model = build_model(10, 2, (0..20).collect(), vec![vec![true]], 0, 2, true, 0);
    let mut bad = model.to_bytes();
    bad[8..12].copy_from_slice(&3u32.to_le_bytes());
    restamp(&mut bad);
    assert!(matches!(
        HicsModel::from_bytes(&bad),
        Err(HicsError::UnsupportedVersion(3))
    ));
}

/// `set_hoods` enforces the same shape contract as the parser.
#[test]
#[should_panic(expected = "LRDs")]
fn set_hoods_rejects_lrds_on_a_knn_model() {
    let mut knn = build_model(10, 2, (0..20).collect(), vec![vec![true]], 1, 2, true, 0);
    let mut hoods = synthetic_hoods(&knn);
    hoods.subspaces[0].lrd = vec![1.0; knn.n()];
    knn.set_hoods(Some(hoods));
}
