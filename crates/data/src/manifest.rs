//! The sharded-model manifest: a version-3 artifact envelope that
//! references `S` independently trained per-shard model artifacts.
//!
//! HiCS fits on one in-RAM matrix; beyond that, the shard driver
//! (`hics-core`) splits the row set with a deterministic
//! [`PartitionKind`], fits every shard through the unchanged pipeline, and
//! records the ensemble here. At serve time the `ShardedEngine`
//! (`hics-outlier`) memory-maps every referenced artifact and scores a
//! query against *all* shards, combining per-shard scores with the stored
//! [`ShardAggregation`] — the mean-of-components scheme of subspace outlier
//! ensembles (cf. He et al., "A Unified Subspace Outlier Ensemble
//! Framework"): each shard is an independently trained component and the
//! ensemble score is their average (or maximum).
//!
//! # On-disk format (version 3)
//!
//! The shared envelope ([`crate::envelope`]) under the model artifact's
//! magic and format version **3** — a version no model artifact uses, so
//! the model parser rejects a manifest with `UnsupportedVersion(3)` instead
//! of misdecoding, and [`crate::model::peek_artifact_version`] routes a
//! path to the right loader. `n` is the total row count across shards. The
//! manifest's header words and section:
//!
//! ```text
//! offset  size  field
//!     32     8  shard count    (u64)
//!     40     4  aggregation    (u32: 0 mean, 1 max)
//!     44     4  partition      (u32: 0 contiguous, 1 hash)
//!     48     8  reserved (0)
//! ----- shard table, one entry per shard -----
//!            n          u64   rows fitted into this shard
//!            file len   u32   length of the file name
//!            file       UTF-8 artifact file name, relative to the
//!                             manifest's directory; zero-padded to 8 B
//! ```

use crate::envelope::{encode_to_vec, fnv1a, header, parse_header, WordCode, FNV_OFFSET};
use crate::error::{ArtifactSection, HicsError};
use crate::model::MAGIC;
use std::path::{Path, PathBuf};

/// Format version of the sharded-manifest envelope.
pub const MANIFEST_VERSION: u32 = 3;

/// How per-shard scores combine into the ensemble score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardAggregation {
    /// Arithmetic mean over shards (the ensemble-framework default).
    #[default]
    Mean,
    /// Per-query maximum over shards.
    Max,
}

impl WordCode for ShardAggregation {
    const ALL: &'static [Self] = &[ShardAggregation::Mean, ShardAggregation::Max];
    const WHAT: &'static str = "shard aggregation";
}

impl ShardAggregation {
    /// Display name (CLI option spelling).
    pub fn name(self) -> &'static str {
        match self {
            ShardAggregation::Mean => "mean",
            ShardAggregation::Max => "max",
        }
    }
}

impl std::str::FromStr for ShardAggregation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mean" | "avg" | "average" => Ok(ShardAggregation::Mean),
            "max" => Ok(ShardAggregation::Max),
            other => Err(format!(
                "unknown shard aggregation {other:?} (expected mean|max)"
            )),
        }
    }
}

/// The deterministic row partitioner splitting a dataset into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionKind {
    /// Contiguous row ranges: shard `s` gets rows `[s·n/S, (s+1)·n/S)` —
    /// order-preserving, so an `S = 1` sharded fit sees the rows exactly as
    /// the unsharded pipeline does.
    #[default]
    Contiguous,
    /// FNV-1a hash of the row index modulo `S` — spreads any row-order
    /// locality (e.g. time-sorted data) evenly across shards.
    Hash,
}

impl WordCode for PartitionKind {
    const ALL: &'static [Self] = &[PartitionKind::Contiguous, PartitionKind::Hash];
    const WHAT: &'static str = "partition kind";
}

impl PartitionKind {
    /// Display name (CLI option spelling).
    pub fn name(self) -> &'static str {
        match self {
            PartitionKind::Contiguous => "contiguous",
            PartitionKind::Hash => "hash",
        }
    }

    /// The shard row `i` of `n` belongs to, out of `shards`.
    fn shard_of(self, i: u64, n: u64, shards: usize) -> usize {
        debug_assert!(i < n && shards >= 1);
        match self {
            PartitionKind::Contiguous => {
                // Inverse of the `[s·n/S, (s+1)·n/S)` boundaries, exact in
                // u128 so huge n cannot overflow.
                let s = ((i as u128 + 1) * shards as u128).div_ceil(n as u128) - 1;
                (s as usize).min(shards - 1)
            }
            PartitionKind::Hash => (fnv1a(FNV_OFFSET, &i.to_le_bytes()) % shards as u64) as usize,
        }
    }

    /// Materialises the full assignment: ascending row ids per shard.
    pub fn assign(self, n: u64, shards: usize) -> Vec<Vec<u64>> {
        assert!(shards >= 1, "need at least one shard");
        let mut out = vec![Vec::new(); shards];
        for i in 0..n {
            out[self.shard_of(i, n, shards)].push(i);
        }
        out
    }
}

impl std::str::FromStr for PartitionKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "contiguous" | "range" => Ok(PartitionKind::Contiguous),
            "hash" => Ok(PartitionKind::Hash),
            other => Err(format!(
                "unknown partition {other:?} (expected contiguous|hash)"
            )),
        }
    }
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Artifact file name, relative to the manifest's directory.
    pub file: String,
    /// Rows fitted into this shard.
    pub n: u64,
}

/// A sharded model: the envelope `hics score` / `hics serve` open when the
/// model path holds a version-3 artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total rows across all shards.
    pub total_n: u64,
    /// Attribute count every shard (and every query) must match.
    pub d: usize,
    /// How per-shard scores combine.
    pub aggregation: ShardAggregation,
    /// The partitioner that produced the shards.
    pub partition: PartitionKind,
    /// The shards, in partition order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Serialises the manifest (see the module docs for the format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let words: [&[u8]; 4] = [
            &(self.shards.len() as u64).to_le_bytes(),
            &self.aggregation.code().to_le_bytes(),
            &self.partition.code().to_le_bytes(),
            &0u64.to_le_bytes(), // reserved
        ];
        let entry_len = |s: &ShardEntry| (12 + s.file.len()).next_multiple_of(8);
        let payload = self.shards.iter().map(entry_len).sum();
        let header = header(
            &MAGIC,
            MANIFEST_VERSION,
            self.total_n,
            self.d,
            &words,
            payload,
        );
        encode_to_vec(header, |w| {
            for shard in &self.shards {
                w.put(&shard.n.to_le_bytes())?;
                w.put(&(shard.file.len() as u32).to_le_bytes())?;
                w.put(shard.file.as_bytes())?;
                w.pad8()?;
            }
            Ok(())
        })
    }

    /// Decodes and validates a manifest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HicsError> {
        let (header, mut r) = parse_header(
            bytes,
            &MAGIC,
            "total row count",
            |r, version| {
                if version != MANIFEST_VERSION {
                    return Err(r.invalid(format!(
                        "format version {version} is not a sharded manifest \
                         (expected {MANIFEST_VERSION})"
                    )));
                }
                Ok(())
            },
            |r| {
                let shard_count = r.usize_field("shard count")?;
                let (aggregation, partition) = (r.code()?, r.code()?);
                if r.u64()? != 0 {
                    return Err(r.invalid("non-zero reserved header field".into()));
                }
                Ok((shard_count, aggregation, partition))
            },
            |&(shard_count, ..), _, d| match (d, shard_count) {
                (0, _) => Err("manifest needs at least one attribute".into()),
                (_, 0) => Err("manifest references no shards".into()),
                _ => Ok(()),
            },
        )?;
        let (total_n, d) = (header.n, header.d);
        let (shard_count, aggregation, partition) = header.words;
        // Every entry needs at least 16 bytes; bound the count before
        // allocating from it.
        if shard_count > bytes.len() / 16 {
            return Err(r.invalid(format!(
                "shard count {shard_count} exceeds what a {}-byte payload can hold",
                bytes.len()
            )));
        }
        r.section = ArtifactSection::Shards;
        let mut shards = Vec::with_capacity(shard_count);
        let mut sum = 0u64;
        for s in 0..shard_count {
            let n = r.u64()?;
            if n < 2 {
                return Err(r.invalid(format!(
                    "shard {s} holds {n} rows; a servable shard needs at least 2"
                )));
            }
            let len = r.u32()? as usize;
            let raw = r.take(len)?;
            let file = std::str::from_utf8(raw)
                .map_err(|_| r.invalid(format!("shard {s} file name is not UTF-8")))?
                .to_string();
            if file.is_empty() {
                return Err(r.invalid(format!("shard {s} has an empty file name")));
            }
            if file.contains('/') || file.contains('\\') || file == "." || file == ".." {
                return Err(r.invalid(format!(
                    "shard {s} file name {file:?} must be a plain sibling file name"
                )));
            }
            r.align8()?;
            sum = sum
                .checked_add(n)
                .ok_or_else(|| r.invalid("shard row counts overflow u64".into()))?;
            shards.push(ShardEntry { file, n });
        }
        if r.offset != bytes.len() {
            return Err(r.invalid(format!(
                "{} trailing bytes after the shard table",
                bytes.len() - r.offset
            )));
        }
        if sum != total_n {
            return Err(r.invalid(format!("shard rows sum to {sum}, header claims {total_n}")));
        }
        Ok(Self {
            total_n,
            d,
            aggregation,
            partition,
            shards,
        })
    }

    /// Writes the manifest to `path` atomically
    /// ([`crate::mmap::write_atomic`], like the model artifact).
    pub fn save(&self, path: &Path) -> Result<(), HicsError> {
        crate::mmap::write_atomic(path, &self.to_bytes())
    }

    /// Reads and validates a manifest from `path`.
    pub fn load(path: &Path) -> Result<Self, HicsError> {
        let bytes = std::fs::read(path).map_err(|e| HicsError::io_path("reading", path, e))?;
        Self::from_bytes(&bytes)
    }

    /// The shard artifact paths, resolved against the manifest's directory.
    pub fn shard_paths(&self, manifest_path: &Path) -> Vec<PathBuf> {
        let dir = manifest_path.parent().unwrap_or_else(|| Path::new(""));
        self.shards.iter().map(|s| dir.join(&s.file)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::HEADER_LEN;

    fn sample() -> ShardManifest {
        ShardManifest {
            total_n: 1000,
            d: 6,
            aggregation: ShardAggregation::Mean,
            partition: PartitionKind::Contiguous,
            shards: vec![
                ShardEntry {
                    file: "m.shard0.hics".into(),
                    n: 500,
                },
                ShardEntry {
                    file: "m.shard1.hics".into(),
                    n: 500,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = sample();
        let back = ShardManifest::from_bytes(&m.to_bytes()).expect("roundtrip");
        assert_eq!(m, back);
    }

    #[test]
    fn version_3_is_rejected_by_the_model_loader_and_vice_versa() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            crate::model::HicsModel::from_bytes(&bytes),
            Err(HicsError::UnsupportedVersion(3))
        ));
        // A plain model is not a manifest.
        let g = crate::synth::SyntheticConfig::new(60, 3)
            .with_seed(1)
            .generate();
        let (data, norm) =
            crate::model::apply_normalization(&g.dataset, crate::model::NormKind::None);
        let model = crate::model::HicsModel::new(
            data,
            crate::model::NormKind::None,
            norm,
            vec![crate::model::ModelSubspace {
                dims: vec![0, 1],
                contrast: 0.5,
            }],
            crate::model::ScorerSpec::default(),
            crate::model::AggregationKind::Average,
        );
        let err = ShardManifest::from_bytes(&model.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("not a sharded manifest"), "{err}");
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 8, 40, HEADER_LEN, bytes.len() - 1] {
            assert!(
                ShardManifest::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() - 5;
        corrupt[mid] ^= 0x40;
        assert!(matches!(
            ShardManifest::from_bytes(&corrupt),
            Err(HicsError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn semantic_validation() {
        let mut m = sample();
        m.total_n = 999; // row-sum mismatch
        assert!(ShardManifest::from_bytes(&m.to_bytes()).is_err());
        let mut m = sample();
        m.shards[0].file = "../escape.hics".into();
        assert!(ShardManifest::from_bytes(&m.to_bytes()).is_err());
        for name in [".", ".."] {
            let mut m = sample();
            m.shards[0].file = name.into();
            assert!(ShardManifest::from_bytes(&m.to_bytes()).is_err(), "{name}");
        }
        let mut m = sample();
        m.shards.clear();
        m.total_n = 0;
        assert!(ShardManifest::from_bytes(&m.to_bytes()).is_err());
        let mut m = sample();
        m.shards[1].n = 1; // below the servable minimum
        m.total_n = 501;
        assert!(ShardManifest::from_bytes(&m.to_bytes()).is_err());
    }

    /// Pins the encoded bytes of the sample manifest, as `hoods_pinned`
    /// pins a model artifact's (the constants predate the shared envelope
    /// module).
    #[test]
    fn manifest_bytes_are_pinned() {
        let bytes = sample().to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
            (PINNED_LEN, PINNED_FNV1A),
            "the manifest's bytes moved"
        );
    }

    const PINNED_LEN: usize = 136;
    const PINNED_FNV1A: u64 = 10_395_985_956_518_455_845;

    #[test]
    fn contiguous_partition_is_order_preserving_and_balanced() {
        for (n, s) in [(10u64, 3usize), (1000, 4), (7, 7), (5, 1)] {
            let assign = PartitionKind::Contiguous.assign(n, s);
            assert_eq!(assign.len(), s);
            // Order-preserving: concatenation is 0..n.
            let flat: Vec<u64> = assign.iter().flatten().copied().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>());
            // Balanced within one row.
            let sizes: Vec<usize> = assign.iter().map(Vec::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{sizes:?}");
            // shard_of agrees with the boundary formula.
            for (shard, rows) in assign.iter().enumerate() {
                for &i in rows {
                    assert_eq!(PartitionKind::Contiguous.shard_of(i, n, s), shard);
                }
            }
        }
    }

    #[test]
    fn hash_partition_is_deterministic_and_covers_all_rows() {
        let a = PartitionKind::Hash.assign(500, 4);
        let b = PartitionKind::Hash.assign(500, 4);
        assert_eq!(a, b);
        let mut flat: Vec<u64> = a.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat, (0..500).collect::<Vec<_>>());
        // Every shard gets a reasonable share (hash spread).
        assert!(
            a.iter().all(|s| s.len() > 50),
            "{:?}",
            a.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_shard_assignment_is_the_identity() {
        for p in [PartitionKind::Contiguous, PartitionKind::Hash] {
            let assign = p.assign(42, 1);
            assert_eq!(assign.len(), 1);
            assert_eq!(assign[0], (0..42).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_paths_resolve_against_the_manifest_dir() {
        let m = sample();
        let paths = m.shard_paths(Path::new("/models/prod/model.hics"));
        assert_eq!(paths[0], Path::new("/models/prod/m.shard0.hics"));
        assert_eq!(paths[1], Path::new("/models/prod/m.shard1.hics"));
    }

    #[test]
    fn option_spellings_parse() {
        assert_eq!(
            "mean".parse::<ShardAggregation>(),
            Ok(ShardAggregation::Mean)
        );
        assert_eq!("max".parse::<ShardAggregation>(), Ok(ShardAggregation::Max));
        assert!("median".parse::<ShardAggregation>().is_err());
        assert_eq!(
            "contiguous".parse::<PartitionKind>(),
            Ok(PartitionKind::Contiguous)
        );
        assert_eq!("hash".parse::<PartitionKind>(), Ok(PartitionKind::Hash));
        assert!("roundrobin".parse::<PartitionKind>().is_err());
    }
}
