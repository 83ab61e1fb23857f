//! Persisted per-subspace neighbourhood state — the hoods sidecar.
//!
//! Building a [`crate::QueryEngine`] pays one all-points kNN pass per
//! subspace (k-distances, LOF reachability densities, the non-finite
//! clamp). For a large sharded ensemble that precomputation dominates open
//! time — tens of seconds on a 4-shard N=1e6 manifest — and it is paid
//! again on **every** `/admin/reload`, even though the values are a pure
//! function of the artifact bytes.
//!
//! The fix is the classic train-once/serve-many move: compute the
//! neighbourhood state **at fit time** (where the data is already hot) and
//! persist it next to the artifact as `<artifact>.hoods`. Opening a model
//! then adopts the stored hoods after validating that they belong to these
//! exact artifact bytes, reducing engine construction to layout gathers and
//! tree adoption. The binding is the artifact's FNV-1a checksum: an
//! artifact refitted in place changes its checksum, so a stale sidecar is
//! silently ignored and the open falls back to computing — adoption is an
//! optimisation, never a correctness input.
//!
//! Bit-fidelity: the sidecar is written from a fully built engine
//! ([`crate::QueryEngine::export_hoods`]), so its values are *definitionally*
//! the ones construction would compute; round-trip f64 storage is exact
//! (bit patterns, not decimal text).

use crate::query::QueryEngine;
use hics_data::model::{fnv1a, Reader, ScorerKind, ScorerSpec, FNV_OFFSET};
use hics_data::{ArtifactSection, HicsError, ModelArtifact};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of a hoods sidecar file.
pub const HOODS_MAGIC: &[u8; 8] = b"HICSHOOD";
/// Current sidecar format version.
pub const HOODS_VERSION: u32 = 1;

/// Precomputed neighbourhood state of one subspace.
#[derive(Debug, Clone, PartialEq)]
pub struct SubspaceHoods {
    /// Attribute indices of the subspace, ascending (validated on adopt).
    pub dims: Vec<usize>,
    /// k-distance of every training object.
    pub k_distance: Vec<f64>,
    /// Local reachability density of every training object (empty for the
    /// kNN scorers, which never read it).
    pub lrd: Vec<f64>,
    /// Largest finite batch score — the non-finite query clamp.
    pub clamp: f64,
}

/// The full precomputed neighbourhood state of one artifact, bound to its
/// bytes by checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputedHoods {
    /// FNV-1a checksum of the artifact these hoods were computed from.
    pub artifact_checksum: u64,
    /// The scorer the hoods were computed for.
    pub scorer: ScorerSpec,
    /// Per-subspace state, in the artifact's subspace order.
    pub subspaces: Vec<SubspaceHoods>,
}

impl PrecomputedHoods {
    /// The sidecar path for an artifact: `model.hics` → `model.hics.hoods`.
    pub fn sidecar_path(artifact_path: &Path) -> PathBuf {
        let mut name = artifact_path.as_os_str().to_os_string();
        name.push(".hoods");
        PathBuf::from(name)
    }

    /// Whether these hoods belong to exactly `artifact`'s bytes and shape.
    pub fn matches(&self, artifact: &ModelArtifact) -> bool {
        self.artifact_checksum == artifact.checksum()
            && self.scorer == artifact.scorer()
            && self.subspaces.len() == artifact.subspaces().len()
            && self
                .subspaces
                .iter()
                .zip(artifact.subspaces())
                .all(|(h, s)| {
                    h.dims == s.dims
                        && h.k_distance.len() == artifact.n()
                        && (h.lrd.is_empty() || h.lrd.len() == artifact.n())
                })
    }

    /// Loads the sidecar sitting next to `artifact_path` **if** it exists,
    /// parses cleanly and matches `artifact`'s checksum and shape. Any
    /// failure — missing file, corruption, stale checksum — yields `None`:
    /// the caller computes instead, so a sidecar can never make an open
    /// fail or serve wrong values.
    pub fn load_for(artifact_path: &Path, artifact: &ModelArtifact) -> Option<Self> {
        let loaded = Self::load(&Self::sidecar_path(artifact_path)).ok()?;
        loaded.matches(artifact).then_some(loaded)
    }

    /// Serialises the sidecar (little-endian, FNV-1a checksummed like the
    /// artifact itself).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self
                .subspaces
                .iter()
                .map(|s| 24 + s.dims.len() * 4 + (s.k_distance.len() + s.lrd.len()) * 8)
                .sum::<usize>(),
        );
        out.extend_from_slice(HOODS_MAGIC);
        out.extend_from_slice(&HOODS_VERSION.to_le_bytes());
        out.extend_from_slice(&self.scorer.kind.code().to_le_bytes());
        out.extend_from_slice(&self.scorer.k.to_le_bytes());
        out.extend_from_slice(&(self.subspaces.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.artifact_checksum.to_le_bytes());
        for sub in &self.subspaces {
            out.extend_from_slice(&(sub.dims.len() as u32).to_le_bytes());
            for &d in &sub.dims {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
            out.extend_from_slice(&(sub.k_distance.len() as u64).to_le_bytes());
            out.extend_from_slice(&(sub.lrd.len() as u64).to_le_bytes());
            out.extend_from_slice(&sub.clamp.to_bits().to_le_bytes());
            for &v in &sub.k_distance {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for &v in &sub.lrd {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let checksum = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Writes the sidecar for `artifact_path` (at its canonical sidecar
    /// location) atomically and returns that path: a crash mid-write leaves
    /// the previous sidecar (or none), never a torn one that every later
    /// open would reject and pay the kNN pass for.
    pub fn save_for(&self, artifact_path: &Path) -> Result<PathBuf, HicsError> {
        let path = Self::sidecar_path(artifact_path);
        // Serialised inside the writer, after its temp path is allocated:
        // with the buffer allocated before the path and freed after it,
        // glibc kept ~12 MB more heap resident on the fit benchmark (peak
        // RSS 106.7 MB against 94.7 MB).
        hics_data::write_atomic_with(&path, |file, tmp| {
            file.write_all(&self.to_bytes())
                .map_err(|e| HicsError::io_path("writing", tmp, e))
        })?;
        Ok(path)
    }

    /// Parses a sidecar file, validating magic, version, structure and the
    /// trailing checksum.
    pub fn load(path: &Path) -> Result<Self, HicsError> {
        let bytes = std::fs::read(path).map_err(|e| HicsError::io_path("reading", path, e))?;
        Self::from_bytes(&bytes)
    }

    /// Parses sidecar bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HicsError> {
        let mut r = Reader::new(bytes);
        if bytes.len() < 8 + 4 * 4 + 8 + 8 {
            return Err(r.invalid("hoods sidecar too short".into()));
        }
        let stored_checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8"));
        if fnv1a(FNV_OFFSET, &bytes[..bytes.len() - 8]) != stored_checksum {
            return Err(r.invalid("hoods sidecar checksum mismatch".into()));
        }
        if r.take(8)? != HOODS_MAGIC {
            return Err(r.invalid("not a hoods sidecar (bad magic)".into()));
        }
        let version = r.u32()?;
        if version != HOODS_VERSION {
            return Err(r.invalid(format!("unsupported hoods version {version}")));
        }
        let kind = ScorerKind::from_code(r.u32()?).map_err(|m| r.invalid(m))?;
        let k = r.u32()?;
        let subspace_count = r.u32()? as usize;
        let artifact_checksum = r.u64()?;
        r.section = ArtifactSection::Subspaces;
        let mut subspaces = Vec::with_capacity(subspace_count.min(1 << 16));
        for _ in 0..subspace_count {
            let dims_len = r.u32()? as usize;
            let mut dims = Vec::with_capacity(dims_len.min(1 << 16));
            for _ in 0..dims_len {
                dims.push(r.u32()? as usize);
            }
            let n = r.usize_field("hoods n")?;
            let lrd_len = r.usize_field("hoods lrd length")?;
            if lrd_len != 0 && lrd_len != n {
                return Err(r.invalid(format!("lrd length {lrd_len} != n {n}")));
            }
            let clamp = r.f64()?;
            let mut k_distance = Vec::with_capacity(n);
            let raw = r.take(n * 8)?;
            for c in raw.chunks_exact(8) {
                k_distance.push(f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))));
            }
            let mut lrd = Vec::with_capacity(lrd_len);
            let raw = r.take(lrd_len * 8)?;
            for c in raw.chunks_exact(8) {
                lrd.push(f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))));
            }
            subspaces.push(SubspaceHoods {
                dims,
                k_distance,
                lrd,
                clamp,
            });
        }
        if r.offset != bytes.len() - 8 {
            return Err(r.invalid("trailing bytes after hoods payload".into()));
        }
        Ok(Self {
            artifact_checksum,
            scorer: ScorerSpec { kind, k },
            subspaces,
        })
    }
}

/// Builds an engine for `artifact` (already saved at `artifact_path`) and
/// writes its hoods sidecar — the fit-time half of the precompute story.
/// Returns the sidecar path.
pub fn write_hoods_sidecar(artifact_path: &Path, max_threads: usize) -> Result<PathBuf, HicsError> {
    let artifact = std::sync::Arc::new(ModelArtifact::open_mmap(artifact_path)?);
    let checksum = artifact.checksum();
    let engine = QueryEngine::from_artifact(artifact, None, max_threads);
    engine.export_hoods(checksum).save_for(artifact_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::model::{
        apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind,
    };
    use hics_data::SyntheticConfig;
    use std::sync::Arc;

    fn model(kind: ScorerKind) -> HicsModel {
        let g = SyntheticConfig::new(90, 4).with_seed(21).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::MinMax);
        HicsModel::new(
            data,
            NormKind::MinMax,
            norm,
            vec![
                ModelSubspace {
                    dims: vec![0, 2],
                    contrast: 0.8,
                },
                ModelSubspace {
                    dims: vec![1, 3],
                    contrast: 0.6,
                },
            ],
            ScorerSpec { kind, k: 5 },
            AggregationKind::Average,
        )
    }

    #[test]
    fn sidecar_round_trips_bitwise() {
        for kind in [ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth] {
            let m = model(kind);
            let artifact = Arc::new(ModelArtifact::from_bytes(&m.to_bytes()).unwrap());
            let engine = QueryEngine::from_artifact(Arc::clone(&artifact), None, 2);
            let hoods = engine.export_hoods(artifact.checksum());
            let back = PrecomputedHoods::from_bytes(&hoods.to_bytes()).unwrap();
            assert_eq!(hoods, back, "{kind:?}");
            assert!(back.matches(&artifact));
        }
    }

    #[test]
    fn adopted_hoods_score_bitwise_like_computed() {
        let m = model(ScorerKind::Lof);
        let artifact = Arc::new(ModelArtifact::from_bytes(&m.to_bytes()).unwrap());
        let computed = QueryEngine::from_artifact(Arc::clone(&artifact), None, 2);
        let hoods = computed.export_hoods(artifact.checksum());
        let adopted =
            QueryEngine::from_artifact_with_hoods(Arc::clone(&artifact), Some(hoods), None, 2);
        assert!(adopted.index_stats().precomputed);
        assert!(!computed.index_stats().precomputed);
        for q in [
            vec![0.1, 0.5, 0.9, 0.3],
            vec![0.7, 0.2, 0.4, 0.8],
            vec![5.0, 5.0, 5.0, 5.0],
        ] {
            assert_eq!(computed.score(&q), adopted.score(&q), "{q:?}");
        }
    }

    #[test]
    fn mismatched_hoods_fall_back_to_computing() {
        let m = model(ScorerKind::Lof);
        let artifact = Arc::new(ModelArtifact::from_bytes(&m.to_bytes()).unwrap());
        let engine = QueryEngine::from_artifact(Arc::clone(&artifact), None, 2);
        let mut hoods = engine.export_hoods(artifact.checksum());
        hoods.artifact_checksum ^= 1; // stale: pretend a different artifact
        assert!(!hoods.matches(&artifact));
        let rebuilt =
            QueryEngine::from_artifact_with_hoods(Arc::clone(&artifact), Some(hoods), None, 2);
        assert!(!rebuilt.index_stats().precomputed);
        let q = vec![0.3, 0.3, 0.3, 0.3];
        assert_eq!(rebuilt.score(&q), engine.score(&q));
    }

    #[test]
    fn corrupted_sidecar_bytes_are_rejected() {
        let m = model(ScorerKind::KnnMean);
        let artifact = Arc::new(ModelArtifact::from_bytes(&m.to_bytes()).unwrap());
        let engine = QueryEngine::from_artifact(Arc::clone(&artifact), None, 1);
        let mut bytes = engine.export_hoods(artifact.checksum()).to_bytes();
        assert!(PrecomputedHoods::from_bytes(&bytes).is_ok());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(PrecomputedHoods::from_bytes(&bytes).is_err(), "checksum");
        assert!(PrecomputedHoods::from_bytes(&bytes[..16]).is_err(), "short");
        assert!(PrecomputedHoods::from_bytes(b"BOGUS").is_err());
    }

    #[test]
    fn sidecar_file_round_trip_and_load_for() {
        let dir = std::env::temp_dir().join("hics-hoods-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("m.hics");
        let m = model(ScorerKind::Lof);
        m.save(&artifact_path).unwrap();
        let artifact = Arc::new(ModelArtifact::open_mmap(&artifact_path).unwrap());
        let side = write_hoods_sidecar(&artifact_path, 2).unwrap();
        assert_eq!(side, PrecomputedHoods::sidecar_path(&artifact_path));
        let loaded = PrecomputedHoods::load_for(&artifact_path, &artifact).expect("valid sidecar");
        assert!(loaded.matches(&artifact));
        // A refitted artifact (different bytes) silently ignores the stale
        // sidecar.
        let other = model(ScorerKind::KnnMean);
        other.save(&artifact_path).unwrap();
        let refit = Arc::new(ModelArtifact::open_mmap(&artifact_path).unwrap());
        assert!(PrecomputedHoods::load_for(&artifact_path, &refit).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Saving over an existing sidecar replaces it atomically: no
    /// temporary file survives and a reload sees the new bytes.
    #[test]
    fn save_for_replaces_an_existing_sidecar_atomically() {
        let dir = std::env::temp_dir().join("hics-hoods-replace-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("m.hics");
        let hoods_of = |kind| {
            let artifact = Arc::new(ModelArtifact::from_bytes(&model(kind).to_bytes()).unwrap());
            QueryEngine::from_artifact(Arc::clone(&artifact), None, 1)
                .export_hoods(artifact.checksum())
        };
        let old = hoods_of(ScorerKind::Lof);
        let new = hoods_of(ScorerKind::KnnKth);
        let side = old.save_for(&artifact_path).unwrap();
        assert_eq!(new.save_for(&artifact_path).unwrap(), side);
        assert_eq!(PrecomputedHoods::load(&side).unwrap(), new);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
