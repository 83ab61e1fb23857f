//! The serving-engine abstraction: one scoring interface over an
//! in-process [`ShardedEngine`] and a remote scatter-gather fan-out, plus
//! the one opener, [`Engine::open_mmap`], that turns a model file into an
//! engine.
//!
//! Every in-process engine has one shape: a single artifact is the
//! one-shard ensemble ([`ShardedEngine::single`]), a sharded manifest the
//! `S`-shard one. The serving layer (`hics-serve`), the CLI's
//! `score`/`serve` commands and the hot-reload endpoint all open models
//! through [`Engine::open_mmap`] and score through [`Engine`], so a
//! sharded manifest drops into every existing flow — `/score`,
//! `/v2/score`, `/admin/reload` — without those layers knowing how many
//! artifacts sit behind a query.
//!
//! A batch has one scoring path and one record:
//! [`Engine::score_batch_partial`] and [`RemoteEngine::score_rows`] both
//! hand back a [`ScoredBatch`] — the per-row scores, the remote tier's
//! degraded-fold flag and each in-process shard's wall-clock scoring time
//! — so the caller that scored the batch is the one that measures it;
//! nothing here reports to process-wide state.
//!
//! Opening is cheap for a version-4 artifact: its neighbourhood state (the
//! hoods) was computed at fit time and rides in the artifact, so the
//! engine reads it in place. An older artifact pays the all-points kNN
//! pass once at open, where [`QueryEngine::from_artifact`] upgrades it to
//! a version-4 encoding in memory; every engine then reads one way.

use crate::index::IndexKind;
use crate::query::{IndexStats, QueryEngine, QueryError};
use crate::sharded::ShardedEngine;
use hics_data::manifest::MANIFEST_VERSION;
use hics_data::model::peek_artifact_version;
use hics_data::HicsError;
use std::path::Path;
use std::sync::Arc;

/// One batch scored by an [`Engine`]: per-row results, the degraded-fold
/// flag of a remote engine, and each in-process shard's scoring time.
#[derive(Debug, Clone)]
pub struct ScoredBatch {
    /// One result per input row, in input order.
    pub results: Vec<Result<f64, QueryError>>,
    /// True when a remote engine folded over a partial shard set.
    /// In-process engines are never partial.
    pub partial: bool,
    /// Wall-clock nanoseconds each in-process shard took to score the
    /// whole batch, in shard order. Empty for a remote engine.
    pub shard_nanos: Vec<u64>,
}

/// A scoring engine whose shards live in other processes — the seam the
/// `hics route` scatter-gather tier plugs into [`Engine`] through, so
/// the whole serving stack (reactor, batcher, endpoints) runs unchanged
/// on top of a fan-out it knows nothing about.
///
/// Implementations must be safe to call from many batcher workers at
/// once; rows in one call may come from many coalesced connections.
pub trait RemoteEngine: Send + Sync + std::fmt::Debug {
    /// Scores a batch of pre-validated rows (arity and finiteness are
    /// checked by the caller against [`RemoteEngine::d`]).
    /// The batch carries no shard timings (`shard_nanos` is empty).
    fn score_rows(&self, rows: &[Vec<f64>]) -> ScoredBatch;
    /// Total trained objects across all shards (from the manifest).
    fn n(&self) -> usize;
    /// Number of attributes a query row must carry.
    fn d(&self) -> usize;
    /// Total subspaces across all shards (0 until learned from backends).
    fn subspace_count(&self) -> usize;
    /// Number of shards in the ensemble.
    fn shard_count(&self) -> usize;
}

/// A servable scoring engine: an in-process shard ensemble (a single model
/// is its one-shard case) or a remote scatter-gather fan-out.
#[derive(Debug)]
pub enum Engine {
    /// `S ≥ 1` per-shard models combined at query time.
    Sharded(ShardedEngine),
    /// `S` per-shard backends in other processes, combined over the wire.
    Remote(Arc<dyn RemoteEngine>),
}

impl From<QueryEngine> for Engine {
    fn from(e: QueryEngine) -> Self {
        Engine::Sharded(ShardedEngine::single(e))
    }
}

impl From<ShardedEngine> for Engine {
    fn from(e: ShardedEngine) -> Self {
        Engine::Sharded(e)
    }
}

impl Engine {
    /// Opens whatever model file sits at `path` — a version-1/2/4 artifact
    /// becomes a one-shard engine over its memory map, a version-3 sharded
    /// manifest a [`ShardedEngine`] over all its mapped shard artifacts.
    /// `index` behaves as in [`QueryEngine::from_artifact`].
    ///
    /// Either route adopts the hoods section of every version-4 artifact
    /// (written at fit time), skipping the neighbourhood computation;
    /// older artifacts compute their hoods. [`IndexStats::precomputed`]
    /// reports whether every artifact carried them.
    pub fn open_mmap(
        path: &Path,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Result<Self, HicsError> {
        if peek_artifact_version(path)? == MANIFEST_VERSION {
            return Ok(Engine::Sharded(ShardedEngine::open(
                path,
                index,
                max_threads,
            )?));
        }
        Ok(QueryEngine::open_mmap(path, index, max_threads)?.into())
    }

    /// Scores one raw query row. Higher is more outlying.
    pub fn score(&self, raw: &[f64]) -> Result<f64, QueryError> {
        match self {
            Engine::Sharded(e) => e.score(raw),
            Engine::Remote(r) => r
                .score_rows(std::slice::from_ref(&raw.to_vec()))
                .results
                .pop()
                .unwrap_or_else(|| Err(QueryError::Upstream("router returned no result".into()))),
        }
    }

    /// Scores a batch of raw query rows in parallel.
    pub fn score_batch(
        &self,
        rows: &[Vec<f64>],
        max_threads: usize,
    ) -> Vec<Result<f64, QueryError>> {
        self.score_batch_partial(rows, max_threads).results
    }

    /// Scores a batch and reports whether a remote engine served it
    /// degraded, plus each in-process shard's scoring time (see
    /// [`ShardedEngine::score_batch`]).
    pub fn score_batch_partial(&self, rows: &[Vec<f64>], max_threads: usize) -> ScoredBatch {
        match self {
            Engine::Sharded(e) => e.score_batch(rows, max_threads),
            Engine::Remote(r) => r.score_rows(rows),
        }
    }

    /// Total trained objects (across shards, for an ensemble).
    pub fn n(&self) -> usize {
        match self {
            Engine::Sharded(e) => e.n(),
            Engine::Remote(r) => r.n(),
        }
    }

    /// Number of attributes a query row must carry.
    pub fn d(&self) -> usize {
        match self {
            Engine::Sharded(e) => e.d(),
            Engine::Remote(r) => r.d(),
        }
    }

    /// Total subspaces queries are scored in (across shards).
    pub fn subspace_count(&self) -> usize {
        match self {
            Engine::Sharded(e) => e.subspace_count(),
            Engine::Remote(r) => r.subspace_count(),
        }
    }

    /// Number of model components: 1 for a single model, `S` for shards.
    pub fn shard_count(&self) -> usize {
        match self {
            Engine::Sharded(e) => e.shard_count(),
            Engine::Remote(r) => r.shard_count(),
        }
    }

    /// Whether scoring goes over the wire to other processes. The
    /// serving layer uses this to keep remote scoring off its event
    /// loop (remote calls block on network I/O).
    pub fn is_remote(&self) -> bool {
        matches!(self, Engine::Remote(_))
    }

    /// Whether every artifact behind the engine is a live memory map of
    /// its file (engines built from an in-memory model are not).
    pub fn is_mapped(&self) -> bool {
        match self {
            Engine::Sharded(e) => e.is_mapped(),
            Engine::Remote(_) => false,
        }
    }

    /// Neighbour-index statistics (aggregated over shards). A remote
    /// engine holds no local index: brute kind, zero nodes.
    pub fn index_stats(&self) -> IndexStats {
        match self {
            Engine::Sharded(e) => e.index_stats(),
            Engine::Remote(_) => IndexStats {
                kind: IndexKind::Brute,
                from_artifact: false,
                nodes: 0,
                build_micros: 0,
                precomputed: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::SubspaceLayout;
    use crate::index::SubspaceIndex;
    use crate::query::subspace_hoods;
    use hics_data::manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
    use hics_data::model::{
        apply_normalization, AggregationKind, HicsModel, ModelHoods, ModelSubspace, NormKind,
        ScorerKind, ScorerSpec,
    };
    use hics_data::SyntheticConfig;

    fn model(seed: u64, kind: ScorerKind) -> HicsModel {
        let g = SyntheticConfig::new(80, 3).with_seed(seed).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::MinMax);
        HicsModel::new(
            data,
            NormKind::MinMax,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 2],
                contrast: 0.7,
            }],
            ScorerSpec { kind, k: 5 },
            AggregationKind::Average,
        )
    }

    /// `m` with its hoods attached, as a precomputing fit stores them.
    fn with_hoods(mut m: HicsModel) -> HicsModel {
        let subspaces = m
            .subspaces()
            .iter()
            .map(|s| {
                let layout = SubspaceLayout::gather(m.dataset(), &s.dims);
                subspace_hoods(&layout, &SubspaceIndex::Brute, m.scorer(), 2)
            })
            .collect();
        m.set_hoods(Some(ModelHoods { subspaces }));
        m
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn precomputed(path: &Path) -> bool {
        Engine::open_mmap(path, None, 2)
            .expect("open")
            .index_stats()
            .precomputed
    }

    /// A single version-4 artifact opened by `Engine::open_mmap` adopts
    /// its hoods section and scores exactly like a computed open of the
    /// same model without hoods; refitting in place without hoods drops
    /// the open back to computing.
    #[test]
    fn open_mmap_adopts_a_single_artifacts_hoods() {
        let dir = temp_dir("hics-engine-open-single");
        let path = dir.join("m.hics");
        let m = model(1, ScorerKind::Lof);
        m.save(&path).unwrap();
        let computed = Engine::open_mmap(&path, None, 2).unwrap();
        assert!(
            !computed.index_stats().precomputed,
            "a v1 artifact computes"
        );
        assert_eq!(computed.shard_count(), 1);
        with_hoods(m.clone()).save(&path).unwrap();
        assert_eq!(peek_artifact_version(&path).unwrap(), 4);
        let adopted = Engine::open_mmap(&path, None, 2).unwrap();
        assert!(adopted.index_stats().precomputed);
        assert!(adopted.is_mapped());
        for i in (0..m.n()).step_by(7) {
            let row = m.dataset().row(i);
            assert_eq!(adopted.score(&row), computed.score(&row), "row {i}");
        }
        let novel = [5.0, -5.0, 5.0];
        assert_eq!(adopted.score(&novel), computed.score(&novel));
        model(2, ScorerKind::Lof).save(&path).unwrap();
        assert!(!precomputed(&path), "a refit without hoods computes");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest still routes to the shard ensemble, and every version-4
    /// shard adopts its own hoods; refitting one shard in place without
    /// hoods drops exactly that shard back to computing.
    #[test]
    fn open_mmap_adopts_every_manifest_shards_hoods() {
        let dir = temp_dir("hics-engine-open-manifest");
        let mut shards = Vec::new();
        for k in 0..3u64 {
            let file = format!("e.shard{k}.hics");
            with_hoods(model(10 + k, ScorerKind::KnnMean))
                .save(&dir.join(&file))
                .unwrap();
            shards.push(ShardEntry { file, n: 80 });
        }
        let manifest = ShardManifest {
            total_n: 240,
            d: 3,
            aggregation: ShardAggregation::Mean,
            partition: PartitionKind::Contiguous,
            shards,
        };
        let path = dir.join("e.hics");
        manifest.save(&path).unwrap();
        let engine = Engine::open_mmap(&path, None, 2).unwrap();
        assert_eq!(engine.shard_count(), 3);
        assert!(engine.index_stats().precomputed);
        let Engine::Sharded(sharded) = &engine else {
            panic!("manifest engine");
        };
        assert!(sharded.shards().iter().all(|s| s.index_stats().precomputed));

        model(20, ScorerKind::KnnMean)
            .save(&manifest.shard_paths(&path)[1])
            .unwrap();
        let engine = Engine::open_mmap(&path, None, 2).unwrap();
        assert!(!engine.index_stats().precomputed);
        let Engine::Sharded(sharded) = &engine else {
            panic!("manifest engine");
        };
        let per: Vec<bool> = sharded
            .shards()
            .iter()
            .map(|s| s.index_stats().precomputed)
            .collect();
        assert_eq!(per, [true, false, true]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
