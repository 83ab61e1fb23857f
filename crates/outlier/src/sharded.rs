//! Cross-shard ensemble serving: one query scored against every shard of a
//! sharded fit, per-shard scores combined into one ensemble score.
//!
//! A sharded fit (`hics fit --shards S`) trains `S` independent models,
//! each on a deterministic partition of the rows, because one heap cannot
//! hold the whole matrix. Serving recombines them the way subspace outlier
//! ensembles do (He et al., "A Unified Subspace Outlier Ensemble
//! Framework"): every component scores the query against *its* reference
//! data, and the ensemble score is the mean (or max) of the component
//! scores. Each component here is a full [`QueryEngine`] over its shard's
//! memory-mapped artifact — zero-copy, stored VP-trees and hoods and all —
//! so a
//! [`ShardedEngine`] is exactly `S` single-model engines plus a fold.
//!
//! A single model is the one-component ensemble
//! ([`ShardedEngine::single`]): every in-process [`crate::Engine`] is a
//! `ShardedEngine`. The one-shard fold is the identity on every score a
//! [`QueryEngine`] produces — `Mean` computes `(0.0 + x) / 1.0`, exact for
//! all `x` but `−0.0`, which no scorer yields (pinned by this module's
//! tests).
//!
//! The per-shard scores are **not** the scores a single model over the
//! union would produce (each shard's neighbourhoods only see its own
//! rows); the ensemble is the principled way to combine partial models,
//! not a bit-for-bit reconstruction of the monolithic fit. With `S = 1`
//! the two coincide exactly (one shard holds every row — asserted by the
//! shard-equivalence tests in `hics-core`).

use crate::aggregate::Fold;
use crate::engine::ScoredBatch;
use crate::index::IndexKind;
use crate::parallel::par_map;
use crate::query::{IndexStats, QueryEngine, QueryError};
use hics_data::manifest::{ShardAggregation, ShardManifest};
use hics_data::HicsError;
use std::path::Path;
use std::time::Instant;

/// `S` per-shard query engines behind one scoring interface.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<QueryEngine>,
    aggregation: ShardAggregation,
    total_n: usize,
}

impl ShardedEngine {
    /// Opens a sharded manifest: memory-maps every referenced shard
    /// artifact (validated like any single model) and builds one
    /// [`QueryEngine`] per shard. `index` behaves exactly as in
    /// [`QueryEngine::from_artifact`], applied to every shard.
    pub fn open(
        manifest_path: &Path,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Result<Self, HicsError> {
        let manifest = ShardManifest::load(manifest_path)?;
        let paths = manifest.shard_paths(manifest_path);
        // Shards open in parallel: the outer fan-out takes one thread per
        // shard (capped at max_threads) and each shard's own neighbourhood
        // compute — the expensive part for a shard artifact without a hoods
        // section — uses the leftover budget. A version-4 shard adopts its
        // stored hoods, which turns the all-points kNN pass into a copy.
        let outer = max_threads.clamp(1, paths.len().max(1));
        let inner = (max_threads / outer).max(1);
        let opened: Vec<Result<QueryEngine, HicsError>> = par_map(paths.len(), outer, |k| {
            let engine = QueryEngine::open_mmap(&paths[k], index, inner)?;
            let entry = &manifest.shards[k];
            if engine.n() as u64 != entry.n || engine.d() != manifest.d {
                return Err(HicsError::InvalidInput(format!(
                    "shard {k} ({}) is {} x {}, manifest expects {} x {}",
                    entry.file,
                    engine.n(),
                    engine.d(),
                    entry.n,
                    manifest.d
                )));
            }
            Ok(engine)
        });
        let mut shards = Vec::with_capacity(opened.len());
        for engine in opened {
            shards.push(engine?);
        }
        Ok(Self {
            shards,
            aggregation: manifest.aggregation,
            total_n: manifest.total_n as usize,
        })
    }

    /// A single model as a one-shard ensemble (`Mean` fold, which is the
    /// identity on its scores).
    pub fn single(engine: QueryEngine) -> Self {
        Self {
            total_n: engine.n(),
            shards: vec![engine],
            aggregation: ShardAggregation::Mean,
        }
    }

    /// Total rows across all shards.
    pub fn n(&self) -> usize {
        self.total_n
    }

    /// Number of attributes a query row must carry.
    pub fn d(&self) -> usize {
        self.shards[0].d()
    }

    /// Number of shards in the ensemble.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total subspaces across all shards.
    pub fn subspace_count(&self) -> usize {
        self.shards.iter().map(QueryEngine::subspace_count).sum()
    }

    /// How per-shard scores combine.
    pub fn aggregation(&self) -> ShardAggregation {
        self.aggregation
    }

    /// Whether every shard's artifact is a live memory map of its file.
    pub fn is_mapped(&self) -> bool {
        self.shards.iter().all(QueryEngine::is_mapped)
    }

    /// The per-shard engines (shard order).
    pub fn shards(&self) -> &[QueryEngine] {
        &self.shards
    }

    /// Aggregated neighbour-index statistics: the kind all shards share,
    /// summed node counts and build times, `from_artifact` only if every
    /// shard adopted stored trees.
    pub fn index_stats(&self) -> IndexStats {
        let mut out = self.shards[0].index_stats();
        for s in &self.shards[1..] {
            let st = s.index_stats();
            out.nodes += st.nodes;
            out.build_micros += st.build_micros;
            out.from_artifact &= st.from_artifact;
            out.precomputed &= st.precomputed;
        }
        out
    }

    /// Scores one raw query row against **every** shard and combines the
    /// per-shard scores with the manifest's aggregation. Higher is more
    /// outlying.
    pub fn score(&self, raw: &[f64]) -> Result<f64, QueryError> {
        let mut acc = Fold::new(self.aggregation.into());
        for shard in &self.shards {
            acc.push(shard.score(raw)?);
        }
        Ok(acc.finish())
    }

    /// Scores a batch of raw query rows shard-major: every shard scores the
    /// whole batch in parallel (rows fan out across threads) under its own
    /// wall clock, then each row folds its per-shard scores in shard order —
    /// the accumulation order of [`ShardedEngine::score`], so every result
    /// is bit-identical to scoring the row alone. The batch carries one
    /// timing per shard.
    pub fn score_batch(&self, rows: &[Vec<f64>], max_threads: usize) -> ScoredBatch {
        let mut shard_nanos = Vec::with_capacity(self.shards.len());
        let per_shard: Vec<Vec<Result<f64, QueryError>>> = self
            .shards
            .iter()
            .map(|shard| {
                let start = Instant::now();
                let scores = par_map(rows.len(), max_threads, |i| shard.score(&rows[i]));
                shard_nanos.push(start.elapsed().as_nanos() as u64);
                scores
            })
            .collect();
        let results = (0..rows.len())
            .map(|i| {
                let mut acc = Fold::new(self.aggregation.into());
                for scores in &per_shard {
                    acc.push(scores[i].clone()?);
                }
                Ok(acc.finish())
            })
            .collect();
        ScoredBatch {
            results,
            partial: false,
            shard_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::manifest::{PartitionKind, ShardEntry};
    use hics_data::model::{
        apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
        ScorerSpec,
    };
    use hics_data::{Dataset, SyntheticConfig};
    use std::path::PathBuf;

    fn shard_model(seed: u64, n: usize) -> HicsModel {
        let g = SyntheticConfig::new(n, 3).with_seed(seed).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 2],
                contrast: 0.8,
            }],
            ScorerSpec {
                kind: ScorerKind::KnnMean,
                k: 4,
            },
            AggregationKind::Average,
        )
    }

    fn write_ensemble(tag: &str, aggregation: ShardAggregation) -> (PathBuf, Vec<HicsModel>) {
        let dir = std::env::temp_dir().join("hics-sharded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let models = vec![shard_model(1, 60), shard_model(2, 70), shard_model(3, 80)];
        let mut shards = Vec::new();
        for (k, m) in models.iter().enumerate() {
            let file = format!("{tag}.shard{k}.hics");
            m.save(&dir.join(&file)).expect("save shard");
            shards.push(ShardEntry {
                file,
                n: m.n() as u64,
            });
        }
        let manifest = ShardManifest {
            total_n: models.iter().map(|m| m.n() as u64).sum(),
            d: 3,
            aggregation,
            partition: PartitionKind::Contiguous,
            shards,
        };
        let path = dir.join(format!("{tag}.hics"));
        manifest.save(&path).expect("save manifest");
        (path, models)
    }

    #[test]
    fn ensemble_score_is_the_fold_of_per_shard_scores() {
        for aggregation in [ShardAggregation::Mean, ShardAggregation::Max] {
            let (path, models) = write_ensemble(
                match aggregation {
                    ShardAggregation::Mean => "mean",
                    ShardAggregation::Max => "max",
                },
                aggregation,
            );
            let engine = ShardedEngine::open(&path, None, 2).expect("open");
            assert_eq!(engine.shard_count(), 3);
            assert_eq!(engine.n(), 60 + 70 + 80);
            assert_eq!(engine.d(), 3);
            assert!(engine.is_mapped());
            let references: Vec<QueryEngine> = models
                .iter()
                .map(|m| QueryEngine::from_model(m, 1))
                .collect();
            for q in [[0.1, 0.5, 0.9], [0.7, 0.2, 0.4], [5.0, 5.0, 5.0]] {
                let per: Vec<f64> = references.iter().map(|e| e.score(&q).unwrap()).collect();
                let want = match aggregation {
                    // Same accumulation order as the engine's fold.
                    ShardAggregation::Mean => per.iter().sum::<f64>() / per.len() as f64,
                    ShardAggregation::Max => per.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                };
                assert_eq!(engine.score(&q).unwrap(), want, "{aggregation:?} {q:?}");
            }
        }
    }

    #[test]
    fn batch_matches_single_and_errors_propagate() {
        let (path, _) = write_ensemble("batch", ShardAggregation::Mean);
        let engine = ShardedEngine::open(&path, None, 2).expect("open");
        let rows = vec![vec![0.1, 0.2, 0.3], vec![0.9, 0.8, 0.7]];
        let batch = engine.score_batch(&rows, 2);
        for (row, got) in rows.iter().zip(&batch.results) {
            assert_eq!(*got, engine.score(row));
        }
        assert!(engine.score(&[1.0]).is_err(), "wrong arity must fail");
        assert!(engine.score(&[1.0, f64::NAN, 0.0]).is_err());
    }

    /// `batch` holds, bit for bit, what scoring each row alone gives.
    fn assert_bitwise(batch: &[Result<f64, QueryError>], want: &[Result<f64, QueryError>]) {
        assert_eq!(batch.len(), want.len());
        for (i, (got, want)) in batch.iter().zip(want).enumerate() {
            match (got, want) {
                (Ok(g), Ok(w)) => assert_eq!(g.to_bits(), w.to_bits(), "row {i}"),
                _ => assert_eq!(got, want, "row {i}"),
            }
        }
    }

    /// The shard-major batch is bit-identical to the per-row fold under
    /// either aggregation — same scores, same error for a bad row — and
    /// times every shard once.
    #[test]
    fn batch_is_bit_identical_to_per_row_score() {
        for aggregation in [ShardAggregation::Mean, ShardAggregation::Max] {
            let (path, _) = write_ensemble(
                match aggregation {
                    ShardAggregation::Mean => "batch-mean",
                    ShardAggregation::Max => "batch-max",
                },
                aggregation,
            );
            let engine = ShardedEngine::open(&path, None, 2).expect("open");
            let rows = vec![
                vec![0.1, 0.2, 0.3],
                vec![0.9, 0.8, 0.7],
                vec![1.0, f64::NAN, 0.0],
                vec![5.0, 5.0, 5.0],
            ];
            let plain: Vec<_> = rows.iter().map(|r| engine.score(r)).collect();
            assert!(plain[2].is_err(), "the NaN row fails");
            let batch = engine.score_batch(&rows, 2);
            assert_bitwise(&batch.results, &plain);
            assert!(!batch.partial);
            assert_eq!(
                batch.shard_nanos.len(),
                engine.shard_count(),
                "{aggregation:?}"
            );
        }
    }

    /// A model whose first five rows are one repeated point: with `k = 4`
    /// that point, queried in sample, has four neighbours at distance
    /// exactly `+0.0`, so its KnnMean score is exactly `+0.0`.
    fn model_with_duplicates(kind: ScorerKind, aggregation: AggregationKind) -> HicsModel {
        let g = SyntheticConfig::new(60, 3).with_seed(7).generate();
        let mut rows: Vec<Vec<f64>> = (0..g.dataset.n()).map(|i| g.dataset.row(i)).collect();
        for row in rows.iter_mut().take(5) {
            *row = vec![0.25, 0.5, 0.75];
        }
        let (data, norm) = apply_normalization(&Dataset::from_rows(&rows), NormKind::None);
        HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![
                ModelSubspace {
                    dims: vec![0, 2],
                    contrast: 0.8,
                },
                ModelSubspace {
                    dims: vec![1, 2],
                    contrast: 0.6,
                },
            ],
            ScorerSpec { kind, k: 4 },
            aggregation,
        )
    }

    /// A single model served as a one-shard ensemble scores bit-for-bit
    /// like its [`QueryEngine`] under either fold: in-sample rows, a novel
    /// row, and a duplicated row whose KnnMean score is exactly `+0.0` (the
    /// one value a `Mean` fold could flip, were a scorer to yield `−0.0`).
    #[test]
    fn one_shard_engine_scores_bitwise_like_its_query_engine() {
        let dup = [0.25, 0.5, 0.75];
        for kind in [ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth] {
            for model_agg in [AggregationKind::Average, AggregationKind::Max] {
                let model = model_with_duplicates(kind, model_agg);
                let single = QueryEngine::from_model(&model, 2);
                if kind == ScorerKind::KnnMean {
                    assert_eq!(single.score(&dup).unwrap().to_bits(), 0.0f64.to_bits());
                }
                let mut rows: Vec<Vec<f64>> =
                    (0..model.n()).map(|i| model.dataset().row(i)).collect();
                rows.push(vec![5.0, -3.0, 0.5]);
                for aggregation in [ShardAggregation::Mean, ShardAggregation::Max] {
                    let engine = ShardedEngine {
                        aggregation,
                        ..ShardedEngine::single(single.clone())
                    };
                    assert_eq!(engine.shard_count(), 1);
                    assert_eq!(engine.n(), single.n());
                    for row in &rows {
                        let want = single.score(row).unwrap();
                        assert_ne!(want.to_bits(), (-0.0f64).to_bits(), "no scorer yields -0.0");
                        let got = engine.score(row).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{kind:?}/{model_agg:?}/{aggregation:?} {row:?}"
                        );
                    }
                }
            }
        }
    }

    /// The batch of a one-shard engine is its single model's per-row
    /// scores, bit for bit, with one shard timing — what a server records
    /// as shard `0` — and the model's subspace count for its index-query
    /// counter.
    #[test]
    fn one_shard_batch_reports_like_a_single_model() {
        let model = model_with_duplicates(ScorerKind::Lof, AggregationKind::Average);
        let single = QueryEngine::from_model(&model, 2);
        let engine = ShardedEngine::single(single.clone());
        let rows: Vec<Vec<f64>> = (0..7).map(|i| model.dataset().row(i)).collect();
        let batch = engine.score_batch(&rows, 2);
        let plain: Vec<_> = rows.iter().map(|r| single.score(r)).collect();
        assert_bitwise(&batch.results, &plain);
        assert_eq!(batch.shard_nanos.len(), 1);
        assert_eq!(engine.subspace_count(), single.subspace_count());
    }

    #[test]
    fn shape_mismatch_against_manifest_is_rejected() {
        let (path, _) = write_ensemble("mismatch", ShardAggregation::Mean);
        let mut manifest = ShardManifest::load(&path).unwrap();
        manifest.shards[1].n += 1;
        manifest.total_n += 1;
        manifest.save(&path).unwrap();
        match ShardedEngine::open(&path, None, 1) {
            Err(HicsError::InvalidInput(msg)) => {
                assert!(msg.contains("shard 1"), "{msg}")
            }
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_shard_artifact_is_io_error() {
        let (path, _) = write_ensemble("missing", ShardAggregation::Mean);
        let mut manifest = ShardManifest::load(&path).unwrap();
        manifest.shards[2].file = "no-such-shard.hics".into();
        manifest.save(&path).unwrap();
        assert!(matches!(
            ShardedEngine::open(&path, None, 1),
            Err(HicsError::Io { .. })
        ));
    }
}
