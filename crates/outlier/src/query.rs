//! Query-point scoring against a trained model — the serve-path half of the
//! decoupled pipeline.
//!
//! The batch pipeline scores the database against itself; serving needs the
//! inverse: project a **new** point into each of the model's high-contrast
//! subspaces and compute its density-based outlier score against the trained
//! columns, without re-running the subspace search. [`QueryEngine`] holds
//! everything that is derivable once per model load: per-subspace point
//! layouts (columns gathered once, never re-derived per request), a
//! per-subspace neighbour index (brute scan or VP-tree — stored trees from a
//! version-2 or version-4 artifact are reused, otherwise built at load),
//! the per-subspace neighbourhood state or "hoods" (k-distances, LOF
//! reachability densities and the non-finite clamp — copied from a
//! version-4 artifact's hoods section, computed by [`subspace_hoods`]
//! otherwise), and a hash of the first trained column for `O(1)` in-sample
//! detection. With the VP-tree a query costs `O(log N)` expected per
//! subspace instead of the brute `O(N · |S|)` scan.
//!
//! There is one storage: the engine always reads its trained columns out of
//! an [`hics_data::ModelArtifact`] — a memory map of the file for every
//! engine opened from disk ([`QueryEngine::open_mmap`]), the in-memory
//! encoding of the model for one built from a [`HicsModel`]. Both run the
//! same code on the same bytes.
//!
//! **In-sample fidelity:** a query row that coincides bitwise with a
//! training row is detected and scored with that object excluded from its
//! own neighbourhood — exactly how the batch path treats it — and every
//! floating-point accumulation mirrors the batch code expression for
//! expression. `QueryEngine::score` on a training row therefore reproduces
//! the batch pipeline's aggregated score *bit-for-bit* (asserted by
//! `crates/core/tests/serve_equivalence.rs`).

use crate::aggregate::Aggregation;
use crate::distance::SubspaceLayout;
use crate::index::{knn_all_flat, IndexKind, SubspaceIndex, VpTree};
use crate::knn_score::KnnScoreKind;
use crate::lof::{lof_from_flat, lof_of_query, lrd_from_flat, lrd_of};
use crate::parallel::par_map;
use hics_data::model::{AggregationKind, HicsModel, HoodsData, NormParam, ScorerKind, ScorerSpec};
use hics_data::{HicsError, ModelArtifact};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A malformed query row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The row has the wrong number of attributes.
    DimensionMismatch {
        /// The model's attribute count.
        expected: usize,
        /// The row's length.
        got: usize,
    },
    /// The row contains a NaN or infinity.
    NonFinite {
        /// Index of the offending attribute.
        column: usize,
    },
    /// A remote scoring tier could not produce a score for the row —
    /// every replica of some shard failed or timed out. Only the
    /// scatter-gather router emits this; in-process engines never do.
    Upstream(
        /// What failed, suitable for an error response body.
        String,
    ),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "query row has {got} attributes, model expects {expected}"
                )
            }
            QueryError::NonFinite { column } => {
                write!(f, "query attribute {column} is not a finite number")
            }
            QueryError::Upstream(msg) => write!(f, "upstream scoring failed: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryError> for HicsError {
    fn from(e: QueryError) -> Self {
        HicsError::InvalidQuery(e.to_string())
    }
}

/// Per-subspace state derived from the trained columns at engine build time.
#[derive(Debug, Clone)]
struct TrainedSubspace {
    /// Attribute indices of the subspace, ascending.
    dims: Vec<usize>,
    /// The subspace's columns gathered into owned storage once — request
    /// handling never re-derives a point layout from the full dataset.
    layout: SubspaceLayout,
    /// The neighbour index every query in this subspace goes through.
    index: SubspaceIndex,
    /// The training objects' k-distances and LOF densities, and the clamp
    /// applied to a non-finite query score (matching
    /// [`crate::aggregate_scores`]).
    hoods: HoodsData,
}

/// How the engine's neighbour index came to be — surfaced on the serving
/// layer's `/model` and `/stats` endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// The backend in use.
    pub kind: IndexKind,
    /// Whether the trees were reused from the artifact (vs. built at load).
    pub from_artifact: bool,
    /// Total index nodes across subspaces (0 for brute).
    pub nodes: usize,
    /// Wall-clock microseconds spent gathering layouts and building /
    /// adopting indexes (excludes the neighbourhood precomputation).
    pub build_micros: u64,
    /// Whether the per-subspace neighbourhood state (k-distances, LOF
    /// densities, clamps) was adopted from the artifact's hoods section
    /// instead of computed at load.
    pub precomputed: bool,
}

/// Scores query points against a trained model, always served out of a
/// [`ModelArtifact`]: a memory-mapped file, or the in-memory encoding of a
/// [`HicsModel`].
#[derive(Debug, Clone)]
pub struct QueryEngine {
    artifact: Arc<ModelArtifact>,
    norm: Vec<NormParam>,
    kind: ScorerKind,
    k: usize,
    aggregation: Aggregation,
    subspaces: Vec<TrainedSubspace>,
    /// First trained column keyed by bit pattern (−0.0 canonicalised to
    /// +0.0 so `==`-equal values share a slot) → ascending object ids; makes
    /// in-sample detection `O(1)` instead of an `O(N)` column scan.
    coincident: HashMap<u64, Vec<u32>>,
    index_stats: IndexStats,
}

impl QueryEngine {
    /// Builds the engine from a loaded model: encodes it into an in-memory
    /// artifact and builds over that exactly as
    /// [`QueryEngine::from_artifact`] does — adopting the artifact's prebuilt
    /// index (or the brute fallback for a version-1 artifact) and computing
    /// per-subspace training neighbourhoods (and, for LOF, reachability
    /// densities) once, using up to `max_threads` workers.
    pub fn from_model(model: &HicsModel, max_threads: usize) -> Self {
        Self::from_model_with_index(model, None, max_threads)
    }

    /// Like [`QueryEngine::from_model`], with an explicit backend choice:
    /// `Some(kind)` forces `kind` (building VP-trees at load if the artifact
    /// carries none), `None` follows the artifact (stored trees when
    /// present, brute otherwise). Scores are bit-identical either way.
    pub fn from_model_with_index(
        model: &HicsModel,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Self {
        let artifact = ModelArtifact::from_bytes(&model.to_bytes())
            .expect("a HicsModel always encodes to a valid artifact");
        Self::from_artifact(Arc::new(artifact), index, max_threads)
    }

    /// Memory-maps the artifact at `path` and builds its engine. `index`
    /// behaves as in [`QueryEngine::from_artifact`].
    pub fn open_mmap(
        path: &Path,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Result<Self, HicsError> {
        let artifact = Arc::new(ModelArtifact::open_mmap(path)?);
        Ok(Self::from_artifact(artifact, index, max_threads))
    }

    /// Builds the engine over an artifact **without** copying the training
    /// matrix: the order permutations and rank index are never
    /// materialised, and in-sample candidate checks read through the
    /// artifact bytes. What *is* copied are the per-subspace point layouts
    /// (contiguous gathers of each subspace's columns — the serving hot path
    /// depends on them), so resident memory scales with the attributes the
    /// subspaces actually touch (HiCS subspaces are 2–5 wide), not with `d`.
    /// `index` behaves exactly as in [`QueryEngine::from_model_with_index`].
    ///
    /// A version-4 artifact's hoods are copied out of its hoods section
    /// (the fit wrote them with [`subspace_hoods`], so they are exactly the
    /// values computing would produce); older artifacts compute them here
    /// with up to `max_threads` workers. [`IndexStats::precomputed`] says
    /// which happened.
    pub fn from_artifact(
        artifact: Arc<ModelArtifact>,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Self {
        let spec = artifact.scorer();
        let stored = artifact.index();
        let chosen = index.unwrap_or(if stored.is_some() {
            IndexKind::VpTree
        } else {
            IndexKind::Brute
        });
        let build_start = Instant::now();
        let mut from_artifact = false;
        let prepared: Vec<(Vec<usize>, SubspaceLayout, SubspaceIndex)> = artifact
            .subspaces()
            .iter()
            .enumerate()
            .map(|(s, sub)| {
                let dims = sub.dims.clone();
                let layout = SubspaceLayout::from_cols(
                    dims.iter()
                        .map(|&j| artifact.column(j).into_owned())
                        .collect(),
                );
                let index = match (chosen, stored) {
                    (IndexKind::Brute, _) => SubspaceIndex::Brute,
                    (IndexKind::VpTree, Some(stored)) => {
                        // The stored tree is the deterministic build over
                        // these very columns; adopting it skips the
                        // O(N log N) construction.
                        from_artifact = true;
                        SubspaceIndex::VpTree(VpTree::from_data(stored.trees[s].clone()))
                    }
                    (IndexKind::VpTree, None) => SubspaceIndex::build(&layout, IndexKind::VpTree),
                };
                (dims, layout, index)
            })
            .collect();
        let index_stats = IndexStats {
            kind: chosen,
            from_artifact,
            nodes: prepared.iter().map(|(_, _, i)| i.node_count()).sum(),
            build_micros: build_start.elapsed().as_micros() as u64,
            precomputed: artifact.has_hoods(),
        };
        let subspaces = prepared
            .into_iter()
            .enumerate()
            .map(|(s, (dims, layout, index))| {
                let hoods = artifact
                    .hoods(s)
                    .unwrap_or_else(|| subspace_hoods(&layout, &index, spec, max_threads));
                TrainedSubspace {
                    dims,
                    layout,
                    index,
                    hoods,
                }
            })
            .collect();
        let mut coincident: HashMap<u64, Vec<u32>> = HashMap::with_capacity(artifact.n());
        for (i, &v) in artifact.column(0).iter().enumerate() {
            coincident.entry(float_key(v)).or_default().push(i as u32);
        }
        Self {
            norm: artifact.norm_params().to_vec(),
            aggregation: match artifact.aggregation() {
                AggregationKind::Average => Aggregation::Average,
                AggregationKind::Max => Aggregation::Max,
            },
            kind: spec.kind,
            k: spec.k as usize,
            subspaces,
            coincident,
            index_stats,
            artifact,
        }
    }

    /// How the engine's neighbour index was obtained.
    pub fn index_stats(&self) -> IndexStats {
        self.index_stats
    }

    /// Number of trained objects.
    pub fn n(&self) -> usize {
        self.artifact.n()
    }

    /// Number of attributes a query row must carry.
    pub fn d(&self) -> usize {
        self.artifact.d()
    }

    /// Whether the artifact behind the engine is a live memory map of its
    /// file (as opposed to in-memory bytes, e.g. an encoded [`HicsModel`]).
    pub fn is_mapped(&self) -> bool {
        self.artifact.is_mmap()
    }

    /// Number of subspaces every query is scored in.
    pub fn subspace_count(&self) -> usize {
        self.subspaces.len()
    }

    /// Scores one **raw** query row (the engine applies the model's
    /// normalisation). Higher is more outlying.
    pub fn score(&self, raw: &[f64]) -> Result<f64, QueryError> {
        if raw.len() != self.d() {
            return Err(QueryError::DimensionMismatch {
                expected: self.d(),
                got: raw.len(),
            });
        }
        if let Some(column) = raw.iter().position(|v| !v.is_finite()) {
            return Err(QueryError::NonFinite { column });
        }
        let q: Vec<f64> = raw
            .iter()
            .zip(&self.norm)
            .map(|(&v, p)| p.apply(v))
            .collect();
        let exclude = self.find_coincident(&q);

        // Aggregate with the same accumulation order as `aggregate_scores`:
        // subspace by subspace, clamping non-finite scores per subspace.
        let mut acc = match self.aggregation {
            Aggregation::Average => 0.0,
            Aggregation::Max => f64::NEG_INFINITY,
        };
        let mut q_sub: Vec<f64> = Vec::new();
        for sub in &self.subspaces {
            q_sub.clear();
            q_sub.extend(sub.dims.iter().map(|&j| q[j]));
            let s = self.score_in_subspace(sub, &q_sub, exclude);
            let s = if s.is_finite() { s } else { sub.hoods.clamp };
            match self.aggregation {
                Aggregation::Average => acc += s,
                Aggregation::Max => acc = acc.max(s),
            }
        }
        if self.aggregation == Aggregation::Average {
            acc /= self.subspaces.len() as f64;
        }
        Ok(acc)
    }

    /// Scores a batch of raw query rows in parallel.
    pub fn score_batch(
        &self,
        rows: &[Vec<f64>],
        max_threads: usize,
    ) -> Vec<Result<f64, QueryError>> {
        // The recorder is consulted once per batch, never per row: the
        // uninstrumented path pays one RwLock read for the whole batch.
        let recorder = crate::metrics::recorder();
        let start = recorder.as_ref().map(|_| std::time::Instant::now());
        let out = par_map(rows.len(), max_threads, |i| self.score(&rows[i]));
        if let (Some(rec), Some(start)) = (recorder, start) {
            rec.shard_scored(0, rows.len(), start.elapsed().as_nanos() as u64);
            rec.index_queries((rows.len() * self.subspaces.len()) as u64);
        }
        out
    }

    /// The density score of the (already normalised) query in one subspace.
    fn score_in_subspace(
        &self,
        sub: &TrainedSubspace,
        q_sub: &[f64],
        exclude: Option<usize>,
    ) -> f64 {
        let h = sub.index.knn_point(&sub.layout, q_sub, self.k, exclude);
        match self.kind {
            ScorerKind::Lof => {
                let lrd_q = lrd_of(&h.neighbors, &h.distances, |o| sub.hoods.k_distance[o]);
                lof_of_query(&sub.hoods.lrd, &h.neighbors, lrd_q)
            }
            ScorerKind::KnnMean | ScorerKind::KnnKth => knn_stat(self.kind).score(&h),
        }
    }

    /// Finds a training object whose full (normalised) row equals the query
    /// (under `f64` equality, exactly like the column scan it replaced) —
    /// the object to leave out of the query's neighbourhoods so in-sample
    /// queries reproduce batch scores. The first-column hash narrows the
    /// scan to the handful of objects sharing `q[0]`; candidates are checked
    /// in ascending id order, so the returned id matches the old scan's.
    fn find_coincident(&self, q: &[f64]) -> Option<usize> {
        let candidates = self.coincident.get(&float_key(q[0]))?;
        'outer: for &i in candidates {
            let i = i as usize;
            for (j, &qj) in q.iter().enumerate().skip(1) {
                if self.artifact.value(i, j) != qj {
                    continue 'outer;
                }
            }
            return Some(i);
        }
        None
    }
}

/// Hash key of one trained value: the bit pattern, with `−0.0`
/// canonicalised to `+0.0` so the map agrees with `==` (the only values in
/// a model are finite, so no NaN can reach here).
#[inline]
fn float_key(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else {
        v.to_bits()
    }
}

/// Computes one subspace's neighbourhood state over its trained points:
/// the all-points kNN pass through `index` (up to `max_threads` workers),
/// every object's k-distance, the LOF reachability densities (LOF only)
/// and the non-finite clamp — the largest finite training score.
///
/// The pass returns every neighbourhood in one flat (CSR) result — with
/// the VP-tree, from the tree-order self-join — and the densities, scores
/// and clamp are computed straight from it; no per-object
/// [`crate::Neighborhood`] is built. Every value equals, bit for bit, what
/// [`crate::knn_all_indexed`] plus [`crate::lrd_from_neighborhoods`] /
/// [`crate::lof_from_neighborhoods`] or [`KnnScoreKind::score`] give.
///
/// This is the one computation behind both the fit's hoods section and
/// the engine's fallback for artifacts without one, so a stored section
/// holds exactly what an open would otherwise compute.
pub fn subspace_hoods(
    layout: &SubspaceLayout,
    index: &SubspaceIndex,
    scorer: ScorerSpec,
    max_threads: usize,
) -> HoodsData {
    let hoods = knn_all_flat(layout, index, scorer.k as usize, max_threads);
    let k_distance = hoods.map_by_id(|_, _, _, k_distance| k_distance);
    let (lrd, batch_scores) = match scorer.kind {
        ScorerKind::Lof => {
            let lrd = lrd_from_flat(&hoods, &k_distance);
            let lof = lof_from_flat(&hoods, &lrd);
            (lrd, lof)
        }
        ScorerKind::KnnMean | ScorerKind::KnnKth => {
            let stat = knn_stat(scorer.kind);
            let scores =
                hoods.map_by_id(|_, _, distances, k_distance| stat.score_of(distances, k_distance));
            (Vec::new(), scores)
        }
    };
    HoodsData {
        clamp: finite_clamp(&batch_scores),
        k_distance,
        lrd,
    }
}

/// Maps the model's kNN scorer kinds onto the batch statistic.
fn knn_stat(kind: ScorerKind) -> KnnScoreKind {
    match kind {
        ScorerKind::KnnMean => KnnScoreKind::Mean,
        ScorerKind::KnnKth => KnnScoreKind::Kth,
        ScorerKind::Lof => unreachable!("LOF does not use the kNN statistic"),
    }
}

/// The largest finite score, or `0.0` if none is finite — the same fold as
/// [`crate::aggregate_scores`]'s per-subspace clamp.
fn finite_clamp(scores: &[f64]) -> f64 {
    let finite_max = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    if finite_max.is_finite() {
        finite_max
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_scores;
    use crate::lof::Lof;
    use crate::scorer::score_subspaces;
    use hics_data::model::{apply_normalization, ModelSubspace, NormKind, ScorerSpec};
    use hics_data::SyntheticConfig;

    fn model_with(
        kind: ScorerKind,
        norm_kind: NormKind,
        aggregation: AggregationKind,
    ) -> (HicsModel, hics_data::LabeledDataset) {
        let g = SyntheticConfig::new(150, 6).with_seed(11).generate();
        let (data, norm) = apply_normalization(&g.dataset, norm_kind);
        let model = HicsModel::new(
            data,
            norm_kind,
            norm,
            vec![
                ModelSubspace {
                    dims: vec![0, 1],
                    contrast: 0.9,
                },
                ModelSubspace {
                    dims: vec![2, 3, 4],
                    contrast: 0.7,
                },
                ModelSubspace {
                    dims: vec![1, 5],
                    contrast: 0.5,
                },
            ],
            ScorerSpec { kind, k: 8 },
            aggregation,
        );
        (model, g)
    }

    /// In-sample queries must reproduce the batch pipeline bit-for-bit, for
    /// every scorer kind and aggregation.
    #[test]
    fn in_sample_queries_match_batch_scores_bitwise() {
        for (kind, agg) in [
            (ScorerKind::Lof, AggregationKind::Average),
            (ScorerKind::Lof, AggregationKind::Max),
            (ScorerKind::KnnMean, AggregationKind::Average),
            (ScorerKind::KnnKth, AggregationKind::Average),
        ] {
            let (model, g) = model_with(kind, NormKind::MinMax, agg);
            let engine = QueryEngine::from_model(&model, 4);
            // Reference: the batch path on the trained (normalised) columns.
            let dims: Vec<Vec<usize>> = model.subspaces().iter().map(|s| s.dims.clone()).collect();
            let per = match kind {
                ScorerKind::Lof => score_subspaces(model.dataset(), &dims, &Lof::with_k(8), 2),
                ScorerKind::KnnMean => {
                    score_subspaces(model.dataset(), &dims, &crate::KnnScorer::new(8), 2)
                }
                ScorerKind::KnnKth => score_subspaces(
                    model.dataset(),
                    &dims,
                    &crate::KnnScorer::new(8).kth_distance(),
                    2,
                ),
            };
            let how = match agg {
                AggregationKind::Average => Aggregation::Average,
                AggregationKind::Max => Aggregation::Max,
            };
            let batch = aggregate_scores(&per, how);
            for (i, want) in batch.iter().enumerate() {
                let raw = g.dataset.row(i);
                let got = engine.score(&raw).expect("valid row");
                assert!(
                    got == *want,
                    "{kind:?}/{agg:?} object {i}: query {got} != batch {want}"
                );
            }
        }
    }

    #[test]
    fn novel_outlier_scores_higher_than_inliers() {
        let (model, g) = model_with(ScorerKind::Lof, NormKind::None, AggregationKind::Average);
        let engine = QueryEngine::from_model(&model, 2);
        // A point far outside every cluster.
        let far = vec![50.0; g.dataset.d()];
        let far_score = engine.score(&far).unwrap();
        let median_in_sample = {
            let mut s: Vec<f64> = (0..g.dataset.n())
                .map(|i| engine.score(&g.dataset.row(i)).unwrap())
                .collect();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        assert!(
            far_score > 2.0 * median_in_sample,
            "far query {far_score} vs median {median_in_sample}"
        );
    }

    #[test]
    fn batch_scoring_matches_single_scoring() {
        let (model, g) = model_with(
            ScorerKind::KnnMean,
            NormKind::ZScore,
            AggregationKind::Average,
        );
        let engine = QueryEngine::from_model(&model, 2);
        let rows: Vec<Vec<f64>> = (0..20).map(|i| g.dataset.row(i)).collect();
        let batch = engine.score_batch(&rows, 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch[i], engine.score(row));
        }
    }

    #[test]
    fn rejects_malformed_rows() {
        let (model, _) = model_with(ScorerKind::Lof, NormKind::None, AggregationKind::Average);
        let engine = QueryEngine::from_model(&model, 1);
        assert_eq!(
            engine.score(&[1.0]),
            Err(QueryError::DimensionMismatch {
                expected: 6,
                got: 1
            })
        );
        let mut bad = vec![0.0; 6];
        bad[3] = f64::NAN;
        assert_eq!(engine.score(&bad), Err(QueryError::NonFinite { column: 3 }));
    }

    /// An engine built over the artifact bytes reproduces the engine built
    /// from the model bit-for-bit, in and out of sample, for every scorer
    /// kind and with either neighbour backend.
    #[test]
    fn mapped_engine_scores_bitwise_like_owned() {
        for kind in [ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth] {
            let (model, g) = model_with(kind, NormKind::MinMax, AggregationKind::Average);
            let owned = QueryEngine::from_model(&model, 2);
            let artifact = std::sync::Arc::new(
                hics_data::ModelArtifact::from_bytes(&model.to_bytes()).expect("valid artifact"),
            );
            for index in [None, Some(IndexKind::VpTree)] {
                let mapped = QueryEngine::from_artifact(std::sync::Arc::clone(&artifact), index, 2);
                for i in (0..g.dataset.n()).step_by(13) {
                    let row = g.dataset.row(i);
                    assert_eq!(owned.score(&row), mapped.score(&row), "{kind:?} row {i}");
                }
                let novel = vec![7.5; g.dataset.d()];
                assert_eq!(owned.score(&novel), mapped.score(&novel), "{kind:?} novel");
            }
        }
    }

    /// `model` with its hoods attached, as a precomputing fit stores them.
    fn with_hoods(mut model: HicsModel, index: IndexKind) -> HicsModel {
        let subspaces = model
            .subspaces()
            .iter()
            .map(|s| {
                let layout = SubspaceLayout::gather(model.dataset(), &s.dims);
                let index = SubspaceIndex::build(&layout, index);
                subspace_hoods(&layout, &index, model.scorer(), 2)
            })
            .collect();
        model.set_hoods(Some(hics_data::model::ModelHoods { subspaces }));
        model
    }

    /// The engine's per-subspace hoods, for bitwise comparison.
    fn engine_hoods(engine: &QueryEngine) -> Vec<HoodsData> {
        engine.subspaces.iter().map(|s| s.hoods.clone()).collect()
    }

    /// The hoods section round-trips bit for bit for every scorer kind —
    /// through `HicsModel::from_bytes` and into an engine's state — and a
    /// version-4 artifact carries LRDs exactly for LOF.
    #[test]
    fn stored_hoods_round_trip_bitwise() {
        for kind in [ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth] {
            let (model, _) = model_with(kind, NormKind::MinMax, AggregationKind::Average);
            let model = with_hoods(model, IndexKind::Brute);
            let bytes = model.to_bytes();
            assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 4);
            let back = HicsModel::from_bytes(&bytes).expect("v4 loads");
            assert_eq!(back, model, "{kind:?}");
            assert_eq!(back.to_bytes(), bytes, "{kind:?}: canonical encoding");
            let stored = &model.hoods().expect("hoods").subspaces;
            assert!(stored
                .iter()
                .all(|h| h.lrd.is_empty() != (kind == ScorerKind::Lof)));
            let engine = QueryEngine::from_model(&model, 2);
            assert!(engine.index_stats().precomputed);
            assert_eq!(&engine_hoods(&engine), stored, "{kind:?}");
        }
    }

    /// An engine that adopts stored hoods scores bit for bit like one that
    /// computed them, in and out of sample, with either backend.
    #[test]
    fn adopted_hoods_score_bitwise_like_computed() {
        for kind in [ScorerKind::Lof, ScorerKind::KnnKth] {
            let (model, g) = model_with(kind, NormKind::ZScore, AggregationKind::Max);
            let computed = QueryEngine::from_model(&model, 2);
            for index in [IndexKind::Brute, IndexKind::VpTree] {
                let adopted = QueryEngine::from_model(&with_hoods(model.clone(), index), 2);
                assert!(adopted.index_stats().precomputed);
                assert!(!computed.index_stats().precomputed);
                for i in (0..g.dataset.n()).step_by(11) {
                    let row = g.dataset.row(i);
                    assert_eq!(
                        adopted.score(&row),
                        computed.score(&row),
                        "{kind:?} row {i}"
                    );
                }
                for q in [
                    vec![0.5; 6],
                    vec![40.0; 6],
                    vec![-3.0, 0.0, 3.0, 0.1, 9.0, 2.0],
                ] {
                    assert_eq!(adopted.score(&q), computed.score(&q), "{kind:?} {q:?}");
                }
            }
        }
    }

    /// Version-1 and version-2 artifacts carry no hoods: their open
    /// computes them — the same values a precomputing fit would store.
    #[test]
    fn artifacts_without_hoods_compute_them() {
        let (model, _) = model_with(ScorerKind::Lof, NormKind::None, AggregationKind::Average);
        let mut indexed = model.clone();
        indexed.set_index(Some(hics_data::model::ModelIndex {
            trees: model
                .subspaces()
                .iter()
                .map(|s| {
                    VpTree::build(&SubspaceLayout::gather(model.dataset(), &s.dims)).into_data()
                })
                .collect(),
        }));
        let stored = with_hoods(model.clone(), IndexKind::Brute);
        for m in [&model, &indexed] {
            let artifact = Arc::new(ModelArtifact::from_bytes(&m.to_bytes()).expect("valid"));
            assert!(artifact.version() == 1 || artifact.version() == 2);
            assert!(!artifact.has_hoods() && artifact.hoods(0).is_none());
            let engine = QueryEngine::from_artifact(artifact, None, 2);
            assert!(!engine.index_stats().precomputed);
            assert_eq!(
                engine_hoods(&engine),
                stored.hoods().expect("hoods").subspaces
            );
        }
    }

    /// Distances between extreme (finite) coordinates overflow to `+∞`,
    /// giving infinite k-distances and zero LRDs: values the hoods
    /// section must store and reload, or a precomputing fit of such data
    /// would fail where a plain one succeeds.
    #[test]
    fn overflowing_distances_store_valid_hoods() {
        let col: Vec<f64> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    1e200
                } else {
                    -(i as f64) * 1e199
                }
            })
            .collect();
        let data = hics_data::Dataset::from_columns(vec![col.clone(), col]);
        let (data, norm) = apply_normalization(&data, NormKind::None);
        let model = HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 1],
                contrast: 0.5,
            }],
            ScorerSpec {
                kind: ScorerKind::Lof,
                k: 3,
            },
            AggregationKind::Average,
        );
        let model = with_hoods(model, IndexKind::Brute);
        let stored = &model.hoods().expect("hoods").subspaces[0];
        assert!(stored.k_distance.contains(&f64::INFINITY));
        assert!(stored.lrd.contains(&0.0));
        let back = HicsModel::from_bytes(&model.to_bytes()).expect("reloads");
        assert_eq!(back.hoods(), model.hoods());
    }

    #[test]
    fn engine_reports_model_shape() {
        let (model, _) = model_with(ScorerKind::Lof, NormKind::None, AggregationKind::Average);
        let engine = QueryEngine::from_model(&model, 1);
        assert_eq!(engine.n(), 150);
        assert_eq!(engine.d(), 6);
        assert_eq!(engine.subspace_count(), 3);
    }
}
