//! Query-point scoring against a trained model — the serve-path half of the
//! decoupled pipeline.
//!
//! The batch pipeline scores the database against itself; serving needs the
//! inverse: project a **new** point into each of the model's high-contrast
//! subspaces and compute its density-based outlier score against the trained
//! columns, without re-running the subspace search. [`QueryEngine`] reads
//! every trained value where the artifact holds it: the columns, a
//! per-subspace neighbour index (brute scan or VP-tree — the stored trees of
//! a version-2 or version-4 artifact) and the per-subspace neighbourhood
//! state or "hoods" (k-distances, LOF reachability densities and the
//! non-finite clamp of a version-4 artifact). With the VP-tree a query costs
//! `O(log N)` expected per subspace instead of the brute `O(N · |S|)` scan.
//!
//! There is one storage: the engine always serves out of an
//! [`hics_data::ModelArtifact`] — a memory map of the file for every engine
//! opened from disk ([`QueryEngine::open_mmap`]), the in-memory encoding of
//! the model for one built from a [`HicsModel`] — and borrows its views on
//! every query instead of copying them at open. Only what the bytes do not
//! hold is private: trees built at open for a version-1 artifact, hoods
//! computed at open (by [`subspace_hoods`]'s computation) for versions 1
//! and 2, and a hash of the first trained column for `O(1)` in-sample
//! detection. Both kinds of artifact run the same code on the same
//! bytes.
//!
//! **In-sample fidelity:** a query row that coincides bitwise with a
//! training row is detected and scored with that object excluded from its
//! own neighbourhood — exactly how the batch path treats it — and every
//! floating-point accumulation mirrors the batch code expression for
//! expression. `QueryEngine::score` on a training row therefore reproduces
//! the batch pipeline's aggregated score *bit-for-bit* (asserted by
//! `crates/core/tests/serve_equivalence.rs`).

use crate::aggregate::Aggregation;
use crate::distance::{ColumnPages, Points};
use crate::index::{knn_all_flat, knn_point, IndexKind, SubspaceIndex, VpTree};
use crate::knn_score::KnnScoreKind;
use crate::lof::{lof_from_flat, lof_of_query, lrd_from_flat, lrd_of};
use crate::parallel::par_map;
use hics_data::model::{
    AggregationKind, HicsModel, HoodsData, HoodsView, NormParam, ScorerKind, ScorerSpec,
    VpTreeData, VpTreeView,
};
use hics_data::{HicsError, ModelArtifact};
use std::borrow::Cow;
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

/// A piece of trained state: read in place from the artifact on every
/// query, or held privately — because the artifact does not hold it (built
/// or computed at open) or cannot lend it (bytes the in-place cast cannot
/// read, which never happens on a little-endian host).
#[derive(Debug, Clone)]
enum Held<T> {
    InPlace,
    Owned(T),
}

/// Where one subspace's state lives.
#[derive(Debug, Clone)]
struct TrainedSubspace {
    /// Attribute indices of the subspace, ascending.
    dims: Vec<usize>,
    /// Where each axis's column starts in the columns section
    /// (`dims[t] · n`).
    starts: Vec<usize>,
    /// The VP-tree every query in this subspace goes through; `None` scans
    /// brute force.
    tree: Option<Held<VpTreeData>>,
    /// The training objects' k-distances and LOF densities, and the clamp
    /// applied to a non-finite query score (matching
    /// [`crate::aggregate_scores`]).
    hoods: Held<HoodsData>,
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
    /// Wall-clock microseconds spent on the indexes at open: building
    /// trees the artifact does not carry, or locating the stored ones,
    /// which are read in place (excludes the neighbourhood
    /// precomputation).
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
    /// The trained columns, one after another (see
    /// [`ModelArtifact::columns`]).
    columns: Held<Vec<f64>>,
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

    /// Builds the engine over an artifact **without** copying its trained
    /// state: the columns, the stored VP-trees and the stored hoods are
    /// read in place on every query, through
    /// [`ModelArtifact::columns`], [`ModelArtifact::tree`] and
    /// [`ModelArtifact::hoods_view`]; the order permutations and rank index
    /// are never touched. `index` behaves exactly as in
    /// [`QueryEngine::from_model_with_index`].
    ///
    /// What the artifact does not hold is computed here and held privately:
    /// the VP-trees of a version-1 artifact opened with
    /// `Some(IndexKind::VpTree)`, and the hoods of a version-1 or version-2
    /// artifact (the computation behind [`subspace_hoods`], with up to
    /// `max_threads` workers, so a stored section holds exactly these
    /// values). [`IndexStats::precomputed`] says whether the hoods were
    /// stored.
    pub fn from_artifact(
        artifact: Arc<ModelArtifact>,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Self {
        let spec = artifact.scorer();
        let n = artifact.n();
        let chosen = index.unwrap_or(if artifact.has_index() {
            IndexKind::VpTree
        } else {
            IndexKind::Brute
        });
        let columns = match artifact.columns() {
            Cow::Borrowed(_) => Held::InPlace,
            Cow::Owned(copy) => Held::Owned(copy),
        };
        let pages = match &columns {
            Held::InPlace => artifact.columns(),
            Held::Owned(copy) => Cow::Borrowed(&copy[..]),
        };
        let starts: Vec<Vec<usize>> = artifact
            .subspaces()
            .iter()
            .map(|sub| sub.dims.iter().map(|&j| j * n).collect())
            .collect();
        let build_start = Instant::now();
        let trees: Vec<Option<Held<VpTreeData>>> = starts
            .iter()
            .enumerate()
            .map(|(s, starts)| match (chosen, artifact.tree(s)) {
                (IndexKind::Brute, _) => None,
                // The stored tree is the deterministic build over these very
                // columns; reading it skips the O(N log N) construction.
                (IndexKind::VpTree, Some(stored)) if stored.is_borrowed() => Some(Held::InPlace),
                (IndexKind::VpTree, Some(stored)) => Some(Held::Owned(stored.into_owned())),
                (IndexKind::VpTree, None) => {
                    let points = ColumnPages::new(&pages, n, starts);
                    Some(Held::Owned(VpTree::build(&points).into_data()))
                }
            })
            .collect();
        let build_micros = build_start.elapsed().as_micros() as u64;
        let subspaces: Vec<TrainedSubspace> = artifact
            .subspaces()
            .iter()
            .zip(starts)
            .zip(trees)
            .enumerate()
            .map(|(s, ((sub, starts), tree))| {
                let hoods = match artifact.hoods_view(s) {
                    Some(stored) if stored.is_borrowed() => Held::InPlace,
                    Some(stored) => Held::Owned(stored.into_owned()),
                    None => {
                        let points = ColumnPages::new(&pages, n, &starts);
                        let tree = tree.as_ref().map(|t| held_tree(&artifact, s, t));
                        Held::Owned(hoods_through(&points, tree.as_ref(), spec, max_threads))
                    }
                };
                TrainedSubspace {
                    dims: sub.dims.clone(),
                    starts,
                    tree,
                    hoods,
                }
            })
            .collect();
        let index_stats = IndexStats {
            kind: chosen,
            from_artifact: chosen == IndexKind::VpTree && artifact.has_index(),
            nodes: subspaces
                .iter()
                .enumerate()
                .filter_map(|(s, sub)| Some(held_tree(&artifact, s, sub.tree.as_ref()?)))
                .map(|tree| tree.nodes.len())
                .sum(),
            build_micros,
            precomputed: artifact.has_hoods(),
        };
        let mut coincident: HashMap<u64, Vec<u32>> = HashMap::with_capacity(n);
        for (i, &v) in pages[..n].iter().enumerate() {
            coincident.entry(float_key(v)).or_default().push(i as u32);
        }
        drop(pages);
        Self {
            norm: artifact.norm_params().to_vec(),
            aggregation: match artifact.aggregation() {
                AggregationKind::Average => Aggregation::Average,
                AggregationKind::Max => Aggregation::Max,
            },
            kind: spec.kind,
            k: spec.k as usize,
            columns,
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
        let pages = self.pages();
        let mut q_sub: Vec<f64> = Vec::new();
        for (s, sub) in self.subspaces.iter().enumerate() {
            q_sub.clear();
            q_sub.extend(sub.dims.iter().map(|&j| q[j]));
            let points = ColumnPages::new(&pages, self.n(), &sub.starts);
            let hoods = self.hoods(s);
            let s = self.score_in_subspace(s, &points, &hoods, &q_sub, exclude);
            let s = if s.is_finite() { s } else { hoods.clamp };
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

    /// The trained columns (see [`ModelArtifact::columns`]).
    fn pages(&self) -> Cow<'_, [f64]> {
        match &self.columns {
            Held::InPlace => self.artifact.columns(),
            Held::Owned(copy) => Cow::Borrowed(copy),
        }
    }

    /// Subspace `s`'s hoods.
    fn hoods(&self, s: usize) -> HoodsView<'_> {
        match &self.subspaces[s].hoods {
            Held::InPlace => self.artifact.hoods_view(s).expect("checked at open"),
            Held::Owned(hoods) => hoods.view(),
        }
    }

    /// The density score of the (already normalised) query in subspace `s`,
    /// whose points and hoods the caller has resolved.
    fn score_in_subspace(
        &self,
        s: usize,
        points: &ColumnPages<'_>,
        hoods: &HoodsView<'_>,
        q_sub: &[f64],
        exclude: Option<usize>,
    ) -> f64 {
        let tree = self.subspaces[s]
            .tree
            .as_ref()
            .map(|t| held_tree(&self.artifact, s, t));
        let h = knn_point(tree.as_ref(), points, q_sub, self.k, exclude);
        match self.kind {
            ScorerKind::Lof => {
                let lrd_q = lrd_of(&h.neighbors, &h.distances, |o| hoods.k_distance[o]);
                lof_of_query(&hoods.lrd, &h.neighbors, lrd_q)
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

/// Subspace `s`'s VP-tree: read in place from `artifact`, or lent by the
/// engine's own copy.
fn held_tree<'a>(
    artifact: &'a ModelArtifact,
    s: usize,
    tree: &'a Held<VpTreeData>,
) -> VpTreeView<'a> {
    match tree {
        Held::InPlace => artifact.tree(s).expect("checked at open"),
        Held::Owned(tree) => tree.view(),
    }
}

/// Computes one subspace's neighbourhood state over its trained points
/// (any [`Points`]: the fit passes a borrowed [`crate::SubspaceView`], the
/// engine its in-place column pages; the distances are bit-identical):
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
pub fn subspace_hoods<P: Points>(
    points: &P,
    index: &SubspaceIndex,
    scorer: ScorerSpec,
    max_threads: usize,
) -> HoodsData {
    hoods_through(points, index.tree().as_ref(), scorer, max_threads)
}

/// [`subspace_hoods`] through `tree`, or the brute scan for `None`.
fn hoods_through<P: Points>(
    points: &P,
    tree: Option<&VpTreeView<'_>>,
    scorer: ScorerSpec,
    max_threads: usize,
) -> HoodsData {
    let hoods = knn_all_flat(points, tree, scorer.k as usize, max_threads);
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
    use crate::distance::SubspaceLayout;
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
        (0..engine.subspace_count())
            .map(|s| engine.hoods(s).into_owned())
            .collect()
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

    /// Whether `part` lies inside `whole`'s memory.
    fn lies_in<T>(part: &[T], whole: &[u8]) -> bool {
        let (start, end) = (
            part.as_ptr() as usize,
            part.as_ptr() as usize + size_of_val(part),
        );
        let range = whole.as_ptr_range();
        start >= range.start as usize && end <= range.end as usize
    }

    /// Over a version-4 artifact with trees, every column, tree node, leaf
    /// id and hoods value a query reads lies inside the artifact's bytes:
    /// the engine holds no copy of them.
    #[test]
    fn v4_engine_reads_every_trained_value_in_place() {
        for kind in [ScorerKind::Lof, ScorerKind::KnnMean] {
            let (model, g) = model_with(kind, NormKind::MinMax, AggregationKind::Average);
            let mut model = with_hoods(model, IndexKind::VpTree);
            let trees = model
                .subspaces()
                .iter()
                .map(|s| {
                    VpTree::build(&SubspaceLayout::gather(model.dataset(), &s.dims)).into_data()
                })
                .collect();
            model.set_index(Some(hics_data::model::ModelIndex { trees }));
            let engine = QueryEngine::from_model(&model, 2);
            let bytes = engine.artifact.bytes();
            assert_eq!(engine.artifact.version(), 4);
            assert!(matches!(engine.columns, Held::InPlace));
            assert!(lies_in(&engine.pages(), bytes));
            for (s, sub) in engine.subspaces.iter().enumerate() {
                let Some(held @ Held::InPlace) = &sub.tree else {
                    panic!("{kind:?} subspace {s}: tree not read in place");
                };
                let tree = held_tree(&engine.artifact, s, held);
                assert!(lies_in(&tree.nodes, bytes) && lies_in(&tree.ids, bytes));
                assert!(matches!(sub.hoods, Held::InPlace), "{kind:?} subspace {s}");
                let hoods = engine.hoods(s);
                assert!(lies_in(&hoods.k_distance, bytes) && lies_in(&hoods.lrd, bytes));
                assert_eq!(hoods.lrd.is_empty(), kind != ScorerKind::Lof);
            }
            let reference = QueryEngine::from_model(&model, 2);
            for i in (0..g.dataset.n()).step_by(17) {
                let row = g.dataset.row(i);
                assert_eq!(engine.score(&row), reference.score(&row));
            }
        }
    }

    /// A version-1 artifact opened with the VP-tree holds the trees it
    /// built and the hoods it computed; only the columns stay in place.
    #[test]
    fn v1_engine_holds_what_it_built() {
        let (model, _) = model_with(ScorerKind::Lof, NormKind::None, AggregationKind::Average);
        let artifact = Arc::new(ModelArtifact::from_bytes(&model.to_bytes()).expect("valid"));
        assert_eq!(artifact.version(), 1);
        let engine = QueryEngine::from_artifact(artifact, Some(IndexKind::VpTree), 2);
        assert!(matches!(engine.columns, Held::InPlace));
        for (s, sub) in engine.subspaces.iter().enumerate() {
            let Some(Held::Owned(tree)) = &sub.tree else {
                panic!("subspace {s}: the built tree is not held");
            };
            let want = VpTree::build(&SubspaceLayout::gather(model.dataset(), &sub.dims));
            assert_eq!(tree, want.as_data(), "subspace {s}");
            assert!(matches!(sub.hoods, Held::Owned(_)), "subspace {s}");
        }
        assert!(!engine.index_stats().from_artifact && !engine.index_stats().precomputed);
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
