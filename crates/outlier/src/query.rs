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
//! There is one storage and one read path: the engine always serves out of
//! an [`hics_data::ModelArtifact`] that holds every piece a query reads —
//! a memory map of the file for every engine opened from disk
//! ([`QueryEngine::open_mmap`]), the in-memory encoding of the model for
//! one built from a [`HicsModel`] — and borrows its views on every query
//! instead of copying them at open. An artifact that lacks a piece (the
//! hoods of a version-1 or version-2 file, the VP-trees when they are
//! chosen and not stored) is upgraded once at open: the pieces are built
//! with the fit's own code and the engine serves out of a current-version
//! encoding in memory. In-sample detection binary-searches attribute 0's
//! stored order permutation, so the engine's own state is each subspace's
//! column offsets and whether queries go through the trees.
//!
//! **In-sample fidelity:** a query row that coincides bitwise with a
//! training row is detected and scored with that object excluded from its
//! own neighbourhood — exactly how the batch path treats it — and every
//! floating-point accumulation mirrors the batch code expression for
//! expression. `QueryEngine::score` on a training row therefore reproduces
//! the batch pipeline's aggregated score *bit-for-bit* (asserted by
//! `crates/core/tests/serve_equivalence.rs`).

use crate::aggregate::{score_clamp, Fold};
use crate::distance::{ColumnPages, Points, SubspaceView};
use crate::index::{knn_all_flat, knn_point, IndexKind, SubspaceIndex, VpTree};
use crate::knn_score::KnnScoreKind;
use crate::lof::{lof_from_flat, lof_of_query, lrd_from_flat, lrd_of};
use crate::parallel::release_free_heap;
use hics_data::mmap::AlignedBytes;
use hics_data::model::{
    HicsModel, HoodsData, HoodsView, ModelHead, ModelWriter, ScorerKind, ScorerSpec, TreeShape,
    VpTreeData, VpTreeView,
};
use hics_data::{ColumnsView, HicsError, ModelArtifact};
use std::io::Cursor;
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
    /// The engine panicked while scoring the batch that held the row. The
    /// server contains the panic at its batch boundary, so only that
    /// batch's rows fail.
    Panicked,
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
            QueryError::Panicked => write!(f, "scoring failed: the engine panicked"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryError> for HicsError {
    fn from(e: QueryError) -> Self {
        HicsError::InvalidQuery(e.to_string())
    }
}

/// How the engine's neighbour index came to be — surfaced on the serving
/// layer's `/model` and `/stats` endpoints. It describes the artifact as it
/// was opened, before any upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// The backend in use.
    pub kind: IndexKind,
    /// Whether the trees were reused from the artifact (vs. built at load).
    pub from_artifact: bool,
    /// Total index nodes across subspaces (0 for brute).
    pub nodes: usize,
    /// Wall-clock microseconds the open spent building VP-trees the
    /// artifact did not carry, during its upgrade (0 when the trees are
    /// stored or the brute scan is used; excludes the neighbourhood
    /// precomputation).
    pub build_micros: u64,
    /// Whether the per-subspace neighbourhood state (k-distances, LOF
    /// densities, clamps) was adopted from the artifact's hoods section
    /// instead of computed at load.
    pub precomputed: bool,
}

/// Scores query points against a trained model, always served out of a
/// [`ModelArtifact`] that carries every piece a query reads: a
/// memory-mapped file, the in-memory encoding of a [`HicsModel`], or the
/// in-memory upgrade of an older artifact.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    artifact: Arc<ModelArtifact>,
    /// Whether queries go through the artifact's VP-trees; `false` scans
    /// brute force.
    trees: bool,
    /// Whether the artifact was opened from a memory map (an upgrade moves
    /// it into memory).
    mapped: bool,
    /// Where each subspace's axes start in the columns section
    /// (`dims[t] · n`).
    starts: Vec<Vec<usize>>,
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
    /// state: the columns, the VP-trees and the hoods are read in place on
    /// every query, through [`ModelArtifact::columns`],
    /// [`ModelArtifact::tree`] and [`ModelArtifact::hoods_view`]. `index`
    /// behaves exactly as in [`QueryEngine::from_model_with_index`].
    ///
    /// An artifact that lacks a piece the engine will read — the hoods of
    /// a version-1 or version-2 artifact or a `--no-precompute` fit, or
    /// the VP-trees when they are chosen and not stored — is upgraded once
    /// here: the missing pieces are built with the fit's own code
    /// ([`VpTree::build`], and the computation behind [`subspace_hoods`]
    /// with up to `max_threads` workers, so a stored section holds exactly
    /// these values), a current-version artifact is encoded through
    /// [`ModelWriter`] into an owned, aligned buffer, and the engine serves
    /// out of that instead of `artifact`. [`IndexStats`] and
    /// [`QueryEngine::is_mapped`] describe the artifact as it was opened.
    pub fn from_artifact(
        artifact: Arc<ModelArtifact>,
        index: Option<IndexKind>,
        max_threads: usize,
    ) -> Self {
        let kind = index.unwrap_or(if artifact.has_index() {
            IndexKind::VpTree
        } else {
            IndexKind::Brute
        });
        let trees = kind == IndexKind::VpTree;
        let mapped = artifact.is_mmap();
        let (from_artifact, precomputed) = (trees && artifact.has_index(), artifact.has_hoods());
        // Missing the hoods, or the trees the queries go through: upgrade.
        let (artifact, build_micros) = if !precomputed || (trees && !from_artifact) {
            let (upgraded, build_micros) = upgrade(&artifact, trees, max_threads);
            (Arc::new(upgraded), build_micros)
        } else {
            (artifact, 0)
        };
        let n = artifact.n();
        let subspaces = artifact.subspaces();
        let nodes = (0..subspaces.len())
            .filter_map(|s| artifact.tree(s).filter(|_| trees))
            .map(|tree| tree.nodes.len())
            .sum();
        Self {
            trees,
            mapped,
            starts: subspaces
                .iter()
                .map(|sub| sub.dims.iter().map(|&j| j * n).collect())
                .collect(),
            index_stats: IndexStats {
                kind,
                from_artifact,
                nodes,
                build_micros,
                precomputed,
            },
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

    /// Whether the engine was opened from a live memory map of its file
    /// (as opposed to in-memory bytes, e.g. an encoded [`HicsModel`]).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Number of subspaces every query is scored in.
    pub fn subspace_count(&self) -> usize {
        self.starts.len()
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
            .zip(self.artifact.norm_params())
            .map(|(&v, p)| p.apply(v))
            .collect();
        let exclude = self.find_coincident(&q);

        // Fold subspace by subspace in model order, clamping non-finite
        // scores per subspace, exactly as `aggregate_scores` does.
        let mut fold = Fold::new(self.artifact.aggregation());
        let pages = self.artifact.columns();
        let mut q_sub: Vec<f64> = Vec::new();
        for (s, starts) in self.starts.iter().enumerate() {
            q_sub.clear();
            q_sub.extend(self.artifact.subspaces()[s].dims.iter().map(|&j| q[j]));
            let points = ColumnPages::new(&pages, self.n(), starts);
            let hoods = self.hoods(s);
            let s = self.score_in_subspace(s, &points, &hoods, &q_sub, exclude);
            fold.push(if s.is_finite() { s } else { hoods.clamp });
        }
        Ok(fold.finish())
    }

    /// Subspace `s`'s VP-tree, when queries go through the trees.
    fn tree(&self, s: usize) -> Option<VpTreeView<'_>> {
        self.trees.then(|| self.artifact.tree(s)).flatten()
    }

    /// Subspace `s`'s hoods.
    fn hoods(&self, s: usize) -> HoodsView<'_> {
        self.artifact.hoods_view(s).expect("upgraded at open")
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
        let ScorerSpec { kind, k } = self.artifact.scorer();
        let h = knn_point(self.tree(s).as_ref(), points, q_sub, k as usize, exclude);
        match kind {
            ScorerKind::Lof => {
                let lrd_q = lrd_of(&h.neighbors, &h.distances, |o| hoods.k_distance[o]);
                lof_of_query(&hoods.lrd, &h.neighbors, lrd_q)
            }
            ScorerKind::KnnMean | ScorerKind::KnnKth => knn_stat(kind).score(&h),
        }
    }

    /// Finds a training object whose full (normalised) row equals the query
    /// (under `f64` equality, exactly like the column scan it replaced) —
    /// the object to leave out of the query's neighbourhoods so in-sample
    /// queries reproduce batch scores. A binary search over attribute 0's
    /// stored order finds the run of objects whose first value equals
    /// `q[0]`; the run is in ascending id order, so the returned id matches
    /// the old scan's.
    fn find_coincident(&self, q: &[f64]) -> Option<usize> {
        let order = self.artifact.order(0);
        let first = |i: u32| self.artifact.value(i as usize, 0);
        let start = order.partition_point(|&i| first(i) < q[0]);
        order[start..]
            .iter()
            .take_while(|&&i| first(i) == q[0])
            .map(|&i| i as usize)
            .find(|&i| (1..q.len()).all(|j| self.artifact.value(i, j) == q[j]))
    }
}

/// Re-encodes `old` as a current-version artifact in an owned, aligned
/// buffer, building what it lacks with the fit's code over its in-place
/// columns: the VP-trees when `trees` asks for them and `old` stores none,
/// and the hoods when it stores none — through the trees the new artifact
/// carries or, when it carries none, through a VP-tree built for one
/// subspace's pass and dropped before the next (the brute scan's bits, at
/// the tree's cost). Returns the artifact and the microseconds the stored
/// tree builds took.
fn upgrade(old: &ModelArtifact, trees: bool, max_threads: usize) -> (ModelArtifact, u64) {
    const VALID: &str = "a parsed artifact re-encodes";
    let view = ColumnsView::from_source(old);
    let subspace = |s: usize| SubspaceView::from_columns_view(&view, &old.subspaces()[s].dims);
    let count = old.subspaces().len();
    let start = Instant::now();
    let build = trees && !old.has_index();
    let built: Vec<VpTreeData> = (0..count)
        .filter(|_| build)
        .map(|s| VpTree::build(&subspace(s)).into_data())
        .collect();
    let build_micros = if build {
        start.elapsed().as_micros() as u64
    } else {
        0
    };
    let tree = |s: usize| old.tree(s).or_else(|| Some(built.get(s)?.view()));
    let shapes: Option<Vec<TreeShape>> = (0..count).map(|s| Some(tree(s)?.shape())).collect();
    let orders: Vec<_> = (0..old.d()).map(|j| old.order(j)).collect();
    let order: Vec<&[u32]> = orders.iter().map(|o| &o[..]).collect();
    let head = ModelHead {
        view: &view,
        norm_kind: old.norm_kind(),
        norm: old.norm_params(),
        subspaces: old.subspaces(),
        scorer: old.scorer(),
        aggregation: old.aggregation(),
        order: &order,
        trees: shapes.as_deref(),
        hoods: true,
    };
    let mut bytes = AlignedBytes::zeroed(head.byte_len());
    let sink = Cursor::new(bytes.as_mut_slice());
    let mut w = ModelWriter::begin(sink, Path::new("memory"), &head).expect(VALID);
    for t in (0..count).filter_map(tree) {
        w.put_tree(&t).expect(VALID);
    }
    for s in 0..count {
        match old.hoods_view(s) {
            Some(stored) => w.put_hoods(&stored),
            None => {
                // With no tree to carry, build one for this pass only: the
                // self-join through it gives the brute scan's bits, far
                // faster.
                let points = subspace(s);
                let pass;
                let through = match tree(s) {
                    Some(t) => t,
                    None => {
                        pass = VpTree::build(&points);
                        pass.as_data().view()
                    }
                };
                let computed = hoods_through(&points, Some(&through), old.scorer(), max_threads);
                w.put_hoods(&computed.view())
            }
        }
        .expect(VALID);
    }
    w.finish().expect(VALID);
    drop(built);
    // The tree builds and all-points kNN passes are done; give their heap
    // back.
    release_free_heap();
    let upgraded = ModelArtifact::from_aligned(bytes).expect(VALID);
    (upgraded, build_micros)
}

/// Computes one subspace's neighbourhood state over its trained points
/// (any [`Points`]: the fit and the open-time upgrade pass a borrowed
/// [`crate::SubspaceView`], tests an owned layout; the distances are
/// bit-identical):
/// the all-points kNN pass through `index`, every object's k-distance,
/// the LOF reachability densities (LOF only) and the non-finite clamp —
/// the largest finite training score.
///
/// The kNN pass runs on up to `max_threads` workers that claim short runs
/// of queries as they go (with the VP-tree, of the tree-order self-join),
/// so they finish within about one run of each other. It returns every
/// neighbourhood in one flat (CSR) result, and the densities, scores and
/// clamp are computed straight from it on the calling thread; no
/// per-object [`crate::Neighborhood`] is built. Every value equals, bit
/// for bit, what [`crate::knn_all_indexed`] plus
/// [`crate::lrd_from_neighborhoods`] / [`crate::lof_from_neighborhoods`] or
/// [`KnnScoreKind::score`] give.
///
/// This is the one computation behind both the fit's hoods section and
/// the open-time upgrade of artifacts without one, so a stored section
/// holds exactly what an open would otherwise compute. Both callers run it
/// one subspace at a time, so one subspace's neighbourhoods are alive at
/// once.
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
        clamp: score_clamp(&batch_scores),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_scores;
    use crate::distance::SubspaceLayout;
    use crate::lof::Lof;
    use crate::scorer::score_subspaces;
    use hics_data::model::{
        apply_normalization, AggregationKind, ModelSubspace, NormKind, ScorerSpec,
    };
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
            let batch = aggregate_scores(&per, agg);
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
        let batch = crate::Engine::from(engine.clone()).score_batch(&rows, 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                batch[i].as_ref().map(|s| s.to_bits()),
                engine.score(row).as_ref().map(|s| s.to_bits()),
                "row {i}"
            );
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

    /// The in-sample lookup binary-searches attribute 0's stored order:
    /// with duplicate and ±0.0 first values it finds the same object a
    /// full-row linear scan in id order finds, and nothing for a row the
    /// model does not hold.
    #[test]
    fn coincident_lookup_matches_a_linear_scan() {
        let firsts = [0.0, -0.0, 0.5, 0.5, -0.0, 0.0, 0.25, 0.5, -0.0, 0.25];
        let seconds = [1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 1.0, 3.0];
        let data = hics_data::Dataset::from_columns(vec![firsts.to_vec(), seconds.to_vec()]);
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
                kind: ScorerKind::KnnMean,
                k: 2,
            },
            AggregationKind::Average,
        );
        let engine = QueryEngine::from_model(&model, 1);
        let scan = |q: &[f64]| (0..firsts.len()).find(|&i| firsts[i] == q[0] && seconds[i] == q[1]);
        let mut queries: Vec<[f64; 2]> = firsts.iter().zip(seconds).map(|(&a, b)| [a, b]).collect();
        queries.extend([
            [-0.0, 1.0],
            [0.0, 3.0],
            [0.5, 2.0],
            [0.75, 1.0],
            [-1.0, 1.0],
        ]);
        for q in queries {
            assert_eq!(engine.find_coincident(&q), scan(&q), "query {q:?}");
        }
        assert_eq!(engine.find_coincident(&[-0.0, 2.0]), Some(1));
        assert_eq!(engine.find_coincident(&[0.0, 1.0]), Some(0));
        assert_eq!(engine.find_coincident(&[0.5, 4.0]), Some(7));
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

    /// Every column, tree node, leaf id and hoods value `engine` reads lies
    /// inside its artifact's bytes, and its artifact is the current
    /// version: the engine holds no copy of them.
    fn assert_reads_in_place(engine: &QueryEngine, scorer: ScorerKind) {
        let bytes = engine.artifact.bytes();
        assert_eq!(engine.artifact.version(), 4);
        assert!(lies_in(&engine.artifact.columns(), bytes));
        for s in 0..engine.subspace_count() {
            if let Some(tree) = engine.tree(s) {
                assert!(lies_in(&tree.nodes, bytes) && lies_in(&tree.ids, bytes));
            }
            let hoods = engine.hoods(s);
            assert!(lies_in(&hoods.k_distance, bytes) && lies_in(&hoods.lrd, bytes));
            assert_eq!(hoods.lrd.is_empty(), scorer != ScorerKind::Lof);
        }
    }

    /// `model`'s VP-trees, as a fit builds them.
    fn built_trees(model: &HicsModel) -> Vec<VpTreeData> {
        model
            .subspaces()
            .iter()
            .map(|s| VpTree::build(&SubspaceLayout::gather(model.dataset(), &s.dims)).into_data())
            .collect()
    }

    /// Over a version-4 artifact with trees, the engine reads the artifact
    /// it was given, in place, and scores like the model.
    #[test]
    fn v4_engine_reads_every_trained_value_in_place() {
        for kind in [ScorerKind::Lof, ScorerKind::KnnMean] {
            let (model, g) = model_with(kind, NormKind::MinMax, AggregationKind::Average);
            let mut model = with_hoods(model, IndexKind::VpTree);
            let trees = built_trees(&model);
            model.set_index(Some(hics_data::model::ModelIndex { trees }));
            let artifact = Arc::new(ModelArtifact::from_bytes(&model.to_bytes()).expect("valid"));
            let engine = QueryEngine::from_artifact(Arc::clone(&artifact), None, 2);
            assert!(
                Arc::ptr_eq(&engine.artifact, &artifact),
                "{kind:?}: upgraded"
            );
            assert!((0..engine.subspace_count()).all(|s| engine.tree(s).is_some()));
            assert_reads_in_place(&engine, kind);
            let reference = QueryEngine::from_model(&model, 2);
            for i in (0..g.dataset.n()).step_by(17) {
                let row = g.dataset.row(i);
                assert_eq!(engine.score(&row), reference.score(&row));
            }
        }
    }

    /// An artifact without hoods, or without the trees the engine will
    /// read, is upgraded at open: the engine serves out of a version-4
    /// encoding in its own buffer that carries the trees a fit builds and
    /// the hoods a precomputing fit stores, the original artifact is let
    /// go, and the index stats still describe the artifact as opened.
    #[test]
    fn older_artifacts_are_upgraded_at_open() {
        let (model, g) = model_with(ScorerKind::Lof, NormKind::None, AggregationKind::Average);
        let trees = built_trees(&model);
        let nodes: usize = trees.iter().map(|t| t.nodes.len()).sum();
        let mut v2 = model.clone();
        v2.set_index(Some(hics_data::model::ModelIndex {
            trees: trees.clone(),
        }));
        let v4_bare = with_hoods(model.clone(), IndexKind::Brute);
        let stored = v4_bare.hoods().expect("hoods").subspaces.clone();
        let reference = QueryEngine::from_model(&v4_bare, 2);
        let stats = |kind, from_artifact, nodes, precomputed| IndexStats {
            kind,
            from_artifact,
            nodes,
            build_micros: 0,
            precomputed,
        };
        let cases = [
            (&model, 1, None, stats(IndexKind::Brute, false, 0, false)),
            (
                &model,
                1,
                Some(IndexKind::VpTree),
                stats(IndexKind::VpTree, false, nodes, false),
            ),
            (&v2, 2, None, stats(IndexKind::VpTree, true, nodes, false)),
            (
                &v4_bare,
                4,
                Some(IndexKind::VpTree),
                stats(IndexKind::VpTree, false, nodes, true),
            ),
        ];
        for (m, version, index, want) in cases {
            let artifact = Arc::new(ModelArtifact::from_bytes(&m.to_bytes()).expect("valid"));
            assert_eq!(artifact.version(), version);
            let engine = QueryEngine::from_artifact(Arc::clone(&artifact), index, 2);
            let case = format!("v{version} opened with {index:?}");
            assert_eq!(
                Arc::strong_count(&artifact),
                1,
                "{case}: original still held"
            );
            assert_reads_in_place(&engine, ScorerKind::Lof);
            let vptree = want.kind == IndexKind::VpTree;
            for (s, built) in trees.iter().enumerate() {
                let tree = engine.tree(s).map(VpTreeView::into_owned);
                assert_eq!(
                    tree.as_ref(),
                    vptree.then_some(built),
                    "{case} subspace {s}"
                );
            }
            assert_eq!(engine_hoods(&engine), stored, "{case}");
            if !vptree || want.from_artifact {
                assert_eq!(engine.index_stats().build_micros, 0, "{case}");
            }
            let got = IndexStats {
                build_micros: 0,
                ..engine.index_stats()
            };
            assert_eq!(got, want, "{case}");
            for i in (0..g.dataset.n()).step_by(7) {
                let row = g.dataset.row(i);
                assert_eq!(engine.score(&row), reference.score(&row), "{case} row {i}");
            }
        }
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
