//! The end-to-end HiCS pipeline: subspace search → outlier ranking →
//! aggregation (the two-step decoupled processing of Section I).

use crate::progress::{FitObserver, NoopObserver};
use crate::search::{ScoredSubspace, SearchParams, SubspaceSearch};
use hics_data::manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
use hics_data::mmap::write_atomic_with;
use hics_data::model::{
    apply_normalization, check_object_count, AggregationKind, HicsModel, ModelHead, ModelSubspace,
    ModelWriter, NormKind, NormParam, ScorerKind, ScorerSpec, VpTreeData,
};
use hics_data::{ColumnsView, Dataset, DatasetSource, HicsError, RankIndex};
use hics_outlier::aggregate::{aggregate_scores, Aggregation};
use hics_outlier::index::{IndexKind, SubspaceIndex, VpTree};
use hics_outlier::lof::Lof;
use hics_outlier::parallel::{par_map, release_free_heap};
use hics_outlier::scorer::{score_subspaces, SubspaceScorer};
use hics_outlier::{subspace_hoods, SubspaceView};
use std::io::{BufWriter, Cursor, Seek, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parameters of the full HiCS pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct HicsParams {
    /// Subspace-search parameters (M, α, cutoff, test, seed, …).
    pub search: SearchParams,
    /// LOF neighbourhood size `MinPts` used in the ranking step.
    pub lof_k: usize,
    /// Aggregation of per-subspace scores (paper: average).
    pub aggregation: Aggregation,
}

impl HicsParams {
    /// Paper defaults: `M = 50`, `α = 0.1`, cutoff 400, top-100 subspaces,
    /// Welch test, LOF with `k = 10`, average aggregation.
    pub fn paper_defaults() -> Self {
        Self {
            search: SearchParams::default(),
            lof_k: 10,
            aggregation: Aggregation::Average,
        }
    }

    /// Sets the base RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.search.seed = seed;
        self
    }
}

/// The one way to fit a servable model — search parameters plus every
/// packaging choice (normalisation, scorer, neighbour index) behind a
/// single builder:
///
/// ```no_run
/// use hics_core::{FitBuilder, HicsParams};
/// use hics_data::model::{NormKind, ScorerKind, ScorerSpec};
/// use hics_outlier::IndexKind;
/// # let data = hics_data::Dataset::from_columns(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
///
/// let model = FitBuilder::new(HicsParams::paper_defaults())
///     .normalize(NormKind::MinMax)
///     .scorer(ScorerSpec { kind: ScorerKind::Lof, k: 10 })
///     .index(IndexKind::VpTree)
///     .fit(&data);
/// ```
///
/// The defaults are no normalisation, LOF with the pipeline's `lof_k`,
/// brute-force neighbour search and no stored hoods.
#[derive(Clone)]
pub struct FitBuilder {
    params: HicsParams,
    norm: NormKind,
    scorer: ScorerSpec,
    index: IndexKind,
    precompute: bool,
    observer: Arc<dyn FitObserver>,
}

impl std::fmt::Debug for FitBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitBuilder")
            .field("params", &self.params)
            .field("norm", &self.norm)
            .field("scorer", &self.scorer)
            .field("index", &self.index)
            .field("precompute", &self.precompute)
            .finish_non_exhaustive()
    }
}

impl FitBuilder {
    /// Starts a fit configuration from pipeline parameters. A `lof_k` of 0
    /// is promoted to the paper default of 10, like [`Hics::new`].
    pub fn new(mut params: HicsParams) -> Self {
        if params.lof_k == 0 {
            params.lof_k = 10;
        }
        Self {
            params,
            norm: NormKind::None,
            scorer: ScorerSpec {
                kind: ScorerKind::Lof,
                k: u32::try_from(params.lof_k).expect("lof_k exceeds u32"),
            },
            index: IndexKind::Brute,
            precompute: false,
            observer: Arc::new(NoopObserver),
        }
    }

    /// The normalisation applied to the data before the search (and stored
    /// in the artifact so query points go through the same transform).
    pub fn normalize(mut self, norm: NormKind) -> Self {
        self.norm = norm;
        self
    }

    /// The density scorer packaged in the artifact.
    pub fn scorer(mut self, scorer: ScorerSpec) -> Self {
        self.scorer = scorer;
        self
    }

    /// The neighbour-search backend packaged in the artifact
    /// ([`IndexKind::VpTree`] prebuilds and stores per-subspace trees).
    pub fn index(mut self, index: IndexKind) -> Self {
        self.index = index;
        self
    }

    /// Whether the fit also computes every subspace's neighbourhood state
    /// — k-distances, LOF densities, the non-finite clamp — and stores it
    /// as the artifact's hoods section (format version 4). That moves the
    /// all-points kNN pass from every model open — notably
    /// `/admin/reload` of a sharded ensemble — to fit time, where the
    /// trees are still in memory.
    ///
    /// Off by default in the library, so a default builder writes the
    /// version-1/2 bytes it always did; `hics fit` turns it on (its
    /// `--no-precompute` turns it off).
    pub fn precompute(mut self, precompute: bool) -> Self {
        self.precompute = precompute;
        self
    }

    /// Installs a progress observer: it sees phase starts/finishes, every
    /// contrast evaluation (from worker threads) and per-shard completions.
    /// Defaults to [`NoopObserver`]; results are identical either way.
    pub fn observe(mut self, observer: Arc<dyn FitObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// The effective pipeline parameters.
    pub fn params(&self) -> &HicsParams {
        &self.params
    }

    /// Runs the subspace search on the (normalised) data and packages the
    /// result — columns, rank index, subspaces, scorer config and optional
    /// prebuilt index and hoods — into an in-memory [`HicsModel`], for
    /// library callers and tests. It streams the artifact into memory
    /// through the very stages [`FitBuilder::fit_source_to`] and
    /// [`FitBuilder::fit_sharded_to`] stream to their files, and decodes it,
    /// so `self.fit(..).to_bytes()` is exactly what they write.
    ///
    /// The stored columns are the *normalised* ones, so a query engine
    /// built from the model scores in-sample points bit-for-bit like
    /// [`Hics::run`] on the normalised dataset.
    ///
    /// # Panics
    /// Panics if the data holds fewer than two objects (no servable model
    /// exists for it).
    pub fn fit(&self, data: &Dataset) -> HicsModel {
        let (trained, norm_params) = apply_normalization(data, self.norm);
        let view = ColumnsView::from_dataset(&trained);
        let model = check_object_count(view.n()).and_then(|()| {
            let sink = Cursor::new(Vec::new());
            let streamed =
                self.stream_fit(&view, self.norm, &norm_params, sink, Path::new("memory"))?;
            let bytes = self.save_slice(streamed.hoods_writes, || streamed.writer.finish())?;
            HicsModel::from_bytes(bytes.get_ref())
        });
        release_free_heap();
        model.unwrap_or_else(|e| panic!("{e}"))
    }

    /// The `"search"` phase: the subspace search over `view`, returning
    /// the artifact subspaces and the search's rank index.
    fn search(&self, view: &ColumnsView<'_>) -> (Vec<ModelSubspace>, RankIndex) {
        self.observer.phase_started("search");
        let start = Instant::now();
        let (report, rank) =
            SubspaceSearch::new(self.params.search).run_view_observed(view, &*self.observer);
        self.observer
            .phase_finished("search", start.elapsed().as_nanos() as u64);
        (to_model_subspaces(&report.result), rank)
    }

    /// The `"index"` phase: one VP-tree per subspace (brute indexes, and
    /// no phase, without the VP-tree backend). The workers claim one
    /// subspace at a time and build into arrays allocated here, on the
    /// calling thread, sized by [`VpTree::shape`]: the trees outlive the
    /// phase, and built in a worker's own arena they would leave it grown
    /// after the fit. Trees are a deterministic function of their points,
    /// so building them in parallel never changes a byte.
    fn build_index(
        &self,
        view: &ColumnsView<'_>,
        subspaces: &[ModelSubspace],
    ) -> Vec<SubspaceIndex> {
        if self.index == IndexKind::Brute {
            return vec![SubspaceIndex::Brute; subspaces.len()];
        }
        self.observer.phase_started("index");
        let start = Instant::now();
        let shape = VpTree::shape(view.n());
        let arrays: Vec<Mutex<VpTreeData>> = subspaces
            .iter()
            .map(|_| Mutex::new(VpTreeData::with_shape(shape)))
            .collect();
        let indexes = par_map(subspaces.len(), self.params.search.max_threads, |s| {
            let sub = SubspaceView::from_columns_view(view, &subspaces[s].dims);
            let data = std::mem::take(&mut *arrays[s].lock().expect("claimed once"));
            SubspaceIndex::VpTree(VpTree::build_into(&sub, data))
        });
        self.observer
            .phase_finished("index", start.elapsed().as_nanos() as u64);
        indexes
    }

    /// One `"save"` slice: `write`, reported with `carried` nanoseconds
    /// of earlier writes that had no phase of their own.
    fn save_slice<T>(&self, carried: u64, write: impl FnOnce() -> T) -> T {
        self.observer.phase_started("save");
        let start = Instant::now();
        let out = write();
        self.observer
            .phase_finished("save", carried + start.elapsed().as_nanos() as u64);
        out
    }

    /// The one fit: the search, then the artifact streamed into `sink` in
    /// file order as each piece is computed. The head (columns, order
    /// permutations, subspaces) goes out as soon as the search ends, and
    /// the search's rank index is dropped; the trees follow the index
    /// phase; each subspace's hoods are written as soon as
    /// [`subspace_hoods`] returns them, and dropped with the subspace's
    /// tree. The hoods run subspace after subspace, each on every worker,
    /// from the trees and the same borrowed column view the trees were
    /// built from (the engine's owned layout gives bit-identical
    /// distances), so only one subspace's neighbourhoods are ever in
    /// flight.
    ///
    /// Reports `"search"`, a `"save"` for the head, `"index"`, a `"save"`
    /// for the trees and `"precompute"`, whose nanoseconds exclude the
    /// hoods writes: those are left in [`Streamed::hoods_writes`] for the
    /// caller's last `"save"`, around [`ModelWriter::finish`].
    fn stream_fit<W: Write + Seek>(
        &self,
        view: &ColumnsView<'_>,
        norm_kind: NormKind,
        norm: &[NormParam],
        sink: W,
        dest: &Path,
    ) -> Result<Streamed<W>, HicsError> {
        let (subspaces, rank) = self.search(view);
        let trees = (self.index == IndexKind::VpTree)
            .then(|| vec![VpTree::shape(view.n()); subspaces.len()]);
        let head = ModelHead {
            view,
            norm_kind,
            norm,
            subspaces: &subspaces,
            scorer: self.scorer,
            aggregation: self.aggregation_kind(),
            order: &rank,
            trees: trees.as_deref(),
            hoods: self.precompute,
        };
        let summary = FitSummary {
            n: view.n(),
            d: view.d(),
            subspaces: subspaces.len(),
            version: head.version(),
        };
        let mut writer = self.save_slice(0, || ModelWriter::begin(sink, dest, &head))?;
        drop(rank);
        let indexes = self.build_index(view, &subspaces);
        if trees.is_some() {
            self.save_slice(0, || {
                indexes.iter().try_for_each(|index| match index {
                    SubspaceIndex::VpTree(tree) => writer.put_tree(&tree.as_data().view()),
                    SubspaceIndex::Brute => unreachable!("the VP-tree backend builds trees"),
                })
            })?;
        }
        let (mut precompute_nanos, mut hoods_writes) = (0, 0);
        if self.precompute {
            self.observer.phase_started("precompute");
            let threads = self.params.search.max_threads.max(1);
            for (s, index) in subspaces.iter().zip(indexes) {
                let start = Instant::now();
                let sub = SubspaceView::from_columns_view(view, &s.dims);
                let hoods = subspace_hoods(&sub, &index, self.scorer, threads);
                let computed = Instant::now();
                writer.put_hoods(&hoods.view())?;
                precompute_nanos += (computed - start).as_nanos() as u64;
                hoods_writes += computed.elapsed().as_nanos() as u64;
            }
            self.observer.phase_finished("precompute", precompute_nanos);
        }
        Ok(Streamed {
            writer,
            summary,
            precompute_nanos,
            hoods_writes,
        })
    }

    /// The artifact aggregation for the pipeline's configuration.
    fn aggregation_kind(&self) -> AggregationKind {
        match self.params.aggregation {
            Aggregation::Average => AggregationKind::Average,
            Aggregation::Max => AggregationKind::Max,
        }
    }

    /// Rejects builder configurations a source-backed fit cannot honour:
    /// sources arrive pre-normalised (at import time), so a normalisation
    /// request here would silently double-transform.
    fn check_source_fit(&self) -> Result<(), HicsError> {
        if self.norm != NormKind::None {
            return Err(HicsError::InvalidInput(
                "source-backed fits read pre-normalised columns; normalise at import time \
                 (`hics import --normalize ...`), not at fit time"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The one fit-to-file writer: [`FitBuilder::stream_fit`] into a temp
    /// file beside `out` with `norm` stamped in as the artifact's
    /// transform, renamed into place once complete (a failed or panicking
    /// fit leaves neither `out` changed nor a temp file). The last
    /// `"save"` covers the hoods writes, the checksum patch, the sync, the
    /// rename and handing the fit's freed heap back to the system. Returns
    /// the summary and the precompute's pure compute nanoseconds.
    fn write_fit(
        &self,
        view: &ColumnsView<'_>,
        norm_kind: NormKind,
        norm: &[NormParam],
        out: &Path,
    ) -> Result<(FitSummary, u64), HicsError> {
        // The artifact's own limits, checked before any phase runs (the
        // kNN pass cannot run on a single object).
        check_object_count(view.n())?;
        let mut closing = (Instant::now(), 0);
        let fitted = write_atomic_with(out, |file, tmp| {
            let streamed = self.stream_fit(view, norm_kind, norm, BufWriter::new(file), tmp)?;
            self.observer.phase_started("save");
            closing = (Instant::now(), streamed.hoods_writes);
            streamed.writer.finish()?;
            Ok((streamed.summary, streamed.precompute_nanos))
        });
        // Whatever the fit freed goes back to the system before the last
        // save is reported, so its memory line shows what the fit retains.
        release_free_heap();
        let fitted = fitted?;
        let (start, hoods_writes) = closing;
        self.observer
            .phase_finished("save", hoods_writes + start.elapsed().as_nanos() as u64);
        Ok(fitted)
    }

    /// Fits a model **directly from a column source** and streams the
    /// artifact to `out`. For an mmap-backed dataset store the training
    /// matrix is read zero-copy out of the map and is never materialised on
    /// the heap (the search's rank index and samplers, then the trees and
    /// one subspace's neighbourhoods at a time, are its O(N) allocations).
    /// The artifact is byte-identical to
    /// `self.fit(&materialised).to_bytes()`. The phases arrive as
    /// [`FitObserver::phase_finished`] lists them.
    ///
    /// The source's stored normalisation is stamped into the artifact;
    /// normalise before the fit (at import time for a store), not on the
    /// builder.
    pub fn fit_source_to<S: DatasetSource + ?Sized>(
        &self,
        source: &S,
        out: &Path,
    ) -> Result<FitSummary, HicsError> {
        self.check_source_fit()?;
        let view = ColumnsView::from_source(source);
        let norm = source.norm_params();
        Ok(self.write_fit(&view, source.norm_kind(), &norm, out)?.0)
    }

    /// Sharded fit: deterministically partitions the source's rows into
    /// `spec.shards` shards and fits each shard **independently through the
    /// same writer as [`FitBuilder::fit_source_to`]** (same search
    /// parameters and seed, the source's transform stamped in). It writes
    /// one artifact per shard next to `out` and the sharded manifest
    /// (version-3 envelope) at `out` itself. `hics score`/`hics serve` on
    /// the manifest score queries against every shard and combine with
    /// `spec.aggregation`.
    ///
    /// Every shard reports the phases of [`FitBuilder::fit_source_to`]
    /// (`"search"`, `"index"`, `"precompute"` and the `"save"` slices)
    /// through [`FitObserver::phase_finished`], then one
    /// [`FitObserver::shard_phase`] `"fit"`: the shard's wall time minus
    /// its precompute's compute time, not counting the row gather.
    ///
    /// Shards fit `spec.parallel` at a time (0 = one worker per shard, up
    /// to the thread budget); peak memory is the largest `parallel`
    /// concurrent shard matrices, which is how a dataset bigger than RAM
    /// gets fitted. With `shards == 1` the single artifact is bit-for-bit
    /// the unsharded [`FitBuilder::fit`] output.
    pub fn fit_sharded_to<S: DatasetSource + ?Sized>(
        &self,
        source: &S,
        spec: &ShardFitSpec,
        out: &Path,
    ) -> Result<ShardManifest, HicsError> {
        self.check_source_fit()?;
        if spec.shards == 0 {
            return Err(HicsError::InvalidInput("need at least one shard".into()));
        }
        let view = ColumnsView::from_source(source);
        let n = view.n() as u64;
        let assignment = spec.partition.assign(n, spec.shards);
        for (k, rows) in assignment.iter().enumerate() {
            if rows.len() < 2 {
                return Err(HicsError::InvalidInput(format!(
                    "shard {k} would hold {} rows; every shard needs at least 2 \
                     (reduce --shards or use --shard-partition contiguous)",
                    rows.len()
                )));
            }
            if u32::try_from(rows.len()).is_err() {
                return Err(HicsError::InvalidInput(format!(
                    "shard {k} would hold {} rows, over the u32 per-shard artifact cap \
                     (increase --shards)",
                    rows.len()
                )));
            }
        }
        let norm_kind = source.norm_kind();
        let norm = source.norm_params();
        let threads = self.params.search.max_threads.max(1);
        let parallel = if spec.parallel == 0 {
            spec.shards.min(threads)
        } else {
            spec.parallel.min(spec.shards)
        };
        // Each in-flight shard gets an equal slice of the thread budget
        // (search results are thread-count independent, so this only
        // affects wall-clock, never bits).
        let inner_threads = (threads / parallel).max(1);
        let files: Vec<String> = (0..spec.shards).map(|k| shard_file_name(out, k)).collect();
        let dir = out.parent().unwrap_or_else(|| Path::new("")).to_path_buf();
        let results: Vec<Result<ShardEntry, HicsError>> = par_map(
            spec.shards,
            parallel,
            |k| -> Result<ShardEntry, HicsError> {
                let rows = &assignment[k];
                let shard_data = gather_rows(&view, rows);
                let mut params = self.params;
                params.search.max_threads = inner_threads;
                let builder = FitBuilder {
                    params,
                    ..self.clone()
                };
                let fit_start = Instant::now();
                let (_, precompute_nanos) = builder.write_fit(
                    &ColumnsView::from_dataset(&shard_data),
                    norm_kind,
                    &norm,
                    &dir.join(&files[k]),
                )?;
                // The shard's "fit" covers search, index and every save
                // slice; its hoods' compute is the "precompute" phase.
                let fit_nanos = fit_start.elapsed().as_nanos() as u64;
                self.observer
                    .shard_phase(k, "fit", fit_nanos.saturating_sub(precompute_nanos));
                Ok(ShardEntry {
                    file: files[k].clone(),
                    n: rows.len() as u64,
                })
            },
        );
        release_free_heap();
        let mut shards = Vec::with_capacity(spec.shards);
        for r in results {
            shards.push(r?);
        }
        let manifest = ShardManifest {
            total_n: n,
            d: view.d(),
            aggregation: spec.aggregation,
            partition: spec.partition,
            shards,
        };
        manifest.save(out)?;
        Ok(manifest)
    }
}

/// Configuration of a sharded fit (see [`FitBuilder::fit_sharded_to`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardFitSpec {
    /// Number of shards `S`.
    pub shards: usize,
    /// The deterministic row partitioner.
    pub partition: PartitionKind,
    /// How per-shard scores combine at serve time.
    pub aggregation: ShardAggregation,
    /// Shards fitted concurrently (0 = auto: one worker per shard up to
    /// the thread budget). Lower it to bound peak memory — only `parallel`
    /// shard matrices are resident at once.
    pub parallel: usize,
}

impl Default for ShardFitSpec {
    fn default() -> Self {
        Self {
            shards: 1,
            partition: PartitionKind::Contiguous,
            aggregation: ShardAggregation::Mean,
            parallel: 0,
        }
    }
}

/// A fit streamed up to its last stage (see [`FitBuilder::stream_fit`]).
struct Streamed<W: Write + Seek> {
    /// The writer, with every tree and hoods entry written.
    writer: ModelWriter<W>,
    summary: FitSummary,
    /// The precompute's compute nanoseconds, without the hoods writes.
    precompute_nanos: u64,
    /// The hoods writes' nanoseconds, reported with the last `"save"`.
    hoods_writes: u64,
}

/// Summary of a completed source-backed fit.
#[derive(Debug, Clone, Copy)]
pub struct FitSummary {
    /// Rows fitted.
    pub n: usize,
    /// Attributes.
    pub d: usize,
    /// Subspaces selected by the search.
    pub subspaces: usize,
    /// Artifact format version written (1 brute, 2 with stored trees, 4
    /// with stored hoods).
    pub version: u32,
}

/// Converts search output into artifact subspaces.
fn to_model_subspaces(subspaces: &[ScoredSubspace]) -> Vec<ModelSubspace> {
    subspaces
        .iter()
        .map(|s| ModelSubspace {
            dims: s.subspace.to_vec(),
            contrast: s.contrast,
        })
        .collect()
}

/// Gathers the listed rows (ascending ids from the partitioner) out of a
/// column view into an owned per-shard dataset — the only materialisation a
/// sharded fit performs, `O(shard rows × d)` at a time.
fn gather_rows(view: &ColumnsView<'_>, rows: &[u64]) -> Dataset {
    let cols: Vec<Vec<f64>> = (0..view.d())
        .map(|j| {
            let col = view.col(j);
            rows.iter().map(|&i| col[i as usize]).collect()
        })
        .collect();
    Dataset::from_columns_named(cols, view.names().to_vec())
}

/// The shard artifact file name for shard `k` of the manifest at `out`:
/// `model.hics` → `model.shard3.hics` (sibling files, so the manifest can
/// reference them relatively).
fn shard_file_name(out: &Path, k: usize) -> String {
    let stem = out
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "model".into());
    match out.extension() {
        Some(ext) => format!("{stem}.shard{k}.{}", ext.to_string_lossy()),
        None => format!("{stem}.shard{k}"),
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone)]
pub struct HicsResult {
    /// The high-contrast subspaces used for ranking, best first.
    pub subspaces: Vec<ScoredSubspace>,
    /// Final aggregated outlier score per object (higher = more outlying).
    pub scores: Vec<f64>,
    /// Per-subspace score vectors (aligned with `subspaces`).
    pub per_subspace_scores: Vec<Vec<f64>>,
}

impl HicsResult {
    /// Object indices sorted by descending outlier score.
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.scores.len()).collect();
        idx.sort_by(|&a, &b| self.scores[b].total_cmp(&self.scores[a]).then(a.cmp(&b)));
        idx
    }

    /// The `k` most outlying objects.
    pub fn top_outliers(&self, k: usize) -> Vec<usize> {
        let mut r = self.ranking();
        r.truncate(k);
        r
    }
}

/// The HiCS pipeline.
#[derive(Debug, Clone, Default)]
pub struct Hics {
    params: HicsParams,
}

impl Hics {
    /// Creates the pipeline. A `lof_k` of 0 is promoted to the paper default
    /// of 10 (so `HicsParams::default()` is runnable).
    pub fn new(mut params: HicsParams) -> Self {
        if params.lof_k == 0 {
            params.lof_k = 10;
        }
        Self { params }
    }

    /// The effective parameters.
    pub fn params(&self) -> &HicsParams {
        &self.params
    }

    /// Runs subspace search + LOF ranking with the configured parameters.
    pub fn run(&self, data: &Dataset) -> HicsResult {
        let lof = Lof::with_k(self.params.lof_k);
        self.run_with_scorer(data, &lof)
    }

    /// Runs the pipeline with a custom outlier scorer — the decoupling seam:
    /// any density-based `score_S` plugs in here unchanged.
    pub fn run_with_scorer<S: SubspaceScorer>(&self, data: &Dataset, scorer: &S) -> HicsResult {
        let subspaces = SubspaceSearch::new(self.params.search).run(data);
        let dims: Vec<Vec<usize>> = subspaces.iter().map(|s| s.subspace.to_vec()).collect();
        let per_subspace_scores =
            score_subspaces(data, &dims, scorer, self.params.search.max_threads);
        let scores = aggregate_scores(&per_subspace_scores, self.params.aggregation);
        HicsResult {
            subspaces,
            scores,
            per_subspace_scores,
        }
    }

    /// Starts a [`FitBuilder`] over this pipeline's parameters — the v2
    /// fit entry point.
    pub fn fitter(&self) -> FitBuilder {
        FitBuilder::new(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::SyntheticConfig;
    use hics_outlier::index::VpTree;
    use hics_outlier::knn_score::KnnScorer;

    fn quick() -> HicsParams {
        let mut p = HicsParams::paper_defaults();
        p.search.m = 25;
        p.search.candidate_cutoff = 50;
        p.search.top_k = 15;
        p
    }

    #[test]
    fn pipeline_detects_planted_outliers() {
        let g = SyntheticConfig::new(500, 8).with_seed(21).generate();
        let result = Hics::new(quick()).run(&g.dataset);
        assert_eq!(result.scores.len(), 500);
        // Mean score of outliers should exceed mean score of inliers.
        let (mut so, mut ko, mut si, mut ki) = (0.0, 0usize, 0.0, 0usize);
        for (i, &s) in result.scores.iter().enumerate() {
            if g.labels[i] {
                so += s;
                ko += 1;
            } else {
                si += s;
                ki += 1;
            }
        }
        assert!(
            so / ko as f64 > si / ki as f64,
            "outlier mean {} <= inlier mean {}",
            so / ko as f64,
            si / ki as f64
        );
    }

    #[test]
    fn ranking_is_descending_and_complete() {
        let g = SyntheticConfig::new(200, 6).with_seed(22).generate();
        let result = Hics::new(quick()).run(&g.dataset);
        let ranking = result.ranking();
        assert_eq!(ranking.len(), 200);
        let mut seen = [false; 200];
        for &i in &ranking {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for w in ranking.windows(2) {
            assert!(result.scores[w[0]] >= result.scores[w[1]]);
        }
    }

    #[test]
    fn top_outliers_prefix_of_ranking() {
        let g = SyntheticConfig::new(200, 6).with_seed(23).generate();
        let result = Hics::new(quick()).run(&g.dataset);
        assert_eq!(result.top_outliers(5), result.ranking()[..5].to_vec());
    }

    #[test]
    fn custom_scorer_plugs_in() {
        let g = SyntheticConfig::new(200, 6).with_seed(24).generate();
        let hics = Hics::new(quick());
        let result = hics.run_with_scorer(&g.dataset, &KnnScorer::new(10));
        assert_eq!(result.scores.len(), 200);
        assert!(result.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn per_subspace_scores_align_with_subspaces() {
        let g = SyntheticConfig::new(150, 6).with_seed(25).generate();
        let result = Hics::new(quick()).run(&g.dataset);
        assert_eq!(result.per_subspace_scores.len(), result.subspaces.len());
        for v in &result.per_subspace_scores {
            assert_eq!(v.len(), 150);
        }
    }

    #[test]
    fn default_params_are_runnable() {
        let g = SyntheticConfig::new(120, 4).with_seed(26).generate();
        let mut p = HicsParams::default();
        p.search.m = 10;
        p.search.candidate_cutoff = 10;
        p.search.top_k = 5;
        let result = Hics::new(p).run(&g.dataset);
        assert_eq!(result.scores.len(), 120);
    }

    #[test]
    fn fit_packages_the_search_result() {
        let g = SyntheticConfig::new(200, 6).with_seed(28).generate();
        let hics = Hics::new(quick());
        let model = hics.fitter().fit(&g.dataset);
        // The model's subspaces are exactly the search result on this data.
        let searched = SubspaceSearch::new(quick().search).run(&g.dataset);
        assert_eq!(model.subspaces().len(), searched.len());
        for (m, s) in model.subspaces().iter().zip(&searched) {
            assert_eq!(m.dims, s.subspace.to_vec());
            assert_eq!(m.contrast, s.contrast);
        }
        assert_eq!(model.scorer().kind, ScorerKind::Lof);
        assert_eq!(model.scorer().k, 10);
        assert_eq!(model.dataset(), &g.dataset);
    }

    #[test]
    fn fit_normalized_stores_transformed_columns() {
        let g = SyntheticConfig::new(150, 5).with_seed(29).generate();
        let model = Hics::new(quick())
            .fitter()
            .normalize(NormKind::MinMax)
            .fit(&g.dataset);
        let mut reference = g.dataset.clone();
        reference.normalize_min_max();
        assert_eq!(model.dataset(), &reference);
        assert_eq!(model.norm_kind(), NormKind::MinMax);
        // Raw rows map onto the stored columns through the model transform.
        let t = model.transform_row(&g.dataset.row(7));
        assert_eq!(t, reference.row(7));
    }

    #[test]
    fn fit_with_vptree_index_packages_trees() {
        let g = SyntheticConfig::new(150, 5).with_seed(30).generate();
        let hics = Hics::new(quick());
        let plain = hics.fitter().fit(&g.dataset);
        let indexed = hics
            .fitter()
            .scorer(ScorerSpec {
                kind: ScorerKind::Lof,
                k: 10,
            })
            .index(IndexKind::VpTree)
            .fit(&g.dataset);
        // Same model content apart from the index section…
        assert!(plain.index().is_none());
        let trees = &indexed.index().expect("trees stored").trees;
        assert_eq!(trees.len(), indexed.subspaces().len());
        // …and the stored trees are exactly the deterministic rebuilds.
        for (s, sub) in indexed.subspaces().iter().enumerate() {
            let view = SubspaceView::new(indexed.dataset(), &sub.dims);
            assert_eq!(&trees[s], VpTree::build(&view).as_data(), "subspace {s}");
        }
    }

    #[test]
    fn one_row_fit_is_rejected_before_the_search() {
        let dir = std::env::temp_dir().join(format!("hics-one-row-fit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("one.hicsstore");
        let data = Dataset::from_rows(&[vec![0.5, 0.25, 0.75]]);
        hics_store::write_dataset_store(&store_path, &data, 61, NormKind::None).expect("store");
        let store = hics_store::DatasetStore::open_mmap(&store_path).expect("open store");
        let out = dir.join("one.hics");
        for (index, precompute) in [
            (IndexKind::VpTree, true),
            (IndexKind::Brute, true),
            (IndexKind::VpTree, false),
        ] {
            let builder = Hics::new(quick())
                .fitter()
                .index(index)
                .precompute(precompute);
            match builder.fit_source_to(&store, &out) {
                Err(HicsError::InvalidInput(msg)) => assert_eq!(
                    msg,
                    "a servable model needs at least two reference objects, got 1"
                ),
                other => panic!("{index:?}/{precompute}: expected InvalidInput, got {other:?}"),
            }
            let mut left: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            left.sort();
            assert_eq!(left, ["one.hicsstore"], "the failed fit left files behind");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
