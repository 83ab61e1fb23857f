//! The fit path (`hics-store` import → `hics-core` search →
//! `hics-outlier` index → `hics-data` save → `hics-outlier` hoods
//! precompute) and the `fit` workload.

use crate::data::{self, Fnv};
use crate::load::Mark;
use crate::trace::{span, Trace};
use crate::{median, Args, Outcome, Window};
use hics_core::{FitBuilder, FitObserver, HicsParams, ShardFitSpec};
use hics_data::manifest::{PartitionKind, ShardAggregation};
use hics_data::model::{ScorerKind, ScorerSpec};
use hics_outlier::{Engine, IndexKind};
use hics_store::DatasetStore;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Size and search parameters of one fit.
#[derive(Debug, Clone, Copy)]
pub struct FitSpec {
    pub n: usize,
    pub d: usize,
    pub cutoff: usize,
    pub top_k: usize,
    pub max_dim: Option<usize>,
    /// Dimensionality of every planted block.
    pub block_dims: usize,
    /// 0 = one artifact; otherwise a contiguous, mean-folded sharded fit.
    pub shards: usize,
}

/// The `fit` workload's model: the paper's search (Welch, M = 50,
/// α = 0.1) with a reduced cutoff, LOF k = 10, VP-tree, precompute on.
/// Eight planted 2-d blocks and subspaces of at most 3 dims make the
/// search run two Apriori levels and return the same mix on every seed
/// (8 planted pairs, 12 triples around them). With wider blocks or no
/// cap, how many 3-d (or up to 8-d) subspaces it returns, and so what a
/// fit and a query cost, swings with the seed.
const FIT: FitSpec = FitSpec {
    n: 20_000,
    d: 16,
    cutoff: 100,
    top_k: 20,
    max_dim: Some(3),
    block_dims: 2,
    shards: 0,
};

/// Query points scored by the `fit` workload's probe of each fitted model.
const FIT_QUERIES: usize = 1024;
/// Passes over the query set after each fit of the window.
const PROBE_PASSES_PER_FIT: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const FIT_SETUPS: usize = 9;

/// Wall time of one fit and, when observed, its phase split. Shards of a
/// sharded fit run concurrently, so its phases are per-shard means.
#[derive(Debug, Default, Clone, Copy)]
pub struct FitTimes {
    pub wall_s: f64,
    pub search_s: f64,
    pub index_s: f64,
    pub save_s: f64,
    pub precompute_s: f64,
    pub contrast_evals: u64,
    pub slice_draws: u64,
}

impl FitTimes {
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.search_s - self.index_s - self.save_s - self.precompute_s
    }
}

/// A `FitObserver` that clocks phases and counts contrast evaluations, and
/// records each finished phase as a span under the fit's root span.
struct FitClock {
    trace: Arc<Trace>,
    shards: usize,
    root: usize,
    request: u64,
    phases: Mutex<Vec<(&'static str, u64)>>,
    evals: AtomicU64,
    draws: AtomicU64,
}

fn layer_of(phase: &str) -> &'static str {
    match phase {
        "search" => "core.search",
        "index" => "outlier.index",
        "save" => "data.save",
        "precompute" => "outlier.precompute",
        "fit" => "shard.fit",
        _ => "fit.other",
    }
}

impl FitClock {
    fn finished(&self, phase: &str, nanos: u64) {
        let name = layer_of(phase);
        self.phases.lock().expect("phase log").push((name, nanos));
        let end = Instant::now();
        let start = end - Duration::from_nanos(nanos);
        self.trace
            .record(name, start, end, Some(self.root), self.request);
    }

    fn times(&self, wall_s: f64) -> FitTimes {
        let phases = self.phases.lock().expect("phase log");
        let per_shard = 1e-9 / self.shards.max(1) as f64;
        let sum = |name: &str| -> f64 {
            phases
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, ns)| *ns as f64 * per_shard)
                .sum()
        };
        let (search_s, index_s) = (sum("core.search"), sum("outlier.index"));
        // A sharded fit reports save only inside each shard's "fit" phase.
        let shard_fit = sum("shard.fit");
        let save_s = if shard_fit > 0.0 {
            shard_fit - search_s - index_s
        } else {
            sum("data.save")
        };
        FitTimes {
            wall_s,
            search_s,
            index_s,
            save_s,
            precompute_s: sum("outlier.precompute"),
            contrast_evals: self.evals.load(Ordering::Relaxed),
            slice_draws: self.draws.load(Ordering::Relaxed),
        }
    }
}

impl FitObserver for FitClock {
    fn phase_finished(&self, phase: &str, nanos: u64) {
        self.finished(phase, nanos);
    }

    fn contrast_evaluated(&self, slice_draws: u64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.draws.fetch_add(slice_draws, Ordering::Relaxed);
    }

    fn shard_phase(&self, _shard: usize, phase: &str, nanos: u64) {
        self.finished(phase, nanos);
    }
}

/// Fits `store` into `out` (an artifact, or a sharded manifest with its
/// shard artifacts beside it). With a trace the fit is observed and
/// becomes a root span with its phases as children.
pub fn fit(
    spec: &FitSpec,
    seed: u64,
    store: &DatasetStore,
    out: &Path,
    trace: Option<&Arc<Trace>>,
    request: u64,
) -> FitTimes {
    let mut params = HicsParams::paper_defaults();
    params.search.candidate_cutoff = spec.cutoff;
    params.search.top_k = spec.top_k;
    params.search.max_dim = spec.max_dim;
    params.search.seed = seed;
    let mut builder = FitBuilder::new(params)
        .scorer(ScorerSpec {
            kind: ScorerKind::Lof,
            k: 10,
        })
        .index(IndexKind::VpTree)
        .precompute(true);
    let clock = trace.map(|t| {
        Arc::new(FitClock {
            trace: Arc::clone(t),
            shards: spec.shards,
            root: t.open("fit", None, request),
            request,
            phases: Mutex::new(Vec::new()),
            evals: AtomicU64::new(0),
            draws: AtomicU64::new(0),
        })
    });
    if let Some(c) = &clock {
        builder = builder.observe(Arc::clone(c) as Arc<dyn FitObserver>);
    }
    let t = Instant::now();
    if spec.shards == 0 {
        builder.fit_source_to(store, out).expect("fit");
    } else {
        let shard_spec = ShardFitSpec {
            shards: spec.shards,
            partition: PartitionKind::Contiguous,
            aggregation: ShardAggregation::Mean,
            parallel: 0,
        };
        builder
            .fit_sharded_to(store, &shard_spec, out)
            .expect("sharded fit");
    }
    let wall_s = t.elapsed().as_secs_f64();
    match clock {
        Some(c) => {
            c.trace.close(c.root);
            c.times(wall_s)
        }
        None => FitTimes {
            wall_s,
            ..FitTimes::default()
        },
    }
}

/// Per-phase means over several fits, so the phases add up to the mean
/// wall time exactly.
pub fn mean_times(fits: &[FitTimes]) -> FitTimes {
    let n = fits.len().max(1) as f64;
    let mean = |f: fn(&FitTimes) -> f64| fits.iter().map(f).sum::<f64>() / n;
    FitTimes {
        wall_s: mean(|f| f.wall_s),
        search_s: mean(|f| f.search_s),
        index_s: mean(|f| f.index_s),
        save_s: mean(|f| f.save_s),
        precompute_s: mean(|f| f.precompute_s),
        contrast_evals: (mean(|f| f.contrast_evals as f64)).round() as u64,
        slice_draws: (mean(|f| f.slice_draws as f64)).round() as u64,
    }
}

/// The fit-phase per-layer metrics.
pub fn layer_metrics(t: &FitTimes, import_s: f64, open_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("store.import_s", import_s),
        ("core.search_s", t.search_s),
        ("core.contrast_evals", t.contrast_evals as f64),
        ("core.slice_draws", t.slice_draws as f64),
        (
            "core.contrast_eval_us",
            crate::prom::ratio(t.search_s * 1e6, t.contrast_evals as f64),
        ),
        ("outlier.index_s", t.index_s),
        ("data.save_s", t.save_s),
        ("outlier.precompute_s", t.precompute_s),
        ("fit.unattributed_s", t.unattributed_s()),
        ("outlier.open_s", open_s),
    ]
}

/// Median milliseconds of `Engine::score_batch` (one thread) over
/// `batch`-row slices of the query set: the scoring layer alone, in
/// process.
pub fn score_batch_ms(engine: &Engine, queries: &[Vec<f64>], batch: usize, trace: &Trace) -> f64 {
    let mut ms: Vec<f64> = queries
        .chunks(batch)
        .enumerate()
        .map(|(i, rows)| {
            let rows = rows.to_vec();
            let t = Instant::now();
            let r = span(Some(trace), "outlier.score_batch", None, i as u64, || {
                engine.score_batch(&rows, 1)
            });
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            assert!(r.iter().all(Result::is_ok), "in-process scoring failed");
            elapsed
        })
        .collect();
    median(&mut ms)
}

/// The `fit` workload: set up (generate, import, map) several times, then
/// fit repeatedly for the window, probing each fitted model with
/// single-point in-process queries.
pub fn run(args: &Args, work: &Path) -> Outcome {
    let spec = FIT;
    let trace = args.trace.then(|| Arc::new(Trace::new()));
    let mut setup_s = Vec::new();
    let mut import_s = Vec::new();
    let mut state = None;
    for i in 0..FIT_SETUPS {
        drop(state.take());
        let path = work.join(format!("data{i}.hicsstore"));
        let t = Instant::now();
        let inputs = data::generate(spec.n, spec.d, spec.block_dims, args.seed, FIT_QUERIES);
        let ti = Instant::now();
        let store = data::import(&inputs.data, &path, trace.as_deref());
        import_s.push(ti.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inputs, store));
    }
    let (inputs, store) = state.expect("at least one set-up");
    let mut hash = Fnv::default();
    hash.rows(&inputs.queries);
    for j in 0..spec.d {
        for i in 0..spec.n {
            hash.bytes(&inputs.data.dataset.value(i, j).to_bits().to_le_bytes());
        }
    }
    println!("input_hash {:016x}", hash.finish());

    // Each fit of the untraced window is followed by probe passes over
    // the model it wrote, so the probe samples the machine across the
    // whole window rather than in one burst at its end.
    let model = work.join("model.hics");
    let mut fit_windows = Vec::new();
    let windows: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut observed = Vec::new();
    let mut attempted = 0u64;
    let mut open_s = Vec::new();
    let mut lat_ns = Vec::new();
    let mut passes = Vec::new();
    let mut first_pass: Vec<f64> = Vec::with_capacity(inputs.queries.len());
    let mut mismatches = 0u64;
    let mut engine = None;
    let t0 = Instant::now();
    let mark = |lat: &[u64]| Mark {
        at_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::procfs::thread_cpu_seconds(),
        points: lat.len() as u64,
        answered: lat.len(),
    };
    for &traced in windows {
        let tr = if traced { trace.as_ref() } else { None };
        let start = Instant::now();
        let mut walls = Vec::new();
        while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let times = fit(&spec, args.seed, &store, &model, tr, walls.len() as u64);
            walls.push(times.wall_s);
            attempted += 1;
            if traced {
                observed.push(times);
                continue;
            }
            let t = Instant::now();
            let e = span(trace.as_deref(), "outlier.open", None, 0, || {
                Engine::open_mmap(&model, None, 1).expect("open fitted model")
            });
            open_s.push(t.elapsed().as_secs_f64());
            for _ in 0..PROBE_PASSES_PER_FIT {
                let begin = mark(&lat_ns);
                for (i, q) in inputs.queries.iter().enumerate() {
                    let t = Instant::now();
                    let s = e.score(q).expect("in-process score");
                    lat_ns.push(t.elapsed().as_nanos() as u64);
                    // Fits are deterministic, so every pass over every
                    // refitted model must repeat the first pass bit for bit.
                    match first_pass.get(i) {
                        None => first_pass.push(s),
                        Some(f) if f.to_bits() != s.to_bits() => mismatches += 1,
                        Some(_) => {}
                    }
                }
                passes.push((begin, mark(&lat_ns)));
            }
            engine = Some(e);
        }
        fit_windows.push(median(&mut walls));
    }
    let engine = engine.expect("the untraced window fits at least once");
    attempted += lat_ns.len() as u64;
    let window = Window::new(&lat_ns, &passes, crate::procfs::threads());
    let auc = hics_eval::roc_auc(&first_pass, &inputs.labels) * 100.0;
    let correct = mismatches == 0 && first_pass.iter().all(|s| s.is_finite());

    let mut out = Outcome::new(correct, attempted, mismatches);
    out.notes.extend(window.notes());
    out.e2e = window.e2e(median(&mut setup_s), fit_windows[0], auc);
    if let Some(tr) = &trace {
        out.traced_e2e = Some(window.e2e(median(&mut setup_s), fit_windows[1], auc));
        let times = mean_times(&observed);
        out.layers = layer_metrics(&times, median(&mut import_s), median(&mut open_s));
        out.layers.push((
            "outlier.score_ms",
            score_batch_ms(&engine, &inputs.queries, 1, tr),
        ));
        out.layers.extend(window.query_layers());
        out.reconcile.push(format!(
            "fit_s (mean of {} traced fits) {:.4} = search {:.4} + index {:.4} + save {:.4} \
             + precompute {:.4} + unattributed {:.4}",
            observed.len(),
            times.wall_s,
            times.search_s,
            times.index_s,
            times.save_s,
            times.precompute_s,
            times.unattributed_s()
        ));
        out.trace = Some(Arc::clone(tr));
    }
    out
}
