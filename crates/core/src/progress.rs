//! Fit-pipeline progress observation.
//!
//! A long fit is opaque without it: the subspace search alone runs
//! thousands of Monte-Carlo contrast evaluations across Apriori levels, and
//! a sharded fit multiplies that by `S`. The [`FitObserver`] seam lets the
//! embedder watch the pipeline — per-level search progress, per-phase
//! timings, per-shard completion — without `hics-core` knowing anything
//! about terminals or metric registries. Two implementations ship here:
//! [`NoopObserver`] (the default — zero cost) and [`FitMetrics`], which
//! feeds an [`hics_obs::Registry`] so a serving process can expose fit
//! counters on `/metrics`.
//!
//! Observers must tolerate concurrent calls: level evaluations fan out
//! across threads, and a sharded fit drives several shard pipelines at
//! once.

use hics_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Sink for fit-pipeline progress events. All methods default to no-ops,
/// so implementations override only what they care about.
pub trait FitObserver: Send + Sync {
    /// A named pipeline phase (`"search"`, `"index"`, `"save"`,
    /// `"precompute"`) began; see [`FitObserver::phase_finished`] for the
    /// order.
    fn phase_started(&self, phase: &str) {
        let _ = phase;
    }

    /// A named pipeline phase finished after `nanos` wall nanoseconds.
    /// Every fit reports the same phases, in this order: `"search"`; a
    /// `"save"` of the artifact's head (columns, order permutations,
    /// subspaces); `"index"` and a `"save"` of the trees (VP-tree fits);
    /// `"precompute"` (with stored hoods); and a last `"save"`. The fit
    /// streams its artifact as each piece is computed, so `"save"` repeats:
    /// its time is the sum of its slices. Each subspace's hoods are written
    /// as soon as they are computed; `"precompute"` reports the compute
    /// alone, and the last `"save"` carries those writes plus the checksum
    /// patch, sync and rename. So the phases' sums add up to the fit's
    /// wall time without overlap. A sharded fit reports them once per
    /// shard.
    fn phase_finished(&self, phase: &str, nanos: u64) {
        let _ = (phase, nanos);
    }

    /// One Monte-Carlo contrast evaluation completed, drawing
    /// `slice_draws` subspace slices. Called from search worker threads.
    fn contrast_evaluated(&self, slice_draws: u64) {
        let _ = slice_draws;
    }

    /// An Apriori level finished: `evaluated` candidates scored, the top
    /// `retained` kept for the next join, in `nanos` wall nanoseconds.
    fn level_done(&self, level: usize, evaluated: usize, retained: usize, nanos: u64) {
        let _ = (level, evaluated, retained, nanos);
    }

    /// One shard of a sharded fit finished a named phase in `nanos` wall
    /// nanoseconds: `"fit"`, the shard's search, index and every save
    /// slice (its wall time minus the precompute's compute nanoseconds, so
    /// `fit − search − index` is the shard's save time and never
    /// negative). The shard's own phases — `"search"`, `"index"`,
    /// `"precompute"` and the `"save"` slices — also arrive through
    /// [`FitObserver::phase_finished`], before its `"fit"`.
    fn shard_phase(&self, shard: usize, phase: &str, nanos: u64) {
        let _ = (shard, phase, nanos);
    }
}

/// The default observer: ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl FitObserver for NoopObserver {}

/// Nanosecond histograms resolve up to ~18 minutes per phase/level with
/// `2^-5` relative error.
const NANOS_SUB_BITS: u32 = 5;
const NANOS_MAX: u64 = 1 << 40;
const NANOS_TO_SECONDS: f64 = 1e-9;

/// A [`FitObserver`] that counts into an [`hics_obs::Registry`] — the
/// bridge that puts fit-pipeline counters on a serving process's
/// `/metrics`.
#[derive(Debug)]
pub struct FitMetrics {
    registry: Arc<Registry>,
    contrast_evals: Arc<Counter>,
    slice_draws: Arc<Counter>,
    levels: Arc<Counter>,
    evaluated: Arc<Counter>,
    retained: Arc<Counter>,
    level_seconds: Arc<Histogram>,
}

impl FitMetrics {
    /// Registers the fit metric family into `registry` (idempotent — the
    /// series are shared on re-registration) and returns the observer.
    pub fn register(registry: &Arc<Registry>) -> Arc<Self> {
        Arc::new(Self {
            registry: Arc::clone(registry),
            contrast_evals: registry.counter(
                "hics_fit_contrast_evals_total",
                "Monte-Carlo contrast evaluations run by the subspace search.",
            ),
            slice_draws: registry.counter(
                "hics_fit_slice_draws_total",
                "Subspace slices drawn by the contrast estimator.",
            ),
            levels: registry.counter("hics_fit_levels_total", "Apriori search levels completed."),
            evaluated: registry.counter(
                "hics_fit_candidates_evaluated_total",
                "Candidate subspaces scored across all search levels.",
            ),
            retained: registry.counter(
                "hics_fit_candidates_retained_total",
                "Candidate subspaces retained past the adaptive cutoff.",
            ),
            level_seconds: registry.histogram(
                "hics_fit_level_seconds",
                "Wall time per Apriori search level.",
                NANOS_SUB_BITS,
                NANOS_MAX,
                NANOS_TO_SECONDS,
            ),
        })
    }
}

impl FitObserver for FitMetrics {
    fn phase_finished(&self, phase: &str, nanos: u64) {
        self.registry
            .histogram_with(
                "hics_fit_phase_seconds",
                "Wall time per fit-pipeline phase.",
                vec![("phase", phase.to_string())],
                NANOS_SUB_BITS,
                NANOS_MAX,
                NANOS_TO_SECONDS,
            )
            .record(nanos);
    }

    fn contrast_evaluated(&self, slice_draws: u64) {
        self.contrast_evals.inc();
        self.slice_draws.add(slice_draws);
    }

    fn level_done(&self, _level: usize, evaluated: usize, retained: usize, nanos: u64) {
        self.levels.inc();
        self.evaluated.add(evaluated as u64);
        self.retained.add(retained as u64);
        self.level_seconds.record(nanos);
    }

    fn shard_phase(&self, shard: usize, phase: &str, nanos: u64) {
        self.registry
            .histogram_with(
                "hics_fit_shard_phase_seconds",
                "Wall time per shard fit phase.",
                vec![("shard", shard.to_string()), ("phase", phase.to_string())],
                NANOS_SUB_BITS,
                NANOS_MAX,
                NANOS_TO_SECONDS,
            )
            .record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_metrics_accumulate_into_the_registry() {
        let registry = Arc::new(Registry::new());
        let m = FitMetrics::register(&registry);
        m.phase_started("search");
        m.contrast_evaluated(50);
        m.contrast_evaluated(50);
        m.level_done(2, 10, 4, 1_000_000);
        m.phase_finished("search", 2_000_000);
        m.shard_phase(1, "fit", 3_000_000);
        let text = registry.render_prometheus();
        assert!(text.contains("hics_fit_contrast_evals_total 2"), "{text}");
        assert!(text.contains("hics_fit_slice_draws_total 100"), "{text}");
        assert!(text.contains("hics_fit_levels_total 1"), "{text}");
        assert!(
            text.contains("hics_fit_candidates_evaluated_total 10"),
            "{text}"
        );
        assert!(
            text.contains("hics_fit_candidates_retained_total 4"),
            "{text}"
        );
        assert!(
            text.contains("hics_fit_phase_seconds_count{phase=\"search\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hics_fit_shard_phase_seconds_count{shard=\"1\",phase=\"fit\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn reregistration_shares_series() {
        let registry = Arc::new(Registry::new());
        let a = FitMetrics::register(&registry);
        let b = FitMetrics::register(&registry);
        a.contrast_evaluated(10);
        b.contrast_evaluated(10);
        let text = registry.render_prometheus();
        assert!(text.contains("hics_fit_contrast_evals_total 2"), "{text}");
    }
}
