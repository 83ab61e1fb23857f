//! Monte-Carlo subspace contrast (paper Definition 5 and Algorithm 1).
//!
//! `contrast(S) = (1/M) Σ_i deviation(p̂_{s_i}, p̂_{s_i|C_i})`: `M` random
//! subspace slices, each compared against the marginal distribution of the
//! slice's reference attribute with a two-sample statistical test.
//!
//! The marginal side of every test is precomputed once per dataset
//! ([`MarginalStats`]: moments for Welch, sorted values for the rank-aware
//! KS and Mann–Whitney walks, which follow the rank index's argsort
//! permutation). The `M` iterations run in batches of up to [`LANES`]: one
//! batch is that many bitset slice draws plus one **sort-free,
//! allocation-free** test pass over the selections. Welch advances the
//! moment chains of every slice of the batch together in one lockstep walk
//! over the set bits; KS and Mann–Whitney walk the precomputed marginal
//! order once per slice with `O(1)` mask probes. Batching changes no bit:
//! the draws, the per-slice arithmetic and the summation order are those of
//! one slice at a time.

use crate::slice::{RankWindows, SliceBatch, SliceSampler, SliceSizing, SliceView};
use crate::subspace::Subspace;
use hics_data::{ColumnsView, Dataset, RankIndex};
use hics_outlier::parallel::{available_threads, par_map};
use hics_stats::masked::{
    masked_ks_distance, masked_ks_test, masked_mann_whitney, masked_mean_variance_lanes,
    MaskedLane, LANES,
};
use hics_stats::moments::Moments;
use hics_stats::rank::argsort_into;
use hics_stats::two_sample::welch_t_test_from_moments;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::Mutex;

/// Precomputed marginal statistics of one attribute (the `p̂_s` side of
/// every deviation test).
#[derive(Debug, Clone)]
pub struct MarginalStats {
    /// Welford moments of the full column.
    pub moments: Moments,
    /// The column's values in ascending order, built only for the tests
    /// that walk them ([`DeviationTest::reads_sorted_values`]).
    sorted: Option<Vec<f64>>,
}

impl MarginalStats {
    /// Computes the marginal statistics of a column from its argsort
    /// permutation (the rank index's `order`; the sorted values are
    /// gathered through it, so no column is sorted twice).
    pub fn from_order(col: &[f64], order: &[u32]) -> Self {
        debug_assert_eq!(col.len(), order.len());
        Self {
            moments: Moments::from_slice(col),
            sorted: Some(order.iter().map(|&i| col[i as usize]).collect()),
        }
    }

    /// The moments alone — all Welch's test reads.
    pub fn moments_only(col: &[f64]) -> Self {
        Self {
            moments: Moments::from_slice(col),
            sorted: None,
        }
    }

    /// The column's values in ascending order.
    ///
    /// # Panics
    /// Panics on statistics built by [`MarginalStats::moments_only`].
    pub fn sorted_values(&self) -> &[f64] {
        self.sorted
            .as_deref()
            .expect("sorted values are built only for tests that read them")
    }
}

/// A deviation function comparing the marginal distribution of an attribute
/// to the conditional sample selected by a slice (paper Section III-E).
///
/// The conditional sample arrives as a borrowed [`SliceView`] — a bitset
/// over object ids plus the reference column and its sorted order — so
/// implementations can test without materialising, sorting, or allocating.
pub trait DeviationTest: Sync {
    /// Returns a deviation in `[0, 1]`; larger = stronger disagreement
    /// between marginal and conditional distribution.
    fn deviation(&self, marginal: &MarginalStats, slice: &SliceView<'_>) -> f64;

    /// The batch form: sets `out[i]` to the [`DeviationTest::deviation`] of
    /// slice `i` of `batch` against `marginals[ref_attr]`, for every slice
    /// with at least two members; the entries of smaller slices are left
    /// untouched. The default runs the one-slice test per slice.
    fn deviations(&self, marginals: &[MarginalStats], batch: &SliceBatch<'_>, out: &mut [f64]) {
        for (o, slice) in out.iter_mut().zip(batch.iter()) {
            if slice.len() >= 2 {
                *o = self.deviation(&marginals[slice.ref_attr], &slice);
            }
        }
    }

    /// Whether the test reads [`MarginalStats::sorted_values`]: the
    /// estimator builds a sorted copy of every column only when it does.
    fn reads_sorted_values(&self) -> bool {
        true
    }

    /// Test name for experiment output.
    fn name(&self) -> &'static str;
}

/// `HiCS_WT`: Welch's t-test; deviation is `1 − p` (paper Section III-E).
/// The conditional moments stream over the selection's set bits — for a
/// batch, over every slice's set bits in one lockstep lanes pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct WelchDeviation;

impl DeviationTest for WelchDeviation {
    fn deviation(&self, marginal: &MarginalStats, slice: &SliceView<'_>) -> f64 {
        let cond = masked_mean_variance_lanes(&[slice.lane()]);
        1.0 - welch_t_test_from_moments(&marginal.moments, &cond[0]).p_value
    }

    fn deviations(&self, marginals: &[MarginalStats], batch: &SliceBatch<'_>, out: &mut [f64]) {
        let mut lanes = [MaskedLane::EMPTY; LANES];
        for (lane, slice) in lanes.iter_mut().zip(batch.iter()) {
            *lane = slice.lane();
        }
        let cond = masked_mean_variance_lanes(&lanes[..batch.len()]);
        for ((o, slice), cond) in out.iter_mut().zip(batch.iter()).zip(&cond) {
            if slice.len() >= 2 {
                let marginal = &marginals[slice.ref_attr].moments;
                *o = 1.0 - welch_t_test_from_moments(marginal, cond).p_value;
            }
        }
    }

    fn reads_sorted_values(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "Welch-t"
    }
}

/// `HiCS_KS`: the raw two-sample Kolmogorov–Smirnov statistic
/// `sup |F_A − F_B|` (Eq. 11 — deliberately *not* a p-value), computed by a
/// rank walk over the precomputed marginal order instead of sorting the
/// conditional sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct KsDeviation;

impl DeviationTest for KsDeviation {
    fn deviation(&self, marginal: &MarginalStats, slice: &SliceView<'_>) -> f64 {
        masked_ks_distance(slice.order(), marginal.sorted_values(), slice.len(), |id| {
            slice.contains(id)
        })
    }

    fn name(&self) -> &'static str {
        "KS"
    }
}

/// Extension: KS converted to `1 − p` with the asymptotic Kolmogorov
/// distribution — normalised like the Welch variant, unlike Eq. 11.
#[derive(Debug, Clone, Copy, Default)]
struct KsPValueDeviation;

impl DeviationTest for KsPValueDeviation {
    fn deviation(&self, marginal: &MarginalStats, slice: &SliceView<'_>) -> f64 {
        let r = masked_ks_test(slice.order(), marginal.sorted_values(), slice.len(), |id| {
            slice.contains(id)
        });
        1.0 - r.p_value
    }

    fn name(&self) -> &'static str {
        "KS-pvalue"
    }
}

/// Extension: Mann–Whitney U deviation, `1 − p` under the tie-corrected
/// normal approximation — rank-based like KS, scalarised like Welch, and
/// computed from rank sums without pooling or sorting.
#[derive(Debug, Clone, Copy, Default)]
pub struct MwuDeviation;

impl DeviationTest for MwuDeviation {
    fn deviation(&self, marginal: &MarginalStats, slice: &SliceView<'_>) -> f64 {
        let r = masked_mann_whitney(slice.order(), marginal.sorted_values(), slice.len(), |id| {
            slice.contains(id)
        });
        1.0 - r.p_value
    }

    fn name(&self) -> &'static str {
        "Mann-Whitney"
    }
}

/// The statistical instantiations available for the contrast measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatTest {
    /// Welch's t-test (`HiCS_WT`, the paper's default).
    #[default]
    WelchT,
    /// Kolmogorov–Smirnov statistic (`HiCS_KS`).
    KolmogorovSmirnov,
    /// KS with p-value normalisation (extension).
    KsPValue,
    /// Mann–Whitney U (extension).
    MannWhitney,
}

impl StatTest {
    /// Returns the deviation implementation for this test.
    pub fn as_deviation(&self) -> &'static dyn DeviationTest {
        match self {
            StatTest::WelchT => &WelchDeviation,
            StatTest::KolmogorovSmirnov => &KsDeviation,
            StatTest::KsPValue => &KsPValueDeviation,
            StatTest::MannWhitney => &MwuDeviation,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.as_deviation().name()
    }
}

/// Estimates the Monte-Carlo contrast of subspaces over one column source
/// (an owned [`Dataset`] or, zero-copy, an mmap-backed dataset store).
pub struct ContrastEstimator<'a> {
    view: ColumnsView<'a>,
    indices: RankIndex,
    /// The prefix masks every sampler of this estimator cuts windows from.
    windows: RankWindows,
    marginals: Vec<MarginalStats>,
    m: usize,
    alpha: f64,
    sizing: SliceSizing,
    test: &'a dyn DeviationTest,
}

impl<'a> ContrastEstimator<'a> {
    /// Builds an estimator over a dataset: computes the rank index and
    /// marginal statistics for every attribute once.
    ///
    /// # Panics
    /// Panics if `m == 0` or `alpha ∉ (0, 1)`.
    pub fn new(
        data: &'a Dataset,
        m: usize,
        alpha: f64,
        sizing: SliceSizing,
        test: &'a dyn DeviationTest,
    ) -> Self {
        Self::from_view(
            ColumnsView::from_dataset(data),
            m,
            alpha,
            sizing,
            test,
            available_threads(),
        )
    }

    /// Builds an estimator over an already-gathered column view — the
    /// out-of-core entry point: the columns stay wherever the view borrowed
    /// them from (typically a memory-mapped store); only the derived index
    /// structures (rank index, the samplers' prefix-mask table, marginal
    /// statistics) live on the heap. The columns are argsorted on up to
    /// `max_threads` workers, one column each.
    ///
    /// # Panics
    /// Panics if `m == 0` or `alpha ∉ (0, 1)`.
    pub fn from_view(
        view: ColumnsView<'a>,
        m: usize,
        alpha: f64,
        sizing: SliceSizing,
        test: &'a dyn DeviationTest,
        max_threads: usize,
    ) -> Self {
        assert!(m >= 1, "need at least one Monte-Carlo iteration");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        // Only the sorts run on the workers. Every buffer is allocated
        // here, in the order a serial build allocates it: workers that
        // allocated the permutations or marginals left about 1.6 MB more
        // resident after a `2·10⁴ × 16` fit, freed into their own heaps.
        let order: Vec<Mutex<Vec<u32>>> = (0..view.d())
            .map(|_| Mutex::new(Vec::with_capacity(view.n())))
            .collect();
        par_map(view.d(), max_threads, |j| {
            argsort_into(
                view.col(j),
                &mut order[j].lock().expect("a column sort panicked"),
            );
        });
        let indices = RankIndex::from_order(
            order
                .into_iter()
                .map(|o| o.into_inner().expect("a column sort panicked"))
                .collect(),
        );
        let windows = RankWindows::build(&indices);
        let marginals = view
            .iter_cols()
            .enumerate()
            .map(|(j, col)| {
                if test.reads_sorted_values() {
                    MarginalStats::from_order(col, indices.order(j))
                } else {
                    MarginalStats::moments_only(col)
                }
            })
            .collect();
        Self {
            view,
            indices,
            windows,
            marginals,
            m,
            alpha,
            sizing,
            test,
        }
    }

    /// The columns under analysis.
    pub fn view(&self) -> &ColumnsView<'a> {
        &self.view
    }

    /// The precomputed rank index.
    pub fn indices(&self) -> &RankIndex {
        &self.indices
    }

    /// Consumes the estimator, yielding its rank index — so a fit that
    /// already paid for the `O(D · N log N)` argsorts during the search
    /// can reuse them (e.g. for the artifact's order-permutation section)
    /// instead of sorting every column a second time.
    pub fn into_indices(self) -> RankIndex {
        self.indices
    }

    /// Number of Monte-Carlo iterations `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Estimates `contrast(S)` with a dedicated RNG stream derived from
    /// `seed`, making results independent of evaluation order and thread
    /// count.
    pub fn contrast(&self, subspace: &Subspace, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed ^ subspace_stream(subspace));
        self.contrast_loop(&mut self.sampler(subspace), &mut rng)
    }

    /// Creates a sampler usable with [`ContrastEstimator::contrast_with_sampler`]
    /// — one per worker thread, reused across every subspace that worker
    /// evaluates. Every sampler borrows the estimator's one prefix-mask
    /// table.
    pub fn sampler(&self, subspace: &Subspace) -> SliceSampler<'_> {
        SliceSampler::with_windows(
            self.view.clone(),
            &self.indices,
            Cow::Borrowed(&self.windows),
            subspace,
            self.alpha,
            self.sizing,
        )
    }

    /// Like [`ContrastEstimator::contrast`], but reusing a caller-held
    /// sampler (retargeted to `subspace`) instead of allocating fresh slice
    /// masks — bit-identical results, zero per-subspace allocation.
    pub fn contrast_with_sampler(
        &self,
        sampler: &mut SliceSampler<'_>,
        subspace: &Subspace,
        seed: u64,
    ) -> f64 {
        sampler.retarget(subspace);
        let mut rng = StdRng::seed_from_u64(seed ^ subspace_stream(subspace));
        self.contrast_loop(sampler, &mut rng)
    }

    /// The shared `M`-iteration Monte-Carlo loop of Algorithm 1, in batches
    /// of up to [`LANES`] slices; deviations are summed in draw order.
    fn contrast_loop(&self, sampler: &mut SliceSampler<'_>, rng: &mut StdRng) -> f64 {
        let mut acc = 0.0;
        let mut left = self.m;
        while left > 0 {
            let k = left.min(LANES);
            let batch = sampler.draw_batch(rng, k);
            // A (near-)empty slice is essentially impossible under
            // independence (expected size N·α₁^(|S|−1)); observing one is
            // itself maximal evidence of dependence. Moment-based tests
            // cannot express this, so it keeps this explicit score: the test
            // leaves slices under two members untouched.
            let mut devs = [1.0; LANES];
            self.test
                .deviations(&self.marginals, &batch, &mut devs[..k]);
            for d in &devs[..k] {
                acc += d.clamp(0.0, 1.0);
            }
            left -= k;
        }
        acc / self.m as f64
    }
}

/// Deterministic per-subspace RNG stream id (FNV-1a over the dims).
fn subspace_stream(s: &Subspace) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for d in s.dims() {
        h ^= d as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::toy;

    fn estimator<'a>(data: &'a Dataset, test: &'a dyn DeviationTest) -> ContrastEstimator<'a> {
        ContrastEstimator::new(data, 100, 0.1, SliceSizing::PaperRoot, test)
    }

    #[test]
    fn correlated_beats_uncorrelated_welch() {
        let a = toy::fig2_dataset_a(1000, 1);
        let b = toy::fig2_dataset_b(1000, 1);
        let sub = Subspace::pair(0, 1);
        let ca = estimator(&a.dataset, &WelchDeviation).contrast(&sub, 42);
        let cb = estimator(&b.dataset, &WelchDeviation).contrast(&sub, 42);
        assert!(
            cb > ca + 0.2,
            "correlated contrast {cb} should clearly exceed uncorrelated {ca}"
        );
    }

    #[test]
    fn correlated_beats_uncorrelated_ks() {
        let a = toy::fig2_dataset_a(1000, 2);
        let b = toy::fig2_dataset_b(1000, 2);
        let sub = Subspace::pair(0, 1);
        let ca = estimator(&a.dataset, &KsDeviation).contrast(&sub, 42);
        let cb = estimator(&b.dataset, &KsDeviation).contrast(&sub, 42);
        assert!(
            cb > ca + 0.2,
            "correlated KS contrast {cb} should clearly exceed uncorrelated {ca}"
        );
    }

    #[test]
    fn correlated_beats_uncorrelated_mwu() {
        let a = toy::fig2_dataset_a(1000, 3);
        let b = toy::fig2_dataset_b(1000, 3);
        let sub = Subspace::pair(0, 1);
        let ca = estimator(&a.dataset, &MwuDeviation).contrast(&sub, 42);
        let cb = estimator(&b.dataset, &MwuDeviation).contrast(&sub, 42);
        assert!(cb > ca, "MWU contrast {cb} vs {ca}");
    }

    #[test]
    fn xor_counterexample_contrast_ordering() {
        // Figure 3: 2-d projections look uncorrelated, the 3-d space is
        // strongly correlated — contrast must reflect that (and hence no
        // monotonicity can hold).
        let d = toy::xor3d(1500, 4);
        let est = estimator(&d, &KsDeviation);
        let c3 = est.contrast(&Subspace::new([0, 1, 2]), 7);
        let c2 = [
            est.contrast(&Subspace::pair(0, 1), 7),
            est.contrast(&Subspace::pair(0, 2), 7),
            est.contrast(&Subspace::pair(1, 2), 7),
        ];
        for (i, c) in c2.iter().enumerate() {
            assert!(
                c3 > c + 0.1,
                "3-d contrast {c3} must dominate 2-d projection {i}: {c}"
            );
        }
    }

    #[test]
    fn contrast_is_deterministic_per_seed() {
        let b = toy::fig2_dataset_b(600, 5);
        let est = estimator(&b.dataset, &WelchDeviation);
        let sub = Subspace::pair(0, 1);
        assert_eq!(est.contrast(&sub, 1), est.contrast(&sub, 1));
        assert_ne!(est.contrast(&sub, 1), est.contrast(&sub, 2));
    }

    #[test]
    fn contrast_bounded_in_unit_interval() {
        let g = hics_data::SyntheticConfig::new(400, 6)
            .with_seed(8)
            .generate();
        for test in [
            StatTest::WelchT,
            StatTest::KolmogorovSmirnov,
            StatTest::KsPValue,
            StatTest::MannWhitney,
        ] {
            let est = ContrastEstimator::new(
                &g.dataset,
                30,
                0.15,
                SliceSizing::PaperRoot,
                test.as_deviation(),
            );
            let c = est.contrast(&Subspace::new([0, 1, 2]), 3);
            assert!((0.0..=1.0).contains(&c), "{} gave {c}", test.name());
        }
    }

    #[test]
    fn planted_block_outscores_cross_block_pair() {
        // Attributes of one planted block are correlated; attributes from
        // two different blocks are independent.
        let g = hics_data::SyntheticConfig::new(800, 8)
            .with_seed(3)
            .generate();
        let blocks = &g.planted_subspaces;
        assert!(blocks.len() >= 2, "fixture needs two blocks");
        let inside = Subspace::pair(blocks[0][0], blocks[0][1]);
        let across = Subspace::pair(blocks[0][0], blocks[1][0]);
        let est = estimator(&g.dataset, &WelchDeviation);
        let ci = est.contrast(&inside, 11);
        let ca = est.contrast(&across, 11);
        assert!(ci > ca, "within-block {ci} must exceed cross-block {ca}");
    }

    #[test]
    fn reused_sampler_contrast_is_bitwise_equal() {
        let g = hics_data::SyntheticConfig::new(300, 6)
            .with_seed(14)
            .generate();
        let est = estimator(&g.dataset, &WelchDeviation);
        let subspaces = [
            Subspace::pair(0, 1),
            Subspace::new([1, 2, 3]),
            Subspace::pair(4, 5),
            Subspace::new([0, 2, 4, 5]),
        ];
        let mut sampler = est.sampler(&subspaces[0]);
        for sub in &subspaces {
            let reused = est.contrast_with_sampler(&mut sampler, sub, 77);
            let fresh = est.contrast(sub, 77);
            assert_eq!(reused, fresh, "subspace {sub}");
        }
    }

    #[test]
    fn stat_test_names() {
        assert_eq!(StatTest::WelchT.name(), "Welch-t");
        assert_eq!(StatTest::KolmogorovSmirnov.name(), "KS");
        assert_eq!(StatTest::KsPValue.name(), "KS-pvalue");
        assert_eq!(StatTest::MannWhitney.name(), "Mann-Whitney");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_iterations() {
        let b = toy::fig2_dataset_b(100, 1);
        ContrastEstimator::new(&b.dataset, 0, 0.1, SliceSizing::PaperRoot, &WelchDeviation);
    }
}
