//! Adaptive subspace slices (paper Definition 4 and Section IV-A) on the
//! rank-centric bitset engine.
//!
//! A subspace slice is a set of `|S| − 1` interval conditions, one per
//! conditioning attribute. Instead of choosing intervals in value space, the
//! sampler selects a **contiguous block of sorted-index entries** per
//! condition — the adaptive construction that keeps the expected conditional
//! sample size fixed regardless of subspace dimensionality, side-stepping
//! the curse of dimensionality that dooms fixed grids.
//!
//! Per Monte-Carlo iteration (Algorithm 1):
//!
//! 1. permute the subspace attributes; the last one becomes the *reference*
//!    attribute, the others carry conditions;
//! 2. each condition materialises its random index block as bits of an
//!    L1-resident [`SliceMask`] and conditions intersect by in-place word
//!    AND (`O(N/64)`) — never a per-object counter scan and never a heap
//!    allocation (a rank-probe refinement was benchmarked and lost: random
//!    reads across the `4N`-byte inverse-permutation array cost more than
//!    scattered writes into the `N/8`-byte mask). The block is not written
//!    id by id: it is cut out of a read-only table of prefix masks (the ids
//!    below each of 16 evenly spaced ranks of the attribute's sorted order)
//!    by one word XOR of the two prefixes nearest the block's ends, plus a
//!    bit flip for each id between an end and its prefix;
//! 3. the statistical test consumes the selection as a borrowed
//!    [`SliceView`]: set-bit walks for streaming moments, rank probes for
//!    the sort-free KS / Mann–Whitney walks.
//!
//! The sampler holds [`LANES`] selection masks. A batch draw
//! ([`SliceSampler::draw_batch`]) runs up to that many consecutive
//! iterations, each into its own mask, so the Welch test can advance all of
//! their moment chains in one lockstep pass; the RNG is consumed exactly as
//! by the same number of single draws.

use crate::subspace::Subspace;
use hics_data::{ColumnsView, Dataset, RankIndex, SliceMask};
use hics_stats::masked::{MaskedLane, LANES};
use rand::seq::SliceRandom;
use rand::Rng;
use std::borrow::Cow;

/// Prefix masks per attribute in a [`RankWindows`] table, past the empty
/// one. More checkpoints mean fewer bit flips per window and a larger
/// table: `(CHECKPOINTS + 1) · d · N / 8` bytes.
const CHECKPOINTS: usize = 16;

/// The read-only table the slice conditions' rank windows are cut from.
///
/// For every attribute it holds the prefix masks `P(0..=CHECKPOINTS)` of
/// its sorted order: `P(c)` selects the ids of rank below `min(c · step, N)`,
/// `step = ⌈N / CHECKPOINTS⌉`. The window `[s, e)` is `P(c_e) XOR P(c_s)`
/// for the checkpoints `c_s`, `c_e` nearest `s` and `e`, with the ids
/// between each end and its checkpoint flipped: one word pass plus at most
/// `step / 2` scattered flips per end, instead of `e − s` scattered writes.
#[derive(Debug, Clone)]
pub(crate) struct RankWindows {
    n: usize,
    step: usize,
    /// `prefixes[j · (CHECKPOINTS + 1) + c]` is `P(c)` of attribute `j`.
    prefixes: Vec<SliceMask>,
}

impl RankWindows {
    /// Builds the prefix masks of every attribute of `indices`.
    pub(crate) fn build(indices: &RankIndex) -> Self {
        let n = indices.n();
        let step = n.div_ceil(CHECKPOINTS).max(1);
        let mut prefixes = Vec::with_capacity(indices.d() * (CHECKPOINTS + 1));
        for j in 0..indices.d() {
            let order = indices.order(j);
            let mut prefix = SliceMask::new(n);
            prefixes.push(prefix.clone());
            for c in 1..=CHECKPOINTS {
                prefix.fill_from_ids(&order[((c - 1) * step).min(n)..(c * step).min(n)]);
                prefixes.push(prefix.clone());
            }
        }
        Self { n, step, prefixes }
    }

    /// The checkpoint nearest rank position `p` (`0..=N`) and its rank.
    fn nearest(&self, p: usize) -> (usize, usize) {
        let c = ((p + self.step / 2) / self.step).min(CHECKPOINTS);
        (c, (c * self.step).min(self.n))
    }

    /// Overwrites `mask` with the ids of rank `s..e` of attribute `attr`,
    /// whose sorted order is `order`.
    fn window(&self, mask: &mut SliceMask, attr: usize, order: &[u32], s: usize, e: usize) {
        let (cs, ps) = self.nearest(s);
        let (ce, pe) = self.nearest(e);
        let base = attr * (CHECKPOINTS + 1);
        mask.xor_of(&self.prefixes[base + ce], &self.prefixes[base + cs]);
        mask.toggle_ids(&order[s.min(ps)..s.max(ps)]);
        mask.toggle_ids(&order[e.min(pe)..e.max(pe)]);
    }
}

/// How the per-condition selectivity `α₁` is derived from the target
/// conditional-sample fraction `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SliceSizing {
    /// The paper's formula `α₁ = α^(1/|S|)` (Section IV-A). After `|S| − 1`
    /// conditions the expected surviving fraction is `α^((|S|−1)/|S|) ≥ α`.
    #[default]
    PaperRoot,
    /// The ELKI convention `α₁ = α^(1/(|S|−1))`, making the expected
    /// surviving fraction exactly `α`.
    ExactAlpha,
}

impl SliceSizing {
    /// The per-condition selectivity for a subspace of dimensionality `d`.
    pub fn alpha1(&self, alpha: f64, d: usize) -> f64 {
        debug_assert!(d >= 2, "slices need at least a 2-d subspace");
        match self {
            SliceSizing::PaperRoot => alpha.powf(1.0 / d as f64),
            SliceSizing::ExactAlpha => alpha.powf(1.0 / (d as f64 - 1.0)),
        }
    }
}

/// One materialised slice: the reference attribute and an owned copy of the
/// conditional sample (compatibility/diagnostic form of [`SliceView`];
/// the hot path never builds it).
#[derive(Debug, Clone)]
pub struct SliceSample {
    /// The attribute whose marginal/conditional distributions are compared.
    pub ref_attr: usize,
    /// Values of `ref_attr` over the objects satisfying all conditions.
    pub conditional: Vec<f64>,
}

/// A borrowed view of one drawn slice: the selection bitset plus the
/// reference attribute's column and sorted order. Lives until the next
/// draw; nothing is copied.
#[derive(Debug)]
pub struct SliceView<'a> {
    /// The attribute whose marginal/conditional distributions are compared.
    pub ref_attr: usize,
    col: &'a [f64],
    order: &'a [u32],
    mask: &'a SliceMask,
    len: usize,
}

impl<'a> SliceView<'a> {
    /// Conditional sample size (precomputed popcount).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice selected no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether object `id` survived all slice conditions.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.mask.contains(id as usize)
    }

    /// The selection bitset.
    pub fn mask(&self) -> &'a SliceMask {
        self.mask
    }

    /// The reference attribute's full column (marginal side).
    pub fn column(&self) -> &'a [f64] {
        self.col
    }

    /// The reference attribute's argsort permutation (the marginal order
    /// the rank-aware test walks follow).
    pub fn order(&self) -> &'a [u32] {
        self.order
    }

    /// The selection as one lane of the Welch lanes kernel.
    pub(crate) fn lane(&self) -> MaskedLane<'a> {
        MaskedLane {
            values: self.col,
            words: self.mask.words(),
            len: self.len,
        }
    }

    /// Copies the view into an owned [`SliceSample`] (tests/diagnostics):
    /// the conditional values in ascending object-id order.
    pub fn to_sample(&self) -> SliceSample {
        let col = self.col;
        SliceSample {
            ref_attr: self.ref_attr,
            conditional: self.mask.iter().map(|id| col[id as usize]).collect(),
        }
    }
}

/// The slices of one [`SliceSampler::draw_batch`]: lanes `0..len()`, in
/// draw order. Lives until the next draw; nothing is copied.
pub struct SliceBatch<'a> {
    sampler: &'a SliceSampler<'a>,
    len: usize,
}

impl<'a> SliceBatch<'a> {
    /// Number of slices drawn.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no slices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slice drawn into lane `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> SliceView<'a> {
        assert!(i < self.len, "lane {i} outside a batch of {}", self.len);
        self.sampler.lane_view(i)
    }

    /// The slices in draw order.
    pub fn iter(&self) -> impl Iterator<Item = SliceView<'a>> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

/// Draws adaptive subspace slices for one subspace.
///
/// Holds [`LANES`] selection masks (one per slice of a batch draw, `N/8`
/// bytes each), one condition mask and the permutation scratch, so the `M`
/// Monte-Carlo iterations of a contrast computation perform **zero heap
/// allocations**.
///
/// Every condition's rank window is cut from a read-only table of prefix
/// masks per attribute (see the module docs). A sampler from
/// [`crate::ContrastEstimator::sampler`] borrows the estimator's one table;
/// [`SliceSampler::new`] and [`SliceSampler::from_view`] build their own.
/// The window is the exact block either way, so the selections and contrast
/// values are those of filling the block id by id (asserted by the
/// engine-equivalence regression tests).
pub struct SliceSampler<'a> {
    view: ColumnsView<'a>,
    indices: &'a RankIndex,
    dims: Vec<usize>,
    block_len: usize,
    alpha: f64,
    sizing: SliceSizing,
    /// Scratch: permutation of `dims`.
    perm: Vec<usize>,
    /// Scratch: one selection bitset per lane, reused across draws.
    masks: Vec<SliceMask>,
    /// Per lane: the reference attribute and size of the slice drawn into it.
    drawn: [(usize, usize); LANES],
    /// The prefix masks the conditions' windows are cut from.
    windows: Cow<'a, RankWindows>,
    /// Scratch: the window of every condition after the first.
    condition: SliceMask,
}

impl<'a> SliceSampler<'a> {
    /// Creates a sampler for `subspace` with conditional-sample fraction
    /// `alpha` under the given sizing convention.
    ///
    /// # Panics
    /// Panics if the subspace has fewer than 2 attributes, `alpha` is not in
    /// `(0, 1)`, or an attribute is out of range.
    pub fn new(
        data: &'a Dataset,
        indices: &'a RankIndex,
        subspace: &Subspace,
        alpha: f64,
        sizing: SliceSizing,
    ) -> Self {
        Self::from_view(
            ColumnsView::from_dataset(data),
            indices,
            subspace,
            alpha,
            sizing,
        )
    }

    /// Like [`SliceSampler::new`], over an already-gathered column view
    /// (the out-of-core path: columns borrowed from a memory-mapped store;
    /// the view itself is O(d) pointer work to clone, not a data copy).
    ///
    /// # Panics
    /// Panics on the same conditions as [`SliceSampler::new`].
    pub fn from_view(
        view: ColumnsView<'a>,
        indices: &'a RankIndex,
        subspace: &Subspace,
        alpha: f64,
        sizing: SliceSizing,
    ) -> Self {
        let windows = Cow::Owned(RankWindows::build(indices));
        Self::with_windows(view, indices, windows, subspace, alpha, sizing)
    }

    /// Like [`SliceSampler::from_view`], cutting the windows from `windows`,
    /// which must be built from `indices`.
    pub(crate) fn with_windows(
        view: ColumnsView<'a>,
        indices: &'a RankIndex,
        windows: Cow<'a, RankWindows>,
        subspace: &Subspace,
        alpha: f64,
        sizing: SliceSizing,
    ) -> Self {
        assert!(
            subspace.len() >= 2,
            "contrast needs |S| >= 2, got {subspace}"
        );
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        let dims = subspace.to_vec();
        assert!(
            dims.iter().all(|&j| j < view.d()),
            "subspace {subspace} exceeds dataset dimensionality {}",
            view.d()
        );
        let n = view.n();
        debug_assert_eq!(windows.n, indices.n(), "windows built from another index");
        let alpha1 = sizing.alpha1(alpha, dims.len());
        let block_len = ((n as f64 * alpha1).ceil() as usize).clamp(1, n);
        Self {
            view,
            indices,
            perm: dims.clone(),
            dims,
            block_len,
            alpha,
            sizing,
            masks: (0..LANES).map(|_| SliceMask::new(n)).collect(),
            drawn: [(0, 0); LANES],
            windows,
            condition: SliceMask::new(n),
        }
    }

    /// Re-points the sampler at another subspace of the **same dataset**,
    /// keeping the mask and permutation scratch — the per-thread reuse hook
    /// that lets one worker evaluate a whole level of the subspace search
    /// without allocating a mask. Draw sequences after a retarget are
    /// bit-identical to those of a freshly constructed sampler.
    ///
    /// # Panics
    /// Panics on the same conditions as [`SliceSampler::new`].
    pub fn retarget(&mut self, subspace: &Subspace) {
        assert!(
            subspace.len() >= 2,
            "contrast needs |S| >= 2, got {subspace}"
        );
        self.dims.clear();
        self.dims.extend(subspace.dims());
        assert!(
            self.dims.iter().all(|&j| j < self.view.d()),
            "subspace {subspace} exceeds dataset dimensionality {}",
            self.view.d()
        );
        self.perm.clear();
        self.perm.extend_from_slice(&self.dims);
        let n = self.view.n();
        let alpha1 = self.sizing.alpha1(self.alpha, self.dims.len());
        self.block_len = ((n as f64 * alpha1).ceil() as usize).clamp(1, n);
    }

    /// The per-condition index-block length `N · α₁`.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Draws one slice: permutes the attributes, applies `|S| − 1` random
    /// block conditions through the rank engine, and returns a borrowed
    /// view of the surviving selection (Algorithm 1, steps 1–2). This is the
    /// one-slice form of [`SliceSampler::draw_batch`] (lane 0).
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SliceView<'_> {
        self.draw_into(rng, 0);
        self.lane_view(0)
    }

    /// Draws `k` consecutive slices into lanes `0..k` — the RNG stream and
    /// every selection are those of `k` calls to [`SliceSampler::draw`].
    ///
    /// # Panics
    /// Panics unless `1 <= k <= LANES`.
    pub fn draw_batch<R: Rng + ?Sized>(&mut self, rng: &mut R, k: usize) -> SliceBatch<'_> {
        assert!(
            (1..=LANES).contains(&k),
            "batch of {k} slices outside 1..={LANES}"
        );
        for lane in 0..k {
            self.draw_into(rng, lane);
        }
        SliceBatch {
            sampler: self,
            len: k,
        }
    }

    /// The view of the slice last drawn into `lane`.
    fn lane_view(&self, lane: usize) -> SliceView<'_> {
        let (ref_attr, len) = self.drawn[lane];
        SliceView {
            ref_attr,
            col: self.view.col(ref_attr),
            order: self.indices.order(ref_attr),
            mask: &self.masks[lane],
            len,
        }
    }

    /// The draw body: one slice into the selection mask of `lane`.
    ///
    /// The first condition's window is cut straight into the lane's mask,
    /// every later one into the condition scratch and then ANDed in
    /// (`O(N/64)`), the last AND fused with the popcount. No heap
    /// allocation and no `O(N)` per-object scan.
    fn draw_into<R: Rng + ?Sized>(&mut self, rng: &mut R, lane: usize) {
        let n = self.view.n();
        self.perm.copy_from_slice(&self.dims);
        self.perm.shuffle(rng);
        let (&ref_attr, cond_attrs) = self.perm.split_last().expect("subspace is non-empty");
        // A single condition selects exactly one block of `block_len` ids,
        // so a 2-d subspace needs no popcount at all.
        let mut len = self.block_len;
        for (ci, &attr) in cond_attrs.iter().enumerate() {
            // One RNG call per condition, in permutation order — the same
            // stream the hits-counting engine consumed.
            let start = rng.gen_range(0..=n - self.block_len);
            let end = start + self.block_len;
            let order = self.indices.order(attr);
            let mask = &mut self.masks[lane];
            if ci == 0 {
                self.windows.window(mask, attr, order, start, end);
                continue;
            }
            let condition = &mut self.condition;
            self.windows.window(condition, attr, order, start, end);
            if ci == cond_attrs.len() - 1 {
                len = mask.and_assign_popcount(condition);
            } else {
                mask.and_assign(condition);
            }
        }
        self.drawn[lane] = (ref_attr, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::SyntheticConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler_fixture(n: usize, d: usize, seed: u64) -> (Dataset, RankIndex) {
        let g = SyntheticConfig::new(n, d).with_seed(seed).generate();
        let idx = g.dataset.rank_index();
        (g.dataset, idx)
    }

    #[test]
    fn alpha1_formulas() {
        let a = 0.1_f64;
        assert!((SliceSizing::PaperRoot.alpha1(a, 2) - a.sqrt()).abs() < 1e-15);
        assert!((SliceSizing::ExactAlpha.alpha1(a, 2) - a).abs() < 1e-15);
        assert!((SliceSizing::PaperRoot.alpha1(a, 5) - a.powf(0.2)).abs() < 1e-15);
        assert!((SliceSizing::ExactAlpha.alpha1(a, 5) - a.powf(0.25)).abs() < 1e-15);
    }

    #[test]
    fn conditional_sample_size_is_near_target() {
        let (data, idx) = sampler_fixture(1000, 4, 1);
        let sub = Subspace::pair(0, 1);
        // ExactAlpha on a 2-d subspace: one condition of exactly N·α objects.
        let mut s = SliceSampler::new(&data, &idx, &sub, 0.2, SliceSizing::ExactAlpha);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let slice = s.draw(&mut rng);
            assert_eq!(slice.len(), 200);
        }
    }

    #[test]
    fn paper_root_blocks_are_larger() {
        let (data, idx) = sampler_fixture(1000, 4, 2);
        let sub = Subspace::pair(0, 1);
        let paper = SliceSampler::new(&data, &idx, &sub, 0.1, SliceSizing::PaperRoot);
        let exact = SliceSampler::new(&data, &idx, &sub, 0.1, SliceSizing::ExactAlpha);
        assert!(paper.block_len() > exact.block_len());
        assert_eq!(exact.block_len(), 100);
        assert_eq!(
            paper.block_len(),
            (1000.0_f64 * 0.1_f64.sqrt()).ceil() as usize
        );
    }

    #[test]
    fn reference_attr_is_always_a_subspace_member() {
        let (data, idx) = sampler_fixture(300, 6, 3);
        let sub = Subspace::new([1, 3, 5]);
        let mut s = SliceSampler::new(&data, &idx, &sub, 0.15, SliceSizing::PaperRoot);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let slice = s.draw(&mut rng);
            assert!(sub.contains(slice.ref_attr));
            seen.insert(slice.ref_attr);
        }
        // The permutation should pick every attribute as reference sometimes.
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn view_iteration_orders_and_membership_agree() {
        let (data, idx) = sampler_fixture(500, 5, 9);
        let sub = Subspace::new([0, 2, 4]);
        let mut s = SliceSampler::new(&data, &idx, &sub, 0.2, SliceSizing::PaperRoot);
        let mut rng = StdRng::seed_from_u64(2);
        let view = s.draw(&mut rng);
        let ids: Vec<u32> = view.mask().iter().collect();
        assert_eq!(ids.len(), view.len());
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending id order");
        assert!(ids.iter().all(|&id| view.contains(id)));
        let col = data.col(view.ref_attr);
        let values: Vec<f64> = ids.iter().map(|&id| col[id as usize]).collect();
        assert_eq!(view.to_sample().conditional, values);
    }

    #[test]
    fn conditional_values_come_from_contiguous_value_ranges() {
        // In a 2-d subspace the conditional sample on the reference attr
        // corresponds to objects whose conditioning attr lies in one
        // contiguous value interval.
        let data = Dataset::from_columns(vec![
            (0..100).map(|i| i as f64).collect(),
            (0..100).map(|i| (i * 37 % 100) as f64).collect(),
        ]);
        let idx = data.rank_index();
        let sub = Subspace::pair(0, 1);
        let mut s = SliceSampler::new(&data, &idx, &sub, 0.3, SliceSizing::ExactAlpha);
        let mut rng = StdRng::seed_from_u64(5);
        let slice = s.draw(&mut rng);
        assert_eq!(slice.len(), 30);
    }

    #[test]
    fn multi_condition_slices_shrink() {
        let (data, idx) = sampler_fixture(2000, 10, 4);
        let sub = Subspace::new([0, 1, 2, 3, 4]);
        let mut s = SliceSampler::new(&data, &idx, &sub, 0.1, SliceSizing::ExactAlpha);
        let mut rng = StdRng::seed_from_u64(11);
        let mut sizes = Vec::new();
        for _ in 0..50 {
            sizes.push(s.draw(&mut rng).len());
        }
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // Expected ≈ N·α = 200 under independence; correlated blocks can
        // inflate it, so allow a broad band around the target.
        assert!(mean > 50.0, "mean conditional size {mean}");
        assert!(mean < 1200.0, "mean conditional size {mean}");
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let (data, idx) = sampler_fixture(500, 4, 6);
        let sub = Subspace::pair(1, 2);
        let draw = |seed: u64| {
            let mut s = SliceSampler::new(&data, &idx, &sub, 0.2, SliceSizing::PaperRoot);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5)
                .map(|_| s.draw(&mut rng).to_sample().conditional)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
    }

    #[test]
    fn retargeted_sampler_draws_identically_to_fresh() {
        let (data, idx) = sampler_fixture(400, 8, 12);
        let subspaces = [
            Subspace::pair(0, 1),
            Subspace::new([2, 3, 4]),
            Subspace::new([0, 5, 6, 7]),
            Subspace::pair(6, 7),
        ];
        // One reused sampler retargeted across subspaces of varying size…
        let mut reused =
            SliceSampler::new(&data, &idx, &subspaces[0], 0.15, SliceSizing::PaperRoot);
        for sub in &subspaces {
            reused.retarget(sub);
            let mut rng = StdRng::seed_from_u64(99);
            let reused_draws: Vec<SliceSample> =
                (0..10).map(|_| reused.draw(&mut rng).to_sample()).collect();
            // …must match a sampler constructed from scratch, bit for bit.
            let mut fresh = SliceSampler::new(&data, &idx, sub, 0.15, SliceSizing::PaperRoot);
            let mut rng = StdRng::seed_from_u64(99);
            for (d, r) in reused_draws
                .iter()
                .zip((0..10).map(|_| fresh.draw(&mut rng).to_sample()))
            {
                assert_eq!(d.ref_attr, r.ref_attr);
                assert_eq!(d.conditional, r.conditional);
            }
            assert_eq!(reused.block_len(), fresh.block_len());
        }
    }

    #[test]
    fn cached_condition_masks_draw_identically_to_fresh_samplers() {
        // A long draw sequence through one sampler, whose lane and
        // condition masks still hold the previous draws, must equal what a
        // fresh sampler produces for the same RNG state, draw by draw.
        for (sub, alpha) in [
            (Subspace::pair(1, 4), 0.1),
            (Subspace::new([0, 2, 3, 5]), 0.25),
        ] {
            let (data, idx) = sampler_fixture(700, 6, 21);
            let mut reused = SliceSampler::new(&data, &idx, &sub, alpha, SliceSizing::PaperRoot);
            let mut rng = StdRng::seed_from_u64(31);
            for i in 0..150 {
                let mut rng_replay = rng.clone();
                let got = reused.draw(&mut rng).to_sample();
                let mut fresh = SliceSampler::new(&data, &idx, &sub, alpha, SliceSizing::PaperRoot);
                let want = fresh.draw(&mut rng_replay).to_sample();
                assert_eq!(got.ref_attr, want.ref_attr, "draw {i} of {sub}");
                assert_eq!(got.conditional, want.conditional, "draw {i} of {sub}");
            }
        }
    }

    #[test]
    fn rank_windows_equal_filled_blocks() {
        // Every start of several window lengths, over orders that scramble
        // ids against ranks. The starts cover windows on a checkpoint, one
        // off it and windows ending at N; N = 1 and 2 have fewer ranks than
        // checkpoints, N = 63/64/65 straddle a word boundary.
        for n in [1usize, 2, 63, 64, 65, 100, 1000] {
            let scrambled = |a: usize, b: usize| -> Vec<u32> {
                (0..n).map(|i| ((i * a + b) % n) as u32).collect()
            };
            // 7919 and 104729 are primes no N here is a multiple of.
            let orders = vec![scrambled(7919, 13), scrambled(104729, 5)];
            let idx = RankIndex::from_order(orders.clone());
            let table = RankWindows::build(&idx);
            let step = table.step;
            let lens = [1, 2, step - 1, step, step + 1, 5 * step / 2, n / 3, n];
            // Reused across windows: each window must overwrite all of it.
            let mut got = SliceMask::new(n);
            for (attr, order) in orders.iter().enumerate() {
                for &len in lens.iter().filter(|&&l| (1..=n).contains(&l)) {
                    for s in 0..=n - len {
                        let mut want = SliceMask::new(n);
                        want.fill_from_ids(&order[s..s + len]);
                        table.window(&mut got, attr, order, s, s + len);
                        assert_eq!(got, want, "N {n}, attr {attr}, window {s}..{}", s + len);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_draws_match_single_draws() {
        let (data, idx) = sampler_fixture(600, 6, 17);
        let sub = Subspace::new([0, 2, 3, 5]);
        let mut batched = SliceSampler::new(&data, &idx, &sub, 0.2, SliceSizing::PaperRoot);
        let mut single = SliceSampler::new(&data, &idx, &sub, 0.2, SliceSizing::PaperRoot);
        let mut rng_b = StdRng::seed_from_u64(4);
        let mut rng_s = StdRng::seed_from_u64(4);
        for k in [LANES, 1, 3, LANES, 2] {
            let batch = batched.draw_batch(&mut rng_b, k);
            assert_eq!(batch.len(), k);
            for (i, got) in batch.iter().enumerate() {
                let want = single.draw(&mut rng_s);
                assert_eq!(got.ref_attr, want.ref_attr, "lane {i}");
                assert_eq!(got.len(), want.len(), "lane {i}");
                assert_eq!(got.mask(), want.mask(), "lane {i}");
                assert_eq!(got.order(), idx.order(got.ref_attr));
            }
        }
    }

    #[test]
    #[should_panic]
    fn batch_rejects_more_than_lane_width() {
        let (data, idx) = sampler_fixture(100, 4, 13);
        let mut s = SliceSampler::new(
            &data,
            &idx,
            &Subspace::pair(0, 1),
            0.1,
            SliceSizing::PaperRoot,
        );
        s.draw_batch(&mut StdRng::seed_from_u64(1), LANES + 1);
    }

    #[test]
    #[should_panic]
    fn retarget_rejects_one_dimensional_subspace() {
        let (data, idx) = sampler_fixture(100, 4, 13);
        let mut s = SliceSampler::new(
            &data,
            &idx,
            &Subspace::pair(0, 1),
            0.1,
            SliceSizing::PaperRoot,
        );
        s.retarget(&Subspace::new([2]));
    }

    #[test]
    #[should_panic]
    fn rejects_one_dimensional_subspace() {
        let (data, idx) = sampler_fixture(100, 4, 7);
        let sub = Subspace::new([0]);
        SliceSampler::new(&data, &idx, &sub, 0.1, SliceSizing::PaperRoot);
    }

    #[test]
    #[should_panic]
    fn rejects_alpha_out_of_range() {
        let (data, idx) = sampler_fixture(100, 4, 8);
        let sub = Subspace::pair(0, 1);
        SliceSampler::new(&data, &idx, &sub, 1.0, SliceSizing::PaperRoot);
    }
}
