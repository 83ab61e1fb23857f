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
//!    scattered writes into the `N/8`-byte mask);
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
/// bytes each), the per-attribute condition-mask cache and the permutation
/// scratch, so the `M` Monte-Carlo iterations of a contrast computation
/// perform **zero heap allocations** after the first draw.
///
/// The cache keeps, for every subspace attribute, the block mask of its most
/// recent condition together with the block's start position. Across the `M`
/// iterations of one subspace the same attribute keeps drawing fresh random
/// windows of the same length; when the new window overlaps the cached one
/// by more than half, the mask is *shifted* — clear the ids leaving the
/// window, set the ids entering — instead of cleared and refilled, and an
/// identical start reuses the mask as is. The resulting bit pattern is the
/// exact window either way, so contrast values stay bit-identical (asserted
/// by the engine-equivalence regression tests).
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
    /// Per-attribute cached condition masks, aligned with `dims`.
    cache: Vec<CachedCondition>,
}

/// One attribute's cached condition mask: the materialised rank window
/// `[start, start + block_len)` of that attribute's sorted order.
struct CachedCondition {
    mask: SliceMask,
    /// The window start the mask currently materialises; `None` when the
    /// mask content is stale (fresh sampler or after a retarget).
    start: Option<usize>,
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
        let alpha1 = sizing.alpha1(alpha, dims.len());
        let block_len = ((n as f64 * alpha1).ceil() as usize).clamp(1, n);
        let cache = dims
            .iter()
            .map(|_| CachedCondition {
                mask: SliceMask::new(n),
                start: None,
            })
            .collect();
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
            cache,
        }
    }

    /// Re-points the sampler at another subspace of the **same dataset**,
    /// keeping the mask and permutation scratch — the per-thread reuse hook
    /// that lets one worker evaluate a whole level of the subspace search
    /// with at most `O(|S|)` mask allocations per level (cached condition
    /// masks are invalidated, and only a dimensionality *increase* allocates
    /// new ones). Draw sequences after a retarget are bit-identical to those
    /// of a freshly constructed sampler.
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
        // The window length (and the attribute a slot belongs to) changed:
        // every cached mask is stale. Slots beyond the new dimensionality
        // stay allocated for the next wider subspace.
        for c in &mut self.cache {
            c.start = None;
        }
        while self.cache.len() < self.dims.len() {
            self.cache.push(CachedCondition {
                mask: SliceMask::new(n),
                start: None,
            });
        }
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
    /// Each condition's sorted block lives in that attribute's **cached**
    /// mask: an identical window start reuses it outright, a window
    /// overlapping the cached one by more than half is shifted incrementally
    /// (clear the leaving ids, set the entering ids), and only a distant
    /// window rebuilds from scratch. Conditions then combine by in-place
    /// word AND (`O(N/64)`), the last one fused with the popcount. No heap
    /// allocation, no `O(N)` per-object scan, and the selection is the same
    /// bit pattern the uncached sampler produced.
    fn draw_into<R: Rng + ?Sized>(&mut self, rng: &mut R, lane: usize) {
        let n = self.view.n();
        self.perm.copy_from_slice(&self.dims);
        self.perm.shuffle(rng);
        let (&ref_attr, cond_attrs) = self.perm.split_last().expect("subspace is non-empty");

        // The final AND is fused with the popcount (one pass instead of
        // two); a 2-d subspace has a single condition, whose size is the
        // block length by construction — no popcount at all.
        let mut fused_len = None;
        for (ci, &attr) in cond_attrs.iter().enumerate() {
            // One RNG call per condition, in permutation order — the same
            // stream the hits-counting engine consumed.
            let start = rng.gen_range(0..=n - self.block_len);
            let block_len = self.block_len;
            let slot = self
                .dims
                .iter()
                .position(|&a| a == attr)
                .expect("condition attribute belongs to the subspace");
            let cached = &mut self.cache[slot];
            match cached.start {
                // Same window: the mask is already exact.
                Some(s0) if s0 == start => {}
                // Overlapping window: shift — 2·Δ scattered bit flips beat
                // a clear plus block_len scattered writes when Δ is small.
                Some(s0) if s0.abs_diff(start) * 2 < block_len => {
                    if start > s0 {
                        cached
                            .mask
                            .clear_ids(self.indices.block(attr, s0, start - s0));
                        cached.mask.fill_from_ids(self.indices.block(
                            attr,
                            s0 + block_len,
                            start - s0,
                        ));
                    } else {
                        cached.mask.clear_ids(self.indices.block(
                            attr,
                            start + block_len,
                            s0 - start,
                        ));
                        cached
                            .mask
                            .fill_from_ids(self.indices.block(attr, start, s0 - start));
                    }
                }
                // Distant or stale: rebuild the block from scratch.
                _ => {
                    cached.mask.clear();
                    cached
                        .mask
                        .fill_from_ids(self.indices.block(attr, start, block_len));
                }
            }
            cached.start = Some(start);

            let cond_mask = &self.cache[slot].mask;
            let mask = &mut self.masks[lane];
            if ci == 0 {
                mask.copy_from(cond_mask);
            } else if ci == cond_attrs.len() - 1 {
                fused_len = Some(mask.and_assign_popcount(cond_mask));
            } else {
                mask.and_assign(cond_mask);
            }
        }
        // A single condition selects exactly one block of `block_len` ids.
        self.drawn[lane] = (ref_attr, fused_len.unwrap_or(self.block_len));
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
        // A long draw sequence exercises every cache path — exact window
        // hits, incremental shifts, from-scratch rebuilds — and each draw
        // must equal what a cache-cold sampler produces for the same RNG
        // state.
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
