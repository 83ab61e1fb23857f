//! Rank-aware two-sample tests of a *masked subsample* against its parent
//! marginal — the statistical half of the rank-centric slice engine.
//!
//! The HiCS conditional sample is always a subset of the marginal sample of
//! the slice's reference attribute. Once the marginal's argsort permutation
//! is precomputed, every statistic of (marginal vs. conditional) can be
//! evaluated by a single tie-grouped walk over that permutation with an
//! `O(1)` membership probe per object — **no sort and no allocation per
//! draw**, unlike building an [`crate::ecdf::Ecdf`] or pooled midranks from
//! scratch on every Monte-Carlo iteration.
//!
//! Every function here is bit-for-bit equivalent to its allocation-heavy
//! counterpart in [`crate::ecdf`] / [`crate::two_sample`] (same summation
//! orders, same tie handling); the unit tests assert exact `f64` equality.

use crate::dist::{Kolmogorov, Normal};
use crate::moments::MeanVariance;
use crate::two_sample::{KsResult, MannWhitneyResult};

/// Lane width of [`masked_mean_variance_lanes`]: the number of conditional
/// samples whose Welford chains advance together in one pass.
///
/// Every [`MeanVariance::push`] waits on the previous one through the
/// running mean's division, so a single chain leaves the divider idle most
/// of the time; six independent chains keep it busy. The lanes share the
/// loop, the set-bit walk's step and the step count: each lane keeps only
/// its running mean and M2, and the count every active lane has reached is
/// converted to `f64` once per step for all of them. Measured on the
/// contrast search (2 vCPUs), four lanes overlap less, eight were no faster
/// than six, and sixteen spill the lane state out of registers. Each lane
/// also costs the slice sampler one `N/8`-byte mask per worker: at
/// `N = 4·10⁴` eight lanes raised a serving process's peak RSS by 8.5 MB
/// through glibc arena reuse, six did not.
pub const LANES: usize = 6;

/// One lane of [`masked_mean_variance_lanes`]: a value column plus the
/// selection bitset over its object ids.
#[derive(Debug, Clone, Copy)]
pub struct MaskedLane<'a> {
    /// Values indexed by object id.
    pub values: &'a [f64],
    /// Selection bitset: bit `id & 63` of word `id >> 6` selects object `id`.
    pub words: &'a [u64],
    /// Number of set bits in `words`.
    pub len: usize,
}

impl MaskedLane<'_> {
    /// A lane selecting nothing.
    pub const EMPTY: MaskedLane<'static> = MaskedLane {
        values: &[],
        words: &[],
        len: 0,
    };
}

/// Count/mean/M2 of the selected values of up to [`LANES`] lanes at once —
/// the Welch hot path. Entry `i` of the result belongs to `lanes[i]`;
/// entries past `lanes.len()` are empty accumulators.
///
/// Every lane runs exactly the expressions of [`MeanVariance::push`], in
/// order, over its selected ids in ascending order, so each result is
/// bitwise equal to a sequential accumulation — a one-lane call is the plain
/// single-sample form. Each step advances every active lane by one set bit
/// (trailing zeros, clear lowest bit; no per-lane value buffer): all lanes
/// together up to the shortest lane's length, then the longer lanes on,
/// still together, shortest first. Within a phase every active lane has pushed the
/// same number of values, so the lanes share that count.
///
/// # Panics
/// Panics if more than [`LANES`] lanes are given, or if a lane's `len`
/// exceeds its set bits or a set bit exceeds its `values`.
pub fn masked_mean_variance_lanes(lanes: &[MaskedLane<'_>]) -> [MeanVariance; LANES] {
    let k = lanes.len();
    assert!(k <= LANES, "at most {LANES} lanes, got {k}");
    debug_assert!(lanes.iter().all(|l| l
        .words
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum::<usize>()
        == l.len));
    // Lane slots sorted by length, so the active lanes of every phase are a
    // suffix of the sorted order.
    let mut by_len = [0usize; LANES];
    for (i, slot) in by_len.iter_mut().enumerate() {
        *slot = i;
    }
    by_len[..k].sort_unstable_by_key(|&i| lanes[i].len);
    let mut cursors = [Cursor::new(&MaskedLane::EMPTY); LANES];
    for (c, &i) in cursors.iter_mut().zip(&by_len[..k]) {
        *c = Cursor::new(&lanes[i]);
    }
    let mut mean = [0.0; LANES];
    let mut m2 = [0.0; LANES];
    let mut done = 0;
    for p in 0..k {
        let end = lanes[by_len[p]].len;
        if end > done {
            step_lanes(
                &mut cursors[p..k],
                &mut mean[p..k],
                &mut m2[p..k],
                done,
                end,
            );
            done = end;
        }
    }
    let mut out = [MeanVariance::new(); LANES];
    for (slot, &i) in by_len[..k].iter().enumerate() {
        out[i] = MeanVariance::from_parts(lanes[i].len as u64, mean[slot], m2[slot]);
    }
    out
}

/// One lane's position in its set-bit walk.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    values: &'a [f64],
    words: &'a [u64],
    /// Index of the word `bits` was taken from.
    word: usize,
    /// The not-yet-visited set bits of `words[word]`.
    bits: u64,
}

impl<'a> Cursor<'a> {
    fn new(lane: &MaskedLane<'a>) -> Self {
        Self {
            values: lane.values,
            words: lane.words,
            word: 0,
            bits: lane.words.first().copied().unwrap_or(0),
        }
    }

    /// The value of the next selected id (the caller guarantees one is left).
    #[inline(always)]
    fn next_value(&mut self) -> f64 {
        while self.bits == 0 {
            self.word += 1;
            self.bits = self.words[self.word];
        }
        let id = (self.word << 6) | self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        self.values[id]
    }
}

/// Advances every lane of `cursors` from `from` pushed values to `to`,
/// updating the matching running `mean` and `m2`; dispatches to a fixed lane
/// count so the inner loop is fully unrolled.
fn step_lanes(c: &mut [Cursor<'_>], mean: &mut [f64], m2: &mut [f64], from: usize, to: usize) {
    fn fixed<const W: usize>(
        c: &mut [Cursor<'_>],
        mean: &mut [f64],
        m2: &mut [f64],
        from: usize,
        to: usize,
    ) {
        let c: &mut [Cursor<'_>; W] = c.try_into().expect("lane count");
        let mut mu: [f64; W] = (&*mean).try_into().expect("lane count");
        let mut sq: [f64; W] = (&*m2).try_into().expect("lane count");
        // `MeanVariance::push` with its count `i` shared by every lane. The
        // step's values are gathered first, so the lanes' arithmetic runs
        // as packed `f64` operations against the one broadcast count.
        let mut n1 = from as f64;
        for i in from..to {
            let n = (i + 1) as f64;
            let mut x = [0.0; W];
            for l in 0..W {
                x[l] = c[l].next_value();
            }
            for l in 0..W {
                let delta = x[l] - mu[l];
                let delta_n = delta / n;
                let term1 = delta * delta_n * n1;
                mu[l] += delta_n;
                sq[l] += term1;
            }
            n1 = n;
        }
        mean.copy_from_slice(&mu);
        m2.copy_from_slice(&sq);
    }
    // One arm per active lane count `1..=LANES`.
    const _: () = assert!(LANES == 6);
    match c.len() {
        1 => fixed::<1>(c, mean, m2, from, to),
        2 => fixed::<2>(c, mean, m2, from, to),
        3 => fixed::<3>(c, mean, m2, from, to),
        4 => fixed::<4>(c, mean, m2, from, to),
        5 => fixed::<5>(c, mean, m2, from, to),
        6 => fixed::<6>(c, mean, m2, from, to),
        w => unreachable!("{w} lanes exceed LANES"),
    }
}

/// The two-sample KS distance `sup |F_marginal − F_conditional|` where the
/// conditional sample is `{order[k] : in_slice(order[k])}` with `m` members.
///
/// * `order` — the marginal argsort permutation of the attribute.
/// * `sorted_values` — the attribute's values in sorted order (the marginal
///   ECDF's backing array; `sorted_values[k]` is the value of `order[k]`).
/// * `m` — conditional sample size (the mask's popcount).
/// * `in_slice` — membership probe by object id.
///
/// Exactly equal to `Ecdf::ks_distance` on the materialised samples: the
/// walk visits the same distinct values in the same order and compares the
/// same step heights.
///
/// # Panics
/// Panics if `m == 0` or `order` is empty.
pub fn masked_ks_distance<F: Fn(u32) -> bool>(
    order: &[u32],
    sorted_values: &[f64],
    m: usize,
    in_slice: F,
) -> f64 {
    assert!(!order.is_empty(), "KS requires a non-empty marginal");
    assert!(m > 0, "KS requires a non-empty conditional sample");
    debug_assert_eq!(order.len(), sorted_values.len());
    let na = order.len() as f64;
    let nb = m as f64;
    let mut sup: f64 = 0.0;
    let mut selected = 0usize; // conditional count consumed so far
    let mut k = 0usize;
    while k < order.len() {
        let v = sorted_values[k];
        // Consume the whole tie group of v, counting its selected members.
        while k < order.len() && sorted_values[k] == v {
            if in_slice(order[k]) {
                selected += 1;
            }
            k += 1;
        }
        let d = (k as f64 / na - selected as f64 / nb).abs();
        if d > sup {
            sup = d;
        }
    }
    sup
}

/// KS test (statistic + asymptotic p-value) of a masked subsample against
/// its marginal; the p-value uses the same Numerical-Recipes small-sample
/// correction as [`crate::two_sample::ks_test_from_ecdfs`].
///
/// # Panics
/// Panics if `m == 0` or `order` is empty.
pub fn masked_ks_test<F: Fn(u32) -> bool>(
    order: &[u32],
    sorted_values: &[f64],
    m: usize,
    in_slice: F,
) -> KsResult {
    let d = masked_ks_distance(order, sorted_values, m, in_slice);
    let (na, nb) = (order.len() as f64, m as f64);
    let ne = (na * nb / (na + nb)).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    KsResult {
        statistic: d,
        p_value: Kolmogorov::survival(lambda),
    }
}

/// Mann–Whitney U of the **marginal** sample against a masked conditional
/// subsample, with midranks and tie-corrected variance — equivalent to
/// `mann_whitney_u(marginal_sorted, conditional)` without pooling, sorting
/// or allocating.
///
/// Pooled midranks are reconstructed per tie group: a group of `t` marginal
/// members of which `c` are selected occupies `t + c` pooled positions, so
/// its pooled midrank is `(2s + t + c + 1) / 2` where `s` is the number of
/// pooled observations before it. The marginal rank sum, tie term, variance
/// and continuity-corrected z then follow the exact expression order of
/// [`crate::two_sample::mann_whitney_u`], giving bitwise-equal results.
///
/// # Panics
/// Panics if `m == 0` or `order` is empty.
pub fn masked_mann_whitney<F: Fn(u32) -> bool>(
    order: &[u32],
    sorted_values: &[f64],
    m: usize,
    in_slice: F,
) -> MannWhitneyResult {
    assert!(!order.is_empty() && m > 0, "MWU requires non-empty samples");
    debug_assert_eq!(order.len(), sorted_values.len());
    let (na, nb) = (order.len() as f64, m as f64);
    let mut ra = 0.0f64; // marginal rank sum
    let mut tie_term = 0.0f64;
    let mut pooled_before = 0usize; // s: pooled observations before the group
    let mut k = 0usize;
    while k < order.len() {
        let v = sorted_values[k];
        let start = k;
        let mut c = 0usize;
        while k < order.len() && sorted_values[k] == v {
            if in_slice(order[k]) {
                c += 1;
            }
            k += 1;
        }
        let t = k - start;
        // Midrank over the pooled group of t + c observations, computed with
        // the same integer-to-f64 conversion as `rank::midranks`.
        let rank = (2 * pooled_before + t + c + 1) as f64 / 2.0;
        for _ in 0..t {
            ra += rank;
        }
        if t + c > 1 {
            let g = (t + c) as f64;
            tie_term += g * g * g - g;
        }
        pooled_before += t + c;
    }
    let u = ra - na * (na + 1.0) / 2.0;
    let mu = na * nb / 2.0;
    let n = na + nb;
    let sigma2 = na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if sigma2 <= 0.0 {
        return MannWhitneyResult {
            u,
            z: 0.0,
            p_value: 1.0,
        };
    }
    let diff = u - mu;
    let corrected = diff - 0.5 * diff.signum();
    let z = corrected / sigma2.sqrt();
    let p = 2.0 * Normal::STANDARD.survival(z.abs());
    MannWhitneyResult {
        u,
        z,
        p_value: p.min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdf::Ecdf;
    use crate::rank::argsort;
    use crate::two_sample::{ks_test_from_ecdfs, mann_whitney_u};

    /// Deterministic pseudo-random fixture: values (with ties) plus a
    /// selection predicate over object ids.
    fn fixture(n: usize, salt: u64) -> (Vec<f64>, Vec<bool>) {
        let mut x = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let values: Vec<f64> = (0..n)
            .map(|_| (next() % 37) as f64 / 7.0) // plenty of exact ties
            .collect();
        let selected: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
        (values, selected)
    }

    fn materialised(values: &[f64], selected: &[bool]) -> (Vec<u32>, Vec<f64>, Vec<f64>, usize) {
        let order = argsort(values);
        let sorted: Vec<f64> = order.iter().map(|&i| values[i as usize]).collect();
        let conditional: Vec<f64> = values
            .iter()
            .zip(selected)
            .filter(|&(_, &s)| s)
            .map(|(&v, _)| v)
            .collect();
        let m = conditional.len();
        (order, sorted, conditional, m)
    }

    /// Bitset words over `n` ids selecting `keep(id)`, plus the popcount.
    fn mask_words(n: usize, keep: impl Fn(usize) -> bool) -> (Vec<u64>, usize) {
        let mut words = vec![0u64; n.div_ceil(64)];
        let mut len = 0;
        for id in (0..n).filter(|&id| keep(id)) {
            words[id >> 6] |= 1 << (id & 63);
            len += 1;
        }
        (words, len)
    }

    /// Sequential `MeanVariance::push` over the selected ids, ascending.
    fn sequential(values: &[f64], words: &[u64]) -> MeanVariance {
        let mut m = MeanVariance::new();
        for id in (0..values.len()).filter(|&id| words[id >> 6] >> (id & 63) & 1 == 1) {
            m.push(values[id]);
        }
        m
    }

    /// Runs the lanes kernel over `(values, words)` pairs and asserts every
    /// lane bitwise equal to its sequential accumulation.
    fn assert_lanes_match(cases: &[(Vec<f64>, Vec<u64>, usize)]) {
        let lanes: Vec<MaskedLane<'_>> = cases
            .iter()
            .map(|(values, words, len)| MaskedLane {
                values,
                words,
                len: *len,
            })
            .collect();
        let got = masked_mean_variance_lanes(&lanes);
        for (i, (values, words, len)) in cases.iter().enumerate() {
            let want = sequential(values, words);
            assert_eq!(got[i].count(), *len as u64, "lane {i}");
            assert_eq!(got[i], want, "lane {i}");
            assert_eq!(got[i].mean().to_bits(), want.mean().to_bits(), "lane {i}");
            assert_eq!(
                got[i].variance().to_bits(),
                want.variance().to_bits(),
                "lane {i}"
            );
        }
        for unused in &got[cases.len()..] {
            assert_eq!(*unused, MeanVariance::new());
        }
    }

    /// A lane over `n` fixture values keeping ids with `keep(id)`.
    fn lane_case(n: usize, salt: u64, keep: impl Fn(usize) -> bool) -> (Vec<f64>, Vec<u64>, usize) {
        let (values, _) = fixture(n, salt);
        let (words, len) = mask_words(n, keep);
        (values, words, len)
    }

    #[test]
    fn lanes_match_sequential_for_every_lane_count() {
        for k in 1..=LANES {
            let cases: Vec<_> = (0..k)
                .map(|l| {
                    let (values, selected) = fixture(700, 40 + l as u64);
                    let (words, len) = mask_words(700, |id| selected[id]);
                    (values, words, len)
                })
                .collect();
            assert_lanes_match(&cases);
        }
    }

    #[test]
    fn lanes_match_sequential_for_ragged_lengths() {
        // Lengths 0, 1, 2 (twice), 100 and 300, in an order that is not
        // sorted by length.
        let cases = [
            lane_case(300, 1, |id| id % 3 == 0),
            lane_case(300, 2, |_| false),
            lane_case(300, 3, |id| id == 17),
            lane_case(300, 4, |id| id == 5 || id == 250),
            lane_case(300, 6, |_| true),
            lane_case(300, 8, |id| id < 2),
        ];
        assert_lanes_match(&cases[..LANES]);
        // All lanes of one length: a single lockstep phase.
        let equal: Vec<_> = (0..LANES)
            .map(|l| lane_case(256, 9 + l as u64, move |id| (id + l) % 4 == 0))
            .collect();
        assert!(equal.iter().all(|c| c.2 == 64));
        assert_lanes_match(&equal);
    }

    #[test]
    fn lanes_match_sequential_with_large_offsets() {
        // Values around 1e9 with a tiny spread: any deviation from the
        // sequential Welford order shows up in the cancellation.
        let cases: Vec<_> = (0..LANES)
            .map(|l| {
                let values: Vec<f64> = (0..500)
                    .map(|i| 1e9 + ((i * 31 + l * 7) % 13) as f64 * 1e-3 + l as f64)
                    .collect();
                let (words, len) = mask_words(500, |id| (id * (l + 3)) % 5 < 2);
                (values, words, len)
            })
            .collect();
        assert_lanes_match(&cases);
    }

    #[test]
    fn lanes_match_sequential_with_partial_last_word() {
        // n = 197: the last word holds 5 ids; every lane selects the very
        // last id so the walk must end exactly on the partial word.
        let cases: Vec<_> = (0..5)
            .map(|l| lane_case(197, 60 + l as u64, move |id| id == 196 || id % (l + 2) == 0))
            .collect();
        assert_lanes_match(&cases);
        assert_lanes_match(&[lane_case(70, 3, |id| id >= 64)]);
    }

    #[test]
    #[should_panic]
    fn lanes_reject_more_than_lane_width() {
        masked_mean_variance_lanes(&[MaskedLane::EMPTY; LANES + 1]);
    }

    #[test]
    fn masked_ks_matches_ecdf_merge_bitwise() {
        for salt in 1..20u64 {
            let (values, selected) = fixture(400, salt);
            let (order, sorted, conditional, m) = materialised(&values, &selected);
            if m == 0 {
                continue;
            }
            let marginal = Ecdf::new(&values);
            let cond = Ecdf::new(&conditional);
            let expected = marginal.ks_distance(&cond);
            let got = masked_ks_distance(&order, &sorted, m, |id| selected[id as usize]);
            assert_eq!(got, expected, "salt {salt}");

            let e = ks_test_from_ecdfs(&marginal, &cond);
            let g = masked_ks_test(&order, &sorted, m, |id| selected[id as usize]);
            assert_eq!(g.statistic, e.statistic, "salt {salt}");
            assert_eq!(g.p_value, e.p_value, "salt {salt}");
        }
    }

    #[test]
    fn masked_mwu_matches_pooled_midranks_bitwise() {
        for salt in 1..20u64 {
            let (values, selected) = fixture(300, salt);
            let (order, sorted, conditional, m) = materialised(&values, &selected);
            if m == 0 {
                continue;
            }
            let expected = mann_whitney_u(&sorted, &conditional);
            let got = masked_mann_whitney(&order, &sorted, m, |id| selected[id as usize]);
            assert_eq!(got.u, expected.u, "salt {salt}");
            assert_eq!(got.z, expected.z, "salt {salt}");
            assert_eq!(got.p_value, expected.p_value, "salt {salt}");
        }
    }

    #[test]
    fn continuous_values_also_match() {
        // No ties at all: every tie group has t = 1.
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64 + 0.5).collect();
        let selected: Vec<bool> = (0..200).map(|i| i % 4 == 1).collect();
        let (order, sorted, conditional, m) = materialised(&values, &selected);
        let marginal = Ecdf::new(&values);
        let cond = Ecdf::new(&conditional);
        assert_eq!(
            masked_ks_distance(&order, &sorted, m, |id| selected[id as usize]),
            marginal.ks_distance(&cond)
        );
        let e = mann_whitney_u(&sorted, &conditional);
        let g = masked_mann_whitney(&order, &sorted, m, |id| selected[id as usize]);
        assert_eq!(g.p_value, e.p_value);
    }

    #[test]
    fn full_selection_is_no_deviation() {
        let (values, _) = fixture(100, 3);
        let (order, sorted, _, _) = materialised(&values, &[true; 100]);
        let d = masked_ks_distance(&order, &sorted, 100, |_| true);
        assert_eq!(d, 0.0);
        let r = masked_mann_whitney(&order, &sorted, 100, |_| true);
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
    }

    #[test]
    fn disjoint_like_selection_has_max_ks() {
        // Selecting only the largest quartile: KS gap = 1 - 3/4 ... computed
        // against the marginal, sup is 0.75 at the quartile boundary.
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let selected: Vec<bool> = (0..100).map(|i| i >= 75).collect();
        let (order, sorted, _, m) = materialised(&values, &selected);
        let d = masked_ks_distance(&order, &sorted, m, |id| selected[id as usize]);
        assert!((d - 0.75).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_conditional() {
        masked_ks_distance(&[0, 1], &[1.0, 2.0], 0, |_| false);
    }
}
