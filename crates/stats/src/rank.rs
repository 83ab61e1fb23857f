//! Rank transforms with midrank tie handling.
//!
//! Used by the Spearman correlation and the Mann–Whitney U test, and by the
//! dataset sorted-index machinery (argsort).

/// Returns the indices that would sort `values` ascending (a stable argsort:
/// equal values keep their index order, and `-0.0` equals `+0.0`).
///
/// NaN values sort last (after all finite values and `+∞`), preserving
/// their relative order, so callers that pre-filter NaN see the natural
/// ordering.
pub fn argsort(values: &[f64]) -> Vec<u32> {
    let mut idx = Vec::new();
    argsort_into(values, &mut idx);
    idx
}

/// [`argsort`] into a caller-held buffer (overwritten), so a caller that
/// sorts on worker threads can keep every buffer on its own heap.
///
/// An unstable sort of the indices by `(sort_key, index)`: the pairs are
/// distinct, so it yields exactly the stable order, at about half the cost
/// of a stable sort under a float comparator. The keys are computed in the
/// comparison rather than stored beside the indices: a `(u64, u32)` pair
/// array is four times the output's size, and on a `2·10⁴ × 16` fit that
/// transient alone raised the peak RSS by about 0.7 MB.
pub fn argsort_into(values: &[f64], idx: &mut Vec<u32>) {
    assert!(
        values.len() <= u32::MAX as usize,
        "argsort index type is u32; dataset too large"
    );
    idx.clear();
    idx.extend(0..values.len() as u32);
    idx.sort_unstable_by_key(|&i| (sort_key(values[i as usize]), i));
}

/// An order-preserving `u64` image of `v`: `a < b` exactly when
/// `sort_key(a) < sort_key(b)`, with `-0.0` and `+0.0` sharing one key (as
/// `partial_cmp` ties them) and every NaN mapped above `+∞`.
fn sort_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    // `v + 0.0` folds −0.0 onto +0.0 and leaves every other value alone.
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Assigns 1-based midranks to `values`: tied observations all receive the
/// average of the rank positions they occupy.
///
/// # Panics
/// Panics if `values` contains NaN.
pub fn midranks(values: &[f64]) -> Vec<f64> {
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "midranks requires NaN-free input"
    );
    let order = argsort(values);
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        // Find the extent of the tie group [i, j].
        while j + 1 < order.len() && values[order[j + 1] as usize] == values[order[i] as usize] {
            j += 1;
        }
        // Average of ranks i+1 ..= j+1.
        let rank = (i + 1 + j + 1) as f64 / 2.0;
        for &o in &order[i..=j] {
            ranks[o as usize] = rank;
        }
        i = j + 1;
    }
    ranks
}

/// Tie-group sizes of a sample (sizes > 1 only), needed for tie-corrected
/// variance terms in rank tests.
pub fn tie_group_sizes(values: &[f64]) -> Vec<usize> {
    let order = argsort(values);
    let mut groups = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1] as usize] == values[order[i] as usize] {
            j += 1;
        }
        if j > i {
            groups.push(j - i + 1);
        }
        i = j + 1;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_basic() {
        assert_eq!(argsort(&[3.0, 1.0, 2.0]), vec![1, 2, 0]);
        assert_eq!(argsort(&[]), Vec::<u32>::new());
    }

    #[test]
    fn argsort_is_stable_on_ties() {
        assert_eq!(argsort(&[2.0, 1.0, 2.0, 1.0]), vec![1, 3, 0, 2]);
    }

    #[test]
    fn argsort_nan_last() {
        let idx = argsort(&[f64::NAN, 1.0, 0.5]);
        assert_eq!(idx, vec![2, 1, 0]);
    }

    #[test]
    fn argsort_ties_signed_zeros_and_orders_infinities() {
        let v = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NAN,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
        ];
        assert_eq!(argsort(&v), vec![4, 0, 1, 5, 6, 2, 3]);
    }

    #[test]
    fn midranks_no_ties() {
        assert_eq!(midranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn midranks_with_ties() {
        // Sorted: 1,2,2,3 → ranks 1, 2.5, 2.5, 4.
        assert_eq!(midranks(&[2.0, 1.0, 2.0, 3.0]), vec![2.5, 1.0, 2.5, 4.0]);
    }

    #[test]
    fn midranks_all_equal() {
        let r = midranks(&[7.0; 5]);
        assert!(r.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn midranks_sum_invariant() {
        // Σ ranks = n(n+1)/2 regardless of ties.
        let vals = [5.0, 3.0, 3.0, 3.0, 9.0, 1.0, 9.0];
        let n = vals.len() as f64;
        let sum: f64 = midranks(&vals).iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn tie_groups() {
        assert_eq!(tie_group_sizes(&[1.0, 2.0, 3.0]), Vec::<usize>::new());
        assert_eq!(tie_group_sizes(&[1.0, 1.0, 2.0, 2.0, 2.0]), vec![2, 3]);
    }
}
