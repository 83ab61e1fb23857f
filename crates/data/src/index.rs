//! Per-attribute rank index structures.
//!
//! Paper, Section IV-A: *"instead of defining the condition intervals
//! [l_i, r_i] directly in the domain of the underlying variables x_{s_i}, we
//! precalculate one-dimensional index structures for all attributes of the
//! database. This allows to perform the selection over the sorted indices."*
//!
//! [`RankIndex`] stores, per attribute, **both directions** of that index:
//!
//! * the argsort permutation (`order`): position → object id, so a slice
//!   condition is a contiguous block `order[start..start+len]`;
//! * its inverse (`rank`): object id → position, so testing whether an
//!   object satisfies a condition is one `O(1)` rank comparison
//!   `start <= rank[id] < start + len` — the probe that lets
//!   [`crate::bitset::SliceMask::retain_rank_window`] intersect conditions
//!   without touching unselected objects, and that lets the deviation tests
//!   walk a conditional sample in sorted order without re-sorting it.

use crate::bitset::SliceMask;
use crate::dataset::Dataset;
use hics_stats::rank::argsort;

/// Argsort permutation plus inverse ranks for every attribute of a dataset.
#[derive(Debug, Clone)]
pub struct RankIndex {
    order: Vec<Vec<u32>>,
    rank: Vec<Vec<u32>>,
    n: usize,
}

/// Inverts one argsort permutation into a rank array.
fn invert(order: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; order.len()];
    for (pos, &id) in order.iter().enumerate() {
        rank[id as usize] = pos as u32;
    }
    rank
}

impl RankIndex {
    /// Builds the index for all attributes (`O(D · N log N)`).
    pub fn build(data: &Dataset) -> Self {
        Self::build_columns(data.columns().iter().map(|c| c.as_slice()))
    }

    /// Builds the index for an explicit set of columns (used by consumers
    /// that only need a subspace projection, e.g. the RIS neighbourhood
    /// counter's box prefilter).
    ///
    /// # Panics
    /// Panics if columns have unequal lengths or there are none.
    pub fn build_columns<'c>(columns: impl IntoIterator<Item = &'c [f64]>) -> Self {
        let order: Vec<Vec<u32>> = columns.into_iter().map(argsort).collect();
        assert!(!order.is_empty(), "rank index needs at least one column");
        let n = order[0].len();
        assert!(
            order.iter().all(|o| o.len() == n),
            "all columns must have equal length"
        );
        let rank = order.iter().map(|o| invert(o)).collect();
        Self { order, rank, n }
    }

    /// Rebuilds the index from stored argsort permutations (the model
    /// artifact persists only the `order` direction; the inverse ranks are
    /// recomputed here in `O(D·N)`).
    ///
    /// # Panics
    /// Panics if `order` is empty, columns have unequal lengths, or any
    /// column is not a permutation of `0..n` (an out-of-range id panics on
    /// the bounds check; duplicates leave some rank unset and are caught by
    /// the debug assertion). Callers deserialising untrusted bytes must
    /// validate first (see `hics-data`'s model loader).
    pub fn from_order(order: Vec<Vec<u32>>) -> Self {
        assert!(!order.is_empty(), "rank index needs at least one column");
        let n = order[0].len();
        assert!(
            order.iter().all(|o| o.len() == n),
            "all columns must have equal length"
        );
        let rank: Vec<Vec<u32>> = order.iter().map(|o| invert(o)).collect();
        debug_assert!(order.iter().zip(&rank).all(|(o, r)| o
            .iter()
            .enumerate()
            .all(|(p, &id)| r[id as usize] == p as u32)));
        Self { order, rank, n }
    }

    /// Number of objects indexed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of attributes indexed.
    pub fn d(&self) -> usize {
        self.order.len()
    }

    /// The ascending-order object ids of attribute `j`: `order(j)[0]` is the
    /// object with the smallest value in attribute `j`.
    pub fn order(&self, j: usize) -> &[u32] {
        &self.order[j]
    }

    /// The inverse permutation of attribute `j`: `rank(j)[id]` is the sorted
    /// position of object `id`.
    pub fn rank(&self, j: usize) -> &[u32] {
        &self.rank[j]
    }

    /// A contiguous index block `[start, start + len)` of attribute `j` — the
    /// object ids whose attribute-`j` values fall in one adaptive slice
    /// condition.
    ///
    /// # Panics
    /// Panics if the window exceeds `N`.
    pub fn block(&self, j: usize, start: usize, len: usize) -> &[u32] {
        &self.order[j][start..start + len]
    }

    /// The rank window `[start, end)` of attribute `j` covering exactly the
    /// objects with `lo <= value <= hi`, found by binary search over the
    /// sorted order (`col` must be the column the index was built from).
    ///
    /// # Panics
    /// Panics if `col` has the wrong length.
    fn value_window(&self, j: usize, col: &[f64], lo: f64, hi: f64) -> (usize, usize) {
        assert_eq!(col.len(), self.n, "column/index length mismatch");
        let order = &self.order[j];
        let start = order.partition_point(|&id| col[id as usize] < lo);
        let end = order.partition_point(|&id| col[id as usize] <= hi);
        (start, end)
    }

    /// Intersects per-attribute value windows `|value − center| <= radius`
    /// over the listed attributes into `mask` (cleared first): the
    /// block-selection kernel of the RIS neighbourhood counter. `cols[k]`
    /// must be the column attribute `k` of this index was built from.
    ///
    /// The first window fills the mask from its sorted block (`O(window)`);
    /// every further window is a rank-probe refinement (`O(popcount)`).
    ///
    /// # Panics
    /// Panics if `cols` is empty or does not match the index.
    pub fn fill_box_mask(&self, mask: &mut SliceMask, cols: &[&[f64]], center: usize, radius: f64) {
        assert!(!cols.is_empty(), "box mask needs at least one attribute");
        assert_eq!(cols.len(), self.d(), "one column per indexed attribute");
        mask.clear();
        for (j, col) in cols.iter().enumerate() {
            let c = col[center];
            let (lo, hi) = self.value_window(j, col, c - radius, c + radius);
            if j == 0 {
                mask.fill_from_ids(&self.order[j][lo..hi]);
            } else {
                mask.retain_rank_window(&self.rank[j], lo as u32, hi as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_order_per_attribute() {
        let data = Dataset::from_columns(vec![vec![3.0, 1.0, 2.0], vec![0.5, 0.7, 0.1]]);
        let idx = data.rank_index();
        assert_eq!(idx.n(), 3);
        assert_eq!(idx.d(), 2);
        assert_eq!(idx.order(0), &[1, 2, 0]);
        assert_eq!(idx.order(1), &[2, 0, 1]);
    }

    #[test]
    fn rank_is_inverse_of_order() {
        let data = Dataset::from_columns(vec![
            vec![0.9, 0.1, 0.5, 0.3, 0.7],
            vec![5.0, 4.0, 3.0, 2.0, 1.0],
        ]);
        let idx = data.rank_index();
        for j in 0..idx.d() {
            for (pos, &id) in idx.order(j).iter().enumerate() {
                assert_eq!(idx.rank(j)[id as usize] as usize, pos);
            }
        }
        // Explicit spot check: attribute 1 is reversed.
        assert_eq!(idx.rank(1), &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn blocks_are_windows_of_sorted_order() {
        let data = Dataset::from_columns(vec![vec![5.0, 4.0, 3.0, 2.0, 1.0]]);
        let idx = data.rank_index();
        assert_eq!(idx.block(0, 0, 2), &[4, 3]);
        assert_eq!(idx.block(0, 3, 2), &[1, 0]);
    }

    #[test]
    fn block_values_are_contiguous_in_value_space() {
        let col = vec![0.9, 0.1, 0.5, 0.3, 0.7];
        let data = Dataset::from_columns(vec![col.clone()]);
        let idx = data.rank_index();
        let block = idx.block(0, 1, 3);
        let vals: Vec<f64> = block.iter().map(|&i| col[i as usize]).collect();
        // The slice selects a value-contiguous range: [0.3, 0.5, 0.7].
        assert_eq!(vals, vec![0.3, 0.5, 0.7]);
    }

    #[test]
    fn ties_keep_all_duplicates_addressable() {
        let data = Dataset::from_columns(vec![vec![1.0, 1.0, 1.0, 0.0]]);
        let idx = data.rank_index();
        assert_eq!(idx.order(0)[0], 3);
        assert_eq!(idx.order(0).len(), 4);
    }

    #[test]
    fn value_window_selects_inclusive_range() {
        let col = vec![0.9, 0.1, 0.5, 0.3, 0.7];
        let data = Dataset::from_columns(vec![col.clone()]);
        let idx = data.rank_index();
        let (lo, hi) = idx.value_window(0, &col, 0.3, 0.7);
        let ids: Vec<u32> = idx.order(0)[lo..hi].to_vec();
        assert_eq!(ids, vec![3, 2, 4]); // values 0.3, 0.5, 0.7
                                        // Empty window.
        let (lo, hi) = idx.value_window(0, &col, 0.91, 0.95);
        assert_eq!(lo, hi);
    }

    #[test]
    fn box_mask_matches_brute_force() {
        let cols = vec![
            vec![0.1, 0.4, 0.45, 0.8, 0.5, 0.2],
            vec![0.3, 0.35, 0.9, 0.4, 0.38, 0.31],
        ];
        let data = Dataset::from_columns(cols.clone());
        let idx = data.rank_index();
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut mask = SliceMask::new(data.n());
        for center in 0..data.n() {
            idx.fill_box_mask(&mut mask, &col_refs, center, 0.1);
            let expected: Vec<u32> = (0..data.n() as u32)
                .filter(|&j| {
                    cols.iter()
                        .all(|c| (c[j as usize] - c[center]).abs() <= 0.1)
                })
                .collect();
            assert_eq!(mask.iter().collect::<Vec<_>>(), expected, "center {center}");
        }
    }
}
