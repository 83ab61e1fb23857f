//! Equal-width grid histograms over axis-parallel subspaces.
//!
//! This is the density-estimation substrate of the **Enclus** competitor
//! (Cheng et al., KDD 1999): the data space is partitioned into `ξ^d`
//! equal-width cells and subspace quality is derived from the cell-occupancy
//! distribution. HiCS itself deliberately avoids fixed grids (Section II),
//! which is exactly the contrast the evaluation demonstrates.

/// A `d`-dimensional equal-width grid over selected columns of a dataset.
///
/// Cells are indexed in row-major order over the per-dimension bin indices.
/// Only non-empty cells are stored (sparse representation), since for high
/// `d` the full grid of `bins^d` cells would not fit in memory — the sparse
/// map can never exceed `N` entries.
#[derive(Debug, Clone)]
pub struct GridHistogram {
    counts: std::collections::HashMap<u64, u32>,
    total: u64,
    bins: usize,
    dims: usize,
}

impl GridHistogram {
    /// Builds a histogram from column slices (`columns[j][i]` = value of
    /// object `i` in dimension `j`) with per-dimension `[min, max]` ranges.
    ///
    /// Values on the upper boundary fall into the last bin. Values outside
    /// the range are clamped (robust to floating-point wobble).
    ///
    /// # Panics
    /// Panics if `columns` is empty, `bins == 0`, columns have unequal
    /// lengths, or `ranges.len() != columns.len()`.
    pub fn build(columns: &[&[f64]], ranges: &[(f64, f64)], bins: usize) -> Self {
        assert!(!columns.is_empty(), "histogram needs at least one column");
        assert!(bins > 0, "bins must be positive");
        assert_eq!(columns.len(), ranges.len(), "one range per column required");
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        let dims = columns.len();
        // Cell keys are packed bin indices; guard the packing width.
        let bits_per_dim = (usize::BITS - (bins - 1).leading_zeros()).max(1) as usize;
        assert!(
            bits_per_dim * dims <= 64,
            "grid of {bins} bins in {dims} dims exceeds the 64-bit cell key"
        );
        let mut counts = std::collections::HashMap::new();
        for i in 0..n {
            let mut key: u64 = 0;
            for (c, &(lo, hi)) in columns.iter().zip(ranges) {
                let width = hi - lo;
                let bin = if width <= 0.0 {
                    0
                } else {
                    (((c[i] - lo) / width * bins as f64) as i64).clamp(0, bins as i64 - 1) as u64
                };
                key = (key << bits_per_dim) | bin;
            }
            *counts.entry(key).or_insert(0) += 1;
        }
        Self {
            counts,
            total: n as u64,
            bins,
            dims,
        }
    }

    /// Total number of objects.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Grid resolution per dimension.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Dimensionality of the grid.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Shannon entropy (in bits) of the cell-occupancy distribution:
    /// `H = −Σ p(cell) log₂ p(cell)` over non-empty cells (empty cells
    /// contribute 0 by the usual `0·log 0 = 0` convention).
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut h = 0.0;
        for &c in self.counts.values() {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_has_max_entropy() {
        // 4 points in 4 distinct cells of a 1-d 4-bin grid → H = 2 bits.
        let col = [0.1, 0.3, 0.6, 0.9];
        let h = GridHistogram::build(&[&col], &[(0.0, 1.0)], 4);
        assert_eq!(h.counts.len(), 4);
        assert!((h.entropy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn concentrated_grid_has_zero_entropy() {
        let col = [0.1, 0.12, 0.13, 0.11];
        let h = GridHistogram::build(&[&col], &[(0.0, 1.0)], 4);
        assert_eq!(h.counts.len(), 1);
        assert_eq!(h.entropy(), 0.0);
    }

    #[test]
    fn two_dimensional_cells() {
        // Four points in the four corners of the unit square, 2×2 grid.
        let x = [0.1, 0.9, 0.1, 0.9];
        let y = [0.1, 0.1, 0.9, 0.9];
        let h = GridHistogram::build(&[&x, &y], &[(0.0, 1.0), (0.0, 1.0)], 2);
        assert_eq!(h.counts.len(), 4);
        assert!((h.entropy() - 2.0).abs() < 1e-12);
        assert_eq!(h.dims(), 2);
    }

    #[test]
    fn upper_boundary_goes_to_last_bin() {
        let col = [1.0];
        let h = GridHistogram::build(&[&col], &[(0.0, 1.0)], 10);
        assert_eq!(h.counts.len(), 1);
    }

    #[test]
    fn degenerate_range_single_bin() {
        let col = [3.0, 3.0, 3.0];
        let h = GridHistogram::build(&[&col], &[(3.0, 3.0)], 5);
        assert_eq!(h.counts.len(), 1);
        assert_eq!(h.entropy(), 0.0);
    }

    #[test]
    fn entropy_monotone_under_spreading() {
        // Spreading mass over more cells increases entropy.
        let tight = [0.1, 0.1, 0.1, 0.6];
        let spread = [0.1, 0.35, 0.6, 0.85];
        let ht = GridHistogram::build(&[&tight], &[(0.0, 1.0)], 4);
        let hs = GridHistogram::build(&[&spread], &[(0.0, 1.0)], 4);
        assert!(hs.entropy() > ht.entropy());
    }

    #[test]
    fn probabilities_sum_to_one() {
        let col = [0.1, 0.2, 0.5, 0.9, 0.95];
        let h = GridHistogram::build(&[&col], &[(0.0, 1.0)], 3);
        let n = h.total() as f64;
        let s: f64 = h.counts.values().map(|&c| c as f64 / n).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
