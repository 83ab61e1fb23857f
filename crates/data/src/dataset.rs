//! Column-major numeric dataset storage.
//!
//! The HiCS algorithm is column-oriented throughout: subspace slices select
//! contiguous blocks of *per-attribute sorted indices*, statistical tests
//! consume single columns, and subspace-restricted distances touch only the
//! selected columns. A `Vec<Vec<f64>>` of columns keeps every hot loop
//! cache-friendly without the complexity of a strided matrix type.

use crate::index::RankIndex;

/// An immutable, column-major table of `N` objects with `D` real-valued
/// attributes (the database `DB` of the paper, Section III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    cols: Vec<Vec<f64>>,
    names: Vec<String>,
}

impl Dataset {
    /// Builds a dataset from columns. Attribute names are generated as
    /// `attr0..attrD`.
    ///
    /// # Panics
    /// Panics if columns are empty, have unequal lengths, or contain
    /// non-finite values.
    pub fn from_columns(cols: Vec<Vec<f64>>) -> Self {
        let names = (0..cols.len()).map(|j| format!("attr{j}")).collect();
        Self::from_columns_named(cols, names)
    }

    /// Builds a dataset from columns with explicit attribute names.
    ///
    /// # Panics
    /// Panics if shape or name counts are inconsistent or values are
    /// non-finite (HiCS' statistical tests require finite reals; impute or
    /// drop missing values before construction).
    pub fn from_columns_named(cols: Vec<Vec<f64>>, names: Vec<String>) -> Self {
        assert!(!cols.is_empty(), "dataset needs at least one attribute");
        assert_eq!(cols.len(), names.len(), "one name per attribute required");
        let n = cols[0].len();
        assert!(n > 0, "dataset needs at least one object");
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), n, "column {j} has length {} != {n}", c.len());
            assert!(
                c.iter().all(|v| v.is_finite()),
                "column {j} contains non-finite values"
            );
        }
        Self { cols, names }
    }

    /// Builds a dataset from row vectors.
    ///
    /// # Panics
    /// Panics if rows are empty or ragged, or contain non-finite values.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "dataset needs at least one object");
        let d = rows[0].len();
        assert!(d > 0, "dataset needs at least one attribute");
        let mut cols = vec![Vec::with_capacity(rows.len()); d];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), d, "row {i} has length {} != {d}", row.len());
            for (j, &v) in row.iter().enumerate() {
                cols[j].push(v);
            }
        }
        Self::from_columns(cols)
    }

    /// Number of objects `N`.
    pub fn n(&self) -> usize {
        self.cols[0].len()
    }

    /// Number of attributes `D`.
    pub fn d(&self) -> usize {
        self.cols.len()
    }

    /// The full column of attribute `j`.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.cols[j]
    }

    /// All columns.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Mutable column access for in-place transforms inside the crate (the
    /// values must stay finite).
    pub(crate) fn columns_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.cols
    }

    /// Value of object `i` in attribute `j`.
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.cols[j][i]
    }

    /// Attribute names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Copies row `i` into a fresh vector (diagnostics / examples only; hot
    /// paths read columns directly).
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Per-attribute `(min, max)` ranges.
    pub fn ranges(&self) -> Vec<(f64, f64)> {
        self.cols
            .iter()
            .map(|c| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &v in c {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                (lo, hi)
            })
            .collect()
    }

    /// Builds the per-attribute rank index (argsort + inverse ranks) used by
    /// the adaptive subspace slices (paper Section IV-A: "we precalculate
    /// one-dimensional index structures for all attributes").
    pub fn rank_index(&self) -> RankIndex {
        RankIndex::build(self)
    }

    /// Returns a new dataset restricted to the given attribute indices, in
    /// the given order (used by the PCA baseline and examples).
    ///
    /// # Panics
    /// Panics if any index is out of range or `attrs` is empty.
    pub fn project(&self, attrs: &[usize]) -> Dataset {
        assert!(!attrs.is_empty(), "projection needs at least one attribute");
        let cols = attrs.iter().map(|&j| self.cols[j].clone()).collect();
        let names = attrs.iter().map(|&j| self.names[j].clone()).collect();
        Self::from_columns_named(cols, names)
    }

    /// Min-max normalises every attribute to `[0, 1]` in place. Constant
    /// attributes map to `0.0`.
    ///
    /// LOF and the grid-based competitors are scale-sensitive; the paper's
    /// datasets are normalised before ranking so every attribute contributes
    /// comparably to subspace distances.
    pub fn normalize_min_max(&mut self) {
        for c in &mut self.cols {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in c.iter() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let width = hi - lo;
            if width > 0.0 {
                for v in c.iter_mut() {
                    *v = (*v - lo) / width;
                }
            } else {
                for v in c.iter_mut() {
                    *v = 0.0;
                }
            }
        }
    }

    /// Z-score standardises every attribute in place (mean 0, sd 1).
    /// Constant attributes map to `0.0`.
    pub fn normalize_z_score(&mut self) {
        for c in &mut self.cols {
            let m = hics_stats::Moments::from_slice(c);
            let mean = m.mean();
            let sd = m.population_variance().sqrt();
            if sd > 0.0 {
                for v in c.iter_mut() {
                    *v = (*v - mean) / sd;
                }
            } else {
                for v in c.iter_mut() {
                    *v = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(&[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]])
    }

    #[test]
    fn shape_and_access() {
        let d = small();
        assert_eq!(d.n(), 3);
        assert_eq!(d.d(), 2);
        assert_eq!(d.value(1, 0), 2.0);
        assert_eq!(d.value(2, 1), 30.0);
        assert_eq!(d.col(1), &[10.0, 20.0, 30.0]);
        assert_eq!(d.row(0), vec![1.0, 10.0]);
        assert_eq!(d.names(), &["attr0".to_string(), "attr1".to_string()]);
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let a = small();
        let b = Dataset::from_columns(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn ranges() {
        let d = small();
        assert_eq!(d.ranges(), vec![(1.0, 3.0), (10.0, 30.0)]);
    }

    #[test]
    fn project_reorders() {
        let d = small();
        let p = d.project(&[1, 0]);
        assert_eq!(p.col(0), &[10.0, 20.0, 30.0]);
        assert_eq!(p.names()[0], "attr1");
    }

    #[test]
    fn min_max_normalization() {
        let mut d = small();
        d.normalize_min_max();
        assert_eq!(d.col(0), &[0.0, 0.5, 1.0]);
        assert_eq!(d.col(1), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_constant_column() {
        let mut d = Dataset::from_columns(vec![vec![5.0, 5.0, 5.0]]);
        d.normalize_min_max();
        assert_eq!(d.col(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn z_score_normalization() {
        let mut d = small();
        d.normalize_z_score();
        let c = d.col(0);
        let mean: f64 = c.iter().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = c.iter().map(|v| v * v).sum::<f64>() / 3.0;
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_ragged_rows() {
        Dataset::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        Dataset::from_columns(vec![vec![1.0, f64::NAN]]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Dataset::from_columns(Vec::new());
    }
}
