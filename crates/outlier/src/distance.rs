//! Subspace-restricted distance computation.
//!
//! Subspace outlier ranking "simply restrict\[s\] the distance computation to
//! a selected subspace S, i.e., compute dist_S" (paper Section III-A). The
//! [`SubspaceView`] gathers the selected column slices once so that the
//! `O(N²)` kNN kernels never re-index through the attribute list.

use hics_data::Dataset;

/// A collection of points restricted to one subspace — the metric substrate
/// every neighbour-search backend ([`crate::index::SubspaceIndex`] users,
/// the brute scan and the VP-tree alike) is generic over.
///
/// The implementations are the borrowed [`SubspaceView`] (fit path: column
/// slices straight out of the [`Dataset`] or a mapped store), the owned
/// [`SubspaceLayout`] (columns gathered into private storage) and the
/// crate's column-page view (serving path: the columns section of a model
/// artifact, read in place). All compute distances through the **same
/// column kernels** (`sq_dist_cols`, `sq_dist_to_point_cols`), so swapping
/// one for another never changes a single bit of any score.
pub trait Points: Sync {
    /// Number of objects.
    fn n(&self) -> usize;

    /// Subspace dimensionality.
    fn dims(&self) -> usize;

    /// Coordinate of object `i` on the `t`-th subspace axis.
    fn coord(&self, i: usize, t: usize) -> f64;

    /// Squared Euclidean distance between objects `a` and `b`.
    fn sq_dist(&self, a: usize, b: usize) -> f64;

    /// Squared Euclidean distance between an external query point (in
    /// subspace axis order) and object `j`, computed query-minus-object so a
    /// query that coincides bitwise with a stored object reproduces the
    /// in-sample distances bit-for-bit.
    fn sq_dist_to_point(&self, j: usize, point: &[f64]) -> f64;

    /// Copies object `i`'s subspace coordinates into `out` (cleared first) —
    /// the scratch-reusing gather of the indexed in-sample batch path.
    fn gather_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        for t in 0..self.dims() {
            out.push(self.coord(i, t));
        }
    }
}

/// A borrowed view of a dataset restricted to a subset of attributes.
#[derive(Debug, Clone)]
pub struct SubspaceView<'a> {
    cols: Vec<&'a [f64]>,
    n: usize,
}

impl<'a> SubspaceView<'a> {
    /// Creates a view over the given attribute indices.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains an out-of-range index.
    pub fn new(data: &'a Dataset, dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty(),
            "subspace view needs at least one attribute"
        );
        let cols: Vec<&[f64]> = dims.iter().map(|&j| data.col(j)).collect();
        Self { n: data.n(), cols }
    }

    /// Creates a view over a gathered [`hics_data::ColumnsView`] (the
    /// out-of-core fit path: column slices borrowed from a memory-mapped
    /// store instead of an owned dataset).
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains an out-of-range index.
    pub fn from_columns_view(view: &'a hics_data::ColumnsView<'a>, dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty(),
            "subspace view needs at least one attribute"
        );
        let cols: Vec<&[f64]> = dims.iter().map(|&j| view.col(j)).collect();
        Self { n: view.n(), cols }
    }
}

/// Squared Euclidean distance between objects `a` and `b` over subspace
/// columns `cols`, accumulated in axis order — the one in-sample distance
/// expression of every [`Points`] implementation.
#[inline]
fn sq_dist_cols<'c>(cols: impl IntoIterator<Item = &'c [f64]>, a: usize, b: usize) -> f64 {
    let mut acc = 0.0;
    for c in cols {
        let d = c[a] - c[b];
        acc += d * d;
    }
    acc
}

/// Squared Euclidean distance between an external query point (`point[t]`
/// pairs with `cols[t]`) and object `j`. The difference is taken
/// query-minus-object, the orientation of [`sq_dist_cols`], so a query that
/// coincides bitwise with a stored object reproduces the in-sample
/// distances bit-for-bit.
#[inline]
fn sq_dist_to_point_cols<'c>(
    cols: impl IntoIterator<Item = &'c [f64]>,
    j: usize,
    point: &[f64],
) -> f64 {
    let mut acc = 0.0;
    for (c, &p) in cols.into_iter().zip(point) {
        let d = p - c[j];
        acc += d * d;
    }
    acc
}

impl Points for SubspaceView<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn dims(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn coord(&self, i: usize, t: usize) -> f64 {
        self.cols[t][i]
    }

    #[inline]
    fn sq_dist(&self, a: usize, b: usize) -> f64 {
        sq_dist_cols(self.cols.iter().copied(), a, b)
    }

    #[inline]
    fn sq_dist_to_point(&self, j: usize, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.cols.len());
        sq_dist_to_point_cols(self.cols.iter().copied(), j, point)
    }
}

/// An **owned** per-subspace gather of the selected columns: contiguous
/// coordinate slices in private storage, for callers that hold no dataset
/// or artifact to borrow from.
///
/// Distances run through the same column kernels as [`SubspaceView`], so a
/// layout gathered from the same dataset produces bit-identical distances.
#[derive(Debug, Clone)]
pub struct SubspaceLayout {
    cols: Vec<Vec<f64>>,
    n: usize,
}

impl SubspaceLayout {
    /// Gathers the columns of `dims` out of `data` into owned storage.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains an out-of-range index.
    pub fn gather(data: &Dataset, dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty(),
            "subspace layout needs at least one attribute"
        );
        Self::from_cols(dims.iter().map(|&j| data.col(j).to_vec()).collect())
    }

    /// Builds a layout from already-gathered subspace columns (axis
    /// order).
    ///
    /// # Panics
    /// Panics if `cols` is empty or ragged.
    pub fn from_cols(cols: Vec<Vec<f64>>) -> Self {
        assert!(
            !cols.is_empty(),
            "subspace layout needs at least one attribute"
        );
        let n = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == n),
            "subspace layout columns must have equal lengths"
        );
        Self { cols, n }
    }
}

impl Points for SubspaceLayout {
    fn n(&self) -> usize {
        self.n
    }

    fn dims(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn coord(&self, i: usize, t: usize) -> f64 {
        self.cols[t][i]
    }

    #[inline]
    fn sq_dist(&self, a: usize, b: usize) -> f64 {
        sq_dist_cols(self.cols.iter().map(Vec::as_slice), a, b)
    }

    #[inline]
    fn sq_dist_to_point(&self, j: usize, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.cols.len());
        sq_dist_to_point_cols(self.cols.iter().map(Vec::as_slice), j, point)
    }
}

/// One subspace of column pages read in place: `pages` holds columns of
/// `n` values one after another (a model artifact's columns section, see
/// `hics_data::ModelArtifact::columns`), and axis `t` is the column
/// starting at `starts[t]`. The query engine builds one per query and
/// subspace, without allocating, so serving copies no column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnPages<'a> {
    pages: &'a [f64],
    starts: &'a [usize],
    n: usize,
}

impl<'a> ColumnPages<'a> {
    /// The subspace whose axes start at `starts` in `pages`.
    pub(crate) fn new(pages: &'a [f64], n: usize, starts: &'a [usize]) -> Self {
        debug_assert!(starts.iter().all(|&s| s + n <= pages.len()));
        Self { pages, starts, n }
    }

    /// The subspace's columns, in axis order.
    #[inline]
    fn cols(&self) -> impl Iterator<Item = &'a [f64]> + '_ {
        let (pages, n) = (self.pages, self.n);
        self.starts.iter().map(move |&s| &pages[s..s + n])
    }
}

impl Points for ColumnPages<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn dims(&self) -> usize {
        self.starts.len()
    }

    #[inline]
    fn coord(&self, i: usize, t: usize) -> f64 {
        debug_assert!(i < self.n);
        self.pages[self.starts[t] + i]
    }

    #[inline]
    fn sq_dist(&self, a: usize, b: usize) -> f64 {
        sq_dist_cols(self.cols(), a, b)
    }

    #[inline]
    fn sq_dist_to_point(&self, j: usize, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.starts.len());
        sq_dist_to_point_cols(self.cols(), j, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(v: &SubspaceView<'_>, a: usize, b: usize) -> f64 {
        v.sq_dist(a, b).sqrt()
    }

    fn data() -> Dataset {
        Dataset::from_rows(&[
            vec![0.0, 0.0, 5.0],
            vec![3.0, 4.0, 5.0],
            vec![6.0, 8.0, 1.0],
        ])
    }

    #[test]
    fn full_space_distance() {
        let d = data();
        let v = SubspaceView::new(&d, &[0, 1, 2]);
        assert_eq!(dist(&v, 0, 1), 5.0);
        assert_eq!(v.dims(), 3);
        assert_eq!(v.n(), 3);
    }

    #[test]
    fn subspace_distance_ignores_other_attributes() {
        let d = data();
        // Only attribute 2: |5 - 5| = 0 even though rows differ elsewhere.
        let v = SubspaceView::new(&d, &[2]);
        assert_eq!(dist(&v, 0, 1), 0.0);
        assert_eq!(dist(&v, 1, 2), 4.0);
    }

    #[test]
    fn distance_is_symmetric_and_reflexive() {
        let d = data();
        let v = SubspaceView::new(&d, &[0, 1]);
        for a in 0..3 {
            assert_eq!(dist(&v, a, a), 0.0);
            for b in 0..3 {
                assert_eq!(dist(&v, a, b), dist(&v, b, a));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let d = data();
        let v = SubspaceView::new(&d, &[0, 1, 2]);
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    assert!(dist(&v, a, c) <= dist(&v, a, b) + dist(&v, b, c) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn point_distance_matches_in_sample_distance() {
        let d = data();
        let v = SubspaceView::new(&d, &[0, 1, 2]);
        for a in 0..3 {
            let row = d.row(a);
            for b in 0..3 {
                assert_eq!(v.sq_dist_to_point(b, &row), v.sq_dist(a, b));
            }
        }
    }

    #[test]
    fn point_distance_for_external_query() {
        let d = data();
        let v = SubspaceView::new(&d, &[0, 1]);
        // Query (3, 0) against object 0 = (0, 0): distance 3.
        assert_eq!(v.sq_dist_to_point(0, &[3.0, 0.0]), 9.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_dims() {
        let d = data();
        SubspaceView::new(&d, &[]);
    }

    #[test]
    fn layout_distances_match_view_bitwise() {
        let g = hics_data::SyntheticConfig::new(120, 5)
            .with_seed(17)
            .generate();
        let dims = [0, 2, 4];
        let view = SubspaceView::new(&g.dataset, &dims);
        let layout = SubspaceLayout::gather(&g.dataset, &dims);
        assert_eq!(Points::n(&layout), Points::n(&view));
        assert_eq!(Points::dims(&layout), Points::dims(&view));
        let mut row = Vec::new();
        for a in (0..120).step_by(7) {
            layout.gather_into(a, &mut row);
            for b in 0..120 {
                assert_eq!(Points::sq_dist(&layout, a, b), view.sq_dist(a, b));
                assert_eq!(
                    Points::sq_dist_to_point(&layout, b, &row),
                    view.sq_dist_to_point(b, &row)
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn layout_rejects_empty_dims() {
        let d = data();
        SubspaceLayout::gather(&d, &[]);
    }
}
