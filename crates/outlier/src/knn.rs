//! Brute-force k-nearest-neighbour search with LOF-style tie handling.
//!
//! LOF's *k-distance neighbourhood* `N_k(p)` contains **every** object whose
//! distance to `p` does not exceed the k-distance — with ties this can be
//! more than `k` objects, and the original definition (Breunig et al. 2000)
//! depends on that. The kNN kernel therefore returns the full tied
//! neighbourhood, not an arbitrary truncation.
//!
//! Brute force is the *default* here — subspace dimensionality is small
//! (2–5), queries are batched over all `N` objects, and the paper's own
//! complexity discussion assumes the quadratic LOF kernel (Section V-A-2) —
//! but every entry point is generic over [`Points`], and the index-backed
//! counterparts in [`crate::index`] produce bit-identical neighbourhoods in
//! `O(log N)` expected time per query.
//!
//! All-points passes inside the crate return a `FlatNeighborhoods`: the
//! k-distances plus every neighbourhood in CSR form (one flat neighbour
//! array, one flat distance array and per-neighbourhood offsets), so a
//! pass over `N` objects allocates a handful of arrays instead of `N`
//! neighbourhoods.

use crate::distance::Points;
use crate::parallel::par_map;

/// The k-distance neighbourhood of one query object.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighborhood {
    /// Object ids with `dist <= k_distance`, excluding the query itself,
    /// in ascending distance order.
    pub neighbors: Vec<u32>,
    /// Distances aligned with `neighbors`.
    pub distances: Vec<f64>,
    /// The k-distance of the query (distance to its k-th neighbour).
    pub k_distance: f64,
}

/// Computes the k-distance neighbourhood of every object in the subspace
/// view, in parallel over queries.
///
/// `k` is clamped to `N − 1`. Distances are Euclidean within the view.
///
/// # Panics
/// Panics if the view contains fewer than 2 objects or `k == 0`.
pub fn knn_all<P: Points>(view: &P, k: usize, max_threads: usize) -> Vec<Neighborhood> {
    let n = view.n();
    assert!(n >= 2, "kNN requires at least two objects");
    assert!(k >= 1, "k must be at least 1");
    let k = k.min(n - 1);
    par_map(n, max_threads, |i| knn_query(view, i, k))
}

/// The k-distance neighbourhood of a single query.
fn knn_query<P: Points>(view: &P, i: usize, k: usize) -> Neighborhood {
    let mut members = Vec::with_capacity(view.n() - 1);
    let k_sq = knn_query_members(view, i, k, &mut members);
    neighborhood_from_members(&mut members, k_sq)
}

/// The brute scan behind [`knn_query`]: fills `members` (cleared first)
/// with object `i`'s tied k-distance members among the other objects and
/// returns the squared k-distance.
pub(crate) fn knn_query_members<P: Points>(
    view: &P,
    i: usize,
    k: usize,
    members: &mut Vec<(f64, u32)>,
) -> f64 {
    members.clear();
    for j in 0..view.n() {
        if j != i {
            members.push((view.sq_dist(i, j), j as u32));
        }
    }
    retain_k_smallest(members, k)
}

/// The k-distance neighbourhood of an **external query point** among the
/// view's objects — the serving-path counterpart of [`knn_all`].
///
/// `point` gives the query's coordinates in subspace order. When the query
/// is known to coincide with stored object `exclude`, that object is left
/// out, exactly as [`knn_all`] leaves each object out of its own
/// neighbourhood — this is what makes in-sample query scores reproduce the
/// batch scores bit-for-bit. `k` is clamped to the number of candidates.
///
/// # Panics
/// Panics if `k == 0`, `point` has the wrong arity, or no candidate objects
/// remain after the exclusion.
pub fn knn_query_point<P: Points>(
    view: &P,
    point: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Neighborhood {
    let n = view.n();
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(
        point.len(),
        view.dims(),
        "query point arity must match the subspace"
    );
    let mut dists: Vec<(f64, u32)> = Vec::with_capacity(n);
    for j in 0..n {
        if Some(j) != exclude {
            dists.push((view.sq_dist_to_point(j, point), j as u32));
        }
    }
    assert!(
        !dists.is_empty(),
        "query needs at least one candidate neighbour"
    );
    let k = k.min(dists.len());
    let k_sq = retain_k_smallest(&mut dists, k);
    neighborhood_from_members(&mut dists, k_sq)
}

/// Cuts candidate squared distances down to the tied k-distance member set
/// (everything with `d² ≤` the k-th smallest `d²`) and returns that squared
/// k-distance. `k` must be in `1..=dists.len()`.
fn retain_k_smallest(dists: &mut Vec<(f64, u32)>, k: usize) -> f64 {
    // Partition so the k smallest squared distances are in front.
    dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
    let k_sq = dists[k - 1].0;
    dists.retain(|&(d, _)| d <= k_sq);
    k_sq
}

/// Assembles a [`Neighborhood`] from the tied member set and the squared
/// k-distance through [`finalize_members`].
pub(crate) fn neighborhood_from_members(members: &mut [(f64, u32)], k_sq: f64) -> Neighborhood {
    let mut h = Neighborhood {
        neighbors: Vec::with_capacity(members.len()),
        distances: Vec::with_capacity(members.len()),
        k_distance: 0.0,
    };
    h.k_distance = finalize_members(members, k_sq, &mut h.neighbors, &mut h.distances);
    h
}

/// Finalises one neighbourhood from its tied member set and squared
/// k-distance: one `(d², id)` sort, then the ids and the `sqrt`ed
/// distances are appended to `neighbors`/`distances` and the k-distance is
/// returned. This is the **only** place a neighbourhood is finalised: the
/// per-query [`Neighborhood`] (brute scan and VP-tree point query) and the
/// flat all-points result (brute scan and VP-tree self-join) all end here.
/// So no backend or query order can change ordering, tie-breaks, or
/// rounding.
pub(crate) fn finalize_members(
    members: &mut [(f64, u32)],
    k_sq: f64,
    neighbors: &mut Vec<u32>,
    distances: &mut Vec<f64>,
) -> f64 {
    members.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    neighbors.extend(members.iter().map(|&(_, j)| j));
    distances.extend(members.iter().map(|&(d, _)| d.sqrt()));
    k_sq.sqrt()
}

/// The k-distance neighbourhoods of a whole point set in flat (CSR) form,
/// kept as the [`FlatPart`]s the worker threads computed (joining them
/// would copy every array once more). Each neighbourhood holds exactly
/// what the per-query [`Neighborhood`] holds, bit for bit.
#[derive(Debug)]
pub(crate) struct FlatNeighborhoods {
    parts: Vec<FlatPart>,
}

/// Neighbourhoods in the order one worker computed them. The `j`-th
/// belongs to object `ids[j]` and has k-distance `k_distance[j]`. Its
/// neighbours are `neighbors[offsets[j]..offsets[j+1]]`, with their
/// distances at the same positions of `distances`.
#[derive(Debug)]
pub(crate) struct FlatPart {
    ids: Vec<u32>,
    k_distance: Vec<f64>,
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    distances: Vec<f64>,
}

impl FlatPart {
    /// An empty run with room for `n` neighbourhoods of about `k` members
    /// each.
    pub fn with_capacity(n: usize, k: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Self {
            ids: Vec::with_capacity(n),
            k_distance: Vec::with_capacity(n),
            offsets,
            neighbors: Vec::with_capacity(n * k),
            distances: Vec::with_capacity(n * k),
        }
    }

    /// How many more neighbourhoods fit without reallocating.
    pub fn room(&self) -> usize {
        self.ids.capacity() - self.ids.len()
    }

    /// Appends object `id`'s neighbourhood, finalised from its tied member
    /// set and squared k-distance.
    pub fn push(&mut self, id: u32, members: &mut [(f64, u32)], k_sq: f64) {
        let k_distance = finalize_members(members, k_sq, &mut self.neighbors, &mut self.distances);
        self.ids.push(id);
        self.k_distance.push(k_distance);
        self.offsets.push(self.neighbors.len());
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &[u32], &[f64], f64)> {
        self.ids.iter().enumerate().map(|(j, &id)| {
            let range = self.offsets[j]..self.offsets[j + 1];
            (
                id as usize,
                &self.neighbors[range.clone()],
                &self.distances[range],
                self.k_distance[j],
            )
        })
    }
}

impl FlatNeighborhoods {
    /// The neighbourhoods of parts that together cover every object
    /// exactly once.
    pub fn from_parts(parts: Vec<FlatPart>) -> Self {
        Self { parts }
    }

    /// Number of neighbourhoods (= objects).
    fn len(&self) -> usize {
        self.parts.iter().map(|p| p.ids.len()).sum()
    }

    /// Every neighbourhood in storage order, as `(object id, neighbour
    /// ids, distances, k-distance)`.
    fn iter(&self) -> impl Iterator<Item = (usize, &[u32], &[f64], f64)> {
        self.parts.iter().flat_map(FlatPart::iter)
    }

    /// One value per object, indexed by object id: `f` of each
    /// neighbourhood, called as `f(id, neighbours, distances, k-distance)`
    /// in storage order.
    pub fn map_by_id(&self, mut f: impl FnMut(usize, &[u32], &[f64], f64) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        for (id, neighbors, distances, k_distance) in self.iter() {
            out[id] = f(id, neighbors, distances, k_distance);
        }
        out
    }

    /// Expands into one [`Neighborhood`] per object, indexed by object id.
    pub fn into_neighborhoods(self) -> Vec<Neighborhood> {
        let mut out: Vec<Neighborhood> = (0..self.len())
            .map(|_| Neighborhood {
                neighbors: Vec::new(),
                distances: Vec::new(),
                k_distance: 0.0,
            })
            .collect();
        for (id, neighbors, distances, k_distance) in self.iter() {
            out[id] = Neighborhood {
                neighbors: neighbors.to_vec(),
                distances: distances.to_vec(),
                k_distance,
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::SubspaceView;
    use hics_data::Dataset;

    fn line_dataset() -> Dataset {
        // Points at x = 0, 1, 2, 3, 10.
        Dataset::from_columns(vec![vec![0.0, 1.0, 2.0, 3.0, 10.0]])
    }

    #[test]
    fn nearest_neighbors_on_a_line() {
        let d = line_dataset();
        let v = SubspaceView::new(&d, &[0]);
        let nn = knn_all(&v, 2, 1);
        // Point 0 (x=0): neighbours x=1 (d=1), x=2 (d=2).
        assert_eq!(nn[0].neighbors, vec![1, 2]);
        assert_eq!(nn[0].k_distance, 2.0);
        // Point 4 (x=10): neighbours x=3 (d=7), x=2 (d=8).
        assert_eq!(nn[4].neighbors, vec![3, 2]);
        assert_eq!(nn[4].k_distance, 8.0);
    }

    #[test]
    fn tied_neighborhood_includes_all_ties() {
        // Query at 0 with three points all at distance 1.
        let d = Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ]);
        let v = SubspaceView::new(&d, &[0, 1]);
        let nn = knn_all(&v, 2, 1);
        // k=2 but three objects tie at distance 1 → all included.
        assert_eq!(nn[0].neighbors.len(), 3);
        assert_eq!(nn[0].k_distance, 1.0);
        assert!(nn[0].distances.iter().all(|&d| d == 1.0));
    }

    #[test]
    fn k_clamped_to_n_minus_one() {
        let d = line_dataset();
        let v = SubspaceView::new(&d, &[0]);
        let nn = knn_all(&v, 100, 1);
        assert_eq!(nn[0].neighbors.len(), 4);
    }

    #[test]
    fn duplicates_yield_zero_k_distance() {
        let d = Dataset::from_columns(vec![vec![1.0, 1.0, 1.0, 2.0]]);
        let v = SubspaceView::new(&d, &[0]);
        let nn = knn_all(&v, 2, 1);
        assert_eq!(nn[0].k_distance, 0.0);
        // Both duplicates are in the neighbourhood; point at 2.0 is not.
        assert_eq!(nn[0].neighbors, vec![1, 2]);
    }

    #[test]
    fn distances_sorted_ascending() {
        let d = Dataset::from_columns(vec![vec![0.3, 0.9, 0.1, 0.75, 0.5, 0.2]]);
        let v = SubspaceView::new(&d, &[0]);
        for nb in knn_all(&v, 3, 1) {
            for w in nb.distances.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert_eq!(*nb.distances.last().unwrap(), nb.k_distance);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = hics_data::SyntheticConfig::new(300, 6).with_seed(3);
        let g = cfg.generate();
        let v = SubspaceView::new(&g.dataset, &[0, 1, 2]);
        let seq = knn_all(&v, 10, 1);
        let par = knn_all(&v, 10, 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn query_point_with_exclusion_matches_in_sample_neighborhood() {
        let g = hics_data::SyntheticConfig::new(200, 5)
            .with_seed(7)
            .generate();
        let v = SubspaceView::new(&g.dataset, &[0, 2, 4]);
        let batch = knn_all(&v, 6, 1);
        for i in (0..200).step_by(17) {
            let row: Vec<f64> = [0, 2, 4].iter().map(|&j| g.dataset.value(i, j)).collect();
            let q = knn_query_point(&v, &row, 6, Some(i));
            assert_eq!(q, batch[i], "object {i}");
        }
    }

    #[test]
    fn query_point_without_exclusion_sees_coincident_object() {
        let d = line_dataset();
        let v = SubspaceView::new(&d, &[0]);
        // A query at x = 1 with no exclusion: object 1 is at distance 0.
        let q = knn_query_point(&v, &[1.0], 2, None);
        assert_eq!(q.neighbors[0], 1);
        assert_eq!(q.distances[0], 0.0);
        // Novel query far from everything.
        let far = knn_query_point(&v, &[100.0], 2, None);
        assert_eq!(far.neighbors, vec![4, 3]);
        assert_eq!(far.k_distance, 97.0);
    }

    #[test]
    fn query_point_k_clamps_to_candidates() {
        let d = line_dataset();
        let v = SubspaceView::new(&d, &[0]);
        let q = knn_query_point(&v, &[0.5], 100, Some(0));
        assert_eq!(q.neighbors.len(), 4);
    }

    #[test]
    fn query_never_its_own_neighbor() {
        let d = line_dataset();
        let v = SubspaceView::new(&d, &[0]);
        for (i, nb) in knn_all(&v, 3, 1).iter().enumerate() {
            assert!(!nb.neighbors.contains(&(i as u32)));
        }
    }
}
