//! The pluggable per-subspace neighbour-index layer.
//!
//! Every density scorer in this crate reduces to one primitive: the
//! k-distance neighbourhood of a query point among the subspace-projected
//! objects. [`SubspaceIndex`] is that primitive made pluggable — the
//! brute-force scan (the paper's assumption, `O(N · |S|)` per query) and a
//! metric [`VpTree`] (Yianilos 1993; `O(log N)` expected per query in the
//! 2–5-dimensional subspaces HiCS selects) behind one seam, threaded through
//! batch kNN/LOF scoring, the serving-path [`crate::query::QueryEngine`],
//! and the model artifact (`hics_data::model`, format version 2).
//!
//! # Exactness contract
//!
//! Swapping the backend never changes a single bit of any score:
//!
//! * query-to-object distances are computed by the **same**
//!   [`Points::sq_dist_to_point`] expression both backends call;
//! * the tied neighbourhood is a pure function of those squared distances —
//!   everything with `d² ≤` the k-th smallest `d²` — and both backends
//!   finalise it through `knn::neighborhood_from_members` (one `(d², id)`
//!   sort, `sqrt` last);
//! * tree traversal prunes with a relative ε-slack wide enough to absorb
//!   `sqrt` rounding in the triangle-inequality bounds, so boundary ties are
//!   always visited, never lost.
//!
//! The contract covers the all-points **self-join** the fit's hoods
//! precompute runs ([`knn_all_indexed`] and the crate's flat form behind
//! [`crate::subspace_hoods`]). It walks the queries in the tree's
//! depth-first order (vantage, inner subtree, outer subtree) and reads
//! row-major packed copies of the leaf and vantage rows. The order changes
//! only which subtrees get pruned, never the member set. The packed rows
//! feed the same `(q − r)²` axis-order sum. And a point query and the
//! self-join run one traversal, generic only over where the rows are read
//! from.
//!
//! When does brute still win? Tiny `N` (the whole scan fits in L1 and the
//! tree adds pointer chasing) and large `k/N` ratios (the pruning radius
//!  stays so wide the tree degenerates to a scan with overhead). The
//! `bench_query` bin quantifies the crossover.

use crate::distance::Points;
use crate::knn::{
    knn_query_members, knn_query_point, neighborhood_from_members, FlatNeighborhoods, FlatPart,
    Neighborhood,
};
use crate::parallel::par_map;
use hics_data::model::{VpNodeData, VpTreeData, VpTreeView, VP_NONE};
use std::ops::Range;

/// Which neighbour-search backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Linear scan over all objects (exact, zero build cost).
    #[default]
    Brute,
    /// Per-subspace vantage-point tree (exact, `O(N log N)` build).
    VpTree,
}

impl IndexKind {
    /// Display / CLI-option name.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Brute => "brute",
            IndexKind::VpTree => "vptree",
        }
    }
}

impl std::str::FromStr for IndexKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "brute" => Ok(IndexKind::Brute),
            "vptree" | "vp-tree" | "vp" => Ok(IndexKind::VpTree),
            other => Err(format!("unknown index kind {other:?} (brute|vptree)")),
        }
    }
}

/// Points per leaf before a subtree stops splitting. Small enough that a
/// leaf scan stays a handful of distance evaluations, large enough that the
/// tree does not drown in per-node bookkeeping.
const LEAF_SIZE: usize = 12;

/// A vantage-point tree over one subspace's points.
///
/// The structure is plain old data ([`VpTreeData`], shared with the model
/// artifact): flat node and id arrays, node 0 the root. Construction picks
/// the first id of each partition as vantage and splits the rest at the
/// median vantage distance with `(d², id)` tie-breaking, which makes the
/// tree a **deterministic** function of the point set — a tree rebuilt at
/// load time is byte-identical to the one stored at fit time.
#[derive(Debug, Clone)]
pub struct VpTree {
    data: VpTreeData,
}

impl VpTree {
    /// Builds the tree over all points (`O(N log N)` distance evaluations).
    ///
    /// # Panics
    /// Panics if the point set is empty.
    pub fn build<P: Points>(points: &P) -> Self {
        let n = points.n();
        assert!(n >= 1, "VP-tree needs at least one point");
        assert!(
            u32::try_from(n).is_ok(),
            "VP-tree ids cap at u32::MAX points"
        );
        let mut work: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(2 * n / LEAF_SIZE + 1);
        let mut ids = Vec::with_capacity(n);
        let mut buf: Vec<(f64, u32)> = Vec::with_capacity(n);
        build_rec(points, &mut work, &mut buf, &mut nodes, &mut ids, 0, n);
        Self {
            data: VpTreeData { nodes, ids },
        }
    }

    /// Wraps a deserialised tree. The caller (the artifact loader) has
    /// already validated the structure.
    pub fn from_data(data: VpTreeData) -> Self {
        Self { data }
    }

    /// The plain-old-data form for serialisation.
    pub fn as_data(&self) -> &VpTreeData {
        &self.data
    }

    /// Consumes the tree into its serialisable form.
    pub fn into_data(self) -> VpTreeData {
        self.data
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.data.nodes.len()
    }

    /// The k-distance neighbourhood of `point` among the indexed points,
    /// excluding object `exclude` — same contract, same result, bit for
    /// bit, as [`crate::knn::knn_query_point`]. `k` must already be clamped
    /// to the candidate count (see [`SubspaceIndex::knn_point`]).
    pub fn knn<P: Points>(
        &self,
        points: &P,
        point: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Neighborhood {
        tree_knn(&self.data.view(), points, point, k, exclude)
    }
}

/// [`VpTree::knn`] over any tree view — a tree read in place from an
/// artifact or lent by a [`VpTreeData`].
fn tree_knn<P: Points>(
    tree: &VpTreeView<'_>,
    points: &P,
    point: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Neighborhood {
    debug_assert_eq!(points.n(), count_objects(tree));
    // No indexed id equals VP_NONE (ids stay below the u32 cap), so it
    // doubles as "exclude nothing", as does any id past the cap.
    let exclude = exclude
        .and_then(|e| u32::try_from(e).ok())
        .unwrap_or(VP_NONE);
    let mut scratch = KnnScratch::new(k);
    scratch.point.extend_from_slice(point);
    let k_sq = scratch.search(tree, &PointRows(points), exclude);
    debug_assert!(k_sq.is_finite() || point.iter().any(|v| !v.is_finite()));
    neighborhood_from_members(&mut scratch.cands, k_sq)
}

/// The all-points self-join over `tree`: every object's k-distance
/// neighbourhood among the others (`k` already clamped to `N − 1`),
/// bit-identical to one [`VpTree::knn`] per object with that object
/// excluded.
///
/// The queries run in the tree's depth-first order (see [`tree_order`]),
/// so consecutive queries are near each other and descend the same paths;
/// the order is cut into `runs` contiguous runs (see [`join`]), and every
/// result carries its object id. The rows are first packed row-major in
/// traversal layout ([`PackedRows`]), so a leaf scan reads contiguous
/// memory.
fn self_join<P: Points>(
    tree: &VpTreeView<'_>,
    points: &P,
    k: usize,
    runs: usize,
) -> FlatNeighborhoods {
    debug_assert_eq!(points.n(), count_objects(tree));
    // A compile-time row length for the subspace sizes the benchmark
    // workloads select (2 and 3): on 20 such subspaces of 2·10⁴
    // points it cut the pass by about 10% against the runtime length
    // (2 vCPUs).
    match points.dims() {
        2 => join_packed(tree, points, Fixed::<2>, k, runs),
        3 => join_packed(tree, points, Fixed::<3>, k, runs),
        dims => join_packed(tree, points, dims, k, runs),
    }
}

/// [`self_join`] over rows packed with row length `stride`.
fn join_packed<P: Points, S: Stride>(
    tree: &VpTreeView<'_>,
    points: &P,
    stride: S,
    k: usize,
    runs: usize,
) -> FlatNeighborhoods {
    let order = tree_order(tree);
    let rows = PackedRows::pack(points, tree, stride);
    join(
        order.len(),
        |t| order[t],
        k,
        runs,
        |scratch, q| {
            points.gather_into(q as usize, &mut scratch.point);
            scratch.search(tree, &rows, q)
        },
    )
}

/// Every indexed object once, in depth-first order: a node's vantage, then
/// its inner subtree, then its outer subtree; a leaf's ids in storage
/// order.
fn tree_order(tree: &VpTreeView<'_>) -> Vec<u32> {
    fn walk(nodes: &[VpNodeData], ids: &[u32], node: u32, out: &mut Vec<u32>) {
        let nd = nodes[node as usize];
        if nd.vantage == VP_NONE {
            let start = nd.start as usize;
            out.extend_from_slice(&ids[start..start + nd.len as usize]);
        } else {
            out.push(nd.vantage);
            walk(nodes, ids, nd.inner, out);
            walk(nodes, ids, nd.outer, out);
        }
    }
    let mut out = Vec::with_capacity(count_objects(tree));
    walk(&tree.nodes, &tree.ids, 0, &mut out);
    out
}

/// Total objects a tree references (vantages + leaf entries).
fn count_objects(tree: &VpTreeView<'_>) -> usize {
    tree.ids.len() + tree.nodes.iter().filter(|n| n.vantage != VP_NONE).count()
}

/// Recursive median-split construction over `work[start..start+len]`.
/// Leaf contents are appended to `ids` (the compact leaf-entry array the
/// on-disk format stores — vantages live in the nodes, not in `ids`).
/// Returns the created node's index.
fn build_rec<P: Points>(
    points: &P,
    work: &mut [u32],
    buf: &mut Vec<(f64, u32)>,
    nodes: &mut Vec<VpNodeData>,
    ids: &mut Vec<u32>,
    start: usize,
    len: usize,
) -> u32 {
    let node_id = nodes.len() as u32;
    if len <= LEAF_SIZE {
        nodes.push(VpNodeData {
            vantage: VP_NONE,
            inner: VP_NONE,
            outer: VP_NONE,
            start: ids.len() as u32,
            len: len as u32,
            mu: 0.0,
        });
        ids.extend_from_slice(&work[start..start + len]);
        return node_id;
    }
    let vantage = work[start];
    // Order the rest by (squared vantage distance, id): the median of the
    // squared distances is the median of the distances (sqrt is monotone),
    // and the id tie-break makes the split deterministic under duplicates.
    buf.clear();
    for &id in &work[start + 1..start + len] {
        buf.push((points.sq_dist(vantage as usize, id as usize), id));
    }
    let rest = len - 1;
    let inner_count = rest.div_ceil(2);
    buf.select_nth_unstable_by(inner_count - 1, |a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    });
    let mu = buf[inner_count - 1].0.sqrt();
    for (t, &(_, id)) in buf.iter().enumerate() {
        work[start + 1 + t] = id;
    }
    nodes.push(VpNodeData {
        vantage,
        inner: VP_NONE, // patched below
        outer: VP_NONE,
        start: 0,
        len: 0,
        mu,
    });
    let inner = build_rec(points, work, buf, nodes, ids, start + 1, inner_count);
    let outer = build_rec(
        points,
        work,
        buf,
        nodes,
        ids,
        start + 1 + inner_count,
        rest - inner_count,
    );
    nodes[node_id as usize].inner = inner;
    nodes[node_id as usize].outer = outer;
    node_id
}

/// Where a traversal reads the indexed rows from: the squared distance
/// from the query point to the object at a vantage node or at a leaf slot
/// (an index into [`VpTreeData::ids`]). Every implementation computes
/// `Σ_t (q_t − r_t)²` in axis order — the expression of
/// [`Points::sq_dist_to_point`] — so the source never changes a bit.
trait QueryRows {
    /// Squared distance to `node`'s vantage, object `id`.
    fn vantage_sq(&self, point: &[f64], node: usize, id: u32) -> f64;
    /// Squared distance to the leaf entry at `slot`, object `id`.
    fn leaf_sq(&self, point: &[f64], slot: usize, id: u32) -> f64;
}

/// Rows read through a [`Points`] implementation.
struct PointRows<'a, P>(&'a P);

impl<P: Points> QueryRows for PointRows<'_, P> {
    #[inline]
    fn vantage_sq(&self, point: &[f64], _node: usize, id: u32) -> f64 {
        self.0.sq_dist_to_point(id as usize, point)
    }

    #[inline]
    fn leaf_sq(&self, point: &[f64], _slot: usize, id: u32) -> f64 {
        self.0.sq_dist_to_point(id as usize, point)
    }
}

/// The row length of [`PackedRows`]: a compile-time [`Fixed`] length, so
/// the distance loop unrolls, or a runtime `usize`.
trait Stride: Copy + Sync {
    fn len(self) -> usize;
}

#[derive(Clone, Copy)]
struct Fixed<const D: usize>;

impl<const D: usize> Stride for Fixed<D> {
    #[inline(always)]
    fn len(self) -> usize {
        D
    }
}

impl Stride for usize {
    #[inline(always)]
    fn len(self) -> usize {
        self
    }
}

/// A tree's rows copied row-major in traversal layout: the leaf rows in
/// [`VpTreeData::ids`] order and one vantage row per node (zeros for
/// leaves), so a leaf scan reads contiguous memory.
struct PackedRows<S> {
    stride: S,
    leaf: Vec<f64>,
    vantage: Vec<f64>,
}

impl<S: Stride> PackedRows<S> {
    fn pack<P: Points>(points: &P, tree: &VpTreeView<'_>, stride: S) -> Self {
        let dims = stride.len();
        debug_assert_eq!(points.dims(), dims);
        let mut leaf = Vec::with_capacity(tree.ids.len() * dims);
        for &id in tree.ids.iter() {
            leaf.extend((0..dims).map(|t| points.coord(id as usize, t)));
        }
        let mut vantage = Vec::with_capacity(tree.nodes.len() * dims);
        for nd in tree.nodes.iter() {
            if nd.vantage == VP_NONE {
                vantage.extend(std::iter::repeat_n(0.0, dims));
            } else {
                vantage.extend((0..dims).map(|t| points.coord(nd.vantage as usize, t)));
            }
        }
        Self {
            stride,
            leaf,
            vantage,
        }
    }

    #[inline(always)]
    fn sq_dist(&self, point: &[f64], rows: &[f64], at: usize) -> f64 {
        let dims = self.stride.len();
        let row = &rows[at * dims..(at + 1) * dims];
        let mut acc = 0.0;
        for (&p, &r) in point[..dims].iter().zip(row) {
            let d = p - r;
            acc += d * d;
        }
        acc
    }
}

impl<S: Stride> QueryRows for PackedRows<S> {
    #[inline]
    fn vantage_sq(&self, point: &[f64], node: usize, _id: u32) -> f64 {
        self.sq_dist(point, &self.vantage, node)
    }

    #[inline]
    fn leaf_sq(&self, point: &[f64], slot: usize, _id: u32) -> f64 {
        self.sq_dist(point, &self.leaf, slot)
    }
}

/// Cuts `0..n` into `runs` contiguous ranges, in order, whose lengths
/// differ by at most one (`n` ranges when `n < runs`, so none is empty).
fn split(n: usize, runs: usize) -> Vec<Range<usize>> {
    let runs = runs.min(n).max(1);
    (0..runs)
        .map(|r| r * n / runs..(r + 1) * n / runs)
        .collect()
}

/// Answers the queries `id_of(0), …, id_of(n − 1)`, cut into `runs`
/// contiguous runs (see [`split`]) that the worker threads share, each
/// run with its own [`KnnScratch`], and keeps the finalised
/// neighbourhoods in query order. `solve` leaves a query's tied members
/// in the scratch's candidate buffer and returns its squared k-distance.
/// Neither the number of runs nor the number of threads changes a bit of
/// the result.
fn join<Q, F>(n: usize, id_of: Q, k: usize, runs: usize, solve: F) -> FlatNeighborhoods
where
    Q: Fn(usize) -> u32 + Sync,
    F: Fn(&mut KnnScratch, u32) -> f64 + Sync,
{
    let runs = split(n, runs);
    let parts = par_map(runs.len(), runs.len(), |r| {
        let mut scratch = KnnScratch::new(k);
        let mut out = FlatPart::with_capacity(runs[r].len(), k);
        for q in runs[r].clone().map(&id_of) {
            let k_sq = solve(&mut scratch, q);
            out.push(q, &mut scratch.cands, k_sq);
        }
        out
    });
    FlatNeighborhoods::from_parts(parts)
}

/// Per-run buffers of the kNN traversal, reused from query to query.
struct KnnScratch {
    /// The query point.
    point: Vec<f64>,
    heap: KSmallest,
    /// Candidates within the running bound; after a search, exactly the
    /// tied member set.
    cands: Vec<(f64, u32)>,
}

impl KnnScratch {
    fn new(k: usize) -> Self {
        Self {
            point: Vec::new(),
            heap: KSmallest::new(k),
            cands: Vec::with_capacity(2 * k + 16),
        }
    }

    /// One kNN traversal of `tree` for the query point `self.point`,
    /// reading the indexed rows from `rows` and skipping object `exclude`
    /// (`VP_NONE` skips nothing). Leaves the tied member set in
    /// `self.cands` and returns the squared k-distance.
    fn search<R: QueryRows>(&mut self, tree: &VpTreeView<'_>, rows: &R, exclude: u32) -> f64 {
        let Self { point, heap, cands } = self;
        heap.clear();
        cands.clear();
        let compact_at = (4 * heap.k).max(64);
        let mut search = Search {
            nodes: &tree.nodes,
            ids: &tree.ids,
            rows,
            point,
            exclude,
            heap,
            cands,
            compact_at,
        };
        search.visit(0);
        let k_sq = self.heap.bound;
        self.cands.retain(|&(d, _)| d <= k_sq);
        k_sq
    }
}

/// One in-flight kNN traversal — the only one: point queries and the
/// self-join differ only in where `rows` reads from.
struct Search<'a, R> {
    nodes: &'a [VpNodeData],
    ids: &'a [u32],
    rows: &'a R,
    point: &'a [f64],
    exclude: u32,
    heap: &'a mut KSmallest,
    cands: &'a mut Vec<(f64, u32)>,
    /// Buffer length at which the next compaction runs; doubles with the
    /// surviving buffer so compaction stays amortised O(1) per candidate
    /// even when everything ties and nothing can be dropped.
    compact_at: usize,
}

impl<R: QueryRows> Search<'_, R> {
    fn visit(&mut self, node: u32) {
        let nd = self.nodes[node as usize];
        if nd.vantage == VP_NONE {
            // Leaf: scan the id range.
            let start = nd.start as usize;
            let ids = &self.ids[start..start + nd.len as usize];
            for (slot, &id) in (start..).zip(ids) {
                if id != self.exclude {
                    let d_sq = self.rows.leaf_sq(self.point, slot, id);
                    self.offer(d_sq, id);
                }
            }
            return;
        }
        // Internal: the vantage is itself a candidate, and its distance
        // routes the traversal.
        let d_sq = self.rows.vantage_sq(self.point, node as usize, nd.vantage);
        if nd.vantage != self.exclude {
            self.offer(d_sq, nd.vantage);
        }
        let d = d_sq.sqrt();
        // ε-slack absorbing sqrt/sum rounding in the triangle bounds: never
        // prune a subtree whose true lower bound could still tie the current
        // k-distance. ~1e-12 relative is ≫ the ~1e-15 worst-case error.
        let eps = (d + nd.mu) * 1e-12;
        if d < nd.mu {
            // Query inside the ball: the inner child is the nearer side.
            if d - nd.mu <= self.heap.bound_dist + eps {
                self.visit(nd.inner);
            }
            if nd.mu - d <= self.heap.bound_dist + eps {
                self.visit(nd.outer);
            }
        } else {
            if nd.mu - d <= self.heap.bound_dist + eps {
                self.visit(nd.outer);
            }
            if d - nd.mu <= self.heap.bound_dist + eps {
                self.visit(nd.inner);
            }
        }
    }

    /// Feeds one candidate to the k-smallest tracker and the tied-member
    /// buffer. Non-strict bound comparisons keep every potential tie.
    #[inline]
    fn offer(&mut self, d_sq: f64, id: u32) {
        if d_sq <= self.heap.bound {
            self.heap.offer(d_sq);
            self.cands.push((d_sq, id));
            // Keep the buffer from ballooning on adversarial visit orders:
            // everything beyond the current bound can never re-qualify. The
            // threshold doubles with whatever survives, so tie-heavy data
            // (where nothing is droppable) pays O(1) amortised, not a full
            // rescan per offer.
            if self.cands.len() >= self.compact_at {
                let bound = self.heap.bound;
                self.cands.retain(|&(d, _)| d <= bound);
                self.compact_at = (2 * self.cands.len()).max(4 * self.heap.k).max(64);
            }
        }
    }
}

/// A max-heap of the k smallest squared distances seen so far. `bound` is
/// the running squared k-distance (the top; `+∞` until k candidates have
/// been seen — nothing may be pruned before that) and `bound_dist` its
/// `sqrt`, both cached so pruning takes no `sqrt` per node.
struct KSmallest {
    heap: Vec<f64>,
    k: usize,
    bound: f64,
    bound_dist: f64,
}

impl KSmallest {
    fn new(k: usize) -> Self {
        debug_assert!(k >= 1);
        Self {
            heap: Vec::with_capacity(k),
            k,
            bound: f64::INFINITY,
            bound_dist: f64::INFINITY,
        }
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.bound = f64::INFINITY;
        self.bound_dist = f64::INFINITY;
    }

    #[inline]
    fn offer(&mut self, d_sq: f64) {
        if self.heap.len() < self.k {
            self.heap.push(d_sq);
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[parent].total_cmp(&self.heap[i]).is_lt() {
                    self.heap.swap(parent, i);
                    i = parent;
                } else {
                    break;
                }
            }
            if self.heap.len() < self.k {
                return;
            }
        } else if d_sq.total_cmp(&self.heap[0]).is_lt() {
            // Strictly smaller than the current k-th: replace the top. An
            // exact tie leaves the bound unchanged either way.
            self.heap[0] = d_sq;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < self.heap.len() && self.heap[l].total_cmp(&self.heap[largest]).is_gt() {
                    largest = l;
                }
                if r < self.heap.len() && self.heap[r].total_cmp(&self.heap[largest]).is_gt() {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                self.heap.swap(i, largest);
                i = largest;
            }
        } else {
            return;
        }
        self.bound = self.heap[0];
        self.bound_dist = self.bound.sqrt();
    }
}

/// A built neighbour index for one subspace — the seam every scoring layer
/// holds. `Brute` carries no state; `VpTree` owns the per-subspace tree.
#[derive(Debug, Clone, Default)]
pub enum SubspaceIndex {
    /// Linear scan (no precomputed state).
    #[default]
    Brute,
    /// Vantage-point tree over the subspace's points.
    VpTree(VpTree),
}

impl SubspaceIndex {
    /// Builds the requested index kind over `points`.
    pub fn build<P: Points>(points: &P, kind: IndexKind) -> Self {
        match kind {
            IndexKind::Brute => SubspaceIndex::Brute,
            IndexKind::VpTree => SubspaceIndex::VpTree(VpTree::build(points)),
        }
    }

    /// The backend this index implements.
    pub fn kind(&self) -> IndexKind {
        match self {
            SubspaceIndex::Brute => IndexKind::Brute,
            SubspaceIndex::VpTree(_) => IndexKind::VpTree,
        }
    }

    /// Number of index nodes (0 for brute).
    pub fn node_count(&self) -> usize {
        match self {
            SubspaceIndex::Brute => 0,
            SubspaceIndex::VpTree(t) => t.node_count(),
        }
    }

    /// The tree as a borrowed view (`None` for brute).
    pub(crate) fn tree(&self) -> Option<VpTreeView<'_>> {
        match self {
            SubspaceIndex::Brute => None,
            SubspaceIndex::VpTree(t) => Some(t.data.view()),
        }
    }

    /// The k-distance neighbourhood of an external query point — the
    /// backend-dispatched form of [`crate::knn::knn_query_point`], with the
    /// identical contract (tied neighbourhood, `k` clamped to the candidate
    /// count, optional self-exclusion for in-sample queries).
    ///
    /// # Panics
    /// Panics if `k == 0`, `point` has the wrong arity, or no candidate
    /// objects remain after the exclusion.
    pub fn knn_point<P: Points>(
        &self,
        points: &P,
        point: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Neighborhood {
        knn_point(self.tree().as_ref(), points, point, k, exclude)
    }
}

/// [`SubspaceIndex::knn_point`] through `tree`, or the brute scan for
/// `None` — the form the query engine calls with trees read in place.
pub(crate) fn knn_point<P: Points>(
    tree: Option<&VpTreeView<'_>>,
    points: &P,
    point: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Neighborhood {
    let Some(tree) = tree else {
        return knn_query_point(points, point, k, exclude);
    };
    let n = points.n();
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(
        point.len(),
        points.dims(),
        "query point arity must match the subspace"
    );
    let candidates = n - usize::from(exclude.is_some_and(|e| e < n));
    assert!(
        candidates >= 1,
        "query needs at least one candidate neighbour"
    );
    tree_knn(tree, points, point, k.min(candidates), exclude)
}

/// Computes the k-distance neighbourhood of every object through the given
/// index, in parallel over queries — the index-dispatched counterpart of
/// [`crate::knn::knn_all`], bit-identical for every backend.
///
/// `k` is clamped to `N − 1`.
///
/// # Panics
/// Panics if the point set has fewer than 2 objects or `k == 0`.
pub fn knn_all_indexed<P: Points>(
    points: &P,
    index: &SubspaceIndex,
    k: usize,
    max_threads: usize,
) -> Vec<Neighborhood> {
    knn_all_flat(points, index.tree().as_ref(), k, max_threads).into_neighborhoods()
}

/// [`knn_all_indexed`] in flat (CSR) form, without a [`Neighborhood`] per
/// object: the brute scan in object order (`tree` `None`), or the tree's
/// tree-order self-join. The queries are cut into `max_threads` runs whatever the
/// host's core count (see [`join`]); the threads are capped at the cores.
///
/// # Panics
/// Panics if the point set has fewer than 2 objects or `k == 0`.
pub(crate) fn knn_all_flat<P: Points>(
    points: &P,
    tree: Option<&VpTreeView<'_>>,
    k: usize,
    max_threads: usize,
) -> FlatNeighborhoods {
    let n = points.n();
    assert!(n >= 2, "kNN requires at least two objects");
    assert!(k >= 1, "k must be at least 1");
    let k = k.min(n - 1);
    match tree {
        // The brute in-sample path never materialises the query row.
        None => join(
            n,
            |i| i as u32,
            k,
            max_threads,
            |scratch, q| knn_query_members(points, q as usize, k, &mut scratch.cands),
        ),
        Some(tree) => self_join(tree, points, k, max_threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{SubspaceLayout, SubspaceView};
    use crate::knn::knn_all;
    use hics_data::{Dataset, SyntheticConfig};

    fn assert_same_hoods(a: &[Neighborhood], b: &[Neighborhood]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x, y, "object {i}");
        }
    }

    #[test]
    fn vptree_matches_brute_on_random_data() {
        for (n, d, k) in [(50, 2, 3), (300, 3, 10), (500, 5, 25)] {
            let g = SyntheticConfig::new(n, d).with_seed(n as u64).generate();
            let dims: Vec<usize> = (0..d.min(3)).collect();
            let view = SubspaceView::new(&g.dataset, &dims);
            let tree = SubspaceIndex::build(&view, IndexKind::VpTree);
            let brute = knn_all(&view, k, 2);
            let indexed = knn_all_indexed(&view, &tree, k, 2);
            assert_same_hoods(&brute, &indexed);
        }
    }

    #[test]
    fn vptree_matches_brute_with_duplicates_and_ties() {
        // A tight integer grid plus exact duplicates: every distance ties.
        let mut rows = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                rows.push(vec![x as f64, y as f64]);
                rows.push(vec![x as f64, y as f64]); // duplicate
            }
        }
        let data = Dataset::from_rows(&rows);
        let view = SubspaceView::new(&data, &[0, 1]);
        let tree = SubspaceIndex::build(&view, IndexKind::VpTree);
        for k in [1, 2, 5, 11] {
            assert_same_hoods(&knn_all(&view, k, 1), &knn_all_indexed(&view, &tree, k, 1));
        }
    }

    #[test]
    fn vptree_point_queries_match_brute_point_queries() {
        let g = SyntheticConfig::new(250, 4).with_seed(8).generate();
        let layout = SubspaceLayout::gather(&g.dataset, &[0, 2, 3]);
        let tree = SubspaceIndex::build(&layout, IndexKind::VpTree);
        let brute = SubspaceIndex::Brute;
        for i in (0..250).step_by(13) {
            let mut row = Vec::new();
            layout.gather_into(i, &mut row);
            // In-sample with exclusion, in-sample without, and perturbed.
            for (point, exclude) in [
                (row.clone(), Some(i)),
                (row.clone(), None),
                (row.iter().map(|v| v + 0.37).collect::<Vec<_>>(), None),
            ] {
                let b = brute.knn_point(&layout, &point, 7, exclude);
                let t = tree.knn_point(&layout, &point, 7, exclude);
                assert_eq!(b, t, "object {i}");
            }
        }
    }

    #[test]
    fn vptree_k_clamps_to_candidates() {
        let data = Dataset::from_columns(vec![vec![0.0, 1.0, 2.0, 3.0, 10.0]]);
        let view = SubspaceView::new(&data, &[0]);
        let tree = SubspaceIndex::build(&view, IndexKind::VpTree);
        let q = tree.knn_point(&view, &[0.5], 100, Some(0));
        assert_eq!(q.neighbors.len(), 4);
        let all = tree.knn_point(&view, &[0.5], 100, None);
        assert_eq!(all.neighbors.len(), 5);
    }

    #[test]
    fn build_is_deterministic_and_roundtrips_through_data() {
        let g = SyntheticConfig::new(180, 3).with_seed(4).generate();
        let view = SubspaceView::new(&g.dataset, &[0, 1]);
        let a = VpTree::build(&view);
        let b = VpTree::build(&view);
        assert_eq!(a.as_data(), b.as_data());
        let restored = VpTree::from_data(a.clone().into_data());
        let mut row = Vec::new();
        view.gather_into(17, &mut row);
        assert_eq!(
            a.knn(&view, &row, 5, Some(17)),
            restored.knn(&view, &row, 5, Some(17))
        );
    }

    #[test]
    fn tiny_point_sets_build_and_answer() {
        for n in 1..6 {
            let data = Dataset::from_columns(vec![(0..n).map(|i| i as f64).collect()]);
            let view = SubspaceView::new(&data, &[0]);
            let tree = SubspaceIndex::build(&view, IndexKind::VpTree);
            if n >= 2 {
                assert_same_hoods(&knn_all(&view, 2, 1), &knn_all_indexed(&view, &tree, 2, 1));
            }
            let q = tree.knn_point(&view, &[0.25], 1, None);
            assert_eq!(q.neighbors[0], 0);
        }
    }

    /// Bitwise equality of two neighbourhoods (ids, distance bits,
    /// k-distance bits).
    fn assert_bitwise_hoods(want: &[Neighborhood], got: &[Neighborhood], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}");
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            let bits = |h: &Neighborhood| -> (Vec<u64>, u64) {
                (
                    h.distances.iter().map(|d| d.to_bits()).collect(),
                    h.k_distance.to_bits(),
                )
            };
            assert_eq!(w.neighbors, g.neighbors, "{what}: object {i}");
            assert_eq!(bits(w), bits(g), "{what}: object {i}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The hoods an open would compute, re-derived from the brute
    /// per-object reference and the public per-neighbourhood formulas.
    fn reference_hoods(
        layout: &SubspaceLayout,
        scorer: hics_data::model::ScorerSpec,
    ) -> hics_data::model::HoodsData {
        use crate::knn_score::KnnScoreKind;
        use crate::lof::{lof_from_neighborhoods, lrd_from_neighborhoods};
        use hics_data::model::ScorerKind;
        let hoods = knn_all(layout, scorer.k as usize, 1);
        let (lrd, scores) = match scorer.kind {
            ScorerKind::Lof => (
                lrd_from_neighborhoods(&hoods),
                lof_from_neighborhoods(&hoods),
            ),
            ScorerKind::KnnMean => (
                Vec::new(),
                hoods.iter().map(|h| KnnScoreKind::Mean.score(h)).collect(),
            ),
            ScorerKind::KnnKth => (
                Vec::new(),
                hoods.iter().map(|h| KnnScoreKind::Kth.score(h)).collect(),
            ),
        };
        let finite_max = scores
            .iter()
            .copied()
            .filter(|s: &f64| s.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        hics_data::model::HoodsData {
            clamp: if finite_max.is_finite() {
                finite_max
            } else {
                0.0
            },
            k_distance: hoods.iter().map(|h| h.k_distance).collect(),
            lrd,
        }
    }

    /// Checks the self-join (expanded and flat-derived) against the brute
    /// reference on `layout` for every `k` and thread count.
    fn check_self_join(layout: &SubspaceLayout, what: &str) {
        use hics_data::model::{ScorerKind, ScorerSpec};
        let tree = SubspaceIndex::build(layout, IndexKind::VpTree);
        for k in [1, 6, 10, 25] {
            let want = knn_all(layout, k, 1);
            for threads in [1, 2, 3] {
                let what = format!("{what} k={k} threads={threads}");
                assert_bitwise_hoods(&want, &knn_all_indexed(layout, &tree, k, threads), &what);
                for kind in [ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth] {
                    let scorer = ScorerSpec { kind, k: k as u32 };
                    let reference = reference_hoods(layout, scorer);
                    for index in [&tree, &SubspaceIndex::Brute] {
                        let got = crate::query::subspace_hoods(layout, index, scorer, threads);
                        let what = format!("{what} {kind:?} {:?}", index.kind());
                        assert_eq!(got.clamp.to_bits(), reference.clamp.to_bits(), "{what}");
                        assert_eq!(bits(&got.k_distance), bits(&reference.k_distance), "{what}");
                        assert_eq!(bits(&got.lrd), bits(&reference.lrd), "{what}");
                    }
                }
            }
        }
    }

    /// Deterministic pseudo-random coordinates in `[0, 1)`, every fourth
    /// row snapped to a coarse grid so exact ties and duplicates occur.
    fn random_layout(n: usize, dims: usize, seed: u64) -> SubspaceLayout {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cols = vec![Vec::with_capacity(n); dims];
        for i in 0..n {
            for col in cols.iter_mut() {
                let v = next();
                col.push(if i % 4 == 3 {
                    (v * 4.0).floor() / 4.0
                } else {
                    v
                });
            }
        }
        SubspaceLayout::from_cols(cols)
    }

    #[test]
    fn self_join_matches_brute_for_small_sets_in_every_dimensionality() {
        // dims 2 and 3 take a compile-time row length, the others the
        // runtime one; n ≤ LEAF_SIZE is a single leaf, k ≥ n − 1 clamps.
        for dims in 1..=6 {
            for n in 2..=30 {
                let layout = random_layout(n, dims, (dims * 100 + n) as u64);
                check_self_join(&layout, &format!("dims={dims} n={n}"));
            }
        }
    }

    #[test]
    fn self_join_matches_brute_on_deeper_trees() {
        for dims in 1..=6 {
            let layout = random_layout(257, dims, 7 + dims as u64);
            check_self_join(&layout, &format!("dims={dims} n=257"));
        }
    }

    #[test]
    fn self_join_matches_brute_on_a_duplicate_tie_grid() {
        for dims in [2, 3] {
            let mut cols = vec![Vec::new(); dims];
            for cell in 0..4usize.pow(dims as u32) {
                for _copy in 0..2 {
                    let mut c = cell;
                    for col in cols.iter_mut() {
                        col.push((c % 4) as f64);
                        c /= 4;
                    }
                }
            }
            check_self_join(
                &SubspaceLayout::from_cols(cols),
                &format!("grid dims={dims}"),
            );
        }
    }

    #[test]
    fn split_cuts_balanced_contiguous_runs() {
        for n in 0..40 {
            for runs in 1..=9 {
                let cut = split(n, runs);
                assert_eq!(cut.len(), runs.min(n).max(1), "n={n} runs={runs}");
                assert_eq!(cut[0].start, 0);
                assert_eq!(cut[cut.len() - 1].end, n);
                for pair in cut.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                let lens: Vec<usize> = cut.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "n={n} runs={runs}: {lens:?}");
                assert!(n == 0 || *lo >= 1, "n={n} runs={runs}: an empty run");
            }
        }
    }

    #[test]
    fn self_join_does_not_depend_on_the_number_of_runs() {
        // The runs are cut from the thread budget alone, not from the
        // host's core count, so 7 runs are 7 runs on any machine.
        for dims in [2, 3, 6] {
            let layout = random_layout(500, dims, 40 + dims as u64);
            let tree = SubspaceIndex::build(&layout, IndexKind::VpTree);
            let want = knn_all(&layout, 10, 1);
            for index in [&tree, &SubspaceIndex::Brute] {
                for runs in [1, 2, 3, 7] {
                    let got =
                        knn_all_flat(&layout, index.tree().as_ref(), 10, runs).into_neighborhoods();
                    let what = format!("dims={dims} {:?} runs={runs}", index.kind());
                    assert_bitwise_hoods(&want, &got, &what);
                }
            }
        }
    }

    #[test]
    fn tree_order_visits_every_object_once() {
        for n in [1, 12, 13, 200] {
            let layout = random_layout(n, 2, n as u64);
            let tree = VpTree::build(&layout);
            let mut order = tree_order(&tree.as_data().view());
            assert_eq!(order[0], 0, "the root's vantage comes first");
            order.sort_unstable();
            assert_eq!(order, (0..n as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn index_kind_parses_and_names() {
        assert_eq!("brute".parse::<IndexKind>().unwrap(), IndexKind::Brute);
        assert_eq!("vptree".parse::<IndexKind>().unwrap(), IndexKind::VpTree);
        assert!("grid".parse::<IndexKind>().is_err());
        assert_eq!(IndexKind::VpTree.name(), "vptree");
        assert_eq!(IndexKind::default(), IndexKind::Brute);
    }

    #[test]
    #[should_panic]
    fn vptree_rejects_zero_k() {
        let data = Dataset::from_columns(vec![vec![0.0, 1.0]]);
        let view = SubspaceView::new(&data, &[0]);
        let tree = SubspaceIndex::build(&view, IndexKind::VpTree);
        tree.knn_point(&view, &[0.5], 0, None);
    }

    #[test]
    #[should_panic]
    fn vptree_rejects_no_candidates() {
        let data = Dataset::from_columns(vec![vec![0.0]]);
        let view = SubspaceView::new(&data, &[0]);
        let tree = SubspaceIndex::build(&view, IndexKind::VpTree);
        tree.knn_point(&view, &[0.5], 1, Some(0));
    }
}
