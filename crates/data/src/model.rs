//! The trained-model artifact: everything `hics fit` learns, in one
//! zero-dependency binary file that `hics score` / `hics serve` reload.
//!
//! HiCS decouples subspace search from outlier ranking; the search result —
//! the high-contrast subspace set — is a *model* that can score new query
//! points without re-running the search (cf. outlying-aspect mining and
//! subspace-ensemble methods, which likewise treat the mined subspace set as
//! a reusable artifact). [`HicsModel`] bundles:
//!
//! * the trained columns (the reference database, already normalised),
//! * the per-attribute normalisation transform, so raw query points map
//!   into the trained value space bit-for-bit,
//! * the per-attribute [`RankIndex`] argsort permutations,
//! * the selected subspaces with their contrast scores,
//! * the scorer configuration (scorer kind, `k`, aggregation),
//! * optionally, per-subspace VP-trees and per-subspace neighbourhood state
//!   (the "hoods": k-distances, LOF densities and the non-finite clamp),
//!   so opening the model skips both the tree builds and the all-points
//!   kNN pass.
//!
//! # On-disk format (versions 1, 2 and 4)
//!
//! The shared envelope ([`crate::envelope`]: header, checksum, 8-aligned
//! sections) under magic `"HICSMDL\0"`, with `n` the object count. The
//! model's header words and sections:
//!
//! ```text
//! offset  size  field
//!     32     8  subspace count (u64)
//!     40     4  scorer kind    (u32: 0 LOF, 1 kNN-mean, 2 kNN-kth)
//!     44     4  scorer k       (u32)
//!     48     4  aggregation    (u32: 0 average, 1 max)
//!     52     4  normalisation  (u32: 0 none, 1 min-max, 2 z-score)
//! ----- sections, each padded to an 8-byte boundary -----
//!            names, norm params, columns   (the envelope's shared sections)
//!            order       d × n × u32   (argsort permutations)
//!            sub lens    count × u32
//!            sub dims    Σ lens × u32  (flattened, ascending per subspace)
//!            contrasts   count × f64
//! ----- versions 2 and 4: neighbor-index section -----
//!            index kind  u32 (1 = VP-tree; 0 = no trees, version 4 only)
//!                        + u32 reserved
//!            per subspace (VP-tree only):
//!              node count u32, ids length u32
//!              nodes      count × 32 B (vantage, inner, outer, start, len,
//!                         reserved — all u32 — then mu f64)
//!              ids        length × u32, zero-padded to 8 B
//! ----- version 4 only: hoods section -----
//!            per subspace:
//!              clamp      f64      (largest finite training score)
//!              k-dists    n × f64
//!              LRDs       n × f64  (LOF only)
//! ```
//!
//! A model **without** a prebuilt index or hoods serialises as version 1 —
//! exactly the pre-index byte stream, so older readers keep working and
//! new readers fall back to the brute-force scan. A model carrying
//! per-subspace VP-trees serialises as version 2 with the index section
//! appended. A model carrying hoods serialises as version 4: the index
//! section (kind 0 when there are no trees) followed by the hoods section,
//! whose sizes all follow from `n` and the scorer, so it has no length
//! fields. Version 3 is reserved for the sharded manifest
//! ([`crate::manifest`]); a model artifact never uses it, and the model
//! parser rejects it.
//!
//! The inverse ranks of the [`RankIndex`] are not stored: they are rebuilt
//! from the order permutations in `O(D·N)` at load time (and validating the
//! permutations requires that pass anyway).
//!
//! # Encoding
//!
//! One encoder, [`ModelWriter`], writes every artifact in file order: the
//! [`ModelHead`] (header, attributes, columns, order permutations,
//! subspaces), then each VP-tree, then each subspace's hoods, then the
//! checksum. The head announces the trees' shapes, so the header's payload
//! length is exact before any tree exists. A fit streams through it as
//! each piece is computed; [`HicsModel::to_bytes`] runs the same stages in
//! memory.
//!
//! # Decoding paths
//!
//! All validation lives in one place, `ArtifactLayout::parse`, which walks
//! the byte stream once, validating the bulk sections (columns, order
//! permutations, VP-trees, hoods) in place, and records where they start.
//! Two consumers share it, and read the trees and hoods through the same
//! in-place views ([`VpTreeView`], [`HoodsView`]):
//!
//! * [`HicsModel::from_bytes`] copies everything into owned vectors — the
//!   heap-loading path.
//! * [`crate::artifact::ModelArtifact`] keeps the (typically memory-mapped)
//!   bytes and serves *borrowed* views out of them — the zero-copy path.
//!   Because both run the identical parser, they accept and reject exactly
//!   the same byte streams.

use crate::dataset::Dataset;
use crate::envelope::{
    cast, f64_at, parse_header, u32_slice_le_bytes, HashingWriter, Peek, Reader, WordCode,
    HEADER_LEN,
};
use crate::error::{ArtifactSection, HicsError};
use crate::index::RankIndex;
use crate::source::ColumnsView;
use std::borrow::Cow;
use std::io::{Cursor, Read, Seek, Write};
use std::path::Path;

pub use crate::envelope::{artifact_checksum, fnv1a, FNV_OFFSET};

/// Current (maximum) on-disk format version: the version of an artifact
/// carrying the hoods section. Versions 1 (no index) and 2 (index only)
/// are still written for models without hoods; version 3 belongs to the
/// sharded manifest ([`crate::manifest::MANIFEST_VERSION`]).
pub const FORMAT_VERSION: u32 = 4;

/// File magic, first eight bytes of every model artifact.
pub const MAGIC: [u8; 8] = *b"HICSMDL\0";

/// Which density-based scorer the model was fit for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScorerKind {
    /// Local Outlier Factor (the paper's instantiation).
    #[default]
    Lof,
    /// Mean distance to the k nearest neighbours.
    KnnMean,
    /// Distance to the k-th nearest neighbour.
    KnnKth,
}

impl WordCode for ScorerKind {
    const ALL: &'static [Self] = &[ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth];
    const WHAT: &'static str = "scorer kind";
}

impl ScorerKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScorerKind::Lof => "LOF",
            ScorerKind::KnnMean => "kNN-mean",
            ScorerKind::KnnKth => "kNN-kth",
        }
    }
}

/// The scorer configuration stored in the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScorerSpec {
    /// The scorer family.
    pub kind: ScorerKind,
    /// Neighbourhood size (`MinPts` for LOF, `k` for the kNN scores).
    pub k: u32,
}

impl Default for ScorerSpec {
    fn default() -> Self {
        Self {
            kind: ScorerKind::Lof,
            k: 10,
        }
    }
}

/// How per-subspace scores aggregate into one ranking (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationKind {
    /// Arithmetic mean over subspaces (the paper's choice).
    #[default]
    Average,
    /// Per-object maximum over subspaces.
    Max,
}

impl WordCode for AggregationKind {
    const ALL: &'static [Self] = &[AggregationKind::Average, AggregationKind::Max];
    const WHAT: &'static str = "aggregation";
}

/// The normalisation applied to the training data at fit time (and to every
/// query point at score time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormKind {
    /// Raw values.
    #[default]
    None,
    /// Per-attribute min-max scaling to `[0, 1]`.
    MinMax,
    /// Per-attribute z-score standardisation.
    ZScore,
}

impl WordCode for NormKind {
    const ALL: &'static [Self] = &[NormKind::None, NormKind::MinMax, NormKind::ZScore];
    const WHAT: &'static str = "normalisation kind";
}

impl NormKind {
    /// Display name (CLI option spelling).
    pub fn name(self) -> &'static str {
        match self {
            NormKind::None => "none",
            NormKind::MinMax => "minmax",
            NormKind::ZScore => "zscore",
        }
    }
}

/// One attribute's affine normalisation `stored = (raw − offset) / divisor`.
///
/// A `divisor` of exactly `0.0` marks a constant training attribute: every
/// value (training or query) maps to `0.0`, matching
/// [`Dataset::normalize_min_max`] / [`Dataset::normalize_z_score`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormParam {
    /// Subtracted first (the attribute minimum or mean).
    pub offset: f64,
    /// Divided second (the attribute range or standard deviation).
    pub divisor: f64,
}

impl NormParam {
    /// The identity transform.
    pub const IDENTITY: NormParam = NormParam {
        offset: 0.0,
        divisor: 1.0,
    };

    /// Applies the transform to one raw value.
    #[inline]
    pub fn apply(&self, raw: f64) -> f64 {
        if self.divisor == 0.0 {
            0.0
        } else {
            (raw - self.offset) / self.divisor
        }
    }
}

/// Per-attribute normalisation accumulator: fed one attribute's values in
/// row order, it yields that attribute's [`NormParam`]. The one computation
/// of the transform, shared by fit-time ([`normalize_dataset`]) and
/// import-time (the dataset store's streaming writer) normalisation, so
/// both produce the same bits. The arithmetic matches
/// [`Dataset::normalize_min_max`] / [`Dataset::normalize_z_score`]
/// expression for expression.
#[derive(Debug, Clone)]
pub enum NormAcc {
    /// No normalisation: the identity transform.
    None,
    /// Running minimum and maximum.
    MinMax {
        /// Smallest value seen.
        lo: f64,
        /// Largest value seen.
        hi: f64,
    },
    /// Running mean and population variance.
    ZScore(hics_stats::Moments),
}

impl NormAcc {
    /// An empty accumulator for `kind`.
    pub fn new(kind: NormKind) -> Self {
        match kind {
            NormKind::None => NormAcc::None,
            NormKind::MinMax => NormAcc::MinMax {
                lo: f64::INFINITY,
                hi: f64::NEG_INFINITY,
            },
            NormKind::ZScore => NormAcc::ZScore(hics_stats::Moments::new()),
        }
    }

    /// Feeds the next value of the attribute.
    #[inline]
    pub fn push(&mut self, v: f64) {
        match self {
            NormAcc::None => {}
            NormAcc::MinMax { lo, hi } => {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
            NormAcc::ZScore(m) => m.push(v),
        }
    }

    /// The transform of the values fed so far. A constant attribute gets a
    /// zero divisor, which [`NormParam::apply`] maps to `0.0`.
    pub fn param(&self) -> NormParam {
        match self {
            NormAcc::None => NormParam::IDENTITY,
            NormAcc::MinMax { lo, hi } => {
                let width = hi - lo;
                NormParam {
                    offset: *lo,
                    divisor: if width > 0.0 { width } else { 0.0 },
                }
            }
            NormAcc::ZScore(m) => {
                let sd = m.population_variance().sqrt();
                NormParam {
                    offset: m.mean(),
                    divisor: if sd > 0.0 { sd } else { 0.0 },
                }
            }
        }
    }
}

/// Computes the per-attribute normalisation of `kind` for `data`,
/// transforms the columns in place and returns them together with the
/// parameters — the fit-time counterpart of [`NormParam::apply`]. Taking
/// the dataset by value means no second copy of the columns is made.
pub fn normalize_dataset(mut data: Dataset, kind: NormKind) -> (Dataset, Vec<NormParam>) {
    let params: Vec<NormParam> = data
        .columns()
        .iter()
        .map(|c| {
            let mut acc = NormAcc::new(kind);
            for &v in c {
                acc.push(v);
            }
            acc.param()
        })
        .collect();
    if kind != NormKind::None {
        for (c, p) in data.columns_mut().iter_mut().zip(&params) {
            for v in c.iter_mut() {
                *v = p.apply(*v);
            }
        }
    }
    (data, params)
}

/// [`normalize_dataset`] on a copy of `data`, for callers that keep the raw
/// columns.
pub fn apply_normalization(data: &Dataset, kind: NormKind) -> (Dataset, Vec<NormParam>) {
    normalize_dataset(data.clone(), kind)
}

/// One selected subspace with its Monte-Carlo contrast.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSubspace {
    /// Attribute indices, ascending.
    pub dims: Vec<usize>,
    /// The contrast estimate the search assigned it.
    pub contrast: f64,
}

/// Sentinel for "no node" / "no vantage" in [`VpNodeData`] links.
pub const VP_NONE: u32 = u32::MAX;

/// One VP-tree node in its plain-old-data on-disk form. Internal nodes
/// carry a vantage object and the median radius `mu` splitting the inner
/// ball (`d ≤ mu`) from the outer shell (`d ≥ mu`); leaves carry a range of
/// [`VpTreeData::ids`].
///
/// The data carrier lives in `hics-data` so the artifact can serialise
/// prebuilt trees; construction and querying live in `hics-outlier`, which
/// owns the distance kernels.
///
/// `#[repr(C)]` makes the struct its own 32-byte index-section record (five
/// `u32`s, the reserved `u32` as padding, then `mu`), so a mapped
/// artifact's nodes are read in place ([`VpTreeView`]).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VpNodeData {
    /// Vantage object id ([`VP_NONE`] for leaves).
    pub vantage: u32,
    /// Node index of the inner-ball child ([`VP_NONE`] for leaves).
    pub inner: u32,
    /// Node index of the outer-shell child ([`VP_NONE`] for leaves).
    pub outer: u32,
    /// Leaf range start into [`VpTreeData::ids`] (0 for internal nodes).
    pub start: u32,
    /// Leaf range length (0 for internal nodes).
    pub len: u32,
    /// Median vantage distance of internal nodes (0 for leaves).
    pub mu: f64,
}

const _: () = assert!(
    std::mem::size_of::<VpNodeData>() == 32 && std::mem::align_of::<VpNodeData>() == 8,
    "VpNodeData is its 32-byte on-disk record"
);

// SAFETY: `#[repr(C)]` over five u32s, 4 bytes of padding and an f64
// (the layout the assertion above pins), which is the record's
// little-endian layout on a little-endian target; every pattern of each
// field's bytes is a valid value, and the padding is never read.
unsafe impl crate::envelope::Record for VpNodeData {
    fn from_le(bytes: &[u8]) -> Self {
        let word = |at: usize| u32_at(bytes, at);
        VpNodeData {
            vantage: word(0),
            inner: word(4),
            outer: word(8),
            start: word(12),
            len: word(16),
            mu: f64_at(bytes, 24),
        }
    }
}

/// One subspace's VP-tree as flat arrays (node 0 is the root).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VpTreeData {
    /// Tree nodes in construction order.
    pub nodes: Vec<VpNodeData>,
    /// Object ids referenced by leaf ranges (vantages live in the nodes).
    pub ids: Vec<u32>,
}

/// The size of one stored VP-tree: its node count and the length of its
/// leaf-id array — all a [`ModelHead`] needs of a tree before it exists.
/// A tree `hics-outlier` builds over `n` points has a shape that depends
/// on `n` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Node records.
    pub nodes: usize,
    /// Leaf ids.
    pub ids: usize,
}

impl VpTreeData {
    /// An empty tree with room for exactly `shape`'s arrays, for a builder
    /// to fill.
    pub fn with_shape(shape: TreeShape) -> Self {
        Self {
            nodes: Vec::with_capacity(shape.nodes),
            ids: Vec::with_capacity(shape.ids),
        }
    }

    /// The tree as a borrowed view.
    pub fn view(&self) -> VpTreeView<'_> {
        VpTreeView {
            nodes: Cow::Borrowed(&self.nodes),
            ids: Cow::Borrowed(&self.ids),
        }
    }
}

/// One VP-tree's arrays, borrowed: read in place from an artifact's index
/// section ([`crate::ModelArtifact::tree`]; decoded copies only where the
/// in-place cast is unsound), or lent by a [`VpTreeData`]. The form every
/// traversal reads.
#[derive(Debug, Clone, PartialEq)]
pub struct VpTreeView<'a> {
    /// Tree nodes in construction order.
    pub nodes: Cow<'a, [VpNodeData]>,
    /// Object ids referenced by leaf ranges.
    pub ids: Cow<'a, [u32]>,
}

impl VpTreeView<'_> {
    /// The tree's array lengths.
    pub fn shape(&self) -> TreeShape {
        TreeShape {
            nodes: self.nodes.len(),
            ids: self.ids.len(),
        }
    }

    /// The tree in owned form.
    pub fn into_owned(self) -> VpTreeData {
        VpTreeData {
            nodes: self.nodes.into_owned(),
            ids: self.ids.into_owned(),
        }
    }
}

/// The prebuilt neighbor-index payload of a version-2 artifact: one VP-tree
/// per model subspace, aligned with [`HicsModel::subspaces`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelIndex {
    /// Per-subspace trees, same order as the subspace section.
    pub trees: Vec<VpTreeData>,
}

/// One subspace's precomputed neighbourhood state over the `n` trained
/// objects — what serving needs besides the points and the tree: every
/// object's k-distance (the LOF reachability input), its local
/// reachability density (LOF only) and the non-finite query clamp.
#[derive(Debug, Clone, PartialEq)]
pub struct HoodsData {
    /// Largest finite training score of the subspace, the value a
    /// non-finite query score is clamped to (`0.0` if none is finite).
    pub clamp: f64,
    /// k-distance of every training object.
    pub k_distance: Vec<f64>,
    /// Local reachability density of every training object for the LOF
    /// scorer; empty for the kNN scorers, which never read it.
    pub lrd: Vec<f64>,
}

impl HoodsData {
    /// The state as a borrowed view.
    pub fn view(&self) -> HoodsView<'_> {
        HoodsView {
            clamp: self.clamp,
            k_distance: Cow::Borrowed(&self.k_distance),
            lrd: Cow::Borrowed(&self.lrd),
        }
    }
}

/// One subspace's neighbourhood state, borrowed: read in place from an
/// artifact's hoods section ([`crate::ModelArtifact::hoods_view`]; decoded
/// copies only where the in-place cast is unsound), or lent by a
/// [`HoodsData`].
#[derive(Debug, Clone, PartialEq)]
pub struct HoodsView<'a> {
    /// The non-finite query clamp (see [`HoodsData::clamp`]).
    pub clamp: f64,
    /// k-distance of every training object.
    pub k_distance: Cow<'a, [f64]>,
    /// Local reachability density of every training object (LOF only).
    pub lrd: Cow<'a, [f64]>,
}

impl HoodsView<'_> {
    /// The state in owned form.
    pub fn into_owned(self) -> HoodsData {
        HoodsData {
            clamp: self.clamp,
            k_distance: self.k_distance.into_owned(),
            lrd: self.lrd.into_owned(),
        }
    }
}

/// The hoods payload of a version-4 artifact: one [`HoodsData`] per model
/// subspace, aligned with [`HicsModel::subspaces`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHoods {
    /// Per-subspace state, same order as the subspace section.
    pub subspaces: Vec<HoodsData>,
}

/// The value domain of one subspace's hoods, shared by the byte parser and
/// the in-memory check of [`HicsModel::set_hoods`]: a finite clamp,
/// k-distances and LRDs `≥ 0` — never NaN or negative. `+∞` is legal for
/// both: duplicate points give `lrd = ∞`, and a distance between extreme
/// (finite) coordinates can overflow.
fn check_hood_values(hoods: &HoodsView<'_>) -> Result<(), String> {
    let clamp = hoods.clamp;
    if !clamp.is_finite() {
        return Err(format!("non-finite clamp {clamp}"));
    }
    let invalid = |values: &[f64]| values.iter().position(|v| v.is_nan() || *v < 0.0);
    if let Some(i) = invalid(&hoods.k_distance) {
        let v = hoods.k_distance[i];
        return Err(format!("invalid k-distance {v} for object {i}"));
    }
    if let Some(i) = invalid(&hoods.lrd) {
        let v = hoods.lrd[i];
        return Err(format!("invalid LRD {v} for object {i}"));
    }
    Ok(())
}

/// Validates subspace `s`'s hoods against the model shape: `n`
/// k-distances, `n` LRDs exactly when the scorer is LOF, and every value
/// inside [`check_hood_values`]'s domain.
fn validate_hood(
    hoods: &HoodsView<'_>,
    n: usize,
    kind: ScorerKind,
    s: usize,
) -> Result<(), HicsError> {
    let fail = |msg: String| HicsError::InvalidModel {
        section: ArtifactSection::Hoods,
        offset: 0,
        msg: format!("subspace {s}: {msg}"),
    };
    let lrd_len = if kind == ScorerKind::Lof { n } else { 0 };
    if hoods.k_distance.len() != n || hoods.lrd.len() != lrd_len {
        return Err(fail(format!(
            "holds {} k-distances and {} LRDs, expected {n} and {lrd_len}",
            hoods.k_distance.len(),
            hoods.lrd.len()
        )));
    }
    check_hood_values(hoods).map_err(fail)
}

/// Structural validation of one serialized VP-tree over `n` objects: every
/// link in range, no node visited twice, leaf ranges disjoint and exactly
/// covering `ids`, and every object appearing exactly once as a vantage or
/// leaf entry. Rejecting here means the query path can traverse without
/// bounds anxiety.
///
/// `subspace` and `offset` locate the tree for the error: the subspace it
/// belongs to and the byte offset its encoding starts at (`0` for trees
/// validated in memory, e.g. via [`HicsModel::set_index`]). A stored tree
/// is validated where it lies, through its in-place view.
fn validate_tree(
    tree: &VpTreeView<'_>,
    n: usize,
    subspace: usize,
    offset: usize,
) -> Result<(), HicsError> {
    let fail = |msg: String| HicsError::InvalidModel {
        section: ArtifactSection::Index,
        offset,
        msg: format!("invalid VP-tree for subspace {subspace}: {msg}"),
    };
    if tree.nodes.is_empty() {
        return Err(fail("tree has no nodes".into()));
    }
    let mut visited = vec![false; tree.nodes.len()];
    let mut seen = vec![false; n];
    let mut covered_ids = 0usize;
    let mut stack = vec![0u32];
    while let Some(idx) = stack.pop() {
        let node = tree
            .nodes
            .get(idx as usize)
            .ok_or_else(|| fail(format!("node link {idx} out of range")))?;
        if std::mem::replace(&mut visited[idx as usize], true) {
            return Err(fail(format!("node {idx} reachable twice")));
        }
        if node.vantage == VP_NONE {
            // Leaf: a range of ids, no children, no radius.
            if node.inner != VP_NONE || node.outer != VP_NONE || node.mu != 0.0 {
                return Err(fail(format!("leaf node {idx} carries internal fields")));
            }
            let start = node.start as usize;
            let end = start + node.len as usize;
            if end > tree.ids.len() {
                return Err(fail(format!("leaf node {idx} range exceeds ids")));
            }
            for &id in &tree.ids[start..end] {
                if (id as usize) >= n || std::mem::replace(&mut seen[id as usize], true) {
                    return Err(fail(format!("leaf object id {id} invalid or duplicated")));
                }
            }
            covered_ids += node.len as usize;
        } else {
            if (node.vantage as usize) >= n
                || std::mem::replace(&mut seen[node.vantage as usize], true)
            {
                return Err(fail(format!(
                    "vantage id {} invalid or duplicated",
                    node.vantage
                )));
            }
            // `+∞` is a radius the builder makes: a distance between
            // extreme (finite) coordinates can overflow.
            if node.mu.is_nan() || node.mu < 0.0 {
                return Err(fail(format!("node {idx} has invalid radius {}", node.mu)));
            }
            if node.len != 0 {
                return Err(fail(format!("internal node {idx} carries a leaf range")));
            }
            if node.inner == VP_NONE || node.outer == VP_NONE {
                return Err(fail(format!("internal node {idx} is missing a child")));
            }
            stack.push(node.inner);
            stack.push(node.outer);
        }
    }
    if covered_ids != tree.ids.len() {
        return Err(fail(format!(
            "leaf ranges cover {covered_ids} of {} ids",
            tree.ids.len()
        )));
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(fail(format!("object {missing} missing from the tree")));
    }
    if visited.iter().any(|&v| !v) {
        return Err(fail("unreachable tree nodes".into()));
    }
    Ok(())
}

/// The fully validated decoding of one artifact byte stream: every small
/// section materialised, the bulk sections (columns, order permutations,
/// trees, hoods) located by byte offset so consumers can choose between
/// copying them out ([`HicsModel::from_bytes`]) and reading them in place
/// ([`crate::artifact::ModelArtifact`]) — through the same views either
/// way.
///
/// `parse` performs **all** artifact validation: header sanity, payload
/// length, checksum, UTF-8 names, finite values, permutation checks,
/// subspace structure, VP-tree structure and the hoods' value domain.
/// Consumers never re-validate.
#[derive(Debug, Clone)]
pub(crate) struct ArtifactLayout {
    /// Decoded format version (1, 2 or 4).
    pub version: u32,
    /// Object count.
    pub n: usize,
    /// Attribute count.
    pub d: usize,
    /// Scorer configuration.
    pub scorer: ScorerSpec,
    /// Score aggregation.
    pub aggregation: AggregationKind,
    /// Normalisation kind.
    pub norm_kind: NormKind,
    /// Attribute names (owned; the section is tiny).
    pub names: Vec<String>,
    /// Normalisation parameters (owned; the section is tiny).
    pub norm: Vec<NormParam>,
    /// Byte offset of the columns section (`d × n × f64`, 8-aligned).
    pub columns_offset: usize,
    /// Byte offset of the order section (`d × n × u32`).
    pub order_offset: usize,
    /// Selected subspaces with contrasts (owned; tiny).
    pub subspaces: Vec<ModelSubspace>,
    /// Where the prebuilt VP-trees of a version-2 or version-4 stream lie,
    /// one per subspace.
    pub trees: Option<Vec<TreeAt>>,
    /// Byte offset of the hoods section of a version-4 stream (8-aligned;
    /// per subspace a clamp, `n` k-distances and, for LOF, `n` LRDs).
    pub hoods_offset: Option<usize>,
}

impl ArtifactLayout {
    /// Walks and validates one artifact byte stream. See the type docs.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Self, HicsError> {
        let (header, mut r) = parse_header(
            bytes,
            &MAGIC,
            "object count",
            // Version 3 is the sharded manifest's envelope (same magic):
            // never decode one as a model.
            |_, version| match version {
                1 | 2 | FORMAT_VERSION => Ok(()),
                _ => Err(HicsError::UnsupportedVersion(version)),
            },
            |r| {
                let sub_count = r.usize_field("subspace count")?;
                let kind = r.code()?;
                let k = r.u32()?;
                Ok((sub_count, ScorerSpec { kind, k }, r.code()?, r.code()?))
            },
            |&(sub_count, scorer, ..), n, d| {
                if n < 2 || d == 0 {
                    // Every downstream consumer scores with kNN
                    // neighbourhoods, which need at least two reference
                    // objects.
                    return Err(format!(
                        "model needs at least 2 objects and 1 attribute, got {n} x {d}"
                    ));
                }
                if u32::try_from(n).is_err() {
                    return Err(format!("object count {n} exceeds u32"));
                }
                if sub_count == 0 {
                    return Err("model has no subspaces".into());
                }
                if scorer.k == 0 {
                    return Err("scorer k must be >= 1".into());
                }
                Ok(())
            },
        )?;
        let (version, n, d) = (header.version, header.n as usize, header.d);
        let (sub_count, scorer, aggregation, norm_kind) = header.words;
        // The counts come straight from the (attacker-suppliable) header;
        // cross-check them against what the payload could possibly hold
        // BEFORE sizing any allocation from them, or a crafted header makes
        // `Vec::with_capacity` panic or abort instead of returning an
        // error. Conservative floors: every attribute needs ≥ 4 (name
        // length) + 16 (norm params) bytes plus 12·n column/order bytes;
        // every subspace ≥ 4 + 4 + 8 (len + one dim + contrast); every
        // object ≥ 12 bytes per attribute.
        if d > bytes.len() / 20 {
            return Err(r.invalid(format!(
                "attribute count {d} exceeds what a {}-byte payload can hold",
                bytes.len()
            )));
        }
        if n > bytes.len() / 12 {
            return Err(r.invalid(format!(
                "object count {n} exceeds what a {}-byte payload can hold",
                bytes.len()
            )));
        }
        if sub_count > bytes.len() / 16 {
            return Err(r.invalid(format!(
                "subspace count {sub_count} exceeds what a {}-byte payload can hold",
                bytes.len()
            )));
        }

        let (names, norm) = crate::envelope::read_attributes(&mut r, d)?;
        // Columns: validated in place, not materialised.
        let columns_offset = crate::envelope::read_columns(&mut r, n, d, ArtifactSection::Columns)?;
        // Order permutations: validated in place, not materialised. Each
        // must sort its column as `rank::argsort` does (values
        // non-decreasing, −0.0 equal to +0.0, ties in ascending id): the
        // engine's in-sample lookup binary-searches attribute 0's.
        r.section = ArtifactSection::Order;
        let order_offset = r.offset;
        let mut seen = vec![false; n];
        for j in 0..d {
            seen.iter_mut().for_each(|s| *s = false);
            let value = |id: u32| crate::envelope::value(bytes, columns_offset, n, id as usize, j);
            let mut prev: Option<u32> = None;
            for _ in 0..n {
                let id = r.u32()?;
                if (id as usize) >= n || std::mem::replace(&mut seen[id as usize], true) {
                    return Err(r.invalid(format!(
                        "order of attribute {j} is not a permutation of 0..{n}"
                    )));
                }
                if let Some(p) = prev {
                    let (a, b) = (value(p), value(id));
                    if a > b || (a == b && p > id) {
                        return Err(r.invalid(format!(
                            "order of attribute {j} does not sort its column at object {id}"
                        )));
                    }
                }
                prev = Some(id);
            }
        }
        r.align8()?;
        // Subspaces.
        r.section = ArtifactSection::Subspaces;
        let mut lens = Vec::with_capacity(sub_count);
        for _ in 0..sub_count {
            lens.push(r.u32()? as usize);
        }
        r.align8()?;
        let mut subspaces = Vec::with_capacity(sub_count);
        for (s, &len) in lens.iter().enumerate() {
            if len == 0 {
                return Err(r.invalid(format!("subspace {s} is empty")));
            }
            // Strictly ascending dims within 0..d cap a subspace at d
            // attributes; check before allocating from the stored length.
            if len > d {
                return Err(r.invalid(format!(
                    "subspace {s} claims {len} dims, more than the {d} attributes"
                )));
            }
            let mut dims = Vec::with_capacity(len);
            for _ in 0..len {
                dims.push(r.u32()? as usize);
            }
            if !dims.windows(2).all(|w| w[0] < w[1]) || dims[len - 1] >= d {
                return Err(r.invalid(format!(
                    "subspace {s} dims {dims:?} are not strictly ascending within 0..{d}"
                )));
            }
            subspaces.push(ModelSubspace {
                dims,
                contrast: 0.0,
            });
        }
        r.align8()?;
        r.section = ArtifactSection::Contrasts;
        for (s, sub) in subspaces.iter_mut().enumerate() {
            let c = r.f64()?;
            if !c.is_finite() {
                return Err(r.invalid(format!("non-finite contrast for subspace {s}")));
            }
            sub.contrast = c;
        }
        // Versions 2 and 4 append the neighbor-index section; a version-1
        // stream ends here and downstream consumers fall back to the brute
        // scan.
        r.section = ArtifactSection::Index;
        let trees = if version >= 2 {
            let kind = r.u32()?;
            // Kind 0 ("no trees") only exists so a version-4 stream can
            // carry hoods without an index.
            if kind != 1 && !(kind == 0 && version == FORMAT_VERSION) {
                return Err(r.invalid(format!("unknown index kind {kind}")));
            }
            let reserved = r.u32()?;
            if reserved != 0 {
                return Err(r.invalid("non-zero index reserved field".into()));
            }
            if kind == 0 {
                None
            } else {
                Some(Self::parse_trees(&mut r, n, sub_count)?)
            }
        } else {
            None
        };
        // Version 4 appends the hoods section. Its size follows from n and
        // the scorer, so one length check bounds the whole walk.
        r.section = ArtifactSection::Hoods;
        let hoods_offset = if version == FORMAT_VERSION {
            let lof = scorer.kind == ScorerKind::Lof;
            let stride = Self::hoods_stride(n, lof);
            let remaining = bytes.len() - r.offset;
            if stride.checked_mul(sub_count) != Some(remaining) {
                return Err(r.invalid(format!(
                    "hoods section holds {remaining} bytes, but {sub_count} subspaces need \
                     {stride} each (clamp + {n} k-distances{})",
                    if lof {
                        format!(" + {n} LRDs")
                    } else {
                        String::new()
                    }
                )));
            }
            let start = r.offset;
            for s in 0..sub_count {
                let at = r.offset;
                r.take(stride)?;
                check_hood_values(&Self::hoods_at(bytes, at, n, lof)).map_err(|msg| {
                    HicsError::InvalidModel {
                        section: ArtifactSection::Hoods,
                        offset: at,
                        msg: format!("subspace {s}: {msg}"),
                    }
                })?;
            }
            Some(start)
        } else {
            None
        };
        if r.offset != bytes.len() {
            return Err(r.invalid(format!(
                "{} trailing bytes after the last section",
                bytes.len() - r.offset
            )));
        }

        Ok(Self {
            version,
            n,
            d,
            scorer,
            aggregation,
            norm_kind,
            names,
            norm,
            columns_offset,
            order_offset,
            subspaces,
            trees,
            hoods_offset,
        })
    }

    /// Walks the VP-trees of the index section (after its kind and
    /// reserved words) field by field, validating each one in place, and
    /// returns where they lie.
    fn parse_trees(
        r: &mut Reader<'_>,
        n: usize,
        sub_count: usize,
    ) -> Result<Vec<TreeAt>, HicsError> {
        let mut trees = Vec::with_capacity(sub_count);
        for s in 0..sub_count {
            let tree_offset = r.offset;
            let node_count = r.u32()? as usize;
            let ids_len = r.u32()? as usize;
            let nodes = r.offset;
            for _ in 0..node_count {
                // vantage, inner, outer, start, len; then reserved and mu.
                for _ in 0..5 {
                    r.u32()?;
                }
                if r.u32()? != 0 {
                    return Err(r.invalid(format!("non-zero reserved node field in tree {s}")));
                }
                r.f64()?;
            }
            let ids = r.offset;
            for _ in 0..ids_len {
                r.u32()?;
            }
            r.align8()?;
            let at = TreeAt {
                nodes,
                node_count,
                ids,
                ids_len,
            };
            validate_tree(&at.view(r.bytes), n, s, tree_offset)?;
            trees.push(at);
        }
        Ok(trees)
    }

    /// Bytes of one subspace's hoods: the clamp, `n` k-distances and, for
    /// LOF, `n` LRDs.
    fn hoods_stride(n: usize, lof: bool) -> usize {
        8 + 8 * n * (1 + usize::from(lof))
    }

    /// Subspace `s`'s stored VP-tree in `bytes` (the stream this layout
    /// was parsed from), or `None` for an artifact without trees.
    pub(crate) fn tree<'a>(&self, bytes: &'a [u8], s: usize) -> Option<VpTreeView<'a>> {
        Some(self.trees.as_ref()?[s].view(bytes))
    }

    /// Subspace `s`'s hoods in `bytes` (the stream this layout was parsed
    /// from), or `None` for an artifact without the section.
    pub(crate) fn hoods<'a>(&self, bytes: &'a [u8], s: usize) -> Option<HoodsView<'a>> {
        let lof = self.scorer.kind == ScorerKind::Lof;
        let start = self.hoods_offset? + s * Self::hoods_stride(self.n, lof);
        Some(Self::hoods_at(bytes, start, self.n, lof))
    }

    /// The hoods of one subspace starting at `start`.
    fn hoods_at(bytes: &[u8], start: usize, n: usize, lof: bool) -> HoodsView<'_> {
        HoodsView {
            clamp: f64_at(bytes, start),
            k_distance: cast(bytes, start + 8, n),
            lrd: cast(bytes, start + 8 + n * 8, if lof { n } else { 0 }),
        }
    }
}

/// Where one stored VP-tree's arrays lie in an artifact byte stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeAt {
    /// Byte offset of the node records (8-aligned).
    nodes: usize,
    node_count: usize,
    /// Byte offset of the leaf ids (8-aligned).
    ids: usize,
    ids_len: usize,
}

impl TreeAt {
    fn view(self, bytes: &[u8]) -> VpTreeView<'_> {
        VpTreeView {
            nodes: cast(bytes, self.nodes, self.node_count),
            ids: cast(bytes, self.ids, self.ids_len),
        }
    }
}

/// A trained HiCS model: the reference data, its rank index, the selected
/// subspaces, and the scorer configuration. See the module docs for the
/// on-disk format.
#[derive(Debug, Clone)]
pub struct HicsModel {
    dataset: Dataset,
    norm_kind: NormKind,
    norm: Vec<NormParam>,
    subspaces: Vec<ModelSubspace>,
    scorer: ScorerSpec,
    aggregation: AggregationKind,
    rank: RankIndex,
    index: Option<ModelIndex>,
    hoods: Option<ModelHoods>,
}

impl PartialEq for HicsModel {
    fn eq(&self, other: &Self) -> bool {
        // The rank index is a deterministic function of the dataset; it is
        // rebuilt on load and excluded from equality.
        self.dataset == other.dataset
            && self.norm_kind == other.norm_kind
            && self.norm == other.norm
            && self.subspaces == other.subspaces
            && self.scorer == other.scorer
            && self.aggregation == other.aggregation
            && self.index == other.index
            && self.hoods == other.hoods
    }
}

impl HicsModel {
    /// Assembles a model from its parts. `dataset` must already carry the
    /// normalisation described by `norm_kind` / `norm`.
    ///
    /// # Panics
    /// Panics if shapes are inconsistent, a subspace is out of range or not
    /// strictly ascending, `scorer.k == 0`, or `subspaces` is empty — the
    /// same contract [`HicsModel::from_bytes`] enforces with errors.
    pub fn new(
        dataset: Dataset,
        norm_kind: NormKind,
        norm: Vec<NormParam>,
        subspaces: Vec<ModelSubspace>,
        scorer: ScorerSpec,
        aggregation: AggregationKind,
    ) -> Self {
        let rank = dataset.rank_index();
        let model = Self {
            dataset,
            norm_kind,
            norm,
            subspaces,
            scorer,
            aggregation,
            rank,
            index: None,
            hoods: None,
        };
        model.assert_valid();
        model
    }

    /// Attaches (or removes) a prebuilt neighbor index. With an index the
    /// artifact serialises as format version 2; without one it stays a
    /// version-1 byte stream.
    ///
    /// # Panics
    /// Panics if the tree count does not match the subspace count or a tree
    /// fails structural validation — the same contract
    /// [`HicsModel::from_bytes`] enforces with errors.
    pub fn set_index(&mut self, index: Option<ModelIndex>) {
        self.index = index;
        self.assert_valid();
    }

    /// The prebuilt neighbor index, if the model carries one.
    pub fn index(&self) -> Option<&ModelIndex> {
        self.index.as_ref()
    }

    /// Attaches (or removes) precomputed neighbourhood state. With hoods
    /// the artifact serialises as format version 4; without them it stays
    /// a version-1 or version-2 byte stream.
    ///
    /// # Panics
    /// Panics if the hoods do not match the subspace count, `n` or the
    /// scorer (LRDs exactly for LOF), or hold a value outside the
    /// section's domain — the same contract [`HicsModel::from_bytes`]
    /// enforces with errors.
    pub fn set_hoods(&mut self, hoods: Option<ModelHoods>) {
        self.hoods = hoods;
        self.assert_valid();
    }

    /// The precomputed neighbourhood state, if the model carries it.
    pub fn hoods(&self) -> Option<&ModelHoods> {
        self.hoods.as_ref()
    }

    /// Number of trained objects `N`.
    pub fn n(&self) -> usize {
        self.dataset.n()
    }

    /// Number of attributes `D`.
    pub fn d(&self) -> usize {
        self.dataset.d()
    }

    /// The trained (normalised) reference data.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The stored per-attribute rank index.
    pub fn rank_index(&self) -> &RankIndex {
        &self.rank
    }

    /// The normalisation kind applied at fit time.
    pub fn norm_kind(&self) -> NormKind {
        self.norm_kind
    }

    /// Per-attribute normalisation parameters.
    pub fn norm_params(&self) -> &[NormParam] {
        &self.norm
    }

    /// The selected subspaces, best first.
    pub fn subspaces(&self) -> &[ModelSubspace] {
        &self.subspaces
    }

    /// The scorer configuration.
    pub fn scorer(&self) -> ScorerSpec {
        self.scorer
    }

    /// The score aggregation.
    pub fn aggregation(&self) -> AggregationKind {
        self.aggregation
    }

    /// Maps a raw query row into the trained value space (the same affine
    /// transform the training columns went through at fit time).
    ///
    /// # Panics
    /// Panics if `raw.len() != d`.
    pub fn transform_row(&self, raw: &[f64]) -> Vec<f64> {
        assert_eq!(raw.len(), self.d(), "query row has wrong dimensionality");
        raw.iter()
            .zip(&self.norm)
            .map(|(&v, p)| p.apply(v))
            .collect()
    }

    // ------------------------------------------------------------------
    // Serialisation
    // ------------------------------------------------------------------

    /// Encodes the model into its binary format: version 1 without a
    /// neighbor index or hoods, version 2 with an index only, version 4
    /// with hoods. The bytes come from the one artifact encoder,
    /// [`ModelWriter`], through the stages a fit streams to its file.
    pub fn to_bytes(&self) -> Vec<u8> {
        const VALID: &str = "a constructed model encodes";
        let view = ColumnsView::from_dataset(&self.dataset);
        let shapes = self.tree_shapes();
        let head = self.head(&view, shapes.as_deref());
        let sink = Cursor::new(Vec::with_capacity(head.byte_len()));
        let mut w = ModelWriter::begin(sink, Path::new("memory"), &head).expect(VALID);
        for tree in self.index.iter().flat_map(|i| &i.trees) {
            w.put_tree(&tree.view()).expect(VALID);
        }
        for hoods in self.hoods.iter().flat_map(|h| &h.subspaces) {
            w.put_hoods(&hoods.view()).expect(VALID);
        }
        w.finish().expect(VALID).into_inner()
    }

    /// The shapes of the model's stored trees, if it has any.
    fn tree_shapes(&self) -> Option<Vec<TreeShape>> {
        let index = self.index.as_ref()?;
        Some(index.trees.iter().map(|t| t.view().shape()).collect())
    }

    /// The model's head over `view` (a view of its own dataset).
    fn head<'a>(
        &'a self,
        view: &'a ColumnsView<'a>,
        trees: Option<&'a [TreeShape]>,
    ) -> ModelHead<'a> {
        ModelHead {
            view,
            norm_kind: self.norm_kind,
            norm: &self.norm,
            subspaces: &self.subspaces,
            scorer: self.scorer,
            aggregation: self.aggregation,
            order: &self.rank,
            trees,
            hoods: self.hoods.is_some(),
        }
    }

    /// Panics with the first violation of the artifact contract — the
    /// in-memory form of what [`HicsModel::from_bytes`] rejects with
    /// errors.
    fn assert_valid(&self) {
        let check = || -> Result<(), HicsError> {
            let view = ColumnsView::from_dataset(&self.dataset);
            let shapes = self.tree_shapes();
            self.head(&view, shapes.as_deref()).validate()?;
            let n = self.n();
            for (s, tree) in self.index.iter().flat_map(|i| &i.trees).enumerate() {
                validate_tree(&tree.view(), n, s, 0)?;
            }
            if let Some(hoods) = &self.hoods {
                let count = hoods.subspaces.len();
                if count != self.subspaces.len() {
                    return Err(HicsError::InvalidModel {
                        section: ArtifactSection::Hoods,
                        offset: 0,
                        msg: format!("{count} hoods for {} subspaces", self.subspaces.len()),
                    });
                }
                for (s, h) in hoods.subspaces.iter().enumerate() {
                    validate_hood(&h.view(), n, self.scorer.kind, s)?;
                }
            }
            Ok(())
        };
        if let Err(e) = check() {
            panic!("{e}");
        }
    }

    /// Decodes and validates a model from its binary encoding, materialising
    /// every section into owned storage (columns, rank index and all). For
    /// the zero-copy alternative see [`crate::artifact::ModelArtifact`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HicsError> {
        let layout = ArtifactLayout::parse(bytes)?;
        let (n, d) = (layout.n, layout.d);
        let cols = (0..d)
            .map(|j| crate::envelope::column(bytes, layout.columns_offset, n, j).into_owned())
            .collect();
        let order = (0..d)
            .map(|j| cast(bytes, layout.order_offset + j * n * 4, n).into_owned())
            .collect();
        let dataset = Dataset::from_columns_named(cols, layout.names.clone());
        let rank = RankIndex::from_order(order);
        let subspaces = 0..layout.subspaces.len();
        let index = layout.trees.as_ref().map(|_| ModelIndex {
            trees: subspaces
                .clone()
                .map(|s| layout.tree(bytes, s).expect("section present").into_owned())
                .collect(),
        });
        let hoods = layout.hoods_offset.map(|_| ModelHoods {
            subspaces: subspaces
                .map(|s| {
                    layout
                        .hoods(bytes, s)
                        .expect("section present")
                        .into_owned()
                })
                .collect(),
        });
        Ok(Self {
            dataset,
            norm_kind: layout.norm_kind,
            norm: layout.norm,
            subspaces: layout.subspaces,
            scorer: layout.scorer,
            aggregation: layout.aggregation,
            rank,
            index,
            hoods,
        })
    }

    /// Writes the artifact to `path` atomically (temp file + sync + rename,
    /// see [`crate::mmap::write_atomic_with`]): a serving process may have
    /// the old artifact memory-mapped
    /// ([`crate::artifact::ModelArtifact::open_mmap`]), and the rename keeps
    /// its inode alive instead of truncating it under the map.
    pub fn save(&self, path: &Path) -> Result<(), HicsError> {
        crate::mmap::write_atomic(path, &self.to_bytes())
    }

    /// Reads and validates an artifact from `path` into owned storage. For
    /// the zero-copy loader see
    /// [`crate::artifact::ModelArtifact::open_mmap`].
    pub fn load(path: &Path) -> Result<Self, HicsError> {
        let mut f =
            std::fs::File::open(path).map_err(|e| HicsError::io_path("opening", path, e))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)
            .map_err(|e| HicsError::io_path("reading", path, e))?;
        Self::from_bytes(&bytes)
    }
}

/// Reads the magic and format version of the file at `path` without
/// decoding it: the cheap sniff that routes an `.hics` path to the right
/// loader (versions 1, 2 and 4 are model artifacts — 4 carrying the hoods
/// section — and version 3 is a sharded model manifest, see
/// [`crate::manifest`]).
pub fn peek_artifact_version(path: &Path) -> Result<u32, HicsError> {
    let head = Peek::file(path)?;
    let version = head.version()?;
    if head.magic() != Some(MAGIC) {
        return Err(HicsError::BadMagic);
    }
    Ok(version)
}

/// Everything an artifact's header and its first sections hold — what a
/// fit knows once the subspace search has run. The trees and the hoods
/// follow through [`ModelWriter::put_tree`] and
/// [`ModelWriter::put_hoods`]; the head announces only their sizes, so the
/// header's payload length is exact before either exists.
#[derive(Debug, Clone, Copy)]
pub struct ModelHead<'a> {
    /// The trained (normalised) columns and attribute names.
    pub view: &'a ColumnsView<'a>,
    /// The normalisation kind applied at fit time.
    pub norm_kind: NormKind,
    /// Per-attribute normalisation parameters.
    pub norm: &'a [NormParam],
    /// The selected subspaces, best first.
    pub subspaces: &'a [ModelSubspace],
    /// The scorer configuration.
    pub scorer: ScorerSpec,
    /// The score aggregation.
    pub aggregation: AggregationKind,
    /// The argsort permutations, written as the order section (the
    /// subspace search builds them, so no column is sorted twice).
    pub order: &'a RankIndex,
    /// The shape of each VP-tree the index section will hold, one per
    /// subspace; `None` writes no trees.
    pub trees: Option<&'a [TreeShape]>,
    /// Whether the hoods section follows (format version 4).
    pub hoods: bool,
}

/// The object-count limits of a written artifact: at least two reference
/// objects (every scorer works on kNN neighbourhoods) and at most
/// `u32::MAX` (object ids are stored as `u32`). A fit checks them before it
/// runs any phase; [`ModelWriter::begin`] checks them again.
pub fn check_object_count(n: usize) -> Result<(), HicsError> {
    if n < 2 {
        return Err(HicsError::InvalidInput(format!(
            "a servable model needs at least two reference objects, got {n}"
        )));
    }
    if u32::try_from(n).is_err() {
        return Err(HicsError::InvalidInput(format!(
            "object count {n} exceeds the u32 artifact cap"
        )));
    }
    Ok(())
}

impl ModelHead<'_> {
    /// The format version the artifact encodes as: 4 with hoods, 2 with
    /// trees only, 1 otherwise.
    pub fn version(&self) -> u32 {
        match (self.trees, self.hoods) {
            (_, true) => FORMAT_VERSION,
            (Some(_), false) => 2,
            (None, false) => 1,
        }
    }

    /// Checks the head against everything [`ArtifactLayout::parse`]
    /// enforces on its sections, so a written artifact always re-opens.
    fn validate(&self) -> Result<(), HicsError> {
        let (n, d) = (self.view.n(), self.view.d());
        let invalid = |msg: String| HicsError::InvalidInput(msg);
        if self.order.n() != n || self.order.d() != d {
            return Err(invalid(format!(
                "rank index is {} x {}, view is {n} x {d}",
                self.order.n(),
                self.order.d()
            )));
        }
        check_object_count(n)?;
        if self.norm.len() != d {
            return Err(invalid(format!(
                "{} norm params for {d} attributes",
                self.norm.len()
            )));
        }
        if self.subspaces.is_empty() {
            return Err(invalid("a model needs at least one subspace".into()));
        }
        if self.scorer.k == 0 {
            return Err(invalid("scorer k must be >= 1".into()));
        }
        for (s, sub) in self.subspaces.iter().enumerate() {
            if sub.dims.is_empty()
                || !sub.dims.windows(2).all(|w| w[0] < w[1])
                || *sub.dims.last().expect("non-empty") >= d
            {
                return Err(invalid(format!(
                    "subspace {s} dims {:?} are not strictly ascending within 0..{d}",
                    sub.dims
                )));
            }
            if !sub.contrast.is_finite() {
                return Err(invalid(format!("non-finite contrast for subspace {s}")));
            }
        }
        if let Some(trees) = self.trees {
            if trees.len() != self.subspaces.len() {
                return Err(invalid(format!(
                    "{} index trees for {} subspaces",
                    trees.len(),
                    self.subspaces.len()
                )));
            }
        }
        Ok(())
    }

    /// The artifact header (see the module docs).
    fn header(&self) -> [u8; HEADER_LEN] {
        let words: [&[u8]; 5] = [
            &(self.subspaces.len() as u64).to_le_bytes(),
            &self.scorer.kind.code().to_le_bytes(),
            &self.scorer.k.to_le_bytes(),
            &self.aggregation.code().to_le_bytes(),
            &self.norm_kind.code().to_le_bytes(),
        ];
        let (n, d) = (self.view.n() as u64, self.view.d());
        crate::envelope::header(
            &MAGIC,
            self.version(),
            n,
            d,
            &words,
            self.byte_len() - HEADER_LEN,
        )
    }

    /// The exact artifact length in bytes, header included: the size of
    /// the buffer an in-memory encoding fills.
    pub fn byte_len(&self) -> usize {
        let (n, d) = (self.view.n(), self.view.d());
        let pad = |o: usize| o.next_multiple_of(8);
        let mut off = HEADER_LEN + crate::envelope::attributes_len(self.view.names());
        off += d * n * 8; // columns
        off += d * n * 4; // order permutations
        off = pad(off);
        off += self.subspaces.len() * 4; // lens
        off = pad(off);
        off += self
            .subspaces
            .iter()
            .map(|s| s.dims.len() * 4)
            .sum::<usize>();
        off = pad(off);
        off += self.subspaces.len() * 8; // contrasts
        if self.version() >= 2 {
            off += 8; // index kind + reserved
            for tree in self.trees.into_iter().flatten() {
                off = pad(off + 8 + tree.nodes * 32 + tree.ids * 4);
            }
        }
        if self.hoods {
            let lof = self.scorer.kind == ScorerKind::Lof;
            off += self.subspaces.len() * ArtifactLayout::hoods_stride(n, lof);
        }
        off
    }
}

/// The one artifact encoder, in file order: [`ModelWriter::begin`] writes
/// the header and every section of the [`ModelHead`], then each subspace's
/// VP-tree ([`ModelWriter::put_tree`]) and hoods
/// ([`ModelWriter::put_hoods`]) go out as they are computed, and
/// [`ModelWriter::finish`] patches the checksum into the header. So a fit
/// holds one subspace's hoods at a time, never the whole artifact, and
/// [`HicsModel::to_bytes`] writes the same bytes through the same stages.
///
/// Every stage validates what it is given, so a finished artifact always
/// re-opens; a stage out of order, a tree whose shape differs from the
/// announced one, or a missing stage at [`ModelWriter::finish`] is an
/// [`HicsError::InvalidInput`].
pub struct ModelWriter<W: Write + Seek> {
    w: HashingWriter<W>,
    /// Where the bytes go, for error messages.
    dest: std::path::PathBuf,
    n: usize,
    scorer: ScorerKind,
    subspaces: usize,
    /// The announced tree shapes (empty without an index section).
    trees: Vec<TreeShape>,
    trees_written: usize,
    hoods: bool,
    hoods_written: usize,
}

impl<W: Write + Seek> ModelWriter<W> {
    /// Validates `head` and writes the header (with a zero checksum) and
    /// the head's sections — attributes, columns, order permutations,
    /// subspaces and, from version 2, the index section's kind word — to
    /// `sink`. `dest` names the destination in error messages.
    pub fn begin(sink: W, dest: &Path, head: &ModelHead<'_>) -> Result<Self, HicsError> {
        head.validate()?;
        let io = |e| HicsError::io_path("writing", dest, e);
        let mut w = HashingWriter::new(sink, &head.header()).map_err(io)?;
        (|| {
            let view = head.view;
            w.put_attributes(view.names(), head.norm)?;
            for col in view.iter_cols() {
                w.put_f64s(col)?;
            }
            for j in 0..view.d() {
                w.put(&u32_slice_le_bytes(head.order.order(j)))?;
            }
            // d·n·4 order bytes follow 8-aligned sections, so realign.
            w.pad8()?;
            // Subspaces: lens, flattened dims, contrasts.
            for s in head.subspaces {
                w.put(&(s.dims.len() as u32).to_le_bytes())?;
            }
            w.pad8()?;
            for s in head.subspaces {
                for &dim in &s.dims {
                    w.put(&(dim as u32).to_le_bytes())?;
                }
            }
            w.pad8()?;
            for s in head.subspaces {
                w.put(&s.contrast.to_le_bytes())?;
            }
            // Versions 2 and 4: the neighbor-index section's kind word (0,
            // no trees, when a version-4 artifact has no index).
            if head.version() >= 2 {
                w.put(&u32::from(head.trees.is_some()).to_le_bytes())?;
                w.put(&0u32.to_le_bytes())?; // reserved
            }
            Ok(())
        })()
        .map_err(io)?;
        Ok(Self {
            w,
            dest: dest.to_path_buf(),
            n: head.view.n(),
            scorer: head.scorer.kind,
            subspaces: head.subspaces.len(),
            trees: head.trees.map(<[_]>::to_vec).unwrap_or_default(),
            trees_written: 0,
            hoods: head.hoods,
            hoods_written: 0,
        })
    }

    /// Writes the next subspace's VP-tree, which must have the shape the
    /// head announced for it and pass the structural validation of a
    /// stored tree.
    pub fn put_tree(&mut self, tree: &VpTreeView<'_>) -> Result<(), HicsError> {
        let s = self.trees_written;
        let Some(&expected) = self.trees.get(s) else {
            return Err(HicsError::InvalidInput(format!(
                "tree {s} was not announced by the artifact head"
            )));
        };
        let shape = tree.shape();
        if shape != expected {
            return Err(HicsError::InvalidInput(format!(
                "tree {s} has {} nodes and {} ids, the artifact head announced {} and {}",
                shape.nodes, shape.ids, expected.nodes, expected.ids
            )));
        }
        validate_tree(tree, self.n, s, 0)?;
        let w = &mut self.w;
        (|| {
            w.put(&(shape.nodes as u32).to_le_bytes())?;
            w.put(&(shape.ids as u32).to_le_bytes())?;
            for node in tree.nodes.iter() {
                w.put(&node.vantage.to_le_bytes())?;
                w.put(&node.inner.to_le_bytes())?;
                w.put(&node.outer.to_le_bytes())?;
                w.put(&node.start.to_le_bytes())?;
                w.put(&node.len.to_le_bytes())?;
                w.put(&0u32.to_le_bytes())?; // reserved
                w.put(&node.mu.to_le_bytes())?;
            }
            w.put(&u32_slice_le_bytes(&tree.ids))?;
            w.pad8()
        })()
        .map_err(|e| HicsError::io_path("writing", &self.dest, e))?;
        self.trees_written += 1;
        Ok(())
    }

    /// Writes the next subspace's hoods, after every tree: `n`
    /// k-distances, `n` LRDs exactly when the scorer is LOF, and every
    /// value inside the section's domain.
    pub fn put_hoods(&mut self, hoods: &HoodsView<'_>) -> Result<(), HicsError> {
        let s = self.hoods_written;
        if !self.hoods || s == self.subspaces || self.trees_written < self.trees.len() {
            return Err(HicsError::InvalidInput(format!(
                "hoods {s} do not follow the artifact head and its {} trees",
                self.trees.len()
            )));
        }
        validate_hood(hoods, self.n, self.scorer, s)?;
        let w = &mut self.w;
        (|| {
            w.put(&hoods.clamp.to_le_bytes())?;
            w.put_f64s(&hoods.k_distance)?;
            w.put_f64s(&hoods.lrd)
        })()
        .map_err(|e| HicsError::io_path("writing", &self.dest, e))?;
        self.hoods_written += 1;
        Ok(())
    }

    /// Checks that every announced tree and hoods entry was written, then
    /// flushes the bytes, patches the checksum into the header and returns
    /// the sink.
    pub fn finish(self) -> Result<W, HicsError> {
        let hoods_due = if self.hoods { self.subspaces } else { 0 };
        if self.trees_written != self.trees.len() || self.hoods_written != hoods_due {
            return Err(HicsError::InvalidInput(format!(
                "artifact ended after {} of {} trees and {} of {hoods_due} hoods",
                self.trees_written,
                self.trees.len(),
                self.hoods_written
            )));
        }
        self.w
            .finish_in_place()
            .map_err(|e| HicsError::io_path("writing", &self.dest, e))
    }
}

/// Reads the little-endian `u32` at `off`.
#[inline]
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticConfig;

    fn sample_model(norm_kind: NormKind) -> HicsModel {
        let g = SyntheticConfig::new(60, 5).with_seed(3).generate();
        let (data, norm) = apply_normalization(&g.dataset, norm_kind);
        HicsModel::new(
            data,
            norm_kind,
            norm,
            vec![
                ModelSubspace {
                    dims: vec![0, 1],
                    contrast: 0.83,
                },
                ModelSubspace {
                    dims: vec![1, 3, 4],
                    contrast: 0.41,
                },
            ],
            ScorerSpec {
                kind: ScorerKind::Lof,
                k: 7,
            },
            AggregationKind::Average,
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for norm in [NormKind::None, NormKind::MinMax, NormKind::ZScore] {
            let m = sample_model(norm);
            let bytes = m.to_bytes();
            let back = HicsModel::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(m, back);
            // Rank index rebuilds identically.
            for j in 0..m.d() {
                assert_eq!(m.rank_index().order(j), back.rank_index().order(j));
                assert_eq!(m.rank_index().rank(j), back.rank_index().rank(j));
            }
            assert_eq!(bytes, back.to_bytes());
        }
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        let m = sample_model(NormKind::MinMax);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        assert_eq!(&bytes[..8], &MAGIC);
        // The layout's bulk-section offsets are 8-aligned — the invariant
        // the zero-copy column views stand on.
        let layout = ArtifactLayout::parse(&bytes).expect("parse");
        assert_eq!(layout.columns_offset % 8, 0);
        assert_eq!(layout.order_offset % 8, 0);
    }

    #[test]
    fn save_load_file_roundtrip() {
        let dir = std::env::temp_dir().join("hics-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.hicsmodel");
        let m = sample_model(NormKind::ZScore);
        m.save(&path).expect("save");
        let back = HicsModel::load(&path).expect("load");
        assert_eq!(m, back);
        std::fs::remove_file(&path).ok();
    }

    /// Streams `m` to `path` through the staged writer, as a fit does.
    fn save_staged(m: &HicsModel, path: &Path) -> Result<(), HicsError> {
        let view = crate::source::ColumnsView::from_dataset(m.dataset());
        let shapes = m.tree_shapes();
        let head = m.head(&view, shapes.as_deref());
        crate::mmap::write_atomic_with(path, |file, tmp| {
            let mut w = ModelWriter::begin(std::io::BufWriter::new(file), tmp, &head)?;
            for tree in m.index().iter().flat_map(|i| &i.trees) {
                w.put_tree(&tree.view())?;
            }
            for hoods in m.hoods().iter().flat_map(|h| &h.subspaces) {
                w.put_hoods(&hoods.view())?;
            }
            w.finish().map(drop)
        })
    }

    /// A single-leaf tree over all `n` objects: the smallest structurally
    /// valid index.
    fn leaf_tree(n: usize) -> VpTreeData {
        VpTreeData {
            nodes: vec![VpNodeData {
                vantage: VP_NONE,
                inner: VP_NONE,
                outer: VP_NONE,
                start: 0,
                len: n as u32,
                mu: 0.0,
            }],
            ids: (0..n as u32).collect(),
        }
    }

    /// Hoods of the right shape for `m`'s scorer, with every value legal.
    fn flat_hoods(m: &HicsModel) -> ModelHoods {
        let lrd = if m.scorer().kind == ScorerKind::Lof {
            vec![1.0; m.n()]
        } else {
            Vec::new()
        };
        ModelHoods {
            subspaces: vec![
                HoodsData {
                    clamp: 2.5,
                    k_distance: vec![0.5; m.n()],
                    lrd,
                };
                m.subspaces().len()
            ],
        }
    }

    /// The staged file writer must emit the exact bytes
    /// `HicsModel::save` emits for the same content — the invariant that
    /// lets the out-of-core fit path and the in-memory pipeline produce
    /// interchangeable (bit-identical) artifacts — for every version.
    #[test]
    fn streaming_writer_is_byte_identical_to_save() {
        let dir = std::env::temp_dir().join("hics-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (tag, with_index, with_hoods) in [
            ("v1", false, false),
            ("v2", true, false),
            ("v4", false, true),
            ("v4-trees", true, true),
        ] {
            for norm_kind in [NormKind::None, NormKind::ZScore] {
                let mut m = sample_model(norm_kind);
                if with_index {
                    m.set_index(Some(ModelIndex {
                        trees: vec![leaf_tree(m.n()); 2],
                    }));
                }
                if with_hoods {
                    m.set_hoods(Some(flat_hoods(&m)));
                }
                let path = dir.join(format!("stream-{tag}-{}.hicsmodel", norm_kind.name()));
                save_staged(&m, &path).expect("staged save");
                let streamed = std::fs::read(&path).expect("read back");
                assert_eq!(streamed, m.to_bytes(), "{tag}/{}", norm_kind.name());
                assert_eq!(HicsModel::from_bytes(&streamed).expect("reopens"), m);
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn streaming_writer_rejects_invalid_content() {
        let mut m = sample_model(NormKind::None);
        m.set_index(Some(ModelIndex {
            trees: vec![leaf_tree(m.n()); 2],
        }));
        let view = crate::source::ColumnsView::from_dataset(m.dataset());
        let shapes = m.tree_shapes();
        let head = m.head(&view, shapes.as_deref());
        let begin = |head: &ModelHead<'_>| {
            ModelWriter::begin(Cursor::new(Vec::new()), Path::new("memory"), head)
        };
        // No subspaces.
        assert!(begin(&ModelHead {
            subspaces: &[],
            ..head
        })
        .is_err());
        // Out-of-range subspace.
        assert!(begin(&ModelHead {
            subspaces: &[ModelSubspace {
                dims: vec![0, 99],
                contrast: 0.5
            }],
            ..head
        })
        .is_err());
        // A tree of another shape than the announced one.
        let mut w = begin(&head).expect("valid head");
        let mut odd = leaf_tree(m.n());
        odd.nodes.push(odd.nodes[0]);
        assert!(matches!(
            w.put_tree(&odd.view()),
            Err(HicsError::InvalidInput(_))
        ));
        // Hoods before the trees, and a finish before every stage.
        let hoods = flat_hoods(&m);
        assert!(w.put_hoods(&hoods.subspaces[0].view()).is_err());
        w.put_tree(&leaf_tree(m.n()).view())
            .expect("announced tree");
        assert!(w.finish().is_err());
        // A structurally broken tree of the announced shape.
        let mut w = begin(&head).expect("valid head");
        let mut broken = leaf_tree(m.n());
        broken.ids[1] = broken.ids[0];
        assert!(w.put_tree(&broken.view()).is_err());
        // Hoods with a value outside the section's domain.
        let mut w = begin(&ModelHead {
            trees: None,
            hoods: true,
            ..head
        })
        .expect("valid head");
        let mut bad = hoods.subspaces[0].clone();
        bad.k_distance[3] = -1.0;
        assert!(w.put_hoods(&bad.view()).is_err());
        // A failed file save leaves no file.
        let path = std::env::temp_dir().join("hics-model-test-reject.hicsmodel");
        let result = crate::mmap::write_atomic_with(&path, |file, tmp| {
            let mut w = ModelWriter::begin(std::io::BufWriter::new(file), tmp, &head)?;
            w.put_tree(&odd.view())
        });
        assert!(result.is_err());
        assert!(!path.exists(), "failed save must not leave a file");
    }

    #[test]
    fn peek_reports_version_and_rejects_non_artifacts() {
        let dir = std::env::temp_dir().join("hics-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("peek.hicsmodel");
        let m = sample_model(NormKind::None);
        m.save(&path).expect("save");
        assert_eq!(peek_artifact_version(&path).expect("peek"), 1);
        std::fs::write(&path, b"definitely not an artifact").unwrap();
        assert!(matches!(
            peek_artifact_version(&path),
            Err(HicsError::BadMagic)
        ));
        std::fs::write(&path, &MAGIC[..6]).unwrap();
        assert!(matches!(
            peek_artifact_version(&path),
            Err(HicsError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let missing = std::env::temp_dir().join("hics-no-such-artifact.hicsmodel");
        match HicsModel::load(&missing) {
            Err(HicsError::Io { context, .. }) => {
                assert!(context.contains("opening"), "{context}")
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let m = sample_model(NormKind::None);
        let mut bytes = m.to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            HicsModel::from_bytes(&bytes),
            Err(HicsError::BadMagic)
        ));
        let mut bytes = m.to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            HicsModel::from_bytes(&bytes),
            Err(HicsError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let m = sample_model(NormKind::None);
        let bytes = m.to_bytes();
        // Every strict prefix must fail loudly, never panic or succeed.
        for cut in [0, 4, 8, 15, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(
                HicsModel::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn rejects_corrupt_permutation() {
        let m = sample_model(NormKind::None);
        let mut bytes = m.to_bytes();
        // The order section starts after names (aligned), norm params and
        // columns; corrupt its first entry to a duplicate of the second.
        let order_start = ArtifactLayout::parse(&bytes).expect("parse").order_offset;
        let second = bytes[order_start + 4..order_start + 8].to_vec();
        bytes[order_start..order_start + 4].copy_from_slice(&second);
        // The checksum catches the corruption before section parsing; with
        // a re-stamped checksum, permutation validation catches it.
        assert!(matches!(
            HicsModel::from_bytes(&bytes),
            Err(HicsError::ChecksumMismatch { .. })
        ));
        let fixed = artifact_checksum(&bytes);
        bytes[64..72].copy_from_slice(&fixed.to_le_bytes());
        match HicsModel::from_bytes(&bytes) {
            Err(HicsError::InvalidModel {
                section, offset, ..
            }) => {
                assert_eq!(section, ArtifactSection::Order);
                assert!(offset > order_start, "offset {offset} within the section");
            }
            other => panic!("expected InvalidModel in order section, got {other:?}"),
        }
    }

    /// Each stored order must sort its column, ties in ascending id: the
    /// serving engine's in-sample lookup binary-searches it. A permutation
    /// that does not, under a re-stamped checksum, is rejected in the order
    /// section by the heap decoder and the map opener alike.
    #[test]
    fn rejects_an_order_that_does_not_sort_its_column() {
        let m = sample_model(NormKind::None);
        let good = m.to_bytes();
        let order_start = ArtifactLayout::parse(&good).expect("parse").order_offset;
        let path =
            std::env::temp_dir().join(format!("hics-unsorted-order-{}.hics", std::process::id()));
        // Swap two neighbours of attribute 0's order: still a permutation.
        for at in [0, m.n() / 2] {
            let mut bad = good.clone();
            let (a, b) = (order_start + 4 * at, order_start + 4 * at + 4);
            let first = bad[a..b].to_vec();
            bad.copy_within(b..b + 4, a);
            bad[b..b + 4].copy_from_slice(&first);
            let fixed = artifact_checksum(&bad);
            bad[64..72].copy_from_slice(&fixed.to_le_bytes());
            match HicsModel::from_bytes(&bad) {
                Err(HicsError::InvalidModel { section, msg, .. }) => {
                    assert_eq!(section, ArtifactSection::Order);
                    assert!(msg.contains("does not sort its column"), "{msg}");
                }
                other => panic!("expected InvalidModel in order section, got {other:?}"),
            }
            std::fs::write(&path, &bad).unwrap();
            match crate::artifact::ModelArtifact::open_mmap(&path) {
                Err(HicsError::InvalidModel { section, .. }) => {
                    assert_eq!(section, ArtifactSection::Order)
                }
                other => panic!("expected InvalidModel in order section, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Astronomically large header counts (with a freshly stamped checksum,
    /// so only the cross-check can catch them) must come back as typed
    /// errors — never a capacity-overflow panic or an allocator abort.
    #[test]
    fn rejects_huge_header_counts_without_allocating() {
        let m = sample_model(NormKind::None);
        let good = m.to_bytes();
        for field_offset in [16usize, 24, 32] {
            // n, d, sub_count respectively.
            let mut bad = good.clone();
            bad[field_offset..field_offset + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
            let fixed = artifact_checksum(&bad);
            bad[64..72].copy_from_slice(&fixed.to_le_bytes());
            assert!(
                matches!(
                    HicsModel::from_bytes(&bad),
                    Err(HicsError::InvalidModel { .. })
                ),
                "field at {field_offset} was not rejected cleanly"
            );
        }
        // An oversized per-subspace dim count is rejected the same way.
        let mut bad = good.clone();
        let layout = ArtifactLayout::parse(&good).expect("parse");
        // The sub-lens section follows the order section (aligned).
        let order_end = layout.order_offset + m.d() * m.n() * 4;
        let lens_offset = order_end.div_ceil(8) * 8;
        bad[lens_offset..lens_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let fixed = artifact_checksum(&bad);
        bad[64..72].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            HicsModel::from_bytes(&bad),
            Err(HicsError::InvalidModel { .. }) | Err(HicsError::Truncated { .. })
        ));
    }

    #[test]
    fn transform_row_matches_training_transform() {
        let g = SyntheticConfig::new(50, 4).with_seed(9).generate();
        for kind in [NormKind::None, NormKind::MinMax, NormKind::ZScore] {
            let (data, norm) = apply_normalization(&g.dataset, kind);
            let m = HicsModel::new(
                data.clone(),
                kind,
                norm,
                vec![ModelSubspace {
                    dims: vec![0, 1],
                    contrast: 0.5,
                }],
                ScorerSpec::default(),
                AggregationKind::Average,
            );
            for i in 0..g.dataset.n() {
                let raw = g.dataset.row(i);
                let t = m.transform_row(&raw);
                assert_eq!(t, data.row(i), "row {i} under {kind:?}");
            }
        }
    }

    #[test]
    fn minmax_matches_dataset_normalization_bitwise() {
        let g = SyntheticConfig::new(50, 3).with_seed(4).generate();
        let (norm_data, _) = apply_normalization(&g.dataset, NormKind::MinMax);
        let mut reference = g.dataset.clone();
        reference.normalize_min_max();
        assert_eq!(norm_data, reference);
        let (z_data, _) = apply_normalization(&g.dataset, NormKind::ZScore);
        let mut z_ref = g.dataset.clone();
        z_ref.normalize_z_score();
        assert_eq!(z_data, z_ref);
    }

    #[test]
    #[should_panic]
    fn new_rejects_out_of_range_subspace() {
        let g = SyntheticConfig::new(20, 3).with_seed(1).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 3],
                contrast: 0.5,
            }],
            ScorerSpec::default(),
            AggregationKind::Average,
        );
    }
}
