//! Zero-copy access to a model artifact: the bytes stay where they are
//! (ideally a memory map of the file), and column, VP-tree and hoods views
//! are served borrowed straight out of them.
//!
//! [`crate::model::HicsModel::load`] materialises every section into owned vectors — the
//! right call for the offline pipeline, which mutates nothing but reads
//! everything many times. Serving wants the opposite trade: a
//! [`crate::model::HicsModel`]-shaped *view* over the file so that loading a
//! multi-gigabyte artifact costs one `mmap` plus one validation pass, and
//! the trained payload — columns, VP-trees and hoods — is shared page cache
//! instead of private heap: across processes, and across the generations a
//! hot-reloading server keeps mapped. `QueryEngine::from_artifact` in
//! `hics-outlier` reads all three through the views below on every query.
//!
//! The artifact format was designed for this from day one: every section
//! starts on an 8-byte boundary from the start of the file (see the format
//! table in [`crate::envelope`]), and a memory map is page-aligned, so the
//! `d × n × f64` columns, the 32-byte VP-tree node records with their `u32`
//! leaf ids, and the `f64` hoods can be reinterpreted as slices in place —
//! no parse, no copy. [`ModelArtifact::column`], [`ModelArtifact::tree`]
//! and [`ModelArtifact::hoods_view`] hand those slices out as [`Cow`]s:
//! borrowed on the aligned little-endian fast path (always, in practice),
//! owned only on exotic platforms where the cast is unsound.
//!
//! Validation is **identical** to the heap path: both run
//! `ArtifactLayout::parse`, so a byte stream is accepted by
//! [`ModelArtifact::open_mmap`] exactly when
//! [`crate::model::HicsModel::from_bytes`] accepts it, every value a borrowed column view can yield was already
//! checked finite, and every stored hoods value was already checked inside
//! its domain.

use crate::envelope;
use crate::error::HicsError;
use crate::mmap::{AlignedBytes, ByteStorage};
use crate::model::{
    AggregationKind, ArtifactLayout, HoodsData, HoodsView, ModelSubspace, NormKind, NormParam,
    ScorerSpec, VpTreeView,
};
use crate::source::DatasetSource;
use std::borrow::Cow;
use std::path::Path;

/// A validated model artifact over in-place bytes (memory-mapped file or
/// 8-aligned heap buffer), serving borrowed column views.
#[derive(Debug)]
pub struct ModelArtifact {
    storage: ByteStorage,
    layout: ArtifactLayout,
}

impl ModelArtifact {
    /// Memory-maps and validates the artifact at `path`. The column payload
    /// is *not* copied: [`ModelArtifact::column`] borrows straight from the
    /// map. On platforms without `mmap` this transparently falls back to an
    /// aligned heap read with the same semantics.
    pub fn open_mmap(path: &Path) -> Result<Self, HicsError> {
        let (storage, layout) = envelope::open_mmap(path, ArtifactLayout::parse)?;
        Ok(Self { storage, layout })
    }

    /// Validates an artifact from in-memory bytes, copying them into an
    /// 8-aligned heap buffer so column views still borrow.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HicsError> {
        Self::from_aligned(AlignedBytes::copy_from(bytes))
    }

    /// Validates an artifact encoded straight into an 8-aligned heap buffer
    /// (see [`crate::model::ModelHead::byte_len`]), and keeps the buffer
    /// without copying it.
    pub fn from_aligned(bytes: AlignedBytes) -> Result<Self, HicsError> {
        let layout = ArtifactLayout::parse(bytes.as_slice())?;
        Ok(Self {
            storage: ByteStorage::Heap(bytes),
            layout,
        })
    }

    /// Whether the bytes are a live memory map of the artifact file (as
    /// opposed to the aligned heap fallback).
    pub fn is_mmap(&self) -> bool {
        self.storage.is_mmap()
    }

    /// The raw validated artifact bytes.
    pub fn bytes(&self) -> &[u8] {
        self.storage.as_slice()
    }

    /// Decoded format version (1, 2 or 4).
    pub fn version(&self) -> u32 {
        self.layout.version
    }

    /// Number of trained objects `N`.
    pub fn n(&self) -> usize {
        self.layout.n
    }

    /// Number of attributes `D`.
    pub fn d(&self) -> usize {
        self.layout.d
    }

    /// Attribute names.
    pub fn names(&self) -> &[String] {
        &self.layout.names
    }

    /// The normalisation kind applied at fit time.
    pub fn norm_kind(&self) -> NormKind {
        self.layout.norm_kind
    }

    /// Per-attribute normalisation parameters.
    pub fn norm_params(&self) -> &[NormParam] {
        &self.layout.norm
    }

    /// The scorer configuration.
    pub fn scorer(&self) -> ScorerSpec {
        self.layout.scorer
    }

    /// The score aggregation.
    pub fn aggregation(&self) -> AggregationKind {
        self.layout.aggregation
    }

    /// The selected subspaces, best first.
    pub fn subspaces(&self) -> &[ModelSubspace] {
        &self.layout.subspaces
    }

    /// Whether the artifact carries prebuilt VP-trees (a version-2 or
    /// version-4 artifact with a non-empty index section).
    pub fn has_index(&self) -> bool {
        self.layout.trees.is_some()
    }

    /// Subspace `s`'s prebuilt VP-tree, read in place from the index
    /// section; `None` for an artifact without trees.
    ///
    /// # Panics
    /// Panics if `s` is not a subspace index.
    pub fn tree(&self, s: usize) -> Option<VpTreeView<'_>> {
        assert!(s < self.subspaces().len(), "subspace {s} out of range");
        self.layout.tree(self.bytes(), s)
    }

    /// Whether the artifact carries the version-4 hoods section.
    pub fn has_hoods(&self) -> bool {
        self.layout.hoods_offset.is_some()
    }

    /// Subspace `s`'s precomputed neighbourhood state, read in place from
    /// the hoods section of a version-4 artifact; `None` for versions 1
    /// and 2, whose consumers compute it.
    ///
    /// # Panics
    /// Panics if `s` is not a subspace index.
    pub fn hoods_view(&self, s: usize) -> Option<HoodsView<'_>> {
        assert!(s < self.subspaces().len(), "subspace {s} out of range");
        self.layout.hoods(self.bytes(), s)
    }

    /// [`ModelArtifact::hoods_view`] copied into owned storage.
    ///
    /// # Panics
    /// Panics if `s` is not a subspace index.
    pub fn hoods(&self, s: usize) -> Option<HoodsData> {
        self.hoods_view(s).map(HoodsView::into_owned)
    }

    /// All `d` trained columns, one after another (column `j` is
    /// `[j · n, (j + 1) · n)`), borrowed like [`ModelArtifact::column`].
    pub fn columns(&self) -> Cow<'_, [f64]> {
        let (n, d) = (self.layout.n, self.layout.d);
        envelope::cast(self.bytes(), self.layout.columns_offset, d * n)
    }

    /// Column `j` of the trained data, borrowed from the artifact bytes
    /// whenever the in-place cast is sound (8-aligned little-endian — every
    /// map and every [`ModelArtifact::from_bytes`] buffer qualifies) and
    /// copied otherwise.
    ///
    /// # Panics
    /// Panics if `j >= d`.
    pub fn column(&self, j: usize) -> Cow<'_, [f64]> {
        assert!(j < self.d(), "column {j} out of range");
        envelope::column(self.bytes(), self.layout.columns_offset, self.layout.n, j)
    }

    /// Attribute `j`'s stored order: the object ids sorted by their value
    /// in column `j`, ties in ascending id (`ArtifactLayout::parse` checks
    /// it), borrowed like [`ModelArtifact::column`].
    ///
    /// # Panics
    /// Panics if `j >= d`.
    pub fn order(&self, j: usize) -> Cow<'_, [u32]> {
        assert!(j < self.d(), "order {j} out of range");
        let n = self.layout.n;
        envelope::cast(self.bytes(), self.layout.order_offset + j * n * 4, n)
    }

    /// Value of object `i` in attribute `j`, read in place.
    ///
    /// # Panics
    /// Panics if `i >= n` or `j >= d`.
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n() && j < self.d(), "({i}, {j}) out of range");
        envelope::value(
            self.bytes(),
            self.layout.columns_offset,
            self.layout.n,
            i,
            j,
        )
    }
}

/// The trained columns as a fit source: read in place, with the
/// normalisation they already carry.
impl DatasetSource for ModelArtifact {
    fn n(&self) -> usize {
        self.layout.n
    }

    fn d(&self) -> usize {
        self.layout.d
    }

    fn names(&self) -> &[String] {
        &self.layout.names
    }

    fn column(&self, j: usize) -> Cow<'_, [f64]> {
        ModelArtifact::column(self, j)
    }

    fn norm_kind(&self) -> NormKind {
        self.layout.norm_kind
    }

    fn norm_params(&self) -> Cow<'_, [NormParam]> {
        Cow::Borrowed(&self.layout.norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        apply_normalization, HicsModel, ModelHoods, ModelIndex, ScorerKind, VpNodeData, VpTreeData,
        VP_NONE,
    };
    use crate::synth::SyntheticConfig;

    fn sample_model() -> HicsModel {
        let g = SyntheticConfig::new(60, 4).with_seed(12).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::MinMax);
        HicsModel::new(
            data,
            NormKind::MinMax,
            norm,
            vec![
                ModelSubspace {
                    dims: vec![0, 2],
                    contrast: 0.7,
                },
                ModelSubspace {
                    dims: vec![1, 2, 3],
                    contrast: 0.3,
                },
            ],
            ScorerSpec {
                kind: ScorerKind::Lof,
                k: 5,
            },
            AggregationKind::Average,
        )
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hics-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mmap_open_matches_heap_load_exactly() {
        let model = sample_model();
        let path = temp_path("mmap-roundtrip.hicsmodel");
        model.save(&path).expect("save");
        let artifact = ModelArtifact::open_mmap(&path).expect("open_mmap");
        assert!(cfg!(not(unix)) || artifact.is_mmap());
        assert_eq!(artifact.n(), model.n());
        assert_eq!(artifact.d(), model.d());
        assert_eq!(artifact.names(), model.dataset().names());
        assert_eq!(artifact.norm_kind(), model.norm_kind());
        assert_eq!(artifact.norm_params(), model.norm_params());
        assert_eq!(artifact.scorer(), model.scorer());
        assert_eq!(artifact.subspaces(), model.subspaces());
        assert_eq!(HicsModel::from_bytes(artifact.bytes()).unwrap(), model);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn columns_are_borrowed_and_bitwise_equal() {
        let model = sample_model();
        let path = temp_path("mmap-columns.hicsmodel");
        model.save(&path).expect("save");
        let artifact = ModelArtifact::open_mmap(&path).expect("open_mmap");
        for j in 0..model.d() {
            let col = artifact.column(j);
            assert!(
                matches!(col, Cow::Borrowed(_)),
                "column {j} was copied, not borrowed"
            );
            assert_eq!(col.as_ref(), model.dataset().col(j), "column {j}");
            for i in (0..model.n()).step_by(7) {
                assert_eq!(artifact.value(i, j), model.dataset().value(i, j));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// `sample_model` with a single-leaf VP-tree per subspace and
    /// synthetic hoods: a version-4 artifact with every section.
    fn model_with_trees_and_hoods() -> HicsModel {
        let mut model = sample_model();
        let n = model.n() as u32;
        let leaf = VpTreeData {
            nodes: vec![VpNodeData {
                vantage: VP_NONE,
                inner: VP_NONE,
                outer: VP_NONE,
                start: 0,
                len: n,
                mu: 0.0,
            }],
            ids: (0..n).collect(),
        };
        model.set_index(Some(ModelIndex {
            trees: vec![leaf; model.subspaces().len()],
        }));
        let hoods = (0..model.subspaces().len())
            .map(|s| HoodsData {
                clamp: 1.5 + s as f64,
                k_distance: (0..n).map(|i| f64::from(i) * 0.25).collect(),
                lrd: (0..n).map(|i| 1.0 / (1.0 + f64::from(i))).collect(),
            })
            .collect();
        model.set_hoods(Some(ModelHoods { subspaces: hoods }));
        model
    }

    /// VP-tree and hoods views borrow from the map, like the columns, and
    /// hold exactly the model's values.
    #[test]
    fn tree_and_hoods_views_are_borrowed_and_equal() {
        let model = model_with_trees_and_hoods();
        let path = temp_path("mmap-views.hicsmodel");
        model.save(&path).expect("save");
        let mapped = ModelArtifact::open_mmap(&path).expect("open_mmap");
        let heap = ModelArtifact::from_bytes(&model.to_bytes()).expect("from_bytes");
        for artifact in [&mapped, &heap] {
            assert_eq!(artifact.version(), 4);
            assert!(artifact.has_index() && artifact.has_hoods());
            assert!(matches!(artifact.columns(), Cow::Borrowed(_)));
            for s in 0..model.subspaces().len() {
                let tree = artifact.tree(s).expect("stored tree");
                assert!(
                    matches!(tree.nodes, Cow::Borrowed(_)),
                    "tree {s} nodes copied"
                );
                assert!(matches!(tree.ids, Cow::Borrowed(_)), "tree {s} ids copied");
                assert_eq!(tree.into_owned(), model.index().unwrap().trees[s]);
                let hoods = artifact.hoods_view(s).expect("stored hoods");
                assert!(
                    matches!(hoods.k_distance, Cow::Borrowed(_)),
                    "hoods {s} copied"
                );
                assert!(matches!(hoods.lrd, Cow::Borrowed(_)), "hoods {s} copied");
                let want = &model.hoods().unwrap().subspaces[s];
                assert_eq!(&hoods.into_owned(), want);
                assert_eq!(artifact.hoods(s).as_ref(), Some(want));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_from_bytes_serves_the_same_views() {
        let model = sample_model();
        let bytes = model.to_bytes();
        let artifact = ModelArtifact::from_bytes(&bytes).expect("from_bytes");
        assert!(!artifact.is_mmap());
        assert_eq!(artifact.bytes(), &bytes[..]);
        for j in 0..model.d() {
            let col = artifact.column(j);
            assert!(matches!(col, Cow::Borrowed(_)), "aligned heap borrows");
            assert_eq!(col.as_ref(), model.dataset().col(j));
        }
        assert_eq!(HicsModel::from_bytes(artifact.bytes()).unwrap(), model);
    }

    #[test]
    fn truncated_map_is_rejected_like_the_heap_path() {
        let model = sample_model();
        let bytes = model.to_bytes();
        let path = temp_path("mmap-truncated.hicsmodel");
        for cut in [0usize, 40, 72, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mapped = ModelArtifact::open_mmap(&path);
            let heap = HicsModel::from_bytes(&bytes[..cut]);
            assert!(mapped.is_err(), "cut {cut} mapped fine");
            assert!(heap.is_err(), "cut {cut} heap-loaded fine");
            // Same failure class either way.
            assert_eq!(
                std::mem::discriminant(&mapped.unwrap_err()),
                std::mem::discriminant(&heap.unwrap_err()),
                "cut {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_map_is_a_checksum_mismatch() {
        let model = sample_model();
        let mut bytes = model.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let path = temp_path("mmap-corrupt.hicsmodel");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ModelArtifact::open_mmap(&path),
            Err(HicsError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Re-saving over a path that is currently memory-mapped must leave the
    /// live map untouched (save goes through temp + rename, so the old
    /// inode survives) — the hot-reload workflow depends on it: refit to
    /// the same path, then `/admin/reload`, while the old map still serves.
    #[test]
    fn resaving_over_a_mapped_artifact_leaves_the_map_intact() {
        let first = sample_model();
        let path = temp_path("resave-under-map.hicsmodel");
        first.save(&path).expect("save first");
        let mapped = ModelArtifact::open_mmap(&path).expect("open first");
        let before = mapped.bytes().to_vec();

        // A different model (different seed → different bytes) over the
        // same path.
        let g = SyntheticConfig::new(70, 4).with_seed(99).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::MinMax);
        let second = HicsModel::new(
            data,
            NormKind::MinMax,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 3],
                contrast: 0.4,
            }],
            ScorerSpec::default(),
            AggregationKind::Average,
        );
        second.save(&path).expect("save second over mapped path");

        // The live map still reads the first artifact, byte for byte.
        assert_eq!(mapped.bytes(), &before[..]);
        assert_eq!(HicsModel::from_bytes(mapped.bytes()).unwrap(), first);
        // A fresh open sees the second.
        let fresh = ModelArtifact::open_mmap(&path).expect("open second");
        assert_eq!(HicsModel::from_bytes(fresh.bytes()).unwrap(), second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let missing = std::env::temp_dir().join("hics-artifact-missing.hicsmodel");
        assert!(matches!(
            ModelArtifact::open_mmap(&missing),
            Err(HicsError::Io { .. })
        ));
    }
}
