//! # hics-store — the out-of-core columnar dataset store
//!
//! HiCS fits on a fully materialised in-RAM matrix; this crate removes that
//! cap. A **dataset store** is a versioned, checksummed, memory-mappable
//! column file: `hics import` streams CSV/ARFF rows into it with bounded
//! memory, and the fit pipeline reads its columns **zero-copy** out of the
//! map through the [`DatasetSource`] seam — the page cache, not the heap,
//! holds the matrix. Sharded fits (`hics fit --shards S`) gather only one
//! shard's rows at a time, so training data larger than RAM flows through
//! import → shard-fit → serve end to end.
//!
//! # On-disk format (version 1)
//!
//! The shared envelope of `hics_data::envelope` (72-byte header, FNV-1a
//! checksum, 8-aligned sections, so a memory map yields naturally aligned
//! `f64` column slices in place) under magic `"HICSSTR\0"`, with `n` the
//! row count (not capped at u32 — only per-shard model artifacts carry that
//! cap). The store's header words and sections:
//!
//! ```text
//! offset  size  field
//!     32     8  reserved (0)
//!     40     4  normalisation  (u32: 0 none, 1 min-max, 2 z-score)
//!     44     4  reserved (0)
//!     48     8  reserved (0)
//! ----- sections -----
//!            names, norm params, columns   (the envelope's shared sections)
//! ```
//!
//! # Bounded-memory import
//!
//! The column-contiguous layout is what makes the zero-copy read side
//! trivial — but a row-streaming importer cannot write it directly without
//! holding all columns. [`StoreWriter`] resolves the tension with a spill
//! pass: rows accumulate in a column-major **chunk buffer** of at most
//! `chunk_rows` rows; full chunks are appended to a spill file
//! (chunk-major, column-minor); [`StoreWriter::finish`] then assembles the
//! final file by walking the spill **per column** (one sequential page read
//! per chunk) — peak memory is `O(d · chunk_rows)`, never `O(n · d)`.
//!
//! Normalisation happens in the same pass: `hics-data`'s `NormAcc`
//! accumulates min/max bounds or Welford moments per column while rows
//! stream in (in row order — bit-identical to `apply_normalization` on the
//! materialised data, which feeds the same accumulator in the same order),
//! and the transform is applied as
//! pages are copied into the final file. The resulting params are stored in
//! the file, and a fit over the store records them in the model artifact so
//! raw query points map into the trained value space at serve time.

#![warn(missing_docs)]

use hics_data::envelope::{self, f64_slice_le_bytes, Peek, WordCode, HEADER_LEN};
use hics_data::mmap::{ByteStorage, Pages};
use hics_data::model::{NormAcc, MAGIC as MODEL_MAGIC};
use hics_data::{
    ArtifactSection, ColumnsView, Dataset, DatasetSource, HicsError, NormKind, NormParam,
};
use std::borrow::Cow;
use std::io::{Read as _, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic, first eight bytes of every dataset store.
const STORE_MAGIC: [u8; 8] = *b"HICSSTR\0";

/// Current store format version.
const STORE_VERSION: u32 = 1;

/// Default rows per import chunk (≈ 4 MB of chunk buffer at d = 8).
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Summary of a completed [`StoreWriter`] run.
#[derive(Debug, Clone)]
pub struct StoreSummary {
    /// Rows written.
    pub n: u64,
    /// Attributes written.
    pub d: usize,
    /// Final file size in bytes.
    pub bytes: u64,
    /// Chunks spilled during import (0 when everything fit in one buffer).
    pub spilled_chunks: usize,
}

/// Streams rows into a dataset store with bounded memory (see the module
/// docs for the spill-and-assemble scheme). Dropping the writer — after
/// [`StoreWriter::finish`] or instead of it, as a failed import does —
/// removes its spill file.
pub struct StoreWriter {
    path: PathBuf,
    spill_path: PathBuf,
    spill: Option<std::fs::File>,
    chunk_rows: usize,
    norm_kind: NormKind,
    /// Column-major buffer of the chunk under construction.
    chunk: Vec<Vec<f64>>,
    /// Row counts of the spilled chunks, in spill order.
    spilled: Vec<usize>,
    norm: Vec<NormAcc>,
    n: u64,
}

impl StoreWriter {
    /// Creates a writer targeting `path`. Nothing is written until rows
    /// arrive; the final file appears atomically at
    /// [`StoreWriter::finish`].
    ///
    /// # Panics
    /// Panics if `chunk_rows` is zero.
    pub fn create(path: &Path, chunk_rows: usize, norm_kind: NormKind) -> Self {
        assert!(chunk_rows >= 1, "chunk_rows must be at least 1");
        let mut spill_name = path.file_name().unwrap_or_default().to_os_string();
        spill_name.push(format!(".spill.{}", std::process::id()));
        Self {
            path: path.to_path_buf(),
            spill_path: path.with_file_name(spill_name),
            spill: None,
            chunk_rows,
            norm_kind,
            chunk: Vec::new(),
            spilled: Vec::new(),
            norm: Vec::new(),
            n: 0,
        }
    }

    /// Appends one row. The first row fixes the attribute count; every
    /// value must be finite.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), HicsError> {
        if self.chunk.is_empty() {
            if row.is_empty() {
                return Err(HicsError::InvalidInput(
                    "store rows need at least one attribute".into(),
                ));
            }
            self.chunk = vec![Vec::with_capacity(self.chunk_rows.min(1 << 20)); row.len()];
            self.norm = vec![NormAcc::new(self.norm_kind); row.len()];
        }
        if row.len() != self.chunk.len() {
            return Err(HicsError::InvalidInput(format!(
                "row {} has {} attributes, store has {}",
                self.n,
                row.len(),
                self.chunk.len()
            )));
        }
        if let Some(j) = row.iter().position(|v| !v.is_finite()) {
            return Err(HicsError::InvalidInput(format!(
                "row {} attribute {j} is not a finite number",
                self.n
            )));
        }
        for ((col, acc), &v) in self.chunk.iter_mut().zip(&mut self.norm).zip(row) {
            col.push(v);
            acc.push(v);
        }
        self.n += 1;
        if self.chunk[0].len() == self.chunk_rows {
            self.spill_chunk()?;
        }
        Ok(())
    }

    /// Writes the buffered chunk to the spill file (column-contiguous
    /// within the chunk) and clears the buffer.
    fn spill_chunk(&mut self) -> Result<(), HicsError> {
        let rows = self.chunk[0].len();
        if rows == 0 {
            return Ok(());
        }
        if self.spill.is_none() {
            let f = std::fs::File::create(&self.spill_path)
                .map_err(|e| HicsError::io_path("creating", &self.spill_path, e))?;
            self.spill = Some(f);
        }
        let spill = self.spill.as_mut().expect("just ensured");
        for col in &mut self.chunk {
            spill
                .write_all(&f64_slice_le_bytes(col))
                .map_err(|e| HicsError::io_path("spilling to", &self.spill_path, e))?;
            col.clear();
        }
        self.spilled.push(rows);
        Ok(())
    }

    /// Assembles and atomically writes the final store file, returning its
    /// summary. `names` defaults to `attr0..attrD`.
    pub fn finish(self, names: Option<Vec<String>>) -> Result<StoreSummary, HicsError> {
        if self.n == 0 {
            return Err(HicsError::InvalidInput(
                "store needs at least one row".into(),
            ));
        }
        let d = self.chunk.len();
        let names = names.unwrap_or_else(|| (0..d).map(|j| format!("attr{j}")).collect::<Vec<_>>());
        if names.len() != d {
            return Err(HicsError::InvalidInput(format!(
                "{} names for {d} attributes",
                names.len()
            )));
        }
        let params: Vec<NormParam> = self.norm.iter().map(NormAcc::param).collect();
        let payload = envelope::attributes_len(&names) + d * (self.n as usize) * 8;
        let words: [&[u8]; 4] = [
            &0u64.to_le_bytes(), // reserved
            &self.norm_kind.code().to_le_bytes(),
            &0u32.to_le_bytes(), // reserved
            &0u64.to_le_bytes(), // reserved
        ];
        let header = envelope::header(&STORE_MAGIC, STORE_VERSION, self.n, d, &words, payload);
        envelope::save_streaming(&self.path, header, |w, tmp| {
            let io = |e: std::io::Error| HicsError::io_path("writing", tmp, e);
            w.put_attributes(&names, &params).map_err(io)?;
            // Columns: per attribute, the spilled pages in chunk order,
            // then the in-memory tail — transformed on the fly.
            let mut page: Vec<f64> = Vec::with_capacity(self.chunk_rows);
            let mut spill = match &self.spill {
                Some(_) => Some(
                    std::fs::File::open(&self.spill_path)
                        .map_err(|e| HicsError::io_path("re-opening", &self.spill_path, e))?,
                ),
                None => None,
            };
            // Spill layout: chunk-major, column-minor. Chunk c starts at
            // (Σ rows of earlier chunks) · d · 8.
            let mut chunk_offsets = Vec::with_capacity(self.spilled.len());
            let mut off = 0u64;
            for &rows in &self.spilled {
                chunk_offsets.push(off);
                off += (rows * d * 8) as u64;
            }
            for (j, &p) in params.iter().enumerate() {
                if let Some(spill) = spill.as_mut() {
                    for (c, &rows) in self.spilled.iter().enumerate() {
                        let page_off = chunk_offsets[c] + (j * rows * 8) as u64;
                        spill
                            .seek(SeekFrom::Start(page_off))
                            .map_err(|e| HicsError::io_path("seeking in", &self.spill_path, e))?;
                        page.clear();
                        page.resize(rows, 0.0);
                        read_f64s(spill, &mut page, &self.spill_path)?;
                        transform(&mut page, self.norm_kind, p);
                        w.put_f64s(&page).map_err(io)?;
                    }
                }
                // The unspilled tail.
                if !self.chunk[j].is_empty() {
                    page.clear();
                    page.extend_from_slice(&self.chunk[j]);
                    transform(&mut page, self.norm_kind, p);
                    w.put_f64s(&page).map_err(io)?;
                }
            }
            Ok(())
        })?;
        Ok(StoreSummary {
            n: self.n,
            d,
            bytes: (HEADER_LEN + payload) as u64,
            spilled_chunks: self.spilled.len(),
        })
    }
}

impl Drop for StoreWriter {
    /// The spill is working state: it goes whether the import finished,
    /// failed or was abandoned.
    fn drop(&mut self) {
        if self.spill.take().is_some() {
            std::fs::remove_file(&self.spill_path).ok();
        }
    }
}

/// Applies the store's normalisation to one page in place.
fn transform(page: &mut [f64], kind: NormKind, p: NormParam) {
    if kind == NormKind::None {
        return;
    }
    for v in page.iter_mut() {
        *v = p.apply(*v);
    }
}

/// Fills `page` from the reader (little-endian f64s).
fn read_f64s(r: &mut std::fs::File, page: &mut [f64], path: &Path) -> Result<(), HicsError> {
    let mut buf = vec![0u8; page.len() * 8];
    r.read_exact(&mut buf)
        .map_err(|e| HicsError::io_path("reading spill page from", path, e))?;
    for (v, chunk) in page.iter_mut().zip(buf.chunks_exact(8)) {
        *v = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
    }
    Ok(())
}

/// Writes an in-memory dataset as a store file (tests, benches and the
/// occasional small-data conversion; large data should stream through
/// [`StoreWriter`] instead).
pub fn write_dataset_store(
    path: &Path,
    data: &Dataset,
    chunk_rows: usize,
    norm_kind: NormKind,
) -> Result<StoreSummary, HicsError> {
    let mut w = StoreWriter::create(path, chunk_rows, norm_kind);
    let mut row = vec![0.0; data.d()];
    for i in 0..data.n() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = data.value(i, j);
        }
        w.push_row(&row)?;
    }
    w.finish(Some(data.names().to_vec()))
}

/// The validated decoding of one store byte stream: small sections
/// materialised, the column payload located by offset.
#[derive(Debug, Clone)]
struct StoreLayout {
    n: usize,
    d: usize,
    norm_kind: NormKind,
    names: Vec<String>,
    norm: Vec<NormParam>,
    columns_offset: usize,
}

impl StoreLayout {
    fn parse(pages: Pages<'_>) -> Result<Self, HicsError> {
        let bytes = pages.bytes();
        let (header, mut r) = envelope::parse_header(
            pages,
            &STORE_MAGIC,
            "row count",
            |_, version| match version {
                STORE_VERSION => Ok(()),
                _ => Err(HicsError::UnsupportedVersion(version)),
            },
            |r| {
                let reserved_mid = r.u64()?;
                let norm_kind = r.code()?;
                let reserved32 = r.u32()?;
                let reserved64 = r.u64()?;
                if reserved_mid != 0 || reserved32 != 0 || reserved64 != 0 {
                    return Err(r.invalid("non-zero reserved header field".into()));
                }
                Ok(norm_kind)
            },
            |_, n, d| match (n, d) {
                (0, _) | (_, 0) => Err(format!(
                    "store needs at least 1 row and 1 attribute, got {n} x {d}"
                )),
                _ => Ok(()),
            },
        )?;
        let (n, d) = (header.n as usize, header.d);
        // Cross-check the (attacker-suppliable) counts against what the
        // payload can hold before sizing any allocation from them: every
        // attribute needs ≥ 4 (name length) + 16 (norm params) + 8·n
        // column bytes.
        if d > bytes.len() / 20 {
            return Err(r.invalid(format!(
                "attribute count {d} exceeds what a {}-byte payload can hold",
                bytes.len()
            )));
        }
        if n > bytes.len() / 8 {
            return Err(r.invalid(format!(
                "row count {n} exceeds what a {}-byte payload can hold",
                bytes.len()
            )));
        }
        let (names, norm) = envelope::read_attributes(&mut r, d)?;
        // Column pages: validated in place, never materialised.
        let columns_offset = envelope::read_columns(&mut r, n, d, ArtifactSection::Pages)?;
        if r.offset != bytes.len() {
            return Err(r.invalid(format!(
                "{} trailing bytes after the column pages",
                bytes.len() - r.offset
            )));
        }
        Ok(Self {
            n,
            d,
            norm_kind: header.words,
            names,
            norm,
            columns_offset,
        })
    }
}

/// A validated dataset store over in-place bytes (memory-mapped file or
/// 8-aligned heap buffer), serving borrowed column slices — the
/// [`DatasetSource`] the out-of-core fit pipeline reads from.
#[derive(Debug)]
pub struct DatasetStore {
    storage: ByteStorage,
    layout: StoreLayout,
}

impl DatasetStore {
    /// Memory-maps and validates the store at `path`. Columns are *not*
    /// copied: [`DatasetStore::column`] borrows straight from the map. On
    /// platforms without `mmap` this transparently falls back to an aligned
    /// heap read with the same semantics.
    pub fn open_mmap(path: &Path) -> Result<Self, HicsError> {
        let (storage, layout) = envelope::open_mmap(path, StoreLayout::parse)?;
        Ok(Self { storage, layout })
    }

    /// Validates a store from in-memory bytes, copied into an 8-aligned
    /// buffer so column views still borrow.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HicsError> {
        let (storage, layout) = envelope::from_bytes(bytes, StoreLayout::parse)?;
        Ok(Self { storage, layout })
    }

    /// Whether the bytes are a live memory map of the store file.
    pub fn is_mmap(&self) -> bool {
        self.storage.is_mmap()
    }

    /// Number of rows `N`.
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

    /// The normalisation applied to the stored values at import time.
    pub fn norm_kind(&self) -> NormKind {
        self.layout.norm_kind
    }

    /// Per-attribute normalisation parameters.
    pub fn norm_params(&self) -> &[NormParam] {
        &self.layout.norm
    }

    /// Column `j`, borrowed from the store bytes whenever the in-place cast
    /// is sound (8-aligned little-endian — every map and every
    /// [`DatasetStore::from_bytes`] buffer qualifies), copied otherwise.
    ///
    /// # Panics
    /// Panics if `j >= d`.
    pub fn column(&self, j: usize) -> Cow<'_, [f64]> {
        assert!(j < self.d(), "column {j} out of range");
        let (bytes, layout) = (self.storage.as_slice(), &self.layout);
        envelope::column(bytes, layout.columns_offset, layout.n, j)
    }

    /// Value of row `i` in attribute `j`, read in place.
    ///
    /// # Panics
    /// Panics if `i >= n` or `j >= d`.
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n() && j < self.d(), "({i}, {j}) out of range");
        let (bytes, layout) = (self.storage.as_slice(), &self.layout);
        envelope::value(bytes, layout.columns_offset, layout.n, i, j)
    }

    /// A zero-copy view over all columns (the form the fit pipeline
    /// consumes).
    pub fn view(&self) -> ColumnsView<'_> {
        ColumnsView::from_source(self)
    }

    /// Copies the store into an owned [`Dataset`] (tests and small data
    /// only — the point of the store is to avoid exactly this).
    pub fn materialize(&self) -> Dataset {
        self.view().materialize()
    }
}

impl DatasetSource for DatasetStore {
    fn n(&self) -> usize {
        DatasetStore::n(self)
    }

    fn d(&self) -> usize {
        DatasetStore::d(self)
    }

    fn names(&self) -> &[String] {
        DatasetStore::names(self)
    }

    fn column(&self, j: usize) -> Cow<'_, [f64]> {
        DatasetStore::column(self, j)
    }

    fn norm_kind(&self) -> NormKind {
        DatasetStore::norm_kind(self)
    }

    fn norm_params(&self) -> Cow<'_, [NormParam]> {
        Cow::Borrowed(DatasetStore::norm_params(self))
    }
}

/// What kind of HiCS file sits at `path` — the sniff `hics fit` uses to
/// route an `--input` to the right loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A dataset store (`STORE_MAGIC`).
    Store,
    /// A model artifact or sharded manifest (`hics_data::model::MAGIC`),
    /// with its format version.
    Model(u32),
    /// Neither — presumably a text dataset (CSV/ARFF).
    Other,
}

/// Sniffs the first bytes of `path` (see [`FileKind`]). I/O failures are
/// reported. A file shorter than 8 bytes, or one starting with neither
/// magic, is `Other`; a file that starts with the model magic but is
/// shorter than 12 bytes (no complete version field) is
/// [`HicsError::Truncated`], like [`hics_data::peek_artifact_version`].
pub fn sniff_file(path: &Path) -> Result<FileKind, HicsError> {
    let head = Peek::file(path)?;
    Ok(match head.magic() {
        Some(STORE_MAGIC) => FileKind::Store,
        Some(MODEL_MAGIC) => FileKind::Model(head.version()?),
        _ => FileKind::Other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::model::apply_normalization;
    use hics_data::SyntheticConfig;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hics-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_without_spill() {
        let g = SyntheticConfig::new(60, 4).with_seed(5).generate();
        let path = temp_path("nospill.hicsstore");
        let summary = write_dataset_store(&path, &g.dataset, 1024, NormKind::None).expect("write");
        assert_eq!(summary.n, 60);
        assert_eq!(summary.spilled_chunks, 0);
        let store = DatasetStore::open_mmap(&path).expect("open");
        assert!(cfg!(not(unix)) || store.is_mmap());
        assert_eq!(store.n(), 60);
        assert_eq!(store.d(), 4);
        assert_eq!(store.names(), g.dataset.names());
        assert_eq!(store.norm_kind(), NormKind::None);
        for j in 0..4 {
            let col = store.column(j);
            assert!(matches!(col, Cow::Borrowed(_)), "column {j} copied");
            assert_eq!(col.as_ref(), g.dataset.col(j), "column {j}");
        }
        assert_eq!(store.materialize(), g.dataset);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spilled_chunks_reassemble_bit_identically() {
        let g = SyntheticConfig::new(250, 5).with_seed(6).generate();
        let path = temp_path("spill.hicsstore");
        // 17-row chunks force 14 spills plus a tail.
        let summary = write_dataset_store(&path, &g.dataset, 17, NormKind::None).expect("write");
        assert_eq!(summary.spilled_chunks, 250 / 17);
        let store = DatasetStore::open_mmap(&path).expect("open");
        for j in 0..5 {
            assert_eq!(store.column(j).as_ref(), g.dataset.col(j), "column {j}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_normalisation_matches_materialised() {
        let g = SyntheticConfig::new(180, 4).with_seed(7).generate();
        for kind in [NormKind::MinMax, NormKind::ZScore] {
            let path = temp_path(&format!("norm-{}.hicsstore", kind.name()));
            write_dataset_store(&path, &g.dataset, 33, kind).expect("write");
            let store = DatasetStore::open_mmap(&path).expect("open");
            let (reference, params) = apply_normalization(&g.dataset, kind);
            assert_eq!(store.norm_kind(), kind);
            assert_eq!(store.norm_params(), &params[..], "{}", kind.name());
            for j in 0..4 {
                assert_eq!(
                    store.column(j).as_ref(),
                    reference.col(j),
                    "{} column {j} not bit-identical",
                    kind.name()
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let path = temp_path("reject.hicsstore");
        let mut w = StoreWriter::create(&path, 8, NormKind::None);
        w.push_row(&[1.0, 2.0]).unwrap();
        assert!(w.push_row(&[1.0]).is_err(), "ragged row accepted");
        assert!(w.push_row(&[1.0, f64::NAN]).is_err(), "NaN accepted");
        let empty = StoreWriter::create(&path, 8, NormKind::None);
        assert!(empty.finish(None).is_err(), "empty store accepted");
        assert!(!path.exists());
    }

    /// A writer dropped after a bad row (as a failed `hics import` drops
    /// it) removes its spill file and writes no store.
    #[test]
    fn dropped_writer_removes_its_spill() {
        let dir = temp_path("drop-spill");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.hicsstore");
        let mut w = StoreWriter::create(&path, 2, NormKind::None);
        for i in 0..5 {
            w.push_row(&[i as f64, 1.0]).unwrap();
        }
        assert!(w.spill_path.exists(), "two full chunks were spilled");
        assert!(w.push_row(&[f64::NAN, 1.0]).is_err(), "NaN accepted");
        drop(w);
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sniff_recognises_all_file_kinds() {
        let g = SyntheticConfig::new(60, 3).with_seed(8).generate();
        let store_path = temp_path("sniff.hicsstore");
        write_dataset_store(&store_path, &g.dataset, 64, NormKind::None).unwrap();
        assert_eq!(sniff_file(&store_path).unwrap(), FileKind::Store);
        let csv_path = temp_path("sniff.csv");
        std::fs::write(&csv_path, "a,b\n1,2\n").unwrap();
        assert_eq!(sniff_file(&csv_path).unwrap(), FileKind::Other);
        std::fs::write(&csv_path, "x").unwrap();
        assert_eq!(sniff_file(&csv_path).unwrap(), FileKind::Other);
        std::fs::remove_file(&store_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn view_is_fully_borrowed_and_source_reports_norm() {
        let g = SyntheticConfig::new(70, 3).with_seed(9).generate();
        let path = temp_path("view.hicsstore");
        write_dataset_store(&path, &g.dataset, 64, NormKind::MinMax).unwrap();
        let store = DatasetStore::open_mmap(&path).unwrap();
        let view = store.view();
        assert!(view.is_fully_borrowed(), "store view must be zero-copy");
        assert_eq!(view.n(), 70);
        let src: &dyn DatasetSource = &store;
        assert_eq!(src.norm_kind(), NormKind::MinMax);
        assert_eq!(src.norm_params().len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
