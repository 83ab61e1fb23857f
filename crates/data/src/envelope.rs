//! The file envelope every on-disk format of the workspace shares: the
//! model artifact ([`crate::model`]), the sharded manifest
//! ([`crate::manifest`]) and the out-of-core dataset store (`hics-store`).
//! One header, one checksum, one hashing writer, one codec for the sections
//! the model and the store both carry, and one map-or-copy opener — each
//! kind adds only its magic, its version rule, its header words and its own
//! sections.
//!
//! # Format
//!
//! Little-endian throughout. A fixed 72-byte header, then the payload,
//! whose sections each start on an 8-byte boundary from the start of the
//! file, so a memory map of the file yields naturally aligned `f64` / `u32`
//! slices:
//!
//! ```text
//! offset  size  field
//!      0     8  magic          ("HICSMDL\0" model and manifest,
//!                               "HICSSTR\0" store)
//!      8     4  format version (u32: model 1, 2 or 4, manifest 3, store 1)
//!     12     4  header length  (u32, = 72)
//!     16     8  n              (u64: objects, total rows or rows)
//!     24     8  d — attributes (u64)
//!     32    24  kind words     (see each kind's module; enum-valued
//!                               words are u32 codes, see WordCode)
//!     56     8  payload length (u64, bytes after the header)
//!     64     8  checksum       (u64, FNV-1a over bytes 0..64 and 72..end)
//! ----- payload: sections, each zero-padded to an 8-byte boundary -----
//! shared by the model and the store, first in the payload:
//!            names       d × (u32 len + utf-8 bytes)
//!            norm params d × (offset f64, divisor f64)
//!            columns     d × n × f64  (column-contiguous, all finite)
//! ```
//!
//! The checksum covers every byte except its own field. Because each FNV-1a
//! step `h ← (h ⊕ b) · p` is injective in `h` (the prime is odd) and in `b`,
//! any single corrupted byte is guaranteed to change the checksum — so
//! bit-rot in a stored file is detected rather than silently shifting
//! scores.
//!
//! [`parse_header`] reads the header in file order: the magic
//! ([`HicsError::BadMagic`]), the version (the kind's rule), the header
//! length, `n`, `d` and the kind words (each kind validates its own as it
//! reads them), then the payload length and checksum fields. Once all 72
//! bytes are read the kind cross-checks its counts; then the payload length
//! is checked against the byte stream ([`HicsError::Truncated`]) and the
//! checksum against the bytes ([`HicsError::ChecksumMismatch`]).
//!
//! # Validation in windows
//!
//! A parser reads [`Pages`]: the bytes, and the map they lie in when the
//! file is memory-mapped. Validation releases what it has checked as it
//! goes ([`Reader::release`], a no-op for heap bytes): the checksum pass
//! runs over [`WINDOW`]-byte windows and releases each one, the column
//! pages ([`read_columns`]) are released a window at a time, and each kind
//! releases its own bulk sections once they are checked. [`open_mmap`]
//! then releases the whole map, so an open costs page cache, not resident
//! memory: about one window at a time while it validates, nothing once it
//! returns, and afterwards only the pages the queries read.

use crate::error::{ArtifactSection, HicsError};
use crate::mmap::{write_atomic_with, AlignedBytes, ByteStorage, Pages};
use crate::model::NormParam;
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// Length of the shared header in bytes.
pub const HEADER_LEN: usize = 72;

/// Bytes a streaming validation pass (the checksum, the column pages)
/// checks before it releases them: the bound on what an open of a mapped
/// file holds resident at once, beyond the one section it is checking.
pub const WINDOW: usize = 256 * 1024;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Continues an FNV-1a hash over `bytes`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The envelope checksum: FNV-1a over the header (minus the checksum field
/// itself, bytes 64..72) and the payload.
pub fn artifact_checksum(bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &bytes[..64]), &bytes[HEADER_LEN..])
}

/// The 72 header bytes of a `payload_len`-byte payload, with a zero
/// checksum field (the writer patches it). `words` are the kind words,
/// 24 bytes in all.
pub fn header(
    magic: &[u8; 8],
    version: u32,
    n: u64,
    d: usize,
    words: &[&[u8]],
    payload_len: usize,
) -> [u8; HEADER_LEN] {
    let head = [
        &magic[..],
        &version.to_le_bytes(),
        &(HEADER_LEN as u32).to_le_bytes(),
        &n.to_le_bytes(),
        &(d as u64).to_le_bytes(),
    ];
    let tail = [&(payload_len as u64).to_le_bytes()[..], &[0; 8]];
    [head.concat(), words.concat(), tail.concat()]
        .concat()
        .try_into()
        .expect("24 bytes of kind words")
}

/// An enum stored as a `u32` kind word: its index in [`WordCode::ALL`].
pub trait WordCode: Copy + PartialEq + 'static {
    /// Every variant, in code order.
    const ALL: &'static [Self];
    /// What an unknown code is reported as.
    const WHAT: &'static str;

    /// The variant's on-disk code.
    fn code(self) -> u32 {
        Self::ALL.iter().position(|&v| v == self).expect("listed") as u32
    }
}

/// The decoded header of one file.
#[derive(Debug, Clone, Copy)]
pub struct Header<W> {
    /// Format version.
    pub version: u32,
    /// `n` (checked to fit a `usize`).
    pub n: u64,
    /// Attribute count.
    pub d: usize,
    /// The kind words.
    pub words: W,
}

/// Parses the header of a file with `magic` (see the module docs for the
/// order) and checks its payload length and checksum, window by window,
/// releasing each window once it is hashed. The kind supplies the name of
/// its `n` for errors, its version rule (`r` sits just after the version),
/// the reader of its words and the cross-check of its counts against them.
/// Returns the header and a reader at the payload.
pub fn parse_header<'a, W>(
    pages: Pages<'a>,
    magic: &[u8; 8],
    n_label: &str,
    check_version: impl FnOnce(&Reader<'a>, u32) -> Result<(), HicsError>,
    read_words: impl FnOnce(&mut Reader<'a>) -> Result<W, HicsError>,
    check_counts: impl FnOnce(&W, u64, usize) -> Result<(), String>,
) -> Result<(Header<W>, Reader<'a>), HicsError> {
    let mut r = Reader::new(pages);
    let bytes = r.bytes;
    if r.take(8)? != magic {
        return Err(HicsError::BadMagic);
    }
    let version = r.u32()?;
    check_version(&r, version)?;
    let header_len = r.u32()? as usize;
    if header_len != HEADER_LEN {
        return Err(r.invalid(format!("header length {header_len}, expected {HEADER_LEN}")));
    }
    let n = r.usize_field(n_label)? as u64;
    let d = r.usize_field("attribute count")?;
    let words = read_words(&mut r)?;
    let payload_len = r.u64()? as usize;
    let stored = r.u64()?;
    debug_assert_eq!(r.offset, HEADER_LEN);
    check_counts(&words, n, d).map_err(|msg| r.invalid(msg))?;
    // `r` has read all 72 header bytes, so the subtraction cannot wrap (an
    // addition could, for a hostile payload length).
    if bytes.len() - HEADER_LEN != payload_len {
        return Err(HicsError::Truncated {
            section: ArtifactSection::Header,
            offset: HEADER_LEN,
            needed: payload_len,
            available: bytes.len().saturating_sub(HEADER_LEN),
        });
    }
    let mut computed = fnv1a(FNV_OFFSET, &bytes[..64]);
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let end = ((at / WINDOW + 1) * WINDOW).min(bytes.len());
        computed = fnv1a(computed, &bytes[at..end]);
        r.release(at..end);
        at = end;
    }
    if computed != stored {
        return Err(HicsError::ChecksumMismatch { stored, computed });
    }
    let header = Header {
        version,
        n,
        d,
        words,
    };
    Ok((header, r))
}

/// A writer that FNV-hashes everything after the header it forwards — the
/// one writer behind every file the workspace encodes, in memory
/// (`encode_to_vec`) or streamed to disk ([`save_streaming`]).
pub struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
    pos: usize,
    end: usize,
}

impl<W: Write> HashingWriter<W> {
    /// Writes `header` (checksum field zero) to `inner` and starts hashing.
    pub(crate) fn new(mut inner: W, header: &[u8; HEADER_LEN]) -> std::io::Result<Self> {
        inner.write_all(header)?;
        Ok(Self {
            inner,
            hash: fnv1a(FNV_OFFSET, &header[..64]),
            pos: HEADER_LEN,
            end: HEADER_LEN + payload_len(header),
        })
    }

    /// Writes and hashes `bytes`.
    pub fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.hash = fnv1a(self.hash, bytes);
        self.pos += bytes.len();
        self.inner.write_all(bytes)
    }

    /// Writes `values` as little-endian `f64`s.
    pub fn put_f64s(&mut self, values: &[f64]) -> std::io::Result<()> {
        self.put(&f64_slice_le_bytes(values))
    }

    /// Zero-pads up to the next 8-byte boundary from the start of the file.
    pub fn pad8(&mut self) -> std::io::Result<()> {
        let rem = self.pos % 8;
        if rem == 0 {
            return Ok(());
        }
        self.put(&[0u8; 8][..8 - rem])
    }

    /// Writes the names and norm-params sections (see the module docs).
    pub fn put_attributes(&mut self, names: &[String], norm: &[NormParam]) -> std::io::Result<()> {
        for name in names {
            self.put(&(name.len() as u32).to_le_bytes())?;
            self.put(name.as_bytes())?;
        }
        self.pad8()?;
        for p in norm {
            self.put(&p.offset.to_le_bytes())?;
            self.put(&p.divisor.to_le_bytes())?;
        }
        Ok(())
    }

    /// Flushes and returns the inner writer with the checksum, after
    /// checking the body wrote exactly the announced payload.
    fn finish(mut self) -> std::io::Result<(W, u64)> {
        debug_assert_eq!(self.pos, self.end, "bytes written against the header");
        self.inner.flush()?;
        Ok((self.inner, self.hash))
    }
}

impl<W: Write + Seek> HashingWriter<W> {
    /// [`HashingWriter::finish`], then patches the checksum into the
    /// header in place and flushes again.
    pub(crate) fn finish_in_place(self) -> std::io::Result<W> {
        let (mut inner, checksum) = self.finish()?;
        inner.seek(SeekFrom::Start(64))?;
        inner.write_all(&checksum.to_le_bytes())?;
        inner.flush()?;
        Ok(inner)
    }
}

/// Bytes the names and norm-params sections of `names` take, padding
/// included.
pub fn attributes_len(names: &[String]) -> usize {
    names
        .iter()
        .map(|s| 4 + s.len())
        .sum::<usize>()
        .next_multiple_of(8)
        + names.len() * 16
}

/// Encodes one file in memory: `header` (from [`header`]), then `body`'s
/// bytes, with the checksum patched in.
pub(crate) fn encode_to_vec(
    header: [u8; HEADER_LEN],
    body: impl FnOnce(&mut HashingWriter<&mut Vec<u8>>) -> std::io::Result<()>,
) -> Vec<u8> {
    const INFALLIBLE: &str = "writing into a Vec cannot fail";
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_len(&header));
    let mut w = HashingWriter::new(&mut buf, &header).expect(INFALLIBLE);
    body(&mut w).expect(INFALLIBLE);
    let (_, checksum) = w.finish().expect(INFALLIBLE);
    buf[64..72].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// Streams one file to `path` atomically ([`write_atomic_with`]): `header`
/// (from [`header`]), then `body`'s bytes (handed the temp path for its
/// error messages), with the checksum patched in before the rename.
/// Nothing but the buffered writer holds the payload.
pub fn save_streaming(
    path: &Path,
    header: [u8; HEADER_LEN],
    body: impl FnOnce(&mut HashingWriter<BufWriter<&mut File>>, &Path) -> Result<(), HicsError>,
) -> Result<(), HicsError> {
    write_atomic_with(path, |file, tmp| {
        let io = |e| HicsError::io_path("writing", tmp, e);
        let mut w = HashingWriter::new(BufWriter::new(file), &header).map_err(io)?;
        body(&mut w, tmp)?;
        w.finish_in_place().map_err(io)?;
        Ok(())
    })
}

/// The payload length a header announces.
fn payload_len(header: &[u8; HEADER_LEN]) -> usize {
    u64::from_le_bytes(header[56..64].try_into().expect("8 bytes")) as usize
}

/// Reads the names and norm-params sections of `d` attributes (see the
/// module docs): UTF-8 names, finite parameters.
pub fn read_attributes(
    r: &mut Reader<'_>,
    d: usize,
) -> Result<(Vec<String>, Vec<NormParam>), HicsError> {
    r.section = ArtifactSection::Names;
    let mut names = Vec::with_capacity(d);
    for j in 0..d {
        let len = r.u32()? as usize;
        let raw = r.take(len)?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| r.invalid(format!("attribute {j} name is not UTF-8")))?;
        names.push(name.to_string());
    }
    r.align8()?;
    r.section = ArtifactSection::NormParams;
    let mut norm = Vec::with_capacity(d);
    for j in 0..d {
        let offset = r.f64()?;
        let divisor = r.f64()?;
        if !offset.is_finite() || !divisor.is_finite() {
            return Err(r.invalid(format!(
                "non-finite normalisation parameters for attribute {j}"
            )));
        }
        norm.push(NormParam { offset, divisor });
    }
    Ok((names, norm))
}

/// Validates `d` column pages of `n` finite `f64`s in place, attributing
/// errors to `section`, releasing them a [`WINDOW`] at a time, and returns
/// the byte offset they start at.
pub fn read_columns(
    r: &mut Reader<'_>,
    n: usize,
    d: usize,
    section: ArtifactSection,
) -> Result<usize, HicsError> {
    r.section = section;
    let offset = r.offset;
    let mut checked = offset;
    for j in 0..d {
        for _ in 0..n {
            if !r.f64()?.is_finite() {
                return Err(r.invalid(format!("non-finite value in column {j}")));
            }
            if r.offset - checked >= WINDOW {
                r.release(checked..r.offset);
                checked = r.offset;
            }
        }
    }
    r.release(checked..r.offset);
    Ok(offset)
}

/// A fixed-size value a section stores as little-endian records, which
/// [`cast`] can read in place.
///
/// # Safety
/// Every bit pattern of the type's `size_of::<Self>()` bytes must be a
/// valid value (padding aside), and on a little-endian target its
/// in-memory layout must be its record in the file: the in-place cast
/// relies on both.
pub(crate) unsafe trait Record: Copy {
    /// Decodes one record from its `size_of::<Self>()` little-endian
    /// bytes — the fallback where the cast is unsound.
    fn from_le(bytes: &[u8]) -> Self;
}

// SAFETY: a primitive of 8 plain bytes; every pattern is some f64.
unsafe impl Record for f64 {
    fn from_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
}

// SAFETY: a primitive of 4 plain bytes; every pattern is some u32.
unsafe impl Record for u32 {
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
}

/// The `count` records at `offset` in `bytes`, borrowed whenever the
/// in-place cast is sound (little-endian target, `T`-aligned bytes — every
/// map and every [`AlignedBytes`] buffer qualifies for every section the
/// kinds lay out) and decoded into an owned copy otherwise.
pub(crate) fn cast<T: Record>(bytes: &[u8], offset: usize, count: usize) -> Cow<'_, [T]> {
    let size = std::mem::size_of::<T>();
    let len = count
        .checked_mul(size)
        .expect("record count fits the address space");
    let bytes = &bytes[offset..offset + len];
    if cfg!(target_endian = "little")
        && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
    {
        // SAFETY: the range is in bounds and exactly `count` records long
        // (sliced above), the pointer is aligned for `T` (just checked),
        // every bit pattern is a valid `T` and its layout is its
        // little-endian record (the `Record` contract), and the borrow ties
        // the result to the bytes' lifetime.
        Cow::Borrowed(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), count) })
    } else {
        Cow::Owned(bytes.chunks_exact(size).map(T::from_le).collect())
    }
}

/// Column `j` of the `n`-row column pages at `offset` in `bytes`, borrowed
/// whenever the in-place cast is sound (8-aligned little-endian — every map
/// and every [`AlignedBytes`] buffer qualifies), copied otherwise.
pub fn column(bytes: &[u8], offset: usize, n: usize, j: usize) -> Cow<'_, [f64]> {
    cast(bytes, offset + j * n * 8, n)
}

/// Value `(i, j)` of the `n`-row column pages at `offset`, read in place.
#[inline]
pub fn value(bytes: &[u8], offset: usize, n: usize, i: usize, j: usize) -> f64 {
    f64_at(bytes, offset + (j * n + i) * 8)
}

/// Memory-maps the file at `path` and parses it — the opener of every
/// mmap-able kind — then releases the whole map, so the open leaves none
/// of the file resident (see the module docs). On platforms without `mmap`
/// the bytes are read into an aligned heap buffer with the same semantics.
pub fn open_mmap<L>(
    path: &Path,
    parse: impl Fn(Pages<'_>) -> Result<L, HicsError>,
) -> Result<(ByteStorage, L), HicsError> {
    let file = File::open(path).map_err(|e| HicsError::io_path("opening", path, e))?;
    let len = file
        .metadata()
        .map_err(|e| HicsError::io_path("inspecting", path, e))?
        .len();
    let len = usize::try_from(len).map_err(|_| {
        HicsError::InvalidInput(format!("{} exceeds the address space", path.display()))
    })?;
    if len == 0 {
        // mmap(2) rejects zero-length maps; an empty file is just a
        // truncated one.
        let empty = Pages::from(&[][..]);
        return Err(parse(empty).err().expect("an empty file never parses"));
    }
    let storage = ByteStorage::map_file(&file, len)
        .map_err(|e| HicsError::io_path("memory-mapping", path, e))?;
    let pages = Pages::from(&storage);
    let layout = parse(pages)?;
    // The parser released each window and section it checked; this drops
    // the small sections it read last, and the neighbouring pages their
    // faults mapped along with them.
    pages.release(0..len);
    Ok((storage, layout))
}

/// Parses in-memory bytes, copied into an 8-aligned buffer so column views
/// still borrow.
pub fn from_bytes<L>(
    bytes: &[u8],
    parse: impl Fn(Pages<'_>) -> Result<L, HicsError>,
) -> Result<(ByteStorage, L), HicsError> {
    let aligned = AlignedBytes::copy_from(bytes);
    let layout = parse(aligned.as_slice().into())?;
    Ok((ByteStorage::Heap(aligned), layout))
}

/// The first 12 bytes of a file — magic and format version — or fewer at
/// end of file.
pub struct Peek(Vec<u8>);

impl Peek {
    /// Reads the head of the file at `path`, without decoding anything.
    pub fn file(path: &Path) -> Result<Self, HicsError> {
        let f = File::open(path).map_err(|e| HicsError::io_path("opening", path, e))?;
        let mut head = Vec::with_capacity(12);
        f.take(12)
            .read_to_end(&mut head)
            .map_err(|e| HicsError::io_path("reading", path, e))?;
        Ok(Self(head))
    }

    /// The magic, or `None` for a file shorter than 8 bytes.
    pub fn magic(&self) -> Option<[u8; 8]> {
        self.0.get(..8).map(|m| m.try_into().expect("8 bytes"))
    }

    /// The format version, or [`HicsError::Truncated`] for a file shorter
    /// than 12 bytes.
    pub fn version(&self) -> Result<u32, HicsError> {
        let v = self.0.get(8..12).ok_or(HicsError::Truncated {
            section: ArtifactSection::Header,
            offset: self.0.len(),
            needed: 12 - self.0.len(),
            available: 0,
        })?;
        Ok(u32::from_le_bytes(v.try_into().expect("4 bytes")))
    }
}

/// The `f64` values of `col` as little-endian bytes — borrowed (an in-place
/// cast) on little-endian targets, copied elsewhere.
pub fn f64_slice_le_bytes(col: &[f64]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: every f64 is 8 plain bytes with no invalid patterns, the
        // slice covers exactly `size_of_val(col)` initialised bytes, and u8
        // has no alignment requirement.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(col.as_ptr() as *const u8, std::mem::size_of_val(col))
        })
    } else {
        Cow::Owned(col.iter().flat_map(|v| v.to_le_bytes()).collect())
    }
}

/// The `u32` values of `ids` as little-endian bytes (same contract as
/// [`f64_slice_le_bytes`]).
pub(crate) fn u32_slice_le_bytes(ids: &[u32]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: as above — u32s are 4 plain bytes each.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(ids.as_ptr() as *const u8, std::mem::size_of_val(ids))
        })
    } else {
        Cow::Owned(ids.iter().flat_map(|v| v.to_le_bytes()).collect())
    }
}

/// Reads the little-endian `f64` at `off` (bounds already validated by the
/// kind's parser).
#[inline]
pub(crate) fn f64_at(bytes: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Bounds-checked little-endian reader over a byte slice, carrying the
/// section it is currently inside so every error is located — the parsing
/// substrate of every kind, which all report failures through the same
/// [`HicsError`] section/offset vocabulary.
pub struct Reader<'a> {
    /// The byte stream under decode.
    pub bytes: &'a [u8],
    /// Current read position.
    pub offset: usize,
    /// The section errors are attributed to.
    pub section: ArtifactSection,
    /// The bytes with their map, for [`Reader::release`].
    pages: Pages<'a>,
}

impl<'a> Reader<'a> {
    /// Starts a reader at offset 0, inside the header section.
    pub fn new(pages: Pages<'a>) -> Self {
        Self {
            bytes: pages.bytes(),
            offset: 0,
            section: ArtifactSection::Header,
            pages,
        }
    }

    /// Releases `range` of a mapped stream once it is checked
    /// ([`Pages::release`]; a no-op for heap bytes). Later reads of it
    /// fault the pages in again.
    pub fn release(&self, range: Range<usize>) {
        self.pages.release(range);
    }

    /// An [`HicsError::InvalidModel`] at the current section and offset.
    pub fn invalid(&self, msg: String) -> HicsError {
        HicsError::InvalidModel {
            section: self.section,
            offset: self.offset,
            msg,
        }
    }

    /// Consumes `len` bytes, or fails with a located truncation error.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], HicsError> {
        if self.bytes.len() - self.offset < len {
            return Err(HicsError::Truncated {
                section: self.section,
                offset: self.offset,
                needed: len,
                available: self.bytes.len() - self.offset,
            });
        }
        let s = &self.bytes[self.offset..self.offset + len];
        self.offset += len;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, HicsError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, HicsError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `f64` (any bit pattern).
    pub fn f64(&mut self) -> Result<f64, HicsError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` code of `C` (see [`WordCode`]).
    pub fn code<C: WordCode>(&mut self) -> Result<C, HicsError> {
        let c = self.u32()?;
        let known = C::ALL.get(c as usize).copied();
        known.ok_or_else(|| self.invalid(format!("unknown {} {c}", C::WHAT)))
    }

    /// Reads a `u64` field that must fit a `usize`.
    pub fn usize_field(&mut self, what: &str) -> Result<usize, HicsError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.invalid(format!("{what} {v} exceeds usize")))
    }

    /// Skips the zero padding up to the next 8-byte boundary.
    pub fn align8(&mut self) -> Result<(), HicsError> {
        let rem = self.offset % 8;
        if rem != 0 {
            let pad = self.take(8 - rem)?;
            if pad.iter().any(|&b| b != 0) {
                return Err(self.invalid("non-zero section padding".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aligned records are borrowed; misaligned ones are decoded into an
    /// owned copy with the same values.
    #[test]
    fn cast_borrows_aligned_records_and_copies_misaligned_ones() {
        let values = [1.5f64, -0.0, f64::INFINITY, 7e-300];
        let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let aligned = AlignedBytes::copy_from(&raw);
        let borrowed = cast::<f64>(aligned.as_slice(), 0, 4);
        assert!(cfg!(target_endian = "big") || matches!(borrowed, Cow::Borrowed(_)));
        assert_eq!(bits(&borrowed), bits(&values));
        let shifted = AlignedBytes::copy_from(&[&[0u8][..], &raw].concat());
        let copied = cast::<f64>(shifted.as_slice(), 1, 4);
        assert!(matches!(copied, Cow::Owned(_)));
        assert_eq!(bits(&copied), bits(&values));
        let words = cast::<u32>(shifted.as_slice(), 1, 2);
        assert!(matches!(words, Cow::Owned(_)));
        assert_eq!(&words[..], &[0, (1.5f64.to_bits() >> 32) as u32]);
    }

    /// A hostile payload length is a located truncation, never an
    /// arithmetic overflow.
    #[test]
    fn huge_payload_length_is_truncated_not_overflow() {
        let mut bytes = header(b"HICSTEST", 1, 2, 1, &[&[0; 24]], 0).to_vec();
        bytes[56..64].copy_from_slice(&u64::MAX.to_le_bytes());
        let parsed = parse_header(
            bytes.as_slice().into(),
            b"HICSTEST",
            "n",
            |_, _| Ok(()),
            |r| r.take(24).map(|_| ()),
            |_, _, _| Ok(()),
        );
        assert!(matches!(
            parsed,
            Err(HicsError::Truncated {
                offset: HEADER_LEN,
                ..
            })
        ));
    }
}
