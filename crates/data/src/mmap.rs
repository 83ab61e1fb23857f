//! Read-only byte storage shared by every mmap-able on-disk format in the
//! workspace: the model artifact ([`crate::artifact::ModelArtifact`]) and
//! the columnar dataset store (`hics-store`).
//!
//! Two building blocks:
//!
//! * [`MmapRegion`] — a private read-only memory map over a file, unmapped
//!   on drop. `std` has no mmap wrapper and the offline build has no
//!   registry access, so the two libc symbols it needs are declared
//!   directly — `std` already links libc on every unix target.
//! * [`AlignedBytes`] — an owned buffer backed by `u64` words, so its base
//!   address is 8-aligned and in-place `f64` column casts behave exactly
//!   like the mapped case.
//!
//! [`ByteStorage`] unifies the two behind one `as_slice`, so format parsers
//! validate identical bytes whether they came from a map or a heap read.
//!
//! The write side is [`write_atomic_with`] (and its whole-buffer form
//! [`write_atomic`]): every file in the workspace that a reader may have
//! mapped — artifacts, manifests, stores — is replaced by
//! temp file + rename, never rewritten in place.

use crate::error::HicsError;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Writes `bytes` to `path` atomically (see [`write_atomic_with`]).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), HicsError> {
    write_atomic_with(path, |file, tmp| {
        file.write_all(bytes)
            .map_err(|e| HicsError::io_path("writing", tmp, e))
    })
}

/// Replaces the file at `path` atomically: `write` fills a temporary file
/// in the same directory (`<name>.tmp.<pid>`, handed over with its path for
/// error messages), which is then synced and renamed over `path`, and the
/// directory synced so the rename survives a crash. A failed or panicking
/// write removes the temporary file and leaves `path` as it was, so a crash
/// can never leave a torn file behind — which matters because a whole fit
/// runs inside `write`. The destination is never truncated in place
/// either: a serving process may have the old file memory-mapped, and
/// truncating a mapped file turns its next page fault into a fatal
/// `SIGBUS`; after the rename the old inode lives on until every map of it
/// is gone.
pub fn write_atomic_with<T>(
    path: &Path,
    write: impl FnOnce(&mut File, &Path) -> Result<T, HicsError>,
) -> Result<T, HicsError> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = TempFile(path.with_file_name(tmp_name));
    let tmp = &tmp.0;
    let mut file = File::create(tmp).map_err(|e| HicsError::io_path("creating", tmp, e))?;
    let out = write(&mut file, tmp)?;
    file.sync_all()
        .map_err(|e| HicsError::io_path("syncing", tmp, e))?;
    std::fs::rename(tmp, path).map_err(|e| HicsError::io_path("renaming into", path, e))?;
    // The rename itself is durable only once the directory is synced.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| HicsError::io_path("syncing", dir, e))?;
    }
    Ok(out)
}

/// A temporary file's path, removed on drop: on every early return and
/// every unwind out of [`write_atomic_with`]. After the rename nothing is
/// left at the path, and the removal is a no-op.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Read-only bytes from either a live memory map or an 8-aligned owned
/// buffer — the storage behind every mmap-able artifact in the workspace.
#[derive(Debug)]
pub enum ByteStorage {
    /// A read-only memory map of the file (unix only).
    #[cfg(unix)]
    Mmap(MmapRegion),
    /// An owned buffer, 8-aligned so column casts work exactly like the
    /// mapped case.
    Heap(AlignedBytes),
}

impl ByteStorage {
    /// The stored bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            ByteStorage::Mmap(m) => m.as_slice(),
            ByteStorage::Heap(h) => h.as_slice(),
        }
    }

    /// Whether the bytes are a live memory map (as opposed to the aligned
    /// heap fallback).
    pub fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            ByteStorage::Mmap(_) => true,
            ByteStorage::Heap(_) => false,
        }
    }

    /// Memory-maps the whole of `file` (`len` bytes). On platforms without
    /// `mmap` this reads the file into an [`AlignedBytes`] buffer instead,
    /// with identical read semantics.
    ///
    /// `len` must be non-zero (`mmap(2)` rejects empty maps; callers treat
    /// an empty file as a truncated artifact before ever mapping it).
    pub fn map_file(file: &File, len: usize) -> std::io::Result<Self> {
        assert!(len > 0, "cannot map an empty file");
        #[cfg(unix)]
        {
            Ok(ByteStorage::Mmap(MmapRegion::map(file, len)?))
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut bytes = Vec::with_capacity(len);
            let mut f = file;
            f.read_to_end(&mut bytes)?;
            Ok(ByteStorage::Heap(AlignedBytes::copy_from(&bytes)))
        }
    }
}

/// An owned byte buffer backed by `u64` words, so its base address is
/// 8-aligned and column casts behave exactly like the mapped case.
#[derive(Debug)]
pub struct AlignedBytes {
    words: Box<[u64]>,
    len: usize,
}

impl AlignedBytes {
    /// A fresh 8-aligned buffer of `len` zero bytes, for a writer to fill
    /// in place ([`AlignedBytes::as_mut_slice`]).
    pub fn zeroed(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(8)].into_boxed_slice(),
            len,
        }
    }

    /// Copies `bytes` into a fresh 8-aligned buffer.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut aligned = Self::zeroed(bytes.len());
        aligned.as_mut_slice().copy_from_slice(bytes);
        aligned
    }

    /// The stored bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the words own `len.div_ceil(8) * 8 >= len` initialised
        // bytes, and u8 has no alignment requirement.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    /// The stored bytes, writable.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_slice`; the exclusive borrow of the words makes
        // the bytes exclusively borrowed too.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

/// A read-only private memory map, unmapped on drop.
#[cfg(unix)]
#[derive(Debug)]
pub struct MmapRegion {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is read-only and never aliased mutably; the region
// behaves like an immutable `&[u8]` with a custom deallocator.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
impl MmapRegion {
    /// Maps `len` bytes of `file` read-only.
    pub fn map(file: &File, len: usize) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        const PROT_READ: i32 = 0x1;
        const MAP_PRIVATE: i32 = 0x02;
        extern "C" {
            fn mmap(
                addr: *mut std::ffi::c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut std::ffi::c_void;
        }
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of `len` bytes over
        // an open fd; the result is checked for MAP_FAILED before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self {
            ptr: std::ptr::NonNull::new(ptr as *mut u8).expect("mmap returned null"),
            len,
        })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping is `len` bytes, readable, and lives until
        // drop. A concurrent truncation of the underlying file could fault
        // reads; every writer in this workspace writes a temp file and
        // renames it over the path, so a live map's inode stays intact
        // however often the file is re-saved.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        extern "C" {
            fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
        }
        // SAFETY: unmapping exactly the region mmap returned.
        unsafe {
            munmap(self.ptr.as_ptr() as *mut std::ffi::c_void, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_roundtrip_and_alignment() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..len as u8).collect();
            let a = AlignedBytes::copy_from(&src);
            assert_eq!(a.as_slice(), &src[..]);
            assert!((a.as_slice().as_ptr() as usize).is_multiple_of(8) || len == 0);
        }
    }

    #[test]
    fn map_file_reads_exact_bytes() {
        let dir = std::env::temp_dir().join("hics-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let payload: Vec<u8> = (0..200u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let storage = ByteStorage::map_file(&file, payload.len()).unwrap();
        assert_eq!(storage.as_slice(), &payload[..]);
        assert!(cfg!(not(unix)) || storage.is_mmap());
        std::fs::remove_file(&path).ok();
    }

    /// A failed atomic write removes its temporary file and leaves the
    /// destination as it was; a successful one replaces it.
    #[test]
    fn write_atomic_replaces_or_leaves_the_destination_intact() {
        let dir = std::env::temp_dir().join("hics-write-atomic-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        write_atomic(&path, b"first").unwrap();
        let failed = write_atomic_with(&path, |file, _| {
            file.write_all(b"torn").unwrap();
            Err::<(), _>(HicsError::InvalidInput("simulated failure".into()))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["f.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_removes_the_temp_file_when_the_write_panics() {
        let dir = std::env::temp_dir().join("hics-write-atomic-panic-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        write_atomic(&path, b"first").unwrap();
        let panicked = std::panic::catch_unwind(|| {
            write_atomic_with(&path, |file, _| -> Result<(), HicsError> {
                file.write_all(b"half a fi").unwrap();
                panic!("a worker panicked halfway through the write");
            })
        });
        assert!(panicked.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["f.bin"], "the panic left a temp file behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
