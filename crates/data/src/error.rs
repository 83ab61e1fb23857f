//! The workspace-wide typed error: every fallible surface of the model /
//! scoring / serving stack funnels into [`HicsError`].
//!
//! Before this type existed, failures crossed crate boundaries as
//! `Result<_, String>` (tree validation), raw `std::io::Error` (artifact
//! and server I/O) and ad-hoc formatted messages (CLI) — callers could not
//! distinguish "the artifact file is corrupt" from "the query row is
//! malformed" without string matching. `HicsError` names each failure class
//! as a variant, keeps the artifact decoding context (which section, at
//! which byte offset) structured, and assigns every class a distinct
//! process [exit code](HicsError::exit_code) so scripts driving the `hics`
//! CLI can branch on `$?`.
//!
//! Crates higher in the stack convert their local error types into
//! `HicsError` via `From` impls defined next to those types (e.g.
//! `hics_outlier::QueryError`), so `hics-data` stays dependency-free.

use std::path::Path;

/// The sections of a model artifact, in on-disk order — the location
/// context of decoding errors. See the format table in [`crate::model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSection {
    /// The fixed 72-byte header.
    Header,
    /// Attribute names (`u32` length + UTF-8 bytes each).
    Names,
    /// Per-attribute normalisation parameters (offset/divisor pairs).
    NormParams,
    /// The trained columns (`d × n × f64`).
    Columns,
    /// The per-attribute argsort permutations (`d × n × u32`).
    Order,
    /// Subspace lengths and flattened attribute indices.
    Subspaces,
    /// Per-subspace contrast values.
    Contrasts,
    /// The neighbor-index section of versions 2 and 4 (VP-trees).
    Index,
    /// The version-4 neighbourhood-state section (k-distances, LRDs,
    /// clamps).
    Hoods,
    /// The column pages of a dataset store file (`hics-store`).
    Pages,
    /// The shard table of a sharded model manifest (version-3 envelope).
    Shards,
}

impl ArtifactSection {
    /// Display name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactSection::Header => "header",
            ArtifactSection::Names => "names",
            ArtifactSection::NormParams => "norm-params",
            ArtifactSection::Columns => "columns",
            ArtifactSection::Order => "order",
            ArtifactSection::Subspaces => "subspaces",
            ArtifactSection::Contrasts => "contrasts",
            ArtifactSection::Index => "index",
            ArtifactSection::Hoods => "hoods",
            ArtifactSection::Pages => "pages",
            ArtifactSection::Shards => "shards",
        }
    }
}

impl std::fmt::Display for ArtifactSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Failure anywhere in the fit / artifact / query / serve stack.
#[derive(Debug)]
pub enum HicsError {
    /// Underlying I/O failure, with what was being done at the time.
    Io {
        /// What the I/O was for ("reading model.hics", "binding listener").
        context: String,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// The artifact byte stream ended before a section was complete.
    Truncated {
        /// The section being decoded when bytes ran out.
        section: ArtifactSection,
        /// Byte offset at which more data was needed.
        offset: usize,
        /// Bytes still required there.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The artifact format version is newer than this build understands —
    /// or is the sharded manifest's version 3 where a model artifact was
    /// expected.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the bytes — the artifact was
    /// corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the actual bytes.
        computed: u64,
    },
    /// Structurally decodable but semantically invalid artifact content.
    InvalidModel {
        /// The section the invalid content lives in.
        section: ArtifactSection,
        /// Byte offset of (or just past) the offending content. `0` for
        /// content validated in memory rather than from a byte stream.
        offset: usize,
        /// What is wrong.
        msg: String,
    },
    /// A malformed query row or request (wrong arity, non-finite values,
    /// unparsable body).
    InvalidQuery(String),
    /// Bad user input outside the artifact: unusable options, unreadable
    /// data files, inconsistent shapes.
    InvalidInput(String),
    /// Serving-layer failure (bind, protocol, reload).
    Serve(String),
}

impl HicsError {
    /// Wraps an I/O error with its context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        HicsError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience for file-path I/O contexts.
    pub fn io_path(verb: &str, path: &Path, source: std::io::Error) -> Self {
        HicsError::io(format!("{verb} {}", path.display()), source)
    }

    /// The process exit code the CLI maps this failure class to. Codes are
    /// part of the v2 CLI contract (documented in the README):
    ///
    /// | code | class |
    /// |---|---|
    /// | 2 | bad input (options, data files, shapes) |
    /// | 3 | I/O failure |
    /// | 4 | unreadable artifact (magic / version / truncation / checksum) |
    /// | 5 | decodable but invalid artifact content |
    /// | 6 | malformed query |
    /// | 7 | serving-layer failure |
    ///
    /// Exit code 1 stays the generic failure (e.g. unknown subcommand).
    pub fn exit_code(&self) -> u8 {
        match self {
            HicsError::InvalidInput(_) => 2,
            HicsError::Io { .. } => 3,
            HicsError::BadMagic
            | HicsError::UnsupportedVersion(_)
            | HicsError::Truncated { .. }
            | HicsError::ChecksumMismatch { .. } => 4,
            HicsError::InvalidModel { .. } => 5,
            HicsError::InvalidQuery(_) => 6,
            HicsError::Serve(_) => 7,
        }
    }
}

impl std::fmt::Display for HicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HicsError::Io { context, source } => write!(f, "{context}: {source}"),
            HicsError::Truncated {
                section,
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated artifact in {section} section: needed {needed} bytes \
                 at offset {offset}, only {available} available"
            ),
            HicsError::BadMagic => write!(f, "not a HiCS model artifact (bad magic)"),
            HicsError::UnsupportedVersion(v) if *v == crate::manifest::MANIFEST_VERSION => write!(
                f,
                "format version {v} is a sharded model manifest, not a model artifact"
            ),
            HicsError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported model format version {v} (max {})",
                    crate::model::FORMAT_VERSION
                )
            }
            HicsError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupted artifact: stored checksum {stored:#018x}, computed {computed:#018x}"
            ),
            HicsError::InvalidModel {
                section,
                offset,
                msg,
            } => write!(
                f,
                "invalid model ({section} section, offset {offset}): {msg}"
            ),
            HicsError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            HicsError::InvalidInput(msg) => write!(f, "{msg}"),
            HicsError::Serve(msg) => write!(f, "serving: {msg}"),
        }
    }
}

impl std::error::Error for HicsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HicsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HicsError {
    fn from(e: std::io::Error) -> Self {
        HicsError::io("I/O error", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let errors = [
            HicsError::InvalidInput("x".into()),
            HicsError::io("reading", std::io::Error::other("gone")),
            HicsError::BadMagic,
            HicsError::InvalidModel {
                section: ArtifactSection::Index,
                offset: 12,
                msg: "bad tree".into(),
            },
            HicsError::InvalidQuery("row".into()),
            HicsError::Serve("bind".into()),
        ];
        let codes: Vec<u8> = errors.iter().map(HicsError::exit_code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
        assert!(codes.iter().all(|&c| c >= 2), "1 stays generic: {codes:?}");
    }

    #[test]
    fn artifact_failure_classes_share_the_unreadable_code() {
        for e in [
            HicsError::BadMagic,
            HicsError::UnsupportedVersion(9),
            HicsError::Truncated {
                section: ArtifactSection::Columns,
                offset: 100,
                needed: 8,
                available: 3,
            },
            HicsError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
        ] {
            assert_eq!(e.exit_code(), 4, "{e}");
        }
    }

    #[test]
    fn display_carries_section_and_offset() {
        let e = HicsError::InvalidModel {
            section: ArtifactSection::Order,
            offset: 4242,
            msg: "not a permutation".into(),
        };
        let s = e.to_string();
        assert!(s.contains("order"), "{s}");
        assert!(s.contains("4242"), "{s}");
    }
}
