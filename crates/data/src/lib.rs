//! # hics-data — dataset substrate for the HiCS reproduction
//!
//! * [`dataset`] — column-major numeric datasets with normalisation.
//! * [`index`] — per-attribute rank indices (argsort + inverse) for adaptive
//!   subspace slices and value-window queries.
//! * [`bitset`] — `u64`-word slice masks: the selection substrate of the
//!   rank-centric slice engine.
//! * [`csv`] — minimal CSV I/O with optional label columns.
//! * [`arff`] — reader for the Weka ARFF format the original HiCS
//!   repeatability datasets ship in.
//! * [`synth`] — the paper's synthetic workload generator (Section V-A).
//! * [`toy`] — Figure 2 (motivation) and Figure 3 (counterexample) datasets.
//! * [`realworld`] — proxy generators for the eight UCI benchmarks
//!   (Fig. 11); see DESIGN.md §3 for the substitution rationale.
//! * [`model`] — the trained-model artifact (versioned binary save/load of
//!   columns, rank index, subspaces, scorer config and optional VP-trees
//!   and neighbourhood state) behind `hics fit` / `hics score` /
//!   `hics serve`, written by one encoder.
//! * [`envelope`] — the file envelope every on-disk format shares: one
//!   72-byte header, checksum, hashing writer, shared-section codec and
//!   map-or-copy opener for the model, the manifest and the store.
//! * [`artifact`] — zero-copy (memory-mapped) access to a model artifact:
//!   validated borrowed column views instead of heap materialisation.
//! * [`error`] — the workspace-wide typed [`HicsError`] with artifact
//!   section/offset context and CLI exit-code mapping.
//! * [`source`] — the [`DatasetSource`] seam + [`ColumnsView`]: one read
//!   interface over owned datasets and mmap-backed column stores, so the
//!   fit pipeline never has to materialise the training matrix.
//! * [`manifest`] — the sharded-model manifest (version-3 artifact
//!   envelope referencing per-shard artifacts) behind `hics fit --shards`.
//! * [`route`] — the per-shard backend placement table (`hics route`):
//!   which serving replicas hold which manifest shard.
//! * [`mmap`] — shared read-only byte storage (memory map / 8-aligned
//!   heap) under every mmap-able on-disk format.
//! * [`rng_util`] — Gaussian sampling and distinct-index helpers.

#![warn(missing_docs)]

pub mod arff;
pub mod artifact;
pub mod bitset;
pub mod csv;
pub mod dataset;
pub mod envelope;
pub mod error;
pub mod index;
pub mod manifest;
pub mod mmap;
pub mod model;
pub mod realworld;
pub mod rng_util;
pub mod route;
pub mod source;
pub mod synth;
pub mod toy;

pub use artifact::ModelArtifact;
pub use bitset::SliceMask;
pub use dataset::Dataset;
pub use error::{ArtifactSection, HicsError};
pub use index::RankIndex;
pub use manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
pub use mmap::{write_atomic, write_atomic_with};
pub use model::{
    peek_artifact_version, AggregationKind, HicsModel, ModelSubspace, NormKind, NormParam,
    ScorerKind, ScorerSpec,
};
pub use realworld::{RealWorldSpec, UciProxy};
pub use route::RouteTable;
pub use source::{ColumnsView, DatasetSource};
pub use synth::{LabeledDataset, SyntheticConfig};
