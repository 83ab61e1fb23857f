//! # hics-outlier — density-based outlier ranking substrate
//!
//! * [`distance`] — subspace-restricted Euclidean metrics (the [`Points`]
//!   seam shared by the borrowed batch view, an owned layout and the
//!   serving engine's in-place column pages).
//! * [`index`] — the pluggable per-subspace neighbour-index layer: brute
//!   scan and VP-tree behind one seam, bit-identical results.
//! * [`knn`] — brute-force k-distance neighbourhoods with LOF tie handling.
//! * [`lof`] — the Local Outlier Factor (Breunig et al. 2000), from scratch.
//! * [`knn_score`] — kNN-distance scores (ORCA-flavoured future-work scorer).
//! * [`aggregate`] — the one mean|max [`Fold`] and non-finite clamp:
//!   Definition 1 over subspaces, and the shard ensemble over shards,
//!   shared bit-for-bit by the batch path, [`QueryEngine`],
//!   [`ShardedEngine`] and the `hics route` tier.
//! * [`scorer`] — the pluggable [`scorer::SubspaceScorer`] seam and parallel
//!   multi-subspace driving.
//! * [`query`] — query-point scoring against a trained model (the serving
//!   path: score new points without re-running the search), reading the
//!   columns, VP-trees and hoods in place from the model artifact, plus
//!   [`subspace_hoods`], the one
//!   computation of per-subspace neighbourhood state (k-distances, LOF
//!   densities, clamps) that the fit stores in the artifact and older
//!   artifacts pay at open.
//! * [`sharded`] — cross-shard ensemble serving: one query scored against
//!   every shard of a sharded fit, scores mean/max-combined.
//! * [`engine`] — the [`Engine`] seam (single model | shard ensemble) the
//!   serving layer and CLI are written against, with the path-sniffing
//!   mmap opener; a batch comes back as a [`ScoredBatch`] carrying each
//!   shard's scoring time for the caller to record.
//! * [`handle`] — the atomically swappable [`EngineHandle`] behind hot
//!   model reload, with a bounded LRU of retired generations so repeated
//!   reloads eventually unmap dropped artifacts.
//! * [`parallel`] — deterministic `std::thread::scope` fan-out helpers.

#![warn(missing_docs)]

pub mod aggregate;
pub mod distance;
pub mod engine;
pub mod handle;
pub mod index;
pub mod knn;
pub mod knn_score;
pub mod lof;
pub mod parallel;
pub mod query;
pub mod scorer;
pub mod sharded;

pub use aggregate::{aggregate_scores, Aggregation, Fold};
pub use distance::{Points, SubspaceLayout, SubspaceView};
pub use engine::{Engine, RemoteEngine, ScoredBatch};
pub use handle::EngineHandle;
pub use index::{knn_all_indexed, IndexKind, SubspaceIndex, VpTree};
pub use knn::{knn_all, knn_query_point, Neighborhood};
pub use knn_score::{KnnScoreKind, KnnScorer};
pub use lof::{lof_from_neighborhoods, lrd_from_neighborhoods, Lof, LofParams};
pub use query::{subspace_hoods, IndexStats, QueryEngine, QueryError};
pub use scorer::{score_and_aggregate, score_subspaces, SubspaceScorer};
pub use sharded::ShardedEngine;
