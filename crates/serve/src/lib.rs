//! # hics-serve — batched HTTP scoring over trained HiCS models
//!
//! The serving layer of the train-once/serve-many pipeline:
//!
//! * [`json`] — hand-rolled JSON parsing/serialisation (no registry deps).
//! * `http` (private) — the one HTTP/1.1 request-head parser and the
//!   response renderers, both sans-I/O: the reactor feeds the parser
//!   buffered bytes and drains rendered responses from memory.
//! * [`batch`] — the cross-connection request batcher: concurrent requests
//!   coalesce into contiguous scoring batches, resolved through the shared
//!   [`hics_outlier::EngineHandle`] so models hot-swap at batch boundaries.
//! * [`client`] — client-side keep-alive connections and per-address
//!   pools (the transport under the `hics route` scatter-gather tier).
//! * [`server`] — the epoll reactor serving core and the `/score`,
//!   `/v2/score` (streaming NDJSON), `/admin/reload`, `/healthz`, `/model`,
//!   `/stats`, `/metrics` endpoints.
//!
//! Serving is Linux-only: the reactor talks to epoll and eventfd directly,
//! and other targets fail to compile with a pointer to the deferred kqueue
//! backend.
//!
//! Every counter, gauge and latency histogram the server keeps lives in one
//! shared [`hics_obs::Registry`]: `/stats` renders its legacy JSON from it
//! and `/metrics` renders the same instruments in Prometheus text
//! exposition, with per-request stage timelines (head parse → body →
//! enqueue → score → flush) recorded against a monotonic clock.
//!
//! ```no_run
//! use hics_outlier::Engine;
//! use hics_serve::{ServeConfig, Server};
//! use std::path::Path;
//!
//! // The one opener (also behind `/admin/reload`): memory-maps the artifact,
//! // or every shard of a manifest, and adopts the hoods stored in it.
//! let engine = Engine::open_mmap(Path::new("model.hics"), None, 8).unwrap();
//! let server = Server::bind(engine, ServeConfig::default()).unwrap();
//! server.set_reload_source("model.hics".into(), None);
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap();
//! ```

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "hics-serve runs on Linux only: its reactor is built on epoll; \
     a kqueue backend for other targets is deferred on the ROADMAP"
);

pub mod batch;
pub mod client;
mod conn;
mod http;
pub mod json;
mod metrics;
mod reactor;
pub mod server;

pub use batch::{BatchScores, BatchStats, Batcher, JobKind};
pub use client::{format_points_body, ClientConn, Pool, Response};
pub use json::Json;
pub use server::{ConnStats, LogFormat, ServeConfig, Server, ShutdownHandle, StreamStats};
