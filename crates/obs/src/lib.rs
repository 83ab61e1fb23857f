//! Observability primitives for the HiCS serving stack — in the repo's
//! no-external-deps idiom (no `prometheus`, no `metrics`, no `tracing`).
//!
//! Four pieces:
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Histogram`]): plain atomics,
//!   designed for zero allocation and no locking on hot paths. The
//!   histogram is log-linear (HDR-style) — bounded memory with a
//!   configurable relative error, and p50/p90/p99/p999 extraction from the
//!   full recorded distribution.
//! * **[`Registry`]**: names the instruments and renders one snapshot in
//!   Prometheus text exposition format. Registration takes a short lock;
//!   recording never does (callers hold `Arc`s straight to the atomics).
//! * **[`Timeline`]**: a lightweight span facility that timestamps one
//!   request's lifecycle stages (accept → head parse → body → batch
//!   enqueue → score → flush) against a monotonic clock, for per-stage
//!   latency histograms and slow-query logs.
//! * **[`trace`]**: distributed request tracing — 64-bit trace/span ids,
//!   a lock-light [`Tracer`] on the same monotonic-clock discipline as
//!   [`Timeline`], and a bounded trace store with tail-based retention
//!   (slow, errored, hedged or 1-in-N sampled traces are kept).
//! * **[`ProcessSample`]**: the process's own CPU time and memory, read
//!   from procfs when asked.

#![warn(missing_docs)]

mod histogram;
mod process;
mod registry;
mod timeline;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use process::ProcessSample;
pub use registry::{Counter, Gauge, Registry};
pub use timeline::{Stage, Timeline, STAGES, STAGE_COUNT};
pub use trace::{Span, SpanStatus, StoredTrace, TraceConfig, TraceContext, Tracer};
