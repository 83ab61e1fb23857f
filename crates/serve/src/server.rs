//! The scoring server: a non-blocking epoll reactor core.
//! [`ServeConfig::reactor_threads`] reactor threads, each owning its own
//! `SO_REUSEPORT` listener, epoll instance and connection slab, drive
//! per-connection state machines (the private `conn` module) with
//! level-triggered readiness — no thread-per-connection, no blocking I/O
//! anywhere on the serving path. `/score` rows are handed to the
//! cross-connection [`Batcher`] and the connection parks (zero threads
//! held) until the batch completion is funnelled back through an eventfd;
//! responses drain through per-connection outbound buffers with explicit
//! backpressure. This is the only serving path, so the crate builds on
//! Linux only.
//!
//! There is one scoring path: a reactor thread never scores. Each socket
//! read of a `/v2/score` stream goes to the batcher as one job, so stream
//! rows reach the engine-side metrics (`hics_index_queries_total`,
//! `hics_shard_*`; the request and row families count `/score` only), a
//! slow stream cannot stall its reactor, and a hot reload lands between
//! two reads. The batch worker contains a scoring panic: only that
//! batch's rows fail.
//!
//! The engine is resolved through an atomically swappable
//! [`EngineHandle`] so a model can be hot-reloaded under live traffic.
//!
//! Endpoints (the v2 wire protocol):
//!
//! | method, path | behaviour |
//! |---|---|
//! | `POST /score` | body `{"points": [[f64; d], …]}` → `{"scores": […]}`, or `{"point": [f64; d]}` → `{"score": s}` (v1-compatible, byte for byte) |
//! | `POST /v2/score` | NDJSON streaming: one JSON point per line in (`[…]` or `{"point": […]}`; `Content-Length` or chunked), one scored line out per non-empty line, errors reported in-stream |
//! | `POST /admin/reload` | loads a new artifact (zero-copy mmap), validates it, atomically swaps it in; body `{"model": path?, "index": "brute"\|"vptree"?}` or empty to re-load the configured source |
//! | `GET /healthz` | `{"status":"ok"}` liveness probe |
//! | `GET /model` | model shape, engine generation, neighbour-index kind and build stats, and whether the stored hoods were adopted (`"precomputed"`) |
//! | `GET /stats` | request/row/batch/stream/connection counters, the batch-size histogram, and neighbour-index stats |
//! | `GET /metrics` | the same instruments (plus per-stage request latency, reactor I/O and fit counters) in Prometheus text exposition |
//!
//! Per-row failures on `/score` (wrong arity, non-finite values) fail the
//! whole request with `400` and a row-indexed message — callers batch their
//! own rows, so partial success would be ambiguous. `/v2/score` is the
//! opposite contract: each line succeeds or fails **individually**, and a
//! malformed line never kills the stream.
//!
//! A stalled or hostile streaming client cannot pin anything: reads inside
//! a stream run under [`ServeConfig::stream_idle`] (enforced by reactor
//! timers), per-line buffers are bounded by [`ServeConfig::max_line_bytes`],
//! a stream that has pushed more than [`ServeConfig::max_stream_bytes`] is
//! terminated, and a peer that stops *reading* its scores only fills its
//! connection's outbound buffer to [`ServeConfig::high_water`] before the
//! server stops consuming its input.

use crate::batch::{BatchReply, BatchStats, Batcher};
use crate::http::{error_body, RequestHead};
use crate::json::{self, Json};
use crate::metrics::ServeMetrics;
use hics_obs::{Counter, Gauge, Registry, Span, SpanStatus, Timeline, Tracer, STAGES};
use hics_outlier::{Engine, EngineHandle, IndexKind};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closures that wake every reactor out of its poll wait — shutdown
/// invokes them all so each listener thread notices the stop flag.
pub(crate) type WakeSet = Arc<Mutex<Vec<Box<dyn Fn() + Send + Sync>>>>;

/// A read-only admin endpoint body producer (see [`Server::register_admin`]).
pub(crate) type AdminHandler = Arc<dyn Fn() -> (u16, String) + Send + Sync>;

/// Extra `GET` routes registered by the embedder (e.g. the scatter-gather
/// router's `/route`), consulted after the built-in endpoints.
pub(crate) type AdminRoutes = Arc<Mutex<Vec<(String, AdminHandler)>>>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port `0` picks a free port).
    pub addr: String,
    /// Scoring threads per batch (defaults to available parallelism).
    pub threads: usize,
    /// Maximum rows coalesced into one batch.
    pub max_batch: usize,
    /// Batch worker count (batches scored concurrently).
    pub workers: usize,
    /// Idle keep-alive timeout per connection (between requests).
    pub keep_alive: Duration,
    /// Idle timeout **inside** a streaming request body: a `/v2/score`
    /// client that sends nothing for this long is disconnected, so a
    /// stalled stream cannot hold its connection at the keep-alive
    /// timescale.
    pub stream_idle: Duration,
    /// Upper bound on one NDJSON line (bytes). Longer lines are consumed,
    /// discarded and reported in-stream — the buffer never grows past this.
    pub max_line_bytes: usize,
    /// Upper bound on total bytes one streaming request may send (framing
    /// included). Exceeding it terminates the stream.
    pub max_stream_bytes: usize,
    /// Maximum concurrent connections; further clients get an immediate
    /// `503` instead of a slab slot (keeps fd usage bounded under
    /// overload).
    pub max_connections: usize,
    /// Reactor (event-loop) threads, each with its own `SO_REUSEPORT`
    /// listener. `0` (the default) sizes from available parallelism,
    /// capped at 4 — scoring wants the cores more than the event loops do.
    pub reactor_threads: usize,
    /// How long a batch worker lingers for more rows before scoring a
    /// non-full batch (see [`Batcher::start_with_stats`]). Zero scores
    /// immediately.
    pub batch_max_wait: Duration,
    /// Backpressure threshold per connection (bytes): once this much
    /// output is queued for a peer that is not draining it, the server
    /// stops reading that connection's input until the buffer empties.
    pub high_water: usize,
    /// Whether to record per-request stage timelines into the latency
    /// histograms (on by default). Turning it off removes the monotonic
    /// clock reads from the request path; counters stay live either way.
    pub instrument: bool,
    /// Format of structured stderr log lines (slow-query reports).
    pub log_format: LogFormat,
    /// When set, any request whose total latency reaches this threshold
    /// is logged to stderr with its full per-stage timeline.
    pub slow_query: Option<Duration>,
}

/// Format of structured stderr log lines emitted by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// Human-readable single-line text (the default).
    #[default]
    Text,
    /// One JSON object per line, machine-parsable.
    Json,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            threads: hics_outlier::parallel::available_threads(),
            max_batch: 512,
            workers: 1,
            keep_alive: Duration::from_secs(30),
            stream_idle: Duration::from_secs(10),
            max_line_bytes: 64 * 1024,
            max_stream_bytes: 256 * 1024 * 1024,
            max_connections: 1024,
            reactor_threads: 0,
            batch_max_wait: Duration::ZERO,
            high_water: 256 * 1024,
            instrument: true,
            log_format: LogFormat::Text,
            slow_query: None,
        }
    }
}

/// Counters for the `/v2/score` streaming endpoint.
#[derive(Debug)]
pub struct StreamStats {
    /// Streaming requests accepted.
    pub streams: Arc<Counter>,
    /// NDJSON lines scored successfully.
    pub lines: Arc<Counter>,
    /// In-stream error lines emitted.
    pub errors: Arc<Counter>,
}

impl Default for StreamStats {
    fn default() -> Self {
        Self {
            streams: Arc::new(Counter::new()),
            lines: Arc::new(Counter::new()),
            errors: Arc::new(Counter::new()),
        }
    }
}

impl StreamStats {
    /// Counters registered into `registry` under the `hics_stream*` names,
    /// so one scrape sees them alongside the rest of the server.
    pub fn registered(registry: &Registry) -> Self {
        Self {
            streams: registry.counter(
                "hics_streams_total",
                "Streaming (/v2/score) requests accepted.",
            ),
            lines: registry.counter(
                "hics_stream_lines_total",
                "NDJSON lines scored successfully.",
            ),
            errors: registry.counter("hics_stream_errors_total", "In-stream error lines emitted."),
        }
    }
}

/// Connection-level counters for the serving core.
#[derive(Debug)]
pub struct ConnStats {
    /// Connections accepted into the serving core.
    pub accepted: Arc<Counter>,
    /// Connections currently open.
    pub active: Arc<Gauge>,
    /// Connections refused with `503` at the connection limit.
    pub shed: Arc<Counter>,
}

impl Default for ConnStats {
    fn default() -> Self {
        Self {
            accepted: Arc::new(Counter::new()),
            active: Arc::new(Gauge::new()),
            shed: Arc::new(Counter::new()),
        }
    }
}

impl ConnStats {
    /// Counters registered into `registry` under the `hics_connections*`
    /// names.
    pub fn registered(registry: &Registry) -> Self {
        Self {
            accepted: registry.counter(
                "hics_connections_accepted_total",
                "Connections accepted into the serving core.",
            ),
            active: registry.gauge("hics_connections_active", "Connections currently open."),
            shed: registry.counter(
                "hics_connections_shed_total",
                "Connections refused with 503 at the connection limit.",
            ),
        }
    }
}

/// Where `/admin/reload` gets its artifact from when the request body does
/// not name one, plus the backend preference reloaded engines inherit.
#[derive(Debug, Default)]
pub(crate) struct ReloadSource {
    path: Option<PathBuf>,
    index: Option<IndexKind>,
}

/// Everything a connection needs — cheap to clone per reactor/handler.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) handle: Arc<EngineHandle>,
    pub(crate) batcher: Arc<Batcher>,
    pub(crate) reload: Arc<Mutex<ReloadSource>>,
    pub(crate) stream_stats: Arc<StreamStats>,
    pub(crate) conns: Arc<ConnStats>,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) config: Arc<ServeConfig>,
    pub(crate) reactors: usize,
    pub(crate) admin: AdminRoutes,
    pub(crate) tracer: Arc<Tracer>,
}

/// A running scoring server.
pub struct Server {
    listener: TcpListener,
    ctx: Ctx,
    stop: Arc<AtomicBool>,
    wakes: WakeSet,
}

/// Handle to stop a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    wakes: WakeSet,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Asks the serving loops to exit. Safe to call more than once.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Kick every reactor out of its poll wait…
        for wake in self.wakes.lock().expect("wake set").iter() {
            wake();
        }
        // …and make a listener readable with a throwaway connection, for a
        // reactor that has not registered its waker yet.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds the listen socket and starts the batch workers (the serving
    /// loop does not run until [`Server::run`]). The engine is wrapped in a
    /// fresh [`EngineHandle`]; use [`Server::bind_handle`] to share one.
    pub fn bind(engine: impl Into<Engine>, config: ServeConfig) -> std::io::Result<Self> {
        Self::bind_handle(Arc::new(EngineHandle::new(engine)), config)
    }

    /// Like [`Server::bind`] over an existing (possibly shared) engine
    /// handle — the caller can hot-swap engines through it at any time.
    pub fn bind_handle(handle: Arc<EngineHandle>, config: ServeConfig) -> std::io::Result<Self> {
        Self::bind_handle_with_registry(handle, config, Arc::new(Registry::new()))
    }

    /// Like [`Server::bind_handle`], recording into a caller-provided
    /// [`Registry`] — instruments the embedder registered beforehand (e.g.
    /// the router's `hics_route_*` family) show up on this server's
    /// `/metrics` alongside the serving core's own.
    pub fn bind_handle_with_registry(
        handle: Arc<EngineHandle>,
        config: ServeConfig,
        registry: Arc<Registry>,
    ) -> std::io::Result<Self> {
        Self::bind_handle_with_obs(handle, config, registry, Arc::new(Tracer::default()))
    }

    /// Like [`Server::bind_handle_with_registry`] over a caller-provided
    /// [`Tracer`] — an embedder (e.g. the scatter-gather router) shares one
    /// tracer between this server's request spans and its own, so a routed
    /// request's spans all land in the same trace store behind `/trace`.
    pub fn bind_handle_with_obs(
        handle: Arc<EngineHandle>,
        config: ServeConfig,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> std::io::Result<Self> {
        let listener = crate::reactor::bind_listener(&config.addr)?;
        let reactors = match config.reactor_threads {
            0 => hics_outlier::parallel::available_threads().min(4),
            n => n,
        };
        let metrics = Arc::new(ServeMetrics::with_registry(registry));
        let batcher = Arc::new(Batcher::start_with_stats(
            Arc::clone(&handle),
            config.workers,
            config.max_batch,
            config.threads,
            config.batch_max_wait,
            Arc::new(BatchStats::registered(&metrics.registry)),
        ));
        Ok(Self {
            listener,
            ctx: Ctx {
                handle,
                batcher,
                reload: Arc::new(Mutex::new(ReloadSource::default())),
                stream_stats: Arc::new(StreamStats::registered(&metrics.registry)),
                conns: Arc::new(ConnStats::registered(&metrics.registry)),
                metrics,
                config: Arc::new(config),
                reactors,
                admin: Arc::new(Mutex::new(Vec::new())),
                tracer,
            },
            stop: Arc::new(AtomicBool::new(false)),
            wakes: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Registers an extra read-only `GET` endpoint. The handler runs on
    /// the serving path (a reactor's event loop), so it must return
    /// quickly from in-memory state — no blocking I/O.
    pub fn register_admin(
        &self,
        path: impl Into<String>,
        handler: impl Fn() -> (u16, String) + Send + Sync + 'static,
    ) {
        self.ctx
            .admin
            .lock()
            .expect("admin routes")
            .push((path.into(), Arc::new(handler)));
    }

    /// Configures the default artifact source for `POST /admin/reload`:
    /// a reload request with an empty body re-loads `path` (with the given
    /// backend preference). A body naming a model overrides — and
    /// updates — this source.
    pub fn set_reload_source(&self, path: PathBuf, index: Option<IndexKind>) {
        let mut src = self.ctx.reload.lock().expect("reload source");
        src.path = Some(path);
        src.index = index;
    }

    /// The shared engine handle (e.g. to swap models from outside HTTP).
    pub fn engine_handle(&self) -> Arc<EngineHandle> {
        Arc::clone(&self.ctx.handle)
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            stop: Arc::clone(&self.stop),
            wakes: Arc::clone(&self.wakes),
            addr: self.local_addr()?,
        })
    }

    /// Runs the serving core until a [`ShutdownHandle`] fires.
    ///
    /// Spawns [`ServeConfig::reactor_threads`] epoll reactors (each with
    /// its own `SO_REUSEPORT` listener on the bound address; the kernel
    /// spreads accepts across them) and drives one on the calling thread. Connections beyond
    /// [`ServeConfig::max_connections`] are shed with `503`; scoring goes
    /// through the shared batcher.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut joins = Vec::new();
        for id in 1..self.ctx.reactors {
            let listener = crate::reactor::bind_reuseport(&addr)?;
            let ctx = self.ctx.clone();
            let stop = Arc::clone(&self.stop);
            let wakes = Arc::clone(&self.wakes);
            joins.push(std::thread::spawn(move || {
                crate::reactor::run_reactor(listener, ctx, stop, &wakes, id);
            }));
        }
        crate::reactor::run_reactor(
            self.listener,
            self.ctx.clone(),
            Arc::clone(&self.stop),
            &self.wakes,
            0,
        );
        for join in joins {
            let _ = join.join();
        }
        self.ctx.batcher.shutdown();
        Ok(())
    }
}

/// Routes one request that is answered inline. `POST /score`,
/// `POST /admin/reload` and `POST /v2/score` never get here: the
/// connection parks on the batcher, a reload thread, or a stream instead.
pub(crate) fn dispatch(method: &str, path: &str, ctx: &Ctx) -> (u16, String) {
    match (method, path) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/model") => (200, model_body(&ctx.handle.load(), ctx.handle.generation())),
        ("GET", "/stats") => (200, stats_body(ctx)),
        ("GET", "/metrics") => (200, ctx.metrics.registry.render_prometheus()),
        ("GET", "/trace") => (200, ctx.tracer.index_json()),
        ("GET", path) if path.starts_with("/trace/") => {
            match hics_obs::trace::parse_id(&path["/trace/".len()..]) {
                None => (400, error_body("trace id must be 1-16 hex digits")),
                Some(id) => match ctx.tracer.trace_json(id) {
                    Some(body) => (200, body),
                    None => (404, error_body("trace not retained (dropped or evicted)")),
                },
            }
        }
        ("POST" | "GET", _) => {
            if method == "GET" {
                let handler = ctx
                    .admin
                    .lock()
                    .expect("admin routes")
                    .iter()
                    .find(|(p, _)| p == path)
                    .map(|(_, h)| Arc::clone(h));
                if let Some(handler) = handler {
                    return handler();
                }
            }
            (404, error_body(&format!("no route {path}")))
        }
        _ => (405, error_body(&format!("method {method} not allowed"))),
    }
}

/// Root-span bookkeeping for one in-flight request: opened at head parse,
/// finished (and submitted to tail retention) when the response flushes.
pub(crate) struct ReqTrace {
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    /// Upstream parent span id, when the client propagated one.
    pub(crate) parent: Option<u64>,
    /// Root-span start on the tracer's clock.
    pub(crate) start_ns: u64,
    pub(crate) path: String,
    /// Response status, recorded when the response is rendered.
    pub(crate) status: u16,
    /// Whether the client sent `x-hics-trace` — the response echoes the
    /// header and the completed trace is always retained.
    pub(crate) explicit: bool,
}

impl ReqTrace {
    /// The `x-hics-trace` value echoed to explicit callers.
    pub(crate) fn header(&self) -> String {
        hics_obs::trace::format_header(self.trace_id, self.span_id)
    }

    /// The context downstream layers (batcher → remote router) parent
    /// their spans under.
    pub(crate) fn context(&self) -> hics_obs::TraceContext {
        hics_obs::TraceContext {
            trace_id: self.trace_id,
            parent_span: self.span_id,
        }
    }
}

/// Opens the root span of one request (`None` with instrumentation off).
/// `elapsed_ns` back-dates the start to first-byte arrival — the head has
/// already been parsed by the time the trace can be created.
pub(crate) fn begin_req_trace(ctx: &Ctx, head: &RequestHead, elapsed_ns: u64) -> Option<ReqTrace> {
    if !ctx.config.instrument {
        return None;
    }
    let (trace_id, parent, explicit) = match head.trace {
        Some((tid, sid)) => (tid, Some(sid), true),
        None => (ctx.tracer.next_id(), None, false),
    };
    Some(ReqTrace {
        trace_id,
        span_id: ctx.tracer.next_id(),
        parent,
        start_ns: ctx.tracer.now_ns().saturating_sub(elapsed_ns),
        path: head.path.clone(),
        status: 200,
        explicit,
    })
}

/// Closes one request's trace: each marked timeline stage becomes a child
/// span bracketed by the previous mark, then the root span closes and the
/// tracer applies tail-based retention. Must run *before* the timeline is
/// folded into the histograms (which resets it).
pub(crate) fn finish_req_trace(ctx: &Ctx, rt: ReqTrace, timeline: &Timeline) {
    let tracer = &ctx.tracer;
    let mut prev_off = 0u64;
    for (stage, name) in STAGES {
        if let Some(off) = timeline.offset_ns(stage) {
            tracer.record(Span {
                trace_id: rt.trace_id,
                span_id: tracer.next_id(),
                parent: Some(rt.span_id),
                name: name.to_string(),
                start_ns: rt.start_ns + prev_off,
                end_ns: rt.start_ns + off,
                tags: Vec::new(),
                status: SpanStatus::Ok,
            });
            prev_off = off;
        }
    }
    let mut root = Span {
        trace_id: rt.trace_id,
        span_id: rt.span_id,
        parent: rt.parent,
        name: format!("req {}", rt.path),
        start_ns: rt.start_ns,
        end_ns: tracer.now_ns(),
        tags: Vec::new(),
        status: if rt.status >= 500 {
            SpanStatus::Error
        } else {
            SpanStatus::Ok
        },
    };
    root.tag("path", rt.path.as_str());
    root.tag("status", rt.status.to_string());
    tracer.finish_trace(root, rt.explicit);
}

/// Parsed `/score` rows plus whether the single-point form was used;
/// failures are `(status, rendered_body)` ready to send.
pub(crate) type ScoreRequest = Result<(Vec<Vec<f64>>, bool), (u16, String)>;

/// Parses and validates a `POST /score` body against model arity `d`.
pub(crate) fn parse_score_request(body: &[u8], d: usize) -> ScoreRequest {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Err((400, error_body("body is not UTF-8"))),
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return Err((400, error_body(&e.to_string()))),
    };
    // Accept {"points": [[...], ...]} (batch) or {"point": [...]} (single).
    if let Some(point) = doc.get("point") {
        match parse_row(point, d) {
            Ok(row) => Ok((vec![row], true)),
            Err(msg) => Err((400, error_body(&msg))),
        }
    } else if let Some(points) = doc.get("points") {
        let Some(arr) = points.as_array() else {
            return Err((400, error_body("\"points\" must be an array of rows")));
        };
        if arr.is_empty() {
            return Err((400, error_body("\"points\" is empty")));
        }
        let mut rows = Vec::with_capacity(arr.len());
        for (i, p) in arr.iter().enumerate() {
            match parse_row(p, d) {
                Ok(row) => rows.push(row),
                Err(msg) => return Err((400, error_body(&format!("row {i}: {msg}")))),
            }
        }
        Ok((rows, false))
    } else {
        Err((400, error_body("body must contain \"point\" or \"points\"")))
    }
}

/// Renders a batch completion into the `/score` response. A degraded
/// (partial) remote fold appends `"partial":true`; full responses stay
/// byte-identical to what they were before partial folds existed. A row
/// the upstream tier could not score at all answers `502` — it is a
/// backend failure, not a client error.
pub(crate) fn format_score_reply(reply: BatchReply, single: bool) -> (u16, String) {
    let Some(batch) = reply else {
        return (503, error_body("server is shutting down"));
    };
    let mut scores = Vec::with_capacity(batch.results.len());
    for (i, r) in batch.results.into_iter().enumerate() {
        match r {
            Ok(s) => scores.push(s),
            Err(e @ hics_outlier::QueryError::Upstream(_)) => {
                return (502, error_body(&format!("row {i}: {e}")))
            }
            Err(e @ hics_outlier::QueryError::Panicked) => {
                return (500, error_body(&e.to_string()))
            }
            Err(e) => return (400, error_body(&format!("row {i}: {e}"))),
        }
    }
    let mut out = String::with_capacity(16 + scores.len() * 20);
    if single {
        out.push_str("{\"score\":");
        json::write_f64(&mut out, scores[0]);
    } else {
        out.push_str("{\"scores\":[");
        for (i, s) in scores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, *s);
        }
        out.push(']');
    }
    if batch.partial {
        out.push_str(",\"partial\":true");
    }
    out.push('}');
    (200, out)
}

/// `POST /admin/reload`: load a new artifact (zero-copy mmap), build and
/// validate its engine, and swap it into the shared handle. In-flight and
/// keep-alive connections are untouched — they finish against whichever
/// engine they already resolved and pick up the new one on their next
/// request (or next batch). On the reactor core this always runs on a
/// short-lived thread, never on an event loop.
pub(crate) fn reload_endpoint(body: &[u8], ctx: &Ctx) -> (u16, String) {
    // Parse the optional body: {"model": "...", "index": "brute"|"vptree"}.
    let mut path_override: Option<PathBuf> = None;
    let mut index_override: Option<IndexKind> = None;
    let trimmed: &[u8] = {
        let mut t = body;
        while let [rest @ .., last] = t {
            if last.is_ascii_whitespace() {
                t = rest;
            } else {
                break;
            }
        }
        t
    };
    if !trimmed.is_empty() {
        let text = match std::str::from_utf8(trimmed) {
            Ok(t) => t,
            Err(_) => return (400, error_body("body is not UTF-8")),
        };
        let doc = match json::parse(text) {
            Ok(d) => d,
            Err(e) => return (400, error_body(&e.to_string())),
        };
        if let Some(m) = doc.get("model") {
            match m.as_str() {
                Some(p) => path_override = Some(PathBuf::from(p)),
                None => return (400, error_body("\"model\" must be a path string")),
            }
        }
        if let Some(ix) = doc.get("index") {
            let Some(name) = ix.as_str() else {
                return (400, error_body("\"index\" must be \"brute\" or \"vptree\""));
            };
            match name.parse::<IndexKind>() {
                Ok(kind) => index_override = Some(kind),
                Err(e) => return (400, error_body(&e)),
            }
        }
    }

    // Hold the source lock across load + swap: concurrent reloads are
    // serialised (scoring traffic is *not* blocked — it reads the handle,
    // not this lock).
    let mut source = ctx.reload.lock().expect("reload source");
    let Some(path) = path_override.or_else(|| source.path.clone()) else {
        return (
            400,
            error_body("no reload source configured; pass {\"model\": \"path\"}"),
        );
    };
    let index = index_override.or(source.index);
    let start = Instant::now();
    // `Engine::open_mmap` sniffs the format version, so a sharded manifest
    // can be hot-swapped in over a single model (and vice versa).
    let engine = match Engine::open_mmap(&path, index, ctx.config.threads) {
        Ok(e) => e,
        Err(e) => {
            return (
                422,
                error_body(&format!("reloading {}: {e}", path.display())),
            )
        }
    };
    let (n, d, subs) = (engine.n(), engine.d(), engine.subspace_count());
    let shards = engine.shard_count();
    let index_json = index_object(&engine);
    let mapped = engine.is_mapped();
    ctx.handle.swap(engine);
    source.path = Some(path);
    source.index = index;
    let micros = start.elapsed().as_micros() as u64;
    (
        200,
        format!(
            "{{\"status\":\"reloaded\",\"generation\":{},\"objects\":{n},\"attributes\":{d},\
             \"subspaces\":{subs},\"shards\":{shards},\"mmap\":{mapped},\
             \"load_micros\":{micros},\"index\":{index_json}}}",
            ctx.handle.generation(),
        ),
    )
}

/// One formatted NDJSON output line (with trailing newline). The score
/// carries the degraded-fold flag; `"partial":true` is appended only when
/// set, so non-degraded lines are byte-identical to the original format.
pub(crate) fn stream_line(
    result: Result<(f64, bool), String>,
    line: u64,
    stats: &StreamStats,
) -> String {
    match result {
        Ok((score, partial)) => {
            stats.lines.inc();
            let mut out = String::with_capacity(24);
            out.push_str("{\"score\":");
            json::write_f64(&mut out, score);
            if partial {
                out.push_str(",\"partial\":true");
            }
            out.push_str("}\n");
            out
        }
        Err(msg) => {
            stats.errors.inc();
            let mut out = String::with_capacity(msg.len() + 24);
            out.push_str("{\"line\":");
            out.push_str(&line.to_string());
            out.push_str(",\"error\":");
            json::escape_string(&mut out, &msg);
            out.push_str("}\n");
            out
        }
    }
}

/// Parses one NDJSON line into a row of arity `d`: a bare `[f64; d]` row
/// or `{"point": [f64; d]}`.
pub(crate) fn parse_stream_row(raw: &[u8], d: usize) -> Result<Vec<f64>, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "line is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let value = doc.get("point").unwrap_or(&doc);
    parse_row(value, d)
}

/// Extracts one numeric row of the model's arity.
fn parse_row(v: &Json, d: usize) -> Result<Vec<f64>, String> {
    let Some(arr) = v.as_array() else {
        return Err("row must be an array of numbers".into());
    };
    if arr.len() != d {
        return Err(format!("row has {} values, model expects {d}", arr.len()));
    }
    arr.iter()
        .enumerate()
        .map(|(j, x)| {
            x.as_f64()
                .ok_or_else(|| format!("value {j} is not a number"))
        })
        .collect()
}

/// The `"index"` object shared by `/model`, `/stats` and
/// `/admin/reload`: which neighbour backend serves queries, where it came
/// from, what building it cost, and whether every artifact's hoods were
/// adopted from its hoods section rather than computed at load.
fn index_object(engine: &Engine) -> String {
    let idx = engine.index_stats();
    format!(
        "{{\"kind\":\"{}\",\"nodes\":{},\"from_artifact\":{},\"build_micros\":{},\
         \"precomputed\":{}}}",
        idx.kind.name(),
        idx.nodes,
        idx.from_artifact,
        idx.build_micros,
        idx.precomputed,
    )
}

/// `GET /model` body.
fn model_body(engine: &Engine, generation: u64) -> String {
    format!(
        "{{\"objects\":{},\"attributes\":{},\"subspaces\":{},\"shards\":{},\
         \"generation\":{generation},\"mmap\":{},\"index\":{}}}",
        engine.n(),
        engine.d(),
        engine.subspace_count(),
        engine.shard_count(),
        engine.is_mapped(),
        index_object(engine),
    )
}

/// `GET /stats` body.
fn stats_body(ctx: &Ctx) -> String {
    let s = ctx.batcher.stats();
    let st = &ctx.stream_stats;
    let cn = &ctx.conns;
    let engine = ctx.handle.load();
    let retired: Vec<String> = ctx
        .handle
        .retired_generations()
        .iter()
        .map(u64::to_string)
        .collect();
    let batch_sizes: Vec<String> = s.batch_size_snapshot().iter().map(u64::to_string).collect();
    format!(
        "{{\"requests\":{},\"rows\":{},\"batches\":{},\"coalesced_batches\":{},\
         \"streams\":{{\"opened\":{},\"lines\":{},\"errors\":{}}},\
         \"generation\":{},\"shards\":{},\"retired_generations\":[{}],\"index\":{},\
         \"connections\":{{\"accepted\":{},\"active\":{},\"shed\":{}}},\
         \"reactors\":{},\"batch_sizes\":[{}]}}",
        s.requests.get(),
        s.rows.get(),
        s.batches.get(),
        s.coalesced_batches.get(),
        st.streams.get(),
        st.lines.get(),
        st.errors.get(),
        ctx.handle.generation(),
        engine.shard_count(),
        retired.join(","),
        index_object(&engine),
        cn.accepted.get(),
        cn.active.get(),
        cn.shed.get(),
        ctx.reactors,
        batch_sizes.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::model::{
        apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
        ScorerSpec,
    };
    use hics_data::SyntheticConfig;
    use hics_outlier::QueryEngine;

    fn engine() -> QueryEngine {
        let g = SyntheticConfig::new(60, 3).with_seed(2).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        let model = HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 2],
                contrast: 0.6,
            }],
            ScorerSpec {
                kind: ScorerKind::KnnMean,
                k: 4,
            },
            AggregationKind::Average,
        );
        QueryEngine::from_model(&model, 1)
    }

    fn test_ctx(engine: QueryEngine) -> Ctx {
        let handle = Arc::new(EngineHandle::new(engine));
        let metrics = Arc::new(ServeMetrics::new());
        let batcher = Arc::new(Batcher::start_with_stats(
            Arc::clone(&handle),
            1,
            16,
            1,
            Duration::ZERO,
            Arc::new(BatchStats::registered(&metrics.registry)),
        ));
        Ctx {
            handle,
            batcher,
            reload: Arc::new(Mutex::new(ReloadSource::default())),
            stream_stats: Arc::new(StreamStats::registered(&metrics.registry)),
            conns: Arc::new(ConnStats::registered(&metrics.registry)),
            metrics,
            config: Arc::new(ServeConfig::default()),
            reactors: 1,
            admin: Arc::new(Mutex::new(Vec::new())),
            tracer: Arc::new(Tracer::default()),
        }
    }

    /// `POST /score` scored synchronously: the same parse, batch and
    /// render steps the reactor runs around its parked connection.
    fn score_endpoint(body: &[u8], engine: &Engine, batcher: &Batcher) -> (u16, String) {
        match parse_score_request(body, engine.d()) {
            Ok((rows, single)) => format_score_reply(batcher.score(rows), single),
            Err(reply) => reply,
        }
    }

    fn with_ctx<F: FnOnce(&Ctx)>(f: F) {
        let ctx = test_ctx(engine());
        f(&ctx);
        ctx.batcher.shutdown();
    }

    /// A sharded manifest flows through the same dispatch/reload machinery
    /// as a single model: `/model` and `/stats` report the shard count,
    /// `/score` answers with the ensemble score, and a reload onto the
    /// manifest swaps it in under the running batcher.
    #[test]
    fn sharded_manifest_serves_and_hot_reloads() {
        use hics_data::manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
        let dir = std::env::temp_dir().join("hics-serve-sharded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut entries = Vec::new();
        let mut shard_engines = Vec::new();
        for (k, seed) in [4u64, 5].iter().enumerate() {
            let g = SyntheticConfig::new(60, 3).with_seed(*seed).generate();
            let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
            let model = HicsModel::new(
                data,
                NormKind::None,
                norm,
                vec![ModelSubspace {
                    dims: vec![0, 1],
                    contrast: 0.6,
                }],
                ScorerSpec {
                    kind: ScorerKind::KnnMean,
                    k: 4,
                },
                AggregationKind::Average,
            );
            let file = format!("serve.shard{k}.hics");
            model.save(&dir.join(&file)).unwrap();
            shard_engines.push(QueryEngine::from_model(&model, 1));
            entries.push(ShardEntry {
                file,
                n: model.n() as u64,
            });
        }
        let manifest = ShardManifest {
            total_n: 120,
            d: 3,
            aggregation: ShardAggregation::Mean,
            partition: PartitionKind::Contiguous,
            shards: entries,
        };
        let manifest_path = dir.join("serve.hics");
        manifest.save(&manifest_path).unwrap();

        with_ctx(|ctx| {
            // Hot-reload the running (single-model) server onto the
            // manifest.
            let body = format!("{{\"model\": \"{}\"}}", manifest_path.display());
            let (status, reply) = reload_endpoint(body.as_bytes(), ctx);
            assert_eq!(status, 200, "{reply}");
            assert!(reply.contains("\"shards\":2"), "{reply}");
            assert!(reply.contains("\"objects\":120"), "{reply}");

            let engine = ctx.handle.load();
            assert_eq!(engine.shard_count(), 2);
            let body = model_body(&engine, ctx.handle.generation());
            assert!(body.contains("\"shards\":2"), "{body}");
            let stats = stats_body(ctx);
            assert!(stats.contains("\"shards\":2"), "{stats}");
            assert!(
                stats.contains("\"retired_generations\":[1]"),
                "the displaced single-model engine is retired: {stats}"
            );

            // `/score` now answers the ensemble mean, through the batcher.
            let q = [0.3, 0.6, 0.9];
            let (status, body) =
                score_endpoint(br#"{"point": [0.3, 0.6, 0.9]}"#, &engine, &ctx.batcher);
            assert_eq!(status, 200, "{body}");
            let got = json::parse(&body)
                .unwrap()
                .get("score")
                .unwrap()
                .as_f64()
                .unwrap();
            let want = shard_engines
                .iter()
                .map(|e| e.score(&q).unwrap())
                .sum::<f64>()
                / 2.0;
            assert_eq!(got, want);
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vptree_engine_reports_index_and_scores_identically() {
        let g = SyntheticConfig::new(90, 3).with_seed(6).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        let model = HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 1],
                contrast: 0.7,
            }],
            ScorerSpec {
                kind: ScorerKind::Lof,
                k: 5,
            },
            AggregationKind::Average,
        );
        let brute = QueryEngine::from_model(&model, 1);
        let vp = Engine::from(QueryEngine::from_model_with_index(
            &model,
            Some(hics_outlier::IndexKind::VpTree),
            1,
        ));
        let body = model_body(&vp, 1);
        assert!(body.contains("\"index\":{\"kind\":\"vptree\""), "{body}");
        assert!(!body.contains("\"nodes\":0"), "{body}");
        for i in (0..90).step_by(9) {
            let row = g.dataset.row(i);
            assert_eq!(brute.score(&row), vp.score(&row), "row {i}");
        }
    }

    #[test]
    fn score_endpoint_single_and_batch() {
        with_ctx(|ctx| {
            let engine = ctx.handle.load();
            let (status, body) =
                score_endpoint(br#"{"point": [0.5, 0.5, 0.5]}"#, &engine, &ctx.batcher);
            assert_eq!(status, 200, "{body}");
            let score = json::parse(&body)
                .unwrap()
                .get("score")
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(score, engine.score(&[0.5, 0.5, 0.5]).unwrap());

            let (status, body) = score_endpoint(
                br#"{"points": [[0.5, 0.5, 0.5], [0.1, 0.9, 0.2]]}"#,
                &engine,
                &ctx.batcher,
            );
            assert_eq!(status, 200, "{body}");
            let doc = json::parse(&body).unwrap();
            let scores = doc.get("scores").unwrap().as_array().unwrap();
            assert_eq!(scores.len(), 2);
            assert_eq!(
                scores[1].as_f64().unwrap(),
                engine.score(&[0.1, 0.9, 0.2]).unwrap()
            );
        });
    }

    #[test]
    fn score_endpoint_rejects_bad_bodies() {
        with_ctx(|ctx| {
            let engine = ctx.handle.load();
            for (body, fragment) in [
                (&b"not json"[..], "JSON error"),
                (br#"{"nope": 1}"#, "\\\"point\\\" or \\\"points\\\""),
                (br#"{"points": []}"#, "empty"),
                (br#"{"points": [[1, 2]]}"#, "model expects 3"),
                (br#"{"point": [1, 2, "x"]}"#, "not a number"),
                (br#"{"points": 5}"#, "must be an array"),
            ] {
                let (status, msg) = score_endpoint(body, &engine, &ctx.batcher);
                assert_eq!(status, 400, "{msg}");
                assert!(msg.contains(fragment), "{msg} missing {fragment}");
            }
        });
    }

    #[test]
    fn dispatch_routes_and_404s() {
        with_ctx(|ctx| {
            let get = |path: &str| dispatch("GET", path, ctx);
            assert_eq!(get("/healthz").0, 200);
            let (status, body) = get("/model");
            assert_eq!(status, 200);
            assert!(body.contains("\"attributes\":3"), "{body}");
            assert!(body.contains("\"generation\":1"), "{body}");
            assert!(body.contains("\"index\":{\"kind\":\"brute\""), "{body}");
            let (status, body) = get("/stats");
            assert_eq!(status, 200);
            assert!(body.contains("\"index\":{\"kind\":\"brute\""), "{body}");
            assert!(body.contains("\"streams\":{"), "{body}");
            assert!(body.contains("\"connections\":{"), "{body}");
            assert!(body.contains("\"reactors\":1"), "{body}");
            assert!(body.contains("\"batch_sizes\":["), "{body}");
            let (status, body) = get("/metrics");
            assert_eq!(status, 200);
            assert!(
                body.contains("# TYPE hics_requests_total counter"),
                "{body}"
            );
            assert!(body.contains("# TYPE hics_batch_size summary"), "{body}");
            assert!(body.contains("hics_connections_active 0"), "{body}");
            assert_eq!(get("/nope").0, 404);
            // Embedder-registered admin routes answer GETs past the
            // built-ins — and only GETs.
            ctx.admin.lock().unwrap().push((
                "/route".into(),
                Arc::new(|| (200, "{\"shards\":[]}".to_string())),
            ));
            let (status, body) = get("/route");
            assert_eq!(status, 200);
            assert_eq!(body, "{\"shards\":[]}");
            assert_eq!(dispatch("POST", "/route", ctx).0, 404);
            assert_eq!(dispatch("DELETE", "/score", ctx).0, 405);
        });
    }

    #[test]
    fn reload_without_source_or_with_bad_body_is_4xx() {
        with_ctx(|ctx| {
            let (status, body) = reload_endpoint(b"", ctx);
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("no reload source"), "{body}");

            let (status, _) = reload_endpoint(b"{\"model\": 7}", ctx);
            assert_eq!(status, 400);

            let (status, body) = reload_endpoint(br#"{"model": "/no/such/artifact.hics"}"#, ctx);
            assert_eq!(status, 422, "{body}");
            assert_eq!(ctx.handle.generation(), 1, "failed reload must not swap");
        });
    }

    #[test]
    fn reload_swaps_in_a_new_model_and_bumps_generation() {
        with_ctx(|ctx| {
            let g = SyntheticConfig::new(70, 3).with_seed(8).generate();
            let (data, norm) = apply_normalization(&g.dataset, NormKind::MinMax);
            let model = HicsModel::new(
                data,
                NormKind::MinMax,
                norm,
                vec![ModelSubspace {
                    dims: vec![0, 1],
                    contrast: 0.9,
                }],
                ScorerSpec {
                    kind: ScorerKind::Lof,
                    k: 6,
                },
                AggregationKind::Average,
            );
            let dir = std::env::temp_dir().join("hics-serve-reload-test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("second.hics");
            model.save(&path).unwrap();

            let before = ctx.handle.load();
            let body = format!("{{\"model\": \"{}\"}}", path.display());
            let (status, reply) = reload_endpoint(body.as_bytes(), ctx);
            assert_eq!(status, 200, "{reply}");
            assert!(reply.contains("\"status\":\"reloaded\""), "{reply}");
            assert!(reply.contains("\"generation\":2"), "{reply}");
            assert!(reply.contains("\"objects\":70"), "{reply}");
            let after = ctx.handle.load();
            assert!(!Arc::ptr_eq(&before, &after));
            assert!(after.is_mapped(), "reload serves the artifact zero-copy");
            // The reloaded engine matches a freshly built reference.
            let reference = QueryEngine::from_model(&model, 1);
            let q = vec![0.25, 0.5, 0.75];
            assert_eq!(after.score(&q), reference.score(&q));
            // An empty body now re-loads the remembered source.
            let (status, reply) = reload_endpoint(b"", ctx);
            assert_eq!(status, 200, "{reply}");
            assert!(reply.contains("\"generation\":3"), "{reply}");
            std::fs::remove_file(&path).ok();
        });
    }

    /// The `"index"` object of `/model`, `/stats` and `/admin/reload`
    /// says whether the engine adopted stored hoods: false for an engine
    /// that computed them, true after a reload onto an artifact carrying
    /// a hoods section.
    #[test]
    fn index_object_reports_hoods_adoption_on_every_endpoint() {
        with_ctx(|ctx| {
            let engine = ctx.handle.load();
            for body in [model_body(&engine, 1), stats_body(ctx)] {
                assert!(body.contains("\"precomputed\":false"), "{body}");
            }
            let g = SyntheticConfig::new(50, 3).with_seed(12).generate();
            let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
            let mut model = HicsModel::new(
                data,
                NormKind::None,
                norm,
                vec![ModelSubspace {
                    dims: vec![0, 2],
                    contrast: 0.8,
                }],
                ScorerSpec {
                    kind: ScorerKind::Lof,
                    k: 4,
                },
                AggregationKind::Average,
            );
            let layout = hics_outlier::SubspaceLayout::gather(model.dataset(), &[0, 2]);
            let hoods = hics_outlier::subspace_hoods(
                &layout,
                &hics_outlier::SubspaceIndex::Brute,
                model.scorer(),
                1,
            );
            model.set_hoods(Some(hics_data::model::ModelHoods {
                subspaces: vec![hoods],
            }));
            let dir = std::env::temp_dir().join("hics-serve-hoods-test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("hoods.hics");
            model.save(&path).unwrap();

            let body = format!("{{\"model\": \"{}\"}}", path.display());
            let (status, reply) = reload_endpoint(body.as_bytes(), ctx);
            assert_eq!(status, 200, "{reply}");
            assert!(reply.contains("\"precomputed\":true"), "{reply}");
            let engine = ctx.handle.load();
            for body in [model_body(&engine, 2), stats_body(ctx)] {
                assert!(body.contains("\"precomputed\":true"), "{body}");
            }
            std::fs::remove_dir_all(&dir).ok();
        });
    }
}
