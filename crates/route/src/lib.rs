//! # hics-route — scatter-gather serving tier over shard backends
//!
//! The distributed counterpart of [`hics_outlier::ShardedEngine`]: where
//! the in-process ensemble maps every shard artifact into one address
//! space, the [`Router`] fans a query out to one `hics serve` backend per
//! shard over persistent keep-alive [`hics_serve::Pool`]s, folds the
//! per-shard scores through the **same** pinned [`hics_outlier::Fold`],
//! and returns the ensemble score — bit for bit what the
//! in-process fold produces, because scores cross the wire in shortest
//! round-trip form and the fold is literally shared code.
//!
//! The router is not an HTTP server itself: it implements
//! [`hics_outlier::RemoteEngine`] and plugs into the serving stack as
//! [`hics_outlier::Engine::Remote`], so the epoll reactor, the
//! cross-connection batcher, `/score`, `/v2/score`, `/metrics` — the
//! whole front — run unchanged on top of the fan-out. Batching still
//! pays: rows coalesced from many client connections ride one upstream
//! fan-out.
//!
//! Production concerns live here, not in the serving core:
//!
//! * **Health**: a background checker probes every replica's `/model`,
//!   evicts a replica after [`RouterConfig::evict_after`] consecutive
//!   failures and readmits it after [`RouterConfig::readmit_after`]
//!   consecutive successes. A shard is healthy while ≥ 1 replica is.
//! * **Degraded serving**: with [`DegradedMode::Partial`] (default) the
//!   fold runs over the surviving shards in shard order and responses are
//!   marked `"partial":true`; with [`DegradedMode::Fail`] any missing
//!   shard fails the query with an upstream error.
//! * **Retries**: per-shard requests run under
//!   [`RouterConfig::request_timeout`] with up to
//!   [`RouterConfig::retries`] bounded retries against the shard's other
//!   replicas.
//! * **Hedging**: when a shard's reply is slower than a learned latency
//!   quantile of that shard's own history (from the router's
//!   [`hics_obs`] histograms), a duplicate request fires at the next
//!   replica and the first answer wins — the classic tail-at-scale
//!   straggler defence.
//! * **Observability**: `GET /route` renders per-shard health, replica
//!   state, pool depth, in-flight and hedge counters; every instrument is
//!   also a `hics_route_*` metric on the shared `/metrics` registry.

#![warn(missing_docs)]

use hics_data::manifest::{ShardAggregation, ShardManifest};
use hics_data::route::RouteTable;
use hics_obs::trace::{self, TraceContext};
use hics_obs::{Counter, Gauge, Histogram, Registry, SpanStatus, Tracer};
use hics_outlier::{Fold, QueryError, RemoteEngine, ScoredBatch};
use hics_serve::client::{format_points_body, Pool};
use hics_serve::{json, LogFormat};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Histogram resolution for upstream latency: nanoseconds to ~68 s at
/// `2^-5` relative error (matches the serving core's latency family).
const LATENCY_SUB_BITS: u32 = 5;
const LATENCY_MAX_NS: u64 = 1 << 36;
const NANOS_TO_SECONDS: f64 = 1e-9;

/// Learned hedging needs at least this many samples before it trusts the
/// per-shard latency quantile over the configured fallback delay.
const HEDGE_MIN_SAMPLES: u64 = 64;

/// What a query does when a shard has no healthy replica (or its request
/// exhausts retries): fail, or degrade to the surviving shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Fold over the surviving shards and mark responses `"partial":true`.
    #[default]
    Partial,
    /// Fail the query with an upstream error.
    Fail,
}

impl std::str::FromStr for DegradedMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "partial" => Ok(DegradedMode::Partial),
            "fail" => Ok(DegradedMode::Fail),
            other => Err(format!("unknown degraded mode {other:?} (partial|fail)")),
        }
    }
}

impl DegradedMode {
    /// CLI/JSON spelling.
    pub fn name(self) -> &'static str {
        match self {
            DegradedMode::Partial => "partial",
            DegradedMode::Fail => "fail",
        }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Behaviour when a shard cannot answer (see [`DegradedMode`]).
    pub degraded: DegradedMode,
    /// End-to-end budget for one shard's answer, covering the primary
    /// attempt, hedges and retries.
    pub request_timeout: Duration,
    /// Bounded retries per shard query, each against the next replica
    /// (so at most `retries + 1` replicas are tried).
    pub retries: usize,
    /// Hedge delay used until a shard has enough latency history to learn
    /// its own (the learned delay is that shard's
    /// [`RouterConfig::hedge_quantile`] upstream latency).
    pub hedge_after: Duration,
    /// Latency quantile the learned hedge delay tracks.
    pub hedge_quantile: f64,
    /// Interval between health sweeps.
    pub health_interval: Duration,
    /// Consecutive probe failures that evict a replica.
    pub evict_after: u32,
    /// Consecutive probe successes that readmit an evicted replica.
    pub readmit_after: u32,
    /// Idle keep-alive connections kept per replica.
    pub pool_cap: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            degraded: DegradedMode::Partial,
            request_timeout: Duration::from_secs(2),
            retries: 1,
            hedge_after: Duration::from_millis(50),
            hedge_quantile: 0.95,
            health_interval: Duration::from_millis(500),
            evict_after: 3,
            readmit_after: 2,
            pool_cap: 8,
        }
    }
}

/// One backend replica of one shard.
#[derive(Debug)]
struct Replica {
    pool: Pool,
    healthy: AtomicBool,
    consec_failures: AtomicU32,
    consec_successes: AtomicU32,
    evictions: Arc<Counter>,
}

impl Replica {
    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }
}

/// Per-shard routing state and instruments.
#[derive(Debug)]
struct Shard {
    replicas: Vec<Arc<Replica>>,
    in_flight: Arc<Gauge>,
    /// Upstream answer latency (winning attempt only) — the source the
    /// learned hedge delay reads.
    latency: Arc<Histogram>,
    requests: Arc<Counter>,
    hedges: Arc<Counter>,
    hedge_wins: Arc<Counter>,
    retries: Arc<Counter>,
    errors: Arc<Counter>,
}

impl Shard {
    fn is_healthy(&self) -> bool {
        self.replicas.iter().any(|r| r.is_healthy())
    }
}

/// Wakes the health loop early on shutdown.
#[derive(Debug, Default)]
struct HealthGate {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// The scatter-gather router (see the crate docs). Build with
/// [`Router::new`], then plug an `Arc<Router>` into
/// [`hics_outlier::Engine::Remote`] and (optionally) spawn the health
/// checker with [`Router::spawn_health_checker`].
#[derive(Debug)]
pub struct Router {
    shards: Vec<Shard>,
    aggregation: ShardAggregation,
    total_n: usize,
    d: usize,
    /// Total subspaces across backends, learned from `/model` probes.
    subspaces: AtomicUsize,
    cfg: RouterConfig,
    requests: Arc<Counter>,
    partials: Arc<Counter>,
    failures: Arc<Counter>,
    gate: Arc<HealthGate>,
    /// Shared with the fronting server (see [`Router::set_tracer`]); the
    /// router only *records* spans — the server's request root span is
    /// what closes and retains the trace.
    tracer: Option<Arc<Tracer>>,
    /// Fan-outs at or above this total latency log one stderr line with
    /// the per-shard timing breakdown.
    slow_fanout: Option<Duration>,
    log_format: LogFormat,
}

impl Router {
    /// Builds a router for `manifest`'s ensemble placed by `table`
    /// (validated against the manifest), recording into `registry` (share
    /// it with the fronting server so one `/metrics` scrape sees both).
    pub fn new(
        manifest: &ShardManifest,
        table: &RouteTable,
        cfg: RouterConfig,
        registry: &Registry,
    ) -> Result<Self, String> {
        table.validate_against(manifest)?;
        let shard_label = |i: usize| vec![("shard", i.to_string())];
        let shards = table
            .iter()
            .enumerate()
            .map(|(i, replicas)| Shard {
                replicas: replicas
                    .iter()
                    .map(|addr| {
                        Arc::new(Replica {
                            pool: Pool::new(addr.clone(), cfg.pool_cap),
                            healthy: AtomicBool::new(true),
                            consec_failures: AtomicU32::new(0),
                            consec_successes: AtomicU32::new(0),
                            evictions: registry.counter_with(
                                "hics_route_evictions_total",
                                "Replica evictions by the health checker.",
                                vec![("replica", addr.clone())],
                            ),
                        })
                    })
                    .collect(),
                in_flight: registry.gauge_with(
                    "hics_route_in_flight",
                    "Shard queries currently in flight.",
                    shard_label(i),
                ),
                latency: registry.histogram_with(
                    "hics_route_upstream_seconds",
                    "Upstream answer latency per shard (winning attempt).",
                    shard_label(i),
                    LATENCY_SUB_BITS,
                    LATENCY_MAX_NS,
                    NANOS_TO_SECONDS,
                ),
                requests: registry.counter_with(
                    "hics_route_shard_requests_total",
                    "Shard queries issued.",
                    shard_label(i),
                ),
                hedges: registry.counter_with(
                    "hics_route_hedges_total",
                    "Hedged (duplicate) requests fired.",
                    shard_label(i),
                ),
                hedge_wins: registry.counter_with(
                    "hics_route_hedge_wins_total",
                    "Shard queries won by a hedge or retry attempt.",
                    shard_label(i),
                ),
                retries: registry.counter_with(
                    "hics_route_retries_total",
                    "Retry attempts after a failed upstream exchange.",
                    shard_label(i),
                ),
                errors: registry.counter_with(
                    "hics_route_shard_errors_total",
                    "Shard queries that exhausted every attempt.",
                    shard_label(i),
                ),
            })
            .collect();
        let router = Self {
            shards,
            aggregation: manifest.aggregation,
            total_n: manifest.total_n as usize,
            d: manifest.d,
            subspaces: AtomicUsize::new(0),
            cfg,
            requests: registry.counter(
                "hics_route_requests_total",
                "Fan-out batches issued by the router.",
            ),
            partials: registry.counter(
                "hics_route_partial_total",
                "Fan-outs folded over a degraded (partial) shard set.",
            ),
            failures: registry.counter(
                "hics_route_failures_total",
                "Fan-outs that produced no ensemble score.",
            ),
            gate: Arc::new(HealthGate::default()),
            tracer: None,
            slow_fanout: None,
            log_format: LogFormat::Text,
        };
        registry
            .gauge_with(
                "hics_build_info",
                "Build metadata; the value is always 1.",
                vec![
                    ("version", env!("CARGO_PKG_VERSION").to_string()),
                    ("crate", "hics-route".to_string()),
                ],
            )
            .set(1);
        Ok(router)
    }

    /// Shares the fronting server's [`Tracer`] so fan-out and per-attempt
    /// spans land in the trace the server's request root span closes, and
    /// propagate downstream as `x-hics-trace` on each shard attempt.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Fan-outs slower than `threshold` log one stderr line (in `format`)
    /// with the total, the per-shard timings and the trace id. `None`
    /// disables the log.
    pub fn set_slow_fanout(&mut self, threshold: Option<Duration>, format: LogFormat) {
        self.slow_fanout = threshold;
        self.log_format = format;
    }

    /// The configured degraded mode.
    pub fn degraded_mode(&self) -> DegradedMode {
        self.cfg.degraded
    }

    /// The hedge delay shard `si` currently uses: its learned
    /// [`RouterConfig::hedge_quantile`] latency once it has history,
    /// the configured fallback before that.
    fn hedge_delay(&self, si: usize) -> Duration {
        let latency = &self.shards[si].latency;
        if latency.count() >= HEDGE_MIN_SAMPLES {
            Duration::from_nanos(latency.quantile(self.cfg.hedge_quantile).max(1))
        } else {
            self.cfg.hedge_after
        }
    }

    /// One request/response exchange with one replica. `trace` is the
    /// `x-hics-trace` value to inject, parenting the backend's own spans
    /// under this attempt.
    fn attempt(
        replica: &Replica,
        body: &str,
        timeout: Duration,
        trace: Option<&str>,
    ) -> Result<Vec<f64>, String> {
        let addr = replica.pool.addr();
        let resp = replica
            .pool
            .request_traced("POST", "/score", Some(body), timeout, trace)
            .map_err(|e| format!("{addr}: {e}"))?;
        let text = resp
            .text()
            .map_err(|_| format!("{addr}: response body is not UTF-8"))?;
        if resp.status != 200 {
            return Err(format!("{addr}: status {} ({text})", resp.status));
        }
        let doc = json::parse(text).map_err(|e| format!("{addr}: {e}"))?;
        let scores = doc
            .get("scores")
            .and_then(|s| s.as_array())
            .ok_or_else(|| format!("{addr}: response has no \"scores\""))?;
        scores
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("{addr}: non-numeric score"))
            })
            .collect()
    }

    /// Scores `body` (a rendered `/score` batch) against shard `si`:
    /// primary attempt on the first healthy replica, a hedge to the next
    /// one once the learned delay passes, bounded retries on failure —
    /// first success wins.
    fn query_shard(
        &self,
        si: usize,
        body: &str,
        ctx: Option<TraceContext>,
    ) -> Result<Vec<f64>, String> {
        let shard = &self.shards[si];
        let candidates: Vec<Arc<Replica>> = shard
            .replicas
            .iter()
            .filter(|r| r.is_healthy())
            .map(Arc::clone)
            .collect();
        if candidates.is_empty() {
            shard.errors.inc();
            if let (Some(tracer), Some(ctx)) = (&self.tracer, ctx) {
                let mut span =
                    tracer.begin_span(ctx.trace_id, Some(ctx.parent_span), format!("shard{si}"));
                span.status = SpanStatus::Error;
                span.tag("outcome", "no_healthy_replicas");
                tracer.finish_span(span);
            }
            return Err(format!("shard {si}: no healthy replicas"));
        }
        shard.requests.inc();
        shard.in_flight.add(1);
        let result = self.race_replicas(si, &candidates, body, ctx);
        shard.in_flight.add(-1);
        if result.is_err() {
            shard.errors.inc();
        }
        result
    }

    /// The hedged race over `candidates` (all currently healthy). Losing
    /// attempts keep running on detached threads — they drain their
    /// responses and park their connections without blocking the winner.
    fn race_replicas(
        &self,
        si: usize,
        candidates: &[Arc<Replica>],
        body: &str,
        ctx: Option<TraceContext>,
    ) -> Result<Vec<f64>, String> {
        let shard = &self.shards[si];
        let timeout = self.cfg.request_timeout;
        let deadline = Instant::now() + timeout;
        let max_attempts = candidates.len().min(self.cfg.retries + 1);
        let hedge_delay = self.hedge_delay(si);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Duration, Result<Vec<f64>, String>)>();
        // Every attempt — primary, hedge or retry — gets its own span so a
        // trace waterfall shows exactly which replica answered and which
        // straggled or failed. The attempt's span id rides downstream in
        // `x-hics-trace`, parenting the backend's own request span under
        // it. Spans record on the attempt thread when the exchange ends;
        // stragglers that outlive the request's root span are dropped by
        // the tracer's pending sweep, never leaked.
        let launch = |attempt: usize, kind: &'static str| {
            let replica = Arc::clone(&candidates[attempt]);
            let body = body.to_string();
            let tx = tx.clone();
            let span = match (&self.tracer, ctx) {
                (Some(tracer), Some(ctx)) => {
                    let mut span = tracer.begin_span(
                        ctx.trace_id,
                        Some(ctx.parent_span),
                        format!("shard{si}"),
                    );
                    span.tag("replica", replica.pool.addr());
                    span.tag("kind", kind);
                    Some((Arc::clone(tracer), span))
                }
                _ => None,
            };
            let header = span
                .as_ref()
                .map(|(_, s)| trace::format_header(s.trace_id, s.span_id));
            std::thread::spawn(move || {
                let started = Instant::now();
                let res = Self::attempt(&replica, &body, timeout, header.as_deref());
                if let Some((tracer, mut span)) = span {
                    match &res {
                        Ok(_) => span.tag("outcome", "ok"),
                        Err(e) => {
                            span.status = SpanStatus::Error;
                            span.tag("outcome", "error");
                            span.tag("error", e.clone());
                        }
                    }
                    tracer.finish_span(span);
                }
                let _ = tx.send((attempt, started.elapsed(), res));
            });
        };
        launch(0, "primary");
        let mut launched = 1usize;
        let mut outstanding = 1usize;
        let mut last_err = format!("shard {si}: request timed out after {timeout:?}");
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(last_err);
            }
            let can_launch = launched < max_attempts;
            let wait = if can_launch {
                hedge_delay.min(deadline - now)
            } else {
                deadline - now
            };
            match rx.recv_timeout(wait) {
                Ok((attempt, elapsed, Ok(scores))) => {
                    shard.latency.record(elapsed.as_nanos() as u64);
                    if attempt > 0 {
                        shard.hedge_wins.inc();
                    }
                    return Ok(scores);
                }
                Ok((_, _, Err(e))) => {
                    outstanding -= 1;
                    last_err = e;
                    if can_launch {
                        shard.retries.inc();
                        launch(launched, "retry");
                        launched += 1;
                        outstanding += 1;
                    } else if outstanding == 0 {
                        return Err(last_err);
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if can_launch {
                        shard.hedges.inc();
                        launch(launched, "hedge");
                        launched += 1;
                        outstanding += 1;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(last_err);
                }
            }
        }
    }

    // -- health ------------------------------------------------------------

    /// Probes one replica's `/model`; a probe passes when the backend
    /// answers 200 with matching attribute arity. Returns the backend's
    /// subspace count on success.
    fn probe(&self, replica: &Replica) -> Result<usize, String> {
        let addr = replica.pool.addr();
        let timeout = self.cfg.health_interval.max(Duration::from_millis(250));
        let resp = replica
            .pool
            .request("GET", "/model", None, timeout)
            .map_err(|e| format!("{addr}: {e}"))?;
        let text = resp.text().map_err(|_| format!("{addr}: not UTF-8"))?;
        if resp.status != 200 {
            return Err(format!("{addr}: status {}", resp.status));
        }
        let doc = json::parse(text).map_err(|e| format!("{addr}: {e}"))?;
        let d = doc
            .get("attributes")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{addr}: /model has no attributes"))? as usize;
        if d != self.d {
            return Err(format!(
                "{addr}: serves {d} attributes, manifest expects {}",
                self.d
            ));
        }
        let subspaces = doc.get("subspaces").and_then(|v| v.as_f64()).unwrap_or(0.0) as usize;
        Ok(subspaces)
    }

    /// One sweep over every replica: updates consecutive-failure/success
    /// streaks, applies eviction/readmission thresholds and refreshes the
    /// learned ensemble subspace total.
    pub fn probe_all(&self) {
        let mut subspace_total = 0usize;
        let mut all_probed = true;
        for shard in &self.shards {
            let mut shard_subs: Option<usize> = None;
            for replica in &shard.replicas {
                match self.probe(replica) {
                    Ok(subs) => {
                        replica.consec_failures.store(0, Ordering::Relaxed);
                        let ok = replica.consec_successes.fetch_add(1, Ordering::Relaxed) + 1;
                        if !replica.is_healthy() && ok >= self.cfg.readmit_after {
                            replica.healthy.store(true, Ordering::Relaxed);
                        }
                        shard_subs.get_or_insert(subs);
                    }
                    Err(_) => {
                        replica.consec_successes.store(0, Ordering::Relaxed);
                        let bad = replica.consec_failures.fetch_add(1, Ordering::Relaxed) + 1;
                        if replica.is_healthy() && bad >= self.cfg.evict_after {
                            replica.healthy.store(false, Ordering::Relaxed);
                            replica.evictions.inc();
                            // Its parked connections are as dead as it is.
                            replica.pool.drain();
                        }
                    }
                }
            }
            match shard_subs {
                Some(s) => subspace_total += s,
                None => all_probed = false,
            }
        }
        if all_probed {
            self.subspaces.store(subspace_total, Ordering::Relaxed);
        }
    }

    /// Spawns the background health checker, sweeping every
    /// [`RouterConfig::health_interval`] until [`Router::shutdown`].
    pub fn spawn_health_checker(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let router = Arc::clone(self);
        std::thread::spawn(move || loop {
            router.probe_all();
            let gate = Arc::clone(&router.gate);
            let stopped = gate.stopped.lock().expect("health gate");
            let (stopped, _) = gate
                .cv
                .wait_timeout_while(stopped, router.cfg.health_interval, |s| !*s)
                .expect("health gate");
            if *stopped {
                return;
            }
        })
    }

    /// Stops the health checker (idempotent).
    pub fn shutdown(&self) {
        *self.gate.stopped.lock().expect("health gate") = true;
        self.gate.cv.notify_all();
    }

    // -- admin -------------------------------------------------------------

    /// The `GET /route` body: per-shard health, replica state, pool
    /// depth, in-flight and hedge/retry counters — rendered from
    /// in-memory state only (safe on an event loop).
    pub fn route_body(&self) -> String {
        let mut out = String::with_capacity(256 + self.shards.len() * 256);
        out.push_str("{\"aggregation\":\"");
        out.push_str(self.aggregation.name());
        out.push_str("\",\"degraded\":\"");
        out.push_str(self.cfg.degraded.name());
        out.push_str("\",\"healthy_shards\":");
        let healthy = self.shards.iter().filter(|s| s.is_healthy()).count();
        out.push_str(&healthy.to_string());
        out.push_str(",\"shards\":[");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"shard\":");
            out.push_str(&i.to_string());
            out.push_str(",\"healthy\":");
            out.push_str(if shard.is_healthy() { "true" } else { "false" });
            out.push_str(",\"in_flight\":");
            out.push_str(&shard.in_flight.get().to_string());
            out.push_str(",\"requests\":");
            out.push_str(&shard.requests.get().to_string());
            out.push_str(",\"hedges\":");
            out.push_str(&shard.hedges.get().to_string());
            out.push_str(",\"hedge_wins\":");
            out.push_str(&shard.hedge_wins.get().to_string());
            out.push_str(",\"retries\":");
            out.push_str(&shard.retries.get().to_string());
            out.push_str(",\"errors\":");
            out.push_str(&shard.errors.get().to_string());
            out.push_str(",\"hedge_delay_us\":");
            out.push_str(&(self.hedge_delay(i).as_micros() as u64).to_string());
            out.push_str(",\"replicas\":[");
            for (j, replica) in shard.replicas.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"addr\":");
                json::escape_string(&mut out, replica.pool.addr());
                out.push_str(",\"healthy\":");
                out.push_str(if replica.is_healthy() {
                    "true"
                } else {
                    "false"
                });
                out.push_str(",\"consecutive_failures\":");
                out.push_str(&replica.consec_failures.load(Ordering::Relaxed).to_string());
                out.push_str(",\"pool_depth\":");
                out.push_str(&replica.pool.depth().to_string());
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl RemoteEngine for Router {
    /// The scatter-gather fan-out: validate rows locally (so dimension
    /// and finiteness failures render exactly as the in-process engines
    /// do), send the finite rows to every healthy shard concurrently,
    /// fold the answers per row in shard order through the shared
    /// [`hics_outlier::Fold`].
    fn score_rows(&self, rows: &[Vec<f64>]) -> ScoredBatch {
        self.requests.inc();
        let started = Instant::now();
        let trace_id = trace::current().map(|c| c.trace_id);
        // The fan-out span brackets the whole scatter-gather and parents
        // every per-attempt span. Its own parent is the request span the
        // fronting server installed on this worker thread before calling
        // into the engine.
        let fanout = match (&self.tracer, trace::current()) {
            (Some(tracer), Some(ctx)) => {
                let mut span = tracer.begin_span(ctx.trace_id, Some(ctx.parent_span), "fanout");
                span.tag("rows", rows.len().to_string());
                Some(span)
            }
            _ => None,
        };
        let ctx = fanout.as_ref().map(|s| TraceContext {
            trace_id: s.trace_id,
            parent_span: s.span_id,
        });
        let (batch, shard_elapsed) = self.fan_out(rows, ctx);
        if let (Some(tracer), Some(mut span)) = (&self.tracer, fanout) {
            span.tag("partial", if batch.partial { "true" } else { "false" });
            if batch
                .results
                .iter()
                .any(|r| matches!(r, Err(QueryError::Upstream(_))))
            {
                span.status = SpanStatus::Error;
            }
            tracer.finish_span(span);
        }
        if let Some(threshold) = self.slow_fanout {
            let total = started.elapsed();
            if total >= threshold {
                self.log_slow_fanout(total, &shard_elapsed, batch.partial, trace_id);
            }
        }
        batch
    }

    fn n(&self) -> usize {
        self.total_n
    }

    fn d(&self) -> usize {
        self.d
    }

    fn subspace_count(&self) -> usize {
        self.subspaces.load(Ordering::Relaxed)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl Router {
    /// The untraced scatter-gather body of
    /// [`RemoteEngine::score_rows`]: returns the batch plus each queried
    /// shard's wall-clock time (for the slow-fanout log).
    fn fan_out(
        &self,
        rows: &[Vec<f64>],
        ctx: Option<TraceContext>,
    ) -> (ScoredBatch, Vec<(usize, Duration)>) {
        // Local validation mirrors the in-process scoring path: those
        // errors are the client's fault and must not become 502s.
        let valid: Vec<Option<usize>> = {
            let mut next = 0usize;
            rows.iter()
                .map(|row| {
                    if row.iter().all(|v| v.is_finite()) {
                        let slot = next;
                        next += 1;
                        Some(slot)
                    } else {
                        None
                    }
                })
                .collect()
        };
        let finite_rows: Vec<Vec<f64>> = rows
            .iter()
            .filter(|row| row.iter().all(|v| v.is_finite()))
            .cloned()
            .collect();

        let healthy: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.shards[i].is_healthy())
            .collect();
        let fail_all = |msg: String| {
            self.failures.inc();
            ScoredBatch {
                results: rows
                    .iter()
                    .map(|_| Err(QueryError::Upstream(msg.clone())))
                    .collect(),
                partial: false,
                shard_nanos: Vec::new(),
            }
        };
        if healthy.is_empty() {
            return (fail_all("no healthy shards".into()), Vec::new());
        }
        if self.cfg.degraded == DegradedMode::Fail && healthy.len() < self.shards.len() {
            let down: Vec<String> = (0..self.shards.len())
                .filter(|i| !healthy.contains(i))
                .map(|i| i.to_string())
                .collect();
            return (
                fail_all(format!(
                    "shard(s) {} unhealthy and degraded mode is fail",
                    down.join(",")
                )),
                Vec::new(),
            );
        }

        // Scatter: one thread per healthy shard; each runs its own
        // hedged/retried race and comes back with per-row scores.
        let mut per_shard: Vec<(usize, Result<Vec<f64>, String>, Duration)> =
            if finite_rows.is_empty() {
                healthy
                    .iter()
                    .map(|&si| (si, Ok(Vec::new()), Duration::ZERO))
                    .collect()
            } else {
                let body = format_points_body(&finite_rows);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = healthy
                        .iter()
                        .map(|&si| {
                            let body = &body;
                            let handle = scope.spawn(move || {
                                let started = Instant::now();
                                let result = self.query_shard(si, body, ctx);
                                (result, started.elapsed())
                            });
                            (si, handle)
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|(si, h)| {
                            let (result, elapsed) = h.join().expect("shard query thread");
                            (si, result, elapsed)
                        })
                        .collect()
                })
            };
        // Fold order is shard order — sort by shard index, not finish
        // order, so Mean sums exactly like the in-process ensemble.
        per_shard.sort_by_key(|(si, _, _)| *si);
        let shard_elapsed: Vec<(usize, Duration)> =
            per_shard.iter().map(|(si, _, d)| (*si, *d)).collect();

        let mut answered: Vec<(usize, Vec<f64>)> = Vec::with_capacity(per_shard.len());
        let mut last_err = String::new();
        for (si, result, _) in per_shard {
            match result {
                Ok(scores) if scores.len() == finite_rows.len() => answered.push((si, scores)),
                Ok(scores) => {
                    last_err = format!(
                        "shard {si}: answered {} scores for {} rows",
                        scores.len(),
                        finite_rows.len()
                    )
                }
                Err(e) => last_err = e,
            }
        }
        if answered.is_empty() && !finite_rows.is_empty() {
            return (fail_all(last_err), shard_elapsed);
        }
        let degraded = answered.len() < self.shards.len();
        if degraded && self.cfg.degraded == DegradedMode::Fail {
            return (fail_all(last_err), shard_elapsed);
        }
        if degraded {
            self.partials.inc();
        }

        let results = valid
            .iter()
            .zip(rows)
            .map(|(slot, row)| match slot {
                None => {
                    let column = row.iter().position(|v| !v.is_finite()).unwrap_or(0);
                    Err(QueryError::NonFinite { column })
                }
                Some(slot) => {
                    let mut fold = Fold::new(self.aggregation.into());
                    for (_, scores) in &answered {
                        fold.push(scores[*slot]);
                    }
                    Ok(fold.finish())
                }
            })
            .collect();
        (
            ScoredBatch {
                results,
                partial: degraded,
                shard_nanos: Vec::new(),
            },
            shard_elapsed,
        )
    }

    /// One stderr line per slow fan-out: the total, each shard's
    /// wall-clock time and the trace id cross-referencing `/trace/<id>`
    /// (slow fan-outs ride slow requests, which are always retained).
    fn log_slow_fanout(
        &self,
        total: Duration,
        shards: &[(usize, Duration)],
        partial: bool,
        trace_id: Option<u64>,
    ) {
        match self.log_format {
            LogFormat::Json => {
                let mut out = String::with_capacity(160);
                out.push_str("{\"event\":\"slow_fanout\"");
                if let Some(id) = trace_id {
                    out.push_str(",\"trace_id\":\"");
                    out.push_str(&trace::format_id(id));
                    out.push('"');
                }
                out.push_str(&format!(",\"total_us\":{}", total.as_micros()));
                out.push_str(",\"shards_us\":{");
                for (i, (si, d)) in shards.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{si}\":{}", d.as_micros()));
                }
                out.push_str(&format!("}},\"partial\":{partial}}}"));
                eprintln!("{out}");
            }
            LogFormat::Text => {
                let shards: Vec<String> = shards
                    .iter()
                    .map(|(si, d)| format!("shard{si}={}us", d.as_micros()))
                    .collect();
                let trace = trace_id
                    .map(|id| format!(" trace={}", trace::format_id(id)))
                    .unwrap_or_default();
                eprintln!(
                    "slow fanout:{trace} total={}us partial={partial} {}",
                    total.as_micros(),
                    shards.join(" ")
                );
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::manifest::{PartitionKind, ShardEntry};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    fn manifest(shards: usize) -> ShardManifest {
        ShardManifest {
            total_n: 100,
            d: 2,
            aggregation: ShardAggregation::Mean,
            partition: PartitionKind::Contiguous,
            shards: (0..shards)
                .map(|i| ShardEntry {
                    file: format!("s{i}.hics"),
                    n: 50,
                })
                .collect(),
        }
    }

    /// A fake shard backend answering every `/score` row with a constant
    /// and `/model` probes with a valid shape. Runs until dropped.
    struct FakeBackend {
        addr: String,
        stop: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl FakeBackend {
        fn start(score: f64, delay: Duration) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = Arc::clone(&stop);
            // Non-blocking accept loop so drop() can stop the thread.
            listener.set_nonblocking(true).unwrap();
            let handle = std::thread::spawn(move || {
                let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let stop3 = Arc::clone(&stop2);
                            conns.push(std::thread::spawn(move || {
                                let _ = Self::serve_conn(stream, score, delay, &stop3);
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for c in conns {
                    let _ = c.join();
                }
            });
            Self {
                addr,
                stop,
                handle: Some(handle),
            }
        }

        fn serve_conn(
            stream: std::net::TcpStream,
            score: f64,
            delay: Duration,
            stop: &AtomicBool,
        ) -> std::io::Result<()> {
            stream.set_read_timeout(Some(Duration::from_millis(50)))?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut stream = stream;
            loop {
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                let mut len = 0usize;
                let mut line = String::new();
                let path = match reader.read_line(&mut line) {
                    Ok(0) => return Ok(()),
                    Ok(_) => line.split(' ').nth(1).unwrap_or("").to_string(),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) => return Err(e),
                };
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line)? == 0 {
                        return Ok(());
                    }
                    if let Some(v) = line
                        .to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::trim)
                    {
                        len = v.parse().unwrap_or(0);
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body)?;
                let reply = if path.starts_with("/model") {
                    "{\"objects\":50,\"attributes\":2,\"subspaces\":3,\"shards\":1}".to_string()
                } else {
                    std::thread::sleep(delay);
                    let rows = String::from_utf8_lossy(&body).matches('[').count() - 1;
                    let mut out = String::from("{\"scores\":[");
                    for i in 0..rows.max(1) {
                        if i > 0 {
                            out.push(',');
                        }
                        hics_serve::json::write_f64(&mut out, score);
                    }
                    out.push_str("]}");
                    out
                };
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                    reply.len(),
                    reply
                )?;
            }
        }
    }

    impl Drop for FakeBackend {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    fn router_over(backends: &[&FakeBackend], cfg: RouterConfig) -> (Arc<Router>, Arc<Registry>) {
        let table = RouteTable::parse(
            &backends
                .iter()
                .map(|b| b.addr.clone())
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let registry = Arc::new(Registry::new());
        let router = Router::new(&manifest(backends.len()), &table, cfg, &registry).unwrap();
        (Arc::new(router), registry)
    }

    #[test]
    fn folds_mean_over_shards_in_shard_order() {
        let b0 = FakeBackend::start(1.0, Duration::ZERO);
        let b1 = FakeBackend::start(4.0, Duration::ZERO);
        let (router, _) = router_over(&[&b0, &b1], RouterConfig::default());
        let batch = router.score_rows(&[vec![0.1, 0.2], vec![0.3, 0.4]]);
        assert!(!batch.partial);
        let scores: Vec<f64> = batch.results.iter().map(|r| *r.as_ref().unwrap()).collect();
        assert_eq!(scores, vec![2.5, 2.5]);
    }

    #[test]
    fn non_finite_rows_fail_locally_like_the_in_process_engine() {
        let b0 = FakeBackend::start(1.0, Duration::ZERO);
        let (router, _) = router_over(&[&b0], RouterConfig::default());
        let batch = router.score_rows(&[vec![0.1, f64::NAN], vec![0.5, 0.6]]);
        assert_eq!(
            batch.results[0],
            Err(QueryError::NonFinite { column: 1 }),
            "client error, not a 502"
        );
        assert_eq!(batch.results[1], Ok(1.0));
    }

    #[test]
    fn partial_mode_folds_survivors_and_flags_the_batch() {
        let b0 = FakeBackend::start(2.0, Duration::ZERO);
        let b1 = FakeBackend::start(8.0, Duration::ZERO);
        let cfg = RouterConfig {
            request_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        };
        let (router, registry) = router_over(&[&b0, &b1], cfg);
        // Evict shard 1 by hand (as the health checker would).
        router.shards[1].replicas[0]
            .healthy
            .store(false, Ordering::Relaxed);
        let batch = router.score_rows(&[vec![0.1, 0.2]]);
        assert!(batch.partial, "degraded fold must be flagged");
        assert_eq!(batch.results[0], Ok(2.0), "fold over survivors only");
        let text = registry.render_prometheus();
        assert!(text.contains("hics_route_partial_total 1"), "{text}");
    }

    #[test]
    fn fail_mode_errors_instead_of_degrading() {
        let b0 = FakeBackend::start(2.0, Duration::ZERO);
        let b1 = FakeBackend::start(8.0, Duration::ZERO);
        let cfg = RouterConfig {
            degraded: DegradedMode::Fail,
            ..RouterConfig::default()
        };
        let (router, _) = router_over(&[&b0, &b1], cfg);
        router.shards[0].replicas[0]
            .healthy
            .store(false, Ordering::Relaxed);
        let batch = router.score_rows(&[vec![0.1, 0.2]]);
        assert!(!batch.partial);
        match &batch.results[0] {
            Err(QueryError::Upstream(msg)) => {
                assert!(msg.contains("degraded mode is fail"), "{msg}")
            }
            other => panic!("expected upstream error, got {other:?}"),
        }
    }

    #[test]
    fn health_sweeps_evict_and_readmit_on_streaks() {
        let b0 = FakeBackend::start(1.0, Duration::ZERO);
        let cfg = RouterConfig {
            evict_after: 2,
            readmit_after: 2,
            ..RouterConfig::default()
        };
        // Route to a dead port for shard 0's only replica.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
            // listener dropped: the port refuses connections
        };
        let table = RouteTable::parse(&format!("{dead}\n{}\n", b0.addr)).unwrap();
        let registry = Registry::new();
        let router = Router::new(&manifest(2), &table, cfg, &registry).unwrap();
        assert!(router.shards[0].is_healthy(), "replicas start optimistic");
        router.probe_all();
        assert!(
            router.shards[0].is_healthy(),
            "one failure is below the eviction threshold"
        );
        router.probe_all();
        assert!(!router.shards[0].is_healthy(), "evicted after 2 failures");
        assert!(router.shards[1].is_healthy(), "live backend stays in");
        assert_eq!(router.subspace_count(), 0, "unprobed shard blocks the sum");
        // The /route body reflects the eviction.
        let body = router.route_body();
        assert!(body.contains("\"healthy_shards\":1"), "{body}");
        assert!(body.contains("\"consecutive_failures\":2"), "{body}");
    }

    #[test]
    fn probes_learn_the_ensemble_subspace_total() {
        let b0 = FakeBackend::start(1.0, Duration::ZERO);
        let b1 = FakeBackend::start(2.0, Duration::ZERO);
        let (router, _) = router_over(&[&b0, &b1], RouterConfig::default());
        assert_eq!(router.subspace_count(), 0, "unknown until probed");
        router.probe_all();
        assert_eq!(router.subspace_count(), 6, "3 per fake backend");
    }

    #[test]
    fn hedging_recovers_from_a_slow_replica() {
        // Replica 0 stalls 300ms per score; replica 1 answers immediately.
        let slow = FakeBackend::start(5.0, Duration::from_millis(300));
        let fast = FakeBackend::start(5.0, Duration::ZERO);
        let cfg = RouterConfig {
            hedge_after: Duration::from_millis(20),
            request_timeout: Duration::from_secs(2),
            ..RouterConfig::default()
        };
        let table = RouteTable::parse(&format!("{}|{}\n", slow.addr, fast.addr)).unwrap();
        let registry = Registry::new();
        let router = Router::new(&manifest(1), &table, cfg, &registry).unwrap();
        let started = Instant::now();
        let batch = router.score_rows(&[vec![0.1, 0.2]]);
        let elapsed = started.elapsed();
        assert_eq!(batch.results[0], Ok(5.0));
        assert!(
            elapsed < Duration::from_millis(250),
            "hedge must beat the 300ms straggler, took {elapsed:?}"
        );
        assert_eq!(router.shards[0].hedges.get(), 1);
        assert_eq!(router.shards[0].hedge_wins.get(), 1);
    }

    #[test]
    fn retries_fail_over_to_the_next_replica() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let live = FakeBackend::start(7.0, Duration::ZERO);
        let cfg = RouterConfig {
            retries: 1,
            ..RouterConfig::default()
        };
        let table = RouteTable::parse(&format!("{dead}|{}\n", live.addr)).unwrap();
        let registry = Registry::new();
        let router = Router::new(&manifest(1), &table, cfg, &registry).unwrap();
        let batch = router.score_rows(&[vec![0.1, 0.2]]);
        assert_eq!(batch.results[0], Ok(7.0), "second replica answers");
        assert_eq!(router.shards[0].retries.get(), 1);
    }
}
