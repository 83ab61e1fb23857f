//! The server's shared instrument registry.
//!
//! One [`ServeMetrics`] per [`crate::server::Server`] owns the
//! [`Registry`] every subsystem records into: the batcher's counters and
//! size/latency histograms and per-shard scoring instruments, the stream
//! and connection counters, per-stage request latency, per-reactor I/O
//! counters, the fit-pipeline counter family and the process's own
//! resources (`hics_process_*`, read from procfs when `/metrics` is
//! scraped). `/stats` and `/metrics` are two renderings of this one
//! registry — there is no other bookkeeping.

use crate::server::{LogFormat, ServeConfig};
use hics_obs::{Counter, Gauge, Histogram, ProcessSample, Registry, Timeline, STAGES, STAGE_COUNT};
use std::sync::Arc;

/// Latency histograms resolve nanoseconds up to ~68 s with `2^-5`
/// relative error (~9 KB per histogram).
const LATENCY_SUB_BITS: u32 = 5;
const LATENCY_MAX_NS: u64 = 1 << 36;
const NANOS_TO_SECONDS: f64 = 1e-9;

/// Content type of the Prometheus text exposition format.
pub(crate) const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The content type a `dispatch` response body carries on the wire:
/// everything is JSON except a successful `/metrics` scrape.
pub(crate) fn content_type_for(path: &str, status: u16) -> &'static str {
    if status == 200 && path == "/metrics" {
        METRICS_CONTENT_TYPE
    } else {
        "application/json"
    }
}

/// Registry-backed instruments shared by every part of one server.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    /// The single source of truth behind `/stats` and `/metrics`.
    pub(crate) registry: Arc<Registry>,
    /// Per-stage request latency, indexed by `Stage as usize`.
    pub(crate) stage: [Arc<Histogram>; STAGE_COUNT],
    /// Whole-request latency (first byte to response flushed).
    pub(crate) request_seconds: Arc<Histogram>,
    /// Writes paused because a connection hit the output high-water mark.
    pub(crate) backpressure_stalls: Arc<Counter>,
    /// The process's own resources ([`PROCESS_GAUGES`]), set at each
    /// scrape.
    process: Vec<(Arc<Gauge>, ProcessReading)>,
}

/// The field of a [`ProcessSample`] one `hics_process_*` gauge shows.
type ProcessReading = fn(&ProcessSample) -> u64;

/// The `hics_process_*` gauges, each with the reading it shows.
/// [`ServeMetrics::scrape`] sets them all from one sample: no thread
/// samples them in the background.
const PROCESS_GAUGES: [(&str, &str, ProcessReading); 5] = [
    ("hics_process_threads", "Live threads of this process.", |p| p.threads),
    (
        "hics_process_resident_anon_bytes",
        "Resident anonymous memory (RssAnon): heap and stacks.",
        |p| p.rss_anon_bytes,
    ),
    (
        "hics_process_resident_file_bytes",
        "Resident file-backed memory (RssFile): the pages of mapped artifacts and stores that queries have read.",
        |p| p.rss_file_bytes,
    ),
    (
        "hics_process_peak_resident_bytes",
        "Peak resident set size so far (VmHWM).",
        |p| p.vm_hwm_bytes,
    ),
    (
        "hics_process_open_fds",
        "Open file descriptors.",
        |p| p.open_fds,
    ),
];

/// Per-reactor I/O counters (labeled `reactor="<id>"`).
#[derive(Debug)]
pub(crate) struct ReactorMetrics {
    /// `epoll_wait` returns.
    pub(crate) wakeups: Arc<Counter>,
    /// Batch completions delivered through the eventfd notifier.
    pub(crate) completions: Arc<Counter>,
    /// Bytes read off sockets.
    pub(crate) bytes_in: Arc<Counter>,
    /// Bytes flushed to sockets.
    pub(crate) bytes_out: Arc<Counter>,
}

impl ServeMetrics {
    /// A self-contained instrument set over a private registry (tests).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Builds the server instruments inside a caller-owned registry, so an
    /// embedder (e.g. the scatter-gather router) can surface its own
    /// instrument families on the same `/metrics` scrape.
    pub(crate) fn with_registry(registry: Arc<Registry>) -> Self {
        let stage = STAGES.map(|(_, name)| {
            registry.histogram_with(
                "hics_request_stage_seconds",
                "Request latency per lifecycle stage.",
                vec![("stage", name.to_string())],
                LATENCY_SUB_BITS,
                LATENCY_MAX_NS,
                NANOS_TO_SECONDS,
            )
        });
        let request_seconds = registry.histogram(
            "hics_request_seconds",
            "Whole-request latency, first byte to flushed response.",
            LATENCY_SUB_BITS,
            LATENCY_MAX_NS,
            NANOS_TO_SECONDS,
        );
        let backpressure_stalls = registry.counter(
            "hics_backpressure_stalls_total",
            "Connections paused at the output high-water mark.",
        );
        // Fleet bookkeeping: which build answers this scrape, and since
        // when. The router registers its own `crate` label variant, so a
        // routed tier's scrape names both crates.
        registry
            .gauge_with(
                "hics_build_info",
                "Build metadata; the value is always 1.",
                vec![
                    ("version", env!("CARGO_PKG_VERSION").to_string()),
                    ("crate", "hics-serve".to_string()),
                ],
            )
            .set(1);
        registry
            .gauge(
                "hics_process_start_seconds",
                "Unix time this process registered its instruments.",
            )
            .set(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs() as i64)
                    .unwrap_or(0),
            );
        // The fit counter family is registered (zero-valued while purely
        // serving) so one scrape config covers fits driven in-process.
        let _ = hics_core::FitMetrics::register(&registry);
        let process = PROCESS_GAUGES
            .iter()
            .map(|&(name, help, read)| (registry.gauge(name, help), read))
            .collect();
        Self {
            registry,
            stage,
            request_seconds,
            backpressure_stalls,
            process,
        }
    }

    /// The `/metrics` body: the process gauges read now, then the whole
    /// registry in Prometheus text.
    pub(crate) fn scrape(&self) -> String {
        // Off Linux there is no reading, and the gauges stay 0.
        if let Some(now) = ProcessSample::read() {
            for (gauge, read) in &self.process {
                gauge.set(i64::try_from(read(&now)).unwrap_or(i64::MAX));
            }
        }
        self.registry.render_prometheus()
    }

    /// The labeled counter set for reactor `id` (0 = the thread that
    /// called [`crate::Server::run`]).
    pub(crate) fn reactor(&self, id: usize) -> Arc<ReactorMetrics> {
        let labels = || vec![("reactor", id.to_string())];
        Arc::new(ReactorMetrics {
            wakeups: self.registry.counter_with(
                "hics_reactor_wakeups_total",
                "epoll_wait returns per reactor.",
                labels(),
            ),
            completions: self.registry.counter_with(
                "hics_reactor_completions_total",
                "Batch completions delivered via eventfd per reactor.",
                labels(),
            ),
            bytes_in: self.registry.counter_with(
                "hics_reactor_bytes_in_total",
                "Bytes read off sockets per reactor.",
                labels(),
            ),
            bytes_out: self.registry.counter_with(
                "hics_reactor_bytes_out_total",
                "Bytes flushed to sockets per reactor.",
                labels(),
            ),
        })
    }

    /// Folds one finished request timeline into the stage histograms and,
    /// when it crosses the configured slow-query threshold, logs the full
    /// stage breakdown to stderr. Resets the timeline for keep-alive reuse.
    pub(crate) fn observe_request(
        &self,
        config: &ServeConfig,
        path: &str,
        timeline: &mut Timeline,
        trace_id: Option<u64>,
    ) {
        if !timeline.is_started() {
            return;
        }
        for (stage, _) in STAGES {
            if let Some(ns) = timeline.stage_ns(stage) {
                self.stage[stage as usize].record(ns);
            }
        }
        let total_ns = timeline.total_ns();
        self.request_seconds.record(total_ns);
        if let Some(threshold) = config.slow_query {
            if u128::from(total_ns) >= threshold.as_nanos() {
                log_slow_query(config.log_format, path, timeline, total_ns, trace_id);
            }
        }
        timeline.reset();
    }
}

/// One stderr line per slow request, with the full stage timeline. The
/// trace id (when tracing is on) cross-references the log line with
/// `GET /trace/<id>` — slow requests are always retained there.
fn log_slow_query(
    format: LogFormat,
    path: &str,
    timeline: &Timeline,
    total_ns: u64,
    trace_id: Option<u64>,
) {
    match format {
        LogFormat::Json => {
            let mut out = String::with_capacity(192);
            out.push_str("{\"event\":\"slow_query\",\"path\":");
            crate::json::escape_string(&mut out, path);
            if let Some(id) = trace_id {
                out.push_str(",\"trace_id\":\"");
                out.push_str(&hics_obs::trace::format_id(id));
                out.push('"');
            }
            out.push_str(&format!(",\"total_us\":{}", total_ns / 1_000));
            out.push_str(",\"stages_us\":{");
            let mut first = true;
            for (stage, name) in STAGES {
                if let Some(ns) = timeline.stage_ns(stage) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("\"{name}\":{}", ns / 1_000));
                }
            }
            out.push_str("}}");
            eprintln!("{out}");
        }
        LogFormat::Text => {
            let stages: Vec<String> = STAGES
                .iter()
                .filter_map(|&(stage, name)| {
                    timeline
                        .stage_ns(stage)
                        .map(|ns| format!("{name}={}us", ns / 1_000))
                })
                .collect();
            let trace = trace_id
                .map(|id| format!(" trace={}", hics_obs::trace::format_id(id)))
                .unwrap_or_default();
            eprintln!(
                "slow query {path}:{trace} total={}us {}",
                total_ns / 1_000,
                stages.join(" ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_obs::Stage;
    use std::time::Duration;

    #[test]
    fn observe_request_records_marked_stages_and_resets() {
        let m = ServeMetrics::new();
        let config = ServeConfig::default();
        let mut t = Timeline::new();
        t.start();
        t.mark(Stage::HeadParse);
        t.mark(Stage::Body);
        t.mark(Stage::Flush);
        m.observe_request(&config, "/score", &mut t, None);
        assert!(!t.is_started(), "timeline reset for keep-alive reuse");
        assert_eq!(m.request_seconds.count(), 1);
        assert_eq!(m.stage[Stage::HeadParse as usize].count(), 1);
        assert_eq!(m.stage[Stage::Body as usize].count(), 1);
        assert_eq!(m.stage[Stage::Enqueue as usize].count(), 0, "unmarked");
        assert_eq!(m.stage[Stage::Flush as usize].count(), 1);
        // Unstarted timelines (e.g. instrumentation off) are ignored.
        m.observe_request(&config, "/score", &mut t, None);
        assert_eq!(m.request_seconds.count(), 1);
    }

    #[test]
    fn slow_query_threshold_gates_on_total() {
        let m = ServeMetrics::new();
        let config = ServeConfig {
            slow_query: Some(Duration::from_secs(3600)),
            ..ServeConfig::default()
        };
        let mut t = Timeline::new();
        t.start();
        t.mark(Stage::Flush);
        // Far below threshold: must not log (nothing observable here beyond
        // not panicking) but still records.
        m.observe_request(&config, "/healthz", &mut t, None);
        assert_eq!(m.request_seconds.count(), 1);
    }

    #[test]
    fn reactor_counters_are_labeled_per_reactor() {
        let m = ServeMetrics::new();
        let r0 = m.reactor(0);
        let r1 = m.reactor(1);
        r0.bytes_in.add(10);
        r1.bytes_in.add(20);
        let text = m.registry.render_prometheus();
        assert!(
            text.contains("hics_reactor_bytes_in_total{reactor=\"0\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("hics_reactor_bytes_in_total{reactor=\"1\"} 20"),
            "{text}"
        );
    }

    #[test]
    fn metrics_content_type_only_for_successful_scrapes() {
        assert_eq!(content_type_for("/metrics", 200), METRICS_CONTENT_TYPE);
        assert_eq!(content_type_for("/metrics", 405), "application/json");
        assert_eq!(content_type_for("/stats", 200), "application/json");
    }
}
