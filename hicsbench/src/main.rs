//! `hicsbench` — the repository benchmark.
//!
//! ```text
//! hicsbench --workload <fit|serve|route> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks the
//! outputs, prints a human-readable report on stderr and, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). `BENCHMARK.md` beside this crate defines
//! every metric and workload.

mod data;
mod fit;
mod fleet;
mod load;
mod procfs;
mod prom;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str =
    "usage: hicsbench --workload <fit|serve|route> --seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics `BENCHMARK.json` gates. The query-path figures
/// (`p50_ms`, `pts_per_s`, `cpu_us_per_pt`) are printed on every run but
/// reported as `query.*` per-layer metrics: on a shared 2-vCPU VM their
/// run-to-run spread exceeds the largest bound the format allows.
const GATED: &[&str] = &["setup_s", "fit_s", "auc", "peak_rss_mb"];

/// Per-layer metrics in report order, with units. Layers a workload does
/// not run report 0.
const LAYERS: &[(&str, &str)] = &[
    ("store.import_s", "s"),
    ("core.search_s", "s"),
    ("core.contrast_evals", "count"),
    ("core.slice_draws", "count"),
    ("core.contrast_eval_us", "us"),
    ("outlier.index_s", "s"),
    ("data.save_s", "s"),
    ("outlier.precompute_s", "s"),
    ("fit.unattributed_s", "s"),
    ("outlier.open_s", "s"),
    ("outlier.score_ms", "ms"),
    ("serve.front_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_score_ms", "ms"),
    ("serve.stage.head_parse_ms", "ms"),
    ("serve.stage.body_ms", "ms"),
    ("serve.stage.enqueue_ms", "ms"),
    ("serve.stage.score_ms", "ms"),
    ("serve.stage.flush_ms", "ms"),
    ("serve.batch_rows", "count"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.wakeups_per_req", "count"),
    ("serve.bytes_per_req", "B"),
    ("serve.json_parse_us", "us"),
    ("query.p50_ms", "ms"),
    ("query.p99_ms", "ms"),
    ("query.pts_per_s", "pts/s"),
    ("query.cpu_us_per_pt", "us"),
    ("route.p50_ms", "ms"),
    ("route.p99_ms", "ms"),
    ("route.pts_per_s", "pts/s"),
    ("route.direct_ms", "ms"),
    ("route.score_rows_ms", "ms"),
    ("route.fanout_ms", "ms"),
    ("route.front_ms", "ms"),
    ("route.upstream_ms", "ms"),
    ("route.hedges_per_req", "ratio"),
    ("route.hedge_win_ratio", "ratio"),
    ("route.retries", "count"),
    ("route.threads_max", "count"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !["fit", "serve", "route"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a workload reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    /// The same end-to-end metrics measured on the traced window.
    pub traced_e2e: Option<Vec<Metric>>,
    /// Per-layer values by name; units and order come from `LAYERS`.
    pub layers: Vec<(&'static str, f64)>,
    /// Lines showing how layer numbers add up to end-to-end ones.
    pub reconcile: Vec<String>,
    pub trace: Option<Arc<trace::Trace>>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Self {
        Self {
            correct,
            attempted,
            failed,
            e2e: Vec::new(),
            traced_e2e: None,
            layers: Vec::new(),
            reconcile: Vec::new(),
            trace: None,
            notes: Vec::new(),
        }
    }
}

/// Median (mean of the middle two for an even count). Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The latency/throughput summary of one measured window. Throughput,
/// CPU cost and the median latency are medians over the window's
/// sub-windows, so a transient stall of the machine moves one sub-window,
/// not the result; the tail percentile needs every sample of the window.
#[derive(Debug, Clone)]
pub struct Window {
    pub p50_ms: f64,
    /// The highest of p99.9 / p99 / p95 / p90 / p50 of the whole window
    /// with at least ten samples beyond it, and that percentile.
    pub tail_ms: f64,
    pub tail_p: f64,
    pub samples: usize,
    pub pts_per_s: f64,
    pub cpu_us_per_pt: f64,
    pub threads_max: u64,
    /// Per-sub-window values behind the medians, for the report.
    pub subwindows: Vec<(&'static str, Vec<f64>)>,
}

/// Nearest rank: the smallest sample with at least `p`% at or below it,
/// in ms. `sorted` holds nanoseconds.
fn percentile_ms(sorted: &[u64], p: f64) -> f64 {
    let n = sorted.len();
    sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1] as f64 * 1e-6
}

impl Window {
    /// Summarises latencies (in answer order) over sub-windows, each given
    /// by the marks at its start and end.
    pub fn new(lat_ns: &[u64], subs: &[(load::Mark, load::Mark)], threads_max: u64) -> Self {
        let subs: Vec<&(load::Mark, load::Mark)> = subs
            .iter()
            .filter(|(a, b)| b.answered > a.answered)
            .collect();
        assert!(!subs.is_empty(), "no request was answered");
        let mut subwindows = Vec::new();
        let mut per = |name: &'static str, f: &dyn Fn(&load::Mark, &load::Mark) -> f64| -> f64 {
            let v: Vec<f64> = subs.iter().map(|(a, b)| f(a, b)).collect();
            let m = median(&mut v.clone());
            subwindows.push((name, v));
            m
        };
        let p50_ms = per("p50_ms", &|a, b| {
            let mut lat = lat_ns[a.answered..b.answered].to_vec();
            lat.sort_unstable();
            percentile_ms(&lat, 50.0)
        });
        let pts_per_s = per("pts_per_s", &|a, b| {
            (b.points - a.points) as f64 / (b.at_s - a.at_s)
        });
        let cpu_us_per_pt = per("cpu_us_per_pt", &|a, b| {
            (b.cpu_s - a.cpu_s) * 1e6 / (b.points - a.points).max(1) as f64
        });
        let mut all = lat_ns.to_vec();
        all.sort_unstable();
        let samples = all.len();
        let tail_p = [99.9, 99.0, 95.0, 90.0, 50.0]
            .into_iter()
            .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Self {
            p50_ms,
            tail_ms: percentile_ms(&all, tail_p),
            tail_p,
            samples,
            pts_per_s,
            cpu_us_per_pt,
            threads_max,
            subwindows,
        }
    }

    /// The end-to-end metrics, in report order.
    pub fn e2e(&self, setup_s: f64, fit_s: f64, auc: f64) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("fit_s", fit_s, "s"),
            Metric::new("auc", auc, "%"),
            Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
            Metric::new("p50_ms", self.p50_ms, "ms"),
            Metric::new("pts_per_s", self.pts_per_s, "pts/s"),
            Metric::new("cpu_us_per_pt", self.cpu_us_per_pt, "us"),
        ]
    }

    /// The window's query-path figures as per-layer metrics.
    pub fn query_layers(&self) -> [(&'static str, f64); 4] {
        [
            ("query.p50_ms", self.p50_ms),
            ("query.p99_ms", self.tail_ms),
            ("query.pts_per_s", self.pts_per_s),
            ("query.cpu_us_per_pt", self.cpu_us_per_pt),
        ]
    }

    pub fn notes(&self) -> Vec<String> {
        let mut out = vec![format!(
            "p99_ms is p{} of {} samples ({} beyond it)",
            self.tail_p,
            self.samples,
            (self.samples as f64 * (1.0 - self.tail_p / 100.0)).floor()
        )];
        for (name, v) in &self.subwindows {
            out.push(format!("{name} by sub-window: {v:.4?}"));
        }
        out
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn gate(m: &Metric) -> &'static str {
    if GATED.contains(&m.name) {
        ""
    } else {
        " (ungated)"
    }
}

fn report(args: &Args, o: &Outcome, layers: &[Metric]) {
    eprintln!(
        "== {} seed {} ({} s): attempted {} succeeded {} failed {} correct {}",
        args.workload,
        args.seed,
        args.seconds,
        o.attempted,
        o.attempted - o.failed,
        o.failed,
        o.correct
    );
    for n in &o.notes {
        eprintln!("   {n}");
    }
    match &o.traced_e2e {
        None => {
            for m in &o.e2e {
                eprintln!("   {:<14} {:>14.4} {}{}", m.name, m.value, m.unit, gate(m));
            }
        }
        Some(traced) => {
            eprintln!(
                "   {:<14} {:>14} {:>14}",
                "end-to-end", "untraced", "traced"
            );
            for (m, t) in o.e2e.iter().zip(traced) {
                eprintln!(
                    "   {:<14} {:>14.4} {:>14.4} {}{}",
                    m.name,
                    m.value,
                    t.value,
                    m.unit,
                    gate(m)
                );
            }
        }
    }
    if args.trace {
        eprintln!("   -- per layer");
        for m in layers {
            eprintln!("   {:<26} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for r in &o.reconcile {
            eprintln!("   adds up: {r}");
        }
        if let Some(t) = &o.trace {
            eprintln!("   -- spans: name, calls, total ms, self ms");
            for (name, st) in t.self_times() {
                eprintln!(
                    "   {:<26} {:>8} {:>12.3} {:>12.3}",
                    name,
                    st.count,
                    st.total_ns as f64 * 1e-6,
                    st.self_ns as f64 * 1e-6
                );
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hicsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work =
        WorkDir(Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work.0).expect("create work directory");
    let mut outcome = match args.workload.as_str() {
        "fit" => fit::run(&args, &work.0),
        "serve" => fleet::run(&args, &work.0, fleet::Kind::Serve),
        _ => fleet::run(&args, &work.0, fleet::Kind::Route),
    };
    if let Some(traced) = &outcome.traced_e2e {
        let headline = if args.workload == "fit" {
            "fit_s"
        } else {
            "p50_ms"
        };
        let pick = |v: &[Metric]| v.iter().find(|m| m.name == headline).map(|m| m.value);
        if let (Some(a), Some(b)) = (pick(&outcome.e2e), pick(traced)) {
            outcome
                .layers
                .push(("trace.overhead_pct", (b - a) / a * 100.0));
        }
    }
    for (name, _) in &outcome.layers {
        assert!(
            LAYERS.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not listed in LAYERS"
        );
    }
    // Every per-layer metric is reported, 0 where the workload does not
    // run that layer.
    let layers: Vec<Metric> = LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            Metric::new(name, value, unit)
        })
        .collect();
    if let Some(t) = &outcome.trace {
        let path = Path::new(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => eprintln!("   spans written to {}", path.display()),
            Err(e) => eprintln!("   writing spans failed: {e}"),
        }
    }
    report(&args, &outcome, &layers);
    let gated: Vec<Metric> = outcome
        .e2e
        .iter()
        .filter(|m| GATED.contains(&m.name))
        .cloned()
        .collect();
    let metrics = if args.trace { &layers } else { &gated };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(metrics)
    );
    drop(work);
    if !outcome.correct {
        std::process::exit(1);
    }
}
