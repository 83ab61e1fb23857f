//! In-memory spans recorded by the benchmark around its calls into the
//! repository's crates (no program code is instrumented). Spans are kept
//! in memory during the run and written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: name, interval (nanoseconds since the trace epoch),
/// the span that caused it and the request every span of one request
/// shares.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals: calls, summed duration and summed self time (the
/// duration minus the part its child spans cover), in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span store");
        spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span store")[id].end = now;
    }

    /// Records an already finished interval.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span store");
        spans.push(span);
        spans.len() - 1
    }

    /// Self times by span name. Children of one span never overlap here
    /// (each is a sequential call on the parent's thread), so a span's
    /// self time is its duration minus its children's summed durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span store");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store");
        let mut out = String::with_capacity(spans.len() * 96);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span when tracing is on.
pub fn span<T>(
    trace: Option<&Trace>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        None => f(),
        Some(t) => {
            let id = t.open(name, parent, request);
            let out = f();
            t.close(id);
            out
        }
    }
}
