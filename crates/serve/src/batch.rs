//! Cross-connection request batching.
//!
//! Connections do not score; they enqueue their rows on a shared
//! [`Batcher`] and are resolved through a completion callback (the blocking
//! [`Batcher::score`] wrapper layers a channel over it for synchronous
//! callers and tests). A small pool of batch workers drains the queue:
//! whatever jobs have accumulated while the previous batch was scoring are
//! coalesced — up to `max_batch` rows — and scored in one
//! [`hics_outlier::Engine::score_batch_partial`] call, which fans the rows
//! out over the engine's worker threads. Under load this amortises thread
//! fan-out and keeps all cores on one contiguous batch instead of
//! interleaving many tiny requests; when idle, a lone request is scored
//! immediately (workers sleep on a condvar, no polling).
//!
//! **Tail latency:** a worker that has claimed jobs may optionally linger
//! up to `max_wait` for more arrivals before scoring (deeper batches at a
//! bounded latency cost). The default `max_wait` of zero preserves the
//! score-immediately behaviour — a lone request is never held hostage by
//! batch formation.
//!
//! **Observability:** all counters live in [`BatchStats`] — registry-backed
//! [`hics_obs`] instruments, so `/stats` and `/metrics` read the same
//! atomics. Each batch records its size (exact below 512 rows, so the
//! legacy power-of-two `/stats` buckets re-bin exactly), how long its jobs
//! waited in the queue, and how long scoring itself took — the queue-wait
//! vs score-time split that tells a deployment whether `--batch-wait-us`
//! is buying depth or just adding latency. Those request-side families
//! count [`JobKind::Score`] jobs only; a [`JobKind::Stream`] job (the
//! lines of one `/v2/score` read) reports through the stream counters
//! instead. The worker also records each shard's scoring time and rows,
//! as the engine hands them back, and an in-process engine's index
//! queries — for every row of the batch, of either kind, into the
//! registry of the server that scored it: the batcher is the one place a
//! server calls its engine.
//!
//! Workers resolve the engine through a shared [`EngineHandle`] **once per
//! batch**, so a hot reload takes effect at the next batch boundary while
//! the batch in flight finishes consistently against the model it started
//! with.

use hics_obs::{Counter, Histogram, Registry, TraceContext};
use hics_outlier::{EngineHandle, QueryError, ScoredBatch};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The scores of one executed batch job plus whether a remote engine
/// served it degraded (folded over a partial shard set — see
/// [`hics_outlier::RemoteEngine`]). In-process engines never set
/// `partial`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchScores {
    /// One result per submitted row, in submission order.
    pub results: Vec<Result<f64, QueryError>>,
    /// True when the scores were folded over surviving shards only.
    pub partial: bool,
}

/// The result of one job: per-row scores, or `None` when the batcher shut
/// down before the job was scored.
pub type BatchReply = Option<BatchScores>;

/// Where a job's rows came from, which decides the request-side
/// instruments that count them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The rows of one `POST /score` request: counted by the requests,
    /// rows, batch and queue-wait families.
    Score,
    /// The lines of one `/v2/score` socket read: counted by the engine-side
    /// families (index queries, per-shard) only; the connection counts the
    /// lines it renders.
    Stream,
}

/// One enqueued scoring job: the rows of a single HTTP request (or stream
/// read) plus the completion invoked with its scores (exactly once,
/// possibly on a worker thread — or with `None` on shutdown).
struct Job {
    kind: JobKind,
    rows: Vec<Vec<f64>>,
    enqueued: Instant,
    reply: Box<dyn FnOnce(BatchReply) + Send>,
    /// The submitting request's trace context, so a remote engine's
    /// fan-out can parent its spans under the originating request even
    /// though scoring happens on a batch-worker thread.
    trace: Option<TraceContext>,
}

/// Upper bounds of the legacy `/stats` batch-size buckets (rows per
/// executed batch); the last bucket is open-ended.
const BATCH_SIZE_BUCKETS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Batch-size histograms keep every count below `2^8 = 256 … 511` exact,
/// so the legacy power-of-two `/stats` buckets re-bin without error.
const SIZE_SUB_BITS: u32 = 8;
const SIZE_MAX: u64 = 1 << 20;
/// Latency histograms resolve nanoseconds up to ~68 s at `2^-5` error.
const LATENCY_SUB_BITS: u32 = 5;
const LATENCY_MAX_NS: u64 = 1 << 36;
const NANOS_TO_SECONDS: f64 = 1e-9;

/// The batcher's instruments — [`hics_obs`] counters and histograms
/// registered into a server's shared registry so `/stats` and `/metrics`
/// read the same atomics ([`BatchStats::default`] registers them into a
/// private one).
#[derive(Debug)]
pub struct BatchStats {
    /// Scoring requests accepted.
    pub requests: Arc<Counter>,
    /// Query rows scored.
    pub rows: Arc<Counter>,
    /// Batches executed.
    pub batches: Arc<Counter>,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: Arc<Counter>,
    /// Nanoseconds each job waited in the queue before its batch started
    /// scoring — the cost side of the `--batch-wait-us` linger.
    pub queue_wait: Arc<Histogram>,
    /// Nanoseconds each batch spent inside `score_batch`.
    pub score_time: Arc<Histogram>,
    /// Rows per executed batch.
    pub batch_size: Arc<Histogram>,
    /// Neighbour-index point queries: one per subspace per row an
    /// in-process engine scored.
    pub index_queries: Arc<Counter>,
    /// Batches whose engine call panicked (their rows failed).
    pub panics: Arc<Counter>,
    /// The registry the per-shard families are created in on first use.
    registry: Arc<Registry>,
}

impl Default for BatchStats {
    /// The instruments over a private registry — for embedders that use
    /// [`Batcher::start`] directly.
    fn default() -> Self {
        Self::registered(&Arc::new(Registry::new()))
    }
}

impl BatchStats {
    /// Instruments registered into `registry` under the `hics_*` metric
    /// names, so one scrape sees them alongside the rest of the server.
    pub fn registered(registry: &Arc<Registry>) -> Self {
        Self {
            requests: registry.counter("hics_requests_total", "Scoring requests accepted."),
            rows: registry.counter("hics_rows_total", "Query rows scored."),
            batches: registry.counter("hics_batches_total", "Batches executed."),
            coalesced_batches: registry.counter(
                "hics_coalesced_batches_total",
                "Batches that coalesced more than one request.",
            ),
            queue_wait: registry.histogram(
                "hics_batch_queue_wait_seconds",
                "Time jobs wait in the batch queue before scoring starts.",
                LATENCY_SUB_BITS,
                LATENCY_MAX_NS,
                NANOS_TO_SECONDS,
            ),
            score_time: registry.histogram(
                "hics_batch_score_seconds",
                "Time each batch spends scoring.",
                LATENCY_SUB_BITS,
                LATENCY_MAX_NS,
                NANOS_TO_SECONDS,
            ),
            batch_size: registry.histogram(
                "hics_batch_size",
                "Rows per scored batch.",
                SIZE_SUB_BITS,
                SIZE_MAX,
                1.0,
            ),
            index_queries: registry.counter(
                "hics_index_queries_total",
                "Neighbour-index point queries (one per subspace per scored row).",
            ),
            panics: registry.counter_with(
                "hics_panics_total",
                "Panics contained, by the boundary that caught them.",
                vec![("site", "batch".to_string())],
            ),
            registry: Arc::clone(registry),
        }
    }

    /// Shard `shard` scored `rows` rows in `nanos` wall nanoseconds.
    fn shard_scored(&self, shard: usize, rows: usize, nanos: u64) {
        self.registry
            .histogram_with(
                "hics_shard_score_seconds",
                "Batch score latency per shard.",
                vec![("shard", shard.to_string())],
                LATENCY_SUB_BITS,
                LATENCY_MAX_NS,
                NANOS_TO_SECONDS,
            )
            .record(nanos);
        self.registry
            .counter_with(
                "hics_shard_rows_total",
                "Rows scored per shard.",
                vec![("shard", shard.to_string())],
            )
            .add(rows as u64);
    }

    /// A snapshot of the batch-size histogram in the legacy `/stats` shape
    /// (the power-of-two upper bounds 1, 2, 4, …, 256, plus the open-ended
    /// overflow bucket). Exact: the underlying histogram keeps one bucket
    /// per value below 512, so the power-of-two boundaries re-bin without
    /// error.
    pub fn batch_size_snapshot(&self) -> [u64; BATCH_SIZE_BUCKETS.len() + 1] {
        let snap = self.batch_size.snapshot();
        let mut out = [0u64; BATCH_SIZE_BUCKETS.len() + 1];
        let mut prev = 0u64;
        for (slot, &limit) in out.iter_mut().zip(BATCH_SIZE_BUCKETS.iter()) {
            let le = snap.count_le(limit);
            *slot = le - prev;
            prev = le;
        }
        out[BATCH_SIZE_BUCKETS.len()] = snap.count() - prev;
        out
    }
}

struct Shared {
    queue: Mutex<(VecDeque<Job>, bool)>, // (jobs, shutdown)
    ready: Condvar,
}

/// The shared scoring queue plus its worker pool.
pub struct Batcher {
    shared: Arc<Shared>,
    stats: Arc<BatchStats>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts `workers` batch workers scoring against the engine currently
    /// installed in `handle`, coalescing up to `max_batch` rows per batch
    /// and giving each batch `threads` scoring threads. Batches are scored
    /// the moment a worker is free (`max_wait` zero); see
    /// [`Batcher::start_with_stats`] to trade latency for depth.
    ///
    /// # Panics
    /// Panics if `workers`, `max_batch` or `threads` is zero.
    pub fn start(
        handle: Arc<EngineHandle>,
        workers: usize,
        max_batch: usize,
        threads: usize,
    ) -> Self {
        Self::start_with_stats(
            handle,
            workers,
            max_batch,
            threads,
            Duration::ZERO,
            Arc::new(BatchStats::default()),
        )
    }

    /// [`Batcher::start`] with a batch-formation deadline, recording into
    /// caller-provided instruments. A worker that claimed fewer than
    /// `max_batch` rows lingers up to `max_wait` for more arrivals before
    /// scoring; zero scores immediately. The server passes registry-backed
    /// [`BatchStats`] here so the batcher's counters appear on `/stats` and
    /// `/metrics`.
    ///
    /// # Panics
    /// Panics if `workers`, `max_batch` or `threads` is zero.
    pub fn start_with_stats(
        handle: Arc<EngineHandle>,
        workers: usize,
        max_batch: usize,
        threads: usize,
        max_wait: Duration,
        stats: Arc<BatchStats>,
    ) -> Self {
        assert!(workers >= 1, "need at least one batch worker");
        assert!(max_batch >= 1, "max batch must be at least 1");
        assert!(threads >= 1, "need at least one scoring thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let handle = Arc::clone(&handle);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    worker_loop(&shared, &handle, &stats, max_batch, threads, max_wait)
                })
            })
            .collect();
        Self {
            shared,
            stats,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues one job's rows without blocking; `reply` is invoked
    /// exactly once — with the scores when the batch executes (on a worker
    /// thread), or with `None` if the batcher shuts down first (immediately,
    /// on the caller's thread, when it is already down). `kind` picks the
    /// instruments the rows count in. `trace` is the request's trace
    /// context: a remote engine parents its fan-out spans under it.
    pub fn submit(
        &self,
        kind: JobKind,
        rows: Vec<Vec<f64>>,
        trace: Option<TraceContext>,
        reply: Box<dyn FnOnce(BatchReply) + Send>,
    ) {
        {
            let mut q = self.shared.queue.lock().expect("batcher lock");
            if !q.1 {
                q.0.push_back(Job {
                    kind,
                    rows,
                    enqueued: Instant::now(),
                    reply,
                    trace,
                });
                drop(q);
                self.shared.ready.notify_one();
                return;
            }
        }
        reply(None);
    }

    /// Enqueues one untraced `/score`-kind job and blocks until its scores
    /// are ready. Returns `None` if the batcher is shutting down.
    pub fn score(&self, rows: Vec<Vec<f64>>) -> BatchReply {
        let (tx, rx) = mpsc::channel();
        self.submit(
            JobKind::Score,
            rows,
            None,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        rx.recv().ok().flatten()
    }

    /// The batching counters.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Signals shutdown and joins the workers (idempotent). Queued jobs are
    /// completed with `None`, which unblocks any waiting connection.
    pub fn shutdown(&self) {
        let orphans: Vec<Job> = {
            let mut q = self.shared.queue.lock().expect("batcher lock");
            q.1 = true;
            q.0.drain(..).collect()
        };
        self.shared.ready.notify_all();
        for job in orphans {
            (job.reply)(None);
        }
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list")
            .drain(..)
            .collect();
        for h in handles {
            h.join().expect("batch worker panicked");
        }
    }
}

/// Moves whole jobs from the queue into `jobs` until the row budget is
/// reached (a single over-sized job still goes through alone — never split
/// replies). Returns the accumulated row count.
fn drain_jobs(
    queue: &mut VecDeque<Job>,
    jobs: &mut Vec<Job>,
    mut rows: usize,
    max_batch: usize,
) -> usize {
    while let Some(job) = queue.front() {
        if !jobs.is_empty() && rows + job.rows.len() > max_batch {
            break;
        }
        rows += job.rows.len();
        jobs.push(queue.pop_front().expect("non-empty front"));
        if rows >= max_batch {
            break;
        }
    }
    rows
}

/// One worker: sleep until jobs arrive, drain up to `max_batch` rows worth
/// (lingering up to `max_wait` for stragglers when under budget), score
/// them as a single contiguous batch against the currently installed
/// engine, distribute the replies.
fn worker_loop(
    shared: &Shared,
    handle: &EngineHandle,
    stats: &BatchStats,
    max_batch: usize,
    threads: usize,
    max_wait: Duration,
) {
    loop {
        let mut jobs: Vec<Job> = Vec::new();
        let shutdown = {
            let mut guard = shared.queue.lock().expect("batcher lock");
            loop {
                if guard.1 {
                    break;
                }
                if !guard.0.is_empty() {
                    break;
                }
                guard = shared.ready.wait(guard).expect("batcher lock");
            }
            let mut rows = drain_jobs(&mut guard.0, &mut jobs, 0, max_batch);
            if !guard.1 && max_wait > Duration::ZERO && rows < max_batch && !jobs.is_empty() {
                // Linger for stragglers: deeper batches at a bounded
                // latency cost. The deadline caps how long the first
                // claimed job can be delayed.
                let deadline = Instant::now() + max_wait;
                loop {
                    let now = Instant::now();
                    if guard.1 || rows >= max_batch || now >= deadline {
                        break;
                    }
                    let (g, timeout) = shared
                        .ready
                        .wait_timeout(guard, deadline - now)
                        .expect("batcher lock");
                    guard = g;
                    rows = drain_jobs(&mut guard.0, &mut jobs, rows, max_batch);
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            guard.1
        };
        if shutdown {
            // Jobs claimed before the flag flipped still complete — with
            // `None`, the same signal `Batcher::shutdown` gives the queue.
            for job in jobs {
                (job.reply)(None);
            }
            return;
        }

        // Move the rows out of the jobs (recording per-job lengths first to
        // split the replies) — no copy of the query payload.
        let lens: Vec<usize> = jobs.iter().map(|j| j.rows.len()).collect();
        let all_rows: Vec<Vec<f64>> = jobs
            .iter_mut()
            .flat_map(|j| std::mem::take(&mut j.rows))
            .collect();
        // One handle load per batch: every row of a batch scores against
        // the same model, and a reload lands at the next batch boundary.
        let engine = handle.load();
        let score_start = Instant::now();
        // The request-side families see the `/score` jobs only, exactly as
        // if the stream rows were not in the batch.
        let (mut requests, mut request_rows) = (0, 0);
        for (job, &len) in jobs.iter().zip(&lens) {
            if job.kind == JobKind::Score {
                requests += 1;
                request_rows += len as u64;
                stats.queue_wait.record(
                    score_start
                        .saturating_duration_since(job.enqueued)
                        .as_nanos() as u64,
                );
            }
        }
        // A coalesced batch carries several requests' trace contexts but
        // scores in one engine call; attribute the fan-out to the first
        // traced job (best effort — the alternative is splitting the batch).
        // The thread-local slot is how a remote engine sees it: the
        // `RemoteEngine::score_rows` signature carries no context.
        let trace = jobs.iter().find_map(|j| j.trace);
        hics_obs::trace::set_current(trace);
        // The one place the server calls an engine, so the one boundary a
        // scoring panic must not cross: the batch's rows fail, the worker
        // and every other batch carry on.
        let scored = catch_unwind(AssertUnwindSafe(|| {
            engine.score_batch_partial(&all_rows, threads)
        }));
        hics_obs::trace::set_current(None);
        let batch = scored.unwrap_or_else(|_| {
            stats.panics.inc();
            ScoredBatch {
                results: vec![Err(QueryError::Panicked); all_rows.len()],
                partial: false,
                shard_nanos: Vec::new(),
            }
        });
        let score_nanos = score_start.elapsed().as_nanos() as u64;
        for (shard, &nanos) in batch.shard_nanos.iter().enumerate() {
            stats.shard_scored(shard, all_rows.len(), nanos);
        }
        if !engine.is_remote() {
            stats
                .index_queries
                .add((all_rows.len() * engine.subspace_count()) as u64);
        }
        if requests > 0 {
            stats.score_time.record(score_nanos);
            stats.batches.inc();
            stats.requests.add(requests);
            stats.rows.add(request_rows);
            if requests > 1 {
                stats.coalesced_batches.inc();
            }
            stats.batch_size.record(request_rows);
        }
        let partial = batch.partial;
        let mut results = batch.results.into_iter();
        for (job, take) in jobs.into_iter().zip(lens) {
            let reply: Vec<_> = results.by_ref().take(take).collect();
            (job.reply)(Some(BatchScores {
                results: reply,
                partial,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::model::{
        apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
        ScorerSpec,
    };
    use hics_data::SyntheticConfig;
    use hics_outlier::{Engine, QueryEngine};

    fn engine() -> Arc<Engine> {
        let g = SyntheticConfig::new(80, 4).with_seed(5).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        let model = HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 1],
                contrast: 0.8,
            }],
            ScorerSpec {
                kind: ScorerKind::Lof,
                k: 5,
            },
            AggregationKind::Average,
        );
        Arc::new(Engine::from(QueryEngine::from_model(&model, 2)))
    }

    fn handle_for(engine: &Arc<Engine>) -> Arc<EngineHandle> {
        Arc::new(EngineHandle::from_arc(Arc::clone(engine)))
    }

    #[test]
    fn scores_flow_back_to_the_right_job() {
        let engine = engine();
        let batcher = Arc::new(Batcher::start(handle_for(&engine), 1, 64, 2));
        let rows_a = vec![vec![0.1, 0.2, 0.3, 0.4]];
        let rows_b = vec![vec![0.9, 0.8, 0.7, 0.6], vec![0.5, 0.5, 0.5, 0.5]];
        let got_a = batcher.score(rows_a.clone()).unwrap();
        let got_b = batcher.score(rows_b.clone()).unwrap();
        assert!(!got_a.partial && !got_b.partial);
        assert_eq!(got_a.results, engine.score_batch(&rows_a, 1));
        assert_eq!(got_b.results, engine.score_batch(&rows_b, 1));
        assert_eq!(batcher.stats().requests.get(), 2);
        assert_eq!(batcher.stats().rows.get(), 3);
        batcher.shutdown();
    }

    #[test]
    fn concurrent_submissions_coalesce_and_stay_ordered() {
        let engine = engine();
        let batcher = Arc::new(Batcher::start(handle_for(&engine), 2, 32, 2));
        let mut handles = Vec::new();
        for t in 0..8 {
            let batcher = Arc::clone(&batcher);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let rows: Vec<Vec<f64>> = (0..5)
                    .map(|r| vec![t as f64 * 0.1, r as f64 * 0.07, 0.3, 0.9])
                    .collect();
                let got = batcher.score(rows.clone()).unwrap();
                let want = engine.score_batch(&rows, 1);
                assert_eq!(got.results, want, "thread {t}");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(batcher.stats().requests.get(), 8);
        assert_eq!(batcher.stats().rows.get(), 40);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_jobs_and_is_idempotent() {
        let engine = engine();
        let batcher = Batcher::start(handle_for(&engine), 1, 8, 1);
        batcher.shutdown();
        assert!(batcher.score(vec![vec![0.0; 4]]).is_none());
        batcher.shutdown();
    }

    #[test]
    fn swapped_engine_takes_effect_at_the_next_batch() {
        let first = engine();
        let handle = handle_for(&first);
        let batcher = Batcher::start(Arc::clone(&handle), 1, 8, 1);
        let row = vec![0.2, 0.4, 0.6, 0.8];
        let got = batcher.score(vec![row.clone()]).unwrap();
        assert_eq!(
            got.results,
            first.score_batch(std::slice::from_ref(&row), 1)
        );

        // Install a model trained on different data; the very next job must
        // score against it.
        let g = SyntheticConfig::new(80, 4).with_seed(99).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        let second = Arc::new(Engine::from(QueryEngine::from_model(
            &HicsModel::new(
                data,
                NormKind::None,
                norm,
                vec![ModelSubspace {
                    dims: vec![1, 3],
                    contrast: 0.5,
                }],
                ScorerSpec {
                    kind: ScorerKind::KnnMean,
                    k: 3,
                },
                AggregationKind::Average,
            ),
            1,
        )));
        handle.swap_arc(Arc::clone(&second));
        let got = batcher.score(vec![row.clone()]).unwrap();
        assert_eq!(
            got.results,
            second.score_batch(std::slice::from_ref(&row), 1)
        );
        assert_ne!(
            got.results,
            first.score_batch(&[row], 1),
            "scores must change"
        );
        batcher.shutdown();
    }

    #[test]
    fn oversized_single_job_is_not_split() {
        let engine = engine();
        let batcher = Batcher::start(handle_for(&engine), 1, 2, 1);
        let rows: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 * 0.1; 4]).collect();
        let got = batcher.score(rows.clone()).unwrap();
        assert_eq!(got.results.len(), 7);
        assert_eq!(got.results, engine.score_batch(&rows, 1));
        batcher.shutdown();
    }

    #[test]
    fn submit_completes_via_callback() {
        let engine = engine();
        let batcher = Batcher::start(handle_for(&engine), 1, 8, 1);
        let (tx, rx) = mpsc::channel();
        let rows = vec![vec![0.3, 0.1, 0.7, 0.2]];
        batcher.submit(
            JobKind::Score,
            rows.clone(),
            None,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("reply arrives")
            .expect("not shut down");
        assert_eq!(got.results, engine.score_batch(&rows, 1));
        batcher.shutdown();
    }

    #[test]
    fn submit_after_shutdown_completes_with_none() {
        let engine = engine();
        let batcher = Batcher::start(handle_for(&engine), 1, 8, 1);
        batcher.shutdown();
        let (tx, rx) = mpsc::channel();
        batcher.submit(
            JobKind::Score,
            vec![vec![0.0; 4]],
            None,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        assert_eq!(rx.recv().expect("callback ran"), None);
    }

    /// The worker records what the engine hands back into the batcher's
    /// own registry: one shard-0 timing and row count per batch, and one
    /// index query per subspace per row.
    #[test]
    fn worker_records_shard_rows_and_index_queries() {
        let engine = engine();
        let batcher = Batcher::start(handle_for(&engine), 1, 64, 1);
        batcher
            .score((0..3).map(|i| vec![i as f64 * 0.2; 4]).collect())
            .unwrap();
        let stats = batcher.stats();
        assert_eq!(
            stats.index_queries.get(),
            3 * engine.subspace_count() as u64
        );
        let text = stats.registry.render_prometheus();
        assert!(
            text.contains("hics_shard_rows_total{shard=\"0\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("hics_shard_score_seconds_count{shard=\"0\"} 1\n"),
            "{text}"
        );
        batcher.shutdown();
    }

    #[test]
    fn batch_sizes_land_in_histogram_buckets() {
        let engine = engine();
        let batcher = Batcher::start(handle_for(&engine), 1, 64, 1);
        batcher.score(vec![vec![0.1; 4]]).unwrap(); // 1 row → bucket ≤1
        batcher
            .score((0..5).map(|i| vec![i as f64 * 0.2; 4]).collect())
            .unwrap(); // 5 rows → bucket ≤8
        let hist = batcher.stats().batch_size_snapshot();
        assert_eq!(hist[0], 1, "one single-row batch: {hist:?}");
        assert_eq!(hist[3], 1, "one 5-row batch in the ≤8 bucket: {hist:?}");
        assert_eq!(hist.iter().sum::<u64>(), 2);
        batcher.shutdown();
    }

    /// With a max-wait deadline, jobs submitted in quick succession coalesce
    /// into one batch even when a worker is free — and the deadline bounds
    /// the wait, so the batch still executes promptly.
    #[test]
    fn max_wait_coalesces_quick_successors() {
        let engine = engine();
        let batcher = Arc::new(Batcher::start_with_stats(
            handle_for(&engine),
            1,
            64,
            1,
            Duration::from_millis(40),
            Arc::new(BatchStats::default()),
        ));
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            batcher.submit(
                JobKind::Score,
                vec![vec![0.4, 0.6, 0.2, 0.8]],
                None,
                Box::new(move |reply| {
                    let _ = tx.send(reply);
                }),
            );
        }
        for _ in 0..4 {
            assert!(rx
                .recv_timeout(Duration::from_secs(5))
                .expect("reply arrives")
                .is_some());
        }
        // All four jobs should have landed in few (ideally one) batches.
        let batches = batcher.stats().batches.get();
        assert!(batches <= 2, "expected coalescing, got {batches} batches");
        assert_eq!(batcher.stats().requests.get(), 4);
        batcher.shutdown();
    }
}
