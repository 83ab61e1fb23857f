//! The `serve` and `route` workloads: a fitted model behind in-process
//! `hics-serve` servers, loaded over HTTP from one client thread.
//!
//! `serve` runs one server over one artifact and sends 8-point
//! `POST /score` batches. `route` fits 2 contiguous shards, runs one
//! backend server per shard and a fronting server over the
//! `hics-route` router (default `RouterConfig`), and sends single points.
//! Every server scores with one thread and one reactor, so the client,
//! the reactors and the workers share the 2 cores the numbers were
//! tuned on.

use crate::data::{self, Fnv, Inputs};
use crate::fit::{self, FitSpec, FitTimes};
use crate::load::{self, LoadResult, Template};
use crate::prom::{self, ratio, Delta, Scrape};
use crate::trace::{span, Trace};
use crate::{median, Args, Outcome, Window};
use hics_data::{RouteTable, ShardManifest};
use hics_obs::{Registry, Tracer};
use hics_outlier::{Engine, EngineHandle, RemoteEngine, ShardedEngine};
use hics_route::{Router, RouterConfig};
use hics_serve::{format_points_body, json, Pool, ServeConfig, Server, ShutdownHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    Route,
}

/// The served model: N = 4e4, d = 12 in six planted 2-d blocks, 10
/// subspaces of at most 3 dims. On this data the search returns 6 pairs
/// and 4 triples for every seed, so a query costs the same from seed to
/// seed.
const FLEET: FitSpec = FitSpec {
    n: 40_000,
    d: 12,
    cutoff: 100,
    top_k: 10,
    max_dim: Some(3),
    block_dims: 2,
    shards: 0,
};
/// Shards of the `route` fit.
const ROUTE_SHARDS: usize = 2;
/// Distinct query points; requests cycle through them.
const QUERIES: usize = 1024;
/// Points per `serve` request.
const SERVE_BATCH: usize = 32;
/// Points per `route` request.
const ROUTE_BATCH: usize = 1;
/// Keep-alive connections of the single client thread.
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` and `fit_s` are their medians.
const SETUPS: usize = 7;
/// Sub-windows of a measured window; latency and throughput figures are
/// medians over them.
const SUBWINDOWS: usize = 15;
/// Warm-up load at the end of each set-up.
const WARMUP_S: f64 = 0.5;

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        workers: 1,
        reactor_threads: 1,
        ..ServeConfig::default()
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<()>,
}

fn spawn(server: Server) -> Running {
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle().expect("shutdown handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    Running {
        addr,
        handle,
        thread,
    }
}

impl Running {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

/// Everything one set-up built.
struct Fleet {
    front: Running,
    backends: Vec<Running>,
    router: Option<(Arc<Router>, JoinHandle<()>)>,
    /// The served engine (`serve`) or the router (`route`'s `Engine::Remote`).
    engine: Arc<Engine>,
    inputs: Inputs,
    templates: Vec<Template>,
    fit: FitTimes,
    import_s: f64,
    open_s: f64,
}

impl Fleet {
    fn stop(self) {
        self.front.stop();
        if let Some((router, checker)) = self.router {
            router.shutdown();
            checker.join().expect("health checker");
        }
        for b in self.backends {
            b.stop();
        }
    }
}

fn templates(kind: Kind, queries: &[Vec<f64>]) -> Vec<Template> {
    let batch = match kind {
        Kind::Serve => SERVE_BATCH,
        Kind::Route => ROUTE_BATCH,
    };
    queries
        .chunks(batch)
        .enumerate()
        .map(|(i, rows)| {
            let body = if batch == 1 {
                point_body(&rows[0])
            } else {
                format_points_body(rows)
            };
            Template::score(&body, i * batch, rows.len())
        })
        .collect()
}

/// `{"point":[...]}` with every value in shortest round-trip form.
fn point_body(q: &[f64]) -> String {
    let mut body = String::from("{\"point\":[");
    for (j, v) in q.iter().enumerate() {
        if j > 0 {
            body.push(',');
        }
        json::write_f64(&mut body, *v);
    }
    body.push_str("]}");
    body
}

/// Generate, import, fit, open, start the servers and warm them up.
fn set_up(kind: Kind, args: &Args, dir: &Path, trace: Option<&Arc<Trace>>, i: u64) -> Fleet {
    let inputs = data::generate(FLEET.n, FLEET.d, FLEET.block_dims, args.seed, QUERIES);
    let t = Instant::now();
    let store = data::import(
        &inputs.data,
        &dir.join("data.hicsstore"),
        trace.map(|t| &**t),
    );
    let import_s = t.elapsed().as_secs_f64();
    let model = dir.join("model.hics");
    let spec = FitSpec {
        shards: if kind == Kind::Route { ROUTE_SHARDS } else { 0 },
        ..FLEET
    };
    let fit = fit::fit(&spec, args.seed, &store, &model, trace, i);
    drop(store);
    let t = Instant::now();
    let (front, backends, router, engine, open_s) = match kind {
        Kind::Serve => {
            let engine = span(trace.map(|t| &**t), "outlier.open", None, i, || {
                Engine::open_mmap(&model, None, 1).expect("open model")
            });
            let open_s = t.elapsed().as_secs_f64();
            let server = Server::bind(engine, serve_config()).expect("bind server");
            let engine = server.engine_handle().load();
            (spawn(server), Vec::new(), None, engine, open_s)
        }
        Kind::Route => {
            let manifest = ShardManifest::load(&model).expect("load manifest");
            let shard_engines: Vec<Engine> = manifest
                .shard_paths(&model)
                .iter()
                .map(|p| {
                    span(trace.map(|t| &**t), "outlier.open", None, i, || {
                        Engine::open_mmap(p, None, 1).expect("open shard")
                    })
                })
                .collect();
            let open_s = t.elapsed().as_secs_f64();
            let backends: Vec<Running> = shard_engines
                .into_iter()
                .map(|e| spawn(Server::bind(e, serve_config()).expect("bind backend")))
                .collect();
            let addrs: Vec<String> = backends.iter().map(|b| b.addr.to_string()).collect();
            let table = RouteTable::parse(&addrs.join("\n")).expect("route table");
            // Wired as `hics route` wires it: one registry and tracer shared
            // by the router and its fronting server, a synchronous probe
            // sweep, then the background health checker.
            let registry = Arc::new(Registry::new());
            let tracer = Arc::new(Tracer::default());
            let mut router =
                Router::new(&manifest, &table, RouterConfig::default(), &registry).expect("router");
            router.set_tracer(Arc::clone(&tracer));
            let router = Arc::new(router);
            router.probe_all();
            let checker = router.spawn_health_checker();
            let engine = Engine::Remote(Arc::clone(&router) as Arc<dyn RemoteEngine>);
            let server = Server::bind_handle_with_obs(
                Arc::new(EngineHandle::new(engine)),
                serve_config(),
                registry,
                tracer,
            )
            .expect("bind front server");
            let engine = server.engine_handle().load();
            (
                spawn(server),
                backends,
                Some((router, checker)),
                engine,
                open_s,
            )
        }
    };
    let templates = templates(kind, &inputs.queries);
    let warm = load::run(front.addr, &templates, QUERIES, CONNS, WARMUP_S, 1, None);
    assert_eq!(warm.failed, 0, "warm-up requests failed");
    Fleet {
        front,
        backends,
        router,
        engine,
        inputs,
        templates,
        fit,
        import_s,
        open_s,
    }
}

/// One measured window with `/metrics` scraped on either side.
struct Measured {
    load: LoadResult,
    before: Scrape,
    after: Scrape,
}

fn measure(fleet: &Fleet, pool: &Pool, seconds: f64, trace: Option<&Trace>) -> Measured {
    let before = prom::scrape(pool);
    let load = load::run(
        fleet.front.addr,
        &fleet.templates,
        QUERIES,
        CONNS,
        seconds,
        SUBWINDOWS,
        trace,
    );
    let after = prom::scrape(pool);
    Measured {
        load,
        before,
        after,
    }
}

/// Median milliseconds of `f` over every query, each call a span.
fn probe_ms(
    queries: &[Vec<f64>],
    trace: &Trace,
    name: &'static str,
    mut f: impl FnMut(&[f64]),
) -> f64 {
    let mut ms: Vec<f64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let t = Instant::now();
            span(Some(trace), name, None, i as u64, || f(q));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

/// Per-layer metrics of the serving tier from one window's `/metrics`
/// deltas.
fn serve_layers(d: &Delta) -> Vec<(&'static str, f64)> {
    let requests = d.count("hics_requests_total");
    let batches = d.count("hics_batches_total");
    let stage =
        |s: &str| d.mean_ms_labelled("hics_request_stage_seconds", &format!("stage=\"{s}\""));
    vec![
        (
            "serve.queue_wait_ms",
            d.mean_ms("hics_batch_queue_wait_seconds"),
        ),
        (
            "serve.batch_score_ms",
            d.mean_ms("hics_batch_score_seconds"),
        ),
        ("serve.stage.head_parse_ms", stage("head_parse")),
        ("serve.stage.body_ms", stage("body")),
        ("serve.stage.enqueue_ms", stage("enqueue")),
        ("serve.stage.score_ms", stage("score")),
        ("serve.stage.flush_ms", stage("flush")),
        (
            "serve.batch_rows",
            ratio(d.count("hics_rows_total"), batches),
        ),
        (
            "serve.coalesced_ratio",
            ratio(d.count("hics_coalesced_batches_total"), batches),
        ),
        (
            "serve.wakeups_per_req",
            ratio(d.count("hics_reactor_wakeups_total"), requests),
        ),
        (
            "serve.bytes_per_req",
            ratio(
                d.count("hics_reactor_bytes_in_total") + d.count("hics_reactor_bytes_out_total"),
                requests,
            ),
        ),
    ]
}

fn route_layers(d: &Delta) -> Vec<(&'static str, f64)> {
    let hedges = d.count("hics_route_hedges_total");
    vec![
        (
            "route.upstream_ms",
            d.mean_ms("hics_route_upstream_seconds"),
        ),
        (
            "route.hedges_per_req",
            ratio(hedges, d.count("hics_route_requests_total")),
        ),
        (
            "route.hedge_win_ratio",
            ratio(d.count("hics_route_hedge_wins_total"), hedges),
        ),
        ("route.retries", d.count("hics_route_retries_total")),
    ]
}

/// Sets a fleet up `setups` times (keeping the last), measures an
/// untraced window when `untraced` and a traced one when tracing, checks
/// every served score against the in-process reference and reports.
fn measure_fleet(
    kind: Kind,
    args: &Args,
    work: &Path,
    trace: Option<&Arc<Trace>>,
    setups: usize,
    untraced: bool,
    seconds: f64,
) -> Outcome {
    let work = work.join(match kind {
        Kind::Serve => "serve",
        Kind::Route => "route",
    });
    let mut setup_s = Vec::new();
    let mut fits = Vec::new();
    let mut imports = Vec::new();
    let mut opens = Vec::new();
    let mut current: Option<Fleet> = None;
    for i in 0..setups {
        if let Some(old) = current.take() {
            old.stop();
            let _ = std::fs::remove_dir_all(work.join(format!("set{}", i - 1)));
        }
        let dir = work.join(format!("set{i}"));
        std::fs::create_dir_all(&dir).expect("set-up directory");
        let t = Instant::now();
        let fleet = set_up(kind, args, &dir, trace, i as u64);
        setup_s.push(t.elapsed().as_secs_f64());
        fits.push(fleet.fit);
        imports.push(fleet.import_s);
        opens.push(fleet.open_s);
        current = Some(fleet);
    }
    let fleet = current.expect("at least one set-up");
    let mut hash = Fnv::default();
    for t in &fleet.templates {
        hash.bytes(&t.bytes);
    }
    println!("request_hash {kind:?} {:016x}", hash.finish());

    let pool = Pool::new(fleet.front.addr.to_string(), 1);
    let plain = untraced.then(|| measure(&fleet, &pool, seconds, None));
    let traced = trace.map(|t| measure(&fleet, &pool, seconds, Some(t)));

    // In-process reference: the served engine itself, or the sharded
    // ensemble of the same manifest folded in process.
    let model = work.join(format!("set{}", setups - 1)).join("model.hics");
    let reference = match kind {
        Kind::Serve => Arc::clone(&fleet.engine),
        Kind::Route => Arc::new(Engine::Sharded(
            ShardedEngine::open(&model, None, 1).expect("open sharded reference"),
        )),
    };
    let expected: Vec<u64> = fleet
        .inputs
        .queries
        .iter()
        .map(|q| reference.score(q).expect("in-process score").to_bits())
        .collect();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut mismatched = 0u64;
    for m in plain.iter().chain(traced.as_ref()) {
        attempted += m.load.sent;
        failed += m.load.failed;
        mismatched += m.load.mismatches;
        for t in &fleet.templates {
            let bad = (t.first..t.first + t.rows)
                .any(|q| m.load.scores[q].is_some_and(|b| b != expected[q]));
            if bad {
                failed += 1;
                mismatched += 1;
            }
        }
    }
    let primary = plain
        .as_ref()
        .or(traced.as_ref())
        .expect("a measured window");
    let scores: Vec<f64> = (0..QUERIES)
        .map(|q| f64::from_bits(primary.load.scores[q].unwrap_or(expected[q])))
        .collect();
    let auc = hics_eval::roc_auc(&scores, &fleet.inputs.labels) * 100.0;

    let window = |m: &Measured| {
        let subs: Vec<_> = m.load.marks.windows(2).map(|w| (w[0], w[1])).collect();
        Window::new(&m.load.lat_ns, &subs, m.load.threads_max)
    };
    let setup_median = median(&mut setup_s);
    let fit_median = median(&mut fits.iter().map(|f| f.wall_s).collect::<Vec<_>>());
    let w = window(primary);
    let mut out = Outcome::new(mismatched == 0, attempted, failed);
    out.notes.extend(w.notes());
    out.e2e = w.e2e(setup_median, fit_median, auc);

    if let (Some(tr), Some(m)) = (trace, &traced) {
        let tw = window(m);
        if plain.is_some() {
            out.traced_e2e = Some(tw.e2e(setup_median, fit_median, auc));
        }
        let times = fit::mean_times(&fits);
        out.layers = fit::layer_metrics(&times, median(&mut imports), median(&mut opens));
        out.reconcile.push(format!(
            "fit_s (mean of {} set-up fits) {:.4} = search {:.4} + index {:.4} + save {:.4} \
             + precompute {:.4} + unattributed {:.4}",
            fits.len(),
            times.wall_s,
            times.search_s,
            times.index_s,
            times.save_s,
            times.precompute_s,
            times.unattributed_s()
        ));
        let delta = Delta {
            before: &m.before,
            after: &m.after,
        };
        out.layers.extend(serve_layers(&delta));
        out.layers.extend(w.query_layers());
        let batch = match kind {
            Kind::Serve => SERVE_BATCH,
            Kind::Route => ROUTE_BATCH,
        };
        let score_ms = fit::score_batch_ms(&reference, &fleet.inputs.queries, batch, tr);
        out.layers.push(("outlier.score_ms", score_ms));
        let mut parse_us: Vec<f64> = fleet
            .templates
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let body = t.body();
                let at = Instant::now();
                span(Some(tr), "serve.json_parse", None, i as u64, || {
                    json::parse(body).expect("request body parses")
                });
                at.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.layers
            .push(("serve.json_parse_us", median(&mut parse_us)));
        match kind {
            Kind::Serve => {
                let front_ms = w.p50_ms - score_ms;
                out.layers.push(("serve.front_ms", front_ms));
                out.reconcile.push(format!(
                    "serve query.p50_ms {:.4} = outlier.score_ms {score_ms:.4} \
                     + serve.front_ms {front_ms:.4}",
                    w.p50_ms
                ));
            }
            Kind::Route => {
                out.layers.extend(route_layers(&delta));
                let backend = Pool::new(fleet.backends[0].addr.to_string(), 1);
                let direct_ms = probe_ms(&fleet.inputs.queries, tr, "route.direct", |q| {
                    let resp = backend
                        .request(
                            "POST",
                            "/score",
                            Some(&point_body(q)),
                            Duration::from_secs(5),
                        )
                        .expect("direct backend request");
                    assert_eq!(resp.status, 200, "direct backend request failed");
                });
                let (router, _) = fleet.router.as_ref().expect("route fleet has a router");
                let rows_ms = probe_ms(&fleet.inputs.queries, tr, "route.score_rows", |q| {
                    let batch = router.score_rows(std::slice::from_ref(&q.to_vec()));
                    assert!(batch.results[0].is_ok(), "in-process fan-out failed");
                });
                let fanout_ms = rows_ms - direct_ms;
                let front_ms = w.p50_ms - rows_ms;
                out.layers.extend([
                    ("route.p50_ms", w.p50_ms),
                    ("route.p99_ms", w.tail_ms),
                    ("route.pts_per_s", w.pts_per_s),
                    ("route.direct_ms", direct_ms),
                    ("route.score_rows_ms", rows_ms),
                    ("route.fanout_ms", fanout_ms),
                    ("route.front_ms", front_ms),
                    ("route.threads_max", w.threads_max as f64),
                ]);
                out.reconcile.push(format!(
                    "route.p50_ms {:.4} = route.front_ms {front_ms:.4} + route.fanout_ms \
                     {fanout_ms:.4} + route.direct_ms {direct_ms:.4}",
                    w.p50_ms
                ));
            }
        }
    }
    drop(pool);
    fleet.stop();
    out
}

/// The `serve` or `route` workload. A traced `serve` run also stands up
/// the routed tier once and measures its layers: the routed end-to-end
/// figures swing too much between runs on 2 vCPUs to gate a workload on
/// (see BENCHMARK.md), but its layers are still measured on every traced
/// `serve` run.
pub fn run(args: &Args, work: &Path, kind: Kind) -> Outcome {
    let trace = args.trace.then(|| Arc::new(Trace::new()));
    let mut out = measure_fleet(kind, args, work, trace.as_ref(), SETUPS, true, args.seconds);
    if let (Kind::Serve, Some(tr)) = (kind, &trace) {
        // Half a window: these figures are not gated.
        let routed = measure_fleet(
            Kind::Route,
            args,
            work,
            Some(tr),
            1,
            false,
            args.seconds / 2.0,
        );
        out.correct &= routed.correct;
        out.attempted += routed.attempted;
        out.failed += routed.failed;
        out.layers.extend(
            routed
                .layers
                .into_iter()
                .filter(|(n, _)| n.starts_with("route.")),
        );
        out.reconcile.extend(
            routed
                .reconcile
                .into_iter()
                .filter(|r| r.starts_with("route")),
        );
    }
    out.trace = trace;
    out
}
