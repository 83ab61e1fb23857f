//! `bench_shard` — the out-of-core workflow at scale: stream N = 1e6 rows
//! into a columnar dataset store, shard-fit it through the unchanged
//! pipeline, open the sharded manifest as a serving ensemble, and measure
//! query latency/throughput against all shards.
//!
//! Four timed stages over one synthetic workload (d = 8, planted
//! correlated blocks):
//!
//! 1. **Import** — rows streamed through `StoreWriter` (bounded memory:
//!    64 Ki-row chunks spilled and reassembled) into the store file.
//! 2. **Sharded fit** — `fit_sharded_to` with S shards over the mmap-open
//!    store (columns read zero-copy from the map; only one shard's matrix
//!    is resident per fit worker), reduced search parameters so the run
//!    stays minutes, not hours.
//! 3. **Ensemble open** — `ShardedEngine::open`: mmap every shard
//!    artifact, adopt its stored VP-trees and its stored hoods
//!    (neighbourhood state the fit wrote into the artifact).
//! 4. **Scoring** — p50/p99 single-query latency (each query visits every
//!    shard) and batch throughput.
//! 5. **Routing** — the same queries through the `hics route` tier: one
//!    real serving backend per shard plus a fronting router, measured
//!    end-to-end over HTTP to price the scatter-gather hop against the
//!    in-process ensemble; then a straggler trial where shard 0's primary
//!    replica sits behind a fixed-delay proxy and hedged requests recover
//!    the p99 the delay would otherwise set.
//!
//! Writes `BENCH_shard.json` at the repository root.
//!
//! Usage: `cargo run --release -p hics-bench --bin bench_shard`
//! (optionally `--quick` for N = 1e5 while iterating).

use hics_core::{FitBuilder, HicsParams, ShardFitSpec};
use hics_data::manifest::{PartitionKind, ShardAggregation};
use hics_data::model::{ScorerKind, ScorerSpec};
use hics_data::{NormKind, RouteTable, SyntheticConfig};
use hics_outlier::{Engine, EngineHandle, IndexKind, RemoteEngine, ShardedEngine};
use hics_route::{Router, RouterConfig};
use hics_serve::{Pool, ServeConfig, Server};
use hics_store::{DatasetStore, StoreWriter, DEFAULT_CHUNK_ROWS};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 8;
const SHARDS: usize = 4;
const DATA_SEED: u64 = 11;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Starts a serving server over `engine` on an ephemeral port. The
/// server thread is detached — the process exit reaps the fleet.
fn start_server(engine: Engine, registry: Option<Arc<hics_obs::Registry>>) -> (String, Server) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        max_batch: 64,
        workers: 1,
        keep_alive: Duration::from_secs(30),
        max_connections: 64,
        ..ServeConfig::default()
    };
    let handle = Arc::new(EngineHandle::new(engine));
    let server = match registry {
        Some(r) => Server::bind_handle_with_registry(handle, config, r),
        None => Server::bind_handle(handle, config),
    }
    .expect("bind server");
    let addr = server.local_addr().expect("addr").to_string();
    (addr, server)
}

fn run_detached(server: Server) {
    std::thread::spawn(move || server.run().expect("server run"));
}

/// A byte-pump proxy that sleeps `delay` after each client read before
/// forwarding — requests arrive as one write burst, so every request
/// through the proxy pays the delay: a deterministic straggler.
fn start_delay_proxy(target: String, delay: Duration) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("proxy bind");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let Ok(upstream) = std::net::TcpStream::connect(&target) else {
                continue;
            };
            let (mut cr, mut cw) = (client.try_clone().expect("clone"), client);
            let (mut ur, mut uw) = (upstream.try_clone().expect("clone"), upstream);
            std::thread::spawn(move || {
                let mut buf = [0u8; 16 * 1024];
                while let Ok(n) = cr.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    std::thread::sleep(delay);
                    if uw.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            });
            std::thread::spawn(move || {
                let mut buf = [0u8; 16 * 1024];
                while let Ok(n) = ur.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    if cw.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

/// p50/p99 of single-query latencies (milliseconds) under `f`.
fn measure_ms(queries: &[Vec<f64>], mut f: impl FnMut(&[f64])) -> (f64, f64) {
    let mut lat_ms = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        f(q);
        lat_ms.push(t.elapsed().as_secs_f64() * 1000.0);
    }
    lat_ms.sort_by(f64::total_cmp);
    (percentile(&lat_ms, 0.50), percentile(&lat_ms, 0.99))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 100_000 } else { 1_000_000 };
    let query_count = if quick { 100 } else { 200 };
    let threads = hics_outlier::parallel::available_threads();

    let dir = std::env::temp_dir().join("hics-bench-shard");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store_path = dir.join(format!("bench-{n}.hicsstore"));
    let manifest_path = dir.join(format!("bench-{n}.hics"));

    eprintln!("generating N = {n}, d = {D} synthetic workload...");
    let g = SyntheticConfig::new(n, D).with_seed(DATA_SEED).generate();

    eprintln!("importing into the dataset store (64Ki-row chunks)...");
    let t = Instant::now();
    let mut writer = StoreWriter::create(&store_path, DEFAULT_CHUNK_ROWS, NormKind::MinMax);
    let mut row = vec![0.0; D];
    for i in 0..n {
        for (j, v) in row.iter_mut().enumerate() {
            *v = g.dataset.value(i, j);
        }
        writer.push_row(&row).expect("push row");
    }
    let summary = writer
        .finish(Some(g.dataset.names().to_vec()))
        .expect("finish store");
    let import_s = t.elapsed().as_secs_f64();
    let store_mb = summary.bytes as f64 / 1e6;
    eprintln!(
        "  {import_s:.1} s ({:.0}k rows/s, {store_mb:.0} MB, {} spilled chunks)",
        n as f64 / import_s / 1e3,
        summary.spilled_chunks
    );

    // Novel queries: training rows nudged off-grid so the coincident
    // lookup misses and the full kNN path runs in every shard.
    let queries: Vec<Vec<f64>> = (0..query_count)
        .map(|q| {
            let row = g.dataset.row((q * 4099) % n);
            row.iter()
                .enumerate()
                .map(|(j, v)| v + 0.0005 + (q + j) as f64 * 1e-6)
                .collect()
        })
        .collect();
    drop(g);

    eprintln!("opening store (mmap) and shard-fitting S = {SHARDS}...");
    let store = DatasetStore::open_mmap(&store_path).expect("open store");
    assert!(store.is_mmap(), "expected a live memory map");
    // Reduced search parameters: the point is the out-of-core plumbing and
    // the serving ensemble, not a paper-parameter search at 1e6.
    let mut params = HicsParams::paper_defaults();
    params.search.m = 10;
    params.search.candidate_cutoff = 30;
    params.search.top_k = 4;
    params.search.max_dim = Some(3);
    params.search.seed = 1;
    params.search.max_threads = threads;
    let builder = FitBuilder::new(params)
        .scorer(ScorerSpec {
            kind: ScorerKind::Lof,
            k: 10,
        })
        .index(IndexKind::VpTree)
        .precompute(true);
    let spec = ShardFitSpec {
        shards: SHARDS,
        partition: PartitionKind::Contiguous,
        aggregation: ShardAggregation::Mean,
        parallel: 0,
    };
    let t = Instant::now();
    let manifest = builder
        .fit_sharded_to(&store, &spec, &manifest_path)
        .expect("sharded fit");
    let fit_s = t.elapsed().as_secs_f64();
    let shard_mb: f64 = manifest
        .shard_paths(&manifest_path)
        .iter()
        .map(|p| std::fs::metadata(p).expect("shard metadata").len() as f64 / 1e6)
        .sum();
    eprintln!(
        "  {fit_s:.1} s for {} shards of ~{} rows ({shard_mb:.0} MB of shard artifacts)",
        manifest.shards.len(),
        manifest.shards[0].n
    );

    eprintln!("opening the sharded serving ensemble...");
    let t = Instant::now();
    let engine = ShardedEngine::open(&manifest_path, None, threads).expect("open ensemble");
    let open_s = t.elapsed().as_secs_f64();
    assert!(engine.is_mapped());
    assert_eq!(engine.shard_count(), SHARDS);
    eprintln!(
        "  {open_s:.1} s (mmap + stored-hoods adoption across {} subspaces)",
        engine.subspace_count()
    );

    eprintln!("scoring {query_count} single queries (each visits every shard)...");
    let mut lat_ms = Vec::with_capacity(queries.len());
    for q in &queries {
        let t = Instant::now();
        let s = engine.score(q).expect("score");
        lat_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        assert!(s.is_finite());
    }
    lat_ms.sort_by(f64::total_cmp);
    let (p50, p99) = (percentile(&lat_ms, 0.50), percentile(&lat_ms, 0.99));
    let t = Instant::now();
    let batch = engine.score_batch(&queries, threads);
    let batch_s = t.elapsed().as_secs_f64();
    assert!(batch.results.iter().all(|r| r.is_ok()));
    let qps = queries.len() as f64 / batch_s;
    eprintln!("  p50 {p50:.2} ms / p99 {p99:.2} ms per query, {qps:.0} queries/s batched");

    // -- routing tier: the same ensemble behind hics route -----------------

    eprintln!("starting {SHARDS} shard backends + scatter-gather router...");
    let shard_paths = manifest.shard_paths(&manifest_path);
    let mut backend_addrs = Vec::with_capacity(SHARDS);
    for p in &shard_paths {
        let backend = Engine::open_mmap(p, None, threads).expect("open shard backend");
        let (addr, server) = start_server(backend, None);
        run_detached(server);
        backend_addrs.push(addr);
    }
    let table = RouteTable::parse(&backend_addrs.join("\n")).expect("route table");
    let registry = Arc::new(hics_obs::Registry::new());
    let router = Arc::new(
        Router::new(&manifest, &table, RouterConfig::default(), &registry).expect("router"),
    );
    router.probe_all();
    let (front_addr, front) = start_server(
        Engine::Remote(Arc::clone(&router) as Arc<dyn RemoteEngine>),
        Some(Arc::clone(&registry)),
    );
    run_detached(front);

    // End-to-end over HTTP on one keep-alive connection: the full router
    // hop (client → router → per-shard backends → fold → client).
    let pool = Pool::new(front_addr, 4);
    let routed_body = |q: &[f64]| {
        let mut body = String::from("{\"point\":[");
        for (j, v) in q.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            hics_serve::json::write_f64(&mut body, *v);
        }
        body.push_str("]}");
        body
    };
    let routed = |pool: &Pool, body: &str| {
        let resp = pool
            .request("POST", "/score", Some(body), Duration::from_secs(10))
            .expect("routed score");
        assert_eq!(resp.status, 200, "{:?}", resp.text());
    };
    routed(&pool, &routed_body(&queries[0])); // warm pools end to end
    let (route_p50, route_p99) = measure_ms(&queries, |q| routed(&pool, &routed_body(q)));
    eprintln!(
        "  routed p50 {route_p50:.2} ms / p99 {route_p99:.2} ms \
         (+{:.2} ms p50 over in-process)",
        route_p50 - p50
    );

    // Straggler trial: shard 0's preferred replica answers through a
    // fixed-delay proxy; its direct address is the hedge target. With
    // hedging the p99 tracks the healthy fleet, without it the proxy's
    // delay sets the floor.
    const STRAGGLER_DELAY_MS: u64 = 40;
    let straggler_queries = &queries[..queries.len().min(60)];
    let proxy_addr = start_delay_proxy(
        backend_addrs[0].clone(),
        Duration::from_millis(STRAGGLER_DELAY_MS),
    );
    let mut placements = backend_addrs.clone();
    placements[0] = format!("{proxy_addr}|{}", backend_addrs[0]);
    let straggler_table = RouteTable::parse(&placements.join("\n")).expect("straggler table");
    let straggler_router = |hedge: Duration| {
        let cfg = RouterConfig {
            hedge_after: hedge,
            request_timeout: Duration::from_secs(10),
            ..RouterConfig::default()
        };
        let registry = hics_obs::Registry::new();
        let r = Router::new(&manifest, &straggler_table, cfg, &registry).expect("router");
        r.probe_all();
        r
    };
    // Hedge fires 5ms in; the no-hedge baseline pushes it past any query.
    let hedged = straggler_router(Duration::from_millis(5));
    let unhedged = straggler_router(Duration::from_secs(60));
    let score_one = |r: &Router, q: &[f64]| {
        let batch = r.score_rows(std::slice::from_ref(&q.to_vec()));
        assert!(batch.results[0].is_ok(), "{:?}", batch.results[0]);
    };
    score_one(&hedged, &straggler_queries[0]); // warm both replicas' pools
    score_one(&unhedged, &straggler_queries[0]);
    let (_, hedged_p99) = measure_ms(straggler_queries, |q| score_one(&hedged, q));
    let (_, unhedged_p99) = measure_ms(straggler_queries, |q| score_one(&unhedged, q));
    eprintln!(
        "  straggler trial ({STRAGGLER_DELAY_MS}ms proxy on shard 0): \
         hedged p99 {hedged_p99:.2} ms vs unhedged p99 {unhedged_p99:.2} ms"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"n\": {n}, \"d\": {D}, \"shards\": {SHARDS}, \
         \"partition\": \"contiguous\", \"aggregation\": \"mean\", \"scorer\": \"lof\", \
         \"k\": 10, \"index\": \"vptree\", \"normalize\": \"minmax\", \
         \"search\": {{\"m\": 10, \"cutoff\": 30, \"top_k\": 4, \"max_dim\": 3}}, \
         \"threads\": {threads}, \"data_seed\": {DATA_SEED}}},"
    );
    let _ = writeln!(
        json,
        "  \"import\": {{\"seconds\": {import_s:.2}, \"rows_per_sec\": {:.0}, \
         \"store_mb\": {store_mb:.1}, \"spilled_chunks\": {}}},",
        n as f64 / import_s,
        summary.spilled_chunks
    );
    let _ = writeln!(
        json,
        "  \"sharded_fit\": {{\"seconds\": {fit_s:.2}, \"shards\": {}, \
         \"rows_per_shard\": {}, \"shard_artifacts_mb\": {shard_mb:.1}}},",
        manifest.shards.len(),
        manifest.shards[0].n
    );
    let _ = writeln!(json, "  \"ensemble_open\": {{\"seconds\": {open_s:.2}}},");
    let _ = writeln!(
        json,
        "  \"query\": {{\"count\": {query_count}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
         \"queries_per_sec_batched\": {qps:.0}}},"
    );
    let _ = writeln!(
        json,
        "  \"router\": {{\"count\": {query_count}, \"p50_ms\": {route_p50:.3}, \
         \"p99_ms\": {route_p99:.3}, \"overhead_p50_ms\": {:.3}, \
         \"straggler\": {{\"count\": {}, \"proxy_delay_ms\": {STRAGGLER_DELAY_MS}, \
         \"hedged_p99_ms\": {hedged_p99:.3}, \"unhedged_p99_ms\": {unhedged_p99:.3}}}}}",
        route_p50 - p50,
        straggler_queries.len()
    );
    json.push('}');
    json.push('\n');

    for p in manifest.shard_paths(&manifest_path) {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&manifest_path).ok();
    std::fs::remove_file(&store_path).ok();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(out, &json).expect("write BENCH_shard.json");
    eprintln!("wrote {out}");
    println!("{json}");
}
