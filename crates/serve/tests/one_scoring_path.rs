//! The batcher is the one place a server calls its engine: `/v2/score`
//! lines are scored there as well as `/score` bodies. So stream rows show
//! up in the engine-side instruments, a slow stream never stalls the
//! reactor that serves other connections, and a scoring panic is contained
//! at the batch boundary — its batch fails, the server carries on.

use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, HoodsData, ModelHoods, ModelSubspace,
    NormKind, ScorerKind, ScorerSpec,
};
use hics_data::SyntheticConfig;
use hics_outlier::{Engine, QueryEngine, RemoteBatch, RemoteEngine};
use hics_serve::{ServeConfig, Server, ShutdownHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct RunningServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

impl RunningServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

fn start(engine: impl Into<Engine>, config: ServeConfig) -> RunningServer {
    let server = Server::bind(engine, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    RunningServer {
        addr,
        handle,
        thread,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        workers: 1,
        reactor_threads: 1,
        keep_alive: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// A socket whose reads give up after 10 s, so a reply that never comes
/// fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// One `Connection: close` exchange; returns the status and the body.
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let (head, body) = reply.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

fn post_score(addr: SocketAddr, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn metrics(addr: SocketAddr) -> String {
    let (status, body) = exchange(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    body
}

/// The value of the series whose name and labels are exactly `series`.
fn series(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{series} ")))
        .map(|v| v.parse().expect("integer series"))
}

/// Reads a chunked response's head, returning its status line.
fn read_chunked_head<R: BufRead>(reader: &mut R) -> String {
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("head line");
        if line == "\r\n" || line.is_empty() {
            return status;
        }
    }
}

/// Reads one chunk's data; `None` at the terminal chunk.
fn read_chunk<R: BufRead>(reader: &mut R) -> Option<String> {
    let mut size = String::new();
    reader.read_line(&mut size).expect("chunk size");
    let size = usize::from_str_radix(size.trim(), 16).expect("hex chunk size");
    let mut data = vec![0u8; size + 2];
    reader.read_exact(&mut data).expect("chunk data");
    (size > 0).then(|| String::from_utf8(data[..size].to_vec()).expect("utf-8 chunk"))
}

/// A two-subspace model, so the index-query count differs from the row
/// count.
fn two_subspace_engine() -> QueryEngine {
    let g = SyntheticConfig::new(80, 3).with_seed(17).generate();
    let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
    let model = HicsModel::new(
        data,
        NormKind::None,
        norm,
        vec![
            ModelSubspace {
                dims: vec![0, 2],
                contrast: 0.6,
            },
            ModelSubspace {
                dims: vec![1, 2],
                contrast: 0.5,
            },
        ],
        ScorerSpec {
            kind: ScorerKind::Lof,
            k: 4,
        },
        AggregationKind::Average,
    );
    QueryEngine::from_model(&model, 1)
}

/// Stream rows are scored by the batch worker, so they count in the
/// engine-side families; the request-side families still count the
/// `/score` traffic alone.
#[test]
fn stream_rows_count_in_the_engine_side_families_only() {
    let server = start(two_subspace_engine(), config());
    let (status, reply) = post_score(
        server.addr,
        r#"{"points": [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.5, 0.5, 0.5]]}"#,
    );
    assert_eq!(status, 200, "{reply}");
    let body = "[0.1,0.2,0.3]\n[0.4,0.5,0.6]\n";
    let (status, reply) = exchange(
        server.addr,
        &format!(
            "POST /v2/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(reply.matches("{\"score\":").count(), 2, "{reply}");

    let text = metrics(server.addr);
    assert_eq!(
        series(&text, "hics_index_queries_total"),
        Some(5 * 2),
        "{text}"
    );
    assert_eq!(
        series(&text, "hics_shard_rows_total{shard=\"0\"}"),
        Some(5),
        "{text}"
    );
    assert_eq!(series(&text, "hics_rows_total"), Some(3), "{text}");
    assert_eq!(series(&text, "hics_requests_total"), Some(1), "{text}");
    assert_eq!(series(&text, "hics_batch_size_count"), Some(1), "{text}");
    assert_eq!(series(&text, "hics_stream_lines_total"), Some(2), "{text}");
    server.stop();
}

/// A brute-force model whose every query scans 20 000 points in 11
/// subspaces, with stand-in hoods so the open computes nothing: slow to
/// query, quick to build.
fn slow_engine() -> (QueryEngine, Vec<f64>) {
    let n = 20_000;
    let g = SyntheticConfig::new(n, 4).with_seed(23).generate();
    let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
    let mut subspaces = Vec::new();
    for mask in 1u32..16 {
        if mask.count_ones() >= 2 {
            subspaces.push(ModelSubspace {
                dims: (0..4).filter(|j| mask & (1 << j) != 0).collect(),
                contrast: 0.5,
            });
        }
    }
    let count = subspaces.len();
    let row = g.dataset.row(7).to_vec();
    let mut model = HicsModel::new(
        data,
        NormKind::None,
        norm,
        subspaces,
        ScorerSpec {
            kind: ScorerKind::KnnMean,
            k: 5,
        },
        AggregationKind::Average,
    );
    let hoods = HoodsData {
        clamp: 1.0,
        k_distance: vec![0.1; n],
        lrd: Vec::new(),
    };
    model.set_hoods(Some(ModelHoods {
        subspaces: vec![hoods; count],
    }));
    (QueryEngine::from_model(&model, 1), row)
}

/// One reactor, one batch worker: a stream that takes seconds to score
/// must not hold up a `/healthz` on another connection. Scored on the
/// reactor thread, every line of the read would run before the reactor
/// could accept the probe.
#[test]
fn a_slow_stream_does_not_stall_the_reactor() {
    let (engine, row) = slow_engine();
    // Size the stream to about 1.5 s of scoring in this build.
    let started = Instant::now();
    for _ in 0..4 {
        engine.score(&row).expect("score");
    }
    let per_line = started.elapsed() / 4;
    let lines = (1.5 / per_line.as_secs_f64()).clamp(20.0, 20_000.0) as usize;
    let mut cfg = config();
    cfg.max_batch = 32;
    let server = start(engine, cfg);

    let line = format!(
        "[{}]\n",
        row.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
    );
    let body = line.repeat(lines);
    let addr = server.addr;
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let streamer = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream.write_all(
            format!(
                "POST /v2/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send stream");
        let mut reader = BufReader::new(stream);
        let status = read_chunked_head(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        started_tx.send(()).expect("signal the probe");
        let mut scored = 0;
        while let Some(chunk) = read_chunk(&mut reader) {
            scored += chunk.matches("{\"score\":").count();
        }
        (Instant::now(), scored)
    });
    // Probe once the stream's response has started: its lines are being
    // scored from here on.
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stream response started");
    let (status, reply) = exchange(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let probed = Instant::now();
    assert_eq!(status, 200, "{reply}");
    let (ended, scored) = streamer.join().expect("stream thread");
    assert_eq!(scored, lines, "every line scored");
    assert!(
        probed < ended,
        "/healthz answered {:?} after the stream's last chunk",
        probed - ended
    );
    server.stop();
}

/// The first coordinate that makes [`Sentinel`] panic.
const SENTINEL: f64 = 666.0;

/// A fake remote engine: scores a row as the sum of its values, and
/// panics on any batch holding a row that starts with [`SENTINEL`].
#[derive(Debug)]
struct Sentinel;

impl RemoteEngine for Sentinel {
    fn score_rows(&self, rows: &[Vec<f64>]) -> RemoteBatch {
        assert!(
            rows.iter().all(|r| r[0] != SENTINEL),
            "sentinel row reached the engine"
        );
        RemoteBatch {
            results: rows.iter().map(|r| Ok(r.iter().sum())).collect(),
            partial: false,
        }
    }
    fn n(&self) -> usize {
        10
    }
    fn d(&self) -> usize {
        2
    }
    fn subspace_count(&self) -> usize {
        1
    }
    fn shard_count(&self) -> usize {
        1
    }
}

/// A panic inside the engine fails its own batch — `500` for a `/score`
/// body, an in-stream error line for a stream read — and the one batch
/// worker keeps scoring what comes next.
#[test]
fn a_scoring_panic_fails_only_its_batch() {
    let server = start(
        Engine::Remote(Arc::new(Sentinel) as Arc<dyn RemoteEngine>),
        config(),
    );
    let (status, reply) = post_score(server.addr, r#"{"point": [666, 1]}"#);
    assert_eq!(status, 500, "{reply}");
    assert!(reply.contains("panicked"), "{reply}");
    let (status, reply) = post_score(server.addr, r#"{"point": [1, 2]}"#);
    assert_eq!((status, reply.as_str()), (200, "{\"score\":3}"));

    let mut stream = connect(server.addr);
    stream
        .write_all(
            b"POST /v2/score HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n8\r\n[666,1]\n\r\n",
        )
        .expect("send sentinel line");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let status = read_chunked_head(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let failed = read_chunk(&mut reader).expect("error line");
    assert!(failed.starts_with("{\"line\":1,\"error\":"), "{failed}");
    assert!(failed.contains("panicked"), "{failed}");
    stream
        .write_all(b"6\r\n[1,2]\n\r\n0\r\n\r\n")
        .expect("send next line");
    assert_eq!(read_chunk(&mut reader).as_deref(), Some("{\"score\":3}\n"));
    assert_eq!(read_chunk(&mut reader), None);

    let text = metrics(server.addr);
    assert_eq!(
        series(&text, "hics_panics_total{site=\"batch\"}"),
        Some(2),
        "{text}"
    );
    server.stop();
}
