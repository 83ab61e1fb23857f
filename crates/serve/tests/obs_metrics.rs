//! End-to-end observability: drive a live server over real TCP and check
//! that `/metrics` serves Prometheus text exposition whose counters exactly
//! reconcile with the traffic sent, that `/stats` and `/metrics` agree
//! (they render the same registry), and that turning instrumentation off
//! leaves every wire response byte-identical.

use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
    ScorerSpec,
};
use hics_data::SyntheticConfig;
use hics_outlier::QueryEngine;
use hics_serve::{ServeConfig, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

struct RunningServer {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

impl RunningServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

fn engine() -> QueryEngine {
    let g = SyntheticConfig::new(80, 3).with_seed(11).generate();
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

fn start_server(config: ServeConfig) -> RunningServer {
    let server = Server::bind(engine(), config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    RunningServer {
        addr,
        handle,
        thread,
    }
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        max_batch: 16,
        workers: 1,
        keep_alive: Duration::from_secs(5),
        max_connections: 16,
        ..ServeConfig::default()
    }
}

/// One full HTTP/1.1 exchange on a fresh connection; returns status,
/// headers and body (Content-Length framing).
fn exchange(addr: std::net::SocketAddr, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head");
        assert!(n > 0, "connection closed mid-head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).expect("utf-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_owned)
        })
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

fn post_score(addr: std::net::SocketAddr, json_body: &str) -> (u16, String, String) {
    let request = format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        json_body.len(),
        json_body
    );
    exchange(addr, &request)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// The value of a single-line metric (no labels) in exposition text.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not in exposition:\n{text}"))
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an integer"))
}

#[test]
fn metrics_reconcile_with_traffic_and_match_stats() {
    let server = start_server(test_config());

    const N: u64 = 7;
    let mut rows = 0u64;
    for i in 0..N {
        let body = if i % 2 == 0 {
            rows += 1;
            r#"{"point": [0.5, 0.5, 0.5]}"#.to_string()
        } else {
            rows += 2;
            r#"{"points": [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]]}"#.to_string()
        };
        let (status, _, reply) = post_score(server.addr, &body);
        assert_eq!(status, 200, "{reply}");
    }

    // One short NDJSON stream: 2 scored lines, 1 in-stream error.
    {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        let body = "[0.1,0.2,0.3]\n[0.4,0.5,0.6]\nnot json\n";
        let request = format!(
            "POST /v2/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(request.as_bytes()).expect("send stream");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read stream");
        assert_eq!(out.matches("{\"score\":").count(), 2, "{out}");
        assert_eq!(out.matches("\"error\":").count(), 1, "{out}");
    }

    let (status, head, text) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );

    // Exact reconciliation: every scoring request and row is accounted for.
    assert_eq!(metric_value(&text, "hics_requests_total"), N);
    assert_eq!(metric_value(&text, "hics_rows_total"), rows);
    assert_eq!(metric_value(&text, "hics_streams_total"), 1);
    assert_eq!(metric_value(&text, "hics_stream_lines_total"), 2);
    assert_eq!(metric_value(&text, "hics_stream_errors_total"), 1);
    assert_eq!(metric_value(&text, "hics_batch_size_count"), N);
    assert!(metric_value(&text, "hics_connections_accepted_total") > N);
    // The index-query counter is registered when the server binds; its
    // per-server value is pinned by the `per_server_metrics` suite.
    assert!(text.contains("# TYPE hics_index_queries_total counter"));

    // The stage histograms carry quantile lines for every lifecycle stage.
    for stage in ["head_parse", "body", "enqueue", "score", "flush"] {
        assert!(
            text.contains(&format!(
                "hics_request_stage_seconds{{stage=\"{stage}\",quantile=\"0.999\"}}"
            )),
            "missing stage {stage}:\n{text}"
        );
    }
    assert!(
        metric_value(&text, "hics_request_seconds_count") >= N,
        "{text}"
    );

    // Reactor byte accounting is live on both serving paths (the epoll
    // reactors report per-reactor; the blocking fallback reports all its
    // traffic as reactor 0): after real traffic, the summed labeled
    // series must be non-zero in both directions.
    for direction in [
        "hics_reactor_bytes_in_total",
        "hics_reactor_bytes_out_total",
    ] {
        let total: u64 = text
            .lines()
            .filter(|l| l.starts_with(&format!("{direction}{{")))
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("unparsable series: {l}"))
            })
            .sum();
        assert!(total > 0, "{direction} recorded no traffic:\n{text}");
    }

    // `/stats` is a rendering of the same registry: its counters agree.
    let (status, _, stats) = get(server.addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.contains(&format!("\"requests\":{N}")), "{stats}");
    assert!(stats.contains(&format!("\"rows\":{rows}")), "{stats}");
    assert!(
        stats.contains("\"streams\":{\"opened\":1,\"lines\":2,\"errors\":1}"),
        "{stats}"
    );

    server.stop();
}

#[test]
fn instrumentation_off_leaves_wire_responses_identical() {
    let on = start_server(test_config());
    let off = start_server(ServeConfig {
        instrument: false,
        ..test_config()
    });

    for body in [
        r#"{"point": [0.5, 0.5, 0.5]}"#,
        r#"{"points": [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]]}"#,
        r#"{"points": [[1, 2]]}"#,
    ] {
        let (s1, _, b1) = post_score(on.addr, body);
        let (s2, _, b2) = post_score(off.addr, body);
        assert_eq!((s1, &b1), (s2, &b2), "wire response changed: {body}");
    }
    let (s1, _, b1) = get(on.addr, "/healthz");
    let (s2, _, b2) = get(off.addr, "/healthz");
    assert_eq!((s1, b1), (s2, b2));

    // Counters stay live with instrumentation off; only the timeline
    // stops. The bad-arity body fails validation before the batcher sees
    // it, so two of the three bodies count as scoring requests.
    let (status, _, text) = get(off.addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric_value(&text, "hics_requests_total"), 2);
    assert_eq!(metric_value(&text, "hics_request_seconds_count"), 0);

    on.stop();
    off.stop();
}
