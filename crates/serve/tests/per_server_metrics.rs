//! Two servers in one process keep their own scoring numbers: the batch
//! worker that scores a batch records its per-shard and index-query
//! instruments into its own server's registry, so traffic on one server
//! never shows up on another's `/metrics`.

use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
    ScorerSpec,
};
use hics_data::SyntheticConfig;
use hics_obs::Registry;
use hics_outlier::{EngineHandle, QueryEngine};
use hics_serve::{ServeConfig, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A two-subspace model, so the index-query count differs from the row
/// count.
fn engine() -> QueryEngine {
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

fn start(registry: Arc<Registry>) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        workers: 1,
        keep_alive: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server =
        Server::bind_handle_with_registry(Arc::new(EngineHandle::new(engine())), config, registry)
            .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// One `Connection: close` exchange; returns the status and the body.
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    let (head, body) = reply.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
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

#[test]
fn each_server_reports_only_the_batches_it_scored() {
    let (first, first_stop, first_thread) = start(Arc::new(Registry::new()));
    let (second, second_stop, second_thread) = start(Arc::new(Registry::new()));

    const R: u64 = 5;
    let body = r#"{"points": [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.5, 0.5, 0.5], [0.3, 0.6, 0.9], [5.0, 5.0, 5.0]]}"#;
    let (status, reply) = exchange(
        first,
        &format!(
            "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "{reply}");

    let subspaces = engine().subspace_count() as u64;
    assert_eq!(subspaces, 2);
    let scored = metrics(first);
    assert_eq!(
        series(&scored, "hics_index_queries_total"),
        Some(R * subspaces),
        "{scored}"
    );
    assert_eq!(
        series(&scored, "hics_shard_rows_total{shard=\"0\"}"),
        Some(R),
        "{scored}"
    );
    assert_eq!(
        series(&scored, "hics_shard_score_seconds_count{shard=\"0\"}"),
        Some(1),
        "{scored}"
    );

    let idle = metrics(second);
    assert_eq!(series(&idle, "hics_index_queries_total"), Some(0), "{idle}");
    assert!(!idle.contains("hics_shard_rows_total"), "{idle}");
    assert!(!idle.contains("hics_shard_score_seconds"), "{idle}");

    for (stop, thread) in [(first_stop, first_thread), (second_stop, second_thread)] {
        stop.shutdown();
        thread.join().expect("server thread");
    }
}
