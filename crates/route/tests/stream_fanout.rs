//! A routed `/v2/score` stream fans out once per socket read, not once
//! per line: the lines of one read ride one batcher job, so each backend
//! sees far fewer `/score` requests than the stream has lines — and the
//! streamed bytes still match in-process serving.

mod common;

use common::*;
use hics_data::manifest::ShardAggregation;
use hics_outlier::{QueryEngine, ShardedEngine};
use hics_route::RouterConfig;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// The `/score` requests a backend has counted so far.
fn score_requests(addr: SocketAddr) -> u64 {
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    text.lines()
        .find_map(|l| l.strip_prefix("hics_requests_total "))
        .and_then(|v| v.parse().ok())
        .expect("hics_requests_total")
}

#[test]
fn a_routed_stream_sent_in_one_write_fans_out_per_read() {
    let (manifest_path, models) = write_ensemble("stream-fanout", ShardAggregation::Mean);
    let backends: Vec<RunningServer> = models
        .iter()
        .map(|m| start_backend(QueryEngine::from_model(m, 1)))
        .collect();
    let in_process = start_backend(ShardedEngine::open(&manifest_path, None, 2).expect("open"));
    let (router_server, _router) = start_router(
        &manifest_path,
        &backends.iter().collect::<Vec<_>>(),
        RouterConfig::default(),
    );

    const LINES: usize = 50;
    let payload: String = (0..LINES)
        .map(|i| {
            let t = i as f64 / LINES as f64;
            ndjson_line(&[t, 0.5, 1.0 - t])
        })
        .collect();
    let stream_through = |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!(
            "POST /v2/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len(),
        );
        stream.write_all(request.as_bytes()).expect("send");
        read_chunked_response(&mut stream)
    };

    let before: Vec<u64> = backends.iter().map(|b| score_requests(b.addr)).collect();
    let want = stream_through(in_process.addr);
    let got = stream_through(router_server.addr);
    assert_eq!(want.0, 200);
    assert_eq!(got, want, "routed stream bytes match in-process serving");
    assert_eq!(got.1.lines().count(), LINES);
    for (k, (backend, before)) in backends.iter().zip(before).enumerate() {
        let sent = score_requests(backend.addr) - before;
        assert!(
            (1..LINES as u64).contains(&sent),
            "backend {k} got {sent} /score requests for a {LINES}-line stream"
        );
    }

    router_server.stop();
    in_process.stop();
    for b in backends {
        b.stop();
    }
}
