//! The serving core's error statuses on the wire. Each case writes raw
//! request bytes to a live server and asserts the complete response — the
//! status line, the exact JSON error body, `Connection: close` — and that
//! the server then closes the socket. A clean half-close between requests
//! is the one close that answers nothing.

use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
    ScorerSpec,
};
use hics_data::SyntheticConfig;
use hics_outlier::QueryEngine;
use hics_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Request-head bound of the serving core (16 KiB).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Request-body bound of the serving core (64 MiB).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

fn engine() -> QueryEngine {
    let g = SyntheticConfig::new(60, 3).with_seed(2).generate();
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

/// Starts a one-reactor server, sends `raw` on a fresh connection
/// (half-closing the write side when `half_close`), and returns every byte
/// the server wrote before it closed the socket.
fn exchange(raw: &[u8], half_close: bool) -> Vec<u8> {
    let server = Server::bind(
        engine(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            reactor_threads: 1,
            keep_alive: Duration::from_secs(5),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("send request");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut got = Vec::new();
    // Returns only once the server closed the connection (EOF); a server
    // that kept it open would trip the read timeout instead.
    let read = stream.read_to_end(&mut got);
    shutdown.shutdown();
    thread.join().expect("server thread");
    read.expect("server closes the socket");
    got
}

/// Checks the response to `raw` is exactly the given JSON error, followed
/// by the server closing the connection.
fn assert_error_then_close(raw: &[u8], half_close: bool, status: &str, body: &str) {
    let want = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    assert_eq!(String::from_utf8_lossy(&exchange(raw, half_close)), want);
}

/// A half-close between requests is a clean end of the connection: the
/// completed request is answered, and nothing more is written.
#[test]
fn half_close_between_requests_closes_silently() {
    let body = r#"{"status":"ok"}"#;
    let want = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let got = exchange(b"GET /healthz HTTP/1.1\r\n\r\n", true);
    assert_eq!(String::from_utf8_lossy(&got), want);
}

/// A head one byte past the bound, its terminator never sent. The request
/// is exactly that long so the server reads every byte before it closes
/// (unread input would turn the close into a reset).
#[test]
fn oversized_head_is_431() {
    let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(MAX_HEAD_BYTES + 1, b'a');
    assert_error_then_close(
        &head,
        false,
        "431 Request Header Fields Too Large",
        r#"{"error":"request head too large"}"#,
    );
}

/// A declared body past the 64 MiB bound is rejected on the head alone.
#[test]
fn oversized_content_length_is_413() {
    let over = MAX_BODY_BYTES + 1;
    assert_error_then_close(
        format!("POST /score HTTP/1.1\r\nContent-Length: {over}\r\n\r\n").as_bytes(),
        false,
        "413 Payload Too Large",
        &format!(r#"{{"error":"body of {over} bytes exceeds limit {MAX_BODY_BYTES}"}}"#),
    );
}

/// Classic endpoints take sized bodies only.
#[test]
fn chunked_score_is_411() {
    assert_error_then_close(
        b"POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        false,
        "411 Length Required",
        r#"{"error":"chunked bodies are not supported; send Content-Length"}"#,
    );
}

/// Anything but HTTP/1.0 and HTTP/1.1.
#[test]
fn http2_request_line_is_505() {
    assert_error_then_close(
        b"GET /healthz HTTP/2.0\r\n\r\n",
        false,
        "505 HTTP Version Not Supported",
        r#"{"error":"unsupported protocol \"HTTP/2.0\""}"#,
    );
}

/// A request line that is not `METHOD /path VERSION`.
#[test]
fn malformed_request_line_is_400() {
    assert_error_then_close(
        b"nonsense\r\n\r\n",
        false,
        "400 Bad Request",
        r#"{"error":"malformed request line \"nonsense\""}"#,
    );
}

/// The peer half-closes before its declared body arrived.
#[test]
fn half_close_mid_body_is_400() {
    assert_error_then_close(
        b"POST /score HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        true,
        "400 Bad Request",
        r#"{"error":"connection closed mid-body"}"#,
    );
}
