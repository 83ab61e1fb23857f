//! Client-side HTTP/1.1: persistent keep-alive connections and per-address
//! connection pools, speaking the same wire protocol [`crate::server`]
//! serves. This is the transport under the `hics route` scatter-gather
//! tier — the router talks to `hics serve` backends through [`Pool`]s, one
//! per replica, so a steady query stream reuses warm connections instead
//! of paying a dial per fan-out.
//!
//! Responses are `Content-Length`-framed only (every non-streaming server
//! endpoint frames that way); a chunked response is a protocol error here.
//! Scoring rows are rendered with [`json::write_f64`] — the shortest
//! round-trip form — so an `f64` crosses the wire bit-for-bit and a
//! routed ensemble fold matches the in-process one exactly.

use crate::http::MAX_BODY_BYTES;
use crate::json;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Hard cap on a response head (status line + headers).
const MAX_RESPONSE_HEAD: usize = 16 * 1024;

/// Read granularity while accumulating a response.
const READ_CHUNK: usize = 4096;

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
    /// Whether the server left the connection open for reuse.
    pub keep_alive: bool,
}

impl Response {
    /// The body as UTF-8, for JSON endpoints.
    pub fn text(&self) -> std::io::Result<&str> {
        std::str::from_utf8(&self.body).map_err(|_| other("response body is not UTF-8"))
    }
}

fn other(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// Parses a response head (everything through the blank line): status
/// code, content length, keep-alive verdict.
fn parse_response_head(head: &[u8]) -> std::io::Result<(u16, usize, bool)> {
    let text = std::str::from_utf8(head).map_err(|_| other("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(other(format!("bad status line {status_line:?}")));
    }
    let status: u16 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| other(format!("bad status line {status_line:?}")))?;
    let mut len = 0usize;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value
                .parse()
                .map_err(|_| other(format!("bad Content-Length {value:?}")))?;
            // The body buffer is sized from this header, so a peer must
            // not be able to make it unbounded.
            if len > MAX_BODY_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response Content-Length {len} exceeds limit {MAX_BODY_BYTES}"),
                ));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(other("chunked responses are not supported here"));
        }
    }
    Ok((status, len, keep_alive))
}

/// One persistent client connection.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
}

impl ClientConn {
    /// Dials `addr` (e.g. `127.0.0.1:7878`) within `timeout`.
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<Self> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| other(format!("{addr} resolves to no address")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request and reads its response. `timeout` bounds each
    /// socket read and write (not the whole exchange — callers enforce
    /// end-to-end deadlines by retrying/hedging above this layer).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> std::io::Result<Response> {
        self.request_traced(method, path, body, timeout, None)
    }

    /// [`ClientConn::request`] with an optional `x-hics-trace` header —
    /// how a routed request's trace context crosses to the backend. With
    /// `trace: None` the request bytes are identical to the plain form.
    pub fn request_traced(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
        trace: Option<&str>,
    ) -> std::io::Result<Response> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        let body = body.unwrap_or("");
        let mut req = String::with_capacity(96 + body.len());
        req.push_str(method);
        req.push(' ');
        req.push_str(path);
        req.push_str(" HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: ");
        req.push_str(&body.len().to_string());
        req.push_str("\r\n");
        if let Some(value) = trace {
            req.push_str("x-hics-trace: ");
            req.push_str(value);
            req.push_str("\r\n");
        }
        req.push_str("\r\n");
        req.push_str(body);
        self.stream.write_all(req.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            if buf.len() > MAX_RESPONSE_HEAD {
                return Err(other("response head too large"));
            }
            let mut tmp = [0u8; READ_CHUNK];
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&tmp[..n]);
        };
        let (status, len, keep_alive) = parse_response_head(&buf[..head_end])?;
        // Whatever the head read over-pulled is the body prefix.
        let mut body = buf.split_off(head_end);
        if body.len() < len {
            let start = body.len();
            body.resize(len, 0);
            self.stream.read_exact(&mut body[start..])?;
        } else {
            body.truncate(len);
        }
        Ok(Response {
            status,
            body,
            keep_alive,
        })
    }
}

/// A keep-alive connection pool for one address. Idle connections are
/// capped; a request prefers a pooled connection and transparently
/// re-dials when the pooled one has gone stale (the server timed it out
/// or died between uses) — one fresh attempt, so a dead backend still
/// fails fast.
#[derive(Debug)]
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<ClientConn>>,
    cap: usize,
}

impl Pool {
    /// A pool for `addr` keeping at most `cap` idle connections.
    pub fn new(addr: impl Into<String>, cap: usize) -> Self {
        Self {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// The pooled address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Idle connections currently parked (the `/route` pool depth).
    pub fn depth(&self) -> usize {
        self.idle.lock().expect("pool").len()
    }

    fn take_idle(&self) -> Option<ClientConn> {
        self.idle.lock().expect("pool").pop()
    }

    fn put(&self, conn: ClientConn) {
        let mut idle = self.idle.lock().expect("pool");
        if idle.len() < self.cap {
            idle.push(conn);
        }
    }

    /// Drops every idle connection (e.g. after the backend was evicted).
    pub fn drain(&self) {
        self.idle.lock().expect("pool").clear();
    }

    /// One request/response exchange against the pooled address. A stale
    /// pooled connection costs one silent retry on a fresh dial; errors
    /// returned here are from a fresh connection and therefore real.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> std::io::Result<Response> {
        self.request_traced(method, path, body, timeout, None)
    }

    /// [`Pool::request`] carrying an optional `x-hics-trace` header.
    pub fn request_traced(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
        trace: Option<&str>,
    ) -> std::io::Result<Response> {
        if let Some(mut conn) = self.take_idle() {
            if let Ok(resp) = conn.request_traced(method, path, body, timeout, trace) {
                if resp.keep_alive {
                    self.put(conn);
                }
                return Ok(resp);
            }
        }
        let mut conn = ClientConn::connect(&self.addr, timeout)?;
        let resp = conn.request_traced(method, path, body, timeout, trace)?;
        if resp.keep_alive {
            self.put(conn);
        }
        Ok(resp)
    }
}

/// Renders rows as a `POST /score` batch body. Values are written in
/// their shortest round-trip form, so the backend parses back the exact
/// `f64`s the router holds.
pub fn format_points_body(rows: &[Vec<f64>]) -> String {
    let mut out = String::with_capacity(16 + rows.len() * 24);
    out.push_str("{\"points\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, *v);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A tiny canned server: for each accepted connection, answers every
    /// request with the queued bodies in order, then closes.
    fn canned_server(replies_per_conn: Vec<Vec<String>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for replies in replies_per_conn {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                for body in replies {
                    // Consume one request: head, then Content-Length bytes.
                    let mut len = 0usize;
                    loop {
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap() == 0 {
                            return;
                        }
                        if let Some(v) = line
                            .to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::trim)
                        {
                            len = v.parse().unwrap();
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let mut sink = vec![0u8; len];
                    reader.read_exact(&mut sink).unwrap();
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    )
                    .unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn parse_response_head_extracts_status_length_and_keepalive() {
        let (status, len, keep) =
            parse_response_head(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n").unwrap();
        assert_eq!((status, len, keep), (200, 12, true));
        let (status, _, keep) =
            parse_response_head(b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\n\r\n")
                .unwrap();
        assert_eq!((status, keep), (503, false));
        assert!(parse_response_head(b"SMTP nope\r\n\r\n").is_err());
        assert!(
            parse_response_head(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n").is_err()
        );
    }

    /// A response declaring a body past the limit is refused before any
    /// buffer is sized from it — `u64::MAX` must not panic the caller.
    #[test]
    fn oversized_response_content_length_is_invalid_data() {
        for len in [u64::MAX, MAX_BODY_BYTES as u64 + 1] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let replica = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                    line.clear();
                }
                write!(stream, "HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n").unwrap();
            });
            let t = Duration::from_secs(5);
            let mut conn = ClientConn::connect(&addr, t).unwrap();
            let err = conn.request("GET", "/model", None, t).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            replica.join().unwrap();
        }
    }

    #[test]
    fn pool_reuses_keepalive_connections() {
        let (addr, handle) = canned_server(vec![vec!["{\"a\":1}".into(), "{\"b\":2}".into()]]);
        let pool = Pool::new(addr, 4);
        let t = Duration::from_secs(5);
        let r1 = pool
            .request("POST", "/score", Some("{\"point\":[1]}"), t)
            .unwrap();
        assert_eq!(r1.status, 200);
        assert_eq!(r1.text().unwrap(), "{\"a\":1}");
        assert_eq!(pool.depth(), 1, "connection parked for reuse");
        let r2 = pool.request("GET", "/model", None, t).unwrap();
        assert_eq!(r2.text().unwrap(), "{\"b\":2}");
        assert_eq!(pool.depth(), 1, "same connection reused, not re-dialed");
        drop(pool);
        handle.join().unwrap();
    }

    #[test]
    fn pool_redials_when_the_pooled_connection_went_stale() {
        // Connection 1 serves one reply then closes; connection 2 serves
        // the retry.
        let (addr, handle) =
            canned_server(vec![vec!["{\"a\":1}".into()], vec!["{\"b\":2}".into()]]);
        let pool = Pool::new(addr, 4);
        let t = Duration::from_secs(5);
        let r1 = pool.request("GET", "/model", None, t).unwrap();
        assert_eq!(r1.text().unwrap(), "{\"a\":1}");
        assert_eq!(pool.depth(), 1);
        // The server has since torn the pooled socket down; the next
        // request silently falls back to a fresh dial.
        let r2 = pool.request("GET", "/model", None, t).unwrap();
        assert_eq!(r2.text().unwrap(), "{\"b\":2}");
        handle.join().unwrap();
    }

    #[test]
    fn points_body_round_trips_f64_exactly() {
        let rows = vec![vec![0.1, 2.0 / 3.0], vec![f64::MIN_POSITIVE, -1.5e300]];
        let body = format_points_body(&rows);
        let doc = json::parse(&body).unwrap();
        let parsed = doc.get("points").unwrap().as_array().unwrap();
        for (i, row) in rows.iter().enumerate() {
            let got = parsed[i].as_array().unwrap();
            for (j, v) in row.iter().enumerate() {
                assert_eq!(
                    got[j].as_f64().unwrap().to_bits(),
                    v.to_bits(),
                    "row {i} col {j}"
                );
            }
        }
    }
}
