//! Minimal HTTP/1.1 codec for the serving core — hand-rolled, no
//! registry dependencies, and sans-I/O: nothing here touches a socket.
//!
//! Supports what the scoring service needs: request line + headers,
//! `Content-Length` and `Transfer-Encoding: chunked` bodies, persistent
//! connections (HTTP/1.1 keep-alive semantics), and bounded header/body
//! sizes so a hostile peer cannot make the server buffer unbounded input.
//! The reactor accumulates a request head and hands it to
//! [`parse_head_bytes`]; bodies are then consumed by the connection state
//! machine (sized bodies directly, `/v2/score` streams through its
//! incremental NDJSON decoder, which reports [`BodyError`]s). Responses
//! render into any [`Write`] — in practice the connection's in-memory
//! outbound buffer — and those of unknown length go out chunked via
//! [`write_chunked_head`] / [`write_chunk`] / [`finish_chunked`].

use std::io::Write;

/// Upper bound on request head (request line + headers) bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on request body bytes (a 64 MB batch of points is far above
/// any sane scoring request).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed request head: everything before the body.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query strings are not split off; the service
    /// has no query parameters).
    pub path: String,
    /// Declared `Content-Length`, if any.
    pub content_length: Option<usize>,
    /// Whether the body uses `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or an HTTP/1.0 request without
    /// `keep-alive`).
    pub close: bool,
    /// Parsed `x-hics-trace` header (`trace_id`, `parent span_id`), if the
    /// client sent a well-formed one. Malformed values are ignored rather
    /// than rejected — tracing must never fail a scoring request.
    pub trace: Option<(u64, u64)>,
}

/// A request head that is not valid HTTP: the status line and message to
/// answer with before closing.
#[derive(Debug)]
pub struct RequestError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Human-readable reason for the error body.
    pub msg: String,
}

/// Parses one fully buffered request head (request line + headers, through
/// the terminating blank line). The reactor calls this once it has
/// accumulated a complete head of at most [`MAX_HEAD_BYTES`].
pub(crate) fn parse_head_bytes(head: &[u8]) -> Result<RequestHead, RequestError> {
    let head = std::str::from_utf8(head).map_err(|_| RequestError {
        status: 400,
        msg: "request head is not UTF-8".into(),
    })?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
            (m.to_string(), p.to_string(), v)
        }
        _ => {
            return Err(RequestError {
                status: 400,
                msg: format!("malformed request line {request_line:?}"),
            })
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError {
            status: 505,
            msg: format!("unsupported protocol {version:?}"),
        });
    }

    let mut content_length: Option<usize> = None;
    let mut connection = String::new();
    let mut chunked = false;
    let mut trace = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError {
                status: 400,
                msg: format!("malformed header {line:?}"),
            });
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value.parse().map_err(|_| RequestError {
                    status: 400,
                    msg: format!("bad Content-Length {value:?}"),
                })?;
                content_length = Some(n);
            }
            "connection" => connection = value.to_ascii_lowercase(),
            "transfer-encoding" => chunked = value.to_ascii_lowercase().contains("chunked"),
            "x-hics-trace" => trace = hics_obs::trace::parse_header(value),
            _ => {}
        }
    }
    let close = match version {
        "HTTP/1.0" => connection != "keep-alive",
        _ => connection == "close",
    };
    Ok(RequestHead {
        method,
        path,
        content_length,
        chunked,
        close,
        trace,
    })
}

/// Why decoding a streaming request body failed.
#[derive(Debug)]
pub enum BodyError {
    /// The chunked framing is malformed or the body ended prematurely —
    /// the connection cannot be resynchronised and must close.
    Protocol(String),
    /// The body exceeded the decoder's byte budget. Enforced on **every**
    /// consumed byte (framing overhead included), so even a body with no
    /// newlines at all cannot push past the budget.
    TooLarge {
        /// The configured budget.
        limit: usize,
    },
}

impl std::fmt::Display for BodyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BodyError::Protocol(msg) => write!(f, "{msg}"),
            BodyError::TooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte stream limit")
            }
        }
    }
}

/// Writes one response with a JSON body and flushes the stream.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    write_response_traced(stream, status, "application/json", body, close, None)
}

/// [`write_response`] with an explicit `Content-Type` (the `/metrics`
/// endpoint answers Prometheus text exposition, everything else JSON) and
/// an optional `x-hics-trace` echo. With `trace: None` the emitted bytes
/// are **identical** to the untraced writer — the wire contract with
/// tracing disabled rides on that.
pub fn write_response_traced<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    trace: Option<&str>,
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let connection = if close { "close" } else { "keep-alive" };
    let trace_line = match trace {
        Some(value) => format!("x-hics-trace: {value}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         {trace_line}\
         Connection: {connection}\r\n\
         \r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Starts a chunked (unknown-length) response: status line + headers. Each
/// payload piece then goes out via [`write_chunk`]; [`finish_chunked`]
/// terminates the body.
pub fn write_chunked_head<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    close: bool,
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\n\
         Connection: {connection}\r\n\
         \r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one non-empty chunk and flushes, so each streamed line reaches
/// the client immediately.
pub fn write_chunk<S: Write>(stream: &mut S, data: &[u8]) -> std::io::Result<()> {
    debug_assert!(!data.is_empty(), "an empty chunk would terminate the body");
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response body.
pub fn finish_chunked<S: Write>(stream: &mut S) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// The reason phrases for the statuses the service emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Formats a JSON error body `{"error": "..."}`.
pub fn error_body(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len() + 12);
    out.push_str("{\"error\":");
    crate::json::escape_string(&mut out, msg);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<RequestHead, RequestError> {
        parse_head_bytes(raw.as_bytes())
    }

    #[test]
    fn parses_get_without_body() {
        let h = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(h.method, "GET");
        assert_eq!(h.path, "/healthz");
        assert_eq!(h.content_length, None);
        assert!(!h.chunked);
        assert!(!h.close);
    }

    #[test]
    fn parses_post_with_body_and_connection_close() {
        let h = parse("POST /score HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert_eq!(h.method, "POST");
        assert_eq!(h.content_length, Some(9));
        assert!(h.close);
    }

    #[test]
    fn http10_defaults_to_close() {
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().close);
        let h = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!h.close);
    }

    #[test]
    fn malformed_heads_get_400_or_505() {
        for (raw, want) in [
            ("nonsense\r\n\r\n", 400),
            ("GET /x HTTP/2.0\r\n\r\n", 505),
            ("GET /x HTTP/1.1\r\nContent-Length: zap\r\n\r\n", 400),
            ("GET x HTTP/1.1\r\n\r\n", 400),
            ("GET /x HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        ] {
            match parse(raw) {
                Err(RequestError { status, .. }) => assert_eq!(status, want, "for {raw:?}"),
                Ok(h) => panic!("{raw:?} parsed as {h:?}"),
            }
        }
        // Non-UTF-8 bytes in the head are a 400 too.
        let err = parse_head_bytes(b"GET /\xff HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(
            (err.status, err.msg.as_str()),
            (400, "request head is not UTF-8")
        );
    }

    #[test]
    fn head_reports_chunked_framing() {
        let h = parse("POST /v2/score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
        assert!(h.chunked);
        assert_eq!(h.content_length, None);
    }

    #[test]
    fn response_has_content_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn trace_header_is_parsed_and_bad_values_ignored() {
        let h = parse(
            "POST /score HTTP/1.1\r\nx-hics-trace: 00000000000000ab-00000000000000cd\r\n\
             Content-Length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(h.trace, Some((0xab, 0xcd)));
        let h = parse("POST /score HTTP/1.1\r\nX-Hics-Trace: junk\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(h.trace, None, "malformed header is ignored, not fatal");
        let h = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(h.trace, None);
    }

    /// The traced writer with no trace must produce byte-identical output
    /// to the plain writer; with a trace it only inserts the echo line.
    #[test]
    fn traced_writer_is_byte_identical_without_a_trace() {
        let mut plain = Vec::new();
        write_response(&mut plain, 200, "{}", false).unwrap();
        let mut untraced = Vec::new();
        write_response_traced(&mut untraced, 200, "application/json", "{}", false, None).unwrap();
        assert_eq!(plain, untraced);

        let mut traced = Vec::new();
        write_response_traced(
            &mut traced,
            200,
            "application/json",
            "{}",
            false,
            Some("ab-cd"),
        )
        .unwrap();
        let text = String::from_utf8(traced).unwrap();
        assert!(text.contains("x-hics-trace: ab-cd\r\n"), "{text}");
        assert_eq!(
            text.replace("x-hics-trace: ab-cd\r\n", "").into_bytes(),
            plain
        );
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(
            error_body("bad \"thing\""),
            "{\"error\":\"bad \\\"thing\\\"\"}"
        );
    }

    #[test]
    fn chunked_response_round_trips() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/x-ndjson", false).unwrap();
        write_chunk(&mut out, b"{\"score\":1}\n").unwrap();
        write_chunk(&mut out, b"{\"score\":2}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("c\r\n{\"score\":1}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
