//! Closed-loop HTTP load from one client thread over a few keep-alive
//! connections. Each connection has one request in flight: its next
//! request goes out only after its previous answer is read, so a slow
//! server receives less load. Answers are read in connection order; the
//! server answers in arrival order, so that order matches.

use crate::procfs;
use crate::trace::Trace;
use hics_serve::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-socket read/write timeout: a request that takes longer counts as
/// failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One prebuilt `POST /score` request over the query rows
/// `first..first + rows`.
pub struct Template {
    pub bytes: Vec<u8>,
    pub first: usize,
    pub rows: usize,
}

impl Template {
    /// Frames `body` as a `POST /score` request.
    pub fn score(body: &str, first: usize, rows: usize) -> Self {
        let bytes = format!(
            "POST /score HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Self { bytes, first, rows }
    }

    /// The JSON body after the head.
    pub fn body(&self) -> &str {
        let text = std::str::from_utf8(&self.bytes).expect("request is UTF-8");
        &text[text.find("\r\n\r\n").expect("request head") + 4..]
    }
}

/// Progress at a sub-window boundary: seconds since the start, process
/// CPU seconds, points scored and requests answered so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mark {
    pub at_s: f64,
    pub cpu_s: f64,
    pub points: u64,
    pub answered: usize,
}

/// What one measured (or warm-up) stretch of load saw.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Latency of every answered request in answer order, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// The start, every sub-window boundary and the end.
    pub marks: Vec<Mark>,
    pub sent: u64,
    pub failed: u64,
    pub points: u64,
    pub threads_max: u64,
    /// First served score of each query row, as bits.
    pub scores: Vec<Option<u64>>,
    /// Served scores that differed from an earlier answer for the same row.
    pub mismatches: u64,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    template: usize,
    sent_at: Instant,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// Reads one `Content-Length` response; returns its status and body.
fn read_response(conn: &mut Conn) -> std::io::Result<(u16, String)> {
    let mut tmp = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = conn.buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = conn.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        conn.buf.extend_from_slice(&tmp[..n]);
    };
    let head = std::str::from_utf8(&conn.buf[..head_end]).map_err(std::io::Error::other)?;
    let status = head
        .get(9..12)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| std::io::Error::other("no Content-Length"))?;
    while conn.buf.len() < head_end + len {
        let n = conn.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        conn.buf.extend_from_slice(&tmp[..n]);
    }
    let body = String::from_utf8_lossy(&conn.buf[head_end..head_end + len]).into_owned();
    conn.buf.drain(..head_end + len);
    Ok((status, body))
}

/// The scores in a `{"score": s}` or `{"scores": [...]}` answer.
fn parse_scores(body: &str) -> Option<Vec<f64>> {
    let doc = json::parse(body).ok()?;
    if let Some(s) = doc.get("score") {
        return Some(vec![s.as_f64()?]);
    }
    doc.get("scores")?
        .as_array()?
        .iter()
        .map(json::Json::as_f64)
        .collect()
}

/// Drives `conns` connections for `seconds`, cycling through `templates`,
/// marking progress every `seconds / subwindows`. With a trace, each
/// request becomes a root span (request id = its answer sequence number)
/// with its answer parse as a child.
pub fn run(
    addr: SocketAddr,
    templates: &[Template],
    query_count: usize,
    conns: usize,
    seconds: f64,
    subwindows: usize,
    trace: Option<&Trace>,
) -> LoadResult {
    let mut out = LoadResult {
        scores: vec![None; query_count],
        ..LoadResult::default()
    };
    let mut next = 0usize;
    let mut open: Vec<Conn> = (0..conns)
        .map(|_| Conn {
            stream: connect(addr).expect("connect to server"),
            buf: Vec::new(),
            template: 0,
            sent_at: Instant::now(),
        })
        .collect();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let sub_s = seconds / subwindows.max(1) as f64;
    out.marks.push(Mark {
        cpu_s: procfs::cpu_seconds(),
        ..Mark::default()
    });
    let mut in_flight = vec![false; conns];
    let send = |c: &mut Conn, next: &mut usize, out: &mut LoadResult| -> bool {
        c.template = *next % templates.len();
        *next += 1;
        c.sent_at = Instant::now();
        out.sent += 1;
        match c.stream.write_all(&templates[c.template].bytes) {
            Ok(()) => true,
            Err(_) => {
                out.failed += 1;
                false
            }
        }
    };
    for (c, flag) in open.iter_mut().zip(in_flight.iter_mut()) {
        *flag = send(c, &mut next, &mut out);
    }
    while in_flight.iter().any(|&f| f) {
        for (i, c) in open.iter_mut().enumerate() {
            if !in_flight[i] {
                continue;
            }
            in_flight[i] = false;
            let result = read_response(c);
            let done = Instant::now();
            let t = &templates[c.template];
            let ok = match result {
                Ok((200, body)) => {
                    let parse_at = Instant::now();
                    let scores = parse_scores(&body);
                    if let Some(tr) = trace {
                        let req = out.lat_ns.len() as u64;
                        let end = Instant::now();
                        let root = tr.record("client.request", c.sent_at, end, None, req);
                        tr.record("client.parse", parse_at, end, Some(root), req);
                    }
                    match scores {
                        Some(s) if s.len() == t.rows => {
                            for (k, v) in s.iter().enumerate() {
                                let slot = &mut out.scores[t.first + k];
                                match slot {
                                    None => *slot = Some(v.to_bits()),
                                    Some(prev) if *prev != v.to_bits() => out.mismatches += 1,
                                    Some(_) => {}
                                }
                            }
                            true
                        }
                        _ => false,
                    }
                }
                _ => false,
            };
            if ok {
                out.lat_ns
                    .push(done.duration_since(c.sent_at).as_nanos() as u64);
                out.points += t.rows as u64;
            } else {
                out.failed += 1;
                c.buf.clear();
                match connect(addr) {
                    Ok(s) => c.stream = s,
                    Err(_) => continue,
                }
            }
            if out.sent.is_multiple_of(64) {
                out.threads_max = out.threads_max.max(procfs::threads());
            }
            let at_s = done.duration_since(t0).as_secs_f64();
            if at_s >= sub_s * out.marks.len() as f64 && done < deadline {
                out.marks.push(Mark {
                    at_s,
                    cpu_s: procfs::cpu_seconds(),
                    points: out.points,
                    answered: out.lat_ns.len(),
                });
            }
            if done < deadline {
                in_flight[i] = send(c, &mut next, &mut out);
            }
        }
    }
    out.marks.push(Mark {
        at_s: t0.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_seconds(),
        points: out.points,
        answered: out.lat_ns.len(),
    });
    out.threads_max = out.threads_max.max(procfs::threads());
    out
}
