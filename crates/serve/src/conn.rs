//! Per-connection protocol state machines for the non-blocking reactor.
//!
//! Each connection owns a non-blocking socket and advances through one
//! state machine per HTTP exchange: accumulate a request head, pull a sized
//! body or push bytes through the incremental NDJSON [`StreamDecoder`],
//! hand `/score` rows — and each stream read's lines — to the shared
//! batcher (parking the connection until the completion fires back through
//! the reactor), and drain responses from a per-connection [`OutBuf`] via
//! vectored non-blocking writes. A reactor thread never scores.
//!
//! This is the only request path: heads go through
//! [`crate::http::parse_head_bytes`], classic bodies are collected here by
//! `Content-Length`, and `/v2/score` bodies stream through the
//! [`StreamDecoder`], whose framing, byte budget and error strings are the
//! wire contract (the unit tests below pin them as literal expectations
//! at every socket read granularity). Backpressure is explicit: when a peer
//! stops reading and the outbound buffer crosses the reactor's high-water
//! mark, the connection simply stops consuming input (interest drops to
//! `EPOLLOUT`) until the buffer drains — no thread is pinned, nothing is
//! dropped.

use crate::batch::JobKind;
use crate::http::{
    error_body, finish_chunked, parse_head_bytes, write_chunk, write_chunked_head,
    write_response_traced, BodyError, RequestError, RequestHead, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::metrics::{content_type_for, ReactorMetrics};
use crate::reactor::{Notifier, EPOLLIN, EPOLLOUT};
use crate::server::{
    begin_req_trace, dispatch, finish_req_trace, format_score_reply, parse_score_request,
    parse_stream_row, reload_endpoint, stream_line, Ctx, ReqTrace, StreamStats,
};
use hics_obs::{Stage, Timeline};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Coalesce writes smaller than this into the tail segment instead of
/// starting a new one (keeps the segment count — and the iovec count per
/// flush — low for line-at-a-time streaming responses).
const COALESCE_BYTES: usize = 8 * 1024;

/// Read granularity per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Compact the input buffer once this many consumed bytes accumulate.
const INBUF_COMPACT: usize = 64 * 1024;

/// Outcome of driving a connection: keep it registered or tear it down.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Drive {
    /// Still alive; the reactor re-computes interest from
    /// [`Conn::wanted_interest`].
    Continue,
    /// Close the socket and free the slot.
    Close,
}

// ---------------------------------------------------------------------------
// Outbound buffer
// ---------------------------------------------------------------------------

/// Per-connection outbound byte queue, drained by non-blocking vectored
/// writes. Implements [`Write`] (infallibly) so the response renderers —
/// [`write_response_traced`], [`write_chunk`], … — render straight into it.
#[derive(Default)]
pub(crate) struct OutBuf {
    segs: VecDeque<Vec<u8>>,
    front_pos: usize,
    len: usize,
}

impl OutBuf {
    /// Bytes still queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is fully drained.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops `n` bytes off the front of the queue.
    fn advance(&mut self, mut n: usize) {
        self.len -= n;
        while n > 0 {
            let remaining = self.segs[0].len() - self.front_pos;
            if n >= remaining {
                n -= remaining;
                self.segs.pop_front();
                self.front_pos = 0;
            } else {
                self.front_pos += n;
                n = 0;
            }
        }
    }

    /// Writes as much as the socket will take right now. Returns the bytes
    /// written; `WouldBlock` is progress 0, any other error is fatal.
    pub(crate) fn flush_to(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        let mut total = 0;
        while !self.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.segs.len().min(16));
            for (i, seg) in self.segs.iter().take(16).enumerate() {
                let start = if i == 0 { self.front_pos } else { 0 };
                slices.push(IoSlice::new(&seg[start..]));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => {
                    self.advance(n);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }
}

impl Write for OutBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.len += buf.len();
        match self.segs.back_mut() {
            Some(last) if last.len() + buf.len() <= COALESCE_BYTES => last.extend_from_slice(buf),
            _ => self.segs.push_back(buf.to_vec()),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Push-based NDJSON body decoder
// ---------------------------------------------------------------------------

/// One decoded event out of the [`StreamDecoder`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum StreamEvent {
    /// One complete line (terminator stripped).
    Line(Vec<u8>),
    /// A line exceeded `max_line`; it was consumed and discarded.
    TooLong,
    /// Body exhausted; carries any final unterminated line.
    End(Vec<u8>),
}

/// Decoder sub-state: where the push parser is in the body's framing.
#[derive(Debug, Clone, Copy)]
enum Dec {
    /// `Content-Length` body: bytes remaining.
    Sized(usize),
    /// Chunked: accumulating the hex size line.
    ChunkSize,
    /// Chunked: bytes remaining in the current chunk.
    ChunkData(usize),
    /// Chunked: consuming the 2-byte CRLF after a chunk (`true` once the
    /// first of the two is in).
    ChunkTerm(bool),
    /// Chunked: consuming trailer lines through the final empty one.
    Trailers,
    /// Body fully decoded.
    Done,
}

/// Incremental NDJSON body decoder: bytes are *pushed* in as they arrive
/// off the socket, line events come out. Decodes both `Content-Length` and
/// chunked framing under a byte budget charged per consumed byte (framing
/// included), so line structure cannot bypass it. Lines longer than
/// `max_line` are consumed to their end and discarded, keeping both the
/// stream in sync and the buffer bounded. Events, errors and the
/// keep-alive verdict do not depend on how the input is split across
/// calls.
pub(crate) struct StreamDecoder {
    state: Dec,
    consumed: usize,
    limit: usize,
    line: Vec<u8>,
    discarding: bool,
    sizeline: Vec<u8>,
    term_bad: bool,
    trailer_len: usize,
}

impl StreamDecoder {
    /// Decoder for `head`'s body under a hard byte budget of `limit`
    /// (framing overhead included, charged per consumed byte).
    pub(crate) fn new(head: &RequestHead, limit: usize) -> Self {
        let state = if head.chunked {
            Dec::ChunkSize
        } else {
            match head.content_length.unwrap_or(0) {
                0 => Dec::Done,
                n => Dec::Sized(n),
            }
        };
        Self {
            state,
            consumed: 0,
            limit,
            line: Vec::new(),
            discarding: false,
            sizeline: Vec::new(),
            term_bad: false,
            trailer_len: 0,
        }
    }

    /// Whether the body was fully consumed (keep-alive safe).
    pub(crate) fn finished(&self) -> bool {
        matches!(self.state, Dec::Done)
    }

    /// Runs one output byte through the line accumulator: `\n` ends a
    /// line (a preceding `\r` is stripped), and a line past `max_line` is
    /// dropped until its terminator.
    fn take_line_byte(&mut self, b: u8, max_line: usize) -> Option<StreamEvent> {
        if b == b'\n' {
            if self.discarding {
                self.discarding = false;
                return Some(StreamEvent::TooLong);
            }
            if self.line.last() == Some(&b'\r') {
                self.line.pop();
            }
            return Some(StreamEvent::Line(std::mem::take(&mut self.line)));
        }
        if !self.discarding {
            self.line.push(b);
            if self.line.len() > max_line {
                self.line.clear();
                self.discarding = true;
            }
        }
        None
    }

    /// Feeds `input`; returns how many bytes were consumed and, when a line
    /// boundary (or the end of the body) was reached, the event. `None`
    /// with full consumption means "need more bytes".
    pub(crate) fn next(
        &mut self,
        input: &[u8],
        max_line: usize,
    ) -> Result<(usize, Option<StreamEvent>), BodyError> {
        let mut used = 0;
        loop {
            if let Dec::Done = self.state {
                // Wire contract: a discarded line running to the end of
                // the body reports TooLong first; End (with any final
                // unterminated line) follows on the next call.
                if self.discarding {
                    self.discarding = false;
                    return Ok((used, Some(StreamEvent::TooLong)));
                }
                return Ok((used, Some(StreamEvent::End(std::mem::take(&mut self.line)))));
            }
            let Some(&b) = input.get(used) else {
                return Ok((used, None));
            };
            if self.consumed >= self.limit {
                return Err(BodyError::TooLarge { limit: self.limit });
            }
            self.consumed += 1;
            used += 1;
            match self.state {
                Dec::Sized(remaining) => {
                    self.state = if remaining == 1 {
                        Dec::Done
                    } else {
                        Dec::Sized(remaining - 1)
                    };
                    if let Some(ev) = self.take_line_byte(b, max_line) {
                        return Ok((used, Some(ev)));
                    }
                }
                Dec::ChunkData(remaining) => {
                    self.state = if remaining == 1 {
                        Dec::ChunkTerm(false)
                    } else {
                        Dec::ChunkData(remaining - 1)
                    };
                    if let Some(ev) = self.take_line_byte(b, max_line) {
                        return Ok((used, Some(ev)));
                    }
                }
                Dec::ChunkSize => {
                    if b == b'\n' {
                        if self.sizeline.last() == Some(&b'\r') {
                            self.sizeline.pop();
                        }
                        let text = std::str::from_utf8(&self.sizeline)
                            .map_err(|_| BodyError::Protocol("chunk size is not UTF-8".into()))?;
                        let hex = text.split(';').next().unwrap_or("").trim();
                        let size = usize::from_str_radix(hex, 16)
                            .map_err(|_| BodyError::Protocol(format!("bad chunk size {hex:?}")))?;
                        self.sizeline.clear();
                        self.state = if size == 0 {
                            self.trailer_len = 0;
                            Dec::Trailers
                        } else {
                            Dec::ChunkData(size)
                        };
                    } else {
                        self.sizeline.push(b);
                        if self.sizeline.len() > 128 {
                            return Err(BodyError::Protocol("chunk size line too long".into()));
                        }
                    }
                }
                // Wire contract: *both* terminator bytes are consumed
                // before they are checked, so the error (and the byte
                // budget) lands on the second byte.
                Dec::ChunkTerm(false) => {
                    self.term_bad = b != b'\r';
                    self.state = Dec::ChunkTerm(true);
                }
                Dec::ChunkTerm(true) => {
                    if self.term_bad || b != b'\n' {
                        return Err(BodyError::Protocol("missing chunk terminator".into()));
                    }
                    self.state = Dec::ChunkSize;
                }
                Dec::Trailers => {
                    if b == b'\n' {
                        if self.trailer_len == 0 {
                            self.state = Dec::Done;
                        } else {
                            self.trailer_len = 0;
                        }
                    } else if b != b'\r' {
                        self.trailer_len += 1;
                        if self.trailer_len > MAX_HEAD_BYTES {
                            return Err(BodyError::Protocol("trailer section too large".into()));
                        }
                    }
                }
                Dec::Done => unreachable!("handled at loop head"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

/// Where the connection is in its current HTTP exchange.
enum State {
    /// Accumulating a request head (also the between-requests idle state).
    Head,
    /// Accumulating a sized body for a classic endpoint.
    Body {
        /// The parsed head the body belongs to.
        head: RequestHead,
        /// Declared body length.
        need: usize,
    },
    /// Inside a `/v2/score` NDJSON stream.
    Stream {
        /// Incremental body decoder.
        decoder: StreamDecoder,
        /// 1-based number of the last non-blank line.
        line_no: u64,
    },
    /// One read's lines handed to the batcher as one job; parked until
    /// their rendered chunk comes back, then `exit` applies.
    StreamAwait {
        /// The suspended body decoder (picks the stream back up).
        decoder: StreamDecoder,
        /// 1-based number of the last non-blank line.
        line_no: u64,
        /// How the read's decode pass ended.
        exit: StreamExit,
    },
    /// Rows handed to the batcher (or a reload thread); parked until the
    /// completion comes back through the reactor.
    AwaitBatch,
    /// Response rendered; draining the outbound buffer.
    Flush,
    /// Torn down (terminal).
    Closed,
}

/// How one decode pass over a stream's buffered input ended.
enum StreamExit {
    /// The buffered input is used up, or the pass reached `--max-batch`
    /// rows: keep decoding.
    More,
    /// Clean end of body.
    Done,
    /// Unrecoverable decode/framing error, reported in-stream at the last
    /// line number before closing.
    Fail(String),
}

/// One non-blank line of a stream read: its 1-based number, and the error
/// it already failed with (`None` for a row handed to the batcher).
type StreamItem = (u64, Option<String>);

/// Renders a stream read's lines in line order: each failed item as its
/// error line, each scorable one with the next of `scores`.
fn render_stream_lines(
    items: &[StreamItem],
    mut scores: impl Iterator<Item = Result<(f64, bool), String>>,
    stats: &StreamStats,
) -> String {
    let mut out = String::new();
    for (line_no, failed) in items {
        let result = match failed {
            Some(msg) => Err(msg.clone()),
            None => scores.next().unwrap_or_else(|| {
                Err("upstream scoring failed: router returned no result".to_string())
            }),
        };
        out.push_str(&stream_line(result, *line_no, stats));
    }
    out
}

/// One live connection owned by a reactor.
pub(crate) struct Conn {
    stream: TcpStream,
    state: State,
    inbuf: Vec<u8>,
    inpos: usize,
    out: OutBuf,
    close_after: bool,
    eof: bool,
    /// The owning reactor's labeled I/O counters.
    rm: Arc<ReactorMetrics>,
    /// Lifecycle timeline of the in-flight request (idle between requests).
    timeline: Timeline,
    /// Root-span bookkeeping of the in-flight request (`None` between
    /// requests, for streams, and with instrumentation off).
    trace: Option<ReqTrace>,
    /// Path of the in-flight request, captured only when slow-query
    /// logging is configured (empty otherwise).
    cur_path: String,
    /// Whether the last interest computation had this connection paused at
    /// the high-water mark (used to count stall *transitions*).
    was_paused: bool,
    /// Absolute expiry of the state's idle budget (`None` while parked on
    /// the batcher — the batcher always completes).
    pub(crate) deadline: Option<Instant>,
    /// Event mask currently registered with epoll.
    pub(crate) registered: u32,
}

impl Conn {
    /// Wraps a freshly accepted (already non-blocking) socket.
    pub(crate) fn new(stream: TcpStream, ctx: &Ctx, rm: Arc<ReactorMetrics>) -> Self {
        Self {
            stream,
            state: State::Head,
            inbuf: Vec::new(),
            inpos: 0,
            out: OutBuf::default(),
            close_after: false,
            eof: false,
            rm,
            timeline: Timeline::new(),
            trace: None,
            cur_path: String::new(),
            was_paused: false,
            deadline: Some(Instant::now() + ctx.config.keep_alive),
            registered: EPOLLIN,
        }
    }

    /// The socket (for epoll registration).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The event mask this connection currently needs: readable while a
    /// request is being consumed (unless the outbound buffer is over the
    /// high-water mark — backpressure), writable while bytes are queued.
    pub(crate) fn wanted_interest(&self, high_water: usize) -> u32 {
        let mut mask = 0;
        let paused = self.out.len() >= high_water;
        if !self.eof
            && !paused
            && matches!(
                self.state,
                State::Head | State::Body { .. } | State::Stream { .. }
            )
        {
            mask |= EPOLLIN;
        }
        if !self.out.is_empty() {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Renders one complete response and moves to [`State::Flush`].
    fn respond(&mut self, ctx: &Ctx, status: u16, body: &str, close: bool) {
        self.respond_typed(ctx, status, "application/json", body, close);
    }

    /// [`Conn::respond`] with an explicit content type (`/metrics` answers
    /// in Prometheus text exposition, everything else in JSON).
    fn respond_typed(
        &mut self,
        ctx: &Ctx,
        status: u16,
        content_type: &str,
        body: &str,
        close: bool,
    ) {
        self.close_after = self.close_after || close;
        if let Some(rt) = self.trace.as_mut() {
            rt.status = status;
        }
        let echo = self.trace_echo();
        // Writing into the in-memory OutBuf cannot fail.
        let _ = write_response_traced(
            &mut self.out,
            status,
            content_type,
            body,
            close,
            echo.as_deref(),
        );
        self.state = State::Flush;
        self.deadline = Some(Instant::now() + ctx.config.keep_alive);
    }

    /// The `x-hics-trace` value to put on the response — only when the
    /// client sent the header, so untraced exchanges stay byte-identical.
    fn trace_echo(&self) -> Option<String> {
        self.trace
            .as_ref()
            .filter(|rt| rt.explicit)
            .map(ReqTrace::header)
    }

    /// The per-state idle budget, restarted whenever the connection makes
    /// socket progress in either direction.
    fn reset_deadline(&mut self, ctx: &Ctx) {
        let budget = match self.state {
            State::Stream { .. } => ctx.config.stream_idle,
            State::AwaitBatch | State::StreamAwait { .. } => return,
            _ => ctx.config.keep_alive,
        };
        self.deadline = Some(Instant::now() + budget);
    }

    /// Reads once from the socket. Returns whether bytes (or EOF) arrived;
    /// a fatal socket error closes the connection silently.
    fn read_some(&mut self) -> Result<bool, ()> {
        let mut tmp = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(true);
                }
                Ok(n) => {
                    self.rm.bytes_in.add(n as u64);
                    self.inbuf.extend_from_slice(&tmp[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }

    /// Reclaims consumed input-buffer space.
    fn compact_inbuf(&mut self) {
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        } else if self.inpos > INBUF_COMPACT {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }

    /// Advances the connection as far as current input, output space and
    /// state allow. `readable` hints that the socket has bytes waiting.
    pub(crate) fn drive(
        &mut self,
        ctx: &Ctx,
        notifier: &Arc<Notifier>,
        token: usize,
        epoch: u64,
        readable: bool,
    ) -> Drive {
        let mut may_read = readable;
        loop {
            let mut progressed = false;
            let paused = self.out.len() >= ctx.config.high_water;
            if paused && !self.was_paused {
                ctx.metrics.backpressure_stalls.inc();
            }
            self.was_paused = paused;
            if may_read
                && !paused
                && !self.eof
                && matches!(
                    self.state,
                    State::Head | State::Body { .. } | State::Stream { .. }
                )
            {
                match self.read_some() {
                    Ok(true) => {
                        progressed = true;
                        self.reset_deadline(ctx);
                    }
                    Ok(false) => may_read = false,
                    Err(()) => {
                        self.state = State::Closed;
                        return Drive::Close;
                    }
                }
            }
            progressed |= self.step(ctx, notifier, token, epoch);
            if !self.out.is_empty() {
                match self.out.flush_to(&mut self.stream) {
                    Ok(0) => {}
                    Ok(n) => {
                        self.rm.bytes_out.add(n as u64);
                        progressed = true;
                        self.reset_deadline(ctx);
                    }
                    Err(_) => {
                        self.state = State::Closed;
                        return Drive::Close;
                    }
                }
            }
            if matches!(self.state, State::Closed) {
                return Drive::Close;
            }
            if !progressed {
                return Drive::Continue;
            }
        }
    }

    /// Runs the state machine over whatever is buffered. Returns whether
    /// any state advanced or bytes were consumed/produced.
    fn step(&mut self, ctx: &Ctx, notifier: &Arc<Notifier>, token: usize, epoch: u64) -> bool {
        let mut did = false;
        loop {
            match &mut self.state {
                State::Head => {
                    // The timeline starts when the first request bytes are
                    // seen in the buffer — the closest observable point to
                    // first-byte arrival on a non-blocking socket.
                    if ctx.config.instrument
                        && self.inpos < self.inbuf.len()
                        && !self.timeline.is_started()
                    {
                        self.timeline.start();
                    }
                    let avail = &self.inbuf[self.inpos..];
                    let end = avail
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map(|p| p + 4);
                    match end {
                        // The head 431s the moment it exceeds the bound
                        // without its terminator having completed — so a
                        // terminator ending past the bound is too late.
                        Some(end) if end <= MAX_HEAD_BYTES => {
                            let parsed = parse_head_bytes(&avail[..end]);
                            self.inpos += end;
                            self.compact_inbuf();
                            did = true;
                            match parsed {
                                Ok(head) => {
                                    self.timeline.mark(Stage::HeadParse);
                                    self.route(ctx, head);
                                }
                                Err(RequestError { status, msg }) => {
                                    self.respond(ctx, status, &error_body(&msg), true)
                                }
                            }
                        }
                        _ if avail.len() > MAX_HEAD_BYTES => {
                            did = true;
                            self.respond(ctx, 431, &error_body("request head too large"), true);
                        }
                        _ if self.eof => {
                            did = true;
                            if avail.is_empty() {
                                // Clean close between requests.
                                self.state = State::Closed;
                                return true;
                            }
                            self.respond(
                                ctx,
                                400,
                                &error_body("connection closed mid-request"),
                                true,
                            );
                        }
                        _ => break,
                    }
                }
                State::Body { head, need } => {
                    let need = *need;
                    if self.inbuf.len() - self.inpos >= need {
                        let body = self.inbuf[self.inpos..self.inpos + need].to_vec();
                        self.inpos += need;
                        let head = std::mem::replace(
                            head,
                            RequestHead {
                                method: String::new(),
                                path: String::new(),
                                content_length: None,
                                chunked: false,
                                close: false,
                                trace: None,
                            },
                        );
                        self.compact_inbuf();
                        did = true;
                        self.finish_request(ctx, notifier, token, epoch, head, body);
                    } else if self.eof {
                        did = true;
                        self.respond(ctx, 400, &error_body("connection closed mid-body"), true);
                    } else {
                        break;
                    }
                }
                State::Stream { .. } => {
                    if !self.stream_pass(ctx, notifier, token, epoch) {
                        break;
                    }
                    did = true;
                }
                State::StreamAwait { .. } | State::AwaitBatch => break,
                State::Flush => {
                    if self.out.is_empty() {
                        did = true;
                        self.timeline.mark(Stage::Flush);
                        let trace_id = self.trace.as_ref().map(|rt| rt.trace_id);
                        if let Some(rt) = self.trace.take() {
                            // Before observe_request: finishing the trace
                            // reads the timeline that observe resets.
                            finish_req_trace(ctx, rt, &self.timeline);
                        }
                        ctx.metrics.observe_request(
                            &ctx.config,
                            &self.cur_path,
                            &mut self.timeline,
                            trace_id,
                        );
                        if self.close_after {
                            self.state = State::Closed;
                            return true;
                        }
                        self.state = State::Head;
                        self.deadline = Some(Instant::now() + ctx.config.keep_alive);
                    } else {
                        break;
                    }
                }
                State::Closed => break,
            }
        }
        did
    }

    /// Decodes the stream's buffered input up to `--max-batch` rows. Every
    /// non-blank line becomes an item in line order; parse failures and
    /// over-long lines are items too. The scorable rows go to the batcher
    /// as one job and the stream parks until their chunk comes back; a
    /// read with no scorable row renders at once. Returns whether the
    /// stream advanced (`false`: it waits for the socket).
    fn stream_pass(
        &mut self,
        ctx: &Ctx,
        notifier: &Arc<Notifier>,
        token: usize,
        epoch: u64,
    ) -> bool {
        let State::Stream {
            mut decoder,
            mut line_no,
        } = std::mem::replace(&mut self.state, State::Closed)
        else {
            unreachable!("stream_pass runs in State::Stream");
        };
        let d = ctx.handle.load().d();
        let mut items: Vec<StreamItem> = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut consumed = false;
        let exit = loop {
            if rows.len() >= ctx.config.max_batch {
                break StreamExit::More;
            }
            let (used, ev) =
                match decoder.next(&self.inbuf[self.inpos..], ctx.config.max_line_bytes) {
                    Ok(step) => step,
                    Err(e) => break StreamExit::Fail(e.to_string()),
                };
            self.inpos += used;
            consumed |= used > 0;
            match ev {
                // Mid-body EOF: a Protocol error, reported in-stream.
                None if self.eof => {
                    break StreamExit::Fail(
                        BodyError::Protocol("connection closed mid-body".into()).to_string(),
                    )
                }
                None => break StreamExit::More,
                Some(StreamEvent::TooLong) => {
                    line_no += 1;
                    let msg = format!(
                        "line exceeds {} bytes and was discarded",
                        ctx.config.max_line_bytes
                    );
                    items.push((line_no, Some(msg)));
                }
                Some(StreamEvent::Line(line) | StreamEvent::End(line)) => {
                    if !line.iter().all(u8::is_ascii_whitespace) {
                        line_no += 1;
                        match parse_stream_row(&line, d) {
                            Ok(row) => {
                                rows.push(row);
                                items.push((line_no, None));
                            }
                            Err(msg) => items.push((line_no, Some(msg))),
                        }
                    }
                    if decoder.finished() {
                        break StreamExit::Done;
                    }
                }
            }
        };
        self.compact_inbuf();
        if items.is_empty() && matches!(exit, StreamExit::More) {
            self.state = State::Stream { decoder, line_no };
            return consumed;
        }
        if rows.is_empty() {
            let lines = render_stream_lines(&items, std::iter::empty(), &ctx.stream_stats);
            self.end_read(ctx, decoder, line_no, exit, &lines);
            return true;
        }
        let notifier = Arc::clone(notifier);
        let stats = Arc::clone(&ctx.stream_stats);
        let count = rows.len();
        // Streams are not traced (see `Conn::route`).
        ctx.batcher.submit(
            JobKind::Stream,
            rows,
            None,
            Box::new(move |reply| {
                let scores: Vec<Result<(f64, bool), String>> = match reply {
                    None => vec![Err("server is shutting down".to_string()); count],
                    Some(batch) => batch
                        .results
                        .into_iter()
                        .map(|r| r.map(|s| (s, batch.partial)).map_err(|e| e.to_string()))
                        .collect(),
                };
                let lines = render_stream_lines(&items, scores.into_iter(), &stats);
                notifier.complete(token, epoch, 200, lines);
            }),
        );
        self.state = State::StreamAwait {
            decoder,
            line_no,
            exit,
        };
        self.deadline = None;
        true
    }

    /// Ends one stream read: writes its rendered lines as one chunk, then
    /// decodes on, finishes the body, or reports the failure and closes.
    fn end_read(
        &mut self,
        ctx: &Ctx,
        decoder: StreamDecoder,
        line_no: u64,
        exit: StreamExit,
        lines: &str,
    ) {
        if !lines.is_empty() {
            let _ = write_chunk(&mut self.out, lines.as_bytes());
        }
        match exit {
            StreamExit::More => {
                self.state = State::Stream { decoder, line_no };
                self.deadline = Some(Instant::now() + ctx.config.stream_idle);
            }
            StreamExit::Done => self.finish_stream(ctx, None),
            StreamExit::Fail(msg) => self.finish_stream(ctx, Some((msg, line_no))),
        }
    }

    /// Terminates the stream's chunked body, after an in-stream error line
    /// (then close) when one is given, and starts draining.
    fn finish_stream(&mut self, ctx: &Ctx, error: Option<(String, u64)>) {
        if let Some((msg, line_no)) = error {
            let reply = stream_line(Err(msg), line_no, &ctx.stream_stats);
            let _ = write_chunk(&mut self.out, reply.as_bytes());
            self.close_after = true;
        }
        let _ = finish_chunked(&mut self.out);
        self.state = State::Flush;
        self.deadline = Some(Instant::now() + ctx.config.keep_alive);
    }

    /// Routes a parsed head: streaming requests start immediately, classic
    /// requests move on to collecting their sized body.
    fn route(&mut self, ctx: &Ctx, head: RequestHead) {
        if head.method == "POST" && head.path == "/v2/score" {
            // Streams report through their own counters, not the
            // request-stage histograms — and are not traced (one span per
            // line would swamp the store).
            self.timeline.reset();
            self.trace = None;
            ctx.stream_stats.streams.inc();
            self.close_after = self.close_after || head.close;
            let _ = write_chunked_head(&mut self.out, 200, "application/x-ndjson", head.close);
            self.state = State::Stream {
                decoder: StreamDecoder::new(&head, ctx.config.max_stream_bytes),
                line_no: 0,
            };
            self.deadline = Some(Instant::now() + ctx.config.stream_idle);
            return;
        }
        // The head has already been parsed by now; back-date the root span
        // to the first byte's arrival (the timeline's start).
        let elapsed_ns = self
            .timeline
            .offset_ns(Stage::HeadParse)
            .unwrap_or_default();
        self.trace = begin_req_trace(ctx, &head, elapsed_ns);
        if head.chunked {
            self.respond(
                ctx,
                411,
                &error_body("chunked bodies are not supported; send Content-Length"),
                true,
            );
            return;
        }
        let need = head.content_length.unwrap_or(0);
        if need > MAX_BODY_BYTES {
            self.respond(
                ctx,
                413,
                &error_body(&format!(
                    "body of {need} bytes exceeds limit {MAX_BODY_BYTES}"
                )),
                true,
            );
            return;
        }
        self.state = State::Body { head, need };
    }

    /// Dispatches one complete classic request. `/score` goes to the
    /// batcher and `/admin/reload` to a short-lived thread — both park the
    /// connection until their completion fires back through the reactor;
    /// everything else answers inline.
    fn finish_request(
        &mut self,
        ctx: &Ctx,
        notifier: &Arc<Notifier>,
        token: usize,
        epoch: u64,
        head: RequestHead,
        body: Vec<u8>,
    ) {
        self.close_after = self.close_after || head.close;
        self.timeline.mark(Stage::Body);
        if ctx.config.slow_query.is_some() {
            self.cur_path.clear();
            self.cur_path.push_str(&head.path);
        }
        match (head.method.as_str(), head.path.as_str()) {
            ("POST", "/score") => match parse_score_request(&body, ctx.handle.load().d()) {
                Err((status, rendered)) => self.respond(ctx, status, &rendered, head.close),
                Ok((rows, single)) => {
                    let notifier = Arc::clone(notifier);
                    // The request's trace context rides with the job, so a
                    // remote engine's fan-out spans parent under it.
                    ctx.batcher.submit(
                        JobKind::Score,
                        rows,
                        self.trace.as_ref().map(ReqTrace::context),
                        Box::new(move |reply| {
                            let (status, body) = format_score_reply(reply, single);
                            notifier.complete(token, epoch, status, body);
                        }),
                    );
                    self.timeline.mark(Stage::Enqueue);
                    self.state = State::AwaitBatch;
                    self.deadline = None;
                }
            },
            ("POST", "/admin/reload") => {
                // Artifact loading can take seconds; it must never run on a
                // reactor thread. Reloads are rare admin operations, so a
                // short-lived thread per request is fine.
                let ctx = ctx.clone();
                let notifier = Arc::clone(notifier);
                std::thread::spawn(move || {
                    let (status, out) = reload_endpoint(&body, &ctx);
                    notifier.complete(token, epoch, status, out);
                });
                self.state = State::AwaitBatch;
                self.deadline = None;
            }
            _ => {
                let (status, out) = dispatch(&head.method, &head.path, ctx);
                self.timeline.mark(Stage::Score);
                self.respond_typed(
                    ctx,
                    status,
                    content_type_for(&head.path, status),
                    &out,
                    head.close,
                );
            }
        }
    }

    /// Delivers a batcher / reload completion. A classic request renders
    /// its response and starts draining; a parked stream read appends its
    /// pre-rendered chunk and the stream picks back up (the reactor
    /// re-drives this connection, so buffered input continues decoding
    /// without waiting for the socket) or ends.
    pub(crate) fn on_completion(&mut self, ctx: &Ctx, status: u16, body: String) {
        match &mut self.state {
            State::AwaitBatch => {
                self.timeline.mark(Stage::Score);
                if let Some(rt) = self.trace.as_mut() {
                    rt.status = status;
                }
                let echo = self.trace_echo();
                let _ = write_response_traced(
                    &mut self.out,
                    status,
                    "application/json",
                    &body,
                    self.close_after,
                    echo.as_deref(),
                );
                self.state = State::Flush;
                self.deadline = Some(Instant::now() + ctx.config.keep_alive);
            }
            State::StreamAwait { .. } => {
                let State::StreamAwait {
                    decoder,
                    line_no,
                    exit,
                } = std::mem::replace(&mut self.state, State::Closed)
                else {
                    unreachable!("matched StreamAwait above");
                };
                self.end_read(ctx, decoder, line_no, exit, &body);
            }
            _ => {}
        }
    }

    /// Enforces the state's idle budget: silent close while waiting for a
    /// head or draining a response, `400` mid-sized-body, and an in-stream
    /// error line (then close) for an idle stream — unless the *peer* is
    /// the one not draining its scores, which is a silent close.
    pub(crate) fn on_timeout(&mut self, ctx: &Ctx) {
        enum T {
            Silent,
            BodyTimeout,
            StreamIdle(u64),
        }
        let what = match &self.state {
            State::Head | State::Flush => T::Silent,
            State::Body { .. } => T::BodyTimeout,
            State::Stream { line_no, .. } => {
                if self.out.is_empty() {
                    T::StreamIdle(*line_no)
                } else {
                    T::Silent
                }
            }
            State::AwaitBatch | State::StreamAwait { .. } | State::Closed => return,
        };
        match what {
            T::Silent => self.state = State::Closed,
            T::BodyTimeout => {
                self.respond(ctx, 400, &error_body("connection closed mid-body"), true)
            }
            T::StreamIdle(line_no) => {
                let msg = format!(
                    "stream idle for more than {:?}; closing",
                    ctx.config.stream_idle
                );
                self.finish_stream(ctx, Some((msg, line_no)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::write_response;

    fn sized_head(len: usize) -> RequestHead {
        RequestHead {
            method: "POST".into(),
            path: "/v2/score".into(),
            content_length: Some(len),
            chunked: false,
            close: false,
            trace: None,
        }
    }

    fn chunked_head() -> RequestHead {
        RequestHead {
            method: "POST".into(),
            path: "/v2/score".into(),
            content_length: None,
            chunked: true,
            close: false,
            trace: None,
        }
    }

    /// Everything observable about one pass over a body: the line events in
    /// order, and the terminal error (if any) by Display string.
    #[derive(Debug, PartialEq)]
    struct Observed {
        events: Vec<String>,
        error: Option<String>,
        finished: bool,
    }

    fn expect(events: &[&str], error: Option<&str>, finished: bool) -> Observed {
        Observed {
            events: events.iter().map(|e| e.to_string()).collect(),
            error: error.map(str::to_string),
            finished,
        }
    }

    fn observe_push(
        head: &RequestHead,
        body: &[u8],
        limit: usize,
        max_line: usize,
        feed: usize,
    ) -> Observed {
        let mut dec = StreamDecoder::new(head, limit);
        let mut events = Vec::new();
        let mut pos = 0;
        loop {
            // Feed at most `feed` bytes per call, as a socket would.
            let upto = (pos + feed).min(body.len());
            match dec.next(&body[pos..upto], max_line) {
                Ok((used, ev)) => {
                    pos += used;
                    match ev {
                        Some(StreamEvent::Line(l)) => {
                            events.push(format!("line:{}", String::from_utf8_lossy(&l)))
                        }
                        Some(StreamEvent::TooLong) => events.push("toolong".into()),
                        Some(StreamEvent::End(l)) => {
                            events.push(format!("end:{}", String::from_utf8_lossy(&l)));
                            return Observed {
                                events,
                                error: None,
                                finished: dec.finished(),
                            };
                        }
                        None => {
                            if pos >= body.len() {
                                // EOF mid-body: the connection reports
                                // Protocol("connection closed mid-body").
                                return Observed {
                                    events,
                                    error: Some("connection closed mid-body".into()),
                                    finished: dec.finished(),
                                };
                            }
                        }
                    }
                }
                Err(e) => {
                    return Observed {
                        events,
                        error: Some(e.to_string()),
                        finished: dec.finished(),
                    }
                }
            }
        }
    }

    /// The decoder's wire contract as literal expectations — event
    /// sequences, errors and keep-alive verdicts across sized and chunked
    /// framings, malformed framing, blown byte budgets and over-long lines —
    /// at every socket read granularity.
    #[test]
    fn decoder_pins_the_wire_contract_on_every_framing() {
        let chunked_ok =
            b"4\r\n[1,2\r\n3;ext=1\r\n,3]\r\n8\r\n\n[4,5,6]\r\n1\r\n\n\r\n0\r\nTrailer: x\r\n\r\n";
        let simple = b"5\r\nhello\r\n0\r\n\r\n";
        let cases: Vec<(RequestHead, Vec<u8>, usize, usize, Observed)> = vec![
            // Sized body split into lines; the final unterminated line
            // arrives with End.
            (
                sized_head(19),
                b"[1,2]\n[3,4]\r\n\n[5,6]".to_vec(),
                usize::MAX,
                1024,
                expect(
                    &["line:[1,2]", "line:[3,4]", "line:", "end:[5,6]"],
                    None,
                    true,
                ),
            ),
            (
                sized_head(0),
                Vec::new(),
                usize::MAX,
                1024,
                expect(&["end:"], None, true),
            ),
            // An over-long line is discarded and the stream stays in sync.
            (
                sized_head(23),
                b"0123456789abcdef\nshort\n".to_vec(),
                usize::MAX,
                8,
                expect(&["toolong", "line:short", "end:"], None, true),
            ),
            // The byte budget fires even on a body with no newline at all.
            (
                sized_head(256),
                vec![b'x'; 256],
                64,
                1 << 20,
                expect(
                    &[],
                    Some("request body exceeds the 64-byte stream limit"),
                    false,
                ),
            ),
            // A discarded line running to the end of the body reports
            // TooLong before End.
            (
                sized_head(40),
                vec![b'y'; 40],
                usize::MAX,
                8,
                expect(&["toolong", "end:"], None, true),
            ),
            // One line split mid-number across three chunks, a chunk
            // extension, and a trailer section.
            (
                chunked_head(),
                chunked_ok.to_vec(),
                usize::MAX,
                1024,
                expect(&["line:[1,2,3]", "line:[4,5,6]", "end:"], None, true),
            ),
            (
                chunked_head(),
                b"zz\r\nhello\r\n".to_vec(),
                usize::MAX,
                64,
                expect(&[], Some("bad chunk size \"zz\""), false),
            ),
            (
                chunked_head(),
                b"5\r\nhelloXX".to_vec(),
                usize::MAX,
                64,
                expect(&[], Some("missing chunk terminator"), false),
            ),
            (
                chunked_head(),
                b"5\r\nhel".to_vec(),
                usize::MAX,
                64,
                expect(&[], Some("connection closed mid-body"), false),
            ),
            (
                chunked_head(),
                chunked_ok.to_vec(),
                20,
                1024,
                expect(
                    &[],
                    Some("request body exceeds the 20-byte stream limit"),
                    false,
                ),
            ),
            (
                chunked_head(),
                b"2\r\nab\r\n0\r\n\r\n".to_vec(),
                usize::MAX,
                1024,
                expect(&["end:ab"], None, true),
            ),
            // Lines inside one chunk are emitted before a later framing
            // error.
            (
                chunked_head(),
                b"5\r\nhel\nlo\r\n0\r\n\r\n".to_vec(),
                usize::MAX,
                64,
                expect(&["line:hel"], Some("missing chunk terminator"), false),
            ),
            // The chunk terminator is checked on its second byte: a bad
            // first byte alone is not yet an error...
            (
                chunked_head(),
                b"5\r\nhelloX".to_vec(),
                usize::MAX,
                64,
                expect(&[], Some("connection closed mid-body"), false),
            ),
            (
                chunked_head(),
                b"5\r\nhelloX\n".to_vec(),
                usize::MAX,
                64,
                expect(&[], Some("missing chunk terminator"), false),
            ),
            (
                chunked_head(),
                b"5\r\nhello\rX".to_vec(),
                usize::MAX,
                64,
                expect(&[], Some("missing chunk terminator"), false),
            ),
            // ...so a budget ending on the first terminator byte fires
            // before the framing error does.
            (
                chunked_head(),
                b"5\r\nhelloX\n".to_vec(),
                9,
                64,
                expect(
                    &[],
                    Some("request body exceeds the 9-byte stream limit"),
                    false,
                ),
            ),
            // The budget counts framing bytes: 15 fits the whole body
            // exactly, 11 does not.
            (
                chunked_head(),
                simple.to_vec(),
                15,
                64,
                expect(&["end:hello"], None, true),
            ),
            (
                chunked_head(),
                simple.to_vec(),
                11,
                64,
                expect(
                    &[],
                    Some("request body exceeds the 11-byte stream limit"),
                    false,
                ),
            ),
        ];
        for (head, body, limit, max_line, want) in cases {
            for feed in [1, 3, 7, body.len().max(1)] {
                let got = observe_push(&head, &body, limit, max_line, feed);
                assert_eq!(
                    got,
                    want,
                    "body {:?} (feed {feed})",
                    String::from_utf8_lossy(&body)
                );
            }
        }
    }

    /// Truncated bodies (EOF mid-body) report the Protocol error
    /// `connection closed mid-body`.
    #[test]
    fn decoder_reports_truncated_bodies_as_closed_mid_body() {
        for (head, body) in [
            (sized_head(50), &b"short"[..]),
            (chunked_head(), &b"5\r\nhel"[..]),
            (chunked_head(), &b"5\r\nhello\r\n3\r\nab"[..]),
            (chunked_head(), &b"5\r\nhello\r\n0\r\nTrailer: x"[..]),
        ] {
            let got = observe_push(&head, body, usize::MAX, 64, 2);
            assert_eq!(
                got,
                expect(&[], Some("connection closed mid-body"), false),
                "body {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    /// Neither the byte budget nor the line bound can be outgrown: the
    /// decoder stops consuming at the budget, and a discarded line never
    /// accumulates past `max_line`.
    #[test]
    fn decoder_keeps_its_budget_and_line_buffer_bounded() {
        let body = vec![b'x'; 256];
        let mut dec = StreamDecoder::new(&sized_head(body.len()), 64);
        match dec.next(&body, 1 << 20) {
            Err(BodyError::TooLarge { limit: 64 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(dec.consumed <= 64);

        // The over-long line arrives one byte per call; the buffer never
        // holds more than `max_line` bytes of it.
        let body = b"0123456789abcdef\nshort\n";
        let mut dec = StreamDecoder::new(&sized_head(body.len()), usize::MAX);
        for byte in body[..16].chunks(1) {
            assert_eq!(dec.next(byte, 8).unwrap(), (1, None));
            assert!(dec.line.len() <= 8, "buffer stayed bounded");
        }
        assert_eq!(
            dec.next(&body[16..], 8).unwrap(),
            (1, Some(StreamEvent::TooLong))
        );
        assert_eq!(
            dec.next(&body[17..], 8).unwrap(),
            (6, Some(StreamEvent::Line(b"short".to_vec())))
        );
        assert_eq!(
            dec.next(&[], 8).unwrap(),
            (0, Some(StreamEvent::End(Vec::new())))
        );
        assert!(dec.finished());
    }

    #[test]
    fn outbuf_coalesces_small_writes_and_tracks_length() {
        let mut out = OutBuf::default();
        out.write_all(b"hello ").unwrap();
        out.write_all(b"world").unwrap();
        assert_eq!(out.len(), 11);
        assert_eq!(out.segs.len(), 1, "small writes share a segment");
        out.write_all(&vec![b'x'; COALESCE_BYTES + 1]).unwrap();
        assert_eq!(out.segs.len(), 2, "large writes get their own segment");
        out.advance(11);
        assert_eq!(out.len(), COALESCE_BYTES + 1);
        out.advance(COALESCE_BYTES + 1);
        assert!(out.is_empty());
        assert!(out.segs.is_empty());
    }

    /// The existing response renderers drive OutBuf through its `Write`
    /// impl and produce the same bytes they would on a socket.
    #[test]
    fn outbuf_renders_responses_identically_to_a_socket() {
        let mut direct = Vec::new();
        write_response(&mut direct, 200, "{\"ok\":true}", false).unwrap();
        let mut out = OutBuf::default();
        write_response(&mut out, 200, "{\"ok\":true}", false).unwrap();
        let mut flat = Vec::new();
        for (i, seg) in out.segs.iter().enumerate() {
            let start = if i == 0 { out.front_pos } else { 0 };
            flat.extend_from_slice(&seg[start..]);
        }
        assert_eq!(flat, direct);
    }
}
