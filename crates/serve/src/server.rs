//! The serving loop: a bounded admission queue, a `std::thread::scope`
//! worker pool, and an ordered-output stage that makes reply order equal
//! request order no matter how many workers race.
//!
//! The reader thread assigns each request line a sequence number and
//! enqueues it (blocking when the queue is at capacity — admission is
//! backpressure, not rejection, so a fast client cannot balloon memory).
//! Workers pop lines, run them through the [`Engine`], and hand
//! `(seq, reply)` to the reorder buffer, which writes replies strictly in
//! sequence order, each with a single write of the line and its newline
//! (TCP streams also set `TCP_NODELAY`).
//!
//! Reply *order* alone is not enough: `ingest` and `fault` mutate the
//! engine, so a later request racing past one of them on another worker
//! could observe the wrong state (a `map` outrunning its `ingest` sees an
//! unknown cluster; a `price` outrunning a `fault` prices the pre-fault
//! topology). Mutating ops therefore act as barriers: the reader waits for
//! the queue to drain and every in-flight worker to finish, runs the
//! mutating op inline on its own thread, then resumes parallel dispatch.
//! Earlier requests see pre-op state, later ones see post-op state, and a
//! scripted session produces byte-identical output at any worker count —
//! the property the CI golden fixture pins.
//!
//! **Inline rule.** A read-only request also runs inline on the reader,
//! skipping the queue's thread hop, when nothing can overlap with it: the
//! pool is idle (nothing queued, nothing in flight) and the [`LineReader`]
//! holds no further line. Both are facts of the input, not settings. An
//! idle pool has written every earlier reply (workers deliver before they
//! report done), so order and barrier semantics are those of the queue. A
//! buffered line goes to the pool instead: inlining it would stall the
//! requests pipelined behind it (a batch would lose its workers, and a
//! request arriving while a slow one runs would wait for it). Mutating ops
//! and idle read-only ops share one routine — busy gauge around the engine
//! call, zero queue wait, reply to its slot. An inline request is parsed
//! once: the engine gets the reader's parse ([`Engine::handle_parsed`]).
//! A queued request carries its line and the worker parses it, so the
//! reader, the serial stage of a pipelined stream, never frees a worker's
//! allocations.
//!
//! On top of that base loop sits the overload hardening (all of it
//! configured through [`ServeOpts`], all off-by-default-compatible with
//! the original behaviour):
//!
//! - **Protocol limits** — request lines are read through a capped
//!   [`LineReader`]: a line longer than `max_line_bytes` is discarded (the
//!   client gets a typed `line_too_long` error, the connection survives),
//!   invalid UTF-8 gets `bad_utf8`, unparseable JSON counts as `bad_json`.
//!   Each connection has an error budget (`max_protocol_errors`); the
//!   violation that exhausts it gets code `error_budget` and the
//!   connection closes.
//! - **Deadline shedding** — a request carrying `deadline_ms` is refused
//!   at admission with a typed `overloaded` reply (plus `retry_after_ms`)
//!   when `pending × EWMA(service)` already exceeds the deadline. Requests
//!   without a deadline are never shed.
//! - **Client quotas** — an optional token bucket per client identity
//!   (TCP peer IP, `"local"` on stdio) refuses excess requests with
//!   `quota_rejected` + `retry_after_ms` before they cost a queue slot.
//! - **Idle reaping / timeouts** — connections silent past `idle_timeout`
//!   get a typed `idle_timeout` error and are closed; TCP reads poll on a
//!   short timeout so the reaper and the shutdown flag both get a chance
//!   to run even with no traffic.
//! - **Graceful drain** — when `opts.shutdown` (see
//!   [`crate::shutdown::install_sigterm`]) flips, the reader stops
//!   admitting, already-admitted requests finish and flush in order, and
//!   [`serve_lines`] returns normally; the drain duration lands in the
//!   `tarr_serve_drain_seconds` gauge.
//! - **Connection caps** — [`serve_tcp`] bounds concurrent connections;
//!   an accept over the cap gets a single `conn_rejected` error line and
//!   is dropped without spawning a thread.
//!
//! Observability: the reader assigns every request a monotonic id (from
//! [`Engine::next_request_id`]) and timestamps admission, so workers can
//! split queue-wait (admission → dispatch) from service time (dispatch →
//! reply) when they feed the engine's RED metrics. `serve.admitted` counts
//! every request at admission (after quota and deadline shedding, inline
//! or queued), the `serve.queue.depth` gauge tracks the instantaneous
//! queue length, and `serve.workers.busy` tracks threads currently inside
//! a request, the reader's inline runs included. [`serve_metrics`] is the
//! companion scrape endpoint: a minimal HTTP/1.0 listener answering every
//! request with the engine's Prometheus text snapshot.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tarr_trace::json::{parse, Json};

use crate::engine::Engine;
use crate::metrics::ServeMetrics;
use crate::protocol::{err_reply_coded, err_reply_retry, to_string};

/// Per-client token-bucket quota: a client may burst `burst` requests,
/// refilled at `per_sec` tokens per second. `per_sec = 0` means the bucket
/// never refills — useful for deterministic tests (`burst` requests total,
/// then rejection with a `retry_after_ms` of 0).
#[derive(Debug, Clone, Copy)]
pub struct QuotaCfg {
    /// Bucket capacity (fresh clients start full).
    pub burst: u64,
    /// Refill rate in tokens per second (0 = never refill).
    pub per_sec: f64,
}

/// Worker-pool, admission, and hardening configuration.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Worker threads processing requests (min 1).
    pub workers: usize,
    /// Admission-queue capacity; the reader blocks when it is full.
    pub queue_cap: usize,
    /// Longest accepted request line in bytes; longer lines are discarded
    /// with a typed `line_too_long` error (min 1).
    pub max_line_bytes: usize,
    /// Protocol violations (oversized / bad-UTF-8 / unparseable lines)
    /// tolerated per connection before it is closed with `error_budget`.
    /// 0 = unlimited.
    pub max_protocol_errors: u64,
    /// Close a connection silent for this long (typed `idle_timeout`
    /// error). Only effective when reads time out and tick — i.e. over
    /// TCP; a blocking stdio read cannot be reaped.
    pub idle_timeout: Option<Duration>,
    /// TCP write timeout for reply delivery (stuck clients get a write
    /// error instead of wedging a connection thread forever).
    pub write_timeout: Option<Duration>,
    /// Concurrent TCP connections served; accepts beyond this are refused
    /// with a single `conn_rejected` error line (min 1).
    pub max_conns: usize,
    /// Per-client admission quota; `None` = unlimited.
    pub quota: Option<QuotaCfg>,
    /// Client identity for quota accounting: the TCP peer IP, or
    /// `"local"` for stdio sessions.
    pub client: String,
    /// Graceful-drain flag (typically from
    /// [`crate::shutdown::install_sigterm`]): when it reads `true` the
    /// reader stops admitting, drains in-flight work, and returns.
    pub shutdown: Option<&'static AtomicBool>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 1024,
            max_line_bytes: 1 << 20,
            max_protocol_errors: 64,
            idle_timeout: None,
            write_timeout: None,
            max_conns: 64,
            quota: None,
            client: "local".to_string(),
            shutdown: None,
        }
    }
}

/// One admitted request: output slot, request id, admission timestamp
/// (queue-wait starts here), raw line.
type Admitted = (u64, u64, Instant, String);

struct QueueState {
    items: VecDeque<Admitted>,
    /// Requests popped by a worker whose reply has not yet been delivered.
    in_flight: usize,
    closed: bool,
}

struct Queue<'a> {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    /// Signalled on every dequeue and every completion: waiters are both
    /// the admitting reader (capacity) and `wait_idle` (quiescence).
    not_full: Condvar,
    cap: usize,
    metrics: &'a ServeMetrics,
}

impl<'a> Queue<'a> {
    fn new(cap: usize, metrics: &'a ServeMetrics) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                in_flight: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
            metrics,
        }
    }

    /// Blocking admission: waits for capacity, then enqueues.
    fn push(&self, seq: u64, req_id: u64, line: String) {
        let mut st = self.state.lock().expect("queue poisoned");
        while st.items.len() >= self.cap {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        st.items.push_back((seq, req_id, Instant::now(), line));
        self.metrics.set_queue_depth(st.items.len() as u64);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Blocking pop; `None` once the queue is closed and drained. A popped
    /// request counts as in-flight until the worker calls [`Queue::done`].
    fn pop(&self) -> Option<Admitted> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                st.in_flight += 1;
                self.metrics.set_queue_depth(st.items.len() as u64);
                drop(st);
                self.not_full.notify_all();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }

    /// A worker finished (and delivered the reply for) a popped request.
    fn done(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.in_flight -= 1;
        drop(st);
        self.not_full.notify_all();
    }

    /// Block until every admitted request has been processed and delivered:
    /// the barrier before a state-mutating op runs.
    fn wait_idle(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        while !st.items.is_empty() || st.in_flight > 0 {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
    }

    /// Instantaneous (queued, in-flight) load — the shedding estimator's
    /// view of the backlog.
    fn load(&self) -> (usize, usize) {
        let st = self.state.lock().expect("queue poisoned");
        (st.items.len(), st.in_flight)
    }

    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

/// The reorder buffer: workers deliver out of order, replies leave in
/// sequence order.
struct OrderedOut<W: Write> {
    state: Mutex<OutState<W>>,
}

struct OutState<W: Write> {
    next: u64,
    pending: BTreeMap<u64, String>,
    sink: W,
    error: Option<io::Error>,
}

impl<W: Write> OrderedOut<W> {
    fn new(sink: W) -> Self {
        OrderedOut {
            state: Mutex::new(OutState {
                next: 0,
                pending: BTreeMap::new(),
                sink,
                error: None,
            }),
        }
    }

    /// Queue `reply` (one line, no terminator) for slot `seq` and write
    /// every reply that is now in order. Each goes out as one `write_all`
    /// of the line plus its `\n`: two writes per reply would leave the
    /// second waiting on the client's delayed ACK under Nagle's algorithm.
    fn deliver(&self, seq: u64, mut reply: String) {
        reply.push('\n');
        let mut st = self.state.lock().expect("output poisoned");
        st.pending.insert(seq, reply);
        loop {
            let next = st.next;
            let Some(line) = st.pending.remove(&next) else {
                break;
            };
            st.next += 1;
            if st.error.is_none() {
                let r = tarr_chaos::fail_io("conn.write")
                    .and_then(|()| st.sink.write_all(line.as_bytes()))
                    .and_then(|()| st.sink.flush());
                if let Err(e) = r {
                    st.error = Some(e);
                }
            }
        }
    }

    fn finish(self) -> io::Result<u64> {
        let st = self.state.into_inner().expect("output poisoned");
        debug_assert!(st.pending.is_empty(), "replies left in the reorder buffer");
        match st.error {
            Some(e) => Err(e),
            None => Ok(st.next),
        }
    }
}

/// Ops that mutate engine state — or cut a consistent point-in-time view
/// of it (`snapshot`, `compact`) — and must not run concurrently with any
/// other request on the stream.
fn is_mutating(op: Option<&str>) -> bool {
    matches!(op, Some("ingest" | "fault" | "snapshot" | "compact"))
}

/// One reader-side input event; see [`LineReader`].
enum LineEvent {
    /// A complete line (terminator stripped).
    Line(String),
    /// A line exceeded the length cap and was discarded up to its newline.
    TooLong,
    /// A complete line that was not valid UTF-8 (discarded).
    BadUtf8,
    /// The read timed out (`WouldBlock`/`TimedOut`): no data, but the
    /// caller gets a chance to check idle/shutdown state.
    Tick,
    /// End of stream (clean EOF or a fatal read error).
    Eof,
}

/// An incremental, length-capped line reader over a raw [`Read`].
///
/// Unlike `BufRead::lines`, it (a) bounds memory per line — an attacker
/// sending an endless unterminated line costs `max` bytes, not the heap —
/// (b) survives invalid UTF-8 without killing the stream, and (c) turns
/// read timeouts into [`LineEvent::Tick`]s so the serving loop can reap
/// idle connections and observe the shutdown flag while blocked.
struct LineReader<R: Read> {
    inner: R,
    /// The accumulated partial line (never grows past `max` + one chunk).
    buf: Vec<u8>,
    max: usize,
    /// Discarding an oversized line until its newline.
    overflow: bool,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R, max: usize) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            max: max.max(1),
            overflow: false,
            eof: false,
        }
    }

    /// Strip the terminator and classify a completed raw line.
    fn finish_line(&mut self, mut line: Vec<u8>) -> LineEvent {
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        if self.overflow || line.len() > self.max {
            self.overflow = false;
            return LineEvent::TooLong;
        }
        match String::from_utf8(line) {
            Ok(s) => LineEvent::Line(s),
            Err(_) => LineEvent::BadUtf8,
        }
    }

    /// Whether another line is already buffered: a complete one, or the
    /// unterminated tail left at EOF. No read happens.
    fn line_buffered(&self) -> bool {
        self.buf.contains(&b'\n') || (self.eof && !self.buf.is_empty())
    }

    fn next_event(&mut self) -> LineEvent {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return self.finish_line(line);
            }
            // No complete line buffered: enforce the cap on the partial,
            // then (in overflow mode) drop what we have — it will never be
            // parsed, only skipped.
            if self.buf.len() > self.max {
                self.overflow = true;
            }
            if self.overflow {
                self.buf.clear();
            }
            if self.eof {
                if self.buf.is_empty() && !self.overflow {
                    return LineEvent::Eof;
                }
                // A trailing unterminated line still counts.
                let line = std::mem::take(&mut self.buf);
                return self.finish_line(line);
            }
            if tarr_chaos::fail_io("conn.read").is_err() {
                // Injected connection-read failure: same as the peer
                // vanishing mid-stream.
                self.eof = true;
                continue;
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineEvent::Tick;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
    }
}

/// Whether protocol error number `count` exhausts a budget of `max`
/// (0 = unlimited).
fn budget_hit(max: u64, count: u64) -> bool {
    max > 0 && count >= max
}

/// Serve one line-oriented stream: read requests from `input` until EOF, a
/// `shutdown` op, or a graceful-drain signal; process them on
/// `opts.workers` scoped threads; write replies to `output` in request
/// order. State-mutating ops (`ingest`, `fault`) are barriers: the reader
/// quiesces the pool and runs them inline, so every request observes the
/// engine state its stream position implies; a read-only request runs
/// inline too when the pool is idle and no further line is buffered.
/// Protocol violations, quota rejections, and deadline sheds are answered
/// with typed errors at the violating request's position in the reply
/// order (they consume a sequence slot but never a worker). Returns the
/// number of replies written.
pub fn serve_lines(
    engine: &Engine,
    input: impl Read,
    output: impl Write + Send,
    opts: &ServeOpts,
) -> io::Result<u64> {
    let metrics = engine.metrics();
    metrics.set_workers(opts.workers.max(1) as u64);
    let queue = Queue::new(opts.queue_cap, metrics);
    let out = OrderedOut::new(output);
    // Set by the reader (scope's own thread) when the shutdown flag is
    // observed; read after the scope joins to time the drain.
    let drain_started: Cell<Option<Instant>> = Cell::new(None);
    // The one routine that runs a request, on a worker or inline on the
    // reader: the busy gauge brackets the engine, and the reply goes to
    // its slot in the reorder buffer.
    let serve = |seq: u64, req_id: u64, wait: Duration, parsed: &Result<Json, String>| {
        metrics.worker_busy(true);
        let reply = engine.handle_parsed(req_id, wait, parsed);
        metrics.worker_busy(false);
        out.deliver(seq, reply);
    };
    std::thread::scope(|scope| {
        for _ in 0..opts.workers.max(1) {
            scope.spawn(|| {
                while let Some((seq, req_id, admitted, line)) = queue.pop() {
                    serve(seq, req_id, admitted.elapsed(), &parse(&line));
                    queue.done();
                }
            });
        }
        let mut reader = LineReader::new(input, opts.max_line_bytes);
        let mut seq = 0u64;
        let mut proto_errors = 0u64;
        let mut last_activity = Instant::now();
        'reader: loop {
            if opts
                .shutdown
                .is_some_and(|flag| flag.load(Ordering::Relaxed))
            {
                drain_started.set(Some(Instant::now()));
                break;
            }
            let event = reader.next_event();
            let line = match event {
                LineEvent::Eof => break,
                LineEvent::Tick => {
                    if let Some(idle) = opts.idle_timeout {
                        if last_activity.elapsed() >= idle {
                            metrics.add_protocol_error("idle_timeout");
                            out.deliver(
                                seq,
                                to_string(&err_reply_coded(
                                    None,
                                    "idle_timeout",
                                    "connection idle past the idle timeout; closing",
                                )),
                            );
                            break;
                        }
                    }
                    continue;
                }
                LineEvent::TooLong | LineEvent::BadUtf8 => {
                    last_activity = Instant::now();
                    let (kind, msg) = match event {
                        LineEvent::TooLong => (
                            "line_too_long",
                            "request line exceeds the configured maximum length",
                        ),
                        _ => ("bad_utf8", "request line is not valid UTF-8"),
                    };
                    proto_errors += 1;
                    metrics.add_protocol_error(kind);
                    let exhausted = budget_hit(opts.max_protocol_errors, proto_errors);
                    let (code, msg) = if exhausted {
                        (
                            "error_budget",
                            "protocol-error budget exhausted; closing connection",
                        )
                    } else {
                        (kind, msg)
                    };
                    out.deliver(seq, to_string(&err_reply_coded(None, code, msg)));
                    seq += 1;
                    if exhausted {
                        break 'reader;
                    }
                    continue;
                }
                LineEvent::Line(line) => {
                    last_activity = Instant::now();
                    line
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let parsed = parse(&line);
            if parsed.is_err() {
                proto_errors += 1;
                metrics.add_protocol_error("bad_json");
                if budget_hit(opts.max_protocol_errors, proto_errors) {
                    out.deliver(
                        seq,
                        to_string(&err_reply_coded(
                            None,
                            "error_budget",
                            "protocol-error budget exhausted; closing connection",
                        )),
                    );
                    break;
                }
                // Below the budget the line still goes to the engine so
                // malformed requests keep their established parse-error
                // reply text.
            }
            let req = parsed.as_ref().ok();
            let op = req.and_then(|r| r.get("op")).and_then(Json::as_str);
            let stop = matches!(op, Some("shutdown"));
            // Admission control, cheapest first: quota (a constant-time
            // bucket probe), then the deadline shed estimate. Both answer
            // at this request's reply position without costing a worker.
            // `shutdown` is exempt — a throttled client may always leave.
            if let (Some(q), Some(req), false) = (&opts.quota, req, stop) {
                if let Err(retry_ms) = engine.quota_take(&opts.client, q.burst, q.per_sec) {
                    metrics.add_quota_rejected();
                    out.deliver(
                        seq,
                        to_string(&err_reply_retry(
                            Some(req),
                            "quota_rejected",
                            "per-client request quota exhausted",
                            retry_ms,
                        )),
                    );
                    seq += 1;
                    continue;
                }
            }
            if let Some(deadline_ms) = req
                .and_then(|r| r.get("deadline_ms"))
                .and_then(Json::as_u64)
            {
                let (queued, in_flight) = queue.load();
                let pending = (queued + in_flight) as u64;
                let est_ns = pending.saturating_mul(metrics.estimated_service_ns().max(1));
                if pending > 0 && est_ns > deadline_ms.saturating_mul(1_000_000) {
                    metrics.add_shed();
                    out.deliver(
                        seq,
                        to_string(&err_reply_retry(
                            req,
                            "overloaded",
                            "estimated queue wait exceeds deadline_ms; request shed",
                            est_ns.div_ceil(1_000_000).max(1),
                        )),
                    );
                    seq += 1;
                    continue;
                }
            }
            // Ids are assigned here, at admission, so id order == arrival
            // order even when workers finish out of order.
            let req_id = engine.next_request_id();
            tarr_trace::counter_add!("serve.admitted", 1);
            // Workers deliver before `done`, so once the pool is idle every
            // earlier reply has been written and an inline reply flushes in
            // sequence. Inline runs never queue: their queue-wait is zero
            // (a barrier's wait shows up as latency of *later* requests).
            // A read-only request runs inline only when no further line is
            // buffered either: a pipelined batch keeps its workers. Only
            // the reader pushes, so an idle pool stays idle meanwhile.
            let inline = if is_mutating(op) {
                queue.wait_idle();
                true
            } else {
                queue.load() == (0, 0) && !reader.line_buffered()
            };
            if inline {
                serve(seq, req_id, Duration::ZERO, &parsed);
            } else {
                queue.push(seq, req_id, line);
            }
            seq += 1;
            if stop {
                break;
            }
        }
        queue.close();
    });
    if let Some(t0) = drain_started.get() {
        metrics.set_drain_seconds(t0.elapsed().as_secs_f64());
    }
    out.finish()
}

/// Serve the engine's Prometheus text snapshot over HTTP/1.0, forever: one
/// connection at a time (scrapes are rare and tiny), request head drained
/// and ignored, snapshot rendered per scrape. Pair with a
/// `TcpListener::bind` on the `--metrics` address.
pub fn serve_metrics(engine: &Engine, listener: TcpListener) -> io::Result<()> {
    loop {
        let (mut stream, _) = listener.accept()?;
        // Drain the request head (best-effort; a scrape that dawdles past
        // the timeout just gets its snapshot early).
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut head = [0u8; 4096];
        let mut seen = 0;
        while seen < head.len() {
            match stream.read(&mut head[seen..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    seen += n;
                    if head[..seen].windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
        let body = engine.metrics().render_prometheus();
        let reply = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(reply.as_bytes());
    }
}

/// Serve TCP connections: each accepted connection runs its own
/// [`serve_lines`] loop on scoped threads against the shared engine, so
/// concurrent connections coalesce onto the same cluster cores. A
/// `shutdown` op ends its own connection only; the daemon runs until
/// killed — or, when `opts.shutdown` is set, until the flag flips, at
/// which point the listener stops accepting, every live connection drains,
/// and the call returns `Ok(())`.
pub fn serve_tcp(engine: &Engine, listener: TcpListener, opts: &ServeOpts) -> io::Result<()> {
    // Non-blocking accept so the loop can observe the shutdown flag; the
    // accepted sockets themselves are switched back to blocking reads with
    // a short timeout (the serving loop's Tick cadence).
    listener.set_nonblocking(true)?;
    let metrics = engine.metrics();
    let active = AtomicUsize::new(0);
    let active = &active;
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if opts
                .shutdown
                .is_some_and(|flag| flag.load(Ordering::Relaxed))
            {
                // Stop accepting; the scope join below waits for every
                // connection thread to finish its own drain.
                return Ok(());
            }
            let (stream, peer) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if active.load(Ordering::Relaxed) >= opts.max_conns.max(1) {
                metrics.add_conn_rejected();
                let mut stream = stream;
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let mut reply = to_string(&err_reply_retry(
                    None,
                    "conn_rejected",
                    "connection limit reached; retry later",
                    CONN_RETRY_MS,
                ));
                reply.push('\n');
                let _ = stream.write_all(reply.as_bytes());
                continue;
            }
            active.fetch_add(1, Ordering::Relaxed);
            metrics.connection(true);
            let mut conn_opts = opts.clone();
            conn_opts.client = peer.ip().to_string();
            scope.spawn(move || {
                let _ = stream.set_nonblocking(false);
                // Replies are whole lines written once; sending each at
                // once beats coalescing it with a reply not yet computed.
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_TICK));
                if let Some(wt) = conn_opts.write_timeout {
                    let _ = stream.set_write_timeout(Some(wt));
                }
                match stream.try_clone() {
                    Ok(reader) => {
                        if let Err(e) = serve_lines(engine, reader, stream, &conn_opts) {
                            eprintln!("serve: {peer}: {e}");
                        }
                    }
                    Err(e) => eprintln!("serve: {peer}: {e}"),
                }
                metrics.connection(false);
                active.fetch_sub(1, Ordering::Relaxed);
            });
        }
    })
}

/// Accept-loop poll cadence while the listener has nothing to hand out.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Per-connection read timeout: the Tick cadence for idle reaping and
/// shutdown observation.
const READ_TICK: Duration = Duration::from_millis(100);
/// `retry_after_ms` hint on connection-cap rejections.
const CONN_RETRY_MS: u64 = 100;
