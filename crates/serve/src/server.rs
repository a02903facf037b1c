//! The serving loop: a bounded admission queue, a `std::thread::scope`
//! worker pool, and an ordered-output stage that makes reply order equal
//! request order no matter how many workers race.
//!
//! The reader thread assigns each request line a sequence number and
//! enqueues it (blocking when the queue is at capacity — admission is
//! backpressure, not rejection, so a fast client cannot balloon memory).
//! Workers pop lines, run them through the [`Engine`], and hand
//! `(seq, reply)` to the reorder buffer, which writes replies strictly in
//! sequence order (TCP streams also set `TCP_NODELAY`).
//!
//! **Write-behind rule.** Under the output lock, after inserting its
//! reply, a worker writes the whole in-order ready run as one write — but
//! only if no request waits in the admission queue or the run has reached
//! 64 KiB (`WRITE_BEHIND_BYTES`). Otherwise it leaves the run for
//! whichever worker delivers next: the waiting request will be popped and
//! delivered after this check, so a deferred run is never stranded. The
//! decision is made after the insert and under the output lock (lock
//! order: output → queue; nothing takes them the other way). Decided
//! before the insert, a worker could see a request waiting that another
//! worker then pops and delivers into a gap — the first worker's own slot
//! — and both replies would be stranded once the first one lands and
//! defers. Reader-side deliveries (inline requests, barriers, protocol
//! errors, quota and shed replies, the idle timeout) always write at once.
//! A pipelined pass of 24 lines thus leaves in a few writes instead of 24
//! `send`s that the workers queue behind. A write carries whole replies
//! only: a reply split over two writes would leave its tail waiting on the
//! client's delayed ACK under Nagle's algorithm. A run of one reply is
//! written from its own `String`, with no copy into the batch buffer.
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
//! pool is idle (nothing queued, nothing in flight) and the `LineReader`
//! holds no further line. Both are facts of the input, not settings. An
//! idle pool has written every earlier reply even under write-behind:
//! workers deliver before they report done, and the last delivery before
//! the pool went idle found no request waiting (one waiting would have
//! had to be popped and delivered later), so it wrote the whole run.
//! Order and barrier semantics are those of the queue. A buffered line
//! goes to the pool instead: inlining it would stall the requests
//! pipelined behind it (a batch would lose its workers, and a request
//! arriving while a slow one runs would wait for it). Mutating ops and
//! idle read-only ops share one routine with the workers — busy gauge
//! around the engine call — and their zero-wait reply is written at once,
//! with any earlier one still buffered. An inline request is parsed
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
//!   `LineReader`: a line longer than `max_line_bytes` is discarded (the
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
//! queue length, `serve.workers.busy` tracks threads currently inside a
//! request, the reader's inline runs included, and `serve.reply.writes`
//! counts reply writes (fewer than replies when write-behind coalesces).
//! [`serve_metrics`] is the companion scrape endpoint: a minimal HTTP/1.0
//! listener answering every request with the engine's Prometheus text
//! snapshot.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// A worker stops deferring its ready run once the run holds this many
/// bytes: the bound on what write-behind buffers and on how long a
/// computed reply can wait behind a busy queue.
const WRITE_BEHIND_BYTES: usize = 64 << 10;

/// Lock `m`, recovering the guard if a panicking thread poisoned it. The
/// queue and output states are updated by plain field writes that cannot
/// unwind halfway, so a poisoned guard still holds a consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`], recovering the guard like [`lock`].
fn wait<'g, T>(cv: &Condvar, guard: MutexGuard<'g, T>) -> MutexGuard<'g, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

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
        let mut st = lock(&self.state);
        while st.items.len() >= self.cap {
            st = wait(&self.not_full, st);
        }
        st.items.push_back((seq, req_id, Instant::now(), line));
        self.metrics.set_queue_depth(st.items.len() as u64);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Blocking pop; `None` once the queue is closed and drained. A popped
    /// request counts as in-flight until the worker calls [`Queue::done`].
    fn pop(&self) -> Option<Admitted> {
        let mut st = lock(&self.state);
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
            st = wait(&self.not_empty, st);
        }
    }

    /// A worker finished (and delivered the reply for) a popped request.
    fn done(&self) {
        lock(&self.state).in_flight -= 1;
        self.not_full.notify_all();
    }

    /// Block until every admitted request has been processed and delivered:
    /// the barrier before a state-mutating op runs.
    fn wait_idle(&self) {
        let mut st = lock(&self.state);
        while !st.items.is_empty() || st.in_flight > 0 {
            st = wait(&self.not_full, st);
        }
    }

    /// Instantaneous (queued, in-flight) load — the shedding estimator's
    /// view of the backlog.
    fn load(&self) -> (usize, usize) {
        let st = lock(&self.state);
        (st.items.len(), st.in_flight)
    }

    /// Whether a request waits to be popped: some worker will deliver it
    /// later, so a reply run left unwritten now is not stranded.
    fn waiting(&self) -> bool {
        !lock(&self.state).items.is_empty()
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
    }
}

/// The reorder buffer: workers deliver out of order, replies leave in
/// sequence order, in writes of whole replies. A worker's delivery may
/// leave the in-order run unwritten for a later delivery (the
/// write-behind rule in the module docs); a reader-side delivery writes
/// it at once.
struct OrderedOut<W: Write> {
    state: Mutex<OutState<W>>,
}

struct OutState<W: Write> {
    /// First slot not yet written.
    next: u64,
    /// First slot past the ready run: `next..ready` are all in `pending`.
    ready: u64,
    /// Bytes in the ready run.
    ready_bytes: usize,
    /// Delivered replies not yet written, each with its `\n`.
    pending: BTreeMap<u64, String>,
    /// Concatenation buffer of multi-reply writes, reused across writes.
    batch: Vec<u8>,
    sink: W,
    error: Option<io::Error>,
}

impl<W: Write> OrderedOut<W> {
    fn new(sink: W) -> Self {
        OrderedOut {
            state: Mutex::new(OutState {
                next: 0,
                ready: 0,
                ready_bytes: 0,
                pending: BTreeMap::new(),
                batch: Vec::new(),
                sink,
                error: None,
            }),
        }
    }

    /// Put `reply` (one line, no terminator) in slot `seq`. From a worker
    /// (`queue` is its admission queue) the ready run is written only if
    /// no request waits there or the run has reached
    /// [`WRITE_BEHIND_BYTES`]; from the reader (`None`) it is written at
    /// once. Either way the decision follows the insert, under the lock.
    fn deliver(&self, seq: u64, mut reply: String, queue: Option<&Queue<'_>>) {
        reply.push('\n');
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        st.pending.insert(seq, reply);
        while let Some(line) = st.pending.get(&st.ready) {
            st.ready_bytes += line.len();
            st.ready += 1;
        }
        if st.ready == st.next
            || (st.ready_bytes < WRITE_BEHIND_BYTES && queue.is_some_and(Queue::waiting))
        {
            return;
        }
        st.write_ready();
    }

    fn finish(self) -> io::Result<u64> {
        let st = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        debug_assert!(st.pending.is_empty(), "replies left in the reorder buffer");
        match st.error {
            Some(e) => Err(e),
            None => Ok(st.next),
        }
    }
}

impl<W: Write> OutState<W> {
    /// Write the ready run `next..ready` as one write. After a write error
    /// the stream is dead: replies are dropped, slots still advance.
    fn write_ready(&mut self) {
        let OutState {
            next,
            ready,
            ready_bytes,
            pending,
            batch,
            sink,
            error,
        } = self;
        const IN_RUN: &str = "every slot of the ready run holds a reply";
        let single;
        let bytes: &[u8] = if *ready - *next == 1 {
            single = pending.remove(next).expect(IN_RUN);
            single.as_bytes()
        } else {
            batch.clear();
            for seq in *next..*ready {
                batch.extend_from_slice(pending.remove(&seq).expect(IN_RUN).as_bytes());
            }
            batch
        };
        *next = *ready;
        *ready_bytes = 0;
        if error.is_none() {
            tarr_trace::counter_add!("serve.reply.writes", 1);
            let r = tarr_chaos::fail_io("conn.write")
                .and_then(|()| sink.write_all(bytes))
                .and_then(|()| sink.flush());
            if let Err(e) = r {
                *error = Some(e);
            }
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
///
/// Lines are consumed by advancing a cursor over the buffer; the consumed
/// prefix is dropped once per `read`, and the newline scan resumes where
/// the last one stopped, so a line costs one scan and one copy (into its
/// `String`).
struct LineReader<R: Read> {
    inner: R,
    /// Bytes read so far; `buf[start..]` is not yet consumed (the
    /// unconsumed part never grows past `max` + one chunk).
    buf: Vec<u8>,
    /// The consumed prefix of `buf`, dropped before the next read.
    start: usize,
    /// `buf[start..scanned]` holds no newline, or `buf[scanned]` is the
    /// next one: where the newline scan resumes.
    scanned: usize,
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
            start: 0,
            scanned: 0,
            max: max.max(1),
            overflow: false,
            eof: false,
        }
    }

    /// The index of the next unconsumed newline, if one is buffered.
    fn newline(&mut self) -> Option<usize> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.scanned += i;
                Some(self.scanned)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Consume `buf[start..end]` (plus the newline at `end`, if any):
    /// strip a `\r` and classify the line.
    fn take_line(&mut self, end: usize) -> LineEvent {
        let start = self.start;
        self.start = (end + 1).min(self.buf.len());
        self.scanned = self.start;
        let mut line = &self.buf[start..end];
        if let [rest @ .., b'\r'] = line {
            line = rest;
        }
        if self.overflow || line.len() > self.max {
            self.overflow = false;
            return LineEvent::TooLong;
        }
        match std::str::from_utf8(line) {
            Ok(s) => LineEvent::Line(s.to_owned()),
            Err(_) => LineEvent::BadUtf8,
        }
    }

    /// Whether another line is already buffered: a complete one, or the
    /// unterminated tail left at EOF. No read happens.
    fn line_buffered(&mut self) -> bool {
        self.newline().is_some() || (self.eof && self.start < self.buf.len())
    }

    fn next_event(&mut self) -> LineEvent {
        loop {
            if let Some(pos) = self.newline() {
                return self.take_line(pos);
            }
            // No complete line buffered: enforce the cap on the partial,
            // then (in overflow mode) drop what we have — it will never be
            // parsed, only skipped.
            if self.buf.len() - self.start > self.max {
                self.overflow = true;
            }
            if self.overflow {
                self.buf.clear();
                self.start = 0;
                self.scanned = 0;
            }
            if self.eof {
                if self.start == self.buf.len() && !self.overflow {
                    return LineEvent::Eof;
                }
                // A trailing unterminated line still counts.
                return self.take_line(self.buf.len());
            }
            if tarr_chaos::fail_io("conn.read").is_err() {
                // Injected connection-read failure: same as the peer
                // vanishing mid-stream.
                self.eof = true;
                continue;
            }
            // The one compaction per read: drop the consumed lines.
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
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
    let queue = Queue::new(opts.queue_cap, engine.metrics());
    let out = OrderedOut::new(output);
    serve_stream(engine, input, &queue, &out, opts);
    out.finish()
}

/// [`serve_lines`]'s loop over a given queue and reorder buffer.
fn serve_stream<W: Write + Send>(
    engine: &Engine,
    input: impl Read,
    queue: &Queue<'_>,
    out: &OrderedOut<W>,
    opts: &ServeOpts,
) {
    let metrics = engine.metrics();
    metrics.set_workers(opts.workers.max(1) as u64);
    // Set by the reader (scope's own thread) when the shutdown flag is
    // observed; read after the scope joins to time the drain.
    let drain_started: Cell<Option<Instant>> = Cell::new(None);
    // The one routine that runs a request, on a worker or inline on the
    // reader: the busy gauge brackets the engine.
    let serve = |req_id: u64, wait: Duration, parsed: &Result<Json, String>| {
        metrics.worker_busy(true);
        let reply = engine.handle_parsed(req_id, wait, parsed);
        metrics.worker_busy(false);
        reply
    };
    std::thread::scope(|scope| {
        for _ in 0..opts.workers.max(1) {
            scope.spawn(|| {
                while let Some((seq, req_id, admitted, line)) = queue.pop() {
                    let reply = serve(req_id, admitted.elapsed(), &parse(&line));
                    out.deliver(seq, reply, Some(queue));
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
                                None,
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
                    out.deliver(seq, to_string(&err_reply_coded(None, code, msg)), None);
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
                        None,
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
                        None,
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
                        None,
                    );
                    seq += 1;
                    continue;
                }
            }
            // Ids are assigned here, at admission, so id order == arrival
            // order even when workers finish out of order.
            let req_id = engine.next_request_id();
            tarr_trace::counter_add!("serve.admitted", 1);
            // Workers deliver before `done`, and the last delivery before
            // the pool went idle found no request waiting, so every earlier
            // reply has been written and an inline reply flushes in
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
                out.deliver(seq, serve(req_id, Duration::ZERO, &parsed), None);
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
                // Every write holds whole replies, and write-behind has
                // already coalesced what was ready: send each at once
                // rather than hold it for a reply not yet computed.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Poison `m` the way a worker would: panic while holding the guard.
    fn poison<T: Send>(m: &Mutex<T>) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = m.lock();
                    panic!("poisoning the lock on purpose");
                })
                .join();
        });
        assert!(m.is_poisoned());
    }

    #[test]
    fn poisoned_locks_still_answer_in_order() {
        let mut script = String::from(r#"{"id":0,"op":"ingest","cluster":"c","gpc_nodes":4}"#);
        for id in 1..=24 {
            let line = match id % 3 {
                0 => r#""op":"map","cluster":"c","mapper":"hrstc","pattern":"ring""#,
                1 => r#""op":"price","cluster":"c","collective":"allgather","msg_bytes":4096"#,
                _ => r#""op":"fault","cluster":"c","seed":3,"link_fail":0.01"#,
            };
            script.push_str(&format!("\n{{\"id\":{id},{line}}}"));
        }
        let opts = ServeOpts {
            workers: 4,
            queue_cap: 4,
            ..Default::default()
        };
        let mut want = Vec::new();
        serve_lines(&Engine::new(), script.as_bytes(), &mut want, &opts).unwrap();

        let engine = Engine::new();
        let queue = Queue::new(opts.queue_cap, engine.metrics());
        let mut got = Vec::new();
        let out = OrderedOut::new(&mut got);
        poison(&queue.state);
        poison(&out.state);
        serve_stream(&engine, script.as_bytes(), &queue, &out, &opts);
        assert_eq!(out.finish().unwrap(), 25);
        assert_eq!(
            String::from_utf8(got).unwrap(),
            String::from_utf8(want).unwrap()
        );
    }
}
