//! Hand-rolled structured tracing for the tarr workspace.
//!
//! The mapping→compile→price pipeline spans seven crates; understanding
//! where a sweep spends its time (and where bytes land on the network)
//! needs instrumentation that every crate can afford to link. This crate is
//! that substrate, built in the same spirit as `tarr-netsim`'s hand-rolled
//! FxHash: zero dependencies (no tokio, no `tracing`), offline-friendly,
//! and compiled down to a single relaxed atomic load when disabled.
//!
//! Primitives:
//!
//! * **Spans** — RAII guards ([`span`]) recording name, thread, nesting
//!   depth, start and duration against a process-wide monotonic epoch.
//!   [`timed_span`] additionally *returns* the measured [`Duration`] so
//!   call sites that feed durations into their own bookkeeping (e.g.
//!   `MappingInfo::compute`) need no second clock.
//! * **Counters** — monotonic [`Counter`]s, sampled into the timeline with
//!   [`sample_metrics`]. The [`counter_add!`] macro caches the registry
//!   lookup per call site.
//! * **Gauges** — last-value [`Gauge`]s for levels (cache sizes, RSS).
//! * **Histograms** — lock-free log2-bucket [`Histogram`]s for latency- or
//!   size-shaped distributions.
//! * **Instant events** — point-in-time records ([`instant`]) carrying
//!   structured args, used e.g. for per-stage traffic breakdowns.
//! * **Request scopes** — a thread-local current-request context
//!   ([`request_scope`]): every span or instant that closes inside the
//!   scope carries a `req_id` argument (so one JSONL export reconstructs
//!   each request's full span tree — see [`analyze`]), and the scope
//!   accumulates per-span-name *self*-times, which it returns as a
//!   [`RequestBreakdown`] even while the recorder is off — the substrate
//!   for slow-request logging.
//!
//! Two exporters serialize the recording: newline-delimited JSON
//! ([`export_jsonl`], the machine-checked format — see [`validate_jsonl`])
//! and the Chrome trace-event format ([`export_chrome`]) loadable in
//! Perfetto / `chrome://tracing` for flamegraph views. [`summary_table`]
//! renders an end-of-run text digest.
//!
//! Everything is a no-op until [`set_enabled`]`(true)`; the recorder is a
//! process-wide singleton guarded by plain mutexes (contention is bounded:
//! events are pushed once per span end, not per operation).

pub mod analyze;
mod export;
pub mod json;
mod validate;

pub use export::{export_chrome, export_jsonl, summary_table};
pub use validate::{validate_jsonl, Expectations, ValidationReport};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global switch and clock
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on or off. Off (the default) makes every primitive a
/// no-op behind one relaxed atomic load.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the epoch before the first event
    }
    ENABLED.store(on, Relaxed);
}

/// Is recording currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// A structured argument value attached to spans and instant events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

type Args = Vec<(&'static str, Value)>;

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct SpanEvent {
    pub(crate) name: &'static str,
    pub(crate) tid: u32,
    pub(crate) depth: u32,
    pub(crate) ts_ns: u64,
    pub(crate) dur_ns: u64,
    pub(crate) args: Args,
}

#[derive(Debug, Clone)]
pub(crate) struct InstantEvent {
    pub(crate) name: &'static str,
    pub(crate) tid: u32,
    pub(crate) ts_ns: u64,
    pub(crate) args: Args,
}

#[derive(Debug, Clone)]
pub(crate) enum Sample {
    Counter {
        name: &'static str,
        ts_ns: u64,
        value: u64,
    },
    Gauge {
        name: &'static str,
        ts_ns: u64,
        value: f64,
    },
}

struct Recorder {
    spans: Mutex<Vec<SpanEvent>>,
    instants: Mutex<Vec<InstantEvent>>,
    samples: Mutex<Vec<Sample>>,
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    hists: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    dropped: AtomicU64,
}

/// Hard cap on buffered span/instant events; beyond it events are counted
/// as dropped instead of growing memory without bound.
const MAX_EVENTS: usize = 1 << 20;

fn rec() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        spans: Mutex::new(Vec::new()),
        instants: Mutex::new(Vec::new()),
        samples: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
        dropped: AtomicU64::new(0),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding one of these locks cannot leave partial state:
    // every critical section is a single push/insert.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn push_span(ev: SpanEvent) {
    let mut spans = lock(&rec().spans);
    if spans.len() < MAX_EVENTS {
        spans.push(ev);
    } else {
        rec().dropped.fetch_add(1, Relaxed);
    }
}

fn push_instant(ev: InstantEvent) {
    let mut instants = lock(&rec().instants);
    if instants.len() < MAX_EVENTS {
        instants.push(ev);
    } else {
        rec().dropped.fetch_add(1, Relaxed);
    }
}

pub(crate) struct Snapshot {
    pub(crate) spans: Vec<SpanEvent>,
    pub(crate) instants: Vec<InstantEvent>,
    pub(crate) samples: Vec<Sample>,
    pub(crate) hists: Vec<(&'static str, HistSnapshot)>,
    pub(crate) dropped: u64,
}

pub(crate) fn snapshot() -> Snapshot {
    // Stamp the current counter/gauge values into the timeline so exports
    // always carry final readings even if the caller never sampled.
    sample_metrics_at(now_ns());
    Snapshot {
        spans: lock(&rec().spans).clone(),
        instants: lock(&rec().instants).clone(),
        samples: lock(&rec().samples).clone(),
        hists: lock(&rec().hists)
            .iter()
            .filter(|(_, h)| h.count.load(Relaxed) > 0)
            .map(|(&n, h)| (n, h.snapshot()))
            .collect(),
        dropped: rec().dropped.load(Relaxed),
    }
}

/// Clear every buffered event and zero all registered metrics. Intended for
/// tests; a reset mid-run breaks counter monotonicity in the export.
pub fn reset() {
    lock(&rec().spans).clear();
    lock(&rec().instants).clear();
    lock(&rec().samples).clear();
    for c in lock(&rec().counters).values() {
        c.value.store(0, Relaxed);
    }
    for g in lock(&rec().gauges).values() {
        g.bits.store(0, Relaxed);
        g.touched.store(false, Relaxed);
    }
    for h in lock(&rec().hists).values() {
        h.reset();
    }
    rec().dropped.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// Thread identity and span nesting depth
// ---------------------------------------------------------------------------

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            return v;
        }
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let v = NEXT.fetch_add(1, Relaxed);
        t.set(v);
        v
    })
}

// ---------------------------------------------------------------------------
// Request context
// ---------------------------------------------------------------------------

thread_local! {
    static REQ: RefCell<Option<ReqState>> = const { RefCell::new(None) };
    /// Retired [`ReqState`]s, recycled so the per-request hot path reuses
    /// their vector allocations instead of allocating per scope.
    static REQ_POOL: RefCell<Vec<ReqState>> = const { RefCell::new(Vec::new()) };
}

/// Most pooled states a thread retains; beyond this they are dropped.
const REQ_POOL_CAP: usize = 8;

fn recycle_req_state(mut st: ReqState) {
    REQ_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < REQ_POOL_CAP {
            st.child_ns.clear();
            st.self_ns.clear();
            pool.push(st);
        }
    });
}

struct ReqState {
    id: u64,
    /// One accumulator per open tracked span on this thread plus a root
    /// sentinel; each entry sums the durations of its direct children, so
    /// a closing span's self-time is `dur − child_ns.pop()`.
    child_ns: Vec<u64>,
    /// Self-time accumulated per span name.
    self_ns: Vec<(&'static str, u64)>,
}

/// The request id of the innermost active [`request_scope`] on this
/// thread, if any.
pub fn current_request() -> Option<u64> {
    REQ.with(|r| r.borrow().as_ref().map(|st| st.id))
}

fn request_active() -> bool {
    REQ.with(|r| r.borrow().is_some())
}

/// Open a child accumulator for a span starting under the active request.
/// Returns false (and records nothing) when no scope is active.
fn open_request_child() -> bool {
    REQ.with(|r| match r.borrow_mut().as_mut() {
        Some(st) => {
            st.child_ns.push(0);
            true
        }
        None => false,
    })
}

/// Close a tracked span: fold its self-time into the per-name table, add
/// its full duration to the parent accumulator, and return the request id.
fn close_request_child(name: &'static str, dur_ns: u64) -> Option<u64> {
    REQ.with(|r| {
        let mut b = r.borrow_mut();
        let st = b.as_mut()?;
        let children = st.child_ns.pop().unwrap_or(0);
        let self_ns = dur_ns.saturating_sub(children);
        match st.self_ns.iter_mut().find(|(n, _)| *n == name) {
            Some(e) => e.1 += self_ns,
            None => st.self_ns.push((name, self_ns)),
        }
        if let Some(parent) = st.child_ns.last_mut() {
            *parent += dur_ns;
        }
        Some(st.id)
    })
}

/// Per-request timing totals returned by [`RequestScope::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// The id the scope was opened with.
    pub id: u64,
    /// Wall-clock nanoseconds between scope open and finish.
    pub total_ns: u64,
    /// Per-span-name *self*-time (duration minus child spans), sorted
    /// largest first. Empty if no span closed inside the scope.
    pub stages: Vec<(&'static str, u64)>,
}

/// RAII guard installing `id` as this thread's current request; see
/// [`request_scope`].
#[must_use = "the scope attributes spans to the request only while it is alive"]
pub struct RequestScope {
    id: u64,
    prev: Option<ReqState>,
    start_ns: u64,
    armed: bool,
}

/// Install `id` as the current request on this thread. Until the returned
/// scope is finished (or dropped), every [`span`] opened on this thread
/// records a `req_id` argument and contributes its self-time to the
/// scope's [`RequestBreakdown`]; [`instant`] events gain the same
/// argument. Scopes nest (the previous request is restored on exit) and
/// the state is purely thread-local — nothing on the hot path is shared.
pub fn request_scope(id: u64) -> RequestScope {
    let mut st = REQ_POOL.with(|p| p.borrow_mut().pop()).unwrap_or(ReqState {
        id,
        child_ns: Vec::new(),
        self_ns: Vec::new(),
    });
    st.id = id;
    st.child_ns.push(0);
    let prev = REQ.with(|r| r.borrow_mut().replace(st));
    RequestScope {
        id,
        prev,
        start_ns: now_ns(),
        armed: true,
    }
}

impl RequestScope {
    /// End the scope and return the accumulated per-stage self-times.
    /// Costs a sort and an allocation — when the breakdown is not needed,
    /// just drop the scope instead.
    pub fn finish(mut self) -> RequestBreakdown {
        self.armed = false;
        let st = REQ.with(|r| {
            let taken = r.borrow_mut().take();
            *r.borrow_mut() = self.prev.take();
            taken
        });
        let mut stages = match st {
            Some(mut s) => {
                let stages = std::mem::take(&mut s.self_ns);
                recycle_req_state(s);
                stages
            }
            None => Vec::new(),
        };
        stages.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        RequestBreakdown {
            id: self.id,
            total_ns: now_ns().saturating_sub(self.start_ns),
            stages,
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if self.armed {
            let taken = REQ.with(|r| {
                let taken = r.borrow_mut().take();
                *r.borrow_mut() = self.prev.take();
                taken
            });
            if let Some(st) = taken {
                recycle_req_state(st);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanInner {
    name: &'static str,
    ts_ns: u64,
    depth: u32,
    args: Args,
    /// Push a trace event on drop (the recorder was on at open).
    record: bool,
    /// A request scope was active at open: close its child accumulator
    /// (and stamp `req_id`) on drop.
    tracked: bool,
}

/// An RAII span guard: records a complete event (name, thread, depth,
/// start, duration) when dropped. Construct with [`span`].
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    inner: Option<SpanInner>,
}

/// Open a span. No-op (and allocation-free) while tracing is disabled and
/// no [`request_scope`] is active on this thread.
pub fn span(name: &'static str) -> Span {
    let record = enabled();
    if !record && !request_active() {
        return Span { inner: None };
    }
    let tracked = open_request_child();
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span {
        inner: Some(SpanInner {
            name,
            ts_ns: now_ns(),
            depth,
            // Sized for the common case (two caller args + req_id) so the
            // builder chain never reallocates on the hot path.
            args: Vec::with_capacity(4),
            record,
            tracked,
        }),
    }
}

impl Span {
    /// Whether this span will record anything at all (recorder on, or a
    /// request scope active at open). Lets callers skip building args
    /// whose `Into<Value>` conversion allocates.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a structured argument (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(i) = &mut self.inner {
            i.args.push((key, value.into()));
        }
        self
    }

    /// Attach an argument whose value is only known mid-scope.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(i) = &mut self.inner {
            i.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let dur_ns = now_ns().saturating_sub(i.ts_ns);
            let req_id = if i.tracked {
                close_request_child(i.name, dur_ns)
            } else {
                None
            };
            if i.record {
                let mut args = i.args;
                if let Some(id) = req_id {
                    args.push(("req_id", Value::U64(id)));
                }
                push_span(SpanEvent {
                    name: i.name,
                    tid: tid(),
                    depth: i.depth,
                    ts_ns: i.ts_ns,
                    dur_ns,
                    args,
                });
            }
        }
    }
}

/// A span that *always* measures wall-clock time, recording a trace event
/// only when tracing is enabled. For call sites that must return the
/// duration regardless (e.g. mapping-overhead bookkeeping).
#[must_use = "call finish() to obtain the measured duration"]
pub struct TimedSpan {
    start: Instant,
    span: Span,
}

/// Open a [`TimedSpan`]. The [`Instant`] is taken unconditionally.
pub fn timed_span(name: &'static str) -> TimedSpan {
    TimedSpan {
        start: Instant::now(),
        span: span(name),
    }
}

impl TimedSpan {
    /// Attach a structured argument (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.span = self.span.arg(key, value);
        self
    }

    /// Close the span and return the measured wall-clock duration.
    pub fn finish(self) -> Duration {
        let d = self.start.elapsed();
        drop(self.span);
        d
    }
}

// ---------------------------------------------------------------------------
// Instant events
// ---------------------------------------------------------------------------

/// Builder for a point-in-time event; see [`instant`].
#[must_use = "call emit() to record the event"]
pub struct EventBuilder {
    inner: Option<(&'static str, Args)>,
}

/// Start building an instant event. No-op while tracing is disabled.
pub fn instant(name: &'static str) -> EventBuilder {
    EventBuilder {
        inner: enabled().then(|| (name, Vec::new())),
    }
}

impl EventBuilder {
    /// Attach a structured argument.
    pub fn arg(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some((_, args)) = &mut self.inner {
            args.push((key, value.into()));
        }
        self
    }

    /// Record the event. Inside a [`request_scope`], a `req_id` argument
    /// is appended automatically.
    pub fn emit(self) {
        if let Some((name, mut args)) = self.inner {
            if let Some(id) = current_request() {
                args.push(("req_id", Value::U64(id)));
            }
            push_instant(InstantEvent {
                name,
                tid: tid(),
                ts_ns: now_ns(),
                args,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

/// A monotonic counter. Obtain a handle with [`counter`]; handles are
/// `'static` and can be cached (the [`counter_add!`] macro does so).
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`, but only while tracing is enabled (keeps samples monotone
    /// across enable/disable cycles and keeps disabled runs free).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Add `n` without re-checking the enable flag (caller already did).
    #[inline]
    pub fn add_unchecked(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// Look up (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    lock(&rec().counters).entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            value: AtomicU64::new(0),
        }))
    })
}

/// Add to a named counter, caching the registry lookup per call site.
/// Compiles to one relaxed load when tracing is disabled.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static CELL: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::counter($name))
                .add_unchecked($n);
        }
    }};
}

/// A last-value gauge. Obtain with [`gauge`].
pub struct Gauge {
    bits: AtomicU64,
    /// Set at least once since the last reset — a touched gauge is sampled
    /// even at 0.0, so exports show levels returning to zero (the
    /// set/unset pairing `trace-validate` can then check).
    touched: AtomicBool,
}

impl Gauge {
    /// Set the gauge (no-op while tracing is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.bits.store(v.to_bits(), Relaxed);
            self.touched.store(true, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

/// Look up (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    lock(&rec().gauges).entry(name).or_insert_with(|| {
        Box::leak(Box::new(Gauge {
            bits: AtomicU64::new(0),
            touched: AtomicBool::new(false),
        }))
    })
}

/// Number of log2 buckets: bucket `k` holds values in `[2^(k−1), 2^k)`
/// (bucket 0 holds exactly 0), so 65 buckets cover all of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A lock-free log2-bucket histogram with count/sum/min/max.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Occupied `(bucket_index, count)` pairs; values in bucket `k` lie in
    /// `[2^(k−1), 2^k)`.
    pub buckets: Vec<(u32, u64)>,
}

/// The `[lo, hi]` value range of log2 bucket `k`.
pub fn bucket_bounds(k: u32) -> (u64, u64) {
    match k {
        0 => (0, 0),
        64.. => (1u64 << 63, u64::MAX),
        k => (1u64 << (k - 1), (1u64 << k) - 1),
    }
}

impl HistSnapshot {
    /// The `q`-quantile (`0 < q ≤ 1`) estimated from the log2 buckets:
    /// find the bucket holding the target rank, linearly interpolate
    /// inside it, and clamp to the observed min/max (so p100 is exactly
    /// `max` and the coarse buckets cannot over-report). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(k, c) in &self.buckets {
            cum += c;
            if cum >= target {
                let (lo, hi) = bucket_bounds(k);
                let into = (target - (cum - c)) as f64 / c as f64;
                let v = lo as f64 + into * (hi - lo) as f64;
                return (v as u64).clamp(self.min, self.max.max(self.min));
            }
        }
        self.max
    }

    /// The (p50, p95, p99) triple — the percentile summary exposition and
    /// benches report.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

impl Histogram {
    /// A standalone (unregistered) histogram for embedding in always-on
    /// metric structs; pair with [`Histogram::record_always`], since the
    /// gated [`Histogram::record`] is meant for registry histograms.
    pub const fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Record a value while tracing is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Record a value regardless of the recorder switch — for histograms
    /// owned by always-on metric structs rather than the trace registry.
    #[inline]
    pub fn record_always(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Record a non-negative float (e.g. simulated seconds scaled to ns),
    /// saturating at `u64::MAX`.
    #[inline]
    pub fn record_f64(&self, v: f64) {
        if v.is_finite() && v >= 0.0 {
            self.record(if v >= u64::MAX as f64 {
                u64::MAX
            } else {
                v as u64
            });
        }
    }

    /// A point-in-time copy of count/sum/min/max and the occupied buckets.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.load(Relaxed) > 0)
                .map(|(i, b)| (i as u32, b.load(Relaxed)))
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Look up (registering on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    lock(&rec().hists)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

// ---------------------------------------------------------------------------
// Metric sampling
// ---------------------------------------------------------------------------

/// Stamp the current value of every registered counter and gauge into the
/// timeline. Call between phases so the exported series show progression;
/// the exporters take one final sample automatically.
pub fn sample_metrics() {
    if !enabled() {
        return;
    }
    sample_metrics_at(now_ns());
}

fn sample_metrics_at(ts_ns: u64) {
    let mut out: Vec<Sample> = Vec::new();
    for (&name, c) in lock(&rec().counters).iter() {
        out.push(Sample::Counter {
            name,
            ts_ns,
            value: c.get(),
        });
    }
    for (&name, g) in lock(&rec().gauges).iter() {
        // Touched gauges sample even at zero (so a level that returned to
        // zero shows it); never-set gauges stay out of the export.
        if g.touched.load(Relaxed) {
            let value = g.get();
            out.push(Sample::Gauge { name, ts_ns, value });
        }
    }
    lock(&rec().samples).extend(out);
}

#[cfg(test)]
pub(crate) fn test_guard() -> MutexGuard<'static, ()> {
    // The recorder is process-global; tests that enable it must serialize.
    static GUARD: Mutex<()> = Mutex::new(());
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(false);
    reset();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let _g = test_guard();
        {
            let _s = span("noop").arg("k", 1u64);
        }
        counter("noop.c").add(5);
        gauge("noop.g").set(1.5);
        histogram("noop.h").record(42);
        instant("noop.e").arg("x", 1u64).emit();
        sample_metrics();
        assert_eq!(counter("noop.c").get(), 0);
        assert_eq!(gauge("noop.g").get(), 0.0);
        assert!(lock(&rec().spans).is_empty());
        assert!(lock(&rec().instants).is_empty());
        assert!(lock(&rec().samples).is_empty());
    }

    #[test]
    fn spans_record_nesting_and_duration() {
        let _g = test_guard();
        set_enabled(true);
        {
            let _outer = span("outer").arg("p", 8u64);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("inner");
            }
        }
        set_enabled(false);
        let spans = lock(&rec().spans).clone();
        assert_eq!(spans.len(), 2);
        // Children drop (and record) before parents.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].dur_ns >= 2_000_000, "outer spans the sleep");
        // inner lies within outer
        let (o, i) = (&spans[1], &spans[0]);
        assert!(i.ts_ns >= o.ts_ns && i.ts_ns + i.dur_ns <= o.ts_ns + o.dur_ns);
        assert_eq!(o.args, vec![("p", Value::U64(8))]);
    }

    #[test]
    fn timed_span_measures_even_when_disabled() {
        let _g = test_guard();
        let ts = timed_span("work");
        std::thread::sleep(Duration::from_millis(2));
        let d = ts.finish();
        assert!(d >= Duration::from_millis(2));
        assert!(lock(&rec().spans).is_empty(), "disabled: no event recorded");
    }

    #[test]
    fn counters_accumulate_and_sample_monotone() {
        let _g = test_guard();
        set_enabled(true);
        let c = counter("t.ops");
        c.add(3);
        sample_metrics();
        c.add(4);
        counter_add!("t.ops", 1);
        sample_metrics();
        set_enabled(false);
        assert_eq!(c.get(), 8);
        let vals: Vec<u64> = lock(&rec().samples)
            .iter()
            .filter_map(|s| match s {
                Sample::Counter { name, value, .. } if *name == "t.ops" => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(vals, vec![3, 8]);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let _g = test_guard();
        set_enabled(true);
        let h = histogram("t.h");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        set_enabled(false);
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0→bucket 0, 1→1, 2..3→2, 4→3, 1000→10
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn request_scope_tags_spans_and_accumulates_self_times() {
        let _g = test_guard();
        set_enabled(true);
        let scope = request_scope(42);
        {
            let _outer = span("req.outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("req.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        instant("req.evt").emit();
        let bd = scope.finish();
        set_enabled(false);
        assert_eq!(bd.id, 42);
        assert!(bd.total_ns >= 4_000_000);
        let stages: BTreeMap<&str, u64> = bd.stages.iter().copied().collect();
        assert!(stages["req.inner"] >= 2_000_000);
        // outer's self excludes inner's time
        let outer_self = stages["req.outer"];
        let spans = lock(&rec().spans).clone();
        let outer = spans.iter().find(|s| s.name == "req.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "req.inner").unwrap();
        assert_eq!(outer_self, outer.dur_ns - inner.dur_ns);
        for s in [outer, inner] {
            assert!(
                s.args.contains(&("req_id", Value::U64(42))),
                "{} lacks req_id: {:?}",
                s.name,
                s.args
            );
        }
        let ev = &lock(&rec().instants).clone()[0];
        assert!(ev.args.contains(&("req_id", Value::U64(42))));
        assert_eq!(
            current_request(),
            None,
            "finish restores the previous scope"
        );
    }

    #[test]
    fn request_scope_breaks_down_without_the_recorder() {
        let _g = test_guard();
        assert!(!enabled());
        let scope = request_scope(7);
        {
            let _s = span("dark.work");
            std::thread::sleep(Duration::from_millis(2));
        }
        let bd = scope.finish();
        assert_eq!(bd.id, 7);
        assert_eq!(bd.stages.len(), 1);
        assert_eq!(bd.stages[0].0, "dark.work");
        assert!(bd.stages[0].1 >= 2_000_000);
        assert!(
            lock(&rec().spans).is_empty(),
            "recorder off: nothing buffered"
        );
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        let _g = test_guard();
        let outer = request_scope(1);
        assert_eq!(current_request(), Some(1));
        let inner = request_scope(2);
        assert_eq!(current_request(), Some(2));
        drop(inner);
        assert_eq!(current_request(), Some(1));
        let bd = outer.finish();
        assert_eq!(bd.id, 1);
        assert_eq!(current_request(), None);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let _g = test_guard();
        set_enabled(true);
        let h = histogram("t.q");
        for v in 1..=100u64 {
            h.record(v);
        }
        set_enabled(false);
        let s = h.snapshot();
        let (p50, p95, p99) = s.percentiles();
        // log2 buckets are coarse: accept the right bucket, not the exact
        // rank, and the clamp pins the extremes.
        assert!((32..=64).contains(&p50), "p50 = {p50}");
        assert!((64..=100).contains(&p95), "p95 = {p95}");
        assert!((64..=100).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 100, "p100 clamps to max");
        let one = HistSnapshot {
            count: 1,
            sum: 7,
            min: 7,
            max: 7,
            buckets: vec![(3, 1)],
        };
        assert_eq!(one.quantile(0.5), 7);
        let empty = HistSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn touched_gauges_sample_at_zero() {
        let _g = test_guard();
        set_enabled(true);
        gauge("t.level").set(3.0);
        gauge("t.level").set(0.0);
        gauge("t.never");
        sample_metrics();
        set_enabled(false);
        let samples = lock(&rec().samples).clone();
        let zeroed = samples.iter().any(|s| {
            matches!(s, Sample::Gauge { name, value, .. } if *name == "t.level" && *value == 0.0)
        });
        assert!(zeroed, "a touched gauge samples even at zero");
        let never = samples
            .iter()
            .any(|s| matches!(s, Sample::Gauge { name, .. } if *name == "t.never"));
        assert!(!never, "a never-set gauge stays out of the export");
    }

    #[test]
    fn event_cap_counts_drops() {
        let _g = test_guard();
        set_enabled(true);
        lock(&rec().spans).resize(
            MAX_EVENTS,
            SpanEvent {
                name: "pad",
                tid: 0,
                depth: 0,
                ts_ns: 0,
                dur_ns: 0,
                args: Vec::new(),
            },
        );
        {
            let _s = span("over");
        }
        set_enabled(false);
        assert_eq!(rec().dropped.load(Relaxed), 1);
        assert_eq!(lock(&rec().spans).len(), MAX_EVENTS);
    }
}
