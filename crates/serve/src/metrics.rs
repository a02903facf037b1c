//! Always-on RED metrics for the serving stack and their Prometheus
//! text-format exposition.
//!
//! Unlike the `serve.*` trace counters (gated on the tarr-trace recorder),
//! these live on plain atomics owned by the [`Engine`](crate::Engine) and
//! record unconditionally — an untraced production daemon still answers
//! the `metrics` op and the `--metrics` scrape with real numbers. Per op:
//! request and error counters plus two log2-bucket latency histograms,
//! queue-wait (admission → dispatch) and service (dispatch → reply). Per
//! cluster: request/error counters. Plus worker busy/configured and
//! queue-depth level gauges, mirrored into the `serve.workers.busy` /
//! `serve.queue.depth` trace gauges when the recorder is on.
//!
//! [`render_prometheus`](ServeMetrics::render_prometheus) writes the
//! standard text format (version 0.0.4) by hand — no client library, same
//! zero-dependency rule as the rest of the workspace: `# HELP`/`# TYPE`
//! headers, families in sorted order, histogram series with cumulative
//! log2 `le` buckets in seconds. [`check_prometheus`] is the matching
//! structural validator used by tests and the `serve-metrics-check` CI
//! binary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use tarr_trace::{bucket_bounds, HistSnapshot, Histogram};

/// The protocol ops metrics are broken down by, alphabetical so the
/// exposition is sorted by construction. Unknown/unparseable requests land
/// in `other`.
pub const OPS: [&str; 12] = [
    "compact", "debug", "fault", "ingest", "map", "metrics", "other", "price", "reorder",
    "shutdown", "snapshot", "stats",
];
const OTHER: usize = 6;

/// Per-connection protocol-error kinds (the `kind` label of
/// `tarr_serve_protocol_errors_total`), alphabetical so the exposition is
/// sorted by construction.
pub const PROTOCOL_ERROR_KINDS: [&str; 4] =
    ["bad_json", "bad_utf8", "idle_timeout", "line_too_long"];

/// Every family [`ServeMetrics::render_prometheus`] emits unconditionally
/// (per-cluster families only appear once a cluster has traffic, so they
/// are excluded). `serve-metrics-check` fails a scrape that is missing any
/// of these — a stale exposition breaks CI, not code review.
pub const REQUIRED_FAMILIES: [&str; 18] = [
    "tarr_serve_conn_rejected_total",
    "tarr_serve_connections",
    "tarr_serve_drain_seconds",
    "tarr_serve_errors_total",
    "tarr_serve_fsync_seconds",
    "tarr_serve_panics_total",
    "tarr_serve_protocol_errors_total",
    "tarr_serve_queue_depth",
    "tarr_serve_queue_wait_seconds",
    "tarr_serve_quota_rejected_total",
    "tarr_serve_requests_total",
    "tarr_serve_service_seconds",
    "tarr_serve_shed_total",
    "tarr_serve_snapshot_bytes",
    "tarr_serve_wal_bytes",
    "tarr_serve_wal_degraded",
    "tarr_serve_workers",
    "tarr_serve_workers_busy",
];

/// The `# TYPE`-declared families missing from a text exposition, out of
/// [`REQUIRED_FAMILIES`]. Empty = complete.
pub fn missing_families(text: &str) -> Vec<&'static str> {
    REQUIRED_FAMILIES
        .iter()
        .filter(|name| !text.contains(&format!("# TYPE {name} ")))
        .copied()
        .collect()
}

/// The index of `op` in [`OPS`] (`other` when unknown).
pub fn op_index(op: &str) -> usize {
    OPS.binary_search(&op).unwrap_or(OTHER)
}

struct OpMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    /// Admission → dispatch, ns.
    queue_wait: Histogram,
    /// Dispatch → reply, ns.
    service: Histogram,
}

impl OpMetrics {
    const fn new() -> Self {
        OpMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
        }
    }
}

#[derive(Default)]
struct ClusterMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
}

/// Engine-owned RED metrics; see the module docs.
pub struct ServeMetrics {
    ops: [OpMetrics; OPS.len()],
    clusters: RwLock<BTreeMap<String, Arc<ClusterMetrics>>>,
    workers_busy: AtomicU64,
    workers: AtomicU64,
    queue_depth: AtomicU64,
    /// WAL append fdatasync latency, ns (persistence enabled only).
    fsync: Histogram,
    /// Current WAL file size in bytes (0 without persistence).
    wal_bytes: AtomicU64,
    /// Size of the last written/loaded snapshot in bytes (0 = none).
    snapshot_bytes: AtomicU64,
    /// Requests shed at admission because their deadline would be missed.
    shed: AtomicU64,
    /// Requests rejected by a per-client token-bucket quota.
    quota_rejected: AtomicU64,
    /// Connections refused at accept because the connection cap was hit.
    conn_rejected: AtomicU64,
    /// Live TCP connections being served.
    connections: AtomicU64,
    /// Per-kind protocol violations (see [`PROTOCOL_ERROR_KINDS`]).
    protocol_errors: [AtomicU64; PROTOCOL_ERROR_KINDS.len()],
    /// Request handlers that panicked (isolated into `internal_error`).
    panics: AtomicU64,
    /// Duration of the last graceful drain, f64 seconds as bits (0 = none).
    drain_seconds: AtomicU64,
    /// 1 while the WAL is refusing appends (last append failed), else 0.
    wal_degraded: AtomicU64,
    /// EWMA of per-request service time in ns (α = 1/8), the shedding
    /// estimator's cost model.
    ewma_service_ns: AtomicU64,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            ops: [const { OpMetrics::new() }; OPS.len()],
            clusters: RwLock::new(BTreeMap::new()),
            workers_busy: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            fsync: Histogram::new(),
            wal_bytes: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            conn_rejected: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            protocol_errors: [const { AtomicU64::new(0) }; PROTOCOL_ERROR_KINDS.len()],
            panics: AtomicU64::new(0),
            drain_seconds: AtomicU64::new(0),
            wal_degraded: AtomicU64::new(0),
            ewma_service_ns: AtomicU64::new(0),
        }
    }
}

impl ServeMetrics {
    fn cluster(&self, name: &str) -> Arc<ClusterMetrics> {
        if let Some(c) = self.clusters.read().expect("metrics poisoned").get(name) {
            return c.clone();
        }
        self.clusters
            .write()
            .expect("metrics poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Count a dispatched request. Called at dispatch (not reply) so an
    /// in-flight `metrics` op is included in its own snapshot and the
    /// per-op totals always sum to the engine's `serve.request` total.
    pub(crate) fn begin(&self, op_idx: usize, cluster: Option<&str>) {
        self.ops[op_idx].requests.fetch_add(1, Relaxed);
        if let Some(name) = cluster {
            self.cluster(name).requests.fetch_add(1, Relaxed);
        }
    }

    /// Record a finished request's outcome and latency split.
    pub(crate) fn end(
        &self,
        op_idx: usize,
        cluster: Option<&str>,
        ok: bool,
        queue_wait: Duration,
        service: Duration,
    ) {
        let op = &self.ops[op_idx];
        if !ok {
            op.errors.fetch_add(1, Relaxed);
            if let Some(name) = cluster {
                self.cluster(name).errors.fetch_add(1, Relaxed);
            }
        }
        op.queue_wait.record_always(queue_wait.as_nanos() as u64);
        op.service.record_always(service.as_nanos() as u64);
        // EWMA with α = 1/8 on a relaxed load/store: races lose an update,
        // never corrupt the estimate — fine for an admission cost model.
        let sample = (service.as_nanos() as u64).max(1);
        let old = self.ewma_service_ns.load(Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.ewma_service_ns.store(new.max(1), Relaxed);
    }

    /// The shedding estimator's per-request cost in ns (≥ 1 once any
    /// request has completed; 0 on a fresh engine).
    pub fn estimated_service_ns(&self) -> u64 {
        self.ewma_service_ns.load(Relaxed)
    }

    /// Count a request shed at admission (deadline would be missed).
    pub(crate) fn add_shed(&self) {
        self.shed.fetch_add(1, Relaxed);
        tarr_trace::counter_add!("serve.shed", 1);
    }

    /// Count a request rejected by a client quota.
    pub(crate) fn add_quota_rejected(&self) {
        self.quota_rejected.fetch_add(1, Relaxed);
        tarr_trace::counter_add!("serve.quota_rejected", 1);
    }

    /// Count a connection refused at accept (connection cap).
    pub(crate) fn add_conn_rejected(&self) {
        self.conn_rejected.fetch_add(1, Relaxed);
        tarr_trace::counter_add!("serve.conn_rejected", 1);
    }

    /// A TCP connection opened (`true`) or closed (`false`).
    pub(crate) fn connection(&self, open: bool) {
        let now = if open {
            self.connections.fetch_add(1, Relaxed) + 1
        } else {
            self.connections.fetch_sub(1, Relaxed) - 1
        };
        tarr_trace::gauge("serve.connections").set(now as f64);
    }

    /// Count one protocol violation of `kind` (a [`PROTOCOL_ERROR_KINDS`]
    /// entry; anything else is ignored rather than panicking).
    pub(crate) fn add_protocol_error(&self, kind: &str) {
        if let Ok(i) = PROTOCOL_ERROR_KINDS.binary_search(&kind) {
            self.protocol_errors[i].fetch_add(1, Relaxed);
        }
        tarr_trace::counter_add!("serve.protocol_error", 1);
    }

    /// Count a request handler panic (isolated into `internal_error`).
    pub(crate) fn add_panic(&self) {
        self.panics.fetch_add(1, Relaxed);
        tarr_trace::counter_add!("serve.panic", 1);
    }

    /// Record the duration of a completed graceful drain.
    pub(crate) fn set_drain_seconds(&self, secs: f64) {
        self.drain_seconds.store(secs.to_bits(), Relaxed);
        tarr_trace::gauge("serve.drain_seconds").set(secs);
    }

    /// Flip the WAL-degraded gauge (1 = last append failed, mutations are
    /// being refused with `persist_io`; cleared by the next success).
    pub(crate) fn set_wal_degraded(&self, degraded: bool) {
        self.wal_degraded.store(u64::from(degraded), Relaxed);
        tarr_trace::gauge("serve.wal_degraded").set(f64::from(u8::from(degraded)));
    }

    /// Requests shed at admission so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Relaxed)
    }

    /// Quota rejections so far.
    pub fn quota_rejected_total(&self) -> u64 {
        self.quota_rejected.load(Relaxed)
    }

    /// Connection-cap rejections so far.
    pub fn conn_rejected_total(&self) -> u64 {
        self.conn_rejected.load(Relaxed)
    }

    /// Isolated handler panics so far.
    pub fn panics_total(&self) -> u64 {
        self.panics.load(Relaxed)
    }

    /// Whether the WAL is currently refusing appends.
    pub fn wal_degraded(&self) -> bool {
        self.wal_degraded.load(Relaxed) != 0
    }

    /// Duration of the last graceful drain in seconds (0 = none yet).
    pub fn drain_seconds(&self) -> f64 {
        f64::from_bits(self.drain_seconds.load(Relaxed))
    }

    /// A worker picked up (`true`) or finished (`false`) a request.
    pub(crate) fn worker_busy(&self, busy: bool) {
        let now = if busy {
            self.workers_busy.fetch_add(1, Relaxed) + 1
        } else {
            self.workers_busy.fetch_sub(1, Relaxed) - 1
        };
        tarr_trace::gauge("serve.workers.busy").set(now as f64);
    }

    /// Record the configured worker-pool size.
    pub(crate) fn set_workers(&self, n: u64) {
        self.workers.store(n, Relaxed);
    }

    /// Record the instantaneous admission-queue length.
    pub(crate) fn set_queue_depth(&self, n: u64) {
        self.queue_depth.store(n, Relaxed);
        tarr_trace::gauge("serve.queue.depth").set(n as f64);
    }

    /// Record one WAL-append fdatasync latency.
    pub(crate) fn record_fsync(&self, d: Duration) {
        self.fsync.record_always(d.as_nanos() as u64);
    }

    /// Record the WAL file size after an append/compact.
    pub(crate) fn set_wal_bytes(&self, bytes: u64) {
        self.wal_bytes.store(bytes, Relaxed);
    }

    /// Record the size of the last snapshot written (or loaded at boot).
    pub(crate) fn set_snapshot_bytes(&self, bytes: u64) {
        self.snapshot_bytes.store(bytes, Relaxed);
    }

    /// Snapshot of the WAL fsync-latency histogram (ns).
    pub fn fsync_snapshot(&self) -> HistSnapshot {
        self.fsync.snapshot()
    }

    /// Sum of per-op request counters (equals the engine's request total).
    pub fn total_requests(&self) -> u64 {
        self.ops.iter().map(|o| o.requests.load(Relaxed)).sum()
    }

    /// Snapshot of `op`'s service-time histogram (ns).
    pub fn service_snapshot(&self, op: &str) -> HistSnapshot {
        self.ops[op_index(op)].service.snapshot()
    }

    /// Snapshot of `op`'s queue-wait histogram (ns).
    pub fn queue_wait_snapshot(&self, op: &str) -> HistSnapshot {
        self.ops[op_index(op)].queue_wait.snapshot()
    }

    /// Render the Prometheus text-format snapshot; see the module docs.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let clusters: Vec<(String, u64, u64)> = self
            .clusters
            .read()
            .expect("metrics poisoned")
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    c.requests.load(Relaxed),
                    c.errors.load(Relaxed),
                )
            })
            .collect();

        // Families in alphabetical order; per-op series in OPS order
        // (alphabetical); per-cluster series in BTreeMap (alphabetical)
        // order — the whole exposition is sorted by construction.
        out.push_str(
            "# HELP tarr_serve_cluster_errors_total Error replies by cluster.\n\
             # TYPE tarr_serve_cluster_errors_total counter\n",
        );
        for (name, _, errors) in &clusters {
            out.push_str(&format!(
                "tarr_serve_cluster_errors_total{{cluster=\"{name}\"}} {errors}\n"
            ));
        }
        out.push_str(
            "# HELP tarr_serve_cluster_requests_total Requests dispatched by cluster.\n\
             # TYPE tarr_serve_cluster_requests_total counter\n",
        );
        for (name, requests, _) in &clusters {
            out.push_str(&format!(
                "tarr_serve_cluster_requests_total{{cluster=\"{name}\"}} {requests}\n"
            ));
        }
        out.push_str(
            "# HELP tarr_serve_conn_rejected_total Connections refused at the connection cap.\n\
             # TYPE tarr_serve_conn_rejected_total counter\n",
        );
        out.push_str(&format!(
            "tarr_serve_conn_rejected_total {}\n",
            self.conn_rejected.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_connections Live TCP connections being served.\n\
             # TYPE tarr_serve_connections gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_connections {}\n",
            self.connections.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_drain_seconds Duration of the last graceful drain (0 = none).\n\
             # TYPE tarr_serve_drain_seconds gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_drain_seconds {}\n",
            fmt_f64(self.drain_seconds())
        ));
        out.push_str(
            "# HELP tarr_serve_errors_total Error replies by op.\n\
             # TYPE tarr_serve_errors_total counter\n",
        );
        for (i, op) in OPS.iter().enumerate() {
            out.push_str(&format!(
                "tarr_serve_errors_total{{op=\"{op}\"}} {}\n",
                self.ops[i].errors.load(Relaxed)
            ));
        }
        render_histogram_single(
            &mut out,
            "tarr_serve_fsync_seconds",
            "WAL append fdatasync latency (persistence enabled only).",
            self.fsync.snapshot(),
        );
        out.push_str(
            "# HELP tarr_serve_panics_total Request handlers that panicked (isolated).\n\
             # TYPE tarr_serve_panics_total counter\n",
        );
        out.push_str(&format!(
            "tarr_serve_panics_total {}\n",
            self.panics.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_protocol_errors_total Per-connection protocol violations by kind.\n\
             # TYPE tarr_serve_protocol_errors_total counter\n",
        );
        for (i, kind) in PROTOCOL_ERROR_KINDS.iter().enumerate() {
            out.push_str(&format!(
                "tarr_serve_protocol_errors_total{{kind=\"{kind}\"}} {}\n",
                self.protocol_errors[i].load(Relaxed)
            ));
        }
        out.push_str(
            "# HELP tarr_serve_queue_depth Requests waiting in the admission queue.\n\
             # TYPE tarr_serve_queue_depth gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_queue_depth {}\n",
            self.queue_depth.load(Relaxed)
        ));
        render_histogram_family(
            &mut out,
            "tarr_serve_queue_wait_seconds",
            "Admission-to-dispatch wait by op.",
            |i| self.ops[i].queue_wait.snapshot(),
        );
        out.push_str(
            "# HELP tarr_serve_quota_rejected_total Requests rejected by a client quota.\n\
             # TYPE tarr_serve_quota_rejected_total counter\n",
        );
        out.push_str(&format!(
            "tarr_serve_quota_rejected_total {}\n",
            self.quota_rejected.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_requests_total Requests dispatched by op.\n\
             # TYPE tarr_serve_requests_total counter\n",
        );
        for (i, op) in OPS.iter().enumerate() {
            out.push_str(&format!(
                "tarr_serve_requests_total{{op=\"{op}\"}} {}\n",
                self.ops[i].requests.load(Relaxed)
            ));
        }
        render_histogram_family(
            &mut out,
            "tarr_serve_service_seconds",
            "Dispatch-to-reply service time by op.",
            |i| self.ops[i].service.snapshot(),
        );
        out.push_str(
            "# HELP tarr_serve_shed_total Requests shed at admission (deadline would be missed).\n\
             # TYPE tarr_serve_shed_total counter\n",
        );
        out.push_str(&format!(
            "tarr_serve_shed_total {}\n",
            self.shed.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_snapshot_bytes Size of the last snapshot written or loaded.\n\
             # TYPE tarr_serve_snapshot_bytes gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_snapshot_bytes {}\n",
            self.snapshot_bytes.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_wal_bytes Current write-ahead-log file size.\n\
             # TYPE tarr_serve_wal_bytes gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_wal_bytes {}\n",
            self.wal_bytes.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_wal_degraded 1 while the WAL refuses appends (read-only mode).\n\
             # TYPE tarr_serve_wal_degraded gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_wal_degraded {}\n",
            self.wal_degraded.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_workers Configured worker-pool size.\n\
             # TYPE tarr_serve_workers gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_workers {}\n",
            self.workers.load(Relaxed)
        ));
        out.push_str(
            "# HELP tarr_serve_workers_busy Workers currently serving a request.\n\
             # TYPE tarr_serve_workers_busy gauge\n",
        );
        out.push_str(&format!(
            "tarr_serve_workers_busy {}\n",
            self.workers_busy.load(Relaxed)
        ));
        out
    }
}

/// Format a float the Prometheus text format accepts (plain decimal; the
/// default `Display` for f64 never emits exponents).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn render_histogram_family(
    out: &mut String,
    family: &str,
    help: &str,
    snap: impl Fn(usize) -> HistSnapshot,
) {
    out.push_str(&format!(
        "# HELP {family} {help}\n# TYPE {family} histogram\n"
    ));
    for (i, op) in OPS.iter().enumerate() {
        let h = snap(i);
        // Cumulative counts over the occupied range, upper bounds 2^k ns
        // rendered in seconds, then the mandatory +Inf bucket.
        let mut cum = 0u64;
        let mut iter = h.buckets.iter().peekable();
        let top = h.buckets.last().map_or(0, |&(k, _)| k);
        for k in 0..=top {
            if let Some(&&(bk, c)) = iter.peek() {
                if bk == k {
                    cum += c;
                    iter.next();
                }
            }
            let le = fmt_f64(bucket_bounds(k).1 as f64 / 1e9);
            out.push_str(&format!(
                "{family}_bucket{{op=\"{op}\",le=\"{le}\"}} {cum}\n"
            ));
        }
        out.push_str(&format!(
            "{family}_bucket{{op=\"{op}\",le=\"+Inf\"}} {}\n",
            h.count
        ));
        out.push_str(&format!("{family}_count{{op=\"{op}\"}} {}\n", h.count));
        out.push_str(&format!(
            "{family}_sum{{op=\"{op}\"}} {}\n",
            fmt_f64(h.sum as f64 / 1e9)
        ));
    }
}

/// Render a one-series (unlabelled) histogram family, same bucket scheme
/// as [`render_histogram_family`].
fn render_histogram_single(out: &mut String, family: &str, help: &str, h: HistSnapshot) {
    out.push_str(&format!(
        "# HELP {family} {help}\n# TYPE {family} histogram\n"
    ));
    let mut cum = 0u64;
    let mut iter = h.buckets.iter().peekable();
    let top = h.buckets.last().map_or(0, |&(k, _)| k);
    for k in 0..=top {
        if let Some(&&(bk, c)) = iter.peek() {
            if bk == k {
                cum += c;
                iter.next();
            }
        }
        let le = fmt_f64(bucket_bounds(k).1 as f64 / 1e9);
        out.push_str(&format!("{family}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{family}_count {}\n", h.count));
    out.push_str(&format!("{family}_sum {}\n", fmt_f64(h.sum as f64 / 1e9)));
}

/// What [`check_prometheus`] saw in a valid exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromReport {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Total series lines.
    pub series: usize,
    /// Sum of `tarr_serve_requests_total` across ops.
    pub requests_total: u64,
}

/// Structurally validate a Prometheus text exposition: every line is a
/// comment or `name{labels} value`; every series belongs to a `# TYPE`d
/// family; families appear in sorted order; series are unique; histogram
/// buckets are cumulative with ascending `le` ending at `+Inf`, and
/// `_count` matches the `+Inf` bucket. Returns the per-op request total
/// so callers can pin it against an expected request count.
pub fn check_prometheus(text: &str) -> Result<PromReport, String> {
    let mut families: Vec<(String, String)> = Vec::new(); // (name, type)
    let mut seen_series: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    // (family, labels-without-le) → [(le, cumulative count)]
    let mut hist_buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut hist_sums: std::collections::BTreeSet<(String, String)> =
        std::collections::BTreeSet::new();
    let mut series = 0usize;
    let mut requests_total = 0u64;

    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: TYPE without a kind"))?;
            if let Some((last, _)) = families.last() {
                if name <= last.as_str() {
                    return Err(format!(
                        "line {line_no}: family \"{name}\" out of order after \"{last}\""
                    ));
                }
            }
            families.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series_name, labels, value) = parse_series_line(line, line_no)?;
        series += 1;
        let key = format!("{series_name}{{{labels}}}");
        if !seen_series.insert(key.clone()) {
            return Err(format!("line {line_no}: duplicate series {key}"));
        }
        let (family, kind) = families
            .iter()
            .rev()
            .find(|(f, k)| {
                if k == "histogram" {
                    series_name == format!("{f}_bucket")
                        || series_name == format!("{f}_count")
                        || series_name == format!("{f}_sum")
                } else {
                    &series_name == f
                }
            })
            .ok_or_else(|| format!("line {line_no}: series {series_name} has no TYPE family"))?;
        match kind.as_str() {
            "counter" | "gauge" => {
                if kind == "counter" && value < 0.0 {
                    return Err(format!("line {line_no}: negative counter"));
                }
                if family == "tarr_serve_requests_total" {
                    requests_total += value as u64;
                }
            }
            "histogram" => {
                let (le, rest_labels) = split_le(&labels);
                let hist_key = (family.clone(), rest_labels);
                if series_name.ends_with("_bucket") {
                    let le = le.ok_or_else(|| {
                        format!("line {line_no}: histogram bucket without \"le\"")
                    })?;
                    let le_val = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse::<f64>()
                            .map_err(|e| format!("line {line_no}: bad le \"{le}\": {e}"))?
                    };
                    hist_buckets
                        .entry(hist_key)
                        .or_default()
                        .push((le_val, value));
                } else if series_name.ends_with("_count") {
                    hist_counts.insert(hist_key, value);
                } else {
                    hist_sums.insert(hist_key);
                }
            }
            other => return Err(format!("line {line_no}: unknown family type \"{other}\"")),
        }
    }

    for ((family, labels), buckets) in &hist_buckets {
        for w in buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "{family}{{{labels}}}: le not ascending ({} then {})",
                    w[0].0, w[1].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "{family}{{{labels}}}: buckets not cumulative ({} then {})",
                    w[0].1, w[1].1
                ));
            }
        }
        let last = buckets.last().expect("nonempty bucket list");
        if last.0 != f64::INFINITY {
            return Err(format!("{family}{{{labels}}}: no +Inf bucket"));
        }
        match hist_counts.get(&(family.clone(), labels.clone())) {
            Some(&count) if count == last.1 => {}
            Some(&count) => {
                return Err(format!(
                    "{family}{{{labels}}}: _count {count} != +Inf bucket {}",
                    last.1
                ))
            }
            None => return Err(format!("{family}{{{labels}}}: missing _count")),
        }
        if !hist_sums.contains(&(family.clone(), labels.clone())) {
            return Err(format!("{family}{{{labels}}}: missing _sum"));
        }
    }

    Ok(PromReport {
        families: families.len(),
        series,
        requests_total,
    })
}

/// Split a series line into (name, label body, value).
fn parse_series_line(line: &str, line_no: usize) -> Result<(String, String, f64), String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("line {line_no}: no value on series line"))?;
    let value: f64 = value
        .parse()
        .map_err(|e| format!("line {line_no}: bad value: {e}"))?;
    let (name, labels) = match head.split_once('{') {
        None => (head, ""),
        Some((name, rest)) => (
            name,
            rest.strip_suffix('}')
                .ok_or_else(|| format!("line {line_no}: unclosed label set"))?,
        ),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("line {line_no}: bad metric name \"{name}\""));
    }
    Ok((name.to_string(), labels.to_string(), value))
}

/// Pull the `le` label out of a label body, returning (le, rest).
fn split_le(labels: &str) -> (Option<String>, String) {
    let mut le = None;
    let rest: Vec<&str> = labels
        .split(',')
        .filter(|part| {
            if let Some(v) = part.strip_prefix("le=\"") {
                le = Some(v.trim_end_matches('"').to_string());
                false
            } else {
                !part.is_empty()
            }
        })
        .collect();
    (le, rest.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_index_maps_known_and_unknown() {
        assert_eq!(OPS[op_index("price")], "price");
        assert_eq!(OPS[op_index("ingest")], "ingest");
        assert_eq!(OPS[op_index("frobnicate")], "other");
        assert_eq!(OPS[OTHER], "other");
        let mut sorted = OPS;
        sorted.sort_unstable();
        assert_eq!(sorted, OPS, "OPS must stay alphabetical (binary_search)");
    }

    #[test]
    fn empty_metrics_render_and_check() {
        let m = ServeMetrics::default();
        let text = m.render_prometheus();
        let r = check_prometheus(&text).unwrap();
        assert_eq!(r.requests_total, 0);
        assert!(r.families >= 7, "{r:?}");
    }

    #[test]
    fn recorded_requests_round_trip_through_the_exposition() {
        let m = ServeMetrics::default();
        for _ in 0..3 {
            m.begin(op_index("price"), Some("gpc"));
            m.end(
                op_index("price"),
                Some("gpc"),
                true,
                Duration::from_micros(5),
                Duration::from_millis(2),
            );
        }
        m.begin(op_index("map"), Some("gpc"));
        m.end(
            op_index("map"),
            Some("gpc"),
            false,
            Duration::ZERO,
            Duration::from_micros(80),
        );
        m.set_workers(4);
        let text = m.render_prometheus();
        let r = check_prometheus(&text).unwrap();
        assert_eq!(r.requests_total, 4);
        assert!(text.contains(r#"tarr_serve_requests_total{op="price"} 3"#));
        assert!(text.contains(r#"tarr_serve_errors_total{op="map"} 1"#));
        assert!(text.contains(r#"tarr_serve_cluster_requests_total{cluster="gpc"} 4"#));
        assert!(text.contains(r#"tarr_serve_cluster_errors_total{cluster="gpc"} 1"#));
        assert!(text.contains("tarr_serve_workers 4"));
        assert!(text.contains(r#"tarr_serve_service_seconds_count{op="price"} 3"#));
        let (p50, p95, p99) = m.service_snapshot("price").percentiles();
        assert!(
            p50 >= 1_000_000 && p50 <= p95 && p95 <= p99,
            "{p50} {p95} {p99}"
        );
    }

    #[test]
    fn overload_metrics_render_and_are_required() {
        let m = ServeMetrics::default();
        let text = m.render_prometheus();
        assert!(
            missing_families(&text).is_empty(),
            "fresh exposition must carry every required family: missing {:?}",
            missing_families(&text)
        );
        m.add_shed();
        m.add_quota_rejected();
        m.add_conn_rejected();
        m.connection(true);
        m.add_protocol_error("line_too_long");
        m.add_protocol_error("bad_utf8");
        m.add_protocol_error("not_a_kind"); // ignored, no panic
        m.add_panic();
        m.set_drain_seconds(0.25);
        m.set_wal_degraded(true);
        let text = m.render_prometheus();
        check_prometheus(&text).unwrap();
        assert!(text.contains("tarr_serve_shed_total 1"));
        assert!(text.contains("tarr_serve_quota_rejected_total 1"));
        assert!(text.contains("tarr_serve_conn_rejected_total 1"));
        assert!(text.contains("tarr_serve_connections 1"));
        assert!(text.contains(r#"tarr_serve_protocol_errors_total{kind="line_too_long"} 1"#));
        assert!(text.contains(r#"tarr_serve_protocol_errors_total{kind="bad_utf8"} 1"#));
        assert!(text.contains(r#"tarr_serve_protocol_errors_total{kind="bad_json"} 0"#));
        assert!(text.contains("tarr_serve_panics_total 1"));
        assert!(text.contains("tarr_serve_drain_seconds 0.25"));
        assert!(text.contains("tarr_serve_wal_degraded 1"));
        m.set_wal_degraded(false);
        assert!(!m.wal_degraded());
        // A truncated exposition is caught by the family check.
        let cut = text.replace("# TYPE tarr_serve_shed_total counter\n", "");
        assert_eq!(missing_families(&cut), vec!["tarr_serve_shed_total"]);
    }

    #[test]
    fn ewma_tracks_service_time() {
        let m = ServeMetrics::default();
        assert_eq!(m.estimated_service_ns(), 0);
        m.end(
            op_index("map"),
            None,
            true,
            Duration::ZERO,
            Duration::from_micros(100),
        );
        assert_eq!(m.estimated_service_ns(), 100_000);
        m.end(
            op_index("map"),
            None,
            true,
            Duration::ZERO,
            Duration::from_micros(900),
        );
        // 100_000 - 12_500 + 112_500 = 200_000
        assert_eq!(m.estimated_service_ns(), 200_000);
    }

    #[test]
    fn protocol_error_kinds_stay_sorted() {
        let mut sorted = PROTOCOL_ERROR_KINDS;
        sorted.sort_unstable();
        assert_eq!(sorted, PROTOCOL_ERROR_KINDS, "kinds use binary_search");
    }

    #[test]
    fn persistence_metrics_render() {
        let m = ServeMetrics::default();
        m.record_fsync(Duration::from_micros(120));
        m.set_wal_bytes(4096);
        m.set_snapshot_bytes(1 << 20);
        let text = m.render_prometheus();
        check_prometheus(&text).unwrap();
        assert!(text.contains("tarr_serve_wal_bytes 4096"));
        assert!(text.contains("tarr_serve_snapshot_bytes 1048576"));
        assert!(text.contains("tarr_serve_fsync_seconds_count 1"));
        assert_eq!(m.fsync_snapshot().count, 1);
    }

    #[test]
    fn checker_rejects_broken_expositions() {
        for (text, needle) in [
            ("tarr_no_family 1\n", "no TYPE family"),
            (
                "# TYPE b counter\n# TYPE a counter\na 1\nb 1\n",
                "out of order",
            ),
            ("# TYPE a counter\na 1\na 1\n", "duplicate"),
            (
                "# TYPE h histogram\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 1\n\
                 h_count 1\nh_sum 1\n",
                "not cumulative",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_count 1\nh_sum 1\n",
                "no +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 1\nh_sum 1\n",
                "_count",
            ),
            ("# TYPE a counter\na nope\n", "bad value"),
        ] {
            let err = check_prometheus(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }
}
