//! The request engine: named clusters, each an `Arc`-shared
//! [`SessionCore`], with op dispatch and admission/coalesce accounting.
//!
//! Every request that touches a cluster runs on a fresh [`Session`] handle —
//! handles are a pointer plus counters, so per-request creation is free —
//! and all handles of one cluster share the core's sharded coalescing
//! caches. A `fault` op never mutates a core in place: it computes the
//! degraded core off to the side and swaps the `Arc` under a brief write
//! lock, so in-flight requests finish against the pre-fault topology. The
//! swap is conditional (`Arc::ptr_eq` against the snapshot it degraded,
//! retrying on mismatch), so concurrent faults/ingests on one cluster
//! cannot silently discard each other's acknowledged updates.
//!
//! Each cluster is `Served`: its core plus the encoded bodies of warm
//! `map`/`reorder` replies. A warm array reply is a header spliced onto a
//! cached body, never a [`Json`] tree of one number per rank. The bodies
//! live and die with the core — every swap replaces both in one step — so
//! a reply can never carry a mapping of a core that is no longer served.
//!
//! Persistence (`--state-dir`): `ingest` and `fault` are logged before
//! they are acknowledged, and the `snapshot` op writes each cluster's
//! binding, cached mappings and price totals (`tarr_replay::snapshot`).
//! A cluster restored at boot answers warm `price` requests from its
//! price cache alone, and rebuilds a reordered communicator or compiled
//! schedule from its mappings the first time a price misses.
//!
//! Metrics: `serve.request` / `serve.error` count dispatches, and
//! `serve.coalesce` counts requests that reused shared-core state — a cache
//! hit or a share of another thread's in-flight compute. The same totals
//! are kept on plain atomics (readable via the `stats` op) so an untraced
//! daemon still reports them. `serve.reply.body.{hit,miss,coalesced}`
//! count array replies served from a cached body, encoded afresh, or
//! sharing another thread's in-flight encode — the same split as the
//! `reply_body` entry of `stats` — and every reply's serialization runs in
//! a `serve.encode` span.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use tarr_core::{Mapper, PatternKind, Session, SessionCore};
use tarr_mpi::{Lookup, ShardedOnceMap};
use tarr_replay::{
    build_core, fault_core, restore_dir, write_snapshot, BackendKind, EngineSnapshot, Event,
    FaultSpec, IngestSource, IngestSpec, LayoutKind, ReplayError, WalTail, WalWriter, WAL_FILE,
};
use tarr_trace::json::{parse, Json};

use crate::metrics::{op_index, ServeMetrics};
use crate::protocol::{
    array_reply, err_reply, err_reply_coded, int_array, need_str, need_u64, num, ok_reply,
    opt_bool, opt_f64, opt_u64, parse_mapper, parse_pattern, parse_scheme, to_string,
};

/// Unwrap a replay-layer error into the op's message: `Apply` carries the
/// build/fault message verbatim, so protocol error texts are unchanged
/// from the pre-persistence engine.
fn unwrap_apply(e: ReplayError) -> String {
    match e {
        ReplayError::Apply(msg) => msg,
        other => other.to_string(),
    }
}

/// Monotonic request totals, also mirrored onto `serve.*` trace counters.
#[derive(Debug, Default)]
pub struct EngineStats {
    requests: AtomicU64,
    errors: AtomicU64,
    coalesce: AtomicU64,
}

impl EngineStats {
    /// Requests dispatched (including failed ones).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that failed with an error reply.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Requests that reused shared-core state (cache hit or in-flight
    /// share).
    pub fn coalesce(&self) -> u64 {
        self.coalesce.load(Ordering::Relaxed)
    }
}

/// An op failure: the message plus an optional machine-readable code
/// (rendered as the reply's `code` field). Plain `String` errors convert
/// into uncoded failures, so unchanged ops keep their `?` flow.
struct OpError {
    code: Option<&'static str>,
    msg: String,
}

impl OpError {
    fn coded(code: &'static str, msg: String) -> OpError {
        OpError {
            code: Some(code),
            msg,
        }
    }
}

impl From<String> for OpError {
    fn from(msg: String) -> OpError {
        OpError { code: None, msg }
    }
}

impl From<&str> for OpError {
    fn from(msg: &str) -> OpError {
        OpError {
            code: None,
            msg: msg.to_string(),
        }
    }
}

/// The ops whose reply is one integer array: `map` lists the permutation,
/// `reorder` the reordered communicator's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArrayOp {
    Map,
    Reorder,
}

/// The key of one cached reply body.
type BodyKey = (ArrayOp, Mapper, PatternKind);

/// One cluster as served: its core plus the encoded array bodies of the
/// `map`/`reorder` replies answered from it (at most one per op × mapper ×
/// pattern, mirroring the core's own mapping and communicator caches).
/// Replaced as a whole whenever the core is, so the bodies share the
/// core's lifetime.
struct Served {
    core: Arc<SessionCore>,
    bodies: ShardedOnceMap<BodyKey, Arc<str>>,
}

impl Served {
    fn new(core: Arc<SessionCore>) -> Arc<Served> {
        Arc::new(Served {
            core,
            bodies: ShardedOnceMap::default(),
        })
    }
}

/// `req`'s reply line around the cached body for `key`, encoding the body
/// with `values` on first use only (concurrent first requests share one
/// encode).
fn array_line(
    req: &Json,
    served: &Served,
    key: BodyKey,
    values: impl FnOnce() -> String,
) -> String {
    let _sp = tarr_trace::span("serve.encode");
    let (body, outcome) = served.bodies.get_or_compute(&key, || Arc::from(values()));
    match outcome {
        Lookup::Hit => tarr_trace::counter_add!("serve.reply.body.hit", 1),
        Lookup::Miss => tarr_trace::counter_add!("serve.reply.body.miss", 1),
        Lookup::Coalesced => tarr_trace::counter_add!("serve.reply.body.coalesced", 1),
    }
    let (op, field) = match key.0 {
        ArrayOp::Map => ("map", "mapping"),
        ArrayOp::Reorder => ("reorder", "cores"),
    };
    array_reply(req, op, field, &body)
}

/// Serialize a reply tree inside the `serve.encode` span.
fn encode(reply: &Json) -> String {
    let _sp = tarr_trace::span("serve.encode");
    to_string(reply)
}

/// The WAL cursor: the open writer plus the id the next event gets.
struct WalState {
    writer: WalWriter,
    next_event: u64,
}

/// Persistence state, present only when the engine was booted with a
/// state directory.
struct Persist {
    dir: PathBuf,
    /// Locked second, always after the clusters lock (never the reverse).
    wal: Mutex<WalState>,
}

/// What [`Engine::with_state_dir`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootReport {
    /// Whether `snapshot.tsnap` was present and loaded.
    pub snapshot_loaded: bool,
    /// Snapshot file size in bytes (0 if absent).
    pub snapshot_bytes: u64,
    /// WAL records replayed on top of the snapshot.
    pub events_replayed: u64,
    /// WAL records skipped because the snapshot already covered them.
    pub events_skipped: u64,
    /// Torn-tail bytes truncated during recovery (0 = the WAL was clean).
    pub recovered_bytes: u64,
    /// Clusters serving after boot.
    pub clusters: usize,
    /// The id the next logged event will get.
    pub next_event_id: u64,
}

/// The shared daemon state. See the module docs.
#[derive(Default)]
pub struct Engine {
    clusters: RwLock<HashMap<String, Arc<Served>>>,
    stats: EngineStats,
    metrics: ServeMetrics,
    next_req: AtomicU64,
    /// Slow-request log threshold in ns over queue-wait + service; 0 = off.
    slow_ns: AtomicU64,
    /// WAL + snapshot state; `None` = the in-memory-only engine.
    persist: Option<Persist>,
    /// Token buckets by client identity (TCP peer IP, or "local" for
    /// stdio), shared across every connection of that client.
    quotas: Mutex<HashMap<String, Bucket>>,
}

/// One client's token bucket: fractional tokens plus the last refill time.
#[derive(Debug, Default)]
struct Bucket {
    tokens: f64,
    last: Option<Instant>,
    /// Whether the bucket has admitted its first request (fresh buckets
    /// start full at `burst`).
    primed: bool,
}

impl Engine {
    /// An engine with no clusters ingested.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine booted from a state directory: load the latest snapshot,
    /// recover the WAL (truncating a torn tail — the unacknowledged
    /// record a crash left behind), replay the log tail, and keep the WAL
    /// open for appends. The directory is created if missing.
    pub fn with_state_dir(dir: &Path) -> Result<(Engine, BootReport), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
        let restore = restore_dir(dir, true).map_err(|e| e.to_string())?;
        let recovered_bytes = match restore.tail {
            WalTail::Clean => 0,
            WalTail::Torn { dropped, .. } => dropped,
        };
        let writer = WalWriter::open_at(&dir.join(WAL_FILE), restore.wal_bytes)
            .map_err(|e| e.to_string())?;
        let report = BootReport {
            snapshot_loaded: restore.snapshot_loaded,
            snapshot_bytes: restore.snapshot_bytes,
            events_replayed: restore.events_replayed,
            events_skipped: restore.events_skipped,
            recovered_bytes,
            clusters: restore.state.clusters.len(),
            next_event_id: restore.state.last_event_id + 1,
        };
        let mut engine = Engine {
            clusters: RwLock::new(
                restore
                    .state
                    .clusters
                    .into_iter()
                    .map(|(name, core)| (name, Served::new(core)))
                    .collect(),
            ),
            ..Engine::default()
        };
        engine.metrics.set_wal_bytes(writer.bytes());
        engine.metrics.set_snapshot_bytes(restore.snapshot_bytes);
        engine.persist = Some(Persist {
            dir: dir.to_path_buf(),
            wal: Mutex::new(WalState {
                writer,
                next_event: report.next_event_id,
            }),
        });
        Ok((engine, report))
    }

    /// The state directory this engine persists to, if any.
    pub fn state_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Flush the WAL to disk. Every append already fsyncs before its reply
    /// is acknowledged; this is the explicit teardown barrier.
    pub fn flush(&self) -> Result<(), String> {
        if let Some(p) = &self.persist {
            p.wal
                .lock()
                .expect("wal poisoned")
                .writer
                .sync()
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Append one mutation to the WAL and fsync it. Callers hold the
    /// clusters **write** lock (lock order: clusters → wal), so log order
    /// always matches apply order; logging *before* the map insert means a
    /// crash between the two replays the event at boot — never loses it.
    fn log_event(&self, req_id: u64, event: &Event) -> Result<(), OpError> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        let mut wal = p.wal.lock().expect("wal poisoned");
        let id = wal.next_event;
        let started = Instant::now();
        let bytes = wal
            .writer
            .append(id, req_id, &event.encode())
            .map_err(|e| {
                // The daemon stays up serving read-only ops; the gauge flags
                // the degradation until an append succeeds again.
                self.metrics.set_wal_degraded(true);
                OpError::coded("persist_io", format!("wal append failed: {e}"))
            })?;
        self.metrics.record_fsync(started.elapsed());
        self.metrics.set_wal_degraded(false);
        wal.next_event = id + 1;
        self.metrics.set_wal_bytes(bytes);
        Ok(())
    }

    /// Take one token from `client`'s bucket (capacity `burst`, refilling
    /// at `per_sec` tokens/second; fresh buckets start full). On rejection
    /// returns a `retry_after_ms` hint: the time until one token refills,
    /// or 0 when `per_sec` is 0 (the bucket never refills — test mode).
    pub fn quota_take(&self, client: &str, burst: u64, per_sec: f64) -> Result<(), u64> {
        let mut quotas = self.quotas.lock().expect("quotas poisoned");
        let b = quotas.entry(client.to_string()).or_default();
        if !b.primed {
            b.tokens = burst as f64;
            b.primed = true;
        }
        let now = Instant::now();
        if per_sec > 0.0 {
            if let Some(last) = b.last {
                b.tokens =
                    (b.tokens + now.duration_since(last).as_secs_f64() * per_sec).min(burst as f64);
            }
        }
        b.last = Some(now);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else if per_sec > 0.0 {
            Err(((1.0 - b.tokens) / per_sec * 1000.0).ceil() as u64)
        } else {
            Err(0)
        }
    }

    /// Request totals.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Always-on RED metrics (per-op/per-cluster counters + latency
    /// histograms), independent of the trace recorder.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The next monotonic request id. Ids are engine-global, start at 1,
    /// and are assigned at admission so the id order matches arrival order.
    pub fn next_request_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Log any request whose queue-wait + service time reaches `threshold`
    /// to stderr with its per-stage self-time breakdown. `None` disables;
    /// a zero threshold is clamped to 1 ns, i.e. it logs every request.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let ns = threshold.map_or(0, |d| (d.as_nanos() as u64).max(1));
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// The core currently serving `name`.
    pub fn core(&self, name: &str) -> Option<Arc<SessionCore>> {
        self.served(name).map(|s| s.core.clone())
    }

    fn served(&self, name: &str) -> Option<Arc<Served>> {
        self.clusters
            .read()
            .expect("cluster map poisoned")
            .get(name)
            .cloned()
    }

    /// `pick` of every served cluster, sorted by name.
    fn sorted<T>(
        map: &HashMap<String, Arc<Served>>,
        pick: impl Fn(&Arc<Served>) -> T,
    ) -> Vec<(String, T)> {
        let mut v: Vec<_> = map.iter().map(|(k, s)| (k.clone(), pick(s))).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Process one raw request line into one serialized reply line,
    /// assigning it the next request id with zero queue-wait (the
    /// single-threaded / test entry point; the serve loop assigns ids at
    /// admission and calls [`Engine::handle_parsed`] directly).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_parsed(self.next_request_id(), Duration::ZERO, &parse(line))
    }

    /// Process one admitted request from the parse of its line (an `Err`
    /// gets the `bad request` reply): `req_id` tags every span the request
    /// opens (via a [`tarr_trace::request_scope`]), `queue_wait` is the
    /// admission→dispatch delay measured by the caller, and RED metrics /
    /// the slow-request log are fed from the service time measured here,
    /// from dispatch to the encoded reply line.
    pub fn handle_parsed(
        &self,
        req_id: u64,
        queue_wait: Duration,
        parsed: &Result<Json, String>,
    ) -> String {
        let started = Instant::now();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        tarr_trace::counter_add!("serve.request", 1);
        let slow_ns = self.slow_ns.load(Ordering::Relaxed);
        // A request scope costs two thread-local ops per span; only open
        // one when something (the recorder or the slow log) consumes it.
        let scope =
            (tarr_trace::enabled() || slow_ns > 0).then(|| tarr_trace::request_scope(req_id));
        let (op, cluster) = match parsed {
            Ok(req) => (
                req.get("op").and_then(Json::as_str),
                req.get("cluster").and_then(Json::as_str),
            ),
            Err(_) => (None, None),
        };
        let op_idx = op_index(op.unwrap_or("other"));
        self.metrics.begin(op_idx, cluster);
        let (reply, ok) = match parsed {
            Err(e) => (
                encode(&err_reply(None, &format!("bad request: {e}"))),
                false,
            ),
            Ok(req) => {
                let mut sp = tarr_trace::span("serve.handle")
                    .arg("queue_wait_ns", queue_wait.as_nanos() as u64);
                if sp.is_recording() {
                    if let Some(op) = op {
                        sp = sp.arg("req_op", op);
                    }
                    if let Some(cluster) = cluster {
                        sp = sp.arg("cluster", cluster);
                    }
                }
                let _sp = sp;
                // A panicking handler must cost its own request only: the
                // worker thread, the reorder buffer and every other
                // in-flight request survive, and the client gets a typed
                // `internal_error` instead of a dropped connection.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.dispatch(req_id, req)
                }));
                let outcome = match caught {
                    Ok(Ok(line)) => Ok(line),
                    Ok(Err(e)) => Err(match e.code {
                        Some(code) => err_reply_coded(Some(req), code, &e.msg),
                        None => err_reply(Some(req), &e.msg),
                    }),
                    Err(payload) => {
                        let what = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        self.metrics.add_panic();
                        Err(err_reply_coded(
                            Some(req),
                            "internal_error",
                            &format!("request handler panicked: {what}"),
                        ))
                    }
                };
                match outcome {
                    Ok(line) => (line, true),
                    Err(reply) => (encode(&reply), false),
                }
            }
        };
        if !ok {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            tarr_trace::counter_add!("serve.error", 1);
        }
        let service = started.elapsed();
        self.metrics.end(op_idx, cluster, ok, queue_wait, service);
        if let Some(scope) = scope {
            if slow_ns > 0 && (queue_wait + service).as_nanos() as u64 >= slow_ns {
                let breakdown = scope.finish();
                let stages: Vec<String> = breakdown
                    .stages
                    .iter()
                    .take(6)
                    .map(|(name, ns)| format!("{name}={:?}", Duration::from_nanos(*ns)))
                    .collect();
                eprintln!(
                    "tarr-serve: slow request {req_id} op={} cluster={} queue_wait={queue_wait:?} \
                     service={service:?} stages: {}",
                    op.unwrap_or("other"),
                    cluster.unwrap_or("-"),
                    stages.join(" ")
                );
            }
            // Not slow: dropping the scope restores the previous request
            // without computing the breakdown.
        }
        reply
    }

    /// Run one op to its encoded reply line: `map`/`reorder` splice a
    /// cached body, every other op serializes its reply tree.
    fn dispatch(&self, req_id: u64, req: &Json) -> Result<String, OpError> {
        let op = need_str(req, "op")?;
        let tree = match op {
            "map" => return self.op_array(req, ArrayOp::Map).map_err(OpError::from),
            "reorder" => return self.op_array(req, ArrayOp::Reorder).map_err(OpError::from),
            "ingest" => self.op_ingest(req_id, req),
            "price" => self.op_price(req).map_err(OpError::from),
            "fault" => self.op_fault(req_id, req),
            "snapshot" => self.op_snapshot(req),
            "compact" => self.op_compact(req),
            "stats" => Ok(self.op_stats(req)),
            "metrics" => Ok(self.op_metrics(req)),
            "debug" => self.op_debug(req),
            "shutdown" => Ok(ok_reply(req, "shutdown", Vec::new())),
            other => Err(format!(
                "unknown op \"{other}\" \
                 (ingest|map|reorder|price|fault|snapshot|compact|stats|metrics|debug|shutdown)"
            )
            .into()),
        }?;
        Ok(encode(&tree))
    }

    /// The named cluster, or a client error.
    fn served_for(&self, req: &Json) -> Result<Arc<Served>, String> {
        let name = need_str(req, "cluster")?;
        self.served(name)
            .ok_or_else(|| format!("unknown cluster \"{name}\" (ingest it first)"))
    }

    /// Fold one finished request's handle accounting into the coalesce
    /// metric: any reuse of shared-core state counts once per request.
    fn settle(&self, h: &Session) {
        let s = h.cache_stats();
        let reused = s.mapping_hits + s.comm_hits + s.sched_hits + s.price_reused + h.coalesced();
        if reused > 0 {
            self.stats.coalesce.fetch_add(1, Ordering::Relaxed);
            tarr_trace::counter_add!("serve.coalesce", 1);
        }
    }

    /// The typed rejection for an un-authorised overwrite.
    fn cluster_exists(name: &str) -> OpError {
        OpError::coded(
            "cluster_exists",
            format!("cluster \"{name}\" already ingested (set \"replace\": true to overwrite)"),
        )
    }

    fn op_ingest(&self, req_id: u64, req: &Json) -> Result<Json, OpError> {
        let name = need_str(req, "cluster")?;
        let layout = match req.get("layout").and_then(Json::as_str) {
            None => LayoutKind::BlockBunch,
            Some(l) => LayoutKind::parse(l).ok_or_else(|| {
                format!(
                    "unknown layout \"{l}\" \
                     (block_bunch|block_scatter|cyclic_bunch|cyclic_scatter)"
                )
            })?,
        };
        // A legacy wire value: both build the same oracle core, and the tag
        // is only logged.
        let backend = match req.get("backend").and_then(Json::as_str) {
            None | Some("implicit") => BackendKind::Implicit,
            Some("dense") => BackendKind::Dense,
            Some(other) => {
                return Err(format!("unknown backend \"{other}\" (dense|implicit)").into())
            }
        };
        let replace = opt_bool(req, "replace")?.unwrap_or(false);
        // Cheap early rejection before any build work; rechecked under the
        // write lock so racing ingests cannot both pass.
        if !replace && self.core(name).is_some() {
            return Err(Self::cluster_exists(name));
        }
        // The WAL records the ingest *semantics* by value: a
        // `snapshot_path` is resolved to its text now, so replay never
        // depends on a file that may have changed or vanished.
        let source = if let Some(text) = req.get("snapshot").and_then(Json::as_str) {
            IngestSource::SnapshotText(text.to_string())
        } else if let Some(path) = req.get("snapshot_path").and_then(Json::as_str) {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
            IngestSource::SnapshotText(text)
        } else if let Some(nodes) = opt_u64(req, "gpc_nodes")? {
            IngestSource::GpcNodes(nodes)
        } else {
            return Err("ingest needs \"snapshot\", \"snapshot_path\" or \"gpc_nodes\"".into());
        };
        let spec = IngestSpec {
            source,
            layout,
            p: opt_u64(req, "p")?,
            seed: opt_u64(req, "seed")?,
            backend,
            replace,
        };
        let _sp = tarr_trace::span("serve.ingest").arg("cluster", name.to_string());
        let core = build_core(&spec).map_err(unwrap_apply)?;
        let fields = vec![
            ("cluster".to_string(), Json::Str(name.to_string())),
            ("ranks".to_string(), num(core.size() as u64)),
            ("nodes".to_string(), num(core.cluster().num_nodes() as u64)),
            (
                "cores".to_string(),
                num(core.cluster().total_cores() as u64),
            ),
        ];
        let event = Event::Ingest {
            cluster: name.to_string(),
            spec,
        };
        {
            let mut map = self.clusters.write().expect("cluster map poisoned");
            if !replace && map.contains_key(name) {
                return Err(Self::cluster_exists(name));
            }
            self.log_event(req_id, &event)?;
            map.insert(name.to_string(), Served::new(Arc::new(core)));
        }
        Ok(ok_reply(req, "ingest", fields))
    }

    /// A `map` or `reorder` reply. The core lookup runs on every request —
    /// a cache hit once warm — so the core's hit/miss accounting and the
    /// coalesce metric count array replies as before; only the encoding is
    /// cached.
    fn op_array(&self, req: &Json, op: ArrayOp) -> Result<String, String> {
        const UNSUPPORTED: &str = "unsupported mapper/pattern for this cluster";
        let served = self.served_for(req)?;
        let mapper = parse_mapper(need_str(req, "mapper")?)?;
        let pattern = parse_pattern(need_str(req, "pattern")?)?;
        let key = (op, mapper, pattern);
        let mut h = served.core.handle();
        let line = match op {
            ArrayOp::Map => {
                let info = h.mapping(mapper, pattern).ok_or(UNSUPPORTED)?;
                array_line(req, &served, key, || {
                    int_array(info.mapping.iter().copied())
                })
            }
            ArrayOp::Reorder => {
                let comm = h.reordered_comm(mapper, pattern).ok_or(UNSUPPORTED)?;
                array_line(req, &served, key, || {
                    int_array(comm.cores().iter().map(|c| c.0))
                })
            }
        };
        self.settle(&h);
        Ok(line)
    }

    fn op_price(&self, req: &Json) -> Result<Json, String> {
        let mut h = self.served_for(req)?.core.handle();
        let scheme = parse_scheme(req)?;
        let msg = need_u64(req, "msg_bytes")?;
        let collective = need_str(req, "collective")?;
        let seconds = match collective {
            "allgather" => h.allgather_time(msg, scheme),
            "gather" => h.gather_time(msg, scheme),
            "bcast" => h.bcast_time(msg, scheme),
            "allreduce" => {
                let raben = opt_bool(req, "rabenseifner")?.unwrap_or(true);
                // Both algorithms exchange with XOR partners, which exist
                // only at a power-of-two rank count.
                if !h.size().is_power_of_two() {
                    return Err(format!(
                        "unsupported collective allreduce for this cluster: needs a \
                         power-of-two rank count, the cluster has {}",
                        h.size()
                    ));
                }
                h.allreduce_time(msg, raben, scheme)
            }
            other => {
                return Err(format!(
                    "unknown collective \"{other}\" (allgather|gather|bcast|allreduce)"
                ))
            }
        };
        self.settle(&h);
        Ok(ok_reply(
            req,
            "price",
            vec![("seconds".to_string(), Json::Num(seconds))],
        ))
    }

    fn op_fault(&self, req_id: u64, req: &Json) -> Result<Json, OpError> {
        let name = need_str(req, "cluster")?;
        let fault = FaultSpec {
            seed: need_u64(req, "seed")?,
            link_fail: opt_f64(req, "link_fail")?.unwrap_or(0.0),
            switch_fail: opt_f64(req, "switch_fail")?.unwrap_or(0.0),
            node_drain: opt_f64(req, "node_drain")?.unwrap_or(0.0),
            core_drain: opt_f64(req, "core_drain")?.unwrap_or(0.0),
        };
        let _sp = tarr_trace::span("serve.fault").arg("cluster", name.to_string());
        let event = Event::Fault {
            cluster: name.to_string(),
            fault: fault.clone(),
        };
        // The degraded core is minted off to the side from a snapshot Arc;
        // in-flight requests keep their pre-fault Arc. The swap only lands
        // if that snapshot is still the serving core — if a concurrent
        // fault/ingest replaced it meanwhile, retry against the new core so
        // neither request's acknowledged degradation is silently dropped.
        // The WAL append happens inside the winning iteration, under the
        // write lock, so log order matches swap order exactly.
        let report = loop {
            let core = self
                .core(name)
                .ok_or_else(|| format!("unknown cluster \"{name}\" (ingest it first)"))?;
            let (degraded, report) = fault_core(&core, &fault).map_err(unwrap_apply)?;
            let mut map = self.clusters.write().expect("cluster map poisoned");
            if map
                .get(name)
                .is_some_and(|cur| Arc::ptr_eq(&cur.core, &core))
            {
                self.log_event(req_id, &event)?;
                map.insert(name.to_string(), Served::new(Arc::new(degraded)));
                break report;
            }
        };
        Ok(ok_reply(
            req,
            "fault",
            vec![
                (
                    "cables_removed".to_string(),
                    num(report.summary.cables_removed as u64),
                ),
                (
                    "switches_removed".to_string(),
                    num(report.summary.switches_removed as u64),
                ),
                (
                    "nodes_lost".to_string(),
                    num(report.summary.nodes_lost as u64),
                ),
                (
                    "cores_lost".to_string(),
                    num(report.summary.cores_lost as u64),
                ),
                (
                    "ranks_migrated".to_string(),
                    num(report.ranks_migrated as u64),
                ),
                (
                    "mappings_dropped".to_string(),
                    num(report.mappings_dropped as u64),
                ),
                (
                    "comms_dropped".to_string(),
                    num(report.comms_dropped as u64),
                ),
                (
                    "scheds_dropped".to_string(),
                    num(report.scheds_dropped as u64),
                ),
                ("scheds_kept".to_string(), num(report.scheds_kept as u64)),
            ],
        ))
    }

    /// Capture the engine under the clusters read lock: the sorted cores
    /// plus the WAL position they are consistent with. Mutating ops hold
    /// the clusters **write** lock across their WAL append, so holding the
    /// read lock while reading the cursor guarantees the pair is coherent.
    fn snapshot_cut(&self, p: &Persist) -> (u64, Vec<(String, Arc<SessionCore>)>) {
        let map = self.clusters.read().expect("cluster map poisoned");
        let last_event_id = p.wal.lock().expect("wal poisoned").next_event - 1;
        (last_event_id, Self::sorted(&map, |s| s.core.clone()))
    }

    fn no_state_dir() -> OpError {
        OpError::coded(
            "no_state_dir",
            "persistence is off (start tarr-serve with --state-dir)".to_string(),
        )
    }

    fn persist_error(e: ReplayError) -> OpError {
        match e {
            ReplayError::BadSnapshot { what } => {
                OpError::coded("persist_unsupported", format!("cannot snapshot: {what}"))
            }
            other => OpError::coded("persist_io", other.to_string()),
        }
    }

    /// Write a snapshot of the current state to the state directory. The
    /// encode and the atomic file write run off-lock: a concurrent mutation
    /// swaps in a new core and only advances the WAL past the recorded
    /// `last_event_id` — boot replays the difference. Requests may still
    /// fill the captured cores' caches during the export; every mapping and
    /// price restores on its own, so any mix of entries the export sees is
    /// a snapshot the daemon can boot from.
    fn op_snapshot(&self, req: &Json) -> Result<Json, OpError> {
        let p = self.persist.as_ref().ok_or_else(Self::no_state_dir)?;
        let _sp = tarr_trace::span("serve.snapshot");
        let (last_event_id, cores) = self.snapshot_cut(p);
        let snap = EngineSnapshot::capture(last_event_id, &cores).map_err(Self::persist_error)?;
        let bytes = write_snapshot(&p.dir, &snap).map_err(Self::persist_error)?;
        self.metrics.set_snapshot_bytes(bytes);
        Ok(ok_reply(
            req,
            "snapshot",
            vec![
                ("clusters".to_string(), num(cores.len() as u64)),
                ("last_event_id".to_string(), num(last_event_id)),
                ("bytes".to_string(), num(bytes)),
            ],
        ))
    }

    /// Snapshot, then truncate the WAL back to its header. Unlike
    /// `snapshot`, the whole exchange holds the clusters read lock and the
    /// WAL cursor: a mutation sneaking between the snapshot and the
    /// truncation would be erased from both, so the pair must be atomic.
    /// (The serve loop additionally quiesces `compact` like any mutating
    /// op, making the hold uncontended in the daemon.)
    fn op_compact(&self, req: &Json) -> Result<Json, OpError> {
        let p = self.persist.as_ref().ok_or_else(Self::no_state_dir)?;
        let _sp = tarr_trace::span("serve.compact");
        let map = self.clusters.read().expect("cluster map poisoned");
        let mut wal = p.wal.lock().expect("wal poisoned");
        let last_event_id = wal.next_event - 1;
        let cores = Self::sorted(&map, |s| s.core.clone());
        let snap = EngineSnapshot::capture(last_event_id, &cores).map_err(Self::persist_error)?;
        let bytes = write_snapshot(&p.dir, &snap).map_err(Self::persist_error)?;
        let wal_bytes = wal.writer.reset().map_err(Self::persist_error)?;
        drop(wal);
        drop(map);
        self.metrics.set_snapshot_bytes(bytes);
        self.metrics.set_wal_bytes(wal_bytes);
        Ok(ok_reply(
            req,
            "compact",
            vec![
                ("clusters".to_string(), num(cores.len() as u64)),
                ("last_event_id".to_string(), num(last_event_id)),
                ("snapshot_bytes".to_string(), num(bytes)),
                ("wal_bytes".to_string(), num(wal_bytes)),
            ],
        ))
    }

    /// The explicit exception to the protocol's determinism guarantee:
    /// these counters are engine-global (shared across every connection)
    /// and timing-dependent (coalesce depends on cache luck), so `stats`
    /// replies must never appear in golden fixtures.
    ///
    /// `cluster_caches` breaks the shared-core caches down per cluster and
    /// per cache family (mapping/comm/sched/price), each as
    /// hit/miss/coalesced — the serving-side view of
    /// [`SessionCore::cache_stats`] — plus `reply_body`, the cluster's
    /// encoded `map`/`reorder` bodies.
    fn op_stats(&self, req: &Json) -> Json {
        let served = Self::sorted(
            &self.clusters.read().expect("cluster map poisoned"),
            Arc::clone,
        );
        let snap = |s: &tarr_mpi::CacheSnapshot| {
            Json::Obj(vec![
                ("hit".to_string(), num(s.hits)),
                ("miss".to_string(), num(s.misses)),
                ("coalesced".to_string(), num(s.coalesced)),
            ])
        };
        let caches: Vec<(String, Json)> = served
            .iter()
            .map(|(name, served)| {
                let s = served.core.cache_stats();
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("mapping".to_string(), snap(&s.mappings)),
                        ("comm".to_string(), snap(&s.comms)),
                        ("sched".to_string(), snap(&s.scheds)),
                        ("price".to_string(), snap(&s.prices)),
                        (
                            "reply_body".to_string(),
                            snap(&served.bodies.counters().snapshot()),
                        ),
                    ]),
                )
            })
            .collect();
        ok_reply(
            req,
            "stats",
            vec![
                ("clusters".to_string(), num(served.len() as u64)),
                ("requests".to_string(), num(self.stats.requests())),
                ("errors".to_string(), num(self.stats.errors())),
                ("coalesce".to_string(), num(self.stats.coalesce())),
                ("cluster_caches".to_string(), Json::Obj(caches)),
            ],
        )
    }

    /// Prometheus text-format snapshot of the RED metrics, as the `text`
    /// field of an otherwise ordinary reply. Timing-dependent like `stats`:
    /// never put `metrics` replies in golden fixtures.
    fn op_metrics(&self, req: &Json) -> Json {
        ok_reply(
            req,
            "metrics",
            vec![(
                "text".to_string(),
                Json::Str(self.metrics.render_prometheus()),
            )],
        )
    }

    /// Test-only escape hatches for exercising the serving stack's fault
    /// paths from outside the process: `{"op":"debug","action":"panic"}`
    /// panics inside the worker (proving panic isolation),
    /// `"action":"sleep"` holds a worker for `ms` milliseconds (making
    /// load shedding deterministic in tests), `"action":"noop"` does
    /// nothing. Non-mutating; never state-dependent.
    fn op_debug(&self, req: &Json) -> Result<Json, OpError> {
        match need_str(req, "action")? {
            "panic" => panic!("debug op requested a panic"),
            "sleep" => {
                // Clamp so a stray request can't wedge a worker for long.
                let ms = opt_u64(req, "ms")?.unwrap_or(0).min(10_000);
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(ok_reply(req, "debug", vec![("ms".to_string(), num(ms))]))
            }
            "noop" => Ok(ok_reply(req, "debug", Vec::new())),
            other => Err(format!("unknown debug action \"{other}\" (panic|sleep|noop)").into()),
        }
    }
}
