//! Versioned warm-state snapshots of the whole engine.
//!
//! A snapshot captures every named cluster's [`tarr_core::CoreState`]
//! (binding, cached mappings, price totals), its cluster as canonical
//! `topo-ingest` text, and its [`SessionConfig`] — everything needed to
//! rebuild a warm [`SessionCore`] without re-running a mapping heuristic or
//! a price simulation. Nothing derivable is stored. The distance oracle is
//! a pure function of (cluster, binding, config) and is rebuilt in O(P) on
//! restore. Reordered communicators and compiled schedules are pure
//! functions of a mapping, `p` and the node groups; a restored core
//! rebuilds each on its first miss, and a warm price answers from the
//! price cache without either.
//!
//! File layout:
//!
//! ```text
//! [8]  magic "TARRSNAP"
//! [4]  version (u32 LE)
//! [n]  body (version-specific)
//! [4]  CRC-32 over the body
//! ```
//!
//! The V4 body, all integers little-endian:
//!
//! ```text
//! u64  last event id
//! u32  meta count, then per entry: str key, str value
//! u32  cluster count, then per cluster (sorted by name):
//!        str     name
//!        str     cluster text
//!        cfg     u64 seed, 8 × u16 distance levels, 2 × f64 extraction,
//!                f64 switch overhead, 7 × (f64 latency, f64 bandwidth)
//!                channels, f64 memcpy latency, f64 memcpy bandwidth
//!        vec_u32 binding (core id per rank)
//!        u32     mapping count, then per entry: mapper, pattern,
//!                u8 0 (unsupported) | 1 + vec_u32 permutation
//!        u32     price count, then per entry: schedule key, communicator
//!                key, u64 bytes, f64 total, u32 unique-stage count
//! ```
//!
//! (`str` is a `u32` length plus UTF-8 bytes, `vec_u32` a `u32` count plus
//! the elements.)
//!
//! **Versioning policy.** [`SNAP_VERSION`] (4) is the only version written.
//! V1–V3 are frozen: the committed `tests/fixtures/snapshot_v{1,2,3}.tsnap`
//! must decode, restore and answer probes on every build, and their
//! decoders migrate forward into the current in-memory [`EngineSnapshot`].
//! V1 has no `meta` section (it decodes empty). V1–V3 carry a legacy
//! `cfg backend` byte after the seed (0 was the dense matrix, 1 the
//! implicit oracle; both restore the same core, anything else is refused)
//! and store reordered communicators and compiled schedules between the
//! mappings and the prices. Their decoders parse and discard those
//! sections; a price takes its unique-stage count from its schedule's
//! header and is dropped when the body holds no such schedule. A version
//! newer than [`SNAP_VERSION`] is a typed [`ReplayError::UnsupportedVersion`].
//!
//! **Determinism.** Cache entries are sorted by their encoded key bytes
//! and all wall-clock metadata is excluded, so two engines with identical
//! state produce byte-identical snapshots regardless of hash-map iteration
//! order or how long computes took.

use crate::wire::{crc32, Dec, Enc, WireError};
use crate::ReplayError;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use tarr_collectives::{AllgatherAlg, InterAlg, IntraPattern};
use tarr_core::{CommKey, CoreState, Mapper, PatternKind, SchedKey, SessionConfig, SessionCore};
use tarr_ingest::ClusterSnapshot;

/// Snapshot file magic.
pub const SNAP_MAGIC: &[u8; 8] = b"TARRSNAP";

/// Current (and only ever written) snapshot version.
pub const SNAP_VERSION: u32 = 4;

/// Default snapshot file name inside a state directory.
pub const SNAP_FILE: &str = "snapshot.tsnap";

/// One cluster's warm state, snapshot-shaped.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// The cluster in canonical `topo-ingest` text form.
    pub cluster_text: String,
    /// The session config the core was extracted under.
    pub cfg: SessionConfig,
    /// Exported binding, mappings and prices.
    pub state: CoreState,
}

/// A whole-engine snapshot: every named cluster plus the WAL position it
/// is consistent with.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Highest WAL event id already reflected in this snapshot. Boot
    /// replays only records with larger ids.
    pub last_event_id: u64,
    /// Free-form key/value metadata (introduced in V2; empty under V1).
    pub meta: Vec<(String, String)>,
    /// Named clusters, sorted by name.
    pub clusters: Vec<(String, ClusterState)>,
}

// ---------------------------------------------------------------------------
// enum codes — wire-stable, append-only
// ---------------------------------------------------------------------------

fn enc_mapper(e: &mut Enc, m: Mapper) {
    e.u8(match m {
        Mapper::Hrstc => 0,
        Mapper::ScotchLike => 1,
        Mapper::ScotchTuned => 2,
        Mapper::Greedy => 3,
        Mapper::MvapichCyclic => 4,
    });
}

fn dec_mapper(d: &mut Dec) -> Result<Mapper, WireError> {
    let at = d.pos();
    Ok(match d.u8("mapper code")? {
        0 => Mapper::Hrstc,
        1 => Mapper::ScotchLike,
        2 => Mapper::ScotchTuned,
        3 => Mapper::Greedy,
        4 => Mapper::MvapichCyclic,
        _ => {
            return Err(WireError {
                offset: at,
                what: "mapper code",
            })
        }
    })
}

fn enc_inter(e: &mut Enc, a: InterAlg) {
    e.u8(match a {
        InterAlg::RecursiveDoubling => 0,
        InterAlg::Ring => 1,
    });
}

fn dec_inter(d: &mut Dec) -> Result<InterAlg, WireError> {
    let at = d.pos();
    Ok(match d.u8("inter alg code")? {
        0 => InterAlg::RecursiveDoubling,
        1 => InterAlg::Ring,
        _ => {
            return Err(WireError {
                offset: at,
                what: "inter alg code",
            })
        }
    })
}

fn enc_intra(e: &mut Enc, a: IntraPattern) {
    e.u8(match a {
        IntraPattern::Linear => 0,
        IntraPattern::Binomial => 1,
    });
}

fn dec_intra(d: &mut Dec) -> Result<IntraPattern, WireError> {
    let at = d.pos();
    Ok(match d.u8("intra pattern code")? {
        0 => IntraPattern::Linear,
        1 => IntraPattern::Binomial,
        _ => {
            return Err(WireError {
                offset: at,
                what: "intra pattern code",
            })
        }
    })
}

fn enc_alg(e: &mut Enc, a: AllgatherAlg) {
    e.u8(match a {
        AllgatherAlg::RecursiveDoubling => 0,
        AllgatherAlg::Ring => 1,
        AllgatherAlg::Bruck => 2,
    });
}

fn dec_alg(d: &mut Dec) -> Result<AllgatherAlg, WireError> {
    let at = d.pos();
    Ok(match d.u8("allgather alg code")? {
        0 => AllgatherAlg::RecursiveDoubling,
        1 => AllgatherAlg::Ring,
        2 => AllgatherAlg::Bruck,
        _ => {
            return Err(WireError {
                offset: at,
                what: "allgather alg code",
            })
        }
    })
}

fn enc_pattern(e: &mut Enc, p: PatternKind) {
    match p {
        PatternKind::Rd => e.u8(0),
        PatternKind::Ring => e.u8(1),
        PatternKind::Bruck => e.u8(2),
        PatternKind::BinomialBcast => e.u8(3),
        PatternKind::BinomialGather => e.u8(4),
        PatternKind::Hier(inter, intra) => {
            e.u8(5);
            enc_inter(e, inter);
            enc_intra(e, intra);
        }
    }
}

fn dec_pattern(d: &mut Dec) -> Result<PatternKind, WireError> {
    let at = d.pos();
    Ok(match d.u8("pattern code")? {
        0 => PatternKind::Rd,
        1 => PatternKind::Ring,
        2 => PatternKind::Bruck,
        3 => PatternKind::BinomialBcast,
        4 => PatternKind::BinomialGather,
        5 => PatternKind::Hier(dec_inter(d)?, dec_intra(d)?),
        _ => {
            return Err(WireError {
                offset: at,
                what: "pattern code",
            })
        }
    })
}

fn enc_sched_key(e: &mut Enc, k: SchedKey) {
    match k {
        SchedKey::Flat(a) => {
            e.u8(0);
            enc_alg(e, a);
        }
        SchedKey::FlatInit(a, m) => {
            e.u8(1);
            enc_alg(e, a);
            enc_mapper(e, m);
        }
        SchedKey::Gather => e.u8(2),
        SchedKey::GatherInit(m) => {
            e.u8(3);
            enc_mapper(e, m);
        }
        SchedKey::Hier(inter, intra, m) => {
            e.u8(4);
            enc_inter(e, inter);
            enc_intra(e, intra);
            match m {
                None => e.u8(0),
                Some(m) => {
                    e.u8(1);
                    enc_mapper(e, m);
                }
            }
        }
        SchedKey::HierInit(inter, intra, m) => {
            e.u8(5);
            enc_inter(e, inter);
            enc_intra(e, intra);
            enc_mapper(e, m);
        }
        SchedKey::Bcast => e.u8(6),
        SchedKey::AllreduceRd => e.u8(7),
        SchedKey::AllreduceRabenseifner => e.u8(8),
    }
}

fn dec_sched_key(d: &mut Dec) -> Result<SchedKey, WireError> {
    let at = d.pos();
    Ok(match d.u8("sched key tag")? {
        0 => SchedKey::Flat(dec_alg(d)?),
        1 => SchedKey::FlatInit(dec_alg(d)?, dec_mapper(d)?),
        2 => SchedKey::Gather,
        3 => SchedKey::GatherInit(dec_mapper(d)?),
        4 => {
            let inter = dec_inter(d)?;
            let intra = dec_intra(d)?;
            let mat = d.pos();
            let m = match d.u8("sched key mapper flag")? {
                0 => None,
                1 => Some(dec_mapper(d)?),
                _ => {
                    return Err(WireError {
                        offset: mat,
                        what: "sched key mapper flag",
                    })
                }
            };
            SchedKey::Hier(inter, intra, m)
        }
        5 => SchedKey::HierInit(dec_inter(d)?, dec_intra(d)?, dec_mapper(d)?),
        6 => SchedKey::Bcast,
        7 => SchedKey::AllreduceRd,
        8 => SchedKey::AllreduceRabenseifner,
        _ => {
            return Err(WireError {
                offset: at,
                what: "sched key tag",
            })
        }
    })
}

fn enc_comm_key(e: &mut Enc, k: CommKey) {
    match k {
        CommKey::Default => e.u8(0),
        CommKey::Reordered(m, p) => {
            e.u8(1);
            enc_mapper(e, m);
            enc_pattern(e, p);
        }
    }
}

fn dec_comm_key(d: &mut Dec) -> Result<CommKey, WireError> {
    let at = d.pos();
    Ok(match d.u8("comm key tag")? {
        0 => CommKey::Default,
        1 => CommKey::Reordered(dec_mapper(d)?, dec_pattern(d)?),
        _ => {
            return Err(WireError {
                offset: at,
                what: "comm key tag",
            })
        }
    })
}

// ---------------------------------------------------------------------------
// config
// ---------------------------------------------------------------------------

fn enc_cfg(e: &mut Enc, cfg: &SessionConfig) {
    e.u64(cfg.seed);
    let d = &cfg.dist;
    for v in [
        d.same_core,
        d.l2,
        d.socket,
        d.node,
        d.same_leaf,
        d.same_line,
        d.cross_spine,
        d.torus_hop,
    ] {
        e.u16(v);
    }
    e.f64(cfg.extraction.base_seconds);
    e.f64(cfg.extraction.per_rank_seconds);
    let n = &cfg.net;
    e.f64(n.sw_overhead_s);
    for ch in [
        &n.shm,
        &n.qpi,
        &n.hca,
        &n.leaf_link,
        &n.spine_link,
        &n.torus_link,
        &n.switch_link,
    ] {
        e.f64(ch.latency_s);
        e.f64(ch.bandwidth_bps);
    }
    e.f64(n.memcpy.latency_s);
    e.f64(n.memcpy.bandwidth_bps);
}

fn dec_cfg(d: &mut Dec, version: u32) -> Result<SessionConfig, WireError> {
    let mut cfg = SessionConfig {
        seed: d.u64("cfg seed")?,
        ..SessionConfig::default()
    };
    // V1–V3: the legacy backend byte, 0 (dense) or 1 (implicit). Both
    // restore the same oracle core.
    let at = d.pos();
    if version < 4 && d.u8("cfg backend")? > 1 {
        return Err(WireError {
            offset: at,
            what: "cfg backend",
        });
    }
    cfg.dist.same_core = d.u16("cfg dist")?;
    cfg.dist.l2 = d.u16("cfg dist")?;
    cfg.dist.socket = d.u16("cfg dist")?;
    cfg.dist.node = d.u16("cfg dist")?;
    cfg.dist.same_leaf = d.u16("cfg dist")?;
    cfg.dist.same_line = d.u16("cfg dist")?;
    cfg.dist.cross_spine = d.u16("cfg dist")?;
    cfg.dist.torus_hop = d.u16("cfg dist")?;
    cfg.extraction.base_seconds = d.f64("cfg extraction")?;
    cfg.extraction.per_rank_seconds = d.f64("cfg extraction")?;
    cfg.net.sw_overhead_s = d.f64("cfg net")?;
    for ch in [
        &mut cfg.net.shm,
        &mut cfg.net.qpi,
        &mut cfg.net.hca,
        &mut cfg.net.leaf_link,
        &mut cfg.net.spine_link,
        &mut cfg.net.torus_link,
        &mut cfg.net.switch_link,
    ] {
        ch.latency_s = d.f64("cfg channel")?;
        ch.bandwidth_bps = d.f64("cfg channel")?;
    }
    cfg.net.memcpy.latency_s = d.f64("cfg memcpy")?;
    cfg.net.memcpy.bandwidth_bps = d.f64("cfg memcpy")?;
    cfg.net.link_overrides = Vec::new();
    Ok(cfg)
}

/// A `u8 0 | 1 + vec_u32` entry: a cached "unsupported" outcome or a
/// permutation.
fn dec_opt_vec(d: &mut Dec, what: &'static str) -> Result<Option<Vec<u32>>, WireError> {
    let at = d.pos();
    match d.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(d.vec_u32(what)?)),
        _ => Err(WireError { offset: at, what }),
    }
}

// ---------------------------------------------------------------------------
// V1–V3 cache sections, parsed and discarded
// ---------------------------------------------------------------------------

/// Parse past one V1–V3 compiled schedule, returning its unique-stage
/// count. From V3 on each unique stage leads with a halving-shift byte.
fn skip_schedule(d: &mut Dec, version: u32) -> Result<u32, WireError> {
    d.u32("schedule p")?;
    let n = d.u32("schedule unique count")?;
    for _ in 0..n {
        if version >= 3 {
            d.u8("schedule stage shift")?;
        }
        // Per op: u32 from, u32 to, u64 blocks, u64 raw.
        let ops = d.u32("schedule stage op count")? as usize;
        d.raw(ops.saturating_mul(24), "schedule stage ops")?;
    }
    d.vec_u32("schedule order")?;
    Ok(n)
}

/// Parse past the V1–V3 communicator and schedule sections, returning the
/// unique-stage count of every compiled schedule they held.
fn skip_cache_sections(d: &mut Dec, version: u32) -> Result<HashMap<SchedKey, u32>, WireError> {
    let n = d.u32("comm count")?;
    for _ in 0..n {
        dec_mapper(d)?;
        dec_pattern(d)?;
        dec_opt_vec(d, "comm entry")?;
    }
    let n = d.u32("sched count")?;
    let mut stages = HashMap::new();
    for _ in 0..n {
        let key = dec_sched_key(d)?;
        let at = d.pos();
        match d.u8("sched entry flag")? {
            0 => {}
            1 => {
                stages.insert(key, skip_schedule(d, version)?);
            }
            _ => {
                return Err(WireError {
                    offset: at,
                    what: "sched entry flag",
                })
            }
        }
    }
    Ok(stages)
}

// ---------------------------------------------------------------------------
// cluster state
// ---------------------------------------------------------------------------

/// Sort cache entries by their encoded key bytes — the determinism trick
/// that makes snapshots independent of hash-map iteration order.
fn sort_by_key_bytes<K: Copy, V>(entries: &mut [(K, V)], enc_key: impl Fn(&mut Enc, K)) {
    entries.sort_by_cached_key(|(k, _)| {
        let mut e = Enc::new();
        enc_key(&mut e, *k);
        e.into_bytes()
    });
}

impl ClusterState {
    /// Capture one core. Fails (typed, never silently lossy) if the config
    /// carries per-link overrides — they reference live fabric hops and
    /// have no closed wire form yet; a future snapshot version can add one.
    pub fn capture(core: &SessionCore) -> Result<ClusterState, ReplayError> {
        let cfg = core.config().clone();
        if !cfg.net.link_overrides.is_empty() {
            return Err(ReplayError::BadSnapshot {
                what: "sessions with per-link NetParams overrides are not snapshottable".into(),
            });
        }
        let mut state = core.export_state();
        sort_by_key_bytes(&mut state.mappings, |e, (m, p)| {
            enc_mapper(e, m);
            enc_pattern(e, p);
        });
        sort_by_key_bytes(&mut state.prices, |e, (sk, ck, bytes)| {
            enc_sched_key(e, sk);
            enc_comm_key(e, ck);
            e.u64(bytes);
        });
        Ok(ClusterState {
            cluster_text: ClusterSnapshot::canonical_cluster_text(core.cluster()),
            cfg,
            state,
        })
    }

    /// Rebuild a warm core: parse the cluster text, re-extract the distance
    /// structure, seed the caches. All structural validation lives in
    /// [`SessionCore::from_state`].
    pub fn restore(&self) -> Result<SessionCore, ReplayError> {
        let cluster = ClusterSnapshot::parse(&self.cluster_text)
            .and_then(|s| s.to_cluster())
            .map_err(|e| ReplayError::BadSnapshot {
                what: format!("cluster text: {e}"),
            })?;
        SessionCore::from_state(cluster, self.cfg.clone(), self.state.clone())
            .map_err(|what| ReplayError::BadSnapshot { what })
    }

    fn encode(&self, e: &mut Enc) {
        e.str(&self.cluster_text);
        enc_cfg(e, &self.cfg);
        e.vec_u32(&self.state.cores);
        e.u32(self.state.mappings.len() as u32);
        for ((m, p), v) in &self.state.mappings {
            enc_mapper(e, *m);
            enc_pattern(e, *p);
            match v {
                None => e.u8(0),
                Some(mapping) => {
                    e.u8(1);
                    e.vec_u32(mapping);
                }
            }
        }
        e.u32(self.state.prices.len() as u32);
        for ((sk, ck, bytes), (total, stages)) in &self.state.prices {
            enc_sched_key(e, *sk);
            enc_comm_key(e, *ck);
            e.u64(*bytes);
            e.f64(*total);
            e.u32(*stages);
        }
    }

    fn decode(d: &mut Dec, version: u32) -> Result<ClusterState, WireError> {
        let cluster_text = d.str("cluster text")?;
        let cfg = dec_cfg(d, version)?;
        let cores = d.vec_u32("binding")?;
        let n = d.u32("mapping count")? as usize;
        let mut mappings = Vec::new();
        for _ in 0..n {
            let key = (dec_mapper(d)?, dec_pattern(d)?);
            mappings.push((key, dec_opt_vec(d, "mapping entry")?));
        }
        let sched_stages = if version < 4 {
            Some(skip_cache_sections(d, version)?)
        } else {
            None
        };
        let n = d.u32("price count")? as usize;
        let mut prices = Vec::new();
        for _ in 0..n {
            let key = (dec_sched_key(d)?, dec_comm_key(d)?, d.u64("price bytes")?);
            let total = d.f64("price value")?;
            let stages = match &sched_stages {
                None => Some(d.u32("price stage count")?),
                // V1–V3: a price exported without its schedule (the two
                // maps were read without a common lock) has no stage count.
                Some(sched_stages) => sched_stages.get(&key.0).copied(),
            };
            if let Some(stages) = stages {
                prices.push((key, (total, stages)));
            }
        }
        Ok(ClusterState {
            cluster_text,
            cfg,
            state: CoreState {
                cores,
                mappings,
                prices,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// engine snapshot
// ---------------------------------------------------------------------------

impl EngineSnapshot {
    /// Encode at [`SNAP_VERSION`], the only version written.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Enc::new();
        body.u64(self.last_event_id);
        body.u32(self.meta.len() as u32);
        for (k, v) in &self.meta {
            body.str(k);
            body.str(v);
        }
        let mut clusters: Vec<&(String, ClusterState)> = self.clusters.iter().collect();
        clusters.sort_by(|a, b| a.0.cmp(&b.0));
        body.u32(clusters.len() as u32);
        for (name, cs) in clusters {
            body.str(name);
            cs.encode(&mut body);
        }
        let body = body.into_bytes();
        let mut e = Enc::new();
        e.raw(SNAP_MAGIC);
        e.u32(SNAP_VERSION);
        e.raw(&body);
        e.u32(crc32(&body));
        e.into_bytes()
    }

    /// Decode any supported version, migrating forward to the current
    /// in-memory form.
    pub fn decode(bytes: &[u8]) -> Result<EngineSnapshot, ReplayError> {
        let wire = |e: WireError| ReplayError::BadSnapshot {
            what: e.to_string(),
        };
        let mut d = Dec::new(bytes);
        let magic = d.raw(8, "snapshot magic").map_err(wire)?;
        if magic != SNAP_MAGIC {
            return Err(ReplayError::BadSnapshot {
                what: "bad snapshot magic".into(),
            });
        }
        let version = d.u32("snapshot version").map_err(wire)?;
        if version == 0 || version > SNAP_VERSION {
            return Err(ReplayError::UnsupportedVersion(version));
        }
        if d.remaining() < 4 {
            return Err(ReplayError::BadSnapshot {
                what: "missing snapshot checksum".into(),
            });
        }
        let body = d.raw(d.remaining() - 4, "snapshot body").map_err(wire)?;
        let stored = d.u32("snapshot checksum").map_err(wire)?;
        if crc32(body) != stored {
            return Err(ReplayError::BadSnapshot {
                what: "snapshot checksum mismatch".into(),
            });
        }
        let mut d = Dec::new(body);
        let last_event_id = d.u64("last event id").map_err(wire)?;
        // V1 → V2 migration: the meta section did not exist; default empty.
        let mut meta = Vec::new();
        if version >= 2 {
            let n = d.u32("meta count").map_err(wire)? as usize;
            for _ in 0..n {
                let k = d.str("meta key").map_err(wire)?;
                let v = d.str("meta value").map_err(wire)?;
                meta.push((k, v));
            }
        }
        let n = d.u32("cluster count").map_err(wire)? as usize;
        let mut clusters = Vec::new();
        for _ in 0..n {
            let name = d.str("cluster name").map_err(wire)?;
            clusters.push((name, ClusterState::decode(&mut d, version).map_err(wire)?));
        }
        d.finish("snapshot trailing bytes").map_err(wire)?;
        Ok(EngineSnapshot {
            last_event_id,
            meta,
            clusters,
        })
    }

    /// Capture a whole engine worth of cores (sorted by name inside
    /// `encode`, so caller order does not matter).
    pub fn capture(
        last_event_id: u64,
        cores: &[(String, Arc<SessionCore>)],
    ) -> Result<EngineSnapshot, ReplayError> {
        let mut clusters = Vec::with_capacity(cores.len());
        for (name, core) in cores {
            clusters.push((name.clone(), ClusterState::capture(core)?));
        }
        Ok(EngineSnapshot {
            last_event_id,
            meta: Vec::new(),
            clusters,
        })
    }
}

/// Atomically write `snap` as `dir/snapshot.tsnap`: encode, write to a
/// temp file, fsync it, rename over the target, fsync the directory. A
/// crash at any point leaves either the old snapshot or the new one —
/// never a torn mix.
pub fn write_atomic(dir: &Path, snap: &EngineSnapshot) -> Result<u64, ReplayError> {
    let bytes = snap.encode();
    let target = dir.join(SNAP_FILE);
    let tmp = dir.join(format!("{SNAP_FILE}.tmp"));
    match write_atomic_inner(dir, &target, &tmp, &bytes) {
        Ok(()) => Ok(bytes.len() as u64),
        Err(e) => {
            // Any failure leaves at worst a stale tmp file; remove it so a
            // later snapshot (or boot) never sees leftovers. The target is
            // untouched until the rename, so the old snapshot survives.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The fallible core of [`write_atomic`], with chaos injection sites
/// (`snap.write`, `snap.fsync`, `snap.rename`) at each durability step.
fn write_atomic_inner(
    dir: &Path,
    target: &Path,
    tmp: &Path,
    bytes: &[u8],
) -> Result<(), ReplayError> {
    use std::io::Write;
    let mut f = std::fs::File::create(tmp).map_err(|e| ReplayError::io(tmp, e))?;
    match tarr_chaos::hit("snap.write") {
        Some(tarr_chaos::Action::Error(e)) => return Err(ReplayError::io(tmp, e)),
        Some(tarr_chaos::Action::Short(raw)) => {
            // Land a strict prefix of the snapshot, as a torn write would.
            let n = (raw as usize) % bytes.len().max(1);
            let _ = f.write_all(&bytes[..n]);
            return Err(ReplayError::io(
                tmp,
                std::io::Error::other("tarr-chaos: injected short write at snap.write"),
            ));
        }
        None => {}
    }
    f.write_all(bytes).map_err(|e| ReplayError::io(tmp, e))?;
    tarr_chaos::fail_io("snap.fsync").map_err(|e| ReplayError::io(tmp, e))?;
    f.sync_all().map_err(|e| ReplayError::io(tmp, e))?;
    drop(f);
    tarr_chaos::fail_io("snap.rename").map_err(|e| ReplayError::io(target, e))?;
    std::fs::rename(tmp, target).map_err(|e| ReplayError::io(target, e))?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Load `dir/snapshot.tsnap` if present.
pub fn load(dir: &Path) -> Result<Option<EngineSnapshot>, ReplayError> {
    let path = dir.join(SNAP_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ReplayError::io(&path, e)),
    };
    Ok(Some(EngineSnapshot::decode(&bytes)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{probe_suite, BackendKind, IngestSource, IngestSpec, LayoutKind};
    use tarr_mapping::InitialMapping;
    use tarr_topo::Cluster;

    fn scheme(m: Mapper) -> tarr_core::Scheme {
        tarr_core::Scheme::Reordered {
            mapper: m,
            fix: tarr_mapping::OrderFix::InitComm,
        }
    }

    fn warm_core() -> Arc<SessionCore> {
        let cluster = Cluster::gpc(2);
        let core = SessionCore::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            16,
            SessionConfig::default(),
        );
        let core = Arc::new(core);
        let mut h = core.handle();
        // Warm a little of everything: mapping, comm, schedule, price.
        let _ = h.allgather_time(4096, scheme(Mapper::Hrstc));
        let _ = h.allgather_time(65536, scheme(Mapper::ScotchLike));
        let _ = h.allgather_time(4096, tarr_core::Scheme::Default);
        let _ = h.gather_time(1024, scheme(Mapper::Hrstc));
        core
    }

    /// The core the committed `tests/fixtures/snapshot_v*.tsnap` were
    /// captured from (see `tests/migration.rs`): 16 seeded GPC ranks,
    /// warmed by the probe suite.
    fn fixture_core() -> Arc<SessionCore> {
        let spec = IngestSpec {
            source: IngestSource::GpcNodes(2),
            layout: LayoutKind::BlockBunch,
            p: None,
            seed: Some(42),
            backend: BackendKind::Implicit,
            replace: false,
        };
        let core = Arc::new(crate::build_core(&spec).unwrap());
        let _ = probe_suite(&core);
        core
    }

    const V1: &[u8] = include_bytes!("../tests/fixtures/snapshot_v1.tsnap");
    const V2: &[u8] = include_bytes!("../tests/fixtures/snapshot_v2.tsnap");
    const V3: &[u8] = include_bytes!("../tests/fixtures/snapshot_v3.tsnap");

    #[test]
    fn snapshot_roundtrips_and_is_deterministic() {
        let core = warm_core();
        let snap = EngineSnapshot::capture(7, &[("gpc".into(), core)]).unwrap();
        let a = snap.encode();
        let decoded = EngineSnapshot::decode(&a).unwrap();
        assert_eq!(decoded.last_event_id, 7);
        assert_eq!(decoded.clusters.len(), 1);
        let b = decoded.encode();
        assert_eq!(a, b, "encode→decode→encode must be a fixed point");
    }

    #[test]
    fn two_identically_warmed_cores_snapshot_identically() {
        let a = EngineSnapshot::capture(1, &[("x".into(), warm_core())])
            .unwrap()
            .encode();
        let b = EngineSnapshot::capture(1, &[("x".into(), warm_core())])
            .unwrap()
            .encode();
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rebuilds_a_working_core() {
        let core = warm_core();
        let before = {
            let mut h = core.handle();
            let t = h.allgather_time(4096, scheme(Mapper::Hrstc));
            (core, t)
        };
        let snap = EngineSnapshot::capture(1, &[("gpc".into(), before.0.clone())]).unwrap();
        let bytes = snap.encode();
        let restored = EngineSnapshot::decode(&bytes).unwrap().clusters[0]
            .1
            .restore()
            .unwrap();
        let restored = Arc::new(restored);
        let mut h = restored.handle();
        let t = h.allgather_time(4096, scheme(Mapper::Hrstc));
        assert_eq!(
            t.to_bits(),
            before.1.to_bits(),
            "restored price must be bit-identical"
        );
        // And it came from the cache, not a recompute.
        let stats = restored.cache_stats();
        assert_eq!(
            stats.misses(),
            0,
            "warm restore must not recompute: {stats:?}"
        );
    }

    /// Broadcast and allreduce prices ride through a snapshot like every
    /// other collective: a restored core answers the warm ones from its
    /// price cache, bit-identically. A size never priced before recompiles
    /// each of the three schedules once, from nothing but `p`, and prices
    /// bit-identically to the live core.
    #[test]
    fn restored_core_answers_bcast_and_allreduce_from_the_cache() {
        type Ask = fn(&mut tarr_core::SessionHandle, u64, tarr_core::Scheme) -> f64;
        let asks: [Ask; 3] = [
            |h, b, sc| h.bcast_time(b, sc),
            |h, b, sc| h.allreduce_time(b, false, sc),
            |h, b, sc| h.allreduce_time(b, true, sc),
        ];
        let schemes = [tarr_core::Scheme::Default, scheme(Mapper::Hrstc)];
        let sweep = |core: &Arc<SessionCore>, sizes: &[u64]| -> Vec<u64> {
            let mut h = core.handle();
            let mut out = Vec::new();
            for ask in asks {
                for sc in schemes {
                    for &b in sizes {
                        out.push(ask(&mut h, b, sc).to_bits());
                    }
                }
            }
            out
        };
        let core = warm_core();
        let warm = sweep(&core, &[1, 4096, 1 << 20]);
        let snap = EngineSnapshot::capture(1, &[("gpc".into(), core.clone())]).unwrap();
        let bytes = snap.encode();
        let restored = EngineSnapshot::decode(&bytes).unwrap().clusters[0]
            .1
            .restore()
            .unwrap();
        let restored = Arc::new(restored);
        assert_eq!(sweep(&restored, &[1, 4096, 1 << 20]), warm);
        let stats = restored.cache_stats();
        assert_eq!(stats.misses(), 0, "warm prices recomputed: {stats:?}");
        assert_eq!(stats.prices.hits, warm.len() as u64);
        // A size never priced before: each schedule is recompiled once.
        assert_eq!(sweep(&restored, &[7]), sweep(&core, &[7]));
        let new_size = restored.cache_stats().since(stats);
        assert_eq!(new_size.scheds.misses, 3, "{new_size:?}");
        assert_eq!(sweep(&restored, &[9]), sweep(&core, &[9]));
        assert_eq!(restored.cache_stats().since(stats).scheds.misses, 3);
    }

    /// Decode `bytes`, check the stored version, and restore its one
    /// cluster.
    fn restore_fixture(bytes: &[u8], version: u32) -> (EngineSnapshot, Arc<SessionCore>) {
        assert_eq!(&bytes[8..12], &version.to_le_bytes());
        let snap = EngineSnapshot::decode(bytes).unwrap();
        assert_eq!(snap.last_event_id, 3);
        assert_eq!(snap.clusters.len(), 1);
        let core = Arc::new(snap.clusters[0].1.restore().unwrap());
        (snap, core)
    }

    #[test]
    fn v1_snapshots_migrate_forward() {
        let (decoded, restored) = restore_fixture(V1, 1);
        assert!(decoded.meta.is_empty());
        assert!(!decoded.clusters[0].1.state.prices.is_empty());
        assert_eq!(probe_suite(&restored), probe_suite(&fixture_core()));
        // Re-encoding a migrated snapshot writes the current version.
        let current = decoded.encode();
        assert_eq!(&current[8..12], &SNAP_VERSION.to_le_bytes());
    }

    /// The V2 fixture is the fixture core minus the broadcast and
    /// allreduce entries V2 could not hold, and the V3 fixture the fixture
    /// core after a broadcast and allreduce sweep (shifted stages). Both
    /// migrate to exactly the V4 snapshot of that state: every price keeps
    /// its total and takes its stage count from its stored schedule.
    #[test]
    fn v2_snapshots_migrate_forward_with_unshifted_stages() {
        let v3_only = |k: &SchedKey| {
            matches!(
                k,
                SchedKey::Bcast | SchedKey::AllreduceRd | SchedKey::AllreduceRabenseifner
            )
        };
        let mut v2_state = EngineSnapshot::capture(3, &[("gpc".into(), fixture_core())]).unwrap();
        v2_state.clusters[0]
            .1
            .state
            .prices
            .retain(|((k, _, _), _)| !v3_only(k));
        let (decoded, _) = restore_fixture(V2, 2);
        assert_eq!(decoded.encode(), v2_state.encode());

        let core = fixture_core();
        let mut h = core.handle();
        for sc in [tarr_core::Scheme::Default, scheme(Mapper::Hrstc)] {
            for b in [1u64, 4096, 1 << 20] {
                let _ = h.bcast_time(b, sc);
                let _ = h.allreduce_time(b, false, sc);
                let _ = h.allreduce_time(b, true, sc);
            }
        }
        let v3_state = EngineSnapshot::capture(3, &[("gpc".into(), core)]).unwrap();
        let (decoded, _) = restore_fixture(V3, 3);
        assert_eq!(decoded.encode(), v3_state.encode());
    }

    /// A V3 price whose schedule is missing from the body (the export read
    /// the schedule and price maps without a common lock) is dropped; the
    /// rest of the snapshot restores.
    #[test]
    fn v3_price_without_its_schedule_is_dropped() {
        let cluster = Cluster::gpc(2);
        let mut cfg = Enc::new();
        enc_cfg(&mut cfg, &SessionConfig::default());
        let cfg = cfg.into_bytes();
        let mut e = Enc::new();
        e.u64(3); // last event id
        e.u32(0); // meta
        e.u32(1);
        e.str("gpc");
        e.str(&ClusterSnapshot::canonical_cluster_text(&cluster));
        e.raw(&cfg[..8]);
        e.u8(1); // legacy backend byte
        e.raw(&cfg[8..]);
        e.vec_u32(&(0..16).collect::<Vec<u32>>());
        e.u32(0); // mappings
        e.u32(0); // comms
        e.u32(1); // scheds: a one-stage broadcast stand-in
        enc_sched_key(&mut e, SchedKey::Bcast);
        e.u8(1);
        e.u32(16); // p
        e.u32(1); // one unique stage
        e.u8(0); // its halving shift
        e.u32(1); // one op: 0 → 1, one block, no raw bytes
        e.u32(0);
        e.u32(1);
        e.u64(1);
        e.u64(0);
        e.vec_u32(&[0]); // stage order
        e.u32(2); // prices: one with its schedule, one without
        for (k, total) in [(SchedKey::Bcast, 1.0), (SchedKey::Gather, 2.0)] {
            enc_sched_key(&mut e, k);
            enc_comm_key(&mut e, CommKey::Default);
            e.u64(1024);
            e.f64(total);
        }
        let body = e.into_bytes();
        let mut file = Enc::new();
        file.raw(SNAP_MAGIC);
        file.u32(3);
        file.raw(&body);
        file.u32(crc32(&body));
        let snap = EngineSnapshot::decode(&file.into_bytes()).unwrap();
        let state = &snap.clusters[0].1.state;
        assert_eq!(
            state.prices,
            vec![((SchedKey::Bcast, CommKey::Default, 1024), (1.0, 1))]
        );
        snap.clusters[0].1.restore().unwrap();
    }

    #[test]
    fn future_version_refused() {
        let snap = EngineSnapshot {
            last_event_id: 0,
            meta: Vec::new(),
            clusters: Vec::new(),
        };
        let mut bytes = snap.encode();
        bytes[8..12].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        assert!(matches!(
            EngineSnapshot::decode(&bytes),
            Err(ReplayError::UnsupportedVersion(v)) if v == SNAP_VERSION + 1
        ));
    }

    #[test]
    fn corruption_is_typed() {
        let core = warm_core();
        let snap = EngineSnapshot::capture(1, &[("gpc".into(), core)]).unwrap();
        let bytes = snap.encode();
        // Checksum catches a flipped body byte.
        let mut bad = bytes.clone();
        bad[40] ^= 0xFF;
        assert!(matches!(
            EngineSnapshot::decode(&bad),
            Err(ReplayError::BadSnapshot { .. })
        ));
        // Truncations are typed, never panics.
        for cut in 0..bytes.len().min(64) {
            assert!(EngineSnapshot::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("tarr-replay-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load(&dir).unwrap().is_none());
        let snap = EngineSnapshot::capture(5, &[("gpc".into(), warm_core())]).unwrap();
        let n = write_atomic(&dir, &snap).unwrap();
        assert!(n > 0);
        let loaded = load(&dir).unwrap().unwrap();
        assert_eq!(loaded.last_event_id, 5);
        assert_eq!(loaded.encode(), snap.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `cfg backend` byte is a legacy tag of V1–V3: either legal value
    /// restores the same oracle core, and any other value is a typed decode
    /// error. V4 writes no such byte.
    #[test]
    fn cfg_backend_byte_is_a_legacy_tag() {
        let core = fixture_core();
        let mut cfg = Enc::new();
        enc_cfg(&mut cfg, core.config());
        let cfg = cfg.into_bytes();
        // V3 stores the byte between the seed and the distance levels.
        let mut legacy = cfg[..8].to_vec();
        legacy.push(1);
        legacy.extend_from_slice(&cfg[8..]);
        let at = V3
            .windows(legacy.len())
            .position(|w| w == legacy)
            .expect("the encoded config is in the V3 fixture")
            + 8; // after the seed
        let patched = |v: u8| {
            let mut b = V3.to_vec();
            b[at] = v;
            let n = b.len();
            let crc = crc32(&b[12..n - 4]);
            b[n - 4..].copy_from_slice(&crc.to_le_bytes());
            b
        };

        let expected = probe_suite(&core);
        for v in [0, 1] {
            let snap = EngineSnapshot::decode(&patched(v)).unwrap();
            let restored = Arc::new(snap.clusters[0].1.restore().unwrap());
            assert_eq!(probe_suite(&restored), expected, "backend byte {v}");
        }

        let err = dec_cfg(&mut Dec::new(&patched(2)[at - 8..]), 3).unwrap_err();
        assert_eq!(err.what, "cfg backend");
        match EngineSnapshot::decode(&patched(2)) {
            Err(ReplayError::BadSnapshot { what }) => {
                assert!(what.contains("cfg backend"), "{what}")
            }
            other => panic!("backend byte 2 must be refused: {other:?}"),
        }

        // V4: the config is stored as is, with no backend byte.
        let v4 = EngineSnapshot::capture(3, &[("gpc".into(), core)])
            .unwrap()
            .encode();
        assert!(v4.windows(cfg.len()).any(|w| w == cfg));
        assert!(!v4.windows(legacy.len()).any(|w| w == legacy));
    }
}
