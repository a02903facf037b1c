//! Replaying a (snapshot, log) pair back into engine state.
//!
//! [`build_core`] and [`fault_core`] are the *single* code paths for
//! turning an [`IngestSpec`]/[`FaultSpec`] into session state — the live
//! engine calls them for real requests and replay calls them for recorded
//! ones, so there is no second implementation to drift. [`ReplayState`]
//! folds events in id order (skipping anything a snapshot already
//! reflects), and [`restore_dir`] is the whole boot story: load snapshot,
//! recover the WAL, replay the tail.

use crate::event::{Event, FaultSpec, IngestSource, IngestSpec};
use crate::log::{read_wal, recover_wal, WalTail, WAL_FILE};
use crate::snapshot::{self, EngineSnapshot};
use crate::ReplayError;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use tarr_core::{DegradationReport, Mapper, PatternKind, Scheme, SessionConfig, SessionCore};
use tarr_faults::FaultSet;
use tarr_mapping::OrderFix;

/// Build a fresh core from an ingest spec — exactly the semantics of the
/// serve `ingest` op (same defaults, same error texts where possible).
pub fn build_core(spec: &IngestSpec) -> Result<SessionCore, ReplayError> {
    let mut cfg = SessionConfig {
        backend: spec.backend.backend(),
        ..SessionConfig::default()
    };
    if let Some(seed) = spec.seed {
        cfg.seed = seed;
    }
    let layout = spec.layout.initial();
    let p = spec.p.map(|v| v as usize);
    match &spec.source {
        IngestSource::SnapshotText(text) => SessionCore::from_snapshot_text(text, layout, p, cfg)
            .map_err(|e| ReplayError::Apply(e.to_string())),
        IngestSource::GpcNodes(nodes) => {
            let cluster = tarr_topo::Cluster::gpc(*nodes as usize);
            let p = p.unwrap_or_else(|| cluster.total_cores());
            Ok(SessionCore::from_layout(cluster, layout, p, cfg))
        }
    }
}

/// Degrade a core with a seeded fault set — exactly the serve `fault` op.
pub fn fault_core(
    core: &SessionCore,
    fault: &FaultSpec,
) -> Result<(SessionCore, DegradationReport), ReplayError> {
    let set = FaultSet::random(core.cluster(), &fault.rates(), fault.seed);
    core.apply_faults(&set)
        .map_err(|e| ReplayError::Apply(e.to_string()))
}

/// Engine state as replay reconstructs it: named cores plus the id of the
/// last event folded in.
#[derive(Default)]
pub struct ReplayState {
    /// Named cores, ordered by name.
    pub clusters: BTreeMap<String, Arc<SessionCore>>,
    /// Highest event id applied (0 = none).
    pub last_event_id: u64,
}

impl ReplayState {
    /// Seed from a snapshot: restore every cluster warm.
    pub fn from_snapshot(snap: &EngineSnapshot) -> Result<ReplayState, ReplayError> {
        let mut clusters = BTreeMap::new();
        for (name, cs) in &snap.clusters {
            clusters.insert(name.clone(), Arc::new(cs.restore()?));
        }
        Ok(ReplayState {
            clusters,
            last_event_id: snap.last_event_id,
        })
    }

    /// Fold one event in. Events at or below `last_event_id` are already
    /// reflected (the snapshot covers them) and are skipped; returns
    /// whether the event was applied.
    pub fn apply(&mut self, event_id: u64, event: &Event) -> Result<bool, ReplayError> {
        if event_id <= self.last_event_id {
            return Ok(false);
        }
        match event {
            Event::Ingest { cluster, spec } => {
                // `replace` was validated when the event was admitted; on
                // replay an existing entry is simply superseded either way.
                let core = build_core(spec)?;
                self.clusters.insert(cluster.clone(), Arc::new(core));
            }
            Event::Fault { cluster, fault } => {
                let core = self.clusters.get(cluster).ok_or_else(|| {
                    ReplayError::Apply(format!(
                        "fault event {event_id} names unknown cluster \"{cluster}\""
                    ))
                })?;
                let (degraded, _report) = fault_core(core, fault)?;
                self.clusters.insert(cluster.clone(), Arc::new(degraded));
            }
        }
        self.last_event_id = event_id;
        Ok(true)
    }
}

/// Everything [`restore_dir`] learned while booting.
pub struct Restore {
    /// The reconstructed state.
    pub state: ReplayState,
    /// Whether a snapshot file was present.
    pub snapshot_loaded: bool,
    /// Snapshot file size (0 if absent).
    pub snapshot_bytes: u64,
    /// WAL records applied on top of the snapshot.
    pub events_replayed: u64,
    /// WAL records skipped because the snapshot already covered them.
    pub events_skipped: u64,
    /// How the WAL tail looked on disk (before any recovery).
    pub tail: WalTail,
    /// Valid WAL length in bytes.
    pub wal_bytes: u64,
}

/// Boot engine state from a state directory: load `snapshot.tsnap` if
/// present, then replay the WAL tail. With `recover` set, a torn WAL tail
/// is physically truncated (the serve boot path); without it the torn
/// bytes are left untouched (the read-only inspection path).
pub fn restore_dir(dir: &Path, recover: bool) -> Result<Restore, ReplayError> {
    if recover {
        // A crash between the snapshot tmp write and its rename leaves a
        // stale `.tmp` behind; it was never the live snapshot, so boot
        // discards it rather than letting it accumulate.
        let _ = std::fs::remove_file(dir.join(format!("{}.tmp", snapshot::SNAP_FILE)));
    }
    let snap = snapshot::load(dir)?;
    let snapshot_loaded = snap.is_some();
    let snapshot_bytes = if snapshot_loaded {
        std::fs::metadata(dir.join(snapshot::SNAP_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    } else {
        0
    };
    let mut state = match &snap {
        Some(s) => ReplayState::from_snapshot(s)?,
        None => ReplayState::default(),
    };
    let wal_path = dir.join(WAL_FILE);
    let (records, tail, wal_bytes) = if recover {
        recover_wal(&wal_path)?
    } else {
        let (records, tail) = read_wal(&wal_path)?;
        let valid = match tail {
            WalTail::Clean => {
                if wal_path.exists() {
                    std::fs::metadata(&wal_path)
                        .map_err(|e| ReplayError::io(&wal_path, e))?
                        .len()
                } else {
                    0
                }
            }
            WalTail::Torn { valid_len, .. } => valid_len,
        };
        (records, tail, valid)
    };
    let mut replayed = 0;
    let mut skipped = 0;
    for r in &records {
        if state.apply(r.event_id, &r.event)? {
            replayed += 1;
        } else {
            skipped += 1;
        }
    }
    Ok(Restore {
        state,
        snapshot_loaded,
        snapshot_bytes,
        events_replayed: replayed,
        events_skipped: skipped,
        tail,
        wal_bytes,
    })
}

/// The cache-transparent probe suite differential checks compare engines
/// with. Every probe is a pure function of engine state (mappings,
/// reordered communicators, prices) — never an instantaneous cache
/// observation — so two engines that agree on all probes hold the same
/// durable state even if their caches were warmed differently. Floats are
/// rendered as IEEE-754 bit patterns: "equal" means bit-identical.
pub fn probe_suite(core: &Arc<SessionCore>) -> Vec<String> {
    let mut h = core.handle();
    let mut out = Vec::new();
    let pats = [
        (Mapper::Hrstc, PatternKind::Ring),
        (Mapper::ScotchLike, PatternKind::Ring),
        (Mapper::Greedy, PatternKind::Ring),
    ];
    for (m, p) in pats {
        let rendered = match h.mapping(m, p) {
            None => "unsupported".to_string(),
            Some(info) => info
                .mapping
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
        };
        out.push(format!("map {m:?} {p:?} = {rendered}"));
    }
    let schemes: [(&str, Scheme); 3] = [
        ("default", Scheme::Default),
        (
            "hrstc/init_comm",
            Scheme::Reordered {
                mapper: Mapper::Hrstc,
                fix: OrderFix::InitComm,
            },
        ),
        (
            "scotch/in_place",
            Scheme::Reordered {
                mapper: Mapper::ScotchLike,
                fix: OrderFix::InPlace,
            },
        ),
    ];
    for bytes in [1024u64, 65536] {
        for (label, scheme) in schemes {
            let t = h.allgather_time(bytes, scheme);
            out.push(format!(
                "price allgather {bytes} {label} = {:016x}",
                t.to_bits()
            ));
        }
    }
    let t = h.gather_time(4096, schemes[1].1);
    out.push(format!(
        "price gather 4096 hrstc/init_comm = {:016x}",
        t.to_bits()
    ));
    let t = h.bcast_time(1024, schemes[2].1);
    out.push(format!(
        "price bcast 1024 scotch/in_place = {:016x}",
        t.to_bits()
    ));
    // Both allreduce algorithms require a power-of-two communicator; the
    // skip is a pure function of p, so both sides of a differential make
    // the same choice.
    if core.size().is_power_of_two() {
        let t = h.allreduce_time(65536, true, schemes[1].1);
        out.push(format!(
            "price allreduce 65536 hrstc/init_comm = {:016x}",
            t.to_bits()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BackendKind, LayoutKind};
    use crate::log::WalWriter;
    use crate::snapshot::write_atomic;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("tarr-replay-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn gpc_ingest(cluster: &str, nodes: u64, seed: u64) -> Event {
        Event::Ingest {
            cluster: cluster.into(),
            spec: IngestSpec {
                source: IngestSource::GpcNodes(nodes),
                layout: LayoutKind::BlockBunch,
                p: None,
                seed: Some(seed),
                backend: BackendKind::Implicit,
                replace: false,
            },
        }
    }

    fn light_fault(cluster: &str, seed: u64) -> Event {
        Event::Fault {
            cluster: cluster.into(),
            fault: FaultSpec {
                seed,
                link_fail: 0.05,
                switch_fail: 0.0,
                node_drain: 0.0,
                core_drain: 0.0,
            },
        }
    }

    #[test]
    fn replayed_state_matches_directly_built_state() {
        // Build directly.
        let mut direct = ReplayState::default();
        direct.apply(1, &gpc_ingest("gpc", 2, 42)).unwrap();
        direct.apply(2, &light_fault("gpc", 7)).unwrap();
        // Persist as WAL, then replay from disk.
        let d = tmpdir("direct");
        let wal = d.join(WAL_FILE);
        let mut w = WalWriter::open_append(&wal).unwrap();
        w.append(1, 1, &gpc_ingest("gpc", 2, 42).encode()).unwrap();
        w.append(2, 2, &light_fault("gpc", 7).encode()).unwrap();
        let restored = restore_dir(&d, false).unwrap();
        assert!(!restored.snapshot_loaded);
        assert_eq!(restored.events_replayed, 2);
        assert_eq!(restored.tail, WalTail::Clean);
        assert_eq!(
            probe_suite(direct.clusters.get("gpc").unwrap()),
            probe_suite(restored.state.clusters.get("gpc").unwrap()),
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn snapshot_plus_tail_equals_full_replay() {
        let d = tmpdir("tail");
        let wal = d.join(WAL_FILE);
        let mut w = WalWriter::open_append(&wal).unwrap();
        w.append(1, 1, &gpc_ingest("a", 2, 1).encode()).unwrap();
        w.append(2, 2, &gpc_ingest("b", 3, 2).encode()).unwrap();
        w.append(3, 3, &light_fault("a", 9).encode()).unwrap();
        // Snapshot reflecting events 1–2 only.
        let mut upto2 = ReplayState::default();
        upto2.apply(1, &gpc_ingest("a", 2, 1)).unwrap();
        upto2.apply(2, &gpc_ingest("b", 3, 2)).unwrap();
        let cores: Vec<_> = upto2
            .clusters
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let snap = EngineSnapshot::capture(2, &cores).unwrap();
        write_atomic(&d, &snap).unwrap();
        // Boot: snapshot + replay of event 3 only.
        let restored = restore_dir(&d, true).unwrap();
        assert!(restored.snapshot_loaded);
        assert_eq!(restored.events_skipped, 2);
        assert_eq!(restored.events_replayed, 1);
        // Differential: full-log replay from genesis agrees on every probe.
        let mut genesis = ReplayState::default();
        for (records, _) in [read_wal(&wal).unwrap()] {
            for r in &records {
                genesis.apply(r.event_id, &r.event).unwrap();
            }
        }
        assert_eq!(
            genesis.clusters.keys().collect::<Vec<_>>(),
            restored.state.clusters.keys().collect::<Vec<_>>()
        );
        for (name, core) in &genesis.clusters {
            assert_eq!(
                probe_suite(core),
                probe_suite(restored.state.clusters.get(name).unwrap()),
                "probe divergence on {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fault_on_unknown_cluster_is_typed() {
        let mut s = ReplayState::default();
        assert!(matches!(
            s.apply(1, &light_fault("nope", 1)),
            Err(ReplayError::Apply(_))
        ));
    }

    #[test]
    fn empty_dir_restores_empty_state() {
        let d = tmpdir("empty");
        let r = restore_dir(&d, true).unwrap();
        assert!(r.state.clusters.is_empty());
        assert_eq!(r.state.last_event_id, 0);
        assert!(!r.snapshot_loaded);
        let _ = std::fs::remove_dir_all(&d);
    }
}
