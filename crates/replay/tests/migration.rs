//! Snapshot forward-migration: the checked-in V1, V2 and V3 fixtures must
//! keep loading, bit-identically, on every future build. Only the current
//! version is ever written, so these files are the only V1–V3 snapshots
//! there will be. V1 snapshots have no meta section (decode migrates them
//! to empty meta); V1–V3 store communicators and compiled schedules, which
//! decode discards and a restored core rebuilds on first use. If this test
//! fails after a format change, the change broke the "old snapshots load
//! forever" contract — fix the decoder, never the fixtures.
//!
//! The fixtures were captured from [`warm_fixture_core`] (V2 without the
//! broadcast and allreduce entries it cannot hold; V3 after an extra
//! broadcast and allreduce sweep over both schemes at 1 B, 4 KiB and
//! 1 MiB, which stores shifted stages).

use std::path::PathBuf;
use std::sync::Arc;
use tarr_replay::{probe_suite, BackendKind, EngineSnapshot, IngestSource, IngestSpec, LayoutKind};

/// The fixture's source state, reproducible from first principles: a
/// seeded 16-rank GPC core warmed by the standard probe suite (which
/// deterministically fills the mapping/comm/sched/price caches).
fn warm_fixture_core() -> Arc<tarr_core::SessionCore> {
    let spec = IngestSpec {
        source: IngestSource::GpcNodes(2),
        layout: LayoutKind::BlockBunch,
        p: None,
        seed: Some(42),
        backend: BackendKind::Implicit,
        replace: false,
    };
    let core = Arc::new(tarr_replay::build_core(&spec).unwrap());
    let _ = probe_suite(&core);
    core
}

/// Decode `snapshot_v{version}.tsnap`, restore its one cluster, and check
/// that the restored core answers the probe suite as a freshly warmed core
/// does.
fn fixture_loads_forever(version: u32) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/fixtures/snapshot_v{version}.tsnap"));
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));
    assert_eq!(&bytes[8..12], &version.to_le_bytes());
    let snap = EngineSnapshot::decode(&bytes)
        .unwrap_or_else(|e| panic!("V{version} snapshot must decode on every build: {e}"));
    assert_eq!(snap.last_event_id, 3);
    assert!(snap.meta.is_empty());
    assert_eq!(snap.clusters.len(), 1);
    assert_eq!(snap.clusters[0].0, "gpc");
    let restored = Arc::new(snap.clusters[0].1.restore().unwrap());
    assert_eq!(
        probe_suite(&restored),
        probe_suite(&warm_fixture_core()),
        "V{version}-restored state must answer probes bit-identically"
    );
}

#[test]
fn v1_fixture_loads_forever() {
    fixture_loads_forever(1);
}

#[test]
fn v2_fixture_loads_forever() {
    fixture_loads_forever(2);
}

#[test]
fn v3_fixture_loads_forever() {
    fixture_loads_forever(3);
}
