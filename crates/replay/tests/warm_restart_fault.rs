//! A snapshot-restored core and the live core it was captured from answer
//! alike through two seeded cable faults.
//!
//! The live core is warmed on `reorder` (reordered communicators), `map`
//! and every collective under both schemes, snapshotted and restored. Both
//! cores then take the same two faults, exactly as the serve `fault` op
//! applies them ([`fault_core`]). The first turns the GPC fat tree into an
//! irregular fabric. The second lands on that irregular fabric, where the
//! live core repairs its stage prices through the identity
//! [`tarr_faults::FabricDelta`]. After each fault every answer must be
//! bit-identical between the two cores. A third core, restored from a
//! snapshot of the live one between the faults, takes the second fault
//! with restored prices on an irregular fabric.
//!
//! Only answers are compared, not cache counters. A restored price carries
//! its total but not its per-stage prices, so a restored core cannot
//! repair it stage by stage: it drops the entry at the next fault and
//! re-prices it on demand, where the live core re-prices only the stages
//! the fault reaches.

use std::sync::Arc;
use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_core::{Mapper, PatternKind, Scheme, SessionCore};
use tarr_mapping::OrderFix;
use tarr_replay::{
    build_core, fault_core, BackendKind, EngineSnapshot, FaultSpec, IngestSource, IngestSpec,
    LayoutKind,
};

const PATTERNS: [PatternKind; 8] = [
    PatternKind::Rd,
    PatternKind::Ring,
    PatternKind::Bruck,
    PatternKind::BinomialBcast,
    PatternKind::BinomialGather,
    PatternKind::Hier(InterAlg::RecursiveDoubling, IntraPattern::Binomial),
    PatternKind::Hier(InterAlg::Ring, IntraPattern::Binomial),
    PatternKind::Hier(InterAlg::Ring, IntraPattern::Linear),
];

/// Every answer a client can ask the core for, as bit patterns: `map` and
/// `reorder` of every pattern, and every collective at two sizes under the
/// default and the reordered scheme. Asking warms the core.
fn answers(core: &Arc<SessionCore>) -> Vec<u64> {
    let mut h = core.handle();
    let mut out = Vec::new();
    for pattern in PATTERNS {
        if let Some(info) = h.mapping(Mapper::Hrstc, pattern) {
            out.extend(info.mapping.iter().map(|&v| u64::from(v)));
        }
        if let Some(comm) = h.reordered_comm(Mapper::Hrstc, pattern) {
            out.extend(comm.cores().iter().map(|c| u64::from(c.0)));
        }
    }
    let reordered = Scheme::Reordered {
        mapper: Mapper::Hrstc,
        fix: OrderFix::InitComm,
    };
    let sizes: Vec<u64> = (0..core.size() as u64).map(|r| 512 + 64 * r).collect();
    for scheme in [Scheme::Default, reordered] {
        for bytes in [512u64, 65536] {
            out.push(h.allgather_time(bytes, scheme).to_bits());
            for (inter, intra) in [
                (InterAlg::RecursiveDoubling, IntraPattern::Binomial),
                (InterAlg::Ring, IntraPattern::Binomial),
                (InterAlg::Ring, IntraPattern::Linear),
            ] {
                let hcfg = HierarchicalConfig { inter, intra };
                let t = h.hierarchical_allgather_time(bytes, hcfg, scheme);
                out.push(t.map_or(u64::MAX, f64::to_bits));
            }
            out.push(h.gather_time(bytes, scheme).to_bits());
            out.push(h.bcast_time(bytes, scheme).to_bits());
            out.push(h.allreduce_time(bytes, false, scheme).to_bits());
            out.push(h.allreduce_time(bytes, true, scheme).to_bits());
        }
        out.push(h.allgatherv_time(&sizes, scheme).to_bits());
    }
    out
}

/// Snapshot `core` through the wire format and restore it.
fn restore(core: &Arc<SessionCore>) -> Arc<SessionCore> {
    let snap = EngineSnapshot::capture(1, &[("gpc".to_string(), core.clone())]).unwrap();
    let snap = EngineSnapshot::decode(&snap.encode()).unwrap();
    Arc::new(snap.clusters[0].1.restore().unwrap())
}

fn cable_fault(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        link_fail: 0.05,
        switch_fail: 0.0,
        node_drain: 0.0,
        core_drain: 0.0,
    }
}

#[test]
fn restored_core_answers_like_the_live_one_through_two_faults() {
    let spec = IngestSpec {
        source: IngestSource::GpcNodes(64),
        layout: LayoutKind::BlockBunch,
        p: None,
        seed: Some(42),
        backend: BackendKind::Implicit,
        replace: false,
    };
    let live = Arc::new(build_core(&spec).unwrap());
    let warm = answers(&live);
    let restored = restore(&live);
    assert_eq!(answers(&restored), warm, "restored before any fault");

    // Fault 1: the fat tree loses cables and becomes an irregular fabric.
    assert!(live.cluster().fabric().as_irregular().is_none());
    let (live, _) = fault_core(&live, &cable_fault(7)).unwrap();
    let (restored, _) = fault_core(&restored, &cable_fault(7)).unwrap();
    let (live, restored) = (Arc::new(live), Arc::new(restored));
    assert!(live.cluster().fabric().as_irregular().is_some());
    let after_first = answers(&live);
    assert!(
        after_first != warm,
        "the first fault must change some answer"
    );
    assert_eq!(answers(&restored), after_first, "after the first fault");

    // A second restart, now of the warm irregular core: its prices carry
    // totals only when the next fault lands.
    let rerestored = restore(&live);

    // Fault 2, on the irregular fabric: the live core keeps the stage
    // prices the fault does not reach (identity fabric delta).
    let (live, report) = fault_core(&live, &cable_fault(11)).unwrap();
    let (restored, _) = fault_core(&restored, &cable_fault(11)).unwrap();
    let (rerestored, _) = fault_core(&rerestored, &cable_fault(11)).unwrap();
    assert!(report.summary.cables_removed > 0, "{report:?}");
    assert!(report.price_stages_reused > 0, "{report:?}");
    let after_second = answers(&Arc::new(live));
    assert!(
        after_second != after_first,
        "the second fault must change some answer"
    );
    assert_eq!(
        answers(&Arc::new(restored)),
        after_second,
        "after the second fault"
    );
    assert_eq!(
        answers(&Arc::new(rerestored)),
        after_second,
        "restored between the faults"
    );
}
