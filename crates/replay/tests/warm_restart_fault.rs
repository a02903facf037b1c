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
//! Only answers are compared, not cache counters. A restored core holds
//! price totals but no stage profiles, so at the next fault it drops the
//! prices of every pair it has not priced since the restore and re-prices
//! them on demand, where the live core re-prices them from its profiles
//! with only the stages the fault reaches routed again. Another test pins
//! the other side of that rule: a restored pair priced at a new size before
//! the fault has its restored prices repaired, not dropped.
//!
//! A second test follows the size-free stage profiles through the same two
//! faults: a core warmed at several sizes per (schedule, communicator)
//! answers like a cold core on the degraded cluster after each fault, and
//! the identity-delta fault rebuilds only the profiles of the stages it
//! reaches, once per pair whatever the number of sizes.
//!
//! A metamorphic test closes the file: a fault drawn with every rate zero
//! changes no answer and shares every cache entry.

use std::sync::Arc;
use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_collectives::AllgatherAlg;
use tarr_core::{CommKey, Mapper, PatternKind, SchedKey, Scheme, SessionCore};
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

/// The warm sizes of the profile test: three per schedule, all in the
/// ring region of the allgather at 512 ranks.
const PROFILE_SIZES: [u64; 3] = [4096, 65536, 1 << 20];

/// The schedules the profile test prices, all over the initial
/// communicator, none of which a cable fault invalidates.
const PROFILED: [SchedKey; 5] = [
    SchedKey::Flat(AllgatherAlg::Ring),
    SchedKey::Gather,
    SchedKey::Bcast,
    SchedKey::AllreduceRd,
    SchedKey::AllreduceRabenseifner,
];

/// The default-scheme prices of every [`PROFILED`] schedule at every
/// [`PROFILE_SIZES`] size, as bit patterns.
fn default_prices(core: &Arc<SessionCore>) -> Vec<u64> {
    let mut h = core.handle();
    let mut out = Vec::new();
    for b in PROFILE_SIZES {
        out.push(h.allgather_time(b, Scheme::Default).to_bits());
        out.push(h.gather_time(b, Scheme::Default).to_bits());
        out.push(h.bcast_time(b, Scheme::Default).to_bits());
        out.push(h.allreduce_time(b, false, Scheme::Default).to_bits());
        out.push(h.allreduce_time(b, true, Scheme::Default).to_bits());
    }
    out
}

/// A cold core on `core`'s (degraded) cluster with its binding.
fn cold_twin(core: &SessionCore) -> Arc<SessionCore> {
    Arc::new(SessionCore::new(
        core.cluster().clone(),
        core.comm().cores().to_vec(),
        core.config().clone(),
    ))
}

/// Per profiled schedule: (profiles shared with `before`, profiles built
/// anew, unique stages).
fn profile_provenance(before: &SessionCore, after: &SessionCore) -> Vec<(usize, usize, usize)> {
    PROFILED
        .iter()
        .map(|&key| {
            let new = after
                .stage_profiles(key, CommKey::Default)
                .expect("priced pair");
            let old = before.stage_profiles(key, CommKey::Default);
            let (mut shared, mut fresh) = (0, 0);
            for k in 0..new.len() {
                let Some(p) = new.get(k) else { continue };
                match old.as_ref().and_then(|o| o.get(k)) {
                    Some(q) if Arc::ptr_eq(p, q) => shared += 1,
                    _ => fresh += 1,
                }
            }
            (shared, fresh, new.len())
        })
        .collect()
}

#[test]
fn faults_rebuild_only_the_stage_profiles_they_reach() {
    let spec = IngestSpec {
        source: IngestSource::GpcNodes(64),
        layout: LayoutKind::BlockBunch,
        p: None,
        seed: Some(42),
        backend: BackendKind::Implicit,
        replace: false,
    };
    let live = Arc::new(build_core(&spec).unwrap());
    let warm = default_prices(&live);
    assert_eq!(default_prices(&cold_twin(&live)), warm);
    for (shared, fresh, stages) in profile_provenance(&live, &live) {
        assert_eq!((shared, fresh), (stages, 0), "every stage profiled once");
    }

    // Fault 1 rebuilds the fabric without an identity delta: every price
    // and profile is dropped and rebuilt on demand.
    let (after_first, report) = fault_core(&live, &cable_fault(7)).unwrap();
    let after_first = Arc::new(after_first);
    assert_eq!(report.price_stages_reused, 0, "{report:?}");
    assert!(PROFILED
        .iter()
        .all(|&k| after_first.stage_profiles(k, CommKey::Default).is_none()));
    let first = default_prices(&after_first);
    assert_ne!(first, warm, "the first fault must change some price");
    assert_eq!(default_prices(&cold_twin(&after_first)), first);

    // Fault 2 repairs the irregular fabric through the identity delta:
    // stages it does not reach keep their profile (the same `Arc`), the
    // others are routed again once, during the repair, for all three sizes.
    let (after_second, report) = fault_core(&after_first, &cable_fault(11)).unwrap();
    let after_second = Arc::new(after_second);
    assert!(report.price_stages_reused > 0, "{report:?}");
    assert!(report.price_stages_repriced > 0, "{report:?}");
    let provenance = profile_provenance(&after_first, &after_second);
    let n = PROFILE_SIZES.len();
    let shared: usize = provenance.iter().map(|p| p.0).sum();
    let fresh: usize = provenance.iter().map(|p| p.1).sum();
    assert_eq!(shared * n, report.price_stages_reused, "{provenance:?}");
    assert_eq!(fresh * n, report.price_stages_repriced, "{provenance:?}");
    for (shared, fresh, stages) in &provenance {
        assert_eq!(shared + fresh, *stages, "{provenance:?}");
    }
    let second = default_prices(&after_second);
    assert_eq!(default_prices(&cold_twin(&after_second)), second);
    // Answering built nothing more: the repair already priced every size.
    assert_eq!(profile_provenance(&after_first, &after_second), provenance);
}

/// The warm GPC core the tests below start from: 64 nodes, block-bunch.
fn gpc_spec() -> IngestSpec {
    IngestSpec {
        source: IngestSource::GpcNodes(64),
        layout: LayoutKind::BlockBunch,
        p: None,
        seed: Some(42),
        backend: BackendKind::Implicit,
        replace: false,
    }
}

#[test]
fn restored_prices_of_a_pair_priced_since_the_restore_are_repaired() {
    let live = Arc::new(build_core(&gpc_spec()).unwrap());
    answers(&live);
    let (live, _) = fault_core(&live, &cable_fault(7)).unwrap();
    let live = Arc::new(live);
    answers(&live);
    let restored = restore(&live);
    let restored_prices = restored.export_state().prices;
    let (ring, def) = (SchedKey::Flat(AllgatherAlg::Ring), CommKey::Default);
    let of_ring: Vec<u64> = restored_prices
        .iter()
        .filter(|((sk, ck, _), _)| (*sk, *ck) == (ring, def))
        .map(|((_, _, bytes), _)| *bytes)
        .collect();
    assert!(!of_ring.is_empty());
    assert!(restored.stage_profiles(ring, def).is_none());

    // Pricing the ring at a size no answer asks for builds its profiles.
    restored.handle().allgather_time(1 << 20, Scheme::Default);
    assert!(restored.stage_profiles(ring, def).is_some());

    // The identity-delta fault drops only the profile-less pairs' prices;
    // the ring's restored entries and its new one are repaired.
    let (degraded, report) = fault_core(&restored, &cable_fault(11)).unwrap();
    assert_eq!(
        report.price_entries_dropped,
        restored_prices.len() - of_ring.len(),
        "{report:?}"
    );
    assert_eq!(
        report.price_stages_repriced + report.price_stages_reused,
        of_ring.len() + 1,
        "one unique ring stage per entry: {report:?}"
    );
    let degraded = Arc::new(degraded);
    let mut h = degraded.handle();
    for bytes in of_ring {
        h.allgather_time(bytes, Scheme::Default);
    }
    assert_eq!(h.cache_stats().price_computed, 0, "{:?}", h.cache_stats());
    assert_eq!(answers(&degraded), answers(&cold_twin(&degraded)));
}

/// Every schedule key [`answers`] can compile.
fn sched_keys() -> Vec<SchedKey> {
    let mut keys = vec![
        SchedKey::Gather,
        SchedKey::GatherInit(Mapper::Hrstc),
        SchedKey::Bcast,
        SchedKey::AllreduceRd,
        SchedKey::AllreduceRabenseifner,
    ];
    for alg in [
        AllgatherAlg::RecursiveDoubling,
        AllgatherAlg::Ring,
        AllgatherAlg::Bruck,
    ] {
        keys.extend([SchedKey::Flat(alg), SchedKey::FlatInit(alg, Mapper::Hrstc)]);
    }
    for pattern in PATTERNS {
        if let PatternKind::Hier(inter, intra) = pattern {
            keys.extend([
                SchedKey::Hier(inter, intra, None),
                SchedKey::Hier(inter, intra, Some(Mapper::Hrstc)),
                SchedKey::HierInit(inter, intra, Mapper::Hrstc),
            ]);
        }
    }
    keys
}

#[test]
fn a_fault_with_every_rate_zero_changes_nothing() {
    let live = Arc::new(build_core(&gpc_spec()).unwrap());
    let warm = answers(&live);
    let zero = FaultSpec {
        seed: 7,
        link_fail: 0.0,
        switch_fail: 0.0,
        node_drain: 0.0,
        core_drain: 0.0,
    };
    let (same, report) = fault_core(&live, &zero).unwrap();
    assert_eq!(
        (
            report.ranks_migrated,
            report.mappings_dropped,
            report.comms_dropped,
            report.scheds_dropped,
            report.price_entries_dropped,
        ),
        (0, 0, 0, 0, 0),
        "{report:?}"
    );
    let same = Arc::new(same);
    let mut shared = 0;
    for key in sched_keys() {
        match (live.schedule(key), same.schedule(key)) {
            (Some(a), Some(b)) => {
                assert!(Arc::ptr_eq(&a, &b), "{key:?}");
                shared += 1;
            }
            (None, None) => {}
            (a, b) => panic!("{key:?}: {} before, {} after", a.is_some(), b.is_some()),
        }
    }
    assert!(shared > 0);

    let before = same.cache_stats();
    assert_eq!(answers(&same), warm);
    let st = same.cache_stats().since(before);
    assert_eq!(
        (
            st.mappings.misses,
            st.comms.misses,
            st.scheds.misses,
            st.prices.misses
        ),
        (0, 0, 0, 0),
        "{st:?}"
    );
}
