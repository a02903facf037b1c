//! Differential validation of one shared [`SessionCore`]: any number of
//! [`Session`] handles on it — a second handle on a core another handle
//! warmed, N threads hammering one cold core concurrently, a handle on a
//! core minted by a fault — must be **bit-identical**, under exact `f64`
//! equality, to a reference [`Session`] on its own fresh core driven by a
//! single thread. The core must compute each unique artifact once however
//! many handles ask, and the coalesce counters must prove that concurrent
//! identical requests actually shared computes rather than racing past each
//! other.

use std::sync::{Arc, Barrier};
use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_core::{Mapper, ProbePoint, Scheme, Session, SessionConfig, SessionCore};
use tarr_faults::{FaultRates, FaultSet};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_topo::Cluster;

const MAPPERS: [Mapper; 5] = [
    Mapper::Hrstc,
    Mapper::ScotchLike,
    Mapper::ScotchTuned,
    Mapper::Greedy,
    Mapper::MvapichCyclic,
];

const FIXES: [OrderFix; 3] = [OrderFix::InitComm, OrderFix::EndShuffle, OrderFix::InPlace];

const HCFG: HierarchicalConfig = HierarchicalConfig {
    inter: InterAlg::RecursiveDoubling,
    intra: IntraPattern::Binomial,
};

/// The mixed workload every test runs: every collective surface of the
/// session, across mappers, fixes and both allgather algorithm regions.
/// Returns the result vector in request order (NaN encodes "unsupported",
/// which must agree on both sides too).
fn run_workload(s: &mut Session) -> Vec<f64> {
    let mut out = Vec::new();
    for msg in [256u64, 65536] {
        out.push(s.allgather_time(msg, Scheme::Default));
        for mapper in MAPPERS {
            for fix in FIXES {
                out.push(s.allgather_time(msg, Scheme::Reordered { mapper, fix }));
            }
        }
        out.push(
            s.hierarchical_allgather_time(msg, HCFG, Scheme::Default)
                .unwrap_or(f64::NAN),
        );
        out.push(
            s.hierarchical_allgather_time(msg, HCFG, Scheme::hrstc(OrderFix::InitComm))
                .unwrap_or(f64::NAN),
        );
        out.push(s.gather_time(msg, Scheme::Default));
        out.push(s.gather_time(msg, Scheme::hrstc(OrderFix::EndShuffle)));
        out.push(s.bcast_time(msg, Scheme::scotch(OrderFix::InitComm)));
        out.push(s.allreduce_time(msg, true, Scheme::hrstc(OrderFix::InPlace)));
    }
    let sizes: Vec<u64> = (0..s.size() as u64).map(|r| 64 + (r % 7) * 128).collect();
    out.push(s.allgatherv_time(&sizes, Scheme::Default));
    out.push(s.allgatherv_time(&sizes, Scheme::hrstc(OrderFix::InPlace)));
    out
}

fn assert_bitwise_eq(reference: &[f64], shared: &[f64], tag: &str) {
    assert_eq!(reference.len(), shared.len(), "{tag}: result count");
    for (i, (a, b)) in reference.iter().zip(shared.iter()).enumerate() {
        assert!(
            (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits(),
            "{tag}: request {i} diverged: reference {a:?} vs shared {b:?}"
        );
    }
}

/// A handle on a core built with `SessionCore::from_layout` agrees with a
/// reference session on its own fresh core, all four initial layouts:
/// every collective result bit-identical, including the `None`
/// (unsupported) cases.
#[test]
fn handle_on_a_fresh_core_matches_reference_session() {
    for layout in InitialMapping::ALL {
        let cluster = Cluster::gpc(4);
        let p = cluster.total_cores();
        let cfg = SessionConfig::default();
        let mut reference = Session::from_layout(cluster.clone(), layout, p, cfg.clone());
        let core = Arc::new(SessionCore::from_layout(cluster, layout, p, cfg));
        let mut handle = core.handle();
        let a = run_workload(&mut reference);
        let b = run_workload(&mut handle);
        assert_bitwise_eq(&a, &b, layout.name());
        // The handle saw real cache traffic and the core computed each
        // unique artifact exactly once (the workload revisits keys).
        let stats = core.cache_stats();
        assert!(stats.hits() > 0, "warm revisits must hit: {stats:?}");
        let reference_stats = reference.cache_stats();
        assert_eq!(
            stats.mappings.misses, reference_stats.mapping_misses,
            "same unique mapping computes as the reference"
        );
    }
}

/// A second handle on a core another handle warmed reads every artifact
/// the first one computed: re-running the workload recomputes nothing and
/// changes no result.
#[test]
fn second_handle_reuses_the_warm_core() {
    let cluster = Cluster::gpc(4);
    let p = cluster.total_cores();
    let mut first = Session::from_layout(
        cluster,
        InitialMapping::BLOCK_BUNCH,
        p,
        SessionConfig::default(),
    );
    let expected = run_workload(&mut first);
    let core = first.core().clone();
    let warm = core.cache_stats();
    let mut second = core.handle();
    let replay = run_workload(&mut second);
    assert_bitwise_eq(&expected, &replay, "warm replay");
    let stats = core.cache_stats().since(warm);
    assert_eq!(stats.mappings.misses, 0, "mappings were shared: {stats:?}");
    assert_eq!(stats.comms.misses, 0, "comms were shared: {stats:?}");
    assert_eq!(stats.scheds.misses, 0, "schedules were shared: {stats:?}");
    assert_eq!(stats.prices.misses, 0, "prices were shared: {stats:?}");
    let h = second.cache_stats();
    assert_eq!(
        (
            h.mapping_misses,
            h.comm_misses,
            h.sched_misses,
            h.price_computed
        ),
        (0, 0, 0, 0),
        "the second handle computed nothing: {h:?}"
    );
}

/// N threads hammer one shared core with the same overlapping workload from
/// a barrier start. Every thread's every result must be bit-identical to the
/// single-threaded reference, the core must have computed each unique
/// artifact exactly once (misses equal the reference session's), and across
/// retry rounds the coalesce counters must show at least one lookup that
/// blocked on another thread's in-flight compute.
#[test]
fn concurrent_hammering_is_bit_identical_and_coalesces() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 20;

    let cluster = Cluster::gpc(4);
    let p = cluster.total_cores();
    let mut reference = Session::from_layout(
        cluster.clone(),
        InitialMapping::BLOCK_BUNCH,
        p,
        SessionConfig::default(),
    );
    let expected = run_workload(&mut reference);
    let reference_stats = reference.cache_stats();

    let mut saw_coalesce = false;
    for round in 0..ROUNDS {
        let core = Arc::new(SessionCore::from_layout(
            cluster.clone(),
            InitialMapping::BLOCK_BUNCH,
            p,
            SessionConfig::default(),
        ));
        let barrier = Barrier::new(THREADS);
        let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let core = core.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut h = core.handle();
                        barrier.wait();
                        let r = run_workload(&mut h);
                        (r, h.coalesced())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (r, _)) in results.iter().enumerate() {
            assert_bitwise_eq(&expected, r, &format!("round {round}, thread {i}"));
        }
        let stats = core.cache_stats();
        // Compute-once across all 8 threads: the shared core ran exactly as
        // many mapping computes as the single-threaded reference did.
        assert_eq!(
            stats.mappings.misses, reference_stats.mapping_misses,
            "round {round}: one mapping compute per unique key: {stats:?}"
        );
        assert_eq!(
            stats.scheds.misses, reference_stats.sched_misses,
            "round {round}: one compile per unique schedule: {stats:?}"
        );
        if stats.coalesced() > 0 {
            assert!(
                results.iter().map(|(_, c)| c).sum::<u64>() > 0,
                "core counted coalesces the handles did not see"
            );
            saw_coalesce = true;
            break;
        }
    }
    assert!(
        saw_coalesce,
        "no lookup coalesced onto an in-flight compute in {ROUNDS} barrier-started rounds"
    );
}

/// A fault applied to a shared core is functional: `SessionCore::apply_faults`
/// leaves the old core untouched and mints a new one. A handle on the new
/// core must agree with a reference session that applied the same fault to
/// itself (`Session::apply_faults`): identical post-fault collective
/// results and probe timings, identical damage accounting — and the
/// pre-fault core still prices the pre-fault topology.
#[test]
fn core_fault_matches_reference_session_fault() {
    let cluster = Cluster::gpc(4);
    let p = cluster.total_cores();
    // Find a fault set that applies (no partition).
    let set = (0..50)
        .map(|s| FaultSet::random(&cluster, &FaultRates::links(0.05), 0xc0a1u64 << 8 | s))
        .find(|set| set.apply(&cluster).is_ok())
        .expect("a survivable link-fault set exists");

    let probes = [
        ProbePoint::allgather(512, Scheme::Default),
        ProbePoint::allgather(512, Scheme::hrstc(OrderFix::InitComm)),
        ProbePoint::bcast(4096, Scheme::Default),
    ];
    let price_probes = |s: &mut Session| {
        vec![
            s.allgather_time(512, Scheme::Default),
            s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm)),
            s.bcast_time(4096, Scheme::Default),
        ]
    };

    // Reference: warm, fault in place, re-run.
    let mut reference = Session::from_layout(
        cluster.clone(),
        InitialMapping::BLOCK_BUNCH,
        p,
        SessionConfig::default(),
    );
    let pre = run_workload(&mut reference);
    let reference_report = reference.apply_faults(&set, &probes).unwrap();
    let post = run_workload(&mut reference);

    // Shared: warm via a handle, fault functionally, re-run on the new core.
    let core = Arc::new(SessionCore::from_layout(
        cluster,
        InitialMapping::BLOCK_BUNCH,
        p,
        SessionConfig::default(),
    ));
    let mut h = core.handle();
    let pre_shared = run_workload(&mut h);
    assert_bitwise_eq(&pre, &pre_shared, "pre-fault");
    let (degraded, shared_report) = core.apply_faults(&set).unwrap();
    let degraded = Arc::new(degraded);
    let mut h2 = degraded.handle();
    let post_shared = run_workload(&mut h2);
    assert_bitwise_eq(&post, &post_shared, "post-fault");

    // Probe outcomes agree exactly with prices on the old and new cores.
    let before: Vec<f64> = reference_report.probes.iter().map(|o| o.before).collect();
    let after: Vec<f64> = reference_report.probes.iter().map(|o| o.after).collect();
    assert_bitwise_eq(&before, &price_probes(&mut core.handle()), "probe before");
    assert_bitwise_eq(&after, &price_probes(&mut degraded.handle()), "probe after");
    assert!(shared_report.probes.is_empty());
    assert_eq!(
        reference_report.ranks_migrated,
        shared_report.ranks_migrated
    );
    assert_eq!(reference_report.summary, shared_report.summary);
    assert_eq!(
        (
            reference_report.mappings_dropped,
            reference_report.comms_dropped,
            reference_report.scheds_dropped,
            reference_report.scheds_kept
        ),
        (
            shared_report.mappings_dropped,
            shared_report.comms_dropped,
            shared_report.scheds_dropped,
            shared_report.scheds_kept
        )
    );

    // The old core is untouched: it still prices the pre-fault topology.
    let mut h3 = core.handle();
    let pre_again = run_workload(&mut h3);
    assert_bitwise_eq(&pre, &pre_again, "old core after functional fault");
}
