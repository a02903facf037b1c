//! Acceptance tests for [`Session::apply_faults`]: the keyed cache
//! invalidation is **exact**, and a faulted session is indistinguishable
//! from a cold session built directly on the degraded cluster.
//!
//! Two properties pin the invalidation from both sides:
//!
//! * *sound* — every timing priced after the fault is bit-identical to a
//!   cold [`Session::new`] on the degraded cluster with the migrated
//!   binding, so no stale entry survives;
//! * *minimal* — the entries the invalidation promises to keep are actually
//!   reused, observed through [`CacheStats`] hit deltas.
//!
//! The drained-host tests cover the satellite case the fat-tree
//! constructors cannot express: clusters whose nodes host *different*
//! numbers of live ranks, where every mapper must still emit a bijection
//! that matches the dense reference on the migrated binding.

mod dense_reference;

use dense_reference::DenseReference;
use proptest::prelude::*;
use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_core::{Mapper, PatternKind, ProbePoint, Scheme, Session, SessionConfig};
use tarr_faults::{FaultError, FaultRates, FaultSet};
use tarr_mapping::{is_permutation, InitialMapping, OrderFix};
use tarr_topo::{Cluster, CoreId};

const ALL_MAPPERS: [Mapper; 5] = [
    Mapper::Hrstc,
    Mapper::ScotchLike,
    Mapper::ScotchTuned,
    Mapper::Greedy,
    Mapper::MvapichCyclic,
];

/// The first seed whose random link-fault set applies cleanly (the rare
/// partitioning draw is a *correct* rejection, not what these tests probe).
fn surviving_link_faults(cluster: &Cluster, rate: f64) -> FaultSet {
    (0u64..64)
        .map(|s| FaultSet::random(cluster, &FaultRates::links(rate), 0xfau64 << 8 | s))
        .find(|set| set.apply(cluster).is_ok())
        .expect("some seed under 64 yields a connectivity-preserving fault set")
}

/// Price one probe set on a session; used to compare faulted vs cold.
fn probe_sweep(s: &mut Session) -> Vec<f64> {
    let hcfg = HierarchicalConfig {
        inter: InterAlg::Ring,
        intra: IntraPattern::Binomial,
    };
    let mut out = Vec::new();
    for msg in [512u64, 65536] {
        for scheme in [
            Scheme::Default,
            Scheme::hrstc(OrderFix::InitComm),
            Scheme::hrstc(OrderFix::EndShuffle),
            Scheme::scotch(OrderFix::InitComm),
            Scheme::Reordered {
                mapper: Mapper::MvapichCyclic,
                fix: OrderFix::InitComm,
            },
        ] {
            out.push(s.allgather_time(msg, scheme));
        }
    }
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InPlace)] {
        out.push(s.bcast_time(4096, scheme));
        for rabenseifner in [false, true] {
            out.push(s.allreduce_time(65536, rabenseifner, scheme));
        }
    }
    out.push(s.gather_time(4096, Scheme::hrstc(OrderFix::InitComm)));
    out.push(
        s.hierarchical_allgather_time(4096, hcfg, Scheme::Default)
            .unwrap_or(-1.0),
    );
    out.push(
        s.hierarchical_allgather_time(4096, hcfg, Scheme::hrstc(OrderFix::InitComm))
            .unwrap_or(-1.0),
    );
    out
}

/// Soundness at P = 512: after a link fault, every timing and every mapping
/// of the warm session is bit-identical to a cold session built directly on
/// the degraded cluster. No stale cache entry survives the invalidation.
#[test]
fn faulted_session_matches_cold_session_p512() {
    let base = Cluster::gpc(64);
    let set = surviving_link_faults(&base, 0.02);
    let degraded = set.apply(&base).unwrap();
    assert!(degraded.summary.cables_removed > 0);

    let cfg = SessionConfig::default();
    let mut warm =
        Session::from_layout(base.clone(), InitialMapping::BLOCK_BUNCH, 512, cfg.clone());
    probe_sweep(&mut warm); // populate every cache before the fault
    let report = warm.apply_faults(&set, &[]).unwrap();
    assert_eq!(report.ranks_migrated, 0, "link faults kill no cores");

    let mut cold = Session::new(degraded.cluster.clone(), warm.comm().cores().to_vec(), cfg);
    assert_eq!(probe_sweep(&mut warm), probe_sweep(&mut cold));
    for mapper in ALL_MAPPERS {
        for pattern in [PatternKind::Rd, PatternKind::Ring] {
            assert_eq!(
                warm.mapping(mapper, pattern).unwrap().mapping,
                cold.mapping(mapper, pattern).unwrap().mapping,
                "{mapper:?}/{pattern:?}"
            );
        }
    }
}

/// Minimality: the entries `apply_faults` promises to keep — size-only flat
/// schedules, the plain gather, the broadcast and both allreduce schedules,
/// everything MVAPICH-cyclic, default-order hierarchical phases — are
/// *reused* after a link-only fault (cache hits, zero misses), while a
/// topology-aware scheme recomputes from scratch.
#[test]
fn kept_entries_are_reused_after_link_fault() {
    let base = Cluster::gpc(64);
    let set = surviving_link_faults(&base, 0.02);
    let hcfg = HierarchicalConfig {
        inter: InterAlg::Ring,
        intra: IntraPattern::Binomial,
    };
    let mv = Scheme::Reordered {
        mapper: Mapper::MvapichCyclic,
        fix: OrderFix::InitComm,
    };

    let mut s = Session::from_layout(
        base,
        InitialMapping::BLOCK_BUNCH,
        512,
        SessionConfig::default(),
    );
    // Warm the keepable keys: Flat(Rd), Flat(Ring), Gather, Bcast,
    // AllreduceRd, AllreduceRabenseifner, the MVAPICH mapping + communicator
    // + FlatInit(Rd, MvapichCyclic), Hier(.., None).
    let keepable = |s: &mut Session| {
        s.allgather_time(512, Scheme::Default);
        s.allgather_time(65536, Scheme::Default);
        s.gather_time(4096, Scheme::Default);
        s.bcast_time(4096, Scheme::Default);
        s.allreduce_time(4096, false, Scheme::Default);
        s.allreduce_time(4096, true, Scheme::Default);
        s.allgather_time(512, mv);
        s.hierarchical_allgather_time(4096, hcfg, Scheme::Default)
            .unwrap();
    };
    keepable(&mut s);
    // And one droppable key: a topology-aware mapping + its schedule.
    s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm));

    let report = s.apply_faults(&set, &[]).unwrap();
    assert!(report.scheds_kept >= 8, "kept {}", report.scheds_kept);
    assert!(report.mappings_dropped >= 1);

    // Re-pricing the kept keys must be pure cache hits.
    let baseline = s.cache_stats();
    keepable(&mut s);
    let delta = s.cache_stats_since(baseline);
    assert_eq!(
        delta.sched_misses, 0,
        "kept schedules recompiled: {delta:?}"
    );
    assert_eq!(delta.mapping_misses, 0, "MVAPICH mapping recomputed");
    assert_eq!(delta.comm_misses, 0, "MVAPICH communicator rebuilt");
    assert!(delta.sched_hits >= 8);

    // The topology-aware scheme was invalidated: it must recompute on the
    // degraded oracle (mapping miss + schedule recompile).
    let baseline = s.cache_stats();
    s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm));
    let delta = s.cache_stats_since(baseline);
    assert_eq!(delta.mapping_misses, 1, "hrstc mapping not recomputed");
    assert_eq!(delta.sched_misses, 1, "initComm schedule not recompiled");
}

/// Drained hosts (satellite): two whole nodes plus one lone core drained
/// out of a P = 512 job leaves nodes hosting 0, 7 and 8 live ranks. The
/// oracle is patched in place, not rebuilt. Every mapper must still produce
/// a bijection equal to the dense reference on the migrated binding, and
/// the faulted session must match a cold session on the same (unchanged)
/// fabric with the migrated binding.
#[test]
fn drained_hosts_non_uniform_occupancy_p512() {
    let set = FaultSet {
        drained_nodes: vec![3, 17],
        drained_cores: vec![CoreId(40 * 8 + 5)],
        ..FaultSet::default()
    };
    let cluster = Cluster::gpc(68); // 544 cores: 32 spares for migration
    let mut s = Session::from_layout(
        cluster,
        InitialMapping::BLOCK_BUNCH,
        512,
        SessionConfig::default(),
    );
    let before = DenseReference::of(&s);

    let probes = [
        ProbePoint::allgather(512, Scheme::Default),
        ProbePoint::allgather(512, Scheme::hrstc(OrderFix::InitComm)),
    ];
    let report = s.apply_faults(&set, &probes).unwrap();
    assert_eq!(report.ranks_migrated, 17, "2 nodes x 8 + 1 lone core");
    assert!(!report.summary.fabric_rebuilt, "drain-only fault");
    assert_eq!(report.summary.cores_lost, 17);
    assert_eq!(report.dist_slots_patched, 17);
    // Probe pricing equals the dense reference, before and after.
    let after = DenseReference::of(&s);
    for o in &report.probes {
        let scheme = o.probe.scheme;
        assert_eq!(o.before, before.allgather_time(512, scheme), "{scheme:?}");
        assert_eq!(o.after, after.allgather_time(512, scheme), "{scheme:?}");
    }
    // Drained nodes host no ranks; the lone-core node hosts 7.
    let mut per_node = vec![0usize; 68];
    for &c in s.comm().cores() {
        per_node[c.0 as usize / 8] += 1;
    }
    assert_eq!(per_node[3], 0);
    assert_eq!(per_node[17], 0);
    assert_eq!(per_node[40], 7);
    assert_eq!(per_node.iter().sum::<usize>(), 512);

    // Every mapper still emits a bijection on the non-uniform survivor set,
    // equal to the dense reference on the migrated cores.
    for mapper in ALL_MAPPERS {
        for pattern in [PatternKind::Rd, PatternKind::Ring] {
            let m = s.mapping(mapper, pattern).unwrap().mapping.clone();
            assert!(is_permutation(&m), "{mapper:?}/{pattern:?}");
            after.assert_mapping(&mut s, mapper, pattern, "drained");
        }
    }

    // Soundness on the drain path too: bit-identical to a cold session on
    // the same cluster with the migrated binding.
    let mut cold = Session::new(
        s.cluster().clone(),
        s.comm().cores().to_vec(),
        SessionConfig::default(),
    );
    assert_eq!(probe_sweep(&mut s), probe_sweep(&mut cold));
}

/// The 4096-rank case: a heavier compound fault (link
/// losses plus a drained node) remaps cleanly, keeps a bijective heuristic
/// mapping, and still matches a cold session on the degraded cluster.
#[test]
fn compound_fault_at_p4096_matches_cold_session() {
    let base = Cluster::gpc(520); // 4160 cores: spare nodes for migration
    let mut set = surviving_link_faults(&base, 0.01);
    set.drained_nodes = vec![7];

    let mut warm = Session::from_layout(
        base.clone(),
        InitialMapping::CYCLIC_BUNCH,
        4096,
        SessionConfig::default(),
    );
    let probes = [
        ProbePoint::allgather(512, Scheme::Default),
        ProbePoint::allgather(512, Scheme::hrstc(OrderFix::InitComm)),
        ProbePoint::bcast(4096, Scheme::hrstc(OrderFix::InPlace)),
    ];
    // Warm both allreduce schedules so they ride through the fault.
    for rabenseifner in [false, true] {
        warm.allreduce_time(4096, rabenseifner, Scheme::Default);
    }
    let report = warm.apply_faults(&set, &probes).unwrap();
    assert_eq!(report.ranks_migrated, 8);
    assert!(report.summary.fabric_rebuilt);
    for o in &report.probes {
        assert!(o.after.is_finite() && o.after > 0.0, "{:?}", o.probe);
    }
    let m = warm
        .mapping(Mapper::Hrstc, PatternKind::Rd)
        .unwrap()
        .mapping
        .clone();
    assert!(is_permutation(&m));

    let degraded = set.apply(&base).unwrap();
    let mut cold = Session::new(
        degraded.cluster,
        warm.comm().cores().to_vec(),
        SessionConfig::default(),
    );
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InitComm)] {
        assert_eq!(
            warm.allgather_time(512, scheme),
            cold.allgather_time(512, scheme),
            "{scheme:?}"
        );
        assert_eq!(
            warm.bcast_time(4096, scheme),
            cold.bcast_time(4096, scheme),
            "bcast {scheme:?}"
        );
        for rabenseifner in [false, true] {
            assert_eq!(
                warm.allreduce_time(4096, rabenseifner, scheme),
                cold.allreduce_time(4096, rabenseifner, scheme),
                "allreduce rabenseifner={rabenseifner} {scheme:?}"
            );
        }
    }
    assert_eq!(
        m,
        cold.mapping(Mapper::Hrstc, PatternKind::Rd)
            .unwrap()
            .mapping
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-pipeline robustness: arbitrary seeded fault mixes against a live
    /// session either apply (finite probe timings, bijective remap) or fail
    /// with one of the documented typed errors — never a panic, and a
    /// rejected fault leaves the session pricing unchanged.
    #[test]
    fn random_faults_never_panic_full_pipeline(
        seed in any::<u64>(),
        // Rates in basis points (the vendored proptest has no f64 ranges).
        link_bp in 0u32..800,
        switch_bp in 0u32..300,
        node_bp in 0u32..1500,
        core_bp in 0u32..500,
    ) {
        let cluster = Cluster::gpc(32); // 256 cores, 128 ranks: headroom
        let rates = FaultRates {
            link_fail: link_bp as f64 / 10_000.0,
            switch_fail: switch_bp as f64 / 10_000.0,
            node_drain: node_bp as f64 / 10_000.0,
            core_drain: core_bp as f64 / 10_000.0,
        };
        let set = FaultSet::random(&cluster, &rates, seed);
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::CYCLIC_BUNCH,
            128,
            SessionConfig::default(),
        );
        let t0 = s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm));
        let probes = [
            ProbePoint::allgather(512, Scheme::hrstc(OrderFix::InitComm)),
            ProbePoint::bcast(4096, Scheme::Default),
        ];
        match s.apply_faults(&set, &probes) {
            Ok(report) => {
                for o in &report.probes {
                    prop_assert!(o.after.is_finite() && o.after > 0.0, "{:?}", o.probe);
                }
                let m = &s.mapping(Mapper::Hrstc, PatternKind::Rd).unwrap().mapping;
                prop_assert!(is_permutation(m));
            }
            Err(
                FaultError::PartitionedFabric { .. }
                | FaultError::InsufficientCores { .. }
                | FaultError::NoLiveCores,
            ) => {
                // Typed rejection: the session must be untouched and usable.
                prop_assert_eq!(
                    s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm)),
                    t0
                );
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

/// FNV-1a over a mapping's entries: a compact pin for large mappings.
fn mapping_hash(m: &[u32]) -> u64 {
    m.iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Post-fault hrstc remapping on the irregular oracle at P = 8192: for two
/// single-cable faults of `gpc(1024)` (seeds 0 and 4 fail one leaf–line and
/// one line–spine cable), the five flat-pattern mappings are pinned by
/// hash. The pins were recorded with the per-switch node-ring walk the
/// run-counted irregular classes replaced. Neither cable moves a node pair
/// to another BFS level class, so both faults pin the same hashes, and
/// they equal the fresh fat tree's mappings; every query still walks the
/// irregular class ladder.
#[test]
fn post_fault_hrstc_mappings_are_pinned_p8192() {
    const PATTERNS: [PatternKind; 5] = [
        PatternKind::Rd,
        PatternKind::Ring,
        PatternKind::Bruck,
        PatternKind::BinomialBcast,
        PatternKind::BinomialGather,
    ];
    const PINS: [u64; 5] = [
        0x2252_0d83_717d_7495,
        0x0526_1b9a_0977_4ff5,
        0x182c_58db_e7eb_e825,
        0x18ff_56c7_dc8a_cae5,
        0xe4b7_7b90_1583_57a1,
    ];
    let base = Cluster::gpc(1024);
    for seed in [0u64, 4] {
        let set = FaultSet::random(&base, &FaultRates::links(0.002), seed);
        let cables: u32 = set.failed_cables.iter().map(|&(_, _, k)| k).sum();
        assert_eq!(cables, 1, "seed {seed} must fail exactly one cable");
        let mut s = Session::from_layout(
            base.clone(),
            InitialMapping::BLOCK_BUNCH,
            8192,
            SessionConfig::default(),
        );
        let report = s.apply_faults(&set, &[]).unwrap();
        assert!(report.summary.fabric_rebuilt);
        assert!(s.cluster().fabric().as_irregular().is_some());
        let got: Vec<u64> = PATTERNS
            .iter()
            .map(|&pattern| {
                let m = &s.mapping(Mapper::Hrstc, pattern).unwrap().mapping;
                assert!(is_permutation(m), "{pattern:?}");
                mapping_hash(m)
            })
            .collect();
        assert_eq!(got, PINS, "seed {seed}");
    }
}
