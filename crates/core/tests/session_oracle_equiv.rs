//! Differential validation of the O(P) session path: a session on the
//! [`DistanceBackend::Implicit`] oracle must be **bit-identical** to the
//! dense-matrix reference session — same mappings, and timings equal under
//! exact `f64` equality — at every size the dense path can still reach.
//!
//! This extends the `oracle_equiv`/`bucket_equiv` pattern of `tarr-mapping`
//! (which proves the mappers agree) up through the whole `Session` stack:
//! mapping caches, reordered communicators, compiled schedules and the §V-B
//! order fixes.

use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_core::hier::HierMapper;
use tarr_core::{
    hierarchical_mapping, DistanceBackend, Mapper, PatternKind, Scheme, Session, SessionConfig,
};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_topo::{Cluster, DistanceConfig, DistanceMatrix, ImplicitDistance};

fn pair(nodes: usize, layout: InitialMapping) -> (Session, Session) {
    let cluster = Cluster::gpc(nodes);
    let p = cluster.total_cores();
    let mk = |backend| {
        let cfg = SessionConfig {
            backend,
            ..SessionConfig::default()
        };
        Session::from_layout(cluster.clone(), layout, p, cfg)
    };
    (mk(DistanceBackend::Dense), mk(DistanceBackend::Implicit))
}

const ALL_MAPPERS: [Mapper; 5] = [
    Mapper::Hrstc,
    Mapper::ScotchLike,
    Mapper::ScotchTuned,
    Mapper::Greedy,
    Mapper::MvapichCyclic,
];

const ALL_FIXES: [OrderFix; 3] = [OrderFix::InitComm, OrderFix::EndShuffle, OrderFix::InPlace];

/// Sweep both sessions through the flat allgather surface (RD and ring
/// regions) with the given mappers and assert exact equality everywhere.
fn assert_flat_equal(dense: &mut Session, implicit: &mut Session, mappers: &[Mapper], tag: &str) {
    // 256 B → RD (or Bruck when P is not a power of two); 64 KiB → ring.
    for msg in [256u64, 65536] {
        let a = dense.allgather_time(msg, Scheme::Default);
        let b = implicit.allgather_time(msg, Scheme::Default);
        assert_eq!(a, b, "{tag}: default, msg {msg}");
        for &mapper in mappers {
            for fix in ALL_FIXES {
                let scheme = Scheme::Reordered { mapper, fix };
                let a = dense.allgather_time(msg, scheme);
                let b = implicit.allgather_time(msg, scheme);
                assert_eq!(a, b, "{tag}: {mapper:?}/{fix:?}, msg {msg}");
            }
        }
    }
    // Every mapping the sweep cached must be bit-identical.
    for &mapper in mappers {
        for pattern in [PatternKind::Rd, PatternKind::Ring] {
            let a = dense.mapping(mapper, pattern).unwrap().mapping.clone();
            let b = implicit.mapping(mapper, pattern).unwrap().mapping.clone();
            assert_eq!(a, b, "{tag}: mapping {mapper:?}/{pattern:?}");
        }
    }
}

#[test]
fn flat_sessions_agree_p32_all_mappers() {
    for layout in InitialMapping::ALL {
        let (mut dense, mut implicit) = pair(4, layout);
        assert_flat_equal(
            &mut dense,
            &mut implicit,
            &ALL_MAPPERS,
            &format!("{layout:?}"),
        );
    }
}

#[test]
fn flat_sessions_agree_p512_all_mappers() {
    let (mut dense, mut implicit) = pair(64, InitialMapping::CYCLIC_BUNCH);
    assert_flat_equal(&mut dense, &mut implicit, &ALL_MAPPERS, "p512");
}

#[test]
fn flat_sessions_agree_p4096() {
    // The largest size the dense reference comfortably reaches. The heavy
    // graph-based baselines are exercised at 32/512; at 4096 the scaled
    // (Hrstc) path and the closed-form reorder cover the dispatch seams.
    let (mut dense, mut implicit) = pair(512, InitialMapping::CYCLIC_BUNCH);
    assert_flat_equal(
        &mut dense,
        &mut implicit,
        &[Mapper::Hrstc, Mapper::MvapichCyclic],
        "p4096",
    );
}

#[test]
fn bruck_region_agrees_non_power_of_two() {
    // 24 ranks: select_allgather picks Bruck below the ring threshold.
    let (mut dense, mut implicit) = pair(3, InitialMapping::CYCLIC_BUNCH);
    for msg in [64u64, 512] {
        for scheme in [
            Scheme::Default,
            Scheme::hrstc(OrderFix::InitComm),
            Scheme::hrstc(OrderFix::EndShuffle),
        ] {
            let a = dense.allgather_time(msg, scheme);
            let b = implicit.allgather_time(msg, scheme);
            assert_eq!(a, b, "bruck msg {msg} {scheme:?}");
        }
    }
    let a = dense
        .mapping(Mapper::Hrstc, PatternKind::Bruck)
        .unwrap()
        .mapping
        .clone();
    let b = implicit
        .mapping(Mapper::Hrstc, PatternKind::Bruck)
        .unwrap()
        .mapping
        .clone();
    assert_eq!(a, b);
}

#[test]
fn hierarchical_sessions_agree_all_configs() {
    // Node-contiguous layout (hier requires it); 8 nodes = 64 ranks, and
    // power-of-two leader count so RD inter applies.
    for nodes in [8usize, 64] {
        let (mut dense, mut implicit) = pair(nodes, InitialMapping::BLOCK_SCATTER);
        for inter in [InterAlg::RecursiveDoubling, InterAlg::Ring] {
            for intra in [IntraPattern::Linear, IntraPattern::Binomial] {
                let hcfg = HierarchicalConfig { inter, intra };
                for scheme in [
                    Scheme::Default,
                    Scheme::hrstc(OrderFix::InitComm),
                    Scheme::hrstc(OrderFix::EndShuffle),
                    Scheme::scotch(OrderFix::InitComm),
                ] {
                    let a = dense.hierarchical_allgather_time(4096, hcfg, scheme);
                    let b = implicit.hierarchical_allgather_time(4096, hcfg, scheme);
                    assert_eq!(a, b, "{nodes} nodes, {inter:?}/{intra:?} {scheme:?}");
                }
            }
        }
    }
}

#[test]
fn hierarchical_mapping_agrees_across_backends() {
    // Direct hier-mapper equivalence at the three paper sizes (the session
    // tests above only reach it through the cache).
    for nodes in [4usize, 64, 512] {
        let cluster = Cluster::gpc(nodes);
        let p = cluster.total_cores();
        let cores = InitialMapping::BLOCK_BUNCH.layout(&cluster, p);
        let dcfg = DistanceConfig::default();
        let dense = DistanceMatrix::build(&cluster, &cores, &dcfg);
        let implicit = ImplicitDistance::build(&cluster, &cores, &dcfg);
        let cpn = cluster.cores_per_node() as u32;
        let groups: Vec<(u32, u32)> = (0..nodes as u32).map(|n| (n * cpn, cpn)).collect();
        for inter in [InterAlg::RecursiveDoubling, InterAlg::Ring] {
            for intra in [IntraPattern::Linear, IntraPattern::Binomial] {
                for hm in [HierMapper::Heuristic, HierMapper::HeuristicBgmhIntra] {
                    let a = hierarchical_mapping(&dense, &groups, inter, intra, hm, 7);
                    let b = hierarchical_mapping(&implicit, &groups, inter, intra, hm, 7);
                    assert_eq!(a, b, "{nodes} nodes {inter:?}/{intra:?}/{hm:?}");
                }
            }
        }
    }
}

#[test]
fn sized_gather_bcast_allreduce_agree() {
    let (mut dense, mut implicit) = pair(8, InitialMapping::CYCLIC_SCATTER);
    let sizes: Vec<u64> = (0..64u64)
        .map(|r| if r % 8 == 0 { 65536 } else { 64 })
        .collect();
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InPlace)] {
        assert_eq!(
            dense.allgatherv_time(&sizes, scheme),
            implicit.allgatherv_time(&sizes, scheme),
            "allgatherv {scheme:?}"
        );
        assert_eq!(
            dense.bcast_time(4096, scheme),
            implicit.bcast_time(4096, scheme),
            "bcast {scheme:?}"
        );
        assert_eq!(
            dense.allreduce_time(1 << 20, true, scheme),
            implicit.allreduce_time(1 << 20, true, scheme),
            "allreduce {scheme:?}"
        );
    }
    for fix in [OrderFix::InitComm, OrderFix::EndShuffle, OrderFix::InPlace] {
        let scheme = Scheme::hrstc(fix);
        assert_eq!(
            dense.gather_time(8192, scheme),
            implicit.gather_time(8192, scheme),
            "gather {fix:?}"
        );
    }
}

#[test]
fn verification_passes_on_implicit_backend() {
    let cluster = Cluster::gpc(4);
    let mut s = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_SCATTER,
        32,
        SessionConfig::implicit(),
    );
    for msg in [64u64, 4096] {
        s.verify_allgather(msg, Scheme::Default).unwrap();
        for fix in [OrderFix::InitComm, OrderFix::EndShuffle] {
            s.verify_allgather(msg, Scheme::hrstc(fix)).unwrap();
        }
    }
    s.verify_bcast(Scheme::hrstc(OrderFix::InPlace)).unwrap();
    s.verify_gather(Scheme::hrstc(OrderFix::InitComm)).unwrap();
}
