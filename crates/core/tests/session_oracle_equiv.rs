//! Differential validation of the O(P) session path: every `Session`
//! mapping must be **bit-identical** to the linear-scan heuristics (and the
//! graph-based baselines) run on the dense [`DistanceMatrix`] reference,
//! and every `*_time` must equal, under exact `f64` equality, the
//! materialized schedule priced over the reference-reordered communicator
//! — at every size the dense reference can still reach.
//!
//! This extends the `oracle_equiv`/`bucket_equiv` pattern of `tarr-mapping`
//! (which proves the mappers agree) up through the whole `Session` stack:
//! mapping caches, reordered communicators, compiled schedules and the §V-B
//! order fixes.

mod dense_reference;

use dense_reference::DenseReference;
use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_core::hier::HierMapper;
use tarr_core::{hierarchical_mapping, Mapper, PatternKind, Scheme, Session, SessionConfig};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_topo::{Cluster, DistanceConfig, DistanceMatrix, ImplicitDistance};

/// A session over every core of `nodes` GPC nodes, and its dense reference.
fn pair(nodes: usize, layout: InitialMapping) -> (Session, DenseReference) {
    let cluster = Cluster::gpc(nodes);
    let p = cluster.total_cores();
    let s = Session::from_layout(cluster, layout, p, SessionConfig::default());
    let r = DenseReference::of(&s);
    (s, r)
}

const ALL_MAPPERS: [Mapper; 5] = [
    Mapper::Hrstc,
    Mapper::ScotchLike,
    Mapper::ScotchTuned,
    Mapper::Greedy,
    Mapper::MvapichCyclic,
];

const ALL_FIXES: [OrderFix; 3] = [OrderFix::InitComm, OrderFix::EndShuffle, OrderFix::InPlace];

/// Sweep the session through the flat allgather surface (RD and ring
/// regions) with the given mappers and assert exact equality with the
/// reference everywhere.
fn assert_flat_equal(s: &mut Session, r: &DenseReference, mappers: &[Mapper], tag: &str) {
    // 256 B → RD (or Bruck when P is not a power of two); 64 KiB → ring.
    for msg in [256u64, 65536] {
        let a = s.allgather_time(msg, Scheme::Default);
        assert_eq!(
            a,
            r.allgather_time(msg, Scheme::Default),
            "{tag}: default, msg {msg}"
        );
        for &mapper in mappers {
            for fix in ALL_FIXES {
                let scheme = Scheme::Reordered { mapper, fix };
                let a = s.allgather_time(msg, scheme);
                let b = r.allgather_time(msg, scheme);
                assert_eq!(a, b, "{tag}: {mapper:?}/{fix:?}, msg {msg}");
            }
        }
    }
    // Every mapping the sweep cached must be bit-identical.
    for &mapper in mappers {
        for pattern in [PatternKind::Rd, PatternKind::Ring] {
            r.assert_mapping(s, mapper, pattern, tag);
        }
    }
}

#[test]
fn flat_sessions_agree_p32_all_mappers() {
    for layout in InitialMapping::ALL {
        let (mut s, r) = pair(4, layout);
        assert_flat_equal(&mut s, &r, &ALL_MAPPERS, &format!("{layout:?}"));
    }
}

#[test]
fn flat_sessions_agree_p512_all_mappers() {
    let (mut s, r) = pair(64, InitialMapping::CYCLIC_BUNCH);
    assert_flat_equal(&mut s, &r, &ALL_MAPPERS, "p512");
}

#[test]
fn flat_sessions_agree_p4096() {
    // The largest size the dense reference comfortably reaches. The heavy
    // graph-based baselines are exercised at 32/512; at 4096 the scaled
    // (Hrstc) path and the closed-form reorder cover the dispatch seams.
    let (mut s, r) = pair(512, InitialMapping::CYCLIC_BUNCH);
    assert_flat_equal(&mut s, &r, &[Mapper::Hrstc, Mapper::MvapichCyclic], "p4096");
}

#[test]
fn bruck_region_agrees_non_power_of_two() {
    // 24 ranks: select_allgather picks Bruck below the ring threshold.
    let (mut s, r) = pair(3, InitialMapping::CYCLIC_BUNCH);
    for msg in [64u64, 512] {
        for scheme in [
            Scheme::Default,
            Scheme::hrstc(OrderFix::InitComm),
            Scheme::hrstc(OrderFix::EndShuffle),
        ] {
            let a = s.allgather_time(msg, scheme);
            assert_eq!(
                a,
                r.allgather_time(msg, scheme),
                "bruck msg {msg} {scheme:?}"
            );
        }
    }
    r.assert_mapping(&mut s, Mapper::Hrstc, PatternKind::Bruck, "bruck");
}

#[test]
fn hierarchical_sessions_agree_all_configs() {
    // Node-contiguous layout (hier requires it); 8 nodes = 64 ranks, and
    // power-of-two leader count so RD inter applies.
    for nodes in [8usize, 64] {
        let (mut s, r) = pair(nodes, InitialMapping::BLOCK_SCATTER);
        for inter in [InterAlg::RecursiveDoubling, InterAlg::Ring] {
            for intra in [IntraPattern::Linear, IntraPattern::Binomial] {
                let hcfg = HierarchicalConfig { inter, intra };
                for scheme in [
                    Scheme::Default,
                    Scheme::hrstc(OrderFix::InitComm),
                    Scheme::hrstc(OrderFix::EndShuffle),
                    Scheme::scotch(OrderFix::InitComm),
                ] {
                    let a = s.hierarchical_allgather_time(4096, hcfg, scheme);
                    let b = r.hierarchical_allgather_time(4096, hcfg, scheme);
                    assert_eq!(a, b, "{nodes} nodes, {inter:?}/{intra:?} {scheme:?}");
                }
                for mapper in [Mapper::Hrstc, Mapper::ScotchLike] {
                    let tag = format!("{nodes} nodes");
                    r.assert_mapping(&mut s, mapper, PatternKind::Hier(inter, intra), &tag);
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
    let (mut s, r) = pair(8, InitialMapping::CYCLIC_SCATTER);
    let sizes: Vec<u64> = (0..64u64)
        .map(|r| if r % 8 == 0 { 65536 } else { 64 })
        .collect();
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InPlace)] {
        assert_eq!(
            s.allgatherv_time(&sizes, scheme),
            r.allgatherv_time(&sizes, scheme),
            "allgatherv {scheme:?}"
        );
        assert_eq!(
            s.bcast_time(4096, scheme),
            r.bcast_time(4096, scheme),
            "bcast {scheme:?}"
        );
        for rabenseifner in [false, true] {
            assert_eq!(
                s.allreduce_time(1 << 20, rabenseifner, scheme),
                r.allreduce_time(1 << 20, rabenseifner, scheme),
                "allreduce rabenseifner={rabenseifner} {scheme:?}"
            );
        }
    }
    for fix in ALL_FIXES {
        let scheme = Scheme::hrstc(fix);
        assert_eq!(
            s.gather_time(8192, scheme),
            r.gather_time(8192, scheme),
            "gather {fix:?}"
        );
    }
    for pattern in [
        PatternKind::BinomialBcast,
        PatternKind::BinomialGather,
        PatternKind::Rd,
        PatternKind::Ring,
    ] {
        r.assert_mapping(&mut s, Mapper::Hrstc, pattern, "sized");
    }
}

#[test]
fn verification_passes_on_implicit_backend() {
    let cluster = Cluster::gpc(4);
    let mut s = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_SCATTER,
        32,
        SessionConfig::default(),
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
