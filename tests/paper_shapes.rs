//! Regression tests pinning the *shapes* of the paper's results at a reduced
//! scale (512 processes): who wins, roughly by what factor, and where the
//! crossovers fall. These are the claims EXPERIMENTS.md records; if a model
//! change breaks one of them, the reproduction has drifted.

use tarr::collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr::core::{Scheme, Session, SessionConfig};
use tarr::mapping::{InitialMapping, OrderFix};
use tarr::topo::Cluster;
use tarr::workloads::{percent_improvement, AppConfig};

const PROCS: usize = 512;

fn session(layout: InitialMapping) -> Session {
    Session::from_layout(
        Cluster::gpc(PROCS / 8),
        layout,
        PROCS,
        SessionConfig::default(),
    )
}

/// Fig. 3(a): block-bunch — RDMH gains rise with message size below the
/// 1 KiB switch; the ring region shows no change (the layout is already
/// ideal) and, crucially, **no degradation** (the paper's goal 2).
#[test]
fn fig3a_block_bunch_shape() {
    let mut s = session(InitialMapping::BLOCK_BUNCH);
    let imp = |s: &mut Session, m: u64| {
        let b = s.allgather_time(m, Scheme::Default);
        percent_improvement(b, s.allgather_time(m, Scheme::hrstc(OrderFix::InitComm)))
    };
    let small = imp(&mut s, 16);
    let mid = imp(&mut s, 512);
    assert!(mid > small, "gain must rise with size in the RD region");
    assert!(mid > 50.0, "large RD-region gains, got {mid:.1}%");
    for m in [2048u64, 65536, 262144] {
        let v = imp(&mut s, m);
        assert!(
            v.abs() < 1.0,
            "ring region must be ~0% on block-bunch, got {v:.1}% at {m}"
        );
    }
}

/// Fig. 3(b): block-scatter — the ring region gains a modest amount (the
/// intra-node scatter hurts the ring).
#[test]
fn fig3b_block_scatter_ring_gains() {
    let mut s = session(InitialMapping::BLOCK_SCATTER);
    for m in [4096u64, 65536] {
        let b = s.allgather_time(m, Scheme::Default);
        let v = percent_improvement(b, s.allgather_time(m, Scheme::hrstc(OrderFix::InitComm)));
        assert!(
            (5.0..70.0).contains(&v),
            "expected modest ring gains, got {v:.1}% at {m}"
        );
    }
}

/// Fig. 3(c)/(d): cyclic layouts — big ring-region gains (paper: up to 78%),
/// and *smaller* RD-region gains than block-bunch (cyclic is RD-friendlier,
/// the paper's observation that "a poor initial mapping for one algorithm
/// can be relatively better for another").
#[test]
fn fig3cd_cyclic_shape() {
    let mut cyc = session(InitialMapping::CYCLIC_BUNCH);
    let b = cyc.allgather_time(262144, Scheme::Default);
    let ring_gain = percent_improvement(
        b,
        cyc.allgather_time(262144, Scheme::hrstc(OrderFix::InitComm)),
    );
    assert!(
        ring_gain > 60.0,
        "cyclic ring gains must be large, got {ring_gain:.1}%"
    );

    let rd_gain_cyclic = {
        let b = cyc.allgather_time(512, Scheme::Default);
        percent_improvement(
            b,
            cyc.allgather_time(512, Scheme::hrstc(OrderFix::InitComm)),
        )
    };
    let mut blk = session(InitialMapping::BLOCK_BUNCH);
    let rd_gain_block = {
        let b = blk.allgather_time(512, Scheme::Default);
        percent_improvement(
            b,
            blk.allgather_time(512, Scheme::hrstc(OrderFix::InitComm)),
        )
    };
    assert!(
        rd_gain_cyclic < rd_gain_block,
        "cyclic starts closer to RD-ideal: {rd_gain_cyclic:.1}% vs {rd_gain_block:.1}%"
    );
}

/// initComm outperforms endShfl (the paper's microbenchmark conclusion that
/// led it to use initComm at application level).
#[test]
fn initcomm_beats_endshfl_in_rd_region() {
    let mut s = session(InitialMapping::BLOCK_BUNCH);
    for m in [64u64, 512] {
        let ic = s.allgather_time(m, Scheme::hrstc(OrderFix::InitComm));
        let es = s.allgather_time(m, Scheme::hrstc(OrderFix::EndShuffle));
        assert!(ic <= es, "initComm {ic} must beat endShfl {es} at {m} B");
    }
}

/// The heuristics beat the Scotch baseline everywhere the paper compares
/// them, and Scotch degrades the block-bunch ring (its headline failure).
#[test]
fn heuristics_dominate_scotch() {
    for layout in InitialMapping::ALL {
        let mut s = session(layout);
        for m in [512u64, 65536] {
            let h = s.allgather_time(m, Scheme::hrstc(OrderFix::InitComm));
            let sc = s.allgather_time(m, Scheme::scotch(OrderFix::InitComm));
            assert!(
                h <= sc * 1.0001,
                "{} at {m} B: hrstc {h} vs scotch {sc}",
                layout.name()
            );
        }
    }
    let mut s = session(InitialMapping::BLOCK_BUNCH);
    let b = s.allgather_time(65536, Scheme::Default);
    let sc = s.allgather_time(65536, Scheme::scotch(OrderFix::InitComm));
    assert!(sc > b, "Scotch must degrade the block-bunch ring");
}

/// Fig. 4(b): hierarchical non-linear on block-scatter gains in the ring
/// regime (intra-node phases are repaired); Fig. 4(a): block-bunch shows
/// little movement there.
#[test]
fn fig4_hierarchical_shape() {
    let hcfg = HierarchicalConfig {
        intra: IntraPattern::Binomial,
        inter: InterAlg::Ring,
    };
    let mut scat = session(InitialMapping::BLOCK_SCATTER);
    let b = scat
        .hierarchical_allgather_time(16384, hcfg, Scheme::Default)
        .unwrap();
    let r = scat
        .hierarchical_allgather_time(16384, hcfg, Scheme::hrstc(OrderFix::InitComm))
        .unwrap();
    let gain = percent_improvement(b, r);
    assert!(gain > 15.0, "block-scatter NL gains, got {gain:.1}%");

    let mut bunch = session(InitialMapping::BLOCK_BUNCH);
    let b = bunch
        .hierarchical_allgather_time(16384, hcfg, Scheme::Default)
        .unwrap();
    let r = bunch
        .hierarchical_allgather_time(16384, hcfg, Scheme::hrstc(OrderFix::InitComm))
        .unwrap();
    let drift = percent_improvement(b, r);
    assert!(
        drift.abs() < 10.0,
        "block-bunch NL should barely move, got {drift:.1}%"
    );
}

/// Fig. 4(c)/(d): with linear intra phases there is no intra-node structure
/// to exploit; the ring regime shows no improvement.
#[test]
fn fig4_linear_intra_no_ring_gains() {
    let hcfg = HierarchicalConfig {
        intra: IntraPattern::Linear,
        inter: InterAlg::Ring,
    };
    for layout in [InitialMapping::BLOCK_BUNCH, InitialMapping::BLOCK_SCATTER] {
        let mut s = session(layout);
        let b = s
            .hierarchical_allgather_time(65536, hcfg, Scheme::Default)
            .unwrap();
        let r = s
            .hierarchical_allgather_time(65536, hcfg, Scheme::hrstc(OrderFix::InitComm))
            .unwrap();
        let v = percent_improvement(b, r);
        assert!(
            v < 5.0,
            "{}: linear intra ring gains should vanish, got {v:.1}%",
            layout.name()
        );
    }
}

/// Fig. 5: application — block-bunch unchanged; cyclic layouts improve
/// substantially; Scotch never helps and hurts block-bunch.
#[test]
fn fig5_application_shape() {
    let app = AppConfig::default();
    let norm = |layout: InitialMapping, scheme: Scheme| -> f64 {
        let mut s = session(layout);
        let b = app.simulate(&mut s, Scheme::Default);
        let r = app.simulate(&mut s, scheme);
        r.total / b.total
    };
    let hr = Scheme::hrstc(OrderFix::InitComm);
    let sc = Scheme::scotch(OrderFix::InitComm);

    assert!((norm(InitialMapping::BLOCK_BUNCH, hr) - 1.0).abs() < 0.01);
    assert!(norm(InitialMapping::CYCLIC_BUNCH, hr) < 0.9);
    assert!(norm(InitialMapping::CYCLIC_SCATTER, hr) < 0.9);
    assert!(norm(InitialMapping::BLOCK_BUNCH, sc) > 1.0);
}

/// Fig. 7(b): the heuristics are at least an order of magnitude cheaper to
/// compute than the Scotch-like mapper (which also pays a graph build).
#[test]
fn fig7b_overhead_ordering() {
    use std::time::Instant;
    let mut s = session(InitialMapping::BLOCK_BUNCH);
    let d =
        tarr::topo::DistanceMatrix::build(s.cluster(), s.comm().cores(), &s.core().config().dist);
    let t0 = Instant::now();
    let _ = tarr::mapping::rmh(&d, 0);
    let heuristic = t0.elapsed();
    let info = s
        .mapping(
            tarr::core::Mapper::ScotchLike,
            tarr::core::PatternKind::Ring,
        )
        .unwrap();
    let scotch = info.compute + info.graph_build;
    // Unoptimized builds distort constant factors; only enforce the full
    // order-of-magnitude gap in release.
    let factor = if cfg!(debug_assertions) { 1 } else { 5 };
    assert!(
        scotch > factor * heuristic,
        "scotch {scotch:?} should dwarf heuristic {heuristic:?}"
    );
}
