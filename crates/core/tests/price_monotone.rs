//! Metamorphic test of the cost model: a collective's price never falls
//! when its message grows.
//!
//! Every stage moves `blocks · unit + raw` bytes per message, and the unit
//! is non-decreasing in the priced size, so every priced collective must be
//! non-decreasing in it too. The flat allgather is the exception the paper
//! builds on: it switches from recursive doubling to the ring at 1 KiB, so
//! it is checked within each region, not across the switch.
//!
//! The cores are P = 512 on a 64-node GPC fat tree: healthy, after a seeded
//! cable fault (an irregular fabric, every price rebuilt), and after a
//! second cable fault with an identity fabric delta, whose warm entries are
//! re-priced from the carried stage profiles.

use std::sync::Arc;
use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_collectives::MVAPICH_RD_THRESHOLD;
use tarr_core::{Scheme, SessionConfig, SessionCore};
use tarr_faults::{FaultRates, FaultSet};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_topo::Cluster;

/// Sizes below the allgather's 1 KiB switch (recursive doubling).
const RD_SIZES: [u64; 7] = [1, 2, 64, 256, 512, 1000, 1023];

/// Sizes at or above it (the ring).
const RING_SIZES: [u64; 6] = [1024, 1025, 4096, 65_536, 1 << 20, 1 << 24];

const HIER: [(InterAlg, IntraPattern); 3] = [
    (InterAlg::RecursiveDoubling, IntraPattern::Binomial),
    (InterAlg::Ring, IntraPattern::Binomial),
    (InterAlg::Ring, IntraPattern::Linear),
];

fn schemes() -> [Scheme; 3] {
    [
        Scheme::Default,
        Scheme::hrstc(OrderFix::InitComm),
        Scheme::hrstc(OrderFix::InPlace),
    ]
}

/// Price `f` at every size of `sizes` (ascending) and assert the price
/// never decreases.
fn assert_monotone(at: &str, sizes: &[u64], mut f: impl FnMut(u64) -> f64) {
    let prices: Vec<f64> = sizes.iter().map(|&b| f(b)).collect();
    for (t, b) in prices.windows(2).zip(sizes.windows(2)) {
        assert!(
            t[0] <= t[1],
            "{at}: {} B prices {:e} s but {} B prices {:e} s",
            b[0],
            t[0],
            b[1],
            t[1]
        );
    }
}

/// Check every collective under every scheme on `core`; pricing warms it.
fn check_core(tag: &str, core: &Arc<SessionCore>) {
    assert!(RD_SIZES.iter().all(|&b| b < MVAPICH_RD_THRESHOLD));
    assert!(RING_SIZES.iter().all(|&b| b >= MVAPICH_RD_THRESHOLD));
    let all: Vec<u64> = RD_SIZES.iter().chain(&RING_SIZES).copied().collect();
    let mut h = core.handle();
    for scheme in schemes() {
        let at = |what: &str| format!("{tag} {scheme:?} {what}");
        for (region, sizes) in [("rd", &RD_SIZES[..]), ("ring", &RING_SIZES[..])] {
            assert_monotone(&at(&format!("allgather {region}")), sizes, |b| {
                h.allgather_time(b, scheme)
            });
        }
        assert_monotone(&at("bcast"), &all, |b| h.bcast_time(b, scheme));
        assert_monotone(&at("gather"), &all, |b| h.gather_time(b, scheme));
        for rabenseifner in [false, true] {
            let what = at(&format!("allreduce rabenseifner={rabenseifner}"));
            assert_monotone(&what, &all, |b| h.allreduce_time(b, rabenseifner, scheme));
        }
        for (inter, intra) in HIER {
            let hcfg = HierarchicalConfig { inter, intra };
            let what = at(&format!("hierarchical {inter:?}/{intra:?}"));
            assert_monotone(&what, &all, |b| {
                h.hierarchical_allgather_time(b, hcfg, scheme)
                    .unwrap_or_else(|| panic!("{what}: unpriced at {b} B"))
            });
        }
    }
}

/// The first seeded 5% cable-fault set under 64 that applies to `cluster`
/// and satisfies `want`.
fn seeded_cable_fault(
    cluster: &Cluster,
    want: impl Fn(&tarr_faults::Degraded) -> bool,
) -> FaultSet {
    (0u64..64)
        .map(|s| FaultSet::random(cluster, &FaultRates::links(0.05), s))
        .find(|set| set.apply(cluster).is_ok_and(|d| want(&d)))
        .expect("some seed under 64 yields the wanted fault")
}

#[test]
fn price_is_non_decreasing_in_message_size_through_two_faults() {
    let core = Arc::new(SessionCore::from_layout(
        Cluster::gpc(64),
        InitialMapping::BLOCK_BUNCH,
        512,
        SessionConfig::default(),
    ));
    check_core("healthy", &core);

    // Fault 1 turns the fat tree into an irregular fabric.
    let set = seeded_cable_fault(core.cluster(), |d| d.summary.fabric_rebuilt);
    let (core, _) = core.apply_faults(&set).unwrap();
    let core = Arc::new(core);
    assert!(core.cluster().fabric().as_irregular().is_some());
    check_core("one fault", &core);

    // Fault 2 is repaired through an identity fabric delta: the warm
    // entries of surviving pairs are re-priced from their stage profiles.
    let set = seeded_cable_fault(core.cluster(), |d| d.fabric_delta.is_some());
    let (core, report) = core.apply_faults(&set).unwrap();
    assert!(report.price_stages_repriced > 0, "{report:?}");
    assert!(report.price_stages_reused > 0, "{report:?}");
    check_core("two faults", &Arc::new(core));
}
