//! Differential validation of the size-parametric broadcast and allreduce
//! schedules against the materialized schedules they replace.
//!
//! * The analytic constructors ([`TimedSchedule::binomial_bcast`],
//!   [`TimedSchedule::rd_allreduce`], [`TimedSchedule::rabenseifner_allreduce`])
//!   equal [`TimedSchedule::compile`] of the materialized
//!   `tarr_collectives` schedules: same stage order, same operand pairs per
//!   unique stage, and the same bytes per op once resolved at a size.
//! * The cached `bcast_time`/`allreduce_time` of a solo [`Session`] and of a
//!   [`SessionHandle`] are bit-identical (`f64::to_bits`) to pricing the
//!   materialized schedule with `time_schedule`, over a byte sweep that
//!   crosses the `max(b >> s, 1)` clamp, and a warm repeat is a price-cache
//!   hit.
//! * The analytic ring allgatherv ([`tarr_mpi::ring_allgatherv_time`]) is
//!   bit-identical to the materialized sized reference
//!   (`dense_reference::time_schedule_sized` over the ring schedule) for
//!   uniform, skewed and zero-bearing sizes on an initial and a reordered
//!   communicator.

mod dense_reference;

use dense_reference::time_schedule_sized;
use std::sync::Arc;
use tarr_collectives::allgather::ring;
use tarr_collectives::allreduce::{rabenseifner_allreduce, rd_allreduce};
use tarr_collectives::bcast::binomial_bcast;
use tarr_core::{Mapper, PatternKind, Scheme, Session, SessionConfig, SessionCore};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_mpi::{
    ring_allgatherv_time, time_schedule, Communicator, Schedule, SendOp, Stage, TimedSchedule,
};
use tarr_netsim::StageModel;
use tarr_topo::{Cluster, CoreId, Rank};

/// The byte sweep for `p` ranks: empty, tiny, just below and at `p` (where
/// Rabenseifner's deepest shares clamp to one byte), and large sizes up to
/// an odd one past 16 MiB.
fn sizes(p: u64) -> [u64; 9] {
    [0, 1, 7, p - 1, p, 1 << 10, 1 << 16, 1 << 20, (1 << 24) + 3]
}

/// Every unique stage as `(from, to, bytes)` triples with its units resolved
/// at `b` bytes through the stage's halving shift.
fn resolved(ts: &TimedSchedule, b: u64) -> Vec<Vec<(u32, u32, u64)>> {
    ts.unique_stages()
        .iter()
        .zip(ts.stage_shifts())
        .map(|(stage, &s)| {
            let unit = if s == 0 { b } else { (b >> s).max(1) };
            stage
                .iter()
                .map(|m| (m.from, m.to, m.blocks * unit + m.raw))
                .collect()
        })
        .collect()
}

fn assert_same_compiled(analytic: &TimedSchedule, materialize: impl Fn(u64) -> Schedule) {
    let p = analytic.p() as u64;
    for b in sizes(p.max(1)) {
        let dense = TimedSchedule::compile(&materialize(b));
        assert_eq!(analytic.p(), dense.p());
        assert_eq!(analytic.stage_order(), dense.stage_order(), "p {p} b {b}");
        assert_eq!(resolved(analytic, b), resolved(&dense, b), "p {p} b {b}");
    }
}

#[test]
fn analytic_bcast_equals_the_compiled_materialized_schedule() {
    for p in [1u32, 2, 3, 8, 24, 512, 4096] {
        let analytic = TimedSchedule::binomial_bcast(p);
        assert!(analytic.stage_shifts().iter().all(|&s| s == 0));
        assert_same_compiled(&analytic, |b| binomial_bcast(p, Rank(0), b));
    }
}

#[test]
fn analytic_allreduce_equals_the_compiled_materialized_schedules() {
    for p in [1u32, 2, 8, 512, 4096] {
        let rd = TimedSchedule::rd_allreduce(p);
        assert_eq!(rd.num_unique_stages(), p.trailing_zeros() as usize);
        assert_same_compiled(&rd, |b| rd_allreduce(p, b));
        let rab = TimedSchedule::rabenseifner_allreduce(p);
        // Each reduce-scatter stage is repeated by its mirrored allgather
        // stage, so the shifted schedule holds log p unique stages.
        assert_eq!(rab.num_unique_stages(), p.trailing_zeros() as usize);
        assert_eq!(rab.num_stages(), 2 * p.trailing_zeros() as usize);
        assert_same_compiled(&rab, |b| rabenseifner_allreduce(p, b));
    }
}

#[test]
fn analytic_allreduce_refuses_non_power_of_two_like_the_materialized_one() {
    let panics = |f: fn(u32)| std::panic::catch_unwind(|| f(3)).is_err();
    assert!(panics(|p| drop(rd_allreduce(p, 64))));
    assert!(panics(|p| drop(TimedSchedule::rd_allreduce(p))));
    assert!(panics(|p| drop(rabenseifner_allreduce(p, 64))));
    assert!(panics(|p| drop(TimedSchedule::rabenseifner_allreduce(p))));
}

/// The collectives under test, each with the materialized schedule the
/// pre-parametric session priced per call and the communicator pattern its
/// reordering uses.
#[derive(Clone, Copy, Debug)]
enum Coll {
    Bcast,
    Allreduce { rabenseifner: bool },
}

const COLLS: [Coll; 3] = [
    Coll::Bcast,
    Coll::Allreduce {
        rabenseifner: false,
    },
    Coll::Allreduce { rabenseifner: true },
];

const SCHEMES: [Scheme; 2] = [
    Scheme::Default,
    Scheme::Reordered {
        mapper: Mapper::Hrstc,
        fix: OrderFix::InPlace,
    },
];

impl Coll {
    fn materialize(self, p: u32, b: u64) -> Schedule {
        match self {
            Coll::Bcast => binomial_bcast(p, Rank(0), b),
            Coll::Allreduce { rabenseifner: true } => rabenseifner_allreduce(p, b),
            Coll::Allreduce {
                rabenseifner: false,
            } => rd_allreduce(p, b),
        }
    }

    fn pattern(self) -> PatternKind {
        match self {
            Coll::Bcast => PatternKind::BinomialBcast,
            Coll::Allreduce { .. } => PatternKind::Rd,
        }
    }

    fn solo(self, s: &mut Session, b: u64, scheme: Scheme) -> f64 {
        match self {
            Coll::Bcast => s.bcast_time(b, scheme),
            Coll::Allreduce { rabenseifner } => s.allreduce_time(b, rabenseifner, scheme),
        }
    }

    fn shared(self, h: &mut tarr_core::SessionHandle, b: u64, scheme: Scheme) -> f64 {
        match self {
            Coll::Bcast => h.bcast_time(b, scheme),
            Coll::Allreduce { rabenseifner } => h.allreduce_time(b, rabenseifner, scheme),
        }
    }
}

/// Today's per-call path: materialize at `b`, compile and price.
fn reference(s: &mut Session, coll: Coll, b: u64, scheme: Scheme) -> f64 {
    let p = s.size() as u32;
    let comm: Communicator = match scheme {
        Scheme::Default => s.comm().clone(),
        Scheme::Reordered { mapper, .. } => {
            let m = s.mapping(mapper, coll.pattern()).unwrap().mapping.clone();
            s.comm().reordered(&m)
        }
    };
    let model = StageModel::new(s.cluster(), SessionConfig::default().net);
    time_schedule(&coll.materialize(p, b), &comm, &model, b)
}

fn session(nodes: usize) -> Session {
    let cluster = Cluster::gpc(nodes);
    let p = cluster.total_cores();
    Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_BUNCH,
        p,
        SessionConfig::default(),
    )
}

#[test]
fn cached_prices_are_bit_identical_to_the_per_call_path() {
    for nodes in [4usize, 64] {
        let mut reference_session = session(nodes);
        let mut solo = session(nodes);
        let core = Arc::new(SessionCore::from_layout(
            Cluster::gpc(nodes),
            InitialMapping::CYCLIC_BUNCH,
            nodes * 8,
            SessionConfig::default(),
        ));
        let mut h = core.handle();
        let p = (nodes * 8) as u64;
        // The sweep reaches the one-byte clamp of Rabenseifner's deepest
        // share (shift log p) below p bytes.
        assert_eq!((p - 1) >> p.trailing_zeros(), 0);
        for coll in COLLS {
            for scheme in SCHEMES {
                for b in sizes(p) {
                    let want = reference(&mut reference_session, coll, b, scheme).to_bits();
                    let tag = format!("p {p} {coll:?} {scheme:?} b {b}");
                    assert_eq!(coll.solo(&mut solo, b, scheme).to_bits(), want, "{tag}");
                    assert_eq!(coll.shared(&mut h, b, scheme).to_bits(), want, "{tag}");
                }
            }
        }
    }
}

#[test]
fn a_warm_repeat_is_a_price_cache_hit() {
    let mut solo = session(8);
    let core = Arc::new(SessionCore::from_layout(
        Cluster::gpc(8),
        InitialMapping::CYCLIC_BUNCH,
        64,
        SessionConfig::default(),
    ));
    let mut h = core.handle();
    for coll in COLLS {
        for scheme in SCHEMES {
            let cold_solo = coll.solo(&mut solo, 4096, scheme);
            let cold_shared = coll.shared(&mut h, 4096, scheme);

            let before = solo.cache_stats();
            assert_eq!(coll.solo(&mut solo, 4096, scheme), cold_solo);
            let delta = solo.cache_stats_since(before);
            assert_eq!(delta.sched_misses, 0, "{coll:?} {scheme:?}: {delta:?}");
            assert_eq!(delta.price_computed, 0, "{coll:?} {scheme:?}: {delta:?}");
            assert!(delta.price_reused > 0, "{coll:?} {scheme:?}: {delta:?}");

            let before = core.cache_stats();
            assert_eq!(coll.shared(&mut h, 4096, scheme), cold_shared);
            let delta = core.cache_stats().since(before);
            assert_eq!(delta.prices.hits, 1, "{coll:?} {scheme:?}: {delta:?}");
            assert_eq!(delta.misses(), 0, "{coll:?} {scheme:?}: {delta:?}");
        }
    }
}

/// Per-block sizes for the allgatherv differential: uniform, skewed (one
/// heavy block in seven), zero-bearing, all-zero, and alternating — whose
/// stages repeat two apart but never back to back.
fn allgatherv_sizes(p: u64) -> Vec<Vec<u64>> {
    vec![
        vec![4096; p as usize],
        (0..p)
            .map(|i| if i % 7 == 0 { 1 << 20 } else { 64 + i })
            .collect(),
        (0..p)
            .map(|i| if i % 3 == 0 { 0 } else { 1000 + i })
            .collect(),
        vec![0; p as usize],
        (0..p)
            .map(|i| if i % 2 == 0 { 100 } else { 1 << 16 })
            .collect(),
    ]
}

#[test]
fn analytic_allgatherv_is_bit_identical_to_the_materialized_ring() {
    for p in [1u32, 2, 3, 24, 512] {
        let cluster = Cluster::gpc((p as usize).div_ceil(8));
        let model = StageModel::new(&cluster, SessionConfig::default().net);
        let initial = Communicator::new(cluster.cores().take(p as usize).collect());
        // A stride permutation: coprime with every p above.
        let perm: Vec<u32> = (0..p).map(|i| (i * 7 + 3) % p).collect();
        let reordered = initial.reordered(&perm);
        let sched = ring(p);
        for comm in [&initial, &reordered] {
            for sizes in allgatherv_sizes(p as u64) {
                let want = time_schedule_sized(&sched, comm, &model, &sizes);
                let got = ring_allgatherv_time(comm, &model, &sizes);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "p {p} sizes {:?}",
                    &sizes[..p.min(8) as usize]
                );
            }
            // Uniform sizes price one stage, repeated like the compiled ring.
            let uniform = TimedSchedule::ring_allgather(p).time(comm, &model, 4096);
            let got = ring_allgatherv_time(comm, &model, &vec![4096; p as usize]);
            assert_eq!(got.to_bits(), uniform.to_bits(), "p {p} uniform");
        }
    }
}

/// The sized reference on a 16-rank line over two GPC nodes.
fn line16() -> (Cluster, Communicator) {
    let cluster = Cluster::gpc(2);
    let comm = Communicator::new((0..16).map(CoreId::from_idx).collect());
    (cluster, comm)
}

fn one_stage(op: SendOp) -> Schedule {
    let mut sched = Schedule::new(16);
    sched.push(Stage::new(vec![op]));
    sched
}

#[test]
fn sized_matches_uniform_when_sizes_equal() {
    let (cluster, comm) = line16();
    let model = StageModel::new(&cluster, SessionConfig::default().net);
    let sched = one_stage(SendOp::blocks(0, 8, 0, 4));
    let uniform = time_schedule(&sched, &comm, &model, 1000);
    let sized = time_schedule_sized(&sched, &comm, &model, &[1000; 16]);
    assert!((uniform - sized).abs() < 1e-15);
}

#[test]
fn sized_charges_the_actual_slots() {
    let (cluster, comm) = line16();
    let model = StageModel::new(&cluster, SessionConfig::default().net);
    // One op carrying slots 2..4 (wrapping not involved).
    let mut sizes = [0u64; 16];
    sizes[2] = 1 << 20;
    sizes[3] = 1 << 10;
    let t = time_schedule_sized(
        &one_stage(SendOp::blocks(0, 8, 2, 2)),
        &comm,
        &model,
        &sizes,
    );
    // Equivalent single message of the summed bytes.
    let eq = one_stage(SendOp::raw(0, 8, (1 << 20) + (1 << 10)));
    let te = time_schedule(&eq, &comm, &model, 0);
    assert!((t - te).abs() / te < 1e-12, "t {t} te {te}");
}

#[test]
fn sized_handles_wrapped_ranges() {
    let (cluster, comm) = line16();
    let model = StageModel::new(&cluster, SessionConfig::default().net);
    // Slots 15 and 0.
    let mut sizes = [0u64; 16];
    sizes[15] = 4096;
    sizes[0] = 8192;
    let t = time_schedule_sized(
        &one_stage(SendOp::blocks(0, 8, 15, 2)),
        &comm,
        &model,
        &sizes,
    );
    let te = time_schedule(&one_stage(SendOp::raw(0, 8, 12288)), &comm, &model, 0);
    assert!((t - te).abs() / te < 1e-12);
}
