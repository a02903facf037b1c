//! Differential validation of size-free stage profiles: pricing a unique
//! stage from its [`tarr_netsim::StageProfile`] must be bit-identical
//! (`f64::to_bits`) to routing the resolved messages through
//! [`StageModel::stage_time`], stage by stage and in total.
//!
//! The fabrics are a GPC fat tree, a torus and an irregular fabric left by
//! a seeded cable fault, each with and without a degraded link override.
//! The schedules cover the analytic ring, gather, broadcast and both
//! allreduces (Rabenseifner's halving shifts included), a compiled Bruck
//! allgather, and a schedule with local copies, over the initial and a
//! shuffled communicator.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tarr_collectives::allgather::bruck;
use tarr_core::SessionConfig;
use tarr_faults::{FaultRates, FaultSet};
use tarr_mpi::{Communicator, Payload, Schedule, SendOp, Stage, StageProfiles, TimedSchedule};
use tarr_netsim::{ChannelParams, NetParams, StageModel};
use tarr_topo::{Cluster, Hop, NodeId, NodeTopology, Rank};

/// The priced sizes: one byte, either side of 1 KiB, 64 KiB and 16 MiB.
const SIZES: [u64; 5] = [1, 1023, 1024, 65_536, 1 << 24];

/// Every rank sends one block to its successor and copies two blocks to
/// itself: local copies next to remote messages in one stage.
fn with_local_copies(p: u32) -> TimedSchedule {
    let ops = (0..p)
        .flat_map(|r| {
            [
                SendOp {
                    from: Rank(r),
                    to: Rank((r + 1) % p),
                    payload: Payload::blocks(r, 1),
                },
                SendOp {
                    from: Rank(r),
                    to: Rank(r),
                    payload: Payload::blocks(r, 2),
                },
            ]
        })
        .collect();
    let mut s = Schedule::new(p);
    s.push(Stage::new(ops));
    TimedSchedule::compile(&s)
}

fn schedules(p: u32) -> Vec<(&'static str, TimedSchedule)> {
    let mut out = vec![
        ("ring", TimedSchedule::ring_allgather(p)),
        ("gather", TimedSchedule::binomial_gather(p)),
        ("bcast", TimedSchedule::binomial_bcast(p)),
        ("bruck", TimedSchedule::compile(&bruck(p))),
        ("local", with_local_copies(p)),
    ];
    if p.is_power_of_two() {
        out.push(("rd_allreduce", TimedSchedule::rd_allreduce(p)));
        out.push(("rabenseifner", TimedSchedule::rabenseifner_allreduce(p)));
    }
    out
}

/// The unit unique stage `k` resolves `b` bytes to (its halving shift).
fn unit(ts: &TimedSchedule, k: usize, b: u64) -> u64 {
    match ts.stage_shifts()[k] {
        0 => b,
        s => (b >> s).max(1),
    }
}

/// Pin profile pricing to `stage_time` on `cluster` under `params`.
fn assert_profiles_match(tag: &str, cluster: &Cluster, params: NetParams) {
    let model = StageModel::new(cluster, params);
    let p = cluster.total_cores() as u32;
    let initial = Communicator::new(cluster.cores().collect());
    let mut shuffled: Vec<_> = cluster.cores().collect();
    shuffled.shuffle(&mut StdRng::seed_from_u64(7));
    let shuffled = Communicator::new(shuffled);
    for (name, ts) in schedules(p) {
        for (cname, comm) in [("initial", &initial), ("shuffled", &shuffled)] {
            let profiles = StageProfiles::new(ts.num_unique_stages());
            for b in SIZES {
                let at = format!("{tag} {name} {cname} b {b}");
                let total = ts.time_with_profiles(comm, &model, b, &profiles);
                assert_eq!(total.to_bits(), ts.time(comm, &model, b).to_bits(), "{at}");
                let mut msgs = Vec::new();
                for k in 0..ts.num_unique_stages() {
                    let t = profiles.get(k).expect("priced stage").time(unit(&ts, k, b));
                    let want = ts.price_unique_stage(k as u32, comm, &model, b, &mut msgs);
                    assert_eq!(t.to_bits(), want.to_bits(), "{at} stage {k}");
                    let fresh = ts.stage_profile(k as u32, comm, &model);
                    assert_eq!(
                        fresh.time(unit(&ts, k, b)).to_bits(),
                        want.to_bits(),
                        "{at}"
                    );
                }
            }
            // Every stage was routed once, at the first size.
            assert_eq!(profiles.built(), ts.num_unique_stages(), "{tag} {name}");
        }
    }
}

/// The channel constants with node 3's HCA uplink degraded tenfold.
fn with_override() -> NetParams {
    let mut params = SessionConfig::default().net;
    params.override_link(
        Hop::HcaUp { node: NodeId(3) },
        ChannelParams::us_gbs(0.55, 0.32),
    );
    params
}

fn check_both_params(tag: &str, cluster: &Cluster) {
    assert_profiles_match(tag, cluster, SessionConfig::default().net);
    assert_profiles_match(&format!("{tag}+override"), cluster, with_override());
}

#[test]
fn profiles_price_like_stage_time_on_a_fat_tree() {
    check_both_params("fattree", &Cluster::gpc(64));
}

#[test]
fn profiles_price_like_stage_time_on_a_torus() {
    check_both_params(
        "torus",
        &Cluster::with_torus(NodeTopology::gpc(), [4, 2, 2]),
    );
}

#[test]
fn profiles_price_like_stage_time_after_a_cable_fault() {
    let healthy = Cluster::gpc(64);
    let degraded = (0u64..64)
        .filter_map(|s| {
            FaultSet::random(&healthy, &FaultRates::links(0.02), s)
                .apply(&healthy)
                .ok()
        })
        .find(|d| d.summary.fabric_rebuilt)
        .expect("some seed under 64 fails a cable without partitioning the fabric")
        .cluster;
    assert!(degraded.fabric().as_irregular().is_some());
    check_both_params("irregular", &degraded);
}
