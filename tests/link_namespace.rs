//! The dense link namespace against the hop-keyed model it replaced.
//!
//! `StageModel::stage_time` prices contention on dense per-cluster link ids.
//! [`reference_stage_time`] is the earlier hash-map formulation — one
//! `FxHashMap<Hop, u32>` load map per stage, `Cluster::path` per message and
//! an override scan per hop — kept here as the differential
//! baseline: over fat trees (full and partially filled last leaf), a torus,
//! an ingested irregular fabric, GPC clusters degraded by one and two random
//! faults, and clusters with link overrides (one naming a link the cluster
//! lacks), both must agree to the bit. The namespace itself is checked to be
//! a bijection onto `0..link_count()` over routed hops, and the fluid stage
//! executor is pinned to the bit.

use proptest::prelude::*;
use tarr::ingest::{ingest_cluster, render_hwloc_xml};
use tarr::netsim::{fluid_stage_time, ChannelParams, FxHashMap, Message, NetParams, StageModel};
use tarr::topo::{Cluster, CoreId, Hop, LeafId, NodeId, NodeTopology};
use tarr_faults::{FaultRates, FaultSet};

/// A hop's channel constants as the hop-keyed model looked them up: the
/// first override registered for it, else its kind's default.
fn reference_channel(params: &NetParams, hop: &Hop) -> ChannelParams {
    for (h, c) in &params.link_overrides {
        if h == hop {
            return *c;
        }
    }
    params.channel(hop.kind())
}

/// The hop-keyed stage pricing the dense namespace replaced, verbatim.
fn reference_stage_time(cluster: &Cluster, params: &NetParams, msgs: &[Message]) -> f64 {
    if msgs.is_empty() {
        return 0.0;
    }
    let mut load: FxHashMap<Hop, u32> = FxHashMap::default();
    load.reserve(msgs.len() * 4);
    let mut hops_flat: Vec<Hop> = Vec::with_capacity(msgs.len() * 4);
    let mut ends: Vec<usize> = Vec::with_capacity(msgs.len());
    for m in msgs {
        if !m.is_local() {
            hops_flat.extend(cluster.path(m.src, m.dst));
        }
        ends.push(hops_flat.len());
    }
    for h in &hops_flat {
        *load.entry(*h).or_insert(0) += 1;
    }

    let mut worst = 0.0f64;
    let mut start = 0usize;
    for (m, &end) in msgs.iter().zip(&ends) {
        let path = &hops_flat[start..end];
        start = end;
        let t = if m.is_local() {
            params.memcpy.copy_time(m.bytes)
        } else {
            let mut alpha = params.sw_overhead_s;
            let mut inv_rate = 0.0f64;
            for h in path {
                let ch = reference_channel(params, h);
                alpha += ch.latency_s;
                let contended = load[h] as f64 / ch.bandwidth_bps;
                if contended > inv_rate {
                    inv_rate = contended;
                }
            }
            alpha + m.bytes as f64 * inv_rate
        };
        if t > worst {
            worst = t;
        }
    }
    worst
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The miswired `ibnetdiscover` fixture, ingested as an irregular fabric.
fn miswired() -> Cluster {
    ingest_cluster(
        &render_hwloc_xml(&NodeTopology::gpc()),
        &fixture("miswired_ib.txt"),
    )
    .unwrap()
    .cluster
}

/// `cluster` after `faults` successive random one-percent cable faults.
fn degraded(mut cluster: Cluster, faults: u64) -> Cluster {
    for seed in 0..faults {
        let set = FaultSet::random(&cluster, &FaultRates::links(0.01), 11 + seed);
        let d = set.apply(&cluster).unwrap();
        assert!(d.summary.fabric_rebuilt, "seed {seed} drew no cable fault");
        cluster = d.cluster;
    }
    cluster
}

/// Every fabric shape the differential tests cover, by name.
fn clusters() -> Vec<(&'static str, Cluster)> {
    vec![
        ("gpc40", Cluster::gpc(40)),
        ("tiny6", Cluster::tiny(6)),
        ("torus", Cluster::with_torus(NodeTopology::gpc(), [3, 2, 4])),
        ("miswired", miswired()),
        ("gpc64-1f", degraded(Cluster::gpc(64), 1)),
        ("gpc64-2f", degraded(Cluster::gpc(64), 2)),
    ]
}

/// Parameters with two real overrides, one duplicate (the first
/// registration wins) and one naming a leaf the cluster does not have.
fn override_params() -> NetParams {
    let mut p = NetParams::default();
    p.override_link(
        Hop::HcaUp { node: NodeId(1) },
        ChannelParams::us_gbs(0.9, 0.4),
    );
    p.override_link(
        Hop::HcaUp { node: NodeId(1) },
        ChannelParams::us_gbs(5.0, 0.1),
    );
    p.override_link(
        Hop::Shm {
            node: NodeId(0),
            socket: 1,
        },
        ChannelParams::us_gbs(0.2, 1.5),
    );
    p.override_link(
        Hop::LeafUp {
            leaf: LeafId(9999),
            core: 0,
            up: 0,
        },
        ChannelParams::us_gbs(50.0, 0.01),
    );
    p
}

/// A deterministic stage on `cluster`: `n` messages drawn by an LCG from
/// `seed`, mixing self-sends, same-socket, cross-socket, inter-node and
/// repeated pairs, with sizes from one byte to a mebibyte.
fn stage(cluster: &Cluster, seed: u64, n: usize) -> Vec<Message> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = |m: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % m
    };
    let cores = cluster.total_cores() as u64;
    let cpn = cluster.cores_per_node() as u64;
    let mut msgs: Vec<Message> = Vec::with_capacity(n);
    for _ in 0..n {
        let src = next(cores);
        let (src, dst) = match next(6) {
            0 => (src, src),
            1 => (src, src - src % cpn + next(cpn)),
            2 if !msgs.is_empty() => {
                let m = msgs[next(msgs.len() as u64) as usize];
                msgs.push(Message::new(m.src, m.dst, 1 + next(1 << 20)));
                continue;
            }
            // Crowd the first nodes so HCA and uplink contention is common.
            3 => (next(4 * cpn), next(cores)),
            _ => (src, next(cores)),
        };
        let bytes = [1, 4096, 1 << 20][next(3) as usize];
        msgs.push(Message::new(CoreId(src as u32), CoreId(dst as u32), bytes));
    }
    msgs
}

/// `fluid_stage_time`, pinned to the bit per cluster, parameter set and
/// stage. Each row is `(label, f64::to_bits)`; regenerate with
/// `FLUID_PIN_PRINT=1 cargo test --test link_namespace fluid_pricing_is_pinned
/// -- --nocapture` only when the fluid model changes on purpose.
#[test]
fn fluid_pricing_is_pinned() {
    let mut got = Vec::new();
    for (name, cluster) in clusters() {
        for (pname, params) in [("def", NetParams::default()), ("ovr", override_params())] {
            for seed in 0..3u64 {
                let t = fluid_stage_time(&cluster, &params, &stage(&cluster, seed, 16));
                got.push((format!("{name}/{pname}/{seed}"), t.to_bits()));
            }
        }
    }
    if std::env::var_os("FLUID_PIN_PRINT").is_some() {
        for (label, bits) in &got {
            println!("    (\"{label}\", 0x{bits:016x}),");
        }
    }
    assert_eq!(got.len(), FLUID_PIN.len());
    for ((label, bits), (want_label, want)) in got.iter().zip(FLUID_PIN) {
        assert_eq!(label, want_label);
        assert_eq!(
            *bits,
            *want,
            "{label}: {} vs pinned {}",
            f64::from_bits(*bits),
            f64::from_bits(*want)
        );
    }
}

#[rustfmt::skip]
const FLUID_PIN: &[(&str, u64)] = &[
    ("gpc40/def/0", 0x3f45897f1a3c6c42),
    ("gpc40/def/1", 0x3f359970a9e13a6e),
    ("gpc40/def/2", 0x3f4b873a4677de88),
    ("gpc40/ovr/0", 0x3f72e53f09803168),
    ("gpc40/ovr/1", 0x3f359970a9e13a6e),
    ("gpc40/ovr/2", 0x3f4b873a4677de88),
    ("tiny6/def/0", 0x3f502176724d2476),
    ("tiny6/def/1", 0x3f40f145a7ffe3d0),
    ("tiny6/def/2", 0x3f40c717d70c40d6),
    ("tiny6/ovr/0", 0x3f502176724d2476),
    ("tiny6/ovr/1", 0x3f40f145a7ffe3d0),
    ("tiny6/ovr/2", 0x3f40c717d70c40d6),
    ("torus/def/0", 0x3f45889aeeae48fe),
    ("torus/def/1", 0x3f444545acdae76a),
    ("torus/def/2", 0x3f4966cf37d6fcc7),
    ("torus/ovr/0", 0x3f605190407f7704),
    ("torus/ovr/1", 0x3f444545acdae76a),
    ("torus/ovr/2", 0x3f4966cf37d6fcc7),
    ("miswired/def/0", 0x3f459b9daacb4538),
    ("miswired/def/1", 0x3f35961453f4f4b4),
    ("miswired/def/2", 0x3f3b073fba5525f7),
    ("miswired/ovr/0", 0x3f60669fc7302ac0),
    ("miswired/ovr/1", 0x3f35961453f4f4b4),
    ("miswired/ovr/2", 0x3f3b073fba5525f7),
    ("gpc64-1f/def/0", 0x3f42efe3a8308b38),
    ("gpc64-1f/def/1", 0x3f35996f52484c4a),
    ("gpc64-1f/def/2", 0x3f40ca72d55f986c),
    ("gpc64-1f/ovr/0", 0x3f72e53f09803169),
    ("gpc64-1f/ovr/1", 0x3f35996f52484c4a),
    ("gpc64-1f/ovr/2", 0x3f40ca72d55f986c),
    ("gpc64-2f/def/0", 0x3f42efe3a8308b38),
    ("gpc64-2f/def/1", 0x3f35996f52484c4a),
    ("gpc64-2f/def/2", 0x3f40ca72d55f986c),
    ("gpc64-2f/ovr/0", 0x3f72e53f09803169),
    ("gpc64-2f/ovr/1", 0x3f35996f52484c4a),
    ("gpc64-2f/ovr/2", 0x3f40ca72d55f986c),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense-id stage pricing equals the hop-keyed reference to the bit on
    /// every fabric shape, with and without link overrides.
    #[test]
    fn stage_time_matches_reference(seed in any::<u64>(), n in 1usize..200, ovr in any::<bool>()) {
        let params = if ovr { override_params() } else { NetParams::default() };
        for (name, cluster) in clusters() {
            let msgs = stage(&cluster, seed, n);
            let dense = StageModel::new(&cluster, params.clone()).stage_time(&msgs);
            let reference = reference_stage_time(&cluster, &params, &msgs);
            prop_assert_eq!(dense.to_bits(), reference.to_bits(), "{}: {} vs {}", name, dense, reference);
        }
    }

    /// Over random core pairs on every fabric shape, routed link ids are
    /// below the link count, equal the ids of `Cluster::path`'s hops, lie in
    /// the range of their hop's kind, and coincide exactly when the hops do.
    #[test]
    fn link_ids_are_a_bijection_over_routes(seed in any::<u64>()) {
        for (name, cluster) in clusters() {
            let ranges = cluster.link_ranges();
            let mut hop_of: FxHashMap<u32, Hop> = FxHashMap::default();
            let mut ids = Vec::new();
            for m in stage(&cluster, seed, 64) {
                ids.clear();
                cluster.route_into(m.src, m.dst, &mut ids);
                let path = cluster.path(m.src, m.dst);
                prop_assert_eq!(ids.len(), path.len(), "{}", name);
                for (&id, h) in ids.iter().zip(&path) {
                    prop_assert!((id as usize) < cluster.link_count(), "{}: {:?}", name, h);
                    prop_assert_eq!(cluster.link_id(h), Some(id), "{}: {:?}", name, h);
                    let kind = ranges.iter().find(|(_, r)| r.contains(&id)).map(|(k, _)| *k);
                    prop_assert_eq!(kind, Some(h.kind()), "{}: {:?}", name, h);
                    let prev = *hop_of.entry(id).or_insert(*h);
                    prop_assert_eq!(prev, *h, "{}: id {} names two hops", name, id);
                }
            }
        }
    }
}
