//! Differential tests for the scaled mapping pipeline: for a fixed seed,
//! every heuristic must produce **bit-identical** mappings through all three
//! execution paths —
//!
//! 1. dense [`DistanceMatrix`] + linear scan (the reference),
//! 2. [`ImplicitDistance`] + linear scan (same scan, O(P) oracle),
//! 3. [`ImplicitDistance`] + bucketed free-slot index (`*_bucketed`).
//!
//! The canonical tie-break contract (count minimum-distance candidates, draw
//! once iff there is a genuine tie, pick in ascending physical-core order)
//! is what makes this equality hold; see `tarr_mapping::scheme`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tarr_mapping::{
    bbmh, bbmh_bucketed, bgmh, bgmh_bucketed, bkmh, bkmh_bucketed, greedy_map, rdmh, rdmh_bucketed,
    rmh, rmh_bucketed, scotch_like_map, InitialMapping,
};
use tarr_topo::{
    Cluster, CoreId, DistanceConfig, DistanceMatrix, Fabric, ImplicitDistance, IrregularConfig,
    IrregularFabric, NodeTopology,
};

/// Build both oracles over the same layout.
fn oracles(layout: InitialMapping, nodes: usize) -> (DistanceMatrix, ImplicitDistance) {
    let cluster = Cluster::gpc(nodes);
    let p = cluster.total_cores();
    let cores = layout.layout(&cluster, p);
    let cfg = DistanceConfig::default();
    (
        DistanceMatrix::build(&cluster, &cores, &cfg),
        ImplicitDistance::build(&cluster, &cores, &cfg),
    )
}

fn arb_layout() -> impl Strategy<Value = InitialMapping> {
    prop::sample::select(InitialMapping::ALL.to_vec())
}

/// One heuristic's mapping through the three execution paths.
type PathTriple = (&'static str, Vec<u32>, Vec<u32>, Vec<u32>);

/// Assert all three paths agree for every heuristic at this size/seed.
/// `p` is a power of two here, so RDMH applies too.
fn assert_all_paths_agree(
    dense: &DistanceMatrix,
    implicit: &ImplicitDistance,
    seed: u64,
) -> Result<(), TestCaseError> {
    let cases: [PathTriple; 5] = [
        (
            "rmh",
            rmh(dense, seed),
            rmh(implicit, seed),
            rmh_bucketed(implicit, seed),
        ),
        (
            "rdmh",
            rdmh(dense, seed),
            rdmh(implicit, seed),
            rdmh_bucketed(implicit, seed),
        ),
        (
            "bbmh",
            bbmh(dense, seed),
            bbmh(implicit, seed),
            bbmh_bucketed(implicit, seed),
        ),
        (
            "bgmh",
            bgmh(dense, seed),
            bgmh(implicit, seed),
            bgmh_bucketed(implicit, seed),
        ),
        (
            "bkmh",
            bkmh(dense, seed),
            bkmh(implicit, seed),
            bkmh_bucketed(implicit, seed),
        ),
    ];
    for (name, reference, linear, bucketed) in &cases {
        prop_assert_eq!(reference, linear, "{}: dense vs implicit-linear", name);
        prop_assert_eq!(reference, bucketed, "{}: dense vs bucketed", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// P = 32 (4 GPC nodes): every heuristic, every layout, random seeds.
    #[test]
    fn all_paths_agree_p32(layout in arb_layout(), seed in any::<u64>()) {
        let (dense, implicit) = oracles(layout, 4);
        assert_all_paths_agree(&dense, &implicit, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// P = 512 (64 GPC nodes): every heuristic, every layout, random seeds.
    #[test]
    fn all_paths_agree_p512(layout in arb_layout(), seed in any::<u64>()) {
        let (dense, implicit) = oracles(layout, 64);
        assert_all_paths_agree(&dense, &implicit, seed)?;
    }
}

/// P = 4096 (512 GPC nodes), fixed seed — the issue's acceptance criterion.
/// One shot (the dense side is quadratic); all five heuristics through all
/// three paths.
#[test]
fn all_paths_agree_p4096_fixed_seed() {
    let (dense, implicit) = oracles(InitialMapping::BLOCK_BUNCH, 512);
    assert_all_paths_agree(&dense, &implicit, 42).unwrap();
}

/// Torus fabrics go through a different bucket walk (hop rings); check the
/// heuristics end-to-end there as well.
#[test]
fn all_paths_agree_on_torus() {
    let cluster = Cluster::with_torus(tarr_topo::NodeTopology::gpc(), [4, 2, 2]);
    let cores: Vec<CoreId> = cluster.cores().collect(); // p = 128, power of two
    let cfg = DistanceConfig::default();
    let dense = DistanceMatrix::build(&cluster, &cores, &cfg);
    let implicit = ImplicitDistance::build(&cluster, &cores, &cfg);
    for seed in [0u64, 7, 1234] {
        assert_all_paths_agree(&dense, &implicit, seed).unwrap();
    }
}

/// The general mappers are generic over the oracle too: dense and implicit
/// must agree (they share the identical scan order).
#[test]
fn general_mappers_agree_across_oracles() {
    use tarr_collectives::{allgather::ring, pattern_graph};
    let (dense, implicit) = oracles(InitialMapping::CYCLIC_BUNCH, 8);
    let g = pattern_graph(&ring(64), 4096);
    assert_eq!(greedy_map(&g, &dense), greedy_map(&g, &implicit));
    assert_eq!(
        scotch_like_map(&g, &dense, 5),
        scotch_like_map(&g, &implicit, 5)
    );
}

/// Both oracles over `cores` of an arbitrary cluster.
fn oracles_over(cluster: &Cluster, cores: &[CoreId]) -> (DistanceMatrix, ImplicitDistance) {
    let cfg = DistanceConfig::default();
    (
        DistanceMatrix::build(cluster, cores, &cfg),
        ImplicitDistance::build(cluster, cores, &cfg),
    )
}

/// A random connected switch graph of `switches` switches hosting `nodes`
/// GPC nodes. A random spanning tree plus a few extra links keeps it
/// connected; nodes are dealt out in short runs to a random subset of the
/// switches, so some switches host nothing and the others host several
/// non-contiguous runs of node ids.
fn random_irregular(switches: usize, nodes: usize, seed: u64) -> Cluster {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = switches as u32;
    let mut links: Vec<(u32, u32, u32)> = (1..s)
        .map(|b| (rng.gen_range(0..b), b, rng.gen_range(1..3)))
        .collect();
    for _ in 0..rng.gen_range(0..switches) {
        let (a, b) = (rng.gen_range(0..s), rng.gen_range(0..s));
        if a != b {
            links.push((a, b, 1));
        }
    }
    let hosts: Vec<u32> = (0..s).filter(|_| rng.gen_bool(0.6)).collect();
    let hosts = if hosts.is_empty() { vec![0] } else { hosts };
    let mut node_switch = Vec::with_capacity(nodes);
    while node_switch.len() < nodes {
        let switch = hosts[rng.gen_range(0..hosts.len())];
        let run = rng.gen_range(1usize..4).min(nodes - node_switch.len());
        node_switch.extend(std::iter::repeat_n(switch, run));
    }
    let g = IrregularFabric::new(IrregularConfig {
        switches,
        node_switch,
        links,
    })
    .unwrap();
    Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(g), nodes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random connected irregular fabrics (3–12 switches): every heuristic
    /// through all three paths, on the whole cluster and on a fragmented
    /// `step_by(3)` allocation cut to a power of two so RDMH applies.
    #[test]
    fn all_paths_agree_on_random_irregular(
        switches in 3usize..13,
        nodes_log2 in 1u32..5,
        fabric_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let cluster = random_irregular(switches, 1 << nodes_log2, fabric_seed);
        let block: Vec<CoreId> = cluster.cores().collect();
        let (dense, implicit) = oracles_over(&cluster, &block);
        assert_all_paths_agree(&dense, &implicit, seed)?;

        let sparse: Vec<CoreId> = cluster.cores().step_by(3).collect();
        let p = 1 << sparse.len().ilog2();
        let (dense, implicit) = oracles_over(&cluster, &sparse[..p]);
        assert_all_paths_agree(&dense, &implicit, seed)?;
    }
}

/// P = 4096 on a degraded GPC fabric: `gpc(512)` exported as a switch graph
/// with one trunk-1 (leaf–line) cable removed, rebuilt as an irregular
/// fabric. Fixed seed; all five heuristics through all three paths.
#[test]
fn all_paths_agree_p4096_degraded_gpc() {
    let mut cfg = Cluster::gpc(512).fabric().to_switch_graph();
    let cut = cfg
        .links
        .iter()
        .position(|&(a, _, t)| a == 3 && t == 1)
        .expect("leaf 3 has trunk-1 uplinks");
    cfg.links.remove(cut);
    let g = IrregularFabric::new(cfg).unwrap();
    let cluster = Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(g), 512).unwrap();
    let cores: Vec<CoreId> = cluster.cores().collect();
    let (dense, implicit) = oracles_over(&cluster, &cores);
    assert_all_paths_agree(&dense, &implicit, 42).unwrap();
}
