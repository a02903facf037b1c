//! Differential tests: [`ImplicitDistance`] must agree cell-for-cell with
//! the dense [`DistanceMatrix`] reference on randomly fragmented
//! allocations, over both fabric kinds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tarr_topo::{
    Cluster, CoreId, DistanceConfig, DistanceMatrix, DistanceOracle, ImplicitDistance, NodeTopology,
};

/// A random fragmented allocation: shuffle all cores of the cluster with a
/// seeded RNG and keep roughly `1/frac` of them (at least one).
fn random_allocation(cluster: &Cluster, seed: u64, frac: usize) -> Vec<CoreId> {
    let mut cores: Vec<CoreId> = cluster.cores().collect();
    cores.shuffle(&mut StdRng::seed_from_u64(seed));
    let keep = (cores.len() / frac).max(1);
    cores.truncate(keep);
    cores
}

fn assert_oracles_agree(cluster: &Cluster, cores: &[CoreId]) -> Result<(), TestCaseError> {
    let cfg = DistanceConfig::default();
    let dense = DistanceMatrix::build(cluster, cores, &cfg);
    let implicit = ImplicitDistance::build(cluster, cores, &cfg);
    prop_assert_eq!(DistanceOracle::len(&dense), implicit.len());
    for i in 0..cores.len() {
        prop_assert_eq!(dense.slot_core(i), implicit.slot_core(i));
        for j in 0..cores.len() {
            prop_assert_eq!(
                dense.distance(i, j),
                implicit.distance(i, j),
                "slots {},{} (cores {:?},{:?})",
                i,
                j,
                cores[i],
                cores[j]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fat-tree fabric, GPC nodes: random fragmented allocations.
    #[test]
    fn implicit_matches_dense_on_fattree(
        nodes in 1usize..40,
        seed in any::<u64>(),
        frac in 1usize..5,
    ) {
        let cluster = Cluster::gpc(nodes);
        let cores = random_allocation(&cluster, seed, frac);
        assert_oracles_agree(&cluster, &cores)?;
    }

    /// Torus fabric: random dimensions and fragmented allocations.
    #[test]
    fn implicit_matches_dense_on_torus(
        dx in 1usize..5,
        dy in 1usize..5,
        dz in 1usize..4,
        seed in any::<u64>(),
        frac in 1usize..4,
    ) {
        let cluster = Cluster::with_torus(NodeTopology::gpc(), [dx, dy, dz]);
        let cores = random_allocation(&cluster, seed, frac);
        assert_oracles_agree(&cluster, &cores)?;
    }

    /// Many-core nodes with real L2 groups on a small fat-tree.
    #[test]
    fn implicit_matches_dense_with_l2_groups(
        nodes in 1usize..6,
        seed in any::<u64>(),
        frac in 1usize..4,
    ) {
        let cluster = manycore_tiny(nodes);
        let cores = random_allocation(&cluster, seed, frac);
        assert_oracles_agree(&cluster, &cores)?;
    }
}

/// Many-core nodes (real L2 groups) on the tiny fat-tree fabric.
fn manycore_tiny(nodes: usize) -> Cluster {
    Cluster::new(tarr_topo::ClusterConfig {
        node: NodeTopology::manycore(),
        fabric: tarr_topo::FatTreeConfig::tiny(),
        num_nodes: nodes,
    })
}

/// The line-peer table [`ImplicitDistance`] walks must hold, for every
/// leaf, exactly the other leaves `leaves_share_line` accepts, ascending.
fn assert_line_peers_match(tree: &tarr_topo::FatTree) -> Result<(), TestCaseError> {
    let table = tree.line_peer_table();
    prop_assert_eq!(table.len(), tree.num_leaves());
    for (a, peers) in table.iter().enumerate() {
        let expect: Vec<u32> = (0..tree.num_leaves())
            .filter(|&b| {
                b != a
                    && tree.leaves_share_line(
                        tarr_topo::LeafId::from_idx(a),
                        tarr_topo::LeafId::from_idx(b),
                    )
            })
            .map(|b| b as u32)
            .collect();
        prop_assert_eq!(peers, &expect, "leaf {}", a);
    }
    Ok(())
}

#[test]
fn line_peers_match_pairwise_test_on_gpc_and_tiny() {
    for (cfg, nodes) in [
        (tarr_topo::FatTreeConfig::gpc(), 8192),
        (tarr_topo::FatTreeConfig::gpc(), 31),
        (tarr_topo::FatTreeConfig::tiny(), 64),
        (tarr_topo::FatTreeConfig::tiny(), 1),
    ] {
        assert_line_peers_match(&tarr_topo::FatTree::new(cfg, nodes)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random wirings, including ones where several uplinks of one leaf
    /// land on the same line switch (more uplinks than lines, or offsets
    /// that wrap onto each other).
    #[test]
    fn line_peers_match_pairwise_test_on_random_wirings(
        nodes_per_leaf in 1usize..4,
        core_switches in 1usize..4,
        uplinks_per_core in 1usize..8,
        lines_per_core in 1usize..6,
        num_nodes in 1usize..120,
    ) {
        let cfg = tarr_topo::FatTreeConfig {
            nodes_per_leaf,
            core_switches,
            uplinks_per_core,
            lines_per_core,
            spines_per_core: 1,
            line_spine_links: 1,
        };
        assert_line_peers_match(&tarr_topo::FatTree::new(cfg, num_nodes))?;
    }
}
