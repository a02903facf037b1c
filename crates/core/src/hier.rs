//! Hierarchical rank reordering: leaders and node-local ranks are mapped
//! *separately*, as the paper does ("with a hierarchical approach, rank
//! reordering is used at a smaller scale as it is applied to node-leaders and
//! local processes separately", §VI-A.2).

use tarr_collectives::allgather::{InterAlg, IntraPattern};
use tarr_collectives::{pattern_graph, AllgatherAlg};
use tarr_mapping::{bbmh, bgmh, rdmh, rmh, scotch_like_map};
use tarr_topo::{DistanceOracle, SubsetOracle};

/// Which engine computes the leader and intra-node mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierMapper {
    /// The paper's fine-tuned heuristics: RDMH/RMH for leaders, and inside
    /// nodes the subtree-contiguous BBMH traversal, which serves **both**
    /// binomial phases of the node (gather and broadcast share the same tree
    /// edge set; BBMH keeps whole subtrees socket-local, so the broadcast
    /// phase's many concurrent full-vector transfers stay off the QPI link).
    Heuristic,
    /// The paper's literal phase-1 choice: BGMH (heaviest-gather-edge-first)
    /// for the intra-node mapping. It minimizes the *gather* phase's weighted
    /// distance but relegates the light tree edges — over which the
    /// broadcast phase later pushes full vectors — to the inter-socket link.
    /// Kept as an ablation.
    HeuristicBgmhIntra,
    /// The Scotch-like dual-recursive-bipartitioning baseline.
    ScotchLike,
}

/// Compute the global mapping `m[new_rank] = slot` for a hierarchical
/// allgather over contiguous node groups.
///
/// * The **leader order** is remapped with the heuristic matching the
///   inter-leader algorithm (RDMH for recursive doubling, RMH for the ring)
///   over the leaders' distance matrix;
/// * **node-local ranks** are remapped with BGMH when the intra pattern is
///   binomial (the gather phase dominates, §VI-A.2); a linear pattern leaves
///   no structure to optimize, so locals keep their order — exactly the
///   paper's observation that linear intra phases admit no intra-node
///   reordering.
///
/// Returns `None` when recursive doubling is requested with a
/// non-power-of-two leader count.
///
/// Generic over the distance backend: the leader and intra-node heuristics
/// run over [`SubsetOracle`] views, so an O(P)-memory
/// [`tarr_topo::ImplicitDistance`] session never materializes a dense
/// submatrix. View queries equal the corresponding submatrix cells, so the
/// mappings are bit-identical across backends.
pub fn hierarchical_mapping<O: DistanceOracle>(
    d: &O,
    groups: &[(u32, u32)],
    inter: InterAlg,
    intra: IntraPattern,
    mapper: HierMapper,
    seed: u64,
) -> Option<Vec<u32>> {
    let g = groups.len();
    if inter == InterAlg::RecursiveDoubling && !g.is_power_of_two() {
        return None;
    }

    // --- Leader mapping over the leaders' distances ---
    let leader_slots: Vec<usize> = groups.iter().map(|&(s, _)| s as usize).collect();
    let d_leaders = SubsetOracle::new(d, &leader_slots);
    let leader_perm: Vec<u32> = if g == 1 {
        vec![0]
    } else {
        match (mapper, inter) {
            (
                HierMapper::Heuristic | HierMapper::HeuristicBgmhIntra,
                InterAlg::RecursiveDoubling,
            ) => rdmh(&d_leaders, seed),
            (HierMapper::Heuristic | HierMapper::HeuristicBgmhIntra, InterAlg::Ring) => {
                rmh(&d_leaders, seed)
            }
            (HierMapper::ScotchLike, _) => {
                let alg = match inter {
                    InterAlg::RecursiveDoubling => AllgatherAlg::RecursiveDoubling,
                    InterAlg::Ring => AllgatherAlg::Ring,
                };
                let graph = pattern_graph(&alg.schedule(g as u32), 1);
                scotch_like_map(&graph, &d_leaders, seed)
            }
        }
    };

    // --- Intra-node mappings ---
    let mut m = Vec::with_capacity(d.len());
    for &old_group in &leader_perm {
        let (start, len) = groups[old_group as usize];
        let local_slots: Vec<usize> = (start..start + len).map(|s| s as usize).collect();
        match (intra, len) {
            (IntraPattern::Linear, _) | (_, 1) => {
                // No pattern to optimize: keep local order.
                m.extend(local_slots.iter().map(|&s| s as u32));
            }
            (IntraPattern::Binomial, _) => {
                let d_local = SubsetOracle::new(d, &local_slots);
                let local_perm = match mapper {
                    HierMapper::Heuristic => bbmh(&d_local, seed),
                    HierMapper::HeuristicBgmhIntra => bgmh(&d_local, seed),
                    HierMapper::ScotchLike => {
                        let graph = pattern_graph(
                            &tarr_collectives::gather::binomial_gather(len, tarr_topo::Rank(0)),
                            1,
                        );
                        scotch_like_map(&graph, &d_local, seed)
                    }
                };
                m.extend(local_perm.iter().map(|&j| start + j));
            }
        }
    }
    debug_assert!(tarr_mapping::is_permutation(&m));
    Some(m)
}

/// The node groups of the *reordered* communicator: same sizes, permuted by
/// the leader order. `groups` are contiguous and in ascending start order,
/// as [`tarr_collectives::allgather::groups_by_node`] returns them.
pub fn reordered_groups(groups: &[(u32, u32)], m: &[u32]) -> Vec<(u32, u32)> {
    // Recover the leader permutation from the mapping by matching group
    // starts in order.
    let mut out = Vec::with_capacity(groups.len());
    let mut next = 0u32;
    let mut idx = 0usize;
    while idx < m.len() {
        // The group containing slot m[idx]: the last one starting at or
        // before it, found by binary search over the ascending starts.
        let slot = m[idx];
        let (_, len) = groups
            .partition_point(|&(s, _)| s <= slot)
            .checked_sub(1)
            .map(|g| groups[g])
            .filter(|&(s, l)| slot < s + l)
            .expect("slot outside all groups");
        out.push((next, len));
        next += len;
        idx += len as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarr_mapping::{is_permutation, InitialMapping};
    use tarr_topo::{Cluster, DistanceConfig, DistanceMatrix};

    fn setup(nodes: usize, layout: InitialMapping) -> (DistanceMatrix, Vec<(u32, u32)>) {
        let c = Cluster::gpc(nodes);
        let p = c.total_cores();
        let cores = layout.layout(&c, p);
        let d = DistanceMatrix::build(&c, &cores, &DistanceConfig::default());
        let cpn = c.cores_per_node() as u32;
        let groups: Vec<(u32, u32)> = (0..nodes as u32).map(|n| (n * cpn, cpn)).collect();
        (d, groups)
    }

    #[test]
    fn heuristic_mapping_is_permutation() {
        let (d, groups) = setup(4, InitialMapping::BLOCK_SCATTER);
        for inter in [InterAlg::RecursiveDoubling, InterAlg::Ring] {
            for intra in [IntraPattern::Linear, IntraPattern::Binomial] {
                let m = hierarchical_mapping(&d, &groups, inter, intra, HierMapper::Heuristic, 0)
                    .unwrap();
                assert!(is_permutation(&m), "{inter:?} {intra:?}");
            }
        }
    }

    #[test]
    fn scotch_mapping_is_permutation() {
        let (d, groups) = setup(4, InitialMapping::BLOCK_SCATTER);
        let m = hierarchical_mapping(
            &d,
            &groups,
            InterAlg::Ring,
            IntraPattern::Binomial,
            HierMapper::ScotchLike,
            0,
        )
        .unwrap();
        assert!(is_permutation(&m));
    }

    #[test]
    fn mapping_preserves_node_blocks() {
        // Each new group must cover exactly one old node's slots.
        let (d, groups) = setup(4, InitialMapping::BLOCK_BUNCH);
        let m = hierarchical_mapping(
            &d,
            &groups,
            InterAlg::Ring,
            IntraPattern::Binomial,
            HierMapper::Heuristic,
            0,
        )
        .unwrap();
        for g in 0..4 {
            let slots: Vec<u32> = m[g * 8..(g + 1) * 8].to_vec();
            let node = slots[0] / 8;
            assert!(slots.iter().all(|&s| s / 8 == node), "group {g}: {slots:?}");
        }
    }

    #[test]
    fn linear_intra_keeps_local_order() {
        let (d, groups) = setup(2, InitialMapping::BLOCK_BUNCH);
        let m = hierarchical_mapping(
            &d,
            &groups,
            InterAlg::Ring,
            IntraPattern::Linear,
            HierMapper::Heuristic,
            0,
        )
        .unwrap();
        // Within each new group slots are consecutive ascending.
        for g in 0..2 {
            let slots = &m[g * 8..(g + 1) * 8];
            assert!(slots.windows(2).all(|w| w[1] == w[0] + 1), "{slots:?}");
        }
    }

    #[test]
    fn rd_with_non_power_of_two_leaders_unsupported() {
        let (d, groups) = setup(3, InitialMapping::BLOCK_BUNCH);
        assert!(hierarchical_mapping(
            &d,
            &groups,
            InterAlg::RecursiveDoubling,
            IntraPattern::Linear,
            HierMapper::Heuristic,
            0
        )
        .is_none());
    }

    #[test]
    fn reordered_groups_follow_sizes() {
        let groups = vec![(0u32, 8u32), (8, 8), (16, 8), (24, 8)];
        let (d, _) = setup(4, InitialMapping::BLOCK_BUNCH);
        let m = hierarchical_mapping(
            &d,
            &groups,
            InterAlg::Ring,
            IntraPattern::Binomial,
            HierMapper::Heuristic,
            0,
        )
        .unwrap();
        let rg = reordered_groups(&groups, &m);
        assert_eq!(rg, groups); // uniform sizes ⇒ same boundaries
    }

    /// The linear scan `reordered_groups` used before its binary search.
    fn reordered_groups_by_scan(groups: &[(u32, u32)], m: &[u32]) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(groups.len());
        let mut next = 0u32;
        let mut idx = 0usize;
        while idx < m.len() {
            let slot = m[idx];
            let (_, len) = *groups
                .iter()
                .find(|&&(s, l)| slot >= s && slot < s + l)
                .expect("slot outside all groups");
            out.push((next, len));
            next += len;
            idx += len as usize;
        }
        out
    }

    #[test]
    fn reordered_groups_binary_search_matches_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(bound)) as u32
        };
        for _ in 0..200 {
            // Contiguous groups of unequal length, 1..=12 ranks each.
            let num_groups = 1 + next(40);
            let mut groups = Vec::new();
            let mut start = 0u32;
            for _ in 0..num_groups {
                let len = 1 + next(12);
                groups.push((start, len));
                start += len;
            }
            // A mapping that places whole groups in a shuffled leader order,
            // each group's slots in a shuffled order.
            let mut order: Vec<usize> = (0..groups.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, next(i as u32 + 1) as usize);
            }
            let mut m = Vec::new();
            for &g in &order {
                let (s, l) = groups[g];
                let mut slots: Vec<u32> = (s..s + l).collect();
                for i in (1..slots.len()).rev() {
                    slots.swap(i, next(i as u32 + 1) as usize);
                }
                m.extend(slots);
            }
            assert!(is_permutation(&m));
            assert_eq!(
                reordered_groups(&groups, &m),
                reordered_groups_by_scan(&groups, &m),
                "{groups:?} {m:?}"
            );
        }
    }
}
