//! Initial process layouts (§VI-A): how the resource manager binds ranks to
//! cores before any reordering happens.
//!
//! Two orthogonal choices, as in SLURM/Hydra:
//!
//! * **node order** — `block` packs consecutive ranks onto the same node;
//!   `cyclic` deals consecutive ranks across nodes round-robin;
//! * **intra-node order** — `bunch` packs consecutive visits onto the same
//!   socket; `scatter` deals them across sockets round-robin.
//!
//! The paper evaluates all four combinations (block-bunch, block-scatter,
//! cyclic-bunch, cyclic-scatter).

use tarr_topo::{Cluster, CoreId, NodeId};

/// Rank-to-node assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeOrder {
    /// Fill each node before moving on.
    Block,
    /// Round-robin across nodes.
    Cyclic,
}

/// Rank-to-socket assignment policy within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntraOrder {
    /// Fill each socket before moving on.
    Bunch,
    /// Round-robin across sockets.
    Scatter,
}

/// One of the four initial layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InitialMapping {
    /// Node-level policy.
    pub node: NodeOrder,
    /// Socket-level policy.
    pub intra: IntraOrder,
}

impl InitialMapping {
    /// block-bunch: the layout closest to the natural core numbering.
    pub const BLOCK_BUNCH: InitialMapping = InitialMapping {
        node: NodeOrder::Block,
        intra: IntraOrder::Bunch,
    };
    /// block-scatter.
    pub const BLOCK_SCATTER: InitialMapping = InitialMapping {
        node: NodeOrder::Block,
        intra: IntraOrder::Scatter,
    };
    /// cyclic-bunch.
    pub const CYCLIC_BUNCH: InitialMapping = InitialMapping {
        node: NodeOrder::Cyclic,
        intra: IntraOrder::Bunch,
    };
    /// cyclic-scatter.
    pub const CYCLIC_SCATTER: InitialMapping = InitialMapping {
        node: NodeOrder::Cyclic,
        intra: IntraOrder::Scatter,
    };

    /// All four layouts, in the paper's presentation order.
    pub const ALL: [InitialMapping; 4] = [
        InitialMapping::BLOCK_BUNCH,
        InitialMapping::BLOCK_SCATTER,
        InitialMapping::CYCLIC_BUNCH,
        InitialMapping::CYCLIC_SCATTER,
    ];

    /// Display name ("block-bunch" etc.).
    pub fn name(&self) -> &'static str {
        match (self.node, self.intra) {
            (NodeOrder::Block, IntraOrder::Bunch) => "block-bunch",
            (NodeOrder::Block, IntraOrder::Scatter) => "block-scatter",
            (NodeOrder::Cyclic, IntraOrder::Bunch) => "cyclic-bunch",
            (NodeOrder::Cyclic, IntraOrder::Scatter) => "cyclic-scatter",
        }
    }

    /// Produce the rank→core binding for `p` processes on `cluster`.
    ///
    /// # Panics
    /// Panics unless `p` is a positive multiple of the cores per node and at
    /// most the cluster size (whole nodes are allocated, as on GPC).
    pub fn layout(&self, cluster: &Cluster, p: usize) -> Vec<CoreId> {
        let cpn = cluster.cores_per_node();
        assert!(
            p > 0 && p.is_multiple_of(cpn),
            "p must be a positive multiple of {cpn}"
        );
        let nodes = p / cpn;
        assert!(
            nodes <= cluster.num_nodes(),
            "cluster has only {} nodes",
            cluster.num_nodes()
        );
        let node_list: Vec<NodeId> = (0..nodes).map(NodeId::from_idx).collect();
        self.layout_on_nodes(cluster, &node_list)
    }

    /// Produce the rank→core binding on an **explicit node allocation** —
    /// the fragmented, scattered allocations a busy resource manager hands
    /// out (the paper's motivation: "a job can initially be mapped in quite
    /// a large number of different ways"). All cores of every listed node
    /// are used; the block/cyclic and bunch/scatter policies apply over the
    /// allocation in list order.
    ///
    /// # Panics
    /// Panics if the node list is empty, contains duplicates, or references
    /// nodes outside the cluster.
    pub fn layout_on_nodes(&self, cluster: &Cluster, alloc: &[NodeId]) -> Vec<CoreId> {
        assert!(!alloc.is_empty(), "empty allocation");
        {
            let mut sorted: Vec<_> = alloc.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), alloc.len(), "duplicate node in allocation");
            assert!(
                sorted.last().unwrap().idx() < cluster.num_nodes(),
                "node outside cluster"
            );
        }
        let cpn = cluster.cores_per_node();
        let nodes = alloc.len();
        let p = nodes * cpn;
        let topo = cluster.node_topology();
        let sockets = topo.sockets;
        let per_socket = topo.cores_per_socket * topo.smt;

        (0..p)
            .map(|r| {
                let (node_idx, visit) = match self.node {
                    NodeOrder::Block => (r / cpn, r % cpn),
                    NodeOrder::Cyclic => (r % nodes, r / nodes),
                };
                let local = match self.intra {
                    IntraOrder::Bunch => visit,
                    IntraOrder::Scatter => {
                        let socket = visit % sockets;
                        let within = visit / sockets;
                        socket * per_socket + within
                    }
                };
                cluster.core_id(alloc[node_idx], local)
            })
            .collect()
    }
}

/// MVAPICH's built-in rank reordering for recursive doubling: a fixed
/// block→cyclic permutation, with no topology input (§V-A.1). Returned in the
/// usual `m[new_rank] = slot` convention for a job of `p` ranks on nodes of
/// `cpn` cores.
pub fn mvapich_cyclic_reorder(p: usize, cpn: usize) -> Vec<u32> {
    assert!(
        p > 0 && p.is_multiple_of(cpn),
        "p must be a multiple of cpn"
    );
    let nodes = p / cpn;
    (0..p)
        .map(|r| ((r % nodes) * cpn + r / nodes) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_permutation;

    #[test]
    fn block_bunch_is_natural_order() {
        let c = Cluster::gpc(2);
        let l = InitialMapping::BLOCK_BUNCH.layout(&c, 16);
        let expect: Vec<CoreId> = (0..16).map(CoreId::from_idx).collect();
        assert_eq!(l, expect);
    }

    #[test]
    fn block_scatter_alternates_sockets() {
        let c = Cluster::gpc(1);
        let l = InitialMapping::BLOCK_SCATTER.layout(&c, 8);
        // visits: s0c0, s1c0, s0c1, s1c1, …
        let locals: Vec<u32> = l.iter().map(|c| c.0).collect();
        assert_eq!(locals, vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    fn cyclic_bunch_deals_across_nodes() {
        let c = Cluster::gpc(2);
        let l = InitialMapping::CYCLIC_BUNCH.layout(&c, 16);
        // Rank 0 → node0 core0, rank 1 → node1 core0, rank 2 → node0 core1…
        assert_eq!(l[0], CoreId(0));
        assert_eq!(l[1], CoreId(8));
        assert_eq!(l[2], CoreId(1));
        assert_eq!(l[3], CoreId(9));
    }

    #[test]
    fn cyclic_scatter_combines_both() {
        let c = Cluster::gpc(2);
        let l = InitialMapping::CYCLIC_SCATTER.layout(&c, 16);
        // Rank 0 → node0 s0c0; rank 2 (second visit of node0) → s1c0 = core 4.
        assert_eq!(l[0], CoreId(0));
        assert_eq!(l[2], CoreId(4));
        assert_eq!(l[4], CoreId(1));
    }

    #[test]
    fn all_layouts_are_bijections() {
        let c = Cluster::gpc(4);
        for m in InitialMapping::ALL {
            let l = m.layout(&c, 32);
            let mut ids: Vec<u32> = l.iter().map(|c| c.0).collect();
            ids.sort_unstable();
            let expect: Vec<u32> = (0..32).collect();
            assert_eq!(ids, expect, "{}", m.name());
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = InitialMapping::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "block-bunch",
                "block-scatter",
                "cyclic-bunch",
                "cyclic-scatter"
            ]
        );
    }

    #[test]
    fn mvapich_reorder_is_cyclic_permutation() {
        let m = mvapich_cyclic_reorder(16, 8);
        assert!(is_permutation(&m));
        // New rank 0 on slot 0, new rank 1 on node 1's first slot.
        assert_eq!(m[0], 0);
        assert_eq!(m[1], 8);
        assert_eq!(m[2], 1);
    }

    #[test]
    fn fragmented_allocation_layout() {
        use tarr_topo::NodeId;
        let c = Cluster::gpc(64);
        // A scattered allocation: nodes 3, 17, 40, 61 (crossing leaves).
        let alloc = [NodeId(3), NodeId(17), NodeId(40), NodeId(61)];
        let l = InitialMapping::BLOCK_BUNCH.layout_on_nodes(&c, &alloc);
        assert_eq!(l.len(), 32);
        // Ranks 0..8 on node 3, 8..16 on node 17, …
        assert_eq!(l[0], CoreId(24));
        assert_eq!(l[8], CoreId(17 * 8));
        assert_eq!(l[31], CoreId(61 * 8 + 7));
        // Cyclic over the same allocation deals across the listed nodes.
        let lc = InitialMapping::CYCLIC_BUNCH.layout_on_nodes(&c, &alloc);
        assert_eq!(lc[0], CoreId(24));
        assert_eq!(lc[1], CoreId(17 * 8));
    }

    #[test]
    fn layout_on_nodes_matches_layout_for_prefix() {
        use tarr_topo::NodeId;
        let c = Cluster::gpc(8);
        for m in InitialMapping::ALL {
            let full = m.layout(&c, 32);
            let alloc: Vec<NodeId> = (0..4).map(NodeId::from_idx).collect();
            assert_eq!(full, m.layout_on_nodes(&c, &alloc), "{}", m.name());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_allocation_rejected() {
        use tarr_topo::NodeId;
        let c = Cluster::gpc(4);
        InitialMapping::BLOCK_BUNCH.layout_on_nodes(&c, &[NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn partial_nodes_rejected() {
        let c = Cluster::gpc(2);
        InitialMapping::BLOCK_BUNCH.layout(&c, 12);
    }
}
