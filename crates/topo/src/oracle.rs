//! Distance oracles — the query interface the mapping layer consumes.
//!
//! The dense [`DistanceMatrix`] answers `d(i, j)` from a precomputed `P × P`
//! table: exact and fast, but quadratic in memory (128 MiB of `u16` at
//! 8192 processes, 8 GiB at 65 536), which caps the mapping pipeline around
//! 4096 ranks. [`ImplicitDistance`] answers the same queries in O(1) from
//! O(P) state: one precomputed [`SlotPath`] (physical core, L2 group,
//! socket, node and leaf keys) per slot, plus a per-leaf table of the leaves
//! reachable through a shared line switch. The two implementations are
//! differentially tested to agree cell-for-cell, and the dense matrix is
//! kept as the reference/validation path.
//!
//! [`DistanceOracle`] abstracts over both so every heuristic, the general
//! mappers and the cost function run unchanged against either.
//!
//! An oracle is never patched after it is built. A fault that moves a rank
//! or changes the fabric gets a fresh [`ImplicitDistance::build`] over the
//! new binding, which is O(P) and the reference any cheaper repair would
//! have to match.

use crate::cluster::{Cluster, Fabric};
use crate::distance::{DistanceConfig, DistanceMatrix};
use crate::ids::CoreId;

/// Pairwise slot distances for a job's allocated cores.
///
/// Slot indices are positions in the job's allocated core list (allocation
/// order), exactly as in [`DistanceMatrix`]. Implementations must be
/// symmetric (`d(i, j) == d(j, i)`) and agree with
/// [`core_distance`](crate::distance::core_distance) on the underlying cores.
pub trait DistanceOracle {
    /// Number of slots (allocated cores).
    fn len(&self) -> usize;

    /// Whether the job has no allocated cores.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance between slots `i` and `j`.
    fn distance(&self, i: usize, j: usize) -> u16;

    /// Physical core occupied by `slot`.
    fn slot_core(&self, slot: usize) -> CoreId;
}

impl DistanceOracle for DistanceMatrix {
    #[inline]
    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }

    #[inline]
    fn distance(&self, i: usize, j: usize) -> u16 {
        self.get(i, j)
    }

    #[inline]
    fn slot_core(&self, slot: usize) -> CoreId {
        self.core(slot)
    }
}

/// Position of one slot in the physical hierarchy, with globally unique keys
/// per level (two slots share a level iff the keys are equal).
///
/// With `cores_per_l2 == 1` the L2 key coincides with the physical-core key,
/// so the "same L2, different core" relation is automatically empty —
/// matching [`core_distance`](crate::distance::core_distance), which only reports the L2 level on
/// topologies that have one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPath {
    /// Global physical-core key (`node · phys_cores_per_node + core`).
    pub core: u32,
    /// Global L2-group key (`node · l2_groups_per_node + group`).
    pub l2: u32,
    /// Global socket key (`node · sockets_per_node + socket`).
    pub socket: u32,
    /// Hosting node.
    pub node: u32,
    /// Hosting leaf switch (fat-tree) or the node again (torus, where the
    /// "leaf" level is the node itself).
    pub leaf: u32,
}

/// O(P)-memory distance oracle answering queries directly from the cluster
/// hierarchy.
///
/// Build cost is O(P) for the slot paths plus the line-sharing table over
/// the fabric's L leaf switches, built from per-line member lists
/// ([`FatTree::line_peer_table`](crate::fattree::FatTree::line_peer_table))
/// in time proportional to the peers it stores. That table is not
/// negligible: on a GPC fabric a leaf shares a line with about a sixth of
/// the others, so it holds about L²/6 entries (12,240 at the 274 leaves of
/// 65,536 ranks), and the O(L²) all-pairs test that used to build it took
/// 3.6–4.0 ms there. Everything else fits in a few machine words per slot
/// regardless of P.
#[derive(Debug, Clone)]
pub struct ImplicitDistance {
    cluster: Cluster,
    cfg: DistanceConfig,
    cores: Vec<CoreId>,
    paths: Vec<SlotPath>,
    /// Fat-tree only: for each leaf, the sorted *other* leaves sharing a
    /// line switch with it (⇒ `same_line` distance). Empty for torus.
    line_peers: Vec<Vec<u32>>,
}

impl ImplicitDistance {
    /// Build the oracle for the given allocated cores.
    ///
    /// # Panics
    /// Panics if `cores` is empty or contains duplicates, or if `cfg` is
    /// invalid — the same contract as [`DistanceMatrix::build`].
    pub fn build(cluster: &Cluster, cores: &[CoreId], cfg: &DistanceConfig) -> Self {
        Self::try_build(cluster, cores, cfg).expect("invalid distance-oracle inputs")
    }

    /// Fallible [`build`](Self::build) for externally-sourced allocations:
    /// rejects empty/duplicated/out-of-range core lists and invalid distance
    /// configurations with a typed error instead of panicking.
    pub fn try_build(
        cluster: &Cluster,
        cores: &[CoreId],
        cfg: &DistanceConfig,
    ) -> Result<Self, crate::error::TopoError> {
        cfg.validate()?;
        if cores.is_empty() {
            return Err(crate::error::TopoError::EmptyAllocation);
        }
        {
            // Layouts usually list cores in ascending order, which needs no
            // sorted copy to find the largest core or a duplicate.
            let copy: Vec<CoreId>;
            let sorted = if cores.windows(2).all(|w| w[0] < w[1]) {
                cores
            } else {
                copy = {
                    let mut v = cores.to_vec();
                    v.sort_unstable();
                    v
                };
                &copy
            };
            if let Some(&last) = sorted.last() {
                if last.idx() >= cluster.total_cores() {
                    return Err(crate::error::TopoError::CoreOutOfRange {
                        core: last.idx(),
                        total_cores: cluster.total_cores(),
                    });
                }
            }
            if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
                return Err(crate::error::TopoError::DuplicateCore { core: dup[0].idx() });
            }
        }

        let _span = tarr_trace::span("topo.distance.build")
            .arg("p", cores.len())
            .arg("kind", "implicit");
        let deriver = PathDeriver::new(cluster);
        let paths: Vec<SlotPath> = cores.iter().map(|&c| deriver.path(c)).collect();

        let line_peers = match cluster.fabric() {
            Fabric::FatTree(f) => f.line_peer_table(),
            Fabric::Torus(_) | Fabric::Irregular(_) => Vec::new(),
        };

        Ok(ImplicitDistance {
            cluster: cluster.clone(),
            cfg: cfg.clone(),
            cores: cores.to_vec(),
            paths,
            line_peers,
        })
    }

    /// The cluster the oracle was built over.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The distance configuration in effect.
    pub fn config(&self) -> &DistanceConfig {
        &self.cfg
    }

    /// The allocated cores, in slot order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Per-slot hierarchy paths, in slot order.
    pub fn paths(&self) -> &[SlotPath] {
        &self.paths
    }

    /// Sorted leaves sharing a line switch with `leaf` (fat-tree only;
    /// excludes `leaf` itself).
    ///
    /// # Panics
    /// Panics on a torus fabric.
    pub fn line_peers(&self, leaf: u32) -> &[u32] {
        assert!(
            matches!(self.cluster.fabric(), Fabric::FatTree(_)),
            "line switches exist only on fat-tree fabrics"
        );
        &self.line_peers[leaf as usize]
    }
}

/// Position of a core in the cluster hierarchy, as the oracle build derives
/// it. The per-cluster work is done once: the node-local part of every key
/// is tabulated per local PU index, so a core costs one division for its
/// node and one for its leaf.
struct PathDeriver<'a> {
    cluster: &'a Cluster,
    cores_per_node: u32,
    phys_per_node: u32,
    l2_per_node: u32,
    sockets: u32,
    /// Per node-local PU index: its (physical core, L2 group, socket)
    /// within the node.
    local: Vec<(u32, u32, u32)>,
}

impl<'a> PathDeriver<'a> {
    fn new(cluster: &'a Cluster) -> Self {
        let nt = cluster.node_topology();
        let phys_per_node = (nt.sockets * nt.cores_per_socket) as u32;
        PathDeriver {
            cluster,
            cores_per_node: cluster.cores_per_node() as u32,
            phys_per_node,
            l2_per_node: phys_per_node / nt.cores_per_l2 as u32,
            sockets: nt.sockets as u32,
            local: (0..cluster.cores_per_node())
                .map(|l| {
                    (
                        nt.core_of_local(l) as u32,
                        nt.l2_group_of_local(l) as u32,
                        nt.socket_of_local(l) as u32,
                    )
                })
                .collect(),
        }
    }

    #[inline]
    fn path(&self, core: CoreId) -> SlotPath {
        let node = core.0 / self.cores_per_node;
        let (phys, l2, socket) = self.local[(core.0 - node * self.cores_per_node) as usize];
        let leaf = match self.cluster.fabric() {
            Fabric::FatTree(f) => f.leaf_of(crate::ids::NodeId(node)).idx() as u32,
            Fabric::Torus(_) => node,
            Fabric::Irregular(g) => g.switch_of(crate::ids::NodeId(node)),
        };
        SlotPath {
            core: node * self.phys_per_node + phys,
            l2: node * self.l2_per_node + l2,
            socket: node * self.sockets + socket,
            node,
            leaf,
        }
    }
}

/// A view of a parent oracle restricted to a subset of its slots — the
/// oracle analogue of [`DistanceMatrix::submatrix`], without the O(n²) copy.
///
/// Slot `i` of the view is slot `slots[i]` of the parent, so hierarchical
/// mapping can run the leader or intra-node heuristics over any oracle
/// backend with the exact distances the dense submatrix would contain.
#[derive(Debug, Clone)]
pub struct SubsetOracle<'a, O: DistanceOracle> {
    parent: &'a O,
    slots: Vec<usize>,
}

impl<'a, O: DistanceOracle> SubsetOracle<'a, O> {
    /// Restrict `parent` to `slots` (view slot `i` ↦ parent slot `slots[i]`).
    ///
    /// # Panics
    /// Panics if `slots` is empty, contains duplicates, or indexes past the
    /// parent — the same contract as [`DistanceMatrix::submatrix`].
    pub fn new(parent: &'a O, slots: &[usize]) -> Self {
        assert!(!slots.is_empty(), "empty slot subset");
        {
            let mut sorted = slots.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), slots.len(), "duplicate slots in subset");
            assert!(*sorted.last().unwrap() < parent.len(), "slot out of range");
        }
        SubsetOracle {
            parent,
            slots: slots.to_vec(),
        }
    }

    /// The parent slots the view covers, in view-slot order.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }
}

impl<O: DistanceOracle> DistanceOracle for SubsetOracle<'_, O> {
    #[inline]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn distance(&self, i: usize, j: usize) -> u16 {
        self.parent.distance(self.slots[i], self.slots[j])
    }

    #[inline]
    fn slot_core(&self, slot: usize) -> CoreId {
        self.parent.slot_core(self.slots[slot])
    }
}

impl DistanceOracle for ImplicitDistance {
    #[inline]
    fn len(&self) -> usize {
        self.paths.len()
    }

    fn distance(&self, i: usize, j: usize) -> u16 {
        let (a, b) = (&self.paths[i], &self.paths[j]);
        if a.core == b.core {
            return self.cfg.same_core;
        }
        if a.l2 == b.l2 {
            return self.cfg.l2;
        }
        if a.socket == b.socket {
            return self.cfg.socket;
        }
        if a.node == b.node {
            return self.cfg.node;
        }
        match self.cluster.fabric() {
            Fabric::FatTree(_) => {
                if a.leaf == b.leaf {
                    self.cfg.same_leaf
                } else if self.line_peers[a.leaf as usize]
                    .binary_search(&b.leaf)
                    .is_ok()
                {
                    self.cfg.same_line
                } else {
                    self.cfg.cross_spine
                }
            }
            Fabric::Torus(t) => {
                let hops = t.hops(crate::ids::NodeId(a.node), crate::ids::NodeId(b.node)) as u16;
                self.cfg.same_leaf + (hops - 1) * self.cfg.torus_hop
            }
            // The slot's `leaf` key is its hosting switch; the fabric's
            // precomputed BFS levels answer the hop count in O(1).
            Fabric::Irregular(g) => {
                let hops = g.switch_hops(a.leaf, b.leaf);
                self.cfg.same_leaf + hops * self.cfg.torus_hop
            }
        }
    }

    #[inline]
    fn slot_core(&self, slot: usize) -> CoreId {
        self.cores[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeTopology;

    fn check_equivalence(cluster: &Cluster, cores: &[CoreId]) {
        let cfg = DistanceConfig::default();
        let dense = DistanceMatrix::build(cluster, cores, &cfg);
        let implicit = ImplicitDistance::build(cluster, cores, &cfg);
        assert_eq!(DistanceOracle::len(&dense), implicit.len());
        for i in 0..cores.len() {
            assert_eq!(dense.slot_core(i), implicit.slot_core(i));
            for j in 0..cores.len() {
                assert_eq!(
                    dense.distance(i, j),
                    implicit.distance(i, j),
                    "slots {i},{j} (cores {:?},{:?})",
                    cores[i],
                    cores[j]
                );
            }
        }
    }

    #[test]
    fn matches_dense_on_gpc_block() {
        let c = Cluster::gpc(64);
        let cores: Vec<CoreId> = c.cores().collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn matches_dense_on_gpc_cyclic() {
        let c = Cluster::gpc(8);
        let p = c.total_cores();
        let cores: Vec<CoreId> = (0..p)
            .map(|r| CoreId::from_idx((r % 8) * c.cores_per_node() + r / 8))
            .collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn matches_dense_on_manycore_l2_groups() {
        let c = Cluster::new(crate::cluster::ClusterConfig {
            node: NodeTopology::manycore(),
            fabric: crate::fattree::FatTreeConfig::tiny(),
            num_nodes: 4,
        });
        let cores: Vec<CoreId> = c.cores().collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn matches_dense_on_irregular() {
        use crate::irregular::{IrregularConfig, IrregularFabric};
        // A 4-switch ring with three nodes per switch.
        let g = IrregularFabric::new(IrregularConfig {
            switches: 4,
            node_switch: (0..12).map(|n| n / 3).collect(),
            links: vec![(0, 1, 2), (1, 2, 1), (2, 3, 2), (0, 3, 1)],
        })
        .unwrap();
        let c = Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(g), 12).unwrap();
        let cores: Vec<CoreId> = c.cores().collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn matches_dense_on_torus() {
        let c = Cluster::with_torus(NodeTopology::gpc(), [3, 4, 2]);
        let cores: Vec<CoreId> = c.cores().collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn matches_dense_on_smt_siblings() {
        let c = Cluster::new(crate::cluster::ClusterConfig {
            node: NodeTopology {
                sockets: 2,
                cores_per_socket: 2,
                cores_per_l2: 2,
                smt: 2,
            },
            fabric: crate::fattree::FatTreeConfig::tiny(),
            num_nodes: 3,
        });
        let cores: Vec<CoreId> = c.cores().collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn partial_allocations_agree() {
        // A fragmented allocation: every third core of a 16-node cluster.
        let c = Cluster::gpc(16);
        let cores: Vec<CoreId> = c.cores().step_by(3).collect();
        check_equivalence(&c, &cores);
    }

    #[test]
    fn line_peers_symmetric_and_sorted() {
        let c = Cluster::gpc(512);
        let cores: Vec<CoreId> = c.cores().take(64).collect();
        let o = ImplicitDistance::build(&c, &cores, &DistanceConfig::default());
        let leaves = c.fabric().as_fattree().unwrap().num_leaves() as u32;
        for a in 0..leaves {
            let peers = o.line_peers(a);
            assert!(peers.windows(2).all(|w| w[0] < w[1]), "leaf {a} unsorted");
            for &b in peers {
                assert!(o.line_peers(b).binary_search(&a).is_ok(), "{a}<->{b}");
            }
        }
    }

    #[test]
    fn subset_matches_submatrix() {
        let c = Cluster::gpc(8);
        let cores: Vec<CoreId> = c.cores().collect();
        let cfg = DistanceConfig::default();
        let dense = DistanceMatrix::build(&c, &cores, &cfg);
        let implicit = ImplicitDistance::build(&c, &cores, &cfg);
        let slots: Vec<usize> = (0..cores.len()).step_by(5).collect();
        let sub = dense.submatrix(&slots);
        for parent in [
            &SubsetOracle::new(&dense, &slots) as &dyn DistanceOracle,
            &SubsetOracle::new(&implicit, &slots),
        ] {
            assert_eq!(parent.len(), sub.len());
            for i in 0..slots.len() {
                assert_eq!(parent.slot_core(i), sub.core(i));
                for j in 0..slots.len() {
                    assert_eq!(parent.distance(i, j), sub.get(i, j), "{i},{j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate slots")]
    fn subset_rejects_duplicates() {
        let c = Cluster::gpc(2);
        let cores: Vec<CoreId> = c.cores().collect();
        let o = ImplicitDistance::build(&c, &cores, &DistanceConfig::default());
        SubsetOracle::new(&o, &[0, 1, 0]);
    }

    #[test]
    fn bad_allocations_rejected_with_typed_errors() {
        use crate::error::TopoError;
        let c = Cluster::gpc(2);
        let cfg = DistanceConfig::default();
        assert_eq!(
            ImplicitDistance::try_build(&c, &[CoreId(0), CoreId(1), CoreId(0)], &cfg).unwrap_err(),
            TopoError::DuplicateCore { core: 0 }
        );
        assert_eq!(
            ImplicitDistance::try_build(&c, &[], &cfg).unwrap_err(),
            TopoError::EmptyAllocation
        );
        assert_eq!(
            ImplicitDistance::try_build(&c, &[CoreId(99)], &cfg).unwrap_err(),
            TopoError::CoreOutOfRange {
                core: 99,
                total_cores: 16
            }
        );
    }

    #[test]
    #[should_panic(expected = "DuplicateCore")]
    fn duplicate_cores_panic_via_infallible_build() {
        let c = Cluster::gpc(2);
        ImplicitDistance::build(
            &c,
            &[CoreId(0), CoreId(1), CoreId(0)],
            &DistanceConfig::default(),
        );
    }
}
