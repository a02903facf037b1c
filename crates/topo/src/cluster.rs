//! A cluster: a fat-tree fabric of identical multi-socket nodes.

use crate::error::TopoError;
use crate::fattree::{FatTree, FatTreeConfig};
use crate::ids::{CoreId, NodeId};
use crate::irregular::IrregularFabric;
use crate::node::{IntraLevel, NodeTopology};
use crate::path::{Hop, HopKind};
use crate::torus::Torus3D;
use serde::{Deserialize, Serialize};

/// The inter-node network: a fat-tree (the paper's platform), a 3D torus
/// (the BlueGene-class platform of its related work), or an ingested
/// switch graph that does not match the ideal fat-tree wiring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fabric {
    /// Leaf/line/spine fat-tree with deterministic up/down routing.
    FatTree(FatTree),
    /// Wrapping 3D torus with dimension-ordered routing.
    Torus(Torus3D),
    /// General switch graph with deterministic BFS routing (real-world
    /// wiring ingested from `ibnetdiscover` that is not an ideal fat-tree).
    Irregular(IrregularFabric),
}

impl Fabric {
    /// The fabric's link namespace as `(kind, count)` ranges in id order
    /// (see the per-kind `link_ranges`).
    fn link_ranges(&self) -> Vec<(HopKind, usize)> {
        match self {
            Fabric::FatTree(f) => f.link_ranges().to_vec(),
            Fabric::Torus(t) => t.link_ranges().to_vec(),
            Fabric::Irregular(g) => g.link_ranges().to_vec(),
        }
    }

    /// Size of the fabric's link namespace.
    fn link_count(&self) -> usize {
        let total = |ranges: &[(HopKind, usize)]| ranges.iter().map(|&(_, n)| n).sum();
        match self {
            Fabric::FatTree(f) => total(&f.link_ranges()),
            Fabric::Torus(t) => total(&t.link_ranges()),
            Fabric::Irregular(g) => total(&g.link_ranges()),
        }
    }

    /// Fabric-local id of `hop`, if the fabric has that link.
    fn link_id(&self, hop: &Hop) -> Option<u32> {
        match self {
            Fabric::FatTree(f) => f.link_id(hop),
            Fabric::Torus(t) => t.link_id(hop),
            Fabric::Irregular(g) => g.link_id(hop),
        }
    }

    /// Walk the route between two distinct nodes, handing each hop and its
    /// link id (fabric-local id plus `base`) to `emit` in path order.
    #[inline]
    fn walk(&self, src: NodeId, dst: NodeId, base: u32, emit: impl FnMut(Hop, u32)) {
        match self {
            Fabric::FatTree(f) => f.walk(src, dst, base, emit),
            Fabric::Torus(t) => t.walk(src, dst, base, emit),
            Fabric::Irregular(g) => g.walk(src, dst, base, emit),
        }
    }

    /// The fat-tree, when that is the fabric kind.
    pub fn as_fattree(&self) -> Option<&FatTree> {
        match self {
            Fabric::FatTree(f) => Some(f),
            _ => None,
        }
    }

    /// The torus, when that is the fabric kind.
    pub fn as_torus(&self) -> Option<&Torus3D> {
        match self {
            Fabric::Torus(t) => Some(t),
            _ => None,
        }
    }

    /// The irregular switch graph, when that is the fabric kind.
    pub fn as_irregular(&self) -> Option<&IrregularFabric> {
        match self {
            Fabric::Irregular(g) => Some(g),
            _ => None,
        }
    }

    /// Nodes the fabric can host (`usize::MAX` when unbounded).
    fn capacity(&self) -> usize {
        match self {
            Fabric::FatTree(f) => f.num_nodes(),
            Fabric::Torus(t) => t.num_nodes(),
            Fabric::Irregular(g) => g.num_nodes(),
        }
    }

    /// Export the fabric as a generic switch graph (see the per-kind
    /// `to_switch_graph`/`to_config` methods for the switch numbering) —
    /// the structural form fault injection edits.
    pub fn to_switch_graph(&self) -> crate::irregular::IrregularConfig {
        match self {
            Fabric::FatTree(f) => f.to_switch_graph(),
            Fabric::Torus(t) => t.to_switch_graph(),
            Fabric::Irregular(g) => g.to_config(),
        }
    }
}

/// Everything needed to instantiate a [`Cluster`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Per-node processor hierarchy.
    pub node: NodeTopology,
    /// Fabric wiring.
    pub fabric: FatTreeConfig,
    /// Number of compute nodes.
    pub num_nodes: usize,
}

impl ClusterConfig {
    /// Validate all components.
    pub fn validate(&self) -> Result<(), TopoError> {
        self.node.validate()?;
        self.fabric.validate()?;
        if self.num_nodes == 0 {
            return Err(TopoError::NoNodes);
        }
        Ok(())
    }
}

/// An instantiated cluster with global core numbering.
///
/// Cores are numbered `node * cores_per_node + local`, i.e. consecutive core
/// ids walk socket 0 of node 0 first — the numbering SLURM-style launchers
/// expose and the paper's *block-bunch* layout binds ranks to in order.
///
/// **Link namespace.** Every physical channel a [`Hop`] can name has one
/// dense id in `0..link_count()`: contiguous per-kind ranges
/// ([`Cluster::link_ranges`]), intra-node channels first (`Shm` at
/// `node·S + socket`, then `Qpi` at `N·S + (node·S + from)·(S−1) + to′`,
/// where `S` is sockets per node and `to′` skips `from`), then the fabric's
/// own ranges. Ids are arithmetic for fat trees and tori and come from a
/// trunk offset table for irregular fabrics, so [`Cluster::route_into`]
/// yields a path's ids with no hashing and no allocation; the id's range
/// gives its channel kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    node_topo: NodeTopology,
    fabric: Fabric,
    num_nodes: usize,
}

impl Cluster {
    /// Build a cluster from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ClusterConfig) -> Self {
        Cluster::try_new(cfg).expect("invalid cluster configuration")
    }

    /// Fallible constructor for externally-sourced configurations.
    pub fn try_new(cfg: ClusterConfig) -> Result<Self, TopoError> {
        cfg.validate()?;
        let fabric = Fabric::FatTree(FatTree::new(cfg.fabric, cfg.num_nodes));
        Ok(Cluster {
            node_topo: cfg.node,
            fabric,
            num_nodes: cfg.num_nodes,
        })
    }

    /// Build a cluster from an already-constructed fabric of any kind —
    /// the entry point used by snapshot/ingest loading, where the fabric may
    /// be an [`IrregularFabric`] no `ClusterConfig` can describe.
    pub fn from_parts(
        node: NodeTopology,
        fabric: Fabric,
        num_nodes: usize,
    ) -> Result<Self, TopoError> {
        node.validate()?;
        if num_nodes == 0 {
            return Err(TopoError::NoNodes);
        }
        let capacity = fabric.capacity();
        if capacity < num_nodes {
            return Err(TopoError::FabricTooSmall {
                fabric_nodes: capacity,
                cluster_nodes: num_nodes,
            });
        }
        Ok(Cluster {
            node_topo: node,
            fabric,
            num_nodes,
        })
    }

    /// Build a cluster on a 3D torus fabric (the related-work platform).
    ///
    /// # Panics
    /// Panics if the node topology or torus extents are invalid.
    pub fn with_torus(node: NodeTopology, dims: [usize; 3]) -> Self {
        node.validate().expect("invalid node topology");
        let torus = Torus3D::new(dims);
        let num_nodes = torus.num_nodes();
        Cluster {
            node_topo: node,
            fabric: Fabric::Torus(torus),
            num_nodes,
        }
    }

    /// The paper's evaluation platform: GPC nodes (2×4 cores) on the GPC QDR
    /// fat-tree, with `num_nodes` nodes allocated.
    pub fn gpc(num_nodes: usize) -> Self {
        Cluster::new(ClusterConfig {
            node: NodeTopology::gpc(),
            fabric: FatTreeConfig::gpc(),
            num_nodes,
        })
    }

    /// A small cluster for tests: 2×2-core nodes on the tiny fabric.
    pub fn tiny(num_nodes: usize) -> Self {
        Cluster::new(ClusterConfig {
            node: NodeTopology {
                sockets: 2,
                cores_per_socket: 2,
                cores_per_l2: 1,
                smt: 1,
            },
            fabric: FatTreeConfig::tiny(),
            num_nodes,
        })
    }

    /// Per-node processor hierarchy.
    pub fn node_topology(&self) -> &NodeTopology {
        &self.node_topo
    }

    /// The network fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Cores per node.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.node_topo.cores_per_node()
    }

    /// Total cores in the cluster.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.num_nodes * self.cores_per_node()
    }

    /// Node hosting `core`.
    #[inline]
    pub fn node_of(&self, core: CoreId) -> NodeId {
        debug_assert!(core.idx() < self.total_cores());
        NodeId::from_idx(core.idx() / self.cores_per_node())
    }

    /// Node-local index of `core`.
    #[inline]
    pub fn local_of(&self, core: CoreId) -> usize {
        core.idx() % self.cores_per_node()
    }

    /// Node-local socket index of `core`.
    #[inline]
    pub fn socket_of(&self, core: CoreId) -> usize {
        self.node_topo.socket_of_local(self.local_of(core))
    }

    /// Global core id of `(node, local)`.
    #[inline]
    pub fn core_id(&self, node: NodeId, local: usize) -> CoreId {
        debug_assert!(local < self.cores_per_node());
        CoreId::from_idx(node.idx() * self.cores_per_node() + local)
    }

    /// The closest shared hierarchy level between two cores of the *same*
    /// node.
    ///
    /// # Panics
    /// Panics (in debug) if the cores are on different nodes.
    pub fn intra_level(&self, a: CoreId, b: CoreId) -> IntraLevel {
        debug_assert_eq!(self.node_of(a), self.node_of(b));
        self.node_topo
            .shared_level(self.local_of(a), self.local_of(b))
    }

    /// Full channel path a message from `a` to `b` traverses.
    ///
    /// * same core: empty (no shared channel is stressed);
    /// * same socket: the socket's shared-memory channel;
    /// * same node, different sockets: source memory → QPI → destination memory;
    /// * different nodes: the routed fabric path (HCA + switch links).
    pub fn path(&self, a: CoreId, b: CoreId) -> Vec<Hop> {
        let mut hops = Vec::new();
        self.walk(a, b, |h, _| hops.push(h));
        hops
    }

    /// Size of the link namespace: every link id is below this.
    pub fn link_count(&self) -> usize {
        let s = self.node_topo.sockets;
        self.num_nodes * s * s + self.fabric.link_count()
    }

    /// The link namespace as contiguous `(kind, ids)` ranges in id order,
    /// covering `0..link_count()`; a range may be empty.
    pub fn link_ranges(&self) -> Vec<(HopKind, std::ops::Range<u32>)> {
        let s = self.node_topo.sockets;
        let intra = [
            (HopKind::Shm, self.num_nodes * s),
            (HopKind::Qpi, self.num_nodes * s * (s - 1)),
        ];
        let mut start = 0u32;
        intra
            .into_iter()
            .chain(self.fabric.link_ranges())
            .map(|(kind, n)| {
                start += n as u32;
                (kind, start - n as u32..start)
            })
            .collect()
    }

    /// Dense id of `hop`, or `None` when the cluster has no such link —
    /// `route_into` yields exactly `path(a, b)` mapped through this.
    pub fn link_id(&self, hop: &Hop) -> Option<u32> {
        let (n, s) = (self.num_nodes as u32, self.node_topo.sockets as u32);
        match *hop {
            Hop::Shm { node, socket } => (node.0 < n && socket < s).then_some(node.0 * s + socket),
            Hop::Qpi { node, from, to } => (node.0 < n && from < s && to < s && from != to)
                .then(|| self.qpi_id(node.0 * s + from, to)),
            _ => Some(n * s * s + self.fabric.link_id(hop)?),
        }
    }

    /// Id of the QPI link leaving global socket `from` (`node·S + socket`)
    /// towards node-local socket `to`.
    #[inline]
    fn qpi_id(&self, from: u32, to: u32) -> u32 {
        let s = self.node_topo.sockets as u32;
        let skip = (to > from % s) as u32;
        self.num_nodes as u32 * s + from * (s - 1) + to - skip
    }

    /// Append the link ids of the path from `a` to `b` (see
    /// [`Cluster::path`]) to `out`, in path order. Nothing is allocated
    /// beyond `out`'s own growth.
    #[inline]
    pub fn route_into(&self, a: CoreId, b: CoreId, out: &mut Vec<u32>) {
        self.walk(a, b, |_, id| out.push(id));
    }

    /// Walk the path from `a` to `b`, handing each hop and its link id to
    /// `emit` in path order — the one walk behind [`Cluster::path`] and
    /// [`Cluster::route_into`].
    #[inline]
    fn walk(&self, a: CoreId, b: CoreId, mut emit: impl FnMut(Hop, u32)) {
        if a == b {
            return;
        }
        // Cores are numbered socket-major, so `core / cores_per_socket` is
        // the global socket index `node·S + socket` — which is also the
        // socket's `Shm` link id.
        let nt = &self.node_topo;
        let per_socket = (nt.cores_per_socket * nt.smt) as u32;
        let s = nt.sockets as u32;
        let (ga, gb) = (a.0 / per_socket, b.0 / per_socket);
        let shm = |g: u32| {
            (
                Hop::Shm {
                    node: NodeId(g / s),
                    socket: g % s,
                },
                g,
            )
        };
        if ga == gb {
            let (h, id) = shm(ga);
            emit(h, id);
            return;
        }
        let (na, nb) = (ga / s, gb / s);
        if na == nb {
            let (sa, sb) = (ga - na * s, gb - nb * s);
            let (h, id) = shm(ga);
            emit(h, id);
            emit(
                Hop::Qpi {
                    node: NodeId(na),
                    from: sa,
                    to: sb,
                },
                self.qpi_id(ga, sb),
            );
            let (h, id) = shm(gb);
            emit(h, id);
        } else {
            self.fabric
                .walk(NodeId(na), NodeId(nb), self.num_nodes as u32 * s * s, emit);
        }
    }

    /// Iterator over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.total_cores()).map(CoreId::from_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LeafId;
    use crate::path::HopKind;

    #[test]
    fn gpc_core_counts() {
        let c = Cluster::gpc(512);
        assert_eq!(c.cores_per_node(), 8);
        assert_eq!(c.total_cores(), 4096);
    }

    #[test]
    fn core_id_roundtrip() {
        let c = Cluster::gpc(16);
        for node in 0..16u32 {
            for local in 0..8 {
                let core = c.core_id(NodeId(node), local);
                assert_eq!(c.node_of(core), NodeId(node));
                assert_eq!(c.local_of(core), local);
            }
        }
    }

    #[test]
    fn same_socket_path_is_single_shm_hop() {
        let c = Cluster::gpc(2);
        let p = c.path(CoreId(0), CoreId(3));
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].kind(), HopKind::Shm);
    }

    #[test]
    fn cross_socket_path_crosses_qpi() {
        let c = Cluster::gpc(2);
        let p = c.path(CoreId(0), CoreId(7));
        assert_eq!(p.len(), 3);
        assert_eq!(p[1].kind(), HopKind::Qpi);
    }

    #[test]
    fn self_path_is_empty() {
        let c = Cluster::gpc(2);
        assert!(c.path(CoreId(5), CoreId(5)).is_empty());
    }

    #[test]
    fn inter_node_path_uses_fabric() {
        let c = Cluster::gpc(64);
        let a = c.core_id(NodeId(0), 0);
        let b = c.core_id(NodeId(40), 5); // different leaf (40 >= 30)
        let p = c.path(a, b);
        assert!(p.iter().any(|h| h.is_fabric()), "{p:?}");
        assert_eq!(p[0].kind(), HopKind::HcaUp);
        assert_eq!(p.last().unwrap().kind(), HopKind::HcaDown);
    }

    #[test]
    fn path_hops_never_mix_intra_and_fabric() {
        let c = Cluster::gpc(64);
        for (a, b) in [(0u32, 1), (0, 7), (0, 9), (0, 300)] {
            let p = c.path(CoreId(a), CoreId(b));
            let intra = p.iter().filter(|h| h.is_intra_node()).count();
            let net = p.len() - intra;
            assert!(intra == 0 || net == 0, "mixed path {p:?}");
        }
    }

    #[test]
    fn socket_of_matches_local_layout() {
        let c = Cluster::gpc(1);
        assert_eq!(c.socket_of(CoreId(0)), 0);
        assert_eq!(c.socket_of(CoreId(3)), 0);
        assert_eq!(c.socket_of(CoreId(4)), 1);
        assert_eq!(c.socket_of(CoreId(7)), 1);
    }

    #[test]
    fn from_parts_accepts_irregular_and_checks_capacity() {
        use crate::error::TopoError;
        use crate::irregular::{IrregularConfig, IrregularFabric};
        let g = IrregularFabric::new(IrregularConfig {
            switches: 2,
            node_switch: vec![0, 0, 1, 1],
            links: vec![(0, 1, 2)],
        })
        .unwrap();
        let c = Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(g.clone()), 4).unwrap();
        assert_eq!(c.total_cores(), 32);
        let p = c.path(CoreId(0), CoreId(31));
        assert_eq!(p[0].kind(), HopKind::HcaUp);
        assert!(p.iter().any(|h| h.kind() == HopKind::SwitchLink));

        let err = Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(g), 5).unwrap_err();
        assert_eq!(
            err,
            TopoError::FabricTooSmall {
                fabric_nodes: 4,
                cluster_nodes: 5
            }
        );
        let err = Cluster::from_parts(
            NodeTopology::gpc(),
            Fabric::FatTree(FatTree::new(FatTreeConfig::tiny(), 4)),
            0,
        )
        .unwrap_err();
        assert_eq!(err, TopoError::NoNodes);
    }

    #[test]
    fn cores_iterator_covers_all() {
        let c = Cluster::tiny(3);
        let v: Vec<_> = c.cores().collect();
        assert_eq!(v.len(), 12);
        assert_eq!(v[0], CoreId(0));
        assert_eq!(v[11], CoreId(11));
    }

    /// Every link the cluster has, enumerated from its structure.
    fn all_links(c: &Cluster) -> Vec<Hop> {
        let s = c.node_topology().sockets as u32;
        let mut hops = Vec::new();
        for node in (0..c.num_nodes() as u32).map(NodeId) {
            for socket in 0..s {
                hops.push(Hop::Shm { node, socket });
                for to in (0..s).filter(|&t| t != socket) {
                    hops.push(Hop::Qpi {
                        node,
                        from: socket,
                        to,
                    });
                }
            }
            hops.push(Hop::HcaUp { node });
            hops.push(Hop::HcaDown { node });
        }
        match c.fabric() {
            Fabric::FatTree(f) => {
                let cfg = f.config();
                for leaf in (0..f.num_leaves() as u32).map(LeafId) {
                    for core in 0..cfg.core_switches as u32 {
                        for up in 0..cfg.uplinks_per_core as u32 {
                            hops.push(Hop::LeafUp { leaf, core, up });
                            hops.push(Hop::LeafDown { leaf, core, up });
                        }
                    }
                }
                for core in 0..cfg.core_switches as u32 {
                    for line in 0..cfg.lines_per_core as u32 {
                        for spine in 0..cfg.spines_per_core as u32 {
                            for sub in 0..cfg.line_spine_links as u32 {
                                hops.push(Hop::LineUp {
                                    core,
                                    line,
                                    spine,
                                    sub,
                                });
                                hops.push(Hop::LineDown {
                                    core,
                                    spine,
                                    line,
                                    sub,
                                });
                            }
                        }
                    }
                }
            }
            Fabric::Torus(t) => {
                for node in (0..t.num_nodes() as u32).map(NodeId) {
                    for dim in 0..3 {
                        for plus in [false, true] {
                            hops.push(Hop::TorusLink { node, dim, plus });
                        }
                    }
                }
            }
            Fabric::Irregular(g) => {
                for &(a, b, trunks) in g.links() {
                    for trunk in 0..trunks {
                        hops.push(Hop::SwitchLink {
                            from: a,
                            to: b,
                            trunk,
                        });
                        hops.push(Hop::SwitchLink {
                            from: b,
                            to: a,
                            trunk,
                        });
                    }
                }
            }
        }
        hops
    }

    #[test]
    fn link_ids_are_a_bijection_onto_the_namespace() {
        let irregular = IrregularFabric::new(crate::irregular::IrregularConfig {
            switches: 3,
            node_switch: vec![0, 0, 1, 2, 2],
            links: vec![(0, 1, 2), (1, 2, 1), (2, 0, 3)],
        })
        .unwrap();
        for c in [
            Cluster::gpc(40),
            Cluster::tiny(6),
            Cluster::with_torus(NodeTopology::gpc(), [3, 2, 2]),
            Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(irregular), 5).unwrap(),
        ] {
            let ranges = c.link_ranges();
            assert_eq!(ranges.last().unwrap().1.end as usize, c.link_count());
            assert!(ranges.windows(2).all(|w| w[0].1.end == w[1].1.start));
            let mut seen = vec![false; c.link_count()];
            for h in all_links(&c) {
                let id = c.link_id(&h).unwrap_or_else(|| panic!("{h:?} has no id"));
                assert!(!std::mem::replace(&mut seen[id as usize], true), "{h:?}");
                let (kind, _) = ranges.iter().find(|(_, r)| r.contains(&id)).unwrap();
                assert_eq!(*kind, h.kind(), "{h:?}");
            }
            // Every slot is a link: no torus dimension here has extent 1,
            // the only source of unused ids.
            let holes = seen.iter().filter(|&&s| !s).count();
            assert_eq!(holes, 0, "{:?}", c.fabric());
        }
    }

    #[test]
    fn missing_links_have_no_id() {
        let c = Cluster::gpc(40);
        for h in [
            Hop::Shm {
                node: NodeId(40),
                socket: 0,
            },
            Hop::Shm {
                node: NodeId(0),
                socket: 2,
            },
            Hop::Qpi {
                node: NodeId(0),
                from: 1,
                to: 1,
            },
            Hop::HcaUp { node: NodeId(40) },
            Hop::LeafUp {
                leaf: LeafId(2),
                core: 0,
                up: 0,
            },
            Hop::LeafDown {
                leaf: LeafId(0),
                core: 2,
                up: 0,
            },
            Hop::LineUp {
                core: 0,
                line: 18,
                spine: 0,
                sub: 0,
            },
            Hop::LineDown {
                core: 0,
                spine: 0,
                line: 0,
                sub: 2,
            },
            Hop::TorusLink {
                node: NodeId(0),
                dim: 0,
                plus: true,
            },
            Hop::SwitchLink {
                from: 0,
                to: 1,
                trunk: 0,
            },
        ] {
            assert_eq!(c.link_id(&h), None, "{h:?}");
        }
    }

    #[test]
    fn route_into_matches_path_ids() {
        let c = Cluster::gpc(64);
        let mut ids = vec![7];
        for (a, b) in [(0u32, 0), (0, 1), (0, 7), (0, 9), (0, 300), (511, 2)] {
            ids.truncate(1);
            c.route_into(CoreId(a), CoreId(b), &mut ids);
            let want: Vec<u32> = std::iter::once(7)
                .chain(
                    c.path(CoreId(a), CoreId(b))
                        .iter()
                        .map(|h| c.link_id(h).unwrap()),
                )
                .collect();
            assert_eq!(ids, want, "{a}->{b}");
        }
    }
}
