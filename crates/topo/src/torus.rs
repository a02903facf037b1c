//! 3D torus fabric — the BlueGene-class network of the paper's related work
//! (Almási et al. on BG/L; Sack & Gropp's 3D-torus collectives).
//!
//! Nodes sit on a wrapping 3D grid; each node has two links per dimension
//! (plus/minus). Routing is **dimension-ordered** (X, then Y, then Z, the
//! deadlock-free standard), each dimension traversed in its shorter wrap
//! direction. The mapping heuristics need nothing new: they consume the
//! distance matrix, which here is hop-count based.

use crate::ids::NodeId;
use crate::path::{Hop, HopKind};

/// A wrapping 3D torus of compute nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus3D {
    dims: [usize; 3],
}

impl Torus3D {
    /// Build a torus with the given extents.
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "torus extents must be non-zero"
        );
        Torus3D { dims }
    }

    /// Fallible constructor for externally-sourced extents.
    pub fn try_new(dims: [usize; 3]) -> Result<Self, crate::error::TopoError> {
        if dims.contains(&0) {
            return Err(crate::error::TopoError::ZeroFabricExtent);
        }
        Ok(Torus3D { dims })
    }

    /// Grid extents.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of a node (x fastest).
    #[inline]
    pub fn coords(&self, node: NodeId) -> [usize; 3] {
        let i = node.idx();
        debug_assert!(i < self.num_nodes());
        [
            i % self.dims[0],
            (i / self.dims[0]) % self.dims[1],
            i / (self.dims[0] * self.dims[1]),
        ]
    }

    /// Node at the given coordinates.
    #[inline]
    pub fn node_at(&self, c: [usize; 3]) -> NodeId {
        debug_assert!(c.iter().zip(&self.dims).all(|(&x, &d)| x < d));
        NodeId::from_idx(c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2]))
    }

    /// Signed shortest step count along dimension `dim` from `a` to `b`
    /// (positive = plus direction), honoring the wrap.
    fn delta(&self, dim: usize, a: usize, b: usize) -> i64 {
        let d = self.dims[dim] as i64;
        let raw = (b as i64 - a as i64).rem_euclid(d);
        if raw * 2 <= d {
            raw
        } else {
            raw - d
        }
    }

    /// Minimal hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..3)
            .map(|dim| self.delta(dim, ca[dim], cb[dim]).unsigned_abs() as usize)
            .sum()
    }

    /// Boustrophedon ("snake") node order: a Hamiltonian path along which
    /// consecutive nodes are exactly one hop apart — the natural embedding
    /// of a logical ring into a torus. With even extents the wrap edge from
    /// the last node back to the first is short too, closing the cycle.
    pub fn snake_order(&self) -> Vec<crate::ids::NodeId> {
        let [dx, dy, dz] = self.dims;
        let mut order = Vec::with_capacity(self.num_nodes());
        for z in 0..dz {
            // Reverse the y sweep on odd z layers.
            let ys: Vec<usize> = if z % 2 == 0 {
                (0..dy).collect()
            } else {
                (0..dy).rev().collect()
            };
            for (yi, &y) in ys.iter().enumerate() {
                // Reverse the x sweep on odd rows of the current layer sweep.
                let flip = (z * dy + yi) % 2 == 1;
                let xs: Vec<usize> = if flip {
                    (0..dx).rev().collect()
                } else {
                    (0..dx).collect()
                };
                for &x in &xs {
                    order.push(self.node_at([x, y, z]));
                }
            }
        }
        order
    }

    /// Export the torus as a generic switch graph: one switch per node,
    /// node `n` on switch `n`, one link per physical cable (each node's
    /// `+dim` neighbour per dimension with extent > 1; in an extent-2
    /// dimension both endpoints emit the pair, which merges into a trunk-2
    /// link — the torus's double cable between wrap neighbours).
    pub fn to_switch_graph(&self) -> crate::irregular::IrregularConfig {
        let n = self.num_nodes();
        let mut links = Vec::new();
        for i in 0..n {
            let c = self.coords(NodeId::from_idx(i));
            for dim in 0..3 {
                if self.dims[dim] < 2 {
                    continue;
                }
                let mut plus = c;
                plus[dim] = (c[dim] + 1) % self.dims[dim];
                let j = self.node_at(plus).idx();
                if i != j {
                    links.push((i as u32, j as u32, 1));
                }
            }
        }
        crate::irregular::IrregularConfig {
            switches: n,
            node_switch: (0..n as u32).collect(),
            links,
        }
    }

    /// Dimension-ordered route from `src` to `dst`, as HCA injection, the
    /// traversed torus links, and HCA delivery.
    ///
    /// # Panics
    /// Panics if `src == dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<Hop> {
        let mut hops = Vec::with_capacity(2 + self.hops(src, dst));
        self.walk(src, dst, 0, |h, _| hops.push(h));
        hops
    }

    /// The fabric's link namespace as contiguous per-kind id ranges, in id
    /// order: HCA up and down (one per node), then six torus links per node
    /// (`node·6 + dim·2 + plus`). Links along an extent-1 dimension are
    /// never routed; their ids stay unused.
    pub(crate) fn link_ranges(&self) -> [(HopKind, usize); 3] {
        let n = self.num_nodes();
        [
            (HopKind::HcaUp, n),
            (HopKind::HcaDown, n),
            (HopKind::TorusLink, 6 * n),
        ]
    }

    /// Id of `hop` in the fabric's link namespace, or `None` when the fabric
    /// has no such link.
    pub(crate) fn link_id(&self, hop: &Hop) -> Option<u32> {
        let n = self.num_nodes() as u32;
        match *hop {
            Hop::HcaUp { node } => (node.0 < n).then_some(node.0),
            Hop::HcaDown { node } => (node.0 < n).then_some(n + node.0),
            Hop::TorusLink { node, dim, plus } => {
                (node.0 < n && dim < 3).then_some(2 * n + node.0 * 6 + dim as u32 * 2 + plus as u32)
            }
            _ => None,
        }
    }

    /// Walk the route from `src` to `dst`, handing every hop and its link id
    /// (offset by `base`) to `emit` in path order — the one walk behind
    /// [`Torus3D::route`] and the cluster's dense-id routing.
    ///
    /// # Panics
    /// Panics if `src == dst`.
    #[inline]
    pub(crate) fn walk(&self, src: NodeId, dst: NodeId, base: u32, mut emit: impl FnMut(Hop, u32)) {
        assert_ne!(src, dst, "no route from a node to itself");
        let n = self.num_nodes() as u32;
        emit(Hop::HcaUp { node: src }, base + src.0);
        let mut cur = self.coords(src);
        let target = self.coords(dst);
        for dim in 0..3 {
            let mut delta = self.delta(dim, cur[dim], target[dim]);
            while delta != 0 {
                let plus = delta > 0;
                let here = self.node_at(cur);
                emit(
                    Hop::TorusLink {
                        node: here,
                        dim: dim as u8,
                        plus,
                    },
                    base + 2 * n + here.0 * 6 + dim as u32 * 2 + plus as u32,
                );
                let d = self.dims[dim];
                cur[dim] = if plus {
                    (cur[dim] + 1) % d
                } else {
                    (cur[dim] + d - 1) % d
                };
                delta += if plus { -1 } else { 1 };
            }
        }
        debug_assert_eq!(self.node_at(cur), dst);
        emit(Hop::HcaDown { node: dst }, base + n + dst.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t444() -> Torus3D {
        Torus3D::new([4, 4, 4])
    }

    #[test]
    fn coords_roundtrip() {
        let t = t444();
        for i in 0..64u32 {
            let n = NodeId(i);
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    fn wrap_shortens_paths() {
        let t = t444();
        // (0,0,0) to (3,0,0): one hop in the minus direction, not three.
        let a = t.node_at([0, 0, 0]);
        let b = t.node_at([3, 0, 0]);
        assert_eq!(t.hops(a, b), 1);
        let route = t.route(a, b);
        assert_eq!(route.len(), 3); // HcaUp + 1 link + HcaDown
        assert!(matches!(
            route[1],
            Hop::TorusLink {
                dim: 0,
                plus: false,
                ..
            }
        ));
    }

    #[test]
    fn hops_metric_properties() {
        let t = t444();
        for a in 0..64u32 {
            assert_eq!(t.hops(NodeId(a), NodeId(a)), 0);
            for b in 0..64u32 {
                assert_eq!(t.hops(NodeId(a), NodeId(b)), t.hops(NodeId(b), NodeId(a)));
            }
        }
        // Antipodal corner: 2+2+2 hops on a 4×4×4 torus.
        let a = t.node_at([0, 0, 0]);
        let b = t.node_at([2, 2, 2]);
        assert_eq!(t.hops(a, b), 6);
    }

    #[test]
    fn route_length_matches_hops() {
        let t = Torus3D::new([3, 4, 5]);
        for a in 0..60u32 {
            for b in [1u32, 17, 42, 59] {
                if a == b {
                    continue;
                }
                let r = t.route(NodeId(a), NodeId(b));
                assert_eq!(r.len(), 2 + t.hops(NodeId(a), NodeId(b)), "{a}->{b}");
                assert_eq!(r[0], Hop::HcaUp { node: NodeId(a) });
                assert_eq!(*r.last().unwrap(), Hop::HcaDown { node: NodeId(b) });
            }
        }
    }

    #[test]
    fn dimension_ordered_routing_is_deterministic() {
        let t = t444();
        let a = t.route(NodeId(5), NodeId(40));
        let b = t.route(NodeId(5), NodeId(40));
        assert_eq!(a, b);
        // All dim-0 links precede dim-1 links precede dim-2 links.
        let dims: Vec<u8> = a
            .iter()
            .filter_map(|h| match h {
                Hop::TorusLink { dim, .. } => Some(*dim),
                _ => None,
            })
            .collect();
        assert!(dims.windows(2).all(|w| w[0] <= w[1]), "{dims:?}");
    }

    #[test]
    fn degenerate_dimensions_work() {
        // A 1D ring expressed as a torus.
        let t = Torus3D::new([8, 1, 1]);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 4);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 1);
    }

    #[test]
    fn snake_order_is_hamiltonian_with_unit_steps() {
        for dims in [[4usize, 4, 4], [3, 4, 5], [8, 2, 1], [2, 2, 2]] {
            let t = Torus3D::new(dims);
            let order = t.snake_order();
            assert_eq!(order.len(), t.num_nodes(), "{dims:?}");
            // Every node exactly once.
            let mut seen = vec![false; t.num_nodes()];
            for &n in &order {
                assert!(!seen[n.idx()], "{dims:?}: node {n} twice");
                seen[n.idx()] = true;
            }
            // Consecutive nodes one hop apart.
            for w in order.windows(2) {
                assert_eq!(t.hops(w[0], w[1]), 1, "{dims:?}: {:?}", w);
            }
        }
    }

    #[test]
    fn snake_wrap_edge_is_short_for_even_extents() {
        let t = Torus3D::new([4, 4, 4]);
        let order = t.snake_order();
        let wrap = t.hops(*order.last().unwrap(), order[0]);
        assert!(wrap <= 2, "wrap edge {wrap} hops");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        Torus3D::new([4, 0, 4]);
    }

    #[test]
    fn try_new_returns_typed_error() {
        assert_eq!(
            Torus3D::try_new([4, 0, 4]).unwrap_err(),
            crate::error::TopoError::ZeroFabricExtent
        );
        assert!(Torus3D::try_new([4, 4, 4]).is_ok());
    }

    #[test]
    fn switch_graph_hops_match_torus_hops() {
        use crate::irregular::IrregularFabric;
        for dims in [[3usize, 4, 2], [2, 2, 2], [8, 1, 1], [4, 4, 4]] {
            let t = Torus3D::new(dims);
            let f = IrregularFabric::new(t.to_switch_graph()).unwrap();
            let n = t.num_nodes() as u32;
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        f.hops(NodeId(a), NodeId(b)),
                        t.hops(NodeId(a), NodeId(b)),
                        "{dims:?}: {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn switch_graph_wrap_pair_is_double_cable() {
        // Extent-2 dimension: both nodes emit the same pair, merging into a
        // trunk-2 link — the torus's two physical cables between them.
        let t = Torus3D::new([2, 1, 1]);
        let f = crate::irregular::IrregularFabric::new(t.to_switch_graph()).unwrap();
        assert_eq!(f.links(), &[(0, 1, 2)]);
    }
}
