//! Fat-tree fabric model with deterministic up/down routing.
//!
//! The fabric has three switch layers, mirroring the paper's GPC cluster
//! (Fig. 2): **leaf** switches host compute nodes; each leaf has a fixed
//! number of uplinks to each **core switch**; a core switch is internally a
//! two-level fat-tree of **line** and **spine** switches. A leaf uplink lands
//! on a line switch chosen by a fixed wiring rule; every line switch has a
//! fixed number of sub-links to every spine switch.
//!
//! Routing is destination-based deterministic ("D-mod-k"), as InfiniBand's
//! up*/down* forwarding tables are in practice: the uplink, spine and
//! downlink for a packet depend only on the destination node, so two messages
//! to the same destination share their upward path deterministically —
//! which is exactly what creates the congestion the paper's heuristics avoid.

use crate::ids::{LeafId, NodeId};
use crate::path::{Hop, HopKind};

/// Static description of the fabric wiring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTreeConfig {
    /// Compute nodes attached to each leaf switch.
    pub nodes_per_leaf: usize,
    /// Number of top-level core switches.
    pub core_switches: usize,
    /// Uplinks from each leaf to *each* core switch.
    pub uplinks_per_core: usize,
    /// Line switches inside each core switch.
    pub lines_per_core: usize,
    /// Spine switches inside each core switch.
    pub spines_per_core: usize,
    /// Parallel sub-links from each line switch to each spine switch.
    pub line_spine_links: usize,
}

impl FatTreeConfig {
    /// The paper's GPC QDR fabric: 30 nodes per 36-port leaf, two core
    /// switches, 3 uplinks per leaf per core (6 uplinks serving 30 nodes — a
    /// 5:1 blocking factor), core switches of 18 line and 9 spine switches
    /// with 2 sub-links per line-spine pair.
    pub fn gpc() -> Self {
        FatTreeConfig {
            nodes_per_leaf: 30,
            core_switches: 2,
            uplinks_per_core: 3,
            lines_per_core: 18,
            spines_per_core: 9,
            line_spine_links: 2,
        }
    }

    /// A small non-blocking fabric useful in tests: 4 nodes per leaf, one
    /// core switch with 2 lines / 2 spines, 2 uplinks.
    pub fn tiny() -> Self {
        FatTreeConfig {
            nodes_per_leaf: 4,
            core_switches: 1,
            uplinks_per_core: 2,
            lines_per_core: 2,
            spines_per_core: 2,
            line_spine_links: 1,
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), crate::error::TopoError> {
        if self.nodes_per_leaf == 0
            || self.core_switches == 0
            || self.uplinks_per_core == 0
            || self.lines_per_core == 0
            || self.spines_per_core == 0
            || self.line_spine_links == 0
        {
            return Err(crate::error::TopoError::ZeroFabricExtent);
        }
        Ok(())
    }
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig::gpc()
    }
}

/// A fat-tree fabric serving a fixed number of compute nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTree {
    cfg: FatTreeConfig,
    num_nodes: usize,
}

impl FatTree {
    /// Build a fabric for `num_nodes` nodes; leaves are filled in order.
    ///
    /// # Panics
    /// Panics if the configuration is structurally invalid or `num_nodes == 0`.
    pub fn new(cfg: FatTreeConfig, num_nodes: usize) -> Self {
        cfg.validate().expect("invalid fat-tree configuration");
        assert!(num_nodes > 0, "fabric must serve at least one node");
        FatTree { cfg, num_nodes }
    }

    /// The wiring configuration.
    pub fn config(&self) -> &FatTreeConfig {
        &self.cfg
    }

    /// Number of compute nodes served.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (partially) populated leaf switches.
    pub fn num_leaves(&self) -> usize {
        self.num_nodes.div_ceil(self.cfg.nodes_per_leaf)
    }

    /// Leaf switch hosting `node`.
    #[inline]
    pub fn leaf_of(&self, node: NodeId) -> LeafId {
        debug_assert!(node.idx() < self.num_nodes);
        LeafId::from_idx(node.idx() / self.cfg.nodes_per_leaf)
    }

    /// The line switch (inside core switch `core`) on which uplink `up` of
    /// `leaf` lands. Fixed wiring rule that spreads consecutive leaves across
    /// line switches.
    #[inline]
    pub fn line_of(&self, leaf: LeafId, core: usize, up: usize) -> usize {
        debug_assert!(core < self.cfg.core_switches);
        debug_assert!(up < self.cfg.uplinks_per_core);
        // Core switches are wired with different offsets so the two planes
        // are not mirror images of each other.
        (leaf.idx() * self.cfg.uplinks_per_core + up + core) % self.cfg.lines_per_core
    }

    /// Whether two distinct leaves are attached to a common line switch in
    /// any core switch (⇒ a 4-fabric-link shortest path exists between them).
    pub fn leaves_share_line(&self, a: LeafId, b: LeafId) -> bool {
        if a == b {
            return true;
        }
        for core in 0..self.cfg.core_switches {
            for ua in 0..self.cfg.uplinks_per_core {
                let la = self.line_of(a, core, ua);
                for ub in 0..self.cfg.uplinks_per_core {
                    if la == self.line_of(b, core, ub) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// For every leaf, the sorted other leaves it shares a line switch with:
    /// the lists [`leaves_share_line`](Self::leaves_share_line) answers pair
    /// by pair, built from per-(core switch, line) member lists instead, in
    /// O(L·c·u + Σ peers·log) for L leaves, c core switches and u uplinks
    /// per core rather than the O(L²·c·u²) all-pairs test.
    pub fn line_peer_table(&self) -> Vec<Vec<u32>> {
        let c = &self.cfg;
        let leaves = self.num_leaves();
        // members[core · lines + line]: the leaves with an uplink landing
        // on that line switch, ascending, each once.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); c.core_switches * c.lines_per_core];
        for leaf in 0..leaves {
            for core in 0..c.core_switches {
                for up in 0..c.uplinks_per_core {
                    let line = self.line_of(LeafId::from_idx(leaf), core, up);
                    let list = &mut members[core * c.lines_per_core + line];
                    if list.last() != Some(&(leaf as u32)) {
                        list.push(leaf as u32);
                    }
                }
            }
        }
        // `seen[b] == a + 1` marks leaf b as already collected for leaf a.
        let mut seen = vec![0u32; leaves];
        (0..leaves)
            .map(|a| {
                seen[a] = a as u32 + 1;
                let mut peers = Vec::new();
                for core in 0..c.core_switches {
                    for up in 0..c.uplinks_per_core {
                        let line = self.line_of(LeafId::from_idx(a), core, up);
                        for &b in &members[core * c.lines_per_core + line] {
                            if seen[b as usize] != a as u32 + 1 {
                                seen[b as usize] = a as u32 + 1;
                                peers.push(b);
                            }
                        }
                    }
                }
                peers.sort_unstable();
                peers
            })
            .collect()
    }

    /// Export the wiring as a generic switch graph, for fault injection and
    /// other consumers that edit the fabric structurally.
    ///
    /// Switch numbering: leaves `0..num_leaves()`, then per core switch `c`
    /// its line switches followed by its spine switches
    /// (`num_leaves() + c·(lines+spines) + …`). Each physical cable is one
    /// link entry of trunk 1 (leaf uplinks landing on the same line switch
    /// merge into trunks downstream), except line–spine bundles which carry
    /// their `line_spine_links` trunk count directly.
    pub fn to_switch_graph(&self) -> crate::irregular::IrregularConfig {
        let c = &self.cfg;
        let leaves = self.num_leaves();
        let per_core = c.lines_per_core + c.spines_per_core;
        let line_id = |core: usize, line: usize| (leaves + core * per_core + line) as u32;
        let spine_id = |core: usize, spine: usize| {
            (leaves + core * per_core + c.lines_per_core + spine) as u32
        };

        let mut links = Vec::new();
        for leaf in 0..leaves {
            for core in 0..c.core_switches {
                for up in 0..c.uplinks_per_core {
                    let line = self.line_of(LeafId::from_idx(leaf), core, up);
                    links.push((leaf as u32, line_id(core, line), 1));
                }
            }
        }
        for core in 0..c.core_switches {
            for line in 0..c.lines_per_core {
                for spine in 0..c.spines_per_core {
                    links.push((
                        line_id(core, line),
                        spine_id(core, spine),
                        c.line_spine_links as u32,
                    ));
                }
            }
        }

        crate::irregular::IrregularConfig {
            switches: leaves + c.core_switches * per_core,
            node_switch: (0..self.num_nodes)
                .map(|n| (n / c.nodes_per_leaf) as u32)
                .collect(),
            links,
        }
    }

    /// Deterministic up/down route from `src` to `dst`, as a sequence of
    /// [`Hop`]s including the HCA injection/delivery links.
    ///
    /// Destination-based choices: the core switch, uplink, spine and downlink
    /// all depend only on `dst`, mimicking InfiniBand forwarding tables.
    ///
    /// # Panics
    /// Panics if `src == dst` (a node does not route to itself).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<Hop> {
        let mut hops = Vec::with_capacity(6);
        self.walk(src, dst, 0, |h, _| hops.push(h));
        hops
    }

    /// The fabric's link namespace as contiguous per-kind id ranges, in id
    /// order: HCA up and down (one per node), then leaf uplinks and
    /// downlinks (`(leaf·C + core)·U + up`), then line→spine and
    /// spine→line sub-links (`((core·L + line)·S + spine)·K + sub` and
    /// `((core·S + spine)·L + line)·K + sub`), where `C`, `U`, `L`, `S` and
    /// `K` are the core switches, uplinks per core, lines, spines and
    /// line–spine sub-links of the configuration.
    pub(crate) fn link_ranges(&self) -> [(HopKind, usize); 6] {
        let c = &self.cfg;
        let leaf = self.num_leaves() * c.core_switches * c.uplinks_per_core;
        let line = c.core_switches * c.lines_per_core * c.spines_per_core * c.line_spine_links;
        [
            (HopKind::HcaUp, self.num_nodes),
            (HopKind::HcaDown, self.num_nodes),
            (HopKind::LeafUp, leaf),
            (HopKind::LeafDown, leaf),
            (HopKind::LineUp, line),
            (HopKind::LineDown, line),
        ]
    }

    /// Range starts of [`FatTree::link_ranges`], offset by `base`.
    #[inline]
    fn link_bases(&self, base: u32) -> [u32; 6] {
        let mut out = [base; 6];
        for (i, (_, n)) in self.link_ranges().iter().enumerate().take(5) {
            out[i + 1] = out[i] + *n as u32;
        }
        out
    }

    /// Offset of leaf link `(leaf, core, up)` within the `LeafUp` or
    /// `LeafDown` range.
    #[inline]
    fn leaf_slot(&self, leaf: usize, core: usize, up: usize) -> u32 {
        let c = &self.cfg;
        ((leaf * c.core_switches + core) * c.uplinks_per_core + up) as u32
    }

    /// Offset of sub-link `sub` between `line` and `spine` of core switch
    /// `core` within the `LineUp` range, or, with `down`, the `LineDown`
    /// range.
    #[inline]
    fn line_slot(&self, down: bool, core: usize, line: usize, spine: usize, sub: usize) -> u32 {
        let c = &self.cfg;
        let (l, s) = (c.lines_per_core, c.spines_per_core);
        let pair = if down {
            (core * s + spine) * l + line
        } else {
            (core * l + line) * s + spine
        };
        (pair * c.line_spine_links + sub) as u32
    }

    /// Id of `hop` in the fabric's link namespace, or `None` when the fabric
    /// has no such link (out-of-range fields, or a non-fat-tree kind).
    pub(crate) fn link_id(&self, hop: &Hop) -> Option<u32> {
        let c = &self.cfg;
        let [hca_up, hca_down, leaf_up, leaf_down, line_up, line_down] = self.link_bases(0);
        let lt = |v: u32, n: usize| (v as usize) < n;
        let leaf_ok = |leaf: LeafId, core: u32, up: u32| {
            lt(leaf.0, self.num_leaves()) && lt(core, c.core_switches) && lt(up, c.uplinks_per_core)
        };
        let line_ok = |core: u32, line: u32, spine: u32, sub: u32| {
            lt(core, c.core_switches)
                && lt(line, c.lines_per_core)
                && lt(spine, c.spines_per_core)
                && lt(sub, c.line_spine_links)
        };
        let u = |v: u32| v as usize;
        match *hop {
            Hop::HcaUp { node } => lt(node.0, self.num_nodes).then_some(hca_up + node.0),
            Hop::HcaDown { node } => lt(node.0, self.num_nodes).then_some(hca_down + node.0),
            Hop::LeafUp { leaf, core, up } => leaf_ok(leaf, core, up)
                .then(|| leaf_up + self.leaf_slot(leaf.idx(), u(core), u(up))),
            Hop::LeafDown { leaf, core, up } => leaf_ok(leaf, core, up)
                .then(|| leaf_down + self.leaf_slot(leaf.idx(), u(core), u(up))),
            Hop::LineUp {
                core,
                line,
                spine,
                sub,
            } => line_ok(core, line, spine, sub)
                .then(|| line_up + self.line_slot(false, u(core), u(line), u(spine), u(sub))),
            Hop::LineDown {
                core,
                spine,
                line,
                sub,
            } => line_ok(core, line, spine, sub)
                .then(|| line_down + self.line_slot(true, u(core), u(line), u(spine), u(sub))),
            _ => None,
        }
    }

    /// Walk the route from `src` to `dst`, handing every hop and its link id
    /// (offset by `base`) to `emit` in path order — the one walk behind
    /// [`FatTree::route`] and the cluster's dense-id routing.
    ///
    /// # Panics
    /// Panics if `src == dst` (a node does not route to itself).
    #[inline]
    pub(crate) fn walk(&self, src: NodeId, dst: NodeId, base: u32, mut emit: impl FnMut(Hop, u32)) {
        assert_ne!(src, dst, "no route from a node to itself");
        let [hca_up, hca_down, leaf_up, leaf_down, line_up, line_down] = self.link_bases(base);
        let src_leaf = self.leaf_of(src);
        let dst_leaf = self.leaf_of(dst);

        emit(Hop::HcaUp { node: src }, hca_up + src.0);

        if src_leaf != dst_leaf {
            let c = &self.cfg;
            // Destination selects the global uplink (core switch plane and
            // uplink index) — D-mod-k.
            let total_up = c.core_switches * c.uplinks_per_core;
            let u = dst.idx() % total_up;
            let core = u / c.uplinks_per_core;
            let up = u % c.uplinks_per_core;
            let up_line = self.line_of(src_leaf, core, up);

            // Destination selects the downlink from the core switch into its
            // leaf; that fixes the line switch the packet must descend from.
            let down_up = dst.idx() % c.uplinks_per_core;
            let down_line = self.line_of(dst_leaf, core, down_up);

            emit(
                Hop::LeafUp {
                    leaf: src_leaf,
                    core: core as u32,
                    up: up as u32,
                },
                leaf_up + self.leaf_slot(src_leaf.idx(), core, up),
            );

            if up_line != down_line {
                // Must climb to a spine to cross between line switches.
                let spine = dst_leaf.idx() % c.spines_per_core;
                let sub = dst.idx() % c.line_spine_links;
                emit(
                    Hop::LineUp {
                        core: core as u32,
                        line: up_line as u32,
                        spine: spine as u32,
                        sub: sub as u32,
                    },
                    line_up + self.line_slot(false, core, up_line, spine, sub),
                );
                emit(
                    Hop::LineDown {
                        core: core as u32,
                        spine: spine as u32,
                        line: down_line as u32,
                        sub: sub as u32,
                    },
                    line_down + self.line_slot(true, core, down_line, spine, sub),
                );
            }

            emit(
                Hop::LeafDown {
                    leaf: dst_leaf,
                    core: core as u32,
                    up: down_up as u32,
                },
                leaf_down + self.leaf_slot(dst_leaf.idx(), core, down_up),
            );
        }

        emit(Hop::HcaDown { node: dst }, hca_down + dst.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpc512() -> FatTree {
        FatTree::new(FatTreeConfig::gpc(), 512)
    }

    #[test]
    fn leaf_count_rounds_up() {
        assert_eq!(gpc512().num_leaves(), 18); // 512 / 30 = 17.07
        let t = FatTree::new(FatTreeConfig::gpc(), 30);
        assert_eq!(t.num_leaves(), 1);
        let t = FatTree::new(FatTreeConfig::gpc(), 31);
        assert_eq!(t.num_leaves(), 2);
    }

    #[test]
    fn same_leaf_route_has_no_fabric_links() {
        let t = gpc512();
        let hops = t.route(NodeId(0), NodeId(1));
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0], Hop::HcaUp { node: NodeId(0) });
        assert_eq!(hops[1], Hop::HcaDown { node: NodeId(1) });
        assert!(!hops.iter().any(|h| h.is_fabric()));
    }

    #[test]
    fn cross_leaf_route_shape() {
        let t = gpc512();
        // Node 0 (leaf 0) to node 35 (leaf 1).
        let hops = t.route(NodeId(0), NodeId(35));
        assert!(hops.len() == 4 || hops.len() == 6, "got {hops:?}");
        assert_eq!(hops.first().unwrap().kind(), crate::path::HopKind::HcaUp);
        assert_eq!(hops.last().unwrap().kind(), crate::path::HopKind::HcaDown);
        // Up hops must precede down hops (valid up/down route).
        let up_positions: Vec<_> = hops
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, Hop::LeafUp { .. } | Hop::LineUp { .. }))
            .map(|(i, _)| i)
            .collect();
        let down_positions: Vec<_> = hops
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, Hop::LeafDown { .. } | Hop::LineDown { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(up_positions
            .iter()
            .all(|u| down_positions.iter().all(|d| u < d)));
    }

    #[test]
    fn route_is_destination_deterministic() {
        let t = gpc512();
        let a = t.route(NodeId(3), NodeId(200));
        let b = t.route(NodeId(3), NodeId(200));
        assert_eq!(a, b);
    }

    #[test]
    fn routes_to_same_dst_share_downlink() {
        let t = gpc512();
        let dst = NodeId(400);
        let r1 = t.route(NodeId(0), dst);
        let r2 = t.route(NodeId(60), dst);
        let d1 = r1.iter().find(|h| matches!(h, Hop::LeafDown { .. }));
        let d2 = r2.iter().find(|h| matches!(h, Hop::LeafDown { .. }));
        assert_eq!(d1, d2, "destination-based routing must share the downlink");
    }

    #[test]
    fn blocking_factor_is_five_to_one() {
        let c = FatTreeConfig::gpc();
        let uplinks = c.core_switches * c.uplinks_per_core;
        assert_eq!(c.nodes_per_leaf / uplinks, 5);
    }

    #[test]
    fn leaves_share_line_reflexive_and_symmetric() {
        let t = gpc512();
        for a in 0..t.num_leaves() {
            assert!(t.leaves_share_line(LeafId::from_idx(a), LeafId::from_idx(a)));
            for b in 0..t.num_leaves() {
                assert_eq!(
                    t.leaves_share_line(LeafId::from_idx(a), LeafId::from_idx(b)),
                    t.leaves_share_line(LeafId::from_idx(b), LeafId::from_idx(a))
                );
            }
        }
    }

    #[test]
    fn tiny_fabric_routes_are_valid() {
        let t = FatTree::new(FatTreeConfig::tiny(), 16);
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let hops = t.route(NodeId(s), NodeId(d));
                assert!(hops.len() >= 2);
                assert_eq!(hops[0], Hop::HcaUp { node: NodeId(s) });
                assert_eq!(*hops.last().unwrap(), Hop::HcaDown { node: NodeId(d) });
            }
        }
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn self_route_panics() {
        gpc512().route(NodeId(5), NodeId(5));
    }

    #[test]
    fn switch_graph_reflects_leaf_line_spine_structure() {
        use crate::irregular::IrregularFabric;
        let t = gpc512();
        let g = t.to_switch_graph();
        // 18 leaves + 2 core switches × (18 lines + 9 spines).
        assert_eq!(g.switches, 18 + 2 * 27);
        assert_eq!(g.node_switch.len(), 512);
        assert_eq!(g.node_switch[0], 0);
        assert_eq!(g.node_switch[30], 1);
        let f = IrregularFabric::new(g).unwrap();
        // Same leaf: 0 switch hops. Shared line: 2. Otherwise: 4 via a spine.
        assert_eq!(f.hops(NodeId(0), NodeId(1)), 0);
        for a in 0..t.num_leaves() {
            for b in 0..t.num_leaves() {
                if a == b {
                    continue;
                }
                let expect = if t.leaves_share_line(LeafId::from_idx(a), LeafId::from_idx(b)) {
                    2
                } else {
                    4
                };
                assert_eq!(f.switch_hops(a as u32, b as u32), expect, "{a}->{b}");
            }
        }
    }

    #[test]
    fn switch_graph_uplinks_merge_into_trunks() {
        use crate::irregular::IrregularFabric;
        // Tiny fabric: 2 uplinks from each leaf onto 2 lines — line_of spreads
        // them, so each (leaf, line) pair carries exactly one cable.
        let t = FatTree::new(FatTreeConfig::tiny(), 16);
        let f = IrregularFabric::new(t.to_switch_graph()).unwrap();
        let leaf_line: Vec<_> = f.links().iter().filter(|&&(a, _, _)| a < 4).collect();
        assert!(leaf_line.iter().all(|&&(_, _, trunks)| trunks == 1));
        // 4 leaves × 2 uplinks.
        assert_eq!(leaf_line.len(), 8);
    }

    #[test]
    fn fabric_hops_monotone_with_hierarchy() {
        let t = gpc512();
        // Same leaf < cross-leaf, counting switch-to-switch links.
        let links = |dst| {
            t.route(NodeId(0), dst)
                .iter()
                .filter(|h| h.is_fabric())
                .count()
        };
        assert!(links(NodeId(1)) < links(NodeId(100)));
    }
}
