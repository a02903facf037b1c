//! General switch-graph fabric for ingested topologies that are not a clean
//! leaf/line/spine fat-tree.
//!
//! Real InfiniBand subnets drift from the ideal wiring — ports die, links are
//! re-cabled, half-populated core switches ship. `ibnetdiscover` output that
//! the classifier cannot match against [`crate::FatTree`] lands here: an
//! undirected multigraph of switches (parallel cables between the same switch
//! pair collapse into one link with a trunk count), with every compute node
//! attached to exactly one switch.
//!
//! Routing is destination-based deterministic, like the fat-tree's D-mod-k
//! rule and InfiniBand's forwarding tables: per destination switch a BFS
//! fixes the shortest-path levels, and the destination **node** index both
//! rotates among the equal-cost next hops and selects the trunk on each
//! traversed link (min-hop port balancing). Two messages to the same
//! destination therefore share their converging path deterministically —
//! the congestion behaviour the mapping heuristics exist to avoid — and
//! every directed `(from, to, trunk)` triple is its own [`Hop`] for
//! netsim's contention accounting.
//!
//! Each directed trunk also has a dense link id: a per-switch offset table,
//! built once with the adjacency, numbers the trunks of `s → adj[s][j]`
//! consecutively after those of every earlier adjacency entry, so routing
//! yields ids with no lookup.

use crate::error::TopoError;
use crate::ids::NodeId;
use crate::path::{Hop, HopKind};

/// Static description of an irregular switch fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrregularConfig {
    /// Number of switches.
    pub switches: usize,
    /// Hosting switch of each compute node (`node_switch[n]` < `switches`).
    pub node_switch: Vec<u32>,
    /// Undirected switch-switch links `(a, b, trunks)`; parallel entries for
    /// the same pair are merged by summing trunk counts.
    pub links: Vec<(u32, u32, u32)>,
}

/// An irregular switch fabric with precomputed deterministic routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrregularFabric {
    switches: usize,
    node_switch: Vec<u32>,
    /// Canonical link list: `a < b`, sorted, trunks merged.
    links: Vec<(u32, u32, u32)>,
    /// Sorted adjacency: `adj[s]` = `(peer, trunks)` ascending by peer.
    adj: Vec<Vec<(u32, u32)>>,
    /// `trunk_off[s][j]`: first switch-link id of the directed link
    /// `s → adj[s][j].0`; its trunks take the following ids.
    trunk_off: Vec<Vec<u32>>,
    /// `dist[d][s]` = switch hops from `s` to `d`.
    dist: Vec<Vec<u16>>,
}

/// What a fault-local [`IrregularFabric::repaired`] rebuild recomputed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// New-coordinate destination switches whose BFS row was recomputed
    /// (ascending). Distances *to* these switches may have changed; every
    /// other row is bitwise identical to the pre-fault fabric's.
    pub dirty_rows: Vec<u32>,
    /// Rows carried over (renumbered) from the pre-fault fabric.
    pub rows_reused: usize,
}

impl RepairStats {
    /// Number of BFS rows recomputed from scratch.
    pub fn rows_rebuilt(&self) -> usize {
        self.dirty_rows.len()
    }
}

impl IrregularFabric {
    /// Build the fabric, canonicalising links and precomputing per-destination
    /// BFS next-hop tables.
    pub fn new(cfg: IrregularConfig) -> Result<Self, TopoError> {
        let (s_count, node_switch, merged, adj) = canonicalise(cfg)?;

        // Per-destination BFS over the undirected graph; neighbours are
        // visited in ascending index order so levels (and hence the
        // next-hop candidate sets [`route`] draws from) are deterministic.
        let mut dist = vec![vec![u16::MAX; s_count]; s_count];
        let mut queue = Vec::with_capacity(s_count);
        for (d, row) in dist.iter_mut().enumerate() {
            bfs_row(&adj, d, row, &mut queue)?;
        }

        Ok(IrregularFabric {
            switches: s_count,
            node_switch,
            links: merged,
            trunk_off: trunk_offsets(&adj),
            adj,
            dist,
        })
    }

    /// Rebuild after a fault, reusing every per-destination BFS row the dead
    /// hardware could not have touched.
    ///
    /// `prev` is the pre-fault fabric; `new_idx[old]` gives each old
    /// switch's index in `cfg` (`u32::MAX` for switches absent from the new
    /// fabric — failed or pruned); `cfg` is the post-fault configuration
    /// exactly as [`IrregularFabric::new`] would consume it.
    ///
    /// A destination row `d` must be recomputed only when a removed element
    /// sat on some shortest path towards `d`:
    ///
    /// * a removed undirected edge `(a, b)` (both endpoints surviving) lies
    ///   on a shortest path to `d` iff `|dist[d][a] − dist[d][b]| == 1` —
    ///   otherwise no shortest path uses it, and since removals never
    ///   *shorten* paths the row's distances are unchanged;
    /// * a removed switch `s` lies on another vertex's shortest path to `d`
    ///   iff some old neighbour `v` has `dist[d][v] == dist[d][s] + 1`
    ///   (a path descending into `s`); its incident edges only carry paths
    ///   through `s`, so they need no separate check;
    /// * trunk-count changes never dirty a row (adjacency membership is
    ///   unchanged) — they alter routes, not distances.
    ///
    /// Clean rows are renumbered and carried over verbatim; BFS distances
    /// are canonical values, so the result is **identical** (full
    /// `PartialEq`) to `IrregularFabric::new(cfg)`, which the differential
    /// tests in `tarr-faults` pin. If `cfg` contains an edge `prev` lacked
    /// (never the case for pure fault sets), every row is recomputed.
    ///
    /// # Panics
    /// Panics if `new_idx` does not map the surviving old switches
    /// bijectively onto `cfg`'s switches.
    pub fn repaired(
        prev: &IrregularFabric,
        new_idx: &[u32],
        cfg: IrregularConfig,
    ) -> Result<(Self, RepairStats), TopoError> {
        assert_eq!(new_idx.len(), prev.switches, "new_idx/fabric mismatch");
        let (s_count, node_switch, merged, adj) = canonicalise(cfg)?;

        // Invert the renumbering; every new switch needs one old preimage.
        let mut old_of = vec![u32::MAX; s_count];
        for (old, &ni) in new_idx.iter().enumerate() {
            if ni != u32::MAX {
                assert!(
                    (ni as usize) < s_count && old_of[ni as usize] == u32::MAX,
                    "new_idx is not injective into the new fabric"
                );
                old_of[ni as usize] = old as u32;
            }
        }
        assert!(
            old_of.iter().all(|&o| o != u32::MAX),
            "new fabric has a switch with no old preimage"
        );

        let has_new_edge = |na: u32, nb: u32| {
            adj[na as usize]
                .binary_search_by_key(&nb, |&(p, _)| p)
                .is_ok()
        };
        // An edge present now but absent before can shorten any path:
        // nothing is reusable. Pure fault sets never take this branch.
        let edge_added = merged.iter().any(|&(na, nb, _)| {
            let (oa, ob) = (old_of[na as usize], old_of[nb as usize]);
            let (oa, ob) = if oa <= ob { (oa, ob) } else { (ob, oa) };
            prev.links
                .binary_search_by_key(&(oa, ob), |&(a, b, _)| (a, b))
                .is_err()
        });

        let removed_switches: Vec<u32> = (0..prev.switches as u32)
            .filter(|&s| new_idx[s as usize] == u32::MAX)
            .collect();
        // Old edges gone from the new adjacency, both endpoints surviving
        // (edges at removed switches are covered by the switch criterion).
        let removed_edges: Vec<(u32, u32)> = prev
            .links
            .iter()
            .filter_map(|&(a, b, _)| {
                let (na, nb) = (new_idx[a as usize], new_idx[b as usize]);
                (na != u32::MAX && nb != u32::MAX && !has_new_edge(na, nb)).then_some((a, b))
            })
            .collect();

        let mut dist = vec![Vec::new(); s_count];
        let mut queue = Vec::with_capacity(s_count);
        let mut stats = RepairStats::default();
        for (nd, row) in dist.iter_mut().enumerate() {
            let d = old_of[nd] as usize;
            let old_row = &prev.dist[d];
            let dirty = edge_added
                || removed_edges
                    .iter()
                    .any(|&(a, b)| old_row[a as usize].abs_diff(old_row[b as usize]) == 1)
                || removed_switches.iter().any(|&s| {
                    prev.adj[s as usize]
                        .iter()
                        .any(|&(v, _)| old_row[v as usize] == old_row[s as usize] + 1)
                });
            if dirty {
                *row = vec![u16::MAX; s_count];
                bfs_row(&adj, nd, row, &mut queue)?;
                stats.dirty_rows.push(nd as u32);
            } else {
                *row = old_of.iter().map(|&o| old_row[o as usize]).collect();
                stats.rows_reused += 1;
            }
        }

        Ok((
            IrregularFabric {
                switches: s_count,
                node_switch,
                links: merged,
                trunk_off: trunk_offsets(&adj),
                adj,
                dist,
            },
            stats,
        ))
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches
    }

    /// Export the fabric back into its canonical configuration (links with
    /// `a < b`, sorted, trunks merged) — the editable form fault injection
    /// consumes.
    pub fn to_config(&self) -> IrregularConfig {
        IrregularConfig {
            switches: self.switches,
            node_switch: self.node_switch.clone(),
            links: self.links.clone(),
        }
    }

    /// Number of compute nodes attached.
    pub fn num_nodes(&self) -> usize {
        self.node_switch.len()
    }

    /// Hosting switch of `node`.
    #[inline]
    pub fn switch_of(&self, node: NodeId) -> u32 {
        self.node_switch[node.idx()]
    }

    /// Canonical link list (`a < b`, sorted, trunks merged).
    pub fn links(&self) -> &[(u32, u32, u32)] {
        &self.links
    }

    /// Per-node hosting switches, in node order.
    pub fn node_switches(&self) -> &[u32] {
        &self.node_switch
    }

    /// Switch hops between two switches on the routed (BFS shortest) path.
    #[inline]
    pub fn switch_hops(&self, a: u32, b: u32) -> u16 {
        self.dist[b as usize][a as usize]
    }

    /// Switch hops on the routed path between two nodes (0 = same switch).
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        self.switch_hops(self.switch_of(a), self.switch_of(b)) as usize
    }

    /// BFS hop-count row from every switch to `dst` (`row[s]` = hops s→dst).
    pub fn level_row(&self, dst: u32) -> &[u16] {
        &self.dist[dst as usize]
    }

    /// Deterministic route from `src` to `dst` as a sequence of [`Hop`]s
    /// including the HCA injection/delivery links. The switch path descends
    /// the per-destination BFS levels; at each step the destination **node**
    /// index rotates among the equal-cost next hops and selects the trunk on
    /// the traversed link — the D-mod-k port balancing real min-hop
    /// forwarding tables do. Routing everything through one fixed candidate
    /// (say the lowest index) would funnel the traffic of every destination
    /// behind a switch over a single intermediate, which no deployed fabric
    /// does. All messages to the same destination still share their
    /// converging path deterministically.
    ///
    /// # Panics
    /// Panics if `src == dst` (a node does not route to itself).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<Hop> {
        let d = self.switch_of(dst) as usize;
        let mut hops = Vec::with_capacity(2 + self.dist[d][self.switch_of(src) as usize] as usize);
        self.walk(src, dst, 0, |h, _| hops.push(h));
        hops
    }

    /// The fabric's link namespace as contiguous per-kind id ranges, in id
    /// order: HCA up and down (one per node), then one id per trunk of every
    /// directed switch link, numbered by source switch, then peer, then
    /// trunk.
    pub(crate) fn link_ranges(&self) -> [(HopKind, usize); 3] {
        let n = self.num_nodes();
        let trunks: u32 = self.links.iter().map(|&(_, _, t)| t).sum();
        [
            (HopKind::HcaUp, n),
            (HopKind::HcaDown, n),
            (HopKind::SwitchLink, 2 * trunks as usize),
        ]
    }

    /// Id of `hop` in the fabric's link namespace, or `None` when the fabric
    /// has no such link (unknown node, switch pair or trunk).
    pub(crate) fn link_id(&self, hop: &Hop) -> Option<u32> {
        let n = self.num_nodes() as u32;
        match *hop {
            Hop::HcaUp { node } => (node.0 < n).then_some(node.0),
            Hop::HcaDown { node } => (node.0 < n).then_some(n + node.0),
            Hop::SwitchLink { from, to, trunk } => {
                let row = self.adj.get(from as usize)?;
                let j = row.binary_search_by_key(&to, |&(p, _)| p).ok()?;
                (trunk < row[j].1).then(|| 2 * n + self.trunk_off[from as usize][j] + trunk)
            }
            _ => None,
        }
    }

    /// Walk the route from `src` to `dst`, handing every hop and its link id
    /// (offset by `base`) to `emit` in path order — the one walk behind
    /// [`IrregularFabric::route`] and the cluster's dense-id routing.
    ///
    /// # Panics
    /// Panics if `src == dst` (a node does not route to itself).
    #[inline]
    pub(crate) fn walk(&self, src: NodeId, dst: NodeId, base: u32, mut emit: impl FnMut(Hop, u32)) {
        assert_ne!(src, dst, "no route from a node to itself");
        let n = self.num_nodes() as u32;
        let d = self.switch_of(dst);
        let mut s = self.switch_of(src);
        let dist_d = &self.dist[d as usize];
        emit(Hop::HcaUp { node: src }, base + src.0);
        while s != d {
            let descending =
                |&(_, &(v, _)): &(usize, &(u32, u32))| dist_d[v as usize] + 1 == dist_d[s as usize];
            let row = &self.adj[s as usize];
            let candidates = row.iter().enumerate().filter(descending).count();
            debug_assert!(candidates > 0, "connected graph has a descending neighbour");
            let (j, &(next, trunks)) = row
                .iter()
                .enumerate()
                .filter(descending)
                .nth(dst.idx() % candidates)
                .expect("candidate index is in range by construction");
            let trunk = dst.0 % trunks;
            emit(
                Hop::SwitchLink {
                    from: s,
                    to: next,
                    trunk,
                },
                base + 2 * n + self.trunk_off[s as usize][j] + trunk,
            );
            s = next;
        }
        emit(Hop::HcaDown { node: dst }, base + n + dst.0);
    }
}

/// Per adjacency entry, the first id of its directed trunks: entries are
/// numbered in `(switch, peer)` order, each taking as many ids as it has
/// trunks.
fn trunk_offsets(adj: &[Vec<(u32, u32)>]) -> Vec<Vec<u32>> {
    let mut next = 0u32;
    adj.iter()
        .map(|row| {
            row.iter()
                .map(|&(_, t)| {
                    next += t;
                    next - t
                })
                .collect()
        })
        .collect()
}

/// Validate a configuration and produce the canonical link list (`a < b`,
/// sorted, trunks merged) plus the sorted adjacency rows — everything of an
/// [`IrregularFabric`] except the BFS tables.
#[allow(clippy::type_complexity)]
fn canonicalise(
    cfg: IrregularConfig,
) -> Result<(usize, Vec<u32>, Vec<(u32, u32, u32)>, Vec<Vec<(u32, u32)>>), TopoError> {
    let s_count = cfg.switches;
    if s_count == 0 {
        return Err(TopoError::NoSwitches);
    }
    if cfg.node_switch.is_empty() {
        return Err(TopoError::NoNodes);
    }
    for &s in &cfg.node_switch {
        if s as usize >= s_count {
            return Err(TopoError::SwitchOutOfRange {
                switch: s as usize,
                switches: s_count,
            });
        }
    }

    // Canonicalise: a < b, merge parallel cables into trunk counts.
    let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(cfg.links.len());
    let mut canon: Vec<(u32, u32, u32)> = cfg
        .links
        .iter()
        .map(|&(a, b, t)| if a <= b { (a, b, t) } else { (b, a, t) })
        .collect();
    canon.sort_unstable();
    for (a, b, t) in canon {
        if a == b {
            return Err(TopoError::SelfLink { switch: a as usize });
        }
        if b as usize >= s_count {
            return Err(TopoError::SwitchOutOfRange {
                switch: b as usize,
                switches: s_count,
            });
        }
        if t == 0 {
            return Err(TopoError::ZeroFabricExtent);
        }
        match merged.last_mut() {
            Some(last) if last.0 == a && last.1 == b => last.2 += t,
            _ => merged.push((a, b, t)),
        }
    }

    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); s_count];
    for &(a, b, t) in &merged {
        adj[a as usize].push((b, t));
        adj[b as usize].push((a, t));
    }
    for row in &mut adj {
        row.sort_unstable();
    }
    Ok((s_count, cfg.node_switch, merged, adj))
}

/// Fill `dist_d` with BFS hop counts towards destination `d` (neighbours in
/// ascending index order, so levels are deterministic). `dist_d` must come
/// in as all-`u16::MAX`; `queue` is reusable scratch.
fn bfs_row(
    adj: &[Vec<(u32, u32)>],
    d: usize,
    dist_d: &mut [u16],
    queue: &mut Vec<u32>,
) -> Result<(), TopoError> {
    dist_d[d] = 0;
    queue.clear();
    queue.push(d as u32);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &(v, _) in &adj[u] {
            if dist_d[v as usize] == u16::MAX {
                dist_d[v as usize] = dist_d[u] + 1;
                queue.push(v);
            }
        }
    }
    match dist_d.iter().position(|&x| x == u16::MAX) {
        Some(unreachable) => Err(TopoError::DisconnectedFabric { unreachable }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::HopKind;

    /// A 5-switch line: 0 — 1 — 2 — 3 — 4, two nodes per switch.
    fn line5() -> IrregularFabric {
        IrregularFabric::new(IrregularConfig {
            switches: 5,
            node_switch: (0..10).map(|n| n / 2).collect(),
            links: (0..4).map(|i| (i, i + 1, 2)).collect(),
        })
        .unwrap()
    }

    #[test]
    fn same_switch_route_is_hca_only() {
        let f = line5();
        let hops = f.route(NodeId(0), NodeId(1));
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].kind(), HopKind::HcaUp);
        assert_eq!(hops[1].kind(), HopKind::HcaDown);
    }

    #[test]
    fn route_length_matches_bfs_distance() {
        let f = line5();
        for a in 0..10u32 {
            for b in 0..10u32 {
                if a == b {
                    continue;
                }
                let hops = f.route(NodeId(a), NodeId(b));
                let fabric_links = hops.iter().filter(|h| h.is_fabric()).count();
                assert_eq!(fabric_links, f.hops(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn routing_is_destination_deterministic() {
        let f = line5();
        assert_eq!(f.route(NodeId(0), NodeId(9)), f.route(NodeId(0), NodeId(9)));
        // Converging traffic shares the final link.
        let r1 = f.route(NodeId(0), NodeId(9));
        let r2 = f.route(NodeId(4), NodeId(9));
        assert_eq!(r1[r1.len() - 2], r2[r2.len() - 2]);
    }

    #[test]
    fn trunk_selection_spreads_by_destination() {
        let f = line5();
        // Nodes 8 and 9 both live on switch 4; their inbound link 3→4 has
        // 2 trunks, so the two destinations use different trunks.
        let t8 = f.route(NodeId(0), NodeId(8));
        let t9 = f.route(NodeId(0), NodeId(9));
        let last = |r: &[Hop]| r[r.len() - 2];
        assert_ne!(last(&t8), last(&t9));
    }

    #[test]
    fn parallel_cables_merge_into_trunks() {
        let f = IrregularFabric::new(IrregularConfig {
            switches: 2,
            node_switch: vec![0, 1],
            links: vec![(0, 1, 1), (1, 0, 1), (0, 1, 1)],
        })
        .unwrap();
        assert_eq!(f.links(), &[(0, 1, 3)]);
    }

    #[test]
    fn tie_break_rotates_by_destination() {
        // Diamond: 0—1—3 and 0—2—3. Both middle switches are equal-cost;
        // the choice is deterministic in the destination node (node 1 picks
        // candidate 1 % 2 = 1, i.e. switch 2), not always the lowest index.
        let f = IrregularFabric::new(IrregularConfig {
            switches: 4,
            node_switch: vec![0, 3],
            links: vec![(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)],
        })
        .unwrap();
        let hops = f.route(NodeId(0), NodeId(1));
        assert_eq!(
            hops[1],
            Hop::SwitchLink {
                from: 0,
                to: 2,
                trunk: 0
            }
        );
        assert_eq!(hops.len(), 4, "tie-break never lengthens the path");

        // Reverse direction: destination node 0 picks candidate 0 % 2 = 0 —
        // switch 1.
        let back = f.route(NodeId(1), NodeId(0));
        assert_eq!(
            back[1],
            Hop::SwitchLink {
                from: 3,
                to: 1,
                trunk: 0
            }
        );
    }

    #[test]
    fn disconnected_graph_rejected() {
        let err = IrregularFabric::new(IrregularConfig {
            switches: 3,
            node_switch: vec![0, 2],
            links: vec![(0, 1, 1)],
        })
        .unwrap_err();
        assert_eq!(err, TopoError::DisconnectedFabric { unreachable: 2 });
    }

    #[test]
    fn bad_indices_rejected() {
        assert_eq!(
            IrregularFabric::new(IrregularConfig {
                switches: 2,
                node_switch: vec![5],
                links: vec![(0, 1, 1)],
            })
            .unwrap_err(),
            TopoError::SwitchOutOfRange {
                switch: 5,
                switches: 2
            }
        );
        assert_eq!(
            IrregularFabric::new(IrregularConfig {
                switches: 2,
                node_switch: vec![0],
                links: vec![(1, 1, 1)],
            })
            .unwrap_err(),
            TopoError::SelfLink { switch: 1 }
        );
    }

    #[test]
    fn level_rows_are_bfs_distances() {
        let f = line5();
        assert_eq!(f.level_row(0), &[0, 1, 2, 3, 4]);
        assert_eq!(f.level_row(2), &[2, 1, 0, 1, 2]);
    }

    /// A 2×3 grid with a chord, two nodes per switch — enough redundancy
    /// that single-edge removals keep it connected.
    ///
    /// ```text
    /// 0 — 1 — 2
    /// |   |   |
    /// 3 — 4 — 5   plus chord 0 — 4
    /// ```
    fn grid6() -> IrregularFabric {
        IrregularFabric::new(grid6_cfg()).unwrap()
    }

    fn grid6_cfg() -> IrregularConfig {
        IrregularConfig {
            switches: 6,
            node_switch: (0..12).map(|n| n / 2).collect(),
            links: vec![
                (0, 1, 2),
                (1, 2, 2),
                (3, 4, 2),
                (4, 5, 2),
                (0, 3, 1),
                (1, 4, 1),
                (2, 5, 1),
                (0, 4, 1),
            ],
        }
    }

    fn identity_idx(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn repaired_edge_removal_matches_fresh_build() {
        let prev = grid6();
        for drop in 0..grid6_cfg().links.len() {
            let mut cfg = grid6_cfg();
            cfg.links.remove(drop);
            let fresh = IrregularFabric::new(cfg.clone()).unwrap();
            let (rep, stats) = IrregularFabric::repaired(&prev, &identity_idx(6), cfg).unwrap();
            assert_eq!(rep, fresh, "dropped link {drop}");
            assert_eq!(stats.rows_rebuilt() + stats.rows_reused, 6);
        }
    }

    #[test]
    fn trunk_only_change_reuses_every_row() {
        let prev = grid6();
        let mut cfg = grid6_cfg();
        cfg.links[0].2 = 1; // 0—1 loses a cable but survives
        let fresh = IrregularFabric::new(cfg.clone()).unwrap();
        let (rep, stats) = IrregularFabric::repaired(&prev, &identity_idx(6), cfg).unwrap();
        assert_eq!(rep, fresh);
        assert_eq!(stats.rows_rebuilt(), 0);
        assert_eq!(stats.rows_reused, 6);
    }

    #[test]
    fn off_shortest_path_edge_removal_is_free_for_far_rows() {
        // Removing the chord 0—4 only dirties rows where it carried a
        // shortest path; |dist[d][0] − dist[d][4]| == 1 fails for d ∈ {1, 3}
        // (both neighbours of 0 and 4 at equal level).
        let prev = grid6();
        let mut cfg = grid6_cfg();
        cfg.links.retain(|&l| l != (0, 4, 1));
        let (rep, stats) = IrregularFabric::repaired(&prev, &identity_idx(6), cfg.clone()).unwrap();
        assert_eq!(rep, IrregularFabric::new(cfg).unwrap());
        assert!(stats.rows_reused >= 2, "{stats:?}");
        assert!(stats.rows_rebuilt() >= 1, "{stats:?}");
    }

    #[test]
    fn repaired_switch_removal_with_renumbering() {
        // Kill switch 1: survivors renumber 0,2,3,4,5 → 0,1,2,3,4.
        let prev = grid6();
        let new_idx = vec![0, u32::MAX, 1, 2, 3, 4];
        let cfg = IrregularConfig {
            switches: 5,
            // Nodes of switch 1 rehomed to switch 0 (old index 0).
            node_switch: vec![0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
            links: vec![(0, 2, 1), (1, 4, 1), (2, 3, 2), (3, 4, 2), (0, 3, 1)],
        };
        let fresh = IrregularFabric::new(cfg.clone()).unwrap();
        let (rep, stats) = IrregularFabric::repaired(&prev, &new_idx, cfg).unwrap();
        assert_eq!(rep, fresh);
        assert_eq!(stats.rows_rebuilt() + stats.rows_reused, 5);
    }

    #[test]
    fn repaired_disconnection_is_typed() {
        let prev = line5();
        let mut cfg = prev.to_config();
        cfg.links.retain(|&l| l != (2, 3, 2));
        let err = IrregularFabric::repaired(&prev, &identity_idx(5), cfg).unwrap_err();
        assert!(matches!(err, TopoError::DisconnectedFabric { .. }));
    }
}
