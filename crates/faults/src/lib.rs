//! # tarr-faults — failure injection and degraded-fabric construction
//!
//! Real clusters are never pristine: cables die, switches get drained for
//! firmware, hosts drop out of the allocation. This crate models those
//! conditions as a [`FaultSet`] — failed cables, failed switches, drained
//! nodes and drained cores — and applies them to any [`Cluster`] fabric
//! (fat-tree, torus or irregular), producing a [`Degraded`] cluster whose
//! surviving fabric reroutes around the damage.
//!
//! ## Reroute semantics
//!
//! Structural faults (cables/switches) work on the fabric's generic switch
//! graph (`Fabric::to_switch_graph`). After removing the failed hardware the
//! survivor graph is rebuilt as a [`Fabric::Irregular`], whose
//! per-destination BFS tables *are* the reroute: deterministic shortest
//! paths with destination-rotated equal-cost tie-breaks, hop-interned
//! exactly like every other fabric netsim prices. A degraded fat-tree therefore behaves like an
//! ingested irregular fabric — the same code path real miswired clusters
//! take. Fault sets with **only** drained nodes/cores leave the fabric object
//! untouched, preserving the original distance semantics exactly.
//!
//! If the survivors no longer connect all live nodes the fault set is
//! rejected with [`FaultError::PartitionedFabric`] — never a panic.
//!
//! Dead nodes whose hosting switch was removed are re-attached to surviving
//! switch 0 as a placeholder so node numbering (and hence global core
//! numbering) stays stable. The placeholder is unobservable: dead cores are
//! excluded from every allocation, so no route, distance query or schedule
//! ever touches a dead node.

mod error;

pub use error::FaultError;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tarr_topo::irregular::IrregularConfig;
use tarr_topo::{Cluster, CoreId, Fabric, IrregularFabric};

/// Per-component failure probabilities for [`FaultSet::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that each individual cable (one trunk of one link) fails.
    pub link_fail: f64,
    /// Probability that each switch fails outright.
    pub switch_fail: f64,
    /// Probability that each compute node is drained.
    pub node_drain: f64,
    /// Probability that each core is drained individually.
    pub core_drain: f64,
}

impl FaultRates {
    /// Link failures only, at the given per-cable rate.
    pub fn links(link_fail: f64) -> Self {
        FaultRates {
            link_fail,
            switch_fail: 0.0,
            node_drain: 0.0,
            core_drain: 0.0,
        }
    }
}

/// A set of hardware failures to apply to a cluster.
///
/// Cables are counted against the canonical merged link list of the fabric's
/// switch graph: `(a, b, n)` removes `n` cables from the trunk between
/// switches `a` and `b` (order-insensitive; counts clamp at the trunk width).
/// Failed switches disappear together with every cable touching them, and
/// kill the nodes they host. Drained nodes/cores stay physically present —
/// their cores are simply excluded from allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Cable failures `(switch_a, switch_b, count)`.
    pub failed_cables: Vec<(u32, u32, u32)>,
    /// Switches failed outright.
    pub failed_switches: Vec<u32>,
    /// Nodes drained from the allocation.
    pub drained_nodes: Vec<u32>,
    /// Individual cores drained from the allocation.
    pub drained_cores: Vec<CoreId>,
}

/// What applying a [`FaultSet`] did to the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationSummary {
    /// Individual cables removed (≤ requested: counts clamp at trunk width).
    pub cables_removed: usize,
    /// Switches removed (failed plus pruned empty components).
    pub switches_removed: usize,
    /// Nodes lost (drained, or hosted by a failed switch).
    pub nodes_lost: usize,
    /// Cores lost (all cores of lost nodes, plus individually drained ones).
    pub cores_lost: usize,
    /// Whether the fabric was structurally rebuilt (false = drain-only fault
    /// set; the original fabric object, and hence its exact distance
    /// semantics, are preserved).
    pub fabric_rebuilt: bool,
    /// Per-destination BFS distance rows recomputed while rebuilding
    /// (0 for drain-only sets, which do no distance work at all).
    pub dist_rows_rebuilt: usize,
    /// BFS rows carried over from the pre-fault fabric by the fault-local
    /// repair (only possible when the source fabric was already irregular).
    pub dist_rows_reused: usize,
}

/// What a fault-local fabric repair changed, in pre-fault switch
/// coordinates — only attached when the source fabric was irregular and the
/// renumbering came out as the identity (no switches pruned), which is when
/// downstream caches can check old routes against it.
#[derive(Debug, Clone)]
pub struct FabricDelta {
    /// Switches whose per-destination BFS row was rebuilt: any cached
    /// quantity derived from distances *to* these switches is stale.
    pub dirty_rows: Vec<u32>,
    /// Switches whose adjacency changed (an incident link was removed or
    /// lost trunks): any cached route traversing them may pick different
    /// hops now.
    pub changed_adj: Vec<u32>,
}

impl FabricDelta {
    /// Whether destination switch `d`'s distance row was rebuilt.
    pub fn row_dirty(&self, d: u32) -> bool {
        self.dirty_rows.binary_search(&d).is_ok()
    }

    /// Whether switch `s`'s adjacency (peers or trunk counts) changed.
    pub fn adj_changed(&self, s: u32) -> bool {
        self.changed_adj.binary_search(&s).is_ok()
    }
}

/// A cluster with faults applied.
#[derive(Debug, Clone)]
pub struct Degraded {
    /// The degraded cluster: same node/core numbering as the original, with
    /// the survivor fabric rerouted around removed hardware.
    pub cluster: Cluster,
    /// Dead cores (sorted ascending): every core of every lost node, plus
    /// the individually drained cores. Allocations must exclude these.
    pub dead_cores: Vec<CoreId>,
    /// Damage accounting.
    pub summary: DegradationSummary,
    /// Exactly what the fault-local repair changed, when one ran with an
    /// identity renumbering (irregular source fabric, no switches pruned).
    /// `None` for drain-only sets and for full rebuilds.
    pub fabric_delta: Option<FabricDelta>,
}

impl Degraded {
    /// Whether `core` is dead.
    pub fn is_dead(&self, core: CoreId) -> bool {
        self.dead_cores.binary_search(&core).is_ok()
    }

    /// Live cores, ascending.
    pub fn live_cores(&self) -> Vec<CoreId> {
        self.cluster.cores().filter(|&c| !self.is_dead(c)).collect()
    }
}

impl FaultSet {
    /// Whether the set contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.failed_cables.is_empty()
            && self.failed_switches.is_empty()
            && self.drained_nodes.is_empty()
            && self.drained_cores.is_empty()
    }

    /// Whether the set removes fabric hardware (as opposed to only draining
    /// nodes/cores out of the allocation).
    pub fn is_structural(&self) -> bool {
        !self.failed_cables.is_empty() || !self.failed_switches.is_empty()
    }

    /// Draw a seeded random fault set against `cluster`'s hardware: every
    /// cable, switch, node and core fails independently at the corresponding
    /// [`FaultRates`] probability. Deterministic in `(cluster, rates, seed)`.
    pub fn random(cluster: &Cluster, rates: &FaultRates, seed: u64) -> FaultSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = cluster.fabric().to_switch_graph();
        let mut set = FaultSet::default();

        // Canonicalise + merge so the draw order is independent of the
        // fabric kind's link emission order.
        let mut links: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(a, b, t) in &g.links {
            let key = if a <= b { (a, b) } else { (b, a) };
            *links.entry(key).or_insert(0) += t;
        }
        if rates.link_fail > 0.0 {
            for (&(a, b), &t) in &links {
                let fails = (0..t).filter(|_| rng.gen_bool(rates.link_fail)).count() as u32;
                if fails > 0 {
                    set.failed_cables.push((a, b, fails));
                }
            }
        }
        if rates.switch_fail > 0.0 {
            for s in 0..g.switches as u32 {
                if rng.gen_bool(rates.switch_fail) {
                    set.failed_switches.push(s);
                }
            }
        }
        if rates.node_drain > 0.0 {
            for n in 0..cluster.num_nodes() as u32 {
                if rng.gen_bool(rates.node_drain) {
                    set.drained_nodes.push(n);
                }
            }
        }
        if rates.core_drain > 0.0 {
            for c in 0..cluster.total_cores() {
                if rng.gen_bool(rates.core_drain) {
                    set.drained_cores.push(CoreId::from_idx(c));
                }
            }
        }
        set
    }

    /// Apply the faults to `cluster`, producing the degraded cluster.
    ///
    /// Never panics on any input: impossible references yield typed
    /// [`FaultError`]s, and a fault set that splits the live nodes across
    /// disconnected survivor components yields
    /// [`FaultError::PartitionedFabric`].
    pub fn apply(&self, cluster: &Cluster) -> Result<Degraded, FaultError> {
        let _span = tarr_trace::span("fault.apply")
            .arg("cables", self.failed_cables.len())
            .arg("switches", self.failed_switches.len())
            .arg("nodes", self.drained_nodes.len())
            .arg("cores", self.drained_cores.len());

        let nodes = cluster.num_nodes();
        let total_cores = cluster.total_cores();
        let cpn = cluster.cores_per_node();

        for &n in &self.drained_nodes {
            if n as usize >= nodes {
                return Err(FaultError::UnknownNode { node: n, nodes });
            }
        }
        for &c in &self.drained_cores {
            if c.idx() >= total_cores {
                return Err(FaultError::UnknownCore {
                    core: c.idx(),
                    total_cores,
                });
            }
        }

        let mut node_dead = vec![false; nodes];
        for &n in &self.drained_nodes {
            node_dead[n as usize] = true;
        }

        let mut summary = DegradationSummary {
            fabric_rebuilt: self.is_structural(),
            ..DegradationSummary::default()
        };

        let (fabric, fabric_delta) = if self.is_structural() {
            self.rebuild_fabric(cluster, &mut node_dead, &mut summary)?
        } else {
            (cluster.fabric().clone(), None)
        };

        summary.nodes_lost = node_dead.iter().filter(|&&d| d).count();

        let mut dead_cores: Vec<CoreId> = Vec::new();
        for (n, &dead) in node_dead.iter().enumerate() {
            if dead {
                dead_cores.extend((0..cpn).map(|l| CoreId::from_idx(n * cpn + l)));
            }
        }
        dead_cores.extend(self.drained_cores.iter().copied());
        dead_cores.sort_unstable();
        dead_cores.dedup();
        summary.cores_lost = dead_cores.len();
        if dead_cores.len() == total_cores {
            return Err(FaultError::NoLiveCores);
        }

        let cluster = Cluster::from_parts(cluster.node_topology().clone(), fabric, nodes)?;

        tarr_trace::counter_add!("fault.cables_removed", summary.cables_removed as u64);
        tarr_trace::counter_add!("fault.switches_removed", summary.switches_removed as u64);
        tarr_trace::counter_add!("fault.nodes_lost", summary.nodes_lost as u64);
        tarr_trace::counter_add!("fault.cores_lost", summary.cores_lost as u64);
        tarr_trace::counter_add!(
            "fault.repair.trees_rebuilt",
            summary.dist_rows_rebuilt as u64
        );
        tarr_trace::counter_add!("fault.repair.trees_reused", summary.dist_rows_reused as u64);

        Ok(Degraded {
            cluster,
            dead_cores,
            summary,
            fabric_delta,
        })
    }

    /// Remove failed hardware from the switch graph and rebuild the survivor
    /// fabric. Marks nodes hosted by failed switches dead.
    ///
    /// When the source fabric is already irregular, the survivor's BFS
    /// distance tables are **repaired** rather than rebuilt: only the rows
    /// whose shortest paths crossed the dead hardware are recomputed
    /// ([`IrregularFabric::repaired`]), the rest carried over — the result
    /// is identical either way, the differential tests pin it, and the
    /// second element reports exactly what changed when the renumbering is
    /// the identity.
    fn rebuild_fabric(
        &self,
        cluster: &Cluster,
        node_dead: &mut [bool],
        summary: &mut DegradationSummary,
    ) -> Result<(Fabric, Option<FabricDelta>), FaultError> {
        let g = cluster.fabric().to_switch_graph();
        let s_count = g.switches;

        let mut switch_dead = vec![false; s_count];
        for &s in &self.failed_switches {
            if s as usize >= s_count {
                return Err(FaultError::UnknownSwitch {
                    switch: s,
                    switches: s_count,
                });
            }
            switch_dead[s as usize] = true;
        }

        // Canonical merged trunk counts (fat-tree/torus exports emit one
        // entry per cable; irregular configs are already merged).
        let mut links: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(a, b, t) in &g.links {
            let key = if a <= b { (a, b) } else { (b, a) };
            *links.entry(key).or_insert(0) += t;
        }

        // Links whose trunk count actually changed — their endpoints'
        // adjacency (and hence route trunk selection) is different now.
        let mut changed_links: std::collections::BTreeSet<(u32, u32)> =
            std::collections::BTreeSet::new();
        for &(a, b, n) in &self.failed_cables {
            for s in [a, b] {
                if s as usize >= s_count {
                    return Err(FaultError::UnknownSwitch {
                        switch: s,
                        switches: s_count,
                    });
                }
            }
            let key = if a <= b { (a, b) } else { (b, a) };
            let Some(t) = links.get_mut(&key) else {
                return Err(FaultError::UnknownCable { a, b });
            };
            let removed = n.min(*t);
            summary.cables_removed += removed as usize;
            *t -= removed;
            if removed > 0 {
                changed_links.insert(key);
            }
        }

        for (n, &s) in g.node_switch.iter().enumerate() {
            if switch_dead[s as usize] {
                node_dead[n] = true;
            }
        }

        // Surviving adjacency (positive trunks between live switches).
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); s_count];
        for (&(a, b), &t) in &links {
            if t > 0 && !switch_dead[a as usize] && !switch_dead[b as usize] {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }

        // Connected components over live switches.
        let mut comp = vec![usize::MAX; s_count];
        let mut n_comps = 0usize;
        let mut queue = Vec::new();
        for start in 0..s_count {
            if switch_dead[start] || comp[start] != usize::MAX {
                continue;
            }
            comp[start] = n_comps;
            queue.clear();
            queue.push(start as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &v in &adj[u] {
                    if comp[v as usize] == usize::MAX {
                        comp[v as usize] = n_comps;
                        queue.push(v);
                    }
                }
            }
            n_comps += 1;
        }

        // Live nodes must share one component.
        let mut live_per_comp = vec![0usize; n_comps];
        let mut live_nodes = 0usize;
        for (n, &s) in g.node_switch.iter().enumerate() {
            if !node_dead[n] {
                live_per_comp[comp[s as usize]] += 1;
                live_nodes += 1;
            }
        }
        if live_nodes == 0 {
            return Err(FaultError::NoLiveCores);
        }
        let live_components = live_per_comp.iter().filter(|&&c| c > 0).count();
        if live_components > 1 {
            return Err(FaultError::PartitionedFabric {
                live_components,
                largest_component_nodes: live_per_comp.iter().copied().max().unwrap_or(0),
                live_nodes,
            });
        }
        let keep = live_per_comp
            .iter()
            .position(|&c| c > 0)
            .expect("live_nodes > 0 implies a live component");

        // Prune to the kept component and renumber.
        let mut new_idx = vec![u32::MAX; s_count];
        let mut kept = 0u32;
        for s in 0..s_count {
            if !switch_dead[s] && comp[s] == keep {
                new_idx[s] = kept;
                kept += 1;
            }
        }
        summary.switches_removed = s_count - kept as usize;

        let new_links: Vec<(u32, u32, u32)> = links
            .iter()
            .filter(|&(&(a, b), &t)| {
                t > 0 && new_idx[a as usize] != u32::MAX && new_idx[b as usize] != u32::MAX
            })
            .map(|(&(a, b), &t)| (new_idx[a as usize], new_idx[b as usize], t))
            .collect();

        // Dead nodes on pruned switches get a placeholder attachment to the
        // lowest surviving switch; see the module docs for why this is
        // unobservable.
        let node_switch: Vec<u32> = g
            .node_switch
            .iter()
            .map(|&s| {
                let ns = new_idx[s as usize];
                if ns == u32::MAX {
                    0
                } else {
                    ns
                }
            })
            .collect();

        let cfg = IrregularConfig {
            switches: kept as usize,
            node_switch,
            links: new_links,
        };
        match cluster.fabric() {
            // Irregular source: fault-local repair of the BFS tables.
            Fabric::Irregular(prev) => {
                let (fabric, stats) = IrregularFabric::repaired(prev, &new_idx, cfg)
                    .expect("kept component is connected by construction");
                summary.dist_rows_rebuilt = stats.rows_rebuilt();
                summary.dist_rows_reused = stats.rows_reused;
                // The delta is only consumable downstream when the
                // renumbering is the identity (nothing pruned): then new
                // and old switch coordinates coincide.
                let delta = (kept as usize == s_count).then(|| {
                    let mut changed_adj: Vec<u32> =
                        changed_links.iter().flat_map(|&(a, b)| [a, b]).collect();
                    changed_adj.sort_unstable();
                    changed_adj.dedup();
                    FabricDelta {
                        dirty_rows: stats.dirty_rows,
                        changed_adj,
                    }
                });
                Ok((Fabric::Irregular(fabric), delta))
            }
            // Fat-tree/torus source: the irregular form doesn't exist yet,
            // so every BFS row is necessarily computed fresh.
            _ => {
                let fabric =
                    IrregularFabric::new(cfg).expect("kept component is connected by construction");
                summary.dist_rows_rebuilt = fabric.num_switches();
                Ok((Fabric::Irregular(fabric), None))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarr_topo::{NodeId, NodeTopology};

    fn tiny16() -> Cluster {
        Cluster::tiny(16) // 4 leaves × 4 nodes × 4 cores
    }

    /// A 5-switch line 0—1—2—3—4, two nodes per switch, gpc nodes.
    fn line5() -> Cluster {
        let f = IrregularFabric::new(IrregularConfig {
            switches: 5,
            node_switch: (0..10).map(|n| n / 2).collect(),
            links: (0..4).map(|i| (i, i + 1, 2)).collect(),
        })
        .unwrap();
        Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(f), 10).unwrap()
    }

    #[test]
    fn empty_fault_set_is_identity() {
        let c = tiny16();
        let d = FaultSet::default().apply(&c).unwrap();
        assert_eq!(d.cluster, c);
        assert!(d.dead_cores.is_empty());
        assert!(!d.summary.fabric_rebuilt);
        assert_eq!(d.summary, DegradationSummary::default());
    }

    #[test]
    fn drain_only_preserves_fabric_object() {
        let c = tiny16();
        let set = FaultSet {
            drained_nodes: vec![3],
            drained_cores: vec![CoreId(0)],
            ..FaultSet::default()
        };
        let d = set.apply(&c).unwrap();
        assert_eq!(d.cluster.fabric(), c.fabric());
        assert!(!d.summary.fabric_rebuilt);
        // Node 3's four cores plus core 0.
        assert_eq!(
            d.dead_cores,
            vec![CoreId(0), CoreId(12), CoreId(13), CoreId(14), CoreId(15)]
        );
        assert_eq!(d.summary.nodes_lost, 1);
        assert_eq!(d.summary.cores_lost, 5);
        assert_eq!(d.live_cores().len(), 16 * 4 - 5);
        assert!(d.is_dead(CoreId(13)));
        assert!(!d.is_dead(CoreId(1)));
    }

    #[test]
    fn cable_failure_reroutes_on_survivors() {
        let c = line5();
        // Halve the 1—2 trunk: still connected, routes unchanged in shape.
        let d = FaultSet {
            failed_cables: vec![(2, 1, 1)],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap();
        assert!(d.summary.fabric_rebuilt);
        assert_eq!(d.summary.cables_removed, 1);
        let g = d.cluster.fabric().as_irregular().unwrap();
        assert_eq!(g.links()[1], (1, 2, 1));
        assert_eq!(g.hops(NodeId(0), NodeId(9)), 4);
        assert!(d.dead_cores.is_empty());
    }

    #[test]
    fn cutting_a_trunk_partitions() {
        let c = line5();
        let err = FaultSet {
            failed_cables: vec![(1, 2, 2)],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap_err();
        assert_eq!(
            err,
            FaultError::PartitionedFabric {
                live_components: 2,
                largest_component_nodes: 6,
                live_nodes: 10,
            }
        );
    }

    #[test]
    fn draining_one_side_unpartitions_the_cut() {
        // Same cut, but the smaller side's nodes are drained: the survivors
        // all live in one component, so the pruned fabric builds fine.
        let c = line5();
        let d = FaultSet {
            failed_cables: vec![(1, 2, 2)],
            drained_nodes: vec![0, 1, 2, 3],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap();
        // Switches 0 and 1 hold only dead nodes and are disconnected from
        // the kept component: pruned.
        assert_eq!(d.summary.switches_removed, 2);
        assert_eq!(d.cluster.fabric().as_irregular().unwrap().num_switches(), 3);
        assert_eq!(d.summary.nodes_lost, 4);
        assert_eq!(d.dead_cores.len(), 4 * 8);
    }

    #[test]
    fn switch_failure_kills_hosted_nodes() {
        let c = line5();
        let d = FaultSet {
            failed_switches: vec![0],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap();
        assert_eq!(d.summary.nodes_lost, 2);
        assert_eq!(d.summary.switches_removed, 1);
        assert_eq!(d.dead_cores.len(), 16);
        assert_eq!(d.cluster.fabric().as_irregular().unwrap().num_switches(), 4);
        // Interior switch failure partitions instead.
        let err = FaultSet {
            failed_switches: vec![2],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap_err();
        assert!(matches!(err, FaultError::PartitionedFabric { .. }));
    }

    #[test]
    fn fat_tree_leaf_isolation_partitions() {
        let c = tiny16();
        // Leaf 0 has 2 uplinks (to lines 0 and 1 of the single core switch).
        let g = c.fabric().to_switch_graph();
        let leaf0: Vec<(u32, u32, u32)> = g
            .links
            .iter()
            .filter(|&&(a, b, _)| a == 0 || b == 0)
            .copied()
            .collect();
        assert_eq!(leaf0.len(), 2);
        let err = FaultSet {
            failed_cables: leaf0,
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap_err();
        assert!(matches!(err, FaultError::PartitionedFabric { .. }), "{err}");
    }

    #[test]
    fn torus_cable_failure_lengthens_routes() {
        let c = Cluster::with_torus(NodeTopology::gpc(), [4, 1, 1]);
        // Cut the 0—1 ring edge: 0→1 must now go the long way round.
        let d = FaultSet {
            failed_cables: vec![(0, 1, 1)],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap();
        let g = d.cluster.fabric().as_irregular().unwrap();
        assert_eq!(g.hops(NodeId(0), NodeId(1)), 3);
        assert_eq!(g.hops(NodeId(0), NodeId(3)), 1);
    }

    #[test]
    fn unknown_references_are_typed_errors() {
        let c = tiny16();
        let bad = |set: FaultSet| set.apply(&c).unwrap_err();
        assert_eq!(
            bad(FaultSet {
                drained_nodes: vec![99],
                ..FaultSet::default()
            }),
            FaultError::UnknownNode {
                node: 99,
                nodes: 16
            }
        );
        assert_eq!(
            bad(FaultSet {
                drained_cores: vec![CoreId(999)],
                ..FaultSet::default()
            }),
            FaultError::UnknownCore {
                core: 999,
                total_cores: 64
            }
        );
        assert_eq!(
            bad(FaultSet {
                failed_switches: vec![50],
                ..FaultSet::default()
            }),
            FaultError::UnknownSwitch {
                switch: 50,
                switches: 8
            }
        );
        assert_eq!(
            bad(FaultSet {
                failed_cables: vec![(0, 1, 1)],
                ..FaultSet::default()
            }),
            FaultError::UnknownCable { a: 0, b: 1 }
        );
    }

    #[test]
    fn draining_everything_is_no_live_cores() {
        let c = Cluster::tiny(2);
        let err = FaultSet {
            drained_nodes: vec![0, 1],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap_err();
        assert_eq!(err, FaultError::NoLiveCores);
        // Structural path reaches the same verdict.
        let err = FaultSet {
            drained_nodes: vec![0, 1],
            failed_cables: vec![(0, 1, 1)],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap_err();
        assert_eq!(err, FaultError::NoLiveCores);
    }

    #[test]
    fn cable_counts_clamp_at_trunk_width() {
        let c = line5();
        let d = FaultSet {
            failed_cables: vec![(0, 1, 99)],
            drained_nodes: vec![0, 1],
            ..FaultSet::default()
        }
        .apply(&c)
        .unwrap();
        assert_eq!(d.summary.cables_removed, 2);
        assert_eq!(d.cluster.fabric().as_irregular().unwrap().num_switches(), 4);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let c = Cluster::gpc(64);
        let rates = FaultRates {
            link_fail: 0.05,
            switch_fail: 0.02,
            node_drain: 0.02,
            core_drain: 0.01,
        };
        let a = FaultSet::random(&c, &rates, 7);
        let b = FaultSet::random(&c, &rates, 7);
        assert_eq!(a, b);
        let other = FaultSet::random(&c, &rates, 8);
        assert_ne!(a, other);
        assert!(FaultSet::random(&c, &FaultRates::links(0.0), 7).is_empty());
        assert!(!FaultSet::random(&c, &FaultRates::links(1.0), 7).is_empty());
    }
}
