//! Bucketed free-slot index: `find_closest_to` without scanning all P slots.
//!
//! [`MappingContext`](crate::scheme::MappingContext) answers each closest-
//! free-slot query with an O(P) scan, so a full heuristic run is O(P²) —
//! fine at 4096 ranks, hopeless at 65 536. This module exploits that
//! distances are *hierarchical*: all free slots at one distance from a
//! reference form a **class** determined by the level of the hierarchy they
//! share with it (same physical core ⊃ L2 group ⊃ socket ⊃ node ⊃ leaf ⊃
//! line-connected leaves ⊃ rest of the fabric; on a torus, hop-count rings
//! around the reference node). Because the distance configuration is
//! validated strictly increasing across levels, the first non-empty class
//! *is* the minimum distance.
//!
//! [`BucketContext`] keeps one free counter per L2 group, socket, node and
//! leaf, maintained incrementally on [`take`](PlacementContext::take). A
//! query walks the class ladder outward, reads the class size `k` from the
//! counters in O(1) (O(peer leaves) for the line class), performs the
//! canonical tie-break draw, and enumerates only the chosen class — skipping
//! whole leaves and nodes by their counters — in ascending physical-core-id
//! order. That reproduces the linear scan's choices **bit-identically** (see
//! [`crate::scheme`] for the tie-break contract) at O(L + nodes_per_leaf +
//! node_size) per query instead of O(P).
//!
//! On an irregular fabric the classes past the hosting switch are the BFS
//! switch levels around it. The context records the maximal runs of
//! consecutive node ids one switch hosts, with a free counter per run, so
//! building it costs O(N + S) for N nodes and S switches. A query sums the
//! run counters per level of the reference switch's BFS row, and walks the
//! runs of the first non-empty level in ascending node order, skipping
//! whole runs by their counters: O(runs) per query.

use crate::scheme::{tie_break, PlacementContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tarr_topo::{DistanceOracle, Fabric, ImplicitDistance, IrregularFabric, NodeId};

/// Offsets of a torus, grouped by wrapped hop distance: `by_dist[r]` holds
/// every coordinate offset whose shortest-wrap hop count is exactly `r + 1`.
/// O(N) memory; lets a query enumerate the ring of nodes at each hop
/// distance around a reference without touching the rest of the grid.
struct RingTable {
    dims: [usize; 3],
    by_dist: Vec<Vec<[usize; 3]>>,
}

impl RingTable {
    fn new(dims: [usize; 3]) -> Self {
        let wrapped = |d: usize, extent: usize| d.min(extent - d);
        let mut by_dist: Vec<Vec<[usize; 3]>> = Vec::new();
        for dx in 0..dims[0] {
            for dy in 0..dims[1] {
                for dz in 0..dims[2] {
                    let r = wrapped(dx, dims[0]) + wrapped(dy, dims[1]) + wrapped(dz, dims[2]);
                    if r == 0 {
                        continue;
                    }
                    if by_dist.len() < r {
                        by_dist.resize_with(r, Vec::new);
                    }
                    by_dist[r - 1].push([dx, dy, dz]);
                }
            }
        }
        RingTable { dims, by_dist }
    }

    /// Node ids at hop distance `r ≥ 1` around `center`, in ascending order.
    fn ring(&self, center: [usize; 3], r: usize) -> Vec<u32> {
        let Some(offsets) = self.by_dist.get(r - 1) else {
            return Vec::new();
        };
        let [dx_max, dy_max, dz_max] = self.dims;
        let mut nodes: Vec<u32> = offsets
            .iter()
            .map(|&[dx, dy, dz]| {
                let x = (center[0] + dx) % dx_max;
                let y = (center[1] + dy) % dy_max;
                let z = (center[2] + dz) % dz_max;
                (x + dx_max * (y + dy_max * z)) as u32
            })
            .collect();
        nodes.sort_unstable();
        nodes
    }

    fn max_dist(&self) -> usize {
        self.by_dist.len()
    }
}

/// Irregular fabrics only: the nodes each switch hosts, as maximal runs of
/// consecutive node ids, with a free-slot counter per run. Ascending node
/// order is the canonical candidate order, since global core ids ascend
/// with node ids.
struct SwitchRuns {
    /// `(first, end, switch)`: nodes `first..end` sit on `switch`; runs
    /// ascend and tile `0..N`.
    runs: Vec<(u32, u32, u32)>,
    /// Free slots per run.
    free_run: Vec<u32>,
    /// Run index of every node.
    run_of: Vec<u32>,
    /// Nodes hosted by each switch, ascending: the same-switch class.
    switch_nodes: Vec<Vec<u32>>,
    /// Query scratch: free slots per BFS level around the reference switch.
    free_level: Vec<u32>,
}

impl SwitchRuns {
    fn new(g: &IrregularFabric) -> Self {
        let node_switch = g.node_switches();
        let mut runs: Vec<(u32, u32, u32)> = Vec::new();
        let mut run_of = Vec::with_capacity(node_switch.len());
        let mut switch_nodes: Vec<Vec<u32>> = vec![Vec::new(); g.num_switches()];
        for (node, &switch) in node_switch.iter().enumerate() {
            let node = node as u32;
            match runs.last_mut() {
                Some(run) if run.2 == switch => run.1 = node + 1,
                _ => runs.push((node, node + 1, switch)),
            }
            run_of.push(runs.len() as u32 - 1);
            switch_nodes[switch as usize].push(node);
        }
        SwitchRuns {
            free_run: vec![0; runs.len()],
            runs,
            run_of,
            switch_nodes,
            free_level: vec![0; g.num_switches()],
        }
    }
}

/// Bucketed placement state over the implicit distance oracle.
///
/// Produces the same mappings as
/// [`MappingContext`](crate::scheme::MappingContext) for the same seed, in
/// O(P) memory and sublinear per-query time.
pub struct BucketContext<'a> {
    o: &'a ImplicitDistance,
    free: Vec<bool>,
    total_free: usize,
    /// Free slots per global physical-core / L2-group / socket key and node.
    free_core: Vec<u32>,
    free_l2: Vec<u32>,
    free_socket: Vec<u32>,
    free_node: Vec<u32>,
    /// Fat-tree and irregular: free slots per leaf (hosting switch).
    free_leaf: Vec<u32>,
    /// Slot indices hosted on each node, ascending physical core id.
    node_slots: Vec<Vec<u32>>,
    nodes_per_leaf: usize,
    /// Torus only: offsets by hop distance.
    rings: Option<RingTable>,
    /// Irregular only: node runs per switch and their free counters.
    switch_runs: Option<SwitchRuns>,
    rng: StdRng,
    /// Instrumentation: closest-free-slot queries answered.
    queries: u64,
    /// Instrumentation: empty classes walked past before the answer class.
    class_fallthroughs: u64,
    /// Instrumentation: whole nodes skipped by counter instead of scanned
    /// (`Cell` because the pick helpers take `&self`).
    nodes_skipped: std::cell::Cell<u64>,
}

impl<'a> BucketContext<'a> {
    /// Fresh context over the oracle; all slots free.
    pub fn new(o: &'a ImplicitDistance, seed: u64) -> Self {
        let cluster = o.cluster();
        let nt = cluster.node_topology();
        let num_nodes = cluster.num_nodes();
        let phys_per_node = nt.sockets * nt.cores_per_socket;
        let l2_per_node = phys_per_node / nt.cores_per_l2;

        let kind = match cluster.fabric() {
            Fabric::FatTree(_) => "fattree",
            Fabric::Torus(_) => "torus",
            Fabric::Irregular(_) => "irregular",
        };
        let _span = tarr_trace::span("mapping.bucket.build")
            .arg("p", o.len())
            .arg("fabric", kind);
        let (num_leaves, nodes_per_leaf, rings, switch_runs) = match cluster.fabric() {
            Fabric::FatTree(f) => (f.num_leaves(), f.config().nodes_per_leaf, None, None),
            Fabric::Torus(t) => (0, 0, Some(RingTable::new(t.dims())), None),
            Fabric::Irregular(g) => (g.num_switches(), 0, None, Some(SwitchRuns::new(g))),
        };

        let mut ctx = BucketContext {
            o,
            free: vec![true; o.len()],
            total_free: o.len(),
            free_core: vec![0; num_nodes * phys_per_node],
            free_l2: vec![0; num_nodes * l2_per_node],
            free_socket: vec![0; num_nodes * nt.sockets],
            free_node: vec![0; num_nodes],
            free_leaf: vec![0; num_leaves],
            node_slots: vec![Vec::new(); num_nodes],
            nodes_per_leaf,
            rings,
            switch_runs,
            rng: StdRng::seed_from_u64(seed),
            queries: 0,
            class_fallthroughs: 0,
            nodes_skipped: std::cell::Cell::new(0),
        };
        for (slot, p) in o.paths().iter().enumerate() {
            ctx.free_core[p.core as usize] += 1;
            ctx.free_l2[p.l2 as usize] += 1;
            ctx.free_socket[p.socket as usize] += 1;
            ctx.free_node[p.node as usize] += 1;
            if !ctx.free_leaf.is_empty() {
                ctx.free_leaf[p.leaf as usize] += 1;
            }
            if let Some(sr) = &mut ctx.switch_runs {
                sr.free_run[sr.run_of[p.node as usize] as usize] += 1;
            }
            ctx.node_slots[p.node as usize].push(slot as u32);
        }
        let cores = o.cores();
        for slots in &mut ctx.node_slots {
            slots.sort_unstable_by_key(|&s| cores[s as usize]);
        }
        ctx
    }

    /// The `j`-th (0-based) free slot on `node` satisfying `pred`, counting
    /// in ascending core-id order; decrements `j` past non-matches' worth of
    /// matches and returns `None` if the node holds fewer than `j + 1`.
    fn pick_on_node<F: Fn(&tarr_topo::SlotPath) -> bool>(
        &self,
        node: u32,
        pred: F,
        j: &mut usize,
    ) -> Option<usize> {
        for &slot in &self.node_slots[node as usize] {
            if !self.free[slot as usize] || !pred(&self.o.paths()[slot as usize]) {
                continue;
            }
            if *j == 0 {
                return Some(slot as usize);
            }
            *j -= 1;
        }
        None
    }

    /// The `j`-th free slot under `leaf` (all its nodes except `skip_node`),
    /// skipping whole nodes by their free counters. On fat-trees a leaf's
    /// nodes are the contiguous range the wiring assigns; on irregular
    /// fabrics they come from the per-switch node lists.
    fn pick_under_leaf(&self, leaf: u32, skip_node: Option<u32>, j: &mut usize) -> Option<usize> {
        if let Some(sr) = &self.switch_runs {
            for &node in &sr.switch_nodes[leaf as usize] {
                if skip_node == Some(node) {
                    continue;
                }
                let here = self.free_node[node as usize] as usize;
                if *j >= here {
                    *j -= here;
                    self.nodes_skipped.set(self.nodes_skipped.get() + 1);
                    continue;
                }
                return self.pick_on_node(node, |_| true, j);
            }
            return None;
        }
        let lo = leaf as usize * self.nodes_per_leaf;
        let hi = (lo + self.nodes_per_leaf).min(self.free_node.len());
        for node in lo..hi {
            if skip_node == Some(node as u32) {
                continue;
            }
            let here = self.free_node[node] as usize;
            if *j >= here {
                *j -= here;
                self.nodes_skipped.set(self.nodes_skipped.get() + 1);
                continue;
            }
            return self.pick_on_node(node as u32, |_| true, j);
        }
        None
    }

    /// The `j`-th free slot on a set of whole nodes given in ascending order.
    fn pick_on_nodes(&self, nodes: impl IntoIterator<Item = u32>, j: &mut usize) -> Option<usize> {
        for node in nodes {
            let here = self.free_node[node as usize] as usize;
            if *j >= here {
                *j -= here;
                self.nodes_skipped.set(self.nodes_skipped.get() + 1);
                continue;
            }
            return self.pick_on_node(node, |_| true, j);
        }
        None
    }

    /// Irregular fabrics: the first non-empty BFS switch level `h ≥ 1` in
    /// the reference switch's row `levels`, with its free-slot count,
    /// summed over the node runs in one pass.
    fn first_free_level(&mut self, levels: &[u16]) -> Option<(usize, usize)> {
        let sr = self.switch_runs.as_mut()?;
        sr.free_level.fill(0);
        for (&(_, _, switch), &free) in sr.runs.iter().zip(&sr.free_run) {
            sr.free_level[levels[switch as usize] as usize] += free;
        }
        let h = (1..sr.free_level.len()).find(|&h| sr.free_level[h] > 0)?;
        Some((h, sr.free_level[h] as usize))
    }

    /// Irregular fabrics: the `j`-th free slot on the nodes at BFS level
    /// `h` of the reference switch's row `levels`, in ascending node order.
    /// Whole runs are skipped by their counters; only the run holding the
    /// draw is walked node by node.
    fn pick_at_level(&self, levels: &[u16], h: usize, j: &mut usize) -> Option<usize> {
        let sr = self.switch_runs.as_ref()?;
        for (&(first, end, switch), &free) in sr.runs.iter().zip(&sr.free_run) {
            if levels[switch as usize] as usize != h {
                continue;
            }
            if *j >= free as usize {
                *j -= free as usize;
                let skipped = u64::from(end - first);
                self.nodes_skipped.set(self.nodes_skipped.get() + skipped);
                continue;
            }
            return self.pick_on_nodes(first..end, j);
        }
        None
    }
}

impl PlacementContext for BucketContext<'_> {
    fn len(&self) -> usize {
        self.o.len()
    }

    fn free_count(&self) -> usize {
        self.total_free
    }

    fn take(&mut self, slot: usize) {
        assert!(self.free[slot], "slot {slot} taken twice");
        self.free[slot] = false;
        self.total_free -= 1;
        let p = &self.o.paths()[slot];
        self.free_core[p.core as usize] -= 1;
        self.free_l2[p.l2 as usize] -= 1;
        self.free_socket[p.socket as usize] -= 1;
        self.free_node[p.node as usize] -= 1;
        if !self.free_leaf.is_empty() {
            self.free_leaf[p.leaf as usize] -= 1;
        }
        if let Some(sr) = &mut self.switch_runs {
            sr.free_run[sr.run_of[p.node as usize] as usize] -= 1;
        }
    }

    fn find_closest_to(&mut self, reference: usize) -> usize {
        assert!(self.total_free > 0, "no free slots left");
        self.queries += 1;
        let r = self.o.paths()[reference];

        // Intra-node class ladder. Each class count is the difference of two
        // enclosing-region counters; strict distance ordering makes the
        // first non-empty class the minimum distance. (With cores_per_l2 ==
        // 1 the L2 key equals the core key, so that class is always empty —
        // matching the oracle's distance semantics.)
        let k_core = self.free_core[r.core as usize] as usize;
        if k_core > 0 {
            let mut j = tie_break(&mut self.rng, k_core);
            return self
                .pick_on_node(r.node, |p| p.core == r.core, &mut j)
                .expect("counter says same-core slot exists");
        }
        self.class_fallthroughs += 1;
        let k_l2 = (self.free_l2[r.l2 as usize] - self.free_core[r.core as usize]) as usize;
        if k_l2 > 0 {
            let mut j = tie_break(&mut self.rng, k_l2);
            return self
                .pick_on_node(r.node, |p| p.l2 == r.l2 && p.core != r.core, &mut j)
                .expect("counter says same-L2 slot exists");
        }
        self.class_fallthroughs += 1;
        let k_socket = (self.free_socket[r.socket as usize] - self.free_l2[r.l2 as usize]) as usize;
        if k_socket > 0 {
            let mut j = tie_break(&mut self.rng, k_socket);
            return self
                .pick_on_node(r.node, |p| p.socket == r.socket && p.l2 != r.l2, &mut j)
                .expect("counter says same-socket slot exists");
        }
        self.class_fallthroughs += 1;
        let k_node =
            (self.free_node[r.node as usize] - self.free_socket[r.socket as usize]) as usize;
        if k_node > 0 {
            let mut j = tie_break(&mut self.rng, k_node);
            return self
                .pick_on_node(r.node, |p| p.socket != r.socket, &mut j)
                .expect("counter says same-node slot exists");
        }

        if let Some(rings) = &self.rings {
            // Torus: rings of nodes by hop distance, strictly increasing in
            // distance (`same_leaf + (hops − 1) · torus_hop`, torus_hop > 0).
            let center = self
                .o
                .cluster()
                .fabric()
                .as_torus()
                .expect("ring table implies torus")
                .coords(NodeId(r.node));
            for dist in 1..=rings.max_dist() {
                let nodes = rings.ring(center, dist);
                let k: usize = nodes
                    .iter()
                    .map(|&n| self.free_node[n as usize] as usize)
                    .sum();
                if k == 0 {
                    self.class_fallthroughs += 1;
                    continue;
                }
                let mut j = tie_break(&mut self.rng, k);
                return self
                    .pick_on_nodes(nodes, &mut j)
                    .expect("counter says ring slot exists");
            }
            unreachable!("free slots exist but no ring contains one")
        }

        if self.switch_runs.is_some() {
            // Irregular: same hosting switch first, then the nodes at each
            // BFS switch level (strictly increasing:
            // `same_leaf + h · torus_hop`, torus_hop > 0).
            self.class_fallthroughs += 1;
            let k_switch =
                (self.free_leaf[r.leaf as usize] - self.free_node[r.node as usize]) as usize;
            if k_switch > 0 {
                let mut j = tie_break(&mut self.rng, k_switch);
                return self
                    .pick_under_leaf(r.leaf, Some(r.node), &mut j)
                    .expect("counter says same-switch slot exists");
            }
            let o = self.o;
            let levels = o
                .cluster()
                .fabric()
                .as_irregular()
                .expect("switch runs imply an irregular fabric")
                .level_row(r.leaf);
            let (h, k) = self
                .first_free_level(levels)
                .expect("free slots exist but no switch level holds one");
            // Levels 1..h are empty classes walked past.
            self.class_fallthroughs += h as u64 - 1;
            let mut j = tie_break(&mut self.rng, k);
            return self
                .pick_at_level(levels, h, &mut j)
                .expect("counter says switch-level slot exists");
        }

        // Fat-tree: same leaf, then line-connected leaves, then the rest.
        self.class_fallthroughs += 1;
        let k_leaf = (self.free_leaf[r.leaf as usize] - self.free_node[r.node as usize]) as usize;
        if k_leaf > 0 {
            let mut j = tie_break(&mut self.rng, k_leaf);
            return self
                .pick_under_leaf(r.leaf, Some(r.node), &mut j)
                .expect("counter says same-leaf slot exists");
        }
        self.class_fallthroughs += 1;
        let peers = self.o.line_peers(r.leaf);
        let k_line: usize = peers
            .iter()
            .map(|&l| self.free_leaf[l as usize] as usize)
            .sum();
        if k_line > 0 {
            let mut j = tie_break(&mut self.rng, k_line);
            for &leaf in peers {
                let here = self.free_leaf[leaf as usize] as usize;
                if j >= here {
                    j -= here;
                    continue;
                }
                return self
                    .pick_under_leaf(leaf, None, &mut j)
                    .expect("counter says same-line slot exists");
            }
            unreachable!("tie-break index beyond line-class count")
        }
        self.class_fallthroughs += 1;
        let k_spine = self.total_free - self.free_leaf[r.leaf as usize] as usize - k_line;
        debug_assert!(k_spine > 0, "free slots exist but no class contains one");
        let mut j = tie_break(&mut self.rng, k_spine);
        let mut peer_it = peers.iter().peekable();
        for leaf in 0..self.free_leaf.len() as u32 {
            while peer_it.peek().is_some_and(|&&p| p < leaf) {
                peer_it.next();
            }
            if leaf == r.leaf || peer_it.peek() == Some(&&leaf) {
                continue;
            }
            let here = self.free_leaf[leaf as usize] as usize;
            if j >= here {
                j -= here;
                continue;
            }
            return self
                .pick_under_leaf(leaf, None, &mut j)
                .expect("counter says cross-spine slot exists");
        }
        unreachable!("tie-break index beyond spine-class count")
    }
}

impl Drop for BucketContext<'_> {
    fn drop(&mut self) {
        if !tarr_trace::enabled() {
            return;
        }
        tarr_trace::counter_add!("mapping.bucket.queries", self.queries);
        tarr_trace::counter_add!("mapping.bucket.class_fallthroughs", self.class_fallthroughs);
        tarr_trace::counter_add!("mapping.bucket.nodes_skipped", self.nodes_skipped.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::MappingContext;
    use tarr_topo::{Cluster, CoreId, DistanceConfig, DistanceMatrix, NodeTopology};

    fn oracle_for(c: &Cluster, cores: &[CoreId]) -> ImplicitDistance {
        ImplicitDistance::build(c, cores, &DistanceConfig::default())
    }

    #[test]
    fn closest_prefers_same_socket() {
        let c = Cluster::gpc(2);
        let cores: Vec<CoreId> = c.cores().collect();
        let o = oracle_for(&c, &cores);
        let mut ctx = BucketContext::new(&o, 42);
        ctx.take(0);
        let s = ctx.claim_closest_to(0);
        assert!((1..=3).contains(&s), "got {s}");
    }

    #[test]
    fn exhausting_levels_walks_outward() {
        let c = Cluster::gpc(2);
        let cores: Vec<CoreId> = c.cores().collect();
        let o = oracle_for(&c, &cores);
        let mut ctx = BucketContext::new(&o, 1);
        for s in 0..4 {
            ctx.take(s);
        }
        let s = ctx.claim_closest_to(0);
        assert!((4..=7).contains(&s), "got {s}");
        for _ in 0..3 {
            let s = ctx.claim_closest_to(0);
            assert!((4..=7).contains(&s), "got {s}");
        }
        let s = ctx.claim_closest_to(0);
        assert!((8..16).contains(&s), "got {s}");
    }

    /// Drain an entire cluster through both context implementations with the
    /// same seed; every single choice must match.
    fn assert_drains_identically(c: &Cluster, cores: &[CoreId], seed: u64) {
        let d = DistanceMatrix::build(c, cores, &DistanceConfig::default());
        let o = oracle_for(c, cores);
        let mut lin = MappingContext::new(&d, seed);
        let mut buk = BucketContext::new(&o, seed);
        lin.take(0);
        buk.take(0);
        let mut reference = 0usize;
        while lin.free_count() > 0 {
            let a = lin.claim_closest_to(reference);
            let b = buk.claim_closest_to(reference);
            assert_eq!(a, b, "diverged at free_count {}", lin.free_count() + 1);
            reference = a;
        }
        assert_eq!(buk.free_count(), 0);
    }

    #[test]
    fn matches_linear_scan_on_gpc_block() {
        let c = Cluster::gpc(8);
        let cores: Vec<CoreId> = c.cores().collect();
        for seed in [0u64, 1, 7, 42] {
            assert_drains_identically(&c, &cores, seed);
        }
    }

    #[test]
    fn matches_linear_scan_on_cyclic_allocation() {
        let c = Cluster::gpc(8);
        let p = c.total_cores();
        let cores: Vec<CoreId> = (0..p)
            .map(|r| CoreId::from_idx((r % 8) * c.cores_per_node() + r / 8))
            .collect();
        assert_drains_identically(&c, &cores, 3);
    }

    #[test]
    fn matches_linear_scan_on_manycore() {
        let c = Cluster::new(tarr_topo::ClusterConfig {
            node: NodeTopology::manycore(),
            fabric: tarr_topo::FatTreeConfig::tiny(),
            num_nodes: 6,
        });
        let cores: Vec<CoreId> = c.cores().collect();
        assert_drains_identically(&c, &cores, 5);
    }

    #[test]
    fn matches_linear_scan_on_torus() {
        let c = Cluster::with_torus(NodeTopology::gpc(), [3, 4, 2]);
        let cores: Vec<CoreId> = c.cores().collect();
        for seed in [0u64, 9] {
            assert_drains_identically(&c, &cores, seed);
        }
    }

    #[test]
    fn matches_linear_scan_on_irregular() {
        use tarr_topo::{Fabric, IrregularConfig, IrregularFabric};
        // 5 switches in a partial mesh, nodes spread unevenly (and not in
        // switch order), exercising the per-switch node lists.
        let g = IrregularFabric::new(IrregularConfig {
            switches: 5,
            node_switch: vec![0, 2, 4, 1, 3, 0, 2, 1, 4, 3, 0, 2],
            links: vec![(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (0, 4, 1)],
        })
        .unwrap();
        let c = Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(g), 12).unwrap();
        let cores: Vec<CoreId> = c.cores().collect();
        for seed in [0u64, 4, 23] {
            assert_drains_identically(&c, &cores, seed);
        }
        // Fragmented allocation over the same fabric.
        let sparse: Vec<CoreId> = c.cores().step_by(3).collect();
        assert_drains_identically(&c, &sparse, 7);
    }

    #[test]
    fn switch_runs_tile_nodes_in_order() {
        use tarr_topo::{IrregularConfig, IrregularFabric};
        let g = IrregularFabric::new(IrregularConfig {
            switches: 4,
            node_switch: vec![1, 1, 0, 0, 0, 2, 1, 1],
            links: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        })
        .unwrap();
        let sr = SwitchRuns::new(&g);
        assert_eq!(sr.runs, [(0, 2, 1), (2, 5, 0), (5, 6, 2), (6, 8, 1)]);
        assert_eq!(sr.run_of, [0, 0, 1, 1, 1, 2, 3, 3]);
        assert_eq!(
            sr.switch_nodes,
            [vec![2, 3, 4], vec![0, 1, 6, 7], vec![5], vec![]]
        );
    }

    #[test]
    fn matches_linear_scan_on_fragmented_allocation() {
        let c = Cluster::gpc(16);
        let cores: Vec<CoreId> = c.cores().step_by(3).collect();
        assert_drains_identically(&c, &cores, 11);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let c = Cluster::gpc(1);
        let cores: Vec<CoreId> = c.cores().collect();
        let o = oracle_for(&c, &cores);
        let mut ctx = BucketContext::new(&o, 0);
        ctx.take(3);
        ctx.take(3);
    }

    #[test]
    fn free_count_tracks_claims() {
        let c = Cluster::gpc(1);
        let cores: Vec<CoreId> = c.cores().collect();
        let o = oracle_for(&c, &cores);
        let mut ctx = BucketContext::new(&o, 0);
        assert_eq!(ctx.free_count(), 8);
        ctx.take(0);
        let _ = ctx.claim_closest_to(0);
        assert_eq!(ctx.free_count(), 6);
    }

    #[test]
    fn torus_ring_table_covers_grid() {
        let t = RingTable::new([3, 4, 2]);
        let total: usize = (1..=t.max_dist()).map(|r| t.ring([0, 0, 0], r).len()).sum();
        assert_eq!(total, 3 * 4 * 2 - 1);
        for r in 1..=t.max_dist() {
            let ring = t.ring([1, 2, 0], r);
            assert!(ring.windows(2).all(|w| w[0] < w[1]), "ring {r} unsorted");
        }
    }
}
