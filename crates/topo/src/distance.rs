//! Physical distance matrix between the cores allocated to a job.
//!
//! The paper extracts intra-node distances with hwloc and inter-node distances
//! with InfiniBand tools "once, and saved for future references" (§IV). Here
//! the same information is synthesised from the [`Cluster`] model:
//! the distance between two cores is a small ordinal value determined by the
//! closest level of the hierarchy they share. The mapping heuristics only
//! compare distances, so ordinal values are sufficient; the defaults keep a
//! strict ordering `core < L2 < socket < node < leaf < line < spine`.
//!
//! Because extraction on a real system costs wall-clock time the paper reports
//! in Fig. 7(a), an [`ExtractionCostModel`] calibrated to the paper's
//! measurements (≈3.3 s at 4096 processes, scaling linearly) accompanies the
//! matrix, so the overhead experiment can be regenerated.

use crate::cluster::Cluster;
use crate::ids::CoreId;
use crate::node::IntraLevel;

/// Ordinal distance assigned to each hierarchy level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceConfig {
    /// Same physical core (SMT siblings or identical PU).
    pub same_core: u16,
    /// Same L2 group.
    pub l2: u16,
    /// Same socket (shared LLC).
    pub socket: u16,
    /// Same node, across sockets (QPI).
    pub node: u16,
    /// Different nodes under the same leaf switch.
    pub same_leaf: u16,
    /// Different leaves sharing a line switch (4 fabric links).
    pub same_line: u16,
    /// Different leaves reachable only via a spine switch (6 fabric links).
    pub cross_spine: u16,
    /// Additional distance per torus hop beyond the first (torus fabrics
    /// charge `same_leaf + (hops − 1) · torus_hop`).
    pub torus_hop: u16,
}

impl Default for DistanceConfig {
    fn default() -> Self {
        DistanceConfig {
            same_core: 0,
            l2: 1,
            socket: 2,
            node: 4,
            same_leaf: 10,
            same_line: 12,
            cross_spine: 14,
            torus_hop: 2,
        }
    }
}

impl DistanceConfig {
    /// Check the strict closest-first ordering of levels.
    pub fn validate(&self) -> Result<(), crate::error::TopoError> {
        let seq = [
            self.same_core,
            self.l2,
            self.socket,
            self.node,
            self.same_leaf,
            self.same_line,
            self.cross_spine,
        ];
        if !seq.windows(2).all(|w| w[0] < w[1]) {
            return Err(crate::error::TopoError::DistanceNotIncreasing);
        }
        if self.torus_hop == 0 {
            return Err(crate::error::TopoError::ZeroTorusHop);
        }
        Ok(())
    }
}

/// Compute the distance between two cores directly from the cluster model.
pub fn core_distance(cluster: &Cluster, cfg: &DistanceConfig, a: CoreId, b: CoreId) -> u16 {
    if a == b {
        return cfg.same_core;
    }
    let na = cluster.node_of(a);
    let nb = cluster.node_of(b);
    if na == nb {
        match cluster.intra_level(a, b) {
            IntraLevel::Core => cfg.same_core,
            IntraLevel::L2Group => cfg.l2,
            IntraLevel::Socket => cfg.socket,
            IntraLevel::Node => cfg.node,
        }
    } else {
        match cluster.fabric() {
            crate::cluster::Fabric::FatTree(f) => {
                let la = f.leaf_of(na);
                let lb = f.leaf_of(nb);
                if la == lb {
                    cfg.same_leaf
                } else if f.leaves_share_line(la, lb) {
                    cfg.same_line
                } else {
                    cfg.cross_spine
                }
            }
            crate::cluster::Fabric::Torus(t) => {
                let hops = t.hops(na, nb) as u16;
                cfg.same_leaf + (hops - 1) * cfg.torus_hop
            }
            // Irregular fabrics grade distance by routed switch-hop count:
            // same hosting switch plays the "same leaf" role, and every
            // additional switch hop adds the torus per-hop increment, keeping
            // the ordinal strictly monotone in hops.
            crate::cluster::Fabric::Irregular(g) => {
                let hops = g.hops(na, nb) as u16;
                cfg.same_leaf + hops * cfg.torus_hop
            }
        }
    }
}

/// Dense `p × p` distance matrix over the cores allocated to a job.
///
/// Row/column indices are **slot indices** `0..p` into the job's allocated
/// core list (in allocation order), not global core ids; the mapping
/// heuristics work entirely in slot space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    p: usize,
    cores: Vec<CoreId>,
    d: Vec<u16>,
}

impl DistanceMatrix {
    /// Build the matrix for the given allocated cores.
    ///
    /// Rows are computed in parallel with scoped threads when the matrix is
    /// large enough to be worth it.
    ///
    /// # Panics
    /// Panics if `cores` is empty or contains duplicates, or if `cfg` is
    /// invalid.
    pub fn build(cluster: &Cluster, cores: &[CoreId], cfg: &DistanceConfig) -> Self {
        cfg.validate().expect("invalid distance configuration");
        assert!(!cores.is_empty(), "no cores allocated");
        {
            let mut sorted = cores.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cores.len(), "duplicate cores in allocation");
        }
        let p = cores.len();
        let _span = tarr_trace::span("topo.distance.build")
            .arg("p", p)
            .arg("kind", "matrix");
        let mut d = vec![0u16; p * p];

        const PAR_THRESHOLD: usize = 256;
        if p < PAR_THRESHOLD {
            for (i, row) in d.chunks_mut(p).enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = core_distance(cluster, cfg, cores[i], cores[j]);
                }
            }
        } else {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(p);
            let rows_per = p.div_ceil(workers);
            std::thread::scope(|s| {
                for (w, chunk) in d.chunks_mut(rows_per * p).enumerate() {
                    let cores = &cores;
                    s.spawn(move || {
                        let row0 = w * rows_per;
                        for (k, cell) in chunk.iter_mut().enumerate() {
                            let i = row0 + k / p;
                            let j = k % p;
                            *cell = core_distance(cluster, cfg, cores[i], cores[j]);
                        }
                    });
                }
            });
        }

        DistanceMatrix {
            p,
            cores: cores.to_vec(),
            d,
        }
    }

    /// Number of slots (allocated cores).
    #[inline]
    pub fn len(&self) -> usize {
        self.p
    }

    /// Whether the job has no allocated cores (never true for a built matrix).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.p == 0
    }

    /// Distance between slots `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u16 {
        debug_assert!(i < self.p && j < self.p);
        self.d[i * self.p + j]
    }

    /// Global core id backing slot `i`.
    #[inline]
    pub fn core(&self, i: usize) -> CoreId {
        self.cores[i]
    }

    /// The allocated cores, in slot order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// One full row (distances from slot `i` to every slot).
    #[inline]
    pub fn row(&self, i: usize) -> &[u16] {
        &self.d[i * self.p..(i + 1) * self.p]
    }

    /// Restriction to a subset of slots: entry `(i, j)` of the result equals
    /// `self.get(slots[i], slots[j])`. Used to map node-local ranks or node
    /// leaders separately in hierarchical reordering.
    ///
    /// # Panics
    /// Panics if `slots` is empty, out of range, or contains duplicates.
    pub fn submatrix(&self, slots: &[usize]) -> DistanceMatrix {
        assert!(!slots.is_empty(), "empty slot subset");
        {
            let mut sorted = slots.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), slots.len(), "duplicate slots in subset");
            assert!(*sorted.last().unwrap() < self.p, "slot out of range");
        }
        let n = slots.len();
        let mut d = Vec::with_capacity(n * n);
        for &i in slots {
            for &j in slots {
                d.push(self.get(i, j));
            }
        }
        DistanceMatrix {
            p: n,
            cores: slots.iter().map(|&s| self.cores[s]).collect(),
            d,
        }
    }
}

/// Wall-clock cost model for distance extraction on a real system.
///
/// The paper measures ≈3.3 s for 4096 ranks with linear scaling in the number
/// of processes (Fig. 7a): each rank's distances are probed once (hwloc
/// queries + IB subnet queries). The default calibration reproduces those
/// numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionCostModel {
    /// Fixed startup cost (tool initialisation), seconds.
    pub base_seconds: f64,
    /// Per-process probe cost, seconds.
    pub per_rank_seconds: f64,
}

impl Default for ExtractionCostModel {
    fn default() -> Self {
        // 0.1 + 4096 * 0.00078 ≈ 3.3 s, matching Fig. 7(a) at 4096 ranks.
        ExtractionCostModel {
            base_seconds: 0.1,
            per_rank_seconds: 0.00078,
        }
    }
}

impl ExtractionCostModel {
    /// Modelled extraction time for `p` processes, in seconds.
    pub fn seconds(&self, p: usize) -> f64 {
        self.base_seconds + self.per_rank_seconds * p as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_cores(c: &Cluster) -> Vec<CoreId> {
        c.cores().collect()
    }

    #[test]
    fn distances_are_symmetric_and_zero_diagonal() {
        let c = Cluster::gpc(8);
        let m = DistanceMatrix::build(&c, &all_cores(&c), &DistanceConfig::default());
        for i in 0..m.len() {
            assert_eq!(m.get(i, i), 0);
            for j in 0..m.len() {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn intra_levels_map_to_config_values() {
        let c = Cluster::gpc(2);
        let cfg = DistanceConfig::default();
        let m = DistanceMatrix::build(&c, &all_cores(&c), &cfg);
        assert_eq!(m.get(0, 1), cfg.socket); // same socket
        assert_eq!(m.get(0, 4), cfg.node); // cross socket
        assert_eq!(m.get(0, 8), cfg.same_leaf); // other node, same leaf
    }

    #[test]
    fn network_levels_are_distinguished() {
        // 512 nodes span 18 leaves; pick nodes on different leaves.
        let c = Cluster::gpc(512);
        let cfg = DistanceConfig::default();
        let near = core_distance(&c, &cfg, CoreId(0), CoreId(8)); // node 0 → node 1
        let cross = core_distance(&c, &cfg, CoreId(0), CoreId(8 * 35)); // node 0 → node 35
        assert_eq!(near, cfg.same_leaf);
        assert!(cross == cfg.same_line || cross == cfg.cross_spine);
        assert!(near < cross);
    }

    #[test]
    fn parallel_build_matches_serial() {
        // 64 nodes × 8 cores = 512 slots > PAR_THRESHOLD.
        let c = Cluster::gpc(64);
        let cores = all_cores(&c);
        let cfg = DistanceConfig::default();
        let m = DistanceMatrix::build(&c, &cores, &cfg);
        for &(i, j) in &[(0usize, 511usize), (13, 200), (255, 256), (511, 0)] {
            assert_eq!(m.get(i, j), core_distance(&c, &cfg, cores[i], cores[j]));
        }
    }

    #[test]
    fn subset_allocation_works() {
        let c = Cluster::gpc(4);
        // Allocate only socket 0 of each node.
        let cores: Vec<CoreId> = (0..4)
            .flat_map(|n| (0..4).map(move |l| CoreId::from_idx(n * 8 + l)))
            .collect();
        let m = DistanceMatrix::build(&c, &cores, &DistanceConfig::default());
        assert_eq!(m.len(), 16);
        assert_eq!(m.get(0, 1), DistanceConfig::default().socket);
        assert_eq!(m.core(4), CoreId(8));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_cores_rejected() {
        let c = Cluster::gpc(2);
        let cores = vec![CoreId(0), CoreId(1), CoreId(0)];
        let _ = DistanceMatrix::build(&c, &cores, &DistanceConfig::default());
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = DistanceConfig {
            socket: 1,
            l2: 2, // out of order
            ..DistanceConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn extraction_model_matches_paper_scale() {
        let m = ExtractionCostModel::default();
        let t4096 = m.seconds(4096);
        assert!((3.0..3.6).contains(&t4096), "got {t4096}");
        // Linear scaling: doubling p roughly doubles the variable part.
        let t1024 = m.seconds(1024);
        let t2048 = m.seconds(2048);
        assert!((t2048 - m.base_seconds) / (t1024 - m.base_seconds) > 1.9);
    }

    #[test]
    fn submatrix_restricts_correctly() {
        let c = Cluster::gpc(4);
        let m = DistanceMatrix::build(&c, &all_cores(&c), &DistanceConfig::default());
        // Leaders: first core of each node.
        let slots = vec![0usize, 8, 16, 24];
        let s = m.submatrix(&slots);
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(s.get(i, j), m.get(slots[i], slots[j]));
            }
            assert_eq!(s.core(i), m.core(slots[i]));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn submatrix_rejects_duplicates() {
        let c = Cluster::gpc(1);
        let m = DistanceMatrix::build(&c, &all_cores(&c), &DistanceConfig::default());
        let _ = m.submatrix(&[0, 0]);
    }

    #[test]
    fn row_accessor_matches_get() {
        let c = Cluster::tiny(2);
        let m = DistanceMatrix::build(&c, &all_cores(&c), &DistanceConfig::default());
        for i in 0..m.len() {
            let row = m.row(i);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m.get(i, j));
            }
        }
    }
}
