//! Traffic analysis: where a schedule's bytes actually travel.
//!
//! The mechanism behind every figure of the paper is a shift of bytes from
//! slow, contended channels onto fast local ones; a [`TrafficBreakdown`]
//! makes that shift directly observable — per channel class, before and
//! after reordering — without running the timing model. The compiled
//! schedule classifies its traffic
//! ([`TimedSchedule::traffic_breakdown_stages`](crate::TimedSchedule::traffic_breakdown_stages)):
//! each unique stage once, so a ring costs O(P) rather than O(P²).

use tarr_topo::{Cluster, HopKind};

/// Bytes moved per channel class by one schedule execution.
///
/// A message is classified by the *slowest* class it touches (a cross-socket
/// message is QPI traffic even though it also crosses shared memory; an
/// inter-node message is network traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Bytes between cores of the same socket.
    pub intra_socket: u64,
    /// Bytes crossing the inter-socket (QPI) link.
    pub qpi: u64,
    /// Bytes leaving the node but staying under one leaf switch.
    pub same_leaf: u64,
    /// Bytes crossing the upper fat-tree layers (line/spine switches).
    pub cross_leaf: u64,
}

impl TrafficBreakdown {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.intra_socket + self.qpi + self.same_leaf + self.cross_leaf
    }

    /// Bytes that leave a node (the expensive part).
    pub fn network(&self) -> u64 {
        self.same_leaf + self.cross_leaf
    }

    /// Add `other` into `self`, field by field.
    pub fn accumulate(&mut self, other: &TrafficBreakdown) {
        self.intra_socket += other.intra_socket;
        self.qpi += other.qpi;
        self.same_leaf += other.same_leaf;
        self.cross_leaf += other.cross_leaf;
    }

    /// Credit `bytes` to the channel class numbered by [`hop_class`].
    pub(crate) fn add_class(&mut self, class: u8, bytes: u64) {
        match class {
            0 => self.intra_socket += bytes,
            1 => self.qpi += bytes,
            2 => self.same_leaf += bytes,
            _ => self.cross_leaf += bytes,
        }
    }
}

/// Channel class of the `src`→`dst` path: 0 intra-socket, 1 QPI,
/// 2 same-leaf network, 3 cross-leaf network — the *slowest* class the
/// message touches.
pub(crate) fn hop_class(cluster: &Cluster, src: tarr_topo::CoreId, dst: tarr_topo::CoreId) -> u8 {
    let mut class = 0u8;
    for h in &cluster.path(src, dst) {
        let c = match h.kind() {
            HopKind::Shm => 0,
            HopKind::Qpi => 1,
            HopKind::HcaUp | HopKind::HcaDown => 2,
            HopKind::LeafUp
            | HopKind::LeafDown
            | HopKind::LineUp
            | HopKind::LineDown
            | HopKind::TorusLink
            | HopKind::SwitchLink => 3,
        };
        class = class.max(c);
    }
    class
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Communicator;
    use crate::schedule::{Schedule, SendOp, Stage};
    use crate::timing::TimedSchedule;
    use tarr_topo::CoreId;

    /// The per-op reference classifier: every payload byte of every stage,
    /// one entry per stage (empty stages all-zero). The compiled classifier
    /// is pinned against it below.
    fn reference_stages(
        schedule: &Schedule,
        comm: &Communicator,
        cluster: &Cluster,
        block_bytes: u64,
    ) -> Vec<TrafficBreakdown> {
        schedule
            .stages
            .iter()
            .map(|stage| {
                let mut out = TrafficBreakdown::default();
                for op in &stage.ops {
                    let bytes = op.payload.bytes(block_bytes);
                    let src = comm.core_of(op.from);
                    let dst = comm.core_of(op.to);
                    out.add_class(hop_class(cluster, src, dst), bytes);
                }
                out
            })
            .collect()
    }

    /// Whole-schedule breakdown through the compiled classifier.
    fn traffic_breakdown(
        schedule: &Schedule,
        comm: &Communicator,
        cluster: &Cluster,
        block_bytes: u64,
    ) -> TrafficBreakdown {
        let mut out = TrafficBreakdown::default();
        for tb in
            TimedSchedule::compile(schedule).traffic_breakdown_stages(comm, cluster, block_bytes)
        {
            out.accumulate(&tb);
        }
        out
    }

    fn comm_n(n: usize) -> Communicator {
        Communicator::new((0..n).map(CoreId::from_idx).collect())
    }

    #[test]
    fn classification_by_slowest_hop() {
        let cluster = Cluster::gpc(40); // 2 leaves
        let comm = comm_n(320);
        let mut sched = Schedule::new(320);
        sched.push(Stage::new(vec![
            SendOp::blocks(0, 1, 0, 1),   // same socket
            SendOp::blocks(0, 4, 0, 1),   // cross socket
            SendOp::blocks(0, 8, 0, 1),   // other node, same leaf
            SendOp::blocks(0, 310, 0, 1), // other leaf (node 38)
        ]));
        let t = traffic_breakdown(&sched, &comm, &cluster, 100);
        assert_eq!(t.intra_socket, 100);
        assert_eq!(t.qpi, 100);
        assert_eq!(t.same_leaf, 100);
        assert_eq!(t.cross_leaf, 100);
        assert_eq!(t.total(), 400);
        assert_eq!(t.network(), 200);
    }

    #[test]
    fn total_matches_schedule_bytes() {
        let cluster = Cluster::gpc(4);
        let comm = comm_n(32);
        let sched = {
            let mut s = Schedule::new(32);
            s.push(Stage::new(vec![
                SendOp::blocks(0, 9, 0, 3),
                SendOp::raw(5, 20, 777),
            ]));
            s
        };
        let t = traffic_breakdown(&sched, &comm, &cluster, 50);
        assert_eq!(t.total(), sched.total_bytes(50));
    }

    #[test]
    fn reordering_shifts_ring_traffic_off_the_network() {
        // The paper's core mechanism, observed directly: RMH on a cyclic
        // layout moves nearly all ring bytes from the network into nodes.
        use tarr_topo::{DistanceConfig, DistanceMatrix};
        let cluster = Cluster::gpc(8);
        let p = 64usize;
        // Cyclic layout.
        let cores: Vec<CoreId> = (0..p)
            .map(|r| CoreId::from_idx((r % 8) * 8 + r / 8))
            .collect();
        let comm = Communicator::new(cores.clone());
        let sched = tarr_collectives_ring(p as u32);
        let before = traffic_breakdown(&sched, &comm, &cluster, 4096);
        assert_eq!(
            before.intra_socket + before.qpi,
            0,
            "cyclic ring is all network"
        );

        let d = DistanceMatrix::build(&cluster, &cores, &DistanceConfig::default());
        let m = tarr_mapping_rmh(&d);
        let after = traffic_breakdown(&sched, &comm.reordered(&m), &cluster, 4096);
        assert!(
            after.network() < before.network() / 4,
            "reordering must move bytes off the network: {} -> {}",
            before.network(),
            after.network()
        );
        assert_eq!(after.total(), before.total(), "total bytes unchanged");
    }

    // Local shims so the dev-dependency cycle stays out of Cargo.toml: the
    // ring schedule and RMH are reimplemented minimally for this test.
    fn tarr_collectives_ring(p: u32) -> Schedule {
        let mut sched = Schedule::new(p);
        for s in 1..p {
            let mut ops = Vec::new();
            for i in 0..p {
                let b = (i + p - s + 1) % p;
                ops.push(SendOp::blocks(i, (i + 1) % p, b, 1));
            }
            sched.push(Stage::new(ops));
        }
        sched
    }

    // Binomial-broadcast shim: at stage s every informed rank i < 2^s
    // forwards a constant raw payload to i + 2^s (clipped at p).
    fn tarr_collectives_binomial(p: u32) -> Schedule {
        let mut sched = Schedule::new(p);
        let mut step = 1u32;
        while step < p {
            let mut ops = Vec::new();
            for i in 0..step.min(p) {
                if i + step < p {
                    ops.push(SendOp::raw(i, i + step, 4096));
                }
            }
            sched.push(Stage::new(ops));
            step <<= 1;
        }
        sched
    }

    // Recursive-doubling shim (power-of-two p only), as in timing's tests.
    fn tarr_collectives_rd(p: u32) -> Schedule {
        assert!(p.is_power_of_two());
        let mut sched = Schedule::new(p);
        let mut s = 0u32;
        while (1u32 << s) < p {
            let step = 1u32 << s;
            let mut ops = Vec::new();
            for i in 0..p {
                ops.push(SendOp::blocks(i, i ^ step, (i >> s) << s, step));
            }
            sched.push(Stage::new(ops));
            s += 1;
        }
        sched
    }

    /// The per-op reference's per-stage breakdowns must sum exactly — field
    /// by field — to the compiled whole-schedule breakdown, and the compiled
    /// (merged + deduplicated) per-stage path must reproduce the reference
    /// per stage, under a random rank→core permutation and block size.
    fn check_per_stage_sums(
        p: u32,
        nodes: usize,
        seed: u64,
        block_bytes: u64,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert_eq;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cluster = Cluster::gpc(nodes);
        assert!(cluster.total_cores() >= p as usize);
        // Random permutation of the first p cores (Fisher–Yates).
        let mut cores: Vec<CoreId> = (0..p as usize).map(CoreId::from_idx).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..cores.len()).rev() {
            cores.swap(i, rng.gen_range(0..=i));
        }
        let comm = Communicator::new(cores);

        let mut schedules = vec![
            ("ring", tarr_collectives_ring(p)),
            ("binomial", tarr_collectives_binomial(p)),
        ];
        if p.is_power_of_two() {
            schedules.push(("rd", tarr_collectives_rd(p)));
        }
        for (name, sched) in &schedules {
            let whole = traffic_breakdown(sched, &comm, &cluster, block_bytes);
            let stages = reference_stages(sched, &comm, &cluster, block_bytes);
            prop_assert_eq!(stages.len(), sched.stages.len(), "{}", name);
            let mut sum = TrafficBreakdown::default();
            for s in &stages {
                sum.accumulate(s);
            }
            prop_assert_eq!(sum, whole, "{}: per-stage sums != whole", name);

            let compiled = TimedSchedule::compile(sched).traffic_breakdown_stages(
                &comm,
                &cluster,
                block_bytes,
            );
            prop_assert_eq!(&compiled, &stages, "{}: compiled != raw per-stage", name);
        }
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// P = 24: ring + binomial (RD needs a power of two).
        #[test]
        fn per_stage_sums_to_whole_p24(seed in any::<u64>(), block in 0u64..65536) {
            check_per_stage_sums(24, 3, seed, block)?;
        }

        /// P = 32: adds recursive doubling at the small scale.
        #[test]
        fn per_stage_sums_to_whole_p32(seed in any::<u64>(), block in 0u64..65536) {
            check_per_stage_sums(32, 4, seed, block)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// P = 512: all three schedules at the larger scale.
        #[test]
        fn per_stage_sums_to_whole_p512(seed in any::<u64>(), block in 0u64..65536) {
            check_per_stage_sums(512, 64, seed, block)?;
        }
    }

    fn tarr_mapping_rmh(d: &tarr_topo::DistanceMatrix) -> Vec<u32> {
        // Chain each rank to the closest free slot (RMH).
        let p = d.len();
        let mut m = vec![u32::MAX; p];
        let mut free = vec![true; p];
        m[0] = 0;
        free[0] = false;
        let mut reference = 0usize;
        for slot in m.iter_mut().skip(1) {
            let mut best = usize::MAX;
            let mut best_d = u16::MAX;
            for (s, &f) in free.iter().enumerate() {
                if f && d.get(reference, s) < best_d {
                    best_d = d.get(reference, s);
                    best = s;
                }
            }
            *slot = best as u32;
            free[best] = false;
            reference = best;
        }
        m
    }
}
