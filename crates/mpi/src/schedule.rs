//! Collective schedules: synchronized stages of point-to-point operations.
//!
//! Collective algorithms (recursive doubling, ring, binomial trees, …) are
//! deterministic programs; a [`Schedule`] is that program spelled out for a
//! concrete communicator size. Allgather traffic is expressed at **block**
//! granularity — block `j` is the contribution of communicator rank `j` and
//! every rank's output buffer has one slot per block — with explicit source
//! and destination slots, so the paper's in-place ring placement (§V-B) is
//! expressible. Non-allgather traffic (broadcast payloads, reduced partial
//! vectors) uses raw byte counts.

use tarr_topo::Rank;

/// What one point-to-point operation carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Payload {
    /// `len` allgather blocks, read from the sender's buffer slots
    /// `src_slot, src_slot+1, …` and stored at the receiver's slots
    /// `dst_slot, dst_slot+1, …` (slot arithmetic is modulo the communicator
    /// size, so wrapped ranges — as in Bruck's algorithm — are expressible).
    Blocks {
        /// First source buffer slot.
        src_slot: u32,
        /// First destination buffer slot.
        dst_slot: u32,
        /// Number of consecutive (mod p) blocks.
        len: u32,
    },
    /// An opaque payload of `bytes` bytes (broadcast/reduction traffic).
    Raw {
        /// Payload size in bytes.
        bytes: u64,
    },
}

impl Payload {
    /// Contiguous blocks with identical source and destination slots — the
    /// common case for all algorithms except the reordered in-place ring.
    pub fn blocks(start: u32, len: u32) -> Self {
        Payload::Blocks {
            src_slot: start,
            dst_slot: start,
            len,
        }
    }

    /// Payload size in bytes given the per-block size.
    #[inline]
    pub fn bytes(&self, block_bytes: u64) -> u64 {
        match *self {
            Payload::Blocks { len, .. } => len as u64 * block_bytes,
            Payload::Raw { bytes } => bytes,
        }
    }
}

/// One point-to-point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SendOp {
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Carried data.
    pub payload: Payload,
}

impl SendOp {
    /// Blocks with identical source/destination slots.
    pub fn blocks(from: u32, to: u32, start: u32, len: u32) -> Self {
        SendOp {
            from: Rank(from),
            to: Rank(to),
            payload: Payload::blocks(start, len),
        }
    }

    /// A raw payload.
    pub fn raw(from: u32, to: u32, bytes: u64) -> Self {
        SendOp {
            from: Rank(from),
            to: Rank(to),
            payload: Payload::Raw { bytes },
        }
    }
}

/// One synchronized stage: all operations proceed concurrently and the stage
/// completes when the last lands.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stage {
    /// The operations of the stage.
    pub ops: Vec<SendOp>,
}

impl Stage {
    /// A stage from a list of operations.
    pub fn new(ops: Vec<SendOp>) -> Self {
        Stage { ops }
    }
}

/// A complete collective schedule for a `p`-rank communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Communicator size the schedule was generated for.
    pub p: u32,
    /// The synchronized stages, in execution order.
    pub stages: Vec<Stage>,
}

impl Schedule {
    /// An empty schedule for `p` ranks.
    pub fn new(p: u32) -> Self {
        Schedule {
            p,
            stages: Vec::new(),
        }
    }

    /// Append a stage.
    pub fn push(&mut self, stage: Stage) {
        self.stages.push(stage);
    }

    /// Sequential composition: `self` then `other` (phases of hierarchical
    /// collectives, or the initComm exchange prepended to an algorithm).
    ///
    /// # Panics
    /// Panics if the communicator sizes differ.
    pub fn then(mut self, other: Schedule) -> Schedule {
        assert_eq!(self.p, other.p, "composing schedules of different sizes");
        self.stages.extend(other.stages);
        self
    }

    /// Total number of point-to-point operations.
    pub fn num_ops(&self) -> usize {
        self.stages.iter().map(|s| s.ops.len()).sum()
    }

    /// Total bytes moved given the per-block size.
    pub fn total_bytes(&self, block_bytes: u64) -> u64 {
        self.stages
            .iter()
            .flat_map(|s| &s.ops)
            .map(|op| op.payload.bytes(block_bytes))
            .sum()
    }

    /// Structural validation: ranks in range, no self-sends, block ranges no
    /// longer than `p`, and no receiver getting two writes to the same slot
    /// within one stage.
    pub fn validate(&self) -> Result<(), String> {
        for (si, stage) in self.stages.iter().enumerate() {
            let mut writes: std::collections::HashSet<(u32, u32)> =
                std::collections::HashSet::new();
            for op in &stage.ops {
                if op.from.0 >= self.p || op.to.0 >= self.p {
                    return Err(format!("stage {si}: rank out of range in {op:?}"));
                }
                if op.from == op.to {
                    return Err(format!("stage {si}: self-send in {op:?}"));
                }
                if let Payload::Blocks { dst_slot, len, .. } = op.payload {
                    if len == 0 || len > self.p {
                        return Err(format!("stage {si}: bad block length in {op:?}"));
                    }
                    for k in 0..len {
                        let slot = (dst_slot + k) % self.p;
                        if !writes.insert((op.to.0, slot)) {
                            return Err(format!(
                                "stage {si}: rank {} receives slot {} twice",
                                op.to, slot
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_byte_accounting() {
        assert_eq!(Payload::blocks(0, 4).bytes(100), 400);
        assert_eq!(Payload::Raw { bytes: 77 }.bytes(100), 77);
    }

    #[test]
    fn schedule_composition_and_counters() {
        let mut a = Schedule::new(4);
        a.push(Stage::new(vec![SendOp::blocks(0, 1, 0, 1)]));
        let mut b = Schedule::new(4);
        b.push(Stage::new(vec![
            SendOp::blocks(1, 2, 0, 2),
            SendOp::raw(2, 3, 64),
        ]));
        let c = a.then(b);
        assert_eq!(c.stages.len(), 2);
        assert_eq!(c.num_ops(), 3);
        assert_eq!(c.total_bytes(10), 10 + 20 + 64);
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn composing_mismatched_sizes_panics() {
        let _ = Schedule::new(4).then(Schedule::new(8));
    }

    #[test]
    fn validate_accepts_wrapped_ranges() {
        let mut s = Schedule::new(4);
        s.push(Stage::new(vec![SendOp {
            from: Rank(0),
            to: Rank(1),
            payload: Payload::blocks(3, 2), // slots 3, 0
        }]));
        s.validate().unwrap();
    }

    #[test]
    fn validate_rejects_self_send() {
        let mut s = Schedule::new(4);
        s.push(Stage::new(vec![SendOp::blocks(2, 2, 0, 1)]));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        let mut s = Schedule::new(4);
        s.push(Stage::new(vec![SendOp::blocks(0, 4, 0, 1)]));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_conflicting_writes() {
        let mut s = Schedule::new(4);
        s.push(Stage::new(vec![
            SendOp::blocks(0, 2, 1, 1),
            SendOp::blocks(1, 2, 1, 1),
        ]));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_overlong_range() {
        let mut s = Schedule::new(4);
        s.push(Stage::new(vec![SendOp::blocks(0, 1, 0, 5)]));
        assert!(s.validate().is_err());
    }
}
