//! Functional executor: moves block *tags* between per-rank buffers.
//!
//! Each rank owns an output buffer with one slot per block; a slot holds the
//! **content tag** of the process whose data currently sits there (for the
//! reordering framework the tag is the process's *original* rank, so the
//! §V-B output-ordering machinery is directly testable). Raw payloads are
//! tracked as a per-rank "has payload" flag, which is what broadcast
//! correctness needs.
//!
//! Within a stage all sends read the pre-stage buffer state (simultaneous
//! semantics), so pairwise exchanges — both directions of a recursive
//! doubling stage — behave like real non-blocking send/recv pairs.

use crate::schedule::{Payload, Schedule};
use tarr_topo::Rank;

/// Execution failure: the schedule asked a rank to send data it doesn't hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A rank sent from an empty buffer slot.
    MissingBlock {
        /// Stage index.
        stage: usize,
        /// Sending rank.
        from: Rank,
        /// Source slot that was empty.
        slot: u32,
    },
    /// A rank forwarded a raw payload it never received.
    MissingRaw {
        /// Stage index.
        stage: usize,
        /// Sending rank.
        from: Rank,
    },
    /// A destination slot received conflicting content.
    Conflict {
        /// Stage index.
        stage: usize,
        /// Receiving rank.
        to: Rank,
        /// Conflicting slot.
        slot: u32,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingBlock { stage, from, slot } => {
                write!(f, "stage {stage}: rank {from} sends empty slot {slot}")
            }
            ExecError::MissingRaw { stage, from } => {
                write!(
                    f,
                    "stage {stage}: rank {from} forwards a raw payload it lacks"
                )
            }
            ExecError::Conflict { stage, to, slot } => {
                write!(f, "stage {stage}: rank {to} slot {slot} written twice")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-rank buffer state during functional execution.
#[derive(Debug, Clone)]
pub struct FunctionalState {
    p: usize,
    /// `bufs[rank][slot] = Some(tag)` — the content currently at that slot.
    bufs: Vec<Vec<Option<u32>>>,
    /// Whether each rank holds the raw (broadcast) payload.
    raw: Vec<bool>,
}

impl FunctionalState {
    /// Empty buffers for `p` ranks.
    pub fn new(p: usize) -> Self {
        FunctionalState {
            p,
            bufs: vec![vec![None; p]; p],
            raw: vec![false; p],
        }
    }

    /// Standard allgather initialisation: rank `r` holds its own contribution
    /// (tag = `r`) at slot `r`.
    pub fn init_allgather(p: usize) -> Self {
        let mut s = FunctionalState::new(p);
        for r in 0..p {
            s.bufs[r][r] = Some(r as u32);
        }
        s
    }

    /// Reordering-aware initialisation: rank `r` holds content `tags[r]`
    /// placed at slot `slots[r]`.
    ///
    /// With `tags[r] = old_rank(r)` and `slots[r] = r` this is a reordered
    /// communicator *without* input exchange; the in-place ring instead uses
    /// `slots[r] = old_rank(r)` so every block is born in its final position.
    pub fn init_allgather_with(p: usize, tags: &[u32], slots: &[u32]) -> Self {
        assert_eq!(tags.len(), p);
        assert_eq!(slots.len(), p);
        let mut s = FunctionalState::new(p);
        for r in 0..p {
            s.bufs[r][slots[r] as usize] = Some(tags[r]);
        }
        s
    }

    /// Scatter initialisation: `root` holds every block (tag `j` at slot
    /// `j`); everyone else is empty. Used by the scatter-allgather broadcast.
    pub fn init_scatter_root(p: usize, root: Rank) -> Self {
        let mut s = FunctionalState::new(p);
        for j in 0..p {
            s.bufs[root.idx()][j] = Some(j as u32);
        }
        s
    }

    /// Broadcast initialisation: only `root` holds the raw payload.
    pub fn init_raw(p: usize, root: Rank) -> Self {
        let mut s = FunctionalState::new(p);
        s.raw[root.idx()] = true;
        s
    }

    /// Buffer of `rank`.
    pub fn buffer(&self, rank: Rank) -> &[Option<u32>] {
        &self.bufs[rank.idx()]
    }

    /// Execute a schedule.
    pub fn run(&mut self, schedule: &Schedule) -> Result<(), ExecError> {
        assert_eq!(schedule.p as usize, self.p, "schedule size mismatch");
        let p = self.p as u32;
        for (si, stage) in schedule.stages.iter().enumerate() {
            // Read phase: snapshot everything sent this stage.
            let mut deliveries: Vec<(Rank, u32, u32)> = Vec::new(); // (to, slot, tag)
            let mut raw_deliveries: Vec<Rank> = Vec::new();
            for op in &stage.ops {
                match op.payload {
                    Payload::Blocks {
                        src_slot,
                        dst_slot,
                        len,
                    } => {
                        for k in 0..len {
                            let s_slot = (src_slot + k) % p;
                            let d_slot = (dst_slot + k) % p;
                            let tag = self.bufs[op.from.idx()][s_slot as usize].ok_or(
                                ExecError::MissingBlock {
                                    stage: si,
                                    from: op.from,
                                    slot: s_slot,
                                },
                            )?;
                            deliveries.push((op.to, d_slot, tag));
                        }
                    }
                    Payload::Raw { .. } => {
                        if !self.raw[op.from.idx()] {
                            return Err(ExecError::MissingRaw {
                                stage: si,
                                from: op.from,
                            });
                        }
                        raw_deliveries.push(op.to);
                    }
                }
            }
            // Write phase.
            let mut touched: std::collections::HashSet<(u32, u32)> =
                std::collections::HashSet::new();
            for (to, slot, tag) in deliveries {
                if !touched.insert((to.0, slot)) {
                    return Err(ExecError::Conflict {
                        stage: si,
                        to,
                        slot,
                    });
                }
                self.bufs[to.idx()][slot as usize] = Some(tag);
            }
            for to in raw_deliveries {
                self.raw[to.idx()] = true;
            }
        }
        Ok(())
    }

    /// Check the plain allgather postcondition: every rank's slot `j` holds
    /// tag `j`.
    pub fn verify_allgather_identity(&self) -> Result<(), String> {
        self.verify_allgather_tags(&(0..self.p as u32).collect::<Vec<_>>())
    }

    /// Check that every rank's slot `j` holds `expected[j]`.
    pub fn verify_allgather_tags(&self, expected: &[u32]) -> Result<(), String> {
        assert_eq!(expected.len(), self.p);
        for (r, buf) in self.bufs.iter().enumerate() {
            for (j, slot) in buf.iter().enumerate() {
                match slot {
                    Some(tag) if *tag == expected[j] => {}
                    Some(tag) => {
                        return Err(format!(
                            "rank {r} slot {j}: expected tag {} got {tag}",
                            expected[j]
                        ))
                    }
                    None => return Err(format!("rank {r} slot {j}: empty")),
                }
            }
        }
        Ok(())
    }

    /// Check the gather postcondition: `root` holds every tag in order;
    /// other ranks are unconstrained.
    pub fn verify_gather_at(&self, root: Rank, expected: &[u32]) -> Result<(), String> {
        assert_eq!(expected.len(), self.p);
        let buf = &self.bufs[root.idx()];
        for (j, slot) in buf.iter().enumerate() {
            match slot {
                Some(tag) if *tag == expected[j] => {}
                Some(tag) => {
                    return Err(format!(
                        "root slot {j}: expected tag {} got {tag}",
                        expected[j]
                    ))
                }
                None => return Err(format!("root slot {j}: empty")),
            }
        }
        Ok(())
    }

    /// Check the broadcast postcondition: every rank holds the raw payload.
    pub fn verify_bcast(&self) -> Result<(), String> {
        for (r, has) in self.raw.iter().enumerate() {
            if !has {
                return Err(format!("rank {r} never received the broadcast"));
            }
        }
        Ok(())
    }

    /// Apply the endShfl permutation (§V-B) to every rank's buffer: the
    /// content observed at slot `j` is moved to slot `perm[j]`.
    pub fn shuffle_outputs(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.p);
        for buf in &mut self.bufs {
            let old = buf.clone();
            for (j, &target) in perm.iter().enumerate() {
                buf[target as usize] = old[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{SendOp, Stage};

    #[test]
    fn pairwise_exchange_is_simultaneous() {
        // Ranks 0 and 1 swap their blocks in one stage.
        let mut st = FunctionalState::init_allgather(2);
        let mut sched = Schedule::new(2);
        sched.push(Stage::new(vec![
            SendOp::blocks(0, 1, 0, 1),
            SendOp::blocks(1, 0, 1, 1),
        ]));
        st.run(&sched).unwrap();
        st.verify_allgather_identity().unwrap();
    }

    #[test]
    fn missing_block_detected() {
        let mut st = FunctionalState::init_allgather(2);
        let mut sched = Schedule::new(2);
        // Rank 0 sends slot 1 which it does not hold.
        sched.push(Stage::new(vec![SendOp::blocks(0, 1, 1, 1)]));
        let err = st.run(&sched).unwrap_err();
        assert!(matches!(err, ExecError::MissingBlock { slot: 1, .. }));
    }

    #[test]
    fn raw_forwarding_requires_possession() {
        let mut st = FunctionalState::init_raw(3, Rank(0));
        let mut good = Schedule::new(3);
        good.push(Stage::new(vec![SendOp::raw(0, 1, 64)]));
        good.push(Stage::new(vec![SendOp::raw(1, 2, 64)]));
        st.run(&good).unwrap();
        st.verify_bcast().unwrap();

        let mut st = FunctionalState::init_raw(3, Rank(0));
        let mut bad = Schedule::new(3);
        bad.push(Stage::new(vec![SendOp::raw(1, 2, 64)]));
        assert!(matches!(
            st.run(&bad).unwrap_err(),
            ExecError::MissingRaw { from: Rank(1), .. }
        ));
    }

    #[test]
    fn conflict_detected_at_execution() {
        let mut st = FunctionalState::init_allgather(3);
        let mut sched = Schedule::new(3);
        sched.push(Stage::new(vec![
            SendOp::blocks(0, 2, 0, 1),
            SendOp {
                from: Rank(1),
                to: Rank(2),
                payload: Payload::Blocks {
                    src_slot: 1,
                    dst_slot: 0,
                    len: 1,
                },
            },
        ]));
        assert!(matches!(
            st.run(&sched).unwrap_err(),
            ExecError::Conflict { slot: 0, .. }
        ));
    }

    #[test]
    fn remapped_destination_slots() {
        // Rank 0 sends its block to rank 1, placed at slot 1 instead of 0.
        let mut st = FunctionalState::init_allgather_with(2, &[9, 8], &[0, 1]);
        let mut sched = Schedule::new(2);
        sched.push(Stage::new(vec![SendOp {
            from: Rank(0),
            to: Rank(1),
            payload: Payload::Blocks {
                src_slot: 0,
                dst_slot: 1,
                len: 1,
            },
        }]));
        st.run(&sched).unwrap();
        assert_eq!(st.buffer(Rank(1))[1], Some(9));
    }

    #[test]
    fn shuffle_outputs_permutes() {
        let mut st = FunctionalState::init_allgather(3);
        // Rank buffers: slot r = r; shuffle with perm sending j → (j+1)%3.
        st.shuffle_outputs(&[1, 2, 0]);
        assert_eq!(st.buffer(Rank(0))[1], Some(0));
        assert_eq!(st.buffer(Rank(1))[2], Some(1));
        assert_eq!(st.buffer(Rank(2))[0], Some(2));
    }

    #[test]
    fn verify_reports_wrong_tag() {
        let st = FunctionalState::init_allgather_with(2, &[1, 0], &[0, 1]);
        // Slot 0 of rank 0 holds tag 1, not 0.
        assert!(st.verify_allgather_tags(&[0, 1]).is_err());
        // But matches the swapped expectation at slot 0... slot 1 is empty.
        assert!(st.verify_allgather_tags(&[1, 0]).is_err());
    }

    #[test]
    fn wrapped_block_range_moves_mod_p() {
        let mut st = FunctionalState::new(4);
        // Rank 0 holds slots 3 and 0.
        st.bufs[0][3] = Some(30);
        st.bufs[0][0] = Some(0);
        let mut sched = Schedule::new(4);
        sched.push(Stage::new(vec![SendOp::blocks(0, 1, 3, 2)]));
        st.run(&sched).unwrap();
        assert_eq!(st.buffer(Rank(1))[3], Some(30));
        assert_eq!(st.buffer(Rank(1))[0], Some(0));
    }
}
