//! Reordering plumbing: the §V-B machinery that keeps the allgather output
//! buffer in original-rank order after ranks have been renumbered.
//!
//! Conventions: a mapping `m` satisfies `m[new_rank] = old_rank` (the slot of
//! the process). Under the reordered communicator, the process with new rank
//! `r` contributes the data of original rank `m[r]`, so a plain run leaves
//! the output in `m`-order. Three fixes exist:
//!
//! * [`init_comm_schedule`] — *extra initial communications*: a one-stage
//!   exchange moving every input vector to the process whose **new** rank
//!   equals the data's original rank, before the algorithm runs;
//! * [`end_shuffle_perm`] — *memory shuffling at the end*: the permutation to
//!   apply to every output buffer after the algorithm runs (content observed
//!   at slot `j` belongs at slot `m[j]`);
//! * [`ring_placement`] — the ring algorithm's in-place resolution: incoming
//!   blocks are stored directly at their correct final offset, no extra
//!   communication or shuffle needed.

use crate::{invert, is_permutation, MapError};
use tarr_mpi::{Payload, Schedule, SendOp, Stage};
use tarr_topo::Rank;

/// Which §V-B mechanism preserves the output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderFix {
    /// Extra initial communications ("initComm" in the paper's figures).
    InitComm,
    /// Memory shuffling at the end ("endShfl").
    EndShuffle,
    /// In-place placement (ring and binomial broadcast need nothing else).
    InPlace,
}

impl OrderFix {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            OrderFix::InitComm => "initComm",
            OrderFix::EndShuffle => "endShfl",
            OrderFix::InPlace => "inPlace",
        }
    }
}

/// Build the one-stage input exchange for `m[new] = old`: the process
/// holding original data `r` (new rank `m⁻¹[r]`) sends it to new rank `r`,
/// placed at slot `r`.
///
/// # Panics
/// Panics if `m` is not a permutation.
pub fn init_comm_schedule(m: &[u32]) -> Schedule {
    try_init_comm_schedule(m).expect("mapping must be a permutation")
}

/// Fallible [`init_comm_schedule`] for externally-sourced mappings.
pub fn try_init_comm_schedule(m: &[u32]) -> Result<Schedule, MapError> {
    check_permutation(m)?;
    let p = m.len() as u32;
    let inv = invert(m);
    let mut ops = Vec::new();
    for r in 0..p {
        let holder = inv[r as usize];
        if holder != r {
            ops.push(SendOp {
                from: Rank(holder),
                to: Rank(r),
                payload: Payload::Blocks {
                    src_slot: holder,
                    dst_slot: r,
                    len: 1,
                },
            });
        }
    }
    let mut sched = Schedule::new(p);
    if !ops.is_empty() {
        sched.push(Stage::new(ops));
    }
    Ok(sched)
}

fn check_permutation(m: &[u32]) -> Result<(), MapError> {
    if !is_permutation(m) {
        return Err(MapError::NotAPermutation { len: m.len() });
    }
    Ok(())
}

/// The endShfl permutation: content observed at output slot `j` moves to
/// slot `m[j]` (suitable for `FunctionalState::shuffle_outputs`).
///
/// # Panics
/// Panics if `m` is not a permutation.
pub fn end_shuffle_perm(m: &[u32]) -> Vec<u32> {
    try_end_shuffle_perm(m).expect("mapping must be a permutation")
}

/// Fallible [`end_shuffle_perm`] for externally-sourced mappings.
pub fn try_end_shuffle_perm(m: &[u32]) -> Result<Vec<u32>, MapError> {
    check_permutation(m)?;
    Ok(m.to_vec())
}

/// The in-place ring placement: block `b` (the contribution of new rank `b`)
/// is stored at slot `m[b]`, its correct final offset.
///
/// # Panics
/// Panics if `m` is not a permutation.
pub fn ring_placement(m: &[u32]) -> Vec<u32> {
    try_ring_placement(m).expect("mapping must be a permutation")
}

/// Fallible [`ring_placement`] for externally-sourced mappings.
pub fn try_ring_placement(m: &[u32]) -> Result<Vec<u32>, MapError> {
    check_permutation(m)?;
    Ok(m.to_vec())
}

/// Initial buffer state of a reordered communicator for the functional
/// executor: new rank `r` holds the data of original rank `m[r]` (tag
/// `m[r]`) at slot `slots[r]`.
///
/// With `in_place = false` the tag sits at the rank's own slot `r` (the
/// standard algorithms read it from there); with `in_place = true` it sits
/// directly at its final offset `m[r]` (the ring placement).
pub fn reordered_init_state(m: &[u32], in_place: bool) -> tarr_mpi::FunctionalState {
    try_reordered_init_state(m, in_place).expect("mapping must be a permutation")
}

/// Fallible [`reordered_init_state`] for externally-sourced mappings.
pub fn try_reordered_init_state(
    m: &[u32],
    in_place: bool,
) -> Result<tarr_mpi::FunctionalState, MapError> {
    check_permutation(m)?;
    let p = m.len();
    let slots: Vec<u32> = if in_place {
        m.to_vec()
    } else {
        (0..p as u32).collect()
    };
    Ok(tarr_mpi::FunctionalState::init_allgather_with(p, m, &slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarr_collectives::allgather::{recursive_doubling, ring_with_placement};

    /// A scrambled but fixed mapping for 8 ranks.
    fn m8() -> Vec<u32> {
        vec![0, 4, 1, 5, 2, 6, 3, 7]
    }

    #[test]
    fn init_comm_then_rd_restores_order() {
        let m = m8();
        let sched = init_comm_schedule(&m).then(recursive_doubling(8));
        sched.validate().unwrap();
        let mut st = reordered_init_state(&m, false);
        st.run(&sched).unwrap();
        // Output must be in original-rank order everywhere.
        st.verify_allgather_identity().unwrap();
    }

    #[test]
    fn end_shuffle_after_rd_restores_order() {
        let m = m8();
        let sched = recursive_doubling(8);
        let mut st = reordered_init_state(&m, false);
        st.run(&sched).unwrap();
        // Before the shuffle the order is wrong…
        assert!(st.verify_allgather_identity().is_err());
        st.shuffle_outputs(&end_shuffle_perm(&m));
        st.verify_allgather_identity().unwrap();
    }

    #[test]
    fn in_place_ring_needs_no_fix() {
        let m = m8();
        let sched = ring_with_placement(8, Some(&ring_placement(&m)));
        let mut st = reordered_init_state(&m, true);
        st.run(&sched).unwrap();
        st.verify_allgather_identity().unwrap();
    }

    #[test]
    fn identity_mapping_needs_no_initcomm_ops() {
        let ident: Vec<u32> = (0..8).collect();
        assert_eq!(init_comm_schedule(&ident).num_ops(), 0);
    }

    #[test]
    fn init_comm_is_single_stage() {
        let m = m8();
        let s = init_comm_schedule(&m);
        assert_eq!(s.stages.len(), 1);
        // Every displaced process sends exactly once.
        assert_eq!(s.num_ops(), 6); // ranks 0 and 7 stay put
    }

    #[test]
    fn plain_allgather_without_fix_is_in_mapping_order() {
        let m = m8();
        let mut st = reordered_init_state(&m, false);
        st.run(&recursive_doubling(8)).unwrap();
        // Slot j holds tag m[j] at every rank.
        st.verify_allgather_tags(&m).unwrap();
    }

    #[test]
    fn random_mappings_all_three_fixes_agree() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let mut m: Vec<u32> = (0..16).collect();
            m.shuffle(&mut rng);

            // initComm
            let mut a = reordered_init_state(&m, false);
            a.run(&init_comm_schedule(&m).then(recursive_doubling(16)))
                .unwrap();
            a.verify_allgather_identity().unwrap();

            // endShfl
            let mut b = reordered_init_state(&m, false);
            b.run(&recursive_doubling(16)).unwrap();
            b.shuffle_outputs(&end_shuffle_perm(&m));
            b.verify_allgather_identity().unwrap();

            // in-place ring
            let mut c = reordered_init_state(&m, true);
            c.run(&ring_with_placement(16, Some(&ring_placement(&m))))
                .unwrap();
            c.verify_allgather_identity().unwrap();
        }
    }

    #[test]
    fn non_permutations_yield_typed_errors() {
        for bad in [&[0u32, 0, 1][..], &[0, 1, 3], &[1, 2, 3]] {
            let err = MapError::NotAPermutation { len: bad.len() };
            assert_eq!(try_init_comm_schedule(bad).unwrap_err(), err);
            assert_eq!(try_end_shuffle_perm(bad).unwrap_err(), err);
            assert_eq!(try_ring_placement(bad).unwrap_err(), err);
            assert!(try_reordered_init_state(bad, false).is_err());
            assert_eq!(crate::try_invert(bad).unwrap_err(), err);
        }
        // Valid mappings round-trip through the fallible API identically.
        let m = m8();
        assert_eq!(try_end_shuffle_perm(&m).unwrap(), end_shuffle_perm(&m));
        assert_eq!(
            try_init_comm_schedule(&m).unwrap().num_ops(),
            init_comm_schedule(&m).num_ops()
        );
    }

    #[test]
    fn order_fix_names() {
        assert_eq!(OrderFix::InitComm.name(), "initComm");
        assert_eq!(OrderFix::EndShuffle.name(), "endShfl");
        assert_eq!(OrderFix::InPlace.name(), "inPlace");
    }
}
