//! Communicators: ordered bindings of ranks to physical cores.

use tarr_topo::{CoreId, Rank};

/// A communicator: rank `r` is the process pinned to `cores[r]`.
///
/// Processes never migrate; *rank reordering* produces a new communicator in
/// which the same cores appear in a different rank order (the paper's
/// reordered duplicate of `MPI_COMM_WORLD` created once at run time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communicator {
    cores: Vec<CoreId>,
}

impl Communicator {
    /// Create a communicator over the given cores (rank order = slice order).
    ///
    /// # Panics
    /// Panics if `cores` is empty or contains duplicates.
    pub fn new(cores: Vec<CoreId>) -> Self {
        assert!(!cores.is_empty(), "empty communicator");
        let mut sorted = cores.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cores.len(), "duplicate core in communicator");
        Communicator { cores }
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.cores.len()
    }

    /// Core hosting `rank`.
    #[inline]
    pub fn core_of(&self, rank: Rank) -> CoreId {
        self.cores[rank.idx()]
    }

    /// All cores in rank order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Rank currently bound to `core`, if the core is in this communicator.
    pub fn rank_of_core(&self, core: CoreId) -> Option<Rank> {
        self.cores
            .iter()
            .position(|&c| c == core)
            .map(Rank::from_idx)
    }

    /// Build the reordered communicator from a mapping array.
    ///
    /// `mapping[new_rank] = old_rank` — exactly the output `M` of the paper's
    /// heuristics, which designates for every new rank the core (identified
    /// by the process's old rank / allocation slot) that hosts it.
    ///
    /// # Panics
    /// Panics if `mapping` is not a permutation of `0..size`.
    pub fn reordered(&self, mapping: &[u32]) -> Communicator {
        assert_eq!(mapping.len(), self.size(), "mapping length mismatch");
        let mut seen = vec![false; self.size()];
        let mut cores = Vec::with_capacity(self.size());
        for &old in mapping {
            let old = old as usize;
            assert!(old < self.size(), "mapping entry out of range");
            assert!(!seen[old], "mapping is not a permutation");
            seen[old] = true;
            cores.push(self.cores[old]);
        }
        Communicator { cores }
    }

    /// Swap the cores bound to ranks `a` and `b` in place.
    ///
    /// Exchanging two entries preserves the communicator invariants (same
    /// core set, still duplicate-free), so this is the allocation-free way
    /// to apply or undo one pairwise-exchange proposal of the refinement
    /// loop — equivalent to rebuilding with [`Communicator::reordered`] on a
    /// mapping that differs only in entries `a` and `b`.
    #[inline]
    pub fn swap_ranks(&mut self, a: Rank, b: Rank) {
        self.cores.swap(a.idx(), b.idx());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(ids: &[u32]) -> Communicator {
        Communicator::new(ids.iter().map(|&i| CoreId(i)).collect())
    }

    #[test]
    fn basic_accessors() {
        let c = comm(&[5, 3, 9]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.core_of(Rank(0)), CoreId(5));
        assert_eq!(c.core_of(Rank(2)), CoreId(9));
        assert_eq!(c.rank_of_core(CoreId(3)), Some(Rank(1)));
        assert_eq!(c.rank_of_core(CoreId(7)), None);
    }

    #[test]
    fn reordered_applies_mapping() {
        let c = comm(&[10, 11, 12, 13]);
        // new rank 0 ← old rank 2, etc.
        let r = c.reordered(&[2, 0, 3, 1]);
        assert_eq!(r.cores(), &[CoreId(12), CoreId(10), CoreId(13), CoreId(11)]);
    }

    #[test]
    fn identity_mapping_is_identity() {
        let c = comm(&[4, 2, 0]);
        assert_eq!(c.reordered(&[0, 1, 2]), c);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn non_permutation_rejected() {
        comm(&[0, 1, 2]).reordered(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "duplicate core")]
    fn duplicate_cores_rejected() {
        comm(&[1, 1]);
    }
}
