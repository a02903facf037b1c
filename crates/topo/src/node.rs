//! Intra-node topology: the hwloc substitute.
//!
//! A node is a tree of nested resource groups: SMT siblings sharing a core,
//! cores sharing an L2 group (optional), cores sharing a socket (and its
//! last-level cache / NUMA domain), and sockets connected by an inter-socket
//! link (QPI on the paper's GPC nodes).
//!
//! The paper's GPC nodes are `2 sockets × 4 cores` with one NUMA domain and
//! one 8 MB L3 per socket; [`NodeTopology::gpc`] reproduces that. Deeper
//! hierarchies — the paper's future work asks for "systems having a more
//! complicated intra-node topology with a larger number of cores" — are
//! supported through the optional L2-group level and SMT width.

/// Shared-resource level at which two hardware threads of one node meet.
///
/// Ordered from closest to farthest; the integer value participates in
/// distance computation (closer level ⇒ smaller distance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntraLevel {
    /// Same physical core (SMT siblings) or identical PU.
    Core,
    /// Same L2 cache group (only on topologies with `cores_per_l2 > 1`).
    L2Group,
    /// Same socket: shared last-level cache and local NUMA memory.
    Socket,
    /// Different sockets of the same node: traffic crosses the QPI link.
    Node,
}

/// Description of one compute node's processor hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTopology {
    /// Number of processor sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Cores sharing one mid-level (L2) cache; 1 disables the level.
    pub cores_per_l2: usize,
    /// Hardware threads per core; 1 disables SMT.
    pub smt: usize,
}

impl NodeTopology {
    /// The paper's GPC node: two quad-core Intel Xeon sockets, no SMT in use,
    /// one shared L3 per socket.
    pub fn gpc() -> Self {
        NodeTopology {
            sockets: 2,
            cores_per_socket: 4,
            cores_per_l2: 1,
            smt: 1,
        }
    }

    /// A many-core node for the paper's future-work scenario: 4 sockets of 16
    /// cores with 4-core L2 groups.
    pub fn manycore() -> Self {
        NodeTopology {
            sockets: 4,
            cores_per_socket: 16,
            cores_per_l2: 4,
            smt: 1,
        }
    }

    /// Total schedulable processing units per node.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.sockets * self.cores_per_socket * self.smt
    }

    /// Socket index (within the node) of a local PU index.
    #[inline]
    pub fn socket_of_local(&self, local: usize) -> usize {
        debug_assert!(local < self.cores_per_node());
        local / (self.cores_per_socket * self.smt)
    }

    /// L2-group index (within the node) of a local PU index.
    #[inline]
    pub fn l2_group_of_local(&self, local: usize) -> usize {
        debug_assert!(local < self.cores_per_node());
        local / (self.cores_per_l2 * self.smt)
    }

    /// Physical-core index (within the node) of a local PU index.
    #[inline]
    pub fn core_of_local(&self, local: usize) -> usize {
        debug_assert!(local < self.cores_per_node());
        local / self.smt
    }

    /// The closest shared level between two local PU indices.
    pub fn shared_level(&self, a: usize, b: usize) -> IntraLevel {
        if self.core_of_local(a) == self.core_of_local(b) {
            IntraLevel::Core
        } else if self.cores_per_l2 > 1 && self.l2_group_of_local(a) == self.l2_group_of_local(b) {
            IntraLevel::L2Group
        } else if self.socket_of_local(a) == self.socket_of_local(b) {
            IntraLevel::Socket
        } else {
            IntraLevel::Node
        }
    }

    /// Validate structural invariants (non-zero extents, divisibility of the
    /// L2 grouping).
    pub fn validate(&self) -> Result<(), crate::error::TopoError> {
        use crate::error::TopoError;
        if self.sockets == 0 || self.cores_per_socket == 0 || self.smt == 0 {
            return Err(TopoError::ZeroNodeExtent);
        }
        if self.cores_per_l2 == 0 {
            return Err(TopoError::ZeroL2Group);
        }
        if !self.cores_per_socket.is_multiple_of(self.cores_per_l2) {
            return Err(TopoError::L2NotDividingSocket {
                cores_per_l2: self.cores_per_l2,
                cores_per_socket: self.cores_per_socket,
            });
        }
        Ok(())
    }
}

impl Default for NodeTopology {
    fn default() -> Self {
        NodeTopology::gpc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpc_has_eight_cores() {
        let n = NodeTopology::gpc();
        assert_eq!(n.cores_per_node(), 8);
        n.validate().unwrap();
    }

    #[test]
    fn gpc_socket_assignment() {
        let n = NodeTopology::gpc();
        for local in 0..4 {
            assert_eq!(n.socket_of_local(local), 0);
        }
        for local in 4..8 {
            assert_eq!(n.socket_of_local(local), 1);
        }
    }

    #[test]
    fn shared_level_same_socket_vs_cross_socket() {
        let n = NodeTopology::gpc();
        assert_eq!(n.shared_level(0, 0), IntraLevel::Core);
        assert_eq!(n.shared_level(0, 3), IntraLevel::Socket);
        assert_eq!(n.shared_level(0, 4), IntraLevel::Node);
        assert_eq!(n.shared_level(5, 7), IntraLevel::Socket);
    }

    #[test]
    fn shared_level_is_symmetric() {
        let n = NodeTopology::manycore();
        for a in 0..n.cores_per_node() {
            for b in 0..n.cores_per_node() {
                assert_eq!(n.shared_level(a, b), n.shared_level(b, a));
            }
        }
    }

    #[test]
    fn l2_groups_on_manycore() {
        let n = NodeTopology::manycore();
        n.validate().unwrap();
        assert_eq!(n.shared_level(0, 3), IntraLevel::L2Group);
        assert_eq!(n.shared_level(0, 4), IntraLevel::Socket);
        assert_eq!(n.shared_level(0, 16), IntraLevel::Node);
    }

    #[test]
    fn smt_siblings_share_core() {
        let n = NodeTopology {
            sockets: 1,
            cores_per_socket: 2,
            cores_per_l2: 1,
            smt: 2,
        };
        assert_eq!(n.cores_per_node(), 4);
        assert_eq!(n.shared_level(0, 1), IntraLevel::Core);
        assert_eq!(n.shared_level(1, 2), IntraLevel::Socket);
    }

    #[test]
    fn invalid_l2_grouping_rejected() {
        let n = NodeTopology {
            sockets: 1,
            cores_per_socket: 4,
            cores_per_l2: 3,
            smt: 1,
        };
        assert!(n.validate().is_err());
    }

    #[test]
    fn level_ordering_is_closest_first() {
        assert!(IntraLevel::Core < IntraLevel::L2Group);
        assert!(IntraLevel::L2Group < IntraLevel::Socket);
        assert!(IntraLevel::Socket < IntraLevel::Node);
    }
}
