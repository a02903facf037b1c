//! Physical channels ("hops") a message traverses between two cores.
//!
//! Every hop identifies one shared physical resource with its own latency and
//! bandwidth. `Hop` is the descriptive form; each hop also has a dense id in
//! its cluster's link namespace ([`crate::Cluster::link_id`]), and the
//! network simulator charges contention per id, so two messages interfere
//! exactly when their paths share a hop value.

use crate::ids::{LeafId, NodeId};

/// Channel class of a [`Hop`]; determines latency/bandwidth constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// Shared-memory channel of one socket (last-level cache / local DRAM).
    Shm,
    /// Inter-socket link within a node (QPI/UPI), directed.
    Qpi,
    /// Node HCA injecting into its leaf switch.
    HcaUp,
    /// Leaf switch delivering to a node HCA.
    HcaDown,
    /// Leaf-switch uplink into a line switch of a core switch.
    LeafUp,
    /// Line-switch downlink into a leaf switch.
    LeafDown,
    /// Line-switch uplink into a spine switch.
    LineUp,
    /// Spine-switch downlink into a line switch.
    LineDown,
    /// One directed link of a torus fabric.
    TorusLink,
    /// One directed switch-to-switch link of an irregular fabric.
    SwitchLink,
}

/// One directed physical channel.
///
/// Equality of two `Hop` values means "same physical resource"; the network
/// model uses this to account for contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    /// Shared-memory channel of socket `socket` (node-local index) on `node`.
    Shm { node: NodeId, socket: u32 },
    /// Inter-socket link on `node`, directed `from → to` (node-local socket
    /// indices).
    Qpi { node: NodeId, from: u32, to: u32 },
    /// HCA of `node`, injection direction.
    HcaUp { node: NodeId },
    /// HCA of `node`, delivery direction.
    HcaDown { node: NodeId },
    /// Uplink `up` of `leaf` towards core switch `core`.
    LeafUp { leaf: LeafId, core: u32, up: u32 },
    /// Downlink from a line switch of core switch `core` to `leaf` via
    /// uplink port `up`.
    LeafDown { leaf: LeafId, core: u32, up: u32 },
    /// Sub-link `sub` from line switch `line` to spine `spine` inside core
    /// switch `core`.
    LineUp {
        core: u32,
        line: u32,
        spine: u32,
        sub: u32,
    },
    /// Sub-link `sub` from spine `spine` down to line switch `line` inside
    /// core switch `core`.
    LineDown {
        core: u32,
        spine: u32,
        line: u32,
        sub: u32,
    },
    /// The torus link leaving `node` along dimension `dim` in the plus or
    /// minus direction.
    TorusLink {
        /// Node the link leaves.
        node: NodeId,
        /// Dimension (0 = X, 1 = Y, 2 = Z).
        dim: u8,
        /// Direction along the dimension.
        plus: bool,
    },
    /// Trunk `trunk` of the directed link `from → to` between two switches of
    /// an irregular fabric.
    SwitchLink {
        /// Switch the link leaves.
        from: u32,
        /// Switch the link enters.
        to: u32,
        /// Trunk index within the (possibly multi-cable) link.
        trunk: u32,
    },
}

impl Hop {
    /// The channel class of this hop.
    pub fn kind(&self) -> HopKind {
        match self {
            Hop::Shm { .. } => HopKind::Shm,
            Hop::Qpi { .. } => HopKind::Qpi,
            Hop::HcaUp { .. } => HopKind::HcaUp,
            Hop::HcaDown { .. } => HopKind::HcaDown,
            Hop::LeafUp { .. } => HopKind::LeafUp,
            Hop::LeafDown { .. } => HopKind::LeafDown,
            Hop::LineUp { .. } => HopKind::LineUp,
            Hop::LineDown { .. } => HopKind::LineDown,
            Hop::TorusLink { .. } => HopKind::TorusLink,
            Hop::SwitchLink { .. } => HopKind::SwitchLink,
        }
    }

    /// Whether the hop is inside a node (shared memory or QPI).
    pub fn is_intra_node(&self) -> bool {
        matches!(self, Hop::Shm { .. } | Hop::Qpi { .. })
    }

    /// Whether the hop is a switch-to-switch fabric link (excludes HCA links).
    pub fn is_fabric(&self) -> bool {
        matches!(
            self,
            Hop::LeafUp { .. }
                | Hop::LeafDown { .. }
                | Hop::LineUp { .. }
                | Hop::LineDown { .. }
                | Hop::TorusLink { .. }
                | Hop::SwitchLink { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        let n = NodeId(0);
        assert_eq!(Hop::Shm { node: n, socket: 0 }.kind(), HopKind::Shm);
        assert_eq!(
            Hop::Qpi {
                node: n,
                from: 0,
                to: 1
            }
            .kind(),
            HopKind::Qpi
        );
        assert_eq!(Hop::HcaUp { node: n }.kind(), HopKind::HcaUp);
        assert_eq!(
            Hop::LeafUp {
                leaf: LeafId(0),
                core: 0,
                up: 1
            }
            .kind(),
            HopKind::LeafUp
        );
    }

    #[test]
    fn intra_vs_fabric() {
        let shm = Hop::Shm {
            node: NodeId(1),
            socket: 0,
        };
        assert!(shm.is_intra_node());
        assert!(!shm.is_fabric());

        let lu = Hop::LineUp {
            core: 0,
            line: 2,
            spine: 3,
            sub: 0,
        };
        assert!(lu.is_fabric());
        assert!(!lu.is_intra_node());

        let hca = Hop::HcaUp { node: NodeId(0) };
        assert!(!hca.is_fabric());
        assert!(!hca.is_intra_node());
    }

    #[test]
    fn equality_identifies_physical_resource() {
        let a = Hop::LeafUp {
            leaf: LeafId(3),
            core: 1,
            up: 2,
        };
        let b = Hop::LeafUp {
            leaf: LeafId(3),
            core: 1,
            up: 2,
        };
        let c = Hop::LeafUp {
            leaf: LeafId(3),
            core: 1,
            up: 0,
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
