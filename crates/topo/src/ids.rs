//! Strongly-typed identifiers used throughout the workspace.
//!
//! All identifiers are thin wrappers around `u32`/`usize` indices into the
//! tables of a [`crate::Cluster`]. Keeping them distinct types prevents the
//! classic rank-vs-core confusion at compile time — exactly the confusion the
//! paper warns about ("we interchangeably use process ranks to refer to a
//! particular process or the core hosting it"), which we make explicit instead.

use std::fmt;

/// A physical core, numbered globally across the cluster
/// (`node * cores_per_node + local_core`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

/// A compute node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A leaf switch of the fat-tree fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafId(pub u32);

/// An MPI rank within some communicator.
///
/// A rank is *not* a core: the whole point of rank reordering is to change the
/// rank↔core association. Conversions are always explicit through a
/// rank-to-core binding (see `tarr-mpi`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

macro_rules! impl_id {
    ($t:ident, $tag:literal) => {
        impl $t {
            /// The raw index as `usize`, for table lookups.
            #[inline]
            pub fn idx(self) -> usize {
                self.0 as usize
            }

            /// Construct from a `usize` index.
            ///
            /// # Panics
            /// Panics if `i` does not fit in `u32`.
            #[inline]
            pub fn from_idx(i: usize) -> Self {
                $t(u32::try_from(i).expect(concat!($tag, " index overflows u32")))
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<u32> for $t {
            #[inline]
            fn from(v: u32) -> Self {
                $t(v)
            }
        }
    };
}

impl_id!(CoreId, "c");
impl_id!(NodeId, "n");
impl_id!(LeafId, "L");
impl_id!(Rank, "r");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_roundtrip() {
        let c = CoreId::from_idx(42);
        assert_eq!(c.idx(), 42);
        assert_eq!(c, CoreId(42));
    }

    #[test]
    fn debug_formatting_is_tagged() {
        assert_eq!(format!("{:?}", CoreId(3)), "c3");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(format!("{:?}", LeafId(1)), "L1");
        assert_eq!(format!("{:?}", Rank(0)), "r0");
    }

    #[test]
    fn display_is_bare_number() {
        assert_eq!(Rank(12).to_string(), "12");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Rank(1) < Rank(2));
        assert!(CoreId(0) < CoreId(100));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_idx_overflow_panics() {
        let _ = CoreId::from_idx(usize::MAX);
    }
}
