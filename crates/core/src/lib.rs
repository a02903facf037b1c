//! # tarr-core — the public topology-aware rank-reordering API
//!
//! Ties the workspace together into the framework of §IV of the paper: a
//! [`SessionCore`] holds a cluster, an initial process layout and its O(P)
//! distance oracle (`tarr_topo::ImplicitDistance`), and a [`Session`] is one
//! client's handle onto it; per collective-communication pattern the core
//! computes (once, lazily) a reordered communicator with the appropriate
//! mapping heuristic or baseline mapper, and prices collectives under any
//! [`Scheme`] on the network model — with the §V-B output-ordering
//! machinery (initComm / endShfl / in-place ring) both *timed* and
//! *functionally verifiable*.
//!
//! ```
//! use tarr_core::{Scheme, Session, SessionConfig};
//! use tarr_mapping::{InitialMapping, OrderFix};
//! use tarr_topo::Cluster;
//!
//! // 4 GPC nodes = 32 processes, cyclic-bunch layout (ring-hostile).
//! let cluster = Cluster::gpc(4);
//! let mut s = Session::from_layout(
//!     cluster,
//!     InitialMapping::CYCLIC_BUNCH,
//!     32,
//!     SessionConfig::default(),
//! );
//! let msg = 64 * 1024;
//! let before = s.allgather_time(msg, Scheme::Default);
//! let after = s.allgather_time(msg, Scheme::hrstc(OrderFix::InitComm));
//! assert!(after < before);
//! ```

pub mod hier;
pub mod refine;
pub mod session;

pub use hier::hierarchical_mapping;
pub use refine::congestion_refine;
pub use session::{
    CacheStats, CommKey, CoreCacheStats, CoreState, DegradationReport, Mapper, MappingInfo,
    PatternKind, ProbeCollective, ProbeOutcome, ProbePoint, SchedKey, Scheme, Session,
    SessionConfig, SessionCore, SessionHandle,
};
