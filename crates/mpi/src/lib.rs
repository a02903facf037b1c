//! # tarr-mpi — simulated MPI layer
//!
//! The minimal MPI substrate the paper's framework needs, built from scratch:
//!
//! * [`Communicator`] — an ordered binding of ranks to physical cores, with
//!   `reordered` (the `MPI_Comm_create` + reordered-group mechanism of §IV)
//!   and `split_by_node` (the per-node communicators of hierarchical
//!   collectives);
//! * [`Schedule`] — a collective expressed as synchronized stages of
//!   point-to-point operations carrying *allgather blocks* (with explicit
//!   source/destination buffer slots, so the in-place ring trick of §V-B is
//!   expressible) or raw payloads;
//! * [`exec`] — a functional executor that actually moves block tags between
//!   per-rank buffers and lets tests verify output-vector ordering;
//! * [`timing`] — the compiled [`TimedSchedule`], the one schedule form
//!   priced on a [`tarr_netsim::StageModel`] (synchronized stages, each
//!   unique stage priced once), on the fluid [`tarr_netsim::FlowEngine`]
//!   (asynchronous, per-rank dependencies) or classified per channel class
//!   ([`stats`]).
//!
//! ```
//! use tarr_mpi::{Communicator, Schedule, SendOp, Stage};
//! use tarr_topo::CoreId;
//!
//! let comm = Communicator::new((0..4).map(CoreId::from_idx).collect());
//! // Reorder: new rank 0 <- old 2, 1 <- 0, 2 <- 3, 3 <- 1.
//! let reordered = comm.reordered(&[2, 0, 3, 1]);
//! assert_eq!(reordered.core_of(tarr_topo::Rank(0)), CoreId(2));
//!
//! let mut sched = Schedule::new(4);
//! sched.push(Stage::new(vec![SendOp::blocks(0, 1, 0, 1)]));
//! sched.validate().unwrap();
//! ```

pub mod cache;
pub mod comm;
pub mod delta;
pub mod exec;
pub mod schedule;
pub mod stats;
pub mod timing;

pub use cache::{CacheCounters, CacheSnapshot, Lookup, ShardedOnceMap};
pub use comm::Communicator;
pub use delta::{DeltaPricer, RankStageIndex};
pub use exec::{ExecError, FunctionalState};
pub use schedule::{Payload, Schedule, SendOp, Stage};
pub use stats::TrafficBreakdown;
pub use timing::{
    ring_allgatherv_time, time_schedule, time_schedule_async, MergedOp, StageProfiles,
    TimedSchedule,
};
