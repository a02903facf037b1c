//! # tarr-netsim — network performance models
//!
//! Prices communication on the [`tarr_topo::Cluster`] model. Two models are
//! provided:
//!
//! * [`StageModel`] — an analytic LogGP-style model: a synchronized stage of
//!   point-to-point messages costs the maximum over messages of
//!   `overhead + Σ hop latencies + bytes · maxₕ(contention(h)/bandwidth(h))`.
//!   This is the model used by the figure harnesses at 4096 processes.
//! * [`FlowEngine`] — a discrete-event fluid-flow simulator in which active
//!   flows share every link max-min fairly and events fire at flow
//!   completions. It is used to validate the analytic model at small scale
//!   and by the asynchronous schedule executor in `tarr-mpi`.
//!
//! Channel constants ([`NetParams`]) are calibrated to published QDR
//! InfiniBand / QPI / shared-cache figures matching the paper's GPC platform.
//!
//! ```
//! use tarr_netsim::{Message, NetParams, StageModel};
//! use tarr_topo::{Cluster, CoreId};
//!
//! let cluster = Cluster::gpc(2);
//! let model = StageModel::new(&cluster, NetParams::default());
//! let local = model.stage_time(&[Message::new(CoreId(0), CoreId(1), 4096)]);
//! let remote = model.stage_time(&[Message::new(CoreId(0), CoreId(8), 4096)]);
//! assert!(local < remote);     // shared memory beats InfiniBand
//! ```

pub mod event;
pub mod fxhash;
pub mod memcpy;
pub mod message;
pub mod params;
pub mod stage;

pub use event::{fluid_stage_time, FlowEngine, FlowId, FlowLinks, LinkIdx};
pub use fxhash::{fx_hash_one, FxHashMap, FxHasher};
pub use memcpy::MemcpyModel;
pub use message::Message;
pub use params::{ChannelParams, NetParams};
pub use stage::{StageModel, StageProfile};
