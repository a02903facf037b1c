//! tarr-replay — deterministic event log, warm snapshot/restore, and
//! crash-safe replay for the mapping service.
//!
//! The persistence story in one paragraph: the only two ops that mutate
//! engine state (`ingest`, `fault`) are recorded as seeded, versioned
//! [`Event`]s in a checksummed write-ahead log ([`log`]), fsync'd before
//! the reply is acknowledged. A [`snapshot`] captures every named
//! cluster's warm [`tarr_core::SessionCore`] — binding, cached mappings,
//! priced totals — so a
//! restarted service boots by loading the latest snapshot and replaying
//! only the log tail ([`state::restore_dir`]) instead of re-pricing the
//! world. Because every event is a *seeded* description of a
//! deterministic computation (not a diff of its output), replay
//! reconstructs engine state bit-identically; the `tarr-replay` binary's
//! `--diff` mode proves it by comparing probe suites between a
//! snapshot-boot and a from-genesis replay.
//!
//! Crash-consistency contract, shortest form: *acknowledged implies
//! durable* (the WAL append syncs before the reply), *torn implies
//! unacknowledged* (a torn tail can only be the record whose reply never
//! went out, and recovery drops exactly that suffix), and *corrupt
//! implies loud* (damage anywhere else is a typed error, never a skip).

pub mod event;
pub mod log;
pub mod snapshot;
pub mod state;
pub mod wire;

pub use event::{
    BackendKind, Event, FaultSpec, IngestSource, IngestSpec, LayoutKind, EVENT_VERSION,
};
pub use log::{read_wal, recover_wal, WalRecord, WalTail, WalWriter, WAL_FILE, WAL_MAGIC};
pub use snapshot::{
    load as load_snapshot, write_atomic as write_snapshot, ClusterState, EngineSnapshot, SNAP_FILE,
    SNAP_MAGIC, SNAP_VERSION,
};
pub use state::{
    build_core, fault_core, probe_suite, restore_dir, ReplayState, Restore, MAX_INGEST_CORES,
};
pub use wire::{crc32, Dec, Enc, WireError};

use std::path::Path;

/// Everything that can go wrong while persisting or replaying.
#[derive(Debug)]
pub enum ReplayError {
    /// An OS-level I/O failure on `path`.
    Io {
        /// File the operation touched.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Structural damage that a torn append cannot explain.
    Corrupt {
        /// Damaged file.
        path: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// A snapshot that fails decoding or semantic validation.
    BadSnapshot {
        /// What was wrong.
        what: String,
    },
    /// A snapshot or event written by a newer format version.
    UnsupportedVersion(u32),
    /// A structurally-valid event that cannot be applied (e.g. a fault on
    /// a cluster the log never ingested).
    Apply(String),
}

impl ReplayError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> ReplayError {
        ReplayError::Io {
            path: path.display().to_string(),
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, offset: u64, what: &'static str) -> ReplayError {
        ReplayError::Corrupt {
            path: path.display().to_string(),
            offset,
            what,
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io { path, source } => write!(f, "io error on {path}: {source}"),
            ReplayError::Corrupt { path, offset, what } => {
                write!(f, "corrupt {path} at byte {offset}: {what}")
            }
            ReplayError::BadSnapshot { what } => write!(f, "bad snapshot: {what}"),
            ReplayError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (written by a newer build?)"
                )
            }
            ReplayError::Apply(what) => write!(f, "cannot apply event: {what}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
