//! The session-mutating events the WAL records.
//!
//! Only two ops mutate engine state — `ingest` (binds a name to a fresh
//! [`tarr_core::SessionCore`]) and `fault` (swaps a name to a degraded
//! core). Everything else (`map`, `reorder`, `price`, …) is a *derived*
//! pure function of that state and is deliberately **not** logged: replay
//! re-derives answers instead of trusting recorded ones, which is what
//! makes the log a ground truth rather than a cache.
//!
//! Events capture the request **semantics**, not the request bytes: an
//! ingest that named a `snapshot_path` is recorded with the resolved
//! snapshot *text*, so replay does not depend on a file that may have
//! changed or vanished; a fault is recorded as its seed and rates, because
//! `FaultSet::random` is a deterministic function of
//! (cluster, rates, seed).
//!
//! Every encoded event starts with [`EVENT_VERSION`]; decoding a newer
//! version is a typed error (old binaries refuse politely), and future
//! versions must keep decoding every older one.

use crate::wire::{Dec, Enc, WireError};
use tarr_faults::FaultRates;
use tarr_mapping::InitialMapping;

/// Current event encoding version.
pub const EVENT_VERSION: u8 = 1;

/// Where an ingested cluster came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestSource {
    /// A `topo-ingest` cluster snapshot, stored by value (resolved text,
    /// never a path).
    SnapshotText(String),
    /// The synthetic GPC fat-tree with this many nodes.
    GpcNodes(u64),
}

/// The four standard initial layouts, as a closed wire-stable enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Block node order, bunch intra-node order (the default).
    BlockBunch,
    /// Block node order, scatter intra-node order.
    BlockScatter,
    /// Cyclic node order, bunch intra-node order.
    CyclicBunch,
    /// Cyclic node order, scatter intra-node order.
    CyclicScatter,
}

impl LayoutKind {
    /// The serve-protocol spelling (`"block_bunch"`, …).
    pub fn name(self) -> &'static str {
        match self {
            LayoutKind::BlockBunch => "block_bunch",
            LayoutKind::BlockScatter => "block_scatter",
            LayoutKind::CyclicBunch => "cyclic_bunch",
            LayoutKind::CyclicScatter => "cyclic_scatter",
        }
    }

    /// Parse the serve-protocol spelling.
    pub fn parse(s: &str) -> Option<LayoutKind> {
        Some(match s {
            "block_bunch" => LayoutKind::BlockBunch,
            "block_scatter" => LayoutKind::BlockScatter,
            "cyclic_bunch" => LayoutKind::CyclicBunch,
            "cyclic_scatter" => LayoutKind::CyclicScatter,
            _ => return None,
        })
    }

    /// The corresponding [`InitialMapping`].
    pub fn initial(self) -> InitialMapping {
        match self {
            LayoutKind::BlockBunch => InitialMapping::BLOCK_BUNCH,
            LayoutKind::BlockScatter => InitialMapping::BLOCK_SCATTER,
            LayoutKind::CyclicBunch => InitialMapping::CYCLIC_BUNCH,
            LayoutKind::CyclicScatter => InitialMapping::CYCLIC_SCATTER,
        }
    }

    /// Classify an [`InitialMapping`] back into the closed enum (the four
    /// standard layouts are exhaustive today; a future custom layout would
    /// extend this).
    pub fn of_initial(m: InitialMapping) -> Option<LayoutKind> {
        Some(match m {
            InitialMapping::BLOCK_BUNCH => LayoutKind::BlockBunch,
            InitialMapping::BLOCK_SCATTER => LayoutKind::BlockScatter,
            InitialMapping::CYCLIC_BUNCH => LayoutKind::CyclicBunch,
            InitialMapping::CYCLIC_SCATTER => LayoutKind::CyclicScatter,
        })
    }

    fn code(self) -> u8 {
        match self {
            LayoutKind::BlockBunch => 0,
            LayoutKind::BlockScatter => 1,
            LayoutKind::CyclicBunch => 2,
            LayoutKind::CyclicScatter => 3,
        }
    }

    fn from_code(c: u8, at: usize) -> Result<LayoutKind, WireError> {
        Ok(match c {
            0 => LayoutKind::BlockBunch,
            1 => LayoutKind::BlockScatter,
            2 => LayoutKind::CyclicBunch,
            3 => LayoutKind::CyclicScatter,
            _ => {
                return Err(WireError {
                    offset: at,
                    what: "layout code",
                })
            }
        })
    }
}

/// Legacy wire tag of an ingest's distance backend: both values build the
/// oracle core. Kept so the WAL format stays unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Ingested as `"backend":"implicit"` (the serve default).
    Implicit,
    /// Ingested as `"backend":"dense"`.
    Dense,
}

impl BackendKind {
    fn code(self) -> u8 {
        match self {
            BackendKind::Implicit => 0,
            BackendKind::Dense => 1,
        }
    }

    fn from_code(c: u8, at: usize) -> Result<BackendKind, WireError> {
        Ok(match c {
            0 => BackendKind::Implicit,
            1 => BackendKind::Dense,
            _ => {
                return Err(WireError {
                    offset: at,
                    what: "backend code",
                })
            }
        })
    }
}

/// Everything an `ingest` request determines about the core it builds.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestSpec {
    /// Cluster source, by value.
    pub source: IngestSource,
    /// Initial layout.
    pub layout: LayoutKind,
    /// Requested process count (`None` = the source's total core count for
    /// GPC, the snapshot's own default otherwise).
    pub p: Option<u64>,
    /// Session seed override (`None` = `SessionConfig::default().seed`).
    pub seed: Option<u64>,
    /// Legacy backend tag; ignored by [`crate::build_core`].
    pub backend: BackendKind,
    /// Whether the request authorised replacing an existing binding.
    pub replace: bool,
}

/// Everything a `fault` request determines about the degradation it applies.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Fault-set seed.
    pub seed: u64,
    /// Per-cable failure probability.
    pub link_fail: f64,
    /// Per-switch failure probability.
    pub switch_fail: f64,
    /// Per-node drain probability.
    pub node_drain: f64,
    /// Per-core drain probability.
    pub core_drain: f64,
}

impl FaultSpec {
    /// The [`FaultRates`] this spec describes.
    pub fn rates(&self) -> FaultRates {
        FaultRates {
            link_fail: self.link_fail,
            switch_fail: self.switch_fail,
            node_drain: self.node_drain,
            core_drain: self.core_drain,
        }
    }
}

/// One session-mutating event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Bind `cluster` to a core built from `spec`.
    Ingest {
        /// Cluster name.
        cluster: String,
        /// How to build the core.
        spec: IngestSpec,
    },
    /// Degrade `cluster` with a seeded fault set.
    Fault {
        /// Cluster name.
        cluster: String,
        /// Seed and rates.
        fault: FaultSpec,
    },
}

impl Event {
    /// The cluster this event mutates.
    pub fn cluster(&self) -> &str {
        match self {
            Event::Ingest { cluster, .. } | Event::Fault { cluster, .. } => cluster,
        }
    }

    /// Short op name for summaries.
    pub fn op(&self) -> &'static str {
        match self {
            Event::Ingest { .. } => "ingest",
            Event::Fault { .. } => "fault",
        }
    }

    /// Encode as a versioned payload (the WAL frames and checksums it).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(EVENT_VERSION);
        match self {
            Event::Ingest { cluster, spec } => {
                e.u8(1);
                e.str(cluster);
                match &spec.source {
                    IngestSource::SnapshotText(text) => {
                        e.u8(0);
                        e.str(text);
                    }
                    IngestSource::GpcNodes(n) => {
                        e.u8(1);
                        e.u64(*n);
                    }
                }
                e.u8(spec.layout.code());
                match spec.p {
                    None => e.u8(0),
                    Some(p) => {
                        e.u8(1);
                        e.u64(p);
                    }
                }
                match spec.seed {
                    None => e.u8(0),
                    Some(s) => {
                        e.u8(1);
                        e.u64(s);
                    }
                }
                e.u8(spec.backend.code());
                e.u8(spec.replace as u8);
            }
            Event::Fault { cluster, fault } => {
                e.u8(2);
                e.str(cluster);
                e.u64(fault.seed);
                e.f64(fault.link_fail);
                e.f64(fault.switch_fail);
                e.f64(fault.node_drain);
                e.f64(fault.core_drain);
            }
        }
        e.into_bytes()
    }

    /// Decode a versioned payload. Newer [`EVENT_VERSION`]s are a typed
    /// error; trailing bytes after a valid event are corruption.
    pub fn decode(payload: &[u8]) -> Result<Event, WireError> {
        let mut d = Dec::new(payload);
        let version = d.u8("event version")?;
        if version == 0 || version > EVENT_VERSION {
            return Err(WireError {
                offset: 0,
                what: "unsupported event version",
            });
        }
        let at = d.pos();
        let tag = d.u8("event tag")?;
        let ev = match tag {
            1 => {
                let cluster = d.str("ingest cluster name")?;
                let sat = d.pos();
                let source = match d.u8("ingest source tag")? {
                    0 => IngestSource::SnapshotText(d.str("ingest snapshot text")?),
                    1 => IngestSource::GpcNodes(d.u64("ingest gpc nodes")?),
                    _ => {
                        return Err(WireError {
                            offset: sat,
                            what: "ingest source tag",
                        })
                    }
                };
                let lat = d.pos();
                let layout = LayoutKind::from_code(d.u8("ingest layout")?, lat)?;
                let pat = d.pos();
                let p = match d.u8("ingest p flag")? {
                    0 => None,
                    1 => Some(d.u64("ingest p")?),
                    _ => {
                        return Err(WireError {
                            offset: pat,
                            what: "ingest p flag",
                        })
                    }
                };
                let st = d.pos();
                let seed = match d.u8("ingest seed flag")? {
                    0 => None,
                    1 => Some(d.u64("ingest seed")?),
                    _ => {
                        return Err(WireError {
                            offset: st,
                            what: "ingest seed flag",
                        })
                    }
                };
                let bat = d.pos();
                let backend = BackendKind::from_code(d.u8("ingest backend")?, bat)?;
                let rat = d.pos();
                let replace = match d.u8("ingest replace flag")? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError {
                            offset: rat,
                            what: "ingest replace flag",
                        })
                    }
                };
                Event::Ingest {
                    cluster,
                    spec: IngestSpec {
                        source,
                        layout,
                        p,
                        seed,
                        backend,
                        replace,
                    },
                }
            }
            2 => Event::Fault {
                cluster: d.str("fault cluster name")?,
                fault: FaultSpec {
                    seed: d.u64("fault seed")?,
                    link_fail: d.f64("fault link_fail")?,
                    switch_fail: d.f64("fault switch_fail")?,
                    node_drain: d.f64("fault node_drain")?,
                    core_drain: d.f64("fault core_drain")?,
                },
            },
            _ => {
                return Err(WireError {
                    offset: at,
                    what: "event tag",
                })
            }
        };
        d.finish("event trailing bytes")?;
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ingest() -> Event {
        Event::Ingest {
            cluster: "gpc".into(),
            spec: IngestSpec {
                source: IngestSource::SnapshotText("tarr-cluster-snapshot v1\n".into()),
                layout: LayoutKind::CyclicScatter,
                p: Some(128),
                seed: Some(0xABCD),
                backend: BackendKind::Implicit,
                replace: true,
            },
        }
    }

    fn sample_fault() -> Event {
        Event::Fault {
            cluster: "gpc".into(),
            fault: FaultSpec {
                seed: 7,
                link_fail: 0.02,
                switch_fail: 0.0,
                node_drain: 0.125,
                core_drain: 1e-9,
            },
        }
    }

    #[test]
    fn events_roundtrip() {
        for ev in [sample_ingest(), sample_fault()] {
            let bytes = ev.encode();
            assert_eq!(Event::decode(&bytes).unwrap(), ev);
        }
        // GPC source and all-default options too.
        let ev = Event::Ingest {
            cluster: "x".into(),
            spec: IngestSpec {
                source: IngestSource::GpcNodes(18),
                layout: LayoutKind::BlockBunch,
                p: None,
                seed: None,
                backend: BackendKind::Dense,
                replace: false,
            },
        };
        assert_eq!(Event::decode(&ev.encode()).unwrap(), ev);
    }

    #[test]
    fn truncated_event_is_typed_error() {
        let bytes = sample_ingest().encode();
        for cut in 0..bytes.len() {
            assert!(
                Event::decode(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn future_version_refused() {
        let mut bytes = sample_fault().encode();
        bytes[0] = EVENT_VERSION + 1;
        let err = Event::decode(&bytes).unwrap_err();
        assert_eq!(err.what, "unsupported event version");
    }

    #[test]
    fn trailing_bytes_refused() {
        let mut bytes = sample_fault().encode();
        bytes.push(0);
        assert!(Event::decode(&bytes).is_err());
    }

    #[test]
    fn layout_names_roundtrip() {
        for l in [
            LayoutKind::BlockBunch,
            LayoutKind::BlockScatter,
            LayoutKind::CyclicBunch,
            LayoutKind::CyclicScatter,
        ] {
            assert_eq!(LayoutKind::parse(l.name()), Some(l));
            assert_eq!(LayoutKind::of_initial(l.initial()), Some(l));
        }
        assert_eq!(LayoutKind::parse("diagonal"), None);
    }
}
