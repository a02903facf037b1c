//! The [`SessionCore`]: the one place a session's state and caches live.
//!
//! Everything a core holds is a pure function of (cluster, initial binding,
//! [`SessionConfig`]): the cluster model, the O(P) [`ImplicitDistance`]
//! oracle, the initial communicator, and the four caches (mappings,
//! reordered communicators, compiled schedules, prices) on lock-sharded
//! coalescing maps ([`tarr_mpi::ShardedOnceMap`]). Every method takes
//! `&self`; the core is meant to live in an `Arc` and be hammered by many
//! threads at once, each through its own [`Session`] handle
//! ([`SessionCore::handle`]).
//!
//! A cache hit costs a shard read-lock plus an `Arc` clone. A miss installs
//! a once-cell, so N concurrent identical requests share **one** compute —
//! the coalescing that makes a warm core cheap under a thundering herd of
//! identical (pattern, size, mapper) requests. Every collective except
//! allgatherv takes this path: allgather, gather, broadcast and both
//! allreduce algorithms compile one size-parametric schedule per core and
//! price each `(schedule, communicator, bytes)` once; allgatherv's per-rank
//! sizes are priced per call by the analytic ring
//! (`tarr_mpi::ring_allgatherv_time`) over the cached ring communicator. A
//! price lookup reads the price cache first: a hit answers from the entry
//! alone and never touches the communicator or schedule caches. A price
//! entry is what a snapshot stores: the total and its unique-stage count.
//!
//! The one per-stage state is the stage profiles. The core keeps one
//! lazily built [`tarr_netsim::StageProfile`] per unique stage of every
//! (schedule, communicator) pair it has priced ([`tarr_mpi::StageProfiles`]):
//! the stage routed once and reduced to a few size-free terms. A miss at a
//! new size over the same pair prices every stage from its profile,
//! bit-identically to routing it again, and a fault re-prices a price entry
//! from its pair's profiles with only the stages it reaches routed again.
//!
//! Mappings and prices are the core's *state*: a mapping is a heuristic
//! run and a price a simulation, both worth persisting. Reordered
//! communicators, compiled schedules and stage profiles are *caches*: pure
//! functions of a mapping, `p`, the node groups and the fabric. [`CoreState`]
//! therefore carries only the binding, the mappings and the price totals,
//! and no snapshot holds a profile; a restored core rebuilds a
//! communicator, schedule or profile on its first miss.
//!
//! A core never changes after a fault — handles elsewhere are concurrently
//! reading it. [`SessionCore::apply_faults`] (`session/degraded.rs`) mints a
//! **new** core that shares every surviving cache entry with the old one.
//! The serve daemon swaps its `Arc<SessionCore>` pointer; in-flight
//! requests on the old core finish against the pre-fault topology and new
//! requests see the degraded one.

use super::{CommKey, Mapper, MappingInfo, PatternKind, SchedKey, Session, SessionConfig};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tarr_collectives::allgather::{groups_by_node, hierarchical, HierarchicalConfig};
use tarr_collectives::gather::binomial_gather;
use tarr_collectives::AllgatherAlg;
use tarr_mapping::init_comm_schedule;
use tarr_mpi::cache::{CacheSnapshot, ShardedOnceMap};
use tarr_mpi::{Communicator, Schedule, StageProfiles, TimedSchedule};
use tarr_netsim::StageModel;
use tarr_topo::{Cluster, CoreId, ImplicitDistance, Rank};

use crate::hier::reordered_groups;

/// Aggregated lookup outcomes across the core's four shared caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    /// Mapping-cache outcomes.
    pub mappings: CacheSnapshot,
    /// Reordered-communicator cache outcomes.
    pub comms: CacheSnapshot,
    /// Compiled-schedule cache outcomes.
    pub scheds: CacheSnapshot,
    /// Stage-price (total-latency) cache outcomes.
    pub prices: CacheSnapshot,
}

impl CoreCacheStats {
    /// Total lookups that shared another thread's in-flight compute.
    pub fn coalesced(&self) -> u64 {
        self.mappings.coalesced
            + self.comms.coalesced
            + self.scheds.coalesced
            + self.prices.coalesced
    }

    /// Total lookups satisfied from an already-cached value.
    pub fn hits(&self) -> u64 {
        self.mappings.hits + self.comms.hits + self.scheds.hits + self.prices.hits
    }

    /// Total lookups that ran a compute.
    pub fn misses(&self) -> u64 {
        self.mappings.misses + self.comms.misses + self.scheds.misses + self.prices.misses
    }

    /// Outcomes accumulated since `earlier`.
    pub fn since(&self, earlier: CoreCacheStats) -> CoreCacheStats {
        CoreCacheStats {
            mappings: self.mappings.since(earlier.mappings),
            comms: self.comms.since(earlier.comms),
            scheds: self.scheds.since(earlier.scheds),
            prices: self.prices.since(earlier.prices),
        }
    }
}

/// The snapshot-facing export of a [`SessionCore`]: the rank→core binding,
/// the mapping cache and the price totals, with all `Arc`s, sharding and
/// wall-clock metadata stripped. Produced by [`SessionCore::export_state`],
/// consumed by [`SessionCore::from_state`]; the persistence layer
/// (`tarr-replay`) owns the wire encoding. Cluster and [`SessionConfig`]
/// travel separately — the cluster has its own versioned text format
/// (`tarr-ingest`'s `ClusterSnapshot`) and the config is what `from_state`
/// rebuilds the distance oracle from. Reordered communicators and compiled
/// schedules are not exported: a restored core derives them from the
/// mappings on first use.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// `cores[rank] = core id` of the initial communicator.
    pub cores: Vec<u32>,
    /// Mapping-cache entries; `None` marks a cached "unsupported
    /// configuration" outcome, `Some` the permutation itself.
    pub mappings: Vec<PermEntry>,
    /// Price-cache entries.
    pub prices: Vec<PriceEntry>,
}

/// One exported permutation-cache entry: the `(mapper, pattern)` key and
/// either the cached rank permutation or a cached "unsupported
/// configuration" outcome (`None`).
pub type PermEntry = ((Mapper, PatternKind), Option<Vec<u32>>);

/// One price-cache entry, live or exported: the `(schedule, communicator,
/// bytes)` key, the total latency, and the number of unique stages that
/// total sums (what a cache hit counts as reused).
pub type PriceEntry = ((SchedKey, CommKey, u64), (f64, u32));

/// The shared state of a session. See the module docs.
pub struct SessionCore {
    pub(super) cluster: Cluster,
    pub(super) cfg: SessionConfig,
    pub(super) comm: Communicator,
    pub(super) d: Arc<ImplicitDistance>,
    pub(super) dist_build: Duration,
    /// The initial communicator's node groups, computed on first use.
    node_groups: OnceLock<Option<Vec<(u32, u32)>>>,
    pub(super) mappings: ShardedOnceMap<(Mapper, PatternKind), Option<Arc<MappingInfo>>>,
    pub(super) comms: ShardedOnceMap<(Mapper, PatternKind), Option<Arc<Communicator>>>,
    pub(super) scheds: ShardedOnceMap<SchedKey, Option<Arc<TimedSchedule>>>,
    pub(super) prices: ShardedOnceMap<(SchedKey, CommKey, u64), (f64, u32)>,
    /// Size-free stage profiles per (schedule, communicator); a cache, like
    /// the schedules, so never exported.
    pub(super) profiles: ShardedOnceMap<(SchedKey, CommKey), Arc<StageProfiles>>,
}

impl SessionCore {
    /// Build a cold core over an explicit rank→core binding.
    pub fn new(cluster: Cluster, cores: Vec<CoreId>, cfg: SessionConfig) -> Self {
        let comm = Communicator::new(cores);
        let sp = tarr_trace::timed_span("session.distance_build").arg("p", comm.size());
        let d = ImplicitDistance::build(&cluster, comm.cores(), &cfg.dist);
        let dist_build = sp.finish();
        SessionCore::with_distance(cluster, cfg, comm, Arc::new(d), dist_build)
    }

    /// A core with empty caches over an already-built distance oracle.
    pub(super) fn with_distance(
        cluster: Cluster,
        cfg: SessionConfig,
        comm: Communicator,
        d: Arc<ImplicitDistance>,
        dist_build: Duration,
    ) -> Self {
        SessionCore {
            cluster,
            cfg,
            comm,
            d,
            dist_build,
            node_groups: OnceLock::new(),
            mappings: ShardedOnceMap::default(),
            comms: ShardedOnceMap::default(),
            scheds: ShardedOnceMap::default(),
            prices: ShardedOnceMap::default(),
            profiles: ShardedOnceMap::default(),
        }
    }

    /// Build a core with one of the four standard initial layouts.
    pub fn from_layout(
        cluster: Cluster,
        layout: tarr_mapping::InitialMapping,
        p: usize,
        cfg: SessionConfig,
    ) -> Self {
        let cores = layout.layout(&cluster, p);
        SessionCore::new(cluster, cores, cfg)
    }

    /// Build a core from a `topo-ingest` cluster snapshot (see
    /// [`Session::from_snapshot_text`]).
    pub fn from_snapshot_text(
        text: &str,
        layout: tarr_mapping::InitialMapping,
        p: Option<usize>,
        cfg: SessionConfig,
    ) -> Result<Self, tarr_ingest::IngestError> {
        let snap = tarr_ingest::ClusterSnapshot::parse(text)?;
        let cluster = snap.to_cluster()?;
        let p = p.unwrap_or_else(|| cluster.total_cores());
        Ok(SessionCore::from_layout(cluster, layout, p, cfg))
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The cluster model.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The initial communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// The session configuration the core was extracted under.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Wall-clock time spent building (and, across faults, rebuilding) the
    /// distance oracle.
    pub fn dist_build_time(&self) -> Duration {
        self.dist_build
    }

    /// Aggregated lookup outcomes of the four caches, across every handle
    /// and thread that used this core.
    pub fn cache_stats(&self) -> CoreCacheStats {
        CoreCacheStats {
            mappings: self.mappings.counters().snapshot(),
            comms: self.comms.counters().snapshot(),
            scheds: self.scheds.counters().snapshot(),
            prices: self.prices.counters().snapshot(),
        }
    }

    /// A per-client handle onto this core.
    pub fn handle(self: &Arc<Self>) -> Session {
        Session {
            core: self.clone(),
            stats: Default::default(),
            coalesced: 0,
        }
    }

    /// Export the state a snapshot needs to rebuild this core warm: the
    /// rank→core binding, the mapping cache and the price totals.
    /// Wall-clock metadata ([`MappingInfo::compute`] / `graph_build`, the
    /// distance-build time) is deliberately excluded — it is not a function
    /// of the inputs and would make snapshots non-reproducible. Entry order
    /// follows the sharded maps' internal iteration order; callers that
    /// need determinism must sort.
    pub fn export_state(&self) -> CoreState {
        CoreState {
            cores: self.comm.cores().iter().map(|c| c.0).collect(),
            mappings: self
                .mappings
                .entries()
                .into_iter()
                .map(|(k, v)| (k, v.map(|info| info.mapping.clone())))
                .collect(),
            prices: self.prices.entries(),
        }
    }

    /// Rebuild a warm core from an exported [`CoreState`]: re-extract the
    /// distance oracle deterministically from `(cluster, cores, cfg)` —
    /// it is a pure function of those inputs, so persisting it would only
    /// add bytes and a second source of truth — then seed the mapping and
    /// price caches with the exported entries. Communicators and schedules
    /// are rebuilt from the mappings on their first miss. Structural
    /// invariants are validated (bindings in range, mappings are
    /// permutations, prices finite) so a corrupted snapshot surfaces as
    /// `Err`, never as a panic or a silently wrong answer downstream.
    pub fn from_state(
        cluster: Cluster,
        cfg: SessionConfig,
        state: CoreState,
    ) -> Result<SessionCore, String> {
        if state.cores.is_empty() {
            return Err("state has an empty rank→core binding".into());
        }
        let total = cluster.total_cores() as u32;
        if let Some(&c) = state.cores.iter().find(|&&c| c >= total) {
            return Err(format!(
                "bound core {c} out of range (cluster has {total} cores)"
            ));
        }
        let mut seen = vec![false; total as usize];
        for &c in &state.cores {
            if std::mem::replace(&mut seen[c as usize], true) {
                return Err(format!("core {c} bound to two ranks"));
            }
        }
        let p = state.cores.len();
        let cores: Vec<tarr_topo::CoreId> = state.cores.iter().map(|&c| CoreId(c)).collect();
        let core = SessionCore::new(cluster, cores, cfg);
        for (k, v) in state.mappings {
            let v = match v {
                None => None,
                Some(mapping) => {
                    if mapping.len() != p {
                        return Err(format!(
                            "mapping for {k:?} has {} entries, expected {p}",
                            mapping.len()
                        ));
                    }
                    let mut hit = vec![false; p];
                    for &slot in &mapping {
                        if slot as usize >= p || std::mem::replace(&mut hit[slot as usize], true) {
                            return Err(format!(
                                "mapping for {k:?} is not a permutation of 0..{p}"
                            ));
                        }
                    }
                    Some(Arc::new(MappingInfo {
                        mapping,
                        compute: Duration::ZERO,
                        graph_build: Duration::ZERO,
                    }))
                }
            };
            core.mappings.insert(k, v);
        }
        for (k, priced) in state.prices {
            if !priced.0.is_finite() {
                return Err(format!("cached price for {k:?} is not finite"));
            }
            core.prices.insert(k, priced);
        }
        Ok(core)
    }

    pub(super) fn model(&self) -> StageModel<'_> {
        StageModel::new(&self.cluster, self.cfg.net.clone())
    }

    /// The initial communicator's contiguous `(start, len)` node groups,
    /// or `None` when a node's ranks are not contiguous. Scanned once per
    /// core.
    pub(super) fn node_groups(&self) -> Option<&[(u32, u32)]> {
        self.node_groups
            .get_or_init(|| groups_by_node(&self.comm, &self.cluster))
            .as_deref()
    }

    /// Compile the schedule `key` names. `mapping` is the permutation of
    /// [`SchedKey::dependency`], when the key has one. `None` when the key
    /// needs a mapping or node grouping that does not exist, or is an
    /// allreduce over a non-power-of-two `p`.
    pub(super) fn compile(&self, key: SchedKey, mapping: Option<&[u32]>) -> Option<TimedSchedule> {
        let p = self.size() as u32;
        let hier = |hcfg: HierarchicalConfig, m: Option<&[u32]>| -> Option<Schedule> {
            let groups = self.node_groups()?;
            Some(match m {
                None => hierarchical(p, groups, hcfg),
                Some(m) => hierarchical(p, &reordered_groups(groups, m), hcfg),
            })
        };
        Some(match key {
            // The ring is the scaling hazard: materializing its schedule is
            // O(P²) operations. The analytic constructor builds the compiled
            // form directly in O(P), as for the broadcast and allreduces.
            SchedKey::Flat(AllgatherAlg::Ring) => TimedSchedule::ring_allgather(p),
            SchedKey::Flat(alg) => TimedSchedule::compile(&alg.schedule(p)),
            SchedKey::FlatInit(alg, _) => {
                TimedSchedule::compile(&init_comm_schedule(mapping?).then(alg.schedule(p)))
            }
            SchedKey::Gather => TimedSchedule::binomial_gather(p),
            SchedKey::GatherInit(_) => TimedSchedule::compile(
                &init_comm_schedule(mapping?).then(binomial_gather(p, Rank(0))),
            ),
            SchedKey::Hier(inter, intra, None) => {
                TimedSchedule::compile(&hier(HierarchicalConfig { inter, intra }, None)?)
            }
            SchedKey::Hier(inter, intra, Some(_)) => {
                TimedSchedule::compile(&hier(HierarchicalConfig { inter, intra }, Some(mapping?))?)
            }
            SchedKey::HierInit(inter, intra, _) => {
                let m = mapping?;
                let sched = hier(HierarchicalConfig { inter, intra }, Some(m))?;
                TimedSchedule::compile(&init_comm_schedule(m).then(sched))
            }
            SchedKey::Bcast => TimedSchedule::binomial_bcast(p),
            SchedKey::AllreduceRd | SchedKey::AllreduceRabenseifner if !p.is_power_of_two() => {
                return None
            }
            SchedKey::AllreduceRd => TimedSchedule::rd_allreduce(p),
            SchedKey::AllreduceRabenseifner => TimedSchedule::rabenseifner_allreduce(p),
        })
    }

    /// Price `ts` (the schedule `key` names) over `comm` (the communicator
    /// `ck` names) at `block_bytes` from the pair's cached [`StageProfiles`],
    /// as a price-cache entry. A stage whose profile is not built yet is
    /// routed once and its profile kept for every later size. The pair's
    /// profile set is installed before the total is returned, so every
    /// price entry a reader sees has its profile set in place.
    pub(super) fn price(
        &self,
        (key, ck): (SchedKey, CommKey),
        ts: &TimedSchedule,
        comm: &Communicator,
        block_bytes: u64,
    ) -> (f64, u32) {
        let (profiles, _) = self.profiles.get_or_compute(&(key, ck), || {
            Arc::new(StageProfiles::new(ts.num_unique_stages()))
        });
        let total = ts.time_with_profiles(comm, &self.model(), block_bytes, &profiles);
        (total, ts.num_unique_stages() as u32)
    }

    /// The compiled schedule cached under `key`, if one has been compiled
    /// on this core (or survived a fault into it).
    pub fn schedule(&self, key: SchedKey) -> Option<Arc<TimedSchedule>> {
        self.scheds.get(&key).flatten()
    }

    /// The stage profiles cached for schedule `sched` over communicator
    /// `comm`, if any price over the pair has run on this core (or survived
    /// a fault into it). Slots of stages not priced since are unbuilt.
    pub fn stage_profiles(&self, sched: SchedKey, comm: CommKey) -> Option<Arc<StageProfiles>> {
        self.profiles.get(&(sched, comm))
    }
}
