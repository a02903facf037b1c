//! The shared-session split: an immutable, `Arc`-shareable [`SessionCore`]
//! plus cheap per-client [`SessionHandle`]s.
//!
//! A solo [`Session`] owns its caches mutably, so every concurrent client
//! would re-price the world. The core/handle split factors the session into
//!
//! * [`SessionCore`] — everything that is a pure function of
//!   (cluster, initial binding, [`SessionConfig`]): the cluster model, the
//!   extracted distance structure, the initial communicator, and the four
//!   caches (mappings, reordered communicators, compiled schedules, stage
//!   prices) re-hosted on lock-sharded coalescing maps
//!   ([`tarr_mpi::ShardedOnceMap`]). Every method takes `&self`; the core is
//!   meant to live in an `Arc` and be hammered by many threads at once.
//! * [`SessionHandle`] — an `Arc<SessionCore>` plus per-client scratch: the
//!   client's own [`CacheStats`] and coalesce counter. Handles are a pointer
//!   plus a few counters — create one per client (or per request) freely.
//!
//! A cache hit costs a shard read-lock plus an `Arc` clone. A miss installs
//! a once-cell, so N concurrent identical requests share **one** compute —
//! the coalescing that makes a warm core cheap under a thundering herd of
//! identical (pattern, size, mapper) requests. Every collective except
//! allgatherv takes this path: allgather, gather, broadcast and both
//! allreduce algorithms compile one size-parametric schedule per core and
//! price each `(schedule, communicator, bytes)` once; allgatherv's per-rank
//! sizes still go through the sized executor on every call.
//!
//! Every number a handle produces is **bit-identical** to a solo [`Session`]
//! on the same inputs: mappings run through the same [`compute_mapping`],
//! schedules through the same compile paths, and prices accumulate per
//! unique stage in original stage order exactly as
//! [`TimedSchedule::time`] does (stage prices are pure functions of the
//! communicator contents, so caching totals is exact). The differential
//! suite in `tests/shared_core.rs` pins this across mappers, patterns and
//! fault application.
//!
//! Faults on a shared core cannot mutate in place — handles elsewhere are
//! concurrently reading it. Instead [`SessionCore::apply_faults`] rebuilds a
//! warm solo session from the core's cached state, runs the solo session's
//! *keyed* invalidation ([`Session::apply_faults`]), and freezes the result
//! into a **new** core whose caches are pre-seeded with every surviving
//! entry. The serve daemon swaps its `Arc<SessionCore>` pointer; in-flight
//! requests on the old core finish against the pre-fault topology and new
//! requests see the degraded one.

use super::{
    compute_mapping, size_only_schedule, CacheStats, CommKey, DegradationReport, Mapper,
    MappingInfo, PatternKind, ProbePoint, SchedKey, Scheme, Session, SessionConfig,
    SessionDistance,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tarr_collectives::allgather::{groups_by_node, hierarchical, HierarchicalConfig, InterAlg};
use tarr_collectives::gather::binomial_gather;
use tarr_collectives::{select_allgather, AllgatherAlg};
use tarr_faults::{FaultError, FaultSet};
use tarr_mapping::{init_comm_schedule, OrderFix};
use tarr_mpi::cache::{CacheSnapshot, Lookup, ShardedOnceMap};
use tarr_mpi::{Communicator, TimedSchedule};
use tarr_netsim::StageModel;
use tarr_topo::{Cluster, Rank};

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

/// The snapshot-facing export of a [`SessionCore`]: the rank→core binding
/// plus the contents of the four shared caches, with all `Arc`s, sharding
/// and wall-clock metadata stripped. Produced by
/// [`SessionCore::export_state`], consumed by [`SessionCore::from_state`];
/// the persistence layer (`tarr-replay`) owns the wire encoding. Cluster
/// and [`SessionConfig`] travel separately — the cluster has its own
/// versioned text format (`tarr-ingest`'s `ClusterSnapshot`) and the config
/// is what `from_state` rebuilds the distance structure from.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// `cores[rank] = core id` of the initial communicator.
    pub cores: Vec<u32>,
    /// Mapping-cache entries; `None` marks a cached "unsupported
    /// configuration" outcome, `Some` the permutation itself.
    pub mappings: Vec<PermEntry>,
    /// Reordered-communicator cache entries as rank→core bindings.
    pub comms: Vec<PermEntry>,
    /// Compiled-schedule cache entries.
    pub scheds: Vec<(SchedKey, Option<TimedSchedule>)>,
    /// Fully-priced totals from the stage-price cache.
    pub prices: Vec<((SchedKey, CommKey, u64), f64)>,
}

/// One exported permutation-cache entry: the `(mapper, pattern)` key and
/// either the cached rank permutation or a cached "unsupported
/// configuration" outcome (`None`).
pub type PermEntry = ((Mapper, PatternKind), Option<Vec<u32>>);

/// Per-client scratch a [`SessionHandle`] carries: the classic per-cache
/// hit/miss accounting plus how many lookups this client coalesced onto
/// another thread's compute.
#[derive(Debug, Clone, Copy, Default)]
struct HandleScratch {
    stats: CacheStats,
    coalesced: u64,
}

impl HandleScratch {
    fn record(
        &mut self,
        outcome: Lookup,
        hits: fn(&mut CacheStats) -> &mut u64,
        misses: fn(&mut CacheStats) -> &mut u64,
    ) {
        match outcome {
            Lookup::Hit => *hits(&mut self.stats) += 1,
            Lookup::Miss => *misses(&mut self.stats) += 1,
            Lookup::Coalesced => {
                *hits(&mut self.stats) += 1;
                self.coalesced += 1;
            }
        }
    }
}

/// The immutable, shareable half of a [`Session`]. See the module docs.
pub struct SessionCore {
    cluster: Cluster,
    cfg: SessionConfig,
    comm: Communicator,
    d: SessionDistance,
    dist_build: Duration,
    mappings: ShardedOnceMap<(Mapper, PatternKind), Option<Arc<MappingInfo>>>,
    comms: ShardedOnceMap<(Mapper, PatternKind), Option<Arc<Communicator>>>,
    scheds: ShardedOnceMap<SchedKey, Option<Arc<TimedSchedule>>>,
    prices: ShardedOnceMap<(SchedKey, CommKey, u64), f64>,
}

impl Session {
    /// Freeze this session into an immutable, `Arc`-shareable core, seeding
    /// the shared caches with every entry this session already computed
    /// (mappings, reordered communicators, compiled schedules, and the
    /// fully-priced total of every complete stage-price vector).
    pub fn into_shared(self) -> SessionCore {
        let Session {
            cluster,
            cfg,
            comm,
            d,
            dist_build,
            cache,
            comm_cache,
            sched_cache,
            price_cache,
            stats: _,
        } = self;
        let core = SessionCore {
            cluster,
            cfg,
            comm,
            d,
            dist_build,
            mappings: ShardedOnceMap::default(),
            comms: ShardedOnceMap::default(),
            scheds: ShardedOnceMap::default(),
            prices: ShardedOnceMap::default(),
        };
        for (k, info) in cache {
            core.mappings.insert(k, Some(Arc::new(info)));
        }
        let mut comms_by_key: HashMap<(Mapper, PatternKind), Arc<Communicator>> = HashMap::new();
        for (k, c) in comm_cache {
            let c = Arc::new(c);
            comms_by_key.insert(k, c.clone());
            core.comms.insert(k, Some(c));
        }
        let mut scheds_by_key: HashMap<SchedKey, Arc<TimedSchedule>> = HashMap::new();
        for (k, ts) in sched_cache {
            let ts = Arc::new(ts);
            scheds_by_key.insert(k, ts.clone());
            core.scheds.insert(k, Some(ts));
        }
        // A price vector with every unique stage filled sums (in stage
        // order) to exactly what an uncached `TimedSchedule::time` returns;
        // partial vectors are dropped — the shared cache stores only totals.
        for ((key, ck, bytes), mut vec) in price_cache {
            if vec.iter().any(|v| v.is_nan()) {
                continue;
            }
            let Some(ts) = scheds_by_key.get(&key) else {
                continue;
            };
            let c = match ck {
                CommKey::Default => &core.comm,
                CommKey::Reordered(m, p) => match comms_by_key.get(&(m, p)) {
                    Some(c) => c.as_ref(),
                    None => continue,
                },
            };
            let model = StageModel::new(&core.cluster, core.cfg.net.clone());
            let total = ts.time_with_cache(c, &model, bytes, &mut vec);
            core.prices.insert((key, ck, bytes), total);
        }
        core
    }
}

impl SessionCore {
    /// Build a core directly over an explicit rank→core binding (a cold
    /// [`Session`] frozen immediately).
    pub fn new(cluster: Cluster, cores: Vec<tarr_topo::CoreId>, cfg: SessionConfig) -> Self {
        Session::new(cluster, cores, cfg).into_shared()
    }

    /// Build a core with one of the four standard initial layouts.
    pub fn from_layout(
        cluster: Cluster,
        layout: tarr_mapping::InitialMapping,
        p: usize,
        cfg: SessionConfig,
    ) -> Self {
        Session::from_layout(cluster, layout, p, cfg).into_shared()
    }

    /// Build a core from a `topo-ingest` cluster snapshot.
    pub fn from_snapshot_text(
        text: &str,
        layout: tarr_mapping::InitialMapping,
        p: Option<usize>,
        cfg: SessionConfig,
    ) -> Result<Self, tarr_ingest::IngestError> {
        Ok(Session::from_snapshot_text(text, layout, p, cfg)?.into_shared())
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
    /// distance structure.
    pub fn dist_build_time(&self) -> Duration {
        self.dist_build
    }

    /// Aggregated lookup outcomes of the four shared caches, across every
    /// handle and thread that used this core.
    pub fn cache_stats(&self) -> CoreCacheStats {
        CoreCacheStats {
            mappings: self.mappings.counters().snapshot(),
            comms: self.comms.counters().snapshot(),
            scheds: self.scheds.counters().snapshot(),
            prices: self.prices.counters().snapshot(),
        }
    }

    /// A per-client handle onto this core.
    pub fn handle(self: &Arc<Self>) -> SessionHandle {
        SessionHandle {
            core: self.clone(),
            scratch: HandleScratch::default(),
        }
    }

    /// Thaw this core back into a warm solo [`Session`]: same cluster,
    /// binding, config and distance structure, with the solo caches seeded
    /// from every computed shared entry (stage-price vectors excepted — the
    /// shared cache stores totals, which have no per-stage decomposition).
    fn to_session(&self) -> Session {
        let mut s = Session {
            cluster: self.cluster.clone(),
            cfg: self.cfg.clone(),
            comm: self.comm.clone(),
            d: self.d.clone(),
            dist_build: self.dist_build,
            cache: HashMap::new(),
            comm_cache: HashMap::new(),
            sched_cache: HashMap::new(),
            price_cache: HashMap::new(),
            stats: CacheStats::default(),
        };
        for (k, v) in self.mappings.entries() {
            if let Some(info) = v {
                s.cache.insert(k, (*info).clone());
            }
        }
        for (k, v) in self.comms.entries() {
            if let Some(c) = v {
                s.comm_cache.insert(k, (*c).clone());
            }
        }
        for (k, v) in self.scheds.entries() {
            if let Some(ts) = v {
                s.sched_cache.insert(k, (*ts).clone());
            }
        }
        s
    }

    /// Apply a [`FaultSet`] *functionally*: thaw a warm solo session from
    /// this core, run [`Session::apply_faults`] (rank migration + keyed
    /// cache invalidation, with `probes` priced before and after), and
    /// freeze the surviving state into a new core. `self` is untouched —
    /// concurrent readers keep pricing the pre-fault topology until the
    /// caller swaps its `Arc`.
    pub fn apply_faults(
        &self,
        faults: &FaultSet,
        probes: &[ProbePoint],
    ) -> Result<(SessionCore, DegradationReport), FaultError> {
        let mut s = self.to_session();
        let report = s.apply_faults(faults, probes)?;
        Ok((s.into_shared(), report))
    }

    /// Export every piece of state a snapshot needs to rebuild this core
    /// warm: the rank→core binding plus the contents of all four shared
    /// caches. Wall-clock metadata ([`MappingInfo::compute`] /
    /// `graph_build`, the distance-build time) is deliberately excluded —
    /// it is not a function of the inputs and would make snapshots
    /// non-reproducible. Entry order follows the sharded maps' internal
    /// iteration order; callers that need determinism must sort.
    pub fn export_state(&self) -> CoreState {
        CoreState {
            cores: self.comm.cores().iter().map(|c| c.0).collect(),
            mappings: self
                .mappings
                .entries()
                .into_iter()
                .map(|(k, v)| (k, v.map(|info| info.mapping.clone())))
                .collect(),
            comms: self
                .comms
                .entries()
                .into_iter()
                .map(|(k, v)| (k, v.map(|c| c.cores().iter().map(|c| c.0).collect())))
                .collect(),
            scheds: self
                .scheds
                .entries()
                .into_iter()
                .map(|(k, v)| (k, v.map(|ts| (*ts).clone())))
                .collect(),
            prices: self.prices.entries(),
        }
    }

    /// Rebuild a warm core from an exported [`CoreState`]: re-extract the
    /// distance structure deterministically from `(cluster, cores, cfg)` —
    /// it is a pure function of those inputs, so persisting it would only
    /// add bytes and a second source of truth — then seed the four shared
    /// caches with the exported entries. Structural invariants are
    /// validated (bindings in range, mappings are permutations, cached
    /// communicators match the binding multiset, prices finite) so a
    /// corrupted snapshot surfaces as `Err`, never as a panic or a silently
    /// wrong answer downstream.
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
        let cores: Vec<tarr_topo::CoreId> =
            state.cores.iter().map(|&c| tarr_topo::CoreId(c)).collect();
        let mut sorted_cores = state.cores.clone();
        sorted_cores.sort_unstable();
        let core = Session::new(cluster, cores, cfg).into_shared();
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
        for (k, v) in state.comms {
            let v = match v {
                None => None,
                Some(cs) => {
                    let mut sorted = cs.clone();
                    sorted.sort_unstable();
                    if sorted != sorted_cores {
                        return Err(format!(
                            "cached communicator for {k:?} binds a different core set"
                        ));
                    }
                    Some(Arc::new(Communicator::new(
                        cs.into_iter().map(tarr_topo::CoreId).collect(),
                    )))
                }
            };
            core.comms.insert(k, v);
        }
        for (k, v) in state.scheds {
            core.scheds.insert(k, v.map(Arc::new));
        }
        for (k, v) in state.prices {
            if !v.is_finite() {
                return Err(format!("cached price for {k:?} is not finite"));
            }
            core.prices.insert(k, v);
        }
        Ok(core)
    }

    fn model(&self) -> StageModel<'_> {
        StageModel::new(&self.cluster, self.cfg.net.clone())
    }

    fn node_groups(&self) -> Option<Vec<(u32, u32)>> {
        groups_by_node(&self.comm, &self.cluster)
    }

    /// The mapping for a (mapper, pattern) pair through the shared cache;
    /// `None` for unsupported configurations (same contract as
    /// [`Session::try_mapping`]).
    fn mapping_entry(
        &self,
        mapper: Mapper,
        pattern: PatternKind,
        sc: &mut HandleScratch,
    ) -> Option<Arc<MappingInfo>> {
        let (v, outcome) = self.mappings.get_or_compute(&(mapper, pattern), || {
            compute_mapping(
                &self.d,
                &self.cluster,
                &self.comm,
                &self.cfg,
                mapper,
                pattern,
            )
            .map(Arc::new)
        });
        sc.record(outcome, |s| &mut s.mapping_hits, |s| &mut s.mapping_misses);
        if tarr_trace::enabled() {
            trace_lookup("mapping", outcome);
        }
        v
    }

    /// The reordered communicator for a (mapper, pattern) pair.
    fn comm_entry(
        &self,
        mapper: Mapper,
        pattern: PatternKind,
        sc: &mut HandleScratch,
    ) -> Option<Arc<Communicator>> {
        // Resolve the mapping *outside* the communicator cell so the two
        // caches never nest their coalescing waits the wrong way round.
        let (v, outcome) = {
            let m = self.mappings.get(&(mapper, pattern));
            match m {
                Some(Some(info)) => self.comms.get_or_compute(&(mapper, pattern), || {
                    Some(Arc::new(self.comm.reordered(&info.mapping)))
                }),
                Some(None) => (None, Lookup::Hit),
                None => {
                    let info = self.mapping_entry(mapper, pattern, sc);
                    match info {
                        Some(info) => self.comms.get_or_compute(&(mapper, pattern), || {
                            Some(Arc::new(self.comm.reordered(&info.mapping)))
                        }),
                        None => (None, Lookup::Hit),
                    }
                }
            }
        };
        sc.record(outcome, |s| &mut s.comm_hits, |s| &mut s.comm_misses);
        if tarr_trace::enabled() {
            trace_lookup("comm", outcome);
        }
        v
    }

    /// The compiled [`TimedSchedule`] for `key`, mirroring
    /// `Session::ensure_sched` exactly.
    fn sched_entry(&self, key: SchedKey, sc: &mut HandleScratch) -> Option<Arc<TimedSchedule>> {
        if let Some(v) = self.scheds.get(&key) {
            sc.record(Lookup::Hit, |s| &mut s.sched_hits, |s| &mut s.sched_misses);
            if tarr_trace::enabled() {
                trace_lookup("sched", Lookup::Hit);
            }
            return v;
        }
        // Resolve the mapping dependency before entering the schedule cell,
        // so a coalesced waiter never holds a schedule cell while blocking
        // on a mapping cell another waiter needs.
        let p = self.size() as u32;
        let dep = |mapper: Mapper, pattern: PatternKind, sc: &mut HandleScratch| {
            self.mapping_entry(mapper, pattern, sc)
        };
        let mapping: Option<Arc<MappingInfo>> = match key {
            SchedKey::Flat(_)
            | SchedKey::Gather
            | SchedKey::Bcast
            | SchedKey::AllreduceRd
            | SchedKey::AllreduceRabenseifner => None,
            SchedKey::FlatInit(alg, mapper) => Some(dep(mapper, PatternKind::of_alg(alg), sc)?),
            SchedKey::GatherInit(mapper) => Some(dep(mapper, PatternKind::BinomialGather, sc)?),
            SchedKey::Hier(inter, intra, reorderer) => match reorderer {
                None => None,
                Some(mapper) => Some(dep(mapper, PatternKind::Hier(inter, intra), sc)?),
            },
            SchedKey::HierInit(inter, intra, mapper) => {
                Some(dep(mapper, PatternKind::Hier(inter, intra), sc)?)
            }
        };
        let (v, outcome) = self.scheds.get_or_compute(&key, || {
            let ts = match key {
                // The analytic constructions, as in the solo session.
                SchedKey::Flat(AllgatherAlg::Ring) => TimedSchedule::ring_allgather(p),
                SchedKey::Bcast | SchedKey::AllreduceRd | SchedKey::AllreduceRabenseifner => {
                    size_only_schedule(key, p)?
                }
                SchedKey::Flat(alg) => TimedSchedule::compile(&alg.schedule(p)),
                SchedKey::FlatInit(alg, _) => {
                    let m = &mapping.as_ref().expect("resolved above").mapping;
                    TimedSchedule::compile(&init_comm_schedule(m).then(alg.schedule(p)))
                }
                SchedKey::Gather => TimedSchedule::compile(&binomial_gather(p, Rank(0))),
                SchedKey::GatherInit(_) => {
                    let m = &mapping.as_ref().expect("resolved above").mapping;
                    TimedSchedule::compile(&init_comm_schedule(m).then(binomial_gather(p, Rank(0))))
                }
                SchedKey::Hier(inter, intra, ref reorderer) => {
                    let groups = self.node_groups()?;
                    let hcfg = HierarchicalConfig { inter, intra };
                    let sched = match reorderer {
                        None => hierarchical(p, &groups, hcfg),
                        Some(_) => {
                            let m = &mapping.as_ref().expect("resolved above").mapping;
                            hierarchical(p, &reordered_groups(&groups, m), hcfg)
                        }
                    };
                    TimedSchedule::compile(&sched)
                }
                SchedKey::HierInit(inter, intra, _) => {
                    let groups = self.node_groups()?;
                    let hcfg = HierarchicalConfig { inter, intra };
                    let m = &mapping.as_ref().expect("resolved above").mapping;
                    let sched = hierarchical(p, &reordered_groups(&groups, m), hcfg);
                    TimedSchedule::compile(&init_comm_schedule(m).then(sched))
                }
            };
            Some(Arc::new(ts))
        });
        sc.record(outcome, |s| &mut s.sched_hits, |s| &mut s.sched_misses);
        if tarr_trace::enabled() {
            trace_lookup("sched", outcome);
        }
        v
    }

    /// Total latency of the compiled schedule `key` over the communicator
    /// `ck` names, through the shared price cache. Stage prices are pure
    /// functions of the communicator contents and totals accumulate in
    /// original stage order, so the cached total is bit-identical to the
    /// solo session's stage-cache sum.
    fn priced_time(
        &self,
        key: SchedKey,
        ck: CommKey,
        block_bytes: u64,
        sc: &mut HandleScratch,
    ) -> Option<f64> {
        let ts = self.sched_entry(key, sc)?;
        let comm: Option<Arc<Communicator>> = match ck {
            CommKey::Default => None,
            CommKey::Reordered(m, p) => Some(self.comm_entry(m, p, sc)?),
        };
        let (v, outcome) = self.prices.get_or_compute(&(key, ck, block_bytes), || {
            let c = comm.as_deref().unwrap_or(&self.comm);
            ts.time(c, &self.model(), block_bytes)
        });
        // Mirror the solo per-stage accounting: a cached total stands in
        // for every unique stage of the schedule.
        let stages = ts.num_unique_stages() as u64;
        match outcome {
            Lookup::Miss => sc.stats.price_computed += stages,
            Lookup::Hit => sc.stats.price_reused += stages,
            Lookup::Coalesced => {
                sc.stats.price_reused += stages;
                sc.coalesced += 1;
            }
        }
        if tarr_trace::enabled() {
            trace_lookup("price", outcome);
        }
        Some(v)
    }

    fn allgather_time(&self, msg_bytes: u64, scheme: Scheme, sc: &mut HandleScratch) -> f64 {
        let p = self.size() as u32;
        let alg = select_allgather(p, msg_bytes);
        match scheme {
            Scheme::Default => self
                .priced_time(SchedKey::Flat(alg), CommKey::Default, msg_bytes, sc)
                .expect("flat schedules are always available"),
            Scheme::Reordered { mapper, fix } => {
                let pattern = PatternKind::of_alg(alg);
                let key = match (alg, fix) {
                    (AllgatherAlg::Ring, _) => SchedKey::Flat(alg),
                    (_, OrderFix::InitComm) => SchedKey::FlatInit(alg, mapper),
                    (_, OrderFix::EndShuffle | OrderFix::InPlace) => SchedKey::Flat(alg),
                };
                let t = self
                    .priced_time(key, CommKey::Reordered(mapper, pattern), msg_bytes, sc)
                    .expect("flat mappings are always available");
                if alg != AllgatherAlg::Ring && fix == OrderFix::EndShuffle {
                    t + self.cfg.net.memcpy.shuffle_time(p as usize, msg_bytes)
                } else {
                    t
                }
            }
        }
    }

    fn hierarchical_allgather_time(
        &self,
        msg_bytes: u64,
        hcfg: HierarchicalConfig,
        scheme: Scheme,
        sc: &mut HandleScratch,
    ) -> Option<f64> {
        let p = self.size() as u32;
        let groups = self.node_groups()?;
        if hcfg.inter == InterAlg::RecursiveDoubling && !groups.len().is_power_of_two() {
            return None;
        }
        match scheme {
            Scheme::Default => {
                let key = SchedKey::Hier(hcfg.inter, hcfg.intra, None);
                self.priced_time(key, CommKey::Default, msg_bytes, sc)
            }
            Scheme::Reordered { mapper, fix } => {
                if !matches!(mapper, Mapper::Hrstc | Mapper::ScotchLike) {
                    return None;
                }
                let pattern = PatternKind::Hier(hcfg.inter, hcfg.intra);
                let key = match fix {
                    OrderFix::InitComm => SchedKey::HierInit(hcfg.inter, hcfg.intra, mapper),
                    OrderFix::EndShuffle | OrderFix::InPlace => {
                        SchedKey::Hier(hcfg.inter, hcfg.intra, Some(mapper))
                    }
                };
                let t =
                    self.priced_time(key, CommKey::Reordered(mapper, pattern), msg_bytes, sc)?;
                Some(if fix == OrderFix::EndShuffle {
                    t + self.cfg.net.memcpy.shuffle_time(p as usize, msg_bytes)
                } else {
                    t
                })
            }
        }
    }

    fn gather_time(&self, msg_bytes: u64, scheme: Scheme, sc: &mut HandleScratch) -> f64 {
        let p = self.size() as u32;
        match scheme {
            Scheme::Default => self
                .priced_time(SchedKey::Gather, CommKey::Default, msg_bytes, sc)
                .expect("the gather schedule is always available"),
            Scheme::Reordered { mapper, fix } => {
                let key = match fix {
                    OrderFix::InitComm => SchedKey::GatherInit(mapper),
                    OrderFix::EndShuffle | OrderFix::InPlace => SchedKey::Gather,
                };
                let t = self
                    .priced_time(
                        key,
                        CommKey::Reordered(mapper, PatternKind::BinomialGather),
                        msg_bytes,
                        sc,
                    )
                    .expect("flat mappings are always available");
                if fix == OrderFix::EndShuffle {
                    t + self.cfg.net.memcpy.shuffle_time(p as usize, msg_bytes)
                } else {
                    t
                }
            }
        }
    }

    fn bcast_time(&self, bytes: u64, scheme: Scheme, sc: &mut HandleScratch) -> f64 {
        let ck = scalar_comm(scheme, PatternKind::BinomialBcast);
        self.priced_time(SchedKey::Bcast, ck, bytes, sc)
            .expect("flat mappings are always available")
    }

    fn allreduce_time(
        &self,
        vector_bytes: u64,
        rabenseifner: bool,
        scheme: Scheme,
        sc: &mut HandleScratch,
    ) -> f64 {
        let key = SchedKey::allreduce(rabenseifner);
        self.priced_time(key, scalar_comm(scheme, PatternKind::Rd), vector_bytes, sc)
            .expect("allreduce needs a power-of-two communicator")
    }

    fn allgatherv_time(&self, sizes: &[u64], scheme: Scheme, sc: &mut HandleScratch) -> f64 {
        assert_eq!(sizes.len(), self.size(), "one size per rank");
        let p = self.size() as u32;
        let sched = AllgatherAlg::Ring.schedule(p);
        match scheme {
            Scheme::Default => {
                tarr_mpi::time_schedule_sized(&sched, &self.comm, &self.model(), sizes)
            }
            Scheme::Reordered { mapper, .. } => {
                let comm2 = self
                    .comm_entry(mapper, PatternKind::Ring, sc)
                    .expect("flat mappings are always available");
                let m = &self
                    .mapping_entry(mapper, PatternKind::Ring, sc)
                    .expect("ring mapping exists once the communicator does")
                    .mapping;
                let permuted: Vec<u64> = m.iter().map(|&old| sizes[old as usize]).collect();
                tarr_mpi::time_schedule_sized(&sched, &comm2, &self.model(), &permuted)
            }
        }
    }
}

/// The communicator key a broadcast or allreduce prices over (see
/// `Session::scalar_comm`).
fn scalar_comm(scheme: Scheme, pattern: PatternKind) -> CommKey {
    match scheme {
        Scheme::Default => CommKey::Default,
        Scheme::Reordered { mapper, .. } => CommKey::Reordered(mapper, pattern),
    }
}

fn trace_lookup(cache: &'static str, outcome: Lookup) {
    match (cache, outcome) {
        ("mapping", Lookup::Hit) => tarr_trace::counter_add!("session.shared.mapping.hit", 1),
        ("mapping", Lookup::Miss) => tarr_trace::counter_add!("session.shared.mapping.miss", 1),
        ("mapping", Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.shared.mapping.coalesce", 1)
        }
        ("comm", Lookup::Hit) => tarr_trace::counter_add!("session.shared.comm.hit", 1),
        ("comm", Lookup::Miss) => tarr_trace::counter_add!("session.shared.comm.miss", 1),
        ("comm", Lookup::Coalesced) => tarr_trace::counter_add!("session.shared.comm.coalesce", 1),
        ("sched", Lookup::Hit) => tarr_trace::counter_add!("session.shared.sched.hit", 1),
        ("sched", Lookup::Miss) => tarr_trace::counter_add!("session.shared.sched.miss", 1),
        ("sched", Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.shared.sched.coalesce", 1)
        }
        ("price", Lookup::Hit) => tarr_trace::counter_add!("session.shared.price.hit", 1),
        ("price", Lookup::Miss) => tarr_trace::counter_add!("session.shared.price.miss", 1),
        ("price", Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.shared.price.coalesce", 1)
        }
        _ => {}
    }
}

/// A cheap per-client view onto a shared [`SessionCore`]: an `Arc` plus the
/// client's own cache accounting. Mirrors the solo [`Session`] pricing API;
/// every method is bit-identical to the solo equivalent on the same inputs.
pub struct SessionHandle {
    core: Arc<SessionCore>,
    scratch: HandleScratch,
}

impl SessionHandle {
    /// A handle on `core`.
    pub fn new(core: Arc<SessionCore>) -> Self {
        SessionHandle {
            core,
            scratch: HandleScratch::default(),
        }
    }

    /// The shared core.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.core.size()
    }

    /// This client's cache hit/miss accounting (the shared-core analogue of
    /// [`Session::cache_stats`]; coalesced lookups count as hits here and
    /// are also reported by [`SessionHandle::coalesced`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.scratch.stats
    }

    /// How many of this client's lookups blocked on (and then shared)
    /// another thread's in-flight compute.
    pub fn coalesced(&self) -> u64 {
        self.scratch.coalesced
    }

    /// The mapping for a (mapper, pattern) pair; `None` for unsupported
    /// configurations — the shared analogue of [`Session::try_mapping`].
    pub fn mapping(&mut self, mapper: Mapper, pattern: PatternKind) -> Option<Arc<MappingInfo>> {
        self.core.mapping_entry(mapper, pattern, &mut self.scratch)
    }

    /// The reordered communicator for a (mapper, pattern) pair.
    pub fn reordered_comm(
        &mut self,
        mapper: Mapper,
        pattern: PatternKind,
    ) -> Option<Arc<Communicator>> {
        self.core.comm_entry(mapper, pattern, &mut self.scratch)
    }

    /// Simulated latency of one non-hierarchical `MPI_Allgather` (see
    /// [`Session::allgather_time`]).
    pub fn allgather_time(&mut self, msg_bytes: u64, scheme: Scheme) -> f64 {
        self.core
            .allgather_time(msg_bytes, scheme, &mut self.scratch)
    }

    /// Simulated latency of one hierarchical `MPI_Allgather`; `None` when
    /// unsupported (see [`Session::hierarchical_allgather_time`]).
    pub fn hierarchical_allgather_time(
        &mut self,
        msg_bytes: u64,
        hcfg: HierarchicalConfig,
        scheme: Scheme,
    ) -> Option<f64> {
        self.core
            .hierarchical_allgather_time(msg_bytes, hcfg, scheme, &mut self.scratch)
    }

    /// Simulated latency of a binomial `MPI_Gather` to rank 0.
    pub fn gather_time(&mut self, msg_bytes: u64, scheme: Scheme) -> f64 {
        self.core.gather_time(msg_bytes, scheme, &mut self.scratch)
    }

    /// Simulated latency of a binomial `MPI_Bcast` from rank 0.
    pub fn bcast_time(&mut self, bytes: u64, scheme: Scheme) -> f64 {
        self.core.bcast_time(bytes, scheme, &mut self.scratch)
    }

    /// Simulated latency of an `MPI_Allreduce` of a `vector_bytes` vector.
    pub fn allreduce_time(&mut self, vector_bytes: u64, rabenseifner: bool, scheme: Scheme) -> f64 {
        self.core
            .allreduce_time(vector_bytes, rabenseifner, scheme, &mut self.scratch)
    }

    /// Simulated latency of an `MPI_Allgatherv` with per-rank sizes.
    pub fn allgatherv_time(&mut self, sizes: &[u64], scheme: Scheme) -> f64 {
        self.core.allgatherv_time(sizes, scheme, &mut self.scratch)
    }
}
