//! The [`Session`] — the paper's run-time rank-reordering framework (§IV).
//!
//! A session works over one job: the cluster model, the initial rank→core
//! binding and the distance oracle built over it.
//! Reordered communicators are created lazily and **once** per (mapper,
//! communication pattern) — "the whole rank reordering process happens only
//! once at run-time; any subsequent calls to the corresponding collective …
//! will be conducted over the reordered copy of the given communicator."
//!
//! The state lives in a [`SessionCore`] (see `session/shared.rs`), which
//! is meant to sit in an `Arc` and serve any number of threads. A
//! [`Session`] is one client's handle onto a core: the `Arc` plus the
//! client's own [`CacheStats`]. Handles are cheap; create one per client or
//! per request. Four caches on the core back the compute-once promise:
//!
//! * the **mapping cache** — one [`MappingInfo`] per (mapper, pattern);
//! * the **communicator cache** — the reordered [`Communicator`] per
//!   (mapper, pattern), so repeated `*_time` calls stop rebuilding an O(P)
//!   permutation per call;
//! * the **schedule cache** — size-independent compiled [`TimedSchedule`]s
//!   for allgather, gather, broadcast and both allreduce algorithms
//!   (allgatherv prices the ring analytically per call, since its per-rank
//!   sizes change the bytes of every stage);
//! * the **price cache** — the total latency of each (schedule,
//!   communicator, message size) and its unique-stage count. The per-stage
//!   state behind it is the core's size-free stage profiles, one set per
//!   (schedule, communicator), from which a fault re-prices only the
//!   stages it reaches.
//!
//! The distance structure is the O(P)-memory
//! [`tarr_topo::ImplicitDistance`] oracle, which takes a 65,536-rank
//! session from an 8 GiB dense extraction to a few MiBs. The heuristics run in their bucketed O(P·L) form on it. The
//! dense [`tarr_topo::DistanceMatrix`] and the linear-scan heuristics stay
//! in `tarr-topo`/`tarr-mapping` as the reference the differential suites
//! pin every session mapping against.

mod degraded;
mod shared;

pub use degraded::DegradationReport;
pub use shared::{CoreCacheStats, CoreState, SessionCore};

use crate::hier::{hierarchical_mapping, reordered_groups, HierMapper};
use std::sync::Arc;
use std::time::Duration;
use tarr_collectives::allgather::{hierarchical, HierarchicalConfig, InterAlg, IntraPattern};
use tarr_collectives::gather::binomial_gather;
use tarr_collectives::{pattern_graph, pattern_graph_unweighted, select_allgather, AllgatherAlg};
use tarr_mapping::initial::mvapich_cyclic_reorder;
use tarr_mapping::{
    bbmh_bucketed, bgmh_bucketed, bkmh_bucketed, end_shuffle_perm, greedy_map, init_comm_schedule,
    rdmh_bucketed, reorder, ring_placement, rmh_bucketed, scotch_like_map_with, InitialMapping,
    OrderFix, ScotchVariant,
};
use tarr_mpi::cache::Lookup;
use tarr_mpi::{Communicator, FunctionalState, Schedule, TimedSchedule, TrafficBreakdown};
use tarr_netsim::NetParams;
use tarr_topo::{Cluster, CoreId, DistanceConfig, ExtractionCostModel, Rank};

/// Mapping engine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapper {
    /// The paper's fine-tuned heuristics ("Hrstc" in the figures).
    Hrstc,
    /// The Scotch baseline as the paper measured it: default-strategy dual
    /// recursive bipartitioning on an **unweighted** pattern graph (see
    /// `tarr_mapping::ScotchVariant::PaperDefault`).
    ScotchLike,
    /// A well-driven DRB mapper — weighted pattern graph and
    /// cluster-coherent host bisection (ablation).
    ScotchTuned,
    /// The Hoefler–Snir general greedy mapper (flat patterns only).
    Greedy,
    /// MVAPICH's fixed block→cyclic reorder (no topology input).
    MvapichCyclic,
}

impl Mapper {
    /// Display name used by the harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            Mapper::Hrstc => "Hrstc",
            Mapper::ScotchLike => "Scotch",
            Mapper::ScotchTuned => "ScotchTuned",
            Mapper::Greedy => "Greedy",
            Mapper::MvapichCyclic => "MvCyclic",
        }
    }
}

/// A communication pattern a reordered communicator is kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Recursive-doubling allgather.
    Rd,
    /// Ring allgather.
    Ring,
    /// Bruck allgather.
    Bruck,
    /// Binomial broadcast.
    BinomialBcast,
    /// Binomial gather.
    BinomialGather,
    /// Hierarchical allgather with the given phases.
    Hier(InterAlg, IntraPattern),
}

impl PatternKind {
    fn of_alg(alg: AllgatherAlg) -> PatternKind {
        match alg {
            AllgatherAlg::RecursiveDoubling => PatternKind::Rd,
            AllgatherAlg::Ring => PatternKind::Ring,
            AllgatherAlg::Bruck => PatternKind::Bruck,
        }
    }
}

/// How a collective is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The library default: no reordering (the paper's MVAPICH baseline).
    Default,
    /// Topology-aware reordering with the given mapper and §V-B fix.
    Reordered {
        /// Mapping engine.
        mapper: Mapper,
        /// Output-order preservation mechanism.
        fix: OrderFix,
    },
}

impl Scheme {
    /// Heuristic reordering with the given fix.
    pub fn hrstc(fix: OrderFix) -> Scheme {
        Scheme::Reordered {
            mapper: Mapper::Hrstc,
            fix,
        }
    }

    /// Scotch-like reordering with the given fix.
    pub fn scotch(fix: OrderFix) -> Scheme {
        Scheme::Reordered {
            mapper: Mapper::ScotchLike,
            fix,
        }
    }
}

/// Session-wide knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Seed for tie-breaking and the Scotch-like mapper.
    pub seed: u64,
    /// Network channel constants.
    pub net: NetParams,
    /// Distance-level values.
    pub dist: DistanceConfig,
    /// Wall-clock model of on-system distance extraction (Fig. 7a).
    pub extraction: ExtractionCostModel,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 0x7a22,
            net: NetParams::default(),
            dist: DistanceConfig::default(),
            extraction: ExtractionCostModel::default(),
        }
    }
}

/// A computed mapping plus its (real, measured) computation cost.
#[derive(Debug, Clone)]
pub struct MappingInfo {
    /// `mapping[new_rank] = slot`.
    pub mapping: Vec<u32>,
    /// Wall-clock time of the mapping algorithm itself.
    pub compute: Duration,
    /// Wall-clock time spent building the process-topology graph (zero for
    /// the fine-tuned heuristics — they never build one).
    pub graph_build: Duration,
}

/// One client's lookup outcomes on the session caches (one pair per cache,
/// counted per lookup; a lookup that shared another thread's in-flight
/// compute counts as a hit). Mirrored onto the `session.cache.*` trace
/// counters when tracing is enabled; these per-handle fields stay exact
/// under parallel test runs where the global counters aggregate across
/// sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Mapping-cache lookups that found a [`MappingInfo`] already computed.
    pub mapping_hits: u64,
    /// Mapping-cache lookups that had to run the mapping algorithm.
    pub mapping_misses: u64,
    /// Reordered-communicator cache hits.
    pub comm_hits: u64,
    /// Reordered-communicator cache misses (O(P) permutation rebuilt).
    pub comm_misses: u64,
    /// Compiled-schedule cache hits.
    pub sched_hits: u64,
    /// Compiled-schedule cache misses (schedule compiled).
    pub sched_misses: u64,
    /// Unique-stage prices reused from the price cache across `*_time`
    /// calls (each would have been a full stage re-simulation without it).
    pub price_reused: u64,
    /// Unique-stage prices simulated and inserted into the price cache.
    pub price_computed: u64,
}

/// Key of one compiled [`TimedSchedule`] in the schedule cache. Schedules
/// whose *structure* depends on a mapping (an initComm prefix, or
/// hierarchical phases over reordered groups) carry the responsible mapper.
///
/// Public so the persistence layer (`tarr-replay`) can snapshot and restore
/// cache contents keyed exactly as the live session keys them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKey {
    /// A flat allgather algorithm over the default rank order.
    Flat(AllgatherAlg),
    /// A flat allgather prefixed with the mapper's initComm stage.
    FlatInit(AllgatherAlg, Mapper),
    /// The binomial gather to rank 0.
    Gather,
    /// The binomial gather prefixed with the mapper's initComm stage.
    GatherInit(Mapper),
    /// Hierarchical phases; `None` = default node groups, `Some(mapper)` =
    /// the mapper's reordered groups.
    Hier(InterAlg, IntraPattern, Option<Mapper>),
    /// Hierarchical phases over reordered groups, initComm-prefixed.
    HierInit(InterAlg, IntraPattern, Mapper),
    /// The binomial broadcast from rank 0.
    Bcast,
    /// The recursive-doubling allreduce (power-of-two `p` only).
    AllreduceRd,
    /// Rabenseifner's allreduce (power-of-two `p` only).
    AllreduceRabenseifner,
}

impl SchedKey {
    /// The allreduce schedule key for the chosen algorithm.
    fn allreduce(rabenseifner: bool) -> SchedKey {
        if rabenseifner {
            SchedKey::AllreduceRabenseifner
        } else {
            SchedKey::AllreduceRd
        }
    }

    /// The (mapper, pattern) whose mapping this schedule is compiled from,
    /// if any.
    fn dependency(self) -> Option<(Mapper, PatternKind)> {
        match self {
            SchedKey::FlatInit(alg, mapper) => Some((mapper, PatternKind::of_alg(alg))),
            SchedKey::GatherInit(mapper) => Some((mapper, PatternKind::BinomialGather)),
            SchedKey::Hier(inter, intra, Some(mapper))
            | SchedKey::HierInit(inter, intra, mapper) => {
                Some((mapper, PatternKind::Hier(inter, intra)))
            }
            _ => None,
        }
    }
}

/// Which communicator a cached price was computed over.
///
/// Public for the same reason as [`SchedKey`]: snapshot/restore round-trips
/// price-cache entries under their live keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKey {
    /// The session's initial communicator.
    Default,
    /// The reordered communicator cached under `(mapper, pattern)`.
    Reordered(Mapper, PatternKind),
}

/// Which cache a lookup went to, for the per-handle accounting.
#[derive(Debug, Clone, Copy)]
enum Cache {
    Mapping,
    Comm,
    Sched,
    /// A price lookup; a cached total stands in for every unique stage of
    /// its schedule.
    Price {
        stages: u64,
    },
}

/// The rank-reordering framework bound to one job: a handle onto a shared
/// [`SessionCore`] plus this client's own cache accounting. See the module
/// docs.
pub struct Session {
    core: Arc<SessionCore>,
    stats: CacheStats,
    coalesced: u64,
}

/// Another name for [`Session`], kept because the benchmark crate
/// (`loadgen/`) names it.
pub type SessionHandle = Session;

impl Session {
    /// Create a session over an explicit rank→core binding.
    pub fn new(cluster: Cluster, cores: Vec<CoreId>, cfg: SessionConfig) -> Self {
        Arc::new(SessionCore::new(cluster, cores, cfg)).handle()
    }

    /// Create a session with one of the four standard initial layouts.
    pub fn from_layout(
        cluster: Cluster,
        layout: InitialMapping,
        p: usize,
        cfg: SessionConfig,
    ) -> Self {
        Arc::new(SessionCore::from_layout(cluster, layout, p, cfg)).handle()
    }

    /// Create a session from a `topo-ingest` cluster snapshot (the text
    /// format `topo-ingest snapshot` writes and the scaled bench binaries
    /// load with `--cluster`).
    ///
    /// `p` defaults to every core of the snapshotted cluster when `None`.
    pub fn from_snapshot_text(
        text: &str,
        layout: InitialMapping,
        p: Option<usize>,
        cfg: SessionConfig,
    ) -> Result<Self, tarr_ingest::IngestError> {
        Ok(Arc::new(SessionCore::from_snapshot_text(text, layout, p, cfg)?).handle())
    }

    /// The shared core this handle reads.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.core.size()
    }

    /// The cluster model.
    pub fn cluster(&self) -> &Cluster {
        self.core.cluster()
    }

    /// The initial communicator.
    pub fn comm(&self) -> &Communicator {
        self.core.comm()
    }

    /// Wall-clock time spent building (and, across faults, rebuilding) the
    /// distance oracle (real, measured).
    pub fn dist_build_time(&self) -> Duration {
        self.core.dist_build_time()
    }

    /// This handle's hit/miss counts on the mapping, reordered-communicator,
    /// compiled-schedule and price caches since it was created (coalesced
    /// lookups count as hits here and are also reported by
    /// [`Session::coalesced`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Cache hit/miss deltas between two [`CacheStats`] snapshots — sugar
    /// for asserting reuse across a fault (see the degraded-session tests).
    pub fn cache_stats_since(&self, baseline: CacheStats) -> CacheStats {
        let s = self.stats;
        CacheStats {
            mapping_hits: s.mapping_hits - baseline.mapping_hits,
            mapping_misses: s.mapping_misses - baseline.mapping_misses,
            comm_hits: s.comm_hits - baseline.comm_hits,
            comm_misses: s.comm_misses - baseline.comm_misses,
            sched_hits: s.sched_hits - baseline.sched_hits,
            sched_misses: s.sched_misses - baseline.sched_misses,
            price_reused: s.price_reused - baseline.price_reused,
            price_computed: s.price_computed - baseline.price_computed,
        }
    }

    /// How many of this handle's lookups blocked on (and then shared)
    /// another thread's in-flight compute.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Modelled on-system extraction time (hwloc + IB tools probing), per the
    /// calibrated Fig. 7(a) model.
    pub fn extraction_model_seconds(&self) -> f64 {
        self.core.config().extraction.seconds(self.size())
    }

    /// Count one lookup in this handle's stats and, when tracing, on the
    /// `session.cache.*` / `session.price.*` counters.
    fn record(&mut self, cache: Cache, outcome: Lookup) {
        if outcome == Lookup::Coalesced {
            self.coalesced += 1;
        }
        let s = &mut self.stats;
        let (hits, misses, n) = match cache {
            Cache::Mapping => (&mut s.mapping_hits, &mut s.mapping_misses, 1),
            Cache::Comm => (&mut s.comm_hits, &mut s.comm_misses, 1),
            Cache::Sched => (&mut s.sched_hits, &mut s.sched_misses, 1),
            Cache::Price { stages } => (&mut s.price_reused, &mut s.price_computed, stages),
        };
        *if outcome == Lookup::Miss {
            misses
        } else {
            hits
        } += n;
        if tarr_trace::enabled() {
            trace_lookup(cache, outcome);
        }
    }

    /// The mapping (and its overhead record) for a mapper/pattern pair —
    /// computed once per core, then cached, as in §IV. `None` when the
    /// configuration is unsupported: hierarchical patterns need
    /// node-contiguous ranks, and recursive doubling (flat, or between
    /// hierarchical leaders) a power-of-two process count.
    pub fn mapping(&mut self, mapper: Mapper, pattern: PatternKind) -> Option<Arc<MappingInfo>> {
        let core = &*self.core;
        let (v, outcome) = core.mappings.get_or_compute(&(mapper, pattern), || {
            compute_mapping(core, mapper, pattern).map(Arc::new)
        });
        self.record(Cache::Mapping, outcome);
        v
    }

    /// The reordered communicator for a mapper/pattern pair — built once
    /// per core, then cached. `None` when the mapping is unsupported.
    pub fn reordered_comm(
        &mut self,
        mapper: Mapper,
        pattern: PatternKind,
    ) -> Option<Arc<Communicator>> {
        let key = (mapper, pattern);
        // Resolve the mapping outside the communicator cell, and only when
        // the communicator is not cached yet, so the two caches never nest
        // their coalescing waits.
        let info = match self.core.comms.get(&key) {
            Some(_) => None,
            None => self.mapping(mapper, pattern),
        };
        let core = &*self.core;
        let (v, outcome) = core.comms.get_or_compute(&key, || {
            info.map(|info| Arc::new(core.comm.reordered(&info.mapping)))
        });
        self.record(Cache::Comm, outcome);
        v
    }

    /// The compiled [`TimedSchedule`] for `key`, compiled once per core.
    /// `None` when the key needs a mapping or node grouping the session
    /// cannot produce, or is an allreduce over a non-power-of-two `p`.
    fn sched(&mut self, key: SchedKey) -> Option<Arc<TimedSchedule>> {
        // As in `reordered_comm`: the mapping dependency is resolved before
        // entering the schedule cell.
        let mapping = match (self.core.scheds.get(&key), key.dependency()) {
            (None, Some((mapper, pattern))) => Some(self.mapping(mapper, pattern)?),
            _ => None,
        };
        let core = &*self.core;
        let (v, outcome) = core.scheds.get_or_compute(&key, || {
            core.compile(key, mapping.as_ref().map(|info| &info.mapping[..]))
                .map(Arc::new)
        });
        self.record(Cache::Sched, outcome);
        v
    }

    /// Price the compiled schedule `key` over the communicator `ck` names at
    /// `block_bytes`, once per core. Summation follows `stage_order()`, so
    /// the result is bit-identical to an uncached [`TimedSchedule::time`]
    /// call. `None` when the schedule or communicator is unsupported.
    ///
    /// The price cache is read first: a hit answers from the entry alone,
    /// so it neither reads nor (on a restored core) rebuilds the
    /// communicator and schedule a cached total never needs.
    fn priced_time(&mut self, key: SchedKey, ck: CommKey, block_bytes: u64) -> Option<f64> {
        let pkey = (key, ck, block_bytes);
        if let Some((total, num_stages)) = self.core.prices.get_hit(&pkey) {
            let stages = u64::from(num_stages);
            self.record(Cache::Price { stages }, Lookup::Hit);
            return Some(total);
        }
        let comm = match ck {
            CommKey::Default => None,
            CommKey::Reordered(mapper, pattern) => Some(self.reordered_comm(mapper, pattern)?),
        };
        let ts = self.sched(key)?;
        let core = &*self.core;
        let ((total, _), outcome) = core.prices.get_or_compute(&pkey, || {
            let c = comm.as_deref().unwrap_or(&core.comm);
            core.price((key, ck), &ts, c, block_bytes)
        });
        let stages = ts.num_unique_stages() as u64;
        self.record(Cache::Price { stages }, outcome);
        Some(total)
    }

    /// Simulated latency of one non-hierarchical `MPI_Allgather` with
    /// per-rank message size `msg_bytes`, under `scheme`. Algorithm selection
    /// follows MVAPICH (recursive doubling below 1 KiB, ring above).
    pub fn allgather_time(&mut self, msg_bytes: u64, scheme: Scheme) -> f64 {
        let p = self.size() as u32;
        let alg = select_allgather(p, msg_bytes);
        match scheme {
            Scheme::Default => self
                .priced_time(SchedKey::Flat(alg), CommKey::Default, msg_bytes)
                .expect("flat schedules are always available"),
            Scheme::Reordered { mapper, fix } => {
                let pattern = PatternKind::of_alg(alg);
                // The ring stores blocks in place: no fix cost (§V-B).
                let key = match (alg, fix) {
                    (AllgatherAlg::Ring, _) => SchedKey::Flat(alg),
                    (_, OrderFix::InitComm) => SchedKey::FlatInit(alg, mapper),
                    (_, OrderFix::EndShuffle | OrderFix::InPlace) => SchedKey::Flat(alg),
                };
                let t = self
                    .priced_time(key, CommKey::Reordered(mapper, pattern), msg_bytes)
                    .expect("flat mappings are always available");
                if alg != AllgatherAlg::Ring && fix == OrderFix::EndShuffle {
                    t + self.core.cfg.net.memcpy.shuffle_time(p as usize, msg_bytes)
                } else {
                    t
                }
            }
        }
    }

    /// Simulated latency of one hierarchical `MPI_Allgather`; `None` when the
    /// layout is not node-contiguous (cyclic — unsupported, as in the paper)
    /// or the configuration is otherwise unsupported.
    pub fn hierarchical_allgather_time(
        &mut self,
        msg_bytes: u64,
        hcfg: HierarchicalConfig,
        scheme: Scheme,
    ) -> Option<f64> {
        let p = self.size() as u32;
        let leaders = self.core.node_groups()?.len();
        if hcfg.inter == InterAlg::RecursiveDoubling && !leaders.is_power_of_two() {
            return None;
        }
        match scheme {
            Scheme::Default => {
                let key = SchedKey::Hier(hcfg.inter, hcfg.intra, None);
                self.priced_time(key, CommKey::Default, msg_bytes)
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
                let t = self.priced_time(key, CommKey::Reordered(mapper, pattern), msg_bytes)?;
                Some(if fix == OrderFix::EndShuffle {
                    t + self.core.cfg.net.memcpy.shuffle_time(p as usize, msg_bytes)
                } else {
                    t
                })
            }
        }
    }

    /// The selected flat allgather and its per-stage traffic under `scheme`,
    /// classified on the cached compiled schedule.
    fn flat_traffic_stages(
        &mut self,
        msg_bytes: u64,
        scheme: Scheme,
    ) -> (AllgatherAlg, Vec<TrafficBreakdown>) {
        let alg = select_allgather(self.size() as u32, msg_bytes);
        let ts = self
            .sched(SchedKey::Flat(alg))
            .expect("flat schedules are always available");
        let comm = match scheme {
            Scheme::Default => None,
            Scheme::Reordered { mapper, .. } => Some(
                self.reordered_comm(mapper, PatternKind::of_alg(alg))
                    .expect("flat mappings are always available"),
            ),
        };
        let c = comm.as_deref().unwrap_or(self.comm());
        let stages = ts.traffic_breakdown_stages(c, self.cluster(), msg_bytes);
        (alg, stages)
    }

    /// Traffic breakdown (bytes per channel class) of the non-hierarchical
    /// allgather under `scheme` — the paper's mechanism made observable:
    /// reordering shifts bytes from the network into nodes and sockets. The
    /// field-wise sum of [`Session::allgather_traffic_stages`], without its
    /// trace instant.
    pub fn allgather_traffic(&mut self, msg_bytes: u64, scheme: Scheme) -> TrafficBreakdown {
        let (_, stages) = self.flat_traffic_stages(msg_bytes, scheme);
        let mut total = TrafficBreakdown::default();
        stages.iter().for_each(|tb| total.accumulate(tb));
        total
    }

    /// Per-stage traffic breakdowns of the non-hierarchical allgather under
    /// `scheme` — one [`TrafficBreakdown`] per schedule stage, in
    /// execution order. Reuses the compiled schedule from the cache (each
    /// unique stage is classified once), so a ring at 65,536 ranks costs
    /// O(P) rather than O(P²). Emits a bounded `session.traffic` instant
    /// (whole-schedule totals plus the heaviest-stage index) when tracing is
    /// enabled; the returned vector always carries the full profile.
    pub fn allgather_traffic_stages(
        &mut self,
        msg_bytes: u64,
        scheme: Scheme,
    ) -> Vec<TrafficBreakdown> {
        let (alg, stages) = self.flat_traffic_stages(msg_bytes, scheme);
        if tarr_trace::enabled() {
            let mut total = TrafficBreakdown::default();
            let mut worst = (0usize, 0u64);
            for (i, tb) in stages.iter().enumerate() {
                total.accumulate(tb);
                if tb.network() >= worst.1 {
                    worst = (i, tb.network());
                }
            }
            tarr_trace::instant("session.traffic")
                .arg("alg", alg.name())
                .arg("msg_bytes", msg_bytes)
                .arg("stages", stages.len())
                .arg("intra_socket", total.intra_socket)
                .arg("qpi", total.qpi)
                .arg("same_leaf", total.same_leaf)
                .arg("cross_leaf", total.cross_leaf)
                .arg("worst_stage", worst.0)
                .arg("worst_stage_network", worst.1)
                .emit();
        }
        stages
    }

    /// Simulated latency of an `MPI_Allgatherv` with per-rank contribution
    /// sizes `sizes[rank]` (bytes, indexed by **original** rank). Uses the
    /// ring algorithm — the standard allgatherv choice — so reordering needs
    /// no §V-B fix (in-place placement) and the RMH mapping applies. Priced
    /// by [`tarr_mpi::ring_allgatherv_time`] over the cached ring
    /// communicator, in O(P) memory.
    pub fn allgatherv_time(&mut self, sizes: &[u64], scheme: Scheme) -> f64 {
        assert_eq!(sizes.len(), self.size(), "one size per rank");
        let Scheme::Reordered { mapper, .. } = scheme else {
            return tarr_mpi::ring_allgatherv_time(self.comm(), &self.core.model(), sizes);
        };
        let comm = self
            .reordered_comm(mapper, PatternKind::Ring)
            .expect("flat mappings are always available");
        let info = self
            .mapping(mapper, PatternKind::Ring)
            .expect("ring mapping exists once the communicator does");
        // Block `b` of the reordered communicator is the contribution of
        // original rank `m[b]`.
        let permuted: Vec<u64> = info
            .mapping
            .iter()
            .map(|&old| sizes[old as usize])
            .collect();
        tarr_mpi::ring_allgatherv_time(&comm, &self.core.model(), &permuted)
    }

    /// The paper's §VII *adaptive* proposal: a runtime component predicts,
    /// per message size, whether the reordered communicator would beat the
    /// default, and only switches when it wins by more than `threshold`
    /// (fractional; 0.0 = any predicted win). Returns the chosen scheme and
    /// its latency. Predictions are the model timings themselves, cached per
    /// (pattern, size decision) by the mapping cache as usual.
    pub fn adaptive_allgather(
        &mut self,
        msg_bytes: u64,
        mapper: Mapper,
        fix: OrderFix,
        threshold: f64,
    ) -> (Scheme, f64) {
        let default_t = self.allgather_time(msg_bytes, Scheme::Default);
        let scheme = Scheme::Reordered { mapper, fix };
        let reordered_t = self.allgather_time(msg_bytes, scheme);
        if reordered_t < default_t * (1.0 - threshold) {
            (scheme, reordered_t)
        } else {
            (Scheme::Default, default_t)
        }
    }

    /// Simulated latency of an `MPI_Allreduce` of a `vector_bytes`-byte
    /// vector — the paper's future-work extension. Both algorithms share the
    /// recursive-doubling XOR pattern, so reordering uses the RDMH mapping;
    /// allreduce output is identical on every rank, so no §V-B ordering
    /// machinery is needed.
    ///
    /// # Panics
    /// Panics unless the communicator size is a power of two.
    pub fn allreduce_time(&mut self, vector_bytes: u64, rabenseifner: bool, scheme: Scheme) -> f64 {
        let key = SchedKey::allreduce(rabenseifner);
        self.priced_time(key, scalar_comm(scheme, PatternKind::Rd), vector_bytes)
            .expect("allreduce needs a power-of-two communicator")
    }

    /// Simulated latency of a binomial `MPI_Bcast` of `bytes` from rank 0 —
    /// the BBMH use case.
    pub fn bcast_time(&mut self, bytes: u64, scheme: Scheme) -> f64 {
        let ck = scalar_comm(scheme, PatternKind::BinomialBcast);
        self.priced_time(SchedKey::Bcast, ck, bytes)
            .expect("flat mappings are always available")
    }

    /// Simulated latency of a binomial `MPI_Gather` of `msg_bytes` per rank
    /// to rank 0 — the BGMH use case.
    pub fn gather_time(&mut self, msg_bytes: u64, scheme: Scheme) -> f64 {
        let p = self.size() as u32;
        match scheme {
            Scheme::Default => self
                .priced_time(SchedKey::Gather, CommKey::Default, msg_bytes)
                .expect("the gather schedule is always available"),
            Scheme::Reordered { mapper, fix } => {
                let key = match fix {
                    OrderFix::InitComm => SchedKey::GatherInit(mapper),
                    OrderFix::EndShuffle | OrderFix::InPlace => SchedKey::Gather,
                };
                let ck = CommKey::Reordered(mapper, PatternKind::BinomialGather);
                let t = self
                    .priced_time(key, ck, msg_bytes)
                    .expect("flat mappings are always available");
                if fix == OrderFix::EndShuffle {
                    // Only the root shuffles its gathered buffer.
                    t + self.core.cfg.net.memcpy.shuffle_time(p as usize, msg_bytes)
                } else {
                    t
                }
            }
        }
    }

    /// Functionally execute a non-hierarchical allgather under `scheme` and
    /// check that every rank ends with all blocks in **original-rank order**
    /// (the §V-B guarantee). Intended for tests and examples.
    pub fn verify_allgather(&mut self, msg_bytes: u64, scheme: Scheme) -> Result<(), String> {
        let p = self.size() as u32;
        let alg = select_allgather(p, msg_bytes);
        match scheme {
            Scheme::Default => {
                let mut st = FunctionalState::init_allgather(p as usize);
                st.run(&alg.schedule(p)).map_err(|e| e.to_string())?;
                st.verify_allgather_identity()
            }
            Scheme::Reordered { mapper, fix } => {
                let pattern = PatternKind::of_alg(alg);
                let info = self.mapping(mapper, pattern).ok_or(UNSUPPORTED)?;
                let m = &info.mapping;
                match alg {
                    AllgatherAlg::Ring => {
                        let sched = tarr_collectives::allgather::ring_with_placement(
                            p,
                            Some(&ring_placement(m)),
                        );
                        let mut st = reorder::reordered_init_state(m, true);
                        st.run(&sched).map_err(|e| e.to_string())?;
                        st.verify_allgather_identity()
                    }
                    _ => match fix {
                        OrderFix::InitComm => {
                            let sched = init_comm_schedule(m).then(alg.schedule(p));
                            let mut st = reorder::reordered_init_state(m, false);
                            st.run(&sched).map_err(|e| e.to_string())?;
                            st.verify_allgather_identity()
                        }
                        OrderFix::EndShuffle => {
                            let mut st = reorder::reordered_init_state(m, false);
                            st.run(&alg.schedule(p)).map_err(|e| e.to_string())?;
                            st.shuffle_outputs(&end_shuffle_perm(m));
                            st.verify_allgather_identity()
                        }
                        OrderFix::InPlace => {
                            Err("in-place fix is only valid for the ring algorithm".into())
                        }
                    },
                }
            }
        }
    }

    /// Functionally execute the binomial broadcast under `scheme` and check
    /// that every rank receives the payload (reordering renames ranks but
    /// must not lose anyone).
    pub fn verify_bcast(&mut self, scheme: Scheme) -> Result<(), String> {
        let p = self.size() as u32;
        let sched = tarr_collectives::bcast::binomial_bcast(p, Rank(0), 1);
        let mut st = FunctionalState::init_raw(p as usize, Rank(0));
        match scheme {
            Scheme::Default => {}
            Scheme::Reordered { mapper, .. } => {
                // Reordering changes which *process* is rank 0; the schedule
                // is unchanged, so functional coverage is the same — but the
                // mapping must still be a valid permutation to build it.
                self.reordered_comm(mapper, PatternKind::BinomialBcast)
                    .ok_or(UNSUPPORTED)?;
            }
        }
        st.run(&sched).map_err(|e| e.to_string())?;
        st.verify_bcast()
    }

    /// Functionally execute the binomial gather under `scheme` and check the
    /// root ends with every block in original-rank order.
    pub fn verify_gather(&mut self, scheme: Scheme) -> Result<(), String> {
        let p = self.size() as u32;
        let sched = binomial_gather(p, Rank(0));
        let expected: Vec<u32> = (0..p).collect();
        match scheme {
            Scheme::Default => {
                let mut st = FunctionalState::init_allgather(p as usize);
                st.run(&sched).map_err(|e| e.to_string())?;
                st.verify_gather_at(Rank(0), &expected)
            }
            Scheme::Reordered { mapper, fix } => {
                let info = self
                    .mapping(mapper, PatternKind::BinomialGather)
                    .ok_or(UNSUPPORTED)?;
                let m = &info.mapping;
                let mut st = reorder::reordered_init_state(m, false);
                match fix {
                    OrderFix::InitComm => {
                        st.run(&init_comm_schedule(m).then(sched))
                            .map_err(|e| e.to_string())?;
                        // Root is the process with *new* rank 0.
                        st.verify_gather_at(Rank(0), &expected)
                    }
                    OrderFix::EndShuffle => {
                        st.run(&sched).map_err(|e| e.to_string())?;
                        st.shuffle_outputs(&end_shuffle_perm(m));
                        st.verify_gather_at(Rank(0), &expected)
                    }
                    OrderFix::InPlace => {
                        Err("in-place fix is unavailable for binomial gather".into())
                    }
                }
            }
        }
    }

    /// Functionally execute a hierarchical allgather under `scheme` and
    /// verify original-rank output order. `None` when unsupported.
    pub fn verify_hierarchical_allgather(
        &mut self,
        hcfg: HierarchicalConfig,
        scheme: Scheme,
    ) -> Option<Result<(), String>> {
        let p = self.size() as u32;
        let core = Arc::clone(&self.core);
        let groups = core.node_groups()?;
        if hcfg.inter == InterAlg::RecursiveDoubling && !groups.len().is_power_of_two() {
            return None;
        }
        Some(match scheme {
            Scheme::Default => {
                let mut st = FunctionalState::init_allgather(p as usize);
                match st.run(&hierarchical(p, groups, hcfg)) {
                    Ok(()) => st.verify_allgather_identity(),
                    Err(e) => Err(e.to_string()),
                }
            }
            Scheme::Reordered { mapper, fix } => {
                if !matches!(mapper, Mapper::Hrstc | Mapper::ScotchLike) {
                    return None;
                }
                let info = self.mapping(mapper, PatternKind::Hier(hcfg.inter, hcfg.intra))?;
                let m = &info.mapping;
                let new_groups = reordered_groups(groups, m);
                let sched = hierarchical(p, &new_groups, hcfg);
                let mut st = reorder::reordered_init_state(m, false);
                let run = match fix {
                    OrderFix::InitComm => st.run(&init_comm_schedule(m).then(sched)),
                    OrderFix::EndShuffle | OrderFix::InPlace => st.run(&sched),
                };
                match run {
                    Ok(()) => {
                        if fix == OrderFix::EndShuffle {
                            st.shuffle_outputs(&end_shuffle_perm(m));
                        }
                        if fix == OrderFix::InPlace {
                            // Hierarchical gather needs contiguous blocks;
                            // in-place placement is not available.
                            return Some(Err(
                                "in-place fix is unavailable for hierarchical allgather".into(),
                            ));
                        }
                        st.verify_allgather_identity()
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        })
    }
}

/// The error a `verify_*` call returns for an unsupported mapper/pattern.
const UNSUPPORTED: &str = "unsupported mapper/pattern configuration";

/// The communicator key a broadcast or allreduce prices over under
/// `scheme`. Their output is the same buffer on every rank, so reordering
/// needs no §V-B ordering machinery: the reordered communicator of
/// `pattern`'s mapping is used as is, whatever the fix.
fn scalar_comm(scheme: Scheme, pattern: PatternKind) -> CommKey {
    match scheme {
        Scheme::Default => CommKey::Default,
        Scheme::Reordered { mapper, .. } => CommKey::Reordered(mapper, pattern),
    }
}

/// Compute the mapping for one (mapper, pattern) pair over the core's
/// distance oracle. `None` = unsupported configuration.
fn compute_mapping(
    core: &SessionCore,
    mapper: Mapper,
    pattern: PatternKind,
) -> Option<MappingInfo> {
    let (d, cluster, comm) = (&*core.d, &core.cluster, &core.comm);
    let p = comm.size() as u32;
    let seed = core.cfg.seed;
    // Recursive doubling pairs ranks by XOR: every topology-aware mapper
    // needs a power-of-two process count for it. The MVAPICH reorder reads
    // no pattern.
    if pattern == PatternKind::Rd && !p.is_power_of_two() && mapper != Mapper::MvapichCyclic {
        return None;
    }
    match mapper {
        Mapper::Hrstc => {
            let (mapping, compute) = timed_compute(mapper, p, || {
                Some(match pattern {
                    // The fine-tuned heuristics run in their bucketed O(P·L)
                    // form, proven bit-identical to the linear-scan
                    // reference by the equivalence suites in tarr-mapping.
                    PatternKind::Rd => rdmh_bucketed(d, seed),
                    // On torus fabrics the ring embeds exactly along the
                    // snake (Hamiltonian) order; the greedy RMH chain can
                    // strand itself on flat mesh geometry, so the
                    // fabric-specialized mapping is preferred when available.
                    PatternKind::Ring => {
                        torus_snake_mapping(cluster, comm).unwrap_or_else(|| rmh_bucketed(d, seed))
                    }
                    PatternKind::Bruck => bkmh_bucketed(d, seed),
                    PatternKind::BinomialBcast => bbmh_bucketed(d, seed),
                    PatternKind::BinomialGather => bgmh_bucketed(d, seed),
                    PatternKind::Hier(inter, intra) => {
                        let groups = core.node_groups()?;
                        hierarchical_mapping(d, groups, inter, intra, HierMapper::Heuristic, seed)?
                    }
                })
            })?;
            Some(MappingInfo {
                mapping,
                compute,
                graph_build: Duration::ZERO,
            })
        }
        Mapper::ScotchLike | Mapper::ScotchTuned => match pattern {
            PatternKind::Hier(inter, intra) => {
                let groups = core.node_groups()?;
                let (mapping, compute) = timed_compute(mapper, p, || {
                    hierarchical_mapping(d, groups, inter, intra, HierMapper::ScotchLike, seed)
                })?;
                Some(MappingInfo {
                    mapping,
                    compute,
                    graph_build: Duration::ZERO,
                })
            }
            _ => {
                let sched = flat_schedule(pattern, p);
                let tg = tarr_trace::timed_span("session.mapping.graph_build").arg("p", p);
                let (graph, variant) = if mapper == Mapper::ScotchLike {
                    (
                        pattern_graph_unweighted(&sched),
                        ScotchVariant::PaperDefault,
                    )
                } else {
                    (pattern_graph(&sched, 1), ScotchVariant::Tuned)
                };
                let graph_build = tg.finish();
                let (mapping, compute) = timed_compute(mapper, p, || {
                    Some(scotch_like_map_with(&graph, d, seed, variant))
                })?;
                Some(MappingInfo {
                    mapping,
                    compute,
                    graph_build,
                })
            }
        },
        Mapper::Greedy => {
            let sched = flat_schedule(pattern, p);
            let tg = tarr_trace::timed_span("session.mapping.graph_build").arg("p", p);
            let graph = pattern_graph(&sched, 1);
            let graph_build = tg.finish();
            let (mapping, compute) = timed_compute(mapper, p, || Some(greedy_map(&graph, d)))?;
            Some(MappingInfo {
                mapping,
                compute,
                graph_build,
            })
        }
        Mapper::MvapichCyclic => {
            let (mapping, compute) = timed_compute(mapper, p, || {
                Some(mvapich_cyclic_reorder(p as usize, cluster.cores_per_node()))
            })?;
            Some(MappingInfo {
                mapping,
                compute,
                graph_build: Duration::ZERO,
            })
        }
    }
}

/// Run one mapping computation under a `session.mapping.compute` span,
/// returning the mapping and its measured wall-clock cost — the single
/// timing site that [`compute_mapping`]'s arms all share (each used to carry
/// its own `Instant` pair). The duration is measured whether or not tracing
/// is enabled, since [`MappingInfo`] reports it unconditionally.
fn timed_compute(
    mapper: Mapper,
    p: u32,
    f: impl FnOnce() -> Option<Vec<u32>>,
) -> Option<(Vec<u32>, Duration)> {
    let sp = tarr_trace::timed_span("session.mapping.compute")
        .arg("mapper", mapper.name())
        .arg("p", p);
    let mapping = f();
    let compute = sp.finish();
    mapping.map(|m| (m, compute))
}

/// The snake ring mapping for full-allocation torus jobs: consecutive
/// new ranks walk whole nodes along the boustrophedon Hamiltonian path,
/// so every ring edge is intra-node or one torus hop. `None` when the
/// fabric is not a torus or the job does not cover whole nodes.
fn torus_snake_mapping(cluster: &Cluster, comm: &Communicator) -> Option<Vec<u32>> {
    let torus = cluster.fabric().as_torus()?;
    let cpn = cluster.cores_per_node();
    if comm.size() != cluster.total_cores() {
        return None;
    }
    let mut m = Vec::with_capacity(comm.size());
    for node in torus.snake_order() {
        for local in 0..cpn {
            let core = cluster.core_id(node, local);
            let slot = comm.rank_of_core(core)?;
            m.push(slot.0);
        }
    }
    debug_assert!(tarr_mapping::is_permutation(&m));
    Some(m)
}

fn flat_schedule(pattern: PatternKind, p: u32) -> Schedule {
    match pattern {
        PatternKind::Rd => AllgatherAlg::RecursiveDoubling.schedule(p),
        PatternKind::Ring => AllgatherAlg::Ring.schedule(p),
        PatternKind::Bruck => AllgatherAlg::Bruck.schedule(p),
        PatternKind::BinomialBcast => tarr_collectives::bcast::binomial_bcast(p, Rank(0), 1),
        PatternKind::BinomialGather => binomial_gather(p, Rank(0)),
        PatternKind::Hier(..) => unreachable!("hierarchical handled separately"),
    }
}

/// Mirror one lookup onto the `session.cache.*` trace counters (and, for a
/// price, the `session.price.stages_*` counters).
fn trace_lookup(cache: Cache, outcome: Lookup) {
    match (cache, outcome) {
        (Cache::Mapping, Lookup::Hit) => tarr_trace::counter_add!("session.cache.mapping.hit", 1),
        (Cache::Mapping, Lookup::Miss) => tarr_trace::counter_add!("session.cache.mapping.miss", 1),
        (Cache::Mapping, Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.cache.mapping.coalesce", 1)
        }
        (Cache::Comm, Lookup::Hit) => tarr_trace::counter_add!("session.cache.comm.hit", 1),
        (Cache::Comm, Lookup::Miss) => tarr_trace::counter_add!("session.cache.comm.miss", 1),
        (Cache::Comm, Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.cache.comm.coalesce", 1)
        }
        (Cache::Sched, Lookup::Hit) => tarr_trace::counter_add!("session.cache.sched.hit", 1),
        (Cache::Sched, Lookup::Miss) => tarr_trace::counter_add!("session.cache.sched.miss", 1),
        (Cache::Sched, Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.cache.sched.coalesce", 1)
        }
        (Cache::Price { .. }, Lookup::Hit) => {
            tarr_trace::counter_add!("session.cache.price.hit", 1)
        }
        (Cache::Price { .. }, Lookup::Miss) => {
            tarr_trace::counter_add!("session.cache.price.miss", 1)
        }
        (Cache::Price { .. }, Lookup::Coalesced) => {
            tarr_trace::counter_add!("session.cache.price.coalesce", 1)
        }
    }
    if let Cache::Price { stages } = cache {
        if outcome == Lookup::Miss {
            tarr_trace::counter_add!("session.price.stages_computed", stages);
        } else {
            tarr_trace::counter_add!("session.price.stages_reused", stages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(layout: InitialMapping, nodes: usize) -> Session {
        let cluster = Cluster::gpc(nodes);
        let p = cluster.total_cores();
        Session::from_layout(cluster, layout, p, SessionConfig::default())
    }

    #[test]
    fn reordering_helps_cyclic_ring() {
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 8);
        let msg = 64 * 1024;
        let before = s.allgather_time(msg, Scheme::Default);
        let after = s.allgather_time(msg, Scheme::hrstc(OrderFix::InitComm));
        assert!(after < 0.7 * before, "before {before} after {after}");
    }

    #[test]
    fn no_degradation_on_block_bunch_ring() {
        let mut s = session(InitialMapping::BLOCK_BUNCH, 8);
        let msg = 64 * 1024;
        let before = s.allgather_time(msg, Scheme::Default);
        let after = s.allgather_time(msg, Scheme::hrstc(OrderFix::InitComm));
        assert!(after <= before * 1.0001, "before {before} after {after}");
    }

    #[test]
    fn rdmh_helps_block_bunch_small_messages() {
        let mut s = session(InitialMapping::BLOCK_BUNCH, 16);
        let msg = 512; // RD region
        let before = s.allgather_time(msg, Scheme::Default);
        let after = s.allgather_time(msg, Scheme::hrstc(OrderFix::InitComm));
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn mapping_is_cached() {
        let mut s = session(InitialMapping::BLOCK_BUNCH, 4);
        let a = s
            .mapping(Mapper::Hrstc, PatternKind::Ring)
            .unwrap()
            .mapping
            .clone();
        let b = s
            .mapping(Mapper::Hrstc, PatternKind::Ring)
            .unwrap()
            .mapping
            .clone();
        assert_eq!(a, b);
        assert_eq!(s.core.mappings.len(), 1);
    }

    #[test]
    fn reordered_comm_and_schedule_are_cached() {
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 4);
        let scheme = Scheme::hrstc(OrderFix::InitComm);
        let a = s.allgather_time(512, scheme);
        assert_eq!(s.core.comms.len(), 1);
        let n_scheds = s.core.scheds.len();
        // A second size in the same (RD) region reuses both caches.
        let b = s.allgather_time(768, scheme);
        assert_eq!(s.core.comms.len(), 1);
        assert_eq!(s.core.scheds.len(), n_scheds);
        assert!(a > 0.0 && b > a, "monotone in size: {a} vs {b}");
    }

    #[test]
    fn cache_stats_track_figure_sweep() {
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 4);
        assert_eq!(s.cache_stats(), CacheStats::default());
        let scheme = Scheme::hrstc(OrderFix::InitComm);
        // A figure-sweep shape: three sizes in the RD region, both schemes.
        for msg in [512u64, 640, 768] {
            s.allgather_time(msg, Scheme::Default);
            s.allgather_time(msg, scheme);
        }
        let st = s.cache_stats();
        // One RD mapping computed (first reordered call), then re-read when
        // the initComm-prefixed schedule is compiled.
        assert_eq!(st.mapping_misses, 1);
        assert_eq!(st.mapping_hits, 1);
        // One reordered communicator built, reused for the other two sizes.
        assert_eq!(st.comm_misses, 1);
        assert_eq!(st.comm_hits, 2);
        // Two schedules compiled (plain RD, initComm+RD); the remaining four
        // lookups hit — a 2/3 hit ratio across the sweep.
        assert_eq!(st.sched_misses, 2);
        assert_eq!(st.sched_hits, 4);
    }

    #[test]
    fn traffic_stages_sum_to_whole() {
        // 8192 GPC nodes = 65,536 ranks at 64 KiB select the ring, whose
        // materialized form has 4.3·10⁹ ops: the whole-schedule breakdown
        // must come from the compiled O(P) schedule too.
        for (nodes, msgs) in [(4, &[512u64, 65536][..]), (8192, &[65536][..])] {
            let mut s = session(InitialMapping::CYCLIC_BUNCH, nodes);
            let p = s.size() as u64;
            for scheme in [
                Scheme::Default,
                Scheme::hrstc(OrderFix::InitComm),
                Scheme::hrstc(OrderFix::InPlace),
            ] {
                for &msg in msgs {
                    let whole = s.allgather_traffic(msg, scheme);
                    assert_eq!(whole.total(), p * (p - 1) * msg, "{p} {msg} {scheme:?}");
                    let stages = s.allgather_traffic_stages(msg, scheme);
                    assert!(!stages.is_empty());
                    let mut sum = TrafficBreakdown::default();
                    for tb in &stages {
                        sum.accumulate(tb);
                    }
                    assert_eq!(sum, whole, "{p} {msg} {scheme:?}");
                }
            }
        }
    }

    #[test]
    fn functional_verification_all_schemes() {
        let mut s = session(InitialMapping::CYCLIC_SCATTER, 4);
        for msg in [64u64, 4096] {
            s.verify_allgather(msg, Scheme::Default).unwrap();
            for mapper in [
                Mapper::Hrstc,
                Mapper::ScotchLike,
                Mapper::Greedy,
                Mapper::MvapichCyclic,
            ] {
                for fix in [OrderFix::InitComm, OrderFix::EndShuffle] {
                    s.verify_allgather(msg, Scheme::Reordered { mapper, fix })
                        .unwrap_or_else(|e| panic!("{mapper:?}/{fix:?}/{msg}: {e}"));
                }
            }
        }
    }

    #[test]
    fn hierarchical_unsupported_for_cyclic() {
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 4);
        let hcfg = HierarchicalConfig {
            intra: IntraPattern::Binomial,
            inter: InterAlg::Ring,
        };
        assert!(s
            .hierarchical_allgather_time(1024, hcfg, Scheme::Default)
            .is_none());
    }

    #[test]
    fn hierarchical_verification() {
        let mut s = session(InitialMapping::BLOCK_SCATTER, 4);
        for intra in [IntraPattern::Linear, IntraPattern::Binomial] {
            for inter in [InterAlg::RecursiveDoubling, InterAlg::Ring] {
                let hcfg = HierarchicalConfig { intra, inter };
                s.verify_hierarchical_allgather(hcfg, Scheme::Default)
                    .unwrap()
                    .unwrap();
                for fix in [OrderFix::InitComm, OrderFix::EndShuffle] {
                    s.verify_hierarchical_allgather(hcfg, Scheme::hrstc(fix))
                        .unwrap()
                        .unwrap_or_else(|e| panic!("{intra:?}/{inter:?}/{fix:?}: {e}"));
                }
            }
        }
    }

    #[test]
    fn hierarchical_reordering_helps_block_scatter() {
        let mut s = session(InitialMapping::BLOCK_SCATTER, 8);
        let hcfg = HierarchicalConfig {
            intra: IntraPattern::Binomial,
            inter: InterAlg::Ring,
        };
        let msg = 16 * 1024;
        let before = s
            .hierarchical_allgather_time(msg, hcfg, Scheme::Default)
            .unwrap();
        let after = s
            .hierarchical_allgather_time(msg, hcfg, Scheme::hrstc(OrderFix::InitComm))
            .unwrap();
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn bcast_and_gather_reordering() {
        let mut s = session(InitialMapping::CYCLIC_SCATTER, 8);
        let before = s.bcast_time(4096, Scheme::Default);
        let after = s.bcast_time(4096, Scheme::hrstc(OrderFix::InPlace));
        assert!(after <= before, "bcast before {before} after {after}");

        // Gather: BGMH provably lowers the weighted-distance objective on an
        // adversarial (random) layout. Note it is distance-greedy and
        // contention-blind: clustering the tree hubs around the root fans the
        // mid-stage flows into one region, so the *timed* standalone gather
        // need not improve — the paper only deploys BGMH inside nodes, and
        // congestion-aware mapping is its stated future work.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let cluster = Cluster::gpc(8);
        let mut cores: Vec<_> = cluster.cores().collect();
        cores.shuffle(&mut rand::rngs::StdRng::seed_from_u64(17));
        let mut s = Session::new(cluster, cores, SessionConfig::default());
        let info = s
            .mapping(Mapper::Hrstc, PatternKind::BinomialGather)
            .unwrap();
        let g = pattern_graph(&binomial_gather(64, Rank(0)), 8192);
        let ident: Vec<u32> = (0..64).collect();
        let d = tarr_topo::DistanceMatrix::build(s.cluster(), s.comm().cores(), &s.core.cfg.dist);
        let before = tarr_mapping::mapping_cost(&g, &d, &ident);
        let after = tarr_mapping::mapping_cost(&g, &d, &info.mapping);
        assert!(after < before, "gather cost before {before} after {after}");
        // The order-preserving fixes always add (non-negative) overhead.
        let mapped = s.gather_time(8192, Scheme::hrstc(OrderFix::InPlace));
        let with_fix = s.gather_time(8192, Scheme::hrstc(OrderFix::InitComm));
        assert!(with_fix >= mapped, "fix cannot be free");
    }

    #[test]
    fn allgatherv_reordering_helps_cyclic() {
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 8);
        // Skewed sizes: a handful of heavy contributors.
        let sizes: Vec<u64> = (0..64u64)
            .map(|r| if r % 8 == 0 { 65536 } else { 64 })
            .collect();
        let b = s.allgatherv_time(&sizes, Scheme::Default);
        let r = s.allgatherv_time(&sizes, Scheme::hrstc(OrderFix::InPlace));
        assert!(r < b, "allgatherv cyclic: {b} -> {r}");
    }

    #[test]
    fn allgatherv_uniform_matches_allgather_ring() {
        let mut s = session(InitialMapping::BLOCK_BUNCH, 4);
        let sizes = vec![65536u64; 32];
        let v = s.allgatherv_time(&sizes, Scheme::Default);
        let a = s.allgather_time(65536, Scheme::Default); // ring regime
        assert!((v - a).abs() / a < 1e-12, "v {v} a {a}");
    }

    #[test]
    fn adaptive_never_loses_to_either_choice() {
        // On block-bunch the ring region has nothing to gain: the adaptive
        // runtime must stick with the default there and switch in the RD
        // region where reordering wins.
        let mut s = session(InitialMapping::BLOCK_BUNCH, 8);
        let (scheme, t) = s.adaptive_allgather(512, Mapper::Hrstc, OrderFix::InitComm, 0.0);
        assert!(matches!(scheme, Scheme::Reordered { .. }));
        assert!(t <= s.allgather_time(512, Scheme::Default));

        let (scheme, t) = s.adaptive_allgather(65536, Mapper::Hrstc, OrderFix::InitComm, 0.0);
        // Ring on block-bunch: tie — default retained (no pointless switch).
        assert_eq!(scheme, Scheme::Default);
        assert!(t <= s.allgather_time(65536, Scheme::hrstc(OrderFix::InitComm)) * 1.0001);

        // A Scotch mapping that would hurt must be rejected.
        let (scheme, _) = s.adaptive_allgather(65536, Mapper::ScotchLike, OrderFix::InitComm, 0.0);
        assert_eq!(scheme, Scheme::Default);
    }

    #[test]
    fn adaptive_threshold_demands_margin() {
        let mut s = session(InitialMapping::BLOCK_SCATTER, 8);
        // block-scatter ring gains ~30-40%; a 90% threshold is unreachable.
        let (scheme, _) = s.adaptive_allgather(65536, Mapper::Hrstc, OrderFix::InitComm, 0.9);
        assert_eq!(scheme, Scheme::Default);
        let (scheme, _) = s.adaptive_allgather(65536, Mapper::Hrstc, OrderFix::InitComm, 0.05);
        assert!(matches!(scheme, Scheme::Reordered { .. }));
    }

    #[test]
    fn allreduce_times_are_positive_and_rabenseifner_wins_large() {
        let mut s = session(InitialMapping::BLOCK_BUNCH, 8);
        let v = 1 << 20;
        let rd = s.allreduce_time(v, false, Scheme::Default);
        let rab = s.allreduce_time(v, true, Scheme::Default);
        assert!(rd > 0.0 && rab > 0.0);
        assert!(
            rab < rd,
            "rabenseifner {rab} must beat rd {rd} for large vectors"
        );
        // Reordering reuses the RD mapping and changes the time.
        let r = s.allreduce_time(v, true, Scheme::hrstc(OrderFix::InitComm));
        assert!(r.is_finite() && r > 0.0);
    }

    #[test]
    fn bruck_uses_bkmh_and_improves_cyclic() {
        // 24 ranks (non-power-of-two) on a cyclic layout, small message.
        let cluster = Cluster::gpc(3);
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::CYCLIC_BUNCH,
            24,
            SessionConfig::default(),
        );
        let b = s.allgather_time(256, Scheme::Default);
        let r = s.allgather_time(256, Scheme::hrstc(OrderFix::InitComm));
        assert!(r < b, "bkmh should help cyclic bruck: {b} -> {r}");
        s.verify_allgather(256, Scheme::hrstc(OrderFix::InitComm))
            .unwrap();
    }

    #[test]
    fn bcast_and_gather_verification() {
        let mut s = session(InitialMapping::CYCLIC_SCATTER, 4);
        s.verify_bcast(Scheme::Default).unwrap();
        s.verify_bcast(Scheme::hrstc(OrderFix::InPlace)).unwrap();
        s.verify_gather(Scheme::Default).unwrap();
        for fix in [OrderFix::InitComm, OrderFix::EndShuffle] {
            s.verify_gather(Scheme::hrstc(fix))
                .unwrap_or_else(|e| panic!("{fix:?}: {e}"));
        }
        assert!(s.verify_gather(Scheme::hrstc(OrderFix::InPlace)).is_err());
    }

    #[test]
    fn snake_mapping_only_on_full_torus_allocations() {
        // Fat-tree: no snake; falls back to RMH (permutation fixing rank 0).
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 4);
        let m = s
            .mapping(Mapper::Hrstc, PatternKind::Ring)
            .unwrap()
            .mapping
            .clone();
        assert_eq!(m[0], 0, "RMH fixes rank 0");

        // Full torus allocation: the snake is used (covers all nodes in
        // snake order; new rank 0 need not be slot 0).
        let cluster = tarr_topo::Cluster::with_torus(tarr_topo::NodeTopology::gpc(), [2, 2, 2]);
        let p = cluster.total_cores();
        let mut t = Session::from_layout(
            cluster,
            InitialMapping::CYCLIC_BUNCH,
            p,
            SessionConfig::default(),
        );
        let m = t
            .mapping(Mapper::Hrstc, PatternKind::Ring)
            .unwrap()
            .mapping
            .clone();
        assert!(tarr_mapping::is_permutation(&m));
        // Consecutive new ranks within the first node share that node.
        let cores: Vec<_> = (0..8)
            .map(|r| t.comm().reordered(&m).core_of(Rank(r)))
            .collect();
        let node0 = t.cluster().node_of(cores[0]);
        assert!(cores.iter().all(|&c| t.cluster().node_of(c) == node0));
        // Functional correctness holds through the snake path too.
        t.verify_allgather(65536, Scheme::hrstc(OrderFix::InitComm))
            .unwrap();
    }

    #[test]
    fn overheads_are_recorded() {
        let mut s = session(InitialMapping::BLOCK_BUNCH, 4);
        assert!(s.dist_build_time() > Duration::ZERO);
        assert!(s.extraction_model_seconds() > 0.0);
        let info = s.mapping(Mapper::ScotchLike, PatternKind::Ring).unwrap();
        assert!(info.graph_build > Duration::ZERO);
        let info_h = s.mapping(Mapper::Hrstc, PatternKind::Ring).unwrap();
        assert_eq!(info_h.graph_build, Duration::ZERO);
    }

    #[test]
    fn implicit_backend_matches_dense_exactly() {
        // The fast differential smoke test against the linear-scan
        // heuristics on the dense matrix; the exhaustive suite lives in
        // tests/session_oracle_equiv.rs.
        let mut s = session(InitialMapping::CYCLIC_BUNCH, 8);
        let d = tarr_topo::DistanceMatrix::build(s.cluster(), s.comm().cores(), &s.core.cfg.dist);
        let seed = s.core.cfg.seed;
        for (pattern, reference) in [
            (PatternKind::Rd, tarr_mapping::rdmh(&d, seed)),
            (PatternKind::Ring, tarr_mapping::rmh(&d, seed)),
            (PatternKind::BinomialBcast, tarr_mapping::bbmh(&d, seed)),
            (PatternKind::BinomialGather, tarr_mapping::bgmh(&d, seed)),
        ] {
            let info = s.mapping(Mapper::Hrstc, pattern).unwrap();
            assert_eq!(info.mapping, reference, "{pattern:?}");
        }
    }
}
