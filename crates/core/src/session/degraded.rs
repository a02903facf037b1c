//! Session-level fault resilience: [`Session::apply_faults`] degrades the
//! cluster in place, migrates displaced ranks, and invalidates **exactly**
//! the cached state the faults touched.
//!
//! The invalidation is keyed, not a flush. What survives a fault:
//!
//! * compiled schedules whose structure depends only on the process count —
//!   every [`SchedKey::Flat`], the plain [`SchedKey::Gather`], the
//!   [`SchedKey::Bcast`] broadcast and both allreduce schedules
//!   ([`SchedKey::AllreduceRd`], [`SchedKey::AllreduceRabenseifner`]);
//! * anything derived from the MVAPICH cyclic reorder, which reads only
//!   `(p, cores_per_node)` — its mapping always, its initComm-prefixed
//!   schedules always, its reordered communicator as long as no rank moved;
//! * default-order hierarchical schedules ([`SchedKey::Hier`] with no
//!   mapper), which read the node grouping of the initial communicator —
//!   kept as long as no rank moved.
//!
//! Everything that reads the distance structure (every topology-aware
//! mapping and whatever was compiled from it) is dropped, because the
//! degraded fabric answers different distances. The result is guaranteed
//! bit-identical to a cold session built directly on the degraded cluster:
//! every kept entry is a deterministic function of inputs the fault did not
//! change.

use super::{
    CacheStats, CommKey, DistanceBackend, Mapper, SchedKey, Scheme, Session, SessionDistance,
};
use std::collections::HashMap;
use std::time::Duration;
use tarr_faults::{DegradationSummary, FabricDelta, FaultError, FaultSet};
use tarr_mpi::Communicator;
use tarr_topo::{CoreId, DistanceMatrix, Hop, ImplicitDistance, IrregularFabric, Rank};

/// Which collective a [`ProbePoint`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeCollective {
    /// Non-hierarchical `MPI_Allgather` (algorithm chosen by size).
    Allgather,
    /// Binomial `MPI_Bcast` from rank 0.
    Bcast,
    /// Binomial `MPI_Gather` to rank 0.
    Gather,
}

impl ProbeCollective {
    /// Display name for tables and traces.
    pub fn name(&self) -> &'static str {
        match self {
            ProbeCollective::Allgather => "allgather",
            ProbeCollective::Bcast => "bcast",
            ProbeCollective::Gather => "gather",
        }
    }
}

/// One collective configuration to price before and after a fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// The collective.
    pub collective: ProbeCollective,
    /// Per-rank message size in bytes.
    pub msg_bytes: u64,
    /// Execution scheme.
    pub scheme: Scheme,
}

impl ProbePoint {
    /// An allgather probe.
    pub fn allgather(msg_bytes: u64, scheme: Scheme) -> Self {
        ProbePoint {
            collective: ProbeCollective::Allgather,
            msg_bytes,
            scheme,
        }
    }

    /// A broadcast probe.
    pub fn bcast(msg_bytes: u64, scheme: Scheme) -> Self {
        ProbePoint {
            collective: ProbeCollective::Bcast,
            msg_bytes,
            scheme,
        }
    }

    /// A gather probe.
    pub fn gather(msg_bytes: u64, scheme: Scheme) -> Self {
        ProbePoint {
            collective: ProbeCollective::Gather,
            msg_bytes,
            scheme,
        }
    }

    fn price(&self, s: &mut Session) -> f64 {
        match self.collective {
            ProbeCollective::Allgather => s.allgather_time(self.msg_bytes, self.scheme),
            ProbeCollective::Bcast => s.bcast_time(self.msg_bytes, self.scheme),
            ProbeCollective::Gather => s.gather_time(self.msg_bytes, self.scheme),
        }
    }
}

/// One probe's pre- and post-fault timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOutcome {
    /// The probe configuration.
    pub probe: ProbePoint,
    /// Simulated latency before the fault (seconds).
    pub before: f64,
    /// Simulated latency on the degraded cluster (seconds).
    pub after: f64,
}

impl ProbeOutcome {
    /// Post-fault slowdown factor (`after / before`).
    pub fn slowdown(&self) -> f64 {
        self.after / self.before
    }
}

/// What [`Session::apply_faults`] did: damage accounting, rank migration,
/// exact cache invalidation, and the priced degradation per probe.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Hardware damage accounting from the fault application.
    pub summary: DegradationSummary,
    /// Ranks whose core died and that were migrated to spare live cores.
    pub ranks_migrated: usize,
    /// Mapping-cache entries invalidated (topology-aware mappings).
    pub mappings_dropped: usize,
    /// Reordered-communicator cache entries invalidated.
    pub comms_dropped: usize,
    /// Compiled-schedule cache entries invalidated.
    pub scheds_dropped: usize,
    /// Compiled-schedule cache entries that survived the fault.
    pub scheds_kept: usize,
    /// Stage-price cache entries dropped whole (their schedule or
    /// communicator was invalidated, or the rebuild was not fault-local).
    pub price_entries_dropped: usize,
    /// Cached unique-stage prices invalidated selectively — stages whose
    /// operand ranks migrated or whose routes crossed repaired fabric.
    pub price_stages_repriced: usize,
    /// Cached unique-stage prices that survived the fault untouched.
    pub price_stages_reused: usize,
    /// Distance-structure slots patched in place instead of a full rebuild
    /// (drain-only migration; zero when the fabric changed).
    pub dist_slots_patched: usize,
    /// Wall-clock time of the distance-structure rebuild or repair (zero
    /// when the fault changed neither the fabric nor any rank's placement).
    pub dist_rebuild: Duration,
    /// Pre/post-fault timings, one per requested probe, in order.
    pub probes: Vec<ProbeOutcome>,
}

impl Session {
    /// Apply a [`FaultSet`] to the running session: degrade the cluster,
    /// migrate ranks whose cores died onto the lowest-numbered spare live
    /// cores, rebuild the distance structure, and invalidate exactly the
    /// cached mappings, communicators and compiled schedules the fault
    /// touched. Each `probe` is priced before and after so the report
    /// quantifies the degradation per scheme.
    ///
    /// On error — a fault set that partitions the fabric, references unknown
    /// hardware, or leaves fewer live cores than the session has ranks —
    /// the session is left **unchanged** and fully usable.
    pub fn apply_faults(
        &mut self,
        faults: &FaultSet,
        probes: &[ProbePoint],
    ) -> Result<DegradationReport, FaultError> {
        let p = self.comm.size();
        let _span = tarr_trace::span("fault.session_apply").arg("p", p);

        let before: Vec<f64> = probes.iter().map(|pr| pr.price(self)).collect();

        // Everything fallible happens before the first mutation.
        let degraded = faults.apply(&self.cluster)?;
        let live = degraded.live_cores();
        if live.len() < p {
            return Err(FaultError::InsufficientCores {
                needed: p,
                available: live.len(),
            });
        }

        // Migrate each rank on a dead core to the lowest spare live core.
        let mut used: Vec<CoreId> = self
            .comm
            .cores()
            .iter()
            .copied()
            .filter(|&c| !degraded.is_dead(c))
            .collect();
        used.sort_unstable();
        let mut spares = live
            .iter()
            .copied()
            .filter(|c| used.binary_search(c).is_err());
        let mut migrated = 0usize;
        let new_cores: Vec<CoreId> = self
            .comm
            .cores()
            .iter()
            .map(|&c| {
                if degraded.is_dead(c) {
                    migrated += 1;
                    spares
                        .next()
                        .expect("live >= p guarantees a spare per displaced rank")
                } else {
                    c
                }
            })
            .collect();

        let fabric_changed = degraded.summary.fabric_rebuilt;
        let stale = fabric_changed || migrated > 0;
        // Which ranks the migration moved (by communicator rank index).
        let moved: Vec<bool> = self
            .comm
            .cores()
            .iter()
            .zip(&new_cores)
            .map(|(a, b)| a != b)
            .collect();

        // Keyed invalidation. Every retained entry is a deterministic
        // function of inputs the fault did not change (see module docs).
        let inv = tarr_trace::span("fault.invalidate")
            .arg("fabric_changed", fabric_changed)
            .arg("migrated", migrated);
        let (mut mappings_dropped, mut comms_dropped, mut scheds_dropped) = (0, 0, 0);
        if stale {
            let n = self.cache.len();
            self.cache
                .retain(|&(mapper, _), _| mapper == Mapper::MvapichCyclic);
            mappings_dropped = n - self.cache.len();

            let n = self.comm_cache.len();
            self.comm_cache
                .retain(|&(mapper, _), _| mapper == Mapper::MvapichCyclic && migrated == 0);
            comms_dropped = n - self.comm_cache.len();

            let n = self.sched_cache.len();
            self.sched_cache.retain(|key, _| match key {
                SchedKey::Flat(_)
                | SchedKey::Gather
                | SchedKey::Bcast
                | SchedKey::AllreduceRd
                | SchedKey::AllreduceRabenseifner => true,
                SchedKey::FlatInit(_, Mapper::MvapichCyclic)
                | SchedKey::GatherInit(Mapper::MvapichCyclic) => true,
                SchedKey::Hier(_, _, None) => migrated == 0,
                _ => false,
            });
            scheds_dropped = n - self.sched_cache.len();
        }
        let scheds_kept = self.sched_cache.len();
        drop(inv);

        let fabric_delta = degraded.fabric_delta;
        self.cluster = degraded.cluster;
        if migrated > 0 {
            self.comm = Communicator::new(new_cores);
        }

        // Stage-selective price-cache repair: an entry survived schedule and
        // communicator invalidation, so each of its cached stage prices is
        // kept unless the fault provably reaches it — an operand rank moved,
        // or a route of one of its messages crossed repaired fabric.
        let (price_entries_dropped, price_stages_repriced, price_stages_reused) = if stale {
            repair_price_cache(self, &moved, fabric_changed, fabric_delta.as_ref())
        } else {
            (0, 0, 0)
        };

        let mut dist_rebuild = Duration::ZERO;
        let mut dist_slots_patched = 0usize;
        if stale {
            let sp = tarr_trace::timed_span("fault.distance_rebuild").arg("p", p);
            if !fabric_changed {
                // Drain-only migration: the cluster is untouched, so only
                // the migrated slots' distances change — patch them in place
                // (O(k·P) dense, O(k) implicit) instead of rebuilding.
                let changed: Vec<(usize, CoreId)> = moved
                    .iter()
                    .enumerate()
                    .filter(|&(_, &m)| m)
                    .map(|(i, _)| (i, self.comm.cores()[i]))
                    .collect();
                dist_slots_patched = changed.len();
                match &mut self.d {
                    SessionDistance::Dense(m) => {
                        m.repair_slots(&self.cluster, &self.cfg.dist, &changed)
                    }
                    SessionDistance::Implicit(o) => o.repair_slots(&changed),
                }
            } else {
                self.d = match self.cfg.backend {
                    DistanceBackend::Dense => SessionDistance::Dense(DistanceMatrix::build(
                        &self.cluster,
                        self.comm.cores(),
                        &self.cfg.dist,
                    )),
                    DistanceBackend::Implicit => SessionDistance::Implicit(
                        ImplicitDistance::build(&self.cluster, self.comm.cores(), &self.cfg.dist),
                    ),
                };
            }
            dist_rebuild = sp.finish();
            self.dist_build += dist_rebuild;
        }

        tarr_trace::counter_add!("fault.ranks_migrated", migrated as u64);
        tarr_trace::counter_add!("fault.cache.mapping_dropped", mappings_dropped as u64);
        tarr_trace::counter_add!("fault.cache.comm_dropped", comms_dropped as u64);
        tarr_trace::counter_add!("fault.cache.sched_dropped", scheds_dropped as u64);
        tarr_trace::counter_add!("fault.cache.sched_kept", scheds_kept as u64);
        tarr_trace::counter_add!("fault.price.stages_repriced", price_stages_repriced as u64);
        tarr_trace::counter_add!("fault.price.stages_reused", price_stages_reused as u64);
        tarr_trace::counter_add!("fault.distance.slots_patched", dist_slots_patched as u64);

        let outcomes = probes
            .iter()
            .zip(before)
            .map(|(pr, b)| ProbeOutcome {
                probe: *pr,
                before: b,
                after: pr.price(self),
            })
            .collect();

        Ok(DegradationReport {
            summary: degraded.summary,
            ranks_migrated: migrated,
            mappings_dropped,
            comms_dropped,
            scheds_dropped,
            scheds_kept,
            price_entries_dropped,
            price_stages_repriced,
            price_stages_reused,
            dist_slots_patched,
            dist_rebuild,
            probes: outcomes,
        })
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
}

/// Selectively invalidate the session's stage-price cache after a fault.
/// Returns `(entries dropped, stage prices invalidated, stage prices kept)`.
///
/// Entries whose schedule or communicator was invalidated are dropped whole.
/// For the survivors, each cached stage price is kept unless the fault
/// provably reaches it: an operand rank migrated, or (fabric repaired under
/// an identity renumbering) one of its messages routes through a switch
/// whose BFS row or adjacency the repair touched. A fabric rebuild without
/// an identity [`FabricDelta`] flushes everything — renumbered switches
/// leave no per-row provenance to reason from.
fn repair_price_cache(
    s: &mut Session,
    moved: &[bool],
    fabric_changed: bool,
    delta: Option<&FabricDelta>,
) -> (usize, usize, usize) {
    let _span = tarr_trace::span("fault.price_repair")
        .arg("entries", s.price_cache.len())
        .arg("identity_delta", delta.is_some());
    let before = s.price_cache.len();
    {
        let sched_cache = &s.sched_cache;
        let comm_cache = &s.comm_cache;
        s.price_cache.retain(|&(key, ck, _), _| {
            sched_cache.contains_key(&key)
                && match ck {
                    CommKey::Default => true,
                    CommKey::Reordered(m, pat) => comm_cache.contains_key(&(m, pat)),
                }
        });
    }
    let mut dropped = before - s.price_cache.len();

    if fabric_changed && delta.is_none() {
        dropped += s.price_cache.len();
        s.price_cache.clear();
        return (dropped, 0, 0);
    }

    let Session {
        price_cache,
        sched_cache,
        comm_cache,
        comm,
        cluster,
        ..
    } = s;
    let fabric = cluster.fabric().as_irregular();
    // Route-stability memo, keyed (source switch, destination node): a
    // cached price survives only if re-simulating would walk identical hops,
    // i.e. the destination's BFS row is clean and no switch the route
    // traverses had its adjacency (links or trunk counts) repaired.
    let mut route_ok: HashMap<(u32, u32), bool> = HashMap::new();
    let (mut repriced, mut reused) = (0usize, 0usize);
    for (&(key, ck, _), cache) in price_cache.iter_mut() {
        let ts = &sched_cache[&key];
        let c = match ck {
            CommKey::Default => &*comm,
            CommKey::Reordered(m, pat) => &comm_cache[&(m, pat)],
        };
        for (k, ops) in ts.unique_stages().iter().enumerate() {
            if cache[k].is_nan() {
                continue;
            }
            let stable = ops.iter().all(|op| {
                if moved[op.from as usize] || moved[op.to as usize] {
                    return false;
                }
                let Some(delta) = delta else { return true };
                let (ca, cb) = (c.core_of(Rank(op.from)), c.core_of(Rank(op.to)));
                if ca == cb {
                    return true; // local copy: no fabric involved
                }
                let (na, nb) = (cluster.node_of(ca), cluster.node_of(cb));
                if na == nb {
                    return true; // intra-node path: no fabric involved
                }
                let g = fabric.expect("identity delta implies an irregular fabric");
                let src_sw = g.switch_of(na);
                *route_ok
                    .entry((src_sw, nb.idx() as u32))
                    .or_insert_with(|| route_is_stable(g, delta, src_sw, na, nb))
            });
            if stable {
                reused += 1;
            } else {
                cache[k] = f64::NAN;
                repriced += 1;
            }
        }
    }
    (dropped, repriced, reused)
}

/// Whether re-routing `na → nb` on the repaired fabric walks hops identical
/// to the pre-fault fabric's: the destination's BFS row must be clean (the
/// descent compares its levels at every candidate) and every traversed
/// switch's adjacency unchanged (the candidate list and trunk modulus come
/// from it). The destination switch's own adjacency is never consulted.
fn route_is_stable(
    g: &IrregularFabric,
    delta: &FabricDelta,
    src_sw: u32,
    na: tarr_topo::NodeId,
    nb: tarr_topo::NodeId,
) -> bool {
    let dst_sw = g.switch_of(nb);
    if src_sw == dst_sw {
        return true; // up/down through one surviving switch: no routing choice
    }
    if delta.row_dirty(dst_sw) {
        return false;
    }
    g.route(na, nb).iter().all(|h| match h {
        Hop::SwitchLink { from, .. } => !delta.adj_changed(*from),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use tarr_mapping::{InitialMapping, OrderFix};
    use tarr_topo::Cluster;

    fn probes() -> Vec<ProbePoint> {
        vec![
            ProbePoint::allgather(512, Scheme::Default),
            ProbePoint::allgather(512, Scheme::hrstc(OrderFix::InitComm)),
            ProbePoint::allgather(65536, Scheme::hrstc(OrderFix::InPlace)),
            ProbePoint::bcast(4096, Scheme::hrstc(OrderFix::InPlace)),
            ProbePoint::gather(4096, Scheme::Default),
        ]
    }

    #[test]
    fn empty_fault_set_changes_nothing() {
        let cluster = Cluster::gpc(8);
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::CYCLIC_BUNCH,
            64,
            SessionConfig::default(),
        );
        let report = s.apply_faults(&FaultSet::default(), &probes()).unwrap();
        assert_eq!(report.ranks_migrated, 0);
        assert_eq!(report.mappings_dropped, 0);
        assert_eq!(report.comms_dropped, 0);
        assert_eq!(report.scheds_dropped, 0);
        assert_eq!(report.dist_rebuild, Duration::ZERO);
        for o in &report.probes {
            assert_eq!(o.before, o.after, "{:?}", o.probe);
        }
    }

    #[test]
    fn partition_error_leaves_session_usable() {
        let cluster = Cluster::gpc(64);
        let g = cluster.fabric().to_switch_graph();
        let leaf0: Vec<_> = g
            .links
            .iter()
            .filter(|&&(a, b, _)| a == 0 || b == 0)
            .copied()
            .collect();
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            512,
            SessionConfig::default(),
        );
        let t0 = s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm));
        let set = FaultSet {
            failed_cables: leaf0,
            ..FaultSet::default()
        };
        let err = s.apply_faults(&set, &[]).unwrap_err();
        assert!(matches!(err, FaultError::PartitionedFabric { .. }), "{err}");
        // Unchanged session: same cached timing, nothing dropped.
        let stats = s.cache_stats();
        assert_eq!(s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm)), t0);
        let delta = s.cache_stats_since(stats);
        assert_eq!(delta.sched_misses, 0);
        assert_eq!(delta.comm_misses, 0);
    }

    #[test]
    fn insufficient_cores_is_typed_and_non_destructive() {
        let cluster = Cluster::gpc(4); // 32 cores, fully allocated
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            32,
            SessionConfig::default(),
        );
        let set = FaultSet {
            drained_nodes: vec![0],
            ..FaultSet::default()
        };
        let err = s.apply_faults(&set, &[]).unwrap_err();
        assert_eq!(
            err,
            FaultError::InsufficientCores {
                needed: 32,
                available: 24
            }
        );
        assert!(s.allgather_time(512, Scheme::Default) > 0.0);
    }

    fn irregular_cluster() -> Cluster {
        use tarr_topo::{Fabric, IrregularConfig, IrregularFabric, NodeTopology};
        // A 2×3 switch grid with a chord, two nodes per switch.
        let f = IrregularFabric::new(IrregularConfig {
            switches: 6,
            node_switch: (0..12).map(|n| n / 2).collect(),
            links: vec![
                (0, 1, 2),
                (1, 2, 2),
                (3, 4, 2),
                (4, 5, 2),
                (0, 3, 2),
                (1, 4, 2),
                (2, 5, 2),
                (0, 4, 1),
            ],
        })
        .unwrap();
        Cluster::from_parts(NodeTopology::gpc(), Fabric::Irregular(f), 12).unwrap()
    }

    /// Warm a standard probe surface and return the (msg, scheme) grid so the
    /// caller can re-compare after a fault.
    fn warm(s: &mut Session) -> Vec<(u64, Scheme)> {
        let grid: Vec<(u64, Scheme)> = [512u64, 65536]
            .iter()
            .flat_map(|&m| {
                [Scheme::Default, Scheme::hrstc(OrderFix::InitComm)].map(move |sc| (m, sc))
            })
            .collect();
        for &(m, sc) in &grid {
            s.allgather_time(m, sc);
        }
        s.gather_time(4096, Scheme::Default);
        grid
    }

    /// Every time the degraded session can produce must equal a session built
    /// cold on the degraded cluster — the bit-identity pin for the
    /// stage-selective re-pricing.
    fn assert_matches_cold(s: &mut Session, grid: &[(u64, Scheme)]) {
        let mut cold = Session::new(
            s.cluster().clone(),
            s.comm().cores().to_vec(),
            SessionConfig::default(),
        );
        for &(m, sc) in grid {
            assert_eq!(
                s.allgather_time(m, sc),
                cold.allgather_time(m, sc),
                "allgather {m} {sc:?}"
            );
        }
        assert_eq!(
            s.gather_time(4096, Scheme::Default),
            cold.gather_time(4096, Scheme::Default),
            "gather"
        );
    }

    #[test]
    fn cable_fault_reprices_selectively_and_matches_cold() {
        let mut s = Session::from_layout(
            irregular_cluster(),
            InitialMapping::CYCLIC_BUNCH,
            96,
            SessionConfig::default(),
        );
        let grid = warm(&mut s);
        // Kill every trunk of the 2—5 link: the adjacency changes but no
        // switch is pruned, so the identity fabric delta drives the repair.
        let set = FaultSet {
            failed_cables: vec![(2, 5, 2)],
            ..FaultSet::default()
        };
        let report = s.apply_faults(&set, &[]).unwrap();
        assert!(report.summary.fabric_rebuilt);
        assert!(report.summary.dist_rows_rebuilt > 0);
        assert!(report.summary.dist_rows_reused > 0);
        assert_eq!(report.ranks_migrated, 0);
        assert!(
            report.price_stages_reused > 0,
            "stages routing clear of the dead cable must keep their price: {report:?}"
        );
        assert!(
            report.price_stages_repriced > 0,
            "stages crossing the dead cable must be re-priced: {report:?}"
        );
        assert_eq!(report.dist_slots_patched, 0);
        assert_matches_cold(&mut s, &grid);
    }

    #[test]
    fn trunk_only_fault_keeps_every_distance_row_and_matches_cold() {
        let mut s = Session::from_layout(
            irregular_cluster(),
            InitialMapping::CYCLIC_BUNCH,
            96,
            SessionConfig::default(),
        );
        let grid = warm(&mut s);
        // One cable of the 2-trunk 0—3 link: adjacency (trunk counts) change
        // but every BFS row survives; only routes through 0 or 3 re-price.
        let set = FaultSet {
            failed_cables: vec![(0, 3, 1)],
            ..FaultSet::default()
        };
        let report = s.apply_faults(&set, &[]).unwrap();
        assert!(report.summary.fabric_rebuilt);
        assert_eq!(report.summary.dist_rows_rebuilt, 0);
        assert_eq!(report.summary.dist_rows_reused, 6);
        assert!(report.price_stages_reused > 0, "{report:?}");
        assert_matches_cold(&mut s, &grid);
    }

    #[test]
    fn switch_fault_renumbers_and_still_matches_cold() {
        // Pruning a switch renumbers the survivors: no identity delta, the
        // price cache flushes, and the rebuilt session must still equal cold.
        let cluster = irregular_cluster();
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::CYCLIC_BUNCH,
            80, // leave the two nodes of switch 5 as spares
            SessionConfig::default(),
        );
        let grid = warm(&mut s);
        let set = FaultSet {
            failed_switches: vec![5],
            ..FaultSet::default()
        };
        let report = s.apply_faults(&set, &[]).unwrap();
        assert!(report.summary.fabric_rebuilt);
        assert_eq!(report.price_stages_reused, 0, "{report:?}");
        assert_matches_cold(&mut s, &grid);
    }

    #[test]
    fn drain_only_migration_patches_distance_slots_and_matches_cold() {
        let cluster = Cluster::gpc(8); // 64 cores, 32 ranks: spares exist
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            32,
            SessionConfig::default(),
        );
        let grid = warm(&mut s);
        let report = s
            .apply_faults(
                &FaultSet {
                    drained_nodes: vec![0],
                    ..FaultSet::default()
                },
                &[],
            )
            .unwrap();
        assert!(!report.summary.fabric_rebuilt);
        assert_eq!(report.ranks_migrated, 8);
        assert_eq!(
            report.dist_slots_patched, 8,
            "drain-only migration must patch, not rebuild: {report:?}"
        );
        assert_matches_cold(&mut s, &grid);
    }

    #[test]
    fn drain_only_migration_drops_comms_but_keeps_flat_scheds() {
        let cluster = Cluster::gpc(8); // 64 cores, 32 ranks: spares exist
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            32,
            SessionConfig::default(),
        );
        let pr = probes();
        let report = s
            .apply_faults(
                &FaultSet {
                    drained_nodes: vec![0],
                    ..FaultSet::default()
                },
                &pr,
            )
            .unwrap();
        assert!(!report.summary.fabric_rebuilt);
        assert_eq!(report.ranks_migrated, 8, "node 0 hosted ranks 0..8");
        assert!(report.comms_dropped > 0);
        // Size-only schedules survive: Flat(RD), Flat(Ring), Gather at least.
        assert!(report.scheds_kept >= 3, "kept {}", report.scheds_kept);
        // Ranks moved: every probe must still price finitely.
        for o in &report.probes {
            assert!(o.after.is_finite() && o.after > 0.0, "{:?}", o.probe);
        }
    }
}
