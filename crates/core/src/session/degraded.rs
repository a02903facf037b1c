//! Fault resilience: [`SessionCore::apply_faults`] is the one way to
//! degrade a session. It mints a new core — degraded cluster, displaced
//! ranks migrated, distance oracle rebuilt — and carries over **exactly**
//! the cached state the faults did not touch, as the same `Arc`s. A
//! [`Session`](super::Session) handle never changes its core: a caller
//! that wants the degraded view takes a fresh handle on the new core.
//!
//! The carry-over is keyed, not a flush. What survives a fault:
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
//!   kept as long as no rank moved;
//! * the stage profiles of a surviving schedule and communicator, for
//!   exactly the stages the fault does not reach;
//! * prices over a surviving schedule and communicator: as they are when
//!   the fault reaches none of their stages, otherwise re-priced from the
//!   carried profiles with only the reached stages routed again, once per
//!   (schedule, communicator) however many sizes were priced over it
//!   (stage-selective repair). A pair with no profiles (restored from a
//!   snapshot and not priced since) loses its prices instead.
//!
//! Everything that reads the distance oracle (every topology-aware
//! mapping and whatever was compiled from it) is dropped, because the
//! degraded fabric answers different distances. The result is guaranteed
//! bit-identical to a cold core built directly on the degraded cluster:
//! every kept entry is a deterministic function of inputs the fault did not
//! change.

use super::{CommKey, Mapper, SchedKey, SessionCore};
use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;
use tarr_faults::{DegradationSummary, FabricDelta, FaultError, FaultSet};
use tarr_mpi::cache::ShardedOnceMap;
use tarr_mpi::{Communicator, TimedSchedule};
use tarr_topo::{CoreId, Hop, ImplicitDistance, IrregularFabric, Rank};

/// What a fault application did: damage accounting, rank migration and
/// exact cache invalidation.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Hardware damage accounting from the fault application.
    pub summary: DegradationSummary,
    /// Ranks whose core died and that were migrated to spare live cores.
    pub ranks_migrated: usize,
    /// Computed mapping-cache entries invalidated (topology-aware mappings).
    /// Cached "unsupported" outcomes are not counted here or below.
    pub mappings_dropped: usize,
    /// Reordered-communicator cache entries invalidated.
    pub comms_dropped: usize,
    /// Compiled-schedule cache entries invalidated.
    pub scheds_dropped: usize,
    /// Compiled-schedule cache entries that survived the fault.
    pub scheds_kept: usize,
    /// Price-cache entries dropped whole (their schedule or communicator
    /// was invalidated, the rebuild was not fault-local, or their pair had
    /// no stage profiles: restored from a snapshot and not priced since).
    pub price_entries_dropped: usize,
    /// Cached unique-stage prices re-priced selectively — stages whose
    /// operand ranks migrated or whose routes crossed repaired fabric.
    pub price_stages_repriced: usize,
    /// Cached unique-stage prices that survived the fault untouched.
    pub price_stages_reused: usize,
    /// Wall-clock time of the distance-oracle rebuild (zero when the fault
    /// changed neither the fabric nor any rank's placement).
    pub dist_rebuild: Duration,
}

impl SessionCore {
    /// Apply a [`FaultSet`] *functionally*: degrade the cluster, migrate
    /// ranks whose cores died onto the lowest-numbered spare live cores,
    /// rebuild the distance oracle, and return a new core that
    /// shares every cache entry the fault did not touch (see the module
    /// docs). `self` is untouched — concurrent readers keep pricing the
    /// pre-fault topology until the caller swaps its `Arc`.
    ///
    /// Fails — a fault set that partitions the fabric, references unknown
    /// hardware, or leaves fewer live cores than the core has ranks — with
    /// nothing changed.
    pub fn apply_faults(
        &self,
        faults: &FaultSet,
    ) -> Result<(SessionCore, DegradationReport), FaultError> {
        let p = self.size();
        let _span = tarr_trace::span("fault.session_apply").arg("p", p);
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
        let comm = if migrated > 0 {
            Communicator::new(new_cores)
        } else {
            self.comm.clone()
        };

        let mut dist_rebuild = Duration::ZERO;
        let d = if stale {
            let sp = tarr_trace::timed_span("fault.distance_rebuild").arg("p", p);
            let d = ImplicitDistance::build(&degraded.cluster, comm.cores(), &self.cfg.dist);
            dist_rebuild = sp.finish();
            Arc::new(d)
        } else {
            Arc::clone(&self.d)
        };
        let new = SessionCore::with_distance(
            degraded.cluster,
            self.cfg.clone(),
            comm,
            d,
            self.dist_build + dist_rebuild,
        );

        // Keyed carry-over. Every kept entry is a deterministic function of
        // inputs the fault did not change (see module docs).
        let inv = tarr_trace::span("fault.invalidate")
            .arg("fabric_changed", fabric_changed)
            .arg("migrated", migrated);
        let (mappings_dropped, _) = carry(&self.mappings, &new.mappings, |&(mapper, _)| {
            !stale || mapper == Mapper::MvapichCyclic
        });
        let (comms_dropped, _) = carry(&self.comms, &new.comms, |&(mapper, _)| {
            !stale || (mapper == Mapper::MvapichCyclic && migrated == 0)
        });
        let (scheds_dropped, scheds_kept) = carry(&self.scheds, &new.scheds, |key| {
            !stale
                || match key {
                    SchedKey::Flat(_)
                    | SchedKey::Gather
                    | SchedKey::Bcast
                    | SchedKey::AllreduceRd
                    | SchedKey::AllreduceRabenseifner => true,
                    SchedKey::FlatInit(_, Mapper::MvapichCyclic)
                    | SchedKey::GatherInit(Mapper::MvapichCyclic) => true,
                    SchedKey::Hier(_, _, None) => migrated == 0,
                    _ => false,
                }
        });
        drop(inv);

        let (price_entries_dropped, price_stages_repriced, price_stages_reused) = if stale {
            let delta = degraded.fabric_delta.as_ref();
            self.repair_prices(&new, &moved, fabric_changed, delta)
        } else {
            for (k, v) in self.prices.entries() {
                new.prices.insert(k, v);
            }
            for (k, v) in self.profiles.entries() {
                new.profiles.insert(k, v);
            }
            (0, 0, 0)
        };

        tarr_trace::counter_add!("fault.ranks_migrated", migrated as u64);
        tarr_trace::counter_add!("fault.cache.mapping_dropped", mappings_dropped as u64);
        tarr_trace::counter_add!("fault.cache.comm_dropped", comms_dropped as u64);
        tarr_trace::counter_add!("fault.cache.sched_dropped", scheds_dropped as u64);
        tarr_trace::counter_add!("fault.cache.sched_kept", scheds_kept as u64);
        tarr_trace::counter_add!("fault.price.stages_repriced", price_stages_repriced as u64);
        tarr_trace::counter_add!("fault.price.stages_reused", price_stages_reused as u64);

        let report = DegradationReport {
            summary: degraded.summary,
            ranks_migrated: migrated,
            mappings_dropped,
            comms_dropped,
            scheds_dropped,
            scheds_kept,
            price_entries_dropped,
            price_stages_repriced,
            price_stages_reused,
            dist_rebuild,
        };
        Ok((new, report))
    }

    /// Carry this core's price entries and stage profiles into the degraded
    /// core `new`, whose schedule and communicator caches are already
    /// filled. Returns `(entries dropped, stage prices re-priced, stage
    /// prices kept)`.
    ///
    /// Entries whose schedule or communicator was invalidated are dropped
    /// whole. For the survivors, each unique stage is kept unless the fault
    /// provably reaches it: an operand rank migrated, or (fabric repaired
    /// under an identity renumbering) one of its messages routes through a
    /// switch whose BFS row or adjacency the repair touched. A fabric
    /// rebuild without an identity [`FabricDelta`] drops everything —
    /// renumbered switches leave no per-row provenance to reason from.
    ///
    /// A surviving pair's profiles are carried with the kept stages' slots
    /// shared and the others unbuilt. An entry with every stage kept is
    /// carried as it is; any other is re-priced on `new` from the carried
    /// profiles, which routes each reached stage once per pair whatever the
    /// number of sizes. An entry whose pair has no profiles on this core is
    /// dropped.
    fn repair_prices(
        &self,
        new: &SessionCore,
        moved: &[bool],
        fabric_changed: bool,
        delta: Option<&FabricDelta>,
    ) -> (usize, usize, usize) {
        // Prices before profiles: `price` installs a pair's profile set
        // before its total lands, so every entry read here finds its
        // profiles even while other handles price this core.
        let entries = self.prices.entries();
        let _span = tarr_trace::span("fault.price_repair")
            .arg("entries", entries.len())
            .arg("identity_delta", delta.is_some());
        if fabric_changed && delta.is_none() {
            return (entries.len(), 0, 0);
        }
        let mut survey = StageSurvey {
            new,
            moved,
            delta,
            route_ok: HashMap::new(),
            pairs: HashMap::new(),
        };
        for (pair, profiles) in self.profiles.entries() {
            if let Some(s) = survey.survive(pair) {
                let kept = profiles.carry(|k| s.stable[k]);
                new.profiles.insert(pair, Arc::new(kept));
            }
        }
        let (mut dropped, mut repriced, mut reused) = (0usize, 0usize, 0usize);
        for (key @ (sk, ck, bytes), priced) in entries {
            let Some(s) = survey
                .survive((sk, ck))
                .filter(|_| new.profiles.get(&(sk, ck)).is_some())
            else {
                dropped += 1;
                continue;
            };
            let reached = s.stable.iter().filter(|&&stable| !stable).count();
            repriced += reached;
            reused += s.stable.len() - reached;
            let priced = if reached > 0 {
                let c = s.comm.as_deref().unwrap_or(&new.comm);
                new.price((sk, ck), &s.ts, c, bytes)
            } else {
                priced
            };
            new.prices.insert(key, priced);
        }
        (dropped, repriced, reused)
    }
}

/// A (schedule, communicator) pair that survived a fault into the degraded
/// core, with which of its unique stages the fault leaves untouched.
struct Survivor {
    ts: Arc<TimedSchedule>,
    /// `None` for the core's initial communicator.
    comm: Option<Arc<Communicator>>,
    stable: Vec<bool>,
}

/// Per-pair stage stability on a degraded core, computed once per
/// (schedule, communicator) and shared by every price and profile of the
/// pair.
struct StageSurvey<'a> {
    new: &'a SessionCore,
    moved: &'a [bool],
    delta: Option<&'a FabricDelta>,
    /// Route-stability memo, keyed (source switch, destination node): a
    /// stage survives only if re-simulating would walk identical hops, i.e.
    /// the destination's BFS row is clean and no switch the route
    /// traverses had its adjacency (links or trunk counts) repaired.
    route_ok: HashMap<(u32, u32), bool>,
    pairs: HashMap<(SchedKey, CommKey), Option<Rc<Survivor>>>,
}

impl StageSurvey<'_> {
    /// The pair's survivor record, or `None` when its schedule or
    /// communicator did not survive the fault.
    fn survive(&mut self, pair: (SchedKey, CommKey)) -> Option<Rc<Survivor>> {
        if let Some(s) = self.pairs.get(&pair) {
            return s.clone();
        }
        let s = self.compute(pair).map(Rc::new);
        self.pairs.insert(pair, s.clone());
        s
    }

    fn compute(&mut self, (sk, ck): (SchedKey, CommKey)) -> Option<Survivor> {
        let new = self.new;
        let comm = match ck {
            CommKey::Default => None,
            CommKey::Reordered(m, pat) => Some(new.comms.get(&(m, pat)).flatten()?),
        };
        let ts = new.scheds.get(&sk).flatten()?;
        let c = comm.as_deref().unwrap_or(&new.comm);
        let cluster = &new.cluster;
        let fabric = cluster.fabric().as_irregular();
        let stable = ts
            .unique_stages()
            .iter()
            .map(|ops| {
                ops.iter().all(|op| {
                    if self.moved[op.from as usize] || self.moved[op.to as usize] {
                        return false;
                    }
                    let Some(delta) = self.delta else { return true };
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
                    *self
                        .route_ok
                        .entry((src_sw, nb.idx() as u32))
                        .or_insert_with(|| route_is_stable(g, delta, src_sw, na, nb))
                })
            })
            .collect();
        Some(Survivor { ts, comm, stable })
    }
}

/// Copy the entries of `from` that `keep` accepts into `to`, as the same
/// values (`Arc`s stay shared). Returns the number of *computed* (`Some`)
/// entries dropped and kept; cached "unsupported" outcomes are carried but
/// not counted.
fn carry<K, V: Clone>(
    from: &ShardedOnceMap<K, Option<V>>,
    to: &ShardedOnceMap<K, Option<V>>,
    keep: impl Fn(&K) -> bool,
) -> (usize, usize)
where
    K: Eq + Hash + Clone,
{
    let (mut dropped, mut kept) = (0, 0);
    for (k, v) in from.entries() {
        let computed = usize::from(v.is_some());
        if keep(&k) {
            kept += computed;
            to.insert(k, v);
        } else {
            dropped += computed;
        }
    }
    (dropped, kept)
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
    use crate::session::{Scheme, Session, SessionConfig};
    use tarr_mapping::{InitialMapping, OrderFix};
    use tarr_topo::Cluster;

    fn price_probes(s: &mut Session) -> Vec<f64> {
        vec![
            s.allgather_time(512, Scheme::Default),
            s.allgather_time(512, Scheme::hrstc(OrderFix::InitComm)),
            s.allgather_time(65536, Scheme::hrstc(OrderFix::InPlace)),
            s.bcast_time(4096, Scheme::hrstc(OrderFix::InPlace)),
            s.gather_time(4096, Scheme::Default),
        ]
    }

    /// Apply `set` to the handle's core and take a fresh handle on the
    /// degraded core.
    fn fault(s: &Session, set: &FaultSet) -> Result<(Session, DegradationReport), FaultError> {
        let (core, report) = s.core().apply_faults(set)?;
        Ok((Arc::new(core).handle(), report))
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
        let before = price_probes(&mut s);
        let (mut s, report) = fault(&s, &FaultSet::default()).unwrap();
        assert_eq!(report.ranks_migrated, 0);
        assert_eq!(report.mappings_dropped, 0);
        assert_eq!(report.comms_dropped, 0);
        assert_eq!(report.scheds_dropped, 0);
        assert_eq!(report.dist_rebuild, Duration::ZERO);
        assert_eq!(price_probes(&mut s), before);
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
        let Err(err) = fault(&s, &set) else {
            panic!("a fault that isolates leaf 0 must be rejected")
        };
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
        let Err(err) = fault(&s, &set) else {
            panic!("draining a node of a full allocation must be rejected")
        };
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
        let (mut s, report) = fault(&s, &set).unwrap();
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
        assert_matches_cold(&mut s, &grid);
    }

    /// The fault path of a shared core (the one the serve daemon takes):
    /// an identity-delta cable fault keeps the stage prices it does not
    /// reach, every kept price is bit-identical to a cold core on the
    /// degraded cluster, and the old core still answers pre-fault prices.
    #[test]
    fn core_fault_keeps_stage_prices_and_matches_cold() {
        let core = Arc::new(SessionCore::from_layout(
            irregular_cluster(),
            InitialMapping::CYCLIC_BUNCH,
            96,
            SessionConfig::default(),
        ));
        let grid = warm(&mut core.handle());
        let price_grid = |s: &mut Session| -> Vec<u64> {
            let mut out: Vec<u64> = grid
                .iter()
                .map(|&(m, sc)| s.allgather_time(m, sc).to_bits())
                .collect();
            out.push(s.gather_time(4096, Scheme::Default).to_bits());
            out
        };
        let before = price_grid(&mut core.handle());
        let set = FaultSet {
            failed_cables: vec![(2, 5, 2)],
            ..FaultSet::default()
        };
        let (degraded, report) = core.apply_faults(&set).unwrap();
        assert!(
            report.price_stages_reused > 0,
            "stages routing clear of the dead cable keep their price: {report:?}"
        );
        assert!(report.price_stages_repriced > 0, "{report:?}");
        let degraded = Arc::new(degraded);

        // The default-order prices were carried over (repaired), so the
        // re-run prices nothing; the topology-aware ones were recomputed.
        let mut h = degraded.handle();
        let after = price_grid(&mut h);
        let mut cold = Session::new(
            degraded.cluster().clone(),
            degraded.comm().cores().to_vec(),
            SessionConfig::default(),
        );
        assert_eq!(after, price_grid(&mut cold), "degraded core vs cold");
        let mut h = degraded.handle();
        for m in [512u64, 65536] {
            h.allgather_time(m, Scheme::Default);
        }
        h.gather_time(4096, Scheme::Default);
        assert_eq!(h.cache_stats().price_computed, 0, "{:?}", h.cache_stats());

        assert_eq!(price_grid(&mut core.handle()), before, "old core moved");

        // An empty fault set shares everything: the same schedule `Arc`s,
        // and a re-run that misses nothing.
        let (same, report) = degraded.apply_faults(&FaultSet::default()).unwrap();
        assert_eq!(report.scheds_dropped, 0);
        let key = SchedKey::Flat(tarr_collectives::AllgatherAlg::Ring);
        let old = degraded.scheds.get(&key).flatten().unwrap();
        let kept = same.scheds.get(&key).flatten().unwrap();
        assert!(Arc::ptr_eq(&old, &kept));
        let mut h = Arc::new(same).handle();
        assert_eq!(price_grid(&mut h), after);
        let st = h.cache_stats();
        assert_eq!(
            (
                st.mapping_misses,
                st.comm_misses,
                st.sched_misses,
                st.price_computed
            ),
            (0, 0, 0, 0),
            "{st:?}"
        );
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
        let (mut s, report) = fault(&s, &set).unwrap();
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
        let (mut s, report) = fault(&s, &set).unwrap();
        assert!(report.summary.fabric_rebuilt);
        assert_eq!(report.price_stages_reused, 0, "{report:?}");
        assert_matches_cold(&mut s, &grid);
    }

    #[test]
    fn drain_only_migration_rebuilds_distance_and_matches_cold() {
        let cluster = Cluster::gpc(8); // 64 cores, 32 ranks: spares exist
        let mut s = Session::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            32,
            SessionConfig::default(),
        );
        let grid = warm(&mut s);
        let set = FaultSet {
            drained_nodes: vec![0],
            ..FaultSet::default()
        };
        let (mut s, report) = fault(&s, &set).unwrap();
        assert!(!report.summary.fabric_rebuilt);
        assert_eq!(report.ranks_migrated, 8);
        // The moved ranks leave the oracle stale: it is rebuilt over the
        // migrated binding, exactly as a cold build would produce it.
        let d = &s.core().d;
        let cold = ImplicitDistance::build(s.cluster(), s.comm().cores(), d.config());
        assert_eq!(d.cores(), cold.cores());
        assert_eq!(d.paths(), cold.paths());
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
        price_probes(&mut s);
        let set = FaultSet {
            drained_nodes: vec![0],
            ..FaultSet::default()
        };
        let (mut s, report) = fault(&s, &set).unwrap();
        assert!(!report.summary.fabric_rebuilt);
        assert_eq!(report.ranks_migrated, 8, "node 0 hosted ranks 0..8");
        assert!(report.comms_dropped > 0);
        // Size-only schedules survive: Flat(RD), Flat(Ring), Gather at least.
        assert!(report.scheds_kept >= 3, "kept {}", report.scheds_kept);
        // Ranks moved: every probe must still price finitely.
        for t in price_probes(&mut s) {
            assert!(t.is_finite() && t > 0.0, "{t}");
        }
    }
}
