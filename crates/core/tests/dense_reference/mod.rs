//! The dense reference a session is pinned against. It takes the session's
//! own inputs (cluster, initial binding, seed, distance levels, network
//! constants), extracts them into a [`DistanceMatrix`], and answers
//! `Session::mapping` with one linear-scan mapper call per (mapper,
//! pattern) pair. It answers the `*_time` pricers by materializing each
//! collective's schedule and pricing it with `time_schedule`. None of it
//! goes through `Session`, so a session that routes a pair to the wrong
//! mapper, reads a wrong distance, or prices over the wrong communicator
//! disagrees with it.
//!
//! Fat-tree clusters only: the torus snake ring mapping has no dense
//! counterpart.

#![allow(dead_code)] // each suite uses a different subset

use tarr_collectives::allgather::{groups_by_node, hierarchical};
use tarr_collectives::allreduce::{rabenseifner_allreduce, rd_allreduce};
use tarr_collectives::bcast::binomial_bcast;
use tarr_collectives::gather::binomial_gather;
use tarr_collectives::{
    pattern_graph, pattern_graph_unweighted, select_allgather, AllgatherAlg, HierarchicalConfig,
    InterAlg,
};
use tarr_core::hier::{reordered_groups, HierMapper};
use tarr_core::{hierarchical_mapping, Mapper, PatternKind, Scheme, Session, SessionConfig};
use tarr_mapping::initial::mvapich_cyclic_reorder;
use tarr_mapping::{
    bbmh, bgmh, bkmh, greedy_map, init_comm_schedule, rdmh, rmh, scotch_like_map_with, OrderFix,
    ScotchVariant,
};
use tarr_mpi::{time_schedule, time_schedule_sized, Communicator, Schedule, TimedSchedule};
use tarr_netsim::StageModel;
use tarr_topo::{Cluster, DistanceMatrix, Rank};

/// A session's inputs, extracted densely.
pub struct DenseReference {
    cluster: Cluster,
    comm: Communicator,
    d: DistanceMatrix,
    cfg: SessionConfig,
}

impl DenseReference {
    /// Extract the dense reference for `s`'s current core.
    pub fn of(s: &Session) -> Self {
        assert!(
            s.cluster().fabric().as_torus().is_none(),
            "no dense reference for the torus snake mapping"
        );
        let cfg = s.core().config().clone();
        DenseReference {
            cluster: s.cluster().clone(),
            comm: s.comm().clone(),
            d: DistanceMatrix::build(s.cluster(), s.comm().cores(), &cfg.dist),
            cfg,
        }
    }

    fn p(&self) -> u32 {
        self.comm.size() as u32
    }

    /// The mapping `Session::mapping(mapper, pattern)` must return.
    pub fn mapping(&self, mapper: Mapper, pattern: PatternKind) -> Option<Vec<u32>> {
        let (d, seed, p) = (&self.d, self.cfg.seed, self.p());
        if pattern == PatternKind::Rd && !p.is_power_of_two() && mapper != Mapper::MvapichCyclic {
            return None;
        }
        let groups = || groups_by_node(&self.comm, &self.cluster);
        Some(match (mapper, pattern) {
            (Mapper::MvapichCyclic, _) => {
                mvapich_cyclic_reorder(p as usize, self.cluster.cores_per_node())
            }
            (Mapper::Hrstc, PatternKind::Rd) => rdmh(d, seed),
            (Mapper::Hrstc, PatternKind::Ring) => rmh(d, seed),
            (Mapper::Hrstc, PatternKind::Bruck) => bkmh(d, seed),
            (Mapper::Hrstc, PatternKind::BinomialBcast) => bbmh(d, seed),
            (Mapper::Hrstc, PatternKind::BinomialGather) => bgmh(d, seed),
            (Mapper::Hrstc, PatternKind::Hier(inter, intra)) => {
                hierarchical_mapping(d, &groups()?, inter, intra, HierMapper::Heuristic, seed)?
            }
            (Mapper::ScotchLike | Mapper::ScotchTuned, PatternKind::Hier(inter, intra)) => {
                hierarchical_mapping(d, &groups()?, inter, intra, HierMapper::ScotchLike, seed)?
            }
            (Mapper::ScotchLike, flat) => {
                let graph = pattern_graph_unweighted(&flat_schedule(flat, p));
                scotch_like_map_with(&graph, d, seed, ScotchVariant::PaperDefault)
            }
            (Mapper::ScotchTuned, flat) => {
                let graph = pattern_graph(&flat_schedule(flat, p), 1);
                scotch_like_map_with(&graph, d, seed, ScotchVariant::Tuned)
            }
            (Mapper::Greedy, flat) => greedy_map(&pattern_graph(&flat_schedule(flat, p), 1), d),
        })
    }

    /// Assert that `s` returns the reference mapping for (mapper, pattern).
    pub fn assert_mapping(&self, s: &mut Session, mapper: Mapper, pattern: PatternKind, tag: &str) {
        let got = s.mapping(mapper, pattern).map(|info| info.mapping.clone());
        assert_eq!(
            got,
            self.mapping(mapper, pattern),
            "{tag}: {mapper:?}/{pattern:?}"
        );
    }

    /// The communicator `scheme` runs over, with `pattern`'s reference
    /// mapping when reordered.
    fn comm_for(&self, scheme: Scheme, pattern: PatternKind) -> Communicator {
        match scheme {
            Scheme::Default => self.comm.clone(),
            Scheme::Reordered { mapper, .. } => {
                let m = self.mapping(mapper, pattern).expect("supported pattern");
                self.comm.reordered(&m)
            }
        }
    }

    fn model(&self) -> StageModel<'_> {
        StageModel::new(&self.cluster, self.cfg.net.clone())
    }

    /// `sched` with `scheme`'s §V-B fix: prefixed with the initComm stage
    /// of `pattern`'s reference mapping under `InitComm`; `true` when the
    /// end shuffle must be added under `EndShuffle`.
    fn with_fix(&self, sched: Schedule, scheme: Scheme, pattern: PatternKind) -> (Schedule, bool) {
        match scheme {
            Scheme::Reordered {
                mapper,
                fix: OrderFix::InitComm,
            } => {
                let m = self.mapping(mapper, pattern).expect("supported pattern");
                (init_comm_schedule(&m).then(sched), false)
            }
            Scheme::Reordered {
                fix: OrderFix::EndShuffle,
                ..
            } => (sched, true),
            _ => (sched, false),
        }
    }

    /// Price `sched` over `comm`, plus the end shuffle when `shuffle`.
    fn time(&self, sched: &Schedule, comm: &Communicator, bytes: u64, shuffle: bool) -> f64 {
        let t = time_schedule(sched, comm, &self.model(), bytes);
        if shuffle {
            t + self.cfg.net.memcpy.shuffle_time(self.p() as usize, bytes)
        } else {
            t
        }
    }

    /// `Session::allgather_time`.
    pub fn allgather_time(&self, msg_bytes: u64, scheme: Scheme) -> f64 {
        let p = self.p();
        let alg = select_allgather(p, msg_bytes);
        let pattern = match alg {
            AllgatherAlg::RecursiveDoubling => PatternKind::Rd,
            AllgatherAlg::Ring => PatternKind::Ring,
            AllgatherAlg::Bruck => PatternKind::Bruck,
        };
        let comm = self.comm_for(scheme, pattern);
        if alg == AllgatherAlg::Ring {
            // The ring stores blocks in place: no fix cost (§V-B). Its
            // materialized schedule is O(P²) operations, so it is priced
            // through the analytic form tarr-mpi pins to the compiled one.
            return TimedSchedule::ring_allgather(p).time(&comm, &self.model(), msg_bytes);
        }
        let (sched, shuffle) = self.with_fix(alg.schedule(p), scheme, pattern);
        self.time(&sched, &comm, msg_bytes, shuffle)
    }

    /// `Session::hierarchical_allgather_time`.
    pub fn hierarchical_allgather_time(
        &self,
        msg_bytes: u64,
        hcfg: HierarchicalConfig,
        scheme: Scheme,
    ) -> Option<f64> {
        let p = self.p();
        let groups = groups_by_node(&self.comm, &self.cluster)?;
        if hcfg.inter == InterAlg::RecursiveDoubling && !groups.len().is_power_of_two() {
            return None;
        }
        let pattern = PatternKind::Hier(hcfg.inter, hcfg.intra);
        let groups = match scheme {
            Scheme::Default => groups,
            Scheme::Reordered {
                mapper: mapper @ (Mapper::Hrstc | Mapper::ScotchLike),
                ..
            } => reordered_groups(&groups, &self.mapping(mapper, pattern)?),
            Scheme::Reordered { .. } => return None,
        };
        let (sched, shuffle) = self.with_fix(hierarchical(p, &groups, hcfg), scheme, pattern);
        let comm = self.comm_for(scheme, pattern);
        Some(self.time(&sched, &comm, msg_bytes, shuffle))
    }

    /// `Session::gather_time`.
    pub fn gather_time(&self, msg_bytes: u64, scheme: Scheme) -> f64 {
        let pattern = PatternKind::BinomialGather;
        let (sched, shuffle) = self.with_fix(binomial_gather(self.p(), Rank(0)), scheme, pattern);
        let comm = self.comm_for(scheme, pattern);
        self.time(&sched, &comm, msg_bytes, shuffle)
    }

    /// `Session::bcast_time`: the broadcast needs no ordering fix.
    pub fn bcast_time(&self, bytes: u64, scheme: Scheme) -> f64 {
        let comm = self.comm_for(scheme, PatternKind::BinomialBcast);
        self.time(
            &binomial_bcast(self.p(), Rank(0), bytes),
            &comm,
            bytes,
            false,
        )
    }

    /// `Session::allreduce_time` over the RDMH mapping.
    pub fn allreduce_time(&self, vector_bytes: u64, rabenseifner: bool, scheme: Scheme) -> f64 {
        let sched = if rabenseifner {
            rabenseifner_allreduce(self.p(), vector_bytes)
        } else {
            rd_allreduce(self.p(), vector_bytes)
        };
        let comm = self.comm_for(scheme, PatternKind::Rd);
        self.time(&sched, &comm, vector_bytes, false)
    }

    /// `Session::allgatherv_time`: a ring whose block `b` on the reordered
    /// communicator is the contribution of original rank `m[b]`.
    pub fn allgatherv_time(&self, sizes: &[u64], scheme: Scheme) -> f64 {
        let sizes: Vec<u64> = match scheme {
            Scheme::Default => sizes.to_vec(),
            Scheme::Reordered { mapper, .. } => self
                .mapping(mapper, PatternKind::Ring)
                .expect("ring mappings always exist")
                .iter()
                .map(|&old| sizes[old as usize])
                .collect(),
        };
        let comm = self.comm_for(scheme, PatternKind::Ring);
        let sched = AllgatherAlg::Ring.schedule(self.p());
        time_schedule_sized(&sched, &comm, &self.model(), &sizes)
    }
}

/// The flat communication pattern a graph-based mapper reads.
fn flat_schedule(pattern: PatternKind, p: u32) -> Schedule {
    match pattern {
        PatternKind::Rd => AllgatherAlg::RecursiveDoubling.schedule(p),
        PatternKind::Ring => AllgatherAlg::Ring.schedule(p),
        PatternKind::Bruck => AllgatherAlg::Bruck.schedule(p),
        PatternKind::BinomialBcast => binomial_bcast(p, Rank(0), 1),
        PatternKind::BinomialGather => binomial_gather(p, Rank(0)),
        PatternKind::Hier(..) => unreachable!("hierarchical patterns have no flat schedule"),
    }
}
