//! Congestion-aware mapping refinement — the direction the paper's future
//! work points at (and its authors' follow-up PTRAM line): the fine-tuned
//! heuristics minimize weighted *distance* but are blind to *contention*,
//! which tests in this workspace show can make a distance-optimal mapping
//! slower (BGMH clustering all gather hubs around the root fans every
//! mid-stage flow into one region).
//!
//! [`congestion_refine`] closes that gap: seeded random-restart hill
//! climbing over pairwise rank swaps, with the **simulated schedule latency
//! itself** (the analytic max-congestion model) as the objective. It can
//! only improve the mapping it is given, so it composes with any heuristic:
//! run RDMH/RMH/BBMH/BGMH for a strong distance-aware start, then buy back
//! the contention the greedy placement ignored.
//!
//! Proposals are priced **incrementally**: a pairwise swap can only change
//! the stages whose `(from, to)` pairs involve the two swapped ranks, so
//! the production path runs a [`DeltaPricer`] (per-rank → affected-stage
//! index over the compiled schedule, scratch communicator mutated in place)
//! instead of a full re-price per proposal. The
//! [`reference`](mod@reference) module keeps the full re-price path as the
//! differential baseline; both paths share one hill-climbing loop, so they
//! consume the identical RNG stream and must produce bit-identical results
//! — which the differential tests pin.
//!
//! The loop also refuses to pay for repeat proposals: under strict hill
//! climbing, a pair already rejected since the last accepted swap would be
//! rejected again (the state is unchanged, so its price is unchanged), so
//! such draws are skipped and surfaced as `refine.proposals_wasted`.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tarr_mapping::MapError;
use tarr_mpi::{Communicator, DeltaPricer, Schedule, TimedSchedule};
use tarr_netsim::{NetParams, StageModel};
use tarr_topo::{Cluster, Rank};

/// One way to price a pairwise-swap proposal. Both implementations go
/// through the same [`hill_climb`] loop; the contract is that `propose`
/// leaves the strategy in the post-swap state until `accept` or `revert`
/// resolves it.
trait SwapPricer {
    fn propose(&mut self, a: u32, b: u32) -> f64;
    fn accept(&mut self);
    fn revert(&mut self);
}

/// Production strategy: delta pricing on the compiled schedule.
struct DeltaStrategy<'s, 'm, 'c> {
    pricer: DeltaPricer<'s>,
    model: &'m StageModel<'c>,
    block_bytes: u64,
}

impl SwapPricer for DeltaStrategy<'_, '_, '_> {
    fn propose(&mut self, a: u32, b: u32) -> f64 {
        self.pricer.propose_swap(a, b, self.model, self.block_bytes)
    }
    fn accept(&mut self) {
        self.pricer.accept();
    }
    fn revert(&mut self) {
        self.pricer.revert();
    }
}

/// Baseline strategy: full re-price of every stage per proposal, on a
/// scratch communicator mutated in place (no per-proposal allocation).
struct FullRepriceStrategy<'s, 'm, 'c> {
    ts: &'s TimedSchedule,
    comm: Communicator,
    model: &'m StageModel<'c>,
    block_bytes: u64,
    pending: Option<(u32, u32)>,
}

impl SwapPricer for FullRepriceStrategy<'_, '_, '_> {
    fn propose(&mut self, a: u32, b: u32) -> f64 {
        assert!(self.pending.is_none(), "unresolved proposal");
        self.comm.swap_ranks(Rank(a), Rank(b));
        self.pending = Some((a, b));
        self.ts.time(&self.comm, self.model, self.block_bytes)
    }
    fn accept(&mut self) {
        self.pending.take().expect("no outstanding proposal");
    }
    fn revert(&mut self) {
        let (a, b) = self.pending.take().expect("no outstanding proposal");
        self.comm.swap_ranks(Rank(a), Rank(b));
    }
}

/// Outcome of one hill-climbing run, with the proposal accounting the
/// trace layer surfaces.
struct ClimbOutcome {
    best: Vec<u32>,
    best_t: f64,
    accepted: u64,
    /// Proposals actually priced.
    effective: u64,
    /// Draws skipped because the pair was already rejected since the last
    /// accepted swap (re-pricing an unchanged state cannot accept).
    wasted: u64,
}

/// Strict hill climbing over pairwise swaps: shared by the delta and
/// full-reprice strategies so both consume the identical RNG stream and
/// skip logic. `best`/`best_t` seed the search (the strategy starts in the
/// matching state).
fn hill_climb(
    mut best: Vec<u32>,
    mut best_t: f64,
    proposals: usize,
    seed: u64,
    pricer: &mut impl SwapPricer,
) -> ClimbOutcome {
    let p = best.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = best.clone();
    let mut current_t = best_t;
    // Pairs rejected since the last accepted swap; cleared on accept
    // because every pair is worth re-pricing against the new state.
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let all_pairs = p * (p - 1) / 2;
    let (mut accepted, mut effective, mut wasted) = (0u64, 0u64, 0u64);
    for _ in 0..proposals {
        if seen.len() == all_pairs {
            // Every pair has been rejected against the current state: the
            // climb has converged and the remaining budget cannot accept.
            break;
        }
        let a = rng.gen_range(0..p);
        let mut b = rng.gen_range(0..p - 1);
        if b >= a {
            b += 1;
        }
        if !seen.insert((a.min(b) as u32, a.max(b) as u32)) {
            wasted += 1;
            continue;
        }
        effective += 1;
        let t = pricer.propose(a as u32, b as u32);
        current.swap(a, b);
        if t < current_t {
            current_t = t;
            accepted += 1;
            pricer.accept();
            seen.clear();
            if t < best_t {
                best_t = t;
                best.copy_from_slice(&current);
            }
        } else {
            // Revert the swap (strict hill climbing).
            current.swap(a, b);
            pricer.revert();
        }
    }
    ClimbOutcome {
        best,
        best_t,
        accepted,
        effective,
        wasted,
    }
}

/// Validate the refinement inputs; shared by both entry points.
fn check_inputs(mapping: &[u32], comm: &Communicator) -> Result<(), MapError> {
    if mapping.len() != comm.size() {
        return Err(MapError::LengthMismatch {
            len: mapping.len(),
            expected: comm.size(),
        });
    }
    if !tarr_mapping::is_permutation(mapping) {
        return Err(MapError::NotAPermutation { len: mapping.len() });
    }
    Ok(())
}

/// Refine `mapping` by pairwise swaps; returns the refined mapping and its
/// simulated latency. `proposals` bounds the number of candidate swaps
/// drawn (duplicate draws since the last accepted swap are skipped without
/// pricing; they still consume budget).
///
/// Fallible form of [`congestion_refine`]: rejects a mapping that is not a
/// permutation of the communicator's ranks with a typed [`MapError`]
/// instead of panicking.
#[allow(clippy::too_many_arguments)]
pub fn try_congestion_refine(
    cluster: &Cluster,
    comm: &Communicator,
    schedule: &Schedule,
    block_bytes: u64,
    params: &NetParams,
    mapping: Vec<u32>,
    proposals: usize,
    seed: u64,
) -> Result<(Vec<u32>, f64), MapError> {
    check_inputs(&mapping, comm)?;
    let model = StageModel::new(cluster, params.clone());
    // Each proposal re-prices the same schedule under a different
    // communicator: compile once, price many times.
    let ts = TimedSchedule::compile(schedule);
    if mapping.len() < 2 {
        let t = ts.time(&comm.reordered(&mapping), &model, block_bytes);
        return Ok((mapping, t));
    }

    let mut span = tarr_trace::span("core.congestion_refine")
        .arg("p", mapping.len())
        .arg("proposals", proposals);
    let start = comm.reordered(&mapping);
    let mut strategy = DeltaStrategy {
        pricer: DeltaPricer::new(&ts, &start, &model, block_bytes),
        model: &model,
        block_bytes,
    };
    let best_t = strategy.pricer.total();
    let out = hill_climb(mapping, best_t, proposals, seed, &mut strategy);
    if tarr_trace::enabled() {
        span.record("accepted", out.accepted);
        span.record("effective", out.effective);
        span.record("wasted", out.wasted);
        tarr_trace::counter_add!("refine.proposals", out.effective + out.wasted);
        tarr_trace::counter_add!("refine.proposals_wasted", out.wasted);
        tarr_trace::counter_add!("refine.accepted", out.accepted);
    }
    Ok((out.best, out.best_t))
}

/// Panicking form of [`try_congestion_refine`], kept for callers that
/// construct the mapping themselves and treat a bad one as a logic error.
///
/// # Panics
/// Panics if `mapping` is not a permutation matching the communicator size.
#[allow(clippy::too_many_arguments)]
pub fn congestion_refine(
    cluster: &Cluster,
    comm: &Communicator,
    schedule: &Schedule,
    block_bytes: u64,
    params: &NetParams,
    mapping: Vec<u32>,
    proposals: usize,
    seed: u64,
) -> (Vec<u32>, f64) {
    match try_congestion_refine(
        cluster,
        comm,
        schedule,
        block_bytes,
        params,
        mapping,
        proposals,
        seed,
    ) {
        Ok(r) => r,
        Err(e @ MapError::NotAPermutation { .. }) => panic!("not a permutation: {e}"),
        Err(e @ MapError::LengthMismatch { .. }) => panic!("mapping/communicator mismatch: {e}"),
    }
}

/// The full-reprice refinement path, kept as the differential baseline for
/// the delta pricer: every proposal prices every unique stage from scratch
/// ([`TimedSchedule::time`] on the scratch communicator — no per-proposal
/// allocation, the one historical inefficiency fixed here). Shares the
/// hill-climbing loop with the production path, so for identical inputs the
/// two must return bit-identical results.
pub mod reference {
    use super::*;

    /// Full-reprice twin of [`super::congestion_refine`].
    ///
    /// # Panics
    /// Panics if `mapping` is not a permutation matching the communicator
    /// size.
    #[allow(clippy::too_many_arguments)]
    pub fn congestion_refine(
        cluster: &Cluster,
        comm: &Communicator,
        schedule: &Schedule,
        block_bytes: u64,
        params: &NetParams,
        mapping: Vec<u32>,
        proposals: usize,
        seed: u64,
    ) -> (Vec<u32>, f64) {
        check_inputs(&mapping, comm).unwrap_or_else(|e| panic!("invalid refinement input: {e}"));
        let model = StageModel::new(cluster, params.clone());
        let ts = TimedSchedule::compile(schedule);
        if mapping.len() < 2 {
            let t = ts.time(&comm.reordered(&mapping), &model, block_bytes);
            return (mapping, t);
        }
        let mut strategy = FullRepriceStrategy {
            ts: &ts,
            comm: comm.reordered(&mapping),
            model: &model,
            block_bytes,
            pending: None,
        };
        let best_t = strategy.ts.time(&strategy.comm, &model, block_bytes);
        let out = hill_climb(mapping, best_t, proposals, seed, &mut strategy);
        (out.best, out.best_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarr_collectives::gather::binomial_gather;
    use tarr_mapping::{bgmh, InitialMapping};
    use tarr_mpi::time_schedule;
    use tarr_topo::{DistanceConfig, DistanceMatrix, Rank};

    fn setup(nodes: usize) -> (Cluster, Communicator) {
        let cluster = Cluster::gpc(nodes);
        let p = cluster.total_cores();
        let cores = InitialMapping::BLOCK_BUNCH.layout(&cluster, p);
        (cluster, Communicator::new(cores))
    }

    #[test]
    fn refinement_never_worsens() {
        let (cluster, comm) = setup(4);
        let sched = binomial_gather(32, Rank(0));
        let params = NetParams::default();
        let model = StageModel::new(&cluster, params.clone());
        let ident: Vec<u32> = (0..32).collect();
        let before = time_schedule(&sched, &comm.reordered(&ident), &model, 8192);
        let (refined, after) =
            congestion_refine(&cluster, &comm, &sched, 8192, &params, ident, 100, 1);
        assert!(after <= before);
        assert!(tarr_mapping::is_permutation(&refined));
    }

    #[test]
    fn repairs_bgmh_contention_blindness() {
        // BGMH's distance-optimal gather mapping is *slower* than the
        // identity on a block layout (all hub flows fan into one node);
        // congestion refinement must claw that back.
        let (cluster, comm) = setup(8);
        let p = 64u32;
        let sched = binomial_gather(p, Rank(0));
        let params = NetParams::default();
        let model = StageModel::new(&cluster, params.clone());

        let cores = comm.cores().to_vec();
        let d = DistanceMatrix::build(&cluster, &cores, &DistanceConfig::default());
        let greedy = bgmh(&d, 0);
        let greedy_t = time_schedule(&sched, &comm.reordered(&greedy), &model, 8192);

        let (_, refined_t) =
            congestion_refine(&cluster, &comm, &sched, 8192, &params, greedy, 600, 7);
        assert!(
            refined_t < greedy_t * 0.95,
            "refinement should repair contention: {greedy_t} -> {refined_t}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (cluster, comm) = setup(2);
        let sched = binomial_gather(16, Rank(0));
        let params = NetParams::default();
        let ident: Vec<u32> = (0..16).collect();
        let a = congestion_refine(&cluster, &comm, &sched, 1024, &params, ident.clone(), 50, 3);
        let b = congestion_refine(&cluster, &comm, &sched, 1024, &params, ident, 50, 3);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn single_rank_is_noop() {
        let cluster = Cluster::gpc(1);
        let comm = Communicator::new(vec![tarr_topo::CoreId(0)]);
        let sched = Schedule::new(1);
        let (m, t) = congestion_refine(
            &cluster,
            &comm,
            &sched,
            64,
            &NetParams::default(),
            vec![0],
            10,
            0,
        );
        assert_eq!(m, vec![0]);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn try_form_rejects_bad_inputs_typed() {
        let (cluster, comm) = setup(2); // 16 ranks
        let sched = binomial_gather(16, Rank(0));
        let params = NetParams::default();
        let short =
            try_congestion_refine(&cluster, &comm, &sched, 1024, &params, vec![0, 1, 2], 10, 0);
        assert_eq!(
            short.unwrap_err(),
            MapError::LengthMismatch {
                len: 3,
                expected: 16
            }
        );
        let mut dup: Vec<u32> = (0..16).collect();
        dup[5] = 4;
        let bad = try_congestion_refine(&cluster, &comm, &sched, 1024, &params, dup, 10, 0);
        assert_eq!(bad.unwrap_err(), MapError::NotAPermutation { len: 16 });
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn panicking_form_still_panics() {
        let (cluster, comm) = setup(2);
        let sched = binomial_gather(16, Rank(0));
        congestion_refine(
            &cluster,
            &comm,
            &sched,
            1024,
            &NetParams::default(),
            vec![0; 16],
            10,
            0,
        );
    }

    #[test]
    fn delta_matches_reference_bit_for_bit() {
        // The differential pin at small P; the P∈{512, 4096} cases live in
        // tests/refine_delta.rs.
        let (cluster, comm) = setup(3); // 24 ranks
        let sched = binomial_gather(24, Rank(0));
        let params = NetParams::default();
        for seed in [0u64, 1, 42] {
            let ident: Vec<u32> = (0..24).collect();
            let fast = congestion_refine(
                &cluster,
                &comm,
                &sched,
                4096,
                &params,
                ident.clone(),
                200,
                seed,
            );
            let slow = reference::congestion_refine(
                &cluster, &comm, &sched, 4096, &params, ident, 200, seed,
            );
            assert_eq!(fast.0, slow.0, "seed {seed}");
            assert_eq!(fast.1, slow.1, "seed {seed}");
        }
    }

    #[test]
    fn small_p_climb_terminates_when_pairs_exhausted() {
        // P = 2 has exactly one pair; a huge budget must not price it more
        // than a handful of times (once per accept-epoch).
        let cluster = Cluster::gpc(1);
        let comm = Communicator::new(vec![tarr_topo::CoreId(0), tarr_topo::CoreId(1)]);
        let mut sched = Schedule::new(2);
        sched.push(tarr_mpi::Stage::new(vec![tarr_mpi::SendOp::blocks(
            0, 1, 0, 1,
        )]));
        let (m, _) = congestion_refine(
            &cluster,
            &comm,
            &sched,
            1024,
            &NetParams::default(),
            vec![0, 1],
            1_000_000,
            9,
        );
        assert!(tarr_mapping::is_permutation(&m));
    }
}
