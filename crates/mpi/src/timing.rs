//! Timed execution of schedules on the network models.
//!
//! * [`TimedSchedule`] — a schedule compiled for pricing: per stage, ops are
//!   merged to one entry per `(sender, receiver)` pair (rank reordering is a
//!   bijection, so rank-level merging equals the core-level merging the
//!   models need) and structurally identical stages are deduplicated. The
//!   ring algorithm repeats one communication stage `p − 1` times, so its
//!   compiled form holds **one** unique stage — and
//!   [`TimedSchedule::ring_allgather`] builds that form analytically in
//!   O(P), never materializing the O(P²)-op dense schedule at all. A
//!   compiled schedule is reusable across message sizes and communicators.
//! * **Size-parametric payloads.** A merged op carries `blocks` units of a
//!   per-stage quantity plus literal `raw` bytes; the unit becomes bytes
//!   only at pricing time. For allgather and gather the unit is the block
//!   size itself. Broadcast and allreduce move one unit per op, and each
//!   unique stage carries a *halving shift* `s`: its unit is the request's
//!   byte count `b` for `s = 0`, and `max(b >> s, 1)` otherwise — the
//!   `1/2^s` share of the vector that Rabenseifner's reduce-scatter and
//!   allgather stages exchange. [`TimedSchedule::binomial_bcast`],
//!   [`TimedSchedule::binomial_gather`], [`TimedSchedule::rd_allreduce`]
//!   and [`TimedSchedule::rabenseifner_allreduce`] build those compiled
//!   forms analytically in O(P log P), so every collective compiles once
//!   and is priced at any size.
//! * **Size-free stage profiles.** [`TimedSchedule::time_with_profiles`]
//!   prices every unique stage from its [`StageProfile`] — the stage routed
//!   once over a communicator and reduced to a few `(α, ρ)` terms — held in
//!   a [`StageProfiles`] set, so a second size over the same schedule and
//!   communicator routes nothing. The set is the one per-stage state a
//!   caller keeps; prices are bit-identical to [`TimedSchedule::time`].
//! * [`ring_allgatherv_time`] — the ring `MPI_Allgatherv` with per-block
//!   sizes, priced analytically in O(P) memory: variable sizes defeat the
//!   size-independent unique stage, so it rewrites one message buffer per
//!   stage instead of materializing the ring.
//! * [`time_schedule`] — synchronized-stage pricing on the analytic
//!   [`StageModel`]; compiles on the fly. Callers pricing the same schedule
//!   repeatedly (figure sweeps, refinement loops) should compile once and
//!   call [`TimedSchedule::time`].
//! * [`time_schedule_async`] — asynchronous execution on the fluid
//!   [`FlowEngine`] of the compiled schedule's merged ops: each rank
//!   advances to its next stage as soon as *its own* sends have drained and
//!   its expected receives have arrived, so ranks may run several stages
//!   apart — the behaviour of a real MPI implementation with
//!   eager/rendezvous point-to-point collectives.
//! * [`reference`](mod@reference) — the pre-compilation executors, kept verbatim as the
//!   differential-validation baseline for the compiled path.

use crate::comm::Communicator;
use crate::schedule::{Payload, Schedule};
use crate::stats::{hop_class, TrafficBreakdown};
use std::sync::{Arc, OnceLock};
use tarr_netsim::{
    fx_hash_one, FlowEngine, FlowLinks, FxHashMap, FxHasher, LinkIdx, Message, NetParams,
    StageModel, StageProfile,
};
use tarr_topo::Rank;
use tarr_trace::counter_add;

/// One merged per-stage transfer: everything rank `from` sends to rank `to`
/// within the stage, expressed size-independently (`blocks` units plus `raw`
/// literal bytes — resolved to bytes only at pricing time, see
/// [`TimedSchedule::stage_shifts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MergedOp {
    /// Sending rank.
    pub from: u32,
    /// Receiving rank.
    pub to: u32,
    /// Number of units carried (bytes = `blocks · unit`, where the unit is
    /// the priced size resolved through the stage's halving shift).
    pub blocks: u64,
    /// Raw payload bytes carried (broadcast/reduction traffic).
    pub raw: u64,
}

/// Sentinel in [`TimedSchedule::stage_order`] for a stage with no operations.
pub const EMPTY_STAGE: u32 = u32::MAX;

/// A schedule compiled for repeated pricing: merged per-(sender, receiver)
/// transfers, with structurally identical stages stored once.
#[derive(Debug, Clone)]
pub struct TimedSchedule {
    p: u32,
    /// The distinct merged stages, in first-appearance order.
    uniq: Vec<Vec<MergedOp>>,
    /// Per unique stage, the halving shift that resolves the priced size to
    /// the stage's unit (see [`TimedSchedule::stage_shifts`]).
    shift: Vec<u8>,
    /// For every original stage, the index into `uniq` (or [`EMPTY_STAGE`]).
    order: Vec<u32>,
}

impl TimedSchedule {
    /// Compile a schedule: merge each stage's ops per `(from, to)` pair
    /// (first-seen order, matching the reference executors) and deduplicate
    /// identical merged stages under full structural equality.
    ///
    /// Two dedup levels keep repeated stages cheap. Merged content is a
    /// pure function of the per-op `(from, to, blocks, raw)` key sequence
    /// (buffer slots don't survive merging), so a stage whose key sequence
    /// matches an already-compiled stage reuses that stage's merged form
    /// with **no** merge work — the ring's P−1 slot-rotated repetitions of
    /// one communication stage all take this path. Candidates for that
    /// comparison are found by a cheap fingerprint of the length and the
    /// first few keys; the full key-by-key comparison then both *verifies*
    /// the match and *is* the only pass over the stage's ops, so repeated
    /// stages cost one touch per op. Stages that miss are merged through an
    /// epoch-stamped chained index (no hashing per op) and deduplicated
    /// once more on the merged content. Fingerprints only gate; equality
    /// decides, so a collision costs a compare, never a wrong answer.
    pub fn compile(schedule: &Schedule) -> Self {
        /// Ops hashed into the candidate-selection fingerprint.
        const PREFIX: usize = 8;
        let mut span = tarr_trace::span("mpi.compile").arg("p", schedule.p);
        let mut ops_total = 0u64;
        let mut l1_hits = 0u64;
        let p = schedule.p as usize;
        let mut uniq: Vec<Vec<MergedOp>> = Vec::new();
        let mut order: Vec<u32> = Vec::with_capacity(schedule.stages.len());
        // Compiled representatives: the raw merge-key sequence of a stage
        // and the `uniq` slot it resolved to.
        let mut reps: Vec<(Vec<MergeKey>, u32)> = Vec::new();
        // Prefix fingerprint → candidate indices into `reps`.
        let mut by_prefix: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        // Merged-content fingerprint → candidate unique-stage indices.
        let mut by_merged: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        // Per-sender chained index into `merged`, stamped per stage so it
        // clears in O(1): head[from] → first merged op from that sender,
        // next[i] → the following one. Lookups are O(chain) with chains of
        // length 1 in every schedule in this workspace.
        let mut head: Vec<u32> = vec![u32::MAX; p];
        let mut stamp: Vec<u32> = vec![u32::MAX; p];
        let mut next: Vec<u32> = Vec::new();
        let mut merged: Vec<MergedOp> = Vec::new();

        for (si, stage) in schedule.stages.iter().enumerate() {
            ops_total += stage.ops.len() as u64;
            if stage.ops.is_empty() {
                order.push(EMPTY_STAGE);
                continue;
            }

            // Candidate fingerprint: length + the first PREFIX merge keys.
            let mut h = FxHasher::default();
            std::hash::Hash::hash(&stage.ops.len(), &mut h);
            for op in stage.ops.iter().take(PREFIX) {
                std::hash::Hash::hash(&merge_key(op), &mut h);
            }
            let pfp = std::hash::Hasher::finish(&h);

            // Level 1: raw-sequence dedup — one pass over the ops, comparing
            // against each candidate's stored key sequence.
            let hit = by_prefix.get(&pfp).and_then(|cands| {
                cands.iter().copied().find_map(|ri| {
                    let (keys, val) = &reps[ri as usize];
                    let equal = keys.len() == stage.ops.len()
                        && keys
                            .iter()
                            .zip(&stage.ops)
                            .all(|(k, op)| *k == merge_key(op));
                    equal.then_some(*val)
                })
            });
            if let Some(val) = hit {
                l1_hits += 1;
                order.push(val);
                continue;
            }

            // Level 2: extract the key sequence, merge it through the
            // chained index, then dedup on the merged content.
            let keys: Vec<MergeKey> = stage.ops.iter().map(merge_key).collect();
            merged.clear();
            next.clear();
            for &(from, to, blocks, raw) in &keys {
                let f = from as usize;
                if stamp[f] != si as u32 {
                    stamp[f] = si as u32;
                    head[f] = u32::MAX;
                }
                let mut at = head[f];
                while at != u32::MAX && merged[at as usize].to != to {
                    at = next[at as usize];
                }
                if at != u32::MAX {
                    let m = &mut merged[at as usize];
                    m.blocks += blocks;
                    m.raw += raw;
                } else {
                    next.push(head[f]);
                    head[f] = merged.len() as u32;
                    merged.push(MergedOp {
                        from,
                        to,
                        blocks,
                        raw,
                    });
                }
            }
            let h = fx_hash_one(&merged);
            let candidates = by_merged.entry(h).or_default();
            let k = match candidates
                .iter()
                .copied()
                .find(|&k| uniq[k as usize] == merged)
            {
                Some(k) => k,
                None => {
                    let k = uniq.len() as u32;
                    uniq.push(merged.clone());
                    candidates.push(k);
                    k
                }
            };
            order.push(k);
            by_prefix.entry(pfp).or_default().push(reps.len() as u32);
            reps.push((keys, k));
        }
        if tarr_trace::enabled() {
            span.record("stages", order.len());
            span.record("ops", ops_total);
            span.record("unique_stages", uniq.len());
            span.record("dedup_l1_hits", l1_hits);
            counter_add!("mpi.compile.calls", 1);
            counter_add!("mpi.compile.stages", order.len() as u64);
            counter_add!("mpi.compile.ops", ops_total);
            counter_add!("mpi.compile.unique_stages", uniq.len() as u64);
            counter_add!("mpi.compile.dedup_l1_hits", l1_hits);
        }
        TimedSchedule {
            p: schedule.p,
            shift: vec![0; uniq.len()],
            uniq,
            order,
        }
    }

    /// The compiled ring allgather for `p` ranks, built analytically in
    /// O(P): one unique stage (every rank forwards one block to its
    /// successor) repeated `p − 1` times. Identical to
    /// `compile(&ring(p))` — which would cost O(P²) ops to even
    /// materialize — because merging discards the per-stage slot rotation.
    pub fn ring_allgather(p: u32) -> Self {
        counter_add!("mpi.compile.analytic_ring", 1);
        if p <= 1 {
            return TimedSchedule {
                p,
                uniq: Vec::new(),
                shift: Vec::new(),
                order: Vec::new(),
            };
        }
        let stage: Vec<MergedOp> = (0..p).map(|i| unit_op(i, (i + 1) % p)).collect();
        TimedSchedule {
            p,
            uniq: vec![stage],
            shift: vec![0],
            order: vec![0; (p - 1) as usize],
        }
    }

    /// The compiled binomial broadcast from rank 0 (the halving tree of
    /// `tarr_collectives::bcast::binomial_bcast`), built in O(P) without a
    /// materialized schedule. Every op carries one unit and every stage has
    /// shift 0, so pricing at `b` bytes sends `b` bytes per op.
    pub fn binomial_bcast(p: u32) -> Self {
        counter_add!("mpi.compile.analytic_bcast", 1);
        let levels = p.next_power_of_two().trailing_zeros();
        let uniq: Vec<Vec<MergedOp>> = (0..levels)
            .map(|k| {
                let step = 1u32 << (levels - 1 - k);
                (0..p - step)
                    .step_by(2 * step as usize)
                    .map(|r| unit_op(r, r + step))
                    .collect()
            })
            .collect();
        TimedSchedule {
            p,
            shift: vec![0; uniq.len()],
            order: (0..uniq.len() as u32).collect(),
            uniq,
        }
    }

    /// The compiled binomial gather to rank 0 (the tree of
    /// `tarr_collectives::gather::binomial_gather`), built in O(P) without
    /// a materialized schedule: in stage `k`, every relative rank
    /// `r ∈ {2ᵏ, 3·2ᵏ, …}` sends its accumulated `min(2ᵏ, p − r)` blocks to
    /// `r − 2ᵏ`. No two ops of a stage share a sender and no two stages
    /// share a sender set, so merging and dedup are identities and the
    /// stages are stored in order.
    pub fn binomial_gather(p: u32) -> Self {
        counter_add!("mpi.compile.analytic_gather", 1);
        let levels = p.next_power_of_two().trailing_zeros();
        let uniq: Vec<Vec<MergedOp>> = (0..levels)
            .map(|k| {
                let step = 1u32 << k;
                (step..p)
                    .step_by(2 * step as usize)
                    .map(|r| MergedOp {
                        from: r,
                        to: r - step,
                        blocks: u64::from(step.min(p - r)),
                        raw: 0,
                    })
                    .collect()
            })
            .collect();
        TimedSchedule {
            p,
            shift: vec![0; uniq.len()],
            order: (0..uniq.len() as u32).collect(),
            uniq,
        }
    }

    /// The compiled recursive-doubling allreduce: stage `k` exchanges the
    /// whole vector (shift 0) with the XOR partner at distance `2^k`.
    ///
    /// # Panics
    /// Panics unless `p` is a power of two.
    pub fn rd_allreduce(p: u32) -> Self {
        assert!(
            p.is_power_of_two(),
            "recursive doubling needs a power-of-two p"
        );
        counter_add!("mpi.compile.analytic_allreduce", 1);
        let log_p = p.trailing_zeros();
        TimedSchedule {
            p,
            uniq: (0..log_p).map(|k| xor_stage(p, 1 << k)).collect(),
            shift: vec![0; log_p as usize],
            order: (0..log_p).collect(),
        }
    }

    /// The compiled Rabenseifner allreduce: a recursive-halving
    /// reduce-scatter whose stage `k` exchanges `1/2^(k+1)` of the vector
    /// with the XOR partner at distance `p/2^(k+1)`, then the mirrored
    /// recursive-doubling allgather. Allgather stage `j` repeats
    /// reduce-scatter stage `log p − 1 − j` exactly — same partners, same
    /// share — so the schedule holds `log p` unique stages, unique stage `k`
    /// with shift `k + 1`, priced at `max(b >> (k + 1), 1)` bytes per op.
    ///
    /// # Panics
    /// Panics unless `p` is a power of two.
    pub fn rabenseifner_allreduce(p: u32) -> Self {
        assert!(p.is_power_of_two(), "Rabenseifner needs a power-of-two p");
        counter_add!("mpi.compile.analytic_allreduce", 1);
        let log_p = p.trailing_zeros();
        TimedSchedule {
            p,
            uniq: (0..log_p).map(|k| xor_stage(p, p >> (k + 1))).collect(),
            shift: (1..=log_p as u8).collect(),
            order: (0..log_p).chain((0..log_p).rev()).collect(),
        }
    }

    /// Communicator size the schedule was compiled for.
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Number of original (pre-dedup) stages.
    pub fn num_stages(&self) -> usize {
        self.order.len()
    }

    /// Number of distinct merged stages that actually get priced.
    pub fn num_unique_stages(&self) -> usize {
        self.uniq.len()
    }

    /// The distinct merged stages, in first-appearance order. Index `k` of
    /// this slice is the unique-stage id that [`TimedSchedule::stage_order`]
    /// refers to.
    pub fn unique_stages(&self) -> &[Vec<MergedOp>] {
        &self.uniq
    }

    /// Per unique stage, the halving shift `s` that turns the priced size
    /// `b` into the stage's unit: `b` itself for `s = 0` (every allgather,
    /// gather and broadcast stage, and recursive-doubling allreduce), and
    /// `max(b >> s, 1)` otherwise (Rabenseifner's `1/2^s` vector shares).
    /// An op carries `blocks` units plus `raw` bytes.
    pub fn stage_shifts(&self) -> &[u8] {
        &self.shift
    }

    /// The byte size of one unit of unique stage `k` priced at `b` bytes.
    #[inline]
    fn unit(&self, k: usize, b: u64) -> u64 {
        match self.shift[k] {
            0 => b,
            s => (b >> s).max(1),
        }
    }

    /// For every original stage, the unique-stage id it deduplicated to, or
    /// [`EMPTY_STAGE`] for a stage with no operations. Summing per-unique
    /// stage times along this order reproduces [`TimedSchedule::time`]'s
    /// accumulation exactly (same float additions in the same sequence).
    pub fn stage_order(&self) -> &[u32] {
        &self.order
    }

    /// Price unique stage `k` under `comm` on `model`, reusing `msgs` as
    /// scratch. This is exactly the per-stage computation inside
    /// [`TimedSchedule::time`], exposed so incremental cache layers (delta
    /// swap pricing, stage-selective re-pricing) can refresh single entries.
    pub fn price_unique_stage(
        &self,
        k: u32,
        comm: &Communicator,
        model: &StageModel<'_>,
        block_bytes: u64,
        msgs: &mut Vec<Message>,
    ) -> f64 {
        self.resolve(k, comm, block_bytes, msgs);
        let t = model.stage_time(msgs);
        record_stage_price(t);
        t
    }

    /// Total latency with every unique stage priced from its
    /// [`StageProfile`] in `profiles`, routing a stage only when its
    /// profile is not built yet. Bit-identical to [`TimedSchedule::time`]:
    /// a profile prices exactly as [`StageModel::stage_time`] does (see
    /// [`StageProfile`]).
    ///
    /// # Panics
    /// Panics if `profiles.len()` differs from the number of unique stages.
    pub fn time_with_profiles(
        &self,
        comm: &Communicator,
        model: &StageModel<'_>,
        block_bytes: u64,
        profiles: &StageProfiles,
    ) -> f64 {
        assert_eq!(
            profiles.len(),
            self.uniq.len(),
            "profiles/schedule size mismatch"
        );
        let (total, _) = self.accumulate(comm, block_bytes, |k| {
            let mut built = false;
            let profile = profiles.slots[k as usize].get_or_init(|| {
                built = true;
                Arc::new(self.stage_profile(k, comm, model))
            });
            if built {
                counter_add!("mpi.price.profile.miss", 1);
            } else {
                counter_add!("mpi.price.profile.hit", 1);
            }
            let t = profile.time(self.unit(k as usize, block_bytes));
            record_stage_price(t);
            t
        });
        total
    }

    /// The size-free [`StageProfile`] of unique stage `k` under `comm`:
    /// the stage routed once, priceable at any size.
    pub fn stage_profile(
        &self,
        k: u32,
        comm: &Communicator,
        model: &StageModel<'_>,
    ) -> StageProfile {
        let ops = &self.uniq[k as usize];
        model.stage_profile(
            ops.len(),
            |i| {
                (
                    comm.core_of(Rank(ops[i].from)),
                    comm.core_of(Rank(ops[i].to)),
                )
            },
            |i| (ops[i].blocks, ops[i].raw),
        )
    }

    /// Sum the stage prices along the original stage order, pricing each
    /// unique stage once with `price`. Returns the total and the price of
    /// every unique stage.
    fn accumulate(
        &self,
        comm: &Communicator,
        block_bytes: u64,
        mut price: impl FnMut(u32) -> f64,
    ) -> (f64, Vec<f64>) {
        assert_eq!(self.p as usize, comm.size(), "schedule/comm size mismatch");
        let mut cache = vec![f64::NAN; self.uniq.len()];
        let _span = tarr_trace::span("mpi.price")
            .arg("p", self.p)
            .arg("block_bytes", block_bytes)
            .arg("stages", self.order.len())
            .arg("unique_stages", self.uniq.len());
        let mut total = 0.0;
        for &k in &self.order {
            if k == EMPTY_STAGE {
                continue;
            }
            let mut t = cache[k as usize];
            if t.is_nan() {
                t = price(k);
                cache[k as usize] = t;
            }
            total += t;
        }
        (total, cache)
    }

    /// [`accumulate`](Self::accumulate) with every unique stage routed.
    fn time_routed(
        &self,
        comm: &Communicator,
        model: &StageModel<'_>,
        block_bytes: u64,
    ) -> (f64, Vec<f64>) {
        let mut msgs: Vec<Message> = Vec::new();
        self.accumulate(comm, block_bytes, |k| {
            self.price_unique_stage(k, comm, model, block_bytes, &mut msgs)
        })
    }

    /// Resolve unique stage `k` to messages under `comm` and `block_bytes`.
    fn resolve(&self, k: u32, comm: &Communicator, block_bytes: u64, msgs: &mut Vec<Message>) {
        msgs.clear();
        let unit = self.unit(k as usize, block_bytes);
        for m in &self.uniq[k as usize] {
            msgs.push(Message::new(
                comm.core_of(Rank(m.from)),
                comm.core_of(Rank(m.to)),
                m.blocks * unit + m.raw,
            ));
        }
    }

    /// Total synchronized-stage latency under `comm` on `model`, with
    /// per-block size `block_bytes`. Each unique stage is priced once;
    /// accumulation runs in original stage order, so the result is
    /// bit-identical to the reference executor's memoized sum.
    pub fn time(&self, comm: &Communicator, model: &StageModel<'_>, block_bytes: u64) -> f64 {
        let (total, _) = self.time_routed(comm, model, block_bytes);
        counter_add!("mpi.price.calls", 1);
        total
    }

    /// Per-stage latency profile (one entry per original stage; empty stages
    /// price as zero). Summing the profile equals [`TimedSchedule::time`].
    pub fn time_profile(
        &self,
        comm: &Communicator,
        model: &StageModel<'_>,
        block_bytes: u64,
    ) -> Vec<f64> {
        let (_, cache) = self.time_routed(comm, model, block_bytes);
        self.order
            .iter()
            .map(|&k| {
                if k == EMPTY_STAGE {
                    0.0
                } else {
                    cache[k as usize]
                }
            })
            .collect()
    }

    /// Per-original-stage [`TrafficBreakdown`]s under `comm` on `cluster`
    /// (one entry per stage, empty stages all-zero). Each *unique* merged
    /// stage is classified once and the result replayed along the stage
    /// order, so this stays cheap on dedup-friendly schedules (the analytic
    /// ring classifies P pairs, not P² ops). Merging preserves per-`(from,
    /// to)` byte totals and classification depends only on the endpoint
    /// pair, so the entries equal a per-op classification of the source
    /// schedule exactly (pinned by the `stats` tests).
    pub fn traffic_breakdown_stages(
        &self,
        comm: &Communicator,
        cluster: &tarr_topo::Cluster,
        block_bytes: u64,
    ) -> Vec<TrafficBreakdown> {
        assert_eq!(self.p as usize, comm.size(), "schedule/comm size mismatch");
        let per_uniq: Vec<TrafficBreakdown> = self
            .uniq
            .iter()
            .enumerate()
            .map(|(k, stage)| {
                let unit = self.unit(k, block_bytes);
                let mut out = TrafficBreakdown::default();
                for m in stage {
                    let src = comm.core_of(Rank(m.from));
                    let dst = comm.core_of(Rank(m.to));
                    out.add_class(hop_class(cluster, src, dst), m.blocks * unit + m.raw);
                }
                out
            })
            .collect();
        self.order
            .iter()
            .map(|&k| {
                if k == EMPTY_STAGE {
                    TrafficBreakdown::default()
                } else {
                    per_uniq[k as usize]
                }
            })
            .collect()
    }
}

/// Price a schedule with synchronized stage barriers.
///
/// Compiles on the fly; for repeated pricing of one schedule compile once
/// with [`TimedSchedule::compile`] and call [`TimedSchedule::time`].
pub fn time_schedule(
    schedule: &Schedule,
    comm: &Communicator,
    model: &StageModel<'_>,
    block_bytes: u64,
) -> f64 {
    assert_eq!(
        schedule.p as usize,
        comm.size(),
        "schedule/comm size mismatch"
    );
    TimedSchedule::compile(schedule).time(comm, model, block_bytes)
}

/// Price the ring `MPI_Allgatherv` under `comm`, where `sizes[b]` is the
/// byte count of block `b`. At stage `s ∈ 1..p` rank `i` forwards block
/// `(i + p − s + 1) % p` to rank `i + 1` — the rotation of
/// `tarr_collectives::allgather::ring` — so only the bytes change from stage
/// to stage. One message buffer is rewritten per stage and the O(P²)-op
/// ring is never materialized. A stage's bytes are a one-step rotation of
/// the previous stage's, equal to them only when every size is equal, so
/// uniform sizes price a single stage and reuse it. Stage times are pure
/// functions of their messages, so the sum is bit-identical to pricing the
/// materialized ring stage by stage.
pub fn ring_allgatherv_time(comm: &Communicator, model: &StageModel<'_>, sizes: &[u64]) -> f64 {
    let p = comm.size();
    assert_eq!(sizes.len(), p, "sizes/communicator mismatch");
    let uniform = sizes.windows(2).all(|w| w[0] == w[1]);
    let mut msgs: Vec<Message> = (0..p)
        .map(|i| {
            let to = Rank(((i + 1) % p) as u32);
            Message::new(comm.core_of(Rank(i as u32)), comm.core_of(to), 0)
        })
        .collect();
    let mut total = 0.0;
    let mut t = 0.0;
    for s in 1..p {
        if s == 1 || !uniform {
            for (i, m) in msgs.iter_mut().enumerate() {
                m.bytes = sizes[(i + p - s + 1) % p];
            }
            t = model.stage_time(&msgs);
        }
        total += t;
    }
    total
}

/// Count one priced unique stage and record its simulated time.
fn record_stage_price(t: f64) {
    if tarr_trace::enabled() {
        counter_add!("mpi.price.stages_priced", 1);
        tarr_trace::histogram("mpi.price.stage_sim_ns").record_f64(t * 1e9);
    }
}

/// The [`StageProfile`]s of one compiled schedule over one communicator:
/// one slot per unique stage, each built on first use by
/// [`TimedSchedule::time_with_profiles`] and then shared by every size
/// priced after it. Concurrent pricers of one stage build its profile once.
#[derive(Debug)]
pub struct StageProfiles {
    slots: Box<[OnceLock<Arc<StageProfile>>]>,
}

impl StageProfiles {
    /// A set of `unique_stages` unbuilt slots.
    pub fn new(unique_stages: usize) -> Self {
        StageProfiles {
            slots: (0..unique_stages).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of slots (the schedule's unique stages).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule has no unique stages.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The built profile of unique stage `k`, if any.
    pub fn get(&self, k: usize) -> Option<&Arc<StageProfile>> {
        self.slots[k].get()
    }

    /// Number of slots whose profile is built.
    pub fn built(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// A set of the same length that shares this set's built profile of
    /// every stage `keep` accepts and leaves the other slots unbuilt.
    pub fn carry(&self, keep: impl Fn(usize) -> bool) -> Self {
        StageProfiles {
            slots: self
                .slots
                .iter()
                .enumerate()
                .map(|(k, s)| match s.get() {
                    Some(p) if keep(k) => OnceLock::from(Arc::clone(p)),
                    _ => OnceLock::new(),
                })
                .collect(),
        }
    }
}

/// A merged op carrying one unit from `from` to `to`.
fn unit_op(from: u32, to: u32) -> MergedOp {
    MergedOp {
        from,
        to,
        blocks: 1,
        raw: 0,
    }
}

/// One XOR-exchange stage: every rank `i` sends one unit to `i ^ step`, in
/// rank order (the op order of the materialized allreduce schedules).
fn xor_stage(p: u32, step: u32) -> Vec<MergedOp> {
    (0..p).map(|i| unit_op(i, i ^ step)).collect()
}

/// The part of a [`SendOp`](crate::schedule::SendOp) that survives merging:
/// `(from, to, blocks, raw)`. Merged stage content is a pure function of the
/// per-op sequence of these keys, which is what makes the raw-sequence dedup
/// in [`TimedSchedule::compile`] sound.
type MergeKey = (u32, u32, u64, u64);

#[inline]
fn merge_key(op: &crate::schedule::SendOp) -> MergeKey {
    match op.payload {
        Payload::Blocks { len, .. } => (op.from.0, op.to.0, len as u64, 0),
        Payload::Raw { bytes } => (op.from.0, op.to.0, 0, bytes),
    }
}

/// The pre-compilation executors, kept **verbatim** as the
/// differential-validation baseline: the compiled path must reproduce these
/// sums bit-for-bit, and the committed `BENCH_timing.json` speedup is
/// measured against them.
pub mod reference {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    /// Reference synchronized-stage pricing (per-stage merge + memoized
    /// stage hash), exactly as shipped before the compiled path existed.
    pub fn time_schedule(
        schedule: &Schedule,
        comm: &Communicator,
        model: &StageModel<'_>,
        block_bytes: u64,
    ) -> f64 {
        assert_eq!(
            schedule.p as usize,
            comm.size(),
            "schedule/comm size mismatch"
        );
        let mut memo: HashMap<u64, f64> = HashMap::new();
        let mut total = 0.0;
        for stage in &schedule.stages {
            if stage.ops.is_empty() {
                continue;
            }
            let msgs = reference_merge_stage(stage, comm, block_bytes);
            let mut h = DefaultHasher::new();
            for m in &msgs {
                (m.src.0, m.dst.0, m.bytes).hash(&mut h);
            }
            let key = h.finish();
            let t = match memo.get(&key) {
                Some(&t) => t,
                None => {
                    let t = model.stage_time(&msgs);
                    memo.insert(key, t);
                    t
                }
            };
            total += t;
        }
        total
    }

    fn reference_merge_stage(
        stage: &crate::schedule::Stage,
        comm: &Communicator,
        block_bytes: u64,
    ) -> Vec<Message> {
        let mut index: HashMap<(u32, u32), usize> = HashMap::with_capacity(stage.ops.len());
        let mut msgs: Vec<Message> = Vec::with_capacity(stage.ops.len());
        for op in &stage.ops {
            let src = comm.core_of(op.from);
            let dst = comm.core_of(op.to);
            let bytes = op.payload.bytes(block_bytes);
            match index.entry((src.0, dst.0)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    msgs[*e.get()].bytes += bytes;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(msgs.len());
                    msgs.push(Message::new(src, dst, bytes));
                }
            }
        }
        msgs
    }
}

/// Price a schedule asynchronously on the fluid-flow engine.
///
/// Per-rank progression: a rank enters stage `s+1` once all its stage-`s`
/// sends have drained and all its stage-`s` receives have arrived. Senders
/// are eager — a flow starts when the *sender* reaches the stage, whether or
/// not the receiver is there yet.
pub fn time_schedule_async(
    schedule: &Schedule,
    comm: &Communicator,
    cluster: &tarr_topo::Cluster,
    params: &NetParams,
    block_bytes: u64,
) -> f64 {
    assert_eq!(
        schedule.p as usize,
        comm.size(),
        "schedule/comm size mismatch"
    );
    let _span = tarr_trace::span("mpi.price.async").arg("p", schedule.p);
    let p = comm.size();
    let n_stages = schedule.stages.len();
    if n_stages == 0 {
        return 0.0;
    }

    // Per rank and stage: outgoing ops (flow descriptors) and expected
    // receive counts.
    #[derive(Clone)]
    struct FlowDesc {
        path: Vec<LinkIdx>,
        bytes: u64,
        alpha: f64,
        to: usize,
        stage: usize,
        /// Message traverses no shared channel (same core — cannot happen
        /// with distinct cores, kept for safety): completes instantly for
        /// dependency purposes.
        local: bool,
    }

    let mut engine = FlowEngine::new();
    let mut links = FlowLinks::new(cluster, params);

    let mut sends: Vec<Vec<Vec<FlowDesc>>> = vec![vec![Vec::new(); n_stages]; p];
    let mut expected: Vec<Vec<u32>> = vec![vec![0; n_stages]; p];
    // Same merging rule as the synchronized executor: one flow per
    // (sender, receiver) pair and stage, in first-seen order.
    let ts = TimedSchedule::compile(schedule);
    for (si, &k) in ts.stage_order().iter().enumerate() {
        if k == EMPTY_STAGE {
            continue;
        }
        let unit = ts.unit(k as usize, block_bytes);
        for m in &ts.unique_stages()[k as usize] {
            let (from, to) = (m.from as usize, m.to as usize);
            let (path, alpha) = links.flow_path(
                &mut engine,
                comm.core_of(Rank(m.from)),
                comm.core_of(Rank(m.to)),
            );
            let local = path.is_empty();
            sends[from][si].push(FlowDesc {
                path,
                bytes: m.blocks * unit + m.raw,
                alpha,
                to,
                stage: si,
                local,
            });
            expected[to][si] += 1;
        }
    }

    // Runtime state.
    let mut stage_of: Vec<usize> = vec![0; p]; // current stage per rank
    let mut sends_left: Vec<u32> = vec![0; p]; // for the current stage
    let mut arrived: Vec<Vec<u32>> = vec![vec![0; n_stages]; p];
    let mut flow_meta: FxHashMap<usize, (usize, usize, usize)> = FxHashMap::default(); // flow -> (sender, receiver, stage)
    let mut finish_time = 0.0f64;
    let mut done_ranks = 0usize;

    // Inject the sends of rank `r`'s current stage as flows. Local
    // (pathless) ops complete instantly for dependency purposes.
    #[allow(clippy::too_many_arguments)]
    fn inject(
        r: usize,
        stage_of: &mut [usize],
        sends_left: &mut [u32],
        sends: &[Vec<Vec<FlowDesc>>],
        engine: &mut FlowEngine,
        flow_meta: &mut FxHashMap<usize, (usize, usize, usize)>,
        arrived: &mut [Vec<u32>],
    ) {
        let s = stage_of[r];
        let ops = &sends[r][s];
        sends_left[r] = 0;
        for d in ops {
            if d.local {
                // Completes immediately: receiver sees the arrival now.
                arrived[d.to][d.stage] += 1;
            } else {
                let id = engine.start_flow(d.path.clone(), d.bytes, d.alpha);
                flow_meta.insert(id.0, (r, d.to, d.stage));
                sends_left[r] += 1;
            }
        }
    }

    // A rank may advance (possibly through several empty stages).
    fn try_advance(
        r: usize,
        stage_of: &mut [usize],
        sends_left: &mut [u32],
        arrived: &[Vec<u32>],
        expected: &[Vec<u32>],
        n_stages: usize,
        done_ranks: &mut usize,
    ) -> bool {
        // Returns true if the rank moved to a new (unstarted) stage.
        let s = stage_of[r];
        if s >= n_stages {
            return false;
        }
        if sends_left[r] == 0 && arrived[r][s] >= expected[r][s] {
            stage_of[r] = s + 1;
            if stage_of[r] == n_stages {
                *done_ranks += 1;
                return false;
            }
            return true;
        }
        false
    }

    // Bootstrap: everyone starts stage 0.
    for r in 0..p {
        inject(
            r,
            &mut stage_of,
            &mut sends_left,
            &sends,
            &mut engine,
            &mut flow_meta,
            &mut arrived,
        );
    }
    // Cascade advances at t = 0 (empty stages, local-only stages).
    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..p {
            if try_advance(
                r,
                &mut stage_of,
                &mut sends_left,
                &arrived,
                &expected,
                n_stages,
                &mut done_ranks,
            ) {
                inject(
                    r,
                    &mut stage_of,
                    &mut sends_left,
                    &sends,
                    &mut engine,
                    &mut flow_meta,
                    &mut arrived,
                );
                progressed = true;
            }
        }
    }

    while done_ranks < p {
        let Some((t, completed)) = engine.next_completions() else {
            panic!("schedule deadlocked: ranks waiting but no active flows");
        };
        finish_time = t;
        for f in completed {
            let (sender, receiver, stage) = flow_meta.remove(&f.0).expect("unknown flow");
            // Sender bookkeeping (flows always belong to the sender's current
            // stage at injection time).
            if stage_of[sender] == stage {
                sends_left[sender] -= 1;
            }
            arrived[receiver][stage] += 1;
        }
        // Cascade all possible advances.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for r in 0..p {
                if try_advance(
                    r,
                    &mut stage_of,
                    &mut sends_left,
                    &arrived,
                    &expected,
                    n_stages,
                    &mut done_ranks,
                ) {
                    inject(
                        r,
                        &mut stage_of,
                        &mut sends_left,
                        &sends,
                        &mut engine,
                        &mut flow_meta,
                        &mut arrived,
                    );
                    progressed = true;
                }
            }
        }
    }
    engine.trace_flush();
    finish_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{SendOp, Stage};
    use tarr_topo::{Cluster, CoreId};

    fn line_comm(n: usize) -> Communicator {
        Communicator::new((0..n).map(CoreId::from_idx).collect())
    }

    #[test]
    fn sync_time_sums_stage_times() {
        let cluster = Cluster::gpc(2);
        let comm = line_comm(16);
        let model = StageModel::new(&cluster, NetParams::default());
        let mut sched = Schedule::new(16);
        sched.push(Stage::new(vec![SendOp::blocks(0, 1, 0, 1)]));
        sched.push(Stage::new(vec![SendOp::blocks(0, 8, 0, 1)]));
        let t = time_schedule(&sched, &comm, &model, 1024);
        let t1 = model.stage_time(&[Message::new(CoreId(0), CoreId(1), 1024)]);
        let t2 = model.stage_time(&[Message::new(CoreId(0), CoreId(8), 1024)]);
        assert!((t - (t1 + t2)).abs() < 1e-15);
    }

    #[test]
    fn memoization_keeps_repeated_stages_consistent() {
        let cluster = Cluster::gpc(2);
        let comm = line_comm(16);
        let model = StageModel::new(&cluster, NetParams::default());
        let mut once = Schedule::new(16);
        once.push(Stage::new(vec![SendOp::blocks(0, 8, 0, 1)]));
        let t_once = time_schedule(&once, &comm, &model, 4096);
        let mut many = Schedule::new(16);
        for _ in 0..10 {
            many.push(Stage::new(vec![SendOp::blocks(0, 8, 0, 1)]));
        }
        let t_many = time_schedule(&many, &comm, &model, 4096);
        assert!((t_many - 10.0 * t_once).abs() < 1e-12);
        assert_eq!(TimedSchedule::compile(&many).num_unique_stages(), 1);
    }

    #[test]
    fn empty_schedule_is_free() {
        let cluster = Cluster::gpc(1);
        let comm = line_comm(4);
        let model = StageModel::new(&cluster, NetParams::default());
        let sched = Schedule::new(4);
        assert_eq!(time_schedule(&sched, &comm, &model, 1024), 0.0);
        assert_eq!(
            time_schedule_async(&sched, &comm, &cluster, &NetParams::default(), 1024),
            0.0
        );
    }

    #[test]
    fn compiled_matches_reference_exactly() {
        let cluster = Cluster::gpc(4);
        let comm = line_comm(32);
        let model = StageModel::new(&cluster, NetParams::default());
        for sched in [tarr_rd(32), mixed_schedule()] {
            for bytes in [0u64, 1, 1024, 1 << 20] {
                let r = reference::time_schedule(&sched, &comm, &model, bytes);
                let n = time_schedule(&sched, &comm, &model, bytes);
                assert_eq!(r, n, "bytes {bytes}");
                let rp = reference_profile(&sched, &comm, &model, bytes);
                let np = TimedSchedule::compile(&sched).time_profile(&comm, &model, bytes);
                assert_eq!(rp, np, "profile, bytes {bytes}");
            }
        }
    }

    #[test]
    fn compiled_reuse_across_sizes_and_comms() {
        let cluster = Cluster::gpc(4);
        let comm = line_comm(32);
        let reordered = comm.reordered(&{
            let mut m: Vec<u32> = (0..32).rev().collect();
            m.rotate_left(1);
            m
        });
        let model = StageModel::new(&cluster, NetParams::default());
        let sched = tarr_rd(32);
        let ts = TimedSchedule::compile(&sched);
        for c in [&comm, &reordered] {
            for bytes in [64u64, 4096, 1 << 18] {
                assert_eq!(
                    ts.time(c, &model, bytes),
                    reference::time_schedule(&sched, c, &model, bytes)
                );
            }
        }
    }

    // Reference per-stage profile: each stage priced alone by the reference
    // executor (an empty stage prices as zero).
    fn reference_profile(
        sched: &Schedule,
        comm: &Communicator,
        model: &StageModel<'_>,
        bytes: u64,
    ) -> Vec<f64> {
        sched
            .stages
            .iter()
            .map(|stage| {
                let mut one = Schedule::new(sched.p);
                one.push(stage.clone());
                reference::time_schedule(&one, comm, model, bytes)
            })
            .collect()
    }

    // A schedule exercising merging (two ops, same endpoints), raw payloads
    // and an empty stage.
    fn mixed_schedule() -> Schedule {
        let mut sched = Schedule::new(32);
        sched.push(Stage::new(vec![
            SendOp::blocks(0, 8, 0, 1),
            SendOp::blocks(0, 8, 4, 2),
            SendOp::raw(1, 9, 777),
        ]));
        sched.push(Stage::new(Vec::new()));
        sched.push(Stage::new(vec![SendOp::raw(8, 0, 123)]));
        sched
    }

    #[test]
    fn async_matches_sync_for_single_chain() {
        // A strict chain 0→1→2 has no overlap to exploit: async == sync.
        let cluster = Cluster::gpc(2);
        let comm = line_comm(16);
        let params = NetParams::default();
        let model = StageModel::new(&cluster, params.clone());
        let mut sched = Schedule::new(16);
        sched.push(Stage::new(vec![SendOp::blocks(0, 8, 0, 1)]));
        sched.push(Stage::new(vec![SendOp::blocks(8, 15, 0, 1)]));
        let sync = time_schedule(&sched, &comm, &model, 1 << 16);
        let asynch = time_schedule_async(&sched, &comm, &cluster, &params, 1 << 16);
        assert!(
            (sync - asynch).abs() / sync < 1e-9,
            "sync {sync} async {asynch}"
        );
    }

    #[test]
    fn async_exploits_independent_progress() {
        // Rank 0's only op sits in stage 2 but depends on nothing: the async
        // model starts it at t = 0 and overlaps it with the stage-1 transfer
        // on disjoint links; the sync model serializes the two stages.
        let cluster = Cluster::gpc(4);
        let comm = line_comm(32);
        let params = NetParams::default();
        let model = StageModel::new(&cluster, params.clone());
        let mut sched = Schedule::new(32);
        sched.push(Stage::new(vec![SendOp::blocks(16, 24, 16, 1)])); // node 2 → 3
        sched.push(Stage::new(vec![SendOp::blocks(0, 8, 0, 1)])); // node 0 → 1
        let sync = time_schedule(&sched, &comm, &model, 1 << 20);
        let asynch = time_schedule_async(&sched, &comm, &cluster, &params, 1 << 20);
        assert!(
            asynch < 0.6 * sync,
            "async {asynch} should overlap, sync {sync}"
        );
    }

    #[test]
    fn profile_sums_to_total_and_shows_stage_growth() {
        let cluster = Cluster::gpc(4);
        let comm = line_comm(32);
        let model = StageModel::new(&cluster, NetParams::default());
        let sched = tarr_rd(32);
        let profile = TimedSchedule::compile(&sched).time_profile(&comm, &model, 2048);
        let total = time_schedule(&sched, &comm, &model, 2048);
        assert_eq!(profile.len(), 5); // log2(32)
        assert!((profile.iter().sum::<f64>() - total).abs() < 1e-15);
        // RD's late stages carry exponentially more bytes: the last stage
        // must dominate the first.
        assert!(profile[4] > 4.0 * profile[0], "{profile:?}");
    }

    // Minimal RD generator (avoids a dev-dependency on tarr-collectives).
    fn tarr_rd(p: u32) -> Schedule {
        let mut sched = Schedule::new(p);
        let mut s = 0u32;
        while (1u32 << s) < p {
            let step = 1u32 << s;
            let mut ops = Vec::new();
            for i in 0..p {
                ops.push(SendOp::blocks(i, i ^ step, (i >> s) << s, step));
            }
            sched.push(Stage::new(ops));
            s += 1;
        }
        sched
    }

    // Minimal ring generator mirroring tarr-collectives' `ring(p)`.
    fn tarr_ring(p: u32) -> Schedule {
        let mut sched = Schedule::new(p);
        for s in 1..p {
            let mut ops = Vec::with_capacity(p as usize);
            for i in 0..p {
                let b = (i + p - s + 1) % p;
                ops.push(SendOp {
                    from: Rank(i),
                    to: Rank((i + 1) % p),
                    payload: Payload::Blocks {
                        src_slot: b,
                        dst_slot: b,
                        len: 1,
                    },
                });
            }
            sched.push(Stage::new(ops));
        }
        sched
    }

    #[test]
    fn analytic_ring_equals_compiled_dense_ring() {
        let cluster = Cluster::gpc(3);
        let comm = line_comm(24);
        let model = StageModel::new(&cluster, NetParams::default());
        for p in [2u32, 3, 8, 24] {
            let analytic = TimedSchedule::ring_allgather(p);
            let dense = TimedSchedule::compile(&tarr_ring(p));
            assert_eq!(analytic.uniq, dense.uniq, "p = {p}");
            assert_eq!(analytic.order, dense.order, "p = {p}");
        }
        let analytic = TimedSchedule::ring_allgather(24);
        assert_eq!(analytic.num_unique_stages(), 1);
        assert_eq!(
            analytic.time(&comm, &model, 4096),
            reference::time_schedule(&tarr_ring(24), &comm, &model, 4096)
        );
    }

    #[test]
    fn shifted_stages_halve_the_priced_size_down_to_one_byte() {
        let cluster = Cluster::gpc(1);
        let comm = line_comm(8);
        let model = StageModel::new(&cluster, NetParams::default());
        let ts = TimedSchedule::rabenseifner_allreduce(8);
        assert_eq!(ts.stage_shifts(), &[1, 2, 3]);
        assert_eq!(ts.stage_order(), &[0, 1, 2, 2, 1, 0]);
        let mut msgs = Vec::new();
        // Unique stage 0: partner distance 4, half of 6 bytes.
        ts.price_unique_stage(0, &comm, &model, 6, &mut msgs);
        assert_eq!(msgs[0], Message::new(CoreId(0), CoreId(4), 3));
        assert!(msgs.iter().all(|m| m.bytes == 3), "{msgs:?}");
        // Unique stage 2: partner distance 1, 6 >> 3 = 0 clamps to 1 byte.
        ts.price_unique_stage(2, &comm, &model, 6, &mut msgs);
        assert_eq!(msgs[0], Message::new(CoreId(0), CoreId(1), 1));
        assert!(msgs.iter().all(|m| m.bytes == 1), "{msgs:?}");
    }

    #[test]
    fn ring_allgather_degenerate_sizes() {
        assert_eq!(TimedSchedule::ring_allgather(0).num_stages(), 0);
        assert_eq!(TimedSchedule::ring_allgather(1).num_stages(), 0);
    }

    #[test]
    fn async_respects_receive_dependencies() {
        // Rank 8 cannot forward before receiving: total ≥ both transfers.
        let cluster = Cluster::gpc(3);
        let comm = line_comm(24);
        let params = NetParams::default();
        let mut sched = Schedule::new(24);
        sched.push(Stage::new(vec![SendOp::blocks(0, 8, 0, 1)]));
        sched.push(Stage::new(vec![SendOp::blocks(8, 16, 0, 1)]));
        let bytes = 1u64 << 20;
        let t = time_schedule_async(&sched, &comm, &cluster, &params, bytes);
        // Each hop needs at least bytes/bandwidth on the HCA links.
        let min_each = bytes as f64 / params.hca.bandwidth_bps;
        assert!(t >= 2.0 * min_each, "t = {t}");
    }
}
