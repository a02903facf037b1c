//! Before/after benchmark of the schedule-pricing hot path.
//!
//! The "before" is the pre-compilation executor, kept verbatim as
//! `tarr_mpi::timing::reference`: every call re-merges all P−1 stages of the
//! 4096-rank ring and re-hashes them into a memo table. The "after" is the
//! [`TimedSchedule`] pipeline this series introduced, measured in the three
//! shapes it is actually used:
//!
//! * `compiled_cold` — `time_schedule`, i.e. compile + price in one call
//!   (what a one-shot caller pays);
//! * `compiled_reuse` — pricing an already-compiled schedule at a new
//!   message size (what `Session` sweeps and `congestion_refine` pay per
//!   evaluation);
//! * `analytic_ring` — `TimedSchedule::ring_allgather(p)` + price (what
//!   `Session` actually executes for the ring region, never materializing
//!   the O(P²)-op dense ring schedule).
//!
//! Every variant is asserted bit-identical to the reference before anything
//! is timed. A full (unfiltered) `cargo bench --bench timing` run finishes
//! by re-measuring the same quantities directly and writing the
//! machine-readable summary to `BENCH_timing.json` at the workspace root,
//! including the tarr-trace instrumentation overhead on the compiled
//! pricing sweep (asserted under 2% with the recorder enabled).

use std::sync::Arc;
use std::time::Instant;

use tarr_collectives::allgather::ring;
use tarr_collectives::gather::{binomial_gather, chain_gather};
use tarr_core::{refine, Mapper, PatternKind, Scheme, Session, SessionConfig};
use tarr_faults::FaultSet;
use tarr_mapping::InitialMapping;
use tarr_mpi::{time_schedule, timing, Communicator, Schedule, TimedSchedule};
use tarr_netsim::{NetParams, StageModel};
use tarr_topo::{Cluster, CoreId, Rank};

const P: u32 = 4096;
const MSG: u64 = 65536;

struct Fixture {
    cluster: Cluster,
    comm: Communicator,
    sched: Schedule,
}

impl Fixture {
    fn new() -> Self {
        let cluster = Cluster::gpc((P / 8) as usize);
        let comm = Communicator::new((0..P as usize).map(CoreId::from_idx).collect());
        let sched = ring(P);
        Fixture {
            cluster,
            comm,
            sched,
        }
    }

    fn model(&self) -> StageModel<'_> {
        StageModel::new(&self.cluster, NetParams::default())
    }
}

/// A deliberately scattered cyclic layout, so refinement proposals have
/// distance and contention left to trade.
fn cyclic_comm(cluster: &Cluster, p: usize) -> Communicator {
    let cpn = cluster.cores_per_node();
    let nodes = cluster.total_cores() / cpn;
    let cores: Vec<CoreId> = (0..p)
        .map(|r| CoreId::from_idx((r % nodes) * cpn + (r / nodes) % cpn))
        .collect();
    Communicator::new(cores)
}

/// Best (minimum) wall-clock seconds of `reps` runs of `work` — the
/// noise-robust estimator for comparing two configurations of a
/// sub-millisecond region: the minimum is the run least disturbed by
/// scheduling and frequency noise, so the delta between configurations
/// stops going negative when the true difference is under the noise floor.
fn best_secs(reps: usize, mut work: impl FnMut() -> f64) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = work();
            let dt = t.elapsed().as_secs_f64();
            assert!(out.is_finite());
            dt
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median wall-clock seconds of `reps` runs of `work`.
fn median_secs(reps: usize, mut work: impl FnMut() -> f64) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = work();
            let dt = t.elapsed().as_secs_f64();
            assert!(out.is_finite());
            dt
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Refinement throughput: reference (full re-price per proposal) vs the
/// delta pricer, on the two gather shapes that bracket the stage-sparsity
/// spectrum. Returns the `"refine"` JSON object.
fn refine_summary() -> String {
    let cluster = Cluster::gpc((P / 8) as usize);
    let comm = cyclic_comm(&cluster, P as usize);
    let params = NetParams::default();
    let mut entries = Vec::new();
    // (schedule, reference proposals, delta proposals): counts sized so each
    // measured call runs tens of milliseconds or more.
    for (name, sched, props_ref, props_delta) in [
        ("chain", chain_gather(P, Rank(0)), 200usize, 5000usize),
        ("binomial", binomial_gather(P, Rank(0)), 200, 1000),
    ] {
        // Bit-identical climbs at an equal proposal budget before timing.
        let ident: Vec<u32> = (0..P).collect();
        let (m_delta, t_delta) = refine::congestion_refine(
            &cluster,
            &comm,
            &sched,
            4096,
            &params,
            ident.clone(),
            60,
            11,
        );
        let (m_ref, t_ref) = refine::reference::congestion_refine(
            &cluster,
            &comm,
            &sched,
            4096,
            &params,
            ident.clone(),
            60,
            11,
        );
        assert_eq!(m_delta, m_ref, "{name}: refined mapping diverged");
        assert_eq!(t_delta.to_bits(), t_ref.to_bits(), "{name}: time diverged");

        let ref_s = median_secs(3, || {
            refine::reference::congestion_refine(
                &cluster,
                &comm,
                &sched,
                4096,
                &params,
                ident.clone(),
                props_ref,
                1,
            )
            .1
        });
        let delta_s = median_secs(3, || {
            refine::congestion_refine(
                &cluster,
                &comm,
                &sched,
                4096,
                &params,
                ident.clone(),
                props_delta,
                1,
            )
            .1
        });
        let ref_us = ref_s / props_ref as f64 * 1e6;
        let delta_us = delta_s / props_delta as f64 * 1e6;
        let speedup = ref_us / delta_us;
        if name == "chain" {
            assert!(
                speedup >= 10.0,
                "delta refinement speedup {speedup:.1}x on the chain gather \
                 is below the 10x acceptance bound \
                 (reference {ref_us:.1} us/proposal, delta {delta_us:.2})",
            );
        }
        entries.push(format!(
            r#"    "{name}": {{
      "stages": {stages},
      "reference_us_per_proposal": {ref_us:.2},
      "delta_us_per_proposal": {delta_us:.3},
      "speedup": {speedup:.1}
    }}"#,
            stages = sched.stages.len(),
        ));
    }
    format!(
        "{{\n    \"p\": {P},\n    \"equal_output\": true,\n{}\n  }}",
        entries.join(",\n")
    )
}

/// One-cable re-convergence on a 65,536-rank session over the GPC fabric
/// exported as an irregular switch graph (so the fault-local BFS repair
/// path engages), then one cold hrstc ring remap on the degraded oracle.
/// Returns the `"fault_repair"` JSON object.
fn fault_summary() -> String {
    let ranks = 65_536usize;
    // 256 switches x 32 nodes x 8 cores = 65,536 ranks; the central
    // diagonal is a trunk-1 cable, so one failed cable removes a whole edge
    // and the fault-local BFS repair must rebuild the trees that crossed it.
    let (cluster, (sw_a, sw_b)) = tarr_bench::chorded_mesh_cluster(32);
    let switches = cluster.fabric().to_switch_graph().switches;
    let mut session = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_BUNCH,
        ranks,
        SessionConfig::default(),
    );
    // Warm the compiled-schedule and stage-price caches: the timed region
    // below is pure re-convergence, not first-touch compilation. The 512 B
    // probe compiles to recursive doubling, whose 17 unique stages give the
    // stage-selective re-pricer survivors to keep.
    let probes = [MSG, 512];
    for msg in probes {
        session.allgather_time(msg, Scheme::Default);
    }
    let set = FaultSet {
        failed_cables: vec![(sw_a, sw_b, 1)],
        ..FaultSet::default()
    };
    // Timed: the two probes priced before the fault, the fault, and the
    // same probes priced on a fresh handle onto the degraded core.
    let t = Instant::now();
    for msg in probes {
        session.allgather_time(msg, Scheme::Default);
    }
    let (degraded, report) = session
        .core()
        .apply_faults(&set)
        .expect("one leaf uplink cannot partition the GPC fabric");
    session = Arc::new(degraded).handle();
    for msg in probes {
        session.allgather_time(msg, Scheme::Default);
    }
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.summary.cables_removed, 1);
    assert!(
        report.summary.dist_rows_rebuilt > 0,
        "edge removal must dirty rows"
    );
    assert!(
        report.summary.dist_rows_reused > 0,
        "a single cable must not dirty every BFS row"
    );
    assert!(
        apply_ms < 1000.0,
        "one-cable re-convergence took {apply_ms:.1} ms at {ranks} ranks"
    );

    // Contrast: tear the session down and rebuild it cold on the degraded
    // cluster, re-pricing the same probes from nothing.
    let degraded = session.cluster().clone();
    let cores = session.comm().cores().to_vec();
    let t = Instant::now();
    let mut cold = Session::new(degraded, cores, SessionConfig::default());
    let cold_big = cold.allgather_time(MSG, Scheme::Default);
    let cold_small = cold.allgather_time(512, Scheme::Default);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    for (cold_t, warm_t) in [
        (cold_big, session.allgather_time(MSG, Scheme::Default)),
        (cold_small, session.allgather_time(512, Scheme::Default)),
    ] {
        assert_eq!(
            cold_t.to_bits(),
            warm_t.to_bits(),
            "incremental re-convergence diverged from the cold rebuild"
        );
    }

    // Post-fault remap: the first hrstc ring mapping on the degraded
    // session, bucket-context build included.
    let t = Instant::now();
    let remapped = session
        .mapping(Mapper::Hrstc, PatternKind::Ring)
        .expect("hrstc maps a ring at any size");
    let remap_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        remapped.mapping,
        cold.mapping(Mapper::Hrstc, PatternKind::Ring)
            .expect("hrstc maps a ring at any size")
            .mapping,
        "post-fault remap diverged from the cold session's mapping"
    );

    format!(
        r#"{{
    "p": {ranks},
    "switches": {switches},
    "cables_removed": 1,
    "apply_ms": {apply_ms:.2},
    "cold_rebuild_ms": {cold_ms:.2},
    "remap_ms": {remap_ms:.2},
    "dist_rows_rebuilt": {rows_rebuilt},
    "dist_rows_reused": {rows_reused},
    "price_stages_repriced": {repriced},
    "price_stages_reused": {reused},
    "equal_output": true
  }}"#,
        rows_rebuilt = report.summary.dist_rows_rebuilt,
        rows_reused = report.summary.dist_rows_reused,
        repriced = report.price_stages_repriced,
        reused = report.price_stages_reused,
    )
}

/// Direct before/after measurement, written as `BENCH_timing.json`.
fn write_summary() {
    let f = Fixture::new();
    let model = f.model();
    // The figure-harness sweep shape: one schedule priced at every message
    // size of the paper's x-axis.
    let sweep: [u64; 8] = [1, 64, 512, 4096, 16384, 65536, 131072, 262144];

    // Equal output, bit-exact, across the full sweep before any timing.
    let ts = TimedSchedule::compile(&f.sched);
    for &m in &sweep {
        let want = timing::reference::time_schedule(&f.sched, &f.comm, &model, m);
        assert_eq!(want, time_schedule(&f.sched, &f.comm, &model, m));
        assert_eq!(want, ts.time(&f.comm, &model, m));
        assert_eq!(
            want,
            TimedSchedule::ring_allgather(P).time(&f.comm, &model, m)
        );
    }

    let reference_s = median_secs(5, || {
        timing::reference::time_schedule(&f.sched, &f.comm, &model, MSG)
    });
    let cold_s = median_secs(5, || time_schedule(&f.sched, &f.comm, &model, MSG));
    let reuse_s = median_secs(25, || ts.time(&f.comm, &model, MSG));
    let analytic_s = median_secs(25, || {
        TimedSchedule::ring_allgather(P).time(&f.comm, &model, MSG)
    });
    let sweep_ref_s = median_secs(3, || {
        sweep
            .iter()
            .map(|&m| timing::reference::time_schedule(&f.sched, &f.comm, &model, m))
            .sum()
    });
    let sweep_new_s = median_secs(3, || {
        let ts = TimedSchedule::compile(&f.sched);
        sweep.iter().map(|&m| ts.time(&f.comm, &model, m)).sum()
    });

    // Instrumentation overhead on the pricing hot path: the full sweep over
    // the pre-compiled schedule, with the tarr-trace recorder off (one
    // relaxed atomic load per site) and on (spans + counters buffered).
    // Measured last so the enabled phase cannot pollute the numbers above.
    // Best-of-N per configuration: the true overhead is near the timer
    // noise floor, and a median of interleaved runs can come out *negative*
    // (the −0.22% a previous run of this file recorded). The minimum of
    // each configuration is its least-disturbed run, and the reported delta
    // clamps at zero — "no measurable overhead" rather than a nonsense
    // negative cost.
    let trace_off_s = best_secs(50, || {
        sweep
            .iter()
            .map(|&m| ts.time(&f.comm, &model, m))
            .sum::<f64>()
    });
    tarr_trace::set_enabled(true);
    let trace_on_s = best_secs(50, || {
        sweep
            .iter()
            .map(|&m| ts.time(&f.comm, &model, m))
            .sum::<f64>()
    });
    tarr_trace::set_enabled(false);
    tarr_trace::reset();
    let trace_overhead_raw_pct = (trace_on_s / trace_off_s - 1.0) * 100.0;
    let trace_overhead_pct = trace_overhead_raw_pct.max(0.0);
    assert!(
        trace_overhead_pct < 2.0,
        "tracing overhead {trace_overhead_pct:.2}% on the compiled pricing \
         sweep exceeds the 2% acceptance bound \
         (off {:.4} ms, on {:.4} ms)",
        trace_off_s * 1e3,
        trace_on_s * 1e3,
    );

    let refine_json = refine_summary();
    let fault_json = fault_summary();

    let json = format!(
        r#"{{
  "benchmark": "time_schedule on the {p}-rank ring allgather ({stages} stages, {ops} ops), GPC cluster, 64 KiB blocks",
  "equal_output": true,
  "reference_ms": {ref_ms:.3},
  "compiled_cold_ms": {cold_ms:.3},
  "compiled_reuse_ms": {reuse_ms:.4},
  "analytic_ring_ms": {analytic_ms:.4},
  "speedup_cold": {s_cold:.2},
  "speedup_reuse": {s_reuse:.1},
  "speedup_analytic": {s_analytic:.1},
  "sweep": {{
    "sizes": {n_sizes},
    "reference_ms": {sw_ref:.3},
    "compiled_ms": {sw_new:.3},
    "speedup": {sw_speedup:.2}
  }},
  "trace_overhead": {{
    "disabled_ms": {tr_off:.4},
    "enabled_ms": {tr_on:.4},
    "overhead_pct": {tr_pct:.2},
    "overhead_raw_pct": {tr_raw:.2}
  }},
  "refine": {refine_json},
  "fault_repair": {fault_json}
}}
"#,
        p = P,
        stages = f.sched.stages.len(),
        ops = f.sched.num_ops(),
        ref_ms = reference_s * 1e3,
        cold_ms = cold_s * 1e3,
        reuse_ms = reuse_s * 1e3,
        analytic_ms = analytic_s * 1e3,
        s_cold = reference_s / cold_s,
        s_reuse = reference_s / reuse_s,
        s_analytic = reference_s / analytic_s,
        n_sizes = sweep.len(),
        sw_ref = sweep_ref_s * 1e3,
        sw_new = sweep_new_s * 1e3,
        sw_speedup = sweep_ref_s / sweep_new_s,
        tr_off = trace_off_s * 1e3,
        tr_on = trace_on_s * 1e3,
        tr_pct = trace_overhead_pct,
        tr_raw = trace_overhead_raw_pct,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_timing.json");
    std::fs::write(path, &json).expect("write BENCH_timing.json");
    println!("wrote {path}");
    print!("{json}");
}

fn main() {
    // Only a whole `cargo bench` run (which passes `--bench`) rewrites the
    // summary. A benchmark-name filter (`cargo bench -- reference`), test
    // mode (`-- --test`) or a bare `cargo test --benches` run skips it: a
    // partial or smoke run should not overwrite the committed numbers.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full_run = args.iter().any(|a| a == "--bench")
        && args.iter().all(|a| a.starts_with('-') && a != "--test");
    if full_run {
        write_summary();
    }
}
