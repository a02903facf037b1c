//! replay_bench — cold boot vs. warm snapshot restore of a mapping-service
//! session, recorded in `BENCH_replay.json`.
//!
//! The persistence claim behind `tarr-serve --state-dir` is that restoring
//! a session from a snapshot is much cheaper than rebuilding it: a cold
//! boot re-ingests the cluster, recomputes every mapping, compiles every
//! schedule and re-prices every collective, while a warm restore decodes
//! the stored mappings and price totals and answers the same probes as
//! hits. The snapshot holds no compiled schedule and no communicator; a
//! warm price never reads either, so the restore never rebuilds them.
//!
//! The measurement, at the acceptance scale of p = 65,536 ranks (8,192
//! GPC nodes, 8 ranks each):
//!
//! 1. **Cold boot.** `build_core` from the ingest spec, then a scale-safe
//!    probe set: the HRSTC ring mapping plus prices across collectives,
//!    sizes and schemes. Every path is O(P)-memory (bucketed fine-tuned
//!    heuristics over the implicit oracle, analytically compiled
//!    schedules) — the O(P²) baseline mappers (`scotch`, `greedy`) that
//!    the small-scale differential `probe_suite` also covers are exactly
//!    what a 65,536-rank session cannot afford, cold *or* warm, so they
//!    are not part of the session being measured. This is the work a
//!    restarted daemon without a state dir repeats from scratch.
//! 2. **Snapshot.** `EngineSnapshot::capture` + `encode` of the warmed
//!    core — the bytes `tarr-serve`'s `snapshot` op writes to disk.
//! 3. **Warm restore.** `decode` + `ClusterState::restore` (distance
//!    oracle rebuild, mapping and price caches seeded) + the same probes,
//!    best of `WARM_REPS`. The probe answers must be
//!    **bit-identical** to the cold run's (floats compare as IEEE-754 bit
//!    patterns) — a restore that is fast but wrong counts for nothing.
//!
//! The full run asserts warm restore ≥ 10× faster than cold boot and
//! regenerates the JSON; `--test` (or any filter argument, as passed by
//! `cargo test --benches`) runs a small smoke cluster, asserts only
//! bit-identity, and leaves the committed numbers alone.

use std::sync::Arc;
use std::time::Instant;

use tarr_collectives::allgather::{HierarchicalConfig, InterAlg, IntraPattern};
use tarr_core::{Mapper, PatternKind, Scheme, SessionCore};
use tarr_mapping::OrderFix;
use tarr_replay::{
    BackendKind, ClusterState, EngineSnapshot, IngestSource, IngestSpec, LayoutKind,
};

/// Acceptance scale: 8,192 GPC nodes x 8 ranks = 65,536 ranks.
const FULL_NODES: u64 = 8192;
/// Smoke scale for `--test`: 64 nodes = 512 ranks.
const SMOKE_NODES: u64 = 64;
/// Warm restores per run; the best (minimum) time is recorded.
const WARM_REPS: usize = 3;

fn spec(nodes: u64) -> IngestSpec {
    IngestSpec {
        source: IngestSource::GpcNodes(nodes),
        layout: LayoutKind::BlockBunch,
        p: None,
        seed: Some(42),
        backend: BackendKind::Implicit,
        replace: false,
    }
}

/// Message sizes of the pricing sweep, the paper's 1 KiB – 16 MiB range.
const SIZES: [u64; 8] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
];

/// The session's work set: HRSTC mappings for all five communication
/// patterns plus a full message-size pricing sweep over the cache-backed
/// collectives — flat allgather, hierarchical allgather and gather across
/// schemes — what a mapping service that has answered a realistic mix of
/// requests actually holds. Scale-safe at 65,536 ranks (bucketed mappers,
/// compiled schedules), warms every cache kind (mapping, communicator,
/// schedule, price; the snapshot keeps the mappings and prices), and
/// renders floats as bit
/// patterns so "equal" means bit-identical. `bcast`/`allreduce` take the
/// same cached path but are left out, so the probe work matches the
/// committed `BENCH_replay.json` baseline.
fn probes(core: &Arc<SessionCore>) -> Vec<String> {
    let mut h = core.handle();
    let mut out = Vec::new();
    let patterns = [
        ("rd", PatternKind::Rd),
        ("ring", PatternKind::Ring),
        ("bruck", PatternKind::Bruck),
        ("bbcast", PatternKind::BinomialBcast),
        ("bgather", PatternKind::BinomialGather),
    ];
    for (label, pat) in patterns {
        let info = h.mapping(Mapper::Hrstc, pat).expect("hrstc mapping");
        out.push(format!(
            "map hrstc {label} = {}",
            info.mapping
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    let schemes: [(&str, Scheme); 3] = [
        ("default", Scheme::Default),
        (
            "hrstc/init_comm",
            Scheme::Reordered {
                mapper: Mapper::Hrstc,
                fix: OrderFix::InitComm,
            },
        ),
        (
            "hrstc/in_place",
            Scheme::Reordered {
                mapper: Mapper::Hrstc,
                fix: OrderFix::InPlace,
            },
        ),
    ];
    let hcfgs = [
        (
            "rd/binomial",
            HierarchicalConfig {
                inter: InterAlg::RecursiveDoubling,
                intra: IntraPattern::Binomial,
            },
        ),
        (
            "ring/binomial",
            HierarchicalConfig {
                inter: InterAlg::Ring,
                intra: IntraPattern::Binomial,
            },
        ),
        (
            "ring/linear",
            HierarchicalConfig {
                inter: InterAlg::Ring,
                intra: IntraPattern::Linear,
            },
        ),
    ];
    for bytes in SIZES {
        for (label, scheme) in schemes {
            let t = h.allgather_time(bytes, scheme);
            out.push(format!(
                "price allgather {bytes} {label} = {:016x}",
                t.to_bits()
            ));
        }
        for (label, scheme) in &schemes[..2] {
            for (hlabel, hcfg) in hcfgs {
                if let Some(t) = h.hierarchical_allgather_time(bytes, hcfg, *scheme) {
                    out.push(format!(
                        "price hier-allgather {bytes} {hlabel} {label} = {:016x}",
                        t.to_bits()
                    ));
                }
            }
            let t = h.gather_time(bytes, *scheme);
            out.push(format!(
                "price gather {bytes} {label} = {:016x}",
                t.to_bits()
            ));
        }
    }
    out
}

fn run(nodes: u64, write_json: bool) {
    let p = nodes * 8;
    eprintln!("replay_bench: cold boot of {p} ranks ({nodes} GPC nodes)...");

    // 1. Cold boot: ingest + map + compile + price, the full from-scratch cost.
    let t0 = Instant::now();
    let core = Arc::new(tarr_replay::build_core(&spec(nodes)).expect("build core"));
    let cold_probes = probes(&core);
    let cold_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "replay_bench: cold boot {cold_s:.3}s, {} probes",
        cold_probes.len()
    );

    // 2. Snapshot the warmed session, exactly as the `snapshot` op would.
    let snap = EngineSnapshot::capture(1, &[("gpc".to_string(), core)]).expect("capture");
    let bytes = snap.encode();
    let snapshot_bytes = bytes.len() as u64;
    eprintln!("replay_bench: snapshot {snapshot_bytes} bytes");

    // 3. Warm restore: decode + rebuild caches + answer the same probes.
    let mut warm_s = f64::INFINITY;
    let mut warm_probes = Vec::new();
    for _ in 0..WARM_REPS {
        let t0 = Instant::now();
        let decoded = EngineSnapshot::decode(&bytes).expect("decode");
        let (_, ref cs): (String, ClusterState) = decoded.clusters.into_iter().next().unwrap();
        let restored = Arc::new(cs.restore().expect("restore"));
        warm_probes = probes(&restored);
        warm_s = warm_s.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(
        cold_probes, warm_probes,
        "warm restore must answer the probe set bit-identically"
    );

    let speedup = cold_s / warm_s;
    eprintln!("replay_bench: warm restore {warm_s:.3}s -> {speedup:.1}x");

    if !write_json {
        return;
    }
    assert!(
        speedup >= 10.0,
        "warm restore must be >= 10x faster than cold boot (got {speedup:.1}x)"
    );
    let json = format!(
        "{{\n  \
         \"benchmark\": \"tarr-replay warm snapshot restore vs cold boot, GPC cluster, hrstc work set warmed\",\n  \
         \"p\": {p},\n  \
         \"gpc_nodes\": {nodes},\n  \
         \"probes\": {},\n  \
         \"cold_boot_s\": {cold_s:.6},\n  \
         \"warm_restore_s\": {warm_s:.6},\n  \
         \"speedup\": {speedup:.1},\n  \
         \"speedup_asserted\": true,\n  \
         \"snapshot_bytes\": {snapshot_bytes}\n}}\n",
        cold_probes.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay.json");
    std::fs::write(path, &json).expect("write BENCH_replay.json");
    eprintln!("replay_bench: wrote {path}");
}

fn main() {
    // `cargo test --benches` / a name filter runs the smoke pass and leaves
    // the committed numbers alone.
    let mut full_run = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => full_run = false,
            s if s.starts_with('-') => {}
            _ => full_run = false,
        }
    }
    if full_run {
        run(FULL_NODES, true);
    } else {
        run(SMOKE_NODES, false);
    }
}
