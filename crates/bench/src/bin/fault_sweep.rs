//! Seeded fault sweeps: how much latency a degraded fabric costs, and
//! whether topology-aware reordering still pays on it.
//!
//! For each process count and link-failure rate the harness draws seeded
//! random [`FaultSet`]s, applies them to a live [`Session`] with
//! [`Session::apply_faults`] (keyed cache invalidation + remap on the
//! degraded oracle), and prices every heuristic's use case before and after:
//!
//! * RDMH — recursive-doubling allgather, 512 B;
//! * RMH — ring allgather, 64 KiB (in-place fix);
//! * BBMH — binomial broadcast, 4 KiB;
//! * BGMH — binomial gather, 4 KiB;
//! * BKMH — Bruck allgather, 256 B, priced on a second session at P − 8
//!   ranks (Bruck is the non-power-of-two algorithm).
//!
//! Fault sets that partition the fabric are counted and skipped — the typed
//! [`FaultError::PartitionedFabric`] rejection *is* the correct behaviour.
//! After every surviving application the harness re-derives each heuristic's
//! mapping on the degraded fabric and asserts it is still a bijection.
//!
//! `--incremental` switches to the re-convergence benchmark instead: a
//! single-cable fault on a chorded-mesh session (65,536 ranks by default,
//! 4,096 under `--quick`) is applied to warm caches and timed end to end,
//! reporting how much of the distance and pricing state the fault-local
//! repair reused; a delta-priced `congestion_refine` climb is then pinned
//! against the full-reprice reference in the same (traced) process, so
//! `--trace-out` captures both `fault.repair.*` and
//! `refine.delta.stages_repriced`.
//!
//! Run: `cargo run -p tarr-bench --release --bin fault_sweep
//!       [--quick] [--incremental] [--procs N] [--link-fail R] [--seed S]
//!       [--cluster PATH|-] [--trace-out PATH] [--trace-chrome PATH]`

use tarr_bench::{chorded_mesh_cluster, load_cluster_snapshot, size_label, TraceOpts};
use tarr_collectives::gather::chain_gather;
use tarr_core::{refine, Mapper, PatternKind, ProbePoint, Scheme, Session, SessionConfig};
use tarr_faults::{FaultError, FaultRates, FaultSet};
use tarr_mapping::{is_permutation, InitialMapping, OrderFix};
use tarr_mpi::Communicator;
use tarr_netsim::NetParams;
use tarr_topo::{Cluster, CoreId, Rank};

/// One heuristic's use case: label, probe size, reordered scheme, and the
/// (mapper, pattern) whose mapping must stay bijective on the degraded
/// fabric. `bruck` marks the P − 8 companion session.
struct UseCase {
    label: &'static str,
    msg_bytes: u64,
    probe: fn(u64, Scheme) -> ProbePoint,
    scheme: Scheme,
    pattern: PatternKind,
    bruck: bool,
}

fn use_cases() -> Vec<UseCase> {
    vec![
        UseCase {
            label: "RDMH",
            msg_bytes: 512,
            probe: ProbePoint::allgather,
            scheme: Scheme::hrstc(OrderFix::InitComm),
            pattern: PatternKind::Rd,
            bruck: false,
        },
        UseCase {
            label: "RMH",
            msg_bytes: 64 * 1024,
            probe: ProbePoint::allgather,
            scheme: Scheme::hrstc(OrderFix::InPlace),
            pattern: PatternKind::Ring,
            bruck: false,
        },
        UseCase {
            label: "BBMH",
            msg_bytes: 4096,
            probe: ProbePoint::bcast,
            scheme: Scheme::hrstc(OrderFix::InPlace),
            pattern: PatternKind::BinomialBcast,
            bruck: false,
        },
        UseCase {
            label: "BGMH",
            msg_bytes: 4096,
            probe: ProbePoint::gather,
            scheme: Scheme::hrstc(OrderFix::InitComm),
            pattern: PatternKind::BinomialGather,
            bruck: false,
        },
        UseCase {
            label: "BKMH",
            msg_bytes: 256,
            probe: ProbePoint::allgather,
            scheme: Scheme::hrstc(OrderFix::InitComm),
            pattern: PatternKind::Bruck,
            bruck: true,
        },
    ]
}

/// Accumulated sweep results for one (P, rate) cell.
#[derive(Default)]
struct Cell {
    applied: usize,
    partitioned: usize,
    cables_removed: usize,
    /// Per use case: Σ default slowdown, Σ reordered improvement over the
    /// degraded Default (%), both over applied seeds.
    default_slowdown: Vec<f64>,
    reorder_improvement: Vec<f64>,
}

/// One seed's contribution to a cell, computed on a worker thread and
/// folded into the cell serially.
enum SeedOutcome {
    /// All use cases priced; per-case contributions in `cases` order.
    Applied {
        cables_removed: usize,
        default_slowdown: Vec<f64>,
        reorder_improvement: Vec<f64>,
    },
    /// The fault set partitioned the fabric — counted, not an error. The
    /// partial contributions of use cases priced before the partition was
    /// detected are kept, exactly as the serial loop folded them.
    Partitioned {
        default_slowdown: Vec<f64>,
        reorder_improvement: Vec<f64>,
    },
    /// A fault application failed for a reason that should abort the sweep.
    Fatal(String),
}

/// Apply one seeded fault set to every use case and price it: the body of
/// the seed loop, pulled out so seeds can run on worker threads. Pure —
/// all output and accumulation happen at the serial fold.
fn eval_seed(
    make_cluster: &(dyn Fn() -> Cluster + Sync),
    base: &Cluster,
    p: usize,
    rate: f64,
    seed: u64,
    cases: &[UseCase],
) -> SeedOutcome {
    let set = FaultSet::random(base, &FaultRates::links(rate), seed);
    let mut default_slowdown = Vec::with_capacity(cases.len());
    let mut reorder_improvement = Vec::with_capacity(cases.len());
    for case in cases {
        let ranks = if case.bruck { p - 8 } else { p };
        let mut session = Session::from_layout(
            make_cluster(),
            InitialMapping::CYCLIC_BUNCH,
            ranks,
            SessionConfig::default(),
        );
        let probes = [
            (case.probe)(case.msg_bytes, Scheme::Default),
            (case.probe)(case.msg_bytes, case.scheme),
        ];
        let report = match session.apply_faults(&set, &probes) {
            Ok(r) => r,
            Err(FaultError::PartitionedFabric { .. }) => {
                return SeedOutcome::Partitioned {
                    default_slowdown,
                    reorder_improvement,
                }
            }
            Err(e) => return SeedOutcome::Fatal(format!("seed {seed:#x} rate {rate}: {e}")),
        };
        // Link failures never kill cores: nobody migrates, and the mapping
        // recomputed on the degraded oracle must still be a bijection of
        // the surviving job.
        assert_eq!(report.ranks_migrated, 0, "link faults drained a core");
        let info = session
            .mapping(Mapper::Hrstc, case.pattern)
            .expect("flat mappings are always available");
        let m = &info.mapping;
        assert!(
            is_permutation(m),
            "{} mapping not bijective at rate {rate} seed {seed:#x}",
            case.label
        );
        let [default, reordered] = &report.probes[..] else {
            unreachable!("two probes per case");
        };
        default_slowdown.push(default.slowdown());
        reorder_improvement.push(100.0 * (default.after - reordered.after) / default.after);
    }
    SeedOutcome::Applied {
        cables_removed: set
            .failed_cables
            .iter()
            .map(|&(_, _, n)| n as usize)
            .sum::<usize>(),
        default_slowdown,
        reorder_improvement,
    }
}

/// `--incremental`: one-cable re-convergence on a warm chorded-mesh
/// session, plus a delta-vs-reference refinement pin, in one traced run.
fn run_incremental(ranks: usize, trace: &TraceOpts) {
    // 256 mesh switches x 8 cores per node: ranks come in whole switches.
    if ranks == 0 || !ranks.is_multiple_of(2048) {
        eprintln!("error: --incremental needs --procs as a multiple of 2048");
        std::process::exit(2);
    }
    trace.init();
    println!("== incremental re-convergence: 1 cable on a {ranks}-rank chorded-mesh session ==");
    let (cluster, (sw_a, sw_b)) = chorded_mesh_cluster(ranks / 2048);
    let mut session = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_BUNCH,
        ranks,
        SessionConfig::default(),
    );
    // Warm the schedule and price caches: the timed region is pure
    // re-convergence, not first-touch compilation.
    session.allgather_time(64 * 1024, Scheme::Default);
    session.allgather_time(512, Scheme::Default);
    let probes = [
        ProbePoint::allgather(64 * 1024, Scheme::Default),
        ProbePoint::allgather(512, Scheme::Default),
    ];
    let set = FaultSet {
        failed_cables: vec![(sw_a, sw_b, 1)],
        ..FaultSet::default()
    };
    let t = std::time::Instant::now();
    let report = match session.apply_faults(&set, &probes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: incremental fault failed to apply: {e}");
            std::process::exit(1);
        }
    };
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.summary.cables_removed, 1, "one cable requested");
    assert_eq!(report.ranks_migrated, 0, "a cable fault drains no cores");
    assert!(
        report.summary.dist_rows_rebuilt > 0,
        "edge removal must rebuild the BFS trees that crossed it"
    );
    assert!(
        report.summary.dist_rows_reused > 0,
        "a single mesh cable must not dirty every BFS row"
    );
    println!(
        "   re-converged in {apply_ms:.2} ms: BFS rows {} rebuilt / {} reused, \
         price stages {} repriced / {} reused, {} price entries dropped",
        report.summary.dist_rows_rebuilt,
        report.summary.dist_rows_reused,
        report.price_stages_repriced,
        report.price_stages_reused,
        report.price_entries_dropped,
    );
    for p in &report.probes {
        println!(
            "   probe {}: {:.6e} -> {:.6e} ({:.4}x)",
            size_label(p.probe.msg_bytes),
            p.before,
            p.after,
            p.slowdown()
        );
    }

    // Delta-priced refinement pinned against the full-reprice reference in
    // the same process, so one traced run captures the refine counters next
    // to the repair counters.
    let rp = 512usize;
    let rcluster = Cluster::gpc(rp / 8);
    let cpn = rcluster.cores_per_node();
    let nodes = rcluster.total_cores() / cpn;
    let comm = Communicator::new(
        (0..rp)
            .map(|r| CoreId::from_idx((r % nodes) * cpn + (r / nodes) % cpn))
            .collect(),
    );
    let sched = chain_gather(rp as u32, Rank(0));
    let params = NetParams::default();
    let ident: Vec<u32> = (0..rp as u32).collect();
    let t = std::time::Instant::now();
    let (m_delta, t_delta) = refine::congestion_refine(
        &rcluster,
        &comm,
        &sched,
        4096,
        &params,
        ident.clone(),
        300,
        7,
    );
    let delta_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let (m_ref, t_ref) = refine::reference::congestion_refine(
        &rcluster, &comm, &sched, 4096, &params, ident, 300, 7,
    );
    let ref_s = t.elapsed().as_secs_f64();
    assert_eq!(m_delta, m_ref, "delta refinement diverged from reference");
    assert_eq!(
        t_delta.to_bits(),
        t_ref.to_bits(),
        "delta refinement time diverged from reference"
    );
    println!(
        "   refine pin (P={rp}, chain gather, 300 proposals): delta {:.2} ms vs \
         reference {:.2} ms, bit-identical result",
        delta_s * 1e3,
        ref_s * 1e3
    );
    trace.finish();
}

fn main() {
    let mut quick = false;
    let mut incremental = false;
    let mut procs_override: Option<usize> = None;
    let mut rate_override: Option<f64> = None;
    let mut base_seed: u64 = 0x5eed;
    let mut cluster_path: Option<String> = None;
    let mut trace = TraceOpts::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--incremental" => incremental = true,
            "--procs" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("error: --procs needs a number");
                    std::process::exit(2);
                };
                procs_override = Some(n);
                i += 1;
            }
            "--link-fail" => {
                let Some(r) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("error: --link-fail needs a rate in (0, 1)");
                    std::process::exit(2);
                };
                if !(r > 0.0 && r < 1.0) {
                    eprintln!("error: --link-fail {r} must be in (0, 1)");
                    std::process::exit(2);
                }
                rate_override = Some(r);
                i += 1;
            }
            "--seed" => {
                let Some(s) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("error: --seed needs a number");
                    std::process::exit(2);
                };
                base_seed = s;
                i += 1;
            }
            "--cluster" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("error: --cluster needs a snapshot path (or - for stdin)");
                    std::process::exit(2);
                };
                cluster_path = Some(p.clone());
                i += 1;
            }
            "--trace-out" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("error: --trace-out needs a path");
                    std::process::exit(2);
                };
                trace.jsonl = Some(p.into());
                i += 1;
            }
            "--trace-chrome" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("error: --trace-chrome needs a path");
                    std::process::exit(2);
                };
                trace.chrome = Some(p.into());
                i += 1;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                eprintln!(
                    "usage: fault_sweep [--quick] [--incremental] [--procs N] [--link-fail R] [--seed S] \
                     [--cluster PATH|-] [--trace-out PATH] [--trace-chrome PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if incremental {
        let ranks = procs_override.unwrap_or(if quick { 4096 } else { 65_536 });
        run_incremental(ranks, &trace);
        return;
    }

    let ingested = cluster_path.as_deref().map(load_cluster_snapshot);

    let proc_counts: Vec<usize> = match (procs_override, &ingested) {
        (Some(n), _) => vec![n],
        (None, Some(c)) => {
            // Largest power of two the ingested cluster hosts.
            let mut p = 1usize;
            while p * 2 <= c.total_cores() {
                p *= 2;
            }
            vec![p]
        }
        (None, None) if quick => vec![512],
        (None, None) => vec![512, 4096],
    };
    let rates: Vec<f64> = match rate_override {
        Some(r) => vec![r],
        None => vec![0.001, 0.005, 0.01, 0.02, 0.05],
    };
    let seeds_per_cell: u64 = if quick { 1 } else { 3 };
    let cases = use_cases();

    trace.init();
    println!("== fault sweep: seeded link failures, remap-on-degradation sessions ==");
    println!(
        "   rates {rates:?}, {} seed(s) per cell, base seed {base_seed:#x}\n",
        seeds_per_cell
    );

    for &p in &proc_counts {
        if p < 16 || !p.is_power_of_two() {
            eprintln!("error: process count {p} must be a power of two >= 16");
            std::process::exit(2);
        }
        let make_cluster = || match &ingested {
            Some(c) => c.clone(),
            None => Cluster::gpc(p / 8),
        };
        let base = make_cluster();
        if p > base.total_cores() {
            eprintln!(
                "error: {p} processes exceed the cluster's {} cores",
                base.total_cores()
            );
            std::process::exit(2);
        }
        println!(
            "-- P = {p} on {} nodes x {} cores --",
            base.num_nodes(),
            base.cores_per_node()
        );

        // Every (rate, seed) task is independent: dispatch them onto scoped
        // worker threads, then fold the outcomes serially in (rate, seed)
        // order. The fold performs the same f64 additions in the same order
        // as the old serial loop, so every printed number is bit-identical
        // at any worker count.
        let tasks: Vec<(usize, f64, u64)> = rates
            .iter()
            .enumerate()
            .flat_map(|(ri, &rate)| {
                (0..seeds_per_cell).map(move |s| {
                    let seed = base_seed
                        .wrapping_add((p as u64) << 32)
                        .wrapping_add((ri as u64) << 16)
                        .wrapping_add(s);
                    (ri, rate, seed)
                })
            })
            .collect();
        let outcomes: Vec<std::sync::Mutex<Option<SeedOutcome>>> =
            tasks.iter().map(|_| std::sync::Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(tasks.len())
            .max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(_, rate, seed)) = tasks.get(i) else {
                        break;
                    };
                    let out = eval_seed(&make_cluster, &base, p, rate, seed, &cases);
                    *outcomes[i].lock().expect("outcome slot poisoned") = Some(out);
                });
            }
        });

        let mut cells: Vec<Cell> = Vec::new();
        let mut it = outcomes.iter();
        for _ in 0..rates.len() {
            let mut cell = Cell {
                default_slowdown: vec![0.0; cases.len()],
                reorder_improvement: vec![0.0; cases.len()],
                ..Cell::default()
            };
            for _ in 0..seeds_per_cell {
                let slot = it.next().expect("one outcome per task");
                let out = slot
                    .lock()
                    .expect("outcome slot poisoned")
                    .take()
                    .expect("worker filled every slot");
                match out {
                    SeedOutcome::Applied {
                        cables_removed,
                        default_slowdown,
                        reorder_improvement,
                    } => {
                        cell.applied += 1;
                        cell.cables_removed += cables_removed;
                        for ci in 0..cases.len() {
                            cell.default_slowdown[ci] += default_slowdown[ci];
                            cell.reorder_improvement[ci] += reorder_improvement[ci];
                        }
                    }
                    SeedOutcome::Partitioned {
                        default_slowdown,
                        reorder_improvement,
                    } => {
                        cell.partitioned += 1;
                        for (ci, v) in default_slowdown.into_iter().enumerate() {
                            cell.default_slowdown[ci] += v;
                        }
                        for (ci, v) in reorder_improvement.into_iter().enumerate() {
                            cell.reorder_improvement[ci] += v;
                        }
                    }
                    SeedOutcome::Fatal(msg) => {
                        eprintln!("error: {msg}");
                        std::process::exit(1);
                    }
                }
            }
            cells.push(cell);
        }

        // Default's post-fault slowdown (degraded / pristine), per use case.
        print!("{:>8}{:>6}{:>8}", "rate", "part", "cables");
        for c in &cases {
            print!("{:>16}", format!("{}@{}", c.label, size_label(c.msg_bytes)));
        }
        println!("      (Default slowdown x)");
        for (ri, cell) in cells.iter().enumerate() {
            print!(
                "{:>7.1}%{:>6}{:>8.1}",
                rates[ri] * 100.0,
                cell.partitioned,
                cell.cables_removed as f64 / cell.applied.max(1) as f64
            );
            for ci in 0..cases.len() {
                if cell.applied == 0 {
                    print!("{:>16}", "n/a");
                } else {
                    print!("{:>16.4}", cell.default_slowdown[ci] / cell.applied as f64);
                }
            }
            println!();
        }
        // Reordering's win over Default, both on the degraded fabric.
        println!(
            "\n{:>22}(heuristic improvement over Default on the degraded fabric, %)",
            ""
        );
        for (ri, cell) in cells.iter().enumerate() {
            print!(
                "{:>7.1}%{:>6}{:>8.1}",
                rates[ri] * 100.0,
                cell.partitioned,
                cell.cables_removed as f64 / cell.applied.max(1) as f64
            );
            for ci in 0..cases.len() {
                if cell.applied == 0 {
                    print!("{:>16}", "n/a");
                } else {
                    print!(
                        "{:>15.1}%",
                        cell.reorder_improvement[ci] / cell.applied as f64
                    );
                }
            }
            println!();
        }
        println!();
    }
    println!("every surviving configuration produced a valid bijective mapping");
    trace.finish();
}
