//! Fig. 3 extended past the dense-matrix ceiling: the full non-hierarchical
//! `Session` allgather surface at 65 536 processes.
//!
//! The dense `u16` distance matrix alone would need 8 GiB at this scale and
//! the materialized ring schedule another P² ops; the session's O(P)
//! implicit distance oracle plus the compiled
//! [`TimedSchedule`](tarr_mpi::TimedSchedule) pipeline (with its analytic
//! O(P) ring form) price both algorithm regions — recursive doubling below
//! 1 KiB, ring above — in O(P) memory. This harness sweeps Default and
//! Hrstc-reordered schemes across both regions, reports model latencies,
//! per-scheme wall-clock (cold = mapping + reorder + compile, warm = cached
//! re-price) and the process peak RSS, and **fails** if a full-scale run
//! exceeded 1 GiB.
//!
//! With `--cluster SNAPSHOT` (a `topo-ingest snapshot` file) the session is
//! built on the ingested cluster — fat-tree or irregular — instead of the
//! synthetic GPC model; `--procs` then defaults to the largest power of two
//! that fits the ingested core count.
//!
//! Run: `cargo run -p tarr-bench --release --bin fig3_scaled [--procs N | --quick]`

use std::time::Instant;

use tarr_bench::scaled::{bytes_label, peak_rss_bytes};
use tarr_bench::{load_cluster_snapshot, print_table_header, size_label, TraceOpts};
use tarr_core::{Scheme, Session, SessionConfig};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_topo::Cluster;
use tarr_workloads::percent_improvement;

const RSS_LIMIT: u64 = 1 << 30;

fn main() {
    let mut procs: Option<usize> = None;
    let mut cluster_path: Option<String> = None;
    let mut trace = TraceOpts::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--procs" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("error: --procs needs a number");
                    std::process::exit(2);
                };
                procs = Some(n);
                i += 1;
            }
            "--quick" => procs = Some(4096),
            "--cluster" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("error: --cluster needs a snapshot path");
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
                    "usage: fig3_scaled [--procs N | --quick] [--cluster SNAPSHOT] \
                     [--trace-out PATH] [--trace-chrome PATH]   \
                     (N: power of two; multiple of 8 on the default GPC model)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let cluster = cluster_path.as_deref().map(load_cluster_snapshot);
    let procs = match (procs, &cluster) {
        (Some(p), _) => p,
        (None, None) => 65536,
        // Largest power of two that fits the ingested cluster.
        (None, Some(c)) => {
            let mut p = 1usize;
            while p * 2 <= c.total_cores() {
                p *= 2;
            }
            p
        }
    };
    if !procs.is_power_of_two() {
        eprintln!("error: --procs {procs} must be a power of two (the RD region needs one)");
        std::process::exit(2);
    }
    match &cluster {
        None if !procs.is_multiple_of(8) => {
            eprintln!("error: --procs {procs} must be a multiple of 8 (whole GPC nodes)");
            std::process::exit(2);
        }
        Some(c) if procs > c.total_cores() => {
            eprintln!(
                "error: --procs {procs} exceeds the ingested cluster's {} cores",
                c.total_cores()
            );
            std::process::exit(2);
        }
        _ => {}
    }

    trace.init();
    println!("== Fig. 3 (scaled): end-to-end session allgather at {procs} processes ==");
    match (&cluster_path, &cluster) {
        (Some(path), Some(c)) => println!(
            "   ingested cluster {path} ({} nodes x {} cores), implicit oracle backend\n",
            c.num_nodes(),
            c.cores_per_node()
        ),
        _ => println!("   implicit oracle backend, cyclic-bunch layout, O(P) memory\n"),
    }

    let cluster = cluster.unwrap_or_else(|| Cluster::gpc(procs / 8));
    let t = Instant::now();
    let mut session = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_BUNCH,
        procs,
        SessionConfig::default(),
    );
    println!("session build: {:.3} s", t.elapsed().as_secs_f64());

    // Two sizes per algorithm region: RD below 1 KiB, ring above.
    let sizes: [u64; 4] = [64, 512, 65536, 262144];
    let schemes: [(&str, Scheme); 3] = [
        ("Default", Scheme::Default),
        ("Hrstc+initComm", Scheme::hrstc(OrderFix::InitComm)),
        ("Hrstc+endShfl", Scheme::hrstc(OrderFix::EndShuffle)),
    ];

    let mut series: Vec<Vec<(u64, f64)>> = Vec::new();
    for (name, scheme) in schemes {
        let t = Instant::now();
        let cold: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&m| (m, session.allgather_time(m, scheme)))
            .collect();
        let cold_s = t.elapsed().as_secs_f64();
        // Stamp counter values between the cold and warm phases so the
        // exported series show cache misses concentrating in the cold sweep.
        tarr_trace::sample_metrics();
        let t = Instant::now();
        for &m in &sizes {
            let again = session.allgather_time(m, scheme);
            assert_eq!(again, cold.iter().find(|&&(s, _)| s == m).unwrap().1);
        }
        let warm_s = t.elapsed().as_secs_f64();
        println!("{name:>16}: cold sweep {cold_s:>8.3} s   warm sweep {warm_s:>8.3} s");
        series.push(cold);
    }

    // Per-stage traffic profile (classified once per unique compiled stage);
    // emits the bounded `session.traffic` instants the CI smoke validates.
    if trace.active() {
        for (_, scheme) in schemes {
            for &m in &sizes {
                let _ = session.allgather_traffic_stages(m, scheme);
            }
        }
    }

    println!("\nmodel latency (s), improvement over Default in brackets:");
    print_table_header("size", &schemes.iter().map(|&(n, _)| n).collect::<Vec<_>>());
    for (i, &size) in sizes.iter().enumerate() {
        let base = series[0][i].1;
        print!("{:>8}", size_label(size));
        for s in &series {
            let t = s[i].1;
            if std::ptr::eq(s, &series[0]) {
                print!("{t:>18.6}");
            } else {
                print!("{:>10.6} ({:>+4.1}%)", t, percent_improvement(base, t));
            }
        }
        println!();
    }

    match peak_rss_bytes() {
        Some(rss) => {
            let verdict = if rss < RSS_LIMIT { "OK" } else { "EXCEEDED" };
            println!(
                "\npeak RSS: {} (limit {} at full scale: {verdict})",
                bytes_label(rss),
                bytes_label(RSS_LIMIT),
            );
            assert!(
                procs < 65536 || rss < RSS_LIMIT,
                "peak RSS {} exceeds the 1 GiB acceptance bound at P = {procs}",
                bytes_label(rss)
            );
        }
        None => println!("\npeak RSS: unavailable (no /proc/self/status)"),
    }
    trace.finish();
}
