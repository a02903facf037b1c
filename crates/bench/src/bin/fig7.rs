//! Fig. 7 — overheads of topology-aware rank reordering at 1024, 2048 and
//! 4096 processes.
//!
//! * (a) the one-time physical-distance extraction overhead: the calibrated
//!   on-system cost model (hwloc + IB tools probing; ≈3.3 s at 4096 with
//!   linear scaling) plus, for reference, the *real measured* wall-clock of
//!   building our distance matrix;
//! * (b) the per-pattern mapping overhead (real, measured): the fine-tuned
//!   heuristics (average of RDMH/RMH/BBMH/BGMH) versus the Scotch-like
//!   mapper *including* the process-topology-graph build it requires.
//!
//! Run: `cargo run -p tarr-bench --release --bin fig7 [--quick]`

use std::time::Instant;
use tarr_bench::HarnessOpts;
use tarr_core::{Mapper, PatternKind, Session, SessionConfig};
use tarr_mapping::{bbmh, bgmh, rdmh, rmh, InitialMapping};
use tarr_topo::DistanceMatrix;

fn main() {
    let opts = HarnessOpts::from_args();
    opts.trace.init();
    let sizes: Vec<usize> = if opts.procs <= 512 {
        vec![128, 256, 512]
    } else {
        vec![1024, 2048, 4096]
    };

    println!("Fig. 7(a) — one-time distance extraction overhead");
    println!(
        "{:>8}  {:>22}  {:>26}",
        "procs", "modelled on-system (s)", "measured matrix build (s)"
    );
    let mut sessions: Vec<(usize, Session, DistanceMatrix)> = Vec::new();
    for &p in &sizes {
        let cluster = opts.cluster_for(p);
        let s = Session::from_layout(
            cluster,
            InitialMapping::BLOCK_BUNCH,
            p,
            SessionConfig::default(),
        );
        let t0 = Instant::now();
        let d = DistanceMatrix::build(s.cluster(), s.comm().cores(), &s.core().config().dist);
        let build = t0.elapsed();
        println!(
            "{:>8}  {:>22.3}  {:>26.4}",
            p,
            s.extraction_model_seconds(),
            build.as_secs_f64()
        );
        sessions.push((p, s, d));
    }

    println!("\nFig. 7(b) — mapping algorithm overhead (measured, seconds)");
    println!(
        "{:>8}  {:>14}  {:>14}  {:>18}",
        "procs", "heuristics avg", "Scotch-like", "(graph build part)"
    );
    for (p, session, d) in &mut sessions {
        // Average the four heuristics' wall-clock, as the paper does
        // ("our heuristics have almost the same amount of overhead").
        let t0 = Instant::now();
        let _ = rdmh(d, 0);
        let _ = rmh(d, 0);
        let _ = bbmh(d, 0);
        let _ = bgmh(d, 0);
        let heuristic_avg = t0.elapsed().as_secs_f64() / 4.0;

        let info = session
            .mapping(Mapper::ScotchLike, PatternKind::Ring)
            .expect("flat mappings are always available");
        println!(
            "{:>8}  {:>14.4}  {:>14.4}  {:>18.4}",
            p,
            heuristic_avg,
            (info.compute + info.graph_build).as_secs_f64(),
            info.graph_build.as_secs_f64()
        );
    }
    opts.trace.finish();
}
