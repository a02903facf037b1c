//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **BBMH traversal order** — smaller-subtrees-first (the paper's §V-A.3
//!    proposal) vs larger-subtrees-first (the Subramoni et al. alternative),
//!    on the simulated binomial broadcast latency.
//! 2. **RDMH reference-update cadence** — update the reference core after 2
//!    mapped processes (the paper's Algorithm 2) vs 1 / 4 / 8.
//! 3. **Hierarchical intra-node mapping** — subtree-contiguous BBMH (our
//!    default; serves both binomial phases) vs the paper's literal BGMH.
//! 4. **Scotch variants** — the paper-default reconstruction vs a well-driven
//!    (weighted, cluster-coherent) DRB mapper.
//! 5. **Model fidelity** — synchronized-stage analytic model vs asynchronous
//!    fluid-flow simulation, small scale.
//!
//! Run: `cargo run -p tarr-bench --release --bin ablations [--quick]`

use tarr_bench::HarnessOpts;
use tarr_collectives::allgather::{
    recursive_doubling, ring, HierarchicalConfig, InterAlg, IntraPattern,
};
use tarr_collectives::bcast::binomial_bcast;
use tarr_core::hier::HierMapper;
use tarr_core::{Mapper, Scheme, Session, SessionConfig};
use tarr_mapping::rdmh::rdmh_with_cadence;
use tarr_mapping::{bbmh_with_order, init_comm_schedule, InitialMapping, OrderFix, TraversalOrder};
use tarr_mpi::{time_schedule, time_schedule_async};
use tarr_netsim::{NetParams, StageModel};
use tarr_topo::{DistanceMatrix, Rank};

fn main() {
    let opts = HarnessOpts::from_args();

    ablate_bbmh_order(&opts);
    ablate_rdmh_cadence(&opts);
    ablate_intra_mapping(&opts);
    ablate_scotch_variant(&opts);
    ablate_model_fidelity();
    ablate_stage_profile(&opts);
}

/// Simulated binomial-bcast latency under the two BBMH traversal orders.
fn ablate_bbmh_order(opts: &HarnessOpts) {
    println!("\n== Ablation 1: BBMH traversal order (binomial bcast, cyclic-scatter) ==");
    let session = opts.session(InitialMapping::CYCLIC_SCATTER);
    let p = session.size() as u32;
    let d = DistanceMatrix::build(
        session.cluster(),
        session.comm().cores(),
        &session.core().config().dist,
    );
    let model = StageModel::new(session.cluster(), NetParams::default());
    println!(
        "{:>8}  {:>12}  {:>14}  {:>14}",
        "bytes", "default", "smaller-first", "larger-first"
    );
    for bytes in [512u64, 8192, 131072] {
        let sched = binomial_bcast(p, Rank(0), bytes);
        let base = time_schedule(&sched, session.comm(), &model, bytes);
        let mut times = Vec::new();
        for order in [TraversalOrder::SmallerFirst, TraversalOrder::LargerFirst] {
            let m = bbmh_with_order(&d, 0, order);
            let comm2 = session.comm().reordered(&m);
            times.push(time_schedule(&sched, &comm2, &model, bytes));
        }
        println!(
            "{:>8}  {:>12.6}  {:>14.6}  {:>14.6}",
            bytes, base, times[0], times[1]
        );
    }
}

/// Simulated RD allgather latency under different reference-update cadences.
fn ablate_rdmh_cadence(opts: &HarnessOpts) {
    println!("\n== Ablation 2: RDMH reference-update cadence (RD allgather, block-bunch) ==");
    let session = opts.session(InitialMapping::BLOCK_BUNCH);
    let p = session.size() as u32;
    let d = DistanceMatrix::build(
        session.cluster(),
        session.comm().cores(),
        &session.core().config().dist,
    );
    let model = StageModel::new(session.cluster(), NetParams::default());
    let bytes = 512u64;
    let sched = recursive_doubling(p);
    let base = time_schedule(&sched, session.comm(), &model, bytes);
    println!("default (no reorder): {base:.6} s at {bytes} B");
    for cadence in [1u32, 2, 4, 8] {
        let m = rdmh_with_cadence(&d, 0, cadence);
        let comm2 = session.comm().reordered(&m);
        let full = init_comm_schedule(&m).then(sched.clone());
        let t = time_schedule(&full, &comm2, &model, bytes);
        let star = if cadence == 2 { "  <- paper" } else { "" };
        println!("cadence {cadence}: {t:.6} s{star}");
    }
}

/// Hierarchical intra-node mapping: BBMH (default) vs the paper's BGMH.
fn ablate_intra_mapping(opts: &HarnessOpts) {
    println!("\n== Ablation 3: hierarchical intra-node mapping (block-scatter, NL) ==");
    let hcfg = HierarchicalConfig {
        intra: IntraPattern::Binomial,
        inter: InterAlg::Ring,
    };
    let groups_session = opts.session(InitialMapping::BLOCK_SCATTER);
    let d = DistanceMatrix::build(
        groups_session.cluster(),
        groups_session.comm().cores(),
        &groups_session.core().config().dist,
    );
    let cpn = groups_session.cluster().cores_per_node() as u32;
    let g = groups_session.size() as u32 / cpn;
    let groups: Vec<(u32, u32)> = (0..g).map(|i| (i * cpn, cpn)).collect();
    let model = StageModel::new(groups_session.cluster(), NetParams::default());
    let p = groups_session.size() as u32;
    let bytes = 16384u64;
    let sched = tarr_collectives::hierarchical(p, &groups, hcfg);
    let base = time_schedule(&sched, groups_session.comm(), &model, bytes);
    println!("default: {base:.6} s at {bytes} B");
    for (name, hm) in [
        ("BBMH intra (ours)", HierMapper::Heuristic),
        ("BGMH intra (paper literal)", HierMapper::HeuristicBgmhIntra),
    ] {
        let m = tarr_core::hierarchical_mapping(&d, &groups, hcfg.inter, hcfg.intra, hm, 0)
            .expect("supported");
        let comm2 = groups_session.comm().reordered(&m);
        let new_groups = tarr_core::hier::reordered_groups(&groups, &m);
        let sched2 = tarr_collectives::hierarchical(p, &new_groups, hcfg);
        let t = time_schedule(&sched2, &comm2, &model, bytes);
        println!("{name}: {t:.6} s ({:+.1}%)", 100.0 * (base - t) / base);
    }
}

/// Scotch paper-default reconstruction vs well-driven DRB.
fn ablate_scotch_variant(opts: &HarnessOpts) {
    println!("\n== Ablation 4: Scotch variants (ring allgather, 64 KiB) ==");
    println!(
        "{:>16}  {:>10}  {:>12}  {:>12}  {:>12}",
        "layout", "default", "Scotch", "ScotchTuned", "Hrstc"
    );
    for layout in [InitialMapping::BLOCK_BUNCH, InitialMapping::CYCLIC_BUNCH] {
        let mut session = opts.session(layout);
        let bytes = 65536;
        let base = session.allgather_time(bytes, Scheme::Default);
        let row: Vec<f64> = [Mapper::ScotchLike, Mapper::ScotchTuned, Mapper::Hrstc]
            .iter()
            .map(|&mapper| {
                session.allgather_time(
                    bytes,
                    Scheme::Reordered {
                        mapper,
                        fix: OrderFix::InitComm,
                    },
                )
            })
            .collect();
        println!(
            "{:>16}  {:>10.6}  {:>12.6}  {:>12.6}  {:>12.6}",
            layout.name(),
            base,
            row[0],
            row[1],
            row[2]
        );
    }
}

/// Per-stage latency profile of recursive doubling before/after RDMH: the
/// heuristic's whole point is collapsing the late, heavy stages.
fn ablate_stage_profile(opts: &HarnessOpts) {
    use tarr_mapping::rdmh;
    use tarr_mpi::time_schedule_profile;
    println!("\n== Ablation 6: RD per-stage latency before/after RDMH (block-bunch, 512 B) ==");
    let session = opts.session(InitialMapping::BLOCK_BUNCH);
    let p = session.size() as u32;
    let d = DistanceMatrix::build(
        session.cluster(),
        session.comm().cores(),
        &session.core().config().dist,
    );
    let model = StageModel::new(session.cluster(), NetParams::default());
    let sched = recursive_doubling(p);
    let before = time_schedule_profile(&sched, session.comm(), &model, 512);
    let m = rdmh(&d, 0);
    let after = time_schedule_profile(&sched, &session.comm().reordered(&m), &model, 512);
    println!(
        "{:>6}  {:>14}  {:>14}",
        "stage", "default (us)", "RDMH (us)"
    );
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        println!("{:>6}  {:>14.1}  {:>14.1}", i, b * 1e6, a * 1e6);
    }
    println!(
        "{:>6}  {:>14.1}  {:>14.1}",
        "total",
        before.iter().sum::<f64>() * 1e6,
        after.iter().sum::<f64>() * 1e6
    );
}

/// Synchronized analytic stages vs asynchronous fluid flows (small scale).
fn ablate_model_fidelity() {
    println!("\n== Ablation 5: analytic stage model vs fluid event simulation ==");
    let cluster = tarr_topo::Cluster::gpc(8);
    let session = Session::from_layout(
        cluster,
        InitialMapping::BLOCK_BUNCH,
        64,
        SessionConfig::default(),
    );
    let params = NetParams::default();
    let model = StageModel::new(session.cluster(), params.clone());
    println!(
        "{:>8}  {:>8}  {:>12}  {:>12}  {:>8}",
        "alg", "bytes", "analytic", "fluid-async", "ratio"
    );
    for bytes in [512u64, 65536] {
        for (name, sched) in [("rd", recursive_doubling(64)), ("ring", ring(64))] {
            let sync = time_schedule(&sched, session.comm(), &model, bytes);
            let asyn =
                time_schedule_async(&sched, session.comm(), session.cluster(), &params, bytes);
            println!(
                "{:>8}  {:>8}  {:>12.6}  {:>12.6}  {:>8.3}",
                name,
                bytes,
                sync,
                asyn,
                asyn / sync
            );
        }
    }
}
