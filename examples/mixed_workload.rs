//! A mixed-collective application: allgather, allreduce and broadcast in one
//! iteration loop, each running over its own reordered communicator — the
//! framework's "reordered copy per collective communication pattern" (§IV)
//! in action, with all mappings created lazily and exactly once.
//!
//! ```text
//! cargo run --release --example mixed_workload
//! ```

use tarr::core::{Scheme, Session, SessionConfig};
use tarr::mapping::{InitialMapping, OrderFix};
use tarr::topo::Cluster;

fn main() {
    let mut session = Session::from_layout(
        Cluster::gpc(64),
        InitialMapping::CYCLIC_SCATTER,
        512,
        SessionConfig::default(),
    );

    // A CG-solver-like iteration: halo allgather (4 KiB), dot-product
    // allreduce (64 B), and a occasional parameter broadcast (1 KiB).
    let iters = 200;
    let bcast_every = 20;

    let mut t_default = 0.0;
    let mut t_reordered = 0.0;
    for i in 0..iters {
        t_default += session.allgather_time(4096, Scheme::Default);
        t_default += session.allreduce_time(64, false, Scheme::Default);
        t_reordered += session.allgather_time(4096, Scheme::hrstc(OrderFix::InitComm));
        t_reordered += session.allreduce_time(64, false, Scheme::hrstc(OrderFix::InitComm));
        if i % bcast_every == 0 {
            t_default += session.bcast_time(1024, Scheme::Default);
            t_reordered += session.bcast_time(1024, Scheme::hrstc(OrderFix::InPlace));
        }
    }

    println!("mixed workload, {iters} iterations, 512 ranks, cyclic-scatter layout");
    println!("  communication, default:   {:.2} ms", t_default * 1e3);
    println!("  communication, reordered: {:.2} ms", t_reordered * 1e3);
    println!(
        "  improvement: {:.1}%",
        100.0 * (t_default - t_reordered) / t_default
    );

    // Three patterns ⇒ three cached mappings, created once each.
    use tarr::core::{Mapper, PatternKind};
    for pattern in [
        PatternKind::Ring,
        PatternKind::Rd,
        PatternKind::BinomialBcast,
    ] {
        let info = session
            .mapping(Mapper::Hrstc, pattern)
            .expect("flat mappings are always available");
        println!(
            "  mapping {:?}: computed once in {:?}",
            pattern, info.compute
        );
    }
}
