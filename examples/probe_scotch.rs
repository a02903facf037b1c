use tarr_collectives::{allgather::ring, pattern_graph};
use tarr_core::{Mapper, PatternKind, Scheme, Session, SessionConfig};
use tarr_mapping::{mapping_cost, rmh, InitialMapping, OrderFix};
use tarr_topo::Cluster;

fn main() {
    let cluster = Cluster::gpc(128);
    let p = 1024;
    let mut s = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_BUNCH,
        p,
        SessionConfig::default(),
    );
    let m = s
        .mapping(Mapper::ScotchLike, PatternKind::Ring)
        .expect("flat mappings are always available")
        .mapping
        .clone();
    let g = pattern_graph(&ring(p as u32), 4096);
    let ident: Vec<u32> = (0..p as u32).collect();
    let d = s.distance_matrix();
    println!("cost ident  = {}", mapping_cost(&g, d, &ident));
    println!("cost scotch = {}", mapping_cost(&g, d, &m));
    println!("cost rmh    = {}", mapping_cost(&g, d, &rmh(d, 0)));
    println!("m[0..16] = {:?}", &m[..16]);
    let t0 = s.allgather_time(65536, Scheme::Default);
    let t1 = s.allgather_time(65536, Scheme::scotch(OrderFix::InitComm));
    let t2 = s.allgather_time(65536, Scheme::hrstc(OrderFix::InitComm));
    println!("time default {t0:.6} scotch {t1:.6} hrstc {t2:.6}");
}
