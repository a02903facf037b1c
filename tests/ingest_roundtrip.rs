//! Differential ingestion tests: a synthetic GPC cluster rendered to the
//! real tool formats (hwloc XML + `ibnetdiscover`) and re-ingested must be
//! *bit-identical* to the original — same cluster, same distance oracle
//! outputs, same mappings from every heuristic — and the golden fixtures
//! under `tests/fixtures/` must match the renderers byte-for-byte so
//! neither can drift alone. The irregular path gets the same end-to-end
//! treatment: a miswired fabric flows through classification, `Session`
//! (on its implicit oracle) and netsim contention pricing at 4096 ranks.

use rand::Rng;
use rand::SeedableRng;
use tarr::core::{Scheme, Session, SessionConfig};
use tarr::ingest::{
    classify, ingest_cluster, parse_hwloc, parse_ibnet, render_hwloc_xml, render_ibnetdiscover,
    ClassifiedFabric, ClusterSnapshot, IbPeer,
};
use tarr::mapping::{bbmh, bgmh, bkmh, rdmh, rmh, InitialMapping, OrderFix};
use tarr::topo::{
    Cluster, DistanceConfig, DistanceMatrix, DistanceOracle, Fabric, ImplicitDistance,
    IrregularFabric, NodeTopology,
};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The checked-in golden fixtures are exactly what the renderers emit for
/// GPC(64). Regenerate with `cargo run --example ingest_fixtures` after any
/// deliberate renderer change.
#[test]
fn golden_fixtures_match_the_renderer() {
    let gpc = Cluster::gpc(64);
    assert_eq!(
        fixture("gpc_node.xml"),
        render_hwloc_xml(gpc.node_topology())
    );
    assert_eq!(fixture("gpc_ib.txt"), render_ibnetdiscover(&gpc).unwrap());
}

#[test]
fn ingested_fixtures_reproduce_the_synthetic_cluster() {
    let ingested = ingest_cluster(&fixture("gpc_node.xml"), &fixture("gpc_ib.txt")).unwrap();
    assert_eq!(ingested.cluster, Cluster::gpc(64));
    assert!(ingested.warnings.is_empty(), "{:?}", ingested.warnings);
}

/// Acceptance: identical oracle outputs and bit-identical mappings from all
/// five heuristics at P = 512 on the ingested vs the synthetic cluster.
#[test]
fn all_five_heuristics_are_bit_identical_at_p512() {
    let synthetic = Cluster::gpc(64);
    let ingested = ingest_cluster(&fixture("gpc_node.xml"), &fixture("gpc_ib.txt"))
        .unwrap()
        .cluster;
    let p = 512;
    let cfg = DistanceConfig::default();
    let cores_a = InitialMapping::CYCLIC_BUNCH.layout(&synthetic, p);
    let cores_b = InitialMapping::CYCLIC_BUNCH.layout(&ingested, p);
    assert_eq!(cores_a, cores_b);

    let da = DistanceMatrix::build(&synthetic, &cores_a, &cfg);
    let db = DistanceMatrix::build(&ingested, &cores_b, &cfg);
    let ia = ImplicitDistance::build(&synthetic, &cores_a, &cfg);
    let ib = ImplicitDistance::build(&ingested, &cores_b, &cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd1f);
    for _ in 0..512 {
        let (i, j) = (rng.gen_range(0..p), rng.gen_range(0..p));
        assert_eq!(da.distance(i, j), db.distance(i, j), "dense ({i},{j})");
        assert_eq!(ia.distance(i, j), ib.distance(i, j), "implicit ({i},{j})");
    }

    let seed = 42;
    assert_eq!(rdmh(&da, seed), rdmh(&db, seed), "rdmh diverged");
    assert_eq!(rmh(&da, seed), rmh(&db, seed), "rmh diverged");
    assert_eq!(bbmh(&da, seed), bbmh(&db, seed), "bbmh diverged");
    assert_eq!(bgmh(&da, seed), bgmh(&db, seed), "bgmh diverged");
    assert_eq!(bkmh(&da, seed), bkmh(&db, seed), "bkmh diverged");
}

#[test]
fn session_from_snapshot_matches_synthetic_session() {
    let text = ClusterSnapshot::from_cluster(&Cluster::gpc(64)).to_text();
    let mut a = Session::from_snapshot_text(
        &text,
        InitialMapping::CYCLIC_BUNCH,
        None,
        SessionConfig::default(),
    )
    .unwrap();
    let mut b = Session::from_layout(
        Cluster::gpc(64),
        InitialMapping::CYCLIC_BUNCH,
        512,
        SessionConfig::default(),
    );
    assert_eq!(a.size(), 512);
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InitComm)] {
        assert_eq!(
            a.allgather_time(65536, scheme),
            b.allgather_time(65536, scheme)
        );
    }
}

#[test]
fn degraded_xml_flattens_to_one_socket_with_warnings() {
    let (node, warnings) = parse_hwloc(&fixture("degraded_node.xml")).unwrap();
    assert_eq!(node.sockets, 1);
    assert_eq!(node.cores_per_socket, 4);
    assert_eq!(node.cores_per_l2, 2);
    assert_eq!(node.smt, 1);
    assert!(
        warnings.iter().any(|w| w.contains("Package")),
        "{warnings:?}"
    );
}

#[test]
fn twolevel_dump_is_a_degenerate_fattree() {
    let cls = classify(&parse_ibnet(&fixture("twolevel_ib.txt")).unwrap()).unwrap();
    match cls.fabric {
        ClassifiedFabric::FatTree(cfg) => {
            assert_eq!(cfg.nodes_per_leaf, 2);
            assert_eq!(cfg.core_switches, 1);
            assert_eq!(cfg.lines_per_core, 1);
            assert_eq!(cfg.spines_per_core, 1);
        }
        other => panic!("expected a degenerate fat-tree, got {other:?}"),
    }
}

#[test]
fn miswired_dump_runs_end_to_end_as_irregular() {
    let ingested = ingest_cluster(
        &render_hwloc_xml(&NodeTopology::gpc()),
        &fixture("miswired_ib.txt"),
    )
    .unwrap();
    assert!(
        matches!(ingested.cluster.fabric(), Fabric::Irregular(_)),
        "expected irregular fabric"
    );
    assert!(!ingested.warnings.is_empty());

    // Snapshot roundtrip preserves the irregular cluster exactly.
    let snap = ClusterSnapshot::from_cluster(&ingested.cluster);
    let re = ClusterSnapshot::parse(&snap.to_text()).unwrap();
    assert_eq!(re.to_cluster().unwrap(), ingested.cluster);

    let p = ingested.cluster.total_cores();
    let mut s = Session::from_layout(
        ingested.cluster,
        InitialMapping::CYCLIC_BUNCH,
        p,
        SessionConfig::default(),
    );
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InitComm)] {
        s.verify_allgather(4096, scheme).unwrap();
        let t = s.allgather_time(4096, scheme);
        assert!(t.is_finite() && t > 0.0);
    }
    let traffic = s.allgather_traffic(4096, Scheme::Default);
    assert!(traffic.cross_leaf > 0, "no cross-switch bytes: {traffic:?}");
}

/// Acceptance: `Fabric::Irregular` end-to-end through `Session` (implicit
/// oracle) at 4096 ranks, with netsim contention pricing over the interned
/// irregular switch-link hops.
#[test]
fn irregular_fabric_at_4096_ranks_through_implicit_session() {
    // Render the 512-node GPC fabric, then add a symmetric leaf-leaf
    // shortcut so classification falls back to the irregular path.
    let gpc = Cluster::gpc(512);
    let mut graph = parse_ibnet(&render_ibnetdiscover(&gpc).unwrap()).unwrap();
    let leaf = |g: &tarr::ingest::IbGraph, name: &str| {
        g.switches.iter().position(|s| s.name == name).unwrap()
    };
    let (a, b) = (leaf(&graph, "leaf-0000"), leaf(&graph, "leaf-0001"));
    let pa = graph.switches[a]
        .ports
        .iter()
        .map(|&(p, _)| p)
        .max()
        .unwrap()
        + 1;
    let pb = graph.switches[b]
        .ports
        .iter()
        .map(|&(p, _)| p)
        .max()
        .unwrap()
        + 1;
    let (ga, gb) = (
        graph.switches[a].guid.clone(),
        graph.switches[b].guid.clone(),
    );
    graph.switches[a]
        .ports
        .push((pa, IbPeer { guid: gb, port: pb }));
    graph.switches[b]
        .ports
        .push((pb, IbPeer { guid: ga, port: pa }));

    let cls = classify(&graph).unwrap();
    assert!(!cls.warnings.is_empty());
    let cfg = match cls.fabric {
        ClassifiedFabric::Irregular(cfg) => cfg,
        other => panic!("expected irregular, got {other:?}"),
    };
    let cluster = Cluster::from_parts(
        NodeTopology::gpc(),
        Fabric::Irregular(IrregularFabric::new(cfg).unwrap()),
        cls.num_nodes,
    )
    .unwrap();
    assert_eq!(cluster.total_cores(), 4096);

    let mut s = Session::from_layout(
        cluster,
        InitialMapping::CYCLIC_BUNCH,
        4096,
        SessionConfig::default(),
    );
    for scheme in [Scheme::Default, Scheme::hrstc(OrderFix::InitComm)] {
        let rd = s.allgather_time(512, scheme); // recursive-doubling region
        let ring = s.allgather_time(65536, scheme); // ring region
        assert!(rd.is_finite() && rd > 0.0);
        assert!(ring.is_finite() && ring > 0.0);
    }
    let traffic = s.allgather_traffic(512, Scheme::Default);
    assert!(traffic.cross_leaf > 0, "no cross-switch bytes: {traffic:?}");
}
