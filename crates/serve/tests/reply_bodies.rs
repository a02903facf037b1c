//! The cached-body reply path of `map` and `reorder`: every served reply is
//! byte-equal to serializing the reply tree the engine used to build, a
//! body is encoded once per core, and no body outlives the core it
//! encodes.

use std::sync::Barrier;

use tarr_serve::protocol::{err_reply, num, ok_reply, parse_mapper, parse_pattern, to_string};
use tarr_serve::Engine;
use tarr_trace::json::{parse, Json};

const MAPPERS: [&str; 5] = ["hrstc", "scotch", "scotch_tuned", "greedy", "mvapich"];
const PATTERNS: [&str; 5] = ["rd", "ring", "bruck", "bcast", "gather"];
const OPS: [&str; 2] = ["map", "reorder"];

/// The `id` shapes a request can carry: absent, an integer, a string that
/// needs escaping, a fraction and a nested object.
const IDS: [Option<&str>; 5] = [
    None,
    Some("7"),
    Some(r#""q\"b\\s\n\u0001ρ""#),
    Some("-2.5"),
    Some(r#"{"k":[1,{"z":null}],"s":"x","t":true}"#),
];

fn ingest(engine: &Engine, cluster: &str, gpc_nodes: usize) {
    let line = format!(r#"{{"op":"ingest","cluster":"{cluster}","gpc_nodes":{gpc_nodes}}}"#);
    ok(&engine.handle_line(&line));
}

fn ok(reply: &str) {
    assert!(reply.contains(r#""ok":true"#), "{reply}");
}

fn request(id: Option<&str>, op: &str, cluster: &str, mapper: &str, pattern: &str) -> String {
    let id = id.map_or(String::new(), |id| format!(r#""id":{id},"#));
    format!(
        r#"{{{id}"op":"{op}","cluster":"{cluster}","mapper":"{mapper}","pattern":"{pattern}"}}"#
    )
}

/// The reply as the tree-building engine serialized it: an ok reply whose
/// array holds one `Json::Num` per element of the serving core's mapping
/// or reordered cores, or the unsupported-pair error (which is also what a
/// topology-aware mapper answers for `rd` at a non-power-of-two rank count).
fn reference(engine: &Engine, line: &str) -> String {
    let req = parse(line).unwrap();
    let field = |k: &str| req.get(k).and_then(Json::as_str).unwrap();
    let core = engine.core(field("cluster")).expect("cluster is served");
    let mapper = parse_mapper(field("mapper")).unwrap();
    let pattern = parse_pattern(field("pattern")).unwrap();
    let mut h = core.handle();
    let (op, name) = match field("op") {
        "map" => ("map", "mapping"),
        _ => ("reorder", "cores"),
    };
    let values: Option<Vec<u64>> = match op {
        "map" => h
            .mapping(mapper, pattern)
            .map(|info| info.mapping.iter().map(|&v| u64::from(v)).collect()),
        _ => h
            .reordered_comm(mapper, pattern)
            .map(|comm| comm.cores().iter().map(|c| u64::from(c.0)).collect()),
    };
    let tree = match values {
        Some(values) => ok_reply(
            &req,
            op,
            vec![(
                name.to_string(),
                Json::Arr(values.into_iter().map(num).collect()),
            )],
        ),
        None => err_reply(Some(&req), "unsupported mapper/pattern for this cluster"),
    };
    to_string(&tree)
}

/// The `reply_body` cache counters `stats` reports for `cluster`:
/// (hit, miss, coalesced).
fn body_counts(engine: &Engine, cluster: &str) -> (u64, u64, u64) {
    let stats = parse(&engine.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let body = stats
        .get("cluster_caches")
        .and_then(|c| c.get(cluster))
        .and_then(|c| c.get("reply_body"))
        .unwrap_or_else(|| panic!("no reply_body counters: {stats:?}"));
    let n = |k: &str| body.get(k).and_then(Json::as_u64).unwrap();
    (n("hit"), n("miss"), n("coalesced"))
}

fn assert_matches_reference(
    engine: &Engine,
    cluster: &str,
    mappers: &[&str],
    ids: &[Option<&str>],
) {
    for op in OPS {
        for &mapper in mappers {
            for pattern in PATTERNS {
                for &id in ids {
                    let line = request(id, op, cluster, mapper, pattern);
                    let served = engine.handle_line(&line);
                    assert_eq!(served, reference(engine, &line), "{line}");
                }
            }
        }
    }
}

#[test]
fn replies_equal_the_tree_encoding_at_24_and_512_ranks() {
    let engine = Engine::new();
    ingest(&engine, "p24", 3);
    ingest(&engine, "p512", 64);
    assert_matches_reference(&engine, "p24", &MAPPERS, &IDS);
    assert_matches_reference(&engine, "p512", &MAPPERS, &IDS);
}

/// Recursive doubling needs a power-of-two rank count. At P = 24 every
/// topology-aware mapper answers `rd` with the typed unsupported-pair
/// error, never an `internal_error`; the MVAPICH reorder reads no pattern
/// and keeps its mapping.
#[test]
fn rd_at_24_ranks_is_ok_or_unsupported_never_internal() {
    let engine = Engine::new();
    ingest(&engine, "p24", 3);
    for op in OPS {
        for mapper in MAPPERS {
            let reply = engine.handle_line(&request(None, op, "p24", mapper, "rd"));
            assert!(!reply.contains("internal_error"), "{reply}");
            let tree = parse(&reply).unwrap();
            if mapper == "mvapich" {
                ok(&reply);
            } else {
                assert_eq!(
                    tree.get("error").and_then(Json::as_str),
                    Some("unsupported mapper/pattern for this cluster"),
                    "{reply}"
                );
            }
        }
    }
}

#[test]
fn replies_equal_the_tree_encoding_at_4096_ranks() {
    let engine = Engine::new();
    ingest(&engine, "p4096", 512);
    // The scotch and greedy mappings cost about a minute at 4096 ranks in
    // a debug build, so there they run in release only; the body encoding
    // does not depend on the mapper. Two id shapes keep the sweep short:
    // the others change only the header, which the smaller sweeps cover.
    let mappers: &[&str] = if cfg!(debug_assertions) {
        &["hrstc", "mvapich"]
    } else {
        &MAPPERS
    };
    assert_matches_reference(&engine, "p4096", mappers, &[None, IDS[4]]);
}

#[test]
fn a_warm_repeat_encodes_once() {
    let engine = Engine::new();
    ingest(&engine, "w", 8);
    let line = request(Some("1"), "map", "w", "hrstc", "ring");
    let first = engine.handle_line(&line);
    for _ in 0..5 {
        assert_eq!(engine.handle_line(&line), first);
    }
    assert_eq!(body_counts(&engine, "w"), (5, 1, 0));
    // The other op on the same pair is its own body.
    engine.handle_line(&request(None, "reorder", "w", "hrstc", "ring"));
    assert_eq!(body_counts(&engine, "w"), (5, 2, 0));
    // An unsupported pair is an error and caches nothing.
    let bad = engine.handle_line(&request(None, "map", "w", "hrstc", "bogus"));
    assert!(bad.contains(r#""ok":false"#), "{bad}");
    assert_eq!(body_counts(&engine, "w"), (5, 2, 0));
}

/// Every array reply on `cluster`, keyed by op × pattern for hrstc.
fn hrstc_replies(engine: &Engine, cluster: &str) -> Vec<String> {
    let mut out = Vec::new();
    for op in OPS {
        for pattern in PATTERNS {
            out.push(engine.handle_line(&request(None, op, cluster, "hrstc", pattern)));
        }
    }
    out
}

#[test]
fn a_fault_retires_the_bodies_of_the_old_core() {
    let engine = Engine::new();
    // Half the cores are free, so drained nodes' ranks can migrate.
    ok(&engine.handle_line(r#"{"op":"ingest","cluster":"f","gpc_nodes":8,"p":32}"#));
    let before = hrstc_replies(&engine, "f");
    let fault = engine.handle_line(r#"{"op":"fault","cluster":"f","seed":3,"node_drain":0.25}"#);
    assert!(
        fault.contains(r#""ranks_migrated":"#) && !fault.contains(r#""ranks_migrated":0"#),
        "{fault}"
    );
    assert_eq!(
        body_counts(&engine, "f"),
        (0, 0, 0),
        "the new core starts cold"
    );
    let after = hrstc_replies(&engine, "f");
    assert_ne!(before, after, "the drain must move the mapping");
    for op in OPS {
        for pattern in PATTERNS {
            let line = request(None, op, "f", "hrstc", pattern);
            assert_eq!(
                engine.handle_line(&line),
                reference(&engine, &line),
                "{line}"
            );
        }
    }
}

#[test]
fn a_replacing_ingest_retires_the_bodies_of_the_old_core() {
    let engine = Engine::new();
    ingest(&engine, "r", 8);
    let before = hrstc_replies(&engine, "r");
    ok(&engine.handle_line(
        r#"{"op":"ingest","cluster":"r","gpc_nodes":8,"layout":"cyclic_scatter","replace":true}"#,
    ));
    assert_eq!(
        body_counts(&engine, "r"),
        (0, 0, 0),
        "the new core starts cold"
    );
    let after = hrstc_replies(&engine, "r");
    assert_ne!(before, after, "the new layout must move the mapping");
    for op in OPS {
        for pattern in PATTERNS {
            let line = request(None, op, "r", "hrstc", pattern);
            assert_eq!(
                engine.handle_line(&line),
                reference(&engine, &line),
                "{line}"
            );
        }
    }
}

#[test]
fn concurrent_cold_requests_encode_once() {
    const THREADS: usize = 8;
    let engine = Engine::new();
    ingest(&engine, "cold", 64);
    let line = request(Some("1"), "map", "cold", "hrstc", "ring");
    let barrier = Barrier::new(THREADS);
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.handle_line(&line)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(replies.iter().all(|r| *r == replies[0]));
    assert_eq!(replies[0], reference(&engine, &line));
    let (hit, miss, coalesced) = body_counts(&engine, "cold");
    assert_eq!(miss, 1, "eight cold requests must encode exactly once");
    assert_eq!(hit + coalesced, THREADS as u64 - 1);
}

#[test]
fn trace_counters_agree_with_stats() {
    // The daemon's `serve.reply.body.*` trace counters and the `reply_body`
    // entry of `stats` count the same lookups, coalesced shares included.
    // Four workers race on one cold body; the second ingest is a barrier,
    // so every array reply has finished before `stats` runs.
    use std::io::Write;
    let trace =
        std::env::temp_dir().join(format!("tarr-reply-bodies-{}.jsonl", std::process::id()));
    let mut input = String::from(r#"{"op":"ingest","cluster":"t","gpc_nodes":64}"#);
    input.push('\n');
    for i in 0..24 {
        let op = if i % 3 == 2 { "reorder" } else { "map" };
        input.push_str(&request(Some(&i.to_string()), op, "t", "hrstc", "ring"));
        input.push('\n');
    }
    input.push_str(r#"{"op":"ingest","cluster":"u","gpc_nodes":2}"#);
    input.push('\n');
    input.push_str(r#"{"op":"stats"}"#);
    input.push('\n');
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tarr-serve"))
        .args(["--workers", "4", "--trace-out"])
        .arg(&trace)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stats = parse(stdout.lines().last().unwrap()).unwrap();
    let body = stats
        .get("cluster_caches")
        .and_then(|c| c.get("t"))
        .and_then(|c| c.get("reply_body"))
        .unwrap_or_else(|| panic!("no reply_body counters: {stats:?}"));
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    let mut total = 0;
    for kind in ["hit", "miss", "coalesced"] {
        let name = format!("serve.reply.body.{kind}");
        // Samples are cumulative; an untouched counter has none.
        let traced = jsonl
            .lines()
            .map(|l| parse(l).unwrap())
            .filter(|v| {
                v.get("type").and_then(Json::as_str) == Some("counter")
                    && v.get("name").and_then(Json::as_str) == Some(name.as_str())
            })
            .filter_map(|v| v.get("value").and_then(Json::as_u64))
            .max()
            .unwrap_or(0);
        let reported = body.get(kind).and_then(Json::as_u64).unwrap();
        assert_eq!(traced, reported, "{name}");
        total += traced;
    }
    assert_eq!(total, 24);
    assert_eq!(body.get("miss").and_then(Json::as_u64), Some(2));
}
