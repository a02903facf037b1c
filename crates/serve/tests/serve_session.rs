//! End-to-end tests of the serve stack: engine dispatch, protocol
//! round-trips, determinism of a scripted session at any worker count, and
//! agreement with a solo [`Session`] on the same cluster.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tarr_core::{Mapper, PatternKind, Scheme, Session, SessionConfig};
use tarr_mapping::{InitialMapping, OrderFix};
use tarr_serve::{check_prometheus, serve_lines, serve_metrics, serve_tcp, Engine, ServeOpts};
use tarr_topo::Cluster;
use tarr_trace::json::{parse, Json};

/// A repo-root fixture file (the same ones the CI serve job uses).
fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

const SCRIPT: &[&str] = &[
    r#"{"id":1,"op":"ingest","cluster":"c1","gpc_nodes":4}"#,
    r#"{"id":2,"op":"map","cluster":"c1","mapper":"hrstc","pattern":"ring"}"#,
    r#"{"id":3,"op":"price","cluster":"c1","collective":"allgather","msg_bytes":65536,"mapper":"hrstc","fix":"in_place"}"#,
    r#"{"id":4,"op":"price","cluster":"c1","collective":"allgather","msg_bytes":65536,"mapper":"hrstc","fix":"in_place"}"#,
    r#"{"id":5,"op":"price","cluster":"c1","collective":"allgather","msg_bytes":65536}"#,
    r#"{"id":6,"op":"reorder","cluster":"c1","mapper":"scotch","pattern":"rd"}"#,
    r#"{"id":7,"op":"fault","cluster":"c1","seed":7,"link_fail":0.02}"#,
    r#"{"id":8,"op":"map","cluster":"c1","mapper":"hrstc","pattern":"ring"}"#,
    r#"{"id":9,"op":"price","cluster":"c1","collective":"gather","msg_bytes":4096,"mapper":"greedy","fix":"end_shuffle"}"#,
];

fn run_script(engine: &Engine, lines: &[&str]) -> Vec<Json> {
    lines
        .iter()
        .map(|l| parse(&engine.handle_line(l)).expect("reply parses"))
        .collect()
}

fn field_f64(reply: &Json, key: &str) -> f64 {
    reply
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("reply lacks {key}: {reply:?}"))
}

#[test]
fn scripted_session_is_ok_and_deterministic() {
    let a = run_script(&Engine::new(), SCRIPT);
    let b = run_script(&Engine::new(), SCRIPT);
    assert_eq!(a, b, "two fresh engines must produce identical replies");
    for (i, reply) in a.iter().enumerate() {
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "request {i} failed: {reply:?}"
        );
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
    }
    // Warm repeat of the identical price request returns the identical
    // number.
    assert_eq!(
        field_f64(&a[2], "seconds").to_bits(),
        field_f64(&a[3], "seconds").to_bits()
    );
    // Reordering beats (or at worst ties) the default here.
    assert!(field_f64(&a[2], "seconds") <= field_f64(&a[4], "seconds"));
}

#[test]
fn engine_agrees_with_solo_session() {
    let engine = Engine::new();
    let replies = run_script(&engine, SCRIPT);

    // Mirror the script's pre-fault state with a solo session. The protocol
    // defaults: block-bunch layout, default seed.
    let cluster = Cluster::gpc(4);
    let p = cluster.total_cores();
    let mut solo = Session::from_layout(
        cluster,
        InitialMapping::BLOCK_BUNCH,
        p,
        SessionConfig::default(),
    );
    let mapping: Vec<u64> = replies[1]
        .get("mapping")
        .and_then(Json::as_arr)
        .expect("map reply carries the mapping")
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    let solo_mapping: Vec<u64> = solo
        .mapping(Mapper::Hrstc, PatternKind::Ring)
        .unwrap()
        .mapping
        .iter()
        .map(|&v| v as u64)
        .collect();
    assert_eq!(mapping, solo_mapping);

    let t = solo.allgather_time(65536, Scheme::hrstc(OrderFix::InPlace));
    assert_eq!(field_f64(&replies[2], "seconds").to_bits(), t.to_bits());
    let t = solo.allgather_time(65536, Scheme::Default);
    assert_eq!(field_f64(&replies[4], "seconds").to_bits(), t.to_bits());
}

#[test]
fn errors_are_typed_not_fatal() {
    let engine = Engine::new();
    // A 16-core cluster as inline snapshot text, for the rank-count rows.
    let mut text = String::new();
    tarr_trace::json::write_escaped(
        &mut text,
        &tarr_ingest::ClusterSnapshot::canonical_cluster_text(&Cluster::gpc(2)),
    );
    let from_text =
        |p: u64| format!(r#"{{"op":"ingest","cluster":"x","snapshot":{text},"p":{p}}}"#);
    let (text_p0, text_p12, text_p_big) = (from_text(0), from_text(12), from_text(100000));
    // The same cluster text with a node count far above the ingest ceiling.
    let mut huge = String::new();
    tarr_trace::json::write_escaped(
        &mut huge,
        &tarr_ingest::ClusterSnapshot::canonical_cluster_text(&Cluster::gpc(2))
            .replace("[nodes] 2", "[nodes] 500000000"),
    );
    let text_huge = format!(r#"{{"op":"ingest","cluster":"x","snapshot":{huge}}}"#);
    for (line, needle) in [
        ("{not json", "bad request"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (
            r#"{"op":"map","cluster":"nope","mapper":"hrstc","pattern":"ring"}"#,
            "unknown cluster",
        ),
        (r#"{"op":"ingest","cluster":"x"}"#, "ingest needs"),
        (r#"{"op":"price","cluster":"nope"}"#, "unknown cluster"),
        // Core counts past the u32 id space are refused before any
        // allocation, in release builds too (where the product wraps).
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":1000000000}"#,
            "exceeds the u32 core id space",
        ),
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":4611686018427387903}"#,
            "exceeds the u32 core id space",
        ),
        // Empty clusters and rank counts the layouts cannot place are
        // refused before any layout work, from either cluster source.
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":0}"#,
            "gpc_nodes 0: cluster must have at least one node",
        ),
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":4,"p":0}"#,
            "not a positive multiple of the 8 cores per node",
        ),
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":4,"p":12}"#,
            "not a positive multiple of the 8 cores per node",
        ),
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":4,"p":100000}"#,
            "exceeds the cluster's 32 cores",
        ),
        (
            text_p0.as_str(),
            "not a positive multiple of the 8 cores per node",
        ),
        (
            text_p12.as_str(),
            "not a positive multiple of the 8 cores per node",
        ),
        (text_p_big.as_str(), "exceeds the cluster's 16 cores"),
        // Clusters above the ingest ceiling (2^20 cores) are refused
        // before any layout or oracle work, from either cluster source,
        // even where the core count fits the u32 id space.
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":500000000}"#,
            "exceeds the ingest ceiling of 1048576 cores",
        ),
        (
            r#"{"op":"ingest","cluster":"x","gpc_nodes":131073,"p":8}"#,
            "exceeds the ingest ceiling of 1048576 cores",
        ),
        (
            text_huge.as_str(),
            "exceeds the ingest ceiling of 1048576 cores",
        ),
    ] {
        let reply = parse(&engine.handle_line(line)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "line: {line}");
        assert_ne!(
            reply.get("code").and_then(Json::as_str),
            Some("internal_error"),
            "line: {line}"
        );
        let msg = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
    }
    assert_eq!(engine.stats().errors(), 17);
    // The engine still works after the error barrage.
    let ok = engine.handle_line(r#"{"op":"ingest","cluster":"x","gpc_nodes":2}"#);
    assert!(ok.contains("\"ok\":true"));
}

/// `"backend":"dense"` is a legacy wire value: at 65,536 ranks it builds the
/// same O(P) oracle core as `"implicit"` (a dense matrix there would be
/// 8 GiB), and the `map` reply after it is byte-identical. Any other value
/// is still the typed `unknown backend` error.
#[test]
fn dense_backend_ingest_at_65536_ranks_serves_the_oracle_core() {
    let map = r#"{"id":2,"op":"map","cluster":"big","mapper":"hrstc","pattern":"ring"}"#;
    let serve = |backend: &str| {
        let engine = Engine::new();
        let ingest = format!(
            r#"{{"id":1,"op":"ingest","cluster":"big","gpc_nodes":8192,"backend":"{backend}"}}"#
        );
        let reply = parse(&engine.handle_line(&ingest)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!(reply.get("ranks").and_then(Json::as_u64), Some(65536));
        engine.handle_line(map)
    };
    let dense = serve("dense");
    assert!(dense.contains("\"ok\":true"), "{}", &dense[..200]);
    assert!(dense == serve("implicit"), "map replies differ");

    let engine = Engine::new();
    let reply = parse(
        &engine
            .handle_line(r#"{"id":3,"op":"ingest","cluster":"b","gpc_nodes":2,"backend":"bogus"}"#),
    )
    .unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let msg = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.starts_with("unknown backend \"bogus\""), "{msg:?}");
}

/// Allreduce at a non-power-of-two rank count (24 ranks) is a typed client
/// error, not a caught panic: neither algorithm has XOR partners there. The
/// other collectives still price on the same cluster, and allreduce still
/// prices on a power-of-two one.
#[test]
fn allreduce_at_24_ranks_is_an_unsupported_collective() {
    let engine = Engine::new();
    let script = [
        r#"{"id":1,"op":"ingest","cluster":"p24","gpc_nodes":3}"#,
        r#"{"id":2,"op":"price","cluster":"p24","collective":"allreduce","msg_bytes":4096}"#,
        r#"{"id":3,"op":"price","cluster":"p24","collective":"allreduce","msg_bytes":4096,"rabenseifner":false,"mapper":"hrstc"}"#,
        r#"{"id":4,"op":"price","cluster":"p24","collective":"bcast","msg_bytes":4096,"mapper":"hrstc"}"#,
        r#"{"id":5,"op":"ingest","cluster":"p32","gpc_nodes":4}"#,
        r#"{"id":6,"op":"price","cluster":"p32","collective":"allreduce","msg_bytes":4096}"#,
    ];
    let replies = run_script(&engine, &script);
    for reply in &replies[1..3] {
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
        assert_eq!(
            reply.get("code"),
            None,
            "a client error, not internal: {reply:?}"
        );
        let msg = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(
            msg.starts_with("unsupported collective allreduce for this cluster"),
            "{msg:?}"
        );
    }
    for i in [0, 3, 4, 5] {
        assert_eq!(
            replies[i].get("ok"),
            Some(&Json::Bool(true)),
            "{:?}",
            replies[i]
        );
    }
    assert_eq!(engine.stats().errors(), 2);
}

#[test]
fn worker_count_does_not_change_the_output_stream() {
    // The script interleaves mutating ops (ingest, fault) with requests
    // that depend on them, so any scheduling leak — a map outrunning its
    // ingest, a price outrunning a fault — shows up as a diff. Repeat the
    // parallel runs: the pre-barrier race was intermittent.
    let script = SCRIPT.join("\n");
    let run = |workers: usize| {
        let engine = Engine::new();
        let mut out = Vec::new();
        let served = serve_lines(
            &engine,
            script.as_bytes(),
            &mut out,
            &ServeOpts {
                workers,
                queue_cap: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(served, SCRIPT.len() as u64);
        String::from_utf8(out).unwrap()
    };
    let serial = run(1);
    for trial in 0..8 {
        assert_eq!(
            serial,
            run(8),
            "reply stream must be byte-identical at any worker count (trial {trial})"
        );
    }
}

#[test]
fn shutdown_stops_the_stream() {
    let engine = Engine::new();
    let script = [
        r#"{"id":1,"op":"ingest","cluster":"c1","gpc_nodes":2}"#,
        r#"{"id":2,"op":"shutdown"}"#,
        r#"{"id":3,"op":"stats"}"#,
    ]
    .join("\n");
    let mut out = Vec::new();
    let served = serve_lines(&engine, script.as_bytes(), &mut out, &ServeOpts::default()).unwrap();
    assert_eq!(served, 2, "the line after shutdown is never admitted");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 2);
    assert!(text.lines().nth(1).unwrap().contains("\"op\":\"shutdown\""));
}

/// The CI golden session's request script, with its snapshot written to a
/// per-test temp path (`tag` keeps concurrent tests apart). Returns the
/// script and the path to remove afterwards.
fn golden_script(tag: &str) -> (String, std::path::PathBuf) {
    let (snapshot, warnings) =
        tarr_ingest::ingest_snapshot(&fixture("gpc_node.xml"), &fixture("gpc_ib.txt")).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    let snap_path = std::env::temp_dir().join(format!(
        "tarr_serve_golden_{tag}_{}.snap",
        std::process::id()
    ));
    std::fs::write(&snap_path, snapshot.to_text()).unwrap();
    let script = fixture("serve_session.txt").replace("/tmp/gpc.snap", snap_path.to_str().unwrap());
    (script, snap_path)
}

#[test]
fn golden_fixture_is_byte_identical_with_metrics_enabled() {
    // The CI golden fixture, run in-process: RED metrics record every
    // request (they are always on), and the reply stream must still be
    // byte-identical to the golden at any worker count — the proof that
    // observability never leaks into reply contents.
    let (script, snap_path) = golden_script("lines");
    let golden = fixture("serve_session.golden");
    for workers in [1, 8] {
        let engine = Engine::new();
        let mut out = Vec::new();
        let served = serve_lines(
            &engine,
            script.as_bytes(),
            &mut out,
            &ServeOpts {
                workers,
                queue_cap: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(served, 12);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            golden,
            "golden fixture diverged at {workers} worker(s)"
        );
        assert_eq!(engine.metrics().total_requests(), 12);
        let report = check_prometheus(&engine.metrics().render_prometheus()).unwrap();
        assert_eq!(report.requests_total, 12);
    }
    let _ = std::fs::remove_file(&snap_path);
}

/// A stream that hands out one line (with its newline) per `read` call:
/// a client that sends each request only after the previous reply.
struct LinePerRead<'a>(&'a [u8]);

impl Read for LinePerRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let line = self
            .0
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.0.len(), |i| i + 1);
        let n = line.min(buf.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn golden_fixture_is_byte_identical_one_line_per_read() {
    // Unpipelined, every request finds the pool idle and no line behind
    // it, so the reader serves it inline: the reply stream must still be
    // the golden at any worker count, and no request waits in the queue.
    let (script, snap_path) = golden_script("unpipelined");
    let golden = fixture("serve_session.golden");
    for workers in [1, 2, 4, 8] {
        let engine = Engine::new();
        let mut out = Vec::new();
        let served = serve_lines(
            &engine,
            LinePerRead(script.as_bytes()),
            &mut out,
            &ServeOpts {
                workers,
                queue_cap: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(served, 12);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            golden,
            "golden fixture diverged at {workers} worker(s)"
        );
        let waits: Vec<_> = tarr_serve::metrics::OPS
            .iter()
            .map(|op| engine.metrics().queue_wait_snapshot(op))
            .collect();
        assert_eq!(waits.iter().map(|h| h.count).sum::<u64>(), 12);
        assert_eq!(
            waits.iter().map(|h| h.sum).sum::<u64>(),
            0,
            "an inline request never waits in the queue ({workers} worker(s))"
        );
    }
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn parsed_entry_point_matches_handle_line() {
    // The serve loop hands the engine the reader's parse; `handle_line`
    // parses itself. Both must answer every golden line and every
    // malformed line identically, with the parser's message verbatim
    // behind `bad request: `.
    let (script, snap_path) = golden_script("parsed");
    let by_line = Engine::new();
    let by_parse = Engine::new();
    let malformed = [
        "{not json",
        "[1,2",
        r#"{"op":}"#,
        r#"{"op":"stats"} trailing"#,
        "\"just a string\"",
        "42",
        "{}",
    ];
    for line in script.lines().chain(malformed) {
        let parsed = parse(line);
        let reply = by_parse.handle_parsed(by_parse.next_request_id(), Duration::ZERO, &parsed);
        assert_eq!(reply, by_line.handle_line(line), "{line}");
        if let Err(e) = &parsed {
            let reply = parse(&reply).unwrap();
            assert_eq!(
                reply.get("error").and_then(Json::as_str),
                Some(format!("bad request: {e}").as_str())
            );
        }
    }
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn latency_histograms_count_every_admitted_request() {
    // Queue-wait and service histograms each get exactly one sample per
    // dispatched request, across all ops.
    let engine = Engine::new();
    let script = SCRIPT.join("\n");
    let mut out = Vec::new();
    let served = serve_lines(
        &engine,
        script.as_bytes(),
        &mut out,
        &ServeOpts {
            workers: 4,
            queue_cap: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(served, SCRIPT.len() as u64);
    let m = engine.metrics();
    let wait: u64 = tarr_serve::metrics::OPS
        .iter()
        .map(|op| m.queue_wait_snapshot(op).count)
        .sum();
    let service: u64 = tarr_serve::metrics::OPS
        .iter()
        .map(|op| m.service_snapshot(op).count)
        .sum();
    assert_eq!(wait, served, "one queue-wait sample per request");
    assert_eq!(service, served, "one service sample per request");
    assert_eq!(m.total_requests(), served);
    // The inline-run mutating ops (ingest, fault) never queue: their
    // queue-wait is recorded as exactly zero, which the log2 histogram
    // keeps in its dedicated zero bucket.
    assert!(m.queue_wait_snapshot("ingest").max == 0);
    assert!(m.queue_wait_snapshot("fault").max == 0);
}

#[test]
fn metrics_op_renders_parseable_prometheus() {
    let engine = Engine::new();
    engine.handle_line(r#"{"op":"ingest","cluster":"m1","gpc_nodes":2}"#);
    engine.handle_line(
        r#"{"op":"price","cluster":"m1","collective":"bcast","msg_bytes":1024,"mapper":"hrstc"}"#,
    );
    engine.handle_line(r#"{"op":"frobnicate"}"#);
    let reply = parse(&engine.handle_line(r#"{"id":9,"op":"metrics"}"#)).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    let text = reply.get("text").and_then(Json::as_str).unwrap();
    let report = check_prometheus(text).unwrap();
    // `begin` counts at dispatch, so the in-flight metrics request itself
    // is part of its own snapshot and the totals line up exactly.
    assert_eq!(report.requests_total, engine.stats().requests());
    assert!(text.contains(r#"tarr_serve_requests_total{op="price"} 1"#));
    assert!(text.contains(r#"tarr_serve_errors_total{op="other"} 1"#));
    assert!(text.contains(r#"tarr_serve_cluster_requests_total{cluster="m1"} 2"#));
}

#[test]
fn stats_breaks_caches_down_per_cluster() {
    let engine = Engine::new();
    engine.handle_line(r#"{"op":"ingest","cluster":"s1","gpc_nodes":2}"#);
    let price =
        r#"{"op":"price","cluster":"s1","collective":"bcast","msg_bytes":1024,"mapper":"hrstc"}"#;
    engine.handle_line(price);
    engine.handle_line(price); // warm repeat: guaranteed cache traffic
    let reply = parse(&engine.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let caches = reply.get("cluster_caches").expect("cluster_caches field");
    let s1 = caches.get("s1").expect("per-cluster entry");
    let mut hits = 0;
    let mut misses = 0;
    for family in ["mapping", "comm", "sched", "price"] {
        let fam = s1.get(family).unwrap_or_else(|| panic!("{family} entry"));
        for outcome in ["hit", "miss", "coalesced"] {
            let v = fam.get(outcome).and_then(Json::as_u64);
            assert!(v.is_some(), "{family}.{outcome} missing: {reply:?}");
            match outcome {
                "hit" => hits += v.unwrap(),
                "miss" => misses += v.unwrap(),
                _ => {}
            }
        }
    }
    assert!(misses > 0, "first price must miss: {reply:?}");
    assert!(hits > 0, "warm repeat must hit: {reply:?}");
}

#[test]
fn metrics_endpoint_serves_http() {
    let engine: &'static Engine = Box::leak(Box::new(Engine::new()));
    engine.handle_line(r#"{"op":"ingest","cluster":"h1","gpc_nodes":2}"#);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = serve_metrics(engine, listener);
    });
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    let report = check_prometheus(body).unwrap();
    assert_eq!(report.requests_total, engine.stats().requests());
}

#[test]
fn tcp_round_trip() {
    let engine: &'static Engine = Box::leak(Box::new(Engine::new()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = serve_tcp(
            engine,
            listener,
            &ServeOpts {
                workers: 2,
                queue_cap: 16,
                ..Default::default()
            },
        );
    });
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut send = |line: &str| writeln!(stream, "{line}").unwrap();
    send(r#"{"id":1,"op":"ingest","cluster":"t","gpc_nodes":2}"#);
    send(
        r#"{"id":2,"op":"price","cluster":"t","collective":"bcast","msg_bytes":1024,"mapper":"hrstc"}"#,
    );
    send(r#"{"id":3,"op":"shutdown"}"#);
    let reader = BufReader::new(stream.try_clone().unwrap());
    let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(replies.len(), 3);
    for (i, r) in replies.iter().enumerate() {
        let v = parse(r).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "reply {i}: {r}");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
    }
}

#[test]
fn slow_ms_zero_logs_every_request_to_stderr() {
    // --slow-ms 0 means "log every request" — the only threshold the test
    // can rely on, since warm requests finish in microseconds. Drives the
    // real binary so the stderr format is covered end to end.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tarr-serve"))
        .args(["--workers", "1", "--slow-ms", "0"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .unwrap()
                .write_all(
                    concat!(
                        r#"{"id":1,"op":"ingest","cluster":"t","gpc_nodes":2}"#,
                        "\n",
                        r#"{"id":2,"op":"map","cluster":"t","mapper":"hrstc","pattern":"ring"}"#,
                        "\n",
                    )
                    .as_bytes(),
                )
                .unwrap();
            child.wait_with_output()
        })
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let slow: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("slow request"))
        .collect();
    assert_eq!(slow.len(), 2, "one log line per request:\n{stderr}");
    assert!(
        slow[0].contains("slow request 1 op=ingest cluster=t"),
        "{}",
        slow[0]
    );
    assert!(
        slow[1].contains("slow request 2 op=map cluster=t") && slow[1].contains("stages:"),
        "{}",
        slow[1]
    );
    // Stage self-times come from the request scope even with the recorder
    // off — the breakdown names the serve.handle stage at minimum.
    assert!(slow[1].contains("serve.handle="), "{}", slow[1]);
}

/// A sink that keeps every `write` call's bytes separately.
#[derive(Default)]
struct WriteLog(Vec<Vec<u8>>);

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl WriteLog {
    /// Check that every write holds one or more whole reply lines, that
    /// the writes concatenate to the replies with ids `1..=n` in order,
    /// and that there are no more writes than replies. Returns the replies.
    fn whole_lines_in_order(&self, n: usize) -> Vec<String> {
        assert!(self.0.len() <= n, "{} writes for {n} replies", self.0.len());
        for (i, write) in self.0.iter().enumerate() {
            assert!(
                write.ends_with(b"\n"),
                "write {i} is not whole lines: {}",
                String::from_utf8_lossy(write)
            );
        }
        let text = String::from_utf8(self.0.concat()).unwrap();
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), n);
        for (i, line) in lines.iter().enumerate() {
            let reply = parse(line).unwrap();
            assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
        }
        lines
    }
}

#[test]
fn every_reply_is_one_write() {
    // A reply split over two writes stalls a TCP client: the second
    // segment waits for the first one's delayed ACK. Large array replies
    // and small tree replies, in parallel, must leave in writes of whole
    // lines — several replies may share a write, none is ever split.
    let engine = Engine::new();
    let mut log = WriteLog::default();
    let served = serve_lines(
        &engine,
        SCRIPT.join("\n").as_bytes(),
        &mut log,
        &ServeOpts {
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(served, SCRIPT.len() as u64);
    log.whole_lines_in_order(SCRIPT.len());
}

#[test]
fn unpipelined_replies_are_one_write_each() {
    // One line per read: nothing ever waits in the queue, so every reply
    // is written by itself, as soon as it is ready.
    let engine = Engine::new();
    let mut log = WriteLog::default();
    let script = SCRIPT.join("\n");
    let served = serve_lines(
        &engine,
        LinePerRead(script.as_bytes()),
        &mut log,
        &ServeOpts {
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(served, SCRIPT.len() as u64);
    assert_eq!(log.0.len(), SCRIPT.len(), "one write per reply");
    log.whole_lines_in_order(SCRIPT.len());
}

#[test]
fn pipelined_batch_is_coalesced() {
    // A pass of 24 read-only requests in one read, at 2 workers: the
    // reader queues the whole pass while the first replies are computed,
    // and a worker that finds a request still waiting leaves its reply
    // for a later write. Cold requests (each computes a mapping or a
    // schedule) keep the queue busy for most of the pass.
    let engine = Engine::new();
    let ingest = r#"{"op":"ingest","cluster":"c","gpc_nodes":64}"#;
    assert!(engine.handle_line(ingest).contains("\"ok\":true"));
    let mut lines = Vec::new();
    for mapper in ["hrstc", "greedy", "scotch"] {
        for pattern in ["ring", "rd"] {
            lines.push(format!(
                r#""op":"map","cluster":"c","mapper":"{mapper}","pattern":"{pattern}""#
            ));
        }
        for (collective, msg) in [("allgather", 4096), ("gather", 65536), ("bcast", 1024)] {
            lines.push(format!(
                r#""op":"price","cluster":"c","collective":"{collective}","msg_bytes":{msg},"mapper":"{mapper}""#
            ));
        }
    }
    lines.extend((0..9).map(|m| {
        format!(
            r#""op":"price","cluster":"c","collective":"allgather","msg_bytes":{}"#,
            1 << m
        )
    }));
    assert_eq!(lines.len(), 24);
    let script: String = lines
        .iter()
        .enumerate()
        .map(|(i, body)| format!("{{\"id\":{},{body}}}\n", i + 1))
        .collect();
    let mut log = WriteLog::default();
    let served = serve_lines(
        &engine,
        script.as_bytes(),
        &mut log,
        &ServeOpts {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(served, 24);
    for reply in log.whole_lines_in_order(24) {
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    assert!(
        log.0.len() < 24,
        "a pipelined pass must share writes, got {} writes",
        log.0.len()
    );
}

#[test]
fn golden_fixture_is_byte_identical_over_tcp() {
    // The golden session over a loopback connection to the in-process
    // TCP server: one write of the whole script, replies read to EOF (the
    // script ends with `shutdown`, which closes the connection).
    let (script, snap_path) = golden_script("tcp");
    let engine = Engine::new();
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let replies = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_tcp(
                &engine,
                listener,
                &ServeOpts {
                    workers: 4,
                    shutdown: Some(stop),
                    ..Default::default()
                },
            )
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(script.as_bytes()).unwrap();
        let mut replies = String::new();
        stream.read_to_string(&mut replies).unwrap();
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
        replies
    });
    let _ = std::fs::remove_file(&snap_path);
    assert_eq!(replies, fixture("serve_session.golden"));
}
