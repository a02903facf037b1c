//! End-to-end tests of the serve stack: engine dispatch, protocol
//! round-trips, determinism of a scripted session at any worker count, and
//! agreement with a solo [`Session`] on the same cluster.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use tarr_core::{DistanceBackend, Mapper, PatternKind, Scheme, Session, SessionConfig};
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
    // defaults: implicit backend, block-bunch layout, default seed.
    let cluster = Cluster::gpc(4);
    let p = cluster.total_cores();
    let mut solo = Session::from_layout(
        cluster,
        InitialMapping::BLOCK_BUNCH,
        p,
        SessionConfig {
            backend: DistanceBackend::Implicit,
            ..SessionConfig::default()
        },
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
    for (line, needle) in [
        ("{not json", "bad request"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (
            r#"{"op":"map","cluster":"nope","mapper":"hrstc","pattern":"ring"}"#,
            "unknown cluster",
        ),
        (r#"{"op":"ingest","cluster":"x"}"#, "ingest needs"),
        (r#"{"op":"price","cluster":"nope"}"#, "unknown cluster"),
    ] {
        let reply = parse(&engine.handle_line(line)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "line: {line}");
        let msg = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
    }
    assert_eq!(engine.stats().errors(), 5);
    // The engine still works after the error barrage.
    let ok = engine.handle_line(r#"{"op":"ingest","cluster":"x","gpc_nodes":2}"#);
    assert!(ok.contains("\"ok\":true"));
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

#[test]
fn every_reply_is_one_write() {
    // A reply split over two writes stalls a TCP client: the second
    // segment waits for the first one's delayed ACK. Large array replies
    // and small tree replies, in parallel, must each leave as one write
    // of the whole line and its newline.
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
    assert_eq!(log.0.len(), SCRIPT.len(), "one write per reply");
    for (i, write) in log.0.iter().enumerate() {
        let text = std::str::from_utf8(write).unwrap();
        assert!(
            text.ends_with('\n'),
            "write {i} is not a whole line: {text}"
        );
        assert_eq!(text.matches('\n').count(), 1, "write {i}: {text}");
        let reply = parse(text.trim_end()).unwrap();
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
    }
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
