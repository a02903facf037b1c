//! serve_bench — throughput of the serving stack versus worker count, and
//! the cold-coalesce guarantee of the shared-core caches.
//!
//! Two measurements, recorded in `BENCH_serve.json`:
//!
//! 1. **Warm throughput.** One engine with a GPC cluster ingested and every
//!    cache warmed, then the same mixed request script (map / reorder /
//!    price across collectives, sizes and schemes) is replayed through
//!    [`serve_lines`] at 1, 2, 4 and 8 workers, fed as one pipelined
//!    buffer, and at 1 and 2 workers fed one line per `read` (unpipelined:
//!    the reader serves each request itself, as for a closed-loop client).
//!    Requests/s per configuration, best of `REPS` replays. The ≥4× scaling
//!    assertion (pipelined rows) only fires when the host actually has ≥8
//!    hardware threads — on a smaller runner the honest numbers are still
//!    recorded, plus the parallelism they were measured at.
//!
//! 2. **Cold coalesce.** A fresh engine, N threads released by a barrier
//!    onto the *identical* expensive cold request. The core's sharded
//!    once-cells guarantee the mapping is computed exactly once and the
//!    other N−1 requests share it (as cache hits or in-flight coalesces)
//!    — asserted unconditionally, on any host.
//!
//! 3. **Warm latency percentiles.** The sweep's engine keeps per-op RED
//!    latency histograms; p50/p95/p99 service times for map / reorder /
//!    price are summarized from the log2 buckets into the JSON.
//!
//! 4. **Recorder overhead.** The same warm serial replay with the
//!    tarr-trace recorder off vs. on (request scopes, `serve.handle` spans,
//!    counters), best-of-N and clamped at zero like `benches/timing.rs` —
//!    asserted < 2% on any host.
//!
//! 5. **Pipelined TCP.** The in-process [`serve_tcp`] on loopback at 2
//!    workers, one client sending passes of 24 warm requests in one write
//!    each and reading all 24 replies before the next pass: requests/s,
//!    best of `REPS`, and reply writes per reply (the `serve.reply.writes`
//!    trace counter over one traced replay). Unlike the rows above, which
//!    write to `io::sink()`, this row pays for every write.
//!
//! `cargo bench --bench serve` regenerates the JSON; `--test` runs a smoke
//! pass without overwriting the committed numbers.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use tarr_serve::{serve_lines, serve_tcp, Engine, ServeOpts};

/// Ops whose warm service-time percentiles land in the JSON.
const LATENCY_OPS: [&str; 3] = ["map", "reorder", "price"];
/// Replays per timing point of the recorder-overhead measurement.
const OVERHEAD_REPS: usize = 50;

/// Worker counts swept by the pipelined throughput measurement.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Worker counts of the unpipelined (one line per `read`) rows.
const UNPIPELINED_SWEEP: [usize; 2] = [1, 2];
/// Threads hammering the identical cold request.
const COLD_THREADS: usize = 8;
/// Workers of the pipelined TCP row.
const TCP_WORKERS: usize = 2;
/// Requests per write of the pipelined TCP row.
const TCP_PASS: usize = 24;

/// The mixed request script replayed by every throughput configuration:
/// mapping and reorder lookups plus prices across collectives, message
/// sizes and schemes. All against one cluster, all deterministic.
fn request_mix(cluster: &str) -> Vec<String> {
    let mut v = Vec::new();
    for (mapper, pattern) in [("hrstc", "ring"), ("scotch", "rd"), ("greedy", "ring")] {
        v.push(format!(
            r#"{{"op":"map","cluster":"{cluster}","mapper":"{mapper}","pattern":"{pattern}"}}"#
        ));
        v.push(format!(
            r#"{{"op":"reorder","cluster":"{cluster}","mapper":"{mapper}","pattern":"{pattern}"}}"#
        ));
    }
    for msg in [1024u64, 65536, 1048576] {
        v.push(format!(
            r#"{{"op":"price","cluster":"{cluster}","collective":"allgather","msg_bytes":{msg}}}"#
        ));
        for (mapper, fix) in [
            ("hrstc", "in_place"),
            ("scotch", "init_comm"),
            ("greedy", "end_shuffle"),
        ] {
            v.push(format!(
                r#"{{"op":"price","cluster":"{cluster}","collective":"allgather","msg_bytes":{msg},"mapper":"{mapper}","fix":"{fix}"}}"#
            ));
        }
    }
    v.push(format!(
        r#"{{"op":"price","cluster":"{cluster}","collective":"gather","msg_bytes":4096,"mapper":"hrstc"}}"#
    ));
    v.push(format!(
        r#"{{"op":"price","cluster":"{cluster}","collective":"bcast","msg_bytes":1024,"mapper":"scotch"}}"#
    ));
    v.push(format!(
        r#"{{"op":"price","cluster":"{cluster}","collective":"allreduce","msg_bytes":65536,"mapper":"hrstc","fix":"in_place"}}"#
    ));
    v
}

struct ThroughputPoint {
    workers: usize,
    pipelined: bool,
    requests_per_s: f64,
}

/// An in-memory stream that returns one request line per `read` call:
/// nothing is pipelined behind a line, as with a client that waits for
/// each reply before it sends the next request.
struct LinePerRead<'a>(&'a [u8]);

impl io::Read for LinePerRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
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

/// Replay `script` through [`serve_lines`] — as one buffer, or one line per
/// `read` when not `pipelined` — and return requests/s, best of `reps`
/// replays (minimum wall time — the replay least disturbed by scheduling
/// noise).
fn measure_rps(engine: &Engine, script: &str, workers: usize, pipelined: bool, reps: usize) -> f64 {
    let requests = script.lines().count() as u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let opts = ServeOpts {
            workers,
            queue_cap: 1024,
            ..Default::default()
        };
        let t = Instant::now();
        let served = if pipelined {
            serve_lines(engine, script.as_bytes(), io::sink(), &opts)
        } else {
            serve_lines(engine, LinePerRead(script.as_bytes()), io::sink(), &opts)
        }
        .expect("serve_lines on an in-memory stream cannot fail");
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(served, requests, "every scripted request must be served");
        best = best.min(dt);
    }
    requests as f64 / best
}

/// Warm-throughput sweep: ingest, warm every cache with one serial replay,
/// then measure each worker count against the identical warm engine. The
/// engine is returned too: its RED histograms hold the warm service times
/// of every replayed request, the source of the latency percentiles.
fn throughput_sweep(
    gpc_nodes: usize,
    passes: usize,
    reps: usize,
) -> (Vec<ThroughputPoint>, Engine) {
    let engine = Engine::new();
    let ingest = format!(r#"{{"op":"ingest","cluster":"w","gpc_nodes":{gpc_nodes}}}"#);
    let reply = engine.handle_line(&ingest);
    assert!(reply.contains("\"ok\":true"), "ingest failed: {reply}");
    let mix = request_mix("w");
    for line in &mix {
        let reply = engine.handle_line(line);
        assert!(reply.contains("\"ok\":true"), "warm-up failed: {reply}");
    }
    let one_pass = mix.join("\n");
    let mut script = String::with_capacity((one_pass.len() + 1) * passes);
    for _ in 0..passes {
        script.push_str(&one_pass);
        script.push('\n');
    }
    let rows = WORKER_SWEEP
        .iter()
        .map(|&w| (w, true))
        .chain(UNPIPELINED_SWEEP.iter().map(|&w| (w, false)));
    let sweep = rows
        .map(|(workers, pipelined)| ThroughputPoint {
            workers,
            pipelined,
            requests_per_s: measure_rps(&engine, &script, workers, pipelined, reps),
        })
        .collect();
    (sweep, engine)
}

/// The pipelined TCP row: requests/s (best of `reps` replays of `passes`
/// passes) and reply writes per reply (one traced replay).
struct TcpPoint {
    passes: usize,
    requests_per_s: f64,
    writes_per_reply: f64,
}

/// Serve the warm `engine` over loopback TCP at [`TCP_WORKERS`] workers;
/// one client connection sends each pass of [`TCP_PASS`] lines (the mix,
/// cycled) in one write and reads every reply before the next pass.
fn tcp_pipelined(engine: &Engine, mix: &[String], passes: usize, reps: usize) -> TcpPoint {
    let mut pass = Vec::new();
    for line in mix.iter().cycle().take(TCP_PASS) {
        pass.extend_from_slice(line.as_bytes());
        pass.push(b'\n');
    }
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let opts = ServeOpts {
        workers: TCP_WORKERS,
        shutdown: Some(stop),
        ..Default::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(engine, listener, &opts));
        let mut tx = TcpStream::connect(addr).expect("connect to the in-process server");
        tx.set_nodelay(true).expect("TCP_NODELAY");
        let mut rx = BufReader::new(tx.try_clone().expect("clone the client stream"));
        let mut reply = Vec::new();
        let mut replay = |passes: usize| {
            let t = Instant::now();
            for _ in 0..passes {
                tx.write_all(&pass).expect("send a pass");
                for _ in 0..TCP_PASS {
                    reply.clear();
                    rx.read_until(b'\n', &mut reply).expect("read a reply");
                    assert!(
                        reply.ends_with(b"\n") && reply.windows(9).any(|w| w == b"\"ok\":true"),
                        "bad reply: {}",
                        String::from_utf8_lossy(&reply)
                    );
                }
            }
            t.elapsed().as_secs_f64()
        };
        let best = (0..reps)
            .map(|_| replay(passes))
            .fold(f64::INFINITY, f64::min);
        tarr_trace::set_enabled(true);
        tarr_trace::reset();
        replay(passes);
        let writes = tarr_trace::counter("serve.reply.writes").get();
        tarr_trace::set_enabled(false);
        tarr_trace::reset();
        drop((tx, rx));
        stop.store(true, Ordering::Relaxed);
        server
            .join()
            .expect("server thread")
            .expect("serve_tcp on loopback");
        let replies = (passes * TCP_PASS) as f64;
        TcpPoint {
            passes,
            requests_per_s: replies / best,
            writes_per_reply: writes as f64 / replies,
        }
    })
}

/// Per-op warm p50/p95/p99 service times from the engine's RED histograms,
/// as JSON object lines for the report.
fn latency_summary(engine: &Engine) -> Vec<String> {
    LATENCY_OPS
        .iter()
        .map(|op| {
            let snap = engine.metrics().service_snapshot(op);
            let (p50, p95, p99) = snap.percentiles();
            println!(
                "{op:>8}: count {:>7}, p50 {:>8} ns, p95 {:>8} ns, p99 {:>8} ns",
                snap.count, p50, p95, p99
            );
            format!(
                r#"    "{op}": {{"count": {}, "p50_ns": {p50}, "p95_ns": {p95}, "p99_ns": {p99}}}"#,
                snap.count
            )
        })
        .collect()
}

/// Recorder-on vs. recorder-off wall time of the warm serial serve loop,
/// min-of-N per side with the recorder reset between replays (so the event
/// buffer never saturates and every replay pays full recording cost).
/// Returns (off seconds, on seconds, clamped overhead %).
fn serve_trace_overhead(gpc_nodes: usize, passes: usize) -> (f64, f64, f64) {
    let engine = Engine::new();
    let ingest = format!(r#"{{"op":"ingest","cluster":"t","gpc_nodes":{gpc_nodes}}}"#);
    assert!(engine.handle_line(&ingest).contains("\"ok\":true"));
    let mix = request_mix("t");
    for line in &mix {
        assert!(engine.handle_line(line).contains("\"ok\":true"));
    }
    let one_pass = mix.join("\n");
    let mut script = String::with_capacity((one_pass.len() + 1) * passes);
    for _ in 0..passes {
        script.push_str(&one_pass);
        script.push('\n');
    }
    let opts = ServeOpts {
        workers: 1,
        queue_cap: 1024,
        ..Default::default()
    };
    // Replays run as interleaved off/on pairs and the overhead is the best
    // *paired* ratio: adjacent replays see the same host state, so drift
    // (thermal, background load, scheduler mood) cancels within a pair,
    // and the minimum over pairs is the ratio least disturbed by noise —
    // the paired analogue of timing.rs's best-of-N. Clamped at zero.
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let mut ratio = f64::INFINITY;
    let replay = |enabled: bool| {
        tarr_trace::set_enabled(enabled);
        tarr_trace::reset();
        let t = Instant::now();
        serve_lines(&engine, script.as_bytes(), io::sink(), &opts)
            .expect("serve_lines on an in-memory stream cannot fail");
        t.elapsed().as_secs_f64()
    };
    for _ in 0..OVERHEAD_REPS {
        let o = replay(false);
        let n = replay(true);
        off = off.min(o);
        on = on.min(n);
        ratio = ratio.min(n / o);
    }
    tarr_trace::set_enabled(false);
    tarr_trace::reset();
    let pct = ((ratio - 1.0) * 100.0).max(0.0);
    (off, on, pct)
}

struct ColdOutcome {
    threads: usize,
    misses: u64,
    hits: u64,
    coalesced: u64,
}

/// N threads, one barrier, one identical expensive cold request each.
/// Returns the core's mapping-cache accounting: exactly one compute, the
/// rest shared.
fn cold_coalesce(gpc_nodes: usize, threads: usize) -> ColdOutcome {
    let engine = Engine::new();
    let ingest = format!(r#"{{"op":"ingest","cluster":"cold","gpc_nodes":{gpc_nodes}}}"#);
    assert!(engine.handle_line(&ingest).contains("\"ok\":true"));
    let req = r#"{"op":"map","cluster":"cold","mapper":"hrstc","pattern":"ring"}"#;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                let reply = engine.handle_line(req);
                assert!(reply.contains("\"ok\":true"), "cold map failed: {reply}");
            });
        }
    });
    let snap = engine
        .core("cold")
        .expect("cluster was ingested")
        .cache_stats()
        .mappings;
    ColdOutcome {
        threads,
        misses: snap.misses,
        hits: snap.hits,
        coalesced: snap.coalesced,
    }
}

fn run(gpc_nodes: usize, passes: usize, tcp_passes: usize, reps: usize, write_json: bool) {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (sweep, warm_engine) = throughput_sweep(gpc_nodes, passes, reps);
    for pt in &sweep {
        println!(
            "workers {} ({}): {:>10.0} requests/s",
            pt.workers,
            stream(pt.pipelined),
            pt.requests_per_s
        );
    }
    let rps1 = sweep[0].requests_per_s;
    let rps8 = sweep[WORKER_SWEEP.len() - 1].requests_per_s;
    let speedup = rps8 / rps1;
    let speedup_asserted = parallelism >= 8;
    if speedup_asserted {
        assert!(
            speedup >= 4.0,
            "8-worker throughput must be ≥4× the 1-worker throughput on an \
             8-way host, got {speedup:.2}× ({rps8:.0} vs {rps1:.0} req/s)"
        );
    } else {
        println!(
            "speedup 8v1 = {speedup:.2}× (assertion skipped: only \
             {parallelism} hardware threads)"
        );
    }

    let cold = cold_coalesce(gpc_nodes, COLD_THREADS);
    let shared = cold.hits + cold.coalesced;
    assert_eq!(
        cold.misses, 1,
        "the identical cold request must be computed exactly once"
    );
    assert!(
        shared >= cold.threads as u64 - 1,
        "{} cold requests must produce ≥{} shared lookups, got {shared} \
         ({} hits + {} coalesced)",
        cold.threads,
        cold.threads - 1,
        cold.hits,
        cold.coalesced,
    );
    println!(
        "cold coalesce: {} threads → 1 compute, {} hits, {} coalesced",
        cold.threads, cold.hits, cold.coalesced
    );

    let latency_json = latency_summary(&warm_engine);

    let tcp = tcp_pipelined(&warm_engine, &request_mix("w"), tcp_passes, reps);
    println!(
        "tcp pipelined ({TCP_WORKERS} workers, {TCP_PASS} lines per write): \
         {:>10.0} requests/s, {:.3} writes per reply",
        tcp.requests_per_s, tcp.writes_per_reply
    );

    // Overhead is measured at the golden-fixture cluster scale (64 GPC
    // nodes, 512 ranks) in every mode: the ratio is only meaningful
    // against production-sized requests, and a fixed configuration keeps
    // the smoke pass asserting the same bound as the full run.
    let (tr_off, tr_on, tr_pct) = serve_trace_overhead(64, 20);
    println!(
        "serve trace overhead: off {:.3} ms, on {:.3} ms → {tr_pct:.2}%",
        tr_off * 1e3,
        tr_on * 1e3
    );
    assert!(
        tr_pct < 2.0,
        "recorder-on serve-loop overhead {tr_pct:.2}% exceeds the 2% \
         acceptance bound (off {:.4} ms, on {:.4} ms)",
        tr_off * 1e3,
        tr_on * 1e3,
    );

    if !write_json {
        return;
    }
    let throughput_json: Vec<String> = sweep
        .iter()
        .map(|pt| {
            format!(
                r#"    {{"workers": {}, "stream": "{}", "requests_per_s": {:.0}}}"#,
                pt.workers,
                stream(pt.pipelined),
                pt.requests_per_s
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "benchmark": "tarr-serve warm mixed workload (map/reorder/price) through serve_lines, GPC cluster with {gpc_nodes} nodes",
  "requests_per_pass": {per_pass},
  "passes": {passes},
  "host_parallelism": {parallelism},
  "throughput": [
{throughput}
  ],
  "tcp_pipelined": {{"workers": {TCP_WORKERS}, "lines_per_write": {TCP_PASS}, "passes": {tcp_passes}, "requests_per_s": {tcp_rps:.0}, "writes_per_reply": {tcp_wpr:.3}}},
  "speedup_8v1": {speedup:.2},
  "speedup_asserted": {speedup_asserted},
  "latency_ns": {{
{latency}
  }},
  "serve_trace_overhead_pct": {tr_pct:.2},
  "cold_coalesce": {{
    "threads": {cold_threads},
    "computes": {misses},
    "hits": {hits},
    "coalesced": {coalesced},
    "required_shared": {required}
  }}
}}
"#,
        per_pass = request_mix("w").len(),
        tcp_passes = tcp.passes,
        tcp_rps = tcp.requests_per_s,
        tcp_wpr = tcp.writes_per_reply,
        throughput = throughput_json.join(",\n"),
        latency = latency_json.join(",\n"),
        cold_threads = cold.threads,
        misses = cold.misses,
        hits = cold.hits,
        coalesced = cold.coalesced,
        required = cold.threads - 1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");
    print!("{json}");
}

/// The row label of a throughput point's input stream.
fn stream(pipelined: bool) -> &'static str {
    if pipelined {
        "pipelined"
    } else {
        "unpipelined"
    }
}

fn main() {
    // `cargo test --benches` / a name filter runs the smoke pass and leaves
    // the committed numbers alone.
    let mut full_run = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => full_run = false,
            s if s.starts_with('-') => {}
            _ => full_run = false,
        }
    }
    if full_run {
        run(16, 200, 4000, 3, true);
    } else {
        run(4, 2, 20, 1, false);
    }
}
