//! The `tarr-serve` daemon.
//!
//! ```text
//! tarr-serve [--workers N] [--queue-cap N] [--tcp ADDR] [--trace-out PATH]
//!            [--metrics ADDR] [--slow-ms N] [--state-dir DIR]
//! ```
//!
//! Without `--tcp`, requests are read line-by-line from stdin and replies
//! written to stdout in request order — stdout carries **only** reply JSON,
//! so the stream can be diffed against a fixture; status goes to stderr.
//! With `--tcp ADDR`, the daemon listens on ADDR and serves each
//! connection the same protocol (the process then runs until killed).
//!
//! `--trace-out PATH` enables the tarr-trace recorder and exports the
//! JSONL timeline (request-tagged spans, `serve.*` counters, queue-depth
//! and worker gauges) on exit. `--metrics ADDR` serves the Prometheus
//! text-format RED-metrics snapshot over HTTP on ADDR (always available —
//! no recorder needed). `--slow-ms N` logs any request whose queue-wait +
//! service time reaches N milliseconds to stderr with its request id, op,
//! cluster and per-stage self-times; `--slow-ms 0` logs every request.
//!
//! `--state-dir DIR` turns persistence on: the daemon boots from
//! `DIR/snapshot.tsnap` plus the `DIR/events.twal` write-ahead log
//! (recovering a torn tail left by a crash), then fsyncs every `ingest` /
//! `fault` to the WAL before acknowledging it. The `snapshot` and
//! `compact` ops write warm snapshots; a SIGKILL'd daemon restarted with
//! the same `--state-dir` resumes bit-identically.
//!
//! Overload hardening (see `DESIGN.md` §6e for the full runbook):
//! `--max-line-bytes`, `--max-protocol-errors`, `--idle-timeout-ms` and
//! `--write-timeout-ms` bound what one connection may cost;
//! `--max-conns` caps concurrent TCP connections; `--quota-burst` /
//! `--quota-rps` enable a per-client token-bucket quota. Requests carrying
//! `deadline_ms` are shed with a typed `overloaded` reply when the
//! estimated queue wait already exceeds them. SIGTERM drains gracefully:
//! admission stops, in-flight requests finish and flush in order, the WAL
//! is flushed, `--snapshot-on-drain` writes a final warm snapshot, and the
//! exit is clean with a drain report on stderr.
//!
//! Fault injection: the `TARR_CHAOS` environment variable arms the
//! tarr-chaos failpoints (`site=kind@n`, comma-separated; seeded by
//! `TARR_CHAOS_SEED`) across the WAL, snapshot, and connection IO paths —
//! the chaos CI job drives crash/IO-error matrices through the real
//! binary with it.

use std::io;
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use tarr_serve::{serve_lines, serve_metrics, serve_tcp, Engine, QuotaCfg, ServeOpts};

struct Args {
    opts: ServeOpts,
    tcp: Option<String>,
    trace_out: Option<String>,
    metrics: Option<String>,
    slow_ms: Option<u64>,
    state_dir: Option<String>,
    snapshot_on_drain: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: ServeOpts::default(),
        tcp: None,
        trace_out: None,
        metrics: None,
        slow_ms: None,
        state_dir: None,
        snapshot_on_drain: false,
    };
    let mut quota_burst: Option<u64> = None;
    let mut quota_rps: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workers" => {
                args.opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                args.opts.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--max-line-bytes" => {
                args.opts.max_line_bytes = value("--max-line-bytes")?
                    .parse()
                    .map_err(|e| format!("--max-line-bytes: {e}"))?;
            }
            "--max-protocol-errors" => {
                args.opts.max_protocol_errors = value("--max-protocol-errors")?
                    .parse()
                    .map_err(|e| format!("--max-protocol-errors: {e}"))?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
                args.opts.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--write-timeout-ms" => {
                let ms: u64 = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
                args.opts.write_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-conns" => {
                args.opts.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--quota-burst" => {
                quota_burst = Some(
                    value("--quota-burst")?
                        .parse()
                        .map_err(|e| format!("--quota-burst: {e}"))?,
                );
            }
            "--quota-rps" => {
                quota_rps = Some(
                    value("--quota-rps")?
                        .parse()
                        .map_err(|e| format!("--quota-rps: {e}"))?,
                );
            }
            "--snapshot-on-drain" => args.snapshot_on_drain = true,
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--slow-ms" => {
                args.slow_ms = Some(
                    value("--slow-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-ms: {e}"))?,
                );
            }
            "--state-dir" => args.state_dir = Some(value("--state-dir")?),
            "--help" | "-h" => {
                println!(
                    "tarr-serve [--workers N] [--queue-cap N] [--tcp ADDR] [--trace-out PATH] \
                     [--metrics ADDR] [--slow-ms N] [--state-dir DIR] [--max-line-bytes N] \
                     [--max-protocol-errors N] [--idle-timeout-ms N] [--write-timeout-ms N] \
                     [--max-conns N] [--quota-burst N] [--quota-rps F] [--snapshot-on-drain]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if quota_burst.is_some() || quota_rps.is_some() {
        args.opts.quota = Some(QuotaCfg {
            burst: quota_burst.unwrap_or(16),
            per_sec: quota_rps.unwrap_or(0.0),
        });
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tarr-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match tarr_chaos::arm_from_env() {
        Ok(false) => {}
        Ok(true) => eprintln!(
            "tarr-serve: chaos armed: {}",
            std::env::var("TARR_CHAOS").unwrap_or_default()
        ),
        Err(e) => {
            eprintln!("tarr-serve: bad TARR_CHAOS spec: {e}");
            return ExitCode::FAILURE;
        }
    }
    // SIGTERM → graceful drain: stop admitting, finish in-flight work,
    // flush, snapshot (when asked), report, exit 0.
    let term = tarr_serve::install_sigterm();
    args.opts.shutdown = Some(term);
    if args.trace_out.is_some() {
        tarr_trace::set_enabled(true);
    }
    // Leaked so the metrics listener thread (which outlives the serve loop
    // scope) can borrow it for the process lifetime.
    let engine: &'static Engine =
        match &args.state_dir {
            None => Box::leak(Box::new(Engine::new())),
            Some(dir) => {
                match Engine::with_state_dir(std::path::Path::new(dir)) {
                    Ok((engine, boot)) => {
                        eprintln!(
                    "tarr-serve: state dir {dir}: snapshot {}({} bytes), {} events replayed, \
                     {} skipped, {} torn bytes recovered, {} clusters warm, next event {}",
                    if boot.snapshot_loaded { "loaded " } else { "absent " },
                    boot.snapshot_bytes,
                    boot.events_replayed,
                    boot.events_skipped,
                    boot.recovered_bytes,
                    boot.clusters,
                    boot.next_event_id
                );
                        Box::leak(Box::new(engine))
                    }
                    Err(e) => {
                        eprintln!("tarr-serve: cannot boot from state dir {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
    if let Some(ms) = args.slow_ms {
        engine.set_slow_threshold(Some(Duration::from_millis(ms)));
    }
    if let Some(addr) = &args.metrics {
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("tarr-serve: cannot bind metrics listener {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("tarr-serve: metrics on http://{addr}/metrics");
        std::thread::spawn(move || {
            if let Err(e) = serve_metrics(engine, listener) {
                eprintln!("tarr-serve: metrics listener: {e}");
            }
        });
    }
    let result = match &args.tcp {
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("tarr-serve: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "tarr-serve: listening on {addr} ({} workers per connection)",
                args.opts.workers.max(1)
            );
            serve_tcp(engine, listener, &args.opts).map(|()| 0)
        }
        None => {
            let stdin = io::stdin();
            serve_lines(engine, stdin.lock(), io::stdout(), &args.opts)
        }
    };
    // Teardown order (shutdown op, EOF, and SIGTERM drain alike): flush
    // the WAL first so every acknowledged mutation is durable, then the
    // optional final snapshot, then export the complete trace, then
    // report. Replies were already flushed in sequence by the serve loop
    // before it returned.
    if let Err(e) = engine.flush() {
        eprintln!("tarr-serve: wal flush failed: {e}");
    }
    let drained = term.load(std::sync::atomic::Ordering::Relaxed);
    if drained && args.snapshot_on_drain && args.state_dir.is_some() {
        // Same code path as the `snapshot` op, driven as a synthetic
        // request so the reply shape (and its error taxonomy) match.
        let reply = engine.handle_line(r#"{"op":"snapshot"}"#);
        if reply.contains(r#""ok":true"#) {
            eprintln!("tarr-serve: drain snapshot written");
        } else {
            eprintln!("tarr-serve: drain snapshot failed: {reply}");
        }
    }
    if let Some(path) = &args.trace_out {
        tarr_trace::sample_metrics();
        match tarr_trace::export_jsonl(path) {
            Ok(()) => eprintln!("tarr-serve: trace written to {path}"),
            Err(e) => eprintln!("tarr-serve: trace export failed: {e}"),
        }
        tarr_trace::set_enabled(false);
    }
    match result {
        Ok(served) => {
            let s = engine.stats();
            if drained {
                eprintln!(
                    "tarr-serve: drained in {:.3}s (shed {}, quota_rejected {}, conn_rejected {})",
                    engine.metrics().drain_seconds(),
                    engine.metrics().shed_total(),
                    engine.metrics().quota_rejected_total(),
                    engine.metrics().conn_rejected_total(),
                );
            }
            eprintln!(
                "tarr-serve: served {served} requests ({} errors, {} coalesced)",
                s.errors(),
                s.coalesce()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tarr-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
