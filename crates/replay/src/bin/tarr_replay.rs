//! `tarr-replay` — inspect, verify, and differentially replay a
//! `tarr-serve` state directory.
//!
//! ```text
//! tarr-replay --state-dir DIR             # tolerant summary (default)
//! tarr-replay --state-dir DIR --verify    # strict: torn tail or corruption → exit 1
//! tarr-replay --state-dir DIR --diff      # snapshot-boot vs from-genesis replay
//! tarr-replay --state-dir DIR --dump      # print every log record
//! tarr-replay --check-snapshot FILE       # decode + restore a snapshot of any version
//! ```
//!
//! `--diff` is the determinism proof: it reconstructs engine state twice —
//! once the way a restarted daemon would (snapshot + log tail) and once
//! from the log alone, from genesis — and requires every cluster's
//! cache-transparent probe suite to match bit-for-bit. Exit status is the
//! contract: 0 = pass, 1 = mismatch/damage, 2 = usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tarr_replay::{
    probe_suite, read_wal, restore_dir, EngineSnapshot, ReplayState, WalTail, SNAP_FILE, WAL_FILE,
};

struct Opts {
    state_dir: Option<PathBuf>,
    verify: bool,
    diff: bool,
    dump: bool,
    check_snapshot: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tarr-replay --state-dir DIR [--verify|--diff|--dump]\n       tarr-replay --check-snapshot FILE"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        state_dir: None,
        verify: false,
        diff: false,
        dump: false,
        check_snapshot: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--state-dir" => {
                opts.state_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--check-snapshot" => {
                opts.check_snapshot = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--verify" => opts.verify = true,
            "--diff" => opts.diff = true,
            "--dump" => opts.dump = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if opts.state_dir.is_none() && opts.check_snapshot.is_none() {
        usage();
    }
    opts
}

fn describe_tail(tail: WalTail) -> String {
    match tail {
        WalTail::Clean => "clean".to_string(),
        WalTail::Torn { valid_len, dropped } => {
            format!("torn ({dropped} trailing bytes after offset {valid_len})")
        }
    }
}

fn check_snapshot(path: &Path) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("tarr-replay: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let version = if bytes.len() >= 12 {
        u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"))
    } else {
        0
    };
    let snap = match EngineSnapshot::decode(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tarr-replay: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "snapshot {}: v{version}, last_event_id {}, {} cluster(s), {} meta key(s)",
        path.display(),
        snap.last_event_id,
        snap.clusters.len(),
        snap.meta.len()
    );
    for (name, cs) in &snap.clusters {
        match cs.restore() {
            Ok(core) => println!(
                "  {name}: {} ranks, {} cached mapping(s), {} price(s) — restores OK",
                core.size(),
                cs.state.mappings.len(),
                cs.state.prices.len()
            ),
            Err(e) => {
                eprintln!("  {name}: restore FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run(opts: &Opts) -> Result<ExitCode, tarr_replay::ReplayError> {
    if let Some(path) = &opts.check_snapshot {
        return Ok(check_snapshot(path));
    }
    let dir = opts.state_dir.as_deref().expect("checked in parse_args");

    if opts.dump {
        let (records, tail) = read_wal(&dir.join(WAL_FILE))?;
        for r in &records {
            println!(
                "event {:>6}  req {:>6}  {:6}  {}",
                r.event_id,
                r.req_id,
                r.event.op(),
                r.event.cluster()
            );
        }
        println!("{} record(s), tail {}", records.len(), describe_tail(tail));
        return Ok(ExitCode::SUCCESS);
    }

    // Strict mode refuses to *recover*: the point of --verify is to fail
    // loudly on any damage, not to repair it.
    let restored = restore_dir(dir, false)?;
    println!(
        "state dir {}: snapshot {}, wal {} ({} replayed, {} skipped, tail {})",
        dir.display(),
        if restored.snapshot_loaded {
            format!("{} ({} bytes)", SNAP_FILE, restored.snapshot_bytes)
        } else {
            "absent".to_string()
        },
        WAL_FILE,
        restored.events_replayed,
        restored.events_skipped,
        describe_tail(restored.tail),
    );
    for (name, core) in &restored.state.clusters {
        println!(
            "  {name}: {} ranks on {} nodes",
            core.size(),
            core.cluster().num_nodes()
        );
    }

    if opts.verify {
        if let WalTail::Torn { .. } = restored.tail {
            eprintln!("tarr-replay: --verify: WAL tail is torn");
            return Ok(ExitCode::FAILURE);
        }
    }

    if opts.diff {
        if !restored.snapshot_loaded {
            println!("--diff: no snapshot present; snapshot-boot and genesis replay are trivially identical");
            return Ok(ExitCode::SUCCESS);
        }
        let (records, _) = read_wal(&dir.join(WAL_FILE))?;
        let mut genesis = ReplayState::default();
        let mut replayable = true;
        for r in &records {
            // A compacted log no longer reaches back to genesis: its
            // earliest record may fault a cluster only the snapshot knows.
            if let Err(e) = genesis.apply(r.event_id, &r.event) {
                println!("--diff: log alone cannot rebuild state ({e}); compacted log — skipping");
                replayable = false;
                break;
            }
        }
        if replayable {
            if genesis.clusters.len() != restored.state.clusters.len()
                || !genesis.clusters.keys().eq(restored.state.clusters.keys())
            {
                eprintln!("tarr-replay: --diff: cluster sets differ");
                return Ok(ExitCode::FAILURE);
            }
            for (name, core) in &genesis.clusters {
                let a = probe_suite(core);
                let b = probe_suite(restored.state.clusters.get(name).expect("same keys"));
                if a != b {
                    eprintln!("tarr-replay: --diff: probe divergence on cluster {name}");
                    for (x, y) in a.iter().zip(&b) {
                        if x != y {
                            eprintln!("  genesis : {x}");
                            eprintln!("  restored: {y}");
                        }
                    }
                    return Ok(ExitCode::FAILURE);
                }
                println!("  {name}: {} probes bit-identical", a.len());
            }
        }
    }

    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let opts = parse_args();
    match run(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tarr-replay: {e}");
            ExitCode::FAILURE
        }
    }
}
