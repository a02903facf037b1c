//! Write-behind never strands or splits a reply: random scripts mixing
//! read-only and mutating ops, cut into random read chunks, served at 1,
//! 2, 4 and 8 workers, must write exactly the byte stream of the serial,
//! one-line-per-read run, in writes of whole lines.
//!
//! A stranded reply (one left in the reorder buffer with no later
//! delivery to write it) shows up as a short stream; a split one as a
//! write that does not end in a newline.

use proptest::prelude::*;
use std::io::{Read, Write};
use tarr_serve::{serve_lines, Engine, ServeOpts};

/// One generated request body (no id), drawn from `pick`. Read-only ops
/// dominate; `fault` and `ingest` are barriers; a malformed line and an
/// unknown cluster exercise the error replies.
fn request(pick: u32, nodes: usize) -> String {
    let mapper = ["hrstc", "greedy", "scotch"][(pick / 16 % 3) as usize];
    let pattern = ["ring", "rd"][(pick / 64 % 2) as usize];
    let collective = ["allgather", "gather", "bcast"][(pick / 128 % 3) as usize];
    let msg = 1u64 << (pick / 512 % 20);
    match pick % 16 {
        0..=3 => format!(r#""op":"map","cluster":"c","mapper":"{mapper}","pattern":"{pattern}""#),
        4 | 5 => {
            format!(r#""op":"reorder","cluster":"c","mapper":"{mapper}","pattern":"{pattern}""#)
        }
        6..=10 => format!(
            r#""op":"price","cluster":"c","collective":"{collective}","msg_bytes":{msg},"mapper":"{mapper}""#
        ),
        11 => {
            format!(r#""op":"price","cluster":"c","collective":"{collective}","msg_bytes":{msg}"#)
        }
        12 => format!(
            r#""op":"fault","cluster":"c","seed":{},"link_fail":0.05"#,
            pick / 16
        ),
        13 => format!(r#""op":"ingest","cluster":"c","gpc_nodes":{nodes}"#),
        14 => r#""op":"map","cluster":"nowhere","mapper":"hrstc","pattern":"ring""#.to_string(),
        _ => r#""op":"price","cluster":"#.to_string(),
    }
}

/// The script: an ingest, then one request per pick, ids `1..`.
fn script(picks: &[u32], nodes: usize) -> String {
    let ingest = format!(r#""op":"ingest","cluster":"c","gpc_nodes":{nodes}"#);
    std::iter::once(ingest)
        .chain(picks.iter().map(|&p| request(p, nodes)))
        .enumerate()
        .map(|(i, body)| format!("{{\"id\":{},{body}}}\n", i + 1))
        .collect()
}

/// A stream cut into reads of the given sizes (cycled; each at least one
/// byte, at most what is left).
struct Chunked<'a> {
    rest: &'a [u8],
    sizes: Vec<usize>,
    next: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = want.min(buf.len()).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// A sink keeping every `write` call's bytes separately. Each write takes
/// a while, as on a slow socket: workers then contend for the output lock
/// while requests are popped and served, which is when a reply could be
/// stranded.
#[derive(Default)]
struct WriteLog(Vec<Vec<u8>>);

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        std::thread::sleep(std::time::Duration::from_micros(50));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serve `input` on a fresh engine; returns (served, writes).
fn serve(input: impl Read, workers: usize) -> (u64, Vec<Vec<u8>>) {
    let engine = Engine::new();
    let mut log = WriteLog::default();
    let opts = ServeOpts {
        workers,
        queue_cap: 8,
        ..Default::default()
    };
    let served = serve_lines(&engine, input, &mut log, &opts).expect("in-memory streams");
    (served, log.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_streams_match_the_serial_stream_at_any_worker_count(
        nodes in 2usize..9,
        picks in prop::collection::vec(any::<u32>(), 1..48),
        cuts in prop::collection::vec(any::<u32>(), 1..32),
        span in prop::sample::select(vec![1usize, 7, 64, 512, usize::MAX]),
    ) {
        let script = script(&picks, nodes);
        let bytes = script.as_bytes();
        let lines = script.lines().count() as u64;
        // The reference: one worker, one line per read — every request
        // finds an idle pool and is served inline, one write per reply.
        let line_sizes = script.lines().map(|l| l.len() + 1).collect();
        let (served, reference) = serve(
            Chunked { rest: bytes, sizes: line_sizes, next: 0 },
            1,
        );
        prop_assert_eq!(served, lines);
        prop_assert_eq!(reference.len() as u64, lines);
        let reference = reference.concat();
        let sizes: Vec<usize> = cuts
            .iter()
            .map(|&c| 1 + c as usize % span.min(bytes.len()))
            .collect();
        for workers in [1, 2, 4, 8] {
            let (served, writes) = serve(
                Chunked { rest: bytes, sizes: sizes.clone(), next: 0 },
                workers,
            );
            prop_assert_eq!(served, lines, "{} worker(s)", workers);
            for (i, w) in writes.iter().enumerate() {
                prop_assert!(
                    w.ends_with(b"\n"),
                    "write {} splits a line at {} worker(s): {}",
                    i,
                    workers,
                    String::from_utf8_lossy(w)
                );
            }
            prop_assert!(
                writes.concat() == reference,
                "reply stream differs at {} worker(s) (chunks up to {})",
                workers,
                span
            );
        }
    }
}
