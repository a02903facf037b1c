//! The wire protocol: line-oriented JSON, one request object in, one reply
//! object out, reply order always matching request order.
//!
//! Requests are JSON objects with an `"op"` discriminant; every other field
//! is op-specific. Replies echo the request's `"id"` (when present) and
//! carry `"ok": true` plus result fields, or `"ok": false` plus `"error"`.
//! Reply contents are **deterministic** — pure functions of the daemon's
//! ingested state and the request — so a scripted session can be diffed
//! against a golden fixture regardless of worker count (no wall-clock
//! durations, no cache-luck flags ever appear in a reply). The exceptions
//! are the two observability ops:
//!
//! - `stats` — engine-global request/error/coalesce totals plus
//!   `cluster_caches`, a per-cluster hit/miss/coalesced breakdown of each
//!   shared-core cache (mapping/comm/sched/price) and of the encoded
//!   `map`/`reorder` reply bodies (`reply_body`). Which request lands a
//!   hit vs. a miss vs. a coalesced share depends on worker interleaving
//!   and cache luck, so the *totals* are stable for a scripted session but
//!   the breakdown is not.
//! - `metrics` — the Prometheus text snapshot of the RED metrics (per-op
//!   and per-cluster counters, queue-wait/service latency histograms);
//!   wall-clock durations by definition.
//!
//! Both are timing-dependent and engine-global (shared across every
//! connection), so neither may ever appear in a golden fixture.
//!
//! The parser is [`tarr_trace::json`] — the workspace's hand-rolled JSON —
//! and this module adds the writer side plus typed field accessors. Most
//! replies are built as a [`Json`] tree and serialized with [`to_string`].
//! The integer arrays of `map` and `reorder` skip the tree: `int_array`
//! writes them straight into text, and `array_reply` splices that text
//! into a reply byte-identical to the tree's serialization.

use tarr_core::{Mapper, PatternKind, Scheme};
use tarr_mapping::OrderFix;
use tarr_trace::json::{write_escaped, write_f64, Json, DIGIT_PAIRS};

/// Serialize a [`Json`] value, fields in insertion order, no whitespace.
pub fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_f64(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_json(out, val);
            }
            out.push('}');
        }
    }
}

/// Serialize to an owned string.
pub fn to_string(v: &Json) -> String {
    let mut s = String::new();
    write_json(&mut s, v);
    s
}

/// `QUADS[n]` spells `n` in four ASCII digits, zero-padded, for n < 10,000.
static QUADS: [[u8; 4]; 10_000] = {
    let mut t = [[0u8; 4]; 10_000];
    let mut n = 0;
    while n < 10_000 {
        let (hi, lo) = (2 * (n / 100), 2 * (n % 100));
        t[n] = [
            DIGIT_PAIRS[hi],
            DIGIT_PAIRS[hi + 1],
            DIGIT_PAIRS[lo],
            DIGIT_PAIRS[lo + 1],
        ];
        n += 1;
    }
    t
};

/// Integers as a JSON array (`[3,0,1]`): no [`Json`] tree, no f64
/// formatting, no per-value string append or UTF-8 check. Each value up to
/// eight digits is spelled from two [`QUADS`] entries as one zero-padded
/// eight-byte word, shifted to drop its leading zeros and stored with one
/// fixed-size write into a byte buffer pre-sized for ten-digit values (plus
/// eight bytes of slack); the text is checked as UTF-8 once, at the end.
pub(crate) fn int_array(values: impl ExactSizeIterator<Item = u32>) -> String {
    // `u32::MAX` has ten digits; each value adds one comma (the last
    // becomes the closing bracket), plus the opening bracket.
    let mut out = vec![0u8; 2 + 11 * values.len() + 8];
    out[0] = b'[';
    let mut pos = 1;
    for v in values {
        let digits = v.checked_ilog10().unwrap_or(0) as usize + 1;
        let eight = |v: u32| {
            let [a, b, c, d] = QUADS[(v / 10_000) as usize];
            let [e, f, g, h] = QUADS[(v % 10_000) as usize];
            u64::from_le_bytes([a, b, c, d, e, f, g, h])
        };
        if digits <= 8 {
            // Little-endian: the shift drops the first `8 - digits` bytes.
            let word = eight(v) >> ((8 - digits) * 8);
            out[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
        } else {
            let head = digits - 8;
            let top = QUADS[(v / 100_000_000) as usize];
            out[pos..pos + head].copy_from_slice(&top[4 - head..]);
            out[pos + head..pos + digits].copy_from_slice(&eight(v % 100_000_000).to_le_bytes());
        }
        out[pos + digits] = b',';
        pos += digits + 1;
    }
    // An empty array closes right after its opening bracket.
    let end = pos.max(2);
    out[end - 1] = b']';
    out.truncate(end);
    String::from_utf8(out).expect("digits, commas and brackets are ASCII")
}

/// An ok reply whose one result field is already-encoded JSON text:
/// byte-identical to [`to_string`] of [`ok_reply`]`(req, op, [(field, v)])`
/// where `body` is `v`'s encoding. One allocation sized for the body, a
/// header of up to [`ARRAY_REPLY_HEAD`] bytes, and the line terminator; a
/// longer `id` regrows it.
pub(crate) fn array_reply(req: &Json, op: &str, field: &str, body: &str) -> String {
    let mut out = String::with_capacity(ARRAY_REPLY_HEAD + body.len() + 2);
    out.push('{');
    if let Some(id) = req.get("id") {
        out.push_str("\"id\":");
        write_json(&mut out, id);
        out.push(',');
    }
    out.push_str("\"ok\":true,\"op\":");
    write_escaped(&mut out, op);
    out.push(',');
    write_escaped(&mut out, field);
    out.push(':');
    out.push_str(body);
    out.push('}');
    out
}

/// Header room [`array_reply`] reserves: `{"ok":true,"op":"reorder","cores":`
/// is 34 bytes, leaving the rest for an `id`.
const ARRAY_REPLY_HEAD: usize = 64;

/// Required string field.
pub fn need_str<'a>(req: &'a Json, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

/// Required unsigned-integer field.
pub fn need_u64(req: &Json, key: &str) -> Result<u64, String> {
    req.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer \"{key}\""))
}

/// Optional unsigned-integer field.
pub fn opt_u64(req: &Json, key: &str) -> Result<Option<u64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer \"{key}\"")),
    }
}

/// Optional float field.
pub fn opt_f64(req: &Json, key: &str) -> Result<Option<f64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-number \"{key}\"")),
    }
}

/// Optional boolean field.
pub fn opt_bool(req: &Json, key: &str) -> Result<Option<bool>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("non-boolean \"{key}\"")),
    }
}

/// Parse a mapper name as the protocol spells them.
pub fn parse_mapper(name: &str) -> Result<Mapper, String> {
    match name {
        "hrstc" => Ok(Mapper::Hrstc),
        "scotch" => Ok(Mapper::ScotchLike),
        "scotch_tuned" => Ok(Mapper::ScotchTuned),
        "greedy" => Ok(Mapper::Greedy),
        "mvapich" => Ok(Mapper::MvapichCyclic),
        other => Err(format!(
            "unknown mapper \"{other}\" (hrstc|scotch|scotch_tuned|greedy|mvapich)"
        )),
    }
}

/// Parse a §V-B order-fix name.
pub fn parse_fix(name: &str) -> Result<OrderFix, String> {
    match name {
        "init_comm" => Ok(OrderFix::InitComm),
        "end_shuffle" => Ok(OrderFix::EndShuffle),
        "in_place" => Ok(OrderFix::InPlace),
        other => Err(format!(
            "unknown fix \"{other}\" (init_comm|end_shuffle|in_place)"
        )),
    }
}

/// Parse a communication-pattern name (the flat patterns the protocol
/// exposes for `map`/`reorder`).
pub fn parse_pattern(name: &str) -> Result<PatternKind, String> {
    match name {
        "rd" => Ok(PatternKind::Rd),
        "ring" => Ok(PatternKind::Ring),
        "bruck" => Ok(PatternKind::Bruck),
        "bcast" => Ok(PatternKind::BinomialBcast),
        "gather" => Ok(PatternKind::BinomialGather),
        other => Err(format!(
            "unknown pattern \"{other}\" (rd|ring|bruck|bcast|gather)"
        )),
    }
}

/// The execution scheme of a `price` request: absent or `"default"` mapper
/// → [`Scheme::Default`]; otherwise the named mapper with the named fix
/// (default `init_comm`).
pub fn parse_scheme(req: &Json) -> Result<Scheme, String> {
    match req.get("mapper").and_then(Json::as_str) {
        None | Some("default") => Ok(Scheme::Default),
        Some(name) => {
            let mapper = parse_mapper(name)?;
            let fix = match req.get("fix").and_then(Json::as_str) {
                None => OrderFix::InitComm,
                Some(f) => parse_fix(f)?,
            };
            Ok(Scheme::Reordered { mapper, fix })
        }
    }
}

/// Build an ok reply: echoed id (when the request carried one), `ok: true`,
/// the op name, then `fields`.
pub fn ok_reply(req: &Json, op: &str, fields: Vec<(String, Json)>) -> Json {
    let mut obj = Vec::with_capacity(fields.len() + 3);
    if let Some(id) = req.get("id") {
        obj.push(("id".to_string(), id.clone()));
    }
    obj.push(("ok".to_string(), Json::Bool(true)));
    obj.push(("op".to_string(), Json::Str(op.to_string())));
    obj.extend(fields);
    Json::Obj(obj)
}

/// Build an error reply: echoed id, `ok: false`, the message.
pub fn err_reply(req: Option<&Json>, msg: &str) -> Json {
    let mut obj = Vec::with_capacity(3);
    if let Some(id) = req.and_then(|r| r.get("id")) {
        obj.push(("id".to_string(), id.clone()));
    }
    obj.push(("ok".to_string(), Json::Bool(false)));
    obj.push(("error".to_string(), Json::Str(msg.to_string())));
    Json::Obj(obj)
}

/// Build an error reply with a machine-readable `code` after the message.
/// Typed errors let scripted clients branch (e.g. `cluster_exists` →
/// retry with `"replace": true`) without string-matching the message.
pub fn err_reply_coded(req: Option<&Json>, code: &str, msg: &str) -> Json {
    let mut obj = Vec::with_capacity(4);
    if let Some(id) = req.and_then(|r| r.get("id")) {
        obj.push(("id".to_string(), id.clone()));
    }
    obj.push(("ok".to_string(), Json::Bool(false)));
    obj.push(("error".to_string(), Json::Str(msg.to_string())));
    obj.push(("code".to_string(), Json::Str(code.to_string())));
    Json::Obj(obj)
}

/// Build a coded error reply that also carries a `retry_after_ms` hint —
/// the admission-control rejections (`overloaded`, `quota_rejected`) tell
/// well-behaved clients when trying again might succeed.
pub fn err_reply_retry(req: Option<&Json>, code: &str, msg: &str, retry_after_ms: u64) -> Json {
    let Json::Obj(mut obj) = err_reply_coded(req, code, msg) else {
        unreachable!("err_reply_coded returns an object");
    };
    obj.push(("retry_after_ms".to_string(), num(retry_after_ms)));
    Json::Obj(obj)
}

/// A `u64` as a JSON number (everything the protocol counts is far below
/// 2^53).
pub fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder `int_array` replaced: one `write_u64` per value.
    fn int_array_reference(values: &[u32]) -> String {
        let mut out = String::from("[");
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            tarr_trace::json::write_u64(&mut out, u64::from(v));
        }
        out.push(']');
        out
    }

    #[test]
    fn int_array_matches_reference_at_digit_boundaries() {
        let edges = [
            0u32,
            9,
            10,
            99,
            100,
            65_535,
            999_999,
            99_999_999,
            100_000_000,
            999_999_999,
            1_000_000_000,
            u32::MAX,
        ];
        assert_eq!(int_array(std::iter::empty()), "[]");
        for &v in &edges {
            assert_eq!(int_array([v].into_iter()), int_array_reference(&[v]));
        }
        assert_eq!(
            int_array(edges.iter().copied()),
            int_array_reference(&edges)
        );
        assert_eq!(int_array([7, 0, 42].into_iter()), "[7,0,42]");
    }

    proptest! {
        #[test]
        fn int_array_matches_reference_on_random_vectors(
            values in proptest::collection::vec(any::<u32>(), 0..200),
            small in proptest::collection::vec(0u32..70_000, 0..200),
        ) {
            prop_assert_eq!(int_array(values.iter().copied()), int_array_reference(&values));
            prop_assert_eq!(int_array(small.iter().copied()), int_array_reference(&small));
        }
    }
}
