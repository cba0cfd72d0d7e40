//! The JSON reader fails closed on damaged input.
//!
//! The validators parse files from outside the program, so a truncated
//! or byte-flipped artifact, and nesting of any depth, must give an
//! `Err` (or, for a flip that keeps the text valid JSON, a value) —
//! never a panic or a stack overflow.

use proptest::prelude::*;
use socialrec_obs::json::{parse, MAX_DEPTH};
use socialrec_obs::{chrome_trace_json, EventKind, Journal, SpanEvent};

/// Real artifacts: two checked-in bench reports, a Chrome trace and a
/// one-event journal tail (so one JSON document).
fn artifacts() -> [String; 4] {
    let span = SpanEvent {
        name: "a\u{1}\"b",
        arg: Some(("k", 9)),
        tid: 3,
        start_ns: 5,
        dur_ns: 2,
        depth: 1,
    };
    let journal = Journal::new();
    journal.record(EventKind::HotSwapCompleted, 2, 15243249774799408224);
    [
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json")).to_string(),
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_update.json")).to_string(),
        chrome_trace_json(&[span]),
        journal.snapshot(8).to_jsonl(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_artifacts_give_err_never_a_panic(
        which in 0usize..4,
        flips in proptest::collection::vec((0usize..1 << 16, 1u8..=255), 0..4),
        cut in 0usize..1 << 16,
        truncate in 0u8..2,
    ) {
        let mut bytes = std::mem::take(&mut artifacts()[which]).into_bytes();
        let intact = flips.is_empty() && truncate == 0;
        for (at, xor) in flips {
            let at = at % bytes.len();
            bytes[at] ^= xor;
        }
        if truncate == 1 {
            bytes.truncate(cut % bytes.len());
        }
        // A flip can leave invalid UTF-8, which no `&str` holds; the
        // validators read with `read_to_string`, which refuses it first.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let parsed = parse(text);
            prop_assert!(parsed.is_ok() || !intact, "{parsed:?}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_err(
        opens in proptest::collection::vec(0u8..2, 1..4 * MAX_DEPTH),
        close in 0u8..2,
    ) {
        let mut text = String::new();
        for &o in &opens {
            text.push_str(if o == 0 { "[" } else { "{\"k\":" });
        }
        text.push('0');
        if close == 1 {
            for &o in opens.iter().rev() {
                text.push(if o == 0 { ']' } else { '}' });
            }
        }
        let parsed = parse(&text);
        if opens.len() > MAX_DEPTH {
            prop_assert!(parsed.unwrap_err().starts_with("nesting too deep"));
        } else {
            prop_assert_eq!(parsed.is_ok(), close == 1);
        }
    }
}
