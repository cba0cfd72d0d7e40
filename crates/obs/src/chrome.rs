//! Chrome trace-event-format export and a structural self-check.
//!
//! The exporter emits the JSON object format —
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}` — with every span
//! as a *complete* (`"ph": "X"`) event, one event per line. The file
//! loads directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! [`validate_chrome_trace`] parses the file with [`crate::json`], so it
//! accepts any layout, and checks the envelope, the fields every event
//! needs, and that timestamps are monotonically non-decreasing per
//! thread lane — the properties a trace viewer actually relies on.

use crate::json::{self, write_str, Value};
use crate::span::SpanEvent;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// Render events as Chrome trace-event JSON (one event per line).
///
/// Timestamps and durations are microseconds with nanosecond precision
/// (three decimals), as the trace viewers expect. Callers should pass
/// the output of [`drain_events`](crate::drain_events), which is sorted
/// `(tid, start, depth)` — the per-lane monotonicity the validator
/// checks falls out of that order.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push('{');
        out.push_str("\"name\":");
        write_str(&mut out, e.name);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            e.tid,
            micros(e.start_ns),
            micros(e.dur_ns)
        );
        if let Some((k, v)) = e.arg {
            out.push_str(",\"args\":{");
            write_str(&mut out, k);
            let _ = write!(out, ":{v}}}");
        }
        out.push('}');
        if i + 1 != events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Nanoseconds rendered as decimal microseconds ("12.345").
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// What [`validate_chrome_trace`] learned about a well-formed trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCheck {
    /// Number of `"ph": "X"` events in the file.
    pub events: usize,
    /// Distinct span names, sorted.
    pub names: Vec<String>,
    /// Distinct thread lanes, sorted.
    pub tids: Vec<u64>,
}

impl TraceCheck {
    /// Whether the trace contains at least one span with this name.
    pub fn has_span(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Structurally validate a trace produced by [`chrome_trace_json`].
///
/// Checks: the document parses as JSON; it is an object whose
/// `traceEvents` is an array and whose `displayTimeUnit` is `"ms"`;
/// every event is an object carrying `ph == "X"`, a string `name`,
/// integer `pid` and `tid`, and non-negative numbers `ts` and `dur`; and
/// per-`tid` timestamps never go backwards. Returns a [`TraceCheck`] so
/// callers can assert specific spans exist.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    if doc.get("displayTimeUnit").and_then(Value::as_str) != Some("ms") {
        return Err("envelope lacks \"displayTimeUnit\": \"ms\"".to_string());
    }
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("envelope lacks a \"traceEvents\" array")?;
    let mut names = BTreeSet::new();
    let mut tids = BTreeSet::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();

    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| event.get(key).ok_or_else(|| format!("event {i}: missing {key:?}"));
        let number = |key: &str| {
            field(key)?.as_f64().ok_or_else(|| format!("event {i}: {key:?} is not a number"))
        };
        if field("ph")?.as_str() != Some("X") {
            return Err(format!("event {i}: not a complete (ph=X) event"));
        }
        let name =
            field("name")?.as_str().ok_or_else(|| format!("event {i}: name is not a string"))?;
        field("pid")?.as_u64().ok_or_else(|| format!("event {i}: pid is not an integer"))?;
        let lane =
            field("tid")?.as_u64().ok_or_else(|| format!("event {i}: tid is not an integer"))?;
        let (ts, dur) = (number("ts")?, number("dur")?);
        if !(ts >= 0.0 && dur >= 0.0) {
            return Err(format!("event {i}: negative ts/dur"));
        }
        if let Some(&prev) = last_ts.get(&lane) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on tid {lane} (prev {prev})"
                ));
            }
        }
        last_ts.insert(lane, ts);
        names.insert(name.to_string());
        tids.insert(lane);
    }

    Ok(TraceCheck {
        events: events.len(),
        names: names.into_iter().collect(),
        tids: tids.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64, depth: u16) -> SpanEvent {
        SpanEvent { name, arg: None, tid, start_ns, dur_ns, depth }
    }

    /// Round-trip a synthetic span tree and check the exported trace
    /// is structurally sound.
    #[test]
    fn round_trips_a_synthetic_span_tree() {
        let events = vec![
            ev("pipeline", 0, 0, 10_000_000, 0),
            SpanEvent {
                name: "sim.build",
                arg: Some(("users", 100)),
                tid: 0,
                start_ns: 1_000,
                dur_ns: 4_000_000,
                depth: 1,
            },
            ev("sim.stream_chunk", 1, 2_000, 1_500_000, 0),
            ev("sim.stream_chunk", 2, 2_500, 1_400_000, 0),
            ev("louvain.level", 0, 5_000_000, 3_000_000, 1),
        ];
        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("exporter output must self-validate");
        assert_eq!(check.events, 5);
        assert!(check.has_span("pipeline"));
        assert!(check.has_span("sim.build"));
        assert!(check.has_span("louvain.level"));
        assert_eq!(check.tids, vec![0, 1, 2], "worker lanes keep stable thread ids");
        // The arg rode along.
        assert!(json.contains("\"args\":{\"users\":100}"));
        // µs conversion: 1_000ns start -> ts 1.000.
        assert!(json.contains("\"ts\":1.000"));
        // The check reads JSON, not lines: the same trace on one line
        // passes too.
        assert_eq!(validate_chrome_trace(&json.replace('\n', "")).unwrap(), check);
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.events, 0);
        assert!(check.names.is_empty());
    }

    #[test]
    fn escapes_hostile_names() {
        let events = vec![ev("we\"ird\\name", 0, 0, 10, 0)];
        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.names, vec!["we\"ird\\name".to_string()]);
    }

    #[test]
    fn control_characters_in_names_round_trip() {
        // The exporter writes U+0001 as `\u0001`; the check must read it
        // back as that character, not as the text `u0001`.
        let json = chrome_trace_json(&[ev("a\u{1}b\u{1f}c", 0, 0, 10, 0)]);
        assert!(json.contains("a\\u0001b\\u001fc"), "{json}");
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.names, vec!["a\u{1}b\u{1f}c".to_string()]);
    }

    #[test]
    fn rejects_backwards_timestamps() {
        let events = vec![ev("a", 0, 5_000, 10, 0), ev("b", 0, 1_000, 10, 0)];
        // Hand the exporter deliberately unsorted events: same tid, time
        // going backwards — the validator must notice.
        let json = chrome_trace_json(&events);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("backwards"), "got: {err}");
    }

    #[test]
    fn rejects_tampered_traces() {
        let good = chrome_trace_json(&[ev("a", 0, 0, 10, 0), ev("b", 0, 20, 10, 0)]);
        // Truncated file.
        assert!(validate_chrome_trace(&good[..good.len() / 2]).is_err());
        // Missing required key.
        let no_dur = good.replace("\"dur\":", "\"xur\":");
        assert!(validate_chrome_trace(&no_dur).is_err());
        // Unbalanced braces inside an event line.
        let unbalanced = good.replacen("},", "},,", 1);
        assert!(validate_chrome_trace(&unbalanced).is_err());
        // Wrong phase.
        let bad_ph = good.replace("\"ph\":\"X\"", "\"ph\":\"B\"");
        assert!(validate_chrome_trace(&bad_ph).is_err());
        // Wrong types and a thinned envelope.
        let str_tid = good.replacen("\"tid\":0", "\"tid\":\"0\"", 1);
        assert!(validate_chrome_trace(&str_tid).unwrap_err().contains("tid"));
        let no_unit = good.replace("\"displayTimeUnit\"", "\"unit\"");
        assert!(validate_chrome_trace(&no_unit).unwrap_err().contains("displayTimeUnit"));
    }

    #[test]
    fn comma_placement_is_checked() {
        let good = chrome_trace_json(&[ev("a", 0, 0, 10, 0), ev("b", 0, 20, 10, 0)]);
        let lines: Vec<&str> = good.lines().collect();
        // Drop the comma between the two events.
        let missing = format!(
            "{}\n{}\n{}\n{}\n",
            lines[0],
            lines[1].trim_end_matches(','),
            lines[2],
            lines[3]
        );
        assert!(validate_chrome_trace(&missing).is_err());
    }
}
