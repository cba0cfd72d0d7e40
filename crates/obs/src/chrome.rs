//! Chrome trace-event-format export and a structural self-check.
//!
//! The exporter emits the JSON object format —
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}` — with every span
//! as a *complete* (`"ph": "X"`) event, one event per line. The file
//! loads directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The workspace has no JSON parser (no external dependencies), so
//! [`validate_chrome_trace`] exploits the one-event-per-line layout:
//! it checks the envelope, per-line brace balance (string-aware),
//! required keys on every event, and that timestamps are monotonically
//! non-decreasing per thread lane — the properties a trace viewer
//! actually relies on.

use crate::span::SpanEvent;
use std::collections::HashMap;
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
        write_escaped(&mut out, e.name);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            e.tid,
            micros(e.start_ns),
            micros(e.dur_ns)
        );
        if let Some((k, v)) = e.arg {
            out.push_str(",\"args\":{");
            write_escaped(&mut out, k);
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

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
/// Checks: the `{"traceEvents": [...]}` envelope; every event line is a
/// single brace-balanced object (string-aware scan) carrying
/// `ph == "X"`, `name`, `pid`, `tid`, `ts`, and `dur`; comma placement
/// between events; and per-`tid` timestamps that never go backwards.
/// Returns a [`TraceCheck`] so callers can assert specific spans exist.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let lines: Vec<&str> = json.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() < 2 {
        return Err("trace too short: missing envelope".to_string());
    }
    if lines[0].trim() != "{\"traceEvents\":[" {
        return Err(format!("bad header line: {:?}", lines[0]));
    }
    let footer = lines[lines.len() - 1].trim();
    if footer != "],\"displayTimeUnit\":\"ms\"}" {
        return Err(format!("bad footer line: {footer:?}"));
    }

    let event_lines = &lines[1..lines.len() - 1];
    let mut names = Vec::new();
    let mut tids = Vec::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();

    for (i, raw) in event_lines.iter().enumerate() {
        let line = raw.trim();
        let last = i + 1 == event_lines.len();
        let body = match (line.strip_suffix(','), last) {
            (Some(b), false) => b,
            (None, true) => line,
            (Some(_), true) => return Err("trailing comma on final event".to_string()),
            (None, false) => return Err(format!("event {i}: missing separating comma")),
        };
        if !balanced_object(body) {
            return Err(format!("event {i}: not a balanced JSON object: {body:?}"));
        }
        if !body.contains("\"ph\":\"X\"") {
            return Err(format!("event {i}: not a complete (ph=X) event"));
        }
        for key in ["\"name\":", "\"pid\":", "\"tid\":", "\"ts\":", "\"dur\":"] {
            if !body.contains(key) {
                return Err(format!("event {i}: missing {key}"));
            }
        }
        let name =
            field_str(body, "\"name\":").ok_or_else(|| format!("event {i}: unreadable name"))?;
        let tid =
            field_f64(body, "\"tid\":").ok_or_else(|| format!("event {i}: unreadable tid"))?;
        let ts = field_f64(body, "\"ts\":").ok_or_else(|| format!("event {i}: unreadable ts"))?;
        let dur =
            field_f64(body, "\"dur\":").ok_or_else(|| format!("event {i}: unreadable dur"))?;
        if !(ts >= 0.0 && dur >= 0.0) {
            return Err(format!("event {i}: negative ts/dur"));
        }
        let lane = tid as u64;
        if let Some(&prev) = last_ts.get(&lane) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on tid {lane} (prev {prev})"
                ));
            }
        }
        last_ts.insert(lane, ts);
        if !names.contains(&name) {
            names.push(name);
        }
        if !tids.contains(&lane) {
            tids.push(lane);
        }
    }

    names.sort();
    tids.sort_unstable();
    Ok(TraceCheck { events: event_lines.len(), names, tids })
}

/// Is `s` exactly one `{...}` object with balanced braces, ignoring
/// braces inside string literals?
fn balanced_object(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut seen_any = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                depth += 1;
                seen_any = true;
            }
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
                // Nothing may follow the closing brace of the object.
                if depth == 0 && seen_any {
                    // handled by caller via suffix stripping; any junk
                    // after would re-enter the loop and fail below.
                }
            }
            _ => {
                if depth == 0 {
                    return false; // content outside the object
                }
            }
        }
    }
    !in_str && depth == 0 && seen_any
}

/// Extract the string value following `key` (handles `\"` escapes).
fn field_str(body: &str, key: &str) -> Option<String> {
    let start = body.find(key)? + key.len();
    let rest = body.get(start..)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut escaped = false;
    for c in rest.chars() {
        if escaped {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            });
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(out);
        } else {
            out.push(c);
        }
    }
    None
}

/// Extract the numeric value following `key`.
fn field_f64(body: &str, key: &str) -> Option<f64> {
    let start = body.find(key)? + key.len();
    let rest = body.get(start..)?;
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64, depth: u16) -> SpanEvent {
        SpanEvent { name, arg: None, tid, start_ns, dur_ns, depth }
    }

    /// Satellite 4: round-trip a synthetic span tree and check the
    /// exported trace is structurally sound.
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
