//! `socialrec validate-metrics` — structural validation of the
//! introspection endpoint's scrape dumps.
//!
//! `serve-bench --introspect PORT --introspect-out PREFIX` writes the
//! mid-run and end-of-run `/metrics` bodies plus the `/events` journal
//! tail; CI feeds them here. The checks mirror what a real Prometheus
//! scraper would reject: exposition lines must be `# HELP` / `# TYPE`
//! comments or `name[{labels}] value` samples, names must stay in the
//! `socialrec_`-prefixed `[a-zA-Z0-9_:]` charset, every sample needs a
//! preceding `# TYPE` — its own or, for a `_bucket`, `_sum` or `_count`
//! series, its histogram family's — and every value must parse as a
//! finite number (counters additionally non-negative). In each histogram
//! family the cumulative buckets must not decrease as `le` grows and the
//! `+Inf` bucket must equal `_count`; every dump must carry at least one
//! `socialrec_serve_shard<i>_query_ns` histogram. With `--previous` (an
//! earlier scrape of the same process), counter and histogram series
//! must be monotone non-decreasing — the invariant that distinguishes
//! them from a gauge on the wire. With `--events`, the journal tail must
//! be one JSON object per line (parsed with `socialrec_obs::json`)
//! carrying unsigned-integer `seq` and `t_ns` and a known `event` name.

use socialrec_experiments::Args;
use socialrec_obs::json::{self, Value};
use socialrec_obs::EventKind;
use std::collections::HashMap;

/// One parsed exposition: `name -> declared type`,
/// `series key (name + label set) -> value`, and each histogram
/// family's `(le, cumulative count)` buckets.
#[derive(Debug)]
struct Exposition {
    types: HashMap<String, String>,
    samples: HashMap<String, f64>,
    buckets: HashMap<String, Vec<(f64, f64)>>,
}

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let metrics_path =
        args.get_str("metrics").ok_or("validate-metrics requires --metrics FILE")?.to_string();
    let current = read_scrape(&metrics_path)?;

    if let Some(prev_path) = args.get_str("previous") {
        let previous = read_scrape(prev_path)?;
        check_monotone(&current, &previous)
            .map_err(|e| format!("{metrics_path} vs {prev_path}: {e}"))?;
    }

    if let Some(events_path) = args.get_str("events") {
        let events_body = std::fs::read_to_string(events_path)
            .map_err(|e| format!("reading {events_path}: {e}"))?;
        validate_events(&events_body).map_err(|e| format!("{events_path}: {e}"))?;
    }

    println!(
        "validate-metrics: {metrics_path} ok ({} series, {} declared types)",
        current.samples.len(),
        current.types.len()
    );
    Ok(())
}

/// Read and parse one `/metrics` dump, which must carry at least one
/// shard latency histogram.
fn read_scrape(path: &str) -> Result<Exposition, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let exp = parse_exposition(&body).map_err(|e| format!("{path}: {e}"))?;
    let shard_latency = |(name, kind): (&String, &String)| {
        kind == "histogram"
            && name.starts_with("socialrec_serve_shard")
            && name.ends_with("_query_ns")
    };
    if !exp.types.iter().any(shard_latency) {
        return Err(format!("{path}: no socialrec_serve_shard<i>_query_ns histogram"));
    }
    Ok(exp)
}

/// The histogram family a `_bucket`, `_sum` or `_count` series name
/// belongs to.
fn histogram_family(name: &str) -> Option<&str> {
    ["_bucket", "_sum", "_count"].iter().find_map(|suffix| name.strip_suffix(suffix))
}

/// The declared type governing samples named `name`: its own `# TYPE`,
/// or `histogram` for a series of a declared histogram family.
fn declared_type<'a>(types: &'a HashMap<String, String>, name: &str) -> Option<&'a str> {
    types.get(name).map(String::as_str).or_else(|| {
        histogram_family(name)
            .and_then(|family| types.get(family))
            .map(String::as_str)
            .filter(|&kind| kind == "histogram")
    })
}

fn is_valid_name(name: &str) -> bool {
    name.starts_with("socialrec_")
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_exposition(body: &str) -> Result<Exposition, String> {
    let mut exp =
        Exposition { types: HashMap::new(), samples: HashMap::new(), buckets: HashMap::new() };
    for (k, line) in body.lines().enumerate() {
        let lineno = k + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !is_valid_name(name) {
                return Err(format!("line {lineno}: bad metric name in TYPE comment: {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            exp.types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        // A sample: `name value` or `name{labels} value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without a value: {line:?}"))?;
        let name = series.split('{').next().unwrap_or(series);
        if !is_valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let kind = declared_type(&exp.types, name)
            .ok_or_else(|| format!("line {lineno}: sample {name:?} has no preceding # TYPE"))?;
        let v: f64 = value
            .parse()
            .map_err(|e| format!("line {lineno}: value {value:?} of {name:?}: {e}"))?;
        if !v.is_finite() {
            return Err(format!("line {lineno}: non-finite value {value:?} of {name:?}"));
        }
        if kind == "counter" && v < 0.0 {
            return Err(format!("line {lineno}: negative counter {name:?} = {value}"));
        }
        if kind == "histogram" {
            let family = histogram_family(name).ok_or_else(|| {
                format!("line {lineno}: histogram sample {name:?} is not _bucket, _sum or _count")
            })?;
            if name.ends_with("_bucket") {
                let le = series
                    .split_once("{le=\"")
                    .and_then(|(_, l)| l.strip_suffix("\"}"))
                    .and_then(|l| l.parse::<f64>().ok())
                    .ok_or_else(|| format!("line {lineno}: bucket {series:?} has no le label"))?;
                exp.buckets.entry(family.to_string()).or_default().push((le, v));
            }
        }
        if exp.samples.insert(series.to_string(), v).is_some() {
            return Err(format!("line {lineno}: duplicate series {series:?}"));
        }
    }
    if exp.samples.is_empty() {
        return Err("no samples in exposition".to_string());
    }
    check_histograms(&exp)?;
    Ok(exp)
}

/// Every histogram family's cumulative buckets must not decrease as
/// `le` grows, and its `+Inf` bucket must equal its `_count`.
fn check_histograms(exp: &Exposition) -> Result<(), String> {
    for (family, _) in exp.types.iter().filter(|(_, kind)| *kind == "histogram") {
        let mut buckets = exp.buckets.get(family).cloned().unwrap_or_default();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(w) = buckets.windows(2).find(|w| w[1].1 < w[0].1) {
            return Err(format!(
                "histogram {family}: bucket decreases from {} at le={} to {} at le={}",
                w[0].1, w[0].0, w[1].1, w[1].0
            ));
        }
        let inf = buckets
            .last()
            .filter(|b| b.0 == f64::INFINITY)
            .ok_or_else(|| format!("histogram {family} has no +Inf bucket"))?
            .1;
        let count = exp.samples.get(&format!("{family}_count")).copied();
        if count != Some(inf) {
            return Err(format!("histogram {family}: +Inf bucket {inf} != _count {count:?}"));
        }
    }
    Ok(())
}

/// Counter and histogram series present in both scrapes must not have
/// gone backwards (the scrapes come from one process; a decrease means
/// the endpoint is mislabeling a gauge or losing state between scrapes).
fn check_monotone(current: &Exposition, previous: &Exposition) -> Result<(), String> {
    for (series, &prev_v) in &previous.samples {
        let name = series.split('{').next().unwrap_or(series);
        let Some(kind @ ("counter" | "histogram")) = declared_type(&previous.types, name) else {
            continue;
        };
        if let Some(&cur_v) = current.samples.get(series) {
            if cur_v < prev_v {
                return Err(format!("{kind} {series:?} went backwards: {prev_v} -> {cur_v}"));
            }
        }
    }
    Ok(())
}

/// One JSON object per line, each with a sequence number, a timestamp,
/// and a journal-known event name.
fn validate_events(body: &str) -> Result<(), String> {
    let mut lines = 0usize;
    for (k, line) in body.lines().enumerate() {
        let lineno = k + 1;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let event = json::parse(line)
            .ok()
            .filter(Value::is_object)
            .ok_or_else(|| format!("line {lineno}: not a JSON object: {line:?}"))?;
        for field in ["seq", "t_ns"] {
            if event.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!(
                    "line {lineno}: \"{field}\" is missing or not an unsigned integer in {line:?}"
                ));
            }
        }
        // An unknown name means the endpoint and the journal drifted.
        let name = event.get("event").and_then(Value::as_str);
        if !name.is_some_and(|name| EventKind::ALL.iter().any(|k| k.name() == name)) {
            return Err(format!("line {lineno}: unknown event name {name:?} in {line:?}"));
        }
    }
    if lines == 0 {
        return Err("no events in journal tail".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_exposition() -> &'static str {
        "# TYPE socialrec_serve_shard0_queries counter\n\
         socialrec_serve_shard0_queries 5\n\
         # TYPE socialrec_serve_shard_generation gauge\n\
         socialrec_serve_shard_generation{shard=\"0\"} 7\n\
         socialrec_serve_shard_generation{shard=\"1\"} 6\n\
         # TYPE socialrec_serve_shard0_query_ns histogram\n\
         socialrec_serve_shard0_query_ns_bucket{le=\"1023\"} 2\n\
         socialrec_serve_shard0_query_ns_bucket{le=\"2047\"} 4\n\
         socialrec_serve_shard0_query_ns_bucket{le=\"+Inf\"} 5\n\
         socialrec_serve_shard0_query_ns_sum 9000\n\
         socialrec_serve_shard0_query_ns_count 5\n\
         # TYPE socialrec_journal_emitted counter\n\
         socialrec_journal_emitted 9\n"
    }

    fn valid_events() -> &'static str {
        "{\"seq\":0,\"t_ns\":120,\"event\":\"release_published\",\"generation\":7}\n\
         {\"seq\":1,\"t_ns\":450,\"event\":\"hot_swap_completed\",\"shard\":0,\"generation\":7}\n"
    }

    #[test]
    fn accepts_a_well_formed_exposition() {
        let exp = parse_exposition(valid_exposition()).unwrap();
        assert_eq!(exp.samples.len(), 9);
        assert_eq!(exp.types.get("socialrec_serve_shard_generation").unwrap(), "gauge");
        assert_eq!(exp.buckets["socialrec_serve_shard0_query_ns"].len(), 3);
    }

    #[test]
    fn rejects_malformed_expositions() {
        // A sample whose name was never declared.
        let undeclared = "socialrec_mystery 1\n";
        assert!(parse_exposition(undeclared).unwrap_err().contains("no preceding # TYPE"));
        // A name outside the socialrec_ namespace.
        let foreign = "# TYPE other_thing counter\nother_thing 1\n";
        assert!(parse_exposition(foreign).unwrap_err().contains("bad metric name"));
        // A non-numeric value.
        let nan = valid_exposition()
            .replace("socialrec_journal_emitted 9", "socialrec_journal_emitted NaN-ish");
        assert!(parse_exposition(&nan).unwrap_err().contains("value"));
        // A negative counter.
        let negative = valid_exposition()
            .replace("socialrec_journal_emitted 9", "socialrec_journal_emitted -3");
        assert!(parse_exposition(&negative).unwrap_err().contains("negative counter"));
        // A duplicated series.
        let dup = format!("{}socialrec_journal_emitted 9\n", valid_exposition());
        assert!(parse_exposition(&dup).unwrap_err().contains("duplicate series"));
        // An empty scrape.
        assert!(parse_exposition("").unwrap_err().contains("no samples"));
    }

    #[test]
    fn rejects_malformed_histograms() {
        // A bucket that decreases as `le` grows.
        let dipping = valid_exposition().replace("{le=\"2047\"} 4", "{le=\"2047\"} 1");
        assert!(parse_exposition(&dipping).unwrap_err().contains("bucket decreases"));
        // A +Inf bucket that disagrees with _count.
        let miscounted = valid_exposition().replace("query_ns_count 5", "query_ns_count 6");
        assert!(parse_exposition(&miscounted).unwrap_err().contains("+Inf bucket 5 != _count"));
        // A _bucket series whose family declared no # TYPE.
        let orphan =
            valid_exposition().replace("# TYPE socialrec_serve_shard0_query_ns histogram\n", "");
        assert!(parse_exposition(&orphan).unwrap_err().contains("no preceding # TYPE"));
        // A family without +Inf, a bucket without `le`, a bare family sample.
        let no_inf = valid_exposition().replace("{le=\"+Inf\"} 5", "{le=\"4095\"} 5");
        assert!(parse_exposition(&no_inf).unwrap_err().contains("no +Inf bucket"));
        let no_le = valid_exposition().replace("{le=\"1023\"}", "{shard=\"0\"}");
        assert!(parse_exposition(&no_le).unwrap_err().contains("has no le label"));
        let bare = valid_exposition().replace("query_ns_sum 9000", "query_ns 9000");
        assert!(parse_exposition(&bare).unwrap_err().contains("is not _bucket"));
    }

    #[test]
    fn enforces_counter_monotonicity_only() {
        let prev = parse_exposition(valid_exposition()).unwrap();
        // Counters and buckets grew, gauge fell: fine.
        let later = valid_exposition()
            .replace("socialrec_journal_emitted 9", "socialrec_journal_emitted 12")
            .replace("{le=\"+Inf\"} 5", "{le=\"+Inf\"} 7")
            .replace("query_ns_count 5", "query_ns_count 7")
            .replace(
                "socialrec_serve_shard_generation{shard=\"0\"} 7",
                "socialrec_serve_shard_generation{shard=\"0\"} 3",
            );
        let cur = parse_exposition(&later).unwrap();
        check_monotone(&cur, &prev).unwrap();
        // A counter going backwards is an error.
        let regressed = valid_exposition()
            .replace("socialrec_journal_emitted 9", "socialrec_journal_emitted 4");
        let cur = parse_exposition(&regressed).unwrap();
        assert!(check_monotone(&cur, &prev).unwrap_err().contains("counter"));
        // So is a histogram bucket going backwards.
        let bucket_back = valid_exposition().replace("{le=\"1023\"} 2", "{le=\"1023\"} 1");
        let cur = parse_exposition(&bucket_back).unwrap();
        let err = check_monotone(&cur, &prev).unwrap_err();
        assert!(err.contains("histogram") && err.contains("went backwards"), "{err}");
        // A series that disappeared is not an error (scrape sets may
        // differ when a shard is added), only a regression is.
        let fewer = "# TYPE socialrec_serve_shard_generation gauge\n\
                     socialrec_serve_shard_generation{shard=\"0\"} 1.0\n";
        let cur = parse_exposition(fewer).unwrap();
        check_monotone(&cur, &prev).unwrap();
    }

    #[test]
    fn validates_event_journal_lines() {
        validate_events(valid_events()).unwrap();
        let unknown = valid_events().replace("hot_swap_completed", "mystery_event");
        assert!(validate_events(&unknown).unwrap_err().contains("unknown event"));
        let no_time = valid_events().replace("\"t_ns\"", "\"t\"");
        assert!(validate_events(&no_time).unwrap_err().contains("t_ns"));
        // Present but not an unsigned integer.
        let worded = valid_events().replace("\"seq\":0", "\"seq\":\"zero\"");
        assert!(validate_events(&worded).unwrap_err().contains("line 1: \"seq\""));
        let fractional = valid_events().replace("\"t_ns\":450", "\"t_ns\":450.5");
        assert!(validate_events(&fractional).unwrap_err().contains("line 2: \"t_ns\""));
        let negative = valid_events().replace("\"seq\":1", "\"seq\":-1");
        assert!(validate_events(&negative).unwrap_err().contains("\"seq\""));
        let no_name = valid_events().replace("\"event\":", "\"kind\":");
        assert!(validate_events(&no_name).unwrap_err().contains("unknown event"));
        // A full-width generation stamp is an ordinary payload.
        validate_events(&valid_events().replace(":7}", ":15243249774799408224}")).unwrap();
        let not_json = "hot_swap_completed at t=4\n";
        assert!(validate_events(not_json).unwrap_err().contains("not a JSON object"));
        assert!(validate_events("\n\n").unwrap_err().contains("no events"));
        validate_events(
            "{\"seq\":2,\"t_ns\":9,\"event\":\"query_refused\",\"user\":4,\"reason\":0}\n",
        )
        .unwrap();
    }

    #[test]
    fn validates_files_via_args() {
        let dir = std::env::temp_dir().join("socialrec-validate-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.txt");
        let previous = dir.join("p.txt");
        let events = dir.join("e.jsonl");
        std::fs::write(&metrics, valid_exposition().replace(" 9\n", " 11\n")).unwrap();
        std::fs::write(&previous, valid_exposition()).unwrap();
        std::fs::write(&events, valid_events()).unwrap();
        let spec = format!(
            "--metrics {} --previous {} --events {}",
            metrics.display(),
            previous.display(),
            events.display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        // A dump without a shard latency histogram is refused.
        std::fs::write(
            &metrics,
            "# TYPE socialrec_journal_emitted counter\nsocialrec_journal_emitted 9\n",
        )
        .unwrap();
        let err = run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap_err();
        assert!(err.contains("_query_ns histogram"), "{err}");
        for f in [&metrics, &previous, &events] {
            std::fs::remove_file(f).ok();
        }
    }
}
