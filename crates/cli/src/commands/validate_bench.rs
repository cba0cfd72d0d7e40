//! `socialrec validate-bench` — schema validation of a
//! `BENCH_pipeline.json`, `BENCH_serve.json`, `BENCH_scale.json`, or
//! `BENCH_update.json` artifact.
//!
//! The artifact is parsed with `socialrec_obs::json` and checked against
//! one table of typed paths per bench kind, picked by the `"bench"`
//! marker: every stage, load phase, sweep point and churn round must
//! carry every field, at the level and with the type the writer gives
//! it. On top of the tables sit the cross-field checks: a gate the
//! artifact declares bound must be recorded as met, the accountant's
//! release count must match the published generations (serve) or the
//! churn rounds (update), and the pipeline daemon's per-shard query
//! counters must sum to the user count. CI runs this against both the
//! smoke-run artifacts and the checked-in trajectory artifacts, so a
//! bench refactor that drops a field (or stops asserting equivalence)
//! fails the build instead of silently thinning the gate.

use socialrec_experiments::Args;
use socialrec_obs::json::{self, Value};

/// What the value at a schema path must be.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// An integer in `u64` range.
    U64,
    /// An integer in `i64` range.
    I64,
    /// A number, or `null`: `ToJson` writes a non-finite `f64` as null.
    F64,
    Str,
    /// This exact string.
    Lit(&'static str),
    Bool,
    /// `true`: a run-time check that must have passed.
    True,
    /// A non-empty array.
    List,
    /// An object matching a nested schema.
    Obj(Schema),
}

use Kind::*;

/// Schema rows: a kind, and the whitespace-separated dotted paths whose
/// values must be of that kind. A `[]` suffix on a segment checks the
/// rest of the path on every element of that array; a `?` suffix lets
/// that value be `null`, which ends the path; a numeric segment indexes
/// a `[name, value]` pair.
type Schema = &'static [(Kind, &'static str)];

/// Rows every artifact must pass, whatever its kind.
const COMMON: Schema = &[(True, "equivalence_checked"), (Obj(SIMD_INFO), "simd")];

/// The `simd` dispatch record every artifact carries.
const SIMD_INFO: Schema = &[(Str, "detected active requested?")];

/// A process memory sample (`ToJson` of `socialrec_obs::MemorySample`).
const MEMORY: Schema = &[(U64, "rss_bytes peak_rss_bytes anon_bytes")];

/// A metrics registry snapshot: `[name, count]` counters, `[name,
/// value]` gauges, `[name, summary]` histograms.
const REGISTRY: Schema = &[
    (Str, "counters[].0 gauges[].0 histograms[].0"),
    (U64, "counters[].1"),
    (I64, "gauges[].1"),
    (Obj(HISTOGRAM), "histograms[].1"),
];

const HISTOGRAM: Schema = &[(U64, "count mean_ns p50_ns p99_ns max_ns")];

/// One load phase's throughput and exact nearest-rank latency quantiles.
const LOAD: Schema = &[(U64, "queries p50_ns p99_ns max_ns"), (F64, "qps")];

/// Stages every pipeline artifact must report.
const REQUIRED_STAGES: [&str; 4] = ["sim-build", "cluster", "release", "recommend"];

const PIPELINE: Schema = &[
    (U64, "threads users items"),
    (List, "stages simd.kernels hotspots"),
    (Str, "stages[].stage simd.kernels[].kernel hotspots[].span"),
    (F64, "stages[].ms end_to_end_ms"),
    (F64, "simd.kernels[].scalar_ms simd.kernels[].simd_ms simd.kernels[].speedup"),
    (F64, "hotspots[].total_ms hotspots[].mean_us hotspots[].p99_us hotspots[].max_us"),
    (Bool, "simd.gate_bound simd.gate_met"),
    // The recommend stage's daemon registry (per-shard counters).
    (Obj(REGISTRY), "serve_metrics"),
    // `null` off Linux, but the key must exist so thinning is loud.
    (Obj(MEMORY), "memory?"),
];

const SERVE: Schema = &[
    (U64, "clients shards threads cores users items release_epochs"),
    (Obj(LOAD), "closed uncoalesced open"),
    (Lit("closed"), "closed.mode"),
    (Lit("uncoalesced"), "uncoalesced.mode"),
    (Lit("open"), "open.mode"),
    (U64, "coalescing.admissions coalescing.coalesced_queries"),
    (F64, "coalescing.mean_ride coalescing.coalesced_fraction"),
    (F64, "slo.coalescing_speedup privacy.accountant_epsilon publish_under_load_ms"),
    (Bool, "slo.speedup_gate_bound slo.met live.introspect_probed"),
    (U64, "live.journal_emitted live.journal_dropped live.hot_swap_events"),
    (U64, "live.release_published_events privacy.accountant_releases"),
    // `/ledger` carried the accountant's ε bit for bit.
    (True, "live.ledger_bits_match"),
    (List, "shard_generations"),
    (U64, "shard_generations[]"),
    (Obj(REGISTRY), "registry"),
    (Obj(MEMORY), "memory?"),
];

const SCALE: Schema = &[
    (Str, "epsilon measure"),
    (U64, "threads"),
    (List, "points"),
    (U64, "points[].users points[].social_edges points[].simmass_entries"),
    // The artifact size proves the build actually streamed to disk.
    (U64, "points[].simmass_artifact_bytes"),
    (F64, "points[].simmass_build_ms points[].open_ms"),
    (U64, "points[].query_p50_ns points[].query_p99_ns"),
    // The RSS gauge is the point of the sweep: a sample, or an explicit
    // null off Linux.
    (Obj(MEMORY), "points[].memory? memory?"),
];

const UPDATE: Schema = &[
    (U64, "threads users num_rounds"),
    (F64, "drift_threshold incremental_total_ms full_rebuild_total_ms"),
    (List, "rounds"),
    (F64, "rounds[].incremental_ms rounds[].full_rebuild_ms"),
    // The dirty-set sizes prove the refresh was incremental.
    (U64, "rounds[].sim_dirty_rows rounds[].index_dirty_rows rounds[].moved_users"),
    (Bool, "rounds[].restarted slo.speedup_gate_bound slo.met"),
    (F64, "slo.refresh_speedup"),
    (F64, "privacy.epsilon_per_release privacy.accountant_epsilon"),
    (U64, "privacy.accountant_releases"),
    (Str, "privacy.refusal_schedule privacy.refusal_accountant"),
    // The refreshed similarity rows, index rows and release were
    // asserted bit-identical to the full rebuild at run time.
    (True, "releases_bit_identical"),
    (Obj(MEMORY), "memory?"),
];

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.get_str("path").unwrap_or("BENCH_pipeline.json").to_string();
    let body = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kind = validate(&body).map_err(|e| format!("{path}: {e}"))?;
    println!("validate-bench: {path} ok ({kind})");
    Ok(())
}

fn validate(body: &str) -> Result<&'static str, String> {
    let doc = json::parse(body).map_err(|e| format!("not JSON: {e}"))?;
    if !doc.is_object() {
        return Err("not a JSON object".to_string());
    }
    type Rules = fn(&Value) -> Result<(), String>;
    let (kind, schema, rules): (&'static str, Schema, Rules) =
        match doc.get("bench").and_then(Value::as_str) {
            Some("pipeline") => ("pipeline", PIPELINE, pipeline_rules),
            Some("serve") => ("serve", SERVE, serve_rules),
            Some("scale") => ("scale", SCALE, |_| Ok(())),
            Some("update") => ("update", UPDATE, update_rules),
            other => {
                return Err(format!(
                    "\"bench\" marker is {other:?}, not \"pipeline\", \"serve\", \"scale\" \
                     or \"update\""
                ))
            }
        };
    check(&doc, "", COMMON)?;
    check(&doc, "", schema)?;
    rules(&doc)?;
    Ok(kind)
}

/// Check every row of `schema` against `v`, which sits at path `at`.
fn check(v: &Value, at: &str, schema: Schema) -> Result<(), String> {
    for &(kind, paths) in schema {
        for path in paths.split_whitespace() {
            let segments: Vec<&str> = path.split('.').collect();
            check_path(v, at, &segments, kind)?;
        }
    }
    Ok(())
}

fn check_path(v: &Value, at: &str, segments: &[&str], kind: Kind) -> Result<(), String> {
    let Some((segment, rest)) = segments.split_first() else {
        return check_kind(v, at, kind);
    };
    let (key, each) = segment.strip_suffix("[]").map_or((*segment, false), |key| (key, true));
    let (key, nullable) = key.strip_suffix('?').map_or((key, false), |key| (key, true));
    let here = if at.is_empty() { key.to_string() } else { format!("{at}.{key}") };
    let child = match key.parse::<usize>() {
        Ok(i) => v.as_array().and_then(|items| items.get(i)),
        Err(_) => v.get(key),
    }
    .ok_or_else(|| format!("{here}: missing"))?;
    if nullable && *child == Value::Null {
        return Ok(());
    }
    if !each {
        return check_path(child, &here, rest, kind);
    }
    let items = child.as_array().ok_or_else(|| format!("{here}: expected an array"))?;
    for (i, item) in items.iter().enumerate() {
        check_path(item, &format!("{here}[{i}]"), rest, kind)?;
    }
    Ok(())
}

fn check_kind(v: &Value, at: &str, kind: Kind) -> Result<(), String> {
    let ok = match kind {
        U64 => v.as_u64().is_some(),
        I64 => v.as_i64().is_some(),
        F64 => v.as_f64().is_some() || *v == Value::Null,
        Str => v.as_str().is_some(),
        Lit(s) => v.as_str() == Some(s),
        Bool => v.as_bool().is_some(),
        True => v.as_bool() == Some(true),
        List => v.as_array().is_some_and(|items| !items.is_empty()),
        Obj(schema) if v.is_object() => return check(v, at, schema),
        Obj(_) => return Err(format!("{at}: expected an object")),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{at}: expected {kind:?}"))
    }
}

/// The value at a plain dotted path the schema has already checked.
fn at<'a>(doc: &'a Value, path: &str) -> &'a Value {
    static NULL: Value = Value::Null;
    path.split('.').fold(doc, |v, key| v.get(key).unwrap_or(&NULL))
}

/// The `[name, value]` pairs of a registry list (counters, gauges).
fn pairs<'a>(doc: &'a Value, path: &str) -> impl Iterator<Item = (&'a str, &'a Value)> {
    at(doc, path).as_array().unwrap_or_default().iter().filter_map(|pair| {
        match pair.as_array()? {
            [name, value] => Some((name.as_str()?, value)),
            _ => None,
        }
    })
}

/// A gate the artifact declares bound must be recorded as met.
fn gate(doc: &Value, bound: &str, met: &str, what: &str) -> Result<(), String> {
    if at(doc, bound).as_bool() == Some(true) && at(doc, met).as_bool() != Some(true) {
        return Err(format!("{bound} is true but {met} is not: the {what} was not met"));
    }
    Ok(())
}

fn pipeline_rules(doc: &Value) -> Result<(), String> {
    let stages = at(doc, "stages").as_array().unwrap_or_default();
    for stage in REQUIRED_STAGES {
        if !stages.iter().any(|s| at(s, "stage").as_str() == Some(stage)) {
            return Err(format!("missing stage entry for {stage:?}"));
        }
    }
    // When AVX2 is active off-smoke, a ported kernel must beat its
    // scalar-forced baseline in this same artifact.
    gate(doc, "simd.gate_bound", "simd.gate_met", "simd kernel speedup over scalar")?;
    // The recommend stage serves every user exactly once.
    let is_shard_queries = |name: &str| {
        name.strip_prefix("serve.shard")
            .and_then(|rest| rest.strip_suffix(".queries"))
            .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
    };
    let queries: u128 = pairs(doc, "serve_metrics.counters")
        .filter(|(name, _)| is_shard_queries(name))
        .filter_map(|(_, count)| count.as_u64())
        .map(u128::from)
        .sum();
    let users = at(doc, "users").as_u64().map(u128::from);
    if Some(queries) != users {
        return Err(format!(
            "serve_metrics counts {queries} serve.shard*.queries but the run has {users:?} users"
        ));
    }
    Ok(())
}

fn serve_rules(doc: &Value) -> Result<(), String> {
    // Each published generation is exactly one accountant release.
    let releases = at(doc, "privacy.accountant_releases").as_u64();
    let epochs = at(doc, "release_epochs").as_u64();
    if releases != epochs {
        return Err(format!(
            "privacy.accountant_releases ({releases:?}) must equal release_epochs ({epochs:?})"
        ));
    }
    if !pairs(doc, "registry.gauges").any(|(name, _)| name == "serve.shard0.generation") {
        return Err("missing per-shard generation stamps in the registry block".to_string());
    }
    // Binds with enough cores and clients, off-smoke.
    gate(doc, "slo.speedup_gate_bound", "slo.met", ">= 3x coalescing SLO")
}

fn update_rules(doc: &Value) -> Result<(), String> {
    let count = |path| at(doc, path).as_u64().unwrap_or_default();
    let rounds = count("num_rounds");
    let recorded = at(doc, "rounds").as_array().map_or(0, <[Value]>::len);
    if recorded as u64 != rounds {
        return Err(format!("num_rounds is {rounds} but {recorded} rounds are recorded"));
    }
    // One accountant release per churn round, and no other.
    let releases = count("privacy.accountant_releases");
    if releases != rounds {
        return Err(format!(
            "privacy.accountant_releases is {releases}, but the run made {rounds} refreshes"
        ));
    }
    // Binds off-smoke.
    gate(doc, "slo.speedup_gate_bound", "slo.met", ">= 5x refresh SLO")
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIPELINE_JSON: &str = r#"{
  "bench": "pipeline", "threads": 1, "users": 10, "items": 20,
  "stages": [
    { "stage": "sim-build", "ms": 1.0 }, { "stage": "cluster", "ms": 1.0 },
    { "stage": "release", "ms": 1.0 }, { "stage": "recommend", "ms": 1.0 }
  ],
  "end_to_end_ms": 4.0, "equivalence_checked": true,
  "serve_metrics": {
    "counters": [
      ["serve.refused", 0], ["serve.shard0.kernel_blocks", 1],
      ["serve.shard0.queries", 6], ["serve.shard1.queries", 4]
    ],
    "gauges": [["serve.shard0.generation", -7]],
    "histograms": [
      ["serve.shard0.query_ns", { "count": 10, "mean_ns": 5, "p50_ns": 4, "p99_ns": 9, "max_ns": 9 }]
    ]
  },
  "simd": {
    "detected": "avx2", "active": "avx2", "requested": null,
    "kernels": [{ "kernel": "recommend-axpy", "scalar_ms": 2.0, "simd_ms": 1.0, "speedup": 2.0 }],
    "gate_bound": true, "gate_met": true
  },
  "hotspots": [
    { "span": "sim.build", "count": 1, "total_ms": 3.0, "mean_us": 10.0, "p99_us": 20.0,
      "max_us": 30.0, "depth": 0 }
  ],
  "memory": null
}"#;

    const SERVE_JSON: &str = r#"{
  "bench": "serve", "threads": 1, "cores": 8, "clients": 4, "shards": 4, "users": 10,
  "items": 20,
  "closed": { "mode": "closed", "queries": 96, "qps": 100.0, "p50_ns": 1000, "p99_ns": 2000, "max_ns": 3000 },
  "uncoalesced": { "mode": "uncoalesced", "queries": 96, "qps": 100.0, "p50_ns": 1000, "p99_ns": 2000, "max_ns": 3000 },
  "open": { "mode": "open", "queries": 96, "qps": 100.0, "p50_ns": 1000, "p99_ns": 2000, "max_ns": 3000 },
  "publish_under_load_ms": 5.0,
  "coalescing": { "queries": 96, "admissions": 40, "coalesced_queries": 70, "mean_ride": 2.4,
    "coalesced_fraction": 0.73 },
  "slo": { "coalescing_speedup": 3.5, "speedup_gate_bound": true, "met": true },
  "live": { "journal_emitted": 9, "journal_dropped": 0, "hot_swap_events": 4,
    "release_published_events": 2, "introspect_probed": true, "ledger_bits_match": true },
  "release_epochs": 2, "shard_generations": [7, 7, 7, 7], "equivalence_checked": true,
  "privacy": { "accountant_epsilon": 1.0, "accountant_releases": 2 },
  "simd": { "detected": "avx2", "active": "avx2", "requested": null },
  "registry": { "counters": [["serve.refused", 0]], "gauges": [["serve.shard0.generation", 7]],
    "histograms": [] },
  "memory": null
}"#;

    const SCALE_JSON: &str = r#"{
  "bench": "scale", "epsilon": "0.5", "measure": "CN", "threads": 1,
  "points": [
    { "users": 1, "social_edges": 1, "simmass_entries": 1, "simmass_artifact_bytes": 1,
      "simmass_build_ms": 1.5, "open_ms": 0.5, "query_p50_ns": 1, "query_p99_ns": 1,
      "memory": { "rss_bytes": 1, "peak_rss_bytes": 2, "anon_bytes": 1 } }
  ],
  "equivalence_checked": true,
  "simd": { "detected": "avx2", "active": "avx2", "requested": null },
  "memory": null
}"#;

    const UPDATE_JSON: &str = r#"{
  "bench": "update", "threads": 1, "users": 10, "items": 20,
  "drift_threshold": 0.02, "num_rounds": 1,
  "rounds": [
    { "incremental_ms": 1.0, "full_rebuild_ms": 8.0, "sim_dirty_rows": 1,
      "index_dirty_rows": 1, "moved_users": 1, "restarted": false, "speedup": 8.0 }
  ],
  "incremental_total_ms": 1.0, "full_rebuild_total_ms": 8.0,
  "slo": { "refresh_speedup": 8.0, "speedup_gate_bound": true, "met": true },
  "privacy": { "epsilon_per_release": 1.0, "accountant_epsilon": 1.0,
    "accountant_releases": 1, "refusal_schedule": "exhausted", "refusal_accountant": "exceeded" },
  "equivalence_checked": true, "releases_bit_identical": true,
  "simd": { "detected": "avx2", "active": "avx2", "requested": "avx2" },
  "memory": null
}"#;

    /// The artifacts the benches last wrote into the repository.
    const CHECKED_IN: [(&str, &str); 4] = [
        ("pipeline", include_str!("../../../../BENCH_pipeline.json")),
        ("serve", include_str!("../../../../BENCH_serve.json")),
        ("scale", include_str!("../../../../BENCH_scale.json")),
        ("update", include_str!("../../../../BENCH_update.json")),
    ];

    fn err(body: &str) -> String {
        validate(body).unwrap_err()
    }

    /// Each `(from, to, error)`: `body` with `from` replaced by `to` must
    /// be refused with a message containing `error`.
    fn rejects(body: &str, cases: &[(&str, &str, &str)]) {
        for &(from, to, want) in cases {
            assert!(body.contains(from), "fixture lacks {from:?}");
            let got = err(&body.replace(from, to));
            assert!(got.contains(want), "{from:?} -> {to:?}: {got}");
        }
    }

    /// `body` with the key `key` at byte `at` renamed (a valid document
    /// that lacks it there).
    fn rename_at(body: &str, at: usize, key: &str) -> String {
        assert_eq!(&body[at..at + key.len()], key);
        format!("{}\"renamed\"{}", &body[..at], &body[at + key.len()..])
    }

    #[test]
    fn accepts_complete_artifacts() {
        assert_eq!(validate(PIPELINE_JSON).unwrap(), "pipeline");
        assert_eq!(validate(SERVE_JSON).unwrap(), "serve");
        assert_eq!(validate(SCALE_JSON).unwrap(), "scale");
        assert_eq!(validate(UPDATE_JSON).unwrap(), "update");
        for (kind, body) in CHECKED_IN {
            assert_eq!(validate(body), Ok(kind));
        }
    }

    #[test]
    fn rejects_a_field_missing_from_one_element() {
        // One phase, sweep point or churn round lacks a field its
        // siblings carry: a search of the whole document would find the
        // siblings' copy.
        let [_, (_, serve), (_, scale), (_, update)] = CHECKED_IN;
        let open = serve.find("\"mode\": \"open\"").unwrap();
        let open_p99 = open + serve[open..].find("\"p99_ns\"").unwrap();
        assert_eq!(err(&rename_at(serve, open_p99, "\"p99_ns\"")), "open.p99_ns: missing");
        let million = scale.find("\"users\": 1000000").unwrap();
        let p99 = million + scale[million..].find("\"query_p99_ns\"").unwrap();
        let thinned = rename_at(scale, p99, "\"query_p99_ns\"");
        assert_eq!(err(&thinned), "points[1].query_p99_ns: missing");
        let last = update.rfind("\"sim_dirty_rows\"").unwrap();
        let thinned = rename_at(update, last, "\"sim_dirty_rows\"");
        assert_eq!(err(&thinned), "rounds[2].sim_dirty_rows: missing");
    }

    #[test]
    fn rejects_wrong_types_and_levels() {
        rejects(
            SERVE_JSON,
            &[
                ("\"users\": 10", "\"users\": \"10\"", "users: expected U64"),
                ("[7, 7, 7, 7]", "[7, 7, \"7\", 7]", "shard_generations[2]: expected U64"),
                // A phase field hoisted to the top level is not the phase's.
                (
                    "\"p99_ns\": 2000, \"max_ns\": 3000 },\n  \"open\"",
                    "\"max_ns\": 3000 },\n  \"p99_ns\": 2000, \"open\"",
                    "uncoalesced.p99_ns: missing",
                ),
            ],
        );
        rejects(
            UPDATE_JSON,
            &[("\"moved_users\": 1", "\"moved_users\": -1", "rounds[0].moved_users")],
        );
        rejects(PIPELINE_JSON, &[("-7]", "1.5]", "serve_metrics.gauges[0].1: expected I64")]);
        assert!(err("{").starts_with("not JSON"));
        assert!(err("{\"bench\": \"serve\", \"bench\": \"scale\"}").contains("duplicate key"));
    }

    #[test]
    fn rejects_thinned_update_artifacts() {
        rejects(
            UPDATE_JSON,
            &[
                ("\"incremental_ms\"", "\"ms\"", "incremental_ms"),
                ("\"sim_dirty_rows\"", "\"rows\"", "sim_dirty_rows"),
                ("\"refusal_schedule\"", "\"r\"", "refusal_schedule"),
                ("\"accountant_epsilon\"", "\"ae\"", "accountant_epsilon"),
                // A release the accountant never approved (or one it
                // approved beyond the rounds) contradicts the artifact.
                (
                    "\"accountant_releases\": 1",
                    "\"accountant_releases\": 2",
                    "accountant_releases is 2",
                ),
                ("\"num_rounds\": 1", "\"num_rounds\": 2", "2 but 1 rounds"),
                (
                    "\"releases_bit_identical\": true",
                    "\"releases_bit_identical\": false",
                    "releases_bit_identical",
                ),
                // Bound-but-unmet refresh SLO: the artifact contradicts
                // itself.
                ("\"met\": true", "\"met\": false", "refresh SLO"),
            ],
        );
        let unbound = UPDATE_JSON
            .replace("\"met\": true", "\"met\": false")
            .replace("\"speedup_gate_bound\": true", "\"speedup_gate_bound\": false");
        assert_eq!(validate(&unbound).unwrap(), "update");
    }

    #[test]
    fn rejects_thinned_scale_artifacts() {
        rejects(
            SCALE_JSON,
            &[
                ("\"query_p50_ns\"", "\"pXX\"", "points[0].query_p50_ns: missing"),
                ("\"query_p99_ns\"", "\"pXX\"", "query_p99_ns"),
                ("\"simmass_artifact_bytes\"", "\"b\"", "simmass_artifact_bytes"),
                ("\"open_ms\"", "\"o\"", "points[0].open_ms: missing"),
                ("\"points\"", "\"pts\"", "points: missing"),
                // The memory gauge: a sample or an explicit null, never
                // absent.
                ("\"anon_bytes\"", "\"a\"", "points[0].memory.anon_bytes: missing"),
                ("\"memory\": null", "\"memory\": 0", "memory: expected an object"),
                ("\"memory\": null", "\"mem\": null", "memory: missing"),
            ],
        );
    }

    #[test]
    fn pipeline_serve_metrics_must_serve_every_user_once() {
        rejects(
            PIPELINE_JSON,
            &[
                (
                    "[\"serve.shard1.queries\", 4]",
                    "[\"serve.shard1.queries\", 3]",
                    "9 serve.shard*.queries",
                ),
                ("\"histograms\"", "\"h\"", "histograms"),
                (
                    "\"serve_metrics\": {",
                    "\"serve_metrics\": [], \"was\": {",
                    "serve_metrics: expected an object",
                ),
            ],
        );
    }

    #[test]
    fn rejects_missing_stage_or_marker() {
        rejects(
            PIPELINE_JSON,
            &[
                ("\"stage\": \"recommend\"", "\"stage\": \"x\"", "recommend"),
                (
                    "\"equivalence_checked\": true",
                    "\"equivalence_checked\": false",
                    "equivalence_checked",
                ),
                ("\"equivalence_checked\"", "\"e\"", "equivalence_checked"),
                ("\"bench\": \"pipeline\"", "\"bench\": \"x\"", "marker"),
                // A pipeline body relabeled as serve lacks every serving
                // field.
                ("\"bench\": \"pipeline\"", "\"bench\": \"serve\"", "missing"),
            ],
        );
        assert!(err("[]").contains("JSON object"));
    }

    #[test]
    fn rejects_thinned_serve_artifacts() {
        rejects(
            SERVE_JSON,
            &[
                ("\"p99_ns\"", "\"pXX_ns\"", "p99_ns"),
                ("\"mode\": \"open\"", "\"mode\": \"x\"", "open.mode"),
                ("\"mean_ride\"", "\"ride\"", "mean_ride"),
                ("serve.shard0.generation", "serve.shard0.gen", "generation stamps"),
                ("\"accountant_epsilon\"", "\"ae\"", "accountant_epsilon"),
                ("\"publish_under_load_ms\"", "\"pul\"", "publish_under_load_ms: missing"),
                // Every published generation is one accountant release.
                (
                    "\"accountant_releases\": 2",
                    "\"accountant_releases\": 1",
                    "must equal release_epochs",
                ),
                (
                    "\"accountant_releases\": 2",
                    "\"accountant_releases\": null",
                    "accountant_releases",
                ),
                // The live block, and a /ledger that drifted from the
                // accountant: a self-contradiction the artifact may not
                // carry.
                ("\"journal_emitted\"", "\"je\"", "journal_emitted"),
                ("\"hot_swap_events\"", "\"hse\"", "hot_swap_events"),
                ("\"introspect_probed\"", "\"ip\"", "introspect_probed"),
                (
                    "\"ledger_bits_match\": true",
                    "\"ledger_bits_match\": false",
                    "ledger_bits_match",
                ),
                // Bound but unmet: an unbound gate (e.g. a 1-core
                // runner) is fine either way.
                ("\"met\": true", "\"met\": false", "SLO was not met"),
            ],
        );
        let unbound = SERVE_JSON
            .replace("\"met\": true", "\"met\": false")
            .replace("\"speedup_gate_bound\": true", "\"speedup_gate_bound\": false");
        assert_eq!(validate(&unbound).unwrap(), "serve");
    }

    #[test]
    fn rejects_thinned_simd_or_hotspot_blocks() {
        rejects(
            PIPELINE_JSON,
            &[
                ("\"kernels\"", "\"ks\"", "kernels"),
                ("\"gate_bound\"", "\"gb\"", "gate_bound"),
                ("\"span\"", "\"s\"", "span"),
                // Bound-but-unmet SIMD gate: the artifact contradicts
                // itself.
                ("\"gate_met\": true", "\"gate_met\": false", "simd kernel speedup"),
            ],
        );
        rejects(SERVE_JSON, &[("\"detected\"", "\"d\"", "detected")]);
        rejects(SCALE_JSON, &[("\"active\"", "\"a\"", "active")]);
        rejects(UPDATE_JSON, &[("\"requested\": \"avx2\"", "\"requested\": 2", "simd.requested")]);
        // An unbound SIMD gate (scalar override, non-AVX2 box) need not
        // be met.
        let unbound = PIPELINE_JSON
            .replace("\"gate_met\": true", "\"gate_met\": false")
            .replace("\"gate_bound\": true", "\"gate_bound\": false");
        assert_eq!(validate(&unbound).unwrap(), "pipeline");
    }

    #[test]
    fn validates_file_via_args() {
        let dir = std::env::temp_dir().join("socialrec-validate-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in [
            ("BENCH_pipeline.json", PIPELINE_JSON),
            ("BENCH_serve.json", SERVE_JSON),
            ("BENCH_update.json", UPDATE_JSON),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let spec = format!("--path {}", path.display());
            run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
            std::fs::remove_file(&path).ok();
        }
    }
}
