//! `socialrec validate-bench` — structural validation of a
//! `BENCH_pipeline.json`, `BENCH_serve.json`, `BENCH_scale.json`, or
//! `BENCH_update.json` artifact.
//!
//! The repo deliberately has no JSON deserializer (artifacts are
//! write-only, produced via `impl_to_json!`), so validation is
//! substring-based: the checks dispatch on the `"bench"` marker, assert
//! that every expected stage/phase is present, that the run-time
//! equivalence checks actually ran, and — for serving artifacts — that
//! the coalescing SLO was met whenever its gate was bound. CI runs this
//! against both the smoke-run artifacts and the checked-in trajectory
//! artifacts, so a bench refactor that drops a gated stage (or stops
//! asserting equivalence) fails the build instead of silently thinning
//! the gate.

use socialrec_experiments::Args;

/// Stages every pipeline artifact must report, in pipeline order.
const REQUIRED_STAGES: [&str; 4] = ["sim-build", "cluster", "release", "recommend"];

/// Top-level keys every pipeline artifact must carry. `memory` is the
/// process-memory sample (`null` off Linux, but the key must exist so
/// thinning the report is loud).
const REQUIRED_KEYS: [&str; 10] = [
    "\"stages\"",
    "\"threads\"",
    "\"end_to_end_speedup\"",
    "\"users\"",
    "\"items\"",
    "\"serve_metrics\"",
    "\"simd\"",
    "\"tune\"",
    "\"hotspots\"",
    "\"memory\"",
];

/// Fields every artifact's `simd` dispatch record must carry (the
/// pipeline artifact's fuller block is checked on top of these).
const REQUIRED_SIMD_INFO_KEYS: [&str; 4] =
    ["\"simd\"", "\"detected\"", "\"active\"", "\"requested\""];

/// Per-kernel attribution + gate fields of the pipeline `simd` block.
const REQUIRED_SIMD_KERNEL_KEYS: [&str; 6] = [
    "\"kernels\"",
    "\"scalar_ms\"",
    "\"simd_ms\"",
    "\"speedup\"",
    "\"gate_bound\"",
    "\"gate_met\"",
];

/// Fields a non-null `tune` block must carry: the sweep grid and the
/// winning configuration next to the compiled-in defaults.
const REQUIRED_TUNE_KEYS: [&str; 7] = [
    "\"grid\"",
    "\"item_tile\"",
    "\"user_block\"",
    "\"best_item_tile\"",
    "\"best_user_block\"",
    "\"best_ms\"",
    "\"default_item_tile\"",
];

/// Per-span fields of the `hotspots` attribution block.
const REQUIRED_HOTSPOT_KEYS: [&str; 5] =
    ["\"span\"", "\"total_ms\"", "\"mean_us\"", "\"p99_us\"", "\"max_us\""];

/// Fields the `serve_metrics` block (the recommend stage's daemon
/// registry, a `RegistrySnapshot` via `ToJson`) must carry.
const REQUIRED_METRICS_KEYS: [&str; 3] = ["\"counters\"", "\"gauges\"", "\"histograms\""];

/// Load phases every serving artifact must report.
const REQUIRED_SERVE_MODES: [&str; 3] = ["closed", "uncoalesced", "open"];

/// Top-level keys every serving artifact must carry.
const REQUIRED_SERVE_KEYS: [&str; 17] = [
    "\"memory\"",
    "\"simd\"",
    "\"clients\"",
    "\"shards\"",
    "\"threads\"",
    "\"cores\"",
    "\"users\"",
    "\"items\"",
    "\"closed\"",
    "\"open\"",
    "\"uncoalesced\"",
    "\"coalescing\"",
    "\"slo\"",
    "\"live\"",
    "\"shard_generations\"",
    "\"release_epochs\"",
    "\"registry\"",
];

/// Fields the serving `live` block must carry: the operational-journal
/// counts and whether the endpoint was probed (the bit-exact ledger
/// verdict is checked separately).
const REQUIRED_SERVE_LIVE_KEYS: [&str; 5] = [
    "\"journal_emitted\"",
    "\"journal_dropped\"",
    "\"hot_swap_events\"",
    "\"release_published_events\"",
    "\"introspect_probed\"",
];

/// Per-phase latency/throughput fields (exact nearest-rank quantiles).
const REQUIRED_SERVE_LATENCY_KEYS: [&str; 4] =
    ["\"qps\"", "\"p50_ns\"", "\"p99_ns\"", "\"max_ns\""];

/// Coalescing-efficiency fields from the daemon's per-shard counters.
const REQUIRED_SERVE_COALESCING_KEYS: [&str; 4] =
    ["\"admissions\"", "\"coalesced_queries\"", "\"mean_ride\"", "\"coalesced_fraction\""];

/// Fields the serving `privacy` block must carry: the accountant's
/// spent ε and its release count (checked against `release_epochs`).
const REQUIRED_SERVE_PRIVACY_KEYS: [&str; 2] =
    ["\"accountant_epsilon\"", "\"accountant_releases\""];

/// Top-level keys every scale artifact must carry.
const REQUIRED_SCALE_KEYS: [&str; 8] = [
    "\"points\"",
    "\"simd\"",
    "\"value_kind\"",
    "\"chunk_rows\"",
    "\"threads\"",
    "\"epsilon\"",
    "\"measure\"",
    "\"memory\"",
];

/// Per-sweep-point fields: the build timings, the mapped-serving
/// latency quantiles, and the artifact sizes that prove the builds
/// actually streamed to disk.
const REQUIRED_SCALE_POINT_KEYS: [&str; 9] = [
    "\"users\"",
    "\"social_edges\"",
    "\"sim_entries\"",
    "\"simmass_entries\"",
    "\"sim_artifact_bytes\"",
    "\"simmass_artifact_bytes\"",
    "\"sim_build_ms\"",
    "\"simmass_build_ms\"",
    "\"query_p99_ns\"",
];

/// Top-level keys every streaming-update artifact must carry.
const REQUIRED_UPDATE_KEYS: [&str; 14] = [
    "\"rounds\"",
    "\"incremental_total_ms\"",
    "\"full_rebuild_total_ms\"",
    "\"slo\"",
    "\"serve\"",
    "\"privacy\"",
    "\"simd\"",
    "\"registry\"",
    "\"memory\"",
    "\"clients\"",
    "\"shards\"",
    "\"threads\"",
    "\"users\"",
    "\"drift_threshold\"",
];

/// Per-churn-round fields: both timings plus the dirty-set sizes that
/// prove the refresh was actually incremental.
const REQUIRED_UPDATE_ROUND_KEYS: [&str; 6] = [
    "\"incremental_ms\"",
    "\"full_rebuild_ms\"",
    "\"sim_dirty_rows\"",
    "\"index_dirty_rows\"",
    "\"moved_users\"",
    "\"restarted\"",
];

/// Hot-swap-under-load fields: served latency during the refresh window
/// and the epoch/generation evidence that the publish was rebuild-free.
const REQUIRED_UPDATE_SERVE_KEYS: [&str; 5] = [
    "\"p99_ns\"",
    "\"refresh_under_load_ms\"",
    "\"release_epochs\"",
    "\"pre_swap_generation\"",
    "\"post_swap_generation\"",
];

/// Privacy fields: the enforced budget, the accountant's spend (its
/// release count is checked against the rounds and epochs), and both
/// captured refusal errors.
const REQUIRED_UPDATE_PRIVACY_KEYS: [&str; 5] = [
    "\"epsilon_per_release\"",
    "\"accountant_epsilon\"",
    "\"accountant_releases\"",
    "\"refusal_schedule\"",
    "\"refusal_accountant\"",
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
    if !body.trim_start().starts_with('{') {
        return Err("not a JSON object".to_string());
    }
    if !body.contains("\"equivalence_checked\": true") {
        return Err("equivalence_checked is not true — the bench must assert \
             bit-identity against the reference path at run time"
            .to_string());
    }
    if body.contains("\"bench\": \"pipeline\"") {
        validate_pipeline(body).map(|()| "pipeline")
    } else if body.contains("\"bench\": \"serve\"") {
        validate_serve(body).map(|()| "serve")
    } else if body.contains("\"bench\": \"scale\"") {
        validate_scale(body).map(|()| "scale")
    } else if body.contains("\"bench\": \"update\"") {
        validate_update(body).map(|()| "update")
    } else {
        Err("missing `\"bench\": \"pipeline\"`, `\"bench\": \"serve\"`, \
             `\"bench\": \"scale\"`, or `\"bench\": \"update\"` marker"
            .to_string())
    }
}

fn validate_update(body: &str) -> Result<(), String> {
    for key in REQUIRED_UPDATE_KEYS {
        if !body.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    for key in REQUIRED_UPDATE_ROUND_KEYS {
        if !body.contains(key) {
            return Err(format!("missing churn-round field {key}"));
        }
    }
    for key in REQUIRED_UPDATE_SERVE_KEYS {
        if !body.contains(key) {
            return Err(format!("missing serve field {key}"));
        }
    }
    for key in REQUIRED_UPDATE_PRIVACY_KEYS {
        if !body.contains(key) {
            return Err(format!("missing privacy field {key}"));
        }
    }
    for key in REQUIRED_SIMD_INFO_KEYS {
        if !body.contains(key) {
            return Err(format!("missing simd field {key}"));
        }
    }
    // One accountant release per churn round and per published
    // generation, and no other.
    let count = |key: &str| number_after(body, key).ok_or_else(|| format!("{key} is not a count"));
    let (releases, rounds, epochs) = (
        count("\"accountant_releases\": ")?,
        count("\"num_rounds\": ")?,
        count("\"release_epochs\": ")?,
    );
    if releases != rounds + epochs {
        return Err(format!(
            "privacy.accountant_releases is {releases}, but the run made {rounds} refreshes \
             and published {epochs} generations"
        ));
    }
    // The refreshed artifacts (similarity rows, index rows, noisy
    // release) must have been asserted bit-identical to the full
    // rebuild at run time, on top of the global equivalence flag.
    if !body.contains("\"releases_bit_identical\": true") {
        return Err("releases_bit_identical is not true — the refreshed release must \
             be asserted bitwise equal to the full rebuild at run time"
            .to_string());
    }
    if !body.contains("\"refresh_speedup\"") {
        return Err("missing slo field \"refresh_speedup\"".to_string());
    }
    // The SLO wire-through: when the bench declared its speedup gate
    // bound (non-smoke), the artifact must also record that the >= 5x
    // incremental-refresh target was met.
    if body.contains("\"speedup_gate_bound\": true") && !body.contains("\"met\": true") {
        return Err("speedup gate was bound but the >= 5x refresh SLO was not met".to_string());
    }
    Ok(())
}

fn validate_scale(body: &str) -> Result<(), String> {
    for key in REQUIRED_SCALE_KEYS {
        if !body.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    for key in REQUIRED_SCALE_POINT_KEYS {
        if !body.contains(key) {
            return Err(format!("missing sweep-point field {key}"));
        }
    }
    for key in REQUIRED_SIMD_INFO_KEYS {
        if !body.contains(key) {
            return Err(format!("missing simd field {key}"));
        }
    }
    // The memory gauge is the whole point of the sweep: at least one
    // point must carry a real sample (a Linux runner produced it), or
    // the artifact must mark every sample null (non-Linux) — but the
    // per-point key itself may never disappear.
    if !body.contains("\"anon_bytes\"") && !body.contains("\"memory\": null") {
        return Err("no memory sample and no explicit null — the RSS gauge was dropped".to_string());
    }
    Ok(())
}

fn validate_pipeline(body: &str) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !body.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    for stage in REQUIRED_STAGES {
        if !body.contains(&format!("\"stage\": \"{stage}\"")) {
            return Err(format!("missing gated stage entry for {stage:?}"));
        }
    }
    validate_serve_metrics(body)?;
    for key in REQUIRED_SIMD_INFO_KEYS.iter().chain(&REQUIRED_SIMD_KERNEL_KEYS) {
        if !body.contains(key) {
            return Err(format!("missing simd field {key}"));
        }
    }
    // The SIMD wire-through: when the bench declared its kernel gate
    // bound (AVX2 active, non-smoke), the artifact must also record a
    // measured kernel-level speedup over the scalar-forced baseline.
    if body.contains("\"gate_bound\": true") && !body.contains("\"gate_met\": true") {
        return Err(
            "simd gate was bound but no kernel-level speedup over scalar was met".to_string()
        );
    }
    // `tune` is null unless the run passed `--tune`; when present, the
    // sweep grid and winner must be complete.
    if !body.contains("\"tune\": null") {
        for key in REQUIRED_TUNE_KEYS {
            if !body.contains(key) {
                return Err(format!("missing tune field {key}"));
            }
        }
    }
    for key in REQUIRED_HOTSPOT_KEYS {
        if !body.contains(key) {
            return Err(format!("missing hotspots field {key}"));
        }
    }
    Ok(())
}

/// The pipeline's `serve_metrics` registry: its fields, and per-shard
/// query counters that sum to the user count (the recommend stage
/// serves every user exactly once).
fn validate_serve_metrics(body: &str) -> Result<(), String> {
    let block = object_after(body, "\"serve_metrics\": ")
        .ok_or("serve_metrics is not an object".to_string())?;
    for key in REQUIRED_METRICS_KEYS {
        if !block.contains(key) {
            return Err(format!("missing serve_metrics field {key}"));
        }
    }
    let users = number_after(body, "\"users\": ").ok_or("missing \"users\" count".to_string())?;
    let queries: u64 = block
        .split("[\"serve.shard")
        .skip(1)
        .filter_map(|rest| {
            let digits = rest.find(|c: char| !c.is_ascii_digit())?;
            number_after(rest[digits..].strip_prefix(".queries\", ")?, "")
        })
        .sum();
    if queries != users {
        return Err(format!(
            "serve_metrics counts {queries} serve.shard*.queries but the run has {users} users"
        ));
    }
    Ok(())
}

/// The `{...}` object that follows the first `key` in `body`.
fn object_after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(key)? + key.len();
    let rest = body[start..].strip_prefix('{')?;
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return Some(&rest[..i]),
            '}' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// The unsigned integer that follows the first `key` in `body`.
fn number_after(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn validate_serve(body: &str) -> Result<(), String> {
    for key in REQUIRED_SERVE_KEYS {
        if !body.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    for mode in REQUIRED_SERVE_MODES {
        if !body.contains(&format!("\"mode\": \"{mode}\"")) {
            return Err(format!("missing load phase entry for {mode:?}"));
        }
    }
    for key in REQUIRED_SERVE_LATENCY_KEYS {
        if !body.contains(key) {
            return Err(format!("missing load-phase latency field {key}"));
        }
    }
    for key in REQUIRED_SERVE_COALESCING_KEYS {
        if !body.contains(key) {
            return Err(format!("missing coalescing field {key}"));
        }
    }
    for key in REQUIRED_SERVE_PRIVACY_KEYS {
        if !body.contains(key) {
            return Err(format!("missing privacy field {key}"));
        }
    }
    // Each published generation is exactly one accountant release.
    let releases = number_after(body, "\"accountant_releases\": ");
    let epochs = number_after(body, "\"release_epochs\": ");
    if releases.is_none() || releases != epochs {
        return Err(format!(
            "privacy.accountant_releases ({releases:?}) must equal release_epochs ({epochs:?})"
        ));
    }
    for key in REQUIRED_SERVE_LIVE_KEYS {
        if !body.contains(key) {
            return Err(format!("missing live field {key}"));
        }
    }
    // The run-time check behind this flag (`/ledger` carries the
    // accountant's ε bit for bit) must have passed — a bench that stops
    // asserting it fails here, not silently.
    if !body.contains("\"ledger_bits_match\": true") {
        return Err("live.ledger_bits_match is not true — the /ledger rendering must be \
             asserted bit-identical to the accountant at run time"
            .to_string());
    }
    for key in REQUIRED_SIMD_INFO_KEYS {
        if !body.contains(key) {
            return Err(format!("missing simd field {key}"));
        }
    }
    if !body.contains("serve.shard0.generation") {
        return Err("missing per-shard generation stamps in the registry block".to_string());
    }
    if !body.contains("\"coalescing_speedup\"") {
        return Err("missing slo field \"coalescing_speedup\"".to_string());
    }
    // The SLO wire-through: when the bench declared its speedup gate
    // bound (enough cores and clients, non-smoke), the artifact must
    // also record that the >= 3x target was met.
    if body.contains("\"speedup_gate_bound\": true") && !body.contains("\"met\": true") {
        return Err("speedup gate was bound but the >= 3x coalescing SLO was not met".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `simd` dispatch record shared by the serve/scale fixtures.
    fn simd_info_block() -> &'static str {
        "\"simd\": { \"detected\": \"avx2\", \"active\": \"avx2\", \"requested\": null }"
    }

    fn valid_body() -> String {
        let stages: String = REQUIRED_STAGES
            .iter()
            .map(|s| format!("    {{ \"stage\": \"{s}\", \"speedup\": 1.0 }},\n"))
            .collect();
        let metrics = "    \"counters\": [\n      [\"serve.refused\", 0],\n      \
                       [\"serve.shard0.kernel_blocks\", 1],\n      \
                       [\"serve.shard0.queries\", 6],\n      \
                       [\"serve.shard1.queries\", 4]\n    ],\n    \
                       \"gauges\": [],\n    \"histograms\": []\n";
        format!(
            "{{\n  \"bench\": \"pipeline\",\n  \"threads\": 1,\n  \"users\": 10,\n  \
             \"items\": 20,\n  \"stages\": [\n{stages}  ],\n  \
             \"end_to_end_speedup\": 1.0,\n  \"equivalence_checked\": true,\n  \
             \"serve_metrics\": {{\n{metrics}  }},\n  \
             \"simd\": {{\n    \"detected\": \"avx2\",\n    \"active\": \"avx2\",\n    \
             \"requested\": null,\n    \"kernels\": [\n      {{ \"kernel\": \"recommend-axpy\", \
             \"scalar_ms\": 2.0, \"simd_ms\": 1.0, \"speedup\": 2.0 }}\n    ],\n    \
             \"gate_bound\": true,\n    \"gate_met\": true\n  }},\n  \
             \"tune\": {{\n    \"grid\": [\n      {{ \"item_tile\": 512, \
             \"user_block\": 8, \"ms\": 1.0 }}\n    ],\n    \"best_item_tile\": 512,\n    \
             \"best_user_block\": 8,\n    \"best_ms\": 1.0,\n    \
             \"default_item_tile\": 512,\n    \"default_user_block\": 8\n  }},\n  \
             \"hotspots\": [\n    {{ \"span\": \"sim.build\", \"count\": 1, \
             \"total_ms\": 3.0, \"mean_us\": 10.0, \"p99_us\": 20.0, \"max_us\": 30.0, \
             \"depth\": 0 }}\n  ],\n  \"memory\": null\n}}\n"
        )
    }

    fn valid_serve_body() -> String {
        let phase = |mode: &str| {
            format!(
                "{{ \"mode\": \"{mode}\", \"queries\": 96, \"qps\": 100.0, \
                 \"p50_ns\": 1000, \"p99_ns\": 2000, \"max_ns\": 3000 }}"
            )
        };
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"threads\": 1,\n  \"cores\": 8,\n  \
             \"clients\": 4,\n  \"shards\": 4,\n  \"users\": 10,\n  \"items\": 20,\n  \
             \"closed\": {},\n  \"uncoalesced\": {},\n  \"open\": {},\n  \
             \"coalescing\": {{ \"queries\": 96, \"admissions\": 40, \
             \"coalesced_queries\": 70, \"mean_ride\": 2.4, \"coalesced_fraction\": 0.73 }},\n  \
             \"slo\": {{ \"coalescing_speedup\": 3.5, \"speedup_gate_bound\": true, \
             \"met\": true }},\n  \
             \"live\": {{ \"journal_emitted\": 9, \"journal_dropped\": 0, \
             \"hot_swap_events\": 4, \"release_published_events\": 2, \
             \"introspect_probed\": true, \"ledger_bits_match\": true }},\n  \
             \"release_epochs\": 2,\n  \"shard_generations\": [7, 7, 7, 7],\n  \
             \"equivalence_checked\": true,\n  \
             \"privacy\": {{ \"accountant_epsilon\": 1.0, \"accountant_releases\": 2 }},\n  \
             {},\n  \
             \"registry\": {{ \"gauges\": [[\"serve.shard0.generation\", 7]] }},\n  \
             \"memory\": null\n}}\n",
            phase("closed"),
            phase("uncoalesced"),
            phase("open"),
            simd_info_block(),
        )
    }

    fn valid_scale_body() -> String {
        let point: String =
            REQUIRED_SCALE_POINT_KEYS.iter().map(|k| format!("      {k}: 1,\n")).collect();
        format!(
            "{{\n  \"bench\": \"scale\",\n  \"epsilon\": \"0.5\",\n  \"measure\": \"CN\",\n  \
             \"value_kind\": \"f32\",\n  \"chunk_rows\": 0,\n  \"threads\": 1,\n  \
             \"points\": [\n    {{\n{point}      \"memory\": {{ \"rss_bytes\": 1, \
             \"peak_rss_bytes\": 2, \"anon_bytes\": 1 }}\n    }}\n  ],\n  \
             \"equivalence_checked\": true,\n  {},\n  \"memory\": null\n}}\n",
            simd_info_block()
        )
    }

    fn valid_update_body() -> String {
        let round: String =
            REQUIRED_UPDATE_ROUND_KEYS.iter().map(|k| format!("      {k}: 1,\n")).collect();
        let privacy: String = REQUIRED_UPDATE_PRIVACY_KEYS
            .iter()
            .map(|k| format!("    {k}: {},\n", if *k == "\"accountant_releases\"" { 3 } else { 1 }))
            .collect();
        format!(
            "{{\n  \"bench\": \"update\",\n  \"threads\": 1,\n  \"clients\": 2,\n  \
             \"shards\": 4,\n  \"users\": 10,\n  \"items\": 20,\n  \
             \"drift_threshold\": 0.02,\n  \"num_rounds\": 1,\n  \
             \"rounds\": [\n    {{\n{round}      \"speedup\": 8.0\n    }}\n  ],\n  \
             \"incremental_total_ms\": 1.0,\n  \"full_rebuild_total_ms\": 8.0,\n  \
             \"slo\": {{ \"refresh_speedup\": 8.0, \"speedup_gate_bound\": true, \
             \"met\": true }},\n  \
             \"serve\": {{ \"queries\": 96, \"qps\": 100.0, \"p50_ns\": 1000, \
             \"p99_ns\": 2000, \"max_ns\": 3000, \"refresh_under_load_ms\": 5.0, \
             \"release_epochs\": 2, \"pre_swap_generation\": 7, \
             \"post_swap_generation\": 8 }},\n  \
             \"privacy\": {{\n{privacy}  }},\n  \
             \"equivalence_checked\": true,\n  \"releases_bit_identical\": true,\n  \
             {},\n  \
             \"registry\": {{ \"gauges\": [[\"serve.shard0.generation\", 8]] }},\n  \
             \"memory\": null\n}}\n",
            simd_info_block(),
        )
    }

    #[test]
    fn accepts_complete_artifacts() {
        assert_eq!(validate(&valid_body()).unwrap(), "pipeline");
        assert_eq!(validate(&valid_serve_body()).unwrap(), "serve");
        assert_eq!(validate(&valid_scale_body()).unwrap(), "scale");
        assert_eq!(validate(&valid_update_body()).unwrap(), "update");
    }

    #[test]
    fn rejects_thinned_update_artifacts() {
        let no_rounds = valid_update_body().replace("\"incremental_ms\"", "\"ms\"");
        assert!(validate(&no_rounds).unwrap_err().contains("incremental_ms"));
        let no_dirty = valid_update_body().replace("\"sim_dirty_rows\"", "\"rows\"");
        assert!(validate(&no_dirty).unwrap_err().contains("sim_dirty_rows"));
        let no_epochs = valid_update_body().replace("\"release_epochs\"", "\"epochs\"");
        assert!(validate(&no_epochs).unwrap_err().contains("release_epochs"));
        let no_refusal = valid_update_body().replace("\"refusal_schedule\"", "\"r\"");
        assert!(validate(&no_refusal).unwrap_err().contains("refusal_schedule"));
        let no_spend = valid_update_body().replace("\"accountant_epsilon\"", "\"ae\"");
        assert!(validate(&no_spend).unwrap_err().contains("accountant_epsilon"));
        // A release the accountant never approved (or one it approved
        // and the run never served) contradicts the artifact.
        let unaccounted =
            valid_update_body().replace("\"accountant_releases\": 3", "\"accountant_releases\": 4");
        assert!(validate(&unaccounted).unwrap_err().contains("accountant_releases is 4"));
        let no_bits = valid_update_body()
            .replace("\"releases_bit_identical\": true", "\"releases_bit_identical\": false");
        assert!(validate(&no_bits).unwrap_err().contains("releases_bit_identical"));
        // Bound-but-unmet refresh SLO: the artifact contradicts itself.
        let unmet = valid_update_body().replace("\"met\": true", "\"met\": false");
        assert!(validate(&unmet).unwrap_err().contains("refresh SLO"));
        let unbound =
            unmet.replace("\"speedup_gate_bound\": true", "\"speedup_gate_bound\": false");
        assert_eq!(validate(&unbound).unwrap(), "update");
    }

    #[test]
    fn rejects_thinned_scale_artifacts() {
        let no_p99 = valid_scale_body().replace("\"query_p99_ns\"", "\"pXX\"");
        assert!(validate(&no_p99).unwrap_err().contains("query_p99_ns"));
        let no_bytes = valid_scale_body().replace("\"sim_artifact_bytes\"", "\"b\"");
        assert!(validate(&no_bytes).unwrap_err().contains("sim_artifact_bytes"));
        let no_kind = valid_scale_body().replace("\"value_kind\"", "\"vk\"");
        assert!(validate(&no_kind).unwrap_err().contains("value_kind"));
        // Drop both the real sample and the explicit nulls: the gauge
        // is gone and validation must say so.
        let no_memory = valid_scale_body()
            .replace("\"anon_bytes\"", "\"a\"")
            .replace("\"memory\": null", "\"memory\": 0");
        assert!(validate(&no_memory).unwrap_err().contains("RSS gauge"));
    }

    #[test]
    fn pipeline_serve_metrics_must_serve_every_user_once() {
        let short =
            valid_body().replace("[\"serve.shard1.queries\", 4]", "[\"serve.shard1.queries\", 3]");
        assert!(validate(&short).unwrap_err().contains("9 serve.shard*.queries"));
        let no_hist = valid_body().replace("\"histograms\"", "\"h\"");
        assert!(validate(&no_hist).unwrap_err().contains("histograms"));
        let flat = valid_body().replace("\"serve_metrics\": {", "\"serve_metrics\": [");
        assert!(validate(&flat).unwrap_err().contains("not an object"));
    }

    #[test]
    fn rejects_missing_stage_or_marker() {
        let no_recommend = valid_body().replace("\"stage\": \"recommend\"", "\"stage\": \"x\"");
        assert!(validate(&no_recommend).unwrap_err().contains("recommend"));
        let no_equiv = valid_body().replace("\"equivalence_checked\": true", "");
        assert!(validate(&no_equiv).unwrap_err().contains("equivalence_checked"));
        let no_marker = valid_body().replace("\"bench\": \"pipeline\"", "\"bench\": \"x\"");
        assert!(validate(&no_marker).unwrap_err().contains("marker"));
        assert!(validate("[]").unwrap_err().contains("JSON object"));
    }

    #[test]
    fn rejects_thinned_serve_artifacts() {
        // A pipeline body relabeled as serve lacks every serving field.
        let relabeled = valid_body().replace("\"bench\": \"pipeline\"", "\"bench\": \"serve\"");
        assert!(validate(&relabeled).is_err());

        let no_p99 = valid_serve_body().replace("\"p99_ns\"", "\"pXX_ns\"");
        assert!(validate(&no_p99).unwrap_err().contains("p99_ns"));
        let no_open = valid_serve_body().replace("\"mode\": \"open\"", "\"mode\": \"x\"");
        assert!(validate(&no_open).unwrap_err().contains("open"));
        let no_ride = valid_serve_body().replace("\"mean_ride\"", "\"ride\"");
        assert!(validate(&no_ride).unwrap_err().contains("mean_ride"));
        let no_stamp = valid_serve_body().replace("serve.shard0.generation", "serve.shard0.gen");
        assert!(validate(&no_stamp).unwrap_err().contains("generation stamps"));
        let no_spend = valid_serve_body().replace("\"accountant_epsilon\"", "\"ae\"");
        assert!(validate(&no_spend).unwrap_err().contains("accountant_epsilon"));
        // Every published generation is one accountant release.
        let unaccounted =
            valid_serve_body().replace("\"accountant_releases\": 2", "\"accountant_releases\": 1");
        assert!(validate(&unaccounted).unwrap_err().contains("must equal release_epochs"));
        let no_count = valid_serve_body()
            .replace("\"accountant_releases\": 2", "\"accountant_releases\": null");
        assert!(validate(&no_count).unwrap_err().contains("must equal release_epochs"));
    }

    #[test]
    fn rejects_thinned_or_failed_live_blocks() {
        let no_journal = valid_serve_body().replace("\"journal_emitted\"", "\"je\"");
        assert!(validate(&no_journal).unwrap_err().contains("journal_emitted"));
        let no_swaps = valid_serve_body().replace("\"hot_swap_events\"", "\"hse\"");
        assert!(validate(&no_swaps).unwrap_err().contains("hot_swap_events"));
        let no_probe = valid_serve_body().replace("\"introspect_probed\"", "\"ip\"");
        assert!(validate(&no_probe).unwrap_err().contains("introspect_probed"));
        // A run whose /ledger drifted from the accountant is a
        // self-contradiction the artifact may not carry.
        let drifted = valid_serve_body()
            .replace("\"ledger_bits_match\": true", "\"ledger_bits_match\": false");
        assert!(validate(&drifted).unwrap_err().contains("ledger_bits_match"));
    }

    #[test]
    fn rejects_thinned_simd_tune_or_hotspot_blocks() {
        let no_simd = valid_body().replace("\"kernels\"", "\"ks\"");
        assert!(validate(&no_simd).unwrap_err().contains("kernels"));
        let no_gate = valid_body().replace("\"gate_bound\"", "\"gb\"");
        assert!(validate(&no_gate).unwrap_err().contains("gate_bound"));
        let no_grid = valid_body().replace("\"grid\"", "\"g\"");
        assert!(validate(&no_grid).unwrap_err().contains("grid"));
        let no_best = valid_body().replace("\"best_item_tile\"", "\"bit\"");
        assert!(validate(&no_best).unwrap_err().contains("best_item_tile"));
        let no_span = valid_body().replace("\"span\"", "\"s\"");
        assert!(validate(&no_span).unwrap_err().contains("span"));
        let serve_no_simd = valid_serve_body().replace("\"detected\"", "\"d\"");
        assert!(validate(&serve_no_simd).unwrap_err().contains("detected"));
        let scale_no_simd = valid_scale_body().replace("\"active\"", "\"a\"");
        assert!(validate(&scale_no_simd).unwrap_err().contains("active"));
    }

    #[test]
    fn accepts_untuned_pipeline_but_rejects_bound_unmet_simd_gate() {
        // A run without `--tune` writes `"tune": null` — still valid.
        let body = valid_body();
        let at = body.find("\"tune\": {").unwrap();
        let end_marker = "\"default_user_block\": 8\n  },";
        let end = body.find(end_marker).unwrap() + end_marker.len();
        let untuned = format!("{}\"tune\": null,{}", &body[..at], &body[end..]);
        assert_eq!(validate(&untuned).unwrap(), "pipeline");

        // Bound-but-unmet SIMD gate: the artifact contradicts itself.
        let unmet = valid_body().replace("\"gate_met\": true", "\"gate_met\": false");
        assert!(validate(&unmet).unwrap_err().contains("simd gate"));
        // An unbound gate (scalar override, non-AVX2 box) is fine.
        let unbound = unmet.replace("\"gate_bound\": true", "\"gate_bound\": false");
        assert_eq!(validate(&unbound).unwrap(), "pipeline");
    }

    #[test]
    fn rejects_bound_but_unmet_speedup_slo() {
        let unmet = valid_serve_body().replace("\"met\": true", "\"met\": false");
        assert!(validate(&unmet).unwrap_err().contains("SLO was not met"));
        // An unbound gate (e.g. a 1-core runner) is fine either way.
        let unbound =
            unmet.replace("\"speedup_gate_bound\": true", "\"speedup_gate_bound\": false");
        assert_eq!(validate(&unbound).unwrap(), "serve");
    }

    #[test]
    fn validates_file_via_args() {
        let dir = std::env::temp_dir().join("socialrec-validate-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in [
            ("BENCH_pipeline.json", valid_body()),
            ("BENCH_serve.json", valid_serve_body()),
            ("BENCH_update.json", valid_update_body()),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let spec = format!("--path {}", path.display());
            run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
            std::fs::remove_file(&path).ok();
        }
    }
}
