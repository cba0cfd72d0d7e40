//! `repobench`: the repository's benchmark.
//!
//! One command builds and runs a workload against the socialrec library
//! crates, checks its outputs, and prints every metric by name with its
//! unit. The last line of standard output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": 52113, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//! ```
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
//!     --workload offline-build|serve-skewed|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, timed with the tracer
//! disarmed. `--trace 1` arms the benchmark's own tracer ([`trace`]) and
//! reports the per-layer metrics instead; its spans are written to
//! `.bench_work/trace-<workload>.json` (Chrome trace format).
//! `BENCHMARK.json` at the repository root lists the workloads, why each
//! exists, and both metric sets.
//!
//! [`layers`] is the only module that calls into the library; [`load`]
//! makes the query load; [`offline`], [`serve`] and [`churn`] are the
//! workloads and [`common`] what they share; [`stats`] holds quantiles
//! and the report.

mod churn;
mod common;
mod layers;
mod load;
mod offline;
mod serve;
mod stats;
mod trace;

use stats::Report;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported by `--trace 0` runs, as `(name, unit)`;
/// `end_to_end` in BENCHMARK.json lists the same.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("build_s", "s"),
    ("batch_users_per_s", "1/s"),
    ("ndcg10", "ratio"),
    ("qps", "1/s"),
    ("freshness_p50_ms", "ms"),
    ("freshness_tail_ms", "ms"),
];

/// Per-layer metrics, reported by `--trace 1` runs; `per_layer` in
/// BENCHMARK.json lists the same.
const PER_LAYER: &[(&str, &str)] = &[
    ("similarity.build_ms", "ms"),
    ("similarity.entries", "count"),
    ("similarity.update_ms", "ms"),
    ("similarity.dirty_rows", "count"),
    ("community.louvain_ms", "ms"),
    ("community.modularity", "ratio"),
    ("community.refresh_ms", "ms"),
    ("community.moved_users", "count"),
    ("community.restart_ratio", "ratio"),
    ("dp.release_ms", "ms"),
    ("dp.epsilon_spent", "eps"),
    ("dp.refusals", "count"),
    ("graph.delta_apply_ms", "ms"),
    ("serve.index_build_ms", "ms"),
    ("serve.index_nnz", "count"),
    ("serve.artifact_open_ms", "ms"),
    ("serve.index_update_ms", "ms"),
    ("serve.index_dirty_rows", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.swap_lag_ms", "ms"),
    ("serve.release_epochs", "count"),
    ("serve.release_swaps", "count"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.admissions", "count"),
    ("serve.mean_ride", "ratio"),
    ("serve.coalesced_fraction", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.shard_skew", "ratio"),
    ("serve.admission_us_p50", "us"),
    ("serve.admission_us_p99", "us"),
    ("serve.kernel_us_per_user", "us"),
    ("serve.kernel_blocks", "count"),
    ("serve.kernel_bytes_per_user", "bytes"),
    ("core.topn_us_per_user", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.open_p90_us", "us"),
    ("loadgen.max_rate_qps", "1/s"),
    ("loadgen.lag_ms_max", "ms"),
];

/// Per-layer times taken from the spans: the metric, and the spans whose
/// self time it sums per unit of work (median over units).
const SPAN_METRICS: &[(&str, &[&str])] = &[
    ("similarity.build_ms", &["similarity.build"]),
    ("similarity.update_ms", &["similarity.dirty_rows", "similarity.update_rows"]),
    ("community.louvain_ms", &["community.louvain"]),
    ("community.refresh_ms", &["community.refresh"]),
    ("dp.release_ms", &["dp.release"]),
    ("graph.delta_apply_ms", &["graph.apply_social", "graph.apply_preferences"]),
    ("serve.index_build_ms", &["serve.index_build"]),
    ("serve.artifact_open_ms", &["serve.artifact_open"]),
    ("serve.index_update_ms", &["serve.dirty_index_rows", "serve.index_update_rows"]),
    ("serve.publish_ms", &["serve.publish"]),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfflineBuild,
    ServeSkewed,
    Churn,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "offline-build" => Ok(Workload::OfflineBuild),
            "serve-skewed" => Ok(Workload::ServeSkewed),
            "churn" => Ok(Workload::Churn),
            _ => Err(format!("unknown workload {s:?} (offline-build, serve-skewed, churn)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OfflineBuild => "offline-build",
            Workload::ServeSkewed => "serve-skewed",
            Workload::Churn => "churn",
        }
    }
}

/// The run's settings.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", context_line(&cfg));
    if cfg.trace {
        trace::arm();
    }
    let started = Instant::now();
    let mut report = Report::default();
    match cfg.workload {
        Workload::OfflineBuild => offline::run(&cfg, &mut report),
        Workload::ServeSkewed => serve::run(&cfg, &mut report),
        Workload::Churn => churn::run(&cfg, &mut report),
    }
    report.metric(
        "peak_rss_mib",
        layers::peak_rss_mib(),
        "MiB",
        "peak resident set (VmHWM) of the run",
    );
    if cfg.trace {
        span_metrics(&cfg, started, &mut report);
        report.emit(PER_LAYER);
    } else {
        report.emit(END_TO_END);
    }
    ExitCode::SUCCESS
}

/// The span-derived layer times, the self-time table and its check, and
/// the Chrome trace file.
fn span_metrics(cfg: &Config, started: Instant, report: &mut Report) {
    let spans = trace::take();
    let selfs = trace::self_ns(&spans);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let checked = trace::check_self_times(&spans, &selfs, wall_ns);
    report.check(checked.is_ok(), || checked.clone().unwrap_err());
    println!(
        "{:<26} {:>9} {:>12} {:>12}   (self times sum to at most the {:.1} s wall time per thread)",
        "span",
        "count",
        "total_ms",
        "self_ms",
        wall_ns as f64 / 1e9
    );
    for (name, (count, total, own)) in trace::layer_table(&spans, &selfs) {
        println!("{name:<26} {count:>9} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
    for &(metric, names) in SPAN_METRICS {
        let per_unit = trace::per_request_ms(&spans, &selfs, names);
        let note = if per_unit.is_empty() {
            "no such call in this workload".to_string()
        } else {
            format!("self time per unit of work, {}", stats::label(0.5, per_unit.len()))
        };
        report.metric(metric, per_unit.median(), "ms", note);
    }
    let written = common::work_dir().and_then(|dir| {
        let path = dir.join(format!("trace-{}.json", cfg.workload.name()));
        trace::write_chrome(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))
    });
    report.check(written.is_ok(), || written.clone().unwrap_err());
}

/// What the numbers depend on besides the code: the SIMD tier, thread
/// counts, the seed and scale, and the commit.
fn context_line(cfg: &Config) -> String {
    let (active, detected, requested) = layers::simd_tiers();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "context: workload={} seed={} seconds={} trace={} scale={} simd_active={active} \
         simd_detected={detected} simd_requested={requested} rayon_threads={} nproc={nproc} \
         commit={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        layers::SCALE,
        layers::rayon_threads(),
        git_commit(),
    )
}

/// The checked-out commit, read from `.git` without running git; `none`
/// where there is no `.git`.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| head.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the repobench directory");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + 3, "metrics plus three workloads");
    }

    #[test]
    fn flags_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let cfg = parse("--workload churn --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
            (Workload::Churn, 7, 2.5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload churn --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload churn --seconds").is_err());
    }
}
