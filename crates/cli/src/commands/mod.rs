//! Subcommand implementations. Every command is a plain function
//! `run(&Args) -> Result<(), String>` so tests can drive them directly.

pub mod attack;
pub mod bench;
pub mod cluster;
pub mod evaluate;
pub mod generate;
pub mod pipeline_bench;
pub mod recommend;
pub mod scale_bench;
pub mod serve_bench;
pub mod stats;
pub mod trace;
pub mod update_bench;
pub mod validate_bench;
pub mod validate_metrics;
pub mod validate_trace;

mod io;

pub use io::load_dataset;

/// The `socialrec help` text.
pub const HELP: &str = "\
socialrec — privacy-preserving personalized social recommendations
(Jorgensen & Yu, EDBT 2014)

USAGE: socialrec <command> [--flag value]...
(a flag the command does not list below is an error)

COMMANDS
  generate   Write a synthetic dataset to --out-dir as social.tsv/prefs.tsv
               --kind lastfm|flixster  --scale F  --seed N  --out-dir DIR
  stats      Print Table-1 style dataset statistics
               --social FILE  --prefs FILE
  cluster    Louvain-cluster the social graph, write user→cluster TSV
               --social FILE  --out FILE  [--restarts N] [--seed N]
               [--no-refine] [--min-size N (merge smaller clusters)]
               [--trace OUT.json]
  recommend  Produce epsilon-DP top-N lists
               --social FILE  --prefs FILE  --epsilon E  [--measure CN]
               [--n 10] [--users 0,1,2 | all] [--seed N] [--clusters FILE]
               [--trace OUT.json]
  evaluate   NDCG@N of a private mechanism vs the exact recommender
               --social FILE  --prefs FILE  [--measure CN]
               [--mechanism framework|nou|noe] [--epsilons inf,1.0,0.1]
               [--n 50] [--runs 3] [--seed N] [--streaming (framework
               only; avoids the similarity cache for huge graphs)]
  attack     Sybil-attack leakage estimate (paper §2.3)
               --social FILE  --prefs FILE  --victim U  --item I
               --epsilon E  [--trials 2000] [--measure CN]
  serve-bench  Closed+open-loop load generator for the sharded,
               coalescing serving daemon: Zipf user popularity,
               Poisson arrivals, a hot swap under live load, exact
               p50/p99 and coalescing-efficiency stats
               [--scale 0.15] [--seed 7] [--epsilon 0.5] [--n 10]
               [--clients 4] [--requests 400] [--shards 4]
               [--zipf-s 1.0] [--open-rate QPS (0 = half the measured
               closed-loop throughput)] [--measure CN]
               [--out BENCH_serve.json]
               [--smoke (tiny scale, no speedup gate)]
               [--introspect PORT (0 = ephemeral; serve /metrics,
               /health, /ledger (the run's accountant), /events on
               127.0.0.1 and probe them under load)]
               [--introspect-out PREFIX (dump the mid-run + final
               /metrics scrapes and the /events journal tail to
               PREFIX.metrics.prev.txt / PREFIX.metrics.txt /
               PREFIX.events.jsonl for validate-metrics)]
               [--trace OUT.json]
  pipeline-bench  Offline pipeline: time the shipped path of
               sim-build -> cluster -> release -> recommend (served by
               the daemon) per stage, checking every user's daemon
               answer bit for bit against the framework
               [--scale 0.15] [--seed 7] [--epsilon 0.5] [--restarts 10]
               [--n 10] [--reps 2 (min-of-reps timing)] [--measure CN]
               [--out BENCH_pipeline.json]
               [--smoke (tiny scale, no SIMD gate)]
               [--trace OUT.json]
  scale-bench  Million-user data path: stream-build the sim-mass index
               from the social graph to an artifact in bounded memory,
               read it back (checksum verified), serve sampled queries
               off it, sweep users x {build time, open time, peak/anon
               RSS via the obs memory gauge, query p50/p99}, with
               sampled from-scratch row-equivalence checks
               [--users 1000000 (comma-separated sweep)]
               [--value-kind f32|f64] [--queries 2000] [--epsilon 0.5]
               [--n 10] [--seed 7] [--measure CN]
               [--dir DIR (artifact dir)] [--keep (retain artifacts)]
               [--out BENCH_scale.json]
               [--smoke (20k users)]
  update-bench  Streaming-update churn benchmark: Zipf edge deltas
               against a warm graph, incremental refresh (dirty-row
               similarity + worklist Louvain + index splice +
               accountant-approved re-release) timed against the
               equivalent full rebuild with bit-identity checks, a
               release hot-swapped into the sharded daemon under live
               load, and both budget-refusal paths
               [--scale 0.1] [--seed 7] [--epsilon 1.0] [--rounds 3]
               [--social-edges 8] [--pref-edges 8] [--restarts 3]
               [--drift 0.02] [--clients 4] [--requests 160]
               [--shards 4] [--zipf-s 1.0] [--n 10] [--measure CN]
               [--out BENCH_update.json]
               [--smoke (tiny scale, no speedup gate)]
               [--trace OUT.json]
  validate-bench  Parse a BENCH_pipeline.json, BENCH_serve.json,
               BENCH_scale.json, or BENCH_update.json artifact and
               check it against the typed schema its \"bench\" marker
               names: every field of every stage / load phase / sweep
               point / churn round, with its type;
               equivalence_checked == true; the accountant's release
               count; and every gate met whenever it was bound
               [--path BENCH_pipeline.json]
  validate-metrics  Check introspection scrape dumps: Prometheus
               exposition shape (socialrec_-prefixed names, declared
               types, finite values), histogram families (cumulative
               buckets, +Inf = _count, a shard query_ns histogram),
               counter and histogram monotonicity against an earlier
               scrape of the same process, and the journal tail's
               JSONL event schema
               --metrics FILE  [--previous FILE]  [--events FILE]
  validate-trace  Check a --trace Chrome trace artifact with the
               exporter self-check; optionally require span names
               --path trace.json  [--require sim.build,release]
  help       This message

TRACING: every command above with [--trace OUT.json] records
hierarchical spans (sim-build, Louvain levels/restarts, A_w release,
serving batches) and writes a Chrome trace-event file loadable at
ui.perfetto.dev or chrome://tracing.

MEASURES: CN, GD, AA, KZ (paper) and JC, SA, RA, HP, PA (extended).
EPSILON:  positive number or `inf`.
";
