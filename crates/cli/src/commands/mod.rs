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

mod io;

pub use io::load_dataset;

/// The `socialrec help` text.
pub const HELP: &str = "\
socialrec — privacy-preserving personalized social recommendations
(Jorgensen & Yu, EDBT 2014)

USAGE: socialrec <command> [--flag value | --switch]...
(a flag the command does not list below is an error, and so is a
switch given a value or a flag given none)

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
               coalescing serving daemon (4 clients, 4 shards, CN,
               N = 10, scale 0.15): Zipf user popularity, Poisson
               arrivals at half the closed-loop throughput, an
               accountant release published under live load, exact
               p50/p99 and coalescing-efficiency stats
               [--seed 7] [--epsilon 0.5] [--out BENCH_serve.json]
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
               the daemon) per stage, min of 2 reps, checking every
               user's daemon answer bit for bit against the framework
               (CN, ε = 0.5, 10 Louvain restarts, N = 10, scale 0.15)
               [--seed 7] [--out BENCH_pipeline.json]
               [--smoke (tiny scale, no SIMD gate)]
               [--trace OUT.json]
  scale-bench  Million-user data path: stream-build the sim-mass index
               from the social graph to an f64 artifact in bounded
               memory, read it back (checksum verified), serve sampled
               queries off it, sweep users x {build time, open time,
               peak/anon RSS via the obs memory gauge, query p50/p99},
               with sampled from-scratch bit-identity checks of its rows
               (CN, ε = 0.5, N = 10, 2000 queries per point)
               [--users 1000000 (comma-separated sweep)] [--seed 7]
               [--dir DIR (artifact dir)] [--keep (retain artifacts)]
               [--out BENCH_scale.json]
               [--smoke (20k users)]
  update-bench  Streaming-update churn benchmark: 3 rounds of Zipf
               edge deltas (8 social + 8 preference toggles) against a
               warm graph, incremental refresh (dirty-row similarity +
               worklist Louvain + index splice + accountant-approved
               re-release) timed against the equivalent full rebuild
               with bit-identity checks, and both budget-refusal paths
               (CN, ε = 1 over the rounds, scale 0.1)
               [--seed 7] [--out BENCH_update.json]
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
  help       This message

TRACING: every command above with [--trace OUT.json] records
hierarchical spans (sim-build, Louvain levels/restarts, A_w release,
serving batches) and writes a Chrome trace-event file loadable at
ui.perfetto.dev or chrome://tracing.

MEASURES: CN, GD, AA, KZ (paper) and JC, SA, RA, HP, PA (extended).
EPSILON:  positive number or `inf`.
";
