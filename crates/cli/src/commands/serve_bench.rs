//! `socialrec serve-bench` — a closed+open-loop load generator for the
//! sharded, coalescing serving daemon.
//!
//! The generator drives [`ShardedServer`] the way production traffic
//! would: [`CLIENTS`] concurrent threads issue single-user queries with
//! Zipf-skewed user popularity on the published seed. Both generations
//! come from one accountant (`DynamicRecommender`); the first is
//! published before the run, the second is released and published
//! halfway through, so a hot swap happens under live load and clients
//! follow it (`publish_under_load_ms` times that draw and publish).
//! Three phases are measured, all driven by one client loop:
//!
//! 1. **Closed loop** — every client fires its next query the moment
//!    the previous answer returns. Concurrent singles coalesce in each
//!    shard's admission queue and ride the item-tiled kernel together.
//! 2. **Uncoalesced baseline** — the same workload with no admission
//!    queue: each query looks up the published release and runs the
//!    item-tiled kernel and top-N for its user alone, paying the full
//!    kernel walk per query. `closed_qps / uncoalesced_qps` is the
//!    coalescing speedup the acceptance gate binds on (only where the
//!    hardware can express concurrency: ≥ 4 cores and ≥ 4 clients,
//!    non-smoke).
//! 3. **Open loop** — Poisson arrivals at half the measured closed-loop
//!    throughput, with latency charged from the *scheduled* arrival
//!    instant, so queueing delay the closed loop structurally hides
//!    shows up in the p99.
//!
//! Latency quantiles are exact (nearest-rank over every per-query
//! sample), unlike the registry histograms' log₂-bucket bounds. The
//! run spot-checks all three serving paths bitwise against
//! `ClusterFramework::recommend` for both generations, asserts exactly
//! one epoch per publish (two, after every phase and the final sweep),
//! one accountant release per epoch (which `/ledger` must report bit
//! for bit), every shard on the second generation and no refused
//! query, and writes a `BENCH_serve.json`
//! artifact (throughput, exact p50/p99, coalescing efficiency,
//! per-shard generation stamps) whose shape — and SLO verdict — is
//! enforced by `socialrec validate-bench` in CI.

use crate::commands::bench::{elapsed_ns, ms, percentile_ns, same_bits, write_artifact, SimdInfo};
use crate::commands::trace::TraceSink;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::ClusterFramework;
use socialrec_core::{
    top_n_items, BudgetSchedule, DynamicRecommender, RecommenderInputs, TopN, TopNRecommender,
};
use socialrec_datasets::flixster_like;
use socialrec_dp::Epsilon;
use socialrec_experiments::{impl_to_json, Args};
use socialrec_graph::UserId;
use socialrec_obs::json::{self, Value};
use socialrec_serve::loadgen::{poisson_interarrival, Zipf};
use socialrec_serve::{kernel, ShardedServer, SimMassIndex};
use socialrec_similarity::{CommonNeighbors, Similarity, SimilarityMatrix};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Concurrent load clients in every phase.
const CLIENTS: usize = 4;

/// One load phase's roll-up. `p50_ns`/`p99_ns` are exact nearest-rank
/// quantiles over every per-query latency sample.
struct LoopStats {
    mode: String,
    queries: u64,
    elapsed_ms: f64,
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

impl_to_json!(LoopStats { mode, queries, elapsed_ms, qps, p50_ns, p99_ns, max_ns });

impl LoopStats {
    fn new(mode: &str, sorted_ns: &[u64], elapsed_ms: f64) -> LoopStats {
        LoopStats {
            mode: mode.to_string(),
            queries: sorted_ns.len() as u64,
            elapsed_ms,
            qps: sorted_ns.len() as f64 / (elapsed_ms / 1e3).max(1e-9),
            p50_ns: percentile_ns(sorted_ns, 0.50),
            p99_ns: percentile_ns(sorted_ns, 0.99),
            max_ns: sorted_ns.last().copied().unwrap_or(0),
        }
    }
}

/// Coalescing efficiency of the closed-loop phase, from the daemon's
/// per-shard counters: `mean_ride` = queries per admission batch,
/// `coalesced_fraction` = share of queries that shared their batch.
struct Coalescing {
    queries: u64,
    admissions: u64,
    coalesced_queries: u64,
    mean_ride: f64,
    coalesced_fraction: f64,
}

impl_to_json!(Coalescing { queries, admissions, coalesced_queries, mean_ride, coalesced_fraction });

/// The SLO verdict `validate-bench` enforces: when the gate binds
/// (enough cores and clients, non-smoke), `met` must be true.
struct Slo {
    coalescing_speedup: f64,
    speedup_gate_bound: bool,
    met: bool,
}

impl_to_json!(Slo { coalescing_speedup, speedup_gate_bound, met });

/// Operational roll-up of the whole run: the journal's counts, whether
/// the introspection endpoint was probed under load, and the bit-exact
/// `/ledger` verdict.
struct Live {
    journal_emitted: u64,
    journal_dropped: u64,
    hot_swap_events: u64,
    release_published_events: u64,
    introspect_probed: bool,
    ledger_bits_match: bool,
}

impl_to_json!(Live {
    journal_emitted,
    journal_dropped,
    hot_swap_events,
    release_published_events,
    introspect_probed,
    ledger_bits_match,
});

/// Privacy accounting, read from the run's accountant — the one record
/// of ε: its spent ε and its release count, which must equal the
/// exchange epoch (one approved release per published generation).
struct ServePrivacy {
    accountant_epsilon: f64,
    accountant_releases: usize,
}

impl_to_json!(ServePrivacy { accountant_epsilon, accountant_releases });

/// The `BENCH_serve.json` document.
struct Report {
    bench: String,
    dataset: String,
    scale: f64,
    seed: u64,
    epsilon: String,
    measure: String,
    top_n: usize,
    smoke: bool,
    threads: usize,
    cores: usize,
    clients: usize,
    requests_per_client: usize,
    shards: usize,
    zipf_s: f64,
    open_rate_qps: f64,
    users: usize,
    items: usize,
    clusters: usize,
    closed: LoopStats,
    uncoalesced: LoopStats,
    open: LoopStats,
    /// Drawing and publishing the second release while the closed
    /// loop runs.
    publish_under_load_ms: f64,
    coalescing: Coalescing,
    slo: Slo,
    live: Live,
    release_epochs: u64,
    shard_generations: Vec<u64>,
    equivalence_checked: bool,
    privacy: ServePrivacy,
    /// SIMD dispatch record: all serving-path kernels ran on `active`.
    simd: SimdInfo,
    registry: socialrec_obs::RegistrySnapshot,
    /// Process memory at the end of the run (`null` off Linux).
    memory: Option<socialrec_obs::MemorySample>,
}

impl_to_json!(Report {
    bench,
    dataset,
    scale,
    seed,
    epsilon,
    measure,
    top_n,
    smoke,
    threads,
    cores,
    clients,
    requests_per_client,
    shards,
    zipf_s,
    open_rate_qps,
    users,
    items,
    clusters,
    closed,
    uncoalesced,
    open,
    publish_under_load_ms,
    coalescing,
    slo,
    live,
    release_epochs,
    shard_generations,
    equivalence_checked,
    privacy,
    simd,
    registry,
    memory,
});

/// Drive one load phase: each of [`CLIENTS`] threads sends `requests`
/// Zipf-drawn queries on whatever seed `seed` holds at that moment.
/// Without a rate the loop is closed: a client sends its next query the
/// instant the previous answer returns. With `rate_qps` it is open:
/// arrivals follow a Poisson process at that aggregate rate (split
/// evenly across clients) and latency is charged from the *scheduled*
/// arrival instant, so when the daemon falls behind the offered rate
/// the backlog lands in the responses. Once half the queries are
/// answered, `mid_run` runs on the driving thread (a hot swap under
/// load: it publishes the next release, then moves `seed` to it with a
/// `Release` store). Returns every per-query latency in ns, sorted, and
/// the phase's wall-clock ms.
fn drive_load<F: Fn(UserId, u64) + Sync>(
    requests: usize,
    zipf: &Zipf,
    rng_seed: u64,
    rate_qps: Option<f64>,
    seed: &AtomicU64,
    mid_run: impl FnOnce(),
    serve: &F,
) -> (Vec<u64>, f64) {
    let per_client = rate_qps.map(|rate| (rate / CLIENTS as f64).max(1e-3));
    let answered = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let answered = &answered;
                s.spawn(move || {
                    // Deterministic, decorrelated across clients.
                    let client = (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut rng = SmallRng::seed_from_u64(rng_seed ^ client);
                    let mut lats = Vec::with_capacity(requests);
                    let mut t_next = 0.0f64;
                    for _ in 0..requests {
                        let due = per_client.map(|rate| {
                            t_next += poisson_interarrival(&mut rng, rate);
                            let due = t0 + Duration::from_secs_f64(t_next);
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                            due
                        });
                        // Acquire pairs with `mid_run`'s Release store: a
                        // client that reads the new seed sees its publish.
                        let qseed = seed.load(Ordering::Acquire);
                        let u = zipf.sample_user(&mut rng);
                        let start = due.unwrap_or_else(Instant::now);
                        serve(u, qseed);
                        lats.push(elapsed_ns(start));
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    lats
                })
            })
            .collect();
        while answered.load(Ordering::Relaxed) < CLIENTS * requests / 2
            && !handles.iter().all(|h| h.is_finished())
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        mid_run();
        handles.into_iter().flat_map(|h| h.join().expect("load client panicked")).collect()
    });
    lat.sort_unstable();
    (lat, ms(t0))
}

/// The uncoalesced single-query path: look up the published release,
/// then run the item-tiled kernel and top-N for one user alone.
fn serve_uncoalesced(
    daemon: &ShardedServer<'_>,
    index: &SimMassIndex,
    user: UserId,
    n: usize,
    seed: u64,
) -> TopN {
    let release = daemon
        .exchange()
        .get(daemon.generation_for(seed))
        .expect("the uncoalesced loop only asks for published seeds");
    let mut out = Vec::new();
    kernel::utilities_block_tiled(
        &release,
        index,
        std::slice::from_ref(&user),
        kernel::ITEM_TILE,
        &mut out,
    );
    TopN { user, items: top_n_items(&out, n) }
}

/// Bit-identity spot-check of every serving path — sharded batch,
/// coalesced single, uncoalesced single — against
/// `ClusterFramework::recommend`, for both published generations.
fn check_equivalence(
    fw: &ClusterFramework<'_>,
    daemon: &ShardedServer<'_>,
    index: &SimMassIndex,
    inputs: &RecommenderInputs<'_>,
    sample: &[UserId],
    n: usize,
    seeds: [u64; 2],
) -> Result<(), String> {
    for seed in seeds {
        let want = fw.recommend(inputs, sample, n, seed);
        let batch = daemon.recommend_batch(inputs, sample, n, seed);
        for (k, &u) in sample.iter().enumerate() {
            if !same_bits(&batch[k], &want[k]) {
                return Err(format!(
                    "sharded batch diverged from the framework for {u:?} (seed {seed})"
                ));
            }
            let one = daemon.recommend_one(inputs, u, n, seed);
            if !same_bits(&one, &want[k]) {
                return Err(format!(
                    "coalesced single diverged from the framework for {u:?} (seed {seed})"
                ));
            }
            let direct = serve_uncoalesced(daemon, index, u, n, seed);
            if !same_bits(&direct, &want[k]) {
                return Err(format!(
                    "uncoalesced single diverged from the framework for {u:?} (seed {seed})"
                ));
            }
        }
    }
    Ok(())
}

/// The `/metrics` family of shard 0's latency histogram: present from
/// the daemon's construction, so a mid-run scrape always carries it.
const SHARD_LATENCY_FAMILY: &str = "# TYPE socialrec_serve_shard0_query_ns histogram";

fn counter_sum(snap: &socialrec_obs::RegistrySnapshot, suffix: &str) -> u64 {
    snap.counters.iter().filter(|(n, _)| n.ends_with(suffix)).map(|(_, v)| *v).sum()
}

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let smoke = args.has_flag("smoke");
    let (scale, requests) = if smoke { (0.004, 24) } else { (0.15, 400) };
    let (clients, num_shards, zipf_s, n, measure) = (CLIENTS, 4, 1.0, 10, CommonNeighbors);
    let seed = args.get_u64("seed", 7);
    let epsilon: Epsilon = args.get_str("epsilon").unwrap_or("0.5").parse()?;
    let out_path = args.get_str("out").unwrap_or("BENCH_serve.json").to_string();
    let introspect_port: Option<u16> = match args.get_str("introspect") {
        Some(p) => Some(p.parse().map_err(|e| format!("--introspect {p}: {e}"))?),
        None => None,
    };
    let introspect_out = args.get_str("introspect-out").map(String::from);
    if introspect_out.is_some() && introspect_port.is_none() {
        return Err("--introspect-out requires --introspect".to_string());
    }
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let trace = TraceSink::init(args);
    // The journal is always armed for the bench: its hot-swap
    // assertions below are part of the run's self-checks.
    socialrec_obs::arm_live();
    socialrec_obs::Journal::global().reset();

    eprintln!("generating flixster_like(scale={scale}, seed={seed})...");
    let ds = flixster_like(scale, seed);
    let num_users = ds.social.num_users();
    eprintln!("  {} users, {} items, {threads} threads", num_users, ds.prefs.num_items());

    eprintln!("building {} similarity matrix...", measure.name());
    let sim = SimilarityMatrix::build(&ds.social, &measure);
    eprintln!("clustering (Louvain)...");
    let partition = LouvainStrategy { restarts: 3, seed, refine: true }.cluster(&ds.social);
    eprintln!("  {} clusters", partition.num_clusters());

    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let index = SimMassIndex::build(&sim, &partition);
    let daemon = ShardedServer::from_index(&partition, index.clone(), epsilon, num_shards);
    let fw = ClusterFramework::new(&partition, epsilon);
    let zipf = Zipf::new(num_users, zipf_s);
    let (seed_a, seed_b) = (seed, seed.wrapping_add(1));
    let gen_b = daemon.generation_for(seed_b);

    // One accountant planned for the run's two releases of ε each; the
    // first generation is published before any client starts.
    let total = match epsilon {
        Epsilon::Finite(e) => Epsilon::Finite(2.0 * e),
        Epsilon::Infinite => Epsilon::Infinite,
    };
    let mut accountant = DynamicRecommender::new(total, BudgetSchedule::Uniform { releases: 2 });
    let (eps_a, release_a) = accountant.release_averages(&partition, &ds.prefs, seed_a)?;
    if eps_a != epsilon {
        return Err(format!("accountant released at ε = {eps_a}, the daemon serves ε = {epsilon}"));
    }
    daemon.publish_release(seed_a, release_a);

    // The introspection endpoint (when requested) serves the daemon's
    // registry, the process-global journal, and the accountant as
    // `/ledger`.
    let introspect_cfg = socialrec_obs::IntrospectConfig {
        registry: daemon.registry_handle(),
        accountant: accountant.accountant_handle(),
    };
    let introspect = match introspect_port {
        Some(port) => {
            let srv = socialrec_obs::IntrospectionServer::start(port, introspect_cfg)
                .map_err(|e| format!("--introspect {port}: {e}"))?;
            eprintln!("introspection endpoint at http://{}/metrics", srv.addr());
            Some(srv)
        }
        None => None,
    };

    // Phase 1 — closed loop against the coalescing daemon; the second
    // release is drawn and published halfway through (hot swap under
    // load), and only then do clients move to its seed.
    eprintln!(
        "closed loop: {clients} clients x {requests} coalesced singles \
         ({} shards, publish mid-run)...",
        daemon.num_shards()
    );
    // While the closed loop runs, a probe thread scrapes `/metrics`
    // and `/health` so "the endpoint answers under load" is checked by
    // the run itself, not by an external harness.
    let probe = introspect.as_ref().map(|srv| {
        let addr = srv.addr();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            (socialrec_obs::http_get(addr, "/metrics"), socialrec_obs::http_get(addr, "/health"))
        })
    });
    let published = AtomicU64::new(seed_a);
    let mut publish_result = Ok(());
    let mut publish_under_load_ms = 0.0f64;
    let publish_b = || {
        let t = Instant::now();
        publish_result =
            accountant.release_averages(&partition, &ds.prefs, seed_b).map(|(_, release_b)| {
                daemon.publish_release(seed_b, release_b);
                published.store(seed_b, Ordering::Release);
            });
        publish_under_load_ms = ms(t);
    };
    let (lat, elapsed) =
        drive_load(requests, &zipf, seed_a, None, &published, publish_b, &|u, s| {
            daemon.recommend_one(&inputs, u, n, s);
        });
    publish_result?;
    let closed = LoopStats::new("closed", &lat, elapsed);

    let mut probe_metrics_body = String::new();
    if let Some(handle) = probe {
        let (metrics, health) = handle.join().expect("introspection probe panicked");
        match metrics {
            Ok((200, body)) if body.contains(SHARD_LATENCY_FAMILY) => probe_metrics_body = body,
            other => return Err(format!("mid-run /metrics probe failed: {other:?}")),
        }
        match health {
            Ok((200, body))
                if json::parse(&body)
                    .is_ok_and(|v| v.get("status").and_then(Value::as_str) == Some("ok")) => {}
            other => return Err(format!("mid-run /health probe failed: {other:?}")),
        }
    }

    // The daemon's registry, before any later phase adds traffic. Each
    // single query is timed once, into its shard's `query_ns`, so the
    // shard histograms must hold exactly the closed loop's queries.
    let snap = daemon.registry().snapshot();
    let recorded: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with(".query_ns"))
        .map(|(_, h)| h.count)
        .sum();
    let served = (clients * requests) as u64;
    if recorded != served {
        return Err(format!(
            "shard latency histograms lost queries: {recorded} recorded, {served} served"
        ));
    }

    // Coalescing efficiency of the closed-loop phase, from the same
    // snapshot.
    let (queries, admissions) = (counter_sum(&snap, ".queries"), counter_sum(&snap, ".admissions"));
    let coalesced_queries = counter_sum(&snap, ".coalesced");
    let coalescing = Coalescing {
        queries,
        admissions,
        coalesced_queries,
        mean_ride: queries as f64 / admissions.max(1) as f64,
        coalesced_fraction: coalesced_queries as f64 / queries.max(1) as f64,
    };

    // Bit-identity spot-checks across both generations and all paths.
    let sample_n = num_users.min(32);
    let sample: Vec<UserId> =
        (0..sample_n).map(|k| UserId((k * num_users / sample_n) as u32)).collect();
    eprintln!("equivalence spot-check ({sample_n} users x 2 generations x 3 paths)...");
    check_equivalence(&fw, &daemon, &index, &inputs, &sample, n, [seed_a, seed_b])?;

    // Phase 2 — the uncoalesced baseline: same client count, same Zipf
    // stream, the published second generation throughout (generous to
    // the baseline — it never sees a swap), one release lookup and one
    // full kernel walk per query.
    eprintln!("uncoalesced baseline: {clients} clients x {requests} direct singles...");
    let only_b = AtomicU64::new(seed_b);
    let (lat, elapsed) = drive_load(requests, &zipf, seed_a, None, &only_b, || {}, &|u, s| {
        serve_uncoalesced(&daemon, &index, u, n, s);
    });
    let uncoalesced = LoopStats::new("uncoalesced", &lat, elapsed);

    // Phase 3 — open loop at half the measured closed-loop throughput,
    // so queueing is visible but the system is stable.
    let open_rate_qps = (closed.qps * 0.5).max(1.0);
    eprintln!("open loop: Poisson arrivals at {open_rate_qps:.0} queries/s aggregate...");
    let (rng_seed, rate) = (seed_b ^ 0x00A1_1CE5, Some(open_rate_qps));
    let (lat, elapsed) = drive_load(requests, &zipf, rng_seed, rate, &only_b, || {}, &|u, s| {
        daemon.recommend_one(&inputs, u, n, s);
    });
    let open = LoopStats::new("open", &lat, elapsed);

    // A final fan-out sweep touches every shard so each one's epoch
    // cell carries a generation stamp for the artifact.
    let all: Vec<UserId> = (0..num_users as u32).map(UserId).collect();
    let sweep = daemon.recommend_batch(&inputs, &all, n, seed_b);
    if sweep.len() != num_users {
        return Err("fan-out sweep dropped responses".to_string());
    }
    let shard_generations: Vec<u64> = daemon
        .shard_generations()
        .into_iter()
        .map(|g| g.ok_or_else(|| "a shard served no traffic even after the full sweep".to_string()))
        .collect::<Result<_, _>>()?;
    if shard_generations.iter().any(|&g| g != gen_b) {
        return Err("a shard is not serving the post-swap generation after the sweep".to_string());
    }

    // Exactly two epochs, the two publishes: no query of any phase or of
    // the sweep added one. Each is exactly one accountant release,
    // however many clients and shards raced.
    let epoch = daemon.exchange().epoch();
    if epoch != 2 {
        return Err(format!("expected exactly two published releases, epoch = {epoch}"));
    }
    let spent = accountant.accountant();
    if spent.releases() as u64 != epoch {
        return Err(format!(
            "the accountant approved {} releases but the daemon published {epoch}",
            spent.releases()
        ));
    }

    // Clients only ever asked for published seeds, so nothing may have
    // been refused.
    let refused = daemon.registry().counter("serve.refused").get();
    if refused != 0 {
        return Err(format!("{refused} queries were refused although every seed was published"));
    }

    // Operational journal: the mid-run hot swap must have left a
    // trail — every shard flipped its epoch at least once.
    let journal = socialrec_obs::Journal::global();
    let hot_swap_events = journal.count_of(socialrec_obs::EventKind::HotSwapCompleted) as u64;
    let release_published_events =
        journal.count_of(socialrec_obs::EventKind::ReleasePublished) as u64;
    if hot_swap_events < daemon.num_shards() as u64 {
        return Err(format!(
            "journal recorded {hot_swap_events} hot-swap events but every one of the {} shards \
             flipped at least once",
            daemon.num_shards()
        ));
    }

    // Bit-exact ledger check: `/ledger` must carry the accountant's
    // spent ε bit for bit, and its release count. Runs over HTTP when
    // the endpoint is up, through the same renderer otherwise.
    let ledger_body = match &introspect {
        Some(srv) => {
            let (status, body) = socialrec_obs::http_get(srv.addr(), "/ledger")
                .map_err(|e| format!("/ledger scrape: {e}"))?;
            if status != 200 {
                return Err(format!("/ledger scrape returned {status}"));
            }
            body
        }
        None => socialrec_obs::introspect::accountant_json(&spent),
    };
    let want_bits = spent.total_epsilon().to_bits();
    let ledger = json::parse(&ledger_body)
        .map_err(|e| format!("/ledger is not JSON ({e}): {ledger_body}"))?;
    let count = |key| ledger.get(key).and_then(Value::as_u64);
    if count("cumulative_epsilon_bits") != Some(want_bits)
        || count("releases") != Some(spent.releases() as u64)
    {
        return Err(format!(
            "/ledger does not match the accountant ({} releases, ε bits {want_bits}): \
             {ledger_body}",
            spent.releases()
        ));
    }

    // Second `/metrics` scrape (counter monotonicity fodder for
    // `validate-metrics`) and the journal tail, dumped to files when
    // `--introspect-out` asked for them.
    if let Some(srv) = &introspect {
        let addr = srv.addr();
        let (status, metrics_final) = socialrec_obs::http_get(addr, "/metrics")
            .map_err(|e| format!("final /metrics scrape: {e}"))?;
        if status != 200 {
            return Err(format!("final /metrics scrape returned {status}"));
        }
        let (status, events_body) =
            socialrec_obs::http_get(addr, "/events").map_err(|e| format!("/events scrape: {e}"))?;
        if status != 200 {
            return Err(format!("/events scrape returned {status}"));
        }
        if let Some(prefix) = &introspect_out {
            for (suffix, body) in [
                ("metrics.prev.txt", &probe_metrics_body),
                ("metrics.txt", &metrics_final),
                ("events.jsonl", &events_body),
            ] {
                let path = format!("{prefix}.{suffix}");
                std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
            }
        }
    }

    let live = Live {
        journal_emitted: journal.emitted(),
        journal_dropped: journal.dropped(),
        hot_swap_events,
        release_published_events,
        introspect_probed: introspect.is_some(),
        ledger_bits_match: true,
    };

    let privacy = ServePrivacy {
        accountant_epsilon: spent.total_epsilon(),
        accountant_releases: spent.releases(),
    };

    let coalescing_speedup = closed.qps / uncoalesced.qps.max(1e-9);
    // The speedup gate only binds where the hardware can express the
    // concurrency being measured; equivalence is checked unconditionally.
    let speedup_gate_bound = !smoke && cores >= 4 && clients >= 4;
    let slo = Slo { coalescing_speedup, speedup_gate_bound, met: coalescing_speedup >= 3.0 };

    let report = Report {
        bench: "serve".to_string(),
        dataset: ds.name.clone(),
        scale,
        seed,
        epsilon: epsilon.to_string(),
        measure: measure.name().to_string(),
        top_n: n,
        smoke,
        threads,
        cores,
        clients,
        requests_per_client: requests,
        shards: daemon.num_shards(),
        zipf_s,
        open_rate_qps,
        users: num_users,
        items: ds.prefs.num_items(),
        clusters: partition.num_clusters(),
        closed,
        uncoalesced,
        open,
        publish_under_load_ms,
        coalescing,
        slo,
        live,
        release_epochs: epoch,
        shard_generations,
        equivalence_checked: true,
        privacy,
        simd: SimdInfo::current(),
        registry: daemon.registry().snapshot(),
        memory: socialrec_obs::sample_memory(),
    };
    write_artifact(&out_path, &report)?;

    println!(
        "serve-bench load generator (flixster_like scale={scale}, eps={epsilon}, \
         {} shards, {clients} clients)",
        report.shards
    );
    for s in [&report.closed, &report.uncoalesced, &report.open] {
        println!(
            "  {:<11}: {:>10.1} q/s   p50 {:>10} ns   p99 {:>10} ns   ({} queries)",
            s.mode, s.qps, s.p50_ns, s.p99_ns, s.queries
        );
    }
    println!(
        "  coalescing : {:.2} mean ride, {:.0}% of singles coalesced, {} admissions",
        report.coalescing.mean_ride,
        report.coalescing.coalesced_fraction * 100.0,
        report.coalescing.admissions
    );
    println!(
        "  speedup    : {coalescing_speedup:.2}x coalesced vs uncoalesced singles{}",
        if speedup_gate_bound { "" } else { " (gate not bound on this machine)" }
    );
    println!(
        "  hot swap   : {} published releases ({publish_under_load_ms:.2} ms to draw and \
         publish under load), every shard on generation {gen_b:#x}",
        report.release_epochs
    );
    println!(
        "  privacy    : accountant ε = {} over {} releases, /ledger bit-exact",
        report.privacy.accountant_epsilon, report.privacy.accountant_releases
    );
    println!(
        "  live       : journal {} events ({} hot swaps, {} releases){}",
        report.live.journal_emitted,
        report.live.hot_swap_events,
        report.live.release_published_events,
        if report.live.introspect_probed { ", endpoint probed under load" } else { "" }
    );
    println!("  wrote {out_path}");
    trace.finish(&[
        "sim.build",
        "louvain.level",
        "release",
        "update.publish",
        "serve.coalesced",
        "serve.shard_batch",
    ])?;

    if speedup_gate_bound && coalescing_speedup < 3.0 {
        return Err(format!(
            "expected >= 3x coalesced-singles throughput over the uncoalesced loop \
             on {clients} clients ({cores} cores), measured {coalescing_speedup:.2}x"
        ));
    }
    socialrec_obs::disarm_live();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_writes_valid_artifact_and_trace() {
        // Arms the global observability layer — serialize with every
        // other traced test in this binary.
        let _guard = crate::commands::trace::obs_test_lock();
        let dir = std::env::temp_dir().join("socialrec-serve-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_serve.json");
        let trace_out = dir.join("serve_trace.json");
        let scrape_prefix = dir.join("scrape");
        let spec = format!(
            "--smoke --out {} --trace {} --introspect 0 --introspect-out {}",
            out.display(),
            trace_out.display(),
            scrape_prefix.display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();

        // The artifact must pass the real validator's serve branch.
        let vspec = format!("--path {}", out.display());
        crate::commands::validate_bench::run(&Args::parse_from(
            vspec.split_whitespace().map(String::from),
        ))
        .unwrap();

        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.contains("\"introspect_probed\": true"), "{body}");
        // The run itself refuses a trace that lacks the serving spans.
        let trace_body = std::fs::read_to_string(&trace_out).unwrap();
        socialrec_obs::validate_chrome_trace(&trace_body).unwrap();

        // The journal tail the run dumped carries the hot swap; the
        // scrape shapes are `validate-metrics`' to check.
        let events =
            std::fs::read_to_string(format!("{}.events.jsonl", scrape_prefix.display())).unwrap();
        assert!(events.contains("\"event\":\"hot_swap_completed\""), "journal tail: {events}");
        assert!(events.contains("\"event\":\"release_published\""), "journal tail: {events}");

        // `validate-metrics` accepts the dumps (the same invocation CI
        // runs against the smoke bench's scrape files).
        let mspec = format!(
            "--metrics {p}.metrics.txt --previous {p}.metrics.prev.txt --events {p}.events.jsonl",
            p = scrape_prefix.display()
        );
        crate::commands::validate_metrics::run(&Args::parse_from(
            mspec.split_whitespace().map(String::from),
        ))
        .unwrap();

        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace_out).ok();
        for suffix in ["metrics.prev.txt", "metrics.txt", "events.jsonl"] {
            std::fs::remove_file(format!("{}.{suffix}", scrape_prefix.display())).ok();
        }
    }

    #[test]
    fn untraced_smoke_reads_the_accountant() {
        // Arms the journal — serialize with the traced tests.
        let _guard = crate::commands::trace::obs_test_lock();
        assert!(!socialrec_obs::enabled());
        let dir = std::env::temp_dir().join("socialrec-serve-bench-untraced-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_serve.json");
        let spec = format!("--smoke --out {} --introspect 0", out.display());
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        crate::commands::validate_bench::run(&Args::parse_from(
            format!("--path {}", out.display()).split_whitespace().map(String::from),
        ))
        .unwrap();
        std::fs::remove_file(&out).ok();
    }
}
