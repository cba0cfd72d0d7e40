//! `socialrec update-bench` — the streaming-update churn benchmark.
//!
//! Drives the incremental refresh pipeline end-to-end against a warm
//! graph under Zipf-skewed edge churn, with a full-rebuild comparator
//! every round:
//!
//! 1. **Churn rounds** — each round applies a small social+preference
//!    delta ([`GraphDelta`]) and refreshes every derived artifact
//!    incrementally: row-patched CSR graphs, dirty-row similarity
//!    recompute ([`dirty_rows`] + `SimilarityMatrix::update_rows`),
//!    worklist Louvain with a modularity-drift restart threshold
//!    ([`IncrementalLouvain`]), dirty-row [`SimMassIndex`] splice, and
//!    an accountant-approved noisy re-release through
//!    [`DynamicRecommender::release_averages`]. The equivalent full
//!    rebuild (similarity build, multi-restart Louvain, index build,
//!    release) is timed alongside, and every refreshed artifact is
//!    checked **bit-identical** to its from-scratch counterpart under
//!    the same partition.
//! 2. **Hot swap under live load** — the daemon starts serving one
//!    accountant release; client threads hammer the
//!    [`ShardedServer`], and once half their queries are answered the
//!    main thread applies a preference delta, produces the next
//!    scheduled release through the recommender's accountant, and
//!    publishes it into the daemon's `ReleaseExchange`
//!    ([`ShardedServer::publish_release`]) while the other half runs.
//!    Every release the daemon serves is one the accountant paid for —
//!    the exchange epoch counter proves it — and the served p50/p99
//!    over the whole phase, before and during the refresh, lands in the
//!    artifact.
//! 3. **Budget enforcement** — after the schedule's plan is consumed,
//!    the run demonstrates both refusal paths (exhausted schedule,
//!    over-budget accountant spend) and records the error strings. The
//!    accountant, the one record of ε, must hold exactly one release
//!    per churn round and one per published generation.
//!
//! The `BENCH_update.json` artifact is validated by
//! `socialrec validate-bench`; the non-smoke SLO gate requires the
//! incremental refresh to be ≥ 5× faster than the full rebuild.

use crate::commands::bench::{
    check_sim_bits, drive_closed, ms, percentile_ns, same_release_bits, write_artifact, SimdInfo,
};
use crate::commands::trace::TraceSink;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use socialrec_community::{IncrementalLouvain, Louvain};
use socialrec_core::private::framework::release_noisy_cluster_averages_with;
use socialrec_core::private::NoiseModel;
use socialrec_core::{BudgetSchedule, DynamicRecommender, RecommenderInputs};
use socialrec_datasets::flixster_like;
use socialrec_dp::Epsilon;
use socialrec_experiments::{impl_to_json, Args};
use socialrec_graph::{GraphDelta, ItemId, UserId};
use socialrec_obs::span;
use socialrec_serve::loadgen::Zipf;
use socialrec_serve::{dirty_index_rows, ShardedServer, SimMassIndex};
use socialrec_similarity::{dirty_rows, parse_measure, SimilarityMatrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One churn round: delta sizes, dirty-set sizes, both timings, and the
/// per-release ε the accountant debited.
struct RoundStats {
    round: usize,
    social_flips: usize,
    pref_flips: usize,
    sim_dirty_rows: usize,
    index_dirty_rows: usize,
    moved_users: usize,
    restarted: bool,
    modularity: f64,
    incremental_ms: f64,
    full_rebuild_ms: f64,
    speedup: f64,
    epsilon_spent: f64,
}

impl_to_json!(RoundStats {
    round,
    social_flips,
    pref_flips,
    sim_dirty_rows,
    index_dirty_rows,
    moved_users,
    restarted,
    modularity,
    incremental_ms,
    full_rebuild_ms,
    speedup,
    epsilon_spent,
});

/// The SLO verdict `validate-bench` enforces: when the gate binds
/// (non-smoke), `met` must be true.
struct UpdateSlo {
    refresh_speedup: f64,
    speedup_gate_bound: bool,
    met: bool,
}

impl_to_json!(UpdateSlo { refresh_speedup, speedup_gate_bound, met });

/// Serving stats for the hot-swap-under-load phase. `release_epochs`
/// must be exactly 2 — the two publishes (the first serving release,
/// then the refresh); queries never add an epoch.
struct ServeDuringRefresh {
    queries: u64,
    elapsed_ms: f64,
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    refresh_under_load_ms: f64,
    release_epochs: u64,
    pre_swap_generation: u64,
    post_swap_generation: u64,
}

impl_to_json!(ServeDuringRefresh {
    queries,
    elapsed_ms,
    qps,
    p50_ns,
    p99_ns,
    max_ns,
    refresh_under_load_ms,
    release_epochs,
    pre_swap_generation,
    post_swap_generation,
});

/// Privacy accounting: the enforced budget and what the recommender's
/// accountant — the one record of ε — spent, plus the captured refusal
/// errors.
struct UpdatePrivacy {
    epsilon_total: String,
    schedule_releases: usize,
    epsilon_per_release: f64,
    accountant_epsilon: f64,
    accountant_releases: usize,
    refusal_schedule: String,
    refusal_accountant: String,
}

impl_to_json!(UpdatePrivacy {
    epsilon_total,
    schedule_releases,
    epsilon_per_release,
    accountant_epsilon,
    accountant_releases,
    refusal_schedule,
    refusal_accountant,
});

/// The `BENCH_update.json` document.
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
    users: usize,
    items: usize,
    clusters: usize,
    restarts: usize,
    drift_threshold: f64,
    zipf_s: f64,
    num_rounds: usize,
    social_per_round: usize,
    pref_per_round: usize,
    clients: usize,
    requests_per_client: usize,
    shards: usize,
    rounds: Vec<RoundStats>,
    incremental_total_ms: f64,
    full_rebuild_total_ms: f64,
    slo: UpdateSlo,
    serve: ServeDuringRefresh,
    privacy: UpdatePrivacy,
    equivalence_checked: bool,
    releases_bit_identical: bool,
    simd: SimdInfo,
    registry: socialrec_obs::RegistrySnapshot,
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
    users,
    items,
    clusters,
    restarts,
    drift_threshold,
    zipf_s,
    num_rounds,
    social_per_round,
    pref_per_round,
    clients,
    requests_per_client,
    shards,
    rounds,
    incremental_total_ms,
    full_rebuild_total_ms,
    slo,
    serve,
    privacy,
    equivalence_checked,
    releases_bit_identical,
    simd,
    registry,
    memory,
});

/// A Zipf-skewed churn delta: `social` edge toggles (80% arrivals, 20%
/// departures) between popularity-sampled users, plus `pref` preference
/// toggles of popular users onto uniform items.
///
/// Users come from [`Zipf::sample_user`]: churn popularity is skewed
/// (the same few users keep changing), but *which* users churn is
/// independent of the generator's ID order — low IDs are the synthetic
/// graph's planted hubs, and tying churn rate to graph degree would make
/// every delta a worst-case hub delta.
fn churn_delta(
    rng: &mut SmallRng,
    zipf: &Zipf,
    num_items: usize,
    social: usize,
    pref: usize,
) -> GraphDelta {
    let mut d = GraphDelta::new();
    while d.num_social() < social {
        let u = zipf.sample_user(rng);
        let v = zipf.sample_user(rng);
        if u == v {
            continue;
        }
        if rng.gen_bool(0.8) {
            d.add_social(u, v).expect("sampled endpoints are in range");
        } else {
            d.remove_social(u, v).expect("sampled endpoints are in range");
        }
    }
    for _ in 0..pref {
        let u = zipf.sample_user(rng);
        let i = ItemId(rng.gen_range(0..num_items as u32));
        if rng.gen_bool(0.8) {
            d.add_preference(u, i);
        } else {
            d.remove_preference(u, i);
        }
    }
    d
}

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let smoke = args.has_flag("smoke");
    let scale = args.get_f64("scale", if smoke { 0.004 } else { 0.1 });
    let seed = args.get_u64("seed", 7);
    let epsilon: Epsilon = args.get_str("epsilon").unwrap_or("1.0").parse()?;
    let n = args.get_usize("n", 10);
    let num_rounds = args.get_usize("rounds", if smoke { 2 } else { 3 }).max(1);
    let social_per_round = args.get_usize("social-edges", if smoke { 4 } else { 8 }).max(1);
    let pref_per_round = args.get_usize("pref-edges", if smoke { 2 } else { 8 });
    let restarts = args.get_usize("restarts", if smoke { 2 } else { 3 }).max(1);
    let drift_threshold = args.get_f64("drift", 0.02);
    let clients = args.get_usize("clients", if smoke { 2 } else { 4 }).max(1);
    let requests = args.get_usize("requests", if smoke { 8 } else { 160 }).max(2);
    let num_shards = args.get_usize("shards", 4).max(1);
    let zipf_s = args.get_f64("zipf-s", 1.0);
    let measure = parse_measure(args.get_str("measure").unwrap_or("CN"))?;
    let out_path = args.get_str("out").unwrap_or("BENCH_update.json").to_string();
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let trace = TraceSink::init(args);

    // One scheduled release per churn round, plus the daemon's first
    // serving release and its refresh under load.
    let schedule_releases = num_rounds + 2;
    let schedule = BudgetSchedule::Uniform { releases: schedule_releases };
    let per_release =
        schedule.epsilon_for(0, epsilon).ok_or("budget schedule yields no releases".to_string())?;
    let mut dynrec = DynamicRecommender::new(epsilon, schedule);

    eprintln!("generating flixster_like(scale={scale}, seed={seed})...");
    let ds = flixster_like(scale, seed);
    let num_users = ds.social.num_users();
    let num_items = ds.prefs.num_items();
    eprintln!("  {num_users} users, {num_items} items, {threads} threads");

    eprintln!("warm start: {} similarity + Louvain(x{restarts}) + index...", measure.name());
    let mut g = ds.social.clone();
    let mut prefs = ds.prefs.clone();
    let mut sim = SimilarityMatrix::build(&g, measure.as_ref());
    let base = Louvain { seed, ..Louvain::default() };
    let mut inc = IncrementalLouvain::new(base, restarts, drift_threshold, &g);
    let clusters_initial = inc.partition().num_clusters();
    let mut idx = SimMassIndex::build(&sim, inc.partition());
    eprintln!("  {clusters_initial} clusters, Q = {:.4}", inc.modularity());

    let zipf = Zipf::new(num_users, zipf_s);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut rounds: Vec<RoundStats> = Vec::with_capacity(num_rounds);
    let (mut inc_total_ms, mut full_total_ms) = (0.0f64, 0.0f64);

    // Untimed warm-up of both timed paths (thread-pool spin-up, first
    // touches of the big allocations): one discarded delta through the
    // dirty-row update and one discarded from-scratch build. Nothing
    // here mutates the carried state or spends budget.
    {
        let warm = churn_delta(&mut rng, &zipf, num_items, social_per_round, pref_per_round);
        let (gw, srw) = warm.apply_social(&g).map_err(|e| e.to_string())?;
        let dirty = dirty_rows(measure.as_ref(), &g, &gw, &srw.touched);
        let _ = sim.update_rows(&gw, measure.as_ref(), &dirty);
        let _ = SimilarityMatrix::build(&gw, measure.as_ref());
    }

    eprintln!(
        "churn: {num_rounds} rounds x ({social_per_round} social + {pref_per_round} pref) \
         Zipf toggles, incremental vs full rebuild..."
    );
    for round in 0..num_rounds {
        let delta = churn_delta(&mut rng, &zipf, num_items, social_per_round, pref_per_round);
        let seed_t = seed.wrapping_add(100 + round as u64);

        // Incremental path: row-patched graphs, dirty-row similarity
        // and index, worklist Louvain, scheduled noisy re-release.
        let t = Instant::now();
        let (
            g_new,
            sreport,
            p_new,
            sim_new,
            outcome,
            idx_new,
            eps_t,
            avg_inc,
            sim_dirty_len,
            idx_dirty_len,
        ) = {
            let _span = span!("update.refresh", round = round);
            let (g2, sr) = delta.apply_social(&g).map_err(|e| e.to_string())?;
            let (p2, _pr) = delta.apply_preferences(&prefs).map_err(|e| e.to_string())?;
            let sim_dirty = dirty_rows(measure.as_ref(), &g, &g2, &sr.touched);
            let s2 = sim.update_rows(&g2, measure.as_ref(), &sim_dirty);
            let out = inc.refresh(&g2, &sr.touched);
            let idx_dirty = dirty_index_rows(&s2, &sim_dirty, &out.moved_users);
            let i2 = idx.update_rows(&s2, inc.partition(), &idx_dirty);
            let (e, avg) = dynrec.release_averages(inc.partition(), &p2, seed_t)?;
            (g2, sr, p2, s2, out, i2, e, avg, sim_dirty.len(), idx_dirty.len())
        };
        let incremental_ms = ms(t);

        // Full-rebuild comparator: from-scratch similarity, a full
        // multi-restart Louvain (its partition is timing-only — the
        // bit-identity contract is "same partition in, same bits out"),
        // index build, and a direct release with identical parameters.
        let t = Instant::now();
        let sim_full = SimilarityMatrix::build(&g_new, measure.as_ref());
        let _full_louvain = base.run_best_of(&g_new, restarts);
        let idx_full = SimMassIndex::build(&sim_full, inc.partition());
        let avg_full = release_noisy_cluster_averages_with(
            inc.partition(),
            &p_new,
            eps_t,
            NoiseModel::Laplace,
            seed_t,
        );
        let full_rebuild_ms = ms(t);

        check_sim_bits(&sim_new, &sim_full).map_err(|e| format!("round {round}: {e}"))?;
        if idx_new != idx_full {
            return Err(format!("round {round}: spliced index diverged from the full rebuild"));
        }
        if !same_release_bits(&avg_inc, &avg_full) {
            return Err(format!(
                "round {round}: incremental release is not bit-identical to the full rebuild"
            ));
        }

        let speedup = full_rebuild_ms / incremental_ms.max(1e-9);
        eprintln!(
            "  round {round}: {:>8.2} ms incremental vs {:>8.2} ms full ({speedup:.1}x), \
             {} sim rows, {} index rows, {} moved{}",
            incremental_ms,
            full_rebuild_ms,
            sim_dirty_len,
            idx_dirty_len,
            outcome.moved_users.len(),
            if outcome.restarted { ", RESTARTED" } else { "" }
        );
        rounds.push(RoundStats {
            round,
            social_flips: sreport.changed.len(),
            pref_flips: delta.num_preferences(),
            sim_dirty_rows: sim_dirty_len,
            index_dirty_rows: idx_dirty_len,
            moved_users: outcome.moved_users.len(),
            restarted: outcome.restarted,
            modularity: outcome.modularity,
            incremental_ms,
            full_rebuild_ms,
            speedup,
            epsilon_spent: eps_t.value(),
        });
        inc_total_ms += incremental_ms;
        full_total_ms += full_rebuild_ms;
        (g, prefs, sim, idx) = (g_new, p_new, sim_new, idx_new);
    }

    // Phase 2 — hot swap under live load. The daemon serves the churned
    // state; clients hammer it while the main thread produces the next
    // scheduled release and publishes it into the exchange. ε per
    // release is uniform, so the daemon's generation key (fingerprint,
    // ε, seed) matches every published release.
    let partition = inc.partition();
    let daemon = ShardedServer::from_index(partition, idx, per_release, num_shards);
    let inputs = RecommenderInputs { prefs: &prefs, sim: &sim };
    let (seed_a, seed_b) = (seed.wrapping_add(1000), seed.wrapping_add(1001));
    let (gen_a, gen_b) = (daemon.generation_for(seed_a), daemon.generation_for(seed_b));

    // The first serving generation is the accountant's next scheduled
    // release, published before any client starts.
    let (_, serving) = dynrec.release_averages(partition, &prefs, seed_a)?;
    daemon.publish_release(seed_a, serving);

    eprintln!(
        "hot swap under load: {clients} clients x {requests} queries; halfway through, \
         the refresh publishes generation {gen_b:#x}..."
    );
    let current_seed = AtomicU64::new(seed_a);
    let delta2 = churn_delta(&mut rng, &zipf, num_items, 0, (pref_per_round * 2).max(2));
    let mut refresh_under_load_ms = 0.0f64;
    let mut refresh_result: Result<(), String> = Ok(());
    // The refresh itself, concurrent with the load: preference churn,
    // the accountant-debited release, and the publish.
    let refresh = || {
        let t = Instant::now();
        refresh_result = (|| {
            let (p2, _r) = delta2.apply_preferences(&prefs).map_err(|e| e.to_string())?;
            let want = release_noisy_cluster_averages_with(
                partition,
                &p2,
                per_release,
                NoiseModel::Laplace,
                seed_b,
            );
            let (_e, avg) = dynrec.release_averages(partition, &p2, seed_b)?;
            if !same_release_bits(&avg, &want) {
                return Err(
                    "published refresh is not bit-identical to a direct release".to_string()
                );
            }
            let generation = daemon.publish_release(seed_b, avg);
            if generation != gen_b {
                return Err("published generation does not match the daemon's key".to_string());
            }
            current_seed.store(seed_b, Ordering::Release);
            Ok(())
        })();
        refresh_under_load_ms = ms(t);
    };
    let (lat, elapsed_ms) =
        drive_closed(clients, requests, &zipf, seed, &current_seed, refresh, &|u, s| {
            daemon.recommend_one(&inputs, u, n, s);
        });
    refresh_result?;

    // Every shard flips to the published generation on a final sweep,
    // and the epoch count stays at 2: the two publishes. Queries never
    // add one.
    let all: Vec<UserId> = (0..num_users as u32).map(UserId).collect();
    daemon.recommend_batch(&inputs, &all, n, seed_b);
    let release_epochs = daemon.exchange().epoch();
    if release_epochs != 2 {
        return Err(format!("expected 2 release epochs (two publishes), got {release_epochs}"));
    }
    if daemon.shard_generations().iter().any(|&gsh| gsh != Some(gen_b)) {
        return Err("a shard is not serving the published generation after the sweep".to_string());
    }
    let refused = daemon.registry().counter("serve.refused").get();
    if refused != 0 {
        return Err(format!("{refused} queries were refused although every seed was published"));
    }

    // Budget enforcement, both refusal paths: the uniform plan is now
    // fully consumed, so the next scheduled release is refused, and an
    // explicit spend is refused by the accountant *before* any noisy
    // output exists.
    let (refusal_schedule, refusal_accountant) = if let Epsilon::Finite(_) = epsilon {
        let sched_err = dynrec
            .release_averages(partition, &prefs, 9999)
            .err()
            .ok_or("an exhausted schedule must refuse further releases".to_string())?;
        let acct_err = dynrec
            .release_averages_with_epsilon(partition, &prefs, per_release, 9999)
            .err()
            .ok_or("an over-budget explicit spend must be refused".to_string())?;
        if !acct_err.contains("privacy budget exceeded") {
            return Err(format!("unexpected accountant refusal: {acct_err}"));
        }
        (sched_err, acct_err)
    } else {
        (
            "(infinite budget: never refuses)".to_string(),
            "(infinite budget: never refuses)".to_string(),
        )
    };

    // On traced runs (journal armed) the two refusals above must also
    // have landed in the operational journal, one per reason code — a
    // refusal an operator can't see on `/events` is a silent outage.
    if trace.active() {
        if let Epsilon::Finite(_) = epsilon {
            use socialrec_obs::journal::{REFUSAL_BUDGET_EXCEEDED, REFUSAL_SCHEDULE_EXHAUSTED};
            let snap = socialrec_obs::Journal::global().snapshot(usize::MAX);
            for (reason, label) in [
                (REFUSAL_SCHEDULE_EXHAUSTED, "schedule-exhausted"),
                (REFUSAL_BUDGET_EXCEEDED, "budget-exceeded"),
            ] {
                let seen = snap
                    .events
                    .iter()
                    .any(|e| e.kind == socialrec_obs::EventKind::BudgetRefusal && e.b == reason);
                if !seen {
                    return Err(format!(
                        "the {label} refusal did not reach the operational journal"
                    ));
                }
            }
        }
    }

    // Every release the run served went through the accountant, and
    // nothing else did: one per churn round, one per published
    // generation. The refusals above recorded nothing.
    let spent = dynrec.accountant();
    if spent.releases() != num_rounds + release_epochs as usize {
        return Err(format!(
            "the accountant holds {} releases; the run made {num_rounds} refreshes and \
             published {release_epochs} generations",
            spent.releases()
        ));
    }

    let refresh_speedup = full_total_ms / inc_total_ms.max(1e-9);
    let speedup_gate_bound = !smoke;
    let slo = UpdateSlo { refresh_speedup, speedup_gate_bound, met: refresh_speedup >= 5.0 };

    let report = Report {
        bench: "update".to_string(),
        dataset: ds.name.clone(),
        scale,
        seed,
        epsilon: epsilon.to_string(),
        measure: measure.name().to_string(),
        top_n: n,
        smoke,
        threads,
        cores,
        users: num_users,
        items: num_items,
        clusters: partition.num_clusters(),
        restarts,
        drift_threshold,
        zipf_s,
        num_rounds,
        social_per_round,
        pref_per_round,
        clients,
        requests_per_client: requests,
        shards: daemon.num_shards(),
        rounds,
        incremental_total_ms: inc_total_ms,
        full_rebuild_total_ms: full_total_ms,
        slo,
        serve: ServeDuringRefresh {
            queries: lat.len() as u64,
            elapsed_ms,
            qps: lat.len() as f64 / (elapsed_ms / 1e3).max(1e-9),
            p50_ns: percentile_ns(&lat, 0.50),
            p99_ns: percentile_ns(&lat, 0.99),
            max_ns: lat.last().copied().unwrap_or(0),
            refresh_under_load_ms,
            release_epochs,
            pre_swap_generation: gen_a,
            post_swap_generation: gen_b,
        },
        privacy: UpdatePrivacy {
            epsilon_total: epsilon.to_string(),
            schedule_releases,
            epsilon_per_release: per_release.value(),
            accountant_epsilon: spent.total_epsilon(),
            accountant_releases: spent.releases(),
            refusal_schedule,
            refusal_accountant,
        },
        equivalence_checked: true,
        releases_bit_identical: true,
        simd: SimdInfo::current(),
        registry: daemon.registry().snapshot(),
        memory: socialrec_obs::sample_memory(),
    };
    write_artifact(&out_path, &report)?;

    println!(
        "update-bench streaming churn (flixster_like scale={scale}, eps={epsilon}, \
         {num_rounds} rounds, {} shards)",
        report.shards
    );
    println!(
        "  refresh    : {inc_total_ms:.2} ms incremental vs {full_total_ms:.2} ms full \
         rebuild ({refresh_speedup:.1}x){}",
        if speedup_gate_bound { "" } else { " (gate not bound: smoke)" }
    );
    println!(
        "  served     : {} queries, p50 {} ns, p99 {} ns (half before the refresh, half \
         during it)",
        report.serve.queries, report.serve.p50_ns, report.serve.p99_ns
    );
    println!(
        "  hot swap   : {} epochs (two publishes), every shard on {gen_b:#x}",
        report.serve.release_epochs
    );
    println!(
        "  privacy    : accountant ε = {:.6} over {} releases",
        report.privacy.accountant_epsilon, report.privacy.accountant_releases
    );
    println!("  wrote {out_path}");
    trace.finish(&[
        "update.refresh",
        "update.louvain",
        "update.sim_rows",
        "update.index_rows",
        "update.release",
        "update.publish",
    ])?;

    if speedup_gate_bound && refresh_speedup < 5.0 {
        return Err(format!(
            "expected the incremental refresh to be >= 5x faster than the full rebuild, \
             measured {refresh_speedup:.2}x"
        ));
    }
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
        let dir = std::env::temp_dir().join("socialrec-update-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_update.json");
        let trace_out = dir.join("update_trace.json");
        let spec = format!("--smoke --out {} --trace {}", out.display(), trace_out.display());
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();

        // The artifact must pass the real validator's update branch.
        let vspec = format!("--path {}", out.display());
        crate::commands::validate_bench::run(&Args::parse_from(
            vspec.split_whitespace().map(String::from),
        ))
        .unwrap();

        // The run itself refuses a trace that lacks the update spans,
        // and a journal that lacks either budget refusal.
        let trace_body = std::fs::read_to_string(&trace_out).unwrap();
        socialrec_obs::validate_chrome_trace(&trace_body).unwrap();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace_out).ok();
    }
}
