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
//! 2. **Budget enforcement** — the schedule plans one release per
//!    round, so once the rounds have consumed it the run demonstrates
//!    both refusal paths (exhausted schedule, over-budget accountant
//!    spend) and records the error strings. The accountant, the one
//!    record of ε, must hold exactly one release per churn round.
//!
//! Publishing a release into the serving daemon under live load is
//! serve-bench's job: its closed loop publishes an accountant release
//! mid-run and checks the same no-second-spend property.
//!
//! The `BENCH_update.json` artifact is validated by
//! `socialrec validate-bench`; the non-smoke SLO gate requires the
//! incremental refresh to be ≥ 5× faster than the full rebuild.

use crate::commands::bench::{check_sim_bits, ms, same_release_bits, write_artifact, SimdInfo};
use crate::commands::trace::TraceSink;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use socialrec_community::{IncrementalLouvain, Louvain};
use socialrec_core::private::framework::release_noisy_cluster_averages_with;
use socialrec_core::private::NoiseModel;
use socialrec_core::{BudgetSchedule, DynamicRecommender};
use socialrec_datasets::flixster_like;
use socialrec_dp::Epsilon;
use socialrec_experiments::{impl_to_json, Args};
use socialrec_graph::{GraphDelta, ItemId};
use socialrec_obs::span;
use socialrec_serve::loadgen::Zipf;
use socialrec_serve::{dirty_index_rows, SimMassIndex};
use socialrec_similarity::{dirty_rows, CommonNeighbors, Similarity, SimilarityMatrix};
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

/// Privacy accounting: the enforced budget and what the recommender's
/// accountant — the one record of ε — spent, plus the captured refusal
/// errors.
struct UpdatePrivacy {
    epsilon_total: String,
    epsilon_per_release: f64,
    accountant_epsilon: f64,
    accountant_releases: usize,
    refusal_schedule: String,
    refusal_accountant: String,
}

impl_to_json!(UpdatePrivacy {
    epsilon_total,
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
    rounds: Vec<RoundStats>,
    incremental_total_ms: f64,
    full_rebuild_total_ms: f64,
    slo: UpdateSlo,
    privacy: UpdatePrivacy,
    equivalence_checked: bool,
    releases_bit_identical: bool,
    simd: SimdInfo,
    memory: Option<socialrec_obs::MemorySample>,
}

impl_to_json!(Report {
    bench,
    dataset,
    scale,
    seed,
    epsilon,
    measure,
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
    rounds,
    incremental_total_ms,
    full_rebuild_total_ms,
    slo,
    privacy,
    equivalence_checked,
    releases_bit_identical,
    simd,
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
    let scale = if smoke { 0.004 } else { 0.1 };
    let num_rounds = if smoke { 2 } else { 3 };
    let (social_per_round, pref_per_round) = if smoke { (4, 2) } else { (8, 8) };
    let restarts = if smoke { 2 } else { 3 };
    let (epsilon, drift_threshold, zipf_s) = (Epsilon::Finite(1.0), 0.02, 1.0);
    let measure = CommonNeighbors;
    let seed = args.get_u64("seed", 7);
    let out_path = args.get_str("out").unwrap_or("BENCH_update.json").to_string();
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let trace = TraceSink::init(args);

    let schedule = BudgetSchedule::Uniform { releases: num_rounds };
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
    let mut sim = SimilarityMatrix::build(&g, &measure);
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
        let dirty = dirty_rows(&measure, &g, &gw, &srw.touched);
        let _ = sim.update_rows(&gw, &measure, &dirty);
        let _ = SimilarityMatrix::build(&gw, &measure);
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
            let sim_dirty = dirty_rows(&measure, &g, &g2, &sr.touched);
            let s2 = sim.update_rows(&g2, &measure, &sim_dirty);
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
        let sim_full = SimilarityMatrix::build(&g_new, &measure);
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

    // Budget enforcement, both refusal paths: the uniform plan is now
    // fully consumed, so the next scheduled release is refused, and an
    // explicit spend is refused by the accountant *before* any noisy
    // output exists.
    let partition = inc.partition();
    let refusal_schedule = dynrec
        .release_averages(partition, &prefs, 9999)
        .err()
        .ok_or("an exhausted schedule must refuse further releases".to_string())?;
    let refusal_accountant = dynrec
        .release_averages_with_epsilon(partition, &prefs, per_release, 9999)
        .err()
        .ok_or("an over-budget explicit spend must be refused".to_string())?;
    if !refusal_accountant.contains("privacy budget exceeded") {
        return Err(format!("unexpected accountant refusal: {refusal_accountant}"));
    }

    // On traced runs (journal armed) the two refusals above must also
    // have landed in the operational journal, one per reason code — a
    // refusal an operator can't see on `/events` is a silent outage.
    if trace.active() {
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
                return Err(format!("the {label} refusal did not reach the operational journal"));
            }
        }
    }

    // Every release the run made went through the accountant, and
    // nothing else did: one per churn round. The refusals above
    // recorded nothing.
    let spent = dynrec.accountant();
    if spent.releases() != num_rounds {
        return Err(format!(
            "the accountant holds {} releases; the run made {num_rounds} refreshes",
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
        rounds,
        incremental_total_ms: inc_total_ms,
        full_rebuild_total_ms: full_total_ms,
        slo,
        privacy: UpdatePrivacy {
            epsilon_total: epsilon.to_string(),
            epsilon_per_release: per_release.value(),
            accountant_epsilon: spent.total_epsilon(),
            accountant_releases: spent.releases(),
            refusal_schedule,
            refusal_accountant,
        },
        equivalence_checked: true,
        releases_bit_identical: true,
        simd: SimdInfo::current(),
        memory: socialrec_obs::sample_memory(),
    };
    write_artifact(&out_path, &report)?;

    println!(
        "update-bench streaming churn (flixster_like scale={scale}, eps={epsilon}, \
         {num_rounds} rounds)"
    );
    println!(
        "  refresh    : {inc_total_ms:.2} ms incremental vs {full_total_ms:.2} ms full \
         rebuild ({refresh_speedup:.1}x){}",
        if speedup_gate_bound { "" } else { " (gate not bound: smoke)" }
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
