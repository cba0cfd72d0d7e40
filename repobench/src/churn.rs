//! `churn`: writes beside reads.
//!
//! Rounds of Zipf-churn `GraphDelta`s (social and preference flips of
//! hash-spread users) go through the incremental path while one
//! closed-loop client queries a live heap daemon. A round's social half
//! (`apply_social`, `dirty_rows` + `update_rows`,
//! `IncrementalLouvain::refresh`, `dirty_index_rows` +
//! `SimMassIndex::update_rows`) runs but is not served, because
//! `ShardedServer` cannot adopt a new partition or index. Its preference
//! half is served: the accountant releases the refreshed preferences
//! over the daemon's partition, the release is published, and the
//! client switches to it (`freshness_*` runs from the delta's
//! submission, before its social half, to the first answer on it). A
//! run makes a fixed number of rounds, started at an even pace over the
//! closed loop, so its final state, and with it `ndcg10` and the ε
//! spent, depends on the seed alone. With one client, admission never
//! coalesces. The loop pauses after each round for a batch sweep over
//! every user; after the rounds traced runs run the rate ladder against the
//! daemon, and the incrementally kept state is checked against a
//! rebuild.

use crate::common::{self, Oracle, SocialRound, Sweeps, Warm};
use crate::layers::{self, Serving, ShardCounters, UserPicker};
use crate::load::{self, ClientLog, Load};
use crate::stats::{label, Report, Samples};
use crate::trace;
use crate::Config;
use socialrec_community::Partition;
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::{DynamicRecommender, RecommenderInputs};
use socialrec_dp::Epsilon;
use socialrec_graph::{PreferenceGraph, UserId};
use socialrec_serve::SimMassIndex;
use socialrec_similarity::SimilarityMatrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Churn rounds of a run; the accountant plans for one release more.
const ROUNDS: u64 = 40;
/// Share of `--seconds` the closed loop runs; the batch sweeps, one
/// after each stretch of it, take about the rest.
const CLOSED_SHARE: f64 = 0.7;

/// One set-up: the warm state that churns, the state the daemon serves
/// (fixed at set-up), and the accountant with its first release.
struct Prepared {
    prefs: PreferenceGraph,
    warm: Warm,
    served: Partition,
    served_sim: SimilarityMatrix,
    served_index: SimMassIndex,
    acct: DynamicRecommender,
    eps: Epsilon,
    release: NoisyClusterAverages,
}

fn prepare(cfg: &Config) -> Result<(Prepared, Instant), String> {
    let ds = layers::generate(cfg.seed);
    let t_build = Instant::now();
    let warm = Warm::build(ds.social, cfg.seed);
    let (served, served_sim, served_index) =
        (warm.clusters.partition().clone(), warm.sim.clone(), warm.index.clone());
    let mut acct = layers::accountant(1 + ROUNDS as usize);
    let seed = common::release_seed(cfg.seed, 0);
    let (eps, release) = layers::release(&mut acct, &served, &ds.prefs, seed)?;
    let p =
        Prepared { prefs: ds.prefs, warm, served, served_sim, served_index, acct, eps, release };
    Ok((p, t_build))
}

pub fn run(cfg: &Config, report: &mut Report) {
    if let Err(e) = run_checked(cfg, report) {
        report.fail(e);
    }
}

fn run_checked(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let seed0 = common::release_seed(cfg.seed, 0);
    // A set-up ends with its release published into a daemon.
    let (p, build) = common::set_up(report, common::SETUP_REPS, "dataset, build", || {
        let (p, t_build) = prepare(cfg)?;
        {
            let daemon = layers::daemon(&p.served, p.served_index.clone(), p.eps);
            let inputs = RecommenderInputs { prefs: &p.prefs, sim: &p.served_sim };
            Serving::new(&daemon, inputs).publish(seed0, p.release.clone());
        }
        Ok((p, Some(t_build)))
    })?;
    report.metric(
        "build_s",
        build.median(),
        "s",
        format!("graphs to a published daemon, {}", label(0.5, build.len())),
    );
    let Prepared {
        prefs: prefs0,
        mut warm,
        served,
        served_sim,
        served_index,
        mut acct,
        eps,
        release,
    } = p;
    // The timed phase's daemon, built again from the kept set-up.
    let daemon = layers::daemon(&served, served_index.clone(), eps);
    let inputs = RecommenderInputs { prefs: &prefs0, sim: &served_sim };
    let serving = Serving::new(&daemon, inputs);
    serving.publish(seed0, release);

    let num_users = warm.social.num_users();
    let num_items = prefs0.num_items();
    let users: Vec<UserId> = (0..num_users as u32).map(UserId).collect();
    let picker = UserPicker::new(num_users);
    let current = AtomicU64::new(seed0);
    let load = Load { seed: cfg.seed, picker: &picker, current: &current, serving: &serving };
    let mut prefs = prefs0.clone();
    let mut spends = vec![eps];
    let mut kept = Vec::new();
    let mut refusals = 0u64;

    let segments = common::SEGMENTS as f64;
    let closed = Duration::from_secs_f64(cfg.seconds * CLOSED_SHARE / segments);
    let per = ROUNDS / common::SEGMENTS;
    let mut rng = load::rng_for(cfg.seed, 0xC4C4_0000);
    let mut rounds: Vec<(u64, Instant, Instant, SocialRound)> = Vec::new();
    let mut groups = Vec::new();
    let (mut counters, mut sweeps, mut answers) =
        (ShardCounters::default(), Sweeps::default(), Vec::new());
    for segment in 0..common::SEGMENTS {
        let before = serving.counters();
        let start = Instant::now();
        let logs = load::with_clients(load, 1, report, |report| {
            for j in 0..per {
                load::sleep_until(start + closed.mul_f64(j as f64 / per as f64));
                let k = segment * per + j + 1;
                let delta = layers::churn_delta(&mut rng, &picker, num_items);
                let _root = trace::span_req("churn.round", common::REQ_ROUND + k);
                let submitted = Instant::now();
                let social = match warm.social_round(&delta) {
                    Ok(s) => s,
                    Err(e) => {
                        report.fail(format!("round {k}: {e}"));
                        continue;
                    }
                };
                let next = match layers::apply_preferences(&delta, &prefs) {
                    Ok(p) => p,
                    Err(e) => {
                        report.fail(format!("round {k}: {e}"));
                        continue;
                    }
                };
                let seed = common::release_seed(cfg.seed, k);
                match layers::release(&mut acct, &served, &next, seed) {
                    Ok((eps, release)) => {
                        spends.push(eps);
                        serving.publish(seed, release);
                        current.store(seed, Ordering::SeqCst);
                        rounds.push((seed, submitted, Instant::now(), social));
                        if k.is_multiple_of(common::KEEP_RELEASE_EVERY) {
                            kept.extend(serving.published(seed).map(|r| (seed, r)));
                        }
                        prefs = next;
                    }
                    Err(e) => {
                        refusals += 1;
                        report.fail(format!("round {k}: {e}"));
                    }
                }
            }
            load::sleep_until(start + closed);
        });
        counters = counters.plus(&serving.counters().since(&before));
        groups.push(logs);
        let seed = current.load(Ordering::SeqCst);
        answers = sweeps.run(report, &serving, &users, seed);
    }
    let segment_logs: Vec<&[ClientLog]> = groups.iter().map(Vec::as_slice).collect();
    common::report_queries(report, &segment_logs, "1 closed-loop client beside the churn rounds");
    common::report_counters(report, &counters, "closed loops with the churn rounds");
    sweeps.report(report);
    let logs: Vec<ClientLog> = groups.into_iter().flatten().collect();

    let first = common::first_answers(&logs);
    let (mut fresh, mut swap_lag) = (Samples::default(), Samples::default());
    for (seed, submitted, published, _) in &rounds {
        if let Some(&at) = first.get(seed) {
            fresh.push(at.saturating_duration_since(*submitted).as_secs_f64() * 1e3);
            swap_lag.push(at.saturating_duration_since(*published).as_secs_f64() * 1e3);
        }
    }
    common::report_freshness(report, &fresh, &swap_lag, "delta submitted to first answer");
    let social: Vec<SocialRound> = rounds.into_iter().map(|(_, _, _, s)| s).collect();
    report.ops(social.len() as u64);
    common::report_rounds(report, &social, "churn rounds");

    let last_seed = current.load(Ordering::SeqCst);
    let last = serving.published(last_seed).ok_or("the last published release was evicted")?;
    kept.push((last_seed, last.clone()));
    if cfg.trace {
        let ladder = load::ladder(load, report);
        common::report_ladder(report, &ladder);
    }

    let oracle = Oracle { partition: &served, eps, inputs };
    let check_users = common::sample_users(num_users, cfg.seed, common::CHECK_USERS);
    oracle.check(report, &last, check_users.iter().map(|u| &answers[u.index()]), "batch");
    oracle.check_kept(report, &kept, &logs);
    let epochs = serving.epochs();
    let want = spends.len() as u64;
    report.check(epochs == want, || format!("{epochs} release epochs for {want} publishes"));
    report.check(serving.all_shards_on(last_seed), || {
        "a shard is not on the last release".to_string()
    });
    report.metric("serve.release_epochs", epochs as f64, "count", format!("{want} publishes"));
    report.metric(
        "serve.release_swaps",
        serving.counters().release_swaps as f64,
        "count",
        "epoch-cell flips",
    );
    common::check_accountant(report, &acct, &spends, refusals);

    // Quality of what is served against the exact recommender on the
    // current graphs: staleness of the served partition and index shows.
    let truth = RecommenderInputs { prefs: &prefs, sim: &warm.sim };
    let ndcg_users = common::sample_users(num_users, cfg.seed ^ 1, common::NDCG_USERS);
    let sample: Vec<_> = ndcg_users.iter().map(|u| answers[u.index()].clone()).collect();
    common::report_ndcg(report, &truth, &sample, "last release against the churned graphs");
    if cfg.trace {
        common::replay(report, &served_index, &last, &logs);
    }
    warm.check_against_rebuild(report);
    common::report_state(report, &warm);
    Ok(())
}
