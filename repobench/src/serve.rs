//! `serve-skewed`: a warm daemon under skewed single-user load.
//!
//! Set-up builds the serving state, writes the sim-mass index with
//! `write_artifact(F64)` and serves it through
//! `SimMassIndex::open_artifact`, the mmap artifact layer. The timed
//! phase is a closed loop of two clients issuing `recommend_one`, with
//! Zipf(s = 1) popularity spread over user ids by a hash; meanwhile the
//! accountant makes a new release at a fixed pace, each is published,
//! and the clients switch to it (`freshness_*` runs from the release's
//! request to the first answer on it). The loop pauses many times for
//! a batch sweep over every user. All that work is admission, release
//! lookup, kernel and top-N: similarity and community stay idle after
//! set-up. Traced runs add the open-loop rate ladder and, at the end, a
//! few churn rounds for the per-layer refresh metrics.

use crate::common::{self, Oracle, Sweeps, Warm};
use crate::layers::{self, Serving, ShardCounters, UserPicker};
use crate::load::{self, ClientLog, Load};
use crate::stats::{label, Report, Samples};
use crate::trace;
use crate::Config;
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::{DynamicRecommender, RecommenderInputs};
use socialrec_dp::Epsilon;
use socialrec_graph::{PreferenceGraph, UserId};
use socialrec_serve::SimMassIndex;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients.
const CLIENTS: u64 = 2;
/// Share of `--seconds` the closed loop runs; the batch sweeps, one
/// after each stretch of it, take about the rest.
const CLOSED_SHARE: f64 = 0.6;
/// Releases published, evenly spaced over each closed-loop segment.
const PUBLISHES: u64 = 120;

/// One set-up: the dataset's preferences, the warm state, the index
/// opened from its artifact, and the accountant with its first release.
struct Prepared {
    prefs: PreferenceGraph,
    warm: Warm,
    mapped: SimMassIndex,
    acct: DynamicRecommender,
    eps: Epsilon,
    release: NoisyClusterAverages,
}

/// Generate the dataset and build up to the first release; returns the
/// set-up and when its build (graphs in memory onwards) began.
fn prepare(cfg: &Config, path: &Path) -> Result<(Prepared, Instant), String> {
    let ds = layers::generate(cfg.seed);
    let t_build = Instant::now();
    let warm = Warm::build(ds.social, cfg.seed);
    layers::index_write(&warm.index, path)?;
    let mapped = layers::index_open(path)?;
    let mut acct = layers::accountant(1 + PUBLISHES as usize);
    let seed = common::release_seed(cfg.seed, 0);
    let (eps, release) = layers::release(&mut acct, warm.clusters.partition(), &ds.prefs, seed)?;
    Ok((Prepared { prefs: ds.prefs, warm, mapped, acct, eps, release }, t_build))
}

pub fn run(cfg: &Config, report: &mut Report) {
    if let Err(e) = run_checked(cfg, report) {
        report.fail(e);
    }
}

fn run_checked(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let path = common::work_dir()?.join("serve-skewed.srart");
    let seed0 = common::release_seed(cfg.seed, 0);
    // A set-up ends with its release published into a daemon over the
    // mapped index. The set-up is dropped, daemon first, then the
    // mapping, before the next one rewrites the artifact.
    let (mut p, build) =
        common::set_up(report, common::SETUP_REPS, "dataset, build, artifact", || {
            let (p, t_build) = prepare(cfg, &path)?;
            {
                let daemon = layers::daemon(p.warm.clusters.partition(), p.mapped.clone(), p.eps);
                let inputs = RecommenderInputs { prefs: &p.prefs, sim: &p.warm.sim };
                Serving::new(&daemon, inputs).publish(seed0, p.release.clone());
            }
            Ok((p, Some(t_build)))
        })?;
    report.metric(
        "build_s",
        build.median(),
        "s",
        format!("graphs to a published mmap daemon, {}", label(0.5, build.len())),
    );

    // The timed phase's daemon, built again from the kept set-up.
    let daemon = layers::daemon(p.warm.clusters.partition(), p.mapped.clone(), p.eps);
    let inputs = RecommenderInputs { prefs: &p.prefs, sim: &p.warm.sim };
    let serving = Serving::new(&daemon, inputs);
    serving.publish(seed0, p.release.clone());

    let num_users = p.warm.social.num_users();
    let num_items = p.prefs.num_items();
    let users: Vec<UserId> = (0..num_users as u32).map(UserId).collect();
    let picker = UserPicker::new(num_users);
    let current = AtomicU64::new(seed0);
    let load = Load { seed: cfg.seed, picker: &picker, current: &current, serving: &serving };
    let partition = p.warm.clusters.partition();
    let (acct, prefs) = (&mut p.acct, &p.prefs);
    let mut spends = vec![p.eps];
    let mut kept = Vec::new();
    let mut refusals = 0u64;

    let segments = common::SEGMENTS as f64;
    let closed = Duration::from_secs_f64(cfg.seconds * CLOSED_SHARE / segments);
    let per = PUBLISHES / common::SEGMENTS;
    let (mut groups, mut publishes) = (Vec::new(), Vec::new());
    let (mut counters, mut sweeps, mut answers) =
        (ShardCounters::default(), Sweeps::default(), Vec::new());
    for segment in 0..common::SEGMENTS {
        let before = serving.counters();
        let start = Instant::now();
        let logs = load::with_clients(load, CLIENTS, report, |report| {
            for j in 1..=per {
                load::sleep_until(start + closed.mul_f64(j as f64 / (per + 1) as f64));
                let k = segment * per + j;
                let _root = trace::span_req("serve.republish", common::REQ_PUBLISH + k);
                let seed = common::release_seed(cfg.seed, k);
                let requested = Instant::now();
                match layers::release(acct, partition, prefs, seed) {
                    Ok((eps, release)) => {
                        spends.push(eps);
                        serving.publish(seed, release);
                        current.store(seed, Ordering::SeqCst);
                        publishes.push((seed, requested, Instant::now()));
                        if k.is_multiple_of(common::KEEP_RELEASE_EVERY) || k == PUBLISHES {
                            kept.extend(serving.published(seed).map(|r| (seed, r)));
                        }
                    }
                    Err(e) => {
                        refusals += 1;
                        report.fail(format!("publish {k}: {e}"));
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
    common::report_queries(report, &segment_logs, "2 closed-loop clients");
    common::report_counters(report, &counters, "closed loops");
    sweeps.report(report);
    let logs: Vec<ClientLog> = groups.into_iter().flatten().collect();

    let first = common::first_answers(&logs);
    let (mut fresh, mut swap_lag) = (Samples::default(), Samples::default());
    for (seed, requested, published) in &publishes {
        if let Some(&at) = first.get(seed) {
            fresh.push((at - *requested).as_secs_f64() * 1e3);
            swap_lag.push(at.saturating_duration_since(*published).as_secs_f64() * 1e3);
        }
    }
    common::report_freshness(report, &fresh, &swap_lag, "accountant release to first answer");

    let last_seed = current.load(Ordering::SeqCst);
    if cfg.trace {
        let ladder = load::ladder(load, report);
        common::report_ladder(report, &ladder);
    }
    let last = serving.published(last_seed).ok_or("the last published release was evicted")?;
    let oracle = Oracle { partition, eps: p.eps, inputs };
    let check_users = common::sample_users(num_users, cfg.seed, common::CHECK_USERS);
    oracle.check(report, &last, check_users.iter().map(|u| &answers[u.index()]), "batch");
    oracle.check_kept(report, &kept, &logs);
    let epochs = serving.epochs();
    let want = 1 + publishes.len() as u64;
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
    let ndcg_users = common::sample_users(num_users, cfg.seed ^ 1, common::NDCG_USERS);
    let sample: Vec<_> = ndcg_users.iter().map(|u| answers[u.index()].clone()).collect();
    common::report_ndcg(report, &inputs, &sample, "last release");
    if cfg.trace {
        common::replay(report, &p.mapped, &last, &logs);
    }
    drop(serving);
    drop(daemon);
    common::check_accountant(report, &p.acct, &spends, refusals);
    common::report_state(report, &p.warm);
    if cfg.trace {
        common::social_tail(&mut p.warm, num_items, cfg.seed, report);
    }
    drop(p);
    std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))
}
