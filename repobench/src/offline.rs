//! `offline-build`: from graphs in memory to a daemon ready to serve,
//! again and again for the run's duration.
//!
//! One build is the offline half of Algorithm 1 and its hand-over to
//! serving: `SimilarityMatrix::build`, `Louvain::run_best_of`,
//! `SimMassIndex::build`, the accountant's release, a sharded daemon and
//! the publish (`build_s`). The daemon's first answer ends the build's
//! freshness (`freshness_*`, from graphs in memory: `build_s` plus one
//! query). The build's release is also published into three more daemons
//! over the same index; on each of the four, every user is served in one
//! batch and one client probes with single queries for a moment (`qps`).
//! Admission and hot swap do almost nothing here.
//! Every build has the same inputs and release seed, so its partition
//! and release must equal the first build's bit for bit. NDCG@10 against
//! the exact recommender is taken on the first build. Traced runs then
//! run the open-loop rate ladder against the last build's release and a
//! few churn rounds from its state.

use crate::common::{self, Oracle, Sweeps, Warm};
use crate::layers::{self, Serving, ShardCounters, UserPicker};
use crate::load::{self, Load};
use crate::stats::{Report, Samples};
use crate::trace;
use crate::Config;
use socialrec_community::Partition;
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::RecommenderInputs;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Dataset generations `setup_s` is the median of: one takes about a
/// quarter second and varies by a fifth from the next, so more than the
/// other workloads' set-ups.
const SETUP_REPS: u64 = 15;
/// Builds a run makes at least, however short `--seconds` is.
const MIN_BUILDS: u64 = 3;
/// Releases the run's accountant plans for: one per build.
const MAX_BUILDS: u64 = 256;
/// Daemons each build's release is published into. How fast a daemon
/// answers depends on where its buffers and its copy of the release land
/// in memory: on a 2-vCPU KVM guest, bit-identical daemons of one build
/// answered one client at 22k to 35k queries/s. So the batch sweeps and
/// the probe spread over several.
const DAEMONS: u64 = 4;
/// How long one client probes each daemon with single queries.
const PROBE: Duration = Duration::from_millis(500);

pub fn run(cfg: &Config, report: &mut Report) {
    if let Err(e) = run_checked(cfg, report) {
        report.fail(e);
    }
}

fn run_checked(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let (ds, _) = common::set_up(report, SETUP_REPS, "dataset generation", || {
        Ok((layers::generate(cfg.seed), None))
    })?;
    let num_users = ds.social.num_users();
    let users: Vec<UserId> = (0..num_users as u32).map(UserId).collect();
    let check_users = common::sample_users(num_users, cfg.seed, common::CHECK_USERS);
    let ndcg_users = common::sample_users(num_users, cfg.seed ^ 1, common::NDCG_USERS);
    let picker = UserPicker::new(num_users);
    let seed = common::release_seed(cfg.seed, 0);
    let mut acct = layers::accountant(MAX_BUILDS as usize);
    let (mut spends, mut refusals) = (Vec::new(), 0u64);
    let (mut build, mut sweeps) = (Samples::default(), Sweeps::default());
    let (mut fresh, mut swap_lag) = (Samples::default(), Samples::default());
    let mut logs = Vec::new();
    let mut counters = ShardCounters::default();
    let mut first: Option<(Partition, NoisyClusterAverages)> = None;
    let mut last: Option<(Warm, NoisyClusterAverages, Epsilon)> = None;
    let start = Instant::now();
    let mut b = 0u64;
    while b < MIN_BUILDS || (start.elapsed().as_secs_f64() < cfg.seconds && b < MAX_BUILDS) {
        let _root = trace::span_req("offline.build", common::REQ_BUILD + b);
        drop(last.take());
        let social = ds.social.clone();
        let t0 = Instant::now();
        let warm = Warm::build(social, cfg.seed);
        let (eps, release) =
            match layers::release(&mut acct, warm.clusters.partition(), &ds.prefs, seed) {
                Ok(r) => r,
                Err(e) => {
                    refusals += 1;
                    report.fail(format!("build {b}: {e}"));
                    break;
                }
            };
        spends.push(eps);
        {
            let daemon = layers::daemon(warm.clusters.partition(), warm.index.clone(), eps);
            let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &warm.sim };
            let serving = Serving::new(&daemon, inputs);
            serving.publish(seed, release.clone());
            let published = Instant::now();
            build.push((published - t0).as_secs_f64());
            let answer = serving.query(check_users[0], seed, 0);
            let answered = Instant::now();
            fresh.push((answered - t0).as_secs_f64() * 1e3);
            swap_lag.push((answered - published).as_secs_f64() * 1e3);

            report.ops(1);
            let oracle = Oracle { partition: warm.clusters.partition(), eps, inputs };
            oracle.check(report, &release, [&answer], "first query");

            // More daemons over the same index and release, alive together
            // so that each has allocations of its own. Each serves every
            // user in one batch, then the probe.
            let more: Vec<_> = (1..DAEMONS)
                .map(|_| layers::daemon(warm.clusters.partition(), warm.index.clone(), eps))
                .collect();
            let daemons: Vec<_> = std::iter::once(serving)
                .chain(more.iter().map(|d| Serving::new(d, inputs)))
                .collect();
            for s in &daemons[1..] {
                s.publish(seed, release.clone());
            }
            for (k, s) in (0u64..).zip(&daemons) {
                let answers = sweeps.run(report, s, &users, seed);
                let checked = check_users.iter().map(|u| &answers[u.index()]);
                oracle.check(report, &release, checked, "batch");
                if b == 0 && k == 0 {
                    let sample: Vec<_> =
                        ndcg_users.iter().map(|u| answers[u.index()].clone()).collect();
                    common::report_ndcg(report, &inputs, &sample, "first build");
                }

                let before = s.counters();
                let current = AtomicU64::new(seed);
                let client_seed = cfg.seed ^ (b * DAEMONS + k);
                let load =
                    Load { seed: client_seed, picker: &picker, current: &current, serving: s };
                let mut probe = load::with_clients(load, 1, report, |_| std::thread::sleep(PROBE));
                counters = counters.plus(&s.counters().since(&before));
                let kept = probe.iter().flat_map(|l| &l.kept).map(|(_, a)| a);
                oracle.check(report, &release, kept, "probe query");
                report.check(s.epochs() == 1, || {
                    format!("build {b}, daemon {k}: {} release epochs", s.epochs())
                });
                logs.append(&mut probe);
            }
        }
        if let Some((partition, first_release)) = &first {
            let same = partition == warm.clusters.partition()
                && layers::same_release(first_release, &release);
            report.check(same, || format!("build {b} differs from the first build"));
        } else {
            first = Some((warm.clusters.partition().clone(), release.clone()));
        }
        last = Some((warm, release, eps));
        b += 1;
    }
    let (mut warm, release, eps) = last.ok_or("no build was released")?;

    // The quietest quarter of the builds (see `common::report_queries`).
    report.metric(
        "build_s",
        build.quantile(0.25),
        "s",
        format!("lower quartile of {} builds", build.len()),
    );
    sweeps.report(report);
    let groups: Vec<&[_]> = logs.iter().map(std::slice::from_ref).collect();
    common::report_queries(report, &groups, "one client probing each build's daemon");
    common::report_counters(report, &counters, "probe queries of every build");
    common::report_freshness(report, &fresh, &swap_lag, "graphs in memory to the first answer");
    common::check_accountant(report, &acct, &spends, refusals);
    common::report_state(report, &warm);

    let epochs = (b * DAEMONS) as f64;
    report.metric("serve.release_epochs", epochs, "count", "one publish per daemon of each build");
    let swaps = counters.release_swaps as f64;
    report.metric("serve.release_swaps", swaps, "count", "epoch-cell flips, builds' daemons");
    // Traced runs add the open-loop ladder, against the last build's
    // release published again into a fresh daemon: no new release, no new
    // spend.
    if cfg.trace {
        let daemon = layers::daemon(warm.clusters.partition(), warm.index.clone(), eps);
        let serving = Serving::new(&daemon, RecommenderInputs { prefs: &ds.prefs, sim: &warm.sim });
        serving.publish(seed, release.clone());
        let current = AtomicU64::new(seed);
        let load = Load { seed: cfg.seed, picker: &picker, current: &current, serving: &serving };
        let ladder = load::ladder(load, report);
        common::report_ladder(report, &ladder);
        report.check(serving.epochs() == 1, || {
            format!("ladder daemon: {} release epochs", serving.epochs())
        });
        common::replay(report, &warm.index, &release, &logs);
        drop(serving);
        drop(daemon);
        common::social_tail(&mut warm, ds.prefs.num_items(), cfg.seed, report);
    }
    Ok(())
}
