//! What the three workloads share: the timed set-ups, the warm serving
//! state and its incremental social refresh, seeds and samples, the
//! output checks, and the reporting of load, rounds and the kernel/top-N
//! replay.

use crate::layers::{self, ShardCounters, UserPicker};
use crate::load::{self, ClientLog, Ladder, WINDOW};
use crate::stats::{label, Report, Samples};
use crate::trace;
use socialrec_community::{IncrementalLouvain, Partition};
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::{DynamicRecommender, RecommenderInputs, TopN};
use socialrec_dp::Epsilon;
use socialrec_graph::{GraphDelta, SocialGraph, UserId};
use socialrec_serve::SimMassIndex;
use socialrec_similarity::SimilarityMatrix;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run of `serve-skewed` and `churn`; `setup_s` is their
/// median.
pub const SETUP_REPS: u64 = 5;
/// Users whose served answers each build or sweep checks bit for bit.
pub const CHECK_USERS: usize = 48;
/// Users NDCG@10 is averaged over.
pub const NDCG_USERS: usize = 200;
/// Churn rounds that traced runs of `offline-build` and `serve-skewed`
/// make after their timed phase, so that every workload reports the
/// per-layer refresh metrics.
pub const TAIL_ROUNDS: u64 = 8;
/// Stretches `serve-skewed` and `churn` split their timed phase into:
/// each is a closed loop followed by one batch sweep, so that both kinds
/// of sample come from the whole run, across the host's slow spells, and
/// the sweeps from many releases, each with its own place in memory.
pub const SEGMENTS: u64 = 40;
/// Traced queries whose kernel and top-N time the replay measures.
const REPLAY_QUERIES: usize = 4000;
/// Publishes whose index is a multiple of this keep a copy of their
/// release for the answer checks (the last publish always does).
pub const KEEP_RELEASE_EVERY: u64 = 8;

/// Request ids of units of work; query ids stay below `1 << 40`.
pub const REQ_SETUP: u64 = 1 << 40;
pub const REQ_BUILD: u64 = 2 << 40;
pub const REQ_PUBLISH: u64 = 3 << 40;
pub const REQ_ROUND: u64 = 4 << 40;
pub const REQ_TAIL: u64 = 5 << 40;
pub const REQ_CHECK: u64 = 6 << 40;

/// The seed of a run's `k`-th release.
pub fn release_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(k + 1)
}

/// `k` distinct users, fixed by `seed`, ascending.
pub fn sample_users(num_users: usize, seed: u64, k: usize) -> Vec<UserId> {
    use rand::Rng;
    let mut rng = load::rng_for(seed, 0x5A3B_0000);
    let mut picked = BTreeSet::new();
    while picked.len() < k.min(num_users) {
        picked.insert(rng.gen_range(0..num_users as u32));
    }
    picked.into_iter().map(UserId).collect()
}

/// Where runs put their artifact and trace files (inside the checkout).
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run `reps` set-ups, each dropped before the next begins, and report
/// `setup_s`, their median. `once` makes one set-up and returns
/// it with the instant its build began, if it has one; that build ends
/// when `once` returns. Returns the last set-up and the builds' times.
pub fn set_up<P>(
    report: &mut Report,
    reps: u64,
    what: &str,
    mut once: impl FnMut() -> Result<(P, Option<Instant>), String>,
) -> Result<(P, Samples), String> {
    let (mut setup, mut build) = (Samples::default(), Samples::default());
    let mut kept = None;
    for rep in 0..reps {
        let _root = trace::span_req("setup", REQ_SETUP + rep);
        drop(kept.take());
        let t = Instant::now();
        let (p, t_build) = once()?;
        let done = Instant::now();
        setup.push((done - t).as_secs_f64());
        build.extend(t_build.map(|b| (done - b).as_secs_f64()));
        kept = Some(p);
    }
    report.metric(
        "setup_s",
        setup.median(),
        "s",
        format!("median of {} set-ups ({what})", setup.len()),
    );
    Ok((kept.ok_or("no set-up was made")?, build))
}

/// The serving state built from the social graph: similarity, the
/// incremental clustering and the sim-mass index. Churn rounds update
/// all three through the incremental path.
pub struct Warm {
    pub social: SocialGraph,
    pub sim: SimilarityMatrix,
    pub clusters: IncrementalLouvain,
    pub index: SimMassIndex,
}

/// What the social half of one churn round did.
pub struct SocialRound {
    pub sim_dirty: usize,
    pub index_dirty: usize,
    pub moved: usize,
    pub restarted: bool,
}

impl Warm {
    /// Similarity build, multi-restart Louvain, sim-mass index.
    pub fn build(social: SocialGraph, seed: u64) -> Warm {
        let sim = layers::similarity_build(&social);
        let clusters = layers::community_build(&social, seed);
        let index = layers::index_build(&sim, clusters.partition());
        Warm { social, sim, clusters, index }
    }

    /// The social half of a churn round: apply the delta's social
    /// flips, recompute the similarity rows they dirtied, repair the
    /// clustering and splice the index rows that changed.
    pub fn social_round(&mut self, delta: &GraphDelta) -> Result<SocialRound, String> {
        let (social, flips) = layers::apply_social(delta, &self.social)?;
        let (sim, sim_dirty) =
            layers::similarity_update(&self.sim, &self.social, &social, &flips.touched);
        let outcome = layers::community_refresh(&mut self.clusters, &social, &flips.touched);
        let partition = self.clusters.partition();
        let (index, index_dirty) =
            layers::index_update(&self.index, &sim, &sim_dirty, &outcome.moved_users, partition);
        (self.social, self.sim, self.index) = (social, sim, index);
        Ok(SocialRound {
            sim_dirty: sim_dirty.len(),
            index_dirty,
            moved: outcome.moved_users.len(),
            restarted: outcome.restarted,
        })
    }

    /// Check the incrementally kept state against a rebuild from the
    /// current graph under the same partition.
    pub fn check_against_rebuild(&self, report: &mut Report) {
        let _root = trace::span_req("check.rebuild", REQ_CHECK);
        let sim = layers::similarity_build(&self.social);
        report.check(layers::same_similarity(&sim, &self.sim), || {
            "incremental similarity differs from a rebuild".to_string()
        });
        let index = layers::index_build(&sim, self.clusters.partition());
        report.check(index == self.index, || {
            "incremental sim-mass index differs from a rebuild".to_string()
        });
        let q = layers::community_modularity(&self.social, self.clusters.partition());
        let kept = self.clusters.modularity();
        report.check((q - kept).abs() <= 1e-9, || {
            format!("incremental modularity {kept}, rebuilt {q}")
        });
    }
}

/// [`TAIL_ROUNDS`] churn rounds' social half, for the workloads whose
/// timed phase has none, and their per-layer counts.
pub fn social_tail(warm: &mut Warm, num_items: usize, seed: u64, report: &mut Report) {
    let picker = UserPicker::new(warm.social.num_users());
    let mut rng = load::rng_for(seed, 0x7A11_0000);
    let mut rounds = Vec::new();
    for r in 0..TAIL_ROUNDS {
        let delta = layers::churn_delta(&mut rng, &picker, num_items);
        let _root = trace::span_req("tail.social_round", REQ_TAIL + r);
        match warm.social_round(&delta) {
            Ok(round) => {
                report.ops(1);
                rounds.push(round);
            }
            Err(e) => report.fail(format!("tail round {r}: {e}")),
        }
    }
    report_rounds(report, &rounds, "tail rounds after the timed phase");
}

/// The per-round counts of the social half.
pub fn report_rounds(report: &mut Report, rounds: &[SocialRound], what: &str) {
    let n = rounds.len().max(1) as f64;
    let mean = |f: fn(&SocialRound) -> usize| rounds.iter().map(f).sum::<usize>() as f64 / n;
    report.metric(
        "similarity.dirty_rows",
        mean(|r| r.sim_dirty),
        "count",
        format!("mean per round, {what}"),
    );
    report.metric(
        "serve.index_dirty_rows",
        mean(|r| r.index_dirty),
        "count",
        format!("mean per round, {what}"),
    );
    report.metric(
        "community.moved_users",
        mean(|r| r.moved),
        "count",
        format!("mean per round, {what}"),
    );
    let restarts = rounds.iter().filter(|r| r.restarted).count();
    report.metric(
        "community.restart_ratio",
        restarts as f64 / n,
        "ratio",
        format!("{restarts} drift-valve restarts in {} rounds", rounds.len()),
    );
}

/// Sizes of the built state.
pub fn report_state(report: &mut Report, warm: &Warm) {
    report.metric(
        "similarity.entries",
        warm.sim.num_entries() as f64,
        "count",
        "similarity matrix entries",
    );
    report.metric(
        "community.modularity",
        warm.clusters.modularity(),
        "ratio",
        "of the served partition",
    );
    report.metric(
        "serve.index_nnz",
        warm.index.nnz() as f64,
        "count",
        "sim-mass index (cluster, mass) pairs",
    );
}

/// Bitwise equality of two answers: user, items, order and utility bits.
pub fn same_answer(a: &TopN, b: &TopN) -> bool {
    a.user == b.user
        && a.items.len() == b.items.len()
        && a.items
            .iter()
            .zip(&b.items)
            .all(|((ai, au), (bi, bu))| ai == bi && au.to_bits() == bu.to_bits())
}

/// What the answer checks need to recompute an answer.
pub struct Oracle<'a> {
    pub partition: &'a Partition,
    pub eps: Epsilon,
    pub inputs: RecommenderInputs<'a>,
}

impl Oracle<'_> {
    /// Check served answers bit for bit against the framework's own
    /// `A_R` path on the release they were served from.
    pub fn check<'t>(
        &self,
        report: &mut Report,
        release: &NoisyClusterAverages,
        answers: impl IntoIterator<Item = &'t TopN>,
        what: &str,
    ) {
        let _root = trace::span_req("check.answers", REQ_CHECK + 1);
        for served in answers {
            let want = layers::reference_answer(
                self.partition,
                self.eps,
                &self.inputs,
                release,
                served.user,
            );
            report.check(same_answer(served, &want), || {
                format!(
                    "{what}: the answer for user {} differs from the framework's",
                    served.user.0
                )
            });
        }
    }

    /// Check the answers clients kept against the releases kept at
    /// publish time; answers from releases not kept are skipped.
    pub fn check_kept(
        &self,
        report: &mut Report,
        releases: &[(u64, Arc<NoisyClusterAverages>)],
        logs: &[ClientLog],
    ) {
        for (seed, release) in releases {
            let kept =
                logs.iter().flat_map(|l| &l.kept).filter(|(s, _)| s == seed).map(|(_, top)| top);
            self.check(report, release, kept, "single query");
        }
    }
}

/// Mean NDCG@10 of served answers against the exact recommender.
pub fn report_ndcg(
    report: &mut Report,
    inputs: &RecommenderInputs<'_>,
    answers: &[TopN],
    what: &str,
) {
    let _root = trace::span_req("check.ndcg", REQ_CHECK + 2);
    let sum: f64 = answers.iter().map(|a| layers::ndcg(inputs, a)).sum();
    let value = sum / answers.len().max(1) as f64;
    report.metric("ndcg10", value, "ratio", format!("mean over {} users, {what}", answers.len()));
}

/// The accountant's ε must be the sequential composition of the
/// per-release ε, bit for bit, over exactly the releases made.
pub fn check_accountant(
    report: &mut Report,
    acct: &DynamicRecommender,
    spends: &[Epsilon],
    refusals: u64,
) {
    let (total, releases) = layers::accountant_state(acct);
    let composed = layers::compose(spends);
    report.check(total.to_bits() == composed.to_bits() && releases == spends.len(), || {
        format!(
            "accountant ε {total} over {releases} releases; composed {composed} over {}",
            spends.len()
        )
    });
    report.metric(
        "dp.epsilon_spent",
        total,
        "eps",
        format!("accountant total over {releases} releases"),
    );
    report.metric("dp.refusals", refusals as f64, "count", "releases the accountant refused");
}

/// The earliest first answer on each seed across clients.
pub fn first_answers(logs: &[ClientLog]) -> HashMap<u64, Instant> {
    let mut first: HashMap<u64, Instant> = HashMap::new();
    for &(seed, at) in logs.iter().flat_map(|l| &l.first_answer) {
        let e = first.entry(seed).or_insert(at);
        *e = (*e).min(at);
    }
    first
}

pub fn report_freshness(report: &mut Report, fresh: &Samples, swap_lag: &Samples, what: &str) {
    report.metric(
        "freshness_p50_ms",
        fresh.median(),
        "ms",
        format!("{}, {what}", label(0.5, fresh.len())),
    );
    let (q, tail) = fresh.tail();
    report.metric("freshness_tail_ms", tail, "ms", format!("{}, {what}", label(q, fresh.len())));
    report.metric(
        "serve.swap_lag_ms",
        swap_lag.median(),
        "ms",
        format!("publish to first answer, {}", label(0.5, swap_lag.len())),
    );
}

/// Closed-loop throughput and latency, taken per [`WINDOW`] and reported
/// from the run's quietest quarter: the upper quartile of the windows'
/// throughput and the lower quartile of their p50 and p99. Other tenants
/// of the host only ever slow a window down. Each group holds clients
/// that ran at the same time; their windows of the same index add up.
/// Also the tracer's overhead on latency.
pub fn report_queries(report: &mut Report, groups: &[&[ClientLog]], what: &str) {
    let (mut qps, mut p50, mut p99) = (Samples::default(), Samples::default(), Samples::default());
    let mut queries = 0;
    for group in groups {
        let windows = group.iter().map(|l| l.windows.len()).min().unwrap_or(0);
        for w in 0..windows {
            let (mut latency, mut rate) = (Samples::default(), 0.0);
            for log in group.iter() {
                let (lo, t0) = if w == 0 { (0, 0.0) } else { log.windows[w - 1] };
                let (hi, t1) = log.windows[w];
                latency.extend(log.latency_us[lo..hi].iter().copied());
                rate += (hi - lo) as f64 / (t1 - t0);
            }
            queries += latency.len();
            qps.push(rate);
            p50.push(latency.median());
            p99.push(latency.quantile(0.99));
        }
    }
    let logs: Vec<&ClientLog> = groups.iter().flat_map(|g| g.iter()).collect();
    report.ops(logs.iter().map(|l| l.latency_us.len() as u64).sum());
    let windows = format!(
        "quietest quarter of {} windows of {} ms, {queries} queries",
        qps.len(),
        WINDOW.as_millis()
    );
    report.metric("qps", qps.quantile(0.75), "1/s", format!("{windows}, {what}"));
    report.metric(
        "serve.query_p50_us",
        p50.quantile(0.25),
        "us",
        format!("p50 per window, {windows}"),
    );
    report.metric(
        "serve.query_p99_us",
        p99.quantile(0.25),
        "us",
        format!("p99 per window, {windows}"),
    );
    let sum = |f: fn(&ClientLog) -> (f64, u64)| {
        logs.iter().map(|l| f(l)).fold((0.0, 0u64), |(a, b), (c, d)| (a + c, b + d))
    };
    let ((ts, tn), (us, un)) = (sum(|l| l.traced), sum(|l| l.untraced));
    let (value, note) = if tn == 0 || un == 0 {
        (0.0, "no traced and untraced query blocks to compare".to_string())
    } else {
        let pct = (ts / tn as f64) / (us / un as f64) * 100.0 - 100.0;
        (pct, format!("mean latency, {tn} traced vs {un} untraced queries"))
    };
    report.metric("obs.trace_overhead_pct", value, "%", note);
    let depth = logs.iter().map(|l| l.depth_max).max().unwrap_or(0);
    report.metric(
        "serve.queue_depth_max",
        depth as f64,
        "count",
        "admission backlog, sampled after each query",
    );
}

/// Admission and kernel counters of one load phase.
pub fn report_counters(report: &mut Report, c: &ShardCounters, what: &str) {
    let queries: u64 = c.queries.iter().sum();
    let shards = c.queries.len().max(1) as f64;
    let max = c.queries.iter().copied().max().unwrap_or(0) as f64;
    let admissions = c.admissions.max(1) as f64;
    report.metric("serve.admissions", c.admissions as f64, "count", what.to_string());
    report.metric("serve.mean_ride", queries as f64 / admissions, "ratio", "queries per admission");
    report.metric(
        "serve.coalesced_fraction",
        c.coalesced as f64 / queries.max(1) as f64,
        "ratio",
        "share of queries that shared an admission",
    );
    report.metric(
        "serve.shard_skew",
        max / (queries as f64 / shards).max(1e-9),
        "ratio",
        format!("max/mean of shard queries {:?}", c.queries),
    );
    report.metric("serve.kernel_blocks", c.kernel_blocks as f64, "count", what.to_string());
}

/// The ladder's metrics: the p90 at the reference rate, the highest
/// rate meeting the limit, and the generators' lag.
pub fn report_ladder(report: &mut Report, ladder: &Ladder) {
    for s in &ladder.steps {
        eprintln!(
            "  ladder {:>9.0}/s: p90 {:>10.1} us, lag max {:>8.3} ms, late {:>8.3} ms, {}",
            s.rate,
            s.p90_us(),
            s.lag_max_ms,
            s.lag_late_ms,
            if s.passed() { "met" } else { "missed" }
        );
    }
    let reference = &ladder.steps[0];
    report.metric(
        "loadgen.open_p90_us",
        reference.p90_us(),
        "us",
        format!(
            "lower quartile of {} windows' p90, {} requests at {:.0}/s, from scheduled send",
            reference.window_p90_us.len(),
            reference.requests,
            reference.rate
        ),
    );
    report.metric(
        "loadgen.max_rate_qps",
        ladder.max_rate,
        "1/s",
        format!("{} rates tried, limit p90 {} us", ladder.steps.len(), load::LIMIT_US),
    );
    report.metric(
        "loadgen.lag_ms_max",
        reference.lag_max_ms,
        "ms",
        "generator lag at the reference rate",
    );
}

/// `recommend_batch` sweeps over every user, taken at many points of a
/// run.
#[derive(Default)]
pub struct Sweeps {
    rate: Samples,
    users: usize,
}

impl Sweeps {
    /// Sweep every user once; returns the answers.
    pub fn run(
        &mut self,
        report: &mut Report,
        serving: &layers::Serving<'_>,
        users: &[UserId],
        seed: u64,
    ) -> Vec<TopN> {
        self.users = users.len();
        let t = Instant::now();
        let answers = serving.batch(users, seed);
        self.rate.push(users.len() as f64 / t.elapsed().as_secs_f64());
        report.ops(users.len() as u64);
        answers
    }

    /// `batch_users_per_s`: the upper quartile of the sweeps' rates (see
    /// [`report_queries`]).
    pub fn report(&self, report: &mut Report) {
        let note = format!(
            "upper quartile of {} sweeps of {} users over the run",
            self.rate.len(),
            self.users
        );
        report.metric("batch_users_per_s", self.rate.quantile(0.75), "1/s", note);
    }
}

/// The traced run's per-query split: the kernel and top-N time of the
/// users of traced queries, each call timed from outside on a published
/// release, and the admission time derived as the query's latency minus
/// the two.
pub fn replay(
    report: &mut Report,
    index: &SimMassIndex,
    release: &NoisyClusterAverages,
    logs: &[ClientLog],
) {
    let (mut kernel, mut topn, mut admission, mut bytes) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let mut out = Vec::new();
    let queries = logs.iter().flat_map(|l| &l.traced_queries).take(REPLAY_QUERIES);
    for &(user, latency_us) in queries {
        let t = Instant::now();
        layers::kernel_one(release, index, user, &mut out);
        let k = load::us_between(t, Instant::now());
        let t = Instant::now();
        std::hint::black_box(layers::top_n(&out));
        let n = load::us_between(t, Instant::now());
        kernel.push(k);
        topn.push(n);
        admission.push(latency_us - k - n);
        bytes.push((layers::index_row_len(index, user) * out.len() * 8) as f64);
    }
    let users = kernel.len();
    report.metric(
        "serve.kernel_us_per_user",
        kernel.median(),
        "us",
        format!("median of {users} replayed users"),
    );
    report.metric(
        "core.topn_us_per_user",
        topn.median(),
        "us",
        format!("median of {users} replayed users"),
    );
    let derived = format!("derived: latency minus replayed kernel and top-N, {users} queries");
    report.metric("serve.admission_us_p50", admission.median(), "us", derived.clone());
    report.metric("serve.admission_us_p99", admission.quantile(0.99), "us", derived);
    report.metric(
        "serve.kernel_bytes_per_user",
        bytes.mean(),
        "bytes",
        "computed: index row length x items x 8 B of release rows read",
    );
}
