//! The one adapter between the benchmark and the library.
//!
//! Every call the benchmark makes into a socialrec crate is a function
//! here, and each opens a tracer span named after the layer it enters,
//! so a change to a library API edits this file only. Serving uses the
//! publish-then-serve path alone: releases come from a
//! `DynamicRecommender` (the accountant) and are published into a
//! `ShardedServer`, and queries only ask for published generations, so
//! the daemon never builds a release on a miss. No `RecommendationServer`,
//! `ReleaseCache` or `*_reference` function is called.

use crate::trace::span;
use rand::rngs::SmallRng;
use rand::Rng;
use socialrec_community::{modularity, IncrementalLouvain, Louvain, Partition, RefreshOutcome};
use socialrec_core::private::{ClusterFramework, NoisyClusterAverages};
use socialrec_core::{
    per_user_ndcg, top_n_items, BudgetSchedule, DynamicRecommender, ExactRecommender,
    RecommenderInputs, TopN,
};
use socialrec_datasets::{flixster_like, Dataset};
use socialrec_dp::{Epsilon, PrivacyAccountant};
use socialrec_graph::{
    GraphDelta, ItemId, PreferenceGraph, SocialDeltaReport, SocialGraph, UserId,
};
use socialrec_obs::Gauge;
use socialrec_serve::loadgen::{poisson_interarrival, Zipf};
use socialrec_serve::{dirty_index_rows, kernel, ShardedServer, SimMassIndex};
use socialrec_similarity::{dirty_rows, Measure, SimilarityMatrix, ValueKind};
use std::path::Path;
use std::sync::Arc;

/// Dataset size, as a share of the paper's Flixster (1.0 = 137,372
/// users): about 13.7k users and 4.9k items.
pub const SCALE: f64 = 0.1;
/// The similarity measure of every workload: common neighbours.
pub const MEASURE: Measure = Measure::CommonNeighbors;
/// Items per answer.
pub const TOP_N: usize = 10;
/// Shards of every daemon.
pub const SHARDS: usize = 4;
/// Louvain restarts of a full clustering.
pub const RESTARTS: usize = 3;
/// Modularity the incremental clustering may lose before it restarts.
pub const DRIFT: f64 = 0.02;
/// The ε of every release.
pub const EPSILON_PER_RELEASE: f64 = 0.5;
/// Zipf exponent of user popularity.
pub const ZIPF_S: f64 = 1.0;
/// Social edge flips per churn delta.
pub const SOCIAL_PER_ROUND: usize = 8;
/// Preference flips per churn delta.
pub const PREF_PER_ROUND: usize = 8;

// ---- inputs ----------------------------------------------------------

/// The Flixster-shaped synthetic dataset (hub-heavy social graph).
pub fn generate(seed: u64) -> Dataset {
    let _s = span("datasets.generate");
    flixster_like(SCALE, seed)
}

/// Zipf popularity over users, with ranks spread over user ids by a
/// multiplicative hash: the most popular users are not the generator's
/// low-id hubs, which would all land in shard 0.
pub struct UserPicker {
    zipf: Zipf,
    users: u64,
}

impl UserPicker {
    pub fn new(num_users: usize) -> UserPicker {
        UserPicker { zipf: Zipf::new(num_users, ZIPF_S), users: num_users as u64 }
    }

    pub fn pick(&self, rng: &mut SmallRng) -> UserId {
        let rank = self.zipf.sample(rng) as u64;
        UserId((rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.users) as u32)
    }
}

/// One exponential inter-arrival gap (seconds) at `rate` per second.
pub fn poisson_gap(rng: &mut SmallRng, rate: f64) -> f64 {
    poisson_interarrival(rng, rate)
}

/// A churn delta: social flips (80% arrivals) between popular users and
/// preference flips of popular users onto uniform items.
pub fn churn_delta(rng: &mut SmallRng, picker: &UserPicker, num_items: usize) -> GraphDelta {
    let mut d = GraphDelta::new();
    while d.num_social() < SOCIAL_PER_ROUND {
        let (u, v) = (picker.pick(rng), picker.pick(rng));
        if u != v {
            let queued = if rng.gen_bool(0.8) { d.add_social(u, v) } else { d.remove_social(u, v) };
            queued.expect("distinct endpoints are a valid social flip");
        }
    }
    for _ in 0..PREF_PER_ROUND {
        let u = picker.pick(rng);
        let i = ItemId(rng.gen_range(0..num_items as u32));
        if rng.gen_bool(0.8) {
            d.add_preference(u, i);
        } else {
            d.remove_preference(u, i);
        }
    }
    d
}

// ---- graph -----------------------------------------------------------

pub fn apply_social(
    delta: &GraphDelta,
    g: &SocialGraph,
) -> Result<(SocialGraph, SocialDeltaReport), String> {
    let _s = span("graph.apply_social");
    delta.apply_social(g).map_err(|e| e.to_string())
}

pub fn apply_preferences(
    delta: &GraphDelta,
    prefs: &PreferenceGraph,
) -> Result<PreferenceGraph, String> {
    let _s = span("graph.apply_preferences");
    delta.apply_preferences(prefs).map(|(p, _)| p).map_err(|e| e.to_string())
}

// ---- similarity ------------------------------------------------------

pub fn similarity_build(g: &SocialGraph) -> SimilarityMatrix {
    let _s = span("similarity.build");
    SimilarityMatrix::build(g, &MEASURE)
}

/// Recompute the rows a social delta may have changed; returns the new
/// matrix and those rows.
pub fn similarity_update(
    sim: &SimilarityMatrix,
    old: &SocialGraph,
    new: &SocialGraph,
    touched: &[UserId],
) -> (SimilarityMatrix, Vec<UserId>) {
    let dirty = {
        let _s = span("similarity.dirty_rows");
        dirty_rows(&MEASURE, old, new, touched)
    };
    let _s = span("similarity.update_rows");
    (sim.update_rows(new, &MEASURE, &dirty), dirty)
}

/// Bitwise equality of two similarity matrices.
pub fn same_similarity(a: &SimilarityMatrix, b: &SimilarityMatrix) -> bool {
    a.num_users() == b.num_users()
        && (0..a.num_users() as u32).all(|u| {
            let ((an, av), (bn, bv)) = (a.row(UserId(u)), b.row(UserId(u)));
            an == bn
                && av.len() == bv.len()
                && av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

// ---- community -------------------------------------------------------

/// Multi-restart Louvain (`Louvain::run_best_of`), kept as the state of
/// an incremental clustering.
pub fn community_build(g: &SocialGraph, seed: u64) -> IncrementalLouvain {
    let _s = span("community.louvain");
    IncrementalLouvain::new(Louvain { seed, ..Louvain::default() }, RESTARTS, DRIFT, g)
}

pub fn community_refresh(
    clusters: &mut IncrementalLouvain,
    g: &SocialGraph,
    touched: &[UserId],
) -> RefreshOutcome {
    let _s = span("community.refresh");
    clusters.refresh(g, touched)
}

pub fn community_modularity(g: &SocialGraph, partition: &Partition) -> f64 {
    let _s = span("check.modularity");
    modularity(g, partition)
}

// ---- dp --------------------------------------------------------------

/// An accountant planned for `releases` releases of
/// [`EPSILON_PER_RELEASE`] each.
pub fn accountant(releases: usize) -> DynamicRecommender {
    let total = Epsilon::Finite(EPSILON_PER_RELEASE * releases as f64);
    DynamicRecommender::new(total, BudgetSchedule::Uniform { releases })
}

/// The accountant's next release of the noisy per-cluster averages.
pub fn release(
    acct: &mut DynamicRecommender,
    partition: &Partition,
    prefs: &PreferenceGraph,
    seed: u64,
) -> Result<(Epsilon, NoisyClusterAverages), String> {
    let _s = span("dp.release");
    acct.release_averages(partition, prefs, seed)
}

/// `(total ε, releases)` the accountant has recorded.
pub fn accountant_state(acct: &DynamicRecommender) -> (f64, usize) {
    (acct.accountant().total_epsilon(), acct.accountant().releases())
}

/// The total ε of `spends` composed sequentially.
pub fn compose(spends: &[Epsilon]) -> f64 {
    let mut acct = PrivacyAccountant::new();
    for &e in spends {
        acct.spend_sequential(e);
    }
    acct.total_epsilon()
}

/// Bitwise equality of two releases.
pub fn same_release(a: &NoisyClusterAverages, b: &NoisyClusterAverages) -> bool {
    a.num_clusters() == b.num_clusters()
        && a.values().len() == b.values().len()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---- serve.index -----------------------------------------------------

pub fn index_build(sim: &SimilarityMatrix, partition: &Partition) -> SimMassIndex {
    let _s = span("serve.index_build");
    SimMassIndex::build(sim, partition)
}

/// Splice the index rows a refresh changed; returns the new index and
/// the number of rows recomputed.
pub fn index_update(
    index: &SimMassIndex,
    sim: &SimilarityMatrix,
    sim_dirty: &[UserId],
    moved: &[UserId],
    partition: &Partition,
) -> (SimMassIndex, usize) {
    let dirty = {
        let _s = span("serve.dirty_index_rows");
        dirty_index_rows(sim, sim_dirty, moved)
    };
    let _s = span("serve.index_update_rows");
    (index.update_rows(sim, partition, &dirty), dirty.len())
}

pub fn index_write(index: &SimMassIndex, path: &Path) -> Result<(), String> {
    let _s = span("serve.artifact_write");
    index
        .write_artifact(path, ValueKind::F64)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn index_open(path: &Path) -> Result<SimMassIndex, String> {
    let _s = span("serve.artifact_open");
    SimMassIndex::open_artifact(path).map_err(|e| format!("opening {}: {e}", path.display()))
}

// ---- serve.kernel and core.topn ---------------------------------------

/// One user's utilities through the serving kernel (a one-user block).
pub fn kernel_one(
    release: &NoisyClusterAverages,
    index: &SimMassIndex,
    user: UserId,
    out: &mut Vec<f64>,
) {
    let _s = span("serve.kernel");
    kernel::utilities_block_tiled(
        release,
        index,
        std::slice::from_ref(&user),
        kernel::ITEM_TILE,
        out,
    );
}

pub fn top_n(utilities: &[f64]) -> Vec<(ItemId, f64)> {
    let _s = span("core.topn");
    top_n_items(utilities, TOP_N)
}

/// Stored `(cluster, mass)` pairs of one user's index row.
pub fn index_row_len(index: &SimMassIndex, user: UserId) -> usize {
    index.row_vals(user).0.len()
}

// ---- serve (daemon) --------------------------------------------------

pub fn daemon<'p>(
    partition: &'p Partition,
    index: SimMassIndex,
    eps: Epsilon,
) -> ShardedServer<'p> {
    let _s = span("serve.daemon");
    ShardedServer::from_index(partition, index, eps, SHARDS)
}

/// Per-shard counters of a daemon, from its metrics registry.
#[derive(Clone, Debug, Default)]
pub struct ShardCounters {
    pub queries: Vec<u64>,
    pub admissions: u64,
    pub coalesced: u64,
    pub kernel_blocks: u64,
    pub release_swaps: u64,
}

impl ShardCounters {
    /// Counts accrued since `before`.
    pub fn since(&self, before: &ShardCounters) -> ShardCounters {
        ShardCounters {
            queries: self.queries.iter().zip(&before.queries).map(|(a, b)| a - b).collect(),
            admissions: self.admissions - before.admissions,
            coalesced: self.coalesced - before.coalesced,
            kernel_blocks: self.kernel_blocks - before.kernel_blocks,
            release_swaps: self.release_swaps - before.release_swaps,
        }
    }

    /// Counts of two daemons (or phases) together.
    pub fn plus(&self, other: &ShardCounters) -> ShardCounters {
        let len = self.queries.len().max(other.queries.len());
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        ShardCounters {
            queries: (0..len).map(|i| at(&self.queries, i) + at(&other.queries, i)).collect(),
            admissions: self.admissions + other.admissions,
            coalesced: self.coalesced + other.coalesced,
            kernel_blocks: self.kernel_blocks + other.kernel_blocks,
            release_swaps: self.release_swaps + other.release_swaps,
        }
    }
}

/// A daemon with the inputs its queries carry and handles on its
/// per-shard admission-depth gauges.
pub struct Serving<'a> {
    daemon: &'a ShardedServer<'a>,
    inputs: RecommenderInputs<'a>,
    depth: Vec<Arc<Gauge>>,
}

impl<'a> Serving<'a> {
    pub fn new(daemon: &'a ShardedServer<'a>, inputs: RecommenderInputs<'a>) -> Serving<'a> {
        let depth = (0..daemon.num_shards())
            .map(|s| daemon.registry().gauge(format!("serve.shard{s}.queue_depth")))
            .collect();
        Serving { daemon, inputs, depth }
    }

    /// Publish an accountant's release under `seed`; returns its generation.
    pub fn publish(&self, seed: u64, release: NoisyClusterAverages) -> u64 {
        let _s = span("serve.publish");
        self.daemon.publish_release(seed, release)
    }

    /// One single-user query through the coalescing admission path.
    pub fn query(&self, user: UserId, seed: u64, request: u64) -> TopN {
        let _s = crate::trace::span_req("serve.query", request);
        self.daemon.recommend_one(&self.inputs, user, TOP_N, seed)
    }

    pub fn batch(&self, users: &[UserId], seed: u64) -> Vec<TopN> {
        let _s = span("serve.batch");
        self.daemon.recommend_batch(&self.inputs, users, TOP_N, seed)
    }

    /// Admission backlog the user's shard saw at its latest enqueue.
    pub fn depth_of(&self, user: UserId) -> i64 {
        self.depth[self.daemon.shard_of(user)].get()
    }

    /// The release published under `seed`, while the daemon retains it.
    pub fn published(&self, seed: u64) -> Option<Arc<NoisyClusterAverages>> {
        self.daemon.exchange().get(self.daemon.generation_for(seed))
    }

    /// Releases the daemon's exchange has installed (builds plus publishes).
    pub fn epochs(&self) -> u64 {
        self.daemon.exchange().epoch()
    }

    /// Whether every shard serves the generation of `seed`.
    pub fn all_shards_on(&self, seed: u64) -> bool {
        let generation = self.daemon.generation_for(seed);
        self.daemon.shard_generations().iter().all(|&g| g == Some(generation))
    }

    pub fn counters(&self) -> ShardCounters {
        let snap = self.daemon.registry().snapshot();
        let get =
            |name: String| snap.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        let sum = |suffix: &str| {
            (0..self.daemon.num_shards()).map(|s| get(format!("serve.shard{s}.{suffix}"))).sum()
        };
        ShardCounters {
            queries: (0..self.daemon.num_shards())
                .map(|s| get(format!("serve.shard{s}.queries")))
                .collect(),
            admissions: sum("admissions"),
            coalesced: sum("coalesced"),
            kernel_blocks: sum("kernel_blocks"),
            release_swaps: sum("release_swaps"),
        }
    }
}

// ---- output checks ---------------------------------------------------

/// The framework's own `A_R` path (similarity rows and partition, then
/// top-N) on a published release: what a served answer must equal, bit
/// for bit. It is `ClusterFramework::recommend` with the release taken
/// as published rather than drawn again.
pub fn reference_answer(
    partition: &Partition,
    eps: Epsilon,
    inputs: &RecommenderInputs<'_>,
    release: &NoisyClusterAverages,
    user: UserId,
) -> TopN {
    let _s = span("check.reference");
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    ClusterFramework::new(partition, eps).utility_estimates_into(
        inputs,
        release,
        user,
        &mut scratch,
        &mut out,
    );
    TopN { user, items: top_n_items(&out, TOP_N) }
}

/// NDCG@10 of a served answer against the exact recommender's utilities.
pub fn ndcg(inputs: &RecommenderInputs<'_>, served: &TopN) -> f64 {
    let _s = span("check.exact");
    let ideal = ExactRecommender.utilities(inputs, served.user);
    per_user_ndcg(&ideal, &served.item_ids(), TOP_N)
}

// ---- run context -------------------------------------------------------

/// Peak resident set of the process (MiB), NaN where unavailable.
pub fn peak_rss_mib() -> f64 {
    socialrec_obs::sample_memory().map_or(f64::NAN, |m| m.peak_rss_bytes as f64 / (1024.0 * 1024.0))
}

/// `(active, detected, requested)` SIMD tiers of the serving kernels.
pub fn simd_tiers() -> (&'static str, &'static str, String) {
    (
        socialrec_simd::active().name(),
        socialrec_simd::detected().name(),
        socialrec_simd::requested().map_or_else(|| "none".to_string(), |r| r.name().to_string()),
    )
}

/// Worker threads of the parallel regions.
pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}
