//! The sharded, coalescing serving daemon.
//!
//! [`ShardedServer`] splits the user space into contiguous ranges —
//! **shards** — each with its own [`EpochCell`] onto the current
//! release and its own [`AdmissionQueue`]. Every shard reads the
//! daemon's one immutable [`SimMassIndex`] by global user id; apart
//! from it and the release, a query touches only its shard's state:
//!
//! * **Admission** — [`recommend_one`](ShardedServer::recommend_one)
//!   enqueues on the user's shard; concurrent singles coalesce into one
//!   batch that rides the item-tiled kernel (`kernel.rs`), amortizing
//!   release lookup and tile traversal that the uncoalesced path pays
//!   per query.
//! * **Publish, then serve** — the daemon never draws noise. A release
//!   reaches it only through [`publish_release`](ShardedServer::publish_release),
//!   typically from `DynamicRecommender::release_averages`, whose
//!   accountant has already debited the spend. The daemon-wide
//!   [`ReleaseExchange`] keys it by generation (partition, ε, seed) and
//!   retains the predecessor, so in-flight traffic admitted before a
//!   swap completes on the release it asked for; each shard flips its
//!   [`EpochCell`] on its next query. Each response is computed wholly
//!   from one generation's release — responses never mix generations.
//! * **Refusal** — a query whose seed names no retained generation
//!   (never published, or evicted) or whose user is outside the
//!   partition gets an empty list, never a fresh release or a panic.
//!   Each refused query counts once, in the daemon-wide
//!   `serve.refused` counter, and, when the journal is armed, emits one
//!   `query_refused` event carrying the user and the reason.
//! * **Metrics** — every shard registers named counters
//!   (`serve.shard<i>.queries`, `.admissions`, `.coalesced`,
//!   `.kernel_blocks`, `.release_swaps`), a `.generation` gauge, and a
//!   `.query_ns` latency histogram in the daemon's own
//!   [`MetricsRegistry`], so load skew and coalescing efficiency are
//!   visible per shard. The registry is the daemon's only latency and
//!   error record: each single query is timed once, into its shard's
//!   `.query_ns`.
//!
//! # Floating-point contract
//!
//! Sharding and coalescing are both invisible to the output bits. Every
//! shard reads the same index rows, each user's utilities are
//! accumulated independently by the kernel regardless of batch
//! composition, and top-N selection is the shared [`top_n_items`].
//! Every answer equals the framework's `A_R` on the *published* release
//! — what `ClusterFramework::recommend` returns when it draws that same
//! release — so the serving layer adds zero accuracy loss on top of DP
//! noise.

use crate::coalesce::{AdmissionQueue, PendingQuery};
use crate::hotswap::{EpochCell, ReleaseExchange};
use crate::kernel;
use crate::SimMassIndex;
use rayon::prelude::*;
use rustc_hash::FxHasher;
use socialrec_community::Partition;
use socialrec_core::private::framework::NoisyClusterAverages;
use socialrec_core::{top_n_items, RecommenderInputs, TopN};
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_obs::journal::{
    self, EventKind, REFUSED_UNPUBLISHED_GENERATION, REFUSED_USER_OUTSIDE_PARTITION,
};
use socialrec_obs::{span, Counter, Gauge, LatencyHistogram, MetricsRegistry};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// Fingerprint of a partition: hash of its full cluster assignment.
fn partition_fingerprint(partition: &Partition) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(partition.num_users());
    for &c in partition.assignment() {
        h.write_u32(c);
    }
    h.finish()
}

/// The release generation: a single `u64` naming one published release.
/// Two keys agree iff they agree on the partition, ε, and seed. The noise
/// model is not part of the key: it is a property of the published
/// release, not of the daemon.
fn release_generation(partition_fingerprint: u64, epsilon: Epsilon, seed: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(partition_fingerprint);
    match epsilon {
        Epsilon::Finite(e) => {
            h.write_u8(0);
            h.write_u64(e.to_bits());
        }
        Epsilon::Infinite => h.write_u8(1),
    }
    h.write_u64(seed);
    h.finish()
}

/// One user-range shard: the serving state for its users.
struct Shard {
    /// This shard's position in the daemon's shard table.
    position: u64,
    /// The release epoch this shard is currently serving.
    epoch: EpochCell,
    /// Flat-combining admission for single queries.
    queue: AdmissionQueue,
    /// Individual queries admitted (coalesced singles and batch rows).
    queries: Arc<Counter>,
    /// Leader executions — drained admission batches.
    admissions: Arc<Counter>,
    /// Queries that shared an admission batch with at least one other
    /// (batch size > 1). `coalesced / queries` is the coalescing rate;
    /// `queries / admissions` the mean ride size.
    coalesced: Arc<Counter>,
    /// Item-tiled kernel invocations (user blocks).
    kernel_blocks: Arc<Counter>,
    /// Epoch-cell flips (release swaps observed by this shard).
    release_swaps: Arc<Counter>,
    /// The generation currently in the epoch cell (as `i64` bits).
    generation: Arc<Gauge>,
    /// Admission backlog observed at enqueue time (queries pending a
    /// leader when this one arrived).
    queue_depth: Arc<Gauge>,
    /// End-to-end single-query latency (admission to answer).
    latency: Arc<LatencyHistogram>,
}

/// One user block of a batch: its shard, the shard's release, and the
/// `(position in the batch, user)` pairs it answers.
type BlockTask<'a> = (&'a Shard, Arc<NoisyClusterAverages>, &'a [(usize, UserId)]);

/// The sharded, coalescing serving daemon. See the module docs.
pub struct ShardedServer<'p> {
    partition: &'p Partition,
    epsilon: Epsilon,
    fingerprint: u64,
    exchange: ReleaseExchange,
    /// The one index every shard reads, by global user id.
    index: SimMassIndex,
    shards: Vec<Shard>,
    /// Users per shard (last shard may be ragged).
    chunk: usize,
    registry: Arc<MetricsRegistry>,
    /// Queries answered with an empty list (see the module docs).
    refused: Arc<Counter>,
}

impl<'p> ShardedServer<'p> {
    /// Build a daemon over `num_shards` contiguous user ranges, serving
    /// releases of `partition` at `epsilon` from `index` — built in RAM
    /// ([`SimMassIndex::build`]) or read from an artifact
    /// ([`SimMassIndex::open_artifact`]). Every shard reads this one
    /// index. It must cover exactly `partition`'s users and have been
    /// built against that partition. `num_shards` is clamped to
    /// `[1, num_users]` (a 0-user partition gets 0 shards). The daemon
    /// answers nothing until a release is published.
    pub fn from_index(
        partition: &'p Partition,
        index: SimMassIndex,
        epsilon: Epsilon,
        num_shards: usize,
    ) -> ShardedServer<'p> {
        let n = partition.num_users();
        assert_eq!(index.num_users(), n, "index must cover the partition's users");
        assert_eq!(
            index.num_clusters(),
            partition.num_clusters(),
            "index was built against a different partition"
        );
        let chunk = n.div_ceil(num_shards.clamp(1, n.max(1))).max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let shards = (0..n.div_ceil(chunk))
            .map(|s| Shard {
                position: s as u64,
                epoch: EpochCell::new(),
                queue: AdmissionQueue::new(),
                queries: registry.counter(format!("serve.shard{s}.queries")),
                admissions: registry.counter(format!("serve.shard{s}.admissions")),
                coalesced: registry.counter(format!("serve.shard{s}.coalesced")),
                kernel_blocks: registry.counter(format!("serve.shard{s}.kernel_blocks")),
                release_swaps: registry.counter(format!("serve.shard{s}.release_swaps")),
                generation: registry.gauge(format!("serve.shard{s}.generation")),
                queue_depth: registry.gauge(format!("serve.shard{s}.queue_depth")),
                latency: registry.histogram(format!("serve.shard{s}.query_ns")),
            })
            .collect();
        ShardedServer {
            partition,
            epsilon,
            fingerprint: partition_fingerprint(partition),
            exchange: ReleaseExchange::new(),
            index,
            shards,
            chunk,
            refused: registry.counter("serve.refused"),
            registry,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `user` (a user outside the partition maps past
    /// the owning range and is refused by the query methods).
    pub fn shard_of(&self, user: UserId) -> usize {
        user.index() / self.chunk
    }

    /// The daemon's metrics registry (per-shard counters live here).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A shared handle to the registry (e.g. for an
    /// [`socialrec_obs::IntrospectionServer`], which outlives borrows
    /// of the daemon).
    pub fn registry_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The daemon-wide release exchange (epoch counter, retained
    /// generations).
    pub fn exchange(&self) -> &ReleaseExchange {
        &self.exchange
    }

    /// The generation each shard's epoch cell currently serves
    /// (`None` until a shard's first answered query).
    pub fn shard_generations(&self) -> Vec<Option<u64>> {
        self.shards.iter().map(|s| s.epoch.generation()).collect()
    }

    /// The release generation queries with `seed` resolve to.
    pub fn generation_for(&self, seed: u64) -> u64 {
        release_generation(self.fingerprint, self.epsilon, seed)
    }

    /// Hot-swap a release into the daemon under live load: the release
    /// for `seed` — typically from `DynamicRecommender::release_averages`,
    /// whose accountant already debited the spend — becomes the ready
    /// generation in the exchange, and queries carrying `seed` flip to it
    /// on their next admission. Queries for the older retained
    /// generation keep being answered throughout. This is the only way a
    /// release reaches the daemon.
    ///
    /// Returns the generation id queries with `seed` resolve to. The
    /// averages must come from this daemon's partition and ε with
    /// `seed`, otherwise served bits would not match the generation
    /// contract. Publishing an already-present generation is a no-op.
    pub fn publish_release(&self, seed: u64, averages: NoisyClusterAverages) -> u64 {
        let _span = span!("update.publish");
        assert_eq!(
            averages.num_clusters(),
            self.partition.num_clusters(),
            "published release was built against a different partition"
        );
        let generation = self.generation_for(seed);
        self.exchange.publish(generation, Arc::new(averages));
        generation
    }

    /// The shard owning `user`, or `None` for a user outside the
    /// partition.
    fn owning_shard(&self, user: UserId) -> Option<usize> {
        (user.index() < self.partition.num_users()).then(|| self.shard_of(user))
    }

    /// The published release for `seed`, from the shard's epoch cell
    /// when current, otherwise from the exchange followed by an epoch
    /// flip of this shard. `None` when the exchange retains no release
    /// for the seed's generation.
    fn release_for(&self, shard: &Shard, seed: u64) -> Option<Arc<NoisyClusterAverages>> {
        let generation = self.generation_for(seed);
        if let Some(averages) = shard.epoch.load(generation) {
            return Some(averages);
        }
        let averages = self.exchange.get(generation)?;
        shard.epoch.store(generation, Arc::clone(&averages));
        shard.release_swaps.inc();
        shard.generation.set(generation as i64);
        journal::emit(EventKind::HotSwapCompleted, shard.position, generation);
        Some(averages)
    }

    /// The answer to a refused query: an empty list, counted and
    /// journalled with its `reason` (`journal::REFUSED_*`).
    fn refuse(&self, user: UserId, reason: u64) -> TopN {
        self.refused.inc();
        journal::emit(EventKind::QueryRefused, u64::from(user.0), reason);
        TopN { user, items: Vec::new() }
    }

    /// Execute one drained admission batch on `shard`, fulfilling every
    /// pending query. Queries are grouped by seed (= release
    /// generation) in first-seen order — a kernel call never spans
    /// generations — and each group rides the item-tiled kernel in
    /// [`kernel::USER_BLOCK`] blocks.
    fn run_coalesced(&self, shard: &Shard, batch: &[PendingQuery]) {
        let _span = span!("serve.coalesced", queries = batch.len());
        shard.admissions.inc();
        shard.queries.add(batch.len() as u64);
        if batch.len() > 1 {
            shard.coalesced.add(batch.len() as u64);
        }
        let mut groups: Vec<(u64, Vec<&PendingQuery>)> = Vec::new();
        for q in batch {
            match groups.iter_mut().find(|(s, _)| *s == q.seed()) {
                Some((_, g)) => g.push(q),
                None => groups.push((q.seed(), vec![q])),
            }
        }
        let mut buf = Vec::new();
        let mut users = Vec::with_capacity(kernel::USER_BLOCK);
        for (seed, group) in groups {
            let Some(averages) = self.release_for(shard, seed) else {
                for q in group {
                    q.fulfill(self.refuse(q.user(), REFUSED_UNPUBLISHED_GENERATION));
                }
                continue;
            };
            let ni = averages.num_items();
            for block in group.chunks(kernel::USER_BLOCK) {
                users.clear();
                users.extend(block.iter().map(|q| q.user()));
                kernel::utilities_block_tiled(
                    &averages,
                    &self.index,
                    &users,
                    kernel::ITEM_TILE,
                    &mut buf,
                );
                shard.kernel_blocks.inc();
                for (k, q) in block.iter().enumerate() {
                    let items = top_n_items(&buf[k * ni..(k + 1) * ni], q.n());
                    q.fulfill(TopN { user: q.user(), items });
                }
            }
        }
    }

    /// A single-user query through the coalescing admission path.
    ///
    /// The query is enqueued on its user's shard; whichever admitted
    /// thread wins the shard's combiner lock executes every pending
    /// query as one kernel batch. Bit-identical to the same query
    /// served alone. An unpublished `seed` or a user outside the
    /// partition is refused with an empty list. `_inputs` is unused:
    /// the release arrives published.
    pub fn recommend_one(
        &self,
        _inputs: &RecommenderInputs<'_>,
        user: UserId,
        n: usize,
        seed: u64,
    ) -> TopN {
        let Some(si) = self.owning_shard(user) else {
            return self.refuse(user, REFUSED_USER_OUTSIDE_PARTITION);
        };
        let shard = &self.shards[si];
        shard.queue_depth.set(shard.queue.depth() as i64);
        let start = Instant::now();
        let top = shard.queue.submit(user, n, seed, |batch| self.run_coalesced(shard, batch));
        shard.latency.record(start.elapsed());
        top
    }

    /// Top-N recommendations for a batch of users, fanned out across
    /// shards and user blocks in parallel. Output order matches
    /// `users`. Rows of users outside the partition, and every row when
    /// `seed` names no retained generation, are refused with an empty
    /// list; the other rows are unaffected. `_inputs` is unused: the
    /// release arrives published.
    pub fn recommend_batch(
        &self,
        _inputs: &RecommenderInputs<'_>,
        users: &[UserId],
        n: usize,
        seed: u64,
    ) -> Vec<TopN> {
        let _span = span!("serve.shard_batch", users = users.len());
        let mut out: Vec<Option<TopN>> = users.iter().map(|_| None).collect();
        let mut routed: Vec<Vec<(usize, UserId)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &u) in users.iter().enumerate() {
            match self.owning_shard(u) {
                Some(si) => routed[si].push((pos, u)),
                None => out[pos] = Some(self.refuse(u, REFUSED_USER_OUTSIDE_PARTITION)),
            }
        }
        // Resolve each touched shard's release up front so the parallel
        // region below never looks it up.
        let mut tasks: Vec<BlockTask<'_>> = Vec::new();
        for (shard, r) in self.shards.iter().zip(&routed) {
            if r.is_empty() {
                continue;
            }
            shard.queries.add(r.len() as u64);
            match self.release_for(shard, seed) {
                Some(averages) => tasks.extend(
                    r.chunks(kernel::USER_BLOCK).map(|block| (shard, Arc::clone(&averages), block)),
                ),
                None => {
                    for &(pos, u) in r {
                        out[pos] = Some(self.refuse(u, REFUSED_UNPUBLISHED_GENERATION));
                    }
                }
            }
        }
        let computed: Vec<Vec<(usize, TopN)>> = (0..tasks.len())
            .into_par_iter()
            .map_init(Vec::new, |buf, t| {
                let (shard, averages, block) = &tasks[t];
                let ni = averages.num_items();
                let block_users: Vec<UserId> = block.iter().map(|&(_, u)| u).collect();
                kernel::utilities_block_tiled(
                    averages,
                    &self.index,
                    &block_users,
                    kernel::ITEM_TILE,
                    buf,
                );
                shard.kernel_blocks.inc();
                block
                    .iter()
                    .enumerate()
                    .map(|(k, &(pos, u))| {
                        (pos, TopN { user: u, items: top_n_items(&buf[k * ni..(k + 1) * ni], n) })
                    })
                    .collect()
            })
            .collect();
        for (pos, top) in computed.into_iter().flatten() {
            out[pos] = Some(top);
        }
        out.into_iter().map(|t| t.expect("every query is answered or refused")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_core::private::framework::ClusterFramework;
    use socialrec_core::TopNRecommender;
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_similarity::{Measure, SimilarityMatrix, ValueKind};

    fn fixture() -> (socialrec_graph::SocialGraph, socialrec_graph::PreferenceGraph) {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = preference_graph_from_edges(
            6,
            4,
            &[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (1, 2), (4, 3)],
        )
        .unwrap();
        (s, p)
    }

    /// Publish the release `ClusterFramework::recommend` draws for `seed`.
    fn publish(daemon: &ShardedServer<'_>, inputs: &RecommenderInputs<'_>, seed: u64) -> u64 {
        let fw = ClusterFramework::new(daemon.partition, daemon.epsilon);
        daemon.publish_release(seed, fw.noisy_cluster_averages(inputs, seed))
    }

    fn assert_bits(got: &[TopN], want: &[TopN]) {
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            for ((gi, gu), (wi, wu)) in g.items.iter().zip(&w.items) {
                assert_eq!(gi, wi);
                assert_eq!(gu.to_bits(), wu.to_bits(), "utility bits differ");
            }
        }
    }

    fn counter(daemon: &ShardedServer<'_>, name: &str) -> u64 {
        daemon.registry().counter(name).get()
    }

    /// `index` written to an artifact named after `test` and read back.
    fn reopened(index: &SimMassIndex, test: &str) -> SimMassIndex {
        let dir = std::env::temp_dir().join("socialrec-shard-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{test}-{}.srart", std::process::id()));
        index.write_artifact(&path, ValueKind::F64).unwrap();
        let opened = SimMassIndex::open_artifact(&path).unwrap();
        std::fs::remove_file(&path).ok();
        opened
    }

    #[test]
    fn generation_separates_every_input() {
        let p1 = partition_fingerprint(&Partition::singletons(4));
        let p2 = partition_fingerprint(&Partition::one_cluster(4));
        assert_ne!(p1, p2);
        let base = release_generation(p1, Epsilon::Finite(0.5), 7);
        assert_eq!(base, release_generation(p1, Epsilon::Finite(0.5), 7));
        for other in [
            release_generation(p2, Epsilon::Finite(0.5), 7),
            release_generation(p1, Epsilon::Finite(0.6), 7),
            release_generation(p1, Epsilon::Infinite, 7),
            release_generation(p1, Epsilon::Finite(0.5), 8),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn sharded_batch_matches_framework_bitwise_for_every_shard_count() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 0, 1]);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
        let want = fw.recommend(&inputs, &users, 3, 42);
        let heap = SimMassIndex::build(&sim, &partition);
        let opened = reopened(&heap, "every-shard-count");
        for index in [&heap, &opened] {
            for num_shards in [1, 2, 3, 6, 100] {
                let daemon = ShardedServer::from_index(
                    &partition,
                    index.clone(),
                    Epsilon::Finite(0.5),
                    num_shards,
                );
                assert!(daemon.num_shards() <= 6);
                publish(&daemon, &inputs, 42);
                let got = daemon.recommend_batch(&inputs, &users, 3, 42);
                assert_bits(&got, &want);
            }
        }
    }

    /// 6 users with `USER_BLOCK = 8` make one ragged block, and
    /// `n > num_items` must clamp to the item count.
    #[test]
    fn ragged_block_and_oversized_n_match_framework() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 1, 0, 1, 0, 1]);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let index = SimMassIndex::build(&sim, &partition);
        let daemon = ShardedServer::from_index(&partition, index, Epsilon::Finite(0.3), 1);
        publish(&daemon, &inputs, 7);
        let got = daemon.recommend_batch(&inputs, &users, 100, 7);
        let want = ClusterFramework::new(&partition, Epsilon::Finite(0.3))
            .recommend(&inputs, &users, 100, 7);
        assert_bits(&got, &want);
        assert!(got.iter().all(|t| t.items.len() == 4), "n > num_items clamps to the item count");
    }

    /// A daemon serving an index read from an artifact answers
    /// bit-identically to the heap-built daemon, for single queries and
    /// batches alike.
    #[test]
    fn artifact_backed_daemon_matches_heap_daemon_bitwise() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 0, 1]);
        let users: Vec<UserId> = (0..6).map(UserId).collect();

        let full = SimMassIndex::build(&sim, &partition);
        let opened_index = reopened(&full, "daemon");

        for num_shards in [1, 3, 6] {
            let heap = ShardedServer::from_index(
                &partition,
                full.clone(),
                Epsilon::Finite(0.5),
                num_shards,
            );
            let opened = ShardedServer::from_index(
                &partition,
                opened_index.clone(),
                Epsilon::Finite(0.5),
                num_shards,
            );
            publish(&heap, &inputs, 42);
            publish(&opened, &inputs, 42);
            let want = heap.recommend_batch(&inputs, &users, 3, 42);
            let got = opened.recommend_batch(&inputs, &users, 3, 42);
            assert_bits(&got, &want);
            for &u in &users {
                let one = opened.recommend_one(&inputs, u, 3, 42);
                let row = want.iter().find(|t| t.user == u).unwrap();
                assert_bits(std::slice::from_ref(&one), std::slice::from_ref(row));
            }
        }
    }

    #[test]
    fn coalesced_single_matches_batch_row_bitwise() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::one_cluster(6);
        let index = SimMassIndex::build(&sim, &partition);
        let daemon = ShardedServer::from_index(&partition, index, Epsilon::Infinite, 3);
        publish(&daemon, &inputs, 0);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let batch = daemon.recommend_batch(&inputs, &users, 2, 0);
        for &u in &users {
            let single = daemon.recommend_one(&inputs, u, 2, 0);
            let row = batch.iter().find(|t| t.user == u).unwrap();
            assert_bits(std::slice::from_ref(&single), std::slice::from_ref(row));
        }
    }

    #[test]
    fn shard_routing_covers_every_user_once() {
        let (s, _) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = Partition::singletons(6);
        let index = SimMassIndex::build(&sim, &partition);
        let daemon = ShardedServer::from_index(&partition, index, Epsilon::Finite(1.0), 4);
        // 6 users over ≤4 shards: chunk = 2 → 3 shards of 2.
        assert_eq!(daemon.num_shards(), 3);
        let mut per_shard = vec![0usize; daemon.num_shards()];
        for u in 0..6u32 {
            per_shard[daemon.shard_of(UserId(u))] += 1;
        }
        assert_eq!(per_shard, vec![2, 2, 2]);
    }

    /// Publishing is the epoch flip: every shard moves to the new
    /// generation on its next query, served bits match the framework,
    /// the predecessor keeps answering stragglers, republishing is a
    /// no-op, and a generation evicted from the exchange is refused.
    #[test]
    fn publish_hot_swaps_every_shard_and_retains_the_predecessor() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 0, 1]);
        let index = SimMassIndex::build(&sim, &partition);
        let daemon = ShardedServer::from_index(&partition, index, Epsilon::Finite(0.5), 3);
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
        let users: Vec<UserId> = (0..6).map(UserId).collect();

        let gen1 = publish(&daemon, &inputs, 1);
        assert_eq!(gen1, daemon.generation_for(1));
        assert_eq!(daemon.shard_generations(), vec![None; 3], "shards flip on their next query");
        daemon.recommend_batch(&inputs, &users, 3, 1);
        assert_eq!(daemon.shard_generations(), vec![Some(gen1); 3]);

        let gen2 = publish(&daemon, &inputs, 2);
        assert_eq!(daemon.exchange().epoch(), 2, "the publish is the epoch flip");
        let got = daemon.recommend_batch(&inputs, &users, 3, 2);
        assert_bits(&got, &fw.recommend(&inputs, &users, 3, 2));
        assert_eq!(daemon.shard_generations(), vec![Some(gen2); 3]);
        assert_eq!(daemon.exchange().retained(), vec![gen1, gen2]);

        // A straggler on the prior generation is still answered.
        let straggler = daemon.recommend_one(&inputs, UserId(0), 3, 1);
        assert_bits(std::slice::from_ref(&straggler), &fw.recommend(&inputs, &[UserId(0)], 3, 1));
        // 3 shards × 2 generations + shard 0's flip back for the
        // straggler.
        let swaps: u64 =
            (0..3).map(|i| counter(&daemon, &format!("serve.shard{i}.release_swaps"))).sum();
        assert_eq!(swaps, 7);

        // Republishing the same seed is a no-op.
        assert_eq!(publish(&daemon, &inputs, 2), gen2);
        assert_eq!(daemon.exchange().epoch(), 2);

        // A third generation evicts the first, whose queries are then
        // refused rather than re-released.
        publish(&daemon, &inputs, 3);
        assert_eq!(daemon.exchange().epoch(), 3);
        assert!(daemon.recommend_one(&inputs, UserId(3), 3, 1).items.is_empty());
        assert_eq!(counter(&daemon, "serve.refused"), 1);
        assert_eq!(daemon.exchange().epoch(), 3, "a refused query releases nothing");
    }

    /// An id at or past the partition's user count used to index past
    /// the shard table, or past the ragged last shard's rows, and panic
    /// the serving thread. It is refused like an unpublished seed, on
    /// both index backings.
    #[test]
    fn out_of_range_users_are_refused_not_a_panic() {
        let s = social_graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap();
        let p =
            preference_graph_from_edges(5, 3, &[(0, 0), (1, 1), (2, 2), (3, 0), (4, 1)]).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 1]);
        let heap = SimMassIndex::build(&sim, &partition);
        let opened = reopened(&heap, "out-of-range");
        // 2 shards: chunk 3, so UserId(5) falls in the ragged last
        // shard's range. 5 shards: it falls past the shard table.
        for (index, num_shards) in [(&heap, 2), (&heap, 5), (&opened, 2), (&opened, 5)] {
            let daemon = ShardedServer::from_index(
                &partition,
                index.clone(),
                Epsilon::Finite(0.5),
                num_shards,
            );
            publish(&daemon, &inputs, 9);
            let bad = [UserId(5), UserId(u32::MAX)];
            for &u in &bad {
                assert_eq!(daemon.recommend_one(&inputs, u, 3, 9), TopN { user: u, items: vec![] });
            }
            let mixed = [UserId(4), bad[0], UserId(0), bad[1], UserId(3)];
            let got = daemon.recommend_batch(&inputs, &mixed, 3, 9);
            let valid = [UserId(4), UserId(0), UserId(3)];
            let want = ClusterFramework::new(&partition, Epsilon::Finite(0.5))
                .recommend(&inputs, &valid, 3, 9);
            assert_bits(&[got[0].clone(), got[2].clone(), got[4].clone()], &want);
            assert_eq!(got[1], TopN { user: bad[0], items: vec![] });
            assert_eq!(got[3], TopN { user: bad[1], items: vec![] });
            assert_eq!(counter(&daemon, "serve.refused"), 4);
        }
    }

    #[test]
    fn per_shard_metrics_count_queries_and_admissions() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 1, 0, 1, 0, 1]);
        let index = SimMassIndex::build(&sim, &partition);
        let daemon = ShardedServer::from_index(&partition, index, Epsilon::Finite(0.7), 2);
        publish(&daemon, &inputs, 5);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        daemon.recommend_batch(&inputs, &users, 2, 5);
        daemon.recommend_one(&inputs, UserId(0), 2, 5);
        daemon.recommend_one(&inputs, UserId(5), 2, 5);
        assert_eq!(counter(&daemon, "serve.shard0.queries"), 3 + 1);
        assert_eq!(counter(&daemon, "serve.shard1.queries"), 3 + 1);
        assert_eq!(counter(&daemon, "serve.shard0.admissions"), 1);
        assert_eq!(counter(&daemon, "serve.shard1.admissions"), 1);
        assert_eq!(counter(&daemon, "serve.refused"), 0);
        let snap = daemon.registry().snapshot();
        let hist = snap.histograms.iter().find(|(n, _)| n == "serve.shard0.query_ns").unwrap();
        assert_eq!(hist.1.count, 1, "single-query latency recorded per shard");
    }
}
