//! **Algorithm 1** — the cluster-based private social recommender.
//!
//! Pipeline (all line numbers refer to the paper's Algorithm 1):
//!
//! 1. `createClusters(G_s)` (line 1) happens *outside* this type: any
//!    [`Partition`] built from the public social graph may be supplied
//!    (the paper uses Louvain; ablations swap in other strategies).
//! 2. `A_w` (lines 2–7): for every (item, cluster) pair release the
//!    noisy average edge weight
//!    `ŵ_c^i = (Σ_{u∈c} w(u,i)) / |c| + Lap(1/(|c|·ε))`.
//!    Each preference edge affects exactly one average by at most
//!    `1/|c|`, and all averages use disjoint edge sets, so by parallel
//!    composition the whole release is ε-DP (Theorem 4).
//! 3. `A_R` (lines 8–21): post-processing only — estimate
//!    `μ̂_u^i = Σ_c (Σ_{v∈sim(u)∩c} sim(u,v)) · ŵ_c^i` and emit each
//!    user's top-N.

use crate::private::mix_seed;
use crate::topn::top_n_items;
use crate::{RecommenderInputs, TopN, TopNRecommender};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use socialrec_community::Partition;
use socialrec_dp::{sample_laplace, sample_two_sided_geometric, Epsilon, GeometricMechanism};
use socialrec_graph::UserId;
use socialrec_obs::span;

/// The private framework bound to a clustering and a privacy level.
#[derive(Clone, Copy)]
pub struct ClusterFramework<'p> {
    partition: &'p Partition,
    epsilon: Epsilon,
    noise: NoiseModel,
}

/// Which noise distribution sanitizes the per-(cluster, item) releases.
///
/// Both satisfy ε-DP with the same effective `1/(|c|·ε)` noise scale on
/// the released averages:
///
/// * [`NoiseModel::Laplace`] — the paper's route: `Lap(1/(|c|·ε))` on
///   the real-valued average;
/// * [`NoiseModel::Geometric`] — the discrete route: two-sided
///   geometric noise with `α = e^(-ε)` on the raw integer *count*
///   (sensitivity 1), divided by `|c|` in post-processing. Integer
///   outputs avoid floating-point side channels (Mironov 2012).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NoiseModel {
    /// Laplace noise on the averages (the paper's mechanism).
    #[default]
    Laplace,
    /// Two-sided geometric noise on the counts.
    Geometric,
}

/// The sanitized output of module `A_w`: all noisy per-(cluster, item)
/// averages, row-major `num_clusters × num_items`. Everything derived
/// from this is post-processing and spends no further privacy budget.
#[derive(Clone, Debug)]
pub struct NoisyClusterAverages {
    values: Vec<f64>,
    num_clusters: usize,
    num_items: usize,
}

impl NoisyClusterAverages {
    /// The noisy average for `(cluster, item)`.
    #[inline]
    pub fn get(&self, cluster: u32, item: u32) -> f64 {
        self.values[cluster as usize * self.num_items + item as usize]
    }

    /// Row (all items) for one cluster.
    #[inline]
    pub fn cluster_row(&self, cluster: u32) -> &[f64] {
        let i = cluster as usize * self.num_items;
        &self.values[i..i + self.num_items]
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The full release, row-major `num_clusters × num_items` (used by
    /// equivalence checks that compare releases bit-for-bit).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl<'p> ClusterFramework<'p> {
    /// Bind the framework to a clustering (derived from the public
    /// social graph) and a privacy budget.
    pub fn new(partition: &'p Partition, epsilon: Epsilon) -> Self {
        ClusterFramework { partition, epsilon, noise: NoiseModel::Laplace }
    }

    /// Select the noise distribution (default: Laplace).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// The configured noise model.
    pub fn noise_model(&self) -> NoiseModel {
        self.noise
    }

    /// The privacy level.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The clustering in use.
    pub fn partition(&self) -> &Partition {
        self.partition
    }

    /// Module `A_w` (Algorithm 1, lines 2–7): release every
    /// (cluster, item) noisy average. This is the only place the
    /// private preference data is touched.
    pub fn noisy_cluster_averages(
        &self,
        inputs: &RecommenderInputs<'_>,
        seed: u64,
    ) -> NoisyClusterAverages {
        release_noisy_cluster_averages_with(
            self.partition,
            inputs.prefs,
            self.epsilon,
            self.noise,
            seed,
        )
    }

    /// Module `A_R` for a single user (Algorithm 1, lines 10–17):
    /// estimated utilities over all items, written into `out`.
    ///
    /// Pure post-processing of the sanitized averages.
    pub fn utility_estimates_into(
        &self,
        inputs: &RecommenderInputs<'_>,
        averages: &NoisyClusterAverages,
        u: UserId,
        sim_scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let ni = averages.num_items();
        out.clear();
        out.resize(ni, 0.0);
        // sim_sum[c] = Σ_{v ∈ sim(u) ∩ c} sim(u, v).
        sim_scratch.clear();
        sim_scratch.resize(averages.num_clusters(), 0.0);
        let (users, scores) = inputs.sim.row(u);
        for (&v, &s) in users.iter().zip(scores) {
            sim_scratch[self.partition.cluster_of(v) as usize] += s;
        }
        // μ̂_u = Σ_c sim_sum[c] · ŵ_c  (axpy per touched cluster row).
        for (cl, &s) in sim_scratch.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let row = averages.cluster_row(cl as u32);
            for (x, &w) in out.iter_mut().zip(row) {
                *x += s * w;
            }
        }
    }

    /// Convenience: utility estimates as a fresh vector.
    pub fn utility_estimates(
        &self,
        inputs: &RecommenderInputs<'_>,
        averages: &NoisyClusterAverages,
        u: UserId,
    ) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.utility_estimates_into(inputs, averages, u, &mut scratch, &mut out);
        out
    }
}

impl TopNRecommender for ClusterFramework<'_> {
    fn name(&self) -> String {
        format!("framework(eps={})", self.epsilon)
    }

    fn recommend(
        &self,
        inputs: &RecommenderInputs<'_>,
        users: &[UserId],
        n: usize,
        seed: u64,
    ) -> Vec<TopN> {
        let averages = self.noisy_cluster_averages(inputs, seed);
        users
            .par_iter()
            .map_init(
                || (Vec::new(), Vec::new()),
                |(sim_scratch, out), &u| {
                    self.utility_estimates_into(inputs, &averages, u, sim_scratch, out);
                    TopN { user: u, items: top_n_items(out, n) }
                },
            )
            .collect()
    }
}

/// Standalone release of the noisy per-(cluster, item) averages with
/// Laplace noise — module `A_w` without constructing a
/// [`ClusterFramework`]. Used by streaming evaluation paths that avoid
/// materialising a similarity matrix.
pub fn release_noisy_cluster_averages(
    partition: &Partition,
    prefs: &socialrec_graph::preference::PreferenceGraph,
    epsilon: Epsilon,
    seed: u64,
) -> NoisyClusterAverages {
    release_noisy_cluster_averages_with(partition, prefs, epsilon, NoiseModel::Laplace, seed)
}

/// [`release_noisy_cluster_averages`] with an explicit noise model.
///
/// Cluster-major and parallel by cluster row: each work item walks its
/// cluster's members, adds 1.0 per member preference into its own row,
/// scales the row by `1/|c|`, then draws the row's noise from its own
/// seeded stream. Counts are whole numbers, so no accumulation order can
/// change them, and `count · (1/|c|)` is the product the reference
/// forms — the output is byte-identical to
/// [`release_noisy_cluster_averages_reference`] for every noise model,
/// seed, and thread count.
///
/// A pure function: it records no spend. Debiting ε is the caller's
/// job, before the call — `DynamicRecommender`'s accountant is the one
/// record of what was released.
pub fn release_noisy_cluster_averages_with(
    partition: &Partition,
    prefs: &socialrec_graph::preference::PreferenceGraph,
    epsilon: Epsilon,
    noise: NoiseModel,
    seed: u64,
) -> NoisyClusterAverages {
    let c = partition.num_clusters();
    let ni = prefs.num_items();
    assert_eq!(
        partition.num_users(),
        prefs.num_users(),
        "partition must cover the preference graph's users"
    );
    let _span = span!("release", clusters = c);
    if ni == 0 {
        return NoisyClusterAverages { values: Vec::new(), num_clusters: c, num_items: 0 };
    }
    let members = partition.members();
    let mut values = vec![0.0f64; c * ni];
    values.par_chunks_mut(ni).enumerate().for_each(|(cl, row)| {
        let users = &members[cl];
        debug_assert!(!users.is_empty(), "partitions have no empty clusters");
        for &v in users {
            for &i in prefs.items_of(v) {
                row[i.index()] += 1.0;
            }
        }
        let inv = 1.0 / users.len() as f64;
        for x in row.iter_mut() {
            *x *= inv;
        }
        add_row_noise(row, noise, epsilon, inv, mix_seed(seed, cl as u64));
    });

    NoisyClusterAverages { values, num_clusters: c, num_items: ni }
}

/// The historical sequential-scan release: one pass over every
/// preference edge, then per-row noise. Kept as the reference for the
/// byte-identity equivalence tests.
pub fn release_noisy_cluster_averages_reference(
    partition: &Partition,
    prefs: &socialrec_graph::preference::PreferenceGraph,
    epsilon: Epsilon,
    noise: NoiseModel,
    seed: u64,
) -> NoisyClusterAverages {
    let c = partition.num_clusters();
    let ni = prefs.num_items();
    assert_eq!(
        partition.num_users(),
        prefs.num_users(),
        "partition must cover the preference graph's users"
    );
    if ni == 0 {
        return NoisyClusterAverages { values: Vec::new(), num_clusters: c, num_items: 0 };
    }
    let sizes = partition.cluster_sizes();
    let mut values = vec![0.0f64; c * ni];

    // Raw per-cluster edge counts, item by item.
    for i in prefs.items() {
        for &v in prefs.users_of(i) {
            let cl = partition.cluster_of(v) as usize;
            values[cl * ni + i.index()] += 1.0;
        }
    }

    for (cl, row) in values.chunks_mut(ni).enumerate() {
        let size = sizes[cl];
        debug_assert!(size >= 1, "partitions have no empty clusters");
        let inv = 1.0 / size as f64;
        for x in row.iter_mut() {
            *x *= inv;
        }
        add_row_noise(row, noise, epsilon, inv, mix_seed(seed, cl as u64));
    }

    NoisyClusterAverages { values, num_clusters: c, num_items: ni }
}

/// Perturb one cluster row in place with its own seeded noise stream.
/// Sensitivity is `1/|c|` (one edge moves one cluster-item count by
/// one; the average by `1/|c|`). The geometric route adds integer noise
/// to the count (sensitivity 1) before the division — same effective
/// scale.
fn add_row_noise(row: &mut [f64], noise: NoiseModel, epsilon: Epsilon, inv: f64, row_seed: u64) {
    match noise {
        NoiseModel::Laplace => {
            if let Some(scale) = epsilon.laplace_scale(inv) {
                let mut rng = SmallRng::seed_from_u64(row_seed);
                for x in row.iter_mut() {
                    *x += sample_laplace(&mut rng, scale);
                }
            }
        }
        NoiseModel::Geometric => {
            let mech = GeometricMechanism::new(epsilon, 1);
            if let Some(alpha) = mech.alpha() {
                let mut rng = SmallRng::seed_from_u64(row_seed);
                for x in row.iter_mut() {
                    *x += sample_two_sided_geometric(&mut rng, alpha) as f64 * inv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactRecommender;
    use socialrec_community::{ClusteringStrategy, LouvainStrategy, SingletonStrategy};
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_graph::{PreferenceGraph, SocialGraph};
    use socialrec_similarity::{Measure, SimilarityMatrix};

    fn fixture() -> (SocialGraph, PreferenceGraph) {
        // Two triangles bridged; preferences aligned per triangle.
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

    #[test]
    fn averages_without_noise_are_exact_means() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = LouvainStrategy::default().cluster(&s);
        assert_eq!(partition.num_clusters(), 2);
        let fw = ClusterFramework::new(&partition, Epsilon::Infinite);
        let avg = fw.noisy_cluster_averages(&inputs, 0);
        // Triangle {0,1,2} all like item 0 -> its cluster average is 1.
        let c0 = partition.cluster_of(UserId(0));
        let c1 = partition.cluster_of(UserId(3));
        assert!((avg.get(c0, 0) - 1.0).abs() < 1e-12);
        assert!((avg.get(c1, 0) - 0.0).abs() < 1e-12);
        assert!((avg.get(c1, 1) - 1.0).abs() < 1e-12);
        // Item 2 liked by one of three in cluster 0.
        assert!((avg.get(c0, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_clustering_with_no_noise_equals_exact() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = SingletonStrategy.cluster(&s);
        let fw = ClusterFramework::new(&partition, Epsilon::Infinite);
        let avg = fw.noisy_cluster_averages(&inputs, 0);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        for &u in &users {
            let est = fw.utility_estimates(&inputs, &avg, u);
            let exact = ExactRecommender.utilities(&inputs, u);
            for (a, b) in est.iter().zip(&exact) {
                assert!((a - b).abs() < 1e-12, "estimate differs for {u:?}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = LouvainStrategy::default().cluster(&s);
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let a = fw.recommend(&inputs, &users, 2, 7);
        let b = fw.recommend(&inputs, &users, 2, 7);
        assert_eq!(a, b);
        let avg1 = fw.noisy_cluster_averages(&inputs, 7);
        let avg2 = fw.noisy_cluster_averages(&inputs, 8);
        assert_ne!(avg1.values, avg2.values);
    }

    #[test]
    fn estimates_are_linear_in_averages() {
        // μ̂ must equal Σ_c sim_sum_c · ŵ_c exactly.
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = LouvainStrategy::default().cluster(&s);
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(1.0));
        let avg = fw.noisy_cluster_averages(&inputs, 3);
        let u = UserId(0);
        let est = fw.utility_estimates(&inputs, &avg, u);
        // Recompute by hand from the public pieces.
        let mut sim_sum = vec![0.0; partition.num_clusters()];
        let (vs, ss) = sim.row(u);
        for (&v, &s) in vs.iter().zip(ss) {
            sim_sum[partition.cluster_of(v) as usize] += s;
        }
        for i in 0..p.num_items() as u32 {
            let by_hand: f64 = (0..partition.num_clusters() as u32)
                .map(|c| sim_sum[c as usize] * avg.get(c, i))
                .sum();
            assert!((est[i as usize] - by_hand).abs() < 1e-12);
        }
    }

    #[test]
    fn sharded_release_is_byte_identical_to_reference() {
        // The tentpole contract for A_w: the parallel sharded kernel's
        // values are byte-identical to the sequential scan across both
        // noise models, several partitions, seeds, and epsilons.
        let (s, p) = fixture();
        let partitions = [
            LouvainStrategy::default().cluster(&s),
            SingletonStrategy.cluster(&s),
            socialrec_community::Partition::one_cluster(6),
        ];
        let epsilons = [Epsilon::Infinite, Epsilon::Finite(1.0), Epsilon::Finite(0.05)];
        for partition in &partitions {
            for &eps in &epsilons {
                for noise in [NoiseModel::Laplace, NoiseModel::Geometric] {
                    for seed in [0u64, 7, 99] {
                        let par =
                            release_noisy_cluster_averages_with(partition, &p, eps, noise, seed);
                        let refr = release_noisy_cluster_averages_reference(
                            partition, &p, eps, noise, seed,
                        );
                        assert_eq!(par.num_clusters(), refr.num_clusters());
                        assert_eq!(par.num_items(), refr.num_items());
                        let pb: Vec<u64> = par.values().iter().map(|x| x.to_bits()).collect();
                        let rb: Vec<u64> = refr.values().iter().map(|x| x.to_bits()).collect();
                        assert_eq!(pb, rb, "release diverged ({noise:?}, eps={eps}, seed={seed})");
                    }
                }
            }
        }
    }

    #[test]
    fn noise_shrinks_with_cluster_size() {
        // With one big cluster the noise scale is 1/(|U|·ε): tiny.
        // With singletons it is 1/ε: large. Compare empirical spread of
        // the zero-count cells.
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let one = socialrec_community::Partition::one_cluster(6);
        let singles = socialrec_community::Partition::singletons(6);
        let eps = Epsilon::Finite(0.5);
        let spread = |partition: &socialrec_community::Partition| {
            let fw = ClusterFramework::new(partition, eps);
            let mut acc = 0.0;
            let trials = 200;
            for seed in 0..trials {
                let avg = fw.noisy_cluster_averages(&inputs, seed);
                // Item 2's average in user 0's cluster: zero raters
                // under singletons, one (user 1) under one-cluster.
                let c = partition.cluster_of(UserId(0));
                let raters = p
                    .users_of(socialrec_graph::ItemId(2))
                    .iter()
                    .filter(|&&v| partition.cluster_of(v) == c)
                    .count();
                let true_avg = raters as f64 / partition.cluster_sizes()[c as usize] as f64;
                acc += (avg.get(c, 2) - true_avg).abs();
            }
            acc / trials as f64
        };
        let big_spread = spread(&singles);
        let small_spread = spread(&one);
        assert!(
            small_spread < big_spread / 3.0,
            "one-cluster noise {small_spread} should be far below singleton {big_spread}"
        );
    }

    #[test]
    fn lists_have_requested_length() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = LouvainStrategy::default().cluster(&s);
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.1));
        let lists = fw.recommend(&inputs, &[UserId(0), UserId(5)], 3, 1);
        assert_eq!(lists.len(), 2);
        for l in &lists {
            assert_eq!(l.items.len(), 3);
            // Utilities descending.
            for w in l.items.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn geometric_noise_model_works_and_differs() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = LouvainStrategy::default().cluster(&s);
        let eps = Epsilon::Finite(0.5);
        let lap = ClusterFramework::new(&partition, eps);
        let geo = ClusterFramework::new(&partition, eps).with_noise(NoiseModel::Geometric);
        assert_eq!(geo.noise_model(), NoiseModel::Geometric);
        let a = lap.noisy_cluster_averages(&inputs, 3);
        let b = geo.noisy_cluster_averages(&inputs, 3);
        assert_ne!(a.values, b.values, "different noise models must differ");
        // Geometric outputs are integer multiples of 1/|c| per row.
        let sizes = partition.cluster_sizes();
        for c in 0..partition.num_clusters() as u32 {
            let size = sizes[c as usize] as f64;
            for i in 0..p.num_items() as u32 {
                let v = b.get(c, i) * size;
                assert!((v - v.round()).abs() < 1e-9, "non-integer count {v}");
            }
        }
        // At eps = inf both are exact.
        let geo_inf =
            ClusterFramework::new(&partition, Epsilon::Infinite).with_noise(NoiseModel::Geometric);
        let lap_inf = ClusterFramework::new(&partition, Epsilon::Infinite);
        assert_eq!(
            geo_inf.noisy_cluster_averages(&inputs, 0).values,
            lap_inf.noisy_cluster_averages(&inputs, 0).values
        );
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn mismatched_partition_panics() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let bad = socialrec_community::Partition::singletons(4); // 6 users!
        let fw = ClusterFramework::new(&bad, Epsilon::Finite(1.0));
        let _ = fw.noisy_cluster_averages(&inputs, 0);
    }
}
