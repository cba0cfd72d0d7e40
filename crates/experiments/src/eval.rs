//! Shared evaluation machinery: eval-user sampling, ideal-utility
//! caching, and NDCG@N aggregation over repeated runs.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use socialrec_community::Partition;
use socialrec_core::private::framework::NoisyClusterAverages;
use socialrec_core::{
    per_user_ndcg, top_n_items, ExactRecommender, RecommenderInputs, TopNRecommender,
};
use socialrec_dp::Epsilon;
use socialrec_graph::preference::PreferenceGraph;
use socialrec_graph::{ItemId, SocialGraph, UserId};
use socialrec_similarity::{SimScratch, Similarity};

/// A fixed set of evaluation users with their cached ideal (exact)
/// utility vectors — the NDCG denominator inputs.
pub struct EvalSet {
    /// The users being evaluated.
    pub users: Vec<UserId>,
    /// `ideal[k]` = dense exact utilities of `users[k]`.
    pub ideal: Vec<Vec<f64>>,
}

/// Deterministically sample `count` users out of `num_users` (all users
/// if `count >= num_users`), mirroring the paper's Flixster protocol of
/// evaluating a random subset while clustering on everyone.
pub fn sample_users(num_users: usize, count: usize, seed: u64) -> Vec<UserId> {
    let mut all: Vec<UserId> = (0..num_users as u32).map(UserId).collect();
    if count >= num_users {
        return all;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    all.shuffle(&mut rng);
    all.truncate(count);
    all.sort_unstable();
    all
}

/// Compute and cache the ideal utilities of the evaluation users.
pub fn build_eval_set(inputs: &RecommenderInputs<'_>, users: Vec<UserId>) -> EvalSet {
    let ideal = ExactRecommender.utilities_all(inputs, &users);
    EvalSet { users, ideal }
}

impl EvalSet {
    /// Mean NDCG@`n` of one batch of lists (one list per eval user, in
    /// the same order).
    pub fn mean_ndcg(&self, lists: &[socialrec_core::TopN], n: usize) -> f64 {
        assert_eq!(lists.len(), self.users.len(), "one list per eval user");
        let total: f64 = lists
            .par_iter()
            .enumerate()
            .map(|(k, l)| {
                debug_assert_eq!(l.user, self.users[k]);
                per_user_ndcg(&self.ideal[k], &l.item_ids(), n)
            })
            .sum();
        total / self.users.len().max(1) as f64
    }

    /// Per-user NDCG@`n` values for one batch of lists.
    pub fn per_user_ndcg(&self, lists: &[socialrec_core::TopN], n: usize) -> Vec<f64> {
        lists
            .par_iter()
            .enumerate()
            .map(|(k, l)| per_user_ndcg(&self.ideal[k], &l.item_ids(), n))
            .collect()
    }
}

/// One aggregated measurement: mean and std of NDCG@N over runs.
#[derive(Clone, Debug)]
pub struct NdcgPoint {
    /// List length N.
    pub n: usize,
    /// Mean NDCG@N across runs.
    pub mean: f64,
    /// Standard deviation across runs.
    pub std: f64,
}

crate::impl_to_json!(NdcgPoint { n, mean, std });

/// Run `mech` `runs` times (seeds `base_seed..`), compute NDCG@N for
/// each requested `n` from a single max-N recommendation per run (a
/// top-100 list's prefix *is* the top-10 list), and aggregate.
pub fn mean_ndcg_over_runs(
    mech: &dyn TopNRecommender,
    inputs: &RecommenderInputs<'_>,
    eval: &EvalSet,
    ns: &[usize],
    runs: usize,
    base_seed: u64,
) -> Vec<NdcgPoint> {
    assert!(runs >= 1, "need at least one run");
    assert!(!ns.is_empty(), "need at least one N");
    let n_max = ns.iter().copied().max().expect("non-empty ns");
    let mut per_n: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); ns.len()];
    for run in 0..runs {
        let lists = mech.recommend(inputs, &eval.users, n_max, base_seed + run as u64);
        for (k, &n) in ns.iter().enumerate() {
            per_n[k].push(eval.mean_ndcg(&lists, n));
        }
    }
    ns.iter()
        .zip(per_n)
        .map(|(&n, vals)| {
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            NdcgPoint { n, mean, std: var.sqrt() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_similarity::{Measure, SimilarityMatrix};

    fn fixture() -> (socialrec_graph::SocialGraph, socialrec_graph::PreferenceGraph) {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p =
            preference_graph_from_edges(6, 4, &[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)])
                .unwrap();
        (s, p)
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let a = sample_users(100, 10, 1);
        let b = sample_users(100, 10, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let all = sample_users(5, 10, 1);
        assert_eq!(all.len(), 5);
        let c = sample_users(100, 10, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn exact_recommender_scores_one() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let eval = build_eval_set(&inputs, (0..6).map(UserId).collect());
        let points = mean_ndcg_over_runs(&ExactRecommender, &inputs, &eval, &[1, 2, 4], 2, 0);
        for pt in points {
            assert!((pt.mean - 1.0).abs() < 1e-12, "exact must score 1 at N={}", pt.n);
            assert!(pt.std < 1e-12);
        }
    }

    #[test]
    fn prefix_property_of_single_recommend() {
        // NDCG@10 computed from a top-100 list equals NDCG@10 from a
        // top-10 list: verified by running both ways on the exact
        // recommender with a noisy-ish mechanism stand-in.
        use socialrec_core::private::NoiseOnUtility;
        use socialrec_dp::Epsilon;
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let eval = build_eval_set(&inputs, (0..6).map(UserId).collect());
        let mech = NoiseOnUtility::new(Epsilon::Finite(0.5));
        let wide = mech.recommend(&inputs, &eval.users, 4, 9);
        let narrow = mech.recommend(&inputs, &eval.users, 2, 9);
        for (w, nl) in wide.iter().zip(&narrow) {
            assert_eq!(&w.items[..2], &nl.items[..], "prefix property violated");
        }
        assert!((eval.mean_ndcg(&wide, 2) - eval.mean_ndcg(&narrow, 2)).abs() < 1e-12);
    }

    #[test]
    fn per_user_values_average_to_mean() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let eval = build_eval_set(&inputs, (0..6).map(UserId).collect());
        let lists = ExactRecommender.recommend(&inputs, &eval.users, 3, 0);
        let per = eval.per_user_ndcg(&lists, 3);
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        assert!((eval.mean_ndcg(&lists, 3) - mean).abs() < 1e-12);
    }
}

/// Memory-bounded framework evaluation: computes each user's similarity
/// row *on the fly* instead of caching the full
/// [`SimilarityMatrix`](socialrec_similarity::SimilarityMatrix),
/// so graphs where the cache would not fit in RAM (e.g. full-scale
/// Flixster-like: ~4×10⁸ similarity entries) can still be evaluated.
///
/// For every run and every eval user this computes the similarity set
/// once and uses it for both the exact utilities (the NDCG denominator)
/// and the framework estimates. Memory: `O(|I| + clusters·|I|)` plus
/// per-thread scratch — independent of the similarity volume.
///
/// Returns one [`NdcgPoint`] per requested `n`.
#[allow(clippy::too_many_arguments)] // mirrors the experiment protocol's knobs
pub fn streaming_framework_ndcg(
    social: &SocialGraph,
    prefs: &PreferenceGraph,
    measure: &dyn Similarity,
    partition: &Partition,
    epsilon: Epsilon,
    users: &[UserId],
    ns: &[usize],
    runs: usize,
    base_seed: u64,
) -> Vec<NdcgPoint> {
    assert!(runs >= 1 && !ns.is_empty(), "need runs and ns");
    let n_users = social.num_users();
    let ni = prefs.num_items();
    let n_max = ns.iter().copied().max().expect("non-empty ns");

    // The noisy averages still need the real (cheap) release per run.
    // Reuse ClusterFramework's release via a dummy inputs value with an
    // empty similarity matrix is not possible (types); replicate the
    // count/average/noise release directly instead.
    let release = |seed: u64| -> NoisyClusterAverages {
        // Identical computation to ClusterFramework::noisy_cluster_averages.
        socialrec_core::private::framework::release_noisy_cluster_averages(
            partition, prefs, epsilon, seed,
        )
    };

    let mut per_n: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); ns.len()];
    for run in 0..runs {
        let averages = release(base_seed + run as u64);
        let sums: Vec<Vec<f64>> = users
            .par_iter()
            .map_init(
                || {
                    (
                        SimScratch::new(n_users),
                        Vec::new(),       // similarity row
                        vec![0.0f64; ni], // exact utilities
                        vec![0.0f64; ni], // estimates
                        Vec::new(),       // per-cluster sums
                    )
                },
                |(scratch, row, exact, est, csum), &u| {
                    measure.similarity_set(social, u, scratch, row);
                    exact.iter_mut().for_each(|x| *x = 0.0);
                    est.iter_mut().for_each(|x| *x = 0.0);
                    csum.clear();
                    csum.resize(partition.num_clusters(), 0.0);
                    for &(v, s) in row.iter() {
                        for &i in prefs.items_of(v) {
                            exact[i.index()] += s;
                        }
                        csum[partition.cluster_of(v) as usize] += s;
                    }
                    for (cl, &s) in csum.iter().enumerate() {
                        if s == 0.0 {
                            continue;
                        }
                        let arow = averages.cluster_row(cl as u32);
                        for (x, &w) in est.iter_mut().zip(arow) {
                            *x += s * w;
                        }
                    }
                    let private: Vec<ItemId> =
                        top_n_items(est, n_max).into_iter().map(|(i, _)| i).collect();
                    ns.iter().map(|&n| per_user_ndcg(exact, &private, n)).collect::<Vec<f64>>()
                },
            )
            .collect();
        for (k, _) in ns.iter().enumerate() {
            let mean = sums.iter().map(|v| v[k]).sum::<f64>() / users.len().max(1) as f64;
            per_n[k].push(mean);
        }
    }
    ns.iter()
        .zip(per_n)
        .map(|(&n, vals)| {
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            NdcgPoint { n, mean, std: var.sqrt() }
        })
        .collect()
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use socialrec_community::{ClusteringStrategy, LouvainStrategy};
    use socialrec_similarity::{Measure, SimilarityMatrix};

    #[test]
    fn streaming_matches_cached_evaluation() {
        let ds = socialrec_datasets::lastfm_like_scaled(0.06, 4);
        let measure = Measure::CommonNeighbors;
        let partition = LouvainStrategy { restarts: 2, seed: 0, refine: true }.cluster(&ds.social);
        let users: Vec<UserId> = (0..ds.social.num_users() as u32).step_by(3).map(UserId).collect();
        let ns = [5usize, 10];
        // Cached pipeline.
        let sim = SimilarityMatrix::build(&ds.social, &measure);
        let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
        let eval = build_eval_set(&inputs, users.clone());
        let fw = socialrec_core::private::ClusterFramework::new(&partition, Epsilon::Finite(0.5));
        let cached = mean_ndcg_over_runs(&fw, &inputs, &eval, &ns, 2, 11);
        // Streaming pipeline, same seeds.
        let streaming = streaming_framework_ndcg(
            &ds.social,
            &ds.prefs,
            &measure,
            &partition,
            Epsilon::Finite(0.5),
            &users,
            &ns,
            2,
            11,
        );
        for (a, b) in cached.iter().zip(&streaming) {
            assert_eq!(a.n, b.n);
            assert!(
                (a.mean - b.mean).abs() < 1e-9,
                "N={}: cached {} vs streaming {}",
                a.n,
                a.mean,
                b.mean
            );
        }
    }
}
