//! The serving contract: every path through the sharded daemon — its
//! batch fan-out and its coalescing admission — answers with the
//! framework's `A_R` on the *published* release. For a release that
//! `ClusterFramework::recommend` would draw with the same seed, the
//! answer is **bit-identical** to it: same items, same order, same
//! utility bits, across seeds, noise models, ε values, and degenerate
//! partitions. The index that every shard shares, the epoch cells, and
//! admission batching are pure post-processing rearrangements, so any
//! divergence is a bug.

use socialrec_community::{ClusteringStrategy, LouvainStrategy, Partition};
use socialrec_core::private::framework::{
    release_noisy_cluster_averages_with, ClusterFramework, NoiseModel,
};
use socialrec_core::{RecommenderInputs, TopN, TopNRecommender};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};

fn assert_bit_identical(got: &[TopN], want: &[TopN]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.user, w.user);
        assert_eq!(g.items.len(), w.items.len());
        for ((gi, gu), (wi, wu)) in g.items.iter().zip(&w.items) {
            assert_eq!(gi, wi, "item differs for {:?}", g.user);
            assert_eq!(
                gu.to_bits(),
                wu.to_bits(),
                "utility bits differ for {:?} item {gi:?}: {gu} vs {wu}",
                g.user
            );
        }
    }
}

#[test]
fn sharded_daemon_is_bit_identical_to_framework() {
    let ds = lastfm_like_scaled(0.06, 21);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let n_users = ds.social.num_users();
    let users: Vec<UserId> = (0..n_users as u32).map(UserId).collect();

    let louvain = LouvainStrategy::default().cluster(&ds.social);
    let partitions: Vec<(&str, Partition)> = vec![
        ("louvain", louvain),
        ("singletons", Partition::singletons(n_users)),
        ("one_cluster", Partition::one_cluster(n_users)),
    ];
    for (name, partition) in &partitions {
        let index = SimMassIndex::build(&sim, partition);
        for noise in [NoiseModel::Laplace, NoiseModel::Geometric] {
            for epsilon in [Epsilon::Finite(0.5), Epsilon::Finite(0.05), Epsilon::Infinite] {
                let fw = ClusterFramework::new(partition, epsilon).with_noise(noise);
                let daemons: Vec<ShardedServer<'_>> = [1, 4, 7]
                    .map(|shards| {
                        ShardedServer::from_index(partition, index.clone(), epsilon, shards)
                    })
                    .into();
                for seed in [0u64, 1, 0xDEAD_BEEF] {
                    let want = fw.recommend(&inputs, &users, 10, seed);
                    for daemon in &daemons {
                        let release = release_noisy_cluster_averages_with(
                            partition, &ds.prefs, epsilon, noise, seed,
                        );
                        daemon.publish_release(seed, release);
                        let got = daemon.recommend_batch(&inputs, &users, 10, seed);
                        assert_bit_identical(&got, &want);
                        // Same generation again: served from the shards'
                        // epoch cells, still identical.
                        let again = daemon.recommend_batch(&inputs, &users, 10, seed);
                        assert_bit_identical(&again, &want);
                    }
                }
                for daemon in &daemons {
                    assert_eq!(
                        daemon.exchange().epoch(),
                        3,
                        "{name}/{} shards: one epoch per published seed",
                        daemon.num_shards()
                    );
                }
            }
        }
    }
}

#[test]
fn partial_and_reordered_batches_still_match() {
    let ds = lastfm_like_scaled(0.05, 99);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::AdamicAdar);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let partition = LouvainStrategy::default().cluster(&ds.social);
    let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.2));
    let index = SimMassIndex::build(&sim, &partition);
    let daemon = ShardedServer::from_index(&partition, index, Epsilon::Finite(0.2), 4);
    daemon.publish_release(5, fw.noisy_cluster_averages(&inputs, 5));

    // A scattered, unsorted, repeating subset of users.
    let n = ds.social.num_users() as u32;
    let users: Vec<UserId> = [n - 1, 3, 17 % n, 3, 0, n / 2].into_iter().map(UserId).collect();
    let got = daemon.recommend_batch(&inputs, &users, 25, 5);
    let want = fw.recommend(&inputs, &users, 25, 5);
    assert_bit_identical(&got, &want);
}

#[test]
fn coalescing_admission_is_bit_identical_to_framework() {
    // Drive the admission queue from many threads at once so leaders
    // genuinely coalesce batches, then check every answer against the
    // uncoalesced reference. Mixed n and repeated users included.
    let ds = lastfm_like_scaled(0.05, 77);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::AdamicAdar);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let partition = LouvainStrategy::default().cluster(&ds.social);
    let epsilon = Epsilon::Finite(0.2);
    let fw = ClusterFramework::new(&partition, epsilon);
    let daemon =
        ShardedServer::from_index(&partition, SimMassIndex::build(&sim, &partition), epsilon, 4);
    let n_users = ds.social.num_users() as u32;
    let seed = 11u64;
    daemon.publish_release(seed, fw.noisy_cluster_averages(&inputs, seed));

    let all: Vec<UserId> = (0..n_users).map(UserId).collect();
    let want = fw.recommend(&inputs, &all, 10, seed);

    std::thread::scope(|s| {
        for t in 0..8u32 {
            let (daemon, inputs, want) = (&daemon, &inputs, &want);
            s.spawn(move || {
                for i in 0..(n_users / 2) {
                    let u = UserId((i * 7 + t * 13) % n_users);
                    let top = daemon.recommend_one(inputs, u, 10, seed);
                    let reference = want.iter().find(|w| w.user == u).unwrap();
                    assert_bit_identical(
                        std::slice::from_ref(&top),
                        std::slice::from_ref(reference),
                    );
                }
            });
        }
    });
    assert_eq!(daemon.exchange().epoch(), 1, "coalesced singles share the one published release");

    // The per-shard counters must conserve: every submitted query
    // served exactly once.
    let snap = daemon.registry().snapshot();
    let served: u64 =
        snap.counters.iter().filter(|(n, _)| n.ends_with(".queries")).map(|(_, v)| *v).sum();
    assert_eq!(served, 8 * (n_users as u64 / 2));
}
