//! Serving-layer benchmarks: the daemon's batch over a published
//! release vs naive per-query recommendation, plus index construction
//! and the release-and-publish cost of a new generation.

use criterion::{criterion_group, criterion_main, Criterion};
use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::ClusterFramework;
use socialrec_core::{RecommenderInputs, TopNRecommender};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};
use std::hint::black_box;

fn bench_serving(c: &mut Criterion) {
    let ds = lastfm_like_scaled(0.25, 7);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let partition = LouvainStrategy::default().cluster(&ds.social);
    let users: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();
    let eps = Epsilon::Finite(0.5);

    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.bench_function("index_build", |b| {
        b.iter(|| black_box(SimMassIndex::build(&sim, &partition)))
    });
    let fw = ClusterFramework::new(&partition, eps);
    g.bench_function("batch_all_users_published", |b| {
        let daemon = ShardedServer::new(&partition, &sim, eps, 1);
        daemon.publish_release(0, fw.noisy_cluster_averages(&inputs, 0));
        b.iter(|| black_box(daemon.recommend_batch(&inputs, &users, 10, 0)))
    });
    g.bench_function("batch_all_users_fresh_release", |b| {
        let daemon = ShardedServer::new(&partition, &sim, eps, 1);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1; // new generation every iteration: release + publish
            daemon.publish_release(seed, fw.noisy_cluster_averages(&inputs, seed));
            black_box(daemon.recommend_batch(&inputs, &users, 10, seed))
        })
    });
    g.bench_function("framework_recommend_all_users", |b| {
        b.iter(|| black_box(fw.recommend(&inputs, &users, 10, 0)))
    });
    g.bench_function("naive_per_query_100", |b| {
        b.iter(|| {
            for u in 0..100u32 {
                black_box(fw.recommend(&inputs, &[UserId(u)], 10, 0));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
