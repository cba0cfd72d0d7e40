//! A client cannot mint releases by cycling query seeds.
//!
//! Every query carries a `seed`, and a release drawn under a new seed
//! is an independent Laplace draw: a client that collects k of them can
//! average the noise away, an unaccounted k·ε spend. The daemon
//! therefore serves only releases that were published to it. A seed
//! that names no published generation gets an empty list, counted in
//! `serve.refused` and journalled as a `query_refused` event, and
//! neither the exchange epoch nor the accountant moves.

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::{BudgetSchedule, DynamicRecommender, RecommenderInputs, TopN};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_obs::journal::{REFUSED_UNPUBLISHED_GENERATION, REFUSED_USER_OUTSIDE_PARTITION};
use socialrec_obs::{EventKind, Journal};
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};

#[test]
fn cycling_unpublished_seeds_mints_no_release() {
    let ds = lastfm_like_scaled(0.05, 3);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let partition = LouvainStrategy::default().cluster(&ds.social);

    // The accountant makes the one release and the daemon serves it.
    let mut accountant =
        DynamicRecommender::new(Epsilon::Finite(0.5), BudgetSchedule::Uniform { releases: 1 });
    let (epsilon, release) = accountant.release_averages(&partition, &ds.prefs, 1).unwrap();
    let daemon =
        ShardedServer::from_index(&partition, SimMassIndex::build(&sim, &partition), epsilon, 4);
    daemon.publish_release(1, release);
    assert_eq!(daemon.exchange().epoch(), 1);
    assert!(!daemon.recommend_one(&inputs, UserId(0), 10, 1).items.is_empty());
    let spent = accountant.accountant();
    assert_eq!(spent.releases(), 1);

    // Arm the journal: every refusal below must reach it.
    socialrec_obs::arm_live();
    let journal = Journal::global();
    let first_seq = journal.emitted();
    let refused = daemon.registry().counter("serve.refused");

    // Eight single queries, each on a seed nobody published.
    for k in 0..8u32 {
        let u = UserId(k);
        let top = daemon.recommend_one(&inputs, u, 10, 100 + k as u64);
        assert_eq!(top, TopN { user: u, items: vec![] }, "seed {} was never published", 100 + k);
    }
    assert_eq!(refused.get(), 8);
    assert_eq!(daemon.exchange().epoch(), 1, "refused singles must not release");

    // One eight-user batch on another unpublished seed.
    let users: Vec<UserId> = (10..18).map(UserId).collect();
    let batch = daemon.recommend_batch(&inputs, &users, 10, 999);
    assert_eq!(batch.len(), users.len());
    for (top, &u) in batch.iter().zip(&users) {
        assert_eq!(top, &TopN { user: u, items: vec![] });
    }
    assert_eq!(refused.get(), 16);
    assert_eq!(daemon.exchange().epoch(), 1, "a refused batch must not release");

    // A user outside the partition, on the published seed.
    let outside = UserId(partition.num_users() as u32);
    assert!(daemon.recommend_one(&inputs, outside, 10, 1).items.is_empty());
    assert_eq!(refused.get(), 17);
    socialrec_obs::disarm_live();

    // One journal event per refused query, naming its user and reason.
    let mut events: Vec<(u64, u64)> = journal
        .snapshot(usize::MAX)
        .events
        .iter()
        .filter(|e| e.seq >= first_seq && e.kind == EventKind::QueryRefused)
        .map(|e| (e.a, e.b))
        .collect();
    events.sort_unstable();
    let mut want: Vec<(u64, u64)> = (0..8)
        .chain(10..18)
        .map(|u| (u, REFUSED_UNPUBLISHED_GENERATION))
        .chain([(u64::from(outside.0), REFUSED_USER_OUTSIDE_PARTITION)])
        .collect();
    want.sort_unstable();
    assert_eq!(events, want);

    // The accountant, the one record of ε, did not move.
    let after = accountant.accountant();
    assert_eq!(after.releases(), 1, "refused queries must spend nothing");
    assert_eq!(after.total_epsilon().to_bits(), spent.total_epsilon().to_bits());
}
