//! `/ledger` is the accountant.
//!
//! With tracing off, an accountant makes two releases and publishes
//! them into a daemon. The introspection endpoint, scraped over HTTP,
//! must report both releases and exactly the bits of the accountant's
//! spent ε — in `/ledger` and in the `/metrics` ε series.

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::{BudgetSchedule, DynamicRecommender};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_obs::{http_get, IntrospectConfig, IntrospectionServer};
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};

#[test]
fn ledger_reports_the_accountant_with_tracing_off() {
    assert!(!socialrec_obs::enabled(), "no test in this binary enables tracing");
    let ds = lastfm_like_scaled(0.05, 5);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let partition = LouvainStrategy::default().cluster(&ds.social);

    let mut accountant =
        DynamicRecommender::new(Epsilon::Finite(0.6), BudgetSchedule::Uniform { releases: 2 });
    let (epsilon, release) = accountant.release_averages(&partition, &ds.prefs, 1).unwrap();
    let daemon =
        ShardedServer::from_index(&partition, SimMassIndex::build(&sim, &partition), epsilon, 2);
    let server = IntrospectionServer::start(
        0,
        IntrospectConfig {
            registry: daemon.registry_handle(),
            accountant: accountant.accountant_handle(),
        },
    )
    .expect("bind localhost");
    daemon.publish_release(1, release);
    let (_, release) = accountant.release_averages(&partition, &ds.prefs, 2).unwrap();
    daemon.publish_release(2, release);
    assert_eq!(daemon.exchange().epoch(), 2);

    let spent = accountant.accountant();
    assert_eq!(spent.releases(), 2);
    let eps = spent.total_epsilon();
    let (status, body) = http_get(server.addr(), "/ledger").expect("scrape /ledger");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{{\"cumulative_epsilon\":{eps:?},\"cumulative_epsilon_bits\":{},\"releases\":2}}\n",
            eps.to_bits()
        )
    );
    let (status, metrics) = http_get(server.addr(), "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("socialrec_ledger_releases 2\n"), "{metrics}");
    assert!(metrics.contains(&format!("socialrec_ledger_cumulative_epsilon {eps:?}\n")));
    server.shutdown();
}
