//! Concurrent-serving stress: N threads issue mixed `recommend_one` /
//! `recommend_batch` traffic across a live publish (a new generation
//! swapped in mid-run) and every answer is checked bitwise against the
//! per-seed `ClusterFramework` reference. Clients follow the published
//! seed: they switch to generation B only after it is published. A
//! bit-match proves the response was computed wholly from its own
//! seed's release — a mixed-generation response cannot reproduce either
//! reference — and a returned answer per issued query proves nothing
//! was dropped. After the run, per-shard counters must conserve (every
//! issued query counted exactly once), nothing is refused, and the
//! accountant, the one record of ε, holds exactly one spend per
//! published generation.
//!
//! Like `thread_matrix.rs`, the scheduler width is latched per process,
//! so the matrix test re-runs this binary as a child per
//! `SOCIALREC_THREADS ∈ {1, 2, 8}`.

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::framework::ClusterFramework;
use socialrec_core::{
    BudgetSchedule, DynamicRecommender, RecommenderInputs, TopN, TopNRecommender,
};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: u32 = 8;
const ITERS: u32 = 30;
const SEED_A: u64 = 5;
const SEED_B: u64 = 6;
const TOP_N: usize = 8;

fn assert_bits_match(got: &TopN, want: &TopN, seed: u64) {
    assert_eq!(got.user, want.user);
    assert_eq!(got.items.len(), want.items.len(), "user {:?} seed {seed}", got.user);
    for ((gi, gu), (wi, wu)) in got.items.iter().zip(&want.items) {
        assert_eq!(gi, wi, "item differs for {:?} under seed {seed}", got.user);
        assert_eq!(
            gu.to_bits(),
            wu.to_bits(),
            "utility bits differ for {:?} under seed {seed} — response mixed generations?",
            got.user
        );
    }
}

fn run_stress() {
    let ds = lastfm_like_scaled(0.05, 33);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let partition = LouvainStrategy::default().cluster(&ds.social);
    let n_users = ds.social.num_users() as u32;
    let all: Vec<UserId> = (0..n_users).map(UserId).collect();

    // Two scheduled releases of ε = 0.4 each.
    let mut accountant =
        DynamicRecommender::new(Epsilon::Finite(0.8), BudgetSchedule::Uniform { releases: 2 });
    let epsilon = Epsilon::Finite(0.4);

    // Per-seed references, drawn outside the accountant.
    let fw = ClusterFramework::new(&partition, epsilon);
    let want_a = fw.recommend(&inputs, &all, TOP_N, SEED_A);
    let want_b = fw.recommend(&inputs, &all, TOP_N, SEED_B);

    let daemon =
        ShardedServer::from_index(&partition, SimMassIndex::build(&sim, &partition), epsilon, 4);
    let gen_a = daemon.generation_for(SEED_A);
    let gen_b = daemon.generation_for(SEED_B);

    let (eps_a, release_a) = accountant.release_averages(&partition, &ds.prefs, SEED_A).unwrap();
    assert_eq!(eps_a, epsilon);
    daemon.publish_release(SEED_A, release_a);
    let primed = daemon.recommend_one(&inputs, UserId(0), TOP_N, SEED_A);
    assert_bits_match(&primed, &want_a[0], SEED_A);
    let (_, release_b) = accountant.release_averages(&partition, &ds.prefs, SEED_B).unwrap();
    let mut release_b = Some(release_b);

    // Mixed single/batch traffic. Every query reads the published seed;
    // client 0 publishes generation B halfway through its loop, under
    // the other clients' load, and only then moves the seed.
    let current = AtomicU64::new(SEED_A);
    let issued: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (daemon, inputs, all, want_a, want_b, current) =
                    (&daemon, &inputs, &all, &want_a, &want_b, &current);
                let mut publish_b = if t == 0 { release_b.take() } else { None };
                s.spawn(move || {
                    let mut issued = 0u64;
                    for i in 0..ITERS {
                        if i == ITERS / 2 {
                            if let Some(release) = publish_b.take() {
                                daemon.publish_release(SEED_B, release);
                                current.store(SEED_B, Ordering::Release);
                            }
                        }
                        // Acquire pairs with the publisher's Release store:
                        // a client that reads SEED_B sees its publish.
                        let seed = current.load(Ordering::Acquire);
                        let want = if seed == SEED_A { want_a } else { want_b };
                        if (i + t) % 3 == 0 {
                            // A small scattered batch.
                            let lo = ((t * 17 + i * 5) % n_users) as usize;
                            let hi = (lo + 5).min(n_users as usize);
                            let users = &all[lo..hi];
                            let got = daemon.recommend_batch(inputs, users, TOP_N, seed);
                            assert_eq!(got.len(), users.len(), "dropped batch rows");
                            for g in &got {
                                assert_bits_match(g, &want[g.user.index()], seed);
                            }
                            issued += users.len() as u64;
                        } else {
                            let u = UserId((t * 13 + i * 7) % n_users);
                            let got = daemon.recommend_one(inputs, u, TOP_N, seed);
                            assert_bits_match(&got, &want[u.index()], seed);
                            issued += 1;
                        }
                    }
                    issued
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stress worker panicked")).sum()
    });

    // Exactly two releases reached the daemon, both by publish.
    assert_eq!(daemon.exchange().epoch(), 2, "one epoch per published generation");
    assert_eq!(daemon.exchange().retained(), vec![gen_a, gen_b]);

    // A final quiescent full sweep on the new generation: still
    // bit-identical, and it deterministically leaves every shard's
    // epoch cell on the post-swap generation (mid-run, a seed-A query
    // admitted before the switch may be the last traffic a shard sees).
    let sweep = daemon.recommend_batch(&inputs, &all, TOP_N, SEED_B);
    for g in &sweep {
        assert_bits_match(g, &want_b[g.user.index()], SEED_B);
    }

    // Counter conservation: every issued query (plus the priming single
    // and the final sweep) is counted exactly once across the shards,
    // and none was refused.
    let snap = daemon.registry().snapshot();
    let counted: u64 =
        snap.counters.iter().filter(|(n, _)| n.ends_with(".queries")).map(|(_, v)| *v).sum();
    assert_eq!(counted, issued + 1 + n_users as u64, "per-shard query counters must conserve");
    let admissions: u64 =
        snap.counters.iter().filter(|(n, _)| n.ends_with(".admissions")).map(|(_, v)| *v).sum();
    assert!(admissions >= 1, "coalescing admission must have run");
    let refused = daemon.registry().counter("serve.refused").get();
    assert_eq!(refused, 0, "clients only ever ask for published seeds");

    // The accountant: one ε spend per published generation, 2 × 0.4.
    let spent = accountant.accountant();
    assert_eq!(spent.releases() as u64, daemon.exchange().epoch());
    assert_eq!(spent.total_epsilon().to_bits(), (2.0 * 0.4f64).to_bits());
    // Every shard ends on the post-swap generation (all shards saw
    // seed-B traffic).
    assert_eq!(daemon.shard_generations(), vec![Some(gen_b); daemon.num_shards()]);
}

/// The stress run under whatever `SOCIALREC_THREADS` is ambient.
#[test]
fn stress_under_ambient_threads() {
    run_stress();
}

/// Re-run the stress test in a child process per scheduler width.
#[test]
fn stress_matrix_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "8"] {
        let status = std::process::Command::new(&exe)
            .args(["--exact", "stress_under_ambient_threads"])
            .env("SOCIALREC_THREADS", threads)
            .status()
            .expect("spawn matrix child");
        assert!(status.success(), "stress failed under SOCIALREC_THREADS={threads}");
    }
}
