//! Bit-identity of the serving path under the ambient `SOCIALREC_SIMD`
//! tier.
//!
//! The dispatch tier is resolved once per process (an `AtomicU8` latch
//! in `socialrec_simd`), so one test process runs one build of the
//! multiversioned kernel. CI runs the workspace tests twice, with
//! `SOCIALREC_SIMD` unset (the `avx2` build on an AVX2 runner) and with
//! `SOCIALREC_SIMD=scalar` (the baseline build), so these checks, like
//! the kernel's own property test, hold the DESIGN.md §6d contract on
//! both builds. To run the baseline build locally:
//! `SOCIALREC_SIMD=scalar cargo test -p socialrec-serve --test simd_matrix`.
//! The checks: the blocked utility kernel against its reference on real
//! data, top-N selection against the reference heap, and end-to-end
//! serving against the framework walk.

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::framework::release_noisy_cluster_averages;
use socialrec_core::private::ClusterFramework;
use socialrec_core::{top_n_items, top_n_items_reference, RecommenderInputs, TopNRecommender};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_serve::{kernel, ShardedServer, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};

/// The checks under whatever tier is ambient (auto-dispatch in CI's
/// default test step, the baseline build under `SOCIALREC_SIMD=scalar`).
#[test]
fn equivalence_under_ambient_isa() {
    eprintln!(
        "simd_matrix: detected {}, active {}",
        socialrec_simd::detected().name(),
        socialrec_simd::active().name()
    );
    // Under an override, the build under test must be the one
    // requested (clamped to what the CPU runs).
    if let Some(want) = socialrec_simd::requested() {
        assert_eq!(
            socialrec_simd::active(),
            want.clamped(),
            "resolved a different tier than SOCIALREC_SIMD requested"
        );
    }
    let ds = lastfm_like_scaled(0.04, 21);
    let n = ds.social.num_users();

    // Blocked utility kernel vs the one-cluster-per-pass reference,
    // across ragged tiles and user blocks.
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let partition = LouvainStrategy { restarts: 2, seed: 21, refine: true }.cluster(&ds.social);
    let index = SimMassIndex::build(&sim, &partition);
    let averages = release_noisy_cluster_averages(&partition, &ds.prefs, Epsilon::Finite(0.5), 7);
    let ni = averages.num_items();
    let users: Vec<UserId> = (0..n as u32).step_by(3).map(UserId).collect();
    let mut reference = Vec::new();
    let mut blocked = Vec::new();
    for tile in [1, 13, kernel::ITEM_TILE, ni + 1] {
        for block in users.chunks(kernel::USER_BLOCK) {
            kernel::utilities_block_tiled(&averages, &index, block, tile, &mut blocked);
            for (k, &u) in block.iter().enumerate() {
                kernel::utilities_into_reference(&averages, &index, u, &mut reference);
                let got = &blocked[k * ni..(k + 1) * ni];
                for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "tile={tile} user={u:?} item={i}: blocked kernel diverged"
                    );
                }
            }
        }
    }

    // Top-N selection (the chunked reject scan) vs the reference heap
    // over real utility rows, including the NaN-free negative regime.
    for &u in users.iter().take(64) {
        kernel::utilities_into_reference(&averages, &index, u, &mut reference);
        for top in [1, 10, ni] {
            let fast = top_n_items(&reference, top);
            let slow = top_n_items_reference(&reference, top);
            assert_eq!(fast.len(), slow.len(), "top-{top} for {u:?} diverged in length");
            for ((fi, fu), (si, su)) in fast.iter().zip(&slow) {
                assert_eq!(fi, si, "top-{top} for {u:?} diverged in items");
                assert_eq!(fu.to_bits(), su.to_bits(), "top-{top} for {u:?} diverged in bits");
            }
        }
    }

    // End-to-end: the daemon serving the published release vs the
    // framework's per-user walk drawing the same release.
    let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let sample: Vec<UserId> = (0..n as u32).step_by(17).map(UserId).collect();
    let want = fw.recommend(&inputs, &sample, 10, 7);
    let daemon = ShardedServer::from_index(&partition, index, Epsilon::Finite(0.5), 4);
    daemon.publish_release(7, averages);
    let got = daemon.recommend_batch(&inputs, &sample, 10, 7);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.user, w.user);
        assert_eq!(g.items.len(), w.items.len(), "list shape diverged for {:?}", g.user);
        for ((gi, gu), (wi, wu)) in g.items.iter().zip(&w.items) {
            assert_eq!(gi, wi, "served item diverged for {:?}", g.user);
            assert_eq!(gu.to_bits(), wu.to_bits(), "served bits diverged for {:?}", g.user);
        }
    }
}
