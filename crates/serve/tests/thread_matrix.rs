//! Scheduler-thread-count matrix for the new kernels.
//!
//! `SOCIALREC_THREADS` is latched by a `OnceLock` at the first parallel
//! call, so one process can only ever observe one thread count. To
//! exercise the bit-identity contracts off the 1-core CI happy path,
//! the matrix test re-runs this test binary as a child process per
//! thread count in {1, 2, 8}, each child running the full equivalence
//! suite (blocked utility kernel, parallel `SimilarityMatrix` build,
//! parallel `SimMassIndex` build, best-of-restarts Louvain, sharded
//! `A_w` release) under that scheduler width.

use socialrec_community::{ClusteringStrategy, Louvain, LouvainStrategy};
use socialrec_core::private::framework::{
    release_noisy_cluster_averages, release_noisy_cluster_averages_reference,
    release_noisy_cluster_averages_with, NoiseModel,
};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_serve::{kernel, SimMassIndex};
use socialrec_similarity::{Measure, SimilarityMatrix};

fn run_equivalence_checks() {
    let ds = lastfm_like_scaled(0.04, 21);
    let n = ds.social.num_users();

    // Parallel SimilarityMatrix build vs the sequential reference:
    // row lengths, neighbor order, and score bits.
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let sim_ref = SimilarityMatrix::build_sequential(&ds.social, &Measure::CommonNeighbors);
    assert_eq!(sim.num_users(), sim_ref.num_users());
    assert_eq!(sim.num_entries(), sim_ref.num_entries());
    for u in 0..n as u32 {
        let (va, sa) = sim.row(UserId(u));
        let (vb, sb) = sim_ref.row(UserId(u));
        assert_eq!(va, vb, "row {u} neighbors differ");
        for (a, b) in sa.iter().zip(sb) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {u} score bits differ");
        }
    }

    // Parallel best-of-restarts Louvain vs the sequential restart
    // loop: partition, modularity bits and level count.
    let louvain = Louvain { seed: 21, ..Default::default() };
    let par = louvain.run_best_of(&ds.social, 3);
    let seq = louvain.run_best_of_sequential(&ds.social, 3);
    assert_eq!(par.partition, seq.partition, "run_best_of partition differs");
    assert_eq!(par.modularity.to_bits(), seq.modularity.to_bits(), "modularity bits differ");
    assert_eq!(par.levels, seq.levels, "level count differs");

    // Parallel SimMassIndex build vs the sequential reference
    // (PartialEq covers row lengths, clusters, and mass values;
    // the bit-level check is the kernel comparison below).
    let partition = LouvainStrategy { restarts: 2, seed: 21, refine: true }.cluster(&ds.social);
    let index = SimMassIndex::build(&sim, &partition);
    let index_ref = SimMassIndex::build_reference(&sim, &partition);
    assert_eq!(index, index_ref, "parallel SimMassIndex differs from reference");

    // Sharded A_w release vs the sequential scan, value bits, under
    // both noise models.
    for noise in [NoiseModel::Laplace, NoiseModel::Geometric] {
        let eps = Epsilon::Finite(0.5);
        let par = release_noisy_cluster_averages_with(&partition, &ds.prefs, eps, noise, 7);
        let seq = release_noisy_cluster_averages_reference(&partition, &ds.prefs, eps, noise, 7);
        assert_eq!((par.num_clusters(), par.num_items()), (seq.num_clusters(), seq.num_items()));
        for (i, (a, b)) in par.values().iter().zip(seq.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{noise:?} release value {i} differs");
        }
    }

    // Blocked utility kernel vs the per-user full-width reference,
    // across tile sizes (including ones that do not divide the item
    // count) and ragged user blocks.
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
}

/// The checks under whatever `SOCIALREC_THREADS` is ambient (1 in
/// default CI, the overridden value when run as a matrix child).
#[test]
fn equivalence_under_ambient_threads() {
    run_equivalence_checks();
}

/// Re-run `equivalence_under_ambient_threads` in a child process per
/// scheduler width. The `--exact` filter keeps the child from recursing
/// into this test.
#[test]
fn equivalence_matrix_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "8"] {
        let status = std::process::Command::new(&exe)
            .args(["--exact", "equivalence_under_ambient_threads"])
            .env("SOCIALREC_THREADS", threads)
            .status()
            .expect("spawn matrix child");
        assert!(status.success(), "equivalence failed under SOCIALREC_THREADS={threads}");
    }
}
