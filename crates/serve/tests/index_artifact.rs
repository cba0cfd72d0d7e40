//! The sim-mass index artifact fails closed, and a rebuild under a
//! live daemon leaves the daemon on the rows it mapped.
//!
//! * Opening a corrupted index artifact gives an error or an index
//!   whose every cluster id is below its cluster count — never a panic,
//!   at open or on the first query. A property drives byte flips and
//!   truncations of a small index artifact through both backings.
//! * Rewriting the artifact path while a daemon serves from its mapping
//!   leaves every answer bit-identical to the old file; only a fresh
//!   `open_artifact` serves the new rows.

use proptest::prelude::*;
use socialrec_community::{ClusteringStrategy, LouvainStrategy, Partition};
use socialrec_core::{BudgetSchedule, DynamicRecommender, RecommenderInputs, TopN};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::social::social_graph_from_edges;
use socialrec_graph::UserId;
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::artifact::ValueKind;
use socialrec_similarity::{Measure, SimilarityMatrix};
use std::path::PathBuf;
use std::sync::OnceLock;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("socialrec-index-artifact-{}-{tag}.srcsr", std::process::id()))
}

/// The bytes of a small f64 index artifact: two triangles joined by a
/// bridge and a pendant, CN similarity, three clusters.
fn small_index_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let g = social_graph_from_edges(
            7,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)],
        )
        .unwrap();
        let sim = SimilarityMatrix::build(&g, &Measure::CommonNeighbors);
        let partition = Partition::from_assignment(&[0, 0, 0, 1, 1, 1, 2]);
        let index = SimMassIndex::build(&sim, &partition);
        assert!(index.nnz() > 0);
        let path = temp_path("small");
        index.write_artifact(&path, ValueKind::F64).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Open `bytes` through both backings; each must fail or yield an index
/// whose every row reads cluster ids below the cluster count.
fn open_fails_closed(bytes: &[u8], tag: &str) {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    for opened in [SimMassIndex::open_artifact(&path), SimMassIndex::open_artifact_owned(&path)] {
        let Ok(index) = opened else { continue };
        for u in 0..index.num_users() as u32 {
            let (clusters, vals) = index.row_vals(UserId(u));
            assert_eq!(clusters.len(), vals.len());
            for &c in clusters {
                assert!((c as usize) < index.num_clusters(), "cluster id {c} opened");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_index_artifacts_fail_closed(
        flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 0..4),
        cut in 0usize..1 << 20,
        truncate in 0u8..3,
    ) {
        let mut bytes = small_index_bytes().to_vec();
        for (at, xor) in flips {
            let len = bytes.len();
            bytes[at % len] ^= xor;
        }
        if truncate == 0 {
            bytes.truncate(cut % bytes.len());
        }
        open_fails_closed(&bytes, "mutant");
    }
}

/// The corruption that used to open and then panic on the first query:
/// a stored cluster id far past the cluster count.
#[test]
fn out_of_range_cluster_id_fails_at_open() {
    let good = small_index_bytes();
    let cols_off = u64::from_le_bytes(good[72..80].try_into().unwrap()) as usize;
    let num_clusters = u64::from_le_bytes(good[48..56].try_into().unwrap()) as u32;
    let path = temp_path("bad-id");
    for (id, opens) in [(0xFF_FFFF, false), (num_clusters, false), (num_clusters - 1, true)] {
        let mut bytes = good.to_vec();
        bytes[cols_off..cols_off + 4].copy_from_slice(&id.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match SimMassIndex::open_artifact(&path) {
            Ok(_) => assert!(opens, "cluster id {id} of {num_clusters} opened"),
            Err(e) => {
                assert!(!opens, "cluster id {id} of {num_clusters} refused: {e}");
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("cluster id"), "{e}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

fn assert_same_bits(got: &[TopN], want: &[TopN], what: &str) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.user, w.user);
        let bits = |t: &TopN| t.items.iter().map(|(i, s)| (*i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(g), bits(w), "{what}: user {:?}", g.user);
    }
}

/// Rebuild the index artifact under a daemon serving it from a mapping:
/// every answer stays on the old file until a fresh open.
#[test]
fn rebuilt_index_artifact_leaves_the_live_daemon_on_the_old_rows() {
    const SEED: u64 = 3;
    let ds = lastfm_like_scaled(0.05, 9);
    let partition = LouvainStrategy::default().cluster(&ds.social);
    let old_sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let new_sim = SimilarityMatrix::build(&ds.social, &Measure::AdamicAdar);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &old_sim };
    let old_rows = SimMassIndex::build(&old_sim, &partition);
    let new_rows = SimMassIndex::build(&new_sim, &partition);
    assert!(old_rows != new_rows, "the rebuild must change the rows");
    let all: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();

    let mut accountant =
        DynamicRecommender::new(Epsilon::Finite(0.5), BudgetSchedule::Uniform { releases: 1 });
    let (epsilon, release) = accountant.release_averages(&partition, &ds.prefs, SEED).unwrap();
    let serve = |index: SimMassIndex| {
        let daemon = ShardedServer::from_index(&partition, index, epsilon, 4);
        daemon.publish_release(SEED, release.clone());
        daemon
    };
    let path = temp_path("rebuild");
    old_rows.write_artifact(&path, ValueKind::F64).unwrap();
    let want_old = serve(old_rows).recommend_batch(&inputs, &all, 10, SEED);
    let want_new = serve(new_rows.clone()).recommend_batch(&inputs, &all, 10, SEED);
    assert!(
        want_old.iter().zip(&want_new).any(|(a, b)| a != b),
        "the new rows must change some answer"
    );

    let mapped = SimMassIndex::open_artifact(&path).unwrap();
    assert!(mapped.is_mapped());
    let live = serve(mapped);
    assert_same_bits(&live.recommend_batch(&inputs, &all, 10, SEED), &want_old, "before");

    new_rows.write_artifact(&path, ValueKind::F64).unwrap();
    assert_same_bits(&live.recommend_batch(&inputs, &all, 10, SEED), &want_old, "batch after");
    let singles: Vec<TopN> =
        all.iter().map(|&u| live.recommend_one(&inputs, u, 10, SEED)).collect();
    assert_same_bits(&singles, &want_old, "singles after");

    let reopened = serve(SimMassIndex::open_artifact(&path).unwrap());
    assert_same_bits(&reopened.recommend_batch(&inputs, &all, 10, SEED), &want_new, "reopened");
    std::fs::remove_file(&path).ok();
}
