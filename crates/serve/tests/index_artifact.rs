//! The sim-mass index artifact fails closed, and nothing done to the
//! file under a live daemon changes the daemon's answers.
//!
//! * Opening a corrupted index artifact gives an `InvalidData` error —
//!   never a panic, at open or on the first query. A property drives
//!   byte flips and truncations of a small index artifact: every mutant
//!   that differs from the written bytes fails its checksum or an
//!   earlier check, and the same mutant with its checksum re-stamped,
//!   as a crafted file would carry, fails a structural check or opens
//!   as an index whose every row reads in-range cluster ids and serves
//!   without a panic.
//! * Rewriting the artifact path, or truncating the file in place,
//!   while a daemon serves from an opened artifact leaves every answer
//!   bit-identical to the old file; only a fresh `open_artifact` sees
//!   the change.

use proptest::prelude::*;
use socialrec_community::{ClusteringStrategy, LouvainStrategy, Partition};
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::{BudgetSchedule, DynamicRecommender, RecommenderInputs, TopN};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::preference::preference_graph_from_edges;
use socialrec_graph::social::social_graph_from_edges;
use socialrec_graph::{PreferenceGraph, UserId};
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_similarity::artifact::{checksum, ValueKind, HEADER_LEN};
use socialrec_similarity::{Measure, SimilarityMatrix};
use std::path::PathBuf;
use std::sync::OnceLock;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("socialrec-index-artifact-{}-{tag}.srcsr", std::process::id()))
}

/// The world of the small index: two triangles joined by a bridge and
/// a pendant, CN similarity, three clusters, and a release over five
/// items.
struct Small {
    sim: SimilarityMatrix,
    prefs: PreferenceGraph,
    partition: Partition,
    epsilon: Epsilon,
    release: NoisyClusterAverages,
}

fn small() -> &'static Small {
    static SMALL: OnceLock<Small> = OnceLock::new();
    SMALL.get_or_init(|| {
        let social = social_graph_from_edges(
            7,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)],
        )
        .unwrap();
        let prefs = preference_graph_from_edges(
            7,
            5,
            &[(0, 0), (1, 1), (2, 0), (3, 2), (4, 3), (5, 2), (6, 4), (6, 0)],
        )
        .unwrap();
        let partition = Partition::from_assignment(&[0, 0, 0, 1, 1, 1, 2]);
        let mut accountant =
            DynamicRecommender::new(Epsilon::Finite(1.0), BudgetSchedule::Uniform { releases: 1 });
        let (epsilon, release) = accountant.release_averages(&partition, &prefs, 11).unwrap();
        let sim = SimilarityMatrix::build(&social, &Measure::CommonNeighbors);
        Small { sim, prefs, partition, epsilon, release }
    })
}

/// The bytes of the small f64 index artifact.
fn small_index_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let Small { sim, partition, .. } = small();
        let index = SimMassIndex::build(sim, partition);
        assert!(index.nnz() > 0);
        let path = temp_path("small");
        index.write_artifact(&path, ValueKind::F64).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Write `bytes` to a file and open it as an index.
fn open_bytes(bytes: &[u8], tag: &str) -> std::io::Result<SimMassIndex> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let opened = SimMassIndex::open_artifact(&path);
    std::fs::remove_file(&path).ok();
    opened
}

/// Re-stamp the header checksum of edited artifact bytes, so that a
/// test can reach the checks behind it.
fn restamp(bytes: &mut [u8]) {
    let words: Vec<u64> =
        bytes.chunks_exact(8).map(|w| u64::from_ne_bytes(w.try_into().unwrap())).collect();
    bytes[88..96].copy_from_slice(&checksum(&words).to_le_bytes());
}

/// An index opened from a crafted file must still be safe to serve:
/// every row reads cluster ids below the cluster count, and when its
/// shape fits the small world a daemon answers every user, in a batch
/// and one at a time, without a panic.
fn serves_without_panic(index: SimMassIndex) {
    for u in 0..index.num_users() as u32 {
        let (clusters, vals) = index.row_vals(UserId(u));
        assert_eq!(clusters.len(), vals.len());
        for &c in clusters {
            assert!((c as usize) < index.num_clusters(), "cluster id {c} opened");
        }
    }
    let Small { sim, prefs, partition, epsilon, release } = small();
    if index.num_users() != partition.num_users()
        || index.num_clusters() != partition.num_clusters()
    {
        return;
    }
    let inputs = RecommenderInputs { prefs, sim };
    let daemon = ShardedServer::from_index(partition, index, *epsilon, 2);
    daemon.publish_release(11, release.clone());
    let all: Vec<UserId> = (0..partition.num_users() as u32).map(UserId).collect();
    let batch = daemon.recommend_batch(&inputs, &all, 3, 11);
    assert_eq!(batch.len(), all.len());
    for &u in &all {
        assert_eq!(daemon.recommend_one(&inputs, u, 3, 11).user, u);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_index_artifacts_fail_closed(
        flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 0..4),
        cut in 0usize..1 << 20,
        truncate in 0u8..3,
    ) {
        let good = small_index_bytes();
        let mut bytes = good.to_vec();
        for (at, xor) in flips {
            let len = bytes.len();
            bytes[at % len] ^= xor;
        }
        if truncate == 0 {
            bytes.truncate(cut % bytes.len());
        }
        match open_bytes(&bytes, "mutant") {
            Ok(index) => {
                prop_assert_eq!(bytes.as_slice(), good, "a corrupted artifact opened");
                prop_assert!(index.nnz() > 0);
            }
            Err(e) => {
                prop_assert_ne!(bytes.as_slice(), good, "the written artifact failed: {}", e);
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
            }
        }
        // The checksum cannot stop a crafted file; the checks behind it
        // must. Re-stamp every mutant that still has a whole header and
        // whole words.
        if bytes.len().is_multiple_of(8) && bytes.len() >= HEADER_LEN {
            restamp(&mut bytes);
            match open_bytes(&bytes, "restamped") {
                Ok(index) => serves_without_panic(index),
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
            }
        }
    }
}

/// The corruption that used to open and then panic on the first query:
/// a stored cluster id far past the cluster count. The checksum is
/// re-stamped, so the id check itself must refuse it.
#[test]
fn out_of_range_cluster_id_fails_at_open() {
    let good = small_index_bytes();
    let cols_off = u64::from_le_bytes(good[72..80].try_into().unwrap()) as usize;
    let num_clusters = u64::from_le_bytes(good[48..56].try_into().unwrap()) as u32;
    for (id, opens) in [(0xFF_FFFF, false), (num_clusters, false), (num_clusters - 1, true)] {
        let mut bytes = good.to_vec();
        bytes[cols_off..cols_off + 4].copy_from_slice(&id.to_le_bytes());
        restamp(&mut bytes);
        match open_bytes(&bytes, "bad-id") {
            Ok(_) => assert!(opens, "cluster id {id} of {num_clusters} opened"),
            Err(e) => {
                assert!(!opens, "cluster id {id} of {num_clusters} refused: {e}");
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("cluster id"), "{e}");
            }
        }
    }
}

fn assert_same_bits(got: &[TopN], want: &[TopN], what: &str) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.user, w.user);
        let bits = |t: &TopN| t.items.iter().map(|(i, s)| (*i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(g), bits(w), "{what}: user {:?}", g.user);
    }
}

/// Rebuild the index artifact under a daemon serving an opened copy:
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

    let live = serve(SimMassIndex::open_artifact(&path).unwrap());
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

/// Truncate the artifact file in place to half its length under a
/// daemon serving it: every batch and single answer stays bit-identical
/// to the answers from before the cut, and a fresh open of the cut file
/// fails with `InvalidData`. A daemon that mapped the file would fault
/// on its next touch of a dropped page instead.
#[test]
fn truncated_artifact_leaves_the_live_daemon_whole() {
    const SEED: u64 = 5;
    let ds = lastfm_like_scaled(0.05, 9);
    let partition = LouvainStrategy::default().cluster(&ds.social);
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let all: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();
    let path = temp_path("truncate");
    SimMassIndex::build(&sim, &partition).write_artifact(&path, ValueKind::F64).unwrap();

    let mut accountant =
        DynamicRecommender::new(Epsilon::Finite(0.5), BudgetSchedule::Uniform { releases: 1 });
    let (epsilon, release) = accountant.release_averages(&partition, &ds.prefs, SEED).unwrap();
    let live = ShardedServer::from_index(
        &partition,
        SimMassIndex::open_artifact(&path).unwrap(),
        epsilon,
        4,
    );
    live.publish_release(SEED, release);
    let want = live.recommend_batch(&inputs, &all, 10, SEED);
    let want_singles: Vec<TopN> =
        all.iter().map(|&u| live.recommend_one(&inputs, u, 10, SEED)).collect();
    assert_same_bits(&want_singles, &want, "singles before");
    assert!(want.iter().any(|t| !t.items.is_empty()), "the daemon must answer something");

    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let len = file.metadata().unwrap().len();
    file.set_len(len / 2).unwrap();
    drop(file);

    assert_same_bits(&live.recommend_batch(&inputs, &all, 10, SEED), &want, "batch after");
    let singles: Vec<TopN> =
        all.iter().map(|&u| live.recommend_one(&inputs, u, 10, SEED)).collect();
    assert_same_bits(&singles, &want, "singles after");
    let e = SimMassIndex::open_artifact(&path).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    std::fs::remove_file(&path).ok();
}
