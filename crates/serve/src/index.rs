//! The precomputed similarity-mass index.
//!
//! Module `A_R` of Algorithm 1 spends, per query, a walk over the whole
//! similarity row of the user (`O(|sim(u)|)`, plus zeroing a
//! `num_clusters`-sized scratch) just to learn how much similarity mass
//! the user has in each cluster. That mapping depends only on the
//! public social graph and the public partition — never on the private
//! release — so a server can compute it once, up front, for every user.
//!
//! [`SimMassIndex`] stores exactly that: a CSR of per-user
//! `(cluster, Σ sim)` pairs, collapsing the per-query cost to one
//! sparse axpy per *touched cluster* (`O(C_u)` rows) instead of one
//! accumulation per similar user.
//!
//! # Row storage
//!
//! The index rows live in one of two backings behind one access path
//! ([`row_vals`](SimMassIndex::row_vals)):
//!
//! * **Heap** — rows built in RAM as [`SharedRows`], one `Arc`
//!   allocation per row;
//! * **Artifact** — a [`CsrArtifact`] read whole from disk (see
//!   `socialrec_similarity::artifact`), shared via `Arc` so a clone
//!   never duplicates its bytes.
//!
//! Neither backing copies row bytes to derive a new index: a heap
//! `clone` or [`update_rows`](SimMassIndex::update_rows) shares every
//! row it does not recompute and copies only the row-pointer table.
//! Serving code cannot tell the backings apart — the equivalence tests
//! pin that both return identical row bits.

use rayon::prelude::*;
use socialrec_community::Partition;
use socialrec_graph::{SocialGraph, UserId};
use socialrec_obs::journal::{self, EventKind};
use socialrec_similarity::artifact::{CsrArtifact, StreamingCsrWriter, ValueKind};
use socialrec_similarity::{SharedRows, SimScratch, Similarity, SimilarityMatrix};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// CSR of per-user `(cluster, similarity mass)` pairs.
///
/// Row `u` lists, in ascending cluster id, every cluster holding at
/// least one of `u`'s similar users together with the summed similarity
/// `Σ_{v ∈ sim(u) ∩ c} sim(u, v)`.
///
/// # Floating-point contract
///
/// The masses are accumulated **in the similarity row's neighbor
/// order**, and rows are emitted in ascending cluster order with
/// exact-zero sums dropped — the same additions, in the same order,
/// that [`ClusterFramework::utility_estimates_into`] performs through
/// its dense scratch. Serving through this index, from the heap or from
/// an opened artifact, is therefore bit-identical to the reference
/// path, not merely close.
///
/// [`ClusterFramework::utility_estimates_into`]:
///     socialrec_core::private::ClusterFramework::utility_estimates_into
#[derive(Clone, Debug)]
pub struct SimMassIndex {
    repr: Repr,
    num_clusters: usize,
}

#[derive(Clone, Debug)]
enum Repr {
    /// Rows owned in RAM, each shared between the indexes derived
    /// from one another.
    Heap { rows: SharedRows<u32, f64> },
    /// An opened artifact, shared so a clone is O(1).
    Artifact { art: Arc<CsrArtifact> },
}

impl SimMassIndex {
    /// Build the index for every user, in parallel, from the similarity
    /// matrix.
    ///
    /// Each worker reuses one dense cluster scratch, and each row is
    /// allocated once at its exact size. Bit-identical to
    /// [`build_reference`](SimMassIndex::build_reference) for any
    /// thread count.
    ///
    /// Panics if `sim` and `partition` disagree on the user count.
    pub fn build(sim: &SimilarityMatrix, partition: &Partition) -> SimMassIndex {
        let n = sim.num_users();
        assert_eq!(n, partition.num_users(), "partition must cover the similarity matrix's users");
        let nc = partition.num_clusters();
        let rows = SharedRows::build(
            n,
            || vec![0.0f64; nc],
            |scratch, u| mass_row(sim, partition, u, scratch),
        );
        SimMassIndex { repr: Repr::Heap { rows }, num_clusters: nc }
    }

    /// Sequential reference for [`build`](SimMassIndex::build): one
    /// thread, one dense scratch, rows in ascending order. Retained so
    /// the equivalence tests (and the thread-count matrix) can prove
    /// the parallel build produces the same bytes.
    pub fn build_reference(sim: &SimilarityMatrix, partition: &Partition) -> SimMassIndex {
        let n = sim.num_users();
        assert_eq!(n, partition.num_users(), "partition must cover the similarity matrix's users");
        let nc = partition.num_clusters();
        let mut scratch = vec![0.0f64; nc];
        let rows =
            (0..n as u32).map(|u| mass_row(sim, partition, UserId(u), &mut scratch)).collect();
        SimMassIndex { repr: Repr::Heap { rows }, num_clusters: nc }
    }

    /// The `(clusters, masses)` row for one user.
    #[inline]
    pub fn row_vals(&self, u: UserId) -> (&[u32], &[f64]) {
        match &self.repr {
            Repr::Heap { rows } => rows.row(u),
            Repr::Artifact { art } => {
                let (lo, hi) = art.row_range(u.index());
                (&art.cols()[lo..hi], &art.vals()[lo..hi])
            }
        }
    }

    /// Number of indexed users.
    pub fn num_users(&self) -> usize {
        match &self.repr {
            Repr::Heap { rows } => rows.num_rows(),
            Repr::Artifact { art } => art.num_rows(),
        }
    }

    /// Number of clusters in the underlying partition.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Total stored `(cluster, mass)` pairs.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Heap { rows } => rows.nnz(),
            Repr::Artifact { art } => art.cols().len(),
        }
    }

    /// Recompute only the `dirty` rows (ascending user ids) against the
    /// current similarity matrix and partition and share every other
    /// row with `self` — the streaming-delta companion to
    /// [`build`](SimMassIndex::build).
    ///
    /// When `dirty` covers every row whose contents a refresh could
    /// have changed (see [`dirty_index_rows`]), the result is
    /// **bit-identical** to `SimMassIndex::build(sim, partition)` from
    /// scratch: recomputed rows run the exact dense-scratch walk of the
    /// full build, and clean rows are the very same allocations. The
    /// partition may have a different cluster count than the one this
    /// index was built with (labels just relabel row contents, which is
    /// what makes rows dirty).
    ///
    /// An artifact-backed index is copied into heap rows first, so only
    /// heap indices update in O(dirty rows).
    pub fn update_rows(
        &self,
        sim: &SimilarityMatrix,
        partition: &Partition,
        dirty: &[UserId],
    ) -> SimMassIndex {
        let n = self.num_users();
        assert_eq!(sim.num_users(), n, "deltas must preserve the user set");
        assert_eq!(partition.num_users(), n, "partition must cover the similarity matrix's users");
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty rows must strictly ascend");
        assert!(dirty.last().is_none_or(|u| u.index() < n), "dirty row out of range");
        let copied: SharedRows<u32, f64>;
        let rows = match &self.repr {
            Repr::Heap { rows } => rows,
            Repr::Artifact { .. } => {
                copied = (0..n as u32)
                    .map(|u| {
                        let (cls, masses) = self.row_vals(UserId(u));
                        (cls.into(), masses.into())
                    })
                    .collect();
                &copied
            }
        };
        let _span = socialrec_obs::span!("update.index_rows", rows = dirty.len());
        let nc = partition.num_clusters();
        let rows = rows.update(
            dirty,
            || vec![0.0f64; nc],
            |scratch, u| mass_row(sim, partition, u, scratch),
        );
        SimMassIndex { repr: Repr::Heap { rows }, num_clusters: nc }
    }

    /// Write this index as an artifact file (`meta` = cluster count),
    /// streaming its rows into the artifact writer. `ValueKind` has one
    /// variant, f64, so the artifact holds every mass bit for bit.
    pub fn write_artifact(&self, path: &Path, _: ValueKind) -> io::Result<()> {
        let n = self.num_users();
        let mut writer = StreamingCsrWriter::create(path, self.num_clusters as u64, n)?;
        for u in 0..n as u32 {
            let (clusters, masses) = self.row_vals(UserId(u));
            writer.push_row(clusters, masses)?;
        }
        writer.finish()
    }

    /// Build the index straight from the social graph and stream it
    /// into an artifact at `path`, materializing neither the similarity
    /// matrix nor the index — the bounded-memory form of
    /// `build(&SimilarityMatrix::build(g, measure), partition)` +
    /// [`write_artifact`](SimMassIndex::write_artifact), and
    /// byte-identical to that pair for every measure: each user's
    /// `similarity_set` is the very row the matrix stores, folded by the
    /// same dense-scratch walk in the same order.
    ///
    /// Users go in chunks of `chunk_rows` (`0` picks a default); each
    /// chunk is computed in parallel and appended in row order. Peak
    /// memory is one chunk of index rows plus per-worker scratch
    /// (`O(users)` for the similarity set, `O(clusters)` for the
    /// masses), never `O(similarity entries)`. Returns the entry count
    /// written.
    ///
    /// Panics if `g` and `partition` disagree on the user count.
    pub fn stream_build_artifact<S: Similarity + ?Sized>(
        g: &SocialGraph,
        measure: &S,
        partition: &Partition,
        path: &Path,
        chunk_rows: usize,
    ) -> io::Result<u64> {
        let n = g.num_users();
        assert_eq!(n, partition.num_users(), "partition must cover the graph's users");
        let nc = partition.num_clusters();
        let chunk_rows = if chunk_rows == 0 { 8192 } else { chunk_rows };
        let _span = socialrec_obs::span!("simmass.stream_build", users = n);
        let mut writer = StreamingCsrWriter::create(path, nc as u64, n)?;
        // Each worker's similarity scratch, similarity-set buffer and
        // dense cluster scratch, pooled so a worker allocates them once
        // for the whole build, not once per chunk.
        type Workspace = (SimScratch, Vec<(UserId, f64)>, Vec<f64>);
        let pool: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());
        let mut entries = 0u64;
        for lo in (0..n).step_by(chunk_rows) {
            let hi = (lo + chunk_rows).min(n);
            // Sub-split the chunk so the dynamic scheduler can balance
            // skewed rows across workers.
            let workers = rayon::current_num_threads().max(1);
            let sub = (hi - lo).div_ceil(workers * 4).max(16);
            let ranges: Vec<(usize, usize)> =
                (lo..hi).step_by(sub).map(|a| (a, (a + sub).min(hi))).collect();
            let pieces: Vec<(Vec<u64>, Vec<u32>, Vec<f64>)> = ranges
                .par_iter()
                .map(|&(a, b)| {
                    let (mut scratch, mut set, mut dense) = pool
                        .lock()
                        .expect("scratch pool")
                        .pop()
                        .unwrap_or_else(|| (SimScratch::new(n), Vec::new(), vec![0.0f64; nc]));
                    let mut lens = Vec::with_capacity(b - a);
                    let mut cols = Vec::new();
                    let mut vals = Vec::new();
                    for u in a..b {
                        measure.similarity_set(g, UserId(u as u32), &mut scratch, &mut set);
                        accumulate(partition, set.iter().copied(), &mut dense);
                        let before = cols.len();
                        drain_nonzero(&mut dense, |cl, m| {
                            cols.push(cl);
                            vals.push(m);
                        });
                        lens.push((cols.len() - before) as u64);
                    }
                    pool.lock().expect("scratch pool").push((scratch, set, dense));
                    (lens, cols, vals)
                })
                .collect();
            // Sub-ranges ascend, so pushing them in sequence keeps the
            // global row order.
            for (lens, cols, vals) in &pieces {
                let mut at = 0usize;
                for &len in lens {
                    let len = len as usize;
                    writer.push_row(&cols[at..at + len], &vals[at..at + len])?;
                    at += len;
                    entries += len as u64;
                }
            }
        }
        writer.finish()?;
        Ok(entries)
    }

    /// Read an artifact written by
    /// [`write_artifact`](SimMassIndex::write_artifact) or
    /// [`stream_build_artifact`](SimMassIndex::stream_build_artifact)
    /// into memory, verifying its checksum and structure (see
    /// [`CsrArtifact::open`]) and that every cluster id is below its
    /// cluster count: a stored id at or past the count would index
    /// outside a release row on the first query that reads it. The index
    /// owns its bytes: nothing that later happens to the file changes the
    /// rows it serves. A file that fails a check gives an
    /// [`io::ErrorKind::InvalidData`] error and, when the journal is
    /// armed, an [`EventKind::ArtifactRejected`] event carrying the
    /// file's length.
    pub fn open_artifact(path: &Path) -> io::Result<SimMassIndex> {
        let opened = CsrArtifact::open(path).and_then(|art| {
            let clusters = art.header().meta;
            if let Some(max) =
                art.cols().iter().copied().max().filter(|&c| u64::from(c) >= clusters)
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt sim-mass index: cluster id {max} >= {clusters} clusters"),
                ));
            }
            Ok(SimMassIndex {
                repr: Repr::Artifact { art: Arc::new(art) },
                num_clusters: clusters as usize,
            })
        });
        if opened.as_ref().is_err_and(|e| e.kind() == io::ErrorKind::InvalidData) {
            let len = std::fs::metadata(path).map_or(0, |m| m.len());
            journal::emit(EventKind::ArtifactRejected, len, 0);
        }
        opened
    }
}

/// Add a similarity row, `(v, sim(u, v))` in neighbor order, into the
/// dense cluster scratch — the one walk of every builder, so the heap,
/// reference, update and streamed builds are addition-for-addition
/// identical.
#[inline]
fn accumulate(partition: &Partition, row: impl Iterator<Item = (UserId, f64)>, dense: &mut [f64]) {
    for (v, s) in row {
        dense[partition.cluster_of(v) as usize] += s;
    }
}

/// Hand every non-zero cluster of `dense` to `emit` in ascending order,
/// zeroing `dense` for the next row.
#[inline]
fn drain_nonzero(dense: &mut [f64], mut emit: impl FnMut(u32, f64)) {
    for (cl, m) in dense.iter_mut().enumerate() {
        if *m != 0.0 {
            emit(cl as u32, *m);
        }
        *m = 0.0;
    }
}

/// Row `u` of the index: accumulate its masses into the zeroed dense
/// `scratch`, then emit every non-zero cluster in ascending order into
/// arrays allocated once at their exact length, zeroing `scratch` for
/// the next row.
fn mass_row(
    sim: &SimilarityMatrix,
    partition: &Partition,
    u: UserId,
    scratch: &mut [f64],
) -> (Box<[u32]>, Box<[f64]>) {
    let (users, scores) = sim.row(u);
    accumulate(partition, users.iter().copied().zip(scores.iter().copied()), scratch);
    let len = scratch.iter().filter(|&&m| m != 0.0).count();
    let (mut cols, mut vals) = (Vec::with_capacity(len), Vec::with_capacity(len));
    drain_nonzero(scratch, |cl, m| {
        cols.push(cl);
        vals.push(m);
    });
    (cols.into_boxed_slice(), vals.into_boxed_slice())
}

/// The index rows a refresh can change, given the similarity-dirty
/// rows and the users whose cluster id changed.
///
/// Row `u` of the mass index depends on `u`'s similarity row and on the
/// cluster labels of the users *in* that row. So it changes only if
/// `u`'s similarity row changed (`sim_dirty`) or some `v ∈ sim(u)`
/// moved clusters — and by symmetry those `u` are exactly the similar
/// users of the moved ones, read from the *new* similarity matrix. The
/// moved users themselves are included for good measure (their own rows
/// are unaffected by their own label, but the superset is cheap and
/// keeps the contract simple). Result ascends, deduplicated.
pub fn dirty_index_rows(
    sim: &SimilarityMatrix,
    sim_dirty: &[UserId],
    moved: &[UserId],
) -> Vec<UserId> {
    let mut rows: Vec<UserId> = sim_dirty.to_vec();
    rows.extend_from_slice(moved);
    for &v in moved {
        let (us, _) = sim.row(v);
        rows.extend_from_slice(us);
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

impl PartialEq for SimMassIndex {
    /// Logical equality: same shape and bit-identical rows, regardless
    /// of backing (heap vs artifact).
    fn eq(&self, other: &Self) -> bool {
        if self.num_users() != other.num_users()
            || self.num_clusters != other.num_clusters
            || self.nnz() != other.nnz()
        {
            return false;
        }
        (0..self.num_users() as u32).all(|u| {
            let (ca, va) = self.row_vals(UserId(u));
            let (cb, vb) = other.row_vals(UserId(u));
            ca == cb && va.iter().map(|m| m.to_bits()).eq(vb.iter().map(|m| m.to_bits()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_similarity::{Measure, SimilarityMatrix};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("socialrec-index-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.srart", std::process::id()))
    }

    #[test]
    fn matches_dense_scratch_accumulation() {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let partition = Partition::from_assignment(&[0, 0, 0, 1, 1, 1]);
        let idx = SimMassIndex::build(&sim, &partition);
        assert_eq!(idx.num_users(), 6);
        assert_eq!(idx.num_clusters(), 2);
        for u in 0..6u32 {
            let mut dense = [0.0f64; 2];
            let (vs, ss) = sim.row(UserId(u));
            for (&v, &s) in vs.iter().zip(ss) {
                dense[partition.cluster_of(v) as usize] += s;
            }
            let (cls, ms) = idx.row_vals(UserId(u));
            let mut it = cls.iter().zip(ms);
            for (cl, &want) in dense.iter().enumerate() {
                if want != 0.0 {
                    let (&c, &m) = it.next().expect("row too short");
                    assert_eq!(c, cl as u32);
                    assert_eq!(m.to_bits(), want.to_bits(), "mass differs bitwise");
                }
            }
            assert!(it.next().is_none(), "row has spurious entries");
        }
    }

    #[test]
    fn rows_are_sorted_and_nonzero() {
        let s = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = Partition::singletons(5);
        let idx = SimMassIndex::build(&sim, &partition);
        for u in 0..5u32 {
            let (cls, ms) = idx.row_vals(UserId(u));
            assert!(cls.windows(2).all(|w| w[0] < w[1]), "clusters not ascending");
            assert!(ms.iter().all(|&m| m != 0.0));
        }
        let total: usize = (0..5u32).map(|u| idx.row_vals(UserId(u)).0.len()).sum();
        assert_eq!(idx.nnz(), total);
    }

    #[test]
    fn two_pass_build_matches_reference_bitwise() {
        // Cycle + chords: varied row lengths, including users whose
        // masses collapse into few clusters.
        let mut edges: Vec<(u32, u32)> = (0..40u32).map(|u| (u, (u + 1) % 40)).collect();
        edges.extend((0..20u32).map(|u| (u, u + 20)));
        let s = social_graph_from_edges(40, &edges).unwrap();
        for measure in [Measure::CommonNeighbors, Measure::AdamicAdar] {
            let sim = SimilarityMatrix::build_sequential(&s, &measure);
            for partition in [
                Partition::from_assignment(&(0..40).map(|u| (u % 5) as u32).collect::<Vec<_>>()),
                Partition::singletons(40),
                Partition::one_cluster(40),
            ] {
                let par = SimMassIndex::build(&sim, &partition);
                let refr = SimMassIndex::build_reference(&sim, &partition);
                assert_eq!(par, refr, "parallel build differs from reference");
            }
        }
    }

    #[test]
    fn artifact_index_equals_heap_index() {
        let s = social_graph_from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (2, 6)],
        )
        .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 2, 2, 3, 3]);
        let heap = SimMassIndex::build(&sim, &partition);
        let path = temp_path("eq-f64");
        heap.write_artifact(&path, ValueKind::F64).unwrap();
        let opened = SimMassIndex::open_artifact(&path).unwrap();
        assert_eq!(opened.num_clusters(), heap.num_clusters());
        assert_eq!(opened, heap);
        std::fs::remove_file(&path).ok();
    }

    /// The streamed build writes exactly the bytes of the matrix build
    /// plus `write_artifact`, for every paper measure and chunk sizes
    /// that cross row boundaries (1, 7), cover the graph (n) or take the
    /// default (0) — and for an empty graph.
    #[test]
    fn stream_build_matches_matrix_build_byte_for_byte() {
        let mut edges: Vec<(u32, u32)> = (0..50u32).map(|u| (u, (u + 1) % 50)).collect();
        edges.extend((0..25u32).map(|u| (u, u + 25)));
        edges.extend((0..10u32).map(|u| (u, 3 * u + 7)));
        let ring = social_graph_from_edges(50, &edges).unwrap();
        let empty = social_graph_from_edges(0, &[]).unwrap();
        for g in [&ring, &empty] {
            let n = g.num_users();
            let partition =
                Partition::from_assignment(&(0..n).map(|u| (u % 6) as u32).collect::<Vec<_>>());
            for measure in Measure::paper_suite() {
                let heap = SimMassIndex::build(&SimilarityMatrix::build(g, &measure), &partition);
                assert_eq!(heap.nnz() == 0, n == 0);
                let reference = temp_path("stream-ref");
                heap.write_artifact(&reference, ValueKind::F64).unwrap();
                let want = std::fs::read(&reference).unwrap();
                for chunk_rows in [1, 7, n, 0] {
                    let p = temp_path(&format!("stream-{chunk_rows}"));
                    let entries = SimMassIndex::stream_build_artifact(
                        g, &measure, &partition, &p, chunk_rows,
                    )
                    .unwrap();
                    assert_eq!(entries as usize, heap.nnz());
                    let what = format!("{} chunk_rows={chunk_rows}", measure.name());
                    assert_eq!(std::fs::read(&p).unwrap(), want, "{what}");
                    std::fs::remove_file(&p).ok();
                }
                std::fs::remove_file(&reference).ok();
            }
        }
    }

    /// Every open that fails with `InvalidData` — a corrupt file, a
    /// truncated one, a retired value width, an out-of-range cluster id
    /// behind a valid checksum — journals one `artifact_rejected` event
    /// carrying the file's length; a good open and a missing file
    /// journal none. No other unit test of this crate arms the journal
    /// or opens a rejected artifact, so the count is exact.
    #[test]
    fn a_rejected_open_is_journalled() {
        use socialrec_obs::{EventKind, Journal};
        use socialrec_similarity::artifact::{checksum, HEADER_LEN};
        let s = social_graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let path = temp_path("journal");
        let index = SimMassIndex::build(&sim, &Partition::singletons(3));
        index.write_artifact(&path, ValueKind::F64).unwrap();
        let good = std::fs::read(&path).unwrap();
        // A patched copy with its checksum re-stamped, as a crafted file
        // would carry.
        let crafted = |at: usize, patch: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + patch.len()].copy_from_slice(patch);
            let words: Vec<u64> =
                bytes.chunks_exact(8).map(|w| u64::from_ne_bytes(w.try_into().unwrap())).collect();
            bytes[88..96].copy_from_slice(&checksum(&words).to_le_bytes());
            bytes
        };
        let mut corrupt = good.clone();
        corrupt[HEADER_LEN] ^= 1;
        let cols_off = u64::from_le_bytes(good[72..80].try_into().unwrap()) as usize;
        let rejected = [
            corrupt,
            good[..good.len() - 8].to_vec(),
            crafted(24, &[2]),
            crafted(cols_off, &3u32.to_le_bytes()),
        ];

        let journal = Journal::global();
        socialrec_obs::arm_live();
        let first = journal.emitted();
        for bad in &rejected {
            std::fs::write(&path, bad).unwrap();
            let e = SimMassIndex::open_artifact(&path).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        }
        std::fs::write(&path, &good).unwrap();
        assert_eq!(SimMassIndex::open_artifact(&path).unwrap(), index);
        std::fs::remove_file(&path).ok();
        assert!(SimMassIndex::open_artifact(&path).is_err(), "a missing file opened");
        socialrec_obs::disarm_live();
        let got: Vec<u64> = journal
            .snapshot(usize::MAX)
            .events
            .iter()
            .filter(|e| e.seq >= first && e.kind == EventKind::ArtifactRejected)
            .map(|e| e.a)
            .collect();
        assert_eq!(got, rejected.map(|bad| bad.len() as u64));
    }

    /// Dirty-row index updates across random delta
    /// sequences are bitwise equal to from-scratch rebuilds — both for
    /// similarity-row churn and for cluster moves (including cluster
    /// count changes).
    #[test]
    fn update_rows_matches_full_rebuild_bitwise_across_random_deltas() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use socialrec_graph::GraphDelta;
        use socialrec_similarity::dirty_rows;

        let n = 80usize;
        let mut rng = SmallRng::seed_from_u64(909);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for _ in 0..3 {
                let v = rng.gen_range(0..n as u32);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let mut g = social_graph_from_edges(n, &edges).unwrap();
        let measure = Measure::AdamicAdar;
        let mut sim = SimilarityMatrix::build_sequential(&g, &measure);
        let mut labels: Vec<u32> = (0..n).map(|u| (u % 5) as u32).collect();
        let mut partition = Partition::from_assignment(&labels);
        let mut idx = SimMassIndex::build(&sim, &partition);

        for round in 0..10 {
            // Graph delta: a few random edge toggles.
            let mut delta = GraphDelta::new();
            for _ in 0..4 {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue;
                }
                if g.has_edge(UserId(a), UserId(b)) {
                    delta.remove_social(UserId(a), UserId(b)).unwrap();
                } else {
                    delta.add_social(UserId(a), UserId(b)).unwrap();
                }
            }
            let (g_new, report) = delta.apply_social(&g).unwrap();
            let sim_dirty = dirty_rows(&measure, &g, &g_new, &report.touched);
            let sim_new = sim.update_rows(&g_new, &measure, &sim_dirty);

            // Cluster churn: move a couple of users (sometimes to a
            // brand-new label, changing the cluster count).
            for _ in 0..2 {
                let u = rng.gen_range(0..n);
                labels[u] = rng.gen_range(0..6) as u32;
            }
            let partition_new = Partition::from_assignment(&labels);
            // Relabelling by from_assignment can renumber *everyone*
            // when a low label empties; fold those silent renames into
            // the moved set like a caller tracking label diffs would.
            let moved: Vec<UserId> = (0..n)
                .filter(|&u| {
                    partition.cluster_of(UserId(u as u32))
                        != partition_new.cluster_of(UserId(u as u32))
                })
                .map(|u| UserId(u as u32))
                .collect();

            let dirty = dirty_index_rows(&sim_new, &sim_dirty, &moved);
            let updated = idx.update_rows(&sim_new, &partition_new, &dirty);
            let full = SimMassIndex::build(&sim_new, &partition_new);
            assert_eq!(updated, full, "round {round}: incremental index diverged");

            g = g_new;
            sim = sim_new;
            partition = partition_new;
            idx = updated;
        }
    }

    #[test]
    fn update_rows_with_empty_dirty_set_is_identity() {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = Partition::from_assignment(&[0, 0, 0, 1, 1, 1]);
        let idx = SimMassIndex::build(&sim, &partition);
        let same = idx.update_rows(&sim, &partition, &[]);
        assert_eq!(same, idx);
    }

    #[test]
    fn update_rows_on_an_artifact_f64_index_matches_a_rebuild() {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let heap = SimMassIndex::build(&sim, &Partition::from_assignment(&[0, 0, 0, 1, 1, 1]));
        let path = temp_path("artifact-update");
        heap.write_artifact(&path, ValueKind::F64).unwrap();
        let opened = SimMassIndex::open_artifact(&path).unwrap();
        let moved = Partition::from_assignment(&[0, 0, 1, 1, 1, 1]);
        let dirty = dirty_index_rows(&sim, &[], &[UserId(2)]);
        assert_eq!(opened.update_rows(&sim, &moved, &dirty), SimMassIndex::build(&sim, &moved));
        std::fs::remove_file(&path).ok();
    }

    /// A clone and a dirty-row update share every row they do not
    /// recompute with the index they came from. Empty rows are skipped:
    /// every empty boxed slice has the same dangling pointer.
    #[test]
    fn clone_and_update_rows_share_clean_rows() {
        let mut edges: Vec<(u32, u32)> = (0..40u32).map(|u| (u, (u + 1) % 40)).collect();
        edges.extend((0..20u32).map(|u| (u, u + 20)));
        let s = social_graph_from_edges(40, &edges).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let mut labels: Vec<u32> = (0..40).map(|u| u % 5).collect();
        let idx = SimMassIndex::build(&sim, &Partition::from_assignment(&labels));
        let ptr = |i: &SimMassIndex, u: usize| i.row_vals(UserId(u as u32)).0.as_ptr();
        let non_empty: Vec<usize> =
            (0..40).filter(|&u| !idx.row_vals(UserId(u as u32)).0.is_empty()).collect();
        assert_eq!(non_empty.len(), 40, "every user of the ring has similar users");

        let copy = idx.clone();
        assert!(non_empty.iter().all(|&u| ptr(&idx, u) == ptr(&copy, u)), "clone copied a row");

        // Moving user 7 dirties its own row and the rows that hold it.
        labels[7] = 1;
        let partition = Partition::from_assignment(&labels);
        let dirty = dirty_index_rows(&sim, &[], &[UserId(7)]);
        assert!(dirty.len() < 40);
        let next = idx.update_rows(&sim, &partition, &dirty);
        assert_eq!(next, SimMassIndex::build(&sim, &partition));
        for &u in &non_empty {
            if dirty.binary_search(&UserId(u as u32)).is_err() {
                assert_eq!(ptr(&idx, u), ptr(&next, u), "clean row {u} was copied");
            }
        }
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn user_count_mismatch_panics() {
        let s = social_graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = Partition::singletons(3);
        let _ = SimMassIndex::build(&sim, &partition);
    }
}
