//! The precomputed similarity-mass index.
//!
//! Module `A_R` of Algorithm 1 spends, per query, a walk over the whole
//! similarity row of the user (`O(|sim(u)|)`, plus zeroing a
//! `num_clusters`-sized scratch) just to learn how much similarity mass
//! the user has in each cluster. That mapping depends only on the
//! public similarity matrix and the public partition — never on the
//! private release — so a server can compute it once, up front, for
//! every user.
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
//! * **Mapped** — a zero-copy window onto a
//!   [`CsrArtifact`] file (see `socialrec_similarity::artifact`),
//!   shared via `Arc` so sharding never duplicates the backing bytes.
//!
//! Neither backing copies row bytes to derive a new index: heap
//! [`slice_rows`](SimMassIndex::slice_rows), `clone` and
//! [`update_rows`](SimMassIndex::update_rows) share every row they do
//! not recompute and copy only the row-pointer table, and mapped
//! `slice_rows` just narrows the window. Serving code cannot tell the
//! backings apart — the equivalence tests pin that both return
//! identical row bits.

use rayon::prelude::*;
use socialrec_community::Partition;
use socialrec_graph::UserId;
use socialrec_similarity::artifact::{
    write_csr_artifact, ArtifactKind, CsrArtifact, StreamingCsrWriter, ValueKind,
};
use socialrec_similarity::{RowVals, SharedRows, SimilarityRows};
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
/// its dense scratch. Serving through this index is therefore
/// bit-identical to the reference path, not merely close.
///
/// A **compact (f32) artifact** relaxes this per DESIGN.md §6e: each
/// stored mass is the f64 mass rounded once to f32 at write time, and
/// widening on read is exact — so serving a compact index is
/// bit-identical to serving [`quantized`](SimMassIndex::quantized) of
/// the full-precision index, which the tests verify exactly.
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
    /// A window of `rows` rows starting at artifact row `base`. The
    /// artifact is shared, so slicing is O(1) and allocation-free.
    Mapped { art: Arc<CsrArtifact>, base: usize, rows: usize },
}

impl SimMassIndex {
    /// Build the index for every user, in parallel, from any similarity
    /// row store (heap matrix or mapped artifact).
    ///
    /// Each worker reuses one dense cluster scratch, and each row is
    /// allocated once at its exact size. Bit-identical to
    /// [`build_reference`](SimMassIndex::build_reference) for any
    /// thread count.
    ///
    /// Panics if `sim` and `partition` disagree on the user count.
    pub fn build<R: SimilarityRows + ?Sized>(sim: &R, partition: &Partition) -> SimMassIndex {
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
    pub fn build_reference<R: SimilarityRows + ?Sized>(
        sim: &R,
        partition: &Partition,
    ) -> SimMassIndex {
        let n = sim.num_users();
        assert_eq!(n, partition.num_users(), "partition must cover the similarity matrix's users");
        let nc = partition.num_clusters();
        let mut scratch = vec![0.0f64; nc];
        let rows =
            (0..n as u32).map(|u| mass_row(sim, partition, UserId(u), &mut scratch)).collect();
        SimMassIndex { repr: Repr::Heap { rows }, num_clusters: nc }
    }

    /// The `(clusters, masses)` row for one user, f64 only.
    ///
    /// Works for every heap index and for full-precision (f64) mapped
    /// artifacts. **Panics** on a compact (f32) artifact — those rows
    /// exist only at f32 width; use [`row_vals`](SimMassIndex::row_vals),
    /// which every serving path goes through.
    #[inline]
    pub fn row(&self, u: UserId) -> (&[u32], &[f64]) {
        let (clusters, vals) = self.row_vals(u);
        match vals {
            RowVals::F64(masses) => (clusters, masses),
            RowVals::F32(_) => {
                panic!("compact (f32) sim-mass artifact has no f64 rows; use row_vals")
            }
        }
    }

    /// The `(clusters, masses)` row for one user at whatever width the
    /// backing stores — the universal access path (see [`RowVals`]).
    #[inline]
    pub fn row_vals(&self, u: UserId) -> (&[u32], RowVals<'_>) {
        match &self.repr {
            Repr::Heap { rows } => {
                let (clusters, masses) = rows.row(u);
                (clusters, RowVals::F64(masses))
            }
            Repr::Mapped { art, base, rows } => {
                assert!(u.index() < *rows, "user {u:?} outside this index window");
                let (lo, hi) = art.row_range(base + u.index());
                let clusters = &art.cols()[lo..hi];
                let vals = match (art.vals_f64(), art.vals_f32()) {
                    (Some(v), _) => RowVals::F64(&v[lo..hi]),
                    (_, Some(v)) => RowVals::F32(&v[lo..hi]),
                    _ => unreachable!("artifact has exactly one value section"),
                };
                (clusters, vals)
            }
        }
    }

    /// Number of indexed users.
    pub fn num_users(&self) -> usize {
        match &self.repr {
            Repr::Heap { rows } => rows.num_rows(),
            Repr::Mapped { rows, .. } => *rows,
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
            Repr::Mapped { art, base, rows } => {
                let offsets = art.offsets();
                (offsets[base + rows] - offsets[*base]) as usize
            }
        }
    }

    /// Whether the rows are served zero-copy from a file mapping.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            Repr::Heap { .. } => false,
            Repr::Mapped { art, .. } => art.is_mapped(),
        }
    }

    /// Storage width of the masses ([`ValueKind::F64`] for heap).
    pub fn value_kind(&self) -> ValueKind {
        match &self.repr {
            Repr::Heap { .. } => ValueKind::F64,
            Repr::Mapped { art, .. } => art.header().value_kind,
        }
    }

    /// Rows `[lo, hi)` rebased so the result's user `0` is this index's
    /// user `lo` — the per-shard index of the sharded server.
    ///
    /// Heap backing: the same shared rows behind a new pointer table —
    /// no row bytes copied or re-accumulated, so the floating-point
    /// contract is preserved verbatim. Mapped backing: the same shared
    /// artifact with a narrowed window — O(1), no bytes duplicated,
    /// which is what lets a million-user daemon shard without
    /// re-materializing the index.
    ///
    /// Panics if `lo > hi` or `hi` exceeds the user count.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> SimMassIndex {
        assert!(lo <= hi && hi <= self.num_users(), "slice out of bounds");
        match &self.repr {
            Repr::Heap { rows } => SimMassIndex {
                repr: Repr::Heap { rows: rows.slice(lo, hi) },
                num_clusters: self.num_clusters,
            },
            Repr::Mapped { art, base, .. } => SimMassIndex {
                repr: Repr::Mapped { art: Arc::clone(art), base: base + lo, rows: hi - lo },
                num_clusters: self.num_clusters,
            },
        }
    }

    /// The full-precision index with every mass pre-rounded through f32
    /// (`(m as f32) as f64`) — the exact reference a compact (f32)
    /// artifact serves. Serving from an f32 artifact is bit-identical
    /// to serving this, which is how the compact-value contract is
    /// tested without any tolerance.
    pub fn quantized(&self) -> SimMassIndex {
        let rows = (0..self.num_users() as u32)
            .map(|u| {
                let (cls, vals) = self.row_vals(UserId(u));
                (cls.into(), (0..vals.len()).map(|i| (vals.get(i) as f32) as f64).collect())
            })
            .collect();
        SimMassIndex { repr: Repr::Heap { rows }, num_clusters: self.num_clusters }
    }

    /// Recompute only the `dirty` rows (ascending user ids) against the
    /// current similarity store and partition and share every other row
    /// with `self` — the streaming-delta companion to
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
    /// Requires full-precision (f64) rows; compact (f32) indices are
    /// read-only serving artifacts. A mapped f64 index is copied into
    /// heap rows first, so only heap indices update in O(dirty rows).
    pub fn update_rows<R: SimilarityRows + ?Sized>(
        &self,
        sim: &R,
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
            Repr::Mapped { .. } => {
                copied = (0..n as u32)
                    .map(|u| {
                        let (cls, masses) = self.row(UserId(u));
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

    /// Write this index as an mmap-able artifact file (kind
    /// [`ArtifactKind::SimMass`], `meta` = cluster count). With
    /// [`ValueKind::F32`] the masses are quantized per the documented
    /// compact-value contract.
    pub fn write_artifact(&self, path: &Path, value_kind: ValueKind) -> io::Result<()> {
        let n = self.num_users();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for u in 0..n as u32 {
            let (cls, row) = self.row_vals(UserId(u));
            cols.extend_from_slice(cls);
            for i in 0..row.len() {
                vals.push(row.get(i));
            }
            offsets.push(cols.len() as u64);
        }
        write_csr_artifact(
            path,
            ArtifactKind::SimMass,
            value_kind,
            self.num_clusters as u64,
            &offsets,
            &cols,
            &vals,
        )
    }

    /// Build the index row-by-row from any similarity store and stream
    /// it straight into an artifact at `path`, never materializing the
    /// index in RAM — the bounded-memory companion to
    /// [`build`](SimMassIndex::build) +
    /// [`write_artifact`](SimMassIndex::write_artifact), and
    /// byte-identical to that pair (rows are accumulated by the same
    /// dense-scratch walk in the same order). `chunk_rows = 0` picks a
    /// default. Returns the entry count written.
    pub fn stream_build_artifact<R: SimilarityRows + ?Sized>(
        sim: &R,
        partition: &Partition,
        path: &Path,
        value_kind: ValueKind,
        chunk_rows: usize,
    ) -> io::Result<u64> {
        let n = sim.num_users();
        assert_eq!(n, partition.num_users(), "partition must cover the similarity matrix's users");
        let nc = partition.num_clusters();
        let chunk_rows = if chunk_rows == 0 { 8192 } else { chunk_rows };
        let _span = socialrec_obs::span!("simmass.stream_build", users = n);
        let mut writer =
            StreamingCsrWriter::create(path, ArtifactKind::SimMass, value_kind, nc as u64, n)?;
        // Dense cluster scratch is O(clusters) per worker; pool across
        // chunks like the similarity streamer does.
        let pool: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
        let mut entries = 0u64;
        for lo in (0..n).step_by(chunk_rows.max(1)) {
            let hi = (lo + chunk_rows).min(n);
            let workers = rayon::current_num_threads().max(1);
            let sub = (hi - lo).div_ceil(workers * 4).max(16);
            let ranges: Vec<(usize, usize)> =
                (lo..hi).step_by(sub).map(|a| (a, (a + sub).min(hi))).collect();
            let pieces: Vec<(Vec<u64>, Vec<u32>, Vec<f64>)> = ranges
                .par_iter()
                .map(|&(a, b)| {
                    let mut scratch = pool
                        .lock()
                        .expect("scratch pool")
                        .pop()
                        .unwrap_or_else(|| vec![0.0f64; nc]);
                    let mut lens = Vec::with_capacity(b - a);
                    let mut cols = Vec::new();
                    let mut vals = Vec::new();
                    for u in a..b {
                        accumulate_row(sim, partition, UserId(u as u32), &mut scratch);
                        let before = cols.len();
                        for (cl, m) in scratch.iter_mut().enumerate() {
                            if *m != 0.0 {
                                cols.push(cl as u32);
                                vals.push(*m);
                            }
                            *m = 0.0;
                        }
                        lens.push((cols.len() - before) as u64);
                    }
                    pool.lock().expect("scratch pool").push(scratch);
                    (lens, cols, vals)
                })
                .collect();
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

    /// Open an artifact written by
    /// [`write_artifact`](SimMassIndex::write_artifact) or
    /// [`stream_build_artifact`](SimMassIndex::stream_build_artifact),
    /// memory-mapping where supported.
    pub fn open_artifact(path: &Path) -> io::Result<SimMassIndex> {
        Self::from_artifact(CsrArtifact::open(path)?)
    }

    /// Open through the heap-copy backing (tests; non-mmap platforms).
    pub fn open_artifact_owned(path: &Path) -> io::Result<SimMassIndex> {
        Self::from_artifact(CsrArtifact::open_owned(path)?)
    }

    /// Wrap a validated artifact, checking it holds a sim-mass index
    /// whose every cluster id is below its cluster count. A stored id at
    /// or past the count would index outside a release row on the first
    /// query that reads it, so it fails the open instead.
    pub fn from_artifact(art: CsrArtifact) -> io::Result<SimMassIndex> {
        let header = art.header();
        if header.kind != ArtifactKind::SimMass {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("artifact holds {:?}, not a sim-mass index", header.kind),
            ));
        }
        if let Some(max) = art.cols().iter().copied().max().filter(|&c| u64::from(c) >= header.meta)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt sim-mass index: cluster id {max} >= {} clusters", header.meta),
            ));
        }
        let num_clusters = header.meta as usize;
        let rows = art.num_rows();
        Ok(SimMassIndex { repr: Repr::Mapped { art: Arc::new(art), base: 0, rows }, num_clusters })
    }
}

/// Accumulate `u`'s per-cluster similarity mass into `scratch` — the
/// one shared walk of every builder, so heap and streaming builds are
/// additions-for-additions identical. The f32 arm widens exactly, so a
/// mass index rebuilt *from* a compact similarity artifact accumulates
/// exactly the quantized scores.
#[inline]
fn accumulate_row<R: SimilarityRows + ?Sized>(
    sim: &R,
    partition: &Partition,
    u: UserId,
    scratch: &mut [f64],
) {
    let (users, scores) = sim.row_vals(u);
    match scores {
        RowVals::F64(ss) => {
            for (&v, &s) in users.iter().zip(ss) {
                scratch[partition.cluster_of(v) as usize] += s;
            }
        }
        RowVals::F32(ss) => {
            for (&v, &s) in users.iter().zip(ss) {
                scratch[partition.cluster_of(v) as usize] += f64::from(s);
            }
        }
    }
}

/// Row `u` of the index: accumulate its masses into the zeroed dense
/// `scratch`, then emit every non-zero cluster in ascending order into
/// arrays allocated once at their exact length, zeroing `scratch` for
/// the next row.
fn mass_row<R: SimilarityRows + ?Sized>(
    sim: &R,
    partition: &Partition,
    u: UserId,
    scratch: &mut [f64],
) -> (Box<[u32]>, Box<[f64]>) {
    accumulate_row(sim, partition, u, scratch);
    let len = scratch.iter().filter(|&&m| m != 0.0).count();
    let (mut cols, mut vals) = (Vec::with_capacity(len), Vec::with_capacity(len));
    for (cl, m) in scratch.iter_mut().enumerate() {
        if *m != 0.0 {
            cols.push(cl as u32);
            vals.push(*m);
        }
        *m = 0.0;
    }
    (cols.into_boxed_slice(), vals.into_boxed_slice())
}

/// The index rows a refresh can change, given the similarity-dirty
/// rows and the users whose cluster id changed.
///
/// Row `u` of the mass index depends on `u`'s similarity row and on the
/// cluster labels of the users *in* that row. So it changes only if
/// `u`'s similarity row changed (`sim_dirty`) or some `v ∈ sim(u)`
/// moved clusters — and by symmetry those `u` are exactly the similar
/// users of the moved ones, read from the *new* similarity store. The
/// moved users themselves are included for good measure (their own rows
/// are unaffected by their own label, but the superset is cheap and
/// keeps the contract simple). Result ascends, deduplicated.
pub fn dirty_index_rows<R: SimilarityRows + ?Sized>(
    sim: &R,
    sim_dirty: &[UserId],
    moved: &[UserId],
) -> Vec<UserId> {
    let mut rows: Vec<UserId> = sim_dirty.to_vec();
    rows.extend_from_slice(moved);
    for &v in moved {
        let (us, _) = sim.row_vals(v);
        rows.extend_from_slice(us);
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

impl PartialEq for SimMassIndex {
    /// Logical equality: same shape and bit-identical rows, regardless
    /// of backing (heap vs mapped) — f32-backed masses compare at their
    /// widened value.
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
            ca == cb
                && va.len() == vb.len()
                && (0..va.len()).all(|i| va.get(i).to_bits() == vb.get(i).to_bits())
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
            let (cls, ms) = idx.row(UserId(u));
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
            let (cls, ms) = idx.row(UserId(u));
            assert!(cls.windows(2).all(|w| w[0] < w[1]), "clusters not ascending");
            assert!(ms.iter().all(|&m| m != 0.0));
        }
        let total: usize = (0..5u32).map(|u| idx.row(UserId(u)).0.len()).sum();
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
    fn slice_rows_rebases_and_preserves_bits() {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let partition = Partition::from_assignment(&[0, 1, 0, 1, 0, 1]);
        let full = SimMassIndex::build(&sim, &partition);
        // Shard-style cover: [0,2), [2,4), [4,6).
        for lo in [0usize, 2, 4] {
            let slice = full.slice_rows(lo, lo + 2);
            assert_eq!(slice.num_users(), 2);
            assert_eq!(slice.num_clusters(), full.num_clusters());
            for local in 0..2u32 {
                let (gc, gm) = full.row(UserId(lo as u32 + local));
                let (sc, sm) = slice.row(UserId(local));
                assert_eq!(gc, sc);
                for (a, b) in gm.iter().zip(sm) {
                    assert_eq!(a.to_bits(), b.to_bits(), "sliced mass differs bitwise");
                }
            }
        }
        // Degenerate slices are fine; out-of-bounds is not.
        assert_eq!(full.slice_rows(3, 3).num_users(), 0);
        assert_eq!(full.slice_rows(0, 6).nnz(), full.nnz());
    }

    /// Satellite coverage: the shard-shaped boundary cases — an empty
    /// shard, a single-user shard, and a final ragged shard — on both
    /// backings.
    #[test]
    fn slice_rows_boundary_cases_on_both_backings() {
        let s = social_graph_from_edges(
            7,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5)],
        )
        .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = Partition::from_assignment(&[0, 1, 2, 0, 1, 2, 0]);
        let heap = SimMassIndex::build(&sim, &partition);
        let path = temp_path("slice-bounds");
        heap.write_artifact(&path, ValueKind::F64).unwrap();
        let mapped = SimMassIndex::open_artifact(&path).unwrap();

        for full in [&heap, &mapped] {
            // Empty shard: zero users anywhere in the range, nnz 0.
            for at in [0usize, 3, 7] {
                let empty = full.slice_rows(at, at);
                assert_eq!(empty.num_users(), 0);
                assert_eq!(empty.nnz(), 0);
            }
            // Single-user shard: one row, bits preserved, local id 0.
            for at in [0usize, 4, 6] {
                let one = full.slice_rows(at, at + 1);
                assert_eq!(one.num_users(), 1);
                let (gc, gv) = full.row_vals(UserId(at as u32));
                let (sc, sv) = one.row_vals(UserId(0));
                assert_eq!(gc, sc);
                for i in 0..gv.len() {
                    assert_eq!(gv.get(i).to_bits(), sv.get(i).to_bits());
                }
            }
            // Final ragged shard: chunk 3 over 7 users → [6, 7).
            let ragged = full.slice_rows(6, 7);
            assert_eq!(ragged.num_users(), 1);
            let (gc, _) = full.row_vals(UserId(6));
            let (sc, _) = ragged.row_vals(UserId(0));
            assert_eq!(gc, sc);
        }
        // Mapped slices share the backing and stay O(1): a sub-slice of
        // a slice still answers correctly.
        let nested = mapped.slice_rows(2, 7).slice_rows(3, 5);
        let (gc, _) = mapped.row_vals(UserId(5));
        let (nc2, _) = nested.row_vals(UserId(0));
        assert_eq!(gc, nc2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_index_equals_heap_index_and_f32_equals_quantized() {
        let s = social_graph_from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (2, 6)],
        )
        .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 2, 2, 3, 3]);
        let heap = SimMassIndex::build(&sim, &partition);

        let p64 = temp_path("eq-f64");
        let p32 = temp_path("eq-f32");
        heap.write_artifact(&p64, ValueKind::F64).unwrap();
        heap.write_artifact(&p32, ValueKind::F32).unwrap();

        // Full precision: mapped == heap exactly, both open paths.
        for opened in [
            SimMassIndex::open_artifact(&p64).unwrap(),
            SimMassIndex::open_artifact_owned(&p64).unwrap(),
        ] {
            assert_eq!(opened.num_clusters(), heap.num_clusters());
            assert_eq!(opened, heap);
            assert_eq!(opened.value_kind(), ValueKind::F64);
        }

        // Compact: mapped f32 == quantized heap exactly (the §6e
        // contract), and row() panics while row_vals serves.
        let compact = SimMassIndex::open_artifact(&p32).unwrap();
        assert_eq!(compact.value_kind(), ValueKind::F32);
        assert_eq!(compact, heap.quantized());
        std::fs::remove_file(&p64).ok();
        std::fs::remove_file(&p32).ok();
    }

    #[test]
    #[should_panic(expected = "use row_vals")]
    fn f64_row_access_panics_on_compact_artifact() {
        let s = social_graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let idx = SimMassIndex::build(&sim, &Partition::singletons(3));
        let path = temp_path("row-panic");
        idx.write_artifact(&path, ValueKind::F32).unwrap();
        let compact = SimMassIndex::open_artifact(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let _ = compact.row(UserId(0));
    }

    #[test]
    fn stream_build_matches_materialized_write_byte_for_byte() {
        let mut edges: Vec<(u32, u32)> = (0..50u32).map(|u| (u, (u + 1) % 50)).collect();
        edges.extend((0..25u32).map(|u| (u, u + 25)));
        let s = social_graph_from_edges(50, &edges).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition =
            Partition::from_assignment(&(0..50).map(|u| (u % 6) as u32).collect::<Vec<_>>());
        let heap = SimMassIndex::build(&sim, &partition);
        let reference = temp_path("stream-ref");
        heap.write_artifact(&reference, ValueKind::F64).unwrap();
        let want = std::fs::read(&reference).unwrap();
        for chunk_rows in [1, 7, 50, 0] {
            let p = temp_path(&format!("stream-{chunk_rows}"));
            let entries = SimMassIndex::stream_build_artifact(
                &sim,
                &partition,
                &p,
                ValueKind::F64,
                chunk_rows,
            )
            .unwrap();
            assert_eq!(entries as usize, heap.nnz());
            assert_eq!(std::fs::read(&p).unwrap(), want, "chunk_rows={chunk_rows}");
            std::fs::remove_file(&p).ok();
        }
        std::fs::remove_file(&reference).ok();
    }

    #[test]
    fn build_from_mapped_similarity_matches_build_from_heap() {
        let s = social_graph_from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (6, 7),
                (7, 8),
                (8, 6),
                (2, 3),
                (5, 6),
            ],
        )
        .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let partition = Partition::from_assignment(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let sim_path = temp_path("mapped-sim");
        sim.write_artifact(&sim_path, ValueKind::F64).unwrap();
        let mapped_sim = socialrec_similarity::MappedSimilarity::open(&sim_path).unwrap();
        let from_heap = SimMassIndex::build(&sim, &partition);
        let from_mapped = SimMassIndex::build(&mapped_sim, &partition);
        assert_eq!(from_heap, from_mapped, "index must not depend on the similarity backing");
        std::fs::remove_file(&sim_path).ok();
    }

    /// Satellite property: dirty-row index updates across random delta
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
    fn update_rows_on_a_mapped_f64_index_matches_a_rebuild() {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let heap = SimMassIndex::build(&sim, &Partition::from_assignment(&[0, 0, 0, 1, 1, 1]));
        let path = temp_path("mapped-update");
        heap.write_artifact(&path, ValueKind::F64).unwrap();
        let mapped = SimMassIndex::open_artifact(&path).unwrap();
        let moved = Partition::from_assignment(&[0, 0, 1, 1, 1, 1]);
        let dirty = dirty_index_rows(&sim, &[], &[UserId(2)]);
        assert_eq!(mapped.update_rows(&sim, &moved, &dirty), SimMassIndex::build(&sim, &moved));
        std::fs::remove_file(&path).ok();
    }

    /// A clone, a heap slice and a dirty-row update share every row they
    /// do not recompute with the index they came from. Empty rows are
    /// skipped: every empty boxed slice has the same dangling pointer.
    #[test]
    fn clone_slice_and_update_rows_share_clean_rows() {
        let mut edges: Vec<(u32, u32)> = (0..40u32).map(|u| (u, (u + 1) % 40)).collect();
        edges.extend((0..20u32).map(|u| (u, u + 20)));
        let s = social_graph_from_edges(40, &edges).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let mut labels: Vec<u32> = (0..40).map(|u| u % 5).collect();
        let idx = SimMassIndex::build(&sim, &Partition::from_assignment(&labels));
        let ptr = |i: &SimMassIndex, u: usize| i.row(UserId(u as u32)).0.as_ptr();
        let non_empty: Vec<usize> =
            (0..40).filter(|&u| !idx.row(UserId(u as u32)).0.is_empty()).collect();
        assert_eq!(non_empty.len(), 40, "every user of the ring has similar users");

        let copy = idx.clone();
        assert!(non_empty.iter().all(|&u| ptr(&idx, u) == ptr(&copy, u)), "clone copied a row");
        for (lo, hi) in [(0, 13), (13, 40)] {
            let shard = idx.slice_rows(lo, hi);
            for &u in non_empty.iter().filter(|&&u| (lo..hi).contains(&u)) {
                assert_eq!(ptr(&idx, u), ptr(&shard, u - lo), "slice copied row {u}");
            }
        }

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
    #[should_panic(expected = "slice out of bounds")]
    fn slice_rows_rejects_out_of_bounds() {
        let s = social_graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let idx = SimMassIndex::build(&sim, &Partition::singletons(3));
        let _ = idx.slice_rows(1, 4);
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
