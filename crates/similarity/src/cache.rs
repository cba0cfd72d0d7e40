//! Precomputed similarity sets for all users.
//!
//! The recommenders evaluate `sim(u)` for every user, and the NOU
//! baseline needs the global sensitivity `max_u Σ_v sim(v, u)`; both
//! want the whole matrix up front. Rows are computed in parallel with
//! per-thread scratch buffers and stored as [`SharedRows`]: one `Arc`
//! allocation per row, so a clone or a dirty-row update shares every
//! row it does not recompute.

use crate::rows::SharedRows;
use crate::scratch::SimScratch;
use crate::Similarity;
use rayon::prelude::*;
use socialrec_graph::{SocialGraph, UserId};

/// All similarity sets, one shared row per user.
///
/// # Examples
///
/// ```
/// use socialrec_similarity::{Measure, SimilarityMatrix};
/// use socialrec_graph::social::social_graph_from_edges;
/// use socialrec_graph::UserId;
///
/// // Square: opposite corners share two neighbors.
/// let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// let sim = SimilarityMatrix::build(&g, &Measure::CommonNeighbors);
/// assert_eq!(sim.pair(UserId(0), UserId(2)), 2.0);
/// assert_eq!(sim.pair(UserId(0), UserId(1)), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimilarityMatrix {
    rows: SharedRows<UserId, f64>,
    name: &'static str,
}

/// Per-worker state of the row computation: dense scratch plus the
/// pooled row buffer `similarity_set` writes into.
type Workspace = (SimScratch, Vec<(UserId, f64)>);

/// Row `u` of the matrix, split into exact-size column and value
/// arrays. `similarity_set` clears the pooled buffer first, so it never
/// leaks entries across rows; the split reads it while it is cache-hot.
fn similarity_row<S: Similarity + ?Sized>(
    g: &SocialGraph,
    measure: &S,
    (scratch, row): &mut Workspace,
    u: UserId,
) -> (Box<[UserId]>, Box<[f64]>) {
    measure.similarity_set(g, u, scratch, row);
    (row.iter().map(|&(v, _)| v).collect(), row.iter().map(|&(_, s)| s).collect())
}

impl SimilarityMatrix {
    /// Compute every user's similarity set in parallel.
    ///
    /// Each worker reuses one scratch and one row buffer, and each row
    /// is allocated once at its exact size. Output is bit-identical to
    /// [`build_sequential`](SimilarityMatrix::build_sequential) for any
    /// thread count (proven by tests, among them the serve crate's
    /// thread matrix at 1, 2 and 8 threads).
    pub fn build<S: Similarity + ?Sized>(g: &SocialGraph, measure: &S) -> SimilarityMatrix {
        let n = g.num_users();
        let _span = socialrec_obs::span!("sim.build", users = n);
        let rows = SharedRows::build(
            n,
            || (SimScratch::new(n), Vec::new()),
            |ws, u| similarity_row(g, measure, ws, u),
        );
        SimilarityMatrix { rows, name: measure.name() }
    }

    /// Sequential reference for [`build`](SimilarityMatrix::build):
    /// one thread, one scratch, rows in ascending order. Retained so
    /// the equivalence tests can prove the parallel build produces the
    /// same bytes.
    pub fn build_sequential<S: Similarity + ?Sized>(
        g: &SocialGraph,
        measure: &S,
    ) -> SimilarityMatrix {
        let n = g.num_users();
        let mut ws = (SimScratch::new(n), Vec::new());
        let rows = (0..n as u32).map(|u| similarity_row(g, measure, &mut ws, UserId(u))).collect();
        SimilarityMatrix { rows, name: measure.name() }
    }

    /// Recompute only the given rows against `g` and share every other
    /// row with `self` — the delta-aware update path.
    ///
    /// `dirty` must be sorted ascending without duplicates (as produced
    /// by [`crate::dirty_rows`]) and in range. If `dirty` conservatively
    /// covers every row a graph delta could have changed, the result is
    /// **bit-identical** to `SimilarityMatrix::build(g, measure)` from
    /// scratch: per-row computation is deterministic, so clean rows keep
    /// their exact bytes (the very same allocations) and dirty rows are
    /// recomputed exactly as a full build would. Cost is O(recomputed
    /// rows) plus a copy of the n-entry row-pointer table, instead of
    /// O(all rows) similarity work or O(entries) copying.
    pub fn update_rows<S: Similarity + ?Sized>(
        &self,
        g: &SocialGraph,
        measure: &S,
        dirty: &[UserId],
    ) -> SimilarityMatrix {
        let n = self.num_users();
        assert_eq!(g.num_users(), n, "deltas must preserve the user set");
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty rows must be sorted unique");
        assert!(dirty.last().is_none_or(|u| u.index() < n), "dirty row out of range");
        let _span = socialrec_obs::span!("update.sim_rows", rows = dirty.len());
        let rows = self.rows.update(
            dirty,
            || (SimScratch::new(n), Vec::new()),
            |ws, u| similarity_row(g, measure, ws, u),
        );
        SimilarityMatrix { rows, name: self.name }
    }

    /// Number of users (rows).
    pub fn num_users(&self) -> usize {
        self.rows.num_rows()
    }

    /// Total number of stored (non-zero) entries.
    pub fn num_entries(&self) -> usize {
        self.rows.nnz()
    }

    /// Name of the measure that produced this matrix.
    pub fn measure_name(&self) -> &'static str {
        self.name
    }

    /// The similarity set of `u` as parallel slices `(users, scores)`,
    /// users ascending.
    #[inline]
    pub fn row(&self, u: UserId) -> (&[UserId], &[f64]) {
        self.rows.row(u)
    }

    /// `sim(u, v)` by binary search in `u`'s row.
    pub fn pair(&self, u: UserId, v: UserId) -> f64 {
        let (users, scores) = self.row(u);
        match users.binary_search(&v) {
            Ok(i) => scores[i],
            Err(_) => 0.0,
        }
    }

    /// `Σ_v sim(u, v)` — the row sum.
    pub fn total_similarity(&self, u: UserId) -> f64 {
        self.row(u).1.iter().sum()
    }

    /// The NOU global sensitivity `Δ_A = max_u Σ_v sim(v, u)`
    /// (§5.1.1). All four paper measures are symmetric, so the max
    /// column sum equals the max row sum. Row sums are computed in
    /// parallel; `max` is order-independent, so the result matches the
    /// sequential fold exactly.
    pub fn max_total_similarity(&self) -> f64 {
        (0..self.num_users() as u32)
            .into_par_iter()
            .map(|u| self.total_similarity(UserId(u)))
            .reduce(|| 0.0, f64::max)
    }

    /// The largest single similarity value in `u`'s row
    /// (`max_{v∈sim(u)} sim(u,v)`, used by the GS comparator).
    pub fn max_in_row(&self, u: UserId) -> f64 {
        self.row(u).1.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdamicAdar, CommonNeighbors, GraphDistance, Katz, Measure};
    use socialrec_graph::generate::{planted_communities, CommunityGraphConfig};
    use socialrec_graph::social::social_graph_from_edges;

    /// Assert `a` and `b` hold the same rows, bit for bit.
    fn assert_same_rows(a: &SimilarityMatrix, b: &SimilarityMatrix, what: &str) {
        assert_eq!(a.num_users(), b.num_users(), "{what}: user counts differ");
        assert_eq!(a.num_entries(), b.num_entries(), "{what}: entry counts differ");
        for u in 0..a.num_users() as u32 {
            let ((an, av), (bn, bv)) = (a.row(UserId(u)), b.row(UserId(u)));
            assert_eq!(an, bn, "{what}: row {u} neighbors differ");
            let same_bits = av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same_bits, "{what}: row {u} scores differ bitwise");
        }
    }

    #[test]
    fn matches_direct_computation() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 120,
            seed: 3,
            ..Default::default()
        })
        .graph;
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            for u in (0..120u32).step_by(17) {
                let direct = m.similarity_set_vec(&g, UserId(u));
                let (users, scores) = matrix.row(UserId(u));
                assert_eq!(users.len(), direct.len(), "{} row {u}", m.name());
                for (k, &(v, s)) in direct.iter().enumerate() {
                    assert_eq!(users[k], v);
                    assert!((scores[k] - s).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn two_pass_build_matches_sequential_bitwise() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 300,
            num_communities: 5,
            seed: 17,
            ..Default::default()
        })
        .graph;
        for m in Measure::paper_suite() {
            let par = SimilarityMatrix::build(&g, &m);
            let seq = SimilarityMatrix::build_sequential(&g, &m);
            assert_same_rows(&par, &seq, m.name());
            assert_eq!(par.measure_name(), seq.measure_name());
        }
    }

    #[test]
    fn symmetry_holds_in_matrix() {
        let g = social_graph_from_edges(
            7,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0)],
        )
        .unwrap();
        for m in [
            Box::new(CommonNeighbors) as Box<dyn Similarity>,
            Box::new(AdamicAdar),
            Box::new(GraphDistance::default()),
            Box::new(Katz::default()),
        ] {
            let matrix = SimilarityMatrix::build(&g, m.as_ref());
            for u in 0..7u32 {
                for v in 0..7u32 {
                    let a = matrix.pair(UserId(u), UserId(v));
                    let b = matrix.pair(UserId(v), UserId(u));
                    assert!((a - b).abs() < 1e-12, "{} asym ({u},{v})", m.name());
                }
            }
        }
    }

    #[test]
    fn sensitivity_is_max_row_sum() {
        let g = social_graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let matrix = SimilarityMatrix::build(&g, &CommonNeighbors);
        let by_hand = (0..5u32).map(|u| matrix.total_similarity(UserId(u))).fold(0.0, f64::max);
        assert_eq!(matrix.max_total_similarity(), by_hand);
        assert!(matrix.max_total_similarity() > 0.0);
    }

    #[test]
    fn max_total_similarity_matches_sequential_fold() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 700,
            seed: 9,
            ..Default::default()
        })
        .graph;
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            let seq = (0..matrix.num_users() as u32)
                .map(|u| matrix.total_similarity(UserId(u)))
                .fold(0.0, f64::max);
            assert_eq!(matrix.max_total_similarity().to_bits(), seq.to_bits(), "{}", m.name());
        }
    }

    /// The delta contract, end to end: across random delta sequences,
    /// `dirty_rows` + `update_rows` is bitwise equal to a from-scratch
    /// rebuild for every paper measure.
    #[test]
    fn update_rows_matches_full_rebuild_bitwise_across_random_deltas() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use socialrec_graph::GraphDelta;

        let mut rng = SmallRng::seed_from_u64(77);
        let n = 90usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for _ in 0..3 {
                let v = rng.gen_range(0..n as u32);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let g0 = social_graph_from_edges(n, &edges).unwrap();

        for m in Measure::paper_suite() {
            let mut g = g0.clone();
            let mut sim = SimilarityMatrix::build(&g, &m);
            for round in 0..12 {
                let mut d = GraphDelta::new();
                for _ in 0..rng.gen_range(1..6) {
                    let u = UserId(rng.gen_range(0..n as u32));
                    let v = UserId(rng.gen_range(0..n as u32));
                    if u == v {
                        continue;
                    }
                    if rng.gen_bool(0.5) {
                        d.add_social(u, v).unwrap();
                    } else {
                        d.remove_social(u, v).unwrap();
                    }
                }
                let (g_new, report) = d.apply_social(&g).unwrap();
                let dirty = crate::dirty_rows(&m, &g, &g_new, &report.touched);
                let updated = sim.update_rows(&g_new, &m, &dirty);
                let rebuilt = SimilarityMatrix::build(&g_new, &m);
                assert_same_rows(&updated, &rebuilt, &format!("{} round {round}", m.name()));
                g = g_new;
                sim = updated;
            }
        }
    }

    #[test]
    fn update_rows_with_empty_dirty_set_is_identity() {
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let sim = SimilarityMatrix::build(&g, &CommonNeighbors);
        let same = sim.update_rows(&g, &CommonNeighbors, &[]);
        assert_same_rows(&same, &sim, "empty update");
    }

    /// A clone and a dirty-row update share every clean row's
    /// allocation with the generation they came from; only recomputed
    /// rows are new. Empty rows are skipped: every empty boxed slice
    /// has the same dangling pointer.
    #[test]
    fn clone_and_update_rows_share_clean_rows() {
        use socialrec_graph::GraphDelta;
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 200,
            num_communities: 4,
            seed: 5,
            ..Default::default()
        })
        .graph;
        let sim = SimilarityMatrix::build(&g, &CommonNeighbors);
        let shared = |a: &SimilarityMatrix, b: &SimilarityMatrix, u: u32| {
            a.row(UserId(u)).0.as_ptr() == b.row(UserId(u)).0.as_ptr()
        };
        let non_empty: Vec<u32> =
            (0..200u32).filter(|&u| !sim.row(UserId(u)).0.is_empty()).collect();
        assert!(non_empty.len() > 100, "the graph must give most users a similarity row");

        let copy = sim.clone();
        assert!(non_empty.iter().all(|&u| shared(&sim, &copy, u)), "clone copied a row");

        let mut d = GraphDelta::new();
        d.add_social(UserId(3), UserId(150)).unwrap();
        let (g_new, report) = d.apply_social(&g).unwrap();
        let dirty = crate::dirty_rows(&CommonNeighbors, &g, &g_new, &report.touched);
        assert!(!dirty.is_empty() && dirty.len() < 200);
        let next = sim.update_rows(&g_new, &CommonNeighbors, &dirty);
        for &u in &non_empty {
            if dirty.binary_search(&UserId(u)).is_err() {
                assert!(shared(&sim, &next, u), "clean row {u} was copied");
            }
        }
        assert_same_rows(&next, &SimilarityMatrix::build(&g_new, &CommonNeighbors), "update");
    }

    #[test]
    fn row_stats() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let matrix = SimilarityMatrix::build(&g, &CommonNeighbors);
        // Square: each user similar only to the opposite corner.
        assert_eq!(matrix.num_entries(), 4);
        assert_eq!(matrix.max_in_row(UserId(0)), 2.0);
        assert_eq!(matrix.pair(UserId(0), UserId(2)), 2.0);
        assert_eq!(matrix.pair(UserId(0), UserId(1)), 0.0);
        assert_eq!(matrix.measure_name(), "CN");
    }
}
