//! Property-based tests shared by all four similarity measures.

use proptest::prelude::*;
use socialrec_graph::social::social_graph_from_edges;
use socialrec_graph::{SocialGraph, UserId};
use socialrec_similarity::{Measure, Similarity, SimilarityMatrix};
use std::collections::VecDeque;

fn social_inputs() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..20).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..40)
            .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect::<Vec<_>>());
        (Just(n), edges)
    })
}

/// `m` computed from its §2.2 definition by brute force, as a dense
/// `n × n` table with a zero diagonal:
///
/// * CN: `|Γ(u) ∩ Γ(v)|`;
/// * GD: `1/d(u, v)` for `1 ≤ d ≤ max_distance`, from a BFS distance
///   table;
/// * AA: a fold from `0.0` of `1/ln|Γ(x)|` over the common neighbors
///   `x` in ascending order;
/// * KZ: `Σ_{l ≤ k} α^l · (A^l)[u][v]` as a fold from `0.0` over walk
///   lengths `l` ascending, then predecessors `y` ascending with
///   `c_{l-1}(u, y) > 0`, of `α^l · c_{l-1}(u, y)` into every
///   `v ∈ Γ(y)`. `c_l` are dense walk counts (`c_0` the identity) and
///   `α^l` is the product of `l` factors `α`, taken left to right.
fn definition(g: &SocialGraph, m: Measure) -> Vec<Vec<f64>> {
    let n = g.num_users();
    let nb: Vec<Vec<usize>> =
        (0..n as u32).map(|u| g.neighbors(UserId(u)).iter().map(|v| v.index()).collect()).collect();
    let common = |u: usize, v: usize| -> Vec<usize> {
        let mut xs: Vec<usize> = nb[u].iter().copied().filter(|x| nb[v].contains(x)).collect();
        xs.sort_unstable();
        xs
    };
    let mut want = vec![vec![0.0f64; n]; n];
    match m {
        Measure::CommonNeighbors => {
            for (u, row) in want.iter_mut().enumerate() {
                for (v, w) in row.iter_mut().enumerate() {
                    *w = common(u, v).len() as f64;
                }
            }
        }
        Measure::AdamicAdar => {
            for (u, row) in want.iter_mut().enumerate() {
                for (v, w) in row.iter_mut().enumerate() {
                    *w = common(u, v).iter().fold(0.0, |s, &x| s + 1.0 / (nb[x].len() as f64).ln());
                }
            }
        }
        Measure::GraphDistance { max_distance } => {
            for (u, row) in want.iter_mut().enumerate() {
                let mut dist = vec![u32::MAX; n];
                dist[u] = 0;
                let mut queue = VecDeque::from([u]);
                while let Some(x) = queue.pop_front() {
                    for &y in &nb[x] {
                        if dist[y] == u32::MAX {
                            dist[y] = dist[x] + 1;
                            queue.push_back(y);
                        }
                    }
                }
                for (w, &d) in row.iter_mut().zip(&dist) {
                    if (1..=max_distance).contains(&d) {
                        *w = 1.0 / d as f64;
                    }
                }
            }
        }
        Measure::Katz { max_length, alpha } => {
            for (u, row) in want.iter_mut().enumerate() {
                let mut walks = vec![0.0f64; n];
                walks[u] = 1.0;
                let mut alpha_l = 1.0;
                for _ in 1..=max_length {
                    alpha_l *= alpha;
                    let mut longer = vec![0.0f64; n];
                    for (y, &c) in walks.iter().enumerate().filter(|&(_, &c)| c > 0.0) {
                        for &v in &nb[y] {
                            row[v] += alpha_l * c;
                            longer[v] += c;
                        }
                    }
                    walks = longer;
                }
            }
        }
    }
    for (u, row) in want.iter_mut().enumerate() {
        row[u] = 0.0;
    }
    want
}

proptest! {
    /// The shipped build of every paper measure reproduces its
    /// definition bit for bit.
    #[test]
    fn paper_measures_match_their_definitions((n, edges) in social_inputs()) {
        let g = social_graph_from_edges(n, &edges).unwrap();
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            let want = definition(&g, m);
            for (u, want_row) in want.iter().enumerate() {
                let (users, scores) = matrix.row(UserId(u as u32));
                let support: Vec<UserId> = (0..n as u32)
                    .filter(|&v| want_row[v as usize] > 0.0)
                    .map(UserId)
                    .collect();
                prop_assert_eq!(users, support.as_slice(), "{} row {} support", m.name(), u);
                for (&v, &got) in users.iter().zip(scores) {
                    let w = want_row[v.index()];
                    prop_assert_eq!(
                        got.to_bits(),
                        w.to_bits(),
                        "{}({},{:?}) = {}, want {}",
                        m.name(),
                        u,
                        v,
                        got,
                        w
                    );
                }
            }
        }
    }

    #[test]
    fn all_measures_symmetric_positive_selfless((n, edges) in social_inputs()) {
        let g = social_graph_from_edges(n, &edges).unwrap();
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            for u in 0..n as u32 {
                let (users, scores) = matrix.row(UserId(u));
                // Sorted, positive, no self.
                for w in users.windows(2) {
                    prop_assert!(w[0] < w[1], "{} row {u} unsorted", m.name());
                }
                for (&v, &s) in users.iter().zip(scores) {
                    prop_assert!(s > 0.0, "{} nonpositive score", m.name());
                    prop_assert_ne!(v, UserId(u), "{} self-similarity", m.name());
                    // Symmetry.
                    let back = matrix.pair(v, UserId(u));
                    prop_assert!((back - s).abs() < 1e-9, "{} asym", m.name());
                }
            }
        }
    }

    #[test]
    fn matrix_agrees_with_direct((n, edges) in social_inputs()) {
        let g = social_graph_from_edges(n, &edges).unwrap();
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            for u in 0..n as u32 {
                let direct = m.similarity_set_vec(&g, UserId(u));
                let (users, scores) = matrix.row(UserId(u));
                prop_assert_eq!(users.len(), direct.len());
                for (k, &(v, s)) in direct.iter().enumerate() {
                    prop_assert_eq!(users[k], v);
                    prop_assert!((scores[k] - s).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn cn_bounded_by_min_degree((n, edges) in social_inputs()) {
        let g = social_graph_from_edges(n, &edges).unwrap();
        let matrix = SimilarityMatrix::build(&g, &Measure::CommonNeighbors);
        for u in 0..n as u32 {
            let (users, scores) = matrix.row(UserId(u));
            for (&v, &s) in users.iter().zip(scores) {
                let bound = g.degree(UserId(u)).min(g.degree(v)) as f64;
                prop_assert!(s <= bound + 1e-12, "CN({u},{v})={s} exceeds {bound}");
            }
        }
    }

    #[test]
    fn gd_values_are_reciprocal_distances((n, edges) in social_inputs()) {
        use socialrec_graph::traversal::{shortest_distance_within, BfsScratch};
        let g = social_graph_from_edges(n, &edges).unwrap();
        let matrix = SimilarityMatrix::build(&g, &Measure::GraphDistance { max_distance: 2 });
        let mut scratch = BfsScratch::new(n);
        for u in 0..n as u32 {
            let (users, scores) = matrix.row(UserId(u));
            for (&v, &s) in users.iter().zip(scores) {
                let d = shortest_distance_within(&g, UserId(u), v, 2, &mut scratch)
                    .expect("positive similarity implies reachable within cutoff");
                prop_assert!((s - 1.0 / d as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn katz_monotone_in_alpha((n, edges) in social_inputs()) {
        let g = social_graph_from_edges(n, &edges).unwrap();
        let lo = SimilarityMatrix::build(&g, &Measure::Katz { max_length: 3, alpha: 0.02 });
        let hi = SimilarityMatrix::build(&g, &Measure::Katz { max_length: 3, alpha: 0.05 });
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let a = lo.pair(UserId(u), UserId(v));
                let b = hi.pair(UserId(u), UserId(v));
                prop_assert!(b >= a - 1e-12, "katz not monotone in alpha at ({u},{v})");
            }
        }
    }
}
