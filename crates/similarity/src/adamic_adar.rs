//! Adamic/Adar: `sim(u, v) = Σ_{x ∈ Γ(u)∩Γ(v)} 1 / log|Γ(x)|`.
//!
//! Rare common neighbors count more than popular ones. Natural
//! logarithm; any `x` that is a common neighbor of distinct `u, v` has
//! `|Γ(x)| ≥ 2`, so the weight `1/ln|Γ(x)|` is always finite.
//!
//! Like Common Neighbors, computed as a scatter walk: each neighbor
//! `x ∈ Γ(u)` adds its weight into a dense accumulator slot for every
//! `v ∈ Γ(x)`. Neighbors are visited in ascending `x`, so each score is
//! a fold from `0.0` of `1/ln|Γ(x)|` over the common neighbors `x` in
//! ascending order.

use crate::scratch::SimScratch;
use crate::Similarity;
use socialrec_graph::{SocialGraph, UserId};

/// The Adamic/Adar (AA) measure.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdamicAdar;

impl Similarity for AdamicAdar {
    fn name(&self) -> &'static str {
        "AA"
    }

    fn similarity_set(
        &self,
        g: &SocialGraph,
        u: UserId,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        out.clear();
        for &x in g.neighbors(u) {
            let deg = g.degree(x);
            if deg < 2 {
                // x's only neighbor is u: it can witness no pair.
                continue;
            }
            let w = 1.0 / (deg as f64).ln();
            for &v in g.neighbors(x) {
                scratch.acc.add(v.0, w);
            }
        }
        scratch.acc.drain_sorted_into(u, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn hand_computed() {
        // 0 and 2 share neighbor 1 (deg 2) and neighbor 3 (deg 3).
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 2), (3, 4)]).unwrap();
        let aa = AdamicAdar;
        let expected = 1.0 / 2.0f64.ln() + 1.0 / 3.0f64.ln();
        assert!((aa.pair(&g, UserId(0), UserId(2)) - expected).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let g =
            social_graph_from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5)])
                .unwrap();
        let aa = AdamicAdar;
        for u in 0..6u32 {
            for v in 0..6u32 {
                let a = aa.pair(&g, UserId(u), UserId(v));
                let b = aa.pair(&g, UserId(v), UserId(u));
                assert!((a - b).abs() < 1e-12, "asym at ({u},{v}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn rare_neighbor_weighs_more() {
        // v shares a degree-2 neighbor with u; w shares a degree-4 one.
        // 1: neighbors {0, 2}; 3: neighbors {0, 4, 5, 6}.
        let g =
            social_graph_from_edges(7, &[(0, 1), (1, 2), (0, 3), (3, 4), (3, 5), (3, 6)]).unwrap();
        let aa = AdamicAdar;
        let via_rare = aa.pair(&g, UserId(0), UserId(2));
        let via_popular = aa.pair(&g, UserId(0), UserId(4));
        assert!(via_rare > via_popular);
    }

    #[test]
    fn pendant_chain_no_similarity() {
        // 0-1 alone: 1 has degree 1, no pairs witnessed.
        let g = social_graph_from_edges(2, &[(0, 1)]).unwrap();
        assert!(AdamicAdar.similarity_set_vec(&g, UserId(0)).is_empty());
    }

    #[test]
    fn matches_cn_support() {
        // AA and CN have identical supports (positive on the same pairs).
        use crate::common_neighbors::CommonNeighbors;
        let g = social_graph_from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 2), (7, 0)],
        )
        .unwrap();
        for u in 0..8u32 {
            let aa: Vec<UserId> =
                AdamicAdar.similarity_set_vec(&g, UserId(u)).into_iter().map(|(v, _)| v).collect();
            let cn: Vec<UserId> = CommonNeighbors
                .similarity_set_vec(&g, UserId(u))
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            assert_eq!(aa, cn, "support mismatch for user {u}");
        }
    }
}
