//! Truncated Katz: `sim(u, v) = Σ_{l=1..k} α^l · |walks^l_{uv}|`.
//!
//! Counts length-`l` walks (the standard Katz formulation) with a
//! geometric damping `α` per hop, truncated at `k` — paper defaults:
//! `k = 3`, `α = 0.05`.
//!
//! Computed as a scatter walk. Step `l` reads the walk front, which
//! maps each node `y` to the number `c_{l-1}(y)` of length-`(l-1)`
//! walks from `u` to `y` (`c_0` is `u` alone), and every front node
//! scatters `c_{l-1}(y)` into the next front and `α^l · c_{l-1}(y)`
//! into the score of each of its neighbors. Walk counts are whole
//! numbers, so the fronts are exact. Each front is drained in
//! ascending id order, so a score is a fold from `0.0` of one rounded
//! term per step `y → v`, over `l` ascending and then `y` ascending,
//! with `α^l` the left-to-right product of `l` factors `α`.

use crate::scratch::SimScratch;
use crate::Similarity;
use socialrec_graph::{SocialGraph, UserId};

/// The Katz (KZ) measure.
#[derive(Clone, Copy, Debug)]
pub struct Katz {
    /// Maximum walk length `k` (paper: 3).
    pub max_length: u32,
    /// Damping factor `α` (paper: 0.05).
    pub alpha: f64,
}

impl Default for Katz {
    fn default() -> Self {
        Katz { max_length: 3, alpha: 0.05 }
    }
}

impl Similarity for Katz {
    fn name(&self) -> &'static str {
        "KZ"
    }

    /// A length-`k` walk from `u` that uses a flipped edge must reach
    /// one of its endpoints within `k-1` hops.
    fn dirty_radius(&self) -> u32 {
        self.max_length.saturating_sub(1)
    }

    fn similarity_set(
        &self,
        g: &SocialGraph,
        u: UserId,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        out.clear();
        assert!(self.max_length >= 1, "max_length must be at least 1");
        assert!(self.alpha > 0.0, "alpha must be positive");

        let SimScratch { acc, front, next, .. } = scratch;

        // Length-1 walks.
        let mut alpha_l = self.alpha;
        for &v in g.neighbors(u) {
            front.add(v.0, 1.0);
            acc.add(v.0, alpha_l);
        }

        // Extend the walk front one hop at a time, draining it in
        // ascending id order. Walks may revisit nodes (including u
        // itself) — that is the Katz definition.
        for _l in 2..=self.max_length {
            alpha_l *= self.alpha;
            front.drain(|y, count| {
                for &v in g.neighbors(UserId(y)) {
                    next.add(v.0, count);
                    acc.add(v.0, alpha_l * count);
                }
            });
            std::mem::swap(front, next);
        }
        front.clear();
        acc.drain_sorted_into(u, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;

    const A: f64 = 0.05;

    #[test]
    fn path_graph_walk_counts() {
        // 0-1-2 path. Walks from 0: to 1, lengths 1 and 3 (0-1-0-1 and
        // 0-1-2-1): KZ(0,1) = α + 2α³. To 2: one length-2 walk: α².
        let g = social_graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let kz = Katz { max_length: 3, alpha: A };
        let s01 = kz.pair(&g, UserId(0), UserId(1));
        assert!((s01 - (A + 2.0 * A * A * A)).abs() < 1e-15, "{s01}");
        let s02 = kz.pair(&g, UserId(0), UserId(2));
        assert!((s02 - A * A).abs() < 1e-15, "{s02}");
    }

    #[test]
    fn triangle_walks() {
        // Triangle: from 0 to 1 — length 1 (direct), length 2 (0-2-1),
        // length 3: 0-1-0-1, 0-1-2-1, 0-2-0-1 => 3 walks.
        let g = social_graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let kz = Katz { max_length: 3, alpha: A };
        let expected = A + A * A + 3.0 * A * A * A;
        assert!((kz.pair(&g, UserId(0), UserId(1)) - expected).abs() < 1e-15);
    }

    #[test]
    fn truncation_at_k1_is_adjacency() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let kz = Katz { max_length: 1, alpha: 0.5 };
        let set = kz.similarity_set_vec(&g, UserId(1));
        assert_eq!(set, vec![(UserId(0), 0.5), (UserId(2), 0.5)]);
    }

    #[test]
    fn symmetric() {
        let g =
            social_graph_from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5)])
                .unwrap();
        let kz = Katz::default();
        for u in 0..6u32 {
            for v in 0..6u32 {
                let a = kz.pair(&g, UserId(u), UserId(v));
                let b = kz.pair(&g, UserId(v), UserId(u));
                assert!((a - b).abs() < 1e-15, "asym at ({u},{v})");
            }
        }
    }

    #[test]
    fn longer_k_reaches_farther() {
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let k2 = Katz { max_length: 2, alpha: A };
        let k4 = Katz { max_length: 4, alpha: A };
        assert_eq!(k2.pair(&g, UserId(0), UserId(3)), 0.0);
        assert!(k4.pair(&g, UserId(0), UserId(3)) > 0.0);
        assert!(k4.pair(&g, UserId(0), UserId(4)) > 0.0);
    }

    #[test]
    fn never_contains_self() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        for u in 0..4u32 {
            let set = Katz::default().similarity_set_vec(&g, UserId(u));
            assert!(set.iter().all(|&(v, _)| v != UserId(u)));
        }
    }
}
