//! Graph Distance: `sim(u, v) = 1/d` for shortest-path length
//! `d ≤ max_distance`.
//!
//! The paper caps `d` at 2 ("the number of reachable users explodes
//! after 2 hops due to the small-world property").
//!
//! Computed by a BFS bounded at `max_distance`: each reached user's
//! score `1/d` goes into the dense accumulator in discovery order, and
//! the accumulator drains sorted. BFS reports each user once, at its
//! shortest depth, so every score is a single rounding of `1/d`.

use crate::scratch::SimScratch;
use crate::Similarity;
use socialrec_graph::traversal::bfs_within;
use socialrec_graph::{SocialGraph, UserId};

/// The Graph Distance (GD) measure.
#[derive(Clone, Copy, Debug)]
pub struct GraphDistance {
    /// Maximum shortest-path length considered (paper: 2).
    pub max_distance: u32,
}

impl Default for GraphDistance {
    fn default() -> Self {
        GraphDistance { max_distance: 2 }
    }
}

impl Similarity for GraphDistance {
    fn name(&self) -> &'static str {
        "GD"
    }

    /// A shortest path of length `≤ d` that uses a flipped edge reaches
    /// one of its endpoints within `d-1` hops.
    fn dirty_radius(&self) -> u32 {
        self.max_distance.saturating_sub(1)
    }

    fn similarity_set(
        &self,
        g: &SocialGraph,
        u: UserId,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        out.clear();
        assert!(self.max_distance >= 1, "max_distance must be at least 1");
        let acc = &mut scratch.acc;
        bfs_within(g, u, self.max_distance, &mut scratch.bfs, |v, d| {
            acc.add(v.0, 1.0 / d as f64);
        });
        acc.drain_sorted_into(u, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn path_graph_values() {
        // 0-1-2-3-4 path, cutoff 2.
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let gd = GraphDistance { max_distance: 2 };
        let set = gd.similarity_set_vec(&g, UserId(0));
        assert_eq!(set, vec![(UserId(1), 1.0), (UserId(2), 0.5)]);
        assert_eq!(gd.pair(&g, UserId(0), UserId(3)), 0.0, "beyond the cutoff");
    }

    #[test]
    fn larger_cutoff_reaches_farther() {
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let gd3 = GraphDistance { max_distance: 3 };
        let set = gd3.similarity_set_vec(&g, UserId(0));
        assert_eq!(set, vec![(UserId(1), 1.0), (UserId(2), 0.5), (UserId(3), 1.0 / 3.0)]);
    }

    #[test]
    fn symmetric() {
        let g =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
                .unwrap();
        let gd = GraphDistance::default();
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(
                    gd.pair(&g, UserId(u), UserId(v)),
                    gd.pair(&g, UserId(v), UserId(u)),
                    "asym at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn shortest_path_not_walk() {
        // Triangle: distance between adjacent nodes is 1 even though a
        // 2-walk exists.
        let g = social_graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let gd = GraphDistance::default();
        assert_eq!(gd.pair(&g, UserId(0), UserId(1)), 1.0);
    }

    #[test]
    fn disconnected_zero() {
        let g = social_graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let gd = GraphDistance { max_distance: 5 };
        assert_eq!(gd.pair(&g, UserId(0), UserId(2)), 0.0);
    }
}
