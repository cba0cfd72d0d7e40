//! Newman modularity `Q(Φ)` on the unweighted social graph — Equation
//! (8) of the paper:
//!
//! ```text
//! Q(Φ) = Σ_c  |E_c| / |E_s|  −  ( Σ_{u∈c} deg(u) / (2|E_s|) )²
//! ```
//!
//! (`|E_c|` counted once per internal undirected edge; the first term is
//! the within-cluster edge fraction.)

use crate::partition::Partition;
use socialrec_graph::SocialGraph;

/// Modularity of `partition` on the (unweighted) social graph.
///
/// Each cluster's internal edge count and degree sum is a whole number,
/// summed as an integer and converted once, so the result has the bits
/// of the weighted formulation on the level-0 graph (`2|E_c| / 2|E_s|`
/// is `|E_c| / |E_s|` in IEEE division). Returns 0 for an edgeless
/// graph.
pub fn modularity(g: &SocialGraph, partition: &Partition) -> f64 {
    assert_eq!(
        g.num_users(),
        partition.num_users(),
        "partition must cover exactly the graph's users"
    );
    let m = g.num_edges() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let labels = partition.assignment();
    let k = partition.num_clusters();
    let mut internal = vec![0u64; k];
    let mut degree_sum = vec![0u64; k];
    for u in g.users() {
        let cu = labels[u.index()];
        let ns = g.neighbors(u);
        degree_sum[cu as usize] += ns.len() as u64;
        internal[cu as usize] +=
            ns.iter().filter(|&&v| (u < v) & (labels[v.index()] == cu)).count() as u64;
    }
    (0..k).map(|c| internal[c] as f64 / m - (degree_sum[c] as f64 / (2.0 * m)).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn two_cliques_bridge_hand_value() {
        // Two triangles joined by one edge; the natural split.
        let g =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = Partition::from_assignment(&[0, 0, 0, 1, 1, 1]);
        // m=7; each side: internal 3, degree sum 7.
        let expected = 2.0 * (3.0 / 7.0 - (7.0f64 / 14.0).powi(2));
        assert!((modularity(&g, &p) - expected).abs() < 1e-12);
    }

    #[test]
    fn one_cluster_has_zero_modularity() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let p = Partition::one_cluster(4);
        assert!(modularity(&g, &p).abs() < 1e-12);
    }

    #[test]
    fn singletons_negative_for_connected_graph() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let p = Partition::singletons(4);
        assert!(modularity(&g, &p) < 0.0);
    }

    #[test]
    fn good_split_beats_bad_split() {
        let g =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let good = Partition::from_assignment(&[0, 0, 0, 1, 1, 1]);
        let bad = Partition::from_assignment(&[0, 1, 0, 1, 0, 1]);
        assert!(modularity(&g, &good) > modularity(&g, &bad));
    }

    #[test]
    fn empty_graph_zero() {
        let g = social_graph_from_edges(3, &[]).unwrap();
        assert_eq!(modularity(&g, &Partition::singletons(3)), 0.0);
    }

    #[test]
    fn agrees_with_weighted_formulation() {
        let g = social_graph_from_edges(
            7,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)],
        )
        .unwrap();
        let p = Partition::from_assignment(&[0, 0, 0, 1, 1, 1, 1]);
        let w = crate::weighted::WeightedGraph::from_weighted_edges(
            g.num_users(),
            &crate::weighted::unit_edges(&g),
        );
        let qw = w.modularity(p.assignment(), p.num_clusters());
        assert_eq!(modularity(&g, &p).to_bits(), qw.to_bits());
    }
}
