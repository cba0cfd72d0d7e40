//! Pluggable user-clustering strategies.
//!
//! The framework (paper Algorithm 1, line 1: `createClusters(G_s)`) is
//! parameterised by any clustering that looks *only* at the public
//! social graph; privacy holds regardless of the strategy (Theorem 4),
//! but accuracy depends on it heavily. Besides the paper's Louvain
//! strategy, this module provides the degenerate strategies used in the
//! ablation study:
//!
//! * [`SingletonStrategy`] — every user alone: the framework degenerates
//!   to the Noise-on-Edges baseline,
//! * [`OneClusterStrategy`] — everyone together: minimal noise, maximal
//!   approximation error,
//! * [`RandomStrategy`] — k uniform random clusters (the strawman of
//!   §5.1.2),
//! * [`KMeansStrategy`](crate::kmeans::KMeansStrategy) — k-means on
//!   adjacency rows (the alternative the paper's Remark rejects).

use crate::louvain::Louvain;
use crate::partition::Partition;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use socialrec_graph::SocialGraph;

/// A user-clustering strategy operating solely on the public social
/// graph (the property the privacy proof relies on).
pub trait ClusteringStrategy: Send + Sync {
    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
    /// Produce a disjoint clustering of all users.
    fn cluster(&self, g: &SocialGraph) -> Partition;
}

/// The paper's strategy: Louvain with multi-level refinement, best of
/// `restarts` runs by modularity (§6.2 uses 10 restarts).
#[derive(Clone, Copy, Debug)]
pub struct LouvainStrategy {
    /// Number of restarts with distinct node orders.
    pub restarts: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Whether to run multi-level refinement.
    pub refine: bool,
}

impl Default for LouvainStrategy {
    fn default() -> Self {
        LouvainStrategy { restarts: 10, seed: 0, refine: true }
    }
}

impl ClusteringStrategy for LouvainStrategy {
    fn name(&self) -> &'static str {
        "louvain"
    }

    fn cluster(&self, g: &SocialGraph) -> Partition {
        Louvain { seed: self.seed, refine: self.refine }.run_best_of(g, self.restarts).partition
    }
}

/// Every user in their own cluster (`|c| = 1` everywhere).
#[derive(Clone, Copy, Debug, Default)]
pub struct SingletonStrategy;

impl ClusteringStrategy for SingletonStrategy {
    fn name(&self) -> &'static str {
        "singleton"
    }

    fn cluster(&self, g: &SocialGraph) -> Partition {
        Partition::singletons(g.num_users())
    }
}

/// All users in a single cluster.
#[derive(Clone, Copy, Debug, Default)]
pub struct OneClusterStrategy;

impl ClusteringStrategy for OneClusterStrategy {
    fn name(&self) -> &'static str {
        "one-cluster"
    }

    fn cluster(&self, g: &SocialGraph) -> Partition {
        Partition::one_cluster(g.num_users())
    }
}

/// `k` clusters assigned uniformly at random — ignores graph structure
/// entirely (the strawman discussed before Eq. 6).
#[derive(Clone, Copy, Debug)]
pub struct RandomStrategy {
    /// Number of clusters.
    pub num_clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ClusteringStrategy for RandomStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn cluster(&self, g: &SocialGraph) -> Partition {
        assert!(self.num_clusters >= 1, "need at least one cluster");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let k = self.num_clusters.min(g.num_users().max(1)) as u32;
        let raw: Vec<u32> = (0..g.num_users()).map(|_| rng.gen_range(0..k)).collect();
        Partition::from_assignment(&raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::generate::{planted_communities, CommunityGraphConfig};
    use socialrec_graph::social::social_graph_from_edges;

    fn graph() -> SocialGraph {
        planted_communities(&CommunityGraphConfig { num_users: 120, seed: 2, ..Default::default() })
            .graph
    }

    #[test]
    fn singleton_and_one_cluster() {
        let g = graph();
        let s = SingletonStrategy.cluster(&g);
        assert_eq!(s.num_clusters(), 120);
        let o = OneClusterStrategy.cluster(&g);
        assert_eq!(o.num_clusters(), 1);
    }

    #[test]
    fn random_respects_k_and_seed() {
        let g = graph();
        let a = RandomStrategy { num_clusters: 8, seed: 1 }.cluster(&g);
        assert!(a.num_clusters() <= 8 && a.num_clusters() >= 2);
        let b = RandomStrategy { num_clusters: 8, seed: 1 }.cluster(&g);
        assert_eq!(a, b);
        let c = RandomStrategy { num_clusters: 8, seed: 2 }.cluster(&g);
        assert_ne!(a, c);
    }

    #[test]
    fn random_k_capped_by_users() {
        let g = social_graph_from_edges(3, &[(0, 1)]).unwrap();
        let p = RandomStrategy { num_clusters: 100, seed: 0 }.cluster(&g);
        assert!(p.num_clusters() <= 3);
    }

    #[test]
    fn louvain_strategy_beats_random_on_modularity() {
        let g = graph();
        let lv = LouvainStrategy::default().cluster(&g);
        let rnd = RandomStrategy { num_clusters: lv.num_clusters().max(2), seed: 0 }.cluster(&g);
        let ql = crate::modularity::modularity(&g, &lv);
        let qr = crate::modularity::modularity(&g, &rnd);
        assert!(ql > qr + 0.2, "louvain {ql} should clearly beat random {qr}");
    }

    #[test]
    fn strategies_are_object_safe() {
        let strategies: Vec<Box<dyn ClusteringStrategy>> = vec![
            Box::new(LouvainStrategy::default()),
            Box::new(SingletonStrategy),
            Box::new(OneClusterStrategy),
            Box::new(RandomStrategy { num_clusters: 4, seed: 0 }),
        ];
        let g = graph();
        for s in &strategies {
            let p = s.cluster(&g);
            assert_eq!(p.num_users(), g.num_users(), "{} broke coverage", s.name());
        }
    }
}
