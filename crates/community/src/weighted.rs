//! The graphs Louvain's levels run on.
//!
//! Level 0 is the social graph itself: every edge weighs 1, so local
//! moving counts links as `u32` and sums degrees and community totals
//! as `u64`, and the level-0 contraction reads it at weight 1.
//! Contraction produces [`WeightedGraph`] super-node graphs whose
//! self-loop weights carry the internal edge mass of each community;
//! `run_weighted_edges` inputs start as one.

use rayon::prelude::*;
use socialrec_graph::{SocialGraph, UserId};
use std::ops::{AddAssign, SubAssign};

/// A weight Louvain's move kernel sums: whole numbers on the social
/// graph (`u32` link counts, `u64` degrees and community totals), `f64`
/// on weighted levels. `to_f64` is exact for the whole numbers, so every
/// gain is the f64 expression the weighted formulation computes.
pub(crate) trait Weight: Copy + PartialEq + AddAssign + SubAssign {
    const ZERO: Self;
    fn to_f64(self) -> f64;
}

impl Weight for u32 {
    const ZERO: u32 = 0;
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Weight for u64 {
    const ZERO: u64 = 0;
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Weight for f64 {
    const ZERO: f64 = 0.0;
    fn to_f64(self) -> f64 {
        self
    }
}

/// One level of the Louvain hierarchy, as local moving and contraction
/// read it.
pub(crate) trait Level: Sync {
    /// The weight of one arc.
    type Link: Weight;
    /// A weighted degree or community total.
    type Total: Weight;
    fn num_nodes(&self) -> usize;
    /// `2m`: total weighted degree.
    fn two_m(&self) -> f64;
    /// Weighted degree `k_u`, self loop included.
    fn degree_of(&self, u: usize) -> Self::Total;
    /// `A_uu`: the doubled internal weight of a super node.
    fn self_loop_of(&self, u: usize) -> f64;
    /// `u`'s neighbours and arc weights, in row order.
    fn arcs(&self, u: usize) -> impl Iterator<Item = (u32, Self::Link)> + '_;
}

impl Level for SocialGraph {
    type Link = u32;
    type Total = u64;
    fn num_nodes(&self) -> usize {
        self.num_users()
    }
    fn two_m(&self) -> f64 {
        2.0 * self.num_edges() as f64
    }
    fn degree_of(&self, u: usize) -> u64 {
        self.degree(UserId(u as u32)) as u64
    }
    fn self_loop_of(&self, _: usize) -> f64 {
        0.0
    }
    fn arcs(&self, u: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(UserId(u as u32)).iter().map(|v| (v.0, 1))
    }
}

/// Symmetric weighted graph in CSR form, with explicit self-loop values.
///
/// Conventions follow the standard Louvain formulation: `self_loop[i]`
/// is `A_ii` and counts the *doubled* internal weight after contraction
/// (each internal undirected edge of weight w contributes 2w to `A_ii`),
/// so the weighted degree `k_i = self_loop[i] + Σ_{j≠i} A_ij` and
/// `2m = Σ_i k_i` without special cases.
#[derive(Clone, Debug)]
pub(crate) struct WeightedGraph {
    pub offsets: Vec<u32>,
    pub neighbors: Vec<u32>,
    pub weights: Vec<f64>,
    pub self_loop: Vec<f64>,
    /// Weighted degree of every node (`self_loop` included).
    pub degree: Vec<f64>,
    /// `2m`: total weighted degree.
    pub two_m: f64,
}

impl Level for WeightedGraph {
    type Link = f64;
    type Total = f64;
    fn num_nodes(&self) -> usize {
        self.self_loop.len()
    }
    fn two_m(&self) -> f64 {
        self.two_m
    }
    fn degree_of(&self, u: usize) -> f64 {
        self.degree[u]
    }
    fn self_loop_of(&self, u: usize) -> f64 {
        self.self_loop[u]
    }
    fn arcs(&self, u: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (ns, ws) = self.neighbors_of(u);
        ns.iter().copied().zip(ws.iter().copied())
    }
}

impl WeightedGraph {
    #[inline]
    pub fn neighbors_of(&self, u: usize) -> (&[u32], &[f64]) {
        let a = self.offsets[u] as usize;
        let b = self.offsets[u + 1] as usize;
        (&self.neighbors[a..b], &self.weights[a..b])
    }

    /// Build from raw weighted undirected edges `(a, b, w)`, `w > 0`.
    /// Duplicates accumulate; self loops and non-positive weights are
    /// dropped.
    pub fn from_weighted_edges(num_nodes: usize, edges: &[(u32, u32, f64)]) -> WeightedGraph {
        let mut degree_counts = vec![0u32; num_nodes];
        for &(a, b, w) in edges {
            if a == b || w <= 0.0 {
                continue;
            }
            assert!(
                (a as usize) < num_nodes && (b as usize) < num_nodes,
                "edge ({a},{b}) out of range"
            );
            degree_counts[a as usize] += 1;
            degree_counts[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree_counts {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0u32; acc as usize];
        let mut weights = vec![0.0f64; acc as usize];
        let mut cursor = vec![0u32; num_nodes];
        for &(a, b, w) in edges {
            if a == b || w <= 0.0 {
                continue;
            }
            let (ia, ib) = (a as usize, b as usize);
            let pa = (offsets[ia] + cursor[ia]) as usize;
            neighbors[pa] = b;
            weights[pa] = w;
            cursor[ia] += 1;
            let pb = (offsets[ib] + cursor[ib]) as usize;
            neighbors[pb] = a;
            weights[pb] = w;
            cursor[ib] += 1;
        }
        let self_loop = vec![0.0; num_nodes];
        // Per-node row sums are independent: compute them in parallel.
        // Each row is summed left-to-right exactly as the sequential
        // loop did, so every degree is bit-identical.
        let degree: Vec<f64> = (0..num_nodes)
            .into_par_iter()
            .map(|u| {
                let a = offsets[u] as usize;
                let b = offsets[u + 1] as usize;
                weights[a..b].iter().sum::<f64>()
            })
            .collect();
        let two_m: f64 = degree.iter().sum();
        WeightedGraph { offsets, neighbors, weights, self_loop, degree, two_m }
    }

    /// Contract `g`: nodes with the same (dense) community label become
    /// one super node. `num_comms` is the number of labels.
    ///
    /// Super-node rows are independent of one another, so they are
    /// accumulated in parallel (one dense scratch row per worker).
    /// Within each community the accumulation order is the member order
    /// of `comm_nodes` — the same order the sequential loop used — so
    /// every weight, self loop, and degree is bit-identical regardless
    /// of how rows are scheduled across threads. A social graph is read
    /// at weight 1, so its contraction sums the same f64 values a
    /// unit-weight `WeightedGraph` of it would.
    pub fn contract<G: Level>(g: &G, community: &[u32], num_comms: usize) -> WeightedGraph {
        // Group original nodes per community.
        let mut comm_nodes: Vec<Vec<u32>> = vec![Vec::new(); num_comms];
        for (u, &c) in community.iter().enumerate() {
            comm_nodes[c as usize].push(u as u32);
        }

        // One super-node row per community: (self loop, neighbors,
        // weights), accumulated with a per-worker dense scratch row.
        let rows: Vec<(f64, Vec<u32>, Vec<f64>)> = (0..num_comms as u32)
            .into_par_iter()
            .map_init(
                || (vec![0.0f64; num_comms], Vec::<u32>::new()),
                |(row_acc, touched), c32| {
                    let c = c32 as usize;
                    let mut loop_w = 0.0f64;
                    for &u in &comm_nodes[c] {
                        loop_w += g.self_loop_of(u as usize);
                        for (v, w) in g.arcs(u as usize) {
                            let w = w.to_f64();
                            let cv = community[v as usize] as usize;
                            if cv == c {
                                // Each internal directed arc adds w; both
                                // directions are present, totalling 2w —
                                // the doubled-loop convention.
                                loop_w += w;
                            } else {
                                if row_acc[cv] == 0.0 {
                                    touched.push(cv as u32);
                                }
                                row_acc[cv] += w;
                            }
                        }
                    }
                    touched.sort_unstable();
                    let mut ns = Vec::with_capacity(touched.len());
                    let mut ws = Vec::with_capacity(touched.len());
                    for &cv in touched.iter() {
                        ns.push(cv);
                        ws.push(row_acc[cv as usize]);
                        row_acc[cv as usize] = 0.0;
                    }
                    touched.clear();
                    (loop_w, ns, ws)
                },
            )
            .collect();

        // Splice the rows into CSR form (memcpy-bound).
        let mut offsets = Vec::with_capacity(num_comms + 1);
        offsets.push(0u32);
        let total: usize = rows.iter().map(|(_, ns, _)| ns.len()).sum();
        let mut neighbors: Vec<u32> = Vec::with_capacity(total);
        let mut weights: Vec<f64> = Vec::with_capacity(total);
        let mut self_loop = Vec::with_capacity(num_comms);
        for (loop_w, ns, ws) in &rows {
            self_loop.push(*loop_w);
            neighbors.extend_from_slice(ns);
            weights.extend_from_slice(ws);
            offsets.push(neighbors.len() as u32);
        }

        let degree: Vec<f64> =
            rows.par_iter().map(|(loop_w, _, ws)| loop_w + ws.iter().sum::<f64>()).collect();
        let two_m: f64 = degree.iter().sum();
        WeightedGraph { offsets, neighbors, weights, self_loop, degree, two_m }
    }

    /// Modularity of an assignment on this weighted graph.
    pub fn modularity(&self, community: &[u32], num_comms: usize) -> f64 {
        if self.two_m == 0.0 {
            return 0.0;
        }
        let mut internal = vec![0.0f64; num_comms];
        let mut total = vec![0.0f64; num_comms];
        for u in 0..self.num_nodes() {
            let cu = community[u] as usize;
            total[cu] += self.degree[u];
            internal[cu] += self.self_loop[u];
            let (ns, ws) = self.neighbors_of(u);
            for (&v, &w) in ns.iter().zip(ws) {
                if community[v as usize] as usize == cu {
                    internal[cu] += w;
                }
            }
        }
        let m2 = self.two_m;
        (0..num_comms).map(|c| internal[c] / m2 - (total[c] / m2).powi(2)).sum()
    }
}

/// `g`'s edges at weight 1, in `edges()` order: the unit-weight input
/// whose `WeightedGraph` is the weighted formulation of `g`, row order
/// included.
#[cfg(test)]
pub(crate) fn unit_edges(g: &SocialGraph) -> Vec<(u32, u32, f64)> {
    g.edges().map(|(a, b)| (a.0, b.0, 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;

    fn two_triangles_bridge() -> SocialGraph {
        // Triangles {0,1,2} and {3,4,5} joined by 2-3.
        social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap()
    }

    fn unit_weight(g: &SocialGraph) -> WeightedGraph {
        WeightedGraph::from_weighted_edges(g.num_users(), &unit_edges(g))
    }

    #[test]
    fn contraction_conserves_weight() {
        let g = two_triangles_bridge();
        let w = unit_weight(&g);
        let comm = [0u32, 0, 0, 1, 1, 1];
        let c = WeightedGraph::contract(&w, &comm, 2);
        assert_eq!(c.num_nodes(), 2);
        // Each triangle: 3 internal edges -> self loop 6; bridge weight 1.
        assert_eq!(c.self_loop, vec![6.0, 6.0]);
        let (ns, ws) = c.neighbors_of(0);
        assert_eq!(ns, &[1]);
        assert_eq!(ws, &[1.0]);
        assert_eq!(c.two_m, w.two_m, "total weight must be conserved");
    }

    /// The historical sequential contraction, kept verbatim as the
    /// reference the parallel implementation must match bit-for-bit.
    fn contract_sequential(
        g: &WeightedGraph,
        community: &[u32],
        num_comms: usize,
    ) -> WeightedGraph {
        let mut self_loop = vec![0.0f64; num_comms];
        let mut row_acc = vec![0.0f64; num_comms];
        let mut touched: Vec<u32> = Vec::new();
        let mut comm_nodes: Vec<Vec<u32>> = vec![Vec::new(); num_comms];
        for (u, &c) in community.iter().enumerate() {
            comm_nodes[c as usize].push(u as u32);
        }
        let mut offsets = Vec::with_capacity(num_comms + 1);
        offsets.push(0u32);
        let mut neighbors: Vec<u32> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for (c, nodes) in comm_nodes.iter().enumerate() {
            for &u in nodes {
                self_loop[c] += g.self_loop[u as usize];
                let (ns, ws) = g.neighbors_of(u as usize);
                for (&v, &w) in ns.iter().zip(ws) {
                    let cv = community[v as usize] as usize;
                    if cv == c {
                        self_loop[c] += w;
                    } else {
                        if row_acc[cv] == 0.0 {
                            touched.push(cv as u32);
                        }
                        row_acc[cv] += w;
                    }
                }
            }
            touched.sort_unstable();
            for &cv in &touched {
                neighbors.push(cv);
                weights.push(row_acc[cv as usize]);
                row_acc[cv as usize] = 0.0;
            }
            touched.clear();
            offsets.push(neighbors.len() as u32);
        }
        let degree: Vec<f64> = (0..num_comms)
            .map(|c| {
                let a = offsets[c] as usize;
                let b = offsets[c + 1] as usize;
                self_loop[c] + weights[a..b].iter().sum::<f64>()
            })
            .collect();
        let two_m: f64 = degree.iter().sum();
        WeightedGraph { offsets, neighbors, weights, self_loop, degree, two_m }
    }

    #[test]
    fn parallel_contract_matches_sequential_reference() {
        use socialrec_graph::generate::{planted_communities, CommunityGraphConfig};
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 500,
            num_communities: 7,
            seed: 13,
            ..Default::default()
        })
        .graph;
        let w = unit_weight(&g);
        // Several community assignments, including skewed row sizes.
        for k in [2usize, 7, 40] {
            let comm: Vec<u32> = (0..w.num_nodes())
                .map(|u| if u < w.num_nodes() / 3 { 0 } else { (u % k) as u32 })
                .collect();
            let mut dense = comm.clone();
            let nc = {
                // Dense relabel in first-appearance order.
                let mut relabel = vec![u32::MAX; dense.len()];
                let mut next = 0u32;
                for c in dense.iter_mut() {
                    let slot = &mut relabel[*c as usize];
                    if *slot == u32::MAX {
                        *slot = next;
                        next += 1;
                    }
                    *c = *slot;
                }
                next as usize
            };
            let seq = contract_sequential(&w, &dense, nc);
            // The level-0 contraction reads the social graph at weight 1.
            for par in
                [WeightedGraph::contract(&w, &dense, nc), WeightedGraph::contract(&g, &dense, nc)]
            {
                assert_eq!(par.offsets, seq.offsets);
                assert_eq!(par.neighbors, seq.neighbors);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&par.weights), bits(&seq.weights));
                assert_eq!(bits(&par.self_loop), bits(&seq.self_loop));
                assert_eq!(bits(&par.degree), bits(&seq.degree));
                assert_eq!(par.two_m.to_bits(), seq.two_m.to_bits());
            }
        }
    }

    #[test]
    fn modularity_invariant_under_contraction() {
        let g = two_triangles_bridge();
        let w = unit_weight(&g);
        let comm = [0u32, 0, 0, 1, 1, 1];
        let q_fine = w.modularity(&comm, 2);
        let c = WeightedGraph::contract(&w, &comm, 2);
        let q_coarse = c.modularity(&[0, 1], 2);
        assert!((q_fine - q_coarse).abs() < 1e-12);
        // Hand value: in_0 = 2*3+1*0... internal(c)=6 (loop0) + 0? loop is 0 at level0;
        // internal edges counted twice: triangle has 6 arc-weights; Q = 2*(6/14 - (7/14)^2) = 2*(3/7 - 1/4).
        let expected = 2.0 * (6.0 / 14.0 - (7.0f64 / 14.0).powi(2));
        assert!((q_fine - expected).abs() < 1e-12, "{q_fine} vs {expected}");
    }
}
