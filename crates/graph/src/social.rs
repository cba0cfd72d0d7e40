//! The undirected social graph `G_s = (U, E_s)` (paper Definition 1).
//!
//! Stored as CSR: for user `u`, `neighbors[offsets[u]..offsets[u+1]]` is
//! the sorted list of `u`'s friends. Undirected edges are stored in both
//! rows. The structure is immutable after construction; use
//! [`SocialGraphBuilder`] to assemble one.

use crate::error::GraphError;
use crate::ids::UserId;

/// Immutable undirected social graph in CSR form.
///
/// Invariants (checked by the builder, relied upon everywhere):
/// * no self loops,
/// * no duplicate edges,
/// * each row of `neighbors` is strictly sorted,
/// * every undirected edge appears in both endpoint rows.
#[derive(Clone, Debug, PartialEq)]
pub struct SocialGraph {
    offsets: Vec<u32>,
    neighbors: Vec<UserId>,
}

impl SocialGraph {
    /// Number of user nodes `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E_s|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of user `u` (number of immediate neighbors, `|Γ(u)|`).
    #[inline]
    pub fn degree(&self, u: UserId) -> usize {
        let i = u.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The sorted neighbor slice `Γ(u)`.
    #[inline]
    pub fn neighbors(&self, u: UserId) -> &[UserId] {
        let i = u.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether the undirected edge `(u, v)` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: UserId, v: UserId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all user ids `0..num_users`.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.num_users() as u32).map(UserId)
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        self.users().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Maximum degree over all users; 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_users())
            .map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Mean degree `2|E_s| / |U|`; 0 for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.num_users() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_users() as f64
        }
    }

    /// The CSR arrays: row offsets and the concatenated neighbor rows.
    pub(crate) fn csr(&self) -> (&[u32], &[UserId]) {
        (&self.offsets, &self.neighbors)
    }

    /// Construct directly from validated CSR arrays.
    ///
    /// Internal use (builder, subgraph extraction); callers must uphold
    /// the struct invariants.
    pub(crate) fn from_csr(offsets: Vec<u32>, neighbors: Vec<UserId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        SocialGraph { offsets, neighbors }
    }
}

/// Incremental builder for [`SocialGraph`].
///
/// Accepts edges in any order, with duplicates; they are deduplicated at
/// [`build`](SocialGraphBuilder::build) time. Self loops are rejected.
#[derive(Clone, Debug, Default)]
pub struct SocialGraphBuilder {
    num_users: usize,
    edges: Vec<(UserId, UserId)>,
}

impl SocialGraphBuilder {
    /// Create a builder for a graph over `num_users` users.
    pub fn new(num_users: usize) -> Self {
        SocialGraphBuilder { num_users, edges: Vec::new() }
    }

    /// Reserve space for `n` further edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Number of (possibly duplicate) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add an undirected edge `(u, v)`.
    ///
    /// Returns an error if either endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: UserId, v: UserId) -> Result<(), GraphError> {
        if u.index() >= self.num_users {
            return Err(GraphError::NodeOutOfRange {
                kind: "user",
                id: u.0,
                num_nodes: self.num_users,
            });
        }
        if v.index() >= self.num_users {
            return Err(GraphError::NodeOutOfRange {
                kind: "user",
                id: v.0,
                num_nodes: self.num_users,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { id: u.0 });
        }
        // Canonicalize so dedup catches (v, u) duplicates of (u, v).
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        Ok(())
    }

    /// Finalize into an immutable CSR [`SocialGraph`].
    pub fn build(mut self) -> SocialGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.num_users;
        let mut degrees = vec![0u32; n];
        for &(a, b) in &self.edges {
            degrees[a.index()] += 1;
            degrees[b.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }

        let mut neighbors = vec![UserId(0); acc as usize];
        // Reuse `degrees` as per-row cursors.
        let mut cursor = vec![0u32; n];
        for &(a, b) in &self.edges {
            let ia = a.index();
            let ib = b.index();
            neighbors[(offsets[ia] + cursor[ia]) as usize] = b;
            cursor[ia] += 1;
            neighbors[(offsets[ib] + cursor[ib]) as usize] = a;
            cursor[ib] += 1;
        }
        // Each row receives its canonical-smaller endpoints in sorted order
        // already, but the mixture of "a rows" and "b rows" is not sorted;
        // sort each row.
        for i in 0..n {
            neighbors[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }

        SocialGraph::from_csr(offsets, neighbors)
    }
}

/// Build a social graph from a slice of raw `(u, v)` pairs.
///
/// Convenience for tests and examples.
pub fn social_graph_from_edges(
    num_users: usize,
    edges: &[(u32, u32)],
) -> Result<SocialGraph, GraphError> {
    let mut b = SocialGraphBuilder::new(num_users);
    b.reserve(edges.len());
    for &(u, v) in edges {
        b.add_edge(UserId(u), UserId(v))?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> SocialGraph {
        // 0-1, 1-2, 0-2 triangle; 3 attached to 0; 4 isolated.
        social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_users(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(UserId(0)), 3);
        assert_eq!(g.degree(UserId(3)), 1);
        assert_eq!(g.degree(UserId(4)), 0);
        assert_eq!(g.max_degree(), 3);
        assert!((g.mean_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(UserId(0)), &[UserId(1), UserId(2), UserId(3)]);
        for u in g.users() {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "missing reverse edge {v:?}->{u:?}");
            }
            let ns = g.neighbors(u);
            for w in ns.windows(2) {
                assert!(w[0] < w[1], "row not strictly sorted");
            }
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = social_graph_from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(UserId(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = SocialGraphBuilder::new(2);
        assert!(matches!(b.add_edge(UserId(1), UserId(1)), Err(GraphError::SelfLoop { id: 1 })));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = SocialGraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(UserId(0), UserId(5)),
            Err(GraphError::NodeOutOfRange { id: 5, .. })
        ));
    }

    #[test]
    fn edges_iterator_unique_canonical() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in &edges {
            assert!(u < v);
        }
        let mut sorted = edges.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), edges.len());
    }

    #[test]
    fn empty_graph() {
        let g = social_graph_from_edges(0, &[]).unwrap();
        assert_eq!(g.num_users(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn has_edge_checks() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(UserId(0), UserId(3)));
        assert!(g.has_edge(UserId(3), UserId(0)));
        assert!(!g.has_edge(UserId(3), UserId(1)));
        assert!(!g.has_edge(UserId(4), UserId(0)));
    }
}
