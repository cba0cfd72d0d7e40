//! The bipartite preference graph `G_p = (U, I, E_p)` (paper Definition 2).
//!
//! Unweighted, per the paper's model: an edge `(u, i)` means user `u`
//! positively prefers item `i` and has weight `w(u, i) = 1`; absent edges
//! have weight 0. Weighted inputs (e.g. ratings) are thresholded and
//! binarized during preprocessing (see `socialrec-datasets`), exactly as
//! §6.1 of the paper does.
//!
//! Both orientations are stored in CSR form, because the recommenders
//! iterate user→items (utility accumulation) while the private framework
//! iterates item→users (per-item cluster averages).

use crate::error::GraphError;
use crate::ids::{ItemId, UserId};

/// Immutable bipartite user→item preference graph.
///
/// Invariants: rows sorted, no duplicates, the two orientations are
/// transposes of each other.
#[derive(Clone, Debug, PartialEq)]
pub struct PreferenceGraph {
    // user -> items
    user_offsets: Vec<u32>,
    user_items: Vec<ItemId>,
    // item -> users (transpose)
    item_offsets: Vec<u32>,
    item_users: Vec<UserId>,
}

impl PreferenceGraph {
    /// Number of user nodes `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.user_offsets.len() - 1
    }

    /// Number of item nodes `|I|`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.item_offsets.len() - 1
    }

    /// Number of preference edges `|E_p|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.user_items.len()
    }

    /// Items preferred by user `u`, sorted by id.
    #[inline]
    pub fn items_of(&self, u: UserId) -> &[ItemId] {
        let i = u.index();
        &self.user_items[self.user_offsets[i] as usize..self.user_offsets[i + 1] as usize]
    }

    /// Users who prefer item `i`, sorted by id.
    #[inline]
    pub fn users_of(&self, i: ItemId) -> &[UserId] {
        let k = i.index();
        &self.item_users[self.item_offsets[k] as usize..self.item_offsets[k + 1] as usize]
    }

    /// Out-degree of user `u` (how many items they prefer).
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        let i = u.index();
        (self.user_offsets[i + 1] - self.user_offsets[i]) as usize
    }

    /// In-degree of item `i` (how many users prefer it).
    #[inline]
    pub fn item_degree(&self, i: ItemId) -> usize {
        let k = i.index();
        (self.item_offsets[k + 1] - self.item_offsets[k]) as usize
    }

    /// The edge weight `w(u, i)`: 1.0 if the edge exists, else 0.0.
    #[inline]
    pub fn weight(&self, u: UserId, i: ItemId) -> f64 {
        if self.has_edge(u, i) {
            1.0
        } else {
            0.0
        }
    }

    /// Whether the preference edge `(u, i)` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: UserId, i: ItemId) -> bool {
        self.items_of(u).binary_search(&i).is_ok()
    }

    /// Iterator over all items `0..num_items`.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.num_items() as u32).map(ItemId)
    }

    /// Iterator over all users `0..num_users`.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.num_users() as u32).map(UserId)
    }

    /// Iterator over every preference edge `(u, i)`.
    pub fn edges(&self) -> impl Iterator<Item = (UserId, ItemId)> + '_ {
        self.users().flat_map(move |u| self.items_of(u).iter().copied().map(move |i| (u, i)))
    }

    /// Sparsity of the bipartite adjacency matrix:
    /// `1 - |E_p| / (|U|·|I|)` (as reported in the paper's Table 1).
    pub fn sparsity(&self) -> f64 {
        let cells = self.num_users() as f64 * self.num_items() as f64;
        if cells == 0.0 {
            1.0
        } else {
            1.0 - self.num_edges() as f64 / cells
        }
    }

    /// A copy of this graph with the single edge `(u, i)` added (if
    /// absent) or removed (if present).
    ///
    /// Used by the differential-privacy tests to construct *neighboring*
    /// preference graphs in the sense of Definition 6.
    pub fn toggled_edge(&self, u: UserId, i: ItemId) -> PreferenceGraph {
        let mut b = PreferenceGraphBuilder::new(self.num_users(), self.num_items());
        let mut found = false;
        for (a, x) in self.edges() {
            if a == u && x == i {
                found = true;
                continue; // remove
            }
            b.add_edge(a, x).expect("existing edge must be valid");
        }
        if !found {
            b.add_edge(u, i).expect("toggled edge must be in range");
        }
        b.build()
    }

    /// The user→items CSR arrays: row offsets and concatenated rows.
    pub(crate) fn user_csr(&self) -> (&[u32], &[ItemId]) {
        (&self.user_offsets, &self.user_items)
    }

    /// The item→users CSR arrays: row offsets and concatenated rows.
    pub(crate) fn item_csr(&self) -> (&[u32], &[UserId]) {
        (&self.item_offsets, &self.item_users)
    }

    /// Construct directly from validated CSR arrays (both orientations).
    ///
    /// Internal use (builder, delta application); callers must uphold
    /// the struct invariants.
    pub(crate) fn from_csr(
        user_offsets: Vec<u32>,
        user_items: Vec<ItemId>,
        item_offsets: Vec<u32>,
        item_users: Vec<UserId>,
    ) -> Self {
        debug_assert!(!user_offsets.is_empty());
        debug_assert!(!item_offsets.is_empty());
        debug_assert_eq!(*user_offsets.last().unwrap() as usize, user_items.len());
        debug_assert_eq!(*item_offsets.last().unwrap() as usize, item_users.len());
        debug_assert_eq!(user_items.len(), item_users.len());
        PreferenceGraph { user_offsets, user_items, item_offsets, item_users }
    }
}

/// Incremental builder for [`PreferenceGraph`].
///
/// Duplicate edges collapse at build time.
#[derive(Clone, Debug, Default)]
pub struct PreferenceGraphBuilder {
    num_users: usize,
    num_items: usize,
    edges: Vec<(UserId, ItemId)>,
}

impl PreferenceGraphBuilder {
    /// Create a builder over `num_users` users and `num_items` items.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        PreferenceGraphBuilder { num_users, num_items, edges: Vec::new() }
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

    /// Add the preference edge `(u, i)`.
    pub fn add_edge(&mut self, u: UserId, i: ItemId) -> Result<(), GraphError> {
        if u.index() >= self.num_users {
            return Err(GraphError::NodeOutOfRange {
                kind: "user",
                id: u.0,
                num_nodes: self.num_users,
            });
        }
        if i.index() >= self.num_items {
            return Err(GraphError::NodeOutOfRange {
                kind: "item",
                id: i.0,
                num_nodes: self.num_items,
            });
        }
        self.edges.push((u, i));
        Ok(())
    }

    /// Finalize into an immutable [`PreferenceGraph`].
    pub fn build(mut self) -> PreferenceGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let nu = self.num_users;
        let ni = self.num_items;

        let mut user_offsets = vec![0u32; nu + 1];
        let mut item_offsets = vec![0u32; ni + 1];
        for &(u, i) in &self.edges {
            user_offsets[u.index() + 1] += 1;
            item_offsets[i.index() + 1] += 1;
        }
        for k in 0..nu {
            user_offsets[k + 1] += user_offsets[k];
        }
        for k in 0..ni {
            item_offsets[k + 1] += item_offsets[k];
        }

        let m = self.edges.len();
        let mut user_items = vec![ItemId(0); m];
        let mut item_users = vec![UserId(0); m];
        let mut ucur = vec![0u32; nu];
        let mut icur = vec![0u32; ni];
        // Edges are sorted by (user, item): user rows fill in item order,
        // and since users ascend, item rows fill in user order — both
        // orientations come out sorted without a per-row sort.
        for &(u, i) in &self.edges {
            let iu = u.index();
            let ii = i.index();
            user_items[(user_offsets[iu] + ucur[iu]) as usize] = i;
            ucur[iu] += 1;
            item_users[(item_offsets[ii] + icur[ii]) as usize] = u;
            icur[ii] += 1;
        }

        PreferenceGraph { user_offsets, user_items, item_offsets, item_users }
    }
}

/// Build a preference graph from raw `(u, i)` pairs. Convenience for
/// tests and examples.
pub fn preference_graph_from_edges(
    num_users: usize,
    num_items: usize,
    edges: &[(u32, u32)],
) -> Result<PreferenceGraph, GraphError> {
    let mut b = PreferenceGraphBuilder::new(num_users, num_items);
    b.reserve(edges.len());
    for &(u, i) in edges {
        b.add_edge(UserId(u), ItemId(i))?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PreferenceGraph {
        // u0: i0, i1; u1: i1; u2: (none); 3 items, i2 unloved.
        preference_graph_from_edges(3, 3, &[(0, 0), (0, 1), (1, 1)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = sample();
        assert_eq!(g.num_users(), 3);
        assert_eq!(g.num_items(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.user_degree(UserId(0)), 2);
        assert_eq!(g.user_degree(UserId(2)), 0);
        assert_eq!(g.item_degree(ItemId(1)), 2);
        assert_eq!(g.item_degree(ItemId(2)), 0);
    }

    #[test]
    fn orientations_are_transposes() {
        let g = sample();
        for (u, i) in g.edges() {
            assert!(g.users_of(i).contains(&u));
        }
        let mut count = 0;
        for i in g.items() {
            for &u in g.users_of(i) {
                assert!(g.has_edge(u, i));
                count += 1;
            }
        }
        assert_eq!(count, g.num_edges());
    }

    #[test]
    fn weights_binary() {
        let g = sample();
        assert_eq!(g.weight(UserId(0), ItemId(0)), 1.0);
        assert_eq!(g.weight(UserId(2), ItemId(0)), 0.0);
    }

    #[test]
    fn rows_sorted() {
        let g =
            preference_graph_from_edges(2, 5, &[(0, 4), (0, 1), (0, 3), (1, 2), (1, 0)]).unwrap();
        assert_eq!(g.items_of(UserId(0)), &[ItemId(1), ItemId(3), ItemId(4)]);
        assert_eq!(g.items_of(UserId(1)), &[ItemId(0), ItemId(2)]);
        for i in g.items() {
            let us = g.users_of(i);
            for w in us.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn duplicates_collapse() {
        let g = preference_graph_from_edges(1, 1, &[(0, 0), (0, 0)]).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn sparsity_matches_definition() {
        let g = sample();
        assert!((g.sparsity() - (1.0 - 3.0 / 9.0)).abs() < 1e-12);
        let empty = preference_graph_from_edges(0, 0, &[]).unwrap();
        assert_eq!(empty.sparsity(), 1.0);
    }

    #[test]
    fn toggled_edge_removes_and_adds() {
        let g = sample();
        let without = g.toggled_edge(UserId(0), ItemId(0));
        assert_eq!(without.num_edges(), 2);
        assert!(!without.has_edge(UserId(0), ItemId(0)));
        let with = g.toggled_edge(UserId(2), ItemId(2));
        assert_eq!(with.num_edges(), 4);
        assert!(with.has_edge(UserId(2), ItemId(2)));
        // Toggling twice returns to the original.
        assert_eq!(g.toggled_edge(UserId(0), ItemId(0)).toggled_edge(UserId(0), ItemId(0)), g);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = PreferenceGraphBuilder::new(1, 1);
        assert!(b.add_edge(UserId(1), ItemId(0)).is_err());
        assert!(b.add_edge(UserId(0), ItemId(1)).is_err());
    }
}
