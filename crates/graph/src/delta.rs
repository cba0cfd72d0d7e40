//! Edge deltas: streaming updates to the social and preference graphs.
//!
//! The paper's §7 names dynamic graphs as its primary future-work item.
//! A [`GraphDelta`] is one batch of edge arrivals/departures — social
//! (public) and preference (private) — applied to the immutable CSR
//! graphs by **row patching**: only rows whose adjacency actually
//! changes are re-merged; every untouched row is copied wholesale. The
//! result is exactly the graph a from-scratch builder would produce
//! (CSR layout included), so everything downstream that is keyed on
//! graph equality (similarity rows, partitions, release fingerprints)
//! can treat delta application and full rebuilds interchangeably.
//!
//! Semantics, fixed and documented here once:
//!
//! * adding an edge that already exists is a no-op;
//! * removing an edge that does not exist is a no-op;
//! * the same edge both removed and added in one delta ends up
//!   **present** (removals apply first, then additions);
//! * the reports list only edges whose membership actually *flipped* —
//!   no-ops never appear, so dirty-row tracking sees real change only.

use crate::error::GraphError;
use crate::ids::{ItemId, UserId};
use crate::preference::PreferenceGraph;
use crate::social::SocialGraph;

/// One batch of edge updates against a social + preference snapshot.
///
/// Build with the `add_*`/`remove_*` methods (order within the batch is
/// irrelevant; see the module docs for the add/remove conflict rule),
/// then apply with [`apply_social`](GraphDelta::apply_social) and
/// [`apply_preferences`](GraphDelta::apply_preferences).
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    social_add: Vec<(UserId, UserId)>,
    social_remove: Vec<(UserId, UserId)>,
    pref_add: Vec<(UserId, ItemId)>,
    pref_remove: Vec<(UserId, ItemId)>,
}

/// What a social delta actually changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SocialDeltaReport {
    /// Edges whose membership flipped, canonical `(u, v)` with `u < v`,
    /// sorted ascending.
    pub changed: Vec<(UserId, UserId)>,
    /// Endpoints of the flipped edges, sorted ascending, deduplicated.
    pub touched: Vec<UserId>,
}

/// What a preference delta actually changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PreferenceDeltaReport {
    /// Edges whose membership flipped, sorted ascending by `(u, i)`.
    pub changed: Vec<(UserId, ItemId)>,
    /// Users with at least one flipped edge, sorted, deduplicated.
    pub touched_users: Vec<UserId>,
    /// Items with at least one flipped edge, sorted, deduplicated.
    pub touched_items: Vec<ItemId>,
}

/// Final membership a modification requests for one edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mod {
    Insert,
    Delete,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Queue a social edge arrival. Self loops are rejected.
    pub fn add_social(&mut self, u: UserId, v: UserId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { id: u.0 });
        }
        self.social_add.push(if u < v { (u, v) } else { (v, u) });
        Ok(())
    }

    /// Queue a social edge departure. Self loops are rejected.
    pub fn remove_social(&mut self, u: UserId, v: UserId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { id: u.0 });
        }
        self.social_remove.push(if u < v { (u, v) } else { (v, u) });
        Ok(())
    }

    /// Queue a preference edge arrival.
    pub fn add_preference(&mut self, u: UserId, i: ItemId) {
        self.pref_add.push((u, i));
    }

    /// Queue a preference edge departure.
    pub fn remove_preference(&mut self, u: UserId, i: ItemId) {
        self.pref_remove.push((u, i));
    }

    /// Number of queued social modifications (before dedup/no-op
    /// elimination).
    pub fn num_social(&self) -> usize {
        self.social_add.len() + self.social_remove.len()
    }

    /// Number of queued preference modifications.
    pub fn num_preferences(&self) -> usize {
        self.pref_add.len() + self.pref_remove.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.num_social() == 0 && self.num_preferences() == 0
    }

    /// The net modification per canonical social edge: additions win
    /// over removals of the same edge, duplicates collapse. Sorted by
    /// edge.
    fn net_social(&self) -> Vec<((UserId, UserId), Mod)> {
        // Sort Insert before Delete per edge; dedup keeps the first of
        // each run, so Insert wins (remove-then-add ends present).
        let mut mods: Vec<((UserId, UserId), Mod)> = self
            .social_remove
            .iter()
            .map(|&e| (e, Mod::Delete))
            .chain(self.social_add.iter().map(|&e| (e, Mod::Insert)))
            .collect();
        mods.sort_by_key(|&((a, b), m)| (a, b, m == Mod::Delete));
        mods.dedup_by_key(|&mut (e, _)| e);
        mods
    }

    /// The net modification per preference edge (same rules as social).
    fn net_preferences(&self) -> Vec<((UserId, ItemId), Mod)> {
        let mut v: Vec<((UserId, ItemId), Mod)> = self
            .pref_remove
            .iter()
            .map(|&e| (e, Mod::Delete))
            .chain(self.pref_add.iter().map(|&e| (e, Mod::Insert)))
            .collect();
        v.sort_by_key(|&((u, i), m)| (u, i, m == Mod::Delete));
        v.dedup_by_key(|&mut (e, _)| e);
        v.sort_by_key(|&(e, _)| e);
        v
    }

    /// Apply the social half of the delta to `g` by row patching.
    ///
    /// Returns the new graph and a report of the edges that actually
    /// flipped. The new graph is equal (including CSR layout) to
    /// rebuilding from the updated edge list with [`SocialGraphBuilder`]
    /// — pinned by tests.
    ///
    /// [`SocialGraphBuilder`]: crate::social::SocialGraphBuilder
    pub fn apply_social(
        &self,
        g: &SocialGraph,
    ) -> Result<(SocialGraph, SocialDeltaReport), GraphError> {
        let n = g.num_users();
        let mods = self.net_social();
        for &((a, b), _) in &mods {
            for e in [a, b] {
                if e.index() >= n {
                    return Err(GraphError::NodeOutOfRange { kind: "user", id: e.0, num_nodes: n });
                }
            }
        }

        // Keep only modifications that flip membership.
        let changed: Vec<((UserId, UserId), Mod)> = mods
            .into_iter()
            .filter(|&((a, b), m)| match m {
                Mod::Insert => !g.has_edge(a, b),
                Mod::Delete => g.has_edge(a, b),
            })
            .collect();

        let mut report = SocialDeltaReport {
            changed: changed.iter().map(|&(e, _)| e).collect(),
            touched: changed.iter().flat_map(|&((a, b), _)| [a, b]).collect(),
        };
        report.touched.sort_unstable();
        report.touched.dedup();

        if changed.is_empty() {
            return Ok((g.clone(), report));
        }

        // Directed modification list: each flipped edge patches both
        // endpoint rows.
        let mut dir: Vec<(usize, UserId, Mod)> = Vec::with_capacity(changed.len() * 2);
        for &((a, b), m) in &changed {
            dir.push((a.index(), b, m));
            dir.push((b.index(), a, m));
        }
        dir.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let (offsets, neighbors) = g.csr();
        let (offsets, neighbors) = patch_csr(offsets, neighbors, &dir);

        Ok((SocialGraph::from_csr(offsets, neighbors), report))
    }

    /// Apply the preference half of the delta to `g` by row patching
    /// (both CSR orientations).
    ///
    /// Returns the new graph and a report of the edges that actually
    /// flipped; equal to a from-scratch
    /// [`PreferenceGraphBuilder`](crate::preference::PreferenceGraphBuilder)
    /// rebuild — pinned by tests.
    pub fn apply_preferences(
        &self,
        g: &PreferenceGraph,
    ) -> Result<(PreferenceGraph, PreferenceDeltaReport), GraphError> {
        let nu = g.num_users();
        let ni = g.num_items();
        let mods = self.net_preferences();
        for &((u, i), _) in &mods {
            if u.index() >= nu {
                return Err(GraphError::NodeOutOfRange { kind: "user", id: u.0, num_nodes: nu });
            }
            if i.index() >= ni {
                return Err(GraphError::NodeOutOfRange { kind: "item", id: i.0, num_nodes: ni });
            }
        }

        let changed: Vec<((UserId, ItemId), Mod)> = mods
            .into_iter()
            .filter(|&((u, i), m)| match m {
                Mod::Insert => !g.has_edge(u, i),
                Mod::Delete => g.has_edge(u, i),
            })
            .collect();

        let mut report = PreferenceDeltaReport {
            changed: changed.iter().map(|&(e, _)| e).collect(),
            touched_users: changed.iter().map(|&((u, _), _)| u).collect(),
            touched_items: changed.iter().map(|&((_, i), _)| i).collect(),
        };
        report.touched_users.sort_unstable();
        report.touched_users.dedup();
        report.touched_items.sort_unstable();
        report.touched_items.dedup();

        if changed.is_empty() {
            return Ok((g.clone(), report));
        }

        // User orientation: `changed` is already sorted by (u, i).
        let by_user: Vec<(usize, ItemId, Mod)> =
            changed.iter().map(|&((u, i), m)| (u.index(), i, m)).collect();
        let (offsets, items) = g.user_csr();
        let (user_offsets, user_items) = patch_csr(offsets, items, &by_user);

        // Item orientation (transpose): re-sort the flips by (i, u).
        let mut by_item: Vec<(usize, UserId, Mod)> =
            changed.iter().map(|&((u, i), m)| (i.index(), u, m)).collect();
        by_item.sort_unstable_by_key(|&(i, u, _)| (i, u));
        let (offsets, users) = g.item_csr();
        let (item_offsets, item_users) = patch_csr(offsets, users, &by_item);

        let patched = PreferenceGraph::from_csr(user_offsets, user_items, item_offsets, item_users);
        Ok((patched, report))
    }
}

/// Patch one CSR orientation (`offsets`, `values`) with its
/// membership flips `(row, column, mod)`, sorted by `(row, column)`.
///
/// Each run of clean rows between two flipped rows is copied with one
/// `extend_from_slice` and its offsets shifted by one constant; only the
/// flipped rows are merged. Nothing is zero-filled first. The layout is
/// the one a from-scratch build of the patched edge set produces.
fn patch_csr<T: Copy + Ord>(
    offsets: &[u32],
    values: &[T],
    mods: &[(usize, T, Mod)],
) -> (Vec<u32>, Vec<T>) {
    let inserts = mods.iter().filter(|&&(_, _, m)| m == Mod::Insert).count();
    let mut new_offsets = Vec::with_capacity(offsets.len());
    let mut new_values = Vec::with_capacity(values.len() + inserts - (mods.len() - inserts));
    new_offsets.push(0u32);
    let n = offsets.len() - 1;
    let mut next = 0usize;
    for run in mods.chunk_by(|a, b| a.0 == b.0).map(Some).chain([None]) {
        let row = run.map_or(n, |r| r[0].0);
        // Clean rows `next..row`: one copy, every offset moved by the
        // same constant (wrapping, as deletes shift left).
        let shift = (new_values.len() as u32).wrapping_sub(offsets[next]);
        new_values.extend_from_slice(&values[offsets[next] as usize..offsets[row] as usize]);
        new_offsets.extend(offsets[next + 1..=row].iter().map(|&o| o.wrapping_add(shift)));
        if let Some(run) = run {
            let old = &values[offsets[row] as usize..offsets[row + 1] as usize];
            merge_row(old, run, &mut new_values);
            new_offsets.push(new_values.len() as u32);
            next = row + 1;
        }
    }
    (new_offsets, new_values)
}

/// Append one sorted CSR row merged with its sorted, membership-flipping
/// modifications to `out`.
///
/// Every `Insert` target is absent from `old` and every `Delete` target
/// present — the callers of [`patch_csr`] pass only real flips — so for
/// each flip this copies the old entries below it in one piece (found by
/// `partition_point`), then inserts the flip or skips the deleted entry.
fn merge_row<T: Copy + Ord>(old: &[T], mods: &[(usize, T, Mod)], out: &mut Vec<T>) {
    let mut oi = 0usize;
    for &(_, v, m) in mods {
        let below = oi + old[oi..].partition_point(|&x| x < v);
        out.extend_from_slice(&old[oi..below]);
        oi = below;
        match m {
            Mod::Insert => {
                debug_assert!(old.get(oi) != Some(&v), "insert target already present");
                out.push(v);
            }
            Mod::Delete => {
                debug_assert!(old.get(oi) == Some(&v), "delete target absent");
                oi += 1;
            }
        }
    }
    out.extend_from_slice(&old[oi..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::preference_graph_from_edges;
    use crate::social::{social_graph_from_edges, SocialGraphBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Flip the edges `flips` of `g` (present ones removed, absent ones
    /// added) in one delta, and check the patched graph against a
    /// builder rebuild of the flipped edge set.
    fn flip_social(g: &SocialGraph, flips: &[(u32, u32)]) -> SocialGraph {
        let flips: BTreeSet<(UserId, UserId)> =
            flips.iter().map(|&(a, b)| (UserId(a.min(b)), UserId(a.max(b)))).collect();
        let mut want: BTreeSet<(UserId, UserId)> = g.edges().collect();
        let mut d = GraphDelta::new();
        for &(u, v) in &flips {
            if want.remove(&(u, v)) {
                d.remove_social(u, v).unwrap();
            } else {
                want.insert((u, v));
                d.add_social(u, v).unwrap();
            }
        }
        let (patched, report) = d.apply_social(g).unwrap();
        let mut b = SocialGraphBuilder::new(g.num_users());
        for &(u, v) in &want {
            b.add_edge(u, v).unwrap();
        }
        assert_eq!(patched, b.build(), "patched CSR diverged from rebuild for {flips:?}");
        assert_eq!(report.changed, flips.into_iter().collect::<Vec<_>>());
        patched
    }

    /// Flip the edges `flips` of `g` in one delta, and check the patched
    /// graph (both orientations) against the flips toggled one at a
    /// time, each toggle a builder rebuild.
    fn flip_preferences(g: &PreferenceGraph, flips: &[(u32, u32)]) -> PreferenceGraph {
        let flips: BTreeSet<(UserId, ItemId)> =
            flips.iter().map(|&(u, i)| (UserId(u), ItemId(i))).collect();
        let mut want = g.clone();
        let mut d = GraphDelta::new();
        for &(u, i) in &flips {
            if g.has_edge(u, i) {
                d.remove_preference(u, i);
            } else {
                d.add_preference(u, i);
            }
            want = want.toggled_edge(u, i);
        }
        let (patched, report) = d.apply_preferences(g).unwrap();
        assert_eq!(patched, want, "patched graph != toggled reference for {flips:?}");
        assert_eq!(report.changed, flips.into_iter().collect::<Vec<_>>());
        patched
    }

    #[test]
    fn social_add_remove_patch_rows() {
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut d = GraphDelta::new();
        d.add_social(UserId(3), UserId(4)).unwrap();
        d.remove_social(UserId(2), UserId(1)).unwrap();
        let (g2, report) = d.apply_social(&g).unwrap();
        assert!(g2.has_edge(UserId(3), UserId(4)));
        assert!(!g2.has_edge(UserId(1), UserId(2)));
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(report.changed, vec![(UserId(1), UserId(2)), (UserId(3), UserId(4))]);
        assert_eq!(report.touched, vec![UserId(1), UserId(2), UserId(3), UserId(4)]);
        // Untouched row copied verbatim.
        assert_eq!(g2.neighbors(UserId(0)), g.neighbors(UserId(0)));
    }

    #[test]
    fn noops_are_dropped_from_the_report() {
        let g = social_graph_from_edges(4, &[(0, 1)]).unwrap();
        let mut d = GraphDelta::new();
        d.add_social(UserId(0), UserId(1)).unwrap(); // already present
        d.remove_social(UserId(2), UserId(3)).unwrap(); // already absent
        let (g2, report) = d.apply_social(&g).unwrap();
        assert_eq!(g2, g);
        assert!(report.changed.is_empty());
        assert!(report.touched.is_empty());
    }

    #[test]
    fn remove_then_add_ends_present() {
        let g = social_graph_from_edges(3, &[(0, 1)]).unwrap();
        let mut d = GraphDelta::new();
        d.remove_social(UserId(0), UserId(1)).unwrap();
        d.add_social(UserId(1), UserId(0)).unwrap(); // same edge, other orientation
        let (g2, report) = d.apply_social(&g).unwrap();
        assert!(g2.has_edge(UserId(0), UserId(1)), "insert wins the conflict");
        assert!(report.changed.is_empty(), "present -> present is no flip");

        // Same rule when the edge starts absent: it ends present.
        let empty = social_graph_from_edges(3, &[]).unwrap();
        let (g3, report) = d.apply_social(&empty).unwrap();
        assert!(g3.has_edge(UserId(0), UserId(1)));
        assert_eq!(report.changed, vec![(UserId(0), UserId(1))]);
    }

    #[test]
    fn social_rejects_self_loops_and_range() {
        let g = social_graph_from_edges(2, &[]).unwrap();
        let mut d = GraphDelta::new();
        assert!(d.add_social(UserId(1), UserId(1)).is_err());
        assert!(d.remove_social(UserId(0), UserId(0)).is_err());
        d.add_social(UserId(0), UserId(7)).unwrap();
        assert!(d.apply_social(&g).is_err(), "out-of-range endpoint");
    }

    #[test]
    fn preference_add_remove_both_orientations() {
        let g = preference_graph_from_edges(3, 3, &[(0, 0), (0, 1), (1, 1)]).unwrap();
        let mut d = GraphDelta::new();
        d.add_preference(UserId(2), ItemId(2));
        d.remove_preference(UserId(0), ItemId(1));
        let (g2, report) = d.apply_preferences(&g).unwrap();
        assert!(g2.has_edge(UserId(2), ItemId(2)));
        assert!(!g2.has_edge(UserId(0), ItemId(1)));
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(report.changed, vec![(UserId(0), ItemId(1)), (UserId(2), ItemId(2))]);
        assert_eq!(report.touched_users, vec![UserId(0), UserId(2)]);
        assert_eq!(report.touched_items, vec![ItemId(1), ItemId(2)]);
        // Transpose stays consistent.
        assert_eq!(g2.users_of(ItemId(1)), &[UserId(1)]);
        assert_eq!(g2.users_of(ItemId(2)), &[UserId(2)]);
    }

    #[test]
    fn patched_graphs_equal_full_rebuilds_random() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 40usize;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..n as u32 {
            for _ in 0..3 {
                let v = rng.gen_range(0..n as u32);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let mut g = social_graph_from_edges(n, &edges).unwrap();
        for round in 0..20 {
            let mut d = GraphDelta::new();
            for _ in 0..rng.gen_range(1..8) {
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
            let (patched, _) = d.apply_social(&g).unwrap();
            // Reference: full rebuild from the patched edge list.
            let mut b = SocialGraphBuilder::new(n);
            for (u, v) in patched.edges() {
                b.add_edge(u, v).unwrap();
            }
            let rebuilt = b.build();
            assert_eq!(patched, rebuilt, "round {round}: patched CSR diverged from rebuild");
            g = patched;
        }

        // Boundary rows, several patched per delta: the first and last
        // user, adjacent rows, and rows emptied by deletes.
        let last = n as u32 - 1;
        g = flip_social(&g, &[(0, last), (0, 1), (last - 1, last)]);
        g = flip_social(&g, &[(10, 11), (11, 12), (12, 30), (13, 31), (14, 32)]);
        let row = |g: &SocialGraph, u: u32| -> Vec<(u32, u32)> {
            g.neighbors(UserId(u)).iter().map(|v| (u, v.0)).collect()
        };
        g = flip_social(&g, &[row(&g, 7), vec![(20, 21)]].concat());
        assert_eq!(g.degree(UserId(7)), 0);
        g = flip_social(&g, &[row(&g, 0), row(&g, last)].concat());
        assert_eq!((g.degree(UserId(0)), g.degree(UserId(last))), (0, 0));
        flip_social(&g, &[(0, 1), (0, last), (7, 8), (last - 1, last)]);
    }

    #[test]
    fn patched_preferences_equal_toggles_random() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (nu, ni) = (12u32, 8u32);
        let mut g = preference_graph_from_edges(
            nu as usize,
            ni as usize,
            &[(0, 0), (3, 2), (3, 5), (7, 7), (9, 5)],
        )
        .unwrap();
        // Boundary rows, several patched per delta: user 0 and the last
        // user, item 0 and the last item, adjacent rows, and a user row
        // and an item row emptied by deletes.
        let (lu, li) = (nu - 1, ni - 1);
        g = flip_preferences(&g, &[(0, 0), (0, li), (lu, 0), (lu, li)]);
        g = flip_preferences(&g, &[(4, 2), (4, 3), (5, 2), (5, 3), (6, 3), (6, 4)]);
        g = flip_preferences(&g, &[(3, 2), (3, 5), (9, 5), (1, 1)]);
        assert_eq!((g.user_degree(UserId(3)), g.item_degree(ItemId(5))), (0, 0));
        g = flip_preferences(&g, &[(0, li), (7, li), (lu, li), (3, 5)]);
        assert_eq!((g.user_degree(UserId(0)), g.item_degree(ItemId(li))), (0, 0));
        // Random deltas of several flips each.
        for _ in 0..30 {
            let flips: Vec<(u32, u32)> = (0..rng.gen_range(2..8))
                .map(|_| (rng.gen_range(0..nu), rng.gen_range(0..ni)))
                .collect();
            g = flip_preferences(&g, &flips);
        }
    }

    #[test]
    fn empty_delta_is_identity() {
        let s = social_graph_from_edges(3, &[(0, 1)]).unwrap();
        let p = preference_graph_from_edges(3, 2, &[(1, 1)]).unwrap();
        let d = GraphDelta::new();
        assert!(d.is_empty());
        let (s2, sr) = d.apply_social(&s).unwrap();
        let (p2, pr) = d.apply_preferences(&p).unwrap();
        assert_eq!(s2, s);
        assert_eq!(p2, p);
        assert_eq!(sr, SocialDeltaReport::default());
        assert_eq!(pr, PreferenceDeltaReport::default());
    }
}
