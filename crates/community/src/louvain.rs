//! The Louvain method (Blondel et al. 2008) with multi-level refinement
//! (Rotta & Noack 2011), as used by the paper (§5.1.2, §6.2).
//!
//! Two alternating phases:
//!
//! 1. **Local moving** — visit nodes in random order; move each into the
//!    neighboring community with the highest modularity gain, until no
//!    move improves modularity.
//! 2. **Contraction** — collapse each community into a super node
//!    (internal weight becomes a self loop) and repeat on the coarser
//!    graph.
//!
//! With `refine = true`, after the hierarchy stabilises, the final
//! partition is projected back down the hierarchy level by level and the
//! local-moving phase is re-run at each level — this stabilises the
//! output across node orderings, which is why the paper adopts it.
//!
//! [`Louvain::run_best_of`] replicates the paper's protocol: R restarts
//! with different random node orders, keep the clustering with the
//! highest modularity.
//!
//! Level 0 of every run, and the refinement's level 0, run on the
//! `SocialGraph` itself with integer link counts and community totals;
//! contracted levels are `WeightedGraph`s. All local moving, shuffled or
//! worklist-driven, decides each node's move in one branch-free
//! kernel, `Mover::best_move`.

use crate::modularity::modularity;
use crate::partition::Partition;
use crate::weighted::{Level, Weight, WeightedGraph};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use socialrec_graph::{SocialGraph, UserId};
use socialrec_obs::span;
use std::collections::VecDeque;

/// Louvain configuration.
///
/// # Examples
///
/// ```
/// use socialrec_community::Louvain;
/// use socialrec_graph::social::social_graph_from_edges;
///
/// // Two triangles joined by a bridge: the canonical 2-community graph.
/// let g = social_graph_from_edges(
///     6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
/// ).unwrap();
/// let result = Louvain::default().run_best_of(&g, 3);
/// assert_eq!(result.partition.num_clusters(), 2);
/// assert!(result.modularity > 0.3);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Louvain {
    /// RNG seed controlling node visit order.
    pub seed: u64,
    /// Run the multi-level refinement pass (paper §5.1.2 uses it).
    pub refine: bool,
}

impl Default for Louvain {
    fn default() -> Self {
        Louvain { seed: 0, refine: true }
    }
}

/// Minimum modularity gain for a move to be accepted.
const MIN_GAIN: f64 = 1e-12;

/// Safety cap on hierarchy depth.
const MAX_LEVELS: usize = 32;

/// Outcome of a Louvain run.
#[derive(Clone, Debug)]
pub struct LouvainResult {
    /// The detected communities.
    pub partition: Partition,
    /// Modularity `Q` of the partition on the input graph.
    pub modularity: f64,
    /// Number of hierarchy levels built.
    pub levels: usize,
}

/// Relabel `comm` densely in first-appearance order; returns the number
/// of distinct labels.
fn compact_labels(comm: &mut [u32]) -> usize {
    let mut relabel = vec![u32::MAX; comm.len()];
    let mut next = 0u32;
    for c in comm.iter_mut() {
        let slot = &mut relabel[*c as usize];
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
        *c = *slot;
    }
    next as usize
}

/// Louvain's per-node move on one level: the community totals and the
/// scratch rows of [`best_move`](Self::best_move), the one definition
/// of the move every local-moving driver calls.
struct Mover<L, T> {
    two_m: f64,
    /// Total weighted degree per community.
    total: Vec<T>,
    /// Link weight from the node being moved to each community; all
    /// zero between calls.
    link_to: Vec<L>,
    /// The node's neighbour communities in first-appearance order. One
    /// slot longer than the node count, so a store past the last
    /// distinct community stays in bounds.
    seen: Vec<u32>,
}

impl<L: Weight, T: Weight> Mover<L, T> {
    fn new<G: Level<Link = L, Total = T>>(g: &G, comm: &[u32]) -> Self {
        let n = g.num_nodes();
        let mut total = vec![T::ZERO; n];
        for (u, &c) in comm.iter().enumerate() {
            total[c as usize] += g.degree_of(u);
        }
        Mover { two_m: g.two_m(), total, link_to: vec![L::ZERO; n], seen: vec![0; n + 1] }
    }

    /// The community a node joins: the node sits in `cu`, has weighted
    /// degree `ku` and the neighbours and arc weights of `arcs`.
    ///
    /// The gain of joining `c` (up to constants shared by every
    /// candidate) is `link_to[c] − total[c]·k_u / 2m`, with `u` taken out
    /// of `cu` first. Candidates are scanned in the order their
    /// communities first appear among the arcs, and one replaces the
    /// best only if its gain exceeds the best's by more than `MIN_GAIN`,
    /// so the earliest of equal candidates wins. `cu` itself never
    /// passes that test: the best starts at `cu`'s gain and only grows,
    /// so the scan needs no `c != cu` term. Neither loop branches on the
    /// data: every label is stored and the length grows on first sight,
    /// and the best is kept with selects. Updates the totals for the
    /// move and leaves `link_to` zeroed.
    #[inline(always)]
    fn best_move(
        &mut self,
        arcs: impl Iterator<Item = (u32, L)>,
        cu: usize,
        ku: T,
        comm: &[u32],
    ) -> usize {
        let Mover { two_m, total, link_to, seen } = self;
        let mut len = 0;
        for (v, w) in arcs {
            let c = comm[v as usize];
            seen[len] = c;
            len += (link_to[c as usize] == L::ZERO) as usize;
            link_to[c as usize] += w;
        }
        total[cu] -= ku;
        let k = ku.to_f64();
        let mut best_c = cu;
        let mut best = link_to[cu].to_f64() - total[cu].to_f64() * k / *two_m;
        for &c in &seen[..len] {
            let c = c as usize;
            let gain = link_to[c].to_f64() - total[c].to_f64() * k / *two_m;
            link_to[c] = L::ZERO;
            let better = gain > best + MIN_GAIN;
            best = if better { gain } else { best };
            best_c = if better { c } else { best_c };
        }
        total[best_c] += ku;
        best_c
    }
}

/// One local-moving phase starting from the assignment in `comm`
/// (which may be singletons or a projected coarse partition): shuffled
/// passes until one moves no node. Returns whether any node moved.
fn local_moving<G: Level>(g: &G, comm: &mut [u32], rng: &mut SmallRng) -> bool {
    let n = g.num_nodes();
    if n == 0 || g.two_m() == 0.0 {
        return false;
    }
    let mut mover = Mover::new(g, comm);
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut any_move = false;
    loop {
        let mut moved = false;
        order.shuffle(rng);
        for &u in &order {
            let u = u as usize;
            let cu = comm[u] as usize;
            let best = mover.best_move(g.arcs(u), cu, g.degree_of(u), comm);
            comm[u] = best as u32;
            moved |= best != cu;
        }
        if !moved {
            return any_move;
        }
        any_move = true;
    }
}

/// Local moving on one hierarchy level from singletons; pushes the
/// level's dense labels onto `merges` and returns the contracted next
/// level, or `None` if this level is the last.
fn build_level<G: Level>(
    g: &G,
    merges: &mut Vec<Vec<u32>>,
    rng: &mut SmallRng,
) -> Option<WeightedGraph> {
    let _span = span!("louvain.level", level = merges.len());
    let mut comm: Vec<u32> = (0..g.num_nodes() as u32).collect();
    let moved = local_moving(g, &mut comm, rng);
    let ncomm = compact_labels(&mut comm);
    let done = !moved || ncomm == g.num_nodes() || merges.len() + 1 >= MAX_LEVELS;
    let next = (!done).then(|| WeightedGraph::contract(g, &comm, ncomm));
    merges.push(comm);
    next
}

impl Louvain {
    /// Run Louvain once on the social graph.
    pub fn run(&self, g: &SocialGraph) -> LouvainResult {
        let (partition, levels) = self.cluster(g);
        let q = modularity(g, &partition);
        LouvainResult { partition, modularity: q, levels }
    }

    /// Run Louvain on an arbitrary *weighted* undirected graph given as
    /// `(a, b, weight)` edges with positive weights — e.g. a similarity
    /// graph, for the paper's §7 future-work idea of optimizing the
    /// clustering for the similarity measure in use.
    ///
    /// Duplicate edges accumulate; self loops are ignored.
    pub fn run_weighted_edges(&self, num_nodes: usize, edges: &[(u32, u32, f64)]) -> LouvainResult {
        let wg = WeightedGraph::from_weighted_edges(num_nodes, edges);
        let (partition, levels) = self.cluster(&wg);
        let q = wg.modularity(partition.assignment(), partition.num_clusters());
        LouvainResult { partition, modularity: q, levels }
    }

    /// The partition and hierarchy depth of one run on `base`.
    fn cluster<G: Level>(&self, base: &G) -> (Partition, usize) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        if base.num_nodes() == 0 {
            return (Partition::from_assignment(&[]), 0);
        }

        // Build the hierarchy. Level l's graph is `base` for l = 0 and
        // `contracted[l - 1]` above; merges[l] maps level-l nodes to
        // level-(l+1) nodes.
        let mut contracted: Vec<WeightedGraph> = Vec::new();
        let mut merges: Vec<Vec<u32>> = Vec::new();
        let mut next = build_level(base, &mut merges, &mut rng);
        while let Some(wg) = next {
            next = build_level(&wg, &mut merges, &mut rng);
            contracted.push(wg);
        }

        let assign = if self.refine {
            // Project the final labels back down and re-run local moving
            // at every level (Rotta & Noack multi-level refinement).
            let lcount = merges.len();
            let mut proj: Vec<u32> = merges[lcount - 1].clone();
            for l in (0..lcount).rev() {
                let _span = span!("louvain.refine", level = l);
                if l < lcount - 1 {
                    proj = merges[l].iter().map(|&c| proj[c as usize]).collect();
                }
                compact_labels(&mut proj);
                if l == 0 {
                    local_moving(base, &mut proj, &mut rng);
                } else {
                    local_moving(&contracted[l - 1], &mut proj, &mut rng);
                }
                compact_labels(&mut proj);
            }
            proj
        } else {
            // Compose merges into an assignment for the original users.
            let mut assign = merges[0].clone();
            for level in &merges[1..] {
                for a in assign.iter_mut() {
                    *a = level[*a as usize];
                }
            }
            assign
        };
        (Partition::from_assignment(&assign), merges.len())
    }

    /// Run `restarts` times with different node orders (seeds
    /// `seed..seed+restarts`) and keep the highest-modularity result —
    /// the paper's protocol with `restarts = 10`.
    ///
    /// Restarts run **in parallel**: each owns an independent seed, so
    /// per-restart results are unaffected by scheduling, and the winner
    /// is chosen by a sequential scan over the restart-ordered results —
    /// bit-identical to [`run_best_of_sequential`](Self::run_best_of_sequential),
    /// including the first-best tie-break.
    pub fn run_best_of(&self, g: &SocialGraph, restarts: usize) -> LouvainResult {
        assert!(restarts >= 1, "need at least one restart");
        let results: Vec<LouvainResult> = (0..restarts)
            .into_par_iter()
            .map(|r| {
                let _span = span!("louvain.restart", restart = r);
                Louvain { seed: self.seed.wrapping_add(r as u64), ..*self }.run(g)
            })
            .collect();
        pick_first_best(results)
    }

    /// The sequential reference for [`run_best_of`](Self::run_best_of):
    /// one restart after another on the calling thread. Kept as the
    /// reference the equivalence tests compare against (here, and the
    /// serve crate's thread matrix at 1, 2 and 8 threads).
    pub fn run_best_of_sequential(&self, g: &SocialGraph, restarts: usize) -> LouvainResult {
        assert!(restarts >= 1, "need at least one restart");
        let results: Vec<LouvainResult> = (0..restarts)
            .map(|r| {
                let _span = span!("louvain.restart", restart = r);
                Louvain { seed: self.seed.wrapping_add(r as u64), ..*self }.run(g)
            })
            .collect();
        pick_first_best(results)
    }
}

/// Worklist-driven local moving restricted to the region a graph delta
/// can influence: the queue starts with `seeds` (the delta's touched
/// endpoints) plus their neighbors, and whenever a node moves, its
/// neighborhood is re-enqueued. It decides each move with the kernel
/// the shuffled passes use, on the social graph itself, but is fully
/// deterministic — no RNG, FIFO order seeded by the ascending `seeds`
/// slice.
///
/// Terminates because every accepted move raises modularity by more
/// than `MIN_GAIN` and `Q ≤ 1`. Returns whether any node moved.
fn local_moving_worklist(g: &SocialGraph, comm: &mut [u32], seeds: &[UserId]) -> bool {
    let n = g.num_users();
    if n == 0 || g.num_edges() == 0 || seeds.is_empty() {
        return false;
    }
    let mut mover = Mover::new(g, comm);

    let mut queue: VecDeque<UserId> = VecDeque::new();
    let mut in_queue = vec![false; n];
    for &s in seeds {
        assert!(s.index() < n, "seed {s:?} out of range for {n} nodes");
        for v in std::iter::once(s).chain(g.neighbors(s).iter().copied()) {
            if !in_queue[v.index()] {
                in_queue[v.index()] = true;
                queue.push_back(v);
            }
        }
    }

    let mut any_move = false;
    while let Some(u) = queue.pop_front() {
        in_queue[u.index()] = false;
        let cu = comm[u.index()] as usize;
        let best = mover.best_move(g.arcs(u.index()), cu, g.degree_of(u.index()), comm);
        if best != cu {
            comm[u.index()] = best as u32;
            any_move = true;
            // The move changes the best community of the neighborhood:
            // re-examine it.
            for &v in g.neighbors(u) {
                if !in_queue[v.index()] {
                    in_queue[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    any_move
}

/// Drop empty labels from `comm` while keeping every surviving label
/// unchanged: each empty label is filled by relabelling the current
/// *highest* label into the hole, so at most `#empty` labels change and
/// all others keep their ids (unlike [`compact_labels`], which
/// renumbers everything by first appearance). Returns the new label
/// count.
fn repair_labels(comm: &mut [u32], num_labels: usize) -> usize {
    let mut counts = vec![0u32; num_labels];
    for &c in comm.iter() {
        counts[c as usize] += 1;
    }
    let mut remap: Vec<u32> = (0..num_labels as u32).collect();
    let mut k = num_labels;
    let mut e = 0usize;
    while e < k {
        if counts[e] == 0 {
            // Pull the top label down into the hole. If the top label is
            // itself empty, the next iteration sees counts[e] == 0 again
            // and pulls the following one.
            k -= 1;
            remap[k] = e as u32;
            counts[e] = counts[k];
        } else {
            e += 1;
        }
    }
    if k < num_labels {
        for c in comm.iter_mut() {
            if (*c as usize) >= k {
                *c = remap[*c as usize];
            }
        }
    }
    k
}

/// Outcome of one [`IncrementalLouvain::refresh`].
#[derive(Clone, Debug)]
pub struct RefreshOutcome {
    /// Users whose cluster id changed relative to the previous
    /// partition (ascending). Includes label repairs after a cluster
    /// empties; on a restart this is every user whose label differs.
    pub moved_users: Vec<UserId>,
    /// Whether modularity drift forced a full [`Louvain::run_best_of`]
    /// restart instead of an incremental repair.
    pub restarted: bool,
    /// Modularity of the refreshed partition on the new graph.
    pub modularity: f64,
}

/// Streaming Louvain: maintains a partition across graph deltas without
/// re-clustering from scratch on every batch.
///
/// [`refresh`](Self::refresh) repairs the previous partition with
/// worklist local moves restricted to the delta's touched vertices and
/// their neighborhoods (deterministic, no RNG), keeping cluster labels
/// stable for unmoved users. Incremental repair is greedy and can drift
/// below what a fresh multi-restart run would find; when the refreshed
/// modularity falls more than `drift_threshold` below the last full
/// run's (`reference_modularity`), a full [`Louvain::run_best_of`]
/// restart is triggered and becomes the new reference. The full path
/// therefore stays the correctness baseline, and every refresh
/// satisfies: `modularity >= reference_modularity - drift_threshold`
/// **or** `restarted` is true.
///
/// # Examples
///
/// ```
/// use socialrec_community::{IncrementalLouvain, Louvain};
/// use socialrec_graph::social::social_graph_from_edges;
/// use socialrec_graph::{GraphDelta, UserId};
///
/// let g = social_graph_from_edges(
///     6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
/// ).unwrap();
/// let mut inc = IncrementalLouvain::new(Louvain::default(), 3, 0.05, &g);
/// assert_eq!(inc.partition().num_clusters(), 2);
///
/// let mut delta = GraphDelta::new();
/// delta.add_social(UserId(0), UserId(4)).unwrap();
/// let (g2, report) = delta.apply_social(&g).unwrap();
/// let outcome = inc.refresh(&g2, &report.touched);
/// assert!(outcome.restarted || outcome.modularity >= inc.reference_modularity() - 0.05);
/// ```
pub struct IncrementalLouvain {
    base: Louvain,
    restarts: usize,
    drift_threshold: f64,
    partition: Partition,
    modularity: f64,
    reference_modularity: f64,
}

impl IncrementalLouvain {
    /// Seed the incremental state with a full `run_best_of(g, restarts)`
    /// run; `drift_threshold` is the maximum modularity the incremental
    /// path may lose relative to the last full run before a restart is
    /// forced (0 restarts on every drop).
    pub fn new(base: Louvain, restarts: usize, drift_threshold: f64, g: &SocialGraph) -> Self {
        assert!(drift_threshold >= 0.0, "drift threshold must be non-negative");
        let res = base.run_best_of(g, restarts);
        IncrementalLouvain {
            base,
            restarts,
            drift_threshold,
            partition: res.partition,
            modularity: res.modularity,
            reference_modularity: res.modularity,
        }
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Modularity of the current partition on the graph it was last
    /// refreshed against.
    pub fn modularity(&self) -> f64 {
        self.modularity
    }

    /// Modularity achieved by the last full (non-incremental) run — the
    /// drift baseline.
    pub fn reference_modularity(&self) -> f64 {
        self.reference_modularity
    }

    /// The configured drift threshold.
    pub fn drift_threshold(&self) -> f64 {
        self.drift_threshold
    }

    /// Repair the partition after a graph delta. `touched` is the
    /// delta's touched-vertex set (ascending; e.g.
    /// `SocialDeltaReport::touched`); the graph must keep the same user
    /// set.
    ///
    /// The repair and its modularity run on `g` itself, with no weighted
    /// copy: O(touched neighborhoods) for the moves plus one O(|E_s|)
    /// pass of [`modularity`], whose `Q` has the weighted formulation's
    /// bits.
    pub fn refresh(&mut self, g: &SocialGraph, touched: &[UserId]) -> RefreshOutcome {
        let _span = span!("update.louvain", touched = touched.len());
        let n = g.num_users();
        assert_eq!(n, self.partition.num_users(), "deltas must preserve the user set");
        if n == 0 {
            return RefreshOutcome { moved_users: Vec::new(), restarted: false, modularity: 0.0 };
        }

        let mut comm: Vec<u32> = self.partition.assignment().to_vec();
        local_moving_worklist(g, &mut comm, touched);
        let k = repair_labels(&mut comm, self.partition.num_clusters());
        let p = Partition::from_dense_assignment(comm, k);
        let q = modularity(g, &p);

        if self.reference_modularity - q > self.drift_threshold {
            let res = self.base.run_best_of(g, self.restarts);
            let moved = diff_assignments(self.partition.assignment(), res.partition.assignment());
            socialrec_obs::journal::emit(
                socialrec_obs::journal::EventKind::DriftValveRestart,
                touched.len() as u64,
                moved.len() as u64,
            );
            self.modularity = res.modularity;
            self.reference_modularity = res.modularity;
            self.partition = res.partition;
            return RefreshOutcome {
                moved_users: moved,
                restarted: true,
                modularity: self.modularity,
            };
        }

        let moved = diff_assignments(self.partition.assignment(), p.assignment());
        self.partition = p;
        self.modularity = q;
        RefreshOutcome { moved_users: moved, restarted: false, modularity: q }
    }
}

/// Users whose label differs between two equal-length assignments.
fn diff_assignments(before: &[u32], after: &[u32]) -> Vec<UserId> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .filter(|(_, (b, a))| b != a)
        .map(|(u, _)| UserId(u as u32))
        .collect()
}

/// Keep the highest-modularity result, earliest restart winning ties
/// (`>=` keeps the incumbent) — the exact comparison the historical
/// sequential loop performed.
fn pick_first_best(results: Vec<LouvainResult>) -> LouvainResult {
    let mut best: Option<LouvainResult> = None;
    for res in results {
        match &best {
            Some(b) if b.modularity >= res.modularity => {}
            _ => best = Some(res),
        }
    }
    best.expect("at least one restart ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::unit_edges;
    use rand::{Rng, RngCore};
    use socialrec_graph::generate::{planted_communities, CommunityGraphConfig};
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_graph::UserId;

    fn two_triangles_bridge() -> SocialGraph {
        social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap()
    }

    /// Shuffled local moving in the weighted formulation, with a branch
    /// per candidate: the reference `level_passes_match_weighted_reference`
    /// holds the shared kernel's passes to.
    fn local_moving_on_weighted(wg: &WeightedGraph, comm: &mut [u32], rng: &mut SmallRng) -> bool {
        let n = wg.num_nodes();
        if n == 0 || wg.two_m == 0.0 {
            return false;
        }
        let m2 = wg.two_m;
        let mut comm_total = vec![0.0f64; n];
        for u in 0..n {
            comm_total[comm[u] as usize] += wg.degree[u];
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut any_move = false;
        let mut link_to = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        loop {
            let mut moved_this_pass = false;
            order.shuffle(rng);
            for &u32u in &order {
                let u = u32u as usize;
                let cu = comm[u] as usize;
                let ku = wg.degree[u];
                let (ns, ws) = wg.neighbors_of(u);
                for (&v, &w) in ns.iter().zip(ws) {
                    let cv = comm[v as usize] as usize;
                    if link_to[cv] == 0.0 {
                        touched.push(cv as u32);
                    }
                    link_to[cv] += w;
                }
                comm_total[cu] -= ku;
                let mut best_c = cu;
                let mut best_gain = link_to[cu] - comm_total[cu] * ku / m2;
                for &tc in &touched {
                    let c = tc as usize;
                    if c == cu {
                        continue;
                    }
                    let gain = link_to[c] - comm_total[c] * ku / m2;
                    if gain > best_gain + MIN_GAIN {
                        best_gain = gain;
                        best_c = c;
                    }
                }
                comm_total[best_c] += ku;
                if best_c != cu {
                    comm[u] = best_c as u32;
                    moved_this_pass = true;
                    any_move = true;
                }
                for &tc in &touched {
                    link_to[tc as usize] = 0.0;
                }
                touched.clear();
            }
            if !moved_this_pass {
                break;
            }
        }
        any_move
    }

    /// The worklist in the weighted formulation, on the level-0
    /// `WeightedGraph`: the reference the property below holds
    /// `local_moving_worklist` to, move for move.
    fn worklist_on_weighted(wg: &WeightedGraph, comm: &mut [u32], seeds: &[UserId]) -> bool {
        let n = wg.num_nodes();
        if n == 0 || wg.two_m == 0.0 || seeds.is_empty() {
            return false;
        }
        let m2 = wg.two_m;
        let mut comm_total = vec![0.0f64; n];
        for u in 0..n {
            comm_total[comm[u] as usize] += wg.degree[u];
        }
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut in_queue = vec![false; n];
        for &s in seeds {
            let u = s.index();
            if !in_queue[u] {
                in_queue[u] = true;
                queue.push_back(u as u32);
            }
            for &v in wg.neighbors_of(u).0 {
                if !in_queue[v as usize] {
                    in_queue[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        let mut link_to = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut any_move = false;
        while let Some(u32u) = queue.pop_front() {
            let u = u32u as usize;
            in_queue[u] = false;
            let cu = comm[u] as usize;
            let ku = wg.degree[u];
            let (ns, ws) = wg.neighbors_of(u);
            for (&v, &w) in ns.iter().zip(ws) {
                let cv = comm[v as usize] as usize;
                if link_to[cv] == 0.0 {
                    touched.push(cv as u32);
                }
                link_to[cv] += w;
            }
            comm_total[cu] -= ku;
            let mut best_c = cu;
            let mut best_gain = link_to[cu] - comm_total[cu] * ku / m2;
            for &tc in &touched {
                let c = tc as usize;
                if c == cu {
                    continue;
                }
                let gain = link_to[c] - comm_total[c] * ku / m2;
                if gain > best_gain + MIN_GAIN {
                    best_gain = gain;
                    best_c = c;
                }
            }
            comm_total[best_c] += ku;
            if best_c != cu {
                comm[u] = best_c as u32;
                any_move = true;
                for &v in ns {
                    if !in_queue[v as usize] {
                        in_queue[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
            for &tc in &touched {
                link_to[tc as usize] = 0.0;
            }
            touched.clear();
        }
        any_move
    }

    /// `refresh` in the weighted formulation: a fresh `WeightedGraph`
    /// of `g`, its worklist and its modularity.
    fn refresh_on_weighted(
        inc: &mut IncrementalLouvain,
        g: &SocialGraph,
        touched: &[UserId],
    ) -> RefreshOutcome {
        let wg = WeightedGraph::from_weighted_edges(g.num_users(), &unit_edges(g));
        let mut comm: Vec<u32> = inc.partition.assignment().to_vec();
        worklist_on_weighted(&wg, &mut comm, touched);
        let k = repair_labels(&mut comm, inc.partition.num_clusters());
        let q = wg.modularity(&comm, k);
        if inc.reference_modularity - q > inc.drift_threshold {
            let res = inc.base.run_best_of(g, inc.restarts);
            let moved = diff_assignments(inc.partition.assignment(), res.partition.assignment());
            inc.modularity = res.modularity;
            inc.reference_modularity = res.modularity;
            inc.partition = res.partition;
            return RefreshOutcome {
                moved_users: moved,
                restarted: true,
                modularity: inc.modularity,
            };
        }
        let moved = diff_assignments(inc.partition.assignment(), &comm);
        inc.partition = Partition::from_dense_assignment(comm, k);
        inc.modularity = q;
        RefreshOutcome { moved_users: moved, restarted: false, modularity: q }
    }

    #[test]
    fn finds_the_obvious_split() {
        let g = two_triangles_bridge();
        let res = Louvain::default().run(&g);
        assert_eq!(res.partition.num_clusters(), 2);
        let p = &res.partition;
        assert_eq!(p.cluster_of(UserId(0)), p.cluster_of(UserId(1)));
        assert_eq!(p.cluster_of(UserId(0)), p.cluster_of(UserId(2)));
        assert_eq!(p.cluster_of(UserId(3)), p.cluster_of(UserId(4)));
        assert_ne!(p.cluster_of(UserId(0)), p.cluster_of(UserId(3)));
        let expected = 2.0 * (3.0 / 7.0 - 0.25);
        assert!((res.modularity - expected).abs() < 1e-12);
    }

    #[test]
    fn separate_components_get_separate_clusters() {
        // Two disjoint triangles.
        let g =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let res = Louvain::default().run(&g);
        assert_eq!(res.partition.num_clusters(), 2);
    }

    #[test]
    fn recovers_planted_communities() {
        let cfg = CommunityGraphConfig {
            num_users: 600,
            num_communities: 6,
            community_size_skew: 0.0,
            mean_degree: 16.0,
            degree_std: 4.0,
            mixing: 0.05,
            seed: 3,
            ..Default::default()
        };
        let pg = planted_communities(&cfg);
        let res = Louvain::default().run_best_of(&pg.graph, 5);
        assert!(res.modularity > 0.6, "modularity {} too low", res.modularity);
        // Cluster count near the planted count (Louvain may merge or
        // split a couple).
        let k = res.partition.num_clusters();
        assert!((3..=12).contains(&k), "found {k} clusters for 6 planted");
        // Agreement: most planted pairs that share a community share a
        // cluster. Use a sampled pair check.
        let mut agree = 0usize;
        let mut total = 0usize;
        for u in 0..600usize {
            for v in (u + 1..600).step_by(37) {
                let same_planted = pg.community[u] == pg.community[v];
                let same_found = res.partition.cluster_of(UserId(u as u32))
                    == res.partition.cluster_of(UserId(v as u32));
                if same_planted == same_found {
                    agree += 1;
                }
                total += 1;
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.9, "pair agreement {rate} too low");
    }

    #[test]
    fn best_of_restarts_never_worse_than_single() {
        let cfg = CommunityGraphConfig { num_users: 300, seed: 5, ..Default::default() };
        let g = planted_communities(&cfg).graph;
        let single = Louvain::default().run(&g);
        let best = Louvain::default().run_best_of(&g, 6);
        assert!(best.modularity >= single.modularity - 1e-12);
    }

    #[test]
    fn refinement_does_not_hurt_modularity() {
        let cfg = CommunityGraphConfig { num_users: 400, seed: 11, ..Default::default() };
        let g = planted_communities(&cfg).graph;
        for seed in 0..4 {
            let plain = Louvain { refine: false, seed }.run(&g);
            let refined = Louvain { refine: true, seed }.run(&g);
            assert!(
                refined.modularity >= plain.modularity - 1e-9,
                "refinement regressed: {} -> {}",
                plain.modularity,
                refined.modularity
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CommunityGraphConfig { num_users: 200, seed: 8, ..Default::default() };
        let g = planted_communities(&cfg).graph;
        let a = Louvain { seed: 42, ..Default::default() }.run(&g);
        let b = Louvain { seed: 42, ..Default::default() }.run(&g);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn parallel_best_of_is_bit_identical_to_sequential() {
        // The tentpole contract: parallel restarts return the exact
        // LouvainResult of the sequential loop — partition, modularity
        // bits, and level count — for several seeds and restart counts,
        // including the first-best tie-break.
        for (users, seed) in [(150usize, 3u64), (300, 9), (420, 17)] {
            let cfg = CommunityGraphConfig { num_users: users, seed, ..Default::default() };
            let g = planted_communities(&cfg).graph;
            for restarts in [1usize, 2, 5, 10] {
                for base_seed in [0u64, 7, 1234] {
                    let lv = Louvain { seed: base_seed, ..Default::default() };
                    let par = lv.run_best_of(&g, restarts);
                    let seq = lv.run_best_of_sequential(&g, restarts);
                    assert_eq!(par.partition, seq.partition, "partition diverged");
                    assert_eq!(
                        par.modularity.to_bits(),
                        seq.modularity.to_bits(),
                        "modularity bits diverged: {} vs {}",
                        par.modularity,
                        seq.modularity
                    );
                    assert_eq!(par.levels, seq.levels, "level count diverged");
                }
            }
        }
    }

    #[test]
    fn tie_break_keeps_first_best_restart() {
        // Disjoint triangles: every restart finds the same (optimal)
        // partition with identical modularity, so ties are guaranteed.
        // The winner must be restart 0's result in both paths.
        let g =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let lv = Louvain::default();
        let first = Louvain { seed: lv.seed, ..lv }.run(&g);
        let par = lv.run_best_of(&g, 8);
        let seq = lv.run_best_of_sequential(&g, 8);
        assert_eq!(par.partition, first.partition);
        assert_eq!(seq.partition, first.partition);
        assert_eq!(par.modularity.to_bits(), first.modularity.to_bits());
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = social_graph_from_edges(0, &[]).unwrap();
        let res = Louvain::default().run(&empty);
        assert_eq!(res.partition.num_users(), 0);
        let edgeless = social_graph_from_edges(5, &[]).unwrap();
        let res = Louvain::default().run(&edgeless);
        assert_eq!(res.partition.num_users(), 5);
        assert_eq!(res.partition.num_clusters(), 5, "isolated nodes stay singleton");
        assert_eq!(res.modularity, 0.0);
    }

    #[test]
    fn reported_modularity_matches_partition() {
        let cfg = CommunityGraphConfig { num_users: 250, seed: 21, ..Default::default() };
        let g = planted_communities(&cfg).graph;
        let res = Louvain::default().run(&g);
        assert!((res.modularity - modularity(&g, &res.partition)).abs() < 1e-12);
    }

    #[test]
    fn repair_labels_keeps_survivors_stable() {
        // Labels 1 and 3 are empty out of 0..5: 4 fills 1, then 3 is
        // dropped (it is the new top and empty), leaving k = 3 with
        // labels 0 and 2 untouched.
        let mut comm = vec![0, 2, 4, 0, 2];
        let k = repair_labels(&mut comm, 5);
        assert_eq!(k, 3);
        assert_eq!(comm, vec![0, 2, 1, 0, 2]);
        // No empty labels: identity.
        let mut comm = vec![1, 0, 2];
        assert_eq!(repair_labels(&mut comm, 3), 3);
        assert_eq!(comm, vec![1, 0, 2]);
    }

    #[test]
    fn worklist_moves_match_quality_of_full_pass() {
        // Starting from singletons with every node seeded, the worklist
        // pass must fully greedily cluster the two triangles.
        let g = two_triangles_bridge();
        let mut comm: Vec<u32> = (0..6).collect();
        let seeds: Vec<UserId> = (0..6).map(UserId).collect();
        assert!(local_moving_worklist(&g, &mut comm, &seeds));
        let k = repair_labels(&mut comm, 6);
        let q = modularity(&g, &Partition::from_dense_assignment(comm, k));
        let expected = 2.0 * (3.0 / 7.0 - 0.25);
        assert!(q >= expected - 1e-12, "worklist Q {q} below optimum {expected}");
    }

    #[test]
    fn refresh_keeps_labels_stable_for_unmoved_users() {
        let g = two_triangles_bridge();
        let mut inc = IncrementalLouvain::new(Louvain::default(), 3, 0.5, &g);
        let before = inc.partition().assignment().to_vec();
        // A small intra-community delta: strengthen triangle membership.
        let mut delta = socialrec_graph::GraphDelta::new();
        delta.remove_social(UserId(2), UserId(3)).unwrap();
        let (g2, report) = delta.apply_social(&g).unwrap();
        let outcome = inc.refresh(&g2, &report.touched);
        assert!(!outcome.restarted, "loose threshold must not restart");
        let after = inc.partition().assignment();
        for u in 0..6usize {
            if !outcome.moved_users.contains(&UserId(u as u32)) {
                assert_eq!(before[u], after[u], "unmoved user {u} relabelled");
            }
        }
        assert!((inc.modularity() - modularity(&g2, inc.partition())).abs() < 1e-12);
    }

    #[test]
    fn drift_zero_restarts_on_any_drop() {
        let cfg = CommunityGraphConfig {
            num_users: 200,
            num_communities: 4,
            mixing: 0.05,
            seed: 29,
            ..Default::default()
        };
        let g = planted_communities(&cfg).graph;
        let mut inc = IncrementalLouvain::new(Louvain::default(), 4, 0.0, &g);
        // Rewire aggressively: delete a batch of intra-community edges
        // and add cross-community ones.
        let mut rng = SmallRng::seed_from_u64(77);
        let mut delta = socialrec_graph::GraphDelta::new();
        for _ in 0..150 {
            let a = rand::Rng::gen_range(&mut rng, 0..200u32);
            let b = rand::Rng::gen_range(&mut rng, 0..200u32);
            if a != b {
                delta.add_social(UserId(a), UserId(b)).unwrap();
            }
        }
        let (g2, report) = delta.apply_social(&g).unwrap();
        let outcome = inc.refresh(&g2, &report.touched);
        // With threshold 0 either the incremental repair exactly holds
        // the reference (unlikely after 150 random edges) or we restart;
        // in both cases the floor invariant holds with slack 0.
        assert!(
            outcome.restarted || outcome.modularity >= inc.reference_modularity(),
            "floor violated: q={} ref={}",
            outcome.modularity,
            inc.reference_modularity()
        );
        if outcome.restarted {
            let fresh = Louvain::default().run_best_of(&g2, 4);
            assert_eq!(inc.partition(), &fresh.partition, "restart must equal a fresh full run");
            assert_eq!(inc.modularity().to_bits(), fresh.modularity.to_bits());
        }
    }

    /// Satellite property: across random delta sequences, every refresh
    /// either restarts or lands within the drift threshold of the
    /// reference modularity — the incremental path never silently
    /// degrades the clustering.
    #[test]
    fn modularity_never_below_drift_floor_across_random_deltas() {
        let cfg = CommunityGraphConfig {
            num_users: 160,
            num_communities: 4,
            mixing: 0.08,
            seed: 41,
            ..Default::default()
        };
        let mut g = planted_communities(&cfg).graph;
        let threshold = 0.02;
        let mut inc = IncrementalLouvain::new(Louvain::default(), 3, threshold, &g);
        let mut rng = SmallRng::seed_from_u64(4242);
        let mut restarts = 0usize;
        for round in 0..25 {
            let mut delta = socialrec_graph::GraphDelta::new();
            for _ in 0..6 {
                let a = rand::Rng::gen_range(&mut rng, 0..160u32);
                let b = rand::Rng::gen_range(&mut rng, 0..160u32);
                if a == b {
                    continue;
                }
                if g.has_edge(UserId(a), UserId(b)) {
                    delta.remove_social(UserId(a), UserId(b)).unwrap();
                } else {
                    delta.add_social(UserId(a), UserId(b)).unwrap();
                }
            }
            let (g2, report) = delta.apply_social(&g).unwrap();
            let before = inc.partition().assignment().to_vec();
            let outcome = inc.refresh(&g2, &report.touched);
            restarts += outcome.restarted as usize;
            // The floor invariant (reference is post-refresh: on a
            // restart it equals the fresh run's modularity).
            assert!(
                outcome.restarted
                    || outcome.modularity >= inc.reference_modularity() - threshold - 1e-12,
                "round {round}: q={} ref={}",
                outcome.modularity,
                inc.reference_modularity()
            );
            // Reported modularity is the real modularity of the state.
            assert!(
                (inc.modularity() - modularity(&g2, inc.partition())).abs() < 1e-12,
                "round {round}: stale modularity"
            );
            // moved_users is exactly the label diff.
            let after = inc.partition().assignment();
            let expect: Vec<UserId> = before
                .iter()
                .zip(after)
                .enumerate()
                .filter(|(_, (b, a))| b != a)
                .map(|(u, _)| UserId(u as u32))
                .collect();
            assert_eq!(outcome.moved_users, expect, "round {round}: moved set wrong");
            g = g2;
        }
        // Sanity: the incremental path actually absorbs most rounds.
        assert!(restarts < 25, "every round restarted — incremental path inert");
    }

    /// Property: across random delta sequences, `refresh` on the social
    /// graph returns the weighted reference's outcome bit for bit —
    /// partition, modularity bits, `moved_users` and `restarted` — both
    /// at a loose drift threshold (incremental rounds) and at 0 (where
    /// any drop restarts).
    #[test]
    fn refresh_matches_weighted_reference_across_random_deltas() {
        let mut rng = SmallRng::seed_from_u64(2026);
        for (case, threshold) in [0.05, 0.0].into_iter().cycle().take(16).enumerate() {
            let n = rand::Rng::gen_range(&mut rng, 40..160u32);
            let cfg = CommunityGraphConfig {
                num_users: n as usize,
                num_communities: rand::Rng::gen_range(&mut rng, 2..6),
                mixing: rand::Rng::gen_range(&mut rng, 0.05..0.35),
                seed: 100 + case as u64,
                ..Default::default()
            };
            let mut g = planted_communities(&cfg).graph;
            let mut inc = IncrementalLouvain::new(Louvain::default(), 3, threshold, &g);
            let mut reference = IncrementalLouvain::new(Louvain::default(), 3, threshold, &g);
            let (mut incremental, mut restarts) = (0usize, 0usize);
            for round in 0..12 {
                let mut delta = socialrec_graph::GraphDelta::new();
                for _ in 0..rand::Rng::gen_range(&mut rng, 1..30) {
                    let a = UserId(rand::Rng::gen_range(&mut rng, 0..n));
                    let b = UserId(rand::Rng::gen_range(&mut rng, 0..n));
                    if a == b {
                        continue;
                    }
                    if g.has_edge(a, b) {
                        delta.remove_social(a, b).unwrap();
                    } else {
                        delta.add_social(a, b).unwrap();
                    }
                }
                let (g2, report) = delta.apply_social(&g).unwrap();
                let got = inc.refresh(&g2, &report.touched);
                let want = refresh_on_weighted(&mut reference, &g2, &report.touched);
                let at = format!("case {case} (threshold {threshold}), round {round}");
                assert_eq!(got.restarted, want.restarted, "{at}: restart flag");
                assert_eq!(got.moved_users, want.moved_users, "{at}: moved users");
                assert_eq!(got.modularity.to_bits(), want.modularity.to_bits(), "{at}: Q bits");
                assert_eq!(inc.partition(), reference.partition(), "{at}: partition");
                assert_eq!(
                    inc.reference_modularity().to_bits(),
                    reference.reference_modularity().to_bits(),
                    "{at}: reference Q bits"
                );
                restarts += got.restarted as usize;
                incremental += !got.restarted as usize;
                g = g2;
            }
            // Both paths ran: the loose threshold absorbs rounds, and 0
            // restarts on a drop.
            if threshold > 0.0 {
                assert!(incremental > 0, "case {case}: no incremental round");
            } else {
                assert!(restarts > 0, "case {case}: no restart at threshold 0");
            }
        }
    }

    /// Property: from one RNG seed, the shared kernel's shuffled passes
    /// end where the weighted reference's do — the same assignment,
    /// `any_move` and next RNG draw — on the social graph and on its
    /// edges at weight 2^20, where a gain's ulp exceeds `MIN_GAIN` and
    /// equal gains stay tied; from singletons (level 0) and from a
    /// coarse labelling (the refinement's level 0). A whole run on the
    /// social graph equals `run_weighted_edges` on its unit-weight edges:
    /// partition, level count and modularity bits.
    #[test]
    fn level_passes_match_weighted_reference() {
        let mut rng = SmallRng::seed_from_u64(28);
        let mut graphs = vec![
            social_graph_from_edges(9, &[]).unwrap(),
            // Two triangles joined by a bridge, and three isolated users.
            social_graph_from_edges(9, &[(0, 1), (1, 2), (0, 2), (4, 5), (5, 7), (4, 7), (2, 4)])
                .unwrap(),
        ];
        for case in 0..14 {
            let cfg = CommunityGraphConfig {
                num_users: rng.gen_range(20..400),
                num_communities: rng.gen_range(2..9),
                mixing: rng.gen_range(0.05..0.4),
                seed: 500 + case,
                ..Default::default()
            };
            graphs.push(planted_communities(&cfg).graph);
        }
        for (case, g) in graphs.iter().enumerate() {
            let n = g.num_users();
            let edges = unit_edges(g);
            let unit = WeightedGraph::from_weighted_edges(n, &edges);
            let heavy_edges: Vec<_> = edges.iter().map(|&(a, b, _)| (a, b, 1048576.0)).collect();
            let heavy = WeightedGraph::from_weighted_edges(n, &heavy_edges);
            let coarse = rng.gen_range(1..n as u32 + 1);
            let starts: [Vec<u32>; 2] =
                [(0..n as u32).collect(), (0..n).map(|_| rng.gen_range(0..coarse)).collect()];
            for (s, start) in starts.iter().enumerate() {
                let seed = rng.gen();
                let pass = |f: &dyn Fn(&mut [u32], &mut SmallRng) -> bool| {
                    let mut comm: Vec<u32> = start.clone();
                    let mut r = SmallRng::seed_from_u64(seed);
                    let moved = f(&mut comm, &mut r);
                    (comm, moved, r.next_u64())
                };
                let at = format!("graph {case}, start {s}");
                let got = pass(&|c, r| local_moving(g, c, r));
                assert_eq!(got, pass(&|c, r| local_moving_on_weighted(&unit, c, r)), "{at}");
                let got = pass(&|c, r| local_moving(&heavy, c, r));
                assert_eq!(got, pass(&|c, r| local_moving_on_weighted(&heavy, c, r)), "{at}");
            }
            for refine in [false, true] {
                let lv = Louvain { seed: rng.gen(), refine };
                let (a, b) = (lv.run(g), lv.run_weighted_edges(n, &edges));
                assert_eq!(a.partition, b.partition, "graph {case}, refine {refine}");
                assert_eq!(a.levels, b.levels, "graph {case}, refine {refine}");
                assert_eq!(a.modularity.to_bits(), b.modularity.to_bits(), "graph {case}");
            }
        }
    }

    #[test]
    fn refresh_rejects_user_set_changes() {
        let g = two_triangles_bridge();
        let mut inc = IncrementalLouvain::new(Louvain::default(), 2, 0.1, &g);
        let bigger = social_graph_from_edges(7, &[(0, 1)]).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inc.refresh(&bigger, &[UserId(0)]);
        }));
        assert!(err.is_err(), "user-set change must panic");
    }
}
