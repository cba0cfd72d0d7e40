//! Synthetic social-graph generators.
//!
//! The paper evaluates on crawled Last.fm and Flixster graphs, which are
//! not bundled here; these generators produce graphs with the structural
//! properties the framework's behaviour depends on — heavy-tailed degree
//! distributions and strong community structure — with every knob
//! (degrees, mixing, community sizes) explicit and seeded.
//!
//! [`planted_communities`] is a degree-corrected planted partition model
//! (Chung–Lu edge sampling within and across planted communities).

use crate::ids::UserId;
use crate::social::{SocialGraph, SocialGraphBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashSet;

/// Configuration for [`planted_communities`].
#[derive(Clone, Debug)]
pub struct CommunityGraphConfig {
    /// Number of user nodes.
    pub num_users: usize,
    /// Number of planted communities.
    pub num_communities: usize,
    /// Skew of community sizes: 0.0 gives equal sizes; larger values give
    /// a few dominant communities (sizes ∝ (rank+1)^-skew).
    pub community_size_skew: f64,
    /// Target mean degree.
    pub mean_degree: f64,
    /// Target degree standard deviation (heavy tail comes from a
    /// lognormal expected-degree distribution fitted to mean/std).
    pub degree_std: f64,
    /// Fraction of edge endpoints that attach outside the home community
    /// (the LFR "mixing" parameter μ); 0.0 = pure communities.
    pub mixing: f64,
    /// Fraction of each community's members promoted to *hubs* (0 = no
    /// hubs). Hubs bind large communities together: without them a
    /// large community is internally Erdős–Rényi-like and modularity
    /// clustering fragments it, which real social graphs do not
    /// exhibit.
    pub hub_fraction: f64,
    /// A hub's expected degree as a fraction of its community size.
    pub hub_strength: f64,
    /// Triadic-closure intensity: per node, about `degree × closure`
    /// random neighbor pairs are connected after the base wiring.
    /// Real social graphs have high clustering coefficients; without
    /// closure, structural similarity (e.g. Common Neighbors) is flat
    /// across community members instead of concentrating on close
    /// friends. 0 disables. Raises mean degree by roughly
    /// `2 × closure × mean_degree`; the generator compensates by
    /// shrinking the base wiring target.
    pub triadic_closure: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CommunityGraphConfig {
    fn default() -> Self {
        CommunityGraphConfig {
            num_users: 1000,
            num_communities: 10,
            community_size_skew: 0.8,
            mean_degree: 12.0,
            degree_std: 14.0,
            mixing: 0.1,
            hub_fraction: 0.0,
            hub_strength: 0.25,
            triadic_closure: 0.0,
            seed: 7,
        }
    }
}

/// Result of [`planted_communities`]: the graph plus the ground-truth
/// community of every user (useful for validating Louvain).
#[derive(Clone, Debug)]
pub struct PlantedGraph {
    /// The generated social graph.
    pub graph: SocialGraph,
    /// `community[u]` is the planted community index of user `u`.
    pub community: Vec<u32>,
}

/// Sample expected degrees from a lognormal fitted to (mean, std),
/// clamped to `[1, n-1]`.
fn sample_expected_degrees(n: usize, mean: f64, std: f64, rng: &mut SmallRng) -> Vec<f64> {
    // Lognormal moment matching: if X ~ LN(m, s²) then
    // E[X] = exp(m + s²/2), Var[X] = (exp(s²)-1)·exp(2m+s²).
    let mean = mean.max(1.0);
    let cv2 = (std / mean).powi(2);
    let s2 = (1.0 + cv2).ln();
    let m = mean.ln() - s2 / 2.0;
    let s = s2.sqrt();
    (0..n)
        .map(|_| {
            // Box-Muller standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (m + s * z).exp().clamp(1.0, (n - 1) as f64)
        })
        .collect()
}

/// Cumulative-weight index for O(log n) weighted sampling.
struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    fn new(weights: impl Iterator<Item = f64>) -> Option<Self> {
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            acc += w.max(0.0);
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            None
        } else {
            Some(WeightedIndex { cumulative })
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().unwrap();
        let x = rng.gen_range(0.0..total);
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i,
        }
    }
}

/// Partition `num_users` into `num_communities` sizes ∝ `(rank+1)^-skew`,
/// each at least 1.
fn community_sizes(num_users: usize, num_communities: usize, skew: f64) -> Vec<usize> {
    assert!(num_communities >= 1, "need at least one community");
    assert!(num_users >= num_communities, "need at least one user per community");
    let raw: Vec<f64> = (0..num_communities).map(|r| ((r + 1) as f64).powf(-skew)).collect();
    let total: f64 = raw.iter().sum();
    let mut sizes: Vec<usize> =
        raw.iter().map(|w| ((w / total) * num_users as f64).floor().max(1.0) as usize).collect();
    // Distribute the rounding remainder to the largest communities first.
    let mut assigned: usize = sizes.iter().sum();
    let mut r = 0usize;
    while assigned < num_users {
        sizes[r % num_communities] += 1;
        assigned += 1;
        r += 1;
    }
    while assigned > num_users {
        let idx = sizes.iter().enumerate().max_by_key(|&(_, &s)| s).map(|(i, _)| i).unwrap();
        sizes[idx] -= 1;
        assigned -= 1;
    }
    sizes
}

/// Generate a degree-corrected planted-partition graph.
///
/// Users are assigned to communities (sizes skewed per the config), each
/// user gets a heavy-tailed expected degree, and edges are sampled
/// Chung–Lu style: a `(1-mixing)` fraction of each node's expected edge
/// endpoints land inside its community, the rest anywhere. Duplicate
/// edges and self loops are rejected and resampled (bounded retries), so
/// realised degrees track — but do not exactly equal — expectations.
pub fn planted_communities(config: &CommunityGraphConfig) -> PlantedGraph {
    let n = config.num_users;
    let mut rng = SmallRng::seed_from_u64(config.seed);

    let sizes = community_sizes(n, config.num_communities, config.community_size_skew);
    let mut community = vec![0u32; n];
    let mut members: Vec<Vec<UserId>> = Vec::with_capacity(sizes.len());
    {
        let mut next = 0u32;
        for (c, &sz) in sizes.iter().enumerate() {
            let mut m = Vec::with_capacity(sz);
            for _ in 0..sz {
                community[next as usize] = c as u32;
                m.push(UserId(next));
                next += 1;
            }
            members.push(m);
        }
    }

    // Triadic closure multiplies degrees by roughly (1 + 2·closure);
    // shrink the base wiring so the configured targets refer to the
    // final graph.
    let tc = config.triadic_closure.max(0.0);
    let deg_scale = 1.0 / (1.0 + 2.0 * tc);
    let mut theta = sample_expected_degrees(
        n,
        config.mean_degree * deg_scale,
        config.degree_std * deg_scale,
        &mut rng,
    );
    // Promote a few members of each community to hubs whose expected
    // degree scales with the community size.
    if config.hub_fraction > 0.0 {
        for mem in &members {
            let hubs =
                ((mem.len() as f64 * config.hub_fraction).round() as usize).max(1).min(mem.len());
            for _ in 0..hubs {
                let u = mem[rng.gen_range(0..mem.len())];
                let target =
                    (config.hub_strength * mem.len() as f64).min((mem.len() - 1) as f64).max(1.0);
                let t = &mut theta[u.index()];
                if *t < target {
                    *t = target;
                }
            }
        }
    }
    let mixing = config.mixing.clamp(0.0, 1.0);

    let mut builder = SocialGraphBuilder::new(n);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    // Adjacency mirror, maintained for the triadic-closure pass.
    let mut adj: Vec<Vec<UserId>> = vec![Vec::new(); n];
    let push_edge = |builder: &mut SocialGraphBuilder,
                     seen: &mut FxHashSet<(u32, u32)>,
                     adj: &mut Vec<Vec<UserId>>,
                     a: UserId,
                     b: UserId|
     -> bool {
        if a == b {
            return false;
        }
        let key = if a < b { (a.0, b.0) } else { (b.0, a.0) };
        if seen.insert(key) {
            builder.add_edge(a, b).expect("generated ids in range");
            adj[a.index()].push(b);
            adj[b.index()].push(a);
            true
        } else {
            false
        }
    };

    // Internal edges, community by community.
    for mem in &members {
        if mem.len() < 2 {
            continue;
        }
        let sum_theta: f64 = mem.iter().map(|u| theta[u.index()]).sum();
        let target = ((1.0 - mixing) * sum_theta / 2.0).round() as usize;
        if target == 0 {
            continue;
        }
        let index = match WeightedIndex::new(mem.iter().map(|u| theta[u.index()])) {
            Some(i) => i,
            None => continue,
        };
        let mut placed = 0usize;
        let mut attempts = 0usize;
        let max_attempts = target * 20 + 100;
        while placed < target && attempts < max_attempts {
            attempts += 1;
            let a = mem[index.sample(&mut rng)];
            let b = mem[index.sample(&mut rng)];
            if push_edge(&mut builder, &mut seen, &mut adj, a, b) {
                placed += 1;
            }
        }
    }

    // Cross-community edges, sampled globally; endpoints in the same
    // community are rejected (those slots were covered above).
    if mixing > 0.0 && config.num_communities > 1 {
        let sum_theta: f64 = theta.iter().sum();
        let target = (mixing * sum_theta / 2.0).round() as usize;
        if target > 0 {
            let index = WeightedIndex::new(theta.iter().copied()).expect("positive weights");
            let mut placed = 0usize;
            let mut attempts = 0usize;
            let max_attempts = target * 20 + 100;
            while placed < target && attempts < max_attempts {
                attempts += 1;
                let a = UserId(index.sample(&mut rng) as u32);
                let b = UserId(index.sample(&mut rng) as u32);
                if community[a.index()] == community[b.index()] {
                    continue;
                }
                if push_edge(&mut builder, &mut seen, &mut adj, a, b) {
                    placed += 1;
                }
            }
        }
    }

    // Triadic closure: connect random neighbor pairs, creating the
    // local clique structure (high clustering coefficient) that makes
    // structural similarity concentrate on close friends.
    if tc > 0.0 {
        for u in 0..n {
            let deg = adj[u].len();
            if deg < 2 {
                continue;
            }
            let attempts = (deg as f64 * tc).round() as usize;
            for _ in 0..attempts {
                let v = adj[u][rng.gen_range(0..deg)];
                let w = adj[u][rng.gen_range(0..deg)];
                push_edge(&mut builder, &mut seen, &mut adj, v, w);
            }
        }
    }

    PlantedGraph { graph: builder.build(), community }
}

/// A tiny connected component: a random spanning tree over `size` nodes
/// with optional extra edges, appended to `builder` starting at id
/// `first_id`. Used to replicate Last.fm's 19 small disconnected
/// components (2–7 nodes each).
pub fn attach_small_component(
    builder: &mut SocialGraphBuilder,
    first_id: u32,
    size: usize,
    extra_edges: usize,
    rng: &mut SmallRng,
) {
    assert!(size >= 2, "a component needs at least 2 nodes");
    // Random attachment tree.
    for v in 1..size as u32 {
        let parent = rng.gen_range(0..v);
        builder
            .add_edge(UserId(first_id + v), UserId(first_id + parent))
            .expect("component ids in range");
    }
    for _ in 0..extra_edges {
        let a = rng.gen_range(0..size as u32);
        let b = rng.gen_range(0..size as u32);
        if a != b {
            // Duplicates collapse in the builder.
            builder.add_edge(UserId(first_id + a), UserId(first_id + b)).expect("in range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;

    #[test]
    fn community_sizes_partition_exactly() {
        for (n, k, skew) in [(100, 7, 0.0), (1000, 16, 0.8), (57, 3, 2.0), (10, 10, 1.0)] {
            let sizes = community_sizes(n, k, skew);
            assert_eq!(sizes.len(), k);
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn planted_graph_matches_targets_roughly() {
        let cfg = CommunityGraphConfig {
            num_users: 2000,
            num_communities: 12,
            mean_degree: 14.0,
            degree_std: 10.0,
            mixing: 0.1,
            seed: 42,
            ..Default::default()
        };
        let pg = planted_communities(&cfg);
        assert_eq!(pg.graph.num_users(), 2000);
        assert_eq!(pg.community.len(), 2000);
        let mean = pg.graph.mean_degree();
        assert!((10.0..18.0).contains(&mean), "mean degree {mean} far from target 14");
        // Communities should be visibly denser inside than outside.
        let mut internal = 0usize;
        let mut external = 0usize;
        for (u, v) in pg.graph.edges() {
            if pg.community[u.index()] == pg.community[v.index()] {
                internal += 1;
            } else {
                external += 1;
            }
        }
        assert!(
            internal > 4 * external,
            "community structure too weak: {internal} internal vs {external} external"
        );
    }

    #[test]
    fn planted_graph_deterministic_per_seed() {
        let cfg = CommunityGraphConfig { num_users: 300, seed: 9, ..Default::default() };
        let a = planted_communities(&cfg);
        let b = planted_communities(&cfg);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.community, b.community);
        let cfg2 = CommunityGraphConfig { seed: 10, ..cfg };
        let c = planted_communities(&cfg2);
        assert_ne!(a.graph, c.graph, "different seeds should differ");
    }

    #[test]
    fn hubs_bind_large_communities() {
        let base = CommunityGraphConfig {
            num_users: 1500,
            num_communities: 3,
            community_size_skew: 0.0,
            mean_degree: 12.0,
            degree_std: 8.0,
            mixing: 0.05,
            seed: 17,
            ..Default::default()
        };
        let no_hubs = planted_communities(&base);
        let with_hubs = planted_communities(&CommunityGraphConfig {
            hub_fraction: 0.01,
            hub_strength: 0.3,
            ..base
        });
        // Hubs create nodes with degree ~ community size fraction.
        let max_no = no_hubs.graph.max_degree();
        let max_with = with_hubs.graph.max_degree();
        assert!(
            max_with as f64 > 1.5 * max_no as f64,
            "hub max degree {max_with} should dwarf {max_no}"
        );
        assert!(max_with >= 100, "hub degree {max_with} should scale with community size");
    }

    #[test]
    fn triadic_closure_raises_clustering_coefficient() {
        use crate::stats::average_clustering_coefficient;
        let base = CommunityGraphConfig {
            num_users: 800,
            num_communities: 8,
            mean_degree: 12.0,
            degree_std: 6.0,
            seed: 23,
            ..Default::default()
        };
        let open = planted_communities(&base);
        let closed = planted_communities(&CommunityGraphConfig { triadic_closure: 0.5, ..base });
        let cc_open = average_clustering_coefficient(&open.graph);
        let cc_closed = average_clustering_coefficient(&closed.graph);
        // Small dense communities already have nontrivial clustering;
        // closure must lift it clearly and into the real-graph band.
        assert!(
            cc_closed > 1.8 * cc_open.max(0.005) && cc_closed > 0.2,
            "closure should lift clustering coefficient: {cc_open} -> {cc_closed}"
        );
        // Degree compensation keeps the mean near the target.
        let mean = closed.graph.mean_degree();
        assert!((8.0..16.0).contains(&mean), "mean degree {mean} drifted from 12");
    }

    #[test]
    fn small_components_attach() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut b = SocialGraphBuilder::new(12);
        b.add_edge(UserId(0), UserId(1)).unwrap();
        attach_small_component(&mut b, 2, 5, 2, &mut rng);
        attach_small_component(&mut b, 7, 5, 0, &mut rng);
        let g = b.build();
        let cc = connected_components(&g);
        assert_eq!(cc.count(), 3);
        let mut sizes = cc.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 5, 5]);
    }
}
