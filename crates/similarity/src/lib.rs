//! Structural social-similarity measures (paper §2.2).
//!
//! The recommenders in the paper's model are driven by a *social
//! similarity measure* `sim(u, v)` computed purely from the structure of
//! the public social graph. Four concrete measures are studied:
//!
//! * **Common Neighbors** — `|Γ(u) ∩ Γ(v)|`,
//! * **Graph Distance** — `1/d` for shortest-path length `d ≤ d_max`
//!   (paper uses `d_max = 2`),
//! * **Adamic/Adar** — `Σ_{x ∈ Γ(u)∩Γ(v)} 1/log|Γ(x)|`,
//! * **Katz** — `Σ_{l=1..k} α^l · |paths^l_{uv}|` (walk counting,
//!   truncated; paper uses `k = 3`, `α = 0.05`).
//!
//! All four are *symmetric* and return sparse "similarity sets"
//! `sim(u) = {v : sim(u, v) > 0}`. Computation is per-user into reusable
//! dense scratch buffers (no hashing in the hot loop), and
//! [`SimilarityMatrix`] precomputes all rows in parallel for the
//! recommenders. Its rows live in [`SharedRows`], one `Arc` allocation
//! per row, which also backs the serving crate's heap sim-mass index.
//! The [`artifact`] module holds the checksummed on-disk CSR container
//! that index is written to and read back from whole.
//!
//! For streaming graph deltas, [`dirty_rows`] bounds which rows a batch
//! of edge flips can change (per-measure influence radius,
//! [`Similarity::dirty_radius`]) and
//! [`SimilarityMatrix::update_rows`](cache::SimilarityMatrix::update_rows)
//! recomputes exactly those rows, bit-identical to a from-scratch
//! rebuild, and shares every other row with the previous matrix.

#![warn(missing_docs)]

pub mod adamic_adar;
pub mod artifact;
pub mod cache;
pub mod common_neighbors;
pub mod extended;
pub mod graph_distance;
pub mod katz;
pub mod measure;
pub mod rows;
pub mod scratch;

pub use adamic_adar::AdamicAdar;
pub use artifact::{CsrArtifact, StreamingCsrWriter, ValueKind};
pub use cache::SimilarityMatrix;
pub use common_neighbors::CommonNeighbors;
pub use extended::{HubPromoted, Jaccard, PreferentialAttachment, ResourceAllocation, Salton};
pub use graph_distance::GraphDistance;
pub use katz::Katz;
pub use measure::{parse_measure, Measure};
pub use rows::SharedRows;
pub use scratch::SimScratch;

use socialrec_graph::{SocialGraph, UserId};

/// A structural similarity measure over the social graph.
///
/// Implementations must be symmetric (`sim(u,v) = sim(v,u)`), return
/// only strictly positive scores, never include `u` itself, and must
/// depend on nothing but `G_s` — that last property is what lets the
/// private framework use them without spending privacy budget.
pub trait Similarity: Send + Sync {
    /// Short name for reports ("CN", "GD", "AA", "KZ", ...).
    fn name(&self) -> &'static str;

    /// Compute the similarity set of `u`: all `(v, sim(u, v))` with
    /// positive similarity, sorted by ascending `v`, appended to `out`
    /// (which is cleared first).
    fn similarity_set(
        &self,
        g: &SocialGraph,
        u: UserId,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    );

    /// Convenience: similarity set as a fresh vector.
    fn similarity_set_vec(&self, g: &SocialGraph, u: UserId) -> Vec<(UserId, f64)> {
        let mut scratch = SimScratch::new(g.num_users());
        let mut out = Vec::new();
        self.similarity_set(g, u, &mut scratch, &mut out);
        out
    }

    /// Convenience: `sim(u, v)` via the similarity set (O(set) lookup;
    /// fine for tests, use [`SimilarityMatrix`] in hot paths).
    fn pair(&self, g: &SocialGraph, u: UserId, v: UserId) -> f64 {
        self.similarity_set_vec(g, u).iter().find(|(w, _)| *w == v).map(|&(_, s)| s).unwrap_or(0.0)
    }

    /// Influence radius for dirty-row tracking: flipping edge `(a, b)`
    /// can only change the similarity row of users within this many
    /// hops of `a` or `b` (in the old *or* the new graph).
    ///
    /// The default of 2 is correct for every neighborhood/degree-based
    /// measure (AA, JC, SA, RA, HP, PA): a flip changes `Γ` and `deg`
    /// of its endpoints only, which reaches rows at most two hops away
    /// (the endpoint as a common neighbor, or — for measures that read
    /// a candidate's degree — as the scored candidate of a two-hop
    /// partner). Measures that can prove a tighter bound override:
    /// plain CN uses no degrees, so only radius-1 rows are affected.
    /// Path-based measures override upward or downward as needed: Katz
    /// walks of length `k` feel an edge from `k-1` hops away, and
    /// Graph Distance at cutoff `d` from `d-1`.
    fn dirty_radius(&self) -> u32 {
        2
    }
}

/// The rows of a similarity matrix that a graph delta may have changed:
/// every user within [`Similarity::dirty_radius`] hops of a touched
/// endpoint, in the old or the new graph (union, sorted, deduplicated).
///
/// This is a conservative superset — recomputing exactly these rows
/// against the new graph and splicing the rest reproduces a from-scratch
/// rebuild bit for bit (see `SimilarityMatrix::update_rows`).
pub fn dirty_rows<S: Similarity + ?Sized>(
    measure: &S,
    g_old: &SocialGraph,
    g_new: &SocialGraph,
    touched: &[UserId],
) -> Vec<UserId> {
    use socialrec_graph::traversal::{reach_within, BfsScratch};
    let r = measure.dirty_radius();
    let mut scratch = BfsScratch::new(g_old.num_users().max(g_new.num_users()));
    let mut rows = reach_within(g_old, touched, r, &mut scratch);
    let in_new = reach_within(g_new, touched, r, &mut scratch);
    rows.extend(in_new);
    rows.sort_unstable();
    rows.dedup();
    rows
}
