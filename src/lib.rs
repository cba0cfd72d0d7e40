//! # socialrec — privacy-preserving personalized social recommendations
//!
//! A complete, from-scratch Rust implementation of
//!
//! > Zach Jorgensen and Ting Yu.
//! > *A Privacy-Preserving Framework for Personalized, Social
//! > Recommendations.* EDBT 2014.
//!
//! The paper's setting: a *public* social graph plus a *private*
//! user→item preference graph. A top-N social recommender scores items
//! by `μ_u^i = Σ_{v∈sim(u)} sim(u,v)·w(v,i)` for a structural
//! similarity measure `sim` computed on the social graph alone. The
//! contribution is a framework making any such recommender
//! ε-differentially private *for preference edges*: cluster users by
//! the social graph's community structure (Louvain), release noisy
//! per-(cluster, item) average edge weights with sensitivity `1/|c|`,
//! and rank items by utilities estimated from those averages.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR social/preference graphs, generators, I/O, stats;
//! * [`dp`] — Laplace mechanism, ε handling, composition accounting;
//! * [`community`] — Louvain (+ multi-level refinement), modularity,
//!   alternative clustering strategies;
//! * [`similarity`] — Common Neighbors, Graph Distance, Adamic/Adar,
//!   Katz, and the parallel [`similarity::SimilarityMatrix`];
//! * [`linalg`] — dense matrix / QR / randomized SVD (for the LRM
//!   comparator);
//! * [`core`] — the exact recommender, the private framework
//!   (Algorithm 1), the NOU/NOE baselines, the GS/LRM comparators, and
//!   NDCG@N;
//! * [`datasets`] — Table-1-faithful synthetic Last.fm/Flixster-like
//!   datasets and loaders for the real file formats;
//! * [`obs`] — std-only observability: hierarchical spans (inert until
//!   [`obs::enable`] is called), a metrics registry, Chrome-trace
//!   export, an event journal, and an introspection endpoint whose
//!   `/ledger` reads a live `dp::PrivacyAccountant`.
//!
//! ## Quickstart
//!
//! ```
//! use socialrec::prelude::*;
//!
//! // A small synthetic dataset with community structure.
//! let ds = socialrec::datasets::lastfm_like_scaled(0.05, 7);
//!
//! // Public side: similarity + clustering (no privacy cost).
//! let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
//! let clusters = LouvainStrategy::default().cluster(&ds.social);
//!
//! // Private side: recommend under ε = 1.0 differential privacy.
//! let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
//! let recommender = ClusterFramework::new(&clusters, Epsilon::Finite(1.0));
//! let lists = recommender.recommend(&inputs, &[UserId(0)], 10, 42);
//! assert_eq!(lists[0].items.len(), 10);
//! ```

#![warn(missing_docs)]

pub use socialrec_community as community;
pub use socialrec_core as core;
pub use socialrec_datasets as datasets;
pub use socialrec_dp as dp;
pub use socialrec_graph as graph;
pub use socialrec_linalg as linalg;
pub use socialrec_obs as obs;
pub use socialrec_similarity as similarity;

/// The most common imports in one place.
pub mod prelude {
    pub use socialrec_community::merge_small_clusters;
    pub use socialrec_community::{
        ClusteringStrategy, KMeansStrategy, Louvain, LouvainStrategy, OneClusterStrategy,
        Partition, RandomStrategy, SingletonStrategy,
    };
    pub use socialrec_core::attack::{estimate_leakage, LeakageEstimate, SybilAttack};
    pub use socialrec_core::cluster_by_similarity;
    pub use socialrec_core::dynamic::{BudgetSchedule, DecayRatio, DynamicRecommender, Snapshot};
    pub use socialrec_core::private::{
        ClusterFramework, GroupAndSmooth, LowRankMechanism, NoiseModel, NoiseOnEdges,
        NoiseOnUtility,
    };
    pub use socialrec_core::HybridRecommender;
    pub use socialrec_core::{
        mean_ndcg, per_user_ndcg, top_n_items, ExactRecommender, RecommenderInputs, TopN,
        TopNRecommender, WeightedClusterFramework, WeightedExactRecommender, WeightedInputs,
    };
    pub use socialrec_datasets::Dataset;
    pub use socialrec_dp::Epsilon;
    pub use socialrec_graph::{
        ItemId, PreferenceGraph, SocialGraph, UserId, WeightedPreferenceGraph,
        WeightedPreferenceGraphBuilder,
    };
    pub use socialrec_similarity::{Measure, Similarity, SimilarityMatrix};
}
