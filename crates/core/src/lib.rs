//! Privacy-preserving personalized social recommendation — the primary
//! contribution of Jorgensen & Yu, *"A Privacy-Preserving Framework for
//! Personalized, Social Recommendations"*, EDBT 2014.
//!
//! # What lives here
//!
//! * [`exact`] — the non-private top-N social recommender
//!   (Definition 4): `μ_u^i = Σ_{v∈sim(u)} sim(u,v)·w(v,i)`.
//! * [`private::framework`] — **Algorithm 1**: the cluster-based
//!   ε-differentially-private framework. Users are clustered from the
//!   public social graph alone; per-(cluster, item) average edge weights
//!   are released through the Laplace mechanism with sensitivity
//!   `1/|c|`; utilities are estimated from the noisy averages.
//! * [`private::nou`] / [`private::noe`] — the two strawman baselines of
//!   §5.1.1 (Noise-on-Utility, Noise-on-Edges).
//! * [`private::gs`] / [`private::lrm`] — the adapted comparators of
//!   §6.4 (Group-and-Smooth, Low-Rank Mechanism).
//! * [`metrics`] — NDCG@N exactly as Equation (2), plus precision and
//!   recall for context.
//!
//! # Privacy contract
//!
//! For a fixed social graph, every mechanism here guarantees
//! ε-differential privacy *for preference edges* (Definition 6): the
//! distribution over output recommendation lists changes by at most a
//! factor `e^ε` when any single preference edge is added or removed.
//! The social graph, the clustering, and the similarity scores are
//! treated as public.
//!
//! # Quick example
//!
//! ```
//! use socialrec_core::exact::ExactRecommender;
//! use socialrec_core::private::framework::ClusterFramework;
//! use socialrec_core::{RecommenderInputs, TopNRecommender};
//! use socialrec_community::{ClusteringStrategy, LouvainStrategy};
//! use socialrec_dp::Epsilon;
//! use socialrec_graph::social::social_graph_from_edges;
//! use socialrec_graph::preference::preference_graph_from_edges;
//! use socialrec_graph::UserId;
//! use socialrec_similarity::{Measure, SimilarityMatrix};
//!
//! // Two triangles of friends; preferences correlated per triangle.
//! let social = social_graph_from_edges(
//!     6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
//! ).unwrap();
//! let prefs = preference_graph_from_edges(
//!     6, 4, &[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (0, 2)],
//! ).unwrap();
//! let sim = SimilarityMatrix::build(&social, &Measure::CommonNeighbors);
//! let inputs = RecommenderInputs { prefs: &prefs, sim: &sim };
//!
//! let partition = LouvainStrategy::default().cluster(&social);
//! let private = ClusterFramework::new(&partition, Epsilon::Finite(1.0));
//! let users: Vec<UserId> = (0..6).map(UserId).collect();
//! let lists = private.recommend(&inputs, &users, 2, 42);
//! assert_eq!(lists.len(), 6);
//! assert_eq!(lists[0].items.len(), 2);
//! # let _ = ExactRecommender::new(&inputs);
//! ```

#![warn(missing_docs)]

pub mod aligned;
pub mod attack;
pub mod clustering;
pub mod dynamic;
pub mod exact;
pub mod hybrid;
pub mod metrics;
pub mod private;
pub mod topn;
pub mod weighted;

pub use aligned::AlignedRows;
pub use attack::{estimate_leakage, LeakageEstimate, SybilAttack};
pub use clustering::cluster_by_similarity;
pub use dynamic::{BudgetSchedule, DecayRatio, DynamicRecommender, Release, Snapshot};
pub use exact::ExactRecommender;
pub use hybrid::HybridRecommender;
pub use metrics::{mean_ndcg, per_user_ndcg, precision_recall_at_n};
pub use topn::{top_n_items, top_n_items_reference};
pub use weighted::{WeightedClusterFramework, WeightedExactRecommender, WeightedInputs};

use socialrec_graph::preference::PreferenceGraph;
use socialrec_graph::{ItemId, UserId};
use socialrec_similarity::SimilarityMatrix;

/// Shared, read-only inputs to every recommender: the (private)
/// preference graph and the (public) precomputed similarity matrix.
#[derive(Clone, Copy)]
pub struct RecommenderInputs<'a> {
    /// The sensitive user→item preference graph `G_p`.
    pub prefs: &'a PreferenceGraph,
    /// Precomputed similarity sets over the public social graph `G_s`.
    pub sim: &'a SimilarityMatrix,
}

impl<'a> RecommenderInputs<'a> {
    /// Number of items `|I|`.
    pub fn num_items(&self) -> usize {
        self.prefs.num_items()
    }

    /// Number of users `|U|`.
    pub fn num_users(&self) -> usize {
        self.prefs.num_users()
    }
}

/// A personalized top-N recommendation list.
#[derive(Clone, Debug, PartialEq)]
pub struct TopN {
    /// The target user.
    pub user: UserId,
    /// `(item, estimated utility)`, utility descending, at most N items.
    pub items: Vec<(ItemId, f64)>,
}

impl TopN {
    /// The recommended item ids in rank order.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.items.iter().map(|&(i, _)| i).collect()
    }
}

/// Common interface of the exact recommender, the private framework and
/// every baseline/comparator.
pub trait TopNRecommender {
    /// Mechanism name (with key parameters) for reports.
    fn name(&self) -> String;

    /// Produce a top-`n` list for each user in `users`.
    ///
    /// `seed` drives all randomness (noise); a fixed seed gives
    /// reproducible output.
    fn recommend(
        &self,
        inputs: &RecommenderInputs<'_>,
        users: &[UserId],
        n: usize,
        seed: u64,
    ) -> Vec<TopN>;
}
