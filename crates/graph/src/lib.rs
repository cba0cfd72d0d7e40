//! Graph substrate for the `socialrec` workspace.
//!
//! Implements the two input structures of Jorgensen & Yu (EDBT 2014):
//!
//! * [`SocialGraph`] — the undirected user–user graph `G_s = (U, E_s)`
//!   (Definition 1). Social edges are considered *public*.
//! * [`PreferenceGraph`] — the bipartite, unweighted user→item graph
//!   `G_p = (U, I, E_p)` (Definition 2). Preference edges are *private*
//!   and are what the differentially private mechanisms protect.
//!
//! Both are stored in CSR (compressed sparse row) form: a flat offsets
//! array plus a flat, per-row-sorted neighbor array. This gives cache
//! friendly iteration, `O(log d)` edge membership tests, and compact
//! memory (`u32` ids) — the layout every other crate in the workspace
//! builds on.
//!
//! The crate also provides:
//!
//! * [`generate`] — synthetic planted-community graphs with
//!   heavy-tailed degrees, used to stand in for the paper's crawled
//!   datasets,
//! * [`io`] — edge-list readers/writers plus HetRec-Last.fm and
//!   Flixster-format loaders,
//! * [`traversal`] — BFS utilities and connected components,
//! * [`stats`] — the summary statistics of the paper's Table 1.

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod generate;
pub mod ids;
pub mod io;
pub mod preference;
pub mod social;
pub mod stats;
pub mod traversal;
pub mod weighted;

pub use delta::{GraphDelta, PreferenceDeltaReport, SocialDeltaReport};
pub use error::GraphError;
pub use ids::{ItemId, UserId};
pub use preference::{PreferenceGraph, PreferenceGraphBuilder};
pub use social::{SocialGraph, SocialGraphBuilder};
pub use stats::{average_clustering_coefficient, DatasetStats};
pub use weighted::{WeightedPreferenceGraph, WeightedPreferenceGraphBuilder};
