//! Recommendation serving on top of the private framework.
//!
//! [`ClusterFramework::recommend`] is built for evaluation sweeps: each
//! call draws a fresh noisy release and walks every user's full
//! similarity row. A server answering many requests does neither.
//! Everything after the release is post-processing, so the daemon
//! serves releases it is given and never draws noise itself:
//!
//! * **Publish, then serve** — a release reaches the daemon only
//!   through [`ShardedServer::publish_release`], typically from
//!   `DynamicRecommender::release_averages`, whose accountant debits
//!   the ε spend. A query whose `seed` names no retained published
//!   generation, or whose user is outside the partition, is refused
//!   with an empty list, counted in `serve.refused` and journalled as
//!   `query_refused`; no query can mint a release.
//! * [`SimMassIndex`] — the per-user cluster similarity masses are
//!   precomputed once, in parallel, collapsing per-query work from
//!   `O(|sim(u)|)` to one sparse axpy per touched cluster.
//! * [`ShardedServer`] — the concurrent serving daemon:
//!   user-partitioned shards (each owning a rebased slice of the
//!   index), flat-combining admission that coalesces concurrent single
//!   queries into kernel batches ([`coalesce`]), and epoch-based
//!   hot-swap of published releases under live traffic ([`hotswap`]),
//!   with per-shard counters in its own metrics registry. [`loadgen`]
//!   holds the Zipf/Poisson samplers `serve-bench` drives it with.
//!
//! Served bits equal the framework's `A_R` on the published release:
//! for a release `ClusterFramework::recommend` would draw with the same
//! seed, every serving path is **bit-identical** to it. The index
//! replays the framework's exact floating-point accumulation order (see
//! [`SimMassIndex`]'s floating-point contract).
//!
//! [`ClusterFramework::recommend`]: socialrec_core::TopNRecommender::recommend

#![warn(missing_docs)]

pub mod coalesce;
pub mod hotswap;
mod index;
pub mod kernel;
pub mod loadgen;
mod shard;

pub use coalesce::AdmissionQueue;
pub use hotswap::{EpochCell, ReleaseExchange};
pub use index::{dirty_index_rows, SimMassIndex};
pub use shard::ShardedServer;
