//! Epoch-based hot-swap of published releases under live traffic.
//!
//! A release reaches the daemon only by being published; queries never
//! build one. A publish must not stop the world: queries for the old
//! generation keep being answered from the release they were admitted
//! under, and each response is computed wholly from a single
//! generation's release. Two pieces implement that:
//!
//! * [`ReleaseExchange`] — the daemon-wide source of truth: a
//!   generation-keyed list of published releases. The newest
//!   [`RETAIN_GENERATIONS`] generations are retained so in-flight
//!   traffic admitted just before a swap completes on its own release;
//!   a generation that was never published, or has been evicted, is
//!   simply absent.
//! * [`EpochCell`] — a shard-local `(generation, release)` pointer.
//!   Shards serve hits from their own cell (no cross-shard contention)
//!   and refresh it from the exchange on a generation change; the store
//!   is a pointer swap under a lock held for nanoseconds, which is the
//!   epoch flip.

use socialrec_core::private::framework::NoisyClusterAverages;
use socialrec_obs::journal::{self, EventKind};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Generations the exchange keeps alive: the current one plus its
/// predecessor, so queries admitted just before a publish are still
/// answered from the release they asked for.
pub const RETAIN_GENERATIONS: usize = 2;

/// Lock a mutex, recovering from poisoning (the protected state is only
/// written in consistent steps, so a panicking peer leaves it usable).
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct ExchangeState {
    /// `(generation, release)` in publish order, newest last.
    entries: Vec<(u64, Arc<NoisyClusterAverages>)>,
    /// Monotone swap counter: bumped once per successful publish.
    epoch: u64,
}

/// The daemon-wide, generation-keyed store of published releases. See
/// the module docs.
#[derive(Default)]
pub struct ReleaseExchange {
    state: Mutex<ExchangeState>,
}

impl ReleaseExchange {
    /// An empty exchange.
    pub fn new() -> ReleaseExchange {
        ReleaseExchange::default()
    }

    /// Install a release for `generation` — produced, and its spend
    /// debited, outside the daemon (typically by a `DynamicRecommender`).
    ///
    /// A successful publish is an epoch flip and evicts the oldest
    /// generation beyond the [`RETAIN_GENERATIONS`] window. Returns
    /// whether this call installed the release: `false` when the
    /// generation is already present (publish is idempotent, and the
    /// first release keeps serving).
    pub fn publish(&self, generation: u64, averages: Arc<NoisyClusterAverages>) -> bool {
        let mut state = lock_recovering(&self.state);
        if state.entries.iter().any(|(g, _)| *g == generation) {
            return false;
        }
        state.entries.push((generation, averages));
        state.epoch += 1;
        // At most one entry is over the window: each publish adds one.
        let evicted = (state.entries.len() > RETAIN_GENERATIONS).then(|| state.entries.remove(0));
        drop(state);
        // Free the evicted release after unlocking, so shards fetching
        // the new one in `get` never wait on the free.
        drop(evicted);
        journal::emit(EventKind::ReleasePublished, generation, 0);
        true
    }

    /// The release for `generation` if published and still retained.
    pub fn get(&self, generation: u64) -> Option<Arc<NoisyClusterAverages>> {
        let state = lock_recovering(&self.state);
        state.entries.iter().find(|(g, _)| *g == generation).map(|(_, a)| Arc::clone(a))
    }

    /// Number of successful publishes (epoch flips) so far.
    pub fn epoch(&self) -> u64 {
        lock_recovering(&self.state).epoch
    }

    /// Generations currently retained, oldest first.
    pub fn retained(&self) -> Vec<u64> {
        lock_recovering(&self.state).entries.iter().map(|(g, _)| *g).collect()
    }
}

/// A shard-local `(generation, release)` pointer — the epoch a shard is
/// currently serving. Loads and stores hold the lock for a pointer copy
/// only, so the flip is invisible to latency.
#[derive(Default)]
pub struct EpochCell {
    slot: Mutex<Option<(u64, Arc<NoisyClusterAverages>)>>,
}

impl EpochCell {
    /// An empty cell.
    pub fn new() -> EpochCell {
        EpochCell::default()
    }

    /// The release if the cell currently holds `generation`.
    pub fn load(&self, generation: u64) -> Option<Arc<NoisyClusterAverages>> {
        match lock_recovering(&self.slot).as_ref() {
            Some((g, a)) if *g == generation => Some(Arc::clone(a)),
            _ => None,
        }
    }

    /// Flip the cell to `generation`.
    pub fn store(&self, generation: u64, averages: Arc<NoisyClusterAverages>) {
        let previous = lock_recovering(&self.slot).replace((generation, averages));
        // The guard is gone: the previous release, if this cell held its
        // last reference, is freed outside the lock.
        drop(previous);
    }

    /// The generation the cell last served, if any.
    pub fn generation(&self) -> Option<u64> {
        lock_recovering(&self.slot).as_ref().map(|(g, _)| *g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_community::Partition;
    use socialrec_core::private::framework::release_noisy_cluster_averages;
    use socialrec_dp::Epsilon;
    use socialrec_graph::preference::preference_graph_from_edges;

    fn tiny_release(seed: u64) -> NoisyClusterAverages {
        let partition = Partition::from_assignment(&[0, 0, 1]);
        let prefs = preference_graph_from_edges(3, 2, &[(0, 0), (1, 1), (2, 0)]).unwrap();
        release_noisy_cluster_averages(&partition, &prefs, Epsilon::Finite(1.0), seed)
    }

    #[test]
    fn publish_installs_once_and_respects_retention() {
        let ex = ReleaseExchange::new();
        assert!(ex.get(1).is_none(), "nothing is served before a publish");
        let a = Arc::new(tiny_release(1));
        assert!(ex.publish(1, Arc::clone(&a)));
        assert_eq!(ex.epoch(), 1);
        assert!(Arc::ptr_eq(&ex.get(1).unwrap(), &a));
        // Idempotent: a second publish of the same generation is a no-op
        // and the originally published release keeps serving.
        assert!(!ex.publish(1, Arc::new(tiny_release(1))));
        assert_eq!(ex.epoch(), 1);
        assert!(Arc::ptr_eq(&ex.get(1).unwrap(), &a));
        // The predecessor survives one swap; a third generation evicts
        // the oldest.
        assert!(ex.publish(2, Arc::new(tiny_release(2))));
        assert_eq!(ex.retained(), vec![1, 2]);
        assert!(Arc::ptr_eq(&ex.get(1).unwrap(), &a));
        assert!(ex.publish(3, Arc::new(tiny_release(3))));
        assert_eq!(ex.retained(), vec![2, 3]);
        assert!(ex.get(1).is_none());
        assert_eq!(ex.epoch(), 3);
    }

    #[test]
    fn epoch_cell_flips_generations() {
        let cell = EpochCell::new();
        assert_eq!(cell.generation(), None);
        assert!(cell.load(1).is_none());
        let a = Arc::new(tiny_release(1));
        cell.store(1, Arc::clone(&a));
        assert!(Arc::ptr_eq(&cell.load(1).unwrap(), &a));
        assert!(cell.load(2).is_none(), "wrong generation must miss");
        let b = Arc::new(tiny_release(2));
        cell.store(2, b);
        assert_eq!(cell.generation(), Some(2));
        assert!(cell.load(1).is_none(), "cell holds exactly one epoch");
    }
}
