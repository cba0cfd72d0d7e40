//! Queue-based admission that coalesces concurrent single queries.
//!
//! A single-user query pays the whole release lookup + kernel setup for
//! one row of work, so a server under concurrent single-query load
//! leaves most of the item-tiled kernel's throughput on the floor. The
//! [`AdmissionQueue`] fixes that with *flat combining*: every query
//! enqueues itself, and exactly one of the waiting threads — the
//! **leader**, whichever wins the combiner lock — drains the queue and
//! executes all pending queries as one batch through the tiled kernel.
//! Everyone else finds its answer already in its slot when the combiner
//! lock frees up.
//!
//! Under no concurrency the protocol degenerates to the direct path (a
//! one-element batch, zero extra blocking); under load, batch size grows
//! with arrival rate and the kernel amortization does the rest. The
//! executor runs each user's accumulation independently, so coalescing
//! is invisible to the floating-point contract — a coalesced answer is
//! bit-identical to the same query served alone.
//!
//! # Panic containment
//!
//! If the executor panics (e.g. a kernel bug), the leader
//! requeues every pending query it had drained **except its own** and
//! lets the panic propagate. Innocent waiters then retry as leaders;
//! only queries whose own execution keeps failing observe the failure.
//! All locks are poison-recovering, so one panic never bricks the
//! queue.

use socialrec_core::TopN;
use socialrec_graph::UserId;
use socialrec_obs::journal::{self, EventKind};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a pending query's answer lands.
#[derive(Debug, Default)]
struct ResponseSlot {
    result: Mutex<Option<TopN>>,
}

impl ResponseSlot {
    fn is_done(&self) -> bool {
        lock_recovering(&self.result).is_some()
    }

    fn take(&self) -> Option<TopN> {
        lock_recovering(&self.result).take()
    }
}

/// One admitted single query, waiting for a leader to execute it.
#[derive(Debug)]
pub struct PendingQuery {
    user: UserId,
    n: usize,
    seed: u64,
    slot: Arc<ResponseSlot>,
}

impl PendingQuery {
    /// The queried user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The requested top-N size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The release seed the query was admitted under. The executor must
    /// answer from this seed's generation — never from one that swapped
    /// in later — so no response mixes generations.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deliver the answer. The waiting thread picks it up when the
    /// leader releases the combiner lock.
    pub fn fulfill(&self, top: TopN) {
        *lock_recovering(&self.slot.result) = Some(top);
    }
}

/// Requeues the batch's unanswered queries (except the leader's own)
/// when the executor finishes — normally or by unwind. A no-op on the
/// full-service path where every slot is filled.
struct RequeueGuard<'a> {
    queue: &'a AdmissionQueue,
    batch: Vec<PendingQuery>,
    own: &'a Arc<ResponseSlot>,
}

impl Drop for RequeueGuard<'_> {
    fn drop(&mut self) {
        let mut orphans: Vec<PendingQuery> = self
            .batch
            .drain(..)
            .filter(|q| !Arc::ptr_eq(&q.slot, self.own) && !q.slot.is_done())
            .collect();
        if !orphans.is_empty() {
            journal::emit(EventKind::CoalesceRequeue, orphans.len() as u64, 0);
            lock_recovering(&self.queue.pending).append(&mut orphans);
        }
    }
}

/// The flat-combining admission queue. See the module docs for the
/// protocol.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    pending: Mutex<Vec<PendingQuery>>,
    /// Held by the current leader for the duration of one batch.
    combiner: Mutex<()>,
}

impl AdmissionQueue {
    /// An empty queue.
    pub fn new() -> AdmissionQueue {
        AdmissionQueue::default()
    }

    /// Admit one single-user query and block until it is answered.
    ///
    /// `exec` is the batch executor: called with every query drained
    /// from the queue (always ≥ 1, including the caller's own), it
    /// should [`fulfill`](PendingQuery::fulfill) each of them. Any
    /// batch-mate left unanswered — by an early return or a panic — is
    /// requeued for a later leader; leaving the caller's **own** query
    /// unanswered on a normal return is a bug and panics. `exec` runs on
    /// whichever admitted thread becomes leader, so it must be safe to
    /// call from any of them.
    pub fn submit(
        &self,
        user: UserId,
        n: usize,
        seed: u64,
        exec: impl Fn(&[PendingQuery]),
    ) -> TopN {
        let slot = Arc::new(ResponseSlot::default());
        lock_recovering(&self.pending).push(PendingQuery {
            user,
            n,
            seed,
            slot: Arc::clone(&slot),
        });
        let leader = lock_recovering(&self.combiner);
        // A previous leader may have served us while we waited for
        // the combiner lock.
        if let Some(top) = slot.take() {
            return top;
        }
        let batch = std::mem::take(&mut *lock_recovering(&self.pending));
        debug_assert!(!batch.is_empty(), "own unanswered query must be pending");
        let guard = RequeueGuard { queue: self, batch, own: &slot };
        exec(&guard.batch);
        // On the normal full-service path the guard's drop finds
        // every slot filled and requeues nothing; after a partial
        // exec (or, via unwind, a panicking one) it hands the
        // unanswered batch-mates back to the queue. The guard never
        // requeues the caller's own query, so an executor that returns
        // without answering it is a bug, not a retry.
        drop(guard);
        drop(leader);
        match slot.take() {
            Some(top) => top,
            None => panic!("admission executor returned without fulfilling a query"),
        }
    }

    /// Queries currently admitted but not yet drained by a leader.
    pub fn depth(&self) -> usize {
        lock_recovering(&self.pending).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::ItemId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn answer(q: &PendingQuery) -> TopN {
        // Encode the inputs so tests can check routing.
        TopN { user: q.user(), items: vec![(ItemId(q.n() as u32), q.seed() as f64)] }
    }

    #[test]
    fn single_query_runs_as_its_own_leader() {
        let queue = AdmissionQueue::new();
        let batches = AtomicUsize::new(0);
        let top = queue.submit(UserId(3), 5, 7, |batch| {
            batches.fetch_add(1, Ordering::SeqCst);
            assert_eq!(batch.len(), 1);
            batch[0].fulfill(answer(&batch[0]));
        });
        assert_eq!(top.user, UserId(3));
        assert_eq!(top.items, vec![(ItemId(5), 7.0)]);
        assert_eq!(batches.load(Ordering::SeqCst), 1);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn concurrent_queries_coalesce_and_route_correctly() {
        const THREADS: usize = 16;
        let queue = AdmissionQueue::new();
        let batches = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (queue, batches, served) = (&queue, &batches, &served);
                s.spawn(move || {
                    let top = queue.submit(UserId(t as u32), t + 1, 9, |batch| {
                        batches.fetch_add(1, Ordering::SeqCst);
                        served.fetch_add(batch.len(), Ordering::SeqCst);
                        for q in batch {
                            q.fulfill(answer(q));
                        }
                    });
                    // Each thread gets *its* answer, not a batch-mate's.
                    assert_eq!(top.user, UserId(t as u32));
                    assert_eq!(top.items, vec![(ItemId((t + 1) as u32), 9.0)]);
                });
            }
        });
        assert_eq!(served.load(Ordering::SeqCst), THREADS, "every query served exactly once");
        assert!(batches.load(Ordering::SeqCst) <= THREADS, "leaders never exceed queries");
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn panicking_executor_requeues_batch_mates_not_its_own() {
        // A's executor panics on A's own query; B's serves only B's. In
        // every interleaving — A leads with B coalesced in, B leads with
        // A coalesced in, or they never overlap — B must be answered and
        // A must observe its panic. The requeue guard is what makes the
        // coalesced interleavings work: a drained-but-unanswered
        // batch-mate goes back in the queue for its own leadership turn.
        use std::sync::Barrier;
        let queue = AdmissionQueue::new();
        let queue = &queue;
        let barrier = Barrier::new(2);
        let barrier = &barrier;
        std::thread::scope(|s| {
            let b = s.spawn(move || {
                barrier.wait();
                queue.submit(UserId(2), 2, 0, |batch| {
                    for q in batch {
                        if q.user() == UserId(2) {
                            q.fulfill(answer(q));
                        }
                    }
                })
            });
            let a = s.spawn(move || {
                barrier.wait();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    queue.submit(UserId(1), 1, 0, |batch| {
                        for q in batch {
                            if q.user() == UserId(1) {
                                panic!("executor exploded");
                            }
                            q.fulfill(answer(q));
                        }
                    })
                }))
            });
            let b_top = b.join().unwrap();
            assert_eq!(b_top.user, UserId(2), "batch-mate of a panicking leader is re-served");
            assert_eq!(b_top.items, vec![(ItemId(2), 0.0)]);
            assert!(a.join().unwrap().is_err(), "panic propagates to the leader's own query");
        });
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn queue_survives_a_panicked_leader() {
        let queue = AdmissionQueue::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            queue.submit(UserId(0), 1, 0, |_| panic!("first leader dies"));
        }));
        assert!(boom.is_err());
        // The queue (and its poisoned-then-recovered locks) still work.
        let top = queue.submit(UserId(4), 1, 3, |batch| {
            for q in batch {
                q.fulfill(answer(q));
            }
        });
        assert_eq!(top.user, UserId(4));
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "without fulfilling")]
    fn executor_forgetting_a_query_is_a_bug() {
        let queue = AdmissionQueue::new();
        queue.submit(UserId(0), 1, 0, |_| {});
    }
}
