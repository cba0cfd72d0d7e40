//! Concurrency guard for the relaxed-ordering metrics design: hammer
//! one registry counter and histogram from 8 threads × 10k records and
//! assert the snapshot is *exact* once the threads are quiescent.
//! Counter adds and histogram bucket increments are atomic
//! read-modify-writes, so no record may be lost — relaxed ordering only
//! permits transient skew *during* recording, never after a join.

use socialrec_obs::journal::{self, EventKind};
use socialrec_obs::{Journal, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 8;
const RECORDS_PER_THREAD: usize = 10_000;

#[test]
fn registry_counters_are_exact_under_contention() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("hammered");
    let hist = registry.histogram("hammered.latency");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = Arc::clone(&counter);
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..RECORDS_PER_THREAD {
                    counter.inc();
                    hist.record(Duration::from_nanos(i as u64 + 1));
                }
            });
        }
    });
    let total = (THREADS * RECORDS_PER_THREAD) as u64;
    assert_eq!(counter.get(), total);
    let snap = registry.snapshot();
    assert_eq!(snap.counters, vec![("hammered".to_string(), total)]);
    let (_, hs) = &snap.histograms[0];
    assert_eq!(hs.count, total, "histogram conserves every record");
    assert_eq!(hs.max, Duration::from_nanos(RECORDS_PER_THREAD as u64));
}

#[test]
fn journal_conserves_events_across_8_writers() {
    // 8 threads × 10k events against a 1024-cell ring: heavy
    // overwrite-oldest traffic. Once writers are quiescent, every
    // ticket must be accounted for: emitted = retained + dropped.
    let j = Arc::new(Journal::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let j = Arc::clone(&j);
            scope.spawn(move || {
                for i in 0..RECORDS_PER_THREAD {
                    j.record(EventKind::CoalesceRequeue, t as u64, i as u64);
                }
            });
        }
    });
    let total = (THREADS * RECORDS_PER_THREAD) as u64;
    let s = j.snapshot(journal::CAPACITY);
    assert_eq!(s.emitted, total);
    assert_eq!(
        s.emitted,
        s.events.len() as u64 + s.dropped,
        "emitted = retained + dropped must hold exactly after a join"
    );
    assert_eq!(s.events.len(), journal::CAPACITY, "a saturated ring retains CAPACITY events");
    // The retained tail is the newest CAPACITY tickets, in order.
    for (k, e) in s.events.iter().enumerate() {
        assert_eq!(e.seq, total - journal::CAPACITY as u64 + k as u64);
    }
}

#[test]
fn journal_timestamps_are_monotonic_per_lane() {
    // Each writer stamps its lane id into the payload; within a lane,
    // emission order (per-thread sequential) must imply non-decreasing
    // timestamps even though lanes interleave arbitrarily in the ring.
    let j = Arc::new(Journal::new());
    std::thread::scope(|scope| {
        for lane in 0..THREADS {
            let j = Arc::clone(&j);
            scope.spawn(move || {
                for i in 0..100 {
                    j.record(EventKind::HotSwapCompleted, lane as u64, i);
                }
            });
        }
    });
    let s = j.snapshot(journal::CAPACITY);
    assert_eq!(s.events.len(), THREADS * 100);
    for lane in 0..THREADS as u64 {
        let mut in_lane: Vec<_> = s.events.iter().filter(|e| e.a == lane).collect();
        in_lane.sort_by_key(|e| e.b); // per-lane emission order
        assert_eq!(in_lane.len(), 100);
        for w in in_lane.windows(2) {
            assert!(
                w[0].at_ns <= w[1].at_ns,
                "lane {lane}: timestamps ran backwards ({} > {})",
                w[0].at_ns,
                w[1].at_ns
            );
        }
    }
}
