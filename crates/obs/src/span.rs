//! Hierarchical wall-clock spans with per-thread buffers.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled cost ≈ zero.** Instrumentation sits inside the
//!    workspace's measured hot paths (CSR assembly chunks, Louvain
//!    levels, the release kernel), whose performance is tracked by
//!    `BENCH_pipeline.json`. A disabled [`span!`](crate::span!) is one
//!    relaxed atomic load plus an inert guard — no clock read, no TLS
//!    touch, no allocation.
//! 2. **No cross-thread contention when enabled.** Every thread records
//!    into its own buffer (registered once with the global collector);
//!    the only lock a recording thread ever takes is its own,
//!    uncontended except during a drain.
//! 3. **Deterministic data untouched.** Spans observe wall-clock time
//!    only; they never read or write pipeline data, so the bit-identity
//!    contracts of the parallel kernels hold with tracing on or off.
//!
//! Threads spawned by the vendored rayon scheduler are per-region, so a
//! long trace accumulates one buffer per short-lived worker; buffers
//! that are both drained and dead are pruned on
//! [`drain_events`].

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The global tracing toggle. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on (idempotent). The first call pins the trace
/// epoch all timestamps are measured from.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn span recording off (idempotent). Spans already entered finish
/// recording; new [`span!`](crate::span!) calls become inert.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether span recording is currently on. This is the *only* cost a
/// disabled call site pays: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The instant timestamps are measured from (pinned on first use).
/// Shared with the event journal so span and journal timestamps are
/// directly comparable.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span: a Chrome-trace "complete" (`X`) event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (a static label like `"louvain.level"`).
    pub name: &'static str,
    /// Optional single `key = value` attribute.
    pub arg: Option<(&'static str, u64)>,
    /// Stable id of the recording thread (assigned on first record).
    pub tid: u32,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread when the span began.
    pub depth: u16,
}

/// One thread's event buffer. The owning thread pushes under the mutex
/// (uncontended unless a drain is in flight); the collector steals the
/// contents during [`drain_events`].
struct ThreadLog {
    tid: u32,
    events: Mutex<Vec<SpanEvent>>,
}

/// Global registry of every thread buffer ever created.
struct Collector {
    logs: Mutex<Vec<Arc<ThreadLog>>>,
    next_tid: AtomicU32,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector { logs: Mutex::new(Vec::new()), next_tid: AtomicU32::new(0) })
}

thread_local! {
    static LOG: OnceCell<Arc<ThreadLog>> = const { OnceCell::new() };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Run `f` against this thread's buffer, creating and registering it on
/// first use.
fn with_thread_log<R>(f: impl FnOnce(&ThreadLog) -> R) -> R {
    LOG.with(|cell| {
        let log = cell.get_or_init(|| {
            let c = collector();
            let tid = c.next_tid.fetch_add(1, Ordering::Relaxed);
            let log = Arc::new(ThreadLog { tid, events: Mutex::new(Vec::new()) });
            c.logs.lock().expect("span collector poisoned").push(Arc::clone(&log));
            log
        });
        f(log)
    })
}

/// An RAII span: records one [`SpanEvent`] when dropped (if tracing was
/// enabled when it was entered). Construct through
/// [`span!`](crate::span!).
#[must_use = "a span records its duration on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    arg: Option<(&'static str, u64)>,
    /// `None` when tracing was disabled at entry — the guard is inert.
    start: Option<Instant>,
    start_ns: u64,
    depth: u16,
}

impl SpanGuard {
    /// Enter a span. When tracing is disabled this is one relaxed
    /// atomic load and a trivial struct construction.
    #[inline]
    pub fn enter(name: &'static str, arg: Option<(&'static str, u64)>) -> SpanGuard {
        if !enabled() {
            return SpanGuard { name, arg, start: None, start_ns: 0, depth: 0 };
        }
        Self::enter_enabled(name, arg)
    }

    fn enter_enabled(name: &'static str, arg: Option<(&'static str, u64)>) -> SpanGuard {
        let start = Instant::now();
        // `duration_since` saturates to zero, so a thread racing
        // `enable()` can never produce a negative offset.
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        SpanGuard { name, arg, start: Some(start), start_ns, depth }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let mut event = SpanEvent {
            name: self.name,
            arg: self.arg,
            tid: 0,
            start_ns: self.start_ns,
            dur_ns,
            depth: self.depth,
        };
        with_thread_log(|log| {
            event.tid = log.tid;
            log.events.lock().expect("span buffer poisoned").push(event);
        });
    }
}

/// Take every recorded event out of every thread buffer, sorted by
/// `(tid, start, depth)` so each thread's parents precede their
/// children. Buffers belonging to finished threads are pruned once
/// empty; live threads keep recording into theirs.
pub fn drain_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    let mut logs = collector().logs.lock().expect("span collector poisoned");
    logs.retain(|log| {
        out.append(&mut log.events.lock().expect("span buffer poisoned"));
        // strong_count == 1 means the owning thread's TLS slot is gone.
        Arc::strong_count(log) > 1
    });
    drop(logs);
    out.sort_by_key(|e| (e.tid, e.start_ns, e.depth));
    out
}

/// Enter a hierarchical span, recorded when the returned guard drops.
///
/// ```
/// use socialrec_obs::span;
/// socialrec_obs::enable();
/// let _span = span!("sim.build");
/// let _inner = span!("sim.stream_chunk", rows = 128usize);
/// ```
///
/// Bind the guard to a named `_span`-style variable — `let _ = span!(…)`
/// drops (and records) it immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, None)
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::SpanGuard::enter($name, Some((stringify!($key), $val as u64)))
    };
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The toggle and the collector are process-global; tests that
    // enable/drain serialize on this lock so parallel test threads do
    // not steal each other's events.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_lock();
        disable();
        drain_events();
        {
            let _s = crate::span!("quiet");
        }
        assert!(drain_events().is_empty());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let _guard = test_lock();
        enable();
        drain_events();
        {
            let _outer = crate::span!("outer");
            {
                let _inner = crate::span!("inner", k = 7u64);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        disable();
        let events = drain_events();
        let outer = events.iter().find(|e| e.name == "outer").expect("outer recorded");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner recorded");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.arg, Some(("k", 7)));
        assert_eq!(outer.tid, inner.tid, "same thread, same tid");
        // Containment: the inner span lies inside the outer one.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        // Sorted parents-first within the thread.
        let oi = events.iter().position(|e| e.name == "outer").unwrap();
        let ii = events.iter().position(|e| e.name == "inner").unwrap();
        assert!(oi < ii);
    }

    #[test]
    fn threads_get_stable_distinct_tids() {
        let _guard = test_lock();
        enable();
        drain_events();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..5 {
                        let _s = crate::span!("worker");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let events = drain_events();
        let worker_events: Vec<_> = events.iter().filter(|e| e.name == "worker").collect();
        assert_eq!(worker_events.len(), 15);
        let mut tids: Vec<u32> = worker_events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each worker thread keeps one stable tid");
        for tid in tids {
            assert_eq!(worker_events.iter().filter(|e| e.tid == tid).count(), 5);
        }
        // Dead, drained buffers were pruned.
        assert!(drain_events().is_empty());
    }

    #[test]
    fn drain_is_destructive_and_sorted() {
        let _guard = test_lock();
        enable();
        drain_events();
        for _ in 0..4 {
            let _s = crate::span!("tick");
        }
        disable();
        let events = drain_events();
        assert_eq!(events.iter().filter(|e| e.name == "tick").count(), 4);
        assert!(events.windows(2).all(|w| (w[0].tid, w[0].start_ns) <= (w[1].tid, w[1].start_ns)));
        assert!(drain_events().is_empty(), "drain must take the events out");
    }
}
