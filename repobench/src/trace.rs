//! The benchmark's own span tracer.
//!
//! `layers.rs` opens a span around every call into the library, named
//! after the layer it enters (`similarity.build`, `serve.query`, ...),
//! and the workloads open a root span around each unit of work (a
//! build, a churn round, a publish). A span records its name, its start
//! and end, the span open on the same thread when it began (its parent)
//! and the request it belongs to, which it inherits from its parent
//! unless the caller names one. Spans stay in memory until the run ends.
//!
//! The tracer is armed only in `--trace 1` runs. Disarmed, opening a
//! span costs one relaxed load. Armed, a thread can still pause its own
//! recording: clients alternate traced and untraced blocks of queries,
//! and the latency difference between them is the tracer's overhead.
//!
//! A span's self time is its duration minus its children's. Children
//! run on the parent's thread inside the parent's interval, so on each
//! thread the self times add up to the time its root spans cover, which
//! cannot exceed the run's wall time; [`check_self_times`] verifies both.

use crate::stats::Samples;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Whether this thread records while the tracer is armed.
    static RECORDING: Cell<bool> = const { Cell::new(true) };
    /// This thread's open spans, innermost last, as `(id, request)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn nanos_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// One finished span; times are nanoseconds since the tracer was armed.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span open on the same thread when this one began; 0 for none.
    pub parent: u64,
    pub request: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Arm the tracer for the rest of the process.
pub fn arm() {
    epoch();
    ARMED.store(true, Ordering::SeqCst);
}

/// Pause or resume recording on the calling thread (threads record by
/// default once the tracer is armed).
pub fn set_recording(on: bool) {
    RECORDING.with(|r| r.set(on));
}

/// Whether a span opened now on this thread would be recorded.
pub fn recording() -> bool {
    ARMED.load(Ordering::Relaxed) && RECORDING.with(Cell::get)
}

/// An open span; it records itself when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<Open>);

struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    start: Instant,
}

/// Open a span that belongs to its parent's request.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Open a span for request `request`.
pub fn span_req(name: &'static str, request: u64) -> Guard {
    open(name, Some(request))
}

fn open(name: &'static str, request: Option<u64>) -> Guard {
    if !recording() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let (parent, inherited) = open.last().copied().unwrap_or((0, 0));
        let request = request.unwrap_or(inherited);
        open.push((id, request));
        (parent, request)
    });
    Guard(Some(Open { name, id, parent, request, start: Instant::now() }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let end = Instant::now();
            OPEN.with(|o| o.borrow_mut().pop());
            let span = Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                request: open.request,
                thread: THREAD.with(|t| *t),
                start_ns: nanos_since_epoch(open.start),
                end_ns: nanos_since_epoch(end),
            };
            SPANS.lock().unwrap_or_else(PoisonError::into_inner).push(span);
        }
    }
}

/// Every span recorded so far, removed from the tracer.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Self time (ns) of every span, by span id.
pub fn self_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| (s.id, s.dur_ns().saturating_sub(children.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// Per span name: `(spans, total ns, self ns)`, name-sorted.
pub fn layer_table(
    spans: &[Span],
    selfs: &HashMap<u64, u64>,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += selfs[&s.id];
    }
    table
}

/// Check that every child lies inside its parent on the parent's
/// thread, and that each thread's self times sum to no more than
/// `wall_ns`.
pub fn check_self_times(
    spans: &[Span],
    selfs: &HashMap<u64, u64>,
    wall_ns: u64,
) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            if p.thread != s.thread || s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) is not inside its parent {}",
                    s.id, s.name, p.name
                ));
            }
        }
    }
    let mut per_thread: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *per_thread.entry(s.thread).or_default() += selfs[&s.id];
    }
    match per_thread.into_iter().find(|&(_, sum)| sum > wall_ns) {
        Some((thread, sum)) => Err(format!(
            "thread {thread}: self times sum to {sum} ns, more than the {wall_ns} ns wall time"
        )),
        None => Ok(()),
    }
}

/// The self time (ms) of the spans named in `names`, summed per request:
/// one sample per unit of work (build, round, publish) that called them.
pub fn per_request_ms(spans: &[Span], selfs: &HashMap<u64, u64>, names: &[&str]) -> Samples {
    let mut by_request: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *by_request.entry(s.request).or_default() += selfs[&s.id];
    }
    let mut out = Samples::default();
    out.extend(by_request.into_values().map(|ns| ns as f64 / 1e6));
    out
}

/// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto),
/// with each span's id, parent and request in its `args`.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{sep}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, id, parent, request: 7, thread: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_and_fits_the_wall() {
        let spans = vec![
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 50, 90),
            span("a", 4, 3, 60, 70),
        ];
        let selfs = self_ns(&spans);
        assert_eq!((selfs[&1], selfs[&2], selfs[&3], selfs[&4]), (30, 30, 30, 10));
        let table = layer_table(&spans, &selfs);
        assert_eq!(table["a"], (2, 40, 40));
        assert!(check_self_times(&spans, &selfs, 100).is_ok());
        assert!(check_self_times(&spans, &selfs, 99).is_err());
        assert_eq!(per_request_ms(&spans, &selfs, &["a", "b"]).len(), 1);
        let escaped = vec![span("root", 1, 0, 0, 100), span("late", 2, 1, 50, 120)];
        assert!(check_self_times(&escaped, &self_ns(&escaped), 1000).is_err());
    }

    #[test]
    fn guards_nest_and_inherit_the_request() {
        arm();
        {
            let _outer = span_req("outer", 42);
            let _inner = super::span("inner");
        }
        set_recording(false);
        drop(super::span("paused"));
        set_recording(true);
        let spans: Vec<Span> = take().into_iter().filter(|s| s.request == 42).collect();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert_eq!(inner.parent, outer.id);
        assert!(spans.iter().all(|s| s.name != "paused"));
    }
}
