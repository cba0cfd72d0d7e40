//! Bounded operational event journal: a non-blocking ring buffer of
//! typed, timestamped events ("a hot swap completed", "a release was
//! refused", "an artifact failed its open") that an operator can tail through the introspection
//! endpoint or export as JSON lines.
//!
//! # Design
//!
//! The ring holds [`CAPACITY`] cells of plain-old-data events (kind
//! code + two `u64` payload words + timestamp), so a write is a ticket
//! `fetch_add` followed by four relaxed stores and one release
//! `fetch_max` of the cell's sequence tag — no allocation, no locking,
//! and the hot path never blocks. When the ring is full the oldest
//! cell is overwritten and the drop counter increments, so `emitted =
//! retained + dropped` always holds once writers are quiescent
//! (guarded by `tests/concurrency.rs`).
//!
//! Readers snapshot cells with a seqlock-style double read of the
//! sequence tag and skip cells that changed mid-read; a torn read is
//! therefore detected, never returned. Two writers racing on the same
//! cell requires the ring to wrap ([`CAPACITY`] emissions) within one
//! write — events are operator-rate (swaps, refusals, restarts), so
//! this is unreachable in practice and at worst garbles one row: the
//! payload words may mix two events, but the tag never goes backwards,
//! so a late writer cannot put an older ticket over a newer one.
//!
//! Emission sites go through [`emit`], which gates on [`live_armed`]
//! (one relaxed load), so a daemon with the journal disarmed pays the
//! same single-load cost as every other instrumented site.

use crate::span::epoch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Ring capacity: events retained before overwrite-oldest kicks in.
pub const CAPACITY: usize = 1024;

/// The operational event types the journal records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A release was published into the exchange (`a` = generation).
    ReleasePublished,
    /// A shard flipped its epoch to a newly published release
    /// (`a` = shard index, `b` = generation).
    HotSwapCompleted,
    /// A release was refused before any noisy output was produced
    /// (`a` = refused release index, `b` = reason: 0 = budget schedule
    /// exhausted, 1 = accountant budget exceeded).
    BudgetRefusal,
    /// The incremental-Louvain drift valve forced a full restart
    /// (`a` = touched vertices in the delta, `b` = users moved by the
    /// restart).
    DriftValveRestart,
    /// A coalescing leader exited without answering batch-mates and
    /// they were requeued (`a` = requeued queries).
    CoalesceRequeue,
    /// The daemon refused a query with an empty answer (`a` = user,
    /// `b` = reason: 0 = unpublished generation, 1 = user outside the
    /// partition).
    QueryRefused,
    /// An index artifact failed its open with `InvalidData`: corrupt,
    /// truncated, of a retired width or with an out-of-range cluster id
    /// (`a` = the file's length in bytes).
    ArtifactRejected,
    /// The introspection endpoint answered a request with a status other
    /// than 200: 404, 405 or 408 (`a` = the status).
    RequestRejected,
}

impl EventKind {
    /// Stable snake_case name used in JSONL export and validation.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ReleasePublished => "release_published",
            EventKind::HotSwapCompleted => "hot_swap_completed",
            EventKind::BudgetRefusal => "budget_refusal",
            EventKind::DriftValveRestart => "drift_valve_restart",
            EventKind::CoalesceRequeue => "coalesce_requeue",
            EventKind::QueryRefused => "query_refused",
            EventKind::ArtifactRejected => "artifact_rejected",
            EventKind::RequestRejected => "request_rejected",
        }
    }

    /// Every kind, for schema validation.
    pub const ALL: [EventKind; 8] = [
        EventKind::ReleasePublished,
        EventKind::HotSwapCompleted,
        EventKind::BudgetRefusal,
        EventKind::DriftValveRestart,
        EventKind::CoalesceRequeue,
        EventKind::QueryRefused,
        EventKind::ArtifactRejected,
        EventKind::RequestRejected,
    ];

    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(c: u64) -> Option<EventKind> {
        EventKind::ALL.get(c as usize).copied()
    }

    /// Names of the two payload words for JSONL rendering.
    fn field_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::ReleasePublished => ("generation", "unused"),
            EventKind::HotSwapCompleted => ("shard", "generation"),
            EventKind::BudgetRefusal => ("release", "reason"),
            EventKind::DriftValveRestart => ("touched", "moved"),
            EventKind::CoalesceRequeue => ("requeued", "unused"),
            EventKind::QueryRefused => ("user", "reason"),
            EventKind::ArtifactRejected => ("bytes", "unused"),
            EventKind::RequestRejected => ("status", "unused"),
        }
    }
}

/// `b`-payload code for a schedule-exhausted [`EventKind::BudgetRefusal`].
pub const REFUSAL_SCHEDULE_EXHAUSTED: u64 = 0;
/// `b`-payload code for an accountant-refused [`EventKind::BudgetRefusal`].
pub const REFUSAL_BUDGET_EXCEEDED: u64 = 1;
/// `b`-payload code for a [`EventKind::QueryRefused`] whose seed names
/// no published generation.
pub const REFUSED_UNPUBLISHED_GENERATION: u64 = 0;
/// `b`-payload code for a [`EventKind::QueryRefused`] whose user lies
/// outside the partition.
pub const REFUSED_USER_OUTSIDE_PARTITION: u64 = 1;

/// One journal event, as read back out of the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Emission order (0-based ticket).
    pub seq: u64,
    /// Nanoseconds since the shared observability epoch.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word (meaning depends on `kind`).
    pub b: u64,
}

impl Event {
    /// Render this event as one JSON line (the `/events` and JSONL
    /// export format).
    pub fn to_json_line(&self) -> String {
        let (fa, fb) = self.kind.field_names();
        let mut s = format!(
            "{{\"seq\":{},\"t_ns\":{},\"event\":\"{}\",\"{}\":{}",
            self.seq,
            self.at_ns,
            self.kind.name(),
            fa,
            self.a
        );
        if fb != "unused" {
            s.push_str(&format!(",\"{}\":{}", fb, self.b));
        }
        s.push('}');
        s
    }
}

/// One ring cell. `seq` holds `ticket + 1` (0 = never written) and is
/// raised last by a release `fetch_max`, so it never goes backwards and
/// a reader that sees a stable `seq` across the double read saw
/// consistent payload words.
struct Cell {
    seq: AtomicU64,
    at: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Cell {
    const fn new() -> Cell {
        Cell {
            seq: AtomicU64::new(0),
            at: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Events currently retained, oldest first (at most
    /// [`CAPACITY`], further trimmed by the `tail` argument).
    pub events: Vec<Event>,
    /// Total events ever emitted.
    pub emitted: u64,
    /// Events overwritten by wrap-around.
    pub dropped: u64,
}

impl JournalSnapshot {
    /// The snapshot as JSON lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// The bounded operational event journal. See the module docs.
pub struct Journal {
    head: AtomicU64,
    dropped: AtomicU64,
    cells: Vec<Cell>,
}

impl Journal {
    /// A fresh, empty journal with [`CAPACITY`] cells.
    pub fn new() -> Journal {
        Journal {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cells: (0..CAPACITY).map(|_| Cell::new()).collect(),
        }
    }

    /// The process-wide journal.
    pub fn global() -> &'static Journal {
        static J: OnceLock<Journal> = OnceLock::new();
        J.get_or_init(Journal::new)
    }

    /// Record one event unconditionally (callers wanting the
    /// one-relaxed-load disabled cost go through [`emit`]).
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        let at = epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        if ticket >= CAPACITY as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let cell = &self.cells[(ticket % CAPACITY as u64) as usize];
        cell.at.store(at, Ordering::Relaxed);
        cell.kind.store(kind.code(), Ordering::Relaxed);
        cell.a.store(a, Ordering::Relaxed);
        cell.b.store(b, Ordering::Relaxed);
        cell.seq.fetch_max(ticket + 1, Ordering::Release);
    }

    /// Total events ever emitted.
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to overwrite-oldest.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the retained events, oldest first, keeping only the
    /// last `tail` (pass [`CAPACITY`] for everything). Cells that are
    /// being rewritten during the copy are skipped, never torn.
    pub fn snapshot(&self, tail: usize) -> JournalSnapshot {
        let mut events: Vec<Event> = Vec::with_capacity(CAPACITY.min(tail));
        for cell in &self.cells {
            let s1 = cell.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let at = cell.at.load(Ordering::Relaxed);
            let kind = cell.kind.load(Ordering::Relaxed);
            let a = cell.a.load(Ordering::Relaxed);
            let b = cell.b.load(Ordering::Relaxed);
            if cell.seq.load(Ordering::Acquire) != s1 {
                continue; // rewritten mid-read: skip, don't tear
            }
            let Some(kind) = EventKind::from_code(kind) else { continue };
            events.push(Event { seq: s1 - 1, at_ns: at, kind, a, b });
        }
        events.sort_by_key(|e| e.seq);
        if events.len() > tail {
            events.drain(..events.len() - tail);
        }
        JournalSnapshot { events, emitted: self.emitted(), dropped: self.dropped() }
    }

    /// Count of retained events of `kind`.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.snapshot(CAPACITY).events.iter().filter(|e| e.kind == kind).count()
    }

    /// Clear everything (test isolation and trace-run resets; not for
    /// use while writers are active).
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.seq.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

/// Switch for the global journal. `false` by default; [`emit`] checks
/// it with one relaxed load and touches nothing else when it is off.
static LIVE_ARMED: AtomicBool = AtomicBool::new(false);

/// Is the journal armed? One relaxed atomic load — the entire disabled
/// cost of every emission site.
#[inline]
pub fn live_armed() -> bool {
    LIVE_ARMED.load(Ordering::Relaxed)
}

/// Arm the journal: [`emit`] records from now on.
pub fn arm_live() {
    LIVE_ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the journal.
pub fn disarm_live() {
    LIVE_ARMED.store(false, Ordering::Relaxed);
}

/// Emit one event into the global journal iff it is armed. Disabled
/// cost: one relaxed atomic load.
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64) {
    if !live_armed() {
        return;
    }
    Journal::global().record(kind, a, b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let j = Journal::new();
        j.record(EventKind::HotSwapCompleted, 3, 2);
        j.record(EventKind::BudgetRefusal, 9999, REFUSAL_BUDGET_EXCEEDED);
        let s = j.snapshot(CAPACITY);
        assert_eq!(s.emitted, 2);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].kind, EventKind::HotSwapCompleted);
        assert_eq!(s.events[0].a, 3);
        assert_eq!(s.events[1].seq, 1);
        assert!(s.events[0].at_ns <= s.events[1].at_ns, "one thread emits in order");
    }

    #[test]
    fn overwrite_oldest_counts_drops() {
        let j = Journal::new();
        let n = CAPACITY as u64 + 10;
        for i in 0..n {
            j.record(EventKind::CoalesceRequeue, i, 0);
        }
        let s = j.snapshot(CAPACITY);
        assert_eq!(s.emitted, n);
        assert_eq!(s.dropped, 10);
        assert_eq!(s.events.len(), CAPACITY, "ring retains exactly CAPACITY");
        assert_eq!(s.emitted, s.events.len() as u64 + s.dropped, "conservation");
        // Oldest retained is the first not overwritten.
        assert_eq!(s.events[0].seq, 10);
        assert_eq!(s.events.last().unwrap().seq, n - 1);
    }

    #[test]
    fn tail_trims_to_newest() {
        let j = Journal::new();
        for i in 0..8 {
            j.record(EventKind::ReleasePublished, i, 0);
        }
        let s = j.snapshot(3);
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.events[0].seq, 5);
        assert_eq!(s.emitted, 8, "emitted counts everything, not the tail");
    }

    #[test]
    fn jsonl_has_schema_fields() {
        let j = Journal::new();
        j.record(EventKind::DriftValveRestart, 12, 34);
        j.record(EventKind::ReleasePublished, 2, 0);
        let text = j.snapshot(CAPACITY).to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_ns\":SKIP,\"event\":\"drift_valve_restart\",\"touched\":12,\"moved\":34}"
                .replace("SKIP", &j.snapshot(2).events[0].at_ns.to_string())
        );
        assert!(lines[1].contains("\"event\":\"release_published\""));
        assert!(lines[1].contains("\"generation\":2"));
        assert!(!lines[1].contains("unused"), "single-payload kinds omit the second word");
    }

    #[test]
    fn reset_empties_everything() {
        let j = Journal::new();
        j.record(EventKind::CoalesceRequeue, 1, 0);
        j.reset();
        let s = j.snapshot(CAPACITY);
        assert_eq!(s.emitted, 0);
        assert!(s.events.is_empty());
    }

    #[test]
    fn emit_is_inert_when_disarmed() {
        // Uses the global journal: serialize via the obs test lock.
        let _g = crate::span::test_lock();
        disarm_live();
        assert!(!live_armed());
        Journal::global().reset();
        emit(EventKind::HotSwapCompleted, 0, 1);
        assert_eq!(Journal::global().emitted(), 0);
        arm_live();
        assert!(live_armed());
        emit(EventKind::HotSwapCompleted, 0, 1);
        assert_eq!(Journal::global().emitted(), 1);
        disarm_live();
        Journal::global().reset();
    }
}
