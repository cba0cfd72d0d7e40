//! Workspace-wide observability for `socialrec`, hand-rolled on `std`
//! alone (the build environment has no registry access, so this crate
//! is a vendored-stand-in-style layer rather than `tracing` +
//! `metrics` + an OTLP exporter).
//!
//! Three pieces, one per module:
//!
//! * [`span!`] / [`SpanGuard`] — hierarchical wall-clock spans recorded
//!   into per-thread buffers and drained through a global collector.
//!   Tracing is **off by default**; a disabled [`span!`] costs one
//!   relaxed atomic load and constructs an inert guard, so the
//!   workspace's bit-identity and performance contracts are untouched
//!   by instrumentation (see `DESIGN.md` §7).
//! * `metrics` — lock-free [`Counter`]s, [`Gauge`]s, and the
//!   log₂-bucketed [`LatencyHistogram`], plus a named
//!   [`MetricsRegistry`] (the serving daemon keeps its per-shard
//!   counters and latency histograms in one; it is the daemon's only
//!   latency and error record).
//! * `chrome` — a Chrome trace-event-format JSON writer (loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>) with a structural
//!   self-check, and `summary`, a plain-text per-span timing table.
//! * [`json`] — the JSON reader behind every artifact check (the trace
//!   self-check, the CLI's bench and journal validators), and the one
//!   JSON string escaper.
//!
//! Plus two pieces for a running daemon:
//!
//! * [`journal`] — a bounded, non-blocking ring of typed operational
//!   events (hot swaps, budget refusals, refused queries, drift-valve
//!   restarts, …) with overwrite-oldest semantics and a drop counter,
//!   armed separately via [`arm_live`] (one relaxed-load disabled cost,
//!   same contract as [`span!`]).
//! * [`introspect`] — a std-only HTTP/1.0 [`IntrospectionServer`]
//!   bound to `127.0.0.1` serving `/metrics` (the registry, with every
//!   histogram as cumulative Prometheus buckets, so a scraper computes
//!   trailing-window quantiles and rates itself), `/health`, `/ledger`,
//!   and `/events`.
//!
//! This crate keeps no record of ε. `/ledger` reads the
//! `socialrec-dp` `PrivacyAccountant` that approves the daemon's
//! releases, handed in through [`IntrospectConfig`]; it is the one
//! record, and it is live whether or not tracing is on.
//!
//! # Testing against global state
//!
//! The enable flag, the journal's armed flag, the span collector, and
//! the [`Journal`] are all **process-global**. Tests that
//! enable/disable tracing, arm the journal, or reset/inspect the
//! journal run concurrently under `cargo test` and will steal each
//! other's state unless they serialize. Inside this crate use
//! `span::test_lock()`; tests in the CLI crate (and anything driving
//! `TraceSink`) must hold
//! `socialrec_cli::commands::trace::obs_test_lock()` for the whole
//! test body. Tests that only touch instance-local state (their own
//! `MetricsRegistry`, `Journal::new()`) need no lock.
//!
//! # Quickstart
//!
//! ```
//! use socialrec_obs as obs;
//! use socialrec_obs::span;
//!
//! obs::enable();
//! {
//!     let _outer = span!("pipeline");
//!     let _inner = span!("pipeline.stage", items = 42);
//! } // guards drop here, recording two spans
//! obs::disable();
//!
//! let events = obs::drain_events();
//! assert!(events.iter().any(|e| e.name == "pipeline.stage"));
//! let json = obs::chrome_trace_json(&events);
//! obs::validate_chrome_trace(&json).unwrap();
//! ```

#![warn(missing_docs)]

mod chrome;
pub mod introspect;
pub mod journal;
pub mod json;
mod memory;
mod metrics;
mod span;
mod summary;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceCheck};
pub use introspect::{http_get, IntrospectConfig, IntrospectionServer};
pub use journal::{arm_live, disarm_live, live_armed, EventKind, Journal, JournalSnapshot};
pub use memory::{record_memory_gauges, sample_memory, MemorySample};
pub use metrics::{
    Counter, Gauge, HistogramSummary, LatencyHistogram, MetricsRegistry, RegistrySnapshot,
};
pub use span::{disable, drain_events, enable, enabled, SpanEvent, SpanGuard};
pub use summary::{render_summary, summarize, SpanStats};
