//! Shared `--trace <out.json>` plumbing for the CLI commands.
//!
//! A command calls [`TraceSink::init`] before doing any work and
//! [`TraceSink::finish`] after: when `--trace` was given, span
//! recording is enabled for the run and the drained spans are written
//! as Chrome trace-event JSON (loadable in `chrome://tracing` or
//! Perfetto), after passing the exporter's structural self-check and a
//! per-command list of required span names. A plain-text hierarchical
//! timing summary goes to stderr so traced runs are inspectable without
//! a browser.

use socialrec_experiments::Args;

/// Serializes tests that arm the global observability layer (`--trace`
/// resets the process-wide span buffers and journal) — two such tests
/// overlapping in one test binary would corrupt each other's traces and
/// journals.
#[cfg(test)]
pub fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The `--trace` state for one CLI command invocation.
pub struct TraceSink {
    path: Option<String>,
}

impl TraceSink {
    /// Parse `--trace` and, when present, arm the observability layer:
    /// discard stale span buffers and journal events, enable span
    /// recording, and arm the journal (so traced runs capture
    /// operational events — hot swaps, refusals, restarts).
    pub fn init(args: &Args) -> TraceSink {
        let path = args.get_str("trace").map(String::from);
        if path.is_some() {
            let _ = socialrec_obs::drain_events();
            socialrec_obs::Journal::global().reset();
            socialrec_obs::enable();
            socialrec_obs::arm_live();
        }
        TraceSink { path }
    }

    /// Whether `--trace` was requested.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Disable recording, validate, and write the trace artifact. The
    /// trace must contain every span name in `required` — a command
    /// whose instrumentation silently disappears fails its own traced
    /// run rather than emitting a hollow artifact.
    pub fn finish(self, required: &[&str]) -> Result<(), String> {
        self.finish_collect(required).map(|_| ())
    }

    /// [`finish`](Self::finish), but hand the drained span events back
    /// to the caller (e.g. to publish a `hotspots` summary in a bench
    /// artifact). Untraced commands get an empty vector.
    pub fn finish_collect(
        self,
        required: &[&str],
    ) -> Result<Vec<socialrec_obs::SpanEvent>, String> {
        let Some(path) = self.path else { return Ok(Vec::new()) };
        socialrec_obs::disable();
        socialrec_obs::disarm_live();
        let events = socialrec_obs::drain_events();
        let json = socialrec_obs::chrome_trace_json(&events);
        let check = socialrec_obs::validate_chrome_trace(&json)
            .map_err(|e| format!("trace self-check failed: {e}"))?;
        for name in required {
            if !check.has_span(name) {
                return Err(format!("trace is missing the required span {name:?}"));
            }
        }
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;

        eprint!("{}", socialrec_obs::render_summary(&socialrec_obs::summarize(&events)));
        println!(
            "wrote trace {path} ({} events on {} thread lanes) — load it at ui.perfetto.dev",
            check.events,
            check.tids.len()
        );
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_required_span_fails_the_run_and_writes_no_trace() {
        let _guard = obs_test_lock();
        let path = std::env::temp_dir()
            .join(format!("socialrec-trace-missing-span-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let spec = format!("--trace {}", path.display());
        let sink = TraceSink::init(&Args::parse_from(spec.split_whitespace().map(String::from)));
        drop(socialrec_obs::span!("release"));
        let e = sink.finish(&["release", "louvain.level"]).unwrap_err();
        assert!(e.contains("missing the required span \"louvain.level\""), "{e}");
        assert!(!path.exists(), "a trace that failed its check was written");
        assert!(!socialrec_obs::enabled(), "the failed finish left span recording on");
    }
}
