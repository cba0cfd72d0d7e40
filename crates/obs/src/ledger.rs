//! The privacy-budget ledger: one record per differentially private
//! release.
//!
//! The paper's central accounting argument (Theorem 3 lineage) is that
//! one noisy-average release over *disjoint* clusters costs a single ε
//! by parallel composition, regardless of cluster count; separate
//! releases (rebuilds, seed changes) compose *sequentially*, so their
//! budgets add. The ledger makes both halves observable: each
//! [`ReleaseRecord`] carries the per-release ε exactly as
//! `socialrec-dp`'s `PrivacyAccountant` computed it (parallel max over
//! the per-cluster spends), and
//! [`cumulative_epsilon`](LedgerSnapshot::cumulative_epsilon) is the
//! sequential composition across every recorded release.
//!
//! Records are written by `release_noisy_cluster_averages_with` in
//! `socialrec-core` (only when tracing is enabled) and stamped with the
//! serving generation when `ShardedServer::publish_release` installs
//! the release. A daemon never produces a release itself, so a query
//! cannot add a record.

use std::sync::{Mutex, OnceLock};

/// One differentially private release of noisy cluster averages.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseRecord {
    /// Privacy budget this release consumed (parallel composition over
    /// its disjoint clusters — the accountant's `total_epsilon()`).
    pub epsilon: f64,
    /// Number of clusters in the released partition.
    pub clusters: usize,
    /// Number of items per cluster average.
    pub items: usize,
    /// Noise mechanism: `"laplace"` or `"geometric"`.
    pub noise: &'static str,
    /// Per-cluster spends the accountant folded into `epsilon` (equals
    /// `clusters`; recorded so reports can show the composition).
    pub accounted_releases: u64,
    /// Serving generation the release was published under, stamped by
    /// `ShardedServer::publish_release`; `None` until (or unless) it is
    /// published.
    pub generation: Option<u64>,
}

/// An append-only log of [`ReleaseRecord`]s.
#[derive(Debug, Default)]
pub struct PrivacyLedger {
    records: Mutex<Vec<ReleaseRecord>>,
}

impl PrivacyLedger {
    /// A fresh, empty ledger.
    pub fn new() -> PrivacyLedger {
        PrivacyLedger::default()
    }

    /// The process-wide ledger fed by the release kernel.
    pub fn global() -> &'static PrivacyLedger {
        static L: OnceLock<PrivacyLedger> = OnceLock::new();
        L.get_or_init(PrivacyLedger::new)
    }

    /// Append one release record.
    pub fn record(&self, r: ReleaseRecord) {
        self.records.lock().expect("privacy ledger poisoned").push(r);
    }

    /// Stamp the newest *unstamped* record with the serving-cache
    /// generation that consumed it. Returns `false` if every record is
    /// already stamped (or the ledger is empty) — e.g. a cache rebuild
    /// that happened while tracing was off.
    pub fn stamp_generation(&self, generation: u64) -> bool {
        let mut records = self.records.lock().expect("privacy ledger poisoned");
        match records.iter_mut().rev().find(|r| r.generation.is_none()) {
            Some(r) => {
                r.generation = Some(generation);
                true
            }
            None => false,
        }
    }

    /// Point-in-time copy of the ledger with the cumulative
    /// (sequentially composed) spend.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let records = self.records.lock().expect("privacy ledger poisoned").clone();
        let cumulative_epsilon = records.iter().map(|r| r.epsilon).sum();
        LedgerSnapshot { records, cumulative_epsilon }
    }

    /// Clear all records (used by the CLI at the start of a traced run
    /// and by tests).
    pub fn reset(&self) {
        self.records.lock().expect("privacy ledger poisoned").clear();
    }
}

/// A point-in-time copy of a [`PrivacyLedger`].
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerSnapshot {
    /// Every release recorded, oldest first.
    pub records: Vec<ReleaseRecord>,
    /// Sequential composition across releases: `Σ epsilon`.
    pub cumulative_epsilon: f64,
}

/// Render the ledger as a plain-text table.
pub fn render_ledger(snap: &LedgerSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>9} {:>7} {:<10} {:>12} {:>12}",
        "release", "epsilon", "clusters", "items", "noise", "accounted", "generation"
    );
    for (i, r) in snap.records.iter().enumerate() {
        let generation = r.generation.map_or_else(|| "-".to_string(), |g| format!("{g:012x}"));
        let _ = writeln!(
            out,
            "{:<8} {:>10.4} {:>9} {:>7} {:<10} {:>12} {:>12}",
            i, r.epsilon, r.clusters, r.items, r.noise, r.accounted_releases, generation
        );
    }
    let _ = writeln!(
        out,
        "cumulative epsilon (sequential composition over {} releases): {:.4}",
        snap.records.len(),
        snap.cumulative_epsilon
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epsilon: f64, clusters: usize) -> ReleaseRecord {
        ReleaseRecord {
            epsilon,
            clusters,
            items: 50,
            noise: "laplace",
            accounted_releases: clusters as u64,
            generation: None,
        }
    }

    #[test]
    fn cumulative_epsilon_is_sequential_composition() {
        let ledger = PrivacyLedger::new();
        ledger.record(rec(1.0, 8));
        ledger.record(rec(0.5, 16));
        let snap = ledger.snapshot();
        assert_eq!(snap.records.len(), 2);
        // Parallel composition within a release: ε independent of the
        // cluster count. Sequential across releases: budgets add.
        assert!((snap.cumulative_epsilon - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stamp_marks_newest_unstamped_record() {
        let ledger = PrivacyLedger::new();
        ledger.record(rec(1.0, 8));
        ledger.record(rec(1.0, 8));
        assert!(ledger.stamp_generation(0xabc));
        let snap = ledger.snapshot();
        assert_eq!(snap.records[0].generation, None, "older record untouched");
        assert_eq!(snap.records[1].generation, Some(0xabc));
        // Second stamp lands on the remaining unstamped record.
        assert!(ledger.stamp_generation(0xdef));
        assert_eq!(ledger.snapshot().records[0].generation, Some(0xdef));
        // Nothing left to stamp.
        assert!(!ledger.stamp_generation(0x123));
    }

    #[test]
    fn reset_clears_records() {
        let ledger = PrivacyLedger::new();
        ledger.record(rec(2.0, 4));
        ledger.reset();
        let snap = ledger.snapshot();
        assert!(snap.records.is_empty());
        assert_eq!(snap.cumulative_epsilon, 0.0);
    }

    #[test]
    fn render_lists_releases_and_cumulative() {
        let ledger = PrivacyLedger::new();
        ledger.record(rec(1.0, 8));
        ledger.stamp_generation(0x1f);
        let text = render_ledger(&ledger.snapshot());
        assert!(text.contains("laplace"));
        assert!(text.contains("cumulative epsilon"));
        assert!(text.contains("1.0000"));
        assert!(text.contains("00000000001f"));
    }
}
