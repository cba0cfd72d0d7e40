//! Process-memory sampling for benchmark artifacts.
//!
//! The scale benchmarks claim "bounded memory", and a claim like that
//! needs a number in the artifact, not a narrative. [`MemorySample`]
//! reads the kernel's own accounting from `/proc/self/status`:
//!
//! * `VmRSS` — resident set right now, **including** resident
//!   file-backed pages the process maps (the kernel can drop those at
//!   will);
//! * `VmHWM` — the high-water mark of `VmRSS` over the process
//!   lifetime, the usual "peak RSS" figure;
//! * `RssAnon` — anonymous (heap/stack) resident memory only. This is
//!   the "bounded memory" metric of the scale benchmark: it counts
//!   everything the process holds, an index artifact read into the
//!   heap included, and nothing the kernel could reclaim, so a
//!   streaming build that writes its output to disk but keeps scratch
//!   small stays small *here*.
//!
//! Off Linux (or when `/proc` is absent) sampling returns `None` and
//! report writers emit nothing — no stubs, no zeros masquerading as
//! measurements.

use std::fs;

/// One reading of the process's memory counters, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemorySample {
    /// Current resident set (`VmRSS`), file-backed pages included.
    pub rss_bytes: u64,
    /// Lifetime peak resident set (`VmHWM`).
    pub peak_rss_bytes: u64,
    /// Current anonymous resident memory (`RssAnon`); `0` on kernels
    /// too old to report it.
    pub anon_bytes: u64,
}

/// Sample the current process's memory counters. Returns `None` where
/// `/proc/self/status` is unavailable (non-Linux) or unparsable.
pub fn sample_memory() -> Option<MemorySample> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_status(&status)
}

/// Parse the `Vm*`/`Rss*` lines of a `/proc/<pid>/status` blob.
/// Separated from [`sample_memory`] so the format handling is testable
/// on any platform.
fn parse_status(status: &str) -> Option<MemorySample> {
    let mut rss = None;
    let mut hwm = None;
    let mut anon = 0u64;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss = parse_kib(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            hwm = parse_kib(rest);
        } else if let Some(rest) = line.strip_prefix("RssAnon:") {
            anon = parse_kib(rest).unwrap_or(0);
        }
    }
    Some(MemorySample { rss_bytes: rss?, peak_rss_bytes: hwm?, anon_bytes: anon })
}

/// Parse a `/proc` status value of the form `"    1234 kB"` to bytes.
fn parse_kib(rest: &str) -> Option<u64> {
    let rest = rest.trim();
    let digits = rest.strip_suffix("kB")?.trim();
    digits.parse::<u64>().ok().map(|k| k * 1024)
}

/// Record the current memory sample into `registry` gauges named
/// `<prefix>.rss_bytes`, `<prefix>.peak_rss_bytes`, and
/// `<prefix>.anon_bytes`. A no-op where sampling is unavailable.
/// Returns the sample so callers can also embed it in reports.
pub fn record_memory_gauges(
    registry: &crate::MetricsRegistry,
    prefix: &str,
) -> Option<MemorySample> {
    let sample = sample_memory()?;
    registry.gauge(format!("{prefix}.rss_bytes")).set(sample.rss_bytes as i64);
    registry.gauge(format!("{prefix}.peak_rss_bytes")).set(sample.peak_rss_bytes as i64);
    registry.gauge(format!("{prefix}.anon_bytes")).set(sample.anon_bytes as i64);
    Some(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_typical_status_blob() {
        let blob = "Name:\tsocialrec\nVmPeak:\t  201000 kB\nVmHWM:\t   12345 kB\n\
                    VmRSS:\t   10000 kB\nRssAnon:\t    9000 kB\nRssFile:\t 1000 kB\n";
        let s = parse_status(blob).unwrap();
        assert_eq!(s.rss_bytes, 10_000 * 1024);
        assert_eq!(s.peak_rss_bytes, 12_345 * 1024);
        assert_eq!(s.anon_bytes, 9_000 * 1024);
    }

    #[test]
    fn missing_rss_anon_degrades_to_zero_but_missing_rss_fails() {
        let s = parse_status("VmHWM:\t 5 kB\nVmRSS:\t 4 kB\n").unwrap();
        assert_eq!(s.anon_bytes, 0);
        assert!(parse_status("VmHWM:\t 5 kB\n").is_none());
        assert!(parse_status("garbage").is_none());
    }

    #[test]
    fn rejects_malformed_values() {
        assert!(parse_kib("  12x34 kB").is_none());
        assert!(parse_kib("  1234").is_none());
        assert_eq!(parse_kib("  1234 kB"), Some(1234 * 1024));
    }

    #[test]
    fn tolerates_weird_whitespace_shapes() {
        // Kernels pad with tabs, spaces, or both; the parser must not
        // care. Mixed paddings per line, no trailing newline, and a
        // value crammed against the unit label.
        let blob = "VmHWM:        22 kB\nVmRSS:\t\t 20 kB\nRssAnon: \t 18 kB";
        let s = parse_status(blob).unwrap();
        assert_eq!(s.peak_rss_bytes, 22 * 1024);
        assert_eq!(s.rss_bytes, 20 * 1024);
        assert_eq!(s.anon_bytes, 18 * 1024);
        assert_eq!(parse_kib("\t  7 kB  "), Some(7 * 1024), "trailing blanks after the unit");
        assert_eq!(parse_kib("0 kB"), Some(0), "no padding at all");
        assert!(parse_kib("12 kB extra").is_none(), "junk after the unit is rejected");
        assert!(parse_kib("12 KB").is_none(), "unit label is case-sensitive like the kernel's");
    }

    #[test]
    fn ignores_lookalike_keys_and_keeps_last_duplicate() {
        // Keys that merely *contain* the interesting names must not
        // match (prefix discipline), and a duplicated key keeps the
        // last occurrence, mirroring a sequential read of the file.
        let blob = "NonVmRSS:\t 1 kB\nVmRSSExtra:\t 2 kB\nVmHWM:\t 9 kB\n\
                    VmRSS:\t 5 kB\nVmRSS:\t 6 kB\nRssAnonHuge:\t 3 kB\n";
        let s = parse_status(blob).unwrap();
        assert_eq!(s.rss_bytes, 6 * 1024, "last duplicate wins");
        assert_eq!(s.anon_bytes, 0, "RssAnonHuge must not satisfy RssAnon");
        assert_eq!(s.peak_rss_bytes, 9 * 1024);
    }

    #[test]
    fn malformed_required_line_fails_the_whole_sample() {
        // A present-but-unparsable VmRSS must yield None, not zero:
        // the artifacts promise "no zeros masquerading as
        // measurements".
        assert!(parse_status("VmHWM:\t 5 kB\nVmRSS:\t five kB\n").is_none());
        assert!(parse_status("VmHWM:\t 5 mB\nVmRSS:\t 4 kB\n").is_none());
        assert!(parse_status("").is_none());
    }

    #[cfg(not(target_os = "linux"))]
    #[test]
    fn non_linux_sampling_is_none_and_gauges_stay_empty() {
        // Off Linux there is no /proc/self/status: sampling returns
        // None and the gauge recorder registers nothing.
        assert_eq!(sample_memory(), None);
        let registry = crate::MetricsRegistry::new();
        assert_eq!(record_memory_gauges(&registry, "test.mem"), None);
        assert!(registry.snapshot().gauges.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_sample_is_sane_and_peak_dominates_current() {
        let s = sample_memory().expect("Linux must expose /proc/self/status");
        assert!(s.rss_bytes > 0, "a running process has resident pages");
        assert!(s.peak_rss_bytes >= s.rss_bytes, "high-water mark below current RSS");
        // Allocate noticeably and watch anon memory move (coarse: just
        // require the counters to still parse and peak to still hold).
        let hog = vec![7u8; 8 << 20];
        std::hint::black_box(&hog);
        let after = sample_memory().unwrap();
        assert!(after.peak_rss_bytes >= after.rss_bytes);
    }

    #[test]
    fn gauges_record_when_sampling_works() {
        let registry = crate::MetricsRegistry::new();
        let recorded = record_memory_gauges(&registry, "test.mem");
        if let Some(s) = recorded {
            let snap = registry.snapshot();
            let get =
                |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap();
            assert_eq!(get("test.mem.rss_bytes"), s.rss_bytes as i64);
            assert_eq!(get("test.mem.peak_rss_bytes"), s.peak_rss_bytes as i64);
            assert_eq!(get("test.mem.anon_bytes"), s.anon_bytes as i64);
        }
    }
}
