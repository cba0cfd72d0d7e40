//! Lock-free metric primitives and a named registry.
//!
//! [`Counter`], [`Gauge`], and [`LatencyHistogram`] are built on `std`
//! atomics with relaxed ordering: each individual value is exact
//! (fetch-add / fetch-max are atomic read-modify-writes, so no
//! increment is ever lost), while a [snapshot](MetricsRegistry::snapshot)
//! taken *during* concurrent recording is a consistent-enough
//! point-in-time copy rather than a linearizable cut. Once recording
//! threads are quiescent, every snapshot total is exact — guarded by
//! `tests/concurrency.rs`. The serving daemon registers its per-shard
//! counters and its `serve.refused` counter in its own
//! [`MetricsRegistry`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotone event counter (relaxed atomic adds).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge (e.g. current queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds, so 48 buckets reach ~78 hours.
const BUCKETS: usize = 48;

/// Linear sub-buckets per log₂ bucket. Splitting each power-of-two
/// range into 4 equal sub-ranges tightens the quantile over-estimate
/// from a factor of 2 to a factor of 1.25.
const SUBS: usize = 4;

/// Total histogram slots: `BUCKETS × SUBS`.
const SLOTS: usize = BUCKETS * SUBS;

/// Flat slot index for one observation: log₂ bucket × 4 linear
/// sub-buckets. For `nanos < 4` the sub-bucket holds exactly one
/// integer value, so small observations are stored exactly.
#[inline]
fn slot_of(nanos: u64) -> usize {
    if nanos < 4 {
        // exp 0 holds {0, 1}, exp 1 holds {2, 3}; one value per slot.
        let exp = (nanos >= 2) as usize;
        return exp * SUBS + (nanos & 1) as usize;
    }
    let exp = 63 - nanos.leading_zeros() as usize;
    if exp >= BUCKETS {
        return SLOTS - 1;
    }
    let sub = ((nanos >> (exp - 2)) & 3) as usize;
    exp * SUBS + sub
}

/// Upper bound (in nanoseconds) of slot `slot`: the smallest value
/// strictly above every observation the slot can hold — except the
/// `nanos < 4` slots, whose bound is the exact (single) value they
/// hold, and the top slot, which clamps at 2⁴⁸.
#[inline]
fn slot_bound(slot: usize) -> u64 {
    let exp = slot / SUBS;
    let sub = (slot % SUBS) as u64;
    if exp >= 2 {
        let base = 1u64 << exp;
        let step = 1u64 << (exp - 2);
        base + (sub + 1) * step
    } else {
        // Slots below 4ns hold exactly one integer value each.
        exp as u64 * 2 + sub
    }
}

/// The Prometheus `le` of slot `slot`: the largest observation it can
/// hold, in nanoseconds. `None` for the slots no observation reaches
/// (below 4 ns each log₂ bucket holds two values, so sub-buckets 2 and 3
/// of buckets 0 and 1 stay empty) and for the top slot, which also holds
/// everything above 2⁴⁸ and so is the `+Inf` bucket.
fn slot_le(slot: usize) -> Option<u64> {
    match slot {
        s if s < 2 * SUBS => (s % SUBS < 2).then(|| slot_bound(s)),
        s if s + 1 < SLOTS => Some(slot_bound(s) - 1),
        _ => None,
    }
}

/// A log₂-bucketed latency histogram with 4 linear sub-buckets per
/// power-of-two bucket.
///
/// Recording is two relaxed atomic increments plus one atomic max, so
/// worker threads can record from inside a parallel batch without
/// contention beyond the cache line of their bucket.
///
/// # Quantile semantics
///
/// [`quantile`](LatencyHistogram::quantile) reports the **upper bound**
/// of the sub-bucket holding the rank-`q` observation — an
/// over-estimate by at most a factor of 1.25 (each log₂ bucket is split
/// into 4 linear sub-ranges) — clamped to the true observed
/// [`max`](LatencyHistogram::max), so `~p99 ≤ max` holds in every
/// report. Consumers printing these values should label them `~p50` /
/// `~p99` (as `serve-bench` does), not as exact quantiles.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; SLOTS],
    total_nanos: AtomicU64,
    /// True maximum observation in nanoseconds (not a bucket bound).
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one latency observation.
    #[inline]
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[slot_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Relaxed-load copy of the flat slot counts.
    fn slot_counts(&self) -> [u64; SLOTS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Raw sum of recorded nanoseconds.
    pub(crate) fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    /// The histogram as cumulative Prometheus buckets: `(le, count)` for
    /// every slot an observation can reach, in ascending `le` (the slot's
    /// inclusive upper bound in nanoseconds), where `count` is the number
    /// of observations ≤ `le`; then the `+Inf` count, which is the total.
    /// Both come from one copy of the slot counts, so `+Inf` equals the
    /// sum of the slots even while recorders run. The `le` set is the same
    /// for every histogram and every call.
    pub(crate) fn cumulative_buckets(&self) -> (Vec<(u64, u64)>, u64) {
        let mut seen = 0u64;
        let mut buckets = Vec::with_capacity(SLOTS);
        for (slot, c) in self.slot_counts().into_iter().enumerate() {
            seen += c;
            if let Some(le) = slot_le(slot) {
                buckets.push((le, seen));
            }
        }
        (buckets, seen)
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean recorded latency (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed) / n)
    }

    /// The largest observation recorded so far (zero when empty). This
    /// is the *true* maximum, not a bucket bound.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Upper bound of the sub-bucket holding the `q`-quantile
    /// observation (`q` in `[0, 1]`), clamped to the true observed
    /// [`max`](LatencyHistogram::max); zero when empty. Sub-bucketing
    /// bounds the error to a factor of 1.25 — plenty for spotting tail
    /// blow-ups — and the clamp guarantees `quantile(q) ≤ max()` for
    /// every `q`.
    pub fn quantile(&self, q: f64) -> Duration {
        let counts = self.slot_counts();
        let n: u64 = counts.iter().sum();
        let max = self.max_nanos.load(Ordering::Relaxed);
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(slot_bound(i).min(max));
            }
        }
        Duration::from_nanos(max)
    }
}

/// Per-histogram roll-up inside a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: Duration,
    /// ~p50 (sub-bucket upper bound, ≤ 1.25× exact, clamped to `max`).
    pub p50: Duration,
    /// ~p99 (sub-bucket upper bound, ≤ 1.25× exact, clamped to `max`).
    pub p99: Duration,
    /// True maximum observation.
    pub max: Duration,
}

/// A get-or-create registry of named metrics.
///
/// Callers hold the returned `Arc` and record through it directly (the
/// registry is only consulted at setup time, never on the hot path).
/// Names are owned `String`s so dynamically shaped components (e.g. one
/// counter per serving shard: `"serve.shard3.queries"`) can register
/// themselves. Linear name lookup is deliberate: registries hold tens
/// of metrics, not thousands, and a `Vec` keeps this crate
/// dependency-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<LatencyHistogram>)>>,
}

fn get_or_create<T: Default>(slot: &Mutex<Vec<(String, Arc<T>)>>, name: String) -> Arc<T> {
    let mut v = slot.lock().expect("metrics registry poisoned");
    if let Some((_, m)) = v.iter().find(|(n, _)| *n == name) {
        return Arc::clone(m);
    }
    let m = Arc::new(T::default());
    v.push((name, Arc::clone(&m)));
    m
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static R: OnceLock<MetricsRegistry> = OnceLock::new();
        R.get_or_init(MetricsRegistry::new)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: impl Into<String>) -> Arc<Counter> {
        get_or_create(&self.counters, name.into())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: impl Into<String>) -> Arc<Gauge> {
        get_or_create(&self.gauges, name.into())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: impl Into<String>) -> Arc<LatencyHistogram> {
        get_or_create(&self.histograms, name.into())
    }

    /// Every registered histogram, name-sorted (the `/metrics` bucket
    /// export reads them directly).
    pub(crate) fn histogram_handles(&self) -> Vec<(String, Arc<LatencyHistogram>)> {
        let mut v = self.histograms.lock().expect("metrics registry poisoned").clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// A point-in-time copy of every registered metric, name-sorted so
    /// the output (and its JSON rendering) is deterministic.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSummary)> = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(n, h)| {
                (
                    n.to_string(),
                    HistogramSummary {
                        count: h.count(),
                        mean: h.mean(),
                        p50: h.quantile(0.5),
                        p99: h.quantile(0.99),
                        max: h.max(),
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_boundaries() {
        // Values below 4ns each get their own slot with an exact bound.
        for v in 0..4u64 {
            assert_eq!(slot_bound(slot_of(v)), v);
        }
        assert_eq!(slot_of(0), 0);
        assert_eq!(slot_of(1), 1);
        assert_eq!(slot_of(2), SUBS);
        assert_eq!(slot_of(3), SUBS + 1);
        // 1024 = 2^10 exactly: first sub-bucket of bucket 10.
        assert_eq!(slot_of(1024), 10 * SUBS);
        assert_eq!(slot_bound(slot_of(1024)), 1024 + 256);
        // 100 sits in [64,128): sub = (100 >> 4) & 3 = 2, bound 112.
        assert_eq!(slot_of(100), 6 * SUBS + 2);
        assert_eq!(slot_bound(slot_of(100)), 112);
        assert_eq!(slot_of(u64::MAX), SLOTS - 1);
    }

    #[test]
    fn bucket_bounds_skip_unreachable_slots_and_ascend() {
        let les: Vec<u64> = (0..SLOTS).filter_map(slot_le).collect();
        // Slots 2, 3, 6, 7 hold nothing; the top slot is `+Inf`.
        assert_eq!(les.len(), SLOTS - 5);
        assert_eq!(&les[..6], &[0, 1, 2, 3, 4, 5]);
        assert!(les.windows(2).all(|w| w[0] < w[1]));
        // Each `le` is the largest value its slot holds.
        for slot in (0..SLOTS - 1).filter(|&s| slot_le(s).is_some()) {
            let le = slot_le(slot).unwrap();
            assert_eq!(slot_of(le), slot);
            assert_ne!(slot_of(le + 1), slot);
        }
        let h = LatencyHistogram::new();
        for v in [0u64, 3, 100, 111, 112, 1 << 50] {
            h.record(Duration::from_nanos(v));
        }
        let (buckets, total) = h.cumulative_buckets();
        assert_eq!(total, 6);
        let at = |le: u64| buckets.iter().find(|b| b.0 == le).unwrap().1;
        assert_eq!((at(0), at(3), at(111), at(127)), (1, 2, 4, 5));
        assert_eq!(buckets.last().unwrap().1, 5, "2⁵⁰ ns lands only in +Inf");
    }

    #[test]
    fn slot_bound_covers_and_stays_tight() {
        // For every representable value, the bound is ≥ the value and
        // at most 1.25× it (exact below 4ns; top bucket clamps at 2⁴⁸).
        for exp in 0..47u32 {
            for v in [1u64 << exp, (1u64 << exp) + 1, (1u64 << (exp + 1)) - 1] {
                let b = slot_bound(slot_of(v));
                assert!(b >= v, "bound {b} below value {v}");
                assert!(b * 4 <= v * 5, "bound {b} looser than 1.25x for {v}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // slot [96, 112) of bucket 6
        }
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 100);
        // Median sits in the 100ns sub-bucket, the tail in the 100µs one.
        assert_eq!(h.quantile(0.5), Duration::from_nanos(112));
        assert_eq!(h.max(), Duration::from_micros(100));
        assert!(h.quantile(1.0) >= Duration::from_micros(100));
        let m = h.mean();
        assert!(m > Duration::from_nanos(100) && m < Duration::from_micros(2));
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        // All observations in one sub-bucket: its upper bound (112)
        // would overshoot the true max (100), so the clamp must win.
        let h = LatencyHistogram::new();
        for _ in 0..50 {
            h.record(Duration::from_nanos(100));
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(h.quantile(q) <= h.max(), "quantile({q}) exceeds max");
        }
        assert_eq!(h.quantile(0.99), Duration::from_nanos(100));
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn registry_get_or_create_returns_same_metric() {
        let r = MetricsRegistry::new();
        let a = r.counter("requests");
        let b = r.counter("requests");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(3);
        assert_eq!(b.get(), 3);
        let h = r.histogram("latency");
        h.record(Duration::from_micros(10));
        r.gauge("depth").set(2);

        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("requests".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("depth".to_string(), 2)]);
        assert_eq!(snap.histograms.len(), 1);
        let (name, hs) = &snap.histograms[0];
        assert_eq!(name, "latency");
        assert_eq!(hs.count, 1);
        assert_eq!(hs.max, Duration::from_micros(10));
        assert!(hs.p99 <= hs.max);
    }

    #[test]
    fn registry_accepts_owned_names() {
        // Per-shard metrics build their names at runtime.
        let r = MetricsRegistry::new();
        for shard in 0..3 {
            r.counter(format!("serve.shard{shard}.queries")).add(shard + 1);
        }
        let again = r.counter("serve.shard1.queries".to_string());
        assert_eq!(again.get(), 2, "owned and rebuilt names must alias");
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 3);
        assert_eq!(snap.counters[0].0, "serve.shard0.queries");
    }

    #[test]
    fn registry_snapshot_is_name_sorted() {
        let r = MetricsRegistry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
