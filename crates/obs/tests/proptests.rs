//! Property tests pinning the histogram's two read-outs.
//!
//! The sub-bucketed `LatencyHistogram` promises: for any sample set
//! and any `q`, `quantile(q)` is at least the exact nearest-rank
//! quantile and at most 1.25× it (exact below 4ns, and never above the
//! true max) — what every consumer of `~p50` / `~p99` relies on. And
//! `/metrics` exports it as a Prometheus histogram whose every bucket
//! counts exactly the samples at or below its `le`, which is what a
//! scraper's `histogram_quantile` and `rate` rely on.

use proptest::prelude::*;
use socialrec_obs::introspect::render_prometheus;
use socialrec_obs::{IntrospectConfig, LatencyHistogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Exact nearest-rank quantile (the same definition `serve-bench`
/// uses): the ⌈q·n⌉-th smallest observation, 1-based.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    // Mix magnitudes so buckets from sub-4ns up to seconds are hit.
    proptest::collection::vec((0u32..38, 0u64..1000), 1..200).prop_map(|raw| {
        raw.into_iter().map(|(exp, off)| (1u64 << exp).saturating_add(off)).collect()
    })
}

proptest! {
    #[test]
    fn quantile_within_sub_bucket_error_of_nearest_rank(
        values in samples(),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(Duration::from_nanos(v));
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &q in &qs {
            let exact = nearest_rank(&sorted, q);
            let approx = h.quantile(q).as_nanos() as u64;
            prop_assert!(approx >= exact, "q={q}: approx {approx} under exact {exact}");
            prop_assert!(
                approx * 4 <= exact * 5 || approx == exact,
                "q={q}: approx {approx} looser than 1.25x exact {exact}"
            );
            prop_assert!(approx <= *sorted.last().unwrap(), "clamped to observed max");
        }
    }

    #[test]
    fn prometheus_buckets_count_the_samples_at_or_below_le(
        values in samples(),
        small in proptest::collection::vec(0u64..4, 0..4),
    ) {
        let values: Vec<u64> = values.into_iter().chain(small).collect();
        let registry = Arc::new(MetricsRegistry::new());
        let h = registry.histogram("t.latency");
        for &v in &values {
            h.record(Duration::from_nanos(v));
        }
        let text = render_prometheus(&IntrospectConfig { registry, accountant: Default::default() });
        prop_assert!(text.contains("# TYPE socialrec_t_latency histogram\n"));
        let (mut buckets, mut inf, mut sum, mut count) = (Vec::new(), None, None, None);
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("socialrec_t_latency") else { continue };
            let (series, value) = rest.rsplit_once(' ').expect("sample has a value");
            let value: u64 = value.parse().expect("integer sample");
            match series {
                "_bucket{le=\"+Inf\"}" => inf = Some(value),
                "_sum" => sum = Some(value),
                "_count" => count = Some(value),
                _ => {
                    if let Some(le) =
                        series.strip_prefix("_bucket{le=\"").and_then(|l| l.strip_suffix("\"}"))
                    {
                        buckets.push((le.parse::<u64>().expect("integer le"), value));
                    }
                }
            }
        }
        let n = values.len() as u64;
        prop_assert_eq!(inf, Some(n));
        prop_assert_eq!(count, Some(n));
        prop_assert_eq!(sum, Some(values.iter().sum::<u64>()));
        // One bucket per slot an observation can reach: 48 log₂ buckets
        // × 4 sub-buckets, less slots 2, 3, 6 and 7 (below 4 ns each log₂
        // bucket holds two values) and the top slot, which is `+Inf`.
        prop_assert_eq!(buckets.len(), 48 * 4 - 5);
        prop_assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "le ascends strictly");
        for &(le, c) in &buckets {
            let at_or_below = values.iter().filter(|&&v| v <= le).count() as u64;
            prop_assert_eq!(c, at_or_below, "bucket le={}", le);
        }
    }
}
