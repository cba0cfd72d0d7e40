//! Sample statistics and the run's result report.

/// Standard percentiles, highest first, that a tail metric may report.
const TAIL_PERCENTILES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples a tail percentile needs beyond it before it is reported.
const TAIL_BEYOND: usize = 10;

/// A sample of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        self.0.extend(xs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n => v[rank(n, q)],
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// The highest standard percentile with at least ten samples beyond
    /// it, as `(percentile, value)`; the median when the sample is too
    /// small for any.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        let q = TAIL_PERCENTILES
            .into_iter()
            .find(|&q| n > 0 && n - 1 - rank(n, q) >= TAIL_BEYOND)
            .unwrap_or(0.5);
        (q, self.quantile(q))
    }
}

/// Index of the nearest-rank `q` quantile in a sorted sample of `n > 0`.
fn rank(n: usize, q: f64) -> usize {
    (((n - 1) as f64 * q).round() as usize).min(n - 1)
}

/// A note like `p99 of 2400` for a percentile and its sample count.
pub fn label(q: f64, n: usize) -> String {
    let pct = format!("{:.1}", q * 100.0);
    format!("p{} of {n}", pct.trim_end_matches(".0"))
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// What a run reports: its metrics, the operations it attempted and
/// the ones that failed (a failed check, a panic or a refused release).
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record a metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name: name.to_string(), value, unit, note: note.into() });
    }

    /// Count `n` operations that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one checked operation; when `ok` is false it failed, as
    /// `what` describes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// Print the metrics named in `names` (with their expected units),
    /// one per line, then the result object as the last line of standard
    /// output. A metric missing, non-finite or in another unit counts as
    /// a failure. Metrics not named go to standard error.
    pub fn emit(&mut self, names: &[(&str, &str)]) {
        for m in self.metrics.iter().filter(|m| !names.iter().any(|&(n, _)| n == m.name)) {
            eprintln!(
                "  (also measured) {:<30} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let mut problems = Vec::new();
        let mut json = Vec::new();
        for &(name, unit) in names {
            let (value, note) = match self.metrics.iter().find(|m| m.name == name) {
                None => {
                    problems.push(format!("{name} was not measured"));
                    (0.0, "not measured".to_string())
                }
                Some(m) if m.unit != unit => {
                    problems.push(format!("{name} is in {}, not {unit}", m.unit));
                    (0.0, m.note.clone())
                }
                Some(m) if !m.value.is_finite() => {
                    problems.push(format!("{name} is {}", m.value));
                    (0.0, m.note.clone())
                }
                Some(m) => (m.value, m.note.clone()),
            };
            println!("{name:<30} {value:>16.6} {unit:<6} {note}");
            json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        for p in problems {
            self.fail(p);
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let mut s = Samples::default();
        s.extend((1..=20).map(f64::from));
        assert_eq!(s.tail().0, 0.5, "20 samples support only the median");
        s.extend((21..=40).map(f64::from));
        assert_eq!(s.tail().0, 0.75);
        s.extend((41..=1200).map(f64::from));
        assert_eq!(s.tail().0, 0.99);
        assert_eq!(Samples::default().tail(), (0.5, 0.0));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::default();
        s.extend([5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(label(0.999, 7), "p99.9 of 7");
        assert_eq!(label(0.5, 7), "p50 of 7");
    }
}
