//! Minimal hand-rolled JSON serialization for experiment result dumps.
//!
//! The build environment has no registry access, so instead of serde
//! the experiment binaries implement [`ToJson`] (usually via the
//! [`impl_to_json!`](crate::impl_to_json) macro) for their result
//! structs. Output is pretty-printed with two-space indentation, close
//! enough to `serde_json::to_string_pretty` for downstream plotting
//! scripts.
//!
//! Strings go through `socialrec_obs::json::write_str`, the workspace's
//! one escaper, and `socialrec_obs::json::parse` reads the output back:
//! the bench validators parse what these impls write, and this module's
//! round-trip test checks the two agree.

use socialrec_graph::DatasetStats;
use socialrec_obs::json::write_str;

/// Types that can render themselves as pretty-printed JSON.
pub trait ToJson {
    /// Append this value's JSON to `out`; `indent` is the nesting depth
    /// at which multi-line values (objects, arrays) continue.
    fn write_json(&self, out: &mut String, indent: usize);

    /// Render as a pretty-printed JSON document.
    fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Append a JSON object with the given `(key, value)` fields (helper
/// for [`impl_to_json!`](crate::impl_to_json)).
pub fn write_object(out: &mut String, indent: usize, fields: &[(&str, &dyn ToJson)]) {
    if fields.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        pad(out, indent + 1);
        write_str(out, key);
        out.push_str(": ");
        value.write_json(out, indent + 1);
        if i + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    pad(out, indent);
    out.push('}');
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _indent: usize) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _indent: usize) {
        if self.is_finite() {
            // Keep a decimal point so integral floats stay floats.
            let s = self.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        } else {
            // serde_json refuses non-finite floats; emit null instead.
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_str(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, indent: usize) {
        (**self).write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Some(v) => v.write_json(out, indent),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_slice().write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, indent: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push_str("[\n");
        for (i, v) in self.iter().enumerate() {
            pad(out, indent + 1);
            v.write_json(out, indent + 1);
            if i + 1 < self.len() {
                out.push(',');
            }
            out.push('\n');
        }
        pad(out, indent);
        out.push(']');
    }
}

macro_rules! tuple_to_json {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn write_json(&self, out: &mut String, indent: usize) {
                out.push('[');
                let mut first = true;
                $(
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    self.$idx.write_json(out, indent);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*};
}

tuple_to_json! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// Foreign result types serialized by the experiment binaries.
impl ToJson for DatasetStats {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_object(
            out,
            indent,
            &[
                ("num_users", &self.num_users),
                ("num_social_edges", &self.num_social_edges),
                ("avg_user_degree", &self.avg_user_degree),
                ("std_user_degree", &self.std_user_degree),
                ("num_items", &self.num_items),
                ("num_preference_edges", &self.num_preference_edges),
                ("avg_items_per_user", &self.avg_items_per_user),
                ("std_items_per_user", &self.std_items_per_user),
                ("sparsity", &self.sparsity),
            ],
        );
    }
}

// Observability types (the obs crate is std-only and cannot host these
// impls itself — the trait lives here).
impl ToJson for socialrec_obs::MemorySample {
    /// Raw byte counts plus derived MiB floats for human readers; the
    /// `anon_bytes` figure is the "bounded memory" metric — it excludes
    /// reclaimable file-backed (mmap) pages. See `socialrec_obs::memory`.
    fn write_json(&self, out: &mut String, indent: usize) {
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        write_object(
            out,
            indent,
            &[
                ("rss_bytes", &self.rss_bytes),
                ("peak_rss_bytes", &self.peak_rss_bytes),
                ("anon_bytes", &self.anon_bytes),
                ("rss_mib", &mib(self.rss_bytes)),
                ("peak_rss_mib", &mib(self.peak_rss_bytes)),
                ("anon_mib", &mib(self.anon_bytes)),
            ],
        );
    }
}

impl ToJson for socialrec_obs::HistogramSummary {
    /// Durations flatten to integer nanoseconds (`*_ns`). `p50_ns` /
    /// `p99_ns` are sub-bucket upper bounds from the log₂ histograms
    /// (≤ 1.25× the exact quantile) clamped to `max_ns`, so consumers
    /// must treat them as `~p50` / `~p99`, never exact quantiles.
    fn write_json(&self, out: &mut String, indent: usize) {
        let ns = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
        write_object(
            out,
            indent,
            &[
                ("count", &self.count),
                ("mean_ns", &ns(self.mean)),
                ("p50_ns", &ns(self.p50)),
                ("p99_ns", &ns(self.p99)),
                ("max_ns", &ns(self.max)),
            ],
        );
    }
}

impl ToJson for socialrec_obs::RegistrySnapshot {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_object(
            out,
            indent,
            &[
                ("counters", &self.counters),
                ("gauges", &self.gauges),
                ("histograms", &self.histograms),
            ],
        );
    }
}

/// Implement [`ToJson`] for a struct by listing its fields:
/// `impl_to_json!(Row { strategy, clusters, modularity });`
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, indent: usize) {
                $crate::json::write_object(
                    out,
                    indent,
                    &[$((stringify!($field), &self.$field as &dyn $crate::json::ToJson)),+],
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        name: String,
        score: f64,
        counts: Vec<usize>,
        tag: Option<&'static str>,
    }

    crate::impl_to_json!(Demo { name, score, counts, tag });

    #[test]
    fn scalars_and_strings() {
        assert_eq!(3usize.to_json_pretty(), "3");
        assert_eq!((-2i64).to_json_pretty(), "-2");
        assert_eq!(1.5f64.to_json_pretty(), "1.5");
        assert_eq!(2.0f64.to_json_pretty(), "2.0");
        assert_eq!(f64::NAN.to_json_pretty(), "null");
        assert_eq!(true.to_json_pretty(), "true");
        assert_eq!("a\"b\n".to_string().to_json_pretty(), r#""a\"b\n""#);
        assert_eq!(None::<usize>.to_json_pretty(), "null");
    }

    #[test]
    fn arrays_and_tuples() {
        assert_eq!(Vec::<usize>::new().to_json_pretty(), "[]");
        assert_eq!(vec![1usize, 2].to_json_pretty(), "[\n  1,\n  2\n]");
        assert_eq!((1usize, 2usize, 0.5f64, 3usize).to_json_pretty(), "[1, 2, 0.5, 3]");
    }

    #[test]
    fn obs_snapshots_render_with_ns_fields() {
        let r = socialrec_obs::MetricsRegistry::new();
        r.counter("hits").add(2);
        r.histogram("lat").record(std::time::Duration::from_millis(3));
        let json = r.snapshot().to_json_pretty();
        assert!(json.contains("[\"hits\", 2]"), "counters render as [name, value]:\n{json}");
        assert!(json.contains("\"p99_ns\":"));
        assert!(json.contains("\"max_ns\": 3000000"));
    }

    /// Serialize, parse back with the workspace's reader, compare.
    #[test]
    fn output_parses_back_to_the_same_values() {
        use socialrec_obs::json::{parse, Value};
        // Every escape class: quote, backslash, the named controls, the
        // \u00XX controls (both ends of the range), DEL and non-ASCII
        // (written raw), and a character outside the BMP.
        let name = "q\" b\\ n\n r\r t\t \u{0}\u{1}\u{8}\u{c}\u{1f} \u{7f} é 😀".to_string();
        let demo = Demo { name: name.clone(), score: f64::NAN, counts: vec![0, 7], tag: Some("t") };
        let json = (demo, u64::MAX, i64::MIN, vec![0.1, 1e-7, 2.0]).to_json_pretty();
        let int = Value::Int;
        let want = Value::Array(vec![
            Value::Object(
                [
                    ("name", Value::Str(name)),
                    ("score", Value::Null),
                    ("counts", Value::Array(vec![int(0), int(7)])),
                    ("tag", Value::Str("t".into())),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            ),
            int(u64::MAX.into()),
            int(i64::MIN.into()),
            Value::Array(vec![Value::Float(0.1), Value::Float(1e-7), Value::Float(2.0)]),
        ]);
        assert_eq!(parse(&json).unwrap(), want, "{json}");
    }

    #[test]
    fn struct_macro_renders_object() {
        let d = Demo { name: "x".into(), score: 0.25, counts: vec![4], tag: None };
        let json = d.to_json_pretty();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"name\": \"x\""));
        assert!(json.contains("\"score\": 0.25"));
        assert!(json.contains("\"counts\": [\n    4\n  ]"));
        assert!(json.contains("\"tag\": null"));
        assert!(json.ends_with('}'));
    }
}
