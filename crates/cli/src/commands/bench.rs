//! What the bench commands share: the timing and quantile helpers, the
//! bitwise comparators behind their run-time equivalence checks, the
//! `simd` dispatch record every artifact carries, and the artifact write.

use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::TopN;
use socialrec_experiments::{impl_to_json, json::ToJson};
use socialrec_graph::UserId;
use socialrec_similarity::SimilarityMatrix;
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds elapsed since `t`, saturating at `u64::MAX`.
pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Exact nearest-rank quantile over a sorted latency sample.
pub fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        len => sorted[(((len - 1) as f64 * q).round() as usize).min(len - 1)],
    }
}

/// Bitwise equality of two top-N lists: same user, same items, same
/// utility bits.
pub fn same_bits(a: &TopN, b: &TopN) -> bool {
    a.user == b.user
        && a.items.len() == b.items.len()
        && a.items
            .iter()
            .zip(&b.items)
            .all(|((ai, au), (bi, bu))| ai == bi && au.to_bits() == bu.to_bits())
}

/// Bitwise equality of two similarity matrices, row by row.
pub fn check_sim_bits(a: &SimilarityMatrix, b: &SimilarityMatrix) -> Result<(), String> {
    if a.num_users() != b.num_users() {
        return Err("similarity user counts diverged from the full rebuild".to_string());
    }
    for u in 0..a.num_users() {
        let (an, av) = a.row(UserId(u as u32));
        let (bn, bv) = b.row(UserId(u as u32));
        if an != bn || av.iter().zip(bv.iter()).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Err(format!("similarity row {u} diverged bitwise from the full rebuild"));
        }
    }
    Ok(())
}

/// Bitwise equality of two noisy releases.
pub fn same_release_bits(a: &NoisyClusterAverages, b: &NoisyClusterAverages) -> bool {
    a.num_clusters() == b.num_clusters()
        && a.num_items() == b.num_items()
        && a.values().iter().zip(b.values().iter()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The SIMD dispatch record every bench artifact carries: which ISA
/// tier the CPU supports, which one the kernels ran on, and any
/// `SOCIALREC_SIMD` override.
pub struct SimdInfo {
    pub detected: String,
    pub active: String,
    /// The `SOCIALREC_SIMD` override, `null` when unset.
    pub requested: Option<String>,
}

impl_to_json!(SimdInfo { detected, active, requested });

impl SimdInfo {
    /// Snapshot the process's dispatch state.
    pub fn current() -> SimdInfo {
        SimdInfo {
            detected: socialrec_simd::detected().name().to_string(),
            active: socialrec_simd::active().name().to_string(),
            requested: socialrec_simd::requested().map(|r| r.name().to_string()),
        }
    }
}

/// Write a bench report to `path` as pretty-printed JSON.
pub fn write_artifact(path: &str, report: &impl ToJson) -> Result<(), String> {
    std::fs::write(path, format!("{}\n", report.to_json_pretty()))
        .map_err(|e| format!("writing {path}: {e}"))
}
