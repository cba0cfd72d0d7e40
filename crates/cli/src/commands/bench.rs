//! What the bench commands share: the timing and quantile helpers, the
//! bitwise comparators behind their run-time equivalence checks, the
//! closed-loop client loop, the `simd` dispatch record every artifact
//! carries, and the artifact write.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::TopN;
use socialrec_experiments::{impl_to_json, json::ToJson};
use socialrec_graph::UserId;
use socialrec_serve::loadgen::Zipf;
use socialrec_similarity::SimilarityMatrix;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// A per-client RNG: deterministic, decorrelated across clients.
pub fn client_rng(seed: u64, client: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Closed-loop drive: each of `clients` threads sends `requests`
/// Zipf-drawn queries, the next the instant the previous answer
/// returns, on whatever seed `seed` holds at that moment. Once half the
/// queries are answered, `mid_run` runs on the driving thread (a hot
/// swap under load: it publishes the next release, then moves `seed`
/// to it with a `Release` store). Returns every per-query latency in
/// ns, sorted, and the phase's wall-clock ms.
pub fn drive_closed<F: Fn(UserId, u64) + Sync>(
    clients: usize,
    requests: usize,
    zipf: &Zipf,
    rng_seed: u64,
    seed: &AtomicU64,
    mid_run: impl FnOnce(),
    serve: &F,
) -> (Vec<u64>, f64) {
    let answered = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let answered = &answered;
                s.spawn(move || {
                    let mut rng = client_rng(rng_seed, c);
                    let mut lats = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        // Acquire pairs with `mid_run`'s Release store: a
                        // client that reads the new seed sees its publish.
                        let qseed = seed.load(Ordering::Acquire);
                        let u = zipf.sample_user(&mut rng);
                        let t = Instant::now();
                        serve(u, qseed);
                        lats.push(elapsed_ns(t));
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    lats
                })
            })
            .collect();
        while answered.load(Ordering::Relaxed) < clients * requests / 2
            && !handles.iter().all(|h| h.is_finished())
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        mid_run();
        handles.into_iter().flat_map(|h| h.join().expect("load client panicked")).collect()
    });
    lat.sort_unstable();
    (lat, ms(t0))
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
