//! `socialrec scale-bench` — the million-user data-path benchmark:
//! generate a planted-partition dataset, stream-build the sim-mass
//! index from the social graph straight to an artifact in bounded
//! memory, read it back, then serve sampled queries off it and sweep
//! users × {build time, open time, peak RSS, query p50/p99}.
//!
//! The point of this bench is the *memory shape*, not the speedup: at
//! no stage is the O(similarity-entries) matrix materialized. The build
//! goes through [`SimMassIndex::stream_build_artifact`], which folds
//! each user's similarity set into cluster masses as it goes and holds
//! one macro-chunk of index rows at a time; serving reads the artifact
//! into one heap buffer, checksum verified (`open_ms`).
//! `memory.anon_bytes` (RssAnon) is the bounded-memory metric: it
//! counts what the process holds, the opened index included;
//! `rss_bytes`/`peak_rss_bytes` add the file-backed pages it maps, such
//! as its own program text.
//!
//! Every sweep point also re-derives a deterministic sample of index
//! rows from scratch — a fresh similarity set against the social graph,
//! folded into a dense cluster array — and requires the artifact to
//! match under the [`ValueKind`] contract (bit-identical for f64;
//! `(x as f32)` bits for compact artifacts). The checked-in
//! `BENCH_scale.json` is validated by `socialrec validate-bench` in CI.

use crate::commands::bench::{elapsed_ns, ms, percentile_ns, write_artifact, SimdInfo};
use socialrec_community::Partition;
use socialrec_core::private::{release_noisy_cluster_averages_with, NoiseModel};
use socialrec_core::top_n_items;
use socialrec_datasets::{scale_dataset, ScaleConfig};
use socialrec_dp::Epsilon;
use socialrec_experiments::{impl_to_json, Args};
use socialrec_graph::{SocialGraph, UserId};
use socialrec_serve::kernel::{utilities_block_tiled, ITEM_TILE};
use socialrec_serve::SimMassIndex;
use socialrec_similarity::{CommonNeighbors, RowVals, SimScratch, Similarity, ValueKind};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rows re-derived from scratch per sweep point for the runtime
/// equivalence check (spread evenly over the user range).
const EQUIV_SAMPLES: usize = 32;

/// Privacy budget of each point's release.
const EPSILON: Epsilon = Epsilon::Finite(0.5);
/// List length N.
const TOP_N: usize = 10;

/// One sweep point of the scale benchmark.
struct Point {
    users: usize,
    social_edges: usize,
    clusters: usize,
    simmass_entries: u64,
    simmass_artifact_bytes: u64,
    generate_ms: f64,
    /// Graph → sim-mass artifact, the one build stage.
    simmass_build_ms: f64,
    /// Reading and verifying the artifact (`SimMassIndex::open_artifact`).
    open_ms: f64,
    release_ms: f64,
    queries: usize,
    query_p50_ns: u64,
    query_p99_ns: u64,
    /// Process memory right after this point's query phase (`null` off
    /// Linux). `anon_bytes` is the bounded-memory metric.
    memory: Option<socialrec_obs::MemorySample>,
}

impl_to_json!(Point {
    users,
    social_edges,
    clusters,
    simmass_entries,
    simmass_artifact_bytes,
    generate_ms,
    simmass_build_ms,
    open_ms,
    release_ms,
    queries,
    query_p50_ns,
    query_p99_ns,
    memory,
});

/// The `BENCH_scale.json` document.
struct Report {
    bench: String,
    seed: u64,
    epsilon: String,
    measure: String,
    value_kind: String,
    top_n: usize,
    smoke: bool,
    threads: usize,
    points: Vec<Point>,
    equivalence_checked: bool,
    /// SIMD dispatch record: the query phase's blocked kernel ran on
    /// `active`.
    simd: SimdInfo,
    /// End-of-run process memory (`null` off Linux); the peak covers
    /// every sweep point above.
    memory: Option<socialrec_obs::MemorySample>,
}

impl_to_json!(Report {
    bench,
    seed,
    epsilon,
    measure,
    value_kind,
    top_n,
    smoke,
    threads,
    points,
    equivalence_checked,
    simd,
    memory,
});

/// The deterministic user sample used for queries and equivalence
/// checks (splitmix over the slot index, like the dataset generator).
fn sample_users(n: usize, count: usize, seed: u64) -> Vec<UserId> {
    let mut x = seed ^ 0x5CA1_EB01;
    (0..count)
        .map(|i| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut h = x ^ i as u64;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            UserId(((h ^ (h >> 31)) % n as u64) as u32)
        })
        .collect()
}

/// Check that a stored value matches a freshly computed f64 under the
/// [`ValueKind`] contract: exact bits for f64 artifacts, and the bits
/// of `(fresh as f32)` (round-to-nearest-even at write time, widened
/// exactly on read) for compact artifacts.
fn value_matches(fresh: f64, stored: RowVals<'_>, i: usize) -> bool {
    match stored {
        RowVals::F64(v) => v[i].to_bits() == fresh.to_bits(),
        RowVals::F32(v) => v[i].to_bits() == (fresh as f32).to_bits(),
    }
}

/// Recompute `EQUIV_SAMPLES` sim-mass rows from scratch — a fresh
/// similarity set from the social graph, folded into a dense cluster
/// array in neighbor order — and require the artifact rows to match.
fn check_simmass_rows(
    g: &SocialGraph,
    measure: &dyn Similarity,
    partition: &Partition,
    index: &SimMassIndex,
    seed: u64,
) -> Result<(), String> {
    let n = g.num_users();
    let mut scratch = SimScratch::new(n);
    let mut set = Vec::new();
    let mut dense = vec![0.0f64; partition.num_clusters()];
    for u in sample_users(n, EQUIV_SAMPLES, seed ^ 0x52) {
        measure.similarity_set(g, u, &mut scratch, &mut set);
        for &(v, s) in &set {
            dense[partition.cluster_of(v) as usize] += s;
        }
        let (clusters, masses) = index.row_vals(u);
        let mut i = 0usize;
        for (cl, slot) in dense.iter_mut().enumerate() {
            let mass = *slot;
            *slot = 0.0;
            if mass == 0.0 {
                continue;
            }
            if i >= clusters.len() || clusters[i] as usize != cl || !value_matches(mass, masses, i)
            {
                return Err(format!(
                    "sim-mass artifact row {u:?} diverges from a fresh fold at cluster {cl}"
                ));
            }
            i += 1;
        }
        if i != clusters.len() {
            return Err(format!(
                "sim-mass artifact row {u:?} has {} extra entries",
                clusters.len() - i
            ));
        }
    }
    Ok(())
}

fn artifact_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Run one sweep point, leaving no artifact behind unless `keep`.
fn run_point(
    users: usize,
    seed: u64,
    value_kind: ValueKind,
    queries: usize,
    dir: &Path,
    keep: bool,
) -> Result<Point, String> {
    let measure = &CommonNeighbors;
    let err =
        |stage: &'static str| move |e: std::io::Error| format!("{stage} ({users} users): {e}");

    eprintln!("[{users} users] generating planted-partition dataset...");
    let t = Instant::now();
    let ds = scale_dataset(&ScaleConfig { num_users: users, seed, ..Default::default() });
    let partition = Partition::from_assignment(&ds.community);
    let generate_ms = ms(t);
    eprintln!(
        "  {generate_ms:.0} ms: {} edges, {} clusters",
        ds.social.num_edges(),
        partition.num_clusters()
    );

    // The one offline build: graph -> sim-mass artifact, folding each
    // similarity set into cluster masses as it is computed. Heap
    // high-water: one chunk of index rows, never the similarity matrix.
    let mass_path = dir.join(format!("simmass-{users}.srcsr"));
    let t = Instant::now();
    let simmass_entries = SimMassIndex::stream_build_artifact(
        &ds.social, measure, &partition, &mass_path, value_kind, 0,
    )
    .map_err(err("sim-mass stream-build"))?;
    let simmass_build_ms = ms(t);
    eprintln!(
        "  sim-mass stream-build: {simmass_build_ms:.0} ms, {simmass_entries} entries, {} MiB on disk",
        artifact_len(&mass_path) >> 20
    );
    let t = Instant::now();
    let index = SimMassIndex::open_artifact(&mass_path).map_err(err("sim-mass artifact open"))?;
    let open_ms = ms(t);
    eprintln!("  open (read + verify): {open_ms:.1} ms");

    // Serving inputs: the A_w release is clusters x items — O(users)
    // nowhere — and the index is served from the opened artifact.
    let t = Instant::now();
    let averages = release_noisy_cluster_averages_with(
        &partition,
        &ds.prefs,
        EPSILON,
        NoiseModel::Laplace,
        seed,
    );
    let release_ms = ms(t);
    eprintln!(
        "  A_w release: {release_ms:.0} ms ({} clusters x {} items)",
        partition.num_clusters(),
        averages.num_items()
    );

    // Query phase: per-user utilities + top-N off the opened index.
    let query_users = sample_users(users, queries.max(1), seed ^ 0x9E);
    let mut utilities = Vec::new();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(query_users.len());
    let mut lists = 0usize;
    for &u in &query_users {
        let t = Instant::now();
        utilities_block_tiled(&averages, &index, &[u], ITEM_TILE, &mut utilities);
        let list = top_n_items(&utilities, TOP_N);
        latencies_ns.push(elapsed_ns(t));
        lists += usize::from(!list.is_empty());
    }
    if lists == 0 {
        return Err(format!("all {queries} sampled queries returned empty lists"));
    }
    latencies_ns.sort_unstable();
    let (query_p50_ns, query_p99_ns) =
        (percentile_ns(&latencies_ns, 0.50), percentile_ns(&latencies_ns, 0.99));
    eprintln!(
        "  queries: {} served, p50 {:.1} us, p99 {:.1} us",
        query_users.len(),
        query_p50_ns as f64 / 1e3,
        query_p99_ns as f64 / 1e3
    );

    // Runtime equivalence: artifact rows vs from-scratch folds.
    check_simmass_rows(&ds.social, measure, &partition, &index, seed)?;

    // The obs gauge is the acceptance artifact: peak/current/anon RSS
    // land in the global registry and in the JSON point.
    let memory = socialrec_obs::record_memory_gauges(
        socialrec_obs::MetricsRegistry::global(),
        "scale_bench",
    );
    if let Some(m) = memory {
        eprintln!(
            "  memory: {} MiB anon (bounded-memory metric), {} MiB rss, {} MiB peak",
            m.anon_bytes >> 20,
            m.rss_bytes >> 20,
            m.peak_rss_bytes >> 20
        );
    }

    let point = Point {
        users,
        social_edges: ds.social.num_edges(),
        clusters: partition.num_clusters(),
        simmass_entries,
        simmass_artifact_bytes: artifact_len(&mass_path),
        generate_ms,
        simmass_build_ms,
        open_ms,
        release_ms,
        queries: query_users.len(),
        query_p50_ns,
        query_p99_ns,
        memory,
    };
    drop(index);
    if !keep {
        std::fs::remove_file(&mass_path).ok();
    }
    Ok(point)
}

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let smoke = args.has_flag("smoke");
    let queries = if smoke { 200 } else { 2000 };
    let seed = args.get_u64("seed", 7);
    let keep = args.has_flag("keep");
    let out_path = args.get_str("out").unwrap_or("BENCH_scale.json").to_string();
    let value_kind = match args.get_str("value-kind").unwrap_or("f32") {
        "f32" => ValueKind::F32,
        "f64" => ValueKind::F64,
        other => return Err(format!("unknown --value-kind {other:?} (expected f32 or f64)")),
    };
    let default_users = if smoke { "20000".to_string() } else { "1000000".to_string() };
    let sweep: Vec<usize> = args
        .get_str("users")
        .unwrap_or(&default_users)
        .split(',')
        .map(|s| s.trim().parse::<usize>().map_err(|e| format!("bad --users entry {s:?}: {e}")))
        .collect::<Result<_, _>>()?;
    if sweep.is_empty() {
        return Err("--users must name at least one sweep point".to_string());
    }

    let dir = args.get_str("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("socialrec-scale-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let threads = rayon::current_num_threads();
    let mut points = Vec::with_capacity(sweep.len());
    for &users in &sweep {
        points.push(run_point(users, seed, value_kind, queries, &dir, keep)?);
    }
    if !keep {
        std::fs::remove_dir(&dir).ok();
    }

    let report = Report {
        bench: "scale".to_string(),
        seed,
        epsilon: EPSILON.to_string(),
        measure: CommonNeighbors.name().to_string(),
        value_kind: match value_kind {
            ValueKind::F32 => "f32".to_string(),
            ValueKind::F64 => "f64".to_string(),
        },
        top_n: TOP_N,
        smoke,
        threads,
        points,
        equivalence_checked: true,
        simd: SimdInfo::current(),
        memory: socialrec_obs::sample_memory(),
    };
    write_artifact(&out_path, &report)?;

    println!(
        "scale-bench ({} value artifacts, eps={EPSILON}, {threads} threads)",
        report.value_kind
    );
    for p in &report.points {
        println!(
            "  {:>9} users: build {:>7.0} ms  open {:>6.1} ms  p99 {:>7.1} us  anon {:>5} MiB",
            p.users,
            p.simmass_build_ms,
            p.open_ms,
            p.query_p99_ns as f64 / 1e3,
            p.memory.map(|m| m.anon_bytes >> 20).unwrap_or(0),
        );
    }
    println!("  wrote {out_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_obs::json::Value;

    #[test]
    fn smoke_mode_writes_valid_artifact() {
        let dir = std::env::temp_dir().join("socialrec-scale-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_scale.json");
        let spec = format!(
            "--smoke --users 3000,5000 --out {} --dir {}",
            out.display(),
            dir.join("artifacts").display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();

        // The artifact must pass the real validator's scale branch.
        let vspec = format!("--path {}", out.display());
        crate::commands::validate_bench::run(&Args::parse_from(
            vspec.split_whitespace().map(String::from),
        ))
        .unwrap();
        let doc = socialrec_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        // Two sweep points requested, two recorded.
        let points = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 2);
        // The validator also admits the null written off Linux.
        #[cfg(target_os = "linux")]
        for sampled in points.iter().chain([&doc]) {
            assert!(sampled.get("memory").is_some_and(Value::is_object), "no memory sample");
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn f64_artifacts_also_pass_equivalence() {
        let dir = std::env::temp_dir().join("socialrec-scale-bench-test-f64");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_scale.json");
        let spec = format!(
            "--smoke --users 2000 --value-kind f64 --out {} --dir {}",
            out.display(),
            dir.join("artifacts").display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.contains("\"value_kind\": \"f64\""), "{body}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn rejects_bad_value_kind_and_empty_sweep() {
        let e =
            run(&Args::parse_from("--smoke --value-kind f16".split_whitespace().map(String::from)))
                .unwrap_err();
        assert!(e.contains("value-kind"), "{e}");
        let e = run(&Args::parse_from("--smoke --users nope".split_whitespace().map(String::from)))
            .unwrap_err();
        assert!(e.contains("--users"), "{e}");
    }

    #[test]
    fn sampled_users_are_deterministic_and_in_range() {
        let a = sample_users(1000, 64, 7);
        let b = sample_users(1000, 64, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|u| u.index() < 1000));
        assert_ne!(a, sample_users(1000, 64, 8), "seed must matter");
    }
}
