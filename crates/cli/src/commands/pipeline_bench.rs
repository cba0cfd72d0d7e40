//! `socialrec pipeline-bench` — end-to-end offline-pipeline timing:
//! similarity build → Louvain clustering (the paper's 10-restart
//! protocol) → `A_w` noisy release → top-N recommendation, parallel
//! versus the sequential reference path, at `flixster_like` scales.
//!
//! Every stage is checked against its sequential reference at run time
//! (bit-identical similarity rows, partition, release bytes, and
//! recommendation lists), so the bench doubles as an integration-level
//! equivalence test. Stage times are the minimum over `--reps` runs
//! (default 2), which filters first-touch page faults and scheduler
//! noise on small shared machines. Results are written as a
//! `BENCH_pipeline.json` trajectory artifact so perf PRs are measured,
//! not asserted; the artifact's shape is enforced by `socialrec
//! validate-bench` in CI.

use crate::commands::trace::TraceSink;
use socialrec_community::{Louvain, LouvainResult};
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::private::{
    release_noisy_cluster_averages_reference, release_noisy_cluster_averages_with,
    ClusterFramework, NoiseModel,
};
use socialrec_core::{top_n_items_reference, RecommenderInputs, TopN};
use socialrec_datasets::flixster_like;
use socialrec_dp::Epsilon;
use socialrec_experiments::{impl_to_json, json::ToJson, Args};
use socialrec_graph::UserId;
use socialrec_serve::kernel::{utilities_block_tiled, ITEM_TILE, USER_BLOCK};
use socialrec_serve::{ShardedServer, SimMassIndex};
use socialrec_simd::Isa;
use socialrec_similarity::{parse_measure, SimilarityMatrix};
use std::time::Instant;

/// Minimum per-kernel speedup the SIMD acceptance gate demands on an
/// AVX2 machine (non-smoke, no scalar override): at least one ported
/// kernel must measurably beat its scalar-forced baseline.
const SIMD_GATE_SPEEDUP: f64 = 1.1;

/// One pipeline stage's sequential-vs-parallel timing.
struct Stage {
    stage: String,
    sequential_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

impl Stage {
    fn new(stage: &str, sequential_ms: f64, parallel_ms: f64) -> Stage {
        Stage {
            stage: stage.to_string(),
            sequential_ms,
            parallel_ms,
            speedup: sequential_ms / parallel_ms.max(1e-9),
        }
    }
}

impl_to_json!(Stage { stage, sequential_ms, parallel_ms, speedup });

/// One grid point of the `--tune` ITEM_TILE × USER_BLOCK sweep.
struct TunePoint {
    item_tile: usize,
    user_block: usize,
    ms: f64,
}

impl_to_json!(TunePoint { item_tile, user_block, ms });

/// The `--tune` sweep result: the full grid plus the winning
/// configuration, next to the compiled-in defaults so a future PR can
/// see at a glance whether the constants still match the hardware.
struct TuneReport {
    grid: Vec<TunePoint>,
    best_item_tile: usize,
    best_user_block: usize,
    best_ms: f64,
    default_item_tile: usize,
    default_user_block: usize,
}

impl_to_json!(TuneReport {
    grid,
    best_item_tile,
    best_user_block,
    best_ms,
    default_item_tile,
    default_user_block,
});

/// One vectorized kernel's measured speedup against its scalar-forced
/// baseline (same workload, same process, `socialrec_simd::force`).
struct SimdKernel {
    kernel: String,
    scalar_ms: f64,
    simd_ms: f64,
    speedup: f64,
}

impl_to_json!(SimdKernel { kernel, scalar_ms, simd_ms, speedup });

/// The run's SIMD dispatch record: what the CPU supports, what tier the
/// kernels actually ran on, any `SOCIALREC_SIMD` override, and the
/// per-kernel scalar-vs-SIMD attribution. `gate_bound` is true on
/// non-smoke AVX2 machines, where `gate_met` must report a measured
/// kernel-level speedup (enforced by `validate-bench`).
struct SimdReport {
    detected: String,
    active: String,
    requested: Option<String>,
    kernels: Vec<SimdKernel>,
    gate_bound: bool,
    gate_met: bool,
}

impl_to_json!(SimdReport { detected, active, requested, kernels, gate_bound, gate_met });

/// One span's aggregate in the `hotspots` block: flamegraph-style
/// per-stage attribution from `crates/obs`, published with every run so
/// perf PRs can cite before/after numbers from the artifact alone.
struct Hotspot {
    span: String,
    count: u64,
    total_ms: f64,
    mean_us: f64,
    p99_us: f64,
    max_us: f64,
    depth: u16,
}

impl_to_json!(Hotspot { span, count, total_ms, mean_us, p99_us, max_us, depth });

fn hotspots_from(events: &[socialrec_obs::SpanEvent]) -> Vec<Hotspot> {
    socialrec_obs::summarize(events)
        .iter()
        .map(|s| Hotspot {
            span: s.name.to_string(),
            count: s.count,
            total_ms: s.total.as_secs_f64() * 1e3,
            mean_us: s.mean.as_secs_f64() * 1e6,
            p99_us: s.p99.as_secs_f64() * 1e6,
            max_us: s.max.as_secs_f64() * 1e6,
            depth: s.depth,
        })
        .collect()
}

/// The `BENCH_pipeline.json` document.
struct Report {
    bench: String,
    dataset: String,
    scale: f64,
    seed: u64,
    epsilon: String,
    measure: String,
    restarts: usize,
    reps: usize,
    top_n: usize,
    smoke: bool,
    threads: usize,
    users: usize,
    items: usize,
    clusters: usize,
    stages: Vec<Stage>,
    end_to_end_sequential_ms: f64,
    end_to_end_parallel_ms: f64,
    end_to_end_speedup: f64,
    equivalence_checked: bool,
    /// The recommend stage's daemon registry (per-shard counters).
    serve_metrics: socialrec_obs::RegistrySnapshot,
    /// SIMD dispatch + per-kernel scalar-vs-SIMD attribution.
    simd: SimdReport,
    /// `--tune` sweep (`null` when the flag was not given).
    tune: Option<TuneReport>,
    /// Per-span aggregates for the whole run (always present).
    hotspots: Vec<Hotspot>,
    /// Process memory at the end of the run (`null` off Linux); the
    /// peak covers every stage above.
    memory: Option<socialrec_obs::MemorySample>,
}

impl_to_json!(Report {
    bench,
    dataset,
    scale,
    seed,
    epsilon,
    measure,
    restarts,
    reps,
    top_n,
    smoke,
    threads,
    users,
    items,
    clusters,
    stages,
    end_to_end_sequential_ms,
    end_to_end_parallel_ms,
    end_to_end_speedup,
    equivalence_checked,
    serve_metrics,
    simd,
    tune,
    hotspots,
    memory,
});

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` `reps` times, returning its (deterministic) result and the
/// fastest wall-clock time in ms. Min-of-reps filters out first-touch
/// page faults and scheduler noise, which on small shared machines can
/// dwarf the actual algorithmic cost of a stage.
fn timed_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        best_ms = best_ms.min(ms(t));
        out = Some(v);
    }
    (out.expect("reps >= 1"), best_ms)
}

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let smoke = args.has_flag("smoke");
    let scale = args.get_f64("scale", if smoke { 0.005 } else { 0.15 });
    let seed = args.get_u64("seed", 7);
    let epsilon: Epsilon = args.get_str("epsilon").unwrap_or("0.5").parse()?;
    let restarts = args.get_usize("restarts", if smoke { 3 } else { 10 }).max(1);
    let reps = args.get_usize("reps", if smoke { 1 } else { 2 }).max(1);
    let n = args.get_usize("n", 10);
    let measure = parse_measure(args.get_str("measure").unwrap_or("CN"))?;
    let tune_requested = args.has_flag("tune");
    let out_path = args.get_str("out").unwrap_or("BENCH_pipeline.json").to_string();
    let threads = rayon::current_num_threads();
    let trace = TraceSink::init(args);
    if !trace.active() {
        // Arm the span layer even untraced so every run publishes the
        // `hotspots` attribution block (same reset discipline as a
        // traced run: stale events are discarded).
        let _ = socialrec_obs::drain_events();
        socialrec_obs::enable();
    }

    eprintln!("generating flixster_like(scale={scale}, seed={seed})...");
    let ds = flixster_like(scale, seed);
    let num_users = ds.social.num_users();
    eprintln!("  {} users, {} items, {threads} threads", num_users, ds.prefs.num_items());

    // Stage 1 — similarity build. The parallel shared-row build must
    // reproduce the sequential build bit for bit.
    eprintln!("sim-build: sequential {} reference x{reps}...", measure.name());
    let (sim_seq, sim_seq_ms) =
        timed_min(reps, || SimilarityMatrix::build_sequential(&ds.social, measure.as_ref()));
    eprintln!("  {sim_seq_ms:.0} ms ({} entries)", sim_seq.num_entries());

    eprintln!("sim-build: parallel build x{reps}...");
    let (sim, sim_par_ms) =
        timed_min(reps, || SimilarityMatrix::build(&ds.social, measure.as_ref()));
    eprintln!("  {sim_par_ms:.0} ms");
    check_sim_equivalence(&sim_seq, &sim)?;
    drop(sim_seq);

    // Stage 2 — Louvain clustering, the paper's best-of-restarts
    // protocol. Sequential reference first, parallel second; the
    // results must be bit-identical.
    let louvain = Louvain { seed, ..Default::default() };
    eprintln!("clustering: sequential x{restarts} restarts...");
    let (seq_cluster, cluster_seq_ms) =
        timed_min(reps, || louvain.run_best_of_sequential(&ds.social, restarts));
    eprintln!("  {cluster_seq_ms:.0} ms (Q = {:.4})", seq_cluster.modularity);

    eprintln!("clustering: parallel x{restarts} restarts...");
    let (par_cluster, cluster_par_ms) =
        timed_min(reps, || louvain.run_best_of(&ds.social, restarts));
    eprintln!("  {cluster_par_ms:.0} ms ({} clusters)", par_cluster.partition.num_clusters());
    check_cluster_equivalence(&seq_cluster, &par_cluster)?;
    let partition = par_cluster.partition;

    // Stage 3 — the A_w noisy release. Byte-identity is asserted over
    // the full value matrix for the configured noise model.
    eprintln!("A_w release: sequential reference...");
    let (seq_release, release_seq_ms) = timed_min(reps, || {
        release_noisy_cluster_averages_reference(
            &partition,
            &ds.prefs,
            epsilon,
            NoiseModel::Laplace,
            seed,
        )
    });
    eprintln!("  {release_seq_ms:.0} ms");

    eprintln!("A_w release: parallel sharded kernel...");
    let (par_release, release_par_ms) = timed_min(reps, || {
        release_noisy_cluster_averages_with(
            &partition,
            &ds.prefs,
            epsilon,
            NoiseModel::Laplace,
            seed,
        )
    });
    eprintln!("  {release_par_ms:.0} ms");
    let identical = seq_release.values().len() == par_release.values().len()
        && seq_release
            .values()
            .iter()
            .zip(par_release.values())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !identical {
        return Err("parallel A_w release is not byte-identical to the reference".to_string());
    }

    // Stage 4 — recommendation over every user. The sequential
    // reference is the framework's per-user utility walk with the
    // reference top-N heap; the parallel path is the serving daemon's
    // blocked batch (sim-mass index build + release + publish + tiled
    // kernel), which must reproduce the reference lists bit for bit.
    let fw = ClusterFramework::new(&partition, epsilon);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let users: Vec<UserId> = (0..num_users as u32).map(UserId).collect();

    eprintln!("recommend: sequential top-{n} for all {num_users} users...");
    let (seq_lists, recommend_seq_ms) = timed_min(reps, || {
        let averages = fw.noisy_cluster_averages(&inputs, seed);
        let (mut sim_scratch, mut utilities) = (Vec::new(), Vec::new());
        users
            .iter()
            .map(|&u| {
                fw.utility_estimates_into(&inputs, &averages, u, &mut sim_scratch, &mut utilities);
                TopN { user: u, items: top_n_items_reference(&utilities, n) }
            })
            .collect::<Vec<TopN>>()
    });
    eprintln!("  {recommend_seq_ms:.0} ms");

    // The parallel path is the serving daemon end-to-end: sim-mass
    // index build + release + publish into a one-shard daemon + blocked
    // batch (a fresh daemon per rep, so every rep pays the full cold
    // cost like the reference).
    eprintln!("recommend: published daemon batch for all {num_users} users...");
    let ((par_lists, serve_metrics), recommend_par_ms) = timed_min(reps, || {
        let daemon = ShardedServer::new(&partition, &sim, epsilon, 1);
        daemon.publish_release(seed, fw.noisy_cluster_averages(&inputs, seed));
        let lists = daemon.recommend_batch(&inputs, &users, n, seed);
        (lists, daemon.registry().snapshot())
    });
    eprintln!("  {recommend_par_ms:.0} ms ({} lists)", par_lists.len());
    check_recommend_equivalence(&seq_lists, &par_lists)?;

    // SIMD attribution: re-run the serving kernel scalar-forced and on
    // the dispatched tier, in this same process, asserting bit-identity
    // between the two (the §6d contract at bench scale).
    let index = socialrec_serve::SimMassIndex::build(&sim, &partition);
    let averages = fw.noisy_cluster_averages(&inputs, seed);
    let simd = simd_attribution(&averages, &index, &users, reps, smoke)?;

    // `--tune`: sweep the blocked kernel's ITEM_TILE × USER_BLOCK grid
    // over the full user population and record the winner.
    let tune =
        if tune_requested { Some(tune_sweep(&averages, &index, &users, reps)) } else { None };

    // Close the span stream (writing the trace artifact if requested)
    // and fold the events into the hotspots block.
    let events = if trace.active() {
        trace.finish_collect(&[
            "sim.build",
            "louvain.level",
            "release",
            "update.publish",
            "serve.shard_batch",
        ])?
    } else {
        socialrec_obs::disable();
        socialrec_obs::drain_events()
    };
    let hotspots = hotspots_from(&events);

    let stages = vec![
        Stage::new("sim-build", sim_seq_ms, sim_par_ms),
        Stage::new("cluster", cluster_seq_ms, cluster_par_ms),
        Stage::new("release", release_seq_ms, release_par_ms),
        Stage::new("recommend", recommend_seq_ms, recommend_par_ms),
    ];
    let end_seq: f64 = stages.iter().map(|s| s.sequential_ms).sum();
    let end_par: f64 = stages.iter().map(|s| s.parallel_ms).sum();
    let end_speedup = end_seq / end_par.max(1e-9);

    let report = Report {
        bench: "pipeline".to_string(),
        dataset: ds.name.clone(),
        scale,
        seed,
        epsilon: epsilon.to_string(),
        measure: measure.name().to_string(),
        restarts,
        reps,
        top_n: n,
        smoke,
        threads,
        users: num_users,
        items: ds.prefs.num_items(),
        clusters: partition.num_clusters(),
        stages,
        end_to_end_sequential_ms: end_seq,
        end_to_end_parallel_ms: end_par,
        end_to_end_speedup: end_speedup,
        equivalence_checked: true,
        serve_metrics,
        simd,
        tune,
        hotspots,
        memory: socialrec_obs::sample_memory(),
    };
    let json = report.to_json_pretty();
    std::fs::write(&out_path, format!("{json}\n"))
        .map_err(|e| format!("writing {out_path}: {e}"))?;

    println!("pipeline-bench (flixster_like scale={scale}, eps={epsilon}, {threads} threads)");
    for s in &report.stages {
        println!(
            "  {:<9}: {:>10.0} ms seq  {:>10.0} ms par  ({:.2}x)",
            s.stage, s.sequential_ms, s.parallel_ms, s.speedup
        );
    }
    println!("  end-to-end speedup: {end_speedup:.2}x on {threads} threads");
    println!(
        "  simd: detected {}, active {}{}",
        report.simd.detected,
        report.simd.active,
        match &report.simd.requested {
            Some(r) => format!(" (requested {r})"),
            None => String::new(),
        }
    );
    for k in &report.simd.kernels {
        println!(
            "    {:<14}: {:>8.0} ms scalar  {:>8.0} ms simd  ({:.2}x)",
            k.kernel, k.scalar_ms, k.simd_ms, k.speedup
        );
    }
    println!("  wrote {out_path}");

    // SIMD acceptance gate: on an AVX2 machine running vectorized (no
    // override, not smoke), at least one ported kernel must measurably
    // beat its scalar-forced baseline in this same artifact.
    if report.simd.gate_bound && !report.simd.gate_met {
        let detail: Vec<String> =
            report.simd.kernels.iter().map(|k| format!("{} {:.2}x", k.kernel, k.speedup)).collect();
        return Err(format!(
            "AVX2 active but no kernel reached {SIMD_GATE_SPEEDUP}x over its \
             scalar-forced baseline: {}",
            detail.join(", ")
        ));
    }

    // The acceptance gate only binds where the hardware can express
    // parallelism (SOCIALREC_THREADS may oversubscribe a smaller
    // machine); equivalence is checked unconditionally above.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if !smoke && cores >= 4 && threads >= 4 && end_speedup < 2.0 {
        return Err(format!(
            "expected >= 2x end-to-end (sim-build+cluster+release+recommend) \
             speedup on {threads} threads ({cores} cores), measured {end_speedup:.2}x"
        ));
    }
    Ok(())
}

fn check_sim_equivalence(seq: &SimilarityMatrix, par: &SimilarityMatrix) -> Result<(), String> {
    if seq.num_users() != par.num_users() || seq.num_entries() != par.num_entries() {
        return Err("parallel similarity build changed the matrix shape".to_string());
    }
    for u in 0..seq.num_users() as u32 {
        let (vs, ss) = seq.row(UserId(u));
        let (vp, sp) = par.row(UserId(u));
        if vs != vp || ss.iter().zip(sp).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(format!("parallel similarity row {u} differs from the sequential build"));
        }
    }
    Ok(())
}

fn check_cluster_equivalence(seq: &LouvainResult, par: &LouvainResult) -> Result<(), String> {
    if seq.partition != par.partition {
        return Err("parallel Louvain partition differs from the sequential loop".to_string());
    }
    if seq.modularity.to_bits() != par.modularity.to_bits() {
        return Err(format!(
            "parallel Louvain modularity diverged: {} vs {}",
            par.modularity, seq.modularity
        ));
    }
    if seq.levels != par.levels {
        return Err("parallel Louvain level count differs".to_string());
    }
    Ok(())
}

fn check_recommend_equivalence(seq: &[TopN], par: &[TopN]) -> Result<(), String> {
    if seq.len() != par.len() {
        return Err("blocked recommend returned a different number of lists".to_string());
    }
    for (s, p) in seq.iter().zip(par) {
        if s.user != p.user || s.items.len() != p.items.len() {
            return Err(format!("blocked recommend list for {:?} has a different shape", s.user));
        }
        for ((si, su), (pi, pu)) in s.items.iter().zip(&p.items) {
            if si != pi || su.to_bits() != pu.to_bits() {
                return Err(format!(
                    "blocked recommend diverged for {:?}: ({si:?}, {su}) vs ({pi:?}, {pu})",
                    s.user
                ));
            }
        }
    }
    Ok(())
}

/// Kernel-level SIMD attribution: re-run the dominant vectorized
/// kernel scalar-forced and on the run's dispatched tier, in this same
/// process via `socialrec_simd::force`, timing both and asserting
/// bit-identity between them (the DESIGN.md §6d contract exercised at
/// bench scale). The active tier is restored before returning.
fn simd_attribution(
    averages: &NoisyClusterAverages,
    index: &SimMassIndex,
    users: &[UserId],
    reps: usize,
    smoke: bool,
) -> Result<SimdReport, String> {
    let prior = socialrec_simd::active();
    let detected = socialrec_simd::detected();

    // recommend-axpy: the blocked serving kernel over every user at the
    // compiled-in tile/block geometry.
    eprintln!("simd: recommend-axpy scalar-forced vs {} x{reps}...", prior.name());
    let mut out = Vec::new();
    socialrec_simd::force(Isa::Scalar);
    let ((), axpy_scalar_ms) = timed_min(reps, || {
        for chunk in users.chunks(USER_BLOCK) {
            utilities_block_tiled(averages, index, chunk, ITEM_TILE, &mut out);
        }
    });
    socialrec_simd::force(prior);
    let ((), axpy_simd_ms) = timed_min(reps, || {
        for chunk in users.chunks(USER_BLOCK) {
            utilities_block_tiled(averages, index, chunk, ITEM_TILE, &mut out);
        }
    });
    eprintln!("  {axpy_scalar_ms:.0} ms scalar, {axpy_simd_ms:.0} ms {}", prior.name());

    // Bit-identity pass for the axpy kernel: every block, scalar vs the
    // dispatched tier, compared bit for bit (chunked so the comparison
    // never holds the full users x items utility matrix).
    let mut scalar_out = Vec::new();
    for chunk in users.chunks(USER_BLOCK) {
        socialrec_simd::force(Isa::Scalar);
        utilities_block_tiled(averages, index, chunk, ITEM_TILE, &mut scalar_out);
        socialrec_simd::force(prior);
        utilities_block_tiled(averages, index, chunk, ITEM_TILE, &mut out);
        let identical = scalar_out.len() == out.len()
            && scalar_out.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits());
        if !identical {
            return Err(format!(
                "{} blocked utilities kernel is not bit-identical to scalar-forced \
                 (block starting at {:?})",
                prior.name(),
                chunk.first()
            ));
        }
    }
    socialrec_simd::force(prior);

    let kernels = vec![SimdKernel {
        kernel: "recommend-axpy".to_string(),
        scalar_ms: axpy_scalar_ms,
        simd_ms: axpy_simd_ms,
        speedup: axpy_scalar_ms / axpy_simd_ms.max(1e-9),
    }];
    // The gate binds only where vector hardware is both present and in
    // use: a smoke run is too small to time, and a `SOCIALREC_SIMD`
    // downgrade is an explicit request to not run vectorized.
    let gate_bound = !smoke && detected == Isa::Avx2 && prior == Isa::Avx2;
    let gate_met = kernels.iter().any(|k| k.speedup >= SIMD_GATE_SPEEDUP);
    Ok(SimdReport {
        detected: detected.name().to_string(),
        active: prior.name().to_string(),
        requested: socialrec_simd::requested().map(|r| r.name().to_string()),
        kernels,
        gate_bound,
        gate_met,
    })
}

/// The `--tune` sweep: time the blocked serving kernel over the full
/// user population at every ITEM_TILE x USER_BLOCK grid point and
/// report the winner next to the compiled-in defaults.
fn tune_sweep(
    averages: &NoisyClusterAverages,
    index: &SimMassIndex,
    users: &[UserId],
    reps: usize,
) -> TuneReport {
    const TILES: [usize; 5] = [128, 256, 512, 1024, 2048];
    const BLOCKS: [usize; 4] = [2, 4, 8, 16];
    eprintln!("tune: sweeping {} x {} grid...", TILES.len(), BLOCKS.len());
    let mut grid = Vec::with_capacity(TILES.len() * BLOCKS.len());
    let mut out = Vec::new();
    let (mut best_item_tile, mut best_user_block, mut best_ms) = (0, 0, f64::INFINITY);
    for &tile in &TILES {
        for &block in &BLOCKS {
            let ((), ms) = timed_min(reps, || {
                for chunk in users.chunks(block) {
                    utilities_block_tiled(averages, index, chunk, tile, &mut out);
                }
            });
            eprintln!("  tile {tile:>4} x block {block:>2}: {ms:>7.1} ms");
            if ms < best_ms {
                (best_item_tile, best_user_block, best_ms) = (tile, block, ms);
            }
            grid.push(TunePoint { item_tile: tile, user_block: block, ms });
        }
    }
    eprintln!("  best: tile {best_item_tile} x block {best_user_block} ({best_ms:.1} ms)");
    TuneReport {
        grid,
        best_item_tile,
        best_user_block,
        best_ms,
        default_item_tile: ITEM_TILE,
        default_user_block: USER_BLOCK,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_writes_valid_artifact_and_trace() {
        // Arms the global observability layer — serialize with every
        // other traced test in this binary.
        let _guard = crate::commands::trace::obs_test_lock();
        let dir = std::env::temp_dir().join("socialrec-pipeline-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_pipeline.json");
        let trace_out = dir.join("trace.json");
        let spec =
            format!("--smoke --tune --out {} --trace {}", out.display(), trace_out.display());
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.trim_start().starts_with('{'), "artifact must be a JSON object");
        for key in [
            "\"bench\"",
            "\"stages\"",
            "\"sim-build\"",
            "\"cluster\"",
            "\"release\"",
            "\"recommend\"",
            "\"end_to_end_speedup\"",
            "\"threads\"",
            "\"equivalence_checked\"",
            "\"serve_metrics\"",
            "\"serve.shard0.queries\"",
            "\"serve.refused\", 0",
            "\"simd\"",
            "\"detected\"",
            "\"active\"",
            "\"requested\"",
            "\"kernels\"",
            "\"recommend-axpy\"",
            "\"gate_bound\"",
            "\"gate_met\"",
            "\"tune\"",
            "\"grid\"",
            "\"best_item_tile\"",
            "\"best_user_block\"",
            "\"default_item_tile\"",
            "\"hotspots\"",
            "\"memory\"",
        ] {
            assert!(body.contains(key), "artifact missing {key}: {body}");
        }
        // The trace artifact must pass the exporter self-check and
        // cover the whole pipeline (run() itself also enforces this
        // before returning Ok).
        let trace_body = std::fs::read_to_string(&trace_out).unwrap();
        let check = socialrec_obs::validate_chrome_trace(&trace_body).unwrap();
        for span in ["sim.build", "louvain.level", "release", "update.publish", "serve.shard_batch"]
        {
            assert!(check.has_span(span), "trace missing {span}: {:?}", check.names);
        }
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace_out).ok();
    }
}
