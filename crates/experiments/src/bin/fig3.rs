//! Regenerates **Figure 3**: the relationship between a user's social
//! degree and their NDCG@50 under *approximation error alone*
//! (ε = ∞, CN measure), on both datasets.
//!
//! The paper reports a scatter plot plus the summary that Last.fm users
//! with degree > 10 average NDCG@50 ≈ 0.969 vs ≈ 0.809 for degree ≤ 10
//! (Flixster: 0.975 vs 0.871). We print log-spaced degree-bin means,
//! the two summary averages, and dump the full per-user scatter as
//! JSON.
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin fig3 -- \
//!     [--seed 7] [--runs 3] [--lastfm-scale 1.0] [--flixster-scale 0.15] \
//!     [--n 50] [--out fig3.json]
//! ```

use socialrec_community::{ClusteringStrategy, LouvainStrategy, Partition};
use socialrec_core::private::ClusterFramework;
use socialrec_core::{RecommenderInputs, TopNRecommender};
use socialrec_datasets::{flixster_like, lastfm_like_scaled, Dataset};
use socialrec_dp::Epsilon;
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{build_eval_set, sample_users, write_json, Args, Table};
use socialrec_graph::UserId;
use socialrec_similarity::{Measure, SimilarityMatrix};

struct UserPoint {
    user: u32,
    degree: usize,
    ndcg: f64,
}

impl_to_json!(UserPoint { user, degree, ndcg });

struct DatasetReport {
    dataset: String,
    n: usize,
    low_degree_mean: f64,
    high_degree_mean: f64,
    bins: Vec<(usize, usize, f64, usize)>, // (deg_lo, deg_hi, mean ndcg, count)
    scatter: Vec<UserPoint>,
}

impl_to_json!(DatasetReport { dataset, n, low_degree_mean, high_degree_mean, bins, scatter });

fn run_dataset(
    ds: &Dataset,
    partition: &Partition,
    eval_users: Vec<UserId>,
    n: usize,
    runs: usize,
    seed: u64,
) -> DatasetReport {
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let eval = build_eval_set(&inputs, eval_users);
    let fw = ClusterFramework::new(partition, Epsilon::Infinite);

    // ε = ∞ is deterministic, but Louvain tie-breaking differs per run
    // in the paper; here one pass suffices, averaged over `runs` for
    // interface parity.
    let mut acc = vec![0.0f64; eval.users.len()];
    for run in 0..runs {
        let lists = fw.recommend(&inputs, &eval.users, n, seed + run as u64);
        for (k, v) in eval.per_user_ndcg(&lists, n).into_iter().enumerate() {
            acc[k] += v;
        }
    }
    let scatter: Vec<UserPoint> = eval
        .users
        .iter()
        .zip(&acc)
        .map(|(&u, &s)| UserPoint { user: u.0, degree: ds.social.degree(u), ndcg: s / runs as f64 })
        .collect();

    // Summary: the paper's degree >10 vs <=10 split.
    let split = |pred: &dyn Fn(usize) -> bool| -> f64 {
        let vals: Vec<f64> = scatter.iter().filter(|p| pred(p.degree)).map(|p| p.ndcg).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let low = split(&|d| d <= 10);
    let high = split(&|d| d > 10);

    // Log-spaced degree bins: [1,2), [2,4), [4,8), ...
    let mut bins = Vec::new();
    let mut lo = 1usize;
    let max_deg = scatter.iter().map(|p| p.degree).max().unwrap_or(1);
    while lo <= max_deg {
        let hi = lo * 2;
        let vals: Vec<f64> =
            scatter.iter().filter(|p| p.degree >= lo && p.degree < hi).map(|p| p.ndcg).collect();
        if !vals.is_empty() {
            bins.push((lo, hi - 1, vals.iter().sum::<f64>() / vals.len() as f64, vals.len()));
        }
        lo = hi;
    }

    DatasetReport {
        dataset: ds.name.clone(),
        n,
        low_degree_mean: low,
        high_degree_mean: high,
        bins,
        scatter,
    }
}

fn print_report(r: &DatasetReport, paper_low: f64, paper_high: f64) {
    println!("\n{} — NDCG@{} vs social degree at eps=inf (CN)", r.dataset, r.n);
    println!(
        "  degree <= 10: {:.3} (paper: {paper_low})   degree > 10: {:.3} (paper: {paper_high})",
        r.low_degree_mean, r.high_degree_mean
    );
    let mut t = Table::new(&["degree bin", "users", "mean NDCG"]);
    for &(lo, hi, mean, count) in &r.bins {
        t.row(vec![format!("{lo}-{hi}"), count.to_string(), format!("{mean:.3}")]);
    }
    t.print();
}

fn main() -> Result<(), String> {
    let args = Args::parse();
    let seed = args.get_u64("seed", 7)?;
    let runs = args.get_usize("runs", 3)?;
    let n = args.get_usize("n", 50)?;
    let lscale = args.get_f64("lastfm-scale", 1.0)?;
    let fscale = args.get_f64("flixster-scale", 0.15)?;
    let restarts = args.get_usize("restarts", 10)?;

    eprintln!("Last.fm-like (scale {lscale})...");
    let lfm = lastfm_like_scaled(lscale, seed);
    let lp = LouvainStrategy { restarts, seed, refine: true }.cluster(&lfm.social);
    let lfm_users: Vec<UserId> = (0..lfm.social.num_users() as u32).map(UserId).collect();
    let r1 = run_dataset(&lfm, &lp, lfm_users, n, runs, seed);
    print_report(&r1, 0.809, 0.969);

    eprintln!("\nFlixster-like (scale {fscale})...");
    let flx = flixster_like(fscale, seed);
    let fp = LouvainStrategy { restarts, seed, refine: true }.cluster(&flx.social);
    let eval_count =
        args.get_usize("eval-users", ((10_000.0 * fscale).round() as usize).max(200))?;
    let flx_users = sample_users(flx.social.num_users(), eval_count, seed ^ 0xEA7);
    let r2 = run_dataset(&flx, &fp, flx_users, n, runs, seed);
    print_report(&r2, 0.871, 0.975);

    write_json(args.get_str("out"), &vec![r1, r2]);
    Ok(())
}
