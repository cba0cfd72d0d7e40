//! Regenerates **Figure 4**: NDCG@50 on (synthetic) Last.fm of the two
//! naïve baselines (NOU, NOE) and the adapted comparators (LRM, GS),
//! with the private framework alongside for reference, at
//! ε ∈ {1.0, 0.1}.
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin fig4 -- \
//!     [--seed 7] [--runs 3] [--scale 1.0] [--epsilons 1.0,0.1] [--n 50] \
//!     [--measures CN] [--lrm-rank 256] [--gs-users 600] [--out fig4.json]
//! ```
//!
//! GS materialises `O(|eval users| · |I|)` values; `--gs-users` caps
//! its evaluation subset (the other mechanisms evaluate all users).

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::{
    ClusterFramework, GroupAndSmooth, LowRankMechanism, NoiseOnEdges, NoiseOnUtility,
};
use socialrec_core::{RecommenderInputs, TopNRecommender};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{
    build_eval_set, mean_ndcg_over_runs, sample_users, write_json, Args, Table,
};
use socialrec_graph::UserId;
use socialrec_similarity::{Measure, Similarity, SimilarityMatrix};

struct Row {
    measure: String,
    mechanism: String,
    epsilon: String,
    ndcg_mean: f64,
    ndcg_std: f64,
}

impl_to_json!(Row { measure, mechanism, epsilon, ndcg_mean, ndcg_std });

fn main() -> Result<(), String> {
    let args = Args::parse();
    let seed = args.get_u64("seed", 7)?;
    let runs = args.get_usize("runs", 3)?;
    let scale = args.get_f64("scale", 1.0)?;
    let n = args.get_usize("n", 50)?;
    let lrm_rank = args.get_usize("lrm-rank", 256)?;
    let gs_cap = args.get_usize("gs-users", 600)?;
    let restarts = args.get_usize("restarts", 10)?;
    let epsilons =
        args.epsilons(&[socialrec_dp::Epsilon::Finite(1.0), socialrec_dp::Epsilon::Finite(0.1)])?;
    let measures: Vec<Measure> = match args.get_str("measures") {
        None => vec![Measure::CommonNeighbors],
        Some("all") => Measure::paper_suite().to_vec(),
        Some(s) => s.split(',').map(str::parse).collect::<Result<_, _>>()?,
    };

    eprintln!("dataset: lastfm-like scale {scale} (seed {seed})");
    let ds = lastfm_like_scaled(scale, seed);
    let partition = LouvainStrategy { restarts, seed, refine: true }.cluster(&ds.social);
    let all_users: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();
    let gs_users = sample_users(ds.social.num_users(), gs_cap, seed ^ 0x65);

    let mut rows = Vec::new();
    let mut table = Table::new(&["measure", "mechanism", "eps", &format!("NDCG@{n}")]);

    for measure in &measures {
        eprintln!("building {} similarity matrix...", measure.name());
        let sim = SimilarityMatrix::build(&ds.social, measure);
        let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
        let eval_all = build_eval_set(&inputs, all_users.clone());
        let eval_gs = build_eval_set(&inputs, gs_users.clone());

        for &eps in &epsilons {
            let mechs: Vec<(Box<dyn TopNRecommender>, &'_ socialrec_experiments::EvalSet)> = vec![
                (Box::new(ClusterFramework::new(&partition, eps)), &eval_all),
                (Box::new(NoiseOnUtility::new(eps)), &eval_all),
                (Box::new(NoiseOnEdges::new(eps)), &eval_all),
                (Box::new(LowRankMechanism::new(eps, lrm_rank)), &eval_all),
                (Box::new(GroupAndSmooth::new(eps)), &eval_gs),
            ];
            for (mech, eval) in mechs {
                eprintln!("  running {} ({} users)...", mech.name(), eval.users.len());
                let points = mean_ndcg_over_runs(mech.as_ref(), &inputs, eval, &[n], runs, seed);
                let p = &points[0];
                table.row(vec![
                    measure.name().to_string(),
                    mech.name(),
                    eps.to_string(),
                    format!("{:.3} (±{:.3})", p.mean, p.std),
                ]);
                eprintln!("    NDCG@{n} = {:.3}", p.mean);
                rows.push(Row {
                    measure: measure.name().to_string(),
                    mechanism: mech.name(),
                    epsilon: eps.to_string(),
                    ndcg_mean: p.mean,
                    ndcg_std: p.std,
                });
            }
        }
    }

    println!("\nFigure 4 — Last.fm-like: baselines & comparators, NDCG@{n} (runs={runs})\n");
    table.print();
    write_json(args.get_str("out"), &rows);
    Ok(())
}
