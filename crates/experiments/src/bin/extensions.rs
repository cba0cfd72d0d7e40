//! Future-work extensions study — the §7 items the paper leaves open,
//! implemented and measured:
//!
//! 1. **More similarity measures**: Jaccard, Salton, Resource
//!    Allocation, Hub-Promoted, Preferential Attachment through the
//!    unchanged framework.
//! 2. **Clustering cleanup**: pruning low-quality (small) clusters via
//!    `merge_small_clusters`, which trades approximation error for
//!    less noise on small-cluster users.
//! 3. **Measure-optimized clustering**: Louvain on the similarity
//!    graph instead of the raw social graph.
//! 4. **Weighted preference edges**: ratings in [0, 1] through the
//!    weighted framework.
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin extensions -- \
//!     [--seed 7] [--runs 3] [--scale 1.0] [--epsilons inf,1.0,0.1] [--n 50]
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use socialrec_community::{merge_small_clusters, ClusteringStrategy, Louvain, LouvainStrategy};
use socialrec_core::private::{ClusterFramework, NoiseModel};
use socialrec_core::weighted::{
    WeightedClusterFramework, WeightedExactRecommender, WeightedInputs,
};
use socialrec_core::{cluster_by_similarity, per_user_ndcg, RecommenderInputs};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{build_eval_set, mean_ndcg_over_runs, write_json, Args, Table};
use socialrec_graph::weighted::WeightedPreferenceGraphBuilder;
use socialrec_graph::UserId;
use socialrec_similarity::{
    AdamicAdar, CommonNeighbors, HubPromoted, Jaccard, Measure, PreferentialAttachment,
    ResourceAllocation, Salton, Similarity, SimilarityMatrix,
};

struct Row {
    study: String,
    variant: String,
    epsilon: String,
    ndcg_mean: f64,
    ndcg_std: f64,
}

impl_to_json!(Row { study, variant, epsilon, ndcg_mean, ndcg_std });

fn main() -> Result<(), String> {
    let args = Args::parse();
    let seed = args.get_u64("seed", 7)?;
    let runs = args.get_usize("runs", 3)?;
    let scale = args.get_f64("scale", 1.0)?;
    let n = args.get_usize("n", 50)?;
    let epsilons =
        args.epsilons(&[Epsilon::Infinite, Epsilon::Finite(1.0), Epsilon::Finite(0.1)])?;

    eprintln!("dataset: lastfm-like scale {scale} (seed {seed})");
    let ds = lastfm_like_scaled(scale, seed);
    let users: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();
    let base_partition = LouvainStrategy { restarts: 10, seed, refine: true }.cluster(&ds.social);

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(&["study", "variant", "eps", &format!("NDCG@{n}")]);
    let push = |rows: &mut Vec<Row>,
                table: &mut Table,
                study: &str,
                variant: &str,
                eps: Epsilon,
                mean: f64,
                std: f64| {
        table.row(vec![
            study.to_string(),
            variant.to_string(),
            eps.to_string(),
            format!("{mean:.3} (±{std:.3})"),
        ]);
        rows.push(Row {
            study: study.into(),
            variant: variant.into(),
            epsilon: eps.to_string(),
            ndcg_mean: mean,
            ndcg_std: std,
        });
    };

    // --- Study 1: extended similarity measures. ---
    let extended: Vec<(&str, Box<dyn Similarity>)> = vec![
        ("CN (paper)", Box::new(CommonNeighbors)),
        ("AA (paper)", Box::new(AdamicAdar)),
        ("Jaccard", Box::new(Jaccard)),
        ("Salton", Box::new(Salton)),
        ("ResourceAlloc", Box::new(ResourceAllocation)),
        ("HubPromoted", Box::new(HubPromoted)),
        ("PrefAttach", Box::new(PreferentialAttachment)),
    ];
    for (name, measure) in &extended {
        eprintln!("study 1: {name}");
        let sim = SimilarityMatrix::build(&ds.social, measure.as_ref());
        let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
        let eval = build_eval_set(&inputs, users.clone());
        for &eps in &epsilons {
            let fw = ClusterFramework::new(&base_partition, eps);
            let p = &mean_ndcg_over_runs(&fw, &inputs, &eval, &[n], runs, seed)[0];
            push(&mut rows, &mut table, "measures", name, eps, p.mean, p.std);
        }
    }

    // --- Studies 2-3 share the CN similarity matrix. ---
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let eval = build_eval_set(&inputs, users.clone());

    // --- Study 2: cluster cleanup (merge small clusters). ---
    for min_size in [0usize, 10, 30, 80] {
        let partition = if min_size == 0 {
            base_partition.clone()
        } else {
            merge_small_clusters(&ds.social, &base_partition, min_size)
        };
        let variant = if min_size == 0 {
            "no cleanup".to_string()
        } else {
            format!("min_size={min_size} ({} clusters)", partition.num_clusters())
        };
        eprintln!("study 2: {variant}");
        for &eps in &epsilons {
            let fw = ClusterFramework::new(&partition, eps);
            let p = &mean_ndcg_over_runs(&fw, &inputs, &eval, &[n], runs, seed)[0];
            push(&mut rows, &mut table, "cleanup", &variant, eps, p.mean, p.std);
        }
    }

    // --- Study 3: measure-optimized clustering. ---
    eprintln!("study 3: similarity-weighted louvain");
    let sim_partition = cluster_by_similarity(&sim, Louvain { seed, ..Default::default() }, 0.0);
    let variant = format!("sim-louvain ({} clusters)", sim_partition.num_clusters());
    for &eps in &epsilons {
        let fw = ClusterFramework::new(&sim_partition, eps);
        let p = &mean_ndcg_over_runs(&fw, &inputs, &eval, &[n], runs, seed)[0];
        push(&mut rows, &mut table, "sim-clustering", &variant, eps, p.mean, p.std);
        let fw = ClusterFramework::new(&base_partition, eps);
        let p = &mean_ndcg_over_runs(&fw, &inputs, &eval, &[n], runs, seed)[0];
        push(&mut rows, &mut table, "sim-clustering", "social-louvain", eps, p.mean, p.std);
    }

    // --- Study 4: weighted (rating) edges. ---
    eprintln!("study 4: weighted edges");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3A7E);
    let mut wb = WeightedPreferenceGraphBuilder::new(ds.prefs.num_users(), ds.prefs.num_items());
    for (u, i) in ds.prefs.edges() {
        let stars = [3.0, 3.5, 4.0, 4.5, 5.0][rng.gen_range(0..5)];
        wb.add_rating(u, i, stars, 0.5, 5.0).expect("in range");
    }
    let ratings = wb.build();
    let winputs = WeightedInputs { prefs: &ratings, sim: &sim };
    let ideal: Vec<Vec<f64>> =
        users.iter().map(|&u| WeightedExactRecommender.utilities(&winputs, u)).collect();
    for &eps in &epsilons {
        let fw = WeightedClusterFramework::new(&base_partition, eps);
        let mut vals = Vec::with_capacity(runs);
        for run in 0..runs {
            let lists = fw.recommend(&winputs, &users, n, seed + run as u64);
            let mean: f64 = lists
                .iter()
                .enumerate()
                .map(|(k, l)| per_user_ndcg(&ideal[k], &l.item_ids(), n))
                .sum::<f64>()
                / users.len() as f64;
            vals.push(mean);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        push(&mut rows, &mut table, "weighted", "ratings [0,1]", eps, mean, var.sqrt());
    }

    // --- Study 5: Laplace vs geometric noise. ---
    eprintln!("study 5: noise models");
    for (name, model) in [("laplace", NoiseModel::Laplace), ("geometric", NoiseModel::Geometric)] {
        for &eps in &epsilons {
            let fw = ClusterFramework::new(&base_partition, eps).with_noise(model);
            let p = &mean_ndcg_over_runs(&fw, &inputs, &eval, &[n], runs, seed)[0];
            push(&mut rows, &mut table, "noise-model", name, eps, p.mean, p.std);
        }
    }

    println!("\nFuture-work extensions — Last.fm-like, NDCG@{n} (runs={runs})\n");
    table.print();
    write_json(args.get_str("out"), &rows);
    Ok(())
}
