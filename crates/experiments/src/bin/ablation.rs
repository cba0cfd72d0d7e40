//! Clustering-strategy ablation — the design-choice study DESIGN.md
//! calls out: how much of the framework's accuracy comes from Louvain
//! specifically?
//!
//! Strategies compared (all operate only on the public social graph, so
//! all preserve ε-DP):
//!
//! * `louvain` (paper) and `louvain-no-refine` (refinement off),
//! * `random-k` — k uniform clusters, k matched to Louvain's,
//! * `kmeans-adjacency` — the matrix-clustering alternative the paper's
//!   Remark rejects, k matched to Louvain's,
//! * `singleton` — degenerates to Noise-on-Edges,
//! * `one-cluster` — minimal noise, maximal approximation error.
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin ablation -- \
//!     [--seed 7] [--runs 3] [--scale 1.0] [--epsilons inf,1.0,0.1] \
//!     [--n 50] [--out ablation.json]
//! ```

use socialrec_community::{
    ClusteringStrategy, KMeansStrategy, LouvainStrategy, OneClusterStrategy, RandomStrategy,
    SingletonStrategy,
};
use socialrec_core::private::ClusterFramework;
use socialrec_core::RecommenderInputs;
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{build_eval_set, mean_ndcg_over_runs, write_json, Args, Table};
use socialrec_graph::UserId;
use socialrec_similarity::{Measure, SimilarityMatrix};

struct Row {
    strategy: String,
    clusters: usize,
    modularity: f64,
    epsilon: String,
    ndcg_mean: f64,
    ndcg_std: f64,
}

impl_to_json!(Row { strategy, clusters, modularity, epsilon, ndcg_mean, ndcg_std });

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
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let users: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();
    let eval = build_eval_set(&inputs, users);

    // Louvain first, so the fixed-k strategies can match its k.
    let louvain = LouvainStrategy { restarts: 10, seed, refine: true }.cluster(&ds.social);
    let k = louvain.num_clusters();
    eprintln!("louvain found {k} clusters");

    let strategies: Vec<(String, socialrec_community::Partition)> = vec![
        ("louvain".into(), louvain),
        (
            "louvain-no-refine".into(),
            LouvainStrategy { restarts: 10, seed, refine: false }.cluster(&ds.social),
        ),
        ("random-k".into(), RandomStrategy { num_clusters: k, seed }.cluster(&ds.social)),
        ("kmeans-adjacency".into(), KMeansStrategy { k, max_iters: 25, seed }.cluster(&ds.social)),
        ("singleton".into(), SingletonStrategy.cluster(&ds.social)),
        ("one-cluster".into(), OneClusterStrategy.cluster(&ds.social)),
    ];

    let mut rows = Vec::new();
    let mut table =
        Table::new(&["strategy", "clusters", "modularity", "eps", &format!("NDCG@{n}")]);
    for (name, partition) in &strategies {
        let q = socialrec_community::modularity(&ds.social, partition);
        for &eps in &epsilons {
            let fw = ClusterFramework::new(partition, eps);
            eprintln!("running {name} at eps={eps}...");
            let points = mean_ndcg_over_runs(&fw, &inputs, &eval, &[n], runs, seed);
            let p = &points[0];
            table.row(vec![
                name.clone(),
                partition.num_clusters().to_string(),
                format!("{q:.3}"),
                eps.to_string(),
                format!("{:.3} (±{:.3})", p.mean, p.std),
            ]);
            rows.push(Row {
                strategy: name.clone(),
                clusters: partition.num_clusters(),
                modularity: q,
                epsilon: eps.to_string(),
                ndcg_mean: p.mean,
                ndcg_std: p.std,
            });
        }
    }

    println!("\nAblation — clustering strategies, CN measure, NDCG@{n} (runs={runs})\n");
    table.print();
    write_json(args.get_str("out"), &rows);
    Ok(())
}
