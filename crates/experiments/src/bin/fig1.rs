//! Regenerates **Figure 1**: average NDCG@{10,50,100} of the private
//! framework on (synthetic) Last.fm, for the four similarity measures
//! AA, CN, GD, KZ across ε ∈ {∞, 1.0, 0.6, 0.1, 0.05, 0.01}.
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin fig1 -- \
//!     [--seed 7] [--runs 3] [--scale 1.0] [--epsilons inf,1.0,0.1] \
//!     [--ns 10,50,100] [--restarts 10] [--out fig1.json]
//! ```

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::ClusterFramework;
use socialrec_core::RecommenderInputs;
use socialrec_datasets::lastfm_like_scaled;
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{
    build_eval_set, mean_ndcg_over_runs, write_json, Args, NdcgPoint, Table,
};
use socialrec_graph::UserId;
use socialrec_similarity::{Measure, Similarity, SimilarityMatrix};

struct Row {
    measure: String,
    epsilon: String,
    points: Vec<NdcgPoint>,
}

impl_to_json!(Row { measure, epsilon, points });

fn main() -> Result<(), String> {
    let args = Args::parse();
    let seed = args.get_u64("seed", 7)?;
    let runs = args.get_usize("runs", 3)?;
    let scale = args.get_f64("scale", 1.0)?;
    let restarts = args.get_usize("restarts", 10)?;
    let epsilons = args.epsilons(&Args::paper_epsilons())?;
    let ns = args.ns(&[10, 50, 100])?;

    eprintln!("dataset: lastfm-like scale {scale} (seed {seed})");
    let ds = lastfm_like_scaled(scale, seed);

    eprintln!("clustering (Louvain, {restarts} restarts with refinement)...");
    let partition = LouvainStrategy { restarts, seed, refine: true }.cluster(&ds.social);
    eprintln!(
        "  {} clusters, largest {:.1}%",
        partition.num_clusters(),
        100.0 * partition.largest_cluster_share()
    );

    let users: Vec<UserId> = (0..ds.social.num_users() as u32).map(UserId).collect();
    let mut rows = Vec::new();
    let mut table = Table::new(
        &std::iter::once("measure / eps".to_string())
            .chain(ns.iter().map(|n| format!("NDCG@{n}")))
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );

    let measures: Vec<Measure> = match args.get_str("measures") {
        None => Measure::paper_suite().to_vec(),
        Some(list) => list.split(',').map(str::parse).collect::<Result<_, _>>()?,
    };
    for measure in measures {
        eprintln!("building {} similarity matrix...", measure.name());
        let sim = SimilarityMatrix::build(&ds.social, &measure);
        let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
        let eval = build_eval_set(&inputs, users.clone());
        for &eps in &epsilons {
            let fw = ClusterFramework::new(&partition, eps);
            let points = mean_ndcg_over_runs(&fw, &inputs, &eval, &ns, runs, seed);
            let mut cells = vec![format!("{} eps={}", measure.name(), eps)];
            for p in &points {
                cells.push(format!("{:.3} (±{:.3})", p.mean, p.std));
            }
            table.row(cells);
            eprintln!("  {} eps={eps}: NDCG@{}={:.3}", measure.name(), points[0].n, points[0].mean);
            rows.push(Row {
                measure: measure.name().to_string(),
                epsilon: eps.to_string(),
                points,
            });
        }
    }

    println!("\nFigure 1 — Last.fm-like: framework NDCG@N per measure and ε (runs={runs})\n");
    table.print();
    write_json(args.get_str("out"), &rows);
    Ok(())
}
