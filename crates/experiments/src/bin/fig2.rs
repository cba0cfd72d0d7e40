//! Regenerates **Figure 2**: average NDCG@{10,50,100} of the private
//! framework on (synthetic, scaled) Flixster across the ε grid, for the
//! four measures. As in the paper, recommendations are evaluated for a
//! random user subset while the clustering and similarity use *all*
//! users (§6.2: 10,000 of 137,372 users; we keep the ratio under
//! `--scale`).
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin fig2 -- \
//!     [--seed 7] [--runs 3] [--scale 0.15] [--eval-users N] \
//!     [--epsilons ...] [--ns 10,50,100] [--restarts 10] [--out fig2.json]
//! ```

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::ClusterFramework;
use socialrec_core::RecommenderInputs;
use socialrec_datasets::flixster_like;
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{
    build_eval_set, mean_ndcg_over_runs, sample_users, streaming_framework_ndcg, write_json, Args,
    NdcgPoint, Table,
};
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
    let scale = args.get_f64("scale", 0.15)?;
    let restarts = args.get_usize("restarts", 10)?;
    let epsilons = args.epsilons(&Args::paper_epsilons())?;
    let ns = args.ns(&[10, 50, 100])?;

    eprintln!("dataset: flixster-like scale {scale} (seed {seed})");
    let ds = flixster_like(scale, seed);
    let default_eval = ((10_000.0 * scale).round() as usize).max(200);
    let eval_count = args.get_usize("eval-users", default_eval)?;

    eprintln!("clustering (Louvain, {restarts} restarts)...");
    let partition = LouvainStrategy { restarts, seed, refine: true }.cluster(&ds.social);
    eprintln!(
        "  {} clusters, largest {:.1}%",
        partition.num_clusters(),
        100.0 * partition.largest_cluster_share()
    );

    let eval_users = sample_users(ds.social.num_users(), eval_count, seed ^ 0xEA7);
    eprintln!("evaluating {} of {} users", eval_users.len(), ds.social.num_users());

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
    // --streaming avoids materialising the similarity matrix (needed
    // for full-scale runs that would not fit in RAM).
    let streaming = args.has_flag("streaming");
    for measure in measures {
        let sim;
        let mut eval = None;
        if !streaming {
            eprintln!("building {} similarity matrix...", measure.name());
            sim = Some(SimilarityMatrix::build(&ds.social, &measure));
            let inputs = RecommenderInputs { prefs: &ds.prefs, sim: sim.as_ref().unwrap() };
            eval = Some(build_eval_set(&inputs, eval_users.clone()));
        } else {
            sim = None;
            eprintln!("streaming evaluation for {} (no similarity cache)", measure.name());
        }
        for &eps in &epsilons {
            let points = if streaming {
                streaming_framework_ndcg(
                    &ds.social,
                    &ds.prefs,
                    &measure,
                    &partition,
                    eps,
                    &eval_users,
                    &ns,
                    runs,
                    seed,
                )
            } else {
                let inputs = RecommenderInputs { prefs: &ds.prefs, sim: sim.as_ref().unwrap() };
                let fw = ClusterFramework::new(&partition, eps);
                mean_ndcg_over_runs(&fw, &inputs, eval.as_ref().unwrap(), &ns, runs, seed)
            };
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

    println!(
        "\nFigure 2 — Flixster-like (scale {scale}): framework NDCG@N per measure and ε (runs={runs})\n"
    );
    table.print();
    write_json(args.get_str("out"), &rows);
    Ok(())
}
