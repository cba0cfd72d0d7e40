//! `socialrec evaluate` — NDCG@N of the private framework against the
//! exact recommender across privacy levels.

use crate::commands::io::{load_dataset, parse_users};
use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::{ClusterFramework, NoiseOnEdges, NoiseOnUtility};
use socialrec_core::{RecommenderInputs, TopNRecommender};
use socialrec_dp::Epsilon;
use socialrec_experiments::{
    build_eval_set, mean_ndcg_over_runs, streaming_framework_ndcg, Args, Table,
};
use socialrec_similarity::{parse_measure, SimilarityMatrix};

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let (social, prefs) = load_dataset(args)?;
    let measure = parse_measure(args.get_str("measure").unwrap_or("CN"))?;
    let epsilons =
        args.epsilons(&[Epsilon::Infinite, Epsilon::Finite(1.0), Epsilon::Finite(0.1)])?;
    let n = args.get_usize("n", 50)?;
    let runs = args.get_usize("runs", 3)?;
    let seed = args.get_u64("seed", 0)?;
    let mechanism = args.get_str("mechanism").unwrap_or("framework").to_ascii_lowercase();
    let streaming = args.has_flag("streaming");
    let users = parse_users(args, social.num_users())?;

    let partition = LouvainStrategy { restarts: 10, seed, refine: true }.cluster(&social);
    eprintln!("{} clusters", partition.num_clusters());

    let mut t = Table::new(&["epsilon", &format!("NDCG@{n}"), "std"]);
    if streaming {
        if mechanism != "framework" {
            return Err("--streaming only supports the framework mechanism".to_string());
        }
        eprintln!("streaming evaluation ({}; no similarity cache)", measure.name());
        for eps in epsilons {
            let p = &streaming_framework_ndcg(
                &social,
                &prefs,
                measure.as_ref(),
                &partition,
                eps,
                &users,
                &[n],
                runs,
                seed,
            )[0];
            t.row(vec![eps.to_string(), format!("{:.3}", p.mean), format!("{:.3}", p.std)]);
        }
        t.print();
        return Ok(());
    }

    eprintln!("building {} similarity matrix...", measure.name());
    let sim = SimilarityMatrix::build(&social, measure.as_ref());
    let inputs = RecommenderInputs { prefs: &prefs, sim: &sim };
    let eval = build_eval_set(&inputs, users);
    for eps in epsilons {
        let mech: Box<dyn TopNRecommender> = match mechanism.as_str() {
            "framework" => Box::new(ClusterFramework::new(&partition, eps)),
            "nou" => Box::new(NoiseOnUtility::new(eps)),
            "noe" => Box::new(NoiseOnEdges::new(eps)),
            other => return Err(format!("unknown --mechanism {other:?} (framework, nou or noe)")),
        };
        let p = &mean_ndcg_over_runs(mech.as_ref(), &inputs, &eval, &[n], runs, seed)[0];
        t.row(vec![eps.to_string(), format!("{:.3}", p.mean), format!("{:.3}", p.std)]);
    }
    t.print();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::io::{write_preference_graph, write_social_graph};
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn evaluates_on_files() {
        let dir = std::env::temp_dir().join(format!("socialrec-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = preference_graph_from_edges(6, 4, &[(0, 0), (1, 0), (3, 1)]).unwrap();
        let f = std::fs::File::create(dir.join("social.tsv")).unwrap();
        write_social_graph(&s, f).unwrap();
        let f = std::fs::File::create(dir.join("prefs.tsv")).unwrap();
        write_preference_graph(&p, f).unwrap();
        let spec = format!(
            "--social {d}/social.tsv --prefs {d}/prefs.tsv --epsilons inf,1.0 --n 2 --runs 2",
            d = dir.display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
