//! `socialrec recommend` — ε-differentially-private top-N lists.

use crate::commands::io::{load_dataset, parse_users, read_partition};
use crate::commands::trace::TraceSink;
use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::ClusterFramework;
use socialrec_core::{RecommenderInputs, TopNRecommender};
use socialrec_dp::Epsilon;
use socialrec_experiments::Args;
use socialrec_similarity::{parse_measure, SimilarityMatrix};
use std::path::PathBuf;

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let (social, prefs) = load_dataset(args)?;
    let epsilon: Epsilon = args
        .get_str("epsilon")
        .ok_or("missing --epsilon (number or `inf`)".to_string())?
        .parse()?;
    let measure = parse_measure(args.get_str("measure").unwrap_or("CN"))?;
    let n = args.get_usize("n", 10)?;
    let seed = args.get_u64("seed", 0)?;
    let users = parse_users(args, social.num_users())?;
    let trace = TraceSink::init(args);

    eprintln!("building {} similarity matrix...", measure.name());
    let sim = SimilarityMatrix::build(&social, measure.as_ref());
    let partition = match args.get_str("clusters") {
        Some(path) => read_partition(&PathBuf::from(path), social.num_users())?,
        None => {
            eprintln!("clustering (Louvain, 10 restarts)...");
            LouvainStrategy { restarts: 10, seed, refine: true }.cluster(&social)
        }
    };
    if partition.num_users() != social.num_users() {
        return Err("clusters file does not cover the social graph".to_string());
    }

    let inputs = RecommenderInputs { prefs: &prefs, sim: &sim };
    let fw = ClusterFramework::new(&partition, epsilon);
    let lists = fw.recommend(&inputs, &users, n, seed);
    for l in &lists {
        let items: Vec<String> = l.items.iter().map(|&(i, s)| format!("{i}:{s:.3}")).collect();
        println!("{}\t{}", l.user, items.join(" "));
    }
    trace.finish(&["sim.build", "release"])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::io::{write_preference_graph, write_social_graph};
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;

    fn write_fixture(dir: &std::path::Path) {
        std::fs::create_dir_all(dir).unwrap();
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = preference_graph_from_edges(6, 4, &[(0, 0), (1, 0), (3, 1)]).unwrap();
        let f = std::fs::File::create(dir.join("social.tsv")).unwrap();
        write_social_graph(&s, f).unwrap();
        let f = std::fs::File::create(dir.join("prefs.tsv")).unwrap();
        write_preference_graph(&p, f).unwrap();
    }

    #[test]
    fn recommends_for_selected_users() {
        let dir = std::env::temp_dir().join(format!("socialrec-rec-{}", std::process::id()));
        write_fixture(&dir);
        let spec = format!(
            "--social {d}/social.tsv --prefs {d}/prefs.tsv --epsilon 1.0 --users 0,5 --n 2",
            d = dir.display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn requires_epsilon() {
        let dir = std::env::temp_dir().join(format!("socialrec-rec2-{}", std::process::id()));
        write_fixture(&dir);
        let spec = format!("--social {d}/social.tsv --prefs {d}/prefs.tsv", d = dir.display());
        let err = run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap_err();
        assert!(err.contains("--epsilon"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
