//! `socialrec cluster` — Louvain clustering of the social graph.

use crate::commands::io::{load_social, write_partition};
use crate::commands::trace::TraceSink;
use socialrec_community::{merge_small_clusters, modularity, Louvain};
use socialrec_experiments::Args;
use std::path::PathBuf;

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let social = load_social(args)?;
    let restarts = args.get_usize("restarts", 10)?;
    let seed = args.get_u64("seed", 0)?;
    let refine = !args.has_flag("no-refine");
    let min_size = args.get_usize("min-size", 0)?;
    let trace = TraceSink::init(args);

    let res = Louvain { seed, refine }.run_best_of(&social, restarts.max(1));
    let mut partition = res.partition;
    if min_size > 1 {
        partition = merge_small_clusters(&social, &partition, min_size);
    }
    let q = modularity(&social, &partition);
    println!(
        "{} clusters over {} users (modularity {:.3}, largest {:.1}%)",
        partition.num_clusters(),
        partition.num_users(),
        q,
        100.0 * partition.largest_cluster_share()
    );

    if let Some(out) = args.get_str("out") {
        write_partition(&partition, &PathBuf::from(out))?;
        println!("wrote {out}");
    }
    trace.finish(&["louvain.level", "louvain.restart"])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::io::read_partition;
    use socialrec_graph::io::write_social_graph;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn clusters_and_writes() {
        let dir = std::env::temp_dir().join(format!("socialrec-clu-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let f = std::fs::File::create(dir.join("social.tsv")).unwrap();
        write_social_graph(&s, f).unwrap();
        let spec = format!(
            "--social {}/social.tsv --out {}/clusters.tsv --restarts 2",
            dir.display(),
            dir.display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        let p = read_partition(&dir.join("clusters.tsv"), 6).unwrap();
        assert_eq!(p.num_clusters(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
