//! `socialrec attack` — empirical Sybil-attack leakage (paper §2.3).

use crate::commands::io::load_dataset;
use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::attack::{estimate_leakage, SybilAttack};
use socialrec_core::private::ClusterFramework;
use socialrec_core::ExactRecommender;
use socialrec_dp::Epsilon;
use socialrec_experiments::Args;
use socialrec_graph::{ItemId, UserId};
use socialrec_similarity::{parse_measure, SimilarityMatrix};

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let (social, prefs) = load_dataset(args)?;
    let victim = UserId(args.get_u64("victim", u64::MAX)? as u32);
    if victim.index() >= social.num_users() {
        return Err("missing or out-of-range --victim <user>".to_string());
    }
    let item = ItemId(args.get_u64("item", u64::MAX)? as u32);
    if item.index() >= prefs.num_items() {
        return Err("missing or out-of-range --item <item>".to_string());
    }
    let epsilon: Epsilon =
        args.get_str("epsilon").ok_or("missing --epsilon".to_string())?.parse()?;
    let trials = args.get_u64("trials", 2000)?;
    let measure = parse_measure(args.get_str("measure").unwrap_or("CN"))?;
    let seed = args.get_u64("seed", 0)?;

    // Mount the attack; ensure the target edge exists in the "with"
    // world (add it if the victim does not have it — we are asking a
    // hypothetical question about distinguishability).
    let attack = SybilAttack::mount(&social, victim);
    let mut prefs_ext = attack.extend_preferences(&prefs);
    if !prefs_ext.has_edge(victim, item) {
        prefs_ext = prefs_ext.toggled_edge(victim, item);
        eprintln!("note: target edge was absent; analysing the hypothetical world with it");
    }
    let sim = SimilarityMatrix::build(&attack.social, measure.as_ref());
    println!("sybil {} isolates the victim: {}", attack.sybil, attack.is_isolating(&sim));

    // Exact recommender: the deterministic leak.
    let exact = estimate_leakage(&ExactRecommender, &attack, &sim, &prefs_ext, item, 1);
    println!(
        "exact recommender:  hit-rate with edge {:.3}, without {:.3}",
        exact.hit_rate_with_edge, exact.hit_rate_without_edge
    );

    // Private framework.
    let partition = LouvainStrategy { restarts: 5, seed, refine: true }.cluster(&attack.social);
    let fw = ClusterFramework::new(&partition, epsilon);
    let est = estimate_leakage(&fw, &attack, &sim, &prefs_ext, item, trials);
    println!(
        "framework eps={epsilon}: hit-rate with edge {:.3}, without {:.3} \
         (ratio {:.2}, DP bound e^eps = {:.2})",
        est.hit_rate_with_edge,
        est.hit_rate_without_edge,
        est.ratio(),
        epsilon.value().exp()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::io::{write_preference_graph, write_social_graph};
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn attack_command_runs() {
        let dir = std::env::temp_dir().join(format!("socialrec-atk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = preference_graph_from_edges(6, 8, &[(0, 0), (1, 0), (5, 7)]).unwrap();
        let f = std::fs::File::create(dir.join("social.tsv")).unwrap();
        write_social_graph(&s, f).unwrap();
        let f = std::fs::File::create(dir.join("prefs.tsv")).unwrap();
        write_preference_graph(&p, f).unwrap();
        let spec = format!(
            "--social {d}/social.tsv --prefs {d}/prefs.tsv --victim 5 --item 7 \
             --epsilon 0.5 --trials 50",
            d = dir.display()
        );
        run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validates_victim_and_item() {
        let dir = std::env::temp_dir().join(format!("socialrec-atk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = social_graph_from_edges(3, &[(0, 1)]).unwrap();
        let p = preference_graph_from_edges(3, 2, &[(0, 0)]).unwrap();
        let f = std::fs::File::create(dir.join("social.tsv")).unwrap();
        write_social_graph(&s, f).unwrap();
        let f = std::fs::File::create(dir.join("prefs.tsv")).unwrap();
        write_preference_graph(&p, f).unwrap();
        let base = format!("--social {d}/social.tsv --prefs {d}/prefs.tsv", d = dir.display());
        let err = run(&Args::parse_from(base.split_whitespace().map(String::from))).unwrap_err();
        assert!(err.contains("--victim"));
        let spec = format!("{base} --victim 0");
        let err = run(&Args::parse_from(spec.split_whitespace().map(String::from))).unwrap_err();
        assert!(err.contains("--item"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
