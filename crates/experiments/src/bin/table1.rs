//! Regenerates **Table 1** (dataset summaries) and, with `--clusters`,
//! the §6.2 clustering facts (cluster counts, sizes, largest share).
//!
//! ```text
//! cargo run -p socialrec-experiments --release --bin table1 -- \
//!     [--seed 7] [--flixster-scale 0.15] [--clusters] [--out table1.json]
//! ```

use socialrec_community::{modularity, Louvain};
use socialrec_datasets::{flixster_like, lastfm_like, Dataset};
use socialrec_experiments::impl_to_json;
use socialrec_experiments::{write_json, Args, Table};
use socialrec_graph::stats::DatasetStats;

struct Output {
    lastfm: DatasetStats,
    flixster: DatasetStats,
    flixster_scale: f64,
    clusters: Option<Vec<ClusterReport>>,
}

impl_to_json!(Output { lastfm, flixster, flixster_scale, clusters });

struct ClusterReport {
    dataset: String,
    num_clusters: usize,
    modularity: f64,
    mean_size: f64,
    std_size: f64,
    largest_share: f64,
}

impl_to_json!(ClusterReport {
    dataset,
    num_clusters,
    modularity,
    mean_size,
    std_size,
    largest_share
});

fn cluster_report(ds: &Dataset, restarts: usize, seed: u64) -> ClusterReport {
    let res = Louvain { seed, ..Default::default() }.run_best_of(&ds.social, restarts);
    let sizes = res.partition.cluster_sizes();
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    let var = sizes.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / sizes.len() as f64;
    ClusterReport {
        dataset: ds.name.clone(),
        num_clusters: res.partition.num_clusters(),
        modularity: modularity(&ds.social, &res.partition),
        mean_size: mean,
        std_size: var.sqrt(),
        largest_share: res.partition.largest_cluster_share(),
    }
}

fn main() -> Result<(), String> {
    let args = Args::parse();
    let seed = args.get_u64("seed", 7)?;
    let fscale = args.get_f64("flixster-scale", 0.15)?;

    eprintln!("generating datasets (seed={seed}, flixster scale={fscale})...");
    let lfm = lastfm_like(seed);
    let flx = flixster_like(fscale, seed);
    let s1 = DatasetStats::compute(&lfm.social, &lfm.prefs);
    let s2 = DatasetStats::compute(&flx.social, &flx.prefs);

    // Paper reference values (Table 1).
    let paper_lfm =
        ["1892", "12717", "13.4 (std. 17.3)", "17632", "92198", "48.7 (std. 6.9)", "0.997"];
    let paper_flx =
        ["137372", "1269076", "18.5 (std. 31.1)", "48756", "7527931", "54.8 (std. 218.2)", "0.999"];

    let mut t = Table::new(&[
        "metric",
        "Last.fm (paper)",
        "Last.fm (ours)",
        "Flixster (paper, full)",
        &format!("Flixster (ours, scale {fscale})"),
    ]);
    let ours = |s: &DatasetStats| -> Vec<String> {
        vec![
            s.num_users.to_string(),
            s.num_social_edges.to_string(),
            format!("{:.1} (std. {:.1})", s.avg_user_degree, s.std_user_degree),
            s.num_items.to_string(),
            s.num_preference_edges.to_string(),
            format!("{:.1} (std. {:.1})", s.avg_items_per_user, s.std_items_per_user),
            format!("{:.3}", s.sparsity),
        ]
    };
    let metrics =
        ["|U|", "|E_s|", "avg. user degree", "|I|", "|E_p|", "avg. item degree", "sparsity(G_p)"];
    let o1 = ours(&s1);
    let o2 = ours(&s2);
    for (k, m) in metrics.iter().enumerate() {
        t.row(vec![
            m.to_string(),
            paper_lfm[k].to_string(),
            o1[k].clone(),
            paper_flx[k].to_string(),
            o2[k].clone(),
        ]);
    }
    println!("Table 1 — dataset summaries (paper vs synthetic)\n");
    t.print();

    let clusters = if args.has_flag("clusters") {
        eprintln!("\nclustering both social graphs (Louvain, 10 restarts)...");
        let c1 = cluster_report(&lfm, 10, seed);
        let c2 = cluster_report(&flx, 10, seed);
        let mut ct = Table::new(&[
            "dataset",
            "clusters (paper: 35 lfm / 46 flx)",
            "modularity",
            "mean size",
            "std size",
            "largest share (paper: 28.5% / 18.3%)",
        ]);
        for c in [&c1, &c2] {
            ct.row(vec![
                c.dataset.clone(),
                c.num_clusters.to_string(),
                format!("{:.3}", c.modularity),
                format!("{:.1}", c.mean_size),
                format!("{:.1}", c.std_size),
                format!("{:.1}%", 100.0 * c.largest_share),
            ]);
        }
        println!("\n§6.2 clustering facts\n");
        ct.print();
        Some(vec![c1, c2])
    } else {
        None
    };

    write_json(
        args.get_str("out"),
        &Output { lastfm: s1, flixster: s2, flixster_scale: fscale, clusters },
    );
    Ok(())
}
