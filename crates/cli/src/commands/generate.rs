//! `socialrec generate` — write a synthetic dataset to disk.

use socialrec_datasets::{flixster_like, lastfm_like_scaled};
use socialrec_experiments::Args;
use socialrec_graph::io::{write_preference_graph, write_social_graph};
use std::path::PathBuf;

/// Run the command.
pub fn run(args: &Args) -> Result<(), String> {
    let kind = args.get_str("kind").unwrap_or("lastfm").to_ascii_lowercase();
    let scale = args.get_f64("scale", if kind == "flixster" { 0.15 } else { 1.0 })?;
    let seed = args.get_u64("seed", 7)?;
    let out_dir = PathBuf::from(args.get_str("out-dir").unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;

    let ds = match kind.as_str() {
        "lastfm" => lastfm_like_scaled(scale, seed),
        "flixster" => flixster_like(scale, seed),
        other => return Err(format!("unknown --kind {other:?} (lastfm or flixster)")),
    };

    let social_path = out_dir.join("social.tsv");
    let prefs_path = out_dir.join("prefs.tsv");
    let f = std::fs::File::create(&social_path).map_err(|e| e.to_string())?;
    write_social_graph(&ds.social, f).map_err(|e| e.to_string())?;
    let f = std::fs::File::create(&prefs_path).map_err(|e| e.to_string())?;
    write_preference_graph(&ds.prefs, f).map_err(|e| e.to_string())?;

    println!(
        "wrote {} ({} users, {} edges) and {} ({} items, {} edges)",
        social_path.display(),
        ds.social.num_users(),
        ds.social.num_edges(),
        prefs_path.display(),
        ds.prefs.num_items(),
        ds.prefs.num_edges()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn generates_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("socialrec-gen-{}", std::process::id()));
        let spec = format!("--kind lastfm --scale 0.05 --seed 3 --out-dir {}", dir.display());
        run(&args(&spec)).unwrap();
        let (social, prefs) = crate::commands::load_dataset(&args(&format!(
            "--social {}/social.tsv --prefs {}/prefs.tsv",
            dir.display(),
            dir.display()
        )))
        .unwrap();
        assert!(social.num_users() > 50);
        assert_eq!(social.num_users(), prefs.num_users());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_kind_rejected() {
        assert!(run(&args("--kind nope")).is_err());
    }
}
