//! `socialrec` — command-line interface to the privacy-preserving
//! social recommendation library.
//!
//! ```text
//! socialrec generate  --kind lastfm --scale 0.2 --seed 7 --out-dir data/
//! socialrec stats     --social data/social.tsv --prefs data/prefs.tsv
//! socialrec cluster   --social data/social.tsv --out data/clusters.tsv
//! socialrec recommend --social data/social.tsv --prefs data/prefs.tsv \
//!                     --measure CN --epsilon 0.5 --n 10 --users 0,1,2
//! socialrec evaluate  --social data/social.tsv --prefs data/prefs.tsv \
//!                     --measure CN --epsilons inf,1.0,0.1 --n 50
//! socialrec attack    --social data/social.tsv --prefs data/prefs.tsv \
//!                     --victim 5 --item 13 --epsilon 0.5 --trials 2000
//! ```
//!
//! Run `socialrec help` for the full reference.

mod commands;

use socialrec_experiments::Args;

/// A subcommand's entry point.
type Run = fn(&Args) -> Result<(), String>;

/// Every subcommand, its entry point and the flags it accepts
/// (whitespace-separated, without the leading `--`). Any other flag is
/// refused before the command runs.
#[rustfmt::skip]
const COMMANDS: &[(&str, Run, &str)] = &[
    ("generate", commands::generate::run, "kind scale seed out-dir"),
    ("stats", commands::stats::run, "social prefs"),
    ("cluster", commands::cluster::run, "social out restarts seed no-refine min-size trace"),
    ("recommend", commands::recommend::run,
        "social prefs epsilon measure n users seed clusters trace"),
    ("evaluate", commands::evaluate::run,
        "social prefs measure mechanism epsilons n runs seed streaming users"),
    ("attack", commands::attack::run, "social prefs victim item epsilon trials measure seed"),
    ("serve-bench", commands::serve_bench::run,
        "scale seed epsilon n clients requests shards zipf-s open-rate measure out smoke \
         introspect introspect-out trace"),
    ("pipeline-bench", commands::pipeline_bench::run,
        "scale seed epsilon restarts n reps measure out smoke trace"),
    ("scale-bench", commands::scale_bench::run,
        "users value-kind queries epsilon n seed measure dir keep out smoke"),
    ("update-bench", commands::update_bench::run,
        "scale seed epsilon rounds social-edges pref-edges restarts drift clients requests \
         shards zipf-s n measure out smoke trace"),
    ("validate-bench", commands::validate_bench::run, "path"),
    ("validate-metrics", commands::validate_metrics::run, "metrics previous events"),
    ("validate-trace", commands::validate_trace::run, "path require"),
];

/// Run `command`, refusing any flag its [`COMMANDS`] row does not list.
fn dispatch(command: &str, args: &Args) -> Result<(), String> {
    if matches!(command, "help" | "--help" | "-h") {
        print!("{}", commands::HELP);
        return Ok(());
    }
    let Some(&(_, run, accepted)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command {command:?}; see `socialrec help`"));
    };
    let mut unknown: Vec<&str> =
        args.keys().filter(|key| !accepted.split_whitespace().any(|flag| flag == *key)).collect();
    unknown.sort_unstable();
    if let Some(flag) = unknown.first() {
        return Err(format!(
            "unknown flag --{flag} for `socialrec {command}`; see `socialrec help`"
        ));
    }
    run(args)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    if let Err(e) = dispatch(&command, &Args::parse_from(argv)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn every_command_refuses_an_unknown_flag_before_running() {
        for &(name, ..) in COMMANDS {
            let e = dispatch(name, &args("--no-such-flag")).unwrap_err();
            assert!(e.contains("unknown flag --no-such-flag"), "{name}: {e}");
        }
        // Beside accepted flags, valued, and the deleted sweep and
        // chunk-size flags.
        for (command, spec, flag) in [
            ("pipeline-bench", "--smoke --tune", "--tune"),
            ("pipeline-bench", "--smoke --frobnicate 3", "--frobnicate"),
            ("scale-bench", "--smoke --chunk-rows 7", "--chunk-rows"),
        ] {
            let e = dispatch(command, &args(spec)).unwrap_err();
            assert!(e.contains(&format!("unknown flag {flag} ")), "{spec}: {e}");
        }
        assert!(dispatch("no-such-command", &args("")).unwrap_err().contains("unknown command"));
    }

    /// Every flag a command's source reads — directly, or through the
    /// shared dataset, user-list and trace helpers — is in its row, so
    /// the table cannot refuse a flag the command documents.
    #[test]
    fn every_flag_a_command_reads_is_accepted() {
        let sources = [
            ("generate", include_str!("commands/generate.rs")),
            ("stats", include_str!("commands/stats.rs")),
            ("cluster", include_str!("commands/cluster.rs")),
            ("recommend", include_str!("commands/recommend.rs")),
            ("evaluate", include_str!("commands/evaluate.rs")),
            ("attack", include_str!("commands/attack.rs")),
            ("serve-bench", include_str!("commands/serve_bench.rs")),
            ("pipeline-bench", include_str!("commands/pipeline_bench.rs")),
            ("scale-bench", include_str!("commands/scale_bench.rs")),
            ("update-bench", include_str!("commands/update_bench.rs")),
            ("validate-bench", include_str!("commands/validate_bench.rs")),
            ("validate-metrics", include_str!("commands/validate_metrics.rs")),
            ("validate-trace", include_str!("commands/validate_trace.rs")),
        ];
        assert_eq!(sources.len(), COMMANDS.len());
        let helpers = [
            ("load_dataset(args)", &["social", "prefs"][..]),
            ("load_social(args)", &["social"]),
            ("parse_users(args", &["users"]),
            ("TraceSink::init(args)", &["trace"]),
            ("args.epsilons(", &["epsilons"]),
        ];
        for (name, source) in sources {
            let (_, _, accepted) = COMMANDS.iter().find(|(n, ..)| *n == name).unwrap();
            let body = source.split("#[cfg(test)]").next().unwrap();
            let mut read: Vec<&str> = Vec::new();
            for accessor in
                ["get_str(\"", "get_u64(\"", "get_usize(\"", "get_f64(\"", "has_flag(\""]
            {
                read.extend(
                    body.split(accessor).skip(1).map(|rest| &rest[..rest.find('"').unwrap()]),
                );
            }
            for (call, flags) in helpers {
                if body.contains(call) {
                    read.extend_from_slice(flags);
                }
            }
            assert!(!read.is_empty(), "{name} reads no flag");
            for flag in read {
                assert!(
                    accepted.split_whitespace().any(|a| a == flag),
                    "{name} reads --{flag} but does not accept it"
                );
            }
        }
    }
}
