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

/// Every subcommand, its entry point, the flags it accepts with a value
/// and the switches it accepts bare (each whitespace-separated, without
/// the leading `--`). Any other flag, a valued flag given bare, and a
/// switch given a value are refused before the command runs.
#[rustfmt::skip]
const COMMANDS: &[(&str, Run, &str, &str)] = &[
    ("generate", commands::generate::run, "kind scale seed out-dir", ""),
    ("stats", commands::stats::run, "social prefs", ""),
    ("cluster", commands::cluster::run, "social out restarts seed min-size trace", "no-refine"),
    ("recommend", commands::recommend::run,
        "social prefs epsilon measure n users seed clusters trace", ""),
    ("evaluate", commands::evaluate::run,
        "social prefs measure mechanism epsilons n runs seed users", "streaming"),
    ("attack", commands::attack::run, "social prefs victim item epsilon trials measure seed", ""),
    ("serve-bench", commands::serve_bench::run,
        "seed epsilon out introspect introspect-out trace", "smoke"),
    ("pipeline-bench", commands::pipeline_bench::run, "seed out trace", "smoke"),
    ("scale-bench", commands::scale_bench::run, "users value-kind seed dir out", "keep smoke"),
    ("update-bench", commands::update_bench::run, "seed out trace", "smoke"),
    ("validate-bench", commands::validate_bench::run, "path", ""),
    ("validate-metrics", commands::validate_metrics::run, "metrics previous events", ""),
];

/// Run `command`, refusing any flag its [`COMMANDS`] row does not list
/// in the form it lists it.
fn dispatch(command: &str, args: &Args) -> Result<(), String> {
    if matches!(command, "help" | "--help" | "-h") {
        print!("{}", commands::HELP);
        return Ok(());
    }
    let Some(&(_, run, valued, switches)) = COMMANDS.iter().find(|(name, ..)| *name == command)
    else {
        return Err(format!("unknown command {command:?}; see `socialrec help`"));
    };
    let listed = |list: &str, key: &str| list.split_whitespace().any(|flag| flag == key);
    let mut given: Vec<&str> = args.keys().collect();
    given.sort_unstable();
    for flag in given {
        let problem = match (listed(valued, flag), listed(switches, flag)) {
            (false, false) => "unknown flag",
            (true, _) if args.has_flag(flag) => "missing value for",
            (_, true) if args.get_str(flag).is_some() => "unexpected value for",
            _ => continue,
        };
        return Err(format!("{problem} --{flag} for `socialrec {command}`; see `socialrec help`"));
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
        // Beside accepted flags, valued, the deleted sweep and
        // chunk-size flags, and one retired flag per bench. A valued
        // flag given bare must not fall back to the checked-in
        // artifact's path, nor a switch given a value run the full bench.
        for (command, spec, want) in [
            ("pipeline-bench", "--smoke --tune", "unknown flag --tune "),
            ("pipeline-bench", "--smoke --frobnicate 3", "unknown flag --frobnicate "),
            ("scale-bench", "--smoke --chunk-rows 7", "unknown flag --chunk-rows "),
            ("serve-bench", "--smoke --clients 4", "unknown flag --clients "),
            ("update-bench", "--smoke --rounds 3", "unknown flag --rounds "),
            ("pipeline-bench", "--smoke --reps 1", "unknown flag --reps "),
            ("scale-bench", "--smoke --queries 25", "unknown flag --queries "),
            ("pipeline-bench", "--smoke --out", "missing value for --out "),
            ("validate-bench", "--path", "missing value for --path "),
            (
                "pipeline-bench",
                "--smoke 1 --out /nonexistent/x.json",
                "unexpected value for --smoke ",
            ),
            ("scale-bench", "--keep yes --smoke", "unexpected value for --keep "),
            ("cluster", "--no-refine 0", "unexpected value for --no-refine "),
            ("evaluate", "--streaming on", "unexpected value for --streaming "),
        ] {
            let e = dispatch(command, &args(spec)).unwrap_err();
            assert!(e.contains(want), "{spec}: {e}");
        }
        for command in ["no-such-command", "validate-trace"] {
            let e = dispatch(command, &args("")).unwrap_err();
            assert!(e.contains("unknown command"), "{command}: {e}");
        }
    }

    /// Every flag a command's source reads — directly, or through the
    /// shared dataset, user-list and trace helpers — is in its row, so
    /// the table cannot refuse a flag the command documents; every flag
    /// in its row is read, so the table lists no dead flag; and the
    /// switches it reads with `has_flag` are exactly the row's switches.
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
            let (_, _, valued, switches) = COMMANDS.iter().find(|(n, ..)| *n == name).unwrap();
            let body = source.split("#[cfg(test)]").next().unwrap();
            let read = |accessor: &'static str| {
                body.split(accessor).skip(1).map(|rest| &rest[..rest.find('"').unwrap()])
            };
            let mut read_valued: Vec<&str> =
                ["get_str(\"", "get_u64(\"", "get_usize(\"", "get_f64(\""]
                    .into_iter()
                    .flat_map(read)
                    .collect();
            for (call, flags) in helpers {
                if body.contains(call) {
                    read_valued.extend_from_slice(flags);
                }
            }
            for (what, mut read, row) in [
                ("valued flags", read_valued, valued),
                ("switches", read("has_flag(\"").collect(), switches),
            ] {
                read.sort_unstable();
                read.dedup();
                let mut row: Vec<&str> = row.split_whitespace().collect();
                row.sort_unstable();
                assert_eq!(read, row, "{name}: the {what} it reads vs its row");
            }
        }
    }
}
