//! Minimal command-line argument parsing for the experiment binaries.
//!
//! Deliberately tiny (no external CLI crate): `--key value` pairs and
//! boolean `--flag`s, with typed accessors and defaults. A value that
//! does not parse as its type is an error naming the flag, never a
//! panic.

use socialrec_dp::Epsilon;
use std::collections::{HashMap, HashSet};

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: HashSet<String>,
}

impl Args {
    /// Parse from an explicit token list (first element NOT the program
    /// name).
    pub fn parse_from<I: IntoIterator<Item = String>>(tokens: I) -> Args {
        let mut values = HashMap::new();
        let mut flags = HashSet::new();
        let toks: Vec<String> = tokens.into_iter().collect();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < toks.len() && !toks[i + 1].starts_with("--") {
                    values.insert(key.to_string(), toks[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { values, flags }
    }

    /// Parse from the process environment.
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1))
    }

    /// Raw string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `u64` value with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.parsed(key, default, "an integer")
    }

    /// `usize` value with default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.parsed(key, default, "an integer")
    }

    /// `f64` value with default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.parsed(key, default, "a number")
    }

    /// The value of `--key` parsed as `T`, or `default` when absent.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T, what: &str) -> Result<T, String> {
        self.get_str(key).map_or(Ok(default), |s| {
            s.parse().map_err(|_| format!("--{key} expects {what}, got {s:?}"))
        })
    }

    /// Boolean flag presence.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    /// Every `--key` given, valued or boolean, in no fixed order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.flags).map(String::as_str)
    }

    /// Comma-separated ε list (`inf` allowed), or the given default.
    pub fn epsilons(&self, default: &[Epsilon]) -> Result<Vec<Epsilon>, String> {
        match self.get_str("epsilons") {
            None => Ok(default.to_vec()),
            Some(s) => s.split(',').map(str::parse).collect(),
        }
    }

    /// Comma-separated N list, or the given default.
    pub fn ns(&self, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.get_str("ns") {
            None => Ok(default.to_vec()),
            Some(s) => s
                .split(',')
                .map(|t| t.trim().parse().map_err(|_| format!("--ns expects integers, got {t:?}")))
                .collect(),
        }
    }

    /// The paper's ε grid `{∞, 1.0, 0.6, 0.1, 0.05, 0.01}`.
    pub fn paper_epsilons() -> Vec<Epsilon> {
        vec![
            Epsilon::Infinite,
            Epsilon::Finite(1.0),
            Epsilon::Finite(0.6),
            Epsilon::Finite(0.1),
            Epsilon::Finite(0.05),
            Epsilon::Finite(0.01),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn values_and_flags() {
        let a = args("--seed 7 --verbose --scale 0.5");
        assert_eq!(a.get_u64("seed", 0), Ok(7));
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get_f64("scale", 1.0), Ok(0.5));
        assert_eq!(a.get_usize("runs", 3), Ok(3));
        assert!(!a.has_flag("missing"));
        let mut keys: Vec<&str> = a.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, ["scale", "seed", "verbose"]);
    }

    #[test]
    fn epsilon_list() {
        let a = args("--epsilons inf,1.0,0.1");
        let e = a.epsilons(&[]).unwrap();
        assert_eq!(e.len(), 3);
        assert_eq!(e[0], Epsilon::Infinite);
        assert_eq!(e[2], Epsilon::Finite(0.1));
        let d = args("").epsilons(&[Epsilon::Finite(2.0)]);
        assert_eq!(d, Ok(vec![Epsilon::Finite(2.0)]));
    }

    #[test]
    fn ns_list() {
        let a = args("--ns 10,50,100");
        assert_eq!(a.ns(&[5]), Ok(vec![10, 50, 100]));
        assert_eq!(args("").ns(&[5]), Ok(vec![5]));
    }

    #[test]
    fn paper_grid() {
        let e = Args::paper_epsilons();
        assert_eq!(e.len(), 6);
        assert!(e[0].is_infinite());
    }

    #[test]
    fn a_bad_value_is_an_error_naming_its_flag() {
        let a = args("--seed banana --runs 2.5 --scale x --epsilons 1.0,nope --ns 10,five");
        assert_eq!(a.get_u64("seed", 0), Err("--seed expects an integer, got \"banana\"".into()));
        assert_eq!(a.get_usize("runs", 3), Err("--runs expects an integer, got \"2.5\"".into()));
        assert_eq!(a.get_f64("scale", 1.0), Err("--scale expects a number, got \"x\"".into()));
        assert_eq!(a.epsilons(&[]), Err("bad epsilon: \"nope\"".into()));
        assert_eq!(a.ns(&[]), Err("--ns expects integers, got \"five\"".into()));
    }
}
