//! A tiny flag parser: `--key value` and `--flag` switches plus positional
//! arguments, with typed accessors. Hand-rolled so the tool stays dependency
//! free and the error messages stay domain-specific.

use std::collections::BTreeMap;

use hc_gen::params::Params;

/// Parsed arguments: positionals in order plus `--key [value]` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, Option<String>>,
}

/// Parses a raw argument list. Every token starting with `--` becomes an option;
/// it consumes the following token as its value unless that token also starts
/// with `--` (then it is a bare switch). `--key=value` is also accepted.
pub fn parse(raw: &[String]) -> Args {
    let mut out = Args::default();
    let mut i = 0;
    while i < raw.len() {
        let tok = &raw[i];
        if let Some(stripped) = tok.strip_prefix("--") {
            if let Some((k, v)) = stripped.split_once('=') {
                out.options.insert(k.to_string(), Some(v.to_string()));
            } else if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                out.options
                    .insert(stripped.to_string(), Some(raw[i + 1].clone()));
                i += 1;
            } else {
                out.options.insert(stripped.to_string(), None);
            }
        } else {
            out.positionals.push(tok.clone());
        }
        i += 1;
    }
    out
}

impl Args {
    /// Positional argument by index.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positionals.get(idx).map(String::as_str)
    }

    /// Number of positionals.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// `true` when `--name` appeared (with or without value).
    pub fn has(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// String value of `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }
}

/// The flags as the shared typed reader sees them: `require`, `get_or` and
/// `check_allowed` come from [`Params`].
impl Params for Args {
    fn raw(&self, name: &str) -> Option<&str> {
        self.get(name)
    }

    /// Every option given except the [`GLOBAL_OPTIONS`], which every
    /// subcommand allows.
    fn names(&self) -> impl Iterator<Item = &str> {
        self.options
            .keys()
            .map(String::as_str)
            .filter(|name| !GLOBAL_OPTIONS.contains(name))
    }

    fn missing(name: &str) -> String {
        format!("missing required option --{name}")
    }

    fn malformed(name: &str, raw: &str) -> String {
        format!("--{name}: cannot parse {raw:?}")
    }

    fn unknown(name: &str, _allowed: &[&str]) -> String {
        format!("unknown option --{name}")
    }
}

/// Options accepted by every subcommand: the observability flags
/// (`--log-json <path>`, `--trace`, `--log-level <level>`), applied once by
/// the binary before dispatch (see [`crate::obs::init_observability`]).
pub const GLOBAL_OPTIONS: &[&str] = &["log-json", "trace", "log-level"];

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse(&s(&["measure", "file.csv", "--ecs", "--tol", "1e-8"]));
        assert_eq!(a.positional(0), Some("measure"));
        assert_eq!(a.positional(1), Some("file.csv"));
        assert_eq!(a.positional_count(), 2);
        assert!(a.has("ecs"));
        assert_eq!(a.get("ecs"), None);
        assert_eq!(a.get("tol"), Some("1e-8"));
    }

    #[test]
    fn equals_syntax() {
        let a = parse(&s(&["--kpb=25", "--mph=0.5"]));
        assert_eq!(a.get("kpb"), Some("25"));
        let v: f64 = a.require("mph").unwrap();
        assert_eq!(v, 0.5);
    }

    #[test]
    fn switch_followed_by_option() {
        let a = parse(&s(&["--ecs", "--seed", "7"]));
        assert!(a.has("ecs"));
        assert_eq!(a.get("ecs"), None);
        let seed: u64 = a.require("seed").unwrap();
        assert_eq!(seed, 7);
    }

    #[test]
    fn typed_errors() {
        let a = parse(&s(&["--seed", "abc"]));
        assert!(a.require::<u64>("seed").is_err());
        assert!(a.require::<u64>("missing").is_err());
        assert_eq!(a.get_or("missing", 5u64).unwrap(), 5);
        assert!(a.get_or::<f64>("seed", 0.0).is_err());
    }

    #[test]
    fn allowed_check() {
        let a = parse(&s(&["--good", "1", "--bad", "2"]));
        assert!(a.check_allowed(&["good"]).is_err());
        assert!(a.check_allowed(&["good", "bad"]).is_ok());
    }

    #[test]
    fn global_options_allowed_everywhere() {
        let a = parse(&s(&[
            "--trace",
            "--log-level",
            "debug",
            "--log-json",
            "out.jsonl",
        ]));
        assert!(a.check_allowed(&[]).is_ok());
        let b = parse(&s(&["--trace", "--tracee"]));
        assert!(b.check_allowed(&[]).is_err());
    }
}
