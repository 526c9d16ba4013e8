//! hcbench — the end-to-end and per-layer benchmark of `hcm serve` and the
//! `hc_core` analysis stack.
//!
//! ```text
//! bash hcbench/run.sh --workload <measure_small|ensemble_large|session_edits> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! correctness check exits non-zero. See `hcbench/README.md`.

mod ensemble;
mod gen;
mod http;
mod json;
mod live;
mod measure;
mod metrics;
mod procfs;
mod replay;
mod server;
mod session;
mod stats;
mod trace;

use std::path::PathBuf;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `hcm` binary to serve with.
    pub hcm: PathBuf,
    /// Where traced runs write their spans.
    pub out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut hcm, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)?),
            "--trace" => trace = Some(num(value)? != 0),
            "--hcm" => hcm = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        hcm: hcm.ok_or("--hcm is required")?,
        out: out.unwrap_or_else(|| PathBuf::from(".bench_build/hcbench")),
    })
}

/// Writes a traced run's live and replay spans next to each other.
pub fn write_traces(args: &Args, live: &trace::Trace, replay: &trace::Trace) {
    for (kind, t) in [("live", live), ("replay", replay)] {
        let path = args.out.join(format!(
            "trace-{}-{}-{kind}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("hcbench: writing {}: {e}", path.display());
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hcbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "measure_small" => measure::run(&args),
        "ensemble_large" => ensemble::run(&args),
        "session_edits" => session::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let line = result.and_then(|o| o.render(args.trace).map(|l| (l, o.correct)));
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                eprintln!("hcbench: a correctness check failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("hcbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--hcm x/hcm --workload hit --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hit", 7, 10, true)
        );
        assert!(parse_args(&argv("--hcm x --workload w --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--hcm x --workload w --seed -1 --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload w --seed 1 --seconds 5 --bogus 1")).is_err());
    }
}
