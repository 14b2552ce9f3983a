//! `vodbench`: the repository's benchmark.
//!
//! ```text
//! vodbench --workload <paper_figs|scale_pods|pods_overload|pods_drift|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation sets a workload up several times, replays its passes
//! for `--seconds`, checks every report, and prints one JSON result line
//! last on stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md for what each number means.

mod measure;
mod metrics;
mod span;
mod world;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use world::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload, or `None` for all four (each in its own process).
    pub workload: Option<Workload>,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str =
    "usage: vodbench --workload <paper_figs|scale_pods|pods_overload|pods_drift|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: world::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut named_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                named_workload = true;
                parsed.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    ),
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named_workload {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => match measure::bench(workload, &args) {
            Ok(result) => {
                eprint!("{}", result.table());
                println!("{}", result.json_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("vodbench {}: {e}", workload.name());
                ExitCode::FAILURE
            }
        },
        None => run_all(&args),
    }
}

/// Runs every workload in a fresh child process, so no workload's peak
/// RSS leaks into another's, and echoes each result line prefixed with the
/// workload's name. Exits non-zero if any child failed or reported a
/// failed run.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the vodbench executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(child) => child,
            Err(e) => {
                eprintln!("cannot start {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                last = line;
            }
        }
        let status = child.wait();
        let passed = matches!(&status, Ok(s) if s.success()) && last.contains("\"correct\": true");
        ok &= passed;
        println!("{} {last}", workload.name());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload pods_drift --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::PodsDrift));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let all = parse_args(&argv("--workload all --seed 1 --seconds 2 --trace 0")).unwrap();
        assert_eq!(all.workload, None);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload paper_figs --trace 2",
            "--workload paper_figs --seconds 0",
            "--workload paper_figs --seconds",
            "--workload paper_figs --fast 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
