//! Command line for the fleet benchmark.
//!
//! ```text
//! fleetbench --workload <steady|churn|drift|mixed> --seed <n> [--seconds <s>] [--trace <0|1>]
//! fleetbench --quick
//! ```
//!
//! Prints the full report as one JSON line, then the result line
//! (`correct`, `attempted`, `failed`, `metrics`) as the last line of
//! standard output. Exits 1 when a correctness check fails; slow numbers
//! never do. `--quick` runs every workload at a tiny size, untraced and
//! traced, with every check.

use std::path::PathBuf;
use std::process::ExitCode;

use smarteryou_fleetbench::{run, workload, Options, Scale, NAMES};

const USAGE: &str = "fleetbench --workload <steady|churn|drift|mixed> --seed <n> \
                     [--seconds <s>] [--trace <0|1>] | fleetbench --quick";

fn usage_error(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: {USAGE}");
    ExitCode::from(2)
}

/// The traced run's side snapshot store lives inside the working directory
/// (the checkout), one directory per process, removed when the run ends.
fn scratch_dir(name: &str) -> PathBuf {
    PathBuf::from(".fleetbench-scratch").join(format!("{name}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut name = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut quick = false;
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag}: expected a value"));
        let parsed = match flag.as_str() {
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--workload" => value("--workload").map(|v| name = Some(v)),
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|s| seed = Some(s))
                    .map_err(|_| format!("--seed: invalid value {v:?}"))
            }),
            "--seconds" => value("--seconds").and_then(|v| match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => {
                    seconds = s;
                    Ok(())
                }
                _ => Err(format!("--seconds: invalid value {v:?}")),
            }),
            "--trace" => value("--trace").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    trace = v == "1";
                    Ok(())
                }
                _ => Err(format!("--trace: expected 0 or 1, got {v:?}")),
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(problem) = parsed {
            return usage_error(&problem);
        }
    }

    let runs: Vec<Options> = if quick {
        NAMES
            .iter()
            .flat_map(|n| {
                [false, true].map(|trace| Options {
                    workload: workload(n, Scale::Tiny).expect("known workload"),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    scratch_dir: scratch_dir(n),
                })
            })
            .collect()
    } else {
        let Some(name) = name else {
            return usage_error("--workload is required");
        };
        let Some(w) = workload(&name, Scale::Full) else {
            return usage_error(&format!("unknown workload {name:?}"));
        };
        let Some(seed) = seed else {
            return usage_error("--seed is required");
        };
        vec![Options {
            workload: w,
            seed,
            seconds,
            trace,
            scratch_dir: scratch_dir(&name),
        }]
    };

    let mut correct = true;
    let mut last = String::new();
    for opts in &runs {
        match run(opts) {
            Ok(report) => {
                println!("{}", report.summary_json());
                correct &= report.correct();
                last = report.result_json();
            }
            Err(e) => {
                eprintln!("error: {} set-up failed: {e}", opts.workload.name);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
