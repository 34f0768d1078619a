//! The repo benchmark. See README.md beside this package for what is measured
//! and why; `/BENCHMARK.json` declares the command, workloads and metrics.
//!
//! `--workload NAME` measures one workload in this process and prints its
//! metrics by name, then one JSON object as the last line. Without it every
//! workload runs in a child process of its own, so that set-up time and peak
//! memory are per workload.

mod calibrate;
mod oracle;
mod replay;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::{Report, END_TO_END};

/// Default `--seconds`: the `run_seconds` of `/BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 7;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            // `--trace` alone means on; the driver's form is `--trace 0|1`.
            "--trace" => {
                args.trace = argv
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "{error}\nusage: netupd-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check-repeat]\nworkloads: {}",
                workloads::NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => match report::measure(name, args.seed, args.seconds, args.trace) {
            Some(report) => {
                print!("{}", report.text);
                println!("{}", report.json());
                report.correct
            }
            None => {
                eprintln!(
                    "unknown workload {name}; workloads: {}",
                    workloads::NAMES.join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None if args.check_repeat => check_repeat(&args),
        None => {
            let mut ok = run_all(&args, false).is_some();
            if args.trace {
                ok &= run_all(&args, true).is_some();
            }
            ok
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process each and echoes its output.
/// `None` if any child failed or reported incorrect results.
fn run_all(args: &Args, trace: bool) -> Option<Vec<Report>> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut reports = Vec::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a child of this executable");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (text, json) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
        println!("{text}");
        match Report::parse(name, text, json) {
            // An open loop that did not meet its rate is correct but measures
            // a different load: not a result to compare.
            Some(report)
                if output.status.success() && report.correct && !text.contains("\n  INVALID ") =>
            {
                reports.push(report)
            }
            _ => {
                eprintln!("{name}: failed ({})", output.status);
                ok = false;
            }
        }
    }
    ok.then_some(reports)
}

/// Runs the whole benchmark twice on this build and compares every
/// end-to-end metric of every workload against its bound.
fn check_repeat(args: &Args) -> bool {
    let (Some(first), Some(second)) = (run_all(args, false), run_all(args, false)) else {
        return false;
    };
    let mut ok = true;
    println!(
        "\n{:<20} {:<16} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for metric in END_TO_END {
            let (x, y) = (a.metric(metric.name), b.metric(metric.name));
            let worse = if metric.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let gap = worse.abs();
            let verdict = if gap > metric.bound { "EXCEEDS" } else { "" };
            ok &= gap <= metric.bound;
            println!(
                "{:<20} {:<16} {:>12.4} {:>12.4} {:>7.1}% {:>6.0}% {verdict}",
                a.workload,
                metric.name,
                x,
                y,
                100.0 * worse,
                100.0 * metric.bound
            );
        }
        let same = a.digest == b.digest;
        ok &= same;
        println!(
            "{:<20} counters_digest {} {} {}",
            a.workload,
            a.digest,
            b.digest,
            if same { "" } else { "DIFFERS" }
        );
    }
    ok
}
