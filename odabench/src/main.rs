//! Command line of the benchmark.
//!
//! ```text
//! odabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! odabench --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!          [--smoke] [--runs <n>] [--out <file>]
//! odabench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The first form is what the driver runs: progress goes to stderr and
//! the last line of stdout is the result object. `--all` runs every
//! workload, each in a process of its own as the driver does, and prints
//! one full report object per workload; `--runs`
//! repeats that with seeds `seed, seed+1, …` and `--out` appends the
//! report lines to a file `compare` can read.

use odabench::report::{self, is_correct};
use odabench::workloads::{self, WORKLOADS};
use odabench::{RunConfig, DEFAULT_SECONDS};
use std::io::Write;
use std::process::{Command, ExitCode};

const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--runs" => parsed.runs = value()?.parse().map_err(|_| "--runs takes a count")?,
            "--out" => parsed.out = Some(value()?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(parsed)
}

fn config(args: &Args, workload: &str, seed: u64) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
    }
}

/// Run one workload in this process: the full report to stderr, the
/// driver's result object as the last line of stdout.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let cfg = config(args, workload, args.seed);
    let out = workloads::run(&cfg)?;
    eprintln!("{}", report::report_line(&cfg, &out));
    println!("{}", report::result_line(&out));
    Ok(is_correct(&out))
}

/// Run one workload in a process of its own, exactly as the driver does
/// (peak RSS and allocator state are per workload run), and return its
/// report line.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<(bool, String), String> {
    let cfg = config(args, workload, seed);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.smoke {
        child.arg("--smoke");
    }
    let done = child.output().map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&done.stderr);
    match stderr.lines().rev().find(|l| l.starts_with('{')) {
        Some(report) => Ok((done.status.success(), report.to_string())),
        None => Err(format!("{workload} (seed {seed}): {}", stderr.trim())),
    }
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut out_file = match &args.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };
    let mut all_correct = true;
    for run in 0..args.runs {
        for workload in WORKLOADS {
            let (correct, line) = run_child(args, workload, args.seed + run)?;
            all_correct &= correct;
            println!("{line}");
            if let Some(f) = &mut out_file {
                writeln!(f, "{line}").map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(all_correct)
}

fn run(args: &Args) -> Result<bool, String> {
    match &args.workload {
        Some(workload) => run_one(args, workload),
        None => run_all(args),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("odabench: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: odabench compare <a.jsonl> <b.jsonl>");
            return ExitCode::from(2);
        };
        let verdict = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|text| report::parse_contract(&text))
            .and_then(|contract| report::compare(&contract, a, b));
        return match verdict {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("odabench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args).and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        // A run whose output check failed still prints its result (with
        // `correct: false`) and exits non-zero.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("odabench: {e}");
            ExitCode::from(2)
        }
    }
}
