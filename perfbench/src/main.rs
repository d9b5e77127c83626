//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints every metric by name with its unit, and
//! ends with the one-line JSON result. Exits non-zero when any op's
//! output check failed.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use openmb_perfbench::trace::{Plain, Traced};
use openmb_perfbench::workloads::{ChainFwd, MoveLive, MoveTcp, MoveThreads};
use openmb_perfbench::{run_end_to_end, run_traced, Report, RunCfg, Workload};

/// Spans of the traced run land here, relative to the directory the
/// benchmark is run from (the root of the checkout).
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60) as usize,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run<P: Workload, T: Workload>(args: &Args, start: Instant) -> std::io::Result<Report> {
    let cfg = RunCfg::full::<P>(args.seconds);
    if args.trace {
        run_traced::<P, T>(args.seed, cfg, Path::new(OUT_DIR))
    } else {
        Ok(run_end_to_end::<P>(args.seed, cfg, start))
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "chain_fwd_64B" => run::<ChainFwd<Plain>, ChainFwd<Traced>>(&args, start),
        "move_live_1400B" => run::<MoveLive<Plain>, MoveLive<Traced>>(&args, start),
        "move_tcp_10k" => run::<MoveTcp<Plain>, MoveTcp<Traced>>(&args, start),
        "move_threads_2x" => run::<MoveThreads<Plain>, MoveThreads<Traced>>(&args, start),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    match report {
        Ok(report) => {
            print!("{}", report.to_text());
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
