//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a context line, then, as the last line of
//! standard output, the JSON result. Exits 1 when any output failed its
//! oracle or any operation failed, 2 on bad arguments or a broken run.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            cfg.seconds
        ));
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = perfbench::host::nproc();
    let pinned = perfbench::host::pin_to_one_cpu();
    let mut report = match run_workload(&workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    report.context_num("nproc", nproc);
    match pinned {
        Some(cpu) => report.context_num("pinned_cpu", cpu),
        None => report.context_str("pinned_cpu", "none"),
    }
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let line = match report.result_json(wanted) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.context_json());
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {workload}: {} of {} operations failed ({} oracle mismatches)",
            report.failed, report.attempted, report.mismatches
        );
        ExitCode::from(1)
    }
}
