//! `ido-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the human-readable table on standard error, writes
//! `benchmark/out/<workload>[.traced].json` (and `<workload>.spans.json` on
//! the traced pass), and prints the driver's result object as the last line
//! of standard output.

use std::path::Path;
use std::process::ExitCode;

use ido_benchmark::names::{benchmark_json, RUN_SECONDS, WORKLOADS};
use ido_benchmark::{report, run};

const USAGE: &str =
    "usage: ido-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
       ido-benchmark --print-benchmark-json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-benchmark-json" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of: {}", names.join(" ")));
    }
    Ok(Some(args))
}

/// Writes a report to the package's `out/` directory, found from the
/// working directory: the repo root (how `run.sh` and the driver run it) or
/// the package directory itself. Anywhere else nothing is written.
fn write_out(file: &str, contents: &str) {
    let Some(package) = ["benchmark", "."]
        .iter()
        .map(Path::new)
        .find(|dir| dir.join("run.sh").is_file() && dir.join("src/names.rs").is_file())
    else {
        eprintln!("warning: not run from the repo root or benchmark/: {file} not written");
        return;
    };
    let dir = package.join("out");
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents))
    {
        eprintln!("warning: could not write {}: {e}", dir.join(file).display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // All load comes from this one process on one worker: `ido-par` fan-outs
    // inside the crates (the oracle's recovery sweep) stay serial, and no
    // environment switch turns the pools' event tracing on behind our back.
    std::env::set_var("IDO_JOBS", "1");
    std::env::remove_var("IDO_TRACE");

    let out = if args.trace {
        let (out, spans) = run::traced(&args.workload, args.seed, args.seconds);
        write_out(&format!("{}.spans.json", args.workload), &spans);
        write_out(
            &format!("{}.traced.json", args.workload),
            &report::file_json(&out),
        );
        out
    } else {
        let out = run::untraced(&args.workload, args.seed, args.seconds);
        write_out(&format!("{}.json", args.workload), &report::file_json(&out));
        out
    };
    eprint!("{}", report::human(&out));
    println!("{}", report::result_line(&out));
    ExitCode::SUCCESS
}
