//! The repo benchmark. See `benchmark/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! datalog-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! datalog-benchmark check <before.json> <after.json>
//! datalog-benchmark check [--smoke]          (runs the suite twice)
//! ```

mod apps;
mod check;
mod gen;
mod json;
mod layers;
mod metrics;
mod proc;
mod reference;
mod report;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Parsed command line of `run` and `check`.
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        seed: metrics::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; the driver's form gives
            // it a value.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => parsed.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    format!(
        "usage: datalog-benchmark [run] [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n       \
         datalog-benchmark check [<before.json> <after.json>] [--smoke]",
        apps::WORKLOADS.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("check") => ("check", &args[1..]),
        Some("help" | "--help" | "-h") => {
            eprintln!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => ("run", &args[..]),
    };
    let result = parse_args(rest).and_then(|parsed| match command {
        "check" => check::command(&parsed),
        _ => report::run_command(&parsed),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            ExitCode::from(1)
        }
    }
}
