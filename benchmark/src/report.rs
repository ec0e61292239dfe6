//! The `run` command: build, run each asked workload, print every metric by
//! name with its unit, keep the result file, and end with the one JSON line
//! the driver reads.

use crate::json::Json;
use crate::run::{Measured, Outcome, RunConfig};
use crate::{apps, metrics, proc, run, Args};

fn measured_json(metrics: &[Measured]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", measured_json(&outcome.metrics)),
    ])
}

fn print_report(cfg: &RunConfig, trace: bool, outcome: &Outcome) {
    println!(
        "== {} seed {} seconds {} {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        if trace {
            "trace on (per-layer)"
        } else {
            "trace off (end to end)"
        }
    );
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!(
            "{:<40} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<40} {:>16.6} {:<6} {} failed of {} attempted",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "share",
        outcome.failed,
        outcome.attempted
    );
    for why in &outcome.failures {
        println!("FAILED: {why}");
    }
}

/// Run one workload in one mode and keep its result under `benchmark/out/`.
pub fn run_one(cfg: &RunConfig, trace: bool, binary: &std::path::Path) -> Result<Outcome, String> {
    let outcome = if trace {
        crate::layers::run(cfg, binary)?
    } else {
        run::run(cfg, binary)?
    };
    // `BENCHMARK.json` promises the driver exactly these names.
    let promised: &[&str] = if trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    if !outcome
        .metrics
        .iter()
        .map(|m| m.name)
        .eq(promised.iter().copied())
    {
        return Err("the run's metrics are not the ones BENCHMARK.json lists".into());
    }
    let file = result_file(&cfg.workload, trace);
    let mut kept = vec![
        ("workload".to_string(), Json::str(cfg.workload.as_str())),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(trace)),
        ("extras".to_string(), measured_json(&outcome.extras)),
    ];
    if let Json::Obj(line) = result_line(&outcome) {
        kept.extend(line);
    }
    std::fs::write(&file, format!("{}\n", Json::Obj(kept)))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(outcome)
}

pub fn config(args: &Args, workload: &str) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            metrics::SMOKE_SECONDS
        } else {
            metrics::DEFAULT_SECONDS
        }),
        smoke: args.smoke,
    }
}

/// Where [`run_one`] keeps a workload's latest result.
pub fn result_file(workload: &str, trace: bool) -> std::path::PathBuf {
    proc::out_dir().join(format!(
        "result-{workload}{}.json",
        if trace { "-trace" } else { "" }
    ))
}

/// Run one workload in a benchmark process of its own, as a driver does,
/// with the report on `stdout`; returns whether every operation succeeded.
/// Several workloads must not share a process: what the first one leaves
/// resident becomes the floor of every later child's `ru_maxrss`.
pub fn run_isolated(
    args: &Args,
    workload: &str,
    trace: bool,
    stdout: std::process::Stdio,
) -> Result<bool, String> {
    let cfg = config(args, workload);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(stdout);
    if cfg.smoke {
        command.arg("--smoke");
    }
    match command.status().map_err(|e| e.to_string())?.code() {
        Some(0) => Ok(true),
        Some(2) => Ok(false),
        _ => Err(format!("the run of `{workload}` did not complete")),
    }
}

/// `Ok(true)` when every operation of every workload succeeded.
pub fn run_command(args: &Args) -> Result<bool, String> {
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", args.positional[0]));
    }
    let Some(workload) = &args.workload else {
        let mut all_correct = true;
        for workload in apps::WORKLOADS {
            all_correct &=
                run_isolated(args, workload, args.trace, std::process::Stdio::inherit())?;
        }
        return Ok(all_correct);
    };
    if !apps::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let binary = proc::build_datalog()?;
    // After the build, which may use every CPU.
    proc::cpus();
    let cfg = config(args, workload);
    let outcome = run_one(&cfg, args.trace, &binary)?;
    print_report(&cfg, args.trace, &outcome);
    println!("{}", result_line(&outcome));
    Ok(outcome.failed == 0)
}
