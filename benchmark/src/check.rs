//! The `check` command: two sets of runs, compared metric by metric
//! against the bounds `BENCHMARK.json` records.
//!
//! With two files, each holds one result object per line, as `run` leaves
//! them under `benchmark/out/result-<workload>.json` (concatenate the files
//! of several runs to make a set). Without files the suite is run, the two
//! sets taking turns so that drift of the host falls on both.

use crate::json::Json;
use crate::metrics::{benchmark_json, bounds, Bound};
use crate::report::{result_file, run_isolated};
use crate::stats::{median, spread};
use crate::{apps, Args};
use std::collections::BTreeMap;
use std::process::Stdio;

/// Runs per set and workload when `check` runs the suite itself.
const REPEATS: usize = 3;

/// `workload -> metric -> one value per run`.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Regressed,
    /// The runs of a set differ among themselves by more than the bound:
    /// nothing can be said about a change that small.
    Unresolved,
}

/// Compare one metric's values before and after.
pub fn verdict(bound: &Bound, before: &[f64], after: &[f64]) -> Verdict {
    let noise = |v: &[f64]| if v.len() >= 2 { spread(v).abs() } else { 0.0 };
    if noise(before).max(noise(after)) > bound.bound {
        return Verdict::Unresolved;
    }
    let (was, is) = (median(before), median(after));
    let worse = if bound.lower_is_better {
        is - was
    } else {
        was - is
    };
    if worse > bound.bound * was.abs() {
        Verdict::Regressed
    } else {
        Verdict::Agree
    }
}

/// Add a result object's metrics to a set; returns whether it was correct.
fn absorb(set: &mut Set, result: &Json) -> Result<bool, String> {
    let workload = result
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("result without a workload")?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result without metrics")?;
    let entry = set.entry(workload.to_string()).or_default();
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without a value")?;
        entry.entry(name.clone()).or_default().push(value);
    }
    Ok(result.get("correct").and_then(Json::as_bool) == Some(true))
}

fn read_set(path: &str) -> Result<(Set, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    let mut correct = true;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let result = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        // Traced results carry the per-layer metrics, which have no bounds.
        if result.get("trace").and_then(Json::as_bool) != Some(true) {
            correct &= absorb(&mut set, &result)?;
        }
    }
    Ok((set, correct))
}

fn run_sets(args: &Args) -> Result<(Set, Set, bool), String> {
    let (mut before, mut after) = (Set::new(), Set::new());
    let mut correct = true;
    let repeats = if args.smoke { 1 } else { REPEATS };
    for workload in apps::WORKLOADS {
        for turn in 0..2 * repeats {
            println!("{workload}: run {} of {}", turn + 1, 2 * repeats);
            correct &= run_isolated(args, workload, false, Stdio::null())?;
            let file = result_file(workload, false);
            let line =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let set = if turn % 2 == 0 {
                &mut before
            } else {
                &mut after
            };
            correct &= absorb(set, &Json::parse(line.trim_end())?)?;
        }
    }
    Ok((before, after, correct))
}

/// `Ok(true)` when every run was correct and no metric regressed.
pub fn command(args: &Args) -> Result<bool, String> {
    let (before, after, correct) = match args.positional.as_slice() {
        [] => run_sets(args)?,
        [a, b] => {
            let (before, ok_a) = read_set(a)?;
            let (after, ok_b) = read_set(b)?;
            (before, after, ok_a && ok_b)
        }
        _ => return Err("check takes two result files or none".into()),
    };
    let bounds = bounds(&benchmark_json()?)?;
    let mut regressed = 0;
    for (workload, metrics) in &before {
        let Some(after) = after.get(workload) else {
            println!("{workload}: only in the first set");
            continue;
        };
        for bound in &bounds {
            let (Some(b), Some(a)) = (metrics.get(&bound.name), after.get(&bound.name)) else {
                continue;
            };
            // `--smoke` runs are too short to time anything: they check
            // outputs only.
            let verdict = if args.smoke {
                Verdict::Agree
            } else {
                verdict(bound, b, a)
            };
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<16} {:<22} {:<10} before {:>12.4} after {:>12.4} bound {:.0}%",
                bound.name,
                match verdict {
                    Verdict::Agree if args.smoke => "unchecked",
                    Verdict::Agree => "agree",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                median(b),
                median(a),
                bound.bound * 100.0
            );
        }
    }
    if !correct {
        println!("some run failed a correctness check");
    }
    Ok(correct && regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "x_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&lower(0.1), &steady, &[104.0, 105.0, 103.0]),
            Verdict::Agree
        );
        assert_eq!(
            verdict(&lower(0.1), &steady, &[115.0, 116.0, 114.0]),
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(
            verdict(&lower(0.1), &steady, &[50.0, 51.0, 49.0]),
            Verdict::Agree
        );
        // A set that disagrees with itself by more than the bound decides
        // nothing.
        assert_eq!(
            verdict(&lower(0.1), &[100.0, 140.0, 70.0], &[150.0; 3]),
            Verdict::Unresolved
        );
        // Single runs have no spread to speak of.
        assert_eq!(verdict(&lower(0.1), &[100.0], &[120.0]), Verdict::Regressed);
        let higher = Bound {
            name: "ops_per_s".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(
            verdict(&higher, &steady, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&higher, &steady, &[120.0, 121.0, 119.0]),
            Verdict::Agree
        );
    }

    #[test]
    fn sets_collect_values_per_workload_and_metric() {
        let mut set = Set::new();
        let line = r#"{"workload":"eval-tc","correct":true,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        assert!(absorb(&mut set, &Json::parse(line).unwrap()).unwrap());
        assert!(absorb(&mut set, &Json::parse(line).unwrap()).unwrap());
        assert_eq!(set["eval-tc"]["setup_s"], vec![0.5, 0.5]);
        let wrong = r#"{"workload":"eval-tc","correct":false,"metrics":{}}"#;
        assert!(!absorb(&mut set, &Json::parse(wrong).unwrap()).unwrap());
    }
}
