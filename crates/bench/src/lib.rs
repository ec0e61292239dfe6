//! # datalog-bench
//!
//! Shared workloads and the measurement harness for EXPERIMENTS.md. The
//! `experiments` binary (`cargo run -p datalog-bench --bin experiments
//! --release`) reruns every experiment, prints paper-claim vs. measured
//! checks, and on a full run writes every measured row to
//! `experiments.json`; the `summarize` binary renders that file as the
//! markdown tables EXPERIMENTS.md carries.

#![warn(rust_2018_idioms)]

use datalog_ast::{parse_program, Database, Program};
use datalog_generate::{edge_db, GraphKind};
use datalog_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Samples per timed quantity: odd, so the median is one sample.
pub const REPS: usize = 5;

/// The median and interquartile spread (Q3 - Q1) of one measured quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub median: f64,
    pub spread: f64,
}

impl Sample {
    /// Summarize an odd number of samples. Quartiles are the samples at
    /// ranks (n - 1)/4 and 3(n - 1)/4, rounded to the nearest rank.
    pub fn of(mut samples: Vec<f64>) -> Sample {
        assert!(samples.len() % 2 == 1, "an odd number of samples");
        samples.sort_by(f64::total_cmp);
        let rank = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Sample {
            median: rank(0.5),
            spread: rank(0.75) - rank(0.25),
        }
    }
}

/// Time [`REPS`] samples of each closure, `batch` calls per sample, in
/// milliseconds per call. The closures take turns sample by sample, so a
/// slow spell of the host lands on all of them and not on one; and there
/// is no warm-up: a cold first sample is one outlier, which does not move
/// the median.
pub fn time_ms<const N: usize>(batch: u32, mut fs: [&mut dyn FnMut(); N]) -> [Sample; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(REPS));
    for _ in 0..REPS {
        for (f, samples) in fs.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(start.elapsed().as_secs_f64() * 1e3 / f64::from(batch));
        }
    }
    samples.map(Sample::of)
}

/// One measured row of an experiment. A sampled row's `value` is the
/// median of [`REPS`] samples and `spread` their interquartile range; a
/// count or a ratio of medians has no spread.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub experiment: String,
    pub workload: String,
    pub series: String,
    pub x: u64,
    pub value: f64,
    pub spread: Option<f64>,
    pub unit: String,
}

impl Row {
    pub fn new(
        experiment: &str,
        workload: &str,
        series: &str,
        x: u64,
        value: f64,
        unit: &str,
    ) -> Row {
        Row {
            experiment: experiment.into(),
            workload: workload.into(),
            series: series.into(),
            x,
            value,
            spread: None,
            unit: unit.into(),
        }
    }

    /// A row for a sampled quantity: its median and spread.
    pub fn sampled(
        experiment: &str,
        workload: &str,
        series: &str,
        x: u64,
        sample: Sample,
        unit: &str,
    ) -> Row {
        Row {
            spread: Some(sample.spread),
            ..Row::new(experiment, workload, series, x, sample.median, unit)
        }
    }

    /// The value with its unit, then `(IQR spread)` on a sampled row.
    pub fn cell(&self) -> String {
        let spread = self
            .spread
            .map_or(String::new(), |s| format!(" (IQR {})", figure(s)));
        format!("{} {}{spread}", figure(self.value), self.unit)
    }

    /// Serialize as a JSON object (field order matches the struct; `spread`
    /// only on sampled rows).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("experiment", Value::from(self.experiment.as_str())),
            ("workload", Value::from(self.workload.as_str())),
            ("series", Value::from(self.series.as_str())),
            ("x", Value::from(self.x)),
            ("value", Value::Number(self.value)),
        ];
        if let Some(spread) = self.spread {
            fields.push(("spread", Value::Number(spread)));
        }
        fields.push(("unit", Value::from(self.unit.as_str())));
        Value::object(fields)
    }

    /// Deserialize from the object shape written by [`Row::to_json`].
    pub fn from_json(v: &Value) -> Result<Row, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("row missing field '{k}'"));
        let string = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{k}' not a string"))
        };
        let spread = match v.get("spread") {
            Some(s) => Some(s.as_f64().ok_or("'spread' not a number")?),
            None => None,
        };
        Ok(Row {
            experiment: string("experiment")?,
            workload: string("workload")?,
            series: string("series")?,
            x: field("x")?.as_u64().ok_or("'x' not an unsigned integer")?,
            value: field("value")?.as_f64().ok_or("'value' not a number")?,
            spread,
            unit: string("unit")?,
        })
    }
}

/// One run of the `experiments` binary, as `experiments.json` records it:
/// the commit of the source tree at run time (`git describe --always
/// --dirty`), the host's cores, the samples per timed row, and the rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub rev: String,
    pub cores: u64,
    pub reps: u64,
    pub rows: Vec<Row>,
}

impl Run {
    pub fn to_json(&self) -> Value {
        Value::object([
            ("rev", Value::from(self.rev.as_str())),
            ("cores", Value::from(self.cores)),
            ("reps", Value::from(self.reps)),
            (
                "rows",
                Value::Array(self.rows.iter().map(Row::to_json).collect()),
            ),
        ])
    }

    /// Deserialize from the object shape written by [`Run::to_json`].
    pub fn from_json(v: &Value) -> Result<Run, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run missing field '{k}'"));
        let count = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("'{k}' not an unsigned integer"))
        };
        Ok(Run {
            rev: field("rev")?.as_str().ok_or("'rev' not a string")?.into(),
            cores: count("cores")?,
            reps: count("reps")?,
            rows: field("rows")?
                .as_array()
                .ok_or("'rows' not an array")?
                .iter()
                .map(Row::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The markdown EXPERIMENTS.md carries: a header line naming the run,
    /// then one table per (experiment, workload) with a column per series
    /// and a row per `x`, each cell a [`Row::cell`].
    pub fn summary(&self) -> String {
        type Cells<'a> = BTreeMap<&'a str, &'a Row>;
        type Key<'a> = (u64, &'a str, &'a str);
        let mut groups: BTreeMap<Key<'_>, BTreeMap<u64, Cells<'_>>> = BTreeMap::new();
        for r in &self.rows {
            // E6 before E10: experiments sort by number, then by name.
            let number = r
                .experiment
                .trim_start_matches('E')
                .parse()
                .unwrap_or(u64::MAX);
            groups
                .entry((number, &r.experiment, &r.workload))
                .or_default()
                .entry(r.x)
                .or_default()
                .insert(&r.series, r);
        }
        let mut out = format!(
            "Run `{}` on {} cores; a timed cell is the median (IQR) of {} samples.\n\n",
            self.rev, self.cores, self.reps
        );
        for ((_, experiment, workload), by_x) in &groups {
            let series: BTreeSet<&str> = by_x.values().flat_map(|m| m.keys().copied()).collect();
            let _ = writeln!(out, "### {experiment} — {workload}\n");
            out.push_str("| x |");
            for s in &series {
                let _ = write!(out, " {s} |");
            }
            out.push_str("\n|---|");
            out.push_str(&"---|".repeat(series.len()));
            out.push('\n');
            for (x, cells) in by_x {
                let _ = write!(out, "| {x} |");
                for s in &series {
                    let _ = match cells.get(s) {
                        Some(row) => write!(out, " {} |", row.cell()),
                        None => write!(out, " — |"),
                    };
                }
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

/// A count as an integer; otherwise three decimals, or three significant
/// digits below 1, so a sub-microsecond timing in milliseconds does not
/// print as zero.
fn figure(v: f64) -> String {
    let decimals = if v.fract() == 0.0 {
        0
    } else if v.abs() >= 1.0 {
        3
    } else {
        (2.0 - v.abs().log10().floor()) as usize
    };
    format!("{v:.decimals$}")
}

/// A transitive-closure program with `k` *pattern-planted* redundant guard
/// atoms `a(Y0, Wi)` on the recursive rule — the Example 11/18 shape
/// scaled. Fig. 2 (uniform equivalence) folds duplicate guards down to one
/// (each `Wi` maps homomorphically onto another), but the *last* guard
/// survives uniform minimization and needs the §X–XI equivalence machinery.
pub fn guarded_tc(k: usize) -> Program {
    let mut body = String::from("g(X, Y0), g(Y0, Z)");
    for i in 0..k {
        body.push_str(&format!(", a(Y0, W{i})"));
    }
    parse_program(&format!("g(X, Z) :- a(X, Z). g(X, Z) :- {body}."))
        .expect("generated program parses")
}

/// An Example-7-shaped single-rule program of total body width `width`
/// (≥ 4): the Example 7 core plus a chain of widening atoms, used for the
/// minimization-scaling sweeps.
pub fn wide_rule(width: usize) -> Program {
    // g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y), a(W, V0), a(V0, V1), ...
    let mut body = String::from("g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y)");
    let mut prev = "W".to_string();
    for i in 0..width.saturating_sub(4) {
        body.push_str(&format!(", a({prev}, V{i})"));
        prev = format!("V{i}");
    }
    parse_program(&format!("g(X, Y, Z) :- {body}.")).expect("generated program parses")
}

/// Render a generated program in parseable surface syntax.
///
/// `bloated_tc` names its fresh variables like `w$123…`; the surface
/// grammar has no `$`, and a lowercase initial means a *constant*, so a
/// naive strip would silently turn those variables into never-matching
/// constants. Uppercasing the prefix keeps them variables.
pub fn portable_source(program: &Program) -> String {
    let src = program.to_string();
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if chars.peek() == Some(&'$') {
            chars.next();
            out.extend(c.to_uppercase());
            out.push('_');
        } else {
            out.push(c);
        }
    }
    out
}

/// Standard EDB families used across experiments.
pub fn standard_edb(kind: &str, n: usize) -> Database {
    match kind {
        "chain" => edge_db("a", GraphKind::Chain { n }),
        "cycle" => edge_db("a", GraphKind::Cycle { n }),
        "er" => edge_db(
            "a",
            GraphKind::ErdosRenyi {
                n,
                p: 8.0 / n.max(8) as f64,
                seed: 7,
            },
        ),
        other => panic!("unknown EDB kind {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::validate_positive;

    #[test]
    fn guarded_tc_shapes() {
        let p0 = guarded_tc(0);
        assert_eq!(p0.total_width(), 3);
        let p3 = guarded_tc(3);
        assert_eq!(p3.total_width(), 6);
        assert!(validate_positive(&p3).is_ok());
    }

    #[test]
    fn guards_are_equivalence_redundant() {
        let p = guarded_tc(2);
        let (optimized, applied) =
            datalog_optimizer::optimize_under_equivalence(&p, 10_000).unwrap();
        assert!(!applied.is_empty());
        assert_eq!(optimized.total_width(), 3);
    }

    #[test]
    fn wide_rule_minimizes_to_example7_core() {
        let p = wide_rule(6);
        assert!(validate_positive(&p).is_ok());
        let (min, _) = datalog_optimizer::minimize_program(&p).unwrap();
        assert!(min.rules[0].width() <= p.rules[0].width());
    }

    #[test]
    fn standard_edbs() {
        assert_eq!(standard_edb("chain", 10).len(), 10);
        assert_eq!(standard_edb("cycle", 10).len(), 10);
        assert!(!standard_edb("er", 20).is_empty());
    }

    #[test]
    fn portable_source_round_trips_with_fresh_vars_as_vars() {
        for seed in [7u64, 99, 1234] {
            let bloated = datalog_generate::bloated_tc(4, seed);
            let src = portable_source(&bloated);
            let parsed = datalog_ast::parse_program(&src).expect("portable source parses");
            assert_eq!(parsed.len(), bloated.len());
            // Same variable structure: widths match rule for rule, which
            // fails if a fresh variable degraded into a constant.
            for (a, b) in parsed.rules.iter().zip(&bloated.rules) {
                assert_eq!(a.head.terms.len(), b.head.terms.len());
                assert_eq!(
                    a.body.iter().flat_map(|l| l.atom.vars()).count(),
                    b.body.iter().flat_map(|l| l.atom.vars()).count(),
                    "a fresh variable was parsed as a constant in: {src}"
                );
            }
        }
    }

    #[test]
    fn row_serialises() {
        let r = Row::new("E10", "chain", "minimized", 64, 1.5, "ms");
        let json = r.to_json().to_compact();
        assert!(json.contains("\"experiment\":\"E10\""));
        assert!(
            !json.contains("spread"),
            "a count row carries no spread: {json}"
        );
        // And round-trips through the parser.
        let back = Row::from_json(&datalog_json::Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn sampled_row_round_trips_with_its_spread() {
        let sample = Sample::of(vec![2.0, 1.0, 3.0, 5.0, 4.0]);
        let r = Row::sampled("E16", "bloated6-chain96", "incr", 96, sample, "ms");
        let json = r.to_json().to_compact();
        let back = Row::from_json(&datalog_json::Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!((back.value, back.spread), (3.0, Some(2.0)));
    }

    #[test]
    fn sample_is_the_median_and_interquartile_range() {
        assert_eq!(
            Sample::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]),
            Sample {
                median: 3.0,
                spread: 2.0
            }
        );
        // One outlier (the E20 failure mode: one 201 ms sample among
        // 60-75 ms ones) moves a mean, not the median or the spread.
        let calm = Sample::of(vec![61.0, 75.0, 66.0, 70.0, 64.0]);
        let spiked = Sample::of(vec![61.0, 201.0, 66.0, 70.0, 64.0]);
        assert_eq!(calm.median, 66.0);
        assert_eq!(spiked, calm);
        assert_eq!(
            Sample::of(vec![7.0]),
            Sample {
                median: 7.0,
                spread: 0.0
            }
        );
        // Seven samples: quartiles at ranks 2 and 5 of 0..=6.
        let seven = Sample::of(vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((seven.median, seven.spread), (4.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "odd number")]
    fn sample_refuses_an_even_count() {
        Sample::of(vec![1.0, 2.0]);
    }

    #[test]
    fn timed_samples_are_nonnegative() {
        let (mut x, mut y) = (0u32, 0u32);
        let [a, b] = time_ms(3, [&mut || x += 1, &mut || y += 1]);
        assert_eq!((x, y), (3 * REPS as u32, 3 * REPS as u32));
        assert!(a.median >= 0.0 && a.spread >= 0.0 && b.median >= 0.0);
    }

    #[test]
    fn run_header_survives_the_summary_parser() {
        let run = Run {
            rev: "5392864-dirty".into(),
            cores: 2,
            reps: REPS as u64,
            rows: vec![
                Row::sampled(
                    "E10",
                    "chain",
                    "bloated",
                    64,
                    Sample {
                        median: 4.8566,
                        spread: 0.25,
                    },
                    "ms",
                ),
                Row::new("E10", "chain", "speedup", 64, 3.4764, "x"),
                Row::new("E10", "chain", "probes-bloated", 64, 46697.0, "probes"),
            ],
        };
        let text = run.to_json().to_pretty();
        let back = Run::from_json(&datalog_json::Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, run);
        let summary = back.summary();
        assert!(
            summary.starts_with(
                "Run `5392864-dirty` on 2 cores; a timed cell is the median (IQR) of 5 samples."
            ),
            "{summary}"
        );
        assert!(summary.contains("### E10 — chain\n"), "{summary}");
        assert!(
            summary.contains("| 64 | 4.857 ms (IQR 0.250) | 46697 probes | 3.476 x |"),
            "{summary}"
        );
    }

    #[test]
    fn summary_orders_experiments_by_number_and_keeps_small_figures() {
        let run = Run {
            rev: "r".into(),
            cores: 1,
            reps: REPS as u64,
            rows: vec![
                Row::new("E10", "chain", "speedup", 1, 2.0, "x"),
                Row::new("E6", "bloated_tc", "minimize", 2, 0.000123456, "ms"),
            ],
        };
        let summary = run.summary();
        let (e6, e10) = (
            summary.find("### E6").unwrap(),
            summary.find("### E10").unwrap(),
        );
        assert!(e6 < e10, "{summary}");
        assert!(summary.contains("| 2 | 0.000123 ms |"), "{summary}");
        assert_eq!(figure(0.0), "0");
        assert_eq!(figure(9312.0), "9312");
        assert_eq!(figure(0.0281), "0.0281");
        assert_eq!(figure(12.3456), "12.346");
    }

    #[test]
    fn a_bare_row_array_is_not_a_run() {
        let rows = datalog_json::Value::parse("[]").unwrap();
        assert!(Run::from_json(&rows).is_err());
    }
}

#[cfg(test)]
mod bench_sanity {
    /// Guard: minimizing `bloated_tc` under the injection seed E6 uses
    /// stays in sane time budgets (catches pathological injection seeds
    /// before an experiments run wastes an hour).
    #[test]
    fn minimize_bench_workloads_are_fast() {
        for k in [1usize, 3, 6, 9] {
            let p = datalog_generate::bloated_tc(k, 99);
            let t = std::time::Instant::now();
            let _ = datalog_optimizer::minimize_program(&p).unwrap();
            assert!(
                t.elapsed() < std::time::Duration::from_secs(2),
                "bloated_tc({k}, 99) minimization took {:?}",
                t.elapsed()
            );
        }
    }
}
