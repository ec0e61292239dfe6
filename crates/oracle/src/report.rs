//! Fuzz-run reporting: counts per family, divergence details, JSON form.

use crate::oracles::{Divergence, Family};
use datalog_engine::Stats;
use datalog_json::Value;
use std::fmt;

/// One diverging case, with its reduction artifacts.
#[derive(Clone, Debug)]
pub struct Finding {
    pub seed: u64,
    pub family: Family,
    /// Kinds observed on the *original* case (stable ids like
    /// `query:magic`).
    pub kinds: Vec<String>,
    /// First divergence message on the original case.
    pub message: String,
    /// Canonical fixture text of the reduced case (of the generated case
    /// when `reduced` is false).
    pub fixture: String,
    /// Whether the case went through the reducer. It did not when
    /// reduction was off, or when the run's time budget was spent first.
    pub reduced: bool,
    /// Where the fixture was written, if a repro dir was configured.
    pub written_to: Option<String>,
}

/// The outcome of a whole fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed per family, in [`Family::ALL`] order.
    pub cases_run: Vec<(Family, u64)>,
    pub findings: Vec<Finding>,
    /// Wall-clock milliseconds spent.
    pub elapsed_ms: u64,
    /// True when the case budget was cut short by the time budget.
    pub budget_exhausted: bool,
    /// Engine work of the sequential reference evaluation, folded across
    /// every case run (see [`crate::oracles::reference_stats`]).
    pub eval: Stats,
}

impl FuzzReport {
    pub fn total_cases(&self) -> u64 {
        self.cases_run.iter().map(|&(_, n)| n).sum()
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn to_json(&self) -> Value {
        Value::object([
            (
                "cases_run",
                Value::Object(
                    self.cases_run
                        .iter()
                        .map(|&(f, n)| (f.name().to_string(), Value::Number(n as f64)))
                        .collect(),
                ),
            ),
            ("total_cases", Value::Number(self.total_cases() as f64)),
            ("elapsed_ms", Value::Number(self.elapsed_ms as f64)),
            ("budget_exhausted", Value::Bool(self.budget_exhausted)),
            (
                "eval",
                Value::object([
                    ("iterations", Value::from(self.eval.iterations)),
                    ("probes", Value::from(self.eval.probes)),
                    ("matches", Value::from(self.eval.matches)),
                    ("derivations", Value::from(self.eval.derivations)),
                    ("index_builds", Value::from(self.eval.index_builds)),
                    ("index_appends", Value::from(self.eval.index_appends)),
                    ("pipelined_tasks", Value::from(self.eval.pipelined_tasks)),
                    ("simd_hash_blocks", Value::from(self.eval.simd_hash_blocks)),
                    ("tuples_allocated", Value::from(self.eval.tuples_allocated)),
                    ("arena_bytes", Value::from(self.eval.arena_bytes)),
                ]),
            ),
            (
                "findings",
                Value::Array(
                    self.findings
                        .iter()
                        .map(|f| {
                            Value::object([
                                ("seed", Value::Number(f.seed as f64)),
                                ("family", Value::String(f.family.name().to_string())),
                                (
                                    "kinds",
                                    Value::Array(
                                        f.kinds.iter().map(|k| Value::String(k.clone())).collect(),
                                    ),
                                ),
                                ("message", Value::String(f.message.clone())),
                                ("fixture", Value::String(f.fixture.clone())),
                                ("reduced", Value::Bool(f.reduced)),
                                (
                                    "written_to",
                                    match &f.written_to {
                                        Some(p) => Value::String(p.clone()),
                                        None => Value::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ran {} case(s) in {} ms (",
            self.total_cases(),
            self.elapsed_ms
        )?;
        for (i, (family, n)) in self.cases_run.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{family}: {n}")?;
        }
        writeln!(f, ")")?;
        if self.budget_exhausted {
            writeln!(f, "time budget exhausted before the case budget")?;
        }
        writeln!(f, "reference eval: {}", self.eval)?;
        if self.findings.is_empty() {
            write!(f, "no divergences")?;
        } else {
            write!(f, "{} divergence(s):", self.findings.len())?;
            for finding in &self.findings {
                write!(
                    f,
                    "\n  seed {} [{}] {} — {}",
                    finding.seed,
                    finding.family,
                    finding.kinds.join(","),
                    finding.message
                )?;
                if !finding.reduced {
                    write!(f, " (unreduced)")?;
                }
                if let Some(path) = &finding.written_to {
                    write!(f, "\n    repro written to {path}")?;
                }
            }
        }
        Ok(())
    }
}

/// Build a [`Finding`] from the raw divergences of a case (deduplicated
/// kinds, first message).
pub(crate) fn finding_from(
    seed: u64,
    family: Family,
    divergences: &[Divergence],
    fixture: String,
    reduced: bool,
) -> Finding {
    let mut kinds: Vec<String> = divergences.iter().map(|d| d.kind.clone()).collect();
    kinds.dedup();
    Finding {
        seed,
        family,
        kinds,
        message: divergences
            .first()
            .map(|d| d.message.clone())
            .unwrap_or_default(),
        fixture,
        reduced,
        written_to: None,
    }
}
