//! The [`Lint`] trait, the shared per-run [`LintContext`], and the
//! [`Registry`] that owns the default lint set and drives a run.

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, Severity};
use datalog_ast::{validate_positive, DepGraph, GroundAtom, Pred, Program, Unit};
use datalog_json::Value;
use datalog_optimizer::{minimize_program_with_evidence, tally, Removal, Witness};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Everything a lint run looks at: the program plus whatever EDB context
/// its source file carried.
#[derive(Clone, Debug, Default)]
pub struct LintInput {
    pub program: Program,
    /// Ground facts from the source file.
    pub facts: Vec<GroundAtom>,
    /// Predicates declared with `@decl` (treated as intentionally
    /// extensional even when no facts are present).
    pub declared: BTreeSet<Pred>,
}

impl LintInput {
    /// A bare program with no accompanying EDB.
    pub fn from_program(program: Program) -> LintInput {
        LintInput {
            program,
            facts: Vec::new(),
            declared: BTreeSet::new(),
        }
    }

    /// A parsed source file: program plus its facts and declarations.
    pub fn from_unit(unit: &Unit) -> LintInput {
        LintInput {
            program: unit.program.clone(),
            facts: unit.facts.clone(),
            declared: unit.schemas.iter().map(|s| s.pred).collect(),
        }
    }

    /// True when the file carried its own EDB (facts or declarations);
    /// fact-sensitive lints only fire then, since a bare program receives
    /// its EDB at evaluation time.
    pub fn carries_edb(&self) -> bool {
        !self.facts.is_empty() || !self.declared.is_empty()
    }
}

/// One lint pass. Implementations are stateless; all per-run state lives in
/// the [`LintContext`].
pub trait Lint {
    /// Stable machine-readable code (`L1xx` structural, `L2xx` semantic).
    fn code(&self) -> &'static str;
    /// Short kebab-case name, e.g. `redundant-atom`.
    fn name(&self) -> &'static str;
    /// One-line description with the paper citation grounding the lint.
    fn description(&self) -> &'static str;
    fn default_severity(&self) -> Severity;
    fn run(&self, cx: &mut LintContext<'_>);
}

/// What Fig. 2 removed, in the order it removed it, and the witness of the
/// test that accepted each removal: atoms first, then rules
/// ([`minimize_program_with_evidence`]).
pub type Fig2Run = Rc<(Removal, Vec<Witness>)>;

/// Shared state for one lint run over one program.
pub struct LintContext<'a> {
    pub input: &'a LintInput,
    pub depgraph: DepGraph,
    fuel: u64,
    fuel_used: u64,
    skipped_semantic_checks: u64,
    /// Fig. 2's run, once the first semantic lint asked for it; `Some(None)`
    /// when the tier did not run.
    minimization: Option<Option<Fig2Run>>,
    diagnostics: Vec<Diagnostic>,
}

impl<'a> LintContext<'a> {
    pub fn new(input: &'a LintInput, fuel: u64) -> LintContext<'a> {
        LintContext {
            depgraph: DepGraph::new(&input.program),
            input,
            fuel,
            fuel_used: 0,
            skipped_semantic_checks: 0,
            minimization: None,
            diagnostics: Vec::new(),
        }
    }

    pub fn program(&self) -> &'a Program {
        &self.input.program
    }

    /// Record a finding.
    pub fn emit(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Fig. 2's run, made once per lint run and shared by the lints that
    /// report it; `None` outside the positive fragment. The tier is all or
    /// nothing: it runs when the fuel covers the most tests Fig. 2 can make,
    /// Σ widths + |P|, and costs the §VI tests it ran; otherwise it is
    /// `None` and those tests count as skipped.
    pub fn minimization(&mut self) -> Option<Fig2Run> {
        if let Some(run) = &self.minimization {
            return run.clone();
        }
        let program = self.program();
        let most = (program.total_width() + program.len()) as u64;
        let run = if validate_positive(program).is_err() {
            None
        } else if self.fuel < most {
            self.skipped_semantic_checks += most;
            None
        } else {
            let before = tally().tests;
            let run = minimize_program_with_evidence(program).ok();
            self.fuel_used += tally().tests - before;
            run.map(|(_, removal, witnesses)| Rc::new((removal, witnesses)))
        };
        self.minimization = Some(run.clone());
        run
    }

    /// Findings emitted so far (lints may consult earlier passes to avoid
    /// duplicate reports; the registry runs lints in declaration order).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

/// The result of one lint run.
#[derive(Clone, Debug)]
pub struct Report {
    /// All findings, sorted by (rule, code) for deterministic output.
    pub diagnostics: Vec<Diagnostic>,
    /// §VI saturation tests Fig. 2 ran for the semantic lints.
    pub fuel_used: u64,
    /// §VI tests not run because the fuel did not cover Fig. 2's most.
    pub skipped_semantic_checks: u64,
}

impl Report {
    /// The most severe finding, or `None` for a clean program.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// JSON document form (the `--format json` payload).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("version", Value::from(1u64)),
            (
                "diagnostics",
                Value::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            (
                "summary",
                Value::object([
                    ("errors", Value::from(self.count(Severity::Error))),
                    ("warnings", Value::from(self.count(Severity::Warning))),
                    ("notes", Value::from(self.count(Severity::Note))),
                    ("fuel_used", Value::from(self.fuel_used)),
                    (
                        "skipped_semantic_checks",
                        Value::from(self.skipped_semantic_checks),
                    ),
                ]),
            ),
        ])
    }
}

/// An ordered collection of lints plus the machinery to run them.
pub struct Registry {
    lints: Vec<Box<dyn Lint>>,
}

impl Registry {
    /// Empty registry — add lints with [`Registry::register`].
    pub fn new() -> Registry {
        Registry { lints: Vec::new() }
    }

    /// All built-in lints: the structural tier, then the semantic tier
    /// (order matters — semantic lints consult structural results, and
    /// `L203` consults `L202`).
    pub fn with_default_lints() -> Registry {
        let mut r = Registry::new();
        for lint in crate::structural::all() {
            r.register(lint);
        }
        for lint in crate::semantic::all() {
            r.register(lint);
        }
        r
    }

    pub fn register(&mut self, lint: Box<dyn Lint>) {
        self.lints.push(lint);
    }

    /// Run every enabled lint and assemble the report. Severities of codes
    /// in `config.deny` are promoted to [`Severity::Error`].
    pub fn run(&self, input: &LintInput, config: &LintConfig) -> Report {
        let mut cx = LintContext::new(input, config.fuel);
        for lint in &self.lints {
            if config.disabled.contains(lint.code()) {
                continue;
            }
            lint.run(&mut cx);
        }
        let mut diagnostics = cx.diagnostics;
        for d in &mut diagnostics {
            if config.is_denied(d.code) {
                d.severity = Severity::Error;
            }
        }
        diagnostics.sort_by_key(|d| (d.rule_idx, d.code, d.span.map(|s| (s.line, s.col))));
        Report {
            diagnostics,
            fuel_used: cx.fuel_used,
            skipped_semantic_checks: cx.skipped_semantic_checks,
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::with_default_lints()
    }
}
