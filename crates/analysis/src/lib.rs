//! Static analysis for Datalog programs.
//!
//! Two tiers of lints over a parsed program:
//!
//! * **Structural** (`L1xx`, [`structural`]): pure AST and dependence-graph
//!   passes — arity and range-restriction violations, unstratifiable
//!   negation, unreachable rules, singleton variables, cartesian-product
//!   bodies, duplicate literals. These never invoke the chase and consume
//!   no fuel.
//! * **Semantic** (`L2xx`, [`semantic`]): redundancy checks grounded in the
//!   paper's decision procedures — the body atoms and rules Fig. 2 removes
//!   (one run, §VI freeze+saturate tests, sound together by Theorem 2),
//!   and rule subsumption hints via the §V Chandra–Merlin homomorphism
//!   test. Each §VI saturation test costs one unit of [`LintConfig::fuel`].
//!
//! Every finding is a structured [`Diagnostic`] carrying a stable code, a
//! severity, the offending rule index, a source [`datalog_ast::Span`] when
//! the program was parsed, an optional suggestion, and — for semantic
//! lints — the witnessing containment as an explanation.
//!
//! ```
//! use datalog_analysis::{analyze_program, LintConfig};
//! use datalog_ast::parse_program;
//!
//! // Example 7 (§VI): a(W, Y) in the recursive rule is redundant.
//! let p = parse_program(
//!     "g(X, Y, Z) :- a(X, Y), a(X, Z).\n\
//!      g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).",
//! )
//! .unwrap();
//! let report = analyze_program(&p, &LintConfig::default());
//! assert!(report.diagnostics.iter().any(|d| d.code == "L201"));
//! ```

pub mod config;
pub mod diagnostic;
pub mod registry;
pub mod semantic;
pub mod structural;

pub use config::LintConfig;
pub use diagnostic::{Diagnostic, Severity};
pub use registry::{Lint, LintContext, LintInput, Registry, Report};

use datalog_ast::{Program, Unit};

/// Lint a bare program (no accompanying EDB) with the default lint set.
pub fn analyze_program(program: &Program, config: &LintConfig) -> Report {
    Registry::with_default_lints().run(&LintInput::from_program(program.clone()), config)
}

/// Lint a parsed source file — program plus its facts and `@decl`s — with
/// the default lint set.
pub fn analyze_unit(unit: &Unit, config: &LintConfig) -> Report {
    Registry::with_default_lints().run(&LintInput::from_unit(unit), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_program, parse_unit};

    #[test]
    fn clean_program_yields_empty_report() {
        let p = parse_program("g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), a(Y, Z).").unwrap();
        let report = analyze_program(&p, &LintConfig::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn unit_analysis_sees_facts_and_decls() {
        let unit = parse_unit(
            "@decl edge(sym, sym).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             orphan(X) :- ghost(X).\n",
        )
        .unwrap();
        let report = analyze_unit(&unit, &LintConfig::default());
        // ghost/1 has no facts, rules, or @decl -> L110.
        assert!(
            report.diagnostics.iter().any(|d| d.code == "L110"),
            "{:?}",
            report.diagnostics
        );
        // edge/2 is @decl'ed, so it must NOT be flagged.
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == "L110" && d.message.contains("`edge`")));
    }

    #[test]
    fn deny_promotes_to_error() {
        let p = parse_program("p(X) :- e(X), f(Y), g(Y).").unwrap();
        let relaxed = analyze_program(&p, &LintConfig::default());
        assert_eq!(relaxed.max_severity(), Some(Severity::Warning));
        let strict = analyze_program(&p, &LintConfig::default().deny("L121"));
        assert_eq!(strict.max_severity(), Some(Severity::Error));
        assert!(strict
            .diagnostics
            .iter()
            .any(|d| d.code == "L121" && d.severity == Severity::Error));
    }

    #[test]
    fn report_json_round_trips() {
        let p = parse_program("p(X, Y) :- e(X), f(Y).").unwrap();
        let report = analyze_program(&p, &LintConfig::default());
        let text = report.to_json().to_pretty();
        let parsed = datalog_json::Value::parse(&text).unwrap();
        assert_eq!(parsed.get("version").unwrap().as_u64(), Some(1));
        let diags = parsed.get("diagnostics").unwrap().as_array().unwrap();
        assert_eq!(diags.len(), report.diagnostics.len());
        let summary = parsed.get("summary").unwrap();
        assert_eq!(
            summary.get("warnings").unwrap().as_u64(),
            Some(report.count(Severity::Warning) as u64)
        );
    }

    #[test]
    fn diagnostics_sorted_deterministically() {
        let p = parse_program(
            "p(X) :- e(X), e(X).\n\
             q(X, Y) :- a(X), b(Y).\n",
        )
        .unwrap();
        let report = analyze_program(&p, &LintConfig::default());
        let keys: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule_idx, d.code))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
