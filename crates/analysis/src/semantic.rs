//! Semantic lints (`L2xx`): paper-grounded redundancy checks backed by the
//! §VI freeze+saturate uniform-containment test and the §V Chandra–Merlin
//! homomorphism test.
//!
//! These lints only apply to valid positive programs (the fragment where
//! Theorem 1's decision procedure is sound and complete); elsewhere `L200`
//! reports that the semantic tier was skipped. Every §VI saturation test
//! costs one unit of fuel; the `L203` homomorphism hint is saturation-free.

use crate::diagnostic::{Diagnostic, Severity};
use crate::registry::{Lint, LintContext};
use datalog_ast::{validate_positive, Program, Rule};
use datalog_optimizer::{homomorphism, Containment, Witness};
use std::fmt::Write as _;

/// All semantic lints, in run order (`L203` consults `L202`'s findings).
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(SemanticTierSkipped),
        Box::new(RedundantAtom),
        Box::new(RedundantRule),
        Box::new(SubsumedRuleHint),
    ]
}

/// True when the §VI machinery applies: a valid program in the positive
/// range-restricted fragment.
fn semantic_applicable(program: &Program) -> bool {
    validate_positive(program).is_ok()
}

/// Render a [`Witness`] as a human-readable §VI explanation.
fn explain_witness(context: &str, witness: &Witness) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "§VI uniform containment (Theorem 1): {context}");
    let _ = writeln!(
        s,
        "freezing the body yields a canonical database from which the frozen head `{}` is derivable:",
        witness.goal
    );
    let _ = write!(s, "{}", witness.proof);
    s
}

/// `L200`: the program is outside the positive fragment, so the semantic
/// tier (`L201`–`L203`) did not run.
pub struct SemanticTierSkipped;

impl Lint for SemanticTierSkipped {
    fn code(&self) -> &'static str {
        "L200"
    }
    fn name(&self) -> &'static str {
        "semantic-tier-skipped"
    }
    fn description(&self) -> &'static str {
        "the program is outside the positive fragment, so the §VI-based semantic lints were skipped"
    }
    fn default_severity(&self) -> Severity {
        Severity::Note
    }
    fn is_semantic(&self) -> bool {
        true
    }
    fn run(&self, cx: &mut LintContext<'_>) {
        if semantic_applicable(cx.program()) {
            return;
        }
        cx.emit(Diagnostic::new(
            self.code(),
            self.default_severity(),
            "semantic lints (L201-L203) skipped: the §VI containment test applies only to valid positive programs",
        ));
    }
}

/// `L201`: a body atom is redundant — removing it leaves a rule that is
/// still uniformly contained in the program (Fig. 1 generalized by §VI).
pub struct RedundantAtom;

impl Lint for RedundantAtom {
    fn code(&self) -> &'static str {
        "L201"
    }
    fn name(&self) -> &'static str {
        "redundant-atom"
    }
    fn description(&self) -> &'static str {
        "a body atom can be removed without changing the program (§VI uniform containment, Fig. 1)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn is_semantic(&self) -> bool {
        true
    }
    fn run(&self, cx: &mut LintContext<'_>) {
        let program = cx.program().clone();
        if !semantic_applicable(&program) {
            return;
        }
        let containment = Containment::new(&program);
        for (rule_idx, rule) in program.rules.iter().enumerate() {
            if rule.body.len() < 2 {
                continue;
            }
            for atom_idx in 0..rule.body.len() {
                let relaxed = rule.without_body_atom(atom_idx);
                // Dropping the atom may strand a head variable; such a
                // removal is never equivalence-preserving.
                if !relaxed.is_range_restricted() {
                    continue;
                }
                if !cx.burn_fuel() {
                    continue;
                }
                if let Ok(witness) = containment.evidence(&relaxed) {
                    let atom = &rule.body[atom_idx].atom;
                    cx.emit(
                        Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!(
                                "body atom `{atom}` is redundant: the rule without it is already uniformly contained in the program"
                            ),
                        )
                        .at_body_atom(&program, rule_idx, atom_idx)
                        .with_suggestion(format!("remove `{atom}` from the body"))
                        .with_explanation(explain_witness(
                            &format!(
                                "the relaxed rule `{relaxed}` satisfies r' ⊑u P, so deleting `{atom}` preserves equivalence."
                            ),
                            &witness,
                        )),
                    );
                }
            }
        }
    }
}

/// `L202`: a whole rule is redundant — it is uniformly contained in the
/// rest of the program (Fig. 2).
pub struct RedundantRule;

impl Lint for RedundantRule {
    fn code(&self) -> &'static str {
        "L202"
    }
    fn name(&self) -> &'static str {
        "redundant-rule"
    }
    fn description(&self) -> &'static str {
        "a rule is uniformly contained in the rest of the program and can be deleted (Fig. 2, §VI)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn is_semantic(&self) -> bool {
        true
    }
    fn run(&self, cx: &mut LintContext<'_>) {
        let program = cx.program().clone();
        if !semantic_applicable(&program) {
            return;
        }
        // A rule for a predicate with no other derivation path can still be
        // redundant (e.g. a tautology), but skip the common trivial case of
        // the sole fact-free program.
        if program.rules.len() < 2 {
            return;
        }
        let containment = Containment::new(&program);
        for (rule_idx, rule) in program.rules.iter().enumerate() {
            if !cx.burn_fuel() {
                continue;
            }
            if let Ok(witness) = containment.evidence_without(rule, rule_idx) {
                cx.emit(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        "rule is redundant: it is uniformly contained in the rest of the program"
                            .to_string(),
                    )
                    .at_rule(&program, rule_idx)
                    .with_suggestion("delete the rule")
                    .with_explanation(explain_witness(
                        &format!("`{rule}` ⊑u (P minus this rule), the Fig. 2 deletion test."),
                        &witness,
                    )),
                );
            }
        }
    }
}

/// `L203`: a rule is subsumed by a single other rule as a conjunctive
/// query (§V homomorphism test). Saturation-free; a weaker, cheaper signal
/// than `L202`, so rules already flagged there are skipped.
pub struct SubsumedRuleHint;

impl Lint for SubsumedRuleHint {
    fn code(&self) -> &'static str {
        "L203"
    }
    fn name(&self) -> &'static str {
        "subsumed-rule"
    }
    fn description(&self) -> &'static str {
        "a rule is subsumed by one other rule under the §V Chandra-Merlin homomorphism test"
    }
    fn default_severity(&self) -> Severity {
        Severity::Note
    }
    fn is_semantic(&self) -> bool {
        true
    }
    fn run(&self, cx: &mut LintContext<'_>) {
        let program = cx.program().clone();
        if !semantic_applicable(&program) {
            return;
        }
        let already_flagged: Vec<usize> = cx
            .diagnostics()
            .iter()
            .filter(|d| d.code == "L202")
            .filter_map(|d| d.rule_idx)
            .collect();
        for (i, ri) in program.rules.iter().enumerate() {
            if already_flagged.contains(&i) {
                continue;
            }
            if let Some((j, h)) = subsuming_rule(&program, i, ri) {
                let mapping = render_subst(&h);
                cx.emit(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        format!("rule is subsumed by rule {j} as a conjunctive query"),
                    )
                    .at_rule(&program, i)
                    .with_suggestion("delete the rule; the subsuming rule derives everything it does")
                    .with_explanation(format!(
                        "§V (Chandra-Merlin): the homomorphism {{{mapping}}} maps rule {j}'s head and body into this rule, witnessing containment."
                    )),
                );
            }
        }
    }
}

/// Find a rule `j != i` with the same head predicate whose CQ contains
/// `ri`, returning the witnessing homomorphism.
fn subsuming_rule(program: &Program, i: usize, ri: &Rule) -> Option<(usize, datalog_ast::Subst)> {
    program.rules.iter().enumerate().find_map(|(j, rj)| {
        if j == i || rj.head.pred != ri.head.pred {
            return None;
        }
        homomorphism(ri, rj).map(|h| (j, h))
    })
}

fn render_subst(h: &datalog_ast::Subst) -> String {
    let mut pairs: Vec<String> = h
        .iter()
        .map(|(v, t)| format!("{} -> {t}", v.name()))
        .collect();
    pairs.sort();
    pairs.join(", ")
}

#[cfg(test)]
mod tests {
    use crate::config::LintConfig;
    use crate::registry::{LintInput, Registry};
    use datalog_ast::parse_program;

    fn run(src: &str) -> crate::registry::Report {
        let program = parse_program(src).unwrap();
        Registry::with_default_lints()
            .run(&LintInput::from_program(program), &LintConfig::default())
    }

    #[test]
    fn example7_redundant_atom_flagged() {
        // Example 7 (§VI): in the recursive rule, a(W, Y) is redundant.
        let report = run("g(X, Y, Z) :- a(X, Y), a(X, Z).\n\
             g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L201")
            .expect("L201 fires on Example 7");
        assert!(d.message.contains("a(W, Y)"), "message: {}", d.message);
        assert_eq!(d.rule_idx, Some(1));
        let explanation = d.explanation.as_ref().unwrap();
        assert!(
            explanation.contains("§VI"),
            "explanation cites §VI: {explanation}"
        );
        assert!(report.fuel_used > 0, "semantic lints consumed fuel");
    }

    #[test]
    fn duplicate_rule_flagged_redundant() {
        let report = run("p(X) :- e(X).\np(X) :- e(X).");
        assert!(
            report.diagnostics.iter().any(|d| d.code == "L202"),
            "a duplicated rule is contained in the rest of the program: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn specialized_rule_subsumed_by_general_one() {
        // Rule 1 is a strict specialization of rule 0 (extra join), caught
        // by the §V homomorphism hint even with L202 disabled.
        let program = parse_program("p(X) :- e(X).\np(X) :- e(X), f(X).").unwrap();
        let config = LintConfig::default().disable("L202");
        let report = Registry::with_default_lints().run(&LintInput::from_program(program), &config);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L203")
            .expect("L203 fires on the specialized rule");
        assert_eq!(d.rule_idx, Some(1));
        assert!(d.explanation.as_ref().unwrap().contains("§V"));
    }

    #[test]
    fn semantic_tier_skipped_for_negation() {
        let report = run("p(X) :- e(X), !q(X).\nq(X) :- f(X).");
        assert!(report.diagnostics.iter().any(|d| d.code == "L200"));
        assert!(!report.diagnostics.iter().any(|d| d.code == "L201"));
        assert_eq!(report.fuel_used, 0);
    }

    #[test]
    fn fuel_zero_skips_semantic_checks() {
        let program = parse_program(
            "g(X, Y, Z) :- a(X, Y), a(X, Z).\n\
             g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).",
        )
        .unwrap();
        let config = LintConfig::default().with_fuel(0);
        let report = Registry::with_default_lints().run(&LintInput::from_program(program), &config);
        assert_eq!(report.fuel_used, 0);
        assert!(report.skipped_semantic_checks > 0);
        assert!(!report.diagnostics.iter().any(|d| d.code == "L201"));
    }

    #[test]
    fn clean_program_has_no_semantic_findings() {
        let report = run("g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), a(Y, Z).");
        assert!(
            !report.diagnostics.iter().any(|d| d.code.starts_with("L2")),
            "left-linear TC is minimal: {:?}",
            report.diagnostics
        );
    }
}
