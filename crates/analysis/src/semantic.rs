//! Semantic lints (`L2xx`): paper-grounded redundancy checks backed by the
//! §VI freeze+saturate uniform-containment test and the §V Chandra–Merlin
//! homomorphism test.
//!
//! These lints only apply to valid positive programs (the fragment where
//! Theorem 1's decision procedure is sound and complete); elsewhere `L200`
//! reports that the semantic tier was skipped. `L201`/`L202` run no test of
//! their own: they report Fig. 2's removals ([`LintContext::minimization`]),
//! which Theorem 2 makes sound together, each with the witness of the test
//! that accepted it. Every §VI test costs one unit of fuel; the `L203`
//! homomorphism hint is saturation-free.

use crate::diagnostic::{Diagnostic, Severity};
use crate::registry::{Lint, LintContext};
use datalog_ast::{validate_positive, Program, Rule};
use datalog_optimizer::{homomorphism, Witness};
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

/// `L201`: a body atom Fig. 2 removes — the rule without it is uniformly
/// contained in the program as it stood at that step. A copy of a literal
/// that `L122` already flagged in the same rule is not reported again.
pub struct RedundantAtom;

impl Lint for RedundantAtom {
    fn code(&self) -> &'static str {
        "L201"
    }
    fn name(&self) -> &'static str {
        "redundant-atom"
    }
    fn description(&self) -> &'static str {
        "a body atom that Fig. 2 removes: the rule without it is uniformly contained in the program (§VI)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, cx: &mut LintContext<'_>) {
        let program = cx.program();
        let Some(run) = cx.minimization() else {
            return;
        };
        // `L122` findings not yet matched by a removal.
        let mut twins: Vec<(Option<usize>, String)> = (cx.diagnostics().iter())
            .filter(|d| d.code == "L122")
            .map(|d| (d.rule_idx, d.message.clone()))
            .collect();
        // Each rule's original body positions removed so far.
        let mut removed: Vec<Vec<usize>> = vec![Vec::new(); program.len()];
        let (removal, witnesses) = &*run;
        for (((rule_idx, atom), &pos), witness) in removal
            .atoms
            .iter()
            .zip(&removal.atom_positions)
            .zip(witnesses)
        {
            let rule = &program.rules[*rule_idx];
            removed[*rule_idx].push(pos);
            let relaxed = without(rule, &removed[*rule_idx]);
            let literal = format!("literal `{}` ", rule.body[pos]);
            let twin =
                (twins.iter()).position(|(i, m)| *i == Some(*rule_idx) && m.starts_with(&literal));
            if let Some(twin) = twin {
                twins.swap_remove(twin);
                continue;
            }
            cx.emit(
                Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    format!(
                        "body atom `{atom}` is redundant: the rule without it is already uniformly contained in the program"
                    ),
                )
                .at_body_atom(program, *rule_idx, pos)
                .with_suggestion(format!("remove `{atom}` from the body"))
                .with_explanation(explain_witness(
                    &format!(
                        "the relaxed rule `{relaxed}` satisfies r' ⊑u P, so deleting `{atom}` preserves equivalence (Fig. 2, with the removals before it applied)."
                    ),
                    witness,
                )),
            );
        }
    }
}

/// `L202`: a rule Fig. 2 deletes — uniformly contained in the rest of the
/// program as it stood at that step.
pub struct RedundantRule;

impl Lint for RedundantRule {
    fn code(&self) -> &'static str {
        "L202"
    }
    fn name(&self) -> &'static str {
        "redundant-rule"
    }
    fn description(&self) -> &'static str {
        "a rule that Fig. 2 deletes: it is uniformly contained in the rest of the program (§VI)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, cx: &mut LintContext<'_>) {
        let program = cx.program();
        let Some(run) = cx.minimization() else {
            return;
        };
        let (removal, witnesses) = &*run;
        let witnesses = &witnesses[removal.atoms.len()..];
        for ((rule, &rule_idx), witness) in removal
            .rules
            .iter()
            .zip(&removal.rule_indices)
            .zip(witnesses)
        {
            cx.emit(
                Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    "rule is redundant: it is uniformly contained in the rest of the program",
                )
                .at_rule(program, rule_idx)
                .with_suggestion("delete the rule")
                .with_explanation(explain_witness(
                    &format!("`{rule}` ⊑u (P minus this rule), the Fig. 2 deletion test."),
                    witness,
                )),
            );
        }
    }
}

/// `L203`: a rule is subsumed by a single other rule as a conjunctive
/// query (§V homomorphism test), as written and with Fig. 2's atom removals
/// applied, by a rule no `L202`/`L203` finding deletes. Saturation-free, it
/// speaks when `L202` does not: Theorem 2 leaves no rule subsumed.
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
    fn run(&self, cx: &mut LintContext<'_>) {
        let program = cx.program();
        if !semantic_applicable(program) {
            return;
        }
        // Every rule with Fig. 2's atom removals applied.
        let mut removed: Vec<Vec<usize>> = vec![Vec::new(); program.len()];
        if let Some(run) = cx.minimization() {
            let (removal, _) = &*run;
            for ((rule_idx, _), &pos) in removal.atoms.iter().zip(&removal.atom_positions) {
                removed[*rule_idx].push(pos);
            }
        }
        let shrunk: Vec<Rule> = (program.rules.iter().zip(&removed))
            .map(|(rule, gone)| without(rule, gone))
            .collect();
        let mut deleted: Vec<usize> = (cx.diagnostics().iter())
            .filter(|d| d.code == "L202")
            .filter_map(|d| d.rule_idx)
            .collect();
        // Rules some finding names as the subsumer: they stay.
        let mut kept: Vec<usize> = Vec::new();
        for (i, ri) in program.rules.iter().enumerate() {
            if deleted.contains(&i) || kept.contains(&i) {
                continue;
            }
            let subsumer = program.rules.iter().enumerate().find_map(|(j, rj)| {
                let live = j != i && !deleted.contains(&j) && rj.head.pred == ri.head.pred;
                let h = live.then(|| homomorphism(ri, rj))??;
                homomorphism(&shrunk[i], &shrunk[j]).map(|_| (j, h))
            });
            if let Some((j, h)) = subsumer {
                deleted.push(i);
                kept.push(j);
                let mapping = render_subst(&h);
                cx.emit(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        format!("rule is subsumed by rule {j} as a conjunctive query"),
                    )
                    .at_rule(program, i)
                    .with_suggestion("delete the rule; the subsuming rule derives everything it does")
                    .with_explanation(format!(
                        "§V (Chandra-Merlin): the homomorphism {{{mapping}}} maps rule {j}'s head and body into this rule, witnessing containment."
                    )),
                );
            }
        }
    }
}

/// `rule` without the body literals at `positions`.
fn without(rule: &Rule, positions: &[usize]) -> Rule {
    let body = (rule.body.iter().enumerate())
        .filter(|(i, _)| !positions.contains(i))
        .map(|(_, l)| l.clone())
        .collect();
    Rule::new(rule.head.clone(), body)
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
    fn suggestions_are_fig2s_removals_each_reported_once() {
        // Fig. 2 drops one copy of the twin and then the shrunken rule; the
        // twin is `L122`'s, so `L201` has nothing left to say.
        let report = run("g(X, Z) :- a(X, Z).\n\
             g(X, Z) :- g(X, Y), g(Y, Z), g(Y, Z).\n\
             g(X, Z) :- g(X, Y), g(Y, Z).");
        let codes: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.rule_idx))
            .collect();
        assert_eq!(codes, [("L122", Some(1)), ("L202", Some(1))]);
        // Without `L122`, `L201` reports the copy Fig. 2 removed.
        let program = parse_program("p(X) :- e(X), e(X), f(X).").unwrap();
        let config = LintConfig::default().disable("L122");
        let report = Registry::with_default_lints().run(&LintInput::from_program(program), &config);
        let semantic: Vec<_> = (report.diagnostics.iter())
            .filter(|d| d.code.starts_with("L2"))
            .collect();
        let [d] = semantic[..] else {
            panic!("{semantic:?}")
        };
        assert_eq!(d.code, "L201");
        assert_eq!(d.span.map(|s| s.col), Some(9), "the first copy: {d}");
    }

    #[test]
    fn the_tier_runs_only_when_fuel_covers_fig2() {
        // Σ widths + |P| = 4 + 2: one test per atom and per rule at most.
        let program = parse_program("p(X) :- e(X), f(X), e(X).\np(X) :- e(X).").unwrap();
        let lint = |fuel| {
            Registry::with_default_lints().run(
                &LintInput::from_program(program.clone()),
                &LintConfig::default().with_fuel(fuel),
            )
        };
        let short = lint(5);
        assert_eq!((short.fuel_used, short.skipped_semantic_checks), (0, 6));
        assert!(!short.diagnostics.iter().any(|d| d.code == "L202"));
        let enough = lint(6);
        assert_eq!(enough.skipped_semantic_checks, 0);
        // Two atoms and both rules: dropping the last `e(X)` of either rule
        // strands `X`, and that test is not run.
        assert_eq!(enough.fuel_used, 4);
        assert!(enough.diagnostics.iter().any(|d| d.code == "L202"));
    }

    #[test]
    fn identical_rules_are_not_flagged_against_each_other() {
        // With the §VI tier starved, `L203` alone speaks: of three copies it
        // flags two, each against the one copy it keeps.
        let program = parse_program("p(X) :- e(X).\np(X) :- e(X).\np(X) :- e(X).").unwrap();
        let config = LintConfig::default().with_fuel(0);
        let report = Registry::with_default_lints().run(&LintInput::from_program(program), &config);
        let flagged: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L203")
            .map(|d| (d.rule_idx, d.message.as_str()))
            .collect();
        assert_eq!(
            flagged,
            [
                (Some(0), "rule is subsumed by rule 1 as a conjunctive query"),
                (Some(2), "rule is subsumed by rule 1 as a conjunctive query"),
            ]
        );
    }

    #[test]
    fn a_rule_fig2_shrinks_is_not_flagged_against_its_old_subsumer() {
        // As written, rule 2 is subsumed by rule 1. Fig. 2 shrinks it to
        // `q(V1) :- c(V1).` and then deletes rule 0 in its favour, so
        // deleting rule 2 as well would lose every `q` that `c` derives.
        let report = run("q(V2) :- c(V2).\n\
             q(V1) :- a(V2, V1).\n\
             q(V1) :- a(V0, V1), c(V1).");
        let codes: Vec<_> = (report.diagnostics.iter())
            .filter(|d| d.code.starts_with("L2"))
            .map(|d| (d.code, d.rule_idx))
            .collect();
        assert_eq!(codes, [("L202", Some(0)), ("L201", Some(2))]);
    }

    #[test]
    fn no_default_lint_is_an_error_on_a_valid_positive_program() {
        // What a daemon install accepts — valid and positive — no default
        // lint rejects: L101-L103 restate `validate`, L104 needs negation.
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
        let mut programs: Vec<datalog_ast::Program> = std::fs::read_dir(data)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "dl"))
            .map(|p| {
                datalog_ast::parse_unit(&std::fs::read_to_string(p).unwrap())
                    .unwrap()
                    .program
            })
            .collect();
        let spec = datalog_generate::RandomProgramSpec {
            rules: 12,
            body_len: (1, 4),
            ..Default::default()
        };
        programs.extend((0..64).map(|seed| datalog_generate::random_program(&spec, seed)));
        let mut checked = 0;
        for program in programs {
            if datalog_ast::validate(&program).is_err() || !program.is_positive() {
                continue;
            }
            let report = crate::analyze_program(&program, &LintConfig::default());
            assert!(
                report.max_severity() < Some(crate::Severity::Error),
                "{program}\n{:?}",
                report.diagnostics
            );
            checked += 1;
        }
        assert!(checked >= 64, "{checked} programs checked");
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
