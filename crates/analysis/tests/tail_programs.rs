//! The lint twin of `datalog-optimizer`'s `tail_programs`: `guarded_tc(8)`
//! took `datalog lint` 6 min 27 s while every `L201` hit re-ran its §VI test
//! on an evaluator that enumerated all 7^8 bindings of the guards to write
//! the witness down. The witness now comes out of the goal-directed test
//! itself, so the lints are asserted by result and by count, not by time: a
//! return of the tail is a test that does not come back.

use datalog_analysis::{analyze_program, LintConfig};
use datalog_ast::{parse_program, Program};

/// Doubling transitive closure whose recursive rule carries `k` guards
/// `a(Y0, Wi)`, each redundant given any other.
fn guarded_tc(k: usize) -> Program {
    let guards: String = (0..k).map(|i| format!(", a(Y0, W{i})")).collect();
    parse_program(&format!(
        "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y0), g(Y0, Z){guards}."
    ))
    .unwrap()
}

#[test]
fn every_guard_fig2_drops_is_flagged_with_a_one_step_witness() {
    for k in [8, 12] {
        let report = analyze_program(&guarded_tc(k), &LintConfig::default());
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with("L2"))
            .collect();
        // Fig. 2 drops a guard while another one is left: k - 1 of them.
        assert_eq!(hits.len(), k - 1, "guarded_tc({k}): {hits:?}");
        for (i, d) in hits.iter().enumerate() {
            assert_eq!((d.code, d.rule_idx), ("L201", Some(1)));
            assert!(d.message.contains(&format!("a(Y0, W{i})")), "{d}");
            // The frozen head follows from the frozen body by the guarded
            // rule as it stood at that step, with i guards already gone: one
            // rule application over its k + 2 - i body atoms.
            let proof = d.explanation.as_deref().unwrap_or_default();
            assert_eq!(proof.matches("[rule 1]").count(), 1, "{proof}");
            assert_eq!(proof.matches("[input]").count(), k + 2 - i, "{proof}");
        }
        // One §VI test per guard and one per rule; dropping a `g` atom
        // strands a head variable and is never tested.
        assert_eq!(report.fuel_used, k as u64 + 2, "guarded_tc({k})");
        assert_eq!(report.skipped_semantic_checks, 0);
    }
}
