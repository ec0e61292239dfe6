//! The programs that used to be the optimizer's tail: `guarded_tc(8)` took
//! 52 s and `bloated_tc(20, 0)` 4.7 to 6.7 s while the §VI test evaluated
//! every frozen body to its full fixpoint and enumerated every binding of
//! every guard. They are asserted by result and by count, not by time: run
//! in release mode (CI does) they take milliseconds, and a return of the
//! tail is a test that does not come back.

use datalog_ast::{parse_program, Program};
use datalog_engine::{EvalContext, EvalOptions, Traced};
use datalog_generate::{bloated_tc, inject, random_program, RandomProgramSpec};
use datalog_optimizer::{freeze_rule, optimize, uniformly_equivalent};

/// Doubling transitive closure whose recursive rule carries `k` guards
/// `a(Y0, Wi)`: all but one fall to Fig. 2, the last to §X-XI.
fn guarded_tc(k: usize) -> Program {
    let guards: String = (0..k).map(|i| format!(", a(Y0, W{i})")).collect();
    parse_program(&format!(
        "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y0), g(Y0, Z){guards}."
    ))
    .unwrap()
}

/// What every program here was grown from and must shrink back to: the
/// doubling program, 2 rules with 3 body atoms between them.
fn assert_planted_recovered(name: &str, program: &Program) {
    let (optimized, _, _) = optimize(program, 10_000).unwrap();
    assert_eq!(
        (optimized.len(), optimized.total_width()),
        (2, 3),
        "{name} optimizes to:\n{optimized}"
    );
}

#[test]
fn guarded_tc_with_8_and_12_guards() {
    assert_planted_recovered("guarded_tc(8)", &guarded_tc(8));
    assert_planted_recovered("guarded_tc(12)", &guarded_tc(12));
}

#[test]
fn bloated_tc_tail_seeds() {
    assert_planted_recovered("bloated_tc(20, 0)", &bloated_tc(20, 0));
    assert_planted_recovered("bloated_tc(24, 3)", &bloated_tc(24, 3));
}

/// Fig. 1's first test on `guarded_tc(8)`: the recursive rule minus one
/// guard, against the program. The frozen body holds seven `a(y0, wi)` rows
/// and the rule eight guards that each match all of them; no guard variable
/// is read again, so every guard is one existential probe and the test a
/// handful of matches where enumerating the guards costs 7^8. The traced
/// test — what a lint hit and `explain` run — costs the same: the witness is
/// the in-flight row of the match that queued the head, not a second search.
#[test]
fn a_guard_costs_one_probe_not_one_per_binding() {
    let program = guarded_tc(8);
    let candidate = program.rules[1].without_body_atom(2);
    let frozen = freeze_rule(&candidate);
    let fresh = || EvalContext::new(&program, frozen.body_db.clone(), EvalOptions::sequential());

    let mut cx = fresh();
    assert!(cx.saturate_until(&[0, 1], &frozen.goal));
    assert!(cx.stats().matches <= 32, "{}", cx.stats());

    let mut traced = Traced::over(fresh(), vec![0, 1]);
    let proof = traced.explain(&frozen.goal).expect("contained");
    assert_eq!(traced.stats().matches, cx.stats().matches);
    assert_eq!(traced.stats().probes, cx.stats().probes);
    assert_eq!(proof.check(&program, &frozen.body_db), Ok(()));
}

/// Random 100-rule programs. On seeds 2 and 7 `optimize` did not come back:
/// Fig. 3 ran one tgd's combinations in order, each to the end of its fuel,
/// and a combination that disproves the tgd in under a millisecond waited
/// behind two that spent 16 s and 19 s out of fuel. The combinations now
/// deepen their fuel together, and the first disproof ends the test. Every
/// Fig. 3 step, chase repair and (3′) check on these seeds is an engine
/// evaluation, so a slow one shows here as a test that does not return.
#[test]
fn fig3_does_not_wait_behind_combinations_out_of_fuel() {
    let spec = RandomProgramSpec {
        rules: 100,
        body_len: (2, 4),
        ..RandomProgramSpec::default()
    };
    for seed in 1..=8 {
        let program = random_program(&spec, seed);
        let (optimized, _, applied) = optimize(&program, 10_000).unwrap();
        // No tgd fires here, so what is left is Fig. 2's work: ≡u.
        assert!(applied.is_empty(), "seed {seed}: {applied:?}");
        assert!(
            uniformly_equivalent(&optimized, &program).unwrap(),
            "seed {seed}: {optimized}"
        );
    }
}

/// `optimize`'s §X-XI deletions, one line each: the rule's index at the
/// time, the atoms removed and the tgd that certified it.
fn applied_lines(program: &Program) -> Vec<String> {
    let (_, _, applied) = optimize(program, 10_000).unwrap();
    (applied.iter())
        .map(|a| {
            let removed: Vec<String> = a.removed_atoms.iter().map(|x| x.to_string()).collect();
            format!("{} [{}] {}", a.rule_idx, removed.join(", "), a.tgd)
        })
        .collect()
}

/// §X-XI's deletions on the benchmark corpus's programs are pinned, so a
/// change to what it tests per candidate shows as a different list, not
/// only as a different width. On `guarded_tc(k)` Fig. 2 removes all guards
/// but the last, which the tgd from the second `g` atom certifies;
/// `random-7-60` (the optimize corpus's largest random program) has no
/// deletion that Fig. 3 proves.
#[test]
fn equivalence_deletions_are_pinned() {
    for k in 3..=7 {
        let last = k - 1;
        assert_eq!(
            applied_lines(&guarded_tc(k)),
            [format!("1 [a(Y0, W{last})] g(Y0, Z) -> a(Y0, W{last}).")],
            "guarded_tc({k})"
        );
    }
    let spec = RandomProgramSpec {
        rules: 60,
        ..RandomProgramSpec::default()
    };
    let (random_7_60, _) = inject(&random_program(&spec, 7), 60, 307);
    assert_eq!(applied_lines(&random_7_60), Vec::<String>::new());
}
