//! Naive bottom-up evaluation — the paper's computation model, literally.
//!
//! §III: "Computing the output by repeatedly instantiating rules, until no
//! new ground atoms can be generated, is known as bottom-up computation."
//!
//! Each round evaluates every rule against the *entire* current database and
//! inserts the instantiated heads; rounds repeat until a fixpoint. The
//! output `P(d)` *contains the input* `d` (§III), including ground atoms
//! supplied for intentional predicates — this is exactly the semantics that
//! uniform equivalence (§IV) quantifies over, so the chase in
//! `datalog-optimizer` runs on this evaluator's semantics (via the faster
//! semi-naive engine, which computes the same fixpoint).

use crate::plan::{instantiate_head, join_body, IndexSet, RulePlan};
use crate::stats::Stats;
use datalog_ast::{Database, Program};

/// Compute `P(d)`: the minimal model of `P` containing `d` (§IV, Van
/// Emden–Kowalski). The input database may contain atoms for intentional
/// predicates; they are kept (the output contains the input).
///
/// Negation-free programs only; use [`crate::evaluate`] for stratified
/// programs. Rules with negated literals cause a panic here — callers are
/// expected to validate with `datalog_ast::validate_positive` first.
pub fn evaluate(program: &Program, input: &Database) -> Database {
    evaluate_with_stats(program, input).0
}

/// [`evaluate`], also returning work counters.
pub fn evaluate_with_stats(program: &Program, input: &Database) -> (Database, Stats) {
    assert!(
        program.is_positive(),
        "naive::evaluate requires a positive program; use datalog_engine::evaluate"
    );
    let plans: Vec<RulePlan> = program.rules.iter().map(RulePlan::compile).collect();
    let mut db = input.clone();
    let mut stats = Stats::default();
    loop {
        stats.iterations += 1;
        let mut new_atoms = Vec::new();
        {
            let mut idx = IndexSet::new(&db);
            for plan in &plans {
                let order = plan.greedy_order(&db);
                join_body(plan, &order, &mut idx, |assignment| {
                    stats.matches += 1;
                    new_atoms.push(instantiate_head(plan, assignment));
                });
            }
            stats.probes += idx.probes;
        }
        let mut changed = false;
        for atom in new_atoms {
            if db.insert(atom) {
                stats.derivations += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (db, stats)
}

/// Apply `P` **non-recursively** (§IX): derive only the atoms obtainable by
/// a single rule application to `d` itself. Following the paper's
/// definition, the result `Pⁿ(d)` contains *only the newly derived atoms*,
/// not `d`.
pub fn apply_once(program: &Program, d: &Database) -> Database {
    let plans: Vec<RulePlan> = program.rules.iter().map(RulePlan::compile).collect();
    let mut out = Database::new();
    let mut idx = IndexSet::new(d);
    for plan in &plans {
        let order = plan.greedy_order(d);
        join_body(plan, &order, &mut idx, |assignment| {
            out.insert(instantiate_head(plan, assignment));
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program};

    fn tc_program() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn example2_exact_output() {
        // §III Example 2: EDB {A(1,2), A(1,4), A(4,1)} →
        // DB also contains G(1,2), G(1,4), G(4,1), G(1,1), G(4,4), G(4,2).
        let edb = parse_database("a(1,2). a(1,4). a(4,1).").unwrap();
        let out = evaluate(&tc_program(), &edb);
        let expected = parse_database(
            "a(1,2). a(1,4). a(4,1).
             g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).",
        )
        .unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn example3_idb_input() {
        // §III Example 3: input {A(1,2), A(1,4), G(4,1)} gives the same
        // output as Example 2 but with A(4,1) omitted.
        let input = parse_database("a(1,2). a(1,4). g(4,1).").unwrap();
        let out = evaluate(&tc_program(), &input);
        let expected = parse_database(
            "a(1,2). a(1,4).
             g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).",
        )
        .unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn output_contains_input() {
        let input = parse_database("a(1,2). g(7,8).").unwrap();
        let out = evaluate(&tc_program(), &input);
        assert!(input.is_subset_of(&out));
    }

    #[test]
    fn empty_program_is_identity() {
        let input = parse_database("a(1,2).").unwrap();
        let out = evaluate(&Program::empty(), &input);
        assert_eq!(out, input);
    }

    #[test]
    fn facts_in_program_are_derived() {
        let p = parse_program("a(1, 2). g(X, Y) :- a(X, Y).").unwrap();
        let out = evaluate(&p, &Database::new());
        assert!(out.contains(&fact("a", [1, 2])));
        assert!(out.contains(&fact("g", [1, 2])));
    }

    #[test]
    fn apply_once_is_nonrecursive() {
        // §IX Example 12: P applied non-recursively to
        // {A(1,2), G(2,3), G(3,4)} yields {G(1,2), G(2,4)} only.
        let d = parse_database("a(1,2). g(2,3). g(3,4).").unwrap();
        let out = apply_once(&tc_program(), &d);
        let expected = parse_database("g(1,2). g(2,4).").unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn example12_full_evaluation() {
        // §IX Example 12 also gives P(d) in full.
        let d = parse_database("a(1,2). g(2,3). g(3,4).").unwrap();
        let out = evaluate(&tc_program(), &d);
        let expected =
            parse_database("a(1,2). g(2,3). g(3,4). g(1,2). g(1,3). g(2,4). g(1,4).").unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn stats_are_populated() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let (_, stats) = evaluate_with_stats(&tc_program(), &edb);
        assert!(stats.iterations >= 2);
        assert!(stats.derivations >= 6); // 6 g-atoms in the closure
        assert!(stats.probes > 0);
        assert!(stats.matches >= stats.derivations);
    }

    #[test]
    fn chain_closure_size() {
        // Closure of an n-chain has n(n+1)/2 pairs.
        let mut facts = String::new();
        let n = 12;
        for i in 0..n {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let out = evaluate(&tc_program(), &edb);
        let expected = (n * (n + 1)) / 2;
        assert_eq!(out.relation_len(datalog_ast::Pred::new("g")), expected);
    }

    #[test]
    #[should_panic(expected = "positive program")]
    fn negation_is_rejected() {
        let p = parse_program("p(X) :- q(X), !r(X).").unwrap();
        evaluate(&p, &Database::new());
    }
}
