//! Naive bottom-up evaluation — the paper's computation model, literally,
//! and the one reference matcher of the tree.
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
//!
//! A rule body is matched by a nested loop over the rows of each positive
//! literal in the order written (`for_each_match`, extending a [`Subst`]
//! with `match_atom_into`), then each negated literal is one absence test.
//! The module is built on `datalog_ast` alone — no plan, index, script or
//! kernel — so the tests and fuzz oracles that compare the engine against
//! it share none of the engine's code. It is meant for small inputs.

use crate::stats::Stats;
use datalog_ast::{match_atom_into, Atom, Const, Database, GroundAtom, Program, Subst, Tgd};
use std::cell::Cell;

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
    let mut db = input.clone();
    let mut stats = Stats::default();
    loop {
        stats.iterations += 1;
        let mut changed = false;
        for atom in apply_rules(program, &db, &mut stats) {
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
/// not `d`. Negated literals are absence tests against `d`.
pub fn apply_once(program: &Program, d: &Database) -> Database {
    Database::from_atoms(apply_rules(program, d, &mut Stats::default()))
}

/// Whether `db` satisfies `tgd` (§VIII): every match of its lhs extends to
/// a match of its rhs.
pub fn satisfies(db: &Database, tgd: &Tgd) -> bool {
    let probes = Cell::new(0);
    !for_each_match(&tgd.lhs, db, &Subst::new(), &probes, &mut |s| {
        !for_each_match(&tgd.rhs, db, s, &probes, &mut |_| true)
    })
}

/// The heads of one application of every rule to `db`, one per body match:
/// the positive literals as written, then each negated literal as an
/// absence test.
fn apply_rules(program: &Program, db: &Database, stats: &mut Stats) -> Vec<GroundAtom> {
    let mut heads = Vec::new();
    let probes = Cell::new(0);
    for rule in &program.rules {
        let positive: Vec<Atom> = rule.positive_body().cloned().collect();
        for_each_match(&positive, db, &Subst::new(), &probes, &mut |s| {
            let absent = rule.negative_body().all(|atom| {
                let atom = s
                    .ground_atom(atom)
                    .expect("negated atom with unbound variable; rule not safe");
                probes.set(probes.get() + 1);
                !db.contains(&atom)
            });
            if absent {
                heads.push(
                    s.ground_atom(&rule.head)
                        .expect("head variable unbound; rule not range-restricted"),
                );
            }
            false
        });
    }
    stats.matches += heads.len() as u64;
    stats.probes += probes.get();
    heads
}

/// Enumerate all matches of a conjunction of atoms against `db`, extending
/// `base`, and call `found` with each; `found` returns `true` to stop.
/// Returns whether enumeration stopped early. Each atom costs one probe: a
/// membership test when `base` grounds it, a scan of its relation
/// otherwise.
fn for_each_match(
    atoms: &[Atom],
    db: &Database,
    base: &Subst,
    probes: &Cell<u64>,
    found: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let Some((first, rest)) = atoms.split_first() else {
        return found(base);
    };
    let pattern = base.apply_atom(first);
    probes.set(probes.get() + 1);
    if let Some(g) = pattern.to_ground() {
        return db.contains(&g) && for_each_match(rest, db, base, probes, found);
    }
    let Some(rel) = db.relation_of(pattern.pred, pattern.arity()) else {
        return false;
    };
    let consts: Vec<(usize, Const)> = pattern
        .terms
        .iter()
        .enumerate()
        .filter_map(|(i, t)| Some((i, t.as_const()?)))
        .collect();
    for row in rel.rows() {
        // A row that clashes at a constant position is skipped before the
        // substitution is copied.
        if consts.iter().any(|&(i, c)| row[i] != c) {
            continue;
        }
        let g = GroundAtom {
            pred: pattern.pred,
            tuple: row.into(),
        };
        let mut s = base.clone();
        if match_atom_into(&pattern, &g, &mut s) && for_each_match(rest, db, &s, probes, found) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program, parse_tgd};

    fn tc_program() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    /// The heads one application of the single `rule` derives on `db`, in
    /// tuple order.
    fn apply(rule: &str, db: &str) -> Vec<GroundAtom> {
        let program = parse_program(rule).unwrap();
        let db = parse_database(db).unwrap();
        apply_once(&program, &db).iter().collect()
    }

    #[test]
    fn single_atom_scan() {
        let got = apply("g(X, Z) :- a(X, Z).", "a(1,2). a(2,3).");
        assert_eq!(got, vec![fact("g", [1, 2]), fact("g", [2, 3])]);
    }

    #[test]
    fn two_way_join() {
        let got = apply("g(X, Z) :- a(X, Y), a(Y, Z).", "a(1,2). a(2,3). a(3,4).");
        assert_eq!(got, vec![fact("g", [1, 3]), fact("g", [2, 4])]);
    }

    #[test]
    fn constant_in_body_restricts() {
        let got = apply("g(X) :- a(2, X).", "a(1,2). a(2,3).");
        assert_eq!(got, vec![fact("g", [3])]);
    }

    #[test]
    fn constant_in_head() {
        let got = apply("g(X, 9) :- a(X, Y).", "a(1,2).");
        assert_eq!(got, vec![fact("g", [1, 9])]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let got = apply("g(X) :- a(X, X).", "a(1,1). a(1,2).");
        assert_eq!(got, vec![fact("g", [1])]);
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let got = apply("g(X, Y) :- a(X), b(Y).", "a(1). a(2). b(7). b(8).");
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn negation_filters() {
        let got = apply("g(X) :- a(X), !bad(X).", "a(1). a(2). bad(2).");
        assert_eq!(got, vec![fact("g", [1])]);
    }

    #[test]
    fn negation_written_before_its_binder() {
        let got = apply("g(X) :- !bad(X), a(X).", "a(1). a(2). bad(2).");
        assert_eq!(got, vec![fact("g", [1])]);
    }

    #[test]
    fn predicate_at_two_arities() {
        let got = apply("g(X, Y) :- a(X), a(X, Y).", "a(1). a(3). a(1,2). a(2,4).");
        assert_eq!(got, vec![fact("g", [1, 2])]);
    }

    #[test]
    fn twin_counts_one_match_per_assignment() {
        let p = parse_program("g(X) :- a(X), a(X).").unwrap();
        let db = parse_database("a(1). a(2).").unwrap();
        let (out, stats) = evaluate_with_stats(&p, &db);
        assert_eq!(out.relation_len(datalog_ast::Pred::new("g")), 2);
        // Two rounds (the second finds nothing new), two assignments each.
        assert_eq!((stats.iterations, stats.matches), (2, 4));
        // Per round: one scan of a, then one membership test per row.
        assert_eq!(stats.probes, 6);
    }

    #[test]
    fn probe_counting() {
        let p = parse_program("g(X, Z) :- a(X, Y), a(Y, Z).").unwrap();
        let db = parse_database("a(1,2). a(2,3).").unwrap();
        let (_, stats) = evaluate_with_stats(&p, &db);
        // Per round: one scan of a, and one scan of a per row it binds Y
        // from. The second round derives nothing new.
        assert_eq!((stats.iterations, stats.probes), (2, 6));
        // A membership test is one probe too: a(1, 2) is ground.
        let p = parse_program("g(X) :- a(1, 2), a(X, Y).").unwrap();
        let (_, stats) = evaluate_with_stats(&p, &db);
        assert_eq!((stats.iterations, stats.probes), (2, 4));
    }

    #[test]
    fn tgd_satisfaction() {
        let tgd = parse_tgd("g(X, Y) -> a(X, Z).").unwrap();
        let db = parse_database("g(1,2). a(1,5).").unwrap();
        assert!(satisfies(&db, &tgd));
        let db = parse_database("g(1,2). g(3,4). a(1,5).").unwrap();
        assert!(!satisfies(&db, &tgd));
        assert!(satisfies(&Database::new(), &tgd));
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
