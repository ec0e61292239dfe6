//! QSQR — Query-SubQuery with recursion: memoized top-down evaluation.
//!
//! The paper's introduction situates itself among query-evaluation methods
//! that "use the constants specified in the query in order to restrict the
//! size of intermediate results" (§I), citing top-down approaches
//! (Henschen–Naqvi, Ullman's survey) alongside magic sets. QSQR is the
//! standard memoized top-down strategy: starting from the query's bound
//! arguments, it issues *subqueries* (adorned predicate + binding for the
//! bound positions), evaluates rule bodies left-to-right propagating
//! bindings sideways, and memoizes both the subqueries issued (`input`)
//! and the answers produced (`ans`). Iterating to a global fixpoint makes
//! the recursive case sound and complete.
//!
//! QSQR and the magic-sets rewriting explore the same relevant portion of
//! the fixpoint; the test suite asserts they produce identical answers, and
//! the benchmark suite uses them as mutual baselines.

use crate::magic::Adornment;
use crate::stats::Stats;
use datalog_ast::{Atom, Const, Database, GroundAtom, Pred, Program, Subst, Term, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// A memo key: adorned predicate.
type AdornedPred = (Pred, Adornment);

struct QsqState<'p> {
    program: &'p Program,
    edb: &'p Database,
    idb: BTreeSet<Pred>,
    /// Subqueries issued: bound-position values per adorned predicate.
    input: BTreeMap<AdornedPred, BTreeSet<Vec<Const>>>,
    /// Answers: full tuples per adorned predicate.
    ans: BTreeMap<AdornedPred, BTreeSet<Tuple>>,
    stats: Stats,
}

impl<'p> QsqState<'p> {
    fn bound_values(&self, atom: &Atom, adornment: &Adornment, s: &Subst) -> Option<Vec<Const>> {
        adornment
            .bound_positions()
            .map(|i| s.apply_term(atom.terms[i]).as_const())
            .collect()
    }

    /// Issue a subquery (idempotent). Returns true if it is new.
    fn issue(&mut self, key: AdornedPred, bound: Vec<Const>) -> bool {
        self.input.entry(key).or_default().insert(bound)
    }

    /// One pass: process every memoized subquery against every rule.
    /// Returns whether anything (input or ans) changed.
    fn pass(&mut self) -> bool {
        let before_inputs: usize = self.input.values().map(BTreeSet::len).sum();
        let before_answers: usize = self.ans.values().map(BTreeSet::len).sum();

        let subqueries: Vec<(AdornedPred, Vec<Vec<Const>>)> = self
            .input
            .iter()
            .map(|(k, v)| (k.clone(), v.iter().cloned().collect()))
            .collect();
        for ((pred, adornment), bindings) in subqueries {
            for rule_idx in 0..self.program.len() {
                if self.program.rules[rule_idx].head.pred != pred {
                    continue;
                }
                for binding in &bindings {
                    self.evaluate_rule(rule_idx, &adornment, binding);
                }
            }
        }

        let after_inputs: usize = self.input.values().map(BTreeSet::len).sum();
        let after_answers: usize = self.ans.values().map(BTreeSet::len).sum();
        after_inputs > before_inputs || after_answers > before_answers
    }

    /// Evaluate one rule for a subquery: bind the head's bound positions to
    /// `binding`, sweep the body left-to-right issuing subqueries at IDB
    /// atoms and joining with memoized answers.
    fn evaluate_rule(&mut self, rule_idx: usize, adornment: &Adornment, binding: &[Const]) {
        let rule = self.program.rules[rule_idx].clone();
        // Head binding: unify bound positions with the binding values.
        let mut subst = Subst::new();
        for (pos, &value) in adornment.bound_positions().zip(binding.iter()) {
            match rule.head.terms[pos] {
                Term::Const(c) => {
                    if c != value {
                        return; // head constant conflicts with the binding
                    }
                }
                Term::Var(v) => {
                    if !subst.try_bind(v, Term::Const(value)) {
                        return; // repeated head variable with clashing values
                    }
                }
            }
        }
        let body: Vec<Atom> = rule.positive_body().cloned().collect();
        let mut worklist = vec![(0usize, subst)];
        while let Some((i, s)) = worklist.pop() {
            if i == body.len() {
                if let Some(head) = s.ground_atom(&rule.head) {
                    self.stats.matches += 1;
                    let key = (head.pred, adornment.clone());
                    if self.ans.entry(key).or_default().insert(head.tuple.clone()) {
                        self.stats.derivations += 1;
                    }
                }
                continue;
            }
            let atom = &body[i];
            if self.idb.contains(&atom.pred) {
                // Sub-adornment from the currently bound variables.
                let bound_vars: BTreeSet<_> = s
                    .iter()
                    .filter(|(_, t)| t.is_const())
                    .map(|(v, _)| v)
                    .collect();
                let sub_adornment = Adornment::of_atom(atom, &bound_vars);
                if let Some(bound) = self.bound_values(atom, &sub_adornment, &s) {
                    self.issue((atom.pred, sub_adornment.clone()), bound);
                }
                // Join with memoized answers for this adorned predicate —
                // answers memoized under ANY adornment of this predicate are
                // valid tuples; restrict matching by the current bindings.
                // Facts seeded in the input database under the original IDB
                // name (the §IV uniform-equivalence regime) join in too.
                let tuples: Vec<Tuple> = self
                    .ans
                    .iter()
                    .filter(|((p, _), _)| *p == atom.pred)
                    .flat_map(|(_, set)| set.iter().cloned())
                    .chain(self.edb.relation(atom.pred).map(Tuple::from))
                    .collect();
                for tuple in tuples {
                    self.stats.probes += 1;
                    let g = GroundAtom {
                        pred: atom.pred,
                        tuple,
                    };
                    let pattern = s.apply_atom(atom);
                    let mut s2 = s.clone();
                    if datalog_ast::match_atom_into(&pattern, &g, &mut s2) {
                        worklist.push((i + 1, s2));
                    }
                }
            } else {
                let pattern = s.apply_atom(atom);
                for tuple in self.edb.relation(atom.pred) {
                    self.stats.probes += 1;
                    let g = GroundAtom {
                        pred: atom.pred,
                        tuple: tuple.into(),
                    };
                    let mut s2 = s.clone();
                    if datalog_ast::match_atom_into(&pattern, &g, &mut s2) {
                        worklist.push((i + 1, s2));
                    }
                }
            }
        }
    }
}

/// Answer `query` over `edb` with QSQR. Same contract as
/// [`crate::magic::answer`]: returns the matching tuples under the query's
/// predicate. Positive programs only.
pub fn answer(program: &Program, edb: &Database, query: &Atom) -> Database {
    answer_with_stats(program, edb, query).0
}

/// [`answer`], also returning work counters.
pub fn answer_with_stats(program: &Program, edb: &Database, query: &Atom) -> (Database, Stats) {
    assert!(program.is_positive(), "QSQR requires a positive program");
    let mut state = QsqState {
        program,
        edb,
        idb: program.intentional(),
        input: BTreeMap::new(),
        ans: BTreeMap::new(),
        stats: Stats::default(),
    };
    let query_adornment = Adornment::of_atom(query, &BTreeSet::new());
    let binding: Vec<Const> = query_adornment
        .bound_positions()
        .map(|i| {
            query.terms[i]
                .as_const()
                .expect("bound position holds a constant")
        })
        .collect();
    state.issue((query.pred, query_adornment.clone()), binding);

    // Global fixpoint: passes until neither subqueries nor answers grow.
    loop {
        state.stats.iterations += 1;
        if !state.pass() {
            break;
        }
    }

    // Collect answers by unifying against the query atom (constants and
    // repeated variables alike). The input database's own facts for the
    // query predicate belong in the answer too: the predicate may be
    // extensional, or intentional with seeded facts.
    let mut out = Database::new();
    let memoized = state
        .ans
        .iter()
        .filter(|((p, _), _)| *p == query.pred)
        .flat_map(|(_, tuples)| tuples.iter().map(|t| &**t));
    for tuple in memoized.chain(edb.relation(query.pred)) {
        let g = GroundAtom {
            pred: query.pred,
            tuple: tuple.into(),
        };
        if datalog_ast::match_atom(query, &g).is_some() {
            out.insert(g);
        }
    }
    (out, state.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, magic, EvalOptions, Schedule};
    use datalog_ast::{parse_atom, parse_database, parse_program};

    fn tc_left() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap()
    }

    fn tc_doubling() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn bound_free_chain() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(10,11).").unwrap();
        let query = parse_atom("g(1, X)").unwrap();
        let got = answer(&tc_left(), &edb, &query);
        assert_eq!(got, magic::answer(&tc_left(), &edb, &query));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn agrees_with_magic_on_doubling_rule() {
        let edb = parse_database("a(1,2). a(2,3). a(3,1). a(7,8).").unwrap();
        for q in ["g(1, X)", "g(X, 3)", "g(X, Y)", "g(2, 1)"] {
            let query = parse_atom(q).unwrap();
            assert_eq!(
                answer(&tc_doubling(), &edb, &query),
                magic::answer(&tc_doubling(), &edb, &query),
                "query {q}"
            );
        }
    }

    #[test]
    fn same_generation_bound_query() {
        let p = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
        )
        .unwrap();
        let edb = parse_database(
            "up(1, 11). up(2, 12). flat(11, 12). down(12, 2). down(11, 1). flat(1, 2).",
        )
        .unwrap();
        let query = parse_atom("sg(1, Y)").unwrap();
        let got = answer(&p, &edb, &query);
        let full = evaluate(&p, &edb, Schedule::Strata, EvalOptions::default())
            .unwrap()
            .0;
        let expected: Database = full
            .relation(Pred::new("sg"))
            .filter(|t| t[0] == Const::Int(1))
            .map(|t| GroundAtom {
                pred: Pred::new("sg"),
                tuple: t.into(),
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn avoids_irrelevant_component() {
        let mut facts = String::new();
        for i in 0..15 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", 100 + i, 101 + i));
        }
        let edb = parse_database(&facts).unwrap();
        let query = parse_atom("g(0, X)").unwrap();
        let (got, qsq_stats) = answer_with_stats(&tc_left(), &edb, &query);
        assert_eq!(got.len(), 15);
        let (_, full_stats) =
            evaluate(&tc_left(), &edb, Schedule::Strata, EvalOptions::default()).unwrap();
        assert!(
            qsq_stats.derivations < full_stats.derivations,
            "qsq {} vs full {}",
            qsq_stats.derivations,
            full_stats.derivations
        );
    }

    #[test]
    fn fully_bound_hit_and_miss() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        assert_eq!(
            answer(&tc_left(), &edb, &parse_atom("g(1, 3)").unwrap()).len(),
            1
        );
        assert!(answer(&tc_left(), &edb, &parse_atom("g(3, 1)").unwrap()).is_empty());
    }

    #[test]
    fn head_constant_rules() {
        let p = parse_program("special(1, X) :- a(1, X). special(9, X) :- b(X).").unwrap();
        let edb = parse_database("a(1, 5). b(6).").unwrap();
        let got = answer(&p, &edb, &parse_atom("special(1, X)").unwrap());
        assert_eq!(got.len(), 1);
        assert!(got.contains(&datalog_ast::fact("special", [1, 5])));
        let got9 = answer(&p, &edb, &parse_atom("special(9, X)").unwrap());
        assert!(got9.contains(&datalog_ast::fact("special", [9, 6])));
    }

    #[test]
    fn repeated_variable_query() {
        // Regression (found by the differential fuzzer): the answer filter
        // ignored repeated variables, so `g(X, X)` returned every closure
        // tuple instead of only the diagonal.
        let edb = parse_database("a(1,2). a(2,3). a(3,1).").unwrap();
        let query = parse_atom("g(X, X)").unwrap();
        let got = answer(&tc_doubling(), &edb, &query);
        let full = evaluate(
            &tc_doubling(),
            &edb,
            Schedule::Strata,
            EvalOptions::default(),
        )
        .unwrap()
        .0;
        let expected: Database = full
            .relation(Pred::new("g"))
            .filter(|t| t[0] == t[1])
            .map(|t| GroundAtom {
                pred: Pred::new("g"),
                tuple: t.into(),
            })
            .collect();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn query_on_edb_predicate() {
        // Regression (found by the differential fuzzer): nothing scanned the
        // input database for an extensional query predicate, so the answer
        // came back empty.
        let edb = parse_database("a(1,2). a(1,3). a(2,3).").unwrap();
        let got = answer(&tc_left(), &edb, &parse_atom("a(1, X)").unwrap());
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn seeded_idb_facts_are_visible() {
        // Regression (found by the differential fuzzer): facts seeded under
        // an IDB predicate name (§IV uniform-equivalence regime) never
        // reached the memo tables, so answers derived through them — and the
        // seeded facts themselves — were missing.
        let edb = parse_database("a(1,2). g(2,7).").unwrap();
        let query = parse_atom("g(1, X)").unwrap();
        let got = answer(&tc_doubling(), &edb, &query);
        assert_eq!(got, magic::answer(&tc_doubling(), &edb, &query));
        assert_eq!(got.len(), 2); // g(1,2) and, through the seed, g(1,7)
    }

    #[test]
    fn empty_program_and_edb() {
        let got = answer(
            &Program::empty(),
            &Database::new(),
            &parse_atom("g(X)").unwrap(),
        );
        assert!(got.is_empty());
    }
}

#[cfg(test)]
mod recursion_tests {
    use super::*;
    use crate::{evaluate, EvalOptions, Schedule};
    use datalog_ast::{parse_atom, parse_database, parse_program};

    #[test]
    fn mutual_recursion_through_subqueries() {
        let p = parse_program(
            "even(X) :- zero(X).
             odd(Y) :- even(X), succ(X, Y).
             even(Y) :- odd(X), succ(X, Y).",
        )
        .unwrap();
        let mut facts = String::from("zero(0).");
        for i in 0..8 {
            facts.push_str(&format!("succ({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let hit = answer(&p, &edb, &parse_atom("even(6)").unwrap());
        assert_eq!(hit.len(), 1);
        let miss = answer(&p, &edb, &parse_atom("even(7)").unwrap());
        assert!(miss.is_empty());
        // Free query agrees with bottom-up.
        let all = answer(&p, &edb, &parse_atom("odd(X)").unwrap());
        let full = evaluate(&p, &edb, Schedule::Strata, EvalOptions::default())
            .unwrap()
            .0;
        assert_eq!(all.len(), full.relation_len(Pred::new("odd")));
    }

    #[test]
    fn nonlinear_rule_with_two_idb_atoms() {
        // The doubling rule issues subqueries with different adornments for
        // its two g-atoms (bf then bf after binding); answers must match.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,5).").unwrap();
        for q in ["g(1, 5)", "g(2, X)", "g(X, 5)"] {
            let query = parse_atom(q).unwrap();
            assert_eq!(
                answer(&p, &edb, &query),
                crate::magic::answer(&p, &edb, &query),
                "query {q}"
            );
        }
    }

    #[test]
    fn constants_inside_rule_bodies() {
        let p = parse_program(
            "vip(X) :- member(X, 1).
             reach(X) :- vip(X).
             reach(Y) :- reach(X), knows(X, Y).",
        )
        .unwrap();
        let edb = parse_database("member(7, 1). member(8, 2). knows(7, 9).").unwrap();
        let got = answer(&p, &edb, &parse_atom("reach(X)").unwrap());
        assert_eq!(got.len(), 2); // 7 and 9, not 8
    }
}
