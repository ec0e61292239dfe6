//! Magic-sets transformation (Bancilhon, Maier, Sagiv, Ullman 1986).
//!
//! §I of the paper motivates minimization by composition with exactly this
//! method: "if the query is going to be computed by the 'magic set' method
//! …, then removing redundant parts can only speed up the computation."
//! This module implements the generalized magic-sets rewriting with a
//! left-to-right sideways-information-passing strategy, so the benchmark
//! suite can measure that composition (experiment E11).
//!
//! Given a query atom whose constant arguments are the bound positions, the
//! program is *adorned* (each IDB predicate specialised by a
//! bound/free-pattern string), *magic* predicates restricting each adorned
//! predicate to relevant bindings are introduced, and a seed fact for the
//! query's bindings is produced. Evaluating the transformed program
//! semi-naively computes exactly the query-relevant portion of the fixpoint.
//! [`MagicTemplate::answer`] is the one place that evaluation happens: the
//! free functions [`answer`] / [`answer_with_stats`], the per-program
//! [`crate::query::PlanCache`], the service and the CLI all reach it.

use crate::{evaluate, EvalOptions, Schedule, Stats};
use datalog_ast::{Atom, Database, GroundAtom, Literal, Pred, Program, Rule, Term, Var};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// An adornment: one flag per argument position.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment(Vec<bool>);

impl Adornment {
    /// Adornment of a top-level query atom: exactly the constant positions
    /// are bound. This is the public entry point callers use to key plans
    /// and caches by `(predicate, adornment)`.
    pub fn of_query(query: &Atom) -> Adornment {
        Adornment::of_atom(query, &BTreeSet::new())
    }

    /// Adornment of an atom given the set of currently-bound variables:
    /// a position is bound if it holds a constant or a bound variable.
    fn of_atom(atom: &Atom, bound: &BTreeSet<Var>) -> Adornment {
        Adornment(
            atom.terms
                .iter()
                .map(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .collect(),
        )
    }

    pub fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
    }

    /// Number of argument positions this adornment covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            write!(f, "{}", if b { 'b' } else { 'f' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

fn adorned_pred(p: Pred, a: &Adornment) -> Pred {
    Pred::new(&format!("{}__{}", p.name(), a))
}

fn magic_pred(p: Pred, a: &Adornment) -> Pred {
    Pred::new(&format!("m__{}__{}", p.name(), a))
}

/// The magic atom for an adorned atom: predicate `m__p__a` applied to the
/// bound-position terms only.
fn magic_atom(atom: &Atom, a: &Adornment) -> Atom {
    Atom {
        pred: magic_pred(atom.pred, a),
        terms: a.bound_positions().map(|i| atom.terms[i]).collect(),
    }
}

/// The magic transformation of a program for one `(predicate, adornment)`
/// pair. The rewritten rules depend only on which positions are bound,
/// never on the bound constants themselves, so one template answers every
/// query with the same binding pattern: [`crate::query::PlanCache`] keeps
/// one per pair, and each ask stamps its own seed fact
/// ([`MagicTemplate::seed_for`]).
#[derive(Clone, Debug)]
pub struct MagicTemplate {
    /// The rewritten rules (adorned rules guarded by magic atoms, the magic
    /// rules themselves, and the import rules).
    pub program: Program,
    /// The query predicate the template was built for.
    pub query_pred: Pred,
    /// The query's binding pattern.
    pub adornment: Adornment,
    /// The magic predicate seeded with the query's bound constants.
    pub magic_pred: Pred,
    /// The adorned predicate holding the query's answers.
    pub answer_pred: Pred,
}

impl MagicTemplate {
    /// The seed fact for a concrete query atom: the magic predicate applied
    /// to the query's bound constants. The query must use this template's
    /// predicate and adornment (constants exactly at the bound positions).
    pub fn seed_for(&self, query: &Atom) -> GroundAtom {
        assert_eq!(query.pred, self.query_pred, "query predicate mismatch");
        assert_eq!(
            Adornment::of_query(query),
            self.adornment,
            "query adornment mismatch"
        );
        GroundAtom {
            pred: self.magic_pred,
            tuple: self
                .adornment
                .bound_positions()
                .map(|i| {
                    query.terms[i]
                        .as_const()
                        .expect("bound position holds a constant")
                })
                .collect(),
        }
    }

    /// Answer `query` against `base`: seed the template with the query's
    /// bound constants, evaluate semi-naively and read the matching answer
    /// tuples back under the query's own predicate. The returned [`Stats`]
    /// count only this evaluation's work.
    pub fn answer(&self, base: &Database, query: &Atom) -> (Database, Stats) {
        let mut input = base.clone();
        input.insert(self.seed_for(query));
        let (result, stats) = evaluate(
            &self.program,
            &input,
            Schedule::Strata,
            EvalOptions::default(),
        )
        .expect("a magic program is positive");
        (read_answers(&result, self.answer_pred, query), stats)
    }
}

/// Build the constant-independent [`MagicTemplate`] for a
/// `(predicate, adornment)` pair. The program must be positive.
pub fn magic_template(program: &Program, pred: Pred, adornment: &Adornment) -> MagicTemplate {
    assert!(
        program.is_positive(),
        "magic sets requires a positive program"
    );
    let idb = program.intentional();

    let query_adornment = adornment.clone();
    let query_pred = pred;
    let mut seen: BTreeSet<(Pred, Adornment)> = BTreeSet::new();
    let mut queue: VecDeque<(Pred, Adornment)> = VecDeque::new();
    seen.insert((query_pred, query_adornment.clone()));
    queue.push_back((query_pred, query_adornment.clone()));

    let mut out = Program::empty();

    while let Some((pred, adornment)) = queue.pop_front() {
        for rule in program.rules_for(pred) {
            // Variables bound on entry: head variables in bound positions.
            let mut bound: BTreeSet<Var> = adornment
                .bound_positions()
                .filter_map(|i| rule.head.terms[i].as_var())
                .collect();

            let guard = magic_atom(&rule.head, &adornment);
            let mut new_body: Vec<Literal> = vec![Literal::pos(guard.clone())];
            // Prefix of processed body atoms (adorned where IDB), used by the
            // magic rules for later atoms.
            let mut prefix: Vec<Literal> = vec![Literal::pos(guard)];

            for lit in &rule.body {
                let atom = &lit.atom;
                if idb.contains(&atom.pred) {
                    let a = Adornment::of_atom(atom, &bound);
                    // Magic rule: m__r__a(bound args) :- guard, prefix.
                    let m_head = magic_atom(atom, &a);
                    out.rules.push(Rule::new(m_head, prefix.clone()));
                    if seen.insert((atom.pred, a.clone())) {
                        queue.push_back((atom.pred, a.clone()));
                    }
                    let adorned = Atom {
                        pred: adorned_pred(atom.pred, &a),
                        terms: atom.terms.clone(),
                    };
                    new_body.push(Literal {
                        atom: adorned.clone(),
                        negated: lit.negated,
                    });
                    prefix.push(Literal::pos(adorned));
                } else {
                    new_body.push(lit.clone());
                    prefix.push(lit.clone());
                }
                bound.extend(atom.vars());
            }

            let new_head = Atom {
                pred: adorned_pred(rule.head.pred, &adornment),
                terms: rule.head.terms.clone(),
            };
            out.rules.push(Rule::new(new_head, new_body));
        }
    }

    // Import rules: `p__a(V...) :- m__p__a(V bound...), p(V...)` for every
    // adorned predicate reached. The input database may already hold facts
    // under the *original* predicate names — seeded IDB facts (the paper's
    // uniform-equivalence regime quantifies over such databases, §IV), or
    // the query predicate itself being extensional. Each import rule is the
    // adornment of the virtual rule `p(V...) :- p_input(V...)`, so standard
    // magic-sets correctness carries over unchanged.
    for (pred, a) in &seen {
        let terms: Vec<Term> = (0..a.len())
            .map(|i| Term::Var(Var::new(&format!("V{i}"))))
            .collect();
        let source = Atom { pred: *pred, terms };
        let guard = magic_atom(&source, a);
        let head = Atom {
            pred: adorned_pred(*pred, a),
            terms: source.terms.clone(),
        };
        out.rules.push(Rule::new(
            head,
            vec![Literal::pos(guard), Literal::pos(source)],
        ));
    }

    MagicTemplate {
        program: out,
        query_pred,
        magic_pred: magic_pred(query_pred, &query_adornment),
        answer_pred: adorned_pred(query_pred, &query_adornment),
        adornment: query_adornment,
    }
}

/// Answer `query` over `edb`: build the query's [`MagicTemplate`] and ask
/// it once ([`MagicTemplate::answer`]).
///
/// ```
/// use datalog_ast::{parse_atom, parse_database, parse_program};
///
/// let program = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).",
/// ).unwrap();
/// let edb = parse_database("a(1, 2). a(2, 3). a(9, 9).").unwrap();
/// let answers = datalog_engine::magic::answer(
///     &program, &edb, &parse_atom("g(1, X)").unwrap());
/// assert_eq!(answers.len(), 2); // g(1,2), g(1,3) — node 9 never touched
/// ```
pub fn answer(program: &Program, edb: &Database, query: &Atom) -> Database {
    answer_with_stats(program, edb, query).0
}

/// [`answer`], also returning the evaluation statistics.
pub fn answer_with_stats(program: &Program, edb: &Database, query: &Atom) -> (Database, Stats) {
    magic_template(program, query.pred, &Adornment::of_query(query)).answer(edb, query)
}

/// The answers to `query` in the fixpoint of its magic program: the
/// `answer_pred` rows that match the query atom — constants AND repeated
/// variables (e.g. `g(X, X)`) — under the query's own predicate.
fn read_answers(result: &Database, answer_pred: Pred, query: &Atom) -> Database {
    let pattern = Atom {
        pred: answer_pred,
        terms: query.terms.clone(),
    };
    let mut answers = Database::new();
    for row in result.select(&pattern) {
        answers.insert_row(query.pred, row);
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{match_atom, parse_atom, parse_database, parse_program};

    /// Reference answer: evaluate the whole program, filter by the query.
    fn reference(program: &Program, edb: &Database, query: &Atom) -> Database {
        let full = evaluate(program, edb, Schedule::Strata, EvalOptions::default())
            .unwrap()
            .0;
        let mut out = Database::new();
        for tuple in full.relation(query.pred) {
            let g = GroundAtom {
                pred: query.pred,
                tuple: tuple.into(),
            };
            if match_atom(query, &g).is_some() {
                out.insert(g);
            }
        }
        out
    }

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn bound_free_query_on_chain() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(10,11).").unwrap();
        let query = parse_atom("g(1, X)").unwrap();
        let got = answer(&tc(), &edb, &query);
        assert_eq!(got, reference(&tc(), &edb, &query));
        assert_eq!(got.len(), 3); // g(1,2), g(1,3), g(1,4)
    }

    #[test]
    fn magic_avoids_irrelevant_subgraph() {
        // Two disjoint chains; querying from chain 1 must not derive
        // closure atoms of chain 2.
        let mut facts = String::new();
        for i in 0..20 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", 100 + i, 101 + i));
        }
        let edb = parse_database(&facts).unwrap();
        let query = parse_atom("g(0, X)").unwrap();

        let (got, magic_stats) = answer_with_stats(&tc(), &edb, &query);
        assert_eq!(got.len(), 20);

        let (_, full_stats) =
            evaluate(&tc(), &edb, Schedule::Strata, EvalOptions::default()).unwrap();
        assert!(
            magic_stats.derivations < full_stats.derivations,
            "magic {} vs full {}",
            magic_stats.derivations,
            full_stats.derivations
        );
    }

    #[test]
    fn fully_bound_query() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let query = parse_atom("g(1, 3)").unwrap();
        let got = answer(&tc(), &edb, &query);
        assert_eq!(got.len(), 1);
        let miss = parse_atom("g(3, 1)").unwrap();
        assert!(answer(&tc(), &edb, &miss).is_empty());
    }

    #[test]
    fn all_free_query_matches_full_evaluation() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let query = parse_atom("g(X, Y)").unwrap();
        let got = answer(&tc(), &edb, &query);
        assert_eq!(got, reference(&tc(), &edb, &query));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn doubling_rule_same_answers() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(7,8).").unwrap();
        let query = parse_atom("g(1, X)").unwrap();
        let got = answer(&p, &edb, &query);
        assert_eq!(got, reference(&p, &edb, &query));
    }

    #[test]
    fn second_argument_bound() {
        let edb = parse_database("a(1,2). a(2,3). a(0,1).").unwrap();
        let query = parse_atom("g(X, 3)").unwrap();
        let got = answer(&tc(), &edb, &query);
        assert_eq!(got, reference(&tc(), &edb, &query));
        assert_eq!(got.len(), 3); // g(0,3), g(1,3), g(2,3)
    }

    #[test]
    fn same_generation_classic() {
        // The classic magic-sets showcase: same-generation.
        let p = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
        )
        .unwrap();
        let edb = parse_database(
            "up(1, 11). up(2, 12). flat(11, 12). down(12, 2). down(11, 1).
             flat(1, 2). up(3, 13). flat(13, 13). down(13, 3).",
        )
        .unwrap();
        let query = parse_atom("sg(1, Y)").unwrap();
        let got = answer(&p, &edb, &query);
        assert_eq!(got, reference(&p, &edb, &query));
        assert!(got.contains_tuple(
            Pred::new("sg"),
            &[datalog_ast::Const::Int(1), datalog_ast::Const::Int(2)]
        ));
    }

    #[test]
    fn adornment_display() {
        let a = Adornment(vec![true, false, true]);
        assert_eq!(a.to_string(), "bfb");
    }

    #[test]
    fn transform_shape() {
        let query = parse_atom("g(1, X)").unwrap();
        let m = magic_template(&tc(), query.pred, &Adornment::of_query(&query));
        // Adorned rules: 2 for g__bf; magic rules: 1 (for the recursive g);
        // import rules: 1 (seeded `g` input facts for the bf adornment).
        assert_eq!(m.program.len(), 4);
        assert_eq!(m.seed_for(&query).to_string(), "m__g__bf(1)");
        assert_eq!(m.answer_pred, Pred::new("g__bf"));
    }

    #[test]
    fn repeated_variable_query() {
        // Regression (found by the differential fuzzer): the answer filter
        // used to check each position independently, so `g(X, X)` returned
        // every tuple instead of only the diagonal.
        let edb = parse_database("a(1,2). a(2,3). a(3,1).").unwrap();
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let query = parse_atom("g(X, X)").unwrap();
        let got = answer(&p, &edb, &query);
        assert_eq!(got, reference(&p, &edb, &query));
        assert_eq!(got.len(), 3); // g(1,1), g(2,2), g(3,3) on a 3-cycle
    }

    #[test]
    fn query_on_edb_predicate() {
        // Regression (found by the differential fuzzer): the transformed
        // program had no rules at all for an extensional query predicate,
        // so the answer came back empty.
        let edb = parse_database("a(1,2). a(1,3). a(2,3).").unwrap();
        let query = parse_atom("a(1, X)").unwrap();
        let got = answer(&tc(), &edb, &query);
        assert_eq!(got, reference(&tc(), &edb, &query));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn seeded_idb_facts_are_visible() {
        // Regression (found by the differential fuzzer): uniform equivalence
        // quantifies over databases that may already contain IDB facts
        // (§IV); the adorned program could not see them under the original
        // predicate name.
        let edb = parse_database("a(1,2). g(2,7).").unwrap();
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let query = parse_atom("g(1, X)").unwrap();
        let got = answer(&p, &edb, &query);
        assert_eq!(got, reference(&p, &edb, &query));
        assert_eq!(got.len(), 2); // g(1,2) and, through the seed, g(1,7)
    }
}
