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
//! uniform equivalence (§IV) quantifies over. A program with negation (the
//! §XII extension) is split into the strata of its dependence graph
//! (`datalog_ast::DepGraph::stratify`), and each stratum's rules are
//! saturated in turn, so a negated predicate is complete before any rule
//! that negates it runs.
//!
//! A rule body is matched by a nested loop over the rows of each positive
//! literal in the order written (`Matcher::each`, binding one [`Subst`]
//! in place and undoing the bindings on backtrack, so a row costs no
//! allocation), then each negated literal is one absence test.
//! The module is built on `datalog_ast` alone — no plan, index, script or
//! kernel — so the tests and fuzz oracles that compare the engine against
//! it share none of the engine's code. It is meant for small inputs.

use crate::stats::Stats;
use datalog_ast::{Atom, Const, Database, DepGraph, Program, Rule, Subst, Term, Tgd, Var};

/// Compute `P(d)`: the minimal model of `P` containing `d` (§IV, Van
/// Emden–Kowalski), stratum by stratum where `P` negates. The input
/// database may contain atoms for intentional predicates; they are kept
/// (the output contains the input).
///
/// Panics on a program with no stratification (a cycle through negation),
/// and on a rule whose head or negated literals hold a variable no
/// positive literal binds; `DepGraph::stratify` and
/// `datalog_ast::validate` say so first.
pub fn evaluate(program: &Program, input: &Database) -> Database {
    evaluate_with_stats(program, input).0
}

/// [`evaluate`], also returning work counters.
pub fn evaluate_with_stats(program: &Program, input: &Database) -> (Database, Stats) {
    let mut db = input.clone();
    let mut stats = Stats::default();
    for stratum in strata(program) {
        loop {
            stats.iterations += 1;
            let heads = apply_rules(stratum.iter().copied(), &db, &mut stats);
            let added = db.union_with(&heads) as u64;
            stats.derivations += added;
            if added == 0 {
                break;
            }
        }
    }
    (db, stats)
}

/// The strata of `program`, lowest first: all its rules when it is
/// positive, else its rules grouped by their head predicate's stratum,
/// empty strata left out.
fn strata(program: &Program) -> Vec<Vec<&Rule>> {
    if program.is_positive() {
        return vec![program.rules.iter().collect()];
    }
    let stratum_of = DepGraph::new(program)
        .stratify()
        .expect("naive::evaluate requires a stratifiable program");
    let mut strata = vec![Vec::new(); stratum_of.values().max().map_or(0, |&m| m + 1)];
    for rule in &program.rules {
        strata[stratum_of[&rule.head.pred]].push(rule);
    }
    strata.retain(|rules| !rules.is_empty());
    strata
}

/// Apply `P` **non-recursively** (§IX): derive only the atoms obtainable by
/// a single rule application to `d` itself. Following the paper's
/// definition, the result `Pⁿ(d)` contains *only the newly derived atoms*,
/// not `d`. Negated literals are absence tests against `d`.
pub fn apply_once(program: &Program, d: &Database) -> Database {
    apply_rules(&program.rules, d, &mut Stats::default())
}

/// Whether `db` satisfies `tgd` (§VIII): every match of its lhs extends to
/// a match of its rhs.
pub fn satisfies(db: &Database, tgd: &Tgd) -> bool {
    !Matcher::new(db).each(&tgd.lhs, &mut |m| !m.each(&tgd.rhs, &mut |_| true))
}

/// The heads of one application of every rule of `rules` to `db`, counting
/// one match per body match: the positive literals as written, then each
/// negated literal as an absence test.
fn apply_rules<'r>(
    rules: impl IntoIterator<Item = &'r Rule>,
    db: &Database,
    stats: &mut Stats,
) -> Database {
    let mut heads = Database::new();
    let mut matches = 0;
    let mut matcher = Matcher::new(db);
    for rule in rules {
        let positive: Vec<Atom> = rule.positive_body().cloned().collect();
        matcher.each(&positive, &mut |m| {
            let absent = rule.negative_body().all(|atom| {
                assert!(
                    m.ground(atom),
                    "negated atom with unbound variable; rule not safe"
                );
                m.probes += 1;
                !db.contains_tuple(atom.pred, &m.tuple)
            });
            if absent {
                assert!(
                    m.ground(&rule.head),
                    "head variable unbound; rule not range-restricted"
                );
                heads.insert_row(rule.head.pred, &m.tuple);
                matches += 1;
            }
            false
        });
    }
    stats.matches += matches;
    stats.probes += matcher.probes;
    heads
}

/// A depth-first matcher over `db`: one substitution bound in place, and a
/// trail of the variables bound since each choice point, so backtracking
/// undoes exactly those bindings. Its scratch vectors are stacks shared by
/// the levels of the recursion, so past the first rows nothing is
/// allocated.
struct Matcher<'a> {
    db: &'a Database,
    subst: Subst,
    trail: Vec<Var>,
    /// Per level: the positions the bindings fix, with their constants.
    fixed: Vec<(usize, Const)>,
    /// Per level: the positions holding a variable still free.
    free: Vec<(usize, Var)>,
    /// The last atom [`Matcher::ground`] instantiated.
    tuple: Vec<Const>,
    probes: u64,
}

impl<'a> Matcher<'a> {
    fn new(db: &'a Database) -> Matcher<'a> {
        Matcher {
            db,
            subst: Subst::new(),
            trail: Vec::new(),
            fixed: Vec::new(),
            free: Vec::new(),
            tuple: Vec::new(),
            probes: 0,
        }
    }

    /// Enumerate all matches of a conjunction of atoms against `db`,
    /// extending the current bindings, and call `found` with each; `found`
    /// returns `true` to stop. Returns whether enumeration stopped early;
    /// either way the bindings are as they were. Each atom costs one probe:
    /// a membership test when the bindings ground it, a scan of its
    /// relation otherwise.
    fn each(&mut self, atoms: &[Atom], found: &mut dyn FnMut(&mut Matcher<'a>) -> bool) -> bool {
        let Some((first, rest)) = atoms.split_first() else {
            return found(self);
        };
        self.probes += 1;
        let rel = self.db.relation_of(first.pred, first.arity());
        if self.ground(first) {
            return rel.is_some_and(|rel| rel.contains(&self.tuple)) && self.each(rest, found);
        }
        let Some(rel) = rel else {
            return false;
        };
        let (fixed_at, free_at) = (self.fixed.len(), self.free.len());
        for (i, &t) in first.terms.iter().enumerate() {
            match self.subst.apply_term(t) {
                Term::Const(c) => self.fixed.push((i, c)),
                Term::Var(v) => self.free.push((i, v)),
            }
        }
        let mark = self.trail.len();
        let mut stop = false;
        for row in rel.rows() {
            // A row that clashes at a fixed position is skipped before
            // anything is bound.
            if self.fixed[fixed_at..].iter().any(|&(i, c)| row[i] != c) {
                continue;
            }
            stop = self.bind(row, free_at) && self.each(rest, found);
            for v in self.trail.drain(mark..) {
                self.subst.unbind(v);
            }
            if stop {
                break;
            }
        }
        self.fixed.truncate(fixed_at);
        self.free.truncate(free_at);
        stop
    }

    /// Bind the free variables `free[free_at..]` to their positions in
    /// `row`, pushing each onto the trail; false when a variable repeated
    /// in the atom meets two values.
    fn bind(&mut self, row: &[Const], free_at: usize) -> bool {
        for &(i, v) in &self.free[free_at..] {
            match self.subst.get(v) {
                Some(bound) if bound != Term::Const(row[i]) => return false,
                Some(_) => {}
                None => {
                    self.subst.bind(v, Term::Const(row[i]));
                    self.trail.push(v);
                }
            }
        }
        true
    }

    /// Instantiate `atom` under the bindings into `tuple`; false if a
    /// variable of it is unbound.
    fn ground(&mut self, atom: &Atom) -> bool {
        self.tuple.clear();
        for &t in &atom.terms {
            match self.subst.apply_term(t) {
                Term::Const(c) => self.tuple.push(c),
                Term::Var(_) => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program, parse_tgd, GroundAtom, Pred};

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

    /// An enumeration its callback stops leaves the bindings as it found
    /// them, like one that runs out of rows.
    #[test]
    fn stopping_early_undoes_the_bindings() {
        let db = parse_database("a(1,2). a(2,3).").unwrap();
        let rule = &parse_program("g(X, Z) :- a(X, Y), a(Y, Z).").unwrap().rules[0];
        let body: Vec<Atom> = rule.positive_body().cloned().collect();
        let mut m = Matcher::new(&db);
        for stop in [true, false] {
            assert_eq!(m.each(&body, &mut |_| stop), stop);
            assert!(m.subst.is_empty() && m.trail.is_empty());
        }
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

    /// Stratified negation: `unreach` negates `reach`, a recursive
    /// predicate of the stratum below, which is saturated first — rule
    /// order does not matter, and the rounds of both strata count.
    #[test]
    fn negation_is_evaluated_by_strata() {
        let p = parse_program(
            "unreach(X) :- node(X), !reach(X). reach(Y) :- reach(X), e(X, Y). reach(X) :- src(X).",
        )
        .unwrap();
        let db = parse_database("src(1). e(1, 2). e(2, 3). node(1). node(3). node(4).").unwrap();
        let (out, stats) = evaluate_with_stats(&p, &db);
        let unreach: Vec<_> = out
            .iter()
            .filter(|a| a.pred == Pred::new("unreach"))
            .collect();
        assert_eq!(unreach, vec![fact("unreach", [4])]);
        assert_eq!(out.relation_len(Pred::new("reach")), 3);
        // `reach` takes four rounds (the last finds nothing new), `unreach`
        // two.
        assert_eq!((stats.iterations, stats.derivations), (6, 4));
    }

    #[test]
    #[should_panic(expected = "stratifiable program")]
    fn a_cycle_through_negation_is_rejected() {
        let p = parse_program("p(X) :- q(X), !r(X). r(X) :- q(X), !p(X).").unwrap();
        evaluate(&p, &Database::new());
    }
}
