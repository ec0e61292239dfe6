//! The combined chase `[P, T]` — rules plus tuple-generating dependencies
//! (§VIII, Theorem 1).
//!
//! Applying a tgd τ to a database `d`: for every instantiation θ of the
//! universally quantified variables that converts `lhs(τ)` to ground atoms
//! of `d` with **no** extension converting `rhs(τ)` to ground atoms of `d`,
//! extend θ by mapping each existential variable to a fresh labelled null
//! δᵢ and add the instantiated rhs atoms. Full tgds behave exactly like
//! rules; embedded tgds introduce nulls and may chase forever.
//!
//! Theorem 1: for a rule `r = h :- b` frozen by θ,
//! `hθ ∈ [P, T](bθ) ⇔ SAT(T) ∩ M(P) ⊆ M(r)`.
//! The left-hand side is semi-decidable: `hθ` is found in finite time when
//! present, but saturation may never be reached. We therefore run the chase
//! with a deterministic *fuel* budget (a bound on the atoms its tgd repairs
//! and their rule consequences add) and report
//! a three-valued [`Proof`]; the paper's own remedy is the same, phrased as
//! "spend on optimization a predetermined amount of time" (§XI).
//!
//! The chase is a program the engine runs (Marnette, PAPERS.md): a tgd τ
//! whose *frontier* ū is the lhs variables its rhs uses is read by two
//! rules added to `P`, `trig_τ(ū) :- lhs(τ)` and `sat_τ(ū) :- rhs(τ)`
//! (`Triggers`). A violation is a `trig_τ` row with no `sat_τ` row, and
//! one [`Materialized`] view keeps both relations current as repairs and
//! their rule consequences are inserted. The two auxiliary predicates per
//! tgd are fresh names, kept out of the result and out of the counts.

use crate::freeze::freeze_rule;
use datalog_ast::{Atom, Const, Database, GroundAtom, Pred, Program, Rule, Subst, Term, Tgd, Var};
use datalog_engine::{evaluate, Materialized};
use std::collections::BTreeSet;

/// Outcome of a semi-decidable test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proof {
    /// The property was established.
    Proved,
    /// The chase saturated without establishing the property — a definite
    /// refutation over arbitrary (finite and infinite) databases.
    Disproved,
    /// The fuel budget was exhausted before the chase settled.
    OutOfFuel,
}

impl Proof {
    pub fn is_proved(self) -> bool {
        self == Proof::Proved
    }

    /// Combine: all must be proved; any disproof dominates fuel exhaustion.
    pub fn and(self, other: Proof) -> Proof {
        use Proof::*;
        match (self, other) {
            (Proved, x) | (x, Proved) => x,
            (Disproved, _) | (_, Disproved) => Disproved,
            (OutOfFuel, OutOfFuel) => OutOfFuel,
        }
    }
}

/// How a chase run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseStatus {
    /// No rule or tgd application can add anything.
    Saturated,
    /// The goal atom was derived (early exit).
    GoalReached,
    /// The fuel budget ran out.
    OutOfFuel,
}

/// A chase run for a goal decides it: reached, the goal holds; saturated
/// without it, the goal is decidedly absent — a counterexample is built.
impl From<ChaseStatus> for Proof {
    fn from(status: ChaseStatus) -> Proof {
        match status {
            ChaseStatus::GoalReached => Proof::Proved,
            ChaseStatus::Saturated => Proof::Disproved,
            ChaseStatus::OutOfFuel => Proof::OutOfFuel,
        }
    }
}

/// Result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    pub db: Database,
    pub status: ChaseStatus,
    /// Number of atoms added by the chase (rule- and tgd-derived); fuel
    /// counts those added after the first saturation.
    pub added: u64,
}

/// Predicate names that collide with nothing the caller's program, tgds or
/// database use: `$` cannot come out of the parser, and a name that is
/// taken anyway gets another `$`.
pub(crate) struct FreshPreds(BTreeSet<Pred>);

impl FreshPreds {
    pub(crate) fn new(program: &Program, tgds: &[Tgd], db: &Database) -> FreshPreds {
        let mut taken = program.predicates();
        taken.extend(
            tgds.iter()
                .flat_map(|t| t.lhs.iter().chain(&t.rhs))
                .map(|a| a.pred),
        );
        taken.extend(db.predicates());
        FreshPreds(taken)
    }

    pub(crate) fn pred(&mut self, name: String) -> Pred {
        let mut name = name;
        while self.0.contains(&Pred::new(&name)) {
            name.push('$');
        }
        let pred = Pred::new(&name);
        self.0.insert(pred);
        pred
    }
}

/// The *frontier* of a tgd: the lhs variables its rhs uses, in order of
/// first occurrence.
pub(crate) fn frontier(tgd: &Tgd) -> Vec<Var> {
    let rhs_vars: BTreeSet<Var> = tgd.rhs.iter().flat_map(Atom::vars).collect();
    let mut frontier: Vec<Var> = Vec::new();
    for v in tgd.lhs.iter().flat_map(Atom::vars) {
        if rhs_vars.contains(&v) && !frontier.contains(&v) {
            frontier.push(v);
        }
    }
    frontier
}

/// `pred(ū)` over a frontier ū.
pub(crate) fn frontier_atom(pred: Pred, frontier: &[Var]) -> Atom {
    Atom::new(pred, frontier.iter().map(|&v| Term::Var(v)).collect())
}

/// The two rules a tgd τ is read through: `trig(ū) :- lhs(τ)` and
/// `sat(ū) :- rhs(τ)`, over τ's frontier ū.
struct Triggers {
    frontier: Vec<Var>,
    /// ū of every lhs match.
    trig: Pred,
    /// ū of every match of the rhs: the lhs matches τ holds at.
    sat: Pred,
}

impl Triggers {
    fn new(tgd: &Tgd, i: usize, fresh: &mut FreshPreds) -> Triggers {
        Triggers {
            frontier: frontier(tgd),
            trig: fresh.pred(format!("tgd{i}$trig")),
            sat: fresh.pred(format!("tgd{i}$sat")),
        }
    }

    /// `trig(ū) :- lhs(τ)` and `sat(ū) :- rhs(τ)`.
    fn rules(&self, tgd: &Tgd) -> [Rule; 2] {
        [
            Rule::positive(
                frontier_atom(self.trig, &self.frontier),
                tgd.lhs.iter().cloned(),
            ),
            Rule::positive(
                frontier_atom(self.sat, &self.frontier),
                tgd.rhs.iter().cloned(),
            ),
        ]
    }

    /// The `trig` rows of `db` with no `sat` row: τ's violations.
    fn violations(&self, db: &Database) -> Vec<Box<[Const]>> {
        let Some(trig) = db.relation_of(self.trig, self.frontier.len()) else {
            return Vec::new();
        };
        (trig.rows())
            .filter(|row| !db.contains_tuple(self.sat, row))
            .map(Box::from)
            .collect()
    }

    /// The rhs atoms that repair the violation at `row`: the frontier takes
    /// `row`, each existential variable a fresh labelled null.
    fn repair(&self, tgd: &Tgd, row: &[Const], next_null: &mut u32) -> Vec<GroundAtom> {
        let mut theta = Subst::new();
        for (&v, &c) in self.frontier.iter().zip(row) {
            theta.bind(v, Term::Const(c));
        }
        for v in tgd.existential_vars() {
            theta.bind(v, Term::Const(Const::Null(*next_null)));
            *next_null += 1;
        }
        (tgd.rhs.iter())
            .map(|atom| {
                theta
                    .ground_atom(atom)
                    .expect("the frontier bound by the row, existentials by nulls")
            })
            .collect()
    }
}

/// Run the combined chase `[P, T]` on `input` until saturation, goal
/// discovery, or fuel exhaustion. This is the one loop that repairs tgd
/// violations: condition (1) runs it over `P1`, Fig. 3 and (3′) over the
/// rules that read a tgd's rhs after `P` (`crate::preserve`).
///
/// * `fuel` bounds the atoms the repairs add, their rule consequences
///   included: a repair runs only while fewer than `fuel` atoms have been
///   added since the first saturation, which is finite and free.
/// * `goal`, when given, stops the chase as soon as the atom is present —
///   this is what makes Theorem 1's semi-decision procedure effective: a
///   present goal is found in finite time even when `[P,T](bθ)` is
///   infinite.
///
/// One [`Materialized`] view holds `P` and every tgd's `Triggers` rules:
/// the initial fixpoint is computed once, and each repair only propagates
/// the consequences of the atoms it added — rule consequences and `sat_τ`
/// rows alike, so the restricted chase's "repaired meanwhile" re-check is a
/// `sat_τ` lookup. A pass repairs, tgd by tgd, the violations the view
/// holds when that tgd's turn comes; the view's base is the input and the
/// repairs.
pub fn chase(
    program: &Program,
    tgds: &[Tgd],
    input: &Database,
    fuel: u64,
    goal: Option<&GroundAtom>,
) -> ChaseResult {
    let mut fresh = FreshPreds::new(program, tgds, input);
    let triggers: Vec<Triggers> = (tgds.iter().enumerate())
        .map(|(i, tgd)| Triggers::new(tgd, i, &mut fresh))
        .collect();
    let mut rules = program.rules.clone();
    for (tgd, t) in tgds.iter().zip(&triggers) {
        rules.extend(t.rules(tgd));
    }
    let aux: BTreeSet<Pred> = triggers.iter().flat_map(|t| [t.trig, t.sat]).collect();
    // The atoms of `db` outside the auxiliary relations.
    let visible_len =
        |db: &Database| db.len() - aux.iter().map(|&p| db.relation_len(p)).sum::<usize>();
    let mut m = Materialized::new(Program::new(rules), input);
    let saturated = visible_len(m.database());
    let mut next_null = next_free_null(input);
    let mut starved = false;
    let status = loop {
        // A goal derived by the very last funded repair still counts.
        if goal.is_some_and(|g| m.database().contains(g)) {
            break ChaseStatus::GoalReached;
        }
        if starved {
            break ChaseStatus::OutOfFuel;
        }
        let before = m.base().len();
        'pass: for (tgd, t) in tgds.iter().zip(&triggers) {
            for row in t.violations(m.database()) {
                if m.database().contains_tuple(t.sat, &row) {
                    continue; // repaired meanwhile
                }
                if (visible_len(m.database()) - saturated) as u64 >= fuel {
                    starved = true;
                    break 'pass;
                }
                // The insert also saturates the rules against the repair.
                m.insert(t.repair(tgd, &row, &mut next_null));
            }
        }
        if !starved && m.base().len() == before {
            break ChaseStatus::Saturated;
        }
    };
    let visible: BTreeSet<Pred> = (m.database().predicates())
        .filter(|p| !aux.contains(p))
        .collect();
    let db = m.database().restrict_to(&visible);
    ChaseResult {
        added: (db.len() - input.len()) as u64,
        db,
        status,
    }
}

/// First null id not used by `db` (so chase-introduced nulls are fresh even
/// if the input already contains nulls from an earlier chase).
fn next_free_null(db: &Database) -> u32 {
    db.active_domain()
        .into_iter()
        .filter_map(|c| match c {
            Const::Null(n) => Some(n + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Theorem 1 — test `SAT(T) ∩ M(P) ⊆ M(r)` by chasing the frozen body of
/// `r` under `[P, T]` with the frozen head as goal.
pub fn rule_contained_with_tgds(r: &Rule, p: &Program, tgds: &[Tgd], fuel: u64) -> Proof {
    let frozen = freeze_rule(r);
    chase(p, tgds, &frozen.body_db, fuel, Some(&frozen.goal))
        .status
        .into()
}

/// Condition (1) of §X — `SAT(T) ∩ M(P1) ⊆ M(P2)`: every rule of `P2` must
/// pass the Theorem-1 test against `[P1, T]`. A rule of `P2` that occurs
/// verbatim in `P1` passes without a chase: `P1` derives its frozen head
/// from its frozen body in the first saturation, before any fuel is spent.
pub fn models_condition(p1: &Program, p2: &Program, tgds: &[Tgd], fuel: u64) -> Proof {
    let mut acc = Proof::Proved;
    for r in p2.rules.iter().filter(|r| !p1.rules.contains(r)) {
        acc = acc.and(rule_contained_with_tgds(r, p1, tgds, fuel));
        if acc == Proof::Disproved {
            return acc;
        }
    }
    acc
}

/// Uniform containment **over `SAT(T)`** (§VIII/Appendix Corollary 1):
/// `P2 ⊑u_SAT(T) P1` holds when
///
/// 1. `SAT(T) ∩ M(P1) ⊆ M(P2)` — checked by [`models_condition`] — **and**
/// 2. `P1` preserves `T` (`P1(SAT(T)) ⊆ SAT(T)`) — checked by the Fig. 3
///    procedure.
///
/// Corollary 1 (appendix): with `S = SAT(T)` and `P1(S) ⊆ S`,
/// `P2 ⊑_S P1 ⇔ S ∩ M(P1) ⊆ M(P2)`. This combined entry point returns
/// `Proved` only when both semi-decidable steps prove out within `fuel`.
pub fn uniformly_contains_given(p1: &Program, p2: &Program, tgds: &[Tgd], fuel: u64) -> Proof {
    let c1 = models_condition(p1, p2, tgds, fuel);
    if c1 == Proof::Disproved {
        return Proof::Disproved;
    }
    let c2 = crate::preserve::preserves_nonrecursively(p1, tgds, fuel);
    // Note: failure of (2) does NOT refute SAT(T)-containment — Fig. 3 is a
    // sufficient condition — so a Disproved preservation only degrades the
    // combined verdict to OutOfFuel ("could not certify").
    match (c1, c2) {
        (Proof::Proved, Proof::Proved) => Proof::Proved,
        _ => Proof::OutOfFuel,
    }
}

/// Does `db` satisfy the tgd (§VIII)? Every lhs match must extend to an rhs
/// match: the tgd's `trig`/`sat` rules, evaluated once over `db`, leave no
/// violation.
pub fn satisfies_tgd(db: &Database, tgd: &Tgd) -> bool {
    let tgds = std::slice::from_ref(tgd);
    let triggers = Triggers::new(tgd, 0, &mut FreshPreds::new(&Program::empty(), tgds, db));
    let rules = Program::new(triggers.rules(tgd).to_vec());
    let (fixpoint, _) = evaluate(&rules, db).expect("trigger rules bind every variable");
    triggers.violations(&fixpoint).is_empty()
}

/// Does `db` satisfy all of `tgds`?
pub fn satisfies_all(db: &Database, tgds: &[Tgd]) -> bool {
    tgds.iter().all(|t| satisfies_tgd(db, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, parse_rule, parse_tgd, Pred};
    use datalog_engine::naive;

    #[test]
    fn example9_tgd_satisfaction() {
        // §VIII Example 9: over the Example-2 closure DB,
        // G(x,y) → A(y,z) ∧ A(z,x) is violated (x=4, y=2),
        // G(x,y) → G(x,z) ∧ A(z,y) is satisfied.
        let db = parse_database(
            "a(1,2). a(1,4). a(4,1).
             g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).",
        )
        .unwrap();
        let t1 = parse_tgd("g(X, Y) -> a(Y, Z) & a(Z, X).").unwrap();
        let t2 = parse_tgd("g(X, Y) -> g(X, Z) & a(Z, Y).").unwrap();
        assert!(!satisfies_tgd(&db, &t1));
        assert!(satisfies_tgd(&db, &t2));
    }

    #[test]
    fn full_tgd_behaves_like_rules() {
        // Applying a full tgd = applying its rule decomposition.
        let tgd = parse_tgd("a(X, Y) -> b(Y, X).").unwrap();
        let input = parse_database("a(1, 2).").unwrap();
        let result = chase(
            &Program::empty(),
            std::slice::from_ref(&tgd),
            &input,
            100,
            None,
        );
        assert_eq!(result.status, ChaseStatus::Saturated);
        assert!(result
            .db
            .contains_tuple(Pred::new("b"), &[2.into(), 1.into()]));

        let rules = Program::new(tgd.to_rules().unwrap());
        let via_rules = naive::evaluate(&rules, &input);
        assert_eq!(result.db, via_rules);
    }

    #[test]
    fn embedded_tgd_introduces_nulls() {
        // §VIII: applying G(x,y) → A(x,w) ∧ G(w,y) to {G(3,2)} adds
        // A(3,δ) and G(δ,2).
        let tgd = parse_tgd("g(X, Y) -> a(X, W) & g(W, Y).").unwrap();
        let input = parse_database("g(3, 2).").unwrap();
        let result = chase(&Program::empty(), &[tgd], &input, 10, None);
        // This chase diverges (each new G(δ,2) violates again): fuel runs out.
        assert_eq!(result.status, ChaseStatus::OutOfFuel);
        assert!(result.db.has_nulls());
        assert!(result.db.len() > 1);
    }

    #[test]
    fn fuel_counts_the_rule_consequences_of_repairs() {
        // Each repair extends an a-chain by a null, and the rules close it
        // transitively: n repairs bring about n²/2 g-atoms. Fuel bounds
        // them all, so the chase stops within one repair's consequences of
        // the fuel, not after `fuel` repairs.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let tgd = parse_tgd("g(X, Y) -> a(Y, W).").unwrap();
        let input = parse_database("a(1, 2).").unwrap();
        let result = chase(&p, &[tgd], &input, 2_000, None);
        assert_eq!(result.status, ChaseStatus::OutOfFuel);
        assert!((2_000..2_100).contains(&result.added), "{}", result.added);
    }

    #[test]
    fn embedded_tgd_no_violation_no_nulls() {
        let tgd = parse_tgd("g(X, Y) -> a(X, W).").unwrap();
        let input = parse_database("g(1, 2). a(1, 9).").unwrap();
        let result = chase(&Program::empty(), &[tgd], &input, 10, None);
        assert_eq!(result.status, ChaseStatus::Saturated);
        assert_eq!(result.db, input);
    }

    #[test]
    fn corollary1_combined_containment() {
        // Example 11/14 packaged: P2 ⊑u_SAT(T) P1.
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let tgds = vec![datalog_ast::parse_tgd("g(X, Z) -> a(X, W).").unwrap()];
        assert_eq!(
            uniformly_contains_given(&p1, &p2, &tgds, 10_000),
            Proof::Proved
        );
        // Without the tgds the same containment fails outright.
        assert_eq!(
            uniformly_contains_given(&p1, &p2, &[], 10_000),
            Proof::Disproved
        );
    }

    #[test]
    fn example11_chase_proves_models_condition() {
        // §VIII Example 11: with T = {G(x,z) → A(x,w)},
        // SAT(T) ∩ M(P1) ⊆ M(P2).
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let tgds = vec![parse_tgd("g(X, Z) -> a(X, W).").unwrap()];
        assert_eq!(models_condition(&p1, &p2, &tgds, 1000), Proof::Proved);
    }

    #[test]
    fn without_tgds_example11_fails() {
        // Sanity: the same condition WITHOUT the tgd is refuted (and the
        // chase saturates, so we get a definite disproof).
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        assert_eq!(models_condition(&p1, &p2, &[], 1000), Proof::Disproved);
    }

    #[test]
    fn theorem1_reduces_to_corollary2_without_tgds() {
        // With T = ∅ the chase is exactly the §VI test.
        let p1 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let r = parse_rule("g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        assert_eq!(rule_contained_with_tgds(&r, &p1, &[], 1000), Proof::Proved);
        assert!(crate::containment::rule_contained(&r, &p1));
    }

    #[test]
    fn proof_combinator() {
        use Proof::*;
        assert_eq!(Proved.and(Proved), Proved);
        assert_eq!(Proved.and(OutOfFuel), OutOfFuel);
        assert_eq!(OutOfFuel.and(Disproved), Disproved);
        assert_eq!(Disproved.and(Proved), Disproved);
        assert_eq!(OutOfFuel.and(OutOfFuel), OutOfFuel);
    }

    #[test]
    fn goal_reached_early_in_divergent_chase() {
        // The chase would diverge, but the goal shows up first — Theorem 1's
        // semi-decision in action.
        let tgd = parse_tgd("g(X, Y) -> g(Y, X).").unwrap(); // full, fine
        let diverging = parse_tgd("p(X) -> q(X, W) & p(W).").unwrap();
        let input = parse_database("g(1, 2). p(7).").unwrap();
        let goal = datalog_ast::fact("g", [2, 1]);
        let result = chase(
            &Program::empty(),
            &[diverging, tgd],
            &input,
            1_000_000,
            Some(&goal),
        );
        assert_eq!(result.status, ChaseStatus::GoalReached);
    }

    #[test]
    fn chase_counts_added_atoms() {
        let p = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        let input = parse_database("a(1, 2). a(3, 4).").unwrap();
        let result = chase(&p, &[], &input, 100, None);
        assert_eq!(result.added, 2);
        assert_eq!(result.status, ChaseStatus::Saturated);
    }

    #[test]
    fn a_repair_the_rules_carry_over_repairs_a_later_violation_meanwhile() {
        // Both p(1) and p(2) violate the tgd when the pass starts. Whichever
        // is repaired first, q(x, δ0) reaches the other through the rule, so
        // the restricted chase skips the second: one null, two atoms.
        let p = parse_program("q(Y, Z) :- q(X, Z), e(X, Y).").unwrap();
        let tgd = parse_tgd("p(X) -> q(X, W).").unwrap();
        let input = parse_database("p(1). p(2). e(1, 2). e(2, 1).").unwrap();
        let result = chase(&p, &[tgd], &input, 100, None);
        assert_eq!(result.status, ChaseStatus::Saturated);
        assert_eq!(result.added, 2);
        let q: Vec<Const> = result.db.relation(Pred::new("q")).map(|t| t[1]).collect();
        assert_eq!(q, vec![Const::Null(0); 2]);
    }

    #[test]
    fn nulls_are_fresh_wrt_input() {
        let tgd = parse_tgd("g(X) -> h(X, W).").unwrap();
        let mut input = Database::new();
        input.insert(GroundAtom::new("g", vec![Const::Null(5)]));
        let result = chase(&Program::empty(), &[tgd], &input, 10, None);
        // The new null must not be δ5.
        let h_nulls: Vec<Const> = result.db.relation(Pred::new("h")).map(|t| t[1]).collect();
        assert_eq!(h_nulls, vec![Const::Null(6)]);
    }
}
