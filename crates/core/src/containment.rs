//! Uniform containment and uniform equivalence — decidable tests (§VI).
//!
//! The central decidability result of the paper:
//!
//! * `P2 ⊑u P1 ⇔ M(P1) ⊆ M(P2)` (Proposition 2), and
//! * `M(P1) ⊆ M(P2)` iff for every rule `r` of `P2`, `M(P1) ⊆ M(r)`, and
//! * `M(P) ⊆ M(r)` iff `hθ ∈ P(bθ)` where θ freezes `r = h :- b`
//!   (Corollary 2).
//!
//! Because there are no tgds here, the bottom-up computation of `P(bθ)` runs
//! over the finite domain of frozen constants and always terminates — the
//! test is a total decision procedure, unlike plain equivalence, which is
//! undecidable (Shmueli 1986).
//!
//! The test is goal-directed: Corollary 2 asks for the membership `hθ ∈
//! P(bθ)`, not for `P(bθ)`, so [`Containment`] compiles `P` once, and each
//! test stops the round the frozen head is derived
//! ([`EvalContext::saturate_until`]). The same test on a traced context
//! ([`Containment::evidence`]) returns the derivation it found, or the
//! saturated countermodel. Every test a thread runs is counted, with the
//! engine work it did, in that thread's [`tally`].

use crate::freeze::freeze_rule;
use datalog_ast::{validate_positive, Database, GroundAtom, Program, Rule, ValidationError};
use datalog_engine::{EvalContext, EvalOptions, Proof, RulePlan, Stats, Traced};
use std::cell::Cell;
use std::sync::Arc;

/// The §VI tests [`Containment`] ran on one thread, and the engine work
/// they did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub tests: u64,
    /// Fig. 1 atom removals decided without a test, from the witness of an
    /// earlier one ([`crate::minimize_program`]).
    pub decided: u64,
    pub work: Stats,
}

thread_local! {
    static TALLY: Cell<Tally> = Cell::new(Tally::default());
}

/// The §VI tests run on the calling thread so far: `datalog optimize
/// --stats` reads it around the optimizer. A counter per thread, so that
/// concurrent callers do not see each other's tests.
pub fn tally() -> Tally {
    TALLY.with(Cell::get)
}

fn count(work: Stats) {
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.tests += 1;
        tally.work += work;
        t.set(tally);
    });
}

pub(crate) fn count_decided() {
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.decided += 1;
        t.set(tally);
    });
}

/// Error type for containment queries on programs outside the decidable
/// fragment.
#[derive(Debug)]
pub enum ContainmentError {
    /// The program(s) failed validation (negation, unsafe rules, arities).
    Invalid(Vec<ValidationError>),
}

impl std::fmt::Display for ContainmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainmentError::Invalid(errs) => {
                write!(f, "containment test requires valid positive Datalog:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ContainmentError {}

pub(crate) fn check(programs: &[&Program]) -> Result<(), ContainmentError> {
    let mut errors = Vec::new();
    for p in programs {
        if let Err(e) = validate_positive(p) {
            errors.extend(e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(ContainmentError::Invalid(errors))
    }
}

/// A program `P` compiled for repeated `r ⊑u P` tests (§VI): Figs. 1 and 2
/// make one test per body atom and per rule against a program that changes
/// by one rule at a time, so the plans are compiled once and edited in
/// place. Rule indices are positions in the program as it currently stands.
///
/// Precondition (checked by the public program-level functions): `P` and
/// every tested rule are valid positive Datalog.
#[derive(Clone, Debug)]
pub struct Containment {
    plans: Arc<Vec<RulePlan>>,
}

impl Containment {
    pub fn new(p: &Program) -> Containment {
        Containment {
            plans: Arc::new(p.rules.iter().map(RulePlan::compile).collect()),
        }
    }

    /// `r ⊑u P`: freeze `r`'s body, evaluate `P` over it until the frozen
    /// head appears or nothing new does. Always terminates.
    pub fn holds(&self, r: &Rule) -> bool {
        self.test(r, None)
    }

    /// `r ⊑u P − {rule rule_idx}` — Fig. 2's rule-deletion test.
    pub fn holds_without(&self, r: &Rule, rule_idx: usize) -> bool {
        self.test(r, Some(rule_idx))
    }

    /// Replace rule `rule_idx` of `P` by `rule`.
    pub fn replace(&mut self, rule_idx: usize, rule: &Rule) {
        Arc::make_mut(&mut self.plans)[rule_idx] = RulePlan::compile(rule);
    }

    /// Delete rule `rule_idx` from `P`; later rules move down one index.
    pub fn remove(&mut self, rule_idx: usize) {
        Arc::make_mut(&mut self.plans).remove(rule_idx);
    }

    /// [`Containment::holds`] with the evidence: the derivation of the frozen
    /// head the test stopped at, or the countermodel it saturated.
    pub fn evidence(&self, r: &Rule) -> Result<Witness, Refutation> {
        let (cx, rules, goal) = self.freeze(r, None);
        let canonical_db = cx.database().clone();
        let mut traced = Traced::over(cx, rules);
        let found = traced.explain(&goal);
        count(traced.stats());
        match found {
            Some(proof) => Ok(Witness {
                canonical_db,
                goal,
                proof,
            }),
            None => Err(Refutation {
                countermodel: traced.into_database(),
                missing: goal,
            }),
        }
    }

    /// [`Containment::holds_without`] with the evidence. Tested against a
    /// copy of the plans with the rule deleted, so the proof numbers rules
    /// as `P − {rule rule_idx}` does, the program it is a derivation under.
    pub fn evidence_without(&self, r: &Rule, rule_idx: usize) -> Result<Witness, Refutation> {
        let mut rest = self.clone();
        rest.remove(rule_idx);
        rest.evidence(r)
    }

    /// `r`'s frozen body as a context over `P`, the rules to run on it, and
    /// the frozen head to look for.
    fn freeze(&self, r: &Rule, without: Option<usize>) -> (EvalContext, Vec<usize>, GroundAtom) {
        let rules = (0..self.plans.len())
            .filter(|&i| Some(i) != without)
            .collect();
        let frozen = freeze_rule(r);
        let cx = EvalContext::with_plans(
            Arc::clone(&self.plans),
            frozen.body_db,
            EvalOptions::sequential(),
        );
        (cx, rules, frozen.goal)
    }

    fn test(&self, r: &Rule, without: Option<usize>) -> bool {
        let (mut cx, rules, goal) = self.freeze(r, without);
        let holds = cx.saturate_until(&rules, &goal);
        count(cx.stats());
        holds
    }
}

/// One-shot [`Containment::holds`]: test `r ⊑u P` for a single rule (§VI).
pub fn rule_contained(r: &Rule, p: &Program) -> bool {
    Containment::new(p).holds(r)
}

/// Test uniform containment `P2 ⊑u P1` (§VI): `P1` uniformly contains `P2`
/// iff `P1` uniformly contains every rule of `P2`.
///
/// ```
/// use datalog_ast::parse_program;
/// use datalog_optimizer::uniformly_contains;
///
/// // Paper Example 6: left-linear TC is uniformly contained in doubling
/// // TC, but not conversely.
/// let doubling = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).",
/// ).unwrap();
/// let left = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).",
/// ).unwrap();
/// assert!(uniformly_contains(&doubling, &left).unwrap());
/// assert!(!uniformly_contains(&left, &doubling).unwrap());
/// ```
pub fn uniformly_contains(p1: &Program, p2: &Program) -> Result<bool, ContainmentError> {
    check(&[p1, p2])?;
    let p1 = Containment::new(p1);
    Ok(p2.rules.iter().all(|r| p1.holds(r)))
}

/// Test uniform equivalence `P1 ≡u P2` (§IV): mutual uniform containment.
pub fn uniformly_equivalent(p1: &Program, p2: &Program) -> Result<bool, ContainmentError> {
    Ok(uniformly_contains(p1, p2)? && uniformly_contains(p2, p1)?)
}

/// A proof that `r ⊑u P`: the canonical database, the goal, and the
/// derivation of the goal (a concrete instance of Theorem 1's "sequence of
/// substitutions ϕ1, …, ϕn").
#[derive(Clone, Debug)]
pub struct Witness {
    /// The frozen body `bθ`.
    pub canonical_db: Database,
    /// The frozen head `hθ`.
    pub goal: GroundAtom,
    /// A derivation of `goal` from `canonical_db` under `P`.
    pub proof: Proof,
}

/// A refutation of `r ⊑u P`: the canonical database is itself a model of
/// `P` extending `bθ` in which `hθ` fails — the concrete counterexample
/// the §VI test implicitly constructs.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// `P(bθ)` — a model of `P` containing the body but not the head.
    pub countermodel: Database,
    /// The missing frozen head `hθ`.
    pub missing: GroundAtom,
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;

    fn doubling_tc() -> Program {
        // P1 of Examples 1/4/6.
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    fn left_linear_tc() -> Program {
        // P2 of Examples 4/6.
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn containment_edits_follow_the_program() {
        // Doubling TC plus the left-linear rule, which it contains.
        let p = parse_program(
            "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z). g(X, Z) :- a(X, Y), g(Y, Z).",
        )
        .unwrap();
        let (doubling, left) = (&p.rules[1], &p.rules[2]);
        let mut c = Containment::new(&p);
        assert!(c.holds(left) && c.holds_without(left, 2));
        assert!(!c.holds_without(doubling, 1), "Example 6: not the converse");
        // Without the doubling rule, index 1 is the left-linear rule.
        c.remove(1);
        assert!(!c.holds(doubling));
        assert!(c.holds(left) && !c.holds_without(left, 1));
        c.replace(1, doubling);
        assert!(c.holds(left), "index 1 is the doubling rule again");
    }

    #[test]
    fn evidence_without_numbers_rules_as_the_smaller_program_does() {
        // The left-linear rule first: switched off, the derivation of its
        // frozen head uses the rules behind it.
        let p = parse_program(
            "g(X, Z) :- a(X, Y), g(Y, Z). g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).",
        )
        .unwrap();
        let c = Containment::new(&p);
        let w = c.evidence_without(&p.rules[0], 0).expect("contained");
        assert_eq!(w.proof.rule_idx, Some(1), "the doubling rule of P - {{0}}");
        assert_eq!(w.proof.check(&p.without_rule(0), &w.canonical_db), Ok(()));
        assert!(w.proof.check(&p, &w.canonical_db).is_err());
        let r = c.evidence_without(&p.rules[2], 2).expect_err("Example 6");
        assert!(!c.holds_without(&p.rules[2], 2));
        assert!(!r.countermodel.contains(&r.missing));
    }

    #[test]
    fn evidence_witness_for_contained_rule() {
        // Example 6's r2: the derivation goes a(x0,y0) → g(x0,y0), then the
        // doubling rule combines it with g(y0,z0).
        let p1 = doubling_tc();
        let r2 = datalog_ast::parse_rule("g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let w = Containment::new(&p1).evidence(&r2).expect("contained");
        assert_eq!(w.goal.to_string(), "g('X, 'Z)");
        assert_eq!(w.proof.conclusion, w.goal);
        assert!(w.proof.size() >= 2, "needs both rules: {}", w.proof);
        assert!(w.canonical_db.len() == 2);
        assert_eq!(w.proof.check(&p1, &w.canonical_db), Ok(()));
    }

    #[test]
    fn evidence_refutation_for_uncontained_rule() {
        // Example 6 reversed: the doubling rule against the left-linear
        // program; the countermodel is the frozen body itself (nothing
        // derivable) and the head is missing.
        let p2 = left_linear_tc();
        let s = datalog_ast::parse_rule("g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let r = Containment::new(&p2)
            .evidence(&s)
            .expect_err("not contained");
        assert_eq!(r.missing.to_string(), "g('X, 'Z)");
        assert_eq!(r.countermodel.len(), 2, "no new atoms derivable");
        assert!(!r.countermodel.contains(&r.missing));
    }

    #[test]
    fn example6_p2_contained_in_p1() {
        // §VI Example 6: P2 ⊑u P1 …
        assert!(uniformly_contains(&doubling_tc(), &left_linear_tc()).unwrap());
        // … but P1 ⋢u P2: the doubling rule's frozen body
        // {G(x0,y0), G(y0,z0)} derives nothing under P2.
        assert!(!uniformly_contains(&left_linear_tc(), &doubling_tc()).unwrap());
        assert!(!uniformly_equivalent(&doubling_tc(), &left_linear_tc()).unwrap());
    }

    #[test]
    fn example5_adding_a_rule_preserves_containment() {
        // §IV Example 5: P2 = P1 + {A(x,z) :- A(x,y), G(y,z)}.
        // Every rule of P1 is a rule of P2, so P1 ⊑u P2.
        let p1 = doubling_tc();
        let p2 = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, Z) :- g(X, Y), g(Y, Z).
             a(X, Z) :- a(X, Y), g(Y, Z).",
        )
        .unwrap();
        assert!(uniformly_contains(&p2, &p1).unwrap());
        // And not conversely: the new rule derives A-atoms P1 never can.
        assert!(!uniformly_contains(&p1, &p2).unwrap());
    }

    #[test]
    fn example7_redundant_atom_detected() {
        // §VI Example 7: with the atom A(w,y) deleted, the single-rule
        // programs are uniformly equivalent.
        let p1 =
            parse_program("g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
        let p2 = parse_program("g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
        // Body of P2's rule ⊆ body of P1's rule ⇒ P1 ⊑u P2 trivially.
        assert!(uniformly_contains(&p2, &p1).unwrap());
        // The non-trivial direction shown in the paper: P2 ⊑u P1 (two chase
        // steps through G(x0, z0, z0)).
        assert!(uniformly_contains(&p1, &p2).unwrap());
        assert!(uniformly_equivalent(&p1, &p2).unwrap());
    }

    #[test]
    fn example11_a_y_w_not_redundant_under_uniform_equivalence() {
        // §VIII Example 11: P2 (plain doubling) is NOT uniformly contained
        // in P1 (doubling guarded by A(y,w)) — that needs the tgd machinery.
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let p2 = doubling_tc();
        assert!(
            uniformly_contains(&p2, &p1).unwrap(),
            "P1 ⊑u P2 (bodies shrink)"
        );
        assert!(
            !uniformly_contains(&p1, &p2).unwrap(),
            "P2 ⋢u P1 without tgds"
        );
    }

    #[test]
    fn identical_programs_are_uniformly_equivalent() {
        let p = doubling_tc();
        assert!(uniformly_equivalent(&p, &p).unwrap());
    }

    #[test]
    fn rule_with_constants() {
        // Constants in rules participate in the freeze correctly.
        let p1 = parse_program("g(X) :- a(X, 3). g(X) :- b(X).").unwrap();
        let p2 = parse_program("g(X) :- a(X, 3).").unwrap();
        assert!(uniformly_contains(&p1, &p2).unwrap());
        assert!(!uniformly_contains(&p2, &p1).unwrap());
    }

    #[test]
    fn negation_is_rejected() {
        let p1 = parse_program("p(X) :- q(X), !r(X).").unwrap();
        let p2 = parse_program("p(X) :- q(X).").unwrap();
        assert!(matches!(
            uniformly_contains(&p2, &p1),
            Err(ContainmentError::Invalid(_))
        ));
    }

    #[test]
    fn empty_program_contains_nothing_but_itself() {
        let empty = Program::empty();
        let p = doubling_tc();
        assert!(uniformly_contains(&p, &empty).unwrap());
        assert!(!uniformly_contains(&empty, &p).unwrap());
        assert!(uniformly_equivalent(&empty, &empty).unwrap());
    }

    #[test]
    fn subset_program_is_contained() {
        // A program uniformly contains any subset of its rules.
        let p = doubling_tc();
        let sub = Program::new(vec![p.rules[1].clone()]);
        assert!(uniformly_contains(&p, &sub).unwrap());
    }

    #[test]
    fn renamed_variables_do_not_matter() {
        let p1 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let p2 = parse_program("g(U, V) :- a(U, V). g(A, C) :- g(A, B), g(B, C).").unwrap();
        assert!(uniformly_equivalent(&p1, &p2).unwrap());
    }
}
