//! Optimization under (plain) equivalence — §X and §XI.
//!
//! Plain equivalence of Datalog programs is undecidable, so the paper gives
//! a *sound but incomplete* recipe for proving `P2 ⊑ P1` where `P2` drops
//! atoms from a rule of `P1`. Showing all of:
//!
//! 1. `SAT(T) ∩ M(P1) ⊆ M(P2)` — via the `[P1, T]` chase (Theorem 1);
//! 2. `P1` preserves `T` — via the Fig. 3 non-recursive preservation test;
//! 3. (3′) the preliminary database of `P1` always satisfies `T`;
//!
//! yields `P2 ⊑_{SAT(T)} P1` (Corollary 1 with `S = SAT(T)`), and then the
//! monotonicity argument of §X gives `P2 ⊑ P1` outright. Because the
//! dropped atoms only shrink the body, `P1 ⊑u P2` (hence `P1 ⊑ P2`) is
//! automatic, so `P1 ≡ P2` and the atoms were redundant *under equivalence*
//! even when they are not redundant under uniform equivalence.
//!
//! The missing piece is *finding* `T`. §XI gives syntactic properties of a
//! good candidate tgd, extracted from the rule being optimized:
//!
//! 1. its lhs uses the same predicate as the rule's head;
//! 2. if a variable appears only in the rhs, then *all* body atoms
//!    containing that variable are in the rhs;
//! 3. variables appearing only in the rhs do not occur in the rule's head.
//!
//! [`candidate_tgds`] enumerates such tgds; [`optimize_under_equivalence`]
//! tries each candidate and keeps every deletion the three conditions
//! certify.
//!
//! For a §XI candidate τ, only condition (2) can fail, so [`try_candidate`]
//! decides by Fig. 3 alone (its doc has the proofs):
//!
//! - the ≡u re-check `P1 ⊑u P2` holds because the shortened body is a
//!   subset of the rule's body;
//! - condition (1) holds because a match of the shortened body contains
//!   τ's lhs and extends to τ's rhs, the removed atoms, whose rhs-only
//!   variables occur nowhere else in the rule (properties 2 and 3);
//! - (3′) follows from Fig. 3, because τ's lhs atom is intentional: every
//!   EDB satisfies τ vacuously, and its `⟨d, Pⁿ(d)⟩` is the preliminary DB.
//!
//! The `opt:chase` fuzz oracle checks the last two on every case.

use crate::chase::Proof;
use crate::containment::{check, ContainmentError};
use crate::preserve::preserves_nonrecursively;
use crate::termination::fuel_for;
use datalog_ast::{Atom, Program, Rule, Tgd, Var};
use std::collections::BTreeSet;

/// A deletion certified by the §X–§XI pipeline.
#[derive(Clone, Debug)]
pub struct EquivalenceOpt {
    /// Index of the optimized rule in the program *at the time of deletion*.
    pub rule_idx: usize,
    /// The atoms removed from that rule's body.
    pub removed_atoms: Vec<Atom>,
    /// The tgd that certified the removal.
    pub tgd: Tgd,
}

/// A candidate tgd paired with the body-atom indices its rhs covers (the
/// atoms whose removal it would justify).
#[derive(Clone, Debug)]
pub struct Candidate {
    pub tgd: Tgd,
    pub removable: Vec<usize>,
}

impl Candidate {
    /// `rule` without the atoms the candidate would remove: the rule of
    /// `P2`. `None` when nothing, or nothing range-restricted, is left.
    pub fn shortened(&self, rule: &Rule) -> Option<Rule> {
        let keep: Vec<_> = (rule.body.iter().enumerate())
            .filter(|(i, _)| !self.removable.contains(i))
            .map(|(_, l)| l.clone())
            .collect();
        let short = Rule::new(rule.head.clone(), keep);
        (!short.body.is_empty() && short.is_range_restricted()).then_some(short)
    }
}

/// Enumerate §XI candidate tgds for `rule` (single-atom lhs — the paper's
/// heuristic).
///
/// For every body atom `L` with the head's predicate (the lhs, property 1)
/// and every *seed* variable `w` occurring in the body but in neither the
/// head nor `L`, the rhs is the closure of the body atoms containing `w`
/// under property 2: whenever a closure atom brings in another variable
/// that is outside `head ∪ vars(L)`, all atoms containing that variable
/// join the rhs too. Candidates whose closure would capture a head variable
/// as existential (violating property 3) or swallow `L` itself are
/// discarded.
pub fn candidate_tgds(rule: &Rule) -> Vec<Candidate> {
    let head_vars: BTreeSet<Var> = rule.head.vars().collect();
    // The positive atoms with their positions in `rule.body`, which is what
    // `removable` indexes.
    let body: Vec<(usize, &Atom)> = (rule.body.iter().enumerate())
        .filter(|(_, l)| l.is_positive())
        .map(|(i, l)| (i, &l.atom))
        .collect();
    let mut out: Vec<Candidate> = Vec::new();
    for &(lhs, atom) in body.iter().filter(|(_, a)| a.pred == rule.head.pred) {
        collect_candidates(rule, &body, &head_vars, (lhs, atom), &mut out);
    }
    out
}

fn collect_candidates(
    rule: &Rule,
    body: &[(usize, &Atom)],
    head_vars: &BTreeSet<Var>,
    (lhs, lhs_atom): (usize, &Atom),
    out: &mut Vec<Candidate>,
) {
    let lhs_vars: BTreeSet<Var> = lhs_atom.vars().collect();
    let universal: BTreeSet<Var> = head_vars.union(&lhs_vars).copied().collect();

    // Seed variables: strictly local to the prospective rhs.
    let seeds: BTreeSet<Var> = rule
        .body_vars()
        .into_iter()
        .filter(|v| !universal.contains(v))
        .collect();

    for &seed in &seeds {
        // Close the rhs under property 2.
        let mut rhs_idx: BTreeSet<usize> = BTreeSet::new();
        let mut frontier = vec![seed];
        let mut seen_vars = BTreeSet::from([seed]);
        let mut valid = true;
        while let Some(v) = frontier.pop() {
            for &(i, a) in body {
                if i == lhs || !a.vars().any(|w| w == v) {
                    continue;
                }
                if rhs_idx.insert(i) {
                    for w in a.vars() {
                        if lhs_vars.contains(&w) {
                            continue; // universal via the lhs — fine
                        }
                        if head_vars.contains(&w) {
                            // Property 3 would be violated: a head variable
                            // would become existential.
                            valid = false;
                        } else if seen_vars.insert(w) {
                            frontier.push(w);
                        }
                    }
                }
            }
        }
        if !valid || rhs_idx.is_empty() {
            continue;
        }
        // The seed variable must appear only in the rhs (property 2); the
        // closure guarantees it, kept as a guard.
        debug_assert!(body
            .iter()
            .filter(|&&(i, a)| i != lhs && a.vars().any(|w| w == seed))
            .all(|(i, _)| rhs_idx.contains(i)));

        let tgd = Tgd::new(
            vec![lhs_atom.clone()],
            rhs_idx.iter().map(|&i| rule.body[i].atom.clone()).collect(),
        );
        let removable: Vec<usize> = rhs_idx.into_iter().collect();
        // Dedup identical candidates from different seeds / lhs choices.
        if !out.iter().any(|c: &Candidate| c.tgd == tgd) {
            out.push(Candidate { tgd, removable });
        }
    }
}

/// Try to certify removing `candidate.removable` from rule `rule_idx` of
/// `program`: the rule shortened by them is `P2`'s, and the deletion stands
/// when Fig. 3 proves that `program` preserves the candidate's tgd τ
/// (condition (2)). Returns `P2` on success.
///
/// Nothing else §X asks for can fail for a §XI candidate, so nothing else
/// runs. Write r = h :- b for the rule and θ for the freezing of P2's body.
/// - `P1 ⊑u P2`: the shortened body is a subset of b, so P2's rule fires
///   on r's frozen body.
/// - Condition (1), `SAT(τ) ∩ M(P1) ⊆ M(P2)`: take any model of P1 that
///   satisfies τ. A match of the shortened body contains τ's lhs, so it
///   extends to τ's rhs, which is exactly the removed atoms. By property 2
///   the rhs-only variables occur nowhere else in the rule, and by property
///   3 they are not head variables. So all of b matches, and r ∈ P1 gives
///   hθ.
/// - (3′): τ's only lhs atom has the rule's head predicate, which is
///   intentional. An extensional d therefore has no lhs match, so
///   d ∈ SAT(τ) holds vacuously, and for such a d, ⟨d, Pⁿ(d)⟩ is exactly
///   the preliminary database. (3′)'s unfoldings are Fig. 3's
///   initialization-rule unfoldings, and τ cannot fire on their
///   extensional d.
pub fn try_candidate(
    program: &Program,
    rule_idx: usize,
    candidate: &Candidate,
    fuel: u64,
) -> Result<Option<Program>, ContainmentError> {
    let Some(new_rule) = candidate.shortened(&program.rules[rule_idx]) else {
        return Ok(None);
    };
    // `shortened` keeps P2 range-restricted, and dropping atoms from a valid
    // positive program leaves one: only the input needs validating.
    check(&[program])?;
    // When τ's chase is provably terminating (full or weakly acyclic), lift
    // its fuel bound: no certifiable deletion is then lost to OutOfFuel
    // (§XII open problem 1, crate::termination). Fig. 3 chases τ alone,
    // since its renamed copy of P1 never feeds τ.
    let tgds = std::slice::from_ref(&candidate.tgd);
    let fig3_fuel = fuel_for(&Program::empty(), tgds, fuel);
    if preserves_nonrecursively(program, tgds, fig3_fuel) != Proof::Proved {
        return Ok(None);
    }
    let mut p2 = program.clone();
    p2.rules[rule_idx] = new_rule;
    Ok(Some(p2))
}

/// §XI optimization loop: for each rule, try every candidate tgd and apply
/// the first certified deletion; repeat until no candidate fires.
///
/// `fuel` bounds each chase/preservation run (the paper's "predetermined
/// amount of time", §XI, made deterministic).
pub fn optimize_under_equivalence(
    program: &Program,
    fuel: u64,
) -> Result<(Program, Vec<EquivalenceOpt>), ContainmentError> {
    let mut current = program.clone();
    let mut applied = Vec::new();
    loop {
        let mut changed = false;
        'rules: for rule_idx in 0..current.len() {
            for candidate in candidate_tgds(&current.rules[rule_idx]) {
                if let Some(next) = try_candidate(&current, rule_idx, &candidate, fuel)? {
                    let removed_atoms: Vec<Atom> = candidate
                        .removable
                        .iter()
                        .map(|&i| current.rules[rule_idx].body[i].atom.clone())
                        .collect();
                    applied.push(EquivalenceOpt {
                        rule_idx,
                        removed_atoms,
                        tgd: candidate.tgd.clone(),
                    });
                    current = next;
                    changed = true;
                    break 'rules;
                }
            }
        }
        if !changed {
            return Ok((current, applied));
        }
    }
}

/// The full optimization pipeline the paper recommends: minimize under
/// uniform equivalence (Fig. 2 — complete, §VII), then hunt for atoms
/// redundant only under plain equivalence (§X–XI — heuristic), and iterate:
/// an equivalence-phase deletion can expose fresh uniform-equivalence
/// redundancy (a shrunken rule may newly subsume another), so the two
/// phases alternate until neither changes the program.
pub fn optimize(
    program: &Program,
    fuel: u64,
) -> Result<(Program, crate::minimize::Removal, Vec<EquivalenceOpt>), ContainmentError> {
    let mut current = program.clone();
    let mut removal = crate::minimize::Removal::default();
    let mut applied_all = Vec::new();
    loop {
        let (minimized, r) = crate::minimize::minimize_program(&current)?;
        removal.append(r);
        let (optimized, applied) = optimize_under_equivalence(&minimized, fuel)?;
        let shrunk_eq = !applied.is_empty();
        applied_all.extend(applied);
        current = optimized;
        if !shrunk_eq {
            // Fixpoint: the equivalence phase found nothing, so another
            // Fig. 2 pass (already run at the top of this iteration) cannot
            // be unlocked.
            break;
        }
    }
    Ok((current, removal, applied_all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_program, parse_rule};

    const FUEL: u64 = 10_000;

    #[test]
    fn candidates_for_example18_rule() {
        // Rule: G(x,z) :- G(x,y), G(y,z), A(y,w).
        // Expected candidate: G(y,z) → A(y,w) (lhs = either g-atom whose
        // vars cover y; the paper picks G(y,z)).
        let r = parse_rule("g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let cands = candidate_tgds(&r);
        assert!(
            cands
                .iter()
                .any(|c| c.tgd.to_string() == "g(Y, Z) -> a(Y, W)."
                    || c.tgd.to_string() == "g(X, Y) -> a(Y, W)."),
            "got: {cands:?}"
        );
        // Every candidate's removable set is the a(Y,W) atom (index 2).
        for c in &cands {
            assert_eq!(c.removable, vec![2]);
        }
    }

    #[test]
    fn candidates_for_example19_rule() {
        // Rule: G(x,z) :- A(x,y), G(y,z), G(y,w), C(w).
        // Expected: G(y,z) → G(y,w) ∧ C(w) — the closure pulls C(w) in with
        // G(y,w) via the shared variable w.
        let r = parse_rule("g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).").unwrap();
        let cands = candidate_tgds(&r);
        assert!(
            cands
                .iter()
                .any(|c| c.tgd.to_string() == "g(Y, Z) -> g(Y, W) & c(W)."),
            "got: {cands:?}"
        );
    }

    #[test]
    fn example18_full_pipeline_removes_a_y_w() {
        // §X Example 18: A(y,w) in the recursive rule of P1 is redundant
        // under equivalence (not under uniform equivalence).
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let (optimized, applied) = optimize_under_equivalence(&p1, FUEL).unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].removed_atoms.len(), 1);
        assert_eq!(applied[0].removed_atoms[0].to_string(), "a(Y, W)");
        assert_eq!(
            optimized.to_string(),
            "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), g(Y, Z).\n"
        );
    }

    #[test]
    fn example19_full_pipeline_removes_g_y_w_and_c_w() {
        // §XI Example 19: G(y,w) and C(w) are redundant in the recursive
        // rule.
        let p1 = parse_program(
            "g(X, Z) :- a(X, Z), c(Z).
             g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).",
        )
        .unwrap();
        let (optimized, applied) = optimize_under_equivalence(&p1, FUEL).unwrap();
        assert_eq!(applied.len(), 1, "{applied:?}");
        let removed: Vec<String> = applied[0]
            .removed_atoms
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(removed, vec!["g(Y, W)", "c(W)"]);
        assert_eq!(
            optimized.to_string(),
            "g(X, Z) :- a(X, Z), c(Z).\ng(X, Z) :- a(X, Y), g(Y, Z).\n"
        );
    }

    #[test]
    fn uniformly_minimal_program_untouched_when_no_tgd_applies() {
        // Plain transitive closure: nothing is redundant, under either
        // notion.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let (optimized, applied) = optimize_under_equivalence(&p, FUEL).unwrap();
        assert!(applied.is_empty());
        assert_eq!(optimized, p);
    }

    #[test]
    fn guard_without_initialization_support_is_kept() {
        // Like Example 18's P1 but the initialization rule does NOT
        // guarantee the tgd (base case produces g from b, not a): the
        // preliminary-DB condition fails and the atom must stay.
        let p = parse_program("g(X, Z) :- b(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let (optimized, applied) = optimize_under_equivalence(&p, FUEL).unwrap();
        assert!(applied.is_empty(), "{applied:?}");
        assert_eq!(optimized, p);
    }

    #[test]
    fn full_optimize_combines_both_phases() {
        // A(w,y) is redundant under uniform equivalence (Example 7 shape);
        // A(y,w) in the doubling rule only under plain equivalence
        // (Example 18). `optimize` removes both.
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).
             g(X, Z) :- a(X, Z), a(X, Z).",
        )
        .unwrap();
        let (optimized, removal, applied) = optimize(&p, FUEL).unwrap();
        // Phase 1 removes the duplicated atom and then one of the two
        // now-identical base rules; phase 2 removes a(Y, W). The minimizer's
        // output order is not unique (§VII), so compare rule sets.
        assert!(!removal.is_empty());
        assert_eq!(applied.len(), 1);
        let mut rules: Vec<String> = optimized.rules.iter().map(|r| r.to_string()).collect();
        rules.sort();
        assert_eq!(
            rules,
            vec![
                "g(X, Z) :- a(X, Z).".to_string(),
                "g(X, Z) :- g(X, Y), g(Y, Z).".to_string(),
            ]
        );
    }

    #[test]
    fn head_variable_is_never_existential() {
        // Property 3: W occurs in the head, so no candidate may treat it as
        // existential — a(Y, W) (atom index 2) is never removable. (The seed
        // Z still yields the harmless candidate g(X, Y) → g(Y, Z), whose
        // certification then fails downstream.)
        let r = parse_rule("g(X, W) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let cands = candidate_tgds(&r);
        for c in &cands {
            assert!(!c.removable.contains(&2), "a(Y, W) must stay: {c:?}");
        }
    }

    #[test]
    fn removable_indexes_the_whole_body() {
        // The negated literal comes first, so c(Z, W) is body atom 3 but
        // positive atom 2; removing index 2 would drop a(X, Z) and keep c.
        let r = parse_rule("g(X, Z) :- !b(Z), g(X, Z), a(X, Z), c(Z, W).").unwrap();
        let cands = candidate_tgds(&r);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].tgd.to_string(), "g(X, Z) -> c(Z, W).");
        assert_eq!(cands[0].removable, vec![3]);
        let short = cands[0].shortened(&r).unwrap();
        assert_eq!(short.to_string(), "g(X, Z) :- !b(Z), g(X, Z), a(X, Z).");
    }

    #[test]
    fn no_candidates_without_head_predicate_in_body() {
        let r = parse_rule("g(X, Z) :- a(X, Y), a(Y, Z), b(Y, W).").unwrap();
        assert!(candidate_tgds(&r).is_empty());
    }
}
