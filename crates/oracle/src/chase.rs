//! The `opt:chase` check: §VIII-§XI as the optimizer runs them — the
//! `[P, T]` chase, Fig. 3, condition (3′) and §X-XI's deletions, all
//! evaluated by the engine — against a reference that shares none of that:
//! an unindexed nested-loop matcher over the database's rows, and
//! [`naive::apply_once`] for `Pⁿ(d)`. A proof is checked on the case
//! database, a disproof on the counterexample it carries.
//!
//! The tgds are each case rule's §XI candidates ([`candidate_tgds`]), the
//! ones `optimize` tries.

use datalog_ast::{match_atom_into, Atom, Database, GroundAtom, Program, Subst, Tgd};
use datalog_engine::{evaluate, naive};
use datalog_optimizer::{
    candidate_tgds, chase, optimize_under_equivalence, preserved_after, satisfies_tgd, ChaseStatus,
    Proof,
};
use std::collections::BTreeSet;

/// Fuel for every chase and Fig. 3 run the check makes: generated programs
/// settle far below it, and a run that does not is skipped, not reported.
const FUEL: u64 = 2_000;

/// At most this many candidate tgds per case.
const MAX_TGDS: usize = 6;

/// Enumerate all matches of a conjunction of atoms against `db`, extending
/// `base`, and call `found` with each; `found` returns `true` to stop.
/// Returns whether enumeration stopped early.
fn for_each_match(
    atoms: &[Atom],
    db: &Database,
    base: &Subst,
    found: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let Some((first, rest)) = atoms.split_first() else {
        return found(base);
    };
    let pattern = base.apply_atom(first);
    for tuple in db.relation(pattern.pred) {
        let g = GroundAtom {
            pred: pattern.pred,
            tuple: tuple.into(),
        };
        let mut s = base.clone();
        if match_atom_into(&pattern, &g, &mut s) && for_each_match(rest, db, &s, found) {
            return true;
        }
    }
    false
}

/// The reference tgd-satisfaction test (§VIII): every lhs match extends to
/// an rhs match.
pub fn reference_satisfies(db: &Database, tgd: &Tgd) -> bool {
    !for_each_match(&tgd.lhs, db, &Subst::new(), &mut |s| {
        !for_each_match(&tgd.rhs, db, s, &mut |_| true)
    })
}

fn all_satisfied(db: &Database, tgds: &[Tgd]) -> bool {
    tgds.iter().all(|t| reference_satisfies(db, t))
}

/// `⟨d, Pⁿ(d)⟩`, `rounds` times over.
fn applied(program: &Program, d: &Database, rounds: usize) -> Database {
    let mut full = d.clone();
    for _ in 0..rounds {
        let next = naive::apply_once(program, &full);
        if full.union_with(&next) == 0 {
            break;
        }
    }
    full
}

/// Run every check on a positive `program` and its case database `db`.
/// `Err` describes the first disagreement.
pub fn check(program: &Program, db: &Database) -> Result<(), String> {
    let mut tgds: Vec<Tgd> = Vec::new();
    for candidate in program.rules.iter().flat_map(candidate_tgds) {
        if tgds.len() < MAX_TGDS && !tgds.contains(&candidate.tgd) {
            tgds.push(candidate.tgd);
        }
    }
    let fixpoint = evaluate(program, db).map_err(|e| e.to_string())?.0;

    // The engine's tgd test is the reference's, on the case database and on
    // its fixpoint.
    for tgd in &tgds {
        for (name, d) in [("database", db), ("fixpoint", &fixpoint)] {
            let (engine, reference) = (satisfies_tgd(d, tgd), reference_satisfies(d, tgd));
            if engine != reference {
                return Err(format!(
                    "satisfies_tgd says {engine} for {tgd} on the case {name}, the reference {reference}"
                ));
            }
        }
    }

    // A saturated [P, T] chase contains its input, is closed under P,
    // satisfies T, counts what it added and holds no auxiliary relation.
    let result = chase(program, &tgds, db, FUEL, None);
    if result.status == ChaseStatus::Saturated {
        let mut known: BTreeSet<_> = program.predicates();
        known.extend(db.predicates());
        known.extend(
            tgds.iter()
                .flat_map(|t| t.lhs.iter().chain(&t.rhs))
                .map(|a| a.pred),
        );
        let stray: Vec<_> = result
            .db
            .predicates()
            .filter(|p| !known.contains(p))
            .collect();
        if !db.is_subset_of(&result.db) {
            return Err("the saturated chase lost input atoms".into());
        } else if !naive::apply_once(program, &result.db).is_subset_of(&result.db) {
            return Err("the saturated chase is not closed under P".into());
        } else if !all_satisfied(&result.db, &tgds) {
            return Err("the saturated chase violates a tgd of T".into());
        } else if result.added != (result.db.len() - db.len()) as u64 {
            return Err(format!(
                "the chase reports {} atoms added, its database grew by {}",
                result.added,
                result.db.len() - db.len()
            ));
        } else if !stray.is_empty() {
            return Err(format!(
                "the chase result holds auxiliary relations {stray:?}"
            ));
        }
    }

    let edb = db.restrict_to(&program.extensional());
    for tgd in &tgds {
        let t = std::slice::from_ref(tgd);
        // Fig. 3: P preserves τ non-recursively, so over any d ∈ SAT(τ) —
        // here the case database chased by τ alone — ⟨d, Pⁿ(d)⟩ ∈ SAT(τ).
        // A disproof's d satisfies τ, and ⟨d, Pⁿ(d)⟩ violates it.
        match preserved_after(program, t, 1, true, FUEL) {
            (Proof::Proved, None) => {
                let d = chase(&Program::empty(), t, db, FUEL, None);
                if d.status == ChaseStatus::Saturated
                    && !all_satisfied(&applied(program, &d.db, 1), t)
                {
                    return Err(format!(
                        "Fig. 3 proves {tgd} preserved, but ⟨d, Pⁿ(d)⟩ violates it for a d that satisfies it"
                    ));
                }
            }
            (Proof::Disproved, Some(d)) => {
                if !all_satisfied(&d, t) || all_satisfied(&applied(program, &d, 1), t) {
                    return Err(format!(
                        "Fig. 3 disproves {tgd} on a d that violates it, or whose ⟨d, Pⁿ(d)⟩ satisfies it:\n{d}"
                    ));
                }
            }
            (Proof::OutOfFuel, None) => {}
            (proof, d) => {
                return Err(format!(
                    "Fig. 3 answers {proof:?} for {tgd} with counterexample {d:?}"
                ))
            }
        }
        // (3′): the k-round preliminary database of the case EDB satisfies τ,
        // and a disproof's EDB has one that violates it.
        for rounds in [1, 2] {
            match preserved_after(program, t, rounds, false, FUEL) {
                (Proof::Proved, None) => {
                    if !all_satisfied(&applied(program, &edb, rounds), t) {
                        return Err(format!(
                            "(3′) holds for {tgd} at {rounds} round(s), but the case EDB's preliminary database violates it"
                        ));
                    }
                }
                (Proof::Disproved, Some(d)) => {
                    if all_satisfied(&applied(program, &d, rounds), t) {
                        return Err(format!(
                            "(3′) fails for {tgd} at {rounds} round(s) on an EDB whose preliminary database satisfies it:\n{d}"
                        ));
                    }
                }
                (Proof::OutOfFuel, None) => {}
                (proof, d) => {
                    return Err(format!(
                        "(3′) at {rounds} round(s) answers {proof:?} for {tgd} with counterexample {d:?}"
                    ))
                }
            }
        }
    }

    // §X-XI's deletions keep the program equivalent: the same fixpoint on
    // the case's extensional facts.
    let (optimized, applied_opts) =
        optimize_under_equivalence(program, FUEL).map_err(|e| e.to_string())?;
    if !applied_opts.is_empty() {
        let want = evaluate(program, &edb).map_err(|e| e.to_string())?.0;
        let got = evaluate(&optimized, &edb).map_err(|e| e.to_string())?.0;
        if got != want {
            return Err(format!(
                "optimize_under_equivalence changed the fixpoint on the case EDB:\n{optimized}"
            ));
        }
    }
    Ok(())
}
