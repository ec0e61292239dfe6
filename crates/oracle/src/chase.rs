//! The `opt:chase` check: §VIII-§XI as the optimizer runs them — the
//! `[P, T]` chase, condition (1), Fig. 3, condition (3′) and §X-XI's
//! deletions, all evaluated by the engine — against a reference that shares
//! none of that: [`naive`], the unindexed nested-loop matcher over the
//! database's rows, with [`naive::satisfies`] for tgd satisfaction and
//! [`naive::apply_once`] for `Pⁿ(d)`. A proof is checked on the case
//! database, a disproof on the counterexample it carries.
//!
//! The tgds are each case rule's §XI candidates ([`candidate_tgds`]), the
//! ones `optimize` tries. `optimize` decides a candidate by Fig. 3 alone,
//! because conditions (1) and (3′) are lemmas for it
//! ([`datalog_optimizer::try_candidate`]); the check tests both lemmas.

use datalog_ast::{Database, Program, Tgd};
use datalog_engine::{evaluate, naive};
use datalog_optimizer::{
    candidate_tgds, chase, freeze_rule, optimize_under_equivalence, preserved_after, satisfies_tgd,
    ChaseStatus, Proof,
};
use std::collections::BTreeSet;

/// Fuel for every chase and Fig. 3 run the check makes: generated programs
/// settle far below it, and a run that does not is skipped, not reported.
const FUEL: u64 = 2_000;

/// At most this many candidate tgds per case.
const MAX_TGDS: usize = 6;

fn all_satisfied(db: &Database, tgds: &[Tgd]) -> bool {
    tgds.iter().all(|t| naive::satisfies(db, t))
}

/// `⟨d, Pⁿ(d)⟩`.
fn applied(program: &Program, d: &Database) -> Database {
    let mut full = d.clone();
    full.union_with(&naive::apply_once(program, d));
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
            let (engine, reference) = (satisfies_tgd(d, tgd), naive::satisfies(d, tgd));
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

    // Condition (1) for each case rule shortened by one of its candidates:
    // the frozen body chased under [P, τ] with the frozen head as goal, for
    // the candidate's own τ and every other τ of the case. Under its own τ
    // condition (1) is a lemma: the first repair re-adds what was removed,
    // and the rule derives the goal, so a saturated chase means
    // `candidate_tgds` broke property 2 or 3. Under another τ a saturated
    // chase disproves condition (1), and is Theorem 1's countermodel: it
    // holds bθ, is closed under P, satisfies τ and lacks hθ.
    for rule in &program.rules {
        for candidate in candidate_tgds(rule) {
            let Some(short) = candidate.shortened(rule) else {
                continue;
            };
            let frozen = freeze_rule(&short);
            let others = tgds.iter().filter(|&t| *t != candidate.tgd);
            for tgd in std::iter::once(&candidate.tgd).chain(others) {
                let t = std::slice::from_ref(tgd);
                let result = chase(program, t, &frozen.body_db, FUEL, Some(&frozen.goal));
                if result.status != ChaseStatus::Saturated {
                    continue;
                }
                if *tgd == candidate.tgd {
                    return Err(format!(
                        "condition (1) fails for {short} under its own candidate {tgd}: property 2 or 3 is broken"
                    ));
                }
                let m = &result.db;
                if !frozen.body_db.is_subset_of(m)
                    || !naive::apply_once(program, m).is_subset_of(m)
                    || !all_satisfied(m, t)
                    || m.contains(&frozen.goal)
                {
                    return Err(format!(
                        "condition (1) disproves {short} under {tgd}, but the saturated chase is no countermodel:\n{m}"
                    ));
                }
            }
        }
    }

    let edb = db.restrict_to(&program.extensional());
    for tgd in &tgds {
        let t = std::slice::from_ref(tgd);
        // Fig. 3: P preserves τ non-recursively, so over any d ∈ SAT(τ) —
        // here the case database chased by τ alone — ⟨d, Pⁿ(d)⟩ ∈ SAT(τ).
        // A disproof's d satisfies τ, and ⟨d, Pⁿ(d)⟩ violates it.
        let fig3 = preserved_after(program, t, true, FUEL);
        match &fig3 {
            (Proof::Proved, None) => {
                let d = chase(&Program::empty(), t, db, FUEL, None);
                if d.status == ChaseStatus::Saturated && !all_satisfied(&applied(program, &d.db), t)
                {
                    return Err(format!(
                        "Fig. 3 proves {tgd} preserved, but ⟨d, Pⁿ(d)⟩ violates it for a d that satisfies it"
                    ));
                }
            }
            (Proof::Disproved, Some(d)) => {
                if !all_satisfied(d, t) || all_satisfied(&applied(program, d), t) {
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
        // (3′): the preliminary database of the case EDB satisfies τ, and a
        // disproof's EDB has one that violates it.
        let prelim = preserved_after(program, t, false, FUEL);
        match &prelim {
            (Proof::Proved, None) => {
                if !all_satisfied(&applied(program, &edb), t) {
                    return Err(format!(
                        "(3′) holds for {tgd}, but the case EDB's preliminary database violates it"
                    ));
                }
            }
            (Proof::Disproved, Some(d)) => {
                if all_satisfied(&applied(program, d), t) {
                    return Err(format!(
                        "(3′) fails for {tgd} on an EDB whose preliminary database satisfies it:\n{d}"
                    ));
                }
            }
            (Proof::OutOfFuel, None) => {}
            (proof, d) => {
                return Err(format!(
                    "(3′) answers {proof:?} for {tgd} with counterexample {d:?}"
                ))
            }
        }
        // τ's lhs atom is intentional, so every EDB is in SAT(τ): a Fig. 3
        // proof covers every preliminary database.
        if fig3.0 == Proof::Proved && prelim.0 != Proof::Proved {
            return Err(format!(
                "Fig. 3 proves {tgd} preserved, but (3′) answers {:?}",
                prelim.0
            ));
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
