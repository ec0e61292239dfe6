//! Non-recursive preservation of tgds — the Fig. 3 procedure (§IX).
//!
//! `P` *preserves* `T` if `P(d) ∈ SAT(T)` whenever `d ∈ SAT(T)`; it
//! *preserves `T` non-recursively* if already `⟨d, Pⁿ(d)⟩ ∈ SAT(T)` for all
//! `d ∈ SAT(T)`, where `Pⁿ` applies the rules once, non-recursively.
//! Non-recursive preservation implies preservation (an induction over the
//! bottom-up rounds), and is what the chase-style procedure of Fig. 3
//! checks:
//!
//! 1. Freeze the lhs of each tgd τ.
//! 2. Each intentional lhs atom must have entered `Pⁿ(d)` via some rule —
//!    enumerate all *combinations* of unifying these atoms with rule heads.
//!    The program is augmented with the trivial rules
//!    `Q(x̄) :- Q(x̄)` so that "the atom was already in `d`" is one of the
//!    choices (§IX).
//! 3. For the chosen rules: unify, instantiate leftover body variables with
//!    fresh constants, and put the instantiated bodies (plus the extensional
//!    lhs atoms) into `d`.
//! 4. Interleave: apply `T` to `d` (inferences from `d ∈ SAT(T)`), recompute
//!    `Pⁿ(d)`, and check whether the frozen lhs still exhibits a violation
//!    of τ in `⟨d, Pⁿ(d)⟩`. Stop as soon as no violation is exhibited
//!    (success for this combination); if `T`-application saturates and the
//!    violation persists, a counterexample has been constructed.
//!
//! With embedded tgds the `T`-application may introduce nulls forever; the
//! interleaving finds positive answers in finite time (the procedure "is
//! complete for proving non-recursive preservation", appendix II), while
//! negative answers may need the fuel cutoff.

use crate::chase::{has_extension, Proof};
use crate::freeze::freeze_tgd_lhs;
use datalog_ast::{
    match_atom, rename_apart, Const, Database, GroundAtom, Program, Rule, Subst, Term, Tgd, Var,
};
use datalog_engine::naive;
use std::collections::BTreeSet;

/// One way an intentional lhs atom may have entered `Pⁿ(d)`.
#[derive(Clone, Debug)]
struct Choice {
    /// Ground atoms the rule body contributes to `d`.
    body_atoms: Vec<GroundAtom>,
}

/// All ways to produce `target` with a single application of a rule of
/// `rules`: unify `target` with the head, instantiate leftover body
/// variables with fresh constants.
fn choices_for(target: &GroundAtom, rules: &[Rule], fresh_counter: &mut usize) -> Vec<Choice> {
    let mut out = Vec::new();
    for rule in rules {
        let mut n = 0usize;
        let (renamed, _) = rename_apart(rule, "p", &mut n);
        // `target` is ground, so one-way matching of the head suffices for
        // unification.
        let Some(mut sigma) = match_atom(&renamed.head, target) else {
            continue;
        };
        // Instantiate the body's leftover variables with fresh constants
        // ("the rest of the variables of r are instantiated to new distinct
        // constants", §IX).
        for atom in renamed.positive_body() {
            for v in atom.vars() {
                if sigma.get(v).is_none() {
                    sigma.bind(
                        v,
                        Term::Const(Const::Frozen(Var::fresh("fresh", *fresh_counter))),
                    );
                    *fresh_counter += 1;
                }
            }
        }
        let body_atoms: Vec<GroundAtom> = renamed
            .positive_body()
            .map(|a| sigma.ground_atom(a).expect("all body vars instantiated"))
            .collect();
        out.push(Choice { body_atoms });
    }
    out
}

/// Apply the tgds of `T` to `d` **as inferences about `d`** (§IX: "the
/// applications of τ correspond to inferences implied by the fact that d
/// satisfies T"), one repair pass. Returns atoms added.
fn apply_tgds_to_d(tgds: &[Tgd], d: &mut Database, null_counter: &mut u32) -> u64 {
    let mut added = 0;
    for tgd in tgds {
        let snapshot = d.clone();
        let mut violations: Vec<Subst> = Vec::new();
        crate::chase::for_each_match(&tgd.lhs, &snapshot, &Subst::new(), &mut |s| {
            if !has_extension(&tgd.rhs, &snapshot, s) {
                violations.push(s.clone());
            }
            false
        });
        for theta in violations {
            if has_extension(&tgd.rhs, d, &theta) {
                continue;
            }
            let mut extended = theta.clone();
            for v in tgd.existential_vars() {
                extended.bind(v, Term::Const(Const::Null(*null_counter)));
                *null_counter += 1;
            }
            for atom in &tgd.rhs {
                if d.insert(extended.ground_atom(atom).expect("fully instantiated")) {
                    added += 1;
                }
            }
        }
    }
    added
}

/// Check one combination: does `⟨d, Pⁿ(d)⟩` (eventually) satisfy τ at the
/// frozen lhs instantiation θ? Implements the interleaved loop of §IX.
fn combination_ok(
    program: &Program,
    tgds: &[Tgd],
    tgd: &Tgd,
    theta: &Subst,
    mut d: Database,
    fuel: u64,
) -> Proof {
    let mut null_counter = 0u32;
    let mut budget = fuel;
    loop {
        // ⟨d, Pⁿ(d)⟩.
        let mut full = d.clone();
        full.union_with(&naive::apply_once(program, &d));
        if has_extension(&tgd.rhs, &full, theta) {
            return Proof::Proved; // no violation exhibited
        }
        // Violation still exhibited: let the tgds of T infer more about d.
        let added = apply_tgds_to_d(tgds, &mut d, &mut null_counter);
        if added == 0 {
            // T saturated on d and the violation persists: counterexample.
            return Proof::Disproved;
        }
        budget = budget.saturating_sub(added);
        if budget == 0 {
            return Proof::OutOfFuel;
        }
    }
}

/// The fuel every combination of Fig. 3 first runs at: most settle within
/// it, and only those that do not are run again, at more.
const FIRST_FUEL: u64 = 64;

/// Fig. 3 — does `program` preserve `tgds` non-recursively?
///
/// `Proof::Proved` means yes (hence `program` preserves `tgds` outright);
/// `Proof::Disproved` means a counterexample combination was constructed;
/// `Proof::OutOfFuel` means some combination's tgd-inference loop exceeded
/// `fuel` added atoms before settling.
///
/// Every combination of every tgd runs first at a small fuel; those that
/// run out of it run again at double the fuel, up to `fuel`. A run at more
/// fuel extends the run at less, so a verdict a combination reached stands,
/// and the first disproof — which decides the test ([`Proof::and`]) — is
/// not kept waiting behind a combination that spends all of `fuel`.
///
/// ```
/// use datalog_ast::{parse_program, parse_tgds};
/// use datalog_optimizer::{preserves_nonrecursively, Proof};
///
/// // Paper Example 14.
/// let p = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).",
/// ).unwrap();
/// let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
/// assert_eq!(preserves_nonrecursively(&p, &t, 10_000), Proof::Proved);
/// ```
pub fn preserves_nonrecursively(program: &Program, tgds: &[Tgd], fuel: u64) -> Proof {
    let idb: BTreeSet<_> = program.intentional();
    // Augment with trivial rules Q(x̄) :- Q(x̄) for every intentional
    // predicate (§IX).
    let mut unification_rules: Vec<Rule> = program.rules.clone();
    for (&p, &arity) in program
        .arities()
        .iter()
        .filter(|(p, _)| idb.contains(*p))
        .collect::<Vec<_>>()
        .iter()
    {
        unification_rules.push(Program::trivial_rule(p, arity));
    }

    // Per tgd: the frozen lhs θ, its extensional atoms, and the choices for
    // each intentional one.
    let mut setups = Vec::with_capacity(tgds.len());
    // Every combination, as (tgd, one choice per intentional lhs atom).
    let mut unsettled: Vec<(usize, Vec<usize>)> = Vec::new();
    for (t, tgd) in tgds.iter().enumerate() {
        let (lhs_ground, theta) = freeze_tgd_lhs(tgd);
        let (intentional_atoms, base_d): (Vec<GroundAtom>, Vec<GroundAtom>) =
            lhs_ground.into_iter().partition(|g| idb.contains(&g.pred));
        let mut fresh_counter = 0usize;
        let per_atom: Vec<Vec<Choice>> = intentional_atoms
            .iter()
            .map(|g| choices_for(g, &unification_rules, &mut fresh_counter))
            .collect();
        // If some intentional atom has no producing rule at all, the lhs can
        // never be realised with that atom in Pⁿ(d) — vacuously satisfied.
        if !per_atom.iter().any(Vec::is_empty) {
            let mut combo = vec![0usize; per_atom.len()];
            loop {
                unsettled.push((t, combo.clone()));
                if !advance(&mut combo, |k| per_atom[k].len()) {
                    break;
                }
            }
        }
        setups.push((theta, base_d, per_atom));
    }

    let run = |t: usize, combo: &[usize], fuel: u64| {
        let (theta, base_d, per_atom) = &setups[t];
        let mut d = Database::from_atoms(base_d.iter().cloned());
        for (choices, &choice_i) in per_atom.iter().zip(combo) {
            for g in &choices[choice_i].body_atoms {
                d.insert(g.clone());
            }
        }
        combination_ok(program, tgds, &tgds[t], theta, d, fuel)
    };
    let mut at = fuel.min(FIRST_FUEL);
    loop {
        let mut out_of_fuel = Vec::new();
        for (t, combo) in unsettled {
            match run(t, &combo, at) {
                Proof::Disproved => return Proof::Disproved,
                Proof::OutOfFuel => out_of_fuel.push((t, combo)),
                Proof::Proved => {}
            }
        }
        if out_of_fuel.is_empty() {
            return Proof::Proved;
        }
        if at == fuel {
            return Proof::OutOfFuel;
        }
        unsettled = out_of_fuel;
        at = at.saturating_mul(2).min(fuel);
    }
}

/// Step a mixed-radix counter over combinations, digit `k` below `len(k)`;
/// `false` once it has wrapped round to all zeros.
fn advance(combo: &mut [usize], len: impl Fn(usize) -> usize) -> bool {
    for (k, digit) in combo.iter_mut().enumerate() {
        *digit += 1;
        if *digit < len(k) {
            return true;
        }
        *digit = 0;
    }
    false
}

/// Condition (3′) of §X — does the *preliminary database* of `program`
/// always satisfy `tgds`?
///
/// The preliminary DB for an EDB `d` is `⟨d, Pⁱ(d)⟩` where `Pⁱ` is the
/// initialization rules (§X). The test is the Fig. 3 procedure with two
/// changes (§X Example 18): the tgds are *not* applied to `d` (an EDB is
/// arbitrary, not assumed to satisfy `T`), and no trivial rules are added
/// (an EDB has no intentional ground atoms).
pub fn preliminary_db_satisfies(program: &Program, tgds: &[Tgd]) -> bool {
    let init = program.initialization_rules();
    let idb: BTreeSet<_> = program.intentional();

    for tgd in tgds {
        let (lhs_ground, theta) = freeze_tgd_lhs(tgd);
        let mut base_d: Vec<GroundAtom> = Vec::new();
        let mut intentional_atoms: Vec<GroundAtom> = Vec::new();
        for g in lhs_ground {
            if idb.contains(&g.pred) {
                intentional_atoms.push(g);
            } else {
                base_d.push(g);
            }
        }
        let mut fresh_counter = 0usize;
        let per_atom: Vec<Vec<Choice>> = intentional_atoms
            .iter()
            .map(|g| choices_for(g, &init.rules, &mut fresh_counter))
            .collect();
        if per_atom.iter().any(Vec::is_empty) {
            // Some intentional lhs atom can never appear in a preliminary
            // DB: vacuously satisfied.
            continue;
        }
        let mut combo_indices = vec![0usize; per_atom.len()];
        loop {
            let mut d = Database::from_atoms(base_d.iter().cloned());
            for (atom_i, &choice_i) in combo_indices.iter().enumerate() {
                for g in &per_atom[atom_i][choice_i].body_atoms {
                    d.insert(g.clone());
                }
            }
            // ⟨d, Pⁱ(d)⟩ — Pⁱ is non-recursive, one application saturates
            // it for the violation check at θ.
            let mut full = d.clone();
            full.union_with(&naive::apply_once(&init, &d));
            if !has_extension(&tgd.rhs, &full, &theta) {
                return false;
            }
            if !advance(&mut combo_indices, |k| per_atom[k].len()) {
                break;
            }
        }
    }
    true
}

/// Condition (3′) generalized per the final remark of §X: "it is not
/// necessary to choose the [preliminary DB] generated by the initialization
/// rules. Instead, it is sufficient to consider any set of rules of `P1`
/// and apply it a fixed number of times."
///
/// This variant takes the preliminary DB to be `P1` applied `rounds` times
/// (cumulatively) to the EDB. The lhs of each tgd is realised by
/// enumerating derivation trees of depth ≤ `rounds` (extensional leaves
/// form the canonical `d`); the violation check then looks for the rhs in
/// the `rounds`-fold application of the whole program to `d`.
///
/// `rounds = 1` coincides with [`preliminary_db_satisfies`] (only
/// initialization rules can fire on an intentional-free EDB in one round).
/// Larger `rounds` certify tgds whose support needs a derivation pipeline —
/// see the `two_round_preliminary_db` test for a program where `rounds = 2`
/// succeeds and `rounds = 1` cannot.
///
/// The enumeration of derivation trees is truncated at `max_combinations`
/// per tgd; if truncated, the function conservatively returns `false`.
pub fn preliminary_db_satisfies_k(
    program: &Program,
    tgds: &[Tgd],
    rounds: usize,
    max_combinations: usize,
) -> bool {
    let idb: BTreeSet<_> = program.intentional();

    for tgd in tgds {
        let (lhs_ground, theta) = freeze_tgd_lhs(tgd);
        let mut base_d: Vec<GroundAtom> = Vec::new();
        let mut intentional_atoms: Vec<GroundAtom> = Vec::new();
        for g in lhs_ground {
            if idb.contains(&g.pred) {
                intentional_atoms.push(g);
            } else {
                base_d.push(g);
            }
        }
        // Realizations of each intentional lhs atom: sets of extensional
        // atoms supporting a derivation of depth ≤ rounds.
        let mut fresh_counter = 0usize;
        let mut truncated = false;
        let per_atom: Vec<Vec<Vec<GroundAtom>>> = intentional_atoms
            .iter()
            .map(|g| {
                realizations(
                    g,
                    program,
                    &idb,
                    rounds,
                    &mut fresh_counter,
                    max_combinations,
                    &mut truncated,
                )
            })
            .collect();
        if truncated {
            return false; // enumeration incomplete — stay conservative
        }
        if per_atom.iter().any(Vec::is_empty) {
            continue; // lhs not realisable within `rounds` — vacuous
        }
        let mut combo = vec![0usize; per_atom.len()];
        loop {
            let mut d = Database::from_atoms(base_d.iter().cloned());
            for (atom_i, &choice_i) in combo.iter().enumerate() {
                for g in &per_atom[atom_i][choice_i] {
                    d.insert(g.clone());
                }
            }
            // Cumulative `rounds`-fold application of the whole program.
            let mut full = d.clone();
            for _ in 0..rounds {
                let next = naive::apply_once(program, &full);
                if full.union_with(&next) == 0 {
                    break;
                }
            }
            if !has_extension(&tgd.rhs, &full, &theta) {
                return false;
            }
            if !advance(&mut combo, |k| per_atom[k].len()) {
                break;
            }
        }
    }
    true
}

/// Enumerate the extensional-leaf sets of derivation trees for `target`
/// with depth ≤ `depth`. Each returned set, placed in an EDB, makes
/// `target` derivable within `depth` rounds.
fn realizations(
    target: &GroundAtom,
    program: &Program,
    idb: &BTreeSet<datalog_ast::Pred>,
    depth: usize,
    fresh_counter: &mut usize,
    max: usize,
    truncated: &mut bool,
) -> Vec<Vec<GroundAtom>> {
    if depth == 0 {
        return Vec::new(); // an intentional atom cannot exist at depth 0
    }
    let mut out: Vec<Vec<GroundAtom>> = Vec::new();
    for rule in program.rules_for(target.pred) {
        let mut n = 0usize;
        let (renamed, _) = rename_apart(rule, "q", &mut n);
        let Some(mut sigma) = match_atom(&renamed.head, target) else {
            continue;
        };
        for atom in renamed.positive_body() {
            for v in atom.vars() {
                if sigma.get(v).is_none() {
                    sigma.bind(
                        v,
                        Term::Const(Const::Frozen(Var::fresh("pk", *fresh_counter))),
                    );
                    *fresh_counter += 1;
                }
            }
        }
        // Split the instantiated body into extensional leaves and
        // intentional sub-goals.
        let mut leaves: Vec<GroundAtom> = Vec::new();
        let mut subgoals: Vec<GroundAtom> = Vec::new();
        for atom in renamed.positive_body() {
            let g = sigma.ground_atom(atom).expect("instantiated");
            if idb.contains(&g.pred) {
                subgoals.push(g);
            } else {
                leaves.push(g);
            }
        }
        // Each subgoal needs its own realization at depth-1; combine.
        let sub_options: Vec<Vec<Vec<GroundAtom>>> = subgoals
            .iter()
            .map(|g| realizations(g, program, idb, depth - 1, fresh_counter, max, truncated))
            .collect();
        if sub_options.iter().any(Vec::is_empty) {
            continue; // some subgoal unrealisable at this depth
        }
        let mut combo = vec![0usize; sub_options.len()];
        loop {
            let mut set = leaves.clone();
            for (i, &c) in combo.iter().enumerate() {
                set.extend(sub_options[i][c].iter().cloned());
            }
            out.push(set);
            if out.len() > max {
                *truncated = true;
                return out;
            }
            if !advance(&mut combo, |k| sub_options[k].len()) {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {

    use super::*;
    use datalog_ast::{parse_program, parse_tgds};

    const FUEL: u64 = 10_000;

    #[test]
    fn example13_single_rule_preserves() {
        // §IX Example 13: r = G(x,z) :- G(x,y), G(y,z), A(y,w) preserves
        // τ = G(x,z) → A(x,w) non-recursively.
        let p = parse_program("g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Proved);
    }

    #[test]
    fn example14_p1_preserves() {
        // §IX Example 14: P1 (both rules) preserves T = {G(x,z) → A(x,w)}.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Proved);
    }

    #[test]
    fn example15_two_atom_lhs_four_combinations() {
        // §IX Example 15: same rule, τ = G(x,y) ∧ G(y,z) → A(y,w); all four
        // unification combinations show no violation.
        let p = parse_program("g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let t = parse_tgds("g(X, Y) & g(Y, Z) -> a(Y, W).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Proved);
    }

    #[test]
    fn example16_embedded_style_tgd() {
        // §IX Example 16: r = G(x,z) :- A(x,y), G(y,z), G(y,w), C(w)
        // preserves τ = G(y,z) → G(y,w) ∧ C(w).
        let p = parse_program("g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).").unwrap();
        let t = parse_tgds("g(Y, Z) -> g(Y, W) & c(W).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Proved);
    }

    #[test]
    fn violation_is_detected() {
        // P derives b-atoms with a second column the tgd insists must be
        // mirrored — and nothing provides the mirror.
        let p = parse_program("b(X, Y) :- a(X, Y).").unwrap();
        let t = parse_tgds("b(X, Y) -> b(Y, X).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Disproved);
    }

    #[test]
    fn preservation_with_symmetric_source() {
        // Same shape, but the EDB's own tgd makes a symmetric, so P now
        // preserves symmetry of b... note both tgds are in T.
        let p = parse_program("b(X, Y) :- a(X, Y).").unwrap();
        let t = parse_tgds("b(X, Y) -> b(Y, X). a(X, Y) -> a(Y, X).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Proved);
    }

    #[test]
    fn empty_tgd_set_is_trivially_preserved() {
        let p = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &[], FUEL), Proof::Proved);
    }

    #[test]
    fn example18_preliminary_db_satisfies() {
        // §X Example 18: the preliminary DB of P1 (via G(x,z) :- A(x,z))
        // satisfies T = {G(x,z) → A(x,w)}.
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert!(preliminary_db_satisfies(&p1, &t));
    }

    #[test]
    fn example19_preliminary_db_satisfies() {
        // §XI Example 19: preliminary DB of
        // G(x,z) :- A(x,z), C(z) satisfies G(y,z) → G(y,w) ∧ C(w).
        let p = parse_program(
            "g(X, Z) :- a(X, Z), c(Z).
             g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).",
        )
        .unwrap();
        let t = parse_tgds("g(Y, Z) -> g(Y, W) & c(W).").unwrap();
        assert!(preliminary_db_satisfies(&p, &t));
    }

    #[test]
    fn preliminary_db_violation_detected() {
        // Initialization rule produces g from bare a, but the tgd demands a
        // c-companion nothing provides.
        let p = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        let t = parse_tgds("g(Y, Z) -> g(Y, W) & c(W).").unwrap();
        assert!(!preliminary_db_satisfies(&p, &t));
    }

    #[test]
    fn preliminary_vacuous_when_lhs_pred_has_no_init_rule() {
        // h never appears in an initialization rule head: vacuous.
        let p = parse_program("g(X) :- a(X). h(X) :- g(X), b(X).").unwrap();
        let t = parse_tgds("h(X) -> c(X, W).").unwrap();
        assert!(preliminary_db_satisfies(&p, &t));
    }

    #[test]
    fn extensional_lhs_atom_goes_to_d() {
        // τ's lhs mentions only extensional predicates: d satisfies T by
        // assumption, so preservation holds vacuously... but here the rhs
        // must still be derivable. lhs a(X) with rhs a-mirror: d = {a(x0)}
        // satisfies T by assumption — the procedure applies T to d and
        // closes the gap, so no violation is ever exhibited.
        let p = parse_program("g(X) :- a(X).").unwrap();
        let t = parse_tgds("a(X) -> b(X, W).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Proved);
    }

    #[test]
    fn k1_matches_init_rule_variant() {
        // rounds = 1 agrees with the initialization-rule test on the
        // paper's Example 18 setup.
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert!(preliminary_db_satisfies(&p1, &t));
        assert!(preliminary_db_satisfies_k(&p1, &t, 1, 1024));

        let bad = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        let t2 = parse_tgds("g(Y, Z) -> g(Y, W) & c(W).").unwrap();
        assert!(!preliminary_db_satisfies(&bad, &t2));
        assert!(!preliminary_db_satisfies_k(&bad, &t2, 1, 1024));
    }

    #[test]
    fn two_round_preliminary_db() {
        // s needs two rounds: s :- t, t :- a. The tgd g(X,Z) → s(X,W) is
        // violated in the one-round preliminary DB (s not yet derived) but
        // satisfied in the two-round one.
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             t(X, W) :- a(X, W).
             s(X, W) :- t(X, W).",
        )
        .unwrap();
        let tgd = parse_tgds("g(X, Z) -> s(X, W).").unwrap();
        assert!(
            !preliminary_db_satisfies(&p, &tgd),
            "init rules alone cannot see s"
        );
        assert!(!preliminary_db_satisfies_k(&p, &tgd, 1, 1024));
        assert!(
            preliminary_db_satisfies_k(&p, &tgd, 2, 1024),
            "two rounds derive s"
        );
    }

    #[test]
    fn recursive_realizations_bounded() {
        // A recursive program: realizations at depth 2 include both the
        // base case and one unfolding; the tgd holds at every depth because
        // every derivation of g bottoms out in an a-edge... for the
        // doubling rule the lhs realisations at depth 2 include
        // two-step paths; the tgd g(X,Z) → a(X,W) holds (the first step of
        // any realisation provides a(x0, ·)).
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let tgd = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert!(preliminary_db_satisfies_k(&p, &tgd, 1, 1024));
        assert!(preliminary_db_satisfies_k(&p, &tgd, 2, 1024));
        assert!(preliminary_db_satisfies_k(&p, &tgd, 3, 4096));
    }

    #[test]
    fn truncation_is_conservative() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let tgd = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        // Absurdly small combination cap: must refuse rather than guess.
        assert!(!preliminary_db_satisfies_k(&p, &tgd, 3, 1));
    }
}
