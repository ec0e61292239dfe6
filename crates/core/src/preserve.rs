//! Non-recursive preservation of tgds — the Fig. 3 procedure (§IX) — and
//! condition (3′) of §X, which is Fig. 3 with two changes.
//!
//! `P` *preserves* `T` if `P(d) ∈ SAT(T)` whenever `d ∈ SAT(T)`; it
//! *preserves `T` non-recursively* if already `⟨d, Pⁿ(d)⟩ ∈ SAT(T)` for all
//! `d ∈ SAT(T)`, where `Pⁿ` applies the rules once, non-recursively.
//! Non-recursive preservation implies preservation (an induction over the
//! bottom-up rounds), and is what the chase-style procedure of Fig. 3
//! checks:
//!
//! 1. Each intentional lhs atom of a tgd τ must have entered `Pⁿ(d)` via
//!    some rule — enumerate all *combinations* of unifying these atoms with
//!    rule heads. "The atom was already in `d`" is one more choice, tried
//!    last: the paper adds the trivial rules `Q(x̄) :- Q(x̄)` for it (§IX).
//!    A most general unifier may equate lhs variables (a head `p(X, X)`
//!    derives `p(x, y)` only when `x = y`), so the lhs is frozen after
//!    unification, not before.
//! 2. Freeze what the unifier left variable to distinct constants, and put
//!    the instantiated bodies (plus the extensional lhs atoms) into `d`.
//! 3. Interleave: apply `T` to `d` (inferences from `d ∈ SAT(T)`), and
//!    check whether the frozen lhs still exhibits a violation of τ in
//!    `⟨d, Pⁿ(d)⟩`. Stop as soon as no violation is exhibited (success for
//!    this combination); if `T`-application saturates and the violation
//!    persists, a counterexample has been constructed.
//!
//! Step 3 is the `[P, T]` chase ([`chase`]) of `d` over the rules that read
//! τ's rhs in `⟨d, Pⁿ(d)⟩` (`rhs_after`), with the frozen lhs's frontier
//! row of that rhs as the goal. Condition (3′) is the same chase with no
//! tgds over `rounds` applications of `P` ([`preserved_after`]).
//!
//! With embedded tgds the `T`-application may introduce nulls forever; the
//! interleaving finds positive answers in finite time (the procedure "is
//! complete for proving non-recursive preservation", appendix II), while
//! negative answers may need the fuel cutoff.

use crate::chase::{chase, frontier, frontier_atom, satisfies_tgd, FreshPreds, Proof};
use crate::freeze::freezing_subst;
use datalog_ast::{
    rename_apart, unify_atoms, Atom, Const, Database, GroundAtom, Pred, Program, Rule, Subst, Term,
    Tgd, Var,
};
use std::collections::{BTreeMap, BTreeSet};

/// One way a tgd's lhs may stand in the database a test builds: the
/// unifier its derivation imposes on the lhs, and the atoms it rests on.
struct Unfolding {
    sigma: Subst,
    leaves: Vec<Atom>,
}

impl Unfolding {
    /// Freeze what the unifier left variable (§IX: "instantiated to new
    /// distinct constants"): the database the leaves make, and the `sat`
    /// atom of the lhs instance's frontier row.
    fn freeze(&self, frontier: &[Var], sat: Pred) -> (Database, GroundAtom) {
        let frozen = |t: Term| match self.sigma.apply_term(t) {
            Term::Var(v) => Const::Frozen(v),
            Term::Const(c) => c,
        };
        // A leaf was set aside under the unifier of its time; later
        // unifications may have bound its variables since.
        let d = Database::from_atoms(self.leaves.iter().map(|a| {
            let terms = a.terms.iter().map(|&t| frozen(t));
            GroundAtom::new(a.pred, terms.collect::<Vec<_>>())
        }));
        let row: Vec<Const> = frontier.iter().map(|&v| frozen(Term::Var(v))).collect();
        (d, GroundAtom::new(sat, row))
    }
}

/// Every way to derive the intentional atoms of `lhs` within `rounds`
/// applications of `rules`, depth first: each intentional atom is unified
/// with the head of a rule renamed apart — a most general unifier, which
/// may equate lhs variables — and that rule's body atoms are derived at one
/// round less. An extensional atom is a leaf. When `idb_leaves` (a database
/// that may hold intentional atoms), so is an intentional atom, as the last
/// choice after every rule; otherwise an intentional atom at round 0 is
/// underivable. `None` once more than `max` unfoldings turn up.
fn unfoldings(
    lhs: &[Atom],
    rules: &[Rule],
    idb: &BTreeSet<Pred>,
    rounds: usize,
    idb_leaves: bool,
    max: usize,
) -> Option<Vec<Unfolding>> {
    struct Search<'a> {
        rules: &'a [Rule],
        idb: &'a BTreeSet<Pred>,
        idb_leaves: bool,
        max: usize,
        renamed: usize,
        out: Vec<Unfolding>,
    }
    impl Search<'_> {
        /// `false` once the search is over `max`.
        fn go(&mut self, goals: &[(Atom, usize)], sigma: &Subst, leaves: &mut Vec<Atom>) -> bool {
            let Some(((atom, rounds), rest)) = goals.split_first() else {
                self.out.push(Unfolding {
                    sigma: sigma.clone(),
                    leaves: leaves.clone(),
                });
                return self.out.len() <= self.max;
            };
            let atom = sigma.apply_atom(atom);
            let idb = self.idb.contains(&atom.pred);
            let rules = if idb && *rounds > 0 { self.rules } else { &[] };
            for rule in rules.iter().filter(|r| r.head.pred == atom.pred) {
                let (rule, _) = rename_apart(rule, "unfold", &mut self.renamed);
                let Some(mu) = unify_atoms(&atom, &rule.head) else {
                    continue;
                };
                let mut next: Vec<(Atom, usize)> = rule
                    .positive_body()
                    .map(|a| (a.clone(), rounds - 1))
                    .collect();
                next.extend(rest.iter().cloned());
                if !self.go(&next, &sigma.then(&mu), leaves) {
                    return false;
                }
            }
            if idb && !self.idb_leaves {
                return true;
            }
            leaves.push(atom);
            let more = self.go(rest, sigma, leaves);
            leaves.pop();
            more
        }
    }
    let mut search = Search {
        rules,
        idb,
        idb_leaves,
        max,
        renamed: 0,
        out: Vec::new(),
    };
    let goals: Vec<(Atom, usize)> = lhs.iter().map(|a| (a.clone(), rounds)).collect();
    search
        .go(&goals, &Subst::new(), &mut Vec::new())
        .then_some(search.out)
}

/// The rules that read `tgd`'s rhs after `rounds` stacked applications of
/// `program` to a database `d`. Level 0 is `d` itself; level `i + 1` holds
/// level `i` (`q⁽ⁱ⁺¹⁾(x̄) :- q⁽ⁱ⁾(x̄)`) and what one application of the
/// rules derives from it (each rule with its head renamed to level `i + 1`
/// and its body read at level `i`). A level carries only the predicates
/// the levels above it read. The last rule is `sat(ū) :- rhs(τ)` over τ's
/// frontier ū, with the rhs read at the top level; its head predicate is
/// returned with the rules. With `rounds = 1` the top level is
/// `⟨d, Pⁿ(d)⟩`. No rule derives into level 0, so what a chase over these
/// rules adds to `d` is what its tgd repairs add.
fn rhs_after(
    program: &Program,
    tgd: &Tgd,
    rounds: usize,
    fresh: &mut FreshPreds,
) -> (Program, Pred) {
    let key = |a: &Atom| (a.pred, a.arity());
    // needs[i]: the (predicate, arity) pairs level `rounds - i` must hold.
    let mut needs: Vec<BTreeSet<(Pred, usize)>> = vec![tgd.rhs.iter().map(key).collect()];
    for _ in 1..rounds {
        let above = needs.last().expect("the top level");
        let mut below = above.clone();
        for rule in program
            .rules
            .iter()
            .filter(|r| above.contains(&key(&r.head)))
        {
            below.extend(rule.positive_body().map(key));
        }
        needs.push(below);
    }
    let sat = fresh.pred(format!("tgd$sat{rounds}"));
    let mut names: BTreeMap<(Pred, usize), Pred> = BTreeMap::new();
    let mut at = |q: Pred, level: usize| match level {
        0 => q,
        _ => *names
            .entry((q, level))
            .or_insert_with(|| fresh.pred(format!("{q}$r{level}"))),
    };
    let rename = |a: &Atom, pred: Pred| Atom::new(pred, a.terms.clone());
    let mut rules = Vec::new();
    for level in 1..=rounds {
        let holds = &needs[rounds - level];
        for &(q, arity) in holds {
            let xs: Vec<Term> = (0..arity).map(|i| Term::Var(Var::fresh("x", i))).collect();
            let below = Atom::new(at(q, level - 1), xs.clone());
            rules.push(Rule::positive(Atom::new(at(q, level), xs), [below]));
        }
        for rule in program
            .rules
            .iter()
            .filter(|r| holds.contains(&key(&r.head)))
        {
            let head = rename(&rule.head, at(rule.head.pred, level));
            let body: Vec<Atom> = (rule.positive_body())
                .map(|a| rename(a, at(a.pred, level - 1)))
                .collect();
            rules.push(Rule::positive(head, body));
        }
    }
    let rhs = tgd.rhs.iter().map(|a| rename(a, at(a.pred, rounds)));
    rules.push(Rule::positive(frontier_atom(sat, &frontier(tgd)), rhs));
    (Program::new(rules), sat)
}

/// The fuel every combination first runs at: most settle within it, and
/// only those that do not are run again, at more.
const FIRST_FUEL: u64 = 64;

/// The most derivations of one tgd's lhs a test enumerates; past it Fig. 3
/// answers `OutOfFuel` and (3′) `false`.
const MAX_UNFOLDINGS: usize = 4096;

/// Fig. 3 (`rounds = 1`, `in_sat`) and condition (3′) (`in_sat = false`):
/// does `⟨d, Pʳᵒᵘⁿᵈˢ(d)⟩` — `program` applied `rounds` times, cumulatively —
/// satisfy `tgds` for every database `d`, or for every `d ∈ SAT(tgds)` when
/// `in_sat`? A disproof carries the database that disproved: `d` after the
/// tgds' repairs, which satisfies them when `in_sat`.
///
/// Every derivation of a tgd's lhs within `rounds` rounds (`unfoldings`;
/// when `in_sat`, an intentional atom may already be in `d`) freezes to a
/// `d`, which is chased — by the tgds when `in_sat`, by none otherwise —
/// over `rhs_after` with the lhs instance's `sat` row as the goal. A tgd
/// whose own frozen lhs satisfies it holds in every database and is not
/// enumerated.
///
/// Every combination of every tgd runs first at a small fuel; those that
/// run out of it run again at double the fuel, up to `fuel`. A run at more
/// fuel extends the run at less, so a verdict a combination reached stands,
/// and the first disproof — which decides the test ([`Proof::and`]) — is
/// not kept waiting behind a combination that spends all of `fuel`.
pub fn preserved_after(
    program: &Program,
    tgds: &[Tgd],
    rounds: usize,
    in_sat: bool,
    fuel: u64,
) -> (Proof, Option<Database>) {
    let idb = program.intentional();
    let applied = if in_sat { tgds } else { &[] };
    let mut fresh = FreshPreds::new(program, tgds, &Database::new());
    let mut verdict = Proof::Proved;
    // Per tgd: the rules that read its rhs and, per combination, `d` and
    // the goal. An lhs no combination derives is vacuously preserved.
    let mut tests: Vec<(Program, Vec<(Database, GroundAtom)>)> = Vec::new();
    for tgd in tgds {
        let lhs = freezing_subst(tgd.lhs.iter().flat_map(Atom::vars));
        let lhs = Database::from_atoms(tgd.lhs.iter().filter_map(|a| lhs.ground_atom(a)));
        if satisfies_tgd(&lhs, tgd) {
            continue;
        }
        let Some(unfoldings) = unfoldings(
            &tgd.lhs,
            &program.rules,
            &idb,
            rounds,
            in_sat,
            MAX_UNFOLDINGS,
        ) else {
            verdict = Proof::OutOfFuel; // enumeration incomplete
            continue;
        };
        let (rules, sat) = rhs_after(program, tgd, rounds, &mut fresh);
        let frontier = frontier(tgd);
        let combos = unfoldings.iter().map(|u| u.freeze(&frontier, sat));
        tests.push((rules, combos.collect()));
    }

    let mut unsettled: Vec<(usize, usize)> = (tests.iter().enumerate())
        .flat_map(|(t, (_, combos))| (0..combos.len()).map(move |c| (t, c)))
        .collect();
    let mut at = fuel.min(FIRST_FUEL);
    loop {
        let mut starved = Vec::new();
        for (t, c) in unsettled {
            let (rules, combos) = &tests[t];
            let (d, goal) = &combos[c];
            let result = chase(rules, applied, d, at, Some(goal));
            match result.status.into() {
                Proof::Disproved => {
                    let derived = rules.intentional();
                    let d = result.db.predicates().filter(|p| !derived.contains(p));
                    return (Proof::Disproved, Some(result.db.restrict_to(&d.collect())));
                }
                Proof::OutOfFuel => starved.push((t, c)),
                Proof::Proved => {}
            }
        }
        if starved.is_empty() {
            return (verdict, None);
        }
        if at == fuel {
            return (Proof::OutOfFuel, None);
        }
        unsettled = starved;
        at = at.saturating_mul(2).min(fuel);
    }
}

/// Fig. 3 — does `program` preserve `tgds` non-recursively?
///
/// `Proof::Proved` means yes (hence `program` preserves `tgds` outright);
/// `Proof::Disproved` means a counterexample combination was constructed;
/// `Proof::OutOfFuel` means some combination's chase added `fuel` atoms —
/// tgd repairs to `d` and what they add to `⟨d, Pⁿ(d)⟩` — before settling, or a tgd's lhs has more than
/// `MAX_UNFOLDINGS` (4 096) combinations. See [`preserved_after`].
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
    preserved_after(program, tgds, 1, true, fuel).0
}

/// Condition (3′) of §X — does the *preliminary database* of `program`
/// always satisfy `tgds`?
///
/// The preliminary DB for an EDB `d` is `⟨d, Pⁱ(d)⟩` where `Pⁱ` is the
/// initialization rules (§X); per the closing remark of §X, "it is not
/// necessary to choose the [preliminary DB] generated by the initialization
/// rules. Instead, it is sufficient to consider any set of rules of `P1`
/// and apply it a fixed number of times." This test takes the preliminary
/// DB to be `P1` applied `rounds` times (cumulatively) to the EDB; with
/// `rounds = 1` that is `⟨d, Pⁱ(d)⟩`, since only initialization rules fire
/// on an EDB.
///
/// The test is the Fig. 3 procedure with two changes (§X Example 18): the
/// tgds are *not* applied to `d` (an EDB is arbitrary, not assumed to
/// satisfy `T`), and no trivial rules are added (an EDB has no intentional
/// ground atoms): [`preserved_after`] with `in_sat = false`, which spends
/// no fuel. Larger `rounds` certify tgds whose support needs a derivation
/// pipeline — see the `two_round_preliminary_db` test. More than
/// `MAX_UNFOLDINGS` (4 096) derivations of one lhs answer `false`.
pub fn preliminary_db_satisfies(program: &Program, tgds: &[Tgd], rounds: usize) -> bool {
    preserved_after(program, tgds, rounds, false, 0).0 == Proof::Proved
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
    fn a_head_that_equates_lhs_variables_is_a_combination() {
        // Besides being in d already, p(V1, V0) is derived only as p(x, x),
        // from c(x), whose ⟨d, Pⁿ(d)⟩ has no a-atom. A frozen p(v1, v0)
        // with v1 ≠ v0 matches neither head, so that combination exists only
        // if the lhs is unified with the heads before it is frozen.
        let p = parse_program("p(V1, V1) :- a(V3, V2), p(V2, V1). p(V4, V4) :- c(V4).").unwrap();
        let t = parse_tgds("p(V1, V0) -> a(V3, V1).").unwrap();
        assert_eq!(preserves_nonrecursively(&p, &t, FUEL), Proof::Disproved);
    }

    #[test]
    fn a_disproof_carries_its_counterexample() {
        // The combination that derives b(x, y) by the rule rests on
        // d = {a(x, y)}, which satisfies the tgd (it has no b-atom), while
        // ⟨d, Pⁿ(d)⟩ = {a(x, y), b(x, y)} lacks b(y, x). A proof carries none.
        let p = parse_program("b(X, Y) :- a(X, Y).").unwrap();
        let t = parse_tgds("b(X, Y) -> b(Y, X).").unwrap();
        let (proof, d) = preserved_after(&p, &t, 1, true, FUEL);
        assert_eq!(proof, Proof::Disproved);
        let d = d.expect("a disproof carries its database");
        assert_eq!((d.len(), d.relation_len(Pred::new("a"))), (1, 1));
        let p = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert_eq!(preserved_after(&p, &t, 1, false, 0), (Proof::Proved, None));
    }

    #[test]
    fn a_tgd_its_own_lhs_satisfies_holds_without_enumeration() {
        // g(X, Y) → g(X, W) holds in every database (W ↦ Y). The last
        // rule's 8 g-atoms, each derivable in one round by 3 rules, give the
        // lhs over 3^8 two-round derivations: past the cap, where (3′)
        // would have to answer false.
        let p = parse_program(
            "g(X, Z) :- a(X, Z). g(X, Z) :- b(X, Z). g(X, Z) :- c(X, Z).
             g(X, Z) :- g(X, Y1), g(Y1, Y2), g(Y2, Y3), g(Y3, Y4), g(Y4, Y5),
                        g(Y5, Y6), g(Y6, Y7), g(Y7, Z).",
        )
        .unwrap();
        let t = parse_tgds("g(X, Y) -> g(X, W).").unwrap();
        let idb = p.intentional();
        assert!(unfoldings(&t[0].lhs, &p.rules, &idb, 2, false, MAX_UNFOLDINGS).is_none());
        assert!(preliminary_db_satisfies(&p, &t, 2));
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
        assert!(preliminary_db_satisfies(&p1, &t, 1));
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
        assert!(preliminary_db_satisfies(&p, &t, 1));
    }

    #[test]
    fn preliminary_db_violation_detected() {
        // Initialization rule produces g from bare a, but the tgd demands a
        // c-companion nothing provides.
        let p = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        let t = parse_tgds("g(Y, Z) -> g(Y, W) & c(W).").unwrap();
        assert!(!preliminary_db_satisfies(&p, &t, 1));
    }

    #[test]
    fn a_preliminary_db_atom_may_equate_lhs_variables() {
        // The EDB {b(0, 0)} gives the preliminary DB {b(0, 0), p(0, 0)},
        // which has a p-atom and no q-atom. The initialization rule derives
        // p only as p(x, x), which a frozen p(v4, v0) with v4 ≠ v0 does not
        // match: frozen first, the lhs would look underivable.
        let p = parse_program("p(V0, V0) :- p(V4, V0), q(V1). p(V0, V0) :- b(V0, V3).").unwrap();
        let t = parse_tgds("p(V4, V0) -> q(V1).").unwrap();
        assert!(!preliminary_db_satisfies(&p, &t, 1));
        assert!(!preliminary_db_satisfies(&p, &t, 2));
    }

    #[test]
    fn preliminary_vacuous_when_lhs_pred_has_no_init_rule() {
        // h never appears in an initialization rule head: vacuous.
        let p = parse_program("g(X) :- a(X). h(X) :- g(X), b(X).").unwrap();
        let t = parse_tgds("h(X) -> c(X, W).").unwrap();
        assert!(preliminary_db_satisfies(&p, &t, 1));
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
            !preliminary_db_satisfies(&p, &tgd, 1),
            "init rules alone cannot see s"
        );
        assert!(preliminary_db_satisfies(&p, &tgd, 2), "two rounds derive s");
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
        assert!(preliminary_db_satisfies(&p, &tgd, 1));
        assert!(preliminary_db_satisfies(&p, &tgd, 2));
        assert!(preliminary_db_satisfies(&p, &tgd, 3));
    }
}
