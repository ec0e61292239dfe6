//! Minimization under uniform equivalence (§VII, Figs. 1 and 2).
//!
//! * [`minimize_rule`] — Fig. 1: delete body atoms one at a time, keeping a
//!   deletion when the shrunken rule still uniformly contains the original
//!   (`r̂ ⊑u r`; the converse is trivial because `r̂`'s body is a subset).
//! * [`minimize_program`] — Fig. 2: first minimize every rule's body testing
//!   against the whole program (`r̂ ⊑u P`), then delete redundant rules
//!   (`r ⊑u P̂`).
//! * [`minimize_program_with_evidence`] — the same loop, returning each
//!   removal's witness; `datalog lint` reports it.
//!
//! Theorem 2 (appendix) proves each atom and each rule needs to be
//! considered **once**: an atom that survives its test can never become
//! redundant through later deletions, *provided atoms are processed before
//! rules* — the implementation preserves that phase order. The same
//! monotonicity lets an accepted test decide later atoms: an atom outside
//! the support of its derivation is removed without a test of its own
//! (`fig2`). The final result has no redundant atom and no redundant rule,
//! but is not unique: it depends on consideration order. The default order
//! is deterministic (source order); [`minimize_program_in_order`] exposes
//! the order for property tests that verify all orders yield
//! uniformly-equivalent, locally-minimal programs.

use crate::containment::{
    count_decided, uniformly_contains, Containment, ContainmentError, Witness,
};
use crate::freeze::{freeze_atom, freeze_rule};
use datalog_ast::{validate_positive, Atom, Program, Rule};
use datalog_engine::Proof;

/// What the minimizer removed, for reporting and assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Removal {
    /// `(original rule index, deleted atom)` pairs, in deletion order.
    pub atoms: Vec<(usize, Atom)>,
    /// The deleted atoms' positions in their rule's *original* body,
    /// parallel to [`Removal::atoms`].
    pub atom_positions: Vec<usize>,
    /// Rules deleted outright, in deletion order.
    pub rules: Vec<Rule>,
    /// Indices (into the input program) of the deleted rules, parallel to
    /// [`Removal::rules`].
    pub rule_indices: Vec<usize>,
}

impl Removal {
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty() && self.rules.is_empty()
    }

    /// Total parts removed.
    pub fn len(&self) -> usize {
        self.atoms.len() + self.rules.len()
    }

    /// Append a later pass's removals.
    pub(crate) fn append(&mut self, later: Removal) {
        self.atoms.extend(later.atoms);
        self.atom_positions.extend(later.atom_positions);
        self.rules.extend(later.rules);
        self.rule_indices.extend(later.rule_indices);
    }
}

/// Fig. 1 — minimize a single rule under uniform equivalence.
///
/// Atoms are considered left-to-right, each exactly once. Returns the
/// minimized rule and the deleted atoms.
pub fn minimize_rule(rule: &Rule) -> Result<(Rule, Vec<Atom>), ContainmentError> {
    let program = Program::new(vec![rule.clone()]);
    let (minimized, removal) = minimize_program(&program)?;
    debug_assert_eq!(minimized.len(), 1, "single-rule program stays single-rule");
    let atoms = removal.atoms.into_iter().map(|(_, a)| a).collect();
    Ok((minimized.rules.into_iter().next().expect("one rule"), atoms))
}

/// Fig. 2 — minimize a program under uniform equivalence, deterministic
/// source order (rules top-to-bottom, atoms left-to-right).
///
/// ```
/// use datalog_ast::parse_program;
/// use datalog_optimizer::minimize_program;
///
/// // A duplicated atom and a subsumed rule both disappear.
/// let p = parse_program(
///     "g(X, Z) :- a(X, Z), a(X, Z).
///      g(X, Z) :- g(X, Y), g(Y, Z).
///      g(X, Z) :- a(X, Y), a(Y, Z).",
/// ).unwrap();
/// let (minimized, removal) = minimize_program(&p).unwrap();
/// assert_eq!(minimized.len(), 2);
/// assert_eq!(removal.atoms.len(), 1);
/// assert_eq!(removal.rules.len(), 1);
/// ```
pub fn minimize_program(program: &Program) -> Result<(Program, Removal), ContainmentError> {
    let (rule_order, atom_orders) = source_order(program);
    minimize_program_in_order(program, &rule_order, &atom_orders)
}

/// Fig. 2 with an explicit consideration order.
///
/// `rule_order` is the order in which rules are considered for deletion in
/// the second phase; `atom_orders[i]` is the order in which the atoms of
/// rule `i` are considered in the first phase (indices into the *original*
/// body). Both must be permutations; the paper notes the result may differ
/// between orders, but every result is uniformly equivalent to the input
/// and locally minimal.
pub fn minimize_program_in_order(
    program: &Program,
    rule_order: &[usize],
    atom_orders: &[Vec<usize>],
) -> Result<(Program, Removal), ContainmentError> {
    let (minimized, removal, _) = fig2::<()>(program, rule_order, atom_orders)?;
    Ok((minimized, removal))
}

/// [`minimize_program`] with the evidence: a witness of `r̂ ⊑u P` for each
/// removal, against the program as it stood at that step, whose
/// `canonical_db` is the shrunken rule's frozen body — atoms first, in
/// [`Removal::atoms`] order, then rules, in [`Removal::rules`] order. A
/// tested removal's witness is its test's; a decided one's is the held
/// derivation it was decided by.
pub fn minimize_program_with_evidence(
    program: &Program,
) -> Result<(Program, Removal, Vec<Witness>), ContainmentError> {
    let (rule_order, atom_orders) = source_order(program);
    fig2(program, &rule_order, &atom_orders)
}

/// Rules top-to-bottom, each rule's atoms left-to-right.
fn source_order(program: &Program) -> (Vec<usize>, Vec<Vec<usize>>) {
    let atom_orders = program
        .rules
        .iter()
        .map(|r| (0..r.width()).collect())
        .collect();
    ((0..program.len()).collect(), atom_orders)
}

/// What a Fig. 2 run keeps of each removal: nothing, for
/// [`minimize_program_in_order`], or its witness, for
/// [`minimize_program_with_evidence`].
trait Evidence: Sized {
    /// An atom removal's evidence; `witness` is made only if it is kept.
    fn atom(witness: impl FnOnce() -> Witness) -> Self;
    /// Fig. 2's rule test, `r ⊑u P − {rule rule_idx}`; `Some` accepts.
    fn rule(c: &Containment, r: &Rule, rule_idx: usize) -> Option<Self>;
}

impl Evidence for () {
    fn atom(_: impl FnOnce() -> Witness) {}

    fn rule(c: &Containment, r: &Rule, rule_idx: usize) -> Option<()> {
        c.holds_without(r, rule_idx).then_some(())
    }
}

impl Evidence for Witness {
    fn atom(witness: impl FnOnce() -> Witness) -> Witness {
        witness()
    }

    fn rule(c: &Containment, r: &Rule, rule_idx: usize) -> Option<Witness> {
        c.evidence_without(r, rule_idx).ok()
    }
}

/// The one Fig. 2 loop, keeping `W` of each removal, in removal order.
///
/// Phase 1 holds, per rule, the derivation of the frozen head `hθ` found by
/// the last test that accepted a removal from it, edited along with the
/// rule since ([`Proof::drop_premise`]): a derivation under `P` as it
/// stands from input atoms `S` of the rule's frozen body. Every accepted
/// edit keeps `P(d)` on every `d` (§IV) and `P(·)` is monotone, so a later
/// candidate whose frozen body still holds `S` derives `hθ` too (Corollary
/// 2): a candidate whose removed atom is no leaf of the held derivation is
/// removed without a test, and its rule recompiled only before the next
/// test that runs. The removals are those of a run that tests every
/// candidate.
fn fig2<W: Evidence>(
    program: &Program,
    rule_order: &[usize],
    atom_orders: &[Vec<usize>],
) -> Result<(Program, Removal, Vec<W>), ContainmentError> {
    if let Err(e) = validate_positive(program) {
        return Err(ContainmentError::Invalid(e));
    }
    assert_eq!(
        rule_order.len(),
        program.len(),
        "rule_order must be a permutation"
    );
    assert_eq!(atom_orders.len(), program.len(), "one atom order per rule");

    let mut current = program.clone();
    // `current`, compiled; edited in step with it, a decided removal late.
    let mut containment = Containment::new(&current);
    let mut removal = Removal::default();
    let mut evidence = Vec::new();

    // Phase 1 (Fig. 2, first repeat-loop): remove redundant atoms from each
    // rule, testing the shrunken rule against the WHOLE current program —
    // "an atom in some rule r of P may not be redundant if r alone is
    // considered, but may be redundant if all the rules of P are
    // considered" (§VII).
    for (rule_idx, atom_order) in atom_orders.iter().enumerate() {
        // Deletions shift positions; track the original indices that remain.
        let mut remaining: Vec<usize> = (0..program.rules[rule_idx].width()).collect();
        let mut held: Option<Proof> = None;
        // Whether `containment` still holds an older body of this rule.
        let mut stale = false;
        for &orig_atom_idx in atom_order {
            let Some(pos) = remaining.iter().position(|&o| o == orig_atom_idx) else {
                continue; // already deleted (cannot happen with valid orders)
            };
            let candidate = current.rules[rule_idx].without_body_atom(pos);
            // A candidate that strands a head variable freezes it to a
            // constant no frozen body holds (`freeze_rule`'s precondition is
            // range restriction): its test could only answer no.
            if !candidate.is_range_restricted() {
                continue;
            }
            let atom = &current.rules[rule_idx].body[pos].atom;
            let decided = held
                .as_ref()
                .filter(|proof| !proof.rests_on(&freeze_atom(atom)));
            let w = if let Some(proof) = decided {
                count_decided();
                W::atom(|| Witness {
                    canonical_db: freeze_rule(&candidate).body_db,
                    goal: proof.conclusion.clone(),
                    proof: proof.clone(),
                })
            } else {
                if stale {
                    containment.replace(rule_idx, &current.rules[rule_idx]);
                    stale = false;
                }
                let Ok(Witness {
                    canonical_db,
                    goal,
                    proof,
                }) = containment.evidence(&candidate)
                else {
                    continue;
                };
                let w = W::atom(|| Witness {
                    canonical_db,
                    goal,
                    proof: proof.clone(),
                });
                held = Some(proof);
                w
            };
            if let Some(proof) = &mut held {
                proof.drop_premise(rule_idx, pos);
            }
            removal.atoms.push((rule_idx, atom.clone()));
            removal.atom_positions.push(orig_atom_idx);
            evidence.push(w);
            current.rules[rule_idx] = candidate;
            stale = true;
            remaining.remove(pos);
        }
        if stale {
            containment.replace(rule_idx, &current.rules[rule_idx]);
        }
    }

    // Phase 2 (Fig. 2, second repeat-loop): remove redundant rules. Each
    // rule is considered once, in the given order; indices are into the
    // *original* program, tracked across deletions.
    let mut live: Vec<usize> = (0..current.len()).collect();
    for &orig_rule_idx in rule_order {
        let Some(pos) = live.iter().position(|&o| o == orig_rule_idx) else {
            continue;
        };
        if let Some(w) = W::rule(&containment, &current.rules[pos], pos) {
            removal.rules.push(current.rules.remove(pos));
            removal.rule_indices.push(orig_rule_idx);
            evidence.push(w);
            containment.remove(pos);
            live.remove(pos);
        }
    }

    Ok((current, removal, evidence))
}

/// Check local minimality: no single atom deletion and no single rule
/// deletion preserves uniform equivalence. This is the postcondition of
/// Fig. 2 (Theorem 2); exposed for tests and benchmarks.
pub fn is_minimal(program: &Program) -> Result<bool, ContainmentError> {
    if let Err(e) = validate_positive(program) {
        return Err(ContainmentError::Invalid(e));
    }
    let containment = Containment::new(program);
    for (i, rule) in program.rules.iter().enumerate() {
        for a in 0..rule.width() {
            if containment.holds(&rule.without_body_atom(a)) {
                return Ok(false);
            }
        }
        if containment.holds_without(rule, i) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Convenience: minimize and assert the postconditions in debug builds.
/// Returns only the program.
pub fn minimized(program: &Program) -> Result<Program, ContainmentError> {
    let (out, _) = minimize_program(program)?;
    debug_assert!(uniformly_contains(&out, program)? && uniformly_contains(program, &out)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{tally, uniformly_equivalent};
    use datalog_ast::{parse_program, parse_rule};

    #[test]
    fn example8_fig1_removes_a_w_y() {
        // §VII Example 8: Fig. 1 run on P1 of Example 7 removes A(w,y),
        // terminating with the rule of P2, which has no redundant atom.
        let r =
            parse_rule("g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
        let (min, deleted) = minimize_rule(&r).unwrap();
        assert_eq!(
            min.to_string(),
            "g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y)."
        );
        assert_eq!(deleted.len(), 1);
        assert_eq!(deleted[0].to_string(), "a(W, Y)");
        // The result is minimal.
        let p = Program::new(vec![min]);
        assert!(is_minimal(&p).unwrap());
    }

    #[test]
    fn tc_program_is_already_minimal() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let (min, removal) = minimize_program(&p).unwrap();
        assert_eq!(min, p);
        assert!(removal.is_empty());
        assert!(is_minimal(&p).unwrap());
    }

    #[test]
    fn duplicate_rule_is_removed() {
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, Z) :- a(X, Z).
             g(X, Z) :- g(X, Y), g(Y, Z).",
        )
        .unwrap();
        let (min, removal) = minimize_program(&p).unwrap();
        assert_eq!(min.len(), 2);
        assert_eq!(removal.rules.len(), 1);
        assert!(uniformly_equivalent(&min, &p).unwrap());
    }

    #[test]
    fn instance_rule_is_removed() {
        // The specialized rule g(X,X) :- a(X,X) is uniformly contained in
        // the general rule.
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, X) :- a(X, X).",
        )
        .unwrap();
        let (min, removal) = minimize_program(&p).unwrap();
        assert_eq!(min.len(), 1);
        assert_eq!(removal.rules[0].to_string(), "g(X, X) :- a(X, X).");
    }

    #[test]
    fn rule_made_redundant_by_recursion() {
        // The two-step rule is subsumed by composing the one-step rule with
        // the doubling rule.
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, Z) :- g(X, Y), g(Y, Z).
             g(X, Z) :- a(X, Y), a(Y, Z).",
        )
        .unwrap();
        let (min, removal) = minimize_program(&p).unwrap();
        assert_eq!(min.len(), 2);
        assert_eq!(removal.rules.len(), 1);
        assert!(removal.rules[0].to_string().contains("a(X, Y), a(Y, Z)"));
    }

    #[test]
    fn atom_redundant_only_in_program_context() {
        // §VII: "An atom in some rule r of P may not be redundant if r alone
        // is considered, but may be redundant if all the rules of P are
        // considered." Here b(Y) in the second rule is implied via the
        // first rule's production of g from a, making the duplicate-shaped
        // rule body collapsible only in context.
        let p = parse_program(
            "b(X) :- a(X, Y).
             g(X) :- a(X, Y), b(X).",
        )
        .unwrap();
        // Rule 2 alone: g(X) :- a(X,Y), b(X) — deleting b(X) gives a rule
        // that does NOT uniformly contain the original in isolation? It
        // does: smaller body ⊇ derivations. Deleting b(X) is sound iff
        // g(X) :- a(X,Y) ⊑u P, which holds because b(X) follows from
        // a(X,Y) by rule 1... wait, direction: candidate ⊑u P means the
        // candidate derives nothing P doesn't. P must derive g(x0) from
        // {a(x0,y0)}: rule 1 gives b(x0), then rule 2 gives g(x0). Yes.
        let (min, removal) = minimize_program(&p).unwrap();
        assert_eq!(removal.atoms.len(), 1);
        assert_eq!(removal.atoms[0].1.to_string(), "b(X)");
        assert!(uniformly_equivalent(&min, &p).unwrap());

        // In isolation the atom is NOT redundant.
        let solo = parse_rule("g(X) :- a(X, Y), b(X).").unwrap();
        let (min_solo, _) = minimize_rule(&solo).unwrap();
        assert_eq!(min_solo.width(), 2);
    }

    #[test]
    fn result_is_uniformly_equivalent_and_minimal() {
        let p = parse_program(
            "g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).
             g(X, Y, Z) :- b(X, Y, Z).
             g(X, Y, Z) :- b(X, Y, Z), a(Y, Y).",
        )
        .unwrap();
        let (min, _) = minimize_program(&p).unwrap();
        assert!(uniformly_equivalent(&min, &p).unwrap());
        assert!(is_minimal(&min).unwrap());
        // The guarded copy of the b-rule is an instance of the unguarded one.
        assert_eq!(min.len(), 2);
    }

    #[test]
    fn different_orders_can_give_different_but_equivalent_results() {
        // Two mutually-containing rules: exactly one survives, which one
        // depends on consideration order (§VII: result not unique).
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, Z) :- a(X, Z), a(X, W).",
        )
        .unwrap();
        // Default order: second rule's extra atom removed first, then the
        // duplicate rule removed.
        let (min_default, _) = minimize_program(&p).unwrap();
        assert_eq!(min_default.len(), 1);

        let (min_rev, _) = minimize_program_in_order(&p, &[1, 0], &[vec![0], vec![1, 0]]).unwrap();
        assert_eq!(min_rev.len(), 1);
        assert!(uniformly_equivalent(&min_default, &min_rev).unwrap());
        assert!(uniformly_equivalent(&min_default, &p).unwrap());
    }

    /// `wide_rule`'s shape: Example 7's recursive rule, its `a(W, Y)` moved
    /// to the end and grown into a chain of `width - 4` atoms off `W`.
    fn wide(width: usize) -> Rule {
        let chain: String = (0..width - 4)
            .map(|i| {
                format!(
                    ", a({}, V{i})",
                    if i == 0 {
                        "W".into()
                    } else {
                        format!("V{}", i - 1)
                    }
                )
            })
            .collect();
        parse_rule(&format!(
            "g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y){chain}."
        ))
        .unwrap()
    }

    #[test]
    fn a_held_witness_decides_the_atoms_outside_its_support() {
        // The first chain atom's test derives the frozen head from the
        // first four atoms alone (every `V` to `z0`); the rest of the chain
        // is decided from that witness. `a(W, Z)` and `a(Z, Z)` are tested
        // and kept; dropping `g(X, W, Z)` or `a(Z, Y)` strands a head
        // variable.
        let p = Program::new(vec![wide(16)]);
        let before = tally();
        let (min, removal) = minimize_program(&p).unwrap();
        let (tests, decided) = (
            tally().tests - before.tests,
            tally().decided - before.decided,
        );
        assert_eq!(
            min.to_string().trim(),
            "g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y)."
        );
        assert_eq!(
            (tests, decided),
            (3 + 1, 11),
            "three atom tests, one rule test"
        );
        // The same removals as a run that tests every candidate.
        let containment = Containment::new(&p);
        let mut rule = p.rules[0].clone();
        let mut tested = Vec::new();
        let mut pos = 0;
        while pos < rule.width() {
            let candidate = rule.without_body_atom(pos);
            if candidate.is_range_restricted() && containment.holds(&candidate) {
                tested.push((0, rule.body[pos].atom.clone()));
                rule = candidate;
            } else {
                pos += 1;
            }
        }
        assert_eq!(removal.atoms, tested);
    }

    #[test]
    fn a_decided_removal_carries_a_witness_that_checks() {
        // Each witness checks against the one-rule program as it stood at
        // its step and rests on the shrunken rule's frozen body.
        let p = Program::new(vec![wide(12)]);
        let (_, removal, witnesses) = minimize_program_with_evidence(&p).unwrap();
        assert_eq!(witnesses.len(), 8);
        let mut rule = p.rules[0].clone();
        for ((_, atom), w) in removal.atoms.iter().zip(&witnesses) {
            let pos = rule.body.iter().position(|l| l.atom == *atom).unwrap();
            let candidate = rule.without_body_atom(pos);
            let frozen = freeze_rule(&candidate);
            assert_eq!((&w.canonical_db, &w.goal), (&frozen.body_db, &frozen.goal));
            let at_step = Program::new(vec![rule.clone()]);
            assert_eq!(w.proof.check(&at_step, &w.canonical_db), Ok(()), "{atom}");
            rule = candidate;
        }
    }

    #[test]
    fn repeated_atom_is_deduplicated() {
        let r = parse_rule("g(X) :- a(X), a(X).").unwrap();
        let (min, deleted) = minimize_rule(&r).unwrap();
        assert_eq!(min.width(), 1);
        assert_eq!(deleted.len(), 1);
    }

    #[test]
    fn fact_only_program() {
        let p = parse_program("a(1, 2). a(1, 2).").unwrap();
        let (min, removal) = minimize_program(&p).unwrap();
        assert_eq!(min.len(), 1);
        assert_eq!(removal.rules.len(), 1);
    }

    #[test]
    fn empty_program() {
        let (min, removal) = minimize_program(&Program::empty()).unwrap();
        assert!(min.is_empty());
        assert!(removal.is_empty());
    }

    #[test]
    fn negation_rejected() {
        let p = parse_program("p(X) :- q(X), !r(X).").unwrap();
        assert!(minimize_program(&p).is_err());
    }

    #[test]
    fn minimized_convenience() {
        let p = parse_program("g(X) :- a(X), a(X).").unwrap();
        let m = minimized(&p).unwrap();
        assert_eq!(m.rules[0].width(), 1);
    }
}
