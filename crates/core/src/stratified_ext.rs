//! Minimization for stratified programs — the §XII extension.
//!
//! The paper closes: "The results on uniform containment and minimization
//! can be extended to Datalog programs with stratified negation, and in a
//! forthcoming paper, we will describe how it is done." The follow-up
//! treatment (Sagiv 1988, *Optimizing Datalog programs*, in Minker's
//! *Foundations of Deductive Databases and Logic Programming*) works per
//! stratum; we implement the same idea in a deliberately *conservative*
//! form:
//!
//! 1. Stratify the program (`datalog-engine`'s machinery).
//! 2. Within each stratum, replace every negated literal `!r(t̄)` with a
//!    positive literal over a reserved complement predicate `not$r(t̄)`.
//!    The transformed stratum is positive Datalog, so the decidable §VI/§VII
//!    machinery applies verbatim.
//! 3. Minimize the transformed stratum with Fig. 2 and map the complement
//!    predicates back.
//!
//! **Soundness.** Uniform equivalence of the positivized stratum quantifies
//! over *all* assignments to `not$r` — in particular over the one the
//! stratified semantics actually supplies (the complement of the
//! lower-stratum relation `r`). Hence any deletion certified on the
//! positivized stratum is valid for the stratified program. The converse
//! fails (an atom can be redundant only because `not$r` and `r` are
//! actually complementary), so this is conservative — exactly the trade-off
//! the paper's locality argument (§I) prescribes for stratum-local
//! optimization.

use crate::containment::ContainmentError;
use crate::minimize::{minimize_program, Removal};
use datalog_ast::{Atom, Literal, Pred, Program, Rule};
use datalog_engine::EvalError;

/// Errors from stratified minimization.
#[derive(Debug)]
pub enum StratifiedError {
    /// No stratification exists (a recursive cycle through negation).
    NotStratifiable,
    /// A positivized stratum failed validation (should not happen for
    /// programs accepted by `validate`).
    Containment(ContainmentError),
}

impl std::fmt::Display for StratifiedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StratifiedError::NotStratifiable => write!(f, "{}", EvalError::NotStratifiable),
            StratifiedError::Containment(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StratifiedError {}

impl From<ContainmentError> for StratifiedError {
    fn from(e: ContainmentError) -> Self {
        StratifiedError::Containment(e)
    }
}

/// The reserved complement predicate for `p`. The `$` cannot appear in
/// parsed predicate names, so no source program can collide with it.
fn complement_pred(p: Pred) -> Pred {
    Pred::new(&format!("not${}", p.name()))
}

/// Recover the original predicate from a complement predicate, if it is one.
fn uncomplement_pred(p: Pred) -> Option<Pred> {
    p.name().strip_prefix("not$").map(Pred::new)
}

/// Positivize a rule: negated literals become positive literals over the
/// complement predicate.
fn positivize(rule: &Rule) -> Rule {
    Rule {
        head: rule.head.clone(),
        spans: rule.spans.clone(),
        body: rule
            .body
            .iter()
            .map(|l| {
                if l.negated {
                    Literal::pos(Atom {
                        pred: complement_pred(l.atom.pred),
                        terms: l.atom.terms.clone(),
                    })
                } else {
                    l.clone()
                }
            })
            .collect(),
    }
}

/// Invert [`positivize`].
fn unpositivize(rule: &Rule) -> Rule {
    Rule {
        head: rule.head.clone(),
        spans: rule.spans.clone(),
        body: rule
            .body
            .iter()
            .map(|l| match uncomplement_pred(l.atom.pred) {
                Some(orig) => Literal::neg(Atom {
                    pred: orig,
                    terms: l.atom.terms.clone(),
                }),
                None => l.clone(),
            })
            .collect(),
    }
}

/// Minimize a stratified program, stratum by stratum (see module docs for
/// the soundness argument and the conservativeness caveat). For positive
/// programs this coincides with [`minimize_program`] run per stratum.
///
/// Passes repeat until a fixpoint: removing a rule can merge strata (e.g.
/// the last negated use of a predicate disappears), exposing redundancy the
/// finer stratification hid; each pass only shrinks the program, so the
/// loop terminates.
pub fn minimize_stratified(program: &Program) -> Result<(Program, Removal), StratifiedError> {
    let mut current = program.clone();
    let mut removal = Removal::default();
    loop {
        let (next, r) = minimize_stratified_once(&current)?;
        let done = r.is_empty();
        removal.append(r);
        current = next;
        if done {
            return Ok((current, removal));
        }
    }
}

/// One stratum-by-stratum minimization pass.
fn minimize_stratified_once(program: &Program) -> Result<(Program, Removal), StratifiedError> {
    // Partition rule *indices* by stratum so the output can preserve the
    // input's rule order (a rule deletion can lower a predicate's stratum,
    // so emitting in stratum order would not be idempotent).
    let graph = datalog_ast::DepGraph::new(program);
    let assignment = graph.stratify().ok_or(StratifiedError::NotStratifiable)?;
    let max = assignment.values().copied().max().unwrap_or(0);
    let mut layer_indices: Vec<Vec<usize>> = vec![Vec::new(); max + 1];
    for (idx, rule) in program.rules.iter().enumerate() {
        layer_indices[assignment[&rule.head.pred]].push(idx);
    }

    let mut survivors: Vec<(usize, datalog_ast::Rule)> = Vec::new();
    let mut removal = Removal::default();
    for indices in &layer_indices {
        if indices.is_empty() {
            continue;
        }
        let positivized = Program::new(
            indices
                .iter()
                .map(|&i| positivize(&program.rules[i]))
                .collect(),
        );
        let (min, layer_removal) = minimize_program(&positivized)?;
        for (local_idx, atom) in layer_removal.atoms {
            let mapped = match uncomplement_pred(atom.pred) {
                Some(orig) => Atom {
                    pred: orig,
                    terms: atom.terms.clone(),
                },
                None => atom,
            };
            removal.atoms.push((indices[local_idx], mapped));
        }
        removal.atom_positions.extend(layer_removal.atom_positions);
        let removed_local: std::collections::BTreeSet<usize> =
            layer_removal.rule_indices.iter().copied().collect();
        for (rule, &local_idx) in layer_removal
            .rules
            .iter()
            .zip(layer_removal.rule_indices.iter())
        {
            removal.rules.push(unpositivize(rule));
            removal.rule_indices.push(indices[local_idx]);
        }
        // Survivors, paired with their original global indices.
        let kept_locals: Vec<usize> = (0..indices.len())
            .filter(|i| !removed_local.contains(i))
            .collect();
        debug_assert_eq!(kept_locals.len(), min.len());
        for (rule, &local_idx) in min.rules.iter().zip(kept_locals.iter()) {
            survivors.push((indices[local_idx], unpositivize(rule)));
        }
    }
    survivors.sort_by_key(|&(idx, _)| idx);
    let out = Program::new(survivors.into_iter().map(|(_, r)| r).collect());
    Ok((out, removal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};
    use datalog_engine::evaluate;

    #[test]
    fn positive_program_minimizes_as_usual() {
        let p = parse_program(
            "g(X, Z) :- a(X, Z).
             g(X, Z) :- a(X, Z), a(X, Z).
             g(X, Z) :- g(X, Y), g(Y, Z).",
        )
        .unwrap();
        let (min, removal) = minimize_stratified(&p).unwrap();
        // Duplicate atom removed, then the duplicate rule.
        assert_eq!(min.len(), 2);
        assert!(!removal.is_empty());
    }

    #[test]
    fn redundant_atom_in_negated_rule_is_removed() {
        // node(X) is duplicated in the negation stratum.
        let p = parse_program(
            "reach(X) :- src(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreach(X) :- node(X), node(X), !reach(X).",
        )
        .unwrap();
        let (min, removal) = minimize_stratified(&p).unwrap();
        assert_eq!(removal.atoms.len(), 1);
        let unreach_rule = min
            .rules
            .iter()
            .find(|r| r.head.pred == Pred::new("unreach"))
            .unwrap();
        assert_eq!(unreach_rule.width(), 2);
        assert_eq!(
            unreach_rule.to_string(),
            "unreach(X) :- node(X), !reach(X)."
        );
    }

    #[test]
    fn duplicate_negated_literal_is_removed() {
        let p = parse_program(
            "p(X) :- base(X).
             q(X) :- dom(X), !p(X), !p(X).",
        )
        .unwrap();
        let (min, removal) = minimize_stratified(&p).unwrap();
        assert_eq!(removal.atoms.len(), 1);
        let q_rule = min
            .rules
            .iter()
            .find(|r| r.head.pred == Pred::new("q"))
            .unwrap();
        assert_eq!(q_rule.to_string(), "q(X) :- dom(X), !p(X).");
    }

    #[test]
    fn semantics_preserved_on_concrete_inputs() {
        let p = parse_program(
            "reach(X) :- src(X).
             reach(Y) :- reach(X), edge(X, Y).
             reach(Y) :- reach(X), edge(X, Y), edge(X, W).
             unreach(X) :- node(X), node(X), !reach(X).",
        )
        .unwrap();
        let (min, _) = minimize_stratified(&p).unwrap();
        assert!(min.total_width() < p.total_width());
        let edb = parse_database("src(1). node(1). node(2). node(3). edge(1, 2).").unwrap();
        assert_eq!(
            evaluate(&p, &edb).unwrap().0,
            evaluate(&min, &edb).unwrap().0
        );
    }

    #[test]
    fn negated_atoms_are_not_conflated_with_positive_ones() {
        // !r(X) and r(X) must never cancel: the rule is NOT redundant.
        let p = parse_program(
            "r(X) :- b(X).
             s(X) :- dom(X), !r(X).
             t(X) :- dom(X), r(X).",
        )
        .unwrap();
        let (min, removal) = minimize_stratified(&p).unwrap();
        assert!(removal.is_empty(), "{removal:?}");
        assert_eq!(min.len(), 3);
    }

    #[test]
    fn unstratifiable_is_an_error() {
        let p = parse_program("p(X) :- n(X), !q(X). q(X) :- n(X), !p(X).").unwrap();
        assert!(matches!(
            minimize_stratified(&p),
            Err(StratifiedError::NotStratifiable)
        ));
    }

    #[test]
    fn conservativeness_example() {
        // dom(X), !r(X) plus r(X) in the body is unsatisfiable; a complete
        // procedure could delete the whole rule. The conservative encoding
        // keeps it (r and not$r are independent predicates) — we assert the
        // *documented* behaviour.
        let p = parse_program(
            "r(X) :- b(X).
             s(X) :- dom(X), r(X), !r(X).",
        )
        .unwrap();
        let (min, _) = minimize_stratified(&p).unwrap();
        assert_eq!(min.len(), 2);
    }
}
