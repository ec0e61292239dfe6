//! Conjunctive-query containment — the non-recursive background of §V.
//!
//! §V recalls that optimizing non-recursive programs was solved before the
//! paper: single rules by Chandra–Merlin (1977) homomorphism and
//! Aho–Sagiv–Ullman (1979) tableaux, programs with many rules (unions) by
//! Sagiv–Yannakakis (1980). §X uses the same machinery for condition (3):
//! "equivalence of non-recursive programs is the same as uniform
//! equivalence".
//!
//! A single positive rule is a conjunctive query; `q1 ⊑ q2` iff there is a
//! homomorphism from `q2` to `q1` mapping head to head. [`homomorphism`]
//! applies `q2` **once** to `q1`'s frozen body: the §VI test against `{q2}`
//! would apply it to its own output too, which decides uniform containment
//! — a different question whenever `q2` is recursive (a path of two edges
//! is not a homomorphic image of a path of three, yet the doubling rule
//! derives the longer path's endpoints).

use crate::chase::FreshPreds;
use crate::freeze::freeze_rule;
use crate::minimize::minimize_rule;
use datalog_ast::{match_atom_into, Atom, Program, Rule, Subst, Term, Var};
use datalog_engine::evaluate;

/// Chandra–Merlin: is `q1 ⊑ q2` as conjunctive queries? Both rules must be
/// positive and have unifiable heads (same predicate and arity).
pub fn cq_contained(q1: &Rule, q2: &Rule) -> bool {
    homomorphism(q1, q2).is_some()
}

/// Find an explicit homomorphism witnessing `q1 ⊑ q2`: a substitution h
/// with `h(head(q2)) = head(q1)` and `h(body(q2)) ⊆ body(q1)` (viewing
/// `q1`'s frozen body as a database). Returns `None` when not contained.
///
/// The head of `q2` is matched to `q1`'s frozen head first; the rest is one
/// evaluation of `hom(v̄) :- body(q2)` over the frozen body, where v̄ is
/// every variable the head left free. Each `hom` row is a homomorphism,
/// and the first one is returned.
pub fn homomorphism(q1: &Rule, q2: &Rule) -> Option<Subst> {
    let frozen = freeze_rule(q1);
    // h must map q2's head onto q1's frozen head.
    let mut h = Subst::new();
    if !match_atom_into(&q2.head, &frozen.goal, &mut h) {
        return None;
    }
    let body: Vec<Atom> = q2.positive_body().map(|a| h.apply_atom(a)).collect();
    let mut free: Vec<Var> = Vec::new();
    for v in body.iter().flat_map(Atom::vars) {
        if !free.contains(&v) {
            free.push(v);
        }
    }
    let hom =
        FreshPreds::new(&Program::new(vec![q2.clone()]), &[], &frozen.body_db).pred("hom$".into());
    let head = Atom::new(hom, free.iter().map(|&v| Term::Var(v)).collect());
    let rules = Program::new(vec![Rule::positive(head, body)]);
    let (images, _) = evaluate(&rules, &frozen.body_db).expect("the hom rule binds every variable");
    let row = images.relation_of(hom, free.len())?.rows().next()?;
    for (&v, &c) in free.iter().zip(row) {
        h.bind(v, Term::Const(c));
    }
    Some(h)
}

/// Sagiv–Yannakakis union containment: for unions of conjunctive queries
/// (non-recursive, same head predicate), `U1 ⊑ U2` iff each CQ of `U1` is
/// contained in *some* CQ of `U2`.
pub fn union_contained(u1: &[Rule], u2: &[Rule]) -> bool {
    u1.iter().all(|q1| u2.iter().any(|q2| cq_contained(q1, q2)))
}

/// Minimize a conjunctive query: remove redundant body atoms. For a single
/// non-recursive rule this is the Chandra–Merlin core computation; it is
/// Fig. 1 with the containment test specialised, so we reuse Fig. 1.
pub fn minimize_cq(q: &Rule) -> Rule {
    minimize_rule(q).expect("valid positive rule").0
}

/// Equivalence of *non-recursive* programs. §X: "Equivalence of
/// non-recursive programs is the same as uniform equivalence and, thus,
/// there is an algorithm" — so this simply delegates to the uniform test,
/// after asserting non-recursion (the identification fails for recursive
/// programs, Example 4).
pub fn equivalent_nonrecursive(p1: &Program, p2: &Program) -> Option<bool> {
    let g1 = datalog_ast::DepGraph::new(p1);
    let g2 = datalog_ast::DepGraph::new(p2);
    if g1.is_recursive() || g2.is_recursive() {
        return None;
    }
    crate::containment::uniformly_equivalent(p1, p2).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_program, parse_rule, Term, Var};

    #[test]
    fn classic_containment_by_homomorphism() {
        // q2: path of length 1 pattern g(X,Y) :- a(X,Y) vs
        // q1: g(X,Y) :- a(X,Y), a(Y,Y): q1 ⊑ q2 (extra condition).
        let q1 = parse_rule("g(X, Y) :- a(X, Y), a(Y, Y).").unwrap();
        let q2 = parse_rule("g(X, Y) :- a(X, Y).").unwrap();
        assert!(cq_contained(&q1, &q2));
        assert!(!cq_contained(&q2, &q1));
        let h = homomorphism(&q1, &q2).unwrap();
        // h maps q2's X,Y to q1's frozen X,Y.
        assert_eq!(
            h.get(Var::new("X")),
            Some(Term::Const(datalog_ast::Const::Frozen(Var::new("X"))))
        );
    }

    #[test]
    fn folding_homomorphism() {
        // q2 has a longer pattern that folds onto q1's triangle.
        let q1 = parse_rule("t(X) :- e(X, X).").unwrap();
        let q2 = parse_rule("t(X) :- e(X, Y), e(Y, X).").unwrap();
        // q1 ⊑ q2: map Y ↦ X.
        assert!(cq_contained(&q1, &q2));
        assert!(homomorphism(&q1, &q2).is_some());
        // q2 ⋢ q1: a 2-cycle without self-loop satisfies q2 not q1.
        assert!(!cq_contained(&q2, &q1));
        assert!(homomorphism(&q2, &q1).is_none());
    }

    #[test]
    fn head_constants_must_match() {
        let q1 = parse_rule("g(1) :- a(X).").unwrap();
        let q2 = parse_rule("g(2) :- a(X).").unwrap();
        assert!(!cq_contained(&q1, &q2));
        assert!(homomorphism(&q1, &q2).is_none());
    }

    #[test]
    fn minimize_cq_removes_folded_atoms() {
        // The chain a(X,Y),a(Y,Z) with the head only using X folds onto a
        // shorter core? No — distinct variables with no fold target stay.
        let q = parse_rule("g(X) :- a(X, Y), a(Y, Z).").unwrap();
        assert_eq!(minimize_cq(&q).width(), 2);

        // But a pattern with a self-loop folds: a(X,Y) maps into a(X,X).
        let q = parse_rule("g(X) :- a(X, X), a(X, Y).").unwrap();
        let m = minimize_cq(&q);
        assert_eq!(m.width(), 1);
        assert_eq!(m.to_string(), "g(X) :- a(X, X).");
    }

    #[test]
    fn union_containment() {
        let u1 = parse_program(
            "g(X) :- a(X, X).
             g(X) :- a(X, Y), b(Y).",
        )
        .unwrap();
        let u2 = parse_program(
            "g(X) :- a(X, Y).
             g(X) :- c(X).",
        )
        .unwrap();
        assert!(union_contained(&u1.rules, &u2.rules));
        assert!(!union_contained(&u2.rules, &u1.rules));
    }

    #[test]
    fn union_needs_per_cq_witness() {
        // Each disjunct of u1 is contained in a DIFFERENT disjunct of u2.
        let u1 = parse_program("g(X) :- a(X), c(X). g(X) :- b(X), c(X).").unwrap();
        let u2 = parse_program("g(X) :- a(X). g(X) :- b(X).").unwrap();
        assert!(union_contained(&u1.rules, &u2.rules));
    }

    #[test]
    fn nonrecursive_equivalence() {
        let p1 = parse_program("g(X) :- a(X, Y). g(X) :- a(X, X).").unwrap();
        let p2 = parse_program("g(X) :- a(X, Y).").unwrap();
        assert_eq!(equivalent_nonrecursive(&p1, &p2), Some(true));

        let p3 = parse_program("g(X) :- a(X, X).").unwrap();
        assert_eq!(equivalent_nonrecursive(&p1, &p3), Some(false));
    }

    #[test]
    fn cq_minimization_is_unique_up_to_equivalence() {
        // §V: "a program consisting of non-recursive rules has a unique
        // equivalent program with … a minimal number of atoms" — for a
        // single CQ the core is unique up to isomorphism, so any two
        // minimization orders agree in width and are mutually contained.
        use crate::minimize::minimize_program_in_order;
        let q = parse_rule("g(X) :- a(X, X), a(X, Y), a(Y, Z), a(X, W).").unwrap();
        let p = datalog_ast::Program::new(vec![q]);
        let mut results = Vec::new();
        for order in [vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![2, 0, 3, 1]] {
            let (min, _) = minimize_program_in_order(&p, &[0], &[order]).unwrap();
            results.push(min.rules[0].clone());
        }
        for w in results.windows(2) {
            assert_eq!(w[0].width(), w[1].width(), "{} vs {}", w[0], w[1]);
            assert!(cq_contained(&w[0], &w[1]));
            assert!(cq_contained(&w[1], &w[0]));
        }
        // The core here: everything folds onto a(X, X).
        assert_eq!(results[0].width(), 1);
    }

    #[test]
    fn a_recursive_containing_rule_is_applied_once() {
        // q2 doubles paths, so the §VI fixpoint of {q2} derives q1's head
        // from q1's three-edge path; as conjunctive queries q1 ⋢ q2, since
        // no homomorphism maps a two-edge path onto the three-edge one with
        // the endpoints fixed.
        let q1 = parse_rule("g(X, Z) :- g(X, Y), g(Y, W), g(W, Z).").unwrap();
        let q2 = parse_rule("g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        assert!(crate::containment::rule_contained(
            &q1,
            &Program::new(vec![q2.clone()])
        ));
        assert!(homomorphism(&q1, &q2).is_none());
        assert!(!cq_contained(&q1, &q2));
        assert!(!union_contained(
            std::slice::from_ref(&q1),
            std::slice::from_ref(&q2)
        ));
    }

    #[test]
    fn an_empty_body_maps_once_the_head_does() {
        let q1 = parse_rule("g(1) :- a(X).").unwrap();
        let q2 = datalog_ast::Rule::positive(datalog_ast::atom("g", [Term::int(1)]), []);
        assert_eq!(homomorphism(&q1, &q2), Some(Subst::new()));
    }

    #[test]
    fn recursive_programs_are_out_of_scope() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        assert_eq!(equivalent_nonrecursive(&p, &p), None);
    }
}
