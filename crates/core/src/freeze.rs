//! Freezing rules into canonical databases (§VI).
//!
//! To test `r ⊑u P` the paper considers "the atoms of b as an input DB for
//! P": each variable of `r` is mapped by a one-to-one substitution θ to "a
//! distinct constant that is not already in r". We realise θ with the
//! dedicated constant kind [`Const::Frozen`], whose payload is the variable
//! itself — one-to-one by construction, and disjoint from every source
//! constant by the type system rather than by a runtime freshness check.

use datalog_ast::{Atom, Const, Database, GroundAtom, Rule, Subst, Term, Var};

/// The freezing substitution θ for an iterator of variables.
pub fn freezing_subst(vars: impl IntoIterator<Item = Var>) -> Subst {
    let mut s = Subst::new();
    for v in vars {
        s.bind(v, Term::Const(Const::Frozen(v)));
    }
    s
}

/// A frozen rule: the canonical database `bθ` and the goal atom `hθ`.
#[derive(Clone, Debug)]
pub struct FrozenRule {
    /// The instantiated body — the canonical database.
    pub body_db: Database,
    /// The instantiated head — the atom whose derivation witnesses
    /// uniform containment (Corollary 2).
    pub goal: GroundAtom,
}

/// Freeze a rule (§VI). The rule must be positive and range-restricted —
/// both are guaranteed by `validate_positive`, which the public optimizer
/// entry points run first.
///
/// # Panics
/// Panics if the rule contains negated literals (freezing is only defined
/// for the paper's positive fragment).
pub fn freeze_rule(rule: &Rule) -> FrozenRule {
    assert!(rule.is_positive(), "freeze_rule requires a positive rule");
    let theta = freezing_subst(rule.vars());
    let body_db = Database::from_atoms(rule.positive_body().map(|a| {
        theta
            .ground_atom(a)
            .expect("freezing substitution binds every body variable")
    }));
    let goal = theta
        .ground_atom(&rule.head)
        .expect("freezing substitution binds every head variable");
    FrozenRule { body_db, goal }
}

/// One body atom as it stands in its rule's canonical database: θ is the
/// same [`Const::Frozen`] map for every rule, so the atom needs no rule.
pub(crate) fn freeze_atom(atom: &Atom) -> GroundAtom {
    freezing_subst(atom.vars())
        .ground_atom(atom)
        .expect("freezing substitution binds every variable of the atom")
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_rule, Pred};

    #[test]
    fn freeze_example6_rule() {
        // §VI Example 6, rule r2 of P2: G(x,z) :- A(x,y), G(y,z).
        // Instantiated body is {A(x0,y0), G(y0,z0)}, head G(x0,z0).
        let r = parse_rule("g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let frozen = freeze_rule(&r);
        assert_eq!(frozen.body_db.len(), 2);
        let x0 = Const::Frozen(Var::new("X"));
        let y0 = Const::Frozen(Var::new("Y"));
        let z0 = Const::Frozen(Var::new("Z"));
        assert!(frozen.body_db.contains_tuple(Pred::new("a"), &[x0, y0]));
        assert!(frozen.body_db.contains_tuple(Pred::new("g"), &[y0, z0]));
        assert_eq!(frozen.goal, GroundAtom::new("g", vec![x0, z0]));
    }

    #[test]
    fn frozen_constants_are_fresh_by_construction() {
        // A rule containing the constant 3 (§II allows constants): the
        // frozen variable constants can never collide with it.
        let r = parse_rule("g(X, 3) :- a(X, 3).").unwrap();
        let frozen = freeze_rule(&r);
        let x0 = Const::Frozen(Var::new("X"));
        assert!(frozen
            .body_db
            .contains_tuple(Pred::new("a"), &[x0, Const::Int(3)]));
        assert_eq!(frozen.goal.tuple[1], Const::Int(3));
    }

    #[test]
    fn repeated_variables_freeze_to_equal_constants() {
        let r = parse_rule("g(X) :- a(X, X).").unwrap();
        let frozen = freeze_rule(&r);
        let x0 = Const::Frozen(Var::new("X"));
        assert!(frozen.body_db.contains_tuple(Pred::new("a"), &[x0, x0]));
    }

    #[test]
    fn duplicate_body_atoms_collapse_in_the_database() {
        let r = parse_rule("g(X) :- a(X), a(X).").unwrap();
        let frozen = freeze_rule(&r);
        assert_eq!(frozen.body_db.len(), 1);
    }

    #[test]
    fn a_frozen_atom_is_its_instance_in_the_canonical_database() {
        let r = parse_rule("g(X, Z) :- a(X, Y), g(Y, Z), a(X, 3).").unwrap();
        let frozen = freeze_rule(&r);
        for atom in r.positive_body() {
            assert!(frozen.body_db.contains(&freeze_atom(atom)), "{atom}");
        }
    }
}
