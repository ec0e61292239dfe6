//! Substitutions, matching, and unification.
//!
//! Three related operations drive the paper's algorithms:
//!
//! * **Instantiation** (§III): applying a variable→constant map to a rule.
//! * **Matching** (one-way unification): finding θ with `aθ = g` for an atom
//!   `a` with variables and a ground atom `g` — the core of bottom-up rule
//!   application and of "unifying a ground atom with the head of a rule"
//!   in the Fig. 3 preservation procedure (§IX).
//! * **Renaming apart**: giving rules disjoint variable namespaces before
//!   unification-style constructions.

use crate::atom::{Atom, GroundAtom, Literal};
use crate::rule::Rule;
use crate::symbol::Var;
use crate::term::Term;
use std::collections::BTreeMap;
use std::fmt;

/// A finite map from variables to terms.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Subst {
    map: BTreeMap<Var, Term>,
}

impl Subst {
    pub fn new() -> Subst {
        Subst::default()
    }

    pub fn singleton(v: Var, t: Term) -> Subst {
        let mut s = Subst::new();
        s.bind(v, t);
        s
    }

    pub fn get(&self, v: Var) -> Option<Term> {
        self.map.get(&v).copied()
    }

    pub fn bind(&mut self, v: Var, t: Term) {
        self.map.insert(v, t);
    }

    /// Drop `v`'s binding, if it has one.
    pub fn unbind(&mut self, v: Var) {
        self.map.remove(&v);
    }

    /// Bind `v` to `t` if consistent with an existing binding.
    /// Returns `false` (leaving the substitution unchanged) on conflict.
    pub fn try_bind(&mut self, v: Var, t: Term) -> bool {
        match self.map.get(&v) {
            Some(&existing) => existing == t,
            None => {
                self.map.insert(v, t);
                true
            }
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Var, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Apply to a term. Unbound variables are left as-is.
    pub fn apply_term(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.get(v).unwrap_or(t),
            Term::Const(_) => t,
        }
    }

    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred,
            terms: a.terms.iter().map(|&t| self.apply_term(t)).collect(),
        }
    }

    pub fn apply_literal(&self, l: &Literal) -> Literal {
        Literal {
            atom: self.apply_atom(&l.atom),
            negated: l.negated,
        }
    }

    pub fn apply_rule(&self, r: &Rule) -> Rule {
        Rule {
            head: self.apply_atom(&r.head),
            body: r.body.iter().map(|l| self.apply_literal(l)).collect(),
            spans: r.spans.clone(),
        }
    }

    /// Apply to an atom that must become ground; `None` if a variable stays
    /// unbound.
    pub fn ground_atom(&self, a: &Atom) -> Option<GroundAtom> {
        self.apply_atom(a).to_ground()
    }

    /// Compose: `self` then `other` on the *results* (i.e. `(self;other)(x) =
    /// other(self(x))`), with bindings of `other` for variables untouched by
    /// `self` carried over.
    pub fn then(&self, other: &Subst) -> Subst {
        let mut out = Subst::new();
        for (v, t) in self.iter() {
            out.bind(v, other.apply_term(t));
        }
        for (v, t) in other.iter() {
            out.map.entry(v).or_insert(t);
        }
        out
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {t}")?;
        }
        write!(f, "}}")
    }
}

/// Match atom `pattern` against ground atom `g`, extending `subst`.
/// Returns `true` and extends on success; on failure `subst` may be partially
/// extended, so callers should clone or use [`match_atom`].
pub fn match_atom_into(pattern: &Atom, g: &GroundAtom, subst: &mut Subst) -> bool {
    if pattern.pred != g.pred || pattern.arity() != g.arity() {
        return false;
    }
    for (t, &c) in pattern.terms.iter().zip(g.tuple.iter()) {
        match *t {
            Term::Const(pc) => {
                if pc != c {
                    return false;
                }
            }
            Term::Var(v) => {
                if !subst.try_bind(v, Term::Const(c)) {
                    return false;
                }
            }
        }
    }
    true
}

/// Match atom `pattern` against ground atom `g` from scratch.
pub fn match_atom(pattern: &Atom, g: &GroundAtom) -> Option<Subst> {
    let mut s = Subst::new();
    match_atom_into(pattern, g, &mut s).then_some(s)
}

/// Rename the variables of a rule with fresh `tag$n` variables so that two
/// rules never share variables. Returns the renamed rule and the renaming.
pub fn rename_apart(rule: &Rule, tag: &str, counter: &mut usize) -> (Rule, Subst) {
    let mut s = Subst::new();
    for v in rule.vars() {
        s.bind(v, Term::Var(Var::fresh(tag, *counter)));
        *counter += 1;
    }
    (s.apply_rule(rule), s)
}

/// Most-general unifier of two atoms over disjoint variable sets.
///
/// Function-symbol-free unification: each position unifies a pair of terms
/// directly, so no occurs-check is needed. Returns a substitution θ with
/// `aθ = bθ`, or `None` if the atoms do not unify.
pub fn unify_atoms(a: &Atom, b: &Atom) -> Option<Subst> {
    if a.pred != b.pred || a.arity() != b.arity() {
        return None;
    }
    let mut s = Subst::new();
    for (&ta, &tb) in a.terms.iter().zip(b.terms.iter()) {
        let ta = s.apply_term(ta);
        let tb = s.apply_term(tb);
        match (ta, tb) {
            (Term::Const(ca), Term::Const(cb)) => {
                if ca != cb {
                    return None;
                }
            }
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if Term::Var(v) != t {
                    // Substitute v ↦ t in the accumulated bindings to keep the
                    // substitution idempotent (triangular form resolution).
                    let elem = Subst::singleton(v, t);
                    let rebound: Vec<(Var, Term)> =
                        s.iter().map(|(w, u)| (w, elem.apply_term(u))).collect();
                    for (w, u) in rebound {
                        s.bind(w, u);
                    }
                    s.bind(v, t);
                }
            }
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{atom, fact};

    #[test]
    fn apply_and_ground() {
        let mut s = Subst::new();
        s.bind(Var::new("X"), Term::int(1));
        s.bind(Var::new("Y"), Term::int(2));
        let a = atom("g", [Term::var("X"), Term::var("Y")]);
        assert_eq!(s.ground_atom(&a).unwrap(), fact("g", [1, 2]));

        let partial = atom("g", [Term::var("X"), Term::var("Z")]);
        assert!(s.ground_atom(&partial).is_none());
    }

    #[test]
    fn try_bind_detects_conflicts() {
        let mut s = Subst::new();
        assert!(s.try_bind(Var::new("X"), Term::int(1)));
        assert!(s.try_bind(Var::new("X"), Term::int(1)));
        assert!(!s.try_bind(Var::new("X"), Term::int(2)));
        assert_eq!(s.get(Var::new("X")), Some(Term::int(1)));
    }

    #[test]
    fn matching_repeated_variables() {
        // p(X, X) matches p(1, 1) but not p(1, 2).
        let pat = atom("p", [Term::var("X"), Term::var("X")]);
        assert!(match_atom(&pat, &fact("p", [1, 1])).is_some());
        assert!(match_atom(&pat, &fact("p", [1, 2])).is_none());
    }

    #[test]
    fn matching_constants_in_pattern() {
        let pat = atom("p", [Term::int(3), Term::var("X")]);
        let s = match_atom(&pat, &fact("p", [3, 7])).unwrap();
        assert_eq!(s.get(Var::new("X")), Some(Term::int(7)));
        assert!(match_atom(&pat, &fact("p", [4, 7])).is_none());
    }

    #[test]
    fn matching_wrong_pred_or_arity() {
        let pat = atom("p", [Term::var("X")]);
        assert!(match_atom(&pat, &fact("q", [1])).is_none());
        assert!(match_atom(&pat, &fact("p", [1, 2])).is_none());
    }

    #[test]
    fn rename_apart_gives_disjoint_vars() {
        let r = Rule::positive(
            atom("g", [Term::var("X"), Term::var("Z")]),
            [atom("a", [Term::var("X"), Term::var("Z")])],
        );
        let mut n = 0;
        let (r1, _) = rename_apart(&r, "u", &mut n);
        let (r2, _) = rename_apart(&r, "u", &mut n);
        let v1 = r1.vars();
        let v2 = r2.vars();
        assert!(v1.is_disjoint(&v2));
        assert!(v1.is_disjoint(&r.vars()));
    }

    #[test]
    fn unify_basic() {
        let a = atom("g", [Term::var("X"), Term::int(3)]);
        let b = atom("g", [Term::int(1), Term::var("Y")]);
        let s = unify_atoms(&a, &b).unwrap();
        assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
    }

    #[test]
    fn unify_var_var_chains() {
        // g(X, X) with g(Y, 3) forces X=Y=3.
        let a = atom("g", [Term::var("X"), Term::var("X")]);
        let b = atom("g", [Term::var("Y"), Term::int(3)]);
        let s = unify_atoms(&a, &b).unwrap();
        assert_eq!(s.apply_atom(&a), atom("g", [Term::int(3), Term::int(3)]));
        assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
    }

    #[test]
    fn unify_failure() {
        let a = atom("g", [Term::int(1)]);
        let b = atom("g", [Term::int(2)]);
        assert!(unify_atoms(&a, &b).is_none());
        let c = atom("h", [Term::int(1)]);
        assert!(unify_atoms(&a, &c).is_none());
        // Indirect clash: g(X, X) vs g(1, 2).
        let d = atom("g", [Term::var("X"), Term::var("X")]);
        let e = atom("g", [Term::int(1), Term::int(2)]);
        assert!(unify_atoms(&d, &e).is_none());
    }

    #[test]
    fn compose_then() {
        let s1 = Subst::singleton(Var::new("X"), Term::var("Y"));
        let s2 = Subst::singleton(Var::new("Y"), Term::int(5));
        let s = s1.then(&s2);
        assert_eq!(s.apply_term(Term::var("X")), Term::int(5));
        assert_eq!(s.apply_term(Term::var("Y")), Term::int(5));
    }
}
