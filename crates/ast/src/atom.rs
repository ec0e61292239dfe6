//! Atoms, literals, and ground atoms.

use crate::symbol::{Pred, Var};
use crate::term::{Const, Term};
use std::fmt;

/// An atomic formula: a predicate applied to terms (§II).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    pub pred: Pred,
    pub terms: Vec<Term>,
}

impl Atom {
    pub fn new(pred: impl Into<Pred>, terms: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            terms,
        }
    }

    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterate over the variables occurring in this atom (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// Collect the distinct variables of this atom, in first-occurrence order.
    pub fn distinct_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for v in self.vars() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Iterate over the constants occurring in this atom.
    pub fn consts(&self) -> impl Iterator<Item = Const> + '_ {
        self.terms.iter().filter_map(Term::as_const)
    }

    /// True if every term is a constant.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }

    /// Convert to a [`GroundAtom`]; returns `None` if any term is a variable.
    pub fn to_ground(&self) -> Option<GroundAtom> {
        let consts: Option<Box<[Const]>> = self.terms.iter().map(Term::as_const).collect();
        Some(GroundAtom {
            pred: self.pred,
            tuple: consts?,
        })
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom, possibly negated.
///
/// The paper's programs are negation-free; negative literals implement the
/// stratified-negation extension announced in §XII. All of the §VI–§XI
/// algorithms require positive programs and reject negated literals upfront.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    pub atom: Atom,
    pub negated: bool,
}

impl Literal {
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            atom,
            negated: false,
        }
    }

    pub fn neg(atom: Atom) -> Literal {
        Literal {
            atom,
            negated: true,
        }
    }

    pub fn is_positive(&self) -> bool {
        !self.negated
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "!")?;
        }
        write!(f, "{}", self.atom)
    }
}

impl From<Atom> for Literal {
    fn from(atom: Atom) -> Literal {
        Literal::pos(atom)
    }
}

/// A ground atom: a predicate applied to constants only (§III, "known fact").
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundAtom {
    pub pred: Pred,
    pub tuple: Box<[Const]>,
}

impl GroundAtom {
    pub fn new(pred: impl Into<Pred>, tuple: impl Into<Box<[Const]>>) -> GroundAtom {
        GroundAtom {
            pred: pred.into(),
            tuple: tuple.into(),
        }
    }

    pub fn arity(&self) -> usize {
        self.tuple.len()
    }

    /// View as a (non-ground-typed) [`Atom`].
    pub fn to_atom(&self) -> Atom {
        Atom {
            pred: self.pred,
            terms: self.tuple.iter().map(|&c| Term::Const(c)).collect(),
        }
    }

    /// True if the tuple contains a labelled null.
    pub fn has_null(&self) -> bool {
        self.tuple.iter().any(Const::is_null)
    }
}

impl fmt::Debug for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        RowDisplay(self.pred, &self.tuple).fmt(f)
    }
}

/// A predicate applied to a row that is still in its relation: prints what
/// the [`GroundAtom`] of the two would, without boxing the tuple first.
pub struct RowDisplay<'a>(pub Pred, pub &'a [Const]);

impl fmt::Display for RowDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Straight to the formatter: a fixpoint prints hundreds of
        // thousands of these.
        self.0.with_name(|name| f.write_str(name))?;
        f.write_str("(")?;
        for (i, c) in self.1.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match c {
                Const::Sym(s) => s.with_str(|s| f.write_str(s))?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str(")")
    }
}

/// Convenience constructor: `atom("g", [Term::var("X"), Term::int(3)])`.
pub fn atom(pred: &str, terms: impl IntoIterator<Item = Term>) -> Atom {
    Atom::new(pred, terms.into_iter().collect())
}

/// Convenience constructor for ground atoms over integers: `fact("a", [1, 2])`.
pub fn fact(pred: &str, consts: impl IntoIterator<Item = i64>) -> GroundAtom {
    GroundAtom::new(pred, consts.into_iter().map(Const::Int).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_vars_and_consts() {
        let a = atom(
            "g",
            [Term::var("X"), Term::int(3), Term::var("X"), Term::var("Y")],
        );
        assert_eq!(a.arity(), 4);
        assert_eq!(a.vars().count(), 3);
        assert_eq!(a.distinct_vars(), vec![Var::new("X"), Var::new("Y")]);
        assert_eq!(a.consts().collect::<Vec<_>>(), vec![Const::Int(3)]);
        assert!(!a.is_ground());
        assert!(a.to_ground().is_none());
    }

    #[test]
    fn ground_atom_round_trip() {
        let g = fact("a", [1, 2]);
        assert_eq!(g.arity(), 2);
        let as_atom = g.to_atom();
        assert!(as_atom.is_ground());
        assert_eq!(as_atom.to_ground().unwrap(), g);
    }

    #[test]
    fn literal_polarity() {
        let a = atom("p", [Term::var("X")]);
        assert!(Literal::pos(a.clone()).is_positive());
        assert!(!Literal::neg(a.clone()).is_positive());
        assert_eq!(Literal::neg(a).to_string(), "!p(X)");
    }

    #[test]
    fn display_matches_paper_style() {
        let a = atom("G", [Term::var("X"), Term::var("Z")]);
        assert_eq!(a.to_string(), "G(X, Z)");
        assert_eq!(fact("A", [1, 2]).to_string(), "A(1, 2)");
    }

    #[test]
    fn null_detection() {
        let g = GroundAtom::new("a", vec![Const::Int(1), Const::Null(3)]);
        assert!(g.has_null());
        assert!(!fact("a", [1]).has_null());
    }
}
