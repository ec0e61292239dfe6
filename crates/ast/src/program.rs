//! Programs: ordered sets of rules, plus predicate classification.

use crate::atom::Literal;
use crate::rule::Rule;
use crate::symbol::Pred;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A Datalog program — a set of rules (§II). Rule order is preserved because
/// the minimization algorithms of Fig. 1/2 are order-sensitive (their output
/// is not unique, §VII) and we want deterministic, documented behaviour.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    pub fn empty() -> Program {
        Program { rules: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Total number of body literals across all rules — the "size" the
    /// paper's complexity remark refers to (§I: exponential only in the size
    /// of the program).
    pub fn total_width(&self) -> usize {
        self.rules.iter().map(Rule::width).sum()
    }

    /// True if no rule uses negation (the paper's fragment).
    pub fn is_positive(&self) -> bool {
        self.rules.iter().all(Rule::is_positive)
    }

    /// Intentional predicates: those appearing as the head of some rule (§III).
    pub fn intentional(&self) -> BTreeSet<Pred> {
        self.rules.iter().map(|r| r.head.pred).collect()
    }

    /// Extensional predicates: those appearing in bodies but never in a head
    /// (§III).
    pub fn extensional(&self) -> BTreeSet<Pred> {
        let idb = self.intentional();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter().map(|l| l.atom.pred))
            .filter(|p| !idb.contains(p))
            .collect()
    }

    /// Every predicate mentioned anywhere in the program.
    pub fn predicates(&self) -> BTreeSet<Pred> {
        let mut set = BTreeSet::new();
        for r in &self.rules {
            set.insert(r.head.pred);
            for l in &r.body {
                set.insert(l.atom.pred);
            }
        }
        set
    }

    /// Arity of each predicate as first used. Consistency is checked by
    /// [`crate::validate::validate`].
    pub fn arities(&self) -> BTreeMap<Pred, usize> {
        let mut map = BTreeMap::new();
        for r in &self.rules {
            map.entry(r.head.pred).or_insert(r.head.arity());
            for l in &r.body {
                map.entry(l.atom.pred).or_insert(l.atom.arity());
            }
        }
        map
    }

    /// The rules whose head is `p`.
    pub fn rules_for(&self, p: Pred) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.head.pred == p)
    }

    /// The program with rule `idx` removed (the P̂ of Fig. 2).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn without_rule(&self, idx: usize) -> Program {
        let mut rules = self.rules.clone();
        rules.remove(idx);
        Program { rules }
    }

    /// The *initialization rules* of the program (§X): rules whose body
    /// mentions only extensional predicates. `Pⁱ` in the paper.
    pub fn initialization_rules(&self) -> Program {
        let idb = self.intentional();
        Program {
            rules: self
                .rules
                .iter()
                .filter(|r| r.body.iter().all(|l| !idb.contains(&l.atom.pred)))
                .cloned()
                .collect(),
        }
    }

    /// Push a rule, returning `self` for builder-style construction.
    pub fn with_rule(mut self, rule: Rule) -> Program {
        self.rules.push(rule);
        self
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Program {
        Program {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Program {
    /// Iterate body literals of all rules.
    pub fn all_literals(&self) -> impl Iterator<Item = &Literal> {
        self.rules.iter().flat_map(|r| r.body.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atom;
    use crate::term::Term;

    /// The transitive-closure program of Example 1.
    fn example1() -> Program {
        Program::new(vec![
            Rule::positive(
                atom("G", [Term::var("X"), Term::var("Z")]),
                [atom("A", [Term::var("X"), Term::var("Z")])],
            ),
            Rule::positive(
                atom("G", [Term::var("X"), Term::var("Z")]),
                [
                    atom("G", [Term::var("X"), Term::var("Y")]),
                    atom("G", [Term::var("Y"), Term::var("Z")]),
                ],
            ),
        ])
    }

    #[test]
    fn intentional_and_extensional() {
        let p = example1();
        assert_eq!(p.intentional(), BTreeSet::from([Pred::new("G")]));
        assert_eq!(p.extensional(), BTreeSet::from([Pred::new("A")]));
        assert_eq!(p.predicates().len(), 2);
    }

    #[test]
    fn arities() {
        let p = example1();
        let ar = p.arities();
        assert_eq!(ar[&Pred::new("G")], 2);
        assert_eq!(ar[&Pred::new("A")], 2);
    }

    #[test]
    fn initialization_rules_are_the_edb_only_rules() {
        let p = example1();
        let init = p.initialization_rules();
        assert_eq!(init.len(), 1);
        assert_eq!(init.rules[0].to_string(), "G(X, Z) :- A(X, Z).");
    }

    #[test]
    fn without_rule() {
        let p = example1();
        let q = p.without_rule(0);
        assert_eq!(q.len(), 1);
        assert!(q.rules[0].is_directly_recursive());
    }

    #[test]
    fn total_width_counts_joins() {
        assert_eq!(example1().total_width(), 3);
    }

    #[test]
    fn rules_for_selects_by_head() {
        let p = example1();
        assert_eq!(p.rules_for(Pred::new("G")).count(), 2);
        assert_eq!(p.rules_for(Pred::new("A")).count(), 0);
    }
}
