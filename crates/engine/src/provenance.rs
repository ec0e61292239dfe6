//! Why-provenance: derivation trees for bottom-up evaluation.
//!
//! §III describes evaluation as repeated rule instantiation; a *traced*
//! [`EvalContext`] records *which* instantiations fired — the first one per
//! derived atom, taken from the join kernel's in-flight row-ids when the head
//! is queued — so that any derived atom can be explained by a proof tree
//! grounded in the input database. The optimizer uses the same notion
//! implicitly — Theorem 1's proof manipulates "a sequence of substitutions
//! ϕ1, …, ϕn" — and surfacing it makes containment verdicts auditable:
//! `explain` turns "the frozen head was derived" into the actual derivation.
//!
//! This module holds no evaluator: [`Traced`] drives the context with
//! [`EvalContext::saturate_until`] and walks what it recorded, and
//! [`Proof::check`] re-validates a tree against the program and the input
//! without trusting either.

use crate::context::{EvalContext, EvalOptions};
use crate::stats::Stats;
use datalog_ast::{match_atom_into, Database, GroundAtom, Program, Subst};
use std::fmt;

/// How one atom was obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Justification {
    /// Present in the input database.
    Input,
    /// Derived by an instance of rule `rule_idx`; `premises` are its
    /// instantiated positive body atoms, in body order.
    Rule {
        rule_idx: usize,
        premises: Vec<GroundAtom>,
    },
}

/// A goal-directed, provenance-tracking evaluation: a traced context, the
/// rules it runs, and proof trees read off its record.
#[derive(Debug)]
pub struct Traced {
    cx: EvalContext,
    rules: Vec<usize>,
}

impl Traced {
    /// Trace every rule of `program` over `input`.
    pub fn new(program: &Program, input: Database) -> Traced {
        assert!(
            program.is_positive(),
            "provenance tracking requires a positive program"
        );
        let rules = (0..program.len()).collect();
        let cx = EvalContext::new(program, input, EvalOptions::sequential());
        Traced::over(cx, rules)
    }

    /// Trace `rules` (indices into `cx`'s program) from `cx`'s current
    /// database, which becomes the input.
    pub fn over(cx: EvalContext, rules: Vec<usize>) -> Traced {
        Traced {
            cx: cx.traced(),
            rules,
        }
    }

    /// Everything derived so far: the fixpoint once an [`Traced::explain`]
    /// has missed, otherwise as far as the explained atoms needed.
    pub fn database(&self) -> &Database {
        self.cx.database()
    }

    pub fn into_database(self) -> Database {
        self.cx.into_database()
    }

    /// Work counters of the traced evaluation.
    pub fn stats(&self) -> Stats {
        self.cx.stats()
    }

    /// The recorded justification for `atom`, if it has been derived (or
    /// was input).
    pub fn justification(&self, atom: &GroundAtom) -> Option<&Justification> {
        self.cx.justification(atom)
    }

    /// Evaluate until `atom` is derived and build its full proof tree.
    /// Returns `None` if the atom is not in the fixpoint, which the
    /// database has then reached. The tree is finite because a
    /// justification is recorded when its conclusion is first committed:
    /// premises always precede conclusions.
    pub fn explain(&mut self, atom: &GroundAtom) -> Option<Proof> {
        self.cx
            .saturate_until(&self.rules, atom)
            .then(|| self.proof(atom))
    }

    fn proof(&self, atom: &GroundAtom) -> Proof {
        let (rule_idx, premises) = match self.cx.justification(atom) {
            Some(Justification::Rule { rule_idx, premises }) => (Some(*rule_idx), &premises[..]),
            Some(Justification::Input) => (None, &[][..]),
            None => unreachable!("{atom} was derived, or a premise of a derived atom"),
        };
        Proof {
            conclusion: atom.clone(),
            rule_idx,
            premises: premises.iter().map(|p| self.proof(p)).collect(),
        }
    }
}

/// A proof tree: the conclusion, the rule that fired (if not input), and
/// recursively-justified premises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    pub conclusion: GroundAtom,
    /// `None` for input atoms.
    pub rule_idx: Option<usize>,
    pub premises: Vec<Proof>,
}

impl Proof {
    /// Depth of the tree (input atoms have depth 0).
    pub fn depth(&self) -> usize {
        self.premises
            .iter()
            .map(Proof::depth)
            .max()
            .map_or(0, |d| d + 1)
    }

    /// Total number of rule applications in the tree.
    pub fn size(&self) -> usize {
        usize::from(self.rule_idx.is_some()) + self.premises.iter().map(Proof::size).sum::<usize>()
    }

    /// Whether `atom` is one of the tree's leaves, the input atoms it
    /// rests on.
    pub fn rests_on(&self, atom: &GroundAtom) -> bool {
        match self.rule_idx {
            None => self.conclusion == *atom,
            Some(_) => self.premises.iter().any(|p| p.rests_on(atom)),
        }
    }

    /// Edit the tree for the program in which rule `rule_idx` lost its body
    /// atom at position `p`: every application of that rule drops its
    /// `p`-th premise, with the subtree above it. A tree that checks against
    /// the old program checks against the new one — the rest of each
    /// instance is an instance of the shorter rule — and rests on a subset
    /// of the old leaves.
    pub fn drop_premise(&mut self, rule_idx: usize, p: usize) {
        if self.rule_idx == Some(rule_idx) {
            self.premises.remove(p);
        }
        for premise in &mut self.premises {
            premise.drop_premise(rule_idx, p);
        }
    }

    /// Re-validate the tree bottom-up, trusting nothing that recorded it:
    /// every leaf is in `input`, and at every other node some substitution
    /// maps the named rule's head to the conclusion and its positive body,
    /// in order, onto the premises' conclusions. `Err` names the first node
    /// that fails.
    pub fn check(&self, program: &Program, input: &Database) -> Result<(), String> {
        let Some(rule_idx) = self.rule_idx else {
            let given = self.premises.is_empty() && input.contains(&self.conclusion);
            return given
                .then_some(())
                .ok_or_else(|| format!("{} is not in the database", self.conclusion));
        };
        let rule = program
            .rules
            .get(rule_idx)
            .ok_or_else(|| format!("{}: no rule {rule_idx}", self.conclusion))?;
        let mut subst = Subst::new();
        let instance = rule.positive_body().count() == self.premises.len()
            && match_atom_into(&rule.head, &self.conclusion, &mut subst)
            && rule
                .positive_body()
                .zip(&self.premises)
                .all(|(atom, premise)| match_atom_into(atom, &premise.conclusion, &mut subst));
        if !instance {
            return Err(format!(
                "no instance of rule {rule_idx} (`{rule}`) derives {} from its premises",
                self.conclusion
            ));
        }
        self.premises
            .iter()
            .try_for_each(|p| p.check(program, input))
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        for _ in 0..indent {
            write!(f, "  ")?;
        }
        match self.rule_idx {
            None => writeln!(f, "{}  [input]", self.conclusion)?,
            Some(r) => writeln!(f, "{}  [rule {r}]", self.conclusion)?,
        }
        for p in &self.premises {
            p.fmt_indented(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    fn traced(facts: &str) -> Traced {
        let edb = parse_database(facts).unwrap();
        Traced::new(&tc(), edb)
    }

    #[test]
    fn a_miss_has_reached_the_fixpoint() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut traced = traced("a(1,2). a(2,3). a(3,4).");
        assert!(traced.explain(&fact("g", [4, 1])).is_none());
        assert_eq!(*traced.database(), crate::naive::evaluate(&tc(), &edb));
    }

    #[test]
    fn a_hit_stops_at_the_goal() {
        let facts = "a(1,2). a(2,3). a(3,4). a(4,5). a(5,6).";
        let mut traced = traced(facts);
        assert!(traced.explain(&fact("g", [1, 3])).is_some());
        assert!(!traced.database().contains(&fact("g", [1, 6])));
        // A later goal resumes from what is there.
        let proof = traced.explain(&fact("g", [1, 6])).unwrap();
        assert_eq!(proof.check(&tc(), &parse_database(facts).unwrap()), Ok(()));
    }

    #[test]
    fn input_atoms_are_justified_as_input() {
        let traced = traced("a(1,2).");
        assert_eq!(
            traced.justification(&fact("a", [1, 2])),
            Some(&Justification::Input)
        );
        assert_eq!(traced.justification(&fact("g", [1, 2])), None, "not yet");
    }

    #[test]
    fn derived_atom_has_rule_justification() {
        let mut traced = traced("a(1,2).");
        traced.explain(&fact("g", [1, 2])).unwrap();
        assert_eq!(
            traced.justification(&fact("g", [1, 2])),
            Some(&Justification::Rule {
                rule_idx: 0,
                premises: vec![fact("a", [1, 2])]
            })
        );
    }

    #[test]
    fn proof_tree_shape() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut traced = traced("a(1,2). a(2,3).");
        let proof = traced.explain(&fact("g", [1, 3])).unwrap();
        // g(1,3) from rule 1 with premises g(1,2), g(2,3), each from rule 0.
        assert_eq!(proof.rule_idx, Some(1));
        assert_eq!(proof.premises.len(), 2);
        assert_eq!(proof.depth(), 2);
        assert_eq!(proof.size(), 3); // rule 1 once, rule 0 twice
        assert_eq!(proof.check(&tc(), &edb), Ok(()));
        let rendered = proof.to_string();
        assert!(rendered.contains("[rule 1]"));
        assert!(rendered.contains("[input]"));
    }

    #[test]
    fn proofs_are_well_founded_on_cyclic_data() {
        // Cyclic data must still give finite proofs, whichever task's
        // justification a round keeps.
        let edb = parse_database("a(1,2). a(2,1).").unwrap();
        let mut traced = Traced::new(&tc(), edb.clone());
        for atom in crate::naive::evaluate(&tc(), &edb).iter() {
            let proof = traced.explain(&atom).unwrap();
            assert!(proof.depth() <= 16, "proof for {atom} too deep");
            assert_eq!(proof.check(&tc(), &edb), Ok(()));
        }
    }

    #[test]
    fn premises_follow_body_order_not_join_order() {
        // The planner leads with the small relation `s`, and `e` is an
        // existential stage (nothing reads W): its one verified candidate is
        // the premise.
        let p = parse_program("h(X) :- e(X, W), t(X, Y), s(Y).").unwrap();
        let edb = parse_database("e(1,7). e(1,8). e(2,9). t(1,5). t(2,6). s(5).").unwrap();
        let mut traced = Traced::new(&p, edb.clone());
        let proof = traced.explain(&fact("h", [1])).unwrap();
        let premises = proof.premises.iter().map(|p| p.conclusion.pred);
        assert!(premises.eq(p.rules[0].positive_body().map(|a| a.pred)));
        assert_eq!(proof.check(&p, &edb), Ok(()));
        assert!(traced.explain(&fact("h", [2])).is_none());
    }

    #[test]
    fn a_dropped_premise_leaves_a_proof_under_the_shorter_rule() {
        // Left-linear closure: g(1, 4) takes rule 1 twice, each application
        // resting on one `a` edge and a `g` premise.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut proof = Traced::new(&p, edb.clone())
            .explain(&fact("g", [1, 4]))
            .unwrap();
        assert!(proof.rests_on(&fact("a", [1, 2])) && proof.rests_on(&fact("a", [2, 3])));
        assert!(!proof.rests_on(&fact("g", [2, 4])), "derived, not a leaf");

        // Without rule 1's `a(X, Y)`, both applications lose that premise.
        let mut shorter = p.clone();
        shorter.rules[1] = p.rules[1].without_body_atom(0);
        proof.drop_premise(1, 0);
        assert_eq!(proof.check(&shorter, &edb), Ok(()));
        assert!(proof.check(&p, &edb).is_err());
        assert!(!proof.rests_on(&fact("a", [1, 2])) && !proof.rests_on(&fact("a", [2, 3])));
        assert!(proof.rests_on(&fact("a", [3, 4])), "rule 0's premise stays");
    }

    #[test]
    fn check_rejects_what_the_program_does_not_derive() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut traced = traced("a(1,2). a(2,3).");
        let proof = traced.explain(&fact("g", [1, 3])).unwrap();

        let mut wrong_rule = proof.clone();
        wrong_rule.rule_idx = Some(0);
        assert!(wrong_rule.check(&tc(), &edb).is_err());

        let mut swapped = proof.clone();
        swapped.premises.swap(0, 1);
        assert!(
            swapped.check(&tc(), &edb).is_err(),
            "g(2,3), g(1,2) chains nothing"
        );

        let mut ungrounded = proof.clone();
        ungrounded.premises[1].premises[0].conclusion = fact("a", [2, 4]);
        assert!(ungrounded.check(&tc(), &edb).is_err());

        let missing_input = parse_database("a(1,2).").unwrap();
        assert!(proof.check(&tc(), &missing_input).is_err());

        let mut assumed = proof;
        assumed.premises[0] = Proof {
            conclusion: fact("g", [1, 2]),
            rule_idx: None,
            premises: Vec::new(),
        };
        assert!(assumed.check(&tc(), &edb).is_err(), "g(1,2) is not input");
    }
}
