//! Compiled rule plans, and the reference join interpreter.
//!
//! A [`RulePlan`] compiles a rule's variables to dense slots (`usize`
//! indices) so that a partial assignment is a `Vec<Option<Const>>` rather
//! than a map, and orders body atoms greedily by bound-variable count.
//! Plans are what every evaluator starts from: [`crate::EvalContext`]
//! compiles them further into join scripts for its kernel.
//!
//! [`join_body`] evaluates a plan directly — left-to-right backtracking
//! against per-predicate hash indices built on demand ([`IndexSet`]) and
//! thrown away with the round. It is the seed's executor and has one caller
//! left, [`crate::naive`], the share-nothing reference the oracles compare
//! every other evaluator against.

use datalog_ast::{Atom, Const, Database, GroundAtom, Pred, Rule, Term, Tuple, Var};
use std::collections::HashMap;

/// A term in a compiled atom: either a constant or a variable slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    Const(Const),
    Var(usize),
}

/// A compiled atom: predicate plus slots.
#[derive(Clone, Debug)]
pub struct AtomPlan {
    pub pred: Pred,
    pub slots: Vec<Slot>,
    /// Whether this literal is negated (stratified extension).
    pub negated: bool,
}

impl AtomPlan {
    fn compile(atom: &Atom, negated: bool, vars: &mut Vec<Var>) -> AtomPlan {
        let slots = atom
            .terms
            .iter()
            .map(|t| match *t {
                Term::Const(c) => Slot::Const(c),
                Term::Var(v) => {
                    let idx = match vars.iter().position(|&w| w == v) {
                        Some(i) => i,
                        None => {
                            vars.push(v);
                            vars.len() - 1
                        }
                    };
                    Slot::Var(idx)
                }
            })
            .collect();
        AtomPlan {
            pred: atom.pred,
            slots,
            negated,
        }
    }

    /// Slots that are bound given the currently-bound variable set.
    fn bound_positions(&self, bound: &[bool]) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match s {
                Slot::Const(_) => true,
                Slot::Var(v) => bound[*v],
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn count_bound(&self, bound: &[bool]) -> usize {
        self.bound_positions(bound).len()
    }
}

/// A compiled rule.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// Head slots.
    pub head: AtomPlan,
    /// Body atoms, in source order.
    pub body: Vec<AtomPlan>,
    /// The rule's distinct variables, in slot order.
    pub vars: Vec<Var>,
}

impl RulePlan {
    /// Compile a rule. Works for any rule (positive or with negation).
    pub fn compile(rule: &Rule) -> RulePlan {
        let mut vars = Vec::new();
        // Compile body first so head variables are guaranteed bound slots
        // for range-restricted rules.
        let body: Vec<AtomPlan> = rule
            .body
            .iter()
            .map(|l| AtomPlan::compile(&l.atom, l.negated, &mut vars))
            .collect();
        let head = AtomPlan::compile(&rule.head, false, &mut vars);
        RulePlan { head, body, vars }
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// A greedy join order: repeatedly pick the not-yet-placed *positive*
    /// atom with the most bound argument positions (ties: smaller relation
    /// first); negated atoms are placed as soon as all their variables are
    /// bound, and always after at least one positive atom.
    ///
    /// Returns a permutation of body indices.
    pub fn greedy_order(&self, db: &Database) -> Vec<usize> {
        self.greedy_order_seeded(db, None)
    }

    /// [`RulePlan::greedy_order`], optionally forcing one positive atom to
    /// the front. Delta-restricted rounds seed with the delta atom: the
    /// delta relation is the small side, so driving the join from it avoids rescanning a full
    /// persistent relation once per round per delta position.
    pub(crate) fn greedy_order_seeded(&self, db: &Database, seed: Option<usize>) -> Vec<usize> {
        let n = self.body.len();
        let mut placed = vec![false; n];
        let mut bound = vec![false; self.num_vars()];
        let mut order = Vec::with_capacity(n);
        if let Some(first) = seed {
            debug_assert!(!self.body[first].negated, "cannot seed on a negated atom");
            placed[first] = true;
            order.push(first);
            for s in &self.body[first].slots {
                if let Slot::Var(v) = s {
                    bound[*v] = true;
                }
            }
        }
        while order.len() < n {
            // Prefer any negated atom whose variables are all bound.
            let ready_neg = (0..n).find(|&i| {
                !placed[i]
                    && self.body[i].negated
                    && self.body[i].slots.iter().all(|s| match s {
                        Slot::Const(_) => true,
                        Slot::Var(v) => bound[*v],
                    })
            });
            let pick = ready_neg.unwrap_or_else(|| {
                (0..n)
                    .filter(|&i| !placed[i] && !self.body[i].negated)
                    .max_by_key(|&i| {
                        let b = self.body[i].count_bound(&bound);
                        let size = db.relation_len(self.body[i].pred);
                        // More bound positions first; among equals, smaller
                        // relation first (hence Reverse on size).
                        (b, std::cmp::Reverse(size))
                    })
                    .unwrap_or_else(|| {
                        // Only negated atoms left but not all vars bound —
                        // unsafe rule; fall back to source order.
                        (0..n).find(|&i| !placed[i]).expect("order not complete")
                    })
            });
            placed[pick] = true;
            order.push(pick);
            for s in &self.body[pick].slots {
                if let Slot::Var(v) = s {
                    bound[*v] = true;
                }
            }
        }
        order
    }
}

/// Key of an index: the positions of a relation used for probing.
type IndexKey = (Pred, Vec<usize>);

/// On-demand hash indices over a database snapshot.
///
/// For each `(predicate, bound-positions)` pair requested, builds (once) a
/// hash map from the projection onto those positions to the matching tuples.
/// Indices are built lazily because most rules only probe a few patterns.
pub(crate) struct IndexSet<'db> {
    db: &'db Database,
    indices: HashMap<IndexKey, HashMap<Vec<Const>, Vec<&'db [Const]>>>,
    /// Number of index probes performed — the "joins done during the
    /// evaluation" measure of §I, reported by [`crate::Stats`].
    pub(crate) probes: u64,
}

impl<'db> IndexSet<'db> {
    pub(crate) fn new(db: &'db Database) -> IndexSet<'db> {
        IndexSet {
            db,
            indices: HashMap::new(),
            probes: 0,
        }
    }

    /// Tuples of `pred` whose projection on `positions` equals `key`.
    fn probe(&mut self, pred: Pred, positions: &[usize], key: &[Const]) -> &[&'db [Const]] {
        self.probes += 1;
        if positions.is_empty() {
            // Full scan; cache under the empty position list with unit key.
            let db = self.db;
            let entry = self.indices.entry((pred, Vec::new())).or_insert_with(|| {
                let mut m: HashMap<Vec<Const>, Vec<&'db [Const]>> = HashMap::new();
                m.insert(Vec::new(), db.relation(pred).collect());
                m
            });
            return entry.get(&[] as &[Const]).map_or(&[], Vec::as_slice);
        }
        let db = self.db;
        let entry = self
            .indices
            .entry((pred, positions.to_vec()))
            .or_insert_with(|| {
                let mut m: HashMap<Vec<Const>, Vec<&'db [Const]>> = HashMap::new();
                for t in db.relation(pred) {
                    let k: Vec<Const> = positions.iter().map(|&i| t[i]).collect();
                    m.entry(k).or_default().push(t);
                }
                m
            });
        entry.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Evaluate `plan`'s body over `idx`, calling `on_match` with the complete
/// variable assignment for every satisfying substitution.
///
/// `order` must be a permutation of the body indices. Negated atoms are
/// checked as absence in the database.
pub(crate) fn join_body<F: FnMut(&[Option<Const>])>(
    plan: &RulePlan,
    order: &[usize],
    idx: &mut IndexSet<'_>,
    mut on_match: F,
) {
    let mut assignment: Vec<Option<Const>> = vec![None; plan.num_vars()];
    join_rec(plan, order, 0, idx, &mut assignment, &mut on_match);
}

fn join_rec<F: FnMut(&[Option<Const>])>(
    plan: &RulePlan,
    order: &[usize],
    depth: usize,
    idx: &mut IndexSet<'_>,
    assignment: &mut Vec<Option<Const>>,
    on_match: &mut F,
) {
    if depth == order.len() {
        on_match(assignment);
        return;
    }
    let atom_i = order[depth];
    let atom = &plan.body[atom_i];

    if atom.negated {
        // All variables must be bound (safety was validated upstream).
        let tuple: Option<Vec<Const>> = atom
            .slots
            .iter()
            .map(|s| match s {
                Slot::Const(c) => Some(*c),
                Slot::Var(v) => assignment[*v],
            })
            .collect();
        let tuple = tuple.expect("negated atom with unbound variable; rule not safe");
        idx.probes += 1;
        if !idx.db.contains_tuple(atom.pred, &tuple) {
            join_rec(plan, order, depth + 1, idx, assignment, on_match);
        }
        return;
    }

    // Determine bound positions and probe key.
    let mut positions = Vec::new();
    let mut key = Vec::new();
    for (i, s) in atom.slots.iter().enumerate() {
        match s {
            Slot::Const(c) => {
                positions.push(i);
                key.push(*c);
            }
            Slot::Var(v) => {
                if let Some(c) = assignment[*v] {
                    positions.push(i);
                    key.push(c);
                }
            }
        }
    }

    let matches: Vec<Tuple> = idx
        .probe(atom.pred, &positions, &key)
        .iter()
        .map(|&t| Tuple::from(t))
        .collect();

    for t in matches {
        // Bind unbound variable slots; record which to unbind on backtrack.
        let mut newly_bound: Vec<usize> = Vec::new();
        let mut ok = true;
        for (i, s) in atom.slots.iter().enumerate() {
            if let Slot::Var(v) = s {
                match assignment[*v] {
                    Some(c) => {
                        if c != t[i] {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        assignment[*v] = Some(t[i]);
                        newly_bound.push(*v);
                    }
                }
            }
        }
        if ok {
            join_rec(plan, order, depth + 1, idx, assignment, on_match);
        }
        for v in newly_bound {
            assignment[v] = None;
        }
    }
}

/// Instantiate the head of `plan` under a complete assignment.
pub(crate) fn instantiate_head(plan: &RulePlan, assignment: &[Option<Const>]) -> GroundAtom {
    let tuple: Box<[Const]> = plan
        .head
        .slots
        .iter()
        .map(|s| match s {
            Slot::Const(c) => *c,
            Slot::Var(v) => {
                assignment[*v].expect("head variable unbound; rule not range-restricted")
            }
        })
        .collect();
    GroundAtom {
        pred: plan.head.pred,
        tuple,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_rule};

    fn all_matches(rule: &str, db: &Database) -> Vec<GroundAtom> {
        let rule = parse_rule(rule).unwrap();
        let plan = RulePlan::compile(&rule);
        let order = plan.greedy_order(db);
        let mut idx = IndexSet::new(db);
        let mut out = Vec::new();
        join_body(&plan, &order, &mut idx, |a| {
            out.push(instantiate_head(&plan, a));
        });
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn single_atom_scan() {
        let db = parse_database("a(1,2). a(2,3).").unwrap();
        let got = all_matches("g(X, Z) :- a(X, Z).", &db);
        assert_eq!(got, vec![fact("g", [1, 2]), fact("g", [2, 3])]);
    }

    #[test]
    fn two_way_join() {
        let db = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let got = all_matches("g(X, Z) :- a(X, Y), a(Y, Z).", &db);
        assert_eq!(got, vec![fact("g", [1, 3]), fact("g", [2, 4])]);
    }

    #[test]
    fn constant_in_body_restricts() {
        let db = parse_database("a(1,2). a(2,3).").unwrap();
        let got = all_matches("g(X) :- a(2, X).", &db);
        assert_eq!(got, vec![fact("g", [3])]);
    }

    #[test]
    fn constant_in_head() {
        let db = parse_database("a(1,2).").unwrap();
        let got = all_matches("g(X, 9) :- a(X, Y).", &db);
        assert_eq!(got, vec![fact("g", [1, 9])]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let db = parse_database("a(1,1). a(1,2).").unwrap();
        let got = all_matches("g(X) :- a(X, X).", &db);
        assert_eq!(got, vec![fact("g", [1])]);
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let db = parse_database("a(1). a(2). b(7). b(8).").unwrap();
        let got = all_matches("g(X, Y) :- a(X), b(Y).", &db);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn negation_filters() {
        let db = parse_database("a(1). a(2). bad(2).").unwrap();
        let got = all_matches("g(X) :- a(X), !bad(X).", &db);
        assert_eq!(got, vec![fact("g", [1])]);
    }

    #[test]
    fn greedy_order_places_bound_atoms_early() {
        let db = parse_database("a(1,2). b(2,3). b(9,9). c(1).").unwrap();
        let rule = parse_rule("g(X, Z) :- b(Y, Z), c(X), a(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule);
        let order = plan.greedy_order(&db);
        assert_eq!(order.len(), 3);
        // All three must appear exactly once.
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2]);
        // Join still produces the right answer regardless of order.
        let got = all_matches("g(X, Z) :- b(Y, Z), c(X), a(X, Y).", &db);
        assert_eq!(got, vec![fact("g", [1, 3])]);
    }

    #[test]
    fn probe_counting() {
        let db = parse_database("a(1,2). a(2,3).").unwrap();
        let mut idx = IndexSet::new(&db);
        let rule = parse_rule("g(X, Z) :- a(X, Y), a(Y, Z).").unwrap();
        let plan = RulePlan::compile(&rule);
        let order: Vec<usize> = (0..2).collect();
        join_body(&plan, &order, &mut idx, |_| {});
        assert!(
            idx.probes >= 3,
            "scan + one probe per tuple: got {}",
            idx.probes
        );
    }
}
