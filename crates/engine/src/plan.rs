//! Compiled rule plans.
//!
//! A [`RulePlan`] compiles a rule's variables to dense slots (`usize`
//! indices) so that a partial assignment is a `Vec<Option<Const>>` rather
//! than a map, orders body atoms greedily by bound-variable count, and
//! records each body literal that repeats an earlier one (a *twin*): a rule
//! body is a set of atoms (§II), so the context's scripts fold a twin into
//! its first copy.
//! Plans are what every evaluator but the reference starts from:
//! [`crate::EvalContext`] compiles them further into join scripts for its
//! kernel, and the plan keeps those scripts (see [`RulePlan`]), so every
//! context built over the same plans compiles each script once. The
//! reference, [`crate::naive`], matches rule bodies without plans, so a bug
//! here is one it does not share.

use crate::context::{compile_script, JoinScript};
use datalog_ast::{Atom, Const, Database, Pred, Relation, Rule, Term, Var};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A term in a compiled atom: either a constant or a variable slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    Const(Const),
    Var(usize),
}

/// A compiled atom: predicate plus slots.
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// The number of rows of the relation this atom reads in `db` (its
    /// predicate at its arity).
    pub(crate) fn relation_len(&self, db: &Database) -> usize {
        db.relation_of(self.pred, self.slots.len())
            .map_or(0, Relation::len)
    }
}

/// A compiled rule.
///
/// A plan also keeps the join scripts contexts compile from it (`script`):
/// a script is a pure function of the plan, the delta position it is
/// compiled for and the body order, so every context over the same plans —
/// each §VI test of one `Containment`, each round of one view — compiles a
/// given script once. Nothing outside the plan can make a kept script stale,
/// and a new plan ([`RulePlan::compile`], or a clone) starts with none,
/// which is what invalidates them when `Containment` replaces or removes a
/// rule. The memo is bounded: per delta position (the full round, and each
/// body atom) it keeps the scripts of at most `body.len()` orders, and a
/// position that is full forgets its oldest, so a plan keeps at most
/// `body.len() * (body.len() + 1)` scripts.
///
/// A body literal that repeats an earlier one — same polarity, predicate
/// and terms — is a *twin*. Any match of the body gives a twin its first
/// copy's row, so the context's orders leave twins out
/// (`RulePlan::greedy_order_seeded`): a twin gets no step and no delta
/// task, and a justification gives it its first copy's row.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// Head slots.
    pub head: AtomPlan,
    /// Body atoms, in source order.
    pub body: Vec<AtomPlan>,
    /// The rule's distinct variables, in slot order.
    pub vars: Vec<Var>,
    /// For each variable slot, the body atom of each of its occurrences.
    occurrences: Vec<Vec<usize>>,
    /// For each body atom, the first body atom it is a copy of (itself
    /// unless it is a twin).
    first: Vec<usize>,
    memo: ScriptMemo,
}

/// What a [`RulePlan`] keeps of the scripts compiled from it.
#[derive(Default)]
struct Memo {
    /// The index patterns — `(body atom, bound positions)` — the plan's
    /// scripts probe, numbered in first-compile order. A compiled step
    /// names its pattern by this number (`Step::index`), so a context finds
    /// the step's index by two integers instead of hashing a position list.
    patterns: Vec<(usize, Box<[usize]>)>,
    /// `scripts[0]` holds the full round's scripts, `scripts[p + 1]` those
    /// of the delta at body atom `p`, oldest first.
    scripts: Vec<Vec<Kept>>,
}

/// A kept script and the order it was compiled for.
type Kept = (Box<[usize]>, Arc<JoinScript>);

/// The memo behind a [`RulePlan`], shared (like the plans themselves) by
/// every context over them, which may live on other threads.
#[derive(Default)]
struct ScriptMemo(Mutex<Memo>);

impl ScriptMemo {
    fn lock(&self) -> MutexGuard<'_, Memo> {
        // Every update leaves the memo whole (a script is pushed only once
        // compiled), so a panic elsewhere cannot have left it half-written.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A copy is a new plan: it compiles its own scripts.
impl Clone for ScriptMemo {
    fn clone(&self) -> ScriptMemo {
        ScriptMemo::default()
    }
}

impl std::fmt::Debug for ScriptMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let memo = self.lock();
        f.debug_struct("ScriptMemo")
            .field("patterns", &memo.patterns.len())
            .field("scripts", &memo.scripts.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

/// Reusable buffers for [`RulePlan::greedy_order_seeded`]: the order it
/// computes, and its placement state.
#[derive(Default)]
pub(crate) struct OrderScratch {
    pub(crate) order: Vec<usize>,
    /// The positive atoms not placed yet, in no particular order.
    positive: Vec<usize>,
    /// The negated atoms not placed yet, in body order.
    negated: Vec<usize>,
    bound: Vec<bool>,
    /// Per body atom, how many of its argument positions are bound.
    count: Vec<usize>,
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
        let mut occurrences = vec![Vec::new(); vars.len()];
        for (i, atom) in body.iter().enumerate() {
            for s in &atom.slots {
                if let Slot::Var(v) = *s {
                    occurrences[v].push(i);
                }
            }
        }
        let first = (0..body.len())
            .map(|i| (0..i).find(|&j| body[j] == body[i]).unwrap_or(i))
            .collect();
        RulePlan {
            head,
            body,
            vars,
            occurrences,
            first,
            memo: ScriptMemo::default(),
        }
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The first body atom that body atom `i` is a copy of: `i` itself,
    /// unless `i` is a twin.
    pub(crate) fn first_copy(&self, i: usize) -> usize {
        self.first[i]
    }

    /// Whether body atom `i` repeats an earlier one.
    pub(crate) fn is_twin(&self, i: usize) -> bool {
        self.first[i] != i
    }

    /// A greedy join order of the body without its twins, into
    /// `scratch.order`: repeatedly place the not-yet-placed *positive* atom
    /// with the most bound argument positions (ties: smaller relation
    /// first, by `sizes[i]`, the number of rows body atom `i` reads);
    /// negated atoms are placed as soon as all their variables are bound,
    /// and always after at least one positive atom. `seed` optionally forces
    /// one positive atom to the front: delta-restricted rounds seed with the
    /// delta atom, because the delta relation is the small side, so driving
    /// the join from it avoids rescanning a full persistent relation once
    /// per round per delta position.
    pub(crate) fn greedy_order_seeded(
        &self,
        sizes: &[usize],
        seed: Option<usize>,
        scratch: &mut OrderScratch,
    ) {
        let OrderScratch {
            order,
            positive,
            negated,
            bound,
            count,
        } = scratch;
        order.clear();
        positive.clear();
        negated.clear();
        for (i, atom) in self.body.iter().enumerate() {
            if self.is_twin(i) {
                continue;
            } else if atom.negated {
                negated.push(i);
            } else if Some(i) != seed {
                positive.push(i);
            }
        }
        bound.clear();
        bound.resize(self.num_vars(), false);
        // Constants are bound from the start; a variable's occurrences are
        // counted in the moment it is bound, so no placement rescans a slot.
        count.clear();
        count.extend(self.body.iter().map(|a| {
            let consts = a.slots.iter().filter(|s| matches!(s, Slot::Const(_)));
            consts.count()
        }));
        debug_assert!(
            seed.is_none_or(|i| !self.body[i].negated && !self.is_twin(i)),
            "cannot seed on a negated atom or a twin"
        );
        let mut first = seed;
        while let Some(i) = first
            .take()
            .or_else(|| self.next_atom(sizes, positive, negated, count))
        {
            order.push(i);
            for s in &self.body[i].slots {
                if let Slot::Var(v) = *s {
                    if !bound[v] {
                        bound[v] = true;
                        for &j in &self.occurrences[v] {
                            count[j] += 1;
                        }
                    }
                }
            }
        }
    }

    /// Take the atom the greedy order places next out of the unplaced
    /// `positive` and `negated` atoms, given how many argument positions of
    /// each atom are bound; `None` when every atom is placed.
    fn next_atom(
        &self,
        sizes: &[usize],
        positive: &mut Vec<usize>,
        negated: &mut Vec<usize>,
        count: &[usize],
    ) -> Option<usize> {
        // Prefer any negated atom whose variables are all bound.
        let ready = negated
            .iter()
            .position(|&i| count[i] == self.body[i].slots.len());
        if let Some(k) = ready {
            return Some(negated.remove(k));
        }
        // More bound positions first; among equals, smaller relation first
        // (hence Reverse on size), then the later atom.
        let best = (0..positive.len()).max_by_key(|&k| {
            let i = positive[k];
            (count[i], std::cmp::Reverse(sizes[i]), i)
        });
        match best {
            Some(k) => Some(positive.swap_remove(k)),
            // Only negated atoms left but not all vars bound — unsafe rule;
            // fall back to source order.
            None => (!negated.is_empty()).then(|| negated.remove(0)),
        }
    }

    /// The join script for `order` with the delta at body atom `delta`
    /// (`None`: a full round), compiled on first request and kept (see
    /// [`RulePlan`]).
    pub(crate) fn script(&self, delta: Option<usize>, order: &[usize]) -> Arc<JoinScript> {
        let mut memo = self.memo.lock();
        let Memo { patterns, scripts } = &mut *memo;
        if scripts.is_empty() {
            scripts.resize_with(self.body.len() + 1, Vec::new);
        }
        let kept = &mut scripts[delta.map_or(0, |p| p + 1)];
        if let Some((_, script)) = kept.iter().find(|(o, _)| **o == *order) {
            return Arc::clone(script);
        }
        let script = Arc::new(compile_script(self, order, delta, patterns));
        if kept.len() >= self.body.len().max(1) {
            kept.remove(0);
        }
        kept.push((order.into(), Arc::clone(&script)));
        script
    }

    /// [`RulePlan::script`] compiled afresh and not kept: what the reference
    /// interpreter runs, so that it checks the kept scripts rather than
    /// sharing them.
    pub(crate) fn fresh_script(&self, delta: Option<usize>, order: &[usize]) -> JoinScript {
        compile_script(self, order, delta, &mut self.memo.lock().patterns)
    }
}

/// The number `patterns` gives the index pattern `(atom, positions)`, a new
/// one if it has none yet.
pub(crate) fn pattern_number(
    patterns: &mut Vec<(usize, Box<[usize]>)>,
    atom: usize,
    positions: &[usize],
) -> usize {
    let known = patterns
        .iter()
        .position(|(a, p)| *a == atom && **p == *positions);
    known.unwrap_or_else(|| {
        patterns.push((atom, positions.into()));
        patterns.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_rule};

    #[test]
    fn greedy_order_places_bound_atoms_early() {
        let db = parse_database("a(1,2). b(2,3). b(9,9). c(1).").unwrap();
        let rule = parse_rule("g(X, Z) :- b(Y, Z), c(X), a(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule);
        let sizes: Vec<usize> = plan.body.iter().map(|a| a.relation_len(&db)).collect();
        let mut scratch = OrderScratch::default();
        plan.greedy_order_seeded(&sizes, None, &mut scratch);
        // Nothing is bound at first, so the smaller relations lead (ties: the
        // later atom): a(X, Y) binds X and Y, c(X) is then fully bound and
        // smaller than b, which comes last.
        assert_eq!(scratch.order, vec![2, 1, 0]);
    }
}
