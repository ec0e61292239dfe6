//! Incremental maintenance of a materialised fixpoint.
//!
//! **Insertions** exploit monotonicity (§X uses it explicitly: "adding more
//! atoms to the input does not remove any atom from the output"): the new
//! facts seed a semi-naive delta and only their consequences are computed.
//!
//! **Deletions** are non-monotone and use DRed (delete-and-rederive,
//! Gupta–Mumick–Subrahmanian 1993), as three kinds of round over the same
//! context:
//!
//! 1. *Overdelete*: a delta-driven sweep over the old fixpoint (nothing is
//!    committed) collects every atom with a derivation through a deleted
//!    atom; the set is then removed from the context.
//! 2. *Rederive*: overdeleted atoms that are still asserted (`base` keeps
//!    asserted facts apart from derived atoms) go straight back. The others
//!    seed **one** delta round of *rederivation twins* — for every rule
//!    `h :- body` the context also compiles `h :- h$overdeleted(args), body`,
//!    at the first rederivation, so a view that only inserts (the chase's)
//!    compiles none — whose delta is the overdeleted set under the
//!    `$overdeleted` names.
//!    The seed is the only delta position, so each join starts from one
//!    overdeleted atom and reads nothing but survivors: the round commits
//!    exactly the atoms with a one-step derivation from the surviving
//!    database, and no atom is restored from another overdeleted atom (which
//!    is how a cycle would justify itself).
//! 3. *Propagate*: the restored atoms are an insertion; the insert path
//!    finishes the fixpoint.
//!
//! When overdeletion is near total (one edge of a dense cyclic graph) these
//! are three passes where a recompute is one, so the sweep does not run to
//! the end: once the overdeleted atoms are at least as many as the derived
//! atoms that would survive, checked after every sweep round, the removal
//! saturates the base again on the live context instead — the function
//! [`Materialized::new`] runs, so there is one way to saturate a base. A
//! 32-node ring with chords then costs 1.08x the probes of a from-scratch
//! fixpoint (1.7x with all three passes). A removal below the threshold runs
//! DRed unchanged; cuts that overdelete a fifth to a half of a chain's
//! closure still cost up to 5.6x a recompute (ROADMAP item 12(a)).
//!
//! Every round works on rows: a sweep round drops the heads the overdeleted
//! set holds already, as a committing round drops those the database holds,
//! so it returns exactly the atoms new to the set, as a database. They are
//! appended to the set by the hash tags the round computed
//! ([`Database::append_absent`]), with no `GroundAtom` per atom and no row
//! hashed twice, and they are the next sweep round's delta as they stand.
//! A spent delta goes back to the context (`EvalContext::spend`), whose
//! next round refills its relations. A sweep round runs only the rules
//! whose head relation still has an atom that is not overdeleted — any
//! other rule could only find atoms the set already holds — and the sweep
//! ends when no rule is left, even if the last round found new atoms.
//!
//! The materialisation lives on a persistent [`EvalContext`], so its rule
//! plans are compiled once and its hash indexes survive
//! *across update batches*: an insertion batch appends its consequences
//! into the live indexes, and only a deletion invalidates them (they
//! re-fill lazily).

use crate::context::EvalContext;
use crate::stats::Stats;
use datalog_ast::{Atom, Database, GroundAtom, Literal, Pred, Program, Relation, Rule};
use std::sync::Arc;

/// A materialised fixpoint that can absorb insertions and deletions
/// incrementally.
///
/// ```
/// use datalog_ast::{fact, parse_database, parse_program};
/// use datalog_engine::Materialized;
///
/// let tc = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).",
/// ).unwrap();
/// let mut m = Materialized::new(tc, &parse_database("a(1, 2).").unwrap());
///
/// m.insert([fact("a", [2, 3])]);
/// assert!(m.database().contains(&fact("g", [1, 3])));
///
/// m.remove([fact("a", [1, 2])]);
/// assert!(!m.database().contains(&fact("g", [1, 3])));
/// assert!(m.database().contains(&fact("g", [2, 3])));
/// ```
pub struct Materialized {
    program: Program,
    /// The asserted base facts (EDB and any seeded IDB atoms).
    base: Database,
    /// The persistent context: compiled plans, the saturated database and
    /// live indexes. Plans `0..n` are `program`'s rules; the first removal
    /// that rederives appends their [`rederivation_twin`]s as plans
    /// `n..2n`, so a view that only inserts compiles none.
    cx: EvalContext,
}

impl Clone for Materialized {
    fn clone(&self) -> Materialized {
        Materialized {
            program: self.program.clone(),
            base: self.base.clone(),
            cx: self.cx.fork(),
        }
    }
}

impl std::fmt::Debug for Materialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materialized")
            .field("rules", &self.program.rules.len())
            .field("base_atoms", &self.base.len())
            .field("db_atoms", &self.database().len())
            .finish()
    }
}

impl Materialized {
    /// Saturate `input` under `program` (semi-naive) and keep the result
    /// ready for incremental updates. Positive programs only.
    pub fn new(program: Program, input: &Database) -> Materialized {
        assert!(
            program.is_positive(),
            "incremental maintenance requires a positive program"
        );
        let cx = EvalContext::new(&program, Database::new());
        let mut m = Materialized {
            program,
            base: input.clone(),
            cx,
        };
        m.saturate();
        m
    }

    /// Saturate `base` from scratch on the live context: the database starts
    /// over as `base` (plans, script memo and counters stay), then one full
    /// round and delta rounds to fixpoint. Construction runs it, and so does
    /// a removal that overdeletes at least half the derived atoms.
    fn saturate(&mut self) {
        self.cx.restart(self.base.clone());
        let delta = self.cx.full_round(&all_rules(&self.program));
        self.propagate(delta);
    }

    /// The current fixpoint.
    pub fn database(&self) -> &Database {
        self.cx.database()
    }

    /// A shareable snapshot of the current fixpoint, unchanged by later
    /// [`Materialized::insert`]/[`Materialized::remove`] calls. The context
    /// database is copy-on-write, so a snapshot costs one clone per *write
    /// batch* (at the first mutation after it), not one per reader.
    pub fn snapshot(&self) -> Arc<Database> {
        self.cx.database_arc()
    }

    /// The asserted base facts.
    pub fn base(&self) -> &Database {
        &self.base
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Work counters over the materialisation's whole life.
    pub fn stats(&self) -> Stats {
        self.cx.stats()
    }

    /// Insert facts and propagate their consequences, at a cost proportional
    /// to the consequences of the *delta*, not to the size of the database.
    /// Returns the number of atoms added (new facts plus derived atoms).
    pub fn insert(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> u64 {
        self.insert_with_stats(facts).0
    }

    /// [`Materialized::insert`], also returning this batch's evaluation
    /// statistics.
    pub fn insert_with_stats(
        &mut self,
        facts: impl IntoIterator<Item = GroundAtom>,
    ) -> (u64, Stats) {
        let before = self.stats();

        // Seed delta with the genuinely new facts.
        let mut delta = Database::new();
        for f in facts {
            if self.cx.add_fact(f.pred, &f.tuple) {
                delta.insert_row(f.pred, &f.tuple);
            }
            self.base.insert(f);
        }

        // Delta-driven rounds: any rule whose body mentions a predicate with
        // delta tuples (EDB or IDB — inserted facts may be either) can fire.
        let added = delta.len() as u64 + self.propagate(delta);
        (added, self.stats() - before)
    }

    /// Run delta rounds from `delta` to fixpoint; returns the number of
    /// atoms derived.
    fn propagate(&mut self, mut delta: Database) -> u64 {
        let rules = all_rules(&self.program);
        let mut derived = 0;
        while !delta.is_empty() {
            let next = self.cx.delta_round(&rules, &delta);
            derived += next.len() as u64;
            self.cx.spend(std::mem::replace(&mut delta, next));
        }
        derived
    }

    /// Delete base facts and propagate (DRed: overdelete, then rederive — or
    /// saturate the base again once the overdeletion reaches half the
    /// derived atoms). Returns the net number of atoms removed from the
    /// fixpoint.
    pub fn remove(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> u64 {
        self.remove_with_stats(facts).0
    }

    /// [`Materialized::remove`], also returning this batch's work counters
    /// (sweep and rederivation alike).
    pub fn remove_with_stats(
        &mut self,
        facts: impl IntoIterator<Item = GroundAtom>,
    ) -> (u64, Stats) {
        let before = self.stats();
        let rules = all_rules(&self.program);

        // Phase 1 — overdelete. `overdeleted` accumulates every atom with
        // some derivation (over the OLD fixpoint) passing through a deleted
        // or overdeleted atom. The sweep never commits, so the context
        // database *is* the old fixpoint throughout — no snapshot clone.
        let mut delta = Database::new();
        for f in facts {
            if self.base.remove(&f) && self.database().contains(&f) {
                delta.insert(f);
            }
        }
        if delta.is_empty() {
            return (0, Stats::default());
        }
        let mut overdeleted = delta.clone();
        let old_len = self.database().len();
        // Once the overdeleted atoms are at least as many as the derived
        // atoms that would survive them, rederiving and propagating cost more
        // than saturating the base again, and the view does that instead. The
        // set only grows, so the sweep stops the round the test first holds.
        let derived = old_len - self.base.len();
        let resaturates = |od: &Database| 2 * od.len() >= derived;
        let mut live = rules.clone();
        while !delta.is_empty() && !resaturates(&overdeleted) {
            // A rule whose head relation is overdeleted whole can only find
            // atoms the set already holds: it sits out, and once every rule
            // does, nothing is left to find.
            live.retain(|&r| {
                let head = &self.program.rules[r].head;
                let len = |db: &Database| {
                    db.relation_of(head.pred, head.arity())
                        .map_or(0, Relation::len)
                };
                len(&overdeleted) < len(self.database())
            });
            if live.is_empty() {
                break;
            }
            // The round returns only atoms the set does not hold yet: they
            // join it, and they are the next round's delta as they stand.
            let swept = self.cx.sweep_round(&live, &delta, &overdeleted);
            for pred in swept.predicates() {
                for rel in swept.relations_of(pred) {
                    overdeleted.append_absent(pred, rel);
                }
            }
            self.cx.spend(std::mem::replace(&mut delta, swept));
        }
        self.cx.spend(delta);
        if resaturates(&overdeleted) {
            self.saturate();
        } else {
            self.rederive(&overdeleted);
        }
        let removed = old_len - self.database().len();
        (removed as u64, self.stats() - before)
    }

    /// DRed's rounds 2 and 3: take `overdeleted` out of the context, restore
    /// what the survivors derive in one step, and propagate from there.
    fn rederive(&mut self, overdeleted: &Database) {
        // DRed's one operation that invalidates the live indexes.
        self.cx.remove_atoms(overdeleted);

        // Round 2 — rederive, one step. Overdeleted atoms still in the base
        // come straight back; the rest seed one delta round of the twins,
        // which joins each against the *surviving* database only and so
        // commits exactly those with a derivation that needs no other
        // overdeleted atom (one restored from another would let a cycle
        // justify itself).
        let n = self.program.rules.len();
        if self.cx.plans() == n {
            let twins = (self.program.rules.iter())
                .map(|r| rederivation_twin(r, overdeleted_pred(r.head.pred)));
            self.cx.append_plans(twins.collect());
        }
        // A predicate no rule derives has no twin to seed.
        let derived = self.program.intentional();
        let mut restored = Database::new();
        let mut seeds = Database::new();
        for pred in overdeleted.predicates() {
            let seed = derived.contains(&pred).then(|| overdeleted_pred(pred));
            for row in overdeleted
                .relations_of(pred)
                .iter()
                .flat_map(Relation::rows)
            {
                if self.base.contains_tuple(pred, row) {
                    self.cx.add_fact(pred, row);
                    restored.insert_row(pred, row);
                } else if let Some(seed) = seed {
                    seeds.insert_row(seed, row);
                }
            }
        }
        let twins: Vec<usize> = (n..2 * n).collect();
        restored.union_with(&self.cx.delta_round(&twins, &seeds));

        // Round 3 — whatever the restored atoms re-enable is an insertion.
        self.propagate(restored);
    }
}

fn all_rules(program: &Program) -> Vec<usize> {
    (0..program.rules.len()).collect()
}

/// The predicate holding the overdeleted `pred` atoms during rederivation.
/// `$` cannot come out of the parser, so it names no program predicate.
fn overdeleted_pred(pred: Pred) -> Pred {
    Pred::new(&format!("{pred}$overdeleted"))
}

/// `h :- body` restricted to the overdeleted instances of its head:
/// `h :- h$overdeleted(args of h), body`, where `seed` is `h$overdeleted`.
/// In a delta round whose delta holds only `$overdeleted` atoms the seed is
/// the one delta position, so it drives the join and every other body atom
/// reads the context database.
fn rederivation_twin(rule: &Rule, seed: Pred) -> Rule {
    let seed = Atom::new(seed, rule.head.terms.clone());
    let body = std::iter::once(Literal::pos(seed)).chain(rule.body.iter().cloned());
    Rule::new(rule.head.clone(), body.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use datalog_ast::{fact, parse_database, parse_program, Pred};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn saturation_and_inserts_match_from_scratch() {
        let edb = parse_database("a(1,2). a(2,3). a(4,1). a(4,5).").unwrap();
        let full_edb = parse_database("a(1,2). a(2,3). a(4,1). a(4,5). a(3,4). a(5,6).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        assert_eq!(m.database(), &evaluate(&tc(), &edb).unwrap().0);

        m.insert([fact("a", [3, 4]), fact("a", [5, 6])]);
        let scratch = evaluate(&tc(), &full_edb).unwrap().0;
        assert_eq!(m.database(), &scratch);
    }

    #[test]
    fn duplicate_inserts_are_noops() {
        let edb = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let added = m.insert([fact("a", [1, 2]), fact("g", [1, 2])]);
        assert_eq!(added, 0);
    }

    #[test]
    fn inserting_idb_facts_propagates() {
        // Uniform semantics: a seeded g-atom composes with existing ones.
        let edb = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let added = m.insert([fact("g", [2, 7])]);
        assert!(added >= 2); // g(2,7) itself plus g(1,7)
        assert!(m.database().contains(&fact("g", [1, 7])));
    }

    #[test]
    fn bridge_edge_connects_components() {
        // Two chains; the inserted bridge must produce all cross pairs.
        let edb = parse_database("a(1,2). a(2,3). a(11,12). a(12,13).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let before = m.database().relation_len(Pred::new("g"));
        m.insert([fact("a", [3, 11])]);
        let after = m.database().relation_len(Pred::new("g"));
        assert!(after > before + 1);
        assert!(m.database().contains(&fact("g", [1, 13])));

        let full = parse_database("a(1,2). a(2,3). a(11,12). a(12,13). a(3,11).").unwrap();
        assert_eq!(m.database(), &evaluate(&tc(), &full).unwrap().0);
    }

    #[test]
    fn incremental_work_is_delta_proportional() {
        // Insert one edge at the END of a long chain under the LEFT-linear
        // program: a(n, n+1) only creates suffix→(n+1) pairs via single
        // firings; the delta work must be far below recomputation.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let n = 60i64;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&src).unwrap();
        let mut m = Materialized::new(p.clone(), &edb);
        let (_, inc_stats) = m.insert_with_stats([fact("a", [n, n + 1])]);

        let mut full_src = src;
        full_src.push_str(&format!("a({}, {}).", n, n + 1));
        let full_edb = parse_database(&full_src).unwrap();
        let (scratch, full_stats) = evaluate(&p, &full_edb).unwrap();
        assert_eq!(m.database(), &scratch);
        assert!(
            inc_stats.matches * 4 < full_stats.matches,
            "incremental {} vs full {}",
            inc_stats.matches,
            full_stats.matches
        );
    }

    #[test]
    fn insert_batches_reuse_indexes() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let builds_after_init = m.stats().index_builds;
        let (_, s1) = m.insert_with_stats([fact("a", [3, 4])]);
        let (_, s2) = m.insert_with_stats([fact("a", [4, 5])]);
        // Monotone batches never rebuild: they append into the indexes the
        // initial saturation built.
        assert_eq!(s1.index_builds + s2.index_builds, 0);
        assert_eq!(m.stats().index_builds, builds_after_init);
        assert!(s1.index_appends > 0);
    }

    #[test]
    fn snapshots_are_immutable_and_cached() {
        let edb = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let s1 = m.snapshot();
        let s1_again = m.snapshot();
        assert!(Arc::ptr_eq(&s1, &s1_again), "cached between batches");

        m.insert([fact("a", [2, 3])]);
        // The old snapshot is frozen; a new one sees the update.
        assert!(!s1.contains(&fact("g", [1, 3])));
        let s2 = m.snapshot();
        assert!(s2.contains(&fact("g", [1, 3])));
        assert!(!Arc::ptr_eq(&s1, &s2));

        m.remove([fact("a", [1, 2])]);
        assert!(s2.contains(&fact("g", [1, 2])), "frozen across removes too");
        assert!(!m.snapshot().contains(&fact("g", [1, 2])));
    }

    #[test]
    fn repeated_inserts_stay_consistent() {
        let mut m = Materialized::new(tc(), &Database::new());
        for i in 0..10i64 {
            m.insert([fact("a", [i, i + 1])]);
        }
        let full: String = (0..10).map(|i| format!("a({}, {}).", i, i + 1)).collect();
        let scratch = evaluate(&tc(), &parse_database(&full).unwrap()).unwrap().0;
        assert_eq!(m.database(), &scratch);
    }

    #[test]
    fn a_clone_diverges_from_its_original_and_keeps_its_counters() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let original = Materialized::new(tc(), &edb);
        let mut copy = original.clone();
        assert_eq!(copy.stats(), original.stats());
        copy.insert([fact("a", [3, 4])]);
        assert!(copy.database().contains(&fact("g", [1, 4])));
        assert!(!original.database().contains(&fact("g", [1, 4])));
        assert!(copy.stats().derivations > original.stats().derivations);
    }

    #[test]
    fn only_a_view_that_rederives_compiles_the_twins() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        m.insert([fact("a", [4, 5])]);
        assert_eq!(m.cx.plans(), 2, "an insert-only view holds its n rules");
        // A clone shares the plans until its removal of a(4, 5), which
        // overdeletes 4 of 10 derived atoms and rederives.
        let mut copy = m.clone();
        copy.remove([fact("a", [4, 5])]);
        assert_eq!(copy.cx.plans(), 4, "rederivation appends the n twins");
        assert_eq!(m.cx.plans(), 2, "to the clone's own copy of the plans");
        copy.remove([fact("a", [3, 4])]);
        assert_eq!(copy.cx.plans(), 4, "once");
        assert_eq!(copy.database(), &evaluate(&tc(), copy.base()).unwrap().0);
        m.remove([fact("a", [4, 5])]);
        assert_eq!(m.database(), &evaluate(&tc(), m.base()).unwrap().0);
    }

    #[test]
    fn the_counter_script_does_pinned_join_work() {
        // Saturate a 6-edge graph with a cycle, insert three facts (one a
        // seeded IDB atom), remove two edges. The script's join work is
        // pinned exactly: a change here means the maintenance path joins
        // differently. (405 probes before the first full round stopped
        // scheduling `g :- g, g` over a database that has no `g` row yet;
        // (404, 1298) and 17 rounds before the sweep stopped running rules
        // whose head relation is overdeleted whole: the sweep round that
        // started with every `g` atom overdeleted is gone; (342, 888) before
        // committing delta rounds kept the literals ahead of the delta
        // literal to the old rows, so no match is found twice; (342, 792, 69,
        // 10) before the second removal, which overdeletes 15 of 21 derived
        // atoms, stopped its sweep and saturated the base again.)
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,1). a(4,5). a(5,6).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        m.insert([fact("a", [6, 7]), fact("a", [7, 1]), fact("g", [9, 1])]);
        m.remove([fact("a", [2, 3]), fact("a", [5, 6])]);
        assert_eq!(m.database().len(), 21);
        let s = m.stats();
        assert_eq!(
            (s.probes, s.matches, s.derivations, s.index_builds),
            (224, 792, 69, 8)
        );
        assert_eq!(s.iterations, 16);
    }
}

#[cfg(test)]
mod deletion_tests {
    use super::*;
    use crate::evaluate;
    use datalog_ast::{fact, parse_database, parse_program, Pred, Program};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    fn scratch(p: &Program, base: &Database) -> Database {
        evaluate(p, base).unwrap().0
    }

    #[test]
    fn remove_edge_from_chain() {
        let base = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut expected_base = base.clone();
        expected_base.remove(&fact("a", [2, 3]));
        let mut m = Materialized::new(tc(), &base);
        let removed = m.remove([fact("a", [2, 3])]);
        assert_eq!(removed, 5, "edge plus dependent closure atoms");
        assert_eq!(m.database(), &scratch(&tc(), &expected_base));
        assert!(!m.database().contains(&fact("g", [1, 4])));
        assert!(m.database().contains(&fact("g", [3, 4])));
    }

    #[test]
    fn rederivation_via_alternative_path() {
        // Two parallel paths 1→2; deleting one keeps g(1,2) derivable.
        let base = parse_database("a(1,2). a(1,9). a(9,2). a(2,3).").unwrap();
        let mut eb = base.clone();
        eb.remove(&fact("a", [1, 2]));
        let mut m = Materialized::new(tc(), &base);
        m.remove([fact("a", [1, 2])]);
        assert_eq!(m.database(), &scratch(&tc(), &eb));
        // g(1,2) survives through 1→9→2.
        assert!(m.database().contains(&fact("g", [1, 2])));
        assert!(m.database().contains(&fact("g", [1, 3])));
    }

    /// Replay `steps` (`-` removes the facts, `+` inserts them): after each
    /// batch the view is the from-scratch fixpoint of the base. Returns the
    /// final fixpoint.
    fn replay(p: &Program, base: &str, steps: &[(char, &str)]) -> Database {
        let mut base = parse_database(base).unwrap();
        let mut m = Materialized::new(p.clone(), &base);
        for (i, &(op, facts)) in steps.iter().enumerate() {
            let facts: Vec<GroundAtom> = parse_database(facts).unwrap().iter().collect();
            if op == '-' {
                for f in &facts {
                    base.remove(f);
                }
                m.remove(facts);
            } else {
                base.extend(facts.iter().cloned());
                m.insert(facts);
            }
            assert_eq!(m.base(), &base, "step {i}");
            assert_eq!(m.database(), &scratch(p, &base), "step {i}");
        }
        m.database().clone()
    }

    fn reach() -> Program {
        parse_program("r(X) :- src(X). r(Y) :- r(X), e(X, Y).").unwrap()
    }

    #[test]
    fn a_cycle_that_loses_its_outside_support_vanishes() {
        // r(1) and r(2) derive each other around 1 -> 2 -> 1; once 0 -> 1 is
        // gone neither may be restored from the other, both overdeleted.
        let out = replay(
            &reach(),
            "src(0). e(0,1). e(1,2). e(2,1). e(2,3).",
            &[('-', "e(0,1).")],
        );
        assert_eq!(out.relation_len(Pred::new("r")), 1, "only r(0) is left");
    }

    #[test]
    fn an_overdeleted_base_atom_returns_with_its_consequences() {
        // g(1,2) is derived from a(1,2) *and* asserted: removing the edge
        // overdeletes it, the base brings it back, and g(1,3) with it.
        let out = replay(&tc(), "a(1,2). g(1,2). a(2,3).", &[('-', "a(1,2).")]);
        assert!(out.contains(&fact("g", [1, 2])) && out.contains(&fact("g", [1, 3])));
        // Once it is retracted too, both go.
        let out = replay(
            &tc(),
            "a(1,2). g(1,2). a(2,3).",
            &[('-', "a(1,2)."), ('-', "g(1,2).")],
        );
        assert!(!out.contains(&fact("g", [1, 2])) && !out.contains(&fact("g", [1, 3])));
    }

    #[test]
    fn restoration_cascades_through_restored_atoms() {
        // Without 0 -> 1, r(1) still has 0 -> 5 -> 1 over survivors, but
        // r(2) and r(3) hang off r(1) alone: the rederivation round cannot
        // restore them (r(1) is not a survivor), propagation must.
        let out = replay(
            &reach(),
            "src(0). e(0,1). e(0,5). e(5,1). e(1,2). e(2,3).",
            &[('-', "e(0,1)."), ('+', "e(0,1)."), ('-', "e(5,1). e(0,1).")],
        );
        assert_eq!(out.relation_len(Pred::new("r")), 2, "r(0) and r(5)");
    }

    #[test]
    fn removing_the_only_fact_of_a_predicate_skips_no_round_that_reads_it_as_delta() {
        // `gate(1)` is the only `gate` fact. The sweep reads it as the delta
        // literal of the second rule, and the rederivation round reads
        // `r$overdeleted`, which never has a row in the database: neither
        // item may be dropped as "cannot fire". Afterwards `gate` is empty,
        // so the second rule's twin rightly is — r(2) and r(3) come back
        // through `f` alone, r(4) does not.
        let p =
            parse_program("r(X) :- src(X). r(Y) :- r(X), e(X, Y), gate(X). r(Y) :- r(X), f(X, Y).")
                .unwrap();
        let base = "src(1). gate(1). e(1,2). e(1,4). f(1,2). f(2,3).";
        let out = replay(&p, base, &[('-', "gate(1).")]);
        assert_eq!(out.relation_len(Pred::new("r")), 3, "r(1), r(2), r(3)");
        let steps = [
            ('-', "gate(1)."),
            ('+', "gate(1)."),
            ('-', "gate(1). f(1,2)."),
        ];
        let out = replay(&p, base, &steps);
        assert_eq!(out.relation_len(Pred::new("r")), 1, "r(1)");
    }

    #[test]
    fn every_head_shape_has_a_working_twin() {
        // A constant and a repeated variable in a head, a bodiless fact
        // rule, a body naming its head predicate twice, a 9-column head.
        let p = parse_program(
            "a(7, 8).
             g(X, Z) :- a(X, Z).
             g(X, Z) :- g(X, Y), g(Y, Z).
             flag(X, 1) :- g(X, X).
             diag(X, X) :- g(X, Y), mark(Y).
             w(A, B, C, D, E, F, G, H, I) :- p(A, B, C, D, E, F, G, H, I), mark(A).
             w(A, B, C, D, E, F, G, H, I) :- q(A, B, C, D, E, F, G, H, I).",
        )
        .unwrap();
        let out = replay(
            &p,
            "a(7,8). a(8,7). a(8,9). a(9,8). mark(7). mark(8).
             p(7,2,3,4,5,6,7,8,9). q(7,2,3,4,5,6,7,8,9). p(8,2,3,4,5,6,7,8,9).",
            &[
                // Asserted and a program fact: the fact rule's twin restores it.
                ('-', "a(7,8)."),
                // One of two supports of the same 9-column head, then a sole one.
                ('-', "mark(7)."),
                ('-', "mark(8). a(9,8)."),
                ('+', "mark(9). a(9,9)."),
                ('-', "a(8,7). q(7,2,3,4,5,6,7,8,9)."),
            ],
        );
        assert!(
            out.contains(&fact("a", [7, 8])),
            "the program still states it"
        );
        assert!(out.contains(&fact("diag", [8, 8])) && out.contains(&fact("flag", [9, 1])));
        assert!(!out.contains(&fact("flag", [7, 1])));
        assert_eq!(out.relation_len(Pred::new("w")), 0);
    }

    #[test]
    fn the_twins_stay_inside_the_contexts() {
        // What `install` replies, lints, `core::chase` and the service's
        // arity check read is the installed program, and no `$overdeleted`
        // atom outlives the round that reads it.
        let base = parse_database("a(1,2). a(2,3). a(3,1).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        m.remove([fact("a", [2, 3])]);
        assert_eq!(m.program(), &tc());
        for db in [m.database(), m.base()] {
            assert!(db.predicates().all(|p| !p.name().contains('$')));
        }
    }

    #[test]
    fn remove_nonexistent_is_noop() {
        let base = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        let before = m.database().clone();
        assert_eq!(m.remove([fact("a", [7, 8])]), 0);
        // Removing a derived (non-base) atom is also a no-op.
        assert_eq!(m.remove([fact("g", [1, 2])]), 0);
        assert_eq!(m.database(), &before);
    }

    #[test]
    fn remove_and_reinsert_round_trips() {
        let base = parse_database("a(1,2). a(2,3). a(3,4). a(4,5).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        let original = m.database().clone();
        m.remove([fact("a", [3, 4])]);
        m.insert([fact("a", [3, 4])]);
        assert_eq!(m.database(), &original);
    }

    #[test]
    fn seeded_idb_fact_can_be_removed() {
        let base = parse_database("a(1,2). g(2, 9).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        assert!(m.database().contains(&fact("g", [1, 9])));
        m.remove([fact("g", [2, 9])]);
        let eb = parse_database("a(1,2).").unwrap();
        assert_eq!(m.database(), &scratch(&tc(), &eb));
        assert!(!m.database().contains(&fact("g", [1, 9])));
    }

    #[test]
    fn random_mutation_stream_matches_scratch_at_every_step() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base = Database::new();
            for _ in 0..25 {
                base.insert(fact("a", [rng.gen_range(0..8), rng.gen_range(0..8)]));
            }
            let mut m = Materialized::new(p.clone(), &base);
            // Interleave deletions and insertions.
            for step in 0..12 {
                let x = rng.gen_range(0..8);
                let y = rng.gen_range(0..8);
                let f = fact("a", [x, y]);
                if step % 3 == 0 {
                    base.insert(f.clone());
                    m.insert([f]);
                } else {
                    base.remove(&f);
                    m.remove([f]);
                }
                assert_eq!(
                    m.database(),
                    &evaluate(&p, &base).unwrap().0,
                    "seed {seed} step {step}"
                );
            }
        }
    }

    #[test]
    fn deletion_work_is_delta_proportional_on_far_edge() {
        // Delete the LAST edge of a long chain (left-linear program):
        // overdeletion touches only pairs ending at the tail.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let n = 60i64;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let base = parse_database(&src).unwrap();
        let mut m = Materialized::new(p.clone(), &base);
        let (_, del_stats) = m.remove_with_stats([fact("a", [n - 1, n])]);

        let mut eb = base.clone();
        eb.remove(&fact("a", [n - 1, n]));
        let (scratch_db, scratch_stats) = evaluate(&p, &eb).unwrap();
        assert_eq!(m.database(), &scratch_db);
        assert!(
            del_stats.matches < scratch_stats.matches,
            "incremental deletion {} vs recompute {}",
            del_stats.matches,
            scratch_stats.matches
        );
        assert!(
            del_stats.probes < scratch_stats.probes,
            "incremental deletion {} vs recompute {} probes",
            del_stats.probes,
            scratch_stats.probes
        );
    }

    #[test]
    fn remove_on_a_cycle_costs_a_few_recomputes() {
        // A 32-node ring with chords is one strongly connected component:
        // removing any edge overdeletes the whole closure, the worst case
        // for DRed. Sweep, rederivation round and propagation would be three
        // passes over what a recompute does in one; the sweep instead stops
        // once half the derived atoms are overdeleted and the base is
        // saturated again, so the removal costs the sweep's first rounds on
        // top of one recompute. (2 708 probes against a 1 553-probe
        // recompute while DRed ran all three passes; 4 632 while the sweep
        // ran one more round over the wholly overdeleted closure.)
        let n = 32i64;
        let mut base = Database::new();
        for i in 0..n {
            base.insert(fact("a", [i, (i + 1) % n]));
            if i % 4 == 0 {
                base.insert(fact("a", [i, (i * 7 + 3) % n]));
            }
        }
        let mut m = Materialized::new(tc(), &base);
        let (_, del_stats) = m.remove_with_stats([fact("a", [5, 6])]);

        base.remove(&fact("a", [5, 6]));
        let (scratch_db, scratch_stats) = evaluate(&tc(), &base).unwrap();
        assert_eq!(m.database(), &scratch_db);
        assert!(
            del_stats.probes * 4 <= scratch_stats.probes * 5,
            "remove {} vs recompute {} probes",
            del_stats.probes,
            scratch_stats.probes
        );
    }

    /// A daemon's view under the benchmark's serve-mixed write pattern: a
    /// 16-node chain with a skip edge from every fourth node, 8 transient
    /// edges inserted a round (most hang a leaf off a core node), and every
    /// second round the removal of a long-lived edge together with all but
    /// the last two rounds' transient edges — the long-lived edge going back
    /// first in the next round. Over 1 000 rounds the view is the
    /// from-scratch fixpoint after every batch, and its context never holds
    /// more spare relations than the head relations its plans derive.
    #[test]
    fn a_serve_shaped_churn_stays_exact_and_bounded() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = tc();
        let core = 16i64;
        let mut chain: Vec<GroundAtom> = (1..core).map(|i| fact("a", [i - 1, i])).collect();
        chain.extend((0..core - 3).step_by(4).map(|i| fact("a", [i, i + 3])));
        let mut base: Database = chain.iter().cloned().collect();
        let mut m = Materialized::new(p.clone(), &base);
        let heads: std::collections::BTreeSet<_> = (p.rules.iter())
            .map(|r| (r.head.pred, r.head.arity()))
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut transient: std::collections::VecDeque<Vec<GroundAtom>> = Default::default();
        let mut reinsert: Option<GroundAtom> = None;
        let mut most_spares = 0;
        for round in 0..1_000 {
            let mut batches: Vec<(bool, Vec<GroundAtom>)> = Vec::new();
            batches.extend(reinsert.take().map(|f| (true, vec![f])));
            let mut fresh = Vec::new();
            while fresh.len() < 8 {
                let from = rng.gen_range(0..core);
                let to = if rng.gen_bool(0.75) {
                    core + rng.gen_range(0..64)
                } else {
                    rng.gen_range(0..core)
                };
                let f = fact("a", [from, to]);
                if from != to && !base.contains(&f) && !fresh.contains(&f) {
                    fresh.push(f);
                }
            }
            transient.push_back(fresh.clone());
            batches.push((true, fresh));
            if round % 2 == 1 {
                let victim = chain[rng.gen_range(0..chain.len())].clone();
                reinsert = Some(victim.clone());
                let mut gone = vec![victim];
                while transient.len() > 2 {
                    gone.extend(transient.pop_front().unwrap());
                }
                batches.push((false, gone));
            }
            for (insert, facts) in batches {
                if insert {
                    base.extend(facts.iter().cloned());
                    m.insert(facts);
                } else {
                    for f in &facts {
                        base.remove(f);
                    }
                    m.remove(facts);
                }
                assert_eq!(m.database(), &scratch(&p, &base), "round {round}");
                assert!(m.cx.spares() <= heads.len(), "round {round}");
                most_spares = most_spares.max(m.cx.spares());
            }
        }
        assert_eq!(most_spares, heads.len(), "the head relation has its spare");
    }

    #[test]
    fn a_removal_resaturates_once_it_overdeletes_half_the_derived_atoms() {
        // A 64-node chain under doubling TC has 2 016 closure atoms. Cutting
        // the last or the first edge overdeletes 63 of them: DRed runs, at
        // its exact probes. Cutting the middle one overdeletes 1 024: the
        // view saturates the base again at about a recompute's probes, where
        // DRed's three passes took 19 977 against a 1 997-probe recompute.
        let n = 64i64;
        let base: Database = (0..n - 1).map(|i| fact("a", [i, i + 1])).collect();
        let view = Materialized::new(tc(), &base);
        let cut = |i: i64| {
            let edge = fact("a", [i, i + 1]);
            let mut m = view.clone();
            let (_, stats) = m.remove_with_stats([edge.clone()]);
            let mut rest = base.clone();
            rest.remove(&edge);
            let (db, recompute) = evaluate(&tc(), &rest).unwrap();
            assert_eq!(m.database(), &db, "cut {i}");
            (stats.probes, recompute.probes)
        };
        assert_eq!(cut(n - 2).0, 259, "far edge");
        assert_eq!(cut(0).0, 2_212, "near edge");
        let (middle, recompute) = cut(n / 2 - 1);
        assert!(
            middle * 10 <= recompute * 11,
            "middle edge {middle} vs recompute {recompute} probes"
        );
        let (removed, empty) = view.clone().remove_with_stats([]);
        assert_eq!((removed, empty.iterations, empty.probes), (0, 0, 0));
    }
}
