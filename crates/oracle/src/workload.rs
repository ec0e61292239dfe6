//! Fuzz-case generation: seeded (program, database, queries, mutations)
//! workloads.
//!
//! A [`Case`] carries everything any of the oracle families could need;
//! each family reads the parts relevant to it (the engine matrix uses
//! `program`/`db`/`queries`, the optimization oracle `program`/`db`, the
//! incremental oracle `program`/`db`/`mutations`, the view-query
//! oracle all four — queries interleaved with mutations — and the
//! concurrent-service oracle races *interleaving-independent* mutations
//! from several client threads). Generation is
//! deterministic per `(seed, family)` — the same seed always reproduces the
//! same case, which is what makes a divergence report actionable.
//!
//! Databases are *IDB-seeded* with some probability: the paper's uniform
//! equivalence (§IV) quantifies over databases that may already contain
//! facts for intentional predicates, and several historical bugs (magic/QSQ
//! ignoring seeded IDB facts, DRed base-fact tracking) only surface there.

use crate::oracles::Family;
use datalog_ast::{Atom, Const, Database, GroundAtom, Pred, Program, Rule, Term, Var};
use datalog_generate::{
    inject, random_db, random_program, random_stratified_program, same_generation,
    transitive_closure, RandomProgramSpec, TcVariant,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One batch of an incremental-maintenance interleaving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert these facts (base EDB facts or seeded IDB facts).
    Insert(Vec<GroundAtom>),
    /// Remove these facts from the asserted base.
    Remove(Vec<GroundAtom>),
}

impl Mutation {
    pub fn facts(&self) -> &[GroundAtom] {
        match self {
            Mutation::Insert(fs) | Mutation::Remove(fs) => fs,
        }
    }

    pub fn facts_mut(&mut self) -> &mut Vec<GroundAtom> {
        match self {
            Mutation::Insert(fs) | Mutation::Remove(fs) => fs,
        }
    }

    pub fn is_insert(&self) -> bool {
        matches!(self, Mutation::Insert(_))
    }
}

/// A self-contained differential-testing case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// The oracle family this case exercises.
    pub family: Family,
    /// The seed it was generated from (0 for hand-written fixtures).
    pub seed: u64,
    pub program: Program,
    /// The initial database (may seed IDB predicates).
    pub db: Database,
    /// Adorned queries for the magic-sets differential (engine family).
    pub queries: Vec<Atom>,
    /// Insert/remove interleaving (incremental family).
    pub mutations: Vec<Mutation>,
}

/// All predicates of a program with their arities, EDB and IDB alike.
/// Arities are read off the rules, so they are consistent by construction.
pub(crate) fn pred_arities(program: &Program) -> Vec<(Pred, usize)> {
    let mut seen: BTreeSet<Pred> = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |p: Pred, arity: usize, seen: &mut BTreeSet<Pred>| {
        if seen.insert(p) {
            out.push((p, arity));
        }
    };
    for rule in &program.rules {
        push(rule.head.pred, rule.head.terms.len(), &mut seen);
        for lit in &rule.body {
            push(lit.atom.pred, lit.atom.terms.len(), &mut seen);
        }
    }
    out
}

/// Generate the case for `(seed, family)`.
pub fn generate(seed: u64, family: Family) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut program = pick_program(&mut rng, family);
    if family == Family::ConcurrentService {
        // This family installs the program through the real text protocol,
        // so it must survive a render → parse round trip; redundancy
        // injection's reserved `$`-namespace variables are unparseable by
        // design and get plain source names here.
        program = unreserve_vars(&program);
    }
    let db = pick_db(&mut rng, &program);
    let wants_queries = matches!(
        family,
        Family::Engines | Family::ViewQuery | Family::ConcurrentService | Family::Metamorphic
    );
    let queries = if wants_queries && program.is_positive() {
        pick_queries(&mut rng, &program, &db)
    } else {
        Vec::new()
    };
    let mutations = match family {
        Family::Incremental | Family::ViewQuery => pick_mutations(&mut rng, &program, &db),
        Family::ConcurrentService => pick_service_mutations(&mut rng, &program, &db),
        _ => Vec::new(),
    };
    Case {
        family,
        seed,
        program,
        db,
        queries,
        mutations,
    }
}

fn pick_program(rng: &mut StdRng, family: Family) -> Program {
    // The engine matrix also exercises stratified negation; the other
    // families require positive programs (minimization, Materialized, the
    // top-down query engines, and the service's views are positive-only).
    let stratified_ok = family == Family::Engines;
    loop {
        let p = match rng.gen_range(0..10u32) {
            0 => transitive_closure(TcVariant::Doubling),
            1 => transitive_closure(TcVariant::LeftLinear),
            2 => transitive_closure(TcVariant::RightLinear),
            3 => transitive_closure(TcVariant::GuardedDoubling),
            4 => same_generation(),
            5 if stratified_ok => random_stratified_program(
                rng.gen_range(2..4),
                rng.gen_range(1..3),
                rng.gen::<u64>(),
            ),
            // Redundancy-injected variants of the named programs: more
            // rules, unfoldings, specialized instances.
            6 => {
                let base = transitive_closure(TcVariant::Doubling);
                inject(&base, rng.gen_range(1..4), rng.gen::<u64>()).0
            }
            _ => {
                let spec = RandomProgramSpec {
                    edb: vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)],
                    idb: vec![("p".into(), 2), ("q".into(), 1)],
                    rules: rng.gen_range(2..7),
                    body_len: (1, 3),
                    var_pool: rng.gen_range(3..6),
                };
                random_program(&spec, rng.gen::<u64>())
            }
        };
        if p.is_positive() || stratified_ok {
            return p;
        }
    }
}

fn pick_db(rng: &mut StdRng, program: &Program) -> Database {
    let domain: i64 = rng.gen_range(3..7);
    let idb = program.intentional();
    let mut db = Database::new();
    for (pred, arity) in pred_arities(program) {
        // EDB predicates always get tuples; IDB predicates are seeded with
        // probability 1/2 (the uniform-equivalence regime), with fewer
        // tuples so derived closure stays small.
        let tuples = if idb.contains(&pred) {
            if rng.gen_bool(0.5) {
                rng.gen_range(1..3)
            } else {
                0
            }
        } else {
            rng.gen_range(1..8)
        };
        for _ in 0..tuples {
            let tuple: Vec<Const> = (0..arity)
                .map(|_| Const::Int(rng.gen_range(0..domain)))
                .collect();
            db.insert(GroundAtom {
                pred,
                tuple: tuple.into(),
            });
        }
    }
    db
}

/// Random adorned queries: each position independently a constant (drawn
/// from the database's active domain), a fresh variable, or a repeat of an
/// earlier variable — covering bound/free mixes and repeated variables.
fn pick_queries(rng: &mut StdRng, program: &Program, db: &Database) -> Vec<Atom> {
    let mut domain: Vec<Const> = db.active_domain().into_iter().collect();
    if domain.is_empty() {
        domain.push(Const::Int(0));
    }
    // Mostly IDB predicates; occasionally an EDB predicate (the fixpoint
    // contains the input, so EDB queries must work too).
    let idb = program.intentional();
    let all = pred_arities(program);
    let mut preferred: Vec<(Pred, usize)> = all
        .iter()
        .copied()
        .filter(|(p, _)| idb.contains(p))
        .collect();
    if preferred.is_empty() {
        preferred = all.clone();
    }
    let n = rng.gen_range(1..4);
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let (pred, arity) = if rng.gen_bool(0.85) {
            preferred[rng.gen_range(0..preferred.len())]
        } else {
            all[rng.gen_range(0..all.len())]
        };
        let mut vars: Vec<Var> = Vec::new();
        let terms: Vec<Term> = (0..arity)
            .map(|i| match rng.gen_range(0..3u32) {
                0 => Term::Const(domain[rng.gen_range(0..domain.len())]),
                1 if !vars.is_empty() => Term::Var(vars[rng.gen_range(0..vars.len())]),
                _ => {
                    let v = Var::new(&format!("Q{i}"));
                    vars.push(v);
                    Term::Var(v)
                }
            })
            .collect();
        queries.push(Atom { pred, terms });
    }
    queries
}

fn pick_mutations(rng: &mut StdRng, program: &Program, db: &Database) -> Vec<Mutation> {
    let domain: i64 = 7;
    let idb = program.intentional();
    let arities = pred_arities(program);
    let existing: Vec<GroundAtom> = db.iter().collect();
    let n = rng.gen_range(2..6);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let batch_len = rng.gen_range(1..4);
        if rng.gen_bool(0.5) {
            let mut facts = Vec::with_capacity(batch_len);
            for _ in 0..batch_len {
                let (pred, arity) = arities[rng.gen_range(0..arities.len())];
                // Seed IDB inserts occasionally — they exercise the DRed
                // base-fact bookkeeping.
                if idb.contains(&pred) && rng.gen_bool(0.6) {
                    continue;
                }
                let tuple: Vec<Const> = (0..arity)
                    .map(|_| Const::Int(rng.gen_range(0..domain)))
                    .collect();
                facts.push(GroundAtom {
                    pred,
                    tuple: tuple.into(),
                });
            }
            if !facts.is_empty() {
                out.push(Mutation::Insert(facts));
            }
        } else if !existing.is_empty() {
            // Removals target facts likely to be present: draw from the
            // initial database (plus an occasional miss, which must no-op).
            let mut facts = Vec::with_capacity(batch_len);
            for _ in 0..batch_len {
                if rng.gen_bool(0.85) {
                    facts.push(existing[rng.gen_range(0..existing.len())].clone());
                } else {
                    let (pred, arity) = arities[rng.gen_range(0..arities.len())];
                    let tuple: Vec<Const> = (0..arity)
                        .map(|_| Const::Int(rng.gen_range(0..domain)))
                        .collect();
                    facts.push(GroundAtom {
                        pred,
                        tuple: tuple.into(),
                    });
                }
            }
            out.push(Mutation::Remove(facts));
        }
    }
    out
}

/// Rename reserved `$`-namespace variables (as introduced by redundancy
/// injection) to plain parseable names, per rule — Datalog variables are
/// rule-scoped, so a fresh `UV{n}` name per rule preserves the semantics
/// as long as it collides with nothing else in that rule.
fn unreserve_vars(program: &Program) -> Program {
    let rename_rule = |rule: &Rule| -> Rule {
        let vars = rule.vars();
        let taken: BTreeSet<String> = vars.iter().map(|v| v.name()).collect();
        let mut next = 0usize;
        let mut map: Vec<(Var, Var)> = Vec::new();
        for v in &vars {
            if !v.name().contains('$') {
                continue;
            }
            let fresh = loop {
                let candidate = format!("UV{next}");
                next += 1;
                if !taken.contains(candidate.as_str()) {
                    break Var::new(&candidate);
                }
            };
            map.push((*v, fresh));
        }
        if map.is_empty() {
            return rule.clone();
        }
        let rename_atom = |atom: &Atom| Atom {
            pred: atom.pred,
            terms: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(
                        map.iter()
                            .find(|(from, _)| from == v)
                            .map(|(_, to)| *to)
                            .unwrap_or(*v),
                    ),
                    c => *c,
                })
                .collect(),
        };
        Rule {
            head: rename_atom(&rule.head),
            body: rule
                .body
                .iter()
                .map(|l| datalog_ast::Literal {
                    atom: rename_atom(&l.atom),
                    negated: l.negated,
                })
                .collect(),
            spans: None,
        }
    };
    Program {
        rules: program.rules.iter().map(rename_rule).collect(),
    }
}

/// Interleaving-independent service batches: racing client threads may
/// commit these in **any** order and must converge to the same final base.
/// That holds by construction — inserts draw fresh facts (constants ≥ 100,
/// disjoint from the initial domain, so no insert collides with a removal),
/// and removals draw facts from the initial database — making the expected
/// final base `initial ∪ inserts ∖ removals` regardless of schedule.
fn pick_service_mutations(rng: &mut StdRng, program: &Program, db: &Database) -> Vec<Mutation> {
    let arities = pred_arities(program);
    let existing: Vec<GroundAtom> = db.iter().collect();
    let n = rng.gen_range(4..9);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let batch_len = rng.gen_range(1..4);
        if rng.gen_bool(0.6) || existing.is_empty() {
            let facts: Vec<GroundAtom> = (0..batch_len)
                .map(|_| {
                    let (pred, arity) = arities[rng.gen_range(0..arities.len())];
                    let tuple: Vec<Const> = (0..arity)
                        .map(|_| Const::Int(rng.gen_range(100..112)))
                        .collect();
                    GroundAtom {
                        pred,
                        tuple: tuple.into(),
                    }
                })
                .collect();
            out.push(Mutation::Insert(facts));
        } else {
            // Duplicate targets across batches are fine: removal is
            // idempotent, so any schedule still ends at the same base.
            let facts: Vec<GroundAtom> = (0..batch_len)
                .map(|_| existing[rng.gen_range(0..existing.len())].clone())
                .collect();
            out.push(Mutation::Remove(facts));
        }
    }
    out
}

/// A generated random database in the `random_db` style, re-exported for
/// callers that want a quick EDB without building a whole case.
pub fn quick_db(preds: &[(&str, usize)], tuples_per: usize, domain: i64, seed: u64) -> Database {
    random_db(preds, tuples_per, domain, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for family in [Family::Engines, Family::Optimization, Family::Incremental] {
            for seed in 0..20 {
                assert_eq!(generate(seed, family), generate(seed, family));
            }
        }
    }

    #[test]
    fn engine_cases_have_queries_for_positive_programs() {
        let mut with_queries = 0;
        for seed in 0..40 {
            let c = generate(seed, Family::Engines);
            if c.program.is_positive() {
                assert!(!c.queries.is_empty(), "seed {seed}");
                with_queries += 1;
            }
        }
        assert!(with_queries > 10);
    }

    #[test]
    fn some_cases_seed_idb_facts() {
        let mut seeded = 0;
        for seed in 0..40 {
            let c = generate(seed, Family::Optimization);
            let idb = c.program.intentional();
            if c.db.iter().any(|g| idb.contains(&g.pred)) {
                seeded += 1;
            }
        }
        assert!(seeded > 5, "only {seeded}/40 cases seeded IDB facts");
    }

    #[test]
    fn incremental_cases_have_mutations() {
        let any = (0..20).any(|s| !generate(s, Family::Incremental).mutations.is_empty());
        assert!(any);
    }

    #[test]
    fn view_query_cases_have_queries_and_mutations() {
        let mut with_both = 0;
        for seed in 0..40 {
            let c = generate(seed, Family::ViewQuery);
            assert!(c.program.is_positive(), "seed {seed}");
            assert!(!c.queries.is_empty(), "seed {seed}");
            if !c.mutations.is_empty() {
                with_both += 1;
            }
        }
        assert!(with_both > 10, "only {with_both}/40 cases had mutations");
    }

    #[test]
    fn concurrent_service_cases_are_interleaving_independent() {
        for seed in 0..40 {
            let c = generate(seed, Family::ConcurrentService);
            assert!(c.program.is_positive(), "seed {seed}");
            let inserted: std::collections::BTreeSet<GroundAtom> = c
                .mutations
                .iter()
                .filter(|m| m.is_insert())
                .flat_map(|m| m.facts().iter().cloned())
                .collect();
            for m in c.mutations.iter().filter(|m| !m.is_insert()) {
                for f in m.facts() {
                    assert!(
                        !inserted.contains(f),
                        "seed {seed}: fact {f} both inserted and removed — the final \
                         base would depend on the interleaving"
                    );
                    assert!(
                        c.db.contains(f),
                        "seed {seed}: removal of a non-initial fact"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_family_includes_stratified_negation() {
        let any = (0..80).any(|s| !generate(s, Family::Engines).program.is_positive());
        assert!(any, "no stratified-negation case in 80 seeds");
    }
}
