//! Reusable point-query plans: the demand-driven serving entry point.
//!
//! The paper's §I frames magic sets as the consumer of optimization: a
//! query's constants restrict evaluation to the relevant portion of the
//! fixpoint. The rewritten rules depend only on *which* positions of the
//! query are bound — never on the bound constants — so a long-lived server
//! (or a CLI invocation answering many queries) can build the rewriting
//! once per `(predicate, adornment)` pair and stamp a per-query seed fact.
//!
//! [`PlanCache`] memoizes those [`MagicTemplate`]s for one program, and
//! every ask is [`MagicTemplate::answer`] against a borrowed [`Database`]
//! snapshot (clones are Arc-CoW cheap). Answers are never cached: every
//! ask evaluates. The daemon keeps one [`PlanCache`] per installed program
//! for requests that name `magic` (its default path reads the materialized
//! view instead), and `datalog query` keeps one per invocation.

use crate::magic::{magic_template, Adornment, MagicTemplate};
use crate::stats::Stats;
use datalog_ast::{Atom, Database, Pred, Program};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A per-program memo of [`MagicTemplate`]s keyed by
/// `(predicate, adornment)`, so that every query with one binding pattern
/// shares one rewriting. Used by the CLI (`datalog query` with several
/// query atoms) and the service (one per installed program).
pub struct PlanCache {
    program: Arc<Program>,
    plans: Mutex<BTreeMap<(Pred, Adornment), Arc<MagicTemplate>>>,
}

impl PlanCache {
    /// A cache for `program`, which must be positive (asserted when the
    /// first plan is built).
    pub fn new(program: Arc<Program>) -> PlanCache {
        PlanCache {
            program,
            plans: Mutex::new(BTreeMap::new()),
        }
    }

    /// Answer `query` against a base-fact snapshot through the memoized
    /// template of its binding pattern, building it on first use.
    pub fn answer(&self, base: &Database, query: &Atom) -> (Database, Stats) {
        let template = {
            let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
            let entry = plans.entry((query.pred, Adornment::of_query(query)));
            Arc::clone(entry.or_insert_with_key(|(pred, adornment)| {
                Arc::new(magic_template(&self.program, *pred, adornment))
            }))
        };
        template.answer(base, query)
    }

    /// Number of distinct plans built so far.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[doc(hidden)]
pub use crate::compat::{QueryPlan, Strategy};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use datalog_ast::{match_atom, parse_atom, parse_database, parse_program, GroundAtom};

    fn tc() -> Arc<Program> {
        Arc::new(parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap())
    }

    /// Reference answer: evaluate the whole program, filter by the query.
    fn reference(program: &Program, edb: &Database, query: &Atom) -> Database {
        let full = evaluate(program, edb).unwrap().0;
        let mut out = Database::new();
        for tuple in full.relation(query.pred) {
            let g = GroundAtom {
                pred: query.pred,
                tuple: tuple.into(),
            };
            if match_atom(query, &g).is_some() {
                out.insert(g);
            }
        }
        out
    }

    #[test]
    fn one_plan_answers_many_constants() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(7,8).").unwrap();
        let cache = PlanCache::new(tc());
        for q in ["g(1, X)", "g(2, X)", "g(3, X)", "g(7, X)", "g(9, X)"] {
            let query = parse_atom(q).unwrap();
            let (got, _) = cache.answer(&edb, &query);
            assert_eq!(got, reference(&tc(), &edb, &query), "{q}");
        }
        // Five constants, one adornment: one plan.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plans_are_keyed_by_adornment() {
        let cache = PlanCache::new(tc());
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        for q in ["g(1, X)", "g(X, 3)", "g(1, 3)", "g(X, Y)"] {
            let query = parse_atom(q).unwrap();
            let (got, _) = cache.answer(&edb, &query);
            assert_eq!(got, reference(&tc(), &edb, &query), "{q}");
        }
        assert_eq!(cache.len(), 4); // bf, fb, bb, ff
    }

    #[test]
    fn hidden_query_plan_answers_magic_sets_under_either_name() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        for strategy in [Strategy::Magic, Strategy::Qsq] {
            let plan = QueryPlan::for_query(tc(), &parse_atom("g(1, X)").unwrap(), strategy);
            for q in ["g(1, X)", "g(3, X)", "g(9, X)"] {
                let query = parse_atom(q).unwrap();
                let (got, _) = plan.answer(&edb, &query);
                assert_eq!(got, reference(&tc(), &edb, &query), "{strategy:?} {q}");
            }
        }
    }

    #[test]
    fn stats_report_restricted_work() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", 100 + i, 101 + i));
        }
        let edb = parse_database(&facts).unwrap();
        let (got, stats) = PlanCache::new(tc()).answer(&edb, &parse_atom("g(0, X)").unwrap());
        assert_eq!(got.len(), 30);
        let (_, full) = evaluate(&tc(), &edb).unwrap();
        assert!(stats.derivations < full.derivations);
    }
}
