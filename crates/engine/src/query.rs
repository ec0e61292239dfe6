//! Reusable point-query plans: the demand-driven serving entry point.
//!
//! The paper's §I frames magic sets as the consumer of optimization: a
//! query's constants restrict evaluation to the relevant portion of the
//! fixpoint. The batch CLI paths re-run the whole rewriting per
//! invocation, but the rewritten rules depend only on *which* positions of
//! the query are bound — never on the bound constants — so a long-lived
//! server (or a CLI invocation answering many queries) can build the
//! rewriting once per `(predicate, adornment, strategy)` triple and stamp a
//! per-query seed fact.
//!
//! [`QueryPlan`] is that cached unit; [`PlanCache`] memoizes plans for one
//! program. Both evaluate against a borrowed [`Database`] snapshot (clones
//! are Arc-CoW cheap) and report [`Stats`]. Answers are never cached: every
//! ask evaluates. The daemon keeps one [`PlanCache`] per installed program
//! for requests that name `magic` or `qsq` (its default path reads the
//! materialized view instead), and `datalog query` keeps one per invocation.

use crate::magic::{self, Adornment, MagicTemplate};
use crate::qsq;
use crate::stats::Stats;
use crate::{evaluate, EvalOptions, Schedule};
use datalog_ast::{Atom, Database, Pred, Program};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Top-down evaluation strategy for a point query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Magic-sets rewriting evaluated semi-naively (the default).
    Magic,
    /// QSQR memoized top-down evaluation.
    Qsq,
}

impl Strategy {
    pub fn parse(name: &str) -> Option<Strategy> {
        match name {
            "magic" => Some(Strategy::Magic),
            "qsq" => Some(Strategy::Qsq),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Strategy::Magic => "magic",
            Strategy::Qsq => "qsq",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cached, constant-independent evaluation plan for one
/// `(predicate, adornment, strategy)` triple of a fixed positive program.
///
/// For [`Strategy::Magic`] the plan holds the full rewritten program
/// ([`MagicTemplate`]); answering a query only stamps the seed fact and
/// runs semi-naive evaluation. [`Strategy::Qsq`] has no
/// constant-independent precomputation (QSQR adorns while it runs), so the
/// plan just pins the program.
#[derive(Debug)]
pub struct QueryPlan {
    program: Arc<Program>,
    pred: Pred,
    adornment: Adornment,
    strategy: Strategy,
    /// Present iff `strategy == Magic`.
    template: Option<MagicTemplate>,
}

impl QueryPlan {
    /// Build a plan. The program must be positive (asserted by the magic
    /// rewriting / QSQR preconditions).
    pub fn new(
        program: Arc<Program>,
        pred: Pred,
        adornment: Adornment,
        strategy: Strategy,
    ) -> QueryPlan {
        let template = match strategy {
            Strategy::Magic => Some(magic::magic_template(&program, pred, &adornment)),
            Strategy::Qsq => {
                assert!(program.is_positive(), "QSQR requires a positive program");
                None
            }
        };
        QueryPlan {
            program,
            pred,
            adornment,
            strategy,
            template,
        }
    }

    /// Plan for a concrete query atom: the adornment is read off its
    /// constant positions.
    pub fn for_query(program: Arc<Program>, query: &Atom, strategy: Strategy) -> QueryPlan {
        QueryPlan::new(program, query.pred, Adornment::of_query(query), strategy)
    }

    pub fn pred(&self) -> Pred {
        self.pred
    }

    pub fn adornment(&self) -> &Adornment {
        &self.adornment
    }

    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Answer `query` against a base-fact snapshot, restricted to the
    /// demanded bindings. The query must use this plan's predicate and
    /// adornment; answers come back under the original predicate name, and
    /// the returned [`Stats`] counts only this evaluation's work.
    pub fn answer(&self, base: &Database, query: &Atom) -> (Database, Stats) {
        assert_eq!(query.pred, self.pred, "query predicate mismatch");
        match self.strategy {
            Strategy::Magic => {
                let template = self.template.as_ref().expect("magic plan holds a template");
                let mut input = base.clone();
                input.insert(template.seed_for(query));
                let (result, stats) = evaluate(
                    &template.program,
                    &input,
                    Schedule::Strata,
                    EvalOptions::default(),
                )
                .expect("a magic program is positive");
                let answers = magic::read_answers(&result, template.answer_pred, query);
                (answers, stats)
            }
            Strategy::Qsq => qsq::answer_with_stats(&self.program, base, query),
        }
    }
}

/// A per-program memo of [`QueryPlan`]s keyed by
/// `(predicate, adornment, strategy)` — the fix for the batch-path wart
/// where every invocation re-ran adornment and rewriting. Used by the CLI
/// (`datalog query` with several query atoms) and the service (one per
/// installed program).
pub struct PlanCache {
    program: Arc<Program>,
    plans: Mutex<BTreeMap<(Pred, Adornment, Strategy), Arc<QueryPlan>>>,
}

impl PlanCache {
    pub fn new(program: Arc<Program>) -> PlanCache {
        PlanCache {
            program,
            plans: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The memoized plan covering `query` under `strategy`, building it on
    /// first use.
    pub fn plan_for(&self, query: &Atom, strategy: Strategy) -> Arc<QueryPlan> {
        let adornment = Adornment::of_query(query);
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        plans
            .entry((query.pred, adornment.clone(), strategy))
            .or_insert_with(|| {
                Arc::new(QueryPlan::new(
                    Arc::clone(&self.program),
                    query.pred,
                    adornment,
                    strategy,
                ))
            })
            .clone()
    }

    /// Convenience: plan lookup plus [`QueryPlan::answer`].
    pub fn answer(&self, base: &Database, query: &Atom, strategy: Strategy) -> (Database, Stats) {
        self.plan_for(query, strategy).answer(base, query)
    }

    /// Number of distinct plans built so far.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{match_atom, parse_atom, parse_database, parse_program, GroundAtom};

    fn tc() -> Arc<Program> {
        Arc::new(parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap())
    }

    /// Reference answer: evaluate the whole program, filter by the query.
    fn reference(program: &Program, edb: &Database, query: &Atom) -> Database {
        let full = evaluate(program, edb, Schedule::Strata, EvalOptions::default())
            .unwrap()
            .0;
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
        for strategy in [Strategy::Magic, Strategy::Qsq] {
            for q in ["g(1, X)", "g(2, X)", "g(3, X)", "g(7, X)"] {
                let query = parse_atom(q).unwrap();
                let (got, _) = cache.answer(&edb, &query, strategy);
                assert_eq!(got, reference(cache.program(), &edb, &query), "{q}");
            }
        }
        // Four constants, one adornment: one plan per strategy.
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn plans_are_keyed_by_adornment() {
        let cache = PlanCache::new(tc());
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        for q in ["g(1, X)", "g(X, 3)", "g(1, 3)", "g(X, Y)"] {
            let query = parse_atom(q).unwrap();
            let (got, _) = cache.answer(&edb, &query, Strategy::Magic);
            assert_eq!(got, reference(cache.program(), &edb, &query), "{q}");
        }
        assert_eq!(cache.len(), 4); // bf, fb, bb, ff
    }

    #[test]
    fn template_reuse_matches_per_query_transform() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let plan = QueryPlan::for_query(tc(), &parse_atom("g(1, X)").unwrap(), Strategy::Magic);
        for q in ["g(1, X)", "g(3, X)", "g(9, X)"] {
            let query = parse_atom(q).unwrap();
            let (got, _) = plan.answer(&edb, &query);
            assert_eq!(
                got,
                crate::magic::answer(cache_prog(&plan), &edb, &query),
                "{q}"
            );
        }
    }

    fn cache_prog(plan: &QueryPlan) -> &Program {
        &plan.program
    }

    #[test]
    fn stats_report_restricted_work() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", 100 + i, 101 + i));
        }
        let edb = parse_database(&facts).unwrap();
        let plan = QueryPlan::for_query(tc(), &parse_atom("g(0, X)").unwrap(), Strategy::Magic);
        let (got, stats) = plan.answer(&edb, &parse_atom("g(0, X)").unwrap());
        assert_eq!(got.len(), 30);
        let (_, full) = evaluate(&tc(), &edb, Schedule::Strata, EvalOptions::default()).unwrap();
        assert!(stats.derivations < full.derivations);
    }
}
