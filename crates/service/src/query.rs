//! The demand-driven point-query subsystem: cached top-down plans plus a
//! subsumption-aware answer cache.
//!
//! The daemon answers a `query` from the published fixpoint unless the
//! request names a top-down strategy (`Registry::op_query`); `datalog query`
//! has no view and always comes here. A point query (`g(1, X)`) handed to
//! this module is answered by magic-sets/QSQR evaluation over the **base
//! facts**, restricted to the demanded bindings. Three layers of reuse stack
//! on top of that:
//!
//! 1. **Plans** ([`datalog_engine::query::PlanCache`]): the magic rewriting
//!    depends only on `(predicate, adornment)`, so it is built once per
//!    binding pattern and reused for every constant.
//! 2. **Answers**: each evaluated answer set is cached under the query
//!    atom. A later query *covered* by a cached one — decided by the
//!    paper's containment test (§V CQ homomorphism, coinciding with §VI
//!    uniform containment for single-atom queries;
//!    [`datalog_optimizer::subsume`]) — is answered by filtering the cached
//!    set, with **zero** re-evaluation.
//! 3. **Invalidation**: a committed write batch drops exactly the entries
//!    whose predicate lies in the dependency cone of the changed base
//!    predicates, before the new state is published (see
//!    [`View::insert_then`](crate::view::View::insert_then)).
//!
//! ## Snapshot consistency
//!
//! Readers race writers, so two guards keep cached answers consistent with
//! the reader's own [`ViewState`]:
//!
//! * **Lookup** only uses entries with `entry.version <= reader.version`.
//!   Invalidation runs *before* publication (under the writer lock), so an
//!   entry that is still present with version ≤ V was computed from data
//!   unchanged through V — a newer batch touching its cone would have
//!   removed it before version V+1 became visible.
//! * **Admission** of a freshly computed answer set checks the predicate's
//!   invalidation stamp: a reader that evaluated against version V admits
//!   only if no later invalidation (stamp > V) has hit the predicate.
//!   Without this, a slow reader could insert answers computed from a
//!   pre-batch snapshot *after* the batch's invalidation swept the cache.

use crate::view::ViewState;
use datalog_ast::{Atom, Database, DepGraph, Pred, Program};
use datalog_engine::query::{PlanCache, Strategy};
use datalog_engine::Stats;
use datalog_optimizer::subsume::{covers, covers_with_fuel, DEFAULT_SUBSUMPTION_FUEL};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// How a point query was answered, reported on the wire as the `cache`
/// response field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// An equivalent query (same pattern up to variable renaming) was
    /// cached: the answer set was returned as-is.
    Hit,
    /// A strictly more general cached query covers this one: answered by
    /// filtering the cached set (§V/§VI subsumption).
    Subsumed,
    /// No cached entry covers the query: a top-down evaluation ran.
    Miss,
}

impl CacheStatus {
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Subsumed => "subsumed",
            CacheStatus::Miss => "miss",
        }
    }
}

/// One cached answer set.
struct CachedAnswer {
    /// The query pattern the answers satisfy (possibly more general than
    /// later queries it serves).
    query: Atom,
    /// Ground atoms under the original predicate name.
    answers: Arc<Database>,
    /// The [`ViewState::version`] the answers were computed from.
    version: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Live entries, grouped by query predicate.
    entries: BTreeMap<Pred, Vec<CachedAnswer>>,
    /// Per-predicate version of the last invalidation that touched it;
    /// admission requires `stamp <= reader version`.
    stamps: BTreeMap<Pred, u64>,
}

/// Per-program query state: cached plans, the answer cache, and the
/// precomputed dependency cones driving invalidation. Shared by the
/// service registry (one per installed program) and the CLI batch path.
pub struct QueryState {
    plans: PlanCache,
    /// For every predicate of the program: itself plus every predicate
    /// transitively derivable from it (its successors in the dependence
    /// graph, §III). A change to base predicate `p` can only affect answers
    /// of predicates in `cones[p]`.
    cones: BTreeMap<Pred, BTreeSet<Pred>>,
    cache: Mutex<CacheInner>,
}

impl QueryState {
    /// Build query state for a positive program (the service installs only
    /// positive programs; the top-down engines assert this).
    pub fn new(program: &Program) -> QueryState {
        let graph = DepGraph::new(program);
        let mut cones: BTreeMap<Pred, BTreeSet<Pred>> = BTreeMap::new();
        for &pred in graph.predicates() {
            let mut cone = BTreeSet::from([pred]);
            let mut stack = vec![pred];
            while let Some(p) = stack.pop() {
                for succ in graph.successors(p) {
                    if cone.insert(succ) {
                        stack.push(succ);
                    }
                }
            }
            cones.insert(pred, cone);
        }
        QueryState {
            plans: PlanCache::new(Arc::new(program.clone())),
            cones,
            cache: Mutex::new(CacheInner::default()),
        }
    }

    /// The underlying plan cache (exposed for observability).
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Number of live cached answer sets (a gauge, unlike the cumulative
    /// `query_cache_entries` counter in [`Stats`]).
    pub fn live_entries(&self) -> u64 {
        self.lock().entries.values().map(|v| v.len() as u64).sum()
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Answer `query` against a published view state. Returns the answer
    /// set (ground atoms under the query's predicate), how the cache
    /// resolved it, and the work counters of this call (evaluation work on
    /// a miss, plus exactly one nonzero `query_cache_*` counter).
    pub fn answer(
        &self,
        state: &ViewState,
        query: &Atom,
        strategy: Strategy,
    ) -> (Arc<Database>, CacheStatus, Stats) {
        self.answer_at(&state.base, state.version, query, strategy)
    }

    /// [`QueryState::answer`] against an explicit base-fact snapshot and
    /// version — the entry point for callers without a [`ViewState`] (the
    /// CLI evaluates a fixed EDB at version 0).
    pub fn answer_at(
        &self,
        base: &Database,
        version: u64,
        query: &Atom,
        strategy: Strategy,
    ) -> (Arc<Database>, CacheStatus, Stats) {
        let mut stats = Stats::default();
        // Lookup: scan this predicate's entries under a fuel budget.
        {
            let inner = self.lock();
            let mut fuel = DEFAULT_SUBSUMPTION_FUEL;
            if let Some(list) = inner.entries.get(&query.pred) {
                for entry in list {
                    if entry.version > version {
                        // Computed from a state newer than the reader's
                        // snapshot; using it would break snapshot isolation.
                        continue;
                    }
                    if covers_with_fuel(&entry.query, query, &mut fuel) == Some(true) {
                        let answers = Arc::clone(&entry.answers);
                        let exact = covers(query, &entry.query);
                        drop(inner);
                        return if exact {
                            stats.query_cache_hits = 1;
                            (answers, CacheStatus::Hit, stats)
                        } else {
                            stats.query_cache_subsumption_hits = 1;
                            let filtered = filter_answers(&answers, query);
                            (Arc::new(filtered), CacheStatus::Subsumed, stats)
                        };
                    }
                }
            }
        }
        // Miss: evaluate top-down, restricted to the demanded bindings.
        let (answers, eval_stats) = self.plans.answer(base, query, strategy);
        stats += eval_stats;
        stats.query_cache_misses = 1;
        let answers = Arc::new(answers);
        // Admission: reject if a later batch already invalidated this
        // predicate — our answers were computed from superseded data.
        let mut inner = self.lock();
        let admissible = inner
            .stamps
            .get(&query.pred)
            .is_none_or(|stamp| *stamp <= version);
        if admissible {
            let list = inner.entries.entry(query.pred).or_default();
            // The new entry makes every entry it covers redundant.
            list.retain(|e| !covers(query, &e.query));
            list.push(CachedAnswer {
                query: query.clone(),
                answers: Arc::clone(&answers),
                version,
            });
            stats.query_cache_entries = 1;
        }
        (answers, CacheStatus::Miss, stats)
    }

    /// Drop every cached entry whose predicate lies in the dependency cone
    /// of a changed base predicate, stamping those predicates with the
    /// version being committed. Called from the view's pre-publication
    /// hook, so the sweep completes before readers can see the new state.
    /// Returns the number of entries dropped.
    pub fn invalidate(&self, changed: impl IntoIterator<Item = Pred>, version: u64) -> u64 {
        let mut affected: BTreeSet<Pred> = BTreeSet::new();
        for pred in changed {
            match self.cones.get(&pred) {
                Some(cone) => affected.extend(cone.iter().copied()),
                // A predicate the program never mentions can still be
                // queried (and cached) directly.
                None => {
                    affected.insert(pred);
                }
            }
        }
        let mut inner = self.lock();
        let mut dropped = 0u64;
        for pred in affected {
            if let Some(list) = inner.entries.remove(&pred) {
                dropped += list.len() as u64;
            }
            let stamp = inner.stamps.entry(pred).or_insert(0);
            *stamp = (*stamp).max(version);
        }
        dropped
    }
}

/// Restrict a cached answer set to the tuples matching `query` (constants
/// and repeated variables alike).
fn filter_answers(answers: &Database, query: &Atom) -> Database {
    let mut out = Database::new();
    for row in answers.select(query) {
        out.insert_row(query.pred, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::View;
    use datalog_ast::{fact, parse_atom, parse_database, parse_program};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    fn answer_strings(db: &Database) -> Vec<String> {
        db.iter().map(|g| g.to_string()).collect()
    }

    #[test]
    fn miss_then_hit_then_subsumed() {
        let view = View::new(tc(), &parse_database("a(1,2). a(2,3). a(3,4).").unwrap());
        let qs = QueryState::new(&tc());
        let state = view.state();

        let q = parse_atom("g(1, X)").unwrap();
        let (cold, status, stats) = qs.answer(&state, &q, Strategy::Magic);
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(stats.query_cache_misses, 1);
        assert_eq!(stats.query_cache_entries, 1);
        assert!(stats.derivations > 0, "a miss evaluates");
        assert_eq!(cold.len(), 3);

        let (warm, status, stats) = qs.answer(&state, &q, Strategy::Magic);
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(stats.query_cache_hits, 1);
        assert_eq!(stats.derivations, 0, "a hit must not evaluate");
        assert_eq!(answer_strings(&warm), answer_strings(&cold));

        // Renamed variable: still an exact hit.
        let renamed = parse_atom("g(1, Y)").unwrap();
        let (_, status, _) = qs.answer(&state, &renamed, Strategy::Magic);
        assert_eq!(status, CacheStatus::Hit);

        // g(1, 3) is subsumed by the cached g(1, X): filter, don't evaluate.
        let narrow = parse_atom("g(1, 3)").unwrap();
        let (sub, status, stats) = qs.answer(&state, &narrow, Strategy::Magic);
        assert_eq!(status, CacheStatus::Subsumed);
        assert_eq!(stats.query_cache_subsumption_hits, 1);
        assert_eq!(stats.derivations, 0, "a subsumed query must not evaluate");
        assert_eq!(answer_strings(&sub), vec!["g(1, 3)".to_string()]);
    }

    #[test]
    fn general_entry_replaces_covered_ones() {
        let view = View::new(tc(), &parse_database("a(1,2). a(2,3).").unwrap());
        let qs = QueryState::new(&tc());
        let state = view.state();
        qs.answer(&state, &parse_atom("g(1, 2)").unwrap(), Strategy::Magic);
        qs.answer(&state, &parse_atom("g(1, 3)").unwrap(), Strategy::Magic);
        assert_eq!(qs.live_entries(), 2);
        // The all-free query covers both point entries: they are pruned.
        qs.answer(&state, &parse_atom("g(X, Y)").unwrap(), Strategy::Magic);
        assert_eq!(qs.live_entries(), 1);
        let (_, status, _) = qs.answer(&state, &parse_atom("g(2, X)").unwrap(), Strategy::Magic);
        assert_eq!(status, CacheStatus::Subsumed);
    }

    #[test]
    fn invalidation_follows_the_dependency_cone() {
        let program =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z). h(X) :- b(X).")
                .unwrap();
        let view = View::new(program.clone(), &parse_database("a(1,2). b(7).").unwrap());
        let qs = QueryState::new(&program);
        let state = view.state();
        qs.answer(&state, &parse_atom("g(1, X)").unwrap(), Strategy::Magic);
        qs.answer(&state, &parse_atom("h(X)").unwrap(), Strategy::Magic);
        assert_eq!(qs.live_entries(), 2);

        // Changing `a` invalidates `g` answers but not `h` answers.
        let dropped = qs.invalidate([datalog_ast::Pred::new("a")], 1);
        assert_eq!(dropped, 1);
        assert_eq!(qs.live_entries(), 1);
        let (_, status, _) = qs.answer(&state, &parse_atom("h(X)").unwrap(), Strategy::Magic);
        assert_eq!(status, CacheStatus::Hit);
    }

    #[test]
    fn stale_results_are_never_admitted_or_served() {
        let view = View::new(tc(), &Database::new());
        let qs = QueryState::new(&tc());
        view.insert(vec![fact("a", [1, 2])]);
        let old_state = view.state();

        // A batch commits (and invalidates) after the reader grabbed its
        // state but before it finishes evaluating: admission must reject.
        view.insert_then(vec![fact("a", [2, 3])], |v| {
            qs.invalidate([datalog_ast::Pred::new("a")], v);
        });
        let q = parse_atom("g(1, X)").unwrap();
        let (answers, status, stats) = qs.answer(&old_state, &q, Strategy::Magic);
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(answers.len(), 1, "old snapshot sees one edge");
        assert_eq!(stats.query_cache_entries, 0, "stale entry rejected");
        assert_eq!(qs.live_entries(), 0);

        // A fresh reader populates the cache; an old reader must not be
        // served the newer entry.
        let new_state = view.state();
        let (fresh, status, _) = qs.answer(&new_state, &q, Strategy::Magic);
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(fresh.len(), 2);
        assert_eq!(qs.live_entries(), 1);
        let (old_again, status, _) = qs.answer(&old_state, &q, Strategy::Magic);
        assert_eq!(status, CacheStatus::Miss, "newer entry is invisible at V-1");
        assert_eq!(old_again.len(), 1);
    }

    #[test]
    fn qsq_strategy_shares_the_cache() {
        let view = View::new(tc(), &parse_database("a(1,2). a(2,3).").unwrap());
        let qs = QueryState::new(&tc());
        let state = view.state();
        let q = parse_atom("g(1, X)").unwrap();
        let (magic_ans, _, _) = qs.answer(&state, &q, Strategy::Magic);
        let (qsq_ans, status, _) = qs.answer(&state, &q, Strategy::Qsq);
        assert_eq!(status, CacheStatus::Hit, "answers are strategy-agnostic");
        assert_eq!(answer_strings(&magic_ans), answer_strings(&qsq_ans));
    }
}
