//! Semi-naive bottom-up evaluation.
//!
//! Computes the same fixpoint as [`crate::naive`] but avoids rediscovering
//! old facts: after the first full round, a rule can only produce a *new*
//! head atom if at least one body atom matches a tuple derived in the
//! previous round (the delta). Each rule is therefore evaluated once per
//! delta-position — for every body occurrence of an intentional predicate,
//! with that occurrence restricted to the delta and the remaining atoms
//! ranging over the full database.
//!
//! This variant may enumerate a match twice when two body atoms both hit the
//! delta (the set-semantics insert dedupes), trading a little recomputation
//! for simplicity; it performs the asymptotic semi-naive saving that makes
//! the minimization benchmarks meaningful at realistic EDB sizes.
//!
//! The fixpoint runs on an [`EvalContext`], on the calling thread: hash
//! indexes are built once and maintained incrementally across rounds, and
//! each rule's greedy join order is computed once per round. The reference
//! it is tested against is [`crate::naive`], which shares none of this.

use crate::context::{EvalContext, EvalOptions};
use crate::stats::Stats;
use datalog_ast::{Database, Program};

/// Compute `P(d)` semi-naively. Same contract as [`crate::naive::evaluate`]:
/// positive programs, output contains input.
pub fn evaluate(program: &Program, input: &Database) -> Database {
    evaluate_with_stats(program, input).0
}

/// [`evaluate`], also returning work counters.
pub fn evaluate_with_stats(program: &Program, input: &Database) -> (Database, Stats) {
    evaluate_with_opts(program, input, EvalOptions::sequential())
}

/// [`evaluate`] with explicit [`EvalOptions`] (kernel or reference
/// interpreter).
pub fn evaluate_with_opts(
    program: &Program,
    input: &Database,
    opts: EvalOptions,
) -> (Database, Stats) {
    assert!(
        program.is_positive(),
        "seminaive::evaluate requires a positive program; use stratified::evaluate"
    );
    // One layer: round 1 is a full pass over the input (covers EDB-only
    // rules, facts, and input-supplied IDB atoms in one go), later rounds
    // are delta-driven.
    evaluate_layers(program, input, opts, &[(0..program.rules.len()).collect()])
}

/// The driver behind every context evaluator: saturate `input` under
/// `layers` of `program`'s rule indices, in order, on one [`EvalContext`]
/// (so indexes built for an early layer are appended to by later ones).
pub(crate) fn evaluate_layers(
    program: &Program,
    input: &Database,
    opts: EvalOptions,
    layers: &[Vec<usize>],
) -> (Database, Stats) {
    let mut cx = EvalContext::new(program, input.clone(), opts);
    for rules in layers.iter().filter(|rules| !rules.is_empty()) {
        cx.saturate(rules);
    }
    let stats = cx.stats();
    (cx.into_database(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use datalog_ast::{parse_database, parse_program, Pred};

    fn tc_program() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn agrees_with_naive_on_example2() {
        let edb = parse_database("a(1,2). a(1,4). a(4,1).").unwrap();
        assert_eq!(
            evaluate(&tc_program(), &edb),
            naive::evaluate(&tc_program(), &edb)
        );
    }

    #[test]
    fn agrees_with_naive_with_idb_input() {
        let input = parse_database("a(1,2). a(1,4). g(4,1).").unwrap();
        assert_eq!(
            evaluate(&tc_program(), &input),
            naive::evaluate(&tc_program(), &input)
        );
    }

    #[test]
    fn chain_closure() {
        let mut facts = String::new();
        let n = 20;
        for i in 0..n {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let out = evaluate(&tc_program(), &edb);
        assert_eq!(out.relation_len(Pred::new("g")), (n * (n + 1)) / 2);
    }

    #[test]
    fn left_linear_tc() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let edb = parse_database("a(1,2). a(2,3). a(3,1).").unwrap();
        let out = evaluate(&p, &edb);
        // Cycle: closure is all 9 pairs.
        assert_eq!(out.relation_len(Pred::new("g")), 9);
        assert_eq!(out, naive::evaluate(&p, &edb));
    }

    #[test]
    fn multi_idb_mutual_recursion() {
        let p = parse_program(
            "even(X) :- zero(X).
             odd(Y) :- even(X), succ(X, Y).
             even(Y) :- odd(X), succ(X, Y).",
        )
        .unwrap();
        let mut facts = String::from("zero(0).");
        for i in 0..10 {
            facts.push_str(&format!("succ({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let out = evaluate(&p, &edb);
        assert_eq!(out, naive::evaluate(&p, &edb));
        assert_eq!(out.relation_len(Pred::new("even")), 6); // 0,2,4,6,8,10
        assert_eq!(out.relation_len(Pred::new("odd")), 5); // 1,3,5,7,9
    }

    #[test]
    fn seminaive_does_less_matching_than_naive() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let (out_n, stats_n) = naive::evaluate_with_stats(&tc_program(), &edb);
        let (out_s, stats_s) = evaluate_with_stats(&tc_program(), &edb);
        assert_eq!(out_n, out_s);
        assert!(
            stats_s.matches < stats_n.matches,
            "semi-naive {} vs naive {}",
            stats_s.matches,
            stats_n.matches
        );
    }

    #[test]
    fn program_facts_reach_fixpoint() {
        let p = parse_program("a(1, 2). a(2, 3). g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).")
            .unwrap();
        let out = evaluate(&p, &Database::new());
        assert_eq!(out.relation_len(Pred::new("g")), 3);
    }

    #[test]
    fn empty_input_empty_program() {
        assert!(evaluate(&Program::empty(), &Database::new()).is_empty());
    }

    #[test]
    fn indexes_are_built_per_pattern_and_appended_per_round() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let program = tc_program();
        let (out, stats) = evaluate_with_stats(&program, &edb);
        assert_eq!(out, naive::evaluate(&program, &edb));
        // One index per (literal, binding pattern) a script can probe, however
        // many rounds the chain takes; later rounds only append.
        let pattern_bound: u64 = program.rules.iter().map(|r| r.width() as u64 + 1).sum();
        assert!(stats.iterations > 3, "{stats}");
        assert!(
            stats.index_builds <= pattern_bound,
            "{} builds over {} rounds, bound {pattern_bound}",
            stats.index_builds,
            stats.iterations
        );
        assert!(stats.index_appends > 0);
    }

    #[test]
    fn symmetric_chain_matches_naive() {
        let mut facts = String::new();
        for i in 0..25 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", i + 1, i));
        }
        let edb = parse_database(&facts).unwrap();
        let out = evaluate(&tc_program(), &edb);
        assert_eq!(out.relation_len(Pred::new("g")), 26 * 26);
        assert_eq!(out, naive::evaluate(&tc_program(), &edb));
    }
}
