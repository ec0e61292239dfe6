//! Stratified-negation evaluation — the §XII extension.
//!
//! The paper closes by noting that "the results on uniform containment and
//! minimization can be extended to Datalog programs with stratified
//! negation". This module supplies the evaluation substrate for that
//! extension: rules are partitioned into strata by the dependence graph
//! (negative edges must cross strictly upward), and each stratum is
//! evaluated to fixpoint with the semi-naive engine, treating
//! lower-stratum/EDB predicates as frozen context. Negated literals always
//! refer to fully-computed relations, so negation-as-failure is sound.

use crate::context::EvalOptions;
use crate::stats::Stats;
use datalog_ast::{Database, DepGraph, Program};
use std::fmt;

/// Error: the program has no stratification (a cycle through negation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotStratifiable;

impl fmt::Display for NotStratifiable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program is not stratifiable: a recursive cycle passes through negation"
        )
    }
}

impl std::error::Error for NotStratifiable {}

/// Split a program into strata of rules. Stratum `i` contains the rules
/// whose head predicate is on stratum `i`; evaluating strata in order
/// guarantees every negated literal sees its final relation.
pub fn strata(program: &Program) -> Result<Vec<Program>, NotStratifiable> {
    let graph = DepGraph::new(program);
    let assignment = graph.stratify().ok_or(NotStratifiable)?;
    let max = assignment.values().copied().max().unwrap_or(0);
    let mut out = vec![Program::empty(); max + 1];
    for rule in &program.rules {
        let s = assignment[&rule.head.pred];
        out[s].rules.push(rule.clone());
    }
    Ok(out)
}

/// Evaluate a stratified program: semi-naive per stratum, negation checked
/// against the database computed so far. Output contains the input.
pub fn evaluate(program: &Program, input: &Database) -> Result<Database, NotStratifiable> {
    Ok(evaluate_with_stats(program, input)?.0)
}

/// [`evaluate`], also returning work counters.
pub fn evaluate_with_stats(
    program: &Program,
    input: &Database,
) -> Result<(Database, Stats), NotStratifiable> {
    evaluate_with_opts(program, input, EvalOptions::sequential())
}

/// [`evaluate`] with explicit [`EvalOptions`] (worker-thread knob).
///
/// One [`EvalContext`] is shared across all strata, so the indexes built
/// while saturating stratum `i` are appended to — not rebuilt — when
/// stratum `i + 1` probes the same `(pred, positions)` patterns. Negated
/// literals are membership tests against the context database, which is
/// sound because every stratum only negates predicates saturated by
/// earlier strata (or EDB).
pub fn evaluate_with_opts(
    program: &Program,
    input: &Database,
    opts: EvalOptions,
) -> Result<(Database, Stats), NotStratifiable> {
    let graph = DepGraph::new(program);
    let assignment = graph.stratify().ok_or(NotStratifiable)?;
    let max = assignment.values().copied().max().unwrap_or(0);
    let mut layers: Vec<Vec<usize>> = vec![Vec::new(); max + 1];
    for (i, rule) in program.rules.iter().enumerate() {
        layers[assignment[&rule.head.pred]].push(i);
    }

    Ok(crate::seminaive::evaluate_layers(
        program, input, opts, &layers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, Pred};

    #[test]
    fn positive_program_matches_seminaive() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let out = evaluate(&p, &edb).unwrap();
        assert_eq!(out, crate::seminaive::evaluate(&p, &edb));
    }

    #[test]
    fn unreachable_nodes() {
        let p = parse_program(
            "reach(X) :- src(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreach(X) :- node(X), !reach(X).",
        )
        .unwrap();
        let edb = parse_database(
            "src(1). node(1). node(2). node(3). node(4).
             edge(1, 2). edge(3, 4).",
        )
        .unwrap();
        let out = evaluate(&p, &edb).unwrap();
        assert_eq!(out.relation_len(Pred::new("reach")), 2); // 1, 2
        assert_eq!(out.relation_len(Pred::new("unreach")), 2); // 3, 4
        assert!(out.contains_tuple(Pred::new("unreach"), &[datalog_ast::Const::Int(3)]));
    }

    #[test]
    fn two_negations_chain() {
        let p = parse_program(
            "p(X) :- base(X).
             q(X) :- dom(X), !p(X).
             r(X) :- dom(X), !q(X).",
        )
        .unwrap();
        let edb = parse_database("dom(1). dom(2). base(1).").unwrap();
        let out = evaluate(&p, &edb).unwrap();
        // p = {1}; q = {2}; r = {1}.
        assert!(out.contains_tuple(Pred::new("q"), &[datalog_ast::Const::Int(2)]));
        assert!(out.contains_tuple(Pred::new("r"), &[datalog_ast::Const::Int(1)]));
        assert_eq!(out.relation_len(Pred::new("r")), 1);
    }

    #[test]
    fn unstratifiable_is_an_error() {
        let p = parse_program("p(X) :- n(X), !q(X). q(X) :- n(X), !p(X).").unwrap();
        assert_eq!(evaluate(&p, &Database::new()), Err(NotStratifiable));
    }

    #[test]
    fn strata_partition_rules() {
        let p = parse_program(
            "reach(X) :- src(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreach(X) :- node(X), !reach(X).",
        )
        .unwrap();
        let layers = strata(&p).unwrap();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 2);
        assert_eq!(layers[1].len(), 1);
    }

    #[test]
    fn negation_within_recursion_positive_part_ok() {
        // Negated predicate is EDB: single stratum works.
        let p =
            parse_program("t(X, Y) :- e(X, Y), !block(X). t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let edb = parse_database("e(1,2). e(2,3). block(2).").unwrap();
        let out = evaluate(&p, &edb).unwrap();
        assert!(out.contains_tuple(Pred::new("t"), &[1.into(), 2.into()]));
        assert!(!out.contains_tuple(Pred::new("t"), &[2.into(), 3.into()]));
    }
}
