//! Semi-naive bottom-up evaluation, the one entry point of the context
//! evaluators: [`evaluate`] computes `P(d)`.
//!
//! The fixpoint is the same as [`crate::naive`]'s, without rediscovering
//! old facts: after the first full round, a rule can only produce a *new*
//! head atom if at least one body atom matches a tuple derived in the
//! previous round (the delta). Each rule is therefore evaluated once per
//! delta-position, for every body occurrence of an intentional predicate,
//! with that occurrence restricted to the delta, the atoms before it in the
//! body restricted to the rows the database held before the delta, and the
//! atoms after it ranging over the full database. Every body match is then
//! enumerated once, by the task at the first body atom that matches a delta
//! row; a literal repeating an earlier one is folded into it and is no
//! delta position at all (see [`crate::EvalContext`]).
//!
//! # Strata
//!
//! A positive program is one stratum. A program with negation is split
//! into strata by the dependence graph (negative edges must cross strictly
//! upward), the §XII extension, and the strata are saturated in order on
//! one [`EvalContext`]: indexes built for an early stratum are appended to
//! by later ones, never rebuilt. A negated literal is then a membership
//! test against the context database, since every rule that defines the
//! negated predicate sits in an earlier stratum, saturated before the rule
//! that negates it runs. A program with a cycle through negation is
//! [`EvalError::NotStratifiable`].
//!
//! # Validation
//!
//! [`evaluate`] validates the program it is given (`datalog_ast::validate`):
//! the join kernels assume every head variable and every variable of a
//! negated literal is bound by a positive literal, and a program that breaks
//! that is [`EvalError::Invalid`] instead of a panic in a kernel. A
//! predicate used at two arities is two relations to the engine, so that
//! diagnostic alone is no error here.
//!
//! The reference it is tested against is [`crate::naive`], which shares
//! none of this.

use crate::context::{EvalContext, EvalOptions};
use crate::stats::Stats;
use datalog_ast::{validate, Database, DepGraph, Program, ValidationError};
use std::fmt;

/// Why [`evaluate`] refused a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A variable of a rule is bound by no positive literal of its body
    /// (`datalog_ast::validate`'s diagnostics, arity ones left out).
    Invalid(Vec<ValidationError>),
    /// The program has no stratification (a cycle through negation).
    NotStratifiable,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Invalid(errors) => {
                write!(f, "invalid program:")?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EvalError::NotStratifiable => write!(
                f,
                "program is not stratifiable: a recursive cycle passes through negation"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Compute `P(d)` semi-naively, saturating the strata of `program` in
/// order. The output contains the input, including atoms it supplies for
/// intentional predicates.
pub fn evaluate(program: &Program, input: &Database) -> Result<(Database, Stats), EvalError> {
    evaluate_with(program, input, EvalOptions::default())
}

/// [`evaluate`] under `opts`, for the kernel differentials:
/// [`EvalOptions::interpreted`] runs every join script on the row-at-a-time
/// reference interpreter they compare the kernel against.
pub fn evaluate_with(
    program: &Program,
    input: &Database,
    opts: EvalOptions,
) -> Result<(Database, Stats), EvalError> {
    let unbound: Vec<ValidationError> = (validate(program).err().into_iter().flatten())
        .filter(|e| !matches!(e, ValidationError::ArityMismatch { .. }))
        .collect();
    if !unbound.is_empty() {
        return Err(EvalError::Invalid(unbound));
    }
    let strata = strata(program)?;
    let mut cx = EvalContext::new(program, input.clone(), opts);
    for rules in strata.iter().filter(|rules| !rules.is_empty()) {
        cx.saturate(rules);
    }
    let stats = cx.stats();
    Ok((cx.into_database(), stats))
}

/// `program`'s rule indices, grouped into the strata [`evaluate`]
/// saturates in order.
fn strata(program: &Program) -> Result<Vec<Vec<usize>>, EvalError> {
    if program.is_positive() {
        // Round 1 is a full pass over the input (EDB-only rules, facts and
        // input-supplied IDB atoms in one go); later rounds are
        // delta-driven.
        return Ok(vec![(0..program.rules.len()).collect()]);
    }
    let stratum_of = DepGraph::new(program)
        .stratify()
        .ok_or(EvalError::NotStratifiable)?;
    let mut strata = vec![Vec::new(); stratum_of.values().max().map_or(0, |&m| m + 1)];
    for (i, rule) in program.rules.iter().enumerate() {
        strata[stratum_of[&rule.head.pred]].push(i);
    }
    Ok(strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use datalog_ast::{parse_database, parse_program, Const, Pred};

    fn run(program: &Program, input: &Database) -> (Database, Stats) {
        evaluate(program, input).unwrap()
    }

    fn eval(program: &Program, input: &Database) -> Database {
        run(program, input).0
    }

    fn tc_program() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    /// The heads of each stratum, in order.
    fn strata_heads(program: &Program) -> Vec<Vec<String>> {
        strata(program)
            .unwrap()
            .iter()
            .filter(|stratum| !stratum.is_empty())
            .map(|stratum| {
                stratum
                    .iter()
                    .map(|&i| program.rules[i].head.pred.name())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn agrees_with_naive_on_example2() {
        let edb = parse_database("a(1,2). a(1,4). a(4,1).").unwrap();
        assert_eq!(
            eval(&tc_program(), &edb),
            naive::evaluate(&tc_program(), &edb)
        );
    }
    #[test]
    fn agrees_with_naive_with_idb_input() {
        let input = parse_database("a(1,2). a(1,4). g(4,1).").unwrap();
        assert_eq!(
            eval(&tc_program(), &input),
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
        let out = eval(&tc_program(), &edb);
        assert_eq!(out.relation_len(Pred::new("g")), (n * (n + 1)) / 2);
    }

    #[test]
    fn left_linear_tc() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let edb = parse_database("a(1,2). a(2,3). a(3,1).").unwrap();
        let out = eval(&p, &edb);
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
        let out = eval(&p, &edb);
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
        let (out_s, stats_s) = run(&tc_program(), &edb);
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
        let out = eval(&p, &Database::new());
        assert_eq!(out.relation_len(Pred::new("g")), 3);
    }

    #[test]
    fn empty_input_empty_program() {
        assert!(eval(&Program::empty(), &Database::new()).is_empty());
    }

    #[test]
    fn indexes_are_built_per_pattern_and_appended_per_round() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let program = tc_program();
        let (out, stats) = run(&program, &edb);
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
        let out = eval(&tc_program(), &edb);
        assert_eq!(out.relation_len(Pred::new("g")), 26 * 26);
        assert_eq!(out, naive::evaluate(&tc_program(), &edb));
    }

    #[test]
    fn cross_tower_joins_are_matched_exactly_once() {
        // A rule joining two independent recursive towers runs once per
        // delta position per round while both towers grow. Since a literal
        // ahead of the delta literal reads only old rows, every body match
        // is found by the task at its first new row and by no other, so the
        // whole fixpoint matches exactly what one naive pass over the
        // fixpoint does.
        let p = parse_program(
            "t1(X, Z) :- e(X, Z). t1(X, Z) :- t1(X, Y), e(Y, Z).
             t2(X, Z) :- f(X, Z). t2(X, Z) :- t2(X, Y), f(Y, Z).
             cross(X, Y) :- t1(X, Y), t2(Y, X).",
        )
        .unwrap();
        let mut facts = String::new();
        for i in 0..20 {
            facts.push_str(&format!("e({}, {}).", i, i + 1));
            facts.push_str(&format!("f({}, {}).", i + 1, i));
        }
        let edb = parse_database(&facts).unwrap();
        let (out, stats) = run(&p, &edb);
        let (again, pass) = naive::evaluate_with_stats(&p, &out);
        assert_eq!(again, out);
        assert_eq!(pass.iterations, 1);
        assert_eq!(stats.matches, pass.matches, "semi-naive vs one pass");
    }

    fn reach_program() -> Program {
        parse_program(
            "reach(X) :- src(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreach(X) :- node(X), !reach(X).",
        )
        .unwrap()
    }

    #[test]
    fn unreachable_nodes() {
        let edb = parse_database(
            "src(1). node(1). node(2). node(3). node(4).
             edge(1, 2). edge(3, 4).",
        )
        .unwrap();
        let out = eval(&reach_program(), &edb);
        assert_eq!(out.relation_len(Pred::new("reach")), 2); // 1, 2
        assert_eq!(out.relation_len(Pred::new("unreach")), 2); // 3, 4
        assert!(out.contains_tuple(Pred::new("unreach"), &[Const::Int(3)]));
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
        let out = eval(&p, &edb);
        // p = {1}; q = {2}; r = {1}.
        assert!(out.contains_tuple(Pred::new("q"), &[Const::Int(2)]));
        assert!(out.contains_tuple(Pred::new("r"), &[Const::Int(1)]));
        assert_eq!(out.relation_len(Pred::new("r")), 1);
    }

    #[test]
    fn unstratifiable_is_an_error() {
        let p = parse_program("p(X) :- n(X), !q(X). q(X) :- n(X), !p(X).").unwrap();
        let edb = parse_database("n(1).").unwrap();
        assert_eq!(evaluate(&p, &edb), Err(EvalError::NotStratifiable));
    }

    #[test]
    fn an_unbound_variable_is_an_error_not_a_kernel_panic() {
        let edb = parse_database("a(1). b(1, 1).").unwrap();
        for src in ["p(X, Y) :- a(X).", "p(X) :- !b(X, X)."] {
            let p = parse_program(src).unwrap();
            assert!(
                matches!(evaluate(&p, &edb), Err(EvalError::Invalid(_))),
                "{src}"
            );
        }
    }

    #[test]
    fn strata_partition_rules() {
        assert_eq!(
            strata_heads(&reach_program()),
            [vec!["reach", "reach"], vec!["unreach"]]
        );
        // A positive program is one stratum.
        let even_odd = parse_program(
            "even(X) :- zero(X).
             odd(Y) :- even(X), succ(X, Y).
             even(Y) :- odd(X), succ(X, Y).
             report(X) :- even(X), interesting(X).",
        )
        .unwrap();
        assert_eq!(strata_heads(&even_odd).len(), 1);
    }

    #[test]
    fn negation_within_recursion_positive_part_ok() {
        // Negated predicate is EDB: single stratum works.
        let p =
            parse_program("t(X, Y) :- e(X, Y), !block(X). t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let edb = parse_database("e(1,2). e(2,3). block(2).").unwrap();
        let out = eval(&p, &edb);
        assert!(out.contains_tuple(Pred::new("t"), &[1.into(), 2.into()]));
        assert!(!out.contains_tuple(Pred::new("t"), &[2.into(), 3.into()]));
    }
}
