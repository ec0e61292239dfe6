//! Semi-naive bottom-up evaluation, the one entry point of the context
//! evaluators: [`evaluate`] computes `P(d)` under a [`Schedule`].
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
//! # Schedules
//!
//! A schedule groups the rules into layers that are saturated in order, on
//! one [`EvalContext`] (indexes built for an early layer are appended to by
//! later ones, never rebuilt):
//!
//! * [`Schedule::Strata`] — a positive program is one layer. A program with
//!   negation is split into strata by the dependence graph (negative edges
//!   must cross strictly upward), the §XII extension.
//! * [`Schedule::Scc`] — one layer per strongly connected component of the
//!   dependence graph, in dependency order. Delta rounds then never revisit
//!   rules whose inputs can no longer change.
//!
//! Both are sound under stratified negation: a negated literal is a
//! membership test against the context database, and every rule that
//! defines the negated predicate sits in an earlier layer, which is
//! saturated before the rule that negates it runs. For strata that is their
//! definition. For SCCs it holds because a stratifiable program has no
//! negative edge inside a component, and components come dependencies
//! first. A program with a cycle through negation is [`NotStratifiable`]
//! under either schedule.
//!
//! The reference it is tested against is [`crate::naive`], which shares
//! none of this.

use crate::context::{EvalContext, EvalOptions};
use crate::stats::Stats;
use datalog_ast::{Database, DepGraph, Pred, Program};
use std::collections::BTreeMap;
use std::fmt;

/// How [`evaluate`] groups a program's rules into layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// One layer per stratum; a positive program is a single layer.
    #[default]
    Strata,
    /// One layer per strongly connected component, in dependency order.
    Scc,
}

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

/// Compute `P(d)` semi-naively, saturating `schedule`'s layers of
/// `program` in order. The output contains the input, including atoms it
/// supplies for intentional predicates.
pub fn evaluate(
    program: &Program,
    input: &Database,
    schedule: Schedule,
    opts: EvalOptions,
) -> Result<(Database, Stats), NotStratifiable> {
    let layers = schedule.layers(program)?;
    let mut cx = EvalContext::new(program, input.clone(), opts);
    for rules in layers.iter().filter(|rules| !rules.is_empty()) {
        cx.saturate(rules);
    }
    let stats = cx.stats();
    Ok((cx.into_database(), stats))
}

impl Schedule {
    /// `program`'s rule indices, grouped into the layers this schedule
    /// saturates in order.
    fn layers(self, program: &Program) -> Result<Vec<Vec<usize>>, NotStratifiable> {
        if self == Schedule::Strata && program.is_positive() {
            // Round 1 is a full pass over the input (EDB-only rules, facts
            // and input-supplied IDB atoms in one go); later rounds are
            // delta-driven.
            return Ok(vec![(0..program.rules.len()).collect()]);
        }
        let graph = DepGraph::new(program);
        let strata = graph.stratify().ok_or(NotStratifiable)?;
        let layer_of: BTreeMap<Pred, usize> = match self {
            Schedule::Strata => strata,
            // Tarjan's SCCs come dependencies first.
            Schedule::Scc => graph
                .sccs()
                .iter()
                .enumerate()
                .flat_map(|(i, scc)| scc.iter().map(move |&p| (p, i)))
                .collect(),
        };
        let mut layers = vec![Vec::new(); layer_of.values().max().map_or(0, |&m| m + 1)];
        for (i, rule) in program.rules.iter().enumerate() {
            layers[layer_of[&rule.head.pred]].push(i);
        }
        Ok(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use datalog_ast::{parse_database, parse_program, Const};

    const SCHEDULES: [Schedule; 2] = [Schedule::Strata, Schedule::Scc];

    fn run(program: &Program, input: &Database, schedule: Schedule) -> (Database, Stats) {
        evaluate(program, input, schedule, EvalOptions::default()).unwrap()
    }

    fn eval(program: &Program, input: &Database) -> Database {
        run(program, input, Schedule::Strata).0
    }

    fn tc_program() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    /// The heads of each layer, in order.
    fn layer_heads(program: &Program, schedule: Schedule) -> Vec<Vec<String>> {
        schedule
            .layers(program)
            .unwrap()
            .iter()
            .filter(|layer| !layer.is_empty())
            .map(|layer| {
                layer
                    .iter()
                    .map(|&i| program.rules[i].head.pred.name())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn agrees_with_naive_on_example2() {
        let edb = parse_database("a(1,2). a(1,4). a(4,1).").unwrap();
        for schedule in SCHEDULES {
            assert_eq!(
                run(&tc_program(), &edb, schedule).0,
                naive::evaluate(&tc_program(), &edb)
            );
        }
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
        let (out_s, stats_s) = run(&tc_program(), &edb, Schedule::Strata);
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
        for schedule in SCHEDULES {
            assert!(run(&Program::empty(), &Database::new(), schedule)
                .0
                .is_empty());
        }
    }

    #[test]
    fn indexes_are_built_per_pattern_and_appended_per_round() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let program = tc_program();
        let (out, stats) = run(&program, &edb, Schedule::Strata);
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
    fn layered_program_matches_one_layer() {
        let p = parse_program(
            "t(X, Z) :- e(X, Z).
             t(X, Z) :- t(X, Y), e(Y, Z).
             s(X) :- t(X, Y), mark(Y).
             u(X) :- s(X), e(X, X).",
        )
        .unwrap();
        let edb = parse_database("e(1,2). e(2,3). e(3,3). mark(3).").unwrap();
        assert_eq!(run(&p, &edb, Schedule::Scc).0, eval(&p, &edb));
    }

    #[test]
    fn mutually_recursive_preds_share_a_layer() {
        let p = parse_program(
            "even(X) :- zero(X).
             odd(Y) :- even(X), succ(X, Y).
             even(Y) :- odd(X), succ(X, Y).
             report(X) :- even(X), interesting(X).",
        )
        .unwrap();
        // even/odd rules together in one layer; report in a later layer.
        assert_eq!(
            layer_heads(&p, Schedule::Scc),
            [vec!["even", "odd", "even"], vec!["report"]]
        );
        // A positive program is one stratum.
        assert_eq!(layer_heads(&p, Schedule::Strata).len(), 1);

        let edb = parse_database("zero(0). succ(0,1). succ(1,2). interesting(2).").unwrap();
        assert_eq!(run(&p, &edb, Schedule::Scc).0, naive::evaluate(&p, &edb));
    }

    #[test]
    fn layers_never_reorder_dependencies() {
        let p = parse_program("c(X) :- b(X). b(X) :- a(X). d(X) :- c(X), b(X).").unwrap();
        assert_eq!(
            layer_heads(&p, Schedule::Scc),
            [vec!["b"], vec!["c"], vec!["d"]]
        );
    }

    #[test]
    fn idb_seeded_inputs_still_agree() {
        let p = parse_program("t(X, Z) :- e(X, Z). t(X, Z) :- t(X, Y), t(Y, Z). s(X) :- t(X, X).")
            .unwrap();
        let input = parse_database("e(1,2). t(2,1). s(9).").unwrap();
        assert_eq!(
            run(&p, &input, Schedule::Scc).0,
            naive::evaluate(&p, &input)
        );
    }

    #[test]
    fn layering_matches_one_layer_on_cross_tower_joins() {
        // A rule joining two independent recursive towers. SCC layers
        // compute both towers first and sweep the join once over complete
        // inputs; one layer runs it once per delta position per round. Since
        // a literal ahead of the delta literal reads only old rows, every
        // match of the join is found once either way, so the layering saves
        // no match here: the two counts are equal.
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
        let (out_l, stats_l) = run(&p, &edb, Schedule::Scc);
        let (out_m, stats_m) = run(&p, &edb, Schedule::Strata);
        assert_eq!(out_l, out_m);
        assert_eq!(stats_l.matches, stats_m.matches, "layered vs monolithic");
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
        for schedule in SCHEDULES {
            let out = run(&reach_program(), &edb, schedule).0;
            assert_eq!(out.relation_len(Pred::new("reach")), 2); // 1, 2
            assert_eq!(out.relation_len(Pred::new("unreach")), 2); // 3, 4
            assert!(out.contains_tuple(Pred::new("unreach"), &[Const::Int(3)]));
        }
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
        for schedule in SCHEDULES {
            let out = run(&p, &edb, schedule).0;
            // p = {1}; q = {2}; r = {1}.
            assert!(out.contains_tuple(Pred::new("q"), &[Const::Int(2)]));
            assert!(out.contains_tuple(Pred::new("r"), &[Const::Int(1)]));
            assert_eq!(out.relation_len(Pred::new("r")), 1);
        }
    }

    #[test]
    fn unstratifiable_is_an_error_under_every_schedule() {
        let p = parse_program("p(X) :- n(X), !q(X). q(X) :- n(X), !p(X).").unwrap();
        let edb = parse_database("n(1).").unwrap();
        for schedule in SCHEDULES {
            assert_eq!(
                evaluate(&p, &edb, schedule, EvalOptions::default()),
                Err(NotStratifiable),
                "{schedule:?}"
            );
        }
    }

    #[test]
    fn strata_partition_rules() {
        assert_eq!(
            layer_heads(&reach_program(), Schedule::Strata),
            [vec!["reach", "reach"], vec!["unreach"]]
        );
    }

    #[test]
    fn negation_within_recursion_positive_part_ok() {
        // Negated predicate is EDB: single stratum works.
        let p =
            parse_program("t(X, Y) :- e(X, Y), !block(X). t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let edb = parse_database("e(1,2). e(2,3). block(2).").unwrap();
        for schedule in SCHEDULES {
            let out = run(&p, &edb, schedule).0;
            assert!(out.contains_tuple(Pred::new("t"), &[1.into(), 2.into()]));
            assert!(!out.contains_tuple(Pred::new("t"), &[2.into(), 3.into()]));
        }
    }
}
