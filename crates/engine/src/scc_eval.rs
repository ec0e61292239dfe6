//! SCC-scheduled semi-naive evaluation.
//!
//! Rules are grouped by the strongly connected component of their head
//! predicate and evaluated in topological order: once a component is
//! saturated, its relations are frozen context for later components. The
//! fixpoint is identical to [`crate::seminaive`]; the win is that delta
//! rounds never revisit rules whose inputs can no longer change — on
//! layered programs this removes whole rule-sweeps per round.

use crate::context::EvalOptions;
use crate::stats::Stats;
use datalog_ast::{Database, DepGraph, Pred, Program};
use std::collections::BTreeMap;

/// Partition a program's rules into SCC layers in dependency order: the
/// rules of layer `i` only depend on predicates defined in layers `≤ i`
/// (or on extensional predicates).
pub fn layers(program: &Program) -> Vec<Program> {
    let graph = DepGraph::new(program);
    let sccs = graph.sccs();
    let comp_of: BTreeMap<Pred, usize> = sccs
        .iter()
        .enumerate()
        .flat_map(|(i, scc)| scc.iter().map(move |&p| (p, i)))
        .collect();
    let mut out: Vec<Program> = vec![Program::empty(); sccs.len()];
    for rule in &program.rules {
        out[comp_of[&rule.head.pred]].rules.push(rule.clone());
    }
    out.retain(|layer| !layer.is_empty());
    out
}

/// Evaluate `program` on `input`, SCC layer by SCC layer. Same result as
/// [`crate::seminaive::evaluate`]; positive programs only.
pub fn evaluate(program: &Program, input: &Database) -> Database {
    evaluate_with_stats(program, input).0
}

/// [`evaluate`], also returning aggregated work counters.
pub fn evaluate_with_stats(program: &Program, input: &Database) -> (Database, Stats) {
    evaluate_with_opts(program, input, EvalOptions::sequential())
}

/// [`evaluate`] with explicit [`EvalOptions`] (worker-thread knob).
///
/// One [`EvalContext`] is shared across all SCC layers: indexes built while
/// saturating an early component are appended to — never rebuilt — when
/// later components probe the same patterns.
pub fn evaluate_with_opts(
    program: &Program,
    input: &Database,
    opts: EvalOptions,
) -> (Database, Stats) {
    assert!(
        program.is_positive(),
        "scc_eval::evaluate requires a positive program; use stratified::evaluate"
    );
    let graph = DepGraph::new(program);
    let sccs = graph.sccs();
    let comp_of: BTreeMap<Pred, usize> = sccs
        .iter()
        .enumerate()
        .flat_map(|(i, scc)| scc.iter().map(move |&p| (p, i)))
        .collect();
    let mut rule_layers: Vec<Vec<usize>> = vec![Vec::new(); sccs.len()];
    for (i, rule) in program.rules.iter().enumerate() {
        rule_layers[comp_of[&rule.head.pred]].push(i);
    }

    // Topological order: when a layer runs, everything below it is frozen.
    crate::seminaive::evaluate_layers(program, input, opts, &rule_layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, seminaive};
    use datalog_ast::{parse_database, parse_program};

    #[test]
    fn layered_program_matches_seminaive() {
        let p = parse_program(
            "t(X, Z) :- e(X, Z).
             t(X, Z) :- t(X, Y), e(Y, Z).
             s(X) :- t(X, Y), mark(Y).
             u(X) :- s(X), e(X, X).",
        )
        .unwrap();
        let edb = parse_database("e(1,2). e(2,3). e(3,3). mark(3).").unwrap();
        assert_eq!(evaluate(&p, &edb), seminaive::evaluate(&p, &edb));
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
        let ls = layers(&p);
        // even/odd rules together in one layer; report in a later layer.
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].len(), 3);
        assert_eq!(ls[1].len(), 1);

        let edb = parse_database("zero(0). succ(0,1). succ(1,2). interesting(2).").unwrap();
        assert_eq!(evaluate(&p, &edb), naive::evaluate(&p, &edb));
    }

    #[test]
    fn layers_never_reorder_dependencies() {
        let p = parse_program("c(X) :- b(X). b(X) :- a(X). d(X) :- c(X), b(X).").unwrap();
        let ls = layers(&p);
        // b before c before d.
        let pos = |head: &str| {
            ls.iter()
                .position(|l| l.rules.iter().any(|r| r.head.pred.name() == head))
                .unwrap()
        };
        assert!(pos("b") < pos("c"));
        assert!(pos("c") < pos("d"));
    }

    #[test]
    fn idb_seeded_inputs_still_agree() {
        let p = parse_program("t(X, Z) :- e(X, Z). t(X, Z) :- t(X, Y), t(Y, Z). s(X) :- t(X, X).")
            .unwrap();
        let input = parse_database("e(1,2). t(2,1). s(9).").unwrap();
        assert_eq!(evaluate(&p, &input), naive::evaluate(&p, &input));
    }

    #[test]
    fn layering_reduces_matches_on_cross_tower_joins() {
        // A rule joining two independent recursive towers: monolithic
        // semi-naive re-evaluates the join once per delta position per
        // round, rediscovering partial answers; layered evaluation computes
        // both towers first and sweeps the join once over complete inputs.
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
        let (out_l, stats_l) = evaluate_with_stats(&p, &edb);
        let (out_m, stats_m) = seminaive::evaluate_with_stats(&p, &edb);
        assert_eq!(out_l, out_m);
        assert!(
            stats_l.matches < stats_m.matches,
            "layered {} vs monolithic {}",
            stats_l.matches,
            stats_m.matches
        );
    }
}
