//! Query-directed program slicing.
//!
//! A complement to minimization: rules whose head predicate cannot reach
//! the query predicate in the dependence graph contribute nothing to the
//! query's answers and can be dropped wholesale before evaluation. This is
//! the coarse, purely syntactic cousin of the magic-sets rewriting the
//! paper cites in §I — magic restricts *tuples*, slicing restricts *rules*
//! — and the two compose: slice first, then magic, then evaluate.
//!
//! Unlike minimization, slicing does **not** preserve (uniform) equivalence
//! of the whole program; it preserves the relations of the predicates that
//! (transitively) feed the query predicate.

use datalog_ast::{DepGraph, Pred, Program};
use std::collections::BTreeSet;

/// The predicates on which `query` transitively depends (including
/// `query` itself): the reflexive-transitive closure of the reversed
/// dependence edges.
pub fn relevant_predicates(program: &Program, query: Pred) -> BTreeSet<Pred> {
    let graph = DepGraph::new(program);
    // predecessors: q → r edges mean "q feeds r"; we need everything that
    // feeds `query`, so walk edges backwards.
    let mut relevant = BTreeSet::from([query]);
    let mut frontier = vec![query];
    while let Some(p) = frontier.pop() {
        for &q in graph.predicates() {
            if graph.successors(q).any(|r| r == p) && relevant.insert(q) {
                frontier.push(q);
            }
        }
    }
    relevant
}

/// Keep only the rules whose head predicate is relevant to `query`.
/// The sliced program computes the same relation for `query` (and for every
/// other relevant predicate) on every EDB.
pub fn slice_for_query(program: &Program, query: Pred) -> Program {
    let relevant = relevant_predicates(program, query);
    Program {
        rules: program
            .rules
            .iter()
            .filter(|r| relevant.contains(&r.head.pred))
            .cloned()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};
    use datalog_engine::evaluate;

    fn two_towers() -> Program {
        parse_program(
            "t(X, Z) :- e(X, Z).
             t(X, Z) :- t(X, Y), e(Y, Z).
             s(X) :- t(X, X).
             unrelated(X, Z) :- f(X, Z).
             unrelated(X, Z) :- unrelated(X, Y), f(Y, Z).",
        )
        .unwrap()
    }

    #[test]
    fn relevant_set_is_transitive() {
        let p = two_towers();
        let rel = relevant_predicates(&p, Pred::new("s"));
        assert!(rel.contains(&Pred::new("s")));
        assert!(rel.contains(&Pred::new("t")));
        assert!(rel.contains(&Pred::new("e")));
        assert!(!rel.contains(&Pred::new("unrelated")));
        assert!(!rel.contains(&Pred::new("f")));
    }

    #[test]
    fn slice_drops_unrelated_rules() {
        let p = two_towers();
        let sliced = slice_for_query(&p, Pred::new("s"));
        assert_eq!(sliced.len(), 3);
    }

    #[test]
    fn sliced_program_answers_the_query_identically() {
        let p = two_towers();
        let sliced = slice_for_query(&p, Pred::new("s"));
        let edb = parse_database("e(1,2). e(2,1). e(3,3). f(7,8). f(8,7).").unwrap();
        let full = evaluate(&p, &edb).unwrap().0;
        let cut = evaluate(&sliced, &edb).unwrap().0;
        assert_eq!(
            full.relation(Pred::new("s")).collect::<Vec<_>>(),
            cut.relation(Pred::new("s")).collect::<Vec<_>>()
        );
        // And the unrelated tower was genuinely skipped.
        assert_eq!(cut.relation_len(Pred::new("unrelated")), 0);
        assert!(full.relation_len(Pred::new("unrelated")) > 0);
    }

    #[test]
    fn query_on_edb_pred_keeps_nothing() {
        let p = two_towers();
        let sliced = slice_for_query(&p, Pred::new("e"));
        assert!(sliced.is_empty());
    }

    #[test]
    fn mutual_recursion_stays_together() {
        let p = parse_program("p(X) :- q(X). q(X) :- p(X). q(X) :- e(X). r(X) :- d(X).").unwrap();
        let sliced = slice_for_query(&p, Pred::new("p"));
        assert_eq!(sliced.len(), 3);
    }

    #[test]
    fn slicing_composes_with_minimization() {
        let p = parse_program(
            "t(X, Z) :- e(X, Z).
             t(X, Z) :- e(X, Z), e(X, Z).
             junk(X) :- h(X), h(X).",
        )
        .unwrap();
        let sliced = slice_for_query(&p, Pred::new("t"));
        let (min, removal) = crate::minimize::minimize_program(&sliced).unwrap();
        assert_eq!(min.len(), 1);
        assert!(!removal.is_empty());
    }
}
