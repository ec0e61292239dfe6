//! Delta-debugging reduction of diverging cases.
//!
//! Given a case and a predicate "does this case still diverge?", the
//! reducer greedily shrinks the case while the predicate holds: whole
//! rules, then body atoms, then queries, mutation batches and their facts,
//! then database facts, and finally a constant-renumbering pass that maps
//! the surviving integer constants onto a dense `0..n` range. Passes repeat
//! until a full sweep removes nothing, so the result is 1-minimal with
//! respect to each pass's removal granularity.
//!
//! Every pass iterates in a content-determined order (vector order for
//! rules/atoms/queries/mutations, lexicographic rendering for database
//! facts, ascending numeric order for the constant map), so reduction is
//! deterministic for a given input case — reducing twice yields the same
//! case, byte-for-byte once rendered as a fixture.

use crate::workload::Case;
use datalog_ast::{Const, Database, GroundAtom, Program, Rule, Term};
use std::collections::BTreeSet;

/// Is the candidate still a failing (diverging) case?
pub type Check<'a> = dyn Fn(&Case) -> bool + 'a;

/// Shrink `case` while `still_fails` holds. `case` itself must satisfy the
/// predicate; the result is the smallest case the greedy passes reach. A
/// predicate that stops holding for every candidate (a spent time budget,
/// see [`crate::fuzz`]) ends reduction at the case reached so far.
pub fn reduce(case: &Case, still_fails: &Check<'_>) -> Case {
    let mut current = case.clone();
    loop {
        let mut changed = false;
        changed |= drop_rules(&mut current, still_fails);
        changed |= drop_body_atoms(&mut current, still_fails);
        changed |= drop_queries(&mut current, still_fails);
        changed |= drop_mutations(&mut current, still_fails);
        changed |= drop_db_facts(&mut current, still_fails);
        if !changed {
            break;
        }
    }
    // Cosmetic, run once at the end: dense-renumber the constants.
    renumber_constants(&mut current, still_fails);
    current
}

/// Try removing whole rules, one at a time, front to back.
fn drop_rules(case: &mut Case, still_fails: &Check<'_>) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < case.program.len() {
        let mut candidate = case.clone();
        candidate.program.rules.remove(i);
        if still_fails(&candidate) {
            *case = candidate;
            changed = true;
        } else {
            i += 1;
        }
    }
    changed
}

/// Try removing single body atoms. A removal that breaks validity (range
/// restriction, unsafe negation) simply fails the check — `oracles::check`
/// treats invalid programs as non-divergent.
fn drop_body_atoms(case: &mut Case, still_fails: &Check<'_>) -> bool {
    let mut changed = false;
    let mut r = 0;
    while r < case.program.len() {
        let mut a = 0;
        while a < case.program.rules[r].width() {
            let mut candidate = case.clone();
            candidate.program.rules[r].body.remove(a);
            if datalog_ast::validate(&candidate.program).is_ok() && still_fails(&candidate) {
                *case = candidate;
                changed = true;
            } else {
                a += 1;
            }
        }
        r += 1;
    }
    changed
}

fn drop_queries(case: &mut Case, still_fails: &Check<'_>) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < case.queries.len() {
        let mut candidate = case.clone();
        candidate.queries.remove(i);
        if still_fails(&candidate) {
            *case = candidate;
            changed = true;
        } else {
            i += 1;
        }
    }
    changed
}

/// Drop whole mutation batches, then individual facts within batches.
fn drop_mutations(case: &mut Case, still_fails: &Check<'_>) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < case.mutations.len() {
        let mut candidate = case.clone();
        candidate.mutations.remove(i);
        if still_fails(&candidate) {
            *case = candidate;
            changed = true;
        } else {
            i += 1;
        }
    }
    let mut b = 0;
    while b < case.mutations.len() {
        let mut f = 0;
        while f < case.mutations[b].facts().len() {
            let mut candidate = case.clone();
            candidate.mutations[b].facts_mut().remove(f);
            if !candidate.mutations[b].facts().is_empty() && still_fails(&candidate) {
                *case = candidate;
                changed = true;
            } else {
                f += 1;
            }
        }
        b += 1;
    }
    changed
}

/// Drop database facts one at a time, in lexicographic order of their
/// rendered form (the database's internal order depends on interning order,
/// which is process-run dependent — rendering is not).
fn drop_db_facts(case: &mut Case, still_fails: &Check<'_>) -> bool {
    let mut changed = false;
    let mut facts: Vec<GroundAtom> = case.db.iter().collect();
    facts.sort_by_key(|a| a.to_string());
    for fact in facts {
        let mut candidate = case.clone();
        candidate.db.remove(&fact);
        if still_fails(&candidate) {
            *case = candidate;
            changed = true;
        }
    }
    changed
}

/// Map the surviving integer constants (in ascending order) onto `0..n`.
/// Applied only if the renamed case still fails — renaming is a bijection
/// on the active domain, so for the engines/incremental oracles it always
/// preserves the divergence, but the check keeps the pass safe regardless.
fn renumber_constants(case: &mut Case, still_fails: &Check<'_>) {
    let mut ints: BTreeSet<i64> = BTreeSet::new();
    let mut note = |c: &Const| {
        if let Const::Int(i) = c {
            ints.insert(*i);
        }
    };
    for g in case.db.iter() {
        g.tuple.iter().for_each(&mut note);
    }
    for m in &case.mutations {
        for g in m.facts() {
            g.tuple.iter().for_each(&mut note);
        }
    }
    for q in &case.queries {
        for t in &q.terms {
            if let Term::Const(c) = t {
                note(c);
            }
        }
    }
    for rule in &case.program.rules {
        for t in rule
            .head
            .terms
            .iter()
            .chain(rule.body.iter().flat_map(|l| l.atom.terms.iter()))
        {
            if let Term::Const(c) = t {
                note(c);
            }
        }
    }
    let map: std::collections::BTreeMap<i64, i64> = ints
        .iter()
        .enumerate()
        .map(|(rank, &i)| (i, rank as i64))
        .collect();
    if map.iter().all(|(k, v)| k == v) {
        return; // already dense
    }
    let ren_const = |c: Const| match c {
        Const::Int(i) => Const::Int(map[&i]),
        other => other,
    };
    let ren_atom = |g: &GroundAtom| GroundAtom {
        pred: g.pred,
        tuple: g.tuple.iter().map(|&c| ren_const(c)).collect(),
    };
    let ren_term = |t: &Term| match t {
        Term::Const(c) => Term::Const(ren_const(*c)),
        v => *v,
    };

    let mut candidate = case.clone();
    candidate.db = case.db.iter().map(|g| ren_atom(&g)).collect::<Database>();
    for m in &mut candidate.mutations {
        let facts = m.facts_mut();
        *facts = facts.iter().map(ren_atom).collect();
    }
    for q in &mut candidate.queries {
        q.terms = q.terms.iter().map(ren_term).collect();
    }
    candidate.program = Program::new(
        case.program
            .rules
            .iter()
            .map(|r| {
                let mut rule: Rule = r.clone();
                rule.head.terms = rule.head.terms.iter().map(ren_term).collect();
                for lit in &mut rule.body {
                    lit.atom.terms = lit.atom.terms.iter().map(ren_term).collect();
                }
                rule
            })
            .collect(),
    );
    if still_fails(&candidate) {
        *case = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::Family;
    use datalog_ast::{fact, parse_atom, parse_database, parse_program};
    use datalog_engine::evaluate;

    fn base_case() -> Case {
        Case {
            family: Family::Engines,
            seed: 7,
            program: parse_program(
                "g(X, Z) :- a(X, Z).
                 g(X, Z) :- g(X, Y), g(Y, Z).
                 h(X) :- c(X), g(X, X).",
            )
            .unwrap(),
            db: parse_database("a(4,5). a(5,6). a(6,4). c(4). c(9). a(10,11).").unwrap(),
            queries: vec![parse_atom("g(4, X)").unwrap(), parse_atom("h(Y)").unwrap()],
            mutations: Vec::new(),
        }
    }

    #[test]
    fn reduces_to_the_failure_core() {
        // Synthetic failure: "the fixpoint contains g(4, 4)" — needs the
        // 4→5→6→4 cycle and both g-rules, but not h, c, or the stray edge.
        let failing = |c: &Case| {
            evaluate(&c.program, &c.db)
                .unwrap()
                .0
                .contains(&fact("g", [4, 4]))
        };
        let case = base_case();
        assert!(failing(&case));
        let reduced = reduce(&case, &failing);
        assert!(failing(&reduced));
        assert!(reduced.program.len() <= 2, "kept:\n{}", reduced.program);
        assert!(reduced.db.len() <= 3, "kept {} facts", reduced.db.len());
        assert!(reduced.queries.is_empty());
    }

    #[test]
    fn reduction_is_idempotent_and_deterministic() {
        let failing = |c: &Case| {
            let out = evaluate(&c.program, &c.db).unwrap().0;
            out.relation_len(datalog_ast::Pred::new("g")) >= 3
        };
        let case = base_case();
        assert!(failing(&case));
        let once = reduce(&case, &failing);
        let twice = reduce(&once, &failing);
        assert_eq!(once, twice, "reduce must be idempotent");
        let again = reduce(&case, &failing);
        assert_eq!(once, again, "reduce must be deterministic");
    }

    #[test]
    fn renumbering_densifies_constants() {
        // A predicate insensitive to the concrete constants: any nonempty
        // g-relation. Renumbering applies and maps 4.. onto 0..
        let failing = |c: &Case| {
            evaluate(&c.program, &c.db)
                .unwrap()
                .0
                .relation(datalog_ast::Pred::new("g"))
                .next()
                .is_some()
        };
        let case = base_case();
        let reduced = reduce(&case, &failing);
        let max = reduced
            .db
            .active_domain()
            .into_iter()
            .filter_map(|c| match c {
                Const::Int(i) => Some(i),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(max <= 1, "constants not densified (max {max})");
    }
}
