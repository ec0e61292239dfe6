//! Model-based property test for the selection primitive.
//!
//! [`Database::select`] / [`Relation::select`] answer a pattern from the
//! dictionary code columns; the reference is the loop they replaced — walk
//! the predicate's rows in tuple order, box each into a [`GroundAtom`], keep
//! what [`match_atom`] accepts. Both the set and the order must agree: the
//! service serialises `select`'s rows as they come.

use datalog_ast::{match_atom, Atom, Const, Database, GroundAtom, Pred, Relation, Term, Var};
use proptest::prelude::*;

/// Stored constants: mixed kinds, small enough that rows collide.
fn stored_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        (0i64..5).prop_map(Const::Int),
        (0u32..3).prop_map(Const::Null),
    ]
}

/// Pattern terms: the stored constants, two integers no row ever holds (so
/// some dictionary lookups miss), and three variable names — with at most
/// three positions a pattern often repeats one, `_` included (the parser
/// reads `_` as an ordinary variable, so `p(_, _)` asks for equal columns).
fn pattern_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..7).prop_map(|i| Term::Const(Const::Int(i))),
        (0u32..3).prop_map(|n| Term::Const(Const::Null(n))),
        prop::sample::select(vec!["X", "Y", "_"]).prop_map(|v| Term::Var(Var::new(v))),
        prop::sample::select(vec!["X", "_"]).prop_map(|v| Term::Var(Var::new(v))),
    ]
}

/// Insert/remove operations on rows of 0 to 3 columns, all under one
/// predicate: the database holds it at several arities at once, and the
/// removes (drawn like the inserts, so many hit) swap rows around.
fn ops() -> impl Strategy<Value = Vec<(bool, Vec<Const>)>> {
    let op = (
        prop::bool::weighted(0.8),
        prop::collection::vec(stored_const(), 0..=3),
    );
    prop::collection::vec(op, 0..80)
}

/// The loop `select` replaced.
fn reference(db: &Database, pattern: &Atom) -> Vec<Vec<Const>> {
    db.relation(pattern.pred)
        .filter(|row| {
            let ground = GroundAtom::new(pattern.pred, *row);
            match_atom(pattern, &ground).is_some()
        })
        .map(<[Const]>::to_vec)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn select_is_the_match_atom_filter_in_tuple_order(
        ops in ops(),
        patterns in prop::collection::vec(prop::collection::vec(pattern_term(), 0..=3), 1..12),
    ) {
        let pred = Pred::new("p");
        let mut db = Database::new();
        for (insert, row) in &ops {
            if *insert {
                db.insert_row(pred, row);
            } else {
                db.remove(&GroundAtom::new(pred, row.clone()));
            }
        }
        for terms in patterns {
            let pattern = Atom { pred, terms };
            let got: Vec<Vec<Const>> =
                db.select(&pattern).into_iter().map(<[Const]>::to_vec).collect();
            prop_assert_eq!(&got, &reference(&db, &pattern), "pattern {}", pattern);
            // A relation of another arity selects nothing, whatever it holds.
            for rel in db.relations_of(pred) {
                if rel.arity() != pattern.arity() {
                    prop_assert!(rel.select(&pattern.terms).is_empty());
                }
            }
            // Another predicate has no rows at all.
            let elsewhere = Atom { pred: Pred::new("q"), terms: pattern.terms.clone() };
            prop_assert!(db.select(&elsewhere).is_empty());
        }
    }
}

fn ints(rows: &[&[Const]]) -> Vec<Vec<i64>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|c| match c {
                    Const::Int(i) => *i,
                    other => panic!("unexpected {other}"),
                })
                .collect()
        })
        .collect()
}

/// The cases the generator is meant to reach, spelled out.
#[test]
fn directed_cases() {
    let mut rel = Relation::new(2);
    for row in [[3, 1], [1, 1], [2, 9], [1, 2], [9, 9], [2, 2]] {
        rel.insert(&row.map(Const::Int));
    }
    // Swap-removes: the last row moves into the hole, codes stay put.
    rel.remove(&[Const::Int(3), Const::Int(1)]);
    rel.remove(&[Const::Int(2), Const::Int(9)]);
    let x = Term::Var(Var::new("X"));
    let y = Term::Var(Var::new("Y"));
    let any = Term::Var(Var::new("_"));
    let int = |i| Term::Const(Const::Int(i));

    assert_eq!(
        ints(&rel.select(&[x, y])),
        [[1, 1], [1, 2], [2, 2], [9, 9]],
        "all free, tuple order whatever the insertion order"
    );
    assert_eq!(ints(&rel.select(&[int(1), x])), [[1, 1], [1, 2]]);
    assert_eq!(ints(&rel.select(&[x, int(2)])), [[1, 2], [2, 2]]);
    assert_eq!(
        ints(&rel.select(&[x, x])),
        [[1, 1], [2, 2], [9, 9]],
        "repeated variable"
    );
    assert_eq!(
        ints(&rel.select(&[any, any])),
        [[1, 1], [2, 2], [9, 9]],
        "`_` is a variable like any other"
    );
    assert_eq!(ints(&rel.select(&[int(9), int(9)])), [[9, 9]], "all bound");
    assert!(
        rel.select(&[int(9), int(1)]).is_empty(),
        "all bound, absent"
    );
    // 3 is still in column 0's dictionary (append-only) but in no row; 7 is
    // in neither dictionary.
    assert!(rel.select(&[int(3), x]).is_empty());
    assert!(rel.select(&[int(7), x]).is_empty());
    assert!(rel.select(&[x, int(7)]).is_empty());
    // 9 has a code in both columns, and they differ (column 1 saw 1 first).
    assert_ne!(
        rel.lookup_code(0, Const::Int(9)),
        rel.lookup_code(1, Const::Int(9))
    );
    assert!(rel.select(&[x]).is_empty(), "another arity");
    assert!(rel.select(&[x, y, x]).is_empty(), "another arity");

    let mut three = Relation::new(3);
    for row in [[1, 5, 1], [1, 5, 2], [2, 5, 2], [1, 6, 1]] {
        three.insert(&row.map(Const::Int));
    }
    assert_eq!(
        ints(&three.select(&[x, int(5), x])),
        [[1, 5, 1], [2, 5, 2]],
        "repeated variable around a constant"
    );

    let mut unit = Relation::new(0);
    assert!(unit.select(&[]).is_empty());
    unit.insert(&[]);
    assert_eq!(unit.select(&[]), [&[] as &[Const]]);
}
