//! Model-based property tests for the columnar storage layer.
//!
//! [`Relation`] (arena + row-id buckets + swap-remove + sorted-id cache)
//! is checked operation-for-operation against the simplest possible
//! reference — a `BTreeSet<Box<[Const]>>`, which is exactly the structure
//! the pre-columnar `Database` was built on. Any divergence in membership,
//! cardinality, mutation return values, or sorted iteration order is a
//! storage-layer bug.
//!
//! A second suite targets the dictionary-encoded code columns: intern /
//! resolve round-trips, append-only code stability across swap-remove, and
//! copy-on-write snapshot isolation under interleaved mutation.
//!
//! A third suite drives whole [`Database`]s and checks that §III set
//! equality (including the empty-bucket pruning regression from the
//! incremental-maintenance PR) is preserved by the columnar swap.
//!
//! Every domain mixes all four [`Const`] kinds, so sorted iteration — built
//! from per-column dictionary ranks — is checked across kinds, and a long
//! history over a wide domain makes the dedup and dictionary id tables grow
//! several times and reuse their tombstones.

use datalog_ast::{Const, Database, GroundAtom, Relation, Sym, Var};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// `n` constants, the four kinds in turn: integers (negative ones too),
/// symbols, frozen variables and labelled nulls.
fn domain(n: usize) -> Vec<Const> {
    (0..n)
        .map(|i| {
            let j = i / 4;
            match i % 4 {
                0 => Const::Int(j as i64 - n as i64 / 8),
                1 => Const::Sym(Sym::new(&format!("rm-s{j}"))),
                2 => Const::Frozen(Var::new(&format!("Rm{j}"))),
                _ => Const::Null(j as u32),
            }
        })
        .collect()
}

/// A small constant domain: mixed kinds so row hashing sees distinct tags.
fn const_strategy() -> impl Strategy<Value = Const> {
    prop::sample::select(domain(12))
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<Const>),
    Remove(Vec<Const>),
}

/// A fixed arity plus a sequence of insert/remove operations on rows of
/// that arity. Removes draw from the same distribution as inserts, so a
/// healthy fraction hit rows that are actually present (exercising
/// swap-remove and bucket fixup), while others miss.
fn ops_strategy() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (0usize..=3).prop_flat_map(|arity| {
        let op = (
            prop::bool::weighted(0.75),
            prop::collection::vec(const_strategy(), arity),
        )
            .prop_map(|(insert, row)| {
                if insert {
                    Op::Insert(row)
                } else {
                    Op::Remove(row)
                }
            });
        (Just(arity), prop::collection::vec(op, 0..60))
    })
}

/// A long history: 500-700 operations whose rows lead with one of 240
/// constants (the rest from a handful), so the dedup table and the first
/// column's dictionary table grow several times, and removals hit often
/// enough to leave tombstones that later inserts reuse.
fn long_ops_strategy() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (1usize..=3).prop_flat_map(|arity| {
        let wide = domain(240);
        let narrow = wide[..6].to_vec();
        let row = (
            prop::sample::select(wide),
            prop::collection::vec(prop::sample::select(narrow), arity - 1),
        )
            .prop_map(|(first, rest)| {
                let mut row = vec![first];
                row.extend(rest);
                row
            });
        let op = (prop::bool::weighted(0.6), row).prop_map(|(insert, row)| {
            if insert {
                Op::Insert(row)
            } else {
                Op::Remove(row)
            }
        });
        (Just(arity), prop::collection::vec(op, 500..700))
    })
}

/// Relation ≡ BTreeSet along `ops`: mutation results, cardinality,
/// membership, sorted iteration and row-id round-trips.
fn check_against_model(arity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut rel = Relation::new(arity);
    let mut model: BTreeSet<Box<[Const]>> = BTreeSet::new();
    for op in ops {
        match op {
            Op::Insert(row) => {
                let fresh = rel.insert(row).is_some();
                let model_fresh = model.insert(row.as_slice().into());
                prop_assert_eq!(fresh, model_fresh, "insert {:?}", row);
            }
            Op::Remove(row) => {
                let hit = rel.remove(row);
                let model_hit = model.remove(row.as_slice());
                prop_assert_eq!(hit, model_hit, "remove {:?}", row);
            }
        }
        prop_assert_eq!(rel.len(), model.len());
    }
    // Membership agrees on every row ever mentioned.
    for op in ops {
        let row = match op {
            Op::Insert(r) | Op::Remove(r) => r,
        };
        prop_assert_eq!(rel.contains(row), model.contains(row.as_slice()));
    }
    // Sorted iteration reproduces the model's (BTreeSet) order exactly —
    // the invariant that keeps golden output byte-identical to the
    // pre-columnar engine.
    let got: Vec<&[Const]> = rel.iter_sorted().collect();
    let want: Vec<&[Const]> = model.iter().map(|r| &**r).collect();
    prop_assert_eq!(got, want);
    // Row-id round-trip: every id handed back by iteration dereferences
    // to a row of the right arity that the model also holds.
    for (id, row) in rel.iter_with_ids() {
        prop_assert_eq!(rel.row(id), row);
        prop_assert_eq!(row.len(), arity);
        prop_assert!(model.contains(row));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    // Relation ≡ BTreeSet under arbitrary insert/remove interleavings.
    #[test]
    fn relation_matches_btreeset_model((arity, ops) in ops_strategy()) {
        check_against_model(arity, &ops)?;
    }

    // The same over long histories on a wide domain.
    #[test]
    fn long_histories_match_btreeset_model((arity, ops) in long_ops_strategy()) {
        check_against_model(arity, &ops)?;
    }

    // Set equality of Relations is model set equality, independent of
    // insertion order and of removed-then-reinserted churn.
    #[test]
    fn relation_equality_is_order_independent((arity, ops) in ops_strategy()) {
        let mut forward = Relation::new(arity);
        let mut model: BTreeSet<Box<[Const]>> = BTreeSet::new();
        for op in &ops {
            match op {
                Op::Insert(row) => { forward.insert(row); model.insert(row.as_slice().into()); }
                Op::Remove(row) => { forward.remove(row); model.remove(row.as_slice()); }
            }
        }
        // Rebuild from the model in reverse order: equal as sets.
        let mut reversed = Relation::new(arity);
        for row in model.iter().rev() {
            reversed.insert(row);
        }
        prop_assert_eq!(&forward, &reversed);
        // And a clone that then diverges is no longer equal (CoW safety).
        let mut diverged = forward.clone();
        prop_assert_eq!(&forward, &diverged);
        let probe: Vec<Const> = (0..arity as i64).map(|_| Const::Int(99)).collect();
        if arity > 0 && diverged.insert(&probe).is_some() {
            prop_assert_ne!(&forward, &diverged);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    // Dictionary intern/resolve round-trip: every stored cell decodes back
    // through its column code to the original constant, the reverse lookup
    // returns that same code, and the per-column code vectors stay exactly
    // parallel to the live rows.
    #[test]
    fn dictionary_intern_resolve_round_trip((arity, ops) in ops_strategy()) {
        let mut rel = Relation::new(arity);
        for op in &ops {
            match op {
                Op::Insert(row) => { rel.insert(row); }
                Op::Remove(row) => { rel.remove(row); }
            }
        }
        for col in 0..arity {
            prop_assert_eq!(rel.codes(col).len(), rel.len());
        }
        for (id, row) in rel.iter_with_ids() {
            for (col, &c) in row.iter().enumerate() {
                let code = rel.code_at(col, id);
                prop_assert_eq!(rel.decode(col, code), c);
                prop_assert_eq!(rel.lookup_code(col, c), Some(code));
                prop_assert!((code as usize) < rel.dict_len(col));
            }
        }
    }

    // Code stability across swap-remove: dictionaries are append-only, so
    // the code a constant interns to on first sight never changes — not
    // across later inserts, and not across swap-removes that compact the
    // code columns. Join-side state keyed on codes (postings, xlate
    // caches) relies on exactly this.
    #[test]
    fn dictionary_codes_stable_across_swap_remove((arity, ops) in ops_strategy()) {
        let mut rel = Relation::new(arity);
        let mut first_code: Vec<std::collections::BTreeMap<Const, u32>> =
            vec![std::collections::BTreeMap::new(); arity];
        for op in &ops {
            match op {
                Op::Insert(row) => {
                    rel.insert(row);
                    for (col, &c) in row.iter().enumerate() {
                        let code = rel.lookup_code(col, c)
                            .expect("inserted constant must be interned");
                        // First sighting pins the code; every later
                        // sighting (and every later op) must agree.
                        let pinned = *first_code[col].entry(c).or_insert(code);
                        prop_assert_eq!(code, pinned, "col {} const {:?}", col, c);
                    }
                }
                Op::Remove(row) => {
                    rel.remove(row);
                }
            }
            // Swap-remove compacts the code columns but never remaps the
            // dictionary: all previously pinned codes still resolve.
            for (col, pins) in first_code.iter().enumerate() {
                for (&c, &code) in pins {
                    prop_assert_eq!(rel.lookup_code(col, c), Some(code));
                    prop_assert_eq!(rel.decode(col, code), c);
                }
            }
        }
    }

    // CoW snapshot isolation: a cloned relation is a frozen snapshot.
    // Mutating either side after the clone must never leak into the other —
    // membership, sorted iteration, and column codes all stay consistent
    // with each side's own history.
    #[test]
    fn cow_snapshot_isolation_under_interleaved_ops(
        (arity, ops) in ops_strategy(),
        split in 0usize..60,
        to_snapshot in prop::bool::weighted(0.5),
    ) {
        let split = split.min(ops.len());
        let (prefix, suffix) = ops.split_at(split);
        let mut model: BTreeSet<Box<[Const]>> = BTreeSet::new();
        let mut rel = Relation::new(arity);
        for op in prefix {
            match op {
                Op::Insert(row) => { rel.insert(row); model.insert(row.as_slice().into()); }
                Op::Remove(row) => { rel.remove(row); model.remove(row.as_slice()); }
            }
        }
        // Touch the sorted cache so the snapshot shares a built cache.
        let _ = rel.iter_sorted().count();
        let snapshot = rel.clone();
        let frozen = model.clone();
        // The suffix mutates one side only; alternate which side moves on.
        let (mover, held) = if to_snapshot {
            (snapshot, rel)
        } else {
            (rel, snapshot)
        };
        let mut mover = mover;
        for op in suffix {
            match op {
                Op::Insert(row) => { mover.insert(row); model.insert(row.as_slice().into()); }
                Op::Remove(row) => { mover.remove(row); model.remove(row.as_slice()); }
            }
        }
        // Held side: still exactly the frozen model.
        prop_assert_eq!(held.len(), frozen.len());
        let got: Vec<&[Const]> = held.iter_sorted().collect();
        let want: Vec<&[Const]> = frozen.iter().map(|r| &**r).collect();
        prop_assert_eq!(got, want);
        // Moving side: exactly the final model, with coherent codes.
        prop_assert_eq!(mover.len(), model.len());
        let got: Vec<&[Const]> = mover.iter_sorted().collect();
        let want: Vec<&[Const]> = model.iter().map(|r| &**r).collect();
        prop_assert_eq!(got, want);
        for side in [&held, &mover] {
            for (id, row) in side.iter_with_ids() {
                for (col, &c) in row.iter().enumerate() {
                    prop_assert_eq!(side.decode(col, side.code_at(col, id)), c);
                }
            }
        }
    }
}

/// One ground-atom op against a named predicate; arity is derived from the
/// row, so the same predicate accumulates mixed-arity relations.
fn db_ops_strategy() -> impl Strategy<Value = Vec<(bool, usize, Vec<Const>)>> {
    let op = (
        prop::bool::weighted(0.75),
        0usize..3, // predicate index into ["p", "q", "r"]
        prop::collection::vec(const_strategy(), 0..=2),
    );
    prop::collection::vec(op, 0..50)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    // Database equality is set equality over ground atoms, with emptied
    // predicate buckets pruned — two databases reaching the same atom set
    // along different insert/remove histories must compare equal, and must
    // equal a pristine database holding just the final set.
    #[test]
    fn database_equality_matches_atom_set_model(ops in db_ops_strategy()) {
        const PREDS: [&str; 3] = ["p", "q", "r"];
        let mut db = Database::new();
        let mut model: BTreeSet<(usize, Vec<Const>)> = BTreeSet::new();
        for (insert, pred_ix, row) in &ops {
            let atom = GroundAtom::new(PREDS[*pred_ix], row.clone());
            if *insert {
                prop_assert_eq!(db.insert(atom), model.insert((*pred_ix, row.clone())));
            } else {
                prop_assert_eq!(db.remove(&atom), model.remove(&(*pred_ix, row.clone())));
            }
            prop_assert_eq!(db.len(), model.len());
        }
        // A pristine database built from the surviving set alone — no
        // remove history, so no chance of leftover empty buckets — must be
        // equal in both directions.
        let mut pristine = Database::new();
        for (pred_ix, row) in &model {
            pristine.insert(GroundAtom::new(PREDS[*pred_ix], row.clone()));
        }
        prop_assert_eq!(&db, &pristine);
        prop_assert_eq!(&pristine, &db);
        // Iteration agrees with membership.
        for atom in db.iter() {
            prop_assert!(pristine.contains(&atom));
        }
        prop_assert_eq!(db.iter().count(), model.len());
    }
}
