//! Databases: finite sets of ground atoms, organised per predicate.
//!
//! The paper views "a collection of relations … as a single set consisting of
//! all the ground atoms of these relations" (§III). [`Database`] is that set,
//! bucketed by predicate for efficient joins.
//!
//! Storage is columnar: each predicate's tuples live in arena-backed
//! [`Relation`]s (one per arity — validated programs use a single arity per
//! predicate, but the set semantics tolerate mixtures). Cloning a database is
//! cheap: relations are `Arc`-shared copy-on-write, so snapshots share arenas
//! until a write touches them. All observable iteration (equality, `Display`,
//! [`Database::iter`], [`Database::relation`]) is in tuple order, independent
//! of insertion history, exactly as the former `BTreeSet` storage behaved.

use crate::atom::{Atom, GroundAtom, RowDisplay};
use crate::relation::{Relation, SortedRows};
use crate::symbol::Pred;
use crate::term::Const;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A tuple of constants — one row of a relation.
pub type Tuple = Box<[Const]>;

/// A finite set of ground atoms (an *interpretation* or *structure*, §III).
#[derive(Clone, Default)]
pub struct Database {
    /// Per-predicate relations, one per arity, ascending arity order.
    relations: BTreeMap<Pred, Vec<Relation>>,
}

/// Set equality over ground atoms. Empty relation buckets (left behind by
/// [`Database::remove`] on older snapshots, or introduced by unions with
/// empty relations) carry no atoms and must not distinguish databases.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        let nonempty = |rels: &&Vec<Relation>| rels.iter().any(|r| !r.is_empty());
        let mut a = self.relations.values().filter(nonempty);
        let mut b = other.relations.values().filter(nonempty);
        let mut ka = self
            .relations
            .iter()
            .filter(|(_, r)| nonempty(r))
            .map(|(p, _)| p);
        let mut kb = other
            .relations
            .iter()
            .filter(|(_, r)| nonempty(r))
            .map(|(p, _)| p);
        loop {
            match (ka.next(), kb.next(), a.next(), b.next()) {
                (None, None, None, None) => return true,
                (Some(pa), Some(pb), Some(ra), Some(rb)) if pa == pb && groups_eq(ra, rb) => {}
                _ => return false,
            }
        }
    }
}

impl Eq for Database {}

/// Set equality across two per-arity relation groups.
fn groups_eq(a: &[Relation], b: &[Relation]) -> bool {
    let total = |g: &[Relation]| g.iter().map(Relation::len).sum::<usize>();
    total(a) == total(b)
        && a.iter().flat_map(Relation::rows).all(|row| {
            b.iter()
                .find(|r| r.arity() == row.len())
                .is_some_and(|r| r.contains(row))
        })
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Build a database from ground atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = GroundAtom>) -> Database {
        let mut db = Database::new();
        for a in atoms {
            db.insert(a);
        }
        db
    }

    /// Insert a ground atom; returns `true` if it was new.
    pub fn insert(&mut self, atom: GroundAtom) -> bool {
        self.insert_row(atom.pred, &atom.tuple)
    }

    /// Insert a raw tuple under `pred`; returns `true` if it was new.
    pub fn insert_tuple(&mut self, pred: Pred, tuple: Tuple) -> bool {
        self.insert_row(pred, &tuple)
    }

    /// Insert a row view under `pred`; returns `true` if it was new. Never
    /// allocates per tuple — the row is copied into the arena only when new.
    pub fn insert_row(&mut self, pred: Pred, row: &[Const]) -> bool {
        self.insert_row_id(pred, row).is_some()
    }

    /// Like [`Database::insert_row`], but returns the fresh row-id when the
    /// row was new. Ids are dense per (predicate, arity) and stay valid until
    /// the next [`Database::remove`] on that relation.
    pub fn insert_row_id(&mut self, pred: Pred, row: &[Const]) -> Option<u32> {
        let rels = self.relations.entry(pred).or_default();
        let rel = match rels.iter().position(|r| r.arity() >= row.len()) {
            Some(i) if rels[i].arity() == row.len() => &mut rels[i],
            Some(i) => {
                rels.insert(i, Relation::new(row.len()));
                &mut rels[i]
            }
            None => {
                rels.push(Relation::new(row.len()));
                rels.last_mut().expect("just pushed")
            }
        };
        rel.insert(row)
    }

    /// Remove a ground atom; returns `true` if it was present. A relation
    /// emptied by the removal is dropped entirely, so a database never
    /// differs from [`Database::new`] after its last atom is removed.
    pub fn remove(&mut self, atom: &GroundAtom) -> bool {
        self.remove_row(atom.pred, &atom.tuple)
    }

    /// Remove a row view under `pred`; see [`Database::remove`].
    pub fn remove_row(&mut self, pred: Pred, row: &[Const]) -> bool {
        let Some(rels) = self.relations.get_mut(&pred) else {
            return false;
        };
        let Some(i) = rels.iter().position(|r| r.arity() == row.len()) else {
            return false;
        };
        let removed = rels[i].remove(row);
        if removed && rels[i].is_empty() {
            rels.remove(i);
            if rels.is_empty() {
                self.relations.remove(&pred);
            }
        }
        removed
    }

    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.contains_tuple(atom.pred, &atom.tuple)
    }

    pub fn contains_tuple(&self, pred: Pred, tuple: &[Const]) -> bool {
        self.relation_of(pred, tuple.len())
            .is_some_and(|rel| rel.contains(tuple))
    }

    /// The arena-backed storage for `pred` at `arity`, if present. This is
    /// the engine's row-id entry point.
    pub fn relation_of(&self, pred: Pred, arity: usize) -> Option<&Relation> {
        self.relations
            .get(&pred)?
            .iter()
            .find(|r| r.arity() == arity)
    }

    /// Every arena-backed relation of `pred` (one per arity, ascending).
    pub fn relations_of(&self, pred: Pred) -> &[Relation] {
        self.relations.get(&pred).map_or(&[], Vec::as_slice)
    }

    /// The relation for `pred` (empty if absent), in tuple order.
    pub fn relation(&self, pred: Pred) -> RelationRows<'_> {
        RelationRows::new(self.relations_of(pred))
    }

    /// The rows of `pattern`'s predicate that match it, in tuple order (see
    /// [`Relation::select`]). Rows stored under the predicate at another
    /// arity cannot match and are not looked at.
    pub fn select(&self, pattern: &Atom) -> Vec<&[Const]> {
        self.relation_of(pattern.pred, pattern.arity())
            .map_or_else(Vec::new, |rel| rel.select(&pattern.terms))
    }

    /// Number of tuples in the relation for `pred`.
    pub fn relation_len(&self, pred: Pred) -> usize {
        self.relations_of(pred).iter().map(Relation::len).sum()
    }

    /// Predicates with at least one tuple.
    pub fn predicates(&self) -> impl Iterator<Item = Pred> + '_ {
        self.relations
            .iter()
            .filter(|(_, rels)| rels.iter().any(|r| !r.is_empty()))
            .map(|(&p, _)| p)
    }

    /// Total number of ground atoms.
    pub fn len(&self) -> usize {
        self.relations
            .values()
            .flat_map(|rels| rels.iter().map(Relation::len))
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.relations
            .values()
            .all(|rels| rels.iter().all(Relation::is_empty))
    }

    /// Bytes held by all row arenas (capacity). Feeds the engine's
    /// `arena_bytes` stat and the E17 storage microbenchmark.
    pub fn arena_bytes(&self) -> usize {
        self.relations
            .values()
            .flat_map(|rels| rels.iter().map(Relation::arena_bytes))
            .sum()
    }

    /// Iterate all ground atoms, in (predicate, tuple) order.
    pub fn iter(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.rows().map(|(pred, row)| GroundAtom::new(pred, row))
    }

    /// Every row with its predicate, in (predicate, tuple) order — what
    /// [`Database::iter`] yields, without boxing a tuple per atom.
    fn rows(&self) -> impl Iterator<Item = (Pred, &[Const])> + '_ {
        self.relations
            .iter()
            .flat_map(|(&pred, rels)| RelationRows::new(rels).map(move |row| (pred, row)))
    }

    /// The database as a fact file: `pred(c1, …, cn).` per line, in
    /// (predicate, tuple) order, which [`crate::parse_database`] reads back.
    pub fn facts(&self) -> Facts<'_> {
        Facts(self)
    }

    /// Add the rows of `rel` under `pred`; returns how many were new. A
    /// relation of an arity `pred` does not have yet is taken over whole
    /// (shared, not copied).
    pub fn insert_relation(&mut self, pred: Pred, rel: Relation) -> usize {
        let mine = self.relations.entry(pred).or_default();
        let at = mine
            .iter()
            .position(|r| r.arity() >= rel.arity())
            .unwrap_or(mine.len());
        match mine.get_mut(at) {
            Some(same) if same.arity() == rel.arity() => {
                rel.rows().filter(|row| same.insert(row).is_some()).count()
            }
            _ => {
                let added = rel.len();
                mine.insert(at, rel);
                added
            }
        }
    }

    /// Set-union with another database (the `⟨d1, d2⟩` of §III); returns the
    /// number of new atoms added. Relations absent on the left are shared
    /// (`Arc`), not copied.
    pub fn union_with(&mut self, other: &Database) -> usize {
        let mut added = 0;
        for (&pred, rels) in &other.relations {
            for rel in rels {
                added += self.insert_relation(pred, rel.clone());
            }
        }
        added
    }

    /// Subset test: every ground atom of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Database) -> bool {
        self.relations.iter().all(|(&pred, rels)| {
            rels.iter()
                .flat_map(Relation::rows)
                .all(|row| other.contains_tuple(pred, row))
        })
    }

    /// Restrict to the given predicates (e.g. projecting out the IDB part).
    /// Surviving relations are shared, not copied.
    pub fn restrict_to(&self, preds: &BTreeSet<Pred>) -> Database {
        Database {
            relations: self
                .relations
                .iter()
                .filter(|(p, _)| preds.contains(p))
                .map(|(&p, rels)| (p, rels.clone()))
                .collect(),
        }
    }

    /// All constants appearing anywhere in the database — the *active
    /// domain*. Used by brute-force model enumeration in tests.
    pub fn active_domain(&self) -> BTreeSet<Const> {
        self.relations
            .values()
            .flatten()
            .flat_map(|rel| rel.rows().flatten().copied())
            .collect()
    }

    /// True if some tuple contains a labelled null (relevant after an
    /// embedded-tgd chase, §VIII).
    pub fn has_nulls(&self) -> bool {
        self.relations
            .values()
            .flatten()
            .any(|rel| rel.rows().any(|row| row.iter().any(Const::is_null)))
    }
}

/// Iterator over one predicate's rows in tuple order: a k-way merge of the
/// per-arity [`Relation`]s' sorted streams (rows of different arities
/// interleave exactly as they did in a single `BTreeSet<Box<[Const]>>`).
pub struct RelationRows<'a> {
    streams: Vec<std::iter::Peekable<SortedRows<'a>>>,
}

impl<'a> RelationRows<'a> {
    fn new(rels: &'a [Relation]) -> RelationRows<'a> {
        RelationRows {
            streams: rels.iter().map(|r| r.iter_sorted().peekable()).collect(),
        }
    }
}

impl<'a> Iterator for RelationRows<'a> {
    type Item = &'a [Const];

    fn next(&mut self) -> Option<&'a [Const]> {
        // One stream per arity; usually exactly one, so the scan is cheap.
        let mut best: Option<(usize, &'a [Const])> = None;
        for (i, s) in self.streams.iter_mut().enumerate() {
            if let Some(&row) = s.peek() {
                match best {
                    Some((_, front)) if front <= row => {}
                    _ => best = Some((i, row)),
                }
            }
        }
        self.streams[best?.0].next()
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (pred, row)) in self.rows().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", RowDisplay(pred, row))?;
        }
        write!(f, "}}")
    }
}

/// A database printed as a fact file (see [`Database::facts`]).
pub struct Facts<'a>(&'a Database);

impl fmt::Display for Facts<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pred, row) in self.0.rows() {
            fmt::Display::fmt(&RowDisplay(pred, row), f)?;
            f.write_str(".\n")?;
        }
        Ok(())
    }
}

impl FromIterator<GroundAtom> for Database {
    fn from_iter<T: IntoIterator<Item = GroundAtom>>(iter: T) -> Database {
        Database::from_atoms(iter)
    }
}

impl Extend<GroundAtom> for Database {
    fn extend<T: IntoIterator<Item = GroundAtom>>(&mut self, iter: T) {
        for a in iter {
            self.insert(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::fact;

    #[test]
    fn equality_is_set_equality_after_removal() {
        // Regression (found by the differential fuzzer): `remove` used to
        // strand an empty relation bucket, and derived equality then
        // distinguished a drained database from a fresh one even though
        // both denote the same set of ground atoms (§III).
        let mut drained = Database::new();
        drained.insert(fact("a", [1, 2]));
        drained.remove(&fact("a", [1, 2]));
        assert_eq!(drained, Database::new());

        let mut partial = Database::new();
        partial.insert(fact("a", [1, 2]));
        partial.insert(fact("b", [3]));
        partial.remove(&fact("a", [1, 2]));
        let mut fresh = Database::new();
        fresh.insert(fact("b", [3]));
        assert_eq!(partial, fresh);
        assert_ne!(partial, Database::new());
    }

    #[test]
    fn insert_and_contains() {
        let mut db = Database::new();
        assert!(db.insert(fact("a", [1, 2])));
        assert!(
            !db.insert(fact("a", [1, 2])),
            "duplicate insert reports false"
        );
        assert!(db.contains(&fact("a", [1, 2])));
        assert!(!db.contains(&fact("a", [2, 1])));
        assert!(!db.contains(&fact("b", [1, 2])));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn remove_atoms() {
        let mut db = Database::from_atoms([fact("a", [1, 2]), fact("a", [3, 4])]);
        assert!(db.remove(&fact("a", [1, 2])));
        assert!(
            !db.remove(&fact("a", [1, 2])),
            "double remove reports false"
        );
        assert!(!db.remove(&fact("b", [1])), "unknown predicate");
        assert_eq!(db.len(), 1);
        assert!(db.contains(&fact("a", [3, 4])));
    }

    #[test]
    fn union_counts_new_atoms() {
        let mut d1 = Database::from_atoms([fact("a", [1]), fact("a", [2])]);
        let d2 = Database::from_atoms([fact("a", [2]), fact("b", [3])]);
        let added = d1.union_with(&d2);
        assert_eq!(added, 1 + 1 - 1); // a(2) already present
        assert_eq!(d1.len(), 3);
    }

    #[test]
    fn subset() {
        let small = Database::from_atoms([fact("a", [1])]);
        let big = Database::from_atoms([fact("a", [1]), fact("a", [2])]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(Database::new().is_subset_of(&small));
    }

    #[test]
    fn restrict_and_domain() {
        let db = Database::from_atoms([fact("a", [1, 2]), fact("g", [2, 3])]);
        let only_a = db.restrict_to(&BTreeSet::from([Pred::new("a")]));
        assert_eq!(only_a.len(), 1);
        assert_eq!(
            db.active_domain(),
            BTreeSet::from([Const::Int(1), Const::Int(2), Const::Int(3)])
        );
    }

    #[test]
    fn example2_database_display() {
        // §III Example 2's EDB.
        let db = Database::from_atoms([fact("A", [1, 2]), fact("A", [1, 4]), fact("A", [4, 1])]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.relation_len(Pred::new("A")), 3);
        let s = db.to_string();
        assert!(s.contains("A(1, 2)"));
    }

    #[test]
    fn iteration_is_deterministic() {
        let db = Database::from_atoms([fact("b", [2]), fact("a", [9]), fact("a", [1])]);
        let atoms: Vec<String> = db.iter().map(|a| a.to_string()).collect();
        let again: Vec<String> = db.iter().map(|a| a.to_string()).collect();
        assert_eq!(atoms, again);
        // Per-predicate buckets sorted by symbol id are stable; within a
        // predicate, tuples iterate in ascending tuple order regardless of
        // insertion order.
        let a_rows: Vec<&String> = atoms.iter().filter(|s| s.starts_with("a(")).collect();
        assert_eq!(a_rows, vec!["a(1)", "a(9)"]);
    }

    #[test]
    fn mixed_arity_tuples_interleave_in_tuple_order() {
        // The set semantics tolerate one predicate at several arities; the
        // public iteration must order rows exactly as a BTreeSet of boxed
        // tuples did: [1] < [1, 0] < [2].
        let mut db = Database::new();
        db.insert(fact("m", [2]));
        db.insert(fact("m", [1, 0]));
        db.insert(fact("m", [1]));
        let rows: Vec<String> = db.iter().map(|a| a.to_string()).collect();
        assert_eq!(rows, vec!["m(1)", "m(1, 0)", "m(2)"]);
        assert_eq!(db.relation_len(Pred::new("m")), 3);
        assert!(db.contains_tuple(Pred::new("m"), &[Const::Int(1)]));
        assert!(db.contains_tuple(Pred::new("m"), &[Const::Int(1), Const::Int(0)]));
    }

    #[test]
    fn clones_share_arenas_until_mutated() {
        let mut db = Database::from_atoms([fact("a", [1]), fact("b", [2])]);
        let snap = db.clone();
        let shared = |d: &Database, p: &str| {
            d.relation_of(Pred::new(p), 1)
                .expect("relation exists")
                .shares_storage_with(snap.relation_of(Pred::new(p), 1).expect("relation exists"))
        };
        assert!(shared(&db, "a") && shared(&db, "b"));
        db.insert(fact("a", [9]));
        assert!(!shared(&db, "a"), "written relation unshared");
        assert!(shared(&db, "b"), "untouched relation still shared");
        assert_eq!(snap.len(), 2, "snapshot unaffected");
    }
}
