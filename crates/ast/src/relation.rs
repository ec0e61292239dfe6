//! Columnar arena-backed relation storage with dictionary-encoded columns.
//!
//! A [`Relation`] stores every tuple of one predicate (at one arity) in a
//! single flat `Vec<Const>` arena. Rows are addressed by dense `u32` row-ids
//! in insertion order; reading a row is a bounds-checked slice of the arena,
//! so no per-tuple `Box` is ever allocated. Deduplication is a hash set over
//! row *views*: a map from row hash to the ids carrying that hash, with
//! collision chains resolved by comparing slices against the arena.
//!
//! Alongside the row arena, every column carries a **dictionary-encoded code
//! column**: a per-(relation, position) `Dict` interns each distinct
//! [`Const`] to a dense `u32` code, and `cols[k].codes[id]` is row `id`'s
//! code at position `k`. Codes make join-key equality an integer compare and
//! key hashing a fold over `u32`s — the engine's index postings and
//! specialized join kernels work entirely in code space and only decode back
//! to `Const`s when a head tuple is emitted. Dictionaries are append-only:
//! a code, once assigned, never changes meaning, even across swap-removes
//! (the code *column* is compacted; the dictionary is not), so caches keyed
//! on codes stay valid for the lifetime of a storage generation.
//!
//! The whole structure lives behind an `Arc` with copy-on-write semantics:
//! cloning a `Relation` (and hence a `Database`) is a reference-count bump,
//! so snapshot publication in the service layer is O(1) and a snapshot's
//! arenas are shared until the next mutation touches them. All mutation
//! paths unshare through one choke point (`Relation::make_mut`) which also
//! drops the lazily built sorted-id cache — an unshare clones a *populated*
//! cache that would silently go stale under the first mutation otherwise.
//!
//! Insertion order is an engine-internal detail. Anything observable — set
//! equality, `Display`, [`crate::Database::iter`] — goes through
//! [`Relation::iter_sorted`], which yields rows in tuple order via the
//! sorted-id cache. This keeps the §III "a database is a set of ground
//! atoms" semantics (and the deterministic rendering the repro fixtures
//! depend on) independent of insertion history.

use crate::symbol::Var;
use crate::term::{Const, Term};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// A no-op hasher for maps keyed by already-mixed `u64` hashes (the output
/// of [`hash_row`]). Avoids re-hashing the hash.
#[derive(Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are expected; fold bytes defensively anyway.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8)) ^ b as u64;
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A `HashMap` keyed by row hashes, using the identity hasher.
pub type RowHashMap<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

const FX: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(FX)
}

/// FX-fold streaming hasher for maps keyed by [`Const`]s, symbol ids and
/// small integers — never by outside input, since it has no defence
/// against keys crafted to collide. Dictionary lookups sit on the engine's
/// probe path, so the default SipHash would be pure overhead for a 16-byte
/// `Copy` key.
#[derive(Default)]
pub struct FxConstHasher(u64);

impl Hasher for FxConstHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fold(self.0, b as u64);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.0 = fold(self.0, n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = fold(self.0, n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = fold(self.0, n);
    }

    fn write_i64(&mut self, n: i64) {
        self.0 = fold(self.0, n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = fold(self.0, n as u64);
    }
}

/// A `HashMap` on [`FxConstHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxConstHasher>>;

type ConstMap<V> = FxHashMap<Const, V>;

/// Deterministic, well-mixed hash of a row of constants. Stable within a
/// process run (symbol ids are interning-order dependent across runs).
#[inline]
pub fn hash_row(row: &[Const]) -> u64 {
    let mut h = fold(0xcbf2_9ce4_8422_2325, row.len() as u64);
    for &c in row {
        let (tag, payload) = match c {
            Const::Int(i) => (0u64, i as u64),
            Const::Sym(s) => (1, s.id() as u64),
            Const::Frozen(Var(s)) => (2, s.id() as u64),
            Const::Null(n) => (3, n as u64),
        };
        h = fold(fold(h, tag), payload);
    }
    h
}

/// Deterministic hash of a projected key in dictionary-code space. This is
/// the hash the engine's index postings and specialized kernels agree on:
/// both sides of a join fold the same target-relation codes, so a probe is
/// one integer fold per key column plus an identity-hash map lookup.
#[inline]
pub fn hash_codes(codes: &[u32]) -> u64 {
    let mut h = fold(0x9e37_79b9_7f4a_7c15, codes.len() as u64);
    for &c in codes {
        h = fold(h, c as u64);
    }
    h
}

/// Incremental variant of [`hash_codes`] for kernels that fold keys column
/// by column without materializing a key buffer. Seed with
/// [`hash_codes_seed`], then fold each code in key-position order.
#[inline]
pub fn hash_codes_seed(len: usize) -> u64 {
    fold(0x9e37_79b9_7f4a_7c15, len as u64)
}

/// See [`hash_codes_seed`].
#[inline]
pub fn hash_codes_fold(h: u64, code: u32) -> u64 {
    fold(h, code as u64)
}

/// Hash a block of fixed-width keys at once, bit-identically to calling
/// [`hash_codes`] on each key. `keys` is row-major (`keys.len()` must be a
/// multiple of `width`, `width ≥ 1`); hashes are appended to `out` in row
/// order.
///
/// The fold chain of one key is serially dependent (rotate → xor →
/// multiply), so the single-key path is latency-bound. Here the block is
/// processed column-by-column over groups of 8 (then 4) *independent* key
/// lanes: the fixed-trip-count inner loops below expose the lanes as
/// straight-line code the compiler can keep in registers, schedule in
/// parallel, and auto-vectorize where the ISA allows — and the structure
/// maps 1:1 onto a `std::simd::u64x8` gather/fold once portable SIMD is
/// stable. Behaviour is identical to the scalar path by construction.
pub fn hash_codes_batch(keys: &[u32], width: usize, out: &mut Vec<u64>) {
    assert!(
        width > 0,
        "zero-width keys have a constant hash; use hash_codes_seed"
    );
    debug_assert_eq!(keys.len() % width, 0, "keys must be whole rows");
    let n = keys.len() / width;
    let seed = hash_codes_seed(width);
    out.reserve(n);
    let mut i = 0;
    while i + 8 <= n {
        let mut lanes = [seed; 8];
        let block = &keys[i * width..(i + 8) * width];
        for c in 0..width {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, block[l * width + c] as u64);
            }
        }
        out.extend_from_slice(&lanes);
        i += 8;
    }
    while i + 4 <= n {
        let mut lanes = [seed; 4];
        let block = &keys[i * width..(i + 4) * width];
        for c in 0..width {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, block[l * width + c] as u64);
            }
        }
        out.extend_from_slice(&lanes);
        i += 4;
    }
    for row in keys[i * width..].chunks_exact(width) {
        let mut h = seed;
        for &c in row {
            h = fold(h, c as u64);
        }
        out.push(h);
    }
}

/// Row-ids sharing one hash bucket. The single-id case is by far the common
/// one, so it carries no heap allocation.
#[derive(Clone, Debug)]
enum Ids {
    One(u32),
    Many(Vec<u32>),
}

impl Ids {
    fn push(&mut self, id: u32) {
        match self {
            Ids::One(a) => *self = Ids::Many(vec![*a, id]),
            Ids::Many(v) => v.push(id),
        }
    }
}

/// Append-only interner from [`Const`] to dense `u32` codes for one column.
/// Codes are assigned in first-appearance order and are never reused or
/// remapped; removing rows shrinks the code column but not the dictionary.
#[derive(Clone, Default)]
struct Dict {
    /// code → constant (dense).
    vals: Vec<Const>,
    /// constant → code.
    codes: ConstMap<u32>,
}

impl Dict {
    #[inline]
    fn lookup(&self, c: Const) -> Option<u32> {
        self.codes.get(&c).copied()
    }

    #[inline]
    fn intern(&mut self, c: Const) -> u32 {
        match self.codes.entry(c) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let code = self.vals.len() as u32;
                self.vals.push(c);
                e.insert(code);
                code
            }
        }
    }

    fn bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<Const>()
            + self.codes.capacity() * (std::mem::size_of::<Const>() + std::mem::size_of::<u32>())
    }
}

/// One column of a relation: its dictionary plus the row-id-indexed code
/// vector (`codes.len() == len`, kept in lock-step with the row arena).
#[derive(Clone, Default)]
struct Col {
    dict: Dict,
    codes: Vec<u32>,
}

#[derive(Clone)]
struct Inner {
    arity: usize,
    /// Flat row storage: row `i` occupies `arena[i*arity .. (i+1)*arity]`.
    /// This is the decode/iteration store; joins run on `cols`.
    arena: Vec<Const>,
    /// Row count (explicit so arity-0 relations can hold the empty tuple).
    len: u32,
    /// Per-position dictionary-encoded code columns (`cols.len() == arity`).
    cols: Vec<Col>,
    /// Dedup set over row views: row hash → ids with that hash.
    buckets: RowHashMap<Ids>,
    /// Row-ids in tuple order, built lazily, dropped on every unshare or
    /// mutation (see [`Relation::make_mut`]).
    sorted: OnceLock<Box<[u32]>>,
}

impl Inner {
    #[inline]
    fn row(&self, id: u32) -> &[Const] {
        let a = self.arity;
        let start = id as usize * a;
        &self.arena[start..start + a]
    }

    fn find_hashed(&self, h: u64, row: &[Const]) -> Option<u32> {
        match self.buckets.get(&h)? {
            Ids::One(id) => (self.row(*id) == row).then_some(*id),
            Ids::Many(ids) => ids.iter().copied().find(|&id| self.row(id) == row),
        }
    }

    fn bucket_remove(&mut self, h: u64, id: u32) {
        match self.buckets.get_mut(&h) {
            Some(Ids::One(a)) if *a == id => {
                self.buckets.remove(&h);
            }
            Some(Ids::Many(v)) => {
                v.retain(|&x| x != id);
                if let [only] = v[..] {
                    self.buckets.insert(h, Ids::One(only));
                }
            }
            _ => debug_assert!(false, "row id missing from its dedup bucket"),
        }
    }

    fn bucket_replace(&mut self, h: u64, from: u32, to: u32) {
        match self.buckets.get_mut(&h) {
            Some(Ids::One(a)) if *a == from => *a = to,
            Some(Ids::Many(v)) => {
                for x in v {
                    if *x == from {
                        *x = to;
                    }
                }
            }
            _ => debug_assert!(false, "moved row id missing from its dedup bucket"),
        }
    }
}

/// A deduplicated set of same-arity rows in columnar arena storage.
///
/// See the module docs for the layout. Cloning is O(1) (`Arc` bump);
/// mutation copies the storage only when it is actually shared.
#[derive(Clone)]
pub struct Relation {
    inner: Arc<Inner>,
}

impl Relation {
    pub fn new(arity: usize) -> Relation {
        Relation {
            inner: Arc::new(Inner {
                arity,
                arena: Vec::new(),
                len: 0,
                cols: vec![Col::default(); arity],
                buckets: RowHashMap::default(),
                sorted: OnceLock::new(),
            }),
        }
    }

    pub fn arity(&self) -> usize {
        self.inner.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Bytes held by the row arena (capacity, not just live rows).
    pub fn arena_bytes(&self) -> usize {
        self.inner.arena.capacity() * std::mem::size_of::<Const>()
    }

    /// Bytes held by the dictionary encoding: code columns plus
    /// dictionaries (capacity, not just live entries).
    pub fn dict_bytes(&self) -> usize {
        self.inner
            .cols
            .iter()
            .map(|c| c.codes.capacity() * std::mem::size_of::<u32>() + c.dict.bytes())
            .sum()
    }

    /// Unshare the storage for mutation. **Every mutation path must go
    /// through here.** `Arc::make_mut` on a shared `Inner` clones a
    /// *populated* sorted-id cache; dropping it at the unshare boundary —
    /// before any caller mutates — is what keeps `iter_sorted` correct on
    /// both sides of a copy-on-write split. Centralizing the invalidation
    /// means no mutation path can forget it.
    fn make_mut(&mut self) -> &mut Inner {
        let inner = Arc::make_mut(&mut self.inner);
        inner.sorted.take();
        inner
    }

    /// The row for `id`. Panics on out-of-range ids.
    #[inline]
    pub fn row(&self, id: u32) -> &[Const] {
        debug_assert!(id < self.inner.len, "row id out of range");
        self.inner.row(id)
    }

    /// The dictionary code column for position `col`, indexed by row-id.
    #[inline]
    pub fn codes(&self, col: usize) -> &[u32] {
        &self.inner.cols[col].codes
    }

    /// Row `id`'s dictionary code at position `col`.
    #[inline]
    pub fn code_at(&self, col: usize, id: u32) -> u32 {
        self.inner.cols[col].codes[id as usize]
    }

    /// Decode a column-local code back to its constant. Panics on codes
    /// never handed out by this column's dictionary.
    #[inline]
    pub fn decode(&self, col: usize, code: u32) -> Const {
        self.inner.cols[col].dict.vals[code as usize]
    }

    /// The code `c` was interned under in position `col`'s dictionary, or
    /// `None` if `c` has never appeared in that column — in which case no
    /// row can match it, so probe paths early-out without touching rows.
    #[inline]
    pub fn lookup_code(&self, col: usize, c: Const) -> Option<u32> {
        self.inner.cols[col].dict.lookup(c)
    }

    /// Number of distinct constants ever interned in position `col`
    /// (append-only: removals do not shrink it).
    pub fn dict_len(&self, col: usize) -> usize {
        self.inner.cols[col].dict.vals.len()
    }

    /// The id of `row`, if present.
    #[inline]
    pub fn find(&self, row: &[Const]) -> Option<u32> {
        if row.len() != self.inner.arity {
            return None;
        }
        self.inner.find_hashed(hash_row(row), row)
    }

    #[inline]
    pub fn contains(&self, row: &[Const]) -> bool {
        self.find(row).is_some()
    }

    /// Insert a row; returns its fresh id if it was new, `None` if it was
    /// already present. Duplicate inserts never copy shared storage.
    pub fn insert(&mut self, row: &[Const]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.inner.arity, "arity mismatch");
        let h = hash_row(row);
        if self.inner.find_hashed(h, row).is_some() {
            return None;
        }
        let inner = self.make_mut();
        let id = inner.len;
        inner.arena.extend_from_slice(row);
        for (col, &c) in inner.cols.iter_mut().zip(row) {
            let code = col.dict.intern(c);
            col.codes.push(code);
        }
        inner.len += 1;
        match inner.buckets.entry(h) {
            Entry::Vacant(e) => {
                e.insert(Ids::One(id));
            }
            Entry::Occupied(mut e) => e.get_mut().push(id),
        }
        Some(id)
    }

    /// Remove a row; returns `true` if it was present. The last row is
    /// swap-moved into the hole, so removal invalidates previously handed
    /// out row-ids (engine index stores are rebuilt after removals). Codes
    /// are *stable* across removal: the dictionary is append-only, so the
    /// swapped-in row keeps the codes it was interned under.
    pub fn remove(&mut self, row: &[Const]) -> bool {
        if row.len() != self.inner.arity {
            return false;
        }
        let h = hash_row(row);
        let Some(id) = self.inner.find_hashed(h, row) else {
            return false;
        };
        let inner = self.make_mut();
        let last = inner.len - 1;
        inner.bucket_remove(h, id);
        if id != last {
            let last_hash = hash_row(inner.row(last));
            let a = inner.arity;
            let (dst, src) = (id as usize * a, last as usize * a);
            for k in 0..a {
                inner.arena[dst + k] = inner.arena[src + k];
            }
            for col in &mut inner.cols {
                col.codes[id as usize] = col.codes[last as usize];
            }
            inner.bucket_replace(last_hash, last, id);
        }
        inner.arena.truncate(last as usize * inner.arity);
        for col in &mut inner.cols {
            col.codes.truncate(last as usize);
        }
        inner.len = last;
        true
    }

    /// Rows in id (insertion) order, paired with their ids.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (u32, &[Const])> {
        (0..self.inner.len).map(move |id| (id, self.inner.row(id)))
    }

    /// Rows in id (insertion) order.
    pub fn rows(&self) -> impl Iterator<Item = &[Const]> {
        (0..self.inner.len).map(move |id| self.inner.row(id))
    }

    fn sorted_ids(&self) -> &[u32] {
        self.inner.sorted.get_or_init(|| {
            let mut ids: Vec<u32> = (0..self.inner.len).collect();
            ids.sort_unstable_by(|&a, &b| self.inner.row(a).cmp(self.inner.row(b)));
            ids.into_boxed_slice()
        })
    }

    /// Rows in tuple (`Ord`) order — the order a `BTreeSet<Box<[Const]>>`
    /// would iterate in. Backed by a lazily built sorted-id cache.
    pub fn iter_sorted(&self) -> SortedRows<'_> {
        SortedRows {
            inner: &self.inner,
            ids: self.sorted_ids().iter(),
        }
    }

    /// The rows matching `pattern` (one term per column), in tuple order —
    /// what filtering [`Relation::iter_sorted`] with `match_atom` yields,
    /// without building the sorted-id cache or a substitution per row.
    ///
    /// A pattern of constants only is one [`Relation::find`]. Otherwise each
    /// constant is translated once through its column's dictionary (a
    /// constant the column never saw means no row can match), the bound
    /// columns' code vectors are compared row-id by row-id, a variable the
    /// pattern repeats is checked on the rows that survive, and only the
    /// matches are sorted. A pattern of another arity selects nothing.
    pub fn select(&self, pattern: &[Term]) -> Vec<&[Const]> {
        let inner = &*self.inner;
        if pattern.len() != inner.arity {
            return Vec::new();
        }
        let consts: Vec<Const> = pattern.iter().filter_map(Term::as_const).collect();
        if consts.len() == inner.arity {
            let found = self.find(&consts).map(|id| inner.row(id));
            return found.into_iter().collect();
        }
        let mut bound: Vec<(&[u32], u32)> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (k, term) in pattern.iter().enumerate() {
            match *term {
                Term::Const(c) => match inner.cols[k].dict.lookup(c) {
                    Some(code) => bound.push((&inner.cols[k].codes, code)),
                    None => return Vec::new(),
                },
                Term::Var(_) => {
                    if let Some(first) = pattern[..k].iter().position(|t| t == term) {
                        repeats.push((first, k));
                    }
                }
            }
        }
        let mut rows: Vec<&[Const]> = match bound.split_first() {
            None => self.rows().collect(),
            Some((&(codes, code), rest)) => codes
                .iter()
                .enumerate()
                .filter(|&(id, &c)| {
                    c == code && rest.iter().all(|&(codes, code)| codes[id] == code)
                })
                .map(|(id, _)| inner.row(id as u32))
                .collect(),
        };
        if !repeats.is_empty() {
            rows.retain(|row| repeats.iter().all(|&(a, b)| row[a] == row[b]));
        }
        rows.sort_unstable();
        rows
    }

    /// True when both relations share one arena (snapshot-sharing tests).
    pub fn shares_storage_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Iterator over rows in tuple order (see [`Relation::iter_sorted`]).
pub struct SortedRows<'a> {
    inner: &'a Inner,
    ids: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for SortedRows<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        self.ids.next().map(|&id| self.inner.row(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for SortedRows<'_> {}

/// Set equality (insertion order is not observable).
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        self.inner.arity == other.inner.arity
            && self.inner.len == other.inner.len
            && self.rows().all(|r| other.contains(r))
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter_sorted()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[i64]) -> Vec<Const> {
        vals.iter().map(|&i| Const::Int(i)).collect()
    }

    #[test]
    fn insert_dedup_and_ids() {
        let mut rel = Relation::new(2);
        assert_eq!(rel.insert(&r(&[1, 2])), Some(0));
        assert_eq!(rel.insert(&r(&[3, 4])), Some(1));
        assert_eq!(rel.insert(&r(&[1, 2])), None, "duplicate");
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(0), &r(&[1, 2])[..]);
        assert_eq!(rel.row(1), &r(&[3, 4])[..]);
        assert!(rel.contains(&r(&[3, 4])));
        assert!(!rel.contains(&r(&[4, 3])));
        assert_eq!(rel.find(&r(&[3, 4])), Some(1));
    }

    #[test]
    fn codes_mirror_rows() {
        let mut rel = Relation::new(2);
        rel.insert(&r(&[10, 20]));
        rel.insert(&r(&[10, 30]));
        rel.insert(&r(&[40, 20]));
        // Column 0 saw 10 then 40; column 1 saw 20 then 30.
        assert_eq!(rel.codes(0), &[0, 0, 1]);
        assert_eq!(rel.codes(1), &[0, 1, 0]);
        assert_eq!(rel.dict_len(0), 2);
        assert_eq!(rel.dict_len(1), 2);
        for (id, row) in rel.iter_with_ids() {
            for (k, &c) in row.iter().enumerate() {
                let code = rel.code_at(k, id);
                assert_eq!(rel.decode(k, code), c);
                assert_eq!(rel.lookup_code(k, c), Some(code));
            }
        }
        // Never-seen constants have no code (probe early-out).
        assert_eq!(rel.lookup_code(0, Const::Int(20)), None, "column-local");
        assert_eq!(rel.lookup_code(1, Const::Int(10)), None);
    }

    #[test]
    fn codes_stable_across_swap_remove() {
        let mut rel = Relation::new(1);
        for i in 0..5i64 {
            rel.insert(&r(&[i]));
        }
        let code_of_4 = rel.lookup_code(0, Const::Int(4)).unwrap();
        assert!(rel.remove(&r(&[1])));
        // Row 4 swapped into slot 1 keeps its original code; the dictionary
        // still answers for the removed constant (append-only).
        assert_eq!(rel.code_at(0, 1), code_of_4);
        assert_eq!(rel.decode(0, code_of_4), Const::Int(4));
        assert_eq!(rel.lookup_code(0, Const::Int(1)), Some(1));
        assert_eq!(rel.dict_len(0), 5);
        assert_eq!(rel.codes(0).len(), rel.len());
    }

    #[test]
    fn hash_codes_matches_incremental_fold() {
        let key = [3u32, 7, 11];
        let mut h = hash_codes_seed(key.len());
        for &c in &key {
            h = hash_codes_fold(h, c);
        }
        assert_eq!(h, hash_codes(&key));
        assert_ne!(hash_codes(&[1]), hash_codes(&[1, 1]));
        assert_ne!(hash_codes(&[1, 2]), hash_codes(&[2, 1]));
    }

    /// The 8/4-lane batch hash is bit-identical to the scalar fold — the
    /// postings maps are keyed on these hashes, so any drift would make
    /// batched probes miss silently.
    #[test]
    fn hash_codes_batch_matches_scalar() {
        for width in 1..=9usize {
            // Block sizes covering the 8-lane, 4-lane, and scalar tails.
            for n in [0usize, 1, 3, 4, 7, 8, 13, 29] {
                let keys: Vec<u32> = (0..n * width).map(|i| (i * 2654435761) as u32).collect();
                let mut out = vec![0xdead_beef_u64]; // appended, not cleared
                hash_codes_batch(&keys, width, &mut out);
                assert_eq!(out.len(), n + 1);
                assert_eq!(out[0], 0xdead_beef_u64);
                for (row, h) in keys.chunks_exact(width).zip(&out[1..]) {
                    assert_eq!(*h, hash_codes(row), "width={width} n={n}");
                }
            }
        }
    }

    #[test]
    fn sorted_iteration_is_tuple_order() {
        let mut rel = Relation::new(1);
        for i in [9i64, 1, 5, 3] {
            rel.insert(&r(&[i]));
        }
        let sorted: Vec<i64> = rel
            .iter_sorted()
            .map(|row| match row[0] {
                Const::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sorted, vec![1, 3, 5, 9]);
        // Id order is insertion order.
        let by_id: Vec<i64> = rel
            .rows()
            .map(|row| match row[0] {
                Const::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(by_id, vec![9, 1, 5, 3]);
    }

    #[test]
    fn remove_swaps_last_row_in() {
        let mut rel = Relation::new(1);
        for i in 0..5i64 {
            rel.insert(&r(&[i]));
        }
        assert!(rel.remove(&r(&[1])));
        assert!(!rel.remove(&r(&[1])), "double remove");
        assert_eq!(rel.len(), 4);
        // Row 4 moved into slot 1; all survivors still found by content.
        for i in [0i64, 2, 3, 4] {
            assert!(rel.contains(&r(&[i])), "lost {i}");
        }
        assert_eq!(rel.find(&r(&[4])), Some(1));
        // Remove the (new) last row: no swap needed.
        assert!(rel.remove(&r(&[3])));
        assert_eq!(rel.len(), 3);
        assert!(!rel.contains(&r(&[3])));
    }

    #[test]
    fn arity_zero_holds_one_row() {
        let mut rel = Relation::new(0);
        assert!(rel.is_empty());
        assert_eq!(rel.insert(&[]), Some(0));
        assert_eq!(rel.insert(&[]), None);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), &[] as &[Const]);
        assert!(rel.remove(&[]));
        assert!(rel.is_empty());
    }

    #[test]
    fn clone_shares_until_mutation() {
        let mut a = Relation::new(1);
        a.insert(&r(&[1]));
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        // Duplicate insert must not unshare.
        a.insert(&r(&[1]));
        assert!(a.shares_storage_with(&b));
        a.insert(&r(&[2]));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(b.len(), 1, "snapshot unaffected by later writes");
        assert_eq!(a.len(), 2);
    }

    /// Regression pin for the sorted-id cache across a copy-on-write split.
    /// Unsharing clones a *populated* cache; if the unshare path failed to
    /// drop it, the writer's `iter_sorted` would replay the snapshot's row
    /// set. Both handles must see exactly their own contents, in order.
    #[test]
    fn sorted_cache_invalidated_on_unshare() {
        let sorted_vals = |rel: &Relation| -> Vec<i64> {
            rel.iter_sorted()
                .map(|row| match row[0] {
                    Const::Int(i) => i,
                    _ => unreachable!(),
                })
                .collect()
        };
        let mut a = Relation::new(1);
        for i in [5i64, 1, 9] {
            a.insert(&r(&[i]));
        }
        let b = a.clone();
        // Populate the cache while the storage is shared (Arc > 1).
        assert_eq!(sorted_vals(&a), vec![1, 5, 9]);
        assert!(a.shares_storage_with(&b));
        // Mutate one side: `make_mut` unshares mid-mutation and must drop
        // the cloned (populated) cache before the write lands.
        a.insert(&r(&[3]));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(sorted_vals(&a), vec![1, 3, 5, 9]);
        assert_eq!(sorted_vals(&b), vec![1, 5, 9], "snapshot order intact");
        // Same discipline on the remove path, against an already-populated
        // writer-side cache.
        let c = a.clone();
        a.remove(&r(&[5]));
        assert_eq!(sorted_vals(&a), vec![1, 3, 9]);
        assert_eq!(sorted_vals(&c), vec![1, 3, 5, 9]);
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let mut a = Relation::new(1);
        let mut b = Relation::new(1);
        for i in [1i64, 2, 3] {
            a.insert(&r(&[i]));
        }
        for i in [3i64, 1, 2] {
            b.insert(&r(&[i]));
        }
        assert_eq!(a, b);
        b.remove(&r(&[2]));
        assert_ne!(a, b);
    }

    #[test]
    fn hash_row_distinguishes_const_kinds() {
        // Same payload, different kind must not collide (trivially).
        let kinds = [
            Const::Int(7),
            Const::Sym(crate::Sym::new("seven-test")),
            Const::Frozen(Var::new("X7")),
            Const::Null(7),
        ];
        let hashes: std::collections::BTreeSet<u64> =
            kinds.iter().map(|&c| hash_row(&[c])).collect();
        assert_eq!(hashes.len(), kinds.len());
        // Length participates: [] vs [Int(0)] vs [Int(0), Int(0)].
        let h0 = hash_row(&[]);
        let h1 = hash_row(&[Const::Int(0)]);
        let h2 = hash_row(&[Const::Int(0), Const::Int(0)]);
        assert!(h0 != h1 && h1 != h2 && h0 != h2);
    }
}
