//! Columnar arena-backed relation storage with dictionary-encoded columns.
//!
//! A [`Relation`] stores every tuple of one predicate (at one arity) in a
//! single flat `Vec<Const>` arena. Rows are addressed by dense `u32` row-ids
//! in insertion order; reading a row is a bounds-checked slice of the arena,
//! so no per-tuple `Box` is ever allocated.
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
//! **Id tables.** Deduplication and each dictionary's reverse map are one
//! structure, the private `IdTable`: an open-addressing table of 8-byte
//! slots, each a 32-bit hash tag and a `u32` id — a row id in the dedup
//! table (rows compared against the arena), a code in a dictionary table
//! (constants compared against the dictionary's values). A relation
//! therefore pays 8 bytes per slot for its dedup set and per distinct
//! value for each dictionary, instead of a std map entry per row. A slot's
//! home is the hash's low bits and its tag is the low 32 bits, so growth
//! rehashes from the slots alone; removal leaves a tombstone, and growth
//! and rebuild size from the live ids.
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
//! sorted-id cache. The cache is built from the dictionaries, not from row
//! comparisons: each dictionary ranks its codes in constant order once, and
//! a counting sort per column (last column first) orders the row ids by
//! their rank tuples. Fact files are printed the same way (see
//! `RenderedRows`): each dictionary's values are rendered to text once,
//! and rows are written from that text in sorted-id order. This keeps the
//! §III "a database is a set of ground atoms" semantics (and the
//! deterministic rendering the repro fixtures depend on) independent of
//! insertion history.

use crate::symbol::{with_names, Var};
use crate::term::{Const, Term};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
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

/// The id stored in a slot that holds none: no live row id or code reaches
/// it, because a relation's row count and a dictionary's length are `u32`s
/// that [`IdTable::insert_at`] refuses to let grow this far.
const NO_ID: u32 = u32::MAX;

/// One slot of an [`IdTable`]: the low 32 bits of the key's hash and the
/// id stored under it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Slot {
    tag: u32,
    id: u32,
}

/// A slot no key ever used: a probe stops here.
const EMPTY: Slot = Slot { tag: 0, id: NO_ID };
/// A slot whose id was removed: a probe walks past it, an insert reuses it.
const TOMBSTONE: Slot = Slot { tag: 1, id: NO_ID };

/// Where a probe ended: at the id whose key is equal, or at the slot an
/// insert of the key would take.
#[derive(Debug, PartialEq, Eq)]
enum Probe {
    Found(u32),
    Vacant(usize),
}

/// An open-addressing set of `u32` ids. The table holds no keys: the
/// caller hashes a key and supplies the test that compares it with the key
/// behind a stored id (a row in the arena, a constant in a dictionary).
///
/// Linear probing from the hash's low bits, with the low 32 bits kept as
/// the tag, so a rebuild re-places every slot without reading a key. At
/// most three quarters of the slots are live or tombstones; past that the
/// table is rebuilt at the size its live ids need, which frees at least
/// half of that load.
#[derive(Clone, Default, Debug)]
struct IdTable {
    /// Empty, or a power of two of at least [`IdTable::MIN_SLOTS`] slots.
    slots: Vec<Slot>,
    /// Slots holding an id.
    live: usize,
    /// Slots holding an id or a tombstone: the ones a probe cannot stop at.
    used: usize,
}

impl IdTable {
    const MIN_SLOTS: usize = 4;

    /// How many slots may be used in a table of `slots` slots.
    fn max_used(slots: usize) -> usize {
        slots - slots / 4
    }

    /// The size a rebuild holding `live` ids takes: the smallest with room
    /// for half as many again before the next rebuild.
    fn slots_for(live: usize) -> usize {
        let mut slots = Self::MIN_SLOTS;
        while Self::max_used(slots) < live + live / 2 {
            slots *= 2;
        }
        slots
    }

    /// Walk from `hash`'s home slot to the id `eq` accepts among those with
    /// `hash`'s tag, or to the first empty slot. A miss reports the first
    /// tombstone on the way, if any, as the slot to insert at.
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Probe {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Probe::Vacant(0);
        };
        let tag = hash as u32;
        let mut i = hash as usize & mask;
        let mut vacant = None;
        loop {
            let slot = self.slots[i];
            if slot.id != NO_ID {
                if slot.tag == tag && eq(slot.id) {
                    return Probe::Found(slot.id);
                }
            } else if slot == EMPTY {
                return Probe::Vacant(vacant.unwrap_or(i));
            } else if vacant.is_none() {
                vacant = Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        match self.probe(hash, eq) {
            Probe::Found(id) => Some(id),
            Probe::Vacant(_) => None,
        }
    }

    /// Store `id` under `hash` at `at`, the slot a [`Probe::Vacant`] for
    /// this key named (on this table or on the one it was cloned from).
    fn insert_at(&mut self, at: usize, hash: u64, id: u32) {
        assert!(id != NO_ID, "id table full: {NO_ID} ids");
        if self.slots.is_empty() {
            self.rebuild(Self::MIN_SLOTS);
            return self.insert_at(self.first_free(hash as u32), hash, id);
        }
        if self.slots[at] == EMPTY {
            self.used += 1;
        }
        self.slots[at] = Slot {
            tag: hash as u32,
            id,
        };
        self.live += 1;
        if self.used > Self::max_used(self.slots.len()) {
            self.rebuild(Self::slots_for(self.live));
        }
    }

    /// The slot of `id`, stored under `hash`. Panics if it is not there.
    fn position(&self, hash: u64, id: u32) -> usize {
        let tag = hash as u32;
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == id && slot.tag == tag {
                return i;
            }
            assert!(slot != EMPTY, "id {id} missing from its id table");
            i = (i + 1) & mask;
        }
    }

    /// Remove `id`, stored under `hash`, leaving a tombstone.
    fn remove(&mut self, hash: u64, id: u32) {
        let i = self.position(hash, id);
        self.slots[i] = TOMBSTONE;
        self.live -= 1;
    }

    /// Store `to` in place of `from`, both under `hash`.
    fn replace(&mut self, hash: u64, from: u32, to: u32) {
        let i = self.position(hash, from);
        self.slots[i].id = to;
    }

    /// The first slot from `tag`'s home that holds no id.
    fn first_free(&self, tag: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i].id != NO_ID {
            i = (i + 1) & mask;
        }
        i
    }

    /// Store every id of `src`, plus `base`, under the tag it has there: ids
    /// whose keys this table does not hold, so none is compared. Each takes
    /// the first slot without an id from its home, a tombstone as an insert
    /// would. The table grows at most once: when the first id that needs an
    /// empty slot finds the table at its load limit, to the size that holds
    /// every id left.
    fn append(&mut self, src: &IdTable, base: u32) {
        assert!(base as usize + src.live < NO_ID as usize, "id table full");
        if src.live == 0 {
            return;
        }
        if self.slots.is_empty() {
            self.rebuild(Self::slots_for(src.live));
        }
        let mut left = src.live;
        for slot in src.slots.iter().filter(|s| s.id != NO_ID) {
            let mut i = self.first_free(slot.tag);
            if self.slots[i] == EMPTY {
                if self.used == Self::max_used(self.slots.len()) {
                    self.rebuild(Self::slots_for(self.live + left));
                    i = self.first_free(slot.tag);
                }
                self.used += 1;
            }
            self.slots[i] = Slot {
                tag: slot.tag,
                id: base + slot.id,
            };
            self.live += 1;
            left -= 1;
        }
    }

    /// Empty every slot and keep the table's size.
    fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.live = 0;
        self.used = 0;
    }

    /// Whether the table is no larger than a rebuild for its live ids would
    /// make it: clearing it then empties no more slots than its ids need.
    fn fits(&self) -> bool {
        self.slots.len() <= Self::slots_for(self.live)
    }

    /// Re-place every live slot in a table of `slots` slots, dropping the
    /// tombstones.
    fn rebuild(&mut self, slots: usize) {
        assert!(slots as u64 <= 1 << 32, "id table too large");
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for slot in old.into_iter().filter(|s| s.id != NO_ID) {
            let i = self.first_free(slot.tag);
            self.slots[i] = slot;
        }
        self.used = self.live;
    }

    /// Bytes the slots hold.
    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

/// The FX hash of one constant: the hash a dictionary table is keyed by.
#[inline]
fn hash_const(c: Const) -> u64 {
    BuildHasherDefault::<FxConstHasher>::default().hash_one(c)
}

/// Append-only interner from [`Const`] to dense `u32` codes for one column.
/// Codes are assigned in first-appearance order and are never reused or
/// remapped; removing rows shrinks the code column but not the dictionary.
#[derive(Clone, Default)]
struct Dict {
    /// code → constant (dense).
    vals: Vec<Const>,
    /// constant → code, keyed by [`hash_const`].
    codes: IdTable,
}

impl Dict {
    #[inline]
    fn lookup(&self, c: Const) -> Option<u32> {
        self.codes
            .find(hash_const(c), |code| self.vals[code as usize] == c)
    }

    #[inline]
    fn intern(&mut self, c: Const) -> u32 {
        let h = hash_const(c);
        match self.codes.probe(h, |code| self.vals[code as usize] == c) {
            Probe::Found(code) => code,
            Probe::Vacant(at) => {
                let code = u32::try_from(self.vals.len()).expect("fewer than 2^32 codes");
                self.vals.push(c);
                self.codes.insert_at(at, h, code);
                code
            }
        }
    }

    /// Each code's rank among the dictionary's constants in `Ord` order.
    /// Codes map one-to-one onto constants, so comparing ranks is comparing
    /// the constants.
    fn ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.vals.len() as u32).collect();
        order.sort_unstable_by_key(|&code| self.vals[code as usize]);
        let mut ranks = vec![0; order.len()];
        for (rank, &code) in order.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }

    fn bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<Const>() + self.codes.bytes()
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
    /// Dedup set over row views: the row ids, keyed by [`hash_row`].
    rows: IdTable,
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

    #[inline]
    fn probe_row(&self, h: u64, row: &[Const]) -> Probe {
        self.rows.probe(h, |id| self.row(id) == row)
    }

    /// Row ids in tuple order: a stable counting sort of the ids by each
    /// column's dictionary rank, last column first. A relation of a few
    /// rows compares them instead, which allocates nothing per column.
    fn sort_ids(&self) -> Box<[u32]> {
        let mut ids: Vec<u32> = (0..self.len).collect();
        if ids.len() <= 32 {
            ids.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
            return ids.into_boxed_slice();
        }
        let mut next = vec![0u32; ids.len()];
        for col in self.cols.iter().rev() {
            let ranks = col.dict.ranks();
            let rank = |id: u32| ranks[col.codes[id as usize] as usize] as usize;
            let mut starts = vec![0u32; ranks.len() + 1];
            for &id in &ids {
                starts[rank(id) + 1] += 1;
            }
            for r in 1..starts.len() {
                starts[r] += starts[r - 1];
            }
            for &id in &ids {
                let slot = &mut starts[rank(id)];
                next[*slot as usize] = id;
                *slot += 1;
            }
            std::mem::swap(&mut ids, &mut next);
        }
        ids.into_boxed_slice()
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
                rows: IdTable::default(),
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

    /// Bytes held by the dictionary encoding: code columns, each
    /// dictionary's values and its id table (capacity, not just live
    /// entries).
    pub fn dict_bytes(&self) -> usize {
        self.inner
            .cols
            .iter()
            .map(|c| c.codes.capacity() * std::mem::size_of::<u32>() + c.dict.bytes())
            .sum()
    }

    /// Bytes held by the dedup id table (capacity, tombstones included).
    pub fn dedup_bytes(&self) -> usize {
        self.inner.rows.bytes()
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
        match self.inner.probe_row(hash_row(row), row) {
            Probe::Found(id) => Some(id),
            Probe::Vacant(_) => None,
        }
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
        let Probe::Vacant(at) = self.inner.probe_row(h, row) else {
            return None;
        };
        // An unshared clone keeps every slot where it was, so `at` holds.
        let inner = self.make_mut();
        let id = inner.len;
        inner.arena.extend_from_slice(row);
        for (col, &c) in inner.cols.iter_mut().zip(row) {
            let code = col.dict.intern(c);
            col.codes.push(code);
        }
        inner.len += 1;
        inner.rows.insert_at(at, h, id);
        Some(id)
    }

    /// Append the rows of `src`, none of which this relation holds, in
    /// `src`'s id order; returns the id of the first. The ids and codes they
    /// get are the ones inserting them row by row would assign, but no row
    /// is hashed or compared: each keeps its dedup tag from `src`'s table
    /// (the low 32 bits of the same [`hash_row`], so its home slot is the
    /// same), the dedup table grows at most once, and each column interns
    /// each distinct value of `src` once, at its first row.
    pub fn append_absent(&mut self, src: &Relation) -> u32 {
        assert_eq!(src.arity(), self.arity(), "arity mismatch");
        debug_assert!(
            src.rows().all(|row| !self.contains(row)),
            "appended rows are absent"
        );
        let first = self.inner.len;
        if src.is_empty() {
            return first;
        }
        let from = &*src.inner;
        let inner = self.make_mut();
        inner.arena.extend_from_slice(&from.arena);
        for (col, src_col) in inner.cols.iter_mut().zip(&from.cols) {
            // Each `src` code's code here, interned at its first row.
            let mut codes = vec![NO_ID; src_col.dict.vals.len()];
            col.codes.reserve(src_col.codes.len());
            for &c in &src_col.codes {
                let code = &mut codes[c as usize];
                if *code == NO_ID {
                    *code = col.dict.intern(src_col.dict.vals[c as usize]);
                }
                col.codes.push(*code);
            }
        }
        inner.rows.append(&from.rows, first);
        inner.len += from.len;
        first
    }

    /// Empty the relation and keep its capacity: the arena, the code
    /// columns, the dictionaries' values and every id table at its size,
    /// with no row and no dictionary value left, so refilling it numbers
    /// rows and codes from 0 as a new relation does.
    pub fn clear(&mut self) {
        let inner = self.make_mut();
        inner.arena.clear();
        inner.len = 0;
        for col in &mut inner.cols {
            col.codes.clear();
            col.dict.vals.clear();
            col.dict.codes.clear();
        }
        inner.rows.clear();
    }

    /// The relation [`Relation::clear`]ed for reuse, if nothing else shares
    /// its storage and none of its id tables is larger than its own rows or
    /// values need — so clearing it empties no more slots than filling it
    /// used. `None` otherwise.
    pub fn into_spare(mut self) -> Option<Relation> {
        let inner = &*self.inner;
        let fits = inner.rows.fits() && inner.cols.iter().all(|c| c.dict.codes.fits());
        if Arc::strong_count(&self.inner) > 1 || !fits {
            return None;
        }
        self.clear();
        Some(self)
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
        let Probe::Found(id) = self.inner.probe_row(h, row) else {
            return false;
        };
        let inner = self.make_mut();
        let last = inner.len - 1;
        inner.rows.remove(h, id);
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
            inner.rows.replace(last_hash, last, id);
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

    /// Row ids in tuple order (the lazily built sorted-id cache).
    pub(crate) fn sorted_ids(&self) -> &[u32] {
        self.inner.sorted.get_or_init(|| self.inner.sort_ids())
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

/// A relation's rows as fact-file text: each column's dictionary rendered
/// once, the way [`Const`]'s `Display` prints, and rows written from that
/// text. Printing a fixpoint this way formats each distinct value once and
/// takes one interner lock per dictionary, not one per row and symbol.
pub(crate) struct RenderedRows<'a> {
    rel: &'a Relation,
    /// Per column: every code's text back to back, and the offsets that
    /// bound each code's text (`ends[code]..ends[code + 1]`).
    cols: Vec<(String, Vec<usize>)>,
}

impl<'a> RenderedRows<'a> {
    pub(crate) fn new(rel: &'a Relation) -> RenderedRows<'a> {
        RenderedRows {
            rel,
            cols: rel
                .inner
                .cols
                .iter()
                .map(|c| render(&c.dict.vals))
                .collect(),
        }
    }

    /// Append row `id`'s constants to `out`, separated by `", "`.
    pub(crate) fn push_row(&self, id: u32, out: &mut String) {
        for (k, (text, ends)) in self.cols.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let code = self.rel.code_at(k, id) as usize;
            out.push_str(&text[ends[code]..ends[code + 1]]);
        }
    }
}

/// `vals` printed back to back, with the offsets between them.
fn render(vals: &[Const]) -> (String, Vec<usize>) {
    use std::fmt::Write;
    let mut text = String::new();
    let mut ends = Vec::with_capacity(vals.len() + 1);
    ends.push(0);
    with_names(|names| {
        for &c in vals {
            match c {
                Const::Int(i) => write!(text, "{i}").expect("writing to a String"),
                Const::Sym(s) => text.push_str(names.get(s)),
                Const::Frozen(Var(s)) => {
                    text.push('\'');
                    text.push_str(names.get(s));
                }
                Const::Null(n) => write!(text, "δ{n}").expect("writing to a String"),
            }
            ends.push(text.len());
        }
    });
    (text, ends)
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

    /// A dedup set over `u64` keys on an [`IdTable`] whose every hash is
    /// the same, driven like [`Relation`] drives its table (swap-remove
    /// included) and checked against a `BTreeSet` after each operation.
    #[test]
    fn id_table_under_a_degenerate_hash_matches_a_set() {
        const HASH: u64 = 0x5eed_5eed_5eed_5eed;
        let mut table = IdTable::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut model = std::collections::BTreeSet::new();
        let mut sizes = std::collections::BTreeSet::new();
        let mut x = 1u64;
        for step in 0..3_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 300;
            // Mostly inserts early (growth), mostly removals late
            // (tombstones, rebuilds that keep or shrink the size).
            let insert = (x >> 20) % 100 < if step < 1_500 { 75 } else { 40 };
            let probe = table.probe(HASH, |id| keys[id as usize] == key);
            if insert {
                match probe {
                    Probe::Found(id) => assert_eq!(keys[id as usize], key),
                    Probe::Vacant(at) => {
                        table.insert_at(at, HASH, keys.len() as u32);
                        keys.push(key);
                    }
                }
                assert_eq!(matches!(probe, Probe::Vacant(_)), model.insert(key));
            } else {
                if let Probe::Found(id) = probe {
                    let last = keys.len() as u32 - 1;
                    table.remove(HASH, id);
                    if id != last {
                        keys[id as usize] = keys[last as usize];
                        table.replace(HASH, last, id);
                    }
                    keys.pop();
                }
                assert_eq!(matches!(probe, Probe::Found(_)), model.remove(&key));
            }
            assert_eq!(table.live, model.len());
            assert!(table.used <= IdTable::max_used(table.slots.len()));
            assert!(table.slots.is_empty() || table.slots.len().is_power_of_two());
            sizes.insert(table.slots.len());
            for k in 0..300 {
                let found = table.find(HASH, |id| keys[id as usize] == k);
                assert_eq!(found.map(|id| keys[id as usize]), model.get(&k).copied());
            }
        }
        assert!(sizes.len() >= 4, "the table grew several times: {sizes:?}");
        let tombstones = table.slots.iter().filter(|&&s| s == TOMBSTONE).count();
        assert_eq!(table.used, table.live + tombstones);
    }

    /// The dedup table costs at most 24 B per row and each dictionary
    /// table at most 24 B per distinct value; emptying and refilling the
    /// relation ten times leaves every table at the size the first fill
    /// left it (removals leave tombstones that the refill reuses).
    #[test]
    fn id_tables_cost_per_distinct_value_and_settle_under_churn() {
        let rows: Vec<[Const; 2]> = (0..100_000i64)
            .map(|i| [Const::Int(i % 1_000), Const::Int(i)])
            .collect();
        let mut rel = Relation::new(2);
        for row in &rows {
            assert!(rel.insert(row).is_some());
        }
        let tables = |rel: &Relation| -> Vec<usize> {
            let mut bytes: Vec<usize> = rel
                .inner
                .cols
                .iter()
                .map(|c| c.dict.codes.bytes())
                .collect();
            bytes.push(rel.dedup_bytes());
            bytes.push(rel.dict_bytes());
            bytes
        };
        let filled = tables(&rel);
        assert!(rel.dedup_bytes() <= 24 * rows.len(), "{filled:?}");
        for (k, col) in rel.inner.cols.iter().enumerate() {
            let distinct = rel.dict_len(k);
            assert!(
                col.dict.codes.bytes() <= 24 * distinct,
                "column {k}: {filled:?}"
            );
        }
        for cycle in 0..10 {
            for row in rows
                .iter()
                .rev()
                .skip(cycle)
                .chain(rows.iter().rev().take(cycle))
            {
                assert!(rel.remove(row));
            }
            assert!(rel.is_empty());
            for (i, row) in rows.iter().enumerate() {
                assert!(rel.insert(row).is_some());
                if i % 10_000 == 0 {
                    // Every reinsert took a tombstone, not an empty slot.
                    assert_eq!(rel.inner.rows.used, rows.len(), "cycle {cycle}");
                }
            }
            assert_eq!(tables(&rel), filled, "cycle {cycle}");
        }
    }

    /// A relation that keeps about 100 rows while every row is fresh
    /// fills its dedup table with tombstones; each rebuild sizes the table
    /// from the live rows, so it stays at its warmed-up size.
    #[test]
    fn a_sliding_window_keeps_its_dedup_table_size() {
        let mut rel = Relation::new(1);
        let mut sizes = std::collections::BTreeSet::new();
        for i in 0..20_000i64 {
            rel.insert(&r(&[i]));
            if i >= 100 {
                assert!(rel.remove(&r(&[i - 100])));
            }
            if i >= 1_000 {
                sizes.insert(rel.dedup_bytes());
            }
        }
        assert_eq!(sizes.len(), 1, "{sizes:?}");
    }

    type Layout = (Vec<Vec<Const>>, Vec<(Vec<u32>, usize)>, Vec<Vec<Const>>);

    /// `rel`'s rows by id, each column's codes and dictionary size, and its
    /// rows in tuple order: everything `append_absent` must give exactly as
    /// row-by-row insertion does.
    fn layout(rel: &Relation) -> Layout {
        let rows = rel.rows().map(<[Const]>::to_vec).collect();
        let cols = (0..rel.arity())
            .map(|k| (rel.codes(k).to_vec(), rel.dict_len(k)))
            .collect();
        let sorted = rel.iter_sorted().map(<[Const]>::to_vec).collect();
        (rows, cols, sorted)
    }

    /// Appending `src` to `target` gives the relation inserting its rows
    /// one by one gives: the same ids, codes, dictionaries, lookups and
    /// order.
    fn assert_append_is_insert(target: &Relation, src: &Relation) {
        let mut expected = target.clone();
        for row in src.rows() {
            assert!(expected.insert(row).is_some(), "the rows are absent");
        }
        let mut appended = target.clone();
        assert_eq!(appended.append_absent(src), target.len() as u32);
        assert_eq!(layout(&appended), layout(&expected));
        for (id, row) in expected.iter_with_ids() {
            assert_eq!(appended.find(row), Some(id));
        }
        assert_eq!(appended.find(&r(&[-1, -1])), None);
    }

    #[test]
    fn append_absent_assigns_what_row_by_row_insertion_assigns() {
        let sym = |i: i64| Const::Sym(crate::Sym::new(&format!("s{}", i % 7)));
        let mut src = Relation::new(2);
        for i in 0..300i64 {
            src.insert(&[sym(i), Const::Int(1_000 + i % 13)]);
        }
        // A swap-removed row: `src`'s codes are no longer in row order.
        assert!(src.remove(&[sym(0), Const::Int(1_000)]));

        // Into an empty relation, and into one that already holds values
        // of both columns.
        assert_append_is_insert(&Relation::new(2), &src);
        let mut target = Relation::new(2);
        for i in 0..50i64 {
            target.insert(&[Const::Int(i), Const::Int(1_000 + i % 5)]);
        }
        assert_append_is_insert(&target, &src);

        // Into a relation a snapshot shares: the append unshares first.
        let snapshot = target.clone();
        let before = layout(&snapshot);
        let mut writer = target.clone();
        writer.append_absent(&src);
        assert!(!writer.shares_storage_with(&snapshot));
        assert_eq!(layout(&snapshot), before, "snapshot unaffected");
        assert_eq!(writer.len(), 50 + src.len());

        // Into a relation whose dedup table holds tombstones.
        for i in 10..40i64 {
            assert!(target.remove(&[Const::Int(i), Const::Int(1_000 + i % 5)]));
        }
        assert!(target.inner.rows.used > target.inner.rows.live);
        assert_append_is_insert(&target, &src);

        // Nothing to append, and arity 0.
        assert_append_is_insert(&target, &Relation::new(2));
        let mut unit = Relation::new(0);
        unit.insert(&[]);
        let mut empty = Relation::new(0);
        assert_eq!(empty.append_absent(&unit), 0);
        assert_eq!((empty.len(), empty.find(&[])), (1, Some(0)));
    }

    /// [`IdTable::append`] under a hash every key shares, into a table
    /// whose probe sequence is littered with tombstones: each appended id
    /// is found under its key, the tombstones are taken before empty slots,
    /// and the table grows once at most.
    #[test]
    fn id_table_append_under_a_degenerate_hash_with_tombstones() {
        const HASH: u64 = 0x5eed_5eed_5eed_5eed;
        let mut keys: Vec<u64> = (0..40).collect();
        let mut table = IdTable::default();
        for (id, &key) in keys.iter().enumerate() {
            let Probe::Vacant(at) = table.probe(HASH, |i| keys[i as usize] == key) else {
                unreachable!("distinct keys");
            };
            table.insert_at(at, HASH, id as u32);
        }
        // Remove every other key, swapping the last one in as `Relation`
        // does.
        for key in (0..40u64).step_by(2) {
            let id = table.find(HASH, |i| keys[i as usize] == key).unwrap();
            let last = keys.len() as u32 - 1;
            table.remove(HASH, id);
            if id != last {
                keys[id as usize] = keys[last as usize];
                table.replace(HASH, last, id);
            }
            keys.pop();
        }
        let tombstones = table.used - table.live;
        assert!(tombstones > 0);
        let size = table.slots.len();

        let fresh: Vec<u64> = (100..110).collect();
        let mut src = IdTable::default();
        for id in 0..fresh.len() as u32 {
            let Probe::Vacant(at) = src.probe(HASH, |_| false) else {
                unreachable!();
            };
            src.insert_at(at, HASH, id);
        }
        let (used, base) = (table.used, keys.len() as u32);
        table.append(&src, base);
        keys.extend(&fresh);
        assert_eq!(table.live, keys.len());
        assert_eq!(table.slots.len(), size, "room enough: no growth");
        assert_eq!(table.used, used + fresh.len().saturating_sub(tombstones));
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(
                table.find(HASH, |i| keys[i as usize] == key),
                Some(id as u32)
            );
        }
        assert_eq!(table.find(HASH, |i| keys[i as usize] == 0), None);

        // Past the load limit it grows once, to a size that holds them all;
        // the tombstones left are taken first.
        let mut big = IdTable::default();
        for id in 0..100 {
            let Probe::Vacant(at) = big.probe(HASH, |_| false) else {
                unreachable!();
            };
            big.insert_at(at, HASH, id);
        }
        table.append(&big, keys.len() as u32);
        keys.extend(1_000..1_100);
        assert_eq!(table.slots.len(), IdTable::slots_for(keys.len()));
        assert!(table.used <= IdTable::max_used(table.slots.len()));
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(
                table.find(HASH, |i| keys[i as usize] == key),
                Some(id as u32)
            );
        }
    }

    /// A cleared relation holds no row and no dictionary value — a stale
    /// dictionary would widen the kernel's head-bitmap radix — but keeps
    /// every table at its size, and refills as a new relation fills.
    #[test]
    fn clear_forgets_rows_and_values_but_keeps_capacity() {
        let mut rel = Relation::new(2);
        for i in 0..200i64 {
            rel.insert(&r(&[i, i % 3]));
        }
        let (arena, dedup, dict) = (rel.arena_bytes(), rel.dedup_bytes(), rel.dict_bytes());
        rel.clear();
        assert!(rel.is_empty());
        assert_eq!((rel.len(), rel.dict_len(0), rel.dict_len(1)), (0, 0, 0));
        assert_eq!(rel.find(&r(&[5, 2])), None);
        assert_eq!(rel.lookup_code(0, Const::Int(5)), None);
        assert_eq!(
            (rel.arena_bytes(), rel.dedup_bytes(), rel.dict_bytes()),
            (arena, dedup, dict)
        );
        let mut fresh = Relation::new(2);
        for i in [7i64, 3, 7] {
            rel.insert(&r(&[i, 9]));
            rel.insert(&r(&[9, i]));
            fresh.insert(&r(&[i, 9]));
            fresh.insert(&r(&[9, i]));
        }
        assert_eq!(layout(&rel), layout(&fresh));
        assert_eq!(rel.dedup_bytes(), dedup, "no regrowth");
    }

    /// Only a relation nothing shares, whose tables are no larger than its
    /// rows need, becomes a spare.
    #[test]
    fn a_spare_is_unshared_and_no_larger_than_its_rows_need() {
        let filled = |n: i64| {
            let mut rel = Relation::new(1);
            for i in 0..n {
                rel.insert(&r(&[i]));
            }
            rel
        };
        let spare = filled(100).into_spare().expect("grown by its own rows");
        assert!(spare.is_empty());
        let shared = filled(100);
        let _snapshot = shared.clone();
        assert!(shared.into_spare().is_none(), "a snapshot reads it");
        // Refilled with a tenth of its rows, its tables are too large.
        let mut spare = filled(100).into_spare().unwrap();
        for i in 0..10 {
            spare.insert(&r(&[i]));
        }
        assert!(spare.into_spare().is_none());
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
