//! Persistent evaluation contexts: incremental indexes, compiled join
//! scripts, and rounds that run every task on the calling thread.
//!
//! The paper's headline promise is "fewer joins during the evaluation"
//! (§I). The seed evaluators honoured the *logical* half of that promise
//! but threw the physical half away: every fixpoint round rebuilt every
//! `(predicate, bound-positions)` hash index from scratch and recomputed
//! every rule's greedy join order once per delta position. [`EvalContext`]
//! fixes both, and since the columnar-storage work it does so without
//! copying tuples at all:
//!
//! * **Incremental row-id indexes in dictionary-code space.** The context
//!   owns an `IndexStore` of per-`(pred, arity, positions)` indexes that
//!   live across fixpoint rounds. An index chains the row-ids whose
//!   projected **dictionary codes** (see [`Relation::codes`]) are equal —
//!   one key per chain: a map from a slot of the key's probe sequence
//!   (its hash, then steps of `PROBE_STEP` past the chains of colliding
//!   keys) to the chain's first and last id, and one `next` array linking
//!   each row to the next of its chain, so candidates come in insertion
//!   order. Building an index is a fold over `u32` code columns — it never
//!   touches the row arena — into two allocations, and appending a derived
//!   row is one `u32` pushed and one linked per live index
//!   ([`Stats::index_appends`]); an index is built at most once per pattern
//!   per context ([`Stats::index_builds`]). The invariant: **every
//!   mutation of the context database flows through the context**, so ids
//!   always resolve against the exact arena they were taken from
//!   (insertions are append-only and keep ids stable; deletions
//!   conservatively clear the store, which re-fills lazily).
//!
//! * **Compiled join scripts, one kernel.** Each `(rule, delta position,
//!   order)` compiles once per plan into a `JoinScript` — the [`RulePlan`]
//!   keeps it for every later round and every other context over the same
//!   plans — whose steps know statically which index to probe, how to build
//!   the probe key, and which tuple positions bind which variable slots,
//!   and which carries the kernel's whole task setup (`kernels::Recipe`). A
//!   step names its index by the plan's pattern number, which the store
//!   resolves to a slot with one integer lookup. Every script — any body
//!   length, any key width, negation included — runs on the batched
//!   columnar pipeline in `kernels`; the reference it is tested against is
//!   [`crate::naive`], which shares none of this. The kernel probes in
//!   code space: a probe key's constants are translated through the
//!   target column's dictionary first, so a constant that never appears in
//!   a column matches nothing without touching a single row
//!   ([`Stats::dict_filtered_probes`]). A
//!   lookup compares its key, a `u32` per bound column, with the first row
//!   of each chain its probe sequence passes — one chain unless two keys'
//!   64-bit hashes collide — and every candidate of the chain it stops at
//!   carries the key, so only repeated-variable checks remain per
//!   candidate. A scan (the delta literal, a literal with no bound
//!   position) still compares the key on every row.
//!
//! * **One thread, one output per round.** A round's `(rule ×
//!   delta-position)` tasks run one after another on the calling thread
//!   into a single `TaskOutput`, against the context's indexes and the
//!   borrowed delta, which the delta literal scans. What a round costs beyond
//!   its joins is one relation size per body atom and a greedy order per
//!   task, a memo lookup per task, and a slot lookup per positive literal.
//!
//! * **Every body match once.** A literal repeating an earlier one (a
//!   twin, see [`RulePlan`]) gets no step and no delta task. A committing
//!   delta round's delta is the newest rows of its relations (the contract
//!   of `EvalContext::delta_round`, asserted in debug builds), so a
//!   positive literal ahead of the delta literal in body order reads only
//!   the rows below `len - |Δ|` of its relation (`Step::old`); chains run
//!   in ascending id order, so the kernel stops at that bound. A match is
//!   found by the task at its first new row and by no other. Full rounds
//!   and the DRed sweep, whose delta is not the newest rows, read whole
//!   relations.
//!
//! * **A round's arenas are its delta.** The set-semantics dedup a round
//!   runs its heads through (`Seen`) holds each head new to the database
//!   once, so committing appends those rows to the database by the hash
//!   tags `Seen` computed ([`Relation::append_absent`]: no row is hashed,
//!   probed or compared again) and hands the arenas on, as they are, as the
//!   next round's delta. A spent delta's relations come back
//!   (`EvalContext::spend`) and are cleared for a later round's heads, so
//!   a round's arenas start at the size the last one needed.
//!
//! * **Derivations on request.** A context made [`EvalContext::traced`]
//!   keeps the first justification of every atom it commits, decoded from
//!   the kernel's in-flight row-ids where a head is queued
//!   (`TaskOutput::emit_head`), so [`crate::provenance`] needs no evaluator
//!   of its own. Untraced, the cost is one branch per queued head.

use crate::kernels;
use crate::plan::{pattern_number, OrderScratch, RulePlan, Slot};
use crate::provenance::Justification;
use crate::stats::Stats;
use datalog_ast::{
    hash_codes_fold, hash_codes_seed, Const, Database, FxHashMap, GroundAtom, Pred, Program,
    Relation, RowHashMap, Rule,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The end of a chain, and the slot of a step that reads no index.
pub(crate) const NONE: u32 = u32::MAX;

/// The stride of an [`Index`]'s probe sequences: the chain of a key whose
/// hash is `h` sits at the first of `h`, `h + PROBE_STEP`, `h + 2 ·
/// PROBE_STEP`, … (wrapping) that is empty or holds a chain whose first
/// row carries the key. The stride is odd, so a sequence reaches every
/// slot before it repeats one.
const PROBE_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// One hash index over the rows of `(pred, arity)`, keyed on their
/// dictionary codes at `positions`. Rows with one key form a chain in
/// insertion order, and a chain holds exactly one key: `heads` maps a slot
/// of the key's probe sequence ([`PROBE_STEP`]) to the chain's first and
/// last row-id, and `next[id]` is the row after `id` in its chain (`NONE`
/// at the end). Keys whose hashes collide take successive slots of the
/// sequence, so a lookup compares its key with one row per chain it
/// passes, and every candidate of the chain it stops at carries the key.
#[derive(Clone, Debug)]
pub(crate) struct Index {
    pred: Pred,
    arity: usize,
    positions: Box<[usize]>,
    heads: RowHashMap<(u32, u32)>,
    next: Vec<u32>,
}

impl Index {
    /// Index every row `db` holds at `(pred, arity)`. The map is sized for
    /// the distinct keys the code columns allow, so a build allocates the
    /// map and `next` once each.
    fn build(db: &Database, pred: Pred, arity: usize, positions: &[usize]) -> Index {
        let rel = db.relation_of(pred, arity);
        let rows = rel.map_or(0, Relation::len);
        let keys = rel.map_or(0, |rel| {
            positions
                .iter()
                .try_fold(1usize, |n, &p| n.checked_mul(rel.dict_len(p)))
                .map_or(rows, |n| n.min(rows))
        });
        let mut index = Index {
            pred,
            arity,
            positions: positions.into(),
            heads: RowHashMap::with_capacity_and_hasher(keys, Default::default()),
            next: Vec::with_capacity(rows),
        };
        if let Some(rel) = rel {
            for id in 0..rows as u32 {
                index.append(rel, id);
            }
        }
        index
    }

    /// Link row `id` of `rel` — the next row of the relation — to the end
    /// of its key's chain.
    #[inline]
    fn append(&mut self, rel: &Relation, id: u32) {
        let mut h = hash_codes_seed(self.positions.len());
        for &p in self.positions.iter() {
            h = hash_codes_fold(h, rel.code_at(p, id));
        }
        self.link(rel, id, h);
    }

    /// [`Index::append`] with the key's hash `h` given: walk the key's
    /// probe sequence to its chain, or to the empty slot that starts it.
    #[inline]
    fn link(&mut self, rel: &Relation, id: u32, mut h: u64) {
        debug_assert_eq!(id as usize, self.next.len(), "rows are indexed in id order");
        let positions = &self.positions;
        let same_key = |first: u32| {
            positions
                .iter()
                .all(|&p| rel.code_at(p, first) == rel.code_at(p, id))
        };
        self.next.push(NONE);
        loop {
            match self.heads.entry(h) {
                Entry::Occupied(mut chain) if same_key(chain.get().0) => {
                    let (_, last) = chain.get_mut();
                    self.next[*last as usize] = id;
                    *last = id;
                    return;
                }
                Entry::Occupied(_) => h = h.wrapping_add(PROBE_STEP),
                Entry::Vacant(chain) => {
                    chain.insert((id, id));
                    return;
                }
            }
        }
    }

    /// The first row of the chain whose key hashes to `hash` and is carried
    /// by the rows `carries` accepts — `NONE` when the index holds no such
    /// row. One `carries` call per chain on the key's probe sequence.
    #[inline]
    fn first(&self, hash: u64, carries: impl Fn(u32) -> bool) -> u32 {
        let mut h = hash;
        loop {
            match self.heads.get(&h) {
                None => return NONE,
                Some(&(first, _)) if carries(first) => return first,
                Some(_) => h = h.wrapping_add(PROBE_STEP),
            }
        }
    }
}

/// Owned, incrementally-maintained row-id indexes over a database.
///
/// The store holds only `u32` ids into the database's arenas and survives
/// rounds: new rows are appended, never re-scanned. Ids are valid against
/// the exact database the store was resolved/absorbed from. Keys are hashes
/// of projected *dictionary codes*, so building and appending read only
/// `u32` columns.
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexStore {
    /// The indexes, by slot.
    indexes: Vec<Index>,
    /// The slot of each `(rule, pattern)` a step of this context has
    /// probed, where the pattern is the number the rule's plan gave the
    /// step's index (`Step::index`). A context's plans are only ever
    /// appended to, so the answer never changes.
    slots: FxHashMap<(usize, usize), u32>,
}

impl IndexStore {
    /// The slot of the index `step` of `rule` probes, built from `db` if no
    /// step has probed its `(pred, arity, positions)` yet — in which case
    /// the second component is `true`.
    fn resolve(&mut self, db: &Database, rule: usize, step: &Step) -> (u32, bool) {
        if let Some(&slot) = self.slots.get(&(rule, step.index)) {
            return (slot, false);
        }
        let known = self.indexes.iter().position(|ix| {
            ix.pred == step.pred && ix.arity == step.arity && ix.positions == step.positions
        });
        let (slot, built) = match known {
            Some(slot) => (slot, false),
            None => {
                let index = Index::build(db, step.pred, step.arity, &step.positions);
                self.indexes.push(index);
                (self.indexes.len() - 1, true)
            }
        };
        self.slots.insert((rule, step.index), slot as u32);
        (slot as u32, built)
    }

    /// The index at `slot`, as [`IndexStore::resolve`] handed it out.
    #[inline]
    pub(crate) fn postings(&self, slot: u32) -> Postings<'_> {
        Postings(Some(&self.indexes[slot as usize]))
    }

    /// Append the freshly inserted rows `ids` of `(pred, arity)` (valid in
    /// `db`) into every live index of that relation. Callers guarantee the
    /// rows are new w.r.t. the indexed database (the semi-naive
    /// discipline), so this never introduces duplicates. Returns the number
    /// of (row, index) appends performed.
    fn absorb(&mut self, db: &Database, pred: Pred, arity: usize, ids: Range<u32>) -> u64 {
        let mut appends = 0;
        for index in &mut self.indexes {
            if index.pred != pred || index.arity != arity {
                continue;
            }
            let rel = db
                .relation_of(pred, arity)
                .expect("freshly inserted rows have a relation");
            for id in ids.clone() {
                index.append(rel, id);
            }
            appends += ids.len() as u64;
        }
        appends
    }

    /// Drop every index (after a non-monotone mutation, which invalidates
    /// row-ids); they re-fill lazily from the current database.
    fn clear(&mut self) {
        self.indexes.clear();
        self.slots.clear();
    }
}

/// One resolved index of an [`IndexStore`] (the default probes empty).
#[derive(Clone, Copy, Default)]
pub(crate) struct Postings<'a>(Option<&'a Index>);

impl<'a> Postings<'a> {
    /// The row-ids below `end` that carry the key hashing to `hash`, in
    /// insertion order (`end == NONE`: every one). `carries(id)` says
    /// whether row `id` carries the key; the lookup asks it once per chain
    /// it passes, and no candidate needs asking again.
    #[inline]
    pub(crate) fn get(self, hash: u64, end: u32, carries: impl Fn(u32) -> bool) -> Chain<'a> {
        match self.0 {
            Some(index) => Chain {
                next: &index.next,
                at: index.first(hash, carries),
                end,
            },
            None => Chain {
                next: &[],
                at: NONE,
                end,
            },
        }
    }
}

/// The row-ids below `end` of one chain of an [`Index`]. A chain is in
/// ascending id order, so the first id at or past `end` ends it; `NONE`,
/// which ends every chain, is past every `end`.
#[derive(Clone, Copy)]
pub(crate) struct Chain<'a> {
    next: &'a [u32],
    at: u32,
    end: u32,
}

impl Iterator for Chain<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let id = self.at;
        (id < self.end).then(|| {
            self.at = self.next[id as usize];
            id
        })
    }
}

/// The candidate row-ids of a literal: a chain, or a whole relation.
pub(crate) enum Cands<'a> {
    Chain(Chain<'a>),
    All(Range<u32>),
}

impl Iterator for Cands<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            Cands::Chain(chain) => chain.next(),
            Cands::All(ids) => ids.next(),
        }
    }
}

/// Where a probe key component comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum KeySrc {
    Const(Const),
    Var(usize),
}

/// One compiled join step: which index to probe, how to build the key,
/// and which tuple positions bind which variable slots.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Step {
    /// Body index of the atom.
    pub(crate) atom: usize,
    pub(crate) negated: bool,
    /// The delta literal of a delta script: the step reads the round's delta,
    /// every row of it, where any other step reads the database through its
    /// index.
    pub(crate) delta: bool,
    /// A positive literal ahead of the delta literal in body order: in a
    /// committing delta round it reads only the rows its relation held
    /// before the delta (see [`EvalContext::delta_round`]), so that each
    /// body match is found by one task, the one at its first new row.
    pub(crate) old: bool,
    pub(crate) pred: Pred,
    /// The atom's arity (selects the arena relation to read rows from).
    pub(crate) arity: usize,
    /// Statically-bound argument positions (the index pattern).
    pub(crate) positions: Box<[usize]>,
    /// The index pattern's number in the plan the step was compiled from
    /// (see [`IndexStore::resolve`]); unused by negated steps.
    pub(crate) index: usize,
    /// Sources of the probe key, one per bound position. For negated
    /// atoms: sources of the full ground tuple (one per argument).
    pub(crate) key: Vec<KeySrc>,
    /// `(tuple position, variable slot)` pairs newly bound by this step.
    pub(crate) bind: Vec<(usize, usize)>,
    /// Repeated first occurrences within this atom: positions that must
    /// equal a slot bound earlier in `bind`.
    pub(crate) check: Vec<(usize, usize)>,
    /// Existential: a positive step after the enumerated one none of whose
    /// bound variables is read again (by the head or a later step's key), so
    /// which row matches cannot matter — the first verified candidate passes
    /// the in-flight row on and the rest are never visited.
    pub(crate) exists: bool,
}

impl Step {
    /// The tuple position a variable slot is bound from by this step.
    pub(crate) fn bind_pos(&self, var: usize) -> Option<usize> {
        self.bind
            .iter()
            .find(|&&(_, w)| w == var)
            .map(|&(pos, _)| pos)
    }

    /// `check` resolved to `(position, position)` pairs within this step's
    /// tuple (repeated-variable equality as a row-local compare).
    pub(crate) fn check_pairs(&self) -> Vec<(usize, usize)> {
        self.check
            .iter()
            .map(|&(pos, v)| {
                let bound_at = self
                    .bind_pos(v)
                    .expect("checked variable first bound by the same step");
                (pos, bound_at)
            })
            .collect()
    }
}

/// A rule's body compiled for a fixed atom order and delta position, plus
/// its head recipe and the kernel's task setup.
#[derive(Debug, PartialEq)]
pub(crate) struct JoinScript {
    pub(crate) steps: Vec<Step>,
    pub(crate) head_pred: Pred,
    pub(crate) head: Vec<KeySrc>,
    pub(crate) num_vars: usize,
    pub(crate) kernel: kernels::Recipe,
}

fn keysrc(slot: Slot) -> KeySrc {
    match slot {
        Slot::Const(c) => KeySrc::Const(c),
        Slot::Var(v) => KeySrc::Var(v),
    }
}

/// Compile `plan`'s body under `order` into a [`JoinScript`], with the
/// delta at body atom `delta` (which `order` must lead with) or none. The
/// binding pattern at each depth is fully determined by the order, which
/// is what lets the executor run against pre-built, read-only indexes.
/// Index patterns are numbered through `patterns`, the plan's table. An
/// atom `order` leaves out (a twin) gets no step.
pub(crate) fn compile_script(
    plan: &RulePlan,
    order: &[usize],
    delta: Option<usize>,
    patterns: &mut Vec<(usize, Box<[usize]>)>,
) -> JoinScript {
    debug_assert!(delta.is_none_or(|d| order.first() == Some(&d)));
    let mut bound = vec![false; plan.num_vars()];
    let mut steps = Vec::with_capacity(order.len());
    for &atom_i in order {
        let atom = &plan.body[atom_i];
        if atom.negated {
            // Safety (validated upstream) guarantees all variables bound.
            steps.push(Step {
                atom: atom_i,
                negated: true,
                delta: false,
                old: false,
                pred: atom.pred,
                arity: atom.slots.len(),
                positions: Box::default(),
                index: 0,
                key: atom.slots.iter().map(|&s| keysrc(s)).collect(),
                bind: Vec::new(),
                check: Vec::new(),
                exists: false,
            });
            continue;
        }
        let mut positions = Vec::new();
        let mut key = Vec::new();
        let mut bind: Vec<(usize, usize)> = Vec::new();
        let mut check = Vec::new();
        for (i, s) in atom.slots.iter().enumerate() {
            match *s {
                Slot::Const(c) => {
                    positions.push(i);
                    key.push(KeySrc::Const(c));
                }
                Slot::Var(v) if bound[v] => {
                    positions.push(i);
                    key.push(KeySrc::Var(v));
                }
                // Second occurrence of a variable first bound by this very
                // atom: equality-check after binding.
                Slot::Var(v) if bind.iter().any(|&(_, w)| w == v) => check.push((i, v)),
                Slot::Var(v) => bind.push((i, v)),
            }
        }
        for &(_, v) in &bind {
            bound[v] = true;
        }
        steps.push(Step {
            atom: atom_i,
            negated: false,
            delta: delta == Some(atom_i),
            old: delta.is_some_and(|d| atom_i < d),
            pred: atom.pred,
            arity: atom.slots.len(),
            index: pattern_number(patterns, atom_i, &positions),
            positions: positions.into(),
            key,
            bind,
            check,
            exists: false,
        });
    }
    let head: Vec<KeySrc> = plan.head.slots.iter().map(|&s| keysrc(s)).collect();
    mark_existential(&mut steps, &head, plan.num_vars());
    JoinScript {
        kernel: kernels::Recipe::new(&steps, &head),
        steps,
        head_pred: plan.head.pred,
        head,
        num_vars: plan.num_vars(),
    }
}

/// Backward liveness over compiled steps: a variable is live after a step
/// when the head or a later step's key reads it. A positive step whose
/// bindings are all dead is existential ([`Step::exists`]). The enumerated
/// step (the first positive one) is never marked: it is the delta literal of
/// a delta task, which needs every one of its rows.
fn mark_existential(steps: &mut [Step], head: &[KeySrc], num_vars: usize) {
    let mut live = vec![false; num_vars];
    let read = |live: &mut [bool], srcs: &[KeySrc]| {
        for src in srcs {
            if let KeySrc::Var(v) = *src {
                live[v] = true;
            }
        }
    };
    read(&mut live, head);
    let enumerated = steps.iter().position(|s| !s.negated).unwrap_or(0);
    for step in steps.iter_mut().skip(enumerated + 1).rev() {
        step.exists = !step.negated && step.bind.iter().all(|&(_, v)| !live[v]);
        read(&mut live, &step.key);
    }
}

/// One schedulable unit of a round: a script of a rule, with the store
/// slots of its steps' indexes (`NONE` for a negated step) and the row-id
/// each step's candidates stop at (`NONE`: none; see [`Step::old`]).
#[derive(Clone, Copy)]
pub(crate) struct Task<'r> {
    pub(crate) script: &'r JoinScript,
    /// The script's rule, as an index into the context's plans, and its
    /// plan.
    pub(crate) rule: usize,
    pub(crate) plan: &'r RulePlan,
    pub(crate) slots: &'r [u32],
    pub(crate) ends: &'r [u32],
}

/// The relation a step reads: the round's delta for the delta literal, the
/// database otherwise.
pub(crate) fn step_relation<'a>(
    step: &Step,
    db: &'a Database,
    delta_db: &'a Database,
) -> Option<&'a Relation> {
    let source = if step.delta { delta_db } else { db };
    source.relation_of(step.pred, step.arity)
}

/// The candidates below row-id `end` a step visits for the key `key`
/// (codes of `rel` at the step's positions) hashing to `hash`: every such
/// row of the relation for the delta literal or a literal with no bound
/// position — a scan, whose rows the caller checks against the key — and
/// otherwise the rows of the key's chain, each of which carries it. In id
/// order either way.
pub(crate) fn step_cands<'a>(
    step: &Step,
    slot: u32,
    end: u32,
    rel: &Relation,
    store: &'a IndexStore,
    hash: u64,
    key: &[u32],
) -> Cands<'a> {
    if step.delta || step.positions.is_empty() {
        Cands::All(0..end.min(rel.len() as u32))
    } else {
        let postings = store.postings(slot);
        Cands::Chain(postings.get(hash, end, |id| carries(rel, &step.positions, key, id)))
    }
}

/// Whether row `id` of `rel` carries `key`, its codes at `positions`.
#[inline]
pub(crate) fn carries(rel: &Relation, positions: &[usize], key: &[u32], id: u32) -> bool {
    positions
        .iter()
        .zip(key)
        .all(|(&pos, &code)| rel.code_at(pos, id) == code)
}

/// The heads a round queued, per head predicate and arity: the round's
/// set-semantics dedup arena — each head once, in the order it was first
/// queued, so a repeated head costs a hash probe, not a `Box` — and, in a
/// traced round, one justification per arena row, by row-id. A round
/// starts from the context's spare relations (empty, with the capacity an
/// earlier round gave them), so a head relation the round derives nothing
/// into stays empty. A committing round's arenas are its delta, and each
/// row's dedup tag is what the commit appends it to the database by.
#[derive(Default)]
pub(crate) struct Seen {
    rows: FxHashMap<(Pred, usize), Relation>,
    why: Option<FxHashMap<(Pred, usize), Vec<Justification>>>,
}

/// What the tasks of a round produce: work counters and the heads they
/// queued — plus the buffers every task of the round sets up in, so that
/// none allocates its own. `'a` is the round's borrow of the database, the
/// delta, the index store and the scripts.
pub(crate) struct TaskOutput<'a> {
    pub(crate) probes: u64,
    pub(crate) matches: u64,
    /// In-flight rows pushed through the kernel's probe stages.
    pub(crate) batch_rows: u64,
    /// Probe keys dropped because a constant was absent from the target
    /// column's dictionary — joins answered without touching any row.
    pub(crate) dict_filtered: u64,
    /// Key blocks hashed, one per flushed block.
    pub(crate) simd_blocks: u64,
    /// The heads to drop before they are queued: the database in a
    /// committing round (the commit would discard them anyway), the
    /// overdeleted set in a DRed sweep round (found already).
    known: &'a Database,
    /// The heads this output has queued.
    seen: Seen,
    /// The kernel's per-task duplicate filter in code space, reused by
    /// every task this output serves.
    pub(crate) heads: kernels::HeadFilter,
    /// The kernel's pipeline buffers, reused by every task this output
    /// serves.
    pub(crate) frame: kernels::Frame<'a>,
    pub(crate) head_buf: Vec<Const>,
}

impl<'a> TaskOutput<'a> {
    /// An output that drops the heads `known` holds and queues the others
    /// into `spares`, empty relations by head.
    fn new(known: &'a Database, traced: bool, spares: FxHashMap<(Pred, usize), Relation>) -> Self {
        TaskOutput {
            probes: 0,
            matches: 0,
            batch_rows: 0,
            dict_filtered: 0,
            simd_blocks: 0,
            known,
            seen: Seen {
                rows: spares,
                why: traced.then(FxHashMap::default),
            },
            heads: kernels::HeadFilter::default(),
            frame: kernels::Frame::default(),
            head_buf: Vec::new(),
        }
    }

    /// Account one complete body match whose head tuple sits in
    /// `self.head_buf`, dedup it, and queue it if new. The kernel's leaf
    /// calls it on a task's first sighting of each head, counting the
    /// repeats itself.
    ///
    /// A head `known` holds is dropped first, then one this round already
    /// queued, so `seen` holds each head new to `known` once — a row of an
    /// arena, never a per-tuple `Box`. A committing round hands `seen` on as
    /// its delta; a sweep round's `seen` is exactly the atoms it adds to the
    /// overdeleted set. Both filters come after the match is counted.
    ///
    /// Returns where a traced context wants the justification of the head
    /// just queued (its `seen` row's slot); `None` when nothing was queued
    /// or nothing is traced.
    pub(crate) fn emit_head(&mut self, head_pred: Pred) -> Option<&mut Vec<Justification>> {
        self.matches += 1;
        if self.known.contains_tuple(head_pred, &self.head_buf) {
            return None;
        }
        let key = (head_pred, self.head_buf.len());
        let rows = self
            .seen
            .rows
            .entry(key)
            .or_insert_with(|| Relation::new(key.1));
        rows.insert(&self.head_buf)?;
        Some(self.seen.why.as_mut()?.entry(key).or_default())
    }
}

/// A persistent evaluation context: the program's compiled rule plans, the
/// growing database, and incrementally-maintained indexes over it.
///
/// Constructed from a starting database, driven to fixpoint by
/// [`crate::evaluate`] or [`crate::incremental`], and consumed with
/// [`EvalContext::into_database`].
pub struct EvalContext {
    plans: Arc<Vec<RulePlan>>,
    db: Arc<Database>,
    store: Arc<IndexStore>,
    stats: Stats,
    /// A traced context's record: the first justification of every atom it
    /// committed ([`EvalContext::traced`]).
    justifications: Option<HashMap<GroundAtom, Justification>>,
    /// The greedy planner's buffers, reused by every task of every round.
    orders: OrderScratch,
    /// Empty relations a spent delta gave back, at most one per head
    /// relation the plans derive, kept with their capacity for the next
    /// round's heads of that relation (`EvalContext::spend`). They outlive
    /// a batch, as the plans do.
    spares: FxHashMap<(Pred, usize), Relation>,
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("rules", &self.plans.len())
            .field("db_atoms", &self.db.len())
            .field("stats", &self.stats)
            .finish()
    }
}

const CONST_BYTES: u64 = std::mem::size_of::<Const>() as u64;

/// Seed the allocation counters with the rows a context starts from, so
/// `tuples_allocated` reflects everything resident in the arenas, not just
/// rows derived later.
fn count_resident(stats: &mut Stats, input: &Database) {
    for pred in input.predicates() {
        for rel in input.relations_of(pred) {
            stats.tuples_allocated += rel.len() as u64;
            stats.arena_bytes += rel.len() as u64 * rel.arity() as u64 * CONST_BYTES;
        }
    }
}

impl EvalContext {
    /// Compile `program` and take ownership of `input` as the starting
    /// database.
    pub fn new(program: &Program, input: Database) -> EvalContext {
        EvalContext::with_plans(
            Arc::new(program.rules.iter().map(RulePlan::compile).collect()),
            input,
        )
    }

    /// [`EvalContext::new`] over already-compiled plans, for callers that run
    /// many short evaluations of one program (the §VI containment test).
    pub fn with_plans(plans: Arc<Vec<RulePlan>>, input: Database) -> EvalContext {
        let mut stats = Stats::default();
        count_resident(&mut stats, &input);
        EvalContext {
            plans,
            db: Arc::new(input),
            store: Arc::new(IndexStore::default()),
            stats,
            justifications: None,
            orders: OrderScratch::default(),
            spares: FxHashMap::default(),
        }
    }

    /// Start over from `input`: the database becomes `input` and the
    /// indexes go (they re-fill lazily), while the plans, their script memo
    /// and the counters stay.
    pub(crate) fn restart(&mut self, input: Database) {
        count_resident(&mut self.stats, &input);
        self.db = Arc::new(input);
        self.store = Arc::new(IndexStore::default());
    }

    /// Keep, from here on, the first justification of every atom a round
    /// commits (the kernel records them where it queues a head).
    pub fn traced(mut self) -> EvalContext {
        self.justifications.get_or_insert_with(HashMap::new);
        self
    }

    /// How `atom` got into the database: by a recorded rule application, or
    /// — nothing recorded — as input. `None` when it is not there.
    pub fn justification(&self, atom: &GroundAtom) -> Option<&Justification> {
        let recorded = self.justifications.as_ref().and_then(|j| j.get(atom));
        recorded.or_else(|| self.db.contains(atom).then_some(&Justification::Input))
    }

    /// The number of compiled rule plans.
    pub(crate) fn plans(&self) -> usize {
        self.plans.len()
    }

    /// Compile `rules` as plans `plans()..`: earlier plans, their indexes
    /// and their scripts stay. Plans a fork shares are copied, and the
    /// copies number their index patterns afresh, so the caller must have
    /// dropped the indexes first ([`EvalContext::remove_atoms`] does).
    pub(crate) fn append_plans(&mut self, rules: Vec<Rule>) {
        debug_assert!(
            Arc::get_mut(&mut self.plans).is_some() || self.store.slots.is_empty(),
            "shared plans are renumbered: their indexes must be gone"
        );
        let plans = Arc::make_mut(&mut self.plans);
        plans.extend(rules.iter().map(RulePlan::compile));
    }

    /// A cheap handle sharing this context's database and indexes
    /// copy-on-write (what a [`crate::Materialized`] `Clone` holds). The
    /// fork keeps the original's counters but not its justifications.
    pub(crate) fn fork(&self) -> EvalContext {
        EvalContext {
            plans: Arc::clone(&self.plans),
            db: Arc::clone(&self.db),
            store: Arc::clone(&self.store),
            stats: self.stats,
            justifications: None,
            orders: OrderScratch::default(),
            spares: FxHashMap::default(),
        }
    }

    /// The current database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// A shareable snapshot of the current database.
    pub(crate) fn database_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// Work counters accumulated over the context's whole life.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Consume the context, returning the database.
    pub fn into_database(self) -> Database {
        Arc::try_unwrap(self.db).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Insert one row under `pred`, keeping the live indexes synchronized.
    /// Returns whether it was new. (Does not count as a derivation — used
    /// for externally asserted facts.)
    pub(crate) fn add_fact(&mut self, pred: Pred, row: &[Const]) -> bool {
        let Some(id) = Arc::make_mut(&mut self.db).insert_row_id(pred, row) else {
            return false;
        };
        let arity = row.len();
        self.stats.tuples_allocated += 1;
        self.stats.arena_bytes += arity as u64 * CONST_BYTES;
        self.stats.index_appends +=
            Arc::make_mut(&mut self.store).absorb(&self.db, pred, arity, id..id + 1);
        true
    }

    /// Remove atoms (non-monotone): the indexes are conservatively
    /// invalidated (row-ids are not stable across removals) and re-fill
    /// lazily from the shrunken database.
    pub(crate) fn remove_atoms(&mut self, atoms: &Database) {
        let db = Arc::make_mut(&mut self.db);
        for pred in atoms.predicates() {
            for row in atoms.relations_of(pred).iter().flat_map(Relation::rows) {
                db.remove_row(pred, row);
            }
        }
        Arc::make_mut(&mut self.store).clear();
    }

    /// Round 1 of a (sub)fixpoint: evaluate `rules` in full over the
    /// current database, commit the new atoms, and return them.
    pub(crate) fn full_round(&mut self, rules: &[usize]) -> Database {
        let seen = self.run_round(rules, None, None);
        self.commit(seen)
    }

    /// A semi-naive delta round: evaluate `rules` with each positive body
    /// occurrence of a predicate that has tuples in `delta` restricted (in
    /// turn) to `delta`, commit the new atoms, and return them as the next
    /// delta.
    ///
    /// The contract: `delta` is what the database gained last — each of its
    /// relations is the newest `|Δ|` rows of the database's, as a commit or
    /// [`EvalContext::add_fact`] appended them — or a relation the database
    /// does not hold at all (DRed's `$overdeleted` seeds, which only their
    /// delta literal reads). The rows below `len - |Δ|` are then exactly the
    /// old ones, and a positive literal ahead of the delta literal in body
    /// order reads only those ([`Step::old`]): a match whose first new row
    /// sits at literal `p` is found by the task at `p` and by no other.
    pub(crate) fn delta_round(&mut self, rules: &[usize], delta: &Database) -> Database {
        debug_assert!(
            is_newest(&self.db, delta),
            "a committing round's delta is the newest rows of its relations"
        );
        let seen = self.run_round(rules, Some(delta), None);
        self.commit(seen)
    }

    /// A delta round over a *frozen* database (the DRed overdeletion sweep):
    /// nothing is committed, and every head the round derived that
    /// `overdeleted` does not hold is returned, once — the atoms the sweep
    /// adds to the set, and its next delta. The delta is not the newest rows
    /// of anything, so every literal reads its whole relation.
    pub(crate) fn sweep_round(
        &mut self,
        rules: &[usize],
        delta: &Database,
        overdeleted: &Database,
    ) -> Database {
        let Seen { rows, .. } = self.run_round(rules, Some(delta), Some(overdeleted));
        let mut swept = Database::new();
        for ((pred, arity), heads) in rows {
            if heads.is_empty() {
                self.spares.insert((pred, arity), heads);
            } else {
                swept.insert_relation(pred, heads);
            }
        }
        swept
    }

    /// Run `rules` to their fixpoint over the current database: one full
    /// round, then delta rounds until nothing new is derived.
    pub(crate) fn saturate(&mut self, rules: &[usize]) {
        self.saturate_to(rules, None);
    }

    /// `EvalContext::saturate`, stopping the round `goal` is committed:
    /// `true` iff `goal` is in the fixpoint (Corollary 2 needs no more). On
    /// `true` the database holds the goal but need not be saturated.
    pub fn saturate_until(&mut self, rules: &[usize], goal: &GroundAtom) -> bool {
        self.db.contains(goal) || self.saturate_to(rules, Some(goal))
    }

    fn saturate_to(&mut self, rules: &[usize], goal: Option<&GroundAtom>) -> bool {
        let mut delta = self.full_round(rules);
        while !delta.is_empty() {
            if goal.is_some_and(|g| delta.contains(g)) {
                return true;
            }
            let next = self.delta_round(rules, &delta);
            self.spend(std::mem::replace(&mut delta, next));
        }
        false
    }

    /// Take back a delta no round reads any more. Each of its relations
    /// that holds heads the plans derive, that nothing else shares and
    /// whose id tables are no larger than its rows need is cleared and kept
    /// as the spare of its head relation, unless that relation has one. The
    /// next round queues that relation's heads into it, without growing its
    /// tables from empty again.
    pub(crate) fn spend(&mut self, delta: Database) {
        for (pred, rel) in delta.into_relations() {
            let key = (pred, rel.arity());
            let derived = || {
                let head = |p: &RulePlan| p.head.pred == pred && p.head.slots.len() == key.1;
                self.plans.iter().any(head)
            };
            if self.spares.contains_key(&key) || !derived() {
                continue;
            }
            if let Some(spare) = rel.into_spare() {
                self.spares.insert(key, spare);
            }
        }
    }

    /// The number of spare relations the context holds.
    #[cfg(test)]
    pub(crate) fn spares(&self) -> usize {
        self.spares.len()
    }

    /// Append a committing round's heads — each new to the database, once —
    /// to the database by their dedup tags, append their row-ids to the live
    /// indexes, and return the round's arenas as they are as the next delta.
    /// A head relation the round derived nothing into goes back to the
    /// spares. A traced round's justifications are kept for exactly these
    /// atoms, so every recorded premise was in the database before its
    /// conclusion.
    fn commit(&mut self, seen: Seen) -> Database {
        let Seen { rows, mut why } = seen;
        let mut delta = Database::new();
        for ((pred, arity), heads) in rows {
            if heads.is_empty() {
                self.spares.insert((pred, arity), heads);
                continue;
            }
            // The heads are new, so they take the next ids of their relation.
            let first = Arc::make_mut(&mut self.db).append_absent(pred, &heads);
            let why = why.as_mut().and_then(|w| w.remove(&(pred, arity)));
            if let (Some(kept), Some(why)) = (&mut self.justifications, why) {
                let rel = self.db.relation_of(pred, arity).expect("just appended");
                for (id, why) in (first..).zip(why) {
                    kept.insert(GroundAtom::new(pred, rel.row(id)), why);
                }
            }
            let new = heads.len() as u64;
            let fresh = first..first + new as u32;
            self.stats.index_appends +=
                Arc::make_mut(&mut self.store).absorb(&self.db, pred, arity, fresh);
            self.stats.derivations += new;
            self.stats.tuples_allocated += new;
            self.stats.arena_bytes += new * arity as u64 * CONST_BYTES;
            delta.insert_relation(pred, heads);
        }
        delta
    }

    /// Evaluate one round of `rules` (full or delta-restricted) and return
    /// the heads it queued, with their justifications when the context is
    /// traced. A committing round (no `overdeleted` set) drops heads the
    /// database holds already and, if it is a delta round, keeps the
    /// literals ahead of the delta literal to the old rows
    /// ([`EvalContext::delta_round`]); a sweep round drops the heads
    /// `overdeleted` holds.
    fn run_round(
        &mut self,
        rules: &[usize],
        delta: Option<&Database>,
        overdeleted: Option<&Database>,
    ) -> Seen {
        self.stats.iterations += 1;
        let committing = overdeleted.is_none();
        let traced = self.justifications.is_some();
        let no_delta = Database::new();
        let delta_db = delta.unwrap_or(&no_delta);

        // Lay out the tasks. Full rounds get one greedy script per rule;
        // delta rounds get one script per (rule, delta position), seeded so
        // the delta atom drives the join — the delta is the small side, and
        // a persistent-relation-first order would rescan that full relation
        // once per delta position per round. A delta position is a positive
        // literal whose relation — predicate and arity — has delta rows.
        //
        // A twin (a literal repeating an earlier one) is folded into its
        // first copy: it is no delta position, and no order places it.
        //
        // An item cannot fire when a positive literal reads a relation with
        // no rows, and is dropped before it costs an order, a script and its
        // indexes. The delta literal is exempt: it reads the delta, whose
        // predicate may have no rows in the database (the `$overdeleted`
        // seeds of DRed rederivation never do).
        let mut sizes: Vec<usize> = Vec::new();
        let mut tasks: Vec<(Arc<JoinScript>, usize)> = Vec::new();
        for &rule in rules {
            let plan = &self.plans[rule];
            sizes.clear();
            sizes.extend(plan.body.iter().map(|a| a.relation_len(&self.db)));
            let empty = |i: usize| !plan.body[i].negated && !plan.is_twin(i) && sizes[i] == 0;
            let empties = (0..plan.body.len()).filter(|&i| empty(i)).count();
            let mut schedule = |pos: Option<usize>| {
                plan.greedy_order_seeded(&sizes, pos, &mut self.orders);
                tasks.push((plan.script(pos, &self.orders.order), rule));
            };
            match delta {
                None if empties == 0 => schedule(None),
                None => {}
                Some(d) => {
                    for (p, atom) in plan.body.iter().enumerate() {
                        let in_delta =
                            !atom.negated && !plan.is_twin(p) && atom.relation_len(d) > 0;
                        if in_delta && empties == usize::from(empty(p)) {
                            schedule(Some(p));
                        }
                    }
                }
            }
        }
        if tasks.is_empty() {
            return Seen::default();
        }

        // Resolve the index of every positive step, building the missing
        // ones; on steady-state rounds nothing is missing. The delta
        // literal scans the delta, but its pattern is resolved (and, the
        // first time, built and counted in `index_builds`) like any other.
        // In a committing delta round an old step's candidates end where its
        // relation's delta rows begin.
        let mut slots: Vec<u32> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        {
            let store = Arc::make_mut(&mut self.store);
            for (script, rule) in &tasks {
                for step in &script.steps {
                    let slot = if step.negated {
                        NONE
                    } else {
                        let (slot, built) = store.resolve(&self.db, *rule, step);
                        self.stats.index_builds += u64::from(built);
                        slot
                    };
                    slots.push(slot);
                    ends.push(if committing && step.old {
                        let len = |db: &Database| {
                            db.relation_of(step.pred, step.arity)
                                .map_or(0, Relation::len)
                        };
                        len(&self.db).saturating_sub(len(delta_db)) as u32
                    } else {
                        NONE
                    });
                }
            }
        }

        self.stats.specialized_tasks += tasks.len() as u64;
        self.stats.pipelined_tasks += tasks
            .iter()
            .filter(|(script, _)| script.steps.len() >= 3)
            .count() as u64;
        let known = overdeleted.unwrap_or(&self.db);
        let mut out = TaskOutput::new(known, traced, std::mem::take(&mut self.spares));
        let (mut slots, mut ends) = (slots.as_slice(), ends.as_slice());
        for (script, rule) in &tasks {
            let (task_slots, rest) = slots.split_at(script.steps.len());
            slots = rest;
            let (task_ends, rest) = ends.split_at(script.steps.len());
            ends = rest;
            let task = Task {
                script,
                rule: *rule,
                plan: &self.plans[*rule],
                slots: task_slots,
                ends: task_ends,
            };
            kernels::run(task, &self.store, &self.db, delta_db, &mut out);
        }
        self.stats.probes += out.probes;
        self.stats.matches += out.matches;
        self.stats.batch_probe_rows += out.batch_rows;
        self.stats.dict_filtered_probes += out.dict_filtered;
        self.stats.simd_hash_blocks += out.simd_blocks;
        out.seen
    }
}

/// Whether every relation of `delta` is the newest rows of its relation in
/// `db`, or one `db` does not hold at all: [`EvalContext::delta_round`]'s
/// contract.
fn is_newest(db: &Database, delta: &Database) -> bool {
    delta.predicates().all(|pred| {
        delta.relations_of(pred).iter().all(|d| {
            let Some(rel) = db.relation_of(pred, d.arity()) else {
                return true;
            };
            let old = rel.len().checked_sub(d.len());
            old.is_some_and(|old| {
                d.rows()
                    .all(|row| rel.find(row).is_some_and(|id| id as usize >= old))
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn context_fixpoint_matches_naive() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut cx = EvalContext::new(&p, edb.clone());
        cx.saturate(&[0, 1]);
        assert_eq!(cx.into_database(), crate::naive::evaluate(&p, &edb));
    }

    #[test]
    fn saturate_until_stops_the_round_the_goal_is_committed() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,5). a(5,6).").unwrap();
        let fresh = || EvalContext::new(&p, edb.clone());

        let mut cx = fresh();
        assert!(cx.saturate_until(&[0, 1], &datalog_ast::fact("a", [1, 2])));
        assert_eq!(cx.stats().iterations, 0, "already there: no round at all");

        let mut cx = fresh();
        assert!(cx.saturate_until(&[0, 1], &datalog_ast::fact("g", [1, 3])));
        assert_eq!(cx.stats().iterations, 2, "g(1, 3) takes two rounds");
        assert!(!cx.database().contains(&datalog_ast::fact("g", [1, 6])));

        let mut cx = fresh();
        assert!(!cx.saturate_until(&[0, 1], &datalog_ast::fact("g", [6, 1])));
        assert_eq!(cx.into_database(), crate::naive::evaluate(&p, &edb));
    }

    /// Which steps are existential is liveness, read off the compiled order:
    /// never the enumerated step, and never a step whose binding the head or
    /// a later key — a negated literal's included — reads.
    #[test]
    fn existential_steps_follow_liveness() {
        let marks = |rule: &str, order: &[usize]| -> Vec<bool> {
            let plan = RulePlan::compile(&datalog_ast::parse_rule(rule).unwrap());
            let script = compile_script(&plan, order, None, &mut Vec::new());
            script.steps.iter().map(|s| s.exists).collect()
        };
        // Stage 1, mid-pipeline and last; `t` binds the Y that `e` keys on.
        assert_eq!(
            marks(
                "h(X, Z) :- s(X), e(X, W), t(X, Y), e(Y, V), u(Y, Z).",
                &[0, 1, 2, 3, 4]
            ),
            [false, true, false, true, false]
        );
        assert_eq!(
            marks("h(X) :- s(X), t(X, Y), e(Y, W).", &[0, 1, 2]),
            [false, false, true]
        );
        // The same literal enumerated is not existential, whatever it binds.
        assert_eq!(marks("h(X) :- s(X), e(X, W).", &[1, 0]), [false, true]);
        // A repeated variable is checked inside the step and read nowhere else.
        assert_eq!(marks("h(X) :- s(X), r(X, W, W).", &[0, 1]), [false, true]);
        // Read by the head, by a later probe key, by a negated literal's key.
        assert_eq!(marks("h(X, W) :- s(X), e(X, W).", &[0, 1]), [false, false]);
        assert_eq!(
            marks("h(X) :- s(X), e(X, W), f(W, V).", &[0, 1, 2]),
            [false, false, true]
        );
        assert_eq!(
            marks("h(X) :- s(X), e(X, W), !bad(W).", &[0, 1, 2]),
            [false, false, false]
        );
        // A negated literal that reads something else changes nothing, and a
        // leading ground gate does not make the literal behind it stage 1.
        assert_eq!(
            marks("h(X) :- s(X), e(X, W), !bad(X).", &[0, 1, 2]),
            [false, true, false]
        );
        assert_eq!(
            marks("h(X) :- !bad(1), e(X, W), s(X).", &[0, 1, 2]),
            [false, false, true]
        );
    }

    /// A delta position is a literal whose relation — predicate *and*
    /// arity — has delta rows: `p/3` rows in the delta schedule no task for
    /// the `p/2` literal.
    #[test]
    fn delta_tasks_key_on_predicate_and_arity() {
        let p = parse_program("h(X) :- p(X, Y). k(X) :- p(X, Y, Z). p(X, Y, Z) :- q(X, Y, Z).")
            .unwrap();
        let edb = parse_database("p(1, 2). q(3, 4, 5). q(6, 7, 8).").unwrap();
        let mut cx = EvalContext::new(&p, edb.clone());
        cx.saturate(&[0, 1, 2]);
        // Round 1: `h` and `p/3` (`k` reads a `p/3` with no rows yet).
        // Round 2: the delta holds `h` and `p/3` rows, so only `k` runs.
        assert_eq!(cx.stats().specialized_tasks, 3);
        assert_eq!(cx.into_database(), crate::naive::evaluate(&p, &edb));
    }

    #[test]
    fn indexes_are_built_once_and_appended_after() {
        let p = tc();
        let mut facts = String::new();
        for i in 0..40 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let mut cx = EvalContext::new(&p, edb);
        cx.saturate(&[0, 1]);
        let stats = cx.stats();
        // Long chain ⇒ many rounds; incremental indexes ⇒ builds stay a
        // small per-pattern constant while appends do the maintenance.
        assert!(stats.iterations > 5, "chain forces many rounds");
        assert!(
            stats.index_builds <= 6,
            "per-pattern, not per-round: {} builds over {} rounds",
            stats.index_builds,
            stats.iterations
        );
        assert!(stats.index_appends > stats.index_builds);
    }

    /// The kernel's fixpoint is the naive reference's, each new atom is
    /// derived and allocated once, and no match is found twice: there are
    /// no more of them than one naive pass over the fixpoint enumerates.
    fn check_against_naive(cx: &EvalContext, p: &Program, edb: &Database) {
        let want = crate::naive::evaluate(p, edb);
        let s = cx.stats();
        assert_eq!(*cx.database(), want);
        assert_eq!(s.derivations, (want.len() - edb.len()) as u64);
        assert_eq!(s.tuples_allocated, want.len() as u64);
        assert!(s.matches <= crate::naive::evaluate_with_stats(p, &want).1.matches);
    }

    #[test]
    fn symmetric_chain_matches_naive() {
        let p = tc();
        let mut facts = String::new();
        for i in 0..24 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", i + 1, i));
        }
        let edb = parse_database(&facts).unwrap();
        let mut kernel = EvalContext::new(&p, edb.clone());
        kernel.saturate(&[0, 1]);
        check_against_naive(&kernel, &p, &edb);
    }

    /// No key width is an exception: this join projects a 9-column key and
    /// runs as one kernel task, with the naive reference's fixpoint.
    #[test]
    fn nine_column_keys_run_on_the_kernel() {
        let p =
            parse_program("j(X) :- p(A, B, C, D, E, F, G, H, I, X), q(A, B, C, D, E, F, G, H, I).")
                .unwrap();
        let mut facts = String::new();
        for i in 0..12 {
            facts.push_str(&format!(
                "p({0}, {1}, {2}, {0}, {1}, {2}, {0}, {1}, {2}, {3}).",
                i,
                i + 1,
                i + 2,
                i * 10
            ));
            if i % 2 == 0 {
                facts.push_str(&format!(
                    "q({0}, {1}, {2}, {0}, {1}, {2}, {0}, {1}, {2}).",
                    i,
                    i + 1,
                    i + 2
                ));
            }
        }
        let edb = parse_database(&facts).unwrap();
        let mut cx = EvalContext::new(&p, edb.clone());
        cx.saturate(&[0]);
        assert_eq!(
            cx.stats().specialized_tasks,
            1,
            "the 9-wide key is no exception"
        );
        check_against_naive(&cx, &p, &edb);
        for i in [0i64, 2, 4, 6, 8, 10] {
            assert!(cx.database().contains(&datalog_ast::fact("j", [i * 10])));
        }
    }

    #[test]
    fn add_fact_keeps_indexes_live() {
        let p = tc();
        let edb = parse_database("a(1,2).").unwrap();
        let mut cx = EvalContext::new(&p, edb);
        cx.saturate(&[0, 1]);
        let builds_before = cx.stats().index_builds;
        assert!(cx.add_fact(Pred::new("a"), &[Const::Int(2), Const::Int(3)]));
        let mut delta = Database::new();
        delta.insert(datalog_ast::fact("a", [2, 3]));
        while !delta.is_empty() {
            delta = cx.delta_round(&[0, 1], &delta);
        }
        assert_eq!(
            cx.stats().index_builds,
            builds_before,
            "insertions append, never rebuild"
        );
        assert!(cx.database().contains(&datalog_ast::fact("g", [1, 3])));
    }

    /// Contexts over shared plans share compiled scripts, never orders: each
    /// orders the body by its own relation sizes, and the plan keeps a
    /// script per order.
    #[test]
    fn contexts_sharing_plans_run_their_own_orders() {
        let p = parse_program("h(X) :- p(X), q(X).").unwrap();
        let plans: Arc<Vec<RulePlan>> = Arc::new(p.rules.iter().map(RulePlan::compile).collect());
        let few_p = parse_database("p(1). q(1). q(2). q(3). q(4). q(5).").unwrap();
        let few_q = parse_database("q(1). p(1). p(2). p(3). p(4). p(5).").unwrap();
        for db in [&few_p, &few_q, &few_p, &few_q] {
            let mut shared = EvalContext::with_plans(Arc::clone(&plans), db.clone());
            shared.saturate(&[0]);
            let mut own = EvalContext::new(&p, db.clone());
            own.saturate(&[0]);
            assert_eq!(shared.stats(), own.stats());
            // The one-row relation leads: a probe to enumerate it, and one
            // into the other for its row.
            assert_eq!(shared.stats().probes, 2);
            assert_eq!(*shared.database(), *own.database());
        }
    }

    /// Two keys under one hash: the second key's chain takes the next slot
    /// of the probe sequence, appends and lookups walk to it past the
    /// first key's chain, and every row a lookup hands out carries its key.
    #[test]
    fn one_hash_two_keys_walk_to_their_own_chains() {
        let db = parse_database("r(1, 10). r(2, 20). r(1, 11). r(2, 21). r(1, 12).").unwrap();
        let rel = db.relation_of(Pred::new("r"), 2).unwrap();
        let mut index = Index {
            pred: Pred::new("r"),
            arity: 2,
            positions: Box::new([0]),
            heads: RowHashMap::default(),
            next: Vec::new(),
        };
        let h = 42;
        for id in 0..rel.len() as u32 {
            index.link(rel, id, h);
        }
        assert_eq!(index.heads.len(), 2, "one chain per key");
        assert_eq!(index.heads[&h], (0, 4), "key 1 took the hash's slot");
        assert_eq!(index.heads[&h.wrapping_add(PROBE_STEP)], (1, 3));
        let code = |v: i64| rel.lookup_code(0, Const::Int(v)).unwrap();
        let lookup = |key: u32, end: u32| -> (Vec<u32>, usize) {
            let asked = std::cell::Cell::new(0);
            let carries = |id| {
                asked.set(asked.get() + 1);
                rel.code_at(0, id) == key
            };
            let ids = Postings(Some(&index)).get(h, end, carries).collect();
            (ids, asked.get())
        };
        assert_eq!(lookup(code(1), NONE), (vec![0, 2, 4], 1));
        // One compare per chain passed, and the bound still ends the walk.
        assert_eq!(lookup(code(2), NONE), (vec![1, 3], 2));
        assert_eq!(lookup(code(2), 3), (vec![1], 2));
        // A key no row carries passes both chains and stops at the empty slot.
        assert_eq!(lookup(u32::MAX, NONE), (vec![], 2));
        assert_eq!(Postings::default().get(h, NONE, |_| true).count(), 0);
    }

    /// Force a collision on every key of every index of `store` that holds
    /// two keys or more: each chain moves one step along its key's probe
    /// sequence, and the slot it leaves holds the chain of another key (the
    /// next in first-row order). Every lookup of a key the index holds, and
    /// every later append of one, passes another key's chain before it
    /// reaches its own. Returns how many indexes it rewired.
    fn collide(store: &mut IndexStore) -> usize {
        let mut rewired = 0;
        for index in &mut store.indexes {
            if index.heads.len() < 2 {
                continue;
            }
            let mut chains: Vec<(u64, (u32, u32))> = index.heads.drain().collect();
            chains.sort_unstable_by_key(|&(_, (first, _))| first);
            for &(h, chain) in &chains {
                index.heads.insert(h.wrapping_add(PROBE_STEP), chain);
            }
            for (i, &(h, _)) in chains.iter().enumerate() {
                let parked = chains[(i + 1) % chains.len()].1;
                let moved = index.heads.insert(h, parked);
                assert!(moved.is_none(), "no hash sits one step past another");
            }
            rewired += 1;
        }
        rewired
    }

    /// The walk past another key's chain is the only thing that keeps keys
    /// apart: with every chain displaced by a forced collision, appends to
    /// existing keys, delta probes and a full round's constant-key stage 0
    /// derive the same heads, with the same counters and the same
    /// justifications, as over undisturbed indexes — the fixpoint the naive
    /// reference computes from the grown input — and an existential
    /// literal's first candidate, which the justifications name, is still
    /// the first row inserted with its key.
    #[test]
    fn forced_collisions_change_no_result() {
        let p = parse_program(
            "j(X, Z) :- e(X, Y), f(Y, Z). k(X) :- e(X, Y), f(Y, W). c(Z) :- f(2, Z).",
        )
        .unwrap();
        let mut facts = String::from("e(0, 0).");
        for i in 0..60 {
            facts.push_str(&format!("f({}, {i}).", i % 4));
        }
        let edb = parse_database(&facts).unwrap();
        let e = |x: i64| [Const::Int(x), Const::Int(x % 5)];
        let f = |x: i64| [Const::Int(x % 4), Const::Int(100 + x)];
        let mut grown = edb.clone();
        let run = |collide_keys: bool| {
            let mut cx = EvalContext::new(&p, edb.clone()).traced();
            cx.saturate(&[0, 1]);
            let before = cx.stats();
            if collide_keys {
                assert!(collide(Arc::make_mut(&mut cx.store)) > 0);
            }
            let mut delta = Database::new();
            for x in 1..8 {
                cx.add_fact(Pred::new("e"), &e(x));
                delta.insert_row(Pred::new("e"), &e(x));
                cx.add_fact(Pred::new("f"), &f(x));
                delta.insert_row(Pred::new("f"), &f(x));
            }
            let mut derived = cx.delta_round(&[0, 1], &delta);
            derived.extend(cx.full_round(&[2]).iter());
            let why: Vec<_> = (1..8)
                .map(|x| cx.justification(&datalog_ast::fact("k", [x])).cloned())
                .collect();
            let db = cx.database().clone();
            (derived, cx.stats() - before, why, db)
        };
        let kernel = run(false);
        assert_eq!(run(true), kernel);
        for x in 1..8 {
            grown.insert_row(Pred::new("e"), &e(x));
            grown.insert_row(Pred::new("f"), &f(x));
        }
        assert_eq!(kernel.3, crate::naive::evaluate(&p, &grown));
        // `c` reads only the 15 + 2 rows of `f(2, _)`.
        assert_eq!(kernel.0.relation_len(Pred::new("c")), 17);
        for (x, why) in (1..8).zip(&kernel.2) {
            let y = x % 5;
            let expected = (y < 4).then(|| Justification::Rule {
                rule_idx: 1,
                premises: vec![
                    datalog_ast::fact("e", [x, y]),
                    datalog_ast::fact("f", [y, y]),
                ],
            });
            assert_eq!(why.as_ref(), expected.as_ref(), "k({x})");
        }
    }

    #[test]
    fn remove_atoms_invalidates_and_refills() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut cx = EvalContext::new(&p, edb);
        cx.saturate(&[0, 1]);
        let mut gone = Database::new();
        gone.insert(datalog_ast::fact("g", [1, 3]));
        gone.insert(datalog_ast::fact("g", [2, 3]));
        cx.remove_atoms(&gone);
        assert!(!cx.database().contains(&datalog_ast::fact("g", [1, 3])));
        // `g(2, 3)` comes back through `add_fact`, so it is the newest `g`
        // row, as a delta must be; the next round rebuilds lazily and still
        // computes correctly.
        assert!(cx.add_fact(Pred::new("g"), &[Const::Int(2), Const::Int(3)]));
        let mut delta = Database::new();
        delta.insert(datalog_ast::fact("g", [2, 3]));
        while !delta.is_empty() {
            delta = cx.delta_round(&[0, 1], &delta);
        }
        assert!(cx.database().contains(&datalog_ast::fact("g", [1, 3])));
    }

    /// The fixpoint of `src` over a chain of `n` edges `a(i, i + 1)`, which
    /// must pass [`check_against_naive`]; returns its counters.
    fn chain_work(src: &str, n: i64) -> Stats {
        let p = parse_program(src).unwrap();
        let facts: String = (0..n).map(|i| format!("a({i}, {}).", i + 1)).collect();
        let edb = parse_database(&facts).unwrap();
        let rules: Vec<usize> = (0..p.rules.len()).collect();
        let mut cx = EvalContext::new(&p, edb.clone());
        cx.saturate(&rules);
        check_against_naive(&cx, &p, &edb);
        cx.stats()
    }

    /// Semi-naive evaluation finds every body match once: a literal ahead of
    /// the delta literal reads only old rows, so a match is found by the
    /// task at its first new row alone. Doubling transitive closure over a
    /// chain of n edges matches the n edges, then each of the C(n + 1, 3)
    /// node triples `x < y < z` once; left-linear closure matches each of
    /// its C(n + 1, 2) pairs once.
    #[test]
    fn every_body_match_is_found_once() {
        let doubling = "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).";
        assert_eq!(chain_work(doubling, 20).matches, 20 + 1_330);
        let left = "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), a(Y, Z).";
        assert_eq!(chain_work(left, 20).matches, 210);
    }

    /// A literal that repeats an earlier one is folded into it: no step, no
    /// delta task, so the rule does the work of the rule without it.
    #[test]
    fn twin_literals_cost_nothing() {
        let folded = chain_work("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).", 20);
        let twin = chain_work(
            "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), g(Y, Z).",
            20,
        );
        let work = |s: &Stats| (s.probes, s.matches, s.derivations, s.iterations);
        assert_eq!(work(&twin), work(&folded));
        assert_eq!(twin.specialized_tasks, folded.specialized_tasks);
    }

    /// A twin keeps its premise: the justification lists one row per
    /// positive body literal as written, the twin repeating its first
    /// copy's, so the proof checks against the rule as written.
    #[test]
    fn a_twin_premise_repeats_its_first_copy() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), g(Y, Z).").unwrap();
        let edb = parse_database("a(1, 2). a(2, 3).").unwrap();
        let mut traced = crate::provenance::Traced::new(&p, edb.clone());
        let proof = traced.explain(&datalog_ast::fact("g", [1, 3])).unwrap();
        assert_eq!(proof.rule_idx, Some(1));
        let premises: Vec<_> = proof.premises.iter().map(|q| &q.conclusion).collect();
        let (g12, g23) = (
            datalog_ast::fact("g", [1, 2]),
            datalog_ast::fact("g", [2, 3]),
        );
        assert_eq!(premises, [&g12, &g23, &g23]);
        proof.check(&p, &edb).unwrap();
    }

    #[test]
    fn allocation_counters_track_arena_growth() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut cx = EvalContext::new(&p, edb);
        assert_eq!(cx.stats().tuples_allocated, 3, "seeded with the input");
        cx.saturate(&[0, 1]);
        let stats = cx.stats();
        let final_len = cx.database().len() as u64;
        assert_eq!(
            stats.tuples_allocated, final_len,
            "monotone run: exactly one arena copy per resident tuple"
        );
        assert_eq!(
            stats.arena_bytes,
            final_len * 2 * CONST_BYTES,
            "all relations here are binary"
        );
    }
}
