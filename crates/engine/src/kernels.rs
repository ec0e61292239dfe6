//! The join kernel.
//!
//! [`crate::EvalContext`] compiles each rule into a `JoinScript`; [`run`]
//! executes any script — every body length, key width and literal polarity
//! — as one batched pipeline over dictionary-code columns:
//!
//! * **Stage 0** enumerates the first positive literal: candidate row-ids
//!   come from its constant-key postings list (or the whole relation), are
//!   verified by an integer compare per bound column, and flow on in blocks
//!   of [`BLOCK`] rows.
//!   Ground negated literals the planner placed *before* it bind nothing
//!   and see nothing in flight, so they are one-shot gates on the task.
//! * A **probe** stage (positive literal) gathers its key from the
//!   in-flight rows, translated into the probed relation's code space,
//!   hashes the block's keys through [`hash_codes_batch`], probes the
//!   postings lists, verifies candidates code-by-code, and appends the
//!   matched row-id to each surviving row. When nothing reads what the
//!   literal binds (`Step::exists`, a liveness pass at compile time) the
//!   stage is **existential**: the first verified candidate passes the row
//!   on and the others are never visited.
//! * An **anti-probe** stage (negated literal) translates the literal's
//!   ground tuple the same way and rejects the row when the relation holds
//!   it. It needs no index and adds no id to the row.
//!
//! In-flight rows are flat `u32` row-id tuples, one id per positive stage
//! passed; intermediate *tuples* are never materialized, and only the last
//! stage reads the row arenas to build head tuples. A one-literal body is
//! the pipeline with no later stage, a bodiless rule emits its head once.
//!
//! Duplicate heads die in code space: within one task every head variable
//! is read from one fixed (relation, slot, position), so the tuple of its
//! *source* dictionary codes names the head exactly. The leaf test-and-sets
//! that tuple in a bitmap ([`HeadFilter`], indexed by mixed radix over the
//! source columns' `dict_len`) before it reads an arena; a repeat is
//! counted as a match and goes no further. Only a task's first sighting of
//! a head is built as a `Const` tuple — in one reused buffer — and handed
//! to [`TaskOutput::emit_head`], whose database check and round-level
//! `seen` arenas catch what the bitmap cannot: heads already in the
//! database, and the same head from another task. What `seen` keeps is a
//! row of the round's output, which a committing round hands on as its
//! delta; no head becomes a `GroundAtom`. A head space above
//! [`HEAD_BITS_MAX`] skips the bitmap and goes straight to `emit_head`.
//!
//! The row-at-a-time interpreter in [`crate::context`] is not a tier of
//! this kernel but its reference: `EvalOptions::interpreted()` runs every
//! script on it, and the differential tests and the oracle fuzzer require
//! identical fixpoints and identical `probes` / `matches` / `derivations`.
//! Both count one probe per literal visit (the enumeration, then one per
//! in-flight row per later stage), both stop an existential stage at its
//! first verified candidate, and both count every complete match — so
//! `matches` counts body matches up to the variables nobody reads, on
//! either executor. The reference sends every match through `emit_head`
//! and keeps no codes; the kernel's bitmap drops only heads `emit_head`
//! would have dropped, in the order it would have, so both queue the same
//! heads in the same order.
//!
//! Cross-dictionary translation: codes are local to one (relation, column)
//! dictionary, so an in-flight row's code is translated into the target
//! column's space through a lazily filled per-task cache indexed by source
//! code ([`KeyElem::From`]). Steady state is one array read per key
//! element; a value absent from the target dictionary is in no row, so a
//! probe dies (and an anti-probe passes) without touching one
//! (`dict_filtered`). A literal whose relation does not exist yet runs
//! against an empty one, which is the same case.
//!
//! Delta-batch reuse: within one evaluation round, every delta-restricted
//! task leads with the delta atom (see `run_round`'s seeded ordering), and
//! bloated programs compile many rules to the *same* stage-0 → stage-1
//! shape. The first such task enumerates, translates and batch-hashes the
//! delta side once and publishes the block into the round's
//! [`BatchCache`]; the others replay it (`batch_reuse_hits`), including
//! the gather-phase counter deltas, so all counters stay invariant to hit
//! order. Entries are keyed on the gather shape; the cache is a local of
//! the round, so it never outlives the delta it was gathered from.

use crate::context::{
    step_source, IndexStore, JoinScript, KeySrc, Postings, Step, Task, TaskOutput,
};
use crate::provenance::Justification;
use datalog_ast::{
    hash_codes_batch, hash_codes_fold, hash_codes_seed, Const, Database, GroundAtom, Pred, Relation,
};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Rows per in-flight block.
const BLOCK: usize = 1024;

const XLATE_UNKNOWN: u64 = u64::MAX;
const XLATE_ABSENT: u64 = u64::MAX - 1;

/// The largest head space, in bits, a task's [`HeadFilter`] covers (512
/// KiB of bitmap).
const HEAD_BITS_MAX: usize = 1 << 22;

/// The constant behind a key source that precedes every binding (stage-0
/// keys, leading negated literals, bodiless heads).
fn constant(src: &KeySrc) -> Const {
    match *src {
        KeySrc::Const(c) => c,
        KeySrc::Var(_) => unreachable!("no variable is bound before the first positive literal"),
    }
}

// ---------------------------------------------------------------------------
// Delta-batch reuse cache
// ---------------------------------------------------------------------------

/// One element of a cached gather's probe-key recipe, identifying *how* a
/// key column is produced (not its per-row values).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum GatherKeyElem {
    Const(Const),
    /// Translated from the outer (delta) tuple position.
    FromOuter(usize),
}

/// Structural identity of a delta-side gather: which delta relation is
/// enumerated (with which constant key and repeated-variable checks), and
/// which probed index the keys are translated for. Two tasks of a round
/// with equal keys gather bit-identical blocks, whatever rule they came
/// from.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    opred: Pred,
    oarity: usize,
    opositions: Box<[usize]>,
    okey: Vec<Const>,
    ochecks: Vec<(usize, usize)>,
    ipred: Pred,
    iarity: usize,
    ipositions: Box<[usize]>,
    ikey: Vec<GatherKeyElem>,
}

fn batch_key(s0: &Step, s1: &Step) -> BatchKey {
    BatchKey {
        opred: s0.pred,
        oarity: s0.arity,
        opositions: s0.positions.clone(),
        okey: s0.key.iter().map(constant).collect(),
        ochecks: s0.check_pairs(),
        ipred: s1.pred,
        iarity: s1.arity,
        ipositions: s1.positions.clone(),
        ikey: s1
            .key
            .iter()
            .map(|k| match *k {
                KeySrc::Const(c) => GatherKeyElem::Const(c),
                KeySrc::Var(v) => GatherKeyElem::FromOuter(
                    s0.bind_pos(v)
                        .expect("stage-1 key variable bound by the delta step"),
                ),
            })
            .collect(),
    }
}

/// A gathered, translated, batch-hashed delta side, plus the gather-phase
/// counter deltas it cost — replayed verbatim on every reuse so `probes`
/// and `dict_filtered` stay invariant to which task gathered first.
pub(crate) struct CachedGather {
    block: Block,
    probes: u64,
    dict_filtered: u64,
    simd_blocks: u64,
}

/// One round's gathered delta-side key blocks, shared by the round's tasks.
pub(crate) type BatchCache = HashMap<BatchKey, CachedGather>;

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// Where in-flight rows carry a bound variable: the id at `slot` names a
/// row of `rel`, the value sits at tuple position `pos`.
#[derive(Clone, Copy)]
struct Loc<'a> {
    rel: &'a Relation,
    slot: usize,
    pos: usize,
}

/// One element of a stage's key, in the stage relation's code space.
enum KeyElem<'a> {
    /// Constant, translated once per task; `None` when the column's
    /// dictionary has never seen it.
    Code(Option<u32>),
    /// Bound by an earlier stage: read the source code from `col` (the
    /// code column behind `at`) and translate it into column `ipos` of the
    /// stage relation through the stage's cache, indexed by source code.
    From {
        col: &'a [u32],
        at: Loc<'a>,
        ipos: usize,
    },
}

/// Where one head tuple position comes from.
enum HeadElem<'a> {
    Const(Const),
    At(Loc<'a>),
}

/// A task's head tuples as numbers below `space`. Each distinct head
/// variable is a digit: its source code column, the slot whose id reads
/// it, and its weight. A column's codes name its values one-to-one, so
/// equal numbers mean equal heads; constant positions add nothing.
struct HeadCodes<'a> {
    digits: Vec<(&'a [u32], usize, usize)>,
    space: usize,
}

impl<'a> HeadCodes<'a> {
    /// Number the heads read from `locs` (one per distinct variable) in
    /// mixed radix over their columns' `dict_len`; `None` when the product
    /// exceeds [`HEAD_BITS_MAX`].
    fn new(locs: &[Loc<'a>]) -> Option<HeadCodes<'a>> {
        let mut digits = Vec::with_capacity(locs.len());
        let mut space = 1usize;
        for at in locs {
            digits.push((at.rel.codes(at.pos), at.slot, space));
            space = space
                .checked_mul(at.rel.dict_len(at.pos))
                .filter(|&s| s <= HEAD_BITS_MAX)?;
        }
        Some(HeadCodes { digits, space })
    }

    /// The number of the head the match `row` + `id` derives: a digit
    /// whose slot `row` does not reach is the last stage's own, read off
    /// `id`.
    #[inline]
    fn of(&self, row: &[u32], id: Option<u32>) -> usize {
        self.digits
            .iter()
            .map(|&(col, slot, weight)| {
                let rid = row.get(slot).copied().or(id);
                let rid = rid.expect("a head value the last stage binds comes with its match");
                col[rid as usize] as usize * weight
            })
            .sum()
    }
}

/// The bitmap behind the kernel's per-task duplicate filter, one bit per
/// [`HeadCodes`] number. It lives in the round's [`TaskOutput`] so one
/// allocation serves every task of the round; a task clears only the words
/// the previous one set.
#[derive(Default)]
pub(crate) struct HeadFilter {
    bits: Vec<u64>,
    touched: Vec<u32>,
}

impl HeadFilter {
    /// Empty the filter for a task whose heads number below `space`.
    fn reset(&mut self, space: usize) {
        let words = space.div_ceil(64);
        if self.bits.len() < words {
            self.bits = vec![0; words];
        } else {
            for &w in &self.touched {
                self.bits[w as usize] = 0;
            }
        }
        self.touched.clear();
    }

    /// Set bit `i`; `false` when it was already set.
    #[inline]
    fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let word = &mut self.bits[w];
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.touched.push(w as u32);
        }
        *word |= bit;
        true
    }
}

/// The relation a literal reads, with what verifying a candidate row of
/// it takes: the code columns at the key positions and the literal's
/// repeated-variable checks.
struct Target<'a> {
    rel: &'a Relation,
    cols: Vec<&'a [u32]>,
    checks: Vec<(usize, usize)>,
}

impl<'a> Target<'a> {
    fn new(rel: &'a Relation, positions: &[usize], step: &Step) -> Target<'a> {
        Target {
            rel,
            cols: positions.iter().map(|&p| rel.codes(p)).collect(),
            checks: step.check_pairs(),
        }
    }

    /// Row `id` carries `key` (postings lists are keyed by hash, so
    /// collisions get here) and satisfies the checks.
    #[inline]
    fn accepts(&self, id: u32, key: &[u32]) -> bool {
        let i = id as usize;
        if !self.cols.iter().zip(key).all(|(col, &c)| col[i] == c) {
            return false;
        }
        self.checks.is_empty() || {
            let t = self.rel.row(id);
            self.checks.iter().all(|&(p, q)| t[p] == t[q])
        }
    }
}

/// One literal after the enumerated one: a probe (positive) or an
/// anti-probe (`negated`).
struct Stage<'a> {
    negated: bool,
    /// A probe whose match binds nothing read later (`Step::exists`): the
    /// first verified candidate passes the row on.
    exists: bool,
    target: Target<'a>,
    /// The index a probe reads (an anti-probe has none).
    postings: Postings<'a>,
    /// One element per key column: `step.positions` for a probe, every
    /// argument position for an anti-probe.
    keys: Vec<KeyElem<'a>>,
    /// Ids per in-flight row entering this stage.
    width: usize,
}

/// In-flight rows with their translated keys (row-major) and key hashes.
#[derive(Default)]
struct Block {
    rows: Vec<u32>,
    keys: Vec<u32>,
    hashes: Vec<u64>,
}

/// The buffers between stage `k` and stage `k + 1` (`scratch[k]`), kept so
/// blocks re-flow without reallocating. Stage `k + 1` reads `scratch[k]`
/// and writes `scratch[k + 1]`, so recursion only ever borrows the tail of
/// the slice.
#[derive(Default)]
struct Scratch {
    /// Rows that survived stage `k`, queued for stage `k + 1`.
    next: Vec<u32>,
    /// Stage `k + 1`'s translation caches, parallel to its `keys`.
    xlate: Vec<Vec<u64>>,
    /// `next` as gathered for a probe (an anti-probe borrows its `keys`).
    gathered: Block,
    /// Ground tuple of an anti-probe's membership check.
    tuple: Vec<Const>,
}

/// Stage-0 candidates: a postings list or the whole relation.
enum Cands<'a> {
    Ids(&'a [u32]),
    All(usize),
}

struct Pipeline<'a> {
    db: &'a Database,
    /// The task's rule and its literals with the relations they read — what
    /// a traced context decodes an in-flight row against.
    rule: usize,
    steps: &'a [Step],
    sources: &'a [(&'a IndexStore, Cow<'a, Relation>)],
    head_pred: Pred,
    head: Vec<HeadElem<'a>>,
    /// The head in code space, for the task's duplicate filter; `None`
    /// when the head space is too large for the bitmap.
    codes: Option<HeadCodes<'a>>,
    /// `(head position, tuple position)` of the head values the last
    /// stage's own match supplies, and that stage's relation.
    own: Vec<(usize, usize)>,
    last_rel: &'a Relation,
    /// Stage 0's relation and its constant key in that relation's codes.
    target0: Target<'a>,
    key0: Vec<u32>,
    /// `stages[k - 1]` is stage `k`.
    stages: Vec<Stage<'a>>,
}

/// Execute `script` for `task`, accumulating derived heads and counters
/// into `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    script: &JoinScript,
    task: Task,
    store: &IndexStore,
    delta_store: &IndexStore,
    db: &Database,
    delta_db: &Database,
    cache: &mut BatchCache,
    out: &mut TaskOutput,
) {
    // Negated literals ahead of the first positive one are ground: each is
    // checked once and either ends the task or drops out of the join.
    let lead = script.steps.iter().take_while(|s| s.negated).count();
    for gate in &script.steps[..lead] {
        out.probes += 1;
        let tuple: Vec<Const> = gate.key.iter().map(constant).collect();
        if db.contains_tuple(gate.pred, &tuple) {
            return;
        }
    }
    let steps = &script.steps[lead..];
    let Some(s0) = steps.first() else {
        out.head_buf.clear();
        out.head_buf.extend(script.head.iter().map(constant));
        if let Some(trace) = out.emit_head(script.head_pred, db) {
            let (rule_idx, premises) = (task.rule, Vec::new());
            trace.push(Justification::Rule { rule_idx, premises });
        }
        return;
    };

    // A relation nobody has inserted into yet is an empty one.
    let sources: Vec<(&IndexStore, Cow<'_, Relation>)> = steps
        .iter()
        .map(|step| {
            let (src, rel) = step_source(step, task, store, delta_store, db, delta_db);
            let rel = rel.map_or_else(|| Cow::Owned(Relation::new(step.arity)), Cow::Borrowed);
            (src, rel)
        })
        .collect();

    out.probes += 1;
    let (src0, rel0) = (sources[0].0, &*sources[0].1);
    let mut key0 = Vec::with_capacity(s0.positions.len());
    let mut hash0 = hash_codes_seed(s0.positions.len());
    for (&pos, k) in s0.positions.iter().zip(&s0.key) {
        let Some(code) = rel0.lookup_code(pos, constant(k)) else {
            out.dict_filtered += 1;
            return;
        };
        key0.push(code);
        hash0 = hash_codes_fold(hash0, code);
    }
    let cands = if s0.positions.is_empty() {
        Cands::All(rel0.len())
    } else {
        Cands::Ids(src0.postings(s0.pred, s0.arity, &s0.positions).get(hash0))
    };

    // Positive stages append one id to the in-flight row; `slots[j]` is
    // where stage `j`'s id sits (anti-probes bind nothing and add none).
    let mut slots = Vec::with_capacity(steps.len());
    let mut width = 0;
    for step in steps {
        slots.push(width);
        width += usize::from(!step.negated);
    }
    let locate = |v: usize, upto: usize| -> Loc<'_> {
        (0..upto)
            .find_map(|j| {
                steps[j].bind_pos(v).map(|pos| Loc {
                    rel: &sources[j].1,
                    slot: slots[j],
                    pos,
                })
            })
            .expect("variable bound by an earlier positive literal (safety)")
    };
    let mut scratch: Vec<Scratch> = (1..steps.len()).map(|_| Scratch::default()).collect();
    let mut stages = Vec::with_capacity(steps.len() - 1);
    for (k, step) in steps.iter().enumerate().skip(1) {
        let (src, rel) = (sources[k].0, &*sources[k].1);
        let (positions, postings): (Vec<usize>, _) = if step.negated {
            ((0..step.arity).collect(), Postings::default())
        } else {
            let postings = src.postings(step.pred, step.arity, &step.positions);
            (step.positions.to_vec(), postings)
        };
        let mut keys = Vec::with_capacity(positions.len());
        for (&ipos, k_src) in positions.iter().zip(&step.key) {
            let (elem, cache) = match *k_src {
                KeySrc::Const(c) => (KeyElem::Code(rel.lookup_code(ipos, c)), Vec::new()),
                KeySrc::Var(v) => {
                    let at = locate(v, k);
                    let col = at.rel.codes(at.pos);
                    let cache = vec![XLATE_UNKNOWN; at.rel.dict_len(at.pos)];
                    (KeyElem::From { col, at, ipos }, cache)
                }
            };
            keys.push(elem);
            scratch[k - 1].xlate.push(cache);
        }
        stages.push(Stage {
            negated: step.negated,
            exists: step.exists,
            target: Target::new(rel, &positions, step),
            postings,
            keys,
            width: slots[k],
        });
    }
    let last = steps.len() - 1;
    let mut own = Vec::new();
    let mut head = Vec::with_capacity(script.head.len());
    let (mut vars, mut digits) = (Vec::new(), Vec::new());
    for (h, src) in script.head.iter().enumerate() {
        head.push(match *src {
            KeySrc::Const(c) => HeadElem::Const(c),
            KeySrc::Var(v) => {
                let at = locate(v, steps.len());
                if at.slot == slots[last] {
                    own.push((h, at.pos));
                }
                if !vars.contains(&v) {
                    vars.push(v);
                    digits.push(at);
                }
                HeadElem::At(at)
            }
        });
    }
    let codes = HeadCodes::new(&digits);
    if let Some(codes) = &codes {
        out.heads.reset(codes.space);
    }
    let pipe = Pipeline {
        db,
        rule: task.rule,
        steps,
        sources: &sources,
        head_pred: script.head_pred,
        head,
        codes,
        own,
        last_rel: &sources[last].1,
        target0: Target::new(rel0, &s0.positions, s0),
        key0,
        stages,
    };

    // The one batch-reuse site: a delta-led task whose stage 1 is a probe
    // gathers a block other tasks of the round can replay.
    if task.delta_atom == Some(s0.atom) && steps.get(1).is_some_and(|s1| !s1.negated) {
        let (sc0, rest) = scratch.split_first_mut().expect("stage 1 exists");
        let hit = match cache.entry(batch_key(s0, &steps[1])) {
            Entry::Occupied(hit) => {
                let hit = hit.into_mut();
                out.batch_reuse += 1;
                out.probes += hit.probes;
                out.dict_filtered += hit.dict_filtered;
                out.simd_blocks += hit.simd_blocks;
                hit
            }
            Entry::Vacant(slot) => {
                // Enumerate, gather and hash the whole delta side as one
                // block, recording what the gather phase cost.
                let mark = (out.probes, out.dict_filtered, out.simd_blocks);
                pipe.enumerate(&cands, |oid| sc0.next.push(oid));
                pipe.gather(1, sc0, out);
                slot.insert(CachedGather {
                    block: std::mem::take(&mut sc0.gathered),
                    probes: out.probes - mark.0,
                    dict_filtered: out.dict_filtered - mark.1,
                    simd_blocks: out.simd_blocks - mark.2,
                })
            }
        };
        pipe.probe(1, &hit.block, rest, out);
        return;
    }
    pipe.enumerate(&cands, |oid| {
        pipe.push(0, &[], Some(oid), &mut scratch, out)
    });
    pipe.flush(0, &mut scratch, out);
}

impl Pipeline<'_> {
    /// Stage 0: visit the candidates that carry the constant key and
    /// satisfy the repeated-variable checks.
    fn enumerate(&self, cands: &Cands<'_>, mut visit: impl FnMut(u32)) {
        let mut offer = |id: u32| {
            if self.target0.accepts(id, &self.key0) {
                visit(id);
            }
        };
        match *cands {
            Cands::Ids(ids) => ids.iter().for_each(|&id| offer(id)),
            Cands::All(n) => (0..n as u32).for_each(offer),
        }
    }

    /// Fill `head_buf` with every head value `row` determines; the values
    /// the last stage's own match supplies (`own`) are placeholders.
    #[inline]
    fn head_of(&self, row: &[u32], out: &mut TaskOutput) {
        out.head_buf.clear();
        out.head_buf.extend(self.head.iter().map(|h| {
            match *h {
                HeadElem::Const(c) => c,
                HeadElem::At(at) => row
                    .get(at.slot)
                    .map_or(Const::Int(0), |&id| at.rel.row(id)[at.pos]),
            }
        }));
    }

    /// The leaf, once per complete match `row` + `id`. A head the task has
    /// already emitted is counted and dropped on its source codes alone.
    /// Otherwise the head tuple is built — the values `row` determines once
    /// per row (`built` says whether they are in `head_buf` already), the
    /// last match's own values per match — and goes through
    /// [`TaskOutput::emit_head`]; a traced context gets the justification of
    /// each head it queues, one per `seen` row.
    #[inline]
    fn emit(&self, row: &[u32], id: Option<u32>, built: &mut bool, out: &mut TaskOutput) {
        if let Some(codes) = &self.codes {
            if !out.heads.insert(codes.of(row, id)) {
                out.matches += 1;
                return;
            }
        }
        if !*built {
            self.head_of(row, out);
            *built = true;
        }
        if let Some(id) = id {
            let t = self.last_rel.row(id);
            for &(h, pos) in &self.own {
                out.head_buf[h] = t[pos];
            }
        }
        if let Some(trace) = out.emit_head(self.head_pred, self.db) {
            trace.push(self.why(row, id));
        }
    }

    /// The complete match `row` + `id` as a justification: the rows the
    /// positive literals matched, in body order. In-flight rows carry one id
    /// per positive stage, each naming a row of the relation that stage read
    /// (the delta for the delta literal); an existential stage's id is its
    /// one verified candidate.
    fn why(&self, row: &[u32], id: Option<u32>) -> Justification {
        let mut ids = row.iter().copied().chain(id);
        let literals = self.steps.iter().zip(self.sources);
        let mut premises: Vec<(usize, GroundAtom)> = literals
            .filter(|(step, _)| !step.negated)
            .map(|(step, (_, rel))| {
                let id = ids.next().expect("one id per positive stage");
                (step.atom, GroundAtom::new(step.pred, rel.row(id)))
            })
            .collect();
        premises.sort_by_key(|&(atom, _)| atom);
        let premises = premises.into_iter().map(|(_, p)| p).collect();
        let rule_idx = self.rule;
        Justification::Rule { rule_idx, premises }
    }

    /// A row survived stage `k` (`id`: the row-id a positive stage matched).
    /// The last stage emits its head tuple; any other queues it in
    /// `sc[0].next` for stage `k + 1` and runs that stage on a full block.
    #[inline]
    fn push(
        &self,
        k: usize,
        row: &[u32],
        id: Option<u32>,
        sc: &mut [Scratch],
        out: &mut TaskOutput,
    ) {
        if k == self.stages.len() {
            self.emit(row, id, &mut false, out);
            return;
        }
        let next = &mut sc[0].next;
        next.extend_from_slice(row);
        next.extend(id);
        if next.len() >= self.stages[k].width * BLOCK {
            self.flush(k, sc, out);
        }
    }

    /// Run stage `k + 1` over the rows queued behind stage `k`.
    fn flush(&self, k: usize, sc: &mut [Scratch], out: &mut TaskOutput) {
        let Some((cur, rest)) = sc.split_first_mut() else {
            return; // stage `k` is the last one: nothing queues
        };
        if cur.next.is_empty() {
            return;
        }
        if self.stages[k].negated {
            self.anti_probe(k + 1, cur, rest, out);
        } else {
            self.gather(k + 1, cur, out);
            self.probe(k + 1, &cur.gathered, rest, out);
        }
        cur.next.clear();
    }

    /// Translate `stage`'s key for one in-flight row, appending it to
    /// `keys`. `false` (nothing appended) when some value is absent from
    /// the stage relation's dictionary: no row of it carries the key.
    #[inline]
    fn key_of(stage: &Stage<'_>, row: &[u32], xlate: &mut [Vec<u64>], keys: &mut Vec<u32>) -> bool {
        let base = keys.len();
        for (e, cache) in stage.keys.iter().zip(xlate) {
            let code = match *e {
                KeyElem::Code(code) => code,
                KeyElem::From { col, at, ipos } => {
                    let ocode = col[row[at.slot] as usize];
                    let mut t = cache[ocode as usize];
                    if t == XLATE_UNKNOWN {
                        t = stage
                            .target
                            .rel
                            .lookup_code(ipos, at.rel.decode(at.pos, ocode))
                            .map_or(XLATE_ABSENT, u64::from);
                        cache[ocode as usize] = t;
                    }
                    (t != XLATE_ABSENT).then_some(t as u32)
                }
            };
            let Some(code) = code else {
                keys.truncate(base);
                return false;
            };
            keys.push(code);
        }
        true
    }

    /// Probe stage, first half: translate the keys of the queued rows and
    /// batch-hash them; `gathered` receives the rows that can still match.
    fn gather(&self, k: usize, cur: &mut Scratch, out: &mut TaskOutput) {
        let stage = &self.stages[k - 1];
        let block = &mut cur.gathered;
        block.rows.clear();
        block.keys.clear();
        block.hashes.clear();
        for row in cur.next.chunks_exact(stage.width) {
            out.probes += 1;
            if Self::key_of(stage, row, &mut cur.xlate, &mut block.keys) {
                block.rows.extend_from_slice(row);
            } else {
                out.dict_filtered += 1;
            }
        }
        let (n, w) = (block.rows.len() / stage.width, stage.keys.len());
        if w == 0 {
            block.hashes.resize(n, hash_codes_seed(0));
        } else if n > 0 {
            hash_codes_batch(&block.keys, w, &mut block.hashes);
            out.simd_blocks += 1;
        }
    }

    /// Probe stage, second half: look the gathered rows up in stage `k`'s
    /// index and verify the candidates code-by-code; each match extends
    /// its row.
    fn probe(&self, k: usize, block: &Block, sc: &mut [Scratch], out: &mut TaskOutput) {
        let stage = &self.stages[k - 1];
        let w = stage.keys.len();
        let last = k == self.stages.len();
        out.batch_rows += block.hashes.len() as u64;
        for (i, row) in block.rows.chunks_exact(stage.width).enumerate() {
            let ids = stage.postings.get(block.hashes[i]);
            if ids.is_empty() {
                continue;
            }
            let key = &block.keys[i * w..(i + 1) * w];
            let mut built = false;
            for &id in ids {
                if !stage.target.accepts(id, key) {
                    continue;
                }
                if last {
                    self.emit(row, Some(id), &mut built, out);
                } else {
                    self.push(k, row, Some(id), sc, out);
                }
                if stage.exists {
                    break;
                }
            }
        }
        self.flush(k, sc, out);
    }

    /// Anti-probe stage: a queued row passes unless stage `k`'s relation
    /// holds the literal's ground tuple.
    fn anti_probe(&self, k: usize, cur: &mut Scratch, sc: &mut [Scratch], out: &mut TaskOutput) {
        let stage = &self.stages[k - 1];
        let rel = stage.target.rel;
        let keys = &mut cur.gathered.keys;
        for row in cur.next.chunks_exact(stage.width) {
            out.probes += 1;
            keys.clear();
            if Self::key_of(stage, row, &mut cur.xlate, keys) {
                cur.tuple.clear();
                let codes = keys.iter().enumerate();
                cur.tuple
                    .extend(codes.map(|(pos, &code)| rel.decode(pos, code)));
                if rel.contains(&cur.tuple) {
                    continue;
                }
            }
            self.push(k, row, None, sc, out);
        }
        self.flush(k, sc, out);
    }
}

#[cfg(test)]
mod tests {
    use crate::{EvalContext, EvalOptions};
    use datalog_ast::{
        atom, fact, parse_database, parse_program, Const, Database, Literal, Pred, Rule, Term,
    };

    /// With `specialize` on, no script shape reaches the interpreter: over
    /// negation, nine-column keys (at stage 1 and at stage 2), 1- to
    /// 4-literal and bodiless rules, the kernel-task counter equals the
    /// number of tasks scheduled — and fixpoint and logical work equal the
    /// reference's. (More shapes: `tests/join_pipeline_differential.rs`.)
    #[test]
    fn every_script_shape_runs_on_the_kernel() {
        let mut p = parse_program(
            "g(X, Z) :- a(X, Z).\
             g(X, Z) :- g(X, Y), a(Y, Z).\
             t(X, W) :- g(X, Y), a(Y, Z), b(Z, W).\
             u(X, W) :- g(X, Y), a(Y, Z), b(Z, W), a(W, W).\
             w(A) :- p(A,B,C,D,E,F,G,H,I), q(A,B,C,D,E,F,G,H,I).\
             k(A) :- p(A,B,C,D,E,F,G,H,I), q(A,B,C,D,E,F,G,H,I), r(A,B,C,D,E,F,G,H,I).\
             n(X, Y) :- a(X, Y), !g(Y, X).\
             m(X) :- !g(99, 0), b(X, X).",
        )
        .unwrap();
        p.rules.push(Rule::fact(atom(
            "seed",
            vec![Term::Const(Const::Int(1)), Term::Const(Const::Int(2))],
        )));
        let mut facts = String::from("a(5, 5). b(6, 6).");
        for i in 0..10 {
            facts.push_str(&format!("a({i}, {}).", (i * 3 + 1) % 10));
            facts.push_str(&format!("b({i}, {}).", (i * 7 + 1) % 10));
        }
        for (i, preds) in ["pqr", "pq", "p", "qr"].iter().enumerate() {
            for pred in preds.chars() {
                facts.push_str(&format!("{pred}({i},2,3,4,5,6,7,8,9)."));
            }
        }
        let edb = parse_database(&facts).unwrap();

        // The stratified driver by hand, counting what it schedules: one
        // task per rule in a full round, one per (rule, positive body
        // literal over a non-empty delta predicate) in a delta round — less
        // the items that cannot fire, because some positive literal (other
        // than the delta one) reads a relation with no rows.
        let drive = |opts: EvalOptions| {
            let layers: [&[usize]; 2] = [&[0, 1, 2, 3, 4, 5, 8], &[6, 7]];
            let mut cx = EvalContext::new(&p, edb.clone(), opts);
            let mut tasks = 0;
            let can_fire = |db: &Database, r: usize, delta_pos: Option<usize>| {
                p.rules[r].body.iter().enumerate().all(|(i, l)| {
                    !l.is_positive() || Some(i) == delta_pos || db.relation_len(l.atom.pred) > 0
                })
            };
            for rules in layers {
                let db = cx.database();
                tasks += rules.iter().filter(|&&r| can_fire(db, r, None)).count();
                let mut delta = cx.full_round(rules);
                while !delta.is_empty() {
                    let db = cx.database();
                    for &r in rules {
                        let live = |&(i, l): &(usize, &Literal)| {
                            l.is_positive()
                                && delta.relation_len(l.atom.pred) > 0
                                && can_fire(db, r, Some(i))
                        };
                        tasks += p.rules[r].body.iter().enumerate().filter(live).count();
                    }
                    delta = cx.delta_round(rules, &delta);
                }
            }
            (cx, tasks as u64)
        };
        let (kernel, tasks) = drive(EvalOptions::sequential());
        let (reference, _) = drive(EvalOptions::interpreted());
        let (k, r) = (kernel.stats(), reference.stats());
        assert_eq!(k.specialized_tasks, tasks);
        assert_eq!(r.specialized_tasks, 0, "the reference stays pure");
        assert_eq!(
            (k.probes, k.matches, k.derivations),
            (r.probes, r.matches, r.derivations)
        );
        assert!(k.pipelined_tasks > 0 && k.batch_reuse_hits > 0);

        let out = kernel.into_database();
        assert_eq!(out, reference.into_database());
        assert!(out.contains(&fact("seed", [1, 2])), "bodiless head, once");
        assert_eq!(out.relation_len(Pred::new("w")), 2, "rows 0 and 1");
        assert_eq!(out.relation_len(Pred::new("k")), 1, "row 0");
        assert!(out.contains(&fact("m", [6])));
    }
}
