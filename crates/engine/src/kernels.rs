//! The join kernel.
//!
//! [`crate::EvalContext`] compiles each rule into a `JoinScript`; [`run`]
//! executes any script — every body length, key width and literal polarity
//! — as one batched pipeline over dictionary-code columns:
//!
//! * **Stage 0** enumerates the first positive literal: candidate row-ids
//!   come from its constant key's index chain — which holds that key
//!   alone, so only repeated-variable checks remain — or from the whole
//!   relation (for the delta literal, the whole delta), whose rows are
//!   verified by an integer compare per bound column; they flow on in
//!   blocks of [`BLOCK`] rows.
//!   Ground negated literals the planner placed *before* it bind nothing
//!   and see nothing in flight, so they are one-shot gates on the task.
//! * A **probe** stage (positive literal) gathers its key from the
//!   in-flight rows, translated into the probed relation's code space,
//!   hashes the block's keys through [`hash_codes`], looks each key's
//!   chain up — comparing the key with the first row of each chain on its
//!   probe sequence, one chain unless 64-bit hashes collide — checks each
//!   candidate's repeated variables, and appends the matched row-id to
//!   each surviving row; a literal ahead of the delta literal stops its
//!   chains at the delta's first row-id (`Task::ends`).
//!   When nothing reads what the literal binds (`Step::exists`, a liveness
//!   pass at compile time) the stage is **existential**: the first verified
//!   candidate passes the row on and the others are never visited.
//! * An **anti-probe** stage (negated literal) translates the literal's
//!   ground tuple the same way and rejects the row when the relation holds
//!   it. It needs no index and adds no id to the row.
//!
//! In-flight rows are flat `u32` row-id tuples, one id per positive stage
//! passed; intermediate *tuples* are never materialized, and only the last
//! stage reads the row arenas to build head tuples. A one-literal body is
//! the pipeline with no later stage, a bodiless rule emits its head once.
//!
//! What a task sets up: everything its script fixes — the leading gates,
//! each stage's key sources (a constant, or the slot and position where an
//! earlier stage bound the variable) and repeated-variable check pairs, the
//! head recipe and its code-space digits — is a
//! [`Recipe`], compiled once with the script and kept by its plan. [`run`]
//! only binds the recipe to the round: the relation each literal reads, the
//! code columns at each key position, each probe stage's index by the slot
//! the round resolved, and the translation caches, sized to the source
//! columns' dictionaries. It binds into the round's [`Frame`], whose
//! buffers and inter-stage queues every task of the round reuses, so a task
//! allocates only where a buffer has to grow.
//!
//! Duplicate heads die in code space: within one task every head variable
//! is read from one fixed (relation, slot, position), so the tuple of its
//! *source* dictionary codes names the head exactly. The leaf test-and-sets
//! that tuple in a bitmap ([`HeadFilter`], indexed by mixed radix over the
//! source columns' `dict_len`) before it reads an arena; a repeat is
//! counted as a match and goes no further. The number is split by who
//! fixes its digits ([`HeadCodes`]): the in-flight row's are summed once
//! per row, and the last stage's own cost one code read each per
//! candidate, so in the last probe stage a repeated head costs one chain
//! step, one code read per own digit and one bit. Only a task's first
//! sighting of a head is built as a `Const` tuple — in one reused buffer —
//! and handed to [`TaskOutput::emit_head`], whose check against the known
//! atoms and round-level `seen` arenas catch what the bitmap cannot: heads
//! already in the database (in a sweep round, already overdeleted), and the
//! same head from another task. What `seen` keeps is a row of the round's
//! output, which a committing round hands on as its delta; no head becomes
//! a `GroundAtom`. A head space above
//! [`HEAD_BITS_MAX`] skips the bitmap and goes straight to `emit_head`.
//!
//! The reference is [`crate::naive`], a nested loop over rows that shares
//! none of this. The tests and the oracle fuzzer require its fixpoint,
//! `derivations` equal to the atoms it adds to the input, and no more
//! `matches` than one naive pass over the fixpoint enumerates. The kernel
//! counts one probe per literal visit (the enumeration, then one per
//! in-flight row per later stage), stops an existential stage at its first
//! verified candidate and a literal ahead of the delta literal at the
//! delta's first row-id (`step_cands`, `Postings::get`), and counts every
//! complete match — so `matches` counts body matches up to the variables
//! nobody reads; tests pin these counters on fixed programs. The bitmap
//! drops only heads `emit_head` would have dropped, in the order it would
//! have, so it changes neither which heads a round queues nor their order.
//!
//! Cross-dictionary translation: codes are local to one (relation, column)
//! dictionary, so an in-flight row's code is translated into the target
//! column's space through a lazily filled per-task cache indexed by source
//! code ([`KeyElem::From`]). Steady state is one array read per key
//! element; a value absent from the target dictionary is in no row, so a
//! probe dies (and an anti-probe passes) without touching one
//! (`dict_filtered`). A negated literal whose relation does not exist yet
//! passes every row, which is the same case; a positive one never gets
//! here (the round does not schedule a task that cannot fire).
//!

use crate::context::{
    step_cands, step_relation, Cands, IndexStore, KeySrc, Postings, Step, Task, TaskOutput,
};
use crate::plan::RulePlan;
use crate::provenance::Justification;
use datalog_ast::{
    hash_codes, hash_codes_fold, hash_codes_seed, Const, Database, GroundAtom, Pred, Relation,
};
use std::ops::Range;

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
// What a script fixes about its tasks
// ---------------------------------------------------------------------------

/// Where in-flight rows carry a bound variable: the id at `slot` names a
/// row of the relation literal `lit` (counted from the enumerated one)
/// reads, and the value sits at tuple position `pos`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Site {
    lit: usize,
    slot: usize,
    pos: usize,
}

/// Where a stage key column or a head position comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Src {
    Const(Const),
    At(Site),
}

/// One literal after the enumerated one, as its script fixes it.
#[derive(Debug, PartialEq)]
struct StageRecipe {
    negated: bool,
    exists: bool,
    /// The key positions: `step.positions` for a probe, every argument
    /// position for an anti-probe.
    positions: Box<[usize]>,
    /// One per key position.
    keys: Box<[Src]>,
    /// Repeated-variable checks as `(position, position)` pairs.
    checks: Box<[(usize, usize)]>,
    /// Ids per in-flight row entering this stage.
    width: usize,
}

/// Everything about a task's pipeline that its script determines: what
/// [`run`] would otherwise work out for every task, compiled once with the
/// script. At run time a task only binds it to the relations and indexes
/// of the round.
#[derive(Debug, PartialEq)]
pub(crate) struct Recipe {
    /// Leading ground negated literals, each of which ends the task when
    /// the database holds its tuple.
    gates: Box<[(Pred, Box<[Const]>)]>,
    /// The enumerated literal's constant key and repeated-variable checks.
    key0: Box<[Const]>,
    checks0: Box<[(usize, usize)]>,
    /// `stages[k - 1]` is stage `k`.
    stages: Box<[StageRecipe]>,
    head: Box<[Src]>,
    /// `(head position, tuple position)` of the head values the last
    /// stage's own match supplies.
    own: Box<[(usize, usize)]>,
    /// One site per distinct head variable: the digits of [`HeadCodes`].
    digits: Box<[Site]>,
}

impl Recipe {
    /// The recipe of the script whose steps and head these are.
    pub(crate) fn new(steps: &[Step], head: &[KeySrc]) -> Recipe {
        // Negated literals ahead of the first positive one are ground: each
        // is checked once and either ends the task or drops out of the join.
        let lead = steps.iter().take_while(|s| s.negated).count();
        let gates = steps[..lead]
            .iter()
            .map(|g| (g.pred, g.key.iter().map(constant).collect()))
            .collect();
        let steps = &steps[lead..];
        let Some(s0) = steps.first() else {
            // No positive literal: the head is ground.
            return Recipe {
                gates,
                key0: Box::default(),
                checks0: Box::default(),
                stages: Box::default(),
                head: head.iter().map(|k| Src::Const(constant(k))).collect(),
                own: Box::default(),
                digits: Box::default(),
            };
        };
        // Positive stages append one id to the in-flight row; `slots[j]` is
        // where stage `j`'s id sits (anti-probes bind nothing and add none).
        let mut slots = Vec::with_capacity(steps.len());
        let mut width = 0;
        for step in steps {
            slots.push(width);
            width += usize::from(!step.negated);
        }
        let locate = |v: usize, upto: usize| -> Site {
            (0..upto)
                .find_map(|lit| {
                    let pos = steps[lit].bind_pos(v)?;
                    let slot = slots[lit];
                    Some(Site { lit, slot, pos })
                })
                .expect("variable bound by an earlier positive literal (safety)")
        };
        let src = |k: &KeySrc, upto: usize| match *k {
            KeySrc::Const(c) => Src::Const(c),
            KeySrc::Var(v) => Src::At(locate(v, upto)),
        };
        let stages = steps
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, step)| StageRecipe {
                negated: step.negated,
                exists: step.exists,
                positions: if step.negated {
                    (0..step.arity).collect()
                } else {
                    step.positions.clone()
                },
                keys: step.key.iter().map(|key| src(key, k)).collect(),
                checks: step.check_pairs().into(),
                width: slots[k],
            })
            .collect();
        let last = steps.len() - 1;
        let (mut own, mut vars, mut digits) = (Vec::new(), Vec::new(), Vec::new());
        for (h, key) in head.iter().enumerate() {
            if let KeySrc::Var(v) = *key {
                let at = locate(v, steps.len());
                if at.slot == slots[last] {
                    own.push((h, at.pos));
                }
                if !vars.contains(&v) {
                    vars.push(v);
                    digits.push(at);
                }
            }
        }
        Recipe {
            gates,
            key0: s0.key.iter().map(constant).collect(),
            checks0: s0.check_pairs().into(),
            stages,
            head: head.iter().map(|k| src(k, steps.len())).collect(),
            own: own.into(),
            digits: digits.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// A [`Site`] bound to the relation it reads.
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

/// A task's head tuples as numbers. Each distinct head variable is a
/// digit: its source code column, the slot whose id reads it, and its
/// weight. A column's codes name their values one-to-one, so equal numbers
/// mean equal heads; constant positions add nothing. The digits split by
/// who fixes them: `fixed` ones by the in-flight row, summed once per row;
/// `own` ones by the last stage's match, one code read each per candidate.
struct HeadCodes<'f, 'a> {
    fixed: &'f [(&'a [u32], usize, usize)],
    own: &'f [(&'a [u32], usize, usize)],
}

impl HeadCodes<'_, '_> {
    /// What the in-flight `row` adds to the number of every head it derives.
    #[inline]
    fn base(&self, row: &[u32]) -> usize {
        let digit = |&(col, slot, weight): &(&[u32], usize, usize)| {
            col[row[slot] as usize] as usize * weight
        };
        self.fixed.iter().map(digit).sum()
    }

    /// The number of the head the match `row` + `id` derives, where `base`
    /// is [`HeadCodes::base`] of `row`.
    #[inline]
    fn of(&self, base: usize, id: Option<u32>) -> usize {
        let Some(id) = id else {
            debug_assert!(self.own.is_empty(), "an anti-probe binds no head value");
            return base;
        };
        let digit = |&(col, _, weight): &(&[u32], usize, usize)| col[id as usize] as usize * weight;
        base + self.own.iter().map(digit).sum::<usize>()
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
struct Target<'f, 'a> {
    rel: &'a Relation,
    cols: &'f [&'a [u32]],
    checks: &'a [(usize, usize)],
}

impl Target<'_, '_> {
    /// Row `id` carries `key`. A chain's lookup asks this of one row per
    /// chain it passes; a scan asks it of every row.
    #[inline]
    fn carries(&self, id: u32, key: &[u32]) -> bool {
        let i = id as usize;
        self.cols.iter().zip(key).all(|(col, &c)| col[i] == c)
    }

    /// Row `id` satisfies the repeated-variable checks: all a chain's
    /// candidate still needs.
    #[inline]
    fn passes(&self, id: u32) -> bool {
        self.checks.is_empty() || {
            let t = self.rel.row(id);
            self.checks.iter().all(|&(p, q)| t[p] == t[q])
        }
    }
}

/// One literal after the enumerated one, bound to the round: a probe
/// (positive) or an anti-probe (`negated`).
struct Stage<'a> {
    negated: bool,
    /// A probe whose match binds nothing read later (`Step::exists`): the
    /// first verified candidate passes the row on.
    exists: bool,
    /// The relation the literal reads. Only a negated literal's can be
    /// missing, and then every row passes it.
    rel: Option<&'a Relation>,
    /// `cols[..]` of the frame: the code columns at a probe's key positions.
    cols: Range<usize>,
    checks: &'a [(usize, usize)],
    /// The index a probe reads (an anti-probe has none), and the row-id its
    /// candidates stop at (`Task::ends`).
    postings: Postings<'a>,
    end: u32,
    /// `keys[..]` of the frame: one element per key column.
    keys: Range<usize>,
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
/// the slice. Every queue is empty between tasks.
#[derive(Default)]
struct Scratch {
    /// Rows that survived stage `k`, queued for stage `k + 1`.
    next: Vec<u32>,
    /// Stage `k + 1`'s translation caches, parallel to its keys (a
    /// constant's entry is unused).
    xlate: Vec<Vec<u64>>,
    /// `next` as gathered for a probe (an anti-probe borrows its `keys`).
    gathered: Block,
    /// Ground tuple of an anti-probe's membership check.
    tuple: Vec<Const>,
}

/// What a task's pipeline is bound in: the relations its literals read and
/// its stages, key elements, code columns and head recipe bound to them,
/// plus the inter-stage queues. One frame serves every task of a round
/// (see [`TaskOutput`]): a task clears what the previous one bound and
/// reuses the allocations.
#[derive(Default)]
pub(crate) struct Frame<'a> {
    rels: Vec<Option<&'a Relation>>,
    stages: Vec<Stage<'a>>,
    keys: Vec<KeyElem<'a>>,
    cols: Vec<&'a [u32]>,
    key0: Vec<u32>,
    head: Vec<HeadElem<'a>>,
    /// The head's digits, `(code column, slot, weight)`: those the
    /// in-flight row fixes, then from `own_from` on the last stage's own.
    digits: Vec<(&'a [u32], usize, usize)>,
    own_from: usize,
    scratch: Vec<Scratch>,
}

struct Pipeline<'f, 'a> {
    /// The task's rule, its plan and its literals with the relations they
    /// read — what a traced context decodes an in-flight row against.
    rule: usize,
    plan: &'a RulePlan,
    steps: &'a [Step],
    rels: &'f [Option<&'a Relation>],
    head_pred: Pred,
    head: &'f [HeadElem<'a>],
    /// The head in code space, for the task's duplicate filter; `None`
    /// when the head space is too large for the bitmap.
    codes: Option<HeadCodes<'f, 'a>>,
    /// `(head position, tuple position)` of the head values the last
    /// stage's own match supplies, and that stage's relation.
    own: &'a [(usize, usize)],
    last_rel: Option<&'a Relation>,
    /// Stage 0's relation and its constant key in that relation's codes.
    target0: Target<'f, 'a>,
    key0: &'f [u32],
    /// `stages[k - 1]` is stage `k`.
    stages: &'f [Stage<'a>],
    keys: &'f [KeyElem<'a>],
    cols: &'f [&'a [u32]],
}

/// Execute `task` on the kernel, accumulating derived heads and counters
/// into `out`. The task's pipeline is its script's [`Recipe`] bound to the
/// round's relations and indexes, in the buffers of `out.frame`.
pub(crate) fn run<'a>(
    task: Task<'a>,
    store: &'a IndexStore,
    db: &'a Database,
    delta_db: &'a Database,
    out: &mut TaskOutput<'a>,
) {
    let script = task.script;
    let recipe = &script.kernel;
    for (pred, tuple) in recipe.gates.iter() {
        out.probes += 1;
        if db.contains_tuple(*pred, tuple) {
            return;
        }
    }
    let lead = recipe.gates.len();
    let (steps, slots, ends) = (
        &script.steps[lead..],
        &task.slots[lead..],
        &task.ends[lead..],
    );
    let Some(s0) = steps.first() else {
        out.head_buf.clear();
        out.head_buf.extend(recipe.head.iter().map(|h| match *h {
            Src::Const(c) => c,
            Src::At(_) => unreachable!("a rule without positive literals has a ground head"),
        }));
        if let Some(trace) = out.emit_head(script.head_pred) {
            let (rule_idx, premises) = (task.rule, Vec::new());
            trace.push(Justification::Rule { rule_idx, premises });
        }
        return;
    };

    out.probes += 1;
    let rel0 =
        step_relation(s0, db, delta_db).expect("a scheduled task's enumerated literal has rows");
    // The constant key in the enumerated relation's codes; a constant the
    // column has never seen matches no row, and the task ends before it
    // binds anything.
    let mut frame = std::mem::take(&mut out.frame);
    frame.key0.clear();
    let mut hash0 = hash_codes_seed(s0.positions.len());
    for (&pos, &c) in s0.positions.iter().zip(recipe.key0.iter()) {
        let Some(code) = rel0.lookup_code(pos, c) else {
            out.dict_filtered += 1;
            out.frame = frame;
            return;
        };
        frame.key0.push(code);
        hash0 = hash_codes_fold(hash0, code);
    }
    let cands = step_cands(s0, slots[0], ends[0], rel0, store, hash0, &frame.key0);
    let space = frame.bind(task, steps, store, db, delta_db);
    if let Some(space) = space {
        out.heads.reset(space);
    }

    let Frame {
        rels,
        stages,
        keys,
        cols,
        key0,
        head,
        digits,
        own_from,
        scratch,
    } = &mut frame;
    let n0 = s0.positions.len();
    let last = steps.len() - 1;
    let pipe = Pipeline {
        rule: task.rule,
        steps,
        plan: task.plan,
        rels: rels.as_slice(),
        head_pred: script.head_pred,
        head: head.as_slice(),
        codes: space.map(|_| {
            let (fixed, own) = digits.split_at(*own_from);
            HeadCodes { fixed, own }
        }),
        own: &recipe.own,
        last_rel: rels[last],
        target0: Target {
            rel: rel0,
            cols: &cols[..n0],
            checks: &recipe.checks0,
        },
        key0: key0.as_slice(),
        stages: stages.as_slice(),
        keys: keys.as_slice(),
        cols: cols.as_slice(),
    };
    let scratch = &mut scratch[..last];

    pipe.enumerate(cands, |oid| pipe.push(0, &[], Some(oid), scratch, out));
    pipe.flush(0, scratch, out);
    out.frame = frame;
}

impl<'a> Frame<'a> {
    /// Bind `task`'s recipe, whose literals from the enumerated one on are
    /// `steps`, to the relations and indexes of the round (`key0` is the
    /// caller's to fill). Returns the size
    /// of the task's head space, `None` when it exceeds [`HEAD_BITS_MAX`]
    /// and the task runs without the duplicate filter.
    fn bind(
        &mut self,
        task: Task<'a>,
        steps: &'a [Step],
        store: &'a IndexStore,
        db: &'a Database,
        delta_db: &'a Database,
    ) -> Option<usize> {
        let recipe = &task.script.kernel;
        let lead = recipe.gates.len();
        let (slots, ends) = (&task.slots[lead..], &task.ends[lead..]);
        self.rels.clear();
        self.stages.clear();
        self.keys.clear();
        self.cols.clear();
        self.head.clear();
        self.digits.clear();
        if self.scratch.len() < steps.len() {
            self.scratch.resize_with(steps.len(), Scratch::default);
        }
        self.rels
            .extend(steps.iter().map(|step| step_relation(step, db, delta_db)));
        let rels = &self.rels;
        let loc = |at: Site| Loc {
            rel: rels[at.lit].expect("a positive literal of a scheduled task has rows"),
            slot: at.slot,
            pos: at.pos,
        };
        let rel0 = rels[0].expect("a scheduled task's enumerated literal has rows");
        self.cols
            .extend(steps[0].positions.iter().map(|&p| rel0.codes(p)));
        for (k, sr) in recipe.stages.iter().enumerate().map(|(i, sr)| (i + 1, sr)) {
            let rel = rels[k];
            let cols =
                self.cols.len()..self.cols.len() + usize::from(!sr.negated) * sr.positions.len();
            if !sr.negated {
                let rel = rel.expect("a positive literal of a scheduled task has rows");
                self.cols.extend(sr.positions.iter().map(|&p| rel.codes(p)));
            }
            let keys = self.keys.len()..self.keys.len() + sr.keys.len();
            let xlate = &mut self.scratch[k - 1].xlate;
            if xlate.len() < sr.keys.len() {
                xlate.resize_with(sr.keys.len(), Vec::new);
            }
            for ((&ipos, key), cache) in sr.positions.iter().zip(sr.keys.iter()).zip(xlate) {
                self.keys.push(match *key {
                    Src::Const(c) => KeyElem::Code(rel.and_then(|rel| rel.lookup_code(ipos, c))),
                    Src::At(at) => {
                        let at = loc(at);
                        cache.clear();
                        cache.resize(at.rel.dict_len(at.pos), XLATE_UNKNOWN);
                        KeyElem::From {
                            col: at.rel.codes(at.pos),
                            at,
                            ipos,
                        }
                    }
                });
            }
            self.stages.push(Stage {
                negated: sr.negated,
                exists: sr.exists,
                rel,
                cols,
                checks: &sr.checks,
                postings: if sr.negated {
                    Postings::default()
                } else {
                    store.postings(slots[k])
                },
                end: ends[k],
                keys,
                width: sr.width,
            });
        }
        self.head.extend(recipe.head.iter().map(|h| match *h {
            Src::Const(c) => HeadElem::Const(c),
            Src::At(at) => HeadElem::At(loc(at)),
        }));
        // Number the heads in mixed radix over the digits' `dict_len`, if
        // the product stays within the bitmap's bound.
        let mut space = 1usize;
        for &at in recipe.digits.iter() {
            let at = loc(at);
            self.digits.push((at.rel.codes(at.pos), at.slot, space));
            space = space
                .checked_mul(at.rel.dict_len(at.pos))
                .filter(|&s| s <= HEAD_BITS_MAX)?;
        }
        // Split the digits: a digit the last stage's match supplies sits at
        // the slot its id takes, the width of the rows that stage reads, and
        // no digit of the in-flight row reaches that far.
        let own_slot = recipe.stages.last().map_or(0, |s| s.width);
        let own = |&(_, slot, _): &(&[u32], usize, usize)| slot == own_slot;
        self.digits.sort_unstable_by_key(own);
        self.own_from = self.digits.partition_point(|d| !own(d));
        Some(space)
    }
}

impl Pipeline<'_, '_> {
    /// Stage 0: visit the candidates that carry the constant key — all of
    /// a chain's do — and satisfy the repeated-variable checks.
    fn enumerate(&self, cands: Cands<'_>, visit: impl FnMut(u32)) {
        let t = &self.target0;
        match cands {
            Cands::Chain(chain) => chain.filter(|&id| t.passes(id)).for_each(visit),
            Cands::All(ids) => ids
                .filter(|&id| t.carries(id, self.key0) && t.passes(id))
                .for_each(visit),
        }
    }

    /// [`HeadCodes::base`] of `row`, when the task numbers its heads.
    #[inline]
    fn base(&self, row: &[u32]) -> usize {
        self.codes.as_ref().map_or(0, |codes| codes.base(row))
    }

    /// Fill `head_buf` with every head value `row` determines; the values
    /// the last stage's own match supplies (`own`) are placeholders.
    #[inline]
    fn head_of(&self, row: &[u32], out: &mut TaskOutput<'_>) {
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

    /// The leaf, once per complete match `row` + `id`, where `base` is
    /// [`Pipeline::base`] of `row`. A head the task has already emitted is
    /// counted and dropped on its source codes alone: one code read per
    /// digit the match supplies, and one bit. Otherwise the head tuple is
    /// built — the values `row` determines once per row (`built` says
    /// whether they are in `head_buf` already), the last match's own values
    /// per match — and goes through [`TaskOutput::emit_head`]; a traced
    /// context gets the justification of each head it queues, one per
    /// `seen` row.
    #[inline]
    fn emit(
        &self,
        row: &[u32],
        id: Option<u32>,
        base: usize,
        built: &mut bool,
        out: &mut TaskOutput<'_>,
    ) {
        if let Some(codes) = &self.codes {
            if !out.heads.insert(codes.of(base, id)) {
                out.matches += 1;
                return;
            }
        }
        self.queue(row, id, built, out);
    }

    /// [`Pipeline::emit`] past the duplicate filter: build the head tuple
    /// and hand it to [`TaskOutput::emit_head`]. Kept out of line, so the
    /// per-candidate loop holds only the filter.
    #[inline(never)]
    fn queue(&self, row: &[u32], id: Option<u32>, built: &mut bool, out: &mut TaskOutput<'_>) {
        if !*built {
            self.head_of(row, out);
            *built = true;
        }
        if let (Some(id), Some(rel)) = (id, self.last_rel) {
            let t = rel.row(id);
            for &(h, pos) in self.own {
                out.head_buf[h] = t[pos];
            }
        }
        if let Some(trace) = out.emit_head(self.head_pred) {
            trace.push(self.why(row, id));
        }
    }

    /// The complete match `row` + `id` as a justification: the rows the
    /// positive literals matched, in body order, a twin repeating its first
    /// copy's. In-flight rows carry one id per positive stage, each naming a
    /// row of the relation that stage read (the delta for the delta
    /// literal); an existential stage's id is its one verified candidate.
    fn why(&self, row: &[u32], id: Option<u32>) -> Justification {
        let mut ids = row.iter().copied().chain(id);
        let literals = self.steps.iter().zip(self.rels);
        let mut matched: Vec<(usize, Pred, &[Const])> = literals
            .filter(|(step, _)| !step.negated)
            .map(|(step, rel)| {
                let id = ids.next().expect("one id per positive stage");
                let rel = rel.expect("a positive literal of a scheduled task has rows");
                (step.atom, step.pred, rel.row(id))
            })
            .collect();
        matched.sort_unstable_by_key(|&(atom, _, _)| atom);
        let body = self.plan.body.iter().enumerate();
        let premises = body.filter(|(_, a)| !a.negated).map(|(i, _)| {
            let atom = self.plan.first_copy(i);
            let at = matched.binary_search_by_key(&atom, |&(a, _, _)| a);
            let (_, pred, row) = matched[at.expect("a premise's literal has a step")];
            GroundAtom::new(pred, row)
        });
        let rule_idx = self.rule;
        Justification::Rule {
            rule_idx,
            premises: premises.collect(),
        }
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
        out: &mut TaskOutput<'_>,
    ) {
        if k == self.stages.len() {
            self.emit(row, id, self.base(row), &mut false, out);
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
    fn flush(&self, k: usize, sc: &mut [Scratch], out: &mut TaskOutput<'_>) {
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
    fn key_of(
        &self,
        stage: &Stage<'_>,
        row: &[u32],
        xlate: &mut [Vec<u64>],
        keys: &mut Vec<u32>,
    ) -> bool {
        let base = keys.len();
        for (e, cache) in self.keys[stage.keys.clone()].iter().zip(xlate) {
            let code = match *e {
                KeyElem::Code(code) => code,
                KeyElem::From { col, at, ipos } => {
                    let ocode = col[row[at.slot] as usize];
                    let mut t = cache[ocode as usize];
                    if t == XLATE_UNKNOWN {
                        t = stage
                            .rel
                            .and_then(|rel| rel.lookup_code(ipos, at.rel.decode(at.pos, ocode)))
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
    /// hash them; `gathered` receives the rows that can still match.
    fn gather(&self, k: usize, cur: &mut Scratch, out: &mut TaskOutput<'_>) {
        let stage = &self.stages[k - 1];
        let block = &mut cur.gathered;
        block.rows.clear();
        block.keys.clear();
        block.hashes.clear();
        for row in cur.next.chunks_exact(stage.width) {
            out.probes += 1;
            if self.key_of(stage, row, &mut cur.xlate, &mut block.keys) {
                block.rows.extend_from_slice(row);
            } else {
                out.dict_filtered += 1;
            }
        }
        let (n, w) = (block.rows.len() / stage.width, stage.keys.len());
        if w == 0 {
            block.hashes.resize(n, hash_codes_seed(0));
        } else if n > 0 {
            block
                .hashes
                .extend(block.keys.chunks_exact(w).map(hash_codes));
            out.simd_blocks += 1;
        }
    }

    /// Probe stage, second half: look the gathered rows up in stage `k`'s
    /// index, whose chains hold one key each, so a candidate is checked
    /// only for repeated variables; each match extends its row. In the last
    /// stage the head digits the row fixes are summed once per row.
    fn probe(&self, k: usize, block: &Block, sc: &mut [Scratch], out: &mut TaskOutput<'_>) {
        let stage = &self.stages[k - 1];
        let target = Target {
            rel: stage
                .rel
                .expect("a positive literal of a scheduled task has rows"),
            cols: &self.cols[stage.cols.clone()],
            checks: stage.checks,
        };
        let w = stage.keys.len();
        let last = k == self.stages.len();
        out.batch_rows += block.hashes.len() as u64;
        for (i, row) in block.rows.chunks_exact(stage.width).enumerate() {
            let key = &block.keys[i * w..(i + 1) * w];
            let carries = |first| target.carries(first, key);
            let (mut built, base) = (false, if last { self.base(row) } else { 0 });
            for id in stage.postings.get(block.hashes[i], stage.end, carries) {
                if !target.passes(id) {
                    continue;
                }
                if last {
                    self.emit(row, Some(id), base, &mut built, out);
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
    fn anti_probe(
        &self,
        k: usize,
        cur: &mut Scratch,
        sc: &mut [Scratch],
        out: &mut TaskOutput<'_>,
    ) {
        let stage = &self.stages[k - 1];
        let keys = &mut cur.gathered.keys;
        for row in cur.next.chunks_exact(stage.width) {
            out.probes += 1;
            keys.clear();
            if let Some(rel) = stage.rel {
                if self.key_of(stage, row, &mut cur.xlate, keys) {
                    cur.tuple.clear();
                    let codes = keys.iter().enumerate();
                    cur.tuple
                        .extend(codes.map(|(pos, &code)| rel.decode(pos, code)));
                    if rel.contains(&cur.tuple) {
                        continue;
                    }
                }
            }
            self.push(k, row, None, sc, out);
        }
        self.flush(k, sc, out);
    }
}

#[cfg(test)]
mod tests {
    use crate::{naive, EvalContext};
    use datalog_ast::{
        atom, fact, parse_database, parse_program, Const, Database, Literal, Pred, Rule, Term,
    };

    /// Every script shape runs on the kernel: over negation, nine-column
    /// keys (at stage 1 and at stage 2), 1- to 4-literal and bodiless
    /// rules, the kernel-task counter equals the number of tasks scheduled
    /// — and the fixpoint is the naive reference's, each new atom derived
    /// once. (More shapes: `tests/join_pipeline_differential.rs`.)
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
        let layers: [&[usize]; 2] = [&[0, 1, 2, 3, 4, 5, 8], &[6, 7]];
        let mut cx = EvalContext::new(&p, edb.clone());
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
        let k = cx.stats();
        assert_eq!(k.specialized_tasks, tasks as u64);
        assert!(k.pipelined_tasks > 0);

        let out = cx.into_database();
        assert_eq!(out, naive::evaluate(&p, &edb));
        assert_eq!(k.derivations, (out.len() - edb.len()) as u64);
        assert!(out.contains(&fact("seed", [1, 2])), "bodiless head, once");
        assert_eq!(out.relation_len(Pred::new("w")), 2, "rows 0 and 1");
        assert_eq!(out.relation_len(Pred::new("k")), 1, "row 0");
        assert!(out.contains(&fact("m", [6])));
    }
}
