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
//!   owns an [`IndexStore`] of per-`(pred, arity, positions)` postings
//!   lists that live across fixpoint rounds: a map from the hash of the
//!   projected **dictionary codes** (see [`Relation::codes`]) to the `u32`
//!   row-ids carrying it in the database's arena. Building an index is a
//!   fold over `u32` code columns — it never touches the row arena — and
//!   appending a derived row is pushing one `u32` per live index
//!   ([`Stats::index_appends`]); an index is built at most once per pattern
//!   per context ([`Stats::index_builds`]). The invariant: **every
//!   mutation of the context database flows through the context**, so ids
//!   always resolve against the exact arena they were taken from
//!   (insertions are append-only and keep ids stable; deletions
//!   conservatively clear the store, which re-fills lazily).
//!
//! * **Compiled join scripts, one kernel, one reference.** Each `(rule,
//!   order)` pair compiles once per round into a [`JoinScript`] whose
//!   steps know statically which index to probe, how to build the probe
//!   key, and which tuple positions bind which variable slots. Every
//!   script — any body length, any key width, negation included — runs on
//!   the batched columnar pipeline in [`crate::kernels`]. The row-at-a-time
//!   interpreter in this module is never selected by script shape: it runs
//!   only under [`EvalOptions::interpreted`] /
//!   [`EvalOptions::with_specialize`]`(false)`, as the reference the
//!   differential tests, the oracle fuzzer and the benchmarks compare the
//!   kernel against. Both probe in code space: a probe key's constants are
//!   translated through the target column's dictionary first, so a
//!   constant that never appears in a column matches nothing without
//!   touching a single row ([`Stats::dict_filtered_probes`]), and
//!   candidate verification is a `u32` compare per bound column. Hash
//!   collisions are therefore admitted by the postings map but never
//!   produce a wrong answer.
//!
//! * **One thread, one output per round.** A round's `(rule ×
//!   delta-position)` tasks run one after another on the calling thread
//!   into a single `TaskOutput`, against the context's indexes and the
//!   borrowed delta; the round's delta-batch cache is a local of the round.
//!
//! * **A round's arenas are its delta.** The set-semantics dedup a round
//!   runs its heads through (`Seen`) holds each head new to the database
//!   once, so committing is inserting those rows into the database and
//!   handing the arenas on, as they are, as the next round's delta.
//!
//! * **Derivations on request.** A context made [`EvalContext::traced`]
//!   keeps the first justification of every atom it commits, decoded from
//!   the kernel's in-flight row-ids where a head is queued
//!   (`TaskOutput::emit_head`), so [`crate::provenance`] needs no evaluator
//!   of its own. Untraced, the cost is one branch per queued head.

use crate::kernels;
use crate::plan::{RulePlan, Slot};
use crate::provenance::Justification;
use crate::stats::Stats;
use datalog_ast::{
    hash_codes_fold, hash_codes_seed, Const, Database, GroundAtom, Pred, Program, Relation,
    RowHashMap,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Run every join script on the columnar kernel (default). `false`
    /// runs every script on the row-at-a-time interpreter instead — the
    /// differential reference the oracle fuzzer and the E20 benchmark
    /// compare the kernel against.
    pub specialize: bool,
}

impl EvalOptions {
    /// Evaluation on the join kernel.
    pub fn sequential() -> EvalOptions {
        EvalOptions { specialize: true }
    }

    /// Evaluation on the interpreter only. This is the reference side of
    /// the kernel differentials.
    pub fn interpreted() -> EvalOptions {
        EvalOptions { specialize: false }
    }

    /// Choose between the kernel (`true`) and the reference interpreter
    /// (`false`) on this option set.
    pub fn with_specialize(mut self, specialize: bool) -> EvalOptions {
        self.specialize = specialize;
        self
    }

    /// [`EvalOptions::sequential`]: evaluation has no worker threads.
    // Kept only for the repo benchmark (`benchmark/src/layers.rs`).
    #[doc(hidden)]
    pub fn with_threads(_: usize) -> EvalOptions {
        EvalOptions::sequential()
    }
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions::sequential()
    }
}

/// One hash index: hash of the projected dictionary codes on a fixed
/// position list → the row-ids whose projection carries that hash
/// (collisions possible; executors verify candidates code-by-code).
type Index = RowHashMap<Vec<u32>>;

/// The per-`(pred, arity)` index group: one [`Index`] per bound-position
/// pattern ever probed.
type IndexGroup = HashMap<Box<[usize]>, Index>;

/// Owned, incrementally-maintained row-id indexes over a database.
///
/// The store holds only `u32` ids into the database's arenas and survives
/// rounds: new rows are appended, never re-scanned. Ids are valid against
/// the exact database the store was ensured/absorbed from. Keys are hashes
/// of projected *dictionary codes*, so building and appending read only
/// `u32` columns.
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexStore {
    map: HashMap<(Pred, usize), IndexGroup>,
}

impl IndexStore {
    /// Build the `(pred, arity, positions)` index from `db` if it does not
    /// exist yet. Returns whether a build happened.
    fn ensure(&mut self, db: &Database, pred: Pred, arity: usize, positions: &[usize]) -> bool {
        let by_pos = self.map.entry((pred, arity)).or_default();
        if by_pos.contains_key(positions) {
            return false;
        }
        let mut index = Index::default();
        if let Some(rel) = db.relation_of(pred, arity) {
            // Columnar build: fold the projected code columns, never the
            // row arena.
            let cols: Vec<&[u32]> = positions.iter().map(|&p| rel.codes(p)).collect();
            let seed = hash_codes_seed(positions.len());
            for id in 0..rel.len() as u32 {
                let mut h = seed;
                for col in &cols {
                    h = hash_codes_fold(h, col[id as usize]);
                }
                index.entry(h).or_default().push(id);
            }
        }
        by_pos.insert(positions.into(), index);
        true
    }

    /// The `(pred, arity, positions)` index, resolved once so that each of
    /// a join step's probes is a single map lookup. The index must have
    /// been [`IndexStore::ensure`]d.
    pub(crate) fn postings(&self, pred: Pred, arity: usize, positions: &[usize]) -> Postings<'_> {
        let index = self.map.get(&(pred, arity)).and_then(|m| m.get(positions));
        debug_assert!(
            index.is_some(),
            "probe of an index that was never ensured: {pred:?}/{arity} {positions:?}"
        );
        Postings(index)
    }

    /// Append freshly inserted rows (given as `(pred, arity, row-id)`, ids
    /// valid in `db`) into every live index of their predicate. Callers
    /// guarantee the rows are new w.r.t. the indexed database (the
    /// semi-naive discipline), so this never introduces duplicates.
    /// Returns the number of (row, index) appends performed.
    fn absorb(&mut self, db: &Database, fresh: &[(Pred, usize, u32)]) -> u64 {
        let mut appends = 0;
        for &(pred, arity, id) in fresh {
            let Some(by_pos) = self.map.get_mut(&(pred, arity)) else {
                continue;
            };
            let rel = db
                .relation_of(pred, arity)
                .expect("freshly inserted row has a relation");
            for (positions, index) in by_pos.iter_mut() {
                let mut h = hash_codes_seed(positions.len());
                for &p in positions.iter() {
                    h = hash_codes_fold(h, rel.code_at(p, id));
                }
                index.entry(h).or_default().push(id);
                appends += 1;
            }
        }
        appends
    }

    /// Drop every index (after a non-monotone mutation, which invalidates
    /// row-ids); they re-fill lazily from the current database.
    fn clear(&mut self) {
        self.map.clear();
    }
}

/// One resolved index of an [`IndexStore`] (the default probes empty).
#[derive(Clone, Copy, Default)]
pub(crate) struct Postings<'a>(Option<&'a Index>);

impl<'a> Postings<'a> {
    /// Row-ids whose code projection on the index's positions hashes to
    /// `hash`.
    #[inline]
    pub(crate) fn get(self, hash: u64) -> &'a [u32] {
        self.0
            .and_then(|index| index.get(&hash))
            .map_or(&[], Vec::as_slice)
    }
}

/// Where a probe key component comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KeySrc {
    Const(Const),
    Var(usize),
}

impl KeySrc {
    #[inline]
    pub(crate) fn value(self, assignment: &[Option<Const>]) -> Const {
        match self {
            KeySrc::Const(c) => c,
            KeySrc::Var(v) => assignment[v].expect("variable bound by join order"),
        }
    }
}

/// One compiled join step: which index to probe, how to build the key,
/// and which tuple positions bind which variable slots.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    /// Body index of the atom (identifies the delta-restricted step).
    pub(crate) atom: usize,
    pub(crate) negated: bool,
    pub(crate) pred: Pred,
    /// The atom's arity (selects the arena relation to read rows from).
    pub(crate) arity: usize,
    /// Statically-bound argument positions (the index pattern).
    pub(crate) positions: Box<[usize]>,
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

/// A rule's body compiled for a fixed atom order, plus its head recipe.
#[derive(Clone, Debug)]
pub(crate) struct JoinScript {
    pub(crate) steps: Vec<Step>,
    pub(crate) head_pred: Pred,
    pub(crate) head: Vec<KeySrc>,
    pub(crate) num_vars: usize,
}

fn keysrc(slot: Slot) -> KeySrc {
    match slot {
        Slot::Const(c) => KeySrc::Const(c),
        Slot::Var(v) => KeySrc::Var(v),
    }
}

/// Compile `plan`'s body under `order` into a [`JoinScript`]. The binding
/// pattern at each depth is fully determined by the order, which is what
/// lets the executor run against pre-built, read-only indexes.
pub(crate) fn compile_script(plan: &RulePlan, order: &[usize]) -> JoinScript {
    let mut bound = vec![false; plan.num_vars()];
    let mut steps = Vec::with_capacity(order.len());
    for &atom_i in order {
        let atom = &plan.body[atom_i];
        if atom.negated {
            // Safety (validated upstream) guarantees all variables bound.
            steps.push(Step {
                atom: atom_i,
                negated: true,
                pred: atom.pred,
                arity: atom.slots.len(),
                positions: Box::default(),
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
            pred: atom.pred,
            arity: atom.slots.len(),
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
/// a delta task and the side the batch cache gathers, and both need every
/// one of its rows.
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

/// One schedulable unit: a script, optionally delta-restricted at one body
/// atom.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Task {
    pub(crate) script: usize,
    /// The script's rule, as an index into the context's plans.
    pub(crate) rule: usize,
    pub(crate) delta_atom: Option<usize>,
}

/// The index store and relation a step reads from: the per-round delta
/// pair when the task is delta-restricted at this step, the persistent
/// pair otherwise. Shared by the interpreter and the kernel so source
/// selection cannot diverge between them.
pub(crate) fn step_source<'a>(
    step: &Step,
    task: Task,
    store: &'a IndexStore,
    delta_store: &'a IndexStore,
    db: &'a Database,
    delta_db: &'a Database,
) -> (&'a IndexStore, Option<&'a Relation>) {
    if task.delta_atom == Some(step.atom) {
        (delta_store, delta_db.relation_of(step.pred, step.arity))
    } else {
        (store, db.relation_of(step.pred, step.arity))
    }
}

/// The heads a round queued, per head predicate and arity: the round's
/// set-semantics dedup arena — each head once, in the order it was first
/// queued, so a repeated head costs a hash probe, not a `Box` — and, in a
/// traced round, one justification per arena row, by row-id. A committing
/// round's arenas are its delta.
#[derive(Default)]
pub(crate) struct Seen {
    rows: HashMap<(Pred, usize), Relation>,
    why: Option<HashMap<(Pred, usize), Vec<Justification>>>,
}

impl Seen {
    fn new(traced: bool) -> Seen {
        Seen {
            rows: HashMap::new(),
            why: traced.then(HashMap::new),
        }
    }

    /// The queued heads as a database, their arenas moved in whole.
    fn into_database(self) -> Database {
        let mut db = Database::new();
        for ((pred, _), rows) in self.rows {
            db.insert_relation(pred, rows);
        }
        db
    }
}

/// What the tasks of a round produce: work counters and the heads they
/// queued.
pub(crate) struct TaskOutput {
    pub(crate) probes: u64,
    pub(crate) matches: u64,
    /// In-flight rows pushed through the kernel's probe stages.
    pub(crate) batch_rows: u64,
    /// Probe keys dropped because a constant was absent from the target
    /// column's dictionary — joins answered without touching any row.
    pub(crate) dict_filtered: u64,
    /// Key blocks hashed through the lane-unrolled batch path.
    pub(crate) simd_blocks: u64,
    /// Delta tasks whose gathered key blocks were replayed from the
    /// round's batch cache instead of re-gathered.
    pub(crate) batch_reuse: u64,
    /// Drop head tuples already present in the database before allocating
    /// them. Valid for committing rounds (the commit would discard them
    /// anyway); the DRed overdeletion sweep must keep them.
    pub(crate) filter_known: bool,
    /// The heads this output has queued.
    seen: Seen,
    /// The kernel's per-task duplicate filter in code space, reused by
    /// every task this output serves.
    pub(crate) heads: kernels::HeadFilter,
    /// Per-depth probe-key scratch of the interpreter (translated codes;
    /// no per-probe allocation).
    keys: Vec<Vec<u32>>,
    /// The interpreter's ground-tuple scratch for negated-atom membership
    /// checks.
    neg_buf: Vec<Const>,
    pub(crate) head_buf: Vec<Const>,
}

impl TaskOutput {
    fn new(filter_known: bool, traced: bool) -> TaskOutput {
        TaskOutput {
            probes: 0,
            matches: 0,
            batch_rows: 0,
            dict_filtered: 0,
            simd_blocks: 0,
            batch_reuse: 0,
            filter_known,
            seen: Seen::new(traced),
            heads: kernels::HeadFilter::default(),
            keys: Vec::new(),
            neg_buf: Vec::new(),
            head_buf: Vec::new(),
        }
    }

    /// Account one complete body match whose head tuple sits in
    /// `self.head_buf`, dedup it, and queue it if new. The interpreter leaf
    /// calls it on every match; the kernel's leaf on a task's first
    /// sighting of each head, counting the repeats itself.
    ///
    /// A head already in the database is dropped first (under
    /// `filter_known`), then one this round already queued, so `seen` holds
    /// each head new to the database once — a row of an arena, never a
    /// per-tuple `Box` — and a committing round hands `seen` on as its
    /// delta.
    ///
    /// Returns where a traced context wants the justification of the head
    /// just queued (its `seen` row's slot); `None` when nothing was queued
    /// or nothing is traced.
    pub(crate) fn emit_head(
        &mut self,
        head_pred: Pred,
        db: &Database,
    ) -> Option<&mut Vec<Justification>> {
        self.matches += 1;
        if self.filter_known && db.contains_tuple(head_pred, &self.head_buf) {
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

/// Run one task: on the kernel, or — only when the context was built with
/// `specialize == false` — on the reference interpreter. The choice never
/// depends on the script.
#[allow(clippy::too_many_arguments)]
fn run_task(
    script: &JoinScript,
    specialize: bool,
    task: Task,
    store: &IndexStore,
    delta_store: &IndexStore,
    db: &Database,
    delta_db: &Database,
    cache: &mut kernels::BatchCache,
    out: &mut TaskOutput,
) {
    if specialize {
        kernels::run(script, task, store, delta_store, db, delta_db, cache, out);
        return;
    }
    if out.keys.len() < script.steps.len() {
        out.keys.resize_with(script.steps.len(), Vec::new);
    }
    let mut assignment: Vec<Option<Const>> = vec![None; script.num_vars];
    exec(
        script,
        0,
        task,
        store,
        delta_store,
        db,
        delta_db,
        &mut assignment,
        out,
    );
}

/// The reference executor: row-at-a-time recursive descent over the
/// script's steps.
#[allow(clippy::too_many_arguments)]
fn exec(
    script: &JoinScript,
    depth: usize,
    task: Task,
    store: &IndexStore,
    delta_store: &IndexStore,
    db: &Database,
    delta_db: &Database,
    assignment: &mut Vec<Option<Const>>,
    out: &mut TaskOutput,
) {
    let Some(step) = script.steps.get(depth) else {
        out.head_buf.clear();
        for s in &script.head {
            out.head_buf.push(s.value(assignment));
        }
        let trace = out.emit_head(script.head_pred, db);
        debug_assert!(trace.is_none(), "a traced context runs the kernel");
        return;
    };

    if step.negated {
        out.probes += 1;
        let absent = {
            let key = &mut out.neg_buf;
            key.clear();
            key.extend(step.key.iter().map(|s| s.value(assignment)));
            !db.contains_tuple(step.pred, key)
        };
        if absent {
            exec(
                script,
                depth + 1,
                task,
                store,
                delta_store,
                db,
                delta_db,
                assignment,
                out,
            );
        }
        return;
    }

    out.probes += 1;
    let (source, rel) = step_source(step, task, store, delta_store, db, delta_db);
    let Some(rel) = rel else {
        return; // no rows at this predicate/arity — the join is empty here
    };
    // Translate the probe key into the target relation's code space and
    // fold the hash as we go. A constant absent from a column's dictionary
    // matches no row: the probe is answered from the dictionary alone.
    let mut key_codes = std::mem::take(&mut out.keys[depth]);
    key_codes.clear();
    let mut hash = hash_codes_seed(step.key.len());
    let mut present = true;
    for (&pos, src) in step.positions.iter().zip(&step.key) {
        match rel.lookup_code(pos, src.value(assignment)) {
            Some(code) => {
                key_codes.push(code);
                hash = hash_codes_fold(hash, code);
            }
            None => {
                present = false;
                break;
            }
        }
    }
    let ids: &[u32] = if present {
        source
            .postings(step.pred, step.arity, &step.positions)
            .get(hash)
    } else {
        out.dict_filtered += 1;
        &[]
    };
    for &id in ids {
        // The postings list is keyed by hash; verify the candidate's code
        // projection against the translated key (collision safety, one
        // integer compare per bound column).
        if !step
            .positions
            .iter()
            .zip(&key_codes)
            .all(|(&pos, &code)| rel.code_at(pos, id) == code)
        {
            continue;
        }
        let t = rel.row(id);
        for &(pos, v) in &step.bind {
            assignment[v] = Some(t[pos]);
        }
        let passes = step
            .check
            .iter()
            .all(|&(pos, v)| assignment[v] == Some(t[pos]));
        if passes {
            exec(
                script,
                depth + 1,
                task,
                store,
                delta_store,
                db,
                delta_db,
                assignment,
                out,
            );
        }
        for &(_, v) in &step.bind {
            assignment[v] = None;
        }
        if passes && step.exists {
            break;
        }
    }
    out.keys[depth] = key_codes;
}

/// A persistent evaluation context: the program's compiled rule plans, the
/// growing database, and incrementally-maintained indexes over it.
///
/// Constructed from a starting database, driven to fixpoint by the
/// evaluators in [`crate::seminaive`] / [`crate::stratified`] /
/// [`crate::scc_eval`] / [`crate::incremental`], and consumed with
/// [`EvalContext::into_database`].
pub struct EvalContext {
    plans: Arc<Vec<RulePlan>>,
    db: Arc<Database>,
    store: Arc<IndexStore>,
    specialize: bool,
    stats: Stats,
    /// A traced context's record: the first justification of every atom it
    /// committed ([`EvalContext::traced`]).
    justifications: Option<HashMap<GroundAtom, Justification>>,
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("rules", &self.plans.len())
            .field("db_atoms", &self.db.len())
            .field("specialize", &self.specialize)
            .field("stats", &self.stats)
            .finish()
    }
}

const CONST_BYTES: u64 = std::mem::size_of::<Const>() as u64;

impl EvalContext {
    /// Compile `program` and take ownership of `input` as the starting
    /// database.
    pub fn new(program: &Program, input: Database, opts: EvalOptions) -> EvalContext {
        EvalContext::with_plans(
            Arc::new(program.rules.iter().map(RulePlan::compile).collect()),
            input,
            opts,
        )
    }

    /// [`EvalContext::new`] over already-compiled plans, for callers that run
    /// many short evaluations of one program (the §VI containment test).
    pub fn with_plans(
        plans: Arc<Vec<RulePlan>>,
        input: Database,
        opts: EvalOptions,
    ) -> EvalContext {
        let mut stats = Stats::default();
        // Seed the allocation counters with the rows the context starts
        // from, so `tuples_allocated` reflects everything resident in the
        // arenas, not just rows derived later.
        for pred in input.predicates() {
            for rel in input.relations_of(pred) {
                stats.tuples_allocated += rel.len() as u64;
                stats.arena_bytes += rel.len() as u64 * rel.arity() as u64 * CONST_BYTES;
            }
        }
        EvalContext {
            plans,
            db: Arc::new(input),
            store: Arc::new(IndexStore::default()),
            specialize: opts.specialize,
            stats,
            justifications: None,
        }
    }

    /// Keep, from here on, the first justification of every atom a round
    /// commits. The kernel does the recording, so a traced context runs it
    /// whatever `opts.specialize` said.
    pub fn traced(mut self) -> EvalContext {
        self.specialize = true;
        self.justifications.get_or_insert_with(HashMap::new);
        self
    }

    /// How `atom` got into the database: by a recorded rule application, or
    /// — nothing recorded — as input. `None` when it is not there.
    pub fn justification(&self, atom: &GroundAtom) -> Option<&Justification> {
        let recorded = self.justifications.as_ref().and_then(|j| j.get(atom));
        recorded.or_else(|| self.db.contains(atom).then_some(&Justification::Input))
    }

    /// A cheap handle sharing this context's database and indexes
    /// copy-on-write (what a [`crate::Materialized`] `Clone` holds). The
    /// fork keeps the original's counters but not its justifications.
    pub(crate) fn fork(&self) -> EvalContext {
        EvalContext {
            plans: Arc::clone(&self.plans),
            db: Arc::clone(&self.db),
            store: Arc::clone(&self.store),
            specialize: self.specialize,
            stats: self.stats,
            justifications: None,
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
            Arc::make_mut(&mut self.store).absorb(&self.db, &[(pred, arity, id)]);
        true
    }

    /// Remove atoms (non-monotone): the indexes are conservatively
    /// invalidated (row-ids are not stable across removals) and re-fill
    /// lazily from the shrunken database.
    pub(crate) fn remove_atoms(&mut self, atoms: &Database) {
        let db = Arc::make_mut(&mut self.db);
        for pred in atoms.predicates() {
            for row in atoms.relation(pred) {
                db.remove_row(pred, row);
            }
        }
        Arc::make_mut(&mut self.store).clear();
    }

    /// Round 1 of a (sub)fixpoint: evaluate `rules` in full over the
    /// current database, commit the new atoms, and return them.
    pub(crate) fn full_round(&mut self, rules: &[usize]) -> Database {
        let seen = self.run_round(rules, None, true);
        self.commit(seen)
    }

    /// A semi-naive delta round: evaluate `rules` with each positive body
    /// occurrence of a predicate that has tuples in `delta` restricted (in
    /// turn) to `delta`, commit the new atoms, and return them as the next
    /// delta.
    pub(crate) fn delta_round(&mut self, rules: &[usize], delta: &Database) -> Database {
        let seen = self.run_round(rules, Some(delta), true);
        self.commit(seen)
    }

    /// A delta round over a *frozen* database: nothing is committed, and
    /// every head the round derived — known ones included — is returned,
    /// once (the DRed overdeletion sweep).
    pub(crate) fn sweep_round(&mut self, rules: &[usize], delta: &Database) -> Database {
        self.run_round(rules, Some(delta), false).into_database()
    }

    /// Run `rules` to their fixpoint over the current database: one full
    /// round, then delta rounds until nothing new is derived.
    pub(crate) fn saturate(&mut self, rules: &[usize]) {
        self.saturate_to(rules, None);
    }

    /// [`EvalContext::saturate`], stopping the round `goal` is committed:
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
            delta = self.delta_round(rules, &delta);
        }
        false
    }

    /// Insert a committing round's heads — each new to the database, once —
    /// append their row-ids to the live indexes, and return the round's
    /// arenas as they are as the next delta. A traced round's justifications
    /// are kept for exactly these atoms, so every recorded premise was in the
    /// database before its conclusion.
    fn commit(&mut self, seen: Seen) -> Database {
        let Seen { rows, mut why } = seen;
        let mut delta = Database::new();
        let mut fresh_ids: Vec<(Pred, usize, u32)> = Vec::new();
        let db = Arc::make_mut(&mut self.db);
        for ((pred, arity), heads) in rows {
            let mut why = why
                .as_mut()
                .and_then(|w| w.remove(&(pred, arity)))
                .into_iter()
                .flatten();
            for row in heads.rows() {
                let id = db
                    .insert_row_id(pred, row)
                    .expect("a committing round queues only heads new to the database");
                fresh_ids.push((pred, arity, id));
                if let (Some(kept), Some(why)) = (&mut self.justifications, why.next()) {
                    kept.insert(GroundAtom::new(pred, row), why);
                }
            }
            let new = heads.len() as u64;
            self.stats.derivations += new;
            self.stats.tuples_allocated += new;
            self.stats.arena_bytes += new * arity as u64 * CONST_BYTES;
            delta.insert_relation(pred, heads);
        }
        if !fresh_ids.is_empty() {
            self.stats.index_appends += Arc::make_mut(&mut self.store).absorb(&self.db, &fresh_ids);
        }
        delta
    }

    /// Evaluate one round of `rules` (full or delta-restricted) and return
    /// the heads it queued, with their justifications when the context is
    /// traced.
    fn run_round(&mut self, rules: &[usize], delta: Option<&Database>, filter_known: bool) -> Seen {
        self.stats.iterations += 1;
        let traced = self.justifications.is_some();

        // Compile the scripts. Full rounds get one greedy script per rule;
        // delta rounds get one script per (rule, delta position), seeded so
        // the delta atom drives the join — the delta is the small side, and
        // a persistent-relation-first order would rescan that full relation
        // once per delta position per round.
        //
        // An item cannot fire when a positive literal reads a relation with
        // no rows, and is dropped before it costs an order, a script and its
        // indexes. The delta literal is exempt: it reads the delta, whose
        // predicate may have no rows in the database (the `$overdeleted`
        // seeds of DRed rederivation never do).
        let db = &self.db;
        let can_fire = |plan: &RulePlan, delta_pos: Option<usize>| {
            plan.body.iter().enumerate().all(|(i, a)| {
                a.negated
                    || Some(i) == delta_pos
                    || db
                        .relation_of(a.pred, a.slots.len())
                        .is_some_and(|rel| !rel.is_empty())
            })
        };
        let mut scripts: Vec<JoinScript> = Vec::new();
        let mut tasks: Vec<Task> = Vec::new();
        for &rule in rules {
            let plan = &self.plans[rule];
            let positions: Vec<Option<usize>> = match delta {
                None => vec![None],
                Some(d) => (0..plan.body.len())
                    .filter(|&p| !plan.body[p].negated && d.relation_len(plan.body[p].pred) > 0)
                    .map(Some)
                    .collect(),
            };
            for pos in positions.into_iter().filter(|&pos| can_fire(plan, pos)) {
                let order = plan.greedy_order_seeded(&self.db, pos);
                scripts.push(compile_script(plan, &order));
                tasks.push(Task {
                    script: scripts.len() - 1,
                    rule,
                    delta_atom: pos,
                });
            }
        }
        if tasks.is_empty() {
            return Seen::default();
        }

        // Ensure every index the scripts will probe; on steady-state rounds
        // nothing is missing and this is a no-op.
        {
            let store = Arc::make_mut(&mut self.store);
            for script in &scripts {
                for step in &script.steps {
                    if !step.negated
                        && store.ensure(&self.db, step.pred, step.arity, &step.positions)
                    {
                        self.stats.index_builds += 1;
                    }
                }
            }
        }
        // Per-round delta-side indexes (ephemeral; not counted as builds),
        // over the borrowed delta.
        let no_delta = Database::new();
        let delta_db = delta.unwrap_or(&no_delta);
        let mut delta_store = IndexStore::default();
        for task in &tasks {
            if let Some(p) = task.delta_atom {
                let step = scripts[task.script]
                    .steps
                    .iter()
                    .find(|st| st.atom == p)
                    .expect("delta atom present in its own script");
                delta_store.ensure(delta_db, step.pred, step.arity, &step.positions);
            }
        }

        if self.specialize {
            self.stats.specialized_tasks += tasks.len() as u64;
            self.stats.pipelined_tasks += tasks
                .iter()
                .filter(|t| scripts[t.script].steps.len() >= 3)
                .count() as u64;
        }
        let mut out = TaskOutput::new(filter_known, traced);
        // Gathered delta-side key blocks are valid for this round's delta
        // only, so the cache lives and dies with the round.
        let mut cache = kernels::BatchCache::default();
        for task in tasks {
            run_task(
                &scripts[task.script],
                self.specialize,
                task,
                &self.store,
                &delta_store,
                &self.db,
                delta_db,
                &mut cache,
                &mut out,
            );
        }
        self.stats.probes += out.probes;
        self.stats.matches += out.matches;
        self.stats.batch_probe_rows += out.batch_rows;
        self.stats.dict_filtered_probes += out.dict_filtered;
        self.stats.simd_hash_blocks += out.simd_blocks;
        self.stats.batch_reuse_hits += out.batch_reuse;
        out.seen
    }
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
        let mut cx = EvalContext::new(&p, edb.clone(), EvalOptions::sequential());
        cx.saturate(&[0, 1]);
        assert_eq!(cx.into_database(), crate::naive::evaluate(&p, &edb));
    }

    #[test]
    fn saturate_until_stops_the_round_the_goal_is_committed() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,5). a(5,6).").unwrap();
        let fresh = || EvalContext::new(&p, edb.clone(), EvalOptions::sequential());

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
            let script = compile_script(&plan, order);
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

    #[test]
    fn indexes_are_built_once_and_appended_after() {
        let p = tc();
        let mut facts = String::new();
        for i in 0..40 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&facts).unwrap();
        let mut cx = EvalContext::new(&p, edb, EvalOptions::sequential());
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

    #[test]
    fn symmetric_chain_matches_naive_and_the_interpreter() {
        let p = tc();
        let mut facts = String::new();
        for i in 0..24 {
            facts.push_str(&format!("a({}, {}).", i, i + 1));
            facts.push_str(&format!("a({}, {}).", i + 1, i));
        }
        let edb = parse_database(&facts).unwrap();
        let mut kernel = EvalContext::new(&p, edb.clone(), EvalOptions::sequential());
        kernel.saturate(&[0, 1]);
        let mut reference = EvalContext::new(&p, edb.clone(), EvalOptions::interpreted());
        reference.saturate(&[0, 1]);
        let (k, r) = (kernel.stats(), reference.stats());
        assert_eq!(
            (k.probes, k.matches, k.derivations, k.tuples_allocated),
            (r.probes, r.matches, r.derivations, r.tuples_allocated)
        );
        assert_eq!(*kernel.database(), *reference.database());
        assert_eq!(kernel.into_database(), crate::naive::evaluate(&p, &edb));
    }

    /// No key width sends a task to the interpreter: this join projects a
    /// 9-column key and still runs on the kernel, with the reference's
    /// fixpoint and logical counters.
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
        let mut spec = EvalContext::new(&p, edb.clone(), EvalOptions::sequential());
        spec.saturate(&[0]);
        let mut interp = EvalContext::new(&p, edb, EvalOptions::interpreted());
        interp.saturate(&[0]);
        assert_eq!(
            spec.stats().specialized_tasks,
            1,
            "the 9-wide key is no exception"
        );
        assert_eq!(interp.stats().specialized_tasks, 0, "reference stays pure");
        assert_eq!(spec.stats().matches, interp.stats().matches);
        assert_eq!(spec.stats().derivations, interp.stats().derivations);
        assert_eq!(spec.stats().probes, interp.stats().probes);
        assert_eq!(*spec.database(), *interp.database());
        for i in [0i64, 2, 4, 6, 8, 10] {
            assert!(spec.database().contains(&datalog_ast::fact("j", [i * 10])));
        }
    }

    #[test]
    fn add_fact_keeps_indexes_live() {
        let p = tc();
        let edb = parse_database("a(1,2).").unwrap();
        let mut cx = EvalContext::new(&p, edb, EvalOptions::sequential());
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

    #[test]
    fn remove_atoms_invalidates_and_refills() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut cx = EvalContext::new(&p, edb, EvalOptions::sequential());
        cx.saturate(&[0, 1]);
        let mut gone = Database::new();
        gone.insert(datalog_ast::fact("g", [1, 3]));
        cx.remove_atoms(&gone);
        assert!(!cx.database().contains(&datalog_ast::fact("g", [1, 3])));
        // The next round rebuilds lazily and still computes correctly.
        let mut delta = Database::new();
        delta.insert(datalog_ast::fact("g", [2, 3]));
        while !delta.is_empty() {
            delta = cx.delta_round(&[0, 1], &delta);
        }
        assert!(cx.database().contains(&datalog_ast::fact("g", [1, 3])));
    }

    #[test]
    fn allocation_counters_track_arena_growth() {
        let p = tc();
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut cx = EvalContext::new(&p, edb, EvalOptions::sequential());
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
