//! A materialized view with snapshot-isolated reads.
//!
//! The writer side is an [`engine::incremental::Materialized`] behind a
//! mutex: insert/remove batches run semi-naive delta propagation and DRed
//! delete-and-rederive, on one context or hash-partitioned across N shard
//! replicas. After every batch the writer publishes the new fixpoint as an
//! [`Arc<Database>`]; readers clone that `Arc` out of a briefly-held lock
//! and then query entirely lock-free. A query therefore never blocks
//! behind an in-flight write batch (only behind the nanosecond-scale
//! pointer swap), and always sees a consistent fixpoint — either the
//! pre-batch or the post-batch one, never a half-applied state.
//!
//! There is one published [`ViewState`] slot **per shard**: each engine
//! replica owns its own `Arc<Database>`, so slot `i` holding shard `i`'s
//! spreads snapshot refcount traffic across N cache lines, and readers
//! rotate over the slots. Publication is a **group commit** — every slot
//! locked, all swapped under one version bump, all released together — so
//! no reader sees two slots at different versions. One shard is one slot.
//!
//! [`engine::incremental::Materialized`]: datalog_engine::Materialized

use datalog_engine::{Materialized, Stats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use datalog_ast::{Database, GroundAtom, Program};

/// One published, immutable state of a view: the fixpoint readers match
/// against, the base facts top-down point queries evaluate from, and a
/// version stamp that increments with every committed write batch. All
/// three are swapped together, so any state a reader clones out is
/// internally consistent — `fixpoint` is exactly the closure of `base`.
#[derive(Clone)]
pub struct ViewState {
    /// The materialized fixpoint (base facts plus every derived atom).
    pub fixpoint: Arc<Database>,
    /// The currently asserted base facts only.
    pub base: Arc<Database>,
    /// Monotone commit counter; 0 for the install-time state.
    pub version: u64,
}

/// A concurrently readable materialisation of one installed program.
pub struct View {
    /// The mutable materialisation; serialised writers only.
    writer: Mutex<Materialized>,
    /// One published state per engine shard, all at the same version.
    slots: Vec<RwLock<ViewState>>,
    /// Round-robin reader routing over the slots (unused with one slot).
    cursor: AtomicUsize,
}

/// Recover the guard even if a previous holder panicked: every mutation
/// below leaves the structures consistent at the point of any panic that
/// could propagate (the engine mutates private databases and publishes
/// only on success), so poisoning is not load-bearing — one failing
/// connection must not wedge the view for everyone else.
fn lock_writer(view: &View) -> MutexGuard<'_, Materialized> {
    view.writer.lock().unwrap_or_else(|e| e.into_inner())
}

impl View {
    /// Saturate `input` under `program` and publish the first state.
    pub fn new(program: Program, input: &Database) -> View {
        View::sharded(program, input, 1)
    }

    /// [`View::new`] over an engine of `shards` replicas (0 means 1), with
    /// one published slot per shard.
    pub fn sharded(program: Program, input: &Database, shards: usize) -> View {
        let mut writer = Materialized::sharded(program, input, shards);
        let base = Arc::new(writer.base().clone());
        let slots = (0..writer.shards())
            .map(|i| {
                RwLock::new(ViewState {
                    fixpoint: writer.shard_snapshot(i),
                    base: Arc::clone(&base),
                    version: 0,
                })
            })
            .collect();
        View {
            writer: Mutex::new(writer),
            slots,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The shard count (≥ 1).
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The slot this read is served from — the only one, or the next in
    /// round-robin order — locked for the duration of a clone.
    fn read(&self) -> RwLockReadGuard<'_, ViewState> {
        let slot = match &self.slots[..] {
            [only] => only,
            slots => &slots[self.cursor.fetch_add(1, Ordering::Relaxed) % slots.len()],
        };
        slot.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The most recently published fixpoint: one `Arc` clone.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.read().fixpoint)
    }

    /// The most recently published full state (fixpoint, base, version):
    /// two `Arc` clones and a `u64`.
    pub fn state(&self) -> ViewState {
        self.read().clone()
    }

    /// Insert a batch of base facts, propagate consequences, publish the new
    /// fixpoint. Returns the number of atoms added and the evaluation work.
    pub fn insert(&self, facts: Vec<GroundAtom>) -> (u64, Stats) {
        self.commit(|writer| writer.insert_with_stats(facts))
    }

    /// Remove a batch of base facts (DRed), publish the new fixpoint.
    /// Returns the number of atoms removed and the evaluation work.
    pub fn remove(&self, facts: Vec<GroundAtom>) -> (u64, Stats) {
        self.commit(|writer| writer.remove_with_stats(facts))
    }

    /// One write batch under the writer lock: apply it, then publish.
    fn commit(&self, batch: impl FnOnce(&mut Materialized) -> (u64, Stats)) -> (u64, Stats) {
        let mut writer = lock_writer(self);
        let outcome = batch(&mut writer);
        self.publish(&mut writer);
        outcome
    }

    /// The currently asserted base facts (cloned under the writer lock).
    pub fn base(&self) -> Database {
        lock_writer(self).base().clone()
    }

    /// Group commit: take every slot's write lock, swap all states under
    /// one version bump, release together.
    fn publish(&self, writer: &mut Materialized) {
        let base = Arc::new(writer.base().clone());
        let mut guards: Vec<_> = self
            .slots
            .iter()
            .map(|slot| slot.write().unwrap_or_else(|e| e.into_inner()))
            .collect();
        for (shard, guard) in guards.iter_mut().enumerate() {
            guard.version += 1;
            guard.fixpoint = writer.shard_snapshot(shard);
            guard.base = Arc::clone(&base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program, Pred};

    /// The view behaves the same over one slot and over several.
    const SHARDS: [usize; 2] = [1, 4];

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn all_slots_serve_the_same_fixpoint() {
        for shards in SHARDS {
            let input = parse_database("a(1, 2). a(2, 3).").unwrap();
            let view = View::sharded(tc(), &input, shards);
            assert_eq!(view.shards(), shards);
            let first = view.snapshot();
            // One snapshot per slot (round-robin covers all of them).
            for _ in 0..view.shards() {
                assert_eq!(&*view.snapshot(), &*first);
            }
            assert!(first.contains(&fact("g", [1, 3])));
        }
        assert_eq!(View::new(tc(), &Database::new()).shards(), 1);
        assert_eq!(View::sharded(tc(), &Database::new(), 0).shards(), 1);
    }

    #[test]
    fn snapshots_survive_later_writes() {
        for shards in SHARDS {
            let view = View::sharded(tc(), &parse_database("a(1, 2).").unwrap(), shards);
            let before = view.snapshot();
            view.insert(vec![fact("a", [2, 3])]);
            assert!(!before.contains(&fact("g", [1, 3])));
            assert!(view.snapshot().contains(&fact("g", [1, 3])));
            assert_eq!(view.base().len(), 2);
            view.remove(vec![fact("a", [1, 2])]);
            assert!(!view.snapshot().contains(&fact("g", [1, 2])));
        }
    }

    #[test]
    fn versions_advance_in_lockstep_and_pair_base_with_fixpoint() {
        for shards in SHARDS {
            let view = View::sharded(tc(), &Database::new(), shards);
            assert_eq!(view.state().version, 0);
            view.insert(vec![fact("a", [1, 2]), fact("a", [2, 3])]);
            for _ in 0..view.shards() {
                let state = view.state();
                assert_eq!(state.version, 1);
                assert_eq!(state.base.len(), 2);
                assert_eq!(state.fixpoint.len(), 5);
            }
            view.remove(vec![fact("a", [2, 3])]);
            for _ in 0..view.shards() {
                let state = view.state();
                assert_eq!(state.version, 2);
                assert_eq!(state.base.len(), 1);
                assert_eq!(state.fixpoint.len(), 2);
            }
        }
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_commit() {
        // A reader must only ever observe a complete fixpoint of some
        // prefix of the write stream, paired with that prefix's base, from
        // whichever slot it is routed to: a chain of n edges has exactly
        // n·(n+1)/2 closure pairs and nothing else.
        for shards in SHARDS {
            let view = Arc::new(View::sharded(tc(), &Database::new(), shards));
            let writer = {
                let view = Arc::clone(&view);
                std::thread::spawn(move || {
                    for i in 0..24i64 {
                        view.insert(vec![fact("a", [i, i + 1])]);
                    }
                })
            };
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let view = Arc::clone(&view);
                    std::thread::spawn(move || {
                        for _ in 0..200 {
                            let state = view.state();
                            let n = state.fixpoint.relation_len(Pred::new("a"));
                            assert_eq!(
                                state.fixpoint.relation_len(Pred::new("g")),
                                n * (n + 1) / 2,
                                "snapshot must be a complete fixpoint"
                            );
                            assert_eq!(state.base.len(), n, "base paired with its fixpoint");
                        }
                    })
                })
                .collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
            assert!(view.snapshot().contains(&fact("g", [0, 24])));
        }
    }
}
