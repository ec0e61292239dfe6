//! A materialized view with snapshot-isolated reads.
//!
//! The writer side is an [`engine::incremental::Materialized`] behind a
//! mutex: insert/remove batches run semi-naive delta propagation and DRed
//! delete-and-rederive. After every batch the writer publishes the new
//! fixpoint as an [`Arc<Database>`]; readers clone that `Arc` out of a
//! briefly-held lock and then query entirely lock-free. A query therefore
//! never blocks behind an in-flight write batch (only behind the
//! nanosecond-scale pointer swap), and always sees a consistent fixpoint —
//! either the pre-batch or the post-batch one, never a half-applied state.
//!
//! [`engine::incremental::Materialized`]: datalog_engine::Materialized

use datalog_engine::{Materialized, Stats};
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
    /// The published state readers clone.
    state: RwLock<ViewState>,
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
        let writer = Materialized::new(program, input);
        let state = ViewState {
            fixpoint: writer.snapshot(),
            base: Arc::new(writer.base().clone()),
            version: 0,
        };
        View {
            writer: Mutex::new(writer),
            state: RwLock::new(state),
        }
    }

    /// The published state, locked for the duration of a clone.
    fn read(&self) -> RwLockReadGuard<'_, ViewState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
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
        self.publish(&writer);
        outcome
    }

    /// The currently asserted base facts (cloned under the writer lock).
    pub fn base(&self) -> Database {
        lock_writer(self).base().clone()
    }

    /// Swap in the writer's fixpoint and base under one version bump.
    fn publish(&self, writer: &Materialized) {
        let base = Arc::new(writer.base().clone());
        let fixpoint = writer.snapshot();
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        state.version += 1;
        state.fixpoint = fixpoint;
        state.base = base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program, Pred};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn snapshots_survive_later_writes() {
        let view = View::new(tc(), &parse_database("a(1, 2).").unwrap());
        let before = view.snapshot();
        assert!(before.contains(&fact("g", [1, 2])));
        view.insert(vec![fact("a", [2, 3])]);
        assert!(!before.contains(&fact("g", [1, 3])));
        assert!(view.snapshot().contains(&fact("g", [1, 3])));
        assert_eq!(view.base().len(), 2);
        view.remove(vec![fact("a", [1, 2])]);
        assert!(!view.snapshot().contains(&fact("g", [1, 2])));
    }

    #[test]
    fn versions_advance_in_lockstep_and_pair_base_with_fixpoint() {
        let view = View::new(tc(), &Database::new());
        assert_eq!(view.state().version, 0);
        view.insert(vec![fact("a", [1, 2]), fact("a", [2, 3])]);
        let state = view.state();
        assert_eq!(state.version, 1);
        assert_eq!(state.base.len(), 2);
        assert_eq!(state.fixpoint.len(), 5);
        view.remove(vec![fact("a", [2, 3])]);
        let state = view.state();
        assert_eq!(state.version, 2);
        assert_eq!(state.base.len(), 1);
        assert_eq!(state.fixpoint.len(), 2);
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_commit() {
        // A reader must only ever observe a complete fixpoint of some
        // prefix of the write stream, paired with that prefix's base: a
        // chain of n edges has exactly n·(n+1)/2 closure pairs and nothing
        // else.
        let view = Arc::new(View::new(tc(), &Database::new()));
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
                    let mut last = 0;
                    for _ in 0..200 {
                        let state = view.state();
                        let n = state.fixpoint.relation_len(Pred::new("a"));
                        assert_eq!(
                            state.fixpoint.relation_len(Pred::new("g")),
                            n * (n + 1) / 2,
                            "snapshot must be a complete fixpoint"
                        );
                        assert_eq!(state.base.len(), n, "base paired with its fixpoint");
                        assert_eq!(state.version, n as u64, "version stamps its commit");
                        assert!(state.version >= last, "versions never go back");
                        last = state.version;
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
