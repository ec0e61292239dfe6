//! Evaluation statistics.
//!
//! §I's argument for minimization is that it "reduces the number of joins
//! done during the evaluation"; [`Stats`] makes that claim measurable. Every
//! evaluator reports the work it did so benchmarks can compare *logical*
//! effort (probes, derivations) as well as wall-clock time. The index
//! counters make the [`crate::EvalContext`] win observable: a context-based
//! fixpoint builds each `(predicate, bound-positions)` index once
//! (`index_builds`) and extends it tuple-by-tuple across rounds
//! (`index_appends`); a fixpoint whose `index_builds` grows with its round
//! count has lost that.

use std::fmt;
use std::ops::{AddAssign, Sub};

/// Work counters for one evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of fixpoint rounds until saturation.
    pub iterations: u64,
    /// Number of index probes (≈ join steps) performed. [`crate::naive`]
    /// has no index and counts one per relation scan and one per
    /// membership test (a literal its bindings make ground, or a negated
    /// one).
    pub probes: u64,
    /// Number of successful body matches (head instantiations attempted),
    /// **up to dead variables**: a context evaluation passes a row through
    /// an existential stage (a literal whose bindings nothing reads again)
    /// once, however many rows match there, so it counts one match per
    /// binding of the variables that are read. [`crate::naive`] enumerates
    /// every binding and counts more on such rules.
    pub matches: u64,
    /// Number of *new* ground atoms derived (duplicates excluded).
    pub derivations: u64,
    /// Number of full-scan hash-index constructions over a database
    /// relation: one per live `(predicate, positions)` pattern per context,
    /// plus the re-fills after a removal cleared the indexes.
    /// [`crate::naive`] keeps no index and reports 0.
    pub index_builds: u64,
    /// Number of delta tuples appended into already-built indexes instead
    /// of triggering a rebuild (the incremental-index maintenance work).
    pub index_appends: u64,
    /// Join work items that ran on the join kernel: every task of a
    /// context, or none when it was built with `specialize == false` and
    /// runs the reference interpreter.
    pub specialized_tasks: u64,
    /// In-flight rows pushed through the kernel's probe stages (gather →
    /// hash → probe → verify).
    pub batch_probe_rows: u64,
    /// Kernel work items whose script has three or more steps (two or more
    /// stages after the enumerated literal) — a subset of
    /// `specialized_tasks`.
    pub pipelined_tasks: u64,
    /// Always 0: no evaluation shares work between tasks. Kept only for
    /// callers that still read it.
    #[doc(hidden)]
    pub batch_reuse_hits: u64,
    /// Key blocks hashed, one per flushed block.
    pub simd_hash_blocks: u64,
    /// Probe keys answered from a column dictionary alone: some key
    /// constant (or translated outer value) has no code in the target
    /// column, so the join step matched nothing without touching a row.
    pub dict_filtered_probes: u64,
    /// Number of tuples copied into columnar arena storage (input rows
    /// plus genuinely new derivations). Monotone: removals do not
    /// decrement — this counts allocation work, not live rows.
    pub tuples_allocated: u64,
    /// Bytes of constants appended into row arenas
    /// (`tuples_allocated`-weighted by arity). Monotone, like
    /// `tuples_allocated`.
    pub arena_bytes: u64,
}

impl AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        self.iterations += rhs.iterations;
        self.probes += rhs.probes;
        self.matches += rhs.matches;
        self.derivations += rhs.derivations;
        self.index_builds += rhs.index_builds;
        self.index_appends += rhs.index_appends;
        self.specialized_tasks += rhs.specialized_tasks;
        self.batch_probe_rows += rhs.batch_probe_rows;
        self.pipelined_tasks += rhs.pipelined_tasks;
        self.simd_hash_blocks += rhs.simd_hash_blocks;
        self.dict_filtered_probes += rhs.dict_filtered_probes;
        self.tuples_allocated += rhs.tuples_allocated;
        self.arena_bytes += rhs.arena_bytes;
    }
}

impl Sub for Stats {
    type Output = Stats;

    /// Counter difference — used to report per-batch work from a context
    /// whose counters accumulate across batches.
    fn sub(self, rhs: Stats) -> Stats {
        Stats {
            iterations: self.iterations.saturating_sub(rhs.iterations),
            probes: self.probes.saturating_sub(rhs.probes),
            matches: self.matches.saturating_sub(rhs.matches),
            derivations: self.derivations.saturating_sub(rhs.derivations),
            index_builds: self.index_builds.saturating_sub(rhs.index_builds),
            index_appends: self.index_appends.saturating_sub(rhs.index_appends),
            specialized_tasks: self.specialized_tasks.saturating_sub(rhs.specialized_tasks),
            batch_probe_rows: self.batch_probe_rows.saturating_sub(rhs.batch_probe_rows),
            pipelined_tasks: self.pipelined_tasks.saturating_sub(rhs.pipelined_tasks),
            batch_reuse_hits: 0,
            simd_hash_blocks: self.simd_hash_blocks.saturating_sub(rhs.simd_hash_blocks),
            dict_filtered_probes: self
                .dict_filtered_probes
                .saturating_sub(rhs.dict_filtered_probes),
            tuples_allocated: self.tuples_allocated.saturating_sub(rhs.tuples_allocated),
            arena_bytes: self.arena_bytes.saturating_sub(rhs.arena_bytes),
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iterations={} probes={} matches={} derivations={} index_builds={} index_appends={} specialized_tasks={} batch_probe_rows={} pipelined_tasks={} simd_hash_blocks={} dict_filtered_probes={} tuples_allocated={} arena_bytes={}",
            self.iterations,
            self.probes,
            self.matches,
            self.derivations,
            self.index_builds,
            self.index_appends,
            self.specialized_tasks,
            self.batch_probe_rows,
            self.pipelined_tasks,
            self.simd_hash_blocks,
            self.dict_filtered_probes,
            self.tuples_allocated,
            self.arena_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = Stats {
            iterations: 1,
            probes: 10,
            matches: 5,
            derivations: 3,
            index_builds: 2,
            index_appends: 7,
            specialized_tasks: 3,
            batch_probe_rows: 100,
            pipelined_tasks: 2,
            simd_hash_blocks: 11,
            dict_filtered_probes: 9,
            tuples_allocated: 20,
            arena_bytes: 320,
            ..Stats::default()
        };
        a += Stats {
            iterations: 2,
            probes: 1,
            matches: 1,
            derivations: 1,
            index_builds: 1,
            index_appends: 1,
            specialized_tasks: 1,
            batch_probe_rows: 1,
            pipelined_tasks: 1,
            simd_hash_blocks: 1,
            dict_filtered_probes: 1,
            tuples_allocated: 2,
            arena_bytes: 32,
            ..Stats::default()
        };
        assert_eq!(
            a,
            Stats {
                iterations: 3,
                probes: 11,
                matches: 6,
                derivations: 4,
                index_builds: 3,
                index_appends: 8,
                specialized_tasks: 4,
                batch_probe_rows: 101,
                pipelined_tasks: 3,
                simd_hash_blocks: 12,
                dict_filtered_probes: 10,
                tuples_allocated: 22,
                arena_bytes: 352,
                ..Stats::default()
            }
        );
    }

    #[test]
    fn sub_diffs_fields() {
        let a = Stats {
            iterations: 3,
            probes: 11,
            matches: 6,
            derivations: 4,
            index_builds: 3,
            index_appends: 8,
            specialized_tasks: 4,
            batch_probe_rows: 101,
            pipelined_tasks: 9,
            simd_hash_blocks: 15,
            dict_filtered_probes: 10,
            tuples_allocated: 22,
            arena_bytes: 352,
            ..Stats::default()
        };
        let b = Stats {
            iterations: 1,
            probes: 10,
            matches: 5,
            derivations: 3,
            index_builds: 2,
            index_appends: 7,
            specialized_tasks: 1,
            batch_probe_rows: 100,
            pipelined_tasks: 4,
            simd_hash_blocks: 5,
            dict_filtered_probes: 4,
            tuples_allocated: 20,
            arena_bytes: 320,
            ..Stats::default()
        };
        let d = a - b;
        assert_eq!(d.tuples_allocated, 2);
        assert_eq!(d.arena_bytes, 32);
        assert_eq!(d.specialized_tasks, 3);
        assert_eq!(d.batch_probe_rows, 1);
        assert_eq!(d.pipelined_tasks, 5);
        assert_eq!(d.simd_hash_blocks, 10);
        assert_eq!(d.dict_filtered_probes, 6);
        assert_eq!(d.iterations, 2);
        assert_eq!(d.probes, 1);
        assert_eq!(d.index_appends, 1);
        // Saturating: never underflows.
        assert_eq!((b - a).probes, 0);
        assert_eq!((b - a).arena_bytes, 0);
    }

    #[test]
    fn display_is_readable() {
        let s = Stats {
            iterations: 2,
            probes: 7,
            matches: 4,
            derivations: 3,
            ..Stats::default()
        };
        assert_eq!(
            s.to_string(),
            "iterations=2 probes=7 matches=4 derivations=3 index_builds=0 index_appends=0 specialized_tasks=0 batch_probe_rows=0 pipelined_tasks=0 simd_hash_blocks=0 dict_filtered_probes=0 tuples_allocated=0 arena_bytes=0"
        );
    }
}
