//! Randomized differential tests for the incremental-index evaluator.
//!
//! *Finding Cross-rule Optimization Bugs in Datalog Engines* (Zhang et al.,
//! 2024) shows that engine-level optimizations — exactly the kind this
//! repository's `EvalContext` introduces — are where correctness bugs hide.
//! These tests pin the optimized paths to reference semantics on generated
//! workloads: for every seeded random program and database, the context
//! evaluator must be **tuple-identical** to the naive reference — a nested
//! loop over rows built on `datalog_ast` alone, which shares no code with
//! it — where the program is positive, and stratified
//! evaluation on the join kernel to the same strata on the row-at-a-time
//! reference interpreter where it negates.
//!
//! All generators are seeded (no wall-clock, no ambient randomness), so a
//! failure reproduces exactly.

use datalog_bench::{guarded_tc, standard_edb};
use datalog_engine::context::EvalOptions;
use datalog_engine::{evaluate, evaluate_with, naive};
use datalog_generate::{random_db, random_program, random_stratified_program, RandomProgramSpec};

#[test]
fn random_positive_programs_match_naive() {
    let spec = RandomProgramSpec::default();
    for seed in 0..10u64 {
        let program = random_program(&spec, seed);
        let db = random_db(&[("a", 2), ("b", 2), ("c", 1)], 10, 6, seed ^ 0x5eed);

        let (out, stats) = evaluate(&program, &db).unwrap();
        assert_eq!(
            out,
            naive::evaluate(&program, &db),
            "incremental-index vs naive divergence, seed {seed}"
        );
        assert_eq!(
            stats.derivations,
            (out.len() - db.len()) as u64,
            "each new atom is derived once, seed {seed}"
        );
    }
}

#[test]
fn random_stratified_programs_match_the_interpreter() {
    for seed in 0..10u64 {
        let program = random_stratified_program(3, 2, seed);
        let db = random_db(&[("a", 2), ("b", 2)], 12, 7, seed ^ 0xdead);

        let run = |opts| {
            evaluate_with(&program, &db, opts)
                .expect("stratifiable by construction")
                .0
        };
        let kernel = run(EvalOptions::sequential());
        assert_eq!(
            kernel,
            run(EvalOptions::interpreted()),
            "divergence, seed {seed}"
        );
        assert!(db.iter().all(|a| kernel.contains(&a)), "seed {seed}");
    }
}

#[test]
fn generated_cases_match_naive_or_the_interpreter() {
    let spec = RandomProgramSpec {
        rules: 6,
        ..RandomProgramSpec::default()
    };
    let positive = (0..6u64).map(|seed| {
        let program = random_program(&spec, seed.wrapping_mul(977));
        (
            program,
            random_db(&[("a", 2), ("b", 2), ("c", 1)], 8, 5, seed ^ 0xbeef),
        )
    });
    // Stratified negation: a negated predicate's stratum is saturated
    // before any rule that negates it.
    let negated = (0..6u64).map(|seed| {
        let program = random_stratified_program(3, 2, seed.wrapping_mul(977));
        (
            program,
            random_db(&[("a", 2), ("b", 2)], 12, 7, seed ^ 0xbeef),
        )
    });
    for (i, (program, db)) in positive.chain(negated).enumerate() {
        let got = evaluate(&program, &db)
            .expect("stratifiable by construction")
            .0;
        let want = if program.is_positive() {
            naive::evaluate(&program, &db)
        } else {
            evaluate_with(&program, &db, EvalOptions::interpreted())
                .unwrap()
                .0
        };
        assert_eq!(got, want, "case {i}");
    }
}

#[test]
fn bench_workloads_match_naive() {
    // The bench crate's workload generators: a guarded transitive closure
    // over the three standard graph shapes. One guard keeps the er graph's
    // fan-out from exploding the match count (this is a correctness test,
    // not a benchmark).
    let program = guarded_tc(1);
    for kind in ["chain", "cycle", "er"] {
        let db = standard_edb(kind, 32);
        let (out, stats) = evaluate(&program, &db).unwrap();
        assert_eq!(out, naive::evaluate(&program, &db), "{kind}");
        assert_eq!(stats.derivations, (out.len() - db.len()) as u64, "{kind}");
    }
}

#[test]
fn incremental_index_reuse_reports_zero_rebuilds_after_round_one() {
    // The acceptance criterion's observable: across a whole multi-round
    // fixpoint, index builds stay bounded by the number of distinct
    // (pred, positions) patterns — rounds after the first only append.
    let program = guarded_tc(3);
    let db = standard_edb("chain", 64);
    let (_, stats) = evaluate(&program, &db).unwrap();
    assert!(
        stats.iterations > 3,
        "chain workload must be genuinely multi-round (got {})",
        stats.iterations
    );
    let patterns_upper_bound: u64 = program.rules.iter().map(|r| r.body.len() as u64 + 1).sum();
    assert!(
        stats.index_builds <= patterns_upper_bound,
        "index builds ({}) exceed the per-pattern bound ({}): some round rebuilt",
        stats.index_builds,
        patterns_upper_bound
    );
    assert!(stats.index_appends > 0, "appends do the incremental work");
}
