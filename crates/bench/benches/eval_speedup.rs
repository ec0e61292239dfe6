//! Experiment E10 — the paper's core performance claim (§I/§V): "removing
//! redundant parts can only reduce the time needed to evaluate the query,
//! because it reduces the number of joins done during the evaluation."
//!
//! Series: evaluation time of the original (bloated) program vs its
//! minimized form vs its fully optimized (equivalence-phase) form, for
//! naive and semi-naive engines, over growing chain and Erdős–Rényi EDBs.
//! The shape that must hold: optimized ≤ minimized ≤ original, with the
//! gap growing in the amount of planted redundancy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog_bench::{guarded_tc, standard_edb};
use datalog_engine::{evaluate, naive, EvalOptions, Schedule};
use datalog_generate::bloated_tc;
use datalog_optimizer::{minimize_program, optimize};
use std::time::Duration;

fn bench_seminaive_chain(c: &mut Criterion) {
    let bloated = bloated_tc(6, 99);
    let (minimized, _) = minimize_program(&bloated).unwrap();
    let mut group = c.benchmark_group("eval_speedup/seminaive_chain");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [16usize, 32, 64] {
        let edb = standard_edb("chain", n);
        group.bench_with_input(BenchmarkId::new("bloated", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&bloated),
                    std::hint::black_box(&edb),
                    Schedule::Strata,
                    EvalOptions::default(),
                )
                .unwrap()
                .0
            });
        });
        group.bench_with_input(BenchmarkId::new("minimized", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&minimized),
                    std::hint::black_box(&edb),
                    Schedule::Strata,
                    EvalOptions::default(),
                )
                .unwrap()
                .0
            });
        });
    }
    group.finish();
}

fn bench_naive_chain(c: &mut Criterion) {
    let bloated = bloated_tc(6, 99);
    let (minimized, _) = minimize_program(&bloated).unwrap();
    let mut group = c.benchmark_group("eval_speedup/naive_chain");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [8usize, 16, 32] {
        let edb = standard_edb("chain", n);
        group.bench_with_input(BenchmarkId::new("bloated", n), &n, |b, _| {
            b.iter(|| naive::evaluate(std::hint::black_box(&bloated), std::hint::black_box(&edb)));
        });
        group.bench_with_input(BenchmarkId::new("minimized", n), &n, |b, _| {
            b.iter(|| {
                naive::evaluate(std::hint::black_box(&minimized), std::hint::black_box(&edb))
            });
        });
    }
    group.finish();
}

fn bench_equivalence_phase_guards(c: &mut Criterion) {
    // Guards removable only by the §X–XI equivalence phase.
    let mut group = c.benchmark_group("eval_speedup/equivalence_guards");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let edb = standard_edb("chain", 64);
    for k in [1usize, 2, 4] {
        let guarded = guarded_tc(k);
        let (optimized, _, applied) = optimize(&guarded, 10_000).unwrap();
        assert!(!applied.is_empty());
        group.bench_with_input(BenchmarkId::new("guarded", k), &k, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&guarded),
                    std::hint::black_box(&edb),
                    Schedule::Strata,
                    EvalOptions::default(),
                )
                .unwrap()
                .0
            });
        });
        group.bench_with_input(BenchmarkId::new("optimized", k), &k, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&optimized),
                    std::hint::black_box(&edb),
                    Schedule::Strata,
                    EvalOptions::default(),
                )
                .unwrap()
                .0
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_seminaive_chain,
    bench_naive_chain,
    bench_equivalence_phase_guards
);
criterion_main!(benches);
