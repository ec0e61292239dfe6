//! Experiment E11 — the paper's §I composition claim: "if the query is
//! going to be computed by the 'magic set' method …, then removing
//! redundant parts can only speed up the computation."
//!
//! Series: magic-sets query evaluation over bloated vs minimized programs,
//! plus magic vs full evaluation as a sanity baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog_ast::parse_atom;
use datalog_bench::standard_edb;
use datalog_engine::{evaluate, magic, EvalOptions, Schedule};
use datalog_generate::bloated_tc;
use datalog_optimizer::minimize_program;
use std::time::Duration;

fn bench_magic_minimized_vs_bloated(c: &mut Criterion) {
    let bloated = bloated_tc(6, 123);
    let (minimized, _) = minimize_program(&bloated).unwrap();
    let query = parse_atom("g(0, X)").unwrap();
    let mut group = c.benchmark_group("magic_speedup/bloated_vs_minimized");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [16usize, 32, 64] {
        let edb = standard_edb("chain", n);
        group.bench_with_input(BenchmarkId::new("magic+bloated", n), &n, |b, _| {
            b.iter(|| {
                magic::answer(
                    std::hint::black_box(&bloated),
                    std::hint::black_box(&edb),
                    &query,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("magic+minimized", n), &n, |b, _| {
            b.iter(|| {
                magic::answer(
                    std::hint::black_box(&minimized),
                    std::hint::black_box(&edb),
                    &query,
                )
            });
        });
    }
    group.finish();
}

fn bench_magic_vs_full(c: &mut Criterion) {
    // Sanity baseline: a bound query over two disjoint components — magic
    // must beat computing the full closure.
    let program = datalog_generate::transitive_closure(datalog_generate::TcVariant::LeftLinear);
    let query = parse_atom("g(0, X)").unwrap();
    let mut group = c.benchmark_group("magic_speedup/magic_vs_full");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [64usize, 128] {
        // Two chains: nodes 0.. and 1000.. — the query only touches one.
        let mut edb = standard_edb("chain", n);
        for (x, y) in datalog_generate::edges(datalog_generate::GraphKind::Chain { n }) {
            edb.insert(datalog_ast::fact("a", [x + 1000, y + 1000]));
        }
        group.bench_with_input(BenchmarkId::new("magic", n), &n, |b, _| {
            b.iter(|| {
                magic::answer(
                    std::hint::black_box(&program),
                    std::hint::black_box(&edb),
                    &query,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&program),
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
    bench_magic_minimized_vs_bloated,
    bench_magic_vs_full
);
criterion_main!(benches);
