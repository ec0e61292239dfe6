//! Ablation benches for the engine design choices called out in DESIGN.md:
//!
//! * SCC-layered evaluation vs. monolithic semi-naive;
//! * incremental insertion vs. from-scratch re-evaluation;
//! * naive vs. semi-naive (the classic ablation, also in eval_speedup).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog_ast::{fact, parse_program};
use datalog_bench::standard_edb;
use datalog_engine::{evaluate, incremental::Materialized, EvalOptions, Schedule};
use datalog_generate::{edge_db, edges, GraphKind};
use std::time::Duration;

fn bench_scc_layering(c: &mut Criterion) {
    // Cross-tower join (the shape where layering wins).
    let p = parse_program(
        "t1(X, Z) :- e(X, Z). t1(X, Z) :- t1(X, Y), e(Y, Z).
         t2(X, Z) :- f(X, Z). t2(X, Z) :- t2(X, Y), f(Y, Z).
         cross(X, Y) :- t1(X, Y), t2(Y, X).",
    )
    .unwrap();
    let mut group = c.benchmark_group("ablation/scc_layering");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [24usize, 48] {
        let mut db = edge_db("e", GraphKind::Chain { n });
        for (x, y) in edges(GraphKind::Chain { n }) {
            db.insert(fact("f", [y, x]));
        }
        group.bench_with_input(BenchmarkId::new("monolithic", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&p),
                    std::hint::black_box(&db),
                    Schedule::Strata,
                    EvalOptions::default(),
                )
                .unwrap()
                .0
            });
        });
        group.bench_with_input(BenchmarkId::new("scc_layered", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&p),
                    std::hint::black_box(&db),
                    Schedule::Scc,
                    EvalOptions::default(),
                )
                .unwrap()
                .0
            });
        });
    }
    group.finish();
}

fn bench_incremental_vs_scratch(c: &mut Criterion) {
    let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
    let mut group = c.benchmark_group("ablation/incremental");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [64usize, 128] {
        let edb = standard_edb("chain", n);
        // Pre-saturated state missing the final edge.
        let mut base = edb.clone();
        let last = fact("a", [n as i64, n as i64 + 1]);
        let materialized = Materialized::new(p.clone(), &base);
        base.insert(last.clone());

        group.bench_with_input(BenchmarkId::new("insert_one", n), &n, |b, _| {
            b.iter(|| {
                let mut m = materialized.clone();
                m.insert([last.clone()]);
                m
            });
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&p),
                    std::hint::black_box(&base),
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

criterion_group!(benches, bench_scc_layering, bench_incremental_vs_scratch);
criterion_main!(benches);
