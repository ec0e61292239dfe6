//! Experiment E16 — incremental indexes + parallel rule evaluation.
//!
//! Series: fixpoint wall time of the [`EvalContext`]-backed semi-naive
//! evaluator, sequential and parallel at 2 and 4 workers, on bloated
//! transitive-closure workloads over growing chain and cycle EDBs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog_bench::standard_edb;
use datalog_engine::{seminaive, EvalOptions};
use datalog_generate::bloated_tc;
use std::time::Duration;

fn bench_kind(c: &mut Criterion, kind: &str, sizes: &[usize]) {
    let program = bloated_tc(6, 99);
    let mut group = c.benchmark_group(format!("eval_parallel/{kind}"));
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for &n in sizes {
        let edb = standard_edb(kind, n);
        group.bench_with_input(BenchmarkId::new("incr", n), &n, |b, _| {
            b.iter(|| {
                seminaive::evaluate(std::hint::black_box(&program), std::hint::black_box(&edb))
            });
        });
        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel{threads}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        seminaive::evaluate_with_opts(
                            std::hint::black_box(&program),
                            std::hint::black_box(&edb),
                            EvalOptions::with_threads(threads),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_chain(c: &mut Criterion) {
    bench_kind(c, "chain", &[48, 96]);
}

fn bench_cycle(c: &mut Criterion) {
    bench_kind(c, "cycle", &[48, 64]);
}

criterion_group!(benches, bench_chain, bench_cycle);
criterion_main!(benches);
