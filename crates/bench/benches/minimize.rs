//! Experiments E5/E6/E12 — cost of Fig. 1 / Fig. 2 minimization.
//!
//! Paper claims: each atom and rule is considered exactly once (§VII,
//! Theorem 2), and the algorithm is "exponential only in the size of the
//! program, which is typically much smaller than the size of the database"
//! (§I) — minimization never touches an EDB at all, so its cost must be
//! flat in EDB size while evaluation cost grows (E12).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog_bench::wide_rule;
use datalog_engine::{evaluate, EvalOptions, Schedule};
use datalog_generate::{bloated_tc, edge_db, GraphKind};
use datalog_optimizer::{minimize_program, minimize_rule};
use std::time::Duration;

fn bench_fig1_rule_width(c: &mut Criterion) {
    // E5: Fig. 1 on Example-7-shaped rules of growing width.
    let mut group = c.benchmark_group("minimize/fig1_rule_width");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for width in [4usize, 6, 8, 10] {
        let rule = wide_rule(width).rules[0].clone();
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| minimize_rule(std::hint::black_box(&rule)).unwrap());
        });
    }
    group.finish();
}

fn bench_fig2_program_size(c: &mut Criterion) {
    // E6: Fig. 2 on transitive closure bloated with k provable redundancies.
    let mut group = c.benchmark_group("minimize/fig2_injected_redundancy");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    // Seed 99 is a representative injection sequence; some seeds produce
    // stacked widened atoms whose containment tests hit the exponential
    // worst case (see containment/guarded_tc) — that behaviour is measured
    // there deliberately, not here.
    for k in [1usize, 3, 6, 9] {
        let program = bloated_tc(k, 99);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| minimize_program(std::hint::black_box(&program)).unwrap());
        });
    }
    group.finish();
}

fn bench_e12_program_vs_edb_cost(c: &mut Criterion) {
    // E12: minimization cost is independent of EDB size; evaluation is not.
    // The minimize series must be flat across n; the evaluate series grows.
    // The evaluate series uses the cheap left-linear TC so the sweep stays
    // tractable — the claim is about *where the costs live*, not about
    // redundancy (that is E10).
    let to_minimize = bloated_tc(4, 99);
    let to_evaluate = datalog_generate::transitive_closure(datalog_generate::TcVariant::LeftLinear);
    let mut group = c.benchmark_group("minimize/e12_cost_split");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for n in [64usize, 256, 512] {
        let edb = edge_db("a", GraphKind::Chain { n });
        group.bench_with_input(BenchmarkId::new("minimize", n), &n, |b, _| {
            // The EDB is irrelevant to minimization — measured to document
            // exactly that.
            b.iter(|| minimize_program(std::hint::black_box(&to_minimize)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("evaluate", n), &n, |b, _| {
            b.iter(|| {
                evaluate(
                    std::hint::black_box(&to_evaluate),
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
    bench_fig1_rule_width,
    bench_fig2_program_size,
    bench_e12_program_vs_edb_cost
);
criterion_main!(benches);
