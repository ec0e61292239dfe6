//! # datalog-oracle
//!
//! A seeded differential fuzzing subsystem for the `sagiv-datalog`
//! workspace, after Zhang et al., *"Finding Cross-rule Optimization Bugs in
//! Datalog Engines"* (2024): the repo computes the same answers many ways —
//! naive and semi-naive fixpoints, stratified or not, magic-sets
//! query answering, incremental insert/DRed-remove maintenance,
//! §VII uniform-equivalence minimization, the service's view reads beside
//! its magic-sets plans, and racing clients against the concurrent service
//! registry — and precisely that redundancy is the test oracle.
//! Random workloads are generated from `datalog-generate`,
//! every computation path is cross-checked, and any disagreement is shrunk
//! by a delta-debugging reducer into a self-contained fixture that replays
//! as a regression test.
//!
//! * [`workload`] — seeded (program, database, queries, mutations) cases;
//! * [`oracles`] — the divergence checks (engine matrix, optimization
//!   soundness, incremental consistency, view queries, concurrent service,
//!   metamorphic chains);
//! * [`chase`](mod@chase) — the optimization family's `opt:chase` check
//!   against the engine's nested-loop reference, `datalog_engine::naive`;
//! * [`reduce`](mod@reduce) — greedy delta-debugging reduction (rules → atoms →
//!   queries → mutations → facts → constant renumbering);
//! * [`fixture`] — the `.repro` file format under `tests/repros/`;
//! * [`report`] — aggregate results with JSON rendering for CI.
//!
//! Entry point: [`fuzz`] with a [`FuzzConfig`]; the `datalog fuzz` CLI
//! subcommand is a thin wrapper around it.

#![warn(rust_2018_idioms)]

pub mod chase;
pub mod fixture;
pub mod oracles;
pub mod reduce;
pub mod report;
pub mod workload;

pub use fixture::{Fixture, FixtureError};
pub use oracles::{check, fig2_evidence, filtered_fixpoint, Divergence, Family};
pub use reduce::reduce;
pub use report::{Finding, FuzzReport};
pub use workload::{Case, Mutation};

use std::time::Instant;

/// Configuration for a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; case `i` runs on a seed derived from `seed` and `i`.
    pub seed: u64,
    /// Number of cases to attempt (round-robined across `families`).
    pub cases: u64,
    /// Hard wall-clock budget; the run stops early when exceeded, and it
    /// bounds reduction too (see [`fuzz`]).
    pub budget_ms: Option<u64>,
    /// Which oracle families to exercise.
    pub families: Vec<Family>,
    /// Reduce diverging cases to minimal fixtures (on by default; turning
    /// it off reports the raw generated case instead).
    pub reduce: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 300,
            budget_ms: None,
            families: Family::ALL.to_vec(),
            reduce: true,
        }
    }
}

impl FuzzConfig {
    /// The CI smoke configuration: fixed seed, all families, ≥200 cases,
    /// and a hard time budget so a hang cannot stall the pipeline.
    pub fn smoke() -> FuzzConfig {
        FuzzConfig {
            seed: 0x0DA7_A106,
            cases: 240,
            budget_ms: Some(120_000),
            families: Family::ALL.to_vec(),
            reduce: true,
        }
    }
}

/// Derive the per-case seed: a SplitMix64-style mix of base seed and index,
/// so neighbouring indices produce uncorrelated workloads.
pub fn case_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the fuzzer. Deterministic for a fixed config (modulo `elapsed_ms`
/// and early stops under a wall-clock budget).
///
/// The budget bounds reduction as well as the case loop: a finding made
/// after it is spent is reported unreduced, and a reduction it runs out
/// during ends with the smallest case reached (see `reduce_within`).
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let spent = || {
        config
            .budget_ms
            .is_some_and(|budget| start.elapsed().as_millis() as u64 >= budget)
    };
    let mut report = FuzzReport {
        cases_run: config.families.iter().map(|&f| (f, 0)).collect(),
        ..FuzzReport::default()
    };
    if config.families.is_empty() {
        return report;
    }
    for i in 0..config.cases {
        if spent() {
            report.budget_exhausted = true;
            break;
        }
        let family = config.families[(i % config.families.len() as u64) as usize];
        let seed = case_seed(config.seed, i);
        let case = workload::generate(seed, family);
        if let Some(slot) = report.cases_run.iter_mut().find(|(f, _)| *f == family) {
            slot.1 += 1;
        }
        report.eval += oracles::reference_stats(&case);
        let divergences = oracles::check(&case);
        if divergences.is_empty() {
            continue;
        }
        let reduced = if config.reduce {
            reduce_within(&case, &|c| !oracles::check(c).is_empty(), &spent)
        } else {
            None
        };
        let kind = divergences
            .first()
            .map(|d| d.kind.clone())
            .unwrap_or_default();
        let is_reduced = reduced.is_some();
        let fixture = fixture::Fixture::for_case(reduced.unwrap_or(case), &kind).render();
        report.findings.push(report::finding_from(
            seed,
            family,
            &divergences,
            fixture,
            is_reduced,
        ));
    }
    report.elapsed_ms = start.elapsed().as_millis() as u64;
    report
}

/// Reduce `case` while `fails` holds and the time budget lasts: once
/// `spent()`, every check answers "no longer fails", so reduction ends with
/// the smallest case it reached. `None` if the budget was spent before
/// reduction could start.
fn reduce_within(case: &Case, fails: &reduce::Check<'_>, spent: &dyn Fn() -> bool) -> Option<Case> {
    if spent() {
        return None;
    }
    Some(reduce::reduce(case, &|c| !spent() && fails(c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_spreads() {
        let a = case_seed(1, 0);
        let b = case_seed(1, 1);
        let c = case_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, case_seed(1, 0));
    }

    #[test]
    fn tiny_run_terminates() {
        let report = fuzz(&FuzzConfig {
            seed: 1,
            cases: 9,
            budget_ms: Some(60_000),
            families: Family::ALL.to_vec(),
            reduce: false,
        });
        assert_eq!(report.total_cases(), 9);
        assert_eq!(report.cases_run.len(), Family::ALL.len());
        // The reference evaluations' storage work is folded into the report.
        assert!(report.eval.tuples_allocated > 0);
        assert!(report.eval.arena_bytes > 0);
    }

    #[test]
    fn reduction_does_not_start_once_the_budget_is_spent() {
        let case = workload::generate(case_seed(7, 0), Family::Engines);
        let reduced = reduce_within(&case, &|_| panic!("a spent budget runs no check"), &|| true);
        assert!(reduced.is_none());
    }

    #[test]
    fn a_budget_spent_during_reduction_keeps_the_smallest_case_reached() {
        use std::cell::Cell;
        let case = workload::generate(case_seed(7, 0), Family::Engines);
        assert!(case.program.len() >= 2, "{}", case.program.len());
        // Every candidate "fails" until the budget runs out after two
        // checks, each of which drops the program's first rule.
        let checks = Cell::new(0);
        let fails = |_: &Case| {
            checks.set(checks.get() + 1);
            true
        };
        let reduced = reduce_within(&case, &fails, &|| checks.get() >= 2).expect("started");
        assert_eq!(checks.get(), 2);
        assert_eq!(reduced.program.rules[..], case.program.rules[2..]);
    }

    #[test]
    fn zero_budget_stops_immediately() {
        let report = fuzz(&FuzzConfig {
            budget_ms: Some(0),
            ..FuzzConfig::default()
        });
        assert_eq!(report.total_cases(), 0);
        assert!(report.budget_exhausted);
    }
}
