//! Whole-stack pipeline tests: generate → bloat → slice → minimize →
//! equivalence-optimize → (magic) → evaluate, checked against the
//! unoptimized reference at every stage. This is the composition the
//! paper's introduction describes: minimization as a front-end that "can
//! only speed up" whatever evaluation strategy follows.

use sagiv_datalog::engine::Materialized;
use sagiv_datalog::optimizer::slice_for_query;
use sagiv_datalog::prelude::*;

/// Full pipeline on the bloated TC program across several seeds and EDBs.
#[test]
fn bloat_minimize_optimize_evaluate() {
    for seed in [3u64, 17, 4242] {
        let bloated = bloated_tc(5, seed);
        let (minimized, _) = minimize_program(&bloated).unwrap();
        let (optimized, _) = optimize_under_equivalence(&minimized, 10_000).unwrap();

        for kind in [
            GraphKind::Chain { n: 12 },
            GraphKind::Cycle { n: 8 },
            GraphKind::BinaryTree { depth: 3 },
            GraphKind::ErdosRenyi {
                n: 10,
                p: 0.25,
                seed,
            },
        ] {
            let edb = edge_db("a", kind);
            let reference = evaluate(&bloated, &edb).unwrap().0;
            let via_min = evaluate(&minimized, &edb).unwrap().0;
            let via_opt = evaluate(&optimized, &edb).unwrap().0;
            assert_eq!(reference, via_min, "seed {seed}, {kind:?}");
            assert_eq!(reference, via_opt, "seed {seed}, {kind:?}");
        }
    }
}

/// Optimized program composed with magic sets answers queries identically.
#[test]
fn optimize_then_magic_answers_match() {
    let bloated = bloated_tc(4, 99);
    let (optimized, _, _) = optimize(&bloated, 10_000).unwrap();
    let edb = edge_db("a", GraphKind::Chain { n: 20 });
    for src in [0i64, 5, 19] {
        let query = atom("g", [Term::Const(Const::Int(src)), Term::var("X")]);
        let a1 = magic::answer(&bloated, &edb, &query);
        let a2 = magic::answer(&optimized, &edb, &query);
        assert_eq!(a1, a2, "query g({src}, X)");
    }
}

/// Slicing composes with minimization and preserves the query relation.
#[test]
fn slice_then_minimize_preserves_query() {
    let p = parse_program(
        "t(X, Z) :- e(X, Z).
         t(X, Z) :- t(X, Y), e(Y, Z).
         t(X, Z) :- t(X, Y), e(Y, Z), e(Y, W).   % redundant under ≡u? No — under ≡ via tgd? Keep: subsumed by previous rule? It IS uniformly subsumed (W maps to Z).
         noise(X, Y) :- f(X, Y).
         noise(X, Z) :- noise(X, Y), f(Y, Z).",
    )
    .unwrap();
    let sliced = slice_for_query(&p, Pred::new("t"));
    assert_eq!(sliced.len(), 3);
    let (min, removal) = minimize_program(&sliced).unwrap();
    assert!(!removal.is_empty(), "the widened-guard rule is redundant");
    assert_eq!(min.len(), 2);

    let mut edb = edge_db("e", GraphKind::Chain { n: 10 });
    edb.union_with(&edge_db("f", GraphKind::Cycle { n: 5 }));
    let full = evaluate(&p, &edb).unwrap().0;
    let lean = evaluate(&min, &edb).unwrap().0;
    assert_eq!(
        full.relation(Pred::new("t")).collect::<Vec<_>>(),
        lean.relation(Pred::new("t")).collect::<Vec<_>>()
    );
}

/// Incremental maintenance of an optimized program tracks from-scratch
/// evaluation across a stream of insertions.
#[test]
fn incremental_on_optimized_program() {
    let (optimized, _, _) = optimize(&bloated_tc(3, 7), 10_000).unwrap();
    let mut m = Materialized::new(optimized.clone(), &Database::new());
    let mut all_facts = Database::new();
    for (i, (x, y)) in edges(GraphKind::Chain { n: 15 }).into_iter().enumerate() {
        let f = fact("a", [x, y]);
        all_facts.insert(f.clone());
        m.insert([f]);
        if i % 5 == 4 {
            let (scratch, _) = evaluate(&optimized, &all_facts).unwrap();
            assert_eq!(m.database(), &scratch, "after {} insertions", i + 1);
        }
    }
}

/// Semi-naive evaluation of a minimized program agrees with the naive
/// reference.
#[test]
fn minimized_program_agrees_with_naive() {
    let bloated = bloated_tc(4, 1234);
    let (minimized, _) = minimize_program(&bloated).unwrap();
    let edb = edge_db(
        "a",
        GraphKind::ErdosRenyi {
            n: 12,
            p: 0.2,
            seed: 5,
        },
    );
    assert_eq!(
        naive::evaluate(&minimized, &edb),
        evaluate(&minimized, &edb).unwrap().0
    );
}

/// Join-work ordering across the pipeline: optimized ≤ minimized ≤ bloated
/// (measured in index probes on the same EDB).
#[test]
fn probe_counts_improve_monotonically() {
    let bloated = bloated_tc(6, 99);
    let (minimized, _) = minimize_program(&bloated).unwrap();
    let (optimized, _) = optimize_under_equivalence(&minimized, 10_000).unwrap();
    let edb = edge_db("a", GraphKind::Chain { n: 24 });
    let (_, sb) = evaluate(&bloated, &edb).unwrap();
    let (_, sm) = evaluate(&minimized, &edb).unwrap();
    let (_, so) = evaluate(&optimized, &edb).unwrap();
    assert!(
        sm.probes <= sb.probes,
        "minimized {} vs bloated {}",
        sm.probes,
        sb.probes
    );
    assert!(
        so.probes <= sm.probes,
        "optimized {} vs minimized {}",
        so.probes,
        sm.probes
    );
    assert!(
        so.probes < sb.probes,
        "pipeline should strictly reduce probes: {} vs {}",
        so.probes,
        sb.probes
    );
}

use sagiv_datalog::generate::edges;

/// Slicing + magic + optimize all compose and agree with the reference on
/// the genealogy-style workload.
#[test]
fn triple_composition_on_genealogy() {
    let program = parse_program(
        "anc(X, Y) :- parent(X, Y).
         anc(X, Z) :- parent(X, Y), anc(Y, Z).
         anc(X, Z) :- parent(X, Y), anc(Y, Z), parent(X, W).
         junk(X) :- noise(X), noise(X).",
    )
    .unwrap();
    let sliced = slice_for_query(&program, Pred::new("anc"));
    assert_eq!(sliced.len(), 3);
    let (optimized, _, _) = optimize(&sliced, 10_000).unwrap();
    assert_eq!(
        optimized.total_width(),
        3,
        "guard and junk gone: {optimized}"
    );

    let edb = parse_database("parent(1, 2). parent(2, 3). parent(3, 4). parent(1, 5). noise(9).")
        .unwrap();
    let query = parse_atom("anc(1, X)").unwrap();
    let expected = magic::answer(&program, &edb, &query);
    let got = magic::answer(&optimized, &edb, &query);
    assert_eq!(expected, got);
    assert_eq!(got.len(), 4);
}

/// The chase's fuel accounting. The first rule saturation is atomic (rules
/// cannot diverge) and spends no fuel; tgd application is
/// fuel-interruptible per atom a repair and its rule consequences add.
#[test]
fn chase_fuel_boundary() {
    // Rules: even fuel 1 completes the (finite) rule saturation and finds
    // the goal — fuel only gates repairs, not the first rule fixpoint.
    let p = parse_program("b(X) :- a(X). c(X) :- b(X). d(X) :- c(X).").unwrap();
    let input = parse_database("a(1).").unwrap();
    let goal = fact("d", [1]);
    let rules_only = chase(&p, &[], &input, 1, Some(&goal));
    assert_eq!(rules_only.status, ChaseStatus::GoalReached);
    assert_eq!(rules_only.added, 3);

    // Tgds: a three-step full-tgd chain is fuel-interruptible.
    let tgds = parse_tgds("a(X) -> b2(X). b2(X) -> c2(X). c2(X) -> d2(X).").unwrap();
    let goal2 = fact("d2", [1]);
    let enough = chase(&Program::empty(), &tgds, &input, 3, Some(&goal2));
    assert_eq!(enough.status, ChaseStatus::GoalReached);
    let short = chase(&Program::empty(), &tgds, &input, 2, Some(&goal2));
    assert_eq!(short.status, ChaseStatus::OutOfFuel);
}

/// Weak-acyclicity analysis composes with the equivalence pipeline: with a
/// terminating candidate tgd the optimizer succeeds even at fuel 1.
#[test]
fn termination_analysis_lifts_fuel() {
    use sagiv_datalog::optimizer::analyze_termination;
    let guarded =
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
    let tgds = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
    assert!(analyze_termination(&guarded, &tgds).is_guaranteed());
    // Fuel 1 would normally starve the chase; the weak-acyclicity analysis
    // lifts it inside try_candidate.
    let (optimized, applied) = optimize_under_equivalence(&guarded, 1).unwrap();
    assert_eq!(applied.len(), 1, "{applied:?}");
    assert_eq!(optimized.total_width(), 3);
}
