//! Property-based tests over the whole stack.
//!
//! These check the paper's *theorems* as executable invariants on random
//! programs and databases, rather than on hand-picked examples:
//!
//! * Fig. 2's output is uniformly equivalent to its input and locally
//!   minimal (Theorem 2);
//! * the uniform-containment verdict is sound against a brute-force
//!   enumeration of small databases (Proposition 1: uniform containment
//!   implies containment on every input we can afford to enumerate);
//! * naive evaluation and semi-naive evaluation agree (they compute the
//!   same minimal model, §IV);
//! * magic sets is answer-preserving;
//! * redundancy injections are fully recovered by minimization.

use proptest::prelude::*;
use sagiv_datalog::prelude::*;

/// Random-program strategy: a seed plus light spec variation.
fn spec_strategy() -> impl Strategy<Value = (RandomProgramSpec, u64)> {
    (1usize..=5, 1usize..=3, 2usize..=5, any::<u64>()).prop_map(
        |(rules, max_body, var_pool, seed)| {
            (
                RandomProgramSpec {
                    rules,
                    body_len: (1, max_body),
                    var_pool,
                    ..RandomProgramSpec::default()
                },
                seed,
            )
        },
    )
}

/// `P(d)`, semi-naively.
fn fixpoint(p: &Program, d: &Database) -> Database {
    evaluate(p, d).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn minimization_preserves_uniform_equivalence((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let (min, _) = minimize_program(&p).unwrap();
        prop_assert!(uniformly_equivalent(&min, &p).unwrap());
    }

    #[test]
    fn minimization_result_is_locally_minimal((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let (min, _) = minimize_program(&p).unwrap();
        prop_assert!(is_minimal(&min).unwrap());
    }

    #[test]
    fn minimization_never_grows((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let (min, removal) = minimize_program(&p).unwrap();
        prop_assert!(min.len() <= p.len());
        prop_assert!(min.total_width() <= p.total_width());
        prop_assert_eq!(
            min.len() + removal.rules.len(),
            p.len(),
            "every removed rule is accounted for"
        );
    }

    #[test]
    fn naive_and_seminaive_agree((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let edb = random_db(&[("a", 2), ("b", 2), ("c", 1)], 8, 6, seed);
        let n = naive::evaluate(&p, &edb);
        let s = fixpoint(&p, &edb);
        prop_assert_eq!(n, s);
    }

    #[test]
    fn stratified_agrees_on_positive_programs((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let edb = random_db(&[("a", 2), ("b", 2), ("c", 1)], 6, 5, seed);
        let n = naive::evaluate(&p, &edb);
        prop_assert_eq!(fixpoint(&p, &edb), n);
    }

    #[test]
    fn evaluation_output_contains_input_and_is_a_model((spec, seed) in spec_strategy()) {
        // §IV: P(d) is the minimal model of P containing d — so it contains
        // d and applying P adds nothing.
        let p = random_program(&spec, seed);
        let edb = random_db(&[("a", 2), ("b", 2), ("c", 1), ("p", 2), ("q", 2)], 5, 5, seed);
        let out = fixpoint(&p, &edb);
        prop_assert!(edb.is_subset_of(&out));
        let again = naive::evaluate(&p, &out);
        prop_assert_eq!(again, out);
    }

    #[test]
    fn uniform_containment_is_sound_on_small_databases((spec, seed) in spec_strategy()) {
        // If the §VI test says P2 ⊑u P1, then on every database over a tiny
        // domain, P2's output is contained in P1's (the defining property,
        // sampled). We enumerate databases as random samples rather than
        // exhaustively to keep the budget bounded.
        let p1 = random_program(&spec, seed);
        let p2 = random_program(&spec, seed.wrapping_add(1));
        if uniformly_contains(&p1, &p2).unwrap() {
            for s in 0..6u64 {
                let db = random_db(
                    &[("a", 2), ("b", 2), ("c", 1), ("p", 2), ("q", 2)],
                    4,
                    3,
                    seed.wrapping_add(s),
                );
                let o2 = naive::evaluate(&p2, &db);
                let o1 = naive::evaluate(&p1, &db);
                prop_assert!(
                    o2.is_subset_of(&o1),
                    "claimed P2 ⊑u P1 but output differs on {db}\np1:\n{p1}\np2:\n{p2}"
                );
            }
        }
    }

    #[test]
    fn containment_is_reflexive((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        prop_assert!(uniformly_contains(&p, &p).unwrap());
    }

    #[test]
    fn injected_redundancy_is_recovered(k in 1usize..6, seed in any::<u64>()) {
        // Bloat transitive closure with provably redundant parts; Fig. 2
        // must return something uniformly equivalent AND locally minimal —
        // and for this particular program the minimal form is unique up to
        // renaming, so sizes must come back to the original's.
        let base = transitive_closure(TcVariant::Doubling);
        let bloated = bloated_tc(k, seed);
        let (min, _) = minimize_program(&bloated).unwrap();
        prop_assert!(uniformly_equivalent(&min, &base).unwrap());
        prop_assert!(is_minimal(&min).unwrap());
        prop_assert_eq!(min.len(), base.len(), "bloated:\n{}\nminimized:\n{}", bloated, min);
        prop_assert_eq!(min.total_width(), base.total_width());
    }

    #[test]
    fn magic_sets_preserves_answers(
        n in 2usize..12,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
        src in 0i64..12,
        dst in 0i64..12,
    ) {
        let edb = edge_db("a", GraphKind::ErdosRenyi { n, p, seed });
        let (src, dst) = (Const::Int(src % n as i64), Const::Int(dst % n as i64));
        // One query bound on the first column (`g(c, X)`), one on the second
        // (`g(X, c)`).
        let queries = [
            (atom("g", [Term::Const(src), Term::var("X")]), 0, src),
            (atom("g", [Term::var("X"), Term::Const(dst)]), 1, dst),
        ];
        for variant in [TcVariant::LeftLinear, TcVariant::Doubling] {
            let program = transitive_closure(variant);
            let full = fixpoint(&program, &edb);
            for (query, column, bound) in &queries {
                let got = magic::answer(&program, &edb, query);
                // Reference: full evaluation filtered on the bound column.
                let mut expected = Database::new();
                for t in full.relation(Pred::new("g")) {
                    if t[*column] == *bound {
                        expected.insert(GroundAtom { pred: Pred::new("g"), tuple: t.into() });
                    }
                }
                prop_assert_eq!(got, expected, "{:?}: {}", variant, query);
            }
        }
    }

    #[test]
    fn chase_with_no_tgds_is_plain_evaluation((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let db = random_db(&[("a", 2), ("b", 2), ("c", 1)], 5, 4, seed);
        let result = chase(&p, &[], &db, 1_000_000, None);
        prop_assert_eq!(result.status, ChaseStatus::Saturated);
        prop_assert_eq!(result.db, naive::evaluate(&p, &db));
    }

    #[test]
    fn minimize_is_idempotent((spec, seed) in spec_strategy()) {
        let p = random_program(&spec, seed);
        let (min1, _) = minimize_program(&p).unwrap();
        let (min2, removal2) = minimize_program(&min1).unwrap();
        prop_assert!(removal2.is_empty());
        prop_assert_eq!(min1, min2);
    }

    #[test]
    fn freezing_goal_always_derivable_from_own_program((spec, seed) in spec_strategy()) {
        // r ⊑u P whenever r ∈ P (each rule derives its own frozen head).
        let p = random_program(&spec, seed);
        for r in &p.rules {
            prop_assert!(rule_contained(r, &p));
        }
    }
}

/// Deterministic cross-check kept outside proptest: different minimization
/// orders always land on uniformly-equivalent minimal programs.
#[test]
fn minimization_order_invariance_sample() {
    use datalog_optimizer::minimize_program_in_order;
    let p = parse_program(
        "g(X, Z) :- a(X, Z).
         g(X, Z) :- a(X, Z), a(X, W).
         g(X, Z) :- g(X, Y), g(Y, Z).
         g(X, Z) :- a(X, Y), a(Y, Z).",
    )
    .unwrap();
    let orders: Vec<Vec<usize>> = vec![
        vec![0, 1, 2, 3],
        vec![3, 2, 1, 0],
        vec![1, 3, 0, 2],
        vec![2, 0, 3, 1],
    ];
    let mut results = Vec::new();
    for order in orders {
        let atom_orders: Vec<Vec<usize>> =
            p.rules.iter().map(|r| (0..r.width()).collect()).collect();
        let (min, _) = minimize_program_in_order(&p, &order, &atom_orders).unwrap();
        assert!(uniformly_equivalent(&min, &p).unwrap());
        assert!(is_minimal(&min).unwrap());
        results.push(min);
    }
    for w in results.windows(2) {
        assert!(uniformly_equivalent(&w[0], &w[1]).unwrap());
    }
}

/// Randomized guarded-TC family: doubling TC with randomly-shaped guard
/// atoms appended to the recursive rule. The §X–XI optimizer must only
/// remove atoms when the removal is sound — checked by evaluating original
/// vs optimized on sampled EDBs (plain equivalence is what it claims to
/// preserve).
fn random_guarded_program(seed: u64) -> Program {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = String::from("g(X, Y), g(Y, Z)");
    let guards = rng.gen_range(0..3);
    for i in 0..guards {
        // Guard over a or c, anchored at X, Y, or Z, with a fresh variable.
        let pred = ["a", "c2"][rng.gen_range(0..2)];
        let anchor = ["X", "Y", "Z"][rng.gen_range(0..3)];
        body.push_str(&format!(", {pred}({anchor}, W{i})"));
    }
    let base = if rng.gen_bool(0.5) {
        "g(X, Z) :- a(X, Z)."
    } else {
        "g(X, Z) :- a(X, Z), c2(X, Z)."
    };
    parse_program(&format!("{base} g(X, Z) :- {body}.")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn equivalence_optimizer_is_sound_on_sampled_edbs(seed in any::<u64>(), db_seed in any::<u64>()) {
        let p = random_guarded_program(seed);
        let (optimized, applied) = optimize_under_equivalence(&p, 5_000).unwrap();
        if applied.is_empty() {
            return Ok(()); // nothing claimed, nothing to check
        }
        // Plain equivalence: same output for every EDB (sampled).
        for s in 0..4u64 {
            let edb = random_db(&[("a", 2), ("c2", 2)], 10, 6, db_seed.wrapping_add(s));
            let o1 = fixpoint(&p, &edb);
            let o2 = fixpoint(&optimized, &edb);
            prop_assert_eq!(
                o1, o2,
                "optimizer claimed equivalence but outputs differ\noriginal:\n{}\noptimized:\n{}",
                p, optimized
            );
        }
    }

    #[test]
    fn full_optimize_pipeline_is_sound(seed in any::<u64>(), db_seed in any::<u64>()) {
        let p = random_guarded_program(seed);
        let (optimized, _, _) = optimize(&p, 5_000).unwrap();
        for s in 0..3u64 {
            let edb = random_db(&[("a", 2), ("c2", 2)], 8, 5, db_seed.wrapping_add(s));
            prop_assert_eq!(
                fixpoint(&p, &edb),
                fixpoint(&optimized, &edb)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn incremental_insert_delete_stream_matches_scratch(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0i64..6, 0i64..6, any::<bool>()), 1..15),
    ) {
        use sagiv_datalog::engine::Materialized;
        let program = transitive_closure(TcVariant::LeftLinear);
        let base0 = random_db(&[("a", 2)], 8, 6, seed);
        let mut m = Materialized::new(program.clone(), &base0);
        let mut base = base0;
        for (x, y, insert) in ops {
            let f = fact("a", [x, y]);
            if insert {
                base.insert(f.clone());
                m.insert([f]);
            } else {
                base.remove(&f);
                m.remove([f]);
            }
            prop_assert_eq!(m.database(), &fixpoint(&program, &base));
        }
    }
}

/// Every witness Fig. 2 keeps checks against the program as it stood at
/// its step, a removal decided from an earlier test's witness included
/// (`datalog_oracle::fig2_evidence` replays them): on the shipped examples,
/// on `wide_rule` (one tested chain atom decides the rest) and on random
/// programs of the benchmark corpus's shape.
#[test]
fn fig2_witnesses_check_where_atoms_are_decided() {
    use sagiv_datalog::oracle::fig2_evidence;
    let data = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut programs = Vec::new();
    for entry in std::fs::read_dir(&data).expect("examples/data exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("dl") {
            let src = std::fs::read_to_string(&path).unwrap();
            let unit = parse_unit(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            if unit.program.is_positive() {
                programs.push(unit.program);
            }
        }
    }
    assert!(programs.len() >= 3, "examples/data holds positive programs");
    programs.push(datalog_bench::wide_rule(32));
    for seed in 0..4 {
        let spec = RandomProgramSpec {
            rules: 24,
            ..RandomProgramSpec::default()
        };
        programs
            .push(datalog_generate::inject(&random_program(&spec, seed), spec.rules, 300 + seed).0);
    }
    let before = datalog_optimizer::tally().decided;
    for p in &programs {
        if let Err(why) = fig2_evidence(p) {
            panic!("{why}\nin:\n{p}");
        }
    }
    assert!(
        datalog_optimizer::tally().decided > before + 28,
        "wide_rule(32) alone decides 27"
    );
}
