//! Every worked example of the paper (Examples 1–19), reproduced end-to-end
//! through the public facade API. Each test cites the example it validates;
//! together they are experiments E1–E9 of DESIGN.md / EXPERIMENTS.md.
//!
//! Concrete-syntax note: the paper writes predicates uppercase and variables
//! lowercase (`G(x, z) :- A(x, z)`); this library's parser uses the Prolog
//! convention, so the same rule reads `g(X, Z) :- a(X, Z)`.

use sagiv_datalog::prelude::*;

/// The program of Example 1: transitive closure with the doubling rule.
fn example1_program() -> Program {
    parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
}

#[test]
fn example_1_classification() {
    // §II–III: G is intentional and recursive; A is extensional.
    let p = example1_program();
    assert!(p.intentional().contains(&Pred::new("g")));
    assert!(p.extensional().contains(&Pred::new("a")));
    let g = DepGraph::new(&p);
    assert!(g.is_recursive());
    assert!(g.is_recursive_pred(Pred::new("g")));
    assert!(!g.is_recursive_pred(Pred::new("a")));
}

#[test]
fn example_2_bottom_up_computation() {
    // §III: EDB {A(1,2), A(1,4), A(4,1)} produces exactly the nine-atom DB
    // given in the paper.
    let edb = parse_database("a(1,2). a(1,4). a(4,1).").unwrap();
    let expected = parse_database(
        "a(1,2). a(1,4). a(4,1).
         g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).",
    )
    .unwrap();
    assert_eq!(naive::evaluate(&example1_program(), &edb), expected);
    let program = example1_program();
    let (out, _) = evaluate(&program, &edb).unwrap();
    assert_eq!(out, expected);
}

#[test]
fn example_3_idb_atoms_as_input() {
    // §III: input {A(1,2), A(1,4), G(4,1)} gives the Example 2 output
    // minus A(4,1).
    let input = parse_database("a(1,2). a(1,4). g(4,1).").unwrap();
    let expected = parse_database(
        "a(1,2). a(1,4).
         g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).",
    )
    .unwrap();
    assert_eq!(naive::evaluate(&example1_program(), &input), expected);
}

#[test]
fn example_4_equivalent_but_not_uniformly() {
    // §IV: P1 (doubling) and P2 (left-linear) are equivalent — they compute
    // the same transitive closure on every EDB — yet not uniformly
    // equivalent: seed G with a non-transitively-closed relation and P1
    // closes it while P2 does not.
    let p1 = example1_program();
    let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();

    // Equivalence on ordinary EDBs (sampled):
    for kind in [
        GraphKind::Chain { n: 6 },
        GraphKind::Cycle { n: 5 },
        GraphKind::ErdosRenyi {
            n: 8,
            p: 0.3,
            seed: 1,
        },
    ] {
        let edb = edge_db("a", kind);
        assert_eq!(
            evaluate(&p1, &edb).unwrap().0,
            evaluate(&p2, &edb).unwrap().0,
            "equivalent on {kind:?}"
        );
    }

    // The paper's separating input: empty A, G not transitively closed.
    let seeded = parse_database("g(1,2). g(2,3).").unwrap();
    let out1 = naive::evaluate(&p1, &seeded);
    let out2 = naive::evaluate(&p2, &seeded);
    assert!(
        out1.contains(&fact("g", [1, 3])),
        "P1 closes the seeded IDB"
    );
    assert!(
        !out2.contains(&fact("g", [1, 3])),
        "P2 leaves the seeded IDB alone"
    );

    // And the formal verdicts:
    assert!(uniformly_contains(&p1, &p2).unwrap(), "P2 ⊑u P1");
    assert!(!uniformly_contains(&p2, &p1).unwrap(), "P1 ⋢u P2");
}

#[test]
fn example_5_adding_a_rule() {
    // §IV: P2 = P1 ∪ {a(X,Z) :- a(X,Y), g(Y,Z)} uniformly contains P1.
    let p1 = example1_program();
    let p2 = parse_program(
        "g(X, Z) :- a(X, Z).
         g(X, Z) :- g(X, Y), g(Y, Z).
         a(X, Z) :- a(X, Y), g(Y, Z).",
    )
    .unwrap();
    assert!(uniformly_contains(&p2, &p1).unwrap());
    // Witness on an actual database:
    let db = parse_database("a(1,2). g(2,3).").unwrap();
    assert!(naive::evaluate(&p1, &db).is_subset_of(&naive::evaluate(&p2, &db)));
}

#[test]
fn example_6_freezing_test() {
    // §VI, in the paper's own steps. P2's first rule: frozen body
    // {a(x0,z0)}; P1 applied yields g(x0,z0) ⊇ goal.
    let p1 = example1_program();
    let r1 = parse_rule("g(X, Z) :- a(X, Z).").unwrap();
    let r2 = parse_rule("g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
    assert!(rule_contained(&r1, &p1));
    assert!(rule_contained(&r2, &p1));

    // Reverse direction: the doubling rule is not contained in P2.
    let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
    let s = parse_rule("g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
    assert!(!rule_contained(&s, &p2));
}

#[test]
fn example_7_uniform_equivalence_with_atom_deleted() {
    // §VI: P1's five-atom rule ≡u P2's four-atom rule.
    let p1 =
        parse_program("g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
    let p2 = parse_program("g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
    assert!(uniformly_equivalent(&p1, &p2).unwrap());
}

#[test]
fn example_8_fig1_minimization() {
    // §VII: Fig. 1 deletes exactly A(w,y), and the result is minimal.
    let r = parse_rule("g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
    let (min, deleted) = minimize_rule(&r).unwrap();
    assert_eq!(
        deleted.iter().map(ToString::to_string).collect::<Vec<_>>(),
        vec!["a(W, Y)"]
    );
    assert_eq!(min.width(), 4);
    assert!(is_minimal(&Program::new(vec![min])).unwrap());
}

#[test]
fn example_9_tgd_satisfaction() {
    // §VIII: over the Example 2 DB, the first tgd is violated at (4,2), the
    // second is satisfied.
    let db = parse_database(
        "a(1,2). a(1,4). a(4,1).
         g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).",
    )
    .unwrap();
    assert!(!satisfies_tgd(
        &db,
        &parse_tgd("g(X, Y) -> a(Y, Z) & a(Z, X).").unwrap()
    ));
    assert!(satisfies_tgd(
        &db,
        &parse_tgd("g(X, Y) -> g(X, Z) & a(Z, Y).").unwrap()
    ));
}

#[test]
fn example_10_full_tgd_as_rules() {
    // §VIII: a full tgd applies exactly like its two decomposed rules.
    let tgd = parse_tgd("a(X, Y, Z) & b(W, Y, V) -> a(X, Y, V) & t(W, Y, Z).").unwrap();
    assert!(tgd.is_full());
    let rules = tgd.to_rules().unwrap();
    assert_eq!(rules.len(), 2);

    let input = parse_database("a(1, 2, 3). b(9, 2, 7).").unwrap();
    let via_chase = chase(&Program::empty(), &[tgd], &input, 1000, None);
    let via_rules = naive::evaluate(&Program::new(rules), &input);
    assert_eq!(via_chase.db, via_rules);
    assert!(via_chase.db.contains(&fact("a", [1, 2, 7])));
    assert!(via_chase.db.contains(&fact("t", [9, 2, 3])));
}

#[test]
fn example_11_chase_with_embedded_tgd() {
    // §VIII: SAT(T) ∩ M(P1) ⊆ M(P2) for T = {g(X,Z) → a(X,W)}.
    let p1 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
    let p2 = example1_program();
    let tgds = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
    assert!(uniformly_contains(&p2, &p1).unwrap(), "P1 ⊑u P2 is easy");
    assert_eq!(models_condition(&p1, &p2, &tgds, 10_000), Proof::Proved);
}

#[test]
fn example_12_nonrecursive_application() {
    // §IX: Pⁿ(d) vs P(d) on d = {A(1,2), G(2,3), G(3,4)}.
    let p = example1_program();
    let d = parse_database("a(1,2). g(2,3). g(3,4).").unwrap();
    let pn = naive::apply_once(&p, &d);
    assert_eq!(pn, parse_database("g(1,2). g(2,4).").unwrap());
    let full = naive::evaluate(&p, &d);
    assert_eq!(
        full,
        parse_database("a(1,2). g(2,3). g(3,4). g(1,2). g(1,3). g(2,4). g(1,4).").unwrap()
    );
}

#[test]
fn examples_13_to_16_preservation() {
    const FUEL: u64 = 10_000;
    // Example 13: single recursive rule preserves g(X,Z) → a(X,W).
    let r13 = parse_program("g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
    let t13 = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
    assert_eq!(preserves_nonrecursively(&r13, &t13, FUEL), Proof::Proved);

    // Example 14: both rules of P1 preserve the same tgd.
    let p14 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
    assert_eq!(preserves_nonrecursively(&p14, &t13, FUEL), Proof::Proved);

    // Example 15: two-atom lhs, four combinations, all pass.
    let t15 = parse_tgds("g(X, Y) & g(Y, Z) -> a(Y, W).").unwrap();
    assert_eq!(preserves_nonrecursively(&r13, &t15, FUEL), Proof::Proved);

    // Example 16: g/c guarded rule preserves g(Y,Z) → g(Y,W) ∧ c(W).
    let r16 = parse_program("g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).").unwrap();
    let t16 = parse_tgds("g(Y, Z) -> g(Y, W) & c(W).").unwrap();
    assert_eq!(preserves_nonrecursively(&r16, &t16, FUEL), Proof::Proved);
}

#[test]
fn example_17_preliminary_db() {
    // §X: Pⁱ(d) and the preliminary DB for the 3-chain.
    let p = example1_program();
    let init = p.initialization_rules();
    assert_eq!(init.len(), 1);
    let d = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
    let pi = naive::apply_once(&init, &d);
    assert_eq!(pi, parse_database("g(1,2). g(2,3). g(3,4).").unwrap());
    let mut preliminary = d.clone();
    preliminary.union_with(&pi);
    assert_eq!(preliminary.len(), 6);
}

#[test]
fn example_18_equivalence_optimization() {
    // §X: the full pipeline concludes P1 ≡ P2 and removes a(Y,W).
    let p1 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
    let (optimized, applied) = optimize_under_equivalence(&p1, 10_000).unwrap();
    assert_eq!(applied.len(), 1);
    assert_eq!(applied[0].removed_atoms[0].to_string(), "a(Y, W)");
    assert_eq!(applied[0].tgd.rhs[0].pred, Pred::new("a"));

    // The optimized program really is equivalent on concrete inputs (and
    // evaluates with strictly fewer matches).
    let edb = edge_db(
        "a",
        GraphKind::ErdosRenyi {
            n: 12,
            p: 0.2,
            seed: 3,
        },
    );
    let (out_orig, stats_orig) = evaluate(&p1, &edb).unwrap();
    let (out_opt, stats_opt) = evaluate(&optimized, &edb).unwrap();
    assert_eq!(out_orig, out_opt);
    assert!(stats_opt.probes <= stats_orig.probes);
}

#[test]
fn example_19_guarded_program_optimization() {
    // §XI: both g(Y,W) and c(W) drop from the recursive rule.
    let p1 = parse_program(
        "g(X, Z) :- a(X, Z), c(Z).
         g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).",
    )
    .unwrap();
    let (optimized, applied) = optimize_under_equivalence(&p1, 10_000).unwrap();
    assert_eq!(applied.len(), 1);
    let removed: Vec<String> = applied[0]
        .removed_atoms
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(removed, vec!["g(Y, W)", "c(W)"]);

    // Equivalence on concrete EDBs (c marks even nodes of a chain).
    let mut edb = edge_db("a", GraphKind::Chain { n: 10 });
    for i in 0..=10i64 {
        if i % 2 == 0 {
            edb.insert(fact("c", [i]));
        }
    }
    assert_eq!(
        evaluate(&p1, &edb).unwrap().0,
        evaluate(&optimized, &edb).unwrap().0
    );
}

// ---------- Edge cases around the §VI/§VII machinery ----------

#[test]
fn containment_with_zero_arity_predicates() {
    let p1 = parse_program("alarm :- sensor(X). alarm :- manual.").unwrap();
    let p2 = parse_program("alarm :- sensor(X).").unwrap();
    assert!(uniformly_contains(&p1, &p2).unwrap());
    assert!(!uniformly_contains(&p2, &p1).unwrap());
}

#[test]
fn minimization_with_constants_in_heads() {
    let p = parse_program(
        "status(1) :- up(X).
         status(1) :- up(X), up(Y).
         status(0) :- down(X).",
    )
    .unwrap();
    let (min, removal) = minimize_program(&p).unwrap();
    assert_eq!(min.len(), 2, "{min}");
    assert_eq!(removal.rules.len(), 1);
    assert!(uniformly_equivalent(&min, &p).unwrap());
}

#[test]
fn chase_goal_in_input_returns_immediately() {
    let p = parse_program("g(X) :- a(X).").unwrap();
    let input = parse_database("g(1).").unwrap();
    let goal = fact("g", [1]);
    let result = chase(&p, &[], &input, 0, Some(&goal)); // zero fuel suffices
    assert_eq!(result.status, ChaseStatus::GoalReached);
    assert_eq!(result.added, 0);
}

#[test]
fn freezing_respects_program_constants() {
    // A rule with the constant 3: the §VI test must keep 3 distinct from
    // every frozen variable (Const::Frozen guarantees it structurally).
    let p1 = parse_program("g(X) :- a(X, 3). g(X) :- g(X).").unwrap();
    let r = parse_rule("g(X) :- a(X, 3), a(X, Y).").unwrap();
    assert!(rule_contained(&r, &p1));
    let r2 = parse_rule("g(X) :- a(X, Y).").unwrap();
    assert!(!rule_contained(&r2, &p1), "a(X, Y) does not imply a(X, 3)");
}

#[test]
fn self_join_rule_minimization() {
    // g(X, Y) :- e(X, Y), e(Y, X), e(X, X): with X=Y unification in play,
    // no atom is redundant (each constrains differently).
    let r = parse_rule("g(X, Y) :- e(X, Y), e(Y, X), e(X, X).").unwrap();
    let (min, deleted) = minimize_rule(&r).unwrap();
    assert!(deleted.is_empty(), "deleted {deleted:?}");
    assert_eq!(min.width(), 3);
}

#[test]
fn wide_disconnected_body_is_not_redundant() {
    // Cartesian bodies: h(X) :- a(X), b(Y), c(Z) — b(Y) and c(Z) are NOT
    // redundant under uniform equivalence (empty b kills the rule).
    let r = parse_rule("h(X) :- a(X), b(Y), c(Z).").unwrap();
    let (min, deleted) = minimize_rule(&r).unwrap();
    assert!(deleted.is_empty());
    assert_eq!(min.width(), 3);
}
