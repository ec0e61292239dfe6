//! A guided tour of §X–§XI: proving `P2 ⊑ P1` with tuple-generating
//! dependencies, step by step, on the paper's Example 19.
//!
//! Run with: `cargo run --example equivalence_optimization`

use sagiv_datalog::optimizer::chase::Proof;
use sagiv_datalog::prelude::*;

fn main() {
    // Example 19: reachability where every reached node must be certified
    // by c(·). The recursive rule carries g(Y, W), c(W) — an invariant
    // restated, not a constraint.
    let p1 = parse_program(
        "g(X, Z) :- a(X, Z), c(Z).
         g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).",
    )
    .unwrap();
    println!("P1:\n{p1}");

    // Step 0 — uniform equivalence cannot remove anything here.
    let (min, removal) = minimize_program(&p1).unwrap();
    assert!(removal.is_empty());
    println!("Fig. 2 finds nothing: every atom matters under uniform equivalence.\n");
    drop(min);

    // Step 1 — §XI heuristics propose candidate tgds from the recursive rule.
    let rec_rule = &p1.rules[1];
    let candidates = candidate_tgds(rec_rule);
    println!("candidate tgds for `{rec_rule}`:");
    for c in &candidates {
        println!("  {}  (would remove body atoms {:?})", c.tgd, c.removable);
    }
    let candidate = candidates
        .iter()
        .find(|c| c.tgd.to_string() == "g(Y, Z) -> g(Y, W) & c(W).")
        .expect("the paper's tgd is among the candidates");
    let tgds = vec![candidate.tgd.clone()];

    // P2: the recursive rule without the atoms the tgd covers.
    let p2 = parse_program(
        "g(X, Z) :- a(X, Z), c(Z).
         g(X, Z) :- a(X, Y), g(Y, Z).",
    )
    .unwrap();
    println!("\nP2 (candidate deletion applied):\n{p2}");

    // Step 2 — condition (1): SAT(T) ∩ M(P1) ⊆ M(P2), by the [P1, T] chase.
    let c1 = models_condition(&p1, &p2, &tgds, 10_000);
    println!("condition (1)  SAT(T) ∩ M(P1) ⊆ M(P2): {c1:?}");
    assert_eq!(c1, Proof::Proved);

    // Step 3 — condition (2): P1 preserves T (Fig. 3).
    let c2 = preserves_nonrecursively(&p1, &tgds, 10_000);
    println!("condition (2)  P1 preserves T non-recursively: {c2:?}");
    assert_eq!(c2, Proof::Proved);

    // Step 4 — condition (3′): the preliminary DB of P1 satisfies T.
    let c3 = preliminary_db_satisfies(&p1, &tgds);
    println!("condition (3') preliminary DB of P1 satisfies T: {c3}");
    assert!(c3);

    // Together: P2 ⊑ P1; and P1 ⊑u P2 because bodies only shrank.
    println!("\n⇒ P1 ≡ P2: the atoms g(Y, W), c(W) are redundant under EQUIVALENCE.");
    println!("   (They are NOT redundant under uniform equivalence — seed g with");
    println!("    an atom whose target lacks a c-certificate and P1, P2 differ.)\n");

    // The packaged pipeline reaches the same conclusion, checking condition
    // (2) alone: for a §XI candidate, (1) and (3′) follow from (2) and the
    // tgd's shape (see `try_candidate`).
    let (optimized, applied) = optimize_under_equivalence(&p1, 10_000).unwrap();
    assert_eq!(applied.len(), 1);
    assert!(
        uniformly_contains(&optimized, &p2).unwrap()
            && uniformly_contains(&p2, &optimized).unwrap()
    );

    // Demonstrate equivalence concretely, and the uniform-equivalence gap.
    let mut edb = edge_db("a", GraphKind::Chain { n: 30 });
    for i in 0..=30i64 {
        edb.insert(fact("c", [i]));
    }
    assert_eq!(
        evaluate(&p1, &edb).unwrap().0,
        evaluate(&optimized, &edb).unwrap().0
    );
    println!("identical outputs on a 30-chain with full certificates ✓");

    let seeded = parse_database("a(0, 1). g(1, 9).").unwrap(); // 9 has no c-certificate
    let s1 = naive::evaluate(&p1, &seeded);
    let s2 = naive::evaluate(&optimized, &seeded);
    println!(
        "uniform gap on a seeded IDB: P1 derives g(0,9): {}, optimized derives g(0,9): {}",
        s1.contains(&fact("g", [0, 9])),
        s2.contains(&fact("g", [0, 9])),
    );
}
