//! The paper's running example (Examples 1, 4, 6, 11, 18): transitive
//! closure in several formulations, and why *uniform* equivalence is the
//! right notion for local optimization.
//!
//! Run with: `cargo run --example transitive_closure`

use sagiv_datalog::prelude::*;

fn main() {
    // Example 1 / 4: two formulations of transitive closure.
    let doubling = transitive_closure(TcVariant::Doubling);
    let left_linear = transitive_closure(TcVariant::LeftLinear);

    println!("P1 (doubling):\n{doubling}");
    println!("P2 (left-linear):\n{left_linear}");

    // They are EQUIVALENT: same output for every EDB.
    let edb = edge_db(
        "a",
        GraphKind::ErdosRenyi {
            n: 15,
            p: 0.15,
            seed: 42,
        },
    );
    let o1 = evaluate(&doubling, &edb, Schedule::Strata, EvalOptions::default())
        .unwrap()
        .0;
    let o2 = evaluate(&left_linear, &edb, Schedule::Strata, EvalOptions::default())
        .unwrap()
        .0;
    assert_eq!(o1, o2);
    println!(
        "on a random 15-node graph both compute {} closure tuples\n",
        o1.relation_len(Pred::new("g"))
    );

    // But NOT uniformly equivalent (Example 4): seed g with a relation that
    // is not its own transitive closure.
    let seeded = parse_database("g(1, 2). g(2, 3).").unwrap();
    let s1 = naive::evaluate(&doubling, &seeded);
    let s2 = naive::evaluate(&left_linear, &seeded);
    println!("seeded with g(1,2), g(2,3) (no a-atoms):");
    println!("  P1 derives g(1,3): {}", s1.contains(&fact("g", [1, 3])));
    println!("  P2 derives g(1,3): {}", s2.contains(&fact("g", [1, 3])));
    println!(
        "  uniform containment verdicts: P2 ⊑u P1: {}, P1 ⊑u P2: {}\n",
        uniformly_contains(&doubling, &left_linear).unwrap(),
        uniformly_contains(&left_linear, &doubling).unwrap(),
    );

    // Example 11/18: the guarded doubling variant carries a redundant guard
    // a(Y, W) — redundant under equivalence, NOT under uniform equivalence.
    let guarded = transitive_closure(TcVariant::GuardedDoubling);
    println!("P1 guarded:\n{guarded}");
    let (min, removal) = minimize_program(&guarded).unwrap();
    println!(
        "Fig. 2 (uniform equivalence) removes {} parts — the guard is safe there",
        removal.len()
    );
    assert_eq!(min, guarded);

    let (optimized, applied) = optimize_under_equivalence(&guarded, 10_000).unwrap();
    println!(
        "§X–XI equivalence optimization removes it via the tgd {}:",
        applied[0].tgd
    );
    print!("{optimized}");

    // Measure the benefit at scale: the doubling program over growing
    // chains, guarded vs optimized.
    println!("\njoin work saved (semi-naive, chain EDBs):");
    println!(
        "{:>8} {:>12} {:>12} {:>8}",
        "n", "probes(P1)", "probes(opt)", "saved"
    );
    for n in [16usize, 32, 64, 128] {
        let edb = edge_db("a", GraphKind::Chain { n });
        let (out_g, stats_g) =
            evaluate(&guarded, &edb, Schedule::Strata, EvalOptions::default()).unwrap();
        let (out_o, stats_o) =
            evaluate(&optimized, &edb, Schedule::Strata, EvalOptions::default()).unwrap();
        assert_eq!(out_g, out_o);
        let saved = 100.0 * (1.0 - stats_o.probes as f64 / stats_g.probes as f64);
        println!(
            "{n:>8} {:>12} {:>12} {saved:>7.1}%",
            stats_g.probes, stats_o.probes
        );
    }
}
