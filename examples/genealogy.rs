//! A genealogy knowledge base: ancestors, common ancestors, and
//! same-generation cousins over named constants — the deductive-database
//! workload the paper's introduction situates itself in, with a magic-sets
//! query on top.
//!
//! Run with: `cargo run --example genealogy`

use sagiv_datalog::prelude::*;

fn main() {
    // Rules as a deductive-database designer might first write them — with
    // organic redundancy: a duplicated base rule written two ways, and a
    // grandparent rule subsumed by ancestor recursion.
    let program = parse_program(
        "
        % ancestry
        anc(X, Y) :- parent(X, Y).
        anc(X, Y) :- parent(X, Y), person(X).     % redundant variant of the base rule
        anc(X, Z) :- parent(X, Y), anc(Y, Z).
        anc(X, Z) :- parent(X, Y), parent(Y, Z).  % subsumed: two steps of the above

        % same generation (cousins included)
        sg(X, Y) :- sibling(X, Y).
        sg(X, Y) :- parent(P, X), parent(Q, Y), sg(P, Q).

        % common ancestors
        common(A, X, Y) :- anc(A, X), anc(A, Y).
        ",
    )
    .unwrap();
    validate_positive(&program).unwrap();

    println!(
        "original program: {} rules, {} body atoms",
        program.len(),
        program.total_width()
    );

    let (minimized, removal) = minimize_program(&program).unwrap();
    println!(
        "minimized:        {} rules, {} body atoms",
        minimized.len(),
        minimized.total_width()
    );
    for (idx, atom) in &removal.atoms {
        println!("  - atom {atom} dropped from rule {idx}");
    }
    for rule in &removal.rules {
        println!("  - rule dropped: {rule}");
    }

    // A concrete family tree.
    let edb = parse_database(
        "
        person(alice). person(bob). person(carol). person(dan).
        person(erin). person(frank). person(gina). person(hank).
        parent(alice, carol). parent(bob, carol).
        parent(alice, dan).   parent(bob, dan).
        parent(carol, erin).  parent(carol, frank).
        parent(dan, gina).    parent(dan, hank).
        sibling(carol, dan). sibling(dan, carol).
        sibling(erin, frank). sibling(frank, erin).
        sibling(gina, hank). sibling(hank, gina).
        ",
    )
    .unwrap();

    let (full, stats) =
        evaluate(&minimized, &edb, Schedule::Strata, EvalOptions::default()).unwrap();
    println!("\nevaluation: {stats}");
    println!("ancestor tuples: {}", full.relation_len(Pred::new("anc")));
    println!(
        "same-generation tuples: {}",
        full.relation_len(Pred::new("sg"))
    );

    // Erin and Gina are same-generation cousins through carol/dan.
    let erin_gina = GroundAtom::new("sg", vec![Const::from("erin"), Const::from("gina")]);
    println!("sg(erin, gina): {}", full.contains(&erin_gina));

    // Magic sets: "who are the ancestors of gina?" touches only gina's
    // lineage, not the whole closure.
    let query = parse_atom("anc(X, gina)").unwrap();
    let (answers, magic_stats) = magic::answer_with_stats(&minimized, &edb, &query);
    println!("\nmagic-sets query anc(X, gina):");
    for a in answers.iter() {
        println!("  {a}");
    }
    println!(
        "magic evaluation derived {} atoms vs {} for the full fixpoint",
        magic_stats.derivations, stats.derivations
    );
    assert!(magic_stats.derivations < stats.derivations);
}
