//! The §XII extension in action: stratified negation — network reachability
//! with an "unreachable" report — evaluated stratum-by-stratum and
//! minimized with the conservative stratified minimizer.
//!
//! Run with: `cargo run --example stratified_reachability`

use sagiv_datalog::optimizer::minimize_stratified;
use sagiv_datalog::prelude::*;

fn main() {
    let program = parse_program(
        "
        % stratum 0: reachability from monitors
        reach(X) :- monitor(X).
        reach(Y) :- reach(X), link(X, Y).
        reach(Y) :- reach(X), link(X, Y), node(Y).   % node(Y) is redundant here? No —
                                                     % only if every link target is a node;
                                                     % uniformly it must stay. But the whole
                                                     % rule is subsumed by the one above.

        % stratum 1: dark hosts — in the inventory but never reached
        dark(X) :- node(X), node(X), !reach(X).      % duplicated node(X)
        ",
    )
    .unwrap();
    validate(&program).unwrap();

    let strata = DepGraph::new(&program).stratify().unwrap();
    println!(
        "strata: reach={}, dark={}",
        strata[&Pred::new("reach")],
        strata[&Pred::new("dark")]
    );

    let (minimized, removal) = minimize_stratified(&program).unwrap();
    println!("\nminimized stratified program:");
    print!("{minimized}");
    println!("removed {} redundant parts:", removal.len());
    for (idx, atom) in &removal.atoms {
        println!("  - atom {atom} from rule {idx}");
    }
    for rule in &removal.rules {
        println!("  - rule {rule}");
    }

    // A small network: two segments, one without a monitor.
    let edb = parse_database(
        "
        monitor(1).
        node(1). node(2). node(3). node(4). node(5). node(6).
        link(1, 2). link(2, 3). link(3, 1).
        link(4, 5). link(5, 6).
        ",
    )
    .unwrap();

    let full = evaluate(&minimized, &edb, Schedule::Strata, EvalOptions::default())
        .unwrap()
        .0;
    let orig = evaluate(&program, &edb, Schedule::Strata, EvalOptions::default())
        .unwrap()
        .0;
    assert_eq!(
        full, orig,
        "minimization preserved the stratified semantics"
    );

    let reach: Vec<String> = full
        .relation(Pred::new("reach"))
        .map(|t| t[0].to_string())
        .collect();
    let dark: Vec<String> = full
        .relation(Pred::new("dark"))
        .map(|t| t[0].to_string())
        .collect();
    println!("\nreachable: {}", reach.join(", "));
    println!("dark:      {}", dark.join(", "));
    assert_eq!(dark, vec!["4", "5", "6"]);
}
