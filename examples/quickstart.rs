//! Quickstart: parse a Datalog program, minimize it under uniform
//! equivalence (Sagiv 1987, Fig. 2), and evaluate it bottom-up.
//!
//! Run with: `cargo run --example quickstart`

use sagiv_datalog::prelude::*;

fn main() {
    // A transitive-closure program bloated with redundancy: a duplicated
    // atom, a widened atom (the Example 7 pattern), and a rule subsumed by
    // composing the base and doubling rules.
    let source = "
        % transitive closure of edge/2, with planted redundancy
        path(X, Z) :- edge(X, Z).
        path(X, Z) :- path(X, Y), path(Y, Z), edge(X, W).
        path(X, Z) :- edge(X, Y), edge(Y, Z).
    ";
    let program = parse_program(source).expect("parses");
    validate_positive(&program).expect("valid positive Datalog");

    println!(
        "original program ({} rules, {} body atoms):",
        program.len(),
        program.total_width()
    );
    print!("{program}");

    // Fig. 2: remove atoms redundant under uniform equivalence, then rules.
    let (minimized, removal) = minimize_program(&program).expect("minimization");
    println!(
        "\nminimized program ({} rules, {} body atoms):",
        minimized.len(),
        minimized.total_width()
    );
    print!("{minimized}");
    for (rule_idx, atom) in &removal.atoms {
        println!("  - removed redundant atom {atom} from rule {rule_idx}");
    }
    for rule in &removal.rules {
        println!("  - removed redundant rule {rule}");
    }

    // The §X–XI equivalence phase removes edge(X, W), which is redundant
    // under plain equivalence but NOT under uniform equivalence.
    let (optimized, applied) = optimize_under_equivalence(&minimized, 10_000).expect("optimize");
    println!(
        "\nafter equivalence optimization ({} body atoms):",
        optimized.total_width()
    );
    print!("{optimized}");
    for opt in &applied {
        println!(
            "  - tgd {} certified removing {}",
            opt.tgd,
            opt.removed_atoms
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // Evaluate both on the same EDB and confirm agreement + saved work.
    let edb = edge_db("edge", GraphKind::Chain { n: 64 });
    let (out_orig, stats_orig) = evaluate(&program, &edb).unwrap();
    let (out_opt, stats_opt) = evaluate(&optimized, &edb).unwrap();
    assert_eq!(out_orig, out_opt, "optimization preserved the semantics");

    println!("\nevaluation on a 64-edge chain:");
    println!("  original : {stats_orig}");
    println!("  optimized: {stats_opt}");
    println!(
        "  path tuples: {} (identical outputs)",
        out_opt.relation_len(Pred::new("path"))
    );
}
