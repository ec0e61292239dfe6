//! Datalog as a program analysis engine: Andersen-style points-to analysis
//! — the workload that made Datalog mainstream in static analysis — run
//! through the Sagiv optimization pipeline.
//!
//! Run with: `cargo run --example points_to`

use sagiv_datalog::engine::Traced;
use sagiv_datalog::prelude::*;

fn main() {
    // Andersen's inclusion-based points-to, with the redundancy a code
    // generator typically leaves behind: a duplicated base rule and a
    // "one-step copy" rule subsumed by the transitive copy rule.
    let program = parse_program(
        "
        % v = &o
        pts(V, O) :- address_of(V, O).
        pts(V, O) :- address_of(V, O), var(V).          % generator artefact

        % v = w
        pts(V, O) :- assign(V, W), pts(W, O).
        pts(V, O) :- assign(V, W), address_of(W, O).    % subsumed one-step copy

        % v = *p
        pts(V, O) :- load(V, P), pts(P, Q), heap(Q, O).

        % *p = w
        heap(Q, O) :- store(P, W), pts(P, Q), pts(W, O).
        ",
    )
    .unwrap();
    validate_positive(&program).unwrap();

    let (minimized, removal) = minimize_program(&program).unwrap();
    println!(
        "minimization: {} rules → {} rules, {} body atoms → {}",
        program.len(),
        minimized.len(),
        program.total_width(),
        minimized.total_width()
    );
    for (idx, a) in &removal.atoms {
        println!("  - dropped atom {a} from rule {idx}");
    }
    for r in &removal.rules {
        println!("  - dropped rule {r}");
    }

    // A small program to analyse:
    //   p = &x; q = &y; r = p; *p = q; s = *r;
    let edb = parse_database(
        "
        var(p). var(q). var(r). var(s).
        address_of(p, x). address_of(q, y).
        assign(r, p).
        store(p, q).
        load(s, r).
        ",
    )
    .unwrap();

    let (result, stats) = evaluate(&minimized, &edb).unwrap();
    assert_eq!(
        result,
        evaluate(&program, &edb).unwrap().0,
        "optimization is sound"
    );

    println!("\npoints-to facts ({stats}):");
    for t in result.relation(Pred::new("pts")) {
        println!("  pts({}, {})", t[0], t[1]);
    }
    for t in result.relation(Pred::new("heap")) {
        println!("  heap({}, {})", t[0], t[1]);
    }

    // s = *r where r = p and *p = q: s points to y.
    let s_to_y = GroundAtom::new("pts", vec![Const::from("s"), Const::from("y")]);
    assert!(result.contains(&s_to_y));
    println!("\ns may point to y: confirmed");

    // Demand-driven variant: "what does s point to?" via magic sets.
    let query = parse_atom("pts(s, O)").unwrap();
    let (answers, q_stats) = magic::answer_with_stats(&minimized, &edb, &query);
    println!("\ndemand-driven query pts(s, O):");
    for a in answers.iter() {
        println!("  {a}");
    }
    println!(
        "derived {} atoms demand-driven vs {} exhaustively",
        q_stats.derivations, stats.derivations
    );

    // Explain WHY s points to y — the provenance proof tree.
    let mut traced = Traced::new(&minimized, edb);
    let proof = traced.explain(&s_to_y).expect("derivable");
    println!("\nderivation of pts(s, y):\n{proof}");
}
