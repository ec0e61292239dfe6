//! Integration tests for the §XII stratified-negation extension (E14):
//! stratified evaluation, stratum-local minimization, and their interaction
//! — on hand-written and randomly generated stratified programs.

use proptest::prelude::*;
use sagiv_datalog::optimizer::minimize_stratified;
use sagiv_datalog::prelude::*;

fn win_lose_game() -> Program {
    // The classic win/lose program over an acyclic move graph (stratified
    // because moves is acyclic per-stratum here: we model only one
    // negation level: lose needs NO winning move — skip true game theory,
    // use the two-level version).
    parse_program(
        "reachable(X) :- start(X).
         reachable(Y) :- reachable(X), move(X, Y).
         stuck(X) :- position(X), !canmove(X).
         canmove(X) :- move(X, Y).
         losing_end(X) :- reachable(X), stuck(X).",
    )
    .unwrap()
}

#[test]
fn game_positions() {
    let p = win_lose_game();
    let edb = parse_database(
        "start(1). position(1). position(2). position(3). position(4).
         move(1, 2). move(2, 3). move(1, 4).",
    )
    .unwrap();
    let out = evaluate(&p, &edb).unwrap().0;
    // 3 and 4 are stuck; both reachable; both losing ends.
    assert_eq!(out.relation_len(Pred::new("losing_end")), 2);
    assert!(out.contains_tuple(Pred::new("losing_end"), &[Const::Int(3)]));
    assert!(out.contains_tuple(Pred::new("losing_end"), &[Const::Int(4)]));
}

#[test]
fn stratified_minimization_on_game_with_redundancy() {
    let bloated = parse_program(
        "reachable(X) :- start(X).
         reachable(Y) :- reachable(X), move(X, Y).
         reachable(Y) :- reachable(X), move(X, Y), move(X, W).
         stuck(X) :- position(X), position(X), !canmove(X).
         canmove(X) :- move(X, Y).
         losing_end(X) :- reachable(X), stuck(X).",
    )
    .unwrap();
    let (min, removal) = minimize_stratified(&bloated).unwrap();
    assert!(
        removal.len() >= 2,
        "widened rule + duplicate atom: {removal:?}"
    );

    let edb = parse_database(
        "start(1). position(1). position(2). position(3).
         move(1, 2). move(2, 3).",
    )
    .unwrap();
    assert_eq!(
        evaluate(&bloated, &edb).unwrap().0,
        evaluate(&min, &edb).unwrap().0
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn stratified_minimization_preserves_semantics(
        layers in 1usize..4,
        rules_per in 1usize..3,
        seed in any::<u64>(),
        db_seed in any::<u64>(),
    ) {
        let p = random_stratified_program(layers, rules_per, seed);
        let (min, _) = minimize_stratified(&p).unwrap();
        // Compare on random EDBs.
        let edb = random_db(&[("a", 2), ("b", 2)], 8, 5, db_seed);
        let full = evaluate(&p, &edb).unwrap().0;
        let lean = evaluate(&min, &edb).unwrap().0;
        prop_assert_eq!(full, lean, "program:\n{}\nminimized:\n{}", p, min);
    }

    #[test]
    fn stratified_minimization_never_grows(
        layers in 1usize..4,
        rules_per in 1usize..3,
        seed in any::<u64>(),
    ) {
        let p = random_stratified_program(layers, rules_per, seed);
        let (min, removal) = minimize_stratified(&p).unwrap();
        prop_assert!(min.len() <= p.len());
        prop_assert!(min.total_width() <= p.total_width());
        prop_assert_eq!(
            min.total_width() + removal.atoms.len(),
            p.total_width() - removal.rules.iter().map(|r| r.width()).sum::<usize>()
        );
    }

    #[test]
    fn stratified_minimization_is_idempotent(
        layers in 1usize..4,
        rules_per in 1usize..3,
        seed in any::<u64>(),
    ) {
        let p = random_stratified_program(layers, rules_per, seed);
        let (min1, _) = minimize_stratified(&p).unwrap();
        let (min2, removal2) = minimize_stratified(&min1).unwrap();
        prop_assert!(removal2.is_empty(), "second pass removed {removal2:?} from:\n{min1}");
        prop_assert_eq!(min1, min2);
    }

    #[test]
    fn stratified_evaluation_is_deterministic_and_contains_input(
        layers in 1usize..4,
        rules_per in 1usize..3,
        seed in any::<u64>(),
        db_seed in any::<u64>(),
    ) {
        let p = random_stratified_program(layers, rules_per, seed);
        let edb = random_db(&[("a", 2), ("b", 2)], 6, 4, db_seed);
        let o1 = evaluate(&p, &edb).unwrap().0;
        let o2 = evaluate(&p, &edb).unwrap().0;
        prop_assert_eq!(&o1, &o2);
        prop_assert!(edb.is_subset_of(&o1));
    }
}
