//! Differential tests for the join kernel.
//!
//! Every join script runs on one batched pipeline (`crates/engine`'s
//! `kernels`): stage 0 enumerates, later stages probe (positive literals) or
//! anti-probe (negated ones). `evaluate_with` under
//! `EvalOptions::interpreted()` runs the same scripts on the row-at-a-time
//! reference interpreter. For every seeded random program the two must be
//! tuple-identical and do the same logical work — `probes`, `matches`,
//! `derivations`.
//!
//! The generator draws what used to decide the executor: 1- to 4-literal
//! bodies, repeated variables, constants, negated literals (one of them
//! ground, so the planner places it first), and a nine-column join key.
//!
//! Existential stages — a probe whose bindings nothing reads again passes a
//! row on at its first verified candidate — change what both executors
//! enumerate, so their shapes are also compared with evaluators that share
//! none of that code: `naive::evaluate`, and `naive::apply_once` where a
//! shape needs negation.
//!
//! So are the head shapes: the kernel drops a task's repeated heads on
//! their source dictionary codes before it builds a tuple, the reference
//! sends every match through the `Const`-level dedup, and the head — its
//! constants, repeated variables, the stages that bind it, a head space on
//! either side of the bitmap's bound — decides what the kernel's filter
//! keys on. In the last probe stage the filter's number is split: the
//! digits the in-flight row fixes are summed once per row, the candidate's
//! own read per candidate, so the last-stage shapes take 0, 1 and 2 digits
//! from the candidate.

use datalog_ast::{
    fact, parse_database, parse_program, Atom, Const, Database, GroundAtom, Literal, Pred, Program,
    Rule, Term, Var,
};
use datalog_engine::context::EvalOptions;
use datalog_engine::{evaluate, evaluate_with, naive, Justification, Materialized, Stats, Traced};
use datalog_generate::{bloated_tc, random_db, random_program, RandomProgramSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random stratified program. Stratum 0 is a positive program over `a`,
/// `b`, `c` defining `p` and `q` with bodies of 1 to 4 literals from a pool
/// of 4 variables (so variables repeat within and across atoms), plus a
/// rule joining `w` and `v` on all nine columns. Stratum 1 defines `r` and
/// `s` the same way over all of those, and every rule of it also carries
/// one or two negated literals on stratum 0 over its bound variables and
/// constants; the first carries a ground one as well.
fn random_case(seed: u64) -> (Program, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let lower = RandomProgramSpec {
        idb: vec![("p".into(), 2), ("q".into(), 2)],
        rules: 5,
        body_len: (1, 4),
        var_pool: 4,
        ..RandomProgramSpec::default()
    };
    let mut rules = random_program(&lower, seed.wrapping_mul(7919)).rules;

    let wide: Vec<Term> = (0..9).map(|i| Term::var(&format!("W{i}"))).collect();
    rules.push(Rule::positive(
        Atom::new("q", vec![wide[0], wide[8]]),
        [Atom::new("w", wide.clone()), Atom::new("v", wide.clone())],
    ));

    let negatable = [("a", 2), ("b", 2), ("c", 1), ("p", 2), ("q", 2)];
    let upper = RandomProgramSpec {
        edb: negatable.iter().map(|&(p, n)| (p.into(), n)).collect(),
        idb: vec![("r".into(), 2), ("s".into(), 1)],
        rules: 4,
        body_len: (1, 3),
        var_pool: 4,
    };
    for (i, mut rule) in (random_program(&upper, seed ^ 0x51ed).rules)
        .into_iter()
        .enumerate()
    {
        let bound: Vec<Var> = rule.vars().into_iter().collect();
        for _ in 0..rng.gen_range(1..=2usize) {
            let (name, arity) = negatable[rng.gen_range(0..negatable.len())];
            let terms = (0..arity)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        Term::Const(rng.gen_range(0..7i64).into())
                    } else {
                        Term::Var(bound[rng.gen_range(0..bound.len())])
                    }
                })
                .collect();
            rule.body.push(Literal::neg(Atom::new(name, terms)));
        }
        if i == 0 {
            let k = Term::Const(rng.gen_range(0..7i64).into());
            rule.body.push(Literal::neg(Atom::new("c", vec![k])));
        }
        rules.push(rule);
    }
    // Nine-column rows: half of `w` is in `v` too, the rest only nearly.
    let mut db = random_db(&[("a", 2), ("b", 2), ("c", 1)], 12, 7, seed ^ 0x3a70);
    for i in 0..12 {
        let mut row: Vec<Const> = (0..9).map(|_| rng.gen_range(0..3i64).into()).collect();
        db.insert(GroundAtom::new("w", row.clone()));
        if i % 2 == 1 {
            row[rng.gen_range(0..9usize)] = Const::Int(3);
        }
        db.insert(GroundAtom::new("v", row));
    }
    (Program::new(rules), db)
}

fn logical(s: &Stats) -> (u64, u64, u64) {
    (s.probes, s.matches, s.derivations)
}

/// Evaluate on the kernel and on the reference: same fixpoint, same
/// logical work, every kernel task on the kernel and none of the
/// reference's. Returns the kernel run.
fn check(program: &Program, db: &Database, what: &str) -> (Database, Stats) {
    let (got, kernel) = evaluate(program, db).unwrap();
    let (want, reference) = evaluate_with(program, db, EvalOptions::interpreted()).unwrap();
    assert_eq!(got, want, "fixpoint, {what}");
    assert_eq!(
        logical(&kernel),
        logical(&reference),
        "probes/matches/derivations, {what}"
    );
    assert!(kernel.specialized_tasks > 0, "{what}");
    assert_eq!(reference.specialized_tasks, 0, "{what}");
    assert_eq!(reference.pipelined_tasks, 0, "{what}");
    (got, kernel)
}

#[test]
fn kernel_matches_the_interpreter_on_random_programs() {
    let mut long_bodies = 0;
    for seed in 0..15u64 {
        let (program, db) = random_case(seed);
        let (_, stats) = check(&program, &db, &format!("seed {seed}"));
        long_bodies += stats.pipelined_tasks;
    }
    assert!(long_bodies > 0, "3+-literal bodies were drawn");
}

#[test]
fn kernel_is_partition_invariant() {
    for seed in 0..8u64 {
        let (program, db) = random_case(seed.wrapping_mul(104_729) + 17);
        let what = format!("seed {seed}");
        let (forward, fwd_stats) = check(&program, &db, &what);
        // The same facts loaded back to front get other row numbers, so
        // stage 0 enumerates them in another order: who finds a match
        // changes, never how many there are.
        let atoms: Vec<GroundAtom> = db.iter().collect();
        let reversed = Database::from_atoms(atoms.into_iter().rev());
        let (backward, bwd_stats) = check(&program, &reversed, &what);
        assert_eq!(backward, forward, "reversed input, {what}");
        assert_eq!(bwd_stats.matches, fwd_stats.matches, "{what}");
        assert_eq!(bwd_stats.derivations, fwd_stats.derivations, "{what}");
    }
}

fn ring(pred: &str, n: i64, step: i64) -> String {
    (0..n)
        .map(|i| format!("{pred}({i}, {}).", (i * step + 1) % n))
        .collect()
}

fn check_source(rules: &str, facts: &str) -> (Database, Stats) {
    let program = parse_program(rules).unwrap();
    let db = parse_database(facts).unwrap();
    check(&program, &db, rules)
}

/// One stage, one probe stage, two probe stages, a repeated variable in the
/// enumerated literal and a constant key the dictionary filter answers.
#[test]
fn positive_shapes() {
    let mut facts = String::from("a(5,5). a(7,9).");
    for i in 0..30 {
        facts.push_str(&format!("a({}, {}).", i, (i * 5 + 2) % 30));
    }
    let (out, stats) = check_source(
        "loop(X) :- a(X, X).\
         g(X, Z) :- a(X, Y), a(Y, Z).\
         h(X, W) :- a(X, Y), a(Y, Z), a(Z, W).\
         pin(X) :- a(7, X).\
         none(X) :- a(99, X).",
        &facts,
    );
    assert!(out.contains(&fact("loop", [5])));
    assert!(out.contains(&fact("pin", [9])));
    assert_eq!(out.relation_len(Pred::new("none")), 0);
    assert!(stats.pipelined_tasks > 0, "the 3-literal rule counts");
    assert!(stats.simd_hash_blocks > 0, "batched key hashing ran");
    assert!(stats.dict_filtered_probes > 0, "99 is in no dictionary");
}

/// Negated literals are anti-probe stages: mid-body, last, with a constant,
/// against a relation that does not exist, and with values the negated
/// relation's dictionary has never seen.
#[test]
fn negated_literals_are_anti_probe_stages() {
    let mut facts = String::from("src(0). e(20, 21). e(21, 20). e(22, 3).");
    facts.push_str(&ring("e", 12, 5));
    for i in 0..24 {
        facts.push_str(&format!("node({i})."));
    }
    let (out, _) = check_source(
        "reach(X) :- src(X).\
         reach(Y) :- reach(X), e(X, Y).\
         dead(X) :- node(X), !reach(X).\
         far(X, Y) :- node(X), !reach(X), e(X, Y), !e(Y, X).\
         odd(X) :- node(X), !e(X, 3), !ghost(X, X).",
        &facts,
    );
    assert!(out.contains(&fact("dead", [20])));
    assert!(!out.contains(&fact("dead", [0])));
    assert!(out.contains(&fact("far", [22, 3])));
    assert!(!out.contains(&fact("far", [20, 21])), "e(21, 20) holds");
    assert!(!out.contains(&fact("odd", [22])), "e(22, 3) holds");
    assert!(out.contains(&fact("odd", [23])));
}

/// A ground negated literal has no variable to wait for, so the planner
/// places it first: a one-shot gate that passes or ends the task, for
/// bodies with and without a positive literal behind it.
#[test]
fn ground_negated_literal_first_is_a_gate() {
    let (out, _) = check_source(
        "open(X) :- !closed(1), a(X, Y).\
         shut(X) :- !closed(2), a(X, Y).\
         flag(7) :- !closed(1).",
        "closed(2). a(1, 2). a(2, 3).",
    );
    assert_eq!(out.relation_len(Pred::new("open")), 2);
    assert_eq!(out.relation_len(Pred::new("shut")), 0);
    assert!(out.contains(&fact("flag", [7])));
}

/// Repeated variables are checked where they occur: in the enumerated
/// literal, in a probed one, and as a repeated argument of a negated one.
#[test]
fn repeated_variables_on_every_stage_kind() {
    let mut facts = ring("a", 9, 2);
    facts.push_str("a(4, 4). b(3, 5, 5). b(3, 5, 6). b(5, 1, 2). b(1, 3, 3).");
    let (out, _) = check_source(
        "loop(X) :- a(X, X).\
         back(X) :- a(X, Y), b(Y, Z, Z).\
         lone(X) :- a(X, Y), !b(X, Y, Y).",
        &facts,
    );
    assert!(out.contains(&fact("loop", [4])));
    assert!(out.contains(&fact("back", [1])), "a(1, 3), b(3, 5, 5)");
    assert!(!out.contains(&fact("back", [2])), "b(5, 1, 2) is not Z, Z");
    assert!(!out.contains(&fact("lone", [1])), "b(1, 3, 3) holds");
    assert!(out.contains(&fact("lone", [2])));
}

/// Seeded rows for the existential shapes. Relation sizes grow in the order
/// `s`, `e`, `f`, `t`, `u`, which is the order the greedy planner breaks its
/// ties in, so a literal's stage follows from the rule text.
fn existential_db(seed: u64) -> Database {
    let mut db = Database::new();
    let sized: [(&[(&str, usize)], usize); 7] = [
        (&[("s", 1)], 4),
        (&[("bad", 1)], 3),
        (&[("e", 2)], 10),
        (&[("f", 2)], 13),
        (&[("t", 2)], 17),
        (&[("u", 2)], 24),
        (&[("r", 3)], 20),
    ];
    for (i, (preds, rows)) in sized.into_iter().enumerate() {
        db.union_with(&random_db(preds, rows, 6, seed * 31 + i as u64));
    }
    db
}

/// One to three existential literals at stage 1, mid-pipeline and last, in
/// full and in delta-led rounds, with a repeated variable inside one (the
/// first candidate is not always a verified one), and the two look-alikes
/// that are *not* existential because the head or a later key reads the
/// binding. Every fixpoint must be the naive evaluator's.
#[test]
fn existential_literals_on_every_stage() {
    let program = parse_program(
        "first(X, Y) :- s(X), e(X, W), t(X, Y).\
         mid(X, Z) :- s(X), t(X, Y), e(Y, W), u(Y, Z).\
         last(X) :- s(X), t(X, Y), e(Y, W).\
         three(X) :- s(X), e(X, W1), e(X, W2), f(X, W3).\
         twice(X) :- s(X), r(X, W, W).\
         read(X, W) :- s(X), e(X, W).\
         keyed(X) :- s(X), e(X, W), f(W, V).\
         g(X, Z) :- t(X, Z).\
         g(X, Z) :- g(X, Y), g(Y, Z), e(Y, W0), e(Y, W1), f(Y, W2).\
         reach(X) :- s(X).\
         reach(Y) :- reach(X), e(X, W), t(X, Y).",
    )
    .unwrap();
    // Alone, `three` matches once per head: three existential stages, none
    // of which multiplies rows. Enumerating every (W1, W2, W3) costs more.
    let three = Program::new(vec![program.rules[3].clone()]);
    let (mut heads, mut enumerated) = (0, 0);
    for seed in 0..10u64 {
        let db = existential_db(seed);
        let what = format!("existential shapes, seed {seed}");
        let want = naive::evaluate(&program, &db);
        let (got, _) = check(&program, &db, &what);
        assert_eq!(got, want, "naive fixpoint, {what}");
        let (out, stats) = check(&three, &db, &what);
        assert_eq!(
            stats.matches,
            out.relation_len(Pred::new("three")) as u64,
            "{what}"
        );
        heads += want.relation_len(Pred::new("three")) as u64;
        // One naive round derives everything, a second finds nothing new.
        enumerated += naive::evaluate_with_stats(&three, &db).1.matches / 2;
    }
    assert!(heads > 0 && enumerated > heads, "{enumerated} vs {heads}");
}

/// A negated literal behind an existential one does not disturb it, and a
/// negated literal that reads the binding keeps the probe exhaustive: with
/// `e(X, 0)`, `e(X, 1)` and `bad(0)`, stopping at the first `W` would lose
/// `X`. The heads occur in no body, so one application of the rules is the
/// fixpoint, and `naive::apply_once` computes it without the engine's
/// executors.
#[test]
fn existential_literal_followed_by_a_negated_one() {
    let program = parse_program(
        "behind(X, Y) :- s(X), e(X, W), t(X, Y), !bad(Y).\
         next(X) :- s(X), !bad(X), e(X, W).\
         reads(X) :- s(X), e(X, W), !bad(W).",
    )
    .unwrap();
    let mut exhaustive = 0;
    for seed in 0..10u64 {
        let db = existential_db(seed);
        let mut want = db.clone();
        want.union_with(&naive::apply_once(&program, &db));
        let what = format!("existential + negation, seed {seed}");
        let (got, _) = check(&program, &db, &what);
        assert_eq!(got, want, "one application, {what}");
        // `reads(X)` although some `e(X, W)` names a bad `W`.
        exhaustive += want
            .relation(Pred::new("reads"))
            .filter(|x| {
                let mut ws = db.relation(Pred::new("e")).filter(|e| e[0] == x[0]);
                ws.any(|e| db.contains_tuple(Pred::new("bad"), &e[1..]))
            })
            .count();
    }
    assert!(exhaustive > 0, "the seeds drew the case that needs every W");
}

/// One-literal rules driven by a delta have no stage 1: no row is ever
/// gathered for a probe.
#[test]
fn one_step_delta_tasks_run_no_probe_stage() {
    let mut facts = ring("a", 9, 2);
    facts.push_str("a(4, 4).");
    let (out, stats) = check_source(
        "g(X, Y) :- a(X, Y). h(X, Y) :- g(X, Y). k(X) :- h(X, X).",
        &facts,
    );
    assert!(out.contains(&fact("k", [4])));
    assert_eq!(stats.batch_probe_rows, 0, "no probe stage ever ran");
}

/// [`check`] for a positive program, whose fixpoint must also be
/// `naive::evaluate`'s. Returns the kernel run.
fn check_positive(program: &Program, db: &Database, what: &str) -> (Database, Stats) {
    let want = naive::evaluate(program, db);
    let (got, stats) = check(program, db, what);
    assert_eq!(got, want, "naive fixpoint, {what}");
    (got, stats)
}

/// Every head shape the kernel's duplicate filter keys on differently: a
/// constant, a repeated variable, variables bound only at stage 0, only by
/// the last stage and by both, all-constant and 0-ary heads, and
/// delta-led tasks whose head values come from the delta relation. Over
/// `existential_db`'s sizes the planner runs `s`, then `e`, then `t`.
#[test]
fn head_shapes() {
    let mut program = parse_program(
        "konst(7, V) :- e(X, W), t(W, V).\
         same(V, V) :- s(X), e(X, W), t(W, V).\
         spread(X, V, X) :- s(X), e(X, W), t(W, V).\
         early(X) :- s(X), e(X, W), t(W, V).\
         late(V) :- s(X), e(X, W), t(W, V).\
         both(X, V) :- s(X), e(X, W), t(W, V).\
         ground(1, 2) :- e(X, W), t(W, V).\
         any :- e(X, W), t(W, V).\
         reach(V) :- s(V).\
         reach(V) :- reach(X), e(X, W), t(W, V).",
    )
    .unwrap();
    program.rules.push(Rule::fact(Atom::new("flag", vec![])));
    program.rules.push(Rule::fact(Atom::new(
        "seed",
        vec![Term::Const(Const::Int(3))],
    )));
    let mut repeats = 0;
    for seed in 0..10u64 {
        let db = existential_db(seed);
        let (out, stats) = check_positive(&program, &db, &format!("head shapes, seed {seed}"));
        assert!(out.contains(&fact("flag", [])) && out.contains(&fact("seed", [3])));
        let late = out.relation_len(Pred::new("late"));
        assert_eq!(out.relation_len(Pred::new("same")), late, "seed {seed}");
        assert!(out.relation_len(Pred::new("any")) <= 1);
        repeats += stats.matches - stats.derivations;
    }
    assert!(repeats > 0, "the seeds drew repeated heads");
}

/// A head space of exactly the bitmap's bound (2 048 x 2 048 bits) and one
/// just above it (2 049 x 2 049, which skips the bitmap): each head is
/// derived once per `k` row, so both sides drop two duplicates per head.
#[test]
fn head_spaces_on_both_sides_of_the_bitmap_bound() {
    let program =
        parse_program("below(X, Y) :- k(Z), e(X, Y). above(X, Y) :- k(Z), f(X, Y).").unwrap();
    let mut db = parse_database("k(1). k(2). k(3).").unwrap();
    // Permutations, so every column holds n distinct values.
    for (pred, n) in [("e", 2048i64), ("f", 2049)] {
        for i in 0..n {
            db.insert(fact(pred, [i, (i * 7 + 1) % n]));
        }
    }
    let (out, stats) = check_positive(&program, &db, "head spaces at the bound");
    assert_eq!(out.relation_len(Pred::new("below")), 2048);
    assert_eq!(out.relation_len(Pred::new("above")), 2049);
    assert_eq!(stats.matches, 3 * (2048 + 2049));
}

/// Seeded rows for the last-stage head shapes: `s`, `e` and the ternary
/// `t` grow in that order, so the planner runs `s`, then `e`, then `t`,
/// and every rule over `s(X), e(X, W), t(W, …)` ends in a probe of `t`.
/// Six values per column make repeated heads common.
fn last_stage_db(seed: u64) -> Database {
    let mut db = Database::new();
    let sized: [(&[(&str, usize)], usize); 3] =
        [(&[("s", 1)], 4), (&[("e", 2)], 12), (&[("t", 3)], 40)];
    for (i, (preds, rows)) in sized.into_iter().enumerate() {
        db.union_with(&random_db(preds, rows, 6, seed * 37 + i as u64));
    }
    db
}

/// The last probe stage numbers a head from two parts: the digits the
/// in-flight row fixes, summed once per row, and the candidate's own, one
/// code read each. Heads that take 0, 1 and 2 digits from the candidate
/// (0 only when the literal is existential), none from the row, a
/// constant, a variable repeated among the candidate's digits and among
/// the row's, and a repeated variable inside the last literal — in full
/// rounds and, through `reach`, in delta-led ones. Every fixpoint must be
/// the naive evaluator's, with the reference's work.
#[test]
fn last_stage_head_digits() {
    let program = parse_program(
        "none(X, W) :- s(X), e(X, W), t(W, V, U).\
         one(X, V) :- s(X), e(X, W), t(W, V, U).\
         two(X, V, U) :- s(X), e(X, W), t(W, V, U).\
         owned(V, U) :- s(X), e(X, W), t(W, V, U).\
         konst(V, 7, X) :- s(X), e(X, W), t(W, V, U).\
         again(V, X, V, U, V) :- s(X), e(X, W), t(W, V, U).\
         fixed(X, X, V) :- s(X), e(X, W), t(W, V, U).\
         diag(X, V) :- s(X), e(X, W), t(W, V, V).\
         reach(X) :- s(X).\
         reach(V) :- reach(X), e(X, W), t(W, V, U).",
    )
    .unwrap();
    let mut repeats = 0;
    for seed in 0..10u64 {
        let db = last_stage_db(seed);
        let what = format!("last-stage heads, seed {seed}");
        let (out, stats) = check_positive(&program, &db, &what);
        let len = |p: &str| out.relation_len(Pred::new(p));
        assert_eq!(len("again"), len("two"), "{what}");
        assert_eq!(len("fixed"), len("one"), "{what}");
        assert_eq!(len("konst"), len("one"), "{what}");
        repeats += stats.matches - stats.derivations;
    }
    assert!(repeats > 0, "the seeds drew repeated heads");
}

/// A negated last literal takes no digit from a candidate: every digit is
/// the in-flight row's. The heads occur in no body, so one application of
/// the rules is the fixpoint, which `naive::apply_once` computes without
/// the engine's executors.
#[test]
fn anti_probe_last_stage_head_digits() {
    let program = parse_program(
        "kept(X, W) :- s(X), e(X, W), !t(W, W, X).\
         lone(W) :- s(X), e(X, W), !t(X, W, W).",
    )
    .unwrap();
    for seed in 0..10u64 {
        let db = last_stage_db(seed);
        let mut want = db.clone();
        want.union_with(&naive::apply_once(&program, &db));
        let what = format!("anti-probe last stage, seed {seed}");
        let (got, _) = check(&program, &db, &what);
        assert_eq!(got, want, "one application, {what}");
    }
}

/// Above the bitmap's bound a task numbers no head: X, V and U have 170
/// values each, and 170³ bits exceed `HEAD_BITS_MAX` (2²² bits). Every
/// head comes twice, once through each of its `X`'s two `W`s, and
/// `emit_head` alone drops the second.
#[test]
fn last_stage_heads_above_the_bitmap_bound() {
    let program = parse_program("big(X, V, U) :- s(X), e(X, W), t(W, V, U).").unwrap();
    let n = 170i64;
    let mut db = Database::new();
    for x in 0..n {
        db.insert(fact("s", [x]));
        db.insert(fact("e", [x, x % 10]));
        db.insert(fact("e", [x, (x + 5) % 10]));
    }
    for w in 0..10 {
        for v in 0..n {
            db.insert(fact("t", [w, v, (v * 7) % n]));
        }
    }
    assert!(n.pow(3) > 1 << 22);
    let (out, stats) = check_positive(&program, &db, "heads above the bitmap bound");
    assert_eq!(out.relation_len(Pred::new("big")) as i64, n * n);
    assert_eq!(stats.matches as i64, 2 * n * n);
}

/// A committing round's dedup arenas are its delta. Two tasks queue the
/// same new head — `h(X)` from its rules over `a` and `b`, `g` from its two
/// recursive rules — and a delta round derives `g`, `k` and `h` at two
/// arities at once. Fixpoint, `derivations` and `tuples_allocated` must not
/// depend on the executor.
#[test]
fn round_arenas_become_the_delta() {
    let program = parse_program(
        "g(X, Z) :- a(X, Z).\
         g(X, Z) :- g(X, Y), a(Y, Z).\
         g(X, Z) :- a(X, Y), g(Y, Z).\
         h(X) :- a(X, Y).\
         h(X) :- b(X, Y).\
         h(Y) :- g(X, Y), b(Y, Z).\
         h(X, Y) :- b(X, Y), g(Y, X).\
         k(Y) :- g(X, Y), b(Y, X).",
    )
    .unwrap();
    let counts = |s: &Stats| (s.derivations, s.tuples_allocated);
    for seed in 0..6u64 {
        let db = random_db(&[("a", 2), ("b", 2)], 30, 12, 0xa7e4 + seed);
        let what = format!("round arenas, seed {seed}");
        let want = naive::evaluate(&program, &db);
        assert_eq!(want.relations_of(Pred::new("h")).len(), 2, "{what}");
        let (_, reference) = evaluate_with(&program, &db, EvalOptions::interpreted()).unwrap();
        let (got, stats) = check(&program, &db, &what);
        assert_eq!(got, want, "naive fixpoint, {what}");
        assert_eq!(counts(&stats), counts(&reference), "{what}");
        // Each derived atom is counted and allocated once.
        let derived = (want.len() - db.len()) as u64;
        assert_eq!(counts(&reference), (derived, want.len() as u64), "{what}");
    }
}

/// The DRed sweep runs the kernel without the database check, so every
/// head it derives — old ones included — must come out once. Removing
/// edges from `bloated_tc`'s view one batch at a time, then putting them
/// back, must land on a from-scratch evaluation every time.
#[test]
fn bloated_tc_remove_matches_a_recompute() {
    let program = bloated_tc(6, 1);
    for seed in 0..4u64 {
        let db = random_db(&[("a", 2)], 40, 16, 0xd7ed + seed);
        let mut m = Materialized::new(program.clone(), &db);
        let edges: Vec<GroundAtom> = db.iter().collect();
        for batch in edges.chunks(7).take(4) {
            let before = m.database().len() as u64;
            let removed = m.remove(batch.iter().cloned());
            let want = evaluate(&program, m.base()).unwrap().0;
            assert_eq!(m.database(), &want, "remove, seed {seed}");
            assert_eq!(removed, before - want.len() as u64, "seed {seed}");
        }
        m.insert(edges);
        assert_eq!(
            m.database(),
            &evaluate(&program, &db).unwrap().0,
            "seed {seed}"
        );
    }
}

/// A traced context records the justification of each head the kernel
/// queues; the filter decides which match that is. Every proof of a
/// `bloated_tc` fixpoint must pass `Proof::check`.
#[test]
fn bloated_tc_explanations_check() {
    let program = bloated_tc(6, 1);
    let db = random_db(&[("a", 2)], 30, 12, 0xe4b1);
    let fixpoint = naive::evaluate(&program, &db);
    let derived: Vec<GroundAtom> = fixpoint.iter().filter(|a| !db.contains(a)).collect();
    assert!(derived.len() > 20);
    let mut traced = Traced::new(&program, db.clone());
    for goal in derived.iter().step_by(derived.len() / 20) {
        let proof = traced.explain(goal).expect("in the fixpoint");
        assert_eq!(&proof.conclusion, goal);
        proof.check(&program, &db).unwrap();
    }
    assert!(traced.explain(&fact("g", [99, 99])).is_none());
    assert_eq!(traced.database(), &fixpoint);
}

/// The bloated TC program carries several recursive rules of one shape, so
/// a delta round runs several tasks that enumerate the same delta and probe
/// the same index; each runs its own pipeline.
#[test]
fn bloated_tc_same_shape_delta_tasks_match_the_interpreter() {
    let program = bloated_tc(6, 99);
    let db = random_db(&[("a", 2)], 24, 12, 0xfeed);
    let (_, stats) = check(&program, &db, "bloated_tc(6, 99)");
    assert!(stats.pipelined_tasks > 0, "bloat rules have 3+ literals");
}

/// Deltas of several in-flight blocks (1 024 rows each) leading tasks whose
/// stage 1 is a probe: every `e` row starts a `p` path, so each round's
/// delta of `p` holds thousands of rows, and each recursive task flushes
/// block after block through a probe of `f` — then, in `two` and `off`,
/// through a second probe and an anti-probe.
#[test]
fn deltas_of_many_blocks_lead_probe_stages() {
    let rules = "p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), f(Y, Z).\
                 two(X, W) :- p(X, Y), f(Y, Z), f(Z, W).\
                 off(X, Z) :- p(X, Y), f(Y, Z), !e(X, Z).";
    let mut facts = String::new();
    for x in 0..3000 {
        facts.push_str(&format!("e({x}, {}).", x % 8));
    }
    for y in 0..8 {
        facts.push_str(&format!("f({y}, {}). f({y}, {}).", y + 1, y + 2));
    }
    let (out, stats) = check_source(rules, &facts);
    assert_eq!(out.relation_len(Pred::new("p")), 19_500);
    assert!(stats.iterations >= 5, "{stats:?}");
    assert!(stats.batch_probe_rows > 10 * 1024, "{stats:?}");
}

/// Long chains: a thousand rows behind each key of `d`, inserted in
/// descending value order — keys 0 to 2 indexed in one build, key 3's rows
/// appended to the built index a round later. A full probe and an
/// existential one walk them alike on both executors, and the existential
/// literal's first verified candidate — the premise the kernel records — is
/// the first row inserted with its key, not the smallest.
#[test]
fn long_chains_hand_out_candidates_in_insertion_order() {
    let rules = "d(K, V) :- e(K, V). d(K, V) :- d(J, V), hop(J, K).\
                 w(K) :- hop(J, K), d(K, V). z(K) :- k0(K). z(K) :- w(K).\
                 all(K, V) :- z(K), d(K, V). first(K) :- z(K), d(K, V).";
    let mut facts = String::from("k0(0). k0(1). k0(2). hop(2, 3).");
    for i in (0..3000).rev() {
        facts.push_str(&format!("e({}, {i}).", i % 3));
    }
    let (out, stats) = check_source(rules, &facts);
    assert_eq!(out.relation_len(Pred::new("all")), 4000);
    assert!(stats.iterations >= 5, "z(3) comes after key 3's chain");

    let program = parse_program(rules).unwrap();
    let mut traced = Traced::new(&program, parse_database(&facts).unwrap());
    for (k, v) in [(0, 2997), (1, 2998), (2, 2999), (3, 2999)] {
        traced.explain(&fact("first", [k])).expect("derived");
        let Some(Justification::Rule { premises, .. }) = traced.justification(&fact("first", [k]))
        else {
            panic!("first({k}) derived by a rule");
        };
        assert_eq!(premises, &[fact("z", [k]), fact("d", [k, v])], "first({k})");
    }
}
