//! Differential consistency: randomized interleaved insert/remove batches
//! applied through the service layer must leave every served snapshot
//! identical to a from-scratch semi-naive evaluation of the *original*
//! (unoptimized) program over the current base facts. This is the
//! end-to-end guarantee that §VII minimize-on-install plus DRed
//! incremental maintenance never change the semantics of the view.

use datalog_json::Value;
use sagiv_datalog::prelude::*;
use sagiv_datalog::service::Registry;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Render a generated program in parseable surface syntax (mirrors
/// `datalog_bench::portable_source`, which this package can't depend on).
/// `bloated_tc` names fresh variables like `w$123…`; lowercase initials
/// mean constants in the surface grammar, so the prefix must be
/// uppercased to keep them variables.
fn portable_source(program: &Program) -> String {
    let src = program.to_string();
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if chars.peek() == Some(&'$') {
            chars.next();
            out.extend(c.to_uppercase());
            out.push('_');
        } else {
            out.push(c);
        }
    }
    out
}

fn install(registry: &Registry, name: &str, program: &Program) -> Value {
    // Build the request as a JSON value so multi-line program text needs
    // no manual escaping.
    let request = Value::object([
        ("op", Value::from("install")),
        ("program", Value::from(name)),
        ("rules", Value::from(program.to_string())),
    ]);
    let (response, _) = registry.handle(&request);
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    response
}

fn mutate(registry: &Registry, op: &str, name: &str, batch: &[GroundAtom]) {
    let facts = batch
        .iter()
        .map(|f| format!("{f}."))
        .collect::<Vec<_>>()
        .join(" ");
    let request = Value::object([
        ("op", Value::from(op)),
        ("program", Value::from(name)),
        ("facts", Value::from(facts)),
    ]);
    let (response, _) = registry.handle(&request);
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
}

#[test]
fn served_snapshots_match_fresh_evaluation_under_random_batches() {
    for seed in 0..6u64 {
        let source = portable_source(&bloated_tc(3, seed));
        let program = parse_program(&source).unwrap();
        let registry = Registry::new();
        let response = install(&registry, "p", &program);
        let removed = response.get("atoms_removed").unwrap().as_u64().unwrap()
            + response.get("rules_removed").unwrap().as_u64().unwrap();
        assert!(
            removed >= 1,
            "bloated_tc plants redundancy (seed {seed}): {response}"
        );
        let entry = registry.get("p").expect("installed entry");

        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed);
        let mut base = Database::default();
        for step in 0..40 {
            // A batch of 1–3 random edges over a small domain, so removals
            // frequently hit present facts and derivations overlap.
            let batch: Vec<GroundAtom> = (0..rng.gen_range(1..=3usize))
                .map(|_| fact("a", [rng.gen_range(0..7i64), rng.gen_range(0..7i64)]))
                .collect();
            let insert = base.len() < 4 || rng.gen_bool(0.6);
            if insert {
                mutate(&registry, "insert", "p", &batch);
                for f in &batch {
                    base.insert(f.clone());
                }
            } else {
                mutate(&registry, "remove", "p", &batch);
                for f in &batch {
                    base.remove(f);
                }
            }

            let served = entry.view.snapshot();
            let fresh = evaluate(&program, &base).unwrap().0;
            assert_eq!(
                *served, fresh,
                "seed {seed}, step {step}: served snapshot diverged from \
                 fresh evaluation of the unoptimized program"
            );
        }
    }
}

#[test]
fn snapshots_taken_mid_stream_stay_frozen() {
    let program = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
    let registry = Registry::new();
    install(&registry, "tc", &program);
    let entry = registry.get("tc").expect("installed entry");

    mutate(
        &registry,
        "insert",
        "tc",
        &[fact("a", [1, 2]), fact("a", [2, 3])],
    );
    let before = entry.view.snapshot();
    let frozen: Vec<GroundAtom> = before.iter().collect();

    mutate(&registry, "insert", "tc", &[fact("a", [3, 4])]);
    mutate(&registry, "remove", "tc", &[fact("a", [1, 2])]);

    // The old snapshot is untouched by later writes…
    assert_eq!(before.iter().collect::<Vec<_>>(), frozen);
    // …while a new one reflects them exactly.
    let base = parse_database("a(2,3). a(3,4).").unwrap();
    assert_eq!(*entry.view.snapshot(), evaluate(&program, &base).unwrap().0);
}
