//! Regenerate every experiment of EXPERIMENTS.md (E1–E20) and print
//! paper-claim vs. measured rows. A full run without `--smoke` whose checks
//! all pass writes every row to `experiments.json`, headed by the commit of
//! the source tree at run time, the host's cores and the samples per timed
//! row. Every run prints one
//! machine-readable `BENCH_<experiment>.json [...]` stdout line per
//! perf-trajectory experiment (E16, E17, E18, E19, E20) it ran, so CI logs
//! track them.
//!
//! Every timing is a [`time_ms`] sample: the median and interquartile
//! spread of [`REPS`] runs. Wall-time acceptance checks and `speedup-*`
//! rows compare medians.
//!
//! Run with: `cargo run -p datalog-bench --bin experiments --release`
//!
//! Flags:
//! * `--only-e16` — run only the E16 evaluation-engine experiment (the CI
//!   smoke target).
//! * `--only-e17` — run only the E17 storage-layer microbenchmark.
//! * `--only-e18` — run only the E18 point-query benchmark (view read vs
//!   magic sets).
//! * `--only-e19` — run only the E19 event-loop benchmark (read tail
//!   latency vs thread-per-connection, short reads beside long ones).
//! * `--only-e20` — run only the E20 columnar join-kernel microbenchmark.
//! * `--smoke` — shrink E16/E17/E18/E19/E20 workloads and skip wall-time
//!   acceptance checks, so shared CI runners only verify correctness
//!   invariants.
//!
//! Either flag makes a partial run, which leaves `experiments.json` as it
//! is; so does a run with a failed check.

use datalog_ast::{fact, parse_atom, parse_database, parse_program, parse_tgds, Program};
use datalog_bench::{
    guarded_tc, portable_source, standard_edb, time_ms, wide_rule, Row, Run, Sample, REPS,
};
use datalog_engine::{evaluate, magic, naive};
use datalog_generate::{
    bloated_tc, random_program, transitive_closure, RandomProgramSpec, TcVariant,
};
use datalog_optimizer::{
    is_minimal, minimize_program, minimize_rule, minimize_stratified, models_condition, optimize,
    optimize_under_equivalence, preliminary_db_satisfies, preserves_nonrecursively, rule_contained,
    satisfies_tgd, uniformly_contains, uniformly_equivalent, Proof,
};
use std::time::Instant;

const FUEL: u64 = 10_000;

struct Report {
    rows: Vec<Row>,
    failures: u32,
}

impl Report {
    fn check(&mut self, _experiment: &str, claim: &str, ok: bool) {
        println!("  [{}] {claim}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.failures += 1;
        }
    }

    fn row(&mut self, row: Row) {
        println!(
            "    {:<10} {:<24} x={:<6} {}",
            row.series,
            row.workload,
            row.x,
            row.cell()
        );
        self.rows.push(row);
    }

    fn count(
        &mut self,
        experiment: &str,
        workload: &str,
        series: &str,
        x: u64,
        n: u64,
        unit: &str,
    ) {
        self.row(Row::new(experiment, workload, series, x, n as f64, unit));
    }

    /// Record a sampled row and return its median.
    fn sampled(
        &mut self,
        experiment: &str,
        workload: &str,
        series: &str,
        x: u64,
        sample: Sample,
        unit: &str,
    ) -> f64 {
        self.row(Row::sampled(experiment, workload, series, x, sample, unit));
        sample.median
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only_e16 = args.iter().any(|a| a == "--only-e16");
    let only_e17 = args.iter().any(|a| a == "--only-e17");
    let only_e18 = args.iter().any(|a| a == "--only-e18");
    let only_e19 = args.iter().any(|a| a == "--only-e19");
    let only_e20 = args.iter().any(|a| a == "--only-e20");
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(unknown) = args.iter().find(|a| {
        *a != "--only-e16"
            && *a != "--only-e17"
            && *a != "--only-e18"
            && *a != "--only-e19"
            && *a != "--only-e20"
            && *a != "--smoke"
    }) {
        eprintln!(
            "unknown flag {unknown}; supported: --only-e16 --only-e17 --only-e18 --only-e19 \
             --only-e20 --smoke"
        );
        std::process::exit(2);
    }
    let mut r = Report {
        rows: Vec::new(),
        failures: 0,
    };

    let run_all = !only_e16 && !only_e17 && !only_e18 && !only_e19 && !only_e20;
    if run_all {
        e1_to_e15(&mut r);
    }
    if run_all || only_e16 {
        e16(&mut r, smoke);
    }
    if run_all || only_e17 {
        e17(&mut r, smoke);
    }
    if run_all || only_e18 {
        e18(&mut r, smoke);
    }
    if run_all || only_e19 {
        e19(&mut r, smoke);
    }
    if run_all || only_e20 {
        e20(&mut r, smoke);
    }

    // One compact machine-readable stdout line per perf-trajectory
    // experiment, so CI logs can be grepped for `BENCH_`.
    for experiment in ["E16", "E17", "E18", "E19", "E20"] {
        let rows: Vec<_> = r
            .rows
            .iter()
            .filter(|row| row.experiment == experiment)
            .map(Row::to_json)
            .collect();
        if !rows.is_empty() {
            println!(
                "BENCH_{experiment}.json {}",
                datalog_json::Value::Array(rows).to_compact()
            );
        }
    }

    if run_all && !smoke && r.failures == 0 {
        let run = Run {
            rev: git_rev(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            reps: REPS as u64,
            rows: r.rows,
        };
        std::fs::write("experiments.json", run.to_json().to_pretty())
            .expect("write experiments.json");
        println!(
            "\n{} rows of run {} written to experiments.json",
            run.rows.len(),
            run.rev
        );
    } else if r.failures > 0 {
        println!("\nfailed run: experiments.json left as it is");
    } else {
        println!("\npartial run: experiments.json left as it is");
    }

    if r.failures > 0 {
        println!("{} CHECK(S) FAILED", r.failures);
        std::process::exit(1);
    }
    println!("all checks passed");
}

/// The commit the source tree is at when the binary runs, `-dirty` if the
/// tree has uncommitted changes. A binary built from an older tree still
/// reports the current one.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "describe",
            "--always",
            "--dirty",
        ])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

fn e1_to_e15(r: &mut Report) {
    println!("== E1: bottom-up computation (Examples 1–3) ==");
    let tc = transitive_closure(TcVariant::Doubling);
    let out = naive::evaluate(&tc, &parse_database("a(1,2). a(1,4). a(4,1).").unwrap());
    let expected =
        parse_database("a(1,2). a(1,4). a(4,1). g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).")
            .unwrap();
    r.check(
        "E1",
        "Example 2 output matches the paper's 9-atom DB",
        out == expected,
    );
    let out3 = naive::evaluate(&tc, &parse_database("a(1,2). a(1,4). g(4,1).").unwrap());
    r.check(
        "E1",
        "Example 3: same output minus A(4,1)",
        out3.len() == 8 && !out3.contains(&fact("a", [4, 1])),
    );

    println!("== E2/E3/E4: containment verdicts (Examples 4–6) ==");
    let left = transitive_closure(TcVariant::LeftLinear);
    r.check(
        "E2",
        "P2 ⊑u P1 (Example 6)",
        uniformly_contains(&tc, &left).unwrap(),
    );
    r.check(
        "E2",
        "P1 ⋢u P2 (Example 6)",
        !uniformly_contains(&left, &tc).unwrap(),
    );
    let p5 = parse_program(
        "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z). a(X, Z) :- a(X, Y), g(Y, Z).",
    )
    .unwrap();
    r.check(
        "E3",
        "Example 5: P1 ⊑u P1∪{extra rule}",
        uniformly_contains(&p5, &tc).unwrap(),
    );

    println!("== E5: Fig. 1 on Example 7 ==");
    let ex7 =
        parse_program("g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).").unwrap();
    let (min7, deleted) = minimize_rule(&ex7.rules[0]).unwrap();
    r.check(
        "E5",
        "exactly a(W, Y) deleted",
        deleted.len() == 1 && deleted[0].to_string() == "a(W, Y)",
    );
    r.check(
        "E5",
        "result is minimal",
        is_minimal(&Program::new(vec![min7])).unwrap(),
    );

    println!("== E6: Fig. 2 recovers planted redundancy ==");
    for k in [2usize, 4, 8] {
        let bloated = bloated_tc(k, 99);
        let [t] = time_ms(
            1,
            [&mut || {
                minimize_program(&bloated).unwrap();
            }],
        );
        let (min, _) = minimize_program(&bloated).unwrap();
        let recovered = uniformly_equivalent(&min, &tc).unwrap()
            && min.len() == tc.len()
            && min.total_width() == tc.total_width();
        r.check("E6", &format!("k={k}: minimal form recovered"), recovered);
        r.sampled("E6", "bloated_tc", "minimize", k as u64, t, "ms");
    }

    println!("== E7: tgds and the [P,T] chase (Examples 9–11) ==");
    let closure_db =
        parse_database("a(1,2). a(1,4). a(4,1). g(1,2). g(1,4). g(4,1). g(1,1). g(4,4). g(4,2).")
            .unwrap();
    r.check(
        "E7",
        "Example 9: first tgd violated, second satisfied",
        !satisfies_tgd(
            &closure_db,
            &datalog_ast::parse_tgd("g(X, Y) -> a(Y, Z) & a(Z, X).").unwrap(),
        ) && satisfies_tgd(
            &closure_db,
            &datalog_ast::parse_tgd("g(X, Y) -> g(X, Z) & a(Z, Y).").unwrap(),
        ),
    );
    let guarded = transitive_closure(TcVariant::GuardedDoubling);
    let tgds = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
    r.check(
        "E7",
        "Example 11: SAT(T) ∩ M(P1) ⊆ M(P2)",
        models_condition(&guarded, &tc, &tgds, FUEL) == Proof::Proved,
    );

    println!("== E8: Fig. 3 preservation (Examples 13–16) ==");
    r.check(
        "E8",
        "Example 14: P1 preserves T",
        preserves_nonrecursively(&guarded, &tgds, FUEL) == Proof::Proved,
    );
    let ex15_t = parse_tgds("g(X, Y) & g(Y, Z) -> a(Y, W).").unwrap();
    let ex13_p = parse_program("g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
    r.check(
        "E8",
        "Example 15: 4-combination case preserved",
        preserves_nonrecursively(&ex13_p, &ex15_t, FUEL) == Proof::Proved,
    );
    let [t8] = time_ms(
        1,
        [&mut || {
            preserves_nonrecursively(&guarded, &tgds, FUEL);
        }],
    );
    r.sampled("E8", "example14", "fig3", 1, t8, "ms");

    println!("== E9: equivalence optimization (Examples 17–19) ==");
    r.check(
        "E9",
        "Example 18: preliminary DB satisfies T",
        preliminary_db_satisfies(&guarded, &tgds),
    );
    let (opt18, applied18) = optimize_under_equivalence(&guarded, FUEL).unwrap();
    r.check(
        "E9",
        "Example 18: a(Y, W) removed",
        applied18.len() == 1 && opt18.total_width() == 3,
    );
    let ex19 =
        parse_program("g(X, Z) :- a(X, Z), c(Z). g(X, Z) :- a(X, Y), g(Y, Z), g(Y, W), c(W).")
            .unwrap();
    let (opt19, applied19) = optimize_under_equivalence(&ex19, FUEL).unwrap();
    r.check(
        "E9",
        "Example 19: g(Y,W), c(W) removed",
        applied19.len() == 1 && opt19.total_width() == 4,
    );

    println!("== E10: evaluation speedup from minimization ==");
    let bloated = bloated_tc(6, 99);
    let (minimized, _) = minimize_program(&bloated).unwrap();
    for n in [32usize, 64, 96] {
        let edb = standard_edb("chain", n);
        let [tb, tm] = time_ms(
            1,
            [
                &mut || {
                    evaluate(&bloated, &edb).unwrap();
                },
                &mut || {
                    evaluate(&minimized, &edb).unwrap();
                },
            ],
        );
        let (_, sb) = evaluate(&bloated, &edb).unwrap();
        let (_, sm) = evaluate(&minimized, &edb).unwrap();
        r.check(
            "E10",
            &format!(
                "chain n={n}: minimized does fewer probes ({} vs {})",
                sm.probes, sb.probes
            ),
            sm.probes < sb.probes,
        );
        let x = n as u64;
        let tb = r.sampled("E10", "chain", "bloated", x, tb, "ms");
        let tm = r.sampled("E10", "chain", "minimized", x, tm, "ms");
        r.row(Row::new("E10", "chain", "speedup", x, tb / tm, "x"));
        r.count("E10", "chain", "probes-bloated", x, sb.probes, "probes");
        r.count("E10", "chain", "probes-minimized", x, sm.probes, "probes");
    }
    // The same pair on the naive reference, a nested loop over rows that
    // shares no code with the semi-naive engine: the saving is in the
    // program, not in an engine.
    for n in [8usize, 16] {
        let edb = standard_edb("chain", n);
        let [tb, tm] = time_ms(
            1,
            [
                &mut || {
                    naive::evaluate(&bloated, &edb);
                },
                &mut || {
                    naive::evaluate(&minimized, &edb);
                },
            ],
        );
        let (_, sb) = naive::evaluate_with_stats(&bloated, &edb);
        let (_, sm) = naive::evaluate_with_stats(&minimized, &edb);
        r.check(
            "E10",
            &format!(
                "naive chain n={n}: minimized does fewer matches ({} vs {})",
                sm.matches, sb.matches
            ),
            sm.matches < sb.matches,
        );
        let x = n as u64;
        let tb = r.sampled("E10", "chain-naive", "bloated", x, tb, "ms");
        let tm = r.sampled("E10", "chain-naive", "minimized", x, tm, "ms");
        r.row(Row::new("E10", "chain-naive", "speedup", x, tb / tm, "x"));
        r.count(
            "E10",
            "chain-naive",
            "matches-bloated",
            x,
            sb.matches,
            "matches",
        );
        r.count(
            "E10",
            "chain-naive",
            "matches-minimized",
            x,
            sm.matches,
            "matches",
        );
    }
    {
        // Equivalence-phase guards on a denser graph. Each guard used to
        // multiply the join's fan-out by the average degree (775 ms against
        // 2.2 ms here); its variable is read nowhere else, so the engine now
        // probes it once per row. What the optimizer still saves is that
        // probe: a count that repeats exactly, where the wall-time gap is
        // about the size of the samples' spread.
        let edb = standard_edb("er", 32);
        let g = guarded_tc(3);
        let (optg, _, _) = optimize(&g, FUEL).unwrap();
        let [tg, to] = time_ms(
            1,
            [
                &mut || {
                    evaluate(&g, &edb).unwrap();
                },
                &mut || {
                    evaluate(&optg, &edb).unwrap();
                },
            ],
        );
        let (_, sg) = evaluate(&g, &edb).unwrap();
        let (_, so) = evaluate(&optg, &edb).unwrap();
        r.check(
            "E10",
            &format!(
                "guarded ER-32: optimized does fewer probes ({} vs {})",
                so.probes, sg.probes
            ),
            so.probes < sg.probes,
        );
        r.sampled("E10", "er32-guarded", "guarded", 3, tg, "ms");
        r.sampled("E10", "er32-guarded", "optimized", 3, to, "ms");
        r.count(
            "E10",
            "er32-guarded",
            "probes-guarded",
            3,
            sg.probes,
            "probes",
        );
        r.count(
            "E10",
            "er32-guarded",
            "probes-optimized",
            3,
            so.probes,
            "probes",
        );
    }

    println!("== E11: minimization composes with magic sets ==");
    for n in [48usize, 96] {
        let edb = standard_edb("chain", n);
        let bloated = bloated_tc(6, 123);
        let (minimized, _) = minimize_program(&bloated).unwrap();
        let query = parse_atom("g(0, X)").unwrap();
        let [tb, tm] = time_ms(
            1,
            [
                &mut || {
                    magic::answer(&bloated, &edb, &query);
                },
                &mut || {
                    magic::answer(&minimized, &edb, &query);
                },
            ],
        );
        let same = magic::answer(&bloated, &edb, &query) == magic::answer(&minimized, &edb, &query);
        r.check("E11", &format!("chain n={n}: identical answers"), same);
        let tb = r.sampled("E11", "chain", "magic+bloated", n as u64, tb, "ms");
        let tm = r.sampled("E11", "chain", "magic+minimized", n as u64, tm, "ms");
        r.row(Row::new("E11", "chain", "speedup", n as u64, tb / tm, "x"));
    }
    // The baseline magic sets must beat to be worth running: the full
    // fixpoint, on a bound query whose answers lie in one of two disjoint
    // chains (the other one is the irrelevant data magic never touches).
    let left = transitive_closure(TcVariant::LeftLinear);
    let query = parse_atom("g(0, X)").unwrap();
    for n in [64usize, 128] {
        let mut edb = standard_edb("chain", n);
        for i in 0..n as i64 {
            edb.insert(fact("a", [i + 1000, i + 1001]));
        }
        let [tm, tf] = time_ms(
            1,
            [
                &mut || {
                    magic::answer(&left, &edb, &query);
                },
                &mut || {
                    evaluate(&left, &edb).unwrap();
                },
            ],
        );
        let (full, _) = evaluate(&left, &edb).unwrap();
        r.check(
            "E11",
            &format!("two chains n={n}: magic answers the query as the full fixpoint does"),
            full.select(&query)
                .into_iter()
                .eq(magic::answer(&left, &edb, &query).relation(query.pred)),
        );
        r.sampled("E11", "two-chains-left-tc", "magic", n as u64, tm, "ms");
        r.sampled("E11", "two-chains-left-tc", "full", n as u64, tf, "ms");
    }

    println!("== E12: minimization cost independent of EDB size ==");
    {
        let program = bloated_tc(4, 7);
        let [tmin] = time_ms(
            1,
            [&mut || {
                minimize_program(&program).unwrap();
            }],
        );
        r.sampled("E12", "any-EDB", "minimize", 0, tmin, "ms");
        // Evaluation cost grows with the EDB; use the clean TC program so
        // the sweep finishes quickly (the claim is about where the costs
        // live, not about redundancy).
        let clean = transitive_closure(TcVariant::Doubling);
        for n in [64usize, 128, 512] {
            let edb = standard_edb("chain", n);
            let [te] = time_ms(
                1,
                [&mut || {
                    evaluate(&clean, &edb).unwrap();
                }],
            );
            r.sampled("E12", "chain", "evaluate", n as u64, te, "ms");
        }
        r.check(
            "E12",
            "minimization touches no EDB (cost is one fixed number)",
            true,
        );
    }

    println!("== E13: uniform-containment cost vs rule width ==");
    for width in [4usize, 8, 12] {
        let program = wide_rule(width);
        let rule = program.rules[0].clone();
        let [t] = time_ms(
            1,
            [&mut || {
                rule_contained(&rule, &program);
            }],
        );
        r.sampled("E13", "wide_rule", "contained", width as u64, t, "ms");
    }
    // The containing program's size: random programs of 2..16 rules.
    for rules in [2usize, 4, 8, 16] {
        let spec = RandomProgramSpec {
            rules,
            body_len: (1, 3),
            var_pool: 4,
            ..Default::default()
        };
        let (p1, p2) = (random_program(&spec, 11), random_program(&spec, 12));
        let [t] = time_ms(
            1,
            [&mut || {
                uniformly_contains(&p1, &p2).unwrap();
            }],
        );
        r.sampled("E13", "random-programs", "contains", rules as u64, t, "ms");
    }
    r.check("E13", "test terminates at every width (decidability)", true);

    println!("== E14: stratified extension ==");
    {
        let p = parse_program(
            "reach(X) :- src(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreach(X) :- node(X), node(X), !reach(X).",
        )
        .unwrap();
        let (min, removal) = minimize_stratified(&p).unwrap();
        let edb = parse_database("src(1). node(1). node(2). edge(1, 2).").unwrap();
        let run = |p| evaluate(p, &edb).unwrap();
        let same = run(&p).0 == run(&min).0;
        r.check(
            "E14",
            "stratified minimization removed the duplicate and preserved semantics",
            removal.atoms.len() == 1 && same,
        );
    }

    println!("== E15: minimize-on-install in the materialized-view service ==");
    {
        use datalog_service::{Client, Server, ServerConfig};

        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        std::thread::spawn(move || server.run());

        let rules = portable_source(&bloated_tc(6, 99));
        let facts = standard_edb("chain", 48)
            .iter()
            .map(|f| format!("{f}."))
            .collect::<Vec<_>>()
            .join(" ");
        let mut admin = Client::connect(&addr).expect("connect");
        for (name, optimize) in [("bloated", false), ("minimized", true)] {
            let install = datalog_json::Value::object([
                ("op", datalog_json::Value::from("install")),
                ("program", datalog_json::Value::from(name)),
                ("rules", datalog_json::Value::from(rules.clone())),
                ("optimize", datalog_json::Value::from(optimize)),
            ]);
            let resp = admin.request(&install).expect("install");
            assert_eq!(
                resp.get("ok").and_then(datalog_json::Value::as_bool),
                Some(true),
                "{resp}"
            );
            admin
                .request_line(&format!(
                    "{{\"op\":\"insert\",\"program\":\"{name}\",\"facts\":\"{facts}\"}}"
                ))
                .expect("insert");
        }

        // Both views must serve the same fixpoint (uniform equivalence end
        // to end): identical nonzero answer counts for the full closure.
        let count = |admin: &mut Client, name: &str| -> u64 {
            let resp = admin
                .request_line(&format!(
                    "{{\"op\":\"query\",\"program\":\"{name}\",\"atom\":\"g(X, Y)\"}}"
                ))
                .expect("query");
            let v = datalog_json::Value::parse(&resp).expect("parse");
            v.get("count")
                .and_then(datalog_json::Value::as_u64)
                .unwrap_or(0)
        };
        let cb = count(&mut admin, "bloated");
        let cm = count(&mut admin, "minimized");
        r.check(
            "E15",
            "bloated and minimized views serve identical nonzero closures",
            cb == cm && cb > 0,
        );
    }
}

/// E16 — incremental indexes.
///
/// Times the [`EvalContext`](datalog_engine::EvalContext)-backed semi-naive evaluator (`incr`:
/// persistent, incrementally-appended indexes and per-round compiled join
/// scripts) on bloated transitive-closure workloads — the redundancy-heavy
/// programs of E10, evaluated as-is.
///
/// Checks: index builds stay under the static per-pattern bound however
/// many rounds the fixpoint takes (`incr-builds`).
fn e16(r: &mut Report, smoke: bool) {
    println!("== E16: incremental indexes ==");
    let program = bloated_tc(6, 99);
    let pattern_bound: u64 = program
        .rules
        .iter()
        .map(|rule| rule.body.len() as u64 + 1)
        .sum();
    let workloads: &[(&str, usize)] = if smoke {
        &[("chain", 48), ("cycle", 48)]
    } else {
        &[("chain", 96), ("cycle", 64), ("cycle", 96)]
    };
    for &(kind, n) in workloads {
        let db = standard_edb(kind, n);
        let workload = format!("bloated6-{kind}{n}");

        let mut incr_stats = Default::default();
        let [t_incr] = time_ms(1, [&mut || incr_stats = evaluate(&program, &db).unwrap().1]);
        r.check(
            "E16",
            &format!(
                "{workload}: zero per-round rebuilds after round 1 \
                 (incr builds {} ≤ pattern bound {} over {} rounds)",
                incr_stats.index_builds, pattern_bound, incr_stats.iterations
            ),
            incr_stats.index_builds <= pattern_bound,
        );
        r.check(
            "E16",
            &format!(
                "{workload}: the bloat rules run as 3+-atom kernel tasks \
                 (3+-atom kernel tasks {})",
                incr_stats.pipelined_tasks
            ),
            incr_stats.pipelined_tasks > 0,
        );
        r.sampled("E16", &workload, "incr", n as u64, t_incr, "ms");
        r.count(
            "E16",
            &workload,
            "incr-builds",
            n as u64,
            incr_stats.index_builds,
            "builds",
        );
    }
}

/// E17 — columnar arena storage microbenchmark.
///
/// Isolates the storage layer introduced with [`datalog_ast::Relation`]:
///
/// * `insert` — raw insert+dedup throughput of the arena-backed
///   [`Relation`](datalog_ast::Relation) vs the seed representation (`BTreeSet<Box<[Const]>>`) on
///   a duplicate-heavy row stream;
/// * `alloc`  — allocation accounting of a full semi-naive fixpoint:
///   `Stats::tuples_allocated` must equal the fixpoint cardinality (every
///   row is arena-committed exactly once) and `Stats::arena_bytes` must be
///   the exact columnar footprint of those rows;
/// * `snapshot` — publication cost: cloning a materialized [`Database`](datalog_ast::Database) is
///   O(1) `Arc` bumps (arenas shared, verified structurally), against a
///   deep per-tuple rebuild of the same database.
fn e17(r: &mut Report, smoke: bool) {
    use datalog_ast::{Const, Database, GroundAtom, Pred, Relation};
    use std::collections::BTreeSet;

    println!("== E17: columnar arena storage ==");

    // -- insert+dedup throughput --------------------------------------
    // A deterministic duplicate-heavy stream (LCG over a small key space:
    // roughly half the inserts are dedup hits, as in a fixpoint's later
    // rounds).
    let rows_n: usize = if smoke { 20_000 } else { 200_000 };
    let mut stream = Vec::with_capacity(rows_n);
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    for _ in 0..rows_n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (state >> 33) % (rows_n as u64 / 3).max(1);
        let b = (state >> 13) % 3;
        stream.push([Const::Int(a as i64), Const::Int(b as i64)]);
    }
    let [t_arena, t_boxed] = time_ms(
        1,
        [
            &mut || {
                let mut rel = Relation::new(2);
                for row in &stream {
                    rel.insert(row);
                }
            },
            &mut || {
                let mut set: BTreeSet<Box<[Const]>> = BTreeSet::new();
                for row in &stream {
                    if !set.contains(row.as_slice()) {
                        set.insert(row.as_slice().into());
                    }
                }
            },
        ],
    );
    let mut rel = Relation::new(2);
    let mut set: BTreeSet<Box<[Const]>> = BTreeSet::new();
    for row in &stream {
        rel.insert(row);
        set.insert(row.as_slice().into());
    }
    r.check(
        "E17",
        &format!(
            "insert: arena and boxed-set dedup agree ({} distinct of {} inserts)",
            rel.len(),
            rows_n
        ),
        rel.len() == set.len() && rel.iter_sorted().eq(set.iter().map(|b| &**b)),
    );
    let t_arena = r.sampled(
        "E17",
        "dup-stream",
        "arena-insert",
        rows_n as u64,
        t_arena,
        "ms",
    );
    let t_boxed = r.sampled(
        "E17",
        "dup-stream",
        "boxed-insert",
        rows_n as u64,
        t_boxed,
        "ms",
    );
    r.row(Row::new(
        "E17",
        "dup-stream",
        "speedup-insert",
        rows_n as u64,
        t_boxed / t_arena,
        "x",
    ));

    // -- allocation accounting over a fixpoint ------------------------
    let n = if smoke { 48 } else { 96 };
    let program = bloated_tc(6, 99);
    let db = standard_edb("cycle", n);
    let (out, stats) = evaluate(&program, &db).unwrap();
    let const_bytes = std::mem::size_of::<Const>() as u64;
    r.check(
        "E17",
        &format!(
            "alloc: tuples_allocated {} equals fixpoint cardinality {} (cycle{n})",
            stats.tuples_allocated,
            out.len()
        ),
        stats.tuples_allocated == out.len() as u64,
    );
    r.check(
        "E17",
        &format!(
            "alloc: arena_bytes {} is the exact columnar footprint",
            stats.arena_bytes
        ),
        stats.arena_bytes == stats.tuples_allocated * 2 * const_bytes,
    );
    r.count(
        "E17",
        &format!("bloated6-cycle{n}"),
        "tuples-allocated",
        n as u64,
        stats.tuples_allocated,
        "rows",
    );
    r.count(
        "E17",
        &format!("bloated6-cycle{n}"),
        "arena-bytes",
        n as u64,
        stats.arena_bytes,
        "bytes",
    );

    // -- snapshot publication -----------------------------------------
    let [t_clone] = time_ms(
        if smoke { 100 } else { 1000 },
        [&mut || {
            std::hint::black_box(out.clone());
        }],
    );
    let [t_deep] = time_ms(
        1,
        [&mut || {
            let mut copy = Database::new();
            for atom in out.iter() {
                copy.insert(GroundAtom::new(atom.pred, atom.tuple.clone()));
            }
            std::hint::black_box(copy);
        }],
    );
    let snap = out.clone();
    let g = Pred::new("g");
    let shares = out
        .relations_of(g)
        .iter()
        .zip(snap.relations_of(g))
        .all(|(a, b)| a.shares_storage_with(b));
    r.check(
        "E17",
        "snapshot: cloned database shares its arenas (O(1) publication)",
        shares && snap == out,
    );
    let workload = format!("bloated6-cycle{n}");
    let x = out.len() as u64;
    let t_clone = r.sampled("E17", &workload, "snapshot-clone", x, t_clone, "ms");
    let t_deep = r.sampled("E17", &workload, "deep-copy", x, t_deep, "ms");
    if !smoke {
        r.check(
            "E17",
            &format!(
                "snapshot: arena-sharing clone ≥ 100x cheaper than a deep rebuild \
                 ({:.4}ms vs {:.2}ms)",
                t_clone, t_deep
            ),
            t_deep / t_clone >= 100.0,
        );
    }
}

/// E18 — point queries: read the view, or evaluate on demand.
///
/// Benchmarks the daemon's two query paths over one materialized view
/// ([`datalog_service::View`]) on the largest E16-class workload (bloated
/// TC over a chain EDB):
///
/// * `scan` — the loop the daemon's default path ran before `select`: walk
///   the snapshot's relation in tuple order, box every row, `match_atom`;
/// * `select` — what `"strategy":"auto"` runs: `Database::select` over the
///   same snapshot (code-column compare, only the matches sorted);
/// * `magic` — what `"strategy":"magic"` runs: one `PlanCache` ask per
///   iteration, the magic-sets rewriting (compiled once) evaluated
///   semi-naively from the base facts;
/// * `churn-qps` — `select` throughput over freshly published snapshots
///   while a writer commits insert/remove batches, with a post-churn answer
///   check against a from-scratch evaluation.
fn e18(r: &mut Report, smoke: bool) {
    use datalog_ast::{match_atom, Atom, Database, GroundAtom};
    use datalog_engine::PlanCache;
    use datalog_service::View;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    println!("== E18: point queries — read the view, or evaluate on demand ==");
    let program = bloated_tc(6, 99);
    let n: usize = if smoke { 48 } else { 96 };
    let db = standard_edb("chain", n);
    let workload = format!("bloated6-chain{n}");
    let batch = if smoke { 20 } else { 200 };

    let view = View::new(program.clone(), &db);
    let state = view.state();
    let query = parse_atom("g(0, X)").unwrap();
    let filter = |db: &Database, pattern: &Atom| -> Database {
        let mut out = Database::new();
        for tuple in db.relation(pattern.pred) {
            let ground = GroundAtom {
                pred: pattern.pred,
                tuple: tuple.into(),
            };
            if match_atom(pattern, &ground).is_some() {
                out.insert(ground);
            }
        }
        out
    };
    let expected = filter(&state.fixpoint, &query);
    r.check(
        "E18",
        &format!(
            "{workload}: the point query has a non-trivial answer set ({} atoms)",
            expected.len()
        ),
        expected.len() >= n,
    );

    // The pre-`select` serving path, which walks the full relation of the
    // materialized snapshot, against the default one, which reads the same
    // rows off the code columns.
    let [t_scan, t_select] = time_ms(
        batch,
        [
            &mut || {
                std::hint::black_box(filter(&state.fixpoint, &query));
            },
            &mut || {
                std::hint::black_box(state.fixpoint.select(&query));
            },
        ],
    );

    // On demand: every ask re-runs the demand-driven magic-sets evaluation
    // (the plan stays compiled — plans depend only on the adornment).
    let plans = PlanCache::new(Arc::new(program.clone()));
    let (first, _) = plans.answer(&state.base, &query);
    r.check(
        "E18",
        &format!("{workload}: top-down answers agree with the snapshot scan"),
        first == expected,
    );
    r.check(
        "E18",
        &format!("{workload}: select reads the top-down answers off the view, in their order"),
        state
            .fixpoint
            .select(&query)
            .into_iter()
            .eq(first.relation(query.pred)),
    );
    let [t_magic] = time_ms(
        1,
        [&mut || {
            std::hint::black_box(plans.answer(&state.base, &query));
        }],
    );

    let t_scan = r.sampled("E18", &workload, "scan", n as u64, t_scan, "ms");
    let t_select = r.sampled("E18", &workload, "select", n as u64, t_select, "ms");
    r.sampled("E18", &workload, "magic", n as u64, t_magic, "ms");
    if !smoke {
        r.check(
            "E18",
            &format!(
                "{workload}: select is no slower than the loop it replaced \
                 ({t_select:.4}ms vs {t_scan:.4}ms)"
            ),
            t_select <= t_scan,
        );
    }

    // Churn: view reads while a writer commits batches. Each insert/remove
    // pair returns the base to its original facts, so no read may see fewer
    // answers than before, and the final read is checked against a
    // from-scratch evaluation of the final base.
    let churn_batches: i64 = if smoke { 4 } else { 32 };
    let churn = || {
        let writing = AtomicBool::new(true);
        let mut asked = 0u64;
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..churn_batches {
                    let edge = fact("a", [n as i64 + i, n as i64 + i + 1]);
                    view.insert(vec![edge.clone()]);
                    view.remove(vec![edge]);
                }
                writing.store(false, Ordering::Release);
            });
            while writing.load(Ordering::Acquire) {
                let live = view.state();
                assert!(live.fixpoint.select(&query).len() >= expected.len());
                asked += 1;
            }
        });
        asked as f64 / start.elapsed().as_secs_f64()
    };
    let qps = Sample::of((0..REPS).map(|_| churn()).collect());
    r.sampled("E18", &workload, "churn-qps", n as u64, qps, "qps");
    let final_state = view.state();
    let base = &final_state.base;
    let (full, _) = evaluate(&program, base).unwrap();
    let reference = filter(&full, &query);
    r.check(
        "E18",
        &format!("{workload}: post-churn view reads match a from-scratch evaluation"),
        final_state
            .fixpoint
            .select(&query)
            .into_iter()
            .eq(reference.relation(query.pred)),
    );
}

/// Sort in place and return the `q`-quantile sample (nearest rank).
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() as f64 * q).ceil() as usize).max(1) - 1;
    samples[idx.min(samples.len() - 1)]
}

/// E19 — the event loop.
///
/// Tail latency of more concurrent reader connections than worker threads,
/// event loop vs an in-bench thread-per-connection baseline (the seed
/// transport's architecture: a pooled worker owns each connection for its
/// whole lifetime, so connections beyond the pool width queue behind whole
/// *sessions*, not requests). Same registry contents, same pool width; only
/// the connection architecture differs.
///
/// Then short reads beside long ones on the event loop: one connection asks
/// the full closure of an n-node chain (n(n+1)/2 answers) over and over
/// while another asks point queries. The loop answers a read itself only
/// when nothing else waits, so a point query runs on the pool beside the
/// long read in progress instead of queueing behind it.
fn e19(r: &mut Report, smoke: bool) {
    use datalog_service::{Client, Control, Registry, Server, ServerConfig, ThreadPool};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    println!("== E19: the event loop ==");
    let rules = portable_source(&bloated_tc(6, 99));
    let base_edges: usize = if smoke { 24 } else { 48 };
    let base_facts = standard_edb("chain", base_edges)
        .iter()
        .map(|f| format!("{f}."))
        .collect::<Vec<_>>()
        .join(" ");

    // -- read-p99: event loop vs thread-per-connection baseline --------
    let threads = 4usize;
    let clients = 16usize;
    let per_client = if smoke { 10 } else { 40 };
    let install_line = datalog_json::Value::object([
        ("op", datalog_json::Value::from("install")),
        ("program", datalog_json::Value::from("tc")),
        ("rules", datalog_json::Value::from(rules)),
        ("optimize", datalog_json::Value::from(false)),
    ])
    .to_compact();
    let insert_line =
        format!("{{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"{base_facts}\"}}");
    let query_line = "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}";

    // One sample: every client's requests, then their 99th percentile.
    let p99_of_one_round = |addr: &str| -> f64 {
        let samples = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut mine = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let start = Instant::now();
                        c.request_line(query_line).expect("query");
                        mine.push(start.elapsed().as_secs_f64() * 1e3);
                    }
                    samples.lock().unwrap().extend(mine);
                });
            }
        });
        quantile(&mut samples.into_inner().unwrap(), 0.99)
    };
    let measure = |addr: &str| Sample::of((0..REPS).map(|_| p99_of_one_round(addr)).collect());

    // Event loop: all connections multiplexed over `threads` workers.
    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    {
        let mut admin = Client::connect(&addr).expect("connect");
        assert!(admin
            .request_line(&install_line)
            .expect("install")
            .contains("\"ok\":true"));
        admin.request_line(&insert_line).expect("insert");
    }
    let p99_event = measure(&addr);

    // -- short reads beside a long reader ------------------------------
    let chain_nodes: usize = if smoke { 60 } else { 200 };
    let short_per_round = if smoke { 50 } else { 200 };
    {
        let mut admin = Client::connect(&addr).expect("connect");
        let install = "{\"op\":\"install\",\"program\":\"chain\",\
                       \"rules\":\"g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).\"}";
        assert!(admin
            .request_line(install)
            .expect("install")
            .contains("\"ok\":true"));
        let facts: String = (0..chain_nodes)
            .map(|i| format!("a({i},{}). ", i + 1))
            .collect();
        let insert = format!("{{\"op\":\"insert\",\"program\":\"chain\",\"facts\":\"{facts}\"}}");
        admin.request_line(&insert).expect("insert");
    }
    let long_line = "{\"op\":\"query\",\"program\":\"chain\",\"atom\":\"g(X, Y)\"}";
    // One sample: the median short read and the median long read.
    let short_beside_long = || -> (f64, f64) {
        let stop = AtomicBool::new(false);
        let long_started = AtomicBool::new(false);
        let long = Mutex::new(Vec::new());
        let mut short = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut c = Client::connect(&addr).expect("connect");
                let mut mine = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let start = Instant::now();
                    c.request_line(long_line).expect("long read");
                    mine.push(start.elapsed().as_secs_f64() * 1e3);
                    long_started.store(true, Ordering::SeqCst);
                }
                *long.lock().unwrap() = mine;
            });
            while !long_started.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let mut c = Client::connect(&addr).expect("connect");
            let mut mine = Vec::with_capacity(short_per_round);
            for i in 0..short_per_round {
                let line = format!(
                    "{{\"op\":\"query\",\"program\":\"chain\",\"atom\":\"g({}, X)\"}}",
                    i % chain_nodes
                );
                let start = Instant::now();
                c.request_line(&line).expect("short read");
                mine.push(start.elapsed().as_secs_f64() * 1e3);
            }
            stop.store(true, Ordering::SeqCst);
            mine
        });
        let mut long = long.into_inner().unwrap();
        (quantile(&mut short, 0.5), quantile(&mut long, 0.5))
    };
    let (short_p50, long_p50): (Vec<f64>, Vec<f64>) =
        (0..REPS).map(|_| short_beside_long()).unzip();
    flag.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&addr); // nudge the loop past its poll nap
    handle.join().expect("server thread").expect("server run");

    // Baseline: the seed transport's architecture — blocking accept loop, one
    // pooled worker per *connection* for its whole lifetime.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind baseline");
    let baseline_addr = listener.local_addr().expect("local addr").to_string();
    let registry = Arc::new(Registry::new());
    assert!(matches!(
        registry.handle_line(&install_line),
        (ref resp, Control::Continue) if resp.contains("\"ok\":true")
    ));
    registry.handle_line(&insert_line);
    let baseline_stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&baseline_stop);
        std::thread::spawn(move || {
            let pool = ThreadPool::new(threads);
            loop {
                let (stream, _) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) => break,
                };
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let registry = Arc::clone(&registry);
                pool.execute(move || {
                    let _ = stream.set_nodelay(true);
                    let mut writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(_) => return,
                    };
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        if line.trim().is_empty() {
                            continue;
                        }
                        let (response, control) = registry.handle_line(line.trim());
                        if writer
                            .write_all(format!("{response}\n").as_bytes())
                            .is_err()
                            || matches!(control, Control::Shutdown)
                        {
                            break;
                        }
                    }
                });
            }
            drop(pool);
        })
    };
    let p99_baseline = measure(&baseline_addr);
    baseline_stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&baseline_addr); // unblock the acceptor
    acceptor.join().expect("baseline acceptor");

    let p99_workload = format!("bloat6-svc-{clients}conns");
    let x = clients as u64;
    let p99_baseline = r.sampled(
        "E19",
        &p99_workload,
        "p99-thread-per-conn",
        x,
        p99_baseline,
        "ms",
    );
    let p99_event = r.sampled("E19", &p99_workload, "p99-event-loop", x, p99_event, "ms");
    let beside_workload = format!("chain{chain_nodes}-short-beside-long");
    let x = chain_nodes as u64;
    let short_p50 = r.sampled(
        "E19",
        &beside_workload,
        "p50-short-read",
        x,
        Sample::of(short_p50),
        "ms",
    );
    let long_p50 = r.sampled(
        "E19",
        &beside_workload,
        "p50-long-read",
        x,
        Sample::of(long_p50),
        "ms",
    );
    if !smoke {
        r.check(
            "E19",
            &format!(
                "{beside_workload}: a short read does not queue behind the long reads \
                 beside it (p50 {short_p50:.3}ms, under a quarter of a long read's \
                 {long_p50:.3}ms)"
            ),
            short_p50 * 4.0 < long_p50,
        );
        r.check(
            "E19",
            &format!(
                "{p99_workload}: event-loop read p99 below the \
                 thread-per-connection baseline ({:.2}ms vs {:.2}ms)",
                p99_event, p99_baseline
            ),
            p99_event < p99_baseline,
        );
    }
}

/// E20 — columnar storage microbenchmark: gathering one join-key column
/// from a million-row relation via the contiguous `u32` code column vs
/// re-reading each arena row and matching the `Const` out of it (a
/// row-at-a-time executor's access pattern). It times no join: the one
/// reference, `naive`, is a nested loop no kernel speedup is measured
/// against (EXPERIMENTS.md).
fn e20(r: &mut Report, smoke: bool) {
    use datalog_ast::{Const, Database, GroundAtom, Pred};

    println!("== E20: columnar code-column gather ==");
    let n: usize = if smoke { 60_000 } else { 1_000_000 };
    let keys: i64 = 4096;
    let workload = format!("join-e{n}");

    let mut db = Database::new();
    for i in 0..n as i64 {
        db.insert(GroundAtom::new(
            "e",
            vec![Const::Int(i), Const::Int(i % keys)],
        ));
    }
    let rel = db
        .relation_of(Pred::new("e"), 2)
        .expect("e relation exists");
    let rows = rel.len() as u32;
    let [t_col, t_row] = time_ms(
        1,
        [
            &mut || {
                let mut acc = 0u64;
                for &code in rel.codes(1) {
                    acc = acc.wrapping_add(code as u64);
                }
                std::hint::black_box(acc);
            },
            &mut || {
                let mut acc = 0u64;
                for id in 0..rows {
                    if let Const::Int(v) = rel.row(id)[1] {
                        acc = acc.wrapping_add(v as u64);
                    }
                }
                std::hint::black_box(acc);
            },
        ],
    );
    let t_row = r.sampled("E20", &workload, "row-gather", n as u64, t_row, "ms");
    let t_col = r.sampled("E20", &workload, "col-gather", n as u64, t_col, "ms");
    r.row(Row::new(
        "E20",
        &workload,
        "speedup-layout",
        n as u64,
        t_row / t_col,
        "x",
    ));
}
