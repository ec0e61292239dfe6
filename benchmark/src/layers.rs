//! The traced run: the same inputs as the end-to-end run, replayed
//! in-process with a span around every call into a layer's public
//! functions. The layers are the crates: `ast`, `analysis`, `core`,
//! `engine`, `service`, `json`; `cli` spans stand for one CLI invocation
//! and `bench` is this harness (generation, checks, bookkeeping).
//!
//! The run has four parts: the replay with spans on; the same replay with
//! spans off, whose wall time gives the tracing overhead; a few real CLI
//! children, for what a process adds to the in-process phases; and a short
//! real wire session, for what the socket adds to `Registry::handle_line`.

use crate::apps::{self, App, Case};
use crate::json::Json;
use crate::proc::{cpus, run_cli};
use crate::run::{
    self, check_answers, check_db_atoms, eval_args, install_request, mutate_request, path_str,
    program_shape, query_request, Measured, Outcome, RunConfig,
};
use crate::serve::{Domain, Fact, Query, Script, VIEW};
use crate::stats::median;
use crate::trace::{layer_self_ms, Recorder};
use datalog_analysis::{analyze_program, LintConfig};
use datalog_ast::{
    match_atom, parse_atom, parse_database, parse_program, parse_unit, validate, Database,
    GroundAtom, Program,
};
use datalog_engine::query::{QueryPlan, Strategy};
use datalog_engine::{
    seminaive, stratified, EvalOptions, Materialized, ShardedMaterialized, Stats,
};
use datalog_optimizer::{
    minimize_program, minimize_stratified, optimize_under_equivalence, uniformly_contains,
};
use datalog_service::{Registry, View};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The CLI's `--fuel` default.
const FUEL: u64 = 10_000;
/// Request and reply lines kept for the JSON layer's measurement.
const RECORDED_BYTES: usize = 4 << 20;

/// What the batch replay counted besides its spans.
#[derive(Default)]
struct BatchCounts {
    repeats: usize,
    /// Engine counters of the original programs' fixpoints, one repeat.
    raw_stats: Stats,
    atoms_removed: usize,
    rules_removed: usize,
    tgds_applied: usize,
    planted: usize,
    recovered: usize,
    facts: usize,
    db_bytes: usize,
    containment_tests: usize,
    /// In-process `eval` of the optimized programs, summed over the cases,
    /// per repeat.
    eval_opt_ms: Vec<f64>,
}

fn fixpoint(
    case: &Case,
    program: &Program,
    edb: &Database,
    opts: EvalOptions,
) -> (Database, Stats) {
    match case.engine {
        Some("stratified") => stratified::evaluate_with_opts(program, edb, opts)
            .expect("stratifiable by construction"),
        _ => seminaive::evaluate_with_opts(program, edb, opts),
    }
}

/// What `datalog optimize` / `datalog minimize` do, call by call.
fn optimize_in_process(
    rec: &mut Recorder,
    case: &Case,
    counts: Option<&mut BatchCounts>,
) -> Result<String, String> {
    let program = rec
        .span("ast", "parse_program", |_| parse_program(&case.source))
        .map_err(|e| format!("{}: {e}", case.name))?;
    let mut removed = (0, 0, 0);
    let mut current = program;
    loop {
        let (minimized, removal) = rec
            .span("core", "minimize", |_| {
                if current.is_positive() {
                    minimize_program(&current).map_err(|e| e.to_string())
                } else {
                    minimize_stratified(&current).map_err(|e| e.to_string())
                }
            })
            .map_err(|e| format!("{}: {e}", case.name))?;
        removed.0 += removal.atoms.len();
        removed.1 += removal.rules.len();
        current = minimized;
        if case.optimizer == "minimize" {
            break;
        }
        let (optimized, applied) = rec
            .span("core", "equiv", |_| {
                optimize_under_equivalence(&current, FUEL)
            })
            .map_err(|e| format!("{}: {e}", case.name))?;
        removed.2 += applied.len();
        current = optimized;
        if applied.is_empty() {
            break;
        }
    }
    if let Some(counts) = counts {
        counts.atoms_removed += removed.0;
        counts.rules_removed += removed.1;
        counts.tgds_applied += removed.2;
    }
    Ok(rec.span("ast", "print_program", |_| current.to_string()))
}

/// What `datalog eval` does, call by call; returns the printed output and
/// the engine's counters.
fn eval_in_process(
    rec: &mut Recorder,
    case: &Case,
    source: &str,
    fixpoint_span: &'static str,
) -> Result<(String, Stats), String> {
    let program = rec
        .span("ast", "parse_program", |_| parse_program(source))
        .map_err(|e| format!("{}: {e}", case.name))?;
    let edb = rec
        .span("ast", "parse_database", |_| parse_database(&case.edb))
        .map_err(|e| format!("{}: {e}", case.name))?;
    let (out, stats) = rec.span("engine", fixpoint_span, |_| {
        fixpoint(case, &program, &edb, EvalOptions::sequential())
    });
    let printed = rec.span("ast", "print", |_| {
        let mut text = String::new();
        for atom in out.iter() {
            let _ = writeln!(text, "{atom}.");
        }
        text
    });
    Ok((printed, stats))
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

/// Calls the CLI path does not make one by one, each in a span of its own,
/// once per case: validation, parse and load taken apart, the containment
/// test, a near-empty evaluation, and the fixpoint of the optimized program
/// on two threads and on the interpreter. (The lint pass is timed on the
/// served program only: on the corpus's hundred-rule programs it takes
/// seconds each.)
fn probes(
    rec: &mut Recorder,
    case: &Case,
    optimized: &str,
    counts: &mut BatchCounts,
) -> Result<(), String> {
    rec.next_request();
    let program = parse_program(&case.source).map_err(|e| e.to_string())?;
    let optimized = parse_program(optimized).map_err(|e| e.to_string())?;
    rec.span("ast", "validate", |_| validate(&program))
        .map_err(|e| format!("{}: {e:?}", case.name))?;
    let unit = rec
        .span("ast", "parse_facts", |_| parse_unit(&case.edb))
        .map_err(|e| e.to_string())?;
    counts.facts += unit.facts.len();
    let edb = rec.span("ast", "load", |_| Database::from_atoms(unit.facts));
    counts.db_bytes += edb.arena_bytes();
    // Deleting atoms and rules can only generalize: every original rule
    // must be uniformly contained in the optimized program (§VI), one
    // frozen-body evaluation per rule. The test needs positive rules.
    let positive = |p: &Program| {
        Program::new(
            p.rules
                .iter()
                .filter(|r| r.body.iter().all(|l| l.is_positive()))
                .cloned()
                .collect(),
        )
    };
    let (positive_raw, positive_opt) = (positive(&program), positive(&optimized));
    let contained = rec
        .span("core", "containment", |_| {
            uniformly_contains(&positive_opt, &positive_raw)
        })
        .map_err(|e| e.to_string())?;
    if !contained {
        return Err(format!(
            "{}: the optimized program does not contain the original",
            case.name
        ));
    }
    counts.containment_tests += positive_raw.len();
    if case.optimizer == "minimize" {
        // The CLI path of this case stops before the equivalence phase;
        // run it on the positive rules so the phase is timed here too.
        rec.span("core", "equiv", |_| {
            optimize_under_equivalence(&positive_opt, FUEL)
        })
        .map_err(|e| e.to_string())?;
    }
    // What one containment test asks of the engine: a whole evaluation over
    // a database of a few atoms, where building the context, its indexes
    // and its executors is all there is.
    let few = Database::from_atoms(edb.iter().take(4));
    for _ in 0..8 {
        rec.span("engine", "context_new", |_| {
            fixpoint(case, &optimized, &few, EvalOptions::sequential())
        });
    }
    rec.span("engine", "fixpoint_opt_threads1", |_| {
        fixpoint(case, &optimized, &edb, EvalOptions::sequential())
    });
    rec.span("engine", "fixpoint_opt_threads2", |_| {
        cpus().widened(|| fixpoint(case, &optimized, &edb, EvalOptions::with_threads(2)))
    });
    rec.span("engine", "fixpoint_opt_interpreted", |_| {
        fixpoint(case, &optimized, &edb, EvalOptions::interpreted())
    });
    Ok(())
}

/// The batch phase in-process. `limit` is either a time budget (the traced
/// pass) or the repeat count the traced pass reached (the untraced pass).
fn batch_replay(
    rec: &mut Recorder,
    app: &App,
    limit: Limit,
    outcome: &mut Outcome,
) -> Result<BatchCounts, String> {
    let expected: Vec<Option<Vec<String>>> = app.cases.iter().map(Case::expected_output).collect();
    let mut counts = BatchCounts::default();
    let start = Instant::now();
    while limit.more(counts.repeats, start, 2) {
        let first = counts.repeats == 0;
        let mut eval_opt_ms = 0.0;
        for (case, expected) in app.cases.iter().zip(&expected) {
            rec.next_request();
            let optimized = rec.span("cli", "optimize", |rec| {
                optimize_in_process(rec, case, first.then_some(&mut counts))
            })?;
            rec.next_request();
            let (raw_out, raw_stats) = rec.span("cli", "eval_raw", |rec| {
                eval_in_process(rec, case, &case.source, "fixpoint_raw")
            })?;
            rec.next_request();
            let opt_start = Instant::now();
            let (opt_out, _) = rec.span("cli", "eval_opt", |rec| {
                eval_in_process(rec, case, &optimized, "fixpoint_opt")
            })?;
            eval_opt_ms += opt_start.elapsed().as_secs_f64() * 1e3;

            let (rules, width) = program_shape(&optimized);
            let recovered = case.planted.recovered(rules, width);
            if first {
                counts.raw_stats += raw_stats;
                counts.planted += 1;
                counts.recovered += usize::from(recovered);
                probes(rec, case, &optimized, &mut counts)?;
            }
            outcome.record(if recovered {
                Ok(())
            } else {
                Err(format!("{}: planted redundancy not recovered", case.name))
            });
            let raw_lines = sorted_lines(&raw_out);
            outcome.record(match expected {
                Some(expected)
                    if !raw_lines
                        .iter()
                        .copied()
                        .eq(expected.iter().map(String::as_str)) =>
                {
                    Err(format!(
                        "{}: in-process fixpoint differs from the reference",
                        case.name
                    ))
                }
                _ => Ok(()),
            });
            outcome.record(if sorted_lines(&opt_out) == raw_lines {
                Ok(())
            } else {
                Err(format!(
                    "{}: optimized and original fixpoints differ",
                    case.name
                ))
            });
        }
        counts.eval_opt_ms.push(eval_opt_ms);
        counts.repeats += 1;
    }
    Ok(counts)
}

/// Names of the two phases' root spans.
const BATCH: &str = "batch";
const SERVE: &str = "serve";

/// The layers whose self time is reported as a share of the measured time.
const LAYER_SHARES: [(&str, &str); 8] = [
    ("ast", "share.ast"),
    ("analysis", "share.analysis"),
    ("core", "share.core"),
    ("engine", "share.engine"),
    ("service", "share.service"),
    ("json", "share.json"),
    ("cli", "share.cli"),
    ("bench", "share.bench"),
];

/// How long a replay goes on.
#[derive(Clone, Copy)]
enum Limit {
    For(Duration),
    Exactly(usize),
}

impl Limit {
    fn more(self, done: usize, start: Instant, at_least: usize) -> bool {
        match self {
            Limit::For(budget) => done < at_least || start.elapsed() < budget,
            Limit::Exactly(n) => done < n,
        }
    }
}

/// What the serve replay counted besides its spans.
#[derive(Default)]
struct ServeCounts {
    rounds: usize,
    writes: usize,
    cache: [u64; 4],
    recorded: Vec<String>,
    recorded_bytes: usize,
}

/// The engines that replay the script next to the registry, so that each
/// layer under `handle_line` is also timed on its own.
struct Shadow {
    program: Program,
    materialized: Materialized,
    sharded: ShardedMaterialized,
    view: View,
}

/// The ground atoms of a `facts` request field.
fn ground(text: &str) -> Result<Vec<GroundAtom>, String> {
    parse_database(text)
        .map(|db| db.iter().collect())
        .map_err(|e| e.to_string())
}

fn handle(
    rec: &mut Recorder,
    registry: &Registry,
    counts: &mut ServeCounts,
    span: &'static str,
    request: &Json,
) -> Result<Json, String> {
    let line = request.to_string();
    let (reply, _) = rec.span("service", span, |_| registry.handle_line(&line));
    let parsed = Json::parse(&reply)?;
    if counts.recorded_bytes < RECORDED_BYTES {
        counts.recorded_bytes += line.len() + reply.len();
        counts.recorded.push(line);
        counts.recorded.push(reply);
    }
    match parsed.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(parsed),
        _ => Err(format!("refused: {parsed}")),
    }
}

/// The three kinds of write the script sends, with the names of the spans
/// each is timed under: `handle_line`, the unsharded engine, the 2-shard
/// engine, the view, and the from-scratch evaluation it is compared with.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Write {
    Insert,
    Reinsert,
    Remove,
}

impl Write {
    fn spans(self) -> [&'static str; 5] {
        match self {
            Write::Insert => [
                "handle_insert",
                "insert",
                "sharded2_insert",
                "view_insert",
                "recompute_after_insert",
            ],
            Write::Reinsert => [
                "handle_reinsert",
                "reinsert",
                "sharded2_reinsert",
                "view_reinsert",
                "recompute_after_reinsert",
            ],
            Write::Remove => [
                "handle_remove",
                "remove",
                "sharded2_remove",
                "view_remove",
                "recompute_after_remove",
            ],
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn write_op(
    rec: &mut Recorder,
    registry: &Registry,
    shadow: &mut Shadow,
    domain: &mut dyn Domain,
    derived: &mut BTreeSet<String>,
    counts: &mut ServeCounts,
    kind: Write,
    facts: &[Fact],
    outcome: &mut Outcome,
) -> Result<(), String> {
    rec.next_request();
    let insert = kind != Write::Remove;
    let [handle_span, engine_span, sharded_span, view_span, recompute_span] = kind.spans();
    let request = mutate_request(domain, insert, facts);
    let reply = handle(rec, registry, counts, handle_span, &request);
    let text = run::fact_text(domain, facts);
    let atoms = rec.span("ast", "parse_batch", |_| ground(&text))?;
    if insert {
        rec.span("engine", engine_span, |_| {
            shadow.materialized.insert(atoms.clone())
        });
        rec.span("engine", sharded_span, |_| {
            cpus().widened(|| shadow.sharded.insert(atoms.clone()))
        });
        rec.span("service", view_span, |_| shadow.view.insert(atoms));
    } else {
        rec.span("engine", engine_span, |_| {
            shadow.materialized.remove(atoms.clone())
        });
        rec.span("engine", sharded_span, |_| {
            cpus().widened(|| shadow.sharded.remove(atoms.clone()))
        });
        rec.span("service", view_span, |_| shadow.view.remove(atoms));
    }
    // The simplest alternative in the tree: evaluate the new base from
    // scratch.
    let base = shadow.materialized.base().clone();
    let recomputed = rec.span("engine", recompute_span, |_| {
        seminaive::evaluate(&shadow.program, &base)
    });
    domain.apply(insert, facts);
    *derived = domain.derived();
    counts.writes += 1;
    let expected = domain.base_len() + derived.len();
    outcome.record(reply.and_then(|r| check_db_atoms(domain, derived, &r)));
    outcome.record(
        if recomputed.len() == expected && shadow.materialized.database().len() == expected {
            Ok(())
        } else {
            Err(format!(
                "engine fixpoints of {} (recomputed) and {} (maintained) atoms, reference {expected}",
                recomputed.len(),
                shadow.materialized.database().len()
            ))
        },
    );
    Ok(())
}

/// One first-time query of the round also goes to the top-down engine
/// directly, by magic sets and (`with_qsq`: every fourth round, as QSQR
/// takes a hundred times as long) by QSQR, and to a plain scan of the
/// maintained fixpoint.
fn top_down_probe(
    rec: &mut Recorder,
    shadow: &Shadow,
    query: &Query,
    expected: &BTreeSet<String>,
    with_qsq: bool,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let atom = parse_atom(&query.render()).map_err(|e| e.to_string())?;
    let program = Arc::new(shadow.program.clone());
    let base = shadow.materialized.base();
    let magic = rec.span("engine", "plan", |_| {
        QueryPlan::for_query(Arc::clone(&program), &atom, Strategy::Magic)
    });
    let (answers, _) = rec.span("engine", "answer_magic", |_| magic.answer(base, &atom));
    let qsq_answers = with_qsq.then(|| {
        let qsq = QueryPlan::for_query(program, &atom, Strategy::Qsq);
        rec.span("engine", "answer_qsq", |_| qsq.answer(base, &atom))
            .0
    });
    let scanned = rec.span("engine", "scan", |_| {
        shadow
            .materialized
            .database()
            .relation(atom.pred)
            .filter(|tuple| {
                let candidate = GroundAtom {
                    pred: atom.pred,
                    tuple: (*tuple).into(),
                };
                match_atom(&atom, &candidate).is_some()
            })
            .count()
    });
    let rendered = |db: &Database| -> BTreeSet<String> {
        db.relation(atom.pred)
            .map(|tuple| {
                GroundAtom {
                    pred: atom.pred,
                    tuple: tuple.into(),
                }
                .to_string()
            })
            .filter(|a| query.matches(a))
            .collect()
    };
    outcome.record(
        if &rendered(&answers) == expected
            && qsq_answers.is_none_or(|qsq| &rendered(&qsq) == expected)
            && scanned == expected.len()
        {
            Ok(())
        } else {
            Err(format!(
                "{}: top-down answers differ from the reference",
                query.render()
            ))
        },
    );
    Ok(())
}

fn serve_replay(
    rec: &mut Recorder,
    domain: &mut dyn Domain,
    seed: u64,
    limit: Limit,
    outcome: &mut Outcome,
) -> Result<ServeCounts, String> {
    let mut counts = ServeCounts::default();
    let registry = Registry::new();
    rec.next_request();
    // The install pipeline's stages, then the install itself.
    let rules = domain.rules().to_string();
    let source = rec
        .span("ast", "parse_program", |_| parse_program(&rules))
        .map_err(|e| e.to_string())?;
    rec.span("ast", "validate", |_| validate(&source))
        .map_err(|e| format!("{e:?}"))?;
    rec.span("analysis", "lint", |_| {
        analyze_program(&source, &LintConfig::default())
    });
    handle(
        rec,
        &registry,
        &mut counts,
        "handle_install",
        &install_request(domain),
    )?;
    let program = registry
        .get(VIEW)
        .ok_or("the view is not installed")?
        .installed
        .clone();
    let mut shadow = Shadow {
        materialized: Materialized::new(program.clone(), &Database::new()),
        sharded: ShardedMaterialized::new(program.clone(), &Database::new(), 2),
        view: View::new(program.clone(), &Database::new()),
        program,
    };
    let preload = domain.preload();
    handle(
        rec,
        &registry,
        &mut counts,
        "handle_preload",
        &mutate_request(domain, true, &preload),
    )?;
    let atoms = ground(&run::fact_text(domain, &preload))?;
    shadow.materialized.insert(atoms.clone());
    shadow.sharded.insert(atoms.clone());
    shadow.view.insert(atoms);
    // The model starts out holding the preload.
    let mut derived = domain.derived();

    let mut script = Script::new(seed, 0);
    let start = Instant::now();
    while limit.more(counts.rounds, start, 4) {
        if let Some(back) = script.reinsert() {
            write_op(
                rec,
                &registry,
                &mut shadow,
                domain,
                &mut derived,
                &mut counts,
                Write::Reinsert,
                &[back],
                outcome,
            )?;
        }
        let insert = script.insert_batch(domain);
        write_op(
            rec,
            &registry,
            &mut shadow,
            domain,
            &mut derived,
            &mut counts,
            Write::Insert,
            &insert,
            outcome,
        )?;
        let (first, repeats) = script.queries(domain);
        for (i, q) in first.iter().enumerate() {
            rec.next_request();
            let atom = q.render();
            let expected = q.answers(&derived);
            let reply = handle(
                rec,
                &registry,
                &mut counts,
                "handle_query_first",
                &query_request(&atom),
            );
            outcome.record(reply.and_then(|r| check_answers(&atom, &expected, &r)));
            if i == 0 {
                top_down_probe(rec, &shadow, q, &expected, counts.rounds % 4 == 0, outcome)?;
            }
        }
        for q in &repeats {
            rec.next_request();
            let atom = q.render();
            let reply = handle(
                rec,
                &registry,
                &mut counts,
                "handle_query_repeat",
                &query_request(&atom),
            );
            outcome.record(reply.and_then(|r| check_answers(&atom, &q.answers(&derived), &r)));
        }
        if let Some(remove) = script.remove_batch(domain) {
            write_op(
                rec,
                &registry,
                &mut shadow,
                domain,
                &mut derived,
                &mut counts,
                Write::Remove,
                &remove,
                outcome,
            )?;
        }
        counts.rounds += 1;
    }
    outcome.record(
        if shadow.sharded.database() == shadow.materialized.database() {
            Ok(())
        } else {
            Err("the 2-shard fixpoint differs from the unsharded one".into())
        },
    );

    let stats = handle(
        rec,
        &registry,
        &mut counts,
        "handle_stats",
        &Json::obj([("op", Json::str("stats")), ("program", Json::str(VIEW))]),
    )?;
    let eval = stats.get("metrics").and_then(|m| m.get("eval"));
    let counter = |name: &str| {
        eval.and_then(|e| e.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    counts.cache = [
        counter("query_cache_hits"),
        counter("query_cache_subsumption_hits"),
        counter("query_cache_misses"),
        counter("query_cache_invalidations"),
    ];

    // The recorded requests and replies through the program's JSON layer.
    let parsed: Vec<datalog_json::Value> = rec.span("json", "parse", |_| {
        counts
            .recorded
            .iter()
            .filter_map(|line| datalog_json::Value::parse(line).ok())
            .collect()
    });
    let bytes: usize = rec.span("json", "serialize", |_| {
        parsed.iter().map(|v| v.to_compact().len()).sum()
    });
    if parsed.len() != counts.recorded.len() || bytes == 0 {
        return Err("a recorded line did not parse back".into());
    }
    Ok(counts)
}

/// What one replay of a workload counted.
struct Replayed {
    batch: BatchCounts,
    serve: ServeCounts,
    wall_ms: f64,
    /// The workload's share of batch time in an end-to-end run.
    batch_share: f64,
}

/// Generation and both phases, each under a root span of its own.
fn replay(
    rec: &mut Recorder,
    cfg: &RunConfig,
    batch: Limit,
    serve: Limit,
    outcome: &mut Outcome,
) -> Result<Replayed, String> {
    let start = Instant::now();
    let mut app = rec.span("bench", "generate", |_| {
        apps::build(&cfg.workload, cfg.seed, cfg.smoke)
    })?;
    let batch = rec.span("bench", BATCH, |rec| {
        batch_replay(rec, &app, batch, outcome)
    })?;
    let serve = rec.span("bench", SERVE, |rec| {
        serve_replay(rec, app.domain.as_mut(), cfg.seed, serve, outcome)
    })?;
    Ok(Replayed {
        batch,
        serve,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        batch_share: app.batch_share,
    })
}

/// Median wall of the real `datalog eval` children on the optimized
/// programs, summed over the cases as the in-process figure is.
fn cli_eval_opt_ms(cfg: &RunConfig, binary: &Path) -> Result<f64, String> {
    let app = apps::build(&cfg.workload, cfg.seed, cfg.smoke)?;
    let files = run::write_inputs(&app, &run::workload_dir(&cfg.workload)?)?;
    let mut walls = Vec::new();
    for repeat in 0..3 {
        let mut wall = 0.0;
        for (case, f) in app.cases.iter().zip(&files) {
            if repeat == 0 {
                let done = run_cli(
                    binary,
                    &[case.optimizer, path_str(&f.program)],
                    &f.optimized,
                )?;
                if !done.success {
                    return Err(format!(
                        "{}: `datalog {}` failed",
                        case.name, case.optimizer
                    ));
                }
            }
            let done = run_cli(binary, &eval_args(case, &f.optimized, &f.edb), &f.opt_out)?;
            if !done.success {
                return Err(format!("{}: `datalog eval` failed", case.name));
            }
            wall += done.wall_ms;
        }
        walls.push(wall);
    }
    Ok(median(&walls))
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Run one workload with tracing on and report the per-layer metrics.
pub fn run(cfg: &RunConfig, binary: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let seconds = Duration::from_secs_f64(cfg.seconds);
    // The traced replay gets 45 % of the time, a third of that for the
    // batch phase whatever the workload: the per-layer figures of either
    // phase need samples, not the end-to-end run's proportions. The
    // untraced replay takes as long again, the children the rest.
    let mut rec = Recorder::new(true);
    let Replayed {
        batch,
        serve,
        wall_ms: traced_ms,
        batch_share,
    } = replay(
        &mut rec,
        cfg,
        Limit::For(seconds.mul_f64(0.15)),
        Limit::For(seconds.mul_f64(0.30)),
        &mut outcome,
    )?;
    let mut unchecked = Outcome::default();
    let untraced_ms = replay(
        &mut Recorder::new(false),
        cfg,
        Limit::Exactly(batch.repeats),
        Limit::Exactly(serve.rounds),
        &mut unchecked,
    )?
    .wall_ms;
    let cli_ms = cli_eval_opt_ms(cfg, binary)?;
    let wire = run::wire_sample(cfg, binary, seconds.mul_f64(0.05), &mut outcome)?;

    let trace_file = crate::proc::out_dir().join(format!("trace-{}.json", cfg.workload));
    rec.write(&trace_file)?;

    let spans = rec.spans();
    let p50 = |layer: &str, name: &str| -> f64 {
        let d = rec.durations(layer, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    // Not `sum()`: that of no samples is -0.0.
    let total = |layer: &str, name: &str| rec.durations(layer, name).iter().fold(0.0, |a, d| a + d);
    let count = |layer: &str, name: &str| rec.durations(layer, name).len();
    // A per-repeat figure: the sum over the cases, as the end-to-end
    // metrics have it.
    let per_repeat = |layer: &str, name: &str| total(layer, name) / batch.repeats.max(1) as f64;

    let mut push = |name: &'static str, value: f64, unit: &'static str, samples: usize| {
        outcome.metrics.push(Measured {
            name,
            value,
            unit,
            samples,
        })
    };
    let raw = batch.raw_stats;

    // ast
    push(
        "ast.parse_program_ms",
        p50("ast", "parse_program"),
        "ms",
        count("ast", "parse_program"),
    );
    push(
        "ast.parse_facts_ms",
        total("ast", "parse_facts"),
        "ms",
        count("ast", "parse_facts"),
    );
    push(
        "ast.parse_facts_per_s",
        share(batch.facts as f64, total("ast", "parse_facts") / 1e3),
        "1/s",
        batch.facts,
    );
    push(
        "ast.validate_ms",
        p50("ast", "validate"),
        "ms",
        count("ast", "validate"),
    );
    push(
        "ast.load_ms",
        total("ast", "load"),
        "ms",
        count("ast", "load"),
    );
    push(
        "ast.load_facts_per_s",
        share(batch.facts as f64, total("ast", "load") / 1e3),
        "1/s",
        batch.facts,
    );
    push(
        "ast.db_bytes_per_fact",
        share(batch.db_bytes as f64, batch.facts as f64),
        "B",
        batch.facts,
    );
    push(
        "ast.print_ms",
        per_repeat("ast", "print") / 2.0,
        "ms",
        count("ast", "print"),
    );
    // analysis
    push(
        "analysis.lint_ms",
        p50("analysis", "lint"),
        "ms",
        count("analysis", "lint"),
    );
    // core
    push(
        "core.minimize_ms",
        per_repeat("core", "minimize"),
        "ms",
        count("core", "minimize"),
    );
    push(
        "core.equiv_ms",
        per_repeat("core", "equiv"),
        "ms",
        count("core", "equiv"),
    );
    push(
        "core.containment_ms_per_test",
        share(total("core", "containment"), batch.containment_tests as f64),
        "ms",
        batch.containment_tests,
    );
    push("core.atoms_removed", batch.atoms_removed as f64, "count", 1);
    push("core.rules_removed", batch.rules_removed as f64, "count", 1);
    push("core.tgds_applied", batch.tgds_applied as f64, "count", 1);
    push(
        "core.planted_recovered_share",
        share(batch.recovered as f64, batch.planted as f64),
        "share",
        batch.planted,
    );
    // engine, batch
    push(
        "engine.fixpoint_raw_ms",
        per_repeat("engine", "fixpoint_raw"),
        "ms",
        count("engine", "fixpoint_raw"),
    );
    push(
        "engine.fixpoint_opt_ms",
        per_repeat("engine", "fixpoint_opt"),
        "ms",
        count("engine", "fixpoint_opt"),
    );
    push("engine.rounds", raw.iterations as f64, "count", 1);
    push("engine.probes", raw.probes as f64, "count", 1);
    push("engine.matches", raw.matches as f64, "count", 1);
    push("engine.derivations", raw.derivations as f64, "count", 1);
    push(
        "engine.duplicate_share",
        1.0 - share(raw.derivations as f64, raw.matches as f64),
        "share",
        1,
    );
    push(
        "engine.probes_per_new_atom",
        share(raw.probes as f64, raw.derivations as f64),
        "count",
        1,
    );
    push("engine.index_builds", raw.index_builds as f64, "count", 1);
    push(
        "engine.specialized_tasks",
        raw.specialized_tasks as f64,
        "count",
        1,
    );
    push(
        "engine.pipelined_task_share",
        share(raw.pipelined_tasks as f64, raw.specialized_tasks as f64),
        "share",
        1,
    );
    push(
        "engine.batch_reuse_hits",
        raw.batch_reuse_hits as f64,
        "count",
        1,
    );
    push("engine.arena_bytes", raw.arena_bytes as f64, "B", 1);
    let threads1 = total("engine", "fixpoint_opt_threads1");
    push(
        "engine.threads2_speedup",
        share(threads1, total("engine", "fixpoint_opt_threads2")),
        "x",
        count("engine", "fixpoint_opt_threads2"),
    );
    push(
        "engine.kernels_vs_interpreter",
        share(total("engine", "fixpoint_opt_interpreted"), threads1),
        "x",
        count("engine", "fixpoint_opt_interpreted"),
    );
    push(
        "engine.context_new_ms_per_call",
        p50("engine", "context_new"),
        "ms",
        count("engine", "context_new"),
    );
    // engine, incremental
    let (insert, remove) = (p50("engine", "insert"), p50("engine", "remove"));
    push(
        "engine.insert_ms_p50",
        insert,
        "ms",
        count("engine", "insert"),
    );
    push(
        "engine.remove_ms_p50",
        remove,
        "ms",
        count("engine", "remove"),
    );
    push(
        "engine.insert_vs_recompute",
        share(insert, p50("engine", "recompute_after_insert")),
        "x",
        count("engine", "recompute_after_insert"),
    );
    push(
        "engine.remove_vs_recompute",
        share(remove, p50("engine", "recompute_after_remove")),
        "x",
        count("engine", "recompute_after_remove"),
    );
    push(
        "engine.sharded2_vs_unsharded",
        share(
            total("engine", "sharded2_insert")
                + total("engine", "sharded2_reinsert")
                + total("engine", "sharded2_remove"),
            total("engine", "insert") + total("engine", "reinsert") + total("engine", "remove"),
        ),
        "x",
        serve.writes,
    );
    // engine, top-down
    let answer = p50("engine", "answer_magic");
    push(
        "engine.plan_ms",
        p50("engine", "plan"),
        "ms",
        count("engine", "plan"),
    );
    push(
        "engine.answer_magic_ms_p50",
        answer,
        "ms",
        count("engine", "answer_magic"),
    );
    push(
        "engine.answer_qsq_ms_p50",
        p50("engine", "answer_qsq"),
        "ms",
        count("engine", "answer_qsq"),
    );
    push(
        "engine.answer_vs_fixpoint",
        share(answer, p50("engine", "recompute_after_insert")),
        "x",
        count("engine", "answer_magic"),
    );
    push(
        "engine.answer_vs_scan",
        share(answer, p50("engine", "scan")),
        "x",
        count("engine", "scan"),
    );
    // service
    let handle_repeat = p50("service", "handle_query_repeat");
    push(
        "service.handle_insert_ms_p50",
        p50("service", "handle_insert"),
        "ms",
        count("service", "handle_insert"),
    );
    push(
        "service.handle_remove_ms_p50",
        p50("service", "handle_remove"),
        "ms",
        count("service", "handle_remove"),
    );
    push(
        "service.handle_query_first_ms_p50",
        p50("service", "handle_query_first"),
        "ms",
        count("service", "handle_query_first"),
    );
    push(
        "service.handle_query_repeat_ms_p50",
        handle_repeat,
        "ms",
        count("service", "handle_query_repeat"),
    );
    let view_insert = p50("service", "view_insert");
    push(
        "service.view_insert_ms_p50",
        view_insert,
        "ms",
        count("service", "view_insert"),
    );
    push(
        "service.publish_ms_p50",
        view_insert - insert,
        "ms",
        count("service", "view_insert"),
    );
    let [hits, subsumed, misses, invalidated] = serve.cache;
    let lookups = (hits + subsumed + misses) as f64;
    push(
        "service.cache_hit_share",
        share(hits as f64, lookups),
        "share",
        lookups as usize,
    );
    push(
        "service.cache_subsumed_share",
        share(subsumed as f64, lookups),
        "share",
        lookups as usize,
    );
    push(
        "service.cache_miss_share",
        share(misses as f64, lookups),
        "share",
        lookups as usize,
    );
    push(
        "service.cache_invalidated_per_write",
        share(invalidated as f64, serve.writes as f64),
        "count",
        serve.writes,
    );
    push(
        "service.wire_overhead_ms_p50",
        wire.repeat_p50_ms - handle_repeat,
        "ms",
        wire.repeats,
    );
    // json
    let megabytes = serve.recorded_bytes as f64 / 1e6;
    push(
        "json.parse_ms_per_mb",
        share(total("json", "parse"), megabytes),
        "ms/MB",
        serve.recorded.len(),
    );
    push(
        "json.serialize_ms_per_mb",
        share(total("json", "serialize"), megabytes),
        "ms/MB",
        serve.recorded.len(),
    );
    // cli, trace
    push(
        "cli.process_overhead_ms",
        cli_ms - median(&batch.eval_opt_ms),
        "ms",
        batch.eval_opt_ms.len(),
    );
    push(
        "trace.overhead_share",
        traced_ms / untraced_ms - 1.0,
        "share",
        spans.len(),
    );
    // Where the time goes: self time per layer as a share of its phase,
    // the phases weighted as the end-to-end run divides its seconds.
    let layers = layer_self_ms(spans);
    let traced_total = layers.values().fold(0.0, |a, ms| a + ms);
    let phase_total = |phase: &str| {
        layers
            .iter()
            .filter(|((root, _), _)| *root == phase)
            .fold(0.0, |a, (_, ms)| a + ms)
    };
    let (batch_total, serve_total) = (phase_total(BATCH), phase_total(SERVE));
    for (layer, name) in LAYER_SHARES {
        let of = |phase| layers.get(&(phase, layer)).copied().unwrap_or(0.0);
        push(
            name,
            batch_share * share(of(BATCH), batch_total)
                + (1.0 - batch_share) * share(of(SERVE), serve_total),
            "share",
            spans.len(),
        );
    }
    let span_count = spans.len();
    for (name, value, unit, samples) in [
        ("traced_wall_ms", traced_ms, "ms", 1),
        ("layer_self_sum_ms", traced_total, "ms", span_count),
        ("untraced_wall_ms", untraced_ms, "ms", 1),
        ("replay_repeats", batch.repeats as f64, "count", 1),
        ("replay_rounds", serve.rounds as f64, "count", 1),
    ] {
        outcome.extras.push(Measured {
            name,
            value,
            unit,
            samples,
        });
    }
    outcome.attempted += unchecked.attempted;
    outcome.failed += unchecked.failed;
    outcome.failures.extend(unchecked.failures);
    Ok(outcome)
}
