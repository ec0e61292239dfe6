//! `datalog` — command-line driver for the sagiv-datalog library.
//!
//! ```text
//! datalog check    <program.dl>                       validate a program
//! datalog lint     <program.dl> [--format text|json]  structural + semantic lints
//!                  [--deny <code>]... [--fuel N]
//! datalog analyze  <program.dl>                       predicates, recursion, strata
//! datalog minimize <program.dl> [--stats]             Fig. 2 minimization (≡u)
//! datalog optimize <program.dl> [--fuel N] [--stats]  Fig. 2 + §X–XI equivalence phase
//! datalog eval     <program.dl> --edb <facts.dl>      bottom-up evaluation
//!                  [--engine stratified|scc|naive] [--stats]   (seminaive = scc = stratified)
//! datalog run      <unit.dl> [--fuel N] [--stats]     evaluate rules + facts [+ tgds] in one file
//! datalog repl     [<program.dl>]                     interactive session
//! datalog query    '<atom>'... <program.dl> --edb <facts.dl>  magic-sets point queries
//!                  [--stats]                                 (one plan per adornment)
//! datalog explain  '<atom>' <program.dl> --edb <facts.dl>   provenance proof tree
//! datalog contains <p1.dl> <p2.dl>                    uniform containment, both ways
//! datalog equiv    <p1.dl> <p2.dl> [--fuel N] [--samples N] equivalence analysis (§X–§XI)
//! datalog chase    <program.dl> --tgds <tgds.dl> --db <facts.dl> [--fuel N]
//! datalog serve    [--addr H:P] [--threads N]          materialized-view daemon (JSON protocol)
//!                  [--max-bytes N] [--timeout-ms N] [--max-conns N]
//! datalog client   <addr> [request-json]...            send protocol requests (stdin if none)
//! datalog fuzz     [--seed N] [--cases N] [--budget-ms N]   differential oracle fuzzing
//!                  [--oracle all|engines|optimization|incremental|view-query|concurrent-service|metamorphic]
//!                  [--format text|json] [--repro-dir DIR] [--smoke]
//! ```
//!
//! Exit codes: 0 success, 1 user error (bad args — a flag the subcommand
//! does not take included —, parse/validation failures), 2 property does not hold (e.g. `contains` finds none; `lint`
//! emits an error-severity diagnostic).

use sagiv_datalog::engine::Traced;
use sagiv_datalog::optimizer::{minimize_stratified, tally, ChaseResult, ChaseTermination, Tally};
use sagiv_datalog::prelude::*;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(1));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "check" => cmd_check(rest),
        "lint" => cmd_lint(rest),
        "analyze" => cmd_analyze(rest),
        "minimize" => cmd_minimize(rest),
        "optimize" => cmd_optimize(rest),
        "eval" => cmd_eval(rest),
        "run" => cmd_run(rest),
        "repl" => cmd_repl(rest),
        "query" => cmd_query(rest),
        "explain" => cmd_explain(rest),
        "contains" => cmd_contains(rest),
        "equiv" => cmd_equiv(rest),
        "chase" => cmd_chase(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "fuzz" => cmd_fuzz(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`; run `datalog help`")),
    }
}

fn print_usage() {
    eprintln!(
        "datalog — Sagiv 1987 Datalog optimizer & engine

usage:
  datalog check    <program.dl>
  datalog lint     <program.dl> [--format text|json] [--deny <code>]... [--fuel N]
  datalog analyze  <program.dl>
  datalog minimize <program.dl> [--stats]
  datalog optimize <program.dl> [--fuel N] [--stats]
  datalog eval     <program.dl> --edb <facts.dl> [--engine stratified|scc|naive] [--stats]
                   (seminaive, stratified and scc name one semi-naive evaluator;
                   naive is the unindexed reference, meant for small inputs;
                   both evaluate negation by strata)
  datalog run      <unit.dl> [--fuel N] [--stats]   (rules + facts [+ tgds] in one file)
  datalog repl     [<program.dl>]   interactive session
  datalog query    '<atom>'... <program.dl> --edb <facts.dl> [--stats]
  datalog explain  '<atom>' <program.dl> --edb <facts.dl>
  datalog contains <p1.dl> <p2.dl>
  datalog equiv    <p1.dl> <p2.dl> [--fuel N] [--samples N]
  datalog chase    <program.dl> --tgds <tgds.dl> --db <facts.dl> [--fuel N]
  datalog serve    [--addr HOST:PORT] [--threads N] [--max-bytes N]
                   [--timeout-ms N] [--max-conns N]
  datalog client   <addr> [request-json]...   (reads stdin when no requests given)
  datalog fuzz     [--seed N] [--cases N] [--budget-ms N] [--oracle FAMILY]
                   [--format text|json] [--repro-dir DIR] [--smoke]"
    );
}

/// Parse `--flag value` options out of the arguments of `datalog <cmd>`;
/// returns the positional arguments and a lookup. `accepted` names every
/// flag the subcommand reads (`fuel` included where [`Flags::fuel`] is
/// called); any other flag is refused rather than ignored.
fn split_flags<'a>(
    args: &'a [String],
    cmd: &str,
    accepted: &[&str],
) -> Result<(Vec<&'a str>, Flags<'a>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.contains(&name) {
                return Err(format!(
                    "`datalog {cmd}` has no flag `--{name}`; run `datalog help`"
                ));
            }
            // Boolean flags take no value.
            if name == "stats" || name == "smoke" {
                flags.push((name, ""));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name, value.as_str()));
                i += 2;
            }
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, Flags(flags)))
}

struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// All values of a repeatable flag, e.g. `--deny L201 --deny L121`.
    fn get_all(&self, name: &str) -> impl Iterator<Item = &'a str> + '_ {
        let name = name.to_string();
        self.0
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn fuel(&self) -> Result<u64, String> {
        match self.get("fuel") {
            None => Ok(10_000),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--fuel: `{v}` is not a number")),
        }
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Parse and validate a program: every command that reads one refuses an
/// invalid program here, with the diagnostics `datalog check` prints.
fn load_program(path: &str) -> Result<Program, String> {
    let src = read_file(path)?;
    let program = parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    check_valid(path, &program)?;
    Ok(program)
}

fn check_valid(path: &str, program: &Program) -> Result<(), String> {
    validate(program).map_err(|errors| {
        let lines: Vec<String> = errors.iter().map(|e| format!("{path}: {e}")).collect();
        lines.join("\n")
    })
}

/// The guard of `query`, `explain` and the repl, whose engines assert
/// positivity: an ordinary error instead of that panic.
fn require_positive(program: &Program, what: &str) -> Result<(), String> {
    if program.is_positive() {
        return Ok(());
    }
    Err(format!(
        "{what} requires a positive program; use --engine stratified (an option of `datalog eval`)"
    ))
}

fn load_database(path: &str) -> Result<Database, String> {
    let src = read_file(path)?;
    parse_database(&src).map_err(|e| format!("{path}: {e}"))
}

/// Stdout behind one lock and one buffer, for output that runs to many
/// lines: Rust's stdout is line-buffered, one `write(2)` per line. Flush it
/// once at the end, mapping errors through [`stdout_error`].
fn buffered_stdout() -> BufWriter<io::StdoutLock<'static>> {
    BufWriter::new(io::stdout().lock())
}

/// A failed write to stdout, as an error message. A reader that went away
/// (`datalog eval … | head -1`) is a normal end of the output instead: the
/// process exits 0 on the spot, where it would have died of SIGPIPE had the
/// Rust runtime not ignored that signal.
fn stdout_error(e: io::Error) -> String {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    format!("cannot write to stdout: {e}")
}

/// Print every atom of `db` as `atom.`, one per line, straight from the
/// relations' rows.
fn print_atoms(db: &Database) -> Result<(), String> {
    let mut out = buffered_stdout();
    write!(out, "{}", db.facts()).map_err(stdout_error)?;
    out.flush().map_err(stdout_error)
}

/// The second `--stats` line of `eval` and `run`: where the wall time
/// between the start of the command and the end of its output went.
fn phases_line(start: Instant, loaded: Instant, evaluated: Instant, printed: Instant) -> String {
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    format!(
        "phases load_ms={:.1} eval_ms={:.1} print_ms={:.1}",
        ms(start, loaded),
        ms(loaded, evaluated),
        ms(evaluated, printed)
    )
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let (pos, _) = split_flags(args, "check", &[])?;
    let [path] = pos.as_slice() else {
        return Err("usage: datalog check <program.dl>".into());
    };
    let src = read_file(path)?;
    let unit = parse_unit(&src).map_err(|e| format!("{path}: {e}"))?;
    let mut failed = false;
    if let Err(errors) = validate(&unit.program) {
        for e in errors {
            eprintln!("{path}: {e}");
        }
        failed = true;
    }
    if let Err(errors) = unit.check_schemas() {
        for e in errors {
            eprintln!("{path}: {e}");
        }
        failed = true;
    }
    if failed {
        Ok(ExitCode::from(2))
    } else {
        println!(
            "{path}: ok ({} rules, {} facts, {} tgds, {} declarations)",
            unit.program.len(),
            unit.facts.len(),
            unit.tgds.len(),
            unit.schemas.len()
        );
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    use sagiv_datalog::analysis::{analyze_unit, LintConfig, Severity};

    let (pos, flags) = split_flags(args, "lint", &["format", "deny", "allow", "fuel"])?;
    let [path] = pos.as_slice() else {
        return Err(
            "usage: datalog lint <program.dl> [--format text|json] [--deny <code>]... [--fuel N]"
                .into(),
        );
    };
    let src = read_file(path)?;
    let unit = parse_unit(&src).map_err(|e| format!("{path}: {e}"))?;
    let mut config = LintConfig::default().with_fuel(flags.fuel()?);
    for code in flags.get_all("deny") {
        config = config.deny(code);
    }
    for code in flags.get_all("allow") {
        config = config.disable(code);
    }
    let report = analyze_unit(&unit, &config);
    match flags.get("format").unwrap_or("text") {
        "json" => println!("{}", report.to_json().to_pretty()),
        "text" => {
            for d in &report.diagnostics {
                println!("{path}: {d}");
            }
            let mut summary = format!(
                "{} error(s), {} warning(s), {} note(s)",
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Note)
            );
            if report.skipped_semantic_checks > 0 {
                summary.push_str(&format!(
                    "; {} semantic check(s) skipped (raise --fuel)",
                    report.skipped_semantic_checks
                ));
            }
            eprintln!("% {summary}");
        }
        other => return Err(format!("unknown format `{other}` (text|json)")),
    }
    Ok(if report.max_severity() == Some(Severity::Error) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let (pos, _) = split_flags(args, "analyze", &[])?;
    let [path] = pos.as_slice() else {
        return Err("usage: datalog analyze <program.dl>".into());
    };
    let program = load_program(path)?;
    let graph = DepGraph::new(&program);
    let idb = program.intentional();
    let edb = program.extensional();
    println!("rules:       {}", program.len());
    println!("body atoms:  {}", program.total_width());
    println!(
        "intentional: {}",
        idb.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "extensional: {}",
        edb.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("recursive:   {}", graph.is_recursive());
    println!(
        "linear:      {}",
        datalog_ast::depgraph::is_linear(&program)
    );
    match graph.stratify() {
        Some(strata) => {
            let max = strata.values().copied().max().unwrap_or(0);
            println!("strata:      {}", max + 1);
            for (p, s) in &strata {
                println!("  {p}: stratum {s}");
            }
        }
        None => println!("strata:      NOT STRATIFIABLE"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--stats` line of `minimize` and `optimize`: the §VI tests the
/// command ran with the engine work they summed to, the Fig. 1 removals it
/// decided without a test, and where the wall time went — parsing, the
/// optimizer (`phase`), printing.
fn tests_line(tests: Tally, phase: &str, start: Instant, parsed: Instant, ran: Instant) -> String {
    let printed = Instant::now();
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    format!(
        "tests={} decided={} rounds={} tasks={} matches={} parse_ms={:.1} {phase}_ms={:.1} print_ms={:.1}",
        tests.tests,
        tests.decided,
        tests.work.iterations,
        tests.work.specialized_tasks,
        tests.work.matches,
        ms(start, parsed),
        ms(parsed, ran),
        ms(ran, printed)
    )
}

/// The §VI tests run on this thread since `before`.
fn tests_since(before: Tally) -> Tally {
    let now = tally();
    Tally {
        tests: now.tests - before.tests,
        decided: now.decided - before.decided,
        work: now.work - before.work,
    }
}

/// Print a program to stdout, one flush.
fn print_program(program: &Program) -> Result<(), String> {
    let mut out = buffered_stdout();
    write!(out, "{program}").map_err(stdout_error)?;
    out.flush().map_err(stdout_error)
}

fn cmd_minimize(args: &[String]) -> Result<ExitCode, String> {
    let start = Instant::now();
    let (pos, flags) = split_flags(args, "minimize", &["stats"])?;
    let [path] = pos.as_slice() else {
        return Err("usage: datalog minimize <program.dl> [--stats]".into());
    };
    let program = load_program(path)?;
    let (parsed, before) = (Instant::now(), tally());
    let (minimized, removal) = if program.is_positive() {
        minimize_program(&program).map_err(|e| e.to_string())?
    } else {
        minimize_stratified(&program).map_err(|e| e.to_string())?
    };
    let (ran, tests) = (Instant::now(), tests_since(before));
    print_program(&minimized)?;
    for (idx, atom) in &removal.atoms {
        eprintln!("% removed atom {atom} (rule {idx})");
    }
    for rule in &removal.rules {
        eprintln!("% removed rule {rule}");
    }
    if flags.has("stats") {
        eprintln!("% {}", tests_line(tests, "minimize", start, parsed, ran));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_optimize(args: &[String]) -> Result<ExitCode, String> {
    let start = Instant::now();
    let (pos, flags) = split_flags(args, "optimize", &["fuel", "stats"])?;
    let [path] = pos.as_slice() else {
        return Err("usage: datalog optimize <program.dl> [--fuel N] [--stats]".into());
    };
    let program = load_program(path)?;
    let (parsed, before) = (Instant::now(), tally());
    let (optimized, removal, applied) =
        optimize(&program, flags.fuel()?).map_err(|e| e.to_string())?;
    let (ran, tests) = (Instant::now(), tests_since(before));
    print_program(&optimized)?;
    for (idx, atom) in &removal.atoms {
        eprintln!("% [≡u] removed atom {atom} (rule {idx})");
    }
    for rule in &removal.rules {
        eprintln!("% [≡u] removed rule {rule}");
    }
    for opt in &applied {
        eprintln!(
            "% [≡ via tgd {}] removed {}",
            opt.tgd,
            opt.removed_atoms
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if flags.has("stats") {
        eprintln!("% {}", tests_line(tests, "optimize", start, parsed, ran));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_eval(args: &[String]) -> Result<ExitCode, String> {
    let start = Instant::now();
    let (pos, flags) = split_flags(args, "eval", &["edb", "engine", "stats"])?;
    let [path] = pos.as_slice() else {
        return Err(
            "usage: datalog eval <program.dl> --edb <facts.dl> [--engine E] [--stats]".into(),
        );
    };
    let program = load_program(path)?;
    let edb = load_database(flags.get("edb").ok_or("--edb <facts.dl> is required")?)?;
    let loaded = Instant::now();
    // `seminaive`, `stratified` and `scc` all name the one semi-naive path.
    let (out, stats) = match flags.get("engine").unwrap_or("stratified") {
        "naive" => {
            if DepGraph::new(&program).stratify().is_none() {
                return Err(EvalError::NotStratifiable.to_string());
            }
            naive::evaluate_with_stats(&program, &edb)
        }
        "seminaive" | "stratified" | "scc" => {
            evaluate(&program, &edb).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown engine `{other}`")),
    };
    let evaluated = Instant::now();
    print_atoms(&out)?;
    let printed = Instant::now();
    if flags.has("stats") {
        eprintln!("% {stats}");
        eprintln!("% {}", phases_line(start, loaded, evaluated, printed));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let start = Instant::now();
    let (pos, flags) = split_flags(args, "run", &["stats", "fuel"])?;
    let [path] = pos.as_slice() else {
        return Err("usage: datalog run <unit.dl> [--fuel N] [--stats]".into());
    };
    let src = read_file(path)?;
    let unit = parse_unit(&src).map_err(|e| format!("{path}: {e}"))?;
    if let Err(errors) = unit.check_schemas() {
        let msgs: Vec<String> = errors.iter().map(ToString::to_string).collect();
        return Err(msgs.join("; "));
    }
    check_valid(path, &unit.program)?;
    let input = Database::from_atoms(unit.facts.iter().cloned());
    let loaded = Instant::now();
    let (out, stats, status) = if unit.tgds.is_empty() {
        let (out, stats) = evaluate(&unit.program, &input).map_err(|e| e.to_string())?;
        (out, stats, ChaseStatus::Saturated)
    } else {
        // With tgds: run the combined [P, T] chase (fuel-bounded).
        let result = run_chase(&unit.program, &unit.tgds, &input, flags.fuel()?);
        eprintln!("% chase status: {:?}", result.status);
        (result.db, Stats::default(), result.status)
    };
    let evaluated = Instant::now();
    print_atoms(&out)?;
    let printed = Instant::now();
    if flags.has("stats") {
        eprintln!("% {stats}");
        eprintln!("% {}", phases_line(start, loaded, evaluated, printed));
    }
    Ok(chase_exit(status))
}

/// Run the `[program, tgds]` chase, with `fuel` lifted when the
/// termination analysis of the rules and tgds guarantees it stops; the
/// analysis is reported on stderr.
fn run_chase(program: &Program, tgds: &[Tgd], db: &Database, fuel: u64) -> ChaseResult {
    use sagiv_datalog::optimizer::{analyze_termination, fuel_for};
    eprintln!(
        "% termination: {}",
        match analyze_termination(program, tgds) {
            ChaseTermination::AllFull => "guaranteed (all tgds full)",
            ChaseTermination::WeaklyAcyclic => "guaranteed (weakly acyclic)",
            ChaseTermination::Unknown => "not guaranteed (fuel bound applies)",
        }
    );
    chase(program, tgds, db, fuel_for(program, tgds, fuel), None)
}

/// A chase that ran out of fuel printed a partial database: exit 2.
fn chase_exit(status: ChaseStatus) -> ExitCode {
    match status {
        ChaseStatus::Saturated | ChaseStatus::GoalReached => ExitCode::SUCCESS,
        ChaseStatus::OutOfFuel => ExitCode::from(2),
    }
}

/// Answer one or more point queries. An atom of a predicate the program
/// derives is evaluated by magic sets; all atoms of one invocation share a
/// [`PlanCache`], so the plan for a binding pattern is built once. A
/// predicate the program has no rule for is read straight from the EDB,
/// and an atom whose arity contradicts the program is refused before
/// anything runs.
///
/// [`PlanCache`]: datalog_engine::PlanCache
fn cmd_query(args: &[String]) -> Result<ExitCode, String> {
    use datalog_ast::RowDisplay;
    use datalog_engine::PlanCache;

    let (pos, flags) = split_flags(args, "query", &["edb", "stats"])?;
    let Some((path, query_srcs)) = pos.split_last().filter(|(_, qs)| !qs.is_empty()) else {
        return Err(
            "usage: datalog query '<atom>'... <program.dl> --edb <facts.dl> [--stats]".into(),
        );
    };
    let program = load_program(path)?;
    require_positive(&program, "query")?;
    let edb = load_database(flags.get("edb").ok_or("--edb <facts.dl> is required")?)?;
    let arities = program.arities();
    let queries = query_srcs
        .iter()
        .map(|src| {
            let query = parse_atom(src).map_err(|e| e.to_string())?;
            match arities.get(&query.pred) {
                Some(&arity) if arity != query.arity() => Err(format!(
                    "`{query}` contradicts {}/{arity} in {path}",
                    query.pred
                )),
                _ => Ok(query),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let derived = program.intentional();
    let plans = PlanCache::new(std::sync::Arc::new(program));
    let mut any_answers = false;
    let mut out = buffered_stdout();
    for query in &queries {
        let evaluated = derived
            .contains(&query.pred)
            .then(|| plans.answer(&edb, query));
        let (rows, how, stats) = match &evaluated {
            Some((answers, stats)) => (answers.select(query), "magic", *stats),
            None => (edb.select(query), "scan", Stats::default()),
        };
        if queries.len() > 1 {
            writeln!(out, "% ?- {query}.").map_err(stdout_error)?;
        }
        for row in &rows {
            writeln!(out, "{}.", RowDisplay(query.pred, row)).map_err(stdout_error)?;
        }
        any_answers |= !rows.is_empty();
        if flags.has("stats") {
            eprintln!("% [{how}] {stats}");
        }
    }
    out.flush().map_err(stdout_error)?;
    Ok(if any_answers {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_explain(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags) = split_flags(args, "explain", &["edb"])?;
    let [atom_src, path] = pos.as_slice() else {
        return Err("usage: datalog explain '<atom>' <program.dl> --edb <facts.dl>".into());
    };
    let atom = parse_atom(atom_src).map_err(|e| e.to_string())?;
    let goal = atom
        .to_ground()
        .ok_or("the atom to explain must be ground")?;
    let program = load_program(path)?;
    require_positive(&program, "explain")?;
    let edb = load_database(flags.get("edb").ok_or("--edb <facts.dl> is required")?)?;
    let mut traced = Traced::new(&program, edb);
    match traced.explain(&goal) {
        Some(proof) => {
            print!("{proof}");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("{goal} is not derivable");
            Ok(ExitCode::from(2))
        }
    }
}

fn cmd_contains(args: &[String]) -> Result<ExitCode, String> {
    let (pos, _) = split_flags(args, "contains", &[])?;
    let [p1_path, p2_path] = pos.as_slice() else {
        return Err("usage: datalog contains <p1.dl> <p2.dl>".into());
    };
    let p1 = load_program(p1_path)?;
    let p2 = load_program(p2_path)?;
    let fwd = uniformly_contains(&p1, &p2).map_err(|e| e.to_string())?;
    let bwd = uniformly_contains(&p2, &p1).map_err(|e| e.to_string())?;
    println!("P2 ⊑u P1 (P1 uniformly contains P2): {fwd}");
    println!("P1 ⊑u P2 (P2 uniformly contains P1): {bwd}");
    println!("uniformly equivalent: {}", fwd && bwd);
    Ok(if fwd && bwd {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_equiv(args: &[String]) -> Result<ExitCode, String> {
    use sagiv_datalog::optimizer::{analyze_equivalence, EquivVerdict};
    let (pos, flags) = split_flags(args, "equiv", &["samples", "fuel"])?;
    let [p1_path, p2_path] = pos.as_slice() else {
        return Err("usage: datalog equiv <p1.dl> <p2.dl> [--fuel N] [--samples N]".into());
    };
    let p1 = load_program(p1_path)?;
    let p2 = load_program(p2_path)?;
    let samples = match flags.get("samples") {
        None => 200,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--samples: `{v}` is not a number"))?,
    };
    let verdict =
        analyze_equivalence(&p1, &p2, flags.fuel()?, samples).map_err(|e| e.to_string())?;
    match verdict {
        EquivVerdict::UniformlyEquivalent => {
            println!("EQUIVALENT (uniformly — decided, paper §VI)");
            Ok(ExitCode::SUCCESS)
        }
        EquivVerdict::CertifiedEquivalent => {
            println!("EQUIVALENT (certified via the §X–§XI tgd pipeline)");
            Ok(ExitCode::SUCCESS)
        }
        EquivVerdict::NotEquivalent(sep) => {
            println!("NOT EQUIVALENT");
            println!("separating EDB: {}", sep.edb);
            println!(
                "witness: {} derived by {} only",
                sep.witness,
                if sep.in_first { "P1" } else { "P2" }
            );
            Ok(ExitCode::from(2))
        }
        EquivVerdict::Unknown => {
            println!("UNKNOWN (neither proved nor refuted within budget — the problem is undecidable in general)");
            Ok(ExitCode::from(3))
        }
    }
}

fn cmd_chase(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags) = split_flags(args, "chase", &["tgds", "db", "fuel"])?;
    let [path] = pos.as_slice() else {
        return Err(
            "usage: datalog chase <program.dl> --tgds <tgds.dl> --db <facts.dl> [--fuel N]".into(),
        );
    };
    let program = load_program(path)?;
    let tgds_src = read_file(flags.get("tgds").ok_or("--tgds <tgds.dl> is required")?)?;
    let tgds = parse_tgds(&tgds_src).map_err(|e| e.to_string())?;
    let db = load_database(flags.get("db").ok_or("--db <facts.dl> is required")?)?;
    let result = run_chase(&program, &tgds, &db, flags.fuel()?);
    print_atoms(&result.db)?;
    eprintln!(
        "% status: {:?}, atoms added: {}",
        result.status, result.added
    );
    Ok(chase_exit(result.status))
}

/// Run the materialized-view daemon (see `docs/SERVICE.md` for the wire
/// protocol). Prints `listening on HOST:PORT` on stdout once ready — with
/// `--addr 127.0.0.1:0` that line is how callers learn the ephemeral port.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    use sagiv_datalog::service::{Server, ServerConfig};

    let (pos, flags) = split_flags(
        args,
        "serve",
        &["addr", "threads", "max-bytes", "timeout-ms", "max-conns"],
    )?;
    if !pos.is_empty() {
        return Err(
            "usage: datalog serve [--addr HOST:PORT] [--threads N] [--max-bytes N] \
             [--timeout-ms N] [--max-conns N]"
                .into(),
        );
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:4713");
    let mut config = ServerConfig::default();
    if let Some(v) = flags.get("threads") {
        config.threads = v
            .parse()
            .map_err(|_| format!("--threads: `{v}` is not a number"))?;
    }
    if let Some(v) = flags.get("max-bytes") {
        config.max_request_bytes = v
            .parse()
            .map_err(|_| format!("--max-bytes: `{v}` is not a number"))?;
    }
    if let Some(v) = flags.get("timeout-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--timeout-ms: `{v}` is not a number"))?;
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = flags.get("max-conns") {
        config.max_connections = v
            .parse()
            .map_err(|_| format!("--max-conns: `{v}` is not a number"))?;
    }
    let server = Server::bind(addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    eprintln!("% shutdown complete");
    Ok(ExitCode::SUCCESS)
}

/// Send protocol requests to a running daemon, one JSON object per line
/// (from the command line, or from stdin when none are given). Responses
/// print to stdout; exit code 2 if any response carried `"ok": false`.
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    use sagiv_datalog::service::Client;
    use std::io::BufRead as _;

    let (pos, _) = split_flags(args, "client", &[])?;
    let Some((addr, requests)) = pos.split_first() else {
        return Err("usage: datalog client <addr> [request-json]...".into());
    };
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut any_failed = false;
    let mut send = |client: &mut Client, line: &str| -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let response = client.request_line(line).map_err(|e| e.to_string())?;
        println!("{response}");
        if let Ok(v) = datalog_json::Value::parse(&response) {
            if v.get("ok").and_then(datalog_json::Value::as_bool) == Some(false) {
                any_failed = true;
            }
        }
        Ok(())
    };
    if requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            send(&mut client, &line)?;
        }
    } else {
        for request in requests {
            send(&mut client, request)?;
        }
    }
    Ok(if any_failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// Differential oracle fuzzing (see `docs/FUZZING.md`). Exit code 0 when
/// every case agrees across the engine matrix / optimizer / incremental
/// oracles, 2 when any divergence was found. Divergences are reduced to
/// minimal repros; `--repro-dir` writes them as `.repro` fixtures.
fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    use sagiv_datalog::oracle::{fuzz, Family, FuzzConfig};

    let (pos, flags) = split_flags(
        args,
        "fuzz",
        &[
            "seed",
            "cases",
            "budget-ms",
            "oracle",
            "format",
            "repro-dir",
            "smoke",
        ],
    )?;
    if !pos.is_empty() {
        return Err(
            "usage: datalog fuzz [--seed N] [--cases N] [--budget-ms N] [--oracle FAMILY] \
             [--format text|json] [--repro-dir DIR] [--smoke]"
                .into(),
        );
    }
    let mut config = if flags.has("smoke") {
        FuzzConfig::smoke()
    } else {
        FuzzConfig::default()
    };
    let parse_num = |name: &str, v: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("--{name}: `{v}` is not a number"))
    };
    if let Some(v) = flags.get("seed") {
        config.seed = parse_num("seed", v)?;
    }
    if let Some(v) = flags.get("cases") {
        config.cases = parse_num("cases", v)?;
    }
    if let Some(v) = flags.get("budget-ms") {
        config.budget_ms = Some(parse_num("budget-ms", v)?);
    }
    if let Some(v) = flags.get("oracle") {
        config.families = match v {
            "all" => Family::ALL.to_vec(),
            name => vec![Family::parse(name).ok_or_else(|| {
                format!(
                    "--oracle: `{name}` is not all|engines|optimization|incremental|view-query|concurrent-service|metamorphic"
                )
            })?],
        };
    }

    let mut report = fuzz(&config);

    if let Some(dir) = flags.get("repro-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for finding in &mut report.findings {
            let path = format!("{dir}/fuzz-{}-{}.repro", finding.family, finding.seed);
            std::fs::write(&path, &finding.fixture)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            finding.written_to = Some(path);
        }
    }

    match flags.get("format").unwrap_or("text") {
        "json" => println!("{}", report.to_json().to_pretty()),
        "text" => println!("{report}"),
        other => return Err(format!("unknown format `{other}` (text|json)")),
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Interactive session. Commands:
///
/// * `p(X) :- q(X).` — add a rule (rebuilds the materialisation);
/// * `p(1, 2).` — assert a fact (incremental propagation);
/// * `?- g(1, X).` — query the current fixpoint (pattern matching);
/// * `:load <file>` — add the rules/facts of a file;
/// * `:program` — print the current rules;
/// * `:minimize` — minimize the current rules (Fig. 2);
/// * `:db` — print the current fixpoint;
/// * `:explain g(1, 2).` — print a derivation;
/// * `:quit` — leave.
fn cmd_repl(args: &[String]) -> Result<ExitCode, String> {
    use datalog_engine::Materialized;
    use std::io::BufRead;

    let (pos, _) = split_flags(args, "repl", &[])?;
    let mut program = match pos.as_slice() {
        [] => Program::empty(),
        [path] => load_program(path)?,
        _ => return Err("usage: datalog repl [<program.dl>]".into()),
    };
    require_positive(&program, "repl")?;
    // `base` holds only asserted facts; the materialisation holds the
    // fixpoint. Provenance (:explain) runs from the base so input vs.
    // derived is reported truthfully.
    let mut base = Database::new();
    let mut m = Materialized::new(program.clone(), &base);

    let stdin = std::io::stdin();
    let interactive = is_tty();
    if interactive {
        eprintln!("datalog repl — :help for commands");
    }
    let mut lines = stdin.lock().lines();
    // One buffer for the session, flushed once per command.
    let mut out = buffered_stdout();
    loop {
        if interactive {
            eprint!("?- ");
        }
        let Some(line) = lines.next() else { break };
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let result = repl_step(line, &mut program, &mut base, &mut m, &mut out);
        out.flush().map_err(stdout_error)?;
        match result {
            Ok(ReplOutcome::Continue) => {}
            Ok(ReplOutcome::Quit) => break,
            Err(msg) => eprintln!("error: {msg}"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

enum ReplOutcome {
    Continue,
    Quit,
}

fn is_tty() -> bool {
    // Keep it simple and dependency-free: scripted runs set no TERM-based
    // expectations; suppress prompts unless explicitly interactive.
    std::env::var_os("DATALOG_REPL_PROMPT").is_some()
}

fn repl_step(
    line: &str,
    program: &mut Program,
    base: &mut Database,
    m: &mut datalog_engine::Materialized,
    out: &mut impl Write,
) -> Result<ReplOutcome, String> {
    use datalog_engine::Materialized;

    if let Some(rest) = line.strip_prefix("?-") {
        // Query: match a (possibly non-ground) atom against the fixpoint.
        let atom_src = rest.trim().trim_end_matches('.');
        let pattern = parse_atom(atom_src).map_err(|e| e.to_string())?;
        let rows = m.database().select(&pattern);
        for row in &rows {
            let row = sagiv_datalog::ast::RowDisplay(pattern.pred, row);
            writeln!(out, "{row}.").map_err(stdout_error)?;
        }
        let count = rows.len();
        writeln!(out, "% {count} answer(s)").map_err(stdout_error)?;
        return Ok(ReplOutcome::Continue);
    }
    if let Some(rest) = line.strip_prefix(":explain") {
        let atom_src = rest.trim().trim_end_matches('.');
        let goal = parse_atom(atom_src)
            .map_err(|e| e.to_string())?
            .to_ground()
            .ok_or("the atom to explain must be ground")?;
        let mut traced = Traced::new(program, base.clone());
        match traced.explain(&goal) {
            Some(proof) => write!(out, "{proof}"),
            None => writeln!(out, "% {goal} is not derivable"),
        }
        .map_err(stdout_error)?;
        return Ok(ReplOutcome::Continue);
    }
    if let Some(rest) = line.strip_prefix(":load") {
        let src = read_file(rest.trim())?;
        let unit = parse_unit(&src).map_err(|e| e.to_string())?;
        require_positive(&unit.program, ":load")?;
        program.rules.extend(unit.program.rules);
        base.extend(unit.facts);
        *m = Materialized::new(program.clone(), base);
        writeln!(
            out,
            "% loaded ({} rules, {} atoms)",
            program.len(),
            m.database().len()
        )
        .map_err(stdout_error)?;
        return Ok(ReplOutcome::Continue);
    }
    match line {
        ":quit" | ":q" | ":exit" => return Ok(ReplOutcome::Quit),
        ":help" => {
            writeln!(
                out,
                "% rule.         add a rule\n\
                 % fact.         assert a fact (incremental)\n\
                 % ?- atom.      query\n\
                 % :load FILE    add rules/facts from a file\n\
                 % :program      show rules\n\
                 % :minimize     Fig. 2 minimization\n\
                 % :db           show the fixpoint\n\
                 % :explain A.   derivation tree for a ground atom\n\
                 % :quit"
            )
            .map_err(stdout_error)?;
            return Ok(ReplOutcome::Continue);
        }
        ":program" => {
            write!(out, "{program}").map_err(stdout_error)?;
            return Ok(ReplOutcome::Continue);
        }
        ":db" => {
            write!(out, "{}", m.database().facts()).map_err(stdout_error)?;
            return Ok(ReplOutcome::Continue);
        }
        ":minimize" => {
            let (min, removal) = minimize_program(program).map_err(|e| e.to_string())?;
            *program = min;
            *m = datalog_engine::Materialized::new(program.clone(), base);
            writeln!(out, "% removed {} part(s)", removal.len()).map_err(stdout_error)?;
            return Ok(ReplOutcome::Continue);
        }
        _ => {}
    }
    // Otherwise: a rule or a fact.
    let rule = parse_rule(line).map_err(|e| e.to_string())?;
    if rule.body.is_empty() {
        if let Some(g) = rule.head.to_ground() {
            base.insert(g.clone());
            let added = m.insert([g]);
            writeln!(out, "% +{added} atom(s)").map_err(stdout_error)?;
            return Ok(ReplOutcome::Continue);
        }
    }
    if let Err(errors) = validate_positive(&Program::new(vec![rule.clone()])) {
        return Err(errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; "));
    }
    program.rules.push(rule);
    *m = datalog_engine::Materialized::new(program.clone(), base);
    writeln!(out, "% rule added ({} rules)", program.len()).map_err(stdout_error)?;
    Ok(ReplOutcome::Continue)
}
