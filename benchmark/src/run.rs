//! The measured run, tracing off: set up, take the batch phase through CLI
//! children and the serve phase through the daemon, check every output, and
//! report the end-to-end metrics.

use crate::apps::{self, App, Case};
use crate::json::Json;
use crate::proc::{cpus, out_dir, run_cli, Daemon, Finished};
use crate::serve::{Domain, Fact, Query, Script, VIEW};
use crate::stats::{median, tail};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Measured>,
    /// Printed and kept in the result file, not gated.
    pub extras: Vec<Measured>,
}

impl Outcome {
    /// Count one operation and, when it failed, why.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// A run is this many segments, each with set-ups of its own, a share of
/// the batch phase, and a share of the serve phase against a daemon started
/// for it: five daemon processes per run, not one, because short operations
/// differ by a tenth from one process to the next.
///
/// The reference host also slows down by a quarter for ten seconds to a
/// minute at a time (no steal time shows; the children's CPU time grows
/// with their wall time). The batch repeats of a run all do the same work
/// and the disturbance only ever adds time, so for them the run reports
/// its fastest repeat: the median over the repeats landed in the fast or
/// the slow mode depending on which covered more of the run, and over ten
/// seeds `eval-tc`'s evaluation times spread by 20 %. The operations of a
/// serve class differ among themselves (which fact a `remove` takes out
/// decides its cost), so there the run reports the median over all of them.
pub const SEGMENTS: usize = 5;
/// Set-ups per segment; `setup_s` is the median of them all.
const SETUPS: usize = 3;
/// Floor per segment, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;

/// The files of one batch case.
pub struct CaseFiles {
    pub program: PathBuf,
    pub edb: PathBuf,
    pub optimized: PathBuf,
    pub raw_out: PathBuf,
    pub opt_out: PathBuf,
}

impl CaseFiles {
    pub fn new(dir: &Path, case: &Case) -> CaseFiles {
        let at = |suffix: &str| dir.join(format!("{}.{suffix}", case.name));
        CaseFiles {
            program: at("dl"),
            edb: at("facts"),
            optimized: at("opt.dl"),
            raw_out: at("raw.out"),
            opt_out: at("opt.out"),
        }
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// The directory a workload's generated files and outputs live in.
pub fn workload_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn fact_text(domain: &dyn Domain, facts: &[Fact]) -> String {
    let mut text = String::new();
    for &fact in facts {
        text.push_str(&domain.render(fact));
        text.push_str(". ");
    }
    text
}

pub fn install_request(domain: &dyn Domain) -> Json {
    Json::obj([
        ("op", Json::str("install")),
        ("program", Json::str(VIEW)),
        ("rules", Json::str(domain.rules())),
    ])
}

pub fn mutate_request(domain: &dyn Domain, insert: bool, facts: &[Fact]) -> Json {
    Json::obj([
        ("op", Json::str(if insert { "insert" } else { "remove" })),
        ("program", Json::str(VIEW)),
        ("facts", Json::Str(fact_text(domain, facts))),
    ])
}

pub fn query_request(atom: &str) -> Json {
    Json::obj([
        ("op", Json::str("query")),
        ("program", Json::str(VIEW)),
        ("atom", Json::str(atom)),
    ])
}

/// Everything one set-up produces: generated inputs on disk and a daemon
/// with the view installed and preloaded.
struct Ready {
    app: App,
    files: Vec<CaseFiles>,
    daemon: Daemon,
}

/// Write every batch case's program and fact base under `dir`.
pub fn write_inputs(app: &App, dir: &Path) -> Result<Vec<CaseFiles>, String> {
    let mut files = Vec::new();
    for case in &app.cases {
        let f = CaseFiles::new(dir, case);
        write(&f.program, &case.source)?;
        write(&f.edb, &case.edb)?;
        files.push(f);
    }
    Ok(files)
}

/// Input generation, file writes, daemon spawn, install and preload.
fn set_up(cfg: &RunConfig, binary: &Path, dir: &Path) -> Result<Ready, String> {
    let app = apps::build(&cfg.workload, cfg.seed, cfg.smoke)?;
    let files = write_inputs(&app, dir)?;
    let mut daemon = Daemon::spawn(binary, cpus().count())?;
    let domain = app.domain.as_ref();
    daemon.request(&install_request(domain)).1?;
    let reply = daemon
        .request(&mutate_request(domain, true, &domain.preload()))
        .1?;
    check_db_atoms(domain, &domain.derived(), &reply)?;
    Ok(Ready { app, files, daemon })
}

/// Rules and body atoms of a program as `datalog optimize` prints it: one
/// rule per line, every body atom with an argument list.
pub fn program_shape(text: &str) -> (usize, usize) {
    let rules = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('%'));
    rules.fold((0, 0), |(rules, width), line| {
        let body = line.split_once(":-").map_or("", |(_, body)| body);
        (rules + 1, width + body.matches('(').count())
    })
}

fn sorted_lines(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort_unstable();
    Ok(lines)
}

fn exited_ok(what: &str, case: &Case, finished: &Finished) -> Result<(), String> {
    if finished.success {
        Ok(())
    } else {
        Err(format!(
            "{}: `datalog {what}` exited with a failure status",
            case.name
        ))
    }
}

/// The three checks on a batch repeat's outputs, one per child.
fn check_case(
    case: &Case,
    files: &CaseFiles,
    expected: Option<&[String]>,
    children: &[Finished; 3],
) -> [Result<(), String>; 3] {
    let optimized = exited_ok(case.optimizer, case, &children[0]).and_then(|()| {
        let text = std::fs::read_to_string(&files.optimized).map_err(|e| e.to_string())?;
        let (rules, width) = program_shape(&text);
        if case.planted.recovered(rules, width) {
            Ok(())
        } else {
            Err(format!(
                "{}: optimized to {rules} rules / {width} body atoms, planted target {:?}",
                case.name, case.planted
            ))
        }
    });
    let raw = exited_ok("eval", case, &children[1]).and_then(|()| {
        let lines = sorted_lines(&files.raw_out)?;
        match expected {
            Some(expected) if lines != expected => Err(format!(
                "{}: the original program printed {} atoms, the reference has {}{}",
                case.name,
                lines.len(),
                expected.len(),
                if lines.len() == expected.len() {
                    " other"
                } else {
                    ""
                }
            )),
            _ => Ok(()),
        }
    });
    let opt = exited_ok("eval", case, &children[2]).and_then(|()| {
        if sorted_lines(&files.opt_out)? == sorted_lines(&files.raw_out)? {
            Ok(())
        } else {
            Err(format!(
                "{}: the optimized program prints another fixpoint than the original",
                case.name
            ))
        }
    });
    [optimized, raw, opt]
}

pub fn eval_args<'a>(case: &Case, program: &'a Path, edb: &'a Path) -> Vec<&'a str> {
    let mut args = vec!["eval", path_str(program), "--edb", path_str(edb)];
    if let Some(engine) = case.engine {
        args.extend(["--engine", engine]);
    }
    args
}

pub fn path_str(path: &Path) -> &str {
    path.to_str().expect("benchmark paths are UTF-8")
}

#[derive(Default)]
struct BatchSamples {
    optimize_ms: Vec<f64>,
    eval_raw_ms: Vec<f64>,
    eval_opt_ms: Vec<f64>,
    peak_rss_mb: f64,
}

/// One pass over the cases per repeat: optimize, evaluate the original,
/// evaluate the optimized. A repeat's sample is the sum over the cases.
/// Another repeat starts only if, going by the last one, it ends within
/// the budget.
fn batch_phase(
    app: &App,
    files: &[CaseFiles],
    expected: &[Option<Vec<String>>],
    binary: &Path,
    budget: Duration,
    samples: &mut BatchSamples,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while last.is_zero() || start.elapsed() + last < budget {
        let repeat = Instant::now();
        let (mut optimize, mut raw, mut opt) = (0.0, 0.0, 0.0);
        for ((case, f), expected) in app.cases.iter().zip(files).zip(expected) {
            let children = [
                run_cli(
                    binary,
                    &[case.optimizer, path_str(&f.program)],
                    &f.optimized,
                )?,
                run_cli(binary, &eval_args(case, &f.program, &f.edb), &f.raw_out)?,
                run_cli(binary, &eval_args(case, &f.optimized, &f.edb), &f.opt_out)?,
            ];
            optimize += children[0].wall_ms;
            raw += children[1].wall_ms;
            opt += children[2].wall_ms;
            for child in &children {
                samples.peak_rss_mb = samples.peak_rss_mb.max(child.peak_rss_mb);
            }
            for result in check_case(case, f, expected.as_deref(), &children) {
                outcome.record(result);
            }
        }
        samples.optimize_ms.push(optimize);
        samples.eval_raw_ms.push(raw);
        samples.eval_opt_ms.push(opt);
        last = repeat.elapsed();
    }
    Ok(())
}

/// `db_atoms` of a write's reply against base facts plus reference
/// fixpoint.
pub fn check_db_atoms(
    domain: &dyn Domain,
    derived: &BTreeSet<String>,
    reply: &Json,
) -> Result<(), String> {
    let expected = (domain.base_len() + derived.len()) as u64;
    match reply.get("db_atoms").and_then(Json::as_u64) {
        Some(n) if n == expected => Ok(()),
        got => Err(format!(
            "db_atoms {got:?} after a write, the reference fixpoint has {expected}"
        )),
    }
}

/// A query reply's answers against the reference fixpoint.
pub fn check_answers(atom: &str, expected: &BTreeSet<String>, reply: &Json) -> Result<(), String> {
    let answers: Option<BTreeSet<String>> = reply.get("answers").and_then(Json::as_arr).map(|a| {
        a.iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect()
    });
    match answers {
        Some(answers) if &answers == expected => Ok(()),
        Some(answers) => Err(format!(
            "{atom}: {} answers, the reference has {}",
            answers.len(),
            expected.len()
        )),
        None => Err(format!("{atom}: reply without answers")),
    }
}

#[derive(Default)]
struct ServeSamples {
    insert_ms: Vec<f64>,
    reinsert_ms: Vec<f64>,
    remove_ms: Vec<f64>,
    first_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    rounds: usize,
    wall_s: f64,
}

impl ServeSamples {
    fn ops(&self) -> usize {
        self.insert_ms.len()
            + self.reinsert_ms.len()
            + self.remove_ms.len()
            + self.first_ms.len()
            + self.repeat_ms.len()
    }
}

fn write_op(
    daemon: &mut Daemon,
    domain: &mut dyn Domain,
    derived: &mut BTreeSet<String>,
    insert: bool,
    facts: &[Fact],
    outcome: &mut Outcome,
) -> f64 {
    let (ms, reply) = daemon.request(&mutate_request(domain, insert, facts));
    domain.apply(insert, facts);
    *derived = domain.derived();
    outcome.record(reply.and_then(|r| check_db_atoms(domain, derived, &r)));
    ms
}

fn query_op(
    daemon: &mut Daemon,
    query: &Query,
    derived: &BTreeSet<String>,
    outcome: &mut Outcome,
) -> f64 {
    let atom = query.render();
    let (ms, reply) = daemon.request(&query_request(&atom));
    outcome.record(reply.and_then(|r| check_answers(&atom, &query.answers(derived), &r)));
    ms
}

/// The script over one connection, closed loop: the next request goes out
/// when the previous reply has been parsed and checked.
fn serve_phase(
    daemon: &mut Daemon,
    domain: &mut dyn Domain,
    mut script: Script,
    budget: Duration,
    samples: &mut ServeSamples,
    outcome: &mut Outcome,
) {
    let mut derived = domain.derived();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        if let Some(back) = script.reinsert() {
            let ms = write_op(daemon, domain, &mut derived, true, &[back], outcome);
            samples.reinsert_ms.push(ms);
        }
        let insert = script.insert_batch(domain);
        let ms = write_op(daemon, domain, &mut derived, true, &insert, outcome);
        samples.insert_ms.push(ms);
        let (first, repeats) = script.queries(domain);
        for q in &first {
            samples
                .first_ms
                .push(query_op(daemon, q, &derived, outcome));
        }
        for q in &repeats {
            samples
                .repeat_ms
                .push(query_op(daemon, q, &derived, outcome));
        }
        if let Some(remove) = script.remove_batch(domain) {
            let ms = write_op(daemon, domain, &mut derived, false, &remove, outcome);
            samples.remove_ms.push(ms);
        }
        rounds += 1;
    }
    samples.rounds += rounds;
    samples.wall_s += start.elapsed().as_secs_f64();
    // The whole relation read back once, against the reference: catches a
    // view that drifted without any sampled query noticing.
    let pred = domain.scan_pred();
    let atom = format!("{pred}(X, Y)");
    let expected: BTreeSet<String> = derived
        .iter()
        .filter(|a| a.starts_with(pred) && a[pred.len()..].starts_with('('))
        .cloned()
        .collect();
    let (_, reply) = daemon.request(&query_request(&atom));
    outcome.record(reply.and_then(|r| check_answers(&atom, &expected, &r)));
}

/// The wire side of `service.wire_overhead_ms_p50`.
pub struct WireSample {
    pub repeat_p50_ms: f64,
    pub repeats: usize,
}

/// A short real session over the socket, for the traced run to set beside
/// its in-process `handle_line` latencies.
pub fn wire_sample(
    cfg: &RunConfig,
    binary: &Path,
    budget: Duration,
    outcome: &mut Outcome,
) -> Result<WireSample, String> {
    let dir = workload_dir(&cfg.workload)?;
    let Ready {
        mut app,
        mut daemon,
        ..
    } = set_up(cfg, binary, &dir)?;
    let mut serve = ServeSamples::default();
    let script = Script::new(cfg.seed, 0);
    serve_phase(
        &mut daemon,
        app.domain.as_mut(),
        script,
        budget,
        &mut serve,
        outcome,
    );
    daemon.shutdown()?;
    Ok(WireSample {
        repeat_p50_ms: median(&serve.repeat_ms),
        repeats: serve.repeat_ms.len(),
    })
}

/// The fastest repeat and how many there were.
fn fastest(repeats: &[f64]) -> (f64, usize) {
    (
        repeats.iter().copied().fold(f64::INFINITY, f64::min),
        repeats.len(),
    )
}

/// `<class>_p50_ms` over the whole run and, as extras, the class's tail:
/// the highest percentile with at least ten samples beyond it, and which
/// percentile that is. The tails are printed and kept in the result file
/// but not gated: over ten back-to-back runs they did not repeat within a
/// tenth.
fn latency_metrics(
    outcome: &mut Outcome,
    [p50, tail_ms, tail_p]: [&'static str; 3],
    samples: &[f64],
) {
    outcome.metrics.push(Measured {
        name: p50,
        value: median(samples),
        unit: "ms",
        samples: samples.len(),
    });
    if let Some((p, value)) = tail(samples) {
        for (name, value, unit) in [(tail_ms, value, "ms"), (tail_p, p, "share")] {
            outcome.extras.push(Measured {
                name,
                value,
                unit,
                samples: samples.len(),
            });
        }
    }
}

/// Run one workload with tracing off.
pub fn run(cfg: &RunConfig, binary: &Path) -> Result<Outcome, String> {
    let dir = workload_dir(&cfg.workload)?;
    let mut outcome = Outcome::default();
    // The references are the same for every segment; computing them is no
    // part of the set-up.
    let expected: Vec<Option<Vec<String>>> = apps::build(&cfg.workload, cfg.seed, cfg.smoke)?
        .cases
        .iter()
        .map(Case::expected_output)
        .collect();

    let mut setup_s = Vec::new();
    let mut batch = BatchSamples::default();
    let mut serve = ServeSamples::default();
    let mut daemon_rss_mb: f64 = 0.0;
    let segment = Duration::from_secs_f64(cfg.seconds / SEGMENTS as f64);
    for index in 0..SEGMENTS {
        let mut ready = None;
        for _ in 0..SETUPS {
            if let Some(Ready { daemon, .. }) = ready.take() {
                daemon.shutdown()?;
            }
            let start = Instant::now();
            ready = Some(set_up(cfg, binary, &dir)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let Ready {
            mut app,
            files,
            mut daemon,
        } = ready.expect("SETUPS > 0");
        batch_phase(
            &app,
            &files,
            &expected,
            binary,
            segment.mul_f64(app.batch_share),
            &mut batch,
            &mut outcome,
        )?;
        serve_phase(
            &mut daemon,
            app.domain.as_mut(),
            Script::new(cfg.seed, index as u64),
            segment.mul_f64(1.0 - app.batch_share),
            &mut serve,
            &mut outcome,
        );
        daemon_rss_mb = daemon_rss_mb.max(daemon.shutdown()?);
    }

    let mut metric = |name, (value, samples): (f64, usize), unit| {
        outcome.metrics.push(Measured {
            name,
            value,
            unit,
            samples,
        })
    };
    metric("setup_s", (median(&setup_s), setup_s.len()), "s");
    metric("optimize_wall_ms", fastest(&batch.optimize_ms), "ms");
    metric("eval_raw_wall_ms", fastest(&batch.eval_raw_ms), "ms");
    metric("eval_opt_wall_ms", fastest(&batch.eval_opt_ms), "ms");
    metric(
        "peak_rss_mb",
        (batch.peak_rss_mb.max(daemon_rss_mb), 1),
        "MB",
    );
    metric(
        "ops_per_s",
        (serve.ops() as f64 / serve.wall_s, serve.ops()),
        "1/s",
    );
    latency_metrics(
        &mut outcome,
        ["insert_p50_ms", "insert_tail_ms", "insert_tail_p"],
        &serve.insert_ms,
    );
    latency_metrics(
        &mut outcome,
        ["remove_p50_ms", "remove_tail_ms", "remove_tail_p"],
        &serve.remove_ms,
    );
    latency_metrics(
        &mut outcome,
        [
            "query_first_p50_ms",
            "query_first_tail_ms",
            "query_first_tail_p",
        ],
        &serve.first_ms,
    );
    latency_metrics(
        &mut outcome,
        [
            "query_repeat_p50_ms",
            "query_repeat_tail_ms",
            "query_repeat_tail_p",
        ],
        &serve.repeat_ms,
    );
    let mut extra = |name, value, unit, samples| {
        outcome.extras.push(Measured {
            name,
            value,
            unit,
            samples,
        })
    };
    extra(
        "reinsert_p50_ms",
        median(&serve.reinsert_ms),
        "ms",
        serve.reinsert_ms.len(),
    );
    extra("rounds", serve.rounds as f64, "count", 1);
    extra("batch_repeats", batch.optimize_ms.len() as f64, "count", 1);
    extra("daemon_rss_mb", daemon_rss_mb, "MB", 1);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shape_counts_rules_and_body_atoms() {
        let text = "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), g(Y, Z).\n";
        assert_eq!(program_shape(text), (2, 3));
        assert_eq!(
            program_shape("dead(B) :- block(B), !reach(B).\n% note\n\n"),
            (1, 2)
        );
        assert_eq!(program_shape("p(1, 2).\n"), (1, 0));
    }

    #[test]
    fn answers_are_compared_as_sets() {
        let reply = Json::parse(r#"{"ok":true,"answers":["g(1, 3)","g(1, 2)"]}"#).unwrap();
        let expected: BTreeSet<String> = ["g(1, 2)", "g(1, 3)"].map(String::from).into();
        assert!(check_answers("g(1, X)", &expected, &reply).is_ok());
        let fewer: BTreeSet<String> = ["g(1, 2)"].map(String::from).into();
        assert!(check_answers("g(1, X)", &fewer, &reply).is_err());
        assert!(check_answers("g(1, X)", &fewer, &Json::parse("{}").unwrap()).is_err());
    }
}
