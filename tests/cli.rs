//! End-to-end tests of the `datalog` CLI binary: every subcommand exercised
//! through real process invocations on temp files.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_datalog"))
}

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("sagiv-datalog-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let p = self.path.join(name);
        let mut f = std::fs::File::create(&p).expect("create temp file");
        f.write_all(contents.as_bytes()).expect("write temp file");
        p.to_str().expect("utf8 path").to_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const TC: &str = "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), g(Y, Z).\n";
const GUARDED: &str = "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).\n";
const CHAIN: &str = "a(1, 2). a(2, 3). a(3, 4).";

#[test]
fn check_valid_program() {
    let dir = TempDir::new("check");
    let p = dir.file("tc.dl", TC);
    let out = bin().args(["check", &p]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok (2 rules"));
}

#[test]
fn check_invalid_program_exits_2() {
    let dir = TempDir::new("check-bad");
    let p = dir.file("bad.dl", "g(X, W) :- a(X, Y).\n");
    let out = bin().args(["check", &p]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("head variable"));
}

/// A rule whose head or negated variable no positive literal binds is a
/// validation error for every command that evaluates, as it is for `check`
/// — not a panic in a join kernel.
#[test]
fn evaluating_commands_reject_an_unbound_variable() {
    let dir = TempDir::new("unbound");
    let edb = dir.file("edb.dl", "a(1). b(1, 1).\n");
    for (name, rule, says) in [
        ("head.dl", "p(X, Y) :- a(X).\n", "head variable Y"),
        (
            "neg.dl",
            "p(X) :- !b(X, X).\n",
            "variable X of a negated literal",
        ),
    ] {
        let p = dir.file(name, rule);
        let unit = dir.file(&format!("unit-{name}"), &format!("{rule}a(1). b(1, 1).\n"));
        for args in [
            vec!["eval", &p, "--edb", &edb],
            vec!["run", &unit],
            vec!["query", "p(X)", &p, "--edb", &edb],
            vec!["explain", "p(1)", &p, "--edb", &edb],
        ] {
            let out = bin().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
            assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
            assert!(!stderr(&out).contains("panicked"), "{args:?}");
        }
    }
}

#[test]
fn check_parse_error_exits_1() {
    let dir = TempDir::new("check-parse");
    let p = dir.file("broken.dl", "g(X :- a(X).\n");
    let out = bin().args(["check", &p]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("parse error"));
}

#[test]
fn analyze_reports_structure() {
    let dir = TempDir::new("analyze");
    let p = dir.file("tc.dl", TC);
    let out = bin().args(["analyze", &p]).output().unwrap();
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("recursive:   true"));
    assert!(s.contains("intentional: g"));
    assert!(s.contains("extensional: a"));
    assert!(s.contains("linear:      false"));
}

#[test]
fn minimize_removes_duplicate() {
    let dir = TempDir::new("minimize");
    let p = dir.file("dup.dl", "g(X) :- a(X), a(X).\n");
    let out = bin().args(["minimize", &p]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(stdout(&out), "g(X) :- a(X).\n");
    assert!(stderr(&out).contains("removed atom a(X)"));
}

#[test]
fn minimize_handles_stratified_programs() {
    let dir = TempDir::new("minimize-strat");
    let p = dir.file("strat.dl", "p(X) :- b(X).\nq(X) :- d(X), !p(X), !p(X).\n");
    let out = bin().args(["minimize", &p]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("q(X) :- d(X), !p(X).\n"));
}

#[test]
fn optimize_removes_guard() {
    let dir = TempDir::new("optimize");
    let p = dir.file("guarded.dl", GUARDED);
    let out = bin().args(["optimize", &p]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), TC);
    assert!(stderr(&out).contains("via tgd"));
}

#[test]
fn eval_produces_closure() {
    let dir = TempDir::new("eval");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let out = bin()
        .args(["eval", &p, "--edb", &e, "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("g(1, 4)."));
    assert_eq!(s.matches("g(").count(), 6);
    assert!(stderr(&out).contains("derivations=6"));
}

/// Under `--stats`, `eval` and `run` follow the counters with a line that
/// splits the wall time into loading, evaluation and printing.
#[test]
fn stats_split_the_wall_time_into_phases() {
    let dir = TempDir::new("phases");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let unit = dir.file("unit.dl", &format!("{TC}{CHAIN}"));
    for args in [
        vec!["eval", &p, "--edb", &e, "--stats"],
        vec!["run", &unit, "--stats"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        let err = stderr(&out);
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{err}");
        assert!(lines[0].contains("derivations=6"), "{err}");
        let phases = lines[1].strip_prefix("% phases ").expect("a phases line");
        let keys: Vec<&str> = phases
            .split(' ')
            .map(|kv| {
                let (key, ms) = kv.split_once('=').expect("key=value");
                assert!(ms.parse::<f64>().is_ok_and(|ms| ms >= 0.0), "{kv}");
                key
            })
            .collect();
        assert_eq!(keys, ["load_ms", "eval_ms", "print_ms"]);

        let quiet = bin().args(&args[..args.len() - 1]).output().unwrap();
        assert!(stderr(&quiet).is_empty(), "{}", stderr(&quiet));
    }
}

/// The `--stats` line of `minimize` / `optimize`, as (key, value) pairs.
fn optimizer_stats(out: &Output) -> Vec<(String, f64)> {
    let err = stderr(out);
    let line = err.lines().last().and_then(|l| l.strip_prefix("% "));
    line.unwrap_or_else(|| panic!("a stats line: {err}"))
        .split(' ')
        .map(|kv| {
            let (key, value) = kv.split_once('=').expect("key=value");
            (key.to_owned(), value.parse().expect("a number"))
        })
        .collect()
}

/// `minimize` and `optimize` take `--stats` too: one line with the §VI
/// tests the command ran, the Fig. 1 removals it decided without one, the
/// engine work the tests summed to, and the walls of its phases. Fig. 2
/// makes one test per rule and one per body atom whose removal strands no
/// head variable and is not decided.
#[test]
fn optimizer_stats_count_the_section_vi_tests() {
    let dir = TempDir::new("optimizer-stats");
    let p = dir.file("guarded.dl", GUARDED);
    for (cmd, phase) in [("minimize", "minimize_ms"), ("optimize", "optimize_ms")] {
        let out = bin().args([cmd, &p, "--stats"]).output().unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        let quiet = bin().args([cmd, &p]).output().unwrap();
        assert_eq!(stdout(&out), stdout(&quiet), "--stats leaves stdout alone");
        assert!(!stderr(&quiet).contains("tests="), "{}", stderr(&quiet));

        let err = stderr(&out);
        let fields = optimizer_stats(&out);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let expected = [
            "tests", "decided", "rounds", "tasks", "matches", "parse_ms", phase, "print_ms",
        ];
        assert_eq!(keys, expected, "{err}");
        let tests = fields[0].1;
        if cmd == "minimize" {
            assert_eq!(tests, 3.0, "the guard `a(Y, W)` and 2 rules: {err}");
        } else {
            assert!(tests > 3.0, "Fig. 2, then the tgd candidates: {err}");
        }
        assert_eq!(fields[1].1, 0.0, "the guard is the only candidate: {err}");
        assert!(
            fields[2].1 >= 1.0 && fields[3].1 >= 1.0 && fields[4].1 >= 1.0,
            "{err}"
        );
        assert!(fields[5..].iter().all(|&(_, ms)| ms >= 0.0), "{err}");
    }
}

/// Example 7's rule with a chain hung off `W`: the first chain atom's test
/// derives the frozen head without the chain, so the other chain atoms go
/// without a test of their own, and `decided=` counts them.
#[test]
fn optimizer_stats_count_the_decided_atoms() {
    let dir = TempDir::new("optimizer-decided");
    let p = dir.file(
        "wide.dl",
        "g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y), a(W, V0), a(V0, V1), a(V1, V2).\n",
    );
    let out = bin().args(["minimize", &p, "--stats"]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "g(X, Y, Z) :- g(X, W, Z), a(W, Z), a(Z, Z), a(Z, Y).\n"
    );
    let fields = optimizer_stats(&out);
    // `a(W, Z)`, `a(Z, Z)` and `a(W, V0)` tested, then the rule.
    assert_eq!(
        fields[..2],
        [("tests".into(), 4.0), ("decided".into(), 2.0)]
    );
}

/// A fixpoint that holds `i64::MIN` prints a fact file that `--edb` reads
/// back byte for byte: the sign is lexed with the digits.
#[test]
fn eval_reads_back_the_i64_extremes() {
    let dir = TempDir::new("i64");
    let facts = "p(-9223372036854775808).\np(9223372036854775807).\n";
    let p = dir.file("empty.dl", "");
    let e = dir.file("extremes.dl", facts);
    let out = bin().args(["eval", &p, "--edb", &e]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), facts);
}

/// Facts that mix integers (negative ones and `i64::MIN` included) and
/// symbols in one column, with `m` at two arities, in no particular order.
const MIXED: &str = "m(zed, 3).
m(-9223372036854775808, alpha).
m(9223372036854775807).
m(alpha, -1).
m(-42, zed).
m(0).
m(-7).
m(bob).
m(zed).
m(-42, -42).
m(0, alpha).
m(alpha, alpha).
m(bob, 9223372036854775807).
pair(-1, x).
pair(x, -1).
pair(x, 0).
pair(-9223372036854775808, -9223372036854775808).
pair(y, x).
pair(10, y).
";

/// `eval` prints [`MIXED`] in tuple order: integers before symbols, symbols
/// in first-appearance order, and the two arities of `m` interleaved.
#[test]
fn eval_prints_mixed_kinds_and_arities_in_tuple_order() {
    let dir = TempDir::new("mixed");
    let p = dir.file("empty.dl", "");
    let e = dir.file("mixed.dl", MIXED);
    let out = bin().args(["eval", &p, "--edb", &e]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "m(-9223372036854775808, alpha).
m(-42, -42).
m(-42, zed).
m(-7).
m(0).
m(0, alpha).
m(9223372036854775807).
m(zed).
m(zed, 3).
m(alpha, -1).
m(alpha, alpha).
m(bob).
m(bob, 9223372036854775807).
pair(-9223372036854775808, -9223372036854775808).
pair(-1, x).
pair(10, y).
pair(x, -1).
pair(x, 0).
pair(y, x).
"
    );
}

/// `tests/data/mixed.facts` is a printed fixpoint of [`MIXED`]: `eval`
/// reads it back byte for byte.
#[test]
fn eval_reads_back_the_mixed_fact_file() {
    let dir = TempDir::new("mixed-back");
    let p = dir.file("empty.dl", "");
    let facts = format!("{}/tests/data/mixed.facts", env!("CARGO_MANIFEST_DIR"));
    let out = bin().args(["eval", &p, "--edb", &facts]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), std::fs::read_to_string(&facts).unwrap());
}

/// A reader that takes one line and goes away (`datalog eval … | head -1`)
/// ends the output, not the program: exit 0 and no panic, for each command
/// that prints a database. The output is far larger than a pipe buffer, so
/// the writer is still writing when the pipe closes.
#[test]
fn closed_stdout_is_a_normal_end() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = TempDir::new("closed-pipe");
    let p = dir.file("tc.dl", TC);
    // 11 325 closure atoms, about 146 KB of output.
    let chain: String = (0..150).map(|i| format!("a({i}, {}).\n", i + 1)).collect();
    let e = dir.file("chain.dl", &chain);
    let unit = dir.file("unit.dl", &format!("{TC}{chain}"));
    let repl = dir.file("session.dl", &format!(":load {unit}\n?- g(X, Y).\n:db\n"));
    let runs: [(&[&str], Option<&str>); 4] = [
        (&["eval", &p, "--edb", &e], None),
        (&["run", &unit], None),
        (&["query", "g(X, Y)", &p, "--edb", &e], None),
        (&["repl"], Some(&repl)),
    ];
    for (args, stdin) in runs {
        let stdin = match stdin {
            Some(path) => Stdio::from(std::fs::File::open(path).unwrap()),
            None => Stdio::null(),
        };
        let mut child = bin()
            .args(args)
            .stdin(stdin)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(first.ends_with('\n'), "{args:?}: {first:?}");
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{args:?}");
    }
}

#[test]
fn eval_engines_agree() {
    let dir = TempDir::new("engines");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let mut outputs = Vec::new();
    for engine in ["naive", "seminaive", "scc", "stratified"] {
        let out = bin()
            .args(["eval", &p, "--edb", &e, "--engine", engine])
            .output()
            .unwrap();
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        outputs.push(stdout(&out));
    }
    assert!(outputs.iter().all(|o| *o == outputs[0]), "{outputs:?}");
}

/// A flag the subcommand does not take is an error naming the flag and the
/// subcommand, not an option silently ignored (a misspelt `--engine` used
/// to evaluate with the default engine).
#[test]
fn unknown_flags_exit_1() {
    let dir = TempDir::new("unknown-flag");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let cases: [&[&str]; 4] = [
        &["check", &p, "--foo", "1"],
        &["eval", &p, "--edb", &e, "--engin", "seminaive"],
        &["optimize", &p, "--engine", "naive"],
        &["query", "g(1, X)", &p, "--edb", &e, "--strategy", "magic"],
    ];
    for args in cases {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stdout(&out));
        let flag = args.iter().find(|a| a.starts_with("--") && **a != "--edb");
        let msg = stderr(&out);
        assert!(msg.contains(&format!("`datalog {}`", args[0])), "{msg}");
        assert!(msg.contains(&format!("`{}`", flag.unwrap())), "{msg}");
    }
}

/// `serve` takes `--addr`, `--threads`, `--max-bytes`, `--timeout-ms` and
/// `--max-conns`; anything else is refused before a socket is bound, where
/// it used to start a daemon that ignored it.
#[test]
fn serve_refuses_unknown_flags_before_binding() {
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "4"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`datalog serve --workers 4` started a daemon");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let out = child.wait_with_output().unwrap();
    assert_eq!(status.code(), Some(1));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(stderr(&out).contains("`--workers`"), "{}", stderr(&out));
}

#[test]
fn query_uses_magic_sets() {
    let dir = TempDir::new("query");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let out = bin()
        .args(["query", "g(1, X)", &p, "--edb", &e])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert_eq!(s, "g(1, 2).\ng(1, 3).\ng(1, 4).\n");
}

#[test]
fn query_with_no_answers_exits_2() {
    let dir = TempDir::new("query-empty");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let out = bin()
        .args(["query", "g(4, X)", &p, "--edb", &e])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// An atom whose arity contradicts the program is refused before anything
/// runs, as the daemon's `validation_error` is; a predicate the program has
/// no rule for is read straight from the EDB, with no plan and no work.
#[test]
fn query_refuses_wrong_arities_and_reads_underived_predicates_from_the_edb() {
    let dir = TempDir::new("query-arity");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", &format!("{CHAIN} zz(1, 4). zz(2, 9)."));
    for atoms in [&["g(1)"][..], &["g(1, X, Y)"], &["g(1, X)", "a(X)"]] {
        let out = bin()
            .arg("query")
            .args(atoms)
            .args([&p, "--edb", &e])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{atoms:?}: {}", stderr(&out));
        let named = if atoms.len() == 1 { "g/2" } else { "a/2" };
        assert!(stderr(&out).contains(named), "{}", stderr(&out));
        assert_eq!(stdout(&out), "", "{atoms:?}");
    }
    for (atom, expected) in [("a(1, X)", "a(1, 2).\n"), ("zz(1, X)", "zz(1, 4).\n")] {
        let out = bin()
            .args(["query", atom, &p, "--edb", &e, "--stats"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        assert_eq!(stdout(&out), expected);
        assert!(
            stderr(&out).starts_with("% [scan] iterations=0 probes=0"),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn explain_prints_proof_tree() {
    let dir = TempDir::new("explain");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let out = bin()
        .args(["explain", "g(1, 3)", &p, "--edb", &e])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("g(1, 3)  [rule 1]"));
    assert!(s.contains("a(1, 2)  [input]"));
}

#[test]
fn explain_underivable_exits_2() {
    let dir = TempDir::new("explain-miss");
    let p = dir.file("tc.dl", TC);
    let e = dir.file("chain.dl", CHAIN);
    let out = bin()
        .args(["explain", "g(4, 1)", &p, "--edb", &e])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("not derivable"));
}

#[test]
fn contains_verdicts() {
    let dir = TempDir::new("contains");
    let p1 = dir.file("doubling.dl", TC);
    let p2 = dir.file(
        "left.dl",
        "g(X, Z) :- a(X, Z).\ng(X, Z) :- a(X, Y), g(Y, Z).\n",
    );
    let out = bin().args(["contains", &p1, &p2]).output().unwrap();
    // Not uniformly equivalent → exit 2.
    assert_eq!(out.status.code(), Some(2));
    let s = stdout(&out);
    assert!(s.contains("P2 ⊑u P1 (P1 uniformly contains P2): true"));
    assert!(s.contains("P1 ⊑u P2 (P2 uniformly contains P1): false"));

    let out = bin().args(["contains", &p1, &p1]).output().unwrap();
    assert!(out.status.success());
}

#[test]
fn chase_with_weakly_acyclic_tgds() {
    let dir = TempDir::new("chase");
    let p = dir.file("tc.dl", TC);
    let t = dir.file("tgds.dl", "g(X, Z) -> a(X, W).\n");
    let d = dir.file("db.dl", "g(1, 2).");
    let out = bin()
        .args(["chase", &p, "--tgds", &t, "--db", &d])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("weakly acyclic"));
    assert!(stdout(&out).contains("a(1, δ0)."));
}

/// The whole stdout of a chase whose result holds labelled nulls.
#[test]
fn chase_prints_labelled_nulls() {
    let dir = TempDir::new("chase-nulls");
    let p = dir.file("tc.dl", TC);
    let t = dir.file("tgds.dl", "g(X, Z) -> a(X, W).\na(X, Y) -> h(Y, V, X).\n");
    let d = dir.file("db.dl", "g(1, 2). g(2, ann). a(-5, 3).");
    let out = bin()
        .args(["chase", &p, "--tgds", &t, "--db", &d])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "g(-5, 3).
g(1, 2).
g(1, ann).
g(1, δ0).
g(1, δ1).
g(2, ann).
g(2, δ1).
a(-5, 3).
a(1, δ0).
a(2, δ1).
h(3, δ2, -5).
h(δ0, δ3, 1).
h(δ1, δ4, 2).
"
    );
}

#[test]
fn chase_divergent_tgds_exits_2() {
    let dir = TempDir::new("chase-div");
    let p = dir.file("empty.dl", "");
    let t = dir.file("tgds.dl", "g(X, Y) -> a(X, W) & g(W, Y).\n");
    let d = dir.file("db.dl", "g(1, 2).");
    let out = bin()
        .args(["chase", &p, "--tgds", &t, "--db", &d, "--fuel", "20"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("not guaranteed"));
    assert!(stderr(&out).contains("OutOfFuel"));
}

/// `g(X, Y) -> a(Y, W)` alone is weakly acyclic, but the rule carries each
/// new null back into `g`: the termination analysis reads the rules too,
/// and the chase stops at its fuel.
const DIVERGING_WITH_RULES: [&str; 3] =
    ["g(X, Z) :- a(X, Z).\n", "g(X, Y) -> a(Y, W).\n", "a(1, 2)."];

#[test]
fn chase_whose_rules_close_a_null_cycle_exits_2() {
    let dir = TempDir::new("chase-rules-div");
    let [rules, tgds, facts] = DIVERGING_WITH_RULES;
    let p = dir.file("p.dl", rules);
    let t = dir.file("tgds.dl", tgds);
    let d = dir.file("db.dl", facts);
    let out = bin()
        .args(["chase", &p, "--tgds", &t, "--db", &d, "--fuel", "50"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("not guaranteed"));
    assert!(stderr(&out).contains("OutOfFuel"));
}

#[test]
fn run_whose_rules_close_a_null_cycle_exits_2() {
    let dir = TempDir::new("run-rules-div");
    let u = dir.file("unit.dl", &DIVERGING_WITH_RULES.concat());
    let out = bin().args(["run", &u, "--fuel", "50"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("not guaranteed"));
    assert!(stderr(&out).contains("OutOfFuel"));
}

#[test]
fn unknown_command_errors() {
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn help_prints_usage() {
    let out = bin().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn run_unit_file() {
    let dir = TempDir::new("run");
    let u = dir.file(
        "unit.dl",
        "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), g(Y, Z).\na(1, 2). a(2, 3).\n",
    );
    let out = bin().args(["run", &u]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("g(1, 3)."));
    assert!(s.contains("a(1, 2)."));
}

#[test]
fn run_unit_with_tgds_uses_chase() {
    let dir = TempDir::new("run-tgds");
    let u = dir.file(
        "unit.dl",
        "g(X, Z) :- a(X, Z).\ng(1, 2).\ng(X, Z) -> a(X, W).\n",
    );
    let out = bin().args(["run", &u]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("chase status: Saturated"));
    assert!(stdout(&out).contains("a(1, δ0)."));
}

#[test]
fn run_unit_with_negation_uses_stratified() {
    let dir = TempDir::new("run-neg");
    let u = dir.file("unit.dl", "r(X) :- n(X), !b(X).\nn(1). n(2). b(2).\n");
    let out = bin().args(["run", &u]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("r(1)."));
    assert!(!s.contains("r(2)."));
}

const UNREACH: &str =
    "reach(X) :- src(X).\nreach(Y) :- reach(X), edge(X, Y).\nunreach(X) :- node(X), !reach(X).\n";
const UNREACH_FACTS: &str = "src(1). node(1). node(2). node(3). edge(1, 2).";

/// Exit 1 with the positive-program error, not the engine's assert (101).
fn assert_refused_as_not_positive(out: &Output) {
    assert_eq!(out.status.code(), Some(1), "{}", stderr(out));
    let e = stderr(out);
    assert!(
        e.contains("requires a positive program; use --engine stratified"),
        "{e}"
    );
    assert!(!e.contains("panicked"), "{e}");
}

#[test]
fn eval_with_negation_defaults_to_stratified() {
    let dir = TempDir::new("eval-neg");
    let p = dir.file("unreach.dl", UNREACH);
    let f = dir.file("facts.dl", UNREACH_FACTS);
    let out = bin().args(["eval", &p, "--edb", &f]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(
        s.contains("unreach(3).") && !s.contains("unreach(2)."),
        "{s}"
    );
    let explicit = bin()
        .args(["eval", &p, "--edb", &f, "--engine", "stratified"])
        .output()
        .unwrap();
    assert_eq!(stdout(&explicit), s);
    // Every engine evaluates stratified negation, the naive reference
    // included, and prints the same bytes.
    for engine in ["seminaive", "scc", "naive"] {
        let out = bin()
            .args(["eval", &p, "--edb", &f, "--engine", engine])
            .output()
            .unwrap();
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        assert_eq!(stdout(&out), s, "{engine}");
    }
}

/// A cycle through negation has no strata: every engine, the naive
/// reference included, refuses it with the same ordinary error.
#[test]
fn eval_refuses_a_cycle_through_negation_on_every_engine() {
    let dir = TempDir::new("eval-unstratifiable");
    let p = dir.file("cycle.dl", "p(X) :- q(X), !r(X).\nr(X) :- q(X), !p(X).\n");
    let f = dir.file("facts.dl", "q(1).");
    for engine in ["stratified", "naive"] {
        let out = bin()
            .args(["eval", &p, "--edb", &f, "--engine", engine])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{engine}: {}", stderr(&out));
        assert!(stderr(&out).contains("not stratifiable"), "{engine}");
        assert!(!stderr(&out).contains("panicked"), "{engine}");
    }
}

#[test]
fn explain_with_negation_is_an_ordinary_error() {
    let dir = TempDir::new("explain-neg");
    let p = dir.file("unreach.dl", UNREACH);
    let f = dir.file("facts.dl", UNREACH_FACTS);
    let out = bin()
        .args(["explain", "unreach(3)", &p, "--edb", &f])
        .output()
        .unwrap();
    assert_refused_as_not_positive(&out);
}

#[test]
fn query_with_negation_is_an_ordinary_error() {
    let dir = TempDir::new("query-neg");
    let p = dir.file("unreach.dl", UNREACH);
    let f = dir.file("facts.dl", UNREACH_FACTS);
    let out = bin()
        .args(["query", "unreach(X)", &p, "--edb", &f])
        .output()
        .unwrap();
    assert_refused_as_not_positive(&out);
}

#[test]
fn repl_with_negation_is_an_ordinary_error() {
    use std::io::Write as _;
    use std::process::Stdio;
    let dir = TempDir::new("repl-neg");
    let p = dir.file("unreach.dl", UNREACH);
    let out = bin().args(["repl", &p]).output().unwrap();
    assert_refused_as_not_positive(&out);

    // `:load` of such a file is refused and the session goes on.
    let mut child = bin()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let script = format!(":load {p}\nsrc(1).\n:db\n");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("requires a positive program"));
    assert!(stdout(&out).contains("src(1)."), "{}", stdout(&out));
}

#[test]
fn repl_scripted_session() {
    use std::io::Write as _;
    use std::process::Stdio;
    let dir = TempDir::new("repl");
    let extra = dir.file("extra.dl", "a(3, 4).\n");
    let script = format!(
        "g(X, Z) :- a(X, Z).\n\
         g(X, Z) :- g(X, Y), g(Y, Z).\n\
         a(1, 2).\n\
         a(2, 3).\n\
         ?- g(1, X).\n\
         :load {extra}\n\
         ?- g(1, 4).\n\
         :explain g(1, 3).\n\
         :program\n\
         :quit\n"
    );
    let mut child = bin()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    // First query: closure of a 2-chain from 1.
    assert!(s.contains("g(1, 2)."), "{s}");
    assert!(s.contains("g(1, 3)."), "{s}");
    assert!(s.contains("% 2 answer(s)"), "{s}");
    // After :load, g(1,4) becomes derivable.
    assert!(s.contains("g(1, 4)."), "{s}");
    assert!(s.contains("% 1 answer(s)"), "{s}");
    // Explanation and program dump present.
    assert!(s.contains("[rule 1]"), "{s}");
    assert!(s.contains("g(X, Z) :- g(X, Y), g(Y, Z)."), "{s}");
}

#[test]
fn repl_minimize_command() {
    use std::io::Write as _;
    use std::process::Stdio;
    let script = "g(X) :- a(X), a(X).\n:minimize\n:program\n:quit\n";
    let mut child = bin()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("% removed 1 part(s)"), "{s}");
    assert!(s.contains("g(X) :- a(X).\n"), "{s}");
}

#[test]
fn repl_rejects_invalid_rule_but_continues() {
    use std::io::Write as _;
    use std::process::Stdio;
    let script = "bad(X, W) :- a(X).\ngood(X) :- a(X).\n:program\n:quit\n";
    let mut child = bin()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(stderr(&out).contains("head variable"), "{}", stderr(&out));
    assert!(stdout(&out).contains("good(X) :- a(X)."));
    assert!(!stdout(&out).contains("bad(X, W)"));
}

#[test]
fn equiv_verdicts() {
    let dir = TempDir::new("equiv");
    let doubling = dir.file("doubling.dl", TC);
    let guarded = dir.file("guarded.dl", GUARDED);
    let renamed = dir.file(
        "renamed.dl",
        "g(U, W) :- a(U, W).\ng(U, W) :- g(U, V), g(V, W).\n",
    );
    let different = dir.file("different.dl", "g(X, Z) :- a(Z, X).\n");

    // Uniformly equivalent (renaming).
    let out = bin().args(["equiv", &doubling, &renamed]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("uniformly"));

    // Certified via tgds (Example 18 pair).
    let out = bin().args(["equiv", &doubling, &guarded]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("certified"));

    // Refuted with a witness EDB.
    let out = bin()
        .args(["equiv", &doubling, &different])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("NOT EQUIVALENT"));
    assert!(stdout(&out).contains("witness:"));
}

#[test]
fn check_reports_unit_summary_and_schemas() {
    let dir = TempDir::new("check-unit");
    let u = dir.file(
        "unit.dl",
        "@decl a(int, int).\ng(X, Z) :- a(X, Z).\na(1, 2).\n",
    );
    let out = bin().args(["check", &u]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 rules, 1 facts, 0 tgds, 1 declarations"));

    let bad = dir.file("bad.dl", "@decl a(int, int).\ng(X) :- a(X).\n");
    let out = bin().args(["check", &bad]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("arity"), "{}", stderr(&out));
}

#[test]
fn run_rejects_schema_violations() {
    let dir = TempDir::new("run-schema");
    let u = dir.file(
        "unit.dl",
        "@decl person(sym).\nadult(X) :- person(X).\nperson(42).\n",
    );
    let out = bin().args(["run", &u]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("declared sym"), "{}", stderr(&out));
}

#[test]
fn shipped_sample_files_work() {
    let root = env!("CARGO_MANIFEST_DIR");
    let tc = format!("{root}/examples/data/transitive_closure.dl");
    let out = bin().args(["run", &tc]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    // Example 2's closure: g(1,1) among the answers.
    assert!(stdout(&out).contains("g(1, 1)."));

    let guarded = format!("{root}/examples/data/guarded.dl");
    let out = bin().args(["optimize", &guarded]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        !stdout(&out).contains("a(Y, W)"),
        "guard removed:\n{}",
        stdout(&out)
    );

    let ex19 = format!("{root}/examples/data/example19.dl");
    let out = bin().args(["optimize", &ex19]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("via tgd"), "{}", stderr(&out));

    let gen = format!("{root}/examples/data/genealogy.dl");
    let out = bin().args(["check", &gen]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
}
