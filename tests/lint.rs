//! End-to-end tests of `datalog lint`: golden runs over every shipped
//! example, targeted fixtures per lint code, JSON round-tripping, and the
//! CI exit-code contract.

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
            std::env::temp_dir().join(format!("sagiv-datalog-lint-{tag}-{}", std::process::id()));
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

/// Lint a source string and return (exit code, stdout, stderr).
fn lint(tag: &str, src: &str, extra: &[&str]) -> (i32, String, String) {
    let dir = TempDir::new(tag);
    let p = dir.file("input.dl", src);
    let mut args = vec!["lint", p.as_str()];
    args.extend_from_slice(extra);
    let out = bin().args(&args).output().unwrap();
    (out.status.code().unwrap_or(-1), stdout(&out), stderr(&out))
}

// ---------------------------------------------------------------------------
// Golden runs over the shipped examples
// ---------------------------------------------------------------------------

/// Every example program ships lint-clean: no errors, no warnings. (Notes
/// are tolerated — e.g. an unused query predicate.)
#[test]
fn all_shipped_examples_lint_without_warnings() {
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut checked = 0;
    for entry in std::fs::read_dir(&data).expect("examples/data exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("dl") {
            continue;
        }
        let out = bin()
            .args(["lint", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}: lint exited {:?}\n{}{}",
            path.display(),
            out.status.code(),
            stdout(&out),
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(
            err.contains("0 error(s), 0 warning(s)"),
            "{}: expected no errors/warnings, got:\n{}{}",
            path.display(),
            stdout(&out),
            err
        );
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected at least 4 example programs, found {checked}"
    );
}

/// A clean, minimal program produces zero diagnostics of any severity.
#[test]
fn clean_program_is_silent() {
    let (code, out, err) = lint(
        "clean",
        "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), a(Y, Z).\n",
        &[],
    );
    assert_eq!(code, 0);
    assert_eq!(out, "", "no diagnostics expected, got:\n{out}");
    assert!(err.contains("0 error(s), 0 warning(s), 0 note(s)"));
}

// ---------------------------------------------------------------------------
// Targeted fixtures, one per lint code
// ---------------------------------------------------------------------------

#[test]
fn l101_arity_mismatch() {
    let (code, out, _) = lint("l101", "p(X) :- e(X).\np(X, Y) :- e(X), e(Y).\n", &[]);
    assert_eq!(code, 2, "arity mismatch is an error");
    assert!(out.contains("error[L101]"), "{out}");
}

#[test]
fn l102_not_range_restricted() {
    let (code, out, _) = lint("l102", "p(X, Y) :- e(X).\n", &[]);
    assert_eq!(code, 2);
    assert!(out.contains("error[L102]"), "{out}");
    assert!(out.contains("`Y`"), "{out}");
}

#[test]
fn l103_unsafe_negation() {
    let (code, out, _) = lint("l103", "p(X) :- e(X), !q(Y).\nq(X) :- f(X).\n", &[]);
    assert_eq!(code, 2);
    assert!(out.contains("error[L103]"), "{out}");
}

#[test]
fn l104_unstratifiable() {
    let (code, out, _) = lint("l104", "p(X) :- e(X), !q(X).\nq(X) :- e(X), !p(X).\n", &[]);
    assert_eq!(code, 2);
    assert!(out.contains("error[L104]"), "{out}");
}

#[test]
fn l110_underived_predicate_needs_edb_context() {
    // With facts present the file carries its own EDB, so `ghost` with no
    // rules/facts/@decl is flagged…
    let (code, out, _) = lint("l110", "p(X) :- ghost(X).\nq(X) :- e(X).\ne(1).\n", &[]);
    assert_eq!(code, 0, "L110 is a warning, not an error");
    assert!(out.contains("warning[L110]"), "{out}");
    assert!(out.contains("`ghost`"), "{out}");
    // …but a bare program (EDB supplied at evaluation time) is not.
    let (_, out, _) = lint("l110-bare", "p(X) :- ghost(X).\n", &[]);
    assert!(!out.contains("L110"), "{out}");
}

#[test]
fn l111_unused_predicate() {
    let (_, out, _) = lint(
        "l111",
        "p(X) :- e(X).\nq(X) :- e(X).\np2(X) :- p(X).\n",
        &[],
    );
    // q and p2 are derived but never used; p is used by p2.
    assert!(out.contains("note[L111]"), "{out}");
    assert!(!out.contains("predicate `p` is derived"), "{out}");
}

#[test]
fn l112_unreachable_rule() {
    // `mid` depends on `ghost`, which has no facts — with an in-file EDB
    // the rule for `mid` (and transitively `top`) can never fire.
    let (_, out, _) = lint(
        "l112",
        "top(X) :- mid(X).\nmid(X) :- ghost(X).\nok(X) :- e(X).\ne(1).\n",
        &[],
    );
    assert!(out.contains("warning[L112]"), "{out}");
    assert!(out.contains("never fire"), "{out}");
}

#[test]
fn l120_singleton_variable() {
    let (code, out, _) = lint("l120", "p(X) :- e(X), f(Y).\n", &[]);
    assert_eq!(code, 0);
    assert!(out.contains("warning[L120]"), "{out}");
    assert!(out.contains("`Y`"), "{out}");
    // `_`-prefixed singletons are intentional.
    let (_, out, _) = lint("l120-silenced", "p(X) :- e(X), f(_Y).\n", &[]);
    assert!(!out.contains("L120"), "{out}");
}

#[test]
fn l121_cartesian_product() {
    let (_, out, _) = lint("l121", "p(X, Y) :- e(X), f(Y).\n", &[]);
    assert!(out.contains("warning[L121]"), "{out}");
    assert!(out.contains("cartesian product"), "{out}");
}

#[test]
fn l122_duplicate_literal() {
    let (_, out, _) = lint("l122", "p(X) :- e(X), e(X).\n", &[]);
    assert!(out.contains("warning[L122]"), "{out}");
}

#[test]
fn l123_constant_only_head() {
    let (_, out, _) = lint("l123", "flag(1) :- e(X).\n", &[]);
    assert!(out.contains("note[L123]"), "{out}");
}

#[test]
fn l201_example7_redundant_atom() {
    // Acceptance criterion: Example 7 (§VI) — the recursive rule's
    // a(W, Y) atom is redundant, with a §VI explanation, and --deny
    // makes the exit code non-zero.
    let ex7 = "g(X, Y, Z) :- a(X, Y), a(X, Z).\n\
               g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).\n";
    let (code, out, _) = lint("l201", ex7, &[]);
    assert_eq!(code, 0, "warning severity by default");
    assert!(out.contains("warning[L201]"), "{out}");
    assert!(out.contains("a(W, Y)"), "{out}");
    assert!(out.contains("\u{a7}VI"), "explanation cites §VI:\n{out}");
    assert!(out.contains("at 2:"), "span points at line 2:\n{out}");
    let (code, _, _) = lint("l201-deny", ex7, &["--deny", "L201"]);
    assert_eq!(code, 2, "--deny L201 promotes the finding to an error");
}

#[test]
fn l202_redundant_rule() {
    let (_, out, _) = lint(
        "l202",
        "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), a(Y, Z).\ng(X, Z) :- a(X, Y), a(Y, Z).\n",
        &[],
    );
    // The third rule is a composition of the first two.
    assert!(out.contains("warning[L202]"), "{out}");
    assert!(out.contains("(rule 2)"), "{out}");
}

/// Every suggestion applied at once is Fig. 2's result: the twin copy is
/// `L122`'s alone, the rule Fig. 2 then deletes is `L202`'s, and the other
/// recursive rule — which a one-at-a-time test would also flag — stays.
#[test]
fn every_suggestion_applied_together_is_what_minimize_prints() {
    let src = "g(X, Z) :- a(X, Z).\n\
               g(X, Z) :- g(X, Y), g(Y, Z), g(Y, Z).\n\
               g(X, Z) :- g(X, Y), g(Y, Z).\n";
    let (code, out, _) = lint("applied", src, &["--format", "json"]);
    assert_eq!(code, 0);
    let report = datalog_json::Value::parse(&out).unwrap();
    let diags = report.get("diagnostics").unwrap().as_array().unwrap();
    let findings: Vec<(&str, u64)> = diags
        .iter()
        .map(|d| {
            let code = d.get("code").unwrap().as_str().unwrap();
            (code, d.get("rule").unwrap().as_u64().unwrap())
        })
        .collect();
    assert_eq!(findings, [("L122", 1), ("L202", 1)], "{out}");

    let mut rules: Vec<Option<datalog_ast::Rule>> = datalog_ast::parse_program(src)
        .unwrap()
        .rules
        .into_iter()
        .map(Some)
        .collect();
    for d in diags {
        let i = d.get("rule").unwrap().as_u64().unwrap() as usize;
        let message = d.get("message").unwrap().as_str().unwrap();
        match (d.get("code").unwrap().as_str().unwrap(), rules[i].as_mut()) {
            ("L202", _) => rules[i] = None,
            ("L122", Some(rule)) => {
                let literal = message.split('`').nth(1).unwrap();
                let pos = rule.body.iter().position(|l| l.to_string() == literal);
                rule.body.remove(pos.unwrap());
            }
            other => panic!("unexpected finding {other:?}"),
        }
    }
    let applied = datalog_ast::Program::new(rules.into_iter().flatten().collect());

    let dir = TempDir::new("applied-minimize");
    let original = dir.file("original.dl", src);
    let minimized = bin().args(["minimize", &original]).output().unwrap();
    assert_eq!(applied.to_string(), stdout(&minimized));
    let applied = dir.file("applied.dl", &applied.to_string());
    let contains = bin()
        .args(["contains", &original, &applied])
        .output()
        .unwrap();
    assert_eq!(contains.status.code(), Some(0), "{}", stdout(&contains));
    assert!(stdout(&contains).contains("uniformly equivalent: true"));
}

#[test]
fn l203_subsumed_rule_hint() {
    let (_, out, _) = lint(
        "l203",
        "p(X) :- e(X).\np(X) :- e(X), f(X).\n",
        &["--allow", "L202"],
    );
    assert!(out.contains("note[L203]"), "{out}");
    assert!(out.contains("Chandra-Merlin"), "{out}");
}

// ---------------------------------------------------------------------------
// Output formats, fuel, and exit codes
// ---------------------------------------------------------------------------

/// `--format json` emits a document that round-trips through the JSON
/// parser with the expected shape.
#[test]
fn json_output_round_trips() {
    let (code, out, _) = lint(
        "json",
        "p(X, Y) :- e(X), f(Y), f(Y).\n",
        &["--format", "json"],
    );
    assert_eq!(code, 0);
    let v = datalog_json::Value::parse(&out).expect("valid JSON");
    assert_eq!(v.get("version").unwrap().as_u64(), Some(1));
    let diags = v.get("diagnostics").unwrap().as_array().unwrap();
    assert!(!diags.is_empty());
    for d in diags {
        assert!(d.get("code").unwrap().as_str().unwrap().starts_with('L'));
        assert!(d.get("severity").is_some());
    }
    let summary = v.get("summary").unwrap();
    assert_eq!(
        summary.get("warnings").unwrap().as_u64().unwrap() as usize,
        diags
            .iter()
            .filter(|d| d.get("severity").unwrap().as_str() == Some("warning"))
            .count()
    );
    // Re-serialising the parsed value must parse again (round-trip).
    let again = datalog_json::Value::parse(&v.to_compact()).unwrap();
    assert_eq!(again, v);
}

/// With `--fuel 0` the semantic tier is skipped entirely: structural lints
/// still fire, no fuel is consumed, and skipped checks are reported.
#[test]
fn fuel_zero_runs_structural_only() {
    let ex7_with_dup = "g(X, Y, Z) :- a(X, Y), a(X, Z).\n\
                        g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y), a(Z, Y).\n";
    let (code, out, _) = lint("fuel0", ex7_with_dup, &["--format", "json", "--fuel", "0"]);
    assert_eq!(code, 0);
    let v = datalog_json::Value::parse(&out).unwrap();
    let summary = v.get("summary").unwrap();
    assert_eq!(summary.get("fuel_used").unwrap().as_u64(), Some(0));
    assert!(
        summary
            .get("skipped_semantic_checks")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    let diags = v.get("diagnostics").unwrap().as_array().unwrap();
    // The structural duplicate-literal finding survives; no L2xx does.
    assert!(diags
        .iter()
        .any(|d| d.get("code").unwrap().as_str() == Some("L122")));
    assert!(!diags.iter().any(|d| {
        d.get("code")
            .unwrap()
            .as_str()
            .map(|c| c.starts_with("L2"))
            .unwrap_or(false)
    }));
}

/// Parse failures are user errors: exit 1, not 2.
#[test]
fn parse_error_exits_one() {
    let (code, _, err) = lint("parse-error", "p(X :- q(X).\n", &[]);
    assert_eq!(code, 1);
    assert!(err.contains("error"), "{err}");
}

/// `--deny all` promotes every finding.
#[test]
fn deny_all_promotes_everything() {
    let (code, out, _) = lint("deny-all", "p(X) :- e(X), e(X).\n", &["--deny", "all"]);
    assert_eq!(code, 2);
    assert!(out.contains("error[L122]"), "{out}");
}
