//! The named program registry and the request dispatcher.
//!
//! Installing a program runs the full pipeline the paper argues for doing
//! **once, ahead of evaluation**: parse → validate → §VII minimization
//! (`datalog_optimizer::minimize_program`).
//! The minimized program then backs a [`View`] — a materialisation absorbing
//! insert/remove batches — so the §VII join savings are paid for exactly
//! once and harvested on every subsequent query and maintenance batch of a
//! long-lived service.

use crate::metrics::Metrics;
use crate::protocol::{
    bool_field, error_response, ok_response, str_field, ErrorCode, ServiceError,
};
use crate::view::View;
use datalog_ast::{
    parse_atom, parse_database, parse_program, validate, Database, GroundAtom, Pred, Program,
    RowDisplay,
};
use datalog_engine::PlanCache;
use datalog_json::Value;
use datalog_optimizer::minimize_program;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// What the dispatcher tells the transport layer to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// A `shutdown` request was acknowledged: stop accepting and drain.
    Shutdown,
}

/// One installed program: its optimize-on-install artifacts, its
/// materialized view, and its observability counters.
pub struct ProgramEntry {
    pub name: String,
    /// The program as submitted (post-validation, pre-minimization).
    pub source: Program,
    /// The program actually evaluated (minimized unless `optimize:false`).
    pub installed: Program,
    /// The arity `source` uses each of its predicates at; facts and query
    /// atoms that contradict it are refused.
    pub arities: BTreeMap<Pred, usize>,
    /// Body atoms deleted by §VII minimization.
    pub atoms_removed: usize,
    /// Whole rules deleted by §VII minimization.
    pub rules_removed: usize,
    /// The maintained materialisation queries read.
    pub view: View,
    /// The magic-sets plans of `installed`, one per adornment, for requests
    /// that name `"strategy":"magic"`. Answers are not kept: every such ask
    /// evaluates from the published base facts.
    pub plans: PlanCache,
    pub metrics: Metrics,
}

impl ProgramEntry {
    /// Refuse an atom (shown as `atom`, from request field `field`) whose
    /// predicate the program uses at another arity: such a fact can never
    /// join and such a query can never have an answer. The installed
    /// program is a sub-program of the validated source, whose arities so
    /// cover both; predicates the program never mentions pass.
    fn check_arity(
        &self,
        field: &str,
        atom: &dyn std::fmt::Display,
        pred: Pred,
        arity: usize,
    ) -> Result<(), ServiceError> {
        match self.arities.get(&pred) {
            Some(&expected) if expected != arity => Err(ServiceError::new(
                ErrorCode::ValidationError,
                format!(
                    "{field}: `{atom}` contradicts {pred}/{expected} in program '{}'",
                    self.name
                ),
            )),
            _ => Ok(()),
        }
    }
}

/// The concurrent program registry; also the protocol dispatcher
/// ([`Registry::handle`]), so in-process callers, tests, and the TCP
/// transport all share one request path.
pub struct Registry {
    programs: RwLock<BTreeMap<String, Arc<ProgramEntry>>>,
    metrics: Metrics,
    started: Instant,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            programs: RwLock::new(BTreeMap::new()),
            metrics: Metrics::default(),
            started: Instant::now(),
        }
    }

    /// Server-wide counters (every request, all programs).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Look up an installed program.
    pub fn get(&self, name: &str) -> Option<Arc<ProgramEntry>> {
        self.read_programs().get(name).cloned()
    }

    /// Installed program names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read_programs().keys().cloned().collect()
    }

    fn read_programs(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ProgramEntry>>> {
        self.programs.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Run the install pipeline: parse → validate → minimize → materialize
    /// (over an empty base). Reinstalling a name atomically
    /// replaces the entry; readers holding the old `Arc` finish against the
    /// old view.
    pub fn install(
        &self,
        name: &str,
        rules_src: &str,
        optimize: bool,
    ) -> Result<Arc<ProgramEntry>, ServiceError> {
        if name.is_empty() || name.len() > 256 {
            return Err(ServiceError::bad_request(
                "program name must be 1..=256 characters",
            ));
        }
        let source = parse_program(rules_src)
            .map_err(|e| ServiceError::new(ErrorCode::ParseError, format!("rules: {e}")))?;
        if let Err(errors) = validate(&source) {
            let msgs: Vec<String> = errors.iter().map(ToString::to_string).collect();
            return Err(ServiceError::new(
                ErrorCode::ValidationError,
                msgs.join("; "),
            ));
        }
        if !source.is_positive() {
            return Err(ServiceError::new(
                ErrorCode::Unsupported,
                "materialized views require a positive program (no negation)",
            ));
        }
        let (installed, removal) = if optimize {
            minimize_program(&source)
                .map_err(|e| ServiceError::new(ErrorCode::Internal, e.to_string()))?
        } else {
            (source.clone(), Default::default())
        };
        let entry = Arc::new(ProgramEntry {
            name: name.to_string(),
            arities: source.arities(),
            source,
            installed: installed.clone(),
            atoms_removed: removal.atoms.len(),
            rules_removed: removal.rules.len(),
            view: View::new(installed.clone(), &Database::new()),
            plans: PlanCache::new(Arc::new(installed)),
            metrics: Metrics::default(),
        });
        self.programs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Handle one decoded request; returns the response and whether the
    /// transport should shut down. Never panics on malformed input — every
    /// failure becomes an `"ok": false` response with a stable code.
    pub fn handle(&self, request: &Value) -> (Value, Control) {
        let start = Instant::now();
        let id = request.get("id").cloned();
        if request.as_object().is_none() {
            let err = ServiceError::new(ErrorCode::BadJson, "request must be a JSON object");
            self.metrics
                .record_request("invalid", false, start.elapsed());
            return (error_response(None, &err), Control::Continue);
        }
        let op = request
            .get("op")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let result = if op.is_empty() {
            Err(ServiceError::bad_request(
                "missing or non-string field 'op'",
            ))
        } else {
            self.dispatch(&op, request)
        };
        let elapsed = start.elapsed();
        let op_key = if op.is_empty() {
            "invalid"
        } else {
            op.as_str()
        };
        match result {
            Ok(Handled {
                response,
                control,
                entry,
            }) => {
                self.metrics.record_request(op_key, true, elapsed);
                if let Some(entry) = entry {
                    entry.metrics.record_request(op_key, true, elapsed);
                }
                let response = attach_id(response, id);
                (response, control)
            }
            Err(err) => {
                self.metrics.record_request(op_key, false, elapsed);
                let named = request.get("program").and_then(Value::as_str);
                if let Some(entry) = named.and_then(|name| self.get(name)) {
                    entry.metrics.record_request(op_key, false, elapsed);
                }
                (error_response(id.as_ref(), &err), Control::Continue)
            }
        }
    }

    /// Convenience for in-process callers and tests: handle a raw request
    /// line exactly as the TCP server would, returning the response line.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        let (response, control) = match self.parse_line(line) {
            Ok(request) => self.handle(&request),
            Err(refusal) => (refusal, Control::Continue),
        };
        (response.to_compact(), control)
    }

    /// Decode one request line. A line that is not JSON comes back as its
    /// `bad_json` refusal, counted under `invalid` like every other request
    /// [`Registry::handle`] cannot name an op for.
    pub fn parse_line(&self, line: &str) -> Result<Value, Value> {
        let start = Instant::now();
        Value::parse(line).map_err(|e| {
            let err = ServiceError::new(ErrorCode::BadJson, e.to_string());
            self.metrics
                .record_request("invalid", false, start.elapsed());
            error_response(None, &err)
        })
    }

    fn dispatch(&self, op: &str, request: &Value) -> Result<Handled, ServiceError> {
        match op {
            "ping" => Ok(Handled::reply(ok_response(None, "ping", []))),
            "install" => self.op_install(request),
            "uninstall" => self.op_uninstall(request),
            "list" => self.op_list(),
            "insert" => self.op_mutate(request, true),
            "remove" => self.op_mutate(request, false),
            "query" => self.op_query(request),
            "stats" => self.op_stats(request),
            "shutdown" => Ok(Handled {
                response: ok_response(None, "shutdown", []),
                control: Control::Shutdown,
                entry: None,
            }),
            other => Err(ServiceError::new(
                ErrorCode::UnknownOp,
                format!("unknown op '{other}'"),
            )),
        }
    }

    fn entry(&self, request: &Value) -> Result<Arc<ProgramEntry>, ServiceError> {
        let name = str_field(request, "program")?;
        self.get(name).ok_or_else(|| {
            ServiceError::new(
                ErrorCode::UnknownProgram,
                format!("program '{name}' is not installed"),
            )
        })
    }

    fn op_install(&self, request: &Value) -> Result<Handled, ServiceError> {
        let name = str_field(request, "program")?;
        let rules = str_field(request, "rules")?;
        let optimize = bool_field(request, "optimize", true)?;
        let entry = self.install(name, rules, optimize)?;
        let response = ok_response(
            None,
            "install",
            [
                ("program", Value::from(name)),
                ("optimized", Value::Bool(optimize)),
                ("rules_before", Value::from(entry.source.len())),
                ("rules_after", Value::from(entry.installed.len())),
                ("body_atoms_before", Value::from(entry.source.total_width())),
                (
                    "body_atoms_after",
                    Value::from(entry.installed.total_width()),
                ),
                ("atoms_removed", Value::from(entry.atoms_removed)),
                ("rules_removed", Value::from(entry.rules_removed)),
            ],
        );
        Ok(Handled::on_entry(response, entry))
    }

    fn op_uninstall(&self, request: &Value) -> Result<Handled, ServiceError> {
        let name = str_field(request, "program")?;
        let removed = self
            .programs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        match removed {
            Some(_) => Ok(Handled::reply(ok_response(
                None,
                "uninstall",
                [("program", Value::from(name))],
            ))),
            None => Err(ServiceError::new(
                ErrorCode::UnknownProgram,
                format!("program '{name}' is not installed"),
            )),
        }
    }

    fn op_list(&self) -> Result<Handled, ServiceError> {
        let programs: Vec<Value> = self
            .read_programs()
            .values()
            .map(|entry| {
                let snapshot = entry.view.snapshot();
                Value::object([
                    ("program", Value::from(entry.name.as_str())),
                    ("rules", Value::from(entry.installed.len())),
                    ("atoms", Value::from(snapshot.len())),
                ])
            })
            .collect();
        Ok(Handled::reply(ok_response(
            None,
            "list",
            [("programs", Value::Array(programs))],
        )))
    }

    fn op_mutate(&self, request: &Value, insert: bool) -> Result<Handled, ServiceError> {
        let entry = self.entry(request)?;
        let facts_src = str_field(request, "facts")?;
        let facts_db = parse_database(facts_src)
            .map_err(|e| ServiceError::new(ErrorCode::ParseError, format!("facts: {e}")))?;
        let facts: Vec<GroundAtom> = facts_db.iter().collect();
        let batch = facts.len();
        // The whole batch is refused before it reaches the writer: the view
        // would store a fact of the wrong arity forever.
        for f in &facts {
            entry.check_arity("facts", f, f.pred, f.tuple.len())?;
        }
        let (op, changed, stats) = if insert {
            let (added, stats) = entry.view.insert(facts);
            entry.metrics.record_mutation(added, 0);
            ("insert", added, stats)
        } else {
            let (removed, stats) = entry.view.remove(facts);
            entry.metrics.record_mutation(0, removed);
            ("remove", removed, stats)
        };
        entry.metrics.record_eval(stats);
        self.metrics.record_eval(stats);
        let response = ok_response(
            None,
            op,
            [
                ("program", Value::from(entry.name.as_str())),
                ("facts", Value::from(batch)),
                (
                    if insert { "added" } else { "removed" },
                    Value::from(changed),
                ),
                ("db_atoms", Value::from(entry.view.snapshot().len())),
            ],
        );
        Ok(Handled::on_entry(response, entry))
    }

    fn op_query(&self, request: &Value) -> Result<Handled, ServiceError> {
        let entry = self.entry(request)?;
        let atom_src = str_field(request, "atom")?;
        let pattern = parse_atom(atom_src)
            .map_err(|e| ServiceError::new(ErrorCode::ParseError, format!("atom: {e}")))?;
        let limit = match request.get("limit") {
            None => usize::MAX,
            Some(v) => v.as_u64().ok_or_else(|| {
                ServiceError::bad_request("field 'limit' must be a non-negative integer")
            })? as usize,
        };
        let strategy_field = match request.get("strategy") {
            None => "auto",
            Some(v) => v
                .as_str()
                .ok_or_else(|| ServiceError::bad_request("field 'strategy' must be a string"))?,
        };
        entry.check_arity("atom", &pattern, pattern.pred, pattern.arity())?;
        // `auto` (and its synonym `scan`) reads the published fixpoint: the
        // view already holds every answer, so no top-down evaluation can
        // beat selecting them. `magic` evaluates from the base facts through
        // the program's plans — unless the program has no rule for the
        // predicate, when the stored relation is all there is and a plan
        // would only take up room.
        let magic = match strategy_field {
            "auto" | "scan" => false,
            "magic" => true,
            other => {
                let message = format!("field 'strategy' must be auto|scan|magic, got '{other}'");
                return Err(ServiceError::bad_request(message));
            }
        };
        let rules = &entry.installed.rules;
        // Queries run entirely against a published state: no lock is held
        // while evaluating or matching, so writers never stall readers.
        let state = entry.view.state();
        let evaluated = (magic && rules.iter().any(|r| r.head.pred == pattern.pred)).then(|| {
            let (answers, stats) = entry.plans.answer(&state.base, &pattern);
            entry.metrics.record_eval(stats);
            self.metrics.record_eval(stats);
            answers
        });
        let (strategy_name, rows) = match &evaluated {
            Some(answers) => ("magic", answers.select(&pattern)),
            None => ("scan", state.fixpoint.select(&pattern)),
        };
        let count = rows.len();
        let answers: Vec<Value> = rows
            .iter()
            .take(limit)
            .map(|row| Value::from(RowDisplay(pattern.pred, row).to_string()))
            .collect();
        let truncated = count > answers.len();
        let response = ok_response(
            None,
            "query",
            [
                ("program", Value::from(entry.name.as_str())),
                ("atom", Value::from(atom_src)),
                ("strategy", Value::from(strategy_name)),
                ("count", Value::from(count)),
                ("truncated", Value::Bool(truncated)),
                ("answers", Value::Array(answers)),
            ],
        );
        Ok(Handled::on_entry(response, entry))
    }

    fn op_stats(&self, request: &Value) -> Result<Handled, ServiceError> {
        if request.get("program").is_some() {
            let entry = self.entry(request)?;
            let snapshot = entry.view.snapshot();
            let response = ok_response(
                None,
                "stats",
                [
                    ("program", Value::from(entry.name.as_str())),
                    ("rules_installed", Value::from(entry.installed.len())),
                    ("atoms_removed", Value::from(entry.atoms_removed)),
                    ("rules_removed", Value::from(entry.rules_removed)),
                    ("db_atoms", Value::from(snapshot.len())),
                    ("plans", Value::from(entry.plans.len())),
                    ("metrics", entry.metrics.to_json()),
                ],
            );
            return Ok(Handled::on_entry(response, entry));
        }
        let per_program: Vec<(String, Value)> = self
            .read_programs()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.metrics.to_json()))
            .collect();
        let response = ok_response(
            None,
            "stats",
            [
                (
                    "uptime_micros",
                    Value::from(self.started.elapsed().as_micros().min(u64::MAX as u128) as u64),
                ),
                ("programs_installed", Value::from(per_program.len())),
                ("server", self.metrics.to_json()),
                ("programs", Value::Object(per_program)),
            ],
        );
        Ok(Handled::reply(response))
    }
}

/// A successfully dispatched request.
struct Handled {
    response: Value,
    control: Control,
    /// The program the request targeted, for per-program latency metrics.
    entry: Option<Arc<ProgramEntry>>,
}

impl Handled {
    fn reply(response: Value) -> Handled {
        Handled {
            response,
            control: Control::Continue,
            entry: None,
        }
    }

    fn on_entry(response: Value, entry: Arc<ProgramEntry>) -> Handled {
        Handled {
            response,
            control: Control::Continue,
            entry: Some(entry),
        }
    }
}

/// Echo the request's `id` into a success response, preserving field order
/// (`ok`, `op`, `id`, then payload).
fn attach_id(response: Value, id: Option<Value>) -> Value {
    let Some(id) = id else { return response };
    let Value::Object(mut pairs) = response else {
        return response;
    };
    pairs.insert(2.min(pairs.len()), ("id".to_string(), id));
    Value::Object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> Value {
        Value::parse(line).unwrap()
    }

    /// The paper's Fig. 1/2 running example (Example 7 rule plus doubling
    /// recursion): minimization removes the redundant `a(W, Y)` atom.
    const EX7: &str = "g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).";

    #[test]
    fn install_reports_minimization() {
        let reg = Registry::new();
        let (resp, control) = reg.handle(&req(&format!(
            "{{\"op\":\"install\",\"program\":\"ex7\",\"rules\":\"{EX7}\"}}"
        )));
        assert_eq!(control, Control::Continue);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(resp.get("atoms_removed").unwrap().as_u64(), Some(1));
        assert_eq!(resp.get("body_atoms_before").unwrap().as_u64(), Some(5));
        assert_eq!(resp.get("body_atoms_after").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn full_session_install_insert_query_remove_stats() {
        let reg = Registry::new();
        let tc = "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).";
        let (resp, _) = reg.handle(&req(&format!(
            "{{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"{tc}\",\"id\":1}}"
        )));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(resp.get("id").unwrap().as_u64(), Some(1), "id echoed");

        let (resp, _) = reg.handle(&req(
            "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1,2). a(2,3).\"}",
        ));
        assert_eq!(resp.get("added").unwrap().as_u64(), Some(5), "{resp}");

        let (resp, _) = reg.handle(&req(
            "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(1, X)\"}",
        ));
        assert_eq!(resp.get("count").unwrap().as_u64(), Some(2), "{resp}");

        let (resp, _) = reg.handle(&req(
            "{\"op\":\"remove\",\"program\":\"tc\",\"facts\":\"a(2,3).\"}",
        ));
        assert_eq!(resp.get("removed").unwrap().as_u64(), Some(3), "{resp}");

        let (resp, _) = reg.handle(&req("{\"op\":\"stats\",\"program\":\"tc\"}"));
        let metrics = resp.get("metrics").unwrap();
        assert!(metrics.get("requests_total").unwrap().as_u64().unwrap() >= 4);
        assert!(
            metrics
                .get("eval")
                .unwrap()
                .get("derivations")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn query_limit_truncates() {
        let reg = Registry::new();
        reg.install("tc", "g(X, Z) :- a(X, Z).", true).unwrap();
        reg.handle(&req(
            "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1,2). a(2,3). a(3,4).\"}",
        ));
        let (resp, _) = reg.handle(&req(
            "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\",\"limit\":2}",
        ));
        assert_eq!(resp.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(resp.get("answers").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(resp.get("truncated").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn errors_have_stable_codes() {
        let reg = Registry::new();
        for (line, code) in [
            ("{\"op\":\"frobnicate\"}", "unknown_op"),
            ("{\"nop\":true}", "bad_request"),
            ("{\"op\":\"query\",\"program\":\"missing\",\"atom\":\"g(X)\"}", "unknown_program"),
            ("{\"op\":\"install\",\"program\":\"x\",\"rules\":\"g(X :-\"}", "parse_error"),
            (
                "{\"op\":\"install\",\"program\":\"x\",\"rules\":\"g(X, W) :- a(X).\"}",
                "validation_error",
            ),
            (
                "{\"op\":\"install\",\"program\":\"x\",\"rules\":\"p(X) :- b(X). q(X) :- d(X), !p(X).\"}",
                "unsupported",
            ),
        ] {
            let (resp, control) = reg.handle(&req(line));
            assert_eq!(control, Control::Continue);
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{line}");
            assert_eq!(resp.get("code").unwrap().as_str(), Some(code), "{resp}");
        }
        let (resp, _) = reg.handle_line("this is not json");
        assert!(resp.contains("\"code\":\"bad_json\""), "{resp}");
    }

    /// `auto`, adorned or not, reads the published fixpoint and compiles no
    /// plan. `magic` evaluates top-down, only for a predicate the program
    /// has a rule for, and lists exactly `auto`'s answers in its order; any
    /// other strategy (`qsq` included) is a `bad_request`. A query atom at
    /// an arity the program contradicts is refused like a fact of that
    /// arity.
    #[test]
    fn default_queries_read_the_view_and_named_strategies_agree_with_it() {
        let reg = Registry::new();
        let tc = "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).";
        reg.install("tc", tc, true).unwrap();
        reg.handle(&req(
            "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1,2). a(2,3). a(3,3). zz(1,4).\"}",
        ));
        let query = |atom: &str, strategy: Option<&str>| {
            let strategy = strategy.map_or(String::new(), |s| format!(",\"strategy\":\"{s}\""));
            let (resp, _) = reg.handle(&req(&format!(
                "{{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"{atom}\"{strategy}}}"
            )));
            resp
        };
        let answers = |resp: &Value| -> Vec<String> {
            let list = resp.get("answers").unwrap().as_array().unwrap();
            list.iter()
                .map(|a| a.as_str().unwrap().to_string())
                .collect()
        };
        let field = |resp: &Value, name: &str| resp.get(name).unwrap().as_str().map(str::to_owned);
        let table = [
            ("g(1, X)", vec!["g(1, 2)", "g(1, 3)"]),
            ("g(X, 3)", vec!["g(1, 3)", "g(2, 3)", "g(3, 3)"]),
            ("g(X, X)", vec!["g(3, 3)"]),
            ("g(2, 3)", vec!["g(2, 3)"]),
            ("g(7, X)", vec![]),
            ("a(X, Y)", vec!["a(1, 2)", "a(2, 3)", "a(3, 3)"]),
            ("zz(1, X)", vec!["zz(1, 4)"]),
            ("nowhere(X)", vec![]),
        ];
        for (atom, expected) in &table {
            for strategy in [None, Some("auto"), Some("scan")] {
                let resp = query(atom, strategy);
                assert_eq!(&answers(&resp), expected, "{resp}");
                assert_eq!(field(&resp, "strategy").as_deref(), Some("scan"), "{resp}");
                assert!(resp.get("cache").is_none(), "{resp}");
            }
        }
        let entry = reg.get("tc").unwrap();
        assert_eq!(entry.plans.len(), 0);

        for (atom, expected) in &table {
            let resp = query(atom, Some("magic"));
            assert_eq!(&answers(&resp), expected, "{resp}");
            let path = if atom.starts_with("g(") {
                "magic"
            } else {
                "scan"
            };
            assert_eq!(field(&resp, "strategy").as_deref(), Some(path), "{resp}");
        }
        // g at four adornments (bf, fb, ff, bb).
        assert_eq!(entry.plans.len(), 4);

        let resp = query("g(1, X)", Some("qsq"));
        assert_eq!(
            field(&resp, "code").as_deref(),
            Some("bad_request"),
            "{resp}"
        );
        assert!(
            field(&resp, "error").unwrap().contains("auto|scan|magic,"),
            "{resp}"
        );

        for atom in ["g(1)", "g(1, X, Y)", "a(X)"] {
            for strategy in [None, Some("magic")] {
                let resp = query(atom, strategy);
                assert_eq!(
                    resp.get("code").unwrap().as_str(),
                    Some("validation_error"),
                    "{resp}"
                );
            }
        }
        assert_eq!(entry.plans.len(), 4);
    }

    /// A failed request counts on the program it names, and a line that is
    /// not JSON at all under `invalid`.
    #[test]
    fn failures_are_counted_where_they_happen() {
        let reg = Registry::new();
        reg.install("tc", "g(X, Z) :- a(X, Z).", true).unwrap();
        for line in [
            "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}",
            "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(\"}",
            "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(1)\"}",
            "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1).\"}",
            "{\"op\":\"query\",\"program\":\"other\",\"atom\":\"g(X, Y)\"}",
            "not json",
        ] {
            reg.handle_line(line);
        }
        let count = |metrics: &Value, path: &[&str]| {
            let leaf = path.iter().fold(metrics, |v, key| v.get(key).unwrap());
            leaf.as_u64().unwrap()
        };
        let (resp, _) = reg.handle(&req("{\"op\":\"stats\",\"program\":\"tc\"}"));
        let metrics = resp.get("metrics").unwrap();
        assert_eq!(count(metrics, &["errors"]), 3, "{metrics}");
        assert_eq!(count(metrics, &["requests", "query"]), 3, "{metrics}");
        assert_eq!(count(metrics, &["requests", "insert"]), 1, "{metrics}");
        let (resp, _) = reg.handle(&req("{\"op\":\"stats\"}"));
        let server = resp.get("server").unwrap();
        assert_eq!(count(server, &["errors"]), 5, "{server}");
        assert_eq!(count(server, &["requests", "invalid"]), 1, "{server}");
    }

    #[test]
    fn uninstall_and_list() {
        let reg = Registry::new();
        reg.install("a", "p(X) :- e(X).", true).unwrap();
        reg.install("b", "q(X) :- e(X).", true).unwrap();
        let (resp, _) = reg.handle(&req("{\"op\":\"list\"}"));
        assert_eq!(resp.get("programs").unwrap().as_array().unwrap().len(), 2);
        let (resp, _) = reg.handle(&req("{\"op\":\"uninstall\",\"program\":\"a\"}"));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(reg.names(), vec!["b".to_string()]);
    }

    #[test]
    fn shutdown_signals_the_transport() {
        let reg = Registry::new();
        let (resp, control) = reg.handle(&req("{\"op\":\"shutdown\"}"));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(control, Control::Shutdown);
    }

    #[test]
    fn reinstall_replaces_but_old_snapshots_survive() {
        let reg = Registry::new();
        reg.install("p", "g(X, Z) :- a(X, Z).", true).unwrap();
        let old = reg.get("p").unwrap();
        old.view.insert(vec![datalog_ast::fact("a", [1, 2])]);
        let old_snapshot = old.view.snapshot();
        reg.install("p", "h(X) :- b(X).", true).unwrap();
        assert!(old_snapshot.contains(&datalog_ast::fact("g", [1, 2])));
        assert_eq!(reg.get("p").unwrap().view.snapshot().len(), 0);
    }
}
