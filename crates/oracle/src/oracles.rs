//! The oracle families and their divergence checks.
//!
//! Each check recomputes the same answer several independent ways and
//! reports every disagreement as a [`Divergence`]. The reference result is
//! always the semi-naive fixpoint of [`evaluate`] — every other evaluator,
//! query strategy, optimizer output, and incremental state is compared
//! against it (or against a from-scratch recomputation seeded by it).
//!
//! * **Engine matrix** — the naive reference (a nested loop over rows that
//!   shares no code with the kernel) and a second kernel run must produce
//!   the reference fixpoint on every program, negated or not; the kernel
//!   must derive each atom the fixpoint adds to the input exactly once,
//!   and count no more matches than one naive pass over the fixpoint
//!   enumerates (semi-naive finds each match once); on a positive program
//!   magic-sets answers must equal the pattern-filtered fixpoint for every
//!   query, and the proof a traced context gives for a sample of the
//!   fixpoint must pass [`Proof::check`](datalog_engine::Proof::check).
//! * **Optimization soundness** — `minimize_program` (Fig. 2),
//!   `minimize_program_in_order` under a random consideration order, and a
//!   redundancy-injected bloat must all agree with the original program on
//!   IDB-seeded databases (the paper's uniform-equivalence regime, §IV),
//!   and the minimized programs must test ≡u against the original (§VI).
//!   Every §VI test Fig. 2 makes on the way is also decided twice: by the
//!   goal-directed [`Containment`] and by the unshortened test (the full
//!   fixpoint of the frozen body, then a lookup of the frozen head), and its
//!   evidence re-checked: a witness's proof against [`Proof::check`](datalog_engine::Proof::check), a
//!   refutation's countermodel against that fixpoint. Edits Fig. 2 never
//!   makes — a rule replaced by an instance of itself, as wide as it — must
//!   leave the edited `Containment` answering as one built from scratch.
//!   Every removal `datalog lint` suggests, applied together, must leave a
//!   valid program ≡u to the original, and every witness Fig. 2 keeps —
//!   also of a removal it decided without a test — must check against the
//!   program as it stood at that step ([`fig2_evidence`]) The
//!   chase, Fig. 3, (3′) and §X-XI's deletions must agree with the
//!   nested-loop reference (`naive::satisfies`, `naive::apply_once`) on
//!   each case rule's candidate tgds ([`crate::chase`]).
//! * **Incremental consistency** — after every insert/remove batch the
//!   [`Materialized`] fixpoint must equal a from-scratch evaluation of the
//!   surviving base, through the case's batches and then through a long
//!   replay of them and their inverses (`incr:replay`).
//! * **View queries** — a [`View`] and a [`PlanCache`] of the same program,
//!   the pair the service keeps per installed program, are driven through
//!   interleaved adorned queries and write batches. On every published
//!   version the published snapshot must be the from-scratch fixpoint of
//!   the published base, and `Database::select`
//!   over it (what the service's default `auto` serves, order included)
//!   and the `magic` plan over that base must each answer exactly the
//!   pattern-filtered fixpoint.
//! * **Concurrent service** — racing client threads drive
//!   interleaving-independent insert/remove batches (plus readers) through
//!   an in-process [`Registry`]; because no fact is both
//!   inserted and removed, every interleaving must converge to the same
//!   final base, whose from-scratch fixpoint the served snapshot must
//!   equal. Readers alternate `auto` and `magic`; at both quiescent
//!   versions (before and after the race) each of the two must reply with
//!   exactly the filtered from-scratch fixpoint, in its order.

use crate::workload::{Case, Mutation};
use datalog_analysis::{analyze_program, LintConfig};
use datalog_ast::{
    match_atom, validate, Atom, Database, GroundAtom, Pred, Program, Rule, Subst, Term, Var,
};
use datalog_engine::{evaluate, magic, naive, Adornment, Materialized, PlanCache, Stats, Traced};
use datalog_optimizer::{
    freeze_rule, minimize_program, minimize_program_in_order, minimize_program_with_evidence,
    uniformly_equivalent, Containment, Refutation, Witness,
};
use datalog_service::{Registry, View};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// The oracle family a case belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Engines,
    Optimization,
    Incremental,
    ViewQuery,
    ConcurrentService,
    Metamorphic,
}

impl Family {
    pub const ALL: [Family; 6] = [
        Family::Engines,
        Family::Optimization,
        Family::Incremental,
        Family::ViewQuery,
        Family::ConcurrentService,
        Family::Metamorphic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Engines => "engines",
            Family::Optimization => "optimization",
            Family::Incremental => "incremental",
            Family::ViewQuery => "view-query",
            Family::ConcurrentService => "concurrent-service",
            Family::Metamorphic => "metamorphic",
        }
    }

    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "engines" => Some(Family::Engines),
            "optimization" => Some(Family::Optimization),
            "incremental" => Some(Family::Incremental),
            "view-query" => Some(Family::ViewQuery),
            "concurrent-service" => Some(Family::ConcurrentService),
            "metamorphic" => Some(Family::Metamorphic),
            _ => None,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One disagreement between two ways of computing the same answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    pub family: Family,
    /// Stable machine-readable kind, e.g. `engine:naive`, `query:magic`,
    /// `opt:minimized`, `incr:step`.
    pub kind: String,
    /// Human-readable explanation with sample atoms from both sides.
    pub message: String,
}

/// Run the case's oracle family, returning every divergence found.
///
/// Invalid intermediate cases (as the reducer may produce) are treated as
/// non-divergent: a reduction step that breaks validity is simply rejected.
pub fn check(case: &Case) -> Vec<Divergence> {
    if datalog_ast::validate(&case.program).is_err() {
        return Vec::new();
    }
    match case.family {
        Family::Engines => check_engines(case),
        Family::Optimization => check_optimization(case),
        Family::Incremental => check_incremental(case),
        Family::ViewQuery => check_view_query(case),
        Family::ConcurrentService => check_concurrent_service(case),
        Family::Metamorphic => check_metamorphic(case),
    }
}

/// Evaluation work of the sequential reference fixpoint for `case` — the
/// same evaluator every oracle compares against. Folded across a fuzzing
/// run this surfaces the storage layer's allocation behaviour
/// (`tuples_allocated`, `arena_bytes`) in the fuzz report.
pub fn reference_stats(case: &Case) -> Stats {
    evaluate(&case.program, &case.db)
        .map(|(_, stats)| stats)
        .unwrap_or_default()
}

/// The reference fixpoint of a positive program.
fn fixpoint(program: &Program, db: &Database) -> Database {
    evaluate(program, db)
        .expect("a positive program is stratifiable")
        .0
}

/// Render a compact sample of the symmetric difference between two
/// databases, capped so reducer-sized repros stay readable.
fn diff_sample(expected: &Database, got: &Database) -> String {
    let cap = 4;
    let missing: Vec<String> = expected
        .iter()
        .filter(|a| !got.contains(a))
        .take(cap)
        .map(|a| a.to_string())
        .collect();
    let extra: Vec<String> = got
        .iter()
        .filter(|a| !expected.contains(a))
        .take(cap)
        .map(|a| a.to_string())
        .collect();
    format!(
        "missing [{}] extra [{}] (expected {} atoms, got {})",
        missing.join(", "),
        extra.join(", "),
        expected.len(),
        got.len()
    )
}

/// The reference answer for an adorned query: the full fixpoint filtered by
/// pattern-matching the query atom (consistently binding repeated
/// variables).
pub fn filtered_fixpoint(full: &Database, query: &Atom) -> Database {
    let mut out = Database::new();
    for tuple in full.relation(query.pred) {
        let g = GroundAtom {
            pred: query.pred,
            tuple: tuple.into(),
        };
        if match_atom(query, &g).is_some() {
            out.insert(g);
        }
    }
    out
}

fn check_engines(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let program = &case.program;
    let db = &case.db;
    let Ok((reference, kernel)) = evaluate(program, db) else {
        return out; // not stratifiable — nothing to compare
    };
    // The naive reference evaluates every case, positive or stratified; a
    // second kernel run double-checks that the kernel is deterministic.
    let engines = [
        ("naive", Ok(naive::evaluate_with_stats(program, db))),
        ("kernel-rerun", evaluate(program, db)),
    ];
    for (name, got) in engines {
        let message = match got {
            Ok((got, _)) if got == reference => continue,
            Ok((got, _)) => format!(
                "{name} disagrees with the reference: {}",
                diff_sample(&reference, &got)
            ),
            Err(e) => format!("{name} errored: {e}"),
        };
        out.push(Divergence {
            family: Family::Engines,
            kind: format!("engine:{name}"),
            message,
        });
    }

    // Each atom the fixpoint adds to the input is derived once.
    let added = (reference.len() - db.len()) as u64;
    if kernel.derivations != added {
        out.push(Divergence {
            family: Family::Engines,
            kind: "engine:derivations".into(),
            message: format!(
                "the kernel counted {} derivations; the fixpoint adds {added} atoms",
                kernel.derivations
            ),
        });
    }

    // Semi-naive evaluation finds each body match once: a literal ahead of
    // the delta literal reads only old rows, and a twin literal folds into
    // its first copy. Each match the kernel counts is then a distinct match
    // over the fixpoint — a negated literal reads a stratum below, complete
    // when it is read — so there are no more of them than one naive pass
    // over the fixpoint, stratum by stratum, enumerates.
    let every = naive::evaluate_with_stats(program, &reference).1.matches;
    if kernel.matches > every {
        out.push(Divergence {
            family: Family::Engines,
            kind: "engine:exactly-once".into(),
            message: format!(
                "the kernel counted {} matches; the fixpoint has {every}",
                kernel.matches
            ),
        });
    }

    // Proofs and magic sets are for positive programs only.
    if !program.is_positive() {
        return out;
    }

    // The derivation recorder: whatever first justification a round kept,
    // the proof built from it must hold up under the independent checker.
    let mut traced = Traced::new(program, db.clone());
    let step = reference.len().div_ceil(8).max(1);
    for atom in reference.iter().step_by(step) {
        let verdict = match traced.explain(&atom) {
            Some(proof) if proof.conclusion == atom => proof.check(program, db),
            Some(proof) => Err(format!("the proof concludes {}", proof.conclusion)),
            None => Err("in the fixpoint, but no derivation was found".into()),
        };
        if let Err(message) = verdict {
            out.push(Divergence {
                family: Family::Engines,
                kind: "engine:explain".into(),
                message: format!("explain {atom}: {message}"),
            });
        }
    }

    for query in &case.queries {
        let expected = filtered_fixpoint(&reference, query);
        let got = magic::answer(program, db, query);
        if got != expected {
            out.push(Divergence {
                family: Family::Engines,
                kind: "query:magic".into(),
                message: format!(
                    "magic answer for `{query}` disagrees with the filtered fixpoint: {}",
                    diff_sample(&expected, &got)
                ),
            });
        }
    }
    out
}

/// Pattern-filter the `answer_pred` tuples of an evaluated magic program
/// back into the query's own predicate (consistently binding repeated
/// variables), mirroring what [`magic::answer`] serves.
fn magic_answers(full: &Database, answer_pred: Pred, query: &Atom) -> Database {
    let mut out = Database::new();
    for tuple in full.relation(answer_pred) {
        let g = GroundAtom {
            pred: query.pred,
            tuple: tuple.into(),
        };
        if match_atom(query, &g).is_some() {
            out.insert(g);
        }
    }
    out
}

/// The metamorphic chain (ROADMAP item 4): optimizations and query
/// transformations compose, so chaining them must not change any answer.
/// For each query the chain is minimize → magic-sets transform → evaluation
/// (pipelined kernels) of the transformed program → minimize the
/// transformed program again and re-evaluate.
/// Every hop's answer must equal the pattern-filtered fixpoint of the
/// untouched program on the untouched database.
fn check_metamorphic(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let program = &case.program;
    if !program.is_positive() {
        return out;
    }
    let db = &case.db;
    let reference = fixpoint(program, db);
    let diverge = |kind: &str, query: &Atom, expected: &Database, got: &Database| Divergence {
        family: Family::Metamorphic,
        kind: format!("meta:{kind}"),
        message: format!(
            "{kind} answer for `{query}` disagrees with the plain filtered fixpoint: {}",
            diff_sample(expected, got)
        ),
    };

    // Hop 1: minimize the source program (uniform equivalence preserves
    // every fixpoint, so every downstream answer must survive).
    let minimized = match minimize_program(program) {
        Ok((min, _)) => min,
        Err(e) => {
            out.push(Divergence {
                family: Family::Metamorphic,
                kind: "meta:minimize".into(),
                message: format!("minimize_program failed on a valid program: {e}"),
            });
            return out;
        }
    };

    for query in &case.queries {
        let expected = filtered_fixpoint(&reference, query);

        // Hop 2: magic-sets transform of the *minimized* program.
        let magic = magic::magic_template(&minimized, query.pred, &Adornment::of_query(query));
        let mut input = db.clone();
        input.insert(magic.seed_for(query));

        // Hop 3: evaluate the transformed program, exercising the
        // pipelined kernels on the guarded multi-atom magic rules.
        let full = fixpoint(&magic.program, &input);
        let got = magic_answers(&full, magic.answer_pred, query);
        if got != expected {
            out.push(diverge("minimize-magic", query, &expected, &got));
            continue;
        }

        // Hop 4: minimize the magic program itself and evaluate again —
        // the transform's output is an ordinary positive program, so the
        // optimizer must be able to digest its own downstream.
        match minimize_program(&magic.program) {
            Ok((again, _)) => {
                let full = fixpoint(&again, &input);
                let got = magic_answers(&full, magic.answer_pred, query);
                if got != expected {
                    out.push(diverge("minimize-again", query, &expected, &got));
                }
            }
            Err(e) => out.push(Divergence {
                family: Family::Metamorphic,
                kind: "meta:minimize-again".into(),
                message: format!("minimize_program failed on a magic-transformed program: {e}"),
            }),
        }
    }
    out
}

fn check_optimization(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let program = &case.program;
    if !program.is_positive() {
        return out;
    }
    let db = &case.db;
    let reference = fixpoint(program, db);

    let mut candidates: Vec<(String, Program)> = Vec::new();
    match minimize_program(program) {
        Ok((min, _)) => {
            match fig2_unshortened(program) {
                Ok(replayed) if replayed == min => {}
                Ok(replayed) => out.push(Divergence {
                    family: Family::Optimization,
                    kind: "opt:containment-replay".into(),
                    message: format!(
                        "Fig. 2 on the unshortened test ends in a different program:\n{replayed}"
                    ),
                }),
                Err(message) => out.push(Divergence {
                    family: Family::Optimization,
                    kind: "opt:containment".into(),
                    message,
                }),
            }
            candidates.push(("minimized".into(), min));
        }
        Err(e) => out.push(Divergence {
            family: Family::Optimization,
            kind: "opt:error".into(),
            message: format!("minimize_program failed on a valid program: {e}"),
        }),
    }
    if let Err(message) = fig2_evidence(program) {
        out.push(Divergence {
            family: Family::Optimization,
            kind: "opt:fig2-evidence".into(),
            message,
        });
    }
    if let Err(message) = same_width_edits(program) {
        out.push(Divergence {
            family: Family::Optimization,
            kind: "opt:containment-edit".into(),
            message,
        });
    }
    if let Err(message) = lint_applied(program) {
        out.push(Divergence {
            family: Family::Optimization,
            kind: "opt:lint-applied".into(),
            message,
        });
    }
    if let Err(message) = crate::chase::check(program, db) {
        out.push(Divergence {
            family: Family::Optimization,
            kind: "opt:chase".into(),
            message,
        });
    }
    // A random consideration order — the satellite audit: every order must
    // yield a uniformly equivalent (if not syntactically identical) program.
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5bd1_e995);
    let rule_order = permutation(&mut rng, program.len());
    let atom_orders: Vec<Vec<usize>> = program
        .rules
        .iter()
        .map(|r| permutation(&mut rng, r.width()))
        .collect();
    match minimize_program_in_order(program, &rule_order, &atom_orders) {
        Ok((min, _)) => candidates.push(("minimized-in-order".into(), min)),
        Err(e) => out.push(Divergence {
            family: Family::Optimization,
            kind: "opt:error".into(),
            message: format!("minimize_program_in_order failed on a valid program: {e}"),
        }),
    }
    // Redundancy injection is ≡u-preserving by construction; the bloat must
    // not change any fixpoint.
    let (bloated, applied) = datalog_generate::inject(program, 3, case.seed ^ 0xc2b2_ae35);
    if applied > 0 {
        candidates.push(("injected".into(), bloated));
    }

    for (name, candidate) in candidates {
        let got = fixpoint(&candidate, db);
        if got != reference {
            out.push(Divergence {
                family: Family::Optimization,
                kind: format!("opt:{name}"),
                message: format!(
                    "{name} program disagrees with the original on this database: {}",
                    diff_sample(&reference, &got)
                ),
            });
        }
        if name.starts_with("minimized") {
            match uniformly_equivalent(&candidate, program) {
                Ok(true) => {}
                Ok(false) => out.push(Divergence {
                    family: Family::Optimization,
                    kind: format!("opt:{name}-equiv"),
                    message: format!("{name} program is not uniformly equivalent to the original"),
                }),
                Err(e) => out.push(Divergence {
                    family: Family::Optimization,
                    kind: "opt:error".into(),
                    message: format!("≡u check failed: {e}"),
                }),
            }
        }
    }
    out
}

/// Fig. 2 in source order, every §VI test decided by the unshortened test
/// — saturate the frozen body, then look the frozen head up — and checked
/// against what [`Containment`] (stop at the goal, plans compiled once and
/// edited in place) answers for the same test, untraced and traced. `Err`
/// describes the first test they disagree on, or the first piece of evidence
/// that does not hold up; `Ok` is the minimized program, which must be
/// [`minimize_program`]'s.
fn fig2_unshortened(program: &Program) -> Result<Program, String> {
    let mut current = program.clone();
    let mut containment = Containment::new(&current);
    let decide = |shortened: bool, evidence: Result<Witness, Refutation>, r: &Rule, p: &Program| {
        let frozen = freeze_rule(r);
        let full = fixpoint(p, &frozen.body_db);
        let unshortened = full.contains(&frozen.goal);
        let upheld = match &evidence {
            Ok(w) if w.proof.conclusion == frozen.goal => w.proof.check(p, &w.canonical_db),
            Ok(w) => Err(format!("the proof concludes {}", w.proof.conclusion)),
            Err(refutation) if refutation.countermodel == full => Ok(()),
            Err(_) => Err("the countermodel is not the fixpoint".into()),
        };
        if shortened != unshortened || evidence.is_ok() != unshortened {
            Err(format!(
                "Containment says {shortened} (traced: {}), the full fixpoint {unshortened}, for `{r}` against:\n{p}",
                evidence.is_ok()
            ))
        } else if let Err(why) = upheld {
            Err(format!(
                "the evidence for `{r}` does not hold up ({why}) against:\n{p}"
            ))
        } else {
            Ok(unshortened)
        }
    };
    for rule_idx in 0..current.len() {
        let mut pos = 0;
        while pos < current.rules[rule_idx].width() {
            let candidate = current.rules[rule_idx].without_body_atom(pos);
            // Fig. 2 does not test a candidate that strands a head variable.
            if !candidate.is_range_restricted() {
                pos += 1;
                continue;
            }
            let evidence = containment.evidence(&candidate);
            if decide(
                containment.holds(&candidate),
                evidence,
                &candidate,
                &current,
            )? {
                containment.replace(rule_idx, &candidate);
                current.rules[rule_idx] = candidate;
            } else {
                pos += 1;
            }
        }
    }
    let mut pos = 0;
    while pos < current.len() {
        let rule = &current.rules[pos];
        let shortened = containment.holds_without(rule, pos);
        let evidence = containment.evidence_without(rule, pos);
        if decide(shortened, evidence, rule, &current.without_rule(pos))? {
            containment.remove(pos);
            current.rules.remove(pos);
        } else {
            pos += 1;
        }
    }
    Ok(current)
}

/// Fig. 2's evidence, replayed without trusting the run that wrote it:
/// [`minimize_program_with_evidence`] must remove what [`minimize_program`]
/// does, and each removal's witness — a decided atom's as much as a tested
/// one's — must name the frozen body of the shrunken rule (of the deleted
/// rule, for a rule removal) as its `canonical_db`, conclude its frozen
/// head, and pass [`Proof::check`](datalog_engine::Proof::check) against
/// the program as it stood at that step (less the rule under test, for a
/// rule removal). `Ok` is the number of witnesses checked.
pub fn fig2_evidence(program: &Program) -> Result<usize, String> {
    let (min, removal, witnesses) =
        minimize_program_with_evidence(program).map_err(|e| e.to_string())?;
    let untraced = minimize_program(program).map_err(|e| e.to_string())?;
    if (&min, &removal) != (&untraced.0, &untraced.1) {
        return Err(format!(
            "Fig. 2 with evidence ends in\n{min}\nwithout it in\n{}",
            untraced.0
        ));
    }
    if witnesses.len() != removal.len() {
        return Err(format!(
            "{} witnesses for {} removals",
            witnesses.len(),
            removal.len()
        ));
    }
    let upheld = |w: &Witness, r: &Rule, p: &Program| {
        let frozen = freeze_rule(r);
        let named = w.canonical_db == frozen.body_db && w.goal == frozen.goal;
        let concluded = w.proof.conclusion == frozen.goal;
        match (named && concluded).then(|| w.proof.check(p, &w.canonical_db)) {
            Some(Ok(())) => Ok(()),
            Some(Err(why)) => Err(format!("the witness for `{r}` fails ({why}) against:\n{p}")),
            None => Err(format!(
                "the witness for `{r}` is for another test:\n{}",
                w.proof
            )),
        }
    };
    let (atom_witnesses, rule_witnesses) = witnesses.split_at(removal.atoms.len());
    let mut current = program.clone();
    let mut remaining: Vec<Vec<usize>> = (program.rules.iter())
        .map(|r| (0..r.width()).collect())
        .collect();
    for (((rule_idx, _), &orig), w) in (removal.atoms.iter())
        .zip(&removal.atom_positions)
        .zip(atom_witnesses)
    {
        let pos = remaining[*rule_idx].iter().position(|&o| o == orig);
        let pos = pos.ok_or_else(|| format!("atom {orig} of rule {rule_idx} removed twice"))?;
        let candidate = current.rules[*rule_idx].without_body_atom(pos);
        upheld(w, &candidate, &current)?;
        current.rules[*rule_idx] = candidate;
        remaining[*rule_idx].remove(pos);
    }
    let mut live: Vec<usize> = (0..current.len()).collect();
    for (&orig, w) in removal.rule_indices.iter().zip(rule_witnesses) {
        let pos = live.iter().position(|&o| o == orig);
        let pos = pos.ok_or_else(|| format!("rule {orig} removed twice"))?;
        upheld(w, &current.rules[pos], &current.without_rule(pos))?;
        current.rules.remove(pos);
        live.remove(pos);
    }
    Ok(witnesses.len())
}

/// Every `L122`/`L201`/`L202`/`L203` suggestion of the default lint set
/// applied at once, as a user would apply them: a named literal leaves its
/// rule (one occurrence per finding), a flagged rule goes. The result must
/// be valid and ≡u to the original.
fn lint_applied(program: &Program) -> Result<(), String> {
    let report = analyze_program(program, &LintConfig::default());
    let mut rules: Vec<Option<Rule>> = program.rules.iter().cloned().map(Some).collect();
    for d in &report.diagnostics {
        let (Some(i), "L122" | "L201" | "L202" | "L203") = (d.rule_idx, d.code) else {
            continue;
        };
        let Some(rule) = rules[i].as_mut() else {
            continue;
        };
        if matches!(d.code, "L202" | "L203") {
            rules[i] = None;
            continue;
        }
        let literal = d.message.split('`').nth(1).unwrap_or_default();
        let Some(pos) = rule.body.iter().position(|l| l.to_string() == literal) else {
            return Err(format!("{d}\nnames no literal left in `{rule}`"));
        };
        rule.body.remove(pos);
    }
    let applied = Program::new(rules.into_iter().flatten().collect());
    if let Err(errors) = validate(&applied) {
        return Err(format!(
            "every suggestion applied gives an invalid program ({errors:?}):\n{applied}"
        ));
    }
    match uniformly_equivalent(&applied, program) {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!(
            "every suggestion applied gives a program not ≡u to the original:\n{applied}"
        )),
        Err(e) => Err(format!("≡u check failed: {e}")),
    }
}

/// Every rule in turn replaced by an instance of itself — its first two
/// variables unified, so the body is as wide — and then put back: after
/// each edit, every rule of the original program and the instance must
/// test the same against the edited [`Containment`] as against one built
/// from scratch on the edited program. Fig. 2's own edits shrink a rule, so
/// only an edit like this one can meet a compiled script of the rule it
/// replaced under the same order.
fn same_width_edits(program: &Program) -> Result<(), String> {
    let mut containment = Containment::new(program);
    let mut current = program.clone();
    for (i, rule) in program.rules.iter().enumerate() {
        let vars: Vec<Var> = rule.vars().into_iter().collect();
        let [x, y, ..] = vars[..] else {
            continue;
        };
        let instance = Subst::singleton(x, Term::Var(y)).apply_rule(rule);
        for edit in [&instance, rule] {
            containment.replace(i, edit);
            current.rules[i] = edit.clone();
            let scratch = Containment::new(&current);
            for r in program.rules.iter().chain([&instance]) {
                let (edited, fresh) = (containment.holds(r), scratch.holds(r));
                if edited != fresh {
                    return Err(format!(
                        "`{r}`: {edited} after rule {i} was replaced by `{edit}`, {fresh} from scratch, against:\n{current}"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates with the vendored rng.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

fn check_incremental(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let program = &case.program;
    if !program.is_positive() {
        return out;
    }
    let mut m = Materialized::new(program.clone(), &case.db);
    let mut shadow = case.db.clone();

    // Commit 0: initial saturation.
    let scratch = fixpoint(program, &shadow);
    if m.database() != &scratch {
        out.push(Divergence {
            family: Family::Incremental,
            kind: "incr:init".into(),
            message: format!(
                "initial materialization disagrees with from-scratch: {}",
                diff_sample(&scratch, m.database())
            ),
        });
        return out;
    }

    // The case's batches, then a replay: its batches and their inverses in
    // reverse, three times over. A history this long reuses the view's
    // spare head relations and refills its indexes many times, where a
    // case's two to five batches barely do. The replay draws nothing from
    // the case's RNG, so the cases and their other checks are unchanged.
    let replay = (0..3).flat_map(|_| {
        let there = case.mutations.iter().map(|m| (m.is_insert(), m.facts()));
        let back = case.mutations.iter().rev();
        there.chain(back.map(|m| (!m.is_insert(), m.facts())))
    });
    let batches = case.mutations.iter().map(|m| (m.is_insert(), m.facts()));
    let steps = batches.map(|b| ("incr:step", b));
    for (step, (kind, (insert, facts))) in
        steps.chain(replay.map(|b| ("incr:replay", b))).enumerate()
    {
        if insert {
            shadow.extend(facts.iter().cloned());
            m.insert(facts.iter().cloned());
        } else {
            for f in facts {
                shadow.remove(f);
            }
            m.remove(facts.iter().cloned());
        }
        let scratch = fixpoint(program, &shadow);
        if m.database() != &scratch {
            let op = if insert { "insert" } else { "remove" };
            out.push(Divergence {
                family: Family::Incremental,
                kind: kind.into(),
                message: format!(
                    "after {op} batch #{step} the materialization disagrees with \
                     from-scratch: {}",
                    diff_sample(&scratch, m.database())
                ),
            });
            return out; // later steps would only echo the same corruption
        }
    }
    out
}

fn check_view_query(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let program = &case.program;
    if !program.is_positive() {
        return out;
    }
    let diverge = |kind: &str, query: &Atom, expected: &Database, got: &Database| Divergence {
        family: Family::ViewQuery,
        kind: format!("view-query:{kind}"),
        message: format!(
            "{kind} answer for `{query}` disagrees with the filtered from-scratch fixpoint: {}",
            diff_sample(expected, got)
        ),
    };
    // The pair the service keeps per installed program: the view, and the
    // plans its `magic` strategy evaluates from the published base.
    let view = View::new(program.clone(), &case.db);
    let plans = PlanCache::new(Arc::new(program.clone()));
    // Rounds: the initial base, then the base after each mutation batch.
    for round in 0..=case.mutations.len() {
        let published = view.state();
        let reference = fixpoint(program, &published.base);
        if *published.fixpoint != reference {
            out.push(Divergence {
                family: Family::ViewQuery,
                kind: "view-query:snapshot".into(),
                message: format!(
                    "after {round} batches the published snapshot disagrees with the \
                     from-scratch fixpoint of the published base: {}",
                    diff_sample(&reference, &published.fixpoint)
                ),
            });
            return out;
        }
        for query in &case.queries {
            let expected = filtered_fixpoint(&reference, query);
            // What `auto` serves: the published fixpoint's matching rows,
            // in the order the filtered fixpoint iterates.
            let selected = published.fixpoint.select(query);
            if !selected.iter().copied().eq(expected.relation(query.pred)) {
                let got = selected
                    .iter()
                    .map(|row| GroundAtom::new(query.pred, *row))
                    .collect();
                out.push(diverge("select", query, &expected, &got));
            }
            // What `magic` serves: its plan over the published base.
            let (got, _) = plans.answer(&published.base, query);
            if got != expected {
                out.push(diverge("magic", query, &expected, &got));
            }
        }
        match case.mutations.get(round) {
            Some(Mutation::Insert(facts)) => view.insert(facts.clone()),
            Some(Mutation::Remove(facts)) => view.remove(facts.clone()),
            None => break,
        };
    }
    out
}

/// Render facts as a `facts` request field: `"a(1, 2). b(3)."`.
fn facts_field(facts: &[GroundAtom]) -> String {
    facts
        .iter()
        .map(|f| format!("{f}."))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Build one protocol request line.
fn request_line(op: &str, fields: &[(&str, &str)]) -> String {
    let mut pairs = vec![("op".to_string(), datalog_json::Value::from(op))];
    pairs.extend(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), datalog_json::Value::from(*v))),
    );
    datalog_json::Value::Object(pairs).to_compact()
}

/// Race the case's mutation batches through an in-process [`Registry`]
/// (the real service dispatcher) from several client
/// threads, with readers hammering queries throughout. The workload is
/// interleaving-independent by construction — no fact is both inserted and
/// removed — so every schedule must converge to base = initial ∪ inserts ∖
/// removals, and the served snapshot must equal that base's from-scratch
/// fixpoint.
fn check_concurrent_service(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let program = &case.program;
    if !program.is_positive() {
        return out;
    }
    let diverge = |kind: &str, message: String| Divergence {
        family: Family::ConcurrentService,
        kind: format!("service:{kind}"),
        message,
    };
    let registry = Registry::new();
    // Lint gate off: generated programs may trip style lints; this oracle
    // tests serving, not the gate.
    let entry = match registry.install("p", &program.to_string(), true) {
        Ok(entry) => entry,
        Err(e) => {
            out.push(diverge(
                "install",
                format!("install of a valid positive program failed: {e}"),
            ));
            return out;
        }
    };
    // The initial base goes in before the race (it is the "∪ initial" term
    // of the expected final state, not part of the interleaving).
    entry.view.insert(case.db.iter().collect());

    // Serialize each batch as the exact wire request a client would send.
    let lines: Vec<String> = case
        .mutations
        .iter()
        .map(|m| {
            let (op, facts) = match m {
                Mutation::Insert(fs) => ("insert", fs),
                Mutation::Remove(fs) => ("remove", fs),
            };
            request_line(op, &[("program", "p"), ("facts", &facts_field(facts))])
        })
        .collect();
    // Every query under the default strategy (a read of the published
    // view) and under `magic` (evaluated from its base).
    const STRATEGIES: [&str; 2] = ["auto", "magic"];
    let query_line = |q: &Atom, strategy: &str| {
        let fields = [
            ("program", "p"),
            ("atom", &q.to_string()),
            ("strategy", strategy),
        ];
        request_line("query", &fields)
    };
    let query_lines: Vec<String> = case
        .queries
        .iter()
        .flat_map(|q| STRATEGIES.map(|strategy| query_line(q, strategy)))
        .collect();
    // With no writer running, every strategy must serve exactly the
    // filtered from-scratch fixpoint of the published base, in its order.
    let compare_strategies = |base: &Database, out: &mut Vec<Divergence>| {
        let reference = fixpoint(program, base);
        for query in &case.queries {
            let expected: Vec<String> = filtered_fixpoint(&reference, query)
                .iter()
                .map(|g| g.to_string())
                .collect();
            for strategy in STRATEGIES {
                let (resp, _) = registry.handle_line(&query_line(query, strategy));
                let served: Option<Vec<String>> = datalog_json::Value::parse(&resp)
                    .ok()
                    .as_ref()
                    .and_then(|v| v.get("answers")?.as_array())
                    .map(|list| {
                        let strings = list.iter().filter_map(|a| a.as_str());
                        strings.map(str::to_string).collect()
                    });
                if served.as_ref() != Some(&expected) {
                    out.push(diverge(
                        "query",
                        format!(
                            "`{query}` under `{strategy}` served {resp}, \
                             the filtered from-scratch fixpoint is {expected:?}"
                        ),
                    ));
                }
            }
        }
    };
    compare_strategies(&case.db, &mut out);
    if !out.is_empty() {
        return out;
    }

    // Race: 3 writer threads split the batches round-robin; a reader
    // thread cycles the queries. Every response must be ok — collected,
    // not asserted, so a failure reports as a divergence.
    let writers = 3usize.min(lines.len().max(1));
    let failures: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..writers {
            let registry = &registry;
            let lines = &lines;
            let failures = &failures;
            scope.spawn(move || {
                for line in lines.iter().skip(w).step_by(writers) {
                    let (resp, _) = registry.handle_line(line);
                    if !resp.contains("\"ok\":true") {
                        failures.lock().unwrap().push(format!("{line} -> {resp}"));
                    }
                }
            });
        }
        if !query_lines.is_empty() {
            let registry = &registry;
            let query_lines = &query_lines;
            let failures = &failures;
            scope.spawn(move || {
                for _ in 0..8 {
                    for line in query_lines {
                        let (resp, _) = registry.handle_line(line);
                        if !resp.contains("\"ok\":true") {
                            failures.lock().unwrap().push(format!("{line} -> {resp}"));
                        }
                    }
                }
            });
        }
    });
    for failure in failures.into_inner().unwrap().into_iter().take(3) {
        out.push(diverge("request", format!("request failed: {failure}")));
    }
    if !out.is_empty() {
        return out;
    }

    // The interleaving-independent expectation.
    let mut expected_base = case.db.clone();
    for m in &case.mutations {
        if let Mutation::Insert(fs) = m {
            for f in fs {
                expected_base.insert(f.clone());
            }
        }
    }
    for m in &case.mutations {
        if let Mutation::Remove(fs) = m {
            for f in fs {
                expected_base.remove(f);
            }
        }
    }
    let got_base = entry.view.base();
    if got_base != expected_base {
        out.push(diverge(
            "base",
            format!(
                "final base depends on the interleaving: {}",
                diff_sample(&expected_base, &got_base)
            ),
        ));
        return out;
    }
    let expected = fixpoint(program, &expected_base);
    let got = entry.view.snapshot();
    if *got != expected {
        out.push(diverge(
            "final",
            format!(
                "served fixpoint disagrees with from-scratch evaluation of the final base: {}",
                diff_sample(&expected, &got)
            ),
        ));
        return out;
    }
    compare_strategies(&expected_base, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_atom, parse_database, parse_program};

    #[test]
    fn clean_case_has_no_divergence() {
        let case = Case {
            family: Family::Engines,
            seed: 0,
            program: parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap(),
            db: parse_database("a(1,2). a(2,3).").unwrap(),
            queries: vec![parse_atom("g(1, X)").unwrap()],
            mutations: Vec::new(),
        };
        assert_eq!(check(&case), Vec::new());
    }

    #[test]
    fn filtered_fixpoint_respects_repeated_vars() {
        let full = parse_database("g(1,1). g(1,2). g(2,2).").unwrap();
        let q = parse_atom("g(X, X)").unwrap();
        let got = filtered_fixpoint(&full, &q);
        assert_eq!(got, parse_database("g(1,1). g(2,2).").unwrap());
    }

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
    }

    #[test]
    fn broken_candidate_is_reported() {
        // An incremental case whose removal hits a fact with a surviving
        // alternative derivation — must NOT diverge.
        let case = Case {
            family: Family::Incremental,
            seed: 0,
            program: parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap(),
            db: parse_database("a(1,2). a(1,9). a(9,2). a(2,3).").unwrap(),
            queries: Vec::new(),
            mutations: vec![Mutation::Remove(vec![datalog_ast::fact("a", [1, 2])])],
        };
        assert_eq!(check(&case), Vec::new());
    }
}
