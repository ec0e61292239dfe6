//! # sagiv-datalog
//!
//! A production-quality Rust reproduction of Yehoshua Sagiv, *"Optimizing
//! Datalog Programs"*, PODS 1987 — the paper that introduced **uniform
//! equivalence** and showed that, unlike plain equivalence (undecidable),
//! minimizing a Datalog program under uniform equivalence is decidable and
//! practical.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`ast`] (`datalog-ast`) — programs, rules, atoms, tgds, parser,
//!   validation, dependence-graph analysis;
//! * [`engine`] (`datalog-engine`) — naive and semi-naive bottom-up
//!   evaluation (stratified negation by strata), magic sets;
//! * [`optimizer`] (`datalog-optimizer`) — the paper's algorithms: uniform
//!   containment (§VI), Fig. 1/2 minimization (§VII), the `[P, T]` chase
//!   (§VIII), the Fig. 3 preservation test (§IX), and the §X–XI
//!   equivalence optimizer;
//! * [`generate`] (`datalog-generate`) — synthetic workloads with
//!   ground-truth redundancy;
//! * [`analysis`] (`datalog-analysis`) — structural and semantic lints
//!   with span-aware structured diagnostics (`datalog lint`);
//! * [`oracle`] (`datalog-oracle`) — the differential fuzzing subsystem
//!   behind `datalog fuzz`: engine-matrix, optimization-soundness, and
//!   incremental-consistency oracles plus a delta-debugging case reducer;
//! * [`service`] (`datalog-service`) — the concurrent materialized-view
//!   server behind `datalog serve`: optimize-on-install program registry,
//!   snapshot-isolated reads, line-delimited JSON wire protocol.
//!
//! ## Quick start
//!
//! ```
//! use sagiv_datalog::prelude::*;
//!
//! // Parse a program with a redundant atom (paper Example 7).
//! let program = parse_program(
//!     "g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).",
//! ).unwrap();
//!
//! // Minimize it under uniform equivalence (Fig. 2).
//! let (minimized, removal) = minimize_program(&program).unwrap();
//! assert_eq!(removal.atoms.len(), 1); // a(W, Y) was redundant
//!
//! // Evaluate the minimized program bottom-up.
//! let edb = parse_database("a(1, 1). g(0, 1, 1).").unwrap();
//! let (out, _stats) = evaluate(&minimized, &edb).unwrap();
//! assert!(out.len() >= edb.len());
//! ```

#![warn(rust_2018_idioms)]

pub use datalog_analysis as analysis;
pub use datalog_ast as ast;
pub use datalog_engine as engine;
pub use datalog_generate as generate;
pub use datalog_optimizer as optimizer;
pub use datalog_oracle as oracle;
pub use datalog_service as service;

/// The most frequently used items, in one import.
pub mod prelude {
    pub use datalog_ast::{
        atom, fact, parse_atom, parse_database, parse_program, parse_rule, parse_tgd, parse_tgds,
        parse_unit, validate, validate_positive, Atom, ColType, Const, Database, DepGraph,
        GroundAtom, Literal, Pred, Program, Rule, Schema, SchemaSet, Subst, Term, Tgd, Var,
    };
    pub use datalog_engine::{evaluate, magic, naive, NotStratifiable, Stats};
    pub use datalog_generate::{
        bloated_tc, edge_db, random_db, random_program, random_stratified_program,
        transitive_closure, GraphKind, RandomProgramSpec, TcVariant,
    };
    pub use datalog_optimizer::{
        analyze_equivalence, candidate_tgds, chase, cq_contained, find_separating_edb, is_minimal,
        minimize_program, minimize_rule, minimize_stratified, models_condition, optimize,
        optimize_under_equivalence, preliminary_db_satisfies, preserves_nonrecursively,
        rule_contained, satisfies_tgd, slice_for_query, uniformly_contains, uniformly_equivalent,
        ChaseStatus, EquivVerdict, Proof,
    };
}
