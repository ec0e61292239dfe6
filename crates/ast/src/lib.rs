//! # datalog-ast
//!
//! The common data model for the `sagiv-datalog` workspace — a reproduction
//! of Yehoshua Sagiv, *"Optimizing Datalog Programs"*, PODS 1987.
//!
//! This crate provides:
//!
//! * interned [`symbol`]s ([`Pred`], [`Var`]) and compact [`term`]s —
//!   including the algorithm-internal constant kinds [`Const::Frozen`]
//!   (canonical databases, paper §VI) and [`Const::Null`] (labelled nulls
//!   for embedded tgds, §VIII);
//! * [`Atom`]s, [`Literal`]s, [`Rule`]s, [`Program`]s and ground
//!   [`Database`]s (§II–III);
//! * [`Tgd`]s — tuple-generating dependencies (§VIII);
//! * [`Subst`]itutions with matching, unification, and renaming;
//! * a [`parse`]r and `Display`-based pretty-printer for a Prolog-style
//!   concrete syntax; parsed rules carry optional source [`span`]s
//!   (per-rule and per-literal line:col) consumed by `datalog-analysis`
//!   diagnostics — equality and hashing ignore them;
//! * [`mod@validate`]: range restriction, negation safety, arity consistency;
//! * [`schema`]: optional typed relation declarations (`@decl p(int, sym).`);
//! * [`depgraph`]: dependence graph, SCCs, recursion and linearity analysis,
//!   stratification (§III, §XII).
//!
//! Evaluation lives in `datalog-engine`; the paper's optimization algorithms
//! live in `datalog-optimizer`.

#![warn(rust_2018_idioms)]

pub mod atom;
pub mod database;
pub mod depgraph;
pub mod parse;
pub mod program;
pub mod relation;
pub mod rule;
pub mod schema;
pub mod span;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod tgd;
pub mod validate;

pub use atom::{atom, fact, Atom, GroundAtom, Literal, RowDisplay};
pub use database::{Database, RelationRows, Tuple};
pub use depgraph::DepGraph;
pub use parse::{
    parse_atom, parse_database, parse_program, parse_rule, parse_tgd, parse_tgds, parse_unit,
    ParseError, Unit,
};
pub use program::Program;
pub use relation::{
    hash_codes, hash_codes_fold, hash_codes_seed, hash_row, FxConstHasher, FxHashMap, Relation,
    RowHashMap,
};
pub use rule::Rule;
pub use schema::{ColType, Schema, SchemaError, SchemaSet};
pub use span::{RuleSpans, Span};
pub use subst::{match_atom, match_atom_into, rename_apart, unify_atoms, Subst};
pub use symbol::{Pred, Sym, Var};
pub use term::{Const, Term};
pub use tgd::Tgd;
pub use validate::{validate, validate_positive, ValidationError};
