//! # datalog-optimizer
//!
//! The primary contribution of Yehoshua Sagiv, *"Optimizing Datalog
//! Programs"* (PODS 1987), implemented in full:
//!
//! | Paper | Module | What it does |
//! |-------|--------|--------------|
//! | §VI, Cor. 2 | [`containment`] | decide `P2 ⊑u P1` by freezing each rule of `P2` and evaluating `P1` over it until the frozen head appears ([`Containment`]) |
//! | §VI | [`freeze`] | canonical databases via the dedicated `Const::Frozen` constant kind |
//! | §VII, Figs. 1–2, Thm. 2 | [`minimize`] | remove redundant atoms then redundant rules, each considered once |
//! | §VIII, Thm. 1 | [`mod@chase`] | the combined `[P, T]` chase with labelled nulls and fuel; `SAT(T) ∩ M(P1) ⊆ M(P2)` |
//! | §IX, Fig. 3 | [`preserve`] | non-recursive preservation of tgds and condition (3′): combination enumeration, then one `[P, T]` chase per combination |
//! | §X–XI | [`equivalence`] | the sound-but-incomplete equivalence optimizer: candidate-tgd heuristics + conditions (1), (2), (3′) |
//! | §V background | [`cq`] | Chandra–Merlin / Sagiv–Yannakakis containment for the non-recursive case |
//!
//! ## The shape of the theory
//!
//! Plain equivalence of Datalog programs is **undecidable**; *uniform*
//! equivalence — agreement on every database, including ones that pre-seed
//! intentional predicates — is **decidable**, and minimization under it is
//! effective (and the only optimization that can be done locally, §I).
//! Atoms redundant under plain equivalence but not under uniform
//! equivalence can still be removed when a set of tuple-generating
//! dependencies certifies them; that machinery is semi-decidable and runs
//! under a deterministic fuel budget, surfacing [`chase::Proof::OutOfFuel`]
//! rather than looping.
//!
//! ## Quick start
//!
//! ```
//! use datalog_ast::parse_program;
//! use datalog_optimizer::{minimize_program, optimize};
//!
//! // Example 7: the atom a(W, Y) is redundant under uniform equivalence.
//! let p = parse_program(
//!     "g(X, Y, Z) :- g(X, W, Z), a(W, Y), a(W, Z), a(Z, Z), a(Z, Y).",
//! ).unwrap();
//! let (minimized, removal) = minimize_program(&p).unwrap();
//! assert_eq!(removal.atoms.len(), 1);
//! assert_eq!(minimized.rules[0].width(), 4);
//!
//! // Example 18: a(Y, W) is redundant only under plain equivalence;
//! // `optimize` chains Fig. 2 with the §X–XI tgd pipeline.
//! let p = parse_program(
//!     "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).",
//! ).unwrap();
//! let (optimized, _, applied) = optimize(&p, 10_000).unwrap();
//! assert_eq!(applied.len(), 1);
//! assert_eq!(optimized.rules[1].width(), 2);
//! ```

#![warn(rust_2018_idioms)]

pub mod chase;
pub mod containment;
pub mod cq;
pub mod equivalence;
pub mod freeze;
pub mod minimize;
pub mod preserve;
pub mod refute;
pub mod slice;
pub mod stratified_ext;
pub mod termination;

pub use chase::{
    chase, models_condition, rule_contained_with_tgds, satisfies_all, satisfies_tgd,
    uniformly_contains_given, ChaseResult, ChaseStatus, Proof,
};
pub use containment::{
    rule_contained, rule_contained_with_evidence, tally, uniformly_contains,
    uniformly_contains_with_evidence, uniformly_equivalent, Containment, ContainmentError,
    ContainmentEvidence, Refutation, Tally, Witness,
};
pub use cq::{cq_contained, equivalent_nonrecursive, homomorphism, minimize_cq, union_contained};
pub use equivalence::{
    candidate_tgds, optimize, optimize_under_equivalence, try_candidate, Candidate, EquivalenceOpt,
};
pub use freeze::{freeze_rule, freezing_subst, FrozenRule};
pub use minimize::{
    is_minimal, minimize_program, minimize_program_in_order, minimize_program_with_evidence,
    minimize_rule, minimized, Removal,
};
pub use preserve::{preliminary_db_satisfies, preserved_after, preserves_nonrecursively};
pub use refute::{analyze_equivalence, find_separating_edb, EquivVerdict, SeparatingEdb};
pub use slice::{relevant_predicates, slice_for_query};
pub use stratified_ext::{minimize_stratified, StratifiedError};
pub use termination::{
    analyze as analyze_termination, fuel_for, is_weakly_acyclic, ChaseTermination, PositionGraph,
};
