//! # datalog-engine
//!
//! Bottom-up evaluation of Datalog programs — the computational substrate of
//! the `sagiv-datalog` reproduction of *"Optimizing Datalog Programs"*
//! (Sagiv, PODS 1987).
//!
//! * [`naive`] — the paper's §III semantics taken literally: repeat full
//!   rule instantiation until fixpoint (stratum by stratum where a program
//!   negates), the single application `Pⁿ(d)` of §IX
//!   ([`naive::apply_once`]) and tgd satisfaction ([`naive::satisfies`]),
//!   each a nested loop over rows built on `datalog_ast` alone. It is the
//!   one reference every kernel differential and the fuzz oracles compare
//!   the engine against, and it shares no code with the rest of this
//!   crate; nothing else calls it — the optimizer's §IX-§X tests evaluate
//!   `Pⁿ(d)` as a program with renamed heads.
//! * [`schedule`] — [`evaluate`], the one entry point of delta-driven
//!   evaluation: same fixpoint, asymptotically less rediscovery, stratified
//!   negation (the §XII extension). It, or a [`Materialized`] view, runs
//!   every match the optimizer makes: the §VI test, the `[P, T]` chase,
//!   Fig. 3, (3′) and §V's homomorphisms.
//! * [`magic`] — the generalized magic-sets query rewriting the paper cites
//!   as its motivating consumer (§I); [`MagicTemplate::answer`] is the one
//!   top-down query path.
//! * [`query`] — [`PlanCache`], one memoized [`MagicTemplate`] per
//!   `(predicate, adornment)` of a program, for callers that ask many
//!   point queries.
//! * [`plan`] — compiled rule plans ([`RulePlan`]: variables as dense
//!   slots, greedy join orders), which every evaluator but [`naive`] starts
//!   from.
//! * [`context`] — persistent [`EvalContext`]s: per-`(pred, positions)`
//!   indexes maintained incrementally across fixpoint rounds, compiled
//!   join scripts, and rounds that run every task on the calling thread.
//! * [`provenance`] — proof trees read off a traced [`EvalContext`], and
//!   their independent checker.
//! * [`incremental`] — [`Materialized`], the maintained fixpoint: delta
//!   insertion and DRed deletion on one [`EvalContext`] (the substrate of
//!   `datalog-service` views).
//! * [`stats`] — work counters (probes ≈ joins, derivations, rounds,
//!   index builds/appends, kernel tasks) that make the paper's "fewer
//!   joins" claim measurable.

#![warn(rust_2018_idioms)]

#[doc(hidden)]
pub mod compat;
pub mod context;
pub mod incremental;
mod kernels;
pub mod magic;
pub mod naive;
pub mod plan;
pub mod provenance;
pub mod query;
pub mod schedule;
pub mod stats;

#[doc(hidden)]
pub use compat::*;
pub use context::EvalContext;
pub use incremental::Materialized;
pub use magic::{answer, answer_with_stats, magic_template, Adornment, MagicTemplate};
pub use plan::RulePlan;
pub use provenance::{Justification, Proof, Traced};
pub use query::PlanCache;
pub use schedule::{evaluate, EvalError};
pub use stats::Stats;
