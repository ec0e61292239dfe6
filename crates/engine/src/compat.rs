//! Names kept only for the repo benchmark (`benchmark/src/layers.rs`),
//! which a change to the program may not edit, until the benchmark-only
//! change of ROADMAP.md item 2 moves it to [`crate::evaluate`],
//! [`crate::PlanCache`] and [`crate::Materialized`] and deletes this
//! module. Each is re-exported where `layers.rs` imports it, ignores the
//! option it was once for, and runs the one path the rest of the tree
//! calls: every `EvalOptions` evaluates on the kernel, every shard count
//! builds one view, and both query strategies plan magic sets.

use crate::magic::{magic_template, Adornment, MagicTemplate};
use crate::{Materialized, Stats};
use datalog_ast::{Atom, Database, Program};
use std::sync::Arc;

/// What evaluation once took options for; every value evaluates alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalOptions;

impl EvalOptions {
    pub fn sequential() -> EvalOptions {
        EvalOptions
    }

    pub fn interpreted() -> EvalOptions {
        EvalOptions
    }

    pub fn with_threads(_: usize) -> EvalOptions {
        EvalOptions
    }
}

pub mod seminaive {
    use super::EvalOptions;
    use crate::Stats;
    use datalog_ast::{Database, Program};

    pub fn evaluate(program: &Program, input: &Database) -> Database {
        evaluate_with_opts(program, input, EvalOptions).0
    }

    pub fn evaluate_with_opts(
        program: &Program,
        input: &Database,
        _: EvalOptions,
    ) -> (Database, Stats) {
        crate::evaluate(program, input).expect("a stratifiable program")
    }
}

pub mod stratified {
    use super::EvalOptions;
    use crate::{EvalError, Stats};
    use datalog_ast::{Database, Program};

    pub fn evaluate_with_opts(
        program: &Program,
        input: &Database,
        _: EvalOptions,
    ) -> Result<(Database, Stats), EvalError> {
        crate::evaluate(program, input)
    }
}

/// One [`Materialized`]: `new` ignores the shard count.
pub struct ShardedMaterialized(Materialized);

impl ShardedMaterialized {
    pub fn new(program: Program, input: &Database, _shards: usize) -> ShardedMaterialized {
        ShardedMaterialized(Materialized::new(program, input))
    }
}

impl std::ops::Deref for ShardedMaterialized {
    type Target = Materialized;
    fn deref(&self) -> &Materialized {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedMaterialized {
    fn deref_mut(&mut self) -> &mut Materialized {
        &mut self.0
    }
}

/// Both variants plan and answer magic sets.
#[derive(Clone, Copy, Debug)]
pub enum Strategy {
    Magic,
    Qsq,
}

pub struct QueryPlan(MagicTemplate);

impl QueryPlan {
    pub fn for_query(program: Arc<Program>, query: &Atom, _: Strategy) -> QueryPlan {
        QueryPlan(magic_template(
            &program,
            query.pred,
            &Adornment::of_query(query),
        ))
    }

    pub fn answer(&self, base: &Database, query: &Atom) -> (Database, Stats) {
        self.0.answer(base, query)
    }
}
