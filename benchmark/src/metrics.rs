//! Names of the metrics as `BENCHMARK.json` lists them, and that file's
//! bounds. `BENCHMARK.json` is what the driver reads; the lists here are
//! what the two run modes must produce, and a test holds the two together.

use crate::json::Json;
use crate::proc::repo_root;

pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` without `--seconds`.
pub const SMOKE_SECONDS: f64 = 2.0;

/// The end-to-end metrics, tracing off: every workload reports every one.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "optimize_wall_ms",
    "eval_raw_wall_ms",
    "eval_opt_wall_ms",
    "peak_rss_mb",
    "ops_per_s",
    "insert_p50_ms",
    "remove_p50_ms",
    "query_first_p50_ms",
    "query_repeat_p50_ms",
];

/// The per-layer metrics, tracing on.
pub const PER_LAYER: [&str; 65] = [
    "ast.parse_program_ms",
    "ast.parse_facts_ms",
    "ast.parse_facts_per_s",
    "ast.validate_ms",
    "ast.load_ms",
    "ast.load_facts_per_s",
    "ast.db_bytes_per_fact",
    "ast.print_ms",
    "analysis.lint_ms",
    "core.minimize_ms",
    "core.equiv_ms",
    "core.containment_ms_per_test",
    "core.atoms_removed",
    "core.rules_removed",
    "core.tgds_applied",
    "core.planted_recovered_share",
    "engine.fixpoint_raw_ms",
    "engine.fixpoint_opt_ms",
    "engine.rounds",
    "engine.probes",
    "engine.matches",
    "engine.derivations",
    "engine.duplicate_share",
    "engine.probes_per_new_atom",
    "engine.index_builds",
    "engine.specialized_tasks",
    "engine.pipelined_task_share",
    "engine.batch_reuse_hits",
    "engine.arena_bytes",
    "engine.threads2_speedup",
    "engine.kernels_vs_interpreter",
    "engine.context_new_ms_per_call",
    "engine.insert_ms_p50",
    "engine.remove_ms_p50",
    "engine.insert_vs_recompute",
    "engine.remove_vs_recompute",
    "engine.sharded2_vs_unsharded",
    "engine.plan_ms",
    "engine.answer_magic_ms_p50",
    "engine.answer_qsq_ms_p50",
    "engine.answer_vs_fixpoint",
    "engine.answer_vs_scan",
    "service.handle_insert_ms_p50",
    "service.handle_remove_ms_p50",
    "service.handle_query_first_ms_p50",
    "service.handle_query_repeat_ms_p50",
    "service.view_insert_ms_p50",
    "service.publish_ms_p50",
    "service.cache_hit_share",
    "service.cache_subsumed_share",
    "service.cache_miss_share",
    "service.cache_invalidated_per_write",
    "service.wire_overhead_ms_p50",
    "json.parse_ms_per_mb",
    "json.serialize_ms_per_mb",
    "cli.process_overhead_ms",
    "trace.overhead_share",
    "share.ast",
    "share.analysis",
    "share.core",
    "share.engine",
    "share.service",
    "share.json",
    "share.cli",
    "share.bench",
];

/// One end-to-end metric's regression rule.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

/// The checkout's `BENCHMARK.json`.
pub fn benchmark_json() -> Result<Json, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// The end-to-end metrics' bounds as `BENCHMARK.json` records them.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(benchmark: &Json, key: &str) -> Vec<String> {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        let benchmark = benchmark_json().unwrap();
        assert_eq!(names(&benchmark, "end_to_end"), END_TO_END);
        assert_eq!(names(&benchmark, "per_layer"), PER_LAYER);
        assert_eq!(names(&benchmark, "workloads"), crate::apps::WORKLOADS);
        assert_eq!(
            benchmark.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let bounds = bounds(&benchmark).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(setup.lower_is_better);
    }
}
