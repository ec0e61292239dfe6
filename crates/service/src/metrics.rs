//! Observability counters: request counts, latency, and aggregated
//! evaluation work ([`datalog_engine::Stats`]) — the service-side face of
//! the paper's §I claim that minimization "reduces the number of joins done
//! during the evaluation". The `stats` protocol request exposes these per
//! program and server-wide, so the join savings of optimize-on-install are
//! visible in production counters, not just in benchmarks.

use datalog_engine::Stats;
use datalog_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Thread-safe counter set; one per installed program plus one server-wide.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Requests handled, keyed by op name.
    requests: BTreeMap<String, u64>,
    /// Requests that produced an `"ok": false` response.
    errors: u64,
    latency_total_micros: u64,
    latency_max_micros: u64,
    /// Evaluation work aggregated over every install/insert/remove batch.
    eval: Stats,
    atoms_added: u64,
    atoms_removed: u64,
}

impl Metrics {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one handled request and its end-to-end latency.
    pub fn record_request(&self, op: &str, ok: bool, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let mut inner = self.lock();
        *inner.requests.entry(op.to_string()).or_insert(0) += 1;
        if !ok {
            inner.errors += 1;
        }
        inner.latency_total_micros += micros;
        inner.latency_max_micros = inner.latency_max_micros.max(micros);
    }

    /// Fold in the engine work counters of one evaluation batch.
    pub fn record_eval(&self, stats: Stats) {
        self.lock().eval += stats;
    }

    /// Record the net atom churn of one mutation batch.
    pub fn record_mutation(&self, added: u64, removed: u64) {
        let mut inner = self.lock();
        inner.atoms_added += added;
        inner.atoms_removed += removed;
    }

    /// Total requests handled (all ops).
    pub fn total_requests(&self) -> u64 {
        self.lock().requests.values().sum()
    }

    /// Serialize for the `stats` protocol response.
    pub fn to_json(&self) -> Value {
        let inner = self.lock();
        let total: u64 = inner.requests.values().sum();
        let mean = inner.latency_total_micros.checked_div(total).unwrap_or(0);
        Value::object([
            (
                "requests",
                Value::Object(
                    inner
                        .requests
                        .iter()
                        .map(|(op, n)| (op.clone(), Value::from(*n)))
                        .collect(),
                ),
            ),
            ("requests_total", Value::from(total)),
            ("errors", Value::from(inner.errors)),
            (
                "latency",
                Value::object([
                    ("total_micros", Value::from(inner.latency_total_micros)),
                    ("mean_micros", Value::from(mean)),
                    ("max_micros", Value::from(inner.latency_max_micros)),
                ]),
            ),
            (
                "eval",
                Value::object([
                    ("iterations", Value::from(inner.eval.iterations)),
                    ("probes", Value::from(inner.eval.probes)),
                    ("matches", Value::from(inner.eval.matches)),
                    ("derivations", Value::from(inner.eval.derivations)),
                    ("index_builds", Value::from(inner.eval.index_builds)),
                    ("index_appends", Value::from(inner.eval.index_appends)),
                    (
                        "specialized_tasks",
                        Value::from(inner.eval.specialized_tasks),
                    ),
                    ("batch_probe_rows", Value::from(inner.eval.batch_probe_rows)),
                    ("pipelined_tasks", Value::from(inner.eval.pipelined_tasks)),
                    ("simd_hash_blocks", Value::from(inner.eval.simd_hash_blocks)),
                    (
                        "dict_filtered_probes",
                        Value::from(inner.eval.dict_filtered_probes),
                    ),
                    ("tuples_allocated", Value::from(inner.eval.tuples_allocated)),
                    ("arena_bytes", Value::from(inner.eval.arena_bytes)),
                ]),
            ),
            ("atoms_added", Value::from(inner.atoms_added)),
            ("atoms_removed", Value::from(inner.atoms_removed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate() {
        let m = Metrics::default();
        m.record_request("query", true, Duration::from_micros(100));
        m.record_request("query", true, Duration::from_micros(300));
        m.record_request("insert", false, Duration::from_micros(50));
        m.record_eval(Stats {
            iterations: 2,
            probes: 10,
            matches: 5,
            derivations: 3,
            index_builds: 4,
            index_appends: 9,
            specialized_tasks: 5,
            batch_probe_rows: 40,
            pipelined_tasks: 3,
            simd_hash_blocks: 13,
            dict_filtered_probes: 7,
            tuples_allocated: 12,
            arena_bytes: 192,
            ..Stats::default()
        });
        m.record_mutation(4, 1);

        assert_eq!(m.total_requests(), 3);
        let j = m.to_json();
        assert_eq!(
            j.get("requests").unwrap().get("query").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(j.get("errors").unwrap().as_u64(), Some(1));
        let latency = j.get("latency").unwrap();
        assert_eq!(latency.get("total_micros").unwrap().as_u64(), Some(450));
        assert_eq!(latency.get("mean_micros").unwrap().as_u64(), Some(150));
        assert_eq!(latency.get("max_micros").unwrap().as_u64(), Some(300));
        let eval = j.get("eval").unwrap();
        assert_eq!(eval.get("probes").unwrap().as_u64(), Some(10));
        assert_eq!(eval.get("index_builds").unwrap().as_u64(), Some(4));
        assert_eq!(eval.get("index_appends").unwrap().as_u64(), Some(9));
        for removed in ["parallel_tasks", "batch_reuse_hits"] {
            assert!(eval.get(removed).is_none(), "{removed}: off the wire");
        }
        assert_eq!(eval.get("specialized_tasks").unwrap().as_u64(), Some(5));
        assert_eq!(eval.get("batch_probe_rows").unwrap().as_u64(), Some(40));
        assert_eq!(eval.get("pipelined_tasks").unwrap().as_u64(), Some(3));
        assert_eq!(eval.get("simd_hash_blocks").unwrap().as_u64(), Some(13));
        assert_eq!(eval.get("dict_filtered_probes").unwrap().as_u64(), Some(7));
        assert_eq!(eval.get("tuples_allocated").unwrap().as_u64(), Some(12));
        assert_eq!(eval.get("arena_bytes").unwrap().as_u64(), Some(192));
        assert_eq!(j.get("atoms_added").unwrap().as_u64(), Some(4));
    }
}
