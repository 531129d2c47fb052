//! What a workload run returns, and the declared metric lists the final
//! JSON line is checked against (they mirror `BENCHMARK.json`).

use std::collections::BTreeMap;
use traj_index::QueryStats;

/// One declared metric: name, unit, and which direction is better.
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// End-to-end metrics, reported by every workload with tracing off. See
/// `METRICS.md` for what each means on each workload.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", "lower"),
    d("build_s", "s", "lower"),
    d("query_p50_ms", "ms", "lower"),
    d("op_tail_ms", "ms", "lower"),
    d("query_per_s", "1/s", "higher"),
    d("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by every workload from the traced run
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[Decl] = &[
    d("dist.edwp.calls_per_query", "count", "lower"),
    d("dist.edwp.ns_per_call", "ns", "lower"),
    d("dist.boxes.bound_evals_per_query", "count", "lower"),
    d("dist.boxes.box_bound_ns_per_call", "ns", "lower"),
    d("dist.boxes.traj_bound_ns_per_call", "ns", "lower"),
    d("dist.boxes.sub_bound_ns_per_call", "ns", "lower"),
    d("dist.boxes.prescreen_per_query", "count", "higher"),
    d("dist.boxes.prescreen_ns_per_call", "ns", "lower"),
    d("index.engine.nodes_visited_per_query", "count", "lower"),
    d("index.engine.bound_pruned_per_query", "count", "higher"),
    d("index.engine.pruned_frac", "ratio", "higher"),
    d("index.engine.useful_frac", "ratio", "higher"),
    d("index.engine.kernel_share", "ratio", "higher"),
    d("index.cache.bound_evals_saved_frac", "ratio", "higher"),
    d("index.tree.bulk_load_ms", "ms", "lower"),
    d("index.tree.height", "count", "lower"),
    d("index.tree.node_count", "count", "lower"),
    d("index.shard.folds", "count", "lower"),
    d("index.shard.fold_ms.p50", "ms", "lower"),
    d("index.shard.fold_ms.p99", "ms", "lower"),
    d("index.shard.delta_occupancy_mean", "count", "lower"),
    d("index.session.snapshot_ms.p50", "ms", "lower"),
    d("index.session.snapshot_ms.p99", "ms", "lower"),
    d("persist.wal.append_us.p50", "us", "lower"),
    d("persist.wal.append_us.p99", "us", "lower"),
    d("persist.wal.sync_us.p50", "us", "lower"),
    d("persist.wal.sync_us.p99", "us", "lower"),
    d("persist.wal.fsyncs_per_record", "ratio", "lower"),
    d("persist.wal.bytes_per_user_byte", "ratio", "lower"),
    d("persist.engine.compactions", "count", "lower"),
    d("persist.engine.compact_ms.max", "ms", "lower"),
    d("persist.snapshot.load_ms", "ms", "lower"),
    d("persist.wal.replay_ms", "ms", "lower"),
    d("load.writer_lag_ms.max", "ms", "lower"),
    d("load.reader_queries", "count", "higher"),
    d("trace.overhead_p50_ms", "ms", "lower"),
];

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, timed and checking alike.
    pub attempted: u64,
    /// Operations that returned `Err` or a wrong answer.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// End-to-end values (declared names and the workload's own names).
    pub e2e: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer values by declared name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Run facts printed with the result.
    pub meta: Vec<(&'static str, String)>,
    /// CPU time one traced query occupied (latency × workers it ran on),
    /// the base of `index.engine.kernel_share`.
    pub query_cpu_ms: f64,
}

impl Outcome {
    /// Counts one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, (value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "undeclared per-layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// Records the engine's own work counters of the traced queries.
    /// `answers` is how many neighbours those queries returned.
    pub fn query_counters(&mut self, stats: &QueryStats, answers: usize) {
        let q = stats.queries.max(1) as f64;
        self.layer(
            "dist.edwp.calls_per_query",
            stats.edwp_evaluations as f64 / q,
        );
        self.layer(
            "dist.boxes.bound_evals_per_query",
            stats.bound_evaluations as f64 / q,
        );
        self.layer(
            "dist.boxes.prescreen_per_query",
            stats.aabb_prescreened as f64 / q,
        );
        self.layer(
            "index.engine.nodes_visited_per_query",
            stats.nodes_visited as f64 / q,
        );
        self.layer(
            "index.engine.bound_pruned_per_query",
            stats.bound_pruned as f64 / q,
        );
        self.layer("index.engine.pruned_frac", stats.pruning_ratio());
        self.layer(
            "index.engine.useful_frac",
            answers as f64 / stats.edwp_evaluations.max(1) as f64,
        );
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats a float as JSON: every digit Rust keeps for a round trip.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// declared metrics of the run's kind. Errors when the workload did not
/// produce a declared end-to-end metric.
pub fn result_line(out: &Outcome, traced: bool) -> Result<String, String> {
    let mut parts = Vec::new();
    if traced {
        for m in PER_LAYER {
            let v = out.layer.get(m.name).copied().unwrap_or(0.0);
            parts.push(metric_json(m, v));
        }
    } else {
        for m in END_TO_END {
            let (v, unit) = out
                .e2e
                .get(m.name)
                .copied()
                .ok_or_else(|| format!("workload did not report {}", m.name))?;
            debug_assert_eq!(unit, m.unit);
            parts.push(metric_json(m, v));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        parts.join(", ")
    ))
}

fn metric_json(m: &Decl, v: f64) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name,
        num(v),
        m.unit
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared lists must match `BENCHMARK.json` entry for entry.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
