//! The per-layer metrics: their names and units, and the serving-side
//! counters read from `Server::stats()`.

use crate::common::Report;
use crate::stats::{median, percentile, Json, Samples};
use crate::trace::{NameTotals, Span};
use dpe_server::{ExecutionMetrics, ServerStats};
use std::collections::BTreeMap;

/// Executor operator kinds, in plan order, as `exec.<kind>_{calls,ms}`.
pub const EXEC_KINDS: [&str; 9] = [
    "scan",
    "filter_range",
    "knn",
    "lof",
    "outliers",
    "cluster_labels",
    "itemsets",
    "limit",
    "project",
];

/// Every end-to-end metric with its unit, in output order. Every workload
/// reports every one of them with tracing off; `main` refuses a run that
/// misses one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("restart_s", "s"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Every per-layer metric with its unit, in output order. A traced run of
/// either workload reports all of them. Counts are per unit of the
/// workload's work and read 0 where the workload does not reach the layer;
/// times are per call, over every traced call of the run, set-up included,
/// so each is measured in both workloads; shares of the timed operations'
/// time are in `%`.
pub const LAYERS: &[(&str, &str)] = &[
    ("core.encrypt_calls", "count"),
    ("core.encrypt_us_per_query", "us"),
    ("distance.calls", "count"),
    ("distance.ns_per_call", "ns"),
    ("distance.self_pct", "%"),
    ("ingest.self_pct", "%"),
    ("ingest.self_us_per_query", "us"),
    ("matrix.bytes", "bytes"),
    ("wal.appends", "count"),
    ("wal.syncs", "count"),
    ("wal.bytes", "bytes"),
    ("wal.append_us_p50", "us"),
    ("wal.sync_us_p50", "us"),
    ("checkpoint.ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("recover.replay_records", "count"),
    ("recover.replay_distance_calls", "count"),
    ("recover.replay_s", "s"),
    ("recover.load_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("plans.builds", "count"),
    ("plans.hits", "count"),
    ("plans.invalidations", "count"),
    ("exec.scan_calls", "count"),
    ("exec.scan_ms", "ms"),
    ("exec.filter_range_calls", "count"),
    ("exec.filter_range_ms", "ms"),
    ("exec.knn_calls", "count"),
    ("exec.knn_ms", "ms"),
    ("exec.lof_calls", "count"),
    ("exec.lof_ms", "ms"),
    ("exec.outliers_calls", "count"),
    ("exec.outliers_ms", "ms"),
    ("exec.cluster_labels_calls", "count"),
    ("exec.cluster_labels_ms", "ms"),
    ("exec.itemsets_calls", "count"),
    ("exec.itemsets_ms", "ms"),
    ("exec.limit_calls", "count"),
    ("exec.limit_ms", "ms"),
    ("exec.project_calls", "count"),
    ("exec.project_ms", "ms"),
    ("exec.rows_scanned", "count"),
    ("exec.distance_cells", "count"),
    ("exec.pruned_cells", "count"),
    ("index.pruned_ratio", "ratio"),
    ("sql.calls", "count"),
    ("sql.lower_us", "us"),
    ("serve.point_p50_us", "us"),
    ("serve.analytic_p50_ms", "ms"),
    ("serve.lock_wait_us_p50", "us"),
    ("serve.lock_wait_us_p99", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Per-call times over every traced span of the run, set-up included:
/// encryption and ingest per query (`queries` per `encrypt_log` and per
/// `ingest` span), distance calls, WAL appends and syncs, checkpoints, SQL
/// lowering and the shard-lock probe.
pub fn per_call(report: &mut Report, by_name: &BTreeMap<&str, NameTotals>, queries: f64) {
    let get = |n: &str| by_name.get(n).cloned().unwrap_or_default();
    let mean = |t: &NameTotals, scale: f64| t.total_ns as f64 / scale / t.count.max(1) as f64;
    let (encrypt, ingest) = (get("encrypt_log"), get("ingest"));
    report.layer("core.encrypt_us_per_query", mean(&encrypt, 1e3) / queries);
    report.layer(
        "ingest.self_us_per_query",
        ingest.self_ns as f64 / 1e3 / ingest.count.max(1) as f64 / queries,
    );
    let (ns, calls) = by_name.values().fold((0, 0), |(ns, calls), t| {
        (ns + t.distance_ns, calls + t.distance_calls)
    });
    report.layer("distance.ns_per_call", ns as f64 / calls.max(1) as f64);
    report.layer("wal.append_us_p50", percentile_us(&get("wal.append"), 50.0));
    report.layer("wal.sync_us_p50", percentile_us(&get("wal.sync"), 50.0));
    report.layer("checkpoint.ms", mean(&get("checkpoint"), 1e6));
    report.layer("sql.lower_us", mean(&get("sql_to_request"), 1e3));
    let lock = get("shard_epoch");
    report.layer("serve.lock_wait_us_p50", percentile_us(&lock, 50.0));
    report.layer("serve.lock_wait_us_p99", percentile_us(&lock, 99.0));
}

fn percentile_us(t: &NameTotals, p: f64) -> f64 {
    let mut v: Vec<f64> = t.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, p).unwrap_or(0.0)
}

/// Median replay and load time of the traced recoveries: replay is the
/// distance time charged to the `recover` span, load is the rest of it
/// (snapshot and WAL reads, matrix extend, index rebuild).
pub fn recover_times(report: &mut Report, spans: &[Span]) {
    let recover: Vec<&Span> = spans.iter().filter(|s| s.name == "recover").collect();
    let replay: Vec<f64> = recover.iter().map(|s| s.distance_ns as f64 / 1e9).collect();
    let load: Vec<f64> = recover
        .iter()
        .map(|s| (s.duration_ns() - s.distance_ns) as f64 / 1e9)
        .collect();
    report.layer("recover.replay_s", median(&replay).unwrap_or(0.0));
    report.layer("recover.load_s", median(&load).unwrap_or(0.0));
}

/// Median latency of the point and of the whole-shard requests served.
pub fn serve_latency(report: &mut Report, point: &Samples, analytic: &Samples) {
    report.layer(
        "serve.point_p50_us",
        point.percentile(50.0).unwrap_or(0.0) * 1e6,
    );
    report.layer(
        "serve.analytic_p50_ms",
        analytic.percentile(50.0).unwrap_or(0.0) * 1e3,
    );
}

/// The unit of per-layer metric `name`.
pub fn unit(name: &str) -> Option<&'static str> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The `exec.<kind>` key of an executor operator name (`"Knn"`,
/// `"Outliers(DB)"`, `"ClusterLabels(DBSCAN)"`, …).
pub fn exec_kind(op: &str) -> Option<&'static str> {
    let base = op.split('(').next().unwrap_or(op);
    Some(match base {
        "Scan" => "scan",
        "FilterRange" => "filter_range",
        "Knn" => "knn",
        "Lof" => "lof",
        "Outliers" => "outliers",
        "ClusterLabels" => "cluster_labels",
        "Itemsets" => "itemsets",
        "Limit" => "limit",
        "Project" => "project",
        _ => return None,
    })
}

/// Serving counters between two `Server::stats()` snapshots.
#[derive(Debug, Default, Clone)]
pub struct Serving {
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub plan_builds: u64,
    pub plan_hits: u64,
    pub plan_invalidations: u64,
    pub rows_scanned: u64,
    pub distance_cells: u64,
    pub pruned_cells: u64,
    /// `(calls, nanos)` per `EXEC_KINDS` entry.
    pub ops: [(u64, u64); 9],
}

impl Serving {
    pub fn between(before: &ServerStats, after: &ServerStats) -> Serving {
        let mut ops = [(0, 0); 9];
        for (sign, exec) in [(1i64, &after.exec), (-1, &before.exec)] {
            add_ops(&mut ops, exec, sign);
        }
        Serving {
            queries: after.queries - before.queries,
            cache_hits: after.cache.hits - before.cache.hits,
            cache_misses: after.cache.misses - before.cache.misses,
            cache_evictions: after.cache.evictions - before.cache.evictions,
            plan_builds: after.plans.builds - before.plans.builds,
            plan_hits: after.plans.hits - before.plans.hits,
            plan_invalidations: after.plans.invalidations - before.plans.invalidations,
            rows_scanned: after.exec.rows_scanned - before.exec.rows_scanned,
            distance_cells: after.exec.distance_cells - before.exec.distance_cells,
            pruned_cells: after.exec.pruned_cells - before.exec.pruned_cells,
            ops,
        }
    }

    fn calls(&self, kind: &str) -> u64 {
        let i = EXEC_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("known kind");
        self.ops[i].0
    }

    /// Fills the cache, plan-cache, executor and index layers. `shard_len`
    /// is the shard size the indexed `Knn`/`FilterRange` ops ran over.
    pub fn fill(&self, report: &mut Report, shard_len: f64) {
        let per = |v: u64| v as f64;
        report.layer("cache.hits", per(self.cache_hits));
        report.layer("cache.misses", per(self.cache_misses));
        report.layer("cache.evictions", per(self.cache_evictions));
        let lookups = self.cache_hits + self.cache_misses;
        report.layer(
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.cache_hits as f64 / lookups as f64
            },
        );
        report.layer("plans.builds", per(self.plan_builds));
        report.layer("plans.hits", per(self.plan_hits));
        report.layer("plans.invalidations", per(self.plan_invalidations));
        for (i, kind) in EXEC_KINDS.iter().enumerate() {
            let (calls, nanos) = self.ops[i];
            report.layer(static_name(format!("exec.{kind}_calls")), per(calls));
            report.layer(static_name(format!("exec.{kind}_ms")), nanos as f64 / 1e6);
        }
        report.layer("exec.rows_scanned", per(self.rows_scanned));
        report.layer("exec.distance_cells", per(self.distance_cells));
        report.layer("exec.pruned_cells", per(self.pruned_cells));
        let indexed = (self.calls("knn") + self.calls("filter_range")) as f64 * shard_len;
        report.layer(
            "index.pruned_ratio",
            if indexed > 0.0 {
                self.pruned_cells as f64 / indexed
            } else {
                0.0
            },
        );
    }

    /// The exact counts, for the run's detail record.
    pub fn counts(&self) -> Json {
        let mut j = Json::new()
            .int("queries", self.queries)
            .int("cache.hits", self.cache_hits)
            .int("cache.misses", self.cache_misses)
            .int("cache.evictions", self.cache_evictions)
            .int("plans.builds", self.plan_builds)
            .int("plans.hits", self.plan_hits)
            .int("plans.invalidations", self.plan_invalidations)
            .int("exec.rows_scanned", self.rows_scanned)
            .int("exec.distance_cells", self.distance_cells)
            .int("exec.pruned_cells", self.pruned_cells);
        for (i, kind) in EXEC_KINDS.iter().enumerate() {
            j = j.int(&format!("exec.{kind}_calls"), self.ops[i].0);
        }
        j
    }
}

fn add_ops(ops: &mut [(u64, u64); 9], exec: &ExecutionMetrics, sign: i64) {
    for m in &exec.ops {
        let Some(kind) = exec_kind(m.op) else {
            continue;
        };
        let i = EXEC_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("known kind");
        ops[i].0 = ops[i].0.wrapping_add_signed(sign * m.invocations as i64);
        ops[i].1 = ops[i].1.wrapping_add_signed(sign * m.nanos as i64);
    }
}

/// The `&'static` spelling of a metric name listed in [`LAYERS`].
fn static_name(s: String) -> &'static str {
    LAYERS
        .iter()
        .find(|(n, _)| *n == s)
        .map(|(n, _)| *n)
        .expect("exec metric listed in LAYERS")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_metric_name, valid_unit};

    #[test]
    fn layer_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in LAYERS {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for kind in EXEC_KINDS {
            assert!(unit(&format!("exec.{kind}_calls")).is_some());
            assert!(unit(&format!("exec.{kind}_ms")).is_some());
        }
    }

    #[test]
    fn end_to_end_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(LAYERS) {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    /// The entries of BENCHMARK.json's list `key`, as written there.
    fn listed(key: &str) -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let from = json.find(&format!("\"{key}\"")).expect("listed key");
        let list = &json[from..];
        list[..list.find(']').expect("list end")].to_string()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", LAYERS)] {
            let list = listed(key);
            for (name, unit) in metrics {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
                assert!(list.contains(&entry), "{key}: {name} ({unit}) missing");
            }
            assert_eq!(list.matches("\"name\"").count(), metrics.len(), "{key}");
        }
    }

    #[test]
    fn executor_op_names_map_to_kinds() {
        assert_eq!(exec_kind("Outliers(LOF)"), Some("outliers"));
        assert_eq!(
            exec_kind("ClusterLabels(Hierarchical)"),
            Some("cluster_labels")
        );
        assert_eq!(exec_kind("FilterRange"), Some("filter_range"));
        assert_eq!(exec_kind("Mystery"), None);
    }
}
