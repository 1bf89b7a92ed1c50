//! The metric names the benchmark reports, and the result line.

use std::fmt::Write as _;

use crate::common::Metrics;
use crate::Outcome;

/// End-to-end metrics, reported by every workload with tracing off. Each
/// is `(name, unit)`; `peak_rss_mb` is added by the wrapper script, which
/// reads the peak resident set of this process when it exits.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("bytes_per_record", "B"),
];

const SESSION_CALLS: [&str; 4] = ["get", "put", "delete", "index_scan"];
const JOB_CALLS: [&str; 7] = [
    "plan", "init", "run_wave", "prepare", "decide", "commit", "finalize",
];
const JOB_PHASES: [&str; 3] = ["initialization", "data_movement", "finalization"];
const LSM_COUNTERS: [&str; 13] = [
    "flush_count",
    "merge_count",
    "split_count",
    "bytes_flushed",
    "bytes_merged",
    "bytes_merge_read",
    "bytes_query_read",
    "records_written",
    "components_shipped",
    "bytes_rebalance_shipped",
    "bytes_rebalance_loaded",
    "write_amp",
    "query_bytes_per_op",
];

/// Every per-layer metric name, reported by every workload in the traced
/// run (0 where a workload does not reach the layer).
pub fn per_layer_names() -> Vec<String> {
    let mut v = Vec::new();
    for c in SESSION_CALLS {
        for s in ["calls", "total_ms", "p50_us", "p99_us"] {
            v.push(format!("session.{c}.{s}"));
        }
    }
    for c in [
        "redirects",
        "delta_refreshes",
        "full_refreshes",
        "pushed_refreshes",
        "retries",
        "redirects_per_kreq",
    ] {
        v.push(format!("session.{c}"));
    }
    for c in LSM_COUNTERS {
        v.push(format!("lsm.{c}"));
    }
    for c in JOB_CALLS {
        v.push(format!("job.{c}.calls"));
        v.push(format!("job.{c}.total_ms"));
    }
    v.push("job.run_wave.p50_us".into());
    v.push("job.run_wave.p99_us".into());
    for c in [
        "waves",
        "buckets_moved",
        "records_moved",
        "bytes_moved",
        "writes_replicated",
        "wall_per_sim",
    ] {
        v.push(format!("job.{c}"));
    }
    for p in JOB_PHASES {
        v.push(format!("job.{p}.sim_ms"));
    }
    for c in ["add_node", "decommission_node"] {
        v.push(format!("cluster.{c}.calls"));
        v.push(format!("cluster.{c}.total_ms"));
    }
    for s in ["calls", "total_ms", "p50_us", "p99_us"] {
        v.push(format!("control.tick.{s}"));
    }
    for c in [
        "triggers",
        "committed_jobs",
        "hot_splits",
        "suppressed",
        "warmed_records",
        "commits_per_trigger",
    ] {
        v.push(format!("control.{c}"));
    }
    for q in 1..=22 {
        v.push(format!("query.q{q:02}.p50_ms"));
    }
    v.push("query.wall_per_sim".into());
    v.push("tpch.load.total_ms".into());
    for layer in ["session", "job", "cluster", "control", "query", "driver"] {
        v.push(format!("{layer}.self_ms"));
    }
    for c in [
        "driver.check_ms",
        "driver.idle_ms",
        "driver.late_p99_ms",
        "driver.late_max_ms",
        "trace.overhead_pct",
        "trace.accounted_pct",
    ] {
        v.push(c.into());
    }
    for k in ["read", "write", "scan"] {
        v.push(format!("workload.{k}.p50_us"));
        v.push(format!("workload.{k}.p99_us"));
    }
    for c in [
        "rebalance_s",
        "rebalance_sim_s",
        "moved_fraction",
        "query_set_s",
        "bytes_per_record_end",
    ] {
        v.push(format!("workload.{c}"));
    }
    v
}

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    let tail = name.rsplit('.').next().unwrap_or(name);
    if tail.ends_with("_ms") {
        "ms"
    } else if tail.ends_with("_us") {
        "us"
    } else if tail.ends_with("_pct") {
        "%"
    } else if tail.ends_with("_s") {
        "s"
    } else if tail.starts_with("bytes") || tail == "query_bytes_per_op" {
        "B"
    } else if tail == "redirects_per_kreq" {
        "1/kreq"
    } else if tail.contains("per") || tail == "write_amp" || tail == "moved_fraction" {
        "ratio"
    } else {
        "count"
    }
}

/// Formats the result line: the selected metrics (every name in `names`,
/// 0 for one a workload left unset) and the op tallies.
pub fn result_line(out: &Outcome, names: &[String]) -> String {
    let mut metrics = Metrics::default();
    for n in names {
        let (v, unit) = out.metrics.0.get(n).copied().unwrap_or((0.0, unit_of(n)));
        metrics.set(n.clone(), v, unit);
    }
    let mut s = String::new();
    let attempted = out.tally.attempted();
    let failed = out.tally.failed();
    let correct = failed == 0 && attempted > 0;
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (v, unit))) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
