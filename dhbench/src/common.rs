//! What every workload shares: op tallies, the metric map, the LSM counter
//! totals read through `cluster.admin()`, and the storage footprint.

use std::collections::BTreeMap;

use dynahash_cluster::{Cluster, DatasetId, SessionMetrics};
use dynahash_core::PartitionId;
use dynahash_lsm::metrics::MetricsSnapshot;

use crate::clock::{median, quantile, sorted, timed, Clock};

/// Attempted and failed ops per op kind. A failed op is a wrong answer or a
/// refused call; it is never retried.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    kinds: BTreeMap<&'static str, (u64, u64)>,
    /// The first few failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one op of `kind` that succeeded.
    pub fn ok(&mut self, kind: &'static str) {
        self.kinds.entry(kind).or_default().0 += 1;
    }

    /// Counts one op of `kind` that failed.
    pub fn fail(&mut self, kind: &'static str, why: String) {
        let e = self.kinds.entry(kind).or_default();
        e.0 += 1;
        e.1 += 1;
        if self.messages.len() < 20 {
            self.messages.push(format!("{kind}: {why}"));
        }
    }

    /// Counts `kind` as ok or failed by `result`.
    pub fn check(&mut self, kind: &'static str, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(kind),
            Err(why) => self.fail(kind, why),
        }
    }

    /// Ops attempted, all kinds.
    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|k| k.0).sum()
    }

    /// Ops failed, all kinds.
    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|k| k.1).sum()
    }

    /// `(kind, attempted, failed)` for every kind seen.
    pub fn by_kind(&self) -> Vec<(&'static str, u64, u64)> {
        self.kinds.iter().map(|(k, (a, f))| (*k, *a, *f)).collect()
    }
}

/// Runs `setup` `times` times, keeping only the last result, and returns it
/// with the median wall seconds of the runs.
pub fn repeat_setup<S>(
    times: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take()); // free the previous copy before building the next
        let (s, ns) = timed(&mut setup);
        secs.push(ns / 1e9);
        last = Some(s?);
    }
    Ok((last.expect("set up at least once"), median(&secs)))
}

/// Metric name → (value, unit), in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Sets `<prefix>.p50_<unit>` and `<prefix>.p99_<unit>` from samples in
    /// nanoseconds, converted into `unit` (`ms`, `s` or `us`).
    pub fn percentiles(&mut self, prefix: &str, samples_ns: &[f64], unit: &'static str) {
        let s = sorted(samples_ns.to_vec());
        let div = match unit {
            "ms" => 1e6,
            "s" => 1e9,
            _ => 1e3,
        };
        self.set(
            format!("{prefix}.p50_{unit}"),
            quantile(&s, 0.5) / div,
            unit,
        );
        self.set(
            format!("{prefix}.p99_{unit}"),
            quantile(&s, 0.99) / div,
            unit,
        );
    }

    /// Sets `<name>.{calls,total_ms}` (and the percentiles when `pct`) from
    /// the clock's record of one call name.
    pub fn calls(&mut self, clock: &Clock, name: &str, pct: bool) {
        let d = clock.durations(name);
        self.set(format!("{name}.calls"), d.len() as f64, "count");
        self.set(
            format!("{name}.total_ms"),
            d.iter().sum::<f64>() / 1e6,
            "ms",
        );
        if pct {
            self.percentiles(name, d, "us");
        }
    }
}

/// Sums the LSM counters of every partition ever seen. Partitions of a
/// decommissioned node disappear from the topology, so their last reading
/// is kept; call [`LsmCounters::observe`] before every decommission.
#[derive(Debug, Default, Clone)]
pub struct LsmCounters {
    seen: BTreeMap<PartitionId, MetricsSnapshot>,
}

impl LsmCounters {
    /// Reads the counters of every current partition.
    pub fn observe(&mut self, cluster: &mut Cluster) {
        let parts = cluster.topology().partitions();
        let admin = cluster.admin();
        for p in parts {
            if let Ok(part) = admin.partition(p) {
                self.seen.insert(p, part.metrics().snapshot());
            }
        }
    }

    /// The summed counters.
    pub fn total(&self) -> MetricsSnapshot {
        let mut t = MetricsSnapshot::default();
        for s in self.seen.values() {
            t.bytes_flushed += s.bytes_flushed;
            t.bytes_merged += s.bytes_merged;
            t.bytes_merge_read += s.bytes_merge_read;
            t.bytes_query_read += s.bytes_query_read;
            t.bytes_rebalance_read += s.bytes_rebalance_read;
            t.bytes_rebalance_loaded += s.bytes_rebalance_loaded;
            t.bytes_rebalance_shipped += s.bytes_rebalance_shipped;
            t.components_shipped += s.components_shipped;
            t.records_written += s.records_written;
            t.flush_count += s.flush_count;
            t.merge_count += s.merge_count;
            t.split_count += s.split_count;
        }
        t
    }
}

/// Sets the `lsm.*` metrics from the counter growth over the timed phase.
/// `user_bytes` is what clients wrote; `reads` the client read requests.
pub fn lsm_metrics(
    m: &mut Metrics,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    user_bytes: u64,
    reads: u64,
) {
    let d = |f: fn(&MetricsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let rows: [(&str, f64, &'static str); 11] = [
        ("flush_count", d(|s| s.flush_count), "count"),
        ("merge_count", d(|s| s.merge_count), "count"),
        ("split_count", d(|s| s.split_count), "count"),
        ("bytes_flushed", d(|s| s.bytes_flushed), "B"),
        ("bytes_merged", d(|s| s.bytes_merged), "B"),
        ("bytes_merge_read", d(|s| s.bytes_merge_read), "B"),
        ("bytes_query_read", d(|s| s.bytes_query_read), "B"),
        ("records_written", d(|s| s.records_written), "count"),
        ("components_shipped", d(|s| s.components_shipped), "count"),
        (
            "bytes_rebalance_shipped",
            d(|s| s.bytes_rebalance_shipped),
            "B",
        ),
        (
            "bytes_rebalance_loaded",
            d(|s| s.bytes_rebalance_loaded),
            "B",
        ),
    ];
    for (name, v, unit) in rows {
        m.set(format!("lsm.{name}"), v, unit);
    }
    let written = d(|s| s.bytes_flushed) + d(|s| s.bytes_merged);
    m.set("lsm.write_amp", ratio(written, user_bytes as f64), "ratio");
    let read = d(|s| s.bytes_query_read);
    m.set("lsm.query_bytes_per_op", ratio(read, reads as f64), "B");
}

/// Sets the `session.*` counters from the summed session metrics.
pub fn session_metrics(m: &mut Metrics, s: &SessionMetrics) {
    m.set("session.redirects", s.redirects as f64, "count");
    m.set("session.delta_refreshes", s.delta_refreshes as f64, "count");
    m.set("session.full_refreshes", s.full_refreshes as f64, "count");
    m.set(
        "session.pushed_refreshes",
        s.pushed_refreshes as f64,
        "count",
    );
    m.set("session.retries", s.retries as f64, "count");
    m.set(
        "session.redirects_per_kreq",
        ratio(s.redirects as f64 * 1000.0, s.requests as f64),
        "1/kreq",
    );
}

/// Adds two sessions' counters.
pub fn add_session(a: SessionMetrics, b: SessionMetrics) -> SessionMetrics {
    SessionMetrics {
        requests: a.requests + b.requests,
        redirects: a.redirects + b.redirects,
        delta_refreshes: a.delta_refreshes + b.delta_refreshes,
        full_refreshes: a.full_refreshes + b.full_refreshes,
        retries: a.retries + b.retries,
        pushed_refreshes: a.pushed_refreshes + b.pushed_refreshes,
    }
}

/// Subtracts counters read before the timed phase.
pub fn sub_session(a: SessionMetrics, b: SessionMetrics) -> SessionMetrics {
    SessionMetrics {
        requests: a.requests - b.requests,
        redirects: a.redirects - b.redirects,
        delta_refreshes: a.delta_refreshes - b.delta_refreshes,
        full_refreshes: a.full_refreshes - b.full_refreshes,
        retries: a.retries - b.retries,
        pushed_refreshes: a.pushed_refreshes - b.pushed_refreshes,
    }
}

/// Resident bytes per live record over `datasets`.
pub fn bytes_per_record(cluster: &mut Cluster, datasets: &[DatasetId]) -> Result<f64, String> {
    let mut bytes = 0u64;
    let mut live = 0usize;
    for &ds in datasets {
        bytes += cluster
            .admin()
            .storage_stats(ds)
            .map_err(|e| format!("storage_stats {ds}: {e}"))?
            .resident_bytes();
        live += cluster
            .dataset_len(ds)
            .map_err(|e| format!("dataset_len {ds}: {e}"))?;
    }
    Ok(ratio(bytes as f64, live as f64))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
