//! The experiment harness: regenerates every figure of the DynaHash paper.
//!
//! Each `figN_*` function builds the clusters, loads the scaled-down TPC-H
//! data, runs the experiment, and returns rows that mirror the corresponding
//! figure of the paper (Section VI):
//!
//! * [`fig6_ingestion`] — ingestion time vs. cluster size (Figure 6);
//! * [`fig7_rebalance`] — rebalance time for removing/adding a node
//!   (Figures 7a and 7b);
//! * [`fig7c_concurrent_writes`] — rebalance time under concurrent ingestion
//!   (Figure 7c);
//! * [`fig8_queries`] — TPC-H query times on the original cluster, including
//!   the lazy-cleanup variant (Figures 8a/8b);
//! * [`fig9_queries`] — query times on the downsized cluster (Figures 9a/9b);
//! * [`ablation_storage_options`] and [`ablation_balance_quality`] — extra
//!   studies of the design choices called out in DESIGN.md.
//!
//! Absolute numbers are simulated time produced by the cost model of
//! `dynahash-cluster`; only the relative comparisons are meaningful.

pub mod json;
pub mod scenario;
pub mod timing;

use dynahash_cluster::{
    Cluster, ClusterConfig, CostModel, RebalanceJob, RebalanceOptions, SimDuration,
};
use dynahash_core::{MovePolicy, NodeId, Scheme};
use dynahash_tpch::loader::lineitem_records;
use dynahash_tpch::{generator, load_tpch, query_traits, run_query, TpchScale, NUM_QUERIES};

use crate::timing::ns_per_op;

/// Scale and layout knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// TPC-H orders generated per node (the paper scales data with cluster
    /// size; so do we).
    pub orders_per_node: usize,
    /// Storage partitions per node (4 in the paper).
    pub partitions_per_node: u32,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            orders_per_node: 400,
            partitions_per_node: 4,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast benches and smoke tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            orders_per_node: 120,
            partitions_per_node: 2,
        }
    }

    fn cluster(&self, nodes: u32) -> Cluster {
        Cluster::with_config(
            nodes,
            ClusterConfig {
                partitions_per_node: self.partitions_per_node,
                cost_model: CostModel::default(),
            },
        )
    }

    /// The three schemes evaluated by the paper, parameterised for this
    /// scale: Hashing, StaticHash(256), and DynaHash with a maximum bucket
    /// size chosen so that each partition ends up with roughly 4 buckets
    /// after loading (mirroring the paper's 10 GB threshold).
    pub fn schemes(&self, nodes: u32) -> Vec<Scheme> {
        vec![
            Scheme::Hashing,
            Scheme::static_hash_256(),
            self.dynahash_scheme(nodes),
        ]
    }

    /// The DynaHash scheme sized for this configuration.
    pub fn dynahash_scheme(&self, nodes: u32) -> Scheme {
        // Estimated LineItem bytes per partition: ~4 lineitems per order at
        // ~129 bytes each, divided over the node's partitions.
        let per_partition =
            (self.orders_per_node as u64 * 4 * 130) / self.partitions_per_node as u64;
        let max_bucket = (per_partition / 4).max(4 * 1024);
        Scheme::DynaHash {
            max_bucket_size_bytes: max_bucket,
            initial_buckets: (nodes * self.partitions_per_node).next_power_of_two(),
        }
    }

    fn scale(&self, nodes: u32) -> TpchScale {
        TpchScale::per_node(self.orders_per_node, nodes as usize)
    }
}

// ------------------------------------------------------------------ Figure 6

/// One bar of Figure 6.
#[derive(Debug, Clone)]
pub struct IngestionRow {
    /// Cluster size.
    pub nodes: u32,
    /// Scheme name ("Hashing" / "StaticHash" / "DynaHash").
    pub scheme: &'static str,
    /// Ingestion time in simulated minutes.
    pub minutes: f64,
    /// Records ingested.
    pub records: u64,
}

/// Figure 6: ingestion time for each scheme and cluster size.
pub fn fig6_ingestion(cfg: &ExperimentConfig, node_counts: &[u32]) -> Vec<IngestionRow> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        for scheme in cfg.schemes(nodes) {
            let mut cluster = cfg.cluster(nodes);
            let (_, _, report) =
                load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load TPC-H");
            rows.push(IngestionRow {
                nodes,
                scheme: scheme.name(),
                minutes: report.elapsed.as_minutes_f64(),
                records: report.records,
            });
        }
    }
    rows
}

// --------------------------------------------------------------- Figures 7a/b

/// Scale-in (remove a node) or scale-out (add a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceDirection {
    /// Rebalance from N nodes to N-1 nodes (Figure 7a).
    RemoveNode,
    /// Rebalance from N-1 nodes to N nodes (Figure 7b).
    AddNode,
}

/// One bar of Figure 7a/7b.
#[derive(Debug, Clone)]
pub struct RebalanceRow {
    /// Cluster size N referenced by the figure's x-axis.
    pub nodes: u32,
    /// Scheme name.
    pub scheme: &'static str,
    /// Total rebalance time in simulated minutes (all datasets).
    pub minutes: f64,
    /// Fraction of the primary data that moved (weighted over datasets).
    pub moved_fraction: f64,
}

/// Wave width used by the figure experiments. AsterixDB executes the data
/// movement as one Hyracks job that ships buckets from all partitions
/// concurrently, so the figures use a parallel wave schedule rather than the
/// conservative serial default of `RebalanceOptions`.
const FIGURE_MOVES_PER_WAVE: usize = 4;

/// Figures 7a/7b: rebalance time for removing or adding one node.
pub fn fig7_rebalance(
    cfg: &ExperimentConfig,
    node_counts: &[u32],
    direction: RebalanceDirection,
) -> Vec<RebalanceRow> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        for scheme in cfg.schemes(nodes) {
            // Load on the initial cluster size for the experiment: removing
            // starts from N nodes, adding starts from N-1 nodes.
            let initial_nodes = match direction {
                RebalanceDirection::RemoveNode => nodes,
                RebalanceDirection::AddNode => (nodes - 1).max(1),
            };
            let mut cluster = cfg.cluster(initial_nodes);
            let (tables, _, _) =
                load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load TPC-H");
            let target = match direction {
                RebalanceDirection::RemoveNode => {
                    cluster.topology_without(NodeId(initial_nodes - 1))
                }
                RebalanceDirection::AddNode => {
                    cluster.add_node().expect("add node");
                    cluster.topology().clone()
                }
            };
            let mut total = SimDuration::ZERO;
            let mut moved = 0.0f64;
            let mut weight = 0.0f64;
            for ds in [
                tables.lineitem,
                tables.orders,
                tables.customer,
                tables.part,
                tables.supplier,
                tables.partsupp,
                tables.nation,
                tables.region,
            ] {
                let bytes = cluster.dataset_primary_bytes(ds).unwrap_or(0) as f64;
                let report = cluster
                    .rebalance(
                        ds,
                        &target,
                        RebalanceOptions::none().with_max_concurrent_moves(FIGURE_MOVES_PER_WAVE),
                    )
                    .expect("rebalance");
                total += report.elapsed;
                moved += report.moved_fraction * bytes;
                weight += bytes;
            }
            rows.push(RebalanceRow {
                nodes,
                scheme: scheme.name(),
                minutes: total.as_minutes_f64(),
                moved_fraction: if weight == 0.0 { 0.0 } else { moved / weight },
            });
        }
    }
    rows
}

// ----------------------------------------------------------------- Figure 7c

/// One point of Figure 7c.
#[derive(Debug, Clone)]
pub struct ConcurrentWriteRow {
    /// Controlled write rate in krecords per simulated second.
    pub write_rate_krps: f64,
    /// Rebalance time in simulated minutes.
    pub minutes: f64,
    /// Concurrent records ingested while rebalancing.
    pub concurrent_records: u64,
}

/// Figure 7c: DynaHash rebalance time (4 → 3 nodes) under concurrent
/// LineItem ingestion at a controlled rate.
pub fn fig7c_concurrent_writes(
    cfg: &ExperimentConfig,
    rates_krps: &[f64],
) -> Vec<ConcurrentWriteRow> {
    let nodes = 4u32;
    // Baseline rebalance (no writes) to size the concurrent workload:
    // records = rate × baseline duration.
    let baseline_secs = {
        let mut cluster = cfg.cluster(nodes);
        let scheme = cfg.dynahash_scheme(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let target = cluster.topology_without(NodeId(nodes - 1));
        let report = cluster
            .rebalance(
                tables.lineitem,
                &target,
                RebalanceOptions::none().with_max_concurrent_moves(FIGURE_MOVES_PER_WAVE),
            )
            .expect("rebalance");
        report.elapsed.as_secs_f64()
    };

    let mut rows = Vec::new();
    for &rate in rates_krps {
        let mut cluster = cfg.cluster(nodes);
        let scheme = cfg.dynahash_scheme(nodes);
        let (tables, data, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let target = cluster.topology_without(NodeId(nodes - 1));
        let concurrent_count = (rate * 1000.0 * baseline_secs) as usize;
        let next_orderkey = data.orders.len() as u64 + 1;
        let extra = generator::extra_lineitems(next_orderkey, concurrent_count, 7);
        let writes = lineitem_records(&extra);
        let report = cluster
            .rebalance(
                tables.lineitem,
                &target,
                RebalanceOptions::none()
                    .with_max_concurrent_moves(FIGURE_MOVES_PER_WAVE)
                    .with_concurrent_writes(writes),
            )
            .expect("rebalance with writes");
        rows.push(ConcurrentWriteRow {
            write_rate_krps: rate,
            minutes: report.elapsed.as_minutes_f64(),
            concurrent_records: report.concurrent_writes_applied,
        });
    }
    rows
}

// -------------------------------------------- wave parallelism (step executor)

/// One row of the wave-parallelism study: the same DynaHash scale-in
/// rebalance executed by the step-driven job with a different
/// `max_concurrent_moves`.
#[derive(Debug, Clone)]
pub struct WaveRow {
    /// Bucket moves per wave.
    pub max_concurrent_moves: usize,
    /// Total simulated rebalance makespan in minutes.
    pub minutes: f64,
    /// Simulated makespan of the data-movement phase alone (the sum of the
    /// waves' makespans) in minutes.
    pub movement_minutes: f64,
    /// Number of waves the moves were scheduled into.
    pub waves: usize,
    /// Buckets moved (identical across rows — only the schedule differs).
    pub buckets_moved: usize,
}

/// Wave-parallelism study: rebalance LineItem from 4 to 3 nodes with the
/// step-driven executor, varying how many bucket moves each wave runs in
/// parallel. `max_concurrent_moves = 1` reproduces the serial
/// one-bucket-at-a-time schedule; wider waves are charged their slowest node
/// only, so they finish strictly faster while moving exactly the same
/// buckets.
pub fn rebalance_wave_scaling(cfg: &ExperimentConfig, max_moves: &[usize]) -> Vec<WaveRow> {
    let nodes = 4u32;
    let mut rows = Vec::new();
    for &moves_per_wave in max_moves {
        let mut cluster = cfg.cluster(nodes);
        let scheme = cfg.dynahash_scheme(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let target = cluster.topology_without(NodeId(nodes - 1));
        let mut job = RebalanceJob::plan(&mut cluster, tables.lineitem, &target, moves_per_wave)
            .expect("plan job");
        let waves = job.num_waves();
        let report = job.drive_to_completion(&mut cluster).expect("rebalance");
        rows.push(WaveRow {
            max_concurrent_moves: moves_per_wave,
            minutes: report.elapsed.as_minutes_f64(),
            movement_minutes: report.phases.data_movement.as_minutes_f64(),
            waves,
            buckets_moved: report.buckets_moved,
        });
    }
    rows
}

// ------------------------------------------------- move policy (tentpole)

/// One row of the move-policy study: the same DynaHash scale-in rebalance
/// executed once per [`MovePolicy`].
#[derive(Debug, Clone)]
pub struct MovePolicyRow {
    /// Policy label ("Records" / "Components").
    pub policy: &'static str,
    /// Total simulated rebalance makespan in minutes.
    pub minutes: f64,
    /// Simulated makespan of the data-movement phase alone, in minutes.
    pub movement_minutes: f64,
    /// Primary-index bytes moved.
    pub bytes_moved: u64,
    /// Records moved.
    pub records_moved: u64,
    /// Buckets moved (identical across rows — only the transfer differs).
    pub buckets_moved: usize,
    /// Order-independent checksum of the post-rebalance record set; both
    /// policies must produce the same value (byte-identical contents).
    pub content_checksum: u64,
}

/// Order-independent FNV-style checksum over every (key, value) pair of the
/// dataset, used to check that both move policies leave byte-identical
/// contents behind.
fn dataset_checksum(cluster: &mut Cluster, dataset: u32) -> u64 {
    let mut exec = cluster.query();
    let (records, _) = exec.collect_records(dataset).expect("collect records");
    let mut acc = 0u64;
    for (k, v) in &records {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in k.as_slice().iter().chain(v.as_ref()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc = acc.wrapping_add(h);
    }
    acc ^ records.len() as u64
}

/// Move-policy study: rebalance LineItem from 4 to 3 nodes under each
/// policy. Component shipping moves the same buckets and leaves
/// byte-identical contents, but skips the per-record re-materialisation CPU
/// on both sides of the transfer — the paper's core efficiency claim — so
/// its data-movement makespan must be strictly lower.
pub fn move_policy_comparison(cfg: &ExperimentConfig) -> Vec<MovePolicyRow> {
    let nodes = 4u32;
    [MovePolicy::Records, MovePolicy::Components]
        .into_iter()
        .map(|policy| {
            let mut cluster = cfg.cluster(nodes);
            let scheme = cfg.dynahash_scheme(nodes);
            let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
            let target = cluster.topology_without(NodeId(nodes - 1));
            let report = cluster
                .rebalance(
                    tables.lineitem,
                    &target,
                    RebalanceOptions::none()
                        .with_max_concurrent_moves(FIGURE_MOVES_PER_WAVE)
                        .with_move_policy(policy),
                )
                .expect("rebalance");
            cluster
                .check_rebalance_integrity(tables.lineitem, report.rebalance_id)
                .expect("post-rebalance integrity");
            MovePolicyRow {
                policy: policy.name(),
                minutes: report.elapsed.as_minutes_f64(),
                movement_minutes: report.phases.data_movement.as_minutes_f64(),
                bytes_moved: report.bytes_moved,
                records_moved: report.records_moved,
                buckets_moved: report.buckets_moved,
                content_checksum: dataset_checksum(&mut cluster, tables.lineitem),
            }
        })
        .collect()
}

/// Renders move-policy rows as a markdown table.
pub fn format_move_policy(rows: &[MovePolicyRow]) -> String {
    let mut s = String::from(
        "| policy | buckets | records | movement (sim s) | total (sim s) | checksum |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} | {:016x} |\n",
            r.policy,
            r.buckets_moved,
            r.records_moved,
            r.movement_minutes * 60.0,
            r.minutes * 60.0,
            r.content_checksum
        ));
    }
    s
}

/// Renders wave-parallelism rows as a markdown table.
pub fn format_waves(rows: &[WaveRow]) -> String {
    let mut s = String::from(
        "| moves/wave | waves | buckets | movement (sim s) | total (sim s) |\n|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} |\n",
            r.max_concurrent_moves,
            r.waves,
            r.buckets_moved,
            r.movement_minutes * 60.0,
            r.minutes * 60.0
        ));
    }
    s
}

// ------------------------------------------------- session routing study

/// One row of the session-routing study: redirect-protocol traffic and
/// per-operation overhead for one phase of a rebalance.
#[derive(Debug, Clone)]
pub struct RoutingRow {
    /// Phase label: "outside" (no rebalance), "during" (between waves of a
    /// step-driven job), or "after" (stale sessions converging post-commit).
    pub phase: &'static str,
    /// Client sessions driving traffic in this phase.
    pub sessions: usize,
    /// Logical requests issued across all sessions.
    pub ops: u64,
    /// Stale-directory rejections received.
    pub redirects: u64,
    /// Refreshes served as a directory delta.
    pub delta_refreshes: u64,
    /// Refreshes that copied the full snapshot.
    pub full_refreshes: u64,
    /// Buckets moved by the rebalance (0 outside one) — the redirect bound.
    pub buckets_moved: usize,
    /// Read-your-writes or final-contents violations observed (must be 0).
    pub integrity_violations: u64,
    /// Wall-clock nanoseconds per point read through a session (best rep).
    pub session_ns_per_op: f64,
    /// Wall-clock nanoseconds per point read through direct (admin) access
    /// (best rep).
    pub direct_ns_per_op: f64,
    /// Session routing cost relative to direct access: the minimum ratio
    /// over interleaved session/direct measurement pairs (paired minima shed
    /// the scheduler and frequency noise that independent minima keep).
    /// 1.0 on rows without a timing arm.
    pub overhead_ratio: f64,
}

/// Interleaves `reps` (session, direct) measurement pairs — `run(false)` is
/// the session arm, `run(true)` the direct arm — and returns the per-op
/// minima of each arm plus the minimum paired ratio.
fn paired_overhead(reps: usize, ops: u64, mut run: impl FnMut(bool)) -> (f64, f64, f64) {
    // warm-up both arms
    run(false);
    run(true);
    let (mut best_s, mut best_d, mut best_ratio) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let s = ns_per_op(ops, &mut || run(false));
        let d = ns_per_op(ops, &mut || run(true));
        best_s = best_s.min(s);
        best_d = best_d.min(d);
        if d > 0.0 {
            best_ratio = best_ratio.min(s / d);
        }
    }
    (best_s, best_d, best_ratio)
}

/// The session-routing study: a DynaHash dataset on 4 nodes, read and
/// written exclusively through client sessions, across a 4 → 3 scale-in
/// driven step by step.
///
/// * **outside** — a fresh session's point reads vs direct (admin) access:
///   the routing layer's steady-state overhead, with zero redirects.
/// * **during** — four sessions opened *before* the job keep reading and
///   writing between waves: sources serve moving buckets until the commit,
///   so the protocol stays silent (zero redirects) while every session
///   still reads its own writes.
/// * **after** — the same, now-stale, sessions drive reads over every key:
///   the first touch of a moved bucket redirects, one (delta) refresh per
///   session converges it, and the final contents match a fresh session
///   byte for byte. Redirects are bounded by buckets-moved per session.
pub fn session_routing_study(cfg: &ExperimentConfig) -> Vec<RoutingRow> {
    use dynahash_cluster::Session;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    const NUM_SESSIONS: usize = 4;
    const TIMING_REPS: usize = 5;
    let nodes = 4u32;
    let n = cfg.orders_per_node as u64 * 40;
    let record = |i: u64| (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48]));

    let mut cluster = cfg.cluster(nodes);
    let scheme = cfg.dynahash_scheme(nodes);
    let ds = cluster
        .create_dataset(dynahash_cluster::DatasetSpec::new("events", scheme))
        .expect("create dataset");
    cluster
        .session(ds)
        .expect("session")
        .ingest(&mut cluster, (0..n).map(record))
        .expect("load");

    // ---- outside a rebalance: steady-state routing overhead. The session
    // and direct arms run the same key loop back to back, interleaved per
    // repetition, and the gate uses the best paired ratio.
    let mut fresh = cluster.session(ds).expect("session");
    let (session_ns, direct_ns, overhead) = {
        let fresh = &mut fresh;
        // split borrows: the session arm reads through &Cluster, the direct
        // arm through the admin view of the same cluster, so the two
        // closures cannot be alive at once — drive them via a mode flag.
        let mut run = |direct: bool| {
            if direct {
                let admin = cluster.admin();
                for i in 0..n {
                    let key = Key::from_u64(i);
                    let p = admin.route_key(ds, &key).expect("route");
                    std::hint::black_box(
                        admin
                            .partition(p)
                            .expect("partition")
                            .dataset(ds)
                            .unwrap()
                            .get(&key),
                    );
                }
            } else {
                for i in 0..n {
                    std::hint::black_box(fresh.get(&cluster, &Key::from_u64(i)).expect("get"));
                }
            }
        };
        paired_overhead(TIMING_REPS, n, &mut run)
    };
    let outside_metrics = fresh.metrics();
    let mut rows = vec![RoutingRow {
        phase: "outside",
        sessions: 1,
        ops: outside_metrics.requests,
        redirects: outside_metrics.redirects,
        delta_refreshes: outside_metrics.delta_refreshes,
        full_refreshes: outside_metrics.full_refreshes,
        buckets_moved: 0,
        integrity_violations: 0,
        session_ns_per_op: session_ns,
        direct_ns_per_op: direct_ns,
        overhead_ratio: overhead,
    }];

    // ---- during: stale-capable sessions interleaved with job steps
    let mut sessions: Vec<Session> = (0..NUM_SESSIONS)
        .map(|_| cluster.session(ds).expect("session"))
        .collect();
    let target = cluster.topology_without(NodeId(nodes - 1));
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).expect("plan");
    job.init(&mut cluster).expect("init");
    let mut violations = 0u64;
    let mut next_key = n;
    let mut wave_idx = 0u64;
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).expect("wave");
        for (s, session) in sessions.iter_mut().enumerate() {
            // each session writes its own key and immediately reads it back
            let (k, v) = record(next_key + s as u64);
            session
                .put(&mut cluster, k.clone(), v.clone())
                .expect("routed write");
            if session.get(&cluster, &k).expect("routed read") != Some(v) {
                violations += 1;
            }
            // plus a spread of base-data reads across the hash space
            for i in (wave_idx * 13..).step_by(97).take(8) {
                let (k, v) = record(i % n);
                if session.get(&cluster, &k).expect("routed read") != Some(v) {
                    violations += 1;
                }
            }
        }
        next_key += NUM_SESSIONS as u64;
        wave_idx += 1;
    }
    let mid: dynahash_cluster::SessionMetrics = sessions.iter().map(|s| s.metrics()).fold(
        dynahash_cluster::SessionMetrics::default(),
        |mut acc, m| {
            acc.requests += m.requests;
            acc.redirects += m.redirects;
            acc.delta_refreshes += m.delta_refreshes;
            acc.full_refreshes += m.full_refreshes;
            acc.retries += m.retries;
            acc
        },
    );
    let report = job.drive_to_completion(&mut cluster).expect("finish");
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .expect("post-rebalance integrity");
    rows.push(RoutingRow {
        phase: "during",
        sessions: NUM_SESSIONS,
        ops: mid.requests,
        redirects: mid.redirects,
        delta_refreshes: mid.delta_refreshes,
        full_refreshes: mid.full_refreshes,
        buckets_moved: report.buckets_moved,
        integrity_violations: violations,
        session_ns_per_op: 0.0,
        direct_ns_per_op: 0.0,
        overhead_ratio: 1.0,
    });

    // ---- after: the stale sessions converge through the redirect protocol
    let mut violations = 0u64;
    let mut redirects = 0u64;
    let mut delta_refreshes = 0u64;
    let mut full_refreshes = 0u64;
    let mut ops = 0u64;
    let expected = cluster
        .session(ds)
        .expect("session")
        .collect_records(&cluster)
        .expect("oracle scan")
        .0;
    for session in sessions.iter_mut() {
        let before = session.metrics();
        for i in 0..n {
            let (k, v) = record(i);
            if session.get(&cluster, &k).expect("routed read") != Some(v) {
                violations += 1;
            }
        }
        let (contents, raw) = session.collect_records(&cluster).expect("session scan");
        if contents != expected || raw != expected.len() {
            violations += 1;
        }
        let after = session.metrics();
        ops += after.requests - before.requests;
        redirects += after.redirects - before.redirects;
        delta_refreshes += after.delta_refreshes - before.delta_refreshes;
        full_refreshes += after.full_refreshes - before.full_refreshes;
    }
    rows.push(RoutingRow {
        phase: "after",
        sessions: NUM_SESSIONS,
        ops,
        redirects,
        delta_refreshes,
        full_refreshes,
        buckets_moved: report.buckets_moved,
        integrity_violations: violations,
        session_ns_per_op: 0.0,
        direct_ns_per_op: 0.0,
        overhead_ratio: 1.0,
    });
    rows
}

/// Maximum session-routing overhead the `routing` gate tolerates outside a
/// rebalance (acceptance bar: within 10% of direct access).
pub const ROUTING_OVERHEAD_GATE: f64 = 1.10;

/// Checks the session-routing gate over the study's rows. Returns the list
/// of violations (empty = gate passes): stale sessions must converge with
/// zero integrity violations, redirects must be zero outside/during a
/// rebalance and bounded by buckets-moved per session after it, and the
/// steady-state routing overhead must stay within
/// [`ROUTING_OVERHEAD_GATE`] of direct access.
pub fn routing_gate_violations(rows: &[RoutingRow]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in rows {
        if r.integrity_violations > 0 {
            bad.push(format!(
                "{}: {} integrity violations (lost or wrong reads)",
                r.phase, r.integrity_violations
            ));
        }
    }
    match rows.iter().find(|r| r.phase == "outside") {
        Some(outside) => {
            if outside.redirects != 0 {
                bad.push(format!(
                    "outside: {} redirects without any rebalance",
                    outside.redirects
                ));
            }
            if outside.overhead_ratio > ROUTING_OVERHEAD_GATE {
                bad.push(format!(
                    "outside: session overhead {:.3}x exceeds the {:.2}x gate \
                     ({:.0} ns/op vs {:.0} ns/op direct)",
                    outside.overhead_ratio,
                    ROUTING_OVERHEAD_GATE,
                    outside.session_ns_per_op,
                    outside.direct_ns_per_op
                ));
            }
        }
        None => bad.push("outside row missing".to_string()),
    }
    match rows.iter().find(|r| r.phase == "during") {
        Some(during) => {
            if during.redirects != 0 {
                bad.push(format!(
                    "during: {} redirects — old owners must serve moving buckets until commit",
                    during.redirects
                ));
            }
        }
        None => bad.push("during row missing".to_string()),
    }
    match rows.iter().find(|r| r.phase == "after") {
        Some(after) => {
            if after.redirects == 0 {
                bad.push("after: zero redirects — the protocol was never exercised".to_string());
            }
            let bound = (after.sessions * after.buckets_moved) as u64;
            if after.redirects > bound {
                bad.push(format!(
                    "after: {} redirects exceed the sessions x buckets-moved bound of {}",
                    after.redirects, bound
                ));
            }
        }
        None => bad.push("after row missing".to_string()),
    }
    bad
}

// --------------------------------------------- directory lookup study (PR 5)

/// One row of the directory-lookup study: per-lookup wall-clock cost of the
/// slot-array directory vs the pre-PR 5 linear scan, at one bucket count.
#[derive(Debug, Clone)]
pub struct LookupRow {
    /// Number of buckets in the directory.
    pub buckets: usize,
    /// Nanoseconds per `lookup_hash` through the slot array (best rep).
    pub slot_ns_per_lookup: f64,
    /// Nanoseconds per lookup through a linear scan over the bucket list
    /// (the old implementation, kept here as the timing oracle; best rep).
    pub scan_ns_per_lookup: f64,
    /// `scan / slot` — how much routing got cheaper.
    pub speedup: f64,
}

/// Measures slot-array vs linear-scan lookup cost at the given bucket
/// counts (each rounded up to a power of two). Both arms resolve the same
/// pseudo-random hash sequence and are interleaved per repetition, best rep
/// kept, so scheduler noise cannot flip the comparison.
pub fn directory_lookup_study(bucket_counts: &[usize]) -> Vec<LookupRow> {
    use dynahash_core::{BucketId, GlobalDirectory, PartitionId};
    use dynahash_lsm::rng::SplitMix64;

    const REPS: usize = 5;
    let parts: Vec<PartitionId> = (0..8).map(PartitionId).collect();
    bucket_counts
        .iter()
        .map(|&n| {
            let depth = n.next_power_of_two().trailing_zeros() as u8;
            let dir = GlobalDirectory::initial(depth, &parts).expect("initial directory");
            let buckets: Vec<(BucketId, PartitionId)> = dir.iter().collect();
            let mut rng = SplitMix64::seed_from_u64(0x100c_0000 + n as u64);
            // Scale the scan arm's batch down with the bucket count so one
            // rep stays fast; per-lookup costs are what the row reports.
            let slot_lookups: usize = 200_000;
            let scan_lookups: usize = (4_000_000 / n.max(1)).clamp(2_000, 200_000);
            let slot_hashes: Vec<u64> = (0..slot_lookups).map(|_| rng.next_u64()).collect();
            let scan_hashes: Vec<u64> = (0..scan_lookups).map(|_| rng.next_u64()).collect();
            let (mut best_slot, mut best_scan) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..REPS {
                best_slot = best_slot.min(timing::ns_per_op(slot_lookups as u64, &mut || {
                    for &h in &slot_hashes {
                        std::hint::black_box(dir.lookup_hash(h));
                    }
                }));
                best_scan = best_scan.min(timing::ns_per_op(scan_lookups as u64, &mut || {
                    for &h in &scan_hashes {
                        std::hint::black_box(buckets.iter().find(|(b, _)| b.contains_hash(h)));
                    }
                }));
            }
            LookupRow {
                buckets: 1usize << depth,
                slot_ns_per_lookup: best_slot,
                scan_ns_per_lookup: best_scan,
                speedup: if best_slot > 0.0 {
                    best_scan / best_slot
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

/// Renders lookup rows as a markdown table.
pub fn format_lookup(rows: &[LookupRow]) -> String {
    let mut s = String::from(
        "| buckets | slot array (ns/lookup) | linear scan (ns/lookup) | speedup |\n|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1}x |\n",
            r.buckets, r.slot_ns_per_lookup, r.scan_ns_per_lookup, r.speedup
        ));
    }
    s
}

// --------------------------------------- deferred secondary rebuild (PR 5)

/// One row of the deferred-install study: the same DynaHash scale-in
/// rebalance executed once per [`SecondaryRebuild`] mode.
#[derive(Debug, Clone)]
pub struct DeferredInstallRow {
    /// Rebuild-mode label ("Eager" / "Deferred").
    pub mode: &'static str,
    /// Total simulated rebalance makespan in minutes.
    pub minutes: f64,
    /// Simulated makespan of the data-movement phase alone, in minutes —
    /// the quantity the deferral shrinks.
    pub movement_minutes: f64,
    /// Records moved.
    pub records_moved: u64,
    /// Buckets moved.
    pub buckets_moved: usize,
    /// Records whose secondary entries `warm_indexes` had to materialize
    /// after the commit (0 for the eager baseline).
    pub warmed_records: u64,
    /// Order-independent checksum over every secondary-index answer after
    /// warming; both modes must produce the same value.
    pub index_checksum: u64,
    /// Content/index/integrity violations vs the eager oracle (must be 0).
    pub integrity_violations: u64,
}

/// Order-independent FNV-style checksum over index-scan answers.
fn index_checksum(
    hits: &[(
        dynahash_core::PartitionId,
        Vec<dynahash_lsm::SecondaryEntry>,
    )],
) -> u64 {
    let mut acc = 0u64;
    let mut n = 0u64;
    for (p, entries) in hits {
        for se in entries {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ p.0 as u64;
            for &b in se.secondary.as_slice().iter().chain(se.primary.as_slice()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            acc = acc.wrapping_add(h);
            n += 1;
        }
    }
    acc ^ n
}

/// Deferred-install study: an events dataset with a secondary index is
/// rebalanced from 4 to 3 nodes under each [`SecondaryRebuild`] mode, with
/// a mid-flight feed. Deferring the secondary rebuild must strictly shrink
/// the data-movement makespan (the rebuild CPU leaves the commit path)
/// while `index_scan` — which warms deferred buckets on first touch —
/// returns byte-identical answers and identical dataset contents.
pub fn deferred_install_study(cfg: &ExperimentConfig) -> Vec<DeferredInstallRow> {
    use dynahash_cluster::{DatasetSpec, SecondaryIndexDef};
    use dynahash_core::SecondaryRebuild;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    let nodes = 4u32;
    let n = cfg.orders_per_node as u64 * 40;
    let record = |i: u64| {
        let mut v = (i % 53).to_be_bytes().to_vec();
        v.extend_from_slice(&[(i % 251) as u8; 48]);
        (Key::from_u64(i), Bytes::from(v))
    };
    let mut oracle: Option<(std::collections::BTreeMap<Key, Bytes>, u64)> = None;
    [SecondaryRebuild::Eager, SecondaryRebuild::Deferred]
        .into_iter()
        .map(|mode| {
            let mut cluster = cfg.cluster(nodes);
            let scheme = cfg.dynahash_scheme(nodes);
            let spec = DatasetSpec::new("events", scheme).with_secondary_index(
                SecondaryIndexDef::new("idx_tag", |p: &[u8]| {
                    if p.len() >= 8 {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(&p[..8]);
                        Some(Key::from_u64(u64::from_be_bytes(b)))
                    } else {
                        None
                    }
                }),
            );
            let ds = cluster.create_dataset(spec).expect("create dataset");
            cluster
                .session(ds)
                .expect("session")
                .ingest(&mut cluster, (0..n).map(record))
                .expect("load");
            let target = cluster.topology_without(NodeId(nodes - 1));
            let writes: Vec<_> = (500_000..500_000 + n / 10).map(record).collect();
            let report = cluster
                .rebalance(
                    ds,
                    &target,
                    RebalanceOptions::none()
                        .with_max_concurrent_moves(FIGURE_MOVES_PER_WAVE)
                        .with_secondary_rebuild(mode)
                        .with_concurrent_writes(writes),
                )
                .expect("rebalance");
            let mut violations = 0u64;
            if cluster
                .check_rebalance_integrity(ds, report.rebalance_id)
                .is_err()
            {
                violations += 1;
            }
            // Deferred mode must actually defer: some destination still
            // holds unwarmed buckets until warm_indexes materializes them.
            let warmed = cluster.admin().warm_indexes(ds).expect("warm");
            if mode == SecondaryRebuild::Deferred && warmed == 0 {
                violations += 1;
            }
            if mode == SecondaryRebuild::Eager && warmed != 0 {
                violations += 1;
            }
            let hits = cluster
                .query()
                .index_scan(ds, "idx_tag", None, None)
                .expect("index scan");
            let checksum = index_checksum(&hits);
            let (contents, raw) = cluster
                .query()
                .collect_records(ds)
                .expect("collect records");
            if raw != contents.len() {
                violations += 1;
            }
            match &oracle {
                None => oracle = Some((contents, checksum)),
                Some((expected, expected_checksum)) => {
                    if &contents != expected {
                        violations += 1;
                    }
                    if checksum != *expected_checksum {
                        violations += 1;
                    }
                }
            }
            DeferredInstallRow {
                mode: mode.name(),
                minutes: report.elapsed.as_minutes_f64(),
                movement_minutes: report.phases.data_movement.as_minutes_f64(),
                records_moved: report.records_moved,
                buckets_moved: report.buckets_moved,
                warmed_records: warmed,
                index_checksum: checksum,
                integrity_violations: violations,
            }
        })
        .collect()
}

/// Renders deferred-install rows as a markdown table.
pub fn format_deferred_install(rows: &[DeferredInstallRow]) -> String {
    let mut s = String::from(
        "| rebuild | buckets | records | movement (sim s) | total (sim s) | warmed | index checksum |\n|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} | {} | {:016x} |\n",
            r.mode,
            r.buckets_moved,
            r.records_moved,
            r.movement_minutes * 60.0,
            r.minutes * 60.0,
            r.warmed_records,
            r.index_checksum
        ));
    }
    s
}

/// Checks the PR 5 `lookup` figure's gate. Returns the violations (empty =
/// gate passes): the slot array must be strictly faster than the linear
/// scan at every count of ≥ 256 buckets, and the deferred install must
/// strictly beat the eager install on wave makespan with byte-identical
/// index answers and zero integrity violations.
pub fn lookup_gate_violations(
    lookup: &[LookupRow],
    deferred: &[DeferredInstallRow],
) -> Vec<String> {
    let mut bad = Vec::new();
    for r in lookup {
        if r.buckets >= 256 && r.slot_ns_per_lookup >= r.scan_ns_per_lookup {
            bad.push(format!(
                "lookup overhead: slot array ({:.1} ns) not strictly faster than the scan \
                 ({:.1} ns) at {} buckets",
                r.slot_ns_per_lookup, r.scan_ns_per_lookup, r.buckets
            ));
        }
    }
    let eager = deferred.iter().find(|r| r.mode == "Eager");
    let lazy = deferred.iter().find(|r| r.mode == "Deferred");
    match (eager, lazy) {
        (Some(eager), Some(lazy)) => {
            for r in [eager, lazy] {
                if r.integrity_violations > 0 {
                    bad.push(format!(
                        "{}: {} integrity violations",
                        r.mode, r.integrity_violations
                    ));
                }
            }
            if lazy.index_checksum != eager.index_checksum {
                bad.push("deferred install answered index scans differently".to_string());
            }
            if lazy.movement_minutes >= eager.movement_minutes {
                bad.push(format!(
                    "deferred install ({:.6} sim s) did not beat the eager install \
                     ({:.6} sim s) on wave makespan",
                    lazy.movement_minutes * 60.0,
                    eager.movement_minutes * 60.0
                ));
            }
        }
        _ => bad.push("deferred-install rows missing".to_string()),
    }
    bad
}

/// Renders routing rows as a markdown table.
pub fn format_routing(rows: &[RoutingRow]) -> String {
    let mut s = String::from(
        "| phase | sessions | ops | redirects | delta refr. | full refr. | buckets moved | overhead |\n|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let overhead = if r.session_ns_per_op > 0.0 {
            format!("{:.3}x", r.overhead_ratio)
        } else {
            "-".to_string()
        };
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.phase,
            r.sessions,
            r.ops,
            r.redirects,
            r.delta_refreshes,
            r.full_refreshes,
            r.buckets_moved,
            overhead
        ));
    }
    s
}

// -------------------------------------------------------------- Figures 8 / 9

/// One bar of Figures 8/9: the time of one query under one scheme.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Query number (1-22).
    pub query: usize,
    /// Scheme label ("Hashing", "StaticHash", "DynaHash",
    /// "DynaHash-lazy-cleanup").
    pub scheme: String,
    /// Query time in simulated seconds.
    pub seconds: f64,
    /// The query's scalar answer (used to check scheme-independence).
    pub answer: f64,
    /// True if the query is scan-heavy (sensitive to load imbalance).
    pub scan_heavy: bool,
}

fn run_all_queries(
    cluster: &mut Cluster,
    tables: &dynahash_tpch::TpchTables,
    label: &str,
) -> Vec<QueryRow> {
    (1..=NUM_QUERIES)
        .map(|n| {
            let mut exec = cluster.query();
            let answer = run_query(n, &mut exec, tables).expect("query");
            let report = exec.finish();
            QueryRow {
                query: n,
                scheme: label.to_string(),
                seconds: report.elapsed.as_secs_f64(),
                answer,
                scan_heavy: query_traits(n).scan_heavy,
            }
        })
        .collect()
}

/// Figure 8: query times on the original cluster of `nodes` nodes, for
/// Hashing, StaticHash, DynaHash, and DynaHash after a node-remove/node-add
/// round trip that leaves obsolete secondary entries behind
/// ("DynaHash-lazy-cleanup").
pub fn fig8_queries(cfg: &ExperimentConfig, nodes: u32) -> Vec<QueryRow> {
    let mut rows = Vec::new();
    for scheme in cfg.schemes(nodes) {
        let mut cluster = cfg.cluster(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        rows.extend(run_all_queries(&mut cluster, &tables, scheme.name()));
    }
    // DynaHash-lazy-cleanup: rebalance down one node and back up, so moved
    // buckets leave obsolete entries in the secondary indexes of their old
    // partitions; queries then pay the validation overhead.
    {
        let scheme = cfg.dynahash_scheme(nodes);
        let mut cluster = cfg.cluster(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let datasets = [
            tables.lineitem,
            tables.orders,
            tables.customer,
            tables.part,
            tables.supplier,
            tables.partsupp,
            tables.nation,
            tables.region,
        ];
        let down = cluster.topology_without(NodeId(nodes - 1));
        for ds in datasets {
            cluster
                .rebalance(ds, &down, RebalanceOptions::none())
                .expect("rebalance down");
        }
        let up = cluster.topology().clone();
        for ds in datasets {
            cluster
                .rebalance(ds, &up, RebalanceOptions::none())
                .expect("rebalance up");
        }
        rows.extend(run_all_queries(
            &mut cluster,
            &tables,
            "DynaHash-lazy-cleanup",
        ));
    }
    rows
}

/// Figure 9: query times on the downsized cluster (`nodes` → `nodes-1`).
/// The Hashing baseline redistributes perfectly; the bucketing schemes end up
/// with some partitions holding one more bucket than others.
pub fn fig9_queries(cfg: &ExperimentConfig, nodes: u32) -> Vec<QueryRow> {
    let mut rows = Vec::new();
    for scheme in cfg.schemes(nodes) {
        let mut cluster = cfg.cluster(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let datasets = [
            tables.lineitem,
            tables.orders,
            tables.customer,
            tables.part,
            tables.supplier,
            tables.partsupp,
            tables.nation,
            tables.region,
        ];
        let target = cluster.topology_without(NodeId(nodes - 1));
        for ds in datasets {
            cluster
                .rebalance(ds, &target, RebalanceOptions::none())
                .expect("rebalance down");
        }
        cluster
            .decommission_node(NodeId(nodes - 1))
            .expect("decommission");
        rows.extend(run_all_queries(&mut cluster, &tables, scheme.name()));
    }
    rows
}

// ----------------------------------------------------------------- Ablations

/// One row of the storage-option ablation (Section IV of the paper discusses
/// Options 1-3; the paper picks Option 3 for primary indexes).
#[derive(Debug, Clone)]
pub struct StorageOptionRow {
    /// Option label.
    pub option: &'static str,
    /// Simulated cost of moving one bucket out of a partition (bytes read).
    pub bucket_move_read_bytes: u64,
    /// Point-lookup work: components examined per lookup (average).
    pub lookup_components: f64,
}

/// Ablation: what moving one bucket costs under the three storage options.
///
/// * Option 1 (one LSM-tree in key order) must scan the whole partition;
/// * Options 2/3 (bucketed) only read the moving bucket.
pub fn ablation_storage_options(records: u64) -> Vec<StorageOptionRow> {
    use dynahash_lsm::{
        BucketId, BucketedConfig, BucketedLsmTree, LsmConfig, LsmTree, StorageMetrics,
    };
    let value = dynahash_lsm::Bytes::from(vec![7u8; 100]);

    // Option 1: a single LSM-tree for the whole partition.
    let metrics1 = StorageMetrics::new_shared();
    let mut flat = LsmTree::new(LsmConfig::with_memtable_budget(16 * 1024), metrics1);
    for i in 0..records {
        flat.put(i, value.clone());
    }
    flat.flush();
    let moving_bucket = BucketId::new(0, 2);
    // moving a bucket must scan everything and filter
    let opt1_read: u64 = flat.scan_all().iter().map(|e| e.size_bytes() as u64).sum();
    let opt1_components = flat.num_components() as f64;

    // Option 3: one LSM-tree per bucket.
    let metrics3 = StorageMetrics::new_shared();
    let mut bucketed = BucketedLsmTree::new(
        BucketedConfig {
            lsm: LsmConfig::with_memtable_budget(16 * 1024),
            max_bucket_size_bytes: None,
            max_depth: 8,
        },
        (0..4).map(|b| BucketId::new(b, 2)),
        metrics3,
    );
    for i in 0..records {
        bucketed.insert(i, value.clone()).expect("bucketed insert");
    }
    bucketed.flush_all();
    let opt3_read: u64 = bucketed
        .scan_bucket(moving_bucket)
        .expect("bucket scan")
        .iter()
        .map(|e| e.size_bytes() as u64)
        .sum();
    let opt3_components = bucketed.num_components() as f64 / 4.0;

    vec![
        StorageOptionRow {
            option: "Option 1 (single LSM, key order)",
            bucket_move_read_bytes: opt1_read,
            lookup_components: opt1_components,
        },
        StorageOptionRow {
            option: "Option 3 (bucketed LSM, per-bucket trees)",
            bucket_move_read_bytes: opt3_read,
            lookup_components: opt3_components,
        },
    ]
}

/// One row of the balance-quality ablation.
#[derive(Debug, Clone)]
pub struct BalanceQualityRow {
    /// Bucket-size skew factor (largest bucket / smallest bucket).
    pub skew: u64,
    /// Load-balance factor (max/avg) of Algorithm 2.
    pub algorithm2: f64,
    /// Load-balance factor of naive round-robin assignment.
    pub round_robin: f64,
}

/// Ablation: Algorithm 2 vs. naive round-robin assignment under bucket-size
/// skew.
pub fn ablation_balance_quality(skews: &[u64]) -> Vec<BalanceQualityRow> {
    use dynahash_core::balance::{
        balance_assignment, load_balance_factor, BalanceInput, BucketLoad,
    };
    use dynahash_core::{BucketId, ClusterTopology, PartitionId};
    use std::collections::BTreeMap;

    let topo = ClusterTopology::uniform(4, 2);
    let parts = topo.partitions();
    skews
        .iter()
        .map(|&skew| {
            let buckets: Vec<BucketLoad> = (0..32u32)
                .map(|bits| BucketLoad {
                    bucket: BucketId::new(bits, 5),
                    size: 100 + (bits as u64 % 4) * (skew.saturating_sub(1)) * 100 / 3,
                    current: None,
                })
                .collect();
            let sizes: BTreeMap<BucketId, u64> =
                buckets.iter().map(|b| (b.bucket, b.size)).collect();
            let alg2 = balance_assignment(&BalanceInput {
                buckets: buckets.clone(),
                target: topo.clone(),
            })
            .expect("balance");
            let rr: BTreeMap<BucketId, PartitionId> = buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (b.bucket, parts[i % parts.len()]))
                .collect();
            BalanceQualityRow {
                skew,
                algorithm2: load_balance_factor(&alg2, &sizes, &topo),
                round_robin: load_balance_factor(&rr, &sizes, &topo),
            }
        })
        .collect()
}

// --------------------------------------------------------------- formatting

/// Renders ingestion rows as a markdown table.
pub fn format_fig6(rows: &[IngestionRow]) -> String {
    let mut s =
        String::from("| nodes | scheme | ingestion time (sim s) | records |\n|---|---|---|---|\n");
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {:.3} | {} |\n",
            r.nodes,
            r.scheme,
            r.minutes * 60.0,
            r.records
        ));
    }
    s
}

/// Renders rebalance rows as a markdown table.
pub fn format_fig7(rows: &[RebalanceRow]) -> String {
    let mut s = String::from(
        "| nodes | scheme | rebalance time (sim s) | moved fraction |\n|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {:.3} | {:.1}% |\n",
            r.nodes,
            r.scheme,
            r.minutes * 60.0,
            r.moved_fraction * 100.0
        ));
    }
    s
}

/// Renders concurrent-write rows as a markdown table.
pub fn format_fig7c(rows: &[ConcurrentWriteRow]) -> String {
    let mut s = String::from(
        "| write rate (krec/s) | rebalance time (sim s) | concurrent records |\n|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {:.0} | {:.3} | {} |\n",
            r.write_rate_krps,
            r.minutes * 60.0,
            r.concurrent_records
        ));
    }
    s
}

/// Renders query rows as a markdown table with one line per query and one
/// column per scheme.
pub fn format_query_rows(rows: &[QueryRow]) -> String {
    let mut schemes: Vec<String> = rows.iter().map(|r| r.scheme.clone()).collect();
    schemes.dedup();
    let mut s = String::from("| query |");
    for sc in &schemes {
        s.push_str(&format!(" {sc} (sim s) |"));
    }
    s.push_str(" scan-heavy |\n|---|");
    for _ in &schemes {
        s.push_str("---|");
    }
    s.push_str("---|\n");
    for q in 1..=NUM_QUERIES {
        s.push_str(&format!("| q{q} |"));
        let mut heavy = false;
        for sc in &schemes {
            if let Some(r) = rows.iter().find(|r| r.query == q && &r.scheme == sc) {
                s.push_str(&format!(" {:.4} |", r.seconds));
                heavy = r.scan_heavy;
            } else {
                s.push_str(" - |");
            }
        }
        s.push_str(&format!(" {} |\n", if heavy { "yes" } else { "" }));
    }
    s
}

/// Checks that every query produced the same answer under every scheme in
/// the given rows; returns the offending query numbers (empty = all agree).
pub fn answer_mismatches(rows: &[QueryRow]) -> Vec<usize> {
    let mut bad = Vec::new();
    for q in 1..=NUM_QUERIES {
        let answers: Vec<f64> = rows
            .iter()
            .filter(|r| r.query == q)
            .map(|r| r.answer)
            .collect();
        if answers
            .windows(2)
            .any(|w| (w[0] - w[1]).abs() > 1e-6 * w[0].abs().max(1.0))
        {
            bad.push(q);
        }
    }
    bad
}

// ------------------------------------------------------ scale study (PR 7)

/// One row of the memory-scale study: resident bytes per record of the
/// inline-key `Entry` layout vs the legacy layout that kept every key on
/// the heap, measured with [`StorageFootprint`] accounting on a loaded
/// cluster (deterministic — no wall clock involved).
///
/// [`StorageFootprint`]: dynahash_lsm::entry::StorageFootprint
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Key shape of this row.
    pub label: &'static str,
    /// Live records measured.
    pub records: u64,
    /// Resident bytes of the current layout (struct + key heap + values).
    pub resident_bytes: u64,
    /// Resident bytes the legacy layout (every key heap-allocated) would
    /// hold for the same data.
    pub legacy_bytes: u64,
    /// `resident_bytes / records`.
    pub bytes_per_record: f64,
    /// `legacy_bytes / records` — the pre-PR baseline the gate compares
    /// against.
    pub legacy_bytes_per_record: f64,
    /// Fraction of keys stored inline (no heap allocation).
    pub inline_fraction: f64,
}

/// Loads one DynaHash dataset per key shape — 8-byte production-style keys
/// (inline) and 40-byte keys (heap spill) — through sessions, then reads
/// the cluster-wide [`Admin::storage_stats`] footprint for each.
///
/// [`Admin::storage_stats`]: dynahash_cluster::Admin::storage_stats
pub fn scale_study(cfg: &ExperimentConfig) -> Vec<ScaleRow> {
    use dynahash_cluster::DatasetSpec;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    let records = (cfg.orders_per_node as u64) * 50;
    let nodes = 4;
    let mut cluster = cfg.cluster(nodes);
    let value = |i: u64| Bytes::from(vec![(i % 249) as u8; 24]);
    type KeyShape = (&'static str, fn(u64) -> Key);
    let shapes: [KeyShape; 2] = [
        ("short keys (8 B, inline)", Key::from_u64),
        ("long keys (40 B, heap)", |i| {
            let mut k = i.to_be_bytes().to_vec();
            k.resize(40, 0xab);
            Key::from_bytes(k)
        }),
    ];

    let mut rows = Vec::new();
    for (label, make_key) in shapes {
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                format!("scale_{}", rows.len()),
                cfg.dynahash_scheme(nodes),
            ))
            .expect("create scale dataset");
        cluster
            .session(ds)
            .expect("scale session")
            .ingest(&mut cluster, (0..records).map(|i| (make_key(i), value(i))))
            .expect("scale ingest");
        let fp = cluster.admin().storage_stats(ds).expect("storage stats");
        rows.push(ScaleRow {
            label,
            records: fp.records,
            resident_bytes: fp.resident_bytes(),
            legacy_bytes: fp.legacy_resident_bytes(),
            bytes_per_record: fp.resident_bytes() as f64 / fp.records.max(1) as f64,
            legacy_bytes_per_record: fp.legacy_resident_bytes() as f64 / fp.records.max(1) as f64,
            inline_fraction: fp.inline_keys as f64 / fp.records.max(1) as f64,
        });
    }
    rows
}

/// Renders scale rows as a markdown table.
pub fn format_scale(rows: &[ScaleRow]) -> String {
    let mut s = String::from(
        "| keys | records | bytes/record | legacy bytes/record | inline keys |\n|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {:.0}% |\n",
            r.label,
            r.records,
            r.bytes_per_record,
            r.legacy_bytes_per_record,
            r.inline_fraction * 100.0
        ));
    }
    s
}

/// Checks the PR 7 `scale` figure's gate. Returns the violations (empty =
/// gate passes). The accounting is deterministic, so the gate is exact: no
/// row may exceed the legacy (pre-PR) bytes-per-record baseline, and the
/// production 8-byte key shape must store every key inline and beat the
/// baseline strictly.
pub fn scale_gate_violations(rows: &[ScaleRow]) -> Vec<String> {
    let mut bad = Vec::new();
    if rows.is_empty() {
        bad.push("scale rows missing".to_string());
    }
    for r in rows {
        if r.records == 0 {
            bad.push(format!("{}: zero records measured", r.label));
        }
        if r.resident_bytes > r.legacy_bytes {
            bad.push(format!(
                "{}: resident {} bytes exceeds the legacy baseline {}",
                r.label, r.resident_bytes, r.legacy_bytes
            ));
        }
    }
    if let Some(short) = rows.iter().find(|r| r.label.starts_with("short")) {
        if short.inline_fraction < 1.0 {
            bad.push(format!(
                "short keys: only {:.1}% stored inline",
                short.inline_fraction * 100.0
            ));
        }
        if short.resident_bytes >= short.legacy_bytes {
            bad.push(format!(
                "short keys: resident {} bytes did not strictly beat the legacy \
                 baseline {}",
                short.resident_bytes, short.legacy_bytes
            ));
        }
    } else {
        bad.push("short-key scale row missing".to_string());
    }
    bad
}

// ------------------------------------------------------ fault study (PR 8)

/// One row of the `faults` figure: the same seeded rebalance (same data,
/// same topology change) driven under one fault regime, compared against
/// the fault-free oracle row.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Fault regime of this row.
    pub label: &'static str,
    /// True when the job committed (the fault plane must never abort it).
    pub committed: bool,
    /// Simulated makespan of the rebalance.
    pub makespan: SimDuration,
    /// Transfer attempts retried after an injected transient failure.
    pub retries: u64,
    /// Moves rerouted or canceled by re-planning around a lost node.
    pub reroutes: u64,
    /// Live records after the rebalance.
    pub records: u64,
    /// FNV-1a checksum over the sorted (key, value) contents — placement
    /// may legally differ after a re-plan, record contents may not.
    pub checksum: u64,
}

/// FNV-1a over the dataset's sorted (key, value) pairs, via a fresh
/// session scan.
fn dataset_contents_checksum(cluster: &Cluster, ds: dynahash_cluster::DatasetId) -> (u64, u64) {
    let mut session = cluster.session(ds).expect("fault checksum session");
    let (contents, _) = session
        .collect_records(cluster)
        .expect("fault checksum scan");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (k, v) in &contents {
        absorb(k.as_slice());
        absorb(v.as_ref());
    }
    (contents.len() as u64, h)
}

/// Runs the identical seeded rebalance (grow by one node) under four fault
/// regimes: no schedule installed (the oracle), an installed-but-empty
/// schedule (must be byte-identical to the oracle — the fault-free gate),
/// transient ship failures capped below the retry budget (absorbed, same
/// contents, makespan pays the backoff), and the permanent loss of the new
/// node after the first wave (re-planned, committed, same contents).
pub fn fault_study(cfg: &ExperimentConfig) -> Vec<FaultRow> {
    use dynahash_cluster::{DatasetSpec, FaultSchedule, WaveFault};
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    let nodes = 4;
    let records = (cfg.orders_per_node as u64) * 40;
    let value = |i: u64| Bytes::from(vec![(i % 249) as u8; 24]);
    let regimes: [(&'static str, u8); 4] = [
        ("fault-free oracle", 0),
        ("empty schedule", 1),
        ("transient faults", 2),
        ("node loss", 3),
    ];

    let mut rows = Vec::new();
    for (label, regime) in regimes {
        let mut cluster = cfg.cluster(nodes);
        let ds = cluster
            .create_dataset(DatasetSpec::new("faults", cfg.dynahash_scheme(nodes)))
            .expect("create faults dataset");
        cluster
            .session(ds)
            .expect("faults session")
            .ingest(
                &mut cluster,
                (0..records).map(|i| (Key::from_u64(i), value(i))),
            )
            .expect("faults ingest");
        let new_node = cluster.add_node().expect("faults add_node");
        match regime {
            1 => cluster.set_fault_plane(FaultSchedule::none()),
            2 => cluster.set_fault_plane(FaultSchedule::seeded(0xfa_2026).with_transient(600, 2)),
            3 => cluster.set_fault_plane(
                FaultSchedule::seeded(0xfa_2026).with_wave_fault(0, WaveFault::Lose(new_node)),
            ),
            _ => {}
        }
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(
                ds,
                &target,
                RebalanceOptions::none().with_max_concurrent_moves(2),
            )
            .expect("the fault plane must never abort the rebalance");
        if regime == 3 {
            cluster
                .remove_lost_node(new_node)
                .expect("remove the lost node");
        }
        let (live, checksum) = dataset_contents_checksum(&cluster, ds);
        rows.push(FaultRow {
            label,
            committed: report.outcome == dynahash_core::RebalanceOutcome::Committed,
            makespan: report.elapsed,
            retries: report.retries,
            reroutes: report.reroutes,
            records: live,
            checksum,
        });
    }
    rows
}

/// Renders fault rows as a markdown table.
pub fn format_faults(rows: &[FaultRow]) -> String {
    let mut s = String::from(
        "| regime | committed | makespan (ms) | retries | reroutes | records | checksum |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {:.3} | {} | {} | {} | {:#018x} |\n",
            r.label,
            r.committed,
            r.makespan.as_nanos() as f64 / 1e6,
            r.retries,
            r.reroutes,
            r.records,
            r.checksum
        ));
    }
    s
}

/// Checks the `faults` figure's gate. The comparisons are against the
/// oracle row and exact (the executor is deterministic): an empty schedule
/// must be byte-identical to no schedule, transients must be absorbed by
/// retry with identical final contents, and a node loss must commit via
/// re-planning — again with identical record contents.
pub fn fault_gate_violations(rows: &[FaultRow]) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(oracle) = rows.iter().find(|r| r.label.starts_with("fault-free")) else {
        bad.push("fault-free oracle row missing".to_string());
        return bad;
    };
    for r in rows {
        if !r.committed {
            bad.push(format!("{}: the rebalance did not commit", r.label));
        }
        if r.records != oracle.records || r.checksum != oracle.checksum {
            bad.push(format!(
                "{}: contents diverged from the oracle ({} records, checksum \
                 {:#x}; oracle has {} and {:#x})",
                r.label, r.records, r.checksum, oracle.records, oracle.checksum
            ));
        }
    }
    if let Some(empty) = rows.iter().find(|r| r.label.starts_with("empty")) {
        if empty.makespan != oracle.makespan || empty.retries != 0 || empty.reroutes != 0 {
            bad.push(format!(
                "empty schedule is not byte-identical to the oracle \
                 (makespan {} vs {}, {} retries, {} reroutes)",
                empty.makespan.as_nanos(),
                oracle.makespan.as_nanos(),
                empty.retries,
                empty.reroutes
            ));
        }
    } else {
        bad.push("empty-schedule row missing".to_string());
    }
    if let Some(transient) = rows.iter().find(|r| r.label.starts_with("transient")) {
        if transient.retries == 0 {
            bad.push("transient regime injected no faults".to_string());
        }
        if transient.makespan < oracle.makespan {
            bad.push("transient regime was faster than the oracle".to_string());
        }
    } else {
        bad.push("transient row missing".to_string());
    }
    if let Some(loss) = rows.iter().find(|r| r.label.starts_with("node loss")) {
        if loss.reroutes == 0 {
            bad.push("node-loss regime re-planned nothing".to_string());
        }
    } else {
        bad.push("node-loss row missing".to_string());
    }
    bad
}

// ---------------------------------------------------- control study (PR 9)

/// Tick budget the armed control plane gets to converge in [`control_study`].
/// The loop typically needs two trigger cycles: the first auto-job balances
/// the heat-weighted load as of its trigger tick, and once the query heat
/// decays the residual byte imbalance resurfaces and a second cycle (after
/// the cooldown and hysteresis windows) settles it.
pub const CONTROL_CONVERGENCE_TICKS: u64 = 120;

/// One row of the `control` figure: the identical seeded workload — skewed
/// ingest, a two-key query hotspot, then two empty nodes joining — observed
/// under one control-plane regime.
#[derive(Debug, Clone)]
pub struct ControlRow {
    /// Control-plane regime of this row.
    pub label: &'static str,
    /// Control ticks executed (0 for the disarmed rows).
    pub ticks: u64,
    /// Rebalances auto-triggered.
    pub triggers: u64,
    /// Decisions suppressed by hysteresis or cooldown.
    pub suppressed: u64,
    /// Auto-triggered rebalances that committed.
    pub committed: u64,
    /// Hot buckets split over the heat budget.
    pub hot_splits: u64,
    /// Heat-weighted max-deviation imbalance right after the empty nodes
    /// joined (what the plane faces).
    pub imbalance_start: f64,
    /// Imbalance at the end of the row.
    pub imbalance_end: f64,
    /// The armed plane's imbalance threshold (copied into every row so the
    /// gate needs no out-of-band constant).
    pub threshold: f64,
    /// Most buckets any migration window shipped.
    pub max_window_buckets: usize,
    /// Most bytes any migration window shipped.
    pub max_window_bytes: u64,
    /// The budget's per-window bucket cap.
    pub budget_buckets: usize,
    /// The budget's per-window byte cap.
    pub budget_bytes: u64,
    /// Live records at the end.
    pub records: u64,
    /// FNV-1a checksum over the sorted (key, value) contents.
    pub checksum: u64,
    /// Resident storage bytes at the end.
    pub resident_bytes: u64,
}

/// Runs the identical seeded workload under three control regimes: heat
/// tracking never armed (the baseline), armed-then-disarmed before any work
/// (must be byte-identical to the baseline — the disarmed gate), and armed
/// with the decision loop ticking (must auto-split the hot buckets,
/// auto-trigger a migration onto the empty nodes after the hysteresis
/// window, respect the per-window budget, and converge below the threshold
/// within [`CONTROL_CONVERGENCE_TICKS`]).
pub fn control_study(cfg: &ExperimentConfig) -> Vec<ControlRow> {
    use dynahash_cluster::{ControlConfig, ControlPlane, DatasetSpec};
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    let nodes = 4;
    // Enough records that buckets are fine-grained relative to partitions —
    // the achievable post-rebalance imbalance is roughly one bucket's share
    // of a partition, and the gate needs that well below the threshold.
    let records = (cfg.orders_per_node as u64) * 160;
    let value = |i: u64| Bytes::from(vec![(i % 249) as u8; 24]);
    let control_config = ControlConfig::default();
    let regimes: [(&'static str, u8); 3] = [
        ("never armed", 0),
        ("armed then disarmed", 1),
        ("armed + decision loop", 2),
    ];

    let mut rows = Vec::new();
    for (label, regime) in regimes {
        let mut cluster = cfg.cluster(nodes);
        match regime {
            1 => {
                // Arm/disarm must leave no trace on anything measured below.
                cluster.set_heat_tracking(true);
                cluster.set_heat_tracking(false);
            }
            2 => cluster.set_heat_tracking(true),
            _ => {}
        }
        let ds = cluster
            .create_dataset(DatasetSpec::new("control", cfg.dynahash_scheme(nodes)))
            .expect("create control dataset");
        let mut session = cluster.session(ds).expect("control session");
        session
            .ingest(
                &mut cluster,
                (0..records).map(|i| (Key::from_u64(i), value(i))),
            )
            .expect("control ingest");
        // The query hotspot: two keys hammered hard enough that their
        // buckets cross the hot-bucket op budget when heat is armed.
        for _ in 0..2_000 {
            for key in [3u64, 11] {
                session.get(&cluster, &Key::from_u64(key)).expect("hot get");
            }
        }
        // Two empty nodes join; nobody moves data onto them except the
        // armed control plane.
        cluster.add_node().expect("control add_node");
        cluster.add_node().expect("control add_node");

        let imbalance_of = |cluster: &mut Cluster| {
            cluster
                .admin()
                .heat(ds)
                .expect("control heat report")
                .imbalance(control_config.op_weight_bytes)
        };
        let imbalance_start = imbalance_of(&mut cluster);

        let mut ticks = 0;
        let mut plane = (regime == 2).then(|| ControlPlane::new(control_config));
        if let Some(plane) = plane.as_mut() {
            while ticks < CONTROL_CONVERGENCE_TICKS {
                let report = plane.tick(&mut cluster).expect("control tick");
                ticks += 1;
                if !report.job_in_flight
                    && imbalance_of(&mut cluster) <= control_config.imbalance_threshold
                {
                    break;
                }
            }
        }

        let imbalance_end = imbalance_of(&mut cluster);
        let status = plane.as_ref().map(|p| p.status());
        let peak = status
            .as_ref()
            .map(|s| s.max_window_usage())
            .unwrap_or_default();
        let (live, checksum) = dataset_contents_checksum(&cluster, ds);
        let resident = cluster
            .admin()
            .storage_stats(ds)
            .map(|fp| fp.logical_bytes)
            .unwrap_or(0);
        rows.push(ControlRow {
            label,
            ticks,
            triggers: status.as_ref().map_or(0, |s| s.triggers),
            suppressed: status
                .as_ref()
                .map_or(0, |s| s.suppressed_hysteresis + s.suppressed_cooldown),
            committed: status.as_ref().map_or(0, |s| s.committed_jobs),
            hot_splits: status.as_ref().map_or(0, |s| s.hot_splits),
            imbalance_start,
            imbalance_end,
            threshold: control_config.imbalance_threshold,
            max_window_buckets: peak.buckets,
            max_window_bytes: peak.bytes,
            budget_buckets: control_config.budget.max_buckets_per_window,
            budget_bytes: control_config.budget.max_bytes_per_window,
            records: live,
            checksum,
            resident_bytes: resident,
        });
    }
    rows
}

/// Renders control rows as a markdown table.
pub fn format_control(rows: &[ControlRow]) -> String {
    let mut s = String::from(
        "| regime | ticks | triggers | suppressed | committed | hot splits | \
         imbalance start → end | peak window (buckets / bytes) | records | checksum |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.3} → {:.3} | {} / {} | {} | {:#018x} |\n",
            r.label,
            r.ticks,
            r.triggers,
            r.suppressed,
            r.committed,
            r.hot_splits,
            r.imbalance_start,
            r.imbalance_end,
            r.max_window_buckets,
            r.max_window_bytes,
            r.records,
            r.checksum
        ));
    }
    s
}

/// Checks the `control` figure's gate. Everything here is simulated time
/// and byte accounting — deterministic, so violations fail immediately:
/// the two disarmed rows must be identical in every measured dimension
/// (the disarmed data path is byte-identical to a build without the control
/// plane), and the armed row must converge below the threshold within the
/// tick budget, via at least one hysteresis-suppressed decision and one
/// committed auto-rebalance, never exceeding the per-window migration
/// budget — all while leaving record contents identical to the baseline.
pub fn control_gate_violations(rows: &[ControlRow]) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(base) = rows.iter().find(|r| r.label.starts_with("never")) else {
        bad.push("never-armed baseline row missing".to_string());
        return bad;
    };
    if base.imbalance_start <= base.threshold {
        bad.push(format!(
            "baseline imbalance {:.3} does not exceed the threshold {:.3} — \
             the workload gives the plane nothing to do",
            base.imbalance_start, base.threshold
        ));
    }
    match rows.iter().find(|r| r.label.starts_with("armed then")) {
        Some(disarmed) => {
            let identical = disarmed.records == base.records
                && disarmed.checksum == base.checksum
                && disarmed.resident_bytes == base.resident_bytes
                && disarmed.imbalance_start == base.imbalance_start
                && disarmed.imbalance_end == base.imbalance_end
                && disarmed.triggers == 0
                && disarmed.hot_splits == 0;
            if !identical {
                bad.push(format!(
                    "arm/disarm left a trace: {disarmed:?} differs from the \
                     never-armed baseline {base:?}"
                ));
            }
        }
        None => bad.push("armed-then-disarmed row missing".to_string()),
    }
    match rows.iter().find(|r| r.label.starts_with("armed +")) {
        Some(armed) => {
            if armed.triggers == 0 {
                bad.push("armed plane never auto-triggered".to_string());
            }
            if armed.suppressed == 0 {
                bad.push("hysteresis never suppressed a decision".to_string());
            }
            if armed.committed == 0 {
                bad.push("no auto-triggered rebalance committed".to_string());
            }
            if armed.hot_splits == 0 {
                bad.push("the query hotspot split no buckets".to_string());
            }
            if armed.ticks > CONTROL_CONVERGENCE_TICKS {
                bad.push(format!(
                    "armed plane used {} ticks (budget {})",
                    armed.ticks, CONTROL_CONVERGENCE_TICKS
                ));
            }
            if armed.imbalance_end > armed.threshold {
                bad.push(format!(
                    "armed plane left imbalance {:.3} above the threshold {:.3}",
                    armed.imbalance_end, armed.threshold
                ));
            }
            if armed.max_window_buckets > armed.budget_buckets
                || armed.max_window_bytes > armed.budget_bytes
            {
                bad.push(format!(
                    "migration budget exceeded: window shipped {} buckets / {} \
                     bytes (budget {} / {})",
                    armed.max_window_buckets,
                    armed.max_window_bytes,
                    armed.budget_buckets,
                    armed.budget_bytes
                ));
            }
            if armed.records != base.records || armed.checksum != base.checksum {
                bad.push(format!(
                    "auto-rebalancing changed record contents ({} records, \
                     checksum {:#x}; baseline has {} and {:#x})",
                    armed.records, armed.checksum, base.records, base.checksum
                ));
            }
        }
        None => bad.push("armed row missing".to_string()),
    }
    bad
}

// --------------------------------------------------- recovery study (PR 10)

/// One row of the `recovery` figure: either a straggler arm (the identical
/// seeded scale-out with one badly slow source node, with and without
/// speculative re-execution) or a repair arm (a dataset that never lost a
/// node vs. its twin that lost an established node and was repaired from
/// the original feed).
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Arm of this row.
    pub label: &'static str,
    /// True when the rebalance/repair committed.
    pub committed: bool,
    /// Simulated makespan of the rebalance (or repair; zero for the
    /// loss-free oracle, which runs none).
    pub makespan: SimDuration,
    /// Transfer legs shipped a second time by speculation.
    pub speculated: u64,
    /// Speculative backups that strictly beat the original leg.
    pub speculation_wins: u64,
    /// Lost buckets a repair restored.
    pub repaired_buckets: u64,
    /// Live records at the end.
    pub records: u64,
    /// FNV-1a checksum over the sorted (key, value) contents.
    pub checksum: u64,
}

/// Runs the two recovery-plane experiments. Straggler arm: the identical
/// seeded scale-out with one source node slowed 50×, without and with
/// [`SpeculationPolicy`] — speculation must strictly shorten the makespan
/// while leaving record contents byte-identical. Repair arm: a dataset
/// whose cluster never loses a node vs. its twin that permanently loses an
/// established node (degrading that node's resident buckets) and is
/// repaired from the original feed — the repaired dataset must be
/// byte-identical to the never-lost oracle.
pub fn recovery_study(cfg: &ExperimentConfig) -> Vec<RecoveryRow> {
    use dynahash_cluster::{DatasetSpec, FaultSchedule, SpeculationPolicy};
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    let nodes = 4;
    let records = (cfg.orders_per_node as u64) * 40;
    let value = |i: u64| Bytes::from(vec![(i % 249) as u8; 24]);
    let load = |cluster: &mut Cluster| {
        let ds = cluster
            .create_dataset(DatasetSpec::new("recovery", cfg.dynahash_scheme(nodes)))
            .expect("create recovery dataset");
        cluster
            .session(ds)
            .expect("recovery session")
            .ingest(cluster, (0..records).map(|i| (Key::from_u64(i), value(i))))
            .expect("recovery ingest");
        ds
    };

    let mut rows = Vec::new();

    for (label, policy) in [
        ("speculation off", SpeculationPolicy::disabled()),
        ("speculation on", SpeculationPolicy::default()),
    ] {
        let mut cluster = cfg.cluster(nodes);
        let ds = load(&mut cluster);
        cluster.add_node().expect("recovery add_node");
        let target = cluster.topology().clone();
        let mut job =
            RebalanceJob::plan(&mut cluster, ds, &target, 4).expect("plan recovery rebalance");
        // Slow the node sourcing the first planned move, so the straggler
        // is guaranteed to sit on the critical path.
        let slow = cluster
            .node_of_partition(job.waves()[0][0].from)
            .expect("slow node of first move");
        cluster.set_fault_plane(FaultSchedule::seeded(0x5bec_2026).with_slow_node(slow, 50));
        job.set_speculation(policy);
        let report = job
            .drive_to_completion(&mut cluster)
            .expect("recovery rebalance");
        let speculated = job.speculated();
        let wins = job.speculation_wins();
        cluster.clear_fault_plane();
        let (live, checksum) = dataset_contents_checksum(&cluster, ds);
        rows.push(RecoveryRow {
            label,
            committed: report.outcome == dynahash_core::RebalanceOutcome::Committed,
            makespan: report.elapsed,
            speculated,
            speculation_wins: wins,
            repaired_buckets: 0,
            records: live,
            checksum,
        });
    }

    let mut oracle = cfg.cluster(nodes);
    let ds = load(&mut oracle);
    let (live, checksum) = dataset_contents_checksum(&oracle, ds);
    rows.push(RecoveryRow {
        label: "never-lost oracle",
        committed: true,
        makespan: SimDuration::ZERO,
        speculated: 0,
        speculation_wins: 0,
        repaired_buckets: 0,
        records: live,
        checksum,
    });

    let mut cluster = cfg.cluster(nodes);
    let ds = load(&mut cluster);
    let victim = cluster.topology().nodes()[0];
    cluster.lose_node(victim).expect("lose an established node");
    let feed: Vec<(Key, Bytes)> = (0..records).map(|i| (Key::from_u64(i), value(i))).collect();
    let report = cluster
        .admin()
        .repair_dataset(ds, &feed)
        .expect("repair the degraded dataset")
        .expect("losing an established node degrades the dataset");
    cluster
        .remove_lost_node(victim)
        .expect("remove the lost node");
    let (live, checksum) = dataset_contents_checksum(&cluster, ds);
    rows.push(RecoveryRow {
        label: "lost + repaired",
        committed: report.outcome == dynahash_core::RebalanceOutcome::Committed,
        makespan: report.elapsed,
        speculated: 0,
        speculation_wins: 0,
        repaired_buckets: report.buckets_moved as u64,
        records: live,
        checksum,
    });

    rows
}

/// Renders recovery rows as a markdown table.
pub fn format_recovery(rows: &[RecoveryRow]) -> String {
    let mut s = String::from(
        "| arm | committed | makespan (ms) | speculated | wins | repaired | \
         records | checksum |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {:.3} | {} | {} | {} | {} | {:#018x} |\n",
            r.label,
            r.committed,
            r.makespan.as_nanos() as f64 / 1e6,
            r.speculated,
            r.speculation_wins,
            r.repaired_buckets,
            r.records,
            r.checksum
        ));
    }
    s
}

/// Checks the `recovery` figure's gate — everything is simulated time and
/// byte accounting, so the comparisons are exact: speculation must launch
/// backups that win and strictly shorten the makespan without touching
/// record contents, and the repaired dataset must be byte-identical to the
/// never-lost oracle.
pub fn recovery_gate_violations(rows: &[RecoveryRow]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in rows {
        if !r.committed {
            bad.push(format!("{}: did not commit", r.label));
        }
    }
    match (
        rows.iter().find(|r| r.label == "speculation off"),
        rows.iter().find(|r| r.label == "speculation on"),
    ) {
        (Some(off), Some(on)) => {
            if off.speculated != 0 || off.speculation_wins != 0 {
                bad.push(format!(
                    "disabled policy still speculated ({} legs, {} wins)",
                    off.speculated, off.speculation_wins
                ));
            }
            if on.speculated == 0 {
                bad.push("speculation never launched a backup".to_string());
            }
            if on.speculation_wins == 0 {
                bad.push("no speculative backup beat the 50× straggler".to_string());
            }
            if on.makespan >= off.makespan {
                bad.push(format!(
                    "speculation did not shorten the makespan ({} ns vs {} ns)",
                    on.makespan.as_nanos(),
                    off.makespan.as_nanos()
                ));
            }
            if on.records != off.records || on.checksum != off.checksum {
                bad.push(format!(
                    "speculation changed record contents ({} records, checksum \
                     {:#x}; without it {} and {:#x})",
                    on.records, on.checksum, off.records, off.checksum
                ));
            }
        }
        _ => bad.push("a speculation arm is missing".to_string()),
    }
    match (
        rows.iter().find(|r| r.label == "never-lost oracle"),
        rows.iter().find(|r| r.label == "lost + repaired"),
    ) {
        (Some(oracle), Some(repaired)) => {
            if repaired.repaired_buckets == 0 {
                bad.push("losing an established node degraded no buckets".to_string());
            }
            if repaired.records != oracle.records || repaired.checksum != oracle.checksum {
                bad.push(format!(
                    "repair left the dataset different from the never-lost \
                     oracle ({} records, checksum {:#x}; oracle has {} and {:#x})",
                    repaired.records, repaired.checksum, oracle.records, oracle.checksum
                ));
            }
        }
        _ => bad.push("a repair arm is missing".to_string()),
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            orders_per_node: 60,
            partitions_per_node: 2,
        }
    }

    #[test]
    fn fig6_shapes_hold_at_tiny_scale() {
        let rows = fig6_ingestion(&tiny(), &[2]);
        assert_eq!(rows.len(), 3);
        // every scheme ingests the same number of records
        assert!(rows.windows(2).all(|w| w[0].records == w[1].records));
        // bucketing overhead stays small (within 2x of Hashing)
        let hashing = rows.iter().find(|r| r.scheme == "Hashing").unwrap().minutes;
        for r in &rows {
            assert!(r.minutes <= hashing * 2.0 + 1e-9, "{} too slow", r.scheme);
        }
        assert!(format_fig6(&rows).contains("DynaHash"));
    }

    #[test]
    fn fig7_bucketing_beats_hashing() {
        let rows = fig7_rebalance(&tiny(), &[2], RebalanceDirection::RemoveNode);
        let hashing = rows.iter().find(|r| r.scheme == "Hashing").unwrap();
        let dyna = rows.iter().find(|r| r.scheme == "DynaHash").unwrap();
        assert!(dyna.minutes < hashing.minutes);
        assert!(dyna.moved_fraction < hashing.moved_fraction);
        assert!(hashing.moved_fraction > 0.8);
        assert!(format_fig7(&rows).contains("StaticHash"));
    }

    #[test]
    fn fig7c_time_grows_with_write_rate() {
        let rows = fig7c_concurrent_writes(&tiny(), &[0.0, 2.0]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].minutes >= rows[0].minutes);
        assert!(rows[1].concurrent_records > 0);
        assert!(format_fig7c(&rows).contains("krec"));
    }

    #[test]
    fn parallel_waves_beat_serial_makespan() {
        let rows = rebalance_wave_scaling(&tiny(), &[1, 4]);
        assert_eq!(rows.len(), 2);
        let (serial, parallel) = (&rows[0], &rows[1]);
        assert_eq!(serial.buckets_moved, parallel.buckets_moved);
        assert!(parallel.waves < serial.waves);
        assert!(
            parallel.movement_minutes < serial.movement_minutes,
            "parallel movement {} !< serial {}",
            parallel.movement_minutes,
            serial.movement_minutes
        );
        assert!(parallel.minutes < serial.minutes);
        assert!(format_waves(&rows).contains("moves/wave"));
    }

    #[test]
    fn component_shipping_beats_record_movement() {
        let rows = move_policy_comparison(&tiny());
        assert_eq!(rows.len(), 2);
        let records = rows.iter().find(|r| r.policy == "Records").unwrap();
        let components = rows.iter().find(|r| r.policy == "Components").unwrap();
        assert_eq!(records.buckets_moved, components.buckets_moved);
        assert_eq!(records.records_moved, components.records_moved);
        assert_eq!(
            records.content_checksum, components.content_checksum,
            "both policies must leave byte-identical contents"
        );
        assert!(
            components.movement_minutes < records.movement_minutes,
            "component shipping must beat record movement: {} !< {}",
            components.movement_minutes,
            records.movement_minutes
        );
        assert!(components.minutes < records.minutes);
        assert!(format_move_policy(&rows).contains("Components"));
    }

    #[test]
    fn session_routing_study_passes_its_gate() {
        let rows = session_routing_study(&tiny());
        assert_eq!(rows.len(), 3);
        let violations = routing_gate_violations(&rows);
        // the wall-clock overhead arm can flake on a loaded CI box; every
        // deterministic condition must hold unconditionally
        let deterministic: Vec<&String> = violations
            .iter()
            .filter(|v| !v.contains("overhead"))
            .collect();
        assert!(
            deterministic.is_empty(),
            "gate violations: {deterministic:?}"
        );
        let after = rows.iter().find(|r| r.phase == "after").unwrap();
        assert!(after.redirects >= 1);
        assert!(
            after.delta_refreshes >= 1,
            "commits should fit the delta log"
        );
        assert!(format_routing(&rows).contains("redirects"));
    }

    #[test]
    fn directory_lookup_slot_array_beats_the_scan_at_scale() {
        let rows = directory_lookup_study(&[16, 256]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.slot_ns_per_lookup > 0.0);
            assert!(r.scan_ns_per_lookup > 0.0);
        }
        let big = rows.iter().find(|r| r.buckets == 256).unwrap();
        assert!(
            big.slot_ns_per_lookup < big.scan_ns_per_lookup,
            "slot array must beat the scan at 256 buckets: {:.1} !< {:.1}",
            big.slot_ns_per_lookup,
            big.scan_ns_per_lookup
        );
        assert!(format_lookup(&rows).contains("speedup"));
    }

    #[test]
    fn deferred_install_study_passes_its_gate() {
        let deferred = deferred_install_study(&tiny());
        assert_eq!(deferred.len(), 2);
        let eager = deferred.iter().find(|r| r.mode == "Eager").unwrap();
        let lazy = deferred.iter().find(|r| r.mode == "Deferred").unwrap();
        assert_eq!(eager.records_moved, lazy.records_moved);
        assert_eq!(eager.index_checksum, lazy.index_checksum);
        assert!(lazy.warmed_records > 0, "nothing was actually deferred");
        assert_eq!(eager.warmed_records, 0);
        assert!(
            lazy.movement_minutes < eager.movement_minutes,
            "deferred install must beat eager on wave makespan: {} !< {}",
            lazy.movement_minutes,
            eager.movement_minutes
        );
        // the full gate (timing arm excluded) holds on the tiny config
        let violations = lookup_gate_violations(&[], &deferred);
        assert!(violations.is_empty(), "gate violations: {violations:?}");
        assert!(format_deferred_install(&deferred).contains("Deferred"));
    }

    #[test]
    fn ablation_storage_option3_reads_less() {
        let rows = ablation_storage_options(2000);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].bucket_move_read_bytes < rows[0].bucket_move_read_bytes / 2);
    }

    #[test]
    fn ablation_balance_quality_improves_on_round_robin() {
        let rows = ablation_balance_quality(&[1, 4, 16]);
        for r in &rows {
            assert!(r.algorithm2 <= r.round_robin + 1e-9, "skew {}", r.skew);
        }
    }

    #[test]
    fn scale_study_gate_passes_and_inline_keys_save_memory() {
        let rows = scale_study(&tiny());
        let violations = scale_gate_violations(&rows);
        assert!(violations.is_empty(), "gate violations: {violations:?}");
        let short = &rows[0];
        // inline keys save exactly the key heap bytes: 8 per record
        assert_eq!(short.legacy_bytes - short.resident_bytes, short.records * 8);
        assert!(format_scale(&rows).contains("inline"));
    }

    #[test]
    fn recovery_study_passes_its_gate() {
        let rows = recovery_study(&tiny());
        assert_eq!(rows.len(), 4);
        let violations = recovery_gate_violations(&rows);
        assert!(violations.is_empty(), "gate violations: {violations:?}");
        let on = rows.iter().find(|r| r.label == "speculation on").unwrap();
        assert!(on.speculation_wins > 0);
        let repaired = rows.iter().find(|r| r.label == "lost + repaired").unwrap();
        assert!(repaired.repaired_buckets > 0);
        assert!(format_recovery(&rows).contains("never-lost oracle"));
    }

    #[test]
    fn control_study_passes_its_gate() {
        let rows = control_study(&tiny());
        assert_eq!(rows.len(), 3);
        let violations = control_gate_violations(&rows);
        assert!(violations.is_empty(), "gate violations: {violations:?}");
        let armed = rows
            .iter()
            .find(|r| r.label.starts_with("armed +"))
            .unwrap();
        assert!(armed.ticks < CONTROL_CONVERGENCE_TICKS, "no headroom left");
        assert!(format_control(&rows).contains("decision loop"));
    }
}
