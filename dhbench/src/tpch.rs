//! `tpch-downsized`: one closed-loop analyst. Set-up loads TPC-H (generated
//! from the seed) onto 4 nodes with DynaHash, records the Q1–Q22 answers,
//! and scales the cluster in to 3 nodes with one step-driven `RebalanceJob`
//! per table. The timed
//! phase runs passes of Q1–Q22 in fixed order and checks every answer
//! against the answers recorded before the scale-in.

use dynahash_bench::ExperimentConfig;
use dynahash_cluster::{Cluster, ClusterConfig, CostModel, DatasetId};
use dynahash_core::NodeId;
use dynahash_tpch::{load_tpch, run_query, TpchScale, TpchTables, NUM_QUERIES};

use crate::clock::{median, quantile, sorted, timed, Clock};
use crate::common::{self, LsmCounters, Metrics, Tally};
use crate::job::{JobTotals, Stepper};
use crate::{Outcome, Overhead};

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// Nodes loaded; the set-up scales in to one fewer.
    pub nodes: u32,
    /// TPC-H orders per node (the paper scales data with cluster size).
    pub orders_per_node: usize,
    /// Storage partitions per node.
    pub partitions_per_node: u32,
    /// Times the set-up runs; the last one serves the timed phase.
    pub setups: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Size {
            nodes: 4,
            orders_per_node: 1_000,
            partitions_per_node: 4,
            setups: 5,
        }
    }

    /// The smallest size, for tests.
    pub fn tiny() -> Self {
        Size {
            orders_per_node: 60,
            partitions_per_node: 2,
            setups: 1,
            ..Size::full()
        }
    }
}

const QUERY_CALLS: [&str; NUM_QUERIES] = [
    "query.q01",
    "query.q02",
    "query.q03",
    "query.q04",
    "query.q05",
    "query.q06",
    "query.q07",
    "query.q08",
    "query.q09",
    "query.q10",
    "query.q11",
    "query.q12",
    "query.q13",
    "query.q14",
    "query.q15",
    "query.q16",
    "query.q17",
    "query.q18",
    "query.q19",
    "query.q20",
    "query.q21",
    "query.q22",
];

struct State {
    cluster: Cluster,
    tables: TpchTables,
    /// Q1–Q22 answers on the original cluster.
    answers: Vec<f64>,
    load_ns: f64,
    /// Wall seconds of the scale-in, plan to decommission.
    rebalance_s: f64,
    jobs: JobTotals,
    /// Records moved over records stored, all tables.
    moved_fraction: f64,
    /// Resident bytes per live record after the load, before the scale-in.
    bytes_per_record: f64,
}

fn datasets(t: &TpchTables) -> [DatasetId; 8] {
    [
        t.lineitem, t.orders, t.customer, t.part, t.supplier, t.partsupp, t.nation, t.region,
    ]
}

/// The tolerance of the experiment harness's `answer_mismatches`.
fn same_answer(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(1.0)
}

fn run_all(cluster: &mut Cluster, tables: &TpchTables) -> Result<Vec<f64>, String> {
    (1..=NUM_QUERIES)
        .map(|n| {
            let mut exec = cluster.query();
            run_query(n, &mut exec, tables).map_err(|e| format!("q{n}: {e}"))
        })
        .collect()
}

fn setup(size: &Size, seed: u64, clock: &mut Clock) -> Result<State, String> {
    let cfg = ExperimentConfig {
        orders_per_node: size.orders_per_node,
        partitions_per_node: size.partitions_per_node,
    };
    let mut cluster = Cluster::with_config(
        size.nodes,
        ClusterConfig {
            partitions_per_node: size.partitions_per_node,
            cost_model: CostModel::default(),
        },
    );
    let scale = TpchScale {
        seed,
        ..TpchScale::per_node(size.orders_per_node, size.nodes as usize)
    };
    let (loaded, load_ns) = clock.call("tpch.load", || {
        load_tpch(&mut cluster, cfg.dynahash_scheme(size.nodes), scale)
    });
    let (tables, _, _) = loaded.map_err(|e| format!("load_tpch: {e}"))?;
    let answers = run_all(&mut cluster, &tables)?;

    let bytes_per_record = common::bytes_per_record(&mut cluster, &datasets(&tables))?;
    let victim = NodeId(size.nodes - 1);
    let target = cluster.topology_without(victim);
    let start = clock.now_ns();
    let mut jobs = JobTotals::default();
    let mut stored = 0usize;
    for ds in datasets(&tables) {
        stored += cluster.dataset_len(ds).map_err(|e| e.to_string())?;
        let mut job = Stepper::new(ds, target.clone());
        let report = job.finish(clock, &mut cluster)?;
        jobs.add(&report, job.waves());
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .map_err(|e| format!("integrity of dataset {ds}: {e}"))?;
    }
    clock
        .call("cluster.decommission_node", || {
            cluster.decommission_node(victim)
        })
        .0
        .map_err(|e| format!("decommission {victim}: {e}"))?;
    let rebalance_s = (clock.now_ns() - start) / 1e9;
    let moved_fraction = common::ratio(jobs.records_moved as f64, stored as f64);
    Ok(State {
        cluster,
        tables,
        answers,
        load_ns,
        rebalance_s,
        jobs,
        moved_fraction,
        bytes_per_record,
    })
}

/// Runs the workload. `corrupt` changes one recorded answer after set-up
/// (the self-test of the checks).
pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    // Job and membership calls of the set-up that serves the timed phase.
    let mut setup_clock = Clock::new(trace);
    let set_up = common::repeat_setup(size.setups, || {
        setup_clock = Clock::new(trace);
        setup(size, seed, &mut setup_clock)
    });
    let (mut st, setup_s) = match set_up {
        Ok(x) => x,
        Err(e) => {
            out.tally.fail("setup", e);
            return out;
        }
    };
    let mut tally = Tally::default();
    // The scale-in must leave every answer unchanged.
    match run_all(&mut st.cluster, &st.tables) {
        Ok(after) => {
            for (n, (a, b)) in st.answers.iter().zip(&after).enumerate() {
                if same_answer(*a, *b) {
                    tally.ok("verify");
                } else {
                    tally.fail("verify", format!("q{} after scale-in: {b} != {a}", n + 1));
                }
            }
        }
        Err(e) => tally.fail("verify", e),
    }
    if corrupt {
        st.answers[0] = st.answers[0] * 1.5 + 1.0;
    }

    let mut clock = Clock::new(trace);
    let mut lsm = LsmCounters::default();
    lsm.observe(&mut st.cluster);
    let lsm_before = lsm.total();
    let mut lat: Vec<f64> = Vec::new();
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); NUM_QUERIES];
    let mut per_query_sim = [0.0f64; NUM_QUERIES];
    let mut sim_s = 0.0;
    let mut passes: Vec<f64> = Vec::new();
    let mut overhead = Overhead::default();
    let deadline = seconds * 1e9;

    let ((), wall_ns) = timed(|| {
        while clock.now_ns() < deadline {
            let traced = trace && passes.len().is_multiple_of(2);
            clock.set_tracing(traced);
            clock.begin_group("pass");
            let pass_start = clock.now_ns();
            for n in 1..=NUM_QUERIES {
                let ((answer, report), ns) = clock.call(QUERY_CALLS[n - 1], || {
                    let mut exec = st.cluster.query();
                    let answer = run_query(n, &mut exec, &st.tables);
                    (answer, exec.finish())
                });
                let (res, c) = clock.call("driver.check", || match answer {
                    Ok(a) if same_answer(st.answers[n - 1], a) => Ok(()),
                    Ok(a) => Err(format!("q{n}: {a} != {}", st.answers[n - 1])),
                    Err(e) => Err(format!("q{n}: {e}")),
                });
                tally.check("query", res);
                lat.push(ns);
                per_query[n - 1].push(ns);
                sim_s += report.elapsed.as_secs_f64();
                per_query_sim[n - 1] += report.elapsed.as_secs_f64();
                overhead.add(traced, ns + c);
            }
            passes.push(clock.now_ns() - pass_start);
            clock.end_group();
        }
    });
    clock.set_tracing(trace);

    let queries = lat.len() as f64;
    let mut m = Metrics::default();
    if !trace {
        let s = sorted(lat.clone());
        m.set("setup_s", setup_s, "s");
        // A pass runs each query once, so the pooled median falls on the
        // boundary between two queries; the median of the per-query medians
        // does not jump between them. Throughput is that of the median pass.
        let per_query_p50: Vec<f64> = per_query.iter().map(|d| median(d)).collect();
        m.set(
            "ops_per_s",
            NUM_QUERIES as f64 / (median(&passes) / 1e9),
            "ops/s",
        );
        m.set("op_p50_us", median(&per_query_p50) / 1e3, "us");
        m.set("op_p99_us", quantile(&s, 0.99) / 1e3, "us");
        out.notes.push(crate::clock::sample_note(s.len()));
        m.set("bytes_per_record", st.bytes_per_record, "B");
    } else {
        for (q, d) in per_query.iter().enumerate() {
            m.set(format!("query.q{:02}.p50_ms", q + 1), median(d) / 1e6, "ms");
        }
        let wall_q: f64 = lat.iter().sum::<f64>() / 1e9;
        m.set("query.wall_per_sim", common::ratio(wall_q, sim_s), "ratio");
        m.set("tpch.load.total_ms", st.load_ns / 1e6, "ms");
        lsm.observe(&mut st.cluster);
        common::lsm_metrics(&mut m, &lsm_before, &lsm.total(), 0, queries as u64);
        // The job layer runs in set-up here; its numbers come from the
        // set-up that served the timed phase.
        st.jobs.metrics(&mut m, &setup_clock);
        m.calls(&setup_clock, "cluster.decommission_node", false);
        m.set("workload.rebalance_s", st.rebalance_s, "s");
        m.set("workload.rebalance_sim_s", st.jobs.sim_s, "s");
        m.set("workload.moved_fraction", st.moved_fraction, "ratio");
        m.set("workload.query_set_s", median(&passes) / 1e9, "s");
        let tables = datasets(&st.tables);
        match common::bytes_per_record(&mut st.cluster, &tables) {
            Ok(b) => m.set("workload.bytes_per_record_end", b, "B"),
            Err(e) => tally.fail("verify", e),
        }
        crate::driver_metrics(&mut m, &clock, wall_ns, &overhead);
        let self_job: f64 = crate::job::STEPS
            .iter()
            .map(|s| setup_clock.durations(s).iter().sum::<f64>())
            .sum();
        m.set("job.self_ms", self_job / 1e6, "ms");
        m.set(
            "cluster.self_ms",
            setup_clock
                .durations("cluster.decommission_node")
                .iter()
                .sum::<f64>()
                / 1e6,
            "ms",
        );
        for (q, d) in per_query.iter().enumerate() {
            let wall = median(d) / 1e6;
            let sim = common::ratio(per_query_sim[q] * 1e3, d.len() as f64);
            out.notes.push(format!(
                "q{:02} wall p50 {wall:.3} ms, sim {sim:.3} ms, wall/sim {:.5}",
                q + 1,
                common::ratio(wall, sim)
            ));
        }
    }
    out.notes.push(format!(
        "passes {} queries {} wall/sim {:.4}",
        passes.len(),
        queries,
        common::ratio(lat.iter().sum::<f64>() / 1e9, sim_s)
    ));
    out.metrics = m;
    out.tally = tally;
    out.spans = clock.take_spans();
    out
}
