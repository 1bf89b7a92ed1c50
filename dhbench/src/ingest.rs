//! `ingest-elastic`: an open-loop feed during scale-out and scale-in (the
//! paper's Fig. 7c). Two datasets, one with a secondary index and one
//! without, take `put`s of new keys plus read-your-write `get`s on a fixed
//! schedule. Between client ops the driver steps a 4→6→4-node cycle: add
//! two nodes, rebalance both datasets onto them, rebalance both back off,
//! and decommission the two nodes. Each op's latency is measured from the
//! time it was due. After every rebalance the driver checks the dataset's
//! integrity and re-reads acknowledged writes; that checking time is taken
//! off the feed's schedule, so it never shows as latency.

use std::collections::VecDeque;
use std::time::Duration;

use dynahash_cluster::{
    Cluster, ClusterConfig, CostModel, DatasetId, DatasetSpec, SecondaryIndexDef, Session,
};
use dynahash_core::{NodeId, Scheme};
use dynahash_lsm::rng::{scramble, SplitMix64};
use dynahash_lsm::{Bytes, Key};

use crate::clock::{median, quantile, sorted, timed, Clock};
use crate::common::{self, LsmCounters, Metrics, Tally};
use crate::job::{JobTotals, Stepper};
use crate::{Outcome, Overhead};

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// Nodes outside the scale cycle.
    pub nodes: u32,
    /// Nodes each cycle adds and removes again.
    pub extra_nodes: u32,
    /// Records preloaded into each dataset.
    pub preload: u64,
    /// Feed ops per second of the schedule.
    pub rate: f64,
    /// A cycle starts every this many seconds (or when the last one ends).
    pub cycle_period_s: f64,
    /// Record payload bytes.
    pub value_len: usize,
    /// Bucket size at which DynaHash splits.
    pub max_bucket_bytes: u64,
    /// Acknowledged writes re-read per dataset after each rebalance.
    pub recheck: usize,
    /// Times the set-up runs; the last one serves the timed phase.
    pub setups: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Size {
            nodes: 4,
            extra_nodes: 2,
            preload: 40_000,
            rate: 4_000.0,
            cycle_period_s: 3.0,
            value_len: 100,
            max_bucket_bytes: 256 * 1024,
            recheck: 500,
            setups: 5,
        }
    }

    /// The smallest size, for tests.
    pub fn tiny() -> Self {
        Size {
            preload: 2_000,
            rate: 2_000.0,
            cycle_period_s: 0.5,
            max_bucket_bytes: 32 * 1024,
            recheck: 50,
            setups: 1,
            ..Size::full()
        }
    }
}

const INDEX: &str = "by_group";

/// The key of record `id`. Keys do not depend on the seed: the bucket
/// layout, and so the size of every move and commit, stays the same from
/// seed to seed, and only the op sequence and the record sizes vary.
fn key_of(id: u64) -> Key {
    Key::from_u64(scramble(id))
}

/// The payload of record `id`: `len` ± 20 bytes, fixed per record and seed.
fn value_of(salt: u64, id: u64, len: usize) -> Bytes {
    let len = len - 20 + (scramble(id.wrapping_add(salt)) % 41) as usize;
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&(id % 1_000).to_be_bytes());
    v.extend_from_slice(&id.to_be_bytes());
    v.resize(len, (id % 251) as u8);
    Bytes::from(v)
}

struct State {
    cluster: Cluster,
    /// The indexed dataset, then the plain one.
    ds: [DatasetId; 2],
    sessions: [Session; 2],
    /// Acknowledged key ids per dataset (ids `0..next` less refused puts).
    acked: [Vec<u64>; 2],
    next: [u64; 2],
    /// Stands in for an acknowledged write in the model; the self-test of
    /// the checks points it at a wrong value.
    corrupt: Option<(usize, u64)>,
    /// Seeds the record sizes.
    salt: u64,
    /// Resident bytes per live record after the preload.
    bytes_per_record: f64,
}

impl State {
    fn key(&self, id: u64) -> Key {
        key_of(id)
    }

    fn expected(&self, d: usize, id: u64, len: usize) -> Bytes {
        match self.corrupt {
            Some((cd, cid)) if cd == d && cid == id => value_of(self.salt, id + 1, len),
            _ => value_of(self.salt, id, len),
        }
    }
}

fn setup(size: &Size, seed: u64) -> Result<State, String> {
    let salt = SplitMix64::seed_from_u64(seed ^ 0x5a17).next_u64();
    let mut cluster = Cluster::with_config(
        size.nodes,
        ClusterConfig {
            partitions_per_node: 4,
            cost_model: CostModel::default(),
        },
    );
    let scheme = Scheme::dynahash(size.max_bucket_bytes, size.nodes * 4);
    let indexed = cluster
        .create_dataset(
            DatasetSpec::new("indexed", scheme)
                .with_secondary_index(SecondaryIndexDef::new(INDEX, |v: &[u8]| {
                    v.get(0..8).map(|b| Key::from_bytes(b.to_vec()))
                }))
                .with_memtable_budget(64 * 1024),
        )
        .map_err(|e| format!("create indexed: {e}"))?;
    let plain = cluster
        .create_dataset(DatasetSpec::new("plain", scheme).with_memtable_budget(64 * 1024))
        .map_err(|e| format!("create plain: {e}"))?;
    let mut sessions = [
        cluster.session(indexed).map_err(|e| e.to_string())?,
        cluster.session(plain).map_err(|e| e.to_string())?,
    ];
    for s in &mut sessions {
        let records = (0..size.preload).map(|i| (key_of(i), value_of(salt, i, size.value_len)));
        s.ingest(&mut cluster, records)
            .map_err(|e| format!("preload: {e}"))?;
    }
    let bytes_per_record = common::bytes_per_record(&mut cluster, &[indexed, plain])?;
    Ok(State {
        cluster,
        ds: [indexed, plain],
        sessions,
        acked: [(0..size.preload).collect(), (0..size.preload).collect()],
        next: [size.preload; 2],
        corrupt: None,
        salt,
        bytes_per_record,
    })
}

/// One step of a scale cycle.
#[derive(Debug, Clone, Copy)]
enum Action {
    AddNode,
    /// Rebalance dataset `0` or `1` onto the grown (`true`) or the original
    /// (`false`) topology.
    Rebalance(usize, bool),
    Decommission,
}

struct Cycle {
    actions: VecDeque<Action>,
    /// The running rebalance and its dataset's index.
    job: Option<(Stepper, usize)>,
    added: Vec<NodeId>,
    /// Feed time of the first `plan`.
    start_ns: Option<f64>,
    sim_s: f64,
    moved: u64,
    stored: usize,
}

impl Cycle {
    fn new(extra: u32) -> Self {
        let mut actions = VecDeque::new();
        for _ in 0..extra {
            actions.push_back(Action::AddNode);
        }
        for out in [true, false] {
            actions.push_back(Action::Rebalance(0, out));
            actions.push_back(Action::Rebalance(1, out));
        }
        for _ in 0..extra {
            actions.push_back(Action::Decommission);
        }
        Cycle {
            actions,
            job: None,
            added: Vec::new(),
            start_ns: None,
            sim_s: 0.0,
            moved: 0,
            stored: 0,
        }
    }
}

/// A finished cycle's numbers.
struct CycleReport {
    wall_s: f64,
    sim_s: f64,
    moved_fraction: f64,
}

struct Driver<'a> {
    size: &'a Size,
    st: State,
    clock: Clock,
    tally: Tally,
    jobs: JobTotals,
    lsm: LsmCounters,
    rng: SplitMix64,
    /// Driver checking time taken off the feed's schedule.
    paused_ns: f64,
    /// Time spent waiting for the next op to come due.
    idle_ns: f64,
    /// Nanoseconds one `spin_loop` takes, measured at start.
    spin_ns: f64,
    read_from_due: Vec<f64>,
    write_from_due: Vec<f64>,
    late: Vec<f64>,
    user_bytes: u64,
    reads: u64,
    overhead: Overhead,
    cycles: Vec<CycleReport>,
}

impl Driver<'_> {
    /// Feed time: the clock less the driver's checking.
    fn feed_now(&self) -> f64 {
        self.clock.now_ns() - self.paused_ns
    }

    /// A driver check, off the feed's schedule.
    fn check<R>(&mut self, f: impl FnOnce(&mut State, &mut Tally) -> R) -> R {
        let (st, tally) = (&mut self.st, &mut self.tally);
        let (r, ns) = self.clock.call("driver.check", || f(st, tally));
        self.paused_ns += ns;
        r
    }

    /// Runs the feed op due at `due_ns` on the feed's schedule.
    fn feed_op(&mut self, due_ns: f64) {
        let late = self.feed_now() - due_ns;
        self.late.push(late);
        let size = self.size;
        let d = self.rng.gen_range(0..2) as usize;
        let put = self.rng.gen_range(0..3) < 2;
        let pick = self.rng.next_u64();
        if put {
            let id = self.st.next[d];
            self.st.next[d] += 1;
            let (key, value) = (self.st.key(id), value_of(self.st.salt, id, size.value_len));
            self.user_bytes += value.len() as u64 + 8;
            let st = &mut self.st;
            let (res, _) = self.clock.call("session.put", || {
                st.sessions[d].put(&mut st.cluster, key, value)
            });
            self.write_from_due.push(self.feed_now() - due_ns);
            self.check(|st, tally| match res {
                Ok(()) => {
                    st.acked[d].push(id);
                    tally.ok("put");
                }
                Err(e) => tally.fail("put", format!("put {id} on dataset {d}: {e}")),
            });
        } else {
            let acked = &self.st.acked[d];
            let id = acked[(pick % acked.len() as u64) as usize];
            let key = self.st.key(id);
            let st = &mut self.st;
            let (got, _) = self
                .clock
                .call("session.get", || st.sessions[d].get(&st.cluster, &key));
            self.read_from_due.push(self.feed_now() - due_ns);
            self.reads += 1;
            self.check(|st, tally| {
                let want = st.expected(d, id, size.value_len);
                match got {
                    Ok(Some(v)) if v == want => tally.ok("get"),
                    Ok(v) => tally.fail(
                        "get",
                        format!("get {id} on dataset {d}: acknowledged write reads {v:?}"),
                    ),
                    Err(e) => tally.fail("get", format!("get {id} on dataset {d}: {e}")),
                }
            });
        }
    }

    /// Runs the cycle's next action; true once the cycle is done.
    fn cycle_step(&mut self, cycle: &mut Cycle) -> Result<bool, String> {
        if let Some((job, d)) = cycle.job.as_mut() {
            let d = *d;
            if cycle.start_ns.is_none() {
                cycle.start_ns = Some(self.feed_now());
            }
            let Some(report) = job.step(&mut self.clock, &mut self.st.cluster)? else {
                return Ok(false);
            };
            self.jobs.add(&report, job.waves());
            cycle.job = None;
            cycle.sim_s += report.elapsed.as_secs_f64();
            cycle.moved += report.records_moved;
            self.after_rebalance(report.rebalance_id, d);
            return Ok(false);
        }
        let Some(action) = cycle.actions.pop_front() else {
            return Ok(true);
        };
        match action {
            Action::AddNode => {
                let st = &mut self.st;
                let (node, _) = self
                    .clock
                    .call("cluster.add_node", || st.cluster.add_node());
                cycle
                    .added
                    .push(node.map_err(|e| format!("add_node: {e}"))?);
            }
            Action::Rebalance(d, out) => {
                let mut target = self.st.cluster.topology().clone();
                if !out {
                    for n in &cycle.added {
                        target = target.without_node(*n);
                    }
                }
                if d == 0 && out {
                    cycle.stored = self.stored()?;
                }
                cycle.job = Some((Stepper::new(self.st.ds[d], target), d));
            }
            Action::Decommission => {
                let node = cycle.added.remove(0);
                self.lsm.observe(&mut self.st.cluster);
                let st = &mut self.st;
                let (r, _) = self.clock.call("cluster.decommission_node", || {
                    st.cluster.decommission_node(node)
                });
                r.map_err(|e| format!("decommission {node}: {e}"))?;
            }
        }
        Ok(cycle.actions.is_empty() && cycle.job.is_none())
    }

    fn stored(&self) -> Result<usize, String> {
        let mut n = 0;
        for ds in self.st.ds {
            n += self.st.cluster.dataset_len(ds).map_err(|e| e.to_string())?;
        }
        Ok(n)
    }

    /// Integrity of the rebalanced dataset, and a re-read of acknowledged
    /// writes of both datasets through fresh sessions.
    fn after_rebalance(&mut self, id: dynahash_lsm::wal::RebalanceId, d: usize) {
        let size = self.size;
        let seed = self.rng.next_u64();
        self.check(|st, tally| {
            let res = st
                .cluster
                .check_rebalance_integrity(st.ds[d], id)
                .map_err(|e| format!("integrity of dataset {d}: {e}"));
            tally.check("integrity", res);
            let mut rng = SplitMix64::seed_from_u64(seed);
            for dd in 0..2 {
                let mut s = match st.cluster.session(st.ds[dd]) {
                    Ok(s) => s,
                    Err(e) => {
                        tally.fail("reread", e.to_string());
                        continue;
                    }
                };
                let acked = &st.acked[dd];
                for i in 0..size.recheck.min(acked.len()) {
                    let id = if i % 2 == 0 {
                        acked[acked.len() - 1 - i / 2]
                    } else {
                        acked[rng.gen_index(acked.len())]
                    };
                    let want = st.expected(dd, id, size.value_len);
                    match s.get(&st.cluster, &st.key(id)) {
                        Ok(Some(v)) if v == want => tally.ok("reread"),
                        Ok(_) => tally.fail("reread", format!("dataset {dd} key {id} differs")),
                        Err(e) => tally.fail("reread", format!("dataset {dd} key {id}: {e}")),
                    }
                }
            }
        });
    }

    /// Waits until the feed's clock reaches `due_ns`: sleeps while more
    /// than 2 ms remain, then spins in calls of at most half the time left
    /// and at most 4 us, so a slower `spin_loop` (a busy sibling core)
    /// cannot carry an op far past its due time.
    fn idle_until(&mut self, due_ns: f64) {
        let left = due_ns - self.feed_now();
        if left <= 0.0 {
            return;
        }
        let ns = if left > 2e6 {
            let d = Duration::from_nanos((left - 1e6) as u64);
            self.clock.call("driver.idle", || std::thread::sleep(d)).1
        } else {
            let n = ((left / 2.0).min(4_000.0) / self.spin_ns) as u64;
            self.clock.call("driver.idle", || spin(n.max(8))).1
        };
        self.idle_ns += ns;
    }
}

fn spin(n: u64) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// Runs the workload. `corrupt` changes one acknowledged write in the model
/// after set-up (the self-test of the checks).
pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut st, setup_s) = match common::repeat_setup(size.setups, || setup(size, seed)) {
        Ok(x) => x,
        Err(e) => {
            out.tally.fail("setup", e);
            return out;
        }
    };
    if corrupt {
        st.corrupt = Some((1, 0));
    }

    let mut drv = Driver {
        size,
        st,
        clock: Clock::new(trace),
        tally: Tally::default(),
        jobs: JobTotals::default(),
        lsm: LsmCounters::default(),
        rng: SplitMix64::seed_from_u64(seed ^ 0x1e1a571c),
        paused_ns: 0.0,
        idle_ns: 0.0,
        spin_ns: timed(|| spin(100_000)).1 / 100_000.0,
        read_from_due: Vec::new(),
        write_from_due: Vec::new(),
        late: Vec::new(),
        user_bytes: 0,
        reads: 0,
        overhead: Overhead::default(),
        cycles: Vec::new(),
    };
    drv.lsm.observe(&mut drv.st.cluster);
    let lsm_before = drv.lsm.total();
    let sess_before =
        common::add_session(drv.st.sessions[0].metrics(), drv.st.sessions[1].metrics());
    let deadline = seconds * 1e9;
    let gap_ns = 1e9 / size.rate;
    let period_ns = size.cycle_period_s * 1e9;
    let mut ops = 0u64;
    let mut next_cycle_ns = period_ns / 4.0;
    let mut cycle: Option<Cycle> = None;

    // The timed phase runs the feed until the deadline, and on until the
    // scale cycle in flight has finished.
    let ((), wall_ns) = timed(|| loop {
        let now = drv.feed_now();
        let due = ops as f64 * gap_ns;
        if now >= deadline && cycle.is_none() {
            break;
        }
        if now >= due {
            let traced = trace && (ops / 1_000).is_multiple_of(2);
            drv.clock.set_tracing(traced);
            drv.clock.begin_group("feed");
            let before = drv.clock.now_ns();
            drv.feed_op(due);
            drv.clock.end_group();
            drv.overhead.add(traced, drv.clock.now_ns() - before);
            ops += 1;
            continue;
        }
        if cycle.is_none() && now >= next_cycle_ns && now < deadline {
            cycle = Some(Cycle::new(size.extra_nodes));
            next_cycle_ns += period_ns;
        }
        if let Some(c) = cycle.as_mut() {
            drv.clock.begin_group("scale");
            let done = drv.cycle_step(c);
            drv.clock.end_group();
            match done {
                Ok(false) => {}
                Ok(true) => {
                    let c = cycle.take().expect("cycle in flight");
                    let start = c.start_ns.unwrap_or(drv.feed_now());
                    drv.cycles.push(CycleReport {
                        wall_s: (drv.feed_now() - start) / 1e9,
                        sim_s: c.sim_s,
                        moved_fraction: common::ratio(c.moved as f64, c.stored as f64),
                    });
                    next_cycle_ns = next_cycle_ns.max(drv.feed_now());
                }
                Err(e) => {
                    drv.tally.fail("scale", e);
                    cycle = None;
                    next_cycle_ns = f64::INFINITY;
                }
            }
            continue;
        }
        drv.idle_until(due);
    });
    drv.clock.set_tracing(trace);
    for _ in &drv.cycles {
        drv.tally.ok("scale");
    }
    final_check(&mut drv);

    // Busy time: feed ops and scale steps, without idling and checking.
    let busy_s = (drv.clock.now_ns() - drv.paused_ns - drv.idle_ns) / 1e9;
    let mut m = Metrics::default();
    if !trace {
        let all: Vec<f64> = drv
            .read_from_due
            .iter()
            .chain(&drv.write_from_due)
            .copied()
            .collect();
        let s = sorted(all);
        m.set("setup_s", setup_s, "s");
        m.set("ops_per_s", ops as f64 / busy_s, "ops/s");
        m.set("op_p50_us", quantile(&s, 0.5) / 1e3, "us");
        m.set("op_p99_us", quantile(&s, 0.99) / 1e3, "us");
        out.notes.push(crate::clock::sample_note(s.len()));
        m.set("bytes_per_record", drv.st.bytes_per_record, "B");
    } else {
        m.calls(&drv.clock, "session.get", true);
        m.calls(&drv.clock, "session.put", true);
        let sess = common::sub_session(
            common::add_session(drv.st.sessions[0].metrics(), drv.st.sessions[1].metrics()),
            sess_before,
        );
        common::session_metrics(&mut m, &sess);
        drv.lsm.observe(&mut drv.st.cluster);
        common::lsm_metrics(
            &mut m,
            &lsm_before,
            &drv.lsm.total(),
            drv.user_bytes,
            drv.reads,
        );
        drv.jobs.metrics(&mut m, &drv.clock);
        m.calls(&drv.clock, "cluster.add_node", false);
        m.calls(&drv.clock, "cluster.decommission_node", false);
        m.percentiles("workload.read", &drv.read_from_due, "us");
        m.percentiles("workload.write", &drv.write_from_due, "us");
        let med =
            |f: fn(&CycleReport) -> f64| median(&drv.cycles.iter().map(f).collect::<Vec<_>>());
        m.set("workload.rebalance_s", med(|c| c.wall_s), "s");
        m.set("workload.rebalance_sim_s", med(|c| c.sim_s), "s");
        m.set(
            "workload.moved_fraction",
            med(|c| c.moved_fraction),
            "ratio",
        );
        let ds = drv.st.ds;
        match common::bytes_per_record(&mut drv.st.cluster, &ds) {
            Ok(b) => m.set("workload.bytes_per_record_end", b, "B"),
            Err(e) => drv.tally.fail("verify", e),
        }
        let late = sorted(drv.late.clone());
        m.set("driver.late_p99_ms", quantile(&late, 0.99) / 1e6, "ms");
        m.set(
            "driver.late_max_ms",
            late.last().copied().unwrap_or(0.0) / 1e6,
            "ms",
        );
        crate::driver_metrics(&mut m, &drv.clock, wall_ns, &drv.overhead);
    }
    out.notes.push(format!(
        "feed ops {ops}, cycles {}, rebalance wall {:?} s",
        drv.cycles.len(),
        drv.cycles
            .iter()
            .map(|c| (c.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    out.metrics = m;
    out.tally = drv.tally;
    out.spans = drv.clock.take_spans();
    out
}

/// Re-reads every acknowledged write of both datasets (one `verify` op
/// each) and checks both datasets' consistency.
fn final_check(drv: &mut Driver) {
    let size = drv.size;
    let (st, tally) = (&mut drv.st, &mut drv.tally);
    for d in 0..2 {
        if let Err(e) = st.cluster.check_dataset_consistency(st.ds[d]) {
            tally.fail("verify", format!("consistency of dataset {d}: {e}"));
        }
        let mut s = match st.cluster.session(st.ds[d]) {
            Ok(s) => s,
            Err(e) => {
                tally.fail("verify", e.to_string());
                continue;
            }
        };
        for &id in &st.acked[d] {
            let want = st.expected(d, id, size.value_len);
            match s.get(&st.cluster, &st.key(id)) {
                Ok(Some(v)) if v == want => tally.ok("verify"),
                Ok(_) => tally.fail("verify", format!("dataset {d} key {id} differs")),
                Err(e) => tally.fail("verify", format!("dataset {d} key {id}: {e}")),
            }
        }
    }
}
