//! `serve-zipf`: one closed-loop client on a fixed 4-node cluster. One
//! dataset with a secondary index is preloaded far past its memtables; the
//! client picks keys Zipfian (s = 1.1) and runs ~75% `get`, ~22%
//! `put`/`delete` and ~3% bounded `index_scan`, checking every answer
//! against a model. A heat-tracking `ControlPlane` is ticked every
//! `tick_every` client ops on the same thread.

use std::collections::BTreeSet;

use dynahash_cluster::{
    Cluster, ClusterConfig, ControlConfig, ControlPlane, CostModel, DatasetId, DatasetSpec,
    SecondaryIndexDef, Session,
};
use dynahash_core::Scheme;
use dynahash_lsm::rng::{scramble, SplitMix64, Zipfian};
use dynahash_lsm::{Bytes, Key};

use crate::clock::{median, quantile, sorted, timed, Clock};
use crate::common::{self, LsmCounters, Metrics, Tally};
use crate::{Outcome, Overhead};

/// Name of the secondary index: the record's category.
const INDEX: &str = "by_category";

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// Cluster nodes (fixed for the run).
    pub nodes: u32,
    /// Records preloaded.
    pub records: u64,
    /// Distinct categories (the secondary key).
    pub categories: u64,
    /// Categories one bounded `index_scan` covers.
    pub scan_width: u64,
    /// Client ops between two control ticks.
    pub tick_every: u64,
    /// Mean record payload bytes; each record's size is fixed within ±20.
    pub value_len: usize,
    /// Bucket size at which DynaHash splits.
    pub max_bucket_bytes: u64,
    /// Records per preload batch.
    pub batch: u64,
    /// Times the set-up runs; the last one serves the timed phase.
    pub setups: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Size {
            nodes: 4,
            records: 300_000,
            categories: 60_000,
            scan_width: 8,
            tick_every: 50_000,
            value_len: 100,
            max_bucket_bytes: 512 * 1024,
            batch: 10_000,
            setups: 3,
        }
    }

    /// The smallest size, for tests.
    pub fn tiny() -> Self {
        Size {
            records: 4_000,
            categories: 1_000,
            tick_every: 100,
            max_bucket_bytes: 32 * 1024,
            batch: 1_000,
            setups: 1,
            ..Size::full()
        }
    }
}

/// The model of one record: its category and version.
type Model = Vec<Option<(u64, u64)>>;

struct State {
    cluster: Cluster,
    ds: DatasetId,
    session: Session,
    plane: ControlPlane,
    /// Indexed by Zipf rank (1-based; slot 0 unused).
    model: Model,
    /// Ranks of live records per category.
    by_category: Vec<BTreeSet<u64>>,
    version: u64,
    /// Seeds the record sizes.
    salt: u64,
}

fn key_of(rank: u64) -> Key {
    Key::from_u64(scramble(rank))
}

/// Payload bytes of a record: `value_len` ± 20, fixed per record and seed.
fn len_of(size: &Size, salt: u64, rank: u64) -> usize {
    size.value_len - 20 + (scramble(rank ^ salt) % 41) as usize
}

fn value_of(rank: u64, category: u64, version: u64, len: usize) -> Bytes {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&category.to_be_bytes());
    v.extend_from_slice(&version.to_be_bytes());
    v.resize(len, (rank % 251) as u8);
    Bytes::from(v)
}

fn setup(size: &Size, seed: u64) -> Result<State, String> {
    let mut cluster = Cluster::with_config(
        size.nodes,
        ClusterConfig {
            partitions_per_node: 4,
            cost_model: CostModel::default(),
        },
    );
    let ds = cluster
        .create_dataset(
            DatasetSpec::new(
                "serve",
                Scheme::dynahash(size.max_bucket_bytes, size.nodes * 4),
            )
            .with_secondary_index(SecondaryIndexDef::new(INDEX, |v: &[u8]| {
                v.get(0..8).map(|b| Key::from_bytes(b.to_vec()))
            }))
            .with_memtable_budget(64 * 1024),
        )
        .map_err(|e| format!("create dataset: {e}"))?;
    cluster.set_heat_tracking(true);
    let mut session = cluster.session(ds).map_err(|e| format!("session: {e}"))?;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5e12e);
    let salt = rng.next_u64();
    let mut model: Model = vec![None; size.records as usize + 1];
    let mut by_category = vec![BTreeSet::new(); size.categories as usize];
    let mut rank = 1u64;
    while rank <= size.records {
        let end = (rank + size.batch).min(size.records + 1);
        let mut batch = Vec::with_capacity((end - rank) as usize);
        for r in rank..end {
            let cat = rng.gen_range(0..size.categories);
            model[r as usize] = Some((cat, 0));
            by_category[cat as usize].insert(r);
            batch.push((key_of(r), value_of(r, cat, 0, len_of(size, salt, r))));
        }
        session
            .ingest(&mut cluster, batch)
            .map_err(|e| format!("preload: {e}"))?;
        rank = end;
    }
    Ok(State {
        cluster,
        ds,
        session,
        plane: ControlPlane::new(ControlConfig::default()),
        model,
        by_category,
        version: 0,
        salt,
    })
}

/// One generated client op.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Put(u64, u64),
    Delete(u64),
    Scan(u64),
}

fn gen_ops(size: &Size, zipf: &Zipfian, rng: &mut SplitMix64, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let rank = zipf.sample(rng);
            match rng.gen_range(0..100) {
                0..=74 => Op::Get(rank),
                75..=90 => Op::Put(rank, rng.gen_range(0..size.categories)),
                91..=96 => Op::Delete(rank),
                _ => Op::Scan(rng.gen_range(0..size.categories - size.scan_width)),
            }
        })
        .collect()
}

/// Runs the workload. `corrupt` changes one model value after set-up (the
/// self-test of the checks).
pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut st, setup_s) = match common::repeat_setup(size.setups, || setup(size, seed)) {
        Ok(x) => x,
        Err(e) => {
            out.tally.fail("setup", e);
            return out;
        }
    };
    // Measured before the timed phase: how much the phase writes depends on
    // its speed, so the end state would differ from run to run.
    let bytes_per_record = common::bytes_per_record(&mut st.cluster, &[st.ds]);
    if corrupt {
        let r = size.records as usize;
        if let Some((_, v)) = st.model[r].as_mut() {
            *v += 1;
        }
    }

    let zipf = Zipfian::new(size.records, 1.1);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xc11e47);
    let mut clock = Clock::new(trace);
    let mut tally = Tally::default();
    let mut lat = Latencies::default();
    let mut overhead = Overhead::default();
    let mut lsm = LsmCounters::default();
    lsm.observe(&mut st.cluster);
    let lsm_before = lsm.total();
    let sess_before = st.session.metrics();
    let mut ops = 0u64;
    let mut user_bytes = 0u64;
    let mut reads = 0u64;
    let deadline = seconds * 1e9;

    // Client ops per second of each block between two ticks.
    let mut blocks: Vec<f64> = Vec::new();
    let ((), wall_ns) = timed(|| {
        let mut queue: Vec<Op> = Vec::new();
        let mut block_start = 0.0;
        let mut block_check_ns = 0.0;
        while clock.now_ns() < deadline {
            if queue.is_empty() {
                let (ops, ns) = clock.call("driver.check", || {
                    let mut v = gen_ops(size, &zipf, &mut rng, 1024);
                    v.reverse();
                    v
                });
                queue = ops;
                block_check_ns += ns;
            }
            let Some(op) = queue.pop() else { break };
            // The traced run records spans in every other block of 1000 ops
            // and compares the blocks' op cost to measure the spans' cost.
            let block_traced = trace && (ops / 1_000).is_multiple_of(2);
            clock.set_tracing(block_traced);
            clock.begin_group("op");
            let (call, check) = one_op(size, &mut st, &mut clock, &mut tally, &mut lat, op);
            clock.end_group();
            overhead.add(block_traced, call + check);
            block_check_ns += check;
            match op {
                Op::Get(_) | Op::Scan(_) => reads += 1,
                Op::Put(r, _) => user_bytes += len_of(size, st.salt, r) as u64 + 8,
                Op::Delete(_) => user_bytes += 8,
            }
            ops += 1;
            if ops.is_multiple_of(size.tick_every) {
                clock.begin_group("tick");
                let (r, _) = clock.call("control.tick", || st.plane.tick(&mut st.cluster));
                clock.end_group();
                tally.check("tick", r.map(|_| ()).map_err(|e| e.to_string()));
                // One block: `tick_every` ops and the tick after them, less
                // the driver's own checking.
                let busy = clock.now_ns() - block_start - block_check_ns;
                blocks.push(size.tick_every as f64 / (busy / 1e9));
                block_start = clock.now_ns();
                block_check_ns = 0.0;
            }
        }
    });
    clock.set_tracing(trace);

    // After the timed phase: the whole model against the cluster.
    if let Err(e) = final_check(size, &mut st, &mut tally) {
        tally.fail("verify", e);
    }

    let mut m = Metrics::default();
    let client: Vec<f64> = [&lat.get, &lat.write, &lat.scan]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    if !trace {
        let s = sorted(client);
        m.set("setup_s", setup_s, "s");
        m.set("ops_per_s", median(&blocks), "ops/s");
        m.set("op_p50_us", quantile(&s, 0.5) / 1e3, "us");
        m.set("op_p99_us", quantile(&s, 0.99) / 1e3, "us");
        out.notes.push(crate::clock::sample_note(s.len()));
        match bytes_per_record {
            Ok(b) => m.set("bytes_per_record", b, "B"),
            Err(e) => tally.fail("verify", e),
        }
    } else {
        for name in [
            "session.get",
            "session.put",
            "session.delete",
            "session.index_scan",
        ] {
            m.calls(&clock, name, true);
        }
        m.calls(&clock, "control.tick", true);
        let sess = common::sub_session(st.session.metrics(), sess_before);
        common::session_metrics(&mut m, &sess);
        lsm.observe(&mut st.cluster);
        common::lsm_metrics(&mut m, &lsm_before, &lsm.total(), user_bytes, reads);
        let status = st.plane.status();
        m.set("control.triggers", status.triggers as f64, "count");
        m.set(
            "control.committed_jobs",
            status.committed_jobs as f64,
            "count",
        );
        m.set("control.hot_splits", status.hot_splits as f64, "count");
        m.set(
            "control.suppressed",
            (status.suppressed_hysteresis + status.suppressed_cooldown) as f64,
            "count",
        );
        m.set(
            "control.warmed_records",
            status.warmed_records as f64,
            "count",
        );
        m.set(
            "control.commits_per_trigger",
            common::ratio(status.committed_jobs as f64, status.triggers as f64),
            "ratio",
        );
        match common::bytes_per_record(&mut st.cluster, &[st.ds]) {
            Ok(b) => m.set("workload.bytes_per_record_end", b, "B"),
            Err(e) => tally.fail("verify", e),
        }
        m.percentiles("workload.read", &lat.get, "us");
        m.percentiles("workload.write", &lat.write, "us");
        m.percentiles("workload.scan", &lat.scan, "us");
        crate::driver_metrics(&mut m, &clock, wall_ns, &overhead);
    }
    out.metrics = m;
    out.tally = tally;
    out.spans = clock.take_spans();
    out
}

/// Call durations of the timed phase, nanoseconds.
#[derive(Debug, Default)]
struct Latencies {
    get: Vec<f64>,
    write: Vec<f64>,
    scan: Vec<f64>,
}

/// Runs and checks one client op; returns its call's and its check's
/// nanoseconds.
fn one_op(
    size: &Size,
    st: &mut State,
    clock: &mut Clock,
    tally: &mut Tally,
    lat: &mut Latencies,
    op: Op,
) -> (f64, f64) {
    match op {
        Op::Get(r) => {
            let key = key_of(r);
            let (got, ns) = clock.call("session.get", || st.session.get(&st.cluster, &key));
            lat.get.push(ns);
            let (res, c) = clock.call("driver.check", || {
                let want =
                    st.model[r as usize].map(|(c, v)| value_of(r, c, v, len_of(size, st.salt, r)));
                match got {
                    Ok(g) if g == want => Ok(()),
                    Ok(g) => Err(format!(
                        "get rank {r}: got {} bytes, model has {}",
                        g.map_or(0, |b| b.len()),
                        if want.is_some() { "a record" } else { "none" }
                    )),
                    Err(e) => Err(format!("get rank {r}: {e}")),
                }
            });
            tally.check("get", res);
            (ns, c)
        }
        Op::Put(r, cat) => {
            let ((key, value, version), c0) = clock.call("driver.check", || {
                st.version += 1;
                (
                    key_of(r),
                    value_of(r, cat, st.version, len_of(size, st.salt, r)),
                    st.version,
                )
            });
            let (res, ns) = clock.call("session.put", || {
                st.session.put(&mut st.cluster, key, value)
            });
            lat.write.push(ns);
            let (res, c1) = clock.call("driver.check", || match res {
                Ok(()) => {
                    if let Some((old, _)) = st.model[r as usize] {
                        st.by_category[old as usize].remove(&r);
                    }
                    st.model[r as usize] = Some((cat, version));
                    st.by_category[cat as usize].insert(r);
                    Ok(())
                }
                Err(e) => Err(format!("put rank {r}: {e}")),
            });
            tally.check("put", res);
            (ns, c0 + c1)
        }
        Op::Delete(r) => {
            let key = key_of(r);
            let (res, ns) = clock.call("session.delete", || {
                st.session.delete(&mut st.cluster, &key)
            });
            lat.write.push(ns);
            let (res, c) = clock.call("driver.check", || {
                let was = st.model[r as usize];
                match res {
                    Ok(hit) if hit == was.is_some() => {
                        if let Some((old, _)) = was {
                            st.by_category[old as usize].remove(&r);
                        }
                        st.model[r as usize] = None;
                        Ok(())
                    }
                    Ok(hit) => Err(format!("delete rank {r}: hit={hit}, model {was:?}")),
                    Err(e) => Err(format!("delete rank {r}: {e}")),
                }
            });
            tally.check("delete", res);
            (ns, c)
        }
        Op::Scan(lo) => {
            let hi = lo + size.scan_width;
            let (lo_k, hi_k) = (Key::from_u64(lo), Key::from_u64(hi));
            let (res, ns) = clock.call("session.index_scan", || {
                st.session
                    .index_scan(&mut st.cluster, INDEX, Some(&lo_k), Some(&hi_k))
            });
            lat.scan.push(ns);
            let (res, c) = clock.call("driver.check", || {
                let hits = res.map_err(|e| format!("index_scan [{lo},{hi}): {e}"))?;
                check_scan(st, lo, hi, &lo_k, &hi_k, hits)
            });
            tally.check("index_scan", res);
            (ns, c)
        }
    }
}

/// Index entries are candidates: an update leaves its record's previous
/// entry behind, as the soak's checker also allows. So every hit must lie in
/// range, and every live record whose current category is in range must be
/// among the hits.
fn check_scan(
    st: &State,
    lo: u64,
    hi: u64,
    lo_k: &Key,
    hi_k: &Key,
    hits: Vec<(
        dynahash_core::PartitionId,
        Vec<dynahash_lsm::secondary::SecondaryEntry>,
    )>,
) -> Result<(), String> {
    let mut found = BTreeSet::new();
    for (p, entries) in hits {
        for e in entries {
            if &e.secondary < lo_k || &e.secondary >= hi_k {
                return Err(format!("index_scan [{lo},{hi}) on {p}: out-of-range hit"));
            }
            found.insert(e.primary.as_u64());
        }
    }
    for cat in lo..hi {
        for &r in &st.by_category[cat as usize] {
            if !found.contains(&scramble(r)) {
                return Err(format!("index_scan [{lo},{hi}): live rank {r} missing"));
            }
        }
    }
    Ok(())
}

/// Reads every record of the model back and checks the dataset's
/// consistency; each record read is one `verify` op.
fn final_check(size: &Size, st: &mut State, tally: &mut Tally) -> Result<(), String> {
    st.plane
        .drain_job(&mut st.cluster, 1_000)
        .map_err(|e| format!("drain plane: {e}"))?;
    st.cluster
        .check_dataset_consistency(st.ds)
        .map_err(|e| format!("consistency: {e}"))?;
    for r in 1..=size.records {
        let want = st.model[r as usize].map(|(c, v)| value_of(r, c, v, len_of(size, st.salt, r)));
        match st.session.get(&st.cluster, &key_of(r)) {
            Ok(got) if got == want => tally.ok("verify"),
            Ok(_) => tally.fail("verify", format!("rank {r} differs from the model")),
            Err(e) => tally.fail("verify", format!("rank {r}: {e}")),
        }
    }
    Ok(())
}
