//! Seeded property tests of the control plane's decision invariants.
//!
//! Whatever seeded workload the decision loop faces — skewed ingest, query
//! hotspots, nodes joining, a node lost mid-wave — the logged decision
//! stream must obey the protocol: every trigger earns its hysteresis streak,
//! no trigger lands inside a cooldown, no migration window exceeds the
//! budget, the status counters agree exactly with the decision stream, and
//! every committed auto-job leaves the dataset routable with zero lost
//! records.

mod common;

use std::collections::BTreeSet;

use common::{assert_committed_set, check_seeded_cases, record, test_cluster, CASES};
use dynahash::cluster::{
    Cluster, ControlConfig, ControlDecision, ControlPlane, DatasetId, DatasetSpec, NodeState,
    RebalanceOptions,
};
use dynahash::core::{MigrationBudget, NodeId, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::rng::SplitMix64;

/// Small buckets so even a few hundred records split into enough buckets
/// for Algorithm 2 to balance onto the joining nodes.
fn small_scheme() -> Scheme {
    Scheme::dynahash(4 * 1024, 8)
}

#[derive(Debug)]
struct LoopParams {
    records: u64,
    hot_ops: u64,
    grow: u32,
    ticks: u64,
    budget_buckets: usize,
    window_ticks: u64,
}

fn random_loop_params(rng: &mut SplitMix64) -> LoopParams {
    LoopParams {
        records: rng.gen_range(300..900),
        hot_ops: rng.gen_range(0..3000),
        grow: rng.gen_range(1..3) as u32,
        ticks: rng.gen_range(80..140),
        budget_buckets: rng.gen_range(1..4) as usize,
        window_ticks: rng.gen_range(2..5),
    }
}

/// Builds the workload, runs the decision loop for a fixed number of ticks,
/// and checks every protocol invariant against the complete decision stream
/// (collected from the per-tick reports, so nothing is lost to the bounded
/// status log).
fn run_decision_loop(seed: u64, p: &LoopParams) {
    let mut cluster = test_cluster(3);
    cluster.set_heat_tracking(true);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", small_scheme()))
        .unwrap();
    let mut session = cluster.session(ds).unwrap();
    session
        .ingest(&mut cluster, (0..p.records).map(record))
        .unwrap();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0c0f_fee0);
    for _ in 0..p.hot_ops {
        let key = rng.gen_range(0..4);
        session.get(&cluster, &Key::from_u64(key)).unwrap();
    }
    for _ in 0..p.grow {
        cluster.add_node().unwrap();
    }

    let config = ControlConfig {
        budget: MigrationBudget {
            max_buckets_per_window: p.budget_buckets,
            max_bytes_per_window: 1 << 30,
            window_ticks: p.window_ticks,
        },
        ..ControlConfig::default()
    };
    let mut plane = ControlPlane::new(config);
    let mut stream: Vec<ControlDecision> = Vec::new();
    for _ in 0..p.ticks {
        let report = plane.tick(&mut cluster).unwrap();
        stream.extend(report.decisions);
    }
    let status = plane.status();

    // The empty joining nodes push the imbalance far over the threshold, so
    // the loop must actually have worked: a trigger, a commit, and the
    // hysteresis streak leading up to the first trigger.
    assert!(status.triggers >= 1, "the plane never triggered");
    assert!(status.committed_jobs >= 1, "no auto-job committed");

    // Counters agree exactly with the decision stream: every suppressed or
    // acted-on decision is logged, none invented.
    let count =
        |pred: fn(&ControlDecision) -> bool| stream.iter().filter(|d| pred(d)).count() as u64;
    assert_eq!(
        status.triggers,
        count(|d| matches!(d, ControlDecision::Triggered { .. }))
    );
    assert_eq!(
        status.suppressed_hysteresis,
        count(|d| matches!(d, ControlDecision::SuppressedByHysteresis { .. }))
    );
    assert_eq!(
        status.suppressed_cooldown,
        count(|d| matches!(d, ControlDecision::SuppressedByCooldown { .. }))
    );
    assert_eq!(
        status.deferred,
        count(|d| matches!(d, ControlDecision::DeferredByBudget { .. }))
    );
    assert_eq!(
        status.committed_jobs,
        count(|d| matches!(d, ControlDecision::Committed { .. }))
    );
    assert_eq!(
        status.aborted_jobs,
        count(|d| matches!(d, ControlDecision::Aborted { .. }))
    );
    assert_eq!(
        status.hot_splits,
        count(|d| matches!(d, ControlDecision::HotSplit { .. }))
    );
    assert_eq!(
        status.replans,
        count(|d| matches!(d, ControlDecision::Replanned { .. }))
    );

    // No trigger inside the cooldown that follows a committed or no-op job.
    let trigger_ticks: Vec<u64> = stream
        .iter()
        .filter_map(|d| match d {
            ControlDecision::Triggered { tick, .. } => Some(*tick),
            _ => None,
        })
        .collect();
    for d in &stream {
        let tc = match d {
            ControlDecision::Committed { tick, .. }
            | ControlDecision::NoImprovement { tick, .. } => *tick,
            _ => continue,
        };
        for t in &trigger_ticks {
            assert!(
                *t <= tc || *t > tc + config.cooldown_ticks,
                "trigger at tick {t} inside the cooldown after tick {tc}"
            );
        }
    }

    // Every trigger earns its streak: at least hysteresis - 1 suppressed
    // decisions since the previous terminal decision.
    let mut boundary = 0u64;
    for d in &stream {
        match d {
            ControlDecision::Triggered { tick, .. } => {
                let streak = stream
                    .iter()
                    .filter(|x| {
                        matches!(x, ControlDecision::SuppressedByHysteresis { tick: ht, .. }
                                 if *ht > boundary && *ht < *tick)
                    })
                    .count() as u32;
                assert!(
                    streak >= config.hysteresis_ticks - 1,
                    "trigger at tick {tick} with only {streak} hysteresis-suppressed \
                     ticks since tick {boundary}"
                );
                boundary = *tick;
            }
            ControlDecision::Committed { tick, .. }
            | ControlDecision::Aborted { tick, .. }
            | ControlDecision::NoImprovement { tick, .. } => boundary = *tick,
            _ => {}
        }
    }

    // No window ever exceeds the migration budget.
    for w in &status.windows {
        assert!(
            w.buckets <= config.budget.max_buckets_per_window
                && w.bytes <= config.budget.max_bytes_per_window,
            "window at tick {} shipped {} buckets / {} bytes over the budget",
            w.start_tick,
            w.buckets,
            w.bytes
        );
    }

    // Every committed auto-job left the dataset routable and complete.
    if let Some(ControlDecision::Committed { rebalance, .. }) = stream
        .iter()
        .rev()
        .find(|d| matches!(d, ControlDecision::Committed { .. }))
    {
        cluster.check_rebalance_integrity(ds, *rebalance).unwrap();
    }
    let expected: BTreeSet<u64> = (0..p.records).collect();
    assert_committed_set(&mut cluster, ds, &expected, "after the decision loop");
}

#[test]
fn decision_loop_invariants_hold_under_seeded_workloads() {
    check_seeded_cases(
        "control-plane decision-loop property",
        0x50a6_0901,
        CASES,
        |_seed, rng| random_loop_params(rng),
        run_decision_loop,
    );
}

#[derive(Debug)]
struct LossParams {
    records: u64,
    lose_second: bool,
    extra_ticks_before_loss: u64,
}

/// An auto-triggered job interrupted by a permanent node loss mid-wave must
/// be re-planned by the control plane's health monitoring and still commit
/// with full integrity.
fn run_loss_mid_wave(_seed: u64, p: &LossParams) {
    let mut cluster = test_cluster(4);
    cluster.set_heat_tracking(true);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", small_scheme()))
        .unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..p.records).map(record))
        .unwrap();
    let added = [cluster.add_node().unwrap(), cluster.add_node().unwrap()];

    // A tight bucket budget stretches the job over many windows, so the
    // node loss reliably lands while waves are still pending.
    let config = ControlConfig {
        budget: MigrationBudget {
            max_buckets_per_window: 2,
            max_bytes_per_window: 1 << 30,
            window_ticks: 4,
        },
        ..ControlConfig::default()
    };
    let mut plane = ControlPlane::new(config);
    let mut stream: Vec<ControlDecision> = Vec::new();
    let mut ticks = 0u64;
    loop {
        let report = plane.tick(&mut cluster).unwrap();
        ticks += 1;
        stream.extend(report.decisions);
        if report.job_in_flight {
            break;
        }
        assert!(ticks < 20, "no auto-job started within 20 ticks");
    }
    for _ in 0..p.extra_ticks_before_loss {
        let report = plane.tick(&mut cluster).unwrap();
        ticks += 1;
        stream.extend(report.decisions);
    }

    // Both joining nodes are destinations of the auto-planned moves; losing
    // either interrupts the job mid-wave.
    let lost = added[usize::from(p.lose_second)];
    cluster.lose_node(lost).unwrap();
    let loss_tick = ticks;

    for _ in 0..300 {
        let report = plane.tick(&mut cluster).unwrap();
        stream.extend(report.decisions);
        if !report.job_in_flight && plane.status().committed_jobs >= 1 {
            break;
        }
    }

    let status = plane.status();
    assert!(
        status.replans >= 1,
        "the control plane never re-planned around the lost node"
    );
    let committed_after_loss = stream
        .iter()
        .any(|d| matches!(d, ControlDecision::Committed { tick, .. } if *tick >= loss_tick));
    assert!(
        committed_after_loss,
        "the interrupted job never committed after the loss at tick {loss_tick}"
    );
    if let Some(ControlDecision::Committed { rebalance, .. }) = stream
        .iter()
        .rev()
        .find(|d| matches!(d, ControlDecision::Committed { .. }))
    {
        cluster.check_rebalance_integrity(ds, *rebalance).unwrap();
    }
    let expected: BTreeSet<u64> = (0..p.records).collect();
    assert_committed_set(&mut cluster, ds, &expected, "after the mid-wave node loss");
}

#[test]
fn auto_job_interrupted_by_node_loss_replans_and_commits() {
    check_seeded_cases(
        "control-plane mid-wave node-loss property",
        0x50a6_0902,
        CASES,
        |_seed, rng| LossParams {
            records: rng.gen_range(1500..3000),
            lose_second: rng.gen_range(0..2) == 1,
            extra_ticks_before_loss: rng.gen_range(0..3),
        },
        run_loss_mid_wave,
    );
}

/// A 4-node cluster with a hot key range whose node 3 was drained and
/// scaled in by an operator rebalance; node 3 is still draining (not yet
/// decommissioned) and its partitions are empty.
fn drained_cluster() -> (Cluster, DatasetId, NodeId) {
    let mut cluster = test_cluster(4);
    cluster.set_heat_tracking(true);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", small_scheme()))
        .unwrap();
    let mut session = cluster.session(ds).unwrap();
    session.ingest(&mut cluster, (0..800).map(record)).unwrap();
    for i in 0..2000u64 {
        session.get(&cluster, &Key::from_u64(i % 8)).unwrap();
    }

    let victim = NodeId(3);
    let target = cluster.drain_node(victim).unwrap();
    assert!(cluster
        .admin()
        .health()
        .nodes
        .contains(&(victim, NodeState::Draining)));
    cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    (cluster, ds, victim)
}

#[test]
fn armed_plane_never_rebalances_onto_a_draining_node() {
    // After a scale-in rebalance the departing node's partitions are empty
    // and the hot keys concentrate heat on the remaining nodes, so the armed
    // plane triggers. Its auto-planned target must skip the draining node,
    // or the heat it moves lands there and the decommission fails.
    let (mut cluster, ds, victim) = drained_cluster();
    let mut plane = ControlPlane::new(ControlConfig::default());
    for _ in 0..60 {
        plane.tick(&mut cluster).unwrap();
    }
    plane.drain_job(&mut cluster, 100).unwrap();
    assert!(
        plane.status().triggers >= 1,
        "the plane never triggered, so the test proves nothing"
    );
    cluster.decommission_node(victim).unwrap();
    assert!(!cluster.node_is_draining(victim));
    cluster.check_dataset_consistency(ds).unwrap();
    let expected: BTreeSet<u64> = (0..800).collect();
    assert_committed_set(&mut cluster, ds, &expected, "after the decommission");
}

#[test]
fn draining_partitions_do_not_drive_the_imbalance() {
    // Two empty draining partitions out of eight alone put the max-deviation
    // imbalance at 1.0. The threshold sits well below that but above the
    // residual, bucket-granular imbalance of the six remaining partitions,
    // so once the heat has decayed an idle plane must stay quiet.
    let (mut cluster, ds, victim) = drained_cluster();
    let mut plane = ControlPlane::new(ControlConfig {
        imbalance_threshold: 0.3,
        ..ControlConfig::default()
    });
    for _ in 0..60 {
        plane.tick(&mut cluster).unwrap();
    }
    plane.drain_job(&mut cluster, 100).unwrap();
    for _ in 0..40 {
        let report = plane.tick(&mut cluster).unwrap();
        let churn = report.decisions.iter().find(|d| {
            matches!(
                d,
                ControlDecision::Triggered { .. } | ControlDecision::NoImprovement { .. }
            )
        });
        assert!(churn.is_none(), "idle plane re-planned: {churn:?}");
    }
    cluster.decommission_node(victim).unwrap();
    cluster.check_dataset_consistency(ds).unwrap();
    let expected: BTreeSet<u64> = (0..800).collect();
    assert_committed_set(&mut cluster, ds, &expected, "after the decommission");
}
