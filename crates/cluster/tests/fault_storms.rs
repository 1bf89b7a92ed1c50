//! Repeated-crash storms over the step-driven rebalance executor.
//!
//! The recovery unit tests walk the paper's six failure cases one at a
//! time; this harness is the blunt version: at *every* step boundary of the
//! driver loop it crashes a seeded-randomly chosen node **twice in a row**
//! (crash, recover, crash, recover), and separately injects a permanent
//! node loss after every wave boundary, asserting that
//!
//! * the job always reaches a terminal outcome (commit or abort — never a
//!   wedged state),
//! * commit/abort and `replan_wave` are idempotent under repetition, and
//! * `check_rebalance_integrity` finds zero violations afterwards.
//!
//! Everything is seeded: a failure replays exactly from the printed seed.

use dynahash_cluster::{
    Cluster, ClusterConfig, ClusterError, CostModel, DatasetId, DatasetSpec, FaultSchedule,
    RebalanceJob, RebalanceOptions, RebalanceReport, SpeculationPolicy, StepPoint, WaveFault,
};
use dynahash_core::{NodeId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::rng::SplitMix64;
use dynahash_lsm::Bytes;

const SEED: u64 = 0xfa57_2026;

fn record(i: u64) -> (Key, Bytes) {
    (Key::from_u64(i), Bytes::from(vec![(i % 249) as u8; 40]))
}

fn loaded(nodes: u32, n: u64) -> (Cluster, DatasetId) {
    let mut cluster = Cluster::with_config(
        nodes,
        ClusterConfig {
            partitions_per_node: 2,
            cost_model: CostModel::default(),
        },
    );
    let ds = cluster
        .create_dataset(DatasetSpec::new(
            "storm",
            Scheme::StaticHash { num_buckets: 32 },
        ))
        .unwrap();
    let records: Vec<(Key, Bytes)> = (0..n).map(record).collect();
    let mut session = cluster.session(ds).unwrap();
    session.ingest(&mut cluster, records).unwrap();
    (cluster, ds)
}

const POINTS: &[StepPoint] = &[
    StepPoint::AfterPlan,
    StepPoint::AfterInit,
    StepPoint::AfterEveryWave,
    StepPoint::BeforePrepare,
    StepPoint::AfterPrepare,
    StepPoint::AfterCommitLog,
    StepPoint::BeforeFinalize,
];

#[test]
fn double_crash_storm_at_every_step_point_commits_with_integrity() {
    let mut rng = SplitMix64::seed_from_u64(SEED);
    for &point in POINTS {
        for trial in 0..2u32 {
            let (mut cluster, ds) = loaded(3, 1500);
            cluster.add_node().unwrap();
            let target = cluster.topology().clone();
            let victim = NodeId(rng.gen_range(0..4) as u32);
            let ctx = format!("point {point:?}, trial {trial}, victim {victim}");
            let report = cluster
                .rebalance(
                    ds,
                    &target,
                    RebalanceOptions::none()
                        .with_max_concurrent_moves(2)
                        .with_hook(point, move |cluster, _job| {
                            // The same node dies twice in a row; the driver
                            // must absorb both (commit tasks and cleanups
                            // are idempotent; lost transfers re-ship from
                            // the metadata log).
                            for _ in 0..2 {
                                let _ = cluster.crash_node(victim);
                                cluster.recover_all_nodes();
                            }
                            Ok(())
                        }),
                )
                .unwrap_or_else(|e| panic!("storm must not wedge the job ({ctx}): {e}"));
            assert_eq!(report.outcome, RebalanceOutcome::Committed, "{ctx}");
            assert_eq!(cluster.dataset_len(ds).unwrap(), 1500, "{ctx}");
            cluster
                .check_rebalance_integrity(ds, report.rebalance_id)
                .unwrap_or_else(|e| panic!("integrity violation ({ctx}): {e}"));
        }
    }
}

#[test]
fn losing_the_new_node_after_every_wave_boundary_commits_without_abort() {
    // Serial waves so every wave boundary exists for every trial; the loss
    // hits the newly added node (a pure destination), so re-planning cancels
    // its moves and the job commits with zero data loss.
    for wave in 0..3u64 {
        let (mut cluster, ds) = loaded(3, 1500);
        let new_node = cluster.add_node().unwrap();
        cluster.set_fault_plane(
            FaultSchedule::seeded(SEED ^ wave).with_wave_fault(wave, WaveFault::Lose(new_node)),
        );
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap_or_else(|e| panic!("loss after wave {wave} must re-plan, not abort: {e}"));
        assert_eq!(report.outcome, RebalanceOutcome::Committed, "wave {wave}");
        assert!(report.reroutes > 0, "wave {wave}: loss must cause reroutes");
        assert!(
            cluster.fault_stats().lost_buckets.is_empty(),
            "wave {wave}: a pure destination holds no sole copies"
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1500, "wave {wave}");
        cluster.remove_lost_node(new_node).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap_or_else(|e| panic!("integrity violation (wave {wave}): {e}"));
        assert!(cluster.admin().health().all_healthy(), "wave {wave}");
    }
}

#[test]
fn replanning_twice_in_a_row_is_idempotent() {
    let (mut cluster, ds) = loaded(3, 2000);
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    job.init(&mut cluster).unwrap();
    job.run_wave(&mut cluster).unwrap();
    cluster.lose_node(new_node).unwrap();
    let first = job.replan_wave(&mut cluster).unwrap();
    assert_eq!(first.lost_nodes, vec![new_node]);
    assert!(first.rerouted > 0);
    // The lost node left the participant set: a second re-plan (and a
    // third) finds nothing to do.
    let second = job.replan_wave(&mut cluster).unwrap();
    assert!(second.is_noop(), "second replan must be a noop: {second:?}");
    let third = job.replan_wave(&mut cluster).unwrap();
    assert!(third.is_noop());
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
    cluster.remove_lost_node(new_node).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
}

#[test]
fn double_loss_of_two_destinations_still_commits() {
    // Scale from 2 to 4 nodes, then lose *both* new nodes at different wave
    // boundaries. Every move cancels back to its live source and the job
    // commits as a (near-)noop instead of aborting.
    let (mut cluster, ds) = loaded(2, 1500);
    let n2 = cluster.add_node().unwrap();
    let n3 = cluster.add_node().unwrap();
    cluster.set_fault_plane(
        FaultSchedule::seeded(SEED)
            .with_wave_fault(0, WaveFault::Lose(n2))
            .with_wave_fault(1, WaveFault::Lose(n3)),
    );
    let target = cluster.topology().clone();
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .expect("double loss must re-plan, not abort");
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(cluster.dataset_len(ds).unwrap(), 1500);
    cluster.remove_lost_node(n2).unwrap();
    cluster.remove_lost_node(n3).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    assert_eq!(cluster.fault_stats().lost_nodes, vec![n2, n3]);
}

/// Drives a 3 -> 4 scale-out step by step with a slow-node fault pinned to a
/// node that actually sources a move of the first wave, so both twins of a
/// speculation race stall on the same leg whatever the planner chose.
fn scale_out_with_slow_source(
    factor: u32,
    policy: SpeculationPolicy,
) -> (Cluster, DatasetId, RebalanceReport, u64, u64) {
    let (mut cluster, ds) = loaded(3, 1500);
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
    let slow = cluster.node_of_partition(job.waves()[0][0].from).unwrap();
    cluster.set_fault_plane(FaultSchedule::seeded(SEED).with_slow_node(slow, factor));
    job.set_speculation(policy);
    job.init(&mut cluster).unwrap();
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let speculated = job.speculated();
    let wins = job.speculation_wins();
    let report = job.finalize(&mut cluster).unwrap();
    (cluster, ds, report, speculated, wins)
}

fn assert_all_records_served(cluster: &Cluster, ds: DatasetId, n: u64) {
    let mut session = cluster.session(ds).unwrap();
    for i in 0..n {
        let (key, expected) = record(i);
        assert_eq!(
            session.get(cluster, &key).unwrap(),
            Some(expected),
            "key {i}"
        );
    }
}

#[test]
fn speculative_backup_beats_a_crippled_straggler_and_shortens_the_rebalance() {
    // A 50x stall on a source node stretches its legs far past twice the
    // wave median: the backup (launched two medians in, running at nominal
    // speed) must win the race, and the won race must strictly shorten the
    // rebalance relative to a twin with speculation switched off — with
    // byte-identical contents, since the data ships exactly once either way.
    let (slow_twin, ds_off, off, spec_off, wins_off) =
        scale_out_with_slow_source(50, SpeculationPolicy::disabled());
    let (fast_twin, ds_on, on, spec_on, wins_on) =
        scale_out_with_slow_source(50, SpeculationPolicy::default());
    assert_eq!((spec_off, wins_off), (0, 0));
    assert!(spec_on > 0, "a 50x stall must trip straggler detection");
    assert!(
        wins_on > 0,
        "a nominal-speed backup must beat a 50x straggler"
    );
    assert!(
        on.elapsed < off.elapsed,
        "a won race must strictly shorten the rebalance: {:?} vs {:?}",
        on.elapsed,
        off.elapsed
    );
    assert_eq!(on.bytes_moved, off.bytes_moved);
    assert_eq!(on.records_moved, off.records_moved);
    assert_eq!(fast_twin.fault_stats().speculation_wins, wins_on);
    for (cluster, ds, report) in [(&slow_twin, ds_off, &off), (&fast_twin, ds_on, &on)] {
        assert_all_records_served(cluster, ds, 1500);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }
}

#[test]
fn speculation_launched_on_a_mild_straggler_loses_the_race_and_costs_nothing() {
    // A 2x stall with an eager straggler multiple of 1 launches backups, but
    // the original finishes before a backup that only started a full median
    // in: zero wins, and — since a lost race leaves every leg's charges
    // untouched — a makespan byte-identical to the speculation-off twin.
    let eager = SpeculationPolicy {
        enabled: true,
        straggler_multiple: 1,
    };
    let (_, _, off, ..) = scale_out_with_slow_source(2, SpeculationPolicy::disabled());
    let (cluster, ds, on, spec_on, wins_on) = scale_out_with_slow_source(2, eager);
    assert!(
        spec_on > 0,
        "an eager multiple of 1 must launch at least one backup"
    );
    assert_eq!(
        wins_on, 0,
        "a 2x stall finishes before a backup launched a median in"
    );
    assert_eq!(
        on.elapsed, off.elapsed,
        "a lost race must leave the wave timeline untouched"
    );
    assert_all_records_served(&cluster, ds, 1500);
    cluster
        .check_rebalance_integrity(ds, on.rebalance_id)
        .unwrap();
}

#[test]
fn established_node_loss_mid_rebalance_degrades_reads_until_repair_is_done_once() {
    // Unlike the pure-destination losses above, this loss takes an
    // *established* node mid-rebalance: the job still commits (re-planning
    // installs empty replacements), but the sole copies die with the node —
    // reads get the typed degraded error until a repair restores them, and a
    // second repair of the healthy dataset is a pure no-op.
    let (mut cluster, ds) = loaded(3, 1500);
    cluster.add_node().unwrap();
    let victim = NodeId(0);
    cluster
        .set_fault_plane(FaultSchedule::seeded(SEED).with_wave_fault(0, WaveFault::Lose(victim)));
    let target = cluster.topology().clone();
    let report = cluster
        .rebalance(
            ds,
            &target,
            RebalanceOptions::none().with_max_concurrent_moves(2),
        )
        .expect("an established-node loss must re-plan, not abort");
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    let degraded = cluster.fault_stats().degraded_buckets(ds);
    assert!(
        !degraded.is_empty(),
        "an established node held sole bucket copies"
    );

    let mut session = cluster.session(ds).unwrap();
    let mut degraded_reads = 0u64;
    let mut served = 0u64;
    for i in 0..1500u64 {
        match session.get(&cluster, &Key::from_u64(i)) {
            Ok(Some(_)) => served += 1,
            Ok(None) => panic!("a degraded bucket must never read as silently empty"),
            Err(ClusterError::BucketDegraded { dataset, bucket }) => {
                assert_eq!(dataset, ds);
                assert!(degraded.contains(&bucket));
                degraded_reads += 1;
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
    assert!(degraded_reads > 0, "some keys route to the lost buckets");
    assert_eq!(served + degraded_reads, 1500);

    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();
    let first = cluster
        .admin()
        .repair_dataset(ds, &feed)
        .unwrap()
        .expect("a degraded dataset is repaired");
    assert_eq!(first.outcome, RebalanceOutcome::Committed);
    assert_eq!(first.buckets_moved, degraded.len());
    assert!(cluster.fault_stats().degraded_buckets(ds).is_empty());

    // Idempotence: repairing a healthy dataset forces no log records,
    // restores nothing, and bumps no counters.
    let wal_len = cluster.controller.metadata_log.len();
    let second = cluster.admin().repair_dataset(ds, &feed).unwrap();
    assert!(second.is_none());
    assert_eq!(cluster.controller.metadata_log.len(), wal_len);
    assert_eq!(
        cluster.fault_stats().repaired_buckets,
        degraded.len() as u64
    );

    assert_all_records_served(&cluster, ds, 1500);
    cluster.remove_lost_node(victim).unwrap();
    cluster.check_dataset_consistency(ds).unwrap();
}

#[test]
fn losing_a_second_node_mid_repair_replans_and_still_restores_everything() {
    let (mut cluster, ds) = loaded(4, 1500);
    let nodes = cluster.topology().nodes();
    cluster.lose_node(nodes[0]).unwrap();
    let initially_degraded = cluster.fault_stats().degraded_buckets(ds).len();
    assert!(initially_degraded > 0);
    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();

    let mut job = RebalanceJob::plan_repair(&mut cluster, ds, feed).unwrap();
    job.init(&mut cluster).unwrap();
    // A survivor that the plan repaired onto dies mid-repair, taking its
    // own resident buckets with it.
    cluster.lose_node(nodes[1]).unwrap();
    match job.run_wave(&mut cluster) {
        Err(ClusterError::NodeLost(n)) => assert_eq!(n, nodes[1]),
        other => panic!("the wave must fail typed on a lost owner, got {other:?}"),
    }
    let replan = job.replan_wave(&mut cluster).unwrap();
    assert_eq!(replan.lost_nodes, vec![nodes[1]]);
    assert!(replan.rerouted > 0, "the replan must reassign dead owners");
    assert_eq!(replan.lost_buckets, 0, "a repair loads from its feed");
    let scope = job.plan_ref().num_moves();
    assert!(
        scope > initially_degraded,
        "the second node's resident buckets join the repair scope"
    );
    let report = job.drive_to_completion(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert!(report.reroutes > 0);
    assert_eq!(report.buckets_moved, scope);
    assert!(cluster.fault_stats().degraded_buckets(ds).is_empty());

    assert_all_records_served(&cluster, ds, 1500);
    cluster.remove_lost_node(nodes[0]).unwrap();
    cluster.remove_lost_node(nodes[1]).unwrap();
    cluster.check_dataset_consistency(ds).unwrap();
}

#[test]
fn repair_owner_crash_after_the_commit_decision_is_redriven_by_finalize() {
    // An owner that crashes once COMMIT is durable loses its loaded pending
    // copies. The commit tasks skip it; finalize recovers it and installs
    // its buckets from the feed again, so nothing stays stale.
    let (mut cluster, ds) = loaded(4, 1500);
    let victim = cluster.topology().nodes()[0];
    cluster.lose_node(victim).unwrap();
    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();
    let mut job = RebalanceJob::plan_repair(&mut cluster, ds, feed).unwrap();
    let owner = cluster
        .node_of_partition(job.plan_ref().moves[0].to)
        .unwrap();
    job.init(&mut cluster).unwrap();
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    cluster.crash_node(owner).unwrap();
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert!(cluster.fault_stats().degraded_buckets(ds).is_empty());

    assert_all_records_served(&cluster, ds, 1500);
    cluster.remove_lost_node(victim).unwrap();
    cluster.check_dataset_consistency(ds).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
}
