//! The one-shot rebalance entry point (Section V).
//!
//! [`Cluster::rebalance`] moves a dataset onto a target topology. For
//! bucketed schemes (StaticHash / DynaHash) it is a thin driver loop over the
//! step-driven [`RebalanceJob`] state machine in [`crate::job`]: it plans the
//! job, runs its waves (applying any scenario-supplied concurrent writes
//! between them), collects votes, decides, and finalizes — firing the
//! scenario's [`StepHook`]s at every boundary and re-expressing the six
//! failure cases of Section V-D as crashes injected *between* job steps.
//! It is the one driver that steps the job by hand; every other driver
//! finishes its job with [`RebalanceJob::drive_to_completion`]. For
//! the Hashing baseline it performs AsterixDB's original global rebalancing:
//! a brand-new hash-partitioned copy of the dataset is built on the target
//! partitions and swapped in, which moves nearly every record.

use std::collections::BTreeMap;

use dynahash_core::{
    ClusterTopology, FailurePoint, MovePolicy, NodeId, RebalanceOutcome, SecondaryRebuild,
};
use dynahash_lsm::entry::{Key, Value};
use dynahash_lsm::wal::{LogRecordBody, RebalanceId, RebalanceLogStatus};

use crate::cluster::Cluster;
use crate::dataset::DatasetId;
use crate::feed::split_into_batches;
use crate::job::{RebalanceJob, StepPoint};
use crate::sim::{NodeTimeline, SimDuration};
use crate::{ClusterError, Result};

/// A scenario callback fired by the one-shot driver at a [`StepPoint`]. The
/// hook gets the cluster (free for queries, ingestion, crash/recovery of
/// nodes or the controller) and the in-flight job (for
/// [`RebalanceJob::apply_feed_batch`] and step introspection).
pub type StepHook = Box<dyn FnMut(&mut Cluster, &mut RebalanceJob) -> Result<()>>;

/// Options controlling a rebalance operation, built fluently:
///
/// ```ignore
/// RebalanceOptions::none()
///     .with_max_concurrent_moves(4)
///     .with_concurrent_writes(writes)
///     .with_failure(FailurePoint::CcBeforeCommitLog)
/// ```
#[derive(Default)]
pub struct RebalanceOptions {
    /// Records that arrive (through a data feed) while the rebalance is
    /// running. The driver spreads them across the job's waves; records
    /// hitting an already-shipped bucket are replicated to its destination.
    /// Only supported by bucketed schemes.
    pub concurrent_writes: Vec<(Key, Value)>,
    /// Inject a failure at one of the protocol points (Section V-D).
    pub failure: Option<FailurePoint>,
    /// How many bucket moves each wave runs in parallel (clamped to >= 1).
    /// 1 — the default — is the most conservative cost model: buckets move
    /// strictly one at a time and every wave is charged its slowest node.
    /// Wider waves overlap moves across nodes and finish measurably faster
    /// (the figure experiments use 4, matching AsterixDB's single Hyracks
    /// job shipping from all partitions concurrently). Ignored by the
    /// Hashing scheme.
    pub max_concurrent_moves: usize,
    /// Scenario hooks fired between job steps (bucketed schemes only).
    pub hooks: Vec<(StepPoint, StepHook)>,
    /// How buckets move during the data-movement phase. The default,
    /// [`MovePolicy::Components`], ships sealed LSM components whole; the
    /// [`MovePolicy::Records`] baseline re-materialises every record and is
    /// kept as a correctness oracle and benchmark reference. Ignored by the
    /// Hashing scheme, which has no buckets to ship.
    pub move_policy: MovePolicy,
    /// When destinations rebuild secondary-index entries for received
    /// buckets under [`MovePolicy::Components`]. The default,
    /// [`SecondaryRebuild::Deferred`], keeps the rebuild off the wave
    /// makespan and runs it on the first index query instead;
    /// [`SecondaryRebuild::Eager`] is the PR 3 behaviour, kept as the
    /// makespan baseline.
    pub secondary_rebuild: SecondaryRebuild,
}

impl std::fmt::Debug for RebalanceOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalanceOptions")
            .field("concurrent_writes", &self.concurrent_writes.len())
            .field("failure", &self.failure)
            .field("max_concurrent_moves", &self.max_concurrent_moves.max(1))
            .field("hooks", &self.hooks.len())
            .field("move_policy", &self.move_policy)
            .field("secondary_rebuild", &self.secondary_rebuild)
            .finish()
    }
}

impl RebalanceOptions {
    /// No concurrent writes, no failures, serial bucket movement.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds concurrent writes to the scenario.
    pub fn with_concurrent_writes(mut self, writes: Vec<(Key, Value)>) -> Self {
        self.concurrent_writes = writes;
        self
    }

    /// Injects a failure at the given protocol point.
    pub fn with_failure(mut self, failure: FailurePoint) -> Self {
        self.failure = Some(failure);
        self
    }

    /// Sets how many bucket moves each wave runs in parallel.
    pub fn with_max_concurrent_moves(mut self, moves: usize) -> Self {
        self.max_concurrent_moves = moves;
        self
    }

    /// Sets how buckets move (component shipping vs record re-materialisation).
    pub fn with_move_policy(mut self, policy: MovePolicy) -> Self {
        self.move_policy = policy;
        self
    }

    /// Sets when destinations rebuild secondary entries for received buckets.
    pub fn with_secondary_rebuild(mut self, rebuild: SecondaryRebuild) -> Self {
        self.secondary_rebuild = rebuild;
        self
    }

    /// Registers a scenario hook at a step boundary. Hooks run in
    /// registration order; a hook error aborts the rebalance cleanly.
    pub fn with_hook(
        mut self,
        point: StepPoint,
        hook: impl FnMut(&mut Cluster, &mut RebalanceJob) -> Result<()> + 'static,
    ) -> Self {
        self.hooks.push((point, Box::new(hook)));
        self
    }
}

/// Per-phase simulated times of a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    /// Initialization: directory refresh, planning, snapshot flushes.
    pub initialization: SimDuration,
    /// Data movement: the sum of the waves' makespans plus concurrent write
    /// replication.
    pub data_movement: SimDuration,
    /// Finalization: prepare + commit (or abort and cleanup).
    pub finalization: SimDuration,
}

/// The result of a rebalance operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceReport {
    /// The rebalance operation id.
    pub rebalance_id: RebalanceId,
    /// Committed or aborted.
    pub outcome: RebalanceOutcome,
    /// Total simulated elapsed time.
    pub elapsed: SimDuration,
    /// Per-phase breakdown.
    pub phases: PhaseTimes,
    /// Bytes of primary-index data scanned and shipped.
    pub bytes_moved: u64,
    /// Records moved.
    pub records_moved: u64,
    /// Buckets moved (0 for the Hashing scheme, which has no buckets).
    pub buckets_moved: usize,
    /// Fraction of the dataset's primary bytes that moved.
    pub moved_fraction: f64,
    /// Per-node busy time.
    pub per_node: Vec<(NodeId, SimDuration)>,
    /// Concurrent writes applied during the rebalance.
    pub concurrent_writes_applied: u64,
    /// Transfer attempts retried after a transient fault (0 without an
    /// installed fault schedule).
    pub retries: u64,
    /// Moves rerouted to survivors by re-planning around lost nodes.
    pub reroutes: u64,
}

fn fire_hooks(
    hooks: &mut [(StepPoint, StepHook)],
    point: StepPoint,
    cluster: &mut Cluster,
    job: &mut RebalanceJob,
) -> Result<()> {
    for (at, hook) in hooks.iter_mut() {
        let matches = *at == point
            || (*at == StepPoint::AfterEveryWave && matches!(point, StepPoint::AfterWave(_)));
        if matches {
            hook(cluster, job)?;
        }
    }
    Ok(())
}

impl Cluster {
    /// Rebalances a dataset onto the target topology.
    pub fn rebalance(
        &mut self,
        dataset: DatasetId,
        target: &ClusterTopology,
        options: RebalanceOptions,
    ) -> Result<RebalanceReport> {
        if target.is_empty() {
            return Err(ClusterError::Core(dynahash_core::CoreError::EmptyTopology));
        }
        let scheme = self.scheme_of(dataset)?;
        if scheme.is_bucketed() {
            self.rebalance_bucketed(dataset, target, options)
        } else {
            self.rebalance_hashing(dataset, target, options)
        }
    }

    // =================================================== bucketed schemes ===

    /// The one-shot driver: a loop over the [`RebalanceJob`] step machine.
    fn rebalance_bucketed(
        &mut self,
        dataset: DatasetId,
        target: &ClusterTopology,
        options: RebalanceOptions,
    ) -> Result<RebalanceReport> {
        let RebalanceOptions {
            concurrent_writes,
            failure,
            max_concurrent_moves,
            mut hooks,
            move_policy,
            secondary_rebuild,
        } = options;
        let mut job = RebalanceJob::plan(self, dataset, target, max_concurrent_moves)?;
        job.set_move_policy(move_policy);
        job.set_secondary_rebuild(secondary_rebuild);
        let result = self.drive_job(&mut job, concurrent_writes, failure, &mut hooks);
        if result.is_err() {
            // A failed scenario hook must not leave the dataset with splits
            // disabled or buckets pending.
            job.settle(self);
        }
        result
    }

    fn drive_job(
        &mut self,
        job: &mut RebalanceJob,
        concurrent_writes: Vec<(Key, Value)>,
        failure: Option<FailurePoint>,
        hooks: &mut [(StepPoint, StepHook)],
    ) -> Result<RebalanceReport> {
        fire_hooks(hooks, StepPoint::AfterPlan, self, job)?;
        job.init(self)?;
        fire_hooks(hooks, StepPoint::AfterInit, self, job)?;

        // Spread the scenario's concurrent writes across the waves; the
        // remainder (or everything, for a no-op plan) lands before prepare.
        let mut batches = split_into_batches(concurrent_writes, job.num_waves().max(1)).into_iter();
        while job.has_remaining_waves() {
            let wave = job.completed_waves();
            match job.run_wave(self) {
                Ok(_) => {}
                Err(ClusterError::NodeLost(_)) => {
                    // A permanent loss surfaced mid-movement (injected by a
                    // hook or a prior wave fault): reroute the dead node's
                    // moves to survivors and retry from the same wave index.
                    let replan = job.replan_wave(self)?;
                    if replan.is_noop() {
                        // Nothing to re-plan around — the loss hit a node
                        // outside the participant set; surface it.
                        job.run_wave(self)?;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
            if let Some(batch) = batches.next() {
                if !batch.is_empty() {
                    job.apply_feed_batch(self, batch)?;
                }
            }
            // Consume the fault scheduled to fire after this wave, if any.
            if let Some(fault) = self.take_wave_fault(wave as u64) {
                match fault {
                    crate::fault::WaveFault::Crash(n) => {
                        let _ = self.crash_node(n);
                        self.recover_all_nodes();
                    }
                    crate::fault::WaveFault::Lose(n) => {
                        self.lose_node(n)?;
                        job.replan_wave(self)?;
                    }
                }
            }
            fire_hooks(hooks, StepPoint::AfterWave(wave), self, job)?;
        }
        for batch in batches {
            if !batch.is_empty() {
                job.apply_feed_batch(self, batch)?;
            }
        }

        // Failure Case 1: an NC dies before it can vote "prepared".
        if let Some(FailurePoint::NcBeforePrepared(victim)) = failure {
            let _ = self.crash_node(victim);
        }
        fire_hooks(hooks, StepPoint::BeforePrepare, self, job)?;
        job.prepare(self)?;

        // Failure Case 2: an NC dies right after voting.
        if let Some(FailurePoint::NcAfterPrepared(victim)) = failure {
            let _ = self.crash_node(victim);
        }
        fire_hooks(hooks, StepPoint::AfterPrepare, self, job)?;

        // Failure Case 3: the CC dies before forcing COMMIT. On recovery it
        // sees BEGIN without COMMIT and aborts.
        let force_abort = failure == Some(FailurePoint::CcBeforeCommitLog) && {
            let status = self.restart_cc(job.rebalance_id());
            debug_assert_eq!(status, RebalanceLogStatus::InFlight);
            status != RebalanceLogStatus::CommittedNotDone && status != RebalanceLogStatus::Done
        };

        let outcome = if force_abort {
            job.abort(self)?;
            RebalanceOutcome::Aborted
        } else {
            job.decide(self)?
        };

        if outcome == RebalanceOutcome::Committed {
            // Failure Case 4: an NC dies after COMMIT was forced but before
            // acking its commit tasks.
            if let Some(FailurePoint::NcBeforeCommitted(victim)) = failure {
                let _ = self.crash_node(victim);
            }
            fire_hooks(hooks, StepPoint::AfterCommitLog, self, job)?;
            job.commit(self)?;

            // Failure Case 5: the CC dies after COMMIT but before DONE. On
            // recovery it re-drives the (idempotent) commit tasks — which
            // finalize does for every recovered node anyway.
            if failure == Some(FailurePoint::CcAfterCommitBeforeDone) {
                let status = self.restart_cc(job.rebalance_id());
                debug_assert_eq!(status, RebalanceLogStatus::CommittedNotDone);
            }
        }

        fire_hooks(hooks, StepPoint::BeforeFinalize, self, job)?;
        let report = job.finalize(self)?;

        // Failure Case 6: the CC dies after DONE — nothing to do.
        if failure == Some(FailurePoint::CcAfterDone) {
            let status = self.restart_cc(job.rebalance_id());
            debug_assert_eq!(status, RebalanceLogStatus::Done);
        }
        Ok(report)
    }

    /// Crashes and recovers the Cluster Controller, returning the status
    /// its recovery reads for the rebalance from the metadata log.
    fn restart_cc(&mut self, rebalance: RebalanceId) -> RebalanceLogStatus {
        self.controller.crash();
        self.controller.recover();
        self.controller.metadata_log.rebalance_status(rebalance)
    }

    // ================================================= Hashing (global) ====

    fn rebalance_hashing(
        &mut self,
        dataset: DatasetId,
        target: &ClusterTopology,
        options: RebalanceOptions,
    ) -> Result<RebalanceReport> {
        if !options.concurrent_writes.is_empty() {
            return Err(ClusterError::RebalanceAborted(
                "the Hashing scheme rebuilds the dataset and does not support concurrent writes"
                    .to_string(),
            ));
        }
        let cost = self.cost_model();
        let rebalance_id = self.controller.next_rebalance_id();
        let mut tl = NodeTimeline::new();
        self.controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceBegin {
                rebalance: rebalance_id,
                dataset,
            });
        tl.charge_coordinator(SimDuration::from_nanos(cost.job_overhead_ns));

        let spec = self.controller.dataset(dataset)?.spec.clone();
        let old_partitions = self.controller.dataset(dataset)?.partitions.clone();
        let new_partitions = target.partitions();
        let total_bytes = self.dataset_primary_bytes(dataset)?;

        // Scan every partition and route every record to its new partition.
        let mut routed: BTreeMap<_, Vec<(Key, Value)>> =
            new_partitions.iter().map(|p| (*p, Vec::new())).collect();
        let mut bytes_moved = 0u64;
        let mut records_moved = 0u64;
        // Cross-node traffic is shipped in batches (Hyracks frames); charge
        // the network per (source partition, destination node) batch.
        let mut inbound_bytes: BTreeMap<NodeId, u64> = BTreeMap::new();
        for p in &old_partitions {
            let src_node = self.node_of_partition(*p)?;
            let part = self.partition(*p)?;
            if !part.dataset_ids().contains(&dataset) {
                continue;
            }
            let entries = part
                .dataset(dataset)?
                .scan(dynahash_lsm::ScanOrder::Unordered);
            let scan_bytes: u64 = entries.iter().map(|e| e.size_bytes() as u64).sum();
            tl.charge(src_node, cost.disk_read(scan_bytes));
            for e in entries {
                let Some(value) = e.op.value().cloned() else {
                    continue;
                };
                let dst = dynahash_core::Scheme::modulo_partition(&e.key, &new_partitions);
                let dst_node = target
                    .node_of(dst)
                    .ok_or(ClusterError::UnknownPartition(dst))?;
                let record_bytes = e.size_bytes() as u64;
                bytes_moved += record_bytes;
                records_moved += 1;
                if dst_node != src_node {
                    *inbound_bytes.entry(dst_node).or_default() += record_bytes;
                }
                routed.entry(dst).or_default().push((e.key, value));
            }
        }
        for (node, bytes) in &inbound_bytes {
            tl.charge(*node, cost.network(*bytes));
        }

        // The whole rebuild is one data-movement phase.
        let report = |tl: &NodeTimeline, outcome, bytes_moved, records_moved, moved_fraction| {
            RebalanceReport {
                rebalance_id,
                outcome,
                elapsed: tl.elapsed(),
                phases: PhaseTimes {
                    data_movement: tl.elapsed(),
                    ..Default::default()
                },
                bytes_moved,
                records_moved,
                buckets_moved: 0,
                moved_fraction,
                per_node: tl.breakdown(),
                concurrent_writes_applied: 0,
                retries: 0,
                reroutes: 0,
            }
        };

        // Injected failure: discard the half-built copy and abort; the
        // original dataset is left unchanged.
        if options.failure.is_some() {
            self.controller
                .metadata_log
                .append_forced(LogRecordBody::RebalanceAbort {
                    rebalance: rebalance_id,
                });
            self.controller
                .metadata_log
                .append_forced(LogRecordBody::RebalanceDone {
                    rebalance: rebalance_id,
                });
            return Ok(report(&tl, RebalanceOutcome::Aborted, 0, 0, 0.0));
        }

        // Drop the old storage and build the new hash-partitioned dataset.
        for p in self.topology().partitions() {
            self.partition_mut(p)?.drop_dataset(dataset);
        }
        for p in &new_partitions {
            self.partition_mut(*p)?.create_dataset(
                dataset,
                &spec,
                vec![dynahash_lsm::BucketId::root()],
            );
        }
        for (p, records) in routed {
            let dst_node = target.node_of(p).ok_or(ClusterError::UnknownPartition(p))?;
            let load_bytes: u64 = records
                .iter()
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum();
            let n_records = records.len() as u64;
            // The Hashing baseline re-inserts every record through the full
            // ingestion pipeline of the new dataset (parse, primary-key and
            // secondary index maintenance), which is what makes global
            // rebalancing so much more expensive than shipping sealed bucket
            // components.
            tl.charge(
                dst_node,
                cost.disk_write(load_bytes) + cost.ingest_cpu(n_records),
            );
            let ds = self.partition_mut(p)?.dataset_mut(dataset)?;
            for (k, v) in records {
                ds.ingest(k, v)?;
            }
        }

        // Swap the routing metadata and finish. The version bump tells
        // cached sessions their modulo routes are void: the dataset was
        // rebuilt wholesale on the new partition list.
        {
            let meta = self.controller.dataset_mut(dataset)?;
            meta.partitions = new_partitions;
            meta.directory = None;
            meta.bump_partitions_version();
        }
        self.controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceCommit {
                rebalance: rebalance_id,
            });
        self.controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceDone {
                rebalance: rebalance_id,
            });

        let moved_fraction = if total_bytes == 0 {
            0.0
        } else {
            (bytes_moved as f64 / total_bytes as f64).min(1.0)
        };
        Ok(report(
            &tl,
            RebalanceOutcome::Committed,
            bytes_moved,
            records_moved,
            moved_fraction,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SecondaryIndexDef};
    use dynahash_core::Scheme;
    use dynahash_lsm::Bytes;

    fn payload(tag: u64) -> Bytes {
        let mut v = tag.to_be_bytes().to_vec();
        v.extend_from_slice(&[9u8; 56]);
        Bytes::from(v)
    }

    fn records(n: u64) -> Vec<(Key, Value)> {
        (0..n)
            .map(|i| (Key::from_u64(i), payload(i % 50)))
            .collect()
    }

    fn spec(scheme: Scheme) -> DatasetSpec {
        DatasetSpec::new("orders", scheme).with_secondary_index(SecondaryIndexDef::new(
            "idx_tag",
            |p: &[u8]| {
                if p.len() >= 8 {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&p[..8]);
                    Some(Key::from_u64(u64::from_be_bytes(b)))
                } else {
                    None
                }
            },
        ))
    }

    fn loaded_cluster(nodes: u32, scheme: Scheme, n_records: u64) -> (Cluster, DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
                cost_model: crate::CostModel::default(),
            },
        );
        let ds = cluster.create_dataset(spec(scheme)).unwrap();
        cluster.ingest(ds, records(n_records)).unwrap();
        (cluster, ds)
    }

    #[test]
    fn bucketed_scale_out_moves_a_fraction_and_stays_consistent() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 32 }, 3000);
        let before = cluster.dataset_len(ds).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(report.buckets_moved > 0);
        assert!(
            report.moved_fraction < 0.6,
            "moved {}",
            report.moved_fraction
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), before);
        cluster.check_dataset_consistency(ds).unwrap();
        // the new node now holds data
        let new_node_parts = cluster.topology().partitions_of_node(NodeId(2));
        let on_new: usize = new_node_parts
            .iter()
            .map(|p| {
                cluster
                    .partition(*p)
                    .unwrap()
                    .dataset(ds)
                    .unwrap()
                    .live_len()
            })
            .sum();
        assert!(on_new > 0);
    }

    #[test]
    fn bucketed_scale_in_empties_the_removed_node() {
        let (mut cluster, ds) = loaded_cluster(3, Scheme::StaticHash { num_buckets: 32 }, 3000);
        let before = cluster.dataset_len(ds).unwrap();
        let victim = NodeId(2);
        let target = cluster.topology_without(victim);
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), before);
        cluster.decommission_node(victim).unwrap();
        cluster.check_dataset_consistency(ds).unwrap();
        assert_eq!(cluster.topology().num_nodes(), 2);
    }

    #[test]
    fn hashing_rebalance_moves_nearly_everything() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::Hashing, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(
            report.moved_fraction > 0.8,
            "global rebalancing must move most data"
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn bucketed_rebalance_is_cheaper_than_hashing() {
        let (mut c1, d1) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 32 }, 2000);
        c1.add_node().unwrap();
        let t1 = c1.topology().clone();
        let r1 = c1.rebalance(d1, &t1, RebalanceOptions::none()).unwrap();

        let (mut c2, d2) = loaded_cluster(2, Scheme::Hashing, 2000);
        c2.add_node().unwrap();
        let t2 = c2.topology().clone();
        let r2 = c2.rebalance(d2, &t2, RebalanceOptions::none()).unwrap();

        assert!(r1.bytes_moved < r2.bytes_moved);
        assert!(r1.elapsed < r2.elapsed, "bucketed rebalance must be faster");
    }

    #[test]
    fn concurrent_writes_are_preserved_and_replicated() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 1500);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        // new records arriving during the rebalance (keys beyond the loaded range)
        let concurrent: Vec<(Key, Value)> = (10_000..10_300u64)
            .map(|i| (Key::from_u64(i), payload(i % 50)))
            .collect();
        let report = cluster
            .rebalance(
                ds,
                &target,
                RebalanceOptions::none().with_concurrent_writes(concurrent.clone()),
            )
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(report.concurrent_writes_applied, 300);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1500 + 300);
        cluster.check_dataset_consistency(ds).unwrap();
        // every concurrent write is readable after the rebalance
        for (k, _) in &concurrent {
            let p = cluster.route_key(ds, k).unwrap();
            assert!(cluster
                .partition(p)
                .unwrap()
                .dataset(ds)
                .unwrap()
                .get(k)
                .is_some());
        }
    }

    #[test]
    fn noop_rebalance_commits_without_moving() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 500);
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(report.buckets_moved, 0);
        assert_eq!(report.bytes_moved, 0);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn parallel_waves_finish_strictly_faster_than_serial() {
        // Same scale-in rebalance, once serial and once with 4-wide waves:
        // the wave makespan model must make the parallel run strictly
        // faster while moving exactly the same buckets.
        let run = |max_moves: usize| {
            let (mut cluster, ds) = loaded_cluster(4, Scheme::StaticHash { num_buckets: 32 }, 4000);
            let target = cluster.topology_without(NodeId(3));
            let report = cluster
                .rebalance(
                    ds,
                    &target,
                    RebalanceOptions::none().with_max_concurrent_moves(max_moves),
                )
                .unwrap();
            assert_eq!(report.outcome, RebalanceOutcome::Committed);
            cluster.decommission_node(NodeId(3)).unwrap();
            cluster.check_dataset_consistency(ds).unwrap();
            assert_eq!(cluster.dataset_len(ds).unwrap(), 4000);
            report
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.buckets_moved, parallel.buckets_moved);
        assert_eq!(serial.bytes_moved, parallel.bytes_moved);
        assert!(
            parallel.phases.data_movement < serial.phases.data_movement,
            "parallel {:?} !< serial {:?}",
            parallel.phases.data_movement,
            serial.phases.data_movement
        );
        assert!(parallel.elapsed < serial.elapsed);
    }

    #[test]
    fn options_builder_chains() {
        let opts = RebalanceOptions::none()
            .with_max_concurrent_moves(8)
            .with_concurrent_writes(vec![(Key::from_u64(1), payload(1))])
            .with_failure(FailurePoint::CcAfterDone)
            .with_move_policy(MovePolicy::Records)
            .with_hook(StepPoint::AfterInit, |_, _| Ok(()));
        assert_eq!(opts.max_concurrent_moves, 8);
        assert_eq!(opts.concurrent_writes.len(), 1);
        assert_eq!(opts.failure, Some(FailurePoint::CcAfterDone));
        assert_eq!(opts.move_policy, MovePolicy::Records);
        assert_eq!(
            RebalanceOptions::none().move_policy,
            MovePolicy::Components,
            "component shipping is the default"
        );
        assert_eq!(opts.hooks.len(), 1);
        let dbg = format!("{opts:?}");
        assert!(dbg.contains("max_concurrent_moves"));
    }

    #[test]
    fn hook_failure_after_commit_log_still_finishes_the_commit() {
        // Once COMMIT is durable the outcome is decided: a scenario failure
        // after that point must not leave pending buckets or disabled
        // splits behind — the cleanup path finishes the commit instead.
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 1200);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let err = cluster.rebalance(
            ds,
            &target,
            RebalanceOptions::none().with_hook(StepPoint::AfterCommitLog, |_, _| {
                Err(ClusterError::RebalanceAborted("scenario failure".into()))
            }),
        );
        assert!(err.is_err());
        // the commit was completed by the cleanup path: data moved, no
        // pending state, terminal WAL status
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_rebalance_integrity(ds, 1).unwrap();
        let on_new: usize = cluster
            .topology()
            .partitions_of_node(NodeId(2))
            .iter()
            .map(|p| {
                cluster
                    .partition(*p)
                    .unwrap()
                    .dataset(ds)
                    .unwrap()
                    .live_len()
            })
            .sum();
        assert!(on_new > 0, "the durable commit decision must be applied");
        // and the dataset remains fully rebalance-able
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
    }

    #[test]
    fn hooks_fire_between_steps_and_errors_abort_cleanly() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let fired = Rc::new(RefCell::new(Vec::new()));
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 1000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let log = Rc::clone(&fired);
        let report = cluster
            .rebalance(
                ds,
                &target,
                RebalanceOptions::none()
                    .with_hook(StepPoint::AfterInit, {
                        let log = Rc::clone(&fired);
                        move |_, job| {
                            log.borrow_mut().push(format!("init:{}", job.num_waves()));
                            Ok(())
                        }
                    })
                    .with_hook(StepPoint::AfterEveryWave, move |cluster, job| {
                        log.borrow_mut().push(format!(
                            "wave:{}:{}",
                            job.completed_waves(),
                            cluster.dataset_len(job.dataset()).unwrap()
                        ));
                        Ok(())
                    }),
            )
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        let events = fired.borrow();
        assert!(events[0].starts_with("init:"));
        assert!(events.len() > 1, "wave hooks must fire: {events:?}");

        // a failing hook aborts the rebalance and leaves the dataset usable
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 1000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let err = cluster.rebalance(
            ds,
            &target,
            RebalanceOptions::none().with_hook(StepPoint::AfterWave(0), |_, _| {
                Err(ClusterError::RebalanceAborted("scenario abort".into()))
            }),
        );
        assert!(err.is_err());
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1000);
        cluster.check_dataset_consistency(ds).unwrap();
        // a follow-up rebalance succeeds (splits were re-enabled, no pending
        // state was left behind)
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }
}
