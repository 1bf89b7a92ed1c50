//! Fault tolerance and recovery (Section V-D).
//!
//! Node and Cluster Controller failures during a rebalance are injected
//! through [`crate::rebalance::RebalanceOptions::with_failure`] (which the
//! one-shot driver translates into crashes between the steps of the
//! [`crate::job::RebalanceJob`] state machine), or directly by scenario code
//! driving a job step-by-step. This module adds the cluster-level
//! crash/recover entry points and a recovery report, and hosts the tests
//! that walk through the paper's six failure cases.

use dynahash_core::NodeId;
use dynahash_lsm::wal::{RebalanceId, RebalanceLogStatus};

use crate::cluster::Cluster;
use crate::{ClusterError, Result};

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Nodes that were down and have been brought back.
    pub recovered_nodes: Vec<NodeId>,
    /// Rebalance operations found in-flight in the metadata log and aborted.
    pub aborted_rebalances: Vec<RebalanceId>,
    /// Rebalance operations found committed-but-not-done and re-driven.
    pub redriven_rebalances: Vec<RebalanceId>,
}

impl Cluster {
    /// Crashes a node (its pending rebalance state is lost; it stops serving).
    pub fn crash_node(&mut self, node: NodeId) -> Result<()> {
        self.node_mut(node)?.crash();
        Ok(())
    }

    /// Recovers a node. Upon recovery the NC registers with the CC; any
    /// pending rebalance instructions are handled by the rebalance executor.
    /// A permanently lost node is not recoverable.
    pub fn recover_node(&mut self, node: NodeId) -> Result<()> {
        let nc = self.node_mut(node)?;
        if nc.is_lost() {
            return Err(ClusterError::NodeLost(node));
        }
        nc.recover();
        Ok(())
    }

    /// Permanently loses a node: it crashes and never comes back. In-flight
    /// rebalance jobs must [`replan_wave`](crate::job::RebalanceJob::replan_wave)
    /// around it; once no dataset's directory references its partitions it
    /// can be removed with [`Cluster::remove_lost_node`].
    pub fn lose_node(&mut self, node: NodeId) -> Result<()> {
        self.node_mut(node)?.mark_lost();
        self.faults.stats.lost_nodes.push(node);
        // Buckets whose only copy lived on this node are degraded from this
        // moment: every bucket the CC directory routes to its partitions,
        // minus buckets whose shipped pending copy survives on an alive
        // destination of an in-flight rebalance (the replan re-drives those
        // to commit). A mid-job replan records the same set; the dedup push
        // makes the double-record a no-op.
        let partitions = self.topology().partitions_of_node(node);
        let mut newly_lost: Vec<(crate::dataset::DatasetId, dynahash_core::BucketId)> = Vec::new();
        for dataset in self.controller.dataset_ids() {
            let Ok(meta) = self.controller.dataset(dataset) else {
                continue;
            };
            let Some(dir) = meta.directory.as_ref() else {
                continue;
            };
            for (bucket, partition) in dir.iter() {
                if !partitions.contains(&partition) {
                    continue;
                }
                let survives = self.active_rebalances.get(&dataset).is_some_and(|active| {
                    active.shipped.get(&bucket).is_some_and(|dst| {
                        active
                            .target
                            .node_of(*dst)
                            .is_some_and(|n| n != node && self.node_is_alive(n))
                    })
                });
                if !survives {
                    newly_lost.push((dataset, bucket));
                }
            }
        }
        for (dataset, bucket) in newly_lost {
            self.faults.stats.mark_lost(dataset, bucket);
        }
        Ok(())
    }

    /// True if the node is currently up.
    pub fn node_is_alive(&self, node: NodeId) -> bool {
        self.node(node).map(|n| n.is_alive()).unwrap_or(false)
    }

    /// True if the node is permanently lost.
    pub fn node_is_lost(&self, node: NodeId) -> bool {
        self.node(node).map(|n| n.is_lost()).unwrap_or(false)
    }

    /// Recovers every crashed node (permanently lost nodes stay down). Used
    /// by the rebalance finalization step (recovered NCs re-run their
    /// idempotent commit or cleanup tasks) and available to scenarios
    /// driving a job step-by-step.
    pub fn recover_all_nodes(&mut self) {
        let nodes: Vec<NodeId> = self.topology().nodes();
        for n in nodes {
            if let Ok(nc) = self.node_mut(n) {
                if !nc.is_alive() && !nc.is_lost() {
                    nc.recover();
                }
            }
        }
    }

    /// Crashes and immediately recovers the Cluster Controller, then scans
    /// the metadata log to classify every rebalance operation, mirroring the
    /// recovery rules of Section V-D. (The rebalance executor performs the
    /// same classification inline when a failure is injected; this entry
    /// point lets tests and operators run it explicitly.)
    pub fn restart_controller(&mut self) -> RecoveryReport {
        self.controller.crash();
        self.controller.recover();
        let mut aborted = Vec::new();
        let mut redriven = Vec::new();
        // Rebalance ids are dense and small; scan the ones we may have issued.
        for id in 1..=64u64 {
            match self.controller.metadata_log.rebalance_status(id) {
                RebalanceLogStatus::InFlight => aborted.push(id),
                RebalanceLogStatus::CommittedNotDone => redriven.push(id),
                _ => {}
            }
        }
        let recovered: Vec<NodeId> = self
            .topology()
            .nodes()
            .into_iter()
            .filter(|n| !self.node_is_alive(*n) && !self.node_is_lost(*n))
            .collect();
        for n in &recovered {
            let _ = self.recover_node(*n);
        }
        RecoveryReport {
            recovered_nodes: recovered,
            aborted_rebalances: aborted,
            redriven_rebalances: redriven,
        }
    }
}

impl From<ClusterError> for std::io::Error {
    fn from(e: ClusterError) -> Self {
        std::io::Error::other(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::rebalance::RebalanceOptions;
    use dynahash_core::{FailurePoint, RebalanceOutcome, Scheme};
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    fn loaded(nodes: u32) -> (Cluster, crate::DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
                cost_model: crate::CostModel::default(),
            },
        );
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "orders",
                Scheme::StaticHash { num_buckets: 16 },
            ))
            .unwrap();
        let records: Vec<(Key, Bytes)> = (0..1200u64)
            .map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 250) as u8; 48])))
            .collect();
        cluster.ingest(ds, records).unwrap();
        (cluster, ds)
    }

    fn scale_out_with_failure(
        failure: FailurePoint,
    ) -> (Cluster, crate::DatasetId, RebalanceOutcome) {
        let (mut cluster, ds) = loaded(2);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none().with_failure(failure))
            .unwrap();
        let outcome = report.outcome;
        (cluster, ds, outcome)
    }

    #[test]
    fn case1_nc_fails_before_prepared_aborts_and_leaves_dataset_intact() {
        let (cluster, ds, outcome) =
            scale_out_with_failure(FailurePoint::NcBeforePrepared(NodeId(2)));
        assert_eq!(outcome, RebalanceOutcome::Aborted);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_dataset_consistency(ds).unwrap();
        // nothing landed on the new node
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
        assert_eq!(on_new, 0);
    }

    #[test]
    fn case2_nc_fails_after_prepared_still_commits() {
        let (cluster, ds, outcome) =
            scale_out_with_failure(FailurePoint::NcAfterPrepared(NodeId(2)));
        assert_eq!(outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn case3_cc_fails_before_commit_log_aborts() {
        let (cluster, ds, outcome) = scale_out_with_failure(FailurePoint::CcBeforeCommitLog);
        assert_eq!(outcome, RebalanceOutcome::Aborted);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn case4_nc_fails_before_committed_ack_commits_after_recovery() {
        let (cluster, ds, outcome) =
            scale_out_with_failure(FailurePoint::NcBeforeCommitted(NodeId(0)));
        assert_eq!(outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_dataset_consistency(ds).unwrap();
        assert!(cluster.node_is_alive(NodeId(0)));
    }

    #[test]
    fn case5_cc_fails_after_commit_before_done_commits() {
        let (cluster, ds, outcome) = scale_out_with_failure(FailurePoint::CcAfterCommitBeforeDone);
        assert_eq!(outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn case6_cc_fails_after_done_is_a_noop() {
        let (cluster, ds, outcome) = scale_out_with_failure(FailurePoint::CcAfterDone);
        assert_eq!(outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn crash_and_recover_node_roundtrip() {
        let (mut cluster, _ds) = loaded(2);
        cluster.crash_node(NodeId(1)).unwrap();
        assert!(!cluster.node_is_alive(NodeId(1)));
        let report = cluster.restart_controller();
        assert_eq!(report.recovered_nodes, vec![NodeId(1)]);
        assert!(cluster.node_is_alive(NodeId(1)));
        assert!(report.aborted_rebalances.is_empty());
    }

    #[test]
    fn ingest_into_downed_node_fails() {
        let (mut cluster, ds) = loaded(2);
        cluster.crash_node(NodeId(0)).unwrap();
        let err = cluster.ingest(ds, vec![(Key::from_u64(50_000), Bytes::from_static(b"x"))]);
        // the record may route to node 0 (down) or node 1 (up); if it routes
        // to the downed node the feed fails with NodeDown
        if let Err(e) = err {
            assert!(matches!(e, ClusterError::NodeDown(_)));
        }
        cluster.recover_node(NodeId(0)).unwrap();
    }
}
