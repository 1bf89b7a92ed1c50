//! The deterministic fault plane: seeded, replayable fault schedules
//! injected at the node/partition boundary.
//!
//! DynaHash's Section V-D enumerates the rebalance failure points; this
//! module turns them from terminal errors into *expected inputs*. A
//! [`FaultSchedule`] describes, as a pure function of a seed, which bucket
//! transfers fail transiently (and how often), which nodes run slow, and at
//! which wave a node crashes or is permanently lost. Because every decision
//! is derived from the seed — never from wall-clock time or ambient
//! randomness — a failing run replays exactly from its seed, the same
//! guarantee the soak fleet already gives for workload generation.
//!
//! The consumers are:
//!
//! * [`RebalanceJob::run_wave`](crate::job::RebalanceJob::run_wave) — each
//!   bucket transfer consults [`FaultSchedule::transient_failure`] per
//!   attempt and retries under the job's [`RetryPolicy`], charging capped
//!   exponential backoff to the wave's [`NodeTimeline`](crate::sim::NodeTimeline)
//!   so retries cost simulated makespan; slow nodes scale their charged
//!   durations by [`FaultSchedule::slow_factor`];
//! * the drivers (`rebalance::drive_job`, the soak runner) — between waves
//!   they take the scheduled [`WaveFault`] for the wave index just run and
//!   crash (+ recover) or permanently lose the named node, after which
//!   [`RebalanceJob::replan_wave`](crate::job::RebalanceJob::replan_wave)
//!   reroutes the dead node's moves to survivors;
//! * [`Admin::health`](crate::cluster::Admin::health) — surfaces the
//!   accumulated [`FaultStats`] plus per-node state and degraded datasets.
//!
//! With no schedule installed (or an empty one) every consumer takes the
//! exact code path it took before this module existed: the fault-free path
//! is byte-identical, which the `faults` experiments figure gates in CI.

use std::collections::BTreeMap;

use dynahash_core::{BucketId, NodeId, PartitionId};
use dynahash_lsm::rng::SplitMix64;

use crate::dataset::DatasetId;
use crate::sim::SimDuration;

// ---------------------------------------------------------------- retries

/// Bounded retries with capped exponential backoff for one bucket transfer.
///
/// Attempt `k` (zero-based) that fails transiently charges
/// `min(base_backoff << k, max_backoff)` of simulated wait to both endpoint
/// nodes before the next attempt, so absorbed faults still cost makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so a transfer gets
    /// `max_retries + 1` attempts total).
    pub max_retries: u32,
    /// Backoff charged after the first transient failure.
    pub base_backoff: SimDuration,
    /// Ceiling on the per-attempt backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: SimDuration::from_nanos(1_000_000),
            max_backoff: SimDuration::from_nanos(8_000_000),
        }
    }
}

impl RetryPolicy {
    /// The backoff charged after failed attempt `attempt` (zero-based):
    /// `base_backoff * 2^attempt`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shifted = self
            .base_backoff
            .as_nanos()
            .saturating_shl(attempt.min(32))
            .max(self.base_backoff.as_nanos());
        SimDuration(shifted.min(self.max_backoff.as_nanos()))
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}
impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

// ------------------------------------------------------------ wave faults

/// A fault scheduled to fire after a specific rebalance wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveFault {
    /// Crash the node (it recovers with its data; pending copies dropped).
    Crash(NodeId),
    /// Permanently lose the node: it never comes back, and
    /// [`RebalanceJob::replan_wave`](crate::job::RebalanceJob::replan_wave)
    /// must reroute its pending moves to survivors.
    Lose(NodeId),
}

// -------------------------------------------------------------- schedule

/// A seeded, replayable schedule of faults.
///
/// Transient-failure decisions are a *pure function* of
/// `(seed, bucket, from, to, attempt)` — the schedule keeps no mutable
/// state for them — so two runs with the same schedule see the same faults
/// regardless of interleaving. Wave faults are one-shot: drivers consume
/// them with [`FaultSchedule::take_wave_fault`] via the cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    seed: u64,
    /// Per-mille probability that one transfer attempt fails transiently.
    transient_per_mille: u16,
    /// Hard cap on transient failures injected into one transfer; kept
    /// below the retry budget so every transient fault is absorbed.
    max_transient_per_transfer: u32,
    /// Nodes whose charged durations are scaled by the factor (> 1 = slow).
    slow_nodes: BTreeMap<NodeId, u32>,
    /// Wave index → fault fired (once) after that wave completes.
    wave_faults: BTreeMap<u64, WaveFault>,
}

impl FaultSchedule {
    /// An empty schedule: injects nothing, byte-identical behaviour to
    /// running with no schedule installed at all.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule whose transient decisions derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..FaultSchedule::default()
        }
    }

    /// Enables transient ship failures: each transfer attempt fails with
    /// probability `per_mille`/1000, at most `max_per_transfer` times per
    /// transfer. Keep `max_per_transfer <= RetryPolicy::max_retries` so
    /// every transient fault is absorbed by retry instead of failing the
    /// wave.
    pub fn with_transient(mut self, per_mille: u16, max_per_transfer: u32) -> Self {
        self.transient_per_mille = per_mille.min(1000);
        self.max_transient_per_transfer = max_per_transfer;
        self
    }

    /// Marks `node` as slow: every duration charged to it during a transfer
    /// is multiplied by `factor`.
    pub fn with_slow_node(mut self, node: NodeId, factor: u32) -> Self {
        self.slow_nodes.insert(node, factor.max(1));
        self
    }

    /// Schedules `fault` to fire once, after wave `wave` completes.
    pub fn with_wave_fault(mut self, wave: u64, fault: WaveFault) -> Self {
        self.wave_faults.insert(wave, fault);
        self
    }

    /// True when the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.transient_per_mille == 0 && self.slow_nodes.is_empty() && self.wave_faults.is_empty()
    }

    /// Pure transient-failure decision for attempt `attempt` (zero-based)
    /// of shipping `bucket` from `from` to `to`. Attempts at or beyond the
    /// per-transfer cap never fail, so a capped schedule can always be
    /// absorbed by a retry budget of at least the cap.
    pub fn transient_failure(
        &self,
        bucket: BucketId,
        from: PartitionId,
        to: PartitionId,
        attempt: u32,
    ) -> bool {
        if self.transient_per_mille == 0 || attempt >= self.max_transient_per_transfer {
            return false;
        }
        let mix = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ ((bucket.bits as u64) << 32)
            ^ ((bucket.depth as u64) << 24)
            ^ ((from.0 as u64) << 12)
            ^ ((to.0 as u64) << 4)
            ^ attempt as u64;
        let mut rng = SplitMix64::seed_from_u64(mix);
        rng.gen_range(0..1000) < self.transient_per_mille as u64
    }

    /// The slow-down factor for `node` (1 = full speed).
    pub fn slow_factor(&self, node: NodeId) -> u32 {
        self.slow_nodes.get(&node).copied().unwrap_or(1)
    }

    /// Scales a charged duration by the node's slow-down factor.
    pub fn scaled(&self, node: NodeId, d: SimDuration) -> SimDuration {
        SimDuration(d.as_nanos().saturating_mul(self.slow_factor(node) as u64))
    }

    /// Removes and returns the fault scheduled after wave `wave`, if any
    /// (one-shot: a second take for the same wave returns `None`).
    pub fn take_wave_fault(&mut self, wave: u64) -> Option<WaveFault> {
        self.wave_faults.remove(&wave)
    }
}

// ----------------------------------------------------------------- stats

/// Counters the fault plane accumulates across jobs; surfaced by
/// [`Admin::health`](crate::cluster::Admin::health) and the soak report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient ship failures injected (every one must be absorbed).
    pub transient_faults: u64,
    /// Transfer attempts re-tried after a transient failure.
    pub retries: u64,
    /// Total simulated backoff charged to retries.
    pub backoff: SimDuration,
    /// Bucket moves rerouted to a surviving node by `replan_wave`.
    pub reroutes: u64,
    /// Buckets re-shipped from a live source after their first destination
    /// was lost (the WAL's `ShippedMove` log names the components).
    pub reshipped: u64,
    /// Straggling transfers speculatively re-executed (a backup copy of the
    /// move was launched because the first attempt ran long past the wave's
    /// median leg).
    pub speculated: u64,
    /// Speculative backups that finished before the original attempt (the
    /// original's work was cancelled; the wave charged the winner's window).
    pub speculation_wins: u64,
    /// Lost buckets restored by committed repairs, cumulative.
    pub repaired_buckets: u64,
    /// Nodes permanently lost (never recovered).
    pub lost_nodes: Vec<NodeId>,
    /// Buckets whose only copy died with a lost node, per dataset. Such a
    /// dataset keeps serving every other bucket (degraded mode); a committed
    /// repair ([`crate::job::RebalanceJob::plan_repair`]) removes its
    /// buckets from this map.
    pub lost_buckets: BTreeMap<DatasetId, Vec<BucketId>>,
}

impl FaultStats {
    /// Datasets currently serving in degraded mode (at least one bucket
    /// lost with a dead node).
    pub fn degraded_datasets(&self) -> Vec<DatasetId> {
        self.lost_buckets.keys().copied().collect()
    }

    /// The lost bucket ids of one dataset, sorted (empty when healthy), so
    /// repair progress is observable bucket by bucket.
    pub fn degraded_buckets(&self, dataset: DatasetId) -> Vec<BucketId> {
        let mut buckets = self.lost_buckets.get(&dataset).cloned().unwrap_or_default();
        buckets.sort();
        buckets
    }

    /// Records a bucket of `dataset` as lost (idempotent).
    pub(crate) fn mark_lost(&mut self, dataset: DatasetId, bucket: BucketId) {
        let lost = self.lost_buckets.entry(dataset).or_default();
        if !lost.contains(&bucket) {
            lost.push(bucket);
        }
    }

    /// Records a lost bucket of `dataset` as restored by a repair.
    pub(crate) fn mark_repaired(&mut self, dataset: DatasetId, bucket: BucketId) {
        if let Some(lost) = self.lost_buckets.get_mut(&dataset) {
            lost.retain(|b| *b != bucket);
            if lost.is_empty() {
                self.lost_buckets.remove(&dataset);
            }
        }
        self.repaired_buckets += 1;
    }
}

// ---------------------------------------------------------------- health

/// Liveness of one node, as reported by [`Admin::health`].
///
/// [`Admin::health`]: crate::cluster::Admin::health
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving normally.
    Alive,
    /// Crashed; recoverable with its data intact.
    Crashed,
    /// Permanently lost; never returns.
    Lost,
    /// Alive and marked for scale-in by `Cluster::drain_node`: serves reads
    /// and writes and can be a move source, but is never picked as a
    /// destination.
    Draining,
}

/// The cluster health surface: per-node state plus the fault-plane
/// counters, so operators (and the chaos gates) can see degraded serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterHealth {
    /// Every node currently in the topology, with its state (nodes already
    /// removed with `remove_lost_node` survive in `stats.lost_nodes`).
    pub nodes: Vec<(NodeId, NodeState)>,
    /// Accumulated fault-plane counters.
    pub stats: FaultStats,
    /// Progress of every in-flight rebalance job (% buckets moved, bytes
    /// shipped, ETA in sim-time, waves remaining), published by the job's
    /// steps and cleared at finalization.
    pub jobs: Vec<crate::control::JobProgress>,
}

impl ClusterHealth {
    /// True when every node is alive and no dataset is degraded.
    pub fn all_healthy(&self) -> bool {
        self.nodes
            .iter()
            .all(|(_, s)| matches!(s, NodeState::Alive | NodeState::Draining))
            && self.stats.lost_buckets.is_empty()
    }

    /// Datasets serving without some of their buckets.
    pub fn degraded_datasets(&self) -> Vec<DatasetId> {
        self.stats.degraded_datasets()
    }

    /// Per-dataset lost bucket ids, sorted, so operators can watch a repair
    /// drain the list bucket by bucket.
    pub fn degraded_buckets(&self) -> Vec<(DatasetId, Vec<BucketId>)> {
        self.stats
            .lost_buckets
            .keys()
            .map(|&ds| (ds, self.stats.degraded_buckets(ds)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_decisions_are_pure_and_capped() {
        let b = BucketId { bits: 5, depth: 3 };
        let s = FaultSchedule::seeded(42).with_transient(1000, 2);
        // per-mille 1000 ⇒ every attempt under the cap fails …
        assert!(s.transient_failure(b, PartitionId(0), PartitionId(1), 0));
        assert!(s.transient_failure(b, PartitionId(0), PartitionId(1), 1));
        // … and the cap guarantees attempt 2 succeeds.
        assert!(!s.transient_failure(b, PartitionId(0), PartitionId(1), 2));
        // pure: same inputs, same answer
        let s2 = FaultSchedule::seeded(42).with_transient(1000, 2);
        assert_eq!(
            s.transient_failure(b, PartitionId(0), PartitionId(1), 0),
            s2.transient_failure(b, PartitionId(0), PartitionId(1), 0)
        );
        // a different seed flips some decisions eventually
        let s3 = FaultSchedule::seeded(7).with_transient(500, 4);
        let flips = (0u32..4)
            .filter(|&a| s3.transient_failure(b, PartitionId(0), PartitionId(1), a))
            .count();
        assert!(flips < 4, "per-mille 500 cannot fail every attempt");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::from_nanos(1_000_000));
        assert_eq!(p.backoff(1), SimDuration::from_nanos(2_000_000));
        assert_eq!(p.backoff(2), SimDuration::from_nanos(4_000_000));
        assert_eq!(p.backoff(3), SimDuration::from_nanos(8_000_000));
        assert_eq!(p.backoff(10), p.max_backoff, "capped");
        assert_eq!(p.backoff(63), p.max_backoff, "shift overflow saturates");
    }

    #[test]
    fn wave_faults_are_one_shot() {
        let n = NodeId(3);
        let mut s = FaultSchedule::seeded(1).with_wave_fault(2, WaveFault::Lose(n));
        assert!(!s.is_empty());
        assert_eq!(s.take_wave_fault(0), None);
        assert_eq!(s.take_wave_fault(2), Some(WaveFault::Lose(n)));
        assert_eq!(s.take_wave_fault(2), None, "one-shot");
    }

    #[test]
    fn empty_schedule_injects_nothing() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        let b = BucketId { bits: 0, depth: 0 };
        assert!(!s.transient_failure(b, PartitionId(0), PartitionId(1), 0));
        assert_eq!(s.slow_factor(NodeId(0)), 1);
        assert_eq!(
            s.scaled(NodeId(0), SimDuration::from_nanos(10)),
            SimDuration::from_nanos(10)
        );
    }

    #[test]
    fn slow_factor_scales_durations() {
        let s = FaultSchedule::seeded(9).with_slow_node(NodeId(1), 3);
        assert_eq!(
            s.scaled(NodeId(1), SimDuration::from_nanos(100)),
            SimDuration::from_nanos(300)
        );
        assert_eq!(
            s.scaled(NodeId(2), SimDuration::from_nanos(100)),
            SimDuration::from_nanos(100)
        );
    }
}
