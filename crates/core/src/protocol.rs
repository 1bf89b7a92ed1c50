//! The online rebalance protocol state machine (Section V).
//!
//! A rebalance operation has three phases — initialization, data movement,
//! and finalization — and the finalization uses a two-phase commit so that
//! all Node Controllers reach a unanimous decision even though log
//! replication may still be active when data movement "finishes".
//!
//! The coordinator here is a pure state machine: it validates transitions and
//! records votes, while the actual work (forcing log records, scanning
//! buckets, shipping data) is driven by `dynahash-cluster`. Keeping the
//! protocol pure makes the six failure cases of Section V-D directly
//! testable.

use std::collections::BTreeMap;

use dynahash_lsm::wal::RebalanceId;

use crate::topology::NodeId;
use crate::{CoreError, Result};

/// The phases of a rebalance operation, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RebalancePhase {
    /// BEGIN has been forced; the CC is refreshing directories, computing the
    /// plan, and the NCs are flushing the moving buckets' memory components.
    Initialization,
    /// Buckets are being scanned, shipped, and loaded; concurrent writes are
    /// replicated to the destinations' pending buckets.
    DataMovement,
    /// The CC is waiting for every NC to finish replication and flush the
    /// rebalance memory components (the "prepare" half of 2PC). Reads and
    /// writes on the dataset are briefly blocked.
    Prepare,
    /// COMMIT has been forced; NCs install received buckets and clean up
    /// moved buckets.
    Commit,
    /// DONE has been produced; the rebalance can be forgotten.
    Done,
    /// The rebalance aborted; intermediate results must be cleaned up.
    Aborted,
}

/// A participant's vote in the prepare phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeVote {
    /// The NC completed log replication and flushed rebalance writes.
    Yes,
    /// The NC failed to prepare; the rebalance must abort.
    No,
}

/// How the data-movement phase transfers a bucket between partitions
/// (Section IV of the paper argues for component-level movement: sealed LSM
/// components are immutable, so a bucket can move as whole files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MovePolicy {
    /// Scan the bucket into records at the source and re-materialise them at
    /// the destination (merge, re-sort, rebuild Bloom filters, rebuild every
    /// index). The static-hash-era baseline; kept as a correctness oracle
    /// and benchmark reference.
    Records,
    /// Ship the bucket's sealed components whole: Bloom filters and sorted
    /// runs travel with the component files, and the destination rebuilds
    /// only its secondary indexes. The default, and the source of the
    /// paper's rebalance-efficiency claim.
    #[default]
    Components,
}

impl MovePolicy {
    /// Stable label used by reports and benchmarks.
    pub fn name(&self) -> &'static str {
        match self {
            MovePolicy::Records => "Records",
            MovePolicy::Components => "Components",
        }
    }
}

/// When the destination of a component-level bucket move rebuilds its
/// secondary-index entries for the received records.
///
/// Secondary indexes never travel with a moved bucket (they store all
/// buckets together, Section IV); the destination derives their entries from
/// the shipped primary data. Doing that on the commit path puts an
/// O(records) CPU charge into every wave's makespan even though the workload
/// may never query those indexes — the same pay-lazily argument the dynamic
/// hybrid hash join work (Jahangiri et al., arXiv:2112.02480) makes for
/// partition builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecondaryRebuild {
    /// Rebuild secondary entries while installing the shipped components
    /// (the PR 3/PR 4 behaviour; kept as the makespan baseline).
    Eager,
    /// Record the received bucket as `SecondaryState::Deferred` and build
    /// its secondary entries on the first `index_scan` touching the dataset
    /// (or an explicit `warm_indexes` admin call). The default: the rebuild
    /// cost moves off the wave-commit path.
    #[default]
    Deferred,
}

impl SecondaryRebuild {
    /// Stable label used by reports and benchmarks.
    pub fn name(&self) -> &'static str {
        match self {
            SecondaryRebuild::Eager => "Eager",
            SecondaryRebuild::Deferred => "Deferred",
        }
    }
}

/// When and whether a wave speculatively re-executes a straggling transfer.
///
/// A slow-node fault stretches a transfer without failing it, so the retry
/// machinery never reacts and the whole wave makespan absorbs the stall. The
/// classic answer (MapReduce-style speculative execution) is to ship the
/// laggard's move *again* once it has run long past its peers and take the
/// first finisher. The slow factor models a transient environmental stall
/// (background compaction, a GC pause, a hot disk) pinned to the first
/// attempt; the backup, launched later from the live source, runs at nominal
/// speed and wins exactly when the stall is long enough to pay for the late
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationPolicy {
    /// Whether stragglers are speculatively re-executed at all.
    pub enabled: bool,
    /// A transfer qualifies as a straggler when its leg exceeds this multiple
    /// of the wave's median leg. Single-move waves never qualify (the only
    /// leg *is* the median).
    pub straggler_multiple: u32,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            enabled: true,
            straggler_multiple: 2,
        }
    }
}

impl SpeculationPolicy {
    /// Speculation switched off: stragglers run to completion unchallenged.
    pub fn disabled() -> Self {
        SpeculationPolicy {
            enabled: false,
            ..SpeculationPolicy::default()
        }
    }

    /// True when a transfer leg of `leg_ns` against a wave median of
    /// `median_ns` qualifies as a straggler worth re-executing.
    pub fn is_straggler(&self, leg_ns: u64, median_ns: u64) -> bool {
        self.enabled
            && median_ns > 0
            && leg_ns > median_ns.saturating_mul(u64::from(self.straggler_multiple.max(1)))
    }
}

/// The final outcome of a rebalance operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceOutcome {
    /// The rebalance committed: the new directory is installed.
    Committed,
    /// The rebalance aborted: the dataset is left unchanged.
    Aborted,
}

/// Failure-injection points corresponding to the six cases of Section V-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePoint {
    /// Case 1: an NC fails before voting "prepared".
    NcBeforePrepared(NodeId),
    /// Case 2: an NC fails after voting "prepared".
    NcAfterPrepared(NodeId),
    /// Case 3: the CC fails before forcing the COMMIT log record.
    CcBeforeCommitLog,
    /// Case 4: an NC fails before responding "committed".
    NcBeforeCommitted(NodeId),
    /// Case 5: the CC fails after forcing COMMIT but before DONE.
    CcAfterCommitBeforeDone,
    /// Case 6: the CC fails after DONE is persisted.
    CcAfterDone,
}

/// The CC-side coordinator of one rebalance operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceCoordinator {
    /// The rebalance operation id.
    pub rebalance_id: RebalanceId,
    phase: RebalancePhase,
    participants: Vec<NodeId>,
    votes: BTreeMap<NodeId, NodeVote>,
    committed_acks: BTreeMap<NodeId, bool>,
    outcome: Option<RebalanceOutcome>,
}

impl RebalanceCoordinator {
    /// Starts a rebalance: the caller must already have forced the BEGIN log
    /// record (the coordinator starts in the initialization phase).
    pub fn new(rebalance_id: RebalanceId, participants: Vec<NodeId>) -> Self {
        RebalanceCoordinator {
            rebalance_id,
            phase: RebalancePhase::Initialization,
            participants,
            votes: BTreeMap::new(),
            committed_acks: BTreeMap::new(),
            outcome: None,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> RebalancePhase {
        self.phase
    }

    /// The participating node controllers.
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// The final outcome, once decided.
    pub fn outcome(&self) -> Option<RebalanceOutcome> {
        self.outcome
    }

    /// Removes a participant that was permanently lost mid-rebalance: its
    /// vote and ack (if any) are discarded, and it no longer counts toward
    /// `all_voted` / `unanimous_yes` / `all_committed`. Only meaningful
    /// before the decision — re-planning around a loss happens during data
    /// movement; after the commit decision the outcome already stands.
    pub fn remove_participant(&mut self, node: NodeId) {
        self.participants.retain(|n| *n != node);
        self.votes.remove(&node);
        self.committed_acks.remove(&node);
    }

    fn expect_phase(&self, expected: RebalancePhase, action: &'static str) -> Result<()> {
        if self.phase == expected {
            Ok(())
        } else {
            Err(CoreError::InvalidTransition {
                from: self.phase,
                action,
            })
        }
    }

    /// Initialization complete: the CC requests data movement from all NCs.
    pub fn start_data_movement(&mut self) -> Result<()> {
        self.expect_phase(RebalancePhase::Initialization, "start_data_movement")?;
        self.phase = RebalancePhase::DataMovement;
        Ok(())
    }

    /// All data movement finished: the CC enters the prepare phase, which
    /// blocks incoming reads and writes on the rebalancing dataset while NCs
    /// finish log replication.
    pub fn start_prepare(&mut self) -> Result<()> {
        self.expect_phase(RebalancePhase::DataMovement, "start_prepare")?;
        self.phase = RebalancePhase::Prepare;
        Ok(())
    }

    /// Records an NC's prepare vote.
    pub fn record_vote(&mut self, node: NodeId, vote: NodeVote) -> Result<()> {
        self.expect_phase(RebalancePhase::Prepare, "record_vote")?;
        self.votes.insert(node, vote);
        Ok(())
    }

    /// True once every participant has voted.
    pub fn all_voted(&self) -> bool {
        self.participants.iter().all(|n| self.votes.contains_key(n))
    }

    /// True if every participant voted yes.
    pub fn unanimous_yes(&self) -> bool {
        self.all_voted() && self.votes.values().all(|v| *v == NodeVote::Yes)
    }

    /// Decides the outcome. If all votes are yes the coordinator moves to the
    /// commit phase (the caller must force the COMMIT log record *before*
    /// calling this); otherwise it aborts.
    pub fn decide(&mut self) -> Result<RebalanceOutcome> {
        self.expect_phase(RebalancePhase::Prepare, "decide")?;
        if self.unanimous_yes() {
            self.phase = RebalancePhase::Commit;
            self.outcome = Some(RebalanceOutcome::Committed);
            Ok(RebalanceOutcome::Committed)
        } else {
            self.phase = RebalancePhase::Aborted;
            self.outcome = Some(RebalanceOutcome::Aborted);
            Ok(RebalanceOutcome::Aborted)
        }
    }

    /// Aborts the rebalance from any phase before commit (node failure,
    /// operator cancellation, CC recovery seeing BEGIN without COMMIT).
    /// Aborting after the commit decision is invalid — the outcome of a
    /// rebalance is determined solely by whether COMMIT was forced.
    pub fn abort(&mut self) -> Result<()> {
        match self.phase {
            RebalancePhase::Commit | RebalancePhase::Done => Err(CoreError::InvalidTransition {
                from: self.phase,
                action: "abort",
            }),
            RebalancePhase::Aborted => Ok(()),
            _ => {
                self.phase = RebalancePhase::Aborted;
                self.outcome = Some(RebalanceOutcome::Aborted);
                Ok(())
            }
        }
    }

    /// Records that an NC finished its commit tasks (installing received
    /// buckets and cleaning up moved buckets).
    pub fn record_committed(&mut self, node: NodeId) -> Result<()> {
        self.expect_phase(RebalancePhase::Commit, "record_committed")?;
        self.committed_acks.insert(node, true);
        Ok(())
    }

    /// True once every participant acknowledged the commit.
    pub fn all_committed(&self) -> bool {
        self.participants
            .iter()
            .all(|n| self.committed_acks.get(n).copied().unwrap_or(false))
    }

    /// Finishes the rebalance (the caller produces the DONE log record).
    pub fn finish(&mut self) -> Result<()> {
        match self.phase {
            RebalancePhase::Commit => {
                self.phase = RebalancePhase::Done;
                Ok(())
            }
            RebalancePhase::Aborted => {
                // An aborted rebalance is also "done" once cleanup finished;
                // keep the Aborted phase but accept the call (idempotent).
                Ok(())
            }
            _ => Err(CoreError::InvalidTransition {
                from: self.phase,
                action: "finish",
            }),
        }
    }

    /// True if the rebalance reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase, RebalancePhase::Done | RebalancePhase::Aborted)
    }
}

// -------------------------------------------------- control-plane protocol

/// Decayed load counters for one bucket (or, aggregated, one partition), as
/// tracked by the cluster's heat map and reported to the control plane.
///
/// `reads`/`writes` are exponentially decayed operation counters fed from
/// the session data paths; `resident_bytes` is refreshed from storage
/// reporting when a heat snapshot is taken, so a snapshot always reflects
/// current residency even though the op counters decay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketHeat {
    /// Decayed point-read operations that touched the bucket.
    pub reads: u64,
    /// Decayed write operations (inserts and deletes) that hit the bucket.
    pub writes: u64,
    /// Logical bytes resident in the bucket at snapshot time.
    pub resident_bytes: u64,
}

impl BucketHeat {
    /// Total decayed operations, read and write.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Applies one decay step: both op counters are halved, so heat from k
    /// ticks ago contributes `2^-k` of its original weight.
    pub fn decay(&mut self) {
        self.reads >>= 1;
        self.writes >>= 1;
    }

    /// Folds another counter set into this one (partition aggregation).
    pub fn absorb(&mut self, other: &BucketHeat) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.resident_bytes += other.resident_bytes;
    }
}

/// Maximum-deviation imbalance over a set of per-partition loads:
/// `max_p |load(p) - avg| / avg`, the detection metric of the reference
/// shard rebalancer (SNIPPETS.md Snippet 3). Zero for an empty set or an
/// all-zero load vector — an empty cluster is perfectly balanced.
pub fn max_deviation_imbalance(loads: impl IntoIterator<Item = u64>) -> f64 {
    let loads: Vec<u64> = loads.into_iter().collect();
    if loads.is_empty() {
        return 0.0;
    }
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let avg = total as f64 / loads.len() as f64;
    loads
        .iter()
        .map(|&l| (l as f64 - avg).abs() / avg)
        .fold(0.0, f64::max)
}

/// A throttle on automatic data movement: at most `max_buckets_per_window`
/// bucket moves and `max_bytes_per_window` shipped bytes may start inside
/// one window of `window_ticks` control-plane ticks (the
/// `max_migrations_per_hour` knob of the reference rebalancer, expressed in
/// sim-time ticks). Moves that do not fit are deferred to a later window,
/// spreading a large rebalance over time instead of letting it saturate the
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationBudget {
    /// Bucket moves admitted per window.
    pub max_buckets_per_window: usize,
    /// Shipped bytes admitted per window.
    pub max_bytes_per_window: u64,
    /// Window length in control-plane ticks.
    pub window_ticks: u64,
}

impl Default for MigrationBudget {
    fn default() -> Self {
        MigrationBudget {
            max_buckets_per_window: 8,
            max_bytes_per_window: 4 * 1024 * 1024,
            window_ticks: 4,
        }
    }
}

impl MigrationBudget {
    /// True when a wave of `buckets` moves shipping `bytes` still fits the
    /// window that has already admitted `used_buckets` / `used_bytes`.
    pub fn admits(&self, used_buckets: usize, used_bytes: u64, buckets: usize, bytes: u64) -> bool {
        used_buckets + buckets <= self.max_buckets_per_window
            && used_bytes.saturating_add(bytes) <= self.max_bytes_per_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn happy_path_commits() {
        let mut c = RebalanceCoordinator::new(1, nodes(3));
        assert_eq!(c.phase(), RebalancePhase::Initialization);
        c.start_data_movement().unwrap();
        c.start_prepare().unwrap();
        for n in nodes(3) {
            c.record_vote(n, NodeVote::Yes).unwrap();
        }
        assert!(c.unanimous_yes());
        assert_eq!(c.decide().unwrap(), RebalanceOutcome::Committed);
        for n in nodes(3) {
            c.record_committed(n).unwrap();
        }
        assert!(c.all_committed());
        c.finish().unwrap();
        assert_eq!(c.phase(), RebalancePhase::Done);
        assert!(c.is_terminal());
    }

    #[test]
    fn a_single_no_vote_aborts() {
        let mut c = RebalanceCoordinator::new(2, nodes(3));
        c.start_data_movement().unwrap();
        c.start_prepare().unwrap();
        c.record_vote(NodeId(0), NodeVote::Yes).unwrap();
        c.record_vote(NodeId(1), NodeVote::No).unwrap();
        c.record_vote(NodeId(2), NodeVote::Yes).unwrap();
        assert!(!c.unanimous_yes());
        assert_eq!(c.decide().unwrap(), RebalanceOutcome::Aborted);
        assert_eq!(c.phase(), RebalancePhase::Aborted);
        assert!(c.is_terminal());
    }

    #[test]
    fn missing_votes_prevent_commit_decision() {
        let mut c = RebalanceCoordinator::new(3, nodes(2));
        c.start_data_movement().unwrap();
        c.start_prepare().unwrap();
        c.record_vote(NodeId(0), NodeVote::Yes).unwrap();
        assert!(!c.all_voted());
        // deciding with a missing vote aborts (it is not unanimous)
        assert_eq!(c.decide().unwrap(), RebalanceOutcome::Aborted);
    }

    #[test]
    fn out_of_order_transitions_are_rejected() {
        let mut c = RebalanceCoordinator::new(4, nodes(2));
        assert!(c.start_prepare().is_err());
        assert!(c.record_vote(NodeId(0), NodeVote::Yes).is_err());
        assert!(c.record_committed(NodeId(0)).is_err());
        assert!(c.finish().is_err());
        c.start_data_movement().unwrap();
        assert!(c.start_data_movement().is_err());
    }

    #[test]
    fn abort_is_allowed_before_commit_but_not_after() {
        let mut c = RebalanceCoordinator::new(5, nodes(2));
        c.start_data_movement().unwrap();
        c.abort().unwrap();
        assert_eq!(c.outcome(), Some(RebalanceOutcome::Aborted));
        // idempotent
        c.abort().unwrap();

        let mut c2 = RebalanceCoordinator::new(6, nodes(1));
        c2.start_data_movement().unwrap();
        c2.start_prepare().unwrap();
        c2.record_vote(NodeId(0), NodeVote::Yes).unwrap();
        c2.decide().unwrap();
        assert!(c2.abort().is_err(), "cannot abort after COMMIT decision");
    }

    #[test]
    fn finish_requires_commit_or_abort() {
        let mut c = RebalanceCoordinator::new(7, nodes(1));
        c.start_data_movement().unwrap();
        c.start_prepare().unwrap();
        c.record_vote(NodeId(0), NodeVote::No).unwrap();
        c.decide().unwrap();
        // aborted rebalance accepts finish (cleanup done)
        c.finish().unwrap();
        assert_eq!(c.phase(), RebalancePhase::Aborted);
    }

    #[test]
    fn speculation_policy_straggler_threshold() {
        let p = SpeculationPolicy::default();
        assert!(p.enabled);
        // at or below the multiple: not a straggler (strictly greater wins)
        assert!(!p.is_straggler(200, 100));
        assert!(p.is_straggler(201, 100));
        // a single-move wave (leg == median) never qualifies
        assert!(!p.is_straggler(100, 100));
        // a zero median (empty wave) never qualifies
        assert!(!p.is_straggler(100, 0));
        assert!(!SpeculationPolicy::disabled().is_straggler(1_000_000, 1));
        // a zero multiple is clamped to 1 rather than flagging everything
        let eager = SpeculationPolicy {
            enabled: true,
            straggler_multiple: 0,
        };
        assert!(!eager.is_straggler(100, 100));
        assert!(eager.is_straggler(101, 100));
    }

    #[test]
    fn bucket_heat_decays_and_aggregates() {
        let mut h = BucketHeat {
            reads: 8,
            writes: 5,
            resident_bytes: 100,
        };
        h.decay();
        assert_eq!((h.reads, h.writes), (4, 2));
        assert_eq!(h.resident_bytes, 100, "decay is op-only");
        let mut total = BucketHeat::default();
        total.absorb(&h);
        total.absorb(&h);
        assert_eq!(total.ops(), 12);
        assert_eq!(total.resident_bytes, 200);
    }

    #[test]
    fn max_deviation_matches_the_reference_shape() {
        assert_eq!(max_deviation_imbalance([]), 0.0);
        assert_eq!(max_deviation_imbalance([0, 0, 0]), 0.0);
        assert_eq!(max_deviation_imbalance([5, 5, 5, 5]), 0.0);
        // loads 10, 20, 30: avg 20, max deviation 10/20 = 0.5
        let imb = max_deviation_imbalance([10, 20, 30]);
        assert!((imb - 0.5).abs() < 1e-12, "{imb}");
        // a single hot partition dominates the metric
        assert!(max_deviation_imbalance([100, 1, 1, 1]) > 2.0);
    }

    #[test]
    fn migration_budget_caps_buckets_and_bytes() {
        let b = MigrationBudget {
            max_buckets_per_window: 4,
            max_bytes_per_window: 1000,
            window_ticks: 2,
        };
        assert!(b.admits(0, 0, 4, 1000));
        assert!(!b.admits(0, 0, 5, 10), "bucket cap");
        assert!(!b.admits(0, 500, 1, 501), "byte cap");
        assert!(b.admits(3, 999, 1, 1));
        assert!(!b.admits(4, 0, 1, 0), "window already full");
        assert!(
            !b.admits(0, u64::MAX - 1, 1, 1),
            "an over-budget window saturates instead of overflowing"
        );
    }
}
