//! The load-aware auto-rebalancing control plane: the monitor → decide → act
//! loop that turns operator-driven rebalancing into a continuous process.
//!
//! The subsystem has four parts:
//!
//! * **Heat tracking** — an opt-in [`HeatMap`] on the cluster accumulates
//!   per-bucket read/write counters, fed from the session data paths
//!   (`get`/`put`/`delete`/`ingest`) at the cost of one local-directory
//!   probe per armed operation. Counters decay exponentially on control
//!   ticks, so heat reflects *recent* traffic. Snapshots merge the op
//!   counters with storage residency ([`crate::cluster::Admin::heat`]).
//!   With heat tracking disarmed every data path takes its pre-control-plane
//!   code path, which the `control` experiments figure gates in CI.
//! * **Decision loop** — a [`ControlPlane`] driven by an explicit
//!   [`ControlPlane::tick`]. Each tick computes the max-deviation imbalance
//!   of every bucketed dataset from heat-weighted partition loads
//!   (`resident_bytes + ops * op_weight_bytes`), splits buckets whose
//!   decayed op count exceeds the hot-bucket budget, and plans a rebalance
//!   when a dataset stays above the imbalance threshold for
//!   `hysteresis_ticks` *consecutive* ticks — with a cooldown after every
//!   committed job so back-to-back rebalances cannot thrash. Everything is
//!   a pure function of the tick sequence and the workload: no wall clock,
//!   no ambient randomness.
//! * **Throttled execution** — an auto-planned [`RebalanceJob`] is driven
//!   wave by wave across ticks under a [`MigrationBudget`]: a window of
//!   `window_ticks` ticks admits at most `max_buckets_per_window` moves and
//!   `max_bytes_per_window` shipped bytes; waves that do not fit are
//!   deferred (and logged) until the window rolls. Health monitoring runs
//!   before every wave: a permanently lost participant triggers
//!   [`RebalanceJob::replan_wave`] from the control plane instead of
//!   letting a wave trip over the dead node.
//! * **Observable status** — every decision (triggered, suppressed by
//!   hysteresis or cooldown, deferred by budget, re-planned, committed) is
//!   logged as a [`ControlDecision`], surfaced through
//!   [`ControlPlane::status`]; in-flight job progress is published to the
//!   cluster's [`JobProgress`] registry and reported by
//!   [`crate::cluster::Admin::health`].
//!
//! Idle ticks are not wasted: with no job in flight and nothing triggered,
//! the loop drains deferred secondary-index stashes (the background
//! warm-indexes task) and the commit path pushes
//! [`dynahash_core::DirectoryDelta`]s to subscribed sessions, so clients
//! learn about auto-rebalances without paying a stale-route redirect.

use std::cell::RefCell;
use std::collections::BTreeMap;

use dynahash_core::{
    max_deviation_imbalance, BucketHeat, BucketId, DirectoryDelta, GlobalDirectory,
    MigrationBudget, NodeId, PartitionId, RebalanceOutcome,
};
use dynahash_lsm::entry::{Key, Value};
use dynahash_lsm::wal::RebalanceId;

use crate::cluster::Cluster;
use crate::dataset::{DatasetId, DatasetMeta};
use crate::job::RebalanceJob;
use crate::sim::SimDuration;
use crate::{ClusterError, Result};

/// Decision-log entries kept by the control plane (older ones are dropped).
const MAX_DECISIONS: usize = 64;

/// Pushed updates buffered per subscribed session before the outbox
/// collapses into a single full-resync marker.
const MAX_PENDING_PUSHES: usize = 8;

// ------------------------------------------------------------ heat tracking

/// Per-bucket decayed operation counters for every dataset, armed on the
/// cluster with [`Cluster::set_heat_tracking`]. Only the op counters live
/// here; residency (resident bytes) is read from storage when a snapshot is
/// taken, so the map stays a few words per active bucket.
#[derive(Debug, Clone, Default)]
pub struct HeatMap {
    ops: BTreeMap<DatasetId, BTreeMap<BucketId, BucketHeat>>,
}

impl HeatMap {
    /// Records one point read against a bucket.
    pub fn note_read(&mut self, dataset: DatasetId, bucket: BucketId) {
        self.ops
            .entry(dataset)
            .or_default()
            .entry(bucket)
            .or_default()
            .reads += 1;
    }

    /// Records one write (insert or delete) against a bucket.
    pub fn note_write(&mut self, dataset: DatasetId, bucket: BucketId) {
        self.ops
            .entry(dataset)
            .or_default()
            .entry(bucket)
            .or_default()
            .writes += 1;
    }

    /// One decay step: every op counter is halved, and buckets whose heat
    /// reached zero are forgotten so the map tracks only active buckets.
    pub fn decay(&mut self) {
        for buckets in self.ops.values_mut() {
            buckets.retain(|_, h| {
                h.decay();
                h.ops() > 0
            });
        }
        self.ops.retain(|_, buckets| !buckets.is_empty());
    }

    /// Splits a bucket's heat along with the bucket: each child inherits
    /// half of the parent's counters (the key split is a hash bit, so an
    /// even split is the best stateless estimate).
    pub fn on_split(&mut self, dataset: DatasetId, parent: BucketId, lo: BucketId, hi: BucketId) {
        let Some(buckets) = self.ops.get_mut(&dataset) else {
            return;
        };
        let Some(heat) = buckets.remove(&parent) else {
            return;
        };
        let half = BucketHeat {
            reads: heat.reads / 2,
            writes: heat.writes / 2,
            ..BucketHeat::default()
        };
        buckets.entry(lo).or_default().absorb(&half);
        buckets.entry(hi).or_default().absorb(&half);
    }

    /// A copy of the dataset's op counters (reads/writes only; residency
    /// fields are zero — [`crate::cluster::Admin::heat`] fills them in).
    pub fn ops_snapshot(&self, dataset: DatasetId) -> BTreeMap<BucketId, BucketHeat> {
        self.ops.get(&dataset).cloned().unwrap_or_default()
    }
}

/// The cluster-resident cell holding the (optional) armed [`HeatMap`].
///
/// Interior mutability lets the *read* path (`&Cluster`) feed counters; the
/// borrow is taken and released inside each method, never held across other
/// cluster calls (see LOCK_ORDER.md, rank 20).
#[derive(Debug, Default)]
pub(crate) struct HeatCell {
    inner: RefCell<Option<HeatMap>>,
}

impl HeatCell {
    /// True when heat tracking is armed. The disarmed check is the only
    /// cost the data paths pay when the control plane is not in use.
    pub(crate) fn armed(&self) -> bool {
        self.inner.borrow().is_some()
    }

    /// Arms heat tracking (keeps existing counters when already armed).
    pub(crate) fn arm(&self) {
        let mut inner = self.inner.borrow_mut();
        if inner.is_none() {
            *inner = Some(HeatMap::default());
        }
    }

    /// Disarms heat tracking and drops all counters.
    pub(crate) fn disarm(&self) {
        *self.inner.borrow_mut() = None;
    }

    pub(crate) fn note_read(&self, dataset: DatasetId, bucket: BucketId) {
        if let Some(map) = self.inner.borrow_mut().as_mut() {
            map.note_read(dataset, bucket);
        }
    }

    pub(crate) fn note_write(&self, dataset: DatasetId, bucket: BucketId) {
        if let Some(map) = self.inner.borrow_mut().as_mut() {
            map.note_write(dataset, bucket);
        }
    }

    pub(crate) fn decay(&self) {
        if let Some(map) = self.inner.borrow_mut().as_mut() {
            map.decay();
        }
    }

    pub(crate) fn on_split(
        &self,
        dataset: DatasetId,
        parent: BucketId,
        lo: BucketId,
        hi: BucketId,
    ) {
        if let Some(map) = self.inner.borrow_mut().as_mut() {
            map.on_split(dataset, parent, lo, hi);
        }
    }

    pub(crate) fn ops_snapshot(&self, dataset: DatasetId) -> BTreeMap<BucketId, BucketHeat> {
        self.inner
            .borrow()
            .as_ref()
            .map(|m| m.ops_snapshot(dataset))
            .unwrap_or_default()
    }
}

/// A merged heat snapshot for one dataset: decayed op counters joined with
/// current storage residency, per bucket and aggregated per partition.
/// Produced by [`crate::cluster::Admin::heat`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatReport {
    /// Heat per bucket (keyed by the partitions' local bucket ids).
    pub per_bucket: BTreeMap<BucketId, BucketHeat>,
    /// Heat aggregated over each partition's resident buckets.
    pub per_partition: BTreeMap<PartitionId, BucketHeat>,
}

impl HeatReport {
    /// Heat-weighted load per partition:
    /// `resident_bytes + ops * op_weight_bytes`.
    pub fn partition_loads(&self, op_weight_bytes: u64) -> BTreeMap<PartitionId, u64> {
        self.per_partition
            .iter()
            .map(|(p, h)| {
                (
                    *p,
                    h.resident_bytes
                        .saturating_add(h.ops().saturating_mul(op_weight_bytes)),
                )
            })
            .collect()
    }

    /// Heat-weighted load per bucket (the planning input).
    pub fn bucket_loads(&self, op_weight_bytes: u64) -> BTreeMap<BucketId, u64> {
        self.per_bucket
            .iter()
            .map(|(b, h)| {
                (
                    *b,
                    h.resident_bytes
                        .saturating_add(h.ops().saturating_mul(op_weight_bytes)),
                )
            })
            .collect()
    }

    /// Max-deviation imbalance of the heat-weighted partition loads.
    pub fn imbalance(&self, op_weight_bytes: u64) -> f64 {
        max_deviation_imbalance(self.partition_loads(op_weight_bytes).into_values())
    }
}

// ------------------------------------------------------------ job progress

/// Progress of one in-flight rebalance job, published to the cluster by the
/// job's steps and surfaced through
/// [`crate::fault::ClusterHealth`]/[`crate::cluster::Admin::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobProgress {
    /// The dataset being rebalanced.
    pub dataset: DatasetId,
    /// The rebalance operation id.
    pub rebalance: RebalanceId,
    /// The job-state name at publication time.
    pub state: &'static str,
    /// Bucket moves in the plan.
    pub buckets_total: usize,
    /// Bucket moves whose wave has run.
    pub buckets_moved: usize,
    /// Bytes the plan intends to ship.
    pub bytes_planned: u64,
    /// Bytes shipped so far.
    pub bytes_shipped: u64,
    /// Scheduled waves.
    pub waves_total: usize,
    /// Completed waves.
    pub waves_completed: usize,
    /// Estimated sim-time to finish data movement: the mean makespan of the
    /// completed waves times the waves remaining (zero before the first
    /// wave and after the last).
    pub eta: SimDuration,
}

impl JobProgress {
    /// Fraction of the planned bucket moves that have shipped, in `[0, 1]`
    /// (1 for a no-op plan).
    pub fn fraction_done(&self) -> f64 {
        if self.buckets_total == 0 {
            1.0
        } else {
            self.buckets_moved as f64 / self.buckets_total as f64
        }
    }

    /// [`JobProgress::fraction_done`] as a percentage.
    pub fn percent_done(&self) -> f64 {
        self.fraction_done() * 100.0
    }
}

impl std::fmt::Display for JobProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rebalance {} of dataset {}: {} — {:.0}% ({}/{} buckets, {} B shipped, \
             wave {}/{}, ETA {:.3} ms)",
            self.rebalance,
            self.dataset,
            self.state,
            self.percent_done(),
            self.buckets_moved,
            self.buckets_total,
            self.bytes_shipped,
            self.waves_completed,
            self.waves_total,
            self.eta.as_nanos() as f64 / 1e6,
        )
    }
}

// ------------------------------------------------------- session delta push

/// One update pushed to a subscribed session at rebalance commit time.
#[derive(Debug, Clone)]
pub(crate) enum PushedUpdate {
    /// The directory change as a delta, plus the current partition list.
    Delta {
        delta: DirectoryDelta,
        partitions: Vec<PartitionId>,
        partitions_version: u64,
    },
    /// The change log no longer reaches back to the subscriber's version
    /// (or the outbox overflowed): the session must do a full refresh.
    Resync,
}

#[derive(Debug, Default)]
struct Subscriber {
    dataset: DatasetId,
    /// The directory version the subscriber is known to hold (advanced by
    /// every push, so successive deltas chain).
    directory_version: u64,
    pending: Vec<PushedUpdate>,
}

/// The registry of sessions subscribed to commit-time directory pushes.
/// Interior mutability for the same reason as [`HeatCell`]: sessions drain
/// their outbox through `&Cluster` (see LOCK_ORDER.md, rank 20; the borrow
/// never outlives a method call).
#[derive(Debug, Default)]
pub(crate) struct SessionRegistry {
    inner: RefCell<RegistryState>,
}

#[derive(Debug, Default)]
struct RegistryState {
    next_id: u64,
    subscribers: BTreeMap<u64, Subscriber>,
}

impl SessionRegistry {
    /// Registers a subscriber currently holding `directory_version` of
    /// `dataset`'s directory; returns its subscription id.
    pub(crate) fn register(&self, dataset: DatasetId, directory_version: u64) -> u64 {
        let mut state = self.inner.borrow_mut();
        let id = state.next_id;
        state.next_id += 1;
        state.subscribers.insert(
            id,
            Subscriber {
                dataset,
                directory_version,
                pending: Vec::new(),
            },
        );
        id
    }

    /// Pushes the dataset's current routing state to every subscriber: a
    /// chained delta when the change log reaches back to the subscriber's
    /// version, a resync marker otherwise.
    pub(crate) fn push(&self, dataset: DatasetId, meta: &DatasetMeta) {
        let mut state = self.inner.borrow_mut();
        for sub in state.subscribers.values_mut() {
            if sub.dataset != dataset {
                continue;
            }
            let update = match &meta.directory {
                Some(dir) if dir.version() == sub.directory_version => continue,
                Some(dir) => match dir.delta_since(sub.directory_version) {
                    Some(delta) => {
                        sub.directory_version = dir.version();
                        PushedUpdate::Delta {
                            delta,
                            partitions: meta.partitions.clone(),
                            partitions_version: meta.partitions_version,
                        }
                    }
                    None => {
                        sub.directory_version = dir.version();
                        PushedUpdate::Resync
                    }
                },
                None => PushedUpdate::Resync,
            };
            sub.pending.push(update);
            if sub.pending.len() > MAX_PENDING_PUSHES {
                sub.pending.clear();
                sub.pending.push(PushedUpdate::Resync);
            }
        }
    }

    /// Drains a subscriber's outbox (empty for unknown ids).
    pub(crate) fn take(&self, id: u64) -> Vec<PushedUpdate> {
        let mut state = self.inner.borrow_mut();
        match state.subscribers.get_mut(&id) {
            Some(sub) => std::mem::take(&mut sub.pending),
            None => Vec::new(),
        }
    }
}

// ------------------------------------------------------------ decision loop

/// Tuning knobs of the [`ControlPlane`]. The defaults follow the reference
/// shard rebalancer (SNIPPETS.md Snippet 3): trigger at 15% max-deviation
/// imbalance, sustained over `hysteresis_ticks` consecutive ticks, with a
/// cooldown after every committed job and a migration budget per window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Max-deviation imbalance above which a dataset counts as imbalanced.
    pub imbalance_threshold: f64,
    /// Consecutive imbalanced ticks required before a rebalance triggers.
    pub hysteresis_ticks: u32,
    /// Ticks after a committed (or no-op) job during which new triggers for
    /// the dataset are suppressed.
    pub cooldown_ticks: u64,
    /// The migration throttle (buckets/bytes per window of ticks).
    pub budget: MigrationBudget,
    /// Decayed op count above which a single bucket is split so its heat
    /// can spread across partitions.
    pub hot_bucket_ops: u64,
    /// Hot-bucket splits performed per dataset per tick, at most.
    pub max_hot_splits_per_tick: usize,
    /// Load contributed by one decayed op, in byte units (how heavily query
    /// heat weighs against resident bytes).
    pub op_weight_bytes: u64,
    /// Wave width of auto-planned jobs (clamped to the budget's per-window
    /// bucket cap so a single wave can always be admitted).
    pub max_concurrent_moves: usize,
    /// Drain deferred secondary-index stashes on idle ticks.
    pub warm_on_idle: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            imbalance_threshold: 0.15,
            hysteresis_ticks: 3,
            cooldown_ticks: 8,
            budget: MigrationBudget::default(),
            hot_bucket_ops: 512,
            max_hot_splits_per_tick: 4,
            op_weight_bytes: 1024,
            max_concurrent_moves: 4,
            warm_on_idle: true,
        }
    }
}

/// One logged control-plane decision. The log is the audit trail the soak
/// banner and the property tests read; see [`ControlStatus`].
#[derive(Debug, Clone, PartialEq)]
pub enum ControlDecision {
    /// The dataset crossed the threshold and a rebalance was planned.
    Triggered {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance at trigger time.
        imbalance: f64,
        /// Bucket moves in the auto-planned job.
        moves: usize,
        /// Bytes the plan intends to ship.
        bytes: u64,
    },
    /// Imbalanced, but not yet for `hysteresis_ticks` consecutive ticks.
    SuppressedByHysteresis {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance.
        imbalance: f64,
        /// Consecutive imbalanced ticks so far (including this one).
        streak: u32,
    },
    /// Imbalanced, but a recent job put the dataset in cooldown.
    SuppressedByCooldown {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance.
        imbalance: f64,
        /// First tick at which triggers are allowed again.
        until: u64,
    },
    /// The next wave did not fit the window's remaining migration budget.
    DeferredByBudget {
        /// Tick of the decision.
        tick: u64,
        /// Dataset of the in-flight job.
        dataset: DatasetId,
        /// Moves in the deferred wave.
        wave_buckets: usize,
        /// Bytes the deferred wave would ship.
        wave_bytes: u64,
    },
    /// Imbalanced and triggered, but the balancer found no improving move.
    NoImprovement {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance.
        imbalance: f64,
    },
    /// A bucket's decayed ops exceeded the heat budget and it was split.
    HotSplit {
        /// Tick of the decision.
        tick: u64,
        /// Dataset owning the bucket.
        dataset: DatasetId,
        /// The split bucket.
        bucket: BucketId,
        /// Its decayed op count at split time.
        ops: u64,
    },
    /// Health monitoring found a lost participant and re-planned around it.
    Replanned {
        /// Tick of the decision.
        tick: u64,
        /// Dataset of the in-flight job.
        dataset: DatasetId,
        /// The lost nodes re-planned around.
        lost_nodes: Vec<NodeId>,
        /// Moves rerouted to survivors.
        rerouted: u64,
    },
    /// The in-flight auto-planned job committed.
    Committed {
        /// Tick of the decision.
        tick: u64,
        /// The rebalanced dataset.
        dataset: DatasetId,
        /// The committed rebalance id.
        rebalance: RebalanceId,
        /// Bytes shipped in total.
        bytes: u64,
    },
    /// The in-flight auto-planned job aborted.
    Aborted {
        /// Tick of the decision.
        tick: u64,
        /// The dataset whose job aborted.
        dataset: DatasetId,
        /// The aborted rebalance id.
        rebalance: RebalanceId,
    },
    /// Health monitoring found a degraded dataset with a registered repair
    /// feed and restored its lost buckets.
    Repaired {
        /// Tick of the decision.
        tick: u64,
        /// The repaired dataset.
        dataset: DatasetId,
        /// The rebalance-operation id the repair ran under.
        rebalance: RebalanceId,
        /// Buckets restored.
        buckets: usize,
        /// Records restored from the feed.
        records: u64,
    },
}

impl ControlDecision {
    /// The tick the decision was made at.
    pub fn tick(&self) -> u64 {
        match self {
            ControlDecision::Triggered { tick, .. }
            | ControlDecision::SuppressedByHysteresis { tick, .. }
            | ControlDecision::SuppressedByCooldown { tick, .. }
            | ControlDecision::DeferredByBudget { tick, .. }
            | ControlDecision::NoImprovement { tick, .. }
            | ControlDecision::HotSplit { tick, .. }
            | ControlDecision::Replanned { tick, .. }
            | ControlDecision::Committed { tick, .. }
            | ControlDecision::Aborted { tick, .. }
            | ControlDecision::Repaired { tick, .. } => *tick,
        }
    }
}

impl std::fmt::Display for ControlDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlDecision::Triggered {
                tick,
                dataset,
                imbalance,
                moves,
                bytes,
            } => write!(
                f,
                "t{tick}: dataset {dataset} imbalance {imbalance:.3} → triggered \
                 ({moves} moves, {bytes} B)"
            ),
            ControlDecision::SuppressedByHysteresis {
                tick,
                dataset,
                imbalance,
                streak,
            } => write!(
                f,
                "t{tick}: dataset {dataset} imbalance {imbalance:.3} → suppressed \
                 (hysteresis streak {streak})"
            ),
            ControlDecision::SuppressedByCooldown {
                tick,
                dataset,
                imbalance,
                until,
            } => write!(
                f,
                "t{tick}: dataset {dataset} imbalance {imbalance:.3} → suppressed \
                 (cooldown until t{until})"
            ),
            ControlDecision::DeferredByBudget {
                tick,
                dataset,
                wave_buckets,
                wave_bytes,
            } => write!(
                f,
                "t{tick}: dataset {dataset} wave of {wave_buckets} moves / {wave_bytes} B \
                 deferred by the migration budget"
            ),
            ControlDecision::NoImprovement {
                tick,
                dataset,
                imbalance,
            } => write!(
                f,
                "t{tick}: dataset {dataset} imbalance {imbalance:.3} → no improving plan"
            ),
            ControlDecision::HotSplit {
                tick,
                dataset,
                bucket,
                ops,
            } => write!(
                f,
                "t{tick}: dataset {dataset} bucket {bucket} split ({ops} decayed ops)"
            ),
            ControlDecision::Replanned {
                tick,
                dataset,
                lost_nodes,
                rerouted,
            } => write!(
                f,
                "t{tick}: dataset {dataset} re-planned around lost nodes {lost_nodes:?} \
                 ({rerouted} moves rerouted)"
            ),
            ControlDecision::Committed {
                tick,
                dataset,
                rebalance,
                bytes,
            } => write!(
                f,
                "t{tick}: dataset {dataset} rebalance {rebalance} committed ({bytes} B shipped)"
            ),
            ControlDecision::Aborted {
                tick,
                dataset,
                rebalance,
            } => write!(
                f,
                "t{tick}: dataset {dataset} rebalance {rebalance} aborted"
            ),
            ControlDecision::Repaired {
                tick,
                dataset,
                rebalance,
                buckets,
                records,
            } => write!(
                f,
                "t{tick}: dataset {dataset} repair {rebalance} restored {buckets} lost \
                 buckets ({records} records)"
            ),
        }
    }
}

/// Migration-budget usage of one (closed or current) window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowUsage {
    /// First tick of the window.
    pub start_tick: u64,
    /// Bucket moves admitted in the window.
    pub buckets: usize,
    /// Bytes admitted in the window.
    pub bytes: u64,
}

/// A snapshot of the control plane's counters, recent decisions, and budget
/// windows ([`ControlPlane::status`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlStatus {
    /// Ticks run so far.
    pub ticks: u64,
    /// Rebalances triggered.
    pub triggers: u64,
    /// Decisions suppressed by the hysteresis window.
    pub suppressed_hysteresis: u64,
    /// Decisions suppressed by a cooldown.
    pub suppressed_cooldown: u64,
    /// Waves deferred by the migration budget.
    pub deferred: u64,
    /// Auto-planned jobs committed.
    pub committed_jobs: u64,
    /// Auto-planned jobs aborted.
    pub aborted_jobs: u64,
    /// Control-plane-initiated re-plans around lost nodes.
    pub replans: u64,
    /// Degraded datasets auto-repaired from a registered feed.
    pub repairs: u64,
    /// Hot buckets split.
    pub hot_splits: u64,
    /// Records whose deferred secondary entries were warmed on idle ticks.
    pub warmed_records: u64,
    /// The most recent decisions, oldest first (bounded).
    pub decisions: Vec<ControlDecision>,
    /// Closed budget windows plus the current one, oldest first.
    pub windows: Vec<WindowUsage>,
}

impl ControlStatus {
    /// The heaviest window usage seen, for budget-compliance gates.
    pub fn max_window_usage(&self) -> WindowUsage {
        self.windows
            .iter()
            .fold(WindowUsage::default(), |acc, w| WindowUsage {
                start_tick: if w.buckets > acc.buckets {
                    w.start_tick
                } else {
                    acc.start_tick
                },
                buckets: acc.buckets.max(w.buckets),
                bytes: acc.bytes.max(w.bytes),
            })
    }
}

/// What one [`ControlPlane::tick`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// The tick index (1-based).
    pub tick: u64,
    /// Decisions made this tick, in order.
    pub decisions: Vec<ControlDecision>,
    /// Set when an auto-planned job committed this tick.
    pub committed: Option<(DatasetId, RebalanceId)>,
    /// True when a job is still in flight after the tick.
    pub job_in_flight: bool,
    /// Records warmed by the idle-tick index drain.
    pub warmed_records: u64,
}

/// The decision loop. Like [`RebalanceJob`] and [`crate::session::Session`]
/// it holds no borrow of the cluster: the driver calls
/// [`ControlPlane::tick`] with the cluster whenever sim-time advances.
#[derive(Debug, Default)]
pub struct ControlPlane {
    config: ControlConfig,
    tick: u64,
    /// Consecutive imbalanced ticks per dataset.
    streaks: BTreeMap<DatasetId, u32>,
    /// First tick at which a dataset may trigger again.
    cooldown_until: BTreeMap<DatasetId, u64>,
    /// The in-flight auto-planned job, driven across ticks.
    job: Option<RebalanceJob>,
    /// Operator-registered repair feeds: on a health tick with no job in
    /// flight, a degraded dataset with a registered feed is auto-repaired
    /// from it. A feed registered *after* a loss stays valid while the
    /// dataset is degraded — writes to lost buckets are rejected, so their
    /// content cannot drift from the snapshot.
    repair_feeds: BTreeMap<DatasetId, Vec<(Key, Value)>>,
    window_start: u64,
    window_buckets: usize,
    window_bytes: u64,
    closed_windows: Vec<WindowUsage>,
    decisions: Vec<ControlDecision>,
    triggers: u64,
    suppressed_hysteresis: u64,
    suppressed_cooldown: u64,
    deferred: u64,
    committed_jobs: u64,
    aborted_jobs: u64,
    replans: u64,
    repairs: u64,
    hot_splits: u64,
    warmed_records: u64,
}

impl ControlPlane {
    /// A control plane with explicit knobs.
    pub fn new(config: ControlConfig) -> Self {
        ControlPlane {
            config,
            window_start: 1,
            ..ControlPlane::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Registers (or replaces) a repair feed for a dataset: the records a
    /// health tick re-ingests the dataset's lost buckets from when it finds
    /// the dataset degraded (see [`RebalanceJob::plan_repair`]). Register the
    /// feed *after* the loss (or keep it current): a lost bucket's content
    /// cannot drift while degraded — writes to it are rejected — so a
    /// post-loss snapshot stays exact until the repair commits.
    pub fn set_repair_feed(&mut self, dataset: DatasetId, feed: Vec<(Key, Value)>) {
        self.repair_feeds.insert(dataset, feed);
    }

    /// Removes a registered repair feed.
    pub fn clear_repair_feed(&mut self, dataset: DatasetId) {
        self.repair_feeds.remove(&dataset);
    }

    /// Datasets with a registered repair feed.
    pub fn repair_feed_datasets(&self) -> Vec<DatasetId> {
        self.repair_feeds.keys().copied().collect()
    }

    /// A snapshot of counters, recent decisions, and budget windows.
    pub fn status(&self) -> ControlStatus {
        let mut windows = self.closed_windows.clone();
        if self.window_buckets > 0 || self.window_bytes > 0 {
            windows.push(WindowUsage {
                start_tick: self.window_start,
                buckets: self.window_buckets,
                bytes: self.window_bytes,
            });
        }
        ControlStatus {
            ticks: self.tick,
            triggers: self.triggers,
            suppressed_hysteresis: self.suppressed_hysteresis,
            suppressed_cooldown: self.suppressed_cooldown,
            deferred: self.deferred,
            committed_jobs: self.committed_jobs,
            aborted_jobs: self.aborted_jobs,
            replans: self.replans,
            repairs: self.repairs,
            hot_splits: self.hot_splits,
            warmed_records: self.warmed_records,
            decisions: self.decisions.clone(),
            windows,
        }
    }

    /// One control tick: decay heat, roll the budget window, drive the
    /// in-flight job (re-planning around lost nodes first, running waves as
    /// the budget admits them, finishing the 2PC once all waves ran) or —
    /// with no job in flight — evaluate every bucketed dataset for hot
    /// buckets and sustained imbalance, and warm deferred indexes when the
    /// tick ends up idle.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Result<TickReport> {
        self.tick += 1;
        if self.tick - self.window_start >= self.config.budget.window_ticks.max(1) {
            self.closed_windows.push(WindowUsage {
                start_tick: self.window_start,
                buckets: self.window_buckets,
                bytes: self.window_bytes,
            });
            self.window_start = self.tick;
            self.window_buckets = 0;
            self.window_bytes = 0;
        }
        cluster.decay_heat();

        let mut report = TickReport {
            tick: self.tick,
            ..TickReport::default()
        };
        if self.job.is_some() {
            self.drive_job(cluster, &mut report)?;
        } else {
            // Health monitoring: a degraded dataset with a registered repair
            // feed is restored before anything else — serving every bucket
            // again outranks rebalancing the healthy ones.
            self.auto_repair(cluster, &mut report)?;
            self.evaluate(cluster, &mut report)?;
        }
        let idle = self.job.is_none() && report.decisions.is_empty();
        if idle && self.config.warm_on_idle {
            for ds in cluster.controller.dataset_ids() {
                let warmed = cluster.admin().warm_indexes(ds)?;
                report.warmed_records += warmed;
                self.warmed_records += warmed;
            }
        }
        report.job_in_flight = self.job.is_some();
        Ok(report)
    }

    /// Ticks until the in-flight job (if any) reaches a terminal state, at
    /// most `max_ticks` times. Returns the ticks used. Drivers call this
    /// before starting an operator rebalance of their own, since a dataset
    /// supports only one in-flight rebalance at a time.
    pub fn drain_job(&mut self, cluster: &mut Cluster, max_ticks: u64) -> Result<u64> {
        let mut used = 0;
        while self.job.is_some() && used < max_ticks {
            self.tick(cluster)?;
            used += 1;
        }
        if self.job.is_some() {
            return Err(ClusterError::RebalanceAborted(format!(
                "auto-planned job still in flight after {max_ticks} drain ticks"
            )));
        }
        Ok(used)
    }

    fn log(&mut self, report: &mut TickReport, decision: ControlDecision) {
        report.decisions.push(decision.clone());
        self.decisions.push(decision);
        if self.decisions.len() > MAX_DECISIONS {
            let excess = self.decisions.len() - MAX_DECISIONS;
            self.decisions.drain(..excess);
        }
    }

    /// Restores every degraded dataset that has a registered repair feed by
    /// driving [`crate::cluster::Admin::repair_dataset`]; each committed
    /// repair is logged as [`ControlDecision::Repaired`].
    fn auto_repair(&mut self, cluster: &mut Cluster, report: &mut TickReport) -> Result<()> {
        for dataset in self.repair_feed_datasets() {
            let feed = &self.repair_feeds[&dataset];
            let repair = cluster.admin().repair_dataset(dataset, feed)?;
            if let Some(repair) = repair.filter(|r| r.outcome == RebalanceOutcome::Committed) {
                self.repairs += 1;
                self.log(
                    report,
                    ControlDecision::Repaired {
                        tick: self.tick,
                        dataset,
                        rebalance: repair.rebalance_id,
                        buckets: repair.buckets_moved,
                        records: repair.records_moved,
                    },
                );
            }
        }
        Ok(())
    }

    /// Drives the in-flight job one tick's worth: health check → re-plan if
    /// a participant is lost, run waves while the window budget admits
    /// them, and drive the job to completion once every wave ran.
    fn drive_job(&mut self, cluster: &mut Cluster, report: &mut TickReport) -> Result<()> {
        let Some(mut job) = self.job.take() else {
            return Ok(());
        };
        let dataset = job.dataset();

        // Health monitoring: a permanently lost participant is re-planned
        // around *before* a wave trips over it (PR 8 follow-on). Allowed in
        // any Moving state, including after the last wave.
        if matches!(job.state(), crate::job::JobState::Moving { .. })
            && job.participants().iter().any(|n| cluster.node_is_lost(*n))
        {
            self.replan(cluster, &mut job, report)?;
        }

        while job.has_remaining_waves() {
            let (wave_buckets, wave_bytes) = match job.waves().get(job.completed_waves()) {
                Some(wave) => (wave.len(), wave.iter().map(|m| m.bytes).sum::<u64>()),
                None => break,
            };
            if !self.config.budget.admits(
                self.window_buckets,
                self.window_bytes,
                wave_buckets,
                wave_bytes,
            ) {
                self.deferred += 1;
                self.log(
                    report,
                    ControlDecision::DeferredByBudget {
                        tick: self.tick,
                        dataset,
                        wave_buckets,
                        wave_bytes,
                    },
                );
                self.job = Some(job);
                return Ok(());
            }
            match job.run_wave(cluster) {
                Ok(wave) => {
                    self.window_buckets += wave.moves;
                    self.window_bytes += wave.bytes;
                }
                // A node died between the health check and the wave:
                // re-plan and keep going this tick.
                Err(ClusterError::NodeLost(_)) => self.replan(cluster, &mut job, report)?,
                Err(e) => {
                    job.settle(cluster);
                    self.aborted_jobs += 1;
                    self.log(
                        report,
                        ControlDecision::Aborted {
                            tick: self.tick,
                            dataset,
                            rebalance: job.rebalance_id(),
                        },
                    );
                    return Err(e);
                }
            }
        }

        // All waves ran: finish the three-phase protocol this tick.
        let done = job.drive_to_completion(cluster)?;
        let rebalance = done.rebalance_id;
        self.cooldown_until
            .insert(dataset, self.tick + self.config.cooldown_ticks);
        if done.outcome == RebalanceOutcome::Committed {
            self.committed_jobs += 1;
            self.streaks.insert(dataset, 0);
            self.log(
                report,
                ControlDecision::Committed {
                    tick: self.tick,
                    dataset,
                    rebalance,
                    bytes: done.bytes_moved,
                },
            );
            report.committed = Some((dataset, rebalance));
        } else {
            self.aborted_jobs += 1;
            self.log(
                report,
                ControlDecision::Aborted {
                    tick: self.tick,
                    dataset,
                    rebalance,
                },
            );
        }
        Ok(())
    }

    /// Re-plans the job around its lost participants, logging the decision
    /// when anything changed.
    fn replan(
        &mut self,
        cluster: &mut Cluster,
        job: &mut RebalanceJob,
        report: &mut TickReport,
    ) -> Result<()> {
        let replan = job.replan_wave(cluster)?;
        if !replan.is_noop() {
            self.replans += 1;
            self.log(
                report,
                ControlDecision::Replanned {
                    tick: self.tick,
                    dataset: job.dataset(),
                    lost_nodes: replan.lost_nodes,
                    rerouted: replan.rerouted,
                },
            );
        }
        Ok(())
    }

    /// Splits the dataset's hottest buckets (those above the hot-bucket op
    /// budget), bounded per tick, then absorbs the finer-grained local
    /// directories into the CC's copy so routing and planning see the
    /// children. Returns the number of splits performed.
    fn split_hot_buckets(
        &mut self,
        cluster: &mut Cluster,
        dataset: DatasetId,
        report: &mut TickReport,
    ) -> Result<usize> {
        let snapshot = cluster.heat_ops_snapshot(dataset);
        let mut hot: Vec<(u64, BucketId)> = snapshot
            .iter()
            .filter(|(_, h)| h.ops() >= self.config.hot_bucket_ops.max(1))
            .map(|(b, h)| (h.ops(), *b))
            .collect();
        // Hottest first; bucket id breaks ties deterministically.
        hot.sort_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
        hot.truncate(self.config.max_hot_splits_per_tick);
        if hot.is_empty() {
            return Ok(0);
        }
        // The owner of every bucket according to the partitions' local
        // directories (the first partition in topology order wins), built
        // once and kept current as splits replace parents by children.
        let mut owners: BTreeMap<BucketId, PartitionId> = BTreeMap::new();
        for (p, buckets) in cluster.local_directories(dataset)? {
            for b in buckets {
                owners.entry(b).or_insert(p);
            }
        }
        let mut splits = 0;
        for (ops, bucket) in hot {
            let Some(&owner) = owners.get(&bucket) else {
                continue;
            };
            let split = cluster
                .partition_mut(owner)?
                .dataset_mut(dataset)?
                .primary
                .split_bucket(bucket);
            match split {
                Ok((lo, hi)) => {
                    owners.remove(&bucket);
                    owners.insert(lo, owner);
                    owners.insert(hi, owner);
                    cluster.on_heat_split(dataset, bucket, lo, hi);
                    splits += 1;
                    self.hot_splits += 1;
                    self.log(
                        report,
                        ControlDecision::HotSplit {
                            tick: self.tick,
                            dataset,
                            bucket,
                            ops,
                        },
                    );
                }
                // A bucket at max depth (or with splits suspended) cannot
                // spread further; the rebalance path still moves it whole.
                Err(_) => continue,
            }
        }
        if splits > 0 {
            let locals = cluster.local_directories(dataset)?;
            let refreshed =
                GlobalDirectory::refresh_from_locals(locals).map_err(ClusterError::Core)?;
            if let Some(dir) = cluster.controller.dataset_mut(dataset)?.directory.as_mut() {
                dir.install(&refreshed);
            }
            cluster.push_routing_update(dataset);
        }
        Ok(splits)
    }

    /// Monitor/decide with no job in flight: hot-bucket splits first, then
    /// threshold + hysteresis + cooldown per dataset; the first dataset
    /// that qualifies gets the (single) auto-planned job.
    fn evaluate(&mut self, cluster: &mut Cluster, report: &mut TickReport) -> Result<()> {
        for dataset in cluster.controller.dataset_ids() {
            if !cluster.scheme_of(dataset)?.is_bucketed() {
                continue;
            }
            if cluster.heat_tracking_enabled() {
                self.split_hot_buckets(cluster, dataset, report)?;
            }
            // Never plan heat onto a node being scaled in, and never let its
            // emptying partitions drive the imbalance either.
            let target = cluster.placement_target();
            let mut heat = cluster.admin().heat(dataset)?;
            heat.per_partition
                .retain(|p, _| target.node_of(*p).is_some());
            let imbalance = heat.imbalance(self.config.op_weight_bytes);
            if imbalance <= self.config.imbalance_threshold {
                self.streaks.insert(dataset, 0);
                continue;
            }
            if let Some(&until) = self.cooldown_until.get(&dataset) {
                if self.tick < until {
                    self.suppressed_cooldown += 1;
                    self.streaks.insert(dataset, 0);
                    self.log(
                        report,
                        ControlDecision::SuppressedByCooldown {
                            tick: self.tick,
                            dataset,
                            imbalance,
                            until,
                        },
                    );
                    continue;
                }
            }
            let streak = self.streaks.entry(dataset).or_insert(0);
            *streak += 1;
            let streak = *streak;
            if streak < self.config.hysteresis_ticks.max(1) {
                self.suppressed_hysteresis += 1;
                self.log(
                    report,
                    ControlDecision::SuppressedByHysteresis {
                        tick: self.tick,
                        dataset,
                        imbalance,
                        streak,
                    },
                );
                continue;
            }
            if self.job.is_some() {
                // One auto-planned job at a time; this dataset stays
                // imbalanced and will qualify again once the job finishes.
                continue;
            }
            let loads = heat.bucket_loads(self.config.op_weight_bytes);
            let cap = self
                .config
                .max_concurrent_moves
                .min(self.config.budget.max_buckets_per_window)
                .max(1);
            let mut job = RebalanceJob::plan_with_loads(cluster, dataset, &target, cap, &loads)?;
            if job.plan_ref().is_noop() {
                job.abort(cluster)?;
                job.finalize(cluster)?;
                self.cooldown_until
                    .insert(dataset, self.tick + self.config.cooldown_ticks);
                self.streaks.insert(dataset, 0);
                self.log(
                    report,
                    ControlDecision::NoImprovement {
                        tick: self.tick,
                        dataset,
                        imbalance,
                    },
                );
                continue;
            }
            job.init(cluster)?;
            self.triggers += 1;
            self.streaks.insert(dataset, 0);
            self.log(
                report,
                ControlDecision::Triggered {
                    tick: self.tick,
                    dataset,
                    imbalance,
                    moves: job.plan_ref().num_moves(),
                    bytes: job.plan_ref().total_bytes_moved(),
                },
            );
            self.job = Some(job);
            // Start moving immediately, within this tick's budget share.
            self.drive_job(cluster, report)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use dynahash_core::Scheme;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    fn record(i: u64) -> (Key, Bytes) {
        (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48]))
    }

    fn loaded(nodes: u32, n: u64) -> (Cluster, DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
                cost_model: crate::CostModel::default(),
            },
        );
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "events",
                Scheme::StaticHash { num_buckets: 32 },
            ))
            .unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..n).map(record)).unwrap();
        (cluster, ds)
    }

    #[test]
    fn heat_map_counts_decays_and_splits() {
        let mut map = HeatMap::default();
        let b = BucketId { bits: 1, depth: 2 };
        for _ in 0..8 {
            map.note_read(0, b);
        }
        map.note_write(0, b);
        let snap = map.ops_snapshot(0);
        assert_eq!(snap.get(&b).map(|h| (h.reads, h.writes)), Some((8, 1)));
        map.decay();
        let snap = map.ops_snapshot(0);
        assert_eq!(snap.get(&b).map(|h| h.ops()), Some(4));
        let (lo, hi) = b.split();
        map.on_split(0, b, lo, hi);
        let snap = map.ops_snapshot(0);
        assert!(!snap.contains_key(&b), "parent heat retired");
        assert_eq!(snap.get(&lo).map(|h| h.ops()), Some(2));
        assert_eq!(snap.get(&hi).map(|h| h.ops()), Some(2));
        // decay to zero forgets the bucket entirely
        for _ in 0..8 {
            map.decay();
        }
        assert!(map.ops_snapshot(0).is_empty());
    }

    #[test]
    fn disarmed_heat_records_nothing_and_costs_one_check() {
        let (mut cluster, ds) = loaded(2, 200);
        assert!(!cluster.heat_tracking_enabled());
        let mut session = cluster.session(ds).unwrap();
        for i in 0..50u64 {
            session.get(&cluster, &record(i).0).unwrap();
        }
        assert!(cluster.heat_ops_snapshot(ds).is_empty());
        cluster.set_heat_tracking(true);
        for i in 0..50u64 {
            session.get(&cluster, &record(i).0).unwrap();
        }
        let snap = cluster.heat_ops_snapshot(ds);
        let reads: u64 = snap.values().map(|h| h.reads).sum();
        assert_eq!(reads, 50);
        session
            .put(&mut cluster, Key::from_u64(9999), Bytes::from(vec![1]))
            .unwrap();
        let snap = cluster.heat_ops_snapshot(ds);
        let writes: u64 = snap.values().map(|h| h.writes).sum();
        assert_eq!(writes, 1);
        cluster.set_heat_tracking(false);
        assert!(cluster.heat_ops_snapshot(ds).is_empty());
    }

    #[test]
    fn heat_report_merges_ops_with_residency() {
        let (mut cluster, ds) = loaded(2, 400);
        cluster.set_heat_tracking(true);
        let mut session = cluster.session(ds).unwrap();
        for i in 0..100u64 {
            session.get(&cluster, &record(i % 4).0).unwrap();
        }
        let report = cluster.admin().heat(ds).unwrap();
        assert_eq!(report.per_partition.len(), 4);
        let total_reads: u64 = report.per_bucket.values().map(|h| h.reads).sum();
        assert_eq!(total_reads, 100);
        let partition_reads: u64 = report.per_partition.values().map(|h| h.reads).sum();
        assert_eq!(partition_reads, 100);
        assert!(report.per_bucket.values().all(|h| h.resident_bytes > 0));
        // Each partition's residency is exactly its buckets' logical sizes.
        for (p, h) in &report.per_partition {
            let sizes = cluster.partition(*p).unwrap().dataset(ds).unwrap();
            let bytes: u64 = sizes.bucket_sizes().iter().map(|(_, b)| b).sum();
            assert_eq!(h.resident_bytes, bytes);
        }
        // four hot keys on 32 uniform buckets: the op-weighted imbalance
        // must dwarf the byte-only imbalance
        assert!(report.imbalance(10_000) > report.imbalance(0));
    }

    #[test]
    fn sustained_imbalance_triggers_after_hysteresis_and_respects_cooldown() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        cluster.set_heat_tracking(true);
        let mut plane = ControlPlane::new(ControlConfig {
            imbalance_threshold: 0.2,
            hysteresis_ticks: 2,
            cooldown_ticks: 4,
            hot_bucket_ops: u64::MAX, // isolate the rebalance path
            ..ControlConfig::default()
        });
        let mut session = cluster.session(ds).unwrap();
        let mut committed_at = None;
        for t in 0..20 {
            // keep a handful of keys hot so the imbalance is sustained
            for i in 0..200u64 {
                session.get(&cluster, &record(i % 8).0).unwrap();
            }
            let report = plane.tick(&mut cluster).unwrap();
            if let Some((d, _)) = report.committed {
                assert_eq!(d, ds);
                committed_at.get_or_insert(t);
            }
        }
        let status = plane.status();
        assert!(status.triggers >= 1, "no trigger: {status:?}");
        assert!(
            status.suppressed_hysteresis >= 1,
            "hysteresis must suppress the first imbalanced tick"
        );
        assert!(status.committed_jobs >= 1);
        let committed: Vec<u64> = status
            .decisions
            .iter()
            .filter_map(|d| match d {
                ControlDecision::Committed { tick, .. } => Some(*tick),
                _ => None,
            })
            .collect();
        let triggers: Vec<u64> = status
            .decisions
            .iter()
            .filter_map(|d| match d {
                ControlDecision::Triggered { tick, .. } => Some(*tick),
                _ => None,
            })
            .collect();
        for c in &committed {
            for t in &triggers {
                assert!(
                    *t <= *c || *t >= c + plane.config().cooldown_ticks,
                    "trigger at t{t} violates the cooldown after the commit at t{c}"
                );
            }
        }
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn budget_defers_waves_across_ticks_and_windows_stay_capped() {
        let (mut cluster, ds) = loaded(2, 4000);
        cluster.add_node().unwrap();
        cluster.set_heat_tracking(true);
        let budget = MigrationBudget {
            max_buckets_per_window: 2,
            max_bytes_per_window: 1 << 30,
            window_ticks: 2,
        };
        let mut plane = ControlPlane::new(ControlConfig {
            imbalance_threshold: 0.2,
            hysteresis_ticks: 1,
            cooldown_ticks: 2,
            budget,
            hot_bucket_ops: u64::MAX,
            max_concurrent_moves: 2,
            ..ControlConfig::default()
        });
        let mut session = cluster.session(ds).unwrap();
        let mut saw_deferral = false;
        for _ in 0..40 {
            for i in 0..200u64 {
                session.get(&cluster, &record(i % 8).0).unwrap();
            }
            let report = plane.tick(&mut cluster).unwrap();
            saw_deferral |= report
                .decisions
                .iter()
                .any(|d| matches!(d, ControlDecision::DeferredByBudget { .. }));
        }
        let status = plane.status();
        assert!(status.triggers >= 1);
        assert!(saw_deferral, "a 2-buckets-per-window budget must defer");
        let max = status.max_window_usage();
        assert!(
            max.buckets <= budget.max_buckets_per_window,
            "window admitted {} buckets over the budget {}",
            max.buckets,
            budget.max_buckets_per_window
        );
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn hot_bucket_split_spreads_single_bucket_heat() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("hot", Scheme::dynahash(1 << 20, 4)))
            .unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..2000).map(record)).unwrap();
        cluster.set_heat_tracking(true);
        let buckets_before = cluster.local_directories(ds).unwrap();
        let count_before: usize = buckets_before.iter().map(|(_, b)| b.len()).sum();
        let mut plane = ControlPlane::new(ControlConfig {
            hot_bucket_ops: 100,
            imbalance_threshold: f64::INFINITY, // isolate the split path
            ..ControlConfig::default()
        });
        for _ in 0..4 {
            for i in 0..400u64 {
                session.get(&cluster, &record(i % 3).0).unwrap();
            }
            plane.tick(&mut cluster).unwrap();
        }
        let status = plane.status();
        assert!(status.hot_splits >= 1, "hot bucket never split: {status:?}");
        let buckets_after: usize = cluster
            .local_directories(ds)
            .unwrap()
            .iter()
            .map(|(_, b)| b.len())
            .sum();
        assert!(buckets_after > count_before);
        cluster.check_dataset_consistency(ds).unwrap();
        // the CC directory absorbed the children (sessions keep routing)
        cluster.admin().check_directory_invariants(ds).unwrap();
        for i in 0..100u64 {
            let (k, v) = record(i);
            assert_eq!(session.get(&cluster, &k).unwrap(), Some(v));
        }
    }

    #[test]
    fn subscribed_session_gets_the_commit_delta_pushed() {
        let (mut cluster, ds) = loaded(2, 1500);
        let mut subscribed = cluster.session(ds).unwrap();
        subscribed.subscribe(&cluster);
        let mut unsubscribed = cluster.session(ds).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, crate::rebalance::RebalanceOptions::none())
            .unwrap();
        assert!(report.buckets_moved > 0);
        for i in 0..1500u64 {
            let (k, v) = record(i);
            assert_eq!(subscribed.get(&cluster, &k).unwrap(), Some(v.clone()));
            assert_eq!(unsubscribed.get(&cluster, &k).unwrap(), Some(v));
        }
        assert_eq!(
            subscribed.metrics().redirects,
            0,
            "the pushed delta must arrive before any stale route"
        );
        assert!(subscribed.metrics().pushed_refreshes >= 1);
        assert_eq!(
            unsubscribed.metrics().redirects,
            1,
            "the unsubscribed session still pays the pull-based redirect"
        );
    }

    fn query_bytes_read(cluster: &Cluster) -> u64 {
        let partitions = cluster.topology().partitions();
        partitions
            .into_iter()
            .map(|p| {
                let part = cluster.partition(p).unwrap();
                part.metrics().snapshot().bytes_query_read
            })
            .sum()
    }

    #[test]
    fn idle_tick_and_heat_report_read_no_records() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.set_heat_tracking(true);
        let mut plane = ControlPlane::new(ControlConfig::default());
        let before = query_bytes_read(&cluster);
        for _ in 0..3 {
            let report = plane.tick(&mut cluster).unwrap();
            assert!(report.decisions.is_empty(), "{:?}", report.decisions);
        }
        let heat = cluster.admin().heat(ds).unwrap();
        assert_eq!(heat.per_partition.len(), 4);
        assert_eq!(
            query_bytes_read(&cluster),
            before,
            "monitoring must not charge query reads"
        );
    }

    #[test]
    fn idle_ticks_warm_deferred_indexes() {
        let mut cluster = Cluster::new(2);
        let spec = DatasetSpec::new("events", Scheme::StaticHash { num_buckets: 16 })
            .with_secondary_index(crate::dataset::SecondaryIndexDef::new(
                "idx",
                |p: &[u8]| p.first().map(|&b| Key::from_u64(b as u64)),
            ));
        let ds = cluster.create_dataset(spec).unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..1200).map(record)).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        // deferred secondary rebuild leaves stashes behind for the drain
        cluster
            .rebalance(
                ds,
                &target,
                crate::rebalance::RebalanceOptions::none()
                    .with_secondary_rebuild(dynahash_core::SecondaryRebuild::Deferred),
            )
            .unwrap();
        // A threshold the post-rebalance residual imbalance cannot cross, so
        // every tick is idle and the warm task is the only thing happening.
        let mut plane = ControlPlane::new(ControlConfig {
            imbalance_threshold: 100.0,
            ..ControlConfig::default()
        });
        let mut warmed = 0;
        for _ in 0..3 {
            warmed += plane.tick(&mut cluster).unwrap().warmed_records;
        }
        assert!(warmed > 0, "idle ticks must drain the deferred stashes");
        assert_eq!(plane.status().warmed_records, warmed);
    }
}
