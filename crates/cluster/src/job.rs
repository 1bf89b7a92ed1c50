//! The step-driven rebalance executor (the resumable form of Section V).
//!
//! [`RebalanceJob`] decomposes the three-phase rebalance protocol into an
//! explicit state machine with one method per step. A **rebalance**
//! ([`RebalanceJob::plan`]) ships buckets from their source partitions onto
//! a new target topology; a **repair** ([`RebalanceJob::plan_repair`])
//! restores the buckets whose only copy died with a lost node, each move
//! loading its bucket from an operator feed the job owns instead of from a
//! source partition. Everything else serves both kinds:
//!
//! ```text
//! plan | plan_repair
//!   -> init -> run_wave(0) .. run_wave(n-1) -> prepare -> decide
//!                  |        ^                      |         |
//!                  +--------+                    abort       +-> commit
//!             NodeLost: replan_wave                |             |
//!                                                  +-------------+-> finalize
//! ```
//!
//! [`RebalanceJob::drive_to_completion`] is the one completion path: it
//! runs whatever steps remain and, on an error, aborts the job or finishes
//! a commit that is already durable. Only the one-shot
//! [`crate::cluster::Cluster::rebalance`] driver steps by hand (see
//! [`crate::rebalance`]), to inject the Section V-D failures between steps.
//!
//! The job holds **no borrow of the cluster** between steps, so the cluster
//! stays fully usable mid-rebalance: queries can run, feed batches can be
//! applied through [`RebalanceJob::apply_feed_batch`] (with replication to
//! already-shipped buckets), and nodes or the Cluster Controller can crash
//! and recover. Each wave moves up to `max_concurrent_moves` buckets in
//! parallel and is charged its *makespan* — its slowest participating node.
//! A job must always be driven to [`RebalanceJob::finalize`] — abandoning
//! one mid-flight leaves bucket splits disabled and the dataset's
//! write-replication state registered.

use std::collections::{BTreeMap, BTreeSet};

use dynahash_core::{
    BucketId, BucketMove, ClusterTopology, GlobalDirectory, MovePolicy, NodeId, NodeVote,
    PartitionId, RebalanceCoordinator, RebalanceOutcome, RebalancePlan, SecondaryRebuild,
    SpeculationPolicy,
};
use dynahash_lsm::entry::{Key, Value};
use dynahash_lsm::wal::{LogRecordBody, RebalanceId, ShippedMove};
use dynahash_lsm::Entry;

use crate::cluster::Cluster;
use crate::dataset::DatasetId;
use crate::fault::RetryPolicy;
use crate::rebalance::{PhaseTimes, RebalanceReport};
use crate::sim::{NodeTimeline, SimDuration, WaveClock};
use crate::{ClusterError, Result};

/// A step boundary of the one-shot driver loop, where scenario hooks
/// ([`crate::rebalance::StepHook`]) fire. Between any two steps the cluster
/// is fully usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPoint {
    /// After the plan is computed (BEGIN forced, waves scheduled).
    AfterPlan,
    /// After initialization (splits disabled, moving buckets snapshotted).
    AfterInit,
    /// After the given wave (0-based) completed.
    AfterWave(usize),
    /// After every wave (matches each `AfterWave(_)` boundary).
    AfterEveryWave,
    /// After all waves, before the prepare phase blocks the dataset.
    BeforePrepare,
    /// After every alive participant voted "prepared".
    AfterPrepare,
    /// After the COMMIT record was forced, before commit tasks run.
    AfterCommitLog,
    /// Before finalization (commit tasks ran; DONE not yet forced).
    BeforeFinalize,
}

/// The observable state of a [`RebalanceJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// The plan is computed and BEGIN is forced; nothing has moved yet.
    Planned,
    /// Data movement is in progress; `completed_waves` waves have run.
    Moving {
        /// Number of waves that have completed so far.
        completed_waves: usize,
    },
    /// All waves ran and every alive participant voted.
    Prepared,
    /// The commit/abort decision is durable (COMMIT or ABORT was forced).
    Decided(RebalanceOutcome),
    /// Commit tasks ran on every alive node and the CC routing is installed.
    CommitTasksDone,
    /// The job is finished (DONE is forced) with the recorded outcome.
    Finalized(RebalanceOutcome),
}

impl JobState {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobState::Planned => "Planned",
            JobState::Moving { .. } => "Moving",
            JobState::Prepared => "Prepared",
            JobState::Decided(RebalanceOutcome::Committed) => "Decided(Committed)",
            JobState::Decided(RebalanceOutcome::Aborted) => "Decided(Aborted)",
            JobState::CommitTasksDone => "CommitTasksDone",
            JobState::Finalized(_) => "Finalized",
        }
    }
}

/// Cost and shape summary of one executed wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveReport {
    /// The wave index (0-based).
    pub wave: usize,
    /// Bucket moves executed by this wave.
    pub moves: usize,
    /// Primary-index bytes shipped by this wave.
    pub bytes: u64,
    /// Records shipped by this wave.
    pub records: u64,
    /// Sealed components shipped whole by this wave (0 under the Records
    /// policy, which re-materialises the data instead).
    pub components: usize,
    /// The wave's simulated makespan (slowest participating node).
    pub makespan: SimDuration,
}

/// What one bucket move transferred (internal accounting of
/// [`RebalanceJob::ship_move`]).
struct ShipStats {
    bytes: u64,
    records: u64,
    component_ids: Vec<u64>,
    /// What the transfer would cost at nominal speed — no slow-node scaling,
    /// no transient-retry penalties. This is the duration a speculative
    /// backup launched from the live source runs for.
    nominal: SimDuration,
}

/// One wave move's timeline and endpoints, kept per move so the speculation
/// pass can compare each leg against the wave's median and replace a
/// straggler's charges with the race winner's occupancy window.
struct MoveLeg {
    tl: NodeTimeline,
    src: NodeId,
    dst: NodeId,
    nominal: SimDuration,
}

/// What [`RebalanceJob::replan_wave`] did to route a rebalance around one or
/// more permanently lost nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplanReport {
    /// The lost participants the job re-planned around.
    pub lost_nodes: Vec<NodeId>,
    /// Moves whose destination died and were redirected to a survivor.
    pub rerouted: u64,
    /// Of the rerouted moves, those already shipped whose transfer will be
    /// repeated from the (still live) source.
    pub reshipped: u64,
    /// Buckets whose only copy died with a lost node: the commit installs
    /// them empty on a survivor and the dataset serves degraded.
    pub lost_buckets: u64,
    /// Waves appended to carry the rerouted and re-shipped moves.
    pub waves_appended: usize,
}

impl ReplanReport {
    /// True when no lost participant was found and nothing changed.
    pub fn is_noop(&self) -> bool {
        self.lost_nodes.is_empty()
    }
}

/// A resumable, step-driven rebalance of one bucketed dataset.
pub struct RebalanceJob {
    dataset: DatasetId,
    rebalance_id: RebalanceId,
    target: ClusterTopology,
    plan: RebalancePlan,
    waves: Vec<Vec<dynahash_core::BucketMove>>,
    /// The refreshed pre-rebalance directory: the routing every write uses
    /// until the commit installs the new directory at the CC.
    routing: GlobalDirectory,
    participants: Vec<NodeId>,
    coordinator: RebalanceCoordinator,
    move_policy: MovePolicy,
    secondary_rebuild: SecondaryRebuild,
    speculation: SpeculationPolicy,
    /// `Some` for a repair: every move loads its bucket from this operator
    /// feed instead of shipping it from a source partition.
    feed: Option<Vec<(Key, Value)>>,
    state: JobState,
    init_tl: NodeTimeline,
    move_tl: NodeTimeline,
    fin_tl: NodeTimeline,
    clock: WaveClock,
    total_bytes: u64,
    bytes_moved: u64,
    records_moved: u64,
    writes_applied: u64,
    retries: u64,
    reroutes: u64,
    speculated: u64,
    speculation_wins: u64,
}

impl std::fmt::Debug for RebalanceJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalanceJob")
            .field("rebalance_id", &self.rebalance_id)
            .field("dataset", &self.dataset)
            .field("state", &self.state)
            .field("waves", &self.waves.len())
            .field("moves", &self.plan.num_moves())
            .finish()
    }
}

impl RebalanceJob {
    // ------------------------------------------------------------- stepping

    /// Plans a rebalance of `dataset` onto `target`: forces the BEGIN log
    /// record, refreshes the global directory from the partitions' local
    /// directories, runs Algorithm 2, and schedules the resulting moves into
    /// waves of at most `max_concurrent_moves`. Only bucketed schemes can be
    /// driven step-by-step; the Hashing baseline rebuilds the dataset in one
    /// shot and goes through [`Cluster::rebalance`].
    pub fn plan(
        cluster: &mut Cluster,
        dataset: DatasetId,
        target: &ClusterTopology,
        max_concurrent_moves: usize,
    ) -> Result<Self> {
        Self::plan_inner(cluster, dataset, target, max_concurrent_moves, None)
    }

    /// Plans a rebalance that balances *heat-weighted loads* instead of raw
    /// bucket byte sizes: Algorithm 2 runs over `loads` (typically
    /// `resident_bytes + ops * op_weight` from a
    /// [`crate::control::HeatReport`]), so hot buckets repel each other even
    /// when their resident data is small. Directory buckets absent from
    /// `loads` fall back to their byte size. The resulting moves are
    /// re-costed with the buckets' true byte sizes afterwards, so wave
    /// scheduling, migration-budget accounting, and progress reporting stay
    /// in real bytes. This is the planning entry point of the control
    /// plane's auto-triggered jobs.
    pub fn plan_with_loads(
        cluster: &mut Cluster,
        dataset: DatasetId,
        target: &ClusterTopology,
        max_concurrent_moves: usize,
        loads: &BTreeMap<BucketId, u64>,
    ) -> Result<Self> {
        Self::plan_inner(cluster, dataset, target, max_concurrent_moves, Some(loads))
    }

    fn plan_inner(
        cluster: &mut Cluster,
        dataset: DatasetId,
        target: &ClusterTopology,
        max_concurrent_moves: usize,
        loads: Option<&BTreeMap<BucketId, u64>>,
    ) -> Result<Self> {
        if target.is_empty() {
            return Err(ClusterError::Core(dynahash_core::CoreError::EmptyTopology));
        }
        let rebalance_id = Self::begin(cluster, dataset)?;

        let locals = cluster.local_directories(dataset)?;
        let routing = GlobalDirectory::refresh_from_locals(locals).map_err(ClusterError::Core)?;
        // The initialization-phase refresh is visible to clients: absorbing
        // local bucket splits into the CC's directory bumps its version (if
        // anything changed), so cached sessions pick the finer-grained
        // routing up on their next refresh. Routing is unaffected — a split
        // bucket's children live on the same partition as their parent.
        if let Some(dir) = cluster.controller.dataset_mut(dataset)?.directory.as_mut() {
            dir.install(&routing);
        }
        let sizes = cluster.dataset_bucket_sizes(dataset)?;
        let weights = match loads {
            Some(loads) => {
                let mut w = sizes.clone();
                for (b, l) in loads {
                    w.insert(*b, *l);
                }
                w
            }
            None => sizes.clone(),
        };
        let mut plan = RebalancePlan::compute(rebalance_id, &routing, &weights, target)
            .map_err(ClusterError::Core)?;
        if loads.is_some() {
            // The balancer weighed heat; the movers ship bytes.
            for m in &mut plan.moves {
                m.bytes = sizes.get(&m.bucket).copied().unwrap_or(0);
            }
        }

        // Participants: every node hosting a source or destination partition
        // of the plan, plus all target nodes (which must ack the commit).
        let mut participants: Vec<NodeId> = target.nodes();
        for m in &plan.moves {
            if let Some(n) = cluster.topology().node_of(m.from) {
                if !participants.contains(&n) {
                    participants.push(n);
                }
            }
        }
        participants.sort_unstable();

        let topology = cluster.topology().clone();
        let waves = plan.schedule_waves(max_concurrent_moves, |p| topology.node_of(p));
        Self::assemble(cluster, dataset, plan, waves, participants, None)
    }

    /// Plans a repair of the dataset's degraded buckets from `feed`: each
    /// lost bucket becomes one move loading its records from the feed,
    /// keeping its owner when that partition can take data and going to
    /// the least-loaded one that can otherwise. All moves form one wave.
    /// Commit tasks install the restored buckets and clear them from the
    /// degraded set. An empty scope commits trivially; for a free no-op use
    /// [`crate::cluster::Admin::repair_dataset`].
    pub fn plan_repair(
        cluster: &mut Cluster,
        dataset: DatasetId,
        feed: Vec<(Key, Value)>,
    ) -> Result<Self> {
        if cluster.active_rebalances.contains_key(&dataset) {
            return Err(ClusterError::RebalanceAborted(
                "dataset has an in-flight rebalance; finalize it before repairing".to_string(),
            ));
        }
        let rebalance_id = Self::begin(cluster, dataset)?;
        // The CC directory, not a refresh from the local directories: a lost
        // node's partitions still list the buckets that died with it.
        let routing = cluster
            .controller
            .dataset(dataset)?
            .directory
            .clone()
            .ok_or_else(|| {
                ClusterError::RebalanceAborted("bucketed dataset has no directory".to_string())
            })?;
        let target = cluster
            .topology()
            .nodes()
            .into_iter()
            .filter(|n| cluster.node_is_lost(*n))
            .fold(cluster.topology().clone(), |t, n| t.without_node(n));

        let scope = cluster.faults.stats.degraded_buckets(dataset);
        let mut feed_bytes: BTreeMap<BucketId, u64> = scope.into_iter().map(|b| (b, 0)).collect();
        for (key, value) in &feed {
            if let Some(bytes) = routing
                .lookup_key(key)
                .and_then(|(b, _)| feed_bytes.get_mut(&b))
            {
                *bytes += (key.len() + value.len()) as u64;
            }
        }
        let mut loads = placement_loads(cluster, &target);
        let mut plan = RebalancePlan {
            rebalance_id,
            old_directory: routing.clone(),
            new_directory: routing.clone(),
            moves: Vec::new(),
            target: target.clone(),
        };
        for (bucket, bytes) in feed_bytes {
            let from = routing
                .partition_of_bucket(&bucket)
                .ok_or(ClusterError::RoutingFailed(dataset))?;
            let to = match loads.contains_key(&from) {
                true => from,
                false => pick_least_loaded(&mut loads, bytes).ok_or_else(|| {
                    ClusterError::RebalanceAborted("no live partition to repair onto".to_string())
                })?,
            };
            plan.new_directory.reassign(bucket, to);
            plan.moves.push(BucketMove {
                bucket,
                from,
                to,
                bytes,
            });
        }
        // Every alive node takes part: owners ack their installs and the
        // rest ack the (possibly reassigned) directory.
        let participants: Vec<NodeId> = target
            .nodes()
            .into_iter()
            .filter(|n| cluster.node_is_alive(*n))
            .collect();
        let waves = plan.schedule_waves(plan.moves.len(), |_| None);
        Self::assemble(cluster, dataset, plan, waves, participants, Some(feed))
    }

    /// Checks the dataset can be driven step by step and forces BEGIN, the
    /// CC's first act for any rebalance (Section V-D).
    fn begin(cluster: &mut Cluster, dataset: DatasetId) -> Result<RebalanceId> {
        if !cluster.scheme_of(dataset)?.is_bucketed() {
            return Err(ClusterError::RebalanceAborted(
                "the step-driven RebalanceJob requires a bucketed scheme".to_string(),
            ));
        }
        let rebalance_id = cluster.controller.next_rebalance_id();
        cluster
            .controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceBegin {
                rebalance: rebalance_id,
                dataset,
            });
        Ok(rebalance_id)
    }

    fn assemble(
        cluster: &Cluster,
        dataset: DatasetId,
        plan: RebalancePlan,
        waves: Vec<Vec<BucketMove>>,
        participants: Vec<NodeId>,
        feed: Option<Vec<(Key, Value)>>,
    ) -> Result<Self> {
        Ok(RebalanceJob {
            dataset,
            rebalance_id: plan.rebalance_id,
            target: plan.target.clone(),
            coordinator: RebalanceCoordinator::new(plan.rebalance_id, participants.clone()),
            routing: plan.old_directory.clone(),
            total_bytes: cluster.dataset_primary_bytes(dataset)?,
            plan,
            waves,
            participants,
            move_policy: MovePolicy::default(),
            secondary_rebuild: SecondaryRebuild::default(),
            speculation: SpeculationPolicy::default(),
            feed,
            state: JobState::Planned,
            init_tl: NodeTimeline::new(),
            move_tl: NodeTimeline::new(),
            fin_tl: NodeTimeline::new(),
            clock: WaveClock::new(),
            bytes_moved: 0,
            records_moved: 0,
            writes_applied: 0,
            retries: 0,
            reroutes: 0,
            speculated: 0,
            speculation_wins: 0,
        })
    }

    /// Initialization: disables bucket splits for the duration of the
    /// rebalance, snapshot-flushes every moving bucket (its flush time is the
    /// rebalance start time for the concurrency-control split), and moves the
    /// coordinator into the data-movement phase.
    pub fn init(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.require(matches!(self.state, JobState::Planned), "init")?;
        let cost = cluster.cost_model();
        cluster.set_splits_enabled(self.dataset, false)?;

        // CC contacts every participant to fetch directories / dispatch work.
        for n in &self.participants {
            self.init_tl
                .charge(*n, SimDuration::from_nanos(cost.network_latency_ns));
        }
        self.init_tl
            .charge_coordinator(SimDuration::from_nanos(cost.job_overhead_ns));

        // A repair loads from its feed: there is no source bucket to freeze.
        for m in self.plan.moves.iter().filter(|_| self.feed.is_none()) {
            let node = cluster.node_of_partition(m.from)?;
            let before = cluster.partition(m.from)?.metrics().snapshot();
            cluster
                .partition_mut(m.from)?
                .dataset_mut(self.dataset)?
                .primary
                .snapshot_bucket(m.bucket)
                .map_err(ClusterError::Storage)?;
            let after = cluster.partition(m.from)?.metrics().snapshot();
            let delta = after.delta_since(&before);
            self.init_tl
                .charge(node, cost.disk_write(delta.bytes_flushed));
        }

        self.coordinator
            .start_data_movement()
            .map_err(ClusterError::Core)?;
        // Register with the cluster so the normal ingestion path replicates
        // writes to shipped buckets for the duration of data movement.
        cluster.active_rebalances.insert(
            self.dataset,
            crate::cluster::ActiveRebalance {
                routing: self.routing.clone(),
                target: self.target.clone(),
                shipped: BTreeMap::new(),
                write_blocked: false,
            },
        );
        self.state = JobState::Moving { completed_waves: 0 };
        self.publish_progress(cluster);
        Ok(())
    }

    /// Runs the next wave, moving each of the wave's buckets under the job's
    /// [`MovePolicy`]:
    ///
    /// * **Components** (the default): the source flushes the bucket's
    ///   memory component and ships its sealed components whole — cheap
    ///   handle clones carrying their Bloom filters and sorted runs — and
    ///   the destination installs them into the pending bucket directly,
    ///   rebuilding only the secondary-index entries.
    /// * **Records**: the source merges the bucket into a record stream and
    ///   the destination re-materialises it (re-sort, Bloom rebuild, every
    ///   index rebuilt) — the baseline this PR's cost model charges for.
    ///
    /// All moves of a wave run in parallel, so the wave is charged its
    /// makespan — the slowest participating node. The CC forces a
    /// `RebalanceShip` metadata record after the wave so crash recovery can
    /// replay the component-level moves. Both ends of every move must be
    /// alive; crash a node mid-movement and the operator must either recover
    /// it or [`RebalanceJob::abort`], while a *permanently lost* endpoint
    /// reports [`ClusterError::NodeLost`] and the driver re-plans around it
    /// with [`RebalanceJob::replan_wave`] instead of aborting.
    ///
    /// With a [`FaultSchedule`](crate::fault::FaultSchedule) installed on
    /// the cluster, each transfer consults it per attempt and retries
    /// transient failures under [`RetryPolicy::default`], charging capped
    /// exponential backoff into the wave's makespan; slow nodes scale their
    /// charged durations.
    pub fn run_wave(&mut self, cluster: &mut Cluster) -> Result<WaveReport> {
        let wave_index = match self.state {
            JobState::Moving { completed_waves } if completed_waves < self.waves.len() => {
                completed_waves
            }
            _ => return Err(self.invalid_step("run_wave")),
        };
        let wave = self.waves[wave_index].clone();

        // Data movement needs both ends of every move up; a move loading
        // from the feed only needs its destination.
        let mut endpoints: Vec<(NodeId, NodeId)> = Vec::with_capacity(wave.len());
        for m in &wave {
            let dst_node = self
                .target
                .node_of(m.to)
                .ok_or(ClusterError::UnknownPartition(m.to))?;
            let src_node = match self.feed {
                Some(_) => dst_node,
                None => cluster.node_of_partition(m.from)?,
            };
            for node in [src_node, dst_node] {
                if cluster.node_is_lost(node) {
                    return Err(ClusterError::NodeLost(node));
                }
                if !cluster.node_is_alive(node) {
                    return Err(ClusterError::NodeDown(node));
                }
            }
            endpoints.push((src_node, dst_node));
        }

        // Each move ships into its own timeline. Per-node charges add, so
        // extending the per-move timelines into the wave timeline below is
        // charge-identical to the old shared-timeline path — and it gives
        // the speculation pass each transfer's individual leg to compare
        // against the wave's median.
        let mut bytes = 0u64;
        let mut records = 0u64;
        let mut components = 0usize;
        let mut shipped: Vec<ShippedMove> = Vec::with_capacity(wave.len());
        let mut legs: Vec<MoveLeg> = Vec::with_capacity(wave.len());
        for (m, &(src, dst)) in wave.iter().zip(&endpoints) {
            let mut mv_tl = NodeTimeline::new();
            let stats = self.ship_move(cluster, m, &mut mv_tl)?;
            bytes += stats.bytes;
            records += stats.records;
            components += stats.component_ids.len();
            shipped.push(ShippedMove {
                bucket_bits: m.bucket.bits,
                bucket_depth: m.bucket.depth,
                from: m.from.0,
                to: m.to.0,
                component_ids: stats.component_ids,
                bytes: stats.bytes,
                records: stats.records,
            });
            legs.push(MoveLeg {
                tl: mv_tl,
                src,
                dst,
                nominal: stats.nominal,
            });
        }
        self.speculate_stragglers(cluster, &mut legs);
        let mut wave_tl = NodeTimeline::new();
        for leg in &legs {
            wave_tl.extend(&leg.tl);
        }
        // The CC forces the wave's ship record: if a destination later loses
        // its uncommitted pending state in a crash, recovery replays these
        // moves by re-shipping from the sources.
        cluster
            .controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceShip {
                rebalance: self.rebalance_id,
                dataset: self.dataset,
                wave: wave_index as u32,
                moves: shipped,
            });

        // From now on, writes routed to this wave's buckets replicate to the
        // destinations' pending copies (the normal ingest path consults this).
        if let Some(active) = cluster.active_rebalances.get_mut(&self.dataset) {
            for m in &wave {
                active.shipped.insert(m.bucket, m.to);
            }
        }

        let makespan = wave_tl.elapsed();
        self.clock.record_wave(&wave_tl);
        self.move_tl.extend(&wave_tl);
        self.bytes_moved += bytes;
        self.records_moved += records;
        self.state = JobState::Moving {
            completed_waves: wave_index + 1,
        };
        self.publish_progress(cluster);
        Ok(WaveReport {
            wave: wave_index,
            moves: wave.len(),
            bytes,
            records,
            components,
            makespan,
        })
    }

    /// Speculatively re-executes straggling transfers (MapReduce-style
    /// backup tasks): a move whose leg was stretched past the job's
    /// [`SpeculationPolicy`] straggler multiple of the wave's median leg —
    /// by a slow-node fault on one of its endpoints — is shipped *again*
    /// from the live source to the same destination, and the wave takes the
    /// first finisher.
    ///
    /// The data already shipped exactly once (the first attempt's loads and
    /// installs stand, so contents are byte-identical either way); the race
    /// is a timing one. The backup launches once the leg has run
    /// `straggler_multiple` medians and runs at nominal speed — the slow
    /// factor models a transient environmental stall pinned to the first
    /// attempt. If the backup finishes strictly first, the original is
    /// cancelled at that instant and both endpoints are charged the
    /// winner's occupancy window (the attempts overlap in wall-clock, so
    /// charging their sum would double-count); otherwise the original's
    /// charges stand unchanged. Either way the launch is counted in
    /// [`FaultStats`](crate::fault::FaultStats).
    fn speculate_stragglers(&mut self, cluster: &mut Cluster, legs: &mut [MoveLeg]) {
        if !self.speculation.enabled || legs.len() < 2 {
            return;
        }
        let Some(plane) = cluster.fault_plane().filter(|s| !s.is_empty()).cloned() else {
            return;
        };
        let mut durations: Vec<u64> = legs.iter().map(|l| l.tl.elapsed().as_nanos()).collect();
        durations.sort_unstable();
        // Lower median, so a lone straggler in a small wave cannot drag the
        // reference leg up to itself and mask the detection.
        let median = durations[(durations.len() - 1) / 2];
        let multiple = u64::from(self.speculation.straggler_multiple.max(1));
        for leg in legs.iter_mut() {
            let slowed = plane.slow_factor(leg.src) > 1 || plane.slow_factor(leg.dst) > 1;
            let leg_ns = leg.tl.elapsed().as_nanos();
            if !slowed || !self.speculation.is_straggler(leg_ns, median) {
                continue;
            }
            let detect_at = median.saturating_mul(multiple);
            let backup_finish = detect_at.saturating_add(leg.nominal.as_nanos());
            self.speculated += 1;
            cluster.faults.stats.speculated += 1;
            if backup_finish < leg_ns {
                // The backup won strictly: the original is cancelled at the
                // backup's finish, so both endpoints were busy exactly that
                // long.
                let window = SimDuration::from_nanos(backup_finish);
                let mut tl = NodeTimeline::new();
                tl.charge(leg.src, window);
                tl.charge(leg.dst, window);
                leg.tl = tl;
                self.speculation_wins += 1;
                cluster.faults.stats.speculation_wins += 1;
            }
        }
    }

    /// Executes one bucket move under the job's policy, charging the
    /// participating nodes on `tl`. Empty buckets only need a directory
    /// update, which travels with the commit message, so they incur no
    /// per-move transfer cost.
    ///
    /// When a fault schedule is installed, transient failures burn attempts
    /// under [`RetryPolicy::default`] first — each failed attempt charges
    /// a round-trip plus capped exponential backoff to both endpoints — and
    /// slow nodes scale every duration charged to them. With no schedule
    /// (or an empty one) the charges below are byte-identical to the
    /// fault-free path.
    fn ship_move(
        &mut self,
        cluster: &mut Cluster,
        m: &BucketMove,
        tl: &mut NodeTimeline,
    ) -> Result<ShipStats> {
        let cost = cluster.cost_model();
        let dst_node = self
            .target
            .node_of(m.to)
            .ok_or(ClusterError::UnknownPartition(m.to))?;
        if let Some(feed) = &self.feed {
            return self.load_from_feed(cluster, feed, m, dst_node, tl);
        }
        let src_node = cluster.node_of_partition(m.from)?;
        let plane = cluster.fault_plane().filter(|s| !s.is_empty()).cloned();
        let retry = RetryPolicy::default();
        if let Some(plane) = &plane {
            let mut attempt = 0u32;
            while plane.transient_failure(m.bucket, m.from, m.to, attempt) {
                if attempt >= retry.max_retries {
                    return Err(ClusterError::RebalanceAborted(format!(
                        "transfer of bucket {} from {} to {} failed transiently {} times, \
                         exhausting its retry budget",
                        m.bucket,
                        m.from,
                        m.to,
                        attempt + 1
                    )));
                }
                let backoff = retry.backoff(attempt);
                let round_trip = SimDuration::from_nanos(cost.network_latency_ns);
                tl.charge(src_node, plane.scaled(src_node, round_trip) + backoff);
                tl.charge(dst_node, plane.scaled(dst_node, round_trip) + backoff);
                cluster.faults.stats.transient_faults += 1;
                cluster.faults.stats.retries += 1;
                cluster.faults.stats.backoff += backoff;
                self.retries += 1;
                attempt += 1;
            }
        }
        let scaled = |node: NodeId, d: SimDuration| match &plane {
            Some(p) => p.scaled(node, d),
            None => d,
        };
        // An index rebuild is only charged when there is something to
        // rebuild: a dataset without secondary indexes pays none under
        // either policy or rebuild mode.
        let dst_has_indexes = cluster
            .partition(m.to)?
            .dataset(self.dataset)?
            .has_secondary_indexes();
        match self.move_policy {
            MovePolicy::Records => {
                let entries = cluster
                    .partition_mut(m.from)?
                    .dataset_mut(self.dataset)?
                    .scan_bucket_for_move(m.bucket)?;
                let bytes: u64 = entries.iter().map(|e| e.size_bytes() as u64).sum();
                let records = entries.len() as u64;
                // The source merges the bucket's components into a record
                // stream; the network ships records; the destination
                // re-materialises them — re-sort, Bloom rebuild, primary
                // component build — and rebuilds the secondary entries.
                let mut nominal = SimDuration::ZERO;
                if bytes > 0 {
                    let src_cost = cost.disk_read(bytes) + cost.rematerialize_cpu(records);
                    tl.charge(src_node, scaled(src_node, src_cost));
                    let mut dst_cost = cost.network(bytes)
                        + cost.disk_write(bytes)
                        + cost.rematerialize_cpu(records);
                    if dst_has_indexes {
                        dst_cost += cost.index_rebuild_cpu(records);
                    }
                    tl.charge(dst_node, scaled(dst_node, dst_cost));
                    nominal = src_cost.max(dst_cost);
                }
                let dst = cluster.partition_mut(m.to)?.dataset_mut(self.dataset)?;
                dst.ensure_pending_bucket(m.bucket)?;
                dst.load_pending(m.bucket, entries)?;
                Ok(ShipStats {
                    bytes,
                    records,
                    component_ids: Vec::new(),
                    nominal,
                })
            }
            MovePolicy::Components => {
                let comps = cluster
                    .partition_mut(m.from)?
                    .dataset_mut(self.dataset)?
                    .ship_bucket_components(m.bucket)?;
                let bytes: u64 = comps.iter().map(|c| c.visible_size_bytes() as u64).sum();
                let component_ids: Vec<u64> = comps.iter().map(|c| c.id()).collect();
                let dst = cluster.partition_mut(m.to)?.dataset_mut(self.dataset)?;
                dst.ensure_pending_bucket(m.bucket)?;
                let records =
                    dst.install_shipped_components(m.bucket, comps, self.secondary_rebuild)?;
                // Sealed components travel as whole files: one sequential
                // read, one transfer, one sequential write. Bloom filters and
                // sorted runs arrive ready to serve; an eager secondary
                // rebuild is the only CPU left on the destination's commit
                // path, and the default deferred mode moves even that to the
                // first index query (charged by the query executor instead).
                let mut nominal = SimDuration::ZERO;
                if bytes > 0 {
                    let src_cost = cost.disk_read(bytes);
                    tl.charge(src_node, scaled(src_node, src_cost));
                    let mut dst_cost = cost.network(bytes)
                        + cost.component_ship_overhead(component_ids.len() as u64)
                        + cost.disk_write(bytes);
                    if dst_has_indexes && self.secondary_rebuild == SecondaryRebuild::Eager {
                        dst_cost += cost.index_rebuild_cpu(records);
                    }
                    tl.charge(dst_node, scaled(dst_node, dst_cost));
                    nominal = src_cost.max(dst_cost);
                }
                Ok(ShipStats {
                    bytes,
                    records,
                    component_ids,
                    nominal,
                })
            }
        }
    }

    /// Loads `m`'s bucket from a repair's feed into a pending bucket on its
    /// destination. The feed is routed through the job's directory; the
    /// destination pays the transfer, ingest and write costs of the records
    /// it receives.
    fn load_from_feed(
        &self,
        cluster: &mut Cluster,
        feed: &[(Key, Value)],
        m: &BucketMove,
        dst_node: NodeId,
        tl: &mut NodeTimeline,
    ) -> Result<ShipStats> {
        let cost = cluster.cost_model();
        let mut bytes = 0u64;
        let entries: Vec<Entry> = feed
            .iter()
            .filter(|(k, _)| self.routing.lookup_key(k).map(|(b, _)| b) == Some(m.bucket))
            .map(|(k, v)| {
                bytes += (k.len() + v.len()) as u64;
                Entry::put(k.clone(), v.clone())
            })
            .collect();
        let records = entries.len() as u64;
        let ds = cluster.partition_mut(m.to)?.dataset_mut(self.dataset)?;
        ds.ensure_pending_bucket(m.bucket)?;
        ds.load_pending(m.bucket, entries)?;
        let nominal = cost.network(bytes) + cost.ingest_cpu(records) + cost.disk_write(bytes);
        tl.charge(dst_node, nominal);
        Ok(ShipStats {
            bytes,
            records,
            component_ids: Vec::new(),
            nominal,
        })
    }

    /// Re-plans the in-flight rebalance around permanently lost participants
    /// instead of aborting. Allowed whenever the job is in data movement
    /// (between any two waves, including before the first and after the
    /// last). For each lost node the job:
    ///
    /// * redirects every move *to* one of its partitions onto the surviving
    ///   destination partition — alive and not draining — with the least
    ///   planned inbound bytes (lowest partition id breaks ties), amending
    ///   both the plan and the planned directory;
    /// * schedules already-shipped redirected moves for a fresh transfer
    ///   from their (still live) sources — the WAL's `ShippedMove` records
    ///   and the sources' kept copies make this safe — and unregisters their
    ///   write replication to the dead destination;
    /// * declares buckets whose *only* copy died with the node (an unshipped
    ///   move's source, or a non-moving bucket resident on the node) lost:
    ///   the commit installs them empty on a survivor so the directory keeps
    ///   covering the hash space, and the dataset serves every other bucket
    ///   (degraded mode, surfaced by [`Admin::health`]);
    /// * drops the node from the participant set, the 2PC coordinator, and
    ///   the target topology, then reschedules the still-pending moves into
    ///   fresh waves.
    ///
    /// A repair declares nothing lost: its moves load from the feed, so a
    /// rerouted move loads again on its new destination and the node's
    /// resident buckets join the repair's scope as feed moves.
    ///
    /// Sessions keep serving reads from still-live sources throughout: the
    /// routing directory only changes at commit.
    ///
    /// [`Admin::health`]: crate::cluster::Admin::health
    pub fn replan_wave(&mut self, cluster: &mut Cluster) -> Result<ReplanReport> {
        let completed = match self.state {
            JobState::Moving { completed_waves } => completed_waves,
            _ => return Err(self.invalid_step("replan_wave")),
        };
        let lost: Vec<NodeId> = self
            .participants
            .iter()
            .copied()
            .filter(|n| cluster.node_is_lost(*n))
            .collect();
        if lost.is_empty() {
            return Ok(ReplanReport::default());
        }
        let cost = cluster.cost_model();
        let from_feed = self.feed.is_some();

        let mut new_target = self.target.clone();
        for n in &lost {
            new_target = new_target.without_node(*n);
        }
        if new_target.is_empty() {
            return Err(ClusterError::RebalanceAborted(
                "every target node was permanently lost; nothing to re-plan onto".to_string(),
            ));
        }

        // Endpoint liveness per move, resolved before any mutation.
        let node_is_lost = |n: Option<NodeId>| n.is_some_and(|n| cluster.node_is_lost(n));
        let src_lost: Vec<bool> = self
            .plan
            .moves
            .iter()
            .map(|m| node_is_lost(cluster.topology().node_of(m.from)))
            .collect();
        let dst_lost: Vec<bool> = self
            .plan
            .moves
            .iter()
            .map(|m| node_is_lost(self.target.node_of(m.to)))
            .collect();
        let shipped_buckets: BTreeSet<BucketId> = self.waves[..completed]
            .iter()
            .flat_map(|w| w.iter().map(|m| m.bucket))
            .collect();

        // Surviving destinations, ranked by planned inbound bytes so the
        // reroutes spread instead of piling onto one partition.
        let mut inbound = placement_loads(cluster, &new_target);
        for (i, m) in self.plan.moves.iter().enumerate() {
            if let Some(bytes) = inbound.get_mut(&m.to).filter(|_| !dst_lost[i]) {
                *bytes += m.bytes;
            }
        }

        let mut report = ReplanReport {
            lost_nodes: lost.clone(),
            ..ReplanReport::default()
        };
        let mut lost_buckets: Vec<BucketId> = Vec::new();
        // Buckets whose already-shipped transfer must repeat onto the new
        // destination (their re-ship joins the rescheduled waves below).
        let mut reship: BTreeSet<BucketId> = BTreeSet::new();
        // Moves canceled outright (the bucket stays on its live source).
        let mut canceled: Vec<usize> = Vec::new();
        for i in 0..self.plan.moves.len() {
            let m = self.plan.moves[i];
            let already_shipped = shipped_buckets.contains(&m.bucket);
            if dst_lost[i] {
                // A dead destination orphans whatever was shipped to it; stop
                // replicating writes there either way.
                if already_shipped {
                    if let Some(active) = cluster.active_rebalances.get_mut(&self.dataset) {
                        active.shipped.remove(&m.bucket);
                    }
                }
                let src_in_target =
                    !from_feed && !src_lost[i] && new_target.node_of(m.from).is_some();
                if src_in_target {
                    // The cheapest reroute: cancel the move and let the
                    // bucket stay on its live source (which keeps its copy
                    // until commit). Shipping a bucket back to itself would
                    // confuse the commit-time install/cleanup passes.
                    self.plan.new_directory.reassign(m.bucket, m.from);
                    canceled.push(i);
                } else {
                    let new_to = pick_least_loaded(&mut inbound, m.bytes).ok_or_else(|| {
                        ClusterError::RebalanceAborted(
                            "no surviving destination partition to re-plan onto".to_string(),
                        )
                    })?;
                    self.plan.moves[i].to = new_to;
                    self.plan.new_directory.reassign(m.bucket, new_to);
                    if already_shipped && (from_feed || !src_lost[i]) {
                        reship.insert(m.bucket);
                        report.reshipped += 1;
                    }
                }
                report.rerouted += 1;
            }
            // The data survives if the destination holds a shipped copy or
            // the source still lives; otherwise the bucket is lost.
            let survives = from_feed || (already_shipped && !dst_lost[i]) || !src_lost[i];
            if !survives {
                lost_buckets.push(m.bucket);
            }
        }
        for i in canceled.into_iter().rev() {
            self.plan.moves.remove(i);
        }

        // Non-moving buckets resident on a lost node lose their only copy
        // too: reassign each to a survivor as a synthetic zero-byte move, so
        // the commit installs an empty bucket there and the directory keeps
        // covering the full hash space.
        for n in &lost {
            for p in cluster.topology().partitions_of_node(*n) {
                for bucket in self.plan.new_directory.buckets_of_partition(p) {
                    let new_to = pick_least_loaded(&mut inbound, 0).ok_or_else(|| {
                        ClusterError::RebalanceAborted(
                            "no surviving destination partition to re-plan onto".to_string(),
                        )
                    })?;
                    self.plan.new_directory.reassign(bucket, new_to);
                    self.plan.moves.push(BucketMove {
                        bucket,
                        from: p,
                        to: new_to,
                        bytes: 0,
                    });
                    report.rerouted += 1;
                    if !from_feed {
                        lost_buckets.push(bucket);
                    }
                }
            }
        }

        // Shrink the 2PC to the survivors and adopt the amended target.
        for n in &lost {
            self.coordinator.remove_participant(*n);
        }
        self.participants.retain(|n| !lost.contains(n));
        self.target = new_target;
        self.plan.target = self.target.clone();
        if let Some(active) = cluster.active_rebalances.get_mut(&self.dataset) {
            active.target = self.target.clone();
        }

        // Reschedule what still has to move: unshipped moves with a live
        // source, plus the re-ships. Lost buckets are deliberately absent —
        // their empty install travels with the commit.
        let max_concurrent = self.waves.iter().map(Vec::len).max().unwrap_or(1);
        self.waves.truncate(completed);
        let topology = cluster.topology().clone();
        let pending: Vec<BucketMove> = self
            .plan
            .moves
            .iter()
            .copied()
            .filter(|m| {
                let src_live = from_feed
                    || topology
                        .node_of(m.from)
                        .is_some_and(|n| !cluster.node_is_lost(n));
                let needs_ship = !shipped_buckets.contains(&m.bucket) || reship.contains(&m.bucket);
                src_live && needs_ship
            })
            .collect();
        let new_waves =
            RebalancePlan::schedule_moves(&pending, &self.target, max_concurrent, |p| {
                topology.node_of(p)
            });
        report.waves_appended = new_waves.len();
        self.waves.extend(new_waves);

        // Re-planning is CC work and costs makespan like any wave.
        let mut tl = NodeTimeline::new();
        tl.charge_coordinator(SimDuration::from_nanos(
            cost.job_overhead_ns * lost.len() as u64,
        ));
        self.clock.record_wave(&tl);
        self.move_tl.extend(&tl);

        report.lost_buckets = lost_buckets.len() as u64;
        self.publish_progress(cluster);
        self.reroutes += report.rerouted;
        cluster.faults.stats.reroutes += report.rerouted;
        cluster.faults.stats.reshipped += report.reshipped;
        for b in lost_buckets {
            cluster.faults.stats.mark_lost(self.dataset, b);
        }
        Ok(report)
    }

    /// Applies a batch of concurrent writes while data movement is in
    /// progress (between any two waves, or before/after all of them). The
    /// batch goes through the *normal* feed path — [`Cluster::ingest`] —
    /// which consults the registered rebalance state: records hitting a
    /// bucket whose wave has *already shipped it* are replicated to the
    /// destination's pending bucket, while writes to buckets that have not
    /// shipped yet need no replication (the wave's snapshot scan picks them
    /// up). The only thing this wrapper adds is folding the batch into the
    /// job's data-movement time accounting.
    pub fn apply_feed_batch(
        &mut self,
        cluster: &mut Cluster,
        records: impl IntoIterator<Item = (Key, Value)>,
    ) -> Result<u64> {
        self.require(
            matches!(self.state, JobState::Moving { .. }),
            "apply_feed_batch",
        )?;
        let report = cluster.ingest(self.dataset, records)?;
        // Like a wave, the feed batch is bounded by its slowest node.
        let mut batch_tl = NodeTimeline::new();
        for (node, busy) in &report.per_node {
            batch_tl.charge(*node, *busy);
        }
        self.clock.record_wave(&batch_tl);
        self.move_tl.extend(&batch_tl);
        self.writes_applied += report.records;
        Ok(report.records)
    }

    /// Prepare (the first half of 2PC): every destination flushes the memory
    /// components holding replicated writes, and every alive participant
    /// votes "prepared". Requires all waves to have run.
    pub fn prepare(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.require(
            matches!(self.state, JobState::Moving { completed_waves } if completed_waves == self.waves.len()),
            "prepare",
        )?;
        let cost = cluster.cost_model();
        self.coordinator
            .start_prepare()
            .map_err(ClusterError::Core)?;
        for m in &self.plan.moves {
            let dst_node = self
                .target
                .node_of(m.to)
                .ok_or(ClusterError::UnknownPartition(m.to))?;
            if cluster.node_is_alive(dst_node) {
                let pending_bytes = cluster
                    .partition(m.to)?
                    .dataset(self.dataset)?
                    .primary
                    .pending_storage_bytes() as u64;
                cluster
                    .partition_mut(m.to)?
                    .dataset_mut(self.dataset)?
                    .flush_pending();
                self.fin_tl
                    .charge(dst_node, cost.disk_write(pending_bytes / 8));
            }
        }
        // Reads still proceed, but writes are blocked from here until the
        // decision: the pending components are flushed and a late write
        // could no longer be replicated (Section V-C).
        if let Some(active) = cluster.active_rebalances.get_mut(&self.dataset) {
            active.write_blocked = true;
        }
        // Alive participants vote yes; dead ones cannot vote.
        for n in &self.participants {
            if cluster.node_is_alive(*n) {
                self.coordinator
                    .record_vote(*n, NodeVote::Yes)
                    .map_err(ClusterError::Core)?;
            }
        }
        self.fin_tl.charge_coordinator(SimDuration::from_nanos(
            cost.network_latency_ns * self.participants.len() as u64,
        ));
        self.state = JobState::Prepared;
        self.publish_progress(cluster);
        Ok(())
    }

    /// Decides the outcome from the collected votes. A unanimous yes forces
    /// the COMMIT log record — the rebalance is then determined to commit —
    /// and any missing vote aborts (forcing the ABORT record and discarding
    /// all pending buckets).
    pub fn decide(&mut self, cluster: &mut Cluster) -> Result<RebalanceOutcome> {
        self.require(matches!(self.state, JobState::Prepared), "decide")?;
        if self.coordinator.unanimous_yes() {
            // The outcome is determined by forcing the COMMIT record.
            cluster
                .controller
                .metadata_log
                .append_forced(LogRecordBody::RebalanceCommit {
                    rebalance: self.rebalance_id,
                });
            self.coordinator.decide().map_err(ClusterError::Core)?;
            self.state = JobState::Decided(RebalanceOutcome::Committed);
            Ok(RebalanceOutcome::Committed)
        } else {
            self.coordinator.decide().map_err(ClusterError::Core)?;
            self.abort_cleanup(cluster)?;
            self.state = JobState::Decided(RebalanceOutcome::Aborted);
            Ok(RebalanceOutcome::Aborted)
        }
    }

    /// Aborts the job from any step before the commit decision (operator
    /// cancellation, or CC recovery finding BEGIN without COMMIT). Forces the
    /// ABORT record and discards all pending buckets; idempotent once the
    /// job is already aborted.
    pub fn abort(&mut self, cluster: &mut Cluster) -> Result<()> {
        match self.state {
            JobState::Planned | JobState::Moving { .. } | JobState::Prepared => {}
            JobState::Decided(RebalanceOutcome::Aborted) => return Ok(()),
            _ => return Err(self.invalid_step("abort")),
        }
        self.coordinator.abort().map_err(ClusterError::Core)?;
        self.abort_cleanup(cluster)?;
        self.state = JobState::Decided(RebalanceOutcome::Aborted);
        self.publish_progress(cluster);
        Ok(())
    }

    /// Commit tasks (after a committed decision): every alive node installs
    /// its received buckets and cleans up its moved buckets, and the CC
    /// installs the new directory and partition list.
    pub fn commit(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.require(
            matches!(self.state, JobState::Decided(RebalanceOutcome::Committed)),
            "commit",
        )?;
        self.run_commit_tasks(cluster)?;
        for n in &self.participants.clone() {
            if cluster.node_is_alive(*n) {
                self.coordinator
                    .record_committed(*n)
                    .map_err(ClusterError::Core)?;
            }
        }
        let meta = cluster.controller.dataset_mut(self.dataset)?;
        // Install the planned directory *into* the CC's versioned copy: the
        // per-bucket differences land in the change log under one version
        // bump, so stale sessions catch up with a cheap delta instead of a
        // full snapshot.
        match meta.directory.as_mut() {
            Some(dir) => dir.install(&self.plan.new_directory),
            None => meta.directory = Some(self.plan.new_directory.clone()),
        }
        if meta.partitions != self.target.partitions() {
            meta.partitions = self.target.partitions();
            meta.bump_partitions_version();
        }
        // The new directory is live: ingestion resumes through it.
        cluster.active_rebalances.remove(&self.dataset);
        self.state = JobState::CommitTasksDone;
        // Subscribed sessions learn about the new directory by push instead
        // of waiting to trip over a routing validation failure.
        cluster.push_routing_update(self.dataset);
        self.publish_progress(cluster);
        Ok(())
    }

    /// Finalization: recovers every crashed node, has recovered nodes repeat
    /// their (idempotent) commit or cleanup tasks, forces DONE, re-enables
    /// bucket splits, and produces the report. This is the step that makes
    /// failure Cases 2, 4, and 5 converge — however many participants died,
    /// finalize re-drives their tasks until the cluster agrees with the
    /// durable decision.
    pub fn finalize(&mut self, cluster: &mut Cluster) -> Result<RebalanceReport> {
        let outcome = match self.state {
            JobState::Decided(RebalanceOutcome::Aborted) => {
                cluster.recover_all_nodes();
                // Recovered nodes repeat the cleanup; discarding is
                // idempotent, so this is safe whatever they saw before dying.
                self.drop_all_pending(cluster)?;
                RebalanceOutcome::Aborted
            }
            JobState::CommitTasksDone => {
                cluster.recover_all_nodes();
                self.run_commit_tasks(cluster)?;
                for n in &self.participants.clone() {
                    if cluster.node_is_alive(*n) {
                        self.coordinator
                            .record_committed(*n)
                            .map_err(ClusterError::Core)?;
                    }
                }
                RebalanceOutcome::Committed
            }
            _ => return Err(self.invalid_step("finalize")),
        };
        cluster
            .controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceDone {
                rebalance: self.rebalance_id,
            });
        self.coordinator.finish().map_err(ClusterError::Core)?;
        // Splits resume after the rebalance completes, whatever the outcome,
        // and any leftover replication state is dropped (normally already
        // removed by commit/abort; kept idempotent for crashed drivers).
        cluster.active_rebalances.remove(&self.dataset);
        cluster.set_splits_enabled(self.dataset, true)?;
        self.state = JobState::Finalized(outcome);
        cluster.clear_job_progress(self.dataset);
        Ok(self.report(outcome))
    }

    /// The one completion path: runs every step the job has left — init,
    /// the remaining waves (re-planning around a node lost mid-movement),
    /// prepare, decide, commit when committed, and finalize — and returns
    /// the report. On an error the job still ends terminal: it aborts, or
    /// finishes a commit that is already durable, and the error is
    /// returned.
    pub fn drive_to_completion(&mut self, cluster: &mut Cluster) -> Result<RebalanceReport> {
        let result = self.run_to_completion(cluster);
        if result.is_err() {
            self.settle(cluster);
        }
        result
    }

    fn run_to_completion(&mut self, cluster: &mut Cluster) -> Result<RebalanceReport> {
        loop {
            match self.state {
                JobState::Planned => self.init(cluster)?,
                JobState::Moving { .. } if self.has_remaining_waves() => {
                    match self.run_wave(cluster) {
                        Err(ClusterError::NodeLost(n)) => {
                            // Nothing to re-plan around: the loss hit a node
                            // outside the participant set; surface it.
                            if self.replan_wave(cluster)?.is_noop() {
                                return Err(ClusterError::NodeLost(n));
                            }
                        }
                        wave => {
                            wave?;
                        }
                    }
                }
                JobState::Moving { .. } => self.prepare(cluster)?,
                JobState::Prepared => {
                    self.decide(cluster)?;
                }
                JobState::Decided(RebalanceOutcome::Committed) => self.commit(cluster)?,
                JobState::Decided(RebalanceOutcome::Aborted) | JobState::CommitTasksDone => {
                    return self.finalize(cluster)
                }
                JobState::Finalized(_) => return Err(self.invalid_step("drive_to_completion")),
            }
        }
    }

    /// Best-effort clean-up after a failed step, so an error never leaves
    /// splits disabled or buckets pending: before the decision the job
    /// aborts; once COMMIT is durable the only way forward is to finish the
    /// commit.
    pub(crate) fn settle(&mut self, cluster: &mut Cluster) {
        if self.is_terminal() {
            return;
        }
        if self.outcome() == Some(RebalanceOutcome::Committed) {
            if matches!(self.state, JobState::Decided(_)) {
                let _ = self.commit(cluster);
            }
        } else {
            let _ = self.abort(cluster);
        }
        let _ = self.finalize(cluster);
    }

    // ------------------------------------------------------------ accessors

    /// The rebalance operation id.
    pub fn rebalance_id(&self) -> RebalanceId {
        self.rebalance_id
    }

    /// The dataset being rebalanced.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// The current job state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// The computed plan.
    pub fn plan_ref(&self) -> &RebalancePlan {
        &self.plan
    }

    /// The scheduled waves.
    pub fn waves(&self) -> &[Vec<dynahash_core::BucketMove>] {
        &self.waves
    }

    /// How this job moves buckets (default: [`MovePolicy::Components`]).
    pub fn move_policy(&self) -> MovePolicy {
        self.move_policy
    }

    /// Sets how buckets move. Call before the first wave runs; switching
    /// mid-job would charge the remaining waves under the new policy.
    pub fn set_move_policy(&mut self, policy: MovePolicy) {
        self.move_policy = policy;
    }

    /// Sets the straggler-speculation policy (default:
    /// [`SpeculationPolicy::default`], enabled at 2x the median leg). Call
    /// before the first wave runs.
    pub fn set_speculation(&mut self, speculation: SpeculationPolicy) {
        self.speculation = speculation;
    }

    /// Straggling transfers speculatively re-executed by this job, so far.
    pub fn speculated(&self) -> u64 {
        self.speculated
    }

    /// Speculative backups that beat their original attempt, so far.
    pub fn speculation_wins(&self) -> u64 {
        self.speculation_wins
    }

    /// When destinations rebuild secondary entries for received buckets
    /// (default: [`SecondaryRebuild::Deferred`]). Only meaningful under
    /// [`MovePolicy::Components`]; the Records baseline always rebuilds
    /// eagerly while re-materialising.
    pub fn secondary_rebuild(&self) -> SecondaryRebuild {
        self.secondary_rebuild
    }

    /// Sets the secondary-rebuild mode. Call before the first wave runs.
    pub fn set_secondary_rebuild(&mut self, rebuild: SecondaryRebuild) {
        self.secondary_rebuild = rebuild;
    }

    /// Total number of scheduled waves.
    pub fn num_waves(&self) -> usize {
        self.waves.len()
    }

    /// Number of waves that have completed.
    pub fn completed_waves(&self) -> usize {
        match self.state {
            JobState::Planned => 0,
            JobState::Moving { completed_waves } => completed_waves,
            _ => self.waves.len(),
        }
    }

    /// True while [`RebalanceJob::run_wave`] has waves left to run.
    pub fn has_remaining_waves(&self) -> bool {
        matches!(self.state, JobState::Moving { completed_waves } if completed_waves < self.waves.len())
    }

    /// Concurrent writes applied through the job so far.
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// The outcome, once the job is decided.
    pub fn outcome(&self) -> Option<RebalanceOutcome> {
        match self.state {
            JobState::Decided(o) | JobState::Finalized(o) => Some(o),
            JobState::CommitTasksDone => Some(RebalanceOutcome::Committed),
            _ => None,
        }
    }

    /// True once the job is finalized.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, JobState::Finalized(_))
    }

    /// The nodes participating in the two-phase commit (targets plus
    /// sources), after any replans removed lost ones.
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// A point-in-time progress snapshot for [`crate::ClusterHealth`]. The
    /// ETA extrapolates the per-wave simulated makespan observed so far over
    /// the remaining waves (zero before the first wave completes).
    pub fn progress(&self) -> crate::control::JobProgress {
        let waves_total = self.waves.len();
        let waves_completed = self.completed_waves();
        let buckets_total = self.plan.num_moves();
        let buckets_moved: usize = self.waves[..waves_completed.min(waves_total)]
            .iter()
            .map(|w| w.len())
            .sum();
        let remaining = waves_total.saturating_sub(waves_completed);
        let eta = if waves_completed == 0 || remaining == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                (self.clock.elapsed().as_nanos() / waves_completed as u64)
                    .saturating_mul(remaining as u64),
            )
        };
        crate::control::JobProgress {
            dataset: self.dataset,
            rebalance: self.rebalance_id,
            state: self.state.name(),
            buckets_total,
            buckets_moved,
            bytes_planned: self.plan.total_bytes_moved(),
            bytes_shipped: self.bytes_moved,
            waves_total,
            waves_completed,
            eta,
        }
    }

    fn publish_progress(&self, cluster: &mut Cluster) {
        cluster.publish_job_progress(self.progress());
    }

    // ------------------------------------------------------------- internals

    fn require(&self, ok: bool, action: &'static str) -> Result<()> {
        if ok {
            Ok(())
        } else {
            Err(self.invalid_step(action))
        }
    }

    fn invalid_step(&self, action: &'static str) -> ClusterError {
        ClusterError::InvalidJobStep {
            action,
            state: self.state.name(),
        }
    }

    fn abort_cleanup(&mut self, cluster: &mut Cluster) -> Result<()> {
        // The rebalance is off: ingestion resumes through the old directory.
        cluster.active_rebalances.remove(&self.dataset);
        cluster
            .controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceAbort {
                rebalance: self.rebalance_id,
            });
        self.drop_all_pending(cluster)
    }

    fn drop_all_pending(&mut self, cluster: &mut Cluster) -> Result<()> {
        for m in &self.plan.moves {
            if cluster.topology().node_of(m.to).is_some() {
                cluster
                    .partition_mut(m.to)?
                    .dataset_mut(self.dataset)?
                    .drop_pending(m.bucket);
            }
        }
        Ok(())
    }

    fn run_commit_tasks(&mut self, cluster: &mut Cluster) -> Result<()> {
        let cost = cluster.cost_model();
        // One commit message per participating node covers all of its bucket
        // installs and cleanups.
        for n in self.plan.participating_partitions().iter().filter_map(|p| {
            self.target
                .node_of(*p)
                .or_else(|| cluster.topology().node_of(*p))
        }) {
            self.fin_tl
                .charge(n, SimDuration::from_nanos(cost.network_latency_ns));
        }
        // First pass: every alive destination installs its received buckets,
        // re-shipping transfers that a crash wiped (replayed from the ship
        // records in the metadata log).
        let moves = self.plan.moves.clone();
        for m in &moves {
            let Some(dst_node) = self.target.node_of(m.to) else {
                continue;
            };
            if !cluster.node_is_alive(dst_node) {
                continue;
            }
            if self.feed.is_some() {
                self.install_restored(cluster, m)?;
            } else if self.ensure_shipped(cluster, m)? {
                cluster
                    .partition_mut(m.to)?
                    .dataset_mut(self.dataset)?
                    .install_pending(m.bucket)?;
            }
        }
        // Second pass: a source drops its moved bucket (and marks secondary
        // indexes for lazy cleanup) only once the destination serves it —
        // dropping earlier would make a destination-side crash unrecoverable,
        // since re-shipping needs the source copy. A repaired bucket that
        // kept its owner has no source to clean up.
        for m in moves.iter().filter(|m| m.from != m.to) {
            let installed = cluster
                .partition(m.to)
                .ok()
                .and_then(|p| p.dataset(self.dataset).ok())
                .map(|ds| ds.primary.directory().contains(&m.bucket))
                .unwrap_or(false);
            if !installed {
                continue;
            }
            if let Some(src_node) = cluster.topology().node_of(m.from) {
                if cluster.node_is_alive(src_node) {
                    let warmed = cluster
                        .partition_mut(m.from)?
                        .dataset_mut(self.dataset)?
                        .cleanup_moved_bucket(m.bucket)?;
                    // A stash partially covered by the moved bucket had to
                    // materialize before the lazy-cleanup mark: that rebuild
                    // runs here, so it is charged here (finalization), not
                    // hidden.
                    if warmed > 0 {
                        self.fin_tl.charge(src_node, cost.index_rebuild_cpu(warmed));
                    }
                }
            }
        }
        Ok(())
    }

    /// Installs a repaired bucket on its (alive) destination, once: a bucket
    /// leaves the degraded set when its restored copy is installed, so the
    /// re-drive in finalize skips it. A pending copy a crash wiped is loaded
    /// from the feed again. The restored copy replaces whatever the owner
    /// held — the empty bucket a re-planned rebalance installed in place of
    /// the lost one.
    fn install_restored(&mut self, cluster: &mut Cluster, m: &BucketMove) -> Result<()> {
        let degraded = cluster
            .faults
            .stats
            .lost_buckets
            .get(&self.dataset)
            .is_some_and(|lost| lost.contains(&m.bucket));
        if !degraded {
            return Ok(());
        }
        let loaded = cluster
            .partition(m.to)?
            .dataset(self.dataset)?
            .primary
            .pending_has_base_data(&m.bucket);
        if !loaded {
            let mut tl = NodeTimeline::new();
            self.ship_move(cluster, m, &mut tl)?;
            self.fin_tl.extend(&tl);
        }
        let ds = cluster.partition_mut(m.to)?.dataset_mut(self.dataset)?;
        ds.primary
            .drop_bucket(m.bucket)
            .map_err(ClusterError::Storage)?;
        ds.install_pending(m.bucket)?;
        cluster.faults.stats.mark_repaired(self.dataset, m.bucket);
        Ok(())
    }

    /// Makes sure the destination of `m` holds the transferred bucket data,
    /// re-shipping it from the source when an uncommitted transfer was lost
    /// to a crash. Returns false if the move cannot be completed yet (the
    /// source is down); [`RebalanceJob::finalize`] recovers every node and
    /// retries. A *permanently lost* source cannot re-ship: whatever reached
    /// the destination (possibly nothing) is installed as the degraded copy
    /// and the bucket is recorded as lost.
    fn ensure_shipped(&mut self, cluster: &mut Cluster, m: &BucketMove) -> Result<bool> {
        {
            let ds = cluster.partition(m.to)?.dataset(self.dataset)?;
            if ds.primary.directory().contains(&m.bucket)
                || ds.primary.pending_has_base_data(&m.bucket)
            {
                return Ok(true);
            }
        }
        let src_node = cluster.node_of_partition(m.from)?;
        if cluster.node_is_lost(src_node) {
            // The source died for good and the destination holds no base
            // data. Install what little survived — replicated writes that
            // landed after the wipe, or nothing at all — so the committed
            // directory keeps covering the hash space, and record the
            // bucket as degraded.
            cluster
                .partition_mut(m.to)?
                .dataset_mut(self.dataset)?
                .ensure_pending_bucket(m.bucket)?;
            cluster.faults.stats.mark_lost(self.dataset, m.bucket);
            return Ok(true);
        }
        // The transfer must have been recorded durable before it can be
        // replayed (run_wave forces one ship record per wave).
        let was_shipped = cluster
            .controller
            .metadata_log
            .shipped_moves(self.rebalance_id)
            .iter()
            .any(|s| {
                s.bucket_bits == m.bucket.bits
                    && s.bucket_depth == m.bucket.depth
                    && s.from == m.from.0
                    && s.to == m.to.0
            });
        if !was_shipped {
            return Ok(false);
        }
        let src_owns = cluster
            .partition(m.from)?
            .dataset(self.dataset)?
            .primary
            .directory()
            .contains(&m.bucket);
        if !src_owns || !cluster.node_is_alive(src_node) {
            return Ok(false);
        }
        let mut tl = NodeTimeline::new();
        self.ship_move(cluster, m, &mut tl)?;
        self.fin_tl.extend(&tl);
        Ok(true)
    }

    fn report(&self, outcome: RebalanceOutcome) -> RebalanceReport {
        let mut total_tl = NodeTimeline::new();
        total_tl.extend(&self.init_tl);
        total_tl.extend(&self.move_tl);
        total_tl.extend(&self.fin_tl);
        RebalanceReport {
            rebalance_id: self.rebalance_id,
            outcome,
            elapsed: self.init_tl.elapsed() + self.clock.elapsed() + self.fin_tl.elapsed(),
            phases: PhaseTimes {
                initialization: self.init_tl.elapsed(),
                data_movement: self.clock.elapsed(),
                finalization: self.fin_tl.elapsed(),
            },
            bytes_moved: self.bytes_moved,
            records_moved: self.records_moved,
            buckets_moved: self.plan.num_moves(),
            moved_fraction: if self.total_bytes == 0 {
                0.0
            } else {
                self.bytes_moved as f64 / self.total_bytes as f64
            },
            per_node: total_tl.breakdown(),
            concurrent_writes_applied: self.writes_applied,
            retries: self.retries,
            reroutes: self.reroutes,
        }
    }
}

/// Zero loads for every partition of `target` that can take data: its node
/// is alive and not draining. The candidate set of [`pick_least_loaded`].
fn placement_loads(cluster: &Cluster, target: &ClusterTopology) -> BTreeMap<PartitionId, u64> {
    target
        .partitions()
        .into_iter()
        .filter(|p| {
            target
                .node_of(*p)
                .is_some_and(|n| cluster.node_is_alive(n) && !cluster.node_is_draining(n))
        })
        .map(|p| (p, 0))
        .collect()
}

/// The one least-loaded destination picker, serving repair placement and
/// `replan_wave` reroutes: picks the candidate partition with the least
/// load (lowest partition id breaks ties) and charges `bytes` to it, so
/// successive picks spread across the candidates deterministically.
fn pick_least_loaded(inbound: &mut BTreeMap<PartitionId, u64>, bytes: u64) -> Option<PartitionId> {
    let p = inbound
        .iter()
        .min_by_key(|&(p, b)| (*b, *p))
        .map(|(p, _)| *p)?;
    if let Some(b) = inbound.get_mut(&p) {
        *b += bytes;
    }
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use dynahash_core::Scheme;
    use dynahash_lsm::Bytes;

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
        let records: Vec<(Key, Bytes)> = (0..n)
            .map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48])))
            .collect();
        cluster.ingest(ds, records).unwrap();
        (cluster, ds)
    }

    #[test]
    fn happy_path_steps_commit() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        assert_eq!(job.state(), JobState::Planned);
        assert!(job.num_waves() >= 2, "expected multiple waves");
        job.init(&mut cluster).unwrap();
        let mut seen = 0;
        while job.has_remaining_waves() {
            let report = job.run_wave(&mut cluster).unwrap();
            assert_eq!(report.wave, seen);
            assert!(report.moves >= 1 && report.moves <= 2);
            seen += 1;
        }
        assert_eq!(seen, job.num_waves());
        job.prepare(&mut cluster).unwrap();
        assert_eq!(
            job.decide(&mut cluster).unwrap(),
            RebalanceOutcome::Committed
        );
        job.commit(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(job.is_terminal());
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn out_of_order_steps_are_rejected() {
        let (mut cluster, ds) = loaded(2, 500);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        // cannot run a wave, prepare, or commit before init
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::InvalidJobStep { .. })
        ));
        assert!(job.prepare(&mut cluster).is_err());
        assert!(job.commit(&mut cluster).is_err());
        assert!(job.finalize(&mut cluster).is_err());
        job.init(&mut cluster).unwrap();
        // cannot prepare with waves remaining
        assert!(job.prepare(&mut cluster).is_err());
        // abort works mid-movement and is idempotent
        job.abort(&mut cluster).unwrap();
        job.abort(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Aborted);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 500);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn wave_with_a_dead_source_node_reports_node_down() {
        let (mut cluster, ds) = loaded(3, 2000);
        let victim = NodeId(2);
        let target = cluster.topology_without(victim);
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        job.init(&mut cluster).unwrap();
        cluster.crash_node(victim).unwrap();
        // every move sources from the victim, so the wave cannot run
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::NodeDown(n)) if n == victim
        ));
        // recover and the same wave runs
        cluster.recover_node(victim).unwrap();
        job.run_wave(&mut cluster).unwrap();
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
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn components_policy_ships_sealed_components_and_logs_the_waves() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        assert_eq!(job.move_policy(), dynahash_core::MovePolicy::Components);
        job.init(&mut cluster).unwrap();
        let mut components = 0usize;
        while job.has_remaining_waves() {
            components += job.run_wave(&mut cluster).unwrap().components;
        }
        assert!(components > 0, "waves must ship sealed components");
        let shipped = cluster
            .controller
            .metadata_log
            .shipped_moves(job.rebalance_id());
        assert_eq!(shipped.len(), job.plan_ref().num_moves());
        assert!(shipped.iter().any(|m| !m.component_ids.is_empty()));
        job.prepare(&mut cluster).unwrap();
        job.decide(&mut cluster).unwrap();
        job.commit(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn destination_crash_after_shipping_is_reshipped_from_the_log() {
        let (mut cluster, ds) = loaded(2, 2000);
        let new_node = cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        job.init(&mut cluster).unwrap();
        while job.has_remaining_waves() {
            job.run_wave(&mut cluster).unwrap();
        }
        job.prepare(&mut cluster).unwrap();
        // The new node received buckets and voted; its crash now wipes the
        // uncommitted pending state (the transfer metadata was never forced).
        cluster.crash_node(new_node).unwrap();
        assert_eq!(
            job.decide(&mut cluster).unwrap(),
            RebalanceOutcome::Committed
        );
        job.commit(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        // the recovered node serves its re-shipped buckets
        let on_new: usize = cluster
            .topology()
            .partitions_of_node(new_node)
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
        assert!(on_new > 0, "lost transfers must be re-shipped");
    }

    #[test]
    fn transient_faults_are_retried_and_absorbed() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        // Fail often (60 %), but cap the injections per transfer below the
        // default retry budget so every fault is absorbed.
        cluster.set_fault_plane(crate::fault::FaultSchedule::seeded(7).with_transient(600, 2));
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
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
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(report.retries > 0, "60 % per-mille must trip some retries");
        let stats = cluster.fault_stats();
        assert_eq!(stats.transient_faults, report.retries);
        assert!(stats.backoff > SimDuration::from_nanos(0));
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn losing_a_pure_destination_cancels_its_moves_and_commits() {
        let (mut cluster, ds) = loaded(3, 3000);
        let new_node = cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        job.init(&mut cluster).unwrap();
        job.run_wave(&mut cluster).unwrap();
        cluster.lose_node(new_node).unwrap();
        // the next wave reports the loss as permanent, not as recoverable
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::NodeLost(n)) if n == new_node
        ));
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert_eq!(replan.lost_nodes, vec![new_node]);
        assert!(replan.rerouted > 0);
        assert_eq!(
            replan.lost_buckets, 0,
            "a pure destination holds no sole copies"
        );
        // every source survives inside the target, so every move cancels:
        // nothing is left to ship
        assert_eq!(replan.waves_appended, 0);
        assert!(!job.has_remaining_waves());
        job.prepare(&mut cluster).unwrap();
        assert_eq!(
            job.decide(&mut cluster).unwrap(),
            RebalanceOutcome::Committed
        );
        job.commit(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(report.reroutes > 0);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 3000);
        cluster.remove_lost_node(new_node).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        assert!(
            cluster.fault_stats().lost_nodes.contains(&new_node),
            "the loss is recorded in the fault stats"
        );
    }

    #[test]
    fn losing_a_destination_mid_scale_in_reships_to_survivors() {
        // Evacuate node 3; some of its buckets land on node 2, which dies
        // for good after every wave shipped. The evacuation must still
        // complete by re-shipping node 2's share to nodes 0 and 1 — node 2's
        // own resident buckets die with it (their only copy), so the dataset
        // ends degraded but every evacuated record survives.
        let (mut cluster, ds) = loaded(4, 4000);
        let evacuee = NodeId(3);
        let victim = NodeId(2);
        let target = cluster.topology_without(evacuee);
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        assert!(job
            .plan_ref()
            .moves
            .iter()
            .any(|m| target.node_of(m.to) == Some(victim)));
        job.init(&mut cluster).unwrap();
        while job.has_remaining_waves() {
            job.run_wave(&mut cluster).unwrap();
        }
        cluster.lose_node(victim).unwrap();
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert_eq!(replan.lost_nodes, vec![victim]);
        assert!(replan.rerouted > 0);
        assert!(
            replan.reshipped > 0,
            "shipped moves to the dead node must transfer again"
        );
        assert!(
            replan.lost_buckets > 0,
            "the victim's resident buckets die with it"
        );
        assert!(replan.waves_appended > 0);
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
        // the evacuee is empty and decommissionable; the victim is removable
        cluster.decommission_node(evacuee).unwrap();
        cluster.remove_lost_node(victim).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        // every evacuated record survived; only the victim's residents died
        let after = cluster.dataset_len(ds).unwrap();
        assert!(after > 0 && after < 4000, "degraded but serving: {after}");
        for (_, state) in cluster.admin().health().nodes {
            assert_eq!(state, crate::fault::NodeState::Alive);
        }
    }

    #[test]
    fn losing_a_source_mid_movement_serves_degraded() {
        // Node 2 is being evacuated and dies for good before all of its
        // buckets ship: the shipped ones survive at their destinations, the
        // unshipped ones are declared lost, and the dataset keeps serving
        // everything else.
        let (mut cluster, ds) = loaded(3, 3000);
        let before = cluster.dataset_len(ds).unwrap();
        let victim = NodeId(2);
        let target = cluster.topology_without(victim);
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        let total_moves = job.plan_ref().num_moves();
        assert!(total_moves > 2);
        job.init(&mut cluster).unwrap();
        job.run_wave(&mut cluster).unwrap();
        cluster.lose_node(victim).unwrap();
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert_eq!(replan.lost_nodes, vec![victim]);
        assert!(
            replan.lost_buckets > 0,
            "unshipped buckets die with their source"
        );
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
        cluster.remove_lost_node(victim).unwrap();
        // the shipped buckets survived, the unshipped ones are gone
        let after = cluster.dataset_len(ds).unwrap();
        assert!(after > 0 && after < before, "degraded but serving: {after}");
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        let health = cluster.admin().health();
        assert!(!health.all_healthy());
        assert_eq!(health.degraded_datasets(), vec![ds]);
    }

    fn value(i: u64) -> Value {
        Bytes::from(format!("v{i:06}").into_bytes())
    }

    /// A 4-node DynaHash dataset and the feed that seeded it, for repairs.
    fn repairable() -> (Cluster, DatasetId, Vec<(Key, Value)>) {
        let mut cluster = Cluster::new(4);
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "repairable",
                Scheme::dynahash(1 << 30, 16),
            ))
            .unwrap();
        let records: Vec<(Key, Value)> = (0..400).map(|i| (Key::from(i), value(i))).collect();
        cluster.admin().ingest(ds, records.clone()).unwrap();
        (cluster, ds, records)
    }

    #[test]
    fn direct_loss_degrades_then_repair_restores() {
        let (mut cluster, ds, records) = repairable();
        let victim = cluster.topology().nodes()[1];
        cluster.lose_node(victim).unwrap();
        let degraded = cluster.fault_stats().degraded_buckets(ds);
        assert!(!degraded.is_empty(), "losing a data node degrades buckets");

        // Reads and writes on a lost bucket get the typed error.
        let mut session = cluster.session(ds).unwrap();
        let lost_key = records
            .iter()
            .map(|(k, _)| k.clone())
            .find(|k| cluster.lost_bucket_of(ds, k).is_some())
            .expect("some key routes to a lost bucket");
        assert!(matches!(
            session.get(&cluster, &lost_key),
            Err(ClusterError::BucketDegraded { .. })
        ));
        assert!(matches!(
            session.put(&mut cluster, lost_key.clone(), value(9999)),
            Err(ClusterError::BucketDegraded { .. })
        ));

        let report = cluster
            .admin()
            .repair_dataset(ds, &records)
            .unwrap()
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(report.buckets_moved, degraded.len());
        assert!(report.records_moved > 0);
        assert!(cluster.fault_stats().degraded_datasets().is_empty());
        assert_eq!(
            cluster.fault_stats().repaired_buckets,
            degraded.len() as u64
        );

        // Every record — lost-bucket ones included — reads back, and once
        // the dead node is removed the cluster is globally consistent.
        let mut session = cluster.session(ds).unwrap();
        for (k, v) in &records {
            assert_eq!(session.get(&cluster, k).unwrap().as_ref(), Some(v));
        }
        cluster.remove_lost_node(victim).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn double_repair_is_a_noop() {
        let (mut cluster, ds, records) = repairable();
        let victim = cluster.topology().nodes()[2];
        cluster.lose_node(victim).unwrap();
        let first = cluster.admin().repair_dataset(ds, &records).unwrap();
        assert!(first.is_some());
        let wal_len = cluster.controller.metadata_log.len();
        let repaired = cluster.fault_stats().repaired_buckets;
        let second = cluster.admin().repair_dataset(ds, &records).unwrap();
        assert!(second.is_none());
        // The no-op forces no log records and bumps no counters.
        assert_eq!(cluster.controller.metadata_log.len(), wal_len);
        assert_eq!(cluster.fault_stats().repaired_buckets, repaired);
    }

    #[test]
    fn repair_reassigns_buckets_owned_by_the_dead_node() {
        let (mut cluster, ds, records) = repairable();
        let victim = cluster.topology().nodes()[0];
        let victim_partitions = cluster.topology().partitions_of_node(victim);
        cluster.lose_node(victim).unwrap();
        let degraded = cluster.fault_stats().degraded_buckets(ds);
        let report = cluster
            .admin()
            .repair_dataset(ds, &records)
            .unwrap()
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        // No repaired bucket may still route to the dead node's partitions.
        let meta = cluster.controller.dataset(ds).unwrap();
        let dir = meta.directory.as_ref().unwrap();
        for b in &degraded {
            let owner = dir.partition_of_bucket(b).unwrap();
            assert!(!victim_partitions.contains(&owner));
        }
        let mut session = cluster.session(ds).unwrap();
        for (k, v) in &records {
            assert_eq!(session.get(&cluster, k).unwrap().as_ref(), Some(v));
        }
    }

    #[test]
    fn repair_noop_when_nothing_lost() {
        let (mut cluster, ds, records) = repairable();
        let wal_len = cluster.controller.metadata_log.len();
        assert!(cluster
            .admin()
            .repair_dataset(ds, &records)
            .unwrap()
            .is_none());
        assert_eq!(cluster.controller.metadata_log.len(), wal_len);
    }

    #[test]
    fn hashing_scheme_cannot_be_stepped() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("events", Scheme::Hashing))
            .unwrap();
        let target = cluster.topology().clone();
        assert!(matches!(
            RebalanceJob::plan(&mut cluster, ds, &target, 1),
            Err(ClusterError::RebalanceAborted(_))
        ));
    }
}
