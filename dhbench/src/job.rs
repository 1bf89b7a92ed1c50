//! Drives one `RebalanceJob` a step at a time, timing each step, and sums
//! what the jobs of a run did on both clocks.

use dynahash_cluster::{
    Cluster, DatasetId, JobState, RebalanceJob, RebalanceOptions, RebalanceReport,
};
use dynahash_core::{ClusterTopology, RebalanceOutcome};

use crate::clock::Clock;
use crate::common::{self, Metrics};

/// The job step names, in protocol order.
pub const STEPS: [&str; 7] = [
    "job.plan",
    "job.init",
    "job.run_wave",
    "job.prepare",
    "job.decide",
    "job.commit",
    "job.finalize",
];

/// One rebalance of one dataset onto a target topology, stepped by the
/// caller so client ops can run between steps.
pub struct Stepper {
    ds: DatasetId,
    target: ClusterTopology,
    job: Option<RebalanceJob>,
}

impl Stepper {
    /// A rebalance of `ds` onto `target`, not yet planned.
    pub fn new(ds: DatasetId, target: ClusterTopology) -> Self {
        Stepper {
            ds,
            target,
            job: None,
        }
    }

    /// Runs the next step. Returns the report once the job is finalized.
    pub fn step(
        &mut self,
        clock: &mut Clock,
        cluster: &mut Cluster,
    ) -> Result<Option<RebalanceReport>, String> {
        let Some(job) = self.job.as_mut() else {
            let moves = RebalanceOptions::none().max_concurrent_moves;
            let (job, _) = clock.call("job.plan", || {
                RebalanceJob::plan(cluster, self.ds, &self.target, moves)
            });
            self.job = Some(job.map_err(|e| format!("plan dataset {}: {e}", self.ds))?);
            return Ok(None);
        };
        let ds = self.ds;
        let fail =
            |step: &str, e: dynahash_cluster::ClusterError| format!("{step} dataset {ds}: {e}");
        match job.state() {
            JobState::Planned => clock
                .call("job.init", || job.init(cluster))
                .0
                .map_err(|e| fail("init", e))?,
            JobState::Moving { .. } if job.has_remaining_waves() => {
                clock
                    .call("job.run_wave", || job.run_wave(cluster))
                    .0
                    .map_err(|e| fail("run_wave", e))?;
            }
            // Prepare blocks the dataset's writes until the decision, so the
            // 2PC runs as one step: client ops due meanwhile wait, as a
            // blocked writer would, instead of being refused.
            JobState::Moving { .. } => {
                clock
                    .call("job.prepare", || job.prepare(cluster))
                    .0
                    .map_err(|e| fail("prepare", e))?;
                let outcome = clock
                    .call("job.decide", || job.decide(cluster))
                    .0
                    .map_err(|e| fail("decide", e))?;
                if outcome != RebalanceOutcome::Committed {
                    return Err(format!("dataset {ds}: rebalance aborted"));
                }
                clock
                    .call("job.commit", || job.commit(cluster))
                    .0
                    .map_err(|e| fail("commit", e))?;
            }
            JobState::CommitTasksDone => {
                let report = clock
                    .call("job.finalize", || job.finalize(cluster))
                    .0
                    .map_err(|e| fail("finalize", e))?;
                return Ok(Some(report));
            }
            state => return Err(format!("dataset {ds}: unexpected job state {state:?}")),
        }
        Ok(None)
    }

    /// Waves the planned job runs (0 before `plan`).
    pub fn waves(&self) -> usize {
        self.job.as_ref().map_or(0, RebalanceJob::num_waves)
    }

    /// Runs every remaining step.
    pub fn finish(
        &mut self,
        clock: &mut Clock,
        cluster: &mut Cluster,
    ) -> Result<RebalanceReport, String> {
        loop {
            if let Some(report) = self.step(clock, cluster)? {
                return Ok(report);
            }
        }
    }
}

/// What the committed jobs of a run did.
#[derive(Debug, Default, Clone)]
pub struct JobTotals {
    /// Waves run.
    pub waves: u64,
    /// Buckets moved.
    pub buckets_moved: u64,
    /// Records moved.
    pub records_moved: u64,
    /// Primary bytes moved.
    pub bytes_moved: u64,
    /// Concurrent writes replicated to shipped buckets.
    pub writes_replicated: u64,
    /// Simulated seconds per phase: initialization, data movement,
    /// finalization.
    pub sim_phase_s: [f64; 3],
    /// Simulated seconds in total.
    pub sim_s: f64,
}

impl JobTotals {
    /// Adds one job's report.
    pub fn add(&mut self, r: &RebalanceReport, waves: usize) {
        self.waves += waves as u64;
        self.buckets_moved += r.buckets_moved as u64;
        self.records_moved += r.records_moved;
        self.bytes_moved += r.bytes_moved;
        self.writes_replicated += r.concurrent_writes_applied;
        self.sim_phase_s[0] += r.phases.initialization.as_secs_f64();
        self.sim_phase_s[1] += r.phases.data_movement.as_secs_f64();
        self.sim_phase_s[2] += r.phases.finalization.as_secs_f64();
        self.sim_s += r.elapsed.as_secs_f64();
    }

    /// Sets the `job.*` per-layer metrics: wall time per step from `clock`
    /// beside the simulated time the cost model charged.
    pub fn metrics(&self, m: &mut Metrics, clock: &Clock) {
        let mut wall_ns = 0.0;
        for step in STEPS {
            m.calls(clock, step, false);
            wall_ns += clock.durations(step).iter().sum::<f64>();
        }
        m.percentiles("job.run_wave", clock.durations("job.run_wave"), "us");
        m.set("job.waves", self.waves as f64, "count");
        m.set("job.buckets_moved", self.buckets_moved as f64, "count");
        m.set("job.records_moved", self.records_moved as f64, "count");
        m.set("job.bytes_moved", self.bytes_moved as f64, "B");
        m.set(
            "job.writes_replicated",
            self.writes_replicated as f64,
            "count",
        );
        for (name, s) in ["initialization", "data_movement", "finalization"]
            .into_iter()
            .zip(self.sim_phase_s)
        {
            m.set(format!("job.{name}.sim_ms"), s * 1e3, "ms");
        }
        m.set(
            "job.wall_per_sim",
            common::ratio(wall_ns / 1e9, self.sim_s),
            "ratio",
        );
    }
}
