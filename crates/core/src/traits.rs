//! The [`Scheduler`] trait: the stepping surface a driver needs to run any
//! scheduling policy — DARIS or a baseline — against a simulated GPU.
//!
//! The trait is extracted verbatim from
//! [`DarisScheduler`](crate::DarisScheduler)'s public stepping API, which
//! `daris-cluster`'s dispatcher already consumed method-for-method.
//! Anything that can implement these methods can be:
//!
//! * driven standalone via the provided [`run`](Scheduler::run) (or
//!   [`run_with_source`](Scheduler::run_with_source) for a custom source),
//! * fanned out across a fleet by `ClusterDispatcher`, which steps one
//!   scheduler per device in fixed synchronization rounds, and
//! * swept by the `scheduler_comparison` bench runner against the full
//!   scenario grid.

use daris_gpu::SimTime;
use daris_workload::{ArrivalSource, Job, JobId, Priority, TaskId, TaskSet, TaskSpec};

use crate::runspec::{RunSpec, Shard};
use crate::{CoreError, ExperimentOutcome, Result};

/// A deadline-aware scheduler bound to one simulated device.
///
/// The required methods are the primitive stepping surface; the provided
/// methods compose them into the standard standalone run loops.
///
/// # Contract
///
/// Implementations must be **deterministic**: the same construction inputs
/// and the same call sequence must produce byte-identical outcomes (this is
/// what lets the cluster pool run devices on any number of worker threads).
/// Time never goes backwards: callers only pass non-decreasing targets to
/// [`advance_to`](Scheduler::advance_to). Releases are only offered for
/// tasks of the scheduler's own [`taskset`](Scheduler::taskset) (locally
/// re-homed via [`adopt_task`](Scheduler::adopt_task) for guests).
///
/// The provided [`run_span`](Scheduler::run_span) default is the one event
/// loop — releases and device events interleaved in exact time order —
/// shared by every policy, DARIS included, so a comparison between two
/// schedulers compares *policies*, never loop plumbing.
///
/// # Wake-ups
///
/// Between releases, `run_span` steps the device through
/// [`advance_toward`](Scheduler::advance_toward), which decides how often
/// the policy wakes. Every policy wakes at releases, completions and
/// timers, and runs the engine's transitions between them in one call
/// (`Gpu::advance_until_completion`):
/// [`DarisScheduler`](crate::DarisScheduler) at stage completions, the
/// synchronization points of its staging, and a baseline at batch
/// completions and at the flush timeouts of its partial batches. A timer is
/// part of [`next_event_time`](Scheduler::next_event_time), so the provided
/// per-event default stops at it too and gives the same results; it remains
/// for wrappers that forward only the required methods.
pub trait Scheduler {
    /// The scheduler's current simulated time.
    fn now(&self) -> SimTime;

    /// Earliest instant at which the scheduler may act without a release:
    /// its next device event, or an earlier timer of the policy's own (a
    /// baseline's batch-flush timeout), never before [`now`](Self::now).
    fn next_event_time(&self) -> Option<SimTime>;

    /// Advances the simulated device to `target` (non-decreasing),
    /// processing every completion on the way, without dispatching queued
    /// work — call [`dispatch_ready`](Self::dispatch_ready) afterwards.
    fn advance_to(&mut self, target: SimTime);

    /// Dispatches ready work onto idle streams, most urgent first (by the
    /// policy's own notion of urgency).
    fn dispatch_ready(&mut self);

    /// Releases `job`, applying the policy's admission test. Returns `false`
    /// — recording *nothing* — when the job is rejected, so a cluster
    /// dispatcher can retry it on another device before charging the
    /// rejection somewhere via [`reject_job`](Self::reject_job). Policies
    /// without admission control simply always accept.
    fn try_release_job(&mut self, job: Job) -> bool;

    /// Records `job` as rejected here, for exactly-once accounting.
    fn reject_job(&mut self, job: &Job);

    /// Whether a release of `task` at `priority` would currently be
    /// admitted. Policies without admission control return `true` for every
    /// task of their set.
    fn would_admit(&self, task: TaskId, priority: Priority) -> bool;

    /// Registers a *guest* task (placed on another device, admitted or
    /// migrated here by a cluster dispatcher) and returns its local id.
    ///
    /// # Errors
    ///
    /// Returns an error when the device cannot host the task (e.g. its
    /// model's weights do not fit in device memory).
    fn adopt_task(&mut self, task: &TaskSpec) -> Result<TaskId>;

    /// Withdraws an admitted job on which no work has started yet, removing
    /// every trace of it, and returns the job so it can be re-released on
    /// another device. Returns `None` once any work has been dispatched:
    /// partially executed jobs never migrate across devices.
    fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job>;

    /// Jobs eligible for cross-device migration — admitted, no work started
    /// — least urgent first.
    fn migratable_jobs(&self) -> Vec<JobId>;

    /// Number of queued (undispatched) units of ready work.
    fn queue_backlog(&self) -> usize;

    /// Number of currently idle streams.
    fn idle_stream_count(&self) -> usize;

    /// Fraction of device capacity charged by currently active jobs, in
    /// `[0, 1]`-ish (the load signal a dispatcher ranks retry candidates
    /// by). Policies without a utilization model may approximate.
    fn active_load_fraction(&self) -> f64;

    /// Simulated device events processed so far (perf accounting).
    fn events_processed(&self) -> u64;

    /// The task set this scheduler was built over (plus adopted guests).
    fn taskset(&self) -> &TaskSet;

    /// Final accounting: advances to `horizon` and produces the outcome.
    fn finish(&mut self, horizon: SimTime) -> ExperimentOutcome;

    /// Advances the device through its own events at instants up to `bound`
    /// (processing completions as [`advance_to`](Self::advance_to) does),
    /// stopping at the first instant at which the policy may need to act.
    /// Returns `true` if it stopped at such an instant, with the clock
    /// there; `false` if none came by `bound`, with the clock on the last
    /// event it processed (or where it was): it never moves the clock to
    /// `bound` for its own sake.
    ///
    /// The default stops at every instant
    /// [`next_event_time`](Self::next_event_time) reports: it advances to
    /// the next one if it is due by `bound` and returns `true`, or does
    /// nothing and returns `false`. An override may skip instants at which
    /// its policy provably does nothing, but must process every device event
    /// it passes exactly as `advance_to` would.
    fn advance_toward(&mut self, bound: SimTime) -> bool {
        match self.next_event_time() {
            Some(t) if t <= bound => {
                self.advance_to(t);
                true
            }
            _ => false,
        }
    }

    /// Runs the device-local event loop — completions, releases from
    /// `arrivals`, dispatch, in exact time order — up to (but not
    /// including) `until`. Releases the admission test rejects are pushed
    /// to `rejected` instead of being recorded, so an external driver can
    /// retry them elsewhere; a standalone run charges them via
    /// [`reject_job`](Self::reject_job).
    ///
    /// Everything strictly before `until` is handled at its exact simulated
    /// time; events at or after `until` stay pending. Driving consecutive
    /// spans is byte-identical to one big span.
    ///
    /// Every scheduler in the workspace, [`DarisScheduler`] included, runs
    /// this default body; an override must not change its semantics.
    ///
    /// Each turn steps the device with
    /// [`advance_toward`](Self::advance_toward), bounded by the next release
    /// or, with none due before `until`, by the last instant before it. The
    /// clock lands on the release with `advance_to` only when the step did
    /// not stop early, and never lands on the last-instant bound: the clock
    /// at the end of a span is the last instant something happened.
    ///
    /// [`DarisScheduler`]: crate::DarisScheduler
    fn run_span(
        &mut self,
        arrivals: &mut dyn ArrivalSource,
        until: SimTime,
        rejected: &mut Vec<Job>,
    ) {
        loop {
            let next_release = arrivals.next_release().filter(|r| *r < until);
            let device_due = self.next_event_time().is_some_and(|t| t < until);
            if next_release.is_none() && !device_due {
                break;
            }
            let bound = next_release.unwrap_or(SimTime::from_nanos(until.as_nanos() - 1));
            if !self.advance_toward(bound) {
                // Nothing to act on before the bound: land on the release,
                // or, with none, the span has no more work.
                let Some(release) = next_release else { break };
                self.advance_to(release);
            }
            while arrivals.next_release().map(|r| r <= self.now()).unwrap_or(false) {
                let job = arrivals.next_job().expect("a pending release was peeked");
                if !self.try_release_job(job) {
                    rejected.push(job);
                }
            }
            self.dispatch_ready();
        }
    }

    /// Runs until `horizon` pulling releases from an arbitrary
    /// [`ArrivalSource`], charging rejected releases here (standalone
    /// single-device accounting).
    fn run_with_source(
        &mut self,
        arrivals: &mut dyn ArrivalSource,
        horizon: SimTime,
    ) -> ExperimentOutcome {
        let mut rejected = Vec::new();
        self.run_span(arrivals, horizon, &mut rejected);
        for job in &rejected {
            self.reject_job(job);
        }
        self.finish(horizon)
    }

    /// Runs the workload described by `spec` to its horizon — the one
    /// standalone entry point. The spec's arrival source is its
    /// [`Workload::shard`](crate::Workload::shard) over one identity shard.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the spec has no horizon
    /// (periodic/generated workloads require [`RunSpec::until`]), a replay
    /// horizon past the trace's, a jitter the horizon cannot hold or an
    /// out-of-range generator, and [`CoreError::Trace`] when a
    /// replayed trace refers to tasks this scheduler's set does not contain.
    fn run(&mut self, spec: &RunSpec) -> Result<ExperimentOutcome>
    where
        Self: Sized,
    {
        let horizon = spec.required_horizon()?;
        let taskset = self.taskset().clone();
        let global: Vec<usize> = (0..taskset.len()).collect();
        let shard = Shard { taskset: &taskset, global: &global };
        let mut sources = spec.workload().shard(horizon, &[shard]).map_err(CoreError::Trace)?;
        let mut source = sources.pop().expect("one source per shard");
        Ok(self.run_with_source(&mut source, horizon))
    }
}
