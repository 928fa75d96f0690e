//! [`BaselineScheduler`]: the shared device harness behind every baseline.
//!
//! One struct owns the simulated GPU, its dispatch slots (streams), metrics
//! and in-flight bookkeeping; a policy's [`DispatchQueue`] supplies the only
//! behaviour that differs between baselines. The struct implements
//! [`daris_core::Scheduler`], so every baseline can be driven standalone,
//! replayed from traces, or fanned out across a fleet by the cluster
//! dispatcher — exactly like [`DarisScheduler`](daris_core::DarisScheduler).
//!
//! The event loop is the [`Scheduler`] trait's canonical `run_span`
//! default, shared with DARIS itself. Like DARIS, the harness wakes only at
//! releases, completions and timers. A timer is the flush timeout of a
//! partial batch queued for an idle slot; `next_event_time` reports it, so
//! every caller that steps by `next_event_time` stops there too.

use std::collections::BTreeMap;

use daris_core::{ExperimentOutcome, Result as CoreResult, Scheduler};
use daris_gpu::{Completion, Gpu, GpuError, GpuSpec, SimTime, Slab, StreamId};
use daris_metrics::MetricsCollector;
use daris_models::{DnnKind, ModelProfile};
use daris_workload::{Job, JobId, Priority, TaskId, TaskSet, TaskSpec};

use crate::policies::{DispatchBatch, DispatchQueue};
use crate::server::Policy;

/// A baseline scheduler: shared harness + one queueing policy.
///
/// Build one through a server's `scheduler(..)` method
/// ([`Server::scheduler`](crate::Server::scheduler) or
/// [`SingleTenantServer::scheduler`](crate::SingleTenantServer::scheduler)),
/// then drive it through the [`Scheduler`] trait.
///
/// Baselines deliberately implement the "may not" list of the trait
/// contract's fairness rules: no admission control
/// ([`would_admit`](Scheduler::would_admit) accepts every task of the set,
/// [`try_release_job`](Scheduler::try_release_job) never refuses), no MRET
/// estimation, no stage-level preemption (whole jobs are committed to a
/// stream), and no virtual deadlines.
#[derive(Debug)]
pub struct BaselineScheduler {
    label: String,
    taskset: TaskSet,
    calibration: GpuSpec,
    profiles: BTreeMap<DnnKind, ModelProfile>,
    gpu: Gpu,
    /// One stream per dispatch slot.
    slots: Vec<StreamId>,
    busy: Vec<bool>,
    /// (slot, fused jobs) of each submitted batch, by GPU tag.
    in_flight: Slab<(usize, Vec<Job>)>,
    queue: Box<dyn DispatchQueue>,
    metrics: MetricsCollector,
    /// Reused buffer of the completions one advance reports.
    completions: Vec<Completion>,
}

impl BaselineScheduler {
    /// Builds the harness: the device carved into `policy`'s layout with one
    /// dispatch slot per stream, per-model profiles calibrated against
    /// `calibration` (the *reference* device in a heterogeneous fleet, so
    /// deadlines mean the same thing on every scheduler), and `policy`'s
    /// queue, which observes every task of the set. A device whose
    /// interference parameters fail [`GpuSpec::validate`] is rejected before
    /// anything is built.
    pub(crate) fn build(
        taskset: &TaskSet,
        device: GpuSpec,
        calibration: GpuSpec,
        policy: &impl Policy,
    ) -> Result<Self, GpuError> {
        device.validate()?;
        let (contexts, quota, streams) = policy.layout(device.sm_count);
        let mut queue = policy.queue();
        for task in taskset.tasks() {
            queue.on_task_added(task);
        }
        let profiles: BTreeMap<DnnKind, ModelProfile> = taskset
            .model_kinds()
            .into_iter()
            .map(|k| (k, ModelProfile::calibrated_for(k, &calibration)))
            .collect();
        let mut gpu = Gpu::new(device);
        let slots = gpu.add_contexts(contexts, quota, streams)?;
        let busy = vec![false; slots.len()];
        Ok(BaselineScheduler {
            label: policy.label(),
            taskset: taskset.clone(),
            calibration,
            profiles,
            gpu,
            slots,
            busy,
            in_flight: Slab::new(),
            queue,
            metrics: MetricsCollector::new(),
            completions: Vec::new(),
        })
    }

    /// Read access to the underlying simulated GPU.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Jobs accepted but not yet completed: queued plus in flight. The job
    /// conservation invariant every baseline upholds is
    /// `released == completed + rejected + outstanding` at any point of a
    /// run (with `rejected == 0` — baselines never refuse).
    pub fn outstanding_jobs(&self) -> usize {
        self.queue.queued() + self.in_flight.iter().map(|(_, (_, jobs))| jobs.len()).sum::<usize>()
    }

    /// Runs `step` on the device and retires the batches it completes.
    fn step_device<T>(&mut self, step: impl FnOnce(&mut Gpu, &mut Vec<Completion>) -> T) -> T {
        let out = step(&mut self.gpu, &mut self.completions);
        for completion in self.completions.drain(..) {
            if let Some((slot, jobs)) = self.in_flight.remove(completion.tag) {
                for job in jobs {
                    self.metrics.record_completion(&job, completion.finished_at);
                }
                self.busy[slot] = false;
            }
        }
        out
    }

    /// The earliest flush timeout of a partial batch queued for an idle
    /// slot, never before `now`: a batch that went stale while its slot was
    /// busy flushes as soon as the slot frees.
    fn next_timer(&self) -> Option<SimTime> {
        let idle = (0..self.slots.len()).filter(|&slot| !self.busy[slot]);
        let timer = idle.filter_map(|slot| self.queue.next_flush(slot)).min()?;
        Some(timer.max(self.gpu.now()))
    }

    fn submit(&mut self, slot: usize, batch: DispatchBatch) {
        let model = batch.jobs.first().expect("a dispatch batch is never empty").model;
        let profile = &self.profiles[&model];
        let item = profile.job_item(self.in_flight.next_key(), batch.batch);
        self.gpu
            .submit(self.slots[slot], item)
            .expect("submitting to an idle baseline stream cannot fail");
        self.in_flight.insert((slot, batch.jobs));
        self.busy[slot] = true;
    }
}

impl Scheduler for BaselineScheduler {
    fn now(&self) -> SimTime {
        self.gpu.now()
    }

    /// The earlier of the device's next event and the next timer.
    fn next_event_time(&self) -> Option<SimTime> {
        [self.gpu.next_event_time(), self.next_timer()].into_iter().flatten().min()
    }

    fn advance_to(&mut self, target: SimTime) {
        self.step_device(|gpu, completions| gpu.advance_into(target, completions));
    }

    /// Runs the device up to the next batch completion or timer due by
    /// `bound`. Between them no slot frees and no partial batch goes stale,
    /// so `pop` would return nothing. A completion frees a slot and may arm
    /// its timer, but the step stops there.
    fn advance_toward(&mut self, bound: SimTime) -> bool {
        let timer = self.next_timer().filter(|t| *t <= bound);
        let stop = timer.unwrap_or(bound);
        if self.step_device(|gpu, completions| gpu.advance_until_completion(stop, completions)) {
            return true;
        }
        let Some(timer) = timer else { return false };
        self.advance_to(timer);
        true
    }

    fn dispatch_ready(&mut self) {
        for slot in 0..self.slots.len() {
            while !self.busy[slot] {
                let Some(batch) = self.queue.pop(slot, self.gpu.now()) else { break };
                self.submit(slot, batch);
            }
        }
    }

    fn try_release_job(&mut self, job: Job) -> bool {
        // No admission control: every release of a known task is accepted.
        self.metrics.record_release(&job);
        self.queue.push(job);
        true
    }

    fn reject_job(&mut self, job: &Job) {
        self.metrics.record_rejection(job);
    }

    fn would_admit(&self, task: TaskId, _priority: Priority) -> bool {
        self.taskset.task(task).is_some()
    }

    fn adopt_task(&mut self, task: &TaskSpec) -> CoreResult<TaskId> {
        if !self.profiles.contains_key(&task.model) {
            let profile = ModelProfile::calibrated_for(task.model, &self.calibration);
            self.profiles.insert(task.model, profile);
        }
        let local = self.taskset.adopt(task.clone());
        let spec = self.taskset.task(local).expect("just adopted").clone();
        self.queue.on_task_added(&spec);
        Ok(local)
    }

    fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job> {
        let withdrawn = self.queue.withdraw(job)?;
        self.metrics.forget(job);
        Some(withdrawn)
    }

    fn migratable_jobs(&self) -> Vec<JobId> {
        // Least urgent (latest deadline) first, ties by id — the same
        // ordering DARIS reports, so the dispatcher treats all schedulers
        // alike.
        let mut jobs = self.queue.queued_jobs();
        jobs.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        jobs.into_iter().map(|(_, job)| job).collect()
    }

    fn queue_backlog(&self) -> usize {
        self.queue.queued()
    }

    fn idle_stream_count(&self) -> usize {
        self.busy.iter().filter(|busy| !**busy).count()
    }

    fn active_load_fraction(&self) -> f64 {
        // Baselines have no utilization model; approximate load as jobs per
        // slot (busy slots plus backlog), which ranks retry candidates
        // sensibly without claiming Eq. 11 semantics.
        let slots = self.slots.len().max(1) as u32;
        let active = (self.busy.iter().filter(|b| **b).count() + self.queue.queued()) as u32;
        f64::from(active) / f64::from(slots)
    }

    fn events_processed(&self) -> u64 {
        self.gpu.events_processed()
    }

    fn taskset(&self) -> &TaskSet {
        &self.taskset
    }

    fn finish(&mut self, horizon: SimTime) -> ExperimentOutcome {
        self.advance_to(horizon);
        let summary =
            self.metrics.summarize(horizon).with_gpu_utilization(self.gpu.average_utilization());
        ExperimentOutcome { summary, mret_trace: Vec::new(), config_label: self.label.clone() }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use daris_models::DnnKind;

    use super::*;
    use crate::FifoMultiStreamServer;

    /// Runs a freshly built baseline on strictly periodic releases until
    /// `horizon` and returns its summary (unit-test shorthand).
    pub(crate) fn run_periodic(
        scheduler: std::result::Result<BaselineScheduler, GpuError>,
        horizon: SimTime,
    ) -> daris_metrics::ExperimentSummary {
        let spec = daris_core::RunSpec::periodic().until(horizon);
        scheduler.expect("baseline builds").run(&spec).expect("periodic spec runs").summary
    }

    #[test]
    fn advancing_to_a_past_target_keeps_the_clock_on_the_device() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let mut scheduler = FifoMultiStreamServer::new(1).scheduler(&taskset).unwrap();
        assert!(scheduler.try_release_job(taskset.tasks()[0].job(0)));
        scheduler.dispatch_ready();
        scheduler.advance_to(SimTime::from_millis(5));
        scheduler.advance_to(SimTime::from_millis(2));
        assert_eq!(scheduler.now(), SimTime::from_millis(5), "the clock never runs backwards");
        assert_eq!(scheduler.now(), scheduler.gpu().now());
    }
}
