//! Per-job outcome collection and experiment summaries.

use std::collections::BTreeMap;

use daris_gpu::{SimDuration, SimTime};
use daris_workload::{Job, JobId, Priority};

use crate::ResponseStats;

#[derive(Debug, Clone)]
struct JobRecord {
    priority: Priority,
    batch_size: u32,
    release: SimTime,
    absolute_deadline: SimTime,
    rejected: bool,
    finish: Option<SimTime>,
}

/// Accumulates job outcomes during a simulation run.
///
/// The expected call sequence per job is `record_release`, then either
/// `record_rejection` (admission test failed) or eventually
/// `record_completion`. Jobs released but never completed by the end of the
/// run count as *unfinished* (they are treated as accepted but are excluded
/// from response-time statistics and counted as deadline misses if their
/// deadline has passed by the summary horizon).
///
/// Records are kept in a `BTreeMap` so summarization iterates jobs in a
/// deterministic order — response-time statistics involve floating-point
/// sums, and a hash-map order would make the last bits of the mean depend on
/// the map's per-instance hash seed.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    jobs: BTreeMap<JobId, JobRecord>,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Records a job release.
    pub fn record_release(&mut self, job: &Job) {
        self.jobs.insert(
            job.id,
            JobRecord {
                priority: job.priority,
                batch_size: job.batch_size,
                release: job.release,
                absolute_deadline: job.absolute_deadline,
                rejected: false,
                finish: None,
            },
        );
    }

    /// Records that the admission test rejected a job.
    pub fn record_rejection(&mut self, job: &Job) {
        if let Some(r) = self.jobs.get_mut(&job.id) {
            r.rejected = true;
        } else {
            self.record_release(job);
            self.jobs.get_mut(&job.id).expect("just inserted").rejected = true;
        }
    }

    /// Records a job completion at `finish`.
    pub fn record_completion(&mut self, job: &Job, finish: SimTime) {
        if let Some(r) = self.jobs.get_mut(&job.id) {
            r.finish = Some(finish);
        } else {
            self.record_release(job);
            self.jobs.get_mut(&job.id).expect("just inserted").finish = Some(finish);
        }
    }

    /// Forgets a job entirely, as if it had never been released here. Used
    /// when a queued job migrates away (another collector takes ownership of
    /// its outcome); a job must not be counted by two collectors at once.
    pub fn forget(&mut self, job: JobId) {
        self.jobs.remove(&job);
    }

    /// Number of jobs recorded so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job has been recorded.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Produces the experiment summary for a run that lasted until `horizon`.
    pub fn summarize(&self, horizon: SimTime) -> ExperimentSummary {
        let (mut high, mut low, mut total) =
            (Accumulator::default(), Accumulator::default(), Accumulator::default());
        for record in self.jobs.values() {
            let class = match record.priority {
                Priority::High => &mut high,
                Priority::Low => &mut low,
            };
            class.add(record, horizon);
            total.add(record, horizon);
        }
        let (high, low, total) = (high.finish(), low.finish(), total.finish());
        let duration = horizon.duration_since(SimTime::ZERO);
        let throughput_jps = if duration.is_zero() {
            0.0
        } else {
            total.completed_inferences as f64 / duration.as_secs_f64()
        };
        ExperimentSummary { duration, throughput_jps, high, low, total, gpu_utilization: None }
    }
}

#[derive(Debug, Clone, Default)]
struct Accumulator {
    released: usize,
    rejected: usize,
    completed: usize,
    completed_inferences: u64,
    deadline_misses: usize,
    responses_ms: Vec<f64>,
}

impl Accumulator {
    fn add(&mut self, record: &JobRecord, horizon: SimTime) {
        self.released += 1;
        if record.rejected {
            self.rejected += 1;
            return;
        }
        match record.finish {
            Some(finish) => {
                self.completed += 1;
                self.completed_inferences += u64::from(record.batch_size);
                if finish > record.absolute_deadline {
                    self.deadline_misses += 1;
                }
                self.responses_ms.push(finish.duration_since(record.release).as_millis_f64());
            }
            None => {
                // Unfinished at the end of the run: a miss if its deadline has
                // already passed.
                if record.absolute_deadline <= horizon {
                    self.deadline_misses += 1;
                }
            }
        }
    }

    fn finish(self) -> PrioritySummary {
        let accepted = self.released - self.rejected;
        let miss_rate =
            if accepted == 0 { 0.0 } else { self.deadline_misses as f64 / accepted as f64 };
        PrioritySummary {
            released: self.released,
            accepted,
            rejected: self.rejected,
            completed: self.completed,
            completed_inferences: self.completed_inferences,
            deadline_misses: self.deadline_misses,
            deadline_miss_rate: miss_rate,
            response: ResponseStats::from_millis(&self.responses_ms),
        }
    }
}

/// Outcome counts for one priority level (or for all jobs combined).
#[derive(Debug, Clone, PartialEq)]
pub struct PrioritySummary {
    /// Jobs released.
    pub released: usize,
    /// Jobs accepted (released minus rejected).
    pub accepted: usize,
    /// Jobs rejected by the admission test.
    pub rejected: usize,
    /// Jobs completed before the end of the run.
    pub completed: usize,
    /// Completed inferences (completed jobs weighted by batch size).
    pub completed_inferences: u64,
    /// Accepted jobs that missed their deadline (completed late, or still
    /// unfinished after their deadline at the end of the run).
    pub deadline_misses: usize,
    /// `deadline_misses / accepted` — the paper's DMR.
    pub deadline_miss_rate: f64,
    /// Response-time statistics over completed jobs.
    pub response: ResponseStats,
}

impl PrioritySummary {
    /// Merges outcome counts from runs over *disjoint* job populations (e.g.
    /// the per-device summaries of a cluster run). Counts add up exactly; the
    /// miss rate is recomputed from the merged counts; response statistics
    /// merge per [`ResponseStats::merged`].
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a PrioritySummary>) -> PrioritySummary {
        let mut out = PrioritySummary::default();
        let mut responses = Vec::new();
        for p in parts {
            out.released += p.released;
            out.accepted += p.accepted;
            out.rejected += p.rejected;
            out.completed += p.completed;
            out.completed_inferences += p.completed_inferences;
            out.deadline_misses += p.deadline_misses;
            responses.push(&p.response);
        }
        out.deadline_miss_rate =
            if out.accepted == 0 { 0.0 } else { out.deadline_misses as f64 / out.accepted as f64 };
        out.response = ResponseStats::merged(responses);
        out
    }
}

impl Default for PrioritySummary {
    fn default() -> Self {
        Accumulator::default().finish()
    }
}

/// Summary of one scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Completed inferences per second (batched jobs count their batch size),
    /// the paper's JPS metric.
    pub throughput_jps: f64,
    /// High-priority outcomes.
    pub high: PrioritySummary,
    /// Low-priority outcomes.
    pub low: PrioritySummary,
    /// Combined outcomes.
    pub total: PrioritySummary,
    /// Average GPU utilization over the run, if the caller sampled it.
    pub gpu_utilization: Option<f64>,
}

impl ExperimentSummary {
    /// The summary of one priority level.
    pub fn of(&self, priority: Priority) -> &PrioritySummary {
        match priority {
            Priority::High => &self.high,
            Priority::Low => &self.low,
        }
    }

    /// Attaches a GPU utilization figure (fraction of SM-time busy).
    pub fn with_gpu_utilization(mut self, utilization: f64) -> Self {
        self.gpu_utilization = Some(utilization);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_models::DnnKind;
    use daris_workload::{TaskSet, TaskSpec};

    fn tasks() -> Vec<TaskSpec> {
        TaskSet::table2(DnnKind::ResNet18).tasks().to_vec()
    }

    #[test]
    fn mixed_outcomes_are_classified() {
        let tasks = tasks();
        let hp = tasks.iter().find(|t| t.priority == Priority::High).unwrap();
        let lp = tasks.iter().find(|t| t.priority == Priority::Low).unwrap();
        let mut m = MetricsCollector::new();

        // HP job completes on time.
        let j1 = hp.job(0);
        m.record_release(&j1);
        m.record_completion(&j1, j1.release + SimDuration::from_millis(5));
        // HP job completes late.
        let j2 = hp.job(1);
        m.record_release(&j2);
        m.record_completion(&j2, j2.absolute_deadline + SimDuration::from_millis(1));
        // LP job rejected.
        let j3 = lp.job(0);
        m.record_release(&j3);
        m.record_rejection(&j3);
        // LP job released, never finished, deadline passed.
        let j4 = lp.job(1);
        m.record_release(&j4);

        let horizon = SimTime::from_millis(500);
        let s = m.summarize(horizon);
        assert_eq!(s.high.released, 2);
        assert_eq!(s.high.completed, 2);
        assert_eq!(s.high.deadline_misses, 1);
        assert!((s.high.deadline_miss_rate - 0.5).abs() < 1e-9);
        assert_eq!(s.low.released, 2);
        assert_eq!(s.low.rejected, 1);
        assert_eq!(s.low.accepted, 1);
        assert_eq!(s.low.deadline_misses, 1, "unfinished job past deadline counts as a miss");
        assert_eq!(s.total.released, 4);
        assert_eq!(s.total.completed, 2);
        // Throughput: 2 completed inferences in 0.5 s = 4 JPS.
        assert!((s.throughput_jps - 4.0).abs() < 1e-9);
    }

    #[test]
    fn batch_size_weights_throughput() {
        let tasks = tasks();
        let t = tasks[0].clone().with_batch_size(4);
        let mut m = MetricsCollector::new();
        let j = t.job(0);
        m.record_release(&j);
        m.record_completion(&j, j.release + SimDuration::from_millis(3));
        let s = m.summarize(SimTime::from_millis(1000));
        assert_eq!(s.total.completed, 1);
        assert_eq!(s.total.completed_inferences, 4);
        assert!((s.throughput_jps - 4.0).abs() < 1e-9);
    }

    #[test]
    fn forget_removes_a_job_from_the_accounting() {
        let tasks = tasks();
        let j = tasks[0].job(0);
        let mut m = MetricsCollector::new();
        m.record_release(&j);
        assert_eq!(m.len(), 1);
        m.forget(j.id);
        assert!(m.is_empty());
        let s = m.summarize(SimTime::from_millis(1000));
        assert_eq!(s.total.released, 0);
        assert_eq!(s.total.deadline_misses, 0);
    }

    #[test]
    fn merged_priority_summaries_add_counts_and_recompute_rates() {
        let tasks = tasks();
        let t = &tasks[0];
        let build = |missed: bool| {
            let mut m = MetricsCollector::new();
            let j = t.job(0);
            m.record_release(&j);
            let finish = if missed {
                j.absolute_deadline + SimDuration::from_millis(1)
            } else {
                j.release + SimDuration::from_millis(1)
            };
            m.record_completion(&j, finish);
            m.summarize(SimTime::from_millis(500)).high
        };
        let on_time = build(false);
        let late = build(true);
        let merged = PrioritySummary::merged([&on_time, &late]);
        assert_eq!(merged.released, 2);
        assert_eq!(merged.completed, 2);
        assert_eq!(merged.deadline_misses, 1);
        assert!((merged.deadline_miss_rate - 0.5).abs() < 1e-9);
        assert_eq!(merged.response.count, 2);
        let empty = PrioritySummary::merged([]);
        assert_eq!(empty.released, 0);
        assert_eq!(empty.deadline_miss_rate, 0.0);
    }

    #[test]
    fn completion_without_release_is_tolerated() {
        let tasks = tasks();
        let j = tasks[0].job(0);
        let mut m = MetricsCollector::new();
        m.record_completion(&j, j.release + SimDuration::from_millis(1));
        let s = m.summarize(SimTime::from_millis(100));
        assert_eq!(s.total.completed, 1);
        assert_eq!(s.total.released, 1);
    }

    #[test]
    fn empty_collector_summarizes_to_zero() {
        let m = MetricsCollector::new();
        assert!(m.is_empty());
        let s = m.summarize(SimTime::from_millis(100));
        assert_eq!(s.total.released, 0);
        assert_eq!(s.throughput_jps, 0.0);
        assert_eq!(s.high.deadline_miss_rate, 0.0);
        assert!(s.gpu_utilization.is_none());
        let s = s.with_gpu_utilization(0.8);
        assert_eq!(s.gpu_utilization, Some(0.8));
    }

    #[test]
    fn unfinished_job_before_deadline_is_not_a_miss() {
        let tasks = tasks();
        let j = tasks[0].job(0);
        let mut m = MetricsCollector::new();
        m.record_release(&j);
        // Horizon before the job's deadline.
        let horizon = j.release + SimDuration::from_millis(1);
        let s = m.summarize(horizon);
        assert_eq!(s.total.deadline_misses, 0);
    }
}
