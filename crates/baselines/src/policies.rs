//! Dispatch queues: the part of a policy that decides what runs next.
//!
//! Each baseline scheduler is [`BaselineScheduler`](crate::BaselineScheduler)
//! — the shared device harness — plus one [`DispatchQueue`] implementation
//! deciding which queued jobs run next on an idle slot. Everything else
//! (event loop, metrics, completion handling) is common, so a comparison
//! between two baselines compares queueing policies, nothing else. Batching
//! and GSlice share [`BatchQueue`] and differ only in partitions and
//! [`Staleness`]. Items are `pub` only where a public alias or bound names
//! them; the module is private.

use std::collections::{BTreeMap, VecDeque};

use daris_gpu::SimTime;
use daris_models::DnnKind;
use daris_workload::{Job, JobId, Priority, TaskSpec};

/// A set of jobs submitted to the device as one work item.
#[derive(Debug)]
pub struct DispatchBatch {
    /// The jobs fused into the item (all of one model for batched policies).
    pub jobs: Vec<Job>,
    /// The inference count submitted to the device. Whole-job policies pass
    /// the job's own batch size; batching policies pass the fused job count.
    pub batch: u32,
}

impl DispatchBatch {
    fn single(job: Job) -> Self {
        DispatchBatch { batch: job.batch_size, jobs: vec![job] }
    }

    fn fused(jobs: Vec<Job>) -> Self {
        DispatchBatch { batch: jobs.len() as u32, jobs }
    }
}

/// The pluggable queueing policy of a `BaselineScheduler`.
///
/// `slot` indexes the harness's dispatch slots (one CUDA stream each;
/// partitioned layouts give every slot its own context). Policies with one
/// global queue ignore it; partition-pinned policies key their queues by it.
pub trait DispatchQueue: std::fmt::Debug + Send {
    /// Queues a released (always-admitted) job.
    fn push(&mut self, job: Job);

    /// The next batch to run on idle `slot` at `now`, or `None` to leave it
    /// idle.
    fn pop(&mut self, slot: usize, now: SimTime) -> Option<DispatchBatch>;

    /// Removes a queued job by id (cross-device migration support).
    fn withdraw(&mut self, id: JobId) -> Option<Job>;

    /// Number of queued jobs.
    fn queued(&self) -> usize;

    /// Queued jobs as `(EDF deadline, id)` pairs, in no particular order.
    fn queued_jobs(&self) -> Vec<(SimTime, JobId)>;

    /// Observes a task of the set, placed at build or adopted as a guest
    /// (timeout bookkeeping).
    fn on_task_added(&mut self, _spec: &TaskSpec) {}
}

fn withdraw_from(queue: &mut VecDeque<Job>, id: JobId) -> Option<Job> {
    let at = queue.iter().position(|j| j.id == id)?;
    queue.remove(at)
}

/// Strict release-order FIFO over one global queue, one whole job per slot —
/// the RTGPU-style multi-stream baseline (and, with one slot, the
/// single-tenant lower baseline).
#[derive(Debug, Default, Clone)]
pub struct FifoQueue {
    queue: VecDeque<Job>,
}

impl DispatchQueue for FifoQueue {
    fn push(&mut self, job: Job) {
        self.queue.push_back(job);
    }

    fn pop(&mut self, _slot: usize, _now: SimTime) -> Option<DispatchBatch> {
        self.queue.pop_front().map(DispatchBatch::single)
    }

    fn withdraw(&mut self, id: JobId) -> Option<Job> {
        withdraw_from(&mut self.queue, id)
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn queued_jobs(&self) -> Vec<(SimTime, JobId)> {
        self.queue.iter().map(|j| (j.absolute_deadline, j.id)).collect()
    }
}

/// Global EDF without stage preemption: whole jobs ordered by absolute
/// deadline, ties broken by job id. Deadline-aware but commits a stream to
/// the entire inference, so an urgent release cannot preempt a long-running
/// low-urgency job — the design point DARIS's staging improves on.
#[derive(Debug, Default, Clone)]
pub struct EdfQueue {
    queue: BTreeMap<(SimTime, JobId), Job>,
}

impl DispatchQueue for EdfQueue {
    fn push(&mut self, job: Job) {
        self.queue.insert((job.absolute_deadline, job.id), job);
    }

    fn pop(&mut self, _slot: usize, _now: SimTime) -> Option<DispatchBatch> {
        self.queue.pop_first().map(|(_, job)| DispatchBatch::single(job))
    }

    fn withdraw(&mut self, id: JobId) -> Option<Job> {
        let key = self.queue.keys().find(|(_, j)| *j == id).copied()?;
        self.queue.remove(&key)
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn queued_jobs(&self) -> Vec<(SimTime, JobId)> {
        self.queue.keys().map(|(d, j)| (*d, *j)).collect()
    }
}

/// Priority-only: high-priority jobs strictly before low-priority ones, FIFO
/// within each class, whole jobs, no batching and no deadline awareness —
/// what priority scheduling buys *without* DARIS's admission test, staging
/// or virtual deadlines.
#[derive(Debug, Default, Clone)]
pub struct PriorityOnlyQueue {
    high: VecDeque<Job>,
    low: VecDeque<Job>,
}

impl DispatchQueue for PriorityOnlyQueue {
    fn push(&mut self, job: Job) {
        match job.priority {
            Priority::High => self.high.push_back(job),
            Priority::Low => self.low.push_back(job),
        }
    }

    fn pop(&mut self, _slot: usize, _now: SimTime) -> Option<DispatchBatch> {
        self.high.pop_front().or_else(|| self.low.pop_front()).map(DispatchBatch::single)
    }

    fn withdraw(&mut self, id: JobId) -> Option<Job> {
        withdraw_from(&mut self.high, id).or_else(|| withdraw_from(&mut self.low, id))
    }

    fn queued(&self) -> usize {
        self.high.len() + self.low.len()
    }

    fn queued_jobs(&self) -> Vec<(SimTime, JobId)> {
        self.high.iter().chain(self.low.iter()).map(|j| (j.absolute_deadline, j.id)).collect()
    }
}

/// When a partial batch flushes anyway, so an underloaded model cannot
/// starve.
#[derive(Debug)]
pub(crate) enum Staleness {
    /// Pure batching: once the head has waited half the shortest period of
    /// its model's tasks (µs per model, kept by `on_task_added`).
    ShortestPeriod(BTreeMap<DnnKind, f64>),
    /// GSlice: once the head has waited over half its relative deadline.
    HalfDeadline,
}

impl Staleness {
    fn stale(&self, kind: DnnKind, head: &Job, waited_us: f64) -> bool {
        match self {
            Staleness::ShortestPeriod(min_period_us) => {
                waited_us >= 0.5 * min_period_us.get(&kind).copied().unwrap_or(f64::MAX)
            }
            Staleness::HalfDeadline => {
                waited_us > 0.5 * (head.absolute_deadline - head.release).as_micros_f64()
            }
        }
    }
}

/// Per-model batching on partitions, one per slot: tasks pin to a partition
/// round-robin by task id, and each partition flushes the most urgent
/// full-or-stale model queue. Pure batching (the paper's upper baseline) is
/// one partition; GSlice has one per SM partition.
#[derive(Debug)]
pub(crate) struct BatchQueue {
    partitions: Vec<BTreeMap<DnnKind, VecDeque<Job>>>,
    /// Overrides of the paper's per-model batch sizes
    /// ([`DnnKind::paper_batch_size`]).
    batch_size: BTreeMap<DnnKind, u32>,
    staleness: Staleness,
}

impl BatchQueue {
    pub fn new(partitions: usize, batch_size: BTreeMap<DnnKind, u32>, stale: Staleness) -> Self {
        let partitions = (0..partitions.max(1)).map(|_| BTreeMap::new()).collect();
        BatchQueue { partitions, batch_size, staleness: stale }
    }
}

impl DispatchQueue for BatchQueue {
    fn push(&mut self, job: Job) {
        let partition = job.id.task.index() % self.partitions.len();
        self.partitions[partition].entry(job.model).or_default().push_back(job);
    }

    /// Among the partition's models whose batch is full or whose head job is
    /// stale, flushes the one whose head has the earliest deadline, drained
    /// up to its batch size.
    fn pop(&mut self, slot: usize, now: SimTime) -> Option<DispatchBatch> {
        let pending = self.partitions.get_mut(slot)?;
        let target = |kind: &DnnKind| {
            self.batch_size.get(kind).copied().unwrap_or_else(|| kind.paper_batch_size()) as usize
        };
        let now_us = now.as_micros_f64();
        let mut best: Option<(DnnKind, f64)> = None;
        for (kind, queue) in pending.iter() {
            let Some(head) = queue.front() else { continue };
            let waited = now_us - head.release.as_micros_f64();
            if queue.len() >= target(kind) || self.staleness.stale(*kind, head, waited) {
                let urgency = head.absolute_deadline.as_micros_f64();
                if best.map(|(_, u)| urgency < u).unwrap_or(true) {
                    best = Some((*kind, urgency));
                }
            }
        }
        let (kind, _) = best?;
        let queue = pending.get_mut(&kind).expect("selected kind has a queue");
        let take = queue.len().min(target(&kind));
        Some(DispatchBatch::fused(queue.drain(..take).collect()))
    }

    fn withdraw(&mut self, id: JobId) -> Option<Job> {
        self.partitions.iter_mut().flat_map(|p| p.values_mut()).find_map(|q| withdraw_from(q, id))
    }

    fn queued(&self) -> usize {
        self.partitions.iter().flat_map(|p| p.values()).map(VecDeque::len).sum()
    }

    fn queued_jobs(&self) -> Vec<(SimTime, JobId)> {
        self.partitions
            .iter()
            .flat_map(|p| p.values())
            .flat_map(|q| q.iter().map(|j| (j.absolute_deadline, j.id)))
            .collect()
    }

    fn on_task_added(&mut self, spec: &TaskSpec) {
        if let Staleness::ShortestPeriod(min_period_us) = &mut self.staleness {
            let period = spec.period.as_micros_f64();
            min_period_us.entry(spec.model).and_modify(|p| *p = p.min(period)).or_insert(period);
        }
    }
}
