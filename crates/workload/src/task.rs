//! Tasks and jobs: the paper's task model (Sec. III-A).

use std::fmt;

use daris_gpu::{SimDuration, SimTime};
use daris_models::DnnKind;

/// Task priority level. DARIS supports exactly two (Sec. III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// High-priority: never rejected by default, scheduled first.
    High,
    /// Low-priority: subject to the admission test, may migrate or be
    /// rejected.
    Low,
}

impl Priority {
    /// Both levels, high first.
    pub fn both() -> [Priority; 2] {
        [Priority::High, Priority::Low]
    }

    /// Whether this is the high level.
    pub fn is_high(self) -> bool {
        matches!(self, Priority::High)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::High => f.write_str("HP"),
            Priority::Low => f.write_str("LP"),
        }
    }
}

/// Identifier of a task within a task set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index into the owning task set.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// Identifier of one job (one release) of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId {
    /// The owning task.
    pub task: TaskId,
    /// Zero-based release index.
    pub release_index: u64,
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.task, self.release_index)
    }
}

/// A periodic DNN inference task `τ_i(T_i, D_i, p_i)`.
///
/// The MRET and context fields of the paper's task tuple are *scheduler
/// state*, not workload parameters, and live in `daris-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task identifier (unique within its task set).
    pub id: TaskId,
    /// Human-readable name, e.g. `"resnet18-hp-03"`.
    pub name: String,
    /// The DNN this task runs.
    pub model: DnnKind,
    /// Period `T_i`.
    pub period: SimDuration,
    /// Relative deadline `D_i` (the paper sets `D_i = T_i`).
    pub relative_deadline: SimDuration,
    /// Priority level `p_i`.
    pub priority: Priority,
    /// Input batch size (1 in the main experiments, 4/2/8 in Sec. VI-H).
    pub batch_size: u32,
    /// Release offset of the first job.
    pub phase: SimDuration,
}

impl TaskSpec {
    /// Creates a task with deadline equal to period, phase 0 and batch 1.
    pub fn new(
        id: TaskId,
        name: impl Into<String>,
        model: DnnKind,
        period: SimDuration,
        priority: Priority,
    ) -> Self {
        TaskSpec {
            id,
            name: name.into(),
            model,
            period,
            relative_deadline: period,
            priority,
            batch_size: 1,
            phase: SimDuration::ZERO,
        }
    }

    /// Sets the batch size (Sec. VI-H experiments).
    pub fn with_batch_size(mut self, batch: u32) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Job release rate in jobs per second.
    pub fn jobs_per_second(&self) -> f64 {
        1e6 / self.period.as_micros_f64()
    }

    /// The `release_index`-th job of this task.
    pub fn job(&self, release_index: u64) -> Job {
        let release = SimTime::ZERO + self.phase + self.period * release_index;
        Job {
            id: JobId { task: self.id, release_index },
            model: self.model,
            priority: self.priority,
            batch_size: self.batch_size,
            release,
            absolute_deadline: release + self.relative_deadline,
        }
    }
}

/// One release of a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Job identifier.
    pub id: JobId,
    /// The DNN to run.
    pub model: DnnKind,
    /// Priority inherited from the task.
    pub priority: Priority,
    /// Batch size inherited from the task.
    pub batch_size: u32,
    /// Release time.
    pub release: SimTime,
    /// Absolute deadline (`release + D_i`).
    pub absolute_deadline: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> TaskSpec {
        TaskSpec::new(
            TaskId(3),
            "resnet18-hp-03",
            DnnKind::ResNet18,
            SimDuration::from_millis_f64(33.333),
            Priority::High,
        )
    }

    #[test]
    fn deadline_defaults_to_period() {
        let t = task();
        assert_eq!(t.relative_deadline, t.period);
        assert!((t.jobs_per_second() - 30.0).abs() < 0.01);
        assert_eq!(t.batch_size, 1);
    }

    #[test]
    fn jobs_are_released_periodically() {
        let mut t = task();
        t.phase = SimDuration::from_millis(5);
        let j0 = t.job(0);
        let j3 = t.job(3);
        assert_eq!(j0.release, SimTime::from_millis(5));
        assert_eq!(j3.release.duration_since(j0.release), t.period * 3);
        assert_eq!(j3.absolute_deadline, j3.release + t.period);
        assert_eq!(j3.id.release_index, 3);
        assert_eq!(j3.id.task, TaskId(3));
    }

    #[test]
    fn deadline_check_and_response_time() {
        let t = task();
        let j = t.job(0);
        assert_eq!(j.absolute_deadline, j.release + t.relative_deadline);
    }

    #[test]
    fn priority_helpers() {
        assert!(Priority::High.is_high());
        assert!(!Priority::Low.is_high());
        assert_eq!(Priority::both(), [Priority::High, Priority::Low]);
        assert_eq!(Priority::High.to_string(), "HP");
        assert_eq!(format!("{}", JobId { task: TaskId(2), release_index: 7 }), "τ2#7");
    }

    #[test]
    fn batch_size_is_at_least_one() {
        let t = task().with_batch_size(0);
        assert_eq!(t.batch_size, 1);
        assert_eq!(t.job(0).batch_size, 1);
    }
}
