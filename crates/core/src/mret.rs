//! Maximum Recent Execution Time (MRET) estimation (Sec. III-B2, Eq. 1–2).

use std::collections::{BTreeMap, VecDeque};

use daris_gpu::SimDuration;
use daris_workload::TaskId;

/// Per-stage sliding-window maximum execution-time estimator.
///
/// MRET is the paper's optimistic replacement for WCET: the maximum execution
/// time observed for a stage over the last `ws` executions. Until a stage has
/// been observed at least once, the estimator falls back to the AFET seed
/// supplied at construction (Eq. 10).
///
/// ```
/// use daris_core::MretEstimator;
/// use daris_gpu::SimDuration;
/// use daris_workload::TaskId;
///
/// let mut est = MretEstimator::new(5);
/// let task = TaskId(0);
/// est.seed(task, vec![SimDuration::from_millis(2); 4]);
/// assert_eq!(est.stage_mret(task, 0), SimDuration::from_millis(2));
/// est.record(task, 0, SimDuration::from_millis(3));
/// assert_eq!(est.stage_mret(task, 0), SimDuration::from_millis(3));
/// ```
#[derive(Debug, Clone)]
pub struct MretEstimator {
    window_size: usize,
    seeds: BTreeMap<TaskId, Vec<SimDuration>>,
    windows: BTreeMap<(TaskId, usize), VecDeque<SimDuration>>,
}

impl MretEstimator {
    /// Creates an estimator with window size `ws` (the paper uses 5).
    pub fn new(window_size: usize) -> Self {
        MretEstimator {
            window_size: window_size.max(1),
            seeds: BTreeMap::new(),
            windows: BTreeMap::new(),
        }
    }

    /// The window size in use.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Seeds a task's per-stage estimates with AFET values (used before any
    /// measurement exists, Eq. 10).
    pub fn seed(&mut self, task: TaskId, per_stage_afet: Vec<SimDuration>) {
        self.seeds.insert(task, per_stage_afet);
    }

    /// Number of stages known for a task (from its seed).
    pub fn stage_count(&self, task: TaskId) -> usize {
        self.seeds.get(&task).map(Vec::len).unwrap_or(0)
    }

    /// Records a measured execution time for one stage of one task.
    pub fn record(&mut self, task: TaskId, stage: usize, execution: SimDuration) {
        let window = self.windows.entry((task, stage)).or_default();
        window.push_back(execution);
        while window.len() > self.window_size {
            window.pop_front();
        }
    }

    /// MRET of one stage (Eq. 1): the window maximum, or the AFET seed when
    /// no measurement exists yet, or zero when the task was never seeded.
    pub fn stage_mret(&self, task: TaskId, stage: usize) -> SimDuration {
        if let Some(window) = self.windows.get(&(task, stage)) {
            if let Some(max) = window.iter().max() {
                return *max;
            }
        }
        self.seeds.get(&task).and_then(|s| s.get(stage)).copied().unwrap_or(SimDuration::ZERO)
    }

    /// MRET of a whole task (Eq. 2): the sum of its per-stage MRETs.
    pub fn task_mret(&self, task: TaskId) -> SimDuration {
        (0..self.stage_count(task)).fold(SimDuration::ZERO, |acc, s| acc + self.stage_mret(task, s))
    }

    /// MRET of the stages from `first_stage` to the end of the task
    /// (remaining work estimate for a partially executed job).
    pub fn remaining_mret(&self, task: TaskId, first_stage: usize) -> SimDuration {
        (first_stage..self.stage_count(task))
            .fold(SimDuration::ZERO, |acc, s| acc + self.stage_mret(task, s))
    }

    /// Task utilization `u_i(t) = mret_i(t) / T_i` (Eq. 3 / Eq. 10).
    pub fn task_utilization(&self, task: TaskId, period: SimDuration) -> f64 {
        if period.is_zero() {
            return 0.0;
        }
        self.task_mret(task).as_micros_f64() / period.as_micros_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn seed_is_used_until_first_measurement() {
        let mut est = MretEstimator::new(5);
        let t = TaskId(1);
        est.seed(t, vec![ms(4), ms(6)]);
        assert_eq!(est.stage_count(t), 2);
        assert_eq!(est.stage_mret(t, 0), ms(4));
        assert_eq!(est.task_mret(t), ms(10));
        est.record(t, 0, ms(2));
        // Stage 0 now uses the (smaller) measurement; stage 1 still the seed.
        assert_eq!(est.stage_mret(t, 0), ms(2));
        assert_eq!(est.stage_mret(t, 1), ms(6));
        assert_eq!(est.task_mret(t), ms(8));
    }

    #[test]
    fn window_keeps_only_recent_maximum() {
        let mut est = MretEstimator::new(3);
        let t = TaskId(0);
        est.seed(t, vec![ms(1)]);
        for v in [10, 2, 3, 4] {
            est.record(t, 0, ms(v));
        }
        // The 10 ms sample has slid out of the 3-wide window.
        assert_eq!(est.stage_mret(t, 0), ms(4));
        est.record(t, 0, ms(9));
        assert_eq!(est.stage_mret(t, 0), ms(9));
    }

    #[test]
    fn unknown_task_has_zero_mret() {
        let est = MretEstimator::new(5);
        assert_eq!(est.task_mret(TaskId(9)), SimDuration::ZERO);
        assert_eq!(est.stage_mret(TaskId(9), 2), SimDuration::ZERO);
        assert_eq!(est.stage_count(TaskId(9)), 0);
    }

    #[test]
    fn remaining_mret_and_utilization() {
        let mut est = MretEstimator::new(5);
        let t = TaskId(2);
        est.seed(t, vec![ms(2), ms(3), ms(5)]);
        assert_eq!(est.remaining_mret(t, 1), ms(8));
        assert_eq!(est.remaining_mret(t, 3), SimDuration::ZERO);
        let u = est.task_utilization(t, ms(20));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(est.task_utilization(t, SimDuration::ZERO), 0.0);
        let stages: Vec<_> = (0..est.stage_count(t)).map(|s| est.stage_mret(t, s)).collect();
        assert_eq!(stages, [ms(2), ms(3), ms(5)]);
    }

    #[test]
    fn window_size_is_at_least_one() {
        let est = MretEstimator::new(0);
        assert_eq!(est.window_size(), 1);
    }
}
