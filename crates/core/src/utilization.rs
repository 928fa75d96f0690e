//! Per-context utilization accounting (Eq. 3–7) and the admission test
//! (Eq. 11–12).

use std::collections::BTreeMap;

use daris_workload::{JobId, Priority, TaskId};

/// Tracks the utilization of one MPS context.
///
/// * `assigned` utilization (Eq. 4–6) covers every task assigned to the
///   context and is used for offline load balancing;
/// * `active` low-priority utilization (Eq. 7) covers only LP jobs that have
///   been admitted and have not finished, and is what the online admission
///   test charges against.
///
/// Class totals are maintained incrementally (updated on every assign /
/// activate / deactivate) so the admission test and the cluster load signal
/// are O(1) instead of a map scan per query — the admission path is the
/// dominant serial cost in overloaded fleets. Membership maps are `BTreeMap`s
/// so any residual iteration is in deterministic key order.
#[derive(Debug, Clone, Default)]
pub struct ContextLoad {
    /// Streams available in this context (`Ns`), the admission-test capacity.
    streams: u32,
    /// Assigned utilization per task (both priorities), keyed by task.
    assigned: BTreeMap<TaskId, (Priority, f64)>,
    /// Active (admitted, unfinished) jobs and the utilization they charge.
    active: BTreeMap<JobId, (Priority, f64)>,
    /// Running totals: `[high, low]` assigned and active utilization. Each
    /// add/remove contributes ~1 ulp of rounding error, so a class total is
    /// snapped back to exactly 0.0 whenever its membership count drains —
    /// the common oscillation (admit/complete around an empty context)
    /// cannot accumulate drift.
    assigned_sum: [f64; 2],
    active_sum: [f64; 2],
    /// Membership counts per class, `[high, low]`.
    assigned_count: [usize; 2],
    active_count: [usize; 2],
}

fn class(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Low => 1,
    }
}

impl ContextLoad {
    /// Creates a load tracker for a context with `streams` streams.
    pub fn new(streams: u32) -> Self {
        ContextLoad { streams, ..ContextLoad::default() }
    }

    /// The context capacity used by the admission test (`Ns`).
    pub fn capacity(&self) -> f64 {
        f64::from(self.streams)
    }

    /// Assigns a task to this context with utilization `util` (offline phase
    /// or migration bookkeeping).
    pub fn assign_task(&mut self, task: TaskId, priority: Priority, util: f64) {
        if let Some((prev_priority, prev_util)) = self.assigned.insert(task, (priority, util)) {
            self.assigned_sum[class(prev_priority)] -= prev_util;
            self.assigned_count[class(prev_priority)] -= 1;
            self.snap_assigned(prev_priority);
        }
        self.assigned_sum[class(priority)] += util;
        self.assigned_count[class(priority)] += 1;
    }

    /// Removes a task assignment (migration away from this context).
    pub fn unassign_task(&mut self, task: TaskId) {
        if let Some((priority, util)) = self.assigned.remove(&task) {
            self.assigned_sum[class(priority)] -= util;
            self.assigned_count[class(priority)] -= 1;
            self.snap_assigned(priority);
        }
    }

    /// Snaps an emptied class total back to exactly zero (rounding drift
    /// from incremental add/remove would otherwise survive the drain).
    fn snap_assigned(&mut self, priority: Priority) {
        if self.assigned_count[class(priority)] == 0 {
            self.assigned_sum[class(priority)] = 0.0;
        }
    }

    /// The active-class counterpart of [`snap_assigned`](Self::snap_assigned).
    fn snap_active(&mut self, priority: Priority) {
        if self.active_count[class(priority)] == 0 {
            self.active_sum[class(priority)] = 0.0;
        }
    }

    /// Updates the recorded utilization of an assigned task (MRET drift).
    pub fn update_task_util(&mut self, task: TaskId, util: f64) {
        if let Some(entry) = self.assigned.get_mut(&task) {
            let (priority, prev) = *entry;
            entry.1 = util;
            self.assigned_sum[class(priority)] += util - prev;
        }
    }

    /// Total assigned utilization of one priority class
    /// (`U^{h,t}_k` / `U^{l,t}_k`, Eq. 4–5).
    pub fn assigned_util(&self, priority: Priority) -> f64 {
        self.assigned_sum[class(priority)]
    }

    /// Total assigned utilization (Eq. 6).
    pub fn total_util(&self) -> f64 {
        self.assigned_sum[0] + self.assigned_sum[1]
    }

    /// Registers an admitted job as active, charging `util`.
    pub fn activate_job(&mut self, job: JobId, priority: Priority, util: f64) {
        if let Some((prev_priority, prev_util)) = self.active.insert(job, (priority, util)) {
            self.active_sum[class(prev_priority)] -= prev_util;
            self.active_count[class(prev_priority)] -= 1;
            self.snap_active(prev_priority);
        }
        self.active_sum[class(priority)] += util;
        self.active_count[class(priority)] += 1;
    }

    /// Releases an active job's utilization (completion or abandonment).
    pub fn deactivate_job(&mut self, job: JobId) {
        if let Some((priority, util)) = self.active.remove(&job) {
            self.active_sum[class(priority)] -= util;
            self.active_count[class(priority)] -= 1;
            self.snap_active(priority);
        }
    }

    /// Active utilization of one priority class (`U^{l,a}_k` for LP, Eq. 7).
    pub fn active_util(&self, priority: Priority) -> f64 {
        self.active_sum[class(priority)]
    }

    /// Number of active jobs of a priority class.
    pub fn active_jobs(&self, priority: Priority) -> usize {
        self.active_count[class(priority)]
    }

    /// Remaining utilization available to LP jobs (Eq. 11):
    /// `U^r_k = Ns - U^{h,t}_k`.
    pub fn remaining_for_lp(&self) -> f64 {
        self.capacity() - self.assigned_util(Priority::High)
    }

    /// The LP admission test (Eq. 12): admit a job of utilization `util` iff
    /// `U^{l,a}_k + u_j < U^r_k`.
    pub fn admits_lp(&self, util: f64) -> bool {
        self.active_util(Priority::Low) + util < self.remaining_for_lp()
    }

    /// The HP admission test used by the `Overload+HPA` mode: admit iff the
    /// total active utilization plus the job stays below the context
    /// capacity.
    pub fn admits_hp(&self, util: f64) -> bool {
        self.active_util(Priority::High) + self.active_util(Priority::Low) + util < self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(task: u32, idx: u64) -> JobId {
        JobId { task: TaskId(task), release_index: idx }
    }

    #[test]
    fn assigned_utilization_by_class() {
        let mut load = ContextLoad::new(2);
        load.assign_task(TaskId(0), Priority::High, 0.3);
        load.assign_task(TaskId(1), Priority::High, 0.2);
        load.assign_task(TaskId(2), Priority::Low, 0.4);
        assert!((load.assigned_util(Priority::High) - 0.5).abs() < 1e-9);
        assert!((load.assigned_util(Priority::Low) - 0.4).abs() < 1e-9);
        assert!((load.total_util() - 0.9).abs() < 1e-9);
        load.unassign_task(TaskId(2));
        assert!((load.total_util() - 0.5).abs() < 1e-9);
        load.update_task_util(TaskId(0), 0.6);
        assert!((load.assigned_util(Priority::High) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn admission_test_matches_equations_11_and_12() {
        let mut load = ContextLoad::new(2);
        // HP tasks reserve 0.8 of the 2.0 capacity.
        load.assign_task(TaskId(0), Priority::High, 0.5);
        load.assign_task(TaskId(1), Priority::High, 0.3);
        assert!((load.remaining_for_lp() - 1.2).abs() < 1e-9);
        // 0.7 active LP: a 0.4 job fits (0.7 + 0.4 < 1.2), a 0.6 job does not.
        load.activate_job(job(5, 0), Priority::Low, 0.7);
        assert!(load.admits_lp(0.4));
        assert!(!load.admits_lp(0.6));
        // Completion frees the utilization.
        load.deactivate_job(job(5, 0));
        assert!(load.admits_lp(0.6));
        assert_eq!(load.active_jobs(Priority::Low), 0);
    }

    #[test]
    fn hp_admission_uses_total_active_load() {
        let mut load = ContextLoad::new(1);
        load.activate_job(job(0, 0), Priority::High, 0.6);
        assert!(load.admits_hp(0.3));
        assert!(!load.admits_hp(0.5));
        load.activate_job(job(1, 0), Priority::Low, 0.3);
        assert!(!load.admits_hp(0.2));
    }

    #[test]
    fn empty_context_admits_up_to_capacity() {
        let load = ContextLoad::new(3);
        assert!(load.admits_lp(2.9));
        assert!(!load.admits_lp(3.0));
        assert_eq!(load.active_jobs(Priority::High), 0);
    }

    #[test]
    fn running_sums_track_reassignments_and_reactivations() {
        let mut load = ContextLoad::new(4);
        // Re-assigning a task replaces its charge instead of double-counting.
        load.assign_task(TaskId(0), Priority::Low, 0.5);
        load.assign_task(TaskId(0), Priority::High, 0.2);
        assert!((load.assigned_util(Priority::Low) - 0.0).abs() < 1e-12);
        assert!((load.assigned_util(Priority::High) - 0.2).abs() < 1e-12);
        // Re-activating a job likewise replaces the old charge.
        load.activate_job(job(0, 0), Priority::Low, 0.3);
        load.activate_job(job(0, 0), Priority::Low, 0.7);
        assert!((load.active_util(Priority::Low) - 0.7).abs() < 1e-12);
        assert_eq!(load.active_jobs(Priority::Low), 1);
        // Deactivating an unknown job is a no-op.
        load.deactivate_job(job(9, 9));
        assert_eq!(load.active_jobs(Priority::Low), 1);
    }

    #[test]
    fn drained_class_totals_snap_back_to_exact_zero() {
        // Values whose sum is inexact in binary float: after add/remove the
        // incremental total would be a few ulp off zero, which could flip a
        // threshold comparison; draining the class must restore exact 0.0.
        let mut load = ContextLoad::new(2);
        for i in 0..1000u64 {
            load.activate_job(job(0, i), Priority::Low, 0.1 + (i as f64) * 1e-3);
        }
        for i in 0..1000u64 {
            load.deactivate_job(job(0, i));
        }
        assert_eq!(load.active_util(Priority::Low), 0.0, "no residual drift");
        assert_eq!(load.active_jobs(Priority::Low), 0);
        load.assign_task(TaskId(1), Priority::High, 0.3);
        load.assign_task(TaskId(2), Priority::High, 0.0403);
        load.unassign_task(TaskId(1));
        load.unassign_task(TaskId(2));
        assert_eq!(load.assigned_util(Priority::High), 0.0);
        // An empty context admits exactly up to capacity again.
        assert!(load.admits_lp(1.9999999999));
    }
}
