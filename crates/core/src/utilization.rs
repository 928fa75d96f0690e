//! Per-context utilization accounting (Eq. 3–7) and the admission test
//! (Eq. 11–12).
//!
//! Only the arithmetic lives here. Which task charges which context, and how
//! much each admitted job charged, is recorded once by the scheduler (its
//! per-task table and its active-job records), which hands every add and
//! remove to these running sums.

use daris_workload::Priority;

/// Running utilization totals of one priority-split class of charges,
/// `[high, low]`, with their membership counts.
///
/// Each add/remove contributes ~1 ulp of rounding error, so a class total is
/// snapped back to exactly 0.0 whenever its membership count drains — the
/// common oscillation (admit/complete around an empty context) cannot
/// accumulate drift.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassSums {
    sum: [f64; 2],
    count: [usize; 2],
}

fn class(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Low => 1,
    }
}

impl ClassSums {
    /// Adds one member charging `util`.
    pub fn add(&mut self, priority: Priority, util: f64) {
        self.sum[class(priority)] += util;
        self.count[class(priority)] += 1;
    }

    /// Removes one member that charged `util`, snapping an emptied class
    /// total back to exactly zero.
    pub fn remove(&mut self, priority: Priority, util: f64) {
        let c = class(priority);
        self.sum[c] -= util;
        self.count[c] -= 1;
        if self.count[c] == 0 {
            self.sum[c] = 0.0;
        }
    }

    /// Moves one member's charge from `prev` to `util` (MRET drift).
    pub fn retune(&mut self, priority: Priority, prev: f64, util: f64) {
        self.sum[class(priority)] += util - prev;
    }

    /// The total of one class.
    pub fn of(&self, priority: Priority) -> f64 {
        self.sum[class(priority)]
    }

    /// The total of both classes.
    pub fn total(&self) -> f64 {
        self.sum[0] + self.sum[1]
    }
}

/// The utilization of one MPS context.
///
/// * `assigned` utilization (Eq. 4–6) covers the tasks homed on the context
///   and is used for offline load balancing;
/// * `active` utilization (Eq. 7) covers the admitted jobs that have not
///   finished, and is what the online admission test charges against.
#[derive(Debug, Clone, Default)]
pub struct ContextLoad {
    /// Streams available in this context (`Ns`), the admission-test capacity.
    streams: u32,
    /// Assigned utilization per class (`U^{h,t}_k`, `U^{l,t}_k`, Eq. 4–5).
    pub assigned: ClassSums,
    /// Active utilization per class (`U^{l,a}_k` for LP, Eq. 7).
    pub active: ClassSums,
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

    /// Remaining utilization available to LP jobs (Eq. 11):
    /// `U^r_k = Ns - U^{h,t}_k`.
    pub fn remaining_for_lp(&self) -> f64 {
        self.capacity() - self.assigned.of(Priority::High)
    }

    /// The LP admission test (Eq. 12): admit a job of utilization `util` iff
    /// `U^{l,a}_k + u_j < U^r_k`.
    pub fn admits_lp(&self, util: f64) -> bool {
        self.active.of(Priority::Low) + util < self.remaining_for_lp()
    }

    /// The HP admission test used by the `Overload+HPA` mode: admit iff the
    /// total active utilization plus the job stays below the context
    /// capacity.
    pub fn admits_hp(&self, util: f64) -> bool {
        self.active.total() + util < self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigned_utilization_by_class() {
        let mut load = ContextLoad::new(2);
        load.assigned.add(Priority::High, 0.3);
        load.assigned.add(Priority::High, 0.2);
        load.assigned.add(Priority::Low, 0.4);
        assert!((load.assigned.of(Priority::High) - 0.5).abs() < 1e-9);
        assert!((load.assigned.of(Priority::Low) - 0.4).abs() < 1e-9);
        assert!((load.assigned.total() - 0.9).abs() < 1e-9);
        load.assigned.remove(Priority::Low, 0.4);
        assert!((load.assigned.total() - 0.5).abs() < 1e-9);
        load.assigned.retune(Priority::High, 0.3, 0.6);
        assert!((load.assigned.of(Priority::High) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn admission_test_matches_equations_11_and_12() {
        let mut load = ContextLoad::new(2);
        // HP tasks reserve 0.8 of the 2.0 capacity.
        load.assigned.add(Priority::High, 0.5);
        load.assigned.add(Priority::High, 0.3);
        assert!((load.remaining_for_lp() - 1.2).abs() < 1e-9);
        // 0.7 active LP: a 0.4 job fits (0.7 + 0.4 < 1.2), a 0.6 job does not.
        load.active.add(Priority::Low, 0.7);
        assert!(load.admits_lp(0.4));
        assert!(!load.admits_lp(0.6));
        // Completion frees the utilization.
        load.active.remove(Priority::Low, 0.7);
        assert!(load.admits_lp(0.6));
        assert_eq!(load.active.of(Priority::Low), 0.0);
    }

    #[test]
    fn hp_admission_uses_total_active_load() {
        let mut load = ContextLoad::new(1);
        load.active.add(Priority::High, 0.6);
        assert!(load.admits_hp(0.3));
        assert!(!load.admits_hp(0.5));
        load.active.add(Priority::Low, 0.3);
        assert!(!load.admits_hp(0.2));
    }

    #[test]
    fn empty_context_admits_up_to_capacity() {
        let load = ContextLoad::new(3);
        assert!(load.admits_lp(2.9));
        assert!(!load.admits_lp(3.0));
        assert_eq!(load.active.of(Priority::High), 0.0);
    }

    #[test]
    fn running_sums_track_reassignments_and_reactivations() {
        let mut load = ContextLoad::new(4);
        // Re-assigning a task across classes moves its whole charge.
        load.assigned.add(Priority::Low, 0.5);
        load.assigned.remove(Priority::Low, 0.5);
        load.assigned.add(Priority::High, 0.2);
        assert_eq!(load.assigned.of(Priority::Low), 0.0);
        assert!((load.assigned.of(Priority::High) - 0.2).abs() < 1e-12);
        // Re-charging an active job replaces the old charge.
        load.active.add(Priority::Low, 0.3);
        load.active.remove(Priority::Low, 0.3);
        load.active.add(Priority::Low, 0.7);
        assert!((load.active.of(Priority::Low) - 0.7).abs() < 1e-12);
        // A retune that drifts a charge up and back leaves the class total.
        load.active.retune(Priority::Low, 0.7, 0.9);
        load.active.retune(Priority::Low, 0.9, 0.7);
        assert!((load.active.of(Priority::Low) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn drained_class_totals_snap_back_to_exact_zero() {
        // Values whose sum is inexact in binary float: after add/remove the
        // incremental total would be a few ulp off zero, which could flip a
        // threshold comparison; draining the class must restore exact 0.0.
        let mut load = ContextLoad::new(2);
        let util = |i: u64| 0.1 + (i as f64) * 1e-3;
        for i in 0..1000u64 {
            load.active.add(Priority::Low, util(i));
        }
        for i in 0..1000u64 {
            load.active.remove(Priority::Low, util(i));
        }
        assert_eq!(load.active.of(Priority::Low), 0.0, "no residual drift");
        load.assigned.add(Priority::High, 0.3);
        load.assigned.add(Priority::High, 0.0403);
        load.assigned.remove(Priority::High, 0.3);
        load.assigned.remove(Priority::High, 0.0403);
        assert_eq!(load.assigned.of(Priority::High), 0.0);
        // An empty context admits exactly up to capacity again.
        assert!(load.admits_lp(1.9999999999));
    }
}
