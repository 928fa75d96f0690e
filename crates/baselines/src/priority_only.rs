//! Priority-only scheduling: classes, but no batching, staging or admission.

use crate::policies::PriorityOnlyQueue;
use crate::server::{Server, StreamQueue, Streams};

/// Strict two-level priority scheduling over whole jobs: high-priority
/// releases always dispatch before low-priority ones, FIFO within each
/// class, on `streams` parallel streams.
///
/// This is what "priority scheduling" buys *without* the rest of DARIS — no
/// admission test (an overload degrades everyone), no batching, no staging,
/// no deadline ordering within a class. Comparing it against DARIS isolates
/// the value of the admission + virtual-deadline machinery from the value of
/// mere class separation.
pub type PriorityOnlyServer = Server<Streams<PriorityOnlyQueue>>;

impl StreamQueue for PriorityOnlyQueue {
    const LABEL: &'static str = "PriorityOnly";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::run_periodic;
    use daris_gpu::SimTime;
    use daris_models::DnnKind;
    use daris_workload::{Priority, TaskSet};

    #[test]
    fn priority_only_protects_hp_relative_to_fifo() {
        // Class separation should cut the HP miss rate relative to blind
        // FIFO on the same overloaded set, at the expense of LP jobs.
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let horizon = SimTime::from_millis(300);
        let prio = run_periodic(PriorityOnlyServer::new(4).scheduler(&taskset), horizon);
        let fifo = run_periodic(crate::FifoMultiStreamServer::new(4).scheduler(&taskset), horizon);
        assert!(
            prio.of(Priority::High).deadline_miss_rate
                <= fifo.of(Priority::High).deadline_miss_rate,
            "priority-only HP {} vs FIFO HP {}",
            prio.of(Priority::High).deadline_miss_rate,
            fifo.of(Priority::High).deadline_miss_rate
        );
        assert_eq!(prio.total.rejected, 0, "no admission control");
    }

    #[test]
    fn low_priority_still_runs_when_high_is_idle() {
        let light: TaskSet =
            TaskSet::table2(DnnKind::UNet).tasks().iter().take(3).cloned().collect();
        let summary =
            run_periodic(PriorityOnlyServer::new(2).scheduler(&light), SimTime::from_millis(300));
        assert!(
            summary.of(Priority::Low).completed > 0 || summary.of(Priority::High).completed > 0
        );
        assert_eq!(summary.total.deadline_misses, 0);
    }
}
