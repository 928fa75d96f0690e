//! Global EDF without stage preemption: deadline-aware, but whole-job.

use crate::policies::EdfQueue;
use crate::server::{Server, StreamQueue, Streams};

/// Global earliest-deadline-first over whole jobs: every release enters one
/// deadline-ordered queue and the most urgent job takes the next idle
/// stream, committing it for the entire inference.
///
/// This is the scheduler the paper implies when it motivates *staging*: EDF
/// picks the right job, but without stage-level preemption points an urgent
/// release arriving just after a long job started must wait the job out.
/// Comparing this against DARIS isolates the value of stage-boundary
/// preemption from the value of deadline ordering. No admission control, no
/// priorities beyond the deadline itself, no batching.
pub type GlobalEdfServer = Server<Streams<EdfQueue>>;

impl StreamQueue for EdfQueue {
    const LABEL: &'static str = "GlobalEDF";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::run_periodic;
    use daris_gpu::SimTime;
    use daris_models::DnnKind;
    use daris_workload::TaskSet;

    #[test]
    fn edf_beats_fifo_on_deadline_misses_under_mixed_urgency() {
        // Same device, same streams, same workload: ordering by deadline
        // instead of release order should not *increase* the miss rate.
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let horizon = SimTime::from_millis(300);
        let edf = run_periodic(GlobalEdfServer::new(4).scheduler(&taskset), horizon);
        let fifo = run_periodic(crate::FifoMultiStreamServer::new(4).scheduler(&taskset), horizon);
        assert!(
            edf.total.deadline_miss_rate <= fifo.total.deadline_miss_rate + 0.05,
            "EDF {} vs FIFO {}",
            edf.total.deadline_miss_rate,
            fifo.total.deadline_miss_rate
        );
        assert_eq!(edf.total.rejected, 0, "no admission control");
    }

    #[test]
    fn underloaded_set_is_served_without_misses() {
        let light: TaskSet =
            TaskSet::table2(DnnKind::UNet).tasks().iter().take(3).cloned().collect();
        let summary =
            run_periodic(GlobalEdfServer::new(2).scheduler(&light), SimTime::from_millis(300));
        assert!(summary.total.completed > 10);
        assert_eq!(summary.total.deadline_misses, 0);
    }
}
