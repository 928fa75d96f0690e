//! An RTGPU-style multi-stream FIFO baseline: concurrency without priorities,
//! staging or admission control.

use crate::policies::FifoQueue;
use crate::server::{Server, StreamQueue, Streams};

/// Serves jobs on `streams` CUDA streams of a single full-GPU context, in
/// strict release order, one whole job per stream, with no priorities and no
/// admission test — the behaviour the paper attributes to schedulers such as
/// RTGPU that "lack task prioritization".
pub type FifoMultiStreamServer = Server<Streams<FifoQueue>>;

impl StreamQueue for FifoQueue {
    const LABEL: &'static str = "FIFO";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::run_periodic;
    use daris_core::Scheduler;
    use daris_gpu::{GpuSpec, SimTime};
    use daris_models::DnnKind;
    use daris_workload::{Priority, TaskSet};

    #[test]
    fn more_streams_increase_throughput_on_the_overloaded_set() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let horizon = SimTime::from_millis(250);
        let one = run_periodic(FifoMultiStreamServer::new(1).scheduler(&taskset), horizon);
        let six = run_periodic(FifoMultiStreamServer::new(6).scheduler(&taskset), horizon);
        assert!(
            six.throughput_jps > 1.2 * one.throughput_jps,
            "6 streams {} vs 1 stream {}",
            six.throughput_jps,
            one.throughput_jps
        );
    }

    #[test]
    fn fifo_treats_priorities_equally() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let summary = run_periodic(
            FifoMultiStreamServer::new(4).scheduler(&taskset),
            SimTime::from_millis(300),
        );
        // Under 150 % overload with no prioritization both classes miss
        // deadlines at comparable rates (the paper reports up to 11 % overall
        // misses for RTGPU; our overload level is far harsher).
        let hp = summary.of(Priority::High).deadline_miss_rate;
        let lp = summary.of(Priority::Low).deadline_miss_rate;
        assert!(hp > 0.05, "HP DMR {hp}");
        assert!(lp > 0.05, "LP DMR {lp}");
        assert_eq!(summary.total.rejected, 0);
    }

    #[test]
    fn streams_accessor_and_custom_gpu() {
        let server = FifoMultiStreamServer::new(0).with_gpu(GpuSpec::embedded_xavier_like());
        let scheduler = server.scheduler(&TaskSet::table2(DnnKind::ResNet18)).unwrap();
        assert_eq!(scheduler.idle_stream_count(), 1, "zero streams clamp to one");
        assert_eq!(scheduler.gpu().spec(), &GpuSpec::embedded_xavier_like());
    }
}
