//! A GSlice-like controlled spatial-sharing baseline (Sec. VI-B).

use std::collections::BTreeMap;

use crate::policies::{BatchQueue, DispatchQueue, Staleness};
use crate::server::{Policy, Server};

/// A GSlice-style inference server: the GPU is carved into static,
/// non-overlapping SM partitions (no oversubscription), each partition serves
/// its tenants with batched FIFO execution, and there is no priority handling
/// or admission control.
///
/// This is the state-of-the-art spatial-sharing point the paper compares
/// against in Sec. VI-B (GSlice improves ~3.5 % over pure batching; DARIS
/// improves ~15 %).
pub type GsliceServer = Server<Gslice>;

/// `partitions` equal contexts of one stream each; tasks pin to them
/// round-robin by task id (GSlice pins tenants to slices).
#[derive(Debug, Clone)]
pub struct Gslice {
    partitions: u32,
}

impl GsliceServer {
    /// Creates a server with `partitions` equal SM partitions on the paper's
    /// RTX 2080 Ti.
    pub fn new(partitions: u32) -> Self {
        Server::of(Gslice { partitions: partitions.max(1) })
    }
}

impl Policy for Gslice {
    fn label(&self) -> String {
        format!("GSlice p={}", self.partitions)
    }

    fn layout(&self, sm_count: u32) -> (u32, u32, u32) {
        (self.partitions, (sm_count / self.partitions).max(2), 1)
    }

    fn queue(&self) -> Box<dyn DispatchQueue> {
        let partitions = self.partitions as usize;
        Box::new(BatchQueue::new(partitions, BTreeMap::new(), Staleness::HalfDeadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::run_periodic;
    use daris_core::Scheduler;
    use daris_gpu::SimTime;
    use daris_models::DnnKind;
    use daris_workload::TaskSet;

    #[test]
    fn gslice_improves_modestly_over_pure_batching_for_resnet50() {
        // Sec. VI-B: GSlice gains a few percent over batching; DARIS gains
        // far more. Here we check the GSlice side of that comparison.
        let taskset = TaskSet::resnet50_comparison();
        let horizon = SimTime::from_millis(400);
        let batching = run_periodic(crate::BatchingServer::new().scheduler(&taskset), horizon);
        let gslice = run_periodic(GsliceServer::new(2).scheduler(&taskset), horizon);
        let gain = gslice.throughput_jps / batching.throughput_jps;
        assert!(gain > 0.95, "GSlice should not collapse: gain {gain}");
        assert!(gain < 1.35, "GSlice should not dominate batching by much: gain {gain}");
    }

    #[test]
    fn partitions_are_static_and_non_oversubscribed() {
        let server = GsliceServer::new(4);
        let taskset = TaskSet::table2(DnnKind::UNet);
        let scheduler = server.scheduler(&taskset).unwrap();
        assert_eq!(scheduler.idle_stream_count(), 4, "one stream per partition");
        assert_eq!(scheduler.gpu().context_count(), 4, "one context per partition");
        let summary = run_periodic(server.scheduler(&taskset), SimTime::from_millis(200));
        assert!(summary.total.completed > 10);
        assert_eq!(summary.total.rejected, 0);
    }

    #[test]
    fn single_partition_degenerates_to_batching_behaviour() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let horizon = SimTime::from_millis(250);
        let one = run_periodic(GsliceServer::new(1).scheduler(&taskset), horizon);
        let batching = run_periodic(crate::BatchingServer::new().scheduler(&taskset), horizon);
        let ratio = one.throughput_jps / batching.throughput_jps;
        assert!(ratio > 0.7 && ratio < 1.3, "ratio {ratio}");
    }
}
