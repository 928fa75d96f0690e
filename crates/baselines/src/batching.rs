//! The pure-batching upper baseline.

use std::collections::BTreeMap;

use daris_models::DnnKind;

use crate::policies::{BatchQueue, DispatchQueue, Staleness};
use crate::server::{Policy, Server};

/// A pure batching inference server: released jobs are grouped per model into
/// fixed-size batches and the batches execute back to back on the whole GPU,
/// FIFO, with no priorities or admission control.
///
/// Its best-case throughput (`Table I max JPS`) is the *upper baseline* the
/// paper compares DARIS against; its deadline behaviour shows why batching
/// alone is not a real-time scheduler (jobs wait for their batch to fill).
pub type BatchingServer = Server<Batching>;

/// One stream on the whole device; per-model batches flushed full-or-stale.
#[derive(Debug, Clone)]
pub struct Batching {
    /// Overrides of the paper's per-model batch sizes.
    batch_size: BTreeMap<DnnKind, u32>,
}

impl BatchingServer {
    /// Creates a server using the paper's per-model batch sizes
    /// (4 / 2 / 8, Sec. VI-H).
    pub fn new() -> Self {
        Server::of(Batching { batch_size: BTreeMap::new() })
    }

    /// Overrides the batch size for one model.
    pub fn with_batch_size(mut self, kind: DnnKind, batch: u32) -> Self {
        self.policy.batch_size.insert(kind, batch.max(1));
        self
    }
}

impl Default for BatchingServer {
    fn default() -> Self {
        BatchingServer::new()
    }
}

impl Policy for Batching {
    fn label(&self) -> String {
        "Batching".to_string()
    }

    fn queue(&self) -> Box<dyn DispatchQueue> {
        let staleness = Staleness::ShortestPeriod(BTreeMap::new());
        Box::new(BatchQueue::new(1, self.batch_size.clone(), staleness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::run_periodic;
    use daris_gpu::SimTime;
    use daris_models::ModelProfile;
    use daris_workload::{Priority, TaskSet};

    #[test]
    fn upper_baseline_matches_table1_max_jps() {
        for (kind, expected) in [
            (DnnKind::ResNet18, 1025.0),
            (DnnKind::ResNet50, 433.0),
            (DnnKind::UNet, 260.0),
            (DnnKind::InceptionV3, 446.0),
        ] {
            let jps = ModelProfile::calibrated(kind).best_batched_jps().1;
            assert!((jps - expected).abs() / expected < 0.12, "{kind}: {jps} vs {expected}");
        }
    }

    #[test]
    fn batching_beats_single_tenant_on_the_overloaded_set() {
        let taskset = TaskSet::table2(DnnKind::InceptionV3);
        let horizon = SimTime::from_millis(400);
        let batching = run_periodic(BatchingServer::new().scheduler(&taskset), horizon);
        let single = run_periodic(crate::SingleTenantServer::new().scheduler(&taskset), horizon);
        assert!(
            batching.throughput_jps > 1.5 * single.throughput_jps,
            "batching {} vs single {}",
            batching.throughput_jps,
            single.throughput_jps
        );
    }

    #[test]
    fn batching_has_no_priority_awareness() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let summary =
            run_periodic(BatchingServer::new().scheduler(&taskset), SimTime::from_millis(300));
        // Overloaded: both priority classes miss deadlines because jobs wait
        // for their batch regardless of priority.
        assert!(summary.of(Priority::High).deadline_misses > 0);
        assert!(summary.of(Priority::Low).deadline_misses > 0);
        assert_eq!(summary.total.rejected, 0, "no admission control in the baseline");
    }

    #[test]
    fn partial_batches_are_flushed_for_light_load() {
        // A single light task never fills a batch of 8; the timeout must
        // flush it so jobs still complete.
        let light: TaskSet =
            TaskSet::table2(DnnKind::InceptionV3).tasks().iter().take(1).cloned().collect();
        let summary =
            run_periodic(BatchingServer::new().scheduler(&light), SimTime::from_millis(400));
        assert!(summary.total.completed > 3, "{:?}", summary.total);
    }
}
