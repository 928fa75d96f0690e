//! The single-tenant (one DNN at a time) lower baseline.

use daris_gpu::{Gpu, GpuError, GpuSpec};
use daris_models::{DnnKind, ModelProfile};
use daris_workload::TaskSet;

use crate::harness::BaselineScheduler;
use crate::policies::{DispatchQueue, FifoQueue};
use crate::server::{Policy, Server};

/// Serves jobs strictly one at a time on the whole GPU, in release (FIFO)
/// order — the paper's "single DNN" lower baseline and the design point of
/// predictability-first systems like Clockwork.
///
/// ```
/// use daris_baselines::SingleTenantServer;
/// use daris_models::DnnKind;
///
/// // Serving ResNet18 alone reproduces Table I's min JPS (~627).
/// let jps = SingleTenantServer::isolated_jps(DnnKind::ResNet18, 20);
/// assert!((jps - 627.0).abs() / 627.0 < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct SingleTenantServer(Server<SingleTenant>);

impl SingleTenantServer {
    /// Creates a server on the paper's RTX 2080 Ti.
    pub fn new() -> Self {
        SingleTenantServer(Server::of(SingleTenant))
    }

    /// Creates a server on a custom device.
    pub fn with_gpu(spec: GpuSpec) -> Self {
        SingleTenantServer(Server::of(SingleTenant).with_gpu(spec))
    }

    /// Calibrates model profiles against a *reference* device instead of
    /// the server's own (heterogeneous-fleet fairness).
    pub fn with_calibration(self, reference: GpuSpec) -> Self {
        SingleTenantServer(self.0.with_calibration(reference))
    }

    /// Measures the isolated (unbatched, single-stream) throughput of one
    /// model by running `jobs` back-to-back inferences.
    pub fn isolated_jps(kind: DnnKind, jobs: u32) -> f64 {
        let spec = GpuSpec::rtx_2080_ti().without_interference();
        let profile = ModelProfile::calibrated_for(kind, &spec);
        let mut gpu = Gpu::new(spec);
        let stream = gpu.add_contexts(1, gpu.spec().sm_count, 1).expect("valid context")[0];
        for j in 0..jobs {
            gpu.submit(stream, profile.job_item(u64::from(j), 1)).expect("valid item");
        }
        gpu.run_to_idle();
        f64::from(jobs) / gpu.now().as_secs_f64()
    }

    /// Builds the [`Scheduler`](daris_core::Scheduler)-trait form of this baseline over `taskset`:
    /// one stream, one whole job at a time, FIFO.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors.
    pub fn scheduler(&self, taskset: &TaskSet) -> Result<BaselineScheduler, GpuError> {
        self.0.scheduler(taskset)
    }
}

/// One stream on the whole device, one whole job at a time, FIFO.
#[derive(Debug, Clone)]
pub struct SingleTenant;

impl Policy for SingleTenant {
    fn label(&self) -> String {
        "SingleTenant".to_string()
    }

    fn queue(&self) -> Box<dyn DispatchQueue> {
        Box::<FifoQueue>::default()
    }
}

impl Default for SingleTenantServer {
    fn default() -> Self {
        SingleTenantServer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::run_periodic;
    use daris_gpu::SimTime;
    use daris_workload::Priority;

    #[test]
    fn isolated_jps_matches_table1_for_all_models() {
        for (kind, expected) in [
            (DnnKind::ResNet18, 627.0),
            (DnnKind::ResNet50, 250.0),
            (DnnKind::UNet, 241.0),
            (DnnKind::InceptionV3, 142.0),
        ] {
            let jps = SingleTenantServer::isolated_jps(kind, 10);
            assert!((jps - expected).abs() / expected < 0.1, "{kind}: {jps} vs {expected}");
        }
    }

    #[test]
    fn overloaded_taskset_misses_many_deadlines_without_colocation() {
        // The ResNet18 Table II set offers ~1530 jobs/s; a single-tenant
        // server tops out near 627 JPS and must miss deadlines massively —
        // the motivation for multi-tenant scheduling in the paper's intro.
        let server = SingleTenantServer::new();
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let summary = run_periodic(server.scheduler(&taskset), SimTime::from_millis(300));
        assert!(summary.throughput_jps < 700.0);
        assert!(summary.total.deadline_miss_rate > 0.3, "{}", summary.total.deadline_miss_rate);
        // FIFO has no priority awareness: HP tasks miss too.
        assert!(summary.of(Priority::High).deadline_misses > 0);
    }

    #[test]
    fn underloaded_taskset_is_served_without_misses() {
        let light: TaskSet =
            TaskSet::table2(DnnKind::UNet).tasks().iter().take(3).cloned().collect();
        let server = SingleTenantServer::new();
        let summary = run_periodic(server.scheduler(&light), SimTime::from_millis(300));
        assert!(summary.total.completed > 10);
        assert_eq!(summary.total.deadline_misses, 0);
    }
}
