//! Golden pin of the batch-flush timeouts.
//!
//! Batching and GSlice flush a partial batch once its head job has waited
//! long enough (Batching: half the model's shortest period; GSlice: half
//! the head job's relative deadline). Under the paper's standing overload
//! every batch fills, so no other golden reaches those branches. The runs
//! here are light enough that most batches never fill: InceptionV3's batch
//! of eight cannot fill from two tasks, so every one of its jobs completes
//! through a timeout flush. Each run is pinned as text in
//! `tests/golden/timeouts.txt`, standalone and on a two-device fleet.
//!
//! To regenerate (only legitimate after an *intentional* change to when a
//! baseline flushes):
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test -p daris-baselines --test timeouts
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use daris_baselines::{BaselineScheduler, BatchingServer, GsliceServer};
use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterSpec, DeviceSlot, PlacementStrategy};
use daris_core::{GpuPartition, Result, RunSpec, Scheduler};
use daris_gpu::{GpuSpec, SimDuration, SimTime};
use daris_metrics::{ExperimentSummary, PrioritySummary};
use daris_models::DnnKind;
use daris_workload::{Priority, ReleaseJitter, TaskSet, TaskSetBuilder};

/// A light mixed set: no model's batch fills before its head job goes
/// stale, except now and then ResNet18's.
fn light_taskset() -> TaskSet {
    TaskSetBuilder::new()
        .add_tasks(DnnKind::ResNet18, 3, 30.0, Priority::High)
        .add_tasks(DnnKind::UNet, 1, 24.0, Priority::Low)
        .add_tasks(DnnKind::InceptionV3, 2, 20.0, Priority::Low)
        .add_tasks(DnnKind::ResNet18, 2, 15.0, Priority::Low)
        .build()
}

fn jittered() -> RunSpec {
    RunSpec::jittered(ReleaseJitter::Uniform { max: SimDuration::from_millis(3), seed: 11 })
}

fn write_class(text: &mut String, name: &str, p: &PrioritySummary) {
    let r = &p.response;
    let _ = writeln!(
        text,
        "{name} released={} completed={} inferences={} misses={} \
         response_ms min={:?} mean={:?} p50={:?} p99={:?} max={:?}",
        p.released,
        p.completed,
        p.completed_inferences,
        p.deadline_misses,
        r.min_ms,
        r.mean_ms,
        r.p50_ms,
        r.p99_ms,
        r.max_ms
    );
}

fn write_summary(text: &mut String, s: &ExperimentSummary) {
    let _ = writeln!(text, "jps={:?} utilization={:?}", s.throughput_jps, s.gpu_utilization);
    write_class(text, "high", &s.high);
    write_class(text, "low", &s.low);
}

fn standalone(name: &str, mut scheduler: BaselineScheduler, spec: &RunSpec) -> String {
    let outcome = scheduler.run(spec).expect("the spec runs");
    let mut text = format!("## {name}, standalone ({})\n", outcome.config_label);
    write_summary(&mut text, &outcome.summary);
    text
}

fn fleet(
    name: &str,
    spec: &RunSpec,
    factory: impl Fn(DeviceSlot<'_>) -> Result<BaselineScheduler> + Sync,
) -> String {
    let cluster = ClusterSpec::homogeneous(2, GpuSpec::rtx_2080_ti(), GpuPartition::mps(2, 2.0));
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads: 1,
        ..Default::default()
    };
    let outcome = ClusterDispatcher::with_factory(&light_taskset(), cluster, config, factory)
        .expect("a valid two-device fleet")
        .run(spec)
        .expect("the spec runs");
    let mut text = format!("## {name}, two-device fleet\n");
    for device in &outcome.devices {
        let _ = writeln!(text, "# {} ({})", device.name, device.outcome.config_label);
        write_summary(&mut text, &device.outcome.summary);
    }
    let s = &outcome.summary;
    let _ = writeln!(
        text,
        "# fleet jps={:?} migrations={} utilization={:?}",
        s.throughput_jps, s.migrations, s.mean_gpu_utilization
    );
    write_class(&mut text, "high", &s.high);
    write_class(&mut text, "low", &s.low);
    text
}

#[test]
fn timeout_flushes_match_the_committed_golden() {
    // A fixed horizon: a golden must not depend on `DARIS_HORIZON_MS`.
    let horizon = SimTime::from_millis(400);
    let periodic = RunSpec::periodic().until(horizon);
    let jittered = jittered().until(horizon);
    let taskset = light_taskset();
    let batching = |slot: DeviceSlot<'_>| {
        Ok(BatchingServer::new()
            .with_gpu(slot.spec.gpu.clone())
            .with_calibration(slot.reference.clone())
            .scheduler(slot.taskset)?)
    };
    let gslice = |slot: DeviceSlot<'_>| {
        Ok(GsliceServer::new(2)
            .with_gpu(slot.spec.gpu.clone())
            .with_calibration(slot.reference.clone())
            .scheduler(slot.taskset)?)
    };
    let sections = [
        standalone("Batching", BatchingServer::new().scheduler(&taskset).unwrap(), &periodic),
        standalone("Batching", BatchingServer::new().scheduler(&taskset).unwrap(), &jittered),
        standalone("GSlice", GsliceServer::new(2).scheduler(&taskset).unwrap(), &periodic),
        standalone("GSlice", GsliceServer::new(3).scheduler(&taskset).unwrap(), &jittered),
        fleet("Batching", &jittered, batching),
        fleet("GSlice", &jittered, gslice),
    ];
    let actual = sections.join("\n");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/timeouts.txt");
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &actual).expect("write timeout golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing timeout golden {path:?} ({e}); regenerate with \
             DARIS_REGEN_GOLDEN=1 cargo test -p daris-baselines --test timeouts"
        )
    });
    assert_eq!(expected, actual, "a baseline's batch flushes drifted from the golden");
}
