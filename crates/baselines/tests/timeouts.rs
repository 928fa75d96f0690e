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
//! A timeout is an instant the scheduler reports as its next event, so a
//! partial batch flushes exactly there, on an idle device too; the other
//! tests here pin that instant.
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
use daris_workload::{Priority, ReleaseJitter, TaskId, TaskSet, TaskSetBuilder, TaskSpec};

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

/// One low-priority InceptionV3 task with a 40 ms period and deadline: its
/// batch of eight never fills.
fn lone_inception() -> TaskSet {
    let period = SimDuration::from_millis(40);
    let task = TaskSpec::new(TaskId(0), "inception", DnnKind::InceptionV3, period, Priority::Low);
    TaskSetBuilder::new().add_task(task).build()
}

/// Releases the task's first job on idle `scheduler` and checks that the
/// partial batch flushes at exactly `flush`: the scheduler reports it as
/// its next event, stops there, and dispatches the batch there.
fn assert_flushes_at(mut scheduler: BaselineScheduler, flush: SimTime) {
    let job = scheduler.taskset().tasks()[0].job(0);
    assert!(scheduler.try_release_job(job));
    scheduler.dispatch_ready();
    let idle = scheduler.idle_stream_count();
    assert_eq!(scheduler.queue_backlog(), 1, "a batch of one is not flushed at its release");
    assert_eq!(scheduler.next_event_time(), Some(flush), "the timeout is the next event");
    assert!(scheduler.advance_toward(SimTime::from_millis(10_000)), "no stop at the timeout");
    assert_eq!(scheduler.now(), flush);
    scheduler.dispatch_ready();
    assert_eq!(scheduler.idle_stream_count(), idle - 1, "the stale batch takes one stream");
    assert_eq!(scheduler.queue_backlog(), 0);
}

#[test]
fn a_batching_timeout_flushes_at_half_the_period() {
    // At least half the shortest period: exactly 20 ms.
    let scheduler = BatchingServer::new().scheduler(&lone_inception()).unwrap();
    assert_flushes_at(scheduler, SimTime::from_millis(20));
}

#[test]
fn a_gslice_timeout_flushes_just_past_half_the_deadline() {
    // More than half the relative deadline: 20 ms and one nanosecond.
    let scheduler = GsliceServer::new(2).scheduler(&lone_inception()).unwrap();
    assert_flushes_at(scheduler, SimTime::from_nanos(20_000_001));
}

#[test]
fn an_idle_fleet_device_flushes_its_partial_batch_at_the_timeout() {
    // Greedy balance puts the busy ResNet18 task on one device and the
    // slow InceptionV3 task alone on the other, whose only work is then a
    // partial batch. Its timeout is 50 ms, its next release 100 ms away.
    let taskset = TaskSetBuilder::new()
        .without_stagger()
        .add_tasks(DnnKind::ResNet18, 1, 100.0, Priority::High)
        .add_tasks(DnnKind::InceptionV3, 1, 10.0, Priority::Low)
        .build();
    let cluster = ClusterSpec::homogeneous(2, GpuSpec::rtx_2080_ti(), GpuPartition::mps(2, 2.0));
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads: 1,
        ..Default::default()
    };
    let factory = |slot: DeviceSlot<'_>| {
        Ok(BatchingServer::new().with_gpu(slot.spec.gpu.clone()).scheduler(slot.taskset)?)
    };
    // Releases at 0, 100, …, 400 ms; the last flush falls well before the
    // horizon.
    let horizon = SimTime::from_millis(480);
    let outcome = ClusterDispatcher::with_factory(&taskset, cluster, config, factory)
        .expect("a valid two-device fleet")
        .run(&RunSpec::periodic().until(horizon))
        .expect("the spec runs");
    let hosts: Vec<_> =
        outcome.devices.iter().filter(|d| d.outcome.summary.low.released > 0).collect();
    assert_eq!(hosts.len(), 1, "the InceptionV3 task has one device");
    assert_eq!(hosts[0].outcome.summary.high.released, 0, "and that device has no other task");
    let low = &outcome.summary.low;
    assert_eq!((low.released, low.completed), (5, 5), "{low:?}");
    // A batch of one InceptionV3 job runs in well under 10 ms on the
    // 2080 Ti, so every job completes within the timeout plus that margin,
    // and none before its timeout.
    let (timeout, margin) = (50.0, 10.0);
    let response = &low.response;
    assert!(response.min_ms >= timeout, "flushed before its timeout: {response:?}");
    assert!(response.max_ms <= timeout + margin, "flushed late: {response:?}");
}
