//! The dispatcher is generic over the per-device scheduler: a fleet of
//! baseline schedulers (built through `ClusterDispatcher::with_factory`)
//! runs through the same round loop, placement and boundary machinery as a
//! DARIS fleet, with the same thread-count byte-identity guarantee, and the
//! `RunSpec` entry point routes every workload shape.

use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterError, ClusterSpec};
use daris_core::{GpuPartition, RunSpec};
use daris_gpu::{GpuSpec, SimDuration, SimTime};
use daris_models::DnnKind;
use daris_workload::{BurstyConfig, GenSpec, ReleaseJitter, TaskSet};

mod common;
use common::{horizon_capped_ms, outcome_hash};

fn fleet(devices: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(devices, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0))
}

fn config(threads: usize) -> ClusterConfig {
    ClusterConfig { threads, ..ClusterConfig::default() }
}

/// Builds a fleet of FIFO baseline schedulers over the same placement the
/// DARIS fleet would use.
fn fifo_fleet(
    taskset: &TaskSet,
    devices: usize,
    threads: usize,
) -> ClusterDispatcher<daris_baselines::BaselineScheduler> {
    let server = daris_baselines::FifoMultiStreamServer::new(4);
    ClusterDispatcher::with_factory(taskset, fleet(devices), config(threads), move |slot| {
        let server = server.clone().with_gpu(slot.spec.gpu.clone());
        server.scheduler(slot.taskset).map_err(daris_core::CoreError::from)
    })
    .expect("baseline fleet builds")
}

#[test]
fn baseline_fleet_serves_jobs_through_the_cluster_round_loop() {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(horizon_capped_ms(200));
    let outcome =
        fifo_fleet(&taskset, 2, 1).run(&RunSpec::periodic().until(horizon)).expect("spec runs");
    assert_eq!(outcome.summary.devices, 2);
    assert!(outcome.summary.total.completed > 0, "baseline fleet completed nothing");
    // FIFO has no admission test, so nothing is ever rejected mid-round and
    // the only rejection channel left is placement (none for this set).
    assert_eq!(outcome.summary.total.rejected, 0);
}

#[test]
fn baseline_fleet_is_byte_identical_at_any_thread_count() {
    let taskset = TaskSet::table2(DnnKind::UNet);
    let horizon = SimTime::from_millis(horizon_capped_ms(150));
    let reference = outcome_hash(
        &fifo_fleet(&taskset, 4, 1).run(&RunSpec::periodic().until(horizon)).expect("spec runs"),
    );
    for threads in [2, 8] {
        let hash = outcome_hash(
            &fifo_fleet(&taskset, 4, threads)
                .run(&RunSpec::periodic().until(horizon))
                .expect("spec runs"),
        );
        assert_eq!(hash, reference, "threads={threads} diverged from serial");
    }
}

#[test]
fn daris_via_trait_dispatch_is_byte_identical_at_1_2_8_threads() {
    // The dispatcher now drives DARIS exclusively through the `Scheduler`
    // trait; this digest pins the trait-driven fleet to the serial reference
    // at every thread count (the refactor's cluster-level differential).
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(horizon_capped_ms(150));
    let run = |threads: usize| {
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, fleet(4), config(threads)).expect("fleet builds");
        outcome_hash(&dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs"))
    };
    let reference = run(1);
    assert_eq!(run(2), reference, "2 threads diverged from serial");
    assert_eq!(run(8), reference, "8 threads diverged from serial");
}

#[test]
fn runspec_rejects_cluster_infeasible_shapes_by_name() {
    // The invalid specs; each error names what was wrong instead of a bare
    // "unsupported" or a panic. A replay may be truncated but never extended.
    let taskset = TaskSet::table2(DnnKind::ResNet18);

    let mut dispatcher = ClusterDispatcher::new(&taskset, fleet(2), config(1)).unwrap();
    let no_horizon = RunSpec::periodic();
    let err = dispatcher.run(&no_horizon).expect_err("missing horizon must be rejected");
    assert!(err.to_string().contains("no horizon"), "unhelpful error: {err}");

    let mut dispatcher = ClusterDispatcher::new(&taskset, fleet(2), config(1)).unwrap();
    let horizon = SimTime::from_millis(100);
    let trace = GenSpec::Bursty(BurstyConfig::default()).generate(&taskset, horizon);
    let mismatched = RunSpec::replay(trace).until(SimTime::from_millis(150));
    let err = dispatcher.run(&mismatched).expect_err("an extended replay must be rejected");
    assert!(err.to_string().contains("replay horizon"), "unhelpful error: {err}");

    // Workloads the lazy streams cannot run to the horizon: a jitter whose
    // max delay reaches it, and an out-of-range generator.
    let wide = ReleaseJitter::Uniform { max: SimDuration::from_millis(100), seed: 1 };
    let silent = GenSpec::Bursty(BurstyConfig { burst_rate: 0.0, ..Default::default() });
    for (spec, reason) in [
        (RunSpec::jittered(wide), "cannot lazily reproduce"),
        (RunSpec::generated(silent), "burst_rate must be positive"),
    ] {
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet(2), config(1)).unwrap();
        let err = dispatcher.run(&spec.until(horizon)).expect_err("the spec must be rejected");
        assert!(matches!(err, ClusterError::InvalidRunSpec(_)), "{err:?}");
        assert!(err.to_string().contains(reason), "unhelpful error: {err}");
    }
}

#[test]
fn jittered_fleet_is_byte_identical_at_1_2_8_threads() {
    let taskset = TaskSet::table2(DnnKind::UNet);
    let horizon = SimTime::from_millis(horizon_capped_ms(150));
    let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(3), seed: 0xBEEF };
    let run = |threads: usize| {
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, fleet(4), config(threads)).expect("fleet builds");
        let outcome = dispatcher.run(&RunSpec::jittered(jitter).until(horizon)).expect("spec runs");
        assert!(outcome.summary.total.completed > 0, "jittered fleet completed nothing");
        outcome_hash(&outcome)
    };
    let reference = run(1);
    assert_eq!(run(2), reference, "2 threads diverged from serial");
    assert_eq!(run(8), reference, "8 threads diverged from serial");
}
