//! The adaptive control plane's determinism contract:
//!
//! * an *inert* control plane — every adaptive knob attached but configured
//!   so no threshold can ever be crossed — is byte-identical to the plain
//!   static configuration, on single-device and multi-device fleets
//!   (differential property test);
//! * the *active* control plane (burst-triggered HPA + elastic quantum +
//!   autoscaling, all at defaults) stays byte-identical across 1/2/8 worker
//!   threads on an 8-device heterogeneous fleet under a diurnal workload;
//! * under that diurnal workload the fleet actually scales: devices drain
//!   under the troughs and rejoin under the crests, and the elastic quantum
//!   moves (telemetry-observed).

use daris_cluster::{
    AutoscaleConfig, ClusterConfig, ClusterDispatcher, ClusterError, ClusterSpec, DeviceSpec,
    ElasticQuantum,
};
use daris_core::{GpuPartition, RunSpec};
use daris_gpu::{GpuSpec, SimDuration, SimTime, XorShiftRng};
use daris_models::DnnKind;
use daris_telemetry::{EventKind, MemorySink, SinkHandle};
use daris_workload::{
    DiurnalConfig, GenSpec, LoadDetectorConfig, Priority, TaskSet, TaskSetBuilder,
};
use proptest::prelude::*;

mod common;
use common::{horizon_capped_ms, outcome_hash};

/// Deterministic random task set over the Table II model kinds (the same
/// recipe as the `cluster.rs` property tests).
fn random_taskset(seed: u64, n_tasks: usize) -> TaskSet {
    let mut rng = XorShiftRng::new(seed);
    let kinds = [DnnKind::ResNet18, DnnKind::UNet, DnnKind::InceptionV3];
    let mut builder = TaskSetBuilder::new();
    for _ in 0..n_tasks.max(1) {
        let kind = kinds[(rng.next_u64() % 3) as usize];
        let jps = 5.0 + rng.uniform(0.0, 35.0);
        let priority = if rng.next_u64() % 3 == 0 { Priority::High } else { Priority::Low };
        builder = builder.add_tasks(kind, 1, jps, priority);
    }
    builder.build()
}

/// Deterministic random fleet drawn from the shipped specs.
fn random_fleet(seed: u64, n_devices: usize) -> ClusterSpec {
    let mut rng = XorShiftRng::new(seed ^ 0x000f_1ee7);
    let mut fleet = ClusterSpec::new();
    for i in 0..n_devices.max(1) {
        let (gpu, partition) = match rng.next_u64() % 4 {
            0 => (GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0)),
            1 => (GpuSpec::a100(), GpuPartition::mps(8, 8.0)),
            2 => (GpuSpec::h100(), GpuPartition::mps(10, 10.0)),
            _ => (GpuSpec::orin(), GpuPartition::str_streams(4)),
        };
        fleet = fleet.with_device(DeviceSpec::new(format!("d{i}"), gpu, partition));
    }
    fleet
}

/// The 8-device heterogeneous fleet of the determinism digest suite.
fn hetero_fleet_8() -> ClusterSpec {
    let mut fleet = ClusterSpec::new();
    for i in 0..8usize {
        let (gpu, partition) = match i % 4 {
            0 => (GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0)),
            1 => (GpuSpec::a100(), GpuPartition::mps(8, 8.0)),
            2 => (GpuSpec::h100(), GpuPartition::mps(10, 10.0)),
            _ => (GpuSpec::orin(), GpuPartition::str_streams(4)),
        };
        fleet = fleet.with_device(DeviceSpec::new(format!("g{i}"), gpu, partition));
    }
    fleet
}

/// Every adaptive knob attached, none able to act: the HPA detector's burst
/// threshold is unreachably high, the elastic bounds pin the quantum to the
/// static default, and the autoscaler's device floor equals the fleet size.
fn inert_adaptive_config(n_devices: usize) -> ClusterConfig {
    ClusterConfig {
        adaptive_hpa: Some(LoadDetectorConfig {
            burst_ratio: 1e9,
            calm_ratio: 1.0,
            ..LoadDetectorConfig::default()
        }),
        elastic_quantum: Some(ElasticQuantum {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(1),
        }),
        autoscale: Some(AutoscaleConfig { min_devices: n_devices, ..AutoscaleConfig::default() }),
        ..ClusterConfig::default()
    }
}

/// The full control plane at its defaults.
fn active_adaptive_config(threads: usize) -> ClusterConfig {
    ClusterConfig {
        threads,
        adaptive_hpa: Some(LoadDetectorConfig::default()),
        elastic_quantum: Some(ElasticQuantum::default()),
        autoscale: Some(AutoscaleConfig::default()),
        ..ClusterConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With no threshold crossable, the adaptive plane must be a pure
    /// pass-through: every per-device summary and aggregate tally matches
    /// the static configuration bit for bit, from a 1-device "single-GPU"
    /// fleet up.
    #[test]
    fn inert_adaptive_plane_is_byte_identical_to_static(
        seed in 0u64..1_000_000,
        n_tasks in 4usize..40,
        n_devices in 1usize..5,
    ) {
        let taskset = random_taskset(seed, n_tasks);
        let fleet = random_fleet(seed, n_devices);
        let horizon = SimTime::from_millis(120);
        let run = |config: ClusterConfig| {
            let mut dispatcher = ClusterDispatcher::new(&taskset, fleet.clone(), config)
                .expect("dispatcher builds");
            dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs")
        };
        let static_run = run(ClusterConfig::default());
        let inert = run(inert_adaptive_config(n_devices));
        prop_assert_eq!(&static_run.summary, &inert.summary);
        for (s, a) in static_run.devices.iter().zip(&inert.devices) {
            prop_assert_eq!(&s.outcome.summary, &a.outcome.summary,
                "device {} diverged between static and inert-adaptive", s.name);
        }
    }
}

#[test]
fn inert_adaptive_plane_is_byte_identical_to_static_on_8_device_hetero_fleet() {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let fleet = hetero_fleet_8();
    let horizon = SimTime::from_millis(horizon_capped_ms(150));
    let spec = GenSpec::Diurnal(DiurnalConfig { amplitude: 0.6, ..DiurnalConfig::default() });
    let run = |config: ClusterConfig| {
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, fleet.clone(), config).expect("dispatcher builds");
        outcome_hash(&dispatcher.run(&RunSpec::generated(spec).until(horizon)).expect("spec runs"))
    };
    assert_eq!(run(ClusterConfig::default()), run(inert_adaptive_config(8)));
}

#[test]
fn active_control_plane_is_byte_identical_at_1_2_8_threads() {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let horizon = SimTime::from_millis(horizon_capped_ms(200));
    // Coherent phases so the fleet-wide load actually swings and the
    // autoscaler/elastic quantum act during the digest, not just idle.
    let spec = GenSpec::Diurnal(DiurnalConfig {
        amplitude: 0.8,
        cycle: SimDuration::from_millis(100),
        phase_spread: 0.0,
        ..DiurnalConfig::default()
    });
    let run = |threads: usize| {
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, hetero_fleet_8(), active_adaptive_config(threads))
                .expect("dispatcher builds");
        outcome_hash(&dispatcher.run(&RunSpec::generated(spec).until(horizon)).expect("spec runs"))
    };
    let reference = run(1);
    assert_eq!(run(2), reference, "2 threads diverged from serial");
    assert_eq!(run(8), reference, "8 threads diverged from serial");
}

#[test]
fn diurnal_load_drives_drains_joins_and_quantum_changes() {
    // A homogeneous fleet oversized for the trough load, under *coherent*
    // diurnal phases (`phase_spread: 0.0` — with the default spread the
    // per-task cycles cancel and the fleet-wide rate is flat): the
    // autoscaler should drain devices through the troughs and rejoin one as
    // a crest lands on the shrunken fleet, while the elastic quantum tracks
    // the load swing. Homogeneous on purpose — on a heterogeneous fleet the
    // mean load fraction is dominated by the slowest devices and the drained
    // fleet's big devices absorb the crests below any join threshold.
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(300);
    let spec = GenSpec::Diurnal(DiurnalConfig {
        amplitude: 0.9,
        cycle: SimDuration::from_millis(100),
        phase_spread: 0.0,
        ..DiurnalConfig::default()
    });
    let sink = MemorySink::unbounded();
    let config = ClusterConfig {
        autoscale: Some(AutoscaleConfig {
            min_devices: 2,
            scale_up_ratio: 0.4,
            scale_down_ratio: 0.2,
            epoch: 4,
        }),
        elastic_quantum: Some(ElasticQuantum::default()),
        sink: Some(SinkHandle::new(sink.clone())),
        ..ClusterConfig::default()
    };
    let fleet = ClusterSpec::homogeneous(8, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let mut dispatcher =
        ClusterDispatcher::new(&taskset, fleet, config).expect("dispatcher builds");
    let outcome = dispatcher.run(&RunSpec::generated(spec).until(horizon)).expect("spec runs");
    assert!(outcome.summary.total.completed > 0);

    let events = sink.events();
    let drains =
        events.iter().filter(|e| matches!(e.kind, EventKind::DeviceDrained { .. })).count();
    let joins = events.iter().filter(|e| matches!(e.kind, EventKind::DeviceJoined { .. })).count();
    let quantum_changes =
        events.iter().filter(|e| matches!(e.kind, EventKind::QuantumChanged { .. })).count();
    assert!(drains > 0, "diurnal troughs never drained a device");
    assert!(joins > 0, "diurnal crests never rejoined a device");
    assert!(quantum_changes > 0, "the elastic quantum never moved");
    // The fleet never shrinks below the configured floor.
    for event in &events {
        if let EventKind::DeviceDrained { online, .. } = event.kind {
            assert!(online >= 2, "fleet shrank below min_devices: {online} online");
        }
    }
}

#[test]
fn autoscaling_requires_the_retry_path() {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let fleet = hetero_fleet_8();
    let config = ClusterConfig {
        autoscale: Some(AutoscaleConfig::default()),
        cluster_admission: false,
        ..ClusterConfig::default()
    };
    let err = match ClusterDispatcher::new(&taskset, fleet, config) {
        Ok(_) => panic!("autoscaling without the retry path must be rejected"),
        Err(err) => err,
    };
    assert!(matches!(err, ClusterError::InvalidAdaptiveConfig(_)), "wrong error: {err}");
}

#[test]
fn degenerate_adaptive_hpa_detectors_are_rejected() {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let base = LoadDetectorConfig::default();
    let cases = [
        ("zero window", LoadDetectorConfig { window: SimDuration::ZERO, ..base }),
        ("inverted band", LoadDetectorConfig { burst_ratio: 1.0, calm_ratio: 1.5, ..base }),
    ];
    for (name, detector) in cases {
        let config = ClusterConfig { adaptive_hpa: Some(detector), ..ClusterConfig::default() };
        let err = match ClusterDispatcher::new(&taskset, hetero_fleet_8(), config) {
            Ok(_) => panic!("{name} must be rejected"),
            Err(err) => err,
        };
        assert!(
            matches!(err, ClusterError::InvalidAdaptiveConfig(_)),
            "{name}: wrong error: {err}"
        );
    }
}
