//! A device parameter outside the engine's domain is rejected by name
//! wherever a device is built: by DARIS, by every baseline server, and by a
//! fleet of either. A NaN penalty would leave every kernel at rate NaN, so
//! it never finishes; a jitter half-width of 1 or more can make a kernel's
//! work zero or negative; a device with no SMs never runs a kernel, and one
//! whose copy bandwidth is zero, negative or NaN never finishes a copy. None
//! of them may reach the engine.

use daris::baselines::{
    BaselineScheduler, BatchingServer, FifoMultiStreamServer, GlobalEdfServer, GsliceServer,
    PriorityOnlyServer, SingleTenantServer,
};
use daris::cluster::{ClusterConfig, ClusterDispatcher, ClusterError, ClusterSpec, DeviceSpec};
use daris::core::{CoreError, DarisConfig, DarisScheduler, GpuPartition};
use daris::gpu::{GpuError, GpuSpec, InterferenceModel};
use daris::models::DnnKind;
use daris::workload::TaskSet;

/// The field an error names, if it is a device spec rejection.
fn rejected_field(error: &GpuError) -> Option<&'static str> {
    match error {
        GpuError::InvalidSpec { field, .. } => Some(field),
        _ => None,
    }
}

/// A fleet error's device and the spec field it names.
fn fleet_rejection(error: ClusterError) -> (String, Option<&'static str>) {
    match error {
        ClusterError::InvalidDevice { device, source: CoreError::Gpu(e) } => {
            (device, rejected_field(&e))
        }
        other => panic!("expected an invalid-device error, got {other}"),
    }
}

/// Builds every kind of scheduler on a device with `interference` and
/// requires each build to fail naming `field`.
fn assert_rejected_everywhere(field: &str, interference: InterferenceModel) {
    assert_device_rejected_everywhere(field, GpuSpec { interference, ..GpuSpec::rtx_2080_ti() });
}

/// Builds every kind of scheduler on the `bad` device and requires each
/// build to fail naming `field`.
fn assert_device_rejected_everywhere(field: &str, bad: GpuSpec) {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let partition = GpuPartition::mps(6, 6.0);

    let daris = DarisScheduler::new(&taskset, DarisConfig::new(partition).with_gpu(bad.clone()));
    match daris {
        Err(CoreError::Gpu(e)) => assert_eq!(rejected_field(&e), Some(field), "DARIS: {e}"),
        Err(e) => panic!("DARIS: expected a GPU error, got {e}"),
        Ok(_) => panic!("DARIS built on a device with an invalid {field}"),
    }

    let baselines: [(&str, Result<BaselineScheduler, GpuError>); 6] = [
        ("fifo", FifoMultiStreamServer::new(4).with_gpu(bad.clone()).scheduler(&taskset)),
        ("edf", GlobalEdfServer::new(4).with_gpu(bad.clone()).scheduler(&taskset)),
        ("priority", PriorityOnlyServer::new(4).with_gpu(bad.clone()).scheduler(&taskset)),
        ("batching", BatchingServer::new().with_gpu(bad.clone()).scheduler(&taskset)),
        ("gslice", GsliceServer::new(2).with_gpu(bad.clone()).scheduler(&taskset)),
        ("single-tenant", SingleTenantServer::with_gpu(bad.clone()).scheduler(&taskset)),
    ];
    for (name, built) in baselines {
        let error = built.err().unwrap_or_else(|| panic!("{name} built with an invalid {field}"));
        assert_eq!(rejected_field(&error), Some(field), "{name}: {error}");
    }

    // In a fleet the offending device is named, whichever scheduler it runs.
    let fleet = ClusterSpec::new()
        .with_device(DeviceSpec::new("good", GpuSpec::rtx_2080_ti(), partition))
        .with_device(DeviceSpec::new("bad", bad, partition));
    let daris_fleet = ClusterDispatcher::new(&taskset, fleet.clone(), ClusterConfig::default());
    let Err(error) = daris_fleet else { panic!("a DARIS fleet built on an invalid {field}") };
    assert_eq!(fleet_rejection(error), ("bad".to_owned(), Some(field)));
    let fifo_fleet =
        ClusterDispatcher::with_factory(&taskset, fleet, ClusterConfig::default(), |slot| {
            let server = FifoMultiStreamServer::new(4).with_gpu(slot.spec.gpu.clone());
            server.scheduler(slot.taskset).map_err(CoreError::from)
        });
    let Err(error) = fifo_fleet else { panic!("a FIFO fleet built on an invalid {field}") };
    assert_eq!(fleet_rejection(error), ("bad".to_owned(), Some(field)));
}

#[test]
fn a_nan_per_context_penalty_is_rejected_by_name() {
    let model = InterferenceModel { per_context_penalty: f64::NAN, ..InterferenceModel::default() };
    assert_rejected_everywhere("per_context_penalty", model);
}

#[test]
fn a_negative_oversubscription_penalty_is_rejected_by_name() {
    let model =
        InterferenceModel { oversubscription_penalty: -0.5, ..InterferenceModel::default() };
    assert_rejected_everywhere("oversubscription_penalty", model);
}

#[test]
fn a_jitter_half_width_of_one_is_rejected_by_name() {
    let model = InterferenceModel { work_jitter: 1.0, ..InterferenceModel::default() };
    assert_rejected_everywhere("work_jitter", model);
}

#[test]
fn a_device_with_no_sms_is_rejected_by_name() {
    assert_device_rejected_everywhere(
        "sm_count",
        GpuSpec { sm_count: 0, ..GpuSpec::rtx_2080_ti() },
    );
}

#[test]
fn a_copy_bandwidth_that_is_not_finite_and_positive_is_rejected_by_name() {
    for bandwidth in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let bad = GpuSpec { copy_bandwidth_bytes_per_us: bandwidth, ..GpuSpec::rtx_2080_ti() };
        assert_device_rejected_everywhere("copy_bandwidth_bytes_per_us", bad);
    }
}
