//! Fleet description: devices, partitions and capacity accounting.

use daris_core::{DarisConfig, GpuPartition};
use daris_gpu::GpuSpec;

use crate::{ClusterError, Result};

/// One member of the fleet: a simulated device plus the GPU partition DARIS
/// uses on it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name, e.g. `"a100-0"`.
    pub name: String,
    /// The simulated hardware.
    pub gpu: GpuSpec,
    /// The spatial partition DARIS runs on this device.
    pub partition: GpuPartition,
}

impl DeviceSpec {
    /// Creates a device spec.
    pub fn new(name: impl Into<String>, gpu: GpuSpec, partition: GpuPartition) -> Self {
        DeviceSpec { name: name.into(), gpu, partition }
    }

    /// The utilization capacity the placement engine packs against: the
    /// device's total stream count (`Nc × Ns`, the same per-context `Ns`
    /// capacity the Eq. 11–12 admission test uses, summed over contexts),
    /// scaled by the device's SM count relative to `reference_sm` — a faster
    /// device serves the same task at a proportionally lower utilization
    /// under saturation, so it can carry proportionally more of them.
    pub fn utilization_capacity(&self, reference_sm: u32) -> f64 {
        let streams = f64::from(self.partition.parallel_tasks());
        streams * f64::from(self.gpu.sm_count) / f64::from(reference_sm.max(1))
    }

    /// Device memory available for resident model weights, in bytes.
    pub fn memory_budget(&self) -> u64 {
        self.gpu.memory_bytes
    }
}

/// An ordered set of devices forming the fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterSpec {
    devices: Vec<DeviceSpec>,
}

impl ClusterSpec {
    /// An empty cluster; add devices with [`with_device`](Self::with_device).
    pub fn new() -> Self {
        ClusterSpec::default()
    }

    /// Adds one device (builder style).
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.devices.push(device);
        self
    }

    /// A homogeneous fleet of `n` copies of (`gpu`, `partition`). Device 0
    /// keeps `gpu`'s own jitter seed (so a 1-device cluster reproduces the
    /// single-GPU path exactly); later devices get decorrelated seeds.
    pub fn homogeneous(n: usize, gpu: GpuSpec, partition: GpuPartition) -> Self {
        let mut cluster = ClusterSpec::new();
        for i in 0..n {
            let seed = gpu.jitter_seed.wrapping_add(i as u64);
            let device_gpu = gpu.clone().with_seed(seed);
            cluster =
                cluster.with_device(DeviceSpec::new(format!("gpu{i}"), device_gpu, partition));
        }
        cluster
    }

    /// The demo heterogeneous fleet used by the cluster experiments: the
    /// paper's RTX 2080 Ti, a data-center A100 and H100, and an embedded
    /// Orin (STR only — the paper notes MPS-scale sharing is not feasible on
    /// embedded parts).
    pub fn heterogeneous_demo() -> Self {
        ClusterSpec::new()
            .with_device(DeviceSpec::new(
                "rtx2080ti-0",
                GpuSpec::rtx_2080_ti(),
                GpuPartition::mps(6, 6.0),
            ))
            .with_device(DeviceSpec::new("a100-0", GpuSpec::a100(), GpuPartition::mps(8, 8.0)))
            .with_device(DeviceSpec::new("h100-0", GpuSpec::h100(), GpuPartition::mps(10, 10.0)))
            .with_device(DeviceSpec::new("orin-0", GpuSpec::orin(), GpuPartition::str_streams(4)))
    }

    /// A heterogeneous fleet of `n` devices cycling through the data-center
    /// and embedded presets — A100, H100, Orin — used by the 16–64-device
    /// scaling sweeps. Seeds are decorrelated per device (device 0 keeps the
    /// preset's own seed, like [`homogeneous`](Self::homogeneous)).
    pub fn heterogeneous_mix(n: usize) -> Self {
        let presets: [(&str, GpuSpec, GpuPartition); 3] = [
            ("a100", GpuSpec::a100(), GpuPartition::mps(8, 8.0)),
            ("h100", GpuSpec::h100(), GpuPartition::mps(10, 10.0)),
            ("orin", GpuSpec::orin(), GpuPartition::str_streams(4)),
        ];
        let mut cluster = ClusterSpec::new();
        for i in 0..n {
            let (name, gpu, partition) = &presets[i % presets.len()];
            let seed = gpu.jitter_seed.wrapping_add(i as u64);
            let device_gpu = gpu.clone().with_seed(seed);
            cluster =
                cluster.with_device(DeviceSpec::new(format!("{name}-{i}"), device_gpu, *partition));
        }
        cluster
    }

    /// The devices in fleet order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The contiguous device spans a `racks`-way hierarchical dispatch
    /// partitions this fleet into — balanced to within one device, `racks`
    /// clamped to `1..=len()`. This is the same layout
    /// `ClusterDispatcher` uses for `ClusterConfig::racks`, exposed so
    /// benches and reports can label devices by rack.
    pub fn rack_spans(&self, racks: usize) -> Vec<std::ops::Range<usize>> {
        crate::rack::rack_spans(self.len(), racks)
    }

    /// Validates every device's partition against its hardware.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for an empty fleet and
    /// [`ClusterError::InvalidDevice`] for an infeasible partition.
    pub fn validate(&self) -> Result<()> {
        if self.devices.is_empty() {
            return Err(ClusterError::EmptyCluster);
        }
        for device in &self.devices {
            DarisConfig::new(device.partition).with_gpu(device.gpu.clone()).validate().map_err(
                |source| ClusterError::InvalidDevice { device: device.name.clone(), source },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_fleet_has_distinct_seeds_and_device_zero_unchanged() {
        let gpu = GpuSpec::rtx_2080_ti();
        let fleet = ClusterSpec::homogeneous(3, gpu.clone(), GpuPartition::mps(6, 6.0));
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.devices()[0].gpu, gpu, "device 0 must match the single-GPU path");
        let mut seeds: Vec<u64> = fleet.devices().iter().map(|d| d.gpu.jitter_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 3);
        assert!(fleet.validate().is_ok());
    }

    #[test]
    fn heterogeneous_demo_is_valid_and_ordered_by_capacity() {
        let fleet = ClusterSpec::heterogeneous_demo();
        assert!(fleet.validate().is_ok());
        assert_eq!(fleet.len(), 4);
        let cap = |i: usize| fleet.devices()[i].utilization_capacity(68);
        // H100 > A100 > 2080 Ti > Orin in effective capacity.
        assert!(cap(2) > cap(1));
        assert!(cap(1) > cap(0));
        assert!(cap(0) > cap(3));
    }

    #[test]
    fn utilization_capacity_scales_with_sm_ratio() {
        let rtx = DeviceSpec::new("r", GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
        assert!((rtx.utilization_capacity(68) - 6.0).abs() < 1e-9);
        let a100 = DeviceSpec::new("a", GpuSpec::a100(), GpuPartition::mps(6, 6.0));
        assert!((a100.utilization_capacity(68) - 6.0 * 108.0 / 68.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_empty_and_infeasible() {
        assert_eq!(ClusterSpec::new().validate(), Err(ClusterError::EmptyCluster));
        let bad = ClusterSpec::new().with_device(DeviceSpec::new(
            "orin-overpartitioned",
            GpuSpec::orin(),
            GpuPartition::mps(32, 1.0),
        ));
        assert!(matches!(bad.validate(), Err(ClusterError::InvalidDevice { .. })));
    }
}
