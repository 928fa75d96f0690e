//! # daris-cluster
//!
//! Fleet-scale DARIS: shards a real-time DNN inference
//! [`TaskSet`](daris_workload::TaskSet) across a cluster of (possibly
//! heterogeneous) simulated GPUs and runs one `daris-core` scheduler per
//! device, coordinated by a cluster dispatcher.
//!
//! The layer decomposes like the single-device system:
//!
//! * [`ClusterSpec`] / [`DeviceSpec`] — the fleet: per-device
//!   [`GpuSpec`](daris_gpu::GpuSpec) (RTX 2080 Ti, A100, H100, Orin, …) and
//!   [`GpuPartition`](daris_core::GpuPartition).
//! * [`place`] — the placement engine: partitions the task set across
//!   devices by utilization-aware bin-packing (first-fit-decreasing on the
//!   Eq. 10/12 utilization, respecting each device's stream capacity scaled
//!   by its SM ratio and its weight-memory budget), with a greedy-balance
//!   alternative for comparison. Every task ends up *placed* on exactly one
//!   device or *explicitly rejected*.
//! * [`ClusterDispatcher`] — drives one scheduler per device through fixed
//!   synchronization rounds, fanning the independent per-device simulation
//!   out to a scoped worker pool (`ClusterConfig::threads` workers, the
//!   calling thread among them) with a deterministic device-order join, so
//!   results are byte-identical at any thread count; a low-priority job
//!   rejected by its home device's admission test (Eq. 11–12) is retried on
//!   the least-loaded other devices at the round boundary, and
//!   queued-but-unstarted jobs migrate from overloaded devices to idle ones
//!   at stage boundaries.
//! * [`ClusterSummary`] — per-device
//!   [`ExperimentSummary`](daris_metrics::ExperimentSummary)s aggregated
//!   into fleet-level throughput, deadline-miss and response metrics.
//!
//! [`ClusterDispatcher::run`] takes the same
//! [`RunSpec`](daris_core::RunSpec) a single scheduler runs: periodic and
//! jittered task sets, seeded bursty/diurnal/correlated generators and
//! recorded trace replays all shard along the placement into per-device
//! [`ArrivalSource`](daris_workload::ArrivalSource)s and share the
//! synchronization-round loop. A live generated run is byte-identical to
//! replaying its recorded trace.
//!
//! Model profiles are calibrated once against the paper's measurement device
//! (the RTX 2080 Ti) and *run* on each member device, so heterogeneous speed
//! differences emerge from the simulation (SM counts, copy engines,
//! interference) instead of being calibrated away.
//!
//! # Example
//!
//! ```
//! use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterSpec};
//! use daris_core::{GpuPartition, RunSpec};
//! use daris_gpu::{GpuSpec, SimTime};
//! use daris_models::DnnKind;
//! use daris_workload::TaskSet;
//!
//! # fn main() -> Result<(), daris_cluster::ClusterError> {
//! let fleet = ClusterSpec::homogeneous(2, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
//! let taskset = TaskSet::table2(DnnKind::UNet);
//! let mut dispatcher = ClusterDispatcher::new(&taskset, fleet, ClusterConfig::default())?;
//! let outcome = dispatcher.run(&RunSpec::periodic().until(SimTime::from_millis(150)))?;
//! assert_eq!(outcome.summary.devices, 2);
//! assert!(outcome.summary.total.completed > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod dispatcher;
mod error;
mod placement;
mod pool;
mod rack;
mod spec;
mod summary;

pub use adaptive::{AutoscaleConfig, ElasticQuantum};
pub use dispatcher::{ClusterConfig, ClusterDispatcher, ClusterOutcome, DeviceOutcome, DeviceSlot};
pub use error::ClusterError;
pub use placement::{place, utilization_estimates, DevicePlan, Placement, PlacementStrategy};
pub use spec::{ClusterSpec, DeviceSpec};
pub use summary::ClusterSummary;

/// Convenience result alias.
pub type Result<T, E = ClusterError> = std::result::Result<T, E>;
