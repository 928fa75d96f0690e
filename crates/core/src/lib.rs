//! # daris-core
//!
//! The DARIS scheduler: a deadline-aware, priority-based, spatio-temporal
//! scheduler for multi-tenant real-time DNN inference on a (simulated) GPU,
//! reproducing Babaei & Chantem, *DARIS*, DAC 2025.
//!
//! The scheduler combines:
//!
//! * **Spatial sharing** — MPS contexts with per-context SM quotas computed
//!   from the oversubscription level (Eq. 9) plus CUDA streams inside each
//!   context ([`GpuPartition`], [`PartitionPolicy`]).
//! * **Temporal sharing** — *staging*: each DNN is split into stages and the
//!   scheduler only dispatches one stage at a time per job, creating
//!   coarse-grained preemption points (Sec. III-B1).
//! * **MRET** — per-stage Maximum Recent Execution Time over a sliding window
//!   as an optimistic dynamic WCET estimate (Eq. 1–2), initialized from an
//!   Average Full-load Execution Time (AFET) profiling pass (Eq. 10).
//! * **Virtual deadlines** — each stage receives a share of the task deadline
//!   proportional to its MRET (Eq. 8).
//! * **Admission control & migration** — low-priority jobs take a
//!   utilization-based admission test per context (Eq. 11–12) and migrate to
//!   the context with the earliest predicted finish time when their own
//!   context is full; high-priority jobs are always admitted unless the
//!   `Overload+HPA` mode is enabled (Sec. VI-I).
//! * **Stage scheduling** — eight fixed priority levels (task priority ×
//!   last-stage × predecessor-missed) with EDF inside each level
//!   (Sec. IV-B2).
//!
//! # Example
//!
//! ```
//! use daris_core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
//! use daris_workload::TaskSet;
//! use daris_models::DnnKind;
//! use daris_gpu::SimTime;
//!
//! # fn main() -> Result<(), daris_core::CoreError> {
//! let taskset = TaskSet::table2(DnnKind::UNet);
//! let config = DarisConfig::new(GpuPartition::mps(6, 2.0));
//! let mut scheduler = DarisScheduler::new(&taskset, config)?;
//! let outcome = scheduler.run(&RunSpec::periodic().until(SimTime::from_millis(300)))?;
//! assert!(outcome.summary.throughput_jps > 0.0);
//! assert_eq!(outcome.summary.high.rejected, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod afet;
mod config;
mod error;
mod mret;
mod offline;
mod runspec;
mod scheduler;
mod stage_queue;
mod traits;
mod utilization;
mod vdeadline;

pub use afet::AfetProfiler;
pub use config::{AblationFlags, DarisConfig, GpuPartition, PartitionPolicy};
pub use error::CoreError;
pub use mret::MretEstimator;
pub use offline::populate_contexts;
pub use runspec::{RunSpec, Shard, Workload};
pub use scheduler::{DarisScheduler, ExperimentOutcome, MretSample, AFET_INFLATION};
pub use stage_queue::{ReadyStage, StageQueue};
pub use traits::Scheduler;
pub use vdeadline::virtual_deadlines;

/// Convenience result alias.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
