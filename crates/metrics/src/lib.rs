//! # daris-metrics
//!
//! Metrics collection and reporting for the DARIS reproduction. The paper
//! evaluates schedulers on two primary metrics — total throughput in jobs per
//! second (JPS) and deadline miss rate (DMR, missed deadlines over accepted
//! jobs) — plus response-time distributions for the module-contribution study
//! (Fig. 8). [`MetricsCollector`] accumulates per-job outcomes during a
//! simulation and produces an [`ExperimentSummary`]; [`report::Table`] formats
//! paper-style tables for the experiment runners.
//!
//! # Example
//!
//! ```
//! use daris_metrics::MetricsCollector;
//! use daris_workload::{Priority, TaskSet};
//! use daris_models::DnnKind;
//! use daris_gpu::{SimDuration, SimTime};
//!
//! let ts = TaskSet::table2(DnnKind::UNet);
//! let task = &ts.tasks()[0];
//! let mut metrics = MetricsCollector::new();
//! let job = task.job(0);
//! metrics.record_release(&job);
//! metrics.record_completion(&job, job.release + SimDuration::from_millis(10));
//! let summary = metrics.summarize(SimTime::from_millis(100));
//! assert_eq!(summary.total.completed, 1);
//! assert_eq!(summary.of(Priority::High).deadline_misses, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
pub mod report;
mod stats;

pub use collector::{ExperimentSummary, MetricsCollector, PrioritySummary};
pub use stats::ResponseStats;
