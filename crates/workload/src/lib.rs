//! # daris-workload
//!
//! Periodic real-time DNN inference workloads for the DARIS reproduction:
//! task and job types matching the paper's task model (Sec. III-A), the
//! Table II task sets, the mixed task set of Fig. 7, and the
//! overload/priority-ratio scenarios of Fig. 11.
//!
//! A *task* is one DNN served periodically (deadline = period, one of two
//! priority levels); a *job* is one release of that task. Job release
//! schedules are generated deterministically (with optional seeded jitter) so
//! experiments are reproducible.
//!
//! Beyond strictly periodic plans, the [`trace`-driven path](ArrivalSource)
//! opens arbitrary arrival shapes: seeded [`GenSpec`] generators (bursty,
//! diurnal, correlated co-releases), a serializable [`Trace`] format with a
//! versioned plain-text codec, and a [`TraceRecorder`] that captures the
//! release sequence of any live run. Every shape is one lazy
//! [`ArrivalStream`] whose per-task cursors are periodic, jittered,
//! generated or replayed ([`ArrivalStream::replay`]), so a recorded run
//! replays exactly.
//!
//! # Example
//!
//! ```
//! use daris_workload::{TaskSet, Priority};
//! use daris_models::DnnKind;
//!
//! // Table II: the ResNet18 task set has 17 high-priority and 34
//! // low-priority tasks, each released 30 times per second.
//! let ts = TaskSet::table2(DnnKind::ResNet18);
//! assert_eq!(ts.count(Priority::High), 17);
//! assert_eq!(ts.count(Priority::Low), 34);
//! assert!((ts.offered_jps() - 51.0 * 30.0).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrivals;
mod detector;
mod generators;
mod task;
mod taskset;
mod trace;

pub use arrivals::{ArrivalPlan, ArrivalStream, ReleaseJitter};
pub use detector::{LoadDetector, LoadDetectorConfig};
pub use generators::{BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec};
pub use task::{Job, JobId, Priority, TaskId, TaskSpec};
pub use taskset::{RatioScenario, TaskSet, TaskSetBuilder};
pub use trace::{ArrivalSource, Trace, TraceError, TraceEvent, TraceRecorder};

#[cfg(test)]
mod tests {
    use super::*;
    use daris_models::DnnKind;

    #[test]
    fn crate_level_example_holds_for_all_table2_sets() {
        for (kind, hp, lp, jps) in [
            (DnnKind::ResNet18, 17, 34, 30.0),
            (DnnKind::UNet, 5, 10, 24.0),
            (DnnKind::InceptionV3, 9, 18, 24.0),
        ] {
            let ts = TaskSet::table2(kind);
            assert_eq!(ts.count(Priority::High), hp);
            assert_eq!(ts.count(Priority::Low), lp);
            let expected = (hp + lp) as f64 * jps;
            assert!((ts.offered_jps() - expected).abs() < 0.01);
        }
    }
}
