//! [`RunSpec`]: one builder-style description of *what to run* — a workload
//! shape plus a horizon — consumed by the one standalone entry point,
//! [`Scheduler::run`](crate::Scheduler::run), and by the cluster
//! dispatcher's `run`:
//!
//! ```
//! use daris_core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
//! use daris_models::DnnKind;
//! use daris_gpu::SimTime;
//! use daris_workload::TaskSet;
//!
//! # fn main() -> Result<(), daris_core::CoreError> {
//! let taskset = TaskSet::table2(DnnKind::UNet);
//! let mut scheduler =
//!     DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(6, 2.0)))?;
//! let spec = RunSpec::periodic().until(SimTime::from_millis(300));
//! let outcome = scheduler.run(&spec)?;
//! assert!(outcome.summary.throughput_jps > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Both layers turn a spec into arrival sources the same way,
//! [`Workload::shard`]: a bare scheduler asks for one identity shard, a
//! fleet for one shard per device plus one for the tasks placement
//! rejected.
//!
//! Telemetry sinks stay *construction-time* configuration
//! ([`DarisConfig::sink`](crate::DarisConfig)): device tracing must be
//! enabled when the simulated GPU is built, so a sink cannot be attached
//! per-run without violating the byte-identical replay guarantee.

use daris_gpu::SimTime;
use daris_workload::{ArrivalStream, GenSpec, ReleaseJitter, TaskSet, Trace, TraceError};

use crate::{CoreError, Result};

/// The workload shape of a [`RunSpec`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Workload {
    /// Strictly periodic releases from the task set's periods, optionally
    /// jittered.
    Periodic {
        /// Per-release jitter applied to the periodic schedule.
        jitter: ReleaseJitter,
    },
    /// Releases from a seeded generator (bursty / diurnal / correlated).
    Generated(GenSpec),
    /// Byte-exact replay of a recorded trace.
    Replay(Trace),
}

/// One shard of a workload: a task set plus the global index of each of its
/// tasks. The global indices key every per-task random stream (release
/// jitter, generator draws) and select the replayed trace events, so the
/// shards of a partition together release exactly the jobs the unsharded
/// workload would — `TaskSet::preserving_phases` keeps the periodic phases.
#[derive(Debug, Clone, Copy)]
pub struct Shard<'a> {
    /// The shard's task set, in its own (local) task ids.
    pub taskset: &'a TaskSet,
    /// `global[i]` is the global index of local task `i`, ascending (as
    /// placement builds them), so local ids order tasks as global ones do.
    pub global: &'a [usize],
}

impl Workload {
    /// Builds one arrival stream per shard, releasing jobs in local task
    /// ids, each keyed by its shard's global indices. A jittered stream may
    /// release past `horizon` (a delayed release whose nominal time lies
    /// before it), and a replay runs to its trace's own horizon; every other
    /// stream stops before `horizon`. A replayed trace's task indices refer
    /// to the union of the shards' global indices, which must partition
    /// `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTask`] for a replayed event whose task
    /// no shard holds.
    ///
    /// # Panics
    ///
    /// Panics on a jitter or generator configuration the lazy streams
    /// reject; [`RunSpec::required_horizon`] rejects those by name first.
    pub fn shard<'a>(
        &self,
        horizon: SimTime,
        shards: &[Shard<'a>],
    ) -> std::result::Result<Vec<ArrivalStream<'a>>, TraceError> {
        if let Workload::Replay(trace) = self {
            let tasks = shards.iter().map(|s| s.global.len()).sum();
            if let Some(ev) = trace.events().iter().find(|ev| ev.task.index() >= tasks) {
                return Err(TraceError::UnknownTask { task: ev.task, tasks });
            }
        }
        Ok(shards
            .iter()
            .map(|s| {
                let keys: Vec<u64> = s.global.iter().map(|&g| g as u64).collect();
                match self {
                    Workload::Periodic { jitter } => {
                        ArrivalStream::with_jitter_keyed(s.taskset, horizon, *jitter, &keys)
                    }
                    Workload::Generated(gen) => gen.stream_keyed(s.taskset, horizon, &keys),
                    Workload::Replay(trace) => ArrivalStream::replay_keyed(s.taskset, trace, &keys),
                }
            })
            .collect())
    }
}

/// A builder-style run description: workload + horizon.
///
/// Construct with [`periodic`](RunSpec::periodic),
/// [`jittered`](RunSpec::jittered), [`generated`](RunSpec::generated) or
/// [`replay`](RunSpec::replay), then set the horizon with
/// [`until`](RunSpec::until). Replay specs default to the trace's own
/// horizon and may be truncated, never extended.
#[derive(Debug, Clone)]
pub struct RunSpec {
    workload: Workload,
    horizon: Option<SimTime>,
}

impl RunSpec {
    /// Strictly periodic releases (the task set's periods, no jitter).
    pub fn periodic() -> Self {
        RunSpec { workload: Workload::Periodic { jitter: ReleaseJitter::None }, horizon: None }
    }

    /// Periodic releases with per-release jitter.
    pub fn jittered(jitter: ReleaseJitter) -> Self {
        RunSpec { workload: Workload::Periodic { jitter }, horizon: None }
    }

    /// Releases from a seeded generator.
    pub fn generated(spec: GenSpec) -> Self {
        RunSpec { workload: Workload::Generated(spec), horizon: None }
    }

    /// Byte-exact replay of `trace`. The horizon defaults to the trace's
    /// own horizon; [`until`](RunSpec::until) may truncate it.
    pub fn replay(trace: Trace) -> Self {
        RunSpec { workload: Workload::Replay(trace), horizon: None }
    }

    /// Sets the horizon: releases stop there, and final accounting runs
    /// there.
    #[must_use]
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// The workload shape.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The explicitly set horizon, if any.
    pub fn horizon(&self) -> Option<SimTime> {
        match (&self.workload, self.horizon) {
            (Workload::Replay(trace), None) => Some(trace.horizon()),
            (_, h) => h,
        }
    }

    /// The horizon, or [`CoreError::InvalidConfig`] when the spec does not
    /// determine one (periodic/generated workloads need
    /// [`until`](RunSpec::until)), sets a replay horizon past the trace's,
    /// or names a workload the lazy streams cannot run to that horizon: a
    /// jitter whose max delay reaches it (see `ReleaseJitter::validate`) or
    /// an out-of-range generator (see `GenSpec::validate`).
    pub fn required_horizon(&self) -> Result<SimTime> {
        let horizon = match (&self.workload, self.horizon) {
            (Workload::Replay(trace), Some(until)) if until > trace.horizon() => {
                return Err(CoreError::InvalidConfig(format!(
                    "replay horizon {:.3} ms is past the trace horizon {:.3} ms",
                    until.as_millis_f64(),
                    trace.horizon().as_millis_f64()
                )));
            }
            _ => self.horizon().ok_or_else(|| {
                CoreError::InvalidConfig(
                    "run spec has no horizon: call RunSpec::until(..)".to_string(),
                )
            })?,
        };
        match &self.workload {
            Workload::Periodic { jitter } => jitter.validate(horizon),
            Workload::Generated(gen) => gen.validate(),
            Workload::Replay(_) => Ok(()),
        }
        .map_err(CoreError::InvalidConfig)?;
        Ok(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_spec_requires_explicit_horizon() {
        let spec = RunSpec::periodic();
        assert!(spec.required_horizon().is_err());
        let spec = spec.until(SimTime::from_millis(10));
        assert_eq!(spec.required_horizon().unwrap(), SimTime::from_millis(10));
    }

    #[test]
    fn replay_spec_defaults_to_trace_horizon() {
        let trace = Trace::new(SimTime::from_millis(25), Vec::new()).expect("empty trace is valid");
        let spec = RunSpec::replay(trace);
        assert_eq!(spec.horizon(), Some(SimTime::from_millis(25)));
        let truncated = spec.clone().until(SimTime::from_millis(5));
        assert_eq!(truncated.required_horizon().unwrap(), SimTime::from_millis(5));
        let extended = spec.until(SimTime::from_millis(30));
        let err = extended.required_horizon().expect_err("a replay cannot outrun its trace");
        assert!(err.to_string().contains("replay horizon"), "{err}");
    }
}
