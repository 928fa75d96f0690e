//! The telemetry event taxonomy.
//!
//! Events are grouped by producing layer: the device engine (`daris-gpu`),
//! the per-device scheduler (`daris-core`), and the cluster dispatcher
//! (`daris-cluster`). Every timestamp is sim-time; the stream a run produces
//! is part of the byte-identical determinism contract.

use std::fmt;

use daris_gpu::{DeviceEvent, SimDuration, SimTime};
use daris_workload::{Priority, TaskId};

/// Device index used for fleet-level events that do not belong to any single
/// device (round-phase marks, retry and migration decisions).
pub const CLUSTER_DEVICE: u32 = u32::MAX;

/// Base of the rack-track device-id range: rack `r` records its rack-level
/// events (epoch load summaries) under device id `RACK_DEVICE_BASE + r`.
/// Real device indices stay far below this range, and [`CLUSTER_DEVICE`]
/// stays above it, so the three id spaces never collide.
pub const RACK_DEVICE_BASE: u32 = 0xFFFF_0000;

/// One telemetry record: a sim-time instant, the device it happened on, and
/// the event payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Device index within the fleet (0 for single-GPU runs,
    /// [`CLUSTER_DEVICE`] for fleet-level events).
    pub device: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Which admission test (Sec. IV of the paper) rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionTest {
    /// Eq. 11 failed: admitting the low-priority job would push its context
    /// past the per-context utilization bound.
    LpUtilization,
    /// Eq. 12 failed: the high-priority interference bound does not hold.
    HpUtilization,
}

impl fmt::Display for AdmissionTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionTest::LpUtilization => f.write_str("Eq. 11"),
            AdmissionTest::HpUtilization => f.write_str("Eq. 12"),
        }
    }
}

/// Phases of one cluster sync round, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RoundPhase {
    /// Per-device `run_span` fan-out to the worker pool.
    Span,
    /// Boundary admission retries of jobs rejected during the span.
    Retry,
    /// Migration scan and rebalance of queued low-priority jobs.
    Migration,
    /// Device-index-ordered merge of per-device results.
    Merge,
}

impl RoundPhase {
    /// All phases in protocol order.
    pub const ALL: [RoundPhase; 4] =
        [RoundPhase::Span, RoundPhase::Retry, RoundPhase::Migration, RoundPhase::Merge];

    /// Stable lowercase name, used as a JSON key by the exporters and the
    /// benchmark harness.
    pub fn name(self) -> &'static str {
        match self {
            RoundPhase::Span => "span",
            RoundPhase::Retry => "retry",
            RoundPhase::Migration => "migration",
            RoundPhase::Merge => "merge",
        }
    }
}

impl fmt::Display for RoundPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The event payload, grouped by producing layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    // ---- device layer (daris-gpu) ----
    /// A device event, carried verbatim from the engine's drain.
    Device(DeviceEvent),

    // ---- scheduler layer (daris-core) ----
    /// A released job passed its admission test and was bound to a context.
    AdmissionAccepted {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Priority level of the job.
        priority: Priority,
        /// Context the job was bound to.
        context: u32,
        /// Whether the job runs away from its task's home context.
        migrated: bool,
    },
    /// A released job failed its admission test.
    AdmissionRejected {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Priority level of the job.
        priority: Priority,
        /// The admission test that failed.
        test: AdmissionTest,
    },
    /// A job was finally dropped (charged as rejected in the metrics). In a
    /// cluster this only happens after boundary retries are exhausted.
    JobRejected {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Priority level of the job.
        priority: Priority,
    },
    /// One pipeline stage of a job was submitted to the device.
    StageDispatched {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Zero-based stage index submitted.
        stage: u32,
        /// Total number of stages of the job.
        stage_count: u32,
        /// Context the stage runs in.
        context: u32,
        /// Stream the stage runs on.
        stream: u32,
        /// Device work-item tag assigned to the stage.
        tag: u64,
    },
    /// A non-final stage completed; the job yields at the stage boundary
    /// (DARIS's preemption point) before its next stage is dispatched.
    StageBoundary {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// The stage that just completed.
        completed_stage: u32,
        /// Whether the stage missed its virtual (per-stage) deadline.
        missed_virtual: bool,
    },
    /// A job's final stage completed.
    JobCompleted {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Priority level of the job.
        priority: Priority,
        /// Whether the job missed its absolute deadline.
        missed: bool,
        /// Response time (completion minus release).
        response: SimDuration,
    },
    /// A job completed after its absolute deadline (also reported via
    /// [`EventKind::JobCompleted`]'s `missed` flag; this instant exists so
    /// misses stand out as their own track mark).
    DeadlineMissed {
        /// The owning task.
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Priority level of the job.
        priority: Priority,
    },
    /// The scheduler's Overload/HPA admission mode flipped at runtime,
    /// driven by its load detector's burst signal (adaptive control plane).
    AdmissionModeChanged {
        /// Whether HP-protective admission (Overload+HPA) is now active.
        hpa_enabled: bool,
        /// The detector's last closed-window rate over the nominal rate.
        load_ratio: f64,
    },

    // ---- fleet layer (daris-cluster) ----
    /// One device's `run_span` covered the sim-time interval `[from, to]`.
    DeviceSpan {
        /// Span start.
        from: SimTime,
        /// Span end (the round boundary).
        to: SimTime,
    },
    /// A sync-round phase executed at a round boundary. `detail` is
    /// phase-specific: jobs retried (retry), jobs moved (migration), devices
    /// merged (span/merge).
    PhaseMark {
        /// Zero-based round number.
        round: u64,
        /// Which phase.
        phase: RoundPhase,
        /// Phase-specific count.
        detail: u64,
    },
    /// A boundary retry offered a rejected job to another device.
    RetryAttempt {
        /// The owning task (global cluster task id).
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Device that originally rejected the job.
        home: u32,
        /// Device the retry offered the job to.
        target: u32,
        /// Whether the target admitted it.
        admitted: bool,
    },
    /// The rebalancer moved a queued low-priority job between devices.
    Migration {
        /// The owning task (global cluster task id).
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Source device.
        from: u32,
        /// Destination device.
        to: u32,
    },
    /// One rack's load summary, exchanged at a cross-rack rebalance epoch.
    /// Recorded under device id [`RACK_DEVICE_BASE`]` + rack`.
    RackLoad {
        /// Zero-based rack index.
        rack: u32,
        /// Round number the epoch boundary fell on.
        round: u64,
        /// Total queued (undispatched) ready stages across the rack.
        backlog: u64,
        /// Total idle streams across the rack.
        idle_streams: u64,
    },
    /// The epoch rebalancer moved a queued job between racks.
    RackMigration {
        /// The owning task (global cluster task id).
        task: TaskId,
        /// Zero-based release index of the job.
        release_index: u64,
        /// Source device.
        from: u32,
        /// Destination device.
        to: u32,
        /// Rack the source device belongs to.
        from_rack: u32,
        /// Rack the destination device belongs to.
        to_rack: u32,
    },
    /// The elastic dispatcher re-scaled the sync quantum at a round
    /// boundary; the new quantum governs the *following* round.
    QuantumChanged {
        /// Zero-based round whose boundary applied the change.
        round: u64,
        /// The new sync quantum.
        quantum: SimDuration,
        /// Mean online-device load fraction that drove the choice.
        load: f64,
    },
    /// The autoscaler brought a drained device back online.
    DeviceJoined {
        /// The rejoined device.
        device: u32,
        /// Zero-based round boundary of the join.
        round: u64,
        /// Devices online after the join.
        online: u32,
    },
    /// The autoscaler drained a device: it stops receiving releases and its
    /// queued-unstarted jobs are re-placed through the migration path.
    DeviceDrained {
        /// The drained device.
        device: u32,
        /// Zero-based round boundary of the drain.
        round: u64,
        /// Devices remaining online.
        online: u32,
        /// Queued jobs moved off the drained device.
        moved: u64,
    },
}

impl EventKind {
    /// Stable lowercase name of the event kind (aggregation key).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Device(device) => match device {
                DeviceEvent::CopyInStarted { .. } => "copy-in",
                DeviceEvent::CopyOutStarted { .. } => "copy-out",
                DeviceEvent::ItemStarted { .. } => "item-start",
                DeviceEvent::KernelFinished { .. } => "kernel",
                DeviceEvent::ItemFinished { .. } => "item-finish",
                DeviceEvent::Replan { .. } => "replan",
            },
            EventKind::AdmissionAccepted { .. } => "admit",
            EventKind::AdmissionRejected { .. } => "reject",
            EventKind::JobRejected { .. } => "drop",
            EventKind::StageDispatched { .. } => "dispatch",
            EventKind::StageBoundary { .. } => "stage-boundary",
            EventKind::JobCompleted { .. } => "complete",
            EventKind::DeadlineMissed { .. } => "miss",
            EventKind::AdmissionModeChanged { .. } => "admission-mode",
            EventKind::DeviceSpan { .. } => "device-span",
            EventKind::PhaseMark { .. } => "phase",
            EventKind::RetryAttempt { .. } => "retry",
            EventKind::Migration { .. } => "migrate",
            EventKind::RackLoad { .. } => "rack-load",
            EventKind::RackMigration { .. } => "rack-migrate",
            EventKind::QuantumChanged { .. } => "quantum",
            EventKind::DeviceJoined { .. } => "device-join",
            EventKind::DeviceDrained { .. } => "device-drain",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(AdmissionTest::LpUtilization.to_string(), "Eq. 11");
        assert_eq!(AdmissionTest::HpUtilization.to_string(), "Eq. 12");
        assert_eq!(RoundPhase::Span.to_string(), "span");
        assert_eq!(RoundPhase::ALL.len(), 4);
    }

    #[test]
    fn kind_names_are_stable() {
        let kind = EventKind::Device(DeviceEvent::Replan { computing: 1, utilization: 0.25 });
        assert_eq!(kind.name(), "replan");
        let kind = EventKind::Device(DeviceEvent::KernelFinished {
            tag: 1,
            stream: 0,
            context: 0,
            label: None,
        });
        assert_eq!(kind.name(), "kernel");
        let kind = EventKind::DeviceSpan { from: SimTime::ZERO, to: SimTime::from_millis(1) };
        assert_eq!(kind.name(), "device-span");
        let kind = EventKind::RackLoad { rack: 2, round: 7, backlog: 3, idle_streams: 1 };
        assert_eq!(kind.name(), "rack-load");
        let kind = EventKind::AdmissionModeChanged { hpa_enabled: true, load_ratio: 2.0 };
        assert_eq!(kind.name(), "admission-mode");
        let kind = EventKind::QuantumChanged {
            round: 3,
            quantum: SimDuration::from_micros(500),
            load: 0.8,
        };
        assert_eq!(kind.name(), "quantum");
        let kind = EventKind::DeviceJoined { device: 4, round: 9, online: 8 };
        assert_eq!(kind.name(), "device-join");
        let kind = EventKind::DeviceDrained { device: 4, round: 9, online: 7, moved: 2 };
        assert_eq!(kind.name(), "device-drain");
    }

    #[test]
    fn rack_device_ids_never_collide() {
        // Room for ~64k racks above any realistic fleet index, below the
        // cluster pseudo-device. Checked through locals so the assertions
        // stay runtime comparisons over the const values.
        let (base, cluster) = (RACK_DEVICE_BASE, CLUSTER_DEVICE);
        assert!(base > 1 << 24);
        assert!(base + 0xFFFE < cluster);
    }
}
