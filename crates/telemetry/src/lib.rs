#![forbid(unsafe_code)]
//! # daris-telemetry
//!
//! Structured observability for the DARIS simulator: a zero-cost-when-disabled
//! event stream threaded through all three layers (device engine, per-device
//! scheduler, cluster dispatcher), plus ready-made consumers.
//!
//! The design splits observability into two channels with very different
//! determinism contracts:
//!
//! * **Sim-time events** ([`TelemetryEvent`]): every timestamp is a
//!   [`daris_gpu::SimTime`], every payload is derived from simulation state,
//!   and the producer layers emit them in a fixed order regardless of worker
//!   thread count. A recorded stream is therefore byte-identical across runs
//!   and across `--threads` settings, and attaching a sink never changes the
//!   simulation outcome (sinks only observe; they cannot feed anything back).
//! * **Wall-clock self-profiling** ([`WallClockProfiler`]): explicitly
//!   nondeterministic, measures where a cluster sync round spends *host* time
//!   (span fan-out, admission retries, migration scan, merge). It exists for
//!   the benchmark harness only and carries the one sanctioned wall-clock
//!   waiver outside `daris-bench`.
//!
//! Three sinks ship with the crate:
//!
//! * [`MemorySink`] — bounded ring buffer, for tests and for the dispatcher's
//!   internal per-device buffers;
//! * [`ChromeTraceSink`] — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`), one process per device, one track per context plus
//!   scheduler/copy-engine/round tracks;
//! * [`WindowedMetrics`] — time-windowed gauges (arrival rate, per-priority
//!   queue depth, rolling deadline-miss rate, per-device utilization), so a
//!   burst shows up as the windows where it happened.
//!
//! Device-layer events are [`DeviceEvent`]s, defined once in `daris-gpu`
//! and carried verbatim as [`EventKind::Device`].
//!
//! # Example
//!
//! ```
//! use daris_gpu::SimTime;
//! use daris_telemetry::{DeviceEvent, EventKind, MemorySink, SinkHandle, TelemetryEvent};
//!
//! let sink = MemorySink::unbounded();
//! let handle = SinkHandle::new(sink.clone());
//! handle.record(TelemetryEvent {
//!     at: SimTime::from_millis(1),
//!     device: 0,
//!     kind: EventKind::Device(DeviceEvent::Replan { computing: 2, utilization: 0.5 }),
//! });
//! assert_eq!(sink.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod event;
mod memory;
mod profile;
mod sink;
mod windowed;

pub use chrome::{ChromeTraceSink, CHROME_SCHEMA_VERSION};
pub use daris_gpu::DeviceEvent;
pub use event::{
    AdmissionTest, EventKind, RoundPhase, TelemetryEvent, CLUSTER_DEVICE, RACK_DEVICE_BASE,
};
pub use memory::MemorySink;
pub use profile::{PhaseTotal, WallClockProfiler};
pub use sink::{SinkHandle, TelemetrySink};
pub use windowed::{WindowSnapshot, WindowedMetrics};
