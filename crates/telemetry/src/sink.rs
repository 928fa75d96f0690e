//! The sink contract and the cloneable handle the simulator layers hold.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::TelemetryEvent;

/// A consumer of telemetry events.
///
/// # Contract
///
/// * `record` is called in a deterministic order for a given configuration:
///   producers emit in simulation order on a single device, and the cluster
///   dispatcher forwards per-device buffers in device-index order at round
///   boundaries, so the stream is identical at any worker thread count.
/// * A sink must never feed anything back into the simulation; it observes
///   state, it does not own any. Attaching or detaching a sink must not
///   change a run's `summary_hash`.
/// * Implementations should be cheap: `record` runs inside the simulation
///   loop whenever a sink is attached. The disabled path (no sink) costs one
///   `Option` check and skips event construction entirely.
pub trait TelemetrySink: fmt::Debug + Send {
    /// Consumes one event.
    fn record(&mut self, event: &TelemetryEvent);

    /// Consumes a batch of events in order, draining `events`. Equivalent to
    /// calling [`record`](Self::record) once per event — the default does
    /// exactly that — but lets buffering sinks take the whole batch in one
    /// move instead of one clone per event. The cluster dispatcher's round
    /// merge hands entire per-device buffers over through this path.
    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        for event in events.drain(..) {
            self.record(&event);
        }
    }
}

/// Shared, cloneable handle to a [`TelemetrySink`].
///
/// Configuration types (`DarisConfig`, `ClusterConfig`) store an
/// `Option<SinkHandle>`; cloning the handle shares the underlying sink, so
/// the caller keeps one clone to read results from while the simulator
/// records into another.
#[derive(Debug, Clone)]
pub struct SinkHandle {
    inner: Arc<Mutex<Box<dyn TelemetrySink>>>,
}

impl SinkHandle {
    /// Wraps a sink in a shareable handle.
    pub fn new(sink: impl TelemetrySink + 'static) -> Self {
        SinkHandle { inner: Arc::new(Mutex::new(Box::new(sink))) }
    }

    /// Records one event into the wrapped sink.
    pub fn record(&self, event: TelemetryEvent) {
        self.inner.lock().expect("telemetry sink lock poisoned").record(&event);
    }

    /// Records a batch of events in order, draining `events`, under a single
    /// lock acquisition (one per batch instead of one per event).
    pub fn record_batch(&self, events: &mut Vec<TelemetryEvent>) {
        if events.is_empty() {
            return;
        }
        self.inner.lock().expect("telemetry sink lock poisoned").record_batch(events);
    }
}

/// Handles compare by identity: two handles are equal iff they share the
/// same underlying sink. (Configs derive `PartialEq`; structural comparison
/// of a trait object is neither possible nor wanted.)
impl PartialEq for SinkHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceEvent, EventKind, MemorySink};
    use daris_gpu::SimTime;

    fn event() -> TelemetryEvent {
        TelemetryEvent {
            at: SimTime::from_micros(5),
            device: 0,
            kind: EventKind::Device(DeviceEvent::Replan { computing: 1, utilization: 0.5 }),
        }
    }

    #[test]
    fn handle_shares_the_sink_across_clones() {
        let sink = MemorySink::unbounded();
        let handle = SinkHandle::new(sink.clone());
        let clone = handle.clone();
        handle.record(event());
        clone.record(event());
        assert_eq!(sink.len(), 2);
        assert_eq!(handle, clone);
    }

    #[test]
    fn distinct_handles_compare_unequal() {
        let a = SinkHandle::new(MemorySink::unbounded());
        let b = SinkHandle::new(MemorySink::unbounded());
        assert_ne!(a, b);
    }
}
