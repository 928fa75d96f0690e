//! Ring-buffer sink for tests and for the dispatcher's per-device buffers.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{TelemetryEvent, TelemetrySink};

/// Default ring capacity: enough for every event of a typical test run while
/// bounding memory on long ones.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A bounded in-memory ring buffer of telemetry events.
///
/// Cloning shares the buffer: keep one clone, hand another to
/// [`SinkHandle::new`](crate::SinkHandle::new), and read the recorded events
/// back after the run. When the ring is full the oldest event is dropped;
/// [`recorded`](MemorySink::recorded) still counts every event ever seen.
#[derive(Debug, Clone)]
pub struct MemorySink {
    state: Arc<Mutex<MemoryState>>,
}

#[derive(Debug)]
struct MemoryState {
    events: VecDeque<TelemetryEvent>,
    capacity: usize,
    recorded: u64,
}

impl MemorySink {
    /// A ring buffer holding at most `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            state: Arc::new(Mutex::new(MemoryState {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                recorded: 0,
            })),
        }
    }

    /// A sink that keeps every event (no ring bound). Use for short runs and
    /// tests only.
    pub fn unbounded() -> Self {
        MemorySink::with_capacity(usize::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, MemoryState> {
        self.state.lock().expect("memory sink lock poisoned")
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Total number of events ever recorded (including ones the ring has
    /// since dropped).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Snapshot of the buffered events in record order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Moves every buffered event, in record order, onto the end of `out`,
    /// leaving the buffer empty. Both sides keep their allocations, so the
    /// cluster dispatcher's round merge, which drains each device's buffer
    /// into one reused `Vec`, regrows neither from empty every round.
    pub fn take_all(&self, out: &mut Vec<TelemetryEvent>) {
        out.extend(self.lock().events.drain(..));
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        MemorySink::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, event: &TelemetryEvent) {
        let mut state = self.lock();
        state.recorded += 1;
        if state.events.len() == state.capacity {
            state.events.pop_front();
        }
        state.events.push_back(event.clone());
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        let mut state = self.lock();
        state.recorded += events.len() as u64;
        if state.capacity != usize::MAX {
            // Pre-trim so the ring never transiently exceeds its bound.
            let incoming = events.len().min(state.capacity);
            events.drain(..events.len() - incoming);
            let keep = state.capacity - incoming;
            while state.events.len() > keep {
                state.events.pop_front();
            }
        }
        state.events.reserve(events.len());
        state.events.extend(events.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceEvent, EventKind};
    use daris_gpu::SimTime;

    fn event(at_us: u64) -> TelemetryEvent {
        TelemetryEvent {
            at: SimTime::from_micros(at_us),
            device: 0,
            kind: EventKind::Device(DeviceEvent::Replan { computing: 1, utilization: 0.1 }),
        }
    }

    #[test]
    fn ring_drops_oldest_but_counts_everything() {
        let mut sink = MemorySink::with_capacity(2);
        sink.record(&event(1));
        sink.record(&event(2));
        sink.record(&event(3));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.recorded(), 3);
        let events = sink.events();
        assert_eq!(events[0].at, SimTime::from_micros(2));
        assert_eq!(events[1].at, SimTime::from_micros(3));
    }

    #[test]
    fn batch_record_matches_per_event_record() {
        // Same events through record() and record_batch() must leave the two
        // sinks indistinguishable — including ring-bound behavior.
        for capacity in [2usize, 3, usize::MAX] {
            let mut one = MemorySink::with_capacity(capacity);
            let mut batched = MemorySink::with_capacity(capacity);
            let events: Vec<TelemetryEvent> = (1..=5).map(event).collect();
            for e in &events {
                one.record(e);
            }
            let mut batch = events.clone();
            batched.record_batch(&mut batch);
            assert!(batch.is_empty());
            assert_eq!(one.events(), batched.events(), "capacity {capacity}");
            assert_eq!(one.recorded(), batched.recorded(), "capacity {capacity}");
        }
    }

    #[test]
    fn take_all_is_drain_by_buffer_move() {
        let mut sink = MemorySink::unbounded();
        sink.record(&event(1));
        sink.record(&event(2));
        let mut taken = vec![event(0)];
        sink.take_all(&mut taken);
        assert_eq!(taken.len(), 3);
        assert_eq!(taken[1].at, SimTime::from_micros(1));
        assert!(sink.is_empty());
        assert_eq!(sink.recorded(), 2);
        // The ring keeps its allocation for the next round.
        assert!(sink.lock().events.capacity() >= 2);
    }
}
