//! Ring-buffer sink for tests, examples and short fleet runs.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{TelemetryEvent, TelemetrySink};

/// Default ring capacity: enough for every event of a typical test run while
/// bounding memory on long ones.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Events per storage chunk: 32 KiB of events, well under glibc's initial
/// 128 KiB mmap threshold. The buffer grows and shrinks a chunk at a time, so
/// it never reallocates and copies a large block, and never maps and frees
/// one. Freeing a mapped block raises glibc's mmap threshold, after which
/// large buffers are carved from the heap and regrown by copying, and how
/// much of that memory stays resident then depends on how the worker
/// threads' allocations interleave: an unbounded fleet sink's peak RSS moved
/// by 18 MiB between runs of one binary at one seed.
const CHUNK: usize = {
    let events = (32 << 10) / std::mem::size_of::<TelemetryEvent>();
    if events == 0 {
        1
    } else {
        events
    }
};

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
    /// The buffered events in record order, [`CHUNK`] to a chunk. Only the
    /// last chunk may be partly filled from the back and only the first
    /// partly drained from the front; only a sole chunk may be empty.
    chunks: VecDeque<VecDeque<TelemetryEvent>>,
    len: usize,
    capacity: usize,
    recorded: u64,
}

impl MemoryState {
    /// The last chunk, after starting a new one if it is full.
    fn back_with_room(&mut self) -> &mut VecDeque<TelemetryEvent> {
        if !matches!(self.chunks.back(), Some(chunk) if chunk.len() < CHUNK) {
            self.chunks.push_back(VecDeque::with_capacity(CHUNK));
        }
        self.chunks.back_mut().expect("a chunk with room is at the back")
    }

    /// Moves `events` onto the back, a chunk at a time.
    fn append(&mut self, events: &mut Vec<TelemetryEvent>) {
        self.len += events.len();
        let mut incoming = events.drain(..);
        while incoming.len() > 0 {
            let back = self.back_with_room();
            let room = CHUNK - back.len();
            back.extend(incoming.by_ref().take(room));
        }
    }

    /// Drops the oldest event; a chunk it empties is freed unless it is
    /// the last one.
    fn pop_front(&mut self) {
        let Some(front) = self.chunks.front_mut() else { return };
        if front.pop_front().is_some() {
            self.len -= 1;
        }
        if front.is_empty() && self.chunks.len() > 1 {
            self.chunks.pop_front();
        }
    }
}

impl MemorySink {
    /// A ring buffer holding at most `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            state: Arc::new(Mutex::new(MemoryState {
                chunks: VecDeque::new(),
                len: 0,
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
        self.lock().len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().len == 0
    }

    /// Total number of events ever recorded (including ones the ring has
    /// since dropped).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Snapshot of the buffered events in record order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.lock().chunks.iter().flatten().cloned().collect()
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
        if state.len == state.capacity {
            state.pop_front();
        }
        state.len += 1;
        state.back_with_room().push_back(event.clone());
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        let mut state = self.lock();
        state.recorded += events.len() as u64;
        if state.capacity != usize::MAX {
            // Pre-trim so the ring never transiently exceeds its bound.
            let incoming = events.len().min(state.capacity);
            events.drain(..events.len() - incoming);
            let keep = state.capacity - incoming;
            while state.len > keep {
                state.pop_front();
            }
        }
        state.append(events);
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
    fn chunked_ring_matches_a_plain_deque_across_chunk_boundaries() {
        for capacity in [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, usize::MAX] {
            let mut sink = MemorySink::with_capacity(capacity);
            let mut oracle = VecDeque::new();
            let mut next = 0u64;
            // Single records and batches of every size class, so chunks
            // fill, spill, and empty under the ring bound.
            for (step, size) in [1, CHUNK + 2, 3, 2 * CHUNK + 1, 1, CHUNK].into_iter().enumerate() {
                let mut batch: Vec<TelemetryEvent> =
                    (next..next + size as u64).map(event).collect();
                next += size as u64;
                oracle.extend(batch.iter().cloned());
                while oracle.len() > capacity {
                    oracle.pop_front();
                }
                if size == 1 {
                    sink.record(&batch[0]);
                } else {
                    sink.record_batch(&mut batch);
                }
                assert_eq!(sink.len(), oracle.len(), "capacity {capacity}, step {step}");
                assert_eq!(sink.events(), oracle.iter().cloned().collect::<Vec<_>>());
            }
            assert_eq!(sink.recorded(), next);
        }
    }
}
