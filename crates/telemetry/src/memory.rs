//! In-memory sink for tests, examples and short fleet runs.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::{TelemetryEvent, TelemetrySink};

/// Events per storage chunk: 32 KiB of events, well under glibc's initial
/// 128 KiB mmap threshold. The buffer grows a chunk at a time, so it never
/// reallocates and copies a large block, and never maps and frees one.
/// Freeing a mapped block raises glibc's mmap threshold, after which large
/// buffers are carved from the heap and regrown by copying, and how much of
/// that memory stays resident then depends on how the worker threads'
/// allocations interleave: an unbounded fleet sink's peak RSS moved by
/// 18 MiB between runs of one binary at one seed.
const CHUNK: usize = {
    let events = (32 << 10) / std::mem::size_of::<TelemetryEvent>();
    if events == 0 {
        1
    } else {
        events
    }
};

/// An in-memory buffer that keeps every telemetry event.
///
/// Cloning shares the buffer: keep one clone, hand another to
/// [`SinkHandle::new`](crate::SinkHandle::new), and read the recorded events
/// back after the run. Memory grows with the run, so use it for tests,
/// examples and short runs.
#[derive(Debug, Clone)]
pub struct MemorySink {
    state: Arc<Mutex<MemoryState>>,
}

#[derive(Debug, Default)]
struct MemoryState {
    /// The buffered events in record order, [`CHUNK`] to a chunk; only the
    /// last chunk may be partly filled.
    chunks: Vec<Vec<TelemetryEvent>>,
    len: usize,
}

impl MemoryState {
    /// The last chunk, after starting a new one if it is full.
    fn back_with_room(&mut self) -> &mut Vec<TelemetryEvent> {
        if !matches!(self.chunks.last(), Some(chunk) if chunk.len() < CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("a chunk with room is at the back")
    }
}

impl MemorySink {
    /// An empty sink; it keeps every event it is handed.
    pub fn unbounded() -> Self {
        MemorySink { state: Arc::default() }
    }

    fn lock(&self) -> MutexGuard<'_, MemoryState> {
        self.state.lock().expect("memory sink lock poisoned")
    }

    /// Number of events buffered.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().len == 0
    }

    /// Total number of events recorded; the sink keeps every one, so this is
    /// [`len`](Self::len) widened to `u64`.
    pub fn recorded(&self) -> u64 {
        self.lock().len as u64
    }

    /// Snapshot of the buffered events in record order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.lock().chunks.iter().flatten().cloned().collect()
    }
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, event: &TelemetryEvent) {
        let mut state = self.lock();
        state.len += 1;
        state.back_with_room().push(event.clone());
    }

    /// Moves `events` onto the back, a chunk at a time.
    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        let mut state = self.lock();
        state.len += events.len();
        let mut incoming = events.drain(..);
        while incoming.len() > 0 {
            let back = state.back_with_room();
            let room = CHUNK - back.len();
            back.extend(incoming.by_ref().take(room));
        }
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
    fn batch_record_matches_per_event_record() {
        // Same events through record() and record_batch() must leave the two
        // sinks indistinguishable.
        let mut one = MemorySink::unbounded();
        let mut batched = MemorySink::unbounded();
        let events: Vec<TelemetryEvent> = (1..=5).map(event).collect();
        for e in &events {
            one.record(e);
        }
        let mut batch = events.clone();
        batched.record_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(one.events(), batched.events());
        assert_eq!(one.recorded(), batched.recorded());
    }

    #[test]
    fn chunks_match_a_plain_vec_across_chunk_boundaries() {
        let mut sink = MemorySink::unbounded();
        let mut oracle = Vec::new();
        let mut next = 0u64;
        // Single records and batches of every size class, so chunks fill
        // exactly, spill into the next, and a batch spans several.
        for (step, size) in
            [1, CHUNK + 2, 3, 2 * CHUNK + 1, 1, CHUNK - 8, CHUNK].into_iter().enumerate()
        {
            let mut batch: Vec<TelemetryEvent> = (next..next + size as u64).map(event).collect();
            next += size as u64;
            oracle.extend(batch.iter().cloned());
            if size == 1 {
                sink.record(&batch[0]);
            } else {
                sink.record_batch(&mut batch);
            }
            assert_eq!(sink.len(), oracle.len(), "step {step}");
            assert_eq!(sink.events(), oracle, "step {step}");
        }
        assert_eq!(sink.recorded(), next);
    }
}
