//! The discrete-event GPU engine.
//!
//! The engine advances simulated time by repeatedly finding the next state
//! transition (a kernel finishing its launch phase, a kernel exhausting its
//! work, a copy completing), applying it, and re-planning SM allocations for
//! everything still running. SM allocation follows a two-level model:
//!
//! 1. **Within a context**: the context's SM quota is water-filled across its
//!    concurrently computing kernels, capped by each kernel's parallelism.
//! 2. **Across contexts**: if the summed allocations of busy contexts exceed
//!    the physical SM count (oversubscription), every allocation is scaled
//!    down proportionally and an [`InterferenceModel`](crate::InterferenceModel)
//!    efficiency factor is applied.
//!
//! Kernel progress is the time-integral of its allocated SMs; a kernel
//! completes when the integral reaches its `work`.
//!
//! # Event calendar
//!
//! Time advancement is driven by a [`BinaryHeap`] **event calendar** of
//! `(SimTime, EventKind)` entries with *lazy invalidation*: every work item
//! carries an epoch counter that is bumped whenever its state or predicted
//! finish time changes, and calendar entries record the epoch they were
//! scheduled under. Stale entries (mismatched epoch) are discarded when they
//! surface at the top of the heap, so [`Gpu::next_event_time`] is a plain
//! heap peek instead of a scan over all in-flight items.
//!
//! * **Launch** and **copy** completions are scheduled once: their remaining
//!   times shrink by exact integer-nanosecond subtraction, so the absolute
//!   completion instant never moves.
//! * **Compute** completions depend on the floating-point SM rate, which can
//!   change on every [`replan`](Gpu::submit); they are rescheduled (epoch
//!   bump + new entry) whenever allocations are recomputed — with the same
//!   arithmetic the previous scan-based engine used, keeping event times
//!   bit-identical (pinned by the golden-trace tests).
//!
//! Bookkeeping that used to scan every pending item is incremental: a
//! `running` set (at most one item per stream) bounds progress application
//! and transition checks, and per-context *computing* sets with dirty flags
//! let `replan` reuse cached water-filling for contexts whose membership did
//! not change.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use crate::context::Context;
use crate::kernel::{KernelDesc, KernelPhase, WorkItem, WorkItemId};
use crate::stream::Stream;
use crate::{
    ContextId, DeviceEvent, GpuError, GpuSpec, MemoryPool, Result, SimDuration, SimTime, StreamId,
    XorShiftRng,
};

/// Work below this many SM-microseconds counts as finished (guards against
/// floating-point residue keeping a kernel alive forever).
const WORK_EPSILON: f64 = 1e-6;

/// Completion notification for a submitted [`WorkItem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Caller-chosen tag from the submitted work item.
    pub tag: u64,
    /// Engine-assigned item id.
    pub item: WorkItemId,
    /// Stream the item ran on.
    pub stream: StreamId,
    /// Context owning that stream.
    pub context: ContextId,
    /// When the item was submitted to the stream.
    pub submitted_at: SimTime,
    /// When the item started occupying device resources (copy-in or first
    /// kernel launch), i.e. when it reached the front of its stream.
    pub started_at: SimTime,
    /// When the item fully completed (after its device-to-host copy).
    pub finished_at: SimTime,
}

impl Completion {
    /// Time from reaching the front of the stream to completion: the
    /// "execution time" that DARIS feeds into its MRET estimator.
    pub fn execution_time(&self) -> SimDuration {
        self.finished_at - self.started_at
    }
}

#[derive(Debug, Clone, PartialEq)]
enum ItemState {
    /// Behind other items in its stream.
    Queued,
    /// At the front of its stream, waiting for the copy engine.
    PendingCopyIn,
    /// Host-to-device copy in flight.
    CopyingIn,
    /// Executing kernel `kernel_index`.
    Running(KernelPhase),
    /// Waiting for the copy engine for its output transfer.
    PendingCopyOut,
    /// Device-to-host copy in flight.
    CopyingOut,
    /// Finished (kept only until reported).
    Done,
}

#[derive(Debug, Clone)]
struct ItemInstance {
    tag: u64,
    stream: StreamId,
    context: ContextId,
    spec: WorkItem,
    submitted_at: SimTime,
    started_at: Option<SimTime>,
    state: ItemState,
    kernel_index: usize,
    launch_remaining: SimDuration,
    work_remaining: f64,
    /// Lazy-invalidation epoch: calendar entries scheduled for this item are
    /// only honoured while their recorded epoch matches.
    epoch: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyDirection {
    HostToDevice,
    DeviceToHost,
}

#[derive(Debug, Clone)]
struct ActiveCopy {
    item: WorkItemId,
    direction: CopyDirection,
    remaining: SimDuration,
}

/// What a calendar entry announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// The single copy engine finishes its active transfer.
    Copy { epoch: u64 },
    /// `item` finishes its serial kernel-launch phase.
    Launch { item: WorkItemId, epoch: u64 },
    /// `item` exhausts its kernel's work at the rate in force when scheduled.
    Compute { item: WorkItemId, epoch: u64 },
}

/// One entry of the event calendar. Ordered by `(at, seq)`; `seq` is a
/// deterministic tie-breaker (scheduling order) so heap order never depends
/// on the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CalendarEntry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialOrd for CalendarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CalendarEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The simulated GPU device.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Gpu {
    spec: GpuSpec,
    now: SimTime,
    contexts: Vec<Context>,
    streams: Vec<Stream>,
    items: BTreeMap<WorkItemId, ItemInstance>,
    next_item_id: u64,
    copy_queue: VecDeque<(WorkItemId, CopyDirection)>,
    active_copy: Option<ActiveCopy>,
    /// Current SM rate (SMs × efficiency) per actively computing item.
    rates: BTreeMap<WorkItemId, f64>,
    /// The event calendar (min-heap by event time, lazily invalidated).
    calendar: BinaryHeap<Reverse<CalendarEntry>>,
    /// Monotonic scheduling counter used as the calendar tie-breaker.
    cal_seq: u64,
    /// Epoch of the copy engine's active transfer (bumped per transfer).
    copy_epoch: u64,
    /// Items currently launching or computing (at most one per stream).
    running: BTreeSet<WorkItemId>,
    /// Computing items per context (indexed by context), kept incrementally.
    computing: Vec<BTreeSet<WorkItemId>>,
    /// Contexts whose computing membership changed since the last replan.
    ctx_dirty: Vec<bool>,
    /// Cached water-fill allocation per context (valid while not dirty).
    ctx_alloc: Vec<Vec<(WorkItemId, f64)>>,
    memory: MemoryPool,
    /// Whether device events are being recorded (off until
    /// [`Gpu::record_events`]).
    recording: bool,
    /// Recorded item-level events, in occurrence order.
    events: Vec<(SimTime, DeviceEvent)>,
    /// Recorded replans, in occurrence order.
    replans: Vec<(SimTime, DeviceEvent)>,
    rng: XorShiftRng,
    completed_work: f64,
    busy_sm_integral_us: f64,
    pending_count: usize,
    events_processed: u64,
}

impl Gpu {
    /// Creates a device from a [`GpuSpec`].
    pub fn new(spec: GpuSpec) -> Self {
        let memory = MemoryPool::new(spec.memory_bytes);
        let rng = XorShiftRng::new(spec.jitter_seed);
        Gpu {
            spec,
            now: SimTime::ZERO,
            contexts: Vec::new(),
            streams: Vec::new(),
            items: BTreeMap::new(),
            next_item_id: 0,
            copy_queue: VecDeque::new(),
            active_copy: None,
            rates: BTreeMap::new(),
            calendar: BinaryHeap::new(),
            cal_seq: 0,
            copy_epoch: 0,
            running: BTreeSet::new(),
            computing: Vec::new(),
            ctx_dirty: Vec::new(),
            ctx_alloc: Vec::new(),
            memory,
            recording: false,
            events: Vec::new(),
            replans: Vec::new(),
            rng,
            completed_work: 0.0,
            busy_sm_integral_us: 0.0,
            pending_count: 0,
            events_processed: 0,
        }
    }

    /// Device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Creates an MPS context with an SM quota (clamped to the device width).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::ZeroQuota`] for a zero quota.
    pub fn add_context(&mut self, sm_quota: u32) -> Result<ContextId> {
        if sm_quota == 0 {
            return Err(GpuError::ZeroQuota);
        }
        let quota = sm_quota.min(self.spec.sm_count);
        let id = ContextId(self.contexts.len() as u32);
        self.contexts.push(Context::new(quota));
        self.computing.push(BTreeSet::new());
        self.ctx_dirty.push(false);
        self.ctx_alloc.push(Vec::new());
        Ok(id)
    }

    /// Creates a CUDA stream inside `context`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownContext`] for an unknown context.
    pub fn add_stream(&mut self, context: ContextId) -> Result<StreamId> {
        if context.index() >= self.contexts.len() {
            return Err(GpuError::UnknownContext(context));
        }
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream::new(context));
        Ok(id)
    }

    /// Number of contexts created so far.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Number of streams created so far.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Starts recording [`DeviceEvent`]s for [`take_events`](Gpu::take_events).
    /// Recording cannot be turned off; until it is on, no event is built.
    pub fn record_events(&mut self) {
        self.recording = true;
    }

    /// Drains the recorded events, each stamped with its simulated time: the
    /// item-level events in occurrence order, then the replans in occurrence
    /// order. Recording stays on.
    pub fn take_events(&mut self) -> Vec<(SimTime, DeviceEvent)> {
        let mut events = std::mem::take(&mut self.events);
        events.append(&mut self.replans);
        events
    }

    /// Shared device-memory pool.
    pub fn memory(&self) -> &MemoryPool {
        &self.memory
    }

    /// Mutable access to the device-memory pool (weight loading and the like).
    pub fn memory_mut(&mut self) -> &mut MemoryPool {
        &mut self.memory
    }

    /// Submits a work item to a stream; the item starts when it reaches the
    /// front of that stream's FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownStream`] for an unknown stream, or a
    /// validation error for an empty/invalid item.
    pub fn submit(&mut self, stream: StreamId, item: WorkItem) -> Result<WorkItemId> {
        item.validate()?;
        let context = self
            .streams
            .get(stream.index())
            .map(|s| s.context)
            .ok_or(GpuError::UnknownStream(stream))?;
        let id = WorkItemId(self.next_item_id);
        self.next_item_id += 1;
        let tag = item.tag;
        let instance = ItemInstance {
            tag,
            stream,
            context,
            spec: item,
            submitted_at: self.now,
            started_at: None,
            state: ItemState::Queued,
            kernel_index: 0,
            launch_remaining: SimDuration::ZERO,
            work_remaining: 0.0,
            epoch: 0,
        };
        self.items.insert(id, instance);
        self.streams[stream.index()].queue.push_back(id);
        self.pending_count += 1;
        // If the stream was idle, the new item starts immediately.
        if self.streams[stream.index()].queue.len() == 1 {
            self.activate_front(stream);
        }
        self.replan();
        Ok(id)
    }

    /// Number of work items not yet completed.
    pub fn pending_items(&self) -> usize {
        self.pending_count
    }

    /// Total compute work completed so far, in SM-microseconds.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Number of discrete state transitions fired so far (copy completions,
    /// launch→compute flips, kernel completions). The denominator-independent
    /// "simulated events" figure the perf harness reports as events/sec.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Average device utilization (busy SM-time divided by `sm_count ×
    /// elapsed time`) since simulation start. Returns 0 before any time has
    /// elapsed.
    pub fn average_utilization(&self) -> f64 {
        let elapsed_us = self.now.as_micros_f64();
        if elapsed_us <= 0.0 {
            return 0.0;
        }
        self.busy_sm_integral_us / (elapsed_us * f64::from(self.spec.sm_count))
    }

    /// Time of the next internal state transition, if any work is in flight.
    ///
    /// A heap peek: every public mutation re-establishes the invariant that
    /// the calendar's top entry is live, so no scan is needed.
    pub fn next_event_time(&self) -> Option<SimTime> {
        debug_assert!(
            self.calendar.peek().map(|Reverse(e)| self.entry_live(e)).unwrap_or(true),
            "calendar top must be live at public boundaries"
        );
        self.calendar.peek().map(|Reverse(e)| e.at)
    }

    /// Advances the simulation to exactly `target`, processing every internal
    /// transition on the way, and returns the work items that completed (in
    /// completion order).
    ///
    /// If `target` is in the past, the call is a no-op returning an empty
    /// vector.
    pub fn advance_to(&mut self, target: SimTime) -> Vec<Completion> {
        let mut completions = Vec::new();
        while self.now < target {
            let next = self.next_event_time();
            let step_to = match next {
                Some(t) if t <= target => t,
                _ => target,
            };
            let dt = step_to - self.now;
            self.apply_progress(dt);
            self.now = step_to;
            self.apply_transitions(&mut completions);
        }
        // Transitions may also fall exactly on `target` when now == target.
        self.apply_transitions(&mut completions);
        completions
    }

    /// Runs until the device is fully idle and returns all completions.
    pub fn run_to_idle(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        while let Some(t) = self.next_event_time() {
            completions.extend(self.advance_to(t));
        }
        completions
    }

    // ----- internal helpers -------------------------------------------------

    /// Starts the item at the front of `stream` if it is still `Queued`.
    fn activate_front(&mut self, stream: StreamId) {
        let Some(item_id) = self.streams[stream.index()].active_item() else { return };
        let Some(item) = self.items.get_mut(&item_id) else { return };
        if item.state != ItemState::Queued {
            return;
        }
        item.started_at = Some(self.now);
        if item.spec.h2d_bytes > 0 {
            item.state = ItemState::PendingCopyIn;
            let (tag, context) = (item.tag, item.context.0);
            self.copy_queue.push_back((item_id, CopyDirection::HostToDevice));
            self.record(DeviceEvent::CopyInStarted { tag, stream: stream.0, context });
            self.pump_copy_engine();
        } else {
            self.start_kernel(item_id, 0);
        }
    }

    /// Puts kernel `index` of `item_id` into its launch phase.
    fn start_kernel(&mut self, item_id: WorkItemId, index: usize) {
        let jitter = {
            let half = self.spec.interference.work_jitter;
            self.rng.jitter(half)
        };
        let default_launch = self.spec.default_launch_overhead;
        let now = self.now;
        let Some(item) = self.items.get_mut(&item_id) else { return };
        // A back-to-back kernel of the same item leaves the computing set.
        let was_computing = matches!(item.state, ItemState::Running(KernelPhase::Computing));
        let ctx = item.context.index();
        let desc: &KernelDesc = &item.spec.kernels[index];
        item.kernel_index = index;
        item.launch_remaining = desc.launch_overhead.unwrap_or(default_launch);
        item.work_remaining = desc.work * jitter;
        item.state = ItemState::Running(KernelPhase::Launching);
        item.epoch += 1;
        let epoch = item.epoch;
        let at = now + item.launch_remaining;
        let (tag, stream, context) = (item.tag, item.stream.0, item.context.0);
        if was_computing {
            self.computing[ctx].remove(&item_id);
            self.ctx_dirty[ctx] = true;
        }
        self.running.insert(item_id);
        self.push_event(at, EventKind::Launch { item: item_id, epoch });
        if index == 0 {
            self.record(DeviceEvent::ItemStarted { tag, stream, context });
        }
    }

    /// Starts the next queued copy if the engine is idle.
    fn pump_copy_engine(&mut self) {
        if self.active_copy.is_some() {
            return;
        }
        let Some((item_id, direction)) = self.copy_queue.pop_front() else { return };
        let Some(item) = self.items.get_mut(&item_id) else { return };
        let bytes = match direction {
            CopyDirection::HostToDevice => item.spec.h2d_bytes,
            CopyDirection::DeviceToHost => item.spec.d2h_bytes,
        };
        let transfer = SimDuration::from_micros_f64(
            bytes as f64 / self.spec.copy_bandwidth_bytes_per_us.max(1e-9),
        );
        let remaining = self.spec.copy_latency + transfer;
        item.state = match direction {
            CopyDirection::HostToDevice => ItemState::CopyingIn,
            CopyDirection::DeviceToHost => ItemState::CopyingOut,
        };
        let (tag, stream, context) = (item.tag, item.stream.0, item.context.0);
        self.active_copy = Some(ActiveCopy { item: item_id, direction, remaining });
        if direction == CopyDirection::DeviceToHost {
            self.record(DeviceEvent::CopyOutStarted { tag, stream, context });
        }
        // Copy durations shrink by exact integer subtraction, so the
        // completion instant is fixed at start: schedule it once.
        self.copy_epoch += 1;
        self.push_event(self.now + remaining, EventKind::Copy { epoch: self.copy_epoch });
    }

    /// Applies `dt` of progress to every running kernel and the active copy.
    ///
    /// Only the `running` set (at most one item per stream) is visited;
    /// queued items have no progress to apply.
    fn apply_progress(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let dt_us = dt.as_micros_f64();
        let mut executed = 0.0;
        for id in &self.running {
            let Some(item) = self.items.get_mut(id) else { continue };
            match item.state {
                ItemState::Running(KernelPhase::Launching) => {
                    item.launch_remaining = item.launch_remaining.saturating_sub(dt);
                }
                ItemState::Running(KernelPhase::Computing) => {
                    let rate = self.rates.get(id).copied().unwrap_or(0.0);
                    let done = (rate * dt_us).min(item.work_remaining);
                    item.work_remaining -= done;
                    executed += done;
                }
                _ => {}
            }
        }
        if let Some(copy) = &mut self.active_copy {
            copy.remaining = copy.remaining.saturating_sub(dt);
        }
        self.completed_work += executed;
        self.busy_sm_integral_us += executed;
    }

    /// Fires every transition that is due at the current time, then replans
    /// allocations.
    fn apply_transitions(&mut self, completions: &mut Vec<Completion>) {
        let mut changed = true;
        while changed {
            changed = false;

            // Copy completion.
            let copy_done =
                self.active_copy.as_ref().map(|c| c.remaining.is_zero()).unwrap_or(false);
            if copy_done {
                let copy = self.active_copy.take().expect("checked above");
                changed = true;
                self.events_processed += 1;
                match copy.direction {
                    CopyDirection::HostToDevice => {
                        self.start_kernel(copy.item, 0);
                    }
                    CopyDirection::DeviceToHost => {
                        self.finish_item(copy.item, completions);
                    }
                }
                self.pump_copy_engine();
            }

            // Kernel phase transitions: only running items can transition.
            let ids: Vec<WorkItemId> = self.running.iter().copied().collect();
            for id in ids {
                let (state, launch_left, work_left, kernel_index, kernel_count) = {
                    let Some(item) = self.items.get(&id) else { continue };
                    (
                        item.state.clone(),
                        item.launch_remaining,
                        item.work_remaining,
                        item.kernel_index,
                        item.spec.kernels.len(),
                    )
                };
                match state {
                    ItemState::Running(KernelPhase::Launching) if launch_left.is_zero() => {
                        if let Some(item) = self.items.get_mut(&id) {
                            item.state = ItemState::Running(KernelPhase::Computing);
                            item.epoch += 1;
                            let ctx = item.context.index();
                            self.computing[ctx].insert(id);
                            self.ctx_dirty[ctx] = true;
                        }
                        changed = true;
                        self.events_processed += 1;
                    }
                    ItemState::Running(KernelPhase::Computing) if work_left <= WORK_EPSILON => {
                        changed = true;
                        self.events_processed += 1;
                        if self.recording {
                            let item = &self.items[&id];
                            let event = DeviceEvent::KernelFinished {
                                tag: item.tag,
                                stream: item.stream.0,
                                context: item.context.0,
                                label: item.spec.kernels[kernel_index].label.clone(),
                            };
                            self.record(event);
                        }
                        if kernel_index + 1 < kernel_count {
                            self.start_kernel(id, kernel_index + 1);
                        } else {
                            let d2h = self.items.get(&id).map(|i| i.spec.d2h_bytes).unwrap_or(0);
                            if d2h > 0 {
                                if let Some(item) = self.items.get_mut(&id) {
                                    item.state = ItemState::PendingCopyOut;
                                    item.epoch += 1;
                                    let ctx = item.context.index();
                                    self.computing[ctx].remove(&id);
                                    self.ctx_dirty[ctx] = true;
                                }
                                self.running.remove(&id);
                                self.copy_queue.push_back((id, CopyDirection::DeviceToHost));
                                self.pump_copy_engine();
                            } else {
                                self.finish_item(id, completions);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        self.replan();
    }

    /// Marks an item complete, emits its completion, and activates the next
    /// item in its stream.
    fn finish_item(&mut self, item_id: WorkItemId, completions: &mut Vec<Completion>) {
        let Some(item) = self.items.get_mut(&item_id) else { return };
        item.state = ItemState::Done;
        let completion = Completion {
            tag: item.tag,
            item: item_id,
            stream: item.stream,
            context: item.context,
            submitted_at: item.submitted_at,
            started_at: item.started_at.unwrap_or(item.submitted_at),
            finished_at: self.now,
        };
        let (tag, stream, context) = (item.tag, item.stream, item.context);
        self.record(DeviceEvent::ItemFinished { tag, stream: stream.0, context: context.0 });
        completions.push(completion);
        let context = context.index();
        self.items.remove(&item_id);
        self.rates.remove(&item_id);
        self.running.remove(&item_id);
        if self.computing[context].remove(&item_id) {
            self.ctx_dirty[context] = true;
        }
        self.pending_count = self.pending_count.saturating_sub(1);
        // Only the item at the front of its stream can be in flight, so
        // finishing is an O(1) pop — never a scan of the backlog.
        let s = &mut self.streams[stream.index()];
        debug_assert_eq!(s.queue.front(), Some(&item_id), "finished item must be its stream front");
        if s.queue.front() == Some(&item_id) {
            s.queue.pop_front();
        }
        self.activate_front(stream);
    }

    /// Recomputes SM allocation rates for every computing kernel and
    /// reschedules their compute-finish events on the calendar.
    ///
    /// Water-filling is cached per context and only recomputed for contexts
    /// whose computing membership changed since the last replan (`ctx_dirty`).
    /// The cross-context contention scale still applies globally, but that is
    /// a single multiply per computing item.
    fn replan(&mut self) {
        self.rates.clear();
        // Refresh the water-fill cache of dirty contexts.
        for ctx in 0..self.contexts.len() {
            if !self.ctx_dirty[ctx] {
                continue;
            }
            self.ctx_dirty[ctx] = false;
            let kernels: Vec<(WorkItemId, u32)> = self.computing[ctx]
                .iter()
                .map(|id| {
                    let item = &self.items[id];
                    (*id, item.spec.kernels[item.kernel_index].parallelism)
                })
                .collect();
            let quota = f64::from(self.contexts[ctx].sm_quota);
            self.ctx_alloc[ctx] = water_fill(quota, &kernels);
        }
        let mut total = 0.0;
        let mut busy_contexts = 0usize;
        for ctx in 0..self.contexts.len() {
            if self.computing[ctx].is_empty() {
                continue;
            }
            busy_contexts += 1;
            for (_, a) in &self.ctx_alloc[ctx] {
                total += *a;
            }
        }
        if busy_contexts == 0 {
            if self.recording {
                self.replans
                    .push((self.now, DeviceEvent::Replan { computing: 0, utilization: 0.0 }));
            }
            self.clean_calendar();
            return;
        }
        let sm_count = f64::from(self.spec.sm_count);
        let scale = if total > sm_count { sm_count / total } else { 1.0 };
        let demand_ratio = total / sm_count;
        let efficiency = self.spec.interference.efficiency(busy_contexts, demand_ratio);
        let factor = scale * efficiency;
        if self.recording {
            let utilization = (total * factor / sm_count).min(1.0);
            let computing = busy_contexts as u32;
            self.replans.push((self.now, DeviceEvent::Replan { computing, utilization }));
        }
        // Apply the global factor and reschedule each compute-finish event
        // with the exact arithmetic the scan-based engine used.
        let now = self.now;
        for ctx in 0..self.contexts.len() {
            for i in 0..self.ctx_alloc[ctx].len() {
                let (id, alloc) = self.ctx_alloc[ctx][i];
                let rate = alloc * factor;
                self.rates.insert(id, rate);
                let Some(item) = self.items.get_mut(&id) else { continue };
                item.epoch += 1;
                let epoch = item.epoch;
                if rate > 0.0 {
                    let us = item.work_remaining / rate;
                    let mut d = SimDuration::from_micros_f64(us);
                    if d.is_zero() {
                        d = SimDuration::from_nanos(1);
                    }
                    self.push_event(now + d, EventKind::Compute { item: id, epoch });
                }
            }
        }
        self.clean_calendar();
    }

    /// Records an item-level event stamped with the current time, if
    /// recording is on.
    fn record(&mut self, event: DeviceEvent) {
        if self.recording {
            self.events.push((self.now, event));
        }
    }

    /// Schedules a calendar entry.
    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.cal_seq += 1;
        self.calendar.push(Reverse(CalendarEntry { at, seq: self.cal_seq, kind }));
    }

    /// Whether a calendar entry still refers to a live scheduled event.
    fn entry_live(&self, entry: &CalendarEntry) -> bool {
        match entry.kind {
            EventKind::Copy { epoch } => epoch == self.copy_epoch && self.active_copy.is_some(),
            EventKind::Launch { item, epoch } => self
                .items
                .get(&item)
                .map(|i| {
                    i.epoch == epoch
                        && matches!(i.state, ItemState::Running(KernelPhase::Launching))
                })
                .unwrap_or(false),
            EventKind::Compute { item, epoch } => self
                .items
                .get(&item)
                .map(|i| {
                    i.epoch == epoch
                        && matches!(i.state, ItemState::Running(KernelPhase::Computing))
                })
                .unwrap_or(false),
        }
    }

    /// Restores the "calendar top is live" invariant (lazy invalidation) and
    /// occasionally compacts the heap so stale entries cannot accumulate
    /// beyond a small multiple of the live set.
    fn clean_calendar(&mut self) {
        while let Some(Reverse(entry)) = self.calendar.peek() {
            if self.entry_live(entry) {
                break;
            }
            self.calendar.pop();
        }
        let live_bound = 8 * (self.running.len() + 2);
        if self.calendar.len() > 64 && self.calendar.len() > live_bound {
            let heap = std::mem::take(&mut self.calendar);
            self.calendar =
                heap.into_iter().filter(|Reverse(entry)| self.entry_live(entry)).collect();
        }
    }
}

/// Distributes `quota` SMs across kernels, capping each kernel at its own
/// parallelism and spreading leftover capacity over the kernels that can
/// still absorb it (classic water-filling).
fn water_fill(quota: f64, kernels: &[(WorkItemId, u32)]) -> Vec<(WorkItemId, f64)> {
    let n = kernels.len();
    if n == 0 {
        return Vec::new();
    }
    let mut alloc = vec![0.0f64; n];
    let mut remaining = quota;
    let mut unsatisfied: Vec<usize> = (0..n).collect();
    while remaining > 1e-9 && !unsatisfied.is_empty() {
        let share = remaining / unsatisfied.len() as f64;
        let mut next_unsatisfied = Vec::new();
        let mut consumed = 0.0;
        for &i in &unsatisfied {
            let cap = f64::from(kernels[i].1);
            let want = cap - alloc[i];
            if want <= share + 1e-12 {
                alloc[i] = cap;
                consumed += want;
            } else {
                alloc[i] += share;
                consumed += share;
                next_unsatisfied.push(i);
            }
        }
        remaining -= consumed;
        // If nobody was saturated this round, the distribution is final.
        if next_unsatisfied.len() == unsatisfied.len() {
            break;
        }
        unsatisfied = next_unsatisfied;
    }
    kernels.iter().zip(alloc).map(|((id, _), a)| (*id, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_spec() -> GpuSpec {
        GpuSpec::rtx_2080_ti().without_interference()
    }

    #[test]
    fn single_kernel_timing_is_exact() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        // 680 SM·µs over 68 SMs = 10 µs of compute + 5 µs launch overhead.
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 1);
        assert!((done[0].execution_time().as_micros_f64() - 15.0).abs() < 0.01);
    }

    #[test]
    fn narrow_kernel_is_limited_by_its_parallelism() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 10));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        // 680 / 10 = 68 µs + 5 µs launch.
        assert!((done[0].execution_time().as_micros_f64() - 73.0).abs() < 0.01);
    }

    #[test]
    fn quota_limits_kernel_width() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(17).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        // Limited to the context's 17-SM quota: 40 µs + 5 µs launch.
        assert!((done[0].execution_time().as_micros_f64() - 45.0).abs() < 0.01);
    }

    #[test]
    fn kernels_serialize_within_a_stream() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1)
            .with_kernel(KernelDesc::new(680.0, 68))
            .with_kernel(KernelDesc::new(680.0, 68));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        assert!((done[0].execution_time().as_micros_f64() - 30.0).abs() < 0.01);
    }

    #[test]
    fn two_streams_share_the_context_quota() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        // Each kernel could use the whole device alone; together they halve.
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        gpu.submit(s2, WorkItem::new(2).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 2);
        for c in &done {
            // 680 / 34 = 20 µs + 5 µs launch.
            assert!((c.execution_time().as_micros_f64() - 25.0).abs() < 0.1, "{c:?}");
        }
    }

    #[test]
    fn narrow_kernels_run_concurrently_without_slowdown() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(300.0, 30))).unwrap();
        gpu.submit(s2, WorkItem::new(2).with_kernel(KernelDesc::new(300.0, 30))).unwrap();
        let done = gpu.run_to_idle();
        for c in &done {
            // 30 + 30 SMs fit in 68: each runs at its own width, 10 µs + 5 µs.
            assert!((c.execution_time().as_micros_f64() - 15.0).abs() < 0.1, "{c:?}");
        }
    }

    #[test]
    fn oversubscribed_contexts_are_scaled_proportionally() {
        let mut gpu = Gpu::new(quiet_spec());
        let c1 = gpu.add_context(68).unwrap();
        let c2 = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(c1).unwrap();
        let s2 = gpu.add_stream(c2).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        gpu.submit(s2, WorkItem::new(2).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        for c in &done {
            // Demand 136 SMs on a 68-SM device: each gets 34 → 20 µs + 5 µs.
            assert!((c.execution_time().as_micros_f64() - 25.0).abs() < 0.1, "{c:?}");
        }
    }

    #[test]
    fn isolated_quotas_waste_capacity_when_one_context_idles() {
        // One busy context with a 34-SM quota on a 68-SM device cannot use the
        // other half even though it is idle (the OS = 1 effect of the paper).
        let mut gpu = Gpu::new(quiet_spec());
        let c1 = gpu.add_context(34).unwrap();
        let _c2 = gpu.add_context(34).unwrap();
        let s1 = gpu.add_stream(c1).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        assert!((done[0].execution_time().as_micros_f64() - 25.0).abs() < 0.1);
    }

    #[test]
    fn copy_engine_adds_latency_and_serializes() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        // 12_000 bytes at 12_000 bytes/µs = 1 µs + 8 µs fixed latency.
        let mk =
            |tag| WorkItem::new(tag).with_kernel(KernelDesc::new(68.0, 68)).with_h2d_bytes(12_000);
        gpu.submit(s1, mk(1)).unwrap();
        gpu.submit(s2, mk(2)).unwrap();
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 2);
        let mut times: Vec<f64> = done.iter().map(|c| c.execution_time().as_micros_f64()).collect();
        times.sort_by(f64::total_cmp);
        // First item: 9 µs copy + 5 launch + 1 compute = 15 µs.
        assert!((times[0] - 15.0).abs() < 0.1, "{times:?}");
        // Second item waits for the copy engine: 9 more µs before its copy.
        assert!(times[1] > times[0] + 8.0, "{times:?}");
    }

    #[test]
    fn completions_report_queueing_separately() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        gpu.submit(s, WorkItem::new(2).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        let second = done.iter().find(|c| c.tag == 2).unwrap();
        assert!(second.finished_at - second.submitted_at > second.execution_time());
        assert_eq!(second.submitted_at, SimTime::ZERO);
        assert!(second.started_at > SimTime::ZERO);
    }

    #[test]
    fn advance_to_is_incremental() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(7).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let none = gpu.advance_to(SimTime::from_micros(10));
        assert!(none.is_empty());
        assert_eq!(gpu.now(), SimTime::from_micros(10));
        assert_eq!(gpu.pending_items(), 1);
        let done = gpu.advance_to(SimTime::from_micros(20));
        assert_eq!(done.len(), 1);
        assert_eq!(gpu.pending_items(), 0);
        assert_eq!(gpu.now(), SimTime::from_micros(20));
    }

    #[test]
    fn utilization_accounting() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(
            s,
            WorkItem::new(1)
                .with_kernel(KernelDesc::new(680.0, 68).with_launch_overhead(SimDuration::ZERO)),
        )
        .unwrap();
        gpu.run_to_idle();
        assert!((gpu.completed_work() - 680.0).abs() < 1e-6);
        // 10 µs fully busy out of 10 µs elapsed.
        assert!((gpu.average_utilization() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tracing_records_lifecycle() {
        let mut gpu = Gpu::new(quiet_spec());
        gpu.record_events();
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(
            s,
            WorkItem::new(3)
                .with_kernel(KernelDesc::new(68.0, 68))
                .with_kernel(KernelDesc::new(68.0, 68)),
        )
        .unwrap();
        gpu.run_to_idle();
        let events = gpu.take_events();
        let count = |f: fn(&DeviceEvent) -> bool| events.iter().filter(|(_, e)| f(e)).count();
        assert_eq!(count(|e| matches!(e, DeviceEvent::ItemStarted { tag: 3, .. })), 1);
        assert_eq!(count(|e| matches!(e, DeviceEvent::KernelFinished { tag: 3, .. })), 2);
        assert_eq!(count(|e| matches!(e, DeviceEvent::ItemFinished { tag: 3, .. })), 1);
    }

    #[test]
    fn device_events_drain_items_then_replans_and_only_while_recording() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = |tag| {
            WorkItem::new(tag)
                .with_kernel(KernelDesc::new(68.0, 68).with_label("conv1"))
                .with_h2d_bytes(12_000)
                .with_d2h_bytes(12_000)
        };
        gpu.submit(s, item(1)).unwrap();
        gpu.run_to_idle();
        assert!(gpu.take_events().is_empty(), "nothing is recorded before record_events()");

        gpu.record_events();
        gpu.submit(s, item(2)).unwrap();
        gpu.run_to_idle();
        let events = gpu.take_events();
        let (stream, context) = (s.0, ctx.0);
        let items: Vec<&DeviceEvent> = events.iter().map(|(_, e)| e).take(4).collect();
        assert_eq!(
            items,
            [
                &DeviceEvent::CopyInStarted { tag: 2, stream, context },
                &DeviceEvent::ItemStarted { tag: 2, stream, context },
                &DeviceEvent::KernelFinished {
                    tag: 2,
                    stream,
                    context,
                    label: Some("conv1".to_string()),
                },
                &DeviceEvent::CopyOutStarted { tag: 2, stream, context },
            ]
        );
        assert_eq!(events[4].1, DeviceEvent::ItemFinished { tag: 2, stream, context });
        let replans = &events[5..];
        assert!(!replans.is_empty());
        assert!(replans.iter().all(|(_, e)| matches!(e, DeviceEvent::Replan { .. })));
        // Each half is in occurrence order on its own.
        assert!(events[..5].windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(replans.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(gpu.take_events().is_empty(), "a drain empties the buffer");
    }

    #[test]
    fn errors_for_unknown_handles() {
        let mut gpu = Gpu::new(quiet_spec());
        assert_eq!(gpu.add_stream(ContextId(0)), Err(GpuError::UnknownContext(ContextId(0))));
        assert_eq!(gpu.add_context(0), Err(GpuError::ZeroQuota));
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(1.0, 1));
        assert_eq!(gpu.submit(StreamId(9), item), Err(GpuError::UnknownStream(StreamId(9))));
    }

    #[test]
    fn quota_is_clamped_to_device_width() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(1_000).unwrap();
        assert_eq!(gpu.contexts[ctx.index()].sm_quota, 68);
    }

    #[test]
    fn water_fill_respects_caps_and_quota() {
        let ids = [(WorkItemId(0), 10u32), (WorkItemId(1), 60u32), (WorkItemId(2), 60u32)];
        let alloc = water_fill(68.0, &ids);
        let total: f64 = alloc.iter().map(|(_, a)| a).sum();
        assert!(total <= 68.0 + 1e-9);
        let by_id: BTreeMap<_, _> = alloc.into_iter().collect();
        assert!((by_id[&WorkItemId(0)] - 10.0).abs() < 1e-9);
        assert!((by_id[&WorkItemId(1)] - 29.0).abs() < 1e-9);
        assert!((by_id[&WorkItemId(2)] - 29.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_with_spare_capacity_gives_everyone_their_cap() {
        let ids = [(WorkItemId(0), 10u32), (WorkItemId(1), 20u32)];
        let alloc = water_fill(68.0, &ids);
        let by_id: BTreeMap<_, _> = alloc.into_iter().collect();
        assert_eq!(by_id[&WorkItemId(0)], 10.0);
        assert_eq!(by_id[&WorkItemId(1)], 20.0);
    }

    #[test]
    fn jitter_makes_execution_times_vary_but_stay_bounded() {
        let spec = GpuSpec::rtx_2080_ti(); // default 4 % jitter
        let mut gpu = Gpu::new(spec);
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let mut times = Vec::new();
        for tag in 0..20 {
            gpu.submit(s, WorkItem::new(tag).with_kernel(KernelDesc::new(6_800.0, 68))).unwrap();
        }
        for c in gpu.run_to_idle() {
            times.push(c.execution_time().as_micros_f64());
        }
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "jitter should produce variation");
        assert!(max < min * 1.15, "variation should stay small: {min} vs {max}");
    }
}
