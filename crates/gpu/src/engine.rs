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
//! # Next event instant
//!
//! There is no event calendar. Every in-flight item carries `next_at`, the
//! instant of its next transition, and the copy engine's active transfer
//! carries its finish instant; at the end of every transition pass one pass
//! over the `running` set (at most one item per stream) caches their minimum,
//! and [`Gpu::submit`] folds the instants it starts into that minimum, so
//! [`Gpu::next_event_time`] returns a field.
//!
//! Every item follows one rule: its transition fires once `now` reaches its
//! instant. A launch ends at `start + launch overhead`, a copy at `start +
//! latency + bytes / bandwidth`. A computing kernel keeps its progress
//! *anchored*: an `anchor` instant, the work left at the anchor and its SM
//! `rate`. Its finish is `anchor + work / rate`, rounded up to the next whole
//! ns and at least 1 ns after the anchor, so the work is done when it fires.
//! The rounding is one ceiling step,
//! [`SimDuration::from_nanos_f64_ceil`](crate::SimDuration::from_nanos_f64_ceil),
//! which saturates: a finish past the end of time lands at
//! [`SimTime::MAX`](crate::SimTime::MAX). Time moving changes none of the
//! three, so it moves no instant.
//!
//! Launch ends and copy finishes saturate the same way, so time never wraps.
//! Once `now` is `SimTime::MAX`, every instant set from then on is `now`
//! itself: the pass at that instant repeats until nothing is due, so every
//! remaining transition fires there and every item completes at
//! `SimTime::MAX`. Only then may a compute finish equal `now`.
//!
//! A transition pass scans `running` once and fires what is due. The scan
//! leaves something due only if it created it: a launch with no overhead or
//! a zero-length copy, which start at `now`. Only then does the pass scan
//! again, so a pass that fires ordinary transitions scans once. In debug
//! builds every pass ends by asserting that nothing is left due.
//!
//! # When the rates are replanned
//!
//! The *rate pass* (water-filling, the contention factor and re-anchoring)
//! has one input: each context's computing membership (`ctx_dirty`). A
//! transition pass runs it only when a context is dirty, and a submit never
//! does: a new item only queues, starts a launch, or starts or queues a copy.
//! The pass re-anchors only the kernels whose rate bits moved: it subtracts
//! `rate × (now − anchor)` from their work and computes their new finish;
//! every other kernel keeps its instant. Under oversubscription every
//! computing kernel moves at every pass, so they all share the anchor of the
//! previous one: the pass converts `now − anchor` to µs once per run of
//! equal anchors, not once per kernel. While recording, a rate pass whose
//! `(busy contexts, utilization)` differs bit for bit from the last one
//! records a [`DeviceEvent::Replan`]: the allocation is recorded when it
//! changes, so the stream does not depend on how a caller splits its
//! advances, and the initial idle allocation is never recorded.
//!
//! # Recorded events
//!
//! Item-level events and replans go into one buffer in the order they
//! happen: a transition pass records its item events as it fires them and
//! its replan, if any, last. [`Gpu::drain_events`] hands the buffer out in
//! that order, so a drain after many passes reads like the drains after
//! each pass, concatenated.
//!
//! # Stepping to the next completion
//!
//! [`Gpu::advance_into`] lands on its target. A caller that only acts on
//! completions can instead call [`Gpu::advance_until_completion`], which
//! runs the same passes at the device's own event instants and stops right
//! after the first pass that completes an item, leaving `now` on that pass.
//!
//! Bookkeeping that used to scan every pending item is incremental: in-flight
//! items sit in a [`Slab`] keyed by their dense, increasing ids; a `running`
//! set (at most one item per stream) bounds transition checks; per-context
//! *computing* sets with dirty flags let a rate pass reuse cached
//! water-filling for contexts whose membership did not change; and every
//! pass reuses buffers the engine owns, so a steady-state event allocates
//! nothing. [`Gpu::work_counters`] reports the work done.
//!
//! The `running` and per-context computing sets hold at most one item per
//! stream, so they are sorted `Vec`s of ids with binary-search insert and
//! remove rather than trees. They iterate in id order, as a `BTreeSet`
//! would, so every float sum, water-fill and jitter draw keeps its order.

use std::collections::VecDeque;

use crate::context::Context;
use crate::kernel::{KernelDesc, KernelPhase, WorkItem, WorkItemId};
use crate::stream::Stream;
use crate::{
    ContextId, DeviceEvent, GpuError, GpuSpec, MemoryPool, Result, SimDuration, SimTime, Slab,
    StreamId, XorShiftRng,
};

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
    /// Instant the computing kernel's progress was last anchored at.
    anchor: SimTime,
    /// Work (SM·µs) the current kernel has left at `anchor`.
    work: f64,
    /// SM rate (SMs × efficiency) since `anchor`; read only while the item
    /// is computing.
    rate: f64,
    /// Instant of the item's next transition: the launch end while
    /// launching, the anchored compute finish while computing at a positive
    /// rate, `None` otherwise.
    next_at: Option<SimTime>,
}

impl ItemInstance {
    /// Work the computing kernel has done in the `elapsed_us` µs since
    /// `anchor`.
    fn progress(&self, elapsed_us: f64) -> f64 {
        (self.rate * elapsed_us).min(self.work)
    }
}

/// A set of in-flight item ids kept as a sorted `Vec`: a binary-search
/// insert or remove over at most one id per stream, and iteration in
/// increasing id order.
#[derive(Debug, Default)]
struct IdSet(Vec<WorkItemId>);

impl IdSet {
    /// Adds `id`; returns whether it was absent.
    fn insert(&mut self, id: WorkItemId) -> bool {
        match self.0.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, id);
                true
            }
        }
    }

    /// Removes `id`; returns whether it was present.
    fn remove(&mut self, id: WorkItemId) -> bool {
        match self.0.binary_search(&id) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The ids, in increasing order.
    fn ids(&self) -> &[WorkItemId] {
        &self.0
    }
}

/// Deterministic counts of the engine's internal work, for gating
/// performance changes exactly (wall time varies, these do not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// State transitions fired: copy completions, launch→compute flips and
    /// kernel completions (the same count as [`Gpu::events_processed`]).
    pub transitions: u64,
    /// Rate passes (SM re-allocations) that ran: transition passes at which
    /// a context's computing membership changed. A submit runs none.
    pub replans: u64,
    /// Scans of the `running` set: one per transition pass, plus one each
    /// time a scan created an instant due at its own `now` (a launch with
    /// no overhead or a zero-length copy).
    pub scans: u64,
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
    /// When the transfer completes (fixed when it starts).
    finish: SimTime,
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
    items: Slab<ItemInstance>,
    copy_queue: VecDeque<(WorkItemId, CopyDirection)>,
    active_copy: Option<ActiveCopy>,
    /// Earliest `next_at` of a running item or the active copy's finish,
    /// refreshed at the end of every transition pass and folded by submits.
    next_at: Option<SimTime>,
    /// `(busy contexts, utilization)` of the last rate pass; a rate pass that
    /// moves it records a [`DeviceEvent::Replan`].
    allocation: (u32, f64),
    /// Items currently launching or computing (at most one per stream).
    running: IdSet,
    /// Computing items per context (indexed by context), kept incrementally.
    computing: Vec<IdSet>,
    /// Contexts whose computing membership changed since the last rate pass.
    ctx_dirty: Vec<bool>,
    /// Cached water-fill allocation per context (valid while not dirty).
    ctx_alloc: Vec<Vec<(WorkItemId, f64)>>,
    /// Reused buffers of the water-filling pass.
    water_fill: WaterFill,
    /// Reused snapshot of `running` for a transition pass.
    transition_ids: Vec<WorkItemId>,
    /// Whether the current scan created an instant at or before `now`, so
    /// the transition pass must scan again.
    rescan: bool,
    memory: MemoryPool,
    /// Whether device events are being recorded (off until
    /// [`Gpu::record_events`]).
    recording: bool,
    /// Recorded item-level events and replans, in occurrence order.
    events: Vec<(SimTime, DeviceEvent)>,
    rng: XorShiftRng,
    completed_work: f64,
    pending_count: usize,
    counters: WorkCounters,
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
            items: Slab::new(),
            copy_queue: VecDeque::new(),
            active_copy: None,
            next_at: None,
            allocation: (0, 0.0),
            running: IdSet::default(),
            computing: Vec::new(),
            ctx_dirty: Vec::new(),
            ctx_alloc: Vec::new(),
            water_fill: WaterFill::default(),
            transition_ids: Vec::new(),
            rescan: false,
            memory,
            recording: false,
            events: Vec::new(),
            rng,
            completed_work: 0.0,
            pending_count: 0,
            counters: WorkCounters::default(),
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
        self.computing.push(IdSet::default());
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

    /// Carves the device: creates `contexts` contexts at `sm_quota` (clamped
    /// to the device width), each with `streams_per_context` streams, and
    /// returns the stream ids in context-major order.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::ZeroQuota`] for a zero quota.
    pub fn add_contexts(
        &mut self,
        contexts: u32,
        sm_quota: u32,
        streams_per_context: u32,
    ) -> Result<Vec<StreamId>> {
        let mut streams = Vec::new();
        for _ in 0..contexts {
            let context = self.add_context(sm_quota)?;
            for _ in 0..streams_per_context {
                streams.push(self.add_stream(context)?);
            }
        }
        Ok(streams)
    }

    /// Number of contexts created so far.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Number of streams created so far.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Starts recording [`DeviceEvent`]s for [`drain_events`](Gpu::drain_events).
    /// Recording cannot be turned off; until it is on, no event is built.
    pub fn record_events(&mut self) {
        self.recording = true;
    }

    /// Drains the recorded events, item-level events and replans alike, in
    /// occurrence order, each stamped with its simulated time. Recording
    /// stays on, and the buffer keeps its capacity, so recording allocates
    /// only when a drain interval outgrows the last. An iterator dropped
    /// early still empties the buffer.
    pub fn drain_events(&mut self) -> impl Iterator<Item = (SimTime, DeviceEvent)> + '_ {
        self.events.drain(..)
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
        let instance = ItemInstance {
            tag: item.tag,
            stream,
            context,
            spec: item,
            submitted_at: self.now,
            started_at: None,
            state: ItemState::Queued,
            kernel_index: 0,
            anchor: SimTime::ZERO,
            work: 0.0,
            rate: 0.0,
            next_at: None,
        };
        let id = WorkItemId(self.items.insert(instance));
        self.streams[stream.index()].queue.push_back(id);
        self.pending_count += 1;
        // If the stream was idle, the new item starts immediately. Starting a
        // launch or a copy dirties no context, so no rate moved: the new
        // instants only fold into the cached minimum.
        if self.streams[stream.index()].queue.len() == 1 {
            self.activate_front(stream);
            let launch = self.items.get(id.0).and_then(|item| item.next_at);
            let copy = self.active_copy.as_ref().map(|c| c.finish);
            self.next_at = self.next_at.into_iter().chain(launch).chain(copy).min();
        }
        #[cfg(debug_assertions)]
        {
            self.check_cached_rates();
            self.check_next_at();
        }
        Ok(id)
    }

    /// Number of work items not yet completed.
    pub fn pending_items(&self) -> usize {
        self.pending_count
    }

    /// Total compute work completed so far, in SM-microseconds, including
    /// the progress of kernels still computing.
    pub fn completed_work(&self) -> f64 {
        let running = self.running.ids().iter().filter_map(|&id| self.items.get(id.0));
        let computing =
            running.filter(|item| item.state == ItemState::Running(KernelPhase::Computing));
        let progress =
            |item: &ItemInstance| item.progress((self.now - item.anchor).as_micros_f64());
        self.completed_work + computing.map(progress).sum::<f64>()
    }

    /// Number of discrete state transitions fired so far (copy completions,
    /// launch→compute flips, kernel completions): the load-independent
    /// "simulated events" count that perfbench divides wall time by for
    /// `wall_ns_per_event`.
    pub fn events_processed(&self) -> u64 {
        self.counters.transitions
    }

    /// Counts of the engine's internal work so far.
    pub fn work_counters(&self) -> WorkCounters {
        self.counters
    }

    /// Average device utilization (busy SM-time divided by `sm_count ×
    /// elapsed time`) since simulation start. Returns 0 before any time has
    /// elapsed.
    pub fn average_utilization(&self) -> f64 {
        let elapsed_us = self.now.as_micros_f64();
        if elapsed_us <= 0.0 {
            return 0.0;
        }
        self.completed_work() / (elapsed_us * f64::from(self.spec.sm_count))
    }

    /// Time of the next internal state transition, if any work is in flight.
    ///
    /// A cached field: every transition pass of
    /// [`advance_to`](Gpu::advance_to) refreshes it, and every
    /// [`submit`](Gpu::submit) folds the instants it starts into it.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_at
    }

    /// Advances the simulation to exactly `target`, processing every internal
    /// transition on the way, and returns the work items that completed (in
    /// completion order). A caller that advances often should reuse one
    /// buffer through [`advance_into`](Gpu::advance_into) instead.
    ///
    /// If `target` is in the past, the call is a no-op returning an empty
    /// vector.
    pub fn advance_to(&mut self, target: SimTime) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.advance_into(target, &mut completions);
        completions
    }

    /// [`advance_to`](Gpu::advance_to) that appends the completions to a
    /// caller-owned buffer, so an advance allocates only when the buffer
    /// outgrows its capacity.
    pub fn advance_into(&mut self, target: SimTime, completions: &mut Vec<Completion>) {
        if target < self.now {
            return;
        }
        // At least one step, so transitions due exactly at `now` fire when
        // `target == now`. The last step's pass reaches the fixpoint at
        // `target`, so nothing is left due there.
        loop {
            let step_to = match self.next_at {
                Some(t) if t <= target => t,
                _ => target,
            };
            self.now = step_to;
            self.apply_transitions(completions);
            if self.now == target {
                break;
            }
        }
    }

    /// Runs transition passes at the device's own event instants up to
    /// `bound`, appending completions to `completions`, and stops right
    /// after the first pass that completes an item. Returns whether one did.
    ///
    /// Each pass is the one [`advance_into`](Gpu::advance_into) would run
    /// at that instant, so the completions, recorded events and work
    /// counters are exactly those of one `advance_into` per event instant.
    /// Unlike `advance_into`, it never moves `now` past the last pass it ran:
    /// with no event due by `bound`, it runs no pass and leaves `now` alone.
    pub fn advance_until_completion(
        &mut self,
        bound: SimTime,
        completions: &mut Vec<Completion>,
    ) -> bool {
        let before = completions.len();
        while let Some(t) = self.next_at.filter(|&t| t <= bound) {
            self.now = t;
            self.apply_transitions(completions);
            if completions.len() > before {
                return true;
            }
        }
        false
    }

    /// Runs until the device is fully idle and returns all completions.
    pub fn run_to_idle(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        while let Some(t) = self.next_event_time() {
            self.advance_into(t, &mut completions);
        }
        completions
    }

    // ----- internal helpers -------------------------------------------------

    /// Starts the item at the front of `stream` if it is still `Queued`.
    fn activate_front(&mut self, stream: StreamId) {
        let Some(item_id) = self.streams[stream.index()].active_item() else { return };
        let Some(item) = self.items.get_mut(item_id.0) else { return };
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
        let Some(item) = self.items.get_mut(item_id.0) else { return };
        // A back-to-back kernel of the same item leaves the computing set.
        let was_computing = matches!(item.state, ItemState::Running(KernelPhase::Computing));
        let ctx = item.context.index();
        let desc: &KernelDesc = &item.spec.kernels[index];
        item.kernel_index = index;
        let launch_end = now.saturating_add(desc.launch_overhead.unwrap_or(default_launch));
        item.next_at = Some(launch_end);
        item.work = desc.work * jitter;
        item.state = ItemState::Running(KernelPhase::Launching);
        let (tag, stream, context) = (item.tag, item.stream.0, item.context.0);
        if was_computing {
            self.computing[ctx].remove(item_id);
            self.ctx_dirty[ctx] = true;
        }
        self.running.insert(item_id);
        self.rescan |= launch_end <= now;
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
        let Some(item) = self.items.get_mut(item_id.0) else { return };
        let bytes = match direction {
            CopyDirection::HostToDevice => item.spec.h2d_bytes,
            CopyDirection::DeviceToHost => item.spec.d2h_bytes,
        };
        let transfer = SimDuration::from_micros_f64(
            bytes as f64 / self.spec.copy_bandwidth_bytes_per_us.max(1e-9),
        );
        let finish = self.now.saturating_add(self.spec.copy_latency).saturating_add(transfer);
        item.state = match direction {
            CopyDirection::HostToDevice => ItemState::CopyingIn,
            CopyDirection::DeviceToHost => ItemState::CopyingOut,
        };
        let (tag, stream, context) = (item.tag, item.stream.0, item.context.0);
        self.active_copy = Some(ActiveCopy { item: item_id, direction, finish });
        self.rescan |= finish <= self.now;
        if direction == CopyDirection::DeviceToHost {
            self.record(DeviceEvent::CopyOutStarted { tag, stream, context });
        }
    }

    /// Fires every transition that is due at the current time, then replans
    /// allocations.
    ///
    /// One scan of `running` fires everything that was due when it began.
    /// It can leave something due only by creating it: a launch with no
    /// overhead or a zero-length copy (a compute finish is set by the rate
    /// pass, always in the future). Only then does the pass scan again.
    ///
    /// At the end of time the rate pass can leave work due: a finish at
    /// `now == SimTime::MAX` saturates to `now`. The pass then repeats until
    /// nothing is due, so every remaining transition fires at that instant.
    fn apply_transitions(&mut self, completions: &mut Vec<Completion>) {
        self.fire_due(completions);
        self.replan();
        while self.now == SimTime::MAX && self.next_at == Some(self.now) {
            self.fire_due(completions);
            self.replan();
        }
    }

    /// The scans of one transition pass, without its rate pass.
    fn fire_due(&mut self, completions: &mut Vec<Completion>) {
        let mut ids = std::mem::take(&mut self.transition_ids);
        loop {
            self.counters.scans += 1;
            self.rescan = false;

            // Copy completion.
            let copy_done = self.active_copy.as_ref().is_some_and(|c| c.finish <= self.now);
            if copy_done {
                let copy = self.active_copy.take().expect("checked above");
                self.counters.transitions += 1;
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
            ids.clear();
            ids.extend_from_slice(self.running.ids());
            for &id in &ids {
                let (state, kernel_index, kernel_count) = {
                    let Some(item) = self.items.get(id.0) else { continue };
                    if !item.next_at.is_some_and(|t| t <= self.now) {
                        continue;
                    }
                    (item.state.clone(), item.kernel_index, item.spec.kernels.len())
                };
                match state {
                    ItemState::Running(KernelPhase::Launching) => {
                        if let Some(item) = self.items.get_mut(id.0) {
                            // At rate 0 the kernel has made no progress, and
                            // the rate pass that ends this pass sees its rate
                            // move, so it anchors the kernel at `now` and sets
                            // its compute finish.
                            item.state = ItemState::Running(KernelPhase::Computing);
                            item.rate = 0.0;
                            item.next_at = None;
                            let ctx = item.context.index();
                            self.computing[ctx].insert(id);
                            self.ctx_dirty[ctx] = true;
                        }
                        self.counters.transitions += 1;
                    }
                    ItemState::Running(KernelPhase::Computing) => {
                        self.counters.transitions += 1;
                        let item = self.items.get(id.0).expect("running items are in flight");
                        self.completed_work += item.work;
                        if self.recording {
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
                            let d2h = self.items.get(id.0).map(|i| i.spec.d2h_bytes).unwrap_or(0);
                            if d2h > 0 {
                                if let Some(item) = self.items.get_mut(id.0) {
                                    item.state = ItemState::PendingCopyOut;
                                    item.next_at = None;
                                    let ctx = item.context.index();
                                    self.computing[ctx].remove(id);
                                    self.ctx_dirty[ctx] = true;
                                }
                                self.running.remove(id);
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
            if !self.rescan {
                break;
            }
        }
        self.transition_ids = ids;
        #[cfg(debug_assertions)]
        self.check_nothing_due();
    }

    /// Marks an item complete, emits its completion, and activates the next
    /// item in its stream.
    fn finish_item(&mut self, item_id: WorkItemId, completions: &mut Vec<Completion>) {
        let Some(item) = self.items.get_mut(item_id.0) else { return };
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
        self.items.remove(item_id.0);
        self.running.remove(item_id);
        if self.computing[context].remove(item_id) {
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

    /// Runs the rate pass if a context's computing membership changed since
    /// the last one, and refreshes the cached next event instant.
    fn replan(&mut self) {
        if self.ctx_dirty.contains(&true) {
            self.replan_rates();
        } else {
            #[cfg(debug_assertions)]
            self.check_cached_rates();
        }
        let copy = self.active_copy.as_ref().map(|c| c.finish);
        let items = &self.items;
        self.next_at =
            self.running.ids().iter().filter_map(|&id| items.get(id.0)?.next_at).chain(copy).min();
        #[cfg(debug_assertions)]
        self.check_next_at();
    }

    /// Sets the SM rate of every computing kernel and re-anchors those whose
    /// rate moved. While recording, a moved allocation is recorded as a
    /// [`DeviceEvent::Replan`].
    ///
    /// Water-filling is cached per context and only recomputed for contexts
    /// whose computing membership changed since the last replan (`ctx_dirty`).
    /// The cross-context contention scale still applies globally, but that is
    /// a single multiply per computing item.
    fn replan_rates(&mut self) {
        self.counters.replans += 1;
        // Refresh the water-fill cache of dirty contexts.
        for ctx in 0..self.contexts.len() {
            if !self.ctx_dirty[ctx] {
                continue;
            }
            self.ctx_dirty[ctx] = false;
            let kernels = &mut self.water_fill.kernels;
            kernels.clear();
            for &id in self.computing[ctx].ids() {
                let item = self.items.get(id.0).expect("computing items are in flight");
                kernels.push((id, item.spec.kernels[item.kernel_index].parallelism));
            }
            let quota = f64::from(self.contexts[ctx].sm_quota);
            self.water_fill.run(quota, &mut self.ctx_alloc[ctx]);
        }
        let mut total = 0.0;
        let mut busy_contexts = 0usize;
        for ctx in 0..self.contexts.len() {
            if self.computing[ctx].ids().is_empty() {
                continue;
            }
            busy_contexts += 1;
            for (_, a) in &self.ctx_alloc[ctx] {
                total += *a;
            }
        }
        let (factor, allocation) = self.contention(total, busy_contexts);
        let bits = |(computing, utilization): (u32, f64)| (computing, utilization.to_bits());
        if bits(allocation) != bits(self.allocation) {
            let (computing, utilization) = allocation;
            self.record(DeviceEvent::Replan { computing, utilization });
        }
        self.allocation = allocation;
        // Apply the global factor; a kernel whose rate moved banks its
        // progress at the old rate and gets a new finish. Kernels re-anchored
        // by one pass share its anchor, so the elapsed time since an anchor
        // is converted once per run of equal anchors.
        let now = self.now;
        let mut elapsed: Option<(SimTime, f64)> = None;
        for ctx in 0..self.contexts.len() {
            for &(id, alloc) in &self.ctx_alloc[ctx] {
                let Some(item) = self.items.get_mut(id.0) else { continue };
                let rate = alloc * factor;
                if rate.to_bits() == item.rate.to_bits() {
                    continue;
                }
                let elapsed_us = match elapsed {
                    Some((anchor, us)) if anchor == item.anchor => us,
                    _ => {
                        let us = (now - item.anchor).as_micros_f64();
                        elapsed = Some((item.anchor, us));
                        us
                    }
                };
                let done = item.progress(elapsed_us);
                self.completed_work += done;
                item.work -= done;
                item.anchor = now;
                item.rate = rate;
                item.next_at = (rate > 0.0).then(|| compute_finish(now, item.work, rate));
            }
        }
    }

    /// The factor every water-filled allocation is scaled by when `busy`
    /// contexts demand `total` SMs (proportional down-scaling past the device
    /// width times the interference efficiency), and the `(busy contexts,
    /// utilization)` pair that allocation reports.
    fn contention(&self, total: f64, busy: usize) -> (f64, (u32, f64)) {
        if busy == 0 {
            return (0.0, (0, 0.0));
        }
        let sm_count = f64::from(self.spec.sm_count);
        let scale = if total > sm_count { sm_count / total } else { 1.0 };
        let efficiency = self.spec.interference.efficiency(busy, total / sm_count);
        let factor = scale * efficiency;
        (factor, (busy as u32, (total * factor / sm_count).min(1.0)))
    }

    /// Debug oracle for a skipped rate pass: water-filling every context from
    /// scratch reproduces each computing item's cached rate and the cached
    /// allocation bit for bit.
    #[cfg(debug_assertions)]
    fn check_cached_rates(&self) {
        let mut fill = WaterFill::default();
        let mut allocs = Vec::new();
        let (mut total, mut busy) = (0.0, 0);
        for ctx in 0..self.contexts.len() {
            if self.computing[ctx].ids().is_empty() {
                continue;
            }
            busy += 1;
            fill.kernels.clear();
            for &id in self.computing[ctx].ids() {
                let item = self.items.get(id.0).expect("computing items are in flight");
                fill.kernels.push((id, item.spec.kernels[item.kernel_index].parallelism));
            }
            let mut alloc = Vec::new();
            fill.run(f64::from(self.contexts[ctx].sm_quota), &mut alloc);
            for (_, a) in &alloc {
                total += *a;
            }
            allocs.extend(alloc);
        }
        let (factor, (computing, utilization)) = self.contention(total, busy);
        assert_eq!(computing, self.allocation.0, "skipped rate pass: busy contexts moved");
        assert_eq!(
            utilization.to_bits(),
            self.allocation.1.to_bits(),
            "skipped rate pass: utilization moved"
        );
        for (id, alloc) in allocs {
            let rate = self.items.get(id.0).expect("computing items are in flight").rate;
            assert_eq!(rate.to_bits(), (alloc * factor).to_bits(), "skipped rate pass: {id} moved");
        }
    }

    /// Debug oracle for the scan [`apply_transitions`](Self::apply_transitions)
    /// skips: when a transition pass stops scanning, no running item and no
    /// active copy is due at `now`.
    #[cfg(debug_assertions)]
    fn check_nothing_due(&self) {
        let now = self.now;
        assert!(
            !self.active_copy.as_ref().is_some_and(|c| c.finish <= now),
            "skipped scan: the active copy is due at {now}"
        );
        for &id in self.running.ids() {
            let item = self.items.get(id.0).expect("running items are in flight");
            assert!(
                !item.next_at.is_some_and(|t| t <= now),
                "skipped scan: item {id} is due at {now}"
            );
        }
    }

    /// Debug oracle for [`replan`](Self::replan): every computing item is
    /// covered by the allocation cache; every in-flight item's instant is
    /// the one its state implies (a compute finish recomputed from its
    /// anchor, work and rate, strictly in the future unless `now` is the end
    /// of time; a launch end not yet passed); and the cached minimum equals
    /// a scan of the whole slab and the active copy.
    #[cfg(debug_assertions)]
    fn check_next_at(&self) {
        for ctx in 0..self.contexts.len() {
            assert_eq!(
                self.ctx_alloc[ctx].len(),
                self.computing[ctx].ids().len(),
                "stale alloc cache"
            );
        }
        let copy = self.active_copy.as_ref().map(|c| c.finish);
        assert!(copy.map_or(true, |t| t >= self.now), "copy finish passed");
        let mut earliest = copy;
        for (id, item) in self.items.iter() {
            let expected = match item.state {
                ItemState::Running(KernelPhase::Launching) => {
                    assert!(
                        item.next_at.is_some_and(|t| t >= self.now),
                        "item {id}: launch end passed"
                    );
                    item.next_at
                }
                ItemState::Running(KernelPhase::Computing) if item.rate > 0.0 => {
                    assert!(item.anchor <= self.now, "item {id}: anchored in the future");
                    let at = compute_finish(item.anchor, item.work, item.rate);
                    assert!(
                        at > self.now || self.now == SimTime::MAX,
                        "item {id}: compute finish not in the future"
                    );
                    Some(at)
                }
                _ => None,
            };
            assert_eq!(item.next_at, expected, "item {id}: instant differs from its state");
            earliest = earliest.into_iter().chain(expected).min();
        }
        assert_eq!(self.next_at, earliest, "cached next event differs from a full scan");
    }

    /// Records an event stamped with the current time, if recording is on.
    fn record(&mut self, event: DeviceEvent) {
        if self.recording {
            self.events.push((self.now, event));
        }
    }
}

/// When a kernel with `work` SM·µs left at `anchor` finishes at `rate` SMs:
/// the exact instant rounded up to the next whole ns, so the work is done
/// when it fires, and never sooner than 1 ns after `anchor`, so a compute
/// finish always moves time forward. A finish past the end of time (an
/// overflowing or infinite `work / rate`) saturates at [`SimTime::MAX`].
fn compute_finish(anchor: SimTime, work: f64, rate: f64) -> SimTime {
    let span = SimDuration::from_nanos_f64_ceil(work / rate * 1e3);
    anchor.saturating_add(span.max(SimDuration::from_nanos(1)))
}

/// Water-filling of a context's SM quota over its computing kernels, with
/// buffers that persist across replans so a pass allocates nothing.
#[derive(Debug, Default)]
struct WaterFill {
    /// Input: `(item, parallelism)` of each computing kernel.
    kernels: Vec<(WorkItemId, u32)>,
    unsatisfied: Vec<usize>,
    next_unsatisfied: Vec<usize>,
}

impl WaterFill {
    /// Distributes `quota` SMs across `self.kernels` into `alloc`, capping
    /// each kernel at its own parallelism and spreading leftover capacity
    /// over the kernels that can still absorb it (classic water-filling).
    fn run(&mut self, quota: f64, alloc: &mut Vec<(WorkItemId, f64)>) {
        let kernels = &self.kernels;
        alloc.clear();
        alloc.extend(kernels.iter().map(|&(id, _)| (id, 0.0)));
        let mut remaining = quota;
        let unsatisfied = &mut self.unsatisfied;
        unsatisfied.clear();
        unsatisfied.extend(0..kernels.len());
        while remaining > 1e-9 && !unsatisfied.is_empty() {
            let share = remaining / unsatisfied.len() as f64;
            let next_unsatisfied = &mut self.next_unsatisfied;
            next_unsatisfied.clear();
            let mut consumed = 0.0;
            for &i in unsatisfied.iter() {
                let cap = f64::from(kernels[i].1);
                let a = &mut alloc[i].1;
                let want = cap - *a;
                if want <= share + 1e-12 {
                    *a = cap;
                    consumed += want;
                } else {
                    *a += share;
                    consumed += share;
                    next_unsatisfied.push(i);
                }
            }
            remaining -= consumed;
            // If nobody was saturated this round, the distribution is final.
            if next_unsatisfied.len() == unsatisfied.len() {
                break;
            }
            std::mem::swap(unsatisfied, next_unsatisfied);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn quiet_spec() -> GpuSpec {
        GpuSpec::rtx_2080_ti().without_interference()
    }

    #[test]
    fn add_contexts_carves_context_major_streams_at_a_clamped_quota() {
        let mut gpu = Gpu::new(quiet_spec());
        let streams = gpu.add_contexts(3, 90, 2).unwrap();
        assert_eq!(streams.iter().map(|s| s.index()).collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
        let owners: Vec<usize> =
            streams.iter().map(|s| gpu.streams[s.index()].context.index()).collect();
        assert_eq!(owners, [0, 0, 1, 1, 2, 2], "streams are numbered context-major");
        assert!(gpu.contexts.iter().all(|c| c.sm_quota == 68), "quota clamps to the device width");
        // A second carving continues the numbering.
        assert_eq!(gpu.add_contexts(1, 12, 1).unwrap()[0].index(), 6);
        assert_eq!((gpu.context_count(), gpu.contexts[3].sm_quota), (4, 12));
        assert_eq!(gpu.add_contexts(2, 0, 1), Err(GpuError::ZeroQuota));
        assert_eq!((gpu.context_count(), gpu.stream_count()), (4, 7), "a zero quota adds nothing");
    }

    #[test]
    fn single_kernel_timing_is_exact() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        // 680 SM·µs over 68 SMs = 10 µs of compute + 5 µs launch overhead.
        let item = WorkItem::new(1, vec![KernelDesc::new(680.0, 68)]);
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
        let item = WorkItem::new(1, vec![KernelDesc::new(680.0, 10)]);
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
        let item = WorkItem::new(1, vec![KernelDesc::new(680.0, 68)]);
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
        let item = WorkItem::new(1, vec![KernelDesc::new(680.0, 68), KernelDesc::new(680.0, 68)]);
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
        gpu.submit(s1, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
        gpu.submit(s2, WorkItem::new(2, vec![KernelDesc::new(680.0, 68)])).unwrap();
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
        gpu.submit(s1, WorkItem::new(1, vec![KernelDesc::new(300.0, 30)])).unwrap();
        gpu.submit(s2, WorkItem::new(2, vec![KernelDesc::new(300.0, 30)])).unwrap();
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
        gpu.submit(s1, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
        gpu.submit(s2, WorkItem::new(2, vec![KernelDesc::new(680.0, 68)])).unwrap();
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
        gpu.submit(s1, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
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
        let mk = |tag| WorkItem::new(tag, vec![KernelDesc::new(68.0, 68)]).with_h2d_bytes(12_000);
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
        gpu.submit(s, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
        gpu.submit(s, WorkItem::new(2, vec![KernelDesc::new(680.0, 68)])).unwrap();
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
        gpu.submit(s, WorkItem::new(7, vec![KernelDesc::new(680.0, 68)])).unwrap();
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
    fn submit_onto_a_busy_stream_runs_no_rate_pass_and_keeps_the_next_event() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = |tag| WorkItem::new(tag, vec![KernelDesc::new(680.0, 68)]);
        gpu.submit(s, item(1)).unwrap();
        // Mid-compute: item 1 finishes at 15 µs.
        gpu.advance_to(SimTime::from_micros(8));
        let next = gpu.next_event_time();
        assert_eq!(next, Some(SimTime::from_micros(15)));
        let before = gpu.work_counters();
        gpu.submit(s, item(2)).unwrap();
        assert_eq!(gpu.work_counters(), before, "a submit runs no rate pass");
        assert_eq!(gpu.next_event_time(), next, "no finish instant moved");
        assert_eq!(gpu.run_to_idle().len(), 2);
    }

    #[test]
    fn advancing_exactly_to_an_event_runs_one_rate_pass() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
        // The launch ends at 5 µs: one step, one transition, one rate pass.
        let before = gpu.work_counters();
        assert!(gpu.advance_to(SimTime::from_micros(5)).is_empty());
        let after = gpu.work_counters();
        assert_eq!(after.transitions, before.transitions + 1);
        assert_eq!(after.replans, before.replans + 1, "no trailing pass at the target");
        // Nothing is due at `now`: neither rates nor instants can move. Each
        // advance is one pass, and a pass that fires nothing scans once.
        let moved = |gpu: &Gpu| {
            let c = gpu.work_counters();
            (c.transitions - after.transitions, c.replans - after.replans, c.scans - after.scans)
        };
        assert!(gpu.advance_to(gpu.now()).is_empty());
        assert_eq!(moved(&gpu), (0, 0, 1));
        assert_eq!(gpu.next_event_time(), Some(SimTime::from_micros(15)));
        // Moving time with no membership change runs no rate pass and keeps
        // the anchored finish.
        gpu.advance_to(SimTime::from_micros(8));
        assert_eq!(moved(&gpu), (0, 0, 2));
        assert_eq!(gpu.next_event_time(), Some(SimTime::from_micros(15)));
    }

    #[test]
    fn a_flip_at_an_unchanged_instant_still_runs_the_rate_pass() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let kernel = KernelDesc::new(680.0, 68).with_launch_overhead(SimDuration::ZERO);
        gpu.submit(s, WorkItem::new(1, vec![kernel])).unwrap();
        // The launch ends at 0: the flip dirties the context without moving time.
        let before = gpu.work_counters();
        assert!(gpu.advance_to(SimTime::ZERO).is_empty());
        assert_eq!(gpu.work_counters().replans, before.replans + 1);
        assert_eq!(gpu.next_event_time(), Some(SimTime::from_micros(10)));
    }

    #[test]
    fn recorded_replans_mark_each_allocation_change() {
        let mut gpu = Gpu::new(quiet_spec());
        gpu.record_events();
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        fn replans(gpu: &mut Gpu) -> Vec<(SimTime, (u32, f64))> {
            gpu.drain_events()
                .filter_map(|(t, e)| match e {
                    DeviceEvent::Replan { computing, utilization } => {
                        Some((t, (computing, utilization)))
                    }
                    _ => None,
                })
                .collect()
        }
        let item = |tag| WorkItem::new(tag, vec![KernelDesc::new(680.0, 68)]);
        let us = SimTime::from_micros;
        gpu.submit(s, item(1)).unwrap();
        assert_eq!(replans(&mut gpu), [], "a submit moves no allocation");
        // No time moves and nothing computes: the idle allocation is not news.
        gpu.advance_to(us(0));
        assert_eq!(replans(&mut gpu), []);
        // The launch ends at 5 and item 1 computes; the step to 8 moves nothing.
        gpu.advance_to(us(8));
        assert_eq!(replans(&mut gpu), [(us(5), (1, 1.0))]);
        gpu.submit(s, item(2)).unwrap();
        assert_eq!(replans(&mut gpu), []);
        // Item 1 finishes at 15 while item 2 launches; item 2 computes at 20.
        gpu.advance_to(us(20));
        assert_eq!(replans(&mut gpu), [(us(15), (0, 0.0)), (us(20), (1, 1.0))]);
        gpu.advance_to(us(3));
        assert_eq!(replans(&mut gpu), [], "a past target is a no-op");
    }

    #[test]
    fn advance_to_a_past_target_is_a_no_op() {
        let mut gpu = Gpu::new(quiet_spec());
        gpu.record_events();
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
        gpu.advance_to(SimTime::from_micros(8));
        gpu.drain_events().for_each(drop);
        let (counters, next) = (gpu.work_counters(), gpu.next_event_time());
        assert!(gpu.advance_to(SimTime::from_micros(3)).is_empty());
        assert_eq!(gpu.now(), SimTime::from_micros(8));
        assert_eq!(gpu.work_counters(), counters, "no transition pass, no replan");
        assert_eq!(gpu.next_event_time(), next);
        assert_eq!(gpu.drain_events().count(), 0, "no spurious Replan event");
        assert_eq!(gpu.run_to_idle().len(), 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(
            s,
            WorkItem::new(
                1,
                vec![KernelDesc::new(680.0, 68).with_launch_overhead(SimDuration::ZERO)],
            ),
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
        gpu.submit(s, WorkItem::new(3, vec![KernelDesc::new(68.0, 68), KernelDesc::new(68.0, 68)]))
            .unwrap();
        gpu.run_to_idle();
        let events: Vec<_> = gpu.drain_events().collect();
        let count = |f: fn(&DeviceEvent) -> bool| events.iter().filter(|(_, e)| f(e)).count();
        assert_eq!(count(|e| matches!(e, DeviceEvent::ItemStarted { tag: 3, .. })), 1);
        assert_eq!(count(|e| matches!(e, DeviceEvent::KernelFinished { tag: 3, .. })), 2);
        assert_eq!(count(|e| matches!(e, DeviceEvent::ItemFinished { tag: 3, .. })), 1);
    }

    #[test]
    fn device_events_drain_in_occurrence_order_and_only_while_recording() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = |tag| {
            WorkItem::new(tag, vec![KernelDesc::new(68.0, 68).with_label("conv1")])
                .with_h2d_bytes(12_000)
                .with_d2h_bytes(12_000)
        };
        gpu.submit(s, item(1)).unwrap();
        gpu.run_to_idle();
        assert_eq!(gpu.drain_events().count(), 0, "nothing is recorded before record_events()");

        gpu.record_events();
        let t0 = gpu.now();
        gpu.submit(s, item(2)).unwrap();
        gpu.run_to_idle();
        let events: Vec<_> = gpu.drain_events().collect();
        let (stream, context) = (s.0, ctx.0);
        let at = |us| t0 + SimDuration::from_micros(us);
        // A 9 µs copy in, a 5 µs launch, 1 µs of compute, a 9 µs copy out:
        // each replan sits after the item events of its own pass, and one
        // drain of many passes keeps the order in which they happened.
        assert_eq!(
            events,
            [
                (at(0), DeviceEvent::CopyInStarted { tag: 2, stream, context }),
                (at(9), DeviceEvent::ItemStarted { tag: 2, stream, context }),
                (at(14), DeviceEvent::Replan { computing: 1, utilization: 1.0 }),
                (
                    at(15),
                    DeviceEvent::KernelFinished {
                        tag: 2,
                        stream,
                        context,
                        label: Some("conv1".into()),
                    }
                ),
                (at(15), DeviceEvent::CopyOutStarted { tag: 2, stream, context }),
                (at(15), DeviceEvent::Replan { computing: 0, utilization: 0.0 }),
                (at(24), DeviceEvent::ItemFinished { tag: 2, stream, context }),
            ]
        );
        assert_eq!(gpu.drain_events().count(), 0, "a drain empties the buffer");
    }

    #[test]
    fn drains_keep_the_event_buffers() {
        let mut gpu = Gpu::new(quiet_spec());
        gpu.record_events();
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(1, vec![KernelDesc::new(680.0, 68)])).unwrap();
        gpu.run_to_idle();
        let capacity = gpu.events.capacity();
        assert!(gpu.events.iter().any(|(_, e)| matches!(e, DeviceEvent::Replan { .. })));
        assert!(capacity > 0);
        // Dropping the drain unconsumed still empties the one buffer, which
        // holds the replans too.
        drop(gpu.drain_events());
        assert!(gpu.events.is_empty());
        assert_eq!(gpu.events.capacity(), capacity);
    }

    #[test]
    fn advance_until_completion_stops_after_the_first_completing_pass() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let (s1, s2) = (gpu.add_stream(ctx).unwrap(), gpu.add_stream(ctx).unwrap());
        let us = SimTime::from_micros;
        let mut done = Vec::new();
        // Nothing in flight: no pass, and the clock stays put.
        assert!(!gpu.advance_until_completion(us(100), &mut done));
        assert_eq!((gpu.now(), gpu.work_counters()), (SimTime::ZERO, WorkCounters::default()));
        // Alone, item 1 finishes at 15 µs; item 2 (10 SMs of 68) later.
        gpu.submit(s1, WorkItem::new(1, vec![KernelDesc::new(340.0, 34)])).unwrap();
        gpu.submit(s2, WorkItem::new(2, vec![KernelDesc::new(680.0, 10)])).unwrap();
        // The launch flips at 5 µs complete nothing: the clock stays on the
        // last pass, not on the bound.
        assert!(!gpu.advance_until_completion(us(8), &mut done));
        assert_eq!((gpu.now(), gpu.events_processed()), (us(5), 2));
        assert!(gpu.advance_until_completion(SimTime::MAX, &mut done));
        assert_eq!(done.iter().map(|c| (c.tag, c.finished_at)).collect::<Vec<_>>(), [(1, us(15))]);
        assert_eq!(gpu.now(), us(15), "it stops on the completing pass");
        assert!(gpu.advance_until_completion(SimTime::MAX, &mut done));
        assert_eq!(done.len(), 2);
        assert_eq!(gpu.now(), done[1].finished_at);
        assert_eq!(gpu.next_event_time(), None);
    }

    #[test]
    fn zero_length_launches_and_copies_fire_in_the_pass_that_starts_them() {
        let spec = GpuSpec { copy_latency: SimDuration::ZERO, ..quiet_spec() };
        let mut gpu = Gpu::new(spec);
        gpu.record_events();
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let kernel = |label| {
            KernelDesc::new(680.0, 68).with_launch_overhead(SimDuration::ZERO).with_label(label)
        };
        // One byte at 12,000 bytes/µs rounds to a zero-length copy. Item 1
        // chains two 10 µs kernels and a copy out; item 2 queues behind it
        // with a copy in and a 1 µs kernel.
        let first = WorkItem::new(1, vec![kernel("a"), kernel("b")]).with_d2h_bytes(1);
        let second = WorkItem::new(
            2,
            vec![KernelDesc::new(68.0, 68).with_launch_overhead(SimDuration::ZERO).with_label("c")],
        )
        .with_h2d_bytes(1);
        gpu.submit(s, first).unwrap();
        gpu.submit(s, second).unwrap();
        let done = gpu.run_to_idle();
        let us = |us| SimTime::from_micros(us);
        let times: Vec<_> =
            done.iter().map(|c| (c.tag, c.submitted_at, c.started_at, c.finished_at)).collect();
        assert_eq!(times, [(1, us(0), us(0), us(20)), (2, us(0), us(20), us(21))]);
        let (stream, context) = (s.0, ctx.0);
        let finished = |tag, label: &str| DeviceEvent::KernelFinished {
            tag,
            stream,
            context,
            label: Some(label.into()),
        };
        // At 20 µs one pass fires the kernel finish, the copy out it starts,
        // the completion, the copy in of item 2 that starts, and the launch
        // that starts: every step in the order it happens, and the
        // allocation never moves, so no Replan is recorded there.
        assert_eq!(
            gpu.drain_events().collect::<Vec<_>>(),
            [
                (us(0), DeviceEvent::ItemStarted { tag: 1, stream, context }),
                (us(0), DeviceEvent::Replan { computing: 1, utilization: 1.0 }),
                (us(10), finished(1, "a")),
                (us(20), finished(1, "b")),
                (us(20), DeviceEvent::CopyOutStarted { tag: 1, stream, context }),
                (us(20), DeviceEvent::ItemFinished { tag: 1, stream, context }),
                (us(20), DeviceEvent::CopyInStarted { tag: 2, stream, context }),
                (us(20), DeviceEvent::ItemStarted { tag: 2, stream, context }),
                (us(21), finished(2, "c")),
                (us(21), DeviceEvent::ItemFinished { tag: 2, stream, context }),
                (us(21), DeviceEvent::Replan { computing: 0, utilization: 0.0 }),
            ]
        );
        // Passes at 0, 10, 20 and 21 µs. The one at 10 µs scans again for
        // the launch it starts; the one at 20 µs for the copy out, then the
        // copy in, then item 2's launch.
        let counters = gpu.work_counters();
        assert_eq!((counters.transitions, counters.replans, counters.scans), (8, 4, 8));
    }

    #[test]
    fn a_finish_past_the_end_of_time_saturates() {
        // Two busy contexts at an absurd penalty: each kernel's rate is about
        // 3.4e-299 SMs, so its 680 SM·µs take about 2e304 ns, far past
        // `SimTime::MAX`. Each item has two kernels and one copies out, so a
        // second launch and a copy start at `SimTime::MAX`, and so does the
        // item queued behind each one: one advance to the end of time must
        // fire all of them.
        let mut spec = quiet_spec();
        spec.interference.per_context_penalty = 1e300;
        let mut gpu = Gpu::new(spec);
        let streams = gpu.add_contexts(2, 68, 1).unwrap();
        let kernels = || vec![KernelDesc::new(680.0, 68), KernelDesc::new(680.0, 68)];
        for (tag, &s) in streams.iter().enumerate() {
            let tag = tag as u64;
            gpu.submit(s, WorkItem::new(tag, kernels()).with_d2h_bytes(tag * 1_000)).unwrap();
            gpu.submit(s, WorkItem::new(tag + 2, kernels()).with_h2d_bytes(1_000)).unwrap();
        }
        // Both launches end at 5 µs; neither kernel finishes 1 ns later.
        assert!(gpu.advance_to(SimTime::from_millis(1)).is_empty());
        assert_eq!(gpu.next_event_time(), Some(SimTime::MAX));
        let done = gpu.advance_to(SimTime::MAX);
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, [0, 1, 2, 3]);
        assert!(done.iter().all(|c| c.finished_at == SimTime::MAX), "{done:?}");
        assert_eq!(gpu.pending_items(), 0);
        assert_eq!(gpu.next_event_time(), None);
    }

    #[test]
    fn id_set_iterates_like_a_btree_set() {
        let mut rng = XorShiftRng::new(7);
        let mut set = IdSet::default();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..5_000 {
            let id = WorkItemId(rng.next_u64() % 24);
            if rng.next_u64() % 2 == 0 {
                assert_eq!(set.insert(id), oracle.insert(id));
            } else {
                assert_eq!(set.remove(id), oracle.remove(&id));
            }
            assert!(set.ids().iter().eq(oracle.iter()), "{:?} vs {oracle:?}", set.ids());
        }
    }

    #[test]
    fn errors_for_unknown_handles() {
        let mut gpu = Gpu::new(quiet_spec());
        assert_eq!(gpu.add_stream(ContextId(0)), Err(GpuError::UnknownContext(ContextId(0))));
        assert_eq!(gpu.add_context(0), Err(GpuError::ZeroQuota));
        let item = WorkItem::new(1, vec![KernelDesc::new(1.0, 1)]);
        assert_eq!(gpu.submit(StreamId(9), item), Err(GpuError::UnknownStream(StreamId(9))));
    }

    #[test]
    fn quota_is_clamped_to_device_width() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(1_000).unwrap();
        assert_eq!(gpu.contexts[ctx.index()].sm_quota, 68);
    }

    fn water_fill(quota: f64, kernels: &[(WorkItemId, u32)]) -> Vec<(WorkItemId, f64)> {
        let mut fill = WaterFill { kernels: kernels.to_vec(), ..WaterFill::default() };
        let mut alloc = Vec::new();
        fill.run(quota, &mut alloc);
        alloc
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
            gpu.submit(s, WorkItem::new(tag, vec![KernelDesc::new(6_800.0, 68)])).unwrap();
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
