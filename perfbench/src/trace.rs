//! Spans recorded from outside the simulator, at the boundary of each layer.
//!
//! Nothing here reaches into a crate's internals: [`TracedScheduler`] wraps
//! any [`Scheduler`] and times every trait call, [`TimedSource`] wraps an
//! [`ArrivalSource`], [`TimedSink`] wraps a [`TelemetrySink`], and the
//! workload code records its own spans around construction and runs. Spans
//! stay in memory (per wrapper, flushed into the shared [`Recorder`] when a
//! scheduler finishes) and are written out once the benchmark ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use daris_core::{ExperimentOutcome, Result as CoreResult, Scheduler};
use daris_gpu::SimTime;
use daris_telemetry::{TelemetryEvent, TelemetrySink};
use daris_workload::{ArrivalSource, Job, JobId, Priority, TaskId, TaskSet, TaskSpec};

use crate::alloc_count;

/// The layer a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Placement and per-device scheduler construction (model profiling).
    Setup,
    /// The cluster dispatcher's `run`.
    Cluster,
    /// DARIS scheduler calls (and a single-device run).
    Core,
    /// Baseline scheduler calls.
    Baselines,
    /// Arrival sources and trace generation.
    Workload,
    /// The fleet telemetry sink.
    Telemetry,
}

/// What a span did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// A whole run (`ClusterDispatcher::run` or a single-device run).
    Run,
    /// `ClusterDispatcher::with_factory` (placement plus builds).
    Construct,
    /// One per-device scheduler build.
    Build,
    /// Materialising a trace.
    Generate,
    /// `Scheduler::advance_to`.
    Advance,
    /// `Scheduler::dispatch_ready`.
    Dispatch,
    /// `Scheduler::try_release_job` (`ok` = admitted).
    Release,
    /// `Scheduler::reject_job`.
    Reject,
    /// Dispatcher probes: `would_admit`, `migratable_jobs`,
    /// `queue_backlog`, `idle_stream_count`, `active_load_fraction`.
    Probe,
    /// `Scheduler::withdraw_queued_job` (`ok` = a job came back).
    Withdraw,
    /// `Scheduler::adopt_task`.
    Adopt,
    /// `Scheduler::finish`.
    Finish,
    /// `ArrivalSource::next_job`.
    NextJob,
    /// `TelemetrySink::record` / `record_batch`.
    Record,
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer charged.
    pub layer: Layer,
    /// Operation.
    pub op: Op,
    /// Small per-process thread index (see [`thread_index`]).
    pub thread: u32,
    /// Start, in nanoseconds since the process clock's epoch.
    pub start_ns: u64,
    /// End, in the same clock.
    pub end_ns: u64,
    /// Heap allocations the thread made during the call (0 untraced).
    pub allocs: u64,
    /// Call-specific success flag (admitted, withdrawn); `true` otherwise.
    pub ok: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process (monotonic). The
/// benchmark's one clock: wall time is what it measures, and nothing it
/// reads feeds back into a simulation.
#[allow(clippy::disallowed_methods)]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let nanos = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// A small, stable index for the calling thread (0 for the first thread
/// that asks, usually `main`).
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    INDEX.with(|index| {
        if index.get() == u32::MAX {
            index.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        index.get()
    })
}

/// A call in progress: where its clock and allocation count started.
#[derive(Debug, Clone, Copy)]
struct Open {
    start_ns: u64,
    allocs: u64,
}

impl Open {
    fn now() -> Self {
        Open { allocs: alloc_count::thread_allocs(), start_ns: now_ns() }
    }

    fn close(self, layer: Layer, op: Op, ok: bool) -> Span {
        let end_ns = now_ns();
        Span {
            layer,
            op,
            thread: thread_index(),
            start_ns: self.start_ns,
            end_ns,
            allocs: alloc_count::thread_allocs().saturating_sub(self.allocs),
            ok,
        }
    }
}

/// Everything one traced repetition recorded.
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// Every span, in flush order.
    pub spans: Vec<Span>,
    /// Sum of busy-stream samples (one per `dispatch_ready`).
    pub busy_stream_sum: u64,
    /// Number of busy-stream samples.
    pub busy_stream_samples: u64,
    /// Events the fleet telemetry sink received.
    pub sink_events: u64,
}

/// The shared span store of one traced repetition. Cloning shares it.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    state: Arc<Mutex<Recording>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn lock(&self) -> MutexGuard<'_, Recording> {
        self.state.lock().expect("recorder lock poisoned: a traced call panicked")
    }

    /// Runs `f` and records it as one span on the calling thread.
    pub fn time<T>(&self, layer: Layer, op: Op, f: impl FnOnce() -> T) -> T {
        let open = Open::now();
        let out = f();
        let span = open.close(layer, op, true);
        self.lock().spans.push(span);
        out
    }

    /// Takes everything recorded so far.
    pub fn take(&self) -> Recording {
        std::mem::take(&mut *self.lock())
    }
}

/// A wrapper's private buffer, flushed into its recorder.
#[derive(Debug)]
struct Local {
    recorder: Recorder,
    spans: Vec<Span>,
    busy_sum: u64,
    busy_samples: u64,
}

impl Local {
    fn new(recorder: Recorder) -> Self {
        Local { recorder, spans: Vec::new(), busy_sum: 0, busy_samples: 0 }
    }

    fn flush(&mut self) {
        // Never panic here: this also runs from `Drop`. Taking the buffer
        // (rather than `append`, which keeps its capacity) frees it now, so
        // dropping the wrapper later frees only the simulator's memory.
        if let Ok(mut state) = self.recorder.state.lock() {
            state.spans.extend(std::mem::take(&mut self.spans));
            state.busy_stream_sum += std::mem::take(&mut self.busy_sum);
            state.busy_stream_samples += std::mem::take(&mut self.busy_samples);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A [`Scheduler`] that times and counts every trait call into `inner`.
///
/// It keeps the trait's default `run_span`, so the event loop itself runs
/// here and each step it takes is one timed call. After every
/// `dispatch_ready` it samples how many streams are busy. Spans go to a
/// private buffer, flushed into the recorder by `finish` (so a later drop
/// frees nothing the benchmark allocated) and again on drop.
#[derive(Debug)]
pub struct TracedScheduler<S> {
    inner: S,
    layer: Layer,
    streams: usize,
    local: RefCell<Local>,
}

impl<S: Scheduler> TracedScheduler<S> {
    /// Wraps a freshly built scheduler; its idle-stream count at this point
    /// is taken as its stream total.
    pub fn new(inner: S, layer: Layer, recorder: Recorder) -> Self {
        let streams = inner.idle_stream_count();
        TracedScheduler { inner, layer, streams, local: RefCell::new(Local::new(recorder)) }
    }

    fn timed<T>(&self, op: Op, f: impl FnOnce(&S) -> T) -> T {
        let open = Open::now();
        let out = f(&self.inner);
        let span = open.close(self.layer, op, true);
        self.local.borrow_mut().spans.push(span);
        out
    }

    fn timed_mut<T>(&mut self, op: Op, ok: impl Fn(&T) -> bool, f: impl FnOnce(&mut S) -> T) -> T {
        let open = Open::now();
        let out = f(&mut self.inner);
        let span = open.close(self.layer, op, ok(&out));
        self.local.get_mut().spans.push(span);
        out
    }
}

fn always<T>(_: &T) -> bool {
    true
}

impl<S: Scheduler> Scheduler for TracedScheduler<S> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.inner.next_event_time()
    }

    fn advance_to(&mut self, target: SimTime) {
        self.timed_mut(Op::Advance, always, |s| s.advance_to(target));
    }

    fn dispatch_ready(&mut self) {
        self.timed_mut(Op::Dispatch, always, S::dispatch_ready);
        let busy = self.streams.saturating_sub(self.inner.idle_stream_count());
        let local = self.local.get_mut();
        local.busy_sum += busy as u64;
        local.busy_samples += 1;
    }

    fn try_release_job(&mut self, job: Job) -> bool {
        self.timed_mut(Op::Release, |admitted| *admitted, |s| s.try_release_job(job))
    }

    fn reject_job(&mut self, job: &Job) {
        self.timed_mut(Op::Reject, always, |s| s.reject_job(job));
    }

    fn would_admit(&self, task: TaskId, priority: Priority) -> bool {
        self.timed(Op::Probe, |s| s.would_admit(task, priority))
    }

    fn adopt_task(&mut self, task: &TaskSpec) -> CoreResult<TaskId> {
        self.timed_mut(Op::Adopt, always, |s| s.adopt_task(task))
    }

    fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job> {
        self.timed_mut(Op::Withdraw, Option::is_some, |s| s.withdraw_queued_job(job))
    }

    fn migratable_jobs(&self) -> Vec<JobId> {
        self.timed(Op::Probe, S::migratable_jobs)
    }

    fn queue_backlog(&self) -> usize {
        self.timed(Op::Probe, S::queue_backlog)
    }

    fn idle_stream_count(&self) -> usize {
        self.timed(Op::Probe, S::idle_stream_count)
    }

    fn active_load_fraction(&self) -> f64 {
        self.timed(Op::Probe, S::active_load_fraction)
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn taskset(&self) -> &TaskSet {
        self.inner.taskset()
    }

    fn finish(&mut self, horizon: SimTime) -> ExperimentOutcome {
        let outcome = self.timed_mut(Op::Finish, always, |s| s.finish(horizon));
        self.local.get_mut().flush();
        outcome
    }
}

/// An [`ArrivalSource`] that times every `next_job` of `inner`.
#[derive(Debug)]
pub struct TimedSource<A> {
    inner: A,
    local: Local,
}

impl<A: ArrivalSource> TimedSource<A> {
    /// Wraps `inner`.
    pub fn new(inner: A, recorder: Recorder) -> Self {
        TimedSource { inner, local: Local::new(recorder) }
    }
}

impl<A: ArrivalSource> ArrivalSource for TimedSource<A> {
    fn next_release(&self) -> Option<SimTime> {
        self.inner.next_release()
    }

    fn next_job(&mut self) -> Option<Job> {
        let open = Open::now();
        let job = self.inner.next_job();
        self.local.spans.push(open.close(Layer::Workload, Op::NextJob, job.is_some()));
        job
    }
}

/// A [`TelemetrySink`] that times every call into `inner` and counts the
/// events it forwards. Spans go straight to the recorder: the dispatcher
/// calls its fleet sink only at round boundaries, on one thread.
#[derive(Debug)]
pub struct TimedSink<T> {
    inner: T,
    recorder: Recorder,
}

impl<T: TelemetrySink> TimedSink<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, recorder: Recorder) -> Self {
        TimedSink { inner, recorder }
    }

    fn note(&self, open: Open, events: usize) {
        let span = open.close(Layer::Telemetry, Op::Record, true);
        let mut state = self.recorder.lock();
        state.spans.push(span);
        state.sink_events += events as u64;
    }
}

impl<T: TelemetrySink> TelemetrySink for TimedSink<T> {
    fn record(&mut self, event: &TelemetryEvent) {
        let open = Open::now();
        self.inner.record(event);
        self.note(open, 1);
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        let open = Open::now();
        let count = events.len();
        self.inner.record_batch(events);
        self.note(open, count);
    }
}

/// Length of `[start, end)` not covered by any of `children` (each clipped
/// to the parent): a span's self time when `children` are the spans that
/// ran inside it on the same thread.
pub fn uncovered_ns(parent: (u64, u64), children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Self time of every span whose `(layer, op)` is `parent`: its duration
/// minus whatever other spans of the same thread covered. Summed over all
/// such spans.
pub fn self_time_ns(spans: &[Span], parent: (Layer, Op)) -> u64 {
    let mut by_thread: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| (s.layer, s.op) != parent) {
        by_thread.entry(span.thread).or_default().push((span.start_ns, span.end_ns));
    }
    for intervals in by_thread.values_mut() {
        intervals.sort_unstable();
    }
    spans
        .iter()
        .filter(|s| (s.layer, s.op) == parent)
        .map(|p| {
            let inside: &[(u64, u64)] = by_thread.get(&p.thread).map_or(&[], |intervals| {
                let lo = intervals.partition_point(|&(s, _)| s < p.start_ns);
                let hi = intervals.partition_point(|&(s, _)| s < p.end_ns);
                &intervals[lo..hi]
            });
            uncovered_ns((p.start_ns, p.end_ns), inside.iter().copied())
        })
        .sum()
}

/// Writes `spans` as CSV (`thread,layer,op,start_ns,end_ns,allocs,ok`).
///
/// # Errors
///
/// Returns the I/O error of creating or writing `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,layer,op,start_ns,end_ns,allocs,ok")?;
    for s in spans {
        writeln!(
            out,
            "{},{:?},{:?},{},{},{},{}",
            s.thread, s.layer, s.op, s.start_ns, s.end_ns, s.allocs, s.ok
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, op: Op, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { layer, op, thread, start_ns, end_ns, allocs: 0, ok: true }
    }

    #[test]
    fn uncovered_subtracts_the_union_of_children() {
        assert_eq!(uncovered_ns((0, 100), []), 100);
        assert_eq!(uncovered_ns((0, 100), [(10, 20), (30, 50)]), 70);
        // Overlapping and nested children count once.
        assert_eq!(uncovered_ns((0, 100), [(10, 40), (20, 30), (35, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(uncovered_ns((50, 100), [(0, 60), (90, 200)]), 30);
        assert_eq!(uncovered_ns((0, 100), [(0, 100)]), 0);
    }

    #[test]
    fn self_time_counts_only_same_thread_children() {
        let spans = [
            span(Layer::Cluster, Op::Run, 0, 0, 1_000),
            span(Layer::Core, Op::Advance, 0, 100, 300),
            span(Layer::Core, Op::Dispatch, 0, 300, 400),
            // Another thread's work inside the same interval is not a child.
            span(Layer::Core, Op::Advance, 1, 100, 900),
            // A span after the parent ends is not a child either.
            span(Layer::Core, Op::Finish, 0, 1_000, 1_200),
        ];
        assert_eq!(self_time_ns(&spans, (Layer::Cluster, Op::Run)), 700);
        // Leaf spans have no children: self time is their duration.
        assert_eq!(self_time_ns(&spans, (Layer::Core, Op::Dispatch)), 100);
    }

    #[test]
    fn self_time_sums_over_parents_and_handles_nesting() {
        let spans = [
            span(Layer::Cluster, Op::Run, 0, 0, 100),
            span(Layer::Core, Op::Advance, 0, 10, 60),
            span(Layer::Telemetry, Op::Record, 0, 20, 30),
            span(Layer::Cluster, Op::Run, 0, 200, 260),
            span(Layer::Core, Op::Probe, 0, 250, 270),
        ];
        // 100 - 50 (the advance covers the nested record) + 60 - 10.
        assert_eq!(self_time_ns(&spans, (Layer::Cluster, Op::Run)), 100);
    }
}
