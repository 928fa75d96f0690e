//! How often the run loop wakes a scheduler must never show in its results.
//!
//! `Scheduler::run_span` steps the device through `advance_toward`. DARIS
//! wakes at stage completions, the baselines at batch completions and at
//! batch-flush timeouts, which they report as their next event; the loop
//! adds the releases. The provided default wakes at every event the
//! scheduler reports, and a wrapper that forwards only the required methods
//! runs it, as a tracing wrapper does. So each run below is compared
//! against the bare scheduler: summaries, digests and the full telemetry
//! stream must be equal. A counting wrapper that forwards `advance_toward`
//! shows how few wake-ups each scheduler takes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use daris::baselines::{BaselineScheduler, BatchingServer, GsliceServer};
use daris::cluster::{
    ClusterConfig, ClusterDispatcher, ClusterOutcome, ClusterSpec, DeviceSlot, DeviceSpec,
    PlacementStrategy,
};
use daris::core::{
    DarisConfig, DarisScheduler, ExperimentOutcome, GpuPartition, Result, RunSpec, Scheduler,
};
use daris::gpu::{DeviceEvent, GpuSpec, SimDuration, SimTime};
use daris::models::DnnKind;
use daris::telemetry::{EventKind, MemorySink, SinkHandle, TelemetryEvent};
use daris::workload::{
    BurstyConfig, GenSpec, Job, JobId, Priority, ReleaseJitter, TaskId, TaskSet, TaskSetBuilder,
    TaskSpec,
};

/// Forwards every required [`Scheduler`] method but `advance_to` to
/// `self.inner`.
macro_rules! forward_required_but_advance_to {
    () => {
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn next_event_time(&self) -> Option<SimTime> {
            self.inner.next_event_time()
        }
        fn dispatch_ready(&mut self) {
            self.inner.dispatch_ready();
        }
        fn try_release_job(&mut self, job: Job) -> bool {
            self.inner.try_release_job(job)
        }
        fn reject_job(&mut self, job: &Job) {
            self.inner.reject_job(job);
        }
        fn would_admit(&self, task: TaskId, priority: Priority) -> bool {
            self.inner.would_admit(task, priority)
        }
        fn adopt_task(&mut self, task: &TaskSpec) -> Result<TaskId> {
            self.inner.adopt_task(task)
        }
        fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job> {
            self.inner.withdraw_queued_job(job)
        }
        fn migratable_jobs(&self) -> Vec<JobId> {
            self.inner.migratable_jobs()
        }
        fn queue_backlog(&self) -> usize {
            self.inner.queue_backlog()
        }
        fn idle_stream_count(&self) -> usize {
            self.inner.idle_stream_count()
        }
        fn active_load_fraction(&self) -> f64 {
            self.inner.active_load_fraction()
        }
        fn events_processed(&self) -> u64 {
            self.inner.events_processed()
        }
        fn taskset(&self) -> &TaskSet {
            self.inner.taskset()
        }
        fn finish(&mut self, horizon: SimTime) -> ExperimentOutcome {
            self.inner.finish(horizon)
        }
    };
}

/// Forwards only the required methods, so `run_span` takes the provided
/// `advance_toward`: one wake-up per engine transition and per reported
/// timer. Counts the `advance_to` calls it forwards.
#[derive(Debug)]
struct PerTransition<S> {
    inner: S,
    advances: Arc<AtomicU64>,
}

impl<S: Scheduler> Scheduler for PerTransition<S> {
    forward_required_but_advance_to!();

    fn advance_to(&mut self, target: SimTime) {
        self.advances.fetch_add(1, Ordering::Relaxed);
        self.inner.advance_to(target);
    }
}

/// What a [`Counted`] scheduler's own stepping did.
#[derive(Debug, Default)]
struct WakeUps {
    /// `advance_toward` calls.
    calls: AtomicU64,
    /// Calls that stopped without freeing a stream: at a timer, since a
    /// completion frees the stream it ran on and nothing dispatches during
    /// the step.
    timers: AtomicU64,
}

impl WakeUps {
    fn get(&self) -> (u64, u64) {
        (self.calls.load(Ordering::Relaxed), self.timers.load(Ordering::Relaxed))
    }
}

/// Forwards `advance_toward` too, counting the calls: the wake-ups the
/// wrapped scheduler's own stepping takes.
#[derive(Debug)]
struct Counted<S> {
    inner: S,
    wake_ups: Arc<WakeUps>,
}

impl<S: Scheduler> Scheduler for Counted<S> {
    forward_required_but_advance_to!();

    fn advance_to(&mut self, target: SimTime) {
        self.inner.advance_to(target);
    }

    fn advance_toward(&mut self, bound: SimTime) -> bool {
        self.wake_ups.calls.fetch_add(1, Ordering::Relaxed);
        let idle = self.inner.idle_stream_count();
        let stopped = self.inner.advance_toward(bound);
        if stopped && self.inner.idle_stream_count() == idle {
            self.wake_ups.timers.fetch_add(1, Ordering::Relaxed);
        }
        stopped
    }
}

fn per_transition<S>(inner: S, advances: &Arc<AtomicU64>) -> PerTransition<S> {
    PerTransition { inner, advances: Arc::clone(advances) }
}

fn counted<S>(inner: S, wake_ups: &Arc<WakeUps>) -> Counted<S> {
    Counted { inner, wake_ups: Arc::clone(wake_ups) }
}

/// `DeviceSpan` events in a telemetry stream.
fn spans(events: &[TelemetryEvent]) -> u64 {
    events.iter().filter(|e| matches!(e.kind, EventKind::DeviceSpan { .. })).count() as u64
}

/// Item completions recorded in a telemetry stream.
fn completions(events: &[TelemetryEvent]) -> u64 {
    let finished =
        |e: &&TelemetryEvent| matches!(e.kind, EventKind::Device(DeviceEvent::ItemFinished { .. }));
    events.iter().filter(finished).count() as u64
}

#[test]
fn standalone_daris_results_do_not_depend_on_its_wake_ups() {
    let taskset = TaskSet::mixed();
    let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(2), seed: 7 };
    let spec = RunSpec::jittered(jitter).until(SimTime::from_millis(200));
    let observed = || {
        let sink = MemorySink::unbounded();
        let config =
            DarisConfig::new(GpuPartition::mps(6, 2.0)).with_sink(SinkHandle::new(sink.clone()));
        (DarisScheduler::new(&taskset, config).expect("scheduler builds"), sink)
    };
    let (mut bare, bare_sink) = observed();
    let expected = bare.run(&spec).expect("spec runs");

    let advances = Arc::new(AtomicU64::new(0));
    let (inner, sink) = observed();
    let outcome = per_transition(inner, &advances).run(&spec).expect("spec runs");
    assert_eq!(outcome.summary, expected.summary);
    assert_eq!(outcome.mret_trace, expected.mret_trace);
    assert_eq!(sink.events(), bare_sink.events(), "the telemetry stream moved");

    let counts = Arc::new(WakeUps::default());
    let (inner, sink) = observed();
    let outcome = counted(inner, &counts).run(&spec).expect("spec runs");
    assert_eq!(outcome.summary, expected.summary);
    let events = sink.events();
    assert_eq!(events, bare_sink.events());
    let ((wake_ups, timers), releases) = (counts.get(), expected.summary.total.released);
    assert_eq!(timers, 0, "DARIS has no timers");
    let bound = completions(&events) + releases as u64 + 1;
    assert!(wake_ups <= bound, "{wake_ups} wake-ups past completions + releases + 1 span: {bound}");
    let per_transition = advances.load(Ordering::Relaxed);
    assert!(wake_ups < per_transition, "{wake_ups} wake-ups, {per_transition} transitions");
}

/// The multi-rack bursty fleet of the determinism suite: 16 RTX 2080 Tis in
/// 4 racks, the first rack single-stream devices that back up under bursts,
/// so rack-local retry, migration and the cross-rack exchange all move work.
fn run_racked<S: Scheduler + Send>(
    factory: impl Fn(DeviceSlot<'_>) -> Result<S> + Sync,
) -> (ClusterOutcome, Vec<TelemetryEvent>) {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 10);
    let fleet = (0..16u64).fold(ClusterSpec::new(), |fleet, d| {
        let partition =
            if d < 4 { GpuPartition::str_streams(1) } else { GpuPartition::mps(6, 6.0) };
        let gpu = GpuSpec::rtx_2080_ti().with_seed(0x5eed_0000 + d);
        fleet.with_device(DeviceSpec::new(format!("gpu{d}"), gpu, partition))
    });
    let sink = MemorySink::unbounded();
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads: 2,
        racks: 4,
        sink: Some(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(150));
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xD16E57, ..Default::default() });
    let outcome = ClusterDispatcher::with_factory(&taskset, fleet, config, factory)
        .expect("valid 16-device 4-rack configuration")
        .run(&RunSpec::generated(spec).until(horizon))
        .expect("spec runs");
    let summary = &outcome.summary;
    assert!(summary.cluster_admissions > 0, "no rack-local retry admitted work: {summary:?}");
    assert!(summary.migrations > 0, "no rack-local migration moved work: {summary:?}");
    assert!(summary.cross_rack_migrations > 0, "no cross-rack migration: {summary:?}");
    (outcome, sink.events())
}

/// The per-device DARIS build of `ClusterDispatcher::new` under the default
/// cluster config.
fn daris(slot: DeviceSlot<'_>) -> Result<DarisScheduler> {
    let cluster = ClusterConfig::default();
    let mut config = DarisConfig::new(slot.spec.partition)
        .with_gpu(slot.spec.gpu.clone())
        .with_reference_calibration(slot.reference.clone())
        .with_window_size(cluster.window_size)
        .with_ablation(cluster.ablation);
    if let Some(sink) = slot.sink {
        config = config.with_sink(sink);
    }
    DarisScheduler::new(slot.taskset, config)
}

fn assert_same_run(
    label: &str,
    (outcome, events): &(ClusterOutcome, Vec<TelemetryEvent>),
    (expected, expected_events): &(ClusterOutcome, Vec<TelemetryEvent>),
) {
    assert_eq!(outcome.summary, expected.summary, "{label}: the fleet summary moved");
    assert_eq!(outcome.summary_hash(), expected.summary_hash(), "{label}: the digest moved");
    assert!(events == expected_events, "{label}: the telemetry stream moved");
}

#[test]
fn racked_daris_fleet_results_do_not_depend_on_its_wake_ups() {
    let expected = run_racked(daris);

    let advances = Arc::new(AtomicU64::new(0));
    let run = run_racked(|slot| daris(slot).map(|s| per_transition(s, &advances)));
    assert_same_run("per-transition DARIS fleet", &run, &expected);

    let counts = Arc::new(WakeUps::default());
    let run = run_racked(|slot| daris(slot).map(|s| counted(s, &counts)));
    assert_same_run("counted DARIS fleet", &run, &expected);
    let (outcome, events) = &run;
    let (wake_ups, timers) = counts.get();
    assert_eq!(timers, 0, "DARIS has no timers");
    let bound = completions(events) + outcome.summary.total.released as u64 + spans(events);
    assert!(wake_ups <= bound, "{wake_ups} wake-ups past completions + releases + spans: {bound}");
    let per_transition = advances.load(Ordering::Relaxed);
    assert!(wake_ups < per_transition, "{wake_ups} wake-ups, {per_transition} transitions");
}

/// A light two-device baseline fleet, each device's scheduler built by
/// `build` and passed through `wrap`. Most batches never fill at this load:
/// InceptionV3's batch of eight cannot fill from two tasks, so its jobs
/// complete only through timeout flushes.
fn run_light_fleet<S: Scheduler + Send>(
    build: impl Fn(&DeviceSlot<'_>) -> Result<BaselineScheduler> + Sync,
    wrap: impl Fn(BaselineScheduler) -> S + Sync,
) -> (ClusterOutcome, Vec<TelemetryEvent>) {
    let taskset = TaskSetBuilder::new()
        .add_tasks(DnnKind::ResNet18, 3, 30.0, Priority::High)
        .add_tasks(DnnKind::UNet, 1, 24.0, Priority::Low)
        .add_tasks(DnnKind::InceptionV3, 2, 20.0, Priority::Low)
        .add_tasks(DnnKind::ResNet18, 2, 15.0, Priority::Low)
        .build();
    let fleet = ClusterSpec::homogeneous(2, GpuSpec::rtx_2080_ti(), GpuPartition::mps(2, 2.0));
    let sink = MemorySink::unbounded();
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads: 2,
        sink: Some(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(300));
    let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(3), seed: 11 };
    let outcome =
        ClusterDispatcher::with_factory(&taskset, fleet, config, |slot| Ok(wrap(build(&slot)?)))
            .expect("valid baseline fleet")
            .run(&RunSpec::jittered(jitter).until(horizon))
            .expect("spec runs");
    assert!(outcome.summary.total.completed > 0, "the fleet did no work");
    (outcome, sink.events())
}

/// Runs the light fleet of `build`'s baseline bare, per transition and
/// counted: all three runs must be equal, and the counted one wakes at
/// most once per release, batch completion, timer and span.
fn assert_baseline_fleet_ignores_wake_ups(
    label: &str,
    build: impl Fn(&DeviceSlot<'_>) -> Result<BaselineScheduler> + Sync,
) {
    let expected = run_light_fleet(&build, |scheduler| scheduler);
    let advances = Arc::new(AtomicU64::new(0));
    let run = run_light_fleet(&build, |scheduler| per_transition(scheduler, &advances));
    assert_same_run(&format!("per-transition {label} fleet"), &run, &expected);

    let counts = Arc::new(WakeUps::default());
    let run = run_light_fleet(&build, |scheduler| counted(scheduler, &counts));
    assert_same_run(&format!("counted {label} fleet"), &run, &expected);
    let (outcome, events) = &run;
    let (wake_ups, timers) = counts.get();
    assert!(timers > 0, "{label}: no batch flushed at a timer");
    // Every completed batch holds at least one job, and baselines record no
    // device events, so completed jobs bound the completions.
    let total = &outcome.summary.total;
    let bound = (total.completed + total.released) as u64 + timers + spans(events);
    assert!(wake_ups <= bound, "{label}: {wake_ups} wake-ups past the bound {bound}");
    let per_transition = advances.load(Ordering::Relaxed);
    assert!(wake_ups < per_transition, "{label}: {wake_ups} wake-ups, {per_transition} steps");
}

#[test]
fn baseline_fleet_results_do_not_depend_on_their_wake_ups() {
    // GSlice's partitions make the timers matter mid-run: a stale batch on
    // an idle partition flushes at its timeout while another partition is
    // busy. Batching's one stream is idle only while the device has no
    // events, so there the timer is the only event left.
    assert_baseline_fleet_ignores_wake_ups("Batching", |slot| {
        Ok(BatchingServer::new().with_gpu(slot.spec.gpu.clone()).scheduler(slot.taskset)?)
    });
    assert_baseline_fleet_ignores_wake_ups("GSlice", |slot| {
        Ok(GsliceServer::new(2).with_gpu(slot.spec.gpu.clone()).scheduler(slot.taskset)?)
    });
}
