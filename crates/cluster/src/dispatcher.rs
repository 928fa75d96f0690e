//! The cluster dispatcher: one scheduler per device — any implementation of
//! the `daris-core` [`Scheduler`] trait, DARIS by default — coordinated
//! through fixed-length **synchronization rounds** with the per-device
//! simulation fanned out to a persistent worker pool in between, and the
//! fleet partitioned into [racks](crate::ClusterConfig::racks) whose
//! boundary work stays local between coarser rebalance epochs.
//!
//! The dispatcher is generic over the per-device scheduler
//! (`ClusterDispatcher<Sch>`): [`ClusterDispatcher::new`] builds the
//! default DARIS fleet, [`ClusterDispatcher::with_factory`] accepts a
//! per-device constructor for anything else (the `daris-baselines` servers,
//! most usefully), and every boundary phase — admission retry, migration,
//! rack rebalance — speaks only the trait surface, so baselines inherit the
//! full cluster machinery unchanged.
//!
//! [`ClusterDispatcher::run`] takes any [`RunSpec`] — periodic, jittered,
//! generated or replayed — and shards its workload along the placement
//! ([`Workload::shard`](daris_core::Workload::shard)): one [`ArrivalSource`]
//! per device over its placed tasks, keyed by global task index so the
//! device-local sources together release exactly the global workload. Every shape then runs through the
//! same round loop, and a live generated run and the replay of its recorded
//! trace are byte-identical at any thread count.
//!
//! # Round protocol
//!
//! Simulated time is cut into rounds of 1 ms (`SYNC_QUANTUM`; an
//! [elastic quantum](ClusterConfig::elastic_quantum) varies it by load).
//! Within a round `[t0, t1)` every device is **independent**: it runs its own
//! event loop ([`Scheduler::run_span`]) over its own simulator events and
//! the releases of its own placed tasks, each handled at its exact
//! simulated time — the identical call sequence [`Scheduler::run`] issues on
//! a single GPU, which is why a 1-device cluster reproduces the single-GPU
//! path bit for bit (a property test pins this down). Devices only interact
//! at round boundaries:
//!
//! * **rack-local admission** — a job whose home device's admission test
//!   (Eq. 11–12) rejected it mid-round is retried at the boundary on the
//!   four (`RETRY_FANOUT`) least-loaded other devices *of its home rack*,
//!   picked by one scan of the rack's [fresh loads](crate::rack) — O(rack)
//!   per rejection;
//! * **stage-boundary migration** — queued jobs that have not started their
//!   first stage are pulled from devices with a backlog and no idle streams
//!   onto devices of the same rack that are sitting idle;
//! * **cross-rack rebalance** — every eight rounds (`REBALANCE_EPOCH`,
//!   and only with more than one rack), racks exchange load summaries and
//!   queued-unstarted jobs migrate across rack lines, in fixed
//!   rack/device-index order.
//!
//! With `racks = 1` (the default) the retry and migration domains span the
//! whole fleet and the epoch phase never runs: the hierarchy degenerates to
//! flat dispatch exactly.
//!
//! Each of these moves, and an autoscale drain's re-placement, hands the
//! job over through one path (`offer`): adopt the task as a *guest* on
//! first contact, catch the device up, run its admission test, dispatch on
//! accept, and charge the rejection to the job's home device once when no
//! candidate accepts. A migration lists its source as the last candidate,
//! so a refused hand-over returns the job home.
//!
//! # Parallel stepping, deterministic join
//!
//! Because a round's per-device work touches nothing but that device's own
//! scheduler and arrival stream, the dispatcher fans the device spans out to
//! the persistent spin/park worker pool in [`crate::pool`]
//! ([`ClusterConfig::threads`] workers: the dispatcher's thread is worker 0,
//! beside helpers spawned once per run and parked between rounds; device
//! `d` always on worker `d % workers`). Per-device results
//! (rejected releases) are collected in fixed device-index order, so
//! completions, retries, migrations and metrics are **byte-identical at any
//! thread count** — thread scheduling can reorder the wall-clock execution
//! but never the simulated outcome. Scheduler construction is fanned out
//! through the same module.
//!
//! Idle devices still cost nothing: a device with no due event and no due
//! release is skipped and its clock trails behind, which is unobservable —
//! every scheduler decision (admission, backlog, idle streams, load
//! fractions) is state-based, not clock-based — until a retry or migration
//! lands on it and [`ClusterDispatcher::catch_up`] fast-forwards it in one
//! jump; `finish` aligns every device at the horizon.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

use daris_core::{
    AblationFlags, CoreError, DarisConfig, DarisScheduler, ExperimentOutcome, RunSpec, Scheduler,
    Shard,
};
use daris_gpu::{GpuSpec, SimDuration, SimTime};
use daris_metrics::MetricsCollector;
use daris_telemetry::{
    EventKind, RoundPhase, SinkHandle, TelemetryEvent, TelemetrySink, WallClockProfiler,
    CLUSTER_DEVICE, RACK_DEVICE_BASE,
};
use daris_workload::{ArrivalSource, Job, JobId, LoadDetectorConfig, TaskId, TaskSet};

use crate::pool::{self, DeviceCell, FleetCells};
use crate::rack::{rack_of, rack_spans, retry_candidates};
use crate::{
    place, AutoscaleConfig, ClusterError, ClusterSpec, ClusterSummary, DeviceSpec, ElasticQuantum,
    Placement, PlacementStrategy, Result,
};

/// Upper bound on migrations per synchronization round, a guard against
/// pathological ping-ponging (in practice a round moves at most a few jobs).
const MAX_MIGRATIONS_PER_STEP: usize = 8;

/// Length of one synchronization round: how often rejected releases are
/// retried and queued jobs may migrate. With an
/// [elastic quantum](ClusterConfig::elastic_quantum) it is clamped into the
/// bounds to seed the first round.
const SYNC_QUANTUM: SimDuration = SimDuration::from_millis(1);

/// Rounds between cross-rack rebalances (only with more than one rack).
const REBALANCE_EPOCH: u64 = 8;

/// How many other devices of its home rack (ascending active-load order) a
/// rejected job is retried on before the rejection is charged. Saturated
/// fleets reject on the least-loaded device almost iff they reject
/// everywhere, so a small fan-out bounds the consultations (each a
/// catch-up and an admission test) per rejection to a constant.
pub(crate) const RETRY_FANOUT: usize = 4;

/// Cluster-level scheduling configuration, shared by every device scheduler.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Placement policy for the offline task-to-device assignment.
    pub strategy: PlacementStrategy,
    /// MRET window size (the paper selects 5).
    pub window_size: usize,
    /// Ablation switches, applied on every device.
    pub ablation: AblationFlags,
    /// Apply the admission test to high-priority jobs too (`Overload+HPA`).
    pub hp_admission: bool,
    /// Retry rejected jobs on other devices before giving up.
    pub cluster_admission: bool,
    /// Migrate queued jobs from overloaded to idle devices.
    pub migration: bool,
    /// Worker threads the dispatcher fans per-device simulation out to
    /// between synchronization rounds (and during construction). The
    /// caller's thread is one of them, so `threads − 1` helpers are spawned
    /// and `1` runs everything on the caller's thread. Results are
    /// byte-identical at every thread count.
    pub threads: usize,
    /// Number of racks the fleet is partitioned into (contiguous, balanced
    /// device spans). Admission retry and stage-boundary migration stay
    /// rack-local every round; racks exchange load summaries and queued
    /// jobs only every eighth round, when queued-unstarted jobs migrate from
    /// backlogged devices to idle devices of *other* racks. `1` (the
    /// default) is flat dispatch over the whole fleet. Clamped to
    /// `1..=devices`.
    pub racks: usize,
    /// Load-elastic bounds for the synchronization quantum. When set, every
    /// round boundary recomputes the *next* round's length from the fleet's
    /// mean active load (a loaded fleet synchronizes often, an idle fleet
    /// strides long rounds); the static 1 ms quantum — clamped into the
    /// bounds — seeds the first round. Quantum changes
    /// apply only at round boundaries, so determinism is untouched: the
    /// round sequence is a pure function of simulated state. `None` (the
    /// default) keeps the quantum fixed.
    pub elastic_quantum: Option<ElasticQuantum>,
    /// Device join/leave autoscaling. When set, the dispatcher drains
    /// devices out of the fleet under sustained low load and rejoins them
    /// under high load, evaluated every [`AutoscaleConfig::epoch`] rounds. A
    /// drained device's pending releases are redirected through the
    /// rack-local retry path and its queued-unstarted jobs re-placed through
    /// the migration path, so autoscaling requires
    /// [`cluster_admission`](Self::cluster_admission) — rejected at
    /// construction otherwise. `None` (the default) keeps every device
    /// online.
    pub autoscale: Option<AutoscaleConfig>,
    /// Burst-triggered HP admission for every device scheduler (the
    /// adaptive alternative to the static [`hp_admission`](Self::hp_admission)
    /// flag, which wins when both are set): each device runs a windowed
    /// arrival-rate detector over its own release stream and applies the
    /// Overload+HPA admission test to high-priority jobs only while a burst
    /// is in progress. Forwarded to the default DARIS factory; custom
    /// factories read it from their captured config themselves.
    pub adaptive_hpa: Option<LoadDetectorConfig>,
    /// Fleet-wide telemetry sink. Each device scheduler records into a
    /// private per-device buffer during its (possibly parallel) span; the
    /// dispatcher merges the buffers into this sink at round boundaries in
    /// fixed device order, stamping fleet device ids, and adds its own
    /// cluster-layer events (round spans, retries, migrations). The merged
    /// stream is therefore byte-identical at any thread count. `None` (the
    /// default) keeps every device sink-free.
    pub sink: Option<SinkHandle>,
    /// Wall-clock self-profiling of the round phases (span / retry /
    /// migration / merge), for performance reporting only. Explicitly
    /// **nondeterministic** (it measures host time) and kept strictly out of
    /// the simulated state: attaching or detaching a profiler cannot change
    /// any outcome.
    pub profiler: Option<WallClockProfiler>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            strategy: PlacementStrategy::default(),
            window_size: 5,
            ablation: AblationFlags::full(),
            hp_admission: false,
            cluster_admission: true,
            migration: true,
            threads: 1,
            racks: 1,
            elastic_quantum: None,
            autoscale: None,
            adaptive_hpa: None,
            sink: None,
            profiler: None,
        }
    }
}

/// One device's share of a cluster run.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// The device's name from the [`ClusterSpec`].
    pub name: String,
    /// The device's scheduler outcome (empty summary for an idle device that
    /// received no tasks).
    pub outcome: ExperimentOutcome,
}

/// Result of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Fleet-level aggregate metrics.
    pub summary: ClusterSummary,
    /// Per-device outcomes, in fleet order.
    pub devices: Vec<DeviceOutcome>,
}

impl ClusterOutcome {
    /// One hash over the aggregate and every per-device summary: any drift
    /// in counts, rates or float accumulation order changes it. This is the
    /// byte-identity check the determinism suites and the `trace_replay`
    /// runner share — widen it here and every check widens with it.
    pub fn summary_hash(&self) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        format!("{:?}", self.summary).hash(&mut hasher);
        for device in &self.devices {
            format!("{:?}", device.outcome.summary).hash(&mut hasher);
        }
        hasher.finish()
    }
}

#[derive(Debug)]
struct DeviceRuntime<Sch> {
    name: String,
    /// `None` for a device the placement left without tasks: it idles for
    /// the whole run (it has no scheduler to adopt guests into either).
    scheduler: Option<Sch>,
    /// Global task index → device-local task id (placed and adopted tasks).
    local_of_global: BTreeMap<usize, TaskId>,
    /// The inverse map, indexed by local task id.
    global_of_local: Vec<usize>,
    /// Private telemetry buffer the device's scheduler records into during
    /// its span (only when [`ClusterConfig::sink`] is set). Merged into the
    /// fleet sink at round boundaries in device order, so worker threads
    /// never contend on — or reorder — the user's sink.
    buffer: Option<DeviceBuffer>,
}

/// A device's private telemetry buffer: a plain event `Vec` that stamps the
/// device's fleet index on each event as it is recorded, over the
/// schedulers' device-local id (always 0). Stamping happens on whichever
/// thread records, during the parallel span or a boundary phase, so the
/// round merge only hands the `Vec` on. Cloning shares the `Vec`.
#[derive(Debug, Clone)]
struct DeviceBuffer {
    device: u32,
    events: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl DeviceBuffer {
    fn new(device: usize) -> Self {
        DeviceBuffer { device: device as u32, events: Arc::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<TelemetryEvent>> {
        self.events.lock().expect("device telemetry buffer lock poisoned")
    }
}

impl TelemetrySink for DeviceBuffer {
    fn record(&mut self, event: &TelemetryEvent) {
        self.lock().push(TelemetryEvent { device: self.device, ..event.clone() });
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        let device = self.device;
        self.lock().extend(events.drain(..).map(|event| TelemetryEvent { device, ..event }));
    }
}

/// One device's construction context, handed to the scheduler factory of
/// [`ClusterDispatcher::with_factory`] — everything a per-device scheduler
/// build needs, in fleet order.
#[derive(Debug)]
pub struct DeviceSlot<'a> {
    /// The device's fleet index.
    pub index: usize,
    /// The device's spec from the [`ClusterSpec`].
    pub spec: &'a DeviceSpec,
    /// The device's placed task set (device-local task ids).
    pub taskset: &'a TaskSet,
    /// The fleet-wide reference calibration device: the RTX 2080 Ti, the
    /// paper's measurement device. Pinned fleet-wide so hardware speed
    /// emerges from the simulation instead of being re-calibrated away.
    pub reference: &'a GpuSpec,
    /// Handle on the device's private telemetry buffer, present iff the
    /// cluster config carries a [`sink`](ClusterConfig::sink). Schedulers
    /// that record telemetry should adopt it; others may drop it.
    pub sink: Option<SinkHandle>,
}

/// Runs a [`TaskSet`] on a fleet of devices, one `Sch` scheduler per device.
///
/// `Sch` is any [`Scheduler`] implementation; the default is the DARIS
/// runtime ([`ClusterDispatcher::new`]), and
/// [`ClusterDispatcher::with_factory`] builds a fleet of anything else.
#[derive(Debug)]
pub struct ClusterDispatcher<Sch = DarisScheduler> {
    config: ClusterConfig,
    taskset: TaskSet,
    placement: Placement,
    devices: Vec<DeviceRuntime<Sch>>,
    /// Accounts releases of tasks no device could take at placement time.
    unplaced: MetricsCollector,
    migrations: usize,
    cluster_admissions: usize,
    cross_rack_migrations: usize,
}

fn localize(mut job: Job, local: TaskId) -> Job {
    job.id.task = local;
    job
}

impl ClusterDispatcher {
    /// Places `taskset` on `cluster` and builds one DARIS scheduler per
    /// device that received tasks, via [`with_factory`](Self::with_factory)
    /// with the default DARIS factory (per-device [`DarisConfig`] derived
    /// from the device spec and the cluster config).
    ///
    /// # Errors
    ///
    /// Fails on an empty cluster or task set, an infeasible device
    /// partition, an invalid adaptive knob, or a device scheduler that
    /// cannot be built (e.g. a plan whose model weights exceed device
    /// memory — the placement engine's accounting prevents this for the
    /// shipped specs). With several failing
    /// devices, the error reported is the lowest-indexed one.
    pub fn new(taskset: &TaskSet, cluster: ClusterSpec, config: ClusterConfig) -> Result<Self> {
        let window_size = config.window_size;
        let ablation = config.ablation;
        let hp_admission = config.hp_admission;
        let adaptive_hpa = config.adaptive_hpa;
        Self::with_factory(taskset, cluster, config, move |slot| {
            let mut device_config = DarisConfig::new(slot.spec.partition)
                .with_gpu(slot.spec.gpu.clone())
                .with_reference_calibration(slot.reference.clone())
                .with_window_size(window_size)
                .with_ablation(ablation);
            if hp_admission {
                device_config = device_config.with_hp_admission();
            }
            if let Some(detector) = adaptive_hpa {
                device_config = device_config.with_adaptive_hpa(detector);
            }
            if let Some(sink) = slot.sink {
                device_config = device_config.with_sink(sink);
            }
            DarisScheduler::new(slot.taskset, device_config)
        })
    }
}

impl<Sch: Scheduler + Send> ClusterDispatcher<Sch> {
    /// Places `taskset` on `cluster` and builds one scheduler per device
    /// that received tasks by calling `factory` with each device's
    /// [`DeviceSlot`]. This is how non-DARIS fleets are assembled — e.g. a
    /// `daris-baselines` server's `scheduler(...)` constructor per device —
    /// while reusing placement, the round loop, retries and migration
    /// unchanged. The (independent, profiling-heavy) per-device builds are
    /// fanned out over `config.threads` workers through the worker-pool
    /// module, with the same device-to-thread stripes the rounds use;
    /// results and errors are collected in device order.
    ///
    /// # Errors
    ///
    /// Fails on an empty cluster or task set, an infeasible device
    /// partition, an invalid adaptive knob, or a factory error (wrapped in
    /// [`ClusterError::Scheduler`] with the device's name). With several
    /// failing devices, the error reported is the lowest-indexed one.
    pub fn with_factory(
        taskset: &TaskSet,
        cluster: ClusterSpec,
        config: ClusterConfig,
        factory: impl Fn(DeviceSlot<'_>) -> daris_core::Result<Sch> + Sync,
    ) -> Result<Self> {
        cluster.validate()?;
        if taskset.is_empty() {
            return Err(ClusterError::EmptyTaskSet);
        }
        if let Some(elastic) = &config.elastic_quantum {
            elastic.validate()?;
        }
        if let Some(autoscale) = &config.autoscale {
            autoscale.validate()?;
            if !config.cluster_admission {
                return Err(ClusterError::InvalidAdaptiveConfig(
                    "autoscaling redirects drained devices' releases through the admission \
                     retry path; it requires cluster_admission"
                        .into(),
                ));
            }
        }
        if let Some(detector) = &config.adaptive_hpa {
            detector.validate().map_err(|reason| {
                ClusterError::InvalidAdaptiveConfig(format!("adaptive-HPA detector {reason}"))
            })?;
        }
        let reference = GpuSpec::rtx_2080_ti();
        let placement = place(taskset, &cluster, config.strategy, &reference);

        // One private buffer per device when a fleet sink is attached; the
        // user's sink itself is never handed to a device scheduler.
        let buffers: Vec<Option<DeviceBuffer>> = (0..cluster.len())
            .map(|device| config.sink.as_ref().map(|_| DeviceBuffer::new(device)))
            .collect();

        let build_one = |device: usize| -> Result<Option<Sch>> {
            let spec = &cluster.devices()[device];
            let plan = &placement.plans[device];
            if plan.taskset.is_empty() {
                return Ok(None);
            }
            factory(DeviceSlot {
                index: device,
                spec,
                taskset: &plan.taskset,
                reference: &reference,
                sink: buffers[device].as_ref().map(|b| SinkHandle::new(b.clone())),
            })
            .map(Some)
            .map_err(|source| ClusterError::Scheduler { device: spec.name.clone(), source })
        };

        let n = cluster.len();
        let built = pool::build_striped(n, config.threads, build_one);

        let mut devices = Vec::with_capacity(n);
        for ((result, buffer), (spec, plan)) in
            built.into_iter().zip(buffers).zip(cluster.devices().iter().zip(&placement.plans))
        {
            let scheduler = result?;
            let local_of_global = plan
                .task_indices
                .iter()
                .enumerate()
                .map(|(local, &global)| (global, TaskId(local as u32)))
                .collect();
            devices.push(DeviceRuntime {
                name: spec.name.clone(),
                scheduler,
                local_of_global,
                global_of_local: plan.task_indices.clone(),
                buffer,
            });
        }
        Ok(ClusterDispatcher {
            config,
            taskset: taskset.clone(),
            placement,
            devices,
            unplaced: MetricsCollector::new(),
            migrations: 0,
            cluster_admissions: 0,
            cross_rack_migrations: 0,
        })
    }

    /// The offline placement this dispatcher runs under.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Simulated GPU events processed across the whole fleet so far.
    pub fn events_processed(&self) -> u64 {
        self.devices.iter().filter_map(|d| d.scheduler.as_ref()).map(Sch::events_processed).sum()
    }

    /// Runs the workload described by a [`RunSpec`] on the fleet — the
    /// cluster counterpart of [`Scheduler::run`] and the dispatcher's only
    /// run method. Call once per dispatcher.
    ///
    /// The workload is [sharded](daris_core::Workload::shard) along the
    /// placement: one arrival source per device over its placed tasks, plus
    /// one over the tasks placement rejected. Shards key their random
    /// streams by global task index, so together they release exactly the
    /// jobs one device would. Every release of the rejected shard before
    /// the horizon is charged as a rejection up front.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidRunSpec`] for a spec without a
    /// horizon, with a replay horizon past its trace's, with a jitter the
    /// horizon cannot hold or with an out-of-range generator, and
    /// [`ClusterError::Trace`] for a replay whose trace does not fit this
    /// cluster's task set.
    pub fn run(&mut self, spec: &RunSpec) -> Result<ClusterOutcome> {
        let horizon = spec.required_horizon().map_err(|e| match e {
            CoreError::InvalidConfig(reason) => ClusterError::InvalidRunSpec(reason),
            other => ClusterError::InvalidRunSpec(other.to_string()),
        })?;
        // The sources borrow the shards for the whole run, which needs
        // `&mut self`; shard over a copy of the placement.
        let plans = self.placement.plans.clone();
        let unplaced_global: Vec<usize> =
            self.placement.rejected.iter().map(|id| id.index()).collect();
        let unplaced_tasks = TaskSet::preserving_phases(
            unplaced_global.iter().map(|&global| self.taskset.tasks()[global].clone()),
        );
        let shards: Vec<Shard<'_>> = plans
            .iter()
            .map(|plan| Shard { taskset: &plan.taskset, global: &plan.task_indices })
            .chain([Shard { taskset: &unplaced_tasks, global: &unplaced_global }])
            .collect();
        let mut sources = spec.workload().shard(horizon, &shards).map_err(ClusterError::Trace)?;
        let mut unplaced = sources.pop().expect("one source per shard");
        while unplaced.next_release().is_some_and(|r| r < horizon) {
            let job = unplaced.next_job().expect("a pending release was peeked");
            self.unplaced.record_rejection(&job);
        }
        Ok(self.drive(sources, horizon))
    }

    /// The synchronization-round loop shared by every workload shape: rounds
    /// of independent per-device spans over `streams` (one source per
    /// device, device-local task ids), boundary-only cross-device work
    /// (rack-local every round, cross-rack at epoch boundaries), then final
    /// accounting. Schedulers and streams move into per-device cells for the
    /// duration of the run so the persistent worker pool can span them; they
    /// move back before `finish`.
    fn drive<S: ArrivalSource + Send>(
        &mut self,
        streams: Vec<S>,
        horizon: SimTime,
    ) -> ClusterOutcome {
        let n = self.devices.len();
        let elastic = self.config.elastic_quantum;
        let autoscale = self.config.autoscale;
        // The quantum is a round-boundary variable: the elastic bounds clamp
        // the static seed and every boundary may recompute it, but a
        // published round always runs to its published end.
        let mut quantum = match elastic {
            Some(bounds) => bounds.clamp(SYNC_QUANTUM),
            None => SYNC_QUANTUM,
        };
        let racks = rack_spans(n, self.config.racks);
        let rack_of = rack_of(&racks);

        let cells: Vec<DeviceCell<Sch, S>> = self
            .devices
            .iter_mut()
            .zip(streams)
            .map(|(device, stream)| DeviceCell {
                scheduler: device.scheduler.take(),
                stream,
                due: false,
                rejected: Vec::new(),
            })
            .collect();
        let fleet = FleetCells::new(cells);

        pool::drive_rounds(&fleet, self.config.threads, |run_round| {
            let mut t0 = SimTime::ZERO;
            let mut round: u64 = 0;
            let mut spans: Vec<(usize, SimTime)> = Vec::with_capacity(n);
            // Fleet membership under autoscaling; every device starts online.
            let mut online: Vec<bool> = vec![true; n];
            // Jobs charged as rejections since the last autoscale
            // evaluation: the fleet's shed-work pressure. Served load alone
            // under-reads demand once admission starts shedding work, so
            // shedding forces a rejoin regardless of the load band.
            let mut shed_since_eval: u64 = 0;
            while t0 < horizon {
                let t1 = t0.saturating_add(quantum).min(horizon);

                self.profile_start(RoundPhase::Span);
                // One pre-round pass marks due devices (snapshotting their
                // pre-span clocks) and checks for a drained fleet. A drained
                // fleet (no pending releases, no pending events) can never
                // create new work at a boundary — stop striding rounds
                // instead of scanning the fleet horizon/quantum more times.
                spans.clear();
                let mut drained = true;
                let mut redirected: Vec<(usize, Vec<Job>)> = Vec::new();
                for (d, &is_online) in online.iter().enumerate() {
                    let mut cell = fleet.cell(d);
                    if !is_online {
                        // An offline device receives no new work: pull its
                        // stream's due releases *before* the span phase (a
                        // due span would consume them) and hand them to the
                        // boundary retry machinery below.
                        let mut pulled = Vec::new();
                        while cell.stream.next_release().is_some_and(|r| r < t1) {
                            match cell.stream.next_job() {
                                Some(job) => pulled.push(job),
                                None => break,
                            }
                        }
                        if !pulled.is_empty() {
                            redirected.push((d, pulled));
                        }
                    }
                    let next_release = cell.stream.next_release();
                    let Some(scheduler) = cell.scheduler.as_ref() else {
                        drained = drained && next_release.is_none();
                        continue;
                    };
                    let next_event = scheduler.next_event_time();
                    drained = drained && next_release.is_none() && next_event.is_none();
                    // An offline device still spans its own *events* — jobs
                    // it already holds finish where they started — it just
                    // sees no new releases.
                    let due = next_event.is_some_and(|t| t < t1)
                        || (is_online && next_release.is_some_and(|r| r < t1));
                    if due {
                        spans.push((d, scheduler.now()));
                    }
                    cell.due = due;
                }
                if drained {
                    self.profile_end(RoundPhase::Span);
                    break;
                }
                if !spans.is_empty() {
                    run_round(t1);
                }
                // Collect the rejected releases in ascending device order —
                // the deterministic join worker timing cannot reorder.
                let mut rejected: Vec<(usize, Vec<Job>)> = Vec::new();
                for &(d, _) in &spans {
                    let mut cell = fleet.cell(d);
                    if !cell.rejected.is_empty() {
                        rejected.push((d, std::mem::take(&mut cell.rejected)));
                    }
                }
                if !redirected.is_empty() {
                    // Fold the offline devices' redirected releases in,
                    // keeping ascending device order; they ride the same
                    // retry path as span rejections, with the offline device
                    // as the charged home.
                    let mut merged: BTreeMap<usize, Vec<Job>> = BTreeMap::new();
                    for (d, jobs) in redirected.into_iter().chain(rejected) {
                        merged.entry(d).or_default().extend(jobs);
                    }
                    rejected = merged.into_iter().collect();
                }
                self.profile_end(RoundPhase::Span);
                for (d, from) in &spans {
                    let (from, d) = (*from, *d as u32);
                    self.emit(d, t1, || EventKind::DeviceSpan { from, to: t1 });
                }
                let span_count = spans.len() as u64;
                self.emit(CLUSTER_DEVICE, t1, || EventKind::PhaseMark {
                    round,
                    phase: RoundPhase::Span,
                    detail: span_count,
                });

                self.profile_start(RoundPhase::Retry);
                let (attempts, charged) =
                    self.retry_rejections(&fleet, &racks, &rack_of, &online, rejected, t1);
                shed_since_eval += charged;
                self.profile_end(RoundPhase::Retry);
                self.emit(CLUSTER_DEVICE, t1, || EventKind::PhaseMark {
                    round,
                    phase: RoundPhase::Retry,
                    detail: attempts,
                });

                self.profile_start(RoundPhase::Migration);
                let before = self.migrations + self.cross_rack_migrations;
                if self.config.migration {
                    for span in &racks {
                        self.migrate(&fleet, span.clone(), &online, t1, None);
                    }
                    if racks.len() > 1 && (round + 1) % REBALANCE_EPOCH == 0 {
                        self.cross_rack_rebalance(&fleet, &racks, &rack_of, &online, t1, round);
                    }
                }
                self.profile_end(RoundPhase::Migration);
                let moved = (self.migrations + self.cross_rack_migrations - before) as u64;
                self.emit(CLUSTER_DEVICE, t1, || EventKind::PhaseMark {
                    round,
                    phase: RoundPhase::Migration,
                    detail: moved,
                });

                self.profile_start(RoundPhase::Merge);
                let merged = self.merge_device_buffers();
                self.profile_end(RoundPhase::Merge);
                self.emit(CLUSTER_DEVICE, t1, || EventKind::PhaseMark {
                    round,
                    phase: RoundPhase::Merge,
                    detail: merged,
                });

                // Adaptive control, evaluated strictly at the boundary: both
                // knobs read the same mean-load sample of the fleet's
                // simulated state, so the decisions are as thread-count
                // invariant as everything else in the round.
                if elastic.is_some() || autoscale.is_some() {
                    let load = Self::mean_online_load(&fleet, &online);
                    if let Some(auto) = autoscale {
                        if (round + 1) % auto.epoch == 0 {
                            let shed = std::mem::take(&mut shed_since_eval);
                            self.autoscale_step(&fleet, &mut online, load, shed, round, t1);
                        }
                    }
                    if let Some(bounds) = elastic {
                        let next = bounds.quantum_for(load);
                        if next != quantum {
                            quantum = next;
                            self.emit(CLUSTER_DEVICE, t1, || EventKind::QuantumChanged {
                                round,
                                quantum: next,
                                load,
                            });
                        }
                    }
                }

                round += 1;
                t0 = t1;
            }
        });

        // Hand the schedulers back for `finish` and later accounting.
        for (device, cell) in self.devices.iter_mut().zip(fleet.into_cells()) {
            device.scheduler = cell.scheduler;
        }

        let outcomes: Vec<DeviceOutcome> = self
            .devices
            .iter_mut()
            .map(|device| {
                let outcome = match device.scheduler.as_mut() {
                    Some(scheduler) => scheduler.finish(horizon),
                    None => ExperimentOutcome {
                        summary: MetricsCollector::new().summarize(horizon),
                        mret_trace: Vec::new(),
                        config_label: "idle".to_owned(),
                    },
                };
                DeviceOutcome { name: device.name.clone(), outcome }
            })
            .collect();
        // `finish` above emitted each device's trailing events (everything
        // between the last boundary and the horizon); merge them too.
        self.merge_device_buffers();

        let duration = horizon.duration_since(SimTime::ZERO);
        let mut summary = ClusterSummary::aggregate(
            outcomes.iter().map(|d| &d.outcome.summary).collect::<Vec<_>>(),
            &self.unplaced.summarize(horizon),
            duration,
        );
        summary.migrations = self.migrations;
        summary.cluster_admissions = self.cluster_admissions;
        summary.placement_rejected_tasks = self.placement.rejected.len();
        summary.racks = racks.len();
        summary.cross_rack_migrations = self.cross_rack_migrations;
        ClusterOutcome { summary, devices: outcomes }
    }

    // ----- telemetry --------------------------------------------------------

    /// Emits one event into the fleet sink (if attached). The closure runs
    /// only when a sink is present, so the disabled path never constructs an
    /// event. `device` is a fleet index or [`CLUSTER_DEVICE`].
    fn emit(&self, device: u32, at: SimTime, kind: impl FnOnce() -> EventKind) {
        if let Some(sink) = &self.config.sink {
            sink.record(TelemetryEvent { at, device, kind: kind() });
        }
    }

    /// Starts profiling a round phase (if a profiler is attached).
    fn profile_start(&self, phase: RoundPhase) {
        if let Some(profiler) = &self.config.profiler {
            profiler.phase_started(phase);
        }
    }

    /// Finishes profiling a round phase (if a profiler is attached).
    fn profile_end(&self, phase: RoundPhase) {
        if let Some(profiler) = &self.config.profiler {
            profiler.phase_finished(phase);
        }
    }

    /// Merges every device's private telemetry buffer into the fleet sink in
    /// ascending device order. Returns the number of events merged. Runs on
    /// the single-threaded boundary path only, which is what makes the
    /// merged stream independent of worker timing. The events already carry
    /// their fleet index, so each buffer moves into the sink as one batch
    /// under one sink lock, and keeps its allocation for the next round.
    fn merge_device_buffers(&self) -> u64 {
        let Some(sink) = &self.config.sink else { return 0 };
        let mut merged = 0u64;
        for buffer in self.devices.iter().filter_map(|device| device.buffer.as_ref()) {
            let mut events = buffer.lock();
            merged += events.len() as u64;
            sink.record_batch(&mut events);
        }
        merged
    }

    /// Retries the round's home-rejected releases rack-locally (in device
    /// order, then release order): each job is [offered](Self::offer) to the
    /// [`RETRY_FANOUT`] least-loaded other devices of its home rack, and
    /// charged to the home device if all of them refuse. Candidates come
    /// from one scan of the home rack's fresh loads ([`retry_candidates`]),
    /// O(rack) per rejection. Returns `(retry offers made, jobs charged as
    /// rejections)` — the first feeds the round's telemetry phase mark, the
    /// second the autoscaler's shed-work pressure signal.
    fn retry_rejections<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        racks: &[Range<usize>],
        rack_of: &[usize],
        online: &[bool],
        rejected: Vec<(usize, Vec<Job>)>,
        now: SimTime,
    ) -> (u64, u64) {
        let mut attempts = 0u64;
        let mut charged = 0u64;
        let retrying = self.config.cluster_admission;
        for (home, jobs) in rejected {
            let span = &racks[rack_of[home]];
            for job in jobs {
                // Offline devices never show up as candidates (they receive
                // no new work); they can still be the charged home.
                let candidates = if retrying {
                    retry_candidates(span.clone(), home, RETRY_FANOUT, online, |d| {
                        fleet.cell(d).scheduler.as_ref().map(Sch::active_load_fraction)
                    })
                } else {
                    Vec::new()
                };
                let task = TaskId(self.global_of(home, job.id.task) as u32);
                let release_index = job.id.release_index;
                let record_attempt = |this: &Self, target: usize, admitted: bool| {
                    attempts += 1;
                    this.emit(CLUSTER_DEVICE, now, || EventKind::RetryAttempt {
                        task,
                        release_index,
                        home: home as u32,
                        target: target as u32,
                        admitted,
                    });
                };
                match self.offer(fleet, job, home, candidates, now, record_attempt) {
                    Some(_) => self.cluster_admissions += 1,
                    None => charged += 1,
                }
            }
        }
        (attempts, charged)
    }

    /// The one job hand-off between devices. Offers `job` — released on
    /// `home`, carrying `home`'s local task id — to each of `candidates` in
    /// order until one admits it: the task is adopted as a guest on first
    /// contact (a device that cannot host it is skipped), the device is
    /// caught up to `now`, its admission test runs, and an accepting device
    /// dispatches at once. `consulted` sees every admission test as
    /// `(device, admitted)`. Returns the accepting device; when none
    /// accepts, the rejection is charged to `home`, so each job is accounted
    /// exactly once.
    fn offer<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        job: Job,
        home: usize,
        candidates: impl IntoIterator<Item = usize>,
        now: SimTime,
        mut consulted: impl FnMut(&Self, usize, bool),
    ) -> Option<usize> {
        let global = self.global_of(home, job.id.task);
        for device in candidates {
            let Some(local) = self.local_id_on(fleet, device, global) else { continue };
            self.catch_up(fleet, device, now);
            let admitted = {
                let mut cell = fleet.cell(device);
                let scheduler = cell.scheduler.as_mut().expect("candidate has a scheduler");
                let admitted = scheduler.try_release_job(localize(job, local));
                if admitted {
                    scheduler.dispatch_ready();
                }
                admitted
            };
            consulted(self, device, admitted);
            if admitted {
                return Some(device);
            }
        }
        fleet.cell(home).scheduler.as_mut().expect("home device has a scheduler").reject_job(&job);
        None
    }

    /// Fast-forwards a trailing device's clock to `to` (a no-op for devices
    /// that are already current). Devices are only caught up when a retried
    /// release or a migration actually lands on them, so idle devices cost
    /// nothing per round. `advance_to` is *inclusive*, so a completion
    /// sitting exactly on the boundary is consumed here — dispatching right
    /// after keeps its freed stream from stranding queued stages (this is
    /// exactly what the device's own span would have done at `to`).
    fn catch_up<S: ArrivalSource>(&self, fleet: &FleetCells<Sch, S>, device: usize, to: SimTime) {
        let mut cell = fleet.cell(device);
        if let Some(scheduler) = cell.scheduler.as_mut() {
            if scheduler.now() < to {
                scheduler.advance_to(to);
                scheduler.dispatch_ready();
            }
        }
    }

    /// The local id of global task `global` on `device`, adopting the task
    /// as a guest on first contact. `None` if adoption fails (model weights
    /// do not fit in the device's remaining memory).
    fn local_id_on<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        device: usize,
        global: usize,
    ) -> Option<TaskId> {
        if let Some(&local) = self.devices[device].local_of_global.get(&global) {
            return Some(local);
        }
        let spec = self.taskset.tasks()[global].clone();
        let local = fleet.cell(device).scheduler.as_mut()?.adopt_task(&spec).ok()?;
        debug_assert_eq!(local.index(), self.devices[device].global_of_local.len());
        self.devices[device].local_of_global.insert(global, local);
        self.devices[device].global_of_local.push(global);
        Some(local)
    }

    /// The global task index behind a device-local task id.
    fn global_of(&self, device: usize, local: TaskId) -> usize {
        self.devices[device].global_of_local[local.index()]
    }

    /// `(device, backlog, idle streams)` for every device of `span`, the
    /// shared input of the migration source/target selections.
    fn pressure_stats<S: ArrivalSource>(
        fleet: &FleetCells<Sch, S>,
        span: Range<usize>,
    ) -> Vec<(usize, usize, usize)> {
        span.map(|d| {
            let cell = fleet.cell(d);
            let (backlog, idle) = cell
                .scheduler
                .as_ref()
                .map(|s| (s.queue_backlog(), s.idle_stream_count()))
                .unwrap_or((0, 0));
            (d, backlog, idle)
        })
        .collect()
    }

    /// Moves the first of `src`'s migratable queued jobs (least urgent
    /// first) that `dst` takes, then counts the move and records its event:
    /// a cross-rack migration when `across_racks` carries the rack map, a
    /// rack-local one otherwise. Returns whether a job moved.
    fn move_queued_job<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        src: usize,
        dst: usize,
        now: SimTime,
        across_racks: Option<&[usize]>,
    ) -> bool {
        let queued: Vec<JobId> =
            fleet.cell(src).scheduler.as_ref().map(Sch::migratable_jobs).unwrap_or_default();
        for queued_job in queued {
            let global = self.global_of(src, queued_job.task);
            let Some(dst_local) = self.local_id_on(fleet, dst, global) else { continue };
            // `would_admit` is the only pre-check, because it is a pure
            // probe: a refused `try_release_job` feeds the receiver's
            // adaptive-HPA burst detector, retunes the task's charge and
            // records an `AdmissionRejected` event, so probing with it would
            // change the receiver's state for a job it may never take.
            let priority = self.taskset.tasks()[global].priority;
            let dst_admits = fleet
                .cell(dst)
                .scheduler
                .as_ref()
                .is_some_and(|s| s.would_admit(dst_local, priority));
            if !dst_admits {
                continue;
            }
            let Some(job) =
                fleet.cell(src).scheduler.as_mut().and_then(|s| s.withdraw_queued_job(queued_job))
            else {
                continue;
            };
            self.catch_up(fleet, src, now);
            // The source is the last candidate: should the receiver refuse
            // after all, the job goes back home (or is charged there).
            if self.offer(fleet, job, src, [dst, src], now, |_, _, _| {}) != Some(dst) {
                continue;
            }
            let (task, release_index) = (TaskId(global as u32), job.id.release_index);
            let (from, to) = (src as u32, dst as u32);
            let kind = match across_racks {
                Some(rack_of) => {
                    self.cross_rack_migrations += 1;
                    let (from_rack, to_rack) = (rack_of[src] as u32, rack_of[dst] as u32);
                    EventKind::RackMigration { task, release_index, from, to, from_rack, to_rack }
                }
                None => {
                    self.migrations += 1;
                    EventKind::Migration { task, release_index, from, to }
                }
            };
            self.emit(CLUSTER_DEVICE, now, || kind);
            return true;
        }
        false
    }

    /// The source/target selection both migration phases share: the
    /// rack-local one every round over one rack's span, and the cross-rack
    /// epoch over the whole fleet with `across_racks` set. While some
    /// device of `domain` has a backlog it cannot serve (no idle stream),
    /// the most backlogged one [moves](Self::move_queued_job) a queued
    /// not-yet-started job to the idlest online device of `domain` that has
    /// no backlog (and, with `across_racks`, sits in another rack); at most
    /// [`MAX_MIGRATIONS_PER_STEP`] moves.
    fn migrate<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        domain: Range<usize>,
        online: &[bool],
        now: SimTime,
        across_racks: Option<&[usize]>,
    ) {
        for _ in 0..MAX_MIGRATIONS_PER_STEP {
            let stats = Self::pressure_stats(fleet, domain.clone());
            let Some(src) = stats
                .iter()
                .filter(|&&(_, backlog, idle)| backlog > 0 && idle == 0)
                .max_by_key(|&&(d, backlog, _)| (backlog, usize::MAX - d))
                .map(|&(d, ..)| d)
            else {
                break;
            };
            // An offline device may still *shed* leftover backlog (src) but
            // never receives migrated work (dst).
            let Some(dst) = stats
                .iter()
                .filter(|&&(d, backlog, idle)| {
                    d != src
                        && online[d]
                        && backlog == 0
                        && idle > 0
                        && across_racks.map_or(true, |rack_of| rack_of[src] != rack_of[d])
                })
                .max_by_key(|&&(d, _, idle)| (idle, usize::MAX - d))
                .map(|&(d, ..)| d)
            else {
                break;
            };
            if !self.move_queued_job(fleet, src, dst, now, across_racks) {
                break;
            }
        }
    }

    /// Mean [`active_load_fraction`](Scheduler::active_load_fraction) over
    /// the online devices that have a scheduler — the controller input of
    /// both adaptive fleet knobs. `0` for a fleet with no such device.
    fn mean_online_load<S: ArrivalSource>(fleet: &FleetCells<Sch, S>, online: &[bool]) -> f64 {
        let mut total = 0.0;
        let mut count = 0u32;
        for (d, &is_online) in online.iter().enumerate() {
            if !is_online {
                continue;
            }
            if let Some(scheduler) = fleet.cell(d).scheduler.as_ref() {
                total += scheduler.active_load_fraction();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / f64::from(count)
        }
    }

    /// One autoscale evaluation: mean load at or above the scale-up
    /// threshold — or any shed work since the last evaluation, which means
    /// demand exceeded what the online fleet would admit — rejoins the
    /// lowest-indexed offline device; mean load at or below the scale-down
    /// threshold with nothing shed drains the highest-indexed online device
    /// (respecting the device floor); in between the fleet holds. At most
    /// one device changes state per call, so the fleet ramps instead of
    /// flapping.
    fn autoscale_step<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        online: &mut [bool],
        load: f64,
        shed: u64,
        round: u64,
        now: SimTime,
    ) {
        let Some(auto) = self.config.autoscale else { return };
        let online_count = online.iter().filter(|&&o| o).count();
        if load >= auto.scale_up_ratio || shed > 0 {
            if let Some(joined) = online.iter().position(|&o| !o) {
                online[joined] = true;
                let count = (online_count + 1) as u32;
                self.emit(CLUSTER_DEVICE, now, || EventKind::DeviceJoined {
                    device: joined as u32,
                    round,
                    online: count,
                });
            }
        } else if load <= auto.scale_down_ratio && online_count > auto.min_devices {
            // `shed == 0` is implied here: any shed work took the join branch.
            let Some(drainee) = online.iter().rposition(|&o| o) else { return };
            online[drainee] = false;
            let moved = self.drain_device(fleet, online, drainee, now);
            let count = (online_count - 1) as u32;
            self.emit(CLUSTER_DEVICE, now, || EventKind::DeviceDrained {
                device: drainee as u32,
                round,
                online: count,
                moved,
            });
        }
    }

    /// Re-places a drained device's queued-unstarted jobs onto online
    /// devices with idle streams, most-idle receiver first, each through
    /// the rack-local [migration move](Self::move_queued_job) — receivers
    /// in any rack count, and every move is recorded as a rack-local
    /// migration. Jobs no receiver admits stay queued at home and run as
    /// the drained device's own streams free up. Returns the number of jobs
    /// moved.
    fn drain_device<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        online: &[bool],
        src: usize,
        now: SimTime,
    ) -> u64 {
        let mut moved = 0u64;
        'drain: loop {
            let stats = Self::pressure_stats(fleet, 0..fleet.len());
            let mut candidates: Vec<(usize, usize)> = stats
                .iter()
                .filter(|&&(d, _, idle)| d != src && online[d] && idle > 0)
                .map(|&(d, _, idle)| (d, idle))
                .collect();
            candidates.sort_by_key(|&(d, idle)| (usize::MAX - idle, d));
            for (dst, _) in candidates {
                if self.move_queued_job(fleet, src, dst, now, None) {
                    moved += 1;
                    continue 'drain;
                }
            }
            break;
        }
        moved
    }

    /// The rebalance epoch: racks exchange `(backlog, idle streams)` load
    /// summaries — emitted on the per-rack telemetry tracks in ascending
    /// rack order — and queued not-yet-started jobs migrate from backlogged
    /// devices onto idle devices of *other* racks, again in fixed order, so
    /// the epoch phase is as deterministic as the per-round ones. Runs only
    /// with more than one rack.
    fn cross_rack_rebalance<S: ArrivalSource>(
        &mut self,
        fleet: &FleetCells<Sch, S>,
        racks: &[Range<usize>],
        rack_of: &[usize],
        online: &[bool],
        now: SimTime,
        round: u64,
    ) {
        let summaries: Vec<(u64, u64)> = racks
            .iter()
            .map(|span| {
                let mut backlog = 0u64;
                let mut idle = 0u64;
                for d in span.clone() {
                    let cell = fleet.cell(d);
                    if let Some(scheduler) = cell.scheduler.as_ref() {
                        backlog += scheduler.queue_backlog() as u64;
                        idle += scheduler.idle_stream_count() as u64;
                    }
                }
                (backlog, idle)
            })
            .collect();
        for (r, &(backlog, idle_streams)) in summaries.iter().enumerate() {
            self.emit(RACK_DEVICE_BASE + r as u32, now, || EventKind::RackLoad {
                rack: r as u32,
                round,
                backlog,
                idle_streams,
            });
        }
        // Cheap gate from the exchanged summaries: no backlogged rack, or no
        // idle capacity anywhere, means nothing can move this epoch.
        let any_backlog = summaries.iter().any(|&(backlog, _)| backlog > 0);
        let any_idle = summaries.iter().any(|&(_, idle)| idle > 0);
        if !any_backlog || !any_idle {
            return;
        }
        self.migrate(fleet, 0..fleet.len(), online, now, Some(rack_of));
    }
}
