//! The DARIS online scheduler and its simulation runtime.
//!
//! [`DarisScheduler`] owns a simulated GPU configured according to the chosen
//! [`GpuPartition`](crate::GpuPartition), plus all scheduler state (MRET
//! estimator, per-context utilization, ready-stage queues, active jobs). It
//! implements the [`Scheduler`] stepping surface — releases with admission
//! and migration, stage completions from the GPU, stage dispatch — and runs
//! through the trait's one event loop
//! ([`Scheduler::run`] for a [`RunSpec`](crate::RunSpec)).

use std::collections::BTreeMap;

use daris_gpu::{Completion, Gpu, SimDuration, SimTime, Slab, StreamId};
use daris_metrics::{ExperimentSummary, MetricsCollector};
use daris_models::{DnnKind, ModelProfile};
use daris_telemetry::{AdmissionTest, EventKind, SinkHandle, TelemetryEvent};
use daris_workload::{Job, JobId, LoadDetector, Priority, TaskId, TaskSet, TaskSpec};

use crate::utilization::ContextLoad;
use crate::{
    populate_contexts, virtual_deadlines, AfetProfiler, CoreError, DarisConfig, MretEstimator,
    ReadyStage, Result, Scheduler, StageQueue,
};

/// Inflation applied to isolated latencies to approximate the full-load AFET
/// (Eq. 10) when no profiling pass is available: pessimistic enough to keep
/// the first admission honest, corrected by MRET within a window. Shared by
/// guest-task seeding here and by `daris-cluster`'s placement utilization
/// estimates, so the offline packing and the online admission currency agree.
pub const AFET_INFLATION: f64 = 1.5;

/// One execution-time observation paired with the MRET prediction that was in
/// force when the stage was dispatched (the data behind Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MretSample {
    /// Completion time of the stage.
    pub at: SimTime,
    /// Task the stage belongs to.
    pub task: TaskId,
    /// Stage index.
    pub stage: usize,
    /// Measured execution time.
    pub actual: SimDuration,
    /// MRET prediction prior to this observation.
    pub predicted: SimDuration,
}

/// Result of one scheduler run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Aggregated throughput / deadline-miss / response-time metrics.
    pub summary: ExperimentSummary,
    /// MRET trace (empty unless [`DarisConfig::record_mret_trace`] is set).
    pub mret_trace: Vec<MretSample>,
    /// The configuration label, e.g. `"MPS 6x1 OS6"`.
    pub config_label: String,
}

/// An admitted, unfinished job. It sits in the active map of the context it
/// runs in, which is the only record of the job's admission.
#[derive(Debug, Clone)]
struct ActiveJob {
    job: Job,
    /// The utilization it charged to its context's active class sum
    /// (Eq. 7), given back when it completes or is withdrawn.
    util: f64,
    next_stage: usize,
    stage_count: usize,
    /// Absolute virtual deadline per stage (Eq. 8 applied to the release).
    virtual_deadlines: Vec<SimTime>,
    predecessor_missed: bool,
}

impl ActiveJob {
    /// The job's next stage as its context queue orders it.
    fn ready_stage(&self) -> ReadyStage {
        let stage = self.next_stage;
        let is_last = stage + 1 == self.stage_count;
        let edf_deadline = if is_last {
            self.job.absolute_deadline
        } else {
            self.virtual_deadlines.get(stage).copied().unwrap_or(self.job.absolute_deadline)
        };
        ReadyStage {
            job: self.job.id,
            stage,
            priority: self.job.priority,
            is_last_stage: is_last,
            predecessor_missed: self.predecessor_missed,
            edf_deadline,
        }
    }
}

/// Where a task is homed and the assigned utilization it charges there.
#[derive(Debug, Clone, Copy)]
struct TaskHome {
    context: usize,
    /// The task's share of its context's assigned class sum (Eq. 4–6).
    /// `None` for a guest adopted at run time, which charges nothing until an
    /// admission migrates it to another context.
    charge: Option<f64>,
}

/// The stage behind one GPU work-item tag.
#[derive(Debug, Clone, Copy)]
struct StageTag {
    context: usize,
    job: JobId,
    stage: usize,
}

/// The DARIS scheduler bound to a simulated GPU.
#[derive(Debug)]
pub struct DarisScheduler {
    config: DarisConfig,
    taskset: TaskSet,
    profiles: BTreeMap<DnnKind, ModelProfile>,
    gpu: Gpu,
    /// Streams in context-major order: context `c` owns the `Ns` streams
    /// from `c * Ns`.
    streams: Vec<StreamId>,
    /// Busy flag per stream, indexed by [`StreamId::index`] (the scheduler
    /// creates every stream of its device, so the ids are dense).
    stream_busy: Vec<bool>,
    loads: Vec<ContextLoad>,
    queues: Vec<StageQueue>,
    mret: MretEstimator,
    /// Home context and assigned charge per task index (HP fixed; LP
    /// updated on migration).
    homes: Vec<TaskHome>,
    /// Active jobs per context, in deterministic (job id) order, so the
    /// admission path (`predicted_finish_us`) walks only one context's jobs.
    active: Vec<BTreeMap<JobId, ActiveJob>>,
    /// The stage behind each GPU work-item tag in flight.
    tags: Slab<StageTag>,
    metrics: MetricsCollector,
    mret_trace: Vec<MretSample>,
    /// Telemetry sink (from [`DarisConfig::sink`]). `None` keeps the hot
    /// paths event-free: every emission site guards on this before even
    /// constructing the event.
    sink: Option<SinkHandle>,
    /// Reused batch of the device events one advance hands to the sink.
    device_events: Vec<TelemetryEvent>,
    /// Reused buffer of the stage completions one advance reports.
    completions: Vec<Completion>,
    /// Burst detector driving the adaptive Overload/HPA admission mode
    /// (from [`DarisConfig::adaptive_hpa`]). Observed exclusively from the
    /// release path, so its state is a pure function of the release
    /// sequence — never of how a driver splits spans or rounds.
    detector: Option<LoadDetector>,
}

impl DarisScheduler {
    /// Builds a scheduler for `taskset` under `config`: creates the GPU
    /// partition, loads model weights, runs the AFET profiling pass and the
    /// offline context population (Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration, an empty task set, or
    /// if the task set's models do not fit in device memory.
    pub fn new(taskset: &TaskSet, config: DarisConfig) -> Result<Self> {
        config.validate()?;
        if taskset.is_empty() {
            return Err(CoreError::EmptyTaskSet);
        }
        let profiles: BTreeMap<DnnKind, ModelProfile> = taskset
            .model_kinds()
            .into_iter()
            .map(|k| (k, ModelProfile::calibrated_for(k, config.calibration_spec())))
            .collect();

        // Spatial partition: Nc contexts × Ns streams with the Eq. 9 quota.
        let mut gpu = Gpu::new(config.gpu.clone());
        if config.sink.is_some() {
            // Device events are only worth building when someone is
            // listening; they are drained into the sink on every advance.
            gpu.record_events();
        }
        let partition = config.partition;
        let streams = gpu.add_contexts(
            partition.n_contexts,
            partition.sm_quota(config.gpu.sm_count),
            partition.streams_per_context,
        )?;
        let stream_busy = vec![false; streams.len()];

        // Every model stays resident on the device for the whole run.
        for (kind, profile) in &profiles {
            gpu.memory_mut().alloc(format!("{kind}.weights"), profile.weight_bytes())?;
        }

        // AFET profiling pass (Sec. IV-A1) seeds MRET and drives Algorithm 1.
        let afet = AfetProfiler::profile(taskset, &config, &profiles)?;
        let mut mret = MretEstimator::new(config.window_size);
        for task in taskset.tasks() {
            let seeds = effective_stage_seeds(&afet, task, &config);
            mret.seed(task.id, seeds);
        }

        let n_contexts = config.partition.n_contexts as usize;
        let assignment = populate_contexts(taskset.tasks(), n_contexts, |t| {
            afet.task_afet(t.model).as_micros_f64() / t.period.as_micros_f64()
        });
        let mut loads: Vec<ContextLoad> = (0..n_contexts)
            .map(|_| ContextLoad::new(config.partition.streams_per_context))
            .collect();
        let homes = taskset
            .tasks()
            .iter()
            .zip(assignment)
            .map(|(task, context)| {
                let util = mret.task_utilization(task.id, task.period);
                loads[context].assigned.add(task.priority, util);
                TaskHome { context, charge: Some(util) }
            })
            .collect();
        let queues = (0..n_contexts).map(|_| StageQueue::new(config.ablation)).collect();

        let sink = config.sink.clone();
        let detector = config.adaptive_hpa.map(|det| LoadDetector::new(det, taskset.offered_jps()));
        Ok(DarisScheduler {
            config,
            taskset: taskset.clone(),
            profiles,
            gpu,
            streams,
            stream_busy,
            loads,
            queues,
            mret,
            homes,
            active: (0..n_contexts).map(|_| BTreeMap::new()).collect(),
            tags: Slab::new(),
            metrics: MetricsCollector::new(),
            mret_trace: Vec::new(),
            sink,
            device_events: Vec::new(),
            completions: Vec::new(),
            detector,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DarisConfig {
        &self.config
    }

    /// Read access to the underlying simulated GPU (inspection in tests and
    /// examples).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Read access to the MRET estimator.
    pub fn mret(&self) -> &MretEstimator {
        &self.mret
    }

    /// The current offline/online context of each task, in task order.
    pub fn assignment(&self) -> impl Iterator<Item = usize> + '_ {
        self.homes.iter().map(|home| home.context)
    }

    /// The adaptive-HPA burst detector, when
    /// [`DarisConfig::adaptive_hpa`] is configured.
    pub fn load_detector(&self) -> Option<&LoadDetector> {
        self.detector.as_ref()
    }

    /// Whether high-priority releases are currently subject to the
    /// admission test: statically via [`DarisConfig::hp_admission`], or
    /// dynamically while the adaptive detector signals a burst in progress.
    fn hp_admission_active(&self) -> bool {
        self.config.hp_admission || self.detector.as_ref().is_some_and(LoadDetector::is_burst)
    }

    // ----- telemetry --------------------------------------------------------

    /// Emits a scheduler-layer event at the current simulated time. The
    /// closure runs only when a sink is attached, so the disabled path costs
    /// one `Option` check and never allocates.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        self.emit_at(self.gpu.now(), kind);
    }

    /// Emits an event stamped with an explicit simulated time (completion
    /// handlers stamp the GPU's `finished_at`, not the span target).
    fn emit_at(&self, at: SimTime, kind: impl FnOnce() -> EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TelemetryEvent { at, device: 0, kind: kind() });
        }
    }

    /// Drains the GPU's recorded device events into the sink verbatim, as
    /// one batch through a buffer that keeps its capacity.
    fn forward_device_events(&mut self) {
        let Some(sink) = &self.sink else { return };
        let batch = self.gpu.drain_events().map(|(at, event)| TelemetryEvent {
            at,
            device: 0,
            kind: EventKind::Device(event),
        });
        self.device_events.extend(batch);
        sink.record_batch(&mut self.device_events);
    }

    /// Steps the device with `step`, forwards the device events it recorded
    /// and handles the stage completions it reported, in completion order.
    fn step_device<T>(&mut self, step: impl FnOnce(&mut Gpu, &mut Vec<Completion>) -> T) -> T {
        let mut completions = std::mem::take(&mut self.completions);
        let out = step(&mut self.gpu, &mut completions);
        self.forward_device_events();
        for completion in completions.drain(..) {
            self.handle_completion(
                completion.tag,
                completion.finished_at,
                completion.execution_time(),
                completion.stream,
            );
        }
        self.completions = completions;
        out
    }

    // ----- event handlers ---------------------------------------------------

    /// Admission test (Eq. 11–12) with migration: returns the context to run
    /// in, or `None` if every context rejects the job.
    fn admit(&self, task: TaskId, priority: Priority, util: f64, home: usize) -> Option<usize> {
        let admits = |ctx: usize| -> bool {
            match priority {
                Priority::Low => self.loads[ctx].admits_lp(util),
                Priority::High => self.loads[ctx].admits_hp(util),
            }
        };
        if admits(home) {
            return Some(home);
        }
        // Migration candidates: every other context that passes the test;
        // pick the one with the earliest predicted finish time.
        let mut best: Option<(usize, f64)> = None;
        for ctx in 0..self.loads.len() {
            if ctx == home || !admits(ctx) {
                continue;
            }
            let finish = self.predicted_finish_us(ctx) + self.mret.task_mret(task).as_micros_f64();
            if best.map(|(_, f)| finish < f).unwrap_or(true) {
                best = Some((ctx, finish));
            }
        }
        best.map(|(ctx, _)| ctx)
    }

    /// Predicted time (µs from now) for context `ctx` to drain its currently
    /// active jobs, assuming its streams share the backlog evenly. Walks that
    /// context's active jobs in deterministic job-id order.
    fn predicted_finish_us(&self, ctx: usize) -> f64 {
        let backlog: f64 = self.active[ctx]
            .values()
            .map(|a| self.mret.remaining_mret(a.job.id.task, a.next_stage).as_micros_f64())
            .sum();
        backlog / f64::from(self.config.partition.streams_per_context.max(1))
    }

    fn handle_completion(
        &mut self,
        tag: u64,
        finished_at: SimTime,
        execution: SimDuration,
        stream: StreamId,
    ) {
        let Some(StageTag { context, job: job_id, stage }) = self.tags.remove(tag) else {
            return;
        };
        self.stream_busy[stream.index()] = false;
        let task = job_id.task;
        if self.config.record_mret_trace {
            let predicted = self.mret.stage_mret(task, stage);
            self.mret_trace.push(MretSample {
                at: finished_at,
                task,
                stage,
                actual: execution,
                predicted,
            });
        }
        self.mret.record(task, stage, execution);

        let Some(active) = self.active[context].get_mut(&job_id) else { return };
        let missed_virtual =
            active.virtual_deadlines.get(stage).map(|d| finished_at > *d).unwrap_or(false);
        if stage + 1 < active.stage_count {
            active.next_stage = stage + 1;
            active.predecessor_missed = missed_virtual;
            let ready = active.ready_stage();
            self.queues[context].push(ready);
            self.emit_at(finished_at, || EventKind::StageBoundary {
                task: job_id.task,
                release_index: job_id.release_index,
                completed_stage: stage as u32,
                missed_virtual,
            });
        } else {
            let active = self.active[context].remove(&job_id).expect("looked up above");
            let missed = finished_at > active.job.absolute_deadline;
            self.emit_at(finished_at, || EventKind::JobCompleted {
                task: job_id.task,
                release_index: job_id.release_index,
                priority: active.job.priority,
                missed,
                response: finished_at.duration_since(active.job.release),
            });
            if missed {
                self.emit_at(finished_at, || EventKind::DeadlineMissed {
                    task: job_id.task,
                    release_index: job_id.release_index,
                    priority: active.job.priority,
                });
            }
            self.metrics.record_completion(&active.job, finished_at);
            self.loads[context].active.remove(active.job.priority, active.util);
        }
    }

    fn idle_stream(&self, ctx: usize) -> Option<StreamId> {
        let per = self.config.partition.streams_per_context as usize;
        self.streams[ctx * per..][..per].iter().copied().find(|s| !self.stream_busy[s.index()])
    }

    fn submit_stage(&mut self, context: usize, stream: StreamId, ready: &ReadyStage) -> Result<()> {
        let Some(active) = self.active[context].get(&ready.job) else { return Ok(()) };
        let (job, stage_count) = (active.job, active.stage_count);
        let profile = self.profiles.get(&job.model).ok_or_else(|| {
            CoreError::InvalidConfig(format!("missing profile for {}", job.model))
        })?;
        let tag = self.tags.next_key();
        let item = if self.config.ablation.staging {
            profile.stage_item(tag, ready.stage, job.batch_size)
        } else {
            profile.job_item(tag, job.batch_size)
        };
        self.gpu.submit(stream, item)?;
        self.stream_busy[stream.index()] = true;
        self.tags.insert(StageTag { context, job: ready.job, stage: ready.stage });
        self.emit(|| EventKind::StageDispatched {
            task: ready.job.task,
            release_index: ready.job.release_index,
            stage: ready.stage as u32,
            stage_count: stage_count as u32,
            context: context as u32,
            stream: stream.index() as u32,
            tag,
        });
        Ok(())
    }
}

/// DARIS's stepping surface. The run loop is the trait's default
/// [`run_span`](crate::Scheduler::run_span), shared with every baseline.
impl Scheduler for DarisScheduler {
    /// The scheduler's current simulated time: the device's clock.
    fn now(&self) -> SimTime {
        self.gpu.now()
    }

    /// Earliest pending simulator event, if any.
    fn next_event_time(&self) -> Option<SimTime> {
        self.gpu.next_event_time()
    }

    /// Advances the simulated GPU to `target` and processes every stage
    /// completion on the way (without dispatching queued stages; call
    /// [`dispatch_ready`](Self::dispatch_ready) afterwards).
    fn advance_to(&mut self, target: SimTime) {
        self.step_device(|gpu, completions| gpu.advance_into(target, completions));
    }

    /// Runs the device's transitions up to the next stage completion due by
    /// `bound` in one call. DARIS decides only at releases and stage
    /// completions: between them no stream frees and no stage becomes
    /// ready, so a wake-up at any other transition would dispatch nothing.
    fn advance_toward(&mut self, bound: SimTime) -> bool {
        self.step_device(|gpu, completions| gpu.advance_until_completion(bound, completions))
    }

    /// Dispatches ready stages onto idle streams, most urgent first.
    fn dispatch_ready(&mut self) {
        for ctx in 0..self.queues.len() {
            loop {
                if self.queues[ctx].is_empty() {
                    break;
                }
                let Some(stream) = self.idle_stream(ctx) else { break };
                let Some(ready) = self.queues[ctx].pop() else { break };
                if let Err(_e) = self.submit_stage(ctx, stream, &ready) {
                    // Submission can only fail on internal inconsistencies;
                    // drop the stage rather than wedging the whole run.
                    debug_assert!(false, "stage submission failed");
                }
            }
        }
    }

    /// Releases `job` (of a task of this scheduler's set), applying the
    /// admission test. Returns `false` — recording *nothing* — when the job
    /// is rejected, so a cluster dispatcher can retry it on another device
    /// before charging the rejection somewhere via
    /// [`reject_job`](Self::reject_job).
    fn try_release_job(&mut self, job: Job) -> bool {
        // Feed the burst detector *before* deciding admission, so the
        // release that tips a window over the threshold is already treated
        // under the new mode. The detector sees every release — admitted or
        // not — making its state independent of admission outcomes.
        let flipped = self.detector.as_mut().is_some_and(|det| det.observe(job.release));
        if flipped {
            let det = self.detector.as_ref().expect("a transition implies a detector");
            let (hpa_enabled, load_ratio) = (det.is_burst(), det.load_ratio());
            self.emit(|| EventKind::AdmissionModeChanged { hpa_enabled, load_ratio });
        }
        let task =
            self.taskset.task(job.id.task).expect("released job refers to a task of this set");
        let (task_id, task_priority) = (task.id, task.priority);
        let (period, relative_deadline) = (task.period, task.relative_deadline);
        let util = self.mret.task_utilization(task_id, period);
        let home = self.homes[task_id.index()].context;
        if let Some(prev) = self.homes[task_id.index()].charge {
            self.loads[home].assigned.retune(task_priority, prev, util);
            self.homes[task_id.index()].charge = Some(util);
        }

        let needs_admission = match job.priority {
            Priority::Low => true,
            Priority::High => self.hp_admission_active(),
        };
        let context = if needs_admission {
            match self.admit(task_id, job.priority, util, home) {
                Some(ctx) => ctx,
                None => {
                    self.emit(|| EventKind::AdmissionRejected {
                        task: job.id.task,
                        release_index: job.id.release_index,
                        priority: job.priority,
                        test: match job.priority {
                            Priority::Low => AdmissionTest::LpUtilization,
                            Priority::High => AdmissionTest::HpUtilization,
                        },
                    });
                    return false;
                }
            }
        } else {
            home
        };
        self.metrics.record_release(&job);
        let migrated = context != home && job.priority == Priority::Low;
        self.emit(|| EventKind::AdmissionAccepted {
            task: job.id.task,
            release_index: job.id.release_index,
            priority: job.priority,
            context: context as u32,
            migrated,
        });
        if migrated {
            // Zero-delay migration: the task's home context moves with it,
            // and a guest starts charging assigned utilization.
            if let Some(prev) = self.homes[task_id.index()].charge {
                self.loads[home].assigned.remove(task_priority, prev);
            }
            self.loads[context].assigned.add(task_priority, util);
            self.homes[task_id.index()] = TaskHome { context, charge: Some(util) };
        }
        self.loads[context].active.add(job.priority, util);

        let stage_mrets = self.mret.stage_mrets(task_id);
        let relative = virtual_deadlines(&stage_mrets, relative_deadline);
        let virtual_deadlines: Vec<SimTime> = relative.iter().map(|d| job.release + *d).collect();
        let stage_count = stage_mrets.len().max(1);
        let active = ActiveJob {
            job,
            util,
            next_stage: 0,
            stage_count,
            virtual_deadlines,
            predecessor_missed: false,
        };
        self.queues[context].push(active.ready_stage());
        self.active[context].insert(job.id, active);
        true
    }

    /// Records `job` as rejected here. A cluster dispatcher calls this on the
    /// job's home device after every retry device also refused it, so that
    /// each job is accounted by exactly one device.
    fn reject_job(&mut self, job: &Job) {
        self.metrics.record_rejection(job);
        self.emit(|| EventKind::JobRejected {
            task: job.id.task,
            release_index: job.id.release_index,
            priority: job.priority,
        });
    }

    /// The admission test (Eq. 11–12) exposed for external callers: whether a
    /// release of `task` (a task of *this* scheduler's set) at priority
    /// `priority` would currently be admitted on some context. High-priority
    /// jobs are only ever tested when the `Overload+HPA` mode is enabled.
    fn would_admit(&self, task: TaskId, priority: Priority) -> bool {
        let Some(spec) = self.taskset.task(task) else { return false };
        match priority {
            Priority::High if !self.hp_admission_active() => true,
            _ => {
                let util = self.mret.task_utilization(task, spec.period);
                let home = self.homes[task.index()].context;
                self.admit(task, priority, util, home).is_some()
            }
        }
    }

    /// Registers a *guest* task — one that was placed on another device but
    /// is being admitted or migrated here by a cluster dispatcher — and
    /// returns its local id. Loads the model's weights if the kind is new
    /// (which can fail on device memory; the residency is kept for future
    /// retries of the same kind), seeds MRET from inflated isolated
    /// latencies (a cheap stand-in for the AFET pass, corrected by MRET
    /// within a few jobs), and homes the task on the least-loaded context.
    ///
    /// Unlike tasks placed here offline, a guest charges **no assigned
    /// utilization**: it only pays the active-job charge while its jobs run,
    /// so adopting a task that then never releases here (the dispatcher
    /// retries it elsewhere) does not shrink the device's Eq. 11 LP
    /// headroom.
    ///
    /// # Errors
    ///
    /// Returns an error if the model's weights do not fit in device memory.
    fn adopt_task(&mut self, task: &TaskSpec) -> Result<TaskId> {
        if !self.profiles.contains_key(&task.model) {
            let profile = ModelProfile::calibrated_for(task.model, self.config.calibration_spec());
            self.gpu
                .memory_mut()
                .alloc(format!("{}.weights", task.model), profile.weight_bytes())?;
            self.profiles.insert(task.model, profile);
        }
        let local = self.taskset.adopt(task.clone());
        let spec = self.taskset.task(local).expect("just adopted").clone();
        let profiles: BTreeMap<DnnKind, ModelProfile> =
            [(spec.model, self.profiles[&spec.model].clone())].into_iter().collect();
        let afet = AfetProfiler::from_isolated(&profiles, AFET_INFLATION);
        let seeds = effective_stage_seeds(&afet, &spec, &self.config);
        self.mret.seed(local, seeds);
        let ctx = (0..self.loads.len())
            .min_by(|a, b| {
                self.loads[*a].assigned.total().total_cmp(&self.loads[*b].assigned.total())
            })
            .expect("at least one context");
        self.homes.push(TaskHome { context: ctx, charge: None });
        Ok(local)
    }

    /// Withdraws an admitted job whose *first* stage is still queued (nothing
    /// dispatched yet), removing every trace of it — queue entry, active
    /// state, load charge and metrics — and returns the job so it can be
    /// re-released on another device. Returns `None` once any stage has been
    /// dispatched: partially executed jobs never migrate across devices.
    fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job> {
        let context = self.active.iter().position(|jobs| jobs.contains_key(&job))?;
        if self.active[context][&job].next_stage != 0 {
            return None;
        }
        if !self.queues[context].remove(job) {
            // Stage 0 is already on a stream.
            return None;
        }
        let active = self.active[context].remove(&job).expect("found above");
        self.loads[context].active.remove(active.job.priority, active.util);
        self.metrics.forget(job);
        Some(active.job)
    }

    /// Jobs eligible for cross-device migration — admitted, first stage still
    /// queued — least urgent (latest EDF deadline) first.
    fn migratable_jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<(SimTime, JobId)> = self
            .queues
            .iter()
            .flat_map(StageQueue::iter)
            .filter(|ready| ready.stage == 0)
            .map(|ready| (ready.edf_deadline, ready.job))
            .collect();
        jobs.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        jobs.into_iter().map(|(_, job)| job).collect()
    }

    /// Total number of queued (undispatched) ready stages across contexts.
    fn queue_backlog(&self) -> usize {
        self.queues.iter().map(StageQueue::len).sum()
    }

    /// Number of currently idle streams across contexts.
    fn idle_stream_count(&self) -> usize {
        self.stream_busy.iter().filter(|busy| !**busy).count()
    }

    /// Fraction of stream capacity charged by currently active jobs, the
    /// load signal a cluster dispatcher uses to rank retry candidates.
    fn active_load_fraction(&self) -> f64 {
        let capacity: f64 = self.loads.iter().map(ContextLoad::capacity).sum();
        if capacity <= 0.0 {
            return 0.0;
        }
        let active: f64 = self.loads.iter().map(|l| l.active.total()).sum();
        active / capacity
    }

    /// Simulated GPU events processed so far (see
    /// [`Gpu::events_processed`](daris_gpu::Gpu::events_processed)).
    fn events_processed(&self) -> u64 {
        self.gpu.events_processed()
    }

    /// The task set this scheduler was built over, including any adopted
    /// guest tasks.
    fn taskset(&self) -> &TaskSet {
        &self.taskset
    }

    /// Final accounting: advances to `horizon` and produces the outcome.
    fn finish(&mut self, horizon: SimTime) -> ExperimentOutcome {
        self.advance_to(horizon);
        let summary =
            self.metrics.summarize(horizon).with_gpu_utilization(self.gpu.average_utilization());
        ExperimentOutcome {
            summary,
            mret_trace: std::mem::take(&mut self.mret_trace),
            config_label: format!(
                "{} {}",
                self.config.partition.policy,
                self.config.partition.label()
            ),
        }
    }
}

/// Per-stage MRET seeds for a task, respecting the staging ablation (a job
/// dispatched as a whole unit has a single "stage" whose seed is the whole
/// AFET).
fn effective_stage_seeds(
    afet: &AfetProfiler,
    task: &TaskSpec,
    config: &DarisConfig,
) -> Vec<SimDuration> {
    let stages = afet.stage_afets(task.model);
    if config.ablation.staging {
        stages.to_vec()
    } else {
        vec![stages.iter().fold(SimDuration::ZERO, |a, d| a + *d)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuPartition, RunSpec};
    use daris_workload::{ArrivalPlan, ArrivalStream, ReleaseJitter};

    fn periodic(millis: u64) -> RunSpec {
        RunSpec::periodic().until(SimTime::from_millis(millis))
    }

    fn short_run(config: DarisConfig, taskset: &TaskSet, millis: u64) -> ExperimentOutcome {
        let mut scheduler = DarisScheduler::new(taskset, config).expect("scheduler builds");
        scheduler.run(&periodic(millis)).expect("periodic spec runs")
    }

    #[test]
    fn unet_taskset_completes_jobs_under_mps() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let outcome = short_run(DarisConfig::new(GpuPartition::mps(6, 6.0)), &taskset, 250);
        assert!(outcome.summary.total.completed > 20, "{:?}", outcome.summary.total);
        assert!(outcome.summary.throughput_jps > 100.0);
        // HP jobs are never rejected without Overload+HPA.
        assert_eq!(outcome.summary.high.rejected, 0);
        assert!(outcome.summary.gpu_utilization.unwrap() > 0.2);
        assert!(outcome.config_label.contains("MPS"));
    }

    #[test]
    fn str_policy_uses_a_single_context() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::str_streams(4));
        let scheduler = DarisScheduler::new(&taskset, config).unwrap();
        assert_eq!(scheduler.gpu().context_count(), 1);
        assert_eq!(scheduler.gpu().stream_count(), 4);
        assert!(scheduler.assignment().all(|c| c == 0));
    }

    #[test]
    fn high_priority_misses_are_rare_and_lp_misses_bounded() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let outcome = short_run(DarisConfig::new(GpuPartition::mps(6, 6.0)), &taskset, 400);
        let hp = &outcome.summary.high;
        let lp = &outcome.summary.low;
        assert!(hp.completed > 50);
        assert!(
            hp.deadline_miss_rate < 0.02,
            "HP DMR should be (near) zero, got {}",
            hp.deadline_miss_rate
        );
        assert!(lp.deadline_miss_rate < 0.30, "LP DMR {}", lp.deadline_miss_rate);
    }

    #[test]
    fn overloaded_lp_jobs_are_rejected_not_missed() {
        // The ResNet18 set offers 150 % of capacity; the admission test must
        // shed LP load.
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let outcome = short_run(DarisConfig::new(GpuPartition::mps(6, 2.0)), &taskset, 300);
        assert!(outcome.summary.low.rejected > 0, "admission test never rejected anything");
        assert_eq!(outcome.summary.high.rejected, 0);
    }

    #[test]
    fn hp_admission_flag_allows_hp_rejections() {
        let taskset =
            TaskSet::with_ratio(DnnKind::ResNet18, daris_workload::RatioScenario::Overload, 0.9);
        let config = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_hp_admission();
        let outcome = short_run(config, &taskset, 300);
        assert!(outcome.summary.high.rejected > 0, "Overload+HPA should drop some HP jobs");
        assert!(outcome.summary.high.deadline_miss_rate < 0.05);
    }

    #[test]
    fn adaptive_hpa_follows_the_burst_signal() {
        use daris_telemetry::{EventKind, MemorySink, SinkHandle};
        use daris_workload::{BurstyConfig, GenSpec, LoadDetectorConfig};
        // A 3× bursty stream must flip the admission mode in both
        // directions, and HP rejections may only happen while HPA is on.
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let sink = MemorySink::unbounded();
        let config = DarisConfig::new(GpuPartition::mps(6, 2.0))
            .with_adaptive_hpa(LoadDetectorConfig::default())
            .with_sink(SinkHandle::new(sink.clone()));
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        let spec = RunSpec::generated(GenSpec::Bursty(BurstyConfig::default()))
            .until(SimTime::from_millis(300));
        scheduler.run(&spec).unwrap();

        let mut hpa_on = false;
        let (mut ons, mut offs) = (0u64, 0u64);
        for ev in sink.events() {
            match ev.kind {
                EventKind::AdmissionModeChanged { hpa_enabled, load_ratio } => {
                    assert_ne!(hpa_enabled, hpa_on, "transitions must alternate");
                    assert!(load_ratio >= 0.0);
                    hpa_on = hpa_enabled;
                    if hpa_enabled {
                        ons += 1;
                    } else {
                        offs += 1;
                    }
                }
                EventKind::AdmissionRejected { priority: Priority::High, .. } => {
                    assert!(hpa_on, "HP release tested while the admission mode was off");
                }
                _ => {}
            }
        }
        assert!(ons >= 1 && offs >= 1, "expected both transitions, got {ons} on / {offs} off");
        let detector = scheduler.load_detector().expect("adaptive config builds a detector");
        assert_eq!(detector.transitions(), ons + offs, "every transition must be emitted");
    }

    #[test]
    fn mret_trace_is_recorded_when_enabled() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0)).with_mret_trace();
        let outcome = short_run(config, &taskset, 150);
        assert!(!outcome.mret_trace.is_empty());
        for sample in &outcome.mret_trace {
            assert!(sample.actual > SimDuration::ZERO);
            assert!(sample.predicted > SimDuration::ZERO);
        }
    }

    #[test]
    fn no_staging_dispatches_whole_jobs() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0))
            .with_ablation(crate::AblationFlags::no_staging());
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        let outcome = scheduler.run(&periodic(200)).unwrap();
        assert!(outcome.summary.total.completed > 10);
        // Each completed job produced exactly one MRET window entry per task
        // (a single stage), so stage count seen by the estimator is 1.
        assert_eq!(scheduler.mret().stage_count(taskset.tasks()[0].id), 1);
    }

    #[test]
    fn stepping_api_reproduces_run_until_exactly() {
        // The external-driving API must be able to reproduce a periodic
        // `run` byte for byte — this is the contract the cluster
        // dispatcher's single-device equivalence rests on.
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0));
        let horizon = SimTime::from_millis(200);

        let mut reference = DarisScheduler::new(&taskset, config.clone()).unwrap();
        let expected = reference.run(&RunSpec::periodic().until(horizon)).unwrap();

        let mut driven = DarisScheduler::new(&taskset, config).unwrap();
        let plan = ArrivalPlan::generate(&taskset, horizon, ReleaseJitter::None);
        let arrivals: Vec<Job> = plan.into_iter().collect();
        let mut next = 0usize;
        loop {
            let next_release = arrivals.get(next).map(|j| j.release);
            let step_to = match (next_release, driven.next_event_time()) {
                (Some(r), Some(g)) => r.min(g),
                (Some(r), None) => r,
                (None, Some(g)) => g,
                (None, None) => break,
            };
            if step_to > horizon {
                break;
            }
            driven.advance_to(step_to);
            while next < arrivals.len() && arrivals[next].release <= driven.now() {
                let job = arrivals[next];
                next += 1;
                if !driven.try_release_job(job) {
                    driven.reject_job(&job);
                }
            }
            driven.dispatch_ready();
        }
        let actual = driven.finish(horizon);
        assert_eq!(actual.summary, expected.summary);
    }

    #[test]
    fn recorded_live_run_replays_byte_identically() {
        // The recorder round trip: wrap the live run's arrival stream, then
        // replay the captured trace on a fresh scheduler — completions and
        // metrics must match byte for byte. This is the single-device anchor
        // of the differential suite.
        use daris_workload::{Trace, TraceRecorder};
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0));
        let horizon = SimTime::from_millis(200);

        let mut live = DarisScheduler::new(&taskset, config.clone()).unwrap();
        let mut recorder = TraceRecorder::new(ArrivalStream::new(&taskset, horizon));
        let expected = live.run_with_source(&mut recorder, horizon);
        let trace = recorder.into_trace(horizon).expect("periodic recordings are valid");
        assert!(!trace.is_empty());

        let mut replay = DarisScheduler::new(&taskset, config.clone()).unwrap();
        let actual =
            replay.run(&RunSpec::replay(trace.clone())).expect("trace binds to its own task set");
        assert_eq!(actual.summary, expected.summary);
        assert_eq!(replay.events_processed(), live.events_processed());

        // The codec keeps the guarantee: decode(encode(trace)) replays the
        // same run.
        let decoded = Trace::decode(&trace.encode()).unwrap();
        let mut replay2 = DarisScheduler::new(&taskset, config).unwrap();
        assert_eq!(replay2.run(&RunSpec::replay(decoded)).unwrap().summary, expected.summary);
    }

    #[test]
    fn generated_source_matches_its_recorded_trace_exactly() {
        use daris_workload::{BurstyConfig, GenSpec};
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0));
        let horizon = SimTime::from_millis(200);
        let spec = GenSpec::Bursty(BurstyConfig::default());

        let mut live = DarisScheduler::new(&taskset, config.clone()).unwrap();
        let mut stream = spec.stream(&taskset, horizon);
        let expected = live.run_with_source(&mut stream, horizon);
        assert!(expected.summary.total.completed > 0, "bursty load must do real work");

        let trace = spec.generate(&taskset, horizon);
        let mut replay = DarisScheduler::new(&taskset, config).unwrap();
        let actual = replay.run(&RunSpec::replay(trace)).unwrap();
        assert_eq!(actual.summary, expected.summary);
    }

    #[test]
    fn run_trace_rejects_traces_for_foreign_tasks() {
        use daris_workload::GenSpec;
        // A trace over the 51-task ResNet18 set cannot replay on the 15-task
        // UNet scheduler.
        let foreign = TaskSet::table2(DnnKind::ResNet18);
        let trace =
            GenSpec::Correlated(Default::default()).generate(&foreign, SimTime::from_millis(50));
        let taskset = TaskSet::table2(DnnKind::UNet);
        let mut scheduler =
            DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(4, 4.0))).unwrap();
        let err = scheduler.run(&RunSpec::replay(trace));
        assert!(matches!(err, Err(CoreError::Trace(_))), "{err:?}");
    }

    #[test]
    fn run_rejects_workloads_the_streams_cannot_run_by_name() {
        use daris_gpu::SimDuration;
        use daris_workload::{BurstyConfig, GenSpec};
        let taskset = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(50);
        // A jitter as wide as the horizon, and a generator that never bursts.
        let wide = ReleaseJitter::Uniform { max: SimDuration::from_millis(50), seed: 1 };
        let silent = GenSpec::Bursty(BurstyConfig { burst_rate: 0.0, ..Default::default() });
        for (spec, reason) in [
            (RunSpec::jittered(wide), "cannot lazily reproduce"),
            (RunSpec::generated(silent), "burst_rate must be positive"),
        ] {
            let mut scheduler =
                DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(4, 4.0))).unwrap();
            let err = scheduler.run(&spec.until(horizon));
            assert!(
                matches!(&err, Err(CoreError::InvalidConfig(r)) if r.contains(reason)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn adopt_task_registers_a_guest_and_admits_its_jobs() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0));
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        let allocations_before = scheduler.gpu().memory().stats().allocations;

        // Adopt a ResNet18 guest: new model kind, so weights get resident.
        let guest = TaskSet::table2(DnnKind::ResNet18).tasks()[0].clone();
        let local = scheduler.adopt_task(&guest).unwrap();
        assert_eq!(local.index(), taskset.len());
        assert_eq!(scheduler.gpu().memory().stats().allocations, allocations_before + 1);
        assert!(scheduler.mret().task_mret(local) > SimDuration::ZERO);
        assert!(scheduler.would_admit(local, Priority::High), "HP without HPA always admits");

        // Releasing a job of the guest works end to end.
        let mut job = guest.job(0);
        job.id.task = local;
        assert!(scheduler.try_release_job(job));
        scheduler.dispatch_ready();
        while let Some(t) = scheduler.next_event_time() {
            scheduler.advance_to(t);
            scheduler.dispatch_ready();
        }
        let outcome = scheduler.finish(SimTime::from_millis(100));
        assert_eq!(outcome.summary.total.completed, 1);
    }

    #[test]
    fn withdraw_queued_job_removes_all_traces() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        // One context, one stream: a second release at the same instant must
        // queue behind the first.
        let config = DarisConfig::new(GpuPartition::str_streams(1));
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        let t0 = taskset.tasks()[0].clone();
        let t1 = taskset.tasks()[1].clone();
        let j0 = t0.job(0);
        let mut j1 = t1.job(0);
        j1.release = j0.release;
        assert!(scheduler.try_release_job(j0));
        assert!(scheduler.try_release_job(j1));
        scheduler.dispatch_ready();
        // j0 occupies the only stream; j1 is queued and migratable.
        assert_eq!(scheduler.queue_backlog(), 1);
        assert_eq!(scheduler.idle_stream_count(), 0);
        assert_eq!(scheduler.migratable_jobs(), vec![j1.id]);
        assert!(scheduler.withdraw_queued_job(j0.id).is_none(), "dispatched jobs cannot migrate");
        let withdrawn = scheduler.withdraw_queued_job(j1.id).expect("queued job withdraws");
        assert_eq!(withdrawn.id, j1.id);
        assert_eq!(scheduler.queue_backlog(), 0);
        assert!(scheduler.withdraw_queued_job(j1.id).is_none(), "already withdrawn");
        // The withdrawn job left no metric trace: only j0 is accounted.
        let outcome = scheduler.finish(SimTime::from_millis(200));
        assert_eq!(outcome.summary.total.released, 1);
    }

    #[test]
    fn would_admit_matches_try_release_for_lp_jobs() {
        // Saturate a tiny partition with LP activations, then check the
        // exposed admission test agrees with the internal one.
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let config = DarisConfig::new(GpuPartition::mps(2, 1.0));
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        let lp_tasks: Vec<TaskSpec> =
            taskset.tasks().iter().filter(|t| t.priority == Priority::Low).cloned().collect();
        let mut disagreements = 0;
        for t in &lp_tasks {
            let predicted = scheduler.would_admit(t.id, Priority::Low);
            let admitted = scheduler.try_release_job(t.job(0));
            if predicted != admitted {
                disagreements += 1;
            }
        }
        assert_eq!(disagreements, 0);
        // The saturated scheduler rejects at least one LP release.
        assert!(lp_tasks.iter().any(|t| !scheduler.would_admit(t.id, Priority::Low)));
    }

    #[test]
    fn telemetry_sink_sees_the_full_event_stream_without_perturbing_the_run() {
        use daris_telemetry::{DeviceEvent, EventKind, MemorySink, SinkHandle};
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let horizon = SimTime::from_millis(150);
        // Overloaded partition so the admission test rejects some LP jobs.
        let config = DarisConfig::new(GpuPartition::mps(6, 2.0));

        let mut silent = DarisScheduler::new(&taskset, config.clone()).unwrap();
        let expected = silent.run(&RunSpec::periodic().until(horizon)).unwrap();

        let sink = MemorySink::unbounded();
        let observed_config = config.with_sink(SinkHandle::new(sink.clone()));
        let mut observed = DarisScheduler::new(&taskset, observed_config).unwrap();
        let outcome = observed.run(&RunSpec::periodic().until(horizon)).unwrap();

        // Observation is free of feedback: identical summary either way.
        assert_eq!(outcome.summary, expected.summary);

        let events = sink.events();
        let count = |f: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
        let admitted = count(&|k| matches!(k, EventKind::AdmissionAccepted { .. }));
        let rejected = count(&|k| matches!(k, EventKind::JobRejected { .. }));
        let completed = count(&|k| matches!(k, EventKind::JobCompleted { .. }));
        let missed = count(&|k| matches!(k, EventKind::DeadlineMissed { .. }));
        assert_eq!(admitted, outcome.summary.total.accepted);
        assert_eq!(rejected, outcome.summary.total.rejected);
        assert_eq!(completed, outcome.summary.total.completed);
        // `DeadlineMissed` fires on late completions; the summary also counts
        // jobs still in flight at the horizon whose deadline already passed.
        assert!(missed <= outcome.summary.total.deadline_misses);
        // Rejections name the failing test; this overload is LP-only.
        assert!(
            count(&|k| matches!(
                k,
                EventKind::AdmissionRejected {
                    test: daris_telemetry::AdmissionTest::LpUtilization,
                    ..
                }
            )) > 0
        );
        // The device layer streams through too.
        assert!(count(&|k| matches!(k, EventKind::StageDispatched { .. })) > 0);
        let device =
            |f: fn(&DeviceEvent) -> bool| count(&|k| matches!(k, EventKind::Device(e) if f(e)));
        assert!(device(|e| matches!(e, DeviceEvent::CopyInStarted { .. })) > 0);
        assert!(device(|e| matches!(e, DeviceEvent::ItemStarted { .. })) > 0);
        assert!(device(|e| matches!(e, DeviceEvent::KernelFinished { .. })) > 0);
        assert!(device(|e| matches!(e, DeviceEvent::CopyOutStarted { .. })) > 0);
        assert!(device(|e| matches!(e, DeviceEvent::ItemFinished { .. })) > 0);
        assert!(device(|e| matches!(e, DeviceEvent::Replan { .. })) > 0);
        // Event times never run backwards within the scheduler layer's own
        // emissions (device events interleave at span granularity).
        assert!(events.iter().all(|e| e.at <= horizon));
    }

    #[test]
    fn device_events_reach_the_sink_in_one_batch_per_advance() {
        use std::sync::{Arc, Mutex};

        use daris_telemetry::{SinkHandle, TelemetrySink};
        /// Counts device events recorded one at a time, batches, and the
        /// device events the batches carry.
        #[derive(Debug, Clone, Default)]
        struct Arrivals(Arc<Mutex<[usize; 3]>>);
        impl TelemetrySink for Arrivals {
            fn record(&mut self, event: &TelemetryEvent) {
                if matches!(event.kind, EventKind::Device(_)) {
                    self.0.lock().unwrap()[0] += 1;
                }
            }
            fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
                let mut counts = self.0.lock().unwrap();
                counts[1] += 1;
                counts[2] +=
                    events.drain(..).filter(|e| matches!(e.kind, EventKind::Device(_))).count();
            }
        }
        let taskset = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(50);
        let sink = Arrivals::default();
        let config =
            DarisConfig::new(GpuPartition::mps(4, 4.0)).with_sink(SinkHandle::new(sink.clone()));
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        let mut advances = 0;
        for job in ArrivalPlan::generate(&taskset, horizon, ReleaseJitter::None) {
            while let Some(t) = scheduler.next_event_time().filter(|&t| t < job.release) {
                scheduler.advance_to(t);
                scheduler.dispatch_ready();
                advances += 1;
            }
            scheduler.advance_to(job.release);
            advances += 1;
            if !scheduler.try_release_job(job) {
                scheduler.reject_job(&job);
            }
            scheduler.dispatch_ready();
        }
        let [one_by_one, batches, batched] = *sink.0.lock().unwrap();
        assert_eq!(one_by_one, 0, "device events go through record_batch only");
        assert!(batched > 0);
        assert!(batches <= advances, "{batches} batches for {advances} advances");
    }

    #[test]
    fn empty_taskset_is_rejected() {
        let empty: TaskSet = std::iter::empty::<TaskSpec>().collect();
        let err = DarisScheduler::new(&empty, DarisConfig::new(GpuPartition::mps(2, 1.0)));
        assert!(matches!(err, Err(CoreError::EmptyTaskSet)));
    }

    #[test]
    fn weights_are_resident_in_device_memory() {
        let taskset = TaskSet::mixed();
        let scheduler =
            DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(6, 2.0))).unwrap();
        let stats = scheduler.gpu().memory().stats();
        assert_eq!(stats.allocations, 3, "one weight allocation per model kind");
        assert!(stats.allocated > 100_000_000);
    }

    #[test]
    fn advancing_to_a_past_target_keeps_the_clock_on_the_device() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let config = DarisConfig::new(GpuPartition::str_streams(1));
        let mut scheduler = DarisScheduler::new(&taskset, config).unwrap();
        assert!(scheduler.try_release_job(taskset.tasks()[0].job(0)));
        scheduler.dispatch_ready();
        scheduler.advance_to(SimTime::from_millis(5));
        scheduler.advance_to(SimTime::from_millis(2));
        assert_eq!(scheduler.now(), SimTime::from_millis(5), "the clock never runs backwards");
        assert_eq!(scheduler.now(), scheduler.gpu().now());
    }

    #[test]
    fn a_guest_charges_assigned_utilization_only_once_migrated() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let mut scheduler =
            DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(4, 4.0))).unwrap();
        let lp_assigned = |s: &DarisScheduler| -> Vec<f64> {
            s.loads.iter().map(|l| l.assigned.of(Priority::Low)).collect()
        };
        let before = lp_assigned(&scheduler);

        // Adopting an LP guest leaves every context's assigned LP total as is.
        let guest = TaskSet::table2(DnnKind::ResNet18)
            .tasks()
            .iter()
            .find(|t| t.priority == Priority::Low)
            .cloned()
            .unwrap();
        let local = scheduler.adopt_task(&guest).unwrap();
        let home = scheduler.assignment().nth(local.index()).unwrap();
        assert_eq!(lp_assigned(&scheduler), before, "a guest charges no assigned utilization");

        // Its releases fill the home context's LP headroom until admission
        // migrates the task to another context.
        let mut release_index = 0;
        let moved_to = loop {
            assert!(release_index < 64, "the guest never migrated");
            let mut job = guest.job(release_index);
            job.id.task = local;
            release_index += 1;
            assert!(scheduler.try_release_job(job), "another context has headroom");
            let context = scheduler.assignment().nth(local.index()).unwrap();
            if context != home {
                break context;
            }
        };
        let util = scheduler.mret().task_utilization(local, guest.period);
        let after = lp_assigned(&scheduler);
        assert_eq!(after[moved_to], before[moved_to] + util, "the new context charges the guest");
        assert_eq!(after[home], before[home], "the old home never charged it");
        for ctx in (0..after.len()).filter(|&c| c != home && c != moved_to) {
            assert_eq!(after[ctx], before[ctx]);
        }
    }
}
