//! The four named workloads and one repetition of each.
//!
//! Every layer is driven only through its stable entry points:
//! `Scheduler::run(&RunSpec)` and the `Scheduler` trait methods,
//! `ClusterDispatcher::{new, with_factory}` plus `ClusterDispatcher::run`.
//! A repetition builds everything from the seed (set-up), runs it once (the
//! timed run phase), checks the outcome, and — when given a [`Recorder`] —
//! wraps every scheduler, arrival source and sink so each layer's calls
//! become spans.

use std::hash::{DefaultHasher, Hash, Hasher};

use daris_baselines::{
    BaselineScheduler, BatchingServer, FifoMultiStreamServer, GlobalEdfServer, GsliceServer,
    PriorityOnlyServer, SingleTenantServer,
};
use daris_cluster::{
    AutoscaleConfig, ClusterConfig, ClusterDispatcher, ClusterError, ClusterOutcome, ClusterSpec,
    DeviceSlot, ElasticQuantum, PlacementStrategy,
};
use daris_core::{
    AblationFlags, CoreError, DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler,
};
use daris_gpu::{GpuSpec, SimDuration, SimTime};
use daris_models::DnnKind;
use daris_telemetry::{MemorySink, SinkHandle, WallClockProfiler};
use daris_workload::{
    ArrivalStream, BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, LoadDetectorConfig,
    ReleaseJitter, TaskSet,
};

use crate::alloc_count::live_bytes;
use crate::report::{check_conservation, Checks, Pooled};
use crate::trace::{now_ns, Layer, Op, Recorder, TimedSink, TimedSource, TracedScheduler};

/// `single_mixed`: simulated horizon.
const SINGLE_HORIZON_MS: u64 = 1_000;
/// `single_mixed`: upper bound of the uniform release jitter.
const SINGLE_JITTER_MS: u64 = 2;

/// `fleet_bursty`: fleet size, racks, dispatcher worker threads.
const BURSTY_DEVICES: usize = 64;
const BURSTY_RACKS: usize = 4;
const BURSTY_THREADS: usize = 2;
/// `fleet_bursty`: devices' worth of the 150 % ResNet18 set offered to the
/// fleet (well under its 64 devices, so the fleet is under-loaded on
/// average and only bursts force retries and migrations; at 24 some seeds
/// see no retry at all).
const BURSTY_TASKSET_SCALE: u32 = 28;
const BURSTY_HORIZON_MS: u64 = 150;
/// `fleet_bursty`: short, steep bursts (8× the nominal rate for ~10 ms in
/// every ~80 ms, the same mean rate as the periodic plan). The generator's
/// default 3× bursts average out over a device's tasks and never trip
/// admission at this load.
const BURSTY_RATE: f64 = 8.0;
const BURSTY_ON_MS: u64 = 10;
const BURSTY_OFF_MS: u64 = 70;

/// `fleet_replay_observed`: fleet size, threads, offered set, horizon.
const REPLAY_DEVICES: usize = 8;
const REPLAY_THREADS: usize = 2;
const REPLAY_TASKSET_SCALE: u32 = 4;
const REPLAY_HORIZON_MS: u64 = 1_000;

/// `shootout_grid`: fleet sizes and per-cell horizon.
const GRID_FLEETS: [usize; 2] = [1, 2];
const GRID_HORIZON_MS: u64 = 60;
/// Streams/contexts given to every contender (DARIS runs MPS 6×6).
const GRID_PARALLELISM: u32 = 6;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One RTX 2080 Ti, the paper's mixed set at ~150 % load, jittered.
    SingleMixed,
    /// 64 heterogeneous devices in 4 racks, bursty arrivals, 2 workers.
    FleetBursty,
    /// 8 heterogeneous devices replaying a coherent diurnal trace with the
    /// full adaptive plane and a fleet telemetry sink.
    FleetReplayObserved,
    /// 9 contenders × 4 scenarios on 1- and 2-device fleets.
    ShootoutGrid,
}

impl Workload {
    /// Every workload, in definition order.
    pub const ALL: [Workload; 4] = [
        Workload::SingleMixed,
        Workload::FleetBursty,
        Workload::FleetReplayObserved,
        Workload::ShootoutGrid,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleMixed => "single_mixed",
            Workload::FleetBursty => "fleet_bursty",
            Workload::FleetReplayObserved => "fleet_replay_observed",
            Workload::ShootoutGrid => "shootout_grid",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One-line description of the input size, printed with every result.
    pub fn input_size(self) -> String {
        match self {
            Workload::SingleMixed => format!(
                "1 device (RTX 2080 Ti, MPS 6 contexts at OS 6), mixed set, jitter < \
                 {SINGLE_JITTER_MS} ms, \
                 horizon {SINGLE_HORIZON_MS} ms"
            ),
            Workload::FleetBursty => format!(
                "{BURSTY_DEVICES} devices in {BURSTY_RACKS} racks, {BURSTY_THREADS} workers, \
                 ResNet18 x{BURSTY_TASKSET_SCALE}, bursts x{BURSTY_RATE} on {BURSTY_ON_MS} ms / \
                 off {BURSTY_OFF_MS} ms, horizon {BURSTY_HORIZON_MS} ms"
            ),
            Workload::FleetReplayObserved => format!(
                "{REPLAY_DEVICES} devices, {REPLAY_THREADS} workers, ResNet18 \
                 x{REPLAY_TASKSET_SCALE}, diurnal replay, adaptive plane, sink, horizon \
                 {REPLAY_HORIZON_MS} ms"
            ),
            Workload::ShootoutGrid => format!(
                "9 contenders x 4 scenarios x fleets {GRID_FLEETS:?}, horizon {GRID_HORIZON_MS} ms \
                 per cell"
            ),
        }
    }

    /// Runs one repetition. With a recorder, every layer is wrapped and
    /// timed; without, the stable entry points run bare.
    ///
    /// # Errors
    ///
    /// Returns a message when a fleet or scheduler cannot be built or run.
    pub fn rep(self, seed: u64, recorder: Option<&Recorder>) -> Result<Rep, String> {
        match self {
            Workload::SingleMixed => single_mixed(seed, recorder),
            Workload::FleetBursty => fleet_bursty(seed, recorder),
            Workload::FleetReplayObserved => fleet_replay_observed(seed, recorder),
            Workload::ShootoutGrid => shootout_grid(seed, recorder),
        }
    }
}

/// Dispatcher-side numbers of a traced fleet run (all zero otherwise).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// Synchronisation rounds.
    pub rounds: u64,
    /// Round-phase wall totals from the dispatcher's profiler, in ns.
    pub span_ns: u64,
    /// Retry phase.
    pub retry_ns: u64,
    /// Migration phase.
    pub migration_ns: u64,
    /// Telemetry merge phase.
    pub merge_ns: u64,
    /// Pool worker threads (0 when spans run inline on the dispatcher).
    pub workers: usize,
    /// Jobs admitted on a non-home device.
    pub cluster_admissions: u64,
    /// Queued jobs moved between devices (in and across racks).
    pub migrations: u64,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up wall time: construction, plus trace generation (raw, not
    /// rescaled by the calibration).
    pub setup_ns: u64,
    /// Run-phase wall time (the grid's includes per-cell construction; raw).
    pub run_ns: u64,
    /// Simulated milliseconds the run phase covered (summed over cells).
    pub sim_ms: f64,
    /// Simulated device-seconds (devices × horizon, summed over cells).
    pub device_sim_s: f64,
    /// GPU events processed.
    pub events: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Inferences completed (jobs weighted by batch size).
    pub completed_inferences: u64,
    /// Jobs the workload offered (counted from the workload itself).
    pub offered: u64,
    /// Pooled miss/accept counts.
    pub pooled: Pooled,
    /// Digest of every outcome summary (and telemetry count).
    pub hash: u64,
    /// Correctness checks.
    pub checks: Checks,
    /// Dispatcher numbers (traced fleet runs).
    pub fleet: FleetStats,
    /// Heap the simulator held at the end of its runs beyond what it held
    /// after construction (counting allocator only; 0 otherwise).
    pub retained_bytes: i64,
    /// Mean wall time of the calibration loops run right before and right
    /// after this repetition (0 when not calibrated).
    pub cal_ns: u64,
}

impl Rep {
    fn absorb_fleet(&mut self, outcome: &ClusterOutcome, offered: u64) {
        let s = &outcome.summary;
        for device in &outcome.devices {
            let d = &device.outcome.summary;
            self.pooled.add(&d.high, &d.low);
        }
        self.completed += s.total.completed as u64;
        self.completed_inferences += s.total.completed_inferences;
        self.offered += offered;
        self.fleet.cluster_admissions += s.cluster_admissions as u64;
        self.fleet.migrations += (s.migrations + s.cross_rack_migrations) as u64;
        self.checks.check_result(
            check_conservation(offered, &s.high, &s.low, &s.total)
                .map_err(|e| format!("job conservation: {e}")),
        );
        self.hash = combine(self.hash, outcome.summary_hash());
    }
}

fn combine(a: u64, b: u64) -> u64 {
    let mut hasher = DefaultHasher::new();
    (a, b).hash(&mut hasher);
    hasher.finish()
}

/// Splitmix64 of `seed` mixed with a stream index: independent, stable
/// generator seeds for each input of a workload.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f`, recorded as one span when a recorder is given.
fn timed<T>(recorder: Option<&Recorder>, layer: Layer, op: Op, f: impl FnOnce() -> T) -> T {
    match recorder {
        Some(r) => r.time(layer, op, f),
        None => f(),
    }
}

fn error(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The per-device DARIS configuration `ClusterDispatcher::new` derives from
/// a cluster config, rebuilt here so traced fleets (which must go through
/// `with_factory`) construct identical schedulers.
#[derive(Debug, Clone, Copy)]
struct DarisKnobs {
    window_size: usize,
    ablation: AblationFlags,
    hp_admission: bool,
    adaptive_hpa: Option<LoadDetectorConfig>,
}

impl DarisKnobs {
    fn of(config: &ClusterConfig) -> Self {
        DarisKnobs {
            window_size: config.window_size,
            ablation: config.ablation,
            hp_admission: config.hp_admission,
            adaptive_hpa: config.adaptive_hpa,
        }
    }

    fn build(self, slot: DeviceSlot<'_>) -> Result<DarisScheduler, CoreError> {
        let mut config = DarisConfig::new(slot.spec.partition)
            .with_gpu(slot.spec.gpu.clone())
            .with_reference_calibration(slot.reference.clone())
            .with_window_size(self.window_size)
            .with_ablation(self.ablation);
        if self.hp_admission {
            config = config.with_hp_admission();
        }
        if let Some(detector) = self.adaptive_hpa {
            config = config.with_adaptive_hpa(detector);
        }
        if let Some(sink) = slot.sink {
            config = config.with_sink(sink);
        }
        DarisScheduler::new(slot.taskset, config)
    }
}

/// Builds a DARIS fleet: bare through `ClusterDispatcher::new`, traced
/// through `with_factory` with every device wrapped.
fn construct_daris(
    taskset: &TaskSet,
    fleet: ClusterSpec,
    config: ClusterConfig,
    recorder: &Recorder,
) -> Result<ClusterDispatcher<TracedScheduler<DarisScheduler>>, ClusterError> {
    let knobs = DarisKnobs::of(&config);
    ClusterDispatcher::with_factory(taskset, fleet, config, |slot| {
        recorder
            .time(Layer::Setup, Op::Build, || knobs.build(slot))
            .map(|s| TracedScheduler::new(s, Layer::Core, recorder.clone()))
    })
}

/// Constructs one fleet, runs `spec` on it, drops it, and folds the
/// outcome into `rep`. Returns `(construction ns, run ns)`.
fn run_fleet<Sch: Scheduler + Send>(
    rep: &mut Rep,
    recorder: Option<&Recorder>,
    construct: impl FnOnce() -> Result<ClusterDispatcher<Sch>, ClusterError>,
    spec: &RunSpec,
    offered: u64,
) -> Result<(u64, u64), String> {
    let live0 = live_bytes();
    let t0 = now_ns();
    let mut dispatcher = timed(recorder, Layer::Setup, Op::Construct, construct).map_err(error)?;
    let t1 = now_ns();
    let live1 = live_bytes();
    let outcome =
        timed(recorder, Layer::Cluster, Op::Run, || dispatcher.run(spec)).map_err(error)?;
    let t2 = now_ns();
    rep.events += dispatcher.events_processed();
    let live2 = live_bytes();
    drop(dispatcher);
    rep.retained_bytes += (live2 - live_bytes()) - (live1 - live0);
    rep.absorb_fleet(&outcome, offered);
    Ok((t1 - t0, t2 - t1))
}

/// Attaches a fresh round-phase profiler in traced runs.
fn profiled(mut config: ClusterConfig, recorder: Option<&Recorder>) -> ClusterConfig {
    if recorder.is_some() {
        config.profiler = Some(WallClockProfiler::new());
    }
    config
}

fn add_profile(rep: &mut Rep, profiler: Option<&WallClockProfiler>, workers: usize) {
    let Some(profiler) = profiler else { return };
    let totals = profiler.totals();
    let ns = |i: usize| u64::try_from(totals[i].1.wall.as_nanos()).unwrap_or(u64::MAX);
    rep.fleet.rounds += profiler.rounds();
    rep.fleet.span_ns += ns(0);
    rep.fleet.retry_ns += ns(1);
    rep.fleet.migration_ns += ns(2);
    rep.fleet.merge_ns += ns(3);
    rep.fleet.workers = if workers > 1 { workers } else { 0 };
}

fn single_mixed(seed: u64, recorder: Option<&Recorder>) -> Result<Rep, String> {
    let taskset = TaskSet::mixed();
    let horizon = SimTime::from_millis(SINGLE_HORIZON_MS);
    let jitter = ReleaseJitter::Uniform {
        max: SimDuration::from_millis(SINGLE_JITTER_MS),
        seed: derive_seed(seed, 0),
    };
    // A release whose jitter pushes it past the horizon is never pulled.
    let offered = ArrivalStream::with_jitter(&taskset, horizon, jitter)
        .filter(|job| job.release < horizon)
        .count() as u64;
    let config = DarisConfig::new(GpuPartition::mps(6, 6.0));

    let mut rep = Rep::default();
    let live0 = live_bytes();
    let t0 = now_ns();
    let scheduler =
        timed(recorder, Layer::Setup, Op::Build, || DarisScheduler::new(&taskset, config))
            .map_err(error)?;
    let t1 = now_ns();
    let live1 = live_bytes();
    let (outcome, events, live2) = match recorder {
        None => {
            let mut scheduler = scheduler;
            let spec = RunSpec::jittered(jitter).until(horizon);
            let outcome = Scheduler::run(&mut scheduler, &spec).map_err(error)?;
            (outcome, scheduler.events_processed(), live_bytes())
        }
        Some(r) => {
            let mut scheduler = TracedScheduler::new(scheduler, Layer::Core, r.clone());
            let mut source =
                TimedSource::new(ArrivalStream::with_jitter(&taskset, horizon, jitter), r.clone());
            let outcome = r.time(Layer::Core, Op::Run, || {
                Scheduler::run_with_source(&mut scheduler, &mut source, horizon)
            });
            drop(source);
            (outcome, scheduler.events_processed(), live_bytes())
        }
    };
    let t2 = now_ns();
    // Both arms dropped their scheduler on the way out.
    rep.retained_bytes = (live2 - live_bytes()) - (live1 - live0);

    let s = &outcome.summary;
    rep.setup_ns = t1 - t0;
    rep.run_ns = t2 - t1;
    rep.sim_ms = horizon.as_millis_f64();
    rep.device_sim_s = horizon.as_secs_f64();
    rep.events = events;
    rep.completed = s.total.completed as u64;
    rep.completed_inferences = s.total.completed_inferences;
    rep.offered = offered;
    rep.pooled.add(&s.high, &s.low);
    rep.checks.check_result(
        check_conservation(offered, &s.high, &s.low, &s.total)
            .map_err(|e| format!("job conservation: {e}")),
    );
    let mut hasher = DefaultHasher::new();
    format!("{s:?}").hash(&mut hasher);
    rep.hash = hasher.finish();
    Ok(rep)
}

fn fleet_bursty(seed: u64, recorder: Option<&Recorder>) -> Result<Rep, String> {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, BURSTY_TASKSET_SCALE);
    let horizon = SimTime::from_millis(BURSTY_HORIZON_MS);
    let generator = GenSpec::Bursty(BurstyConfig {
        seed: derive_seed(seed, 1),
        on_mean: SimDuration::from_millis(BURSTY_ON_MS),
        off_mean: SimDuration::from_millis(BURSTY_OFF_MS),
        burst_rate: BURSTY_RATE,
    });
    let offered = generator.stream(&taskset, horizon).count() as u64;
    let spec = RunSpec::generated(generator).until(horizon);
    let fleet = || ClusterSpec::heterogeneous_mix(BURSTY_DEVICES);
    let config = profiled(
        ClusterConfig {
            strategy: PlacementStrategy::GreedyBalance,
            threads: BURSTY_THREADS,
            racks: BURSTY_RACKS,
            cluster_admission: true,
            migration: true,
            ..ClusterConfig::default()
        },
        recorder,
    );
    let profiler = config.profiler.clone();

    let mut rep = Rep::default();
    let (setup_ns, run_ns) = match recorder {
        None => run_fleet(
            &mut rep,
            None,
            || ClusterDispatcher::new(&taskset, fleet(), config),
            &spec,
            offered,
        )?,
        Some(r) => run_fleet(
            &mut rep,
            recorder,
            || construct_daris(&taskset, fleet(), config, r),
            &spec,
            offered,
        )?,
    };
    add_profile(&mut rep, profiler.as_ref(), BURSTY_THREADS);
    rep.setup_ns = setup_ns;
    rep.run_ns = run_ns;
    rep.sim_ms = horizon.as_millis_f64();
    rep.device_sim_s = BURSTY_DEVICES as f64 * horizon.as_secs_f64();
    let (admissions, migrations) = (rep.fleet.cluster_admissions, rep.fleet.migrations);
    rep.checks.check(admissions > 0 && migrations > 0, || {
        format!(
            "bursts did not exercise the dispatcher: {admissions} cluster admissions, \
             {migrations} migrations"
        )
    });
    Ok(rep)
}

fn fleet_replay_observed(seed: u64, recorder: Option<&Recorder>) -> Result<Rep, String> {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, REPLAY_TASKSET_SCALE);
    let horizon = SimTime::from_millis(REPLAY_HORIZON_MS);
    let generator = GenSpec::Diurnal(DiurnalConfig {
        seed: derive_seed(seed, 2),
        amplitude: 0.9,
        cycle: SimDuration::from_millis(100),
        phase_spread: 0.0,
    });
    let sink = MemorySink::unbounded();
    let handle = match recorder {
        None => SinkHandle::new(sink.clone()),
        Some(r) => SinkHandle::new(TimedSink::new(sink.clone(), r.clone())),
    };
    let config = profiled(
        ClusterConfig {
            strategy: PlacementStrategy::GreedyBalance,
            threads: REPLAY_THREADS,
            adaptive_hpa: Some(LoadDetectorConfig::default()),
            elastic_quantum: Some(ElasticQuantum::default()),
            autoscale: Some(AutoscaleConfig {
                min_devices: 2,
                scale_up_ratio: 0.4,
                scale_down_ratio: 0.2,
                epoch: 4,
            }),
            sink: Some(handle),
            ..ClusterConfig::default()
        },
        recorder,
    );
    let profiler = config.profiler.clone();
    let fleet = || ClusterSpec::heterogeneous_mix(REPLAY_DEVICES);

    let mut rep = Rep::default();
    let t0 = now_ns();
    let trace =
        timed(recorder, Layer::Workload, Op::Generate, || generator.generate(&taskset, horizon));
    let generate_ns = now_ns() - t0;
    let offered = trace.len() as u64;
    let spec = RunSpec::replay(trace);
    let (construct_ns, run_ns) = match recorder {
        None => run_fleet(
            &mut rep,
            None,
            || ClusterDispatcher::new(&taskset, fleet(), config),
            &spec,
            offered,
        )?,
        Some(r) => run_fleet(
            &mut rep,
            recorder,
            || construct_daris(&taskset, fleet(), config, r),
            &spec,
            offered,
        )?,
    };
    add_profile(&mut rep, profiler.as_ref(), REPLAY_THREADS);
    rep.setup_ns = generate_ns + construct_ns;
    rep.run_ns = run_ns;
    rep.sim_ms = horizon.as_millis_f64();
    rep.device_sim_s = REPLAY_DEVICES as f64 * horizon.as_secs_f64();
    let events = sink.recorded();
    rep.hash = combine(rep.hash, events);
    rep.checks.check(events > 0, || "the fleet sink recorded no telemetry".to_owned());
    Ok(rep)
}

/// One scheduler entered in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contender {
    Daris,
    DarisHpa,
    DarisAdaptive,
    GlobalEdf,
    PriorityOnly,
    Fifo,
    Batching,
    Gslice,
    SingleTenant,
}

const CONTENDERS: [Contender; 9] = [
    Contender::Daris,
    Contender::DarisHpa,
    Contender::DarisAdaptive,
    Contender::GlobalEdf,
    Contender::PriorityOnly,
    Contender::Fifo,
    Contender::Batching,
    Contender::Gslice,
    Contender::SingleTenant,
];

impl Contender {
    fn is_daris(self) -> bool {
        matches!(self, Contender::Daris | Contender::DarisHpa | Contender::DarisAdaptive)
    }

    /// The cluster config of this contender's fleet.
    fn config(self) -> ClusterConfig {
        ClusterConfig {
            strategy: PlacementStrategy::GreedyBalance,
            hp_admission: self == Contender::DarisHpa,
            adaptive_hpa: (self == Contender::DarisAdaptive).then(LoadDetectorConfig::default),
            ..ClusterConfig::default()
        }
    }

    /// Builds one device's baseline scheduler.
    fn baseline(self, slot: &DeviceSlot<'_>) -> Result<BaselineScheduler, CoreError> {
        let gpu = slot.spec.gpu.clone();
        let reference = slot.reference.clone();
        match self {
            Contender::Daris | Contender::DarisHpa | Contender::DarisAdaptive => {
                Err(CoreError::InvalidConfig("DARIS contenders are not baselines".into()))
            }
            Contender::GlobalEdf => GlobalEdfServer::new(GRID_PARALLELISM)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset)
                .map_err(CoreError::from),
            Contender::PriorityOnly => PriorityOnlyServer::new(GRID_PARALLELISM)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset)
                .map_err(CoreError::from),
            Contender::Fifo => FifoMultiStreamServer::new(GRID_PARALLELISM)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset)
                .map_err(CoreError::from),
            Contender::Batching => BatchingServer::new()
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset)
                .map_err(CoreError::from),
            Contender::Gslice => GsliceServer::new(2)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset)
                .map_err(CoreError::from),
            Contender::SingleTenant => SingleTenantServer::with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset)
                .map_err(CoreError::from),
        }
    }
}

/// The grid's four scenarios, each seeded per cell.
fn scenario_spec(scenario: usize, seed: u64, horizon: SimTime) -> RunSpec {
    match scenario {
        0 => RunSpec::periodic(),
        1 => RunSpec::generated(GenSpec::Bursty(BurstyConfig { seed, ..BurstyConfig::default() })),
        2 => {
            RunSpec::generated(GenSpec::Diurnal(DiurnalConfig { seed, ..DiurnalConfig::default() }))
        }
        _ => RunSpec::generated(GenSpec::Correlated(CorrelatedConfig {
            seed,
            ..CorrelatedConfig::default()
        })),
    }
    .until(horizon)
}

/// Releases `spec` offers over `taskset`, counted from the workload itself.
fn offered_releases(spec: &RunSpec, taskset: &TaskSet, horizon: SimTime) -> u64 {
    let count = match spec.workload() {
        daris_core::Workload::Generated(generator) => generator.stream(taskset, horizon).count(),
        _ => ArrivalStream::new(taskset, horizon).count(),
    };
    count as u64
}

fn shootout_grid(seed: u64, recorder: Option<&Recorder>) -> Result<Rep, String> {
    let horizon = SimTime::from_millis(GRID_HORIZON_MS);
    let mut rep = Rep::default();
    let mut cell = 0u64;
    for devices in GRID_FLEETS {
        let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, devices as u32);
        let fleet = || {
            ClusterSpec::homogeneous(
                devices,
                GpuSpec::rtx_2080_ti(),
                GpuPartition::mps(GRID_PARALLELISM, f64::from(GRID_PARALLELISM)),
            )
        };
        for scenario in 0..4 {
            let spec = scenario_spec(scenario, derive_seed(seed, 100 + cell), horizon);
            let offered = offered_releases(&spec, &taskset, horizon);
            for contender in CONTENDERS {
                cell += 1;
                let config = profiled(contender.config(), recorder);
                let profiler = config.profiler.clone();
                let (construct_ns, run_ns) = match (recorder, contender.is_daris()) {
                    (None, true) => run_fleet(
                        &mut rep,
                        None,
                        || ClusterDispatcher::new(&taskset, fleet(), config),
                        &spec,
                        offered,
                    )?,
                    (None, false) => run_fleet(
                        &mut rep,
                        None,
                        || {
                            ClusterDispatcher::with_factory(&taskset, fleet(), config, |slot| {
                                contender.baseline(&slot)
                            })
                        },
                        &spec,
                        offered,
                    )?,
                    (Some(r), true) => run_fleet(
                        &mut rep,
                        recorder,
                        || construct_daris(&taskset, fleet(), config, r),
                        &spec,
                        offered,
                    )?,
                    (Some(r), false) => run_fleet(
                        &mut rep,
                        recorder,
                        || {
                            ClusterDispatcher::with_factory(&taskset, fleet(), config, |slot| {
                                r.time(Layer::Setup, Op::Build, || contender.baseline(&slot))
                                    .map(|s| TracedScheduler::new(s, Layer::Baselines, r.clone()))
                            })
                        },
                        &spec,
                        offered,
                    )?,
                };
                add_profile(&mut rep, profiler.as_ref(), 1);
                rep.setup_ns += construct_ns;
                // Grid users pay construction for every cell: it is part of
                // the grid's run time.
                rep.run_ns += construct_ns + run_ns;
                rep.sim_ms += horizon.as_millis_f64();
                rep.device_sim_s += devices as f64 * horizon.as_secs_f64();
            }
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
