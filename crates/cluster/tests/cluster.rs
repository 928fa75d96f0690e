//! Cluster invariants, end to end:
//!
//! * placement never exceeds a device's utilization capacity or memory
//!   budget, and every task is either placed or explicitly rejected
//!   (property tests over random task sets and fleets);
//! * a single-device cluster reproduces the *exact* `ExperimentSummary` of
//!   the single-GPU path for every workload shape;
//! * aggregate throughput grows monotonically from 1 to 4 homogeneous
//!   devices on a fixed oversized task set while high-priority deadline
//!   protection holds fleet-wide;
//! * every released job is accounted exactly once, no matter how often it
//!   is retried, migrated, drained or handed back to its source device;
//! * parallel device stepping is byte-identical to serial stepping: the same
//!   run at any `threads` count produces the same `ClusterOutcome` (a
//!   property test over random task sets and fleets, plus a repeated-run
//!   hash check on an 8-device heterogeneous scenario).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use daris_cluster::{
    place, utilization_estimates, AutoscaleConfig, ClusterConfig, ClusterDispatcher, ClusterError,
    ClusterOutcome, ClusterSpec, DeviceSpec, PlacementStrategy,
};
use daris_core::{
    CoreError, DarisConfig, DarisScheduler, ExperimentOutcome, GpuPartition, RunSpec, Scheduler,
};
use daris_gpu::{GpuSpec, SimDuration, SimTime, XorShiftRng};
use daris_models::DnnKind;
use daris_telemetry::{EventKind, MemorySink, SinkHandle};
use daris_workload::{
    ArrivalPlan, ArrivalStream, BurstyConfig, CorrelatedConfig, GenSpec, Job, JobId, Priority,
    ReleaseJitter, TaskId, TaskSet, TaskSetBuilder, TaskSpec,
};
use proptest::prelude::*;

mod common;
use common::{horizon_capped_ms, outcome_hash};

fn reference() -> GpuSpec {
    GpuSpec::rtx_2080_ti()
}

/// Deterministic random task set: up to `n_tasks` tasks over the three
/// Table II model kinds with varied rates, priorities and batch sizes.
fn random_taskset(seed: u64, n_tasks: usize) -> TaskSet {
    let mut rng = XorShiftRng::new(seed);
    let kinds = [DnnKind::ResNet18, DnnKind::UNet, DnnKind::InceptionV3];
    let mut builder = TaskSetBuilder::new();
    for _ in 0..n_tasks.max(1) {
        let kind = kinds[(rng.next_u64() % 3) as usize];
        let jps = 5.0 + rng.uniform(0.0, 35.0);
        let priority = if rng.next_u64() % 3 == 0 { Priority::High } else { Priority::Low };
        builder = builder.add_tasks(kind, 1, jps, priority);
    }
    builder.build()
}

/// Deterministic random fleet of 1–4 devices drawn from the shipped specs.
fn random_fleet(seed: u64, n_devices: usize) -> ClusterSpec {
    let mut rng = XorShiftRng::new(seed ^ 0x000f_1ee7);
    let mut fleet = ClusterSpec::new();
    for i in 0..n_devices.max(1) {
        let (gpu, partition) = match rng.next_u64() % 4 {
            0 => (GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0)),
            1 => (GpuSpec::a100(), GpuPartition::mps(8, 8.0)),
            2 => (GpuSpec::h100(), GpuPartition::mps(10, 10.0)),
            _ => (GpuSpec::orin(), GpuPartition::str_streams(4)),
        };
        fleet = fleet.with_device(DeviceSpec::new(format!("d{i}"), gpu, partition));
    }
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Placement never exceeds any device's utilization capacity or memory
    /// budget, and partitions the tasks into placed-exactly-once ∪ rejected.
    #[test]
    fn placement_invariants(seed in 0u64..1_000_000, n_tasks in 1usize..50, n_devices in 1usize..5) {
        let taskset = random_taskset(seed, n_tasks);
        let fleet = random_fleet(seed, n_devices);
        let strategy = if seed % 2 == 0 {
            PlacementStrategy::FirstFitDecreasing
        } else {
            PlacementStrategy::GreedyBalance
        };
        let placement = place(&taskset, &fleet, strategy, &reference());
        let utils = utilization_estimates(&taskset, &reference());

        // Every task is placed exactly once or explicitly rejected.
        let rejected: BTreeSet<usize> = placement.rejected.iter().map(|id| id.index()).collect();
        prop_assert_eq!(placement.placed_count() + rejected.len(), taskset.len());
        let mut seen = BTreeSet::new();
        for (i, device) in placement.device_of.iter().enumerate() {
            match device {
                Some(d) => {
                    prop_assert!(*d < fleet.len());
                    prop_assert!(!rejected.contains(&i), "task {i} both placed and rejected");
                    prop_assert!(placement.plans[*d].task_indices.contains(&i));
                    prop_assert!(seen.insert(i));
                }
                None => prop_assert!(rejected.contains(&i), "task {i} neither placed nor rejected"),
            }
        }

        // Per-device quota and memory accounting, recomputed independently.
        for plan in &placement.plans {
            let device = &fleet.devices()[plan.device];
            let packed: f64 = plan.task_indices.iter().map(|&i| utils[i]).sum();
            let capacity = device.utilization_capacity(reference().sm_count);
            prop_assert!(packed <= capacity + 1e-6,
                "device {} packed {packed} over capacity {capacity}", device.name);
            prop_assert!((plan.utilization - packed).abs() < 1e-6);
            prop_assert!(plan.memory_bytes <= device.memory_budget());
            // Local sets preserve the global relative order.
            let mut sorted = plan.task_indices.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &plan.task_indices);
            prop_assert_eq!(plan.taskset.len(), plan.task_indices.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel device stepping is byte-identical to the serial path: fanning
    /// the per-device spans out to any number of worker threads never changes
    /// any per-device summary, any aggregate count, or the retry/migration
    /// tallies, flat or cut into racks. This is the contract the
    /// deterministic device-order join guarantees. In debug builds every
    /// retry selection of these runs is also checked against a fresh load
    /// rescan.
    #[test]
    fn parallel_stepping_is_byte_identical_to_serial(
        seed in 0u64..1_000_000,
        n_tasks in 4usize..40,
        n_devices in 2usize..5,
        threads in 2usize..9,
        racks in 1usize..4,
    ) {
        let taskset = random_taskset(seed, n_tasks);
        let fleet = random_fleet(seed, n_devices);
        let horizon = SimTime::from_millis(120);
        let run = |threads: usize| {
            let config = ClusterConfig { threads, racks, ..Default::default() };
            let mut dispatcher =
                ClusterDispatcher::new(&taskset, fleet.clone(), config).expect("dispatcher builds");
            dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs")
        };
        let serial = run(1);
        let parallel = run(threads);
        prop_assert_eq!(&serial.summary, &parallel.summary);
        prop_assert_eq!(serial.devices.len(), parallel.devices.len());
        for (s, p) in serial.devices.iter().zip(&parallel.devices) {
            prop_assert_eq!(&s.name, &p.name);
            prop_assert_eq!(&s.outcome.summary, &p.outcome.summary,
                "device {} diverged between threads=1 and threads={}", s.name, threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With every cross-device interaction disabled (no cluster admission,
    /// no migration), devices never observe each other — so the rack
    /// partitioning must be entirely invisible: any rack count produces the
    /// same per-device summaries as flat dispatch.
    #[test]
    fn rack_partitioning_is_invisible_without_interaction(
        seed in 0u64..1_000_000,
        n_tasks in 4usize..40,
        n_devices in 2usize..5,
        racks in 2usize..5,
    ) {
        let taskset = random_taskset(seed, n_tasks);
        let fleet = random_fleet(seed, n_devices);
        let horizon = SimTime::from_millis(120);
        let run = |racks: usize| {
            let config = ClusterConfig {
                cluster_admission: false,
                migration: false,
                racks,
                ..Default::default()
            };
            let mut dispatcher =
                ClusterDispatcher::new(&taskset, fleet.clone(), config).expect("dispatcher builds");
            dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs")
        };
        let flat = run(1);
        let racked = run(racks);
        prop_assert_eq!(&flat.summary.total, &racked.summary.total);
        prop_assert_eq!(&flat.summary.high, &racked.summary.high);
        prop_assert_eq!(&flat.summary.low, &racked.summary.low);
        for (a, b) in flat.devices.iter().zip(&racked.devices) {
            prop_assert_eq!(&a.outcome.summary, &b.outcome.summary,
                "device {} diverged between racks=1 and racks={}", a.name, racks);
        }
    }
}

#[test]
fn cross_rack_rebalance_moves_work_over_rack_lines() {
    // One-starved-device racks: with each rack a single device, rack-local
    // migration has nowhere to move work, so only the cross-rack epoch phase
    // can relieve the starved rack — and it must.
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(300);
    let fleet = ClusterSpec::new()
        .with_device(DeviceSpec::new("tiny", GpuSpec::rtx_2080_ti(), GpuPartition::str_streams(1)))
        .with_device(DeviceSpec::new(
            "big",
            GpuSpec::rtx_2080_ti().with_seed(0x5eed_da14),
            GpuPartition::mps(6, 6.0),
        ));
    let config = ClusterConfig {
        strategy: PlacementStrategy::FirstFitDecreasing,
        cluster_admission: false,
        racks: 2,
        ..Default::default()
    };
    let mut dispatcher =
        ClusterDispatcher::new(&taskset, fleet, config).expect("dispatcher builds");
    let outcome = dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs");
    assert_eq!(outcome.summary.racks, 2);
    assert_eq!(outcome.summary.migrations, 0, "one-device racks cannot migrate locally");
    assert!(
        outcome.summary.cross_rack_migrations > 0,
        "the epoch phase must move work over the rack line: {:?}",
        outcome.summary
    );
}

#[test]
fn repeated_hetero_runs_hash_identically_across_thread_counts() {
    // The satellite determinism check: the same 8-device heterogeneous
    // scenario, run 5 times at each thread count, must produce bit-identical
    // `ClusterSummary`s — one hash over the Debug form catches any drift in
    // counts, rates, or float accumulation order.
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let fleet = ClusterSpec::heterogeneous_mix(8);
    let horizon = SimTime::from_millis(horizon_capped_ms(300));
    let hash_of = |threads: usize| {
        let config = ClusterConfig { threads, ..Default::default() };
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, fleet.clone(), config).expect("dispatcher builds");
        let outcome = dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs");
        assert!(outcome.summary.total.completed > 0, "scenario must do real work");
        outcome_hash(&outcome)
    };
    let reference = hash_of(1);
    for threads in [1usize, 2, 8] {
        for repeat in 0..5 {
            assert_eq!(
                hash_of(threads),
                reference,
                "run {repeat} at {threads} threads diverged from the serial reference"
            );
        }
    }
}

#[test]
fn a_zero_mret_window_is_a_scheduler_error_in_a_fleet() {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let fleet = ClusterSpec::homogeneous(2, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let config = ClusterConfig { window_size: 0, ..ClusterConfig::default() };
    let err = match ClusterDispatcher::new(&taskset, fleet, config) {
        Ok(_) => panic!("a zero MRET window must be rejected"),
        Err(err) => err,
    };
    assert!(
        matches!(
            &err,
            ClusterError::Scheduler { source: CoreError::InvalidConfig(reason), .. }
                if reason.contains("window size")
        ),
        "wrong error: {err}"
    );
}

#[test]
fn single_device_cluster_reproduces_the_single_gpu_path_exactly() {
    // Every workload shape, bare and on a 1-device cluster: both layers
    // shard the spec the same way, so the summaries are byte-identical —
    // including a replay truncated before its trace horizon.
    let horizon = SimTime::from_millis(200);
    let partition = GpuPartition::mps(6, 6.0);
    let unet = TaskSet::table2(DnnKind::UNet);
    let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(2), seed: 42 };
    let bursty = GenSpec::Bursty(BurstyConfig::default());
    let recorded = GenSpec::Correlated(CorrelatedConfig::default()).generate(&unet, horizon);
    let cases = [
        ("periodic", unet.clone(), RunSpec::periodic().until(horizon)),
        ("periodic mixed", TaskSet::mixed(), RunSpec::periodic().until(horizon)),
        ("jittered", unet.clone(), RunSpec::jittered(jitter).until(horizon)),
        ("generated", TaskSet::mixed(), RunSpec::generated(bursty).until(horizon)),
        ("replay", unet.clone(), RunSpec::replay(recorded.clone())),
        ("truncated replay", unet, RunSpec::replay(recorded).until(SimTime::from_millis(120))),
    ];
    for (label, taskset, spec) in cases {
        let mut single = DarisScheduler::new(&taskset, DarisConfig::new(partition))
            .expect("single-GPU scheduler builds");
        let expected = single.run(&spec).expect("spec runs");

        let fleet = ClusterSpec::homogeneous(1, GpuSpec::rtx_2080_ti(), partition);
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet, ClusterConfig::default())
            .expect("dispatcher builds");
        assert!(dispatcher.placement().rejected.is_empty(), "{label}: the set fits one device");
        let outcome = dispatcher.run(&spec).expect("spec runs");

        assert!(expected.summary.total.completed > 0, "{label}: the run must do real work");
        assert_eq!(
            outcome.devices[0].outcome.summary, expected.summary,
            "{label}: 1-device cluster must be byte-identical to the single-GPU path"
        );
        assert_eq!(outcome.summary.total, expected.summary.total, "{label}");
        assert_eq!(outcome.summary.high, expected.summary.high, "{label}");
        assert_eq!(outcome.summary.migrations, 0, "{label}");
        assert_eq!(outcome.summary.cluster_admissions, 0, "{label}");
    }
}

#[test]
fn single_device_cluster_reproduces_the_single_gpu_jittered_path_exactly() {
    // The jittered analogue of the test above: with the per-task delay
    // streams keyed by *global* task index, a 1-device cluster draws exactly
    // the delays the single-GPU path draws, so the summaries stay
    // byte-identical — the property the old blanket rejection claimed was
    // impossible.
    let horizon = SimTime::from_millis(200);
    let partition = GpuPartition::mps(6, 6.0);
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(2), seed };
        let taskset = TaskSet::table2(DnnKind::UNet);
        let mut single = DarisScheduler::new(&taskset, DarisConfig::new(partition))
            .expect("single-GPU scheduler builds");
        let expected =
            single.run(&RunSpec::jittered(jitter).until(horizon)).expect("single-GPU run");

        let fleet = ClusterSpec::homogeneous(1, GpuSpec::rtx_2080_ti(), partition);
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet, ClusterConfig::default())
            .expect("dispatcher builds");
        assert!(dispatcher.placement().rejected.is_empty(), "the set fits one device");
        let outcome = dispatcher.run(&RunSpec::jittered(jitter).until(horizon)).expect("spec runs");

        assert_eq!(
            outcome.devices[0].outcome.summary, expected.summary,
            "seed {seed}: 1-device jittered cluster diverged from the single-GPU path"
        );
    }
}

#[test]
fn aggregate_throughput_scales_monotonically_to_four_devices() {
    // A fixed oversized workload: 4 devices' worth of the paper's standing
    // 150 % ResNet18 overload.
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
    let horizon = SimTime::from_millis(250);
    let partition = GpuPartition::mps(6, 6.0);

    // Reference: plain single-device DARIS on the same oversized set.
    let mut single = DarisScheduler::new(&taskset, DarisConfig::new(partition))
        .expect("single-GPU scheduler builds");
    let single_outcome = single.run(&RunSpec::periodic().until(horizon)).expect("spec runs");

    let mut jps = Vec::new();
    let mut hp_dmr = Vec::new();
    for n in [1usize, 2, 4] {
        let fleet = ClusterSpec::homogeneous(n, GpuSpec::rtx_2080_ti(), partition);
        // The scaling experiment's strategy: greedy balance spreads the HP
        // tasks across the fleet (first-fit would consolidate them).
        let config =
            ClusterConfig { strategy: PlacementStrategy::GreedyBalance, ..Default::default() };
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, fleet, config).expect("dispatcher builds");
        let outcome = dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs");
        assert_eq!(outcome.summary.devices, n);
        jps.push(outcome.summary.throughput_jps);
        hp_dmr.push(outcome.summary.high.deadline_miss_rate);
    }

    assert!(
        jps[0] < jps[1] && jps[1] < jps[2],
        "aggregate JPS must grow monotonically 1→2→4 devices: {jps:?}"
    );
    assert!(jps[2] > 2.5 * jps[0], "4 devices should deliver well over 2.5x one device: {jps:?}");
    for (n, dmr) in [1, 2, 4].into_iter().zip(&hp_dmr) {
        assert!(
            *dmr <= single_outcome.summary.high.deadline_miss_rate + 1e-9,
            "fleet of {n}: HP DMR {dmr} worse than single-device \
             {}",
            single_outcome.summary.high.deadline_miss_rate
        );
    }
    // At 4 balanced devices every device carries a Table II-like share, so
    // the paper's HP deadline protection holds at fleet scale.
    assert!(hp_dmr[2] < 0.05, "HP DMR at 4 balanced devices: {}", hp_dmr[2]);
}

/// The tiny-plus-big fleet the hand-off tests share: a single-stream RTX
/// 2080 Ti that backs up next to a 6-context MPS one with room to spare.
fn starved_and_idle_pair() -> ClusterSpec {
    ClusterSpec::new()
        .with_device(DeviceSpec::new("small", GpuSpec::rtx_2080_ti(), GpuPartition::str_streams(1)))
        .with_device(DeviceSpec::new(
            "big",
            GpuSpec::rtx_2080_ti().with_seed(0x5eed_da13),
            GpuPartition::mps(6, 6.0),
        ))
}

/// Asserts exactly-once accounting of a periodic run: the fleet released
/// every job of the arrival plan, each released job is completed, rejected
/// or still outstanding, and the per-device counts sum to the fleet's.
fn assert_conserved(label: &str, taskset: &TaskSet, horizon: SimTime, outcome: &ClusterOutcome) {
    assert_eq!(outcome.summary.placement_rejected_tasks, 0, "{label}: the set must be placed");
    let expected_releases = ArrivalPlan::generate(taskset, horizon, ReleaseJitter::None).len();
    let total = &outcome.summary.total;
    assert_eq!(total.released, expected_releases, "{label}: released jobs must be conserved");
    let outstanding = total.accepted - total.completed;
    assert_eq!(total.completed + total.rejected + outstanding, total.released, "{label}");
    let sum = |field: fn(&daris_metrics::PrioritySummary) -> usize| -> usize {
        outcome.devices.iter().map(|d| field(&d.outcome.summary.total)).sum()
    };
    assert_eq!(sum(|t| t.released), total.released, "{label}: no job on two devices");
    assert_eq!(sum(|t| t.accepted), total.accepted, "{label}");
    assert_eq!(sum(|t| t.rejected), total.rejected, "{label}");
    assert_eq!(sum(|t| t.completed), total.completed, "{label}");
}

#[test]
fn every_job_is_accounted_exactly_once_across_the_fleet() {
    // One case per hand-off path. Each run returns how often its path
    // fired, so a case that stops exercising its path fails instead of
    // passing vacuously.
    type Case = (&'static str, TaskSet, fn(&TaskSet, SimTime) -> (ClusterOutcome, usize));
    let cases: [Case; 4] = [
        ("retry and rack-local migration", TaskSet::table2(DnnKind::ResNet18), |t, h| {
            let config =
                ClusterConfig { strategy: PlacementStrategy::GreedyBalance, ..Default::default() };
            let outcome = ClusterDispatcher::new(t, starved_and_idle_pair(), config)
                .expect("dispatcher builds")
                .run(&RunSpec::periodic().until(h))
                .expect("spec runs");
            let fired = outcome.summary.cluster_admissions.min(outcome.summary.migrations);
            (outcome, fired)
        }),
        ("cross-rack migration", TaskSet::table2(DnnKind::ResNet18), |t, h| {
            let config = ClusterConfig {
                strategy: PlacementStrategy::FirstFitDecreasing,
                racks: 2,
                ..Default::default()
            };
            let outcome = ClusterDispatcher::new(t, starved_and_idle_pair(), config)
                .expect("dispatcher builds")
                .run(&RunSpec::periodic().until(h))
                .expect("spec runs");
            let fired = outcome.summary.cross_rack_migrations;
            (outcome, fired)
        }),
        ("autoscale drain", TaskSet::table2_scaled(DnnKind::ResNet18, 2), |t, h| {
            let sink = MemorySink::unbounded();
            let fleet =
                ClusterSpec::homogeneous(3, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0))
                    .with_device(DeviceSpec::new(
                        "small",
                        GpuSpec::rtx_2080_ti(),
                        GpuPartition::str_streams(1),
                    ));
            let config = ClusterConfig {
                strategy: PlacementStrategy::GreedyBalance,
                autoscale: Some(AutoscaleConfig {
                    min_devices: 1,
                    scale_up_ratio: 0.99,
                    scale_down_ratio: 0.9,
                    epoch: 1,
                }),
                sink: Some(SinkHandle::new(sink.clone())),
                ..Default::default()
            };
            let outcome = ClusterDispatcher::new(t, fleet, config)
                .expect("dispatcher builds")
                .run(&RunSpec::periodic().until(h))
                .expect("spec runs");
            let moved = sink
                .events()
                .iter()
                .map(|e| match e.kind {
                    EventKind::DeviceDrained { moved, .. } => moved as usize,
                    _ => 0,
                })
                .sum();
            (outcome, moved)
        }),
        ("FIFO fleet migration", TaskSet::table2(DnnKind::ResNet18), |t, h| {
            let config =
                ClusterConfig { strategy: PlacementStrategy::GreedyBalance, ..Default::default() };
            let fleet =
                ClusterSpec::homogeneous(2, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
            let outcome = ClusterDispatcher::with_factory(t, fleet, config, |slot| {
                let streams = if slot.index == 0 { 1 } else { 4 };
                daris_baselines::FifoMultiStreamServer::new(streams)
                    .with_gpu(slot.spec.gpu.clone())
                    .scheduler(slot.taskset)
                    .map_err(daris_core::CoreError::from)
            })
            .expect("FIFO fleet builds")
            .run(&RunSpec::periodic().until(h))
            .expect("spec runs");
            let fired = outcome.summary.migrations;
            (outcome, fired)
        }),
    ];
    let horizon = SimTime::from_millis(300);
    for (label, taskset, run) in cases {
        let (outcome, fired) = run(&taskset, horizon);
        assert!(fired > 0, "{label}: the hand-off path never fired: {:?}", outcome.summary);
        assert_conserved(label, &taskset, horizon, &outcome);
    }
}

/// DARIS behind a double that answers every migration probe with yes but
/// refuses every guest release, so each migration's hand-over is refused
/// after the job was withdrawn from its source. Counts the withdrawals.
#[derive(Debug)]
struct RefusesGuests {
    inner: DarisScheduler,
    native_tasks: usize,
    withdrawn: Arc<AtomicUsize>,
}

impl Scheduler for RefusesGuests {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn next_event_time(&self) -> Option<SimTime> {
        self.inner.next_event_time()
    }
    fn advance_to(&mut self, target: SimTime) {
        self.inner.advance_to(target);
    }
    fn dispatch_ready(&mut self) {
        self.inner.dispatch_ready();
    }
    fn try_release_job(&mut self, job: Job) -> bool {
        job.id.task.index() < self.native_tasks && self.inner.try_release_job(job)
    }
    fn reject_job(&mut self, job: &Job) {
        self.inner.reject_job(job);
    }
    fn would_admit(&self, _task: TaskId, _priority: Priority) -> bool {
        true
    }
    fn adopt_task(&mut self, task: &TaskSpec) -> daris_core::Result<TaskId> {
        self.inner.adopt_task(task)
    }
    fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job> {
        let withdrawn = self.inner.withdraw_queued_job(job);
        if withdrawn.is_some() {
            self.withdrawn.fetch_add(1, Ordering::Relaxed);
        }
        withdrawn
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
}

#[test]
fn a_refused_migration_returns_the_job_to_its_source() {
    // The receiver passes the migration probe and then refuses the job, so
    // every withdrawn job must be re-admitted on its source or charged
    // there — never lost, never counted twice, never counted as a move.
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(300);
    let withdrawn = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&withdrawn);
    let config =
        ClusterConfig { strategy: PlacementStrategy::FirstFitDecreasing, ..Default::default() };
    let mut dispatcher =
        ClusterDispatcher::with_factory(&taskset, starved_and_idle_pair(), config, move |slot| {
            let device_config = DarisConfig::new(slot.spec.partition)
                .with_gpu(slot.spec.gpu.clone())
                .with_reference_calibration(slot.reference.clone());
            Ok(RefusesGuests {
                inner: DarisScheduler::new(slot.taskset, device_config)?,
                native_tasks: slot.taskset.len(),
                withdrawn: Arc::clone(&counter),
            })
        })
        .expect("dispatcher builds");
    let outcome = dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs");
    assert!(withdrawn.load(Ordering::Relaxed) > 0, "no migration withdrew a job");
    assert_eq!(outcome.summary.migrations, 0, "a refused hand-over is not a migration");
    assert_eq!(outcome.summary.cluster_admissions, 0, "every guest release is refused");
    assert_conserved("refused migration", &taskset, horizon, &outcome);
}

#[test]
fn jittered_fleet_charges_only_releases_before_the_horizon() {
    // Most of this set cannot be placed on one device, so most of its jobs
    // are charged as placement rejections. A jittered release that lands at
    // or past the horizon is never released — not on a device and not as
    // an unplaced rejection — so the fleet's released count must equal the
    // global jittered stream's releases before the horizon.
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
    let horizon = SimTime::from_millis(100);
    let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(8), seed: 3 };
    let fleet = ClusterSpec::homogeneous(1, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let mut dispatcher = ClusterDispatcher::new(&taskset, fleet, ClusterConfig::default())
        .expect("dispatcher builds");
    assert!(!dispatcher.placement().rejected.is_empty(), "the set must overflow one device");
    let outcome = dispatcher.run(&RunSpec::jittered(jitter).until(horizon)).expect("spec runs");

    let offered = ArrivalStream::with_jitter(&taskset, horizon, jitter)
        .filter(|job| job.release < horizon)
        .count();
    let total = &outcome.summary.total;
    assert_eq!(total.released, offered, "released jobs must match the workload's releases");
    let outstanding = total.accepted - total.completed;
    assert_eq!(total.completed + total.rejected + outstanding, total.released);
}

#[test]
fn overloaded_device_offloads_to_an_idle_one() {
    // One starved device (a single stream) next to a large idle one: the
    // dispatcher must move work over — by cluster-wide admission of jobs the
    // small device cannot take, by migrating its queued jobs, or both.
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(300);
    let fleet = ClusterSpec::new()
        .with_device(DeviceSpec::new("tiny", GpuSpec::rtx_2080_ti(), GpuPartition::str_streams(1)))
        .with_device(DeviceSpec::new(
            "big",
            GpuSpec::rtx_2080_ti().with_seed(0x5eed_da14),
            GpuPartition::mps(6, 6.0),
        ));
    let config =
        ClusterConfig { strategy: PlacementStrategy::FirstFitDecreasing, ..Default::default() };
    let mut dispatcher =
        ClusterDispatcher::new(&taskset, fleet, config).expect("dispatcher builds");
    let outcome = dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs");
    assert!(
        outcome.summary.cluster_admissions + outcome.summary.migrations > 0,
        "no cross-device action on a starved+idle fleet: {:?}",
        outcome.summary
    );
    // With the fleet behind it, HP protection must hold.
    assert!(outcome.summary.high.deadline_miss_rate < 0.05);
}

#[test]
fn heterogeneous_fleet_orders_devices_by_hardware_class() {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
    let horizon = SimTime::from_millis(200);
    let config = ClusterConfig { strategy: PlacementStrategy::GreedyBalance, ..Default::default() };
    let mut dispatcher =
        ClusterDispatcher::new(&taskset, ClusterSpec::heterogeneous_demo(), config)
            .expect("dispatcher builds");
    let outcome = dispatcher.run(&RunSpec::periodic().until(horizon)).expect("spec runs");
    assert_eq!(outcome.summary.devices, 4);
    let jps_of = |name: &str| {
        outcome
            .devices
            .iter()
            .find(|d| d.name.starts_with(name))
            .map(|d| d.outcome.summary.throughput_jps)
            .expect("device present")
    };
    // Under a saturating load the H100 out-serves the 2080 Ti, which
    // out-serves the embedded Orin — device speed emerges from the
    // simulation rather than being calibrated away.
    assert!(jps_of("h100") > 1.2 * jps_of("rtx2080ti"), "H100 should clearly lead");
    assert!(jps_of("rtx2080ti") > jps_of("orin"), "the embedded part serves least");
    assert!(outcome.summary.throughput_jps > jps_of("rtx2080ti"));
}
