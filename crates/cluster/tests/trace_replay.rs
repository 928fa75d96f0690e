//! The trace-replay differential suite, end to end:
//!
//! * record→replay round trip is **byte-identical** — the same completions,
//!   metrics and event counts — on a single GPU and on an 8-device
//!   heterogeneous cluster, at 1, 2 and 8 worker threads, for every
//!   generator shape (bursty, diurnal, correlated) and for periodic and
//!   jittered recordings, the jittered one reordering a task's releases;
//! * the codec sits inside the loop: replaying `decode(encode(trace))`
//!   reproduces the same run as replaying the in-memory trace;
//! * placement-rejected (unplaced) tasks are charged identically by the
//!   live-generator and replay paths;
//! * replay on a fleet whose task set cannot resolve the trace fails loudly.

use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterError, ClusterSpec};
use daris_core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris_gpu::{SimDuration, SimTime};
use daris_models::DnnKind;
use daris_workload::{
    ArrivalStream, BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, ReleaseJitter, TaskSet,
    Trace, TraceError,
};

mod common;
use common::{horizon_capped_ms, outcome_hash};

fn shapes() -> [GenSpec; 3] {
    [
        GenSpec::Bursty(BurstyConfig { seed: 41, ..Default::default() }),
        GenSpec::Diurnal(DiurnalConfig { seed: 42, ..Default::default() }),
        GenSpec::Correlated(CorrelatedConfig { seed: 43, ..Default::default() }),
    ]
}

fn dispatcher(taskset: &TaskSet, fleet: &ClusterSpec, threads: usize) -> ClusterDispatcher {
    let config = ClusterConfig { threads, ..Default::default() };
    ClusterDispatcher::new(taskset, fleet.clone(), config).expect("dispatcher builds")
}

#[test]
fn generator_record_replay_is_byte_identical_on_a_hetero_8_device_fleet() {
    // The acceptance scenario: an 8-device a100/h100/orin fleet under each
    // generator; a live generator run and the replay of the generator's
    // recorded trace must hash identically, at every thread count, live
    // serial or parallel.
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let fleet = ClusterSpec::heterogeneous_mix(8);
    let horizon = SimTime::from_millis(horizon_capped_ms(250));
    for spec in shapes() {
        let live = dispatcher(&taskset, &fleet, 1)
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("spec runs");
        assert!(
            live.summary.total.completed > 0,
            "{}: the scenario must do real work",
            spec.label()
        );
        let reference = outcome_hash(&live);

        let trace = spec.generate(&taskset, horizon);
        assert_eq!(trace.horizon(), horizon);
        for threads in [1usize, 2, 8] {
            let replay = dispatcher(&taskset, &fleet, threads)
                .run(&RunSpec::replay(trace.clone()))
                .expect("global traces split cleanly along the placement");
            assert_eq!(
                outcome_hash(&replay),
                reference,
                "{} replay at {threads} threads diverged from the live run",
                spec.label()
            );
        }
        // A parallel live run matches too (live ≡ replay ≡ parallel).
        let live_par = dispatcher(&taskset, &fleet, 4)
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("spec runs");
        assert_eq!(outcome_hash(&live_par), reference, "{} parallel live run", spec.label());
    }
}

#[test]
fn encoded_traces_replay_the_same_cluster_run() {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 2);
    let fleet = ClusterSpec::heterogeneous_mix(4);
    let horizon = SimTime::from_millis(horizon_capped_ms(150));
    let spec = GenSpec::Bursty(BurstyConfig::default());
    let trace = spec.generate(&taskset, horizon);
    let decoded = Trace::decode(&trace.encode()).expect("codec round trip");
    assert_eq!(trace, decoded);
    let a = dispatcher(&taskset, &fleet, 1).run(&RunSpec::replay(trace.clone())).unwrap();
    let b = dispatcher(&taskset, &fleet, 2).run(&RunSpec::replay(decoded.clone())).unwrap();
    assert_eq!(outcome_hash(&a), outcome_hash(&b));
}

#[test]
fn periodic_recording_replays_the_periodic_cluster_run_exactly() {
    // Record the periodic plan's arrival sequence and replay it: the trace
    // path must reproduce the periodic run byte for byte, single GPU and
    // fleet. The jittered input delays releases by up to half the horizon,
    // past UNet's 41.7 ms period, so a task's release indices reorder in
    // time; the horizon stays at least 120 ms under any cap to keep that so.
    let taskset = TaskSet::table2(DnnKind::UNet);
    let horizon = SimTime::from_millis(horizon_capped_ms(200).max(120));
    let half = SimDuration::from_nanos(horizon.as_nanos() / 2);
    let jitter = ReleaseJitter::Uniform { max: half, seed: 7 };
    for (label, live_spec, mut recorded) in [
        ("periodic", RunSpec::periodic(), ArrivalStream::new(&taskset, horizon)),
        (
            "jittered",
            RunSpec::jittered(jitter),
            ArrivalStream::with_jitter(&taskset, horizon, jitter),
        ),
    ] {
        let live_spec = live_spec.until(horizon);
        let trace = Trace::record(&mut recorded, horizon).expect("recordings are valid");
        if label == "jittered" {
            let mut highest = std::collections::BTreeMap::new();
            let reordered = trace.events().iter().any(|ev| {
                let seen = highest.entry(ev.task).or_insert(ev.release_index);
                let lower = ev.release_index < *seen;
                *seen = (*seen).max(ev.release_index);
                lower
            });
            assert!(reordered, "jitter must release some task's indices out of time order");
        }

        // Single GPU.
        let partition = GpuPartition::mps(6, 6.0);
        let mut single = DarisScheduler::new(&taskset, DarisConfig::new(partition)).unwrap();
        let expected = single.run(&live_spec).expect("spec runs");
        let mut replayed = DarisScheduler::new(&taskset, DarisConfig::new(partition)).unwrap();
        let actual = replayed.run(&RunSpec::replay(trace.clone())).unwrap();
        assert_eq!(actual.summary, expected.summary, "{label} single-GPU replay");
        assert_eq!(replayed.events_processed(), single.events_processed(), "{label}");

        // 2-device fleet, serial and parallel replay.
        let fleet = ClusterSpec::homogeneous(2, daris_gpu::GpuSpec::rtx_2080_ti(), partition);
        let live = dispatcher(&taskset, &fleet, 1).run(&live_spec).expect("spec runs");
        for threads in [1usize, 2, 8] {
            let replay =
                dispatcher(&taskset, &fleet, threads).run(&RunSpec::replay(trace.clone())).unwrap();
            assert_eq!(
                outcome_hash(&replay),
                outcome_hash(&live),
                "{label} replay at {threads} threads"
            );
        }
    }
}

#[test]
fn unplaced_tasks_are_charged_identically_by_live_and_replay_paths() {
    // A deliberately tiny fleet: placement must reject tasks, and both
    // workload paths must account those releases the same way.
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
    let fleet =
        ClusterSpec::homogeneous(1, daris_gpu::GpuSpec::orin(), GpuPartition::str_streams(2));
    let horizon = SimTime::from_millis(horizon_capped_ms(120));
    let spec = GenSpec::Diurnal(DiurnalConfig::default());

    let mut live_d = dispatcher(&taskset, &fleet, 1);
    assert!(
        !live_d.placement().rejected.is_empty(),
        "the scenario must actually reject tasks at placement"
    );
    let live = live_d.run(&RunSpec::generated(spec).until(horizon)).expect("spec runs");
    assert!(live.summary.total.rejected > 0, "unplaced releases must be charged");

    let trace = spec.generate(&taskset, horizon);
    let replay = dispatcher(&taskset, &fleet, 1).run(&RunSpec::replay(trace.clone())).unwrap();
    assert_eq!(outcome_hash(&replay), outcome_hash(&live));
    assert_eq!(replay.summary.total.released, trace.len());
}

#[test]
fn replay_on_an_incompatible_task_set_fails_loudly() {
    let big = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(60);
    let trace = GenSpec::Bursty(BurstyConfig::default()).generate(&big, horizon);
    let small = TaskSet::table2(DnnKind::UNet);
    let fleet =
        ClusterSpec::homogeneous(2, daris_gpu::GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let err = dispatcher(&small, &fleet, 1).run(&RunSpec::replay(trace.clone()));
    assert!(matches!(err, Err(ClusterError::Trace(TraceError::UnknownTask { .. }))), "{err:?}");
}
