//! The differential suite behind `Scheduler::run(&RunSpec)`: a run built
//! from a spec (the workload's sharding step over one identity shard) is
//! byte-identical to handing the equivalent hand-built arrival source to
//! `Scheduler::run_with_source`, for every workload shape. Any digest drift
//! here means the spec path builds a different arrival stream than the
//! shape's own constructor.

use std::hash::{DefaultHasher, Hash, Hasher};

use daris_core::{
    DarisConfig, DarisScheduler, ExperimentOutcome, GpuPartition, RunSpec, Scheduler,
};
use daris_gpu::{SimDuration, SimTime};
use daris_models::DnnKind;
use daris_workload::{ArrivalStream, BurstyConfig, GenSpec, ReleaseJitter, TaskSet, Trace};

fn digest(outcome: &ExperimentOutcome) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{:?}", outcome.summary).hash(&mut hasher);
    outcome.config_label.hash(&mut hasher);
    hasher.finish()
}

fn scheduler(taskset: &TaskSet) -> DarisScheduler {
    DarisScheduler::new(taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)))
        .expect("valid configuration")
}

/// Drives a scheduler through the trait surface only — the exact generic
/// entry point the comparison harness uses.
fn run_via_trait<S: Scheduler>(scheduler: &mut S, spec: &RunSpec) -> ExperimentOutcome {
    scheduler.run(spec).expect("run spec is valid")
}

#[test]
fn periodic_run_via_trait_matches_direct_run_until() {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(300);
    let mut arrivals = ArrivalStream::new(&taskset, horizon);
    let direct = scheduler(&taskset).run_with_source(&mut arrivals, horizon);
    let via_trait = run_via_trait(&mut scheduler(&taskset), &RunSpec::periodic().until(horizon));
    assert_eq!(digest(&direct), digest(&via_trait), "trait path diverged on periodic arrivals");
}

#[test]
fn jittered_run_via_trait_matches_direct_source_loop() {
    let taskset = TaskSet::table2(DnnKind::UNet);
    let horizon = SimTime::from_millis(250);
    let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(2), seed: 42 };
    let mut arrivals = ArrivalStream::with_jitter(&taskset, horizon, jitter);
    let direct = scheduler(&taskset).run_with_source(&mut arrivals, horizon);
    let via_trait =
        run_via_trait(&mut scheduler(&taskset), &RunSpec::jittered(jitter).until(horizon));
    assert_eq!(digest(&direct), digest(&via_trait), "trait path diverged on jittered arrivals");
}

#[test]
fn generated_run_via_trait_matches_direct_source_loop() {
    let taskset = TaskSet::table2(DnnKind::InceptionV3);
    let horizon = SimTime::from_millis(250);
    let spec = GenSpec::Bursty(BurstyConfig::default());
    let mut stream = spec.stream(&taskset, horizon);
    let direct = scheduler(&taskset).run_with_source(&mut stream, horizon);
    let via_trait =
        run_via_trait(&mut scheduler(&taskset), &RunSpec::generated(spec).until(horizon));
    assert_eq!(digest(&direct), digest(&via_trait), "trait path diverged on generated arrivals");
}

#[test]
fn replay_run_via_trait_matches_direct_run_trace() {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let horizon = SimTime::from_millis(250);
    let mut source = ArrivalStream::new(&taskset, horizon);
    let trace = Trace::record(&mut source, horizon).expect("trace records");
    let mut player = ArrivalStream::replay(&taskset, &trace).expect("trace binds to its task set");
    let direct = scheduler(&taskset).run_with_source(&mut player, trace.horizon());
    let via_trait = run_via_trait(&mut scheduler(&taskset), &RunSpec::replay(trace));
    assert_eq!(digest(&direct), digest(&via_trait), "trait path diverged on trace replay");
}
