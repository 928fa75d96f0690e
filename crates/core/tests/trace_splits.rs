//! Property test for the trace-driven scheduler path: replaying a trace
//! through randomly chosen `run_span` splits never changes the outcome. For
//! every generator shape *and* for jittered recordings, whose tasks release
//! indices out of time order, driving the replay in arbitrary
//! `advance_to`/`run_span` pieces is byte-identical to one uninterrupted
//! replay.

use daris_core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris_gpu::{SimDuration, SimTime, XorShiftRng};
use daris_models::DnnKind;
use daris_workload::{
    ArrivalStream, BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, ReleaseJitter, TaskSet,
    Trace,
};
use proptest::prelude::*;

const HORIZON_MS: u64 = 120;

/// A trace of the chosen shape: three seeded generators plus a jittered
/// periodic recording (the one shape whose indices run out of time order).
fn trace_of(kind: usize, seed: u64, taskset: &TaskSet, horizon: SimTime) -> Trace {
    match kind % 4 {
        0 => {
            GenSpec::Bursty(BurstyConfig { seed, ..Default::default() }).generate(taskset, horizon)
        }
        1 => GenSpec::Diurnal(DiurnalConfig { seed, ..Default::default() })
            .generate(taskset, horizon),
        2 => GenSpec::Correlated(CorrelatedConfig { seed, ..Default::default() })
            .generate(taskset, horizon),
        _ => {
            let jitter =
                ReleaseJitter::Uniform { max: SimDuration::from_millis(HORIZON_MS / 2), seed };
            Trace::record(&mut ArrivalStream::with_jitter(taskset, horizon, jitter), horizon)
                .expect("bounded-jitter recordings are valid")
        }
    }
}

/// Whether some task releases a lower index after a higher one.
fn reorders_indices(trace: &Trace) -> bool {
    let mut highest = std::collections::BTreeMap::new();
    trace.events().iter().any(|ev| {
        let seen = highest.entry(ev.task).or_insert(ev.release_index);
        let reordered = ev.release_index < *seen;
        *seen = (*seen).max(ev.release_index);
        reordered
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random `advance_to`/`run_span` splits never change the completions of
    /// a trace replay.
    #[test]
    fn trace_replay_is_invariant_under_random_splits(
        seed in 0u64..1_000_000,
        kind in 0usize..4,
        n_splits in 1usize..6,
    ) {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(HORIZON_MS);
        let trace = trace_of(kind, seed, &taskset, horizon);
        prop_assert!(!trace.is_empty());
        if kind % 4 == 3 {
            prop_assert!(reorders_indices(&trace),
                "wide jitter must release some task's indices out of time order");
        }
        let config = DarisConfig::new(GpuPartition::mps(4, 4.0));

        let mut reference = DarisScheduler::new(&taskset, config.clone()).expect("builds");
        let expected = reference.run(&RunSpec::replay(trace.clone())).expect("trace binds to its set");

        // Drive the same replay in random pieces.
        let mut rng = XorShiftRng::new(seed ^ 0x5711);
        let mut splits: Vec<SimTime> = (0..n_splits)
            .map(|_| SimTime::from_micros(rng.next_below(HORIZON_MS * 1_000)))
            .collect();
        splits.sort_unstable();
        splits.push(horizon);

        let mut split_run = DarisScheduler::new(&taskset, config).expect("builds");
        let mut player = ArrivalStream::replay(&taskset, &trace).expect("binds");
        let mut rejected = Vec::new();
        for until in splits {
            split_run.run_span(&mut player, until, &mut rejected);
        }
        for job in &rejected {
            split_run.reject_job(job);
        }
        let actual = split_run.finish(horizon);
        prop_assert_eq!(actual.summary, expected.summary,
            "split replay diverged (kind {}, seed {seed})", kind % 4);
        prop_assert_eq!(split_run.events_processed(), reference.events_processed());
    }
}
