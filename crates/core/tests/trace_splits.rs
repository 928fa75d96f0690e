//! Property tests for the trace-driven scheduler path:
//!
//! * replaying a trace through randomly chosen `run_span` splits never
//!   changes the outcome — for every generator shape *and* for jittered
//!   recordings whose bounded out-of-order window is non-zero, driving the
//!   replay in arbitrary `advance_to`/`run_span` pieces is byte-identical to
//!   one uninterrupted replay;
//! * randomly reordered traces that exceed their declared lookahead bound —
//!   or whose bound reaches the horizon — are rejected loudly, never
//!   replayed wrong (the trace-path extension of the PR 4 jitter ≥ horizon
//!   rejection).

use daris_core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris_gpu::{SimDuration, SimTime, XorShiftRng};
use daris_models::DnnKind;
use daris_workload::{
    ArrivalStream, BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, ReleaseJitter, TaskId,
    TaskSet, Trace, TraceError, TraceEvent,
};
use proptest::prelude::*;

const HORIZON_MS: u64 = 120;

/// A trace of the chosen shape: three seeded generators plus a jittered
/// periodic recording (the one shape with a non-zero out-of-order window).
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
            prop_assert!(trace.lookahead() > SimDuration::ZERO,
                "wide jitter must exercise the out-of-order window");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Traces that violate the lookahead bound are rejected loudly: a random
    /// within-task reorder wider than the declared bound never constructs,
    /// and an honest bound at or past the horizon never constructs either.
    #[test]
    fn lookahead_violations_are_rejected_loudly(
        seed in 0u64..1_000_000,
        gap_us in 100u64..40_000,
    ) {
        let mut rng = XorShiftRng::new(seed);
        let horizon = SimTime::from_millis(50);
        // Two releases of one task, indices swapped in time: index 1 first,
        // index 0 trailing `gap_us` behind.
        let first = 1_000 + rng.next_below(5_000);
        let events = vec![
            TraceEvent {
                task: TaskId(0),
                release_index: 1,
                release: SimTime::from_micros(first),
                deadline: SimTime::from_micros(first + 100),
            },
            TraceEvent {
                task: TaskId(0),
                release_index: 0,
                release: SimTime::from_micros(first + gap_us),
                deadline: SimTime::from_micros(first + gap_us + 100),
            },
        ];

        // Declared bound strictly below the measured reorder width: loud.
        let declared = SimDuration::from_micros(gap_us - 1);
        let err = Trace::new(horizon, declared, events.clone());
        prop_assert!(
            matches!(err, Err(TraceError::LookaheadExceeded { .. })),
            "{err:?}"
        );

        // Honest bound: fine.
        prop_assert!(Trace::new(horizon, SimDuration::from_micros(gap_us), events.clone()).is_ok());

        // Bound at/past the horizon: loud, like jitter >= horizon on the
        // lazy stream.
        let err = Trace::new(horizon, SimDuration::from_millis(50), events);
        prop_assert!(
            matches!(err, Err(TraceError::LookaheadNotBelowHorizon { .. })),
            "{err:?}"
        );
    }
}
