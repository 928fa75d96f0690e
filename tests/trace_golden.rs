//! Replays the committed golden trace fixtures end to end through the DARIS
//! scheduler and pins the **exact** outcome — job counts, completions,
//! deadline misses, rejections and simulated event counts — on a fresh
//! checkout. Any drift in the generators, the codec, or the scheduler's
//! handling of trace-driven arrivals fails loudly here.
//!
//! The fixtures live in `crates/workload/tests/golden/` and are pinned
//! byte-for-byte by `daris-workload`'s `golden_traces` test; this test adds
//! the scheduler layer on top. After an *intentional* semantic change,
//! regenerate the fixtures (see that test's docs) and refresh the
//! expectations below from this test's `DARIS_PRINT_GOLDEN=1` output.

use std::path::PathBuf;

use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::models::DnnKind;
use daris::workload::{TaskSet, Trace};

/// The pinned replay outcome of one fixture.
struct Expected {
    name: &'static str,
    taskset: fn() -> TaskSet,
    /// `(released, completed, deadline misses, rejected)` over all jobs.
    totals: (usize, usize, usize, usize),
    /// Simulated GPU events processed during the replay.
    events_processed: u64,
}

fn expectations() -> Vec<Expected> {
    vec![
        Expected {
            name: "bursty_unet",
            taskset: || TaskSet::table2(DnnKind::UNet),
            totals: (106, 44, 19, 47),
            events_processed: 3439,
        },
        Expected {
            name: "diurnal_mixed",
            taskset: TaskSet::mixed,
            totals: (182, 121, 26, 55),
            events_processed: 10_336,
        },
        Expected {
            name: "correlated_resnet18",
            taskset: || TaskSet::table2(DnnKind::ResNet18),
            totals: (319, 139, 21, 162),
            events_processed: 9_332,
        },
    ]
}

fn fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/workload/tests/golden")
        .join(format!("{name}.trace"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}"));
    Trace::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn golden_traces_replay_to_pinned_outcomes() {
    let print = std::env::var_os("DARIS_PRINT_GOLDEN").is_some();
    for exp in expectations() {
        let trace = fixture(exp.name);
        let taskset = (exp.taskset)();
        let run = |_: usize| {
            let mut scheduler =
                DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)))
                    .expect("scheduler builds");
            let outcome = scheduler
                .run(&RunSpec::replay(trace.clone()))
                .expect("fixture binds to its task set");
            (outcome, scheduler.events_processed())
        };
        let (outcome, events_processed) = run(0);
        let t = &outcome.summary.total;
        if print {
            println!(
                "{}: totals: ({}, {}, {}, {}), events_processed: {},",
                exp.name, t.released, t.completed, t.deadline_misses, t.rejected, events_processed
            );
            continue;
        }
        assert_eq!(
            (t.released, t.completed, t.deadline_misses, t.rejected),
            exp.totals,
            "{}: replay outcome drifted",
            exp.name
        );
        assert_eq!(events_processed, exp.events_processed, "{}: event count drifted", exp.name);
        assert_eq!(t.released, trace.len(), "{}: every event is accounted", exp.name);
        // The DMR follows exactly from the pinned counts.
        let expected_dmr = exp.totals.2 as f64 / (exp.totals.0 - exp.totals.3) as f64;
        assert_eq!(t.deadline_miss_rate, expected_dmr, "{}", exp.name);
        // Replay is deterministic: a second fresh replay is byte-identical.
        let (again, events_again) = run(1);
        assert_eq!(again.summary, outcome.summary, "{}: replay must be deterministic", exp.name);
        assert_eq!(events_again, events_processed);
    }
}
