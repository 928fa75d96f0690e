//! Golden Chrome-trace fixture: a small recorded cluster run is committed
//! under `tests/golden/` as Chrome trace-event JSON, and this test pins the
//! exporter's bytes to it **exactly** — any drift in the event stream (sim
//! semantics), the event-to-track mapping, or the JSON formatting fails
//! loudly. The timestamps are simulated time, so the bytes are identical on
//! every machine and at every dispatcher thread count.
//!
//! Unlike the perf suites this scenario ignores `DARIS_HORIZON_MS`: a golden
//! fixture must not depend on the environment.
//!
//! To regenerate (only after an *intentional* semantic or schema change —
//! bump `CHROME_SCHEMA_VERSION` if the shape of the JSON changed):
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test --test chrome_trace_golden
//! ```

use std::path::PathBuf;

use daris::cluster::{ClusterConfig, ClusterDispatcher, ClusterSpec, PlacementStrategy};
use daris::core::RunSpec;
use daris::gpu::SimTime;
use daris::models::DnnKind;
use daris::telemetry::{ChromeTraceSink, SinkHandle, CHROME_SCHEMA_VERSION};
use daris::workload::{BurstyConfig, GenSpec, TaskSet};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hetero2_bursty.trace.json")
}

/// A deliberately small scenario: two heterogeneous devices, the UNet task
/// set under a seeded burst, 20 simulated milliseconds.
fn record() -> String {
    let taskset = TaskSet::table2(DnnKind::UNet);
    let fleet = ClusterSpec::heterogeneous_mix(2);
    let sink = ChromeTraceSink::new();
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        sink: Some(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xDAC5_0007, ..Default::default() });
    let outcome = ClusterDispatcher::new(&taskset, fleet, config)
        .expect("valid 2-device configuration")
        .run(&RunSpec::generated(spec).until(SimTime::from_millis(20)))
        .expect("spec runs");
    assert!(outcome.summary.total.completed > 0, "fixture scenario must do real work");
    sink.to_json()
}

#[test]
fn chrome_export_matches_the_committed_fixture_byte_for_byte() {
    let actual = record();
    let path = golden_path();
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden chrome trace");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden chrome trace {path:?} ({e}); regenerate with \
             DARIS_REGEN_GOLDEN=1 cargo test --test chrome_trace_golden"
        )
    });
    if expected != actual {
        let diverging = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| {
                format!("first divergence at line {}:\n  golden: {e}\n  actual: {a}", i + 1)
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!("chrome export diverged from the golden fixture: {diverging}");
    }
}

#[test]
fn committed_fixture_is_schema_valid() {
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        return; // the byte test just rewrote it; nothing stale to check
    }
    let text = std::fs::read_to_string(golden_path()).expect("fixture committed");
    // Versioned schema header, Perfetto-compatible envelope.
    assert!(text.starts_with(&format!("{{\"schemaVersion\":\"{CHROME_SCHEMA_VERSION}\"")));
    assert!(text.contains("\"displayTimeUnit\":\"ms\""));
    assert!(text.contains("\"traceEvents\":["));
    assert!(text.ends_with("]}\n"));
    // Structurally balanced, no trailing commas before the closing bracket.
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    assert!(!text.contains(",\n]"));
    // Every event line carries the mandatory trace-event fields.
    let mut events = 0usize;
    for line in text.lines().filter(|l| l.starts_with("  {")) {
        for field in ["\"ph\":", "\"pid\":", "\"tid\":"] {
            assert!(line.contains(field), "event line missing {field}: {line}");
        }
        events += 1;
    }
    assert!(events > 100, "suspiciously small fixture: {events} events");
    // Both devices and the cluster track are present.
    for pid in ["\"pid\":0,", "\"pid\":1,", "\"pid\":4294967295,"] {
        assert!(text.contains(pid), "fixture lost the {pid} track");
    }
}
