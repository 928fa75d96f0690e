//! Golden trace fixtures, mirroring the `crates/gpu/tests/golden*` pattern:
//! three generated traces (bursty, diurnal, correlated) are committed under
//! `tests/golden/` in the versioned plain-text codec, and these tests pin
//! the generators and codec to them **exactly** — any drift in generator
//! math, RNG derivation or encoding changes the bytes and fails loudly.
//!
//! To regenerate (only legitimate after an *intentional* semantic change —
//! remember to refresh the replay expectations in `tests/trace_golden.rs` at
//! the workspace root too):
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test -p daris-workload --test golden_traces
//! ```

use std::path::PathBuf;

use daris_gpu::SimTime;
use daris_models::DnnKind;
use daris_workload::{
    ArrivalStream, BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, TaskSet, Trace,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.trace"))
}

/// The committed fixtures: `(name, task set, generator, horizon, events)`.
/// The event counts pin the generated load shape; the byte comparison pins
/// everything else.
pub fn fixtures() -> Vec<(&'static str, TaskSet, GenSpec, SimTime, usize)> {
    vec![
        (
            "bursty_unet",
            TaskSet::table2(DnnKind::UNet),
            GenSpec::Bursty(BurstyConfig { seed: 0xDAC5_0001, ..Default::default() }),
            SimTime::from_millis(200),
            106,
        ),
        (
            "diurnal_mixed",
            TaskSet::mixed(),
            GenSpec::Diurnal(DiurnalConfig { seed: 0xDAC5_0002, ..Default::default() }),
            SimTime::from_millis(200),
            182,
        ),
        (
            "correlated_resnet18",
            TaskSet::table2(DnnKind::ResNet18),
            GenSpec::Correlated(CorrelatedConfig { seed: 0xDAC5_0003, ..Default::default() }),
            SimTime::from_millis(150),
            319,
        ),
    ]
}

fn check_or_regen(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden trace");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {path:?} ({e}); regenerate with \
             DARIS_REGEN_GOLDEN=1 cargo test -p daris-workload --test golden_traces"
        )
    });
    if expected != *actual {
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
        panic!("generated trace diverged from golden fixture {name}: {diverging}");
    }
}

#[test]
fn generators_reproduce_the_committed_fixtures_byte_for_byte() {
    for (name, taskset, spec, horizon, events) in fixtures() {
        let trace = spec.generate(&taskset, horizon);
        check_or_regen(name, &trace.encode());
        if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
            println!("{name}: {} events (update fixtures() if this changed)", trace.len());
        } else {
            assert_eq!(trace.len(), events, "{name}: event count drifted");
        }
    }
}

#[test]
fn committed_fixtures_decode_and_replay_cleanly() {
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        return; // the byte test just rewrote them; nothing stale to check
    }
    for (name, taskset, _, horizon, events) in fixtures() {
        let text = std::fs::read_to_string(golden_path(name)).expect("fixture committed");
        let trace = Trace::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace.len(), events, "{name}");
        assert_eq!(trace.horizon(), horizon, "{name}");
        assert!(trace.offered_jps() > 0.0, "{name}");
        let jobs: Vec<_> = ArrivalStream::replay(&taskset, &trace)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .collect();
        assert_eq!(jobs.len(), events, "{name}: replay must yield every event");
        // Round trip through the codec is the identity.
        assert_eq!(trace.encode(), text, "{name}: encode(decode(x)) != x");
    }
}
