//! The dynamic backstop for what the static determinism rules cannot see:
//! run the 8-device heterogeneous bursty scenario twice **in-process** — once
//! serial, once on the maximum worker-thread count — and assert the summary
//! digests are equal.
//!
//! Static analysis (clippy and the workspace lints, rules D001–D006) proves
//! the *absence of known hazard patterns*; this test observes the actual
//! guarantee those rules protect. Running twice in one process matters: any regressed
//! `HashMap` state would get fresh per-instance hasher seeds on the second
//! construction, so hash-order leakage shows up as a digest mismatch right
//! here, without needing a cross-process harness.
//!
//! The digests only compare thread counts of one build. The hand-off
//! golden (`tests/golden/handoffs.txt`) pins the multi-rack and adaptive
//! scenarios' job accounting and cross-device moves as plain text, so a
//! change to how the dispatcher retries, migrates or drains shows up as a
//! diff across commits. Regenerate it (only after an intended change to
//! those decisions) with
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test --test determinism_digest
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use daris::cluster::{
    AutoscaleConfig, ClusterConfig, ClusterDispatcher, ClusterOutcome, ClusterSpec, DeviceSpec,
    ElasticQuantum, PlacementStrategy,
};
use daris::core::{GpuPartition, RunSpec};
use daris::gpu::{GpuSpec, SimDuration, SimTime};
use daris::models::DnnKind;
use daris::telemetry::{ChromeTraceSink, EventKind, MemorySink, SinkHandle};
use daris::workload::{BurstyConfig, DiurnalConfig, GenSpec, LoadDetectorConfig, TaskSet};

fn run_once(threads: usize) -> u64 {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let fleet = ClusterSpec::heterogeneous_mix(8);
    let config = ClusterConfig { threads, ..Default::default() };
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(250));
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xD16E57, ..Default::default() });
    let outcome = ClusterDispatcher::new(&taskset, fleet, config)
        .expect("valid 8-device configuration")
        .run(&RunSpec::generated(spec).until(horizon))
        .expect("spec runs");
    assert!(outcome.summary.total.completed > 0, "scenario must do real work");
    outcome.summary_hash()
}

/// How the run is observed; observation must never feed back into the run.
enum Observer {
    None,
    Memory,
    Chrome,
}

/// The telemetry variant of the scenario uses balanced placement so all
/// eight devices actually record events — the per-device buffer merge is
/// only exercised when more than one buffer has something in it.
fn run_observed(threads: usize, observer: Observer) -> u64 {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let fleet = ClusterSpec::heterogeneous_mix(8);
    let sink = match observer {
        Observer::None => None,
        Observer::Memory => Some(SinkHandle::new(MemorySink::unbounded())),
        Observer::Chrome => Some(SinkHandle::new(ChromeTraceSink::new())),
    };
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads,
        sink,
        ..Default::default()
    };
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(250));
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xD16E57, ..Default::default() });
    let outcome = ClusterDispatcher::new(&taskset, fleet, config)
        .expect("valid 8-device configuration")
        .run(&RunSpec::generated(spec).until(horizon))
        .expect("spec runs");
    assert!(outcome.summary.total.completed > 0, "scenario must do real work");
    outcome.summary_hash()
}

#[test]
fn hetero_bursty_digest_is_thread_count_invariant() {
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    let serial = run_once(1);
    let parallel = run_once(max_threads);
    assert_eq!(
        serial, parallel,
        "summary digest diverged between 1 and {max_threads} worker threads — \
         the byte-identical guarantee is broken"
    );
    // And a straight repeat at the same thread count: catches per-instance
    // nondeterminism (hasher state, allocation order) rather than threading.
    assert_eq!(serial, run_once(1), "two serial runs diverged in one process");
}

/// The multi-rack variant of the scenario: 16 RTX 2080 Tis in 4 racks, the
/// first rack single-stream devices that back up under bursts and the other
/// twelve 6-context MPS devices with room to spare. Every hierarchical
/// phase — rack-local retry on a scan of the home rack's loads, rack-local
/// migration, and the cross-rack epoch exchange — moves work here, and the
/// run asserts that each of them did.
fn run_racked(threads: usize, horizon: SimTime, sink: Option<SinkHandle>) -> ClusterOutcome {
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 10);
    let fleet = (0..16u64).fold(ClusterSpec::new(), |fleet, d| {
        let partition =
            if d < 4 { GpuPartition::str_streams(1) } else { GpuPartition::mps(6, 6.0) };
        let gpu = GpuSpec::rtx_2080_ti().with_seed(0x5eed_0000 + d);
        fleet.with_device(DeviceSpec::new(format!("gpu{d}"), gpu, partition))
    });
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads,
        racks: 4,
        sink,
        ..Default::default()
    };
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xD16E57, ..Default::default() });
    let outcome = ClusterDispatcher::new(&taskset, fleet, config)
        .expect("valid 16-device 4-rack configuration")
        .run(&RunSpec::generated(spec).until(horizon))
        .expect("spec runs");
    let summary = &outcome.summary;
    assert!(summary.total.completed > 0, "scenario must do real work");
    assert_eq!(summary.racks, 4);
    assert!(summary.cluster_admissions > 0, "rack-local retry must admit work: {summary:?}");
    assert!(summary.migrations > 0, "rack-local migration must move work: {summary:?}");
    assert!(summary.cross_rack_migrations > 0, "the epoch phase must move work: {summary:?}");
    outcome
}

#[test]
fn multi_rack_digest_is_thread_count_invariant() {
    // The two-level hierarchy must keep the byte-identical guarantee: hash
    // the 4-rack scenario twice per worker count across 1/2/8 threads. The
    // repeat at each count catches per-instance nondeterminism (hasher
    // state, allocation order); the cross-count comparison catches worker
    // timing leaking through the rack phases.
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(150));
    let digest = |threads: usize| run_racked(threads, horizon, None).summary_hash();
    let baseline = digest(1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            baseline,
            digest(threads),
            "multi-rack digest diverged at {threads} worker threads"
        );
        assert_eq!(
            baseline,
            digest(threads),
            "repeated multi-rack run diverged at {threads} worker threads"
        );
    }
}

/// The full adaptive control plane — burst-triggered HPA, elastic sync
/// quantum, and device autoscaling — under a *coherent* diurnal workload, so
/// admission-mode flips, quantum changes, and device drains/joins all
/// actually fire inside the digested run (the controllers acting, not just
/// attached). Greedy balance spreads the set over the fleet, so rejected
/// releases retry on other devices instead of all landing on gpu0.
fn run_adaptive(threads: usize, horizon: SimTime, sink: Option<SinkHandle>) -> ClusterOutcome {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let fleet = ClusterSpec::homogeneous(8, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads,
        adaptive_hpa: Some(LoadDetectorConfig::default()),
        elastic_quantum: Some(ElasticQuantum::default()),
        autoscale: Some(AutoscaleConfig {
            min_devices: 2,
            scale_up_ratio: 0.4,
            scale_down_ratio: 0.2,
            epoch: 4,
        }),
        sink,
        ..Default::default()
    };
    let spec = GenSpec::Diurnal(DiurnalConfig {
        amplitude: 0.9,
        cycle: SimDuration::from_millis(100),
        phase_spread: 0.0,
        ..Default::default()
    });
    let outcome = ClusterDispatcher::new(&taskset, fleet, config)
        .expect("valid adaptive 8-device configuration")
        .run(&RunSpec::generated(spec).until(horizon))
        .expect("spec runs");
    assert!(outcome.summary.total.completed > 0, "scenario must do real work");
    outcome
}

#[test]
fn adaptive_control_plane_digest_is_thread_count_invariant() {
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(300));
    let digest = |threads: usize| run_adaptive(threads, horizon, None).summary_hash();
    let serial = digest(1);
    assert_eq!(
        serial,
        digest(max_threads),
        "adaptive-control-plane digest diverged between 1 and {max_threads} worker threads"
    );
    assert_eq!(serial, digest(1), "two serial adaptive runs diverged in one process");
}

/// One scenario's section of the hand-off golden (per-device job
/// accounting, the fleet's move counters and the hand-off event counts),
/// and its number of retry offers.
fn handoff_section(
    name: &str,
    run: fn(usize, SimTime, Option<SinkHandle>) -> ClusterOutcome,
    horizon_ms: u64,
) -> (String, u64) {
    let sink = MemorySink::unbounded();
    let outcome = run(1, SimTime::from_millis(horizon_ms), Some(SinkHandle::new(sink.clone())));
    let mut text = format!("## {name} ({horizon_ms} ms)\n");
    text.push_str("device released accepted rejected completed\n");
    for device in &outcome.devices {
        let t = &device.outcome.summary.total;
        let _ = writeln!(
            text,
            "{} {} {} {} {}",
            device.name, t.released, t.accepted, t.rejected, t.completed
        );
    }
    let s = &outcome.summary;
    let _ = writeln!(
        text,
        "fleet cluster_admissions={} migrations={} cross_rack_migrations={}",
        s.cluster_admissions, s.migrations, s.cross_rack_migrations
    );
    let [mut retry, mut migrate, mut rack_migrate, mut drained, mut drain_moved] = [0u64; 5];
    for event in sink.events() {
        match event.kind {
            EventKind::RetryAttempt { .. } => retry += 1,
            EventKind::Migration { .. } => migrate += 1,
            EventKind::RackMigration { .. } => rack_migrate += 1,
            EventKind::DeviceDrained { moved, .. } => {
                drained += 1;
                drain_moved += moved;
            }
            _ => {}
        }
    }
    let _ = writeln!(
        text,
        "events retry={retry} migrate={migrate} rack-migrate={rack_migrate} \
         device-drain={drained} drain-moved={drain_moved}"
    );
    (text, retry)
}

#[test]
fn handoffs_match_the_committed_golden() {
    // Fixed horizons: a golden must not depend on `DARIS_HORIZON_MS`.
    let (racked, _) = handoff_section("multi-rack bursty, 16 devices in 4 racks", run_racked, 150);
    let (adaptive, adaptive_retries) =
        handoff_section("adaptive control plane, 8 devices", run_adaptive, 300);
    assert!(adaptive_retries > 0, "the adaptive scenario packed every task onto one device");
    let actual = [racked, adaptive].join("\n");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/handoffs.txt");
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write hand-off golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing hand-off golden {path:?} ({e}); regenerate with \
             DARIS_REGEN_GOLDEN=1 cargo test --test determinism_digest"
        )
    });
    assert_eq!(expected, actual, "retry, migration or drain decisions drifted from the golden");
}

#[test]
fn telemetry_observation_never_perturbs_the_digest() {
    // Attaching any sink — the memory sink or the Chrome exporter — must
    // leave the summary digest byte-identical to the unobserved run, at both
    // ends of the thread-count range. Telemetry reads the simulation; it may
    // never steer it.
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    let baseline = run_observed(1, Observer::None);
    assert_eq!(baseline, run_observed(1, Observer::Memory), "MemorySink perturbed the serial run");
    assert_eq!(
        baseline,
        run_observed(1, Observer::Chrome),
        "ChromeTraceSink perturbed the serial run"
    );
    assert_eq!(
        baseline,
        run_observed(max_threads, Observer::Memory),
        "MemorySink perturbed the {max_threads}-thread run"
    );
    assert_eq!(
        baseline,
        run_observed(max_threads, Observer::Chrome),
        "ChromeTraceSink perturbed the {max_threads}-thread run"
    );
}

#[test]
fn telemetry_event_stream_is_thread_count_invariant() {
    // Stronger than the summary digest: the *entire merged event stream* must
    // be byte-identical at any thread count — this is what makes recorded
    // traces trustworthy artifacts. Compare the serial and max-thread Chrome
    // exports byte for byte.
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    let export = |threads: usize| {
        let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
        let fleet = ClusterSpec::heterogeneous_mix(8);
        let sink = ChromeTraceSink::new();
        let config = ClusterConfig {
            strategy: PlacementStrategy::GreedyBalance,
            threads,
            sink: Some(SinkHandle::new(sink.clone())),
            ..Default::default()
        };
        let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(250));
        let spec = GenSpec::Bursty(BurstyConfig { seed: 0xD16E57, ..Default::default() });
        ClusterDispatcher::new(&taskset, fleet, config)
            .expect("valid 8-device configuration")
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("spec runs");
        sink.to_json()
    };
    let serial = export(1);
    assert!(!serial.is_empty());
    assert_eq!(
        serial,
        export(max_threads),
        "trace JSON diverged between 1 and {max_threads} worker threads"
    );

    // That fleet hands no job to another device. The multi-rack one does, so
    // its devices also record on the dispatcher's thread (retries and
    // migrations), and each of those events must carry the same device index
    // as at one worker: compare its whole stream, device ids included.
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(150));
    let stream = |threads: usize| {
        let sink = MemorySink::unbounded();
        run_racked(threads, horizon, Some(SinkHandle::new(sink.clone())));
        sink.events()
    };
    let serial = stream(1);
    for device in 0..16 {
        assert!(serial.iter().any(|e| e.device == device), "gpu{device} recorded no event");
    }
    for threads in [2, 8] {
        let parallel = stream(threads);
        let first_diff = serial.iter().zip(&parallel).position(|(a, b)| a != b);
        assert!(
            first_diff.is_none() && serial.len() == parallel.len(),
            "multi-rack event stream diverged at {threads} worker threads: first differing \
             event {first_diff:?}, lengths {} and {}",
            serial.len(),
            parallel.len()
        );
    }
}
