//! The `bench_perf` harness: wall-clock timing of representative simulation
//! sections, persisted as `BENCH_sim_core.json` so the repository carries a
//! recorded perf trajectory (and CI can gate on regressions).
//!
//! Sections cover both simulation layers the event-calendar core accelerates:
//! single-device `reproduce_all`-style experiments, the classic
//! `cluster_scaling` fixed-workload sweep at 1/2/4/8 devices, the wide
//! fleet sweeps (16/64 homogeneous devices and a 64-device heterogeneous
//! a100/h100/orin mix, workload scaled with the fleet), the rack-scale
//! sweeps (256 devices flat, 1024 devices in 16 racks), and the adaptive
//! control-plane twins (an 8-device fleet under coherent diurnal load, static
//! vs the full burst-HPA + elastic-quantum + autoscaling configuration, so
//! the trajectory pins the controllers' overhead). When a harness run is
//! given `threads > 1`, each wide sweep is timed twice — serial and fanned
//! out to the dispatcher's worker pool — so the artifact records the
//! serial-vs-parallel speedup *and* the (identical) completed-job counts that
//! prove the parallel path is deterministic. Each section reports wall-clock
//! milliseconds, simulated events processed, events per wall-second, and
//! completed jobs; each run additionally records the process peak RSS.
//!
//! No serde is available offline, so the JSON is emitted by hand and the
//! baseline checker parses the one-key-per-line format this module writes.

use std::time::Instant;

use daris_cluster::{
    AutoscaleConfig, ClusterConfig, ClusterDispatcher, ClusterSpec, ElasticQuantum,
    PlacementStrategy,
};
use daris_core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris_gpu::{GpuSpec, SimDuration, SimTime};
use daris_models::DnnKind;
use daris_telemetry::{MemorySink, SinkHandle, WallClockProfiler};
use daris_workload::{BurstyConfig, DiurnalConfig, GenSpec, LoadDetectorConfig, TaskSet};

use crate::{cluster_taskset, cluster_taskset_scaled};

/// One timed section of the perf harness.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionResult {
    /// Stable section name (the baseline gate keys on it).
    pub name: String,
    /// Wall-clock milliseconds spent simulating.
    pub wall_ms: f64,
    /// Simulated GPU events processed (state transitions fired).
    pub events: u64,
    /// `events / wall seconds` — the throughput figure the CI gate checks.
    pub events_per_sec: f64,
    /// Jobs completed across the section, a sanity anchor for the numbers.
    pub completed_jobs: u64,
    /// High-priority deadline-miss rate of the section's run, so the
    /// trajectory records overload/DMR behaviour (bursty vs periodic)
    /// alongside raw simulator speed.
    pub hp_dmr: f64,
}

/// Wall-clock total of one dispatcher round phase, from the
/// [`WallClockProfiler`] the telemetry section attaches — where the
/// synchronization-round time actually goes (device spans vs the serial
/// boundary work: retries, migrations, telemetry merge).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Stable phase name: `span`, `retry`, `migration` or `merge`.
    pub phase: String,
    /// Total wall-clock milliseconds spent in the phase.
    pub wall_ms: f64,
    /// Number of times the phase ran (= rounds the profiled run stepped).
    pub count: u64,
}

/// One full harness run: every section at a common horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRun {
    /// Human label, e.g. `"event-calendar engine"`.
    pub label: String,
    /// Simulated horizon per section, in milliseconds.
    pub horizon_ms: u64,
    /// Worker threads the `*_par` sections fanned device stepping out to
    /// (1 = the run had no parallel sections).
    pub threads: usize,
    /// Process peak RSS in bytes after all sections ran (0 if unavailable).
    pub peak_rss_bytes: u64,
    /// The timed sections.
    pub sections: Vec<SectionResult>,
    /// Round-phase wall-clock breakdown of the profiled telemetry section
    /// (empty when the run had none).
    pub round_phases: Vec<PhaseBreakdown>,
}

// Sanctioned wall-clock site (determinism rule D002): timing harness only,
// never feeds simulation state.
#[allow(clippy::disallowed_methods)]
fn time_section(name: &str, f: impl FnOnce() -> (u64, u64, f64)) -> SectionResult {
    let start = Instant::now();
    let (events, completed_jobs, hp_dmr) = f();
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    SectionResult {
        name: name.to_owned(),
        wall_ms,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        completed_jobs,
        hp_dmr,
    }
}

fn single_device_section(name: &str, taskset: &TaskSet, horizon: SimTime) -> SectionResult {
    let taskset = taskset.clone();
    time_section(name, move || {
        let mut scheduler =
            DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)))
                .expect("valid perf section configuration");
        let outcome = scheduler
            .run(&RunSpec::periodic().until(horizon))
            .expect("a periodic spec with a horizon runs");
        (
            scheduler.events_processed(),
            outcome.summary.total.completed as u64,
            outcome.summary.high.deadline_miss_rate,
        )
    })
}

fn cluster_section(name: &str, devices: usize, horizon: SimTime) -> SectionResult {
    let taskset = cluster_taskset();
    run_cluster_section(
        name,
        &taskset,
        ClusterSpec::homogeneous(devices, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0)),
        1,
        horizon,
    )
}

fn run_cluster_section(
    name: &str,
    taskset: &TaskSet,
    fleet: ClusterSpec,
    threads: usize,
    horizon: SimTime,
) -> SectionResult {
    run_cluster_section_racks(name, taskset, fleet, threads, 1, horizon)
}

fn run_cluster_section_racks(
    name: &str,
    taskset: &TaskSet,
    fleet: ClusterSpec,
    threads: usize,
    racks: usize,
    horizon: SimTime,
) -> SectionResult {
    time_section(name, move || {
        let config = ClusterConfig {
            strategy: PlacementStrategy::GreedyBalance,
            threads,
            racks,
            ..Default::default()
        };
        let mut dispatcher = ClusterDispatcher::new(taskset, fleet, config)
            .expect("valid perf cluster configuration");
        let outcome = dispatcher
            .run(&RunSpec::periodic().until(horizon))
            .expect("a periodic spec with a horizon runs");
        (
            dispatcher.events_processed(),
            outcome.summary.total.completed as u64,
            outcome.summary.high.deadline_miss_rate,
        )
    })
}

/// The trace-driven workload sections: the 8-device heterogeneous fleet
/// under the bursty generator, run live and again as a recorded-trace
/// replay, plus a single-device bursty run. The live and `_replay` twins
/// must report identical event/job counts (the record→replay round-trip
/// guarantee — `bench_perf` fails the run otherwise), and their `hp_dmr`
/// lands the bursty-vs-periodic overload story in the trajectory next to
/// the periodic `cluster_scaling_8dev` section.
fn trace_sections(horizon: SimTime, sections: &mut Vec<SectionResult>) {
    let spec = GenSpec::Bursty(BurstyConfig::default());
    sections.push(single_bursty_section(
        "single_resnet18_bursty",
        &TaskSet::table2(DnnKind::ResNet18),
        &spec,
        horizon,
    ));
    let taskset = cluster_taskset_scaled(8);
    let fleet = || ClusterSpec::heterogeneous_mix(8);
    let cluster_config =
        || ClusterConfig { strategy: PlacementStrategy::GreedyBalance, ..Default::default() };
    sections.push(time_section("cluster_hetero_8dev_bursty", || {
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet(), cluster_config())
            .expect("valid perf cluster configuration");
        let outcome = dispatcher
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("a generated spec with a horizon runs");
        (
            dispatcher.events_processed(),
            outcome.summary.total.completed as u64,
            outcome.summary.high.deadline_miss_rate,
        )
    }));
    // Trace generation is untimed: the section measures the replay path.
    let replay = RunSpec::replay(spec.generate(&taskset, horizon));
    sections.push(time_section("cluster_hetero_8dev_bursty_replay", || {
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet(), cluster_config())
            .expect("valid perf cluster configuration");
        let outcome = dispatcher.run(&replay).expect("recorded trace replays");
        (
            dispatcher.events_processed(),
            outcome.summary.total.completed as u64,
            outcome.summary.high.deadline_miss_rate,
        )
    }));
}

/// The instrumented twin of `cluster_hetero_8dev_bursty`: same scenario with
/// a [`MemorySink`] and the round-phase profiler attached. Its events/sec
/// lands in the trajectory right next to the unobserved twin, so the gate
/// pins the cost of *enabled* telemetry, while every other section pins the
/// disabled-sink path staying free. Returns the profiler's per-phase
/// wall-clock totals for the run document.
fn telemetry_section(horizon: SimTime, sections: &mut Vec<SectionResult>) -> Vec<PhaseBreakdown> {
    let taskset = cluster_taskset_scaled(8);
    let spec = GenSpec::Bursty(BurstyConfig::default());
    let profiler = WallClockProfiler::new();
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        sink: Some(SinkHandle::new(MemorySink::unbounded())),
        profiler: Some(profiler.clone()),
        ..Default::default()
    };
    sections.push(time_section("cluster_hetero_8dev_bursty_telemetry", || {
        let mut dispatcher =
            ClusterDispatcher::new(&taskset, ClusterSpec::heterogeneous_mix(8), config)
                .expect("valid perf cluster configuration");
        let outcome = dispatcher
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("a generated spec with a horizon runs");
        (
            dispatcher.events_processed(),
            outcome.summary.total.completed as u64,
            outcome.summary.high.deadline_miss_rate,
        )
    }));
    profiler
        .totals()
        .iter()
        .map(|(phase, total)| PhaseBreakdown {
            phase: phase.name().to_owned(),
            wall_ms: total.wall_ms(),
            count: total.count,
        })
        .collect()
}

/// The adaptive-control-plane sections: an 8-device homogeneous fleet under a
/// *coherent* diurnal workload (`phase_spread: 0.0`, so the fleet-wide rate
/// actually swings), timed twice — static configuration and the full control
/// plane (burst-triggered HPA + elastic sync quantum + device autoscaling).
/// The twin rows pin the wall-clock cost of the controllers: the adaptive run
/// re-evaluates the detector, quantum, and autoscaler at round boundaries and
/// re-places queued jobs through the migration path on drains, so its
/// events/sec lands in the trajectory right next to the static shape.
fn adaptive_sections(horizon: SimTime, sections: &mut Vec<SectionResult>) {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let spec = GenSpec::Diurnal(DiurnalConfig {
        amplitude: 0.9,
        cycle: SimDuration::from_millis(100),
        phase_spread: 0.0,
        ..DiurnalConfig::default()
    });
    let fleet = || ClusterSpec::homogeneous(8, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let configs: [(&str, ClusterConfig); 2] = [
        ("cluster_diurnal_8dev_static", ClusterConfig::default()),
        (
            "cluster_diurnal_8dev_adaptive",
            ClusterConfig {
                adaptive_hpa: Some(LoadDetectorConfig::default()),
                elastic_quantum: Some(ElasticQuantum::default()),
                autoscale: Some(AutoscaleConfig {
                    min_devices: 2,
                    scale_up_ratio: 0.4,
                    scale_down_ratio: 0.2,
                    epoch: 4,
                }),
                ..ClusterConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        sections.push(time_section(name, || {
            let mut dispatcher = ClusterDispatcher::new(&taskset, fleet(), config)
                .expect("valid perf cluster configuration");
            let outcome = dispatcher
                .run(&RunSpec::generated(spec).until(horizon))
                .expect("a generated spec with a horizon runs");
            (
                dispatcher.events_processed(),
                outcome.summary.total.completed as u64,
                outcome.summary.high.deadline_miss_rate,
            )
        }));
    }
}

fn single_bursty_section(
    name: &str,
    taskset: &TaskSet,
    spec: &GenSpec,
    horizon: SimTime,
) -> SectionResult {
    let taskset = taskset.clone();
    let spec = *spec;
    time_section(name, move || {
        let mut scheduler =
            DarisScheduler::new(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)))
                .expect("valid perf section configuration");
        let outcome = scheduler
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("a generated spec with a horizon runs");
        (
            scheduler.events_processed(),
            outcome.summary.total.completed as u64,
            outcome.summary.high.deadline_miss_rate,
        )
    })
}

/// The wide fleet sweeps: `devices`-sized homogeneous and heterogeneous
/// fleets on a workload scaled with the fleet, at 1 thread and — when
/// `threads > 1` — again at `threads` (the `_par` twin sections, whose
/// completed-job counts must match the serial ones exactly).
fn wide_sections(threads: usize, horizon: SimTime, sections: &mut Vec<SectionResult>) {
    for devices in [16usize, 64] {
        let taskset = cluster_taskset_scaled(devices);
        let homogeneous =
            || ClusterSpec::homogeneous(devices, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
        sections.push(run_cluster_section(
            &format!("cluster_scaling_{devices}dev"),
            &taskset,
            homogeneous(),
            1,
            horizon,
        ));
        if threads > 1 {
            sections.push(run_cluster_section(
                &format!("cluster_scaling_{devices}dev_par"),
                &taskset,
                homogeneous(),
                threads,
                horizon,
            ));
        }
    }
    let hetero_taskset = cluster_taskset_scaled(64);
    sections.push(run_cluster_section(
        "cluster_hetero_64dev",
        &hetero_taskset,
        ClusterSpec::heterogeneous_mix(64),
        1,
        horizon,
    ));
    if threads > 1 {
        sections.push(run_cluster_section(
            "cluster_hetero_64dev_par",
            &hetero_taskset,
            ClusterSpec::heterogeneous_mix(64),
            threads,
            horizon,
        ));
    }
    rack_sections(threads, horizon, sections);
}

/// The rack-scale sweeps: 256 heterogeneous devices under flat dispatch and
/// 1024 devices partitioned into 16 racks (the two-level hierarchy that
/// keeps per-round boundary work rack-local). Serial by design — the
/// headline figure is per-core events/s at 16× the classic 64-device fleet,
/// which must hold the 64-device line; with `threads > 1` the 1024-device
/// sweep also runs fanned out to the persistent worker pool (`_par` twin,
/// identical completed-job counts).
fn rack_sections(threads: usize, horizon: SimTime, sections: &mut Vec<SectionResult>) {
    let taskset_256 = cluster_taskset_scaled(256);
    sections.push(run_cluster_section_racks(
        "cluster_hetero_256dev",
        &taskset_256,
        ClusterSpec::heterogeneous_mix(256),
        1,
        1,
        horizon,
    ));
    let taskset_1024 = cluster_taskset_scaled(1024);
    sections.push(run_cluster_section_racks(
        "cluster_hetero_1024dev_racks",
        &taskset_1024,
        ClusterSpec::heterogeneous_mix(1024),
        1,
        16,
        horizon,
    ));
    if threads > 1 {
        sections.push(run_cluster_section_racks(
            "cluster_hetero_1024dev_racks_par",
            &taskset_1024,
            ClusterSpec::heterogeneous_mix(1024),
            threads,
            16,
            horizon,
        ));
    }
}

/// Runs every perf section at `horizon` and returns the labelled run.
/// `threads > 1` adds the `_par` twin of each wide fleet section, timed with
/// device stepping fanned out to that many dispatcher worker threads.
pub fn run_perf(label: &str, horizon: SimTime, threads: usize) -> PerfRun {
    let threads = threads.max(1);
    let mut sections = vec![
        single_device_section(
            "single_resnet18_mps6x6",
            &TaskSet::table2(DnnKind::ResNet18),
            horizon,
        ),
        single_device_section("single_unet_mps6x6", &TaskSet::table2(DnnKind::UNet), horizon),
        cluster_section("cluster_scaling_1dev", 1, horizon),
        cluster_section("cluster_scaling_2dev", 2, horizon),
        cluster_section("cluster_scaling_4dev", 4, horizon),
        cluster_section("cluster_scaling_8dev", 8, horizon),
    ];
    wide_sections(threads, horizon, &mut sections);
    trace_sections(horizon, &mut sections);
    adaptive_sections(horizon, &mut sections);
    let round_phases = telemetry_section(horizon, &mut sections);
    PerfRun {
        label: label.to_owned(),
        horizon_ms: (horizon.as_millis_f64()) as u64,
        threads,
        peak_rss_bytes: peak_rss_bytes(),
        sections,
        round_phases,
    }
}

/// Process peak resident set size in bytes (`VmHWM` on Linux, 0 elsewhere).
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 =
                        rest.trim().trim_end_matches("kB").trim().parse().unwrap_or_default();
                    return kb * 1024;
                }
            }
        }
    }
    0
}

/// Serializes a run as a JSON object, one key per line (the format
/// [`parse_sections`] understands).
pub fn run_to_json(run: &PerfRun, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut out = String::new();
    out.push_str(&format!("{pad}{{\n"));
    out.push_str(&format!("{pad}  \"label\": \"{}\",\n", run.label));
    out.push_str(&format!("{pad}  \"horizon_ms\": {},\n", run.horizon_ms));
    out.push_str(&format!("{pad}  \"threads\": {},\n", run.threads));
    out.push_str(&format!("{pad}  \"peak_rss_bytes\": {},\n", run.peak_rss_bytes));
    out.push_str(&format!("{pad}  \"sections\": [\n"));
    for (i, s) in run.sections.iter().enumerate() {
        let comma = if i + 1 < run.sections.len() { "," } else { "" };
        out.push_str(&format!("{pad}    {{\n"));
        out.push_str(&format!("{pad}      \"name\": \"{}\",\n", s.name));
        out.push_str(&format!("{pad}      \"wall_ms\": {:.3},\n", s.wall_ms));
        out.push_str(&format!("{pad}      \"events\": {},\n", s.events));
        out.push_str(&format!("{pad}      \"events_per_sec\": {:.1},\n", s.events_per_sec));
        out.push_str(&format!("{pad}      \"completed_jobs\": {},\n", s.completed_jobs));
        out.push_str(&format!("{pad}      \"hp_dmr\": {:.6}\n", s.hp_dmr));
        out.push_str(&format!("{pad}    }}{comma}\n"));
    }
    if run.round_phases.is_empty() {
        out.push_str(&format!("{pad}  ]\n"));
    } else {
        out.push_str(&format!("{pad}  ],\n"));
        // Uses a "phase" key (not "name") so the section parser the CI gate
        // relies on skips this block untouched.
        out.push_str(&format!("{pad}  \"round_phases\": [\n"));
        for (i, p) in run.round_phases.iter().enumerate() {
            let comma = if i + 1 < run.round_phases.len() { "," } else { "" };
            out.push_str(&format!(
                "{pad}    {{ \"phase\": \"{}\", \"wall_ms\": {:.3}, \"count\": {} }}{comma}\n",
                p.phase, p.wall_ms, p.count
            ));
        }
        out.push_str(&format!("{pad}  ]\n"));
    }
    out.push_str(&format!("{pad}}}"));
    out
}

/// Wraps runs into the top-level `BENCH_sim_core.json` document.
pub fn runs_to_json(runs: &[PerfRun]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"daris simulation core\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str(&run_to_json(run, 4));
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, events_per_sec)` pairs from a JSON document written by
/// [`runs_to_json`] (or any JSON that keeps `"name"` and `"events_per_sec"`
/// on their own lines, in that order within each section).
pub fn parse_sections(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            current = rest.split('"').next().map(str::to_owned);
        } else if let Some(rest) = line.strip_prefix("\"events_per_sec\": ") {
            if let (Some(name), Ok(v)) = (current.take(), rest.trim_end_matches(',').parse::<f64>())
            {
                out.push((name, v));
            }
        }
    }
    out
}

/// The events/sec regression factor the CI smoke gate tolerates: a section
/// fails when it falls more than this factor below the checked-in baseline.
/// Tightened from the initial 3× once the trajectory accumulated CI
/// datapoints (the baseline rates are already halved for CI hardware slack).
pub const CI_REGRESSION_FACTOR: f64 = 2.0;

/// Compares a fresh run against a checked-in baseline: returns the failures
/// (section, measured, floor) where measured events/sec fell more than
/// `factor` below the baseline. Sections missing from either side are
/// skipped.
pub fn regression_failures(
    run: &PerfRun,
    baseline_json: &str,
    factor: f64,
) -> Vec<(String, f64, f64)> {
    let baseline = parse_sections(baseline_json);
    let mut failures = Vec::new();
    for (name, base_eps) in baseline {
        let Some(section) = run.sections.iter().find(|s| s.name == name) else { continue };
        let floor = base_eps / factor.max(1.0);
        if section.events_per_sec < floor {
            failures.push((name, section.events_per_sec, floor));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> PerfRun {
        PerfRun {
            label: "test".into(),
            horizon_ms: 50,
            threads: 1,
            peak_rss_bytes: 1024,
            sections: vec![
                SectionResult {
                    name: "a".into(),
                    wall_ms: 10.0,
                    events: 1000,
                    events_per_sec: 100_000.0,
                    completed_jobs: 5,
                    hp_dmr: 0.0,
                },
                SectionResult {
                    name: "b".into(),
                    wall_ms: 5.0,
                    events: 100,
                    events_per_sec: 20_000.0,
                    completed_jobs: 2,
                    hp_dmr: 0.015,
                },
            ],
            round_phases: vec![
                PhaseBreakdown { phase: "span".into(), wall_ms: 7.5, count: 40 },
                PhaseBreakdown { phase: "merge".into(), wall_ms: 0.5, count: 40 },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let doc = runs_to_json(&[sample_run()]);
        let parsed = parse_sections(&doc);
        assert_eq!(parsed, vec![("a".to_owned(), 100_000.0), ("b".to_owned(), 20_000.0)]);
        // The phase breakdown is present but invisible to the section parser
        // (gate compatibility: old baselines keep working).
        assert!(doc.contains("\"round_phases\""));
        assert!(doc.contains("\"phase\": \"span\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn regression_gate_applies_the_requested_factor() {
        let run = sample_run();
        let baseline = runs_to_json(&[sample_run()]);
        assert!(
            regression_failures(&run, &baseline, CI_REGRESSION_FACTOR).is_empty(),
            "same numbers pass"
        );

        let mut slow = sample_run();
        slow.sections[0].events_per_sec = 100_000.0 / 2.1;
        let failures = regression_failures(&slow, &baseline, CI_REGRESSION_FACTOR);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "a");
        assert!(
            regression_failures(&slow, &baseline, 3.0).is_empty(),
            "a looser factor tolerates the same run"
        );

        let mut fine = sample_run();
        fine.sections[0].events_per_sec = 100_000.0 / 1.9;
        assert!(
            regression_failures(&fine, &baseline, CI_REGRESSION_FACTOR).is_empty(),
            "within 2x passes"
        );
    }

    #[test]
    fn unknown_sections_are_skipped_by_the_gate() {
        let mut run = sample_run();
        run.sections.remove(1);
        let baseline = runs_to_json(&[sample_run()]);
        assert!(regression_failures(&run, &baseline, CI_REGRESSION_FACTOR).is_empty());
    }
}
