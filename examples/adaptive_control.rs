//! The adaptive control plane, end to end:
//!
//! 1. **Single GPU, coherent diurnal load** — three admission policies side
//!    by side on a full-load, 90%-high-priority task set whose arrival rate
//!    swings ±60% with a shared phase: admission off, the static
//!    `Overload+HPA` test always on, and the burst-triggered adaptive mode
//!    (the HP admission test engages only while the windowed arrival-rate
//!    detector reports a burst). The crests overload the GPU — there the
//!    adaptive scheduler must match static HPA's high-priority deadline
//!    protection. The calm phases carry the plain nominal load, which the
//!    GPU can serve in full — there the static test keeps shedding
//!    high-priority jobs its conservative utilization bound cannot prove
//!    feasible, while the adaptive mode admits and serves them.
//! 2. **8-device fleet, the same diurnal shape** — the fleet-level knobs:
//!    device autoscaling drains devices through the troughs and rejoins
//!    them under the crests, and the elastic sync quantum stretches rounds
//!    while the fleet idles.
//!
//! Run with:
//!
//! ```text
//! cargo run --example adaptive_control
//! ```

use daris::cluster::{
    AutoscaleConfig, ClusterConfig, ClusterDispatcher, ClusterSpec, ElasticQuantum,
};
use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::gpu::{GpuSpec, SimDuration, SimTime};
use daris::metrics::report::Table;
use daris::models::DnnKind;
use daris::telemetry::{EventKind, MemorySink, SinkHandle, TelemetryEvent};
use daris::workload::{
    DiurnalConfig, GenSpec, LoadDetectorConfig, Priority, RatioScenario, TaskSet,
};

/// The shared workload shape of both parts: a coherent diurnal swing
/// (`phase_spread: 0.0`), so the whole task set crests and troughs together
/// — the fleet-wide load signal the control plane reacts to.
fn diurnal(amplitude: f64) -> GenSpec {
    GenSpec::Diurnal(DiurnalConfig {
        amplitude,
        cycle: SimDuration::from_millis(100),
        phase_spread: 0.0,
        ..DiurnalConfig::default()
    })
}

/// Burst windows `[on, off]` reconstructed from the adaptive run's
/// `AdmissionModeChanged` transitions. The workload trace is identical
/// across the three policies (same seed), so the windows classify all
/// three runs.
fn burst_windows(events: &[TelemetryEvent], horizon: SimTime) -> Vec<(SimTime, SimTime)> {
    let mut windows = Vec::new();
    let mut started = None;
    for ev in events {
        if let EventKind::AdmissionModeChanged { hpa_enabled, .. } = ev.kind {
            match (hpa_enabled, started) {
                (true, None) => started = Some(ev.at),
                (false, Some(on)) => {
                    windows.push((on, ev.at));
                    started = None;
                }
                _ => {}
            }
        }
    }
    if let Some(on) = started {
        windows.push((on, horizon));
    }
    windows
}

fn in_burst(windows: &[(SimTime, SimTime)], at: SimTime) -> bool {
    // `off` inclusive: the disengaging release itself is tested (and can be
    // rejected) at the same instant the mode-change event is stamped.
    windows.iter().any(|&(on, off)| at >= on && at <= off)
}

/// Per-phase high-priority tallies of one run. Rejections are counted from
/// `AdmissionRejected` (the admission test actually failing a release) —
/// `JobRejected` also fires for jobs cut off by the end of the simulated
/// horizon, which is a measurement artifact, not policy.
#[derive(Default)]
struct PhaseTally {
    burst_done: u64,
    burst_missed: u64,
    calm_done: u64,
    calm_missed: u64,
    burst_rejected: u64,
    calm_rejected: u64,
}

impl PhaseTally {
    fn classify(events: &[TelemetryEvent], windows: &[(SimTime, SimTime)]) -> Self {
        let mut t = PhaseTally::default();
        for ev in events {
            match ev.kind {
                EventKind::JobCompleted { priority: Priority::High, missed, .. } => {
                    if in_burst(windows, ev.at) {
                        t.burst_done += 1;
                        t.burst_missed += u64::from(missed);
                    } else {
                        t.calm_done += 1;
                        t.calm_missed += u64::from(missed);
                    }
                }
                EventKind::AdmissionRejected { priority: Priority::High, .. } => {
                    if in_burst(windows, ev.at) {
                        t.burst_rejected += 1;
                    } else {
                        t.calm_rejected += 1;
                    }
                }
                _ => {}
            }
        }
        t
    }

    fn burst_dmr(&self) -> f64 {
        if self.burst_done == 0 {
            0.0
        } else {
            self.burst_missed as f64 / self.burst_done as f64
        }
    }

    fn calm_dmr(&self) -> f64 {
        if self.calm_done == 0 {
            0.0
        } else {
            self.calm_missed as f64 / self.calm_done as f64
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: burst-triggered HPA on a single GPU ----------------------
    let horizon = SimTime::from_millis(500);
    let partition = GpuPartition::mps(6, 6.0);
    // Full nominal load at 90% high-priority share: feasible when calm, an
    // overload whenever the diurnal crest multiplies the rate.
    let taskset = TaskSet::with_ratio(DnnKind::ResNet18, RatioScenario::FullLoad, 0.9);
    let spec = RunSpec::generated(diurnal(0.6)).until(horizon);

    let run = |config: DarisConfig| -> Result<Vec<TelemetryEvent>, Box<dyn std::error::Error>> {
        let sink = MemorySink::unbounded();
        let mut scheduler =
            DarisScheduler::new(&taskset, config.with_sink(SinkHandle::new(sink.clone())))?;
        scheduler.run(&spec)?;
        Ok(sink.events())
    };

    let off_events = run(DarisConfig::new(partition))?;
    let hpa_events = run(DarisConfig::new(partition).with_hp_admission())?;
    // A 5 ms detector window: the default 20 ms engages the admission test a
    // full window after a crest begins, long enough for lag-admitted jobs
    // to miss; narrower windows track the 100 ms cycle closely.
    let detector =
        LoadDetectorConfig { window: SimDuration::from_millis(5), ..LoadDetectorConfig::default() };
    let adaptive_events = run(DarisConfig::new(partition).with_adaptive_hpa(detector))?;

    let windows = burst_windows(&adaptive_events, horizon);
    assert!(!windows.is_empty(), "the diurnal crests must trip the detector at least once");

    let off = PhaseTally::classify(&off_events, &windows);
    let hpa = PhaseTally::classify(&hpa_events, &windows);
    let adaptive = PhaseTally::classify(&adaptive_events, &windows);

    let mut table = Table::new(format!(
        "High-priority service by phase — ResNet18 full load 90% HP, \
         diurnal +/-60%, {} burst window(s)",
        windows.len()
    ));
    table.set_headers(["policy", "HP DMR burst", "HP DMR calm", "HP rej burst", "HP rej calm"]);
    for (name, t) in [("admission off", &off), ("static HPA", &hpa), ("adaptive HPA", &adaptive)] {
        table.add_row([
            name.to_owned(),
            format!("{:.2}%", t.burst_dmr() * 100.0),
            format!("{:.2}%", t.calm_dmr() * 100.0),
            t.burst_rejected.to_string(),
            t.calm_rejected.to_string(),
        ]);
    }
    println!("{table}");

    // The tentpole's two-sided claim: burst-phase HP protection within 1.1x
    // of the always-on admission test, strictly fewer calm-phase HP drops.
    assert!(
        adaptive.burst_dmr() <= hpa.burst_dmr() * 1.1 + 1e-9,
        "adaptive burst-phase HP DMR {:.4} exceeds 1.1x static HPA {:.4}",
        adaptive.burst_dmr(),
        hpa.burst_dmr()
    );
    assert!(
        adaptive.calm_rejected < hpa.calm_rejected,
        "adaptive must shed fewer calm-phase HP jobs than static HPA ({} vs {})",
        adaptive.calm_rejected,
        hpa.calm_rejected
    );
    println!(
        "Burst phases: adaptive HP DMR {:.2}% vs static HPA {:.2}% (within 1.1x). \
         Calm phases: adaptive rejected {} HP jobs vs static HPA's {} — the detector \
         disengages the admission test once the crest passes, so nominal-load work \
         the GPU can serve is served instead of shed.\n",
        adaptive.burst_dmr() * 100.0,
        hpa.burst_dmr() * 100.0,
        adaptive.calm_rejected,
        hpa.calm_rejected
    );

    // ---- Part 2: fleet autoscaling + elastic quantum under diurnal load ---
    let fleet_horizon = SimTime::from_millis(300);
    let fleet_taskset = TaskSet::table2(DnnKind::ResNet18);
    let sink = MemorySink::unbounded();
    let config = ClusterConfig {
        adaptive_hpa: Some(LoadDetectorConfig::default()),
        elastic_quantum: Some(ElasticQuantum::default()),
        autoscale: Some(AutoscaleConfig {
            min_devices: 2,
            scale_up_ratio: 0.4,
            scale_down_ratio: 0.2,
            epoch: 4,
        }),
        sink: Some(SinkHandle::new(sink.clone())),
        ..ClusterConfig::default()
    };
    let fleet = ClusterSpec::homogeneous(8, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    let mut dispatcher = ClusterDispatcher::new(&fleet_taskset, fleet, config)?;
    let outcome = dispatcher.run(&RunSpec::generated(diurnal(0.9)).until(fleet_horizon))?;

    let events = sink.events();
    let (mut drains, mut joins, mut quantum_changes, mut mode_flips) = (0u64, 0u64, 0u64, 0u64);
    let mut quantum_span: Option<(SimDuration, SimDuration)> = None;
    for ev in &events {
        match ev.kind {
            EventKind::DeviceDrained { .. } => drains += 1,
            EventKind::DeviceJoined { .. } => joins += 1,
            EventKind::QuantumChanged { quantum, .. } => {
                quantum_changes += 1;
                quantum_span = Some(match quantum_span {
                    None => (quantum, quantum),
                    Some((lo, hi)) => (lo.min(quantum), hi.max(quantum)),
                });
            }
            EventKind::AdmissionModeChanged { .. } => mode_flips += 1,
            _ => {}
        }
    }
    let s = &outcome.summary;
    println!(
        "Diurnal fleet (8x RTX 2080 Ti, coherent 100 ms cycle, 300 ms horizon): \
         {} jobs completed at {:.0} JPS, HP DMR {:.2}%.",
        s.total.completed,
        s.throughput_jps,
        s.high.deadline_miss_rate * 100.0
    );
    println!(
        "Autoscaler: {drains} drain(s) through the troughs, {joins} rejoin(s) under the \
         crests (floor 2 devices). Elastic quantum: {quantum_changes} change(s){}; \
         per-device admission mode flipped {mode_flips} time(s).",
        quantum_span
            .map(|(lo, hi)| format!(
                ", spanning {:.0}-{:.0} us",
                lo.as_micros_f64(),
                hi.as_micros_f64()
            ))
            .unwrap_or_default()
    );
    assert!(drains > 0 && joins > 0, "the diurnal swing must move the fleet");
    assert!(quantum_changes > 0, "the elastic quantum must track the swing");
    Ok(())
}
