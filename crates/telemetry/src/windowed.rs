//! Time-windowed aggregation: arrival rates, queue depths, rolling DMR and
//! per-device utilization, bucketed into fixed sim-time windows.
//!
//! Instead of one end-of-run scalar per metric, every window gets its own
//! gauge values, so a burst shows up as the windows where high-priority
//! queue depth spikes and the rolling deadline-miss rate collapses.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use daris_gpu::{DeviceEvent, SimDuration, SimTime};
use daris_workload::Priority;

use crate::event::{EventKind, TelemetryEvent};
use crate::TelemetrySink;

/// A sink that aggregates events into fixed-width sim-time windows.
///
/// Cloning shares the accumulator: keep one clone, hand another to
/// [`SinkHandle::new`](crate::SinkHandle::new), and call
/// [`snapshots`](WindowedMetrics::snapshots) after the run.
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    state: Arc<Mutex<WindowedState>>,
}

#[derive(Debug)]
struct WindowedState {
    window: SimDuration,
    accums: BTreeMap<u64, WindowAccum>,
    /// Currently admitted-but-not-completed jobs per priority.
    hp_depth: u32,
    lp_depth: u32,
    /// Piecewise-constant utilization trackers per device.
    util: BTreeMap<u32, UtilTrack>,
}

#[derive(Debug, Clone, Copy)]
struct UtilTrack {
    since: SimTime,
    value: f64,
}

#[derive(Debug, Clone, Default)]
struct WindowAccum {
    hp_arrivals: u32,
    lp_arrivals: u32,
    hp_rejected: u32,
    lp_rejected: u32,
    hp_completed: u32,
    lp_completed: u32,
    hp_missed: u32,
    lp_missed: u32,
    hp_depth_peak: u32,
    lp_depth_peak: u32,
    /// Per-device `∫ utilization dt`, expressed in window-widths (a device
    /// fully busy for a whole window contributes 1.0).
    util_weighted: BTreeMap<u32, f64>,
}

/// Aggregated gauges for one sim-time window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Zero-based window index.
    pub index: u64,
    /// Window start time.
    pub start: SimTime,
    /// High-priority admission attempts (accepted + rejected) in the window.
    pub hp_arrivals: u32,
    /// Low-priority admission attempts in the window.
    pub lp_arrivals: u32,
    /// High-priority jobs finally dropped in the window.
    pub hp_rejected: u32,
    /// Low-priority jobs finally dropped in the window.
    pub lp_rejected: u32,
    /// High-priority jobs completed in the window.
    pub hp_completed: u32,
    /// Low-priority jobs completed in the window.
    pub lp_completed: u32,
    /// High-priority completions that missed their deadline.
    pub hp_missed: u32,
    /// Low-priority completions that missed their deadline.
    pub lp_missed: u32,
    /// Peak concurrently-admitted high-priority jobs during the window.
    pub hp_depth_peak: u32,
    /// Peak concurrently-admitted low-priority jobs during the window.
    pub lp_depth_peak: u32,
    /// Rolling high-priority deadline-miss rate (misses / completions).
    pub hp_dmr: f64,
    /// Rolling low-priority deadline-miss rate.
    pub lp_dmr: f64,
    /// Mean SM utilization across all devices seen, averaged over the window.
    pub mean_utilization: f64,
}

/// `part / whole` as a float fraction (both in raw integer units).
fn fraction(part: u64, whole: u64) -> f64 {
    let p = part;
    let w = whole.max(1);
    (p as f64) / (w as f64)
}

fn rate(missed: u32, completed: u32) -> f64 {
    if completed == 0 {
        0.0
    } else {
        f64::from(missed) / f64::from(completed)
    }
}

impl WindowedMetrics {
    /// Aggregates into windows of the given width.
    pub fn new(window: SimDuration) -> Self {
        let width = if window.is_zero() { SimDuration::from_millis(1) } else { window };
        WindowedMetrics {
            state: Arc::new(Mutex::new(WindowedState {
                window: width,
                accums: BTreeMap::new(),
                hp_depth: 0,
                lp_depth: 0,
                util: BTreeMap::new(),
            })),
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.lock().window
    }

    fn lock(&self) -> MutexGuard<'_, WindowedState> {
        self.state.lock().expect("windowed metrics lock poisoned")
    }

    /// Snapshots of every window from time zero up to `horizon`, in order.
    /// Windows with no activity are included (all-zero gauges), so the result
    /// is a contiguous time series.
    pub fn snapshots(&self, horizon: SimTime) -> Vec<WindowSnapshot> {
        let state = self.lock();
        let width = state.window.as_nanos().max(1);
        let mut accums = state.accums.clone();
        // Flush the still-open utilization segments up to the horizon.
        for (device, track) in &state.util {
            integrate(&mut accums, width, *device, track.since, horizon, track.value);
        }
        let devices = state.util.len().max(1);
        let end = horizon.as_nanos().max(1);
        let count = end.div_ceil(width);
        let mut out = Vec::new();
        for index in 0..count {
            let acc = accums.get(&index).cloned().unwrap_or_default();
            let mut util_sum = 0.0;
            for weighted in acc.util_weighted.values() {
                util_sum += weighted;
            }
            let share = {
                let n = devices;
                util_sum / (n as f64)
            };
            out.push(WindowSnapshot {
                index,
                start: SimTime::from_nanos(index * width),
                hp_arrivals: acc.hp_arrivals,
                lp_arrivals: acc.lp_arrivals,
                hp_rejected: acc.hp_rejected,
                lp_rejected: acc.lp_rejected,
                hp_completed: acc.hp_completed,
                lp_completed: acc.lp_completed,
                hp_missed: acc.hp_missed,
                lp_missed: acc.lp_missed,
                hp_depth_peak: acc.hp_depth_peak,
                lp_depth_peak: acc.lp_depth_peak,
                hp_dmr: rate(acc.hp_missed, acc.hp_completed),
                lp_dmr: rate(acc.lp_missed, acc.lp_completed),
                mean_utilization: share,
            });
        }
        out
    }

    /// Renders the snapshot series as a fixed-width text table.
    pub fn render_table(&self, horizon: SimTime) -> String {
        let mut out = String::new();
        out.push_str(
            "  window      t(ms)  arr HP/LP  depth HP/LP  rej HP/LP  done HP/LP   HP DMR   util\n",
        );
        for snap in self.snapshots(horizon) {
            out.push_str(&format!(
                "  {:>6} {:>10.1} {:>5}/{:<5} {:>6}/{:<5} {:>5}/{:<4} {:>5}/{:<5} {:>7.1}% {:>5.1}%\n",
                snap.index,
                snap.start.as_millis_f64(),
                snap.hp_arrivals,
                snap.lp_arrivals,
                snap.hp_depth_peak,
                snap.lp_depth_peak,
                snap.hp_rejected,
                snap.lp_rejected,
                snap.hp_completed,
                snap.lp_completed,
                snap.hp_dmr * 100.0,
                snap.mean_utilization * 100.0,
            ));
        }
        out
    }
}

/// Distributes `value · dt` over the windows covered by `[from, to)`.
fn integrate(
    accums: &mut BTreeMap<u64, WindowAccum>,
    width: u64,
    device: u32,
    from: SimTime,
    to: SimTime,
    value: f64,
) {
    let start = from.as_nanos();
    let end = to.as_nanos();
    if end <= start {
        return;
    }
    let mut cursor = start;
    while cursor < end {
        let index = cursor / width;
        let boundary = (index + 1).saturating_mul(width).min(end);
        let covered = fraction(boundary - cursor, width);
        let acc = accums.entry(index).or_default();
        *acc.util_weighted.entry(device).or_insert(0.0) += value * covered;
        cursor = boundary;
    }
}

impl WindowedState {
    fn accum(&mut self, at: SimTime) -> &mut WindowAccum {
        let width = self.window.as_nanos().max(1);
        let index = at.as_nanos() / width;
        self.accums.entry(index).or_default()
    }

    fn bump_depth_peaks(&mut self, at: SimTime) {
        let hp = self.hp_depth;
        let lp = self.lp_depth;
        let acc = self.accum(at);
        acc.hp_depth_peak = acc.hp_depth_peak.max(hp);
        acc.lp_depth_peak = acc.lp_depth_peak.max(lp);
    }
}

impl TelemetrySink for WindowedMetrics {
    fn record(&mut self, event: &TelemetryEvent) {
        let mut state = self.lock();
        let at = event.at;
        match &event.kind {
            EventKind::AdmissionAccepted { priority, .. } => {
                match priority {
                    Priority::High => {
                        state.accum(at).hp_arrivals += 1;
                        state.hp_depth += 1;
                    }
                    Priority::Low => {
                        state.accum(at).lp_arrivals += 1;
                        state.lp_depth += 1;
                    }
                }
                state.bump_depth_peaks(at);
            }
            EventKind::AdmissionRejected { priority, .. } => match priority {
                Priority::High => state.accum(at).hp_arrivals += 1,
                Priority::Low => state.accum(at).lp_arrivals += 1,
            },
            EventKind::JobRejected { priority, .. } => match priority {
                Priority::High => state.accum(at).hp_rejected += 1,
                Priority::Low => state.accum(at).lp_rejected += 1,
            },
            EventKind::JobCompleted { priority, missed, .. } => {
                match priority {
                    Priority::High => {
                        state.accum(at).hp_completed += 1;
                        if *missed {
                            state.accum(at).hp_missed += 1;
                        }
                        state.hp_depth = state.hp_depth.saturating_sub(1);
                    }
                    Priority::Low => {
                        state.accum(at).lp_completed += 1;
                        if *missed {
                            state.accum(at).lp_missed += 1;
                        }
                        state.lp_depth = state.lp_depth.saturating_sub(1);
                    }
                }
                state.bump_depth_peaks(at);
            }
            EventKind::Device(DeviceEvent::Replan { utilization, .. }) => {
                let width = state.window.as_nanos().max(1);
                let device = event.device;
                let prev = state.util.insert(device, UtilTrack { since: at, value: *utilization });
                if let Some(track) = prev {
                    integrate(&mut state.accums, width, device, track.since, at, track.value);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_workload::TaskId;

    fn ev(at_ms: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: SimTime::from_millis(at_ms), device: 0, kind }
    }

    fn completed(at_ms: u64, missed: bool) -> TelemetryEvent {
        ev(
            at_ms,
            EventKind::JobCompleted {
                task: TaskId(0),
                release_index: 0,
                priority: Priority::High,
                missed,
                response: SimDuration::from_millis(1),
            },
        )
    }

    fn admitted(at_ms: u64) -> TelemetryEvent {
        ev(
            at_ms,
            EventKind::AdmissionAccepted {
                task: TaskId(0),
                release_index: 0,
                priority: Priority::High,
                context: 0,
                migrated: false,
            },
        )
    }

    #[test]
    fn windows_bucket_arrivals_and_dmr() {
        let mut sink = WindowedMetrics::new(SimDuration::from_millis(10));
        sink.record(&admitted(1));
        sink.record(&admitted(2));
        sink.record(&completed(5, false));
        sink.record(&completed(12, true));
        let snaps = sink.snapshots(SimTime::from_millis(20));
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].hp_arrivals, 2);
        assert_eq!(snaps[0].hp_completed, 1);
        assert_eq!(snaps[0].hp_dmr, 0.0);
        assert_eq!(snaps[0].hp_depth_peak, 2);
        assert_eq!(snaps[1].hp_completed, 1);
        assert_eq!(snaps[1].hp_missed, 1);
        assert_eq!(snaps[1].hp_dmr, 1.0);
    }

    #[test]
    fn utilization_integrates_across_window_boundaries() {
        let mut sink = WindowedMetrics::new(SimDuration::from_millis(10));
        // 50% utilization from t=0 to t=15ms, then 100% to t=20ms.
        sink.record(&ev(
            0,
            EventKind::Device(DeviceEvent::Replan { computing: 1, utilization: 0.5 }),
        ));
        sink.record(&ev(
            15,
            EventKind::Device(DeviceEvent::Replan { computing: 2, utilization: 1.0 }),
        ));
        let snaps = sink.snapshots(SimTime::from_millis(20));
        assert_eq!(snaps.len(), 2);
        assert!((snaps[0].mean_utilization - 0.5).abs() < 1e-9);
        // Window 1: 5ms at 50% + 5ms at 100% = 75%.
        assert!((snaps[1].mean_utilization - 0.75).abs() < 1e-9);
    }

    #[test]
    fn table_renders_one_row_per_window() {
        let mut sink = WindowedMetrics::new(SimDuration::from_millis(10));
        sink.record(&admitted(1));
        let table = sink.render_table(SimTime::from_millis(30));
        assert_eq!(table.lines().count(), 4, "header + 3 windows:\n{table}");
        assert!(table.contains("HP DMR"));
    }
}
