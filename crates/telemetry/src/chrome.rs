//! Chrome trace-event JSON exporter.
//!
//! Emits the subset of the Trace Event Format that Perfetto and
//! `chrome://tracing` load: `M` metadata naming processes and threads, `X`
//! complete spans (work items, device round spans), `i` instants (admission
//! decisions, stage boundaries, misses, migrations) and `C` counters (SM
//! utilization after each replan). One *process* per device — fleet-level
//! events get a synthetic `cluster` process — and within a device one
//! *thread* per MPS context plus scheduler, copy-engine and round tracks.
//!
//! The JSON is hand-rolled (the workspace deliberately has no serde) and
//! fully deterministic: event order is record order, map iteration is over
//! `BTreeMap`/`BTreeSet`, and timestamps are formatted from integer
//! nanoseconds. The output is pinned byte-for-byte by a golden fixture.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use daris_gpu::{DeviceEvent, SimTime};

use crate::event::{EventKind, TelemetryEvent, CLUSTER_DEVICE, RACK_DEVICE_BASE};
use crate::TelemetrySink;

/// Version tag written into the top-level `schemaVersion` field. Bump when
/// the track layout or event naming changes incompatibly.
pub const CHROME_SCHEMA_VERSION: &str = "daris-chrome-trace/1";

/// Synthetic thread ids within a device process. Context tracks start at
/// [`TID_CONTEXT_BASE`] so they never collide with the fixed tracks.
const TID_SCHEDULER: u32 = 0;
const TID_COPY: u32 = 1;
const TID_ROUNDS: u32 = 2;
const TID_CONTEXT_BASE: u32 = 10;

/// Fleet-level tracks in the synthetic `cluster` process.
const TID_PHASES: u32 = 0;
const TID_PLACEMENT: u32 = 1;

/// A sink that buffers events and serializes them to Chrome trace-event
/// JSON via [`to_json`](ChromeTraceSink::to_json). Cloning shares the
/// buffer, like [`MemorySink`](crate::MemorySink).
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    state: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl ChromeTraceSink {
    /// An empty exporter.
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.state.lock().expect("chrome sink lock poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes everything recorded so far to a Chrome trace-event JSON
    /// document. Deterministic: same events in, same bytes out.
    pub fn to_json(&self) -> String {
        let events = self.state.lock().expect("chrome sink lock poisoned").clone();
        export(&events)
    }
}

impl TelemetrySink for ChromeTraceSink {
    fn record(&mut self, event: &TelemetryEvent) {
        self.state.lock().expect("chrome sink lock poisoned").push(event.clone());
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        self.state.lock().expect("chrome sink lock poisoned").append(events);
    }
}

/// Timestamp field: microseconds with nanosecond precision, formatted from
/// integer nanoseconds so no float rounding is involved.
fn ts(at: SimTime) -> String {
    let raw = at.as_nanos();
    format!("{}.{:03}", raw / 1_000, raw % 1_000)
}

/// Span duration field, same formatting as [`ts`].
fn dur(from: SimTime, to: SimTime) -> String {
    let raw = to.as_nanos().saturating_sub(from.as_nanos());
    format!("{}.{:03}", raw / 1_000, raw % 1_000)
}

/// Minimal JSON string escaping for event names and labels.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn pid_of(device: u32) -> u64 {
    u64::from(device)
}

/// Whether a pid falls in the synthetic rack-track range (see
/// [`RACK_DEVICE_BASE`]).
fn is_rack_pid(pid: u64) -> bool {
    pid >= u64::from(RACK_DEVICE_BASE) && pid != pid_of(CLUSTER_DEVICE)
}

struct Exporter {
    lines: Vec<String>,
    /// Every (pid, tid) pair seen, for thread_name metadata.
    threads: BTreeSet<(u64, u32)>,
    /// Open work-item spans keyed by (device, tag).
    open_items: BTreeMap<(u32, u64), (SimTime, u32, u32)>,
}

impl Exporter {
    fn instant(&mut self, at: SimTime, pid: u64, tid: u32, name: &str, args: &str) {
        self.threads.insert((pid, tid));
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
            escape(name),
            ts(at),
            pid,
            tid,
            args
        ));
    }

    fn span(&mut self, from: SimTime, to: SimTime, pid: u64, tid: u32, name: &str, args: &str) {
        self.threads.insert((pid, tid));
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
            escape(name),
            ts(from),
            dur(from, to),
            pid,
            tid,
            args
        ));
    }

    fn counter(&mut self, at: SimTime, pid: u64, name: &str, args: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{{}}}}}",
            escape(name),
            ts(at),
            pid,
            args
        ));
    }

    fn push(&mut self, ev: &TelemetryEvent) {
        let pid = pid_of(ev.device);
        match &ev.kind {
            EventKind::Device(DeviceEvent::CopyInStarted { tag, stream, context }) => self.instant(
                ev.at,
                pid,
                TID_COPY,
                "copy-in",
                &format!("\"tag\":{tag},\"stream\":{stream},\"ctx\":{context}"),
            ),
            EventKind::Device(DeviceEvent::CopyOutStarted { tag, stream, context }) => self
                .instant(
                    ev.at,
                    pid,
                    TID_COPY,
                    "copy-out",
                    &format!("\"tag\":{tag},\"stream\":{stream},\"ctx\":{context}"),
                ),
            EventKind::Device(DeviceEvent::ItemStarted { tag, stream, context }) => {
                self.open_items.insert((ev.device, *tag), (ev.at, *context, *stream));
            }
            EventKind::Device(DeviceEvent::KernelFinished { tag, stream: _, context, label }) => {
                let name = label.as_deref().unwrap_or("kernel");
                self.instant(
                    ev.at,
                    pid,
                    TID_CONTEXT_BASE + context,
                    name,
                    &format!("\"tag\":{tag}"),
                );
            }
            EventKind::Device(DeviceEvent::ItemFinished { tag, stream, context }) => {
                match self.open_items.remove(&(ev.device, *tag)) {
                    Some((started, ctx, strm)) => self.span(
                        started,
                        ev.at,
                        pid,
                        TID_CONTEXT_BASE + ctx,
                        &format!("item#{tag}"),
                        &format!("\"tag\":{tag},\"stream\":{strm}"),
                    ),
                    None => self.instant(
                        ev.at,
                        pid,
                        TID_CONTEXT_BASE + context,
                        &format!("item#{tag} finish"),
                        &format!("\"tag\":{tag},\"stream\":{stream}"),
                    ),
                }
            }
            EventKind::Device(DeviceEvent::Replan { computing, utilization }) => {
                self.counter(
                    ev.at,
                    pid,
                    "sm-utilization",
                    &format!("\"busy\":{computing},\"utilization\":{utilization:.4}"),
                );
            }
            EventKind::AdmissionAccepted { task, release_index, priority, context, migrated } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("admit {task}#{release_index}"),
                    &format!("\"prio\":\"{priority}\",\"ctx\":{context},\"migrated\":{migrated}"),
                );
            }
            EventKind::AdmissionRejected { task, release_index, priority, test } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("reject {task}#{release_index} ({test})"),
                    &format!("\"prio\":\"{priority}\""),
                );
            }
            EventKind::JobRejected { task, release_index, priority } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("drop {task}#{release_index}"),
                    &format!("\"prio\":\"{priority}\""),
                );
            }
            EventKind::StageDispatched {
                task,
                release_index,
                stage,
                stage_count,
                context,
                stream,
                tag,
            } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("dispatch {task}#{release_index} s{stage}/{stage_count}"),
                    &format!("\"ctx\":{context},\"stream\":{stream},\"tag\":{tag}"),
                );
            }
            EventKind::StageBoundary { task, release_index, completed_stage, missed_virtual } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("stage-boundary {task}#{release_index} s{completed_stage}"),
                    &format!("\"missed_virtual\":{missed_virtual}"),
                );
            }
            EventKind::JobCompleted { task, release_index, priority, missed, response } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("complete {task}#{release_index}"),
                    &format!(
                        "\"prio\":\"{priority}\",\"missed\":{missed},\"response_us\":{}",
                        ts(SimTime::from(*response))
                    ),
                );
            }
            EventKind::DeadlineMissed { task, release_index, priority } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("miss {task}#{release_index}"),
                    &format!("\"prio\":\"{priority}\""),
                );
            }
            EventKind::AdmissionModeChanged { hpa_enabled, load_ratio } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    &format!("hpa {}", if *hpa_enabled { "on" } else { "off" }),
                    &format!("\"hpa_enabled\":{hpa_enabled},\"load_ratio\":{load_ratio}"),
                );
            }
            EventKind::DeviceSpan { from, to } => {
                self.span(*from, *to, pid, TID_ROUNDS, "round-span", "");
            }
            EventKind::PhaseMark { round, phase, detail } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PHASES,
                    &format!("{phase} r{round}"),
                    &format!("\"round\":{round},\"detail\":{detail}"),
                );
            }
            EventKind::RetryAttempt { task, release_index, home, target, admitted } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    &format!("retry {task}#{release_index} d{home}->d{target}"),
                    &format!("\"admitted\":{admitted}"),
                );
            }
            EventKind::Migration { task, release_index, from, to } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    &format!("migrate {task}#{release_index} d{from}->d{to}"),
                    "",
                );
            }
            EventKind::RackLoad { rack, round, backlog, idle_streams } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PHASES,
                    &format!("rack{rack} load r{round}"),
                    &format!("\"backlog\":{backlog},\"idle_streams\":{idle_streams}"),
                );
            }
            EventKind::RackMigration { task, release_index, from, to, from_rack, to_rack } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    &format!(
                        "rack-migrate {task}#{release_index} d{from}->d{to} (r{from_rack}->r{to_rack})"
                    ),
                    "",
                );
            }
            EventKind::QuantumChanged { round, quantum, load } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PHASES,
                    &format!("quantum r{round}"),
                    &format!("\"quantum_us\":{},\"load\":{load}", quantum.as_micros_f64()),
                );
            }
            EventKind::DeviceJoined { device, round, online } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    &format!("join d{device} r{round}"),
                    &format!("\"online\":{online}"),
                );
            }
            EventKind::DeviceDrained { device, round, online, moved } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    &format!("drain d{device} r{round}"),
                    &format!("\"online\":{online},\"moved\":{moved}"),
                );
            }
        }
    }
}

fn thread_name(pid: u64, tid: u32) -> String {
    if pid == pid_of(CLUSTER_DEVICE) {
        return match tid {
            TID_PHASES => "round-phases".to_string(),
            TID_PLACEMENT => "placement".to_string(),
            other => format!("track{other}"),
        };
    }
    if is_rack_pid(pid) {
        return match tid {
            TID_PHASES => "load".to_string(),
            other => format!("track{other}"),
        };
    }
    match tid {
        TID_SCHEDULER => "scheduler".to_string(),
        TID_COPY => "copy-engine".to_string(),
        TID_ROUNDS => "rounds".to_string(),
        other if other >= TID_CONTEXT_BASE => format!("ctx{}", other - TID_CONTEXT_BASE),
        other => format!("track{other}"),
    }
}

fn export(events: &[TelemetryEvent]) -> String {
    let mut exporter =
        Exporter { lines: Vec::new(), threads: BTreeSet::new(), open_items: BTreeMap::new() };
    for ev in events {
        exporter.push(ev);
    }

    let mut meta: Vec<String> = Vec::new();
    let pids: BTreeSet<u64> = exporter.threads.iter().map(|(pid, _)| *pid).collect();
    for pid in &pids {
        let name = if *pid == pid_of(CLUSTER_DEVICE) {
            "cluster".to_string()
        } else if is_rack_pid(*pid) {
            format!("rack{}", pid - u64::from(RACK_DEVICE_BASE))
        } else {
            format!("device{pid}")
        };
        meta.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for (pid, tid) in &exporter.threads {
        let name = thread_name(*pid, *tid);
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    let mut out = String::new();
    out.push_str("{\"schemaVersion\":\"");
    out.push_str(CHROME_SCHEMA_VERSION);
    out.push_str("\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let total = meta.len() + exporter.lines.len();
    for (i, line) in meta.iter().chain(exporter.lines.iter()).enumerate() {
        out.push_str("  ");
        out.push_str(line);
        if i + 1 < total {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AdmissionTest, RoundPhase};
    use daris_workload::{Priority, TaskId};

    fn sample_events() -> Vec<TelemetryEvent> {
        use EventKind::*;
        let t = |us| SimTime::from_micros(us);
        vec![
            TelemetryEvent {
                at: t(0),
                device: 0,
                kind: AdmissionAccepted {
                    task: TaskId(0),
                    release_index: 0,
                    priority: Priority::High,
                    context: 1,
                    migrated: false,
                },
            },
            TelemetryEvent {
                at: t(1),
                device: 0,
                kind: Device(DeviceEvent::CopyInStarted { tag: 7, stream: 2, context: 1 }),
            },
            TelemetryEvent {
                at: t(2),
                device: 0,
                kind: Device(DeviceEvent::ItemStarted { tag: 7, stream: 2, context: 1 }),
            },
            TelemetryEvent {
                at: t(5),
                device: 0,
                kind: Device(DeviceEvent::ItemFinished { tag: 7, stream: 2, context: 1 }),
            },
            TelemetryEvent {
                at: t(5),
                device: 0,
                kind: Device(DeviceEvent::Replan { computing: 1, utilization: 0.5 }),
            },
            TelemetryEvent {
                at: t(6),
                device: 1,
                kind: AdmissionRejected {
                    task: TaskId(3),
                    release_index: 2,
                    priority: Priority::Low,
                    test: AdmissionTest::LpUtilization,
                },
            },
            TelemetryEvent {
                at: t(8),
                device: CLUSTER_DEVICE,
                kind: PhaseMark { round: 0, phase: RoundPhase::Retry, detail: 1 },
            },
        ]
    }

    #[test]
    fn schema_is_versioned_and_structurally_valid() {
        let mut sink = ChromeTraceSink::new();
        for ev in sample_events() {
            sink.record(&ev);
        }
        let json = sink.to_json();
        assert!(json.starts_with("{\"schemaVersion\":\"daris-chrome-trace/1\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"traceEvents\":["));
        // Every event object carries the mandatory fields.
        for line in json.lines().filter(|l| l.starts_with("  {")) {
            let l = line.trim();
            assert!(l.contains("\"ph\":\""), "missing ph in {l}");
            assert!(l.contains("\"pid\":"), "missing pid in {l}");
            assert!(l.contains("\"tid\":"), "missing tid in {l}");
        }
        // Balanced braces/brackets as a cheap structural check (no serde).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn item_start_finish_pairs_become_complete_spans() {
        let mut sink = ChromeTraceSink::new();
        for ev in sample_events() {
            sink.record(&ev);
        }
        let json = sink.to_json();
        assert!(json.contains("\"name\":\"item#7\",\"ph\":\"X\",\"ts\":2.000,\"dur\":3.000"));
        // The replan surfaces as a counter track.
        assert!(json.contains("\"name\":\"sm-utilization\",\"ph\":\"C\""));
        // Named processes for devices and the cluster.
        assert!(json.contains("\"name\":\"device0\""));
        assert!(json.contains("\"name\":\"device1\""));
        assert!(json.contains("\"name\":\"cluster\""));
        // The failing admission test is named.
        assert!(json.contains("reject \u{3c4}3#2 (Eq. 11)"));
    }

    #[test]
    fn timestamps_are_integer_nanosecond_exact() {
        assert_eq!(ts(SimTime::from_nanos(1_234_567)), "1234.567");
        assert_eq!(ts(SimTime::ZERO), "0.000");
        assert_eq!(dur(SimTime::from_nanos(500), SimTime::from_nanos(1_750)), "1.250");
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
