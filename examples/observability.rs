//! Observability: watch a bursty run through the telemetry layer instead of
//! the end-of-run summary. A `WindowedMetrics` sink buckets the event stream
//! into fixed sim-time windows, turning "the run had 4% HP DMR" into "the
//! misses all landed in the three windows where the burst hit" — the signal
//! shape a burst-triggered load detector consumes.
//!
//! All timestamps are simulated time, so everything printed here is
//! byte-identical on every machine. (Wall-clock profiling is a separate,
//! explicitly nondeterministic channel — see `WallClockProfiler`.)
//!
//! Run with:
//!
//! ```text
//! cargo run --example observability
//! ```

use daris::core::{DarisConfig, DarisScheduler, GpuPartition, Scheduler};
use daris::gpu::{SimDuration, SimTime};
use daris::models::DnnKind;
use daris::telemetry::{DeviceEvent, EventKind, MemorySink, SinkHandle, WindowedMetrics};
use daris::workload::{BurstyConfig, GenSpec, TaskSet};

const HORIZON_MS: u64 = 300;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let taskset = TaskSet::table2(DnnKind::UNet);
    let horizon = SimTime::from_millis(HORIZON_MS);
    let partition = GpuPartition::mps(6, 6.0);
    let bursty = GenSpec::Bursty(BurstyConfig::default());

    // --- time-resolved view of a bursty run -------------------------------
    let windows = WindowedMetrics::new(SimDuration::from_millis(25));
    let config = DarisConfig::new(partition).with_sink(SinkHandle::new(windows.clone()));
    let mut scheduler = DarisScheduler::new(&taskset, config)?;
    let mut stream = bursty.stream(&taskset, horizon);
    let outcome = scheduler.run_with_source(&mut stream, horizon);

    println!(
        "bursty UNet on MPS 6x1 OS6, {HORIZON_MS} ms: {} completed, HP DMR {:.1}%, \
         {} rejected overall\n",
        outcome.summary.total.completed,
        100.0 * outcome.summary.high.deadline_miss_rate,
        outcome.summary.high.rejected + outcome.summary.low.rejected,
    );
    println!("per-25ms windows (peak queue depth, rejections, completions, rolling DMR):");
    print!("{}", windows.render_table(horizon));
    println!(
        "\nThe summary's single DMR number averages over the whole horizon; the windows\n\
         show the structure underneath — queue depth and the rolling miss rate climb\n\
         where the generator's on-segments land. (Final drops are accounted at the end\n\
         of the span, so the rejection column books them in the last window.)\n"
    );

    // --- the raw event stream underneath ----------------------------------
    // The same run observed by a ring-buffer sink: every admission verdict,
    // stage dispatch, kernel completion and water-filling replan, in order.
    let events = MemorySink::unbounded();
    let config = DarisConfig::new(partition).with_sink(SinkHandle::new(events.clone()));
    let mut scheduler = DarisScheduler::new(&taskset, config)?;
    let mut stream = bursty.stream(&taskset, horizon);
    scheduler.run_with_source(&mut stream, horizon);

    let recorded = events.events();
    let mut dispatched = 0usize;
    let mut kernels = 0usize;
    let mut replans = 0usize;
    for event in &recorded {
        match event.kind {
            EventKind::StageDispatched { .. } => dispatched += 1,
            EventKind::Device(DeviceEvent::KernelFinished { .. }) => kernels += 1,
            EventKind::Device(DeviceEvent::Replan { .. }) => replans += 1,
            _ => {}
        }
    }
    println!(
        "the same run as raw events: {} total ({dispatched} stage dispatches, \
         {kernels} kernel completions, {replans} replans); first five:",
        recorded.len()
    );
    for event in recorded.iter().take(5) {
        println!("  {:>10} {:?}", format!("{}", event.at), event.kind);
    }
    println!(
        "\nFor a timeline you can scrub, `ChromeTraceSink` exports the same stream as\n\
         Perfetto-loadable JSON — `cargo run -p daris-bench --bin trace_viz` records the\n\
         8-device cluster scenario that way."
    );
    Ok(())
}
