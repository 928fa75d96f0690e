//! Trace-driven workloads: run the UNet task set under a bursty MMPP-style
//! generator, record the arrival trace of the live run, replay it byte for
//! byte on a fresh scheduler, and round-trip the trace through the
//! versioned plain-text codec — then compare periodic vs bursty vs diurnal
//! arrival shapes on the same GPU.
//!
//! Run with:
//!
//! ```text
//! cargo run --example trace_workloads
//! ```

use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::gpu::SimTime;
use daris::models::DnnKind;
use daris::workload::{
    ArrivalStream, BurstyConfig, DiurnalConfig, GenSpec, TaskSet, Trace, TraceRecorder,
};

/// Short horizon so the example stays snappy; the `trace_replay` bench
/// runner produces the full-length numbers (and the fleet-scale variant).
const HORIZON_MS: u64 = 300;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let taskset = TaskSet::table2(DnnKind::UNet);
    let horizon = SimTime::from_millis(HORIZON_MS);
    let partition = GpuPartition::mps(6, 6.0);
    println!(
        "workload           : {} tasks, {:.0} jobs/s offered periodically\n",
        taskset.len(),
        taskset.offered_jps()
    );

    // --- record a live bursty run ----------------------------------------
    let bursty = GenSpec::Bursty(BurstyConfig::default());
    let mut live = DarisScheduler::new(&taskset, DarisConfig::new(partition))?;
    let mut recorder = TraceRecorder::new(bursty.stream(&taskset, horizon));
    let live_outcome = live.run_with_source(&mut recorder, horizon);
    let trace = recorder.into_trace(horizon)?;
    println!(
        "live bursty run    : {} released, {} completed, HP DMR {:.1}%",
        live_outcome.summary.total.released,
        live_outcome.summary.total.completed,
        100.0 * live_outcome.summary.high.deadline_miss_rate,
    );
    println!("recorded trace     : {} events, {:.0} offered JPS", trace.len(), trace.offered_jps());

    // --- replay it (through the codec) on a fresh scheduler ---------------
    let decoded = Trace::decode(&trace.encode())?;
    let mut replay = DarisScheduler::new(&taskset, DarisConfig::new(partition))?;
    let replay_outcome = replay.run(&RunSpec::replay(decoded))?;
    assert_eq!(
        replay_outcome.summary, live_outcome.summary,
        "the recorded trace must replay the live run byte for byte"
    );
    println!("trace replay       : byte-identical to the live run (codec round trip included)\n");

    // --- periodic vs generated arrival shapes -----------------------------
    println!("arrival shape      :   JPS   HP DMR   LP DMR   rejected");
    let show = |label: &str, summary: &daris::metrics::ExperimentSummary| {
        println!(
            "  {label:<16} : {:>5.0}   {:>5.1}%   {:>5.1}%   {:>5}",
            summary.throughput_jps,
            100.0 * summary.high.deadline_miss_rate,
            100.0 * summary.low.deadline_miss_rate,
            summary.low.rejected + summary.high.rejected,
        );
    };
    let mut periodic = DarisScheduler::new(&taskset, DarisConfig::new(partition))?;
    let mut stream = ArrivalStream::new(&taskset, horizon);
    show("periodic", &periodic.run_with_source(&mut stream, horizon).summary);
    show("bursty", &live_outcome.summary);
    let diurnal = GenSpec::Diurnal(DiurnalConfig::default());
    let mut under_diurnal = DarisScheduler::new(&taskset, DarisConfig::new(partition))?;
    let mut stream = diurnal.stream(&taskset, horizon);
    show("diurnal", &under_diurnal.run_with_source(&mut stream, horizon).summary);
    // 3x co-bursts on an already-overloaded set exceed capacity outright;
    // shedding only LP load cannot protect HP deadlines there. Overload+HPA
    // (the paper's HP admission test) restores the protection.
    let mut with_hpa =
        DarisScheduler::new(&taskset, DarisConfig::new(partition).with_hp_admission())?;
    let mut stream = bursty.stream(&taskset, horizon);
    show("bursty + HPA", &with_hpa.run_with_source(&mut stream, horizon).summary);
    println!(
        "\nSmooth shapes (periodic, diurnal) keep HP deadline misses at zero by shedding\n\
         low-priority load. 3x bursts exceed capacity outright — only the Overload+HPA\n\
         admission test, which may reject high-priority releases too, restores HP\n\
         deadline protection under bursty traffic."
    );
    Ok(())
}
