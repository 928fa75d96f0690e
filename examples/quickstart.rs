//! Quickstart: schedule the paper's UNet task set with DARIS for half a
//! simulated second and print the headline metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::gpu::SimTime;
use daris::models::DnnKind;
use daris::workload::TaskSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table II: 5 high-priority and 10 low-priority UNet tasks at 24 jobs/s
    // each — roughly 150 % of what the GPU can sustain, so the admission test
    // has real work to do.
    let taskset = TaskSet::table2(DnnKind::UNet);

    // The paper's best-throughput configuration for UNet: the MPS policy with
    // 6 contexts, 1 stream each, and full SM oversubscription (OS = 6).
    let config = DarisConfig::new(GpuPartition::mps(6, 6.0));

    let mut scheduler = DarisScheduler::new(&taskset, config)?;
    let outcome = scheduler.run(&RunSpec::periodic().until(SimTime::from_millis(500)))?;
    let summary = &outcome.summary;

    println!("configuration      : {}", outcome.config_label);
    println!("offered load       : {:.0} jobs/s", taskset.offered_jps());
    println!("throughput         : {:.0} jobs/s", summary.throughput_jps);
    println!("GPU utilization    : {:.0}%", summary.gpu_utilization.unwrap_or(0.0) * 100.0);
    println!(
        "high priority      : {} completed, {} rejected, DMR {:.2}%",
        summary.high.completed,
        summary.high.rejected,
        summary.high.deadline_miss_rate * 100.0
    );
    println!(
        "low priority       : {} completed, {} rejected, DMR {:.2}%",
        summary.low.completed,
        summary.low.rejected,
        summary.low.deadline_miss_rate * 100.0
    );
    println!(
        "HP response (ms)   : mean {:.1}, p95 {:.1}, max {:.1}",
        summary.high.response.mean_ms, summary.high.response.p95_ms, summary.high.response.max_ms
    );
    println!(
        "LP response (ms)   : mean {:.1}, p95 {:.1}, max {:.1}",
        summary.low.response.mean_ms, summary.low.response.p95_ms, summary.low.response.max_ms
    );
    Ok(())
}
