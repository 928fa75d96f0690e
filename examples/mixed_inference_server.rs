//! A multi-tenant inference-server scenario: the paper's mixed task set
//! (ResNet18 + UNet + InceptionV3, Fig. 7) served under the three DARIS
//! partitioning policies, plus the pure-batching and GSlice-like baselines.
//!
//! Run with:
//!
//! ```text
//! cargo run --example mixed_inference_server
//! ```

use daris::baselines::{BatchingServer, GsliceServer};
use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::gpu::SimTime;
use daris::metrics::report::Table;
use daris::metrics::ExperimentSummary;
use daris::workload::TaskSet;

fn row(table: &mut Table, name: &str, summary: &ExperimentSummary) {
    table.add_row([
        name.to_owned(),
        format!("{:.0}", summary.throughput_jps),
        format!("{:.2}%", summary.high.deadline_miss_rate * 100.0),
        format!("{:.2}%", summary.low.deadline_miss_rate * 100.0),
        format!("{:.0}%", summary.gpu_utilization.unwrap_or(0.0) * 100.0),
    ]);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let taskset = TaskSet::mixed();
    let spec = RunSpec::periodic().until(SimTime::from_millis(500));

    let mut table = Table::new("Mixed inference server (Fig. 7 workload)");
    table.set_headers(["scheduler", "JPS", "HP DMR", "LP DMR", "GPU util"]);

    // The three DARIS policies at comparable degrees of parallelism.
    for (name, partition) in [
        ("DARIS STR 1x6", GpuPartition::str_streams(6)),
        ("DARIS MPS 6x1 OS6", GpuPartition::mps(6, 6.0)),
        ("DARIS MPS 6x1 OS1 (isolated)", GpuPartition::mps(6, 1.0)),
        ("DARIS MPS+STR 3x2 OS2", GpuPartition::mps_str(3, 2, 2.0)),
    ] {
        let mut scheduler = DarisScheduler::new(&taskset, DarisConfig::new(partition))?;
        let outcome = scheduler.run(&spec)?;
        row(&mut table, name, &outcome.summary);
    }

    // Baselines on the same workload.
    let batching = BatchingServer::new().scheduler(&taskset)?.run(&spec)?.summary;
    row(&mut table, "pure batching", &batching);
    let gslice = GsliceServer::new(3).scheduler(&taskset)?.run(&spec)?.summary;
    row(&mut table, "GSlice-like (3 slices)", &gslice);

    println!("{table}");
    println!(
        "Offered load: {:.0} jobs/s across {} tasks and 3 model architectures.",
        taskset.offered_jps(),
        taskset.len()
    );
    println!(
        "As in the paper, MPS with oversubscription gives the best throughput, STR the \
         cleanest deadline behaviour, and isolating SMs (OS = 1) costs throughput."
    );
    Ok(())
}
