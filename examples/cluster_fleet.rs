//! Fleet scheduling: shard an oversized task set across multi-GPU clusters —
//! first a homogeneous 1→8 RTX 2080 Ti sweep, then a heterogeneous
//! 2080 Ti + A100 + H100 + Orin fleet — and print throughput scaling and
//! per-device behaviour.
//!
//! Run with:
//!
//! ```text
//! cargo run --example cluster_fleet
//! ```

use daris::cluster::{ClusterConfig, ClusterDispatcher, ClusterSpec, PlacementStrategy};
use daris::core::{GpuPartition, RunSpec};
use daris::gpu::{GpuSpec, SimTime};
use daris::models::DnnKind;
use daris::workload::TaskSet;

/// Short horizon so the example stays snappy; the `cluster_scaling` bench
/// runner produces the full-length numbers.
const HORIZON_MS: u64 = 200;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four devices' worth of the paper's standing 150 % ResNet18 overload:
    // 68 high-priority and 136 low-priority tasks at 30 jobs/s each.
    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
    let horizon = SimTime::from_millis(HORIZON_MS);
    println!(
        "workload           : {} tasks, {:.0} jobs/s offered\n",
        taskset.len(),
        taskset.offered_jps()
    );

    // Greedy balance spreads the high-priority tasks across the fleet;
    // first-fit-decreasing would consolidate them on the first devices.
    let balanced =
        || ClusterConfig { strategy: PlacementStrategy::GreedyBalance, ..Default::default() };

    println!("## Homogeneous scaling (RTX 2080 Ti, MPS 6x1 OS6, greedy balance)\n");
    println!("devices  JPS     served  HP DMR  LP DMR  unplaced  cluster-adm  migrations");
    for n in [1usize, 2, 4, 8] {
        let fleet = ClusterSpec::homogeneous(n, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet, balanced())?;
        let s = dispatcher.run(&RunSpec::periodic().until(horizon))?.summary;
        println!(
            "{n:>7}  {:>6.0}  {:>5.0}%  {:>5.2}%  {:>5.2}%  {:>8}  {:>11}  {:>10}",
            s.throughput_jps,
            100.0 * s.throughput_jps / taskset.offered_jps(),
            s.high.deadline_miss_rate * 100.0,
            s.low.deadline_miss_rate * 100.0,
            s.placement_rejected_tasks,
            s.cluster_admissions,
            s.migrations,
        );
    }

    println!("\n## Heterogeneous fleet (2080 Ti + A100 + H100 + Orin, greedy balance)\n");
    let mut dispatcher =
        ClusterDispatcher::new(&taskset, ClusterSpec::heterogeneous_demo(), balanced())?;
    let outcome = dispatcher.run(&RunSpec::periodic().until(horizon))?;
    for device in &outcome.devices {
        let s = &device.outcome.summary;
        println!(
            "{:<12} {:<12} {:>6.0} JPS  HP DMR {:>5.2}%  util {:>3.0}%",
            device.name,
            device.outcome.config_label,
            s.throughput_jps,
            s.high.deadline_miss_rate * 100.0,
            s.gpu_utilization.unwrap_or(0.0) * 100.0,
        );
    }
    let s = outcome.summary;
    println!(
        "\nfleet              : {:.0} JPS aggregate ({:.0}% of offered), HP DMR {:.2}%",
        s.throughput_jps,
        100.0 * s.throughput_jps / taskset.offered_jps(),
        s.high.deadline_miss_rate * 100.0
    );
    Ok(())
}
