//! An autonomous-driving style perception workload: a safety-critical camera
//! pipeline (high priority, tight periods) shares the GPU with best-effort
//! analytics (low priority), the motivating scenario of the paper's
//! introduction.
//!
//! The example compares DARIS against a FIFO multi-stream scheduler on the
//! same workload and shows how priorities and admission control protect the
//! safety-critical tasks.
//!
//! Run with:
//!
//! ```text
//! cargo run --example autonomous_driving
//! ```

use daris::baselines::FifoMultiStreamServer;
use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::gpu::{SimDuration, SimTime};
use daris::models::DnnKind;
use daris::workload::{Priority, TaskId, TaskSet, TaskSetBuilder, TaskSpec};

/// Builds the perception workload: camera object detection and lane
/// segmentation at 30 Hz (safety critical), plus scene classification and
/// passenger-cabin analytics as best-effort background work.
fn perception_taskset() -> TaskSet {
    TaskSetBuilder::new()
        // Six camera feeds, each detected at 30 Hz with a ResNet18 backbone.
        .add_tasks(DnnKind::ResNet18, 6, 30.0, Priority::High)
        // Two lane/freespace segmentation streams at 20 Hz (UNet).
        .add_tasks(DnnKind::UNet, 2, 20.0, Priority::High)
        // Best-effort: scene classification and cabin monitoring.
        .add_tasks(DnnKind::InceptionV3, 4, 15.0, Priority::Low)
        .add_tasks(DnnKind::ResNet18, 8, 20.0, Priority::Low)
        // One custom low-rate diagnostics task built by hand.
        .add_task(
            TaskSpec::new(
                TaskId(0),
                "diagnostics",
                DnnKind::ResNet18,
                SimDuration::from_millis(200),
                Priority::Low,
            )
            .with_batch_size(2),
        )
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let taskset = perception_taskset();
    let horizon = SimTime::from_millis(500);
    println!(
        "perception workload: {} HP + {} LP tasks, {:.0} jobs/s offered\n",
        taskset.count(Priority::High),
        taskset.count(Priority::Low),
        taskset.offered_jps()
    );

    // DARIS with the MPS policy and 200 % oversubscription.
    let config = DarisConfig::new(GpuPartition::mps(4, 2.0));
    let mut daris = DarisScheduler::new(&taskset, config)?;
    let spec = RunSpec::periodic().until(horizon);
    let daris_outcome = daris.run(&spec)?;

    // The no-priority FIFO baseline with the same degree of parallelism.
    let fifo = FifoMultiStreamServer::new(4).scheduler(&taskset)?.run(&spec)?.summary;

    println!("                         DARIS      FIFO multi-stream");
    println!(
        "throughput (jobs/s)   : {:8.0}   {:8.0}",
        daris_outcome.summary.throughput_jps, fifo.throughput_jps
    );
    println!(
        "HP deadline miss rate : {:7.2}%   {:7.2}%",
        daris_outcome.summary.high.deadline_miss_rate * 100.0,
        fifo.high.deadline_miss_rate * 100.0
    );
    println!(
        "LP deadline miss rate : {:7.2}%   {:7.2}%",
        daris_outcome.summary.low.deadline_miss_rate * 100.0,
        fifo.low.deadline_miss_rate * 100.0
    );
    println!(
        "HP worst response (ms): {:8.1}   {:8.1}",
        daris_outcome.summary.high.response.max_ms, fifo.high.response.max_ms
    );
    println!(
        "LP jobs shed          : {:8}   {:8}",
        daris_outcome.summary.low.rejected, fifo.low.rejected
    );
    println!();
    println!(
        "DARIS keeps the safety-critical pipeline at {:.2}% misses by shedding \
         best-effort work; the FIFO baseline spreads the pain over every task.",
        daris_outcome.summary.high.deadline_miss_rate * 100.0
    );
    Ok(())
}
