//! Overload behaviour and the `Overload+HPA` mode (Sec. VI-I / Fig. 11):
//! what happens when high-priority demand alone exceeds the GPU, and how the
//! optional HP admission test trades dropped jobs for zero deadline misses.
//!
//! Run with:
//!
//! ```text
//! cargo run --example overload_admission
//! ```

use daris::core::{DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris::gpu::SimTime;
use daris::metrics::report::Table;
use daris::models::DnnKind;
use daris::workload::{RatioScenario, TaskSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimTime::from_millis(500);
    let partition = GpuPartition::mps(6, 6.0);

    let mut table = Table::new("ResNet18 under increasing high-priority load (MPS 6x1 OS6)");
    table.set_headers([
        "scenario",
        "HP share",
        "JPS",
        "HP DMR",
        "LP DMR",
        "HP rejected",
        "LP rejected",
    ]);

    for (scenario, name) in
        [(RatioScenario::FullLoad, "Full load"), (RatioScenario::Overload, "Overload")]
    {
        for hp_share in [0.25, 0.5, 0.75, 1.0] {
            let taskset = TaskSet::with_ratio(DnnKind::ResNet18, scenario, hp_share);
            let mut scheduler = DarisScheduler::new(&taskset, DarisConfig::new(partition))?;
            let outcome = scheduler.run(&RunSpec::periodic().until(horizon))?;
            let s = &outcome.summary;
            table.add_row([
                name.to_owned(),
                format!("{:.0}%", hp_share * 100.0),
                format!("{:.0}", s.throughput_jps),
                format!("{:.2}%", s.high.deadline_miss_rate * 100.0),
                format!("{:.2}%", s.low.deadline_miss_rate * 100.0),
                s.high.rejected.to_string(),
                s.low.rejected.to_string(),
            ]);
        }
    }

    // The remedy: apply the admission test to HP tasks as well (Overload+HPA).
    for hp_share in [0.75, 1.0] {
        let taskset = TaskSet::with_ratio(DnnKind::ResNet18, RatioScenario::Overload, hp_share);
        let config = DarisConfig::new(partition).with_hp_admission();
        let mut scheduler = DarisScheduler::new(&taskset, config)?;
        let outcome = scheduler.run(&RunSpec::periodic().until(horizon))?;
        let s = &outcome.summary;
        table.add_row([
            "Overload+HPA".to_owned(),
            format!("{:.0}%", hp_share * 100.0),
            format!("{:.0}", s.throughput_jps),
            format!("{:.2}%", s.high.deadline_miss_rate * 100.0),
            format!("{:.2}%", s.low.deadline_miss_rate * 100.0),
            s.high.rejected.to_string(),
            s.low.rejected.to_string(),
        ]);
    }

    println!("{table}");
    println!(
        "Once high-priority demand exceeds what the GPU can serve, admitting every HP job \
         makes HP deadline misses climb; Overload+HPA instead drops the excess at admission \
         time, which is the paper's recommendation (keep HP load below ~50% of capacity, or \
         enable the HP admission test)."
    );
    Ok(())
}
