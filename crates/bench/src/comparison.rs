//! The scheduler shoot-out: every [`Scheduler`](daris_core::Scheduler)
//! implementation in the workspace — DARIS and the six baselines — swept
//! across the workload scenario grid (periodic, bursty, diurnal, correlated)
//! and fleet sizes, through the *same* cluster dispatcher and the same
//! [`RunSpec`] entry point.
//!
//! Every cell of the grid is one cluster run: the contender's per-device
//! scheduler is built by [`ClusterDispatcher::with_factory`] (DARIS through
//! the default constructor), placed by the same placement engine, driven by
//! the same synchronization-round loop. Differences between rows are
//! therefore *policy* differences, not harness differences — the point of
//! the [`Scheduler`](daris_core::Scheduler) trait.
//!
//! The committed summary lives in `COMPARISON.md` at the repo root; the
//! `scheduler_comparison` binary regenerates it.

use daris_baselines::{
    BaselineScheduler, BatchingServer, FifoMultiStreamServer, GlobalEdfServer, GsliceServer,
    PriorityOnlyServer, SingleTenantServer,
};
use daris_cluster::{
    ClusterConfig, ClusterDispatcher, ClusterOutcome, ClusterSpec, DeviceSlot, PlacementStrategy,
};
use daris_core::{CoreError, GpuPartition, RunSpec};
use daris_gpu::{GpuSpec, SimTime};
use daris_metrics::report::{fmt_num, fmt_pct, Table};
use daris_workload::{
    BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, LoadDetectorConfig, TaskSet,
};

use crate::cluster_taskset_scaled;

/// Streams/contexts granted to every contender: DARIS runs its paper-best
/// MPS 6×1 OS6 partition, and the stream-parallel baselines get the same
/// six-way parallelism, so no row wins by being handed more hardware slots.
const PARALLELISM: u32 = 6;

/// One scheduler entered in the shoot-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contender {
    /// The full DARIS runtime (MPS 6×1 OS6, admission, staging, MRET).
    Daris,
    /// DARIS with the *static* HP admission test always on (Overload+HPA).
    DarisHpa,
    /// DARIS with the burst-triggered adaptive HPA: the admission test
    /// engages only while the windowed arrival-rate detector reports a
    /// burst in progress, and disengages when the rate calms.
    DarisAdaptive,
    /// Global EDF over whole jobs — deadline-aware, no stage preemption.
    GlobalEdf,
    /// Strict class priority, FIFO within a class, no admission.
    PriorityOnly,
    /// Multi-stream FIFO — no priorities, no deadlines, no admission.
    FifoMultiStream,
    /// Pure batching inference server (the paper's upper baseline).
    Batching,
    /// GSlice-like static spatial partitions with per-tenant batching.
    Gslice,
    /// One DNN at a time on the whole GPU (the paper's lower baseline).
    SingleTenant,
}

impl Contender {
    /// Every contender, in report order (DARIS first, then deadline- or
    /// priority-aware baselines, then the throughput-oriented ones).
    pub fn all() -> [Contender; 9] {
        [
            Contender::Daris,
            Contender::DarisHpa,
            Contender::DarisAdaptive,
            Contender::GlobalEdf,
            Contender::PriorityOnly,
            Contender::FifoMultiStream,
            Contender::Batching,
            Contender::Gslice,
            Contender::SingleTenant,
        ]
    }

    /// Stable row label.
    pub fn label(self) -> &'static str {
        match self {
            Contender::Daris => "DARIS",
            Contender::DarisHpa => "DARIS+HPA",
            Contender::DarisAdaptive => "DARIS-adaptive",
            Contender::GlobalEdf => "GlobalEDF",
            Contender::PriorityOnly => "PriorityOnly",
            Contender::FifoMultiStream => "FIFO",
            Contender::Batching => "Batching",
            Contender::Gslice => "GSlice",
            Contender::SingleTenant => "SingleTenant",
        }
    }

    /// Builds one device's baseline scheduler for this contender.
    ///
    /// # Panics
    ///
    /// Panics when called for [`Contender::Daris`], which is constructed
    /// through the dispatcher's default DARIS factory instead.
    fn baseline_for(self, slot: &DeviceSlot<'_>) -> Result<BaselineScheduler, CoreError> {
        let gpu = slot.spec.gpu.clone();
        let reference = slot.reference.clone();
        match self {
            Contender::Daris | Contender::DarisHpa | Contender::DarisAdaptive => {
                unreachable!("DARIS variants use ClusterDispatcher::new")
            }
            Contender::GlobalEdf => GlobalEdfServer::new(PARALLELISM)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset),
            Contender::PriorityOnly => PriorityOnlyServer::new(PARALLELISM)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset),
            Contender::FifoMultiStream => FifoMultiStreamServer::new(PARALLELISM)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset),
            Contender::Batching => BatchingServer::new()
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset),
            Contender::Gslice => GsliceServer::new(2)
                .with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset),
            Contender::SingleTenant => SingleTenantServer::with_gpu(gpu)
                .with_calibration(reference)
                .scheduler(slot.taskset),
        }
        .map_err(CoreError::from)
    }
}

/// One workload scenario of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Strictly periodic releases (the paper's main experiments).
    Periodic,
    /// Two-state Markov-modulated bursts.
    Bursty,
    /// Sinusoid-modulated rate (a compressed day/night cycle).
    Diurnal,
    /// Co-released task groups (correlated arrivals).
    Correlated,
}

impl Scenario {
    /// Every scenario, in report order.
    pub fn all() -> [Scenario; 4] {
        [Scenario::Periodic, Scenario::Bursty, Scenario::Diurnal, Scenario::Correlated]
    }

    /// Stable column label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Periodic => "periodic",
            Scenario::Bursty => "bursty",
            Scenario::Diurnal => "diurnal",
            Scenario::Correlated => "correlated",
        }
    }

    /// The scenario as a [`RunSpec`] ending at `horizon`. Generator
    /// scenarios use the default (seeded, deterministic) configurations.
    pub fn run_spec(self, horizon: SimTime) -> RunSpec {
        match self {
            Scenario::Periodic => RunSpec::periodic(),
            Scenario::Bursty => RunSpec::generated(GenSpec::Bursty(BurstyConfig::default())),
            Scenario::Diurnal => RunSpec::generated(GenSpec::Diurnal(DiurnalConfig::default())),
            Scenario::Correlated => {
                RunSpec::generated(GenSpec::Correlated(CorrelatedConfig::default()))
            }
        }
        .until(horizon)
    }
}

/// One cell of the shoot-out grid: one scheduler on one scenario at one
/// fleet size.
#[derive(Debug, Clone)]
pub struct ComparisonCell {
    /// The contender's label.
    pub scheduler: &'static str,
    /// The scenario's label.
    pub scenario: &'static str,
    /// Fleet size (devices).
    pub devices: usize,
    /// Aggregate completed inferences per second.
    pub jps: f64,
    /// High-priority deadline-miss rate.
    pub hp_dmr: f64,
    /// Low-priority deadline-miss rate.
    pub lp_dmr: f64,
    /// Overall deadline-miss rate.
    pub total_dmr: f64,
    /// Jobs rejected (admission control; always 0 for baselines).
    pub rejected: u64,
    /// Mean GPU utilization over the fleet, when reported.
    pub utilization: Option<f64>,
}

fn fleet_of(devices: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(
        devices,
        GpuSpec::rtx_2080_ti(),
        GpuPartition::mps(PARALLELISM, f64::from(PARALLELISM)),
    )
}

fn cluster_config(threads: usize) -> ClusterConfig {
    ClusterConfig { strategy: PlacementStrategy::GreedyBalance, threads, ..Default::default() }
}

/// Runs one cell of the grid: `contender` on `scenario` over a homogeneous
/// fleet of `devices` RTX 2080 Ti, the workload scaled to keep per-device
/// pressure constant across fleet sizes (see [`cluster_taskset_scaled`]).
///
/// # Panics
///
/// Panics when the cell's cluster cannot be built or the spec cannot run —
/// the grid is hard-coded, so a failure indicates a bug.
pub fn run_cell(
    contender: Contender,
    scenario: Scenario,
    devices: usize,
    threads: usize,
    horizon: SimTime,
) -> ComparisonCell {
    let taskset = cluster_taskset_scaled(devices);
    let spec = scenario.run_spec(horizon);
    let outcome = run_fleet(contender, &taskset, devices, threads, &spec);
    let s = &outcome.summary;
    ComparisonCell {
        scheduler: contender.label(),
        scenario: scenario.label(),
        devices,
        jps: s.throughput_jps,
        hp_dmr: s.high.deadline_miss_rate,
        lp_dmr: s.low.deadline_miss_rate,
        total_dmr: s.total.deadline_miss_rate,
        rejected: (s.high.rejected + s.low.rejected) as u64,
        utilization: s.mean_gpu_utilization,
    }
}

fn run_fleet(
    contender: Contender,
    taskset: &TaskSet,
    devices: usize,
    threads: usize,
    spec: &RunSpec,
) -> ClusterOutcome {
    match contender {
        Contender::Daris | Contender::DarisHpa | Contender::DarisAdaptive => {
            let mut config = cluster_config(threads);
            match contender {
                Contender::DarisHpa => config.hp_admission = true,
                Contender::DarisAdaptive => {
                    config.adaptive_hpa = Some(LoadDetectorConfig::default());
                }
                _ => {}
            }
            ClusterDispatcher::new(taskset, fleet_of(devices), config)
                .expect("DARIS fleet builds")
                .run(spec)
                .expect("grid run spec is cluster-feasible")
        }
        baseline => ClusterDispatcher::with_factory(
            taskset,
            fleet_of(devices),
            cluster_config(threads),
            move |slot| baseline.baseline_for(&slot),
        )
        .expect("baseline fleet builds")
        .run(spec)
        .expect("grid run spec is cluster-feasible"),
    }
}

/// Runs the full grid: every contender × every scenario × `fleet_sizes`,
/// in fixed order (fleet size outermost, then scenario, then contender).
pub fn comparison_grid(
    fleet_sizes: &[usize],
    threads: usize,
    horizon: SimTime,
) -> Vec<ComparisonCell> {
    let mut cells = Vec::new();
    for &devices in fleet_sizes {
        for scenario in Scenario::all() {
            for contender in Contender::all() {
                cells.push(run_cell(contender, scenario, devices, threads, horizon));
            }
        }
    }
    cells
}

/// Formats the grid as one [`Table`] per fleet size (rows: scenario ×
/// scheduler).
pub fn comparison_tables(cells: &[ComparisonCell]) -> Vec<Table> {
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.devices).collect();
    sizes.dedup();
    sizes
        .into_iter()
        .map(|devices| {
            let mut table = Table::new(format!(
                "Scheduler shoot-out — {devices} device(s), per-device 150% ResNet18 overload"
            ));
            table.set_headers([
                "scenario",
                "scheduler",
                "JPS",
                "HP DMR",
                "LP DMR",
                "DMR",
                "rejected",
                "mean util",
            ]);
            for cell in cells.iter().filter(|c| c.devices == devices) {
                table.add_row([
                    cell.scenario.to_owned(),
                    cell.scheduler.to_owned(),
                    fmt_num(cell.jps, 0),
                    fmt_pct(cell.hp_dmr),
                    fmt_pct(cell.lp_dmr),
                    fmt_pct(cell.total_dmr),
                    cell.rejected.to_string(),
                    cell.utilization.map(fmt_pct).unwrap_or_else(|| "-".into()),
                ]);
            }
            table
        })
        .collect()
}

/// Formats the grid as the GitHub-flavoured markdown document committed as
/// `COMPARISON.md`: one markdown table per fleet size, preceded by a header
/// recording the horizon the grid was generated at.
pub fn comparison_markdown(cells: &[ComparisonCell], horizon: SimTime) -> String {
    let mut out = String::new();
    out.push_str("# Scheduler shoot-out\n\n");
    out.push_str(
        "Every `Scheduler` implementation in the workspace, swept across the workload\n\
         scenario grid and fleet sizes through the same cluster dispatcher\n\
         (`ClusterDispatcher::with_factory`) and the same `RunSpec` entry point —\n\
         differences between rows are policy differences, not harness differences.\n\
         Workloads are the per-device 150% ResNet18 overload, scaled with the fleet.\n\n",
    );
    out.push_str(&format!(
        "Generated by\n\
         `cargo run --release --bin scheduler_comparison -- --markdown > COMPARISON.md`\n\
         at a {:.0} ms simulated horizon per cell. Deterministic: re-running the\n\
         same command reproduces this file byte for byte (`--threads` only changes\n\
         wall-clock).\n",
        horizon.as_secs_f64() * 1e3
    ));
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.devices).collect();
    sizes.dedup();
    for devices in sizes {
        out.push_str(&format!("\n## {devices} device(s)\n\n"));
        out.push_str(
            "| scenario | scheduler | JPS | HP DMR | LP DMR | DMR | rejected | mean util |\n",
        );
        out.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
        for cell in cells.iter().filter(|c| c.devices == devices) {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                cell.scenario,
                cell.scheduler,
                fmt_num(cell.jps, 0),
                fmt_pct(cell.hp_dmr),
                fmt_pct(cell.lp_dmr),
                fmt_pct(cell.total_dmr),
                cell.rejected,
                cell.utilization.map(fmt_pct).unwrap_or_else(|| "-".into()),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_combination_in_fixed_order() {
        let horizon = SimTime::from_millis(crate::horizon_capped_ms(80));
        let cells = comparison_grid(&[1, 2], 1, horizon);
        assert_eq!(cells.len(), 9 * 4 * 2);
        // Fixed order: fleet size outermost, then scenario, then contender.
        assert_eq!(cells[0].devices, 1);
        assert_eq!(cells[0].scheduler, "DARIS");
        assert_eq!(cells[0].scenario, "periodic");
        assert_eq!(cells[1].scheduler, "DARIS+HPA");
        assert_eq!(cells[2].scheduler, "DARIS-adaptive");
        assert_eq!(cells[9].scenario, "bursty");
        assert_eq!(cells[36].devices, 2);
        // Every scheduler completes work on the periodic scenario.
        for cell in cells.iter().filter(|c| c.scenario == "periodic") {
            assert!(cell.jps > 0.0, "{} completed nothing", cell.scheduler);
        }
        // Baselines have no admission control, so they reject nothing.
        for cell in cells.iter().filter(|c| !c.scheduler.starts_with("DARIS")) {
            assert_eq!(cell.rejected, 0, "{} rejected jobs", cell.scheduler);
        }
        let tables = comparison_tables(&cells);
        assert_eq!(tables.len(), 2);
        let md = comparison_markdown(&cells, horizon);
        assert!(md.contains("## 1 device(s)"));
        assert!(md.contains("| periodic | DARIS |"));
    }
}
