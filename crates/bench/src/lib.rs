//! # daris-bench
//!
//! Experiment runners that regenerate every table and figure of the DARIS
//! paper on the simulated substrate.
//!
//! Each `figure*`/`table*` function runs the corresponding experiment and
//! returns one or more [`Table`]s formatted like the paper's plots (rows are
//! configurations, columns are the reported series). The binaries in
//! `src/bin/` are thin wrappers that print these tables; `reproduce_all`
//! prints the full paper-vs-measured report.
//!
//! The simulated horizon per configuration defaults to 1.5 s and can be
//! overridden with the `DARIS_HORIZON_MS` environment variable (shorter for
//! smoke tests, longer for tighter statistics).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod comparison;

use daris_baselines::{
    BaselineScheduler, BatchingServer, FifoMultiStreamServer, GsliceServer, SingleTenantServer,
};
use daris_cluster::{
    ClusterConfig, ClusterDispatcher, ClusterOutcome, ClusterSpec, PlacementStrategy,
};
use daris_core::{
    AblationFlags, DarisConfig, DarisScheduler, ExperimentOutcome, GpuPartition, RunSpec, Scheduler,
};
use daris_gpu::{GpuError, GpuSpec, SimTime};
use daris_metrics::report::{fmt_num, fmt_pct, Table};
use daris_metrics::ExperimentSummary;
use daris_models::{DnnKind, ModelProfile, Table1Reference};
use daris_workload::{Priority, RatioScenario, TaskSet};

/// The one place `DARIS_HORIZON_MS` is parsed. A malformed value is a user
/// error that must not silently fall back to the default (it would quietly
/// run a 25x longer experiment than asked for).
///
/// # Panics
///
/// Panics with a clear message when the variable is set but not a whole
/// number of milliseconds.
fn horizon_override_ms() -> Option<u64> {
    match std::env::var("DARIS_HORIZON_MS") {
        Ok(value) => match value.trim().parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                panic!("DARIS_HORIZON_MS must be a whole number of milliseconds, got {value:?}")
            }
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("DARIS_HORIZON_MS is set but is not valid unicode")
        }
    }
}

/// Simulated horizon for each configuration, from `DARIS_HORIZON_MS`
/// (default 1500 ms, floored at 50 ms).
///
/// # Panics
///
/// Panics if `DARIS_HORIZON_MS` is set to a malformed value.
pub fn horizon() -> SimTime {
    SimTime::from_millis(horizon_override_ms().unwrap_or(1500).max(50))
}

/// A test-suite horizon: `default_ms` capped by `DARIS_HORIZON_MS` (floored
/// at 50 ms) when the variable is set. Integration tests pick the shortest
/// horizon at which their claim holds deterministically and let the
/// environment cap them further for quick smoke runs.
///
/// # Panics
///
/// Panics if `DARIS_HORIZON_MS` is set to a malformed value.
pub fn horizon_capped_ms(default_ms: u64) -> u64 {
    match horizon_override_ms() {
        Some(cap) => default_ms.min(cap.max(50)),
        None => default_ms,
    }
}

/// Runs DARIS on `taskset` under `config` until [`horizon`].
///
/// # Panics
///
/// Panics if the configuration is invalid — experiment configurations are
/// hard-coded by the runners and a failure indicates a bug.
pub fn run_daris(taskset: &TaskSet, config: DarisConfig) -> ExperimentOutcome {
    run_daris_until(taskset, config, horizon())
}

/// Runs DARIS on `taskset` under `config` until an explicit horizon.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`run_daris`]).
pub fn run_daris_until(
    taskset: &TaskSet,
    config: DarisConfig,
    horizon: SimTime,
) -> ExperimentOutcome {
    let mut scheduler =
        DarisScheduler::new(taskset, config).expect("valid experiment configuration");
    scheduler.run(&RunSpec::periodic().until(horizon)).expect("a periodic spec with a horizon runs")
}

/// The MPS partitions swept in Figs. 4–6: `Np ∈ {2,4,6,8,10}` contexts × 1
/// stream, `OS ∈ {1, 1.5, 2, Nc}`.
pub fn mps_partitions() -> Vec<GpuPartition> {
    let mut configs: Vec<GpuPartition> = Vec::new();
    for np in [2u32, 4, 6, 8, 10] {
        for os in [1.0, 1.5, 2.0, f64::from(np)] {
            let candidate = GpuPartition::mps(np, os);
            if !configs.iter().any(|c| c.label() == candidate.label()) {
                configs.push(candidate);
            }
        }
    }
    configs
}

/// The STR partitions swept in Figs. 4–6: one context, `Ns ∈ {2,4,6,8,10}`.
pub fn str_partitions() -> Vec<GpuPartition> {
    [2u32, 4, 6, 8, 10].into_iter().map(GpuPartition::str_streams).collect()
}

/// The MPS+STR partitions swept in Figs. 4–6 (`Nc × Ns ≤ 10`).
pub fn mps_str_partitions() -> Vec<GpuPartition> {
    let mut configs = Vec::new();
    for (nc, ns) in [(2u32, 2u32), (2, 3), (3, 3), (2, 4), (2, 5)] {
        for os in [1.0, 2.0] {
            configs.push(GpuPartition::mps_str(nc, ns, os));
        }
    }
    configs
}

fn summary_row(policy: &str, label: &str, summary: &ExperimentSummary) -> Vec<String> {
    vec![
        policy.to_owned(),
        label.to_owned(),
        fmt_num(summary.throughput_jps, 0),
        fmt_pct(summary.high.deadline_miss_rate),
        fmt_pct(summary.low.deadline_miss_rate),
        format!("{}", summary.low.rejected),
        fmt_pct(summary.gpu_utilization.unwrap_or(0.0)),
    ]
}

fn taskset_figure(
    title: &str,
    taskset: &TaskSet,
    reference_upper: f64,
    reference_lower: f64,
    batched: bool,
) -> Table {
    let mut table = Table::new(title);
    table.set_headers(["policy", "config", "JPS", "HP DMR", "LP DMR", "LP rejected", "GPU util"]);
    table.add_row([
        "baseline".to_owned(),
        "single DNN (lower)".to_owned(),
        fmt_num(reference_lower, 0),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    table.add_row([
        "baseline".to_owned(),
        "pure batching (upper)".to_owned(),
        fmt_num(reference_upper, 0),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    let ts = if batched { taskset.with_paper_batch_sizes() } else { taskset.clone() };
    for partition in str_partitions() {
        let outcome = run_daris(&ts, DarisConfig::new(partition));
        table.add_row(summary_row("STR", &partition.label(), &outcome.summary));
    }
    for partition in mps_partitions() {
        let outcome = run_daris(&ts, DarisConfig::new(partition));
        table.add_row(summary_row("MPS", &partition.label(), &outcome.summary));
    }
    for partition in mps_str_partitions() {
        let outcome = run_daris(&ts, DarisConfig::new(partition));
        table.add_row(summary_row("MPS+STR", &partition.label(), &outcome.summary));
    }
    table
}

/// Table I / Fig. 1: per-model unbatched and batched throughput and batching
/// gain, measured on the simulator, against the paper's values.
pub fn table1() -> Table {
    let mut table = Table::new("Table I / Fig. 1 — batching performance of different DNNs");
    table.set_headers([
        "DNN",
        "min JPS (measured)",
        "min JPS (paper)",
        "max JPS (measured)",
        "max JPS (paper)",
        "gain (measured)",
        "gain (paper)",
        "best batch",
    ]);
    for kind in DnnKind::all() {
        let reference = Table1Reference::for_kind(kind);
        let min_jps = SingleTenantServer::isolated_jps(kind, 25);
        let profile = ModelProfile::calibrated(kind);
        let (best_batch, max_jps) = profile.best_batched_jps();
        table.add_row([
            kind.to_string(),
            fmt_num(min_jps, 0),
            fmt_num(reference.min_jps, 0),
            fmt_num(max_jps, 0),
            fmt_num(reference.max_jps, 0),
            format!("{:.2}x", max_jps / min_jps),
            format!("{:.2}x", reference.gain()),
            best_batch.to_string(),
        ]);
    }
    table
}

/// Table II: the task sets used in the main experiments.
pub fn table2() -> Table {
    let mut table = Table::new("Table II — task sets");
    table.set_headers([
        "Name",
        "#High",
        "#Low",
        "Task JPS",
        "offered JPS",
        "overload vs upper baseline",
    ]);
    for kind in DnnKind::task_set_kinds() {
        let ts = TaskSet::table2(kind);
        let upper = Table1Reference::for_kind(kind).max_jps;
        let per_task = ts.tasks()[0].jobs_per_second();
        table.add_row([
            kind.to_string(),
            ts.count(Priority::High).to_string(),
            ts.count(Priority::Low).to_string(),
            fmt_num(per_task, 0),
            fmt_num(ts.offered_jps(), 0),
            format!("{:.0}%", 100.0 * ts.offered_jps() / upper),
        ]);
    }
    table
}

/// Fig. 4: scheduling results for the ResNet18 task set.
pub fn figure4_resnet18() -> Table {
    let reference = Table1Reference::for_kind(DnnKind::ResNet18);
    taskset_figure(
        "Fig. 4 — ResNet18 task set (throughput and LP deadline misses)",
        &TaskSet::table2(DnnKind::ResNet18),
        reference.max_jps,
        reference.min_jps,
        false,
    )
}

/// Fig. 5: scheduling results for the UNet task set.
pub fn figure5_unet() -> Table {
    let reference = Table1Reference::for_kind(DnnKind::UNet);
    taskset_figure(
        "Fig. 5 — UNet task set (throughput and LP deadline misses)",
        &TaskSet::table2(DnnKind::UNet),
        reference.max_jps,
        reference.min_jps,
        false,
    )
}

/// Fig. 6: scheduling results for the InceptionV3 task set.
pub fn figure6_inception() -> Table {
    let reference = Table1Reference::for_kind(DnnKind::InceptionV3);
    taskset_figure(
        "Fig. 6 — InceptionV3 task set (throughput and LP deadline misses)",
        &TaskSet::table2(DnnKind::InceptionV3),
        reference.max_jps,
        reference.min_jps,
        false,
    )
}

/// Fig. 7: the mixed task set (STR and MPS policies).
pub fn figure7_mixed() -> Table {
    let taskset = TaskSet::mixed();
    let mut table = Table::new("Fig. 7 — mixed task set (throughput and LP deadline misses)");
    table.set_headers(["policy", "config", "JPS", "HP DMR", "LP DMR", "LP rejected", "GPU util"]);
    for partition in str_partitions() {
        let outcome = run_daris(&taskset, DarisConfig::new(partition));
        table.add_row(summary_row("STR", &partition.label(), &outcome.summary));
    }
    for partition in mps_partitions() {
        let outcome = run_daris(&taskset, DarisConfig::new(partition));
        table.add_row(summary_row("MPS", &partition.label(), &outcome.summary));
    }
    table
}

/// Fig. 8: DARIS module contributions (response time and normalized
/// throughput for the five ablation scenarios).
pub fn figure8_ablation() -> Table {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let partition = GpuPartition::mps(6, 6.0);
    let mut rows = Vec::new();
    let mut daris_jps = 0.0f64;
    for (name, flags) in AblationFlags::figure8_scenarios() {
        let config = DarisConfig::new(partition).with_ablation(flags);
        let outcome = run_daris(&taskset, config);
        if name == "DARIS" {
            daris_jps = outcome.summary.throughput_jps;
        }
        rows.push((name, outcome.summary));
    }
    let mut table = Table::new("Fig. 8 — module contribution (ResNet18, MPS 6x1 OS6)");
    table.set_headers([
        "scenario",
        "normalized JPS",
        "HP resp mean/max (ms)",
        "LP resp mean/max (ms)",
        "HP DMR",
        "LP DMR",
    ]);
    for (name, summary) in rows {
        table.add_row([
            name.to_owned(),
            fmt_num(summary.throughput_jps / daris_jps.max(1e-9), 2),
            format!("{:.1}/{:.1}", summary.high.response.mean_ms, summary.high.response.max_ms),
            format!("{:.1}/{:.1}", summary.low.response.mean_ms, summary.low.response.max_ms),
            fmt_pct(summary.high.deadline_miss_rate),
            fmt_pct(summary.low.deadline_miss_rate),
        ]);
    }
    table
}

/// Fig. 9: execution time vs MRET for ResNet18 under the best-throughput
/// (6×1 OS6) and worst-DMR (3×3 OS1) configurations, plus a window-size
/// sweep (the paper motivates `ws = 5`).
pub fn figure9_mret() -> Vec<Table> {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let mut trace_table = Table::new("Fig. 9 — execution time vs MRET (ResNet18)");
    trace_table.set_headers([
        "config",
        "stage samples",
        "mean exec (ms)",
        "mean MRET (ms)",
        "MRET underestimates",
        "mean overestimation",
    ]);
    for partition in [GpuPartition::mps(6, 6.0), GpuPartition::mps_str(3, 3, 1.0)] {
        let config = DarisConfig::new(partition).with_mret_trace();
        let outcome = run_daris(&taskset, config);
        let samples = &outcome.mret_trace;
        let n = samples.len().max(1) as f64;
        let mean_actual: f64 = samples.iter().map(|s| s.actual.as_millis_f64()).sum::<f64>() / n;
        let mean_pred: f64 = samples.iter().map(|s| s.predicted.as_millis_f64()).sum::<f64>() / n;
        let under = samples.iter().filter(|s| s.actual > s.predicted).count() as f64 / n;
        trace_table.add_row([
            partition.label(),
            samples.len().to_string(),
            fmt_num(mean_actual, 2),
            fmt_num(mean_pred, 2),
            fmt_pct(under),
            format!("{:.2}x", mean_pred / mean_actual.max(1e-9)),
        ]);
    }

    let mut ws_table = Table::new("MRET window-size sweep (ResNet18, MPS 6x1 OS6)");
    ws_table.set_headers(["ws", "JPS", "HP DMR", "LP DMR"]);
    for ws in [1usize, 3, 5, 10, 20] {
        let config = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_window_size(ws);
        let outcome = run_daris(&taskset, config);
        ws_table.add_row([
            ws.to_string(),
            fmt_num(outcome.summary.throughput_jps, 0),
            fmt_pct(outcome.summary.high.deadline_miss_rate),
            fmt_pct(outcome.summary.low.deadline_miss_rate),
        ]);
    }
    vec![trace_table, ws_table]
}

/// Fig. 10: DARIS with batched inputs (batch sizes 4/2/8), absolute
/// throughput, gain over the unbatched main experiment, and LP DMR.
pub fn figure10_batching() -> Vec<Table> {
    let mut tables = Vec::new();
    for kind in DnnKind::task_set_kinds() {
        let taskset = TaskSet::table2(kind);
        let upper = Table1Reference::for_kind(kind).max_jps;
        let batch = kind.paper_batch_size();
        let mut table = Table::new(format!(
            "Fig. 10 — {kind} with batch size {batch} (vs upper baseline {upper:.0} JPS)"
        ));
        table.set_headers(["config", "batched JPS", "gain vs unbatched", "HP DMR", "LP DMR"]);
        for np in [2u32, 4, 6, 8] {
            for os in [1.0, 2.0, f64::from(np)] {
                let partition = GpuPartition::mps(np, os);
                let unbatched = run_daris(&taskset, DarisConfig::new(partition));
                let batched =
                    run_daris(&taskset.with_paper_batch_sizes(), DarisConfig::new(partition));
                table.add_row([
                    partition.label(),
                    fmt_num(batched.summary.throughput_jps, 0),
                    format!(
                        "{:.0}%",
                        100.0
                            * (batched.summary.throughput_jps
                                / unbatched.summary.throughput_jps.max(1e-9)
                                - 1.0)
                    ),
                    fmt_pct(batched.summary.high.deadline_miss_rate),
                    fmt_pct(batched.summary.low.deadline_miss_rate),
                ]);
            }
        }
        tables.push(table);
    }
    tables
}

/// Fig. 11: throughput and per-priority DMR under different HP:LP load
/// ratios, at full load and 150 % overload, with and without the HP
/// admission test (`Overload+HPA`).
pub fn figure11_overload() -> Table {
    let mut table = Table::new("Fig. 11 — overloading with different HP-to-LP ratios");
    table.set_headers([
        "DNN",
        "scenario",
        "HP share",
        "normalized JPS",
        "HP DMR",
        "LP DMR",
        "HP rejected",
    ]);
    let partition = GpuPartition::mps(6, 6.0);
    for kind in [DnnKind::ResNet18, DnnKind::UNet] {
        let upper = Table1Reference::for_kind(kind).max_jps;
        for (scenario, scenario_name) in
            [(RatioScenario::FullLoad, "Full load"), (RatioScenario::Overload, "Overload")]
        {
            for hp_share in [0.25, 0.5, 0.75, 1.0] {
                let taskset = TaskSet::with_ratio(kind, scenario, hp_share);
                let outcome = run_daris(&taskset, DarisConfig::new(partition));
                table.add_row([
                    kind.to_string(),
                    scenario_name.to_owned(),
                    format!("{:.0}%", hp_share * 100.0),
                    fmt_num(outcome.summary.throughput_jps / upper, 2),
                    fmt_pct(outcome.summary.high.deadline_miss_rate),
                    fmt_pct(outcome.summary.low.deadline_miss_rate),
                    outcome.summary.high.rejected.to_string(),
                ]);
            }
        }
        // Overload + HP admission test.
        for hp_share in [0.75, 1.0] {
            let taskset = TaskSet::with_ratio(kind, RatioScenario::Overload, hp_share);
            let config = DarisConfig::new(partition).with_hp_admission();
            let outcome = run_daris(&taskset, config);
            table.add_row([
                kind.to_string(),
                "Overload+HPA".to_owned(),
                format!("{:.0}%", hp_share * 100.0),
                fmt_num(outcome.summary.throughput_jps / upper, 2),
                fmt_pct(outcome.summary.high.deadline_miss_rate),
                fmt_pct(outcome.summary.low.deadline_miss_rate),
                outcome.summary.high.rejected.to_string(),
            ]);
        }
    }
    table
}

/// The fixed oversized fleet workload of the cluster experiments: four
/// devices' worth of the paper's standing 150 % ResNet18 overload.
pub fn cluster_taskset() -> TaskSet {
    TaskSet::table2_scaled(DnnKind::ResNet18, 4)
}

/// The wide-sweep fleet workload: `devices` devices' worth of the paper's
/// standing 150 % ResNet18 overload, so every fleet size in the 1→64 sweep
/// is offered the same per-device pressure.
pub fn cluster_taskset_scaled(devices: usize) -> TaskSet {
    TaskSet::table2_scaled(DnnKind::ResNet18, devices.max(1).min(u32::MAX as usize) as u32)
}

fn run_cluster(
    taskset: &TaskSet,
    fleet: ClusterSpec,
    strategy: PlacementStrategy,
    horizon: SimTime,
) -> ClusterOutcome {
    run_cluster_threads(taskset, fleet, strategy, horizon, 1)
}

fn run_cluster_threads(
    taskset: &TaskSet,
    fleet: ClusterSpec,
    strategy: PlacementStrategy,
    horizon: SimTime,
    threads: usize,
) -> ClusterOutcome {
    let config = ClusterConfig { strategy, threads, ..Default::default() };
    let mut dispatcher = ClusterDispatcher::new(taskset, fleet, config)
        .expect("valid cluster experiment configuration");
    dispatcher
        .run(&RunSpec::periodic().until(horizon))
        .expect("a periodic spec with a horizon runs")
}

fn cluster_row(label: &str, taskset: &TaskSet, outcome: &ClusterOutcome) -> Vec<String> {
    let s = &outcome.summary;
    vec![
        label.to_owned(),
        s.devices.to_string(),
        fmt_num(s.throughput_jps, 0),
        format!("{:.0}%", 100.0 * s.throughput_jps / taskset.offered_jps().max(1e-9)),
        fmt_pct(s.high.deadline_miss_rate),
        fmt_pct(s.low.deadline_miss_rate),
        (s.low.rejected + s.high.rejected).to_string(),
        s.placement_rejected_tasks.to_string(),
        s.cluster_admissions.to_string(),
        s.migrations.to_string(),
        fmt_pct(s.mean_gpu_utilization.unwrap_or(0.0)),
    ]
}

/// The column set shared by the cluster tables.
const CLUSTER_HEADERS: [&str; 11] = [
    "fleet",
    "devices",
    "JPS",
    "served",
    "HP DMR",
    "LP DMR",
    "rejected jobs",
    "unplaced tasks",
    "cluster adm",
    "migrations",
    "mean util",
];

/// Fleet scaling: aggregate throughput and deadline behaviour of 1→8
/// homogeneous RTX 2080 Ti devices on the fixed oversized
/// [`cluster_taskset`]. Uses the greedy-balance placement, which spreads the
/// high-priority tasks across the fleet — first-fit-decreasing would
/// consolidate them on the first devices and give up HP protection (see
/// [`cluster_fleets`] for that comparison).
pub fn cluster_scaling() -> Table {
    let taskset = cluster_taskset();
    let horizon = horizon();
    let mut table = Table::new(format!(
        "Cluster scaling — {} tasks, {:.0} JPS offered, homogeneous RTX 2080 Ti fleet",
        taskset.len(),
        taskset.offered_jps()
    ));
    table.set_headers(CLUSTER_HEADERS);
    for n in [1usize, 2, 3, 4, 6, 8] {
        let fleet = ClusterSpec::homogeneous(n, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
        let outcome = run_cluster(&taskset, fleet, PlacementStrategy::GreedyBalance, horizon);
        table.add_row(cluster_row(&format!("{n}x 2080 Ti"), &taskset, &outcome));
    }
    table
}

/// The fleet sizes of the wide scaling sweeps, capped at `max_devices`.
fn sweep_sizes(max_devices: usize) -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        .into_iter()
        .filter(|&n| n <= max_devices.max(1))
        .collect()
}

/// Wide fleet scaling with per-fleet-size workloads: each fleet size `n` is
/// offered `n` devices' worth of the standing 150 % ResNet18 overload, so
/// the per-device pressure stays constant and aggregate throughput must
/// scale with the fleet. Runs homogeneous RTX 2080 Ti fleets and the
/// heterogeneous A100/H100/Orin mix up to `max_devices`, each row timed
/// wall-clock with `threads` dispatcher workers and the fleet partitioned
/// into `racks` racks (1 = flat dispatch; larger fleets want more racks so
/// boundary work stays rack-local). The scheduling results are
/// byte-identical at any thread count — `threads` only changes the wall
/// column.
pub fn cluster_scaling_wide(max_devices: usize, threads: usize, racks: usize) -> Vec<Table> {
    let horizon = horizon();
    let racks = racks.max(1);
    let mut tables = Vec::new();
    for (title, hetero) in [
        ("Wide scaling — homogeneous RTX 2080 Ti, workload scaled with the fleet", false),
        ("Wide scaling — heterogeneous a100/h100/orin mix, workload scaled with the fleet", true),
    ] {
        let mut table = Table::new(format!("{title} ({threads} worker threads, {racks} racks)"));
        table.set_headers([
            "devices",
            "tasks",
            "JPS",
            "served",
            "HP DMR",
            "LP DMR",
            "completed",
            "events",
            "wall ms",
            "events/s",
        ]);
        for n in sweep_sizes(max_devices) {
            let taskset = cluster_taskset_scaled(n);
            let fleet = if hetero {
                ClusterSpec::heterogeneous_mix(n)
            } else {
                ClusterSpec::homogeneous(n, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0))
            };
            let config = ClusterConfig {
                strategy: PlacementStrategy::GreedyBalance,
                threads,
                racks,
                ..Default::default()
            };
            // Sanctioned wall-clock site (determinism rule D002): timing
            // harness only, never feeds simulation state.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            let mut dispatcher = ClusterDispatcher::new(&taskset, fleet, config)
                .expect("valid wide-sweep configuration");
            let outcome = dispatcher
                .run(&RunSpec::periodic().until(horizon))
                .expect("a periodic spec with a horizon runs");
            let wall = start.elapsed();
            let s = &outcome.summary;
            let events = dispatcher.events_processed();
            table.add_row([
                n.to_string(),
                taskset.len().to_string(),
                fmt_num(s.throughput_jps, 0),
                format!("{:.0}%", 100.0 * s.throughput_jps / taskset.offered_jps().max(1e-9)),
                fmt_pct(s.high.deadline_miss_rate),
                fmt_pct(s.low.deadline_miss_rate),
                s.total.completed.to_string(),
                events.to_string(),
                format!("{:.0}", wall.as_secs_f64() * 1e3),
                fmt_num(events as f64 / wall.as_secs_f64().max(1e-9), 0),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Homogeneous vs heterogeneous fleets and first-fit-decreasing vs
/// greedy-balance placement on the oversized workload, plus the per-device
/// breakdown of the heterogeneous balanced run.
pub fn cluster_fleets() -> Vec<Table> {
    let taskset = cluster_taskset();
    let horizon = horizon();
    let mut fleet_table =
        Table::new("Cluster fleets — homogeneous vs heterogeneous, FFD vs greedy balance");
    fleet_table.set_headers(CLUSTER_HEADERS);
    let homogeneous =
        || ClusterSpec::homogeneous(4, GpuSpec::rtx_2080_ti(), GpuPartition::mps(6, 6.0));
    for (label, fleet, strategy) in [
        ("4x 2080 Ti (FFD)", homogeneous(), PlacementStrategy::FirstFitDecreasing),
        ("4x 2080 Ti (balance)", homogeneous(), PlacementStrategy::GreedyBalance),
        (
            "2080Ti+A100+H100+Orin (FFD)",
            ClusterSpec::heterogeneous_demo(),
            PlacementStrategy::FirstFitDecreasing,
        ),
    ] {
        let outcome = run_cluster(&taskset, fleet, strategy, horizon);
        fleet_table.add_row(cluster_row(label, &taskset, &outcome));
    }
    let outcome_hetero = run_cluster(
        &taskset,
        ClusterSpec::heterogeneous_demo(),
        PlacementStrategy::GreedyBalance,
        horizon,
    );
    fleet_table.add_row(cluster_row("2080Ti+A100+H100+Orin (balance)", &taskset, &outcome_hetero));

    let mut device_table = Table::new("Heterogeneous fleet (balance) — per-device breakdown");
    device_table.set_headers(["device", "config", "JPS", "HP DMR", "LP DMR", "GPU util"]);
    for device in &outcome_hetero.devices {
        let s = &device.outcome.summary;
        device_table.add_row([
            device.name.clone(),
            device.outcome.config_label.clone(),
            fmt_num(s.throughput_jps, 0),
            fmt_pct(s.high.deadline_miss_rate),
            fmt_pct(s.low.deadline_miss_rate),
            fmt_pct(s.gpu_utilization.unwrap_or(0.0)),
        ]);
    }
    vec![fleet_table, device_table]
}

/// Sec. VI-B: the GSlice / batching / DARIS / DARIS-without-oversubscription
/// comparison on ResNet50 (paper: 433 / ~447 / 498 / 374 JPS).
pub fn gslice_comparison() -> Table {
    let taskset = TaskSet::resnet50_comparison();
    let horizon = horizon();
    let run = |scheduler: Result<BaselineScheduler, GpuError>| {
        let mut scheduler = scheduler.expect("baseline builds");
        scheduler.run(&RunSpec::periodic().until(horizon)).expect("baseline runs").summary
    };
    let batching =
        run(BatchingServer::new().with_batch_size(DnnKind::ResNet50, 8).scheduler(&taskset));
    let gslice = run(GsliceServer::new(2).scheduler(&taskset));
    let fifo = run(FifoMultiStreamServer::new(6).scheduler(&taskset));
    let daris = run_daris_until(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)), horizon);
    let daris_no_os =
        run_daris_until(&taskset, DarisConfig::new(GpuPartition::mps(6, 1.0)), horizon);

    let mut table = Table::new("Sec. VI-B — ResNet50 comparison with state-of-the-art");
    table.set_headers(["scheduler", "JPS (measured)", "JPS (paper)", "HP DMR", "LP DMR"]);
    let rows: [(&str, &ExperimentSummary, &str); 5] = [
        ("pure batching", &batching, "433"),
        ("GSlice-like", &gslice, "~447 (+3.5%)"),
        ("FIFO multi-stream", &fifo, "n/a"),
        ("DARIS (MPS 6x1 OS6)", &daris.summary, "498"),
        ("DARIS without oversubscription (OS1)", &daris_no_os.summary, "374"),
    ];
    for (name, summary, paper) in rows {
        table.add_row([
            name.to_owned(),
            fmt_num(summary.throughput_jps, 0),
            paper.to_owned(),
            fmt_pct(summary.high.deadline_miss_rate),
            fmt_pct(summary.low.deadline_miss_rate),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sweeps_have_expected_sizes() {
        assert_eq!(mps_partitions().len(), 19);
        assert_eq!(str_partitions().len(), 5);
        assert_eq!(mps_str_partitions().len(), 10);
        for p in mps_partitions() {
            assert!(p.oversubscription >= 1.0);
            assert!(p.oversubscription <= f64::from(p.n_contexts));
        }
    }

    #[test]
    fn table_builders_and_horizon_override() {
        // Env manipulation and the table smoke checks share one test so the
        // environment is never mutated concurrently.
        let saved = std::env::var("DARIS_HORIZON_MS").ok();
        std::env::remove_var("DARIS_HORIZON_MS");
        assert_eq!(horizon(), SimTime::from_millis(1500));
        assert_eq!(horizon_capped_ms(400), 400, "no override leaves test horizons alone");
        std::env::set_var("DARIS_HORIZON_MS", "1");
        assert_eq!(horizon(), SimTime::from_millis(50), "clamped to a sane minimum");
        assert_eq!(horizon_capped_ms(400), 50);
        // Malformed values fail loudly instead of silently running the
        // 25x-longer default.
        std::env::set_var("DARIS_HORIZON_MS", "soon");
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let malformed = std::panic::catch_unwind(horizon);
        let malformed_capped = std::panic::catch_unwind(|| horizon_capped_ms(400));
        std::panic::set_hook(prev_hook);
        assert!(malformed.is_err(), "malformed DARIS_HORIZON_MS must panic");
        assert!(malformed_capped.is_err());
        // Use a tiny horizon so the table builders stay unit-test sized.
        std::env::set_var("DARIS_HORIZON_MS", "60");
        assert_eq!(horizon(), SimTime::from_millis(60));
        assert_eq!(horizon_capped_ms(400), 60, "the env var caps test horizons");
        assert_eq!(horizon_capped_ms(55), 55);
        let t1 = table1();
        assert_eq!(t1.row_count(), 4);
        let t2 = table2();
        assert_eq!(t2.row_count(), 3);
        let f8 = figure8_ablation();
        assert_eq!(f8.row_count(), 5);
        match saved {
            Some(v) => std::env::set_var("DARIS_HORIZON_MS", v),
            None => std::env::remove_var("DARIS_HORIZON_MS"),
        }
    }
}
