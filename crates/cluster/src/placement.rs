//! Utilization-aware placement of a task set onto a fleet.
//!
//! Placement answers the *offline* question: which device does each task
//! live on? It packs tasks by their Eq. 10 utilization (inflated isolated
//! latency over period — the same estimate that seeds the online admission
//! test of Eq. 11–12) against each device's stream capacity scaled by its SM
//! ratio, while accounting resident model weights against device memory.
//! High-priority tasks are placed first (mirroring Algorithm 1's HP-first
//! context population); every task is either placed on exactly one device or
//! explicitly rejected.

use std::collections::{BTreeMap, BTreeSet};

use daris_core::AFET_INFLATION;
use daris_gpu::GpuSpec;
use daris_models::{DnnKind, ModelProfile};
use daris_workload::{Priority, TaskId, TaskSet};

use crate::ClusterSpec;

/// The bin-packing policy used by [`place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// First-fit-decreasing: tasks in decreasing utilization order, each on
    /// the first device (fleet order) with room. Concentrates load on early
    /// devices, minimizing the number of devices touched.
    #[default]
    FirstFitDecreasing,
    /// Greedy balance: tasks in decreasing utilization order, each on the
    /// fitting device with the lowest relative load. Spreads load evenly,
    /// which favors tail latency over consolidation.
    GreedyBalance,
}

/// The tasks one device ends up serving.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    /// Index of the device in the [`ClusterSpec`].
    pub device: usize,
    /// Global task indices placed here, in ascending (original) order.
    pub task_indices: Vec<usize>,
    /// The device-local task set (ids reassigned to `0..n`, original
    /// relative order preserved — a single-device plan over the full set is
    /// exactly the original set).
    pub taskset: TaskSet,
    /// Total packed utilization (Eq. 10 estimates).
    pub utilization: f64,
    /// Bytes of resident model weights this plan requires.
    pub memory_bytes: u64,
}

/// Result of placing a task set onto a fleet.
#[derive(Debug, Clone)]
pub struct Placement {
    /// One plan per device (possibly with no tasks).
    pub plans: Vec<DevicePlan>,
    /// Global task index → device index, `None` for rejected tasks.
    pub device_of: Vec<Option<usize>>,
    /// Tasks no device could take, in id order.
    pub rejected: Vec<TaskId>,
}

impl Placement {
    /// Number of placed tasks.
    pub fn placed_count(&self) -> usize {
        self.device_of.iter().filter(|d| d.is_some()).count()
    }
}

/// Model profiles calibrated against `reference`, and each task's estimated
/// Eq. 10 utilization: inflated isolated latency (on the reference device,
/// at the task's batch size) over its period. The isolated latency is
/// computed once per (model, batch) and shared by every task that has it.
fn profiles_and_utilizations(
    taskset: &TaskSet,
    reference: &GpuSpec,
) -> (BTreeMap<DnnKind, ModelProfile>, Vec<f64>) {
    let profiles: BTreeMap<DnnKind, ModelProfile> = taskset
        .model_kinds()
        .into_iter()
        .map(|k| (k, ModelProfile::calibrated_for(k, reference)))
        .collect();
    let mut isolated_us = BTreeMap::new();
    let utils = taskset
        .tasks()
        .iter()
        .map(|task| {
            let latency_us = *isolated_us
                .entry((task.model, task.batch_size))
                .or_insert_with(|| profiles[&task.model].isolated_latency_us(task.batch_size));
            latency_us * AFET_INFLATION / task.period.as_micros_f64().max(1e-9)
        })
        .collect();
    (profiles, utils)
}

/// The Eq. 10 utilization estimates the placement engine packs with, one per
/// task, with model profiles calibrated against `reference`. Exposed so
/// tests and capacity planners can audit a [`Placement`] independently.
pub fn utilization_estimates(taskset: &TaskSet, reference: &GpuSpec) -> Vec<f64> {
    profiles_and_utilizations(taskset, reference).1
}

/// Partitions `taskset` across `cluster` under `strategy`.
///
/// `reference` is the device the model profiles are calibrated against (the
/// paper's RTX 2080 Ti in all shipped experiments); device capacities are
/// expressed relative to its SM count.
pub fn place(
    taskset: &TaskSet,
    cluster: &ClusterSpec,
    strategy: PlacementStrategy,
    reference: &GpuSpec,
) -> Placement {
    let (profiles, utils) = profiles_and_utilizations(taskset, reference);
    debug_assert_eq!(utils.len(), taskset.len());

    let n_devices = cluster.len();
    let capacity: Vec<f64> =
        cluster.devices().iter().map(|d| d.utilization_capacity(reference.sm_count)).collect();
    let mut used = vec![0.0f64; n_devices];
    let mut mem_used = vec![0u64; n_devices];
    let mut resident: Vec<BTreeSet<DnnKind>> = vec![BTreeSet::new(); n_devices];
    let mut device_of: Vec<Option<usize>> = vec![None; taskset.len()];
    let mut rejected = Vec::new();

    // HP first, then LP, each class in decreasing utilization order (ties
    // broken by index for determinism) — first-fit-*decreasing*.
    let mut order: Vec<usize> = Vec::with_capacity(taskset.len());
    for priority in Priority::both() {
        let mut class: Vec<usize> =
            (0..taskset.len()).filter(|&i| taskset.tasks()[i].priority == priority).collect();
        class.sort_by(|&a, &b| utils[b].total_cmp(&utils[a]).then_with(|| a.cmp(&b)));
        order.extend(class);
    }

    for idx in order {
        let task = &taskset.tasks()[idx];
        let weight = profiles[&task.model].weight_bytes();
        let fits = |d: usize, used: &[f64], mem_used: &[u64], resident: &[BTreeSet<DnnKind>]| {
            let extra_mem = if resident[d].contains(&task.model) { 0 } else { weight };
            used[d] + utils[idx] <= capacity[d] + 1e-9
                && mem_used[d] + extra_mem <= cluster.devices()[d].memory_budget()
        };
        let candidates = (0..n_devices).filter(|&d| fits(d, &used, &mem_used, &resident));
        let chosen = match strategy {
            PlacementStrategy::FirstFitDecreasing => candidates.min(),
            PlacementStrategy::GreedyBalance => candidates.min_by(|&a, &b| {
                let load = |d: usize| used[d] / capacity[d].max(1e-9);
                load(a).total_cmp(&load(b)).then_with(|| a.cmp(&b))
            }),
        };
        match chosen {
            Some(d) => {
                device_of[idx] = Some(d);
                used[d] += utils[idx];
                if resident[d].insert(task.model) {
                    mem_used[d] += weight;
                }
            }
            None => rejected.push(task.id),
        }
    }
    rejected.sort_unstable();

    let plans = (0..n_devices)
        .map(|d| {
            let task_indices: Vec<usize> =
                (0..taskset.len()).filter(|&i| device_of[i] == Some(d)).collect();
            // Phases must survive sub-setting: the dispatcher feeds each
            // device an arrival stream over its local set, and those streams
            // together must reproduce the global release times exactly.
            let local = TaskSet::preserving_phases(
                task_indices.iter().map(|&i| taskset.tasks()[i].clone()),
            );
            DevicePlan {
                device: d,
                taskset: local,
                task_indices,
                utilization: used[d],
                memory_bytes: mem_used[d],
            }
        })
        .collect();

    Placement { plans, device_of, rejected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;
    use daris_core::GpuPartition;
    use daris_models::DnnKind;

    fn reference() -> GpuSpec {
        GpuSpec::rtx_2080_ti()
    }

    #[test]
    fn single_device_takes_a_feasible_set_in_original_order() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let fleet = ClusterSpec::homogeneous(1, reference(), GpuPartition::mps(6, 6.0));
        let p = place(&taskset, &fleet, PlacementStrategy::FirstFitDecreasing, &reference());
        assert!(p.rejected.is_empty());
        assert_eq!(p.placed_count(), taskset.len());
        // The local set preserves the original order, so ids line up 1:1.
        assert_eq!(p.plans[0].taskset.tasks().len(), taskset.len());
        for (a, b) in p.plans[0].taskset.tasks().iter().zip(taskset.tasks()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.model, b.model);
            assert_eq!(a.priority, b.priority);
        }
    }

    #[test]
    fn oversized_set_is_partially_rejected_with_hp_preferred() {
        // 4x the ResNet18 set on one device: far beyond its capacity.
        let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
        let fleet = ClusterSpec::homogeneous(1, reference(), GpuPartition::mps(6, 6.0));
        let p = place(&taskset, &fleet, PlacementStrategy::FirstFitDecreasing, &reference());
        assert!(!p.rejected.is_empty());
        assert_eq!(p.placed_count() + p.rejected.len(), taskset.len());
        // HP tasks were placed before any LP task.
        let placed_lp = p
            .device_of
            .iter()
            .enumerate()
            .filter(|(i, d)| d.is_some() && taskset.tasks()[*i].priority == Priority::Low)
            .count();
        let rejected_hp = p
            .rejected
            .iter()
            .filter(|id| taskset.task(**id).unwrap().priority == Priority::High)
            .count();
        assert!(
            placed_lp == 0 || rejected_hp == 0,
            "LP must not displace HP: {placed_lp} LP placed while {rejected_hp} HP rejected"
        );
    }

    #[test]
    fn greedy_balance_spreads_while_ffd_concentrates() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let fleet = ClusterSpec::homogeneous(4, reference(), GpuPartition::mps(6, 6.0));
        let ffd = place(&taskset, &fleet, PlacementStrategy::FirstFitDecreasing, &reference());
        let bal = place(&taskset, &fleet, PlacementStrategy::GreedyBalance, &reference());
        // FFD packs the small set on device 0; balance uses every device.
        assert_eq!(ffd.plans[0].task_indices.len(), taskset.len());
        assert!(bal.plans.iter().all(|p| !p.task_indices.is_empty()));
        let spread_max = bal.plans.iter().map(|p| p.task_indices.len()).max().unwrap();
        let spread_min = bal.plans.iter().map(|p| p.task_indices.len()).min().unwrap();
        assert!(spread_max - spread_min <= 1, "balance should spread evenly");
    }

    #[test]
    fn memory_budget_limits_distinct_models() {
        // A device with almost no memory cannot host any model weights.
        let mut tiny_gpu = reference();
        tiny_gpu.memory_bytes = 1024;
        let fleet = ClusterSpec::new().with_device(DeviceSpec::new(
            "tiny",
            tiny_gpu,
            GpuPartition::mps(6, 6.0),
        ));
        let taskset = TaskSet::table2(DnnKind::UNet);
        let p = place(&taskset, &fleet, PlacementStrategy::FirstFitDecreasing, &reference());
        assert_eq!(p.placed_count(), 0);
        assert_eq!(p.rejected.len(), taskset.len());
    }
}
