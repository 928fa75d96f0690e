//! Average Full-load Execution Time (AFET) profiling (Sec. IV-A1).
//!
//! Before any execution history exists, DARIS needs a pessimistic per-stage
//! execution-time estimate to seed the MRET estimator and to drive the
//! offline context population (Eq. 10). The paper measures the target task
//! while the remaining streams execute other tasks ("full load"). The
//! profiler below reproduces that procedure on the simulator: for every model
//! kind present in the task set, it runs a few inferences of that model on
//! one stream while every other stream of the partition continuously executes
//! the other kinds, and averages the per-stage execution times.

use std::collections::BTreeMap;

use daris_gpu::{Gpu, SimDuration, WorkItem};
use daris_models::{DnnKind, ModelProfile};
use daris_workload::TaskSet;

use crate::{CoreError, DarisConfig, Result};

/// Number of measured repetitions per target model.
const REPETITIONS: usize = 3;

/// Per-model-kind AFET estimates.
#[derive(Debug, Clone, Default)]
pub struct AfetProfiler {
    per_kind: BTreeMap<DnnKind, Vec<SimDuration>>,
}

impl AfetProfiler {
    /// Profiles every model kind appearing in `taskset` under the partition
    /// described by `config`, using `profiles` for kernel lowering.
    ///
    /// The background load cycles deterministically through the other model
    /// kinds of the task set (the paper uses random co-runners; a fixed
    /// rotation keeps runs reproducible and is equally "full load").
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (which indicate a configuration bug).
    pub fn profile(
        taskset: &TaskSet,
        config: &DarisConfig,
        profiles: &BTreeMap<DnnKind, ModelProfile>,
    ) -> Result<Self> {
        let kinds = taskset.model_kinds();
        let mut per_kind = BTreeMap::new();
        for &target in &kinds {
            let profile = profiles
                .get(&target)
                .ok_or_else(|| CoreError::InvalidConfig(format!("missing profile for {target}")))?;
            let stage_times = measure_full_load(target, profile, &kinds, config, profiles)?;
            per_kind.insert(target, stage_times);
        }
        Ok(AfetProfiler { per_kind })
    }

    /// Builds an AFET table directly from isolated latencies inflated by a
    /// fixed factor (a cheap fallback used in tests and when the caller does
    /// not want a profiling pass).
    pub fn from_isolated(profiles: &BTreeMap<DnnKind, ModelProfile>, inflation: f64) -> Self {
        let mut per_kind = BTreeMap::new();
        for (kind, profile) in profiles {
            let stages = (0..profile.stage_count())
                .map(|s| {
                    SimDuration::from_micros_f64(
                        profile.isolated_stage_latency_us(s, 1) * inflation,
                    )
                })
                .collect();
            per_kind.insert(*kind, stages);
        }
        AfetProfiler { per_kind }
    }

    /// Per-stage AFETs of a model kind (empty slice if never profiled).
    pub fn stage_afets(&self, kind: DnnKind) -> &[SimDuration] {
        self.per_kind.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whole-task AFET of a model kind.
    pub fn task_afet(&self, kind: DnnKind) -> SimDuration {
        self.stage_afets(kind).iter().fold(SimDuration::ZERO, |a, d| a + *d)
    }

    /// Model kinds covered by this profiler.
    pub fn kinds(&self) -> Vec<DnnKind> {
        let mut kinds: Vec<DnnKind> = self.per_kind.keys().copied().collect();
        kinds.sort();
        kinds
    }
}

/// Runs the full-load measurement for one target model.
fn measure_full_load(
    target: DnnKind,
    target_profile: &ModelProfile,
    all_kinds: &[DnnKind],
    config: &DarisConfig,
    profiles: &BTreeMap<DnnKind, ModelProfile>,
) -> Result<Vec<SimDuration>> {
    let partition = config.partition;
    let mut gpu = Gpu::new(config.gpu.clone());
    let quota = partition.sm_quota(config.gpu.sm_count);
    let mut streams = Vec::new();
    for _ in 0..partition.n_contexts {
        let ctx = gpu.add_context(quota)?;
        for _ in 0..partition.streams_per_context {
            streams.push(gpu.add_stream(ctx)?);
        }
    }
    let target_stream = streams[0];
    let background: Vec<_> = streams.iter().skip(1).copied().collect();

    // Keep the background streams saturated for the whole measurement: queue
    // enough whole-model jobs of the other kinds on each of them.
    let mut tag = 1_000_000u64;
    for (i, stream) in background.iter().enumerate() {
        let kind = if all_kinds.len() > 1 {
            // Rotate over the *other* kinds where possible.
            let others: Vec<_> = all_kinds.iter().copied().filter(|k| *k != target).collect();
            others[i % others.len()]
        } else {
            target
        };
        let profile = profiles.get(&kind).unwrap_or(target_profile);
        for _ in 0..(REPETITIONS + 2) {
            let item = WorkItem::new(tag, profile.job_kernels(1))
                .with_h2d_bytes(profile.input_bytes(1))
                .with_d2h_bytes(profile.output_bytes(1));
            gpu.submit(*stream, item)?;
            tag += 1;
        }
    }

    // Measure the target's stages back-to-back, REPETITIONS times.
    let stage_count = target_profile.stage_count();
    let mut sums = vec![0.0f64; stage_count];
    let mut completions = Vec::new();
    for rep in 0..REPETITIONS {
        for (stage, sum) in sums.iter_mut().enumerate() {
            let stage_tag = (rep * stage_count + stage) as u64;
            let mut item = WorkItem::new(stage_tag, target_profile.stage_kernels(stage, 1));
            if stage == 0 {
                item = item.with_h2d_bytes(target_profile.input_bytes(1));
            }
            if stage + 1 == stage_count {
                item = item.with_d2h_bytes(target_profile.output_bytes(1));
            }
            gpu.submit(target_stream, item)?;
            // Run until this stage finishes (background work keeps flowing).
            while let Some(t) = gpu.next_event_time() {
                gpu.advance_into(t, &mut completions);
                let mut done = false;
                for c in completions.drain(..) {
                    if c.stream == target_stream && c.tag == stage_tag {
                        *sum += c.execution_time().as_micros_f64();
                        done = true;
                    }
                }
                if done {
                    break;
                }
            }
        }
    }
    Ok(sums
        .into_iter()
        .map(|total| SimDuration::from_micros_f64(total / REPETITIONS as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuPartition;
    use daris_workload::TaskSet;

    fn profiles_for(taskset: &TaskSet) -> BTreeMap<DnnKind, ModelProfile> {
        taskset.model_kinds().into_iter().map(|k| (k, ModelProfile::calibrated(k))).collect()
    }

    #[test]
    fn full_load_afet_exceeds_isolated_latency() {
        let taskset = TaskSet::mixed();
        let profiles = profiles_for(&taskset);
        let config = DarisConfig::new(GpuPartition::mps(4, 1.0));
        let afet = AfetProfiler::profile(&taskset, &config, &profiles).unwrap();
        for kind in taskset.model_kinds() {
            let isolated = profiles[&kind].isolated_latency_us(1);
            let full_load = afet.task_afet(kind).as_micros_f64();
            assert!(
                full_load > isolated,
                "{kind}: AFET {full_load:.0}us should exceed isolated {isolated:.0}us"
            );
            assert_eq!(afet.stage_afets(kind).len(), profiles[&kind].stage_count());
        }
        assert_eq!(afet.kinds().len(), 3);
    }

    #[test]
    fn from_isolated_inflates_uniformly() {
        let taskset = TaskSet::table2(DnnKind::UNet);
        let profiles = profiles_for(&taskset);
        let afet = AfetProfiler::from_isolated(&profiles, 2.0);
        let isolated_kernels: f64 = (0..profiles[&DnnKind::UNet].stage_count())
            .map(|s| profiles[&DnnKind::UNet].isolated_stage_latency_us(s, 1))
            .sum();
        let total = afet.task_afet(DnnKind::UNet).as_micros_f64();
        assert!((total - 2.0 * isolated_kernels).abs() / total < 0.01);
    }

    #[test]
    fn unknown_kind_has_empty_afet() {
        let afet = AfetProfiler::default();
        assert!(afet.stage_afets(DnnKind::ResNet18).is_empty());
        assert_eq!(afet.task_afet(DnnKind::ResNet18), SimDuration::ZERO);
    }
}
