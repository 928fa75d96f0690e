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
//!
//! The pass is a pure function of the inputs [`AfetKey`] names, so it runs
//! once per process for each distinct key: every later scheduler built on
//! the same platform reuses the stored table.

use std::collections::BTreeMap;
use std::sync::Mutex;

use daris_gpu::{Gpu, GpuSpec, InterferenceModel, SimDuration, SimTime};
use daris_models::{DnnKind, ModelProfile};
use daris_workload::TaskSet;

use crate::{CoreError, DarisConfig, GpuPartition, PartitionPolicy, Result};

/// Number of measured repetitions per target model.
const REPETITIONS: usize = 3;

/// Every input the AFET pass reads, as exact bits, so a memo hit is the
/// table a fresh pass would measure.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct AfetKey {
    /// The task set's model kinds in order, each with the bits of its
    /// profile's work and parallelism scales (which, with the kind, fix
    /// every kernel the pass submits).
    models: Vec<(DnnKind, u64, u64)>,
    /// Every [`GpuPartition`] field, the oversubscription as bits.
    partition: (PartitionPolicy, u32, u32, u64),
    /// Every [`GpuSpec`] field, floats as bits: SM count, memory, copy
    /// bandwidth, copy latency, launch overhead, the interference model
    /// and the jitter seed.
    gpu: (u32, u64, u64, SimDuration, SimDuration, [u64; 3], u64),
}

impl AfetKey {
    /// The key of a pass, or `None` when a model lacks a profile (the pass
    /// then fails, and failures are not memoized).
    fn new(
        taskset: &TaskSet,
        config: &DarisConfig,
        profiles: &BTreeMap<DnnKind, ModelProfile>,
    ) -> Option<Self> {
        let models = taskset
            .model_kinds()
            .into_iter()
            .map(|k| {
                let p = profiles.get(&k)?;
                Some((k, p.work_scale().to_bits(), p.par_scale().to_bits()))
            })
            .collect::<Option<_>>()?;
        // Exhaustive destructuring: a field added to either type fails to
        // compile here until the key covers it.
        let GpuPartition { policy, n_contexts, streams_per_context, oversubscription } =
            config.partition;
        let GpuSpec {
            sm_count,
            memory_bytes,
            copy_bandwidth_bytes_per_us,
            copy_latency,
            default_launch_overhead,
            interference,
            jitter_seed,
        } = config.gpu;
        let InterferenceModel { per_context_penalty, oversubscription_penalty, work_jitter } =
            interference;
        Some(AfetKey {
            models,
            partition: (policy, n_contexts, streams_per_context, oversubscription.to_bits()),
            gpu: (
                sm_count,
                memory_bytes,
                copy_bandwidth_bytes_per_us.to_bits(),
                copy_latency,
                default_launch_overhead,
                [
                    per_context_penalty.to_bits(),
                    oversubscription_penalty.to_bits(),
                    work_jitter.to_bits(),
                ],
                jitter_seed,
            ),
        })
    }
}

/// AFET tables of this process, one per [`AfetKey`].
static PROFILED: Mutex<BTreeMap<AfetKey, AfetProfiler>> = Mutex::new(BTreeMap::new());

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
    /// The pass runs once per process for each distinct set of inputs it
    /// reads (the task set's kinds and their profiles' scales, and every
    /// partition and device field); later calls return a clone of that
    /// table, equal bit for bit to a fresh pass.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (which indicate a configuration bug).
    pub fn profile(
        taskset: &TaskSet,
        config: &DarisConfig,
        profiles: &BTreeMap<DnnKind, ModelProfile>,
    ) -> Result<Self> {
        let Some(key) = AfetKey::new(taskset, config, profiles) else {
            return Self::measure(taskset, config, profiles);
        };
        let memo = || PROFILED.lock().expect("no thread panics holding the AFET memo");
        if let Some(hit) = memo().get(&key) {
            return Ok(hit.clone());
        }
        // Measure without the lock, so devices built on other threads with
        // other seeds do not wait; a racing fill of the same key measures
        // the same table and the first one stored wins.
        let fresh = Self::measure(taskset, config, profiles)?;
        Ok(memo().entry(key).or_insert(fresh).clone())
    }

    /// The AFET pass itself, without the memo.
    fn measure(
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
    let streams = gpu.add_contexts(
        partition.n_contexts,
        partition.sm_quota(config.gpu.sm_count),
        partition.streams_per_context,
    )?;
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
            gpu.submit(*stream, profile.job_item(tag, 1))?;
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
            gpu.submit(target_stream, target_profile.stage_item(stage_tag, stage, 1))?;
            // Run until this stage finishes (background work keeps flowing).
            while gpu.advance_until_completion(SimTime::MAX, &mut completions) {
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
    use std::collections::BTreeSet;

    use super::*;

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

    /// Bit equality of two AFET tables over `kinds`.
    fn assert_same_afet(a: &AfetProfiler, b: &AfetProfiler, kinds: &[DnnKind], what: &str) {
        assert_eq!(a.kinds(), b.kinds(), "{what}");
        for &kind in kinds {
            assert_eq!(a.stage_afets(kind), b.stage_afets(kind), "{what}: {kind}");
        }
    }

    #[test]
    fn an_afet_hit_equals_an_uncached_pass() {
        let taskset = TaskSet::mixed();
        let profiles = profiles_for(&taskset);
        let config = DarisConfig::new(GpuPartition::mps(3, 2.0));
        let first = AfetProfiler::profile(&taskset, &config, &profiles).unwrap();
        let hit = AfetProfiler::profile(&taskset, &config, &profiles).unwrap();
        let fresh = AfetProfiler::measure(&taskset, &config, &profiles).unwrap();
        let kinds = taskset.model_kinds();
        assert_same_afet(&first, &fresh, &kinds, "first call");
        assert_same_afet(&hit, &fresh, &kinds, "hit");
    }

    #[test]
    fn afet_memo_gives_each_key_input_its_own_entry() {
        let taskset = TaskSet::table2(DnnKind::ResNet18);
        let profiles = profiles_for(&taskset);
        let base = DarisConfig::new(GpuPartition::mps(2, 2.0));
        let mut seed = base.clone();
        seed.gpu.jitter_seed ^= 1;
        let mut interference = base.clone();
        interference.gpu.interference.per_context_penalty *= 2.0;
        let mut latency = base.clone();
        latency.gpu.copy_latency += SimDuration::from_micros(1);
        let mut oversubscription = base.clone();
        oversubscription.partition.oversubscription = 1.5;
        let variants = [
            ("base", base),
            ("jitter seed", seed),
            ("interference", interference),
            ("copy latency", latency),
            ("oversubscription", oversubscription),
        ];
        let keys: BTreeSet<AfetKey> = variants
            .iter()
            .map(|(_, config)| AfetKey::new(&taskset, config, &profiles).unwrap())
            .collect();
        assert_eq!(keys.len(), variants.len(), "every variant differs in one key input");
        let kinds = taskset.model_kinds();
        for (name, config) in &variants {
            let memoized = AfetProfiler::profile(&taskset, config, &profiles).unwrap();
            let key = AfetKey::new(&taskset, config, &profiles).unwrap();
            assert!(PROFILED.lock().unwrap().contains_key(&key), "{name}");
            let fresh = AfetProfiler::measure(&taskset, config, &profiles).unwrap();
            assert_same_afet(&memoized, &fresh, &kinds, name);
        }
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
