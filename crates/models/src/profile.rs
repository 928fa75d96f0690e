//! Calibrated model profiles.
//!
//! A [`ModelProfile`] glues a model graph to the kernel lowering and carries
//! two per-model calibration factors:
//!
//! * `work_scale` — chosen so that the profile's isolated single-stream
//!   latency matches the paper's Table I "min JPS";
//! * `par_scale` — chosen so that the best batched throughput matches
//!   Table I "max JPS" (and therefore the batching gain).
//!
//! Both are fitted analytically (no simulation in the loop): the isolated
//! latency of a kernel sequence on an otherwise idle device is simply
//! `Σ (launch + work / min(parallelism, NSM))` plus copy-engine time, which
//! the simulator reproduces exactly.
//!
//! Like DARIS's offline profiling, a profile lowers its kernels once: every
//! stage, and the whole job, at batch 1 when the profile is built. Run-time
//! dispatch only clones those shared slices; only batched dispatches lower.
//!
//! Profiling is also done once per platform: calibrated profiles are
//! memoized for the whole process by the device fields calibration reads, so
//! every scheduler built for the same platform shares one profile.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use daris_gpu::{GpuSpec, KernelDesc, SimDuration, WorkItem};

use crate::lowering::{self, LAUNCH_OVERHEAD_US};
use crate::{zoo, DnnKind, Layer, ModelGraph};

/// Batch sizes explored when searching for the best batched throughput
/// (Table I "max JPS" is the best the paper found over its batch sweep).
const BATCH_SWEEP: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Published single-DNN throughput from Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Reference {
    /// Unbatched (batch = 1) single-stream throughput in jobs per second.
    pub min_jps: f64,
    /// Best batched throughput in jobs per second.
    pub max_jps: f64,
}

impl Table1Reference {
    /// The Table I row for `kind`.
    pub fn for_kind(kind: DnnKind) -> Self {
        match kind {
            DnnKind::ResNet18 => Table1Reference { min_jps: 627.0, max_jps: 1025.0 },
            DnnKind::ResNet50 => Table1Reference { min_jps: 250.0, max_jps: 433.0 },
            DnnKind::UNet => Table1Reference { min_jps: 241.0, max_jps: 260.0 },
            DnnKind::InceptionV3 => Table1Reference { min_jps: 142.0, max_jps: 446.0 },
        }
    }

    /// The batching gain (`max / min`, the last column of Table I).
    pub fn gain(&self) -> f64 {
        self.max_jps / self.min_jps
    }
}

/// One point of a batch-size sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSweepPoint {
    /// Batch size.
    pub batch: u32,
    /// Isolated latency of one batch in microseconds.
    pub latency_us: f64,
    /// Resulting throughput in jobs per second.
    pub jps: f64,
}

/// The inputs [`ModelProfile::calibrated_for`] reads, as exact bits: the
/// model kind and the device's SM count, copy latency and copy bandwidth.
type CalibrationKey = (DnnKind, u32, SimDuration, u64);

/// Calibrated profiles of this process, one per [`CalibrationKey`].
static CALIBRATED: Mutex<BTreeMap<CalibrationKey, ModelProfile>> = Mutex::new(BTreeMap::new());

/// A calibrated, executable profile of one DNN.
///
/// Clones share the graph and the lowered kernel slices.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    kind: DnnKind,
    graph: Arc<ModelGraph>,
    sm_count: u32,
    copy_latency_us: f64,
    copy_bandwidth_bytes_per_us: f64,
    work_scale: f64,
    par_scale: f64,
    /// Kernels of each stage at batch 1, lowered when the profile is built.
    stages: Arc<[Arc<[KernelDesc]>]>,
    /// Kernels of the whole job at batch 1: the stage slices concatenated.
    job: Arc<[KernelDesc]>,
}

impl ModelProfile {
    /// Builds a profile calibrated against Table I for the default evaluation
    /// device (RTX 2080 Ti, 68 SMs).
    pub fn calibrated(kind: DnnKind) -> Self {
        Self::calibrated_for(kind, &GpuSpec::rtx_2080_ti())
    }

    /// Builds a profile calibrated against Table I for an arbitrary device.
    ///
    /// Calibration runs once per process for each model kind and each
    /// distinct (SM count, copy latency, copy bandwidth) of `spec`, the only
    /// device fields it reads; later calls return a clone of that profile,
    /// equal bit for bit to a fresh calibration.
    pub fn calibrated_for(kind: DnnKind, spec: &GpuSpec) -> Self {
        let key =
            (kind, spec.sm_count, spec.copy_latency, spec.copy_bandwidth_bytes_per_us.to_bits());
        let memo = || CALIBRATED.lock().expect("no thread panics holding the calibration memo");
        if let Some(hit) = memo().get(&key) {
            return hit.clone();
        }
        // Calibrate without the lock, so devices built on other threads for
        // other platforms do not wait; a racing fill of the same key
        // computes the same profile and the first one stored wins.
        let fresh = Self::build(kind, spec, true);
        memo().entry(key).or_insert(fresh).clone()
    }

    /// Builds an uncalibrated profile (`work_scale = par_scale = 1`), mostly
    /// useful for inspecting the raw cost model.
    pub fn uncalibrated(kind: DnnKind) -> Self {
        Self::build(kind, &GpuSpec::rtx_2080_ti(), false)
    }

    /// Builds a profile, fits its scales when `calibrate` is set, then
    /// lowers its batch-1 kernels with the final scales.
    fn build(kind: DnnKind, spec: &GpuSpec, calibrate: bool) -> Self {
        let mut profile = ModelProfile {
            kind,
            graph: Arc::new(zoo::graph(kind)),
            sm_count: spec.sm_count,
            copy_latency_us: spec.copy_latency.as_micros_f64(),
            copy_bandwidth_bytes_per_us: spec.copy_bandwidth_bytes_per_us,
            work_scale: 1.0,
            par_scale: 1.0,
            stages: Arc::from([]),
            job: Arc::from([]),
        };
        if calibrate {
            profile.fit_to(Table1Reference::for_kind(kind));
        }
        profile.stages = (0..profile.stage_count())
            .map(|s| profile.lower(profile.graph.stage_layers(s), 1))
            .collect();
        profile.job = profile.stages.iter().flat_map(|s| s.iter().cloned()).collect();
        profile
    }

    /// The model kind.
    pub fn kind(&self) -> DnnKind {
        self.kind
    }

    /// The underlying layer graph.
    pub fn graph(&self) -> &ModelGraph {
        &self.graph
    }

    /// Calibrated work scale (exposed for diagnostics and EXPERIMENTS.md).
    pub fn work_scale(&self) -> f64 {
        self.work_scale
    }

    /// Calibrated parallelism scale.
    pub fn par_scale(&self) -> f64 {
        self.par_scale
    }

    /// Number of stages (`n_i` in the paper's task model).
    pub fn stage_count(&self) -> usize {
        self.graph.stage_count()
    }

    /// The Table I reference values this profile was calibrated against.
    pub fn reference(&self) -> Table1Reference {
        Table1Reference::for_kind(self.kind)
    }

    /// Bytes of resident weights.
    pub fn weight_bytes(&self) -> u64 {
        self.graph.weight_bytes()
    }

    /// Host-to-device input bytes for a batch of `batch` samples.
    pub fn input_bytes(&self, batch: u32) -> u64 {
        self.graph.layers.first().map(|l| l.input.bytes_f32()).unwrap_or(0)
            * u64::from(batch.max(1))
    }

    /// Device-to-host output bytes for a batch of `batch` samples.
    pub fn output_bytes(&self, batch: u32) -> u64 {
        self.graph.layers.last().map(|l| l.output.bytes_f32()).unwrap_or(0)
            * u64::from(batch.max(1))
    }

    /// Kernels of stage `stage` for a batch of `batch` samples: the slice
    /// lowered when the profile was built at batch 1 (a refcount bump), a
    /// fresh lowering for a larger batch.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= stage_count()`.
    pub fn stage_kernels(&self, stage: usize, batch: u32) -> Arc<[KernelDesc]> {
        if batch <= 1 {
            Arc::clone(&self.stages[stage])
        } else {
            self.lower(self.graph.stage_layers(stage), batch)
        }
    }

    /// Kernels of the whole network (all stages concatenated), shared at
    /// batch 1 like [`stage_kernels`](Self::stage_kernels).
    pub fn job_kernels(&self, batch: u32) -> Arc<[KernelDesc]> {
        if batch <= 1 {
            Arc::clone(&self.job)
        } else {
            self.lower((0..self.stage_count()).flat_map(|s| self.graph.stage_layers(s)), batch)
        }
    }

    /// Stage `stage` of one job of `batch` samples as a GPU work item tagged
    /// `tag`: the input copy rides on the first stage and the output copy
    /// on the last.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= stage_count()`.
    pub fn stage_item(&self, tag: u64, stage: usize, batch: u32) -> WorkItem {
        let mut item = WorkItem::new(tag, self.stage_kernels(stage, batch));
        if stage == 0 {
            item = item.with_h2d_bytes(self.input_bytes(batch));
        }
        if stage + 1 == self.stage_count() {
            item = item.with_d2h_bytes(self.output_bytes(batch));
        }
        item
    }

    /// A whole job of `batch` samples as one GPU work item tagged `tag`,
    /// carrying both copies.
    pub fn job_item(&self, tag: u64, batch: u32) -> WorkItem {
        WorkItem::new(tag, self.job_kernels(batch))
            .with_h2d_bytes(self.input_bytes(batch))
            .with_d2h_bytes(self.output_bytes(batch))
    }

    /// Lowers `layers` at `batch` with the current scales: the one lowering
    /// path, at build time for batch 1 and per dispatch for larger batches.
    fn lower<'a>(
        &self,
        layers: impl IntoIterator<Item = &'a Layer>,
        batch: u32,
    ) -> Arc<[KernelDesc]> {
        layers
            .into_iter()
            .map(|l| lowering::lower(l, batch, self.work_scale, self.par_scale))
            .collect()
    }

    /// Analytic isolated latency of stage `stage` at batch `batch`,
    /// in microseconds (kernels only, no copies).
    pub fn isolated_stage_latency_us(&self, stage: usize, batch: u32) -> f64 {
        self.graph.stage_layers(stage).iter().map(|l| self.layer_latency_us(l, batch)).sum()
    }

    /// Analytic isolated end-to-end latency at batch `batch`, in
    /// microseconds, including input/output copies on the copy engine.
    pub fn isolated_latency_us(&self, batch: u32) -> f64 {
        let kernels: f64 =
            (0..self.stage_count()).map(|s| self.isolated_stage_latency_us(s, batch)).sum();
        kernels + self.copy_time_us(batch)
    }

    /// Copy-engine time (both directions) for a batch, in microseconds.
    pub fn copy_time_us(&self, batch: u32) -> f64 {
        let bytes = (self.input_bytes(batch) + self.output_bytes(batch)) as f64;
        2.0 * self.copy_latency_us + bytes / self.copy_bandwidth_bytes_per_us.max(1e-9)
    }

    /// Sweeps batch sizes and reports latency/throughput for each.
    pub fn batch_sweep(&self) -> Vec<BatchSweepPoint> {
        BATCH_SWEEP
            .iter()
            .map(|&b| {
                let latency_us = self.isolated_latency_us(b);
                BatchSweepPoint { batch: b, latency_us, jps: f64::from(b) * 1e6 / latency_us }
            })
            .collect()
    }

    /// The best batched throughput over the sweep: `(batch, jps)`.
    pub fn best_batched_jps(&self) -> (u32, f64) {
        self.batch_sweep()
            .into_iter()
            .map(|p| (p.batch, p.jps))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("sweep is non-empty")
    }

    /// Unbatched single-stream throughput in jobs per second.
    pub fn isolated_jps(&self) -> f64 {
        1e6 / self.isolated_latency_us(1)
    }

    /// The modelled batching gain (best batched JPS over unbatched JPS),
    /// comparable to Table I's last column.
    pub fn batching_gain(&self) -> f64 {
        self.best_batched_jps().1 / self.isolated_jps()
    }

    // ----- calibration ------------------------------------------------------

    fn layer_latency_us(&self, layer: &Layer, batch: u32) -> f64 {
        let work = lowering::raw_work(layer, batch) * self.work_scale;
        let par = lowering::scaled_parallelism(layer, batch, self.par_scale)
            .min(f64::from(self.sm_count));
        LAUNCH_OVERHEAD_US + work / par.max(1.0)
    }

    /// Fits `work_scale` so the isolated batch-1 latency hits
    /// `1e6 / reference.min_jps` given the current `par_scale`.
    fn fit_work_scale(&mut self, reference: Table1Reference) {
        let target_us = 1e6 / reference.min_jps;
        let fixed: f64 = self.graph.layers.len() as f64 * LAUNCH_OVERHEAD_US + self.copy_time_us(1);
        let variable: f64 = self
            .graph
            .layers
            .iter()
            .map(|l| {
                let par = lowering::scaled_parallelism(l, 1, self.par_scale)
                    .min(f64::from(self.sm_count));
                lowering::raw_work(l, 1) / par.max(1.0)
            })
            .sum();
        let budget = (target_us - fixed).max(target_us * 0.05);
        self.work_scale = budget / variable.max(1e-12);
    }

    /// Bisects `par_scale` so the best batched throughput hits
    /// `reference.max_jps`; refits `work_scale` at every step.
    fn fit_to(&mut self, reference: Table1Reference) {
        let mut lo = 1e-3f64;
        let mut hi = 16.0f64;
        for _ in 0..48 {
            let mid = (lo * hi).sqrt();
            self.par_scale = mid;
            self.fit_work_scale(reference);
            let max_jps = self.best_batched_jps().1;
            if max_jps > reference.max_jps {
                // Too much batching gain: widen kernels.
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.par_scale = (lo * hi).sqrt();
        self.fit_work_scale(reference);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn table1_reference_gains_match_paper() {
        assert!((Table1Reference::for_kind(DnnKind::ResNet18).gain() - 1.63).abs() < 0.02);
        assert!((Table1Reference::for_kind(DnnKind::ResNet50).gain() - 1.73).abs() < 0.02);
        assert!((Table1Reference::for_kind(DnnKind::UNet).gain() - 1.08).abs() < 0.01);
        assert!((Table1Reference::for_kind(DnnKind::InceptionV3).gain() - 3.13).abs() < 0.03);
    }

    #[test]
    fn calibration_reproduces_min_jps() {
        for kind in DnnKind::all() {
            let p = ModelProfile::calibrated(kind);
            let reference = p.reference();
            let err = (p.isolated_jps() - reference.min_jps).abs() / reference.min_jps;
            assert!(err < 0.03, "{kind}: modelled {} vs {}", p.isolated_jps(), reference.min_jps);
        }
    }

    #[test]
    fn calibration_reproduces_max_jps_within_tolerance() {
        for kind in DnnKind::all() {
            let p = ModelProfile::calibrated(kind);
            let reference = p.reference();
            let (_, best) = p.best_batched_jps();
            let err = (best - reference.max_jps).abs() / reference.max_jps;
            assert!(err < 0.10, "{kind}: modelled {best} vs {}", reference.max_jps);
        }
    }

    #[test]
    fn batching_gain_ordering_matches_table1() {
        let gain = |k| ModelProfile::calibrated(k).batching_gain();
        let unet = gain(DnnKind::UNet);
        let r18 = gain(DnnKind::ResNet18);
        let r50 = gain(DnnKind::ResNet50);
        let inc = gain(DnnKind::InceptionV3);
        assert!(unet < r18, "UNet {unet} should gain least (ResNet18 {r18})");
        assert!(r18 < inc, "InceptionV3 {inc} should gain most (ResNet18 {r18})");
        assert!(r50 > r18 * 0.9, "ResNet50 {r50} roughly comparable to ResNet18 {r18}");
    }

    #[test]
    fn stage_latencies_sum_to_job_latency() {
        let p = ModelProfile::calibrated(DnnKind::ResNet18);
        let stages: f64 = (0..p.stage_count()).map(|s| p.isolated_stage_latency_us(s, 1)).sum();
        let job = p.isolated_latency_us(1) - p.copy_time_us(1);
        assert!((stages - job).abs() < 1e-6);
    }

    #[test]
    fn kernels_are_valid_and_labelled() {
        let p = ModelProfile::calibrated(DnnKind::InceptionV3);
        let kernels = p.job_kernels(1);
        assert_eq!(kernels.len(), p.graph().layer_count());
        for k in kernels.iter() {
            assert!(k.validate().is_ok());
            assert!(k.label.is_some());
        }
    }

    #[test]
    fn job_slice_concatenates_the_shared_stage_slices() {
        for kind in DnnKind::all() {
            let p = ModelProfile::calibrated(kind);
            let stages: Vec<KernelDesc> =
                (0..p.stage_count()).flat_map(|s| p.stage_kernels(s, 1).to_vec()).collect();
            assert_eq!(*p.job_kernels(1), *stages, "{kind}");
            assert!(Arc::ptr_eq(&p.job_kernels(1), &p.job_kernels(1)), "{kind}");
            for s in 0..p.stage_count() {
                assert!(Arc::ptr_eq(&p.stage_kernels(s, 1), &p.stage_kernels(s, 1)), "{kind}");
            }
            // A clone shares the slices with its original.
            assert!(Arc::ptr_eq(&p.clone().job_kernels(1), &p.job_kernels(1)), "{kind}");
        }
    }

    #[test]
    fn work_items_carry_copies_on_the_first_and_last_stage_only() {
        for kind in DnnKind::all() {
            let p = ModelProfile::calibrated(kind);
            let last = p.stage_count() - 1;
            assert!(last > 0, "{kind} has several stages");
            for batch in [1, 4] {
                let (input, output) = (p.input_bytes(batch), p.output_bytes(batch));
                for s in 0..=last {
                    let item = p.stage_item(7, s, batch);
                    assert_eq!(item.tag, 7);
                    assert_eq!(item.h2d_bytes, if s == 0 { input } else { 0 }, "{kind} stage {s}");
                    assert_eq!(
                        item.d2h_bytes,
                        if s == last { output } else { 0 },
                        "{kind} stage {s}"
                    );
                    assert_eq!(*item.kernels, *p.stage_kernels(s, batch), "{kind} stage {s}");
                    let shared = Arc::ptr_eq(&item.kernels, &p.stage_kernels(s, 1));
                    assert_eq!(shared, batch == 1, "{kind} stage {s} batch {batch}");
                }
                let job = p.job_item(9, batch);
                assert_eq!((job.tag, job.h2d_bytes, job.d2h_bytes), (9, input, output), "{kind}");
                assert_eq!(*job.kernels, *p.job_kernels(batch), "{kind}");
                assert_eq!(Arc::ptr_eq(&job.kernels, &p.job_kernels(1)), batch == 1, "{kind}");
            }
        }
    }

    /// Field-for-field bit equality of two profiles' scales and kernels.
    fn assert_same_profile(a: &ModelProfile, b: &ModelProfile, what: &str) {
        assert_eq!(a.work_scale().to_bits(), b.work_scale().to_bits(), "{what}");
        assert_eq!(a.par_scale().to_bits(), b.par_scale().to_bits(), "{what}");
        assert_eq!(a.stage_count(), b.stage_count(), "{what}");
        for s in 0..a.stage_count() {
            let (x, y) = (a.stage_kernels(s, 1), b.stage_kernels(s, 1));
            assert_eq!(x.len(), y.len(), "{what} stage {s}");
            for (k, l) in x.iter().zip(y.iter()) {
                assert_eq!(k.work.to_bits(), l.work.to_bits(), "{what} stage {s}");
                assert_eq!(k.parallelism, l.parallelism, "{what} stage {s}");
                assert_eq!(k.label, l.label, "{what} stage {s}");
            }
        }
    }

    #[test]
    fn a_memoized_profile_equals_a_fresh_calibration_and_is_shared() {
        for spec in [GpuSpec::rtx_2080_ti(), GpuSpec::a100(), GpuSpec::h100(), GpuSpec::orin()] {
            for kind in DnnKind::all() {
                let memoized = ModelProfile::calibrated_for(kind, &spec);
                let fresh = ModelProfile::build(kind, &spec, true);
                let what = format!("{kind} on {} SMs", spec.sm_count);
                assert_same_profile(&memoized, &fresh, &what);
                let again = ModelProfile::calibrated_for(kind, &spec);
                assert!(Arc::ptr_eq(&memoized.graph, &again.graph), "{what}");
                assert!(Arc::ptr_eq(&memoized.stages, &again.stages), "{what}");
                assert!(Arc::ptr_eq(&memoized.job_kernels(1), &again.job_kernels(1)), "{what}");
            }
        }
    }

    #[test]
    fn calibration_memo_keys_on_exactly_the_fields_it_reads() {
        let base = GpuSpec::rtx_2080_ti();
        let shared = ModelProfile::calibrated_for(DnnKind::UNet, &base);
        // Fields calibration never reads share the entry.
        let mut unread = base.clone().with_seed(base.jitter_seed ^ 1);
        unread.interference.work_jitter *= 2.0;
        unread.memory_bytes /= 2;
        let same = ModelProfile::calibrated_for(DnnKind::UNet, &unread);
        assert!(Arc::ptr_eq(&shared.graph, &same.graph));
        // Each field it reads gets its own entry, calibrated for that spec.
        let mut latency = base.clone();
        latency.copy_latency = SimDuration::from_micros(9);
        let mut bandwidth = base.clone();
        bandwidth.copy_bandwidth_bytes_per_us = 11_000.0;
        let mut sms = base.clone();
        sms.sm_count = 60;
        for (name, spec) in [("copy latency", latency), ("bandwidth", bandwidth), ("SMs", sms)] {
            let own = ModelProfile::calibrated_for(DnnKind::UNet, &spec);
            assert!(!Arc::ptr_eq(&shared.graph, &own.graph), "{name}");
            assert_same_profile(&own, &ModelProfile::build(DnnKind::UNet, &spec, true), name);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every slice a profile hands out is exactly the per-layer lowering
        /// of its stage, shared or fresh: all fields equal, work bit for bit.
        #[test]
        fn shared_slices_equal_a_fresh_lowering(
            kind in 0usize..4,
            stage in 0usize..64,
            batch in 1u32..65,
        ) {
            let p = ModelProfile::calibrated(DnnKind::all()[kind]);
            let stage = stage % p.stage_count();
            let fresh: Vec<KernelDesc> = p
                .graph()
                .stage_layers(stage)
                .iter()
                .map(|l| lowering::lower(l, batch, p.work_scale(), p.par_scale()))
                .collect();
            let shared = p.stage_kernels(stage, batch);
            prop_assert_eq!(shared.len(), fresh.len());
            for (a, b) in shared.iter().zip(&fresh) {
                prop_assert_eq!(a.work.to_bits(), b.work.to_bits());
                prop_assert_eq!(a.parallelism, b.parallelism);
                prop_assert_eq!(a.launch_overhead, b.launch_overhead);
                prop_assert_eq!(&a.label, &b.label);
            }
        }
    }

    #[test]
    fn memory_footprints_are_plausible() {
        let p = ModelProfile::calibrated(DnnKind::ResNet18);
        // ~47 MB of weights, 602 KB input, 4 KB output.
        assert!(p.weight_bytes() > 40_000_000 && p.weight_bytes() < 60_000_000);
        assert_eq!(p.input_bytes(1), 602_112);
        assert_eq!(p.input_bytes(4), 4 * 602_112);
        assert_eq!(p.output_bytes(1), 4_000);
    }

    #[test]
    fn batch_sweep_is_monotone_in_latency() {
        let p = ModelProfile::calibrated(DnnKind::ResNet50);
        let sweep = p.batch_sweep();
        for w in sweep.windows(2) {
            assert!(w[1].latency_us > w[0].latency_us);
            assert!(w[1].batch > w[0].batch);
        }
    }

    #[test]
    fn uncalibrated_profile_has_unit_scales() {
        let p = ModelProfile::uncalibrated(DnnKind::UNet);
        assert_eq!(p.work_scale(), 1.0);
        assert_eq!(p.par_scale(), 1.0);
    }
}
