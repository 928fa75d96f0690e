//! Device specification and interference model.

use crate::{GpuError, SimDuration};

/// Describes how colocated kernels degrade each other beyond simple SM
/// sharing.
///
/// The allocation model already scales SM allocations down proportionally
/// whenever the aggregate demand of busy contexts exceeds the physical SM
/// count (time-multiplexing of oversubscribed SMs). On real hardware there is
/// an *additional* cost: cache and memory-bandwidth contention, plus MPS
/// scheduling overhead, grow with the number of co-running contexts and with
/// the oversubscription ratio. The DARIS paper observes this as execution-time
/// variability (Fig. 9) and as the non-monotonic deadline-miss behaviour of
/// high oversubscription levels (Sec. VI-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceModel {
    /// Fractional slowdown added per *additional* concurrently busy context
    /// (the first context is free). Default `0.01`.
    pub per_context_penalty: f64,
    /// Fractional slowdown per unit of demand overshoot, i.e. when busy
    /// contexts demand `d > 1.0` of the device this adds
    /// `oversubscription_penalty * (d - 1.0)`. Default `0.02` — NVIDIA's MPS
    /// time-slices oversubscribed SMs fairly cheaply, which is why the paper
    /// finds oversubscription consistently beneficial.
    pub oversubscription_penalty: f64,
    /// Relative half-width of the uniform multiplicative jitter applied to
    /// each kernel instance's work (models run-to-run variability that MRET
    /// has to track). Default `0.04` (±4 %).
    pub work_jitter: f64,
}

impl InterferenceModel {
    /// An idealized device with no cross-context interference and no jitter.
    pub fn none() -> Self {
        InterferenceModel {
            per_context_penalty: 0.0,
            oversubscription_penalty: 0.0,
            work_jitter: 0.0,
        }
    }

    /// Efficiency factor (`0 < e <= 1`) applied to every SM allocation when
    /// `busy_contexts` contexts are concurrently busy and their aggregate SM
    /// demand is `demand_ratio` times the physical SM count.
    pub fn efficiency(&self, busy_contexts: usize, demand_ratio: f64) -> f64 {
        let extra_ctx = busy_contexts.saturating_sub(1) as f64;
        let overshoot = (demand_ratio - 1.0).max(0.0);
        1.0 / (1.0
            + self.per_context_penalty * extra_ctx
            + self.oversubscription_penalty * overshoot)
    }
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel {
            per_context_penalty: 0.01,
            oversubscription_penalty: 0.02,
            work_jitter: 0.04,
        }
    }
}

/// Static description of the simulated GPU device.
///
/// ```
/// let spec = daris_gpu::GpuSpec::rtx_2080_ti();
/// assert_eq!(spec.sm_count, 68);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Number of physical streaming multiprocessors (`NSM,max` in the paper).
    pub sm_count: u32,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Copy-engine bandwidth in bytes per microsecond (host <-> device).
    pub copy_bandwidth_bytes_per_us: f64,
    /// Fixed per-transfer latency of the copy engine.
    pub copy_latency: SimDuration,
    /// Default per-kernel launch overhead when a kernel does not override it.
    pub default_launch_overhead: SimDuration,
    /// Cross-context interference model.
    pub interference: InterferenceModel,
    /// Seed for the simulator's deterministic work-jitter generator.
    pub jitter_seed: u64,
}

impl GpuSpec {
    /// The GPU used in the paper's evaluation: an RTX 2080 Ti with 68 SMs and
    /// 11 GB of device memory, PCIe 3.0 x16 host link (~12 GB/s effective).
    pub fn rtx_2080_ti() -> Self {
        GpuSpec {
            sm_count: 68,
            memory_bytes: 11 * 1024 * 1024 * 1024,
            copy_bandwidth_bytes_per_us: 12_000.0,
            copy_latency: SimDuration::from_micros(8),
            default_launch_overhead: SimDuration::from_micros(5),
            interference: InterferenceModel::default(),
            jitter_seed: 0x5eed_da12,
        }
    }

    /// A data-center A100 (SXM/PCIe 40 GB): 108 SMs, PCIe 4.0 x16 host link
    /// (~24 GB/s effective). The larger L2 and HBM bandwidth show up as a
    /// milder interference model than the consumer RTX 2080 Ti.
    pub fn a100() -> Self {
        GpuSpec {
            sm_count: 108,
            memory_bytes: 40 * 1024 * 1024 * 1024,
            copy_bandwidth_bytes_per_us: 24_000.0,
            copy_latency: SimDuration::from_micros(6),
            default_launch_overhead: SimDuration::from_micros(4),
            interference: InterferenceModel {
                per_context_penalty: 0.008,
                oversubscription_penalty: 0.015,
                work_jitter: 0.03,
            },
            jitter_seed: 0x5eed_a100,
        }
    }

    /// A data-center H100 (80 GB): 132 SMs, PCIe 5.0 x16 host link (~50 GB/s
    /// effective), the gentlest interference model of the presets.
    pub fn h100() -> Self {
        GpuSpec {
            sm_count: 132,
            memory_bytes: 80 * 1024 * 1024 * 1024,
            copy_bandwidth_bytes_per_us: 50_000.0,
            copy_latency: SimDuration::from_micros(5),
            default_launch_overhead: SimDuration::from_micros(3),
            interference: InterferenceModel {
                per_context_penalty: 0.006,
                oversubscription_penalty: 0.012,
                work_jitter: 0.025,
            },
            jitter_seed: 0x5eed_4100,
        }
    }

    /// An embedded Jetson Orin-class device: 16 SMs on shared LPDDR5 memory.
    /// Contention on the shared memory system makes colocation noticeably
    /// more expensive than on the discrete cards, and the weaker host CPU
    /// shows up as higher copy/launch latencies.
    pub fn orin() -> Self {
        GpuSpec {
            sm_count: 16,
            memory_bytes: 32 * 1024 * 1024 * 1024,
            copy_bandwidth_bytes_per_us: 10_000.0,
            copy_latency: SimDuration::from_micros(10),
            default_launch_overhead: SimDuration::from_micros(10),
            interference: InterferenceModel {
                per_context_penalty: 0.025,
                oversubscription_penalty: 0.05,
                work_jitter: 0.06,
            },
            jitter_seed: 0x5eed_0419,
        }
    }

    /// A small embedded-class GPU without MPS-scale resources (useful in
    /// tests and in the embedded example; the paper notes that on such GPUs
    /// only the STR policy is feasible).
    pub fn embedded_xavier_like() -> Self {
        GpuSpec {
            sm_count: 8,
            memory_bytes: 8 * 1024 * 1024 * 1024,
            copy_bandwidth_bytes_per_us: 6_000.0,
            copy_latency: SimDuration::from_micros(12),
            default_launch_overhead: SimDuration::from_micros(8),
            interference: InterferenceModel::default(),
            jitter_seed: 0x5eed_da12,
        }
    }

    /// Checks that the device can run work and that every interference
    /// parameter lies where the engine's rate model is defined: at least one
    /// SM (with none, no kernel ever gets a rate), a finite and positive copy
    /// bandwidth (at zero, a negative value or NaN no copy ever finishes),
    /// both penalties finite and non-negative (a NaN penalty makes every
    /// rate NaN, so a kernel never finishes), and the jitter half-width in
    /// `[0, 1)` (at 1 or more a kernel's work can reach zero or go
    /// negative).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidSpec`] naming the first parameter out of
    /// range.
    ///
    /// ```
    /// use daris_gpu::{GpuError, GpuSpec};
    /// let mut spec = GpuSpec::rtx_2080_ti();
    /// assert!(spec.validate().is_ok());
    /// spec.interference.work_jitter = 1.0;
    /// assert!(matches!(
    ///     spec.validate(),
    ///     Err(GpuError::InvalidSpec { field: "work_jitter", .. })
    /// ));
    /// ```
    pub fn validate(&self) -> Result<(), GpuError> {
        if self.sm_count == 0 {
            let (field, value) = ("sm_count", 0.0);
            return Err(GpuError::InvalidSpec { field, value, expected: "at least 1" });
        }
        let bandwidth = self.copy_bandwidth_bytes_per_us;
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            let (field, expected) = ("copy_bandwidth_bytes_per_us", "finite and positive");
            return Err(GpuError::InvalidSpec { field, value: bandwidth, expected });
        }
        let model = &self.interference;
        let penalties = [
            ("per_context_penalty", model.per_context_penalty),
            ("oversubscription_penalty", model.oversubscription_penalty),
        ];
        for (field, value) in penalties {
            if !(value.is_finite() && value >= 0.0) {
                let expected = "finite and non-negative";
                return Err(GpuError::InvalidSpec { field, value, expected });
            }
        }
        if !(0.0..1.0).contains(&model.work_jitter) {
            let (field, value) = ("work_jitter", model.work_jitter);
            return Err(GpuError::InvalidSpec { field, value, expected: "in [0, 1)" });
        }
        Ok(())
    }

    /// Returns a copy of the spec with interference and jitter disabled,
    /// which makes execution times fully deterministic. Used by calibration
    /// and by tests that assert exact timing.
    pub fn without_interference(mut self) -> Self {
        self.interference = InterferenceModel::none();
        self
    }

    /// Returns a copy with a different jitter seed (useful for repeated
    /// trials in experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::rtx_2080_ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx_preset_matches_paper_hardware() {
        let spec = GpuSpec::rtx_2080_ti();
        assert_eq!(spec.sm_count, 68);
        assert!(spec.memory_bytes > 10 * 1024 * 1024 * 1024);
    }

    #[test]
    fn efficiency_decreases_with_contexts_and_overshoot() {
        let m = InterferenceModel::default();
        let e1 = m.efficiency(1, 1.0);
        let e2 = m.efficiency(4, 1.0);
        let e3 = m.efficiency(4, 2.0);
        assert_eq!(e1, 1.0);
        assert!(e2 < e1);
        assert!(e3 < e2);
        assert!(e3 > 0.0);
    }

    #[test]
    fn fleet_presets_are_distinct_and_ordered_by_class() {
        let rtx = GpuSpec::rtx_2080_ti();
        let a100 = GpuSpec::a100();
        let h100 = GpuSpec::h100();
        let orin = GpuSpec::orin();
        // SM counts: embedded < consumer < A100 < H100.
        assert!(orin.sm_count < rtx.sm_count);
        assert!(rtx.sm_count < a100.sm_count);
        assert!(a100.sm_count < h100.sm_count);
        // Interference gets milder with the device class.
        assert!(h100.interference.per_context_penalty < a100.interference.per_context_penalty);
        assert!(a100.interference.per_context_penalty < rtx.interference.per_context_penalty);
        assert!(orin.interference.per_context_penalty > rtx.interference.per_context_penalty);
        // Distinct default jitter seeds keep fleet devices decorrelated.
        let seeds = [rtx.jitter_seed, a100.jitter_seed, h100.jitter_seed, orin.jitter_seed];
        let mut unique = seeds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn validation_rejects_each_parameter_out_of_range() {
        for spec in [
            GpuSpec::rtx_2080_ti(),
            GpuSpec::a100(),
            GpuSpec::h100(),
            GpuSpec::orin(),
            GpuSpec::embedded_xavier_like(),
            GpuSpec::rtx_2080_ti().without_interference(),
        ] {
            assert_eq!(spec.validate(), Ok(()));
        }
        let field_of = |interference| {
            let spec = GpuSpec { interference, ..GpuSpec::rtx_2080_ti() };
            match spec.validate() {
                Err(GpuError::InvalidSpec { field, .. }) => field,
                other => panic!("{interference:?} validated as {other:?}"),
            }
        };
        let base = InterferenceModel::default();
        for bad in [f64::NAN, f64::INFINITY, -0.01] {
            let m = InterferenceModel { per_context_penalty: bad, ..base };
            assert_eq!(field_of(m), "per_context_penalty");
            let m = InterferenceModel { oversubscription_penalty: bad, ..base };
            assert_eq!(field_of(m), "oversubscription_penalty");
        }
        for bad in [f64::NAN, -0.01, 1.0, 2.5] {
            assert_eq!(field_of(InterferenceModel { work_jitter: bad, ..base }), "work_jitter");
        }
        let device_field = |spec: GpuSpec| match spec.validate() {
            Err(GpuError::InvalidSpec { field, .. }) => field,
            other => panic!("{spec:?} validated as {other:?}"),
        };
        assert_eq!(device_field(GpuSpec { sm_count: 0, ..GpuSpec::orin() }), "sm_count");
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let spec = GpuSpec { copy_bandwidth_bytes_per_us: bad, ..GpuSpec::a100() };
            assert_eq!(device_field(spec), "copy_bandwidth_bytes_per_us");
        }
        // Large but finite penalties and a jitter just below 1 are allowed.
        let interference = InterferenceModel {
            per_context_penalty: 1e300,
            oversubscription_penalty: 0.0,
            work_jitter: 0.999,
        };
        assert_eq!(GpuSpec { interference, ..GpuSpec::rtx_2080_ti() }.validate(), Ok(()));
    }

    #[test]
    fn none_model_is_ideal() {
        let m = InterferenceModel::none();
        assert_eq!(m.efficiency(8, 4.0), 1.0);
    }

    #[test]
    fn without_interference_clears_model() {
        let spec = GpuSpec::rtx_2080_ti().without_interference();
        assert_eq!(spec.interference, InterferenceModel::none());
    }
}
