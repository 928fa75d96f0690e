//! Lowering layers into simulated GPU kernels.

use daris_gpu::{KernelDesc, SimDuration};

use crate::Layer;

/// Constants that map layer arithmetic onto simulated-kernel work and
/// parallelism.
///
/// The absolute values are starting points; [`crate::ModelProfile`]
/// calibration multiplies them by per-model `work_scale` / `par_scale`
/// factors so that Table I throughput is reproduced. The defaults roughly
/// correspond to an RTX 2080 Ti: ~0.19 TFLOP/s per SM and a few thousand
/// output elements per SM wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweringConfig {
    /// FLOPs one SM retires per microsecond.
    pub flops_per_sm_us: f64,
    /// Output elements one SM covers per kernel wave (drives parallelism).
    pub elements_per_sm: f64,
    /// Per-kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Lower bound on kernel parallelism.
    pub min_parallelism: u32,
    /// Upper bound on kernel parallelism (well above any real device width so
    /// the device's own SM count is the effective cap).
    pub max_parallelism: u32,
}

impl Default for LoweringConfig {
    fn default() -> Self {
        LoweringConfig {
            flops_per_sm_us: 1.9e5,
            elements_per_sm: 2048.0,
            launch_overhead_us: 5.0,
            min_parallelism: 1,
            max_parallelism: 4096,
        }
    }
}

impl LoweringConfig {
    /// Raw (uncalibrated) kernel work for a layer at batch size `batch`,
    /// in SM-microseconds.
    pub fn raw_work(&self, layer: &Layer, batch: u32) -> f64 {
        layer.flops() * f64::from(batch.max(1)) / self.flops_per_sm_us
    }

    /// Raw (uncalibrated) kernel parallelism for a layer at batch size
    /// `batch`.
    pub fn raw_parallelism(&self, layer: &Layer, batch: u32) -> f64 {
        layer.output.elements() as f64 * f64::from(batch.max(1)) / self.elements_per_sm
    }

    /// Lowers a layer into a kernel description using the given calibration
    /// scales.
    pub fn lower(&self, layer: &Layer, batch: u32, work_scale: f64, par_scale: f64) -> KernelDesc {
        let work = (self.raw_work(layer, batch) * work_scale).max(1e-3);
        let par = (self.raw_parallelism(layer, batch) * par_scale).ceil();
        #[allow(clippy::cast_sign_loss)] // `par` is a non-negative block count, clamped below
        let parallelism =
            (par as u32).clamp(self.min_parallelism.max(1), self.max_parallelism.max(1));
        KernelDesc::new(work, parallelism)
            .with_launch_overhead(SimDuration::from_micros_f64(self.launch_overhead_us))
            .with_label(layer.name.clone())
    }

    /// Parallelism after calibration, clamped like [`LoweringConfig::lower`]
    /// but returned as a float for analytic latency computations.
    pub fn scaled_parallelism(&self, layer: &Layer, batch: u32, par_scale: f64) -> f64 {
        let par = (self.raw_parallelism(layer, batch) * par_scale).ceil();
        par.clamp(f64::from(self.min_parallelism.max(1)), f64::from(self.max_parallelism.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerKind, TensorShape};

    fn conv() -> Layer {
        Layer::new(
            "conv",
            LayerKind::Conv2d { in_channels: 64, out_channels: 64, kernel: 3, stride: 1 },
            TensorShape::new(64, 56, 56),
        )
    }

    #[test]
    fn work_scales_linearly_with_batch_and_scale() {
        let cfg = LoweringConfig::default();
        let layer = conv();
        let w1 = cfg.raw_work(&layer, 1);
        let w4 = cfg.raw_work(&layer, 4);
        assert!((w4 / w1 - 4.0).abs() < 1e-9);
        let k1 = cfg.lower(&layer, 1, 1.0, 1.0);
        let k2 = cfg.lower(&layer, 1, 2.0, 1.0);
        assert!((k2.work / k1.work - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallelism_grows_with_batch_and_respects_bounds() {
        let cfg = LoweringConfig::default();
        let layer = conv();
        let k1 = cfg.lower(&layer, 1, 1.0, 1.0);
        let k8 = cfg.lower(&layer, 8, 1.0, 1.0);
        assert!(k8.parallelism > k1.parallelism);
        let tiny = cfg.lower(&layer, 1, 1.0, 1e-9);
        assert_eq!(tiny.parallelism, cfg.min_parallelism.max(1));
        let huge = cfg.lower(&layer, 64, 1.0, 1e9);
        assert_eq!(huge.parallelism, cfg.max_parallelism);
    }

    #[test]
    fn lowered_kernel_has_launch_overhead_and_label() {
        let cfg = LoweringConfig::default();
        let k = cfg.lower(&conv(), 1, 1.0, 1.0);
        assert_eq!(k.launch_overhead, Some(SimDuration::from_micros_f64(cfg.launch_overhead_us)));
        assert_eq!(k.label.as_deref(), Some("conv"));
        assert!(k.validate().is_ok());
    }

    #[test]
    fn scaled_parallelism_matches_lowered_kernel() {
        let cfg = LoweringConfig::default();
        let layer = conv();
        for batch in [1u32, 2, 8] {
            let analytic = cfg.scaled_parallelism(&layer, batch, 0.5);
            let lowered = cfg.lower(&layer, batch, 1.0, 0.5);
            #[allow(clippy::cast_sign_loss)] // the same non-negative count `lower` casts
            let analytic = analytic as u32;
            assert_eq!(analytic, lowered.parallelism);
        }
    }
}
