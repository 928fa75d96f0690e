//! Lowering layers into simulated GPU kernels.
//!
//! The constants below map layer arithmetic onto simulated-kernel work and
//! parallelism. The absolute values are starting points;
//! [`crate::ModelProfile`] calibration multiplies them by per-model
//! `work_scale` / `par_scale` factors so that Table I throughput is
//! reproduced. They roughly correspond to an RTX 2080 Ti: ~0.19 TFLOP/s per
//! SM and a few thousand output elements per SM wave.

use daris_gpu::{KernelDesc, SimDuration};

use crate::Layer;

/// FLOPs one SM retires per microsecond.
const FLOPS_PER_SM_US: f64 = 1.9e5;
/// Output elements one SM covers per kernel wave (drives parallelism).
const ELEMENTS_PER_SM: f64 = 2048.0;
/// Per-kernel launch overhead in microseconds.
pub(crate) const LAUNCH_OVERHEAD_US: f64 = 5.0;
/// Lower bound on kernel parallelism.
const MIN_PARALLELISM: u32 = 1;
/// Upper bound on kernel parallelism (well above any real device width so
/// the device's own SM count is the effective cap).
const MAX_PARALLELISM: u32 = 4096;

/// Raw (uncalibrated) kernel work for a layer at batch size `batch`, in
/// SM-microseconds.
pub(crate) fn raw_work(layer: &Layer, batch: u32) -> f64 {
    layer.flops() * f64::from(batch.max(1)) / FLOPS_PER_SM_US
}

/// Raw (uncalibrated) kernel parallelism for a layer at batch size `batch`.
fn raw_parallelism(layer: &Layer, batch: u32) -> f64 {
    layer.output.elements() as f64 * f64::from(batch.max(1)) / ELEMENTS_PER_SM
}

/// Lowers a layer into a kernel description using the given calibration
/// scales.
pub(crate) fn lower(layer: &Layer, batch: u32, work_scale: f64, par_scale: f64) -> KernelDesc {
    let work = (raw_work(layer, batch) * work_scale).max(1e-3);
    let par = (raw_parallelism(layer, batch) * par_scale).ceil();
    #[allow(clippy::cast_sign_loss)] // `par` is a non-negative block count, clamped below
    let parallelism = (par as u32).clamp(MIN_PARALLELISM, MAX_PARALLELISM);
    KernelDesc::new(work, parallelism)
        .with_launch_overhead(SimDuration::from_micros_f64(LAUNCH_OVERHEAD_US))
        .with_label(layer.name.as_str())
}

/// Parallelism after calibration, clamped like [`lower`] but returned as a
/// float for analytic latency computations.
pub(crate) fn scaled_parallelism(layer: &Layer, batch: u32, par_scale: f64) -> f64 {
    let par = (raw_parallelism(layer, batch) * par_scale).ceil();
    par.clamp(f64::from(MIN_PARALLELISM), f64::from(MAX_PARALLELISM))
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
        let layer = conv();
        let w1 = raw_work(&layer, 1);
        let w4 = raw_work(&layer, 4);
        assert!((w4 / w1 - 4.0).abs() < 1e-9);
        let k1 = lower(&layer, 1, 1.0, 1.0);
        let k2 = lower(&layer, 1, 2.0, 1.0);
        assert!((k2.work / k1.work - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallelism_grows_with_batch_and_respects_bounds() {
        let layer = conv();
        let k1 = lower(&layer, 1, 1.0, 1.0);
        let k8 = lower(&layer, 8, 1.0, 1.0);
        assert!(k8.parallelism > k1.parallelism);
        let tiny = lower(&layer, 1, 1.0, 1e-9);
        assert_eq!(tiny.parallelism, MIN_PARALLELISM);
        let huge = lower(&layer, 64, 1.0, 1e9);
        assert_eq!(huge.parallelism, MAX_PARALLELISM);
    }

    #[test]
    fn lowered_kernel_has_launch_overhead_and_label() {
        let k = lower(&conv(), 1, 1.0, 1.0);
        assert_eq!(k.launch_overhead, Some(SimDuration::from_micros_f64(LAUNCH_OVERHEAD_US)));
        assert_eq!(k.label.as_deref(), Some("conv"));
        assert!(k.validate().is_ok());
    }

    #[test]
    fn scaled_parallelism_matches_lowered_kernel() {
        let layer = conv();
        for batch in [1u32, 2, 8] {
            let analytic = scaled_parallelism(&layer, batch, 0.5);
            let lowered = lower(&layer, batch, 1.0, 0.5);
            #[allow(clippy::cast_sign_loss)] // the same non-negative count `lower` casts
            let analytic = analytic as u32;
            assert_eq!(analytic, lowered.parallelism);
        }
    }
}
