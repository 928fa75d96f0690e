//! The model zoo: layer graphs of the paper's four evaluation networks.
//!
//! The graphs are structural descriptions (layer kinds, shapes, FLOPs,
//! parameters); absolute timing is supplied by
//! [`ModelProfile`](crate::ModelProfile) calibration.

mod inception;
mod resnet;
mod unet;

use crate::{DnnKind, Layer, LayerKind, ModelGraph, TensorShape};

pub use inception::inception_v3;
pub use resnet::{resnet18, resnet50};
pub use unet::unet;

/// Builds the layer graph for `kind`.
///
/// ```
/// use daris_models::{zoo, DnnKind};
/// let g = zoo::graph(DnnKind::ResNet18);
/// assert_eq!(g.stage_count(), 4);
/// ```
pub fn graph(kind: DnnKind) -> ModelGraph {
    match kind {
        DnnKind::ResNet18 => resnet18(),
        DnnKind::ResNet50 => resnet50(),
        DnnKind::UNet => unet(),
        DnnKind::InceptionV3 => inception_v3(),
    }
}

/// Convenience helper shared by the zoo builders: a convolution layer
/// (with fused batch-norm + activation) appended to `layers`, returning its
/// output shape.
pub(crate) fn push_conv(
    layers: &mut Vec<Layer>,
    name: String,
    input: TensorShape,
    out_channels: u32,
    kernel: u32,
    stride: u32,
) -> TensorShape {
    let layer = Layer::new(
        name,
        LayerKind::Conv2d { in_channels: input.channels, out_channels, kernel, stride },
        input,
    );
    let out = layer.output;
    layers.push(layer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    #[test]
    fn every_model_has_four_stages_and_sane_sizes() {
        for kind in DnnKind::all() {
            let g = graph(kind);
            assert_eq!(g.kind, kind);
            assert_eq!(g.stage_count(), 4, "{kind} should be divided into four stages");
            assert!(g.layer_count() >= 20, "{kind} has only {} layers", g.layer_count());
            assert!(g.total_flops() > 1e9, "{kind} FLOPs too small: {}", g.total_flops());
            assert!(g.total_params() > 5_000_000, "{kind} params too small");
            // Shapes chain correctly: each stage has at least one layer.
            for s in 0..g.stage_count() {
                assert!(!g.stage_layers(s).is_empty());
            }
        }
    }

    #[test]
    fn relative_model_sizes_are_plausible() {
        let r18 = graph(DnnKind::ResNet18);
        let r50 = graph(DnnKind::ResNet50);
        let unet = graph(DnnKind::UNet);
        let incv3 = graph(DnnKind::InceptionV3);
        // ResNet50 does more work and has more parameters than ResNet18.
        assert!(r50.total_flops() > r18.total_flops());
        assert!(r50.total_params() > r18.total_params());
        // UNet at 224x224 is by far the most compute-heavy of the four.
        assert!(unet.total_flops() > r50.total_flops());
        // InceptionV3 has the most layers (many small branch kernels).
        assert!(incv3.layer_count() > r50.layer_count());
    }

    #[test]
    fn kernel_launch_counts_reflect_architecture() {
        // Kernel count ordering drives batching gain in the paper: Inception
        // launches far more (small) kernels than UNet launches (large) ones.
        // Every layer launches one kernel, so the layer count is the launch
        // count.
        let launches = |kind| graph(kind).layer_count();
        assert!(launches(DnnKind::InceptionV3) > launches(DnnKind::ResNet18));
        assert!(launches(DnnKind::ResNet50) > launches(DnnKind::ResNet18));
    }

    #[test]
    fn parameter_counts_are_near_published_values() {
        // Published parameter counts: ResNet18 ≈ 11.7 M, ResNet50 ≈ 25.6 M,
        // InceptionV3 ≈ 24–27 M. Allow generous tolerance; the graphs fold
        // auxiliary heads and exact padding details.
        let params_m = |kind| graph(kind).total_params() as f64 / 1e6;
        assert!((params_m(DnnKind::ResNet18) - 11.7).abs() < 2.0);
        assert!((params_m(DnnKind::ResNet50) - 25.6).abs() < 4.0);
        assert!(params_m(DnnKind::InceptionV3) > 15.0 && params_m(DnnKind::InceptionV3) < 35.0);
        assert!(params_m(DnnKind::UNet) > 20.0 && params_m(DnnKind::UNet) < 45.0);
    }

    #[test]
    fn push_conv_appends_and_chains() {
        let mut layers: Vec<Layer> = Vec::new();
        let out = push_conv(&mut layers, "c".into(), TensorShape::imagenet(), 64, 7, 2);
        assert_eq!(out, TensorShape::new(64, 112, 112));
        assert_eq!(layers.len(), 1);
    }
}
