//! Neural-network layers and their cost model.

use std::fmt;

use crate::TensorShape;

/// The kinds of layers needed to describe the paper's four networks.
///
/// Element-wise operations that frameworks fuse into the preceding
/// convolution (batch-norm, ReLU) are folded into [`LayerKind::Conv2d`] /
/// [`LayerKind::Linear`] cost via a small constant, mirroring how LibTorch
/// executes them with cuDNN fused kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerKind {
    /// 2-D convolution (+ fused batch-norm + activation).
    Conv2d {
        /// Input channels.
        in_channels: u32,
        /// Output channels.
        out_channels: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// Max or average pooling.
    Pool {
        /// Pooling window.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// Global average pooling down to 1×1.
    GlobalPool,
    /// Fully connected layer (+ fused activation).
    Linear {
        /// Input features.
        in_features: u32,
        /// Output features.
        out_features: u32,
    },
    /// Element-wise residual addition.
    Add,
    /// Channel concatenation (UNet skip connections, Inception merges).
    Concat,
    /// Nearest/bilinear upsampling by an integer factor (UNet decoder).
    Upsample {
        /// Scale factor.
        scale: u32,
    },
}

/// A single layer: its kind, input shape and output shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name, e.g. `"layer3.0.conv2"`.
    pub name: String,
    /// Operation performed.
    pub kind: LayerKind,
    /// Input activation shape (per sample).
    pub input: TensorShape,
    /// Output activation shape (per sample).
    pub output: TensorShape,
}

impl Layer {
    /// Creates a layer, computing the output shape from the kind.
    pub fn new(name: impl Into<String>, kind: LayerKind, input: TensorShape) -> Self {
        let output = match kind {
            LayerKind::Conv2d { out_channels, stride, .. } => input.strided(out_channels, stride),
            LayerKind::Pool { stride, .. } => input.strided(input.channels, stride),
            LayerKind::GlobalPool => TensorShape::flat(input.channels),
            LayerKind::Linear { out_features, .. } => TensorShape::flat(out_features),
            LayerKind::Add => input,
            LayerKind::Concat => input,
            LayerKind::Upsample { scale } => input.upsampled(input.channels, scale),
        };
        Layer { name: name.into(), kind, input, output }
    }

    /// Creates a concat layer with an explicit output channel count (the sum
    /// of the concatenated branches).
    pub fn concat(name: impl Into<String>, input: TensorShape, out_channels: u32) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Concat,
            input,
            output: input.with_channels(out_channels),
        }
    }

    /// Floating-point operations per sample (multiply-accumulate counted as
    /// two FLOPs), including a 5 % overhead for fused batch-norm/activation
    /// on convolution and linear layers.
    pub fn flops(&self) -> f64 {
        let out_elems = self.output.elements() as f64;
        match self.kind {
            LayerKind::Conv2d { in_channels, kernel, .. } => {
                2.0 * out_elems * f64::from(in_channels) * f64::from(kernel * kernel) * 1.05
            }
            LayerKind::Linear { in_features, .. } => {
                2.0 * out_elems * f64::from(in_features) * 1.05
            }
            LayerKind::Pool { kernel, .. } => out_elems * f64::from(kernel * kernel),
            LayerKind::GlobalPool => self.input.elements() as f64,
            LayerKind::Add | LayerKind::Concat => out_elems,
            LayerKind::Upsample { .. } => out_elems * 4.0,
        }
    }

    /// Trainable parameter count (weights + biases/BN affine).
    pub fn params(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d { in_channels, out_channels, kernel, .. } => {
                u64::from(in_channels) * u64::from(out_channels) * u64::from(kernel * kernel)
                    + 2 * u64::from(out_channels)
            }
            LayerKind::Linear { in_features, out_features } => {
                u64::from(in_features) * u64::from(out_features) + u64::from(out_features)
            }
            _ => 0,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} -> {})", self.name, self.input, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_shape_and_flops() {
        let layer = Layer::new(
            "conv1",
            LayerKind::Conv2d { in_channels: 3, out_channels: 64, kernel: 7, stride: 2 },
            TensorShape::imagenet(),
        );
        assert_eq!(layer.output, TensorShape::new(64, 112, 112));
        // 2 * 112*112*64 * 3 * 49 * 1.05 ≈ 248 MFLOPs
        let flops = layer.flops();
        assert!(flops > 2.0e8 && flops < 2.6e8, "{flops}");
        assert_eq!(layer.params(), 3 * 64 * 49 + 128);
    }

    #[test]
    fn linear_layer_costs() {
        let layer = Layer::new(
            "fc",
            LayerKind::Linear { in_features: 512, out_features: 1000 },
            TensorShape::flat(512),
        );
        assert_eq!(layer.output, TensorShape::flat(1000));
        assert_eq!(layer.params(), 512 * 1000 + 1000);
        assert!(layer.flops() > 1.0e6);
    }

    #[test]
    fn pool_and_global_pool_shapes() {
        let pool = Layer::new(
            "maxpool",
            LayerKind::Pool { kernel: 3, stride: 2 },
            TensorShape::new(64, 112, 112),
        );
        assert_eq!(pool.output, TensorShape::new(64, 56, 56));
        let gap = Layer::new("gap", LayerKind::GlobalPool, TensorShape::new(512, 7, 7));
        assert_eq!(gap.output, TensorShape::flat(512));
        assert_eq!(gap.params(), 0);
    }

    #[test]
    fn add_upsample_concat() {
        let add = Layer::new("add", LayerKind::Add, TensorShape::new(64, 56, 56));
        assert_eq!(add.output, add.input);
        let up = Layer::new("up", LayerKind::Upsample { scale: 2 }, TensorShape::new(128, 28, 28));
        assert_eq!(up.output, TensorShape::new(128, 56, 56));
        let cat = Layer::concat("cat", TensorShape::new(128, 56, 56), 256);
        assert_eq!(cat.output.channels, 256);
    }

    #[test]
    fn display_contains_name_and_shapes() {
        let layer = Layer::new("gap", LayerKind::GlobalPool, TensorShape::new(512, 7, 7));
        let text = layer.to_string();
        assert!(text.contains("gap") && text.contains("512x7x7"));
    }
}
