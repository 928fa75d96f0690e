//! # daris-models
//!
//! DNN workload models for the DARIS reproduction: layer-level descriptions
//! of the four networks used in the paper's evaluation (ResNet18, ResNet50,
//! UNet and InceptionV3 at 224×224×3 input), their division into *stages*
//! (the synchronization boundaries DARIS uses for coarse-grained preemption),
//! and the lowering of layers into [`daris_gpu::KernelDesc`] kernels that the
//! simulated GPU can execute.
//!
//! The paper runs real LibTorch models on an RTX 2080 Ti; here the models are
//! *profiles* whose kernel work and parallelism are calibrated so that
//!
//! * the isolated single-stream throughput matches the paper's Table I
//!   "min JPS" column, and
//! * the best batched throughput matches Table I "max JPS" (and therefore the
//!   batching gain).
//!
//! Everything downstream (colocation behaviour, oversubscription effects,
//! deadline misses) then *emerges* from the simulation rather than being
//! hard-coded.
//!
//! # Example
//!
//! ```
//! use daris_models::{DnnKind, ModelProfile};
//!
//! let profile = ModelProfile::calibrated(DnnKind::ResNet18);
//! // Single-stream latency corresponds to Table I min JPS (~627 JPS).
//! let latency_us = profile.isolated_latency_us(1);
//! let jps = 1e6 / latency_us;
//! assert!((jps - 627.0).abs() / 627.0 < 0.05);
//! assert_eq!(profile.stage_count(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod layer;
mod lowering;
mod profile;
mod shape;
pub mod zoo;

pub use graph::{ModelGraph, StageSpec};
pub use layer::{Layer, LayerKind};
pub use profile::{BatchSweepPoint, ModelProfile, Table1Reference};
pub use shape::TensorShape;

use std::fmt;
use std::str::FromStr;

/// The DNN architectures evaluated in the DARIS paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DnnKind {
    /// ResNet-18 (linear residual network, 4 residual super-blocks).
    ResNet18,
    /// ResNet-50 (bottleneck residual network, used in the GSlice comparison).
    ResNet50,
    /// UNet (wide encoder/decoder with skip connections, memory heavy).
    UNet,
    /// InceptionV3 (many narrow parallel branches, batching-hungry).
    InceptionV3,
}

impl DnnKind {
    /// All model kinds, in the order used by the paper's tables.
    pub fn all() -> [DnnKind; 4] {
        [DnnKind::ResNet18, DnnKind::ResNet50, DnnKind::UNet, DnnKind::InceptionV3]
    }

    /// The three kinds used to form the paper's main task sets (Table II).
    pub fn task_set_kinds() -> [DnnKind; 3] {
        [DnnKind::ResNet18, DnnKind::UNet, DnnKind::InceptionV3]
    }

    /// The batch size the paper uses for this model in the batched DARIS
    /// experiment (Sec. VI-H): 4 for ResNet18, 2 for UNet, 8 for InceptionV3.
    /// ResNet50 reuses the ResNet18 choice.
    pub fn paper_batch_size(self) -> u32 {
        match self {
            DnnKind::ResNet18 | DnnKind::ResNet50 => 4,
            DnnKind::UNet => 2,
            DnnKind::InceptionV3 => 8,
        }
    }
}

impl fmt::Display for DnnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DnnKind::ResNet18 => "ResNet18",
            DnnKind::ResNet50 => "ResNet50",
            DnnKind::UNet => "UNet",
            DnnKind::InceptionV3 => "InceptionV3",
        };
        f.write_str(name)
    }
}

/// Error returned when parsing a [`DnnKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDnnKindError(String);

impl fmt::Display for ParseDnnKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown DNN kind `{}`", self.0)
    }
}

impl std::error::Error for ParseDnnKindError {}

impl FromStr for DnnKind {
    type Err = ParseDnnKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "resnet18" | "resnet-18" => Ok(DnnKind::ResNet18),
            "resnet50" | "resnet-50" => Ok(DnnKind::ResNet50),
            "unet" | "u-net" => Ok(DnnKind::UNet),
            "inceptionv3" | "inception-v3" | "inception" => Ok(DnnKind::InceptionV3),
            other => Err(ParseDnnKindError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for kind in DnnKind::all() {
            let parsed: DnnKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("vgg16".parse::<DnnKind>().is_err());
        assert_eq!("u-net".parse::<DnnKind>().unwrap(), DnnKind::UNet);
    }

    #[test]
    fn paper_batch_sizes_match_section_vi_h() {
        assert_eq!(DnnKind::ResNet18.paper_batch_size(), 4);
        assert_eq!(DnnKind::UNet.paper_batch_size(), 2);
        assert_eq!(DnnKind::InceptionV3.paper_batch_size(), 8);
    }

    #[test]
    fn task_set_kinds_exclude_resnet50() {
        assert!(!DnnKind::task_set_kinds().contains(&DnnKind::ResNet50));
    }
}
