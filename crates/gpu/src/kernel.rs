//! Kernel and work-item descriptions.

use std::fmt;
use std::sync::Arc;

use crate::{GpuError, SimDuration};

/// Identifier of a kernel instance inside a [`crate::Gpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub(crate) u64);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Identifier of a submitted [`WorkItem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkItemId(pub(crate) u64);

impl fmt::Display for WorkItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Execution phases of a kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPhase {
    /// Queued behind other kernels in its stream.
    Queued,
    /// Paying the serial launch overhead (no SMs occupied).
    Launching,
    /// Executing on SMs.
    Computing,
    /// Finished.
    Completed,
}

/// Static description of a GPU kernel as seen by the scheduler: how much
/// compute it carries and how wide it can spread across SMs.
///
/// `work` is expressed in SM-microseconds: a kernel with `work = 680.0` keeps
/// 68 SMs busy for 10 µs, or 10 SMs busy for 68 µs.
///
/// ```
/// use daris_gpu::KernelDesc;
/// let k = KernelDesc::new(680.0, 34);
/// // Alone on an idle RTX 2080 Ti the kernel is limited by its own
/// // parallelism: 680 SM·µs / 34 SMs = 20 µs of compute.
/// assert_eq!(k.isolated_compute_micros(68), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Compute demand in SM-microseconds.
    pub work: f64,
    /// Maximum number of SMs the kernel can occupy concurrently (its grid
    /// width in scheduling terms).
    pub parallelism: u32,
    /// Serial launch overhead; `None` uses the device default.
    pub launch_overhead: Option<SimDuration>,
    /// Optional human-readable label (layer name) used in traces. Shared,
    /// so recording a kernel finish bumps a refcount instead of copying it.
    pub label: Option<Arc<str>>,
}

impl KernelDesc {
    /// Creates a kernel with the given work (SM-microseconds) and maximum
    /// parallelism, using the device's default launch overhead.
    pub fn new(work: f64, parallelism: u32) -> Self {
        KernelDesc { work, parallelism: parallelism.max(1), launch_overhead: None, label: None }
    }

    /// Overrides the launch overhead for this kernel.
    pub fn with_launch_overhead(mut self, overhead: SimDuration) -> Self {
        self.launch_overhead = Some(overhead);
        self
    }

    /// Attaches a label (e.g. the originating layer name).
    pub fn with_label(mut self, label: impl Into<Arc<str>>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Compute time in microseconds when the kernel runs alone on a device
    /// with `sm_count` SMs (launch overhead excluded).
    pub fn isolated_compute_micros(&self, sm_count: u32) -> f64 {
        self.work / f64::from(self.parallelism.min(sm_count).max(1))
    }

    /// Validates the description.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidKernel`] if the work is non-finite or not
    /// strictly positive.
    pub fn validate(&self) -> Result<(), GpuError> {
        if !self.work.is_finite() || self.work <= 0.0 {
            return Err(GpuError::InvalidKernel(format!(
                "work must be finite and positive, got {}",
                self.work
            )));
        }
        Ok(())
    }
}

/// A unit of submission to a CUDA stream: an ordered list of kernels plus
/// optional host<->device transfers, identified by a caller-chosen `tag`.
///
/// In the DARIS reproduction one work item corresponds to one *stage* of one
/// DNN inference job (or a whole job when staging is disabled, or a batched
/// stage when batching is enabled). The caller learns about completion through
/// [`crate::Completion`] events carrying the same tag.
///
/// The kernels are a shared slice: a model profile lowers each stage once and
/// every dispatch of that stage submits the same slice, so building an item
/// allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Caller-chosen identifier reported back on completion.
    pub tag: u64,
    /// Kernels executed sequentially within the owning stream.
    pub kernels: Arc<[KernelDesc]>,
    /// Bytes copied host-to-device before the first kernel starts.
    pub h2d_bytes: u64,
    /// Bytes copied device-to-host after the last kernel finishes.
    pub d2h_bytes: u64,
}

impl WorkItem {
    /// Creates a work item running `kernels` in order, with no transfers:
    /// a shared slice (`Arc<[KernelDesc]>`) or a `Vec` of kernels.
    pub fn new(tag: u64, kernels: impl Into<Arc<[KernelDesc]>>) -> Self {
        WorkItem { tag, kernels: kernels.into(), h2d_bytes: 0, d2h_bytes: 0 }
    }

    /// Sets the host-to-device transfer size (e.g. the input tensor).
    pub fn with_h2d_bytes(mut self, bytes: u64) -> Self {
        self.h2d_bytes = bytes;
        self
    }

    /// Sets the device-to-host transfer size (e.g. the output logits).
    pub fn with_d2h_bytes(mut self, bytes: u64) -> Self {
        self.d2h_bytes = bytes;
        self
    }

    /// Number of kernels in the item.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Validates the item and all of its kernels.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::EmptyWorkItem`] when there are no kernels, or the
    /// first kernel validation error.
    pub fn validate(&self) -> Result<(), GpuError> {
        if self.kernels.is_empty() {
            return Err(GpuError::EmptyWorkItem);
        }
        for k in self.kernels.iter() {
            k.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_isolated_time_respects_device_width() {
        let k = KernelDesc::new(1360.0, 200);
        // Parallelism is clamped to the device width.
        assert_eq!(k.isolated_compute_micros(68), 20.0);
        let narrow = KernelDesc::new(1360.0, 10);
        assert_eq!(narrow.isolated_compute_micros(68), 136.0);
    }

    #[test]
    fn kernel_validation() {
        assert!(KernelDesc::new(1.0, 1).validate().is_ok());
        assert!(KernelDesc::new(0.0, 1).validate().is_err());
        assert!(KernelDesc::new(-5.0, 1).validate().is_err());
        assert!(KernelDesc::new(f64::NAN, 1).validate().is_err());
    }

    #[test]
    fn parallelism_is_at_least_one() {
        let k = KernelDesc::new(10.0, 0);
        assert_eq!(k.parallelism, 1);
    }

    #[test]
    fn work_item_builder_and_totals() {
        let kernels =
            vec![KernelDesc::new(10.0, 4), KernelDesc::new(20.0, 8), KernelDesc::new(30.0, 8)];
        let item = WorkItem::new(9, kernels).with_h2d_bytes(1024).with_d2h_bytes(64);
        assert_eq!(item.kernel_count(), 3);
        assert_eq!(item.h2d_bytes, 1024);
        assert_eq!(item.d2h_bytes, 64);
        assert!(item.validate().is_ok());
    }

    #[test]
    fn empty_work_item_is_rejected() {
        assert_eq!(WorkItem::new(1, Vec::new()).validate(), Err(GpuError::EmptyWorkItem));
    }

    #[test]
    fn ids_display() {
        assert_eq!(KernelId(3).to_string(), "k3");
        assert_eq!(WorkItemId(4).to_string(), "w4");
    }
}
