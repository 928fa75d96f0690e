//! Device events.
//!
//! The one vocabulary for what happened on the device at work-item, kernel
//! and allocator granularity. The engine records these while recording is
//! on ([`crate::Gpu::record_events`]) and hands them out in drains
//! ([`crate::Gpu::take_events`]); `daris-telemetry` carries them verbatim.

/// One device event. Stream and context are creation-order indices
/// ([`crate::StreamId::index`], [`crate::ContextId::index`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceEvent {
    /// A work item's host-to-device copy claimed the copy engine.
    CopyInStarted {
        /// Caller tag of the work item (the scheduler's job tag).
        tag: u64,
        /// Stream the item runs on.
        stream: u32,
        /// Context owning the stream.
        context: u32,
    },
    /// A work item's device-to-host copy claimed the copy engine.
    CopyOutStarted {
        /// Caller tag of the work item.
        tag: u64,
        /// Stream the item runs on.
        stream: u32,
        /// Context owning the stream.
        context: u32,
    },
    /// A work item's first kernel started executing.
    ItemStarted {
        /// Caller tag of the work item.
        tag: u64,
        /// Stream the item runs on.
        stream: u32,
        /// Context owning the stream.
        context: u32,
    },
    /// A kernel of a work item completed.
    KernelFinished {
        /// Caller tag of the work item.
        tag: u64,
        /// Stream the item runs on.
        stream: u32,
        /// Context owning the stream.
        context: u32,
        /// Kernel/layer label, when the model provides one.
        label: Option<String>,
    },
    /// A work item (including its device-to-host copy) finished.
    ItemFinished {
        /// Caller tag of the work item.
        tag: u64,
        /// Stream the item runs on.
        stream: u32,
        /// Context owning the stream.
        context: u32,
    },
    /// The water-filling allocator replanned SM allocations. Utilization is
    /// piecewise-constant between consecutive replans, which is exactly the
    /// shape a windowed aggregator integrates.
    Replan {
        /// Number of contexts computing after the replan.
        computing: u32,
        /// Fraction of physical SMs allocated after the replan (0.0–1.0).
        utilization: f64,
    },
}
