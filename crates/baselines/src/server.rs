//! [`Server`]: the one builder behind every baseline, and the [`Policy`]
//! that differs between them. `Policy` is `pub` only so it can bound
//! `Server`'s methods; the module is private, so nothing outside names it.

use std::marker::PhantomData;

use daris_gpu::{GpuError, GpuSpec};
use daris_workload::TaskSet;

use crate::harness::BaselineScheduler;
use crate::policies::DispatchQueue;

/// A baseline server: the device it runs on, an optional reference device
/// to calibrate model profiles against, and its policy's parameters `P`.
///
/// Every baseline but [`SingleTenantServer`](crate::SingleTenantServer),
/// which wraps it, is an alias of it with its own `new`, such as
/// [`FifoMultiStreamServer`](crate::FifoMultiStreamServer).
#[derive(Debug, Clone)]
pub struct Server<P> {
    spec: GpuSpec,
    calibration: Option<GpuSpec>,
    pub(crate) policy: P,
}

/// What differs between baselines: a label, a layout and a queue.
pub trait Policy {
    /// The configuration label the outcome reports.
    fn label(&self) -> String;

    /// `(contexts, SM quota, streams per context)` on a device of `sm_count`
    /// SMs, one dispatch slot per stream. By default one stream on the
    /// whole device.
    fn layout(&self, sm_count: u32) -> (u32, u32, u32) {
        (1, sm_count, 1)
    }

    /// An empty queue.
    fn queue(&self) -> Box<dyn DispatchQueue>;
}

impl<P> Server<P> {
    /// A server on the paper's RTX 2080 Ti, calibrated against itself.
    pub(crate) fn of(policy: P) -> Self {
        Server { spec: GpuSpec::rtx_2080_ti(), calibration: None, policy }
    }

    /// Overrides the device.
    pub fn with_gpu(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Calibrates model profiles (and thus deadlines' meaning) against a
    /// *reference* device instead of the server's own — what a heterogeneous
    /// fleet comparison needs so every device prices work identically.
    pub fn with_calibration(mut self, reference: GpuSpec) -> Self {
        self.calibration = Some(reference);
        self
    }
}

impl<P: Policy> Server<P> {
    /// Builds the [`Scheduler`](daris_core::Scheduler)-trait form of this
    /// baseline over `taskset`.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors.
    pub fn scheduler(&self, taskset: &TaskSet) -> Result<BaselineScheduler, GpuError> {
        let calibration = self.calibration.clone().unwrap_or_else(|| self.spec.clone());
        BaselineScheduler::build(taskset, self.spec.clone(), calibration, &self.policy)
    }
}

/// `streams` parallel streams of one full-device context, each running one
/// whole job at a time from a shared `Q` queue.
#[derive(Debug, Clone)]
pub struct Streams<Q> {
    streams: u32,
    queue: PhantomData<Q>,
}

/// A whole-job queue that [`Streams`] serves, and its label's stem.
pub trait StreamQueue: DispatchQueue + Default + 'static {
    /// The label's stem; the label appends the stream count.
    const LABEL: &'static str;
}

impl<Q: StreamQueue> Server<Streams<Q>> {
    /// Creates a server with `streams` parallel streams on the paper's GPU.
    pub fn new(streams: u32) -> Self {
        Server::of(Streams { streams: streams.max(1), queue: PhantomData })
    }
}

impl<Q: StreamQueue> Policy for Streams<Q> {
    fn label(&self) -> String {
        format!("{} k={}", Q::LABEL, self.streams)
    }

    fn layout(&self, sm_count: u32) -> (u32, u32, u32) {
        (1, sm_count, self.streams)
    }

    fn queue(&self) -> Box<dyn DispatchQueue> {
        Box::<Q>::default()
    }
}
