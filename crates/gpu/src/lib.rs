//! # daris-gpu
//!
//! A discrete-event simulator of an NVIDIA-style GPU as seen by an inference
//! scheduler: a pool of Streaming Multiprocessors (SMs), MPS *contexts* that
//! each own an SM quota (possibly oversubscribed), FIFO *CUDA streams*, and
//! *kernels* that occupy SMs for a model-dependent amount of work.
//!
//! The DARIS paper evaluates on a real RTX 2080 Ti; this crate is the
//! substitute substrate (see `DESIGN.md`). It reproduces the first-order
//! timing phenomena that the DARIS scheduler exploits:
//!
//! * a kernel can only use SMs from its context's quota, so isolating SMs
//!   (`OS = 1`) wastes capacity whenever a context idles;
//! * when the quotas of concurrently busy contexts exceed the physical SM
//!   count (oversubscription), allocations are scaled down proportionally and
//!   a configurable interference penalty is applied;
//! * kernels serialize within a stream, and every kernel pays a launch
//!   overhead that batching amortizes;
//! * host-to-device / device-to-host copies serialize on a single copy engine.
//!
//! # Example
//!
//! ```
//! use daris_gpu::{Gpu, GpuSpec, KernelDesc, WorkItem};
//!
//! # fn main() -> Result<(), daris_gpu::GpuError> {
//! let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
//! // One context at the full 68-SM quota, with one stream.
//! let stream = gpu.add_contexts(1, 68, 1)?[0];
//! let item = WorkItem::new(42, vec![KernelDesc::new(6800.0, 68)]);
//! gpu.submit(stream, item)?;
//! let completions = gpu.run_to_idle();
//! assert_eq!(completions.len(), 1);
//! assert_eq!(completions[0].tag, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod context;
mod engine;
mod error;
mod kernel;
mod memory;
mod rng;
mod slab;
mod spec;
mod stream;
mod time;
mod trace;

pub use context::ContextId;
pub use engine::{Completion, Gpu, WorkCounters};
pub use error::GpuError;
pub use kernel::{KernelDesc, KernelId, KernelPhase, WorkItem, WorkItemId};
pub use memory::{MemoryPool, MemoryStats};
pub use rng::XorShiftRng;
pub use slab::Slab;
pub use spec::{GpuSpec, InterferenceModel};
pub use stream::StreamId;
pub use time::{SimDuration, SimTime};
pub use trace::DeviceEvent;

/// Convenience result alias used across the crate.
pub type Result<T, E = GpuError> = std::result::Result<T, E>;

/// Rounds `value` up to the nearest even integer, as required by Eq. (9) of
/// the DARIS paper when computing per-context SM quotas.
///
/// ```
/// assert_eq!(daris_gpu::ceil_even(11.3), 12);
/// assert_eq!(daris_gpu::ceil_even(12.0), 12);
/// assert_eq!(daris_gpu::ceil_even(12.1), 14);
/// assert_eq!(daris_gpu::ceil_even(0.5), 2);
/// ```
pub fn ceil_even(value: f64) -> u32 {
    if value <= 0.0 {
        return 0;
    }
    #[allow(clippy::cast_sign_loss)] // `value` is positive here; an SM count, not time
    let c = value.ceil() as u32;
    if c % 2 == 0 {
        c
    } else {
        c + 1
    }
}

/// Computes the per-context SM quota of Eq. (9):
/// `NSM = ceil_even(OS * NSM_max / Nc)`.
///
/// `oversubscription` is the OS value (`1.0 <= OS <= Nc` in the paper), and
/// `n_contexts` the number of MPS contexts.
///
/// ```
/// // RTX 2080 Ti, 6 contexts, OS = 1: each context gets 12 SMs.
/// assert_eq!(daris_gpu::sm_quota(68, 1.0, 6), 12);
/// // OS = 6 (full sharing): every context sees all 68 SMs.
/// assert_eq!(daris_gpu::sm_quota(68, 6.0, 6), 68);
/// ```
pub fn sm_quota(sm_max: u32, oversubscription: f64, n_contexts: u32) -> u32 {
    if n_contexts == 0 {
        return 0;
    }
    let raw = oversubscription * f64::from(sm_max) / f64::from(n_contexts);
    ceil_even(raw).min(sm_max.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_even_basic() {
        assert_eq!(ceil_even(0.0), 0);
        assert_eq!(ceil_even(-3.0), 0);
        assert_eq!(ceil_even(1.0), 2);
        assert_eq!(ceil_even(2.0), 2);
        assert_eq!(ceil_even(67.9), 68);
        assert_eq!(ceil_even(68.0), 68);
    }

    #[test]
    fn sm_quota_matches_paper_examples() {
        // 6 contexts on a 68-SM GPU.
        assert_eq!(sm_quota(68, 1.0, 6), 12);
        assert_eq!(sm_quota(68, 1.5, 6), 18);
        assert_eq!(sm_quota(68, 2.0, 6), 24);
        assert_eq!(sm_quota(68, 6.0, 6), 68);
        // Quota never exceeds the physical SM count.
        assert_eq!(sm_quota(68, 10.0, 2), 68);
        // Degenerate cases.
        assert_eq!(sm_quota(68, 1.0, 0), 0);
    }

    #[test]
    fn sm_quota_is_even() {
        for nc in 1..=10u32 {
            for os10 in 10..=60u32 {
                let q = sm_quota(68, f64::from(os10) / 10.0, nc);
                assert_eq!(q % 2, 0, "quota {q} for nc={nc} os={os10} not even");
            }
        }
    }
}
