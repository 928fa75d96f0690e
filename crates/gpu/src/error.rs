//! Error type for the GPU simulator.

use std::error::Error;
use std::fmt;

use crate::{ContextId, StreamId};

/// Errors returned by [`crate::Gpu`] and related types.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpuError {
    /// A context id does not refer to an existing context.
    UnknownContext(ContextId),
    /// A stream id does not refer to an existing stream.
    UnknownStream(StreamId),
    /// A context was created with a zero SM quota.
    ZeroQuota,
    /// A context quota exceeds the physical SM count of the device.
    QuotaExceedsDevice {
        /// Requested quota.
        quota: u32,
        /// Physical SM count.
        sm_count: u32,
    },
    /// A work item was submitted with no kernels.
    EmptyWorkItem,
    /// A kernel was described with non-positive or non-finite work.
    InvalidKernel(String),
    /// A device-memory allocation could not be satisfied.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// An allocation handle was freed twice or never existed.
    UnknownAllocation(u64),
    /// An [`InterferenceModel`](crate::InterferenceModel) parameter lies
    /// outside the range the rate model is defined on.
    InvalidInterference {
        /// The parameter's field name.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The range it must lie in.
        expected: &'static str,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::UnknownContext(id) => write!(f, "unknown GPU context {id}"),
            GpuError::UnknownStream(id) => write!(f, "unknown CUDA stream {id}"),
            GpuError::ZeroQuota => write!(f, "context SM quota must be at least 1"),
            GpuError::QuotaExceedsDevice { quota, sm_count } => {
                write!(f, "context quota of {quota} SMs exceeds the {sm_count} SMs of the device")
            }
            GpuError::EmptyWorkItem => write!(f, "work item contains no kernels"),
            GpuError::InvalidKernel(reason) => write!(f, "invalid kernel description: {reason}"),
            GpuError::OutOfMemory { requested, available } => write!(
                f,
                "device memory exhausted: requested {requested} bytes, {available} available"
            ),
            GpuError::UnknownAllocation(handle) => {
                write!(f, "unknown device memory allocation handle {handle}")
            }
            GpuError::InvalidInterference { field, value, expected } => {
                write!(f, "interference parameter {field} is {value}; it must be {expected}")
            }
        }
    }
}

impl Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            GpuError::UnknownContext(ContextId(3)),
            GpuError::UnknownStream(StreamId(7)),
            GpuError::ZeroQuota,
            GpuError::QuotaExceedsDevice { quota: 90, sm_count: 68 },
            GpuError::EmptyWorkItem,
            GpuError::InvalidKernel("work is NaN".to_owned()),
            GpuError::OutOfMemory { requested: 10, available: 5 },
            GpuError::UnknownAllocation(1),
            GpuError::InvalidInterference {
                field: "work_jitter",
                value: 1.0,
                expected: "in [0, 1)",
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GpuError>();
    }
}
