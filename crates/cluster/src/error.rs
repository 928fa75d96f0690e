//! Error type for the cluster layer.

use std::error::Error;
use std::fmt;

use daris_core::CoreError;
use daris_workload::TraceError;

/// Errors returned by the cluster layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The cluster has no devices.
    EmptyCluster,
    /// The task set has no tasks.
    EmptyTaskSet,
    /// A device's partition/spec combination is invalid.
    InvalidDevice {
        /// The offending device's name.
        device: String,
        /// The underlying scheduler error.
        source: CoreError,
    },
    /// A per-device scheduler failed to build.
    Scheduler {
        /// The offending device's name.
        device: String,
        /// The underlying scheduler error.
        source: CoreError,
    },
    /// A workload trace could not be replayed on this cluster.
    Trace(TraceError),
    /// A [`RunSpec`](daris_core::RunSpec) cannot be executed on a cluster
    /// (e.g. it has no horizon, or its replay horizon does not match the
    /// trace).
    InvalidRunSpec(String),
    /// An adaptive control-plane knob ([`ElasticQuantum`](crate::ElasticQuantum),
    /// [`AutoscaleConfig`](crate::AutoscaleConfig) or the cluster-level
    /// adaptive-HPA detector) is misconfigured.
    InvalidAdaptiveConfig(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::EmptyCluster => write!(f, "cluster contains no devices"),
            ClusterError::EmptyTaskSet => write!(f, "task set contains no tasks"),
            ClusterError::InvalidDevice { device, source } => {
                write!(f, "invalid device '{device}': {source}")
            }
            ClusterError::Scheduler { device, source } => {
                write!(f, "scheduler for device '{device}' failed: {source}")
            }
            ClusterError::Trace(source) => write!(f, "workload trace error: {source}"),
            ClusterError::InvalidRunSpec(reason) => {
                write!(f, "run spec cannot be executed on a cluster: {reason}")
            }
            ClusterError::InvalidAdaptiveConfig(reason) => {
                write!(f, "invalid adaptive control-plane configuration: {reason}")
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::InvalidDevice { source, .. } | ClusterError::Scheduler { source, .. } => {
                Some(source)
            }
            ClusterError::Trace(source) => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(ClusterError::EmptyCluster.to_string().contains("no devices"));
        assert!(ClusterError::EmptyTaskSet.to_string().contains("no tasks"));
        let e =
            ClusterError::InvalidDevice { device: "gpu3".into(), source: CoreError::EmptyTaskSet };
        assert!(e.to_string().contains("gpu3"));
        assert!(e.source().is_some());
        assert!(ClusterError::EmptyCluster.source().is_none());
        let t = ClusterError::Trace(TraceError::Parse { line: 1, reason: "bad".into() });
        assert!(t.to_string().contains("trace"));
        assert!(t.source().is_some());
    }
}
