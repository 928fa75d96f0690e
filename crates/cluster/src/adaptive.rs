//! Fleet-level adaptive control knobs: the elastic synchronization quantum
//! and device autoscaling. Both are **reactive feedback loops over simulated
//! state only** — the controller inputs are per-device
//! [`active_load_fraction`](daris_core::Scheduler::active_load_fraction)
//! readings taken at round boundaries, never wall-clock or thread timing, so
//! an adaptive run is as byte-identical across thread counts as a static
//! one.
//!
//! * [`ElasticQuantum`] scales the round length between configurable bounds
//!   with the fleet's mean active load: a loaded fleet synchronizes often
//!   (fast retries and migrations), an idle fleet strides long rounds.
//!   Changes take effect only at round boundaries — a round that has begun
//!   runs to its published end.
//! * [`AutoscaleConfig`] drains devices out of the fleet when mean load
//!   falls below a floor and rejoins them when it exceeds a ceiling,
//!   evaluated every [`epoch`](AutoscaleConfig::epoch) rounds. A drained
//!   device stops receiving releases — they are redirected through the
//!   existing rack-local retry path — and its queued-unstarted jobs are
//!   re-placed through the existing migration path; jobs already running
//!   finish where they started.

use daris_gpu::SimDuration;

use crate::{ClusterError, Result};

/// Bounds for the load-elastic synchronization quantum.
///
/// Each round boundary recomputes the next round's quantum from the fleet's
/// mean active load `u ∈ [0, 1]` as `max - (max - min) · u`: an idle fleet
/// runs `max`-length rounds, a saturated fleet `min`-length rounds. The
/// static 1 ms quantum (clamped into the bounds) seeds the first round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticQuantum {
    /// Round length under full load. Must be non-zero and at most `max`.
    pub min: SimDuration,
    /// Round length for an idle fleet.
    pub max: SimDuration,
}

impl Default for ElasticQuantum {
    /// 250 µs under full load to 4 ms idle, bracketing the default static
    /// quantum of 1 ms.
    fn default() -> Self {
        ElasticQuantum { min: SimDuration::from_micros(250), max: SimDuration::from_millis(4) }
    }
}

impl ElasticQuantum {
    /// Rejects a zero `min` (a zero-length round cannot advance time) and
    /// inverted bounds.
    pub fn validate(&self) -> Result<()> {
        if self.min.is_zero() {
            return Err(ClusterError::InvalidAdaptiveConfig(
                "elastic quantum min must be non-zero (a zero-length round cannot advance time)"
                    .into(),
            ));
        }
        if self.max < self.min {
            return Err(ClusterError::InvalidAdaptiveConfig(
                "elastic quantum bounds are inverted (max < min)".into(),
            ));
        }
        Ok(())
    }

    /// Clamps a quantum into the configured bounds.
    pub fn clamp(&self, quantum: SimDuration) -> SimDuration {
        quantum.max(self.min).min(self.max)
    }

    /// The quantum for a fleet at mean active load `load` (clamped to
    /// `[0, 1]`): linear interpolation from `max` (idle) down to `min`
    /// (saturated).
    pub fn quantum_for(&self, load: f64) -> SimDuration {
        let load = if load.is_finite() { load.clamp(0.0, 1.0) } else { 0.0 };
        let span = self.max.as_micros_f64() - self.min.as_micros_f64();
        self.clamp(SimDuration::from_micros_f64(self.max.as_micros_f64() - span * load))
    }
}

/// Device join/leave autoscaling, evaluated every [`epoch`](Self::epoch)
/// rounds against the fleet's mean active load over *online* devices.
///
/// Scale decisions are hysteretic: mean load at or above
/// [`scale_up_ratio`](Self::scale_up_ratio) — or any job *shed* (charged as
/// a rejection) since the last evaluation, since served load alone
/// under-reads demand once admission starts shedding work — rejoins the
/// lowest-indexed offline device; mean load at or below
/// [`scale_down_ratio`](Self::scale_down_ratio) with nothing shed drains
/// the highest-indexed online device (never below
/// [`min_devices`](Self::min_devices)); in between the fleet holds. At most
/// one device changes state per epoch, so the fleet ramps instead of
/// flapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Devices the fleet never shrinks below.
    pub min_devices: usize,
    /// Mean active load at or above which an offline device rejoins.
    pub scale_up_ratio: f64,
    /// Mean active load at or below which an online device is drained.
    pub scale_down_ratio: f64,
    /// Rounds between scale evaluations (at least 1).
    pub epoch: u64,
}

impl Default for AutoscaleConfig {
    /// Keep at least one device; drain below 25% mean load, rejoin above
    /// 75%; evaluate every 8 rounds.
    fn default() -> Self {
        AutoscaleConfig { min_devices: 1, scale_up_ratio: 0.75, scale_down_ratio: 0.25, epoch: 8 }
    }
}

impl AutoscaleConfig {
    /// Rejects a zero device floor, a zero epoch and thresholds outside
    /// `0 ≤ down < up` (equal thresholds would drain and rejoin in the same
    /// evaluation).
    pub fn validate(&self) -> Result<()> {
        if self.min_devices == 0 {
            return Err(ClusterError::InvalidAdaptiveConfig(
                "autoscale min_devices must be at least 1".into(),
            ));
        }
        if self.epoch == 0 {
            return Err(ClusterError::InvalidAdaptiveConfig(
                "autoscale epoch must be at least 1 round".into(),
            ));
        }
        let ordered = self.scale_down_ratio >= 0.0
            && self.scale_down_ratio < self.scale_up_ratio
            && self.scale_up_ratio.is_finite();
        if !ordered {
            return Err(ClusterError::InvalidAdaptiveConfig(
                "autoscale thresholds must satisfy 0 <= scale_down_ratio < scale_up_ratio".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_quantum_interpolates_between_bounds() {
        let e =
            ElasticQuantum { min: SimDuration::from_micros(500), max: SimDuration::from_millis(2) };
        assert_eq!(e.quantum_for(0.0), SimDuration::from_millis(2));
        assert_eq!(e.quantum_for(1.0), SimDuration::from_micros(500));
        assert_eq!(e.quantum_for(0.5), SimDuration::from_micros(1250));
        // Out-of-range and non-finite loads clamp instead of escaping the bounds.
        assert_eq!(e.quantum_for(7.0), e.min);
        assert_eq!(e.quantum_for(-1.0), e.max);
        assert_eq!(e.quantum_for(f64::NAN), e.max);
    }

    #[test]
    fn elastic_quantum_validation() {
        assert!(ElasticQuantum::default().validate().is_ok());
        let zero = ElasticQuantum { min: SimDuration::ZERO, max: SimDuration::from_millis(1) };
        assert!(matches!(zero.validate(), Err(ClusterError::InvalidAdaptiveConfig(_))));
        let inverted =
            ElasticQuantum { min: SimDuration::from_millis(2), max: SimDuration::from_millis(1) };
        assert!(matches!(inverted.validate(), Err(ClusterError::InvalidAdaptiveConfig(_))));
    }

    #[test]
    fn autoscale_validation() {
        assert!(AutoscaleConfig::default().validate().is_ok());
        let no_floor = AutoscaleConfig { min_devices: 0, ..AutoscaleConfig::default() };
        assert!(matches!(no_floor.validate(), Err(ClusterError::InvalidAdaptiveConfig(_))));
        let no_epoch = AutoscaleConfig { epoch: 0, ..AutoscaleConfig::default() };
        assert!(matches!(no_epoch.validate(), Err(ClusterError::InvalidAdaptiveConfig(_))));
        let crossed = AutoscaleConfig {
            scale_up_ratio: 0.2,
            scale_down_ratio: 0.6,
            ..AutoscaleConfig::default()
        };
        assert!(matches!(crossed.validate(), Err(ClusterError::InvalidAdaptiveConfig(_))));
        let equal = AutoscaleConfig {
            scale_up_ratio: 0.5,
            scale_down_ratio: 0.5,
            ..AutoscaleConfig::default()
        };
        assert!(matches!(equal.validate(), Err(ClusterError::InvalidAdaptiveConfig(_))));
    }
}
