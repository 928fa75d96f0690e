//! Scheduler configuration: partitioning policies, oversubscription and
//! ablation switches.

use std::fmt;

use daris_gpu::{sm_quota, GpuSpec};
use daris_telemetry::SinkHandle;
use daris_workload::LoadDetectorConfig;

use crate::CoreError;

/// How the GPU is partitioned across concurrent DNNs (Sec. V of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PartitionPolicy {
    /// `STR`: a single context, one stream per parallel DNN.
    Str,
    /// `MPS`: one MPS context per parallel DNN, one stream each.
    Mps,
    /// `MPS+STR`: several contexts, several streams per context.
    MpsStr,
}

impl fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionPolicy::Str => f.write_str("STR"),
            PartitionPolicy::Mps => f.write_str("MPS"),
            PartitionPolicy::MpsStr => f.write_str("MPS+STR"),
        }
    }
}

/// A concrete GPU partition: `Nc` contexts × `Ns` streams with an
/// oversubscription level `OS` (Sec. III-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPartition {
    /// The policy this partition realizes.
    pub policy: PartitionPolicy,
    /// Number of MPS contexts `Nc`.
    pub n_contexts: u32,
    /// Streams per context `Ns`.
    pub streams_per_context: u32,
    /// Oversubscription level `OS` (`1 ≤ OS ≤ Nc`).
    pub oversubscription: f64,
}

impl GpuPartition {
    /// `STR` partition: one context owning the whole GPU with `np` streams.
    pub fn str_streams(np: u32) -> Self {
        GpuPartition {
            policy: PartitionPolicy::Str,
            n_contexts: 1,
            streams_per_context: np.max(1),
            oversubscription: 1.0,
        }
    }

    /// `MPS` partition: `np` contexts with one stream each at oversubscription
    /// `os`.
    pub fn mps(np: u32, os: f64) -> Self {
        GpuPartition {
            policy: PartitionPolicy::Mps,
            n_contexts: np.max(1),
            streams_per_context: 1,
            oversubscription: os,
        }
    }

    /// `MPS+STR` partition: `nc` contexts × `ns` streams at oversubscription
    /// `os`.
    pub fn mps_str(nc: u32, ns: u32, os: f64) -> Self {
        GpuPartition {
            policy: PartitionPolicy::MpsStr,
            n_contexts: nc.max(1),
            streams_per_context: ns.max(1),
            oversubscription: os,
        }
    }

    /// Maximum number of concurrently executing DNNs `Np = Nc × Ns`.
    pub fn parallel_tasks(&self) -> u32 {
        self.n_contexts * self.streams_per_context
    }

    /// Per-context SM quota from Eq. 9 for a device with `sm_max` SMs. A
    /// single-context (`STR`) partition always owns the full device.
    pub fn sm_quota(&self, sm_max: u32) -> u32 {
        if self.n_contexts <= 1 {
            return sm_max;
        }
        sm_quota(sm_max, self.oversubscription, self.n_contexts)
    }

    /// The paper's configuration label, e.g. `"6x1 OS6"` or `"1x4"`.
    pub fn label(&self) -> String {
        if self.n_contexts <= 1 {
            format!("{}x{}", self.n_contexts, self.streams_per_context)
        } else {
            let os = if (self.oversubscription - self.oversubscription.round()).abs() < 1e-9 {
                format!("{}", self.oversubscription.round() as i64)
            } else {
                format!("{}", self.oversubscription)
            };
            format!("{}x{} OS{}", self.n_contexts, self.streams_per_context, os)
        }
    }

    /// Validates the partition against a device.
    pub(crate) fn validate(&self, spec: &GpuSpec) -> Result<(), CoreError> {
        if self.n_contexts == 0 || self.streams_per_context == 0 {
            return Err(CoreError::InvalidConfig(
                "partition needs at least one context and stream".into(),
            ));
        }
        if self.oversubscription < 1.0 - 1e-9 {
            return Err(CoreError::InvalidConfig(format!(
                "oversubscription must be >= 1, got {}",
                self.oversubscription
            )));
        }
        if self.oversubscription > f64::from(self.n_contexts) + 1e-9 {
            return Err(CoreError::InvalidConfig(format!(
                "oversubscription {} exceeds the number of contexts {}",
                self.oversubscription, self.n_contexts
            )));
        }
        if self.n_contexts > spec.sm_count {
            return Err(CoreError::InvalidConfig(format!(
                "{} contexts cannot each own at least one SM on a {}-SM device",
                self.n_contexts, spec.sm_count
            )));
        }
        Ok(())
    }
}

/// Switches for the module-contribution study of Fig. 8. All flags default to
/// `true` (full DARIS); clearing one reproduces the corresponding ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationFlags {
    /// `No Staging` when false: jobs are dispatched as whole units.
    pub staging: bool,
    /// `No Last` when false: the final stage of a job is not boosted.
    pub prioritize_last_stage: bool,
    /// `No Prior` when false: a stage following a missed virtual deadline is
    /// not boosted.
    pub boost_after_miss: bool,
    /// `No Fixed` when false: high- and low-priority stages share one level
    /// (pure EDF across tasks).
    pub fixed_task_priority: bool,
}

impl Default for AblationFlags {
    fn default() -> Self {
        AblationFlags {
            staging: true,
            prioritize_last_stage: true,
            boost_after_miss: true,
            fixed_task_priority: true,
        }
    }
}

impl AblationFlags {
    /// Full DARIS (all modules enabled).
    pub fn full() -> Self {
        Self::default()
    }

    /// The `No Staging` scenario of Fig. 8.
    pub fn no_staging() -> Self {
        AblationFlags { staging: false, ..Self::default() }
    }

    /// The `No Last` scenario of Fig. 8.
    pub fn no_last() -> Self {
        AblationFlags { prioritize_last_stage: false, ..Self::default() }
    }

    /// The `No Prior` scenario of Fig. 8.
    pub fn no_prior() -> Self {
        AblationFlags { boost_after_miss: false, ..Self::default() }
    }

    /// The `No Fixed` scenario of Fig. 8.
    pub fn no_fixed() -> Self {
        AblationFlags { fixed_task_priority: false, ..Self::default() }
    }

    /// All five Fig. 8 scenarios as `(name, flags)` pairs.
    pub fn figure8_scenarios() -> [(&'static str, AblationFlags); 5] {
        [
            ("DARIS", Self::full()),
            ("No Staging", Self::no_staging()),
            ("No Last", Self::no_last()),
            ("No Prior", Self::no_prior()),
            ("No Fixed", Self::no_fixed()),
        ]
    }
}

/// Complete scheduler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DarisConfig {
    /// Spatial partitioning of the GPU.
    pub partition: GpuPartition,
    /// MRET sliding-window size `ws` (the paper selects 5).
    pub window_size: usize,
    /// Ablation switches (all enabled for full DARIS).
    pub ablation: AblationFlags,
    /// Apply the admission test to high-priority jobs too
    /// (`Overload+HPA`, Sec. VI-I). Default off.
    pub hp_admission: bool,
    /// Adaptive HPA: flip the Overload/HPA admission mode at runtime from a
    /// windowed arrival-rate burst detector instead of configuring it once
    /// up front — HP jobs bypass admission in calm phases and are tested
    /// during bursts. `None` (the default) keeps the static
    /// [`hp_admission`](Self::hp_admission) behaviour. When set together
    /// with `hp_admission`, the static flag wins (HP admission is always
    /// on).
    pub adaptive_hpa: Option<LoadDetectorConfig>,
    /// Device description (defaults to the paper's RTX 2080 Ti).
    pub gpu: GpuSpec,
    /// Device the model profiles are calibrated against. `None` (the
    /// default) calibrates on [`gpu`](Self::gpu) itself, which re-anchors
    /// Table I on whatever device is simulated. A heterogeneous cluster
    /// instead pins calibration to the paper's measurement device (the RTX
    /// 2080 Ti) on *every* member, so that device speed differences emerge
    /// from the simulation instead of being calibrated away.
    pub calibration_gpu: Option<GpuSpec>,
    /// Record per-stage execution-time vs MRET samples (Fig. 9). Default off
    /// to keep long runs lean.
    pub record_mret_trace: bool,
    /// Telemetry sink receiving the scheduler's sim-time event stream.
    /// `None` (the default) disables telemetry entirely: no events are
    /// constructed and device tracing stays off, so the disabled path costs
    /// one branch per potential emission site.
    pub sink: Option<SinkHandle>,
}

impl DarisConfig {
    /// Creates a configuration with the paper's defaults (`ws = 5`, full
    /// DARIS, no HP admission test) for the given partition.
    pub fn new(partition: GpuPartition) -> Self {
        DarisConfig {
            partition,
            window_size: 5,
            ablation: AblationFlags::full(),
            hp_admission: false,
            adaptive_hpa: None,
            gpu: GpuSpec::rtx_2080_ti(),
            calibration_gpu: None,
            record_mret_trace: false,
            sink: None,
        }
    }

    /// Sets the MRET window size ([`validate`](Self::validate) rejects 0).
    pub fn with_window_size(mut self, ws: usize) -> Self {
        self.window_size = ws;
        self
    }

    /// Sets the ablation flags.
    pub fn with_ablation(mut self, ablation: AblationFlags) -> Self {
        self.ablation = ablation;
        self
    }

    /// Enables the HP admission test (`Overload+HPA`).
    pub fn with_hp_admission(mut self) -> Self {
        self.hp_admission = true;
        self
    }

    /// Enables adaptive HPA: the Overload/HPA admission mode follows a
    /// windowed burst detector with the given configuration (see
    /// [`adaptive_hpa`](Self::adaptive_hpa)).
    pub fn with_adaptive_hpa(mut self, detector: LoadDetectorConfig) -> Self {
        self.adaptive_hpa = Some(detector);
        self
    }

    /// Replaces the device description.
    pub fn with_gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Pins model-profile calibration to `reference` instead of the simulated
    /// device (see [`calibration_gpu`](Self::calibration_gpu)).
    pub fn with_reference_calibration(mut self, reference: GpuSpec) -> Self {
        self.calibration_gpu = Some(reference);
        self
    }

    /// The device model profiles are calibrated against.
    pub fn calibration_spec(&self) -> &GpuSpec {
        self.calibration_gpu.as_ref().unwrap_or(&self.gpu)
    }

    /// Enables MRET tracing (Fig. 9).
    pub fn with_mret_trace(mut self) -> Self {
        self.record_mret_trace = true;
        self
    }

    /// Attaches a telemetry sink. Sinks observe the run; they never change
    /// its outcome (the summary digest is byte-identical with or without
    /// one).
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Validates the configuration, the device's spec
    /// ([`GpuSpec::validate`]) included.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window_size == 0 {
            return Err(CoreError::InvalidConfig("window size must be at least 1".into()));
        }
        if let Some(det) = &self.adaptive_hpa {
            det.validate().map_err(|reason| {
                CoreError::InvalidConfig(format!("adaptive HPA detector {reason}"))
            })?;
        }
        self.gpu.validate()?;
        self.partition.validate(&self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_gpu::SimDuration;

    #[test]
    fn partition_constructors_and_labels() {
        let s = GpuPartition::str_streams(4);
        assert_eq!(s.parallel_tasks(), 4);
        assert_eq!(s.label(), "1x4");
        assert_eq!(s.sm_quota(68), 68);

        let m = GpuPartition::mps(6, 6.0);
        assert_eq!(m.parallel_tasks(), 6);
        assert_eq!(m.label(), "6x1 OS6");
        assert_eq!(m.sm_quota(68), 68);

        let m2 = GpuPartition::mps(6, 1.0);
        assert_eq!(m2.sm_quota(68), 12);

        let ms = GpuPartition::mps_str(3, 3, 1.5);
        assert_eq!(ms.parallel_tasks(), 9);
        assert_eq!(ms.label(), "3x3 OS1.5");
        assert_eq!(ms.sm_quota(68), 34);
    }

    #[test]
    fn partition_validation() {
        let spec = GpuSpec::rtx_2080_ti();
        assert!(GpuPartition::mps(6, 2.0).validate(&spec).is_ok());
        assert!(GpuPartition::mps(6, 0.5).validate(&spec).is_err());
        assert!(GpuPartition::mps(6, 7.0).validate(&spec).is_err());
        assert!(GpuPartition::mps(100, 1.0).validate(&spec).is_err());
        let degenerate = GpuPartition { n_contexts: 0, ..GpuPartition::mps(1, 1.0) };
        assert!(degenerate.validate(&spec).is_err());
    }

    #[test]
    fn ablation_scenarios_differ_from_full() {
        let full = AblationFlags::full();
        assert!(full.staging && full.prioritize_last_stage);
        for (name, flags) in AblationFlags::figure8_scenarios().into_iter().skip(1) {
            assert_ne!(flags, full, "{name} should differ from full DARIS");
        }
        assert!(!AblationFlags::no_staging().staging);
        assert!(!AblationFlags::no_last().prioritize_last_stage);
        assert!(!AblationFlags::no_prior().boost_after_miss);
        assert!(!AblationFlags::no_fixed().fixed_task_priority);
    }

    #[test]
    fn config_builder_and_validation() {
        let cfg = DarisConfig::new(GpuPartition::mps(6, 6.0))
            .with_window_size(5)
            .with_hp_admission()
            .with_mret_trace();
        assert!(cfg.validate().is_ok());
        assert!(cfg.hp_admission);
        assert!(cfg.record_mret_trace);
        assert_eq!(cfg.window_size, 5);
        // Calibration defaults to the simulated device and can be pinned.
        assert_eq!(cfg.calibration_spec(), &cfg.gpu);
        let pinned = DarisConfig::new(GpuPartition::mps(6, 6.0))
            .with_gpu(GpuSpec::a100())
            .with_reference_calibration(GpuSpec::rtx_2080_ti());
        assert_eq!(pinned.calibration_spec().sm_count, 68);
        assert_eq!(pinned.gpu.sm_count, 108);
        let bad = DarisConfig::new(GpuPartition::mps(6, 0.2));
        assert!(bad.validate().is_err());
        let zero_window = DarisConfig::new(GpuPartition::str_streams(2)).with_window_size(0);
        assert!(
            matches!(&zero_window.validate(), Err(CoreError::InvalidConfig(m)) if m.contains("window size")),
            "a zero window is rejected by name"
        );
    }

    #[test]
    fn adaptive_hpa_detector_rule_is_validated() {
        let base = LoadDetectorConfig::default();
        let cases = [
            ("zero window", LoadDetectorConfig { window: SimDuration::ZERO, ..base }),
            ("inverted band", LoadDetectorConfig { burst_ratio: 1.0, calm_ratio: 1.5, ..base }),
            ("zero calm ratio", LoadDetectorConfig { calm_ratio: 0.0, ..base }),
        ];
        for (name, detector) in cases {
            let cfg = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_adaptive_hpa(detector);
            assert!(
                matches!(cfg.validate(), Err(CoreError::InvalidConfig(_))),
                "{name} must be rejected"
            );
        }
        let ok = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_adaptive_hpa(base);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn policy_display() {
        assert_eq!(PartitionPolicy::Str.to_string(), "STR");
        assert_eq!(PartitionPolicy::Mps.to_string(), "MPS");
        assert_eq!(PartitionPolicy::MpsStr.to_string(), "MPS+STR");
    }
}
