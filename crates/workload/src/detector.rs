//! Windowed arrival-rate load detection: the sensing half of the adaptive
//! control plane.
//!
//! A [`LoadDetector`] folds a sequence of release instants into a
//! burst-in-progress signal using **fixed sim-time windows**: window `k`
//! covers `[k·w, (k+1)·w)` for a configured width `w`. When an observation
//! lands in a later window than the one currently open, every window in
//! between is closed and its arrival rate is compared against two
//! thresholds derived from the workload's *nominal* offered rate:
//!
//! * rate ≥ `burst_ratio · nominal` → the detector enters **burst**;
//! * rate ≤ `calm_ratio · nominal` → the detector returns to **calm**;
//! * in between, the previous state is kept (hysteresis, so a rate
//!   hovering near one threshold does not flap the signal).
//!
//! The detector is **deterministic and seed-free**: its state is a pure
//! function of the configuration, the nominal rate, and the observation
//! sequence. It draws no randomness and reads no wall clock, so two
//! identical release sequences always produce identical burst signals —
//! the property the cluster's byte-identity digests rely on when the
//! control plane is enabled.
//!
//! A consumer feeds the detector one [`observe`](LoadDetector::observe)
//! per release: `DarisScheduler` does so from its release path, so the
//! signal is available at admission time.

use daris_gpu::{SimDuration, SimTime};

/// Configuration of a [`LoadDetector`]: window width plus the two
/// hysteresis thresholds, expressed as ratios of the workload's nominal
/// offered rate.
///
/// The defaults (20 ms windows, burst at 1.5× nominal, calm at 1.1×) are
/// tuned so a strictly periodic plan never trips the detector while the
/// 3× bursty generator's on-segments do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadDetectorConfig {
    /// Width of each rate-measurement window.
    pub window: SimDuration,
    /// A closed window at or above `burst_ratio · nominal` enters burst.
    pub burst_ratio: f64,
    /// A closed window at or below `calm_ratio · nominal` returns to calm.
    pub calm_ratio: f64,
}

impl LoadDetectorConfig {
    /// Checks the rule every consumer of a detector configuration enforces:
    /// a non-zero window and `0 < calm_ratio <= burst_ratio` (without that
    /// ordering the hysteresis band is inverted and the signal flaps every
    /// window). Callers wrap the returned reason in their own error.
    pub fn validate(&self) -> Result<(), String> {
        if self.window.is_zero() {
            return Err("window must be non-zero".into());
        }
        if !(self.calm_ratio > 0.0 && self.calm_ratio <= self.burst_ratio) {
            return Err(format!(
                "thresholds must satisfy 0 < calm_ratio <= burst_ratio, got calm {} burst {}",
                self.calm_ratio, self.burst_ratio
            ));
        }
        Ok(())
    }
}

impl Default for LoadDetectorConfig {
    fn default() -> Self {
        LoadDetectorConfig {
            window: SimDuration::from_millis(20),
            burst_ratio: 1.5,
            calm_ratio: 1.1,
        }
    }
}

/// A deterministic, seed-free burst detector over release instants.
///
/// ```
/// use daris_gpu::{SimDuration, SimTime};
/// use daris_workload::{LoadDetector, LoadDetectorConfig};
///
/// // Nominal load: 100 jobs/s; 10 ms windows → 1 arrival per window.
/// let config = LoadDetectorConfig {
///     window: SimDuration::from_millis(10),
///     burst_ratio: 1.5,
///     calm_ratio: 1.1,
/// };
/// let mut det = LoadDetector::new(config, 100.0);
/// // Three arrivals in window 0 (300 jobs/s) trip the detector as soon
/// // as the window closes.
/// for us in [100u64, 200, 300] {
///     det.observe(SimTime::from_micros(us));
/// }
/// assert!(!det.is_burst(), "the open window is not evaluated yet");
/// det.observe(SimTime::from_millis(11));
/// assert!(det.is_burst());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadDetector {
    config: LoadDetectorConfig,
    nominal_jps: f64,
    /// Index of the currently open (not yet evaluated) window.
    window_index: u64,
    /// Arrivals observed in the open window so far.
    count: u64,
    /// Rate of the most recently closed window, in jobs per second.
    last_rate: f64,
    burst: bool,
    transitions: u64,
}

impl LoadDetector {
    /// Builds a detector for a workload whose nominal offered rate is
    /// `nominal_jps` (e.g. [`TaskSet::offered_jps`]).
    ///
    /// # Panics
    ///
    /// Panics loudly on a degenerate configuration — one that fails
    /// [`LoadDetectorConfig::validate`], or a non-finite or non-positive
    /// nominal rate.
    ///
    /// [`TaskSet::offered_jps`]: crate::TaskSet::offered_jps
    pub fn new(config: LoadDetectorConfig, nominal_jps: f64) -> Self {
        if let Err(reason) = config.validate() {
            panic!("LoadDetector {reason}");
        }
        assert!(
            nominal_jps.is_finite() && nominal_jps > 0.0,
            "LoadDetector nominal rate must be positive and finite, got {nominal_jps}"
        );
        LoadDetector {
            config,
            nominal_jps,
            window_index: 0,
            count: 0,
            last_rate: 0.0,
            burst: false,
            transitions: 0,
        }
    }

    /// Feeds one release instant and returns `true` when the burst signal
    /// flipped as a consequence (i.e. an evaluated window crossed a
    /// threshold).
    ///
    /// Observations are expected in non-decreasing time order (the order
    /// any [`ArrivalSource`](crate::ArrivalSource) emits them); an instant from an
    /// already-evaluated window is counted into the currently open window
    /// rather than reopening history.
    pub fn observe(&mut self, at: SimTime) -> bool {
        let was = self.burst;
        let window = at.as_nanos() / self.config.window.as_nanos();
        if window > self.window_index {
            // Close the open window, then collapse any empty gap windows
            // into a single zero-rate evaluation: after one empty window
            // the hysteresis has already settled at calm, so further empty
            // windows cannot change state (or the transition count).
            let closing = self.count;
            self.evaluate(closing);
            if window > self.window_index + 1 {
                self.evaluate(0);
            }
            self.window_index = window;
            self.count = 0;
        }
        self.count += 1;
        self.burst != was
    }

    /// Whether the detector currently signals a burst in progress.
    pub fn is_burst(&self) -> bool {
        self.burst
    }

    /// The last closed window's rate as a multiple of the nominal rate.
    pub fn load_ratio(&self) -> f64 {
        self.last_rate / self.nominal_jps
    }

    /// Number of burst↔calm transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Evaluates one closed window containing `count` arrivals.
    fn evaluate(&mut self, count: u64) {
        let rate = count as f64 * 1_000.0 / self.config.window.as_millis_f64();
        self.last_rate = rate;
        if !self.burst && rate >= self.nominal_jps * self.config.burst_ratio {
            self.burst = true;
            self.transitions += 1;
        } else if self.burst && rate <= self.nominal_jps * self.config.calm_ratio {
            self.burst = false;
            self.transitions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalStream, BurstyConfig, GenSpec, TaskSet};
    use daris_models::DnnKind;

    fn detector_100jps() -> LoadDetector {
        LoadDetector::new(
            LoadDetectorConfig {
                window: SimDuration::from_millis(10),
                burst_ratio: 1.5,
                calm_ratio: 1.1,
            },
            100.0,
        )
    }

    /// One arrival per `gap_us` microseconds starting at `from_us`.
    fn feed(det: &mut LoadDetector, from_us: u64, to_us: u64, gap_us: u64) -> u64 {
        let mut flips = 0;
        let mut at = from_us;
        while at < to_us {
            if det.observe(SimTime::from_micros(at)) {
                flips += 1;
            }
            at += gap_us;
        }
        flips
    }

    #[test]
    fn burst_trips_and_hysteresis_releases() {
        let mut det = detector_100jps();
        // Nominal pace: 1 arrival / 10 ms window = 100 jps. Calm.
        let flips = feed(&mut det, 0, 50_000, 10_000);
        assert_eq!(flips, 0);
        assert!(!det.is_burst());
        // Burst pace: 1 arrival / 2.5 ms = 400 jps >= 150 jps threshold.
        let flips = feed(&mut det, 50_000, 90_000, 2_500);
        assert_eq!(flips, 1, "one calm→burst transition");
        assert!(det.is_burst());
        assert!(det.load_ratio() > 1.5);
        // Back to nominal: 100 jps <= 110 jps releases the signal.
        let flips = feed(&mut det, 90_000, 140_000, 10_000);
        assert_eq!(flips, 1, "one burst→calm transition");
        assert!(!det.is_burst());
        assert_eq!(det.transitions(), 2);
    }

    #[test]
    fn rate_between_thresholds_keeps_the_previous_state() {
        // With burst at 250 jps and calm at 150 jps, a steady 200 jps
        // (2 arrivals per 10 ms window) sits inside the hysteresis band:
        // whichever state the detector was in, it stays there.
        let config = LoadDetectorConfig {
            window: SimDuration::from_millis(10),
            burst_ratio: 2.5,
            calm_ratio: 1.5,
        };
        let mut det = LoadDetector::new(config, 100.0);
        feed(&mut det, 0, 40_000, 5_000);
        assert!(!det.is_burst(), "hysteresis must not enter burst below the burst threshold");
        let mut det = LoadDetector::new(config, 100.0);
        feed(&mut det, 0, 40_000, 2_500);
        assert!(det.is_burst());
        let flips = feed(&mut det, 40_000, 80_000, 5_000);
        assert_eq!(flips, 0, "hysteresis must hold burst above the calm threshold");
        assert!(det.is_burst());
    }

    #[test]
    fn a_long_gap_settles_the_detector_at_calm() {
        let mut det = detector_100jps();
        feed(&mut det, 0, 40_000, 2_500);
        assert!(det.is_burst());
        // Jump thousands of windows ahead: the collapsed empty-window
        // evaluation must release the burst exactly once.
        assert!(det.observe(SimTime::from_millis(50_000)));
        assert!(!det.is_burst());
        assert_eq!(det.transitions(), 2);
    }

    #[test]
    fn detector_state_is_a_pure_function_of_the_observation_sequence() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(300);
        let run = || {
            let mut det = LoadDetector::new(LoadDetectorConfig::default(), ts.offered_jps());
            for job in GenSpec::Bursty(BurstyConfig::default()).stream(&ts, horizon) {
                det.observe(job.release);
            }
            det
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn periodic_plans_never_trip_the_default_thresholds() {
        let ts = TaskSet::table2(DnnKind::ResNet18);
        let mut det = LoadDetector::new(LoadDetectorConfig::default(), ts.offered_jps());
        for job in ArrivalStream::new(&ts, SimTime::from_millis(400)) {
            assert!(!det.observe(job.release));
        }
        assert_eq!(det.transitions(), 0);
    }

    #[test]
    fn the_bursty_generator_trips_the_default_thresholds() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let mut det = LoadDetector::new(LoadDetectorConfig::default(), ts.offered_jps());
        for job in GenSpec::Bursty(BurstyConfig::default()).stream(&ts, SimTime::from_millis(400)) {
            det.observe(job.release);
        }
        assert!(det.transitions() >= 2, "on/off segments must flip the signal, got {det:?}");
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn zero_window_is_rejected_loudly() {
        let config = LoadDetectorConfig { window: SimDuration::ZERO, ..Default::default() };
        let _ = LoadDetector::new(config, 100.0);
    }

    #[test]
    #[should_panic(expected = "calm_ratio <= burst_ratio")]
    fn inverted_hysteresis_band_is_rejected_loudly() {
        let config = LoadDetectorConfig { burst_ratio: 1.0, calm_ratio: 1.5, ..Default::default() };
        let _ = LoadDetector::new(config, 100.0);
    }
}
