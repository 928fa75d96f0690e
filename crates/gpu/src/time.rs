//! Simulation time primitives.
//!
//! All simulator timing is expressed in integer nanoseconds to keep event
//! ordering deterministic and free of floating-point drift. [`SimTime`] is an
//! absolute instant since simulation start; [`SimDuration`] is a span.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute simulation instant, in nanoseconds since simulation start.
///
/// ```
/// use daris_gpu::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_millis(2);
/// assert_eq!(t.as_micros_f64(), 2_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use daris_gpu::SimDuration;
/// let d = SimDuration::from_micros_f64(1.5);
/// assert_eq!(d.as_nanos(), 1_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant, usable as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds, saturating at [`SimTime::MAX`].
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Creates an instant from milliseconds, saturating at [`SimTime::MAX`].
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Instant expressed in microseconds (lossy for very large values).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Instant expressed in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Instant expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds, saturating at [`SimDuration::MAX`].
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Creates a duration from milliseconds, saturating at [`SimDuration::MAX`].
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from a floating-point number of microseconds.
    ///
    /// Negative or non-finite inputs clamp to zero.
    #[allow(clippy::cast_sign_loss)] // a float->time entry point; casts only finite `us > 0`
    pub fn from_micros_f64(us: f64) -> Self {
        if !us.is_finite() || us <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((us * 1e3).round() as u64)
    }

    /// Creates a duration from a floating-point number of nanoseconds,
    /// rounded *up* to the next whole ns and saturating at
    /// [`SimDuration::MAX`].
    ///
    /// NaN, zero and negative inputs give zero; `+∞` and anything at or
    /// above 2⁶⁴ give [`SimDuration::MAX`]. For a finite `ns` in
    /// `[0, 2⁶⁴)` the result is exactly `ceil(ns)`.
    ///
    /// ```
    /// use daris_gpu::SimDuration;
    /// assert_eq!(SimDuration::from_nanos_f64_ceil(2.25).as_nanos(), 3);
    /// assert_eq!(SimDuration::from_nanos_f64_ceil(7.0).as_nanos(), 7);
    /// assert_eq!(SimDuration::from_nanos_f64_ceil(f64::INFINITY), SimDuration::MAX);
    /// ```
    // `as` truncates toward zero and saturates (NaN and negatives to 0, +inf
    // to u64::MAX); the comparison adds back a dropped fraction.
    #[allow(clippy::cast_sign_loss)] // a float->time entry point; the saturating cast is intended
    pub fn from_nanos_f64_ceil(ns: f64) -> Self {
        let whole = ns as u64;
        SimDuration(whole.saturating_add(u64::from((whole as f64) < ns)))
    }

    /// Creates a duration from a floating-point number of milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_micros_f64(ms * 1e3)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        Self::from_micros_f64(self.as_micros_f64() * factor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl From<SimDuration> for SimTime {
    fn from(d: SimDuration) -> Self {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_millis(3);
        assert_eq!(d.as_millis_f64(), 3.0);
        assert_eq!(d.as_micros_f64(), 3_000.0);
        assert_eq!(d.as_nanos(), 3_000_000);
        let t = SimTime::from_micros(1_500);
        assert_eq!(t.as_millis_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_millis(10);
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!((t1 - t0).as_millis_f64(), 5.0);
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(5));
        assert_eq!(SimDuration::from_millis(8) - SimDuration::from_millis(10), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros(4) * 3, SimDuration::from_micros(12));
        assert_eq!(SimDuration::from_micros(12) / 4, SimDuration::from_micros(3));
    }

    #[test]
    fn negative_and_nan_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_micros_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn nanos_ceiling_rounds_up_and_saturates() {
        let ceil = |ns: f64| SimDuration::from_nanos_f64_ceil(ns).as_nanos();
        assert_eq!((ceil(0.0), ceil(-0.0), ceil(-3.5), ceil(f64::NAN)), (0, 0, 0, 0));
        assert_eq!((ceil(f64::MIN_POSITIVE), ceil(0.5), ceil(1.0), ceil(1.5)), (1, 1, 1, 2));
        // Above 2^53 every f64 is a whole number: it converts unchanged.
        assert_eq!(ceil(2f64.powi(60)), 1 << 60);
        assert_eq!(ceil(2f64.powi(64)), u64::MAX);
        assert_eq!(ceil(1e300), u64::MAX);
        assert_eq!(ceil(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
        assert_eq!(format!("{}", SimTime::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(250));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }
}
