//! Simulated time with picosecond resolution.
//!
//! All simulation components share one monotonically increasing clock.
//! Picoseconds in a `u64` cover ~213 days of simulated time, far beyond the
//! minutes-long runs the paper measures, while still representing a
//! 1.4 GHz CPU cycle (714.28 ps) with sub-0.1% rounding error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub(crate) const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub(crate) const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub(crate) const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute point on the simulated clock, in picoseconds since the start
/// of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Instant `secs` seconds after simulation start.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * PS_PER_SEC)
    }

    /// Elapsed time since `earlier`. Saturates to zero rather than wrapping,
    /// so callers comparing against stale timestamps get a zero span.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// This instant expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub(crate) const MAX: SimDuration = SimDuration(u64::MAX);

    /// A span of whole picoseconds.
    pub fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// A span of whole nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// A span of whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// A span of whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// A span of whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * PS_PER_SEC)
    }

    /// A span of fractional seconds, rounded to the nearest picosecond.
    /// Negative and NaN inputs clamp to zero; spans beyond `u64` saturate.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let ps = secs * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            // Round half away from zero, matching `f64::round`, without the
            // libm call (this conversion sits on the engine's hot path).
            // `ps as u64` truncates; above 2^53 `ps` has no fractional part
            // so the truncation is already exact.
            let whole = ps as u64;
            let rounded = whole + (ps - whole as f64 >= 0.5) as u64;
            SimDuration(rounded)
        }
    }

    /// The span in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// The span in whole picoseconds.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// True when the span is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply the span by a non-negative factor, rounding to the nearest
    /// picosecond and saturating at the representable maximum.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The ratio `self / other` as a float; zero when `other` is zero.
    #[inline]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

/// Time for `cycles` CPU cycles at clock frequency `freq_hz`.
///
/// This is the single conversion point between the "work" domain (cycles,
/// which scale with DVFS frequency) and the time domain.
#[inline]
pub fn cycles_to_duration(cycles: f64, freq_hz: f64) -> SimDuration {
    assert!(freq_hz > 0.0, "frequency must be positive, got {freq_hz}");
    SimDuration::from_secs_f64(cycles / freq_hz)
}

/// Number of whole cycles a CPU at `freq_hz` completes in `dur`
/// (floating-point; fractional cycles are meaningful for progress tracking).
#[inline]
pub fn duration_to_cycles(dur: SimDuration, freq_hz: f64) -> f64 {
    dur.as_secs_f64() * freq_hz
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "overflowing the 580-year picosecond clock is a caller bug; operator impls cannot return Result"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "subtracting a later time is a caller bug; operator impls cannot return Result"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "overflowing the 580-year picosecond span is a caller bug; operator impls cannot return Result"
    )]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "subtracting a longer span is a caller bug; operator impls cannot return Result"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "overflowing the 580-year picosecond span is a caller bug; operator impls cannot return Result"
    )]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Render a picosecond count with a human-friendly unit.
fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_SEC {
        format!("{:.3}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.0, 5 * PS_PER_US);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(5));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(200);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration(100));
    }

    #[test]
    fn from_secs_f64_clamps_pathological_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn cycle_conversion_matches_pentium_m() {
        // One cycle at 1.4 GHz is ~714.29 ps.
        let d = cycles_to_duration(1.0, 1.4e9);
        assert_eq!(d.0, 714);
        // A million cycles at 1 GHz is exactly 1 ms.
        let d = cycles_to_duration(1e6, 1e9);
        assert_eq!(d, SimDuration::from_millis(1));
    }

    #[test]
    fn cycle_conversion_roundtrip() {
        let d = cycles_to_duration(1e9, 0.6e9);
        let cycles = duration_to_cycles(d, 0.6e9);
        assert!((cycles - 1e9).abs() / 1e9 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_panics() {
        let _ = cycles_to_duration(1.0, 0.0);
    }

    #[test]
    fn duration_seconds_roundtrip() {
        let d = SimDuration::from_secs_f64(12.345);
        assert!((d.as_secs_f64() - 12.345).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(110).to_string(), "110.000ns");
        assert_eq!(SimDuration::from_micros(10).to_string(), "10.000us");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert_eq!(SimDuration(12).to_string(), "12ps");
    }

    #[test]
    fn mul_and_div_scale() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(SimDuration(5).ratio(SimDuration::ZERO), 0.0);
        assert_eq!(SimDuration(5).ratio(SimDuration(10)), 0.5);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
