//! Accumulators used throughout the simulation.
//!
//! * [`TimeWeighted`] integrates a piecewise-constant signal over simulated
//!   time — the power model uses it to turn watts into joules, and the
//!   simulated `/proc/stat` uses it to account busy vs. idle jiffies.
//! * [`OnlineStats`] is a Welford mean/variance accumulator used by the
//!   measurement framework to summarize repeated experiments.

use crate::time::SimTime;

/// Integrates a piecewise-constant `f64` signal over simulated time.
///
/// The signal holds its current value until [`TimeWeighted::set`] is called
/// with a new one; the integral accumulates `value * dt` in
/// `unit * seconds` (watts in, joules out).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_change: SimTime,
    value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Start integrating `initial` from time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            value: initial,
            integral: 0.0,
        }
    }

    /// Change the signal to `value` at time `now`, accumulating the segment
    /// that just ended. `now` must not precede the previous change.
    #[inline]
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
    }

    /// Accumulate up to `now` without changing the value.
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        // Always-on: `since` saturates, so a backwards `now` would silently
        // drop the open segment from the integral in release builds —
        // energy-accounting corruption, not a debug-only nicety.
        assert!(
            now >= self.last_change,
            "time went backwards: {now:?} < {:?}",
            self.last_change
        );
        let dt = now.since(self.last_change).as_secs_f64();
        self.integral += self.value * dt;
        self.last_change = now;
    }

    /// The integral including the still-open segment ending at `now`.
    /// `now` must not precede the last `set`/`advance` (signals are only
    /// readable at or after their latest change).
    #[inline]
    pub fn integral_at(&self, now: SimTime) -> f64 {
        // Always-on for the same reason as `advance`: saturating `since`
        // would silently truncate the reported integral.
        assert!(
            now >= self.last_change,
            "integral_at({now:?}) precedes last change {:?}",
            self.last_change
        );
        self.integral + self.value * now.since(self.last_change).as_secs_f64()
    }
}

/// Welford online mean/variance over a stream of samples.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two samples.
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn constant_signal_integrates_linearly() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 30.0); // 30 W
        tw.advance(SimTime::from_secs(10));
        assert!((tw.integral_at(SimTime::from_secs(10)) - 300.0).abs() < 1e-9); // 300 J
    }

    #[test]
    fn step_change_splits_integral() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 10.0);
        tw.set(SimTime::from_secs(5), 20.0);
        tw.advance(SimTime::from_secs(10));
        assert!((tw.integral_at(SimTime::from_secs(10)) - (50.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn integral_at_includes_open_segment() {
        let tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        assert!((tw.integral_at(SimTime::from_secs(3)) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_empty_and_single() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
    }

    proptest! {
        /// The time-weighted integral of a sequence of steps equals the
        /// hand-computed sum of value*dt segments.
        #[test]
        fn prop_integral_matches_manual(steps in proptest::collection::vec((0.0f64..100.0, 1u64..1000), 1..50)) {
            let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
            let mut manual = 0.0;
            let mut t = SimTime::ZERO;
            let mut current = 0.0f64;
            for (v, dt_ms) in steps {
                let dt = SimDuration::from_millis(dt_ms);
                manual += current * dt.as_secs_f64();
                t += dt;
                tw.set(t, v);
                current = v;
            }
            prop_assert!((tw.integral_at(t) - manual).abs() < 1e-6 * manual.abs().max(1.0));
        }

        /// Welford mean matches the naive mean.
        #[test]
        fn prop_welford_mean(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs { s.push(x); }
            let naive = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6 * naive.abs().max(1.0));
        }
    }
}
