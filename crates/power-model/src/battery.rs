//! ACPI smart-battery model.
//!
//! The paper's primary energy measurement polls each laptop's smart battery
//! over ACPI: remaining capacity is reported in milliwatt-hours
//! (1 mWh = 3.6 J) and refreshes only every 15–20 seconds. Application
//! energy is the difference between the readings bracketing the run, which
//! is why the paper runs long problems or iterates executions. This module
//! reproduces exactly that quantized, slowly-refreshing view over the
//! simulation's ground-truth joules.

/// Joules per milliwatt-hour.
pub const J_PER_MWH: f64 = 3.6;

/// An anomalous reading from the measurement layer. Real instruments
/// produce these (a stuck register, a reading that "recharges" the pack
/// mid-run); the simulation surfaces them as values so harnesses can
/// degrade — drop the sample, reuse the last good reading, filter the
/// node — instead of aborting a whole batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasurementError {
    /// `draw` was asked to add negative energy.
    NegativeDraw {
        /// Offending delta, joules.
        joules: f64,
    },
    /// The cumulative drawn total went backwards — the battery would
    /// have to recharge mid-experiment.
    BatteryRecharged {
        /// Cumulative joules recorded so far.
        drawn_j: f64,
        /// Smaller total the caller tried to set.
        requested_j: f64,
    },
    /// The "after" ACPI reading is larger than the "before" one.
    ReadingIncreased {
        /// Reading at the start of the window, mWh.
        before_mwh: u64,
        /// Reading at the end of the window, mWh.
        after_mwh: u64,
    },
}

impl std::fmt::Display for MeasurementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MeasurementError::NegativeDraw { joules } => {
                write!(f, "cannot draw negative energy ({joules} J)")
            }
            MeasurementError::BatteryRecharged {
                drawn_j,
                requested_j,
            } => write!(
                f,
                "battery cannot be recharged mid-experiment (drawn {drawn_j} -> {requested_j})"
            ),
            MeasurementError::ReadingIncreased {
                before_mwh,
                after_mwh,
            } => write!(
                f,
                "battery reading increased ({before_mwh} -> {after_mwh} mWh)"
            ),
        }
    }
}

impl std::error::Error for MeasurementError {}

/// A battery that discharges as the node consumes energy and reports
/// remaining capacity quantized to whole mWh.
#[derive(Debug, Clone)]
pub struct SmartBattery {
    initial_mwh: f64,
    drawn_j: f64,
}

impl SmartBattery {
    /// A fully charged battery of `capacity_mwh` (Inspiron 8600 packs are
    /// ~72 Wh ≈ 72 000 mWh).
    pub fn new(capacity_mwh: f64) -> Self {
        assert!(capacity_mwh > 0.0 && capacity_mwh.is_finite());
        SmartBattery {
            initial_mwh: capacity_mwh,
            drawn_j: 0.0,
        }
    }

    /// Record that the node has drawn `joules` (cumulative total from an
    /// [`crate::EnergyMeter`], so pass the *delta* since the last call, or
    /// use [`SmartBattery::set_drawn`] with the running total). A negative
    /// delta is a [`MeasurementError`] and leaves the pack unchanged.
    #[must_use = "a rejected draw leaves the pack unchanged; the caller must decide how to degrade"]
    pub fn draw(&mut self, joules: f64) -> Result<(), MeasurementError> {
        if joules < 0.0 {
            return Err(MeasurementError::NegativeDraw { joules });
        }
        self.drawn_j += joules;
        Ok(())
    }

    /// Set the cumulative energy drawn since full charge (convenient when
    /// the caller keeps the meter's running total). A decreasing total —
    /// the battery "recharging" mid-experiment — is a [`MeasurementError`]
    /// and leaves the pack unchanged.
    #[must_use = "a rejected total leaves the pack unchanged; the caller must decide how to degrade"]
    pub fn set_drawn(&mut self, joules: f64) -> Result<(), MeasurementError> {
        if joules < self.drawn_j {
            return Err(MeasurementError::BatteryRecharged {
                drawn_j: self.drawn_j,
                requested_j: joules,
            });
        }
        self.drawn_j = joules;
        Ok(())
    }

    /// Remaining capacity as the ACPI interface reports it: whole mWh,
    /// floored (the register counts down), clamped at zero.
    pub fn reading_mwh(&self) -> u64 {
        self.remaining_exact_mwh().floor() as u64
    }

    /// Ground-truth remaining capacity, mWh (not quantized).
    pub(crate) fn remaining_exact_mwh(&self) -> f64 {
        let drawn_mwh = self.drawn_j / J_PER_MWH;
        (self.initial_mwh - drawn_mwh).max(0.0)
    }

    /// Energy between two ACPI readings, in joules — the paper's
    /// measurement primitive (`(before - after) * 3.6 J`). A reading that
    /// *increased* over the window is a [`MeasurementError`].
    #[must_use = "a dropped reading (or error) must not pass silently"]
    pub fn energy_between(before_mwh: u64, after_mwh: u64) -> Result<f64, MeasurementError> {
        if before_mwh < after_mwh {
            return Err(MeasurementError::ReadingIncreased {
                before_mwh,
                after_mwh,
            });
        }
        Ok((before_mwh - after_mwh) as f64 * J_PER_MWH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_battery_reports_full() {
        let b = SmartBattery::new(1000.0);
        assert_eq!(b.reading_mwh(), 1000);
    }

    #[test]
    fn draw_quantizes_downward() {
        let mut b = SmartBattery::new(1000.0);
        b.draw(1.0).unwrap(); // far less than 1 mWh
        assert_eq!(b.reading_mwh(), 999); // floor: register already ticked
        b.draw(2.6).unwrap(); // total 3.6 J = exactly 1 mWh
        assert_eq!(b.reading_mwh(), 999);
        b.draw(3.6).unwrap();
        assert_eq!(b.reading_mwh(), 998);
    }

    #[test]
    fn energy_between_matches_draw_within_quantization() {
        let mut b = SmartBattery::new(72_000.0);
        let before = b.reading_mwh();
        let true_j = 5000.0;
        b.draw(true_j).unwrap();
        let after = b.reading_mwh();
        let measured = SmartBattery::energy_between(before, after).unwrap();
        assert!((measured - true_j).abs() <= 2.0 * J_PER_MWH);
    }

    #[test]
    fn set_drawn_tracks_running_total() {
        let mut b = SmartBattery::new(100.0);
        b.set_drawn(36.0).unwrap();
        assert_eq!(b.reading_mwh(), 90);
        b.set_drawn(72.0).unwrap();
        assert_eq!(b.reading_mwh(), 80);
    }

    #[test]
    fn set_drawn_rejects_decrease_without_mutating() {
        let mut b = SmartBattery::new(100.0);
        b.set_drawn(36.0).unwrap();
        assert_eq!(
            b.set_drawn(10.0),
            Err(MeasurementError::BatteryRecharged {
                drawn_j: 36.0,
                requested_j: 10.0
            })
        );
        // The pack keeps its last consistent state.
        assert_eq!(b.reading_mwh(), 90);
    }

    #[test]
    fn draw_rejects_negative_without_mutating() {
        let mut b = SmartBattery::new(100.0);
        assert_eq!(
            b.draw(-1.0),
            Err(MeasurementError::NegativeDraw { joules: -1.0 })
        );
        assert_eq!(b.reading_mwh(), 100);
    }

    #[test]
    fn exhaustion_clamps_at_zero() {
        let mut b = SmartBattery::new(1.0);
        b.draw(1000.0).unwrap();
        assert_eq!(b.reading_mwh(), 0);
    }

    #[test]
    fn energy_between_rejects_increase() {
        assert_eq!(
            SmartBattery::energy_between(10, 20),
            Err(MeasurementError::ReadingIncreased {
                before_mwh: 10,
                after_mwh: 20
            })
        );
    }

    #[test]
    fn measurement_errors_display_their_context() {
        let e = MeasurementError::ReadingIncreased {
            before_mwh: 10,
            after_mwh: 20,
        };
        assert!(e.to_string().contains("increased"));
        let e = MeasurementError::BatteryRecharged {
            drawn_j: 36.0,
            requested_j: 10.0,
        };
        assert!(e.to_string().contains("recharged"));
    }

    proptest! {
        /// Quantized readings never deviate from ground truth by a full mWh.
        #[test]
        fn prop_quantization_error_bounded(draws in proptest::collection::vec(0.0f64..100.0, 1..50)) {
            let mut b = SmartBattery::new(1_000_000.0);
            for d in draws {
                b.draw(d).unwrap();
                let exact = b.remaining_exact_mwh();
                let read = b.reading_mwh() as f64;
                prop_assert!(read <= exact + 1e-9);
                prop_assert!(exact - read < 1.0);
            }
        }
    }
}
