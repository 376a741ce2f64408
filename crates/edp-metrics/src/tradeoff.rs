//! Iso-efficiency tradeoff curves (the paper's Figure 2).
//!
//! Figure 2 plots, for each weight factor `∂`, the *energy fraction*
//! (y-axis, as a percentage) a slower operating point must stay under to
//! break even with the fastest point, against the delay factor (x-axis).
//! The curve is the equality locus of weighted ED²P:
//! `E_frac = delay_factor^(-2(1+∂)/(1-∂))`.

use crate::weighted::Delta;

/// Energy fraction at which a point with `delay_factor ≥ 1` has the same
/// weighted ED²P as the reference: below the curve the slow point wins.
/// At `∂ = 1` the curve is 0 for any slowdown (performance-only users
/// never accept one) and 1 at `delay_factor = 1`.
pub fn iso_efficiency_energy_fraction(delay_factor: f64, delta: Delta) -> f64 {
    assert!(delay_factor >= 1.0, "delay factor must be >= 1");
    assert!((-1.0..=1.0).contains(&delta), "delta out of range");
    if delta >= 1.0 {
        return if delay_factor > 1.0 { 0.0 } else { 1.0 };
    }
    let exponent = -2.0 * (1.0 + delta) / (1.0 - delta);
    delay_factor.powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_callout_point() {
        // "for the line ∂=.4, if 10% performance degradation is acceptable
        //  (x=1.1) then about 32% energy must be saved (y=68%)". The paper
        // reads y off its chart; the exact Equation-5 locus gives
        // 1.1^(-2·1.4/0.6) = 0.64, within chart-reading distance.
        let y = iso_efficiency_energy_fraction(1.1, 0.4);
        assert!((y - 0.64).abs() < 0.05, "y = {y}");
    }

    #[test]
    fn delta_zero_is_inverse_square() {
        // Plain ED2P: E_frac = x^-2.
        let y = iso_efficiency_energy_fraction(2.0, 0.0);
        assert!((y - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delta_minus_one_is_flat() {
        // Energy-only (E²): exponent -2(1+(-1))/(1-(-1)) = 0, so the curve
        // is flat at 1 — any energy saving at all justifies any slowdown.
        let y = iso_efficiency_energy_fraction(1.5, -1.0);
        assert!((y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn performance_only_rejects_everything() {
        assert_eq!(iso_efficiency_energy_fraction(1.001, 1.0), 0.0);
        assert_eq!(iso_efficiency_energy_fraction(1.0, 1.0), 1.0);
    }

    proptest! {
        /// Curves for larger ∂ lie strictly below (stricter) for x > 1.
        #[test]
        fn prop_larger_delta_is_stricter(x in 1.01f64..2.0, d1 in -0.9f64..0.9, d2 in -0.9f64..0.9) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(
                iso_efficiency_energy_fraction(x, hi) <= iso_efficiency_energy_fraction(x, lo) + 1e-12
            );
        }

        /// The curve is nonincreasing in the delay factor.
        #[test]
        fn prop_monotone_in_delay(d in -0.9f64..0.9) {
            let mut prev = f64::INFINITY;
            for i in 0..20 {
                let x = 1.0 + i as f64 * 0.05;
                let y = iso_efficiency_energy_fraction(x, d);
                prop_assert!(y <= prev + 1e-12);
                prev = y;
            }
        }
    }
}
