//! Best-operating-point selection (the paper's Equation 6).

use crate::crescendo::Crescendo;
use crate::weighted::{weighted_ed2p, Delta};

/// The operating point (by MHz label) minimizing weighted ED²P under `∂`,
/// evaluated on normalized energy/delay. Ties resolve to the *faster*
/// point (matching the paper's tables, where equal-metric points report
/// the higher frequency). Returns `None` for an empty crescendo.
pub fn best_operating_point(crescendo: &Crescendo, delta: Delta) -> Option<u32> {
    let normalized = if crescendo.is_empty() {
        return None;
    } else {
        crescendo.normalized()
    };
    normalized
        .into_iter()
        .map(|(mhz, e, d)| (mhz, weighted_ed2p(e, d, delta)))
        .min_by(|a, b| {
            a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)) // prefer higher MHz on ties
        })
        .map(|(mhz, _)| mhz)
}

/// How much more efficient the best point is than the fastest point, as a
/// fraction: `1 - wED2P(best)/wED2P(reference)`. The paper reports this as
/// e.g. "16.9% higher \[efficiency\] than the maximum frequency".
pub fn efficiency_gain(crescendo: &Crescendo, delta: Delta) -> f64 {
    let Some(best) = best_operating_point(crescendo, delta) else {
        return 0.0;
    };
    let reference_mhz = crescendo.reference().mhz;
    let n = crescendo.normalized();
    #[expect(
        clippy::expect_used,
        reason = "both probed frequencies come from this same crescendo's normalized() rows"
    )]
    let metric = |mhz: u32| {
        n.iter()
            .find(|(m, _, _)| *m == mhz)
            .map(|(_, e, d)| weighted_ed2p(*e, *d, delta))
            .expect("label from this crescendo")
    };
    let reference = metric(reference_mhz);
    if reference <= 0.0 {
        0.0
    } else {
        1.0 - metric(best) / reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::{DELTA_ENERGY, DELTA_HPC, DELTA_PERFORMANCE};

    /// A swim-like crescendo: big energy savings, mild slowdowns.
    fn swim_like() -> Crescendo {
        let mut c = Crescendo::new();
        c.push(1400, 100.0, 10.0);
        c.push(1200, 85.0, 10.3);
        c.push(1000, 73.0, 10.8);
        c.push(800, 63.0, 11.5);
        c.push(600, 55.0, 12.8);
        c
    }

    /// An mgrid-like crescendo: little energy saved, delay explodes.
    fn mgrid_like() -> Crescendo {
        let mut c = Crescendo::new();
        c.push(1400, 100.0, 10.0);
        c.push(1200, 97.0, 11.6);
        c.push(1000, 95.0, 13.9);
        c.push(800, 94.0, 17.4);
        c.push(600, 96.0, 23.2);
        c
    }

    #[test]
    fn performance_delta_always_picks_fastest() {
        assert_eq!(
            best_operating_point(&swim_like(), DELTA_PERFORMANCE),
            Some(1400)
        );
        assert_eq!(
            best_operating_point(&mgrid_like(), DELTA_PERFORMANCE),
            Some(1400)
        );
    }

    #[test]
    fn energy_delta_picks_lowest_energy_point() {
        assert_eq!(best_operating_point(&swim_like(), DELTA_ENERGY), Some(600));
        // mgrid's energy minimum is at 800 MHz, not the bottom.
        assert_eq!(best_operating_point(&mgrid_like(), DELTA_ENERGY), Some(800));
    }

    #[test]
    fn hpc_delta_discriminates_applications() {
        // Memory-bound swim rewards slowing down; CPU-bound mgrid does not.
        let swim = best_operating_point(&swim_like(), DELTA_HPC).unwrap();
        let mgrid = best_operating_point(&mgrid_like(), DELTA_HPC).unwrap();
        assert!(swim <= 1000, "swim best {swim}");
        assert_eq!(mgrid, 1400);
    }

    #[test]
    fn efficiency_gain_positive_when_slowing_wins() {
        let g = efficiency_gain(&swim_like(), DELTA_HPC);
        assert!(g > 0.0 && g < 1.0, "gain {g}");
        // mgrid: fastest is best, gain is zero.
        assert_eq!(efficiency_gain(&mgrid_like(), DELTA_HPC), 0.0);
    }

    #[test]
    fn empty_crescendo_yields_none() {
        assert_eq!(best_operating_point(&Crescendo::new(), 0.0), None);
        assert_eq!(efficiency_gain(&Crescendo::new(), 0.0), 0.0);
    }

    #[test]
    fn tie_prefers_faster_point() {
        let mut c = Crescendo::new();
        c.push(1400, 100.0, 10.0);
        c.push(700, 100.0, 10.0); // identical metric
        assert_eq!(best_operating_point(&c, 0.0), Some(1400));
    }
}
