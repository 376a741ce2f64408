//! Energy-delay crescendos over operating points.
//!
//! The paper's recurring plot: run one workload at each operating point,
//! normalize energy and delay to the fastest point, and watch the curves
//! "crescendo" apart as the frequency drops.

/// One operating point's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrescendoPoint {
    /// Label, by convention the frequency in MHz (or 0 for non-ladder
    /// strategies like the cpuspeed daemon).
    pub mhz: u32,
    /// Energy, joules.
    pub energy_j: f64,
    /// Delay (time-to-solution), seconds.
    pub delay_s: f64,
}

/// A series of measurements over operating points, fastest first or in any
/// order; normalization always uses the *highest-frequency* entry, as the
/// paper does.
#[derive(Debug, Clone, Default)]
pub struct Crescendo {
    points: Vec<CrescendoPoint>,
}

impl Crescendo {
    /// An empty crescendo.
    pub fn new() -> Self {
        Crescendo { points: Vec::new() }
    }

    /// Assemble a crescendo from `(mhz, energy_j, delay_s)` tuples — the
    /// shape cached sweep results come back in, so a stored ladder sweep
    /// turns into a crescendo without re-running anything.
    pub fn from_pairs(points: impl IntoIterator<Item = (u32, f64, f64)>) -> Self {
        let mut c = Crescendo::new();
        for (mhz, energy_j, delay_s) in points {
            c.push(mhz, energy_j, delay_s);
        }
        c
    }

    /// Add a measurement.
    pub fn push(&mut self, mhz: u32, energy_j: f64, delay_s: f64) {
        assert!(energy_j >= 0.0 && delay_s >= 0.0, "negative measurement");
        self.points.push(CrescendoPoint {
            mhz,
            energy_j,
            delay_s,
        });
    }

    /// Raw points in insertion order.
    pub fn points(&self) -> &[CrescendoPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no measurements were added.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The reference (highest-MHz) point. Panics when empty.
    #[expect(
        clippy::expect_used,
        reason = "the doc contract says \"Panics when empty\"; callers gate on is_empty()"
    )]
    pub fn reference(&self) -> CrescendoPoint {
        *self
            .points
            .iter()
            .max_by_key(|p| p.mhz)
            .expect("crescendo is empty")
    }

    /// `(mhz, normalized_energy, normalized_delay)` for each point, in
    /// insertion order, normalized to the reference point.
    pub fn normalized(&self) -> Vec<(u32, f64, f64)> {
        let r = self.reference();
        assert!(r.energy_j > 0.0 && r.delay_s > 0.0, "degenerate reference");
        self.points
            .iter()
            .map(|p| (p.mhz, p.energy_j / r.energy_j, p.delay_s / r.delay_s))
            .collect()
    }

    /// Normalized values for one labelled point.
    pub fn normalized_for(&self, mhz: u32) -> Option<(f64, f64)> {
        self.normalized()
            .into_iter()
            .find(|(m, _, _)| *m == mhz)
            .map(|(_, e, d)| (e, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Crescendo {
        let mut c = Crescendo::new();
        c.push(1400, 100.0, 10.0);
        c.push(1000, 80.0, 10.5);
        c.push(600, 65.0, 11.0);
        c
    }

    #[test]
    fn normalizes_to_highest_frequency() {
        let c = sample();
        let n = c.normalized();
        assert_eq!(n[0], (1400, 1.0, 1.0));
        assert!((n[2].1 - 0.65).abs() < 1e-12);
        assert!((n[2].2 - 1.1).abs() < 1e-12);
    }

    #[test]
    fn reference_found_regardless_of_order() {
        let mut c = Crescendo::new();
        c.push(600, 65.0, 11.0);
        c.push(1400, 100.0, 10.0);
        assert_eq!(c.reference().mhz, 1400);
    }

    #[test]
    fn saving_and_impact_match_paper_phrasing() {
        let c = sample();
        let (e, d) = c.normalized_for(600).unwrap();
        assert!((1.0 - e - 0.35).abs() < 1e-12); // "35% energy saved"
        assert!((d - 1.0 - 0.10).abs() < 1e-12); // "10% performance impact"
    }

    #[test]
    fn missing_label_returns_none() {
        assert!(sample().normalized_for(800).is_none());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_reference_panics() {
        Crescendo::new().reference();
    }

    #[test]
    fn len_and_is_empty() {
        assert!(Crescendo::new().is_empty());
        assert_eq!(sample().len(), 3);
    }

    #[test]
    fn from_pairs_matches_push() {
        let c = Crescendo::from_pairs([(1400, 100.0, 10.0), (1000, 80.0, 10.5), (600, 65.0, 11.0)]);
        assert_eq!(c.points(), sample().points());
    }
}
