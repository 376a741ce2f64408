//! Plain-text tables for the figure/table regenerators.

use edp_metrics::{
    best_operating_point, weighted_ed2p, Crescendo, DELTA_ENERGY, DELTA_HPC, DELTA_PERFORMANCE,
};

/// Render a crescendo as the paper's normalized energy/delay series, with
/// the weighted-ED²P column for the HPC weight.
pub fn format_crescendo(title: &str, crescendo: &Crescendo) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:>8} {:>12} {:>10} {:>8} {:>8} {:>12}\n",
        "MHz", "energy(J)", "delay(s)", "E/E0", "D/D0", "wED2P(HPC)"
    ));
    let normalized = crescendo.normalized();
    for (point, (mhz, e_n, d_n)) in crescendo.points().iter().zip(normalized) {
        out.push_str(&format!(
            "{:>8} {:>12.1} {:>10.3} {:>8.3} {:>8.3} {:>12.3}\n",
            mhz,
            point.energy_j,
            point.delay_s,
            e_n,
            d_n,
            weighted_ed2p(e_n, d_n, DELTA_HPC)
        ));
    }
    out
}

/// Render the paper's best-operating-point tables (Tables 1 and 3).
pub fn format_best_points(rows: &[(&str, &Crescendo)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>28} {:>8} {:>8} {:>12}\n",
        "workload", "HPC", "energy", "performance"
    ));
    for (name, crescendo) in rows {
        let pick = |delta| {
            best_operating_point(crescendo, delta)
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        out.push_str(&format!(
            "{:>28} {:>8} {:>8} {:>12}\n",
            name,
            pick(DELTA_HPC),
            pick(DELTA_ENERGY),
            pick(DELTA_PERFORMANCE),
        ));
    }
    out
}

/// Render a strategy-comparison series (the paper's Figures 4 and 5):
/// absolute and normalized energy/delay per labelled strategy, normalized
/// to `reference_label`'s row.
pub fn format_strategy_comparison(
    title: &str,
    rows: &[(String, f64, f64)],
    reference_label: &str,
) -> String {
    #[expect(
        clippy::panic,
        reason = "report formatting is CLI-side, not engine; a missing reference label is caller misuse worth failing loudly"
    )]
    let reference = rows
        .iter()
        .find(|(l, _, _)| l == reference_label)
        .unwrap_or_else(|| panic!("reference row '{reference_label}' missing"));
    let (_, e0, d0) = reference.clone();
    let mut out = String::new();
    out.push_str(&format!("## {title} (reference: {reference_label})\n"));
    out.push_str(&format!(
        "{:>16} {:>12} {:>10} {:>8} {:>8}\n",
        "strategy", "energy(J)", "delay(s)", "E/E0", "D/D0"
    ));
    for (label, e, d) in rows {
        out.push_str(&format!(
            "{:>16} {:>12.1} {:>10.3} {:>8.3} {:>8.3}\n",
            label,
            e,
            d,
            e / e0,
            d / d0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Crescendo {
        let mut c = Crescendo::new();
        c.push(1400, 100.0, 10.0);
        c.push(600, 70.0, 11.0);
        c
    }

    #[test]
    fn crescendo_table_has_all_rows() {
        let s = format_crescendo("test", &sample());
        assert!(s.contains("1400"));
        assert!(s.contains("600"));
        assert!(s.contains("wED2P"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn best_points_table_prints_three_deltas() {
        let c = sample();
        let s = format_best_points(&[("swim", &c)]);
        assert!(s.contains("swim"));
        assert!(s.lines().count() == 2);
    }

    #[test]
    fn strategy_comparison_normalizes_to_reference() {
        let rows = vec![
            ("stat 1400MHz".to_string(), 100.0, 10.0),
            ("stat 600MHz".to_string(), 70.0, 11.0),
        ];
        let s = format_strategy_comparison("ft", &rows, "stat 1400MHz");
        assert!(s.contains("0.700"));
        assert!(s.contains("1.100"));
    }

    #[test]
    #[should_panic(expected = "reference row")]
    fn missing_reference_panics() {
        format_strategy_comparison("x", &[("a".to_string(), 1.0, 1.0)], "b");
    }
}
