//! Baytech remote power-strip measurement (GPML50 over SNMP).
//!
//! The paper's second, independent measurement channel: the managed power
//! strip reports per-outlet power once per minute. Coarser than ACPI in
//! time but measures wall power directly — the paper uses it to verify the
//! battery numbers. We reproduce it as minute-window averages over the
//! engine's ground-truth samples.

use mpi_sim::SampleRow;
use sim_core::SimDuration;

/// Per-outlet (node) average power in each full minute window, watts.
/// Windows are `[k·60 s, (k+1)·60 s)`; the trailing partial window is
/// dropped, as the strip only reports completed periods.
pub(crate) fn baytech_minute_averages(samples: &[SampleRow]) -> Vec<Vec<f64>> {
    minute_averages(samples, SimDuration::from_secs(60))
}

/// Generalized window averaging (exposed for tests and ablations).
pub(crate) fn minute_averages(samples: &[SampleRow], window: SimDuration) -> Vec<Vec<f64>> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let nodes = first.node_power_w.len();
    let w = window.as_ps();
    assert!(w > 0, "window must be positive");
    let mut out: Vec<Vec<f64>> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for s in samples {
        let idx = (s.time.0 / w) as usize;
        while out.len() <= idx {
            out.push(vec![0.0; nodes]);
            counts.push(0);
        }
        for (node, p) in s.node_power_w.iter().enumerate() {
            out[idx][node] += p;
        }
        counts[idx] += 1;
    }
    // Drop the final (possibly partial) window; average the rest.
    if !out.is_empty() {
        out.pop();
        counts.pop();
    }
    for (row, c) in out.iter_mut().zip(counts) {
        if c > 0 {
            for v in row.iter_mut() {
                *v /= c as f64;
            }
        }
    }
    out
}

/// Strip-measured energy per node: sum of minute averages × 60 s, joules.
/// Undercounts the trailing partial minute, as the real strip does.
pub fn baytech_energy(samples: &[SampleRow]) -> Vec<f64> {
    let windows = baytech_minute_averages(samples);
    let Some(first_window) = windows.first() else {
        return samples
            .first()
            .map(|s| vec![0.0; s.node_power_w.len()])
            .unwrap_or_default();
    };
    let nodes = first_window.len();
    (0..nodes)
        .map(|n| windows.iter().map(|w| w[n] * 60.0).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn log(powers: &[f64]) -> Vec<SampleRow> {
        powers
            .iter()
            .enumerate()
            .map(|(s, &p)| SampleRow {
                time: SimTime::from_secs(s as u64),
                node_power_w: vec![p],
                node_energy_j: vec![0.0],
                node_mhz: vec![1400],
                node_battery_mwh: vec![0],
            })
            .collect()
    }

    #[test]
    fn constant_power_averages_exactly() {
        let samples = log(&[25.0; 180]); // 3 minutes at 25 W
        let windows = baytech_minute_averages(&samples);
        assert_eq!(windows.len(), 2, "partial last window dropped");
        for w in &windows {
            assert!((w[0] - 25.0).abs() < 1e-12);
        }
    }

    #[test]
    fn energy_matches_power_for_full_windows() {
        let samples = log(&[30.0; 121]); // exactly 2 full windows + 1 sample
        let e = baytech_energy(&samples);
        assert!((e[0] - 2.0 * 60.0 * 30.0).abs() < 1e-9);
    }

    #[test]
    fn step_change_lands_in_correct_window() {
        let mut powers = vec![10.0; 60];
        powers.extend(vec![40.0; 61]);
        let windows = baytech_minute_averages(&log(&powers));
        assert_eq!(windows.len(), 2);
        assert!((windows[0][0] - 10.0).abs() < 1e-12);
        assert!((windows[1][0] - 40.0).abs() < 1e-12);
    }

    #[test]
    fn sub_minute_run_reports_nothing() {
        let samples = log(&[30.0; 30]);
        assert!(baytech_minute_averages(&samples).is_empty());
        assert_eq!(baytech_energy(&samples), vec![0.0]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(baytech_minute_averages(&[]).is_empty());
        assert!(baytech_energy(&[]).is_empty());
    }
}
