//! ACPI smart-battery energy measurement (`libbattery.a`).
//!
//! The battery registers refresh every 15–20 seconds and report whole mWh.
//! The paper measures a run's energy as `(reading_before - reading_after)
//! × 3.6 J` per node, which is why it runs long problems or iterates
//! executions: the quantization and refresh error amortize over minutes.
//!
//! [`AcpiPoller`] replays an engine sample log the way the ACPI interface
//! would have exposed it: a reading taken at time `t` returns the battery
//! state at the last refresh boundary at or before `t`.

use mpi_sim::SampleRow;
use power_model::battery::J_PER_MWH;
use sim_core::{SimDuration, SimTime};

/// Replays battery readings at a fixed refresh period over a sample log.
#[derive(Debug)]
pub(crate) struct AcpiPoller<'a> {
    samples: &'a [SampleRow],
    refresh: SimDuration,
}

impl<'a> AcpiPoller<'a> {
    /// A poller over `samples` (engine output, sampled at least as often
    /// as `refresh`; the paper's hardware refreshes every 15–20 s).
    pub(crate) fn new(samples: &'a [SampleRow], refresh: SimDuration) -> Self {
        assert!(!refresh.is_zero(), "refresh period must be positive");
        AcpiPoller { samples, refresh }
    }

    /// The battery reading (mWh) for `node` as ACPI would report it at
    /// `t`: the value captured at the last refresh boundary at or before
    /// `t`. `None` when no sample precedes that boundary (reading would
    /// be the pre-run full value).
    pub(crate) fn reading_at(&self, node: usize, t: SimTime) -> Option<u64> {
        let period = self.refresh.as_ps();
        let boundary = SimTime((t.0 / period) * period);
        self.samples
            .iter()
            .take_while(|s| s.time <= boundary)
            .last()
            .map(|s| s.node_battery_mwh[node])
    }
}

/// Measure each node's run energy the paper's way: difference between the
/// battery readings bracketing the run (first sample vs. the last
/// refreshed reading), in joules.
///
/// Returns one value per node; empty input yields an empty vector.
pub fn acpi_measured_energy(samples: &[SampleRow], refresh: SimDuration) -> Vec<f64> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Vec::new();
    };
    let poller = AcpiPoller::new(samples, refresh);
    let nodes = first.node_battery_mwh.len();
    let end = last.time;
    (0..nodes)
        .map(|node| {
            let before = first.node_battery_mwh[node];
            let after = poller.reading_at(node, end).unwrap_or(before);
            (before.saturating_sub(after)) as f64 * J_PER_MWH
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic sample log: one node draining `watts` for `secs` seconds,
    /// sampled every second.
    fn drain_log(watts: f64, secs: u64) -> Vec<SampleRow> {
        let full = 72_000.0f64;
        (0..=secs)
            .map(|s| {
                let drawn_j = watts * s as f64;
                SampleRow {
                    time: SimTime::from_secs(s),
                    node_power_w: vec![watts],
                    node_energy_j: vec![drawn_j],
                    node_mhz: vec![1400],
                    node_battery_mwh: vec![(full - drawn_j / J_PER_MWH).floor() as u64],
                }
            })
            .collect()
    }

    #[test]
    fn long_run_measurement_is_accurate() {
        // 30 W for 10 minutes = 18 kJ = 5000 mWh: quantization and refresh
        // staleness are sub-percent.
        let log = drain_log(30.0, 600);
        let measured = acpi_measured_energy(&log, SimDuration::from_secs(18));
        let truth = 30.0 * 600.0;
        let err = (measured[0] - truth).abs() / truth;
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn short_run_suffers_refresh_error() {
        // 30 W for 20 s: the final reading may be up to 18 s stale, losing
        // a large fraction of the energy — the reason the paper iterates
        // short codes.
        let log = drain_log(30.0, 20);
        let measured = acpi_measured_energy(&log, SimDuration::from_secs(18));
        let truth = 30.0 * 20.0;
        assert!(
            measured[0] < truth,
            "short-run ACPI measurement should undercount"
        );
        let err = (truth - measured[0]) / truth;
        assert!(err > 0.05, "expected visible refresh error, got {err}");
    }

    #[test]
    fn reading_at_respects_refresh_boundaries() {
        let log = drain_log(36.0, 100); // 10 J/s = ~2.78 mWh per second
        let p = AcpiPoller::new(&log, SimDuration::from_secs(20));
        // At t=39 s the last refresh was t=20 s.
        let r39 = p.reading_at(0, SimTime::from_secs(39)).unwrap();
        let r20 = log[20].node_battery_mwh[0];
        assert_eq!(r39, r20);
        // At t=40 s it refreshes.
        let r40 = p.reading_at(0, SimTime::from_secs(40)).unwrap();
        assert_eq!(r40, log[40].node_battery_mwh[0]);
        assert!(r40 < r39);
    }

    #[test]
    fn empty_samples_measure_nothing() {
        assert!(acpi_measured_energy(&[], SimDuration::from_secs(18)).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_refresh_rejected() {
        let log: Vec<SampleRow> = Vec::new();
        let _ = AcpiPoller::new(&log, SimDuration::ZERO);
    }
}
