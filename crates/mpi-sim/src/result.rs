//! Simulation outputs.

use obs::{MetricsRegistry, RunAttribution};
use power_model::EnergyReport;
use sim_core::{CausalLog, FaultCounts, SimDuration, SimTime, TraceEvent};

/// One periodic sample of cluster state (the engine's measurement tap;
/// the `powerpack` crate turns these into ACPI/Baytech-style readings).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Sample timestamp.
    pub time: SimTime,
    /// Instantaneous per-node power, watts.
    pub node_power_w: Vec<f64>,
    /// Cumulative per-node ground-truth energy, joules.
    pub node_energy_j: Vec<f64>,
    /// Per-node operating frequency, MHz.
    pub node_mhz: Vec<u32>,
    /// Per-node quantized ACPI battery reading, mWh.
    pub node_battery_mwh: Vec<u64>,
}

/// Where one rank's wall-clock time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankBreakdown {
    /// CPU-active compute (frequency-scaled work).
    pub compute: SimDuration,
    /// Stalled on DRAM.
    pub mem_stall: SimDuration,
    /// Busy-wait polling for messages.
    pub wait_busy: SimDuration,
    /// Blocked (idle) waiting for messages.
    pub wait_blocked: SimDuration,
    /// Stalled in DVFS transitions.
    pub transition: SimDuration,
}

impl RankBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> SimDuration {
        self.compute + self.mem_stall + self.wait_busy + self.wait_blocked + self.transition
    }

    /// Fraction of accounted time spent in frequency-scaled compute —
    /// the "CPU efficiency" whose deficit is the paper's DVS opportunity.
    pub fn compute_fraction(&self) -> f64 {
        self.compute.ratio(self.total())
    }
}

/// The result of one simulated application run. The default is an empty
/// run that recorded nothing.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use]
pub struct RunResult {
    /// Wall-clock time from start to the last rank's completion.
    pub duration: SimDuration,
    /// Per-node energy by component over the run.
    pub per_node: Vec<EnergyReport>,
    /// Cluster-wide energy by component.
    pub total: EnergyReport,
    /// Per-rank time breakdown.
    pub breakdown: Vec<RankBreakdown>,
    /// DVFS transitions performed per node.
    pub transitions: Vec<u64>,
    /// Periodic samples (empty unless sampling was enabled).
    pub samples: Vec<SampleRow>,
    /// Structured trace (phase markers, frequency changes, message
    /// lifecycles); empty unless `trace_capacity` was set.
    pub trace: Vec<TraceEvent>,
    /// Events the bounded trace discarded under capacity pressure. The
    /// retained `trace` plus this count covers every record attempt.
    pub trace_dropped: u64,
    /// Per-node cpufreq `time_in_state`: `(mhz, residency)` per ladder
    /// point, summing to the run duration.
    pub freq_residency: Vec<Vec<(u32, SimDuration)>>,
    /// Discrete events the engine dispatched during the run — the
    /// simulator's work metric (events / wall-clock second is the
    /// benchmark throughput figure).
    pub events: u64,
    /// How many faults the engine injected (and measurement errors it
    /// degraded) during the run. All-zero unless
    /// [`crate::EngineConfig::faults`] armed something.
    pub faults: FaultCounts,
    /// PowerScope metrics collected during the run; `None` unless
    /// [`crate::EngineConfig::metrics`] was set.
    pub metrics: Option<MetricsRegistry>,
    /// Causal dependency log (message lifecycles, released waits with
    /// their releasing completions, DVFS edges); `None` unless
    /// [`crate::EngineConfig::causal`] was set.
    pub causal: Option<CausalLog>,
    /// Critical-path and per-rank time/energy attribution computed from
    /// the causal log at finalize; `None` unless
    /// [`crate::EngineConfig::causal`] was set.
    pub attribution: Option<RunAttribution>,
}

impl RunResult {
    /// Total cluster energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.total.total_j()
    }

    /// Run duration, seconds.
    pub fn duration_secs(&self) -> f64 {
        self.duration.as_secs_f64()
    }

    /// Cluster-average power over the run, watts.
    pub fn average_power_w(&self) -> f64 {
        let d = self.duration_secs();
        if d <= 0.0 {
            0.0
        } else {
            self.total_energy_j() / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fraction() {
        let b = RankBreakdown {
            compute: SimDuration::from_secs(2),
            mem_stall: SimDuration::from_secs(1),
            wait_busy: SimDuration::from_secs(5),
            wait_blocked: SimDuration::ZERO,
            transition: SimDuration::ZERO,
        };
        assert_eq!(b.total(), SimDuration::from_secs(8));
        assert!((b.compute_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn run_result_derived_metrics() {
        let r = RunResult {
            duration: SimDuration::from_secs(10),
            total: EnergyReport {
                base_j: 300.0,
                ..EnergyReport::default()
            },
            ..RunResult::default()
        };
        assert_eq!(r.total_energy_j(), 300.0);
        assert_eq!(r.duration_secs(), 10.0);
        assert_eq!(r.average_power_w(), 30.0);
    }

    #[test]
    fn zero_duration_average_power_is_zero() {
        let r = RunResult {
            duration: SimDuration::ZERO,
            ..RunResult::default()
        };
        assert_eq!(r.average_power_w(), 0.0);
    }
}
