//! The paper's repeatability protocol.
//!
//! Before every measurement the authors (1) fully charge all batteries,
//! (2) disconnect wall power, (3) let the system discharge ~5 minutes to
//! stabilize, then (4) run; and they repeat each experiment at least three
//! times, discarding outliers. [`ExperimentProtocol`] reproduces the
//! statistical half: repeated runs, mean/σ, and 2σ outlier flagging.

use mpi_sim::RunResult;
use sim_core::OnlineStats;

/// Protocol configuration.
#[derive(Debug, Clone)]
pub struct ExperimentProtocol {
    /// Number of repetitions ("at least 3 times or more").
    pub(crate) repetitions: usize,
    /// Z-score beyond which a run is flagged as an outlier.
    pub(crate) outlier_sigma: f64,
}

impl Default for ExperimentProtocol {
    fn default() -> Self {
        ExperimentProtocol {
            repetitions: 3,
            outlier_sigma: 2.0,
        }
    }
}

/// Aggregated protocol outcome.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// Total-energy samples per repetition, joules.
    pub energies_j: Vec<f64>,
    /// Mean energy over non-outlier runs.
    pub mean_energy_j: f64,
    /// Mean duration over non-outlier runs.
    pub mean_duration_s: f64,
    /// Indices of runs flagged as outliers (by energy).
    pub outliers: Vec<usize>,
}

impl ExperimentProtocol {
    /// Execute `run` `repetitions` times (the closure receives the
    /// repetition index so callers can vary seeds the way a real rerun
    /// perturbs the machine) and aggregate.
    pub fn execute(&self, mut run: impl FnMut(usize) -> RunResult) -> ProtocolOutcome {
        assert!(self.repetitions >= 1, "protocol needs at least one run");
        let results: Vec<RunResult> = (0..self.repetitions).map(&mut run).collect();
        let energies: Vec<f64> = results.iter().map(|r| r.total_energy_j()).collect();
        let durations: Vec<f64> = results.iter().map(|r| r.duration_secs()).collect();

        let mut stats = OnlineStats::new();
        for &e in &energies {
            stats.push(e);
        }
        let sigma = stats.stddev();
        let outliers: Vec<usize> = if sigma > 0.0 {
            energies
                .iter()
                .enumerate()
                .filter(|(_, &e)| ((e - stats.mean()) / sigma).abs() > self.outlier_sigma)
                .map(|(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };

        let keep = |i: &usize| !outliers.contains(i);
        let kept: Vec<usize> = (0..self.repetitions).filter(keep).collect();
        let mean_energy = kept.iter().map(|&i| energies[i]).sum::<f64>() / kept.len() as f64;
        let mean_duration = kept.iter().map(|&i| durations[i]).sum::<f64>() / kept.len() as f64;

        ProtocolOutcome {
            energies_j: energies,
            mean_energy_j: mean_energy,
            mean_duration_s: mean_duration,
            outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::EnergyReport;
    use sim_core::SimDuration;

    fn fake_run(energy: f64, secs: f64) -> RunResult {
        RunResult {
            duration: SimDuration::from_secs_f64(secs),
            per_node: vec![],
            total: EnergyReport {
                base_j: energy,
                ..EnergyReport::default()
            },
            breakdown: vec![],
            transitions: vec![],
            samples: vec![],
            trace: vec![],
            trace_dropped: 0,
            freq_residency: vec![],
            events: 0,
            faults: Default::default(),
            metrics: None,
            causal: None,
            attribution: None,
        }
    }

    #[test]
    fn aggregates_identical_runs() {
        let outcome = ExperimentProtocol::default().execute(|_| fake_run(100.0, 10.0));
        assert_eq!(outcome.energies_j, vec![100.0; 3]);
        assert!(outcome.outliers.is_empty());
        assert!((outcome.mean_energy_j - 100.0).abs() < 1e-12);
        assert!((outcome.mean_duration_s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn flags_gross_outlier() {
        let energies = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.2, 500.0];
        let p = ExperimentProtocol {
            repetitions: energies.len(),
            outlier_sigma: 2.0,
        };
        let outcome = p.execute(|i| fake_run(energies[i], 10.0));
        assert_eq!(outcome.outliers, vec![8]);
        assert!(
            (outcome.mean_energy_j - 100.025).abs() < 0.1,
            "outlier excluded from mean: {}",
            outcome.mean_energy_j
        );
    }

    #[test]
    fn run_index_is_passed_through() {
        let p = ExperimentProtocol {
            repetitions: 4,
            outlier_sigma: 10.0,
        };
        let outcome = p.execute(|i| fake_run(100.0 + i as f64, 10.0));
        assert_eq!(outcome.energies_j, vec![100.0, 101.0, 102.0, 103.0]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_repetitions_rejected() {
        let p = ExperimentProtocol {
            repetitions: 0,
            outlier_sigma: 2.0,
        };
        let _ = p.execute(|_| fake_run(1.0, 1.0));
    }
}
