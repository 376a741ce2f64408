//! Battery-life estimation — how long a cluster of battery-powered nodes
//! can sustain a workload, the operational question behind the paper's
//! DC-powered methodology.

use mpi_sim::RunResult;
use power_model::battery::J_PER_MWH;

/// Estimated battery life, in seconds, of the *worst* (hungriest) node
/// when each node runs from a pack of `capacity_mwh`, assuming the run's
/// average per-node power is sustained. `None` for zero-power runs.
pub fn battery_life_secs(result: &RunResult, capacity_mwh: f64) -> Option<f64> {
    assert!(capacity_mwh > 0.0);
    let duration = result.duration_secs();
    if duration <= 0.0 {
        return None;
    }
    let worst_power = result
        .per_node
        .iter()
        .map(|r| r.total_j() / duration)
        .fold(0.0f64, f64::max);
    if worst_power <= 0.0 {
        None
    } else {
        Some(capacity_mwh * J_PER_MWH / worst_power)
    }
}

/// How many complete runs of this workload a full pack supports on the
/// hungriest node (the paper's iterate-until-measurable protocol in
/// reverse). Zero-energy runs return `None`.
pub fn runs_per_charge(result: &RunResult, capacity_mwh: f64) -> Option<f64> {
    let life = battery_life_secs(result, capacity_mwh)?;
    Some(life / result.duration_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::RankBreakdown;
    use power_model::EnergyReport;
    use sim_core::SimDuration;

    fn run_at(power_w: f64, secs: f64) -> RunResult {
        RunResult {
            duration: SimDuration::from_secs_f64(secs),
            per_node: vec![EnergyReport {
                base_j: power_w * secs,
                ..EnergyReport::default()
            }],
            total: EnergyReport {
                base_j: power_w * secs,
                ..EnergyReport::default()
            },
            breakdown: vec![RankBreakdown::default()],
            transitions: vec![0],
            ..RunResult::default()
        }
    }

    #[test]
    fn life_is_capacity_over_power() {
        // 72 Wh at 36 W -> 2 hours.
        let r = run_at(36.0, 100.0);
        let life = battery_life_secs(&r, 72_000.0).unwrap();
        assert!((life - 7200.0).abs() < 1e-6);
    }

    #[test]
    fn slower_point_lives_longer() {
        let fast = run_at(30.0, 100.0);
        let slow = run_at(18.0, 110.0);
        let lf = battery_life_secs(&fast, 72_000.0).unwrap();
        let ls = battery_life_secs(&slow, 72_000.0).unwrap();
        assert!(ls > lf);
        // But per-*run* economics can differ: check runs_per_charge.
        let rf = runs_per_charge(&fast, 72_000.0).unwrap();
        let rs = runs_per_charge(&slow, 72_000.0).unwrap();
        assert!(rs > rf, "less energy per run -> more runs per charge");
    }

    #[test]
    fn degenerate_runs_return_none() {
        let r = run_at(0.0, 100.0);
        assert!(battery_life_secs(&r, 72_000.0).is_none());
        let mut z = run_at(30.0, 100.0);
        z.duration = SimDuration::ZERO;
        assert!(battery_life_secs(&z, 72_000.0).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = battery_life_secs(&run_at(30.0, 1.0), 0.0);
    }
}
