//! Timestamp-driven profile alignment.
//!
//! The paper: "we created software to filter and align data sets from
//! individual nodes for use in power and performance analysis". In the
//! simulation every node shares one clock, so alignment reduces to
//! aggregations over the engine's sample rows — but the interfaces mirror
//! the real tool's outputs: cluster power profiles and per-node averages.

use mpi_sim::SampleRow;
use sim_core::SimTime;

/// Cluster-wide power profile: `(time, total watts)` per sample.
#[must_use]
pub fn aligned_cluster_power(samples: &[SampleRow]) -> Vec<(SimTime, f64)> {
    samples
        .iter()
        .map(|s| (s.time, s.node_power_w.iter().sum()))
        .collect()
}

/// Time-average power of each node over the sampled window, watts.
pub fn node_average_power(samples: &[SampleRow]) -> Vec<f64> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let nodes = first.node_power_w.len();
    let mut sums = vec![0.0f64; nodes];
    for s in samples {
        for (i, p) in s.node_power_w.iter().enumerate() {
            sums[i] += p;
        }
    }
    for v in &mut sums {
        *v /= samples.len() as f64;
    }
    sums
}

/// The node whose average power deviates most from the cluster mean, with
/// its deviation — the paper's outlier filter applied spatially (a node
/// with a sick battery or meter shows up here).
pub fn most_deviant_node(samples: &[SampleRow]) -> Option<(usize, f64)> {
    let avgs = node_average_power(samples);
    if avgs.is_empty() {
        return None;
    }
    let mean: f64 = avgs.iter().sum::<f64>() / avgs.len() as f64;
    avgs.iter()
        .enumerate()
        .map(|(i, &p)| (i, (p - mean).abs()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Nodes whose time-average power deviates from the cluster mean by more
/// than `rel_threshold` (a fraction of that mean, e.g. `0.25`). This is
/// the decision rule behind the paper's data filtering: a node with a
/// stuck battery, biased meter, or injected fault reads far enough from
/// its peers that its profile should not pollute cluster aggregates.
pub(crate) fn outlier_nodes(samples: &[SampleRow], rel_threshold: f64) -> Vec<usize> {
    let avgs = node_average_power(samples);
    if avgs.is_empty() {
        return Vec::new();
    }
    let mean: f64 = avgs.iter().sum::<f64>() / avgs.len() as f64;
    if mean.is_nan() || mean <= 0.0 {
        return Vec::new();
    }
    avgs.iter()
        .enumerate()
        .filter(|&(_, &p)| (p - mean).abs() / mean > rel_threshold)
        .map(|(i, _)| i)
        .collect()
}

/// [`aligned_cluster_power`] with outlier nodes actually excluded from the
/// aggregate: returns the filtered `(time, total watts)` profile plus the
/// node indices that were dropped (per `outlier_nodes` at
/// `rel_threshold`). With no outliers the profile is bit-identical to the
/// unfiltered one.
#[must_use]
pub fn aligned_cluster_power_filtered(
    samples: &[SampleRow],
    rel_threshold: f64,
) -> (Vec<(SimTime, f64)>, Vec<usize>) {
    let excluded = outlier_nodes(samples, rel_threshold);
    if excluded.is_empty() {
        return (aligned_cluster_power(samples), excluded);
    }
    let profile = samples
        .iter()
        .map(|s| {
            let total = s
                .node_power_w
                .iter()
                .enumerate()
                .filter(|(i, _)| !excluded.contains(i))
                .map(|(_, p)| p)
                .sum();
            (s.time, total)
        })
        .collect();
    (profile, excluded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: u64, powers: Vec<f64>) -> SampleRow {
        SampleRow {
            time: SimTime::from_secs(t),
            node_energy_j: vec![0.0; powers.len()],
            node_mhz: vec![1400; powers.len()],
            node_battery_mwh: vec![0; powers.len()],
            node_power_w: powers,
        }
    }

    #[test]
    fn cluster_power_sums_nodes() {
        let samples = vec![row(0, vec![10.0, 20.0]), row(1, vec![12.0, 18.0])];
        let profile = aligned_cluster_power(&samples);
        assert_eq!(profile.len(), 2);
        assert!((profile[0].1 - 30.0).abs() < 1e-12);
        assert!((profile[1].1 - 30.0).abs() < 1e-12);
    }

    #[test]
    fn node_averages_are_per_node_means() {
        let samples = vec![row(0, vec![10.0, 30.0]), row(1, vec![20.0, 30.0])];
        let avg = node_average_power(&samples);
        assert!((avg[0] - 15.0).abs() < 1e-12);
        assert!((avg[1] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn deviant_node_identified() {
        let samples = vec![
            row(0, vec![30.0, 30.0, 55.0]),
            row(1, vec![30.0, 30.0, 55.0]),
        ];
        let (node, dev) = most_deviant_node(&samples).unwrap();
        assert_eq!(node, 2);
        assert!(dev > 10.0);
    }

    #[test]
    fn empty_inputs_are_empty() {
        assert!(aligned_cluster_power(&[]).is_empty());
        assert!(node_average_power(&[]).is_empty());
        assert!(most_deviant_node(&[]).is_none());
    }

    #[test]
    fn outlier_nodes_flags_deviant_meter() {
        let samples = vec![
            row(0, vec![30.0, 30.0, 60.0]),
            row(1, vec![30.0, 30.0, 60.0]),
        ];
        assert_eq!(outlier_nodes(&samples, 0.25), vec![2]);
        assert!(outlier_nodes(&samples, 2.0).is_empty());
        assert!(outlier_nodes(&[], 0.25).is_empty());
    }

    #[test]
    fn filtered_cluster_power_excludes_outliers() {
        let samples = vec![
            row(0, vec![30.0, 30.0, 60.0]),
            row(1, vec![30.0, 30.0, 60.0]),
        ];
        let (profile, excluded) = aligned_cluster_power_filtered(&samples, 0.25);
        assert_eq!(excluded, vec![2]);
        assert!((profile[0].1 - 60.0).abs() < 1e-12);
        assert!((profile[1].1 - 60.0).abs() < 1e-12);
        // No outliers => bit-identical to the unfiltered profile.
        let healthy = vec![row(0, vec![30.0, 31.0]), row(1, vec![31.0, 30.0])];
        let (p, e) = aligned_cluster_power_filtered(&healthy, 0.25);
        assert!(e.is_empty());
        assert_eq!(p, aligned_cluster_power(&healthy));
    }
}
