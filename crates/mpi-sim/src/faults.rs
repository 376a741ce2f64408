//! Engine-side runtime for the fault specs in [`sim_core::faults`].
//!
//! The runtime is only constructed when at least one fault is armed
//! (`Engine::new` keeps `None` for an empty spec), so fault support costs
//! the fault-free hot path nothing beyond a single `Option` check per
//! hook, and an empty spec stays bit-identical to a build without fault
//! injection.
//!
//! All randomness comes from [`DetRng`] streams forked off
//! [`FaultSpec::seed`]: one stream for cluster-wide draws (sampling-window
//! skips) and one per node (DVFS failures, battery noise). Because draws
//! happen at engine events — which are totally ordered by the
//! deterministic event queue — the same spec and seed reproduce the same
//! faults on any worker-thread count.

use net_model::FluidNetwork;
use sim_core::float::exact_eq;
use sim_core::{DetRng, Fault, FaultCounts, FaultSpec, SimDuration, SimTime};

/// Per-node fault state plus RNG streams, built once per run.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    /// Compute-cycle multiplier per node (1.0 = healthy).
    slowdown: Vec<f64>,
    /// Probability a DVFS transition request is dropped, per node.
    dvfs_fail_p: Vec<f64>,
    /// DVFS transition latency multiplier per node (1.0 = nominal).
    dvfs_latency: Vec<f64>,
    /// Simulated time after which the node's battery register is stuck.
    battery_stuck_at: Vec<Option<SimTime>>,
    /// Max battery-reading perturbation per node, mWh (0 = clean).
    battery_noise: Vec<u64>,
    /// Sampled-power multiplier per node (1.0 = calibrated meter).
    meter_bias: Vec<f64>,
    /// Probability each periodic sampling window is skipped.
    sample_skip_p: f64,
    /// Cluster-wide draws (sampling-window skips).
    rng_cluster: DetRng,
    /// Per-node draws (DVFS failures, battery noise).
    rng_node: Vec<DetRng>,
}

impl FaultRuntime {
    /// Build the runtime for `spec` over a cluster of `nodes` nodes,
    /// applying startup-time faults (degraded links) to `network` and
    /// recording them in `counts`. Returns `None` for an empty spec.
    ///
    /// Panics when a fault targets a node outside the cluster — a spec
    /// bug the caller should hear about loudly (and `parallel_map`
    /// converts into a per-experiment error).
    pub(crate) fn build(
        spec: &FaultSpec,
        nodes: usize,
        network: &mut FluidNetwork,
        counts: &mut FaultCounts,
    ) -> Option<Box<FaultRuntime>> {
        if spec.is_empty() {
            return None;
        }
        if let Some(max) = spec.max_node() {
            assert!(
                max < nodes,
                "fault spec targets node {max} but the cluster has {nodes} nodes"
            );
        }
        let mut rt = FaultRuntime {
            slowdown: vec![1.0; nodes],
            dvfs_fail_p: vec![0.0; nodes],
            dvfs_latency: vec![1.0; nodes],
            battery_stuck_at: vec![None; nodes],
            battery_noise: vec![0; nodes],
            meter_bias: vec![1.0; nodes],
            sample_skip_p: 0.0,
            rng_cluster: DetRng::new(spec.seed),
            rng_node: (0..nodes)
                .map(|i| DetRng::new(spec.seed).fork(1 + i as u64))
                .collect(),
        };
        for fault in &spec.faults {
            match *fault {
                Fault::ComputeSlowdown { node, factor } => rt.slowdown[node] *= factor,
                Fault::BatteryStuck { node, after_s } => {
                    let at = SimTime::ZERO + SimDuration::from_secs_f64(after_s);
                    // Two stuck faults on one node: the earlier one wins.
                    rt.battery_stuck_at[node] = Some(match rt.battery_stuck_at[node] {
                        Some(prev) => prev.min(at),
                        None => at,
                    });
                }
                Fault::BatteryNoise {
                    node,
                    amplitude_mwh,
                } => rt.battery_noise[node] += amplitude_mwh,
                Fault::MeterBias { node, factor } => rt.meter_bias[node] *= factor,
                Fault::SampleSkip { probability } => {
                    rt.sample_skip_p = (rt.sample_skip_p + probability).min(1.0)
                }
                Fault::DvfsFail { node, probability } => {
                    rt.dvfs_fail_p[node] = (rt.dvfs_fail_p[node] + probability).min(1.0)
                }
                Fault::DvfsLatency { node, factor } => rt.dvfs_latency[node] *= factor,
                Fault::DegradedLink {
                    node,
                    bandwidth_factor,
                } => {
                    network.set_link_bandwidth_factor(node, bandwidth_factor);
                    counts.degraded_links += 1;
                }
            }
        }
        Some(Box::new(rt))
    }

    /// Scale a compute segment's cycle cost by the node's straggler
    /// factor. Scaling cycles (not wall time) keeps the engine's
    /// pause/resume cycle banking across DVFS transitions consistent.
    pub(crate) fn scale_compute(&self, node: usize, cycles: f64, counts: &mut FaultCounts) -> f64 {
        let factor = self.slowdown[node];
        if exact_eq(factor, 1.0) {
            return cycles;
        }
        counts.compute_slowdowns += 1;
        cycles * factor
    }

    /// Draw whether this DVFS transition request is dropped.
    pub(crate) fn dvfs_fails(&mut self, node: usize, counts: &mut FaultCounts) -> bool {
        let p = self.dvfs_fail_p[node];
        if p <= 0.0 {
            return false;
        }
        if self.rng_node[node].next_f64() < p {
            counts.dvfs_failures += 1;
            return true;
        }
        false
    }

    /// Stretch a DVFS transition's latency by the node's spike factor.
    pub(crate) fn spike_dvfs_latency(
        &self,
        node: usize,
        latency: SimDuration,
        counts: &mut FaultCounts,
    ) -> SimDuration {
        let factor = self.dvfs_latency[node];
        if exact_eq(factor, 1.0) || latency.is_zero() {
            return latency;
        }
        counts.dvfs_latency_spikes += 1;
        latency.mul_f64(factor)
    }

    /// Draw whether the current periodic sampling window is skipped.
    pub(crate) fn skip_sample(&mut self, counts: &mut FaultCounts) -> bool {
        if self.sample_skip_p <= 0.0 {
            return false;
        }
        if self.rng_cluster.next_f64() < self.sample_skip_p {
            counts.samples_skipped += 1;
            return true;
        }
        false
    }

    /// Apply the node's meter-bias factor to a sampled power value. Only
    /// the measurement tap is biased — ground-truth energy integration is
    /// untouched, which is what lets the PowerPack-style outlier filter
    /// spot the sick meter against its healthy peers.
    pub(crate) fn bias_power(&self, node: usize, watts: f64, counts: &mut FaultCounts) -> f64 {
        let factor = self.meter_bias[node];
        if exact_eq(factor, 1.0) {
            return watts;
        }
        counts.meter_biased_samples += 1;
        watts * factor
    }

    /// True once the node's battery register is stuck at `now`.
    pub(crate) fn battery_stuck(&self, node: usize, now: SimTime) -> bool {
        matches!(self.battery_stuck_at[node], Some(at) if now >= at)
    }

    /// Perturb a battery reading by the node's noise amplitude (uniform
    /// in ±amplitude, saturating at zero).
    pub(crate) fn battery_noise(
        &mut self,
        node: usize,
        reading_mwh: u64,
        counts: &mut FaultCounts,
    ) -> u64 {
        let amp = self.battery_noise[node];
        if amp == 0 {
            return reading_mwh;
        }
        counts.battery_noisy_reads += 1;
        let delta = self.rng_node[node].gen_range(0, 2 * amp + 1) as i64 - amp as i64;
        if delta >= 0 {
            reading_mwh.saturating_add(delta as u64)
        } else {
            reading_mwh.saturating_sub((-delta) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::NetworkParams;

    fn network(nodes: usize) -> FluidNetwork {
        FluidNetwork::new(NetworkParams::catalyst_2950_100m(), nodes)
    }

    #[test]
    fn empty_spec_builds_no_runtime() {
        let mut counts = FaultCounts::default();
        let rt = FaultRuntime::build(&FaultSpec::default(), 4, &mut network(4), &mut counts);
        assert!(rt.is_none());
        assert_eq!(counts.total(), 0);
    }

    #[test]
    #[should_panic(expected = "targets node 7")]
    fn out_of_range_node_is_rejected() {
        let spec = FaultSpec::parse("slow:7:2").unwrap();
        let mut counts = FaultCounts::default();
        FaultRuntime::build(&spec, 4, &mut network(4), &mut counts);
    }

    #[test]
    fn degraded_links_are_applied_and_counted_at_build() {
        let spec = FaultSpec::parse("weak-link:1:0.5,weak-link:2:0.25").unwrap();
        let mut counts = FaultCounts::default();
        let mut net = network(4);
        let rt = FaultRuntime::build(&spec, 4, &mut net, &mut counts);
        assert!(rt.is_some());
        assert_eq!(counts.degraded_links, 2);
        let id = net.start_flow(SimTime::ZERO, 0, 2, 1_000_000);
        let quarter = net.params().goodput_bytes_per_sec() * 0.25;
        assert!((net.current_rate(id).unwrap() - quarter).abs() < 1.0);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let spec = FaultSpec::parse("seed:11,dvfs-fail:0:0.5,skip-sample:0.5").unwrap();
        let run = || {
            let mut counts = FaultCounts::default();
            let mut rt = FaultRuntime::build(&spec, 2, &mut network(2), &mut counts).unwrap();
            let fails: Vec<bool> = (0..32).map(|_| rt.dvfs_fails(0, &mut counts)).collect();
            let skips: Vec<bool> = (0..32).map(|_| rt.skip_sample(&mut counts)).collect();
            (fails, skips, counts)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.2.dvfs_failures > 0 && a.2.dvfs_failures < 32);
        assert!(a.2.samples_skipped > 0 && a.2.samples_skipped < 32);
    }

    #[test]
    fn stuck_threshold_honours_time() {
        let spec = FaultSpec::parse("battery-stuck:1:10").unwrap();
        let mut counts = FaultCounts::default();
        let rt = FaultRuntime::build(&spec, 2, &mut network(2), &mut counts).unwrap();
        let t5 = SimTime::ZERO + SimDuration::from_secs(5);
        let t15 = SimTime::ZERO + SimDuration::from_secs(15);
        assert!(!rt.battery_stuck(1, t5));
        assert!(rt.battery_stuck(1, t15));
        assert!(!rt.battery_stuck(0, t15), "only the faulted node sticks");
    }

    #[test]
    fn noise_stays_within_amplitude() {
        let spec = FaultSpec::parse("battery-noise:0:5").unwrap();
        let mut counts = FaultCounts::default();
        let mut rt = FaultRuntime::build(&spec, 1, &mut network(1), &mut counts).unwrap();
        let mut seen_change = false;
        for _ in 0..64 {
            let r = rt.battery_noise(0, 1000, &mut counts);
            assert!((995..=1005).contains(&r), "{r}");
            seen_change |= r != 1000;
        }
        assert!(seen_change, "amplitude 5 should perturb at least once");
        assert_eq!(counts.battery_noisy_reads, 64);
    }

    #[test]
    fn healthy_nodes_pass_through_unchanged() {
        let spec = FaultSpec::parse("slow:1:2,meter-bias:1:1.5,dvfs-latency:1:3").unwrap();
        let mut counts = FaultCounts::default();
        let mut rt = FaultRuntime::build(&spec, 2, &mut network(2), &mut counts).unwrap();
        // Node 0 is healthy: every hook is the identity and counts nothing.
        assert_eq!(
            rt.scale_compute(0, 123.0, &mut counts).to_bits(),
            123.0f64.to_bits()
        );
        assert_eq!(
            rt.bias_power(0, 30.0, &mut counts).to_bits(),
            30.0f64.to_bits()
        );
        let lat = SimDuration::from_micros(10);
        assert_eq!(rt.spike_dvfs_latency(0, lat, &mut counts), lat);
        assert!(!rt.dvfs_fails(0, &mut counts));
        assert_eq!(counts.total(), 0);
        // Node 1 is faulted on all three.
        assert_eq!(rt.scale_compute(1, 100.0, &mut counts), 200.0);
        assert_eq!(
            rt.spike_dvfs_latency(1, lat, &mut counts),
            SimDuration::from_micros(30)
        );
        assert_eq!(rt.bias_power(1, 30.0, &mut counts), 45.0);
        assert_eq!(counts.total(), 3);
    }
}
