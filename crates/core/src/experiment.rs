//! Experiment assembly and crescendo sweeps.

use cluster_sim::{Cluster, NodeConfig};
use edp_metrics::Crescendo;
use mpi_sim::{Engine, EngineConfig, RunResult};
use net_model::NetworkParams;
use power_model::DvfsLadder;

use crate::strategy::DvsStrategy;
use crate::workload::Workload;

/// One workload × strategy run on the paper's testbed (or a customized
/// cluster, for ablations).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// What to run.
    pub workload: Workload,
    /// How to drive DVFS.
    pub strategy: DvsStrategy,
    /// Engine knobs (eager threshold, wait policy, sampling).
    pub engine: EngineConfig,
    /// Node hardware override (default: the Inspiron-8600 model).
    pub node_config: Option<NodeConfig>,
    /// Interconnect override (default: the 100 Mb/s Catalyst).
    pub network: Option<NetworkParams>,
}

impl Experiment {
    /// An experiment with default engine configuration.
    pub fn new(workload: Workload, strategy: DvsStrategy) -> Self {
        Experiment {
            workload,
            strategy,
            engine: EngineConfig::default(),
            node_config: None,
            network: None,
        }
    }

    /// Replace the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Arm deterministic fault injection for this run (see
    /// [`mpi_sim::FaultSpec`]). An empty spec is the default and leaves
    /// the simulation bit-identical to an unfaulted run.
    pub fn with_faults(mut self, faults: mpi_sim::FaultSpec) -> Self {
        self.engine.faults = faults;
        self
    }

    /// Replace the node hardware model (base power, ladder, memory...).
    pub fn with_node_config(mut self, config: NodeConfig) -> Self {
        self.node_config = Some(config);
        self
    }

    /// Replace the interconnect parameters.
    pub fn with_network(mut self, network: NetworkParams) -> Self {
        self.network = Some(network);
        self
    }

    /// Build the cluster, programs, and controller, and run to completion.
    pub fn run(&self) -> RunResult {
        let ranks = self.workload.ranks();
        let cluster = match (&self.node_config, &self.network) {
            // Beyond the testbed's 16 nodes (the ft-scale family), the
            // homogeneous arm replicates the same hardware — identical
            // node and network models, just more of them.
            (None, None) if ranks <= 16 => Cluster::paper_testbed(ranks),
            (node, net) => Cluster::homogeneous(
                ranks,
                node.clone().unwrap_or_else(NodeConfig::inspiron_8600),
                net.clone()
                    .unwrap_or_else(NetworkParams::catalyst_2950_100m),
            ),
        };
        let programs = self
            .workload
            .programs(self.strategy.wants_instrumentation());
        let controller = self.strategy.controller(cluster.nodes());
        let mut engine = self.engine.clone();
        // A power cap replans at sample instants; a capped run without a
        // sampling cadence would boot feasible and never redistribute, so
        // give it the default cap-control interval.
        if matches!(self.strategy, DvsStrategy::PowerCap { .. }) && engine.sample_interval.is_none()
        {
            engine.sample_interval = Some(power_cap_default_sample());
        }
        Engine::with_controller(cluster, programs, controller, engine).run()
    }
}

/// Sampling (and therefore cap-replanning) interval a
/// [`DvsStrategy::PowerCap`] run falls back to when the experiment did
/// not configure one.
pub fn power_cap_default_sample() -> sim_core::SimDuration {
    sim_core::SimDuration::from_millis(10)
}

/// The frequencies of the Pentium-M ladder, fastest first (how the paper
/// orders its crescendo x-axes).
pub fn ladder_mhz_desc() -> Vec<u32> {
    let ladder = DvfsLadder::pentium_m_1400();
    let mut mhz: Vec<u32> = ladder.points().iter().map(|p| p.mhz()).collect();
    mhz.reverse();
    mhz
}

/// Run `workload` at every static operating point and collect the
/// energy-delay crescendo (the paper's "stat" series).
pub fn static_crescendo(workload: &Workload) -> Crescendo {
    crescendo_of(|mhz| Experiment::new(workload.clone(), DvsStrategy::StaticMhz(mhz)))
}

/// Run `workload` under dynamic control with every base operating point
/// (the paper's "dyn" series).
pub fn dynamic_crescendo(workload: &Workload) -> Crescendo {
    crescendo_of(|mhz| Experiment::new(workload.clone(), DvsStrategy::DynamicBaseMhz(mhz)))
}

/// Fully general crescendo sweep: build any experiment per ladder point.
/// The points run uncached through the sweep pipeline
/// ([`crate::sweep::crescendo`]) on the parallel batch runner; results
/// are identical to a sequential sweep, and a panicking point re-raises
/// its panic (with the point's index) once every point has run.
pub fn crescendo_of(make: impl Fn(u32) -> Experiment) -> Crescendo {
    crate::sweep::crescendo(make, None)
        .unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e.to_string())))
}

/// Run `workload` under the cpuspeed daemon and return
/// `(energy_j, delay_s)` — the single leftmost point in the paper's
/// Figures 3–5.
pub fn cpuspeed_point(workload: &Workload) -> (f64, f64) {
    let result = Experiment::new(workload.clone(), DvsStrategy::Cpuspeed).run();
    (result.total_energy_j(), result.duration_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_metrics::{best_operating_point, DELTA_ENERGY, DELTA_PERFORMANCE};
    use powerpack::MicroConfig;

    #[test]
    fn ladder_is_descending_pentium_m() {
        assert_eq!(ladder_mhz_desc(), vec![1400, 1200, 1000, 800, 600]);
    }

    #[test]
    fn experiment_runs_ft_test() {
        let r = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(1400)).run();
        assert!(r.duration_secs() > 0.0);
        assert!(r.total_energy_j() > 0.0);
        assert_eq!(r.per_node.len(), 4);
    }

    #[test]
    fn static_crescendo_covers_ladder() {
        let micro = Workload::CpuMicro(MicroConfig { passes: 50 });
        let c = static_crescendo(&micro);
        assert_eq!(c.len(), 5);
        let n = c.normalized();
        assert_eq!(n[0].0, 1400);
        // CPU-bound: delay at 600 is (1.4/0.6)x.
        let (_, _, d600) = n[4];
        assert!((d600 - 1.4 / 0.6).abs() < 0.01, "{d600}");
    }

    #[test]
    fn memory_micro_favors_energy_point_cpu_micro_does_not() {
        let mem = static_crescendo(&Workload::MemoryMicro(MicroConfig { passes: 40 }));
        let cpu = static_crescendo(&Workload::CpuMicro(MicroConfig { passes: 40 }));
        assert_eq!(best_operating_point(&mem, DELTA_ENERGY), Some(600));
        // CPU-bound energy bottoms out above the ladder floor.
        let cpu_best_energy = best_operating_point(&cpu, DELTA_ENERGY).unwrap();
        assert!(cpu_best_energy >= 800, "cpu energy best {cpu_best_energy}");
        // Performance always picks 1400.
        assert_eq!(best_operating_point(&mem, DELTA_PERFORMANCE), Some(1400));
    }

    #[test]
    fn dynamic_strategy_instruments_and_runs() {
        let r = Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(1400)).run();
        // Transitions happen: down + restore per fft call.
        assert!(r.transitions.iter().all(|&t| t >= 2), "{:?}", r.transitions);
    }

    #[test]
    fn cpuspeed_point_is_near_full_speed_for_busy_polling() {
        let micro = Workload::CpuMicro(MicroConfig { passes: 30 });
        let (e_cs, d_cs) = cpuspeed_point(&micro);
        let c = static_crescendo(&micro);
        let top = c.points().iter().find(|p| p.mhz == 1400).unwrap();
        assert!((d_cs / top.delay_s - 1.0).abs() < 0.02);
        assert!((e_cs / top.energy_j - 1.0).abs() < 0.05);
    }
}
