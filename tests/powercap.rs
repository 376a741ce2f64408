//! Power-cap controller invariants: the cluster budget is honoured at
//! every sample instant, an infinite budget is inert (bit-identical to
//! the uncontrolled run), capped runs are bit-deterministic, and —
//! the headline claim — runtime redistribution
//! under a fixed cap beats every cap-feasible uniform `StaticMhz`
//! point on a load-imbalanced workload.

use cluster_sim::NodeConfig;
use edp_metrics::{weighted_ed2p, DELTA_HPC};
use proptest::prelude::*;
use pwrperf::{
    power_cap_default_sample, CapPolicy, DvsStrategy, EngineConfig, Experiment, FaultSpec,
    RunResult, Topology, Workload,
};

const RANKS: usize = 4;

fn sampled_engine(faults: FaultSpec) -> EngineConfig {
    EngineConfig {
        sample_interval: Some(power_cap_default_sample()),
        faults,
        ..EngineConfig::default()
    }
}

fn run_capped(watts: u32, policy: CapPolicy, engine: EngineConfig) -> RunResult {
    Experiment::new(
        Workload::ft_test(RANKS),
        DvsStrategy::PowerCap { watts, policy },
    )
    .with_engine(engine)
    .run()
}

/// Highest instantaneous cluster draw over all sample rows.
fn peak_sampled_w(result: &RunResult) -> f64 {
    result
        .samples
        .iter()
        .map(|s| s.node_power_w.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

/// The lowest budget the controller can honour: every rank parked at
/// the ladder floor, charged at worst-case activity.
fn floor_watts() -> f64 {
    let config = NodeConfig::inspiron_8600();
    RANKS as f64
        * config
            .power
            .max_node_power_w(config.ladder.point(config.ladder.lowest()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hard guarantee: for any feasible budget, policy, and degree
    /// of load imbalance, the summed sampled node power never exceeds
    /// the cap at any sample instant.
    #[test]
    fn cap_is_never_exceeded_at_any_sample_instant(
        headroom in 0u32..60,
        redistribute in any::<bool>(),
        slowdown in 1u32..6,
    ) {
        let watts = floor_watts().ceil() as u32 + headroom;
        let policy = if redistribute { CapPolicy::Redistribute } else { CapPolicy::Uniform };
        let faults = FaultSpec::parse(&format!("slow:0:{slowdown}.0")).unwrap();
        let result = run_capped(watts, policy, sampled_engine(faults));
        prop_assert!(!result.samples.is_empty(), "capped runs must sample");
        for sample in &result.samples {
            let total: f64 = sample.node_power_w.iter().sum();
            prop_assert!(
                total <= watts as f64 + 1e-9,
                "cap {watts} W exceeded at t={:?}: sampled {total} W",
                sample.time,
            );
        }
    }
}

#[test]
fn infinite_cap_is_bit_identical_to_the_uncontrolled_run() {
    // A budget no allocation can violate must leave the controller
    // inert: zero decisions, zero extra transitions, and a RunResult
    // equal bit-for-bit to the uncontrolled static-performance run
    // under the same sampling config.
    let uncontrolled = Experiment::new(Workload::ft_test(RANKS), DvsStrategy::StaticMhz(1400))
        .with_engine(sampled_engine(FaultSpec::default()))
        .run();
    for policy in [CapPolicy::Uniform, CapPolicy::Redistribute] {
        let capped = run_capped(1_000_000, policy, sampled_engine(FaultSpec::default()));
        assert_eq!(capped, uncontrolled, "{policy:?}: results differ");
        assert_eq!(
            capped.total_energy_j().to_bits(),
            uncontrolled.total_energy_j().to_bits(),
            "{policy:?}: energy differs at the bit level",
        );
        assert_eq!(capped.transitions, vec![0; RANKS]);
    }
}

#[test]
fn capped_runs_are_bit_deterministic() {
    // Controller decisions ride the same (time, seq)-ordered dispatch as
    // everything else, so a faulted capped run repeats bit for bit on
    // the flat switch and on a fat tree.
    let make = |topology: Topology| {
        let engine = EngineConfig {
            metrics: true,
            trace_capacity: 1 << 12,
            topology,
            ..sampled_engine(FaultSpec::parse("slow:0:5.0").unwrap())
        };
        run_capped(80, CapPolicy::Redistribute, engine)
    };
    let fat_tree = Topology::FatTree {
        radix: 2,
        oversub: 2.0,
    };
    for topology in [Topology::Flat, fat_tree] {
        let (a, b) = (make(topology), make(topology));
        assert_eq!(a, b, "{topology:?}");
        assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
    }
}

#[test]
fn redistribution_beats_every_feasible_uniform_static_under_the_cap() {
    // The headline claim: on a load-imbalanced workload (rank 0
    // slowed 5x) under an 80 W cluster budget (~81% of the 99 W
    // uncapped peak), reclaiming budget from communication-blocked
    // ranks and granting it to the straggler must achieve strictly
    // better weighted ED^2P than the best uniform StaticMhz point that
    // fits the same budget under worst-case accounting.
    let cap = 80u32;
    let faults = FaultSpec::parse("slow:0:5.0").unwrap();

    // Normalization base: uncapped static 1400, same faults (how the
    // paper normalizes every E/D column).
    let base = Experiment::new(Workload::ft_test(RANKS), DvsStrategy::StaticMhz(1400))
        .with_engine(sampled_engine(faults.clone()))
        .run();
    let (e0, d0) = (base.total_energy_j(), base.duration_secs());
    assert!(
        peak_sampled_w(&base) > cap as f64,
        "the cap must actually bind: uncapped peak {} W <= {cap} W",
        peak_sampled_w(&base),
    );

    let config = NodeConfig::inspiron_8600();
    let mut best_uniform = f64::INFINITY;
    let mut feasible = 0usize;
    for point in config.ladder.points() {
        if RANKS as f64 * config.power.max_node_power_w(*point) > cap as f64 {
            continue;
        }
        feasible += 1;
        let r = Experiment::new(
            Workload::ft_test(RANKS),
            DvsStrategy::StaticMhz(point.mhz()),
        )
        .with_engine(sampled_engine(faults.clone()))
        .run();
        let w = weighted_ed2p(r.total_energy_j() / e0, r.duration_secs() / d0, DELTA_HPC);
        best_uniform = best_uniform.min(w);
    }
    assert!(feasible >= 1, "no ladder point fits the {cap} W budget");

    let redist = run_capped(cap, CapPolicy::Redistribute, sampled_engine(faults.clone()));
    assert!(
        peak_sampled_w(&redist) <= cap as f64 + 1e-9,
        "redistribute breached its own budget",
    );
    let w_redist = weighted_ed2p(
        redist.total_energy_j() / e0,
        redist.duration_secs() / d0,
        DELTA_HPC,
    );
    assert!(
        w_redist < best_uniform,
        "redistribution must strictly beat the best feasible uniform static: \
         redistribute wED2P {w_redist:.4} vs best uniform {best_uniform:.4}",
    );

    // The uniform *policy* pins the whole cluster at that same best
    // feasible point, so it must not beat redistribution either.
    let uniform = run_capped(cap, CapPolicy::Uniform, sampled_engine(faults));
    assert!(peak_sampled_w(&uniform) <= cap as f64 + 1e-9);
    let w_uniform = weighted_ed2p(
        uniform.total_energy_j() / e0,
        uniform.duration_secs() / d0,
        DELTA_HPC,
    );
    assert!(
        w_redist < w_uniform,
        "redistribute {w_redist:.4} must beat uniform policy {w_uniform:.4}",
    );
}
