//! Determinism and conservation invariants across the full stack.

use power_model::Component;
use pwrperf::{DvsStrategy, EngineConfig, Experiment, Workload};
use sim_core::SimDuration;

fn run_twice(strategy: DvsStrategy) {
    let make = || Experiment::new(Workload::ft_test(4), strategy).run();
    let a = make();
    let b = make();
    assert_eq!(
        a.duration,
        b.duration,
        "{}: duration differs",
        strategy.label()
    );
    assert_eq!(
        a.total_energy_j().to_bits(),
        b.total_energy_j().to_bits(),
        "{}: energy differs at the bit level",
        strategy.label()
    );
    assert_eq!(a.transitions, b.transitions);
    for (x, y) in a.breakdown.iter().zip(&b.breakdown) {
        assert_eq!(x.compute, y.compute);
        assert_eq!(x.mem_stall, y.mem_stall);
        assert_eq!(x.wait_busy, y.wait_busy);
        assert_eq!(x.wait_blocked, y.wait_blocked);
        assert_eq!(x.transition, y.transition);
    }
}

#[test]
fn all_strategies_are_bit_deterministic() {
    for strategy in [
        DvsStrategy::StaticMhz(1400),
        DvsStrategy::StaticMhz(600),
        DvsStrategy::Cpuspeed,
        DvsStrategy::DynamicBaseMhz(1200),
        DvsStrategy::OnDemand,
    ] {
        run_twice(strategy);
    }
}

#[test]
fn component_energies_sum_to_total() {
    let r = Experiment::new(Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400)).run();
    for (node, report) in r.per_node.iter().enumerate() {
        let sum: f64 = Component::ALL.iter().map(|c| report.component(*c)).sum();
        assert!(
            (sum - report.total_j()).abs() < 1e-9,
            "node {node}: components {sum} != total {}",
            report.total_j()
        );
    }
    let per_node_sum: f64 = r.per_node.iter().map(|n| n.total_j()).sum();
    assert!((per_node_sum - r.total_energy_j()).abs() < 1e-9);
}

#[test]
fn breakdowns_account_for_each_ranks_lifetime() {
    let r = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1000)).run();
    for (rank, b) in r.breakdown.iter().enumerate() {
        let total = b.total();
        assert!(
            total <= r.duration + SimDuration::from_nanos(1),
            "rank {rank} accounted {total} > run {}",
            r.duration
        );
        // Each rank was doing *something* for most of the run.
        assert!(
            total.as_secs_f64() > 0.9 * r.duration_secs(),
            "rank {rank} unaccounted time: {total} of {}",
            r.duration
        );
    }
}

#[test]
fn sampled_power_integrates_to_metered_energy() {
    // Riemann-sum the 1 Hz power samples; it must approximate the exact
    // per-component integral the meter keeps.
    let engine = EngineConfig {
        sample_interval: Some(SimDuration::from_millis(5)),
        ..EngineConfig::default()
    };
    let r = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(1400))
        .with_engine(engine)
        .run();
    assert!(
        r.samples.len() > 20,
        "need samples, got {}",
        r.samples.len()
    );
    let dt = 0.005;
    let riemann: f64 = r
        .samples
        .iter()
        .map(|s| s.node_power_w.iter().sum::<f64>() * dt)
        .sum();
    let truth = r.total_energy_j();
    let err = (riemann - truth).abs() / truth;
    assert!(err < 0.05, "Riemann {riemann} vs meter {truth} ({err})");
}

#[test]
fn static_strategies_never_transition() {
    let r = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(800)).run();
    assert!(r.transitions.iter().all(|&t| t == 0), "{:?}", r.transitions);
}

#[test]
fn dynamic_transitions_match_instrumentation() {
    let r = Experiment::new(Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400)).run();
    // FT test class: 3 iterations x (down + restore) per rank.
    for (node, &t) in r.transitions.iter().enumerate() {
        assert_eq!(t, 6, "node {node} transitions");
    }
}

#[test]
fn empty_fault_spec_is_bit_identical_to_default_config() {
    // The fault-injection hard guarantee: an empty spec arms nothing, so
    // a run configured with it is byte-for-byte the run without it.
    use pwrperf::FaultSpec;
    let engine = EngineConfig {
        sample_interval: Some(SimDuration::from_millis(50)),
        faults: FaultSpec::parse("").expect("empty spec parses"),
        ..EngineConfig::default()
    };
    let plain_engine = EngineConfig {
        sample_interval: Some(SimDuration::from_millis(50)),
        ..EngineConfig::default()
    };
    let strategy = DvsStrategy::DynamicBaseMhz(1400);
    let with_empty = Experiment::new(Workload::ft_test(4), strategy)
        .with_engine(engine)
        .run();
    let plain = Experiment::new(Workload::ft_test(4), strategy)
        .with_engine(plain_engine)
        .run();
    assert_eq!(with_empty, plain);
    assert_eq!(
        with_empty.total_energy_j().to_bits(),
        plain.total_energy_j().to_bits()
    );
    assert_eq!(with_empty.faults.total(), 0);
}

#[test]
fn faulted_runs_are_bit_deterministic() {
    // Same seed + same spec => bit-identical results, fault counts
    // included: injected degradation is part of the reproducible state.
    use pwrperf::FaultSpec;
    let spec = FaultSpec::parse(
        "seed:7,slow:2:1.5,battery-noise:1:3,skip-sample:0.3,dvfs-fail:0:0.4,dvfs-latency:3:5.0,weak-link:1:0.5,meter-bias:0:1.2,battery-stuck:3:1",
    )
    .expect("valid spec");
    let make = || {
        let engine = EngineConfig {
            sample_interval: Some(SimDuration::from_millis(50)),
            faults: spec.clone(),
            ..EngineConfig::default()
        };
        Experiment::new(Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400))
            .with_engine(engine)
            .run()
    };
    let a = make();
    let b = make();
    assert_eq!(a, b);
    assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        for (p, q) in x.node_power_w.iter().zip(&y.node_power_w) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(x.node_battery_mwh, y.node_battery_mwh);
    }
    assert_eq!(a.faults, b.faults);
    assert!(a.faults.total() > 0, "the rich spec must actually fire");
}

#[test]
fn fat_tree_runs_are_bit_deterministic() {
    // On a hierarchical fabric flows share trunk links and the solver
    // works per link domain; the whole `RunResult` — durations,
    // energies, breakdowns, samples, metrics registry, traces — must
    // still repeat bit for bit.
    use pwrperf::Topology;
    use workloads::{CgClass, MgClass};
    let workloads = [
        Workload::ft_test(4),
        Workload::Cg {
            class: CgClass::Test,
            ranks: 4,
        },
        Workload::Mg {
            class: MgClass::Test,
            ranks: 4,
        },
    ];
    let make = |w: &Workload| {
        let engine = EngineConfig {
            metrics: true,
            trace_capacity: 1 << 12,
            sample_interval: Some(SimDuration::from_millis(50)),
            topology: Topology::FatTree {
                radix: 2,
                oversub: 2.0,
            },
            ..EngineConfig::default()
        };
        Experiment::new(w.clone(), DvsStrategy::DynamicBaseMhz(1400))
            .with_engine(engine)
            .run()
    };
    for w in &workloads {
        let a = make(w);
        let b = make(w);
        assert_eq!(a, b, "{}: fat-tree", w.label());
        assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
    }
}

#[test]
fn faster_cluster_never_loses_on_delay() {
    // Sanity across the ladder: delay is monotone in frequency for a
    // fixed workload and static control.
    let mut last = f64::INFINITY;
    for mhz in [600, 800, 1000, 1200, 1400] {
        let r = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(mhz)).run();
        assert!(
            r.duration_secs() <= last + 1e-9,
            "{mhz} MHz slower than the previous point"
        );
        last = r.duration_secs();
    }
}
