//! Beyond-the-paper studies: the ablations DESIGN.md calls out plus the
//! extension workload. Each has a `src/bin/` wrapper.

use cluster_sim::NodeConfig;
use net_model::NetworkParams;
use power_model::{Component, DvfsLadder};
use powerpack::profile_phases;
use pwrperf::{
    crescendo_of, run_batch, static_crescendo, DvsStrategy, EngineConfig, Experiment, Workload,
};
use sim_core::SimDuration;
use workloads::FtClass;

use crate::banner;

/// Per-component energy breakdown across the ladder — the stacked-bar
/// view PowerPack became known for.
pub fn component_breakdown() {
    banner(
        "Extension",
        "per-component energy breakdown (FT.B, static control)",
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "MHz", "cpu_dyn(J)", "cpu_stat(J)", "base(J)", "mem(J)", "nic(J)", "total(J)"
    );
    let ladder = pwrperf::ladder_mhz_desc();
    let results = run_batch(
        ladder
            .iter()
            .map(|&mhz| Experiment::new(Workload::ft_b8(), DvsStrategy::StaticMhz(mhz)))
            .collect(),
    );
    for (mhz, r) in ladder.into_iter().zip(results) {
        let t = &r.total;
        println!(
            "{:>6} {:>10.0} {:>10.0} {:>10.0} {:>8.0} {:>8.0} {:>10.0}",
            mhz,
            t.component(Component::CpuDynamic),
            t.component(Component::CpuStatic),
            t.component(Component::Base),
            t.component(Component::Memory),
            t.component(Component::Nic),
            t.total_j()
        );
    }
    println!("\nOnly CPU dynamic energy responds strongly to DVS; the base draw");
    println!("is why savings saturate around one third on this platform.");
}

/// Phase-level energy attribution for FT.C — what PowerPack's alignment
/// tooling produced for the paper's Figure 4 analysis.
pub fn phase_profile() {
    banner(
        "Extension",
        "phase-level time/energy attribution (FT.C @1.4GHz)",
    );
    let engine = EngineConfig {
        sample_interval: Some(SimDuration::from_secs(1)),
        trace_capacity: 1 << 20,
        ..EngineConfig::default()
    };
    let r = Experiment::new(Workload::ft_c8(), DvsStrategy::StaticMhz(1400))
        .with_engine(engine)
        .run();
    let profiles = profile_phases(&r);
    let mut rows: Vec<_> = profiles.iter().collect();
    rows.sort_by_key(|(_, p)| std::cmp::Reverse(p.total_time));
    let ranks = r.breakdown.len() as f64;
    println!(
        "{:>14} {:>8} {:>12} {:>10} {:>10}",
        "phase", "count", "rank-time(s)", "time %", "energy(J)"
    );
    for (name, p) in rows {
        println!(
            "{:>14} {:>8} {:>12.1} {:>9.1}% {:>10.0}",
            name,
            p.occurrences,
            p.total_time.as_secs_f64(),
            100.0 * p.total_time.as_secs_f64() / (r.duration_secs() * ranks),
            p.energy_j
        );
    }
    println!(
        "\nfft() dominates both time and energy — the paper's rationale for\n\
         instrumenting exactly that function."
    );
}

/// Energy savings vs. node count: does the DVS opportunity grow as the
/// communication fraction grows?
pub fn scaling_nodes() {
    banner(
        "Extension",
        "static-600MHz savings vs node count (FT class A)",
    );
    println!(
        "{:>7} {:>12} {:>12} {:>14}",
        "nodes", "E600/E1400", "D600/D1400", "compute frac"
    );
    for ranks in [2usize, 4, 8, 16] {
        let w = Workload::Ft {
            class: FtClass::A,
            ranks,
        };
        let c = static_crescendo(&w);
        let (e, d) = c.normalized_for(600).unwrap();
        let r = Experiment::new(w, DvsStrategy::StaticMhz(1400)).run();
        let frac: f64 = r
            .breakdown
            .iter()
            .map(|b| b.compute_fraction())
            .sum::<f64>()
            / r.breakdown.len() as f64;
        println!("{ranks:>7} {e:>12.3} {d:>12.3} {:>13.1}%", frac * 100.0);
    }
    println!("\nMore nodes -> smaller per-node compute fraction -> the same energy");
    println!("savings cost less and less delay (the slack absorbs the slowdown).");
}

/// The extension workload: NAS CG under all three strategies.
pub fn extra_cg_crescendo() {
    banner(
        "Extension",
        "NAS CG class B on 8 nodes (memory+allgather bound)",
    );
    let w = Workload::cg_b8();
    let stat = static_crescendo(&w);
    println!(
        "{}",
        pwrperf::report::format_crescendo("CG.B static control", &stat)
    );
    let dynamic = pwrperf::dynamic_crescendo(&w);
    let r = stat.reference();
    let d1400 = dynamic.points().iter().find(|p| p.mhz == 1400).unwrap();
    println!(
        "dynamic (exchange @600MHz, base 1400): E={:.3} D={:.3}",
        d1400.energy_j / r.energy_j,
        d1400.delay_s / r.delay_s
    );
    let (e_cs, d_cs) = pwrperf::cpuspeed_point(&w);
    println!(
        "cpuspeed: E={:.3} D={:.3}",
        e_cs / r.energy_j,
        d_cs / r.delay_s
    );
}

/// Base-power ablation: what if the node were a desktop/server with a
/// larger always-on draw?
pub fn ablation_base_power() {
    banner("Ablation", "FT.B static-600MHz savings vs node base power");
    println!(
        "{:>10} {:>12} {:>12}",
        "base (W)", "E600/E1400", "D600/D1400"
    );
    for base_w in [4.0, 8.0, 16.0, 32.0, 64.0] {
        let mut node = NodeConfig::inspiron_8600();
        node.power.base_w = base_w;
        let node_for_sweep = node.clone();
        let c = crescendo_of(move |mhz| {
            Experiment::new(Workload::ft_b8(), DvsStrategy::StaticMhz(mhz))
                .with_node_config(node_for_sweep.clone())
        });
        let (e, d) = c.normalized_for(600).unwrap();
        println!("{base_w:>10.0} {e:>12.3} {d:>12.3}");
    }
    println!("\nA server-class base draw dilutes CPU savings toward zero — the");
    println!("paper's laptop platform flatters DVS, as its authors knew.");
}

/// Transition-latency ablation: how slow can DVFS switching get before
/// the dynamic strategy stops paying?
pub fn ablation_transition_latency() {
    banner(
        "Ablation",
        "FT.C dynamic control vs DVFS transition latency",
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14}",
        "latency", "E/E(stat1400)", "D/D(stat1400)", "transitions"
    );
    let latencies = [10u64, 100, 1_000, 10_000, 100_000];
    let mut experiments = vec![Experiment::new(
        Workload::ft_c8(),
        DvsStrategy::StaticMhz(1400),
    )];
    experiments.extend(latencies.iter().map(|&latency_us| {
        let mut node = NodeConfig::inspiron_8600();
        node.ladder = DvfsLadder::new(
            node.ladder.points().to_vec(),
            SimDuration::from_micros(latency_us),
        );
        Experiment::new(Workload::ft_c8(), DvsStrategy::DynamicBaseMhz(1400)).with_node_config(node)
    }));
    let mut results = run_batch(experiments);
    let reference = results.remove(0);
    for (latency_us, r) in latencies.into_iter().zip(results) {
        println!(
            "{:>10}us {:>12.3} {:>12.3} {:>14}",
            latency_us,
            r.total_energy_j() / reference.total_energy_j(),
            r.duration_secs() / reference.duration_secs(),
            r.transitions.iter().sum::<u64>()
        );
    }
    println!("\nEven millisecond-scale transitions barely dent function-level");
    println!("dynamic control: fft() regions last tens of seconds.");
}

/// Interconnect ablation: faster networks shrink communication slack.
pub fn ablation_network_bandwidth() {
    banner(
        "Ablation",
        "FT.B static-600MHz savings vs interconnect bandwidth",
    );
    println!("{:>12} {:>12} {:>12}", "link", "E600/E1400", "D600/D1400");
    for (label, bw) in [
        ("10Mb/s", 10e6),
        ("100Mb/s", 100e6),
        ("1Gb/s", 1e9),
        ("10Gb/s", 1e10),
    ] {
        let network = NetworkParams {
            link_bw_bps: bw,
            ..NetworkParams::catalyst_2950_100m()
        };
        let net_for_sweep = network.clone();
        let c = crescendo_of(move |mhz| {
            Experiment::new(Workload::ft_b8(), DvsStrategy::StaticMhz(mhz))
                .with_network(net_for_sweep.clone())
        });
        let (e, d) = c.normalized_for(600).unwrap();
        println!("{label:>12} {e:>12.3} {d:>12.3}");
    }
    println!("\nAs the network speeds up, FT becomes compute-bound: energy savings");
    println!("shrink and the delay penalty grows — DVS slack is platform-relative.");
}

/// Governor ablation: all five policies on one workload, blocking waits.
pub fn governor_comparison() {
    banner(
        "Ablation",
        "five governors on FT.B (blocking-wait transport)",
    );
    let engine = EngineConfig {
        wait_policy: pwrperf::WaitPolicy::PollThenBlock(SimDuration::from_millis(50)),
        ..EngineConfig::default()
    };
    let strategies = [
        DvsStrategy::StaticMhz(1400),
        DvsStrategy::StaticMhz(600),
        DvsStrategy::Cpuspeed,
        DvsStrategy::OnDemand,
        DvsStrategy::Conservative,
        DvsStrategy::DynamicBaseMhz(1400),
    ];
    // The StaticMhz(1400) run doubles as the normalization reference.
    let results = run_batch(
        strategies
            .iter()
            .map(|&strategy| {
                Experiment::new(Workload::ft_b8(), strategy).with_engine(engine.clone())
            })
            .collect(),
    );
    let reference = results[0].clone();
    println!(
        "{:>14} {:>10} {:>10} {:>12}",
        "governor", "E/E0", "D/D0", "transitions"
    );
    for (strategy, r) in strategies.into_iter().zip(results) {
        println!(
            "{:>14} {:>10.3} {:>10.3} {:>12}",
            strategy.label(),
            r.total_energy_j() / reference.total_energy_j(),
            r.duration_secs() / reference.duration_secs(),
            r.transitions.iter().sum::<u64>()
        );
    }
}

/// All-to-all algorithm ablation: round-structured pairwise exchange vs
/// the flood schedule (post everything nonblocking, then waitall).
pub fn ablation_alltoall_algorithm() {
    banner(
        "Ablation",
        "alltoall algorithms: pairwise exchange vs nonblocking flood",
    );
    use cluster_sim::Cluster;
    use dvfs::{Governor, StaticGovernor};
    use mpi_sim::{Engine, Program, ProgramBuilder};

    let run = |flood: bool, ranks: usize, bytes: u64| {
        let cluster = Cluster::paper_testbed(ranks);
        let programs: Vec<Program> = (0..ranks)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, ranks);
                for _ in 0..5 {
                    if flood {
                        b.alltoall_nonblocking(bytes);
                    } else {
                        b.alltoall(bytes);
                    }
                }
                b.build()
            })
            .collect();
        let governors: Vec<Box<dyn Governor>> = (0..ranks)
            .map(|_| Box::new(StaticGovernor::performance()) as Box<dyn Governor>)
            .collect();
        Engine::new(cluster, programs, governors, EngineConfig::default()).run()
    };

    println!(
        "{:>7} {:>10} {:>14} {:>14}",
        "ranks", "msg size", "pairwise (s)", "flood (s)"
    );
    for (ranks, bytes) in [
        (8usize, 64 * 1024u64),
        (8, 4 * 1024 * 1024),
        (15, 1024 * 1024),
    ] {
        let pairwise = run(false, ranks, bytes);
        let flood = run(true, ranks, bytes);
        println!(
            "{:>7} {:>9}K {:>14.3} {:>14.3}",
            ranks,
            bytes / 1024,
            pairwise.duration_secs(),
            flood.duration_secs()
        );
    }
    println!("\nOn a non-blocking switch both schedules saturate the links; the");
    println!("flood variant wins slightly at odd rank counts where the ring");
    println!("schedule leaves links idle between rounds.");
}

/// Automatic slack-directed instrumentation vs the paper's hand-tuned
/// dynamic control.
pub fn auto_instrumentation() {
    banner(
        "Extension",
        "automatic slack-directed DVS (pilot-profile -> instrument -> run)",
    );
    use pwrperf::AutoTuner;
    println!(
        "{:>26} {:>22} {:>10} {:>10} {:>10} {:>10}",
        "workload", "auto-selected phases", "auto E", "auto D", "hand E", "hand D"
    );
    let workloads = [
        Workload::ft_c8(),
        Workload::transpose_paper(),
        Workload::cg_b8(),
        Workload::mg_b8(),
    ];
    // References and hand-tuned runs batch together; the auto-tuner
    // pipelines its own pilot and tuned batches internally.
    let mut baselines = run_batch(
        workloads
            .iter()
            .flat_map(|w| {
                [
                    Experiment::new(w.clone(), DvsStrategy::StaticMhz(1400)),
                    Experiment::new(w.clone(), DvsStrategy::DynamicBaseMhz(1400)),
                ]
            })
            .collect(),
    );
    let outcomes = AutoTuner.tune_many(&workloads);
    for (workload, outcome) in workloads.iter().zip(outcomes) {
        let reference = baselines.remove(0);
        let hand = baselines.remove(0);
        println!(
            "{:>26} {:>22} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            workload.label(),
            outcome.selected_phases.join(","),
            outcome.tuned.total_energy_j() / reference.total_energy_j(),
            outcome.tuned.duration_secs() / reference.duration_secs(),
            hand.total_energy_j() / reference.total_energy_j(),
            hand.duration_secs() / reference.duration_secs(),
        );
    }
    println!("\nThe profiler re-discovers the paper's hand-chosen regions (fft,");
    println!("exchange/gather, halo) and matches hand-tuned dynamic control.");
}

/// Straggler study on a heterogeneous cluster: one node with a halved
/// ladder ceiling creates imbalance slack everywhere else.
pub fn straggler_study() {
    banner(
        "Extension",
        "heterogeneous cluster: one slow node creates DVS slack on the rest",
    );
    use cluster_sim::{Cluster, NodeConfig};
    use dvfs::{Governor, StaticGovernor};
    use mpi_sim::Engine;
    use power_model::OperatingPoint;

    let ranks = 8;
    let make_cluster = |straggler: bool| {
        let mut configs = vec![NodeConfig::inspiron_8600(); ranks];
        if straggler {
            // Node 7 tops out at 700 MHz (a failing fan, a throttled part).
            let points: Vec<OperatingPoint> = DvfsLadder::pentium_m_1400()
                .points()
                .iter()
                .map(|p| OperatingPoint {
                    freq_hz: p.freq_hz / 2.0,
                    voltage: p.voltage,
                })
                .collect();
            configs[7].ladder = DvfsLadder::new(points, SimDuration::from_micros(10));
        }
        Cluster::from_configs(configs, net_model::NetworkParams::catalyst_2950_100m())
    };
    let run = |straggler: bool, op: usize| {
        let cluster = make_cluster(straggler);
        let governors: Vec<Box<dyn Governor>> = (0..ranks)
            .map(|_| Box::new(StaticGovernor::pinned(op)) as Box<dyn Governor>)
            .collect();
        Engine::new(
            cluster,
            Workload::ft_b8().programs(false),
            governors,
            EngineConfig::default(),
        )
        .run()
    };

    let balanced = run(false, 4);
    let straggled = run(true, 4);
    println!(
        "balanced cluster, all @1400: {:.1} s, {:.0} J",
        balanced.duration_secs(),
        balanced.total_energy_j()
    );
    println!(
        "one straggler,  rest @1400: {:.1} s, {:.0} J (+{:.0}% time)",
        straggled.duration_secs(),
        straggled.total_energy_j(),
        (straggled.duration_secs() / balanced.duration_secs() - 1.0) * 100.0
    );
    // With the straggler pinned anyway, the fast nodes can downshift for
    // nearly free: they were waiting on it.
    let downshifted = run(true, 2);
    println!(
        "one straggler,  rest @1000: {:.1} s, {:.0} J ({:+.1}% time, {:+.1}% energy vs straggled)",
        downshifted.duration_secs(),
        downshifted.total_energy_j(),
        (downshifted.duration_secs() / straggled.duration_secs() - 1.0) * 100.0,
        (downshifted.total_energy_j() / straggled.total_energy_j() - 1.0) * 100.0
    );
    println!("\nLoad imbalance is free energy: the healthy nodes idle-wait on the");
    println!("straggler, so slowing them recovers energy at almost no time cost.");
}

/// Run every extension study.
pub fn all_extensions() {
    component_breakdown();
    phase_profile();
    scaling_nodes();
    extra_cg_crescendo();
    ablation_base_power();
    ablation_transition_latency();
    ablation_network_bandwidth();
    ablation_alltoall_algorithm();
    governor_comparison();
    auto_instrumentation();
    straggler_study();
}
