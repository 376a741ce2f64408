//! One function per paper table/figure; `all_figures` prints them in
//! paper order through [`all`].

use std::path::PathBuf;
use std::sync::Mutex;

use edp_metrics::{iso_efficiency_energy_fraction, Crescendo, DELTA_ENERGY, DELTA_HPC};
use power_model::DvfsLadder;
use powerpack::{CommMicroConfig, MicroConfig};
use pwrperf::calibration::target;
use pwrperf::report::{format_best_points, format_crescendo, format_strategy_comparison};
use pwrperf::{
    crescendo, crescendo_from_results, ladder_mhz_desc, DvsStrategy, EngineConfig, Experiment,
    RunResult, StoreError, StoreStats, Sweep, SweepStore, Topology, Workload,
};

use crate::{banner, print_target_row};

static RESULT_STORE: Mutex<Option<SweepStore>> = Mutex::new(None);
static TOPOLOGY: Mutex<Topology> = Mutex::new(Topology::Flat);

/// Open the [`SweepStore`] at `dir` and run every figure in this module
/// through it (`all_figures --store <dir>`): the first regeneration
/// fills the cache, later ones replay every run from it without touching
/// the engine.
pub fn set_result_store(dir: impl Into<PathBuf>) -> Result<(), StoreError> {
    let store = SweepStore::open(dir.into())?;
    *RESULT_STORE.lock().expect("result store lock") = Some(store);
    Ok(())
}

/// The result store's traffic so far, when one is set.
pub fn result_store_stats() -> Option<StoreStats> {
    RESULT_STORE
        .lock()
        .expect("result store lock")
        .as_ref()
        .map(SweepStore::stats)
}

/// Run every figure on the given interconnect (`all_figures --topology`).
pub fn set_topology(topology: Topology) {
    *TOPOLOGY.lock().expect("topology lock") = topology;
}

/// The engine configuration every figure runs with: default knobs plus
/// the module-level topology override.
fn base_engine() -> EngineConfig {
    EngineConfig {
        topology: *TOPOLOGY.lock().expect("topology lock"),
        ..EngineConfig::default()
    }
}

/// Run `strategies` on `w` under `engine` as one sweep, through the
/// result store when one is set. Results come back in strategy order.
fn run_grid(w: &Workload, strategies: Vec<DvsStrategy>, engine: EngineConfig) -> Vec<RunResult> {
    let fault_specs = vec![engine.faults.clone()];
    let sweep = Sweep::grid(vec![w.clone()], strategies, fault_specs).with_engine(engine);
    let mut store = RESULT_STORE.lock().expect("result store lock");
    let outcome = sweep.run(store.as_mut(), None);
    outcome
        .unwrap_or_else(|e| panic!("result store write failed: {e}"))
        .results
}

/// The static ladder crescendo of `w`, through the result store when one
/// is set.
fn ladder_crescendo(w: &Workload) -> Crescendo {
    let make =
        |mhz| Experiment::new(w.clone(), DvsStrategy::StaticMhz(mhz)).with_engine(base_engine());
    let mut store = RESULT_STORE.lock().expect("result store lock");
    crescendo(make, store.as_mut()).unwrap_or_else(|e| panic!("result store write failed: {e}"))
}

/// All three paper strategies for one workload as one grid — 5 static
/// pins, 5 dynamic bases, and the cpuspeed point (11 runs). Results are
/// identical to `static_crescendo` + `dynamic_crescendo` +
/// `cpuspeed_point`.
fn strategy_suite(w: &Workload) -> (Crescendo, Crescendo, (f64, f64)) {
    let ladder = ladder_mhz_desc();
    let mut strategies: Vec<DvsStrategy> = ladder
        .iter()
        .map(|&mhz| DvsStrategy::StaticMhz(mhz))
        .collect();
    strategies.extend(ladder.iter().map(|&mhz| DvsStrategy::DynamicBaseMhz(mhz)));
    strategies.push(DvsStrategy::Cpuspeed);
    let results = run_grid(w, strategies, base_engine());
    let (stat, rest) = results.split_at(ladder.len());
    let (dyn_c, cs) = rest.split_at(ladder.len());
    let cs = cs.first().expect("cpuspeed result");
    (
        crescendo_from_results(&ladder, stat),
        crescendo_from_results(&ladder, dyn_c),
        (cs.total_energy_j(), cs.duration_secs()),
    )
}

/// Figure 1: energy-delay crescendos for the SPEC proxies.
fn fig1_spec_crescendos() {
    banner(
        "Fig. 1",
        "SPEC CFP2000 energy-delay crescendos (mgrid, swim)",
    );
    let mgrid = ladder_crescendo(&Workload::Mgrid);
    let swim = ladder_crescendo(&Workload::Swim);
    println!("{}", format_crescendo("mgrid (CPU-bound)", &mgrid));
    println!("{}", format_crescendo("swim (memory-bound)", &swim));
    println!("Paper shape: mgrid saves little energy at large delay cost;");
    println!("swim's energy falls steadily with modest delay growth.");
}

/// Figure 2: weighted-ED²P iso-efficiency curves.
fn fig2_weighted_ed2p_curves() {
    banner(
        "Fig. 2",
        "energy fraction required to break even vs delay factor",
    );
    let deltas = [-1.0, -0.6, -0.2, 0.0, 0.2, 0.6, 1.0];
    print!("{:>8}", "delay");
    for d in deltas {
        print!(" {:>8}", format!("d={d}"));
    }
    println!();
    let mut x = 1.0;
    while x <= 2.0 + 1e-9 {
        print!("{x:>8.2}");
        for d in deltas {
            print!(" {:>8.3}", iso_efficiency_energy_fraction(x, d));
        }
        println!();
        x += 0.1;
    }
    println!("\nPaper callout: at d=0.4, x=1.1 the curve reads ~0.64-0.68.");
}

/// Table 1: best operating points for mgrid and swim.
fn table1_spec_best_points() {
    banner("Table 1", "best operating points for mgrid and swim");
    let mgrid = ladder_crescendo(&Workload::Mgrid);
    let swim = ladder_crescendo(&Workload::Swim);
    println!(
        "{}",
        format_best_points(&[("mgrid", &mgrid), ("swim", &swim)])
    );
    println!("Paper: mgrid HPC=1400 energy=600 perf=1400; swim HPC=1000 energy=600 perf=1400.");
}

/// Table 2: the Pentium-M operating points.
fn table2_operating_points() {
    banner("Table 2", "frequency and supply-voltage operating points");
    let ladder = DvfsLadder::pentium_m_1400();
    println!("{:>10} {:>14}", "Frequency", "Supply voltage");
    for p in ladder.points().iter().rev() {
        println!("{:>7}MHz {:>13.3}V", p.mhz(), p.voltage);
    }
    println!(
        "transition latency: {} (manufacturer lower bound)",
        ladder.transition_latency()
    );
}

/// Figure 3: FT class B on 8 nodes — cpuspeed point + static crescendo.
fn fig3_ft_b_crescendo() {
    banner("Fig. 3", "normalized energy and delay of FT.B on 8 nodes");
    let w = Workload::ft_b8();
    let stat = ladder_crescendo(&w);
    println!("{}", format_crescendo("FT.B static control", &stat));
    let reference = stat.reference();
    let cs = run_grid(&w, vec![DvsStrategy::Cpuspeed], base_engine());
    let cs = cs.first().expect("cpuspeed result");
    let (e_cs, d_cs) = (cs.total_energy_j(), cs.duration_secs());
    println!(
        "cpuspeed daemon: E={:.3} D={:.3} (normalized)",
        e_cs / reference.energy_j,
        d_cs / reference.delay_s
    );
    println!("\npaper-vs-measured:");
    if let Some(t) = target("ft_b8", "stat", 600) {
        let (e, d) = stat.normalized_for(600).unwrap();
        print_target_row(&t, e, d);
    }
    if let Some(t) = target("ft_b8", "cpuspeed", 0) {
        print_target_row(&t, e_cs / reference.energy_j, d_cs / reference.delay_s);
    }
}

/// Table 3: best operating points for FT.B.
fn table3_ft_b_best_points() {
    banner("Table 3", "best operating points for FT class B on 8 nodes");
    let stat = ladder_crescendo(&Workload::ft_b8());
    println!("{}", format_best_points(&[("FT.B (8 nodes)", &stat)]));
    let gain = edp_metrics::efficiency_gain(&stat, DELTA_HPC);
    println!(
        "HPC-point efficiency gain over 1400 MHz: {:.1}%",
        gain * 100.0
    );
    println!("Paper: HPC=1000, energy=600, performance=1400; gain 16.9%.");
}

/// Figure 4: FT class C on 8 processors under all three strategies.
fn fig4_ft_c_strategies() {
    banner(
        "Fig. 4",
        "FT.C on 8 processors: cpuspeed vs static vs dynamic",
    );
    let w = Workload::ft_c8();
    let (stat, dyn_c, (e_cs, d_cs)) = strategy_suite(&w);

    let mut rows = vec![("cpuspeed".to_string(), e_cs, d_cs)];
    for p in stat.points() {
        rows.push((format!("stat {}MHz", p.mhz), p.energy_j, p.delay_s));
    }
    for p in dyn_c.points() {
        rows.push((format!("dyn {}MHz", p.mhz), p.energy_j, p.delay_s));
    }
    println!(
        "{}",
        format_strategy_comparison("FT.C energy & delay", &rows, "stat 1400MHz")
    );
    println!("paper-vs-measured:");
    let reference = stat.reference();
    let dyn_norm = |mhz: u32| {
        dyn_c.points().iter().find(|p| p.mhz == mhz).map(|p| {
            (
                p.energy_j / reference.energy_j,
                p.delay_s / reference.delay_s,
            )
        })
    };
    for (strategy, mhz, measured) in [
        ("stat", 800, stat.normalized_for(800)),
        ("stat", 600, stat.normalized_for(600)),
        ("dyn", 1400, dyn_norm(1400)),
        ("dyn", 1000, dyn_norm(1000)),
    ] {
        if let (Some(t), Some((me, md))) = (target("ft_c8", strategy, mhz), measured) {
            print_target_row(&t, me, md);
        }
    }
    if let Some(t) = target("ft_c8", "cpuspeed", 0) {
        print_target_row(&t, e_cs / reference.energy_j, d_cs / reference.delay_s);
        println!(
            "  note: our wait model busy-polls (MPICH ch_p4), so cpuspeed sees no\n  \
             idle and saves nothing; the paper observed 12.4% on class C."
        );
    }
}

/// Figure 5: the 12K×12K transpose on 15 processors.
fn fig5_transpose_strategies() {
    banner("Fig. 5", "parallel matrix transpose on 15 processors");
    let w = Workload::transpose_paper();
    let (stat, dyn_c, (e_cs, d_cs)) = strategy_suite(&w);

    let mut rows = vec![("cpuspeed".to_string(), e_cs, d_cs)];
    for p in stat.points() {
        rows.push((format!("stat {}MHz", p.mhz), p.energy_j, p.delay_s));
    }
    for p in dyn_c.points() {
        rows.push((format!("dyn {}MHz", p.mhz), p.energy_j, p.delay_s));
    }
    println!(
        "{}",
        format_strategy_comparison("transpose energy & delay", &rows, "stat 1400MHz")
    );
    println!("paper-vs-measured:");
    for mhz in [800u32, 600] {
        if let (Some(t), Some((e, d))) =
            (target("transpose15", "stat", mhz), stat.normalized_for(mhz))
        {
            print_target_row(&t, e, d);
        }
    }
    let reference = stat.reference();
    if let Some(t) = target("transpose15", "cpuspeed", 0) {
        print_target_row(&t, e_cs / reference.energy_j, d_cs / reference.delay_s);
    }
    println!(
        "  note: our wait-dominated gather overshoots the paper's absolute energy\n  \
         savings; the strategy ordering and near-zero delay impact match."
    );
}

/// Figure 6: the memory-bound microbenchmark.
fn fig6_memory_micro() {
    banner(
        "Fig. 6",
        "normalized energy and delay of memory access (32MB, 128B stride)",
    );
    let c = ladder_crescendo(&Workload::MemoryMicro(MicroConfig::default()));
    println!("{}", format_crescendo("memory microbenchmark", &c));
    if let (Some(t), Some((e, d))) = (target("memory_micro", "stat", 600), c.normalized_for(600)) {
        print_target_row(&t, e, d);
    }
    let gain = edp_metrics::efficiency_gain(&c, DELTA_ENERGY);
    println!(
        "energy-point efficiency gain over 1400 MHz: {:.1}% (paper: 40.7%)",
        gain * 100.0
    );
}

/// Figure 7: the CPU-bound (L2) microbenchmark plus the register variant.
fn fig7_cpu_micro() {
    banner(
        "Fig. 7",
        "normalized energy and delay for L2 cache access under DVS",
    );
    // The L2 walk covers only 2048 lines per pass; scale the pass count so
    // the run lasts seconds, as the paper's ACPI methodology required.
    let passes = MicroConfig { passes: 400_000 };
    let l2 = ladder_crescendo(&Workload::CpuMicro(passes.clone()));
    println!("{}", format_crescendo("CPU (L2) microbenchmark", &l2));
    for mhz in [800u32, 600] {
        if let (Some(t), Some((e, d))) = (target("cpu_micro", "stat", mhz), l2.normalized_for(mhz))
        {
            print_target_row(&t, e, d);
        }
    }
    let reg = ladder_crescendo(&Workload::RegisterMicro(MicroConfig { passes: 9_000 }));
    println!();
    println!("{}", format_crescendo("register-only variant", &reg));
    println!("Paper: delay +134% at 600 MHz; energy bottoms mid-ladder and rises at 600.");
}

/// Figure 8: the communication microbenchmarks.
fn fig8_comm_micro() {
    banner("Fig. 8", "communication microbenchmarks (round trips)");
    let a = ladder_crescendo(&Workload::Comm(CommMicroConfig::paper_256k()));
    println!("{}", format_crescendo("(a) 256KB round trip", &a));
    if let (Some(t), Some((e, d))) = (target("comm_256k", "stat", 600), a.normalized_for(600)) {
        print_target_row(&t, e, d);
    }
    let b = ladder_crescendo(&Workload::Comm(CommMicroConfig::paper_4k_strided()));
    println!();
    println!("{}", format_crescendo("(b) 4KB message, 64B stride", &b));
    if let (Some(t), Some((e, d))) = (target("comm_4k", "stat", 600), b.normalized_for(600)) {
        print_target_row(&t, e, d);
    }
}

/// Beyond-paper ablation: how the cpuspeed verdict depends on whether MPI
/// waits are visible to `/proc/stat`.
fn ablation_wait_policy() {
    banner(
        "Ablation",
        "cpuspeed vs wait visibility (busy-poll vs poll-then-block)",
    );
    use pwrperf::WaitPolicy;
    use sim_core::SimDuration;
    let w = Workload::ft_b8();
    for (label, policy) in [
        ("busy-poll (MPICH ch_p4)", WaitPolicy::BusyPoll),
        (
            "block after 100ms",
            WaitPolicy::PollThenBlock(SimDuration::from_millis(100)),
        ),
        (
            "block after 1s",
            WaitPolicy::PollThenBlock(SimDuration::from_secs(1)),
        ),
    ] {
        let engine = EngineConfig {
            wait_policy: policy,
            ..base_engine()
        };
        let results = run_grid(
            &w,
            vec![DvsStrategy::Cpuspeed, DvsStrategy::StaticMhz(1400)],
            engine,
        );
        let [run, base] = results.as_slice() else {
            unreachable!("a two-strategy grid has two results");
        };
        println!(
            "  {:>24}: E={:.3} D={:.3} transitions/node={:.1}",
            label,
            run.total_energy_j() / base.total_energy_j(),
            run.duration_secs() / base.duration_secs(),
            run.transitions.iter().sum::<u64>() as f64 / run.transitions.len() as f64,
        );
    }
    println!("\nBlocking waits make communication slack visible to utilization-driven");
    println!("governors; busy-wait transports hide it (the paper's cpuspeed result).");
}

/// Run every regenerator in paper order.
pub fn all() {
    fig1_spec_crescendos();
    fig2_weighted_ed2p_curves();
    table1_spec_best_points();
    table2_operating_points();
    fig3_ft_b_crescendo();
    table3_ft_b_best_points();
    fig4_ft_c_strategies();
    fig5_transpose_strategies();
    fig6_memory_micro();
    fig7_cpu_micro();
    fig8_comm_micro();
    ablation_wait_policy();
}
