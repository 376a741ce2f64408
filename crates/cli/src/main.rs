//! `pwrperf` — run, sweep, and analyze DVS experiments from the shell.
//!
//! ```sh
//! pwrperf run   -w ft-b8     -s static-800
//! pwrperf sweep -w transpose
//! pwrperf sweep -w ft-c8 --dynamic
//! pwrperf best  -w swim --delta 0.2
//! pwrperf list
//! ```

mod args;

use args::Command;
use edp_metrics::{best_operating_point, efficiency_gain, weighted_ed2p, DELTA_HPC};
use pwrperf::{
    static_crescendo, DvsStrategy, EngineConfig, Experiment, FaultCounts, FaultSpec, Topology,
    WaitPolicy, Workload,
};
use sim_core::SimDuration;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
    match args::parse(&refs) {
        Command::Run {
            workload,
            strategy,
            blocking_ms,
            metrics,
            causal,
            trace_capacity,
            faults,
            topology,
        } => run(
            workload,
            strategy,
            blocking_ms,
            metrics,
            causal,
            trace_capacity,
            faults,
            topology,
        ),
        Command::Sweep {
            workload,
            dynamic,
            threads,
            store,
            dry_run,
            no_cache,
            faults,
            power_cap,
            topology,
        } => {
            set_threads(threads);
            let engine = EngineConfig {
                faults,
                topology,
                ..EngineConfig::default()
            };
            match power_cap {
                Some((watts, policy)) => sweep_cap(
                    workload,
                    watts,
                    policy,
                    store.as_deref(),
                    dry_run,
                    no_cache,
                    engine,
                ),
                None => sweep(
                    workload,
                    dynamic,
                    store.as_deref(),
                    dry_run,
                    no_cache,
                    engine,
                ),
            }
        }
        Command::Export {
            workload,
            strategy,
            out_dir,
            metrics,
            trace_capacity,
            faults,
        } => export(
            workload,
            strategy,
            &out_dir,
            metrics,
            trace_capacity,
            faults,
        ),
        Command::Trace {
            workload,
            strategy,
            out,
            trace_capacity,
            blocking_ms,
            faults,
        } => trace(
            workload,
            strategy,
            &out,
            trace_capacity,
            blocking_ms,
            faults,
        ),
        Command::Stats {
            workload,
            strategy,
            out,
            trace_capacity,
            blocking_ms,
            faults,
            topology,
        } => stats(
            workload,
            strategy,
            out.as_deref(),
            trace_capacity,
            blocking_ms,
            faults,
            topology,
        ),
        Command::Analyze {
            workload,
            strategy,
            out,
            perfetto,
            blocking_ms,
            faults,
            topology,
        } => analyze(
            workload,
            strategy,
            out.as_deref(),
            perfetto.as_deref(),
            blocking_ms,
            faults,
            topology,
        ),
        Command::Best {
            workload,
            delta,
            threads,
        } => {
            set_threads(threads);
            best(workload, delta)
        }
        Command::Serve {
            store,
            socket,
            tcp,
            threads,
            max_store_bytes,
        } => serve_daemon(
            &store,
            socket.as_deref(),
            tcp.as_deref(),
            threads,
            max_store_bytes,
        ),
        Command::Client {
            socket,
            tcp,
            action,
        } => client_cmd(socket.as_deref(), tcp.as_deref(), action),
        Command::List => list(),
        Command::Help(msg) => {
            let failed = msg.is_some();
            if let Some(msg) = msg {
                eprintln!("error: {msg}\n");
            }
            help();
            if failed {
                std::process::exit(2);
            }
        }
    }
}

/// Apply a `-j`/`--threads` override to the batch runner (equivalent to
/// setting `PWRPERF_THREADS` in the environment).
fn set_threads(threads: Option<usize>) {
    if let Some(n) = threads {
        std::env::set_var(pwrperf::THREADS_ENV, n.to_string());
    }
}

fn engine_for(blocking_ms: Option<u64>) -> EngineConfig {
    EngineConfig {
        wait_policy: match blocking_ms {
            None => WaitPolicy::BusyPoll,
            Some(ms) => WaitPolicy::PollThenBlock(SimDuration::from_millis(ms)),
        },
        ..EngineConfig::default()
    }
}

/// Print the injected-fault tally when any fault fired.
fn print_faults(c: &FaultCounts) {
    if c.total() == 0 {
        return;
    }
    println!(
        "faults   : {} injected (slowdowns {}, dvfs fail/spike {}/{}, \
         battery stuck/noisy/err {}/{}/{}, samples skipped {}, \
         meter-biased {}, degraded links {})",
        c.total(),
        c.compute_slowdowns,
        c.dvfs_failures,
        c.dvfs_latency_spikes,
        c.battery_stuck_reads,
        c.battery_noisy_reads,
        c.battery_errors,
        c.samples_skipped,
        c.meter_biased_samples,
        c.degraded_links
    );
}

#[allow(clippy::too_many_arguments)] // mirrors the flag set, one hop from parse
fn run(
    workload: Workload,
    strategy: pwrperf::DvsStrategy,
    blocking_ms: Option<u64>,
    metrics: bool,
    causal: bool,
    trace_capacity: Option<usize>,
    faults: FaultSpec,
    topology: Topology,
) {
    let engine = EngineConfig {
        metrics,
        causal,
        trace_capacity: trace_capacity.unwrap_or(0),
        faults,
        topology,
        ..engine_for(blocking_ms)
    };
    let result = Experiment::new(workload.clone(), strategy)
        .with_engine(engine)
        .run();
    println!("workload : {}", workload.label());
    println!("strategy : {}", strategy.label());
    println!("time     : {:.2} s", result.duration_secs());
    println!(
        "energy   : {:.0} J (avg {:.1} W)",
        result.total_energy_j(),
        result.average_power_w()
    );
    println!(
        "components: cpu_dyn {:.0} J | cpu_static {:.0} J | base {:.0} J | mem {:.0} J | nic {:.0} J",
        result.total.cpu_dynamic_j,
        result.total.cpu_static_j,
        result.total.base_j,
        result.total.memory_j,
        result.total.nic_j
    );
    println!(
        "transitions: {} total across {} nodes",
        result.transitions.iter().sum::<u64>(),
        result.transitions.len()
    );
    if let pwrperf::DvsStrategy::PowerCap { watts, .. } = strategy {
        let peak = result
            .samples
            .iter()
            .map(|s| s.node_power_w.iter().sum::<f64>())
            .fold(0.0, f64::max);
        println!(
            "power cap: {watts} W budget, peak sampled {peak:.1} W across {} samples [{}]",
            result.samples.len(),
            if peak <= f64::from(watts) {
                "held"
            } else {
                "EXCEEDED"
            }
        );
    }
    print_faults(&result.faults);
    let avg_compute: f64 = result
        .breakdown
        .iter()
        .map(|b| b.compute_fraction())
        .sum::<f64>()
        / result.breakdown.len() as f64;
    println!("avg compute fraction: {:.1}%", avg_compute * 100.0);
    // Cluster-aggregate time_in_state (cpufreq-style residency).
    if let Some(first) = result.freq_residency.first() {
        let mut totals: Vec<(u32, f64)> = first.iter().map(|(mhz, _)| (*mhz, 0.0)).collect();
        for node in &result.freq_residency {
            for (slot, (_, d)) in totals.iter_mut().zip(node) {
                slot.1 += d.as_secs_f64();
            }
        }
        let all: f64 = totals.iter().map(|(_, t)| t).sum();
        if all > 0.0 {
            print!("time in state:");
            for (mhz, t) in totals.iter().rev() {
                print!(" {mhz}MHz {:.1}%", 100.0 * t / all);
            }
            println!();
        }
    }
    if let Some(life) = powerpack::battery_life_secs(&result, 72_000.0) {
        println!(
            "battery life at this draw: {:.0} min (72 Wh pack, hungriest node)",
            life / 60.0
        );
    }
    if result.metrics.is_some() {
        println!();
        print!("{}", pwrperf::stats_text(&result));
    }
    if let Some(a) = &result.attribution {
        println!();
        print!(
            "{}",
            pwrperf::analyze_text(&workload.label(), &strategy.label(), a)
        );
    }
}

/// `pwrperf analyze`: run with causal recording and print the blame
/// analysis — critical path, per-rank compute/comm/blocked split, and
/// the energy attribution (optionally dumped as NDJSON, optionally with
/// a flow-arrow Perfetto timeline).
#[allow(clippy::too_many_arguments)] // mirrors the flag set, one hop from parse
fn analyze(
    workload: Workload,
    strategy: pwrperf::DvsStrategy,
    out: Option<&str>,
    perfetto: Option<&str>,
    blocking_ms: Option<u64>,
    faults: FaultSpec,
    topology: Topology,
) {
    let seed = faults.seed;
    let engine = EngineConfig {
        causal: true,
        // The Perfetto export wants phase slices under the flow arrows.
        trace_capacity: if perfetto.is_some() { 1 << 20 } else { 0 },
        faults,
        topology,
        ..engine_for(blocking_ms)
    };
    let result = Experiment::new(workload.clone(), strategy)
        .with_engine(engine)
        .run();
    // `analyze` arms causal recording itself, but a cached or replayed
    // record can still come back without a log; fail with the typed
    // error instead of panicking over the missing attribution.
    let table = match pwrperf::try_analyze_text(&workload.label(), &strategy.label(), &result) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let attribution = result
        .attribution
        .as_ref()
        .unwrap_or_else(|| unreachable!("try_analyze_text verified the attribution is present"));
    print_faults(&result.faults);
    print!("{table}");
    let meta = pwrperf::RunMeta {
        workload: workload.label(),
        strategy: strategy.label(),
        topology,
        seed,
    };
    if let Some(path) = out {
        let ndjson = pwrperf::attribution_ndjson(attribution, &meta);
        if let Err(e) = std::fs::write(path, &ndjson) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path} ({} records)", ndjson.lines().count());
    }
    if let Some(path) = perfetto {
        let json = pwrperf::perfetto_json(&result);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path} ({} bytes, {} flow arrows) — open at ui.perfetto.dev",
            json.len(),
            result.causal.as_ref().map_or(0, |l| l.msgs.len())
        );
    }
}

/// `pwrperf trace`: run under full instrumentation and write a Perfetto
/// timeline (open at https://ui.perfetto.dev).
fn trace(
    workload: Workload,
    strategy: pwrperf::DvsStrategy,
    out: &str,
    trace_capacity: Option<usize>,
    blocking_ms: Option<u64>,
    faults: FaultSpec,
) {
    let engine = EngineConfig {
        trace_capacity: trace_capacity.unwrap_or(1 << 20),
        sample_interval: Some(SimDuration::from_millis(100)),
        metrics: true,
        faults,
        ..engine_for(blocking_ms)
    };
    let result = Experiment::new(workload.clone(), strategy)
        .with_engine(engine)
        .run();
    let json = pwrperf::perfetto_json(&result);
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {out} ({} bytes, {} trace events, {} dropped) — open at ui.perfetto.dev",
        json.len(),
        result.trace.len(),
        result.trace_dropped
    );
    println!(
        "run: {} under {} — {:.2} s, {:.0} J",
        workload.label(),
        strategy.label(),
        result.duration_secs(),
        result.total_energy_j()
    );
    print_faults(&result.faults);
}

/// `pwrperf stats`: run under metrics collection and print the PowerScope
/// summary (optionally dumping the registry as NDJSON).
#[allow(clippy::too_many_arguments)] // mirrors the flag set, one hop from parse
fn stats(
    workload: Workload,
    strategy: pwrperf::DvsStrategy,
    out: Option<&str>,
    trace_capacity: Option<usize>,
    blocking_ms: Option<u64>,
    faults: FaultSpec,
    topology: Topology,
) {
    let seed = faults.seed;
    let engine = EngineConfig {
        trace_capacity: trace_capacity.unwrap_or(0),
        metrics: true,
        faults,
        topology,
        ..engine_for(blocking_ms)
    };
    let result = Experiment::new(workload.clone(), strategy)
        .with_engine(engine)
        .run();
    println!("workload : {}", workload.label());
    println!("strategy : {}", strategy.label());
    print_faults(&result.faults);
    print!("{}", pwrperf::stats_text(&result));
    if let Some(path) = out {
        let meta = pwrperf::RunMeta {
            workload: workload.label(),
            strategy: strategy.label(),
            topology,
            seed,
        };
        let ndjson = pwrperf::metrics_ndjson_with_meta(&result, &meta);
        if let Err(e) = std::fs::write(path, &ndjson) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        // First line is the run-metadata header, the rest are metrics.
        println!(
            "wrote {path} ({} metrics + meta header)",
            ndjson.lines().count().saturating_sub(1)
        );
    }
}

fn sweep(
    workload: Workload,
    dynamic: bool,
    store: Option<&str>,
    dry_run: bool,
    no_cache: bool,
    engine: EngineConfig,
) {
    let make: fn(u32) -> pwrperf::DvsStrategy = if dynamic {
        pwrperf::DvsStrategy::DynamicBaseMhz
    } else {
        pwrperf::DvsStrategy::StaticMhz
    };
    let crescendo = match store {
        Some(dir) if !no_cache => {
            let mut store = match pwrperf::SweepStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot open store {dir}: {e}");
                    std::process::exit(1);
                }
            };
            let grid = pwrperf::Sweep::grid(
                vec![workload.clone()],
                pwrperf::ladder_mhz_desc().into_iter().map(make).collect(),
                Vec::new(),
                vec![engine.faults.clone()],
            )
            .with_engine(engine.clone());
            if dry_run {
                let plan = grid.plan(&store);
                println!(
                    "dry run against {dir}: {} jobs, {} cache hits, {} misses",
                    plan.jobs.len(),
                    plan.hits(),
                    plan.misses()
                );
                for job in &plan.jobs {
                    println!(
                        "  {} {} -> {} [{}]",
                        job.experiment.workload.label(),
                        job.experiment.strategy.label(),
                        job.fingerprint.to_hex(),
                        if job.cached { "hit" } else { "miss" }
                    );
                }
                return;
            }
            match pwrperf::crescendo_cached(&workload, engine, make, &mut store) {
                Ok(c) => {
                    let s = store.stats();
                    println!(
                        "store {dir}: {} hits, {} misses, {} corrupt, {} B read, {} B written",
                        s.hits, s.misses, s.corrupt, s.bytes_read, s.bytes_written
                    );
                    c
                }
                Err(e) => {
                    eprintln!("error: store {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => pwrperf::crescendo_with(&workload, engine, make),
    };
    println!(
        "{} sweep of {}:",
        if dynamic { "dynamic" } else { "static" },
        workload.label()
    );
    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>8} {:>12}",
        "MHz", "energy(J)", "delay(s)", "E/E0", "D/D0", "wED2P(HPC)"
    );
    for (point, (mhz, e, d)) in crescendo.points().iter().zip(crescendo.normalized()) {
        println!(
            "{:>6} {:>12.1} {:>10.3} {:>8.3} {:>8.3} {:>12.3}",
            mhz,
            point.energy_j,
            point.delay_s,
            e,
            d,
            weighted_ed2p(e, d, DELTA_HPC)
        );
    }
}

/// `pwrperf sweep --power-cap`: compare cap policies against every
/// static ladder point under one engine configuration. Rows are
/// normalized against static 1400 MHz; the wED2P column (lower is
/// better) is the score that ranks capped runs.
fn sweep_cap(
    workload: Workload,
    watts: u32,
    policy: Option<pwrperf::CapPolicy>,
    store: Option<&str>,
    dry_run: bool,
    no_cache: bool,
    engine: EngineConfig,
) {
    use pwrperf::CapPolicy;
    let mut strategies: Vec<DvsStrategy> = pwrperf::ladder_mhz_desc()
        .into_iter()
        .map(DvsStrategy::StaticMhz)
        .collect();
    match policy {
        Some(policy) => strategies.push(DvsStrategy::PowerCap { watts, policy }),
        None => {
            for policy in [CapPolicy::Uniform, CapPolicy::Redistribute] {
                strategies.push(DvsStrategy::PowerCap { watts, policy });
            }
        }
    }
    let fault_specs = vec![engine.faults.clone()];
    let grid = pwrperf::Sweep::grid(
        vec![workload.clone()],
        strategies.clone(),
        Vec::new(),
        fault_specs,
    )
    .with_engine(engine);
    let results = match store {
        Some(dir) if !no_cache => {
            let mut store = match pwrperf::SweepStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot open store {dir}: {e}");
                    std::process::exit(1);
                }
            };
            if dry_run {
                let plan = grid.plan(&store);
                println!(
                    "dry run against {dir}: {} jobs, {} cache hits, {} misses",
                    plan.jobs.len(),
                    plan.hits(),
                    plan.misses()
                );
                for job in &plan.jobs {
                    println!(
                        "  {} {} -> {} [{}]",
                        job.experiment.workload.label(),
                        job.experiment.strategy.label(),
                        job.fingerprint.to_hex(),
                        if job.cached { "hit" } else { "miss" }
                    );
                }
                return;
            }
            match grid.run(&mut store, None) {
                Ok(outcome) => {
                    let s = store.stats();
                    println!(
                        "store {dir}: {} hits, {} misses, {} corrupt, {} B read, {} B written",
                        s.hits, s.misses, s.corrupt, s.bytes_read, s.bytes_written
                    );
                    outcome.results
                }
                Err(e) => {
                    eprintln!("error: store {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => grid.run_uncached(None).results,
    };
    println!(
        "power-cap sweep of {} under a {watts} W cluster budget:",
        workload.label()
    );
    println!(
        "{:>18} {:>12} {:>10} {:>8} {:>8} {:>12} {:>10}",
        "strategy", "energy(J)", "delay(s)", "E/E0", "D/D0", "wED2P(HPC)", "peak(W)"
    );
    // Normalization base: the first row is always static 1400 MHz.
    let e0 = results[0].total_energy_j();
    let d0 = results[0].duration_secs();
    for (strategy, result) in strategies.iter().zip(&results) {
        let e = result.total_energy_j() / e0;
        let d = result.duration_secs() / d0;
        let peak = result
            .samples
            .iter()
            .map(|s| s.node_power_w.iter().sum::<f64>())
            .fold(0.0, f64::max);
        let peak = if result.samples.is_empty() {
            "-".to_string()
        } else {
            format!("{peak:.1}")
        };
        println!(
            "{:>18} {:>12.1} {:>10.3} {:>8.3} {:>8.3} {:>12.3} {:>10}",
            strategy.label(),
            result.total_energy_j(),
            result.duration_secs(),
            e,
            d,
            weighted_ed2p(e, d, DELTA_HPC),
            peak
        );
    }
}

fn best(workload: Workload, delta: f64) {
    let crescendo = static_crescendo(&workload);
    let best = best_operating_point(&crescendo, delta).expect("non-empty crescendo");
    let gain = efficiency_gain(&crescendo, delta);
    println!("workload : {}", workload.label());
    println!("delta    : {delta}");
    println!("best     : {best} MHz");
    println!("gain     : {:.1}% over static 1400 MHz", gain * 100.0);
}

fn export(
    workload: Workload,
    strategy: pwrperf::DvsStrategy,
    out_dir: &str,
    metrics: bool,
    trace_capacity: Option<usize>,
    faults: FaultSpec,
) {
    let engine = EngineConfig {
        sample_interval: Some(SimDuration::from_millis(100)),
        trace_capacity: trace_capacity.unwrap_or(1 << 20),
        metrics,
        faults,
        ..EngineConfig::default()
    };
    let result = Experiment::new(workload.clone(), strategy)
        .with_engine(engine)
        .run();
    let dir = std::path::Path::new(out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        std::process::exit(1);
    }
    let mut files = vec![
        ("samples.csv", powerpack::samples_to_csv(&result.samples)),
        ("trace.csv", powerpack::trace_to_csv(&result.trace)),
        ("summary.csv", powerpack::summary_to_csv(&result)),
    ];
    if metrics {
        files.push(("metrics.ndjson", pwrperf::metrics_ndjson(&result)));
    }
    for (name, contents) in files {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
    println!(
        "run: {} under {} — {:.2} s, {:.0} J",
        workload.label(),
        strategy.label(),
        result.duration_secs(),
        result.total_energy_j()
    );
    print_faults(&result.faults);
}

/// `pwrperf serve`: run the sweep service daemon until a client sends
/// `shutdown`.
fn serve_daemon(
    store_dir: &str,
    socket: Option<&str>,
    tcp: Option<&str>,
    threads: Option<usize>,
    max_store_bytes: Option<u64>,
) {
    use pwrperf::{CompactionPolicy, Server, ServerConfig, SweepStore};
    let store = match SweepStore::open(store_dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: cannot open store {store_dir}: {e}");
            std::process::exit(1);
        }
    };
    let config = ServerConfig {
        workers: threads,
        compaction: CompactionPolicy { max_store_bytes },
    };
    let server = match (socket, tcp) {
        (Some(path), None) => Server::bind_unix(store, config, path).inspect(|_| {
            println!("pwrperfd listening on unix socket {path} (store: {store_dir})");
        }),
        (None, Some(addr)) => Server::bind_tcp(store, config, addr).inspect(|s| {
            let bound = s
                .tcp_addr()
                .map_or_else(|| addr.to_string(), |a| a.to_string());
            println!("pwrperfd listening on tcp {bound} (store: {store_dir})");
        }),
        _ => unreachable!("the parser enforces exactly one endpoint"),
    };
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    use std::io::Write as _;
    let _ = std::io::stdout().flush(); // readiness line before blocking
    if let Err(e) = server.serve() {
        eprintln!("error: serve loop failed: {e}");
        std::process::exit(1);
    }
    println!("pwrperfd: clean shutdown");
}

/// `pwrperf client`: one request against a running daemon.
fn client_cmd(socket: Option<&str>, tcp: Option<&str>, action: args::ClientAction) {
    use args::ClientAction;
    use pwrperf::Client;
    let client = match (socket, tcp) {
        (Some(path), None) => Client::connect_unix(path),
        (None, Some(addr)) => Client::connect_tcp(addr),
        _ => unreachable!("the parser enforces exactly one endpoint"),
    };
    let mut client = match client {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match action {
        ClientAction::Sweep(spec) => client.submit_sweep(&spec).map(|done| {
            println!("{}", done.report.render_text().trim_end());
            println!("{} results received", done.results.len());
        }),
        ClientAction::Query(spec) => client.query(&spec).map(|reply| {
            print!("{}", reply.table);
            println!(
                "query: {} rows, {} missing (store-only; nothing executed)",
                reply.rows, reply.missing
            );
        }),
        ClientAction::Status => client.status().map(|status| {
            for (name, value) in &status.counters {
                println!("{name} {value}");
            }
        }),
        ClientAction::Shutdown => client.shutdown().map(|()| {
            println!("daemon acknowledged shutdown");
        }),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn list() {
    println!("workloads:");
    for w in Workload::names() {
        println!("  {w}");
    }
    println!("strategies:");
    for s in DvsStrategy::names() {
        println!("  {s}");
    }
}

fn help() {
    println!(
        "pwrperf — power-performance analysis on a simulated DVS cluster
(reproduction of Ge, Feng, Cameron, IPPS 2005)

USAGE:
  pwrperf run    -w <workload> (-s <strategy> | --power-cap <spec>)
                 [--blocking-waits <ms>] [--metrics] [--causal]
                 [--trace-capacity <n>] [--faults <spec>]
                 [--topology <spec>]
  pwrperf sweep  -w <workload> [--dynamic | --power-cap <spec>]
                 [-j <threads>] [--store <dir> [--dry-run] | --no-cache]
                 [--faults <spec>] [--topology <spec>]
  pwrperf best   -w <workload> [--delta <-1..1>] [-j <threads>]
  pwrperf export -w <workload> -s <strategy> [-o <dir>] [--metrics]
                 [--trace-capacity <n>] [--faults <spec>]
  pwrperf trace  -w <workload> -s <strategy> [-o <file>]
                 [--trace-capacity <n>] [--blocking-waits <ms>]
                 [--faults <spec>]
  pwrperf stats  -w <workload> -s <strategy> [-o <ndjson-file>]
                 [--trace-capacity <n>] [--blocking-waits <ms>]
                 [--faults <spec>] [--topology <spec>]
  pwrperf analyze -w <workload> -s <strategy> [-o <ndjson-file>]
                 [--perfetto <file>] [--blocking-waits <ms>]
                 [--faults <spec>] [--topology <spec>]
  pwrperf serve  --store <dir> (--socket <path> | --tcp <addr>)
                 [-j <threads>] [--max-store-bytes <n>]
  pwrperf client (sweep | query | status | shutdown)
                 (--socket <path> | --tcp <addr>)
                 [-w <workload>]... [-s <strategy>]... [--delta <d>]...
                 [--faults <spec>]... [--topology <spec>] [--causal]
  pwrperf list

EXAMPLES:
  pwrperf run   -w ft-b8 -s static-800
  pwrperf sweep -w transpose
  pwrperf best  -w swim --delta 0.2
  pwrperf sweep -w ft-c8 -j 5       # ladder points in parallel
  pwrperf trace -w ft-test4 -s dynamic-1400 -o run.perfetto.json
  pwrperf stats -w swim -s cpuspeed -o metrics.ndjson
  pwrperf run   -w ft-test4 -s dynamic-1400 \\
                --faults seed:7,slow:2:1.5,battery-stuck:1:40
  pwrperf run   -w ft-scale-4096 -s static-1400 \\
                --topology fat-tree:radix=16,oversub=2
  pwrperf run   -w ft-test4 --power-cap 100 --faults slow:0:3.0
  pwrperf sweep -w ft-test4 --power-cap 100 --faults slow:0:3.0
  pwrperf serve --store /tmp/cache --socket /tmp/pwrperfd.sock
  pwrperf client sweep --socket /tmp/pwrperfd.sock \\
                -w ft-test4 -s static-800 -s cpuspeed --delta 0.2
  pwrperf client query --socket /tmp/pwrperfd.sock \\
                -w ft-test4 -s static-800 -s cpuspeed --delta 0.2

FAULT SPECS (comma-separated; deterministic under a fixed seed):
  seed:<u64>                  RNG seed (default 0x5EEDFA17)
  slow:<node>:<factor>        scale node's compute cost (straggler)
  battery-stuck:<node>:<secs> battery reading freezes after <secs>
  battery-noise:<node>:<mwh>  +/- quantization noise on readings
  meter-bias:<node>:<factor>  scale the node's *reported* power
  skip-sample:<prob>          drop whole sampling windows
  dvfs-fail:<node>:<prob>     DVFS transition requests silently fail
  dvfs-latency:<node>:<factor> scale the 10 us transition stall
  weak-link:<node>:<factor>   scale node's link bandwidth, (0,1]
An empty spec (the default) leaves every run bit-identical to an
unfaulted simulation; injected-fault counts are printed after a run
and recorded in the metrics registry (engine.faults.*).

`trace` writes a Chrome/Perfetto timeline (open at ui.perfetto.dev):
phase slices and message instants per node, plus MHz and watt counter
tracks. `stats` prints the PowerScope metrics registry (event counts,
message-latency histograms, DVFS decisions, solver work). Both use
simulated time only, so output bytes are deterministic.

`analyze` runs under causal tracing and prints the blame analysis:
the run's critical path (local residency per rank vs network hops)
and each rank's wall time and joules split into compute, in-flight
communication, and blocked-waiting — the slack a power redistribution
controller could reclaim. `run --causal` appends the same table to a
normal run. The simulation itself is bit-identical with tracing on or
off. NDJSON exports start with a {{\"meta\":...}} header line naming the
workload, strategy, topology, and fault seed.

--power-cap <watts>[,policy=uniform|redistribute] runs the cluster
power-budget controller: at every power sample the controller replans
per-node frequencies so worst-case cluster draw stays under the budget.
`uniform` pins every node to the highest common ladder point that fits;
`redistribute` (the `run` default) reclaims budget from ranks blocked
in communication and grants it to lagging ranks, one ladder step at a
time, most-starved first. `run --power-cap` prints the budget, the peak
sampled draw, and whether the cap held; `sweep --power-cap` compares
the cap policies against every static ladder point with weighted-ED2P
scoring (no policy given = both policies).

--topology picks the interconnect: `flat` (the paper's single switch,
the default) or `fat-tree[:radix=R,oversub=S]`, a switch hierarchy with
per-level trunk capacities and an S:1 taper going up. Flows then share
every link on their up/down path under max-min fairness; the solver
recomputes only the perturbed link domains (see `stats` for the
domains_touched/skipped counters). The `ft-scale-<ranks>` workloads
(256/1024/4096) run one class-C FT iteration for scale benchmarking.

Sweeps fan their independent runs over worker threads (auto-detected;
override with -j/--threads or PWRPERF_THREADS). Results are bit-identical
to sequential execution.

With --store <dir>, sweep results are cached by content: each run is
keyed by a fingerprint of its full configuration (workload programs,
strategy, engine, faults), and a re-invoked sweep replays cached points
without executing the engine — bit-identical, resumable after a kill.
--dry-run prints the hit/miss partition; --no-cache forces execution.
Example:
  pwrperf sweep -w ft-test4 --store ~/.cache/pwrperf   # cold: 5 misses
  pwrperf sweep -w ft-test4 --store ~/.cache/pwrperf   # warm: 0 misses"
    );
}
