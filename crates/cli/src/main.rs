//! `pwrperf` — run and sweep DVS experiments from the shell.
//!
//! ```sh
//! pwrperf run   -w ft-b8     -s static-800
//! pwrperf run   -w ft-test4  -s dynamic-1400 --metrics --causal -o out/
//! pwrperf sweep -w transpose
//! pwrperf sweep -w ft-c8 --dynamic
//! pwrperf sweep -w swim --delta 0.2
//! pwrperf list
//! ```

mod args;

use std::sync::{Mutex, PoisonError};

use args::Command;
use edp_metrics::{best_operating_point, efficiency_gain, weighted_ed2p, DELTA_HPC};
use pwrperf::{
    DvsStrategy, EngineConfig, Experiment, FaultCounts, RunMeta, RunResult, Sweep, SweepPlan,
    SweepStore, WaitPolicy, Workload,
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
            faults,
            topology,
            out_dir,
        } => {
            let engine = EngineConfig {
                wait_policy: match blocking_ms {
                    None => WaitPolicy::BusyPoll,
                    Some(ms) => WaitPolicy::PollThenBlock(SimDuration::from_millis(ms)),
                },
                metrics,
                causal,
                faults,
                topology,
                ..EngineConfig::default()
            };
            run(workload, strategy, engine, out_dir.as_deref())
        }
        Command::Sweep {
            workload,
            dynamic,
            threads,
            store,
            dry_run,
            faults,
            power_cap,
            topology,
            delta,
        } => {
            let engine = EngineConfig {
                faults,
                topology,
                ..EngineConfig::default()
            };
            let run = GridRun {
                store: store.as_deref(),
                dry_run,
                threads,
            };
            match power_cap {
                Some((watts, policy)) => sweep_cap(workload, watts, policy, engine, run),
                None => sweep(workload, dynamic, engine, delta, run),
            }
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

/// Print `error: <msg>` and exit 1 (a runtime failure; usage errors
/// exit 2 through [`Command::Help`]).
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
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

/// `pwrperf run`: one experiment. Prints the summary, then the stats
/// table (`--metrics`), then the blame table (`--causal`) last; with
/// `-o <dir>` also writes every artifact of the run into `dir`.
fn run(workload: Workload, strategy: DvsStrategy, mut engine: EngineConfig, out_dir: Option<&str>) {
    if out_dir.is_some() {
        // The artifacts need the event timeline and a power profile. A
        // power cap already samples at its control cadence, so it keeps
        // that one: recording never changes the simulated run.
        engine.trace_capacity = 1 << 20;
        if !matches!(strategy, DvsStrategy::PowerCap { .. }) {
            engine.sample_interval = Some(SimDuration::from_millis(100));
        }
    }
    let meta = RunMeta {
        workload: workload.label(),
        strategy: strategy.label(),
        topology: engine.topology,
        seed: engine.faults.seed,
    };
    let result = Experiment::new(workload, strategy)
        .with_engine(engine)
        .run();
    println!("workload : {}", meta.workload);
    println!("strategy : {}", meta.strategy);
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
    if let DvsStrategy::PowerCap { watts, .. } = strategy {
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
            pwrperf::analyze_text(&meta.workload, &meta.strategy, a)
        );
    }
    if let Some(dir) = out_dir {
        write_artifacts(dir, &result, &meta);
    }
}

/// `run -o <dir>`: the PowerPack CSVs, the Perfetto timeline (messages
/// as flow arrows when the run is causal, instants otherwise), and the
/// NDJSON exports the run has data for, each starting with its
/// `{"meta":...}` header. The file list
/// goes to stderr so stdout stays the run's report.
fn write_artifacts(dir: &str, result: &RunResult, meta: &RunMeta) {
    let mut files = vec![
        ("summary.csv", powerpack::summary_to_csv(result)),
        ("samples.csv", powerpack::samples_to_csv(&result.samples)),
        ("trace.csv", powerpack::trace_to_csv(&result.trace)),
        ("run.perfetto.json", pwrperf::perfetto_json(result)),
    ];
    if result.metrics.is_some() {
        files.push((
            "metrics.ndjson",
            pwrperf::metrics_ndjson_with_meta(result, meta),
        ));
    }
    if let Some(a) = &result.attribution {
        files.push(("attribution.ndjson", pwrperf::attribution_ndjson(a, meta)));
    }
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        die(format_args!("cannot create {}: {e}", dir.display()));
    }
    for (name, contents) in files {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            die(format_args!("cannot write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
}

fn open_store(dir: &str) -> SweepStore {
    SweepStore::open(dir).unwrap_or_else(|e| die(format_args!("cannot open store {dir}: {e}")))
}

/// How `pwrperf sweep` runs its grid: through `--store` when given,
/// planned only under `--dry-run`, on `-j` workers.
struct GridRun<'a> {
    store: Option<&'a str>,
    dry_run: bool,
    threads: Option<usize>,
}

impl GridRun<'_> {
    /// Run `strategies` on `workload` as one grid and return the results
    /// in strategy order, after the store-stats line when a store is
    /// used. Under `--dry-run`, print the grid's hit/miss partition
    /// against the store instead and return `None`.
    fn results(
        &self,
        workload: &Workload,
        strategies: Vec<DvsStrategy>,
        engine: EngineConfig,
    ) -> Option<Vec<RunResult>> {
        let fault_specs = vec![engine.faults.clone()];
        let grid = Sweep::grid(vec![workload.clone()], strategies, fault_specs).with_engine(engine);
        let store = self.store.map(|dir| (dir, open_store(dir)));
        // The parser only accepts --dry-run together with --store.
        if let (true, Some((dir, store))) = (self.dry_run, &store) {
            print_plan(&grid.plan(store), dir);
            return None;
        }
        let store = store.map(|(dir, s)| (dir, Mutex::new(s)));
        let outcome = grid
            .run(store.as_ref().map(|(_, s)| s), self.threads)
            .unwrap_or_else(|e| die(e));
        if let Some((dir, store)) = store {
            let stats = store
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .stats();
            println!("store {dir}: {stats}");
        }
        Some(outcome.results)
    }
}

/// `sweep --dry-run`: print the grid's hit/miss partition.
fn print_plan(plan: &SweepPlan, dir: &str) {
    println!(
        "dry run against {dir}: {} jobs, {} cache hits, {} misses",
        plan.cells.len(),
        plan.hits(),
        plan.misses()
    );
    for (cell, &cached) in plan.cells.iter().zip(&plan.cached) {
        println!(
            "  {} {} -> {} [{}]",
            cell.experiment.workload.label(),
            cell.experiment.strategy.label(),
            cell.fingerprint.to_hex(),
            if cached { "hit" } else { "miss" }
        );
    }
}

/// `pwrperf sweep`: the ladder crescendo, then the best operating point
/// by weighted ED²P at `delta` and its gain over the 1400 MHz point.
fn sweep(workload: Workload, dynamic: bool, engine: EngineConfig, delta: f64, run: GridRun) {
    let make: fn(u32) -> DvsStrategy = if dynamic {
        DvsStrategy::DynamicBaseMhz
    } else {
        DvsStrategy::StaticMhz
    };
    let kind = if dynamic { "dynamic" } else { "static" };
    let ladder = pwrperf::ladder_mhz_desc();
    let strategies = ladder.iter().map(|&mhz| make(mhz)).collect();
    let Some(results) = run.results(&workload, strategies, engine) else {
        return;
    };
    let crescendo = pwrperf::crescendo_from_results(&ladder, &results);
    println!("{kind} sweep of {}:", workload.label());
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
    let best = best_operating_point(&crescendo, delta)
        .unwrap_or_else(|| unreachable!("the ladder crescendo is never empty"));
    println!("delta    : {delta}");
    println!("best     : {best} MHz");
    println!(
        "gain     : {:.1}% over {kind} 1400 MHz",
        efficiency_gain(&crescendo, delta) * 100.0
    );
}

/// `pwrperf sweep --power-cap`: compare cap policies against every
/// static ladder point under one engine configuration. Rows are
/// normalized against static 1400 MHz; the wED2P column (lower is
/// better) is the score that ranks capped runs.
fn sweep_cap(
    workload: Workload,
    watts: u32,
    policy: Option<pwrperf::CapPolicy>,
    engine: EngineConfig,
    run: GridRun,
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
    let Some(results) = run.results(&workload, strategies.clone(), engine) else {
        return;
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

/// `pwrperf serve`: run the sweep service daemon until a client sends
/// `shutdown`.
fn serve_daemon(
    store_dir: &str,
    socket: Option<&str>,
    tcp: Option<&str>,
    threads: Option<usize>,
    max_store_bytes: Option<u64>,
) {
    use pwrperf::{CompactionPolicy, Server, ServerConfig};
    let store = open_store(store_dir);
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
    let server = server.unwrap_or_else(|e| die(format_args!("cannot bind: {e}")));
    use std::io::Write as _;
    let _ = std::io::stdout().flush(); // readiness line before blocking
    if let Err(e) = server.serve() {
        die(format_args!("serve loop failed: {e}"));
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
    let mut client = client.unwrap_or_else(|e| die(format_args!("cannot connect: {e}")));
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
        die(e);
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
                 [--faults <spec>] [--topology <spec>] [-o <dir>]
  pwrperf sweep  -w <workload> [--dynamic | --power-cap <spec>]
                 [-j <threads>] [--store <dir> [--dry-run]]
                 [--faults <spec>] [--topology <spec>] [--delta <-1..1>]
  pwrperf serve  --store <dir> (--socket <path> | --tcp <addr>)
                 [-j <threads>] [--max-store-bytes <n>]
  pwrperf client (sweep | query | status | shutdown)
                 (--socket <path> | --tcp <addr>)
                 [-w <workload>]... [-s <strategy>]... [--delta <d>]...
                 [--faults <spec>]... [--topology <spec>] [--causal]
  pwrperf list
  pwrperf help

EXAMPLES:
  pwrperf run   -w ft-b8 -s static-800
  pwrperf run   -w ft-test4 -s dynamic-1400 --metrics --causal -o out/
  pwrperf sweep -w transpose
  pwrperf sweep -w swim --delta 0.2   # best point at the HPC weight
  pwrperf sweep -w ft-c8 -j 5       # ladder points in parallel
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
  slow:<node>:<factor>        scale node's compute cost (straggler), (0,1e3]
  battery-stuck:<node>:<secs> battery reading freezes after <secs>
  battery-noise:<node>:<mwh>  +/- quantization noise on readings
  meter-bias:<node>:<factor>  scale the node's *reported* power
  skip-sample:<prob>          drop whole sampling windows
  dvfs-fail:<node>:<prob>     DVFS transition requests silently fail
  dvfs-latency:<node>:<factor> scale the 10 us transition stall, (0,1e3]
  weak-link:<node>:<factor>   scale node's link bandwidth, [1e-4,1]
An empty spec (the default) leaves every run bit-identical to an
unfaulted simulation; injected-fault counts are printed after a run
and recorded in the metrics registry (engine.faults.*).

`run` prints the run's time, energy and DVS summary. --metrics appends
the PowerScope metrics registry (event counts, message-latency
histograms, DVFS decisions, solver work). --causal appends the blame
analysis: the run's critical path (local residency per rank vs network
hops) and each rank's wall time and joules split into compute,
in-flight communication, and blocked-waiting — the slack a power
redistribution controller could reclaim. The simulation itself is
bit-identical with either on or off.

`run -o <dir>` also writes the run's artifacts: summary.csv,
samples.csv (100 ms power samples, or the cap's own cadence),
trace.csv, run.perfetto.json (a Chrome/Perfetto timeline, open at
ui.perfetto.dev: phase slices per node, MHz and watt counter tracks,
and messages as flow arrows with --causal, send/recv instants without),
metrics.ndjson (with --metrics) and attribution.ndjson (with --causal).
NDJSON files start with a {{\"meta\":...}} header line naming the
workload, strategy, topology, and fault seed. Every export uses
simulated time only, so its bytes are deterministic.

`sweep` runs the ladder crescendo and ends with the best operating
point by weighted ED2P (--delta, default 0.2 = HPC) and its gain over
the 1400 MHz point.

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
recomputes only the perturbed link domains (see `run --metrics` for
the domains_touched/skipped counters). The `ft-scale-<ranks>` workloads
(256/1024/4096) run one class-C FT iteration for scale benchmarking.

Sweeps fan their independent runs over worker threads (auto-detected;
override with -j/--threads or PWRPERF_THREADS). Results are bit-identical
to sequential execution.

With --store <dir>, sweep results are cached by content: each run is
keyed by a fingerprint of its full configuration (workload programs,
strategy, engine, faults), and a re-invoked sweep replays cached points
without executing the engine — bit-identical, resumable after a kill.
--dry-run prints the hit/miss partition; without --store every point
executes.
Example:
  pwrperf sweep -w ft-test4 --store ~/.cache/pwrperf   # cold: 5 misses
  pwrperf sweep -w ft-test4 --store ~/.cache/pwrperf   # warm: 0 misses"
    );
}
