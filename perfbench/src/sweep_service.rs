//! `sweep-service`: an in-process `pwrperfd` on a loopback socket, driven
//! by one closed-loop `Client` (it sends a request only after the previous
//! reply arrives), in three phases:
//!
//! 1. a cold drain of distinct seeded `ft-b8` cells, in groups: the miss
//!    executor runs the engine and the store writes each record
//!    (`sync_all` + rename);
//! 2. warm re-sweeps of one group per round, served from store reads with
//!    no engine runs;
//! 3. small store-only `query` (aggregate) calls on that group.
//!
//! The timed rounds are phases 2 and 3, the served traffic of a warm
//! store. The cold drain fills the store once before them and is reported
//! per layer only: its store writes wait on `fsync`, which on a shared
//! disk moves several-fold from one second to the next. Nothing is written
//! during the rounds, so the store, which the daemon compacts (reads and
//! validates whole) after every sweep, is the same size in every round.
//!
//! The served phases run on one CPU (`affinity`): the client and the
//! daemon take turns, and a wake-up on the other CPU would time the
//! host's scheduler rather than the daemon.
//!
//! The cells are a paper workload, `ft-b8`, not `cpu-micro`. A warm hit
//! fingerprints the cell's built programs and decodes its record; for
//! `cpu-micro` that work is so small that file system calls dominate the
//! served path, and those swing 2.7x within seconds on a shared VM.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use pwrperf::{
    encode_run_result, Client, Server, ServerConfig, StatusReply, SweepDone, SweepSpec, SweepStore,
};

use crate::affinity;
use crate::inputs::mix;
use crate::report::{expect_eq, median, percentile, ratio, Counts, Gate, Metrics, Outcome};
use crate::rounds::{self, Config, Measured};
use crate::sim::{check_physics, engine_layers};

const STRATEGIES: [&str; 5] = [
    "static-1400",
    "static-1200",
    "static-1000",
    "static-800",
    "static-600",
];
const WORKLOAD: &str = "ft-b8";
const DELTAS: [f64; 2] = [0.0, 0.2];
const STREAM: u64 = 4;
const SETUP_REPS: usize = 31;

/// Sizes: groups of fault seeds the cold drain fills (× 5 strategies =
/// cells per group), and per round the warm re-sweeps of one group and
/// the queries over its first `query_seeds` seeds.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    groups: u64,
    seeds: u64,
    warm_sweeps: usize,
    queries: usize,
    query_seeds: usize,
}

const FULL: Sizes = Sizes {
    groups: 5,
    seeds: 20,
    warm_sweeps: 10,
    queries: 100,
    query_seeds: 4,
};
const SMOKE: Sizes = Sizes {
    groups: 2,
    seeds: 2,
    warm_sweeps: 2,
    queries: 12,
    query_seeds: 1,
};

/// Where the run's store lives, relative to the repository root; it is
/// removed when the run ends.
pub const WORK_DIR: &str = ".perfbench-work";

/// Group `group`'s grid: `sizes.seeds` consecutive fault seeds drawn from
/// the benchmark seed, so groups never share a cell.
fn group_grid(seed: u64, group: u64, sizes: Sizes) -> SweepSpec {
    let first = (mix(seed, STREAM, 0) >> 24) + group * sizes.seeds;
    SweepSpec {
        workloads: vec![WORKLOAD.to_string()],
        strategies: STRATEGIES.iter().map(|s| s.to_string()).collect(),
        deltas: DELTAS.to_vec(),
        fault_specs: (first..first + sizes.seeds)
            .map(|s| format!("seed:{s}"))
            .collect(),
        ..SweepSpec::default()
    }
}

/// A daemon serving one store, and the client connected to it.
struct Service {
    client: Client,
    daemon: Option<JoinHandle<Result<(), pwrperf::ServiceError>>>,
}

impl Service {
    /// Open the store at `dir`, bind a daemon on it (which compacts the
    /// store before it serves), and connect.
    fn start(dir: &Path) -> Result<Service, String> {
        let store = SweepStore::open(dir).map_err(|e| format!("opening the store: {e}"))?;
        let server = Server::bind_tcp(store, ServerConfig::default(), "127.0.0.1:0")
            .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server
            .tcp_addr()
            .ok_or("daemon has no TCP address")?
            .to_string();
        let daemon = std::thread::spawn(move || server.serve());
        match Client::connect_tcp(&addr) {
            Ok(client) => Ok(Service {
                client,
                daemon: Some(daemon),
            }),
            // Without a client nothing can ask the daemon to stop; its
            // thread ends with the process.
            Err(e) => Err(format!("connecting: {e}")),
        }
    }

    /// Ask the daemon to stop and wait for it.
    fn stop(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        let asked = self.client.shutdown().map_err(|e| format!("shutdown: {e}"));
        let served = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("daemon: {e}")));
        asked.and(served)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Errors were reported by an explicit `stop` if anyone asked.
        let _ = self.stop();
    }
}

/// The run's store directory, removed (with the work directory, once
/// empty) when dropped.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another run still has a store there.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// What the cold drain left in the store.
struct Filled {
    grids: Vec<SweepSpec>,
    /// Each group's cold results, encoded: warm replies must match them.
    cold_bytes: Vec<Vec<Vec<u8>>>,
    /// Seconds of each group's cold sweep.
    cold_s: Vec<f64>,
    cells: u64,
    events: u64,
    /// Record files and their bytes on disk after the drain.
    store_files: (u64, u64),
}

/// Drain every group cold into the store at `dir`, one request per group,
/// through a daemon of its own.
fn fill(dir: &Path, seed: u64, sizes: Sizes, gate: &mut Gate) -> Result<Filled, String> {
    let mut service = Service::start(dir)?;
    let mut filled = Filled {
        grids: Vec::new(),
        cold_bytes: Vec::new(),
        cold_s: Vec::new(),
        cells: 0,
        events: 0,
        store_files: (0, 0),
    };
    let cells = sizes.seeds * STRATEGIES.len() as u64;
    for group in 0..sizes.groups {
        let grid = group_grid(seed, group, sizes);
        let t0 = Instant::now();
        let cold = service.client.submit_sweep(&grid);
        filled.cold_s.push(t0.elapsed().as_secs_f64());
        let cold = cold.map_err(|e| format!("cold sweep: {e}"))?;
        gate.record(check_cold(&cold, cells));
        for r in &cold.results {
            check_physics(r, "cold cell")?;
        }
        filled.cells += cells;
        filled.events += cold.results.iter().map(|r| r.events).sum::<u64>();
        filled
            .cold_bytes
            .push(cold.results.iter().map(encode_run_result).collect());
        filled.grids.push(grid);
    }
    service.stop()?;
    filled.store_files = store_files(dir)?;
    Ok(filled)
}

struct RoundData {
    warm_s: f64,
    query_s: Vec<f64>,
    warm_jobs: u64,
    status: Option<StatusReply>,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut gate = Gate::default();
    let sizes = if cfg.smoke { SMOKE } else { FULL };
    out.sizes = vec![
        (
            "cold_cells",
            sizes.groups * sizes.seeds * STRATEGIES.len() as u64,
        ),
        ("cells_per_round", sizes.seeds * STRATEGIES.len() as u64),
        ("warm_sweeps_per_round", sizes.warm_sweeps as u64),
        ("queries_per_round", sizes.queries as u64),
    ];
    let dir = StoreDir(PathBuf::from(WORK_DIR).join(format!("store-{}", std::process::id())));

    // Input generation: the cold drain fills the store. Set-up: bind a
    // daemon on the filled store (its start-up compaction reads and
    // validates every record), connect, and query the first group.
    let expected_rows = (sizes.query_seeds * STRATEGIES.len()) as u64;
    let filled = match fill(&dir.0, cfg.seed, sizes, &mut gate) {
        Ok(filled) => filled,
        Err(e) => {
            gate.record(Err(format!("cold drain: {e}")));
            out.gate = gate;
            return out;
        }
    };
    let subgrid = query_grid(&filled.grids[0], sizes);
    // Every daemon below, and its threads, start on this thread's CPU.
    let pin = affinity::pin_to_one_cpu();
    if let Some(cpu) = pin.cpu {
        out.notes
            .push(format!("set-ups and rounds pinned to CPU {cpu}"));
    }
    let run = rounds::run(
        cfg,
        &mut gate,
        SETUP_REPS,
        || {
            let mut service = Service::start(&dir.0)?;
            let q = service.client.query(&subgrid).map_err(|e| e.to_string())?;
            expect_eq(q.missing, 0, "set-up query missing cells")?;
            expect_eq(q.rows, expected_rows, "set-up query rows")?;
            Ok(service)
        },
        |service, index, traced, gate| {
            let group = (index % sizes.groups) as usize;
            let mut data = RoundData {
                warm_s: 0.0,
                query_s: Vec::with_capacity(sizes.queries),
                warm_jobs: 0,
                status: None,
            };
            let mut counts = Counts::default();
            let before = if traced {
                status(&mut service.client, gate)
            } else {
                None
            };
            serve(
                &mut service.client,
                &filled.grids[group],
                &filled.cold_bytes[group],
                sizes,
                gate,
                &mut data,
                &mut counts,
            );
            if let Some(before) = before {
                if let Some(after) = status(&mut service.client, gate) {
                    for (name, key) in [
                        ("service_requests", "service.requests"),
                        ("service_engine_runs", "service.engine_runs"),
                        ("service_hits", "service.hits"),
                        ("service_misses", "service.misses"),
                        ("service_awaited", "service.awaited"),
                    ] {
                        let delta =
                            after.counter(key).unwrap_or(0) - before.counter(key).unwrap_or(0);
                        counts.set(name, delta);
                    }
                    data.status = Some(after);
                }
            }
            Measured {
                wall: data.warm_s + data.query_s.iter().sum::<f64>(),
                counts,
                data,
            }
        },
    );
    let Some(mut run) = run else {
        out.gate = gate;
        return out;
    };
    gate.record(run.product.stop());
    drop(pin);
    drop(dir);
    let rounds = run.rounds;

    let first = rounds::first(&rounds, cfg.trace);
    out.fingerprint = first.measured.counts.clone();
    out.fingerprint.set("cold_cells", filled.cells);
    out.fingerprint.set("cold_events", filled.events);
    out.fingerprint.set("store_records", filled.store_files.0);
    out.rounds = rounds::kinds(&rounds);
    out.notes.push(rounds::render_walls(&rounds));
    out.end_to_end = rounds::end_to_end(&rounds, run.setup_s, |m| {
        m.data.warm_jobs as f64 / m.data.warm_s
    });
    if cfg.trace {
        out.layers = layers(&rounds, first, &filled);
    }
    out.gate = gate;
    out
}

fn status(client: &mut Client, gate: &mut Gate) -> Option<StatusReply> {
    let reply = client.status().map_err(|e| format!("status: {e}"));
    gate.record(reply.as_ref().map(|_| ()).map_err(Clone::clone));
    reply.ok()
}

/// The cells a round queries: the first `query_seeds` seeds of `grid`.
fn query_grid(grid: &SweepSpec, sizes: Sizes) -> SweepSpec {
    SweepSpec {
        fault_specs: grid.fault_specs[..sizes.query_seeds].to_vec(),
        ..grid.clone()
    }
}

/// Record files under `dir` and their total bytes.
fn store_files(dir: &Path) -> Result<(u64, u64), String> {
    let mut files = 0;
    let mut bytes = 0;
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        let listing = |e: std::io::Error| format!("listing {}: {e}", d.display());
        for entry in std::fs::read_dir(&d).map_err(listing)? {
            let meta = entry.and_then(|e| e.metadata().map(|m| (e.path(), m)));
            let (path, meta) = meta.map_err(listing)?;
            if meta.is_dir() {
                dirs.push(path);
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    Ok((files, bytes))
}

/// One round of served traffic on one group: warm re-sweeps, then
/// queries. Requests are timed one by one; checks run between them,
/// outside the timed sections.
fn serve(
    client: &mut Client,
    grid: &SweepSpec,
    cold_bytes: &[Vec<u8>],
    sizes: Sizes,
    gate: &mut Gate,
    data: &mut RoundData,
    counts: &mut Counts,
) {
    let mut warm_hits = 0;
    for _ in 0..sizes.warm_sweeps {
        let t0 = Instant::now();
        let warm = client.submit_sweep(grid);
        data.warm_s += t0.elapsed().as_secs_f64();
        let warm = warm.map_err(|e| format!("warm sweep: {e}"));
        gate.record(warm.and_then(|warm| {
            check_warm(&warm, cold_bytes)?;
            warm_hits += warm.report.cache_hits;
            data.warm_jobs += warm.report.jobs;
            Ok(())
        }));
    }
    counts.set("warm_hits", warm_hits);

    let subgrid = query_grid(grid, sizes);
    let expected_rows = (sizes.query_seeds * STRATEGIES.len()) as u64;
    let mut rows = 0;
    for _ in 0..sizes.queries {
        let t0 = Instant::now();
        let reply = client.query(&subgrid);
        data.query_s.push(t0.elapsed().as_secs_f64());
        gate.record(reply.map_err(|e| format!("query: {e}")).and_then(|q| {
            rows += q.rows;
            expect_eq(q.missing, 0, "query missing cells")?;
            expect_eq(q.rows, expected_rows, "query rows")
        }));
    }
    counts.set("query_rows", rows);
}

/// A cold drain computes every cell exactly once.
fn check_cold(cold: &SweepDone, cells: u64) -> Result<(), String> {
    expect_eq(cold.report.jobs, cells, "cold jobs")?;
    expect_eq(cold.report.cache_misses, cells, "cold misses")?;
    expect_eq(cold.report.engine_runs, cells, "cold engine runs")?;
    expect_eq(cold.results.len() as u64, cells, "cold results")
}

/// A warm sweep runs nothing and returns the cold bytes exactly.
pub fn check_warm(warm: &SweepDone, cold_bytes: &[Vec<u8>]) -> Result<(), String> {
    expect_eq(warm.report.engine_runs, 0, "warm engine runs")?;
    expect_eq(warm.results.len(), cold_bytes.len(), "warm results")?;
    for (i, (r, cold)) in warm.results.iter().zip(cold_bytes).enumerate() {
        if encode_run_result(r) != *cold {
            return Err(format!("warm cell {i} differs from its cold result"));
        }
    }
    Ok(())
}

fn layers(
    rounds: &[rounds::Round<RoundData>],
    first: &rounds::Round<RoundData>,
    filled: &Filled,
) -> Metrics {
    let get = |name: &str| first.measured.counts.0.get(name).copied().unwrap_or(0) as f64;
    let (records, record_bytes) = filled.store_files;
    let bytes_per_record = ratio(record_bytes as f64, records as f64);
    let cold_s: f64 = filled.cold_s.iter().sum();
    let traced =
        |f: fn(&RoundData) -> f64| median(&rounds::per_round(rounds, true, |m| f(&m.data)));
    // Latencies come from the run's untraced rounds.
    let queries_ms: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| r.measured.data.query_s.iter().map(|s| s * 1e3))
        .collect();
    let mut m = Metrics::new();
    engine_layers(&first.measured.counts, &mut m);
    m.extend([
        // The daemon's engine runs are the cold-drained cells.
        ("mpi-sim.runs", filled.cells as f64),
        ("mpi-sim.events", filled.events as f64),
        ("mpi-sim.events_per_s", ratio(filled.events as f64, cold_s)),
        ("store.hits", get("warm_hits")),
        ("store.misses", filled.cells as f64),
        // On-disk bytes: the sweep report's byte counters are not filled
        // in by the daemon, so the store directory is measured instead.
        ("store.bytes_written", record_bytes as f64),
        ("store.bytes_read", get("warm_hits") * bytes_per_record),
        ("store.bytes_per_record", bytes_per_record),
        ("service.cold_sweep_s", median(&filled.cold_s)),
        (
            "service.cold_jobs_per_s",
            ratio(filled.cells as f64, cold_s),
        ),
        ("service.warm_sweep_s", traced(|d| d.warm_s)),
        ("service.query_s", traced(|d| d.query_s.iter().sum())),
        ("service.query_p50_ms", percentile(&queries_ms, 50.0)),
        ("service.query_p99_ms", percentile(&queries_ms, 99.0)),
        ("service.query_samples", queries_ms.len() as f64),
        ("service.requests", get("service_requests")),
        ("service.engine_runs", get("service_engine_runs")),
        ("service.hits", get("service_hits")),
        ("service.awaited", get("service_awaited")),
        (
            "service.inflight_peak",
            first
                .measured
                .data
                .status
                .as_ref()
                .and_then(|s| s.counter("service.inflight_peak"))
                .unwrap_or(0) as f64,
        ),
        (
            "service.hit_ratio",
            ratio(
                get("service_hits"),
                get("service_hits") + get("service_misses"),
            ),
        ),
        ("trace.overhead_frac", rounds::overhead(rounds)),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn groups_never_share_a_cell_and_sizes_do_not_depend_on_the_seed() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let a = group_grid(seed, 0, FULL);
            let b = group_grid(seed, 1, FULL);
            assert_eq!(a.fault_specs.len(), FULL.seeds as usize);
            assert!(a.fault_specs.iter().all(|s| !b.fault_specs.contains(s)));
            assert!(a.resolve().is_ok());
        }
    }
    #[test]
    fn tampered_warm_bytes_fail_the_gate() {
        let results = vec![pwrperf::Experiment::new(
            pwrperf::Workload::parse_name(WORKLOAD).unwrap(),
            pwrperf::DvsStrategy::StaticMhz(600),
        )
        .run()];
        let warm = SweepDone {
            report: pwrperf::SweepReport {
                jobs: 1,
                cache_hits: 1,
                ..pwrperf::SweepReport::default()
            },
            results,
        };
        let good: Vec<Vec<u8>> = warm.results.iter().map(encode_run_result).collect();
        assert!(check_warm(&warm, &good).is_ok());
        let mut tampered = good.clone();
        tampered[0][0] ^= 1;
        assert!(check_warm(&warm, &tampered).is_err());
        let mut ran = warm.clone();
        ran.report.engine_runs = 1;
        assert!(check_warm(&ran, &good).is_err());
    }
}
