//! `paper-grid`: the paper's 8-rank evaluation grid, 11 workloads × 8
//! DVS strategies, run uncached through the batch runner on every core,
//! then reduced to ED²P/wED²P best points — what users run.
//!
//! Each round slows node 0 by a seeded factor under a seeded fault spec,
//! so rounds are distinct inputs of equal size.

use std::time::Instant;

use edp_metrics::{
    best_operating_point, weighted_ed2p, Crescendo, DELTA_ENERGY, DELTA_HPC, DELTA_PERFORMANCE,
};
use pwrperf::{
    run_batch_telemetry, BatchTelemetry, DvsStrategy, EngineConfig, Experiment, FaultSpec,
    RunResult, Workload,
};

use crate::inputs::{mix, straggler_spec};
use crate::report::{expect_eq, median, ratio, Gate, Metrics, Outcome};
use crate::rounds::{self, Config, Measured};
use crate::sim::{base_counts, check_physics, engine_layers, traced_counts};

pub const WORKLOADS: [&str; 11] = [
    "ft-b8",
    "ft-c8",
    "cg-b8",
    "mg-b8",
    "transpose",
    "swim",
    "mgrid",
    "mem-micro",
    "cpu-micro",
    "comm-256k",
    "comm-4k",
];

pub const STRATEGIES: [&str; 8] = [
    "static-1400",
    "static-1200",
    "static-1000",
    "static-800",
    "static-600",
    "dynamic-1400",
    "cpuspeed",
    "ondemand",
];

/// The static ladder, fastest first: the crescendo the best points use.
const LADDER_MHZ: [u32; 5] = [1400, 1200, 1000, 800, 600];
const DELTAS: [f64; 4] = [DELTA_ENERGY, 0.0, DELTA_HPC, DELTA_PERFORMANCE];
const STREAM: u64 = 1;
const SETUP_REPS: usize = 25;

/// The expected `all_figures` output, relative to the repository root.
pub const FIGURES_GOLDEN: &str = "results/all_figures.txt";

#[derive(Clone)]
struct Cell {
    workload: Workload,
    strategy: DvsStrategy,
    label: String,
}

/// Row-major cells: every strategy of the first workload, then the next.
struct Grid {
    cells: Vec<Cell>,
    per_workload: usize,
}

fn grid(smoke: bool) -> Grid {
    let (workloads, strategies) = if smoke {
        (&WORKLOADS[8..10], &STRATEGIES[3..6])
    } else {
        (&WORKLOADS[..], &STRATEGIES[..])
    };
    let mut cells = Vec::new();
    for w in workloads {
        for s in strategies {
            cells.push(Cell {
                workload: Workload::parse_name(w).expect("grid workload names parse"),
                strategy: DvsStrategy::parse_name(s).expect("grid strategy names parse"),
                label: format!("{w} {s}"),
            });
        }
    }
    Grid {
        cells,
        per_workload: strategies.len(),
    }
}

/// Round `round`'s fault spec: node 0 slowed by a seeded factor.
pub fn round_faults(seed: u64, round: u64) -> String {
    straggler_spec(seed, STREAM, round, 1)
}

fn experiments(cells: &[Cell], seed: u64, round: u64, metrics: bool) -> Vec<Experiment> {
    let faults = FaultSpec::parse(&round_faults(seed, round)).expect("generated fault specs parse");
    cells
        .iter()
        .map(|c| {
            Experiment::new(c.workload.clone(), c.strategy).with_engine(EngineConfig {
                metrics,
                faults: faults.clone(),
                ..EngineConfig::default()
            })
        })
        .collect()
}

/// ED²P/wED²P best points of one round: per workload, the static
/// ladder's best frequency under each ∂, and the best of all eight
/// strategies. Returns the points evaluated.
fn best_points(grid: &Grid, results: &[RunResult]) -> Result<u64, String> {
    let mut points = 0u64;
    for (chunk, rs) in grid
        .cells
        .chunks(grid.per_workload)
        .zip(results.chunks(grid.per_workload))
    {
        let ladder =
            Crescendo::from_pairs(chunk.iter().zip(rs).filter_map(|(c, r)| match c.strategy {
                DvsStrategy::StaticMhz(mhz) if LADDER_MHZ.contains(&mhz) => {
                    Some((mhz, r.total_energy_j(), r.duration_secs()))
                }
                _ => None,
            }));
        let (e0, d0) = (rs[0].total_energy_j(), rs[0].duration_secs());
        for delta in DELTAS {
            if !ladder.is_empty() && best_operating_point(&ladder, delta).is_none() {
                return Err(format!("{}: no best point at ∂={delta}", chunk[0].label));
            }
            let best = rs
                .iter()
                .map(|r| weighted_ed2p(r.total_energy_j() / e0, r.duration_secs() / d0, delta))
                .fold(f64::INFINITY, f64::min);
            if !best.is_finite() {
                return Err(format!("{}: wED²P at ∂={delta} is {best}", chunk[0].label));
            }
            points += rs.len() as u64;
        }
    }
    Ok(points)
}

struct RoundData {
    telemetry: BatchTelemetry,
    tables_s: f64,
    points: u64,
    jobs: usize,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut gate = Gate::default();

    let mut programs_s = Vec::new();
    let mut ops = 0u64;
    let mut sample = None;
    let run = rounds::run(
        cfg,
        &mut gate,
        SETUP_REPS,
        || {
            let grid = grid(cfg.smoke);
            let t0 = Instant::now();
            ops = grid
                .cells
                .iter()
                .step_by(grid.per_workload)
                .flat_map(|c| c.workload.programs(false))
                .map(|p| p.len() as u64)
                .sum();
            programs_s.push(t0.elapsed().as_secs_f64());
            // Warm up the engine and the runner on every workload's first
            // strategy, fault-free.
            let firsts = || grid.cells.iter().step_by(grid.per_workload);
            let warmup = firsts()
                .map(|c| Experiment::new(c.workload.clone(), c.strategy))
                .collect();
            let (warm, _) = run_batch_telemetry(warmup);
            for (r, c) in warm.iter().zip(firsts()) {
                check_physics(r, &format!("warm-up {}", c.label))?;
            }
            Ok(grid)
        },
        |grid, index, traced, gate| {
            let cells = &grid.cells;
            let exps = experiments(cells, cfg.seed, index, traced);
            let pick = (mix(cfg.seed, STREAM, u64::MAX) % exps.len() as u64) as usize;
            let picked = (index == 0 && !traced).then(|| exps[pick].clone());
            let t0 = Instant::now();
            let (results, telemetry) = run_batch_telemetry(exps);
            let t1 = Instant::now();
            let points = best_points(grid, &results);
            let t2 = Instant::now();

            for (r, c) in results.iter().zip(cells) {
                gate.record(check_physics(r, &c.label));
            }
            let points = points.unwrap_or_else(|e| {
                gate.record(Err(e));
                0
            });
            let counts = if traced {
                traced_counts(&results)
            } else {
                base_counts(&results)
            };
            if let Some(exp) = picked {
                sample = Some((exp, results[pick].clone(), cells[pick].label.clone()));
            }
            Measured {
                wall: (t2 - t0).as_secs_f64(),
                counts,
                data: RoundData {
                    telemetry,
                    tables_s: (t2 - t1).as_secs_f64(),
                    points,
                    jobs: results.len(),
                },
            }
        },
    );
    let Some(run) = run else {
        out.gate = gate;
        return out;
    };
    let cells = &run.product.cells;
    out.sizes = vec![
        ("cells", cells.len() as u64),
        (
            "ranks_max",
            cells.iter().map(|c| c.workload.ranks()).max().unwrap_or(0) as u64,
        ),
    ];
    let rounds = run.rounds;

    // Outside the timed window: one sampled job re-run alone on this
    // thread must match its batched result bit for bit.
    if let Some((exp, batched, label)) = sample {
        let alone = exp.run();
        gate.record(expect_eq(
            pwrperf::encode_run_result(&alone),
            pwrperf::encode_run_result(&batched),
            &format!("{label}: re-run on one worker vs batched"),
        ));
        out.notes.push(format!("sampled re-run: {label}"));
    }
    if !cfg.smoke {
        gate.record(check_figures());
    }

    let first = rounds::first(&rounds, cfg.trace);
    out.fingerprint = first.measured.counts.clone();
    out.rounds = rounds::kinds(&rounds);
    out.notes.push(rounds::render_walls(&rounds));
    out.end_to_end = rounds::end_to_end(&rounds, run.setup_s, |m| m.data.jobs as f64 / m.wall);
    if cfg.trace {
        out.layers = layers(&rounds, first, median(&programs_s), ops);
    }
    out.gate = gate;
    out
}

fn layers(
    rounds: &[rounds::Round<RoundData>],
    first: &rounds::Round<RoundData>,
    programs_s: f64,
    ops: u64,
) -> Metrics {
    let busy = |m: &Measured<RoundData>| {
        m.data
            .telemetry
            .per_worker_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
    };
    let busy_s = median(&rounds::per_round(rounds, true, busy));
    let wall_s = median(&rounds::walls(rounds, true));
    let workers = first.measured.data.telemetry.workers as f64;
    let events = first.measured.counts.0["events"] as f64;
    let mut m = Metrics::from([
        ("workloads.programs_s", programs_s),
        ("workloads.ops", ops as f64),
        ("runner.jobs", first.measured.data.telemetry.jobs as f64),
        ("runner.busy_s", busy_s),
        (
            "runner.idle_s",
            median(&rounds::per_round(rounds, true, |m| {
                m.data.telemetry.idle_total().as_secs_f64()
            })),
        ),
        (
            "runner.utilization",
            median(&rounds::per_round(rounds, true, |m| {
                let u = m.data.telemetry.utilization();
                ratio(u.iter().sum(), u.len() as f64)
            })),
        ),
        ("mpi-sim.run_s", busy_s),
        ("mpi-sim.events_per_s", rounds::events_per_s(rounds)),
        ("mpi-sim.ns_per_event", ratio(busy_s * 1e9, events)),
        ("mpi-sim.run_share", ratio(busy_s, wall_s * workers)),
        (
            "edp-metrics.tables_s",
            median(&rounds::per_round(rounds, true, |m| m.data.tables_s)),
        ),
        ("edp-metrics.points", first.measured.data.points as f64),
        ("trace.overhead_frac", rounds::overhead(rounds)),
    ]);
    engine_layers(&first.measured.counts, &mut m);
    m
}

/// `all_figures` output must stay byte-identical to the committed
/// golden. The figures run in a child process (this executable with the
/// `figures` argument) so their stdout can be captured whole.
fn check_figures() -> Result<(), String> {
    let expected = std::fs::read(FIGURES_GOLDEN)
        .map_err(|e| format!("reading {FIGURES_GOLDEN}: {e} (run from the repository root)"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let child = std::process::Command::new(exe)
        .arg("figures")
        .output()
        .map_err(|e| format!("running the figures: {e}"))?;
    if !child.status.success() {
        return Err(format!("figures exited with {}", child.status));
    }
    compare_figures(&child.stdout, &expected)
}

/// Byte-identity of figure output against the golden, naming the first
/// differing line.
pub fn compare_figures(actual: &[u8], expected: &[u8]) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let line = actual
        .split(|&b| b == b'\n')
        .zip(expected.split(|&b| b == b'\n'))
        .position(|(a, e)| a != e)
        .map_or_else(
            || "a missing or extra line".to_string(),
            |i| format!("line {}", i + 1),
        );
    Err(format!(
        "all_figures output differs from {FIGURES_GOLDEN} at {line}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn grid_is_the_papers_88_cells_whatever_the_seed() {
        let grid = grid(false);
        let cells = &grid.cells;
        assert_eq!(cells.len(), 88);
        assert_eq!(grid.per_workload, STRATEGIES.len());
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let a = experiments(cells, seed, 3, false);
            let b = experiments(cells, seed, 3, false);
            assert_eq!(a.len(), 88);
            assert_eq!(
                pwrperf::fingerprint_experiment(&a[17]),
                pwrperf::fingerprint_experiment(&b[17])
            );
        }
        assert_ne!(
            round_faults(DEFAULT_SEED, 0),
            round_faults(HELD_OUT_SEED, 0)
        );
    }

    #[test]
    fn tampered_figures_golden_fails_the_gate() {
        let golden = b"Table 1\nrow a 1.00\nrow b 2.00\n";
        assert!(compare_figures(golden, golden).is_ok());
        let err = compare_figures(golden, b"Table 1\nrow a 1.00\nrow b 2.01\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(compare_figures(golden, b"Table 1\n").is_err());
    }
}
