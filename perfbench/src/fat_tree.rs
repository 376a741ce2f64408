//! `fat-tree-1024`: one `ft-scale-1024` static-1400 iteration on a
//! radix-16, 2:1-oversubscribed fat tree, with a seeded straggler. A
//! single long run where the tree-mode network model and a 1024-deep
//! event queue dominate and DVFS does nothing.
//!
//! The gate checks physical invariants only; tree-mode numbers are
//! expected to change when the network model does, so none is pinned.

use std::time::Instant;

use pwrperf::{DvsStrategy, EngineConfig, Experiment, FaultSpec, RunResult, Topology, Workload};

use crate::inputs::straggler_spec;
use crate::report::{median, ratio, Gate, Metrics, Outcome};
use crate::rounds::{self, Config, Measured, Round};
use crate::sim::{base_counts, check_physics, engine_layers, traced_counts};

pub const TOPOLOGY: &str = "fat-tree:radix=16,oversub=2";
const RANKS: usize = 1024;
const SMOKE_RANKS: usize = 64;
const STREAM: u64 = 2;
const SETUP_REPS: usize = 15;
const WARMUP_RANKS: usize = 64;

pub fn run(cfg: &Config) -> Outcome {
    let ranks = if cfg.smoke { SMOKE_RANKS } else { RANKS };
    let no_exports = |_: &RunResult| ();
    let no_checks = |_: &RunResult, _: &mut ()| Ok(());
    let (out, _) = single_run(
        cfg, ranks, TOPOLOGY, STREAM, SETUP_REPS, false, no_exports, no_checks,
    );
    out
}

/// One round of a single-run workload.
pub struct SingleRound<E> {
    /// Seconds in `Experiment::run`.
    pub run_s: f64,
    /// What the workload's exports returned.
    pub exports: E,
}

/// What `fat-tree-1024` and `blame-256` share: one large single run per
/// round on `topology`, straggler from stream `stream`. The round's wall
/// covers the run and `exports`, what a user does with the result;
/// `check` then runs untimed on the result and the exports. The rounds are returned so the caller
/// can read its exports.
#[allow(clippy::too_many_arguments)]
pub fn single_run<E>(
    cfg: &Config,
    ranks: usize,
    topology: &str,
    stream: u64,
    setup_reps: usize,
    causal: bool,
    mut exports: impl FnMut(&RunResult) -> E,
    mut check: impl FnMut(&RunResult, &mut E) -> Result<(), String>,
) -> (Outcome, Vec<Round<SingleRound<E>>>) {
    let mut out = Outcome::default();
    let mut gate = Gate::default();
    let topology = Topology::parse(topology).expect("benchmark topology parses");
    let workload = Workload::ft_scale(ranks);
    let strategy = DvsStrategy::StaticMhz(1400);
    // blame-256 records causal and metrics in both kinds of round: its
    // exports read them.
    let engine = |faults: Option<FaultSpec>| EngineConfig {
        topology,
        faults: faults.unwrap_or_default(),
        causal,
        metrics: causal,
        ..EngineConfig::default()
    };

    // Set-up is input generation, the programs of every rank, and a
    // warm-up run of the same engine set-up on 64 ranks.
    let mut programs_s = Vec::new();
    let run = rounds::run(
        cfg,
        &mut gate,
        setup_reps,
        || {
            let t0 = Instant::now();
            let ops: u64 = workload
                .programs(false)
                .iter()
                .map(|p| p.len() as u64)
                .sum();
            programs_s.push(t0.elapsed().as_secs_f64());
            let warm = Experiment::new(Workload::ft_scale(WARMUP_RANKS.min(ranks)), strategy)
                .with_engine(engine(None))
                .run();
            check_physics(&warm, "warm-up")?;
            Ok(ops)
        },
        |_, index, traced, gate| {
            let faults = FaultSpec::parse(&straggler_spec(cfg.seed, stream, index, ranks))
                .expect("generated fault specs parse");
            let mut config = engine(Some(faults));
            config.metrics |= traced;
            let exp = Experiment::new(workload.clone(), strategy).with_engine(config);
            let t0 = Instant::now();
            let result = exp.run();
            let run_s = t0.elapsed().as_secs_f64();
            let mut exported = exports(&result);
            let wall = t0.elapsed().as_secs_f64();
            gate.record(
                check_physics(&result, &format!("round {index}"))
                    .and_then(|()| check(&result, &mut exported)),
            );
            let counts = if traced || causal {
                traced_counts(std::slice::from_ref(&result))
            } else {
                base_counts(std::slice::from_ref(&result))
            };
            Measured {
                wall,
                counts,
                data: SingleRound {
                    run_s,
                    exports: exported,
                },
            }
        },
    );
    out.sizes = vec![("ranks", ranks as u64), ("jobs_per_round", 1)];
    let Some(run) = run else {
        out.gate = gate;
        return (out, Vec::new());
    };
    let rounds = run.rounds;

    let first = rounds::first(&rounds, cfg.trace);
    out.fingerprint = first.measured.counts.clone();
    out.rounds = rounds::kinds(&rounds);
    out.notes.push(rounds::render_walls(&rounds));
    out.end_to_end = rounds::end_to_end(&rounds, run.setup_s, |m| 1.0 / m.wall);
    if cfg.trace {
        let run_s = median(&rounds::per_round(&rounds, true, |m| m.data.run_s));
        let wall_s = median(&rounds::walls(&rounds, true));
        let events = first.measured.counts.0["events"] as f64;
        let mut m = Metrics::from([
            ("workloads.programs_s", median(&programs_s)),
            ("workloads.ops", run.product as f64),
            ("mpi-sim.run_s", run_s),
            ("mpi-sim.events_per_s", rounds::events_per_s(&rounds)),
            ("mpi-sim.ns_per_event", ratio(run_s * 1e9, events)),
            ("mpi-sim.run_share", ratio(run_s, wall_s)),
            ("trace.overhead_frac", rounds::overhead(&rounds)),
        ]);
        engine_layers(&first.measured.counts, &mut m);
        out.layers = m;
    }
    out.notes
        .push(format!("topology: {}", pwrperf::topology_label(&topology)));
    out.gate = gate;
    (out, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn straggler_stays_inside_the_machine_for_any_seed() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for round in 0..20 {
                let spec = FaultSpec::parse(&straggler_spec(seed, STREAM, round, RANKS)).unwrap();
                assert_eq!(spec.faults.len(), 1);
            }
        }
        assert!(Topology::parse(TOPOLOGY).is_ok());
    }
}
