//! Automatic slack-directed DVS instrumentation.
//!
//! The paper inserts its dynamic-control calls *by hand*, around functions
//! the authors knew were slack-heavy (`fft()`, transpose steps 2–3). The
//! successor systems in this paper's lineage (Adagio, GEOPM) automated
//! that decision. This module implements the same idea on our substrate:
//!
//! 1. run a **pilot** at the top frequency with power sampling and phase
//!    tracing enabled;
//! 2. compute each named phase's **mean power**; phases drawing well
//!    below the hottest phase are slack-heavy (their time is dominated by
//!    waits or stalls, not switching);
//! 3. **rewrite** the programs, wrapping the selected phases in
//!    `SetSpeed(Lowest)` / `SetSpeed(Restore)` — exactly what the paper's
//!    hand instrumentation did;
//! 4. run under the dynamic governor.
//!
//! The result reproduces the paper's hand-tuned dynamic results without
//! knowing anything about the application.

use std::collections::BTreeSet;

use mpi_sim::{EngineConfig, Op, Program, RunResult};
use powerpack::profile_phases;
use sim_core::SimDuration;

use crate::runner::map_or_reraise;
use crate::strategy::DvsStrategy;
use crate::workload::Workload;
use crate::Experiment;

/// A phase is slack-heavy when its mean power is below this fraction of
/// the hottest phase's mean power. Slack-heavy phases blend their waits
/// with some compute (FT's fft() runs at ~0.78 of the hottest phase's
/// power); phases above this fraction are dense compute.
const POWER_FRACTION_THRESHOLD: f64 = 0.85;

/// Ignore phases shorter than this per occurrence (transition overhead
/// would eat the gains).
const MIN_PHASE_OCCURRENCE: SimDuration = SimDuration::from_millis(10);

/// Ignore phases that account for less than this fraction of total
/// rank-time (not worth the transitions).
const MIN_TIME_FRACTION: f64 = 0.02;

/// Power sampling interval for the pilot run (fine enough to resolve the
/// shortest phase of interest).
const PILOT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// The automatic instrumenter. Every run it performs uses the default
/// engine configuration; the pilot adds sampling and tracing on top.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner;

/// The outcome of an automatic tuning pass.
#[derive(Debug)]
pub struct AutoTuneOutcome {
    /// Phases selected for down-scaling, sorted.
    pub selected_phases: Vec<String>,
    /// The tuned run (dynamic governor, auto-instrumented programs).
    pub tuned: RunResult,
}

impl AutoTuner {
    /// Pick slack-heavy phase names from a sampled, traced pilot run.
    pub(crate) fn select_phases(&self, pilot: &RunResult) -> Vec<String> {
        let profiles = profile_phases(pilot);
        if profiles.is_empty() {
            return Vec::new();
        }
        let ranks = pilot.breakdown.len().max(1) as f64;
        let total_rank_time = pilot.duration_secs() * ranks;
        // Mean power per phase; the hottest phase anchors the scale.
        let mean_power = |p: &powerpack::PhaseProfile| {
            let t = p.total_time.as_secs_f64();
            if t <= 0.0 {
                f64::INFINITY
            } else {
                p.energy_j / t
            }
        };
        let hottest = profiles
            .values()
            .map(mean_power)
            .filter(|p| p.is_finite())
            .fold(0.0f64, f64::max);
        if hottest <= 0.0 {
            return Vec::new();
        }
        let mut selected: Vec<String> = profiles
            .iter()
            .filter(|(_, p)| {
                let t = p.total_time.as_secs_f64();
                let per_occurrence = t / p.occurrences.max(1) as f64;
                mean_power(p) < POWER_FRACTION_THRESHOLD * hottest
                    && per_occurrence >= MIN_PHASE_OCCURRENCE.as_secs_f64()
                    && t / total_rank_time >= MIN_TIME_FRACTION
            })
            .map(|(name, _)| name.clone())
            .collect();
        selected.sort();
        selected
    }

    /// Wrap every occurrence of the selected phases in down/restore
    /// speed requests. Selected phases may nest (e.g. a selected outer
    /// phase containing a selected inner one): only the *outermost*
    /// begin scales down and only the matching outermost end restores,
    /// so an inner `PhaseEnd` never restores full speed while an outer
    /// selected phase is still open. Phase markers never sit inside a
    /// collective, so the programs' stored steps are rewritten and
    /// compact all-to-alls stay compact.
    pub(crate) fn instrument(programs: &[Program], phases: &BTreeSet<String>) -> Vec<Program> {
        programs
            .iter()
            .map(|p| {
                let mut depth: usize = 0;
                p.rewrite(|op, out| match op {
                    Op::PhaseBegin(name) if phases.contains(*name) => {
                        out.push(op.clone());
                        if depth == 0 {
                            out.push(Op::SetSpeed(dvfs::AppSpeedRequest::Lowest));
                        }
                        depth += 1;
                    }
                    Op::PhaseEnd(name) if phases.contains(*name) => {
                        if depth == 1 {
                            out.push(Op::SetSpeed(dvfs::AppSpeedRequest::Restore));
                        }
                        out.push(op.clone());
                        // Unmatched ends saturate instead of wrapping.
                        depth = depth.saturating_sub(1);
                    }
                    other => out.push(other.clone()),
                })
            })
            .collect()
    }

    /// The pilot experiment for `workload`: top frequency, sampled and
    /// traced finely enough for phase profiling.
    pub(crate) fn pilot_experiment(&self, workload: &Workload) -> Experiment {
        let pilot_engine = EngineConfig {
            sample_interval: Some(PILOT_SAMPLE_INTERVAL),
            trace_capacity: 1 << 20,
            ..EngineConfig::default()
        };
        Experiment::new(workload.clone(), DvsStrategy::StaticMhz(1400)).with_engine(pilot_engine)
    }

    /// Rewrite the *uninstrumented* programs around `phases` and run them
    /// under the dynamic governor via a custom engine assembly.
    fn tuned_run(&self, workload: &Workload, phases: &BTreeSet<String>) -> RunResult {
        let programs = AutoTuner::instrument(&workload.programs(false), phases);
        let cluster = cluster_sim::Cluster::paper_testbed(workload.ranks());
        let governors = DvsStrategy::DynamicBaseMhz(1400).governors(cluster.nodes());
        mpi_sim::Engine::new(cluster, programs, governors, EngineConfig::default()).run()
    }

    /// Full pipeline: pilot → select → instrument → tuned run.
    pub fn tune(&self, workload: &Workload) -> AutoTuneOutcome {
        let pilot = self.pilot_experiment(workload).run();
        let selected = self.select_phases(&pilot);
        let phase_set: BTreeSet<String> = selected.iter().cloned().collect();
        let tuned = self.tuned_run(workload, &phase_set);
        AutoTuneOutcome {
            selected_phases: selected,
            tuned,
        }
    }

    /// Tune several workloads at once: all pilots run as one parallel
    /// batch, then all tuned runs as another. Outcomes match per-workload
    /// [`AutoTuner::tune`] calls exactly and come back in input order.
    pub fn tune_many(&self, workloads: &[Workload]) -> Vec<AutoTuneOutcome> {
        let pilots =
            crate::runner::run_batch(workloads.iter().map(|w| self.pilot_experiment(w)).collect());
        let selections: Vec<Vec<String>> = pilots.iter().map(|p| self.select_phases(p)).collect();
        let jobs: Vec<(&Workload, BTreeSet<String>)> = workloads
            .iter()
            .zip(&selections)
            .map(|(w, sel)| (w, sel.iter().cloned().collect()))
            .collect();
        let (tuned, _) = map_or_reraise(&jobs, |(w, phases)| self.tuned_run(w, phases), None);
        selections
            .into_iter()
            .zip(tuned)
            .map(|(selected_phases, tuned)| AutoTuneOutcome {
                selected_phases,
                tuned,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft_a8() -> Workload {
        Workload::Ft {
            class: workloads::FtClass::A,
            ranks: 8,
        }
    }

    #[test]
    fn selects_ft_communication_phase() {
        let outcome = AutoTuner.tune(&ft_a8());
        assert!(
            outcome.selected_phases.iter().any(|p| p == "fft"),
            "selected: {:?}",
            outcome.selected_phases
        );
        assert!(
            !outcome.selected_phases.iter().any(|p| p == "evolve"),
            "evolve is hot compute, selected: {:?}",
            outcome.selected_phases
        );
    }

    #[test]
    fn tuned_run_saves_energy_like_hand_instrumentation() {
        let workload = ft_a8();
        let tuner = AutoTuner;
        let outcome = tuner.tune(&workload);
        let pilot = tuner.pilot_experiment(&workload).run();
        let hand = Experiment::new(workload, DvsStrategy::DynamicBaseMhz(1400)).run();
        // Auto-tuned energy within a few percent of the hand-tuned run.
        let ratio = outcome.tuned.total_energy_j() / hand.total_energy_j();
        assert!(
            (0.93..=1.07).contains(&ratio),
            "auto/hand energy ratio {ratio}"
        );
        assert!(outcome.tuned.total_energy_j() < pilot.total_energy_j());
    }

    #[test]
    fn instrument_wraps_only_selected_phases() {
        let programs = Workload::ft_test(2).programs(false);
        let phases: BTreeSet<String> = ["fft".to_string()].into_iter().collect();
        let rewritten = AutoTuner::instrument(&programs, &phases);
        let count = |p: &Program, pat: fn(&Op) -> bool| p.ops().filter(pat).count();
        let begins = count(&rewritten[0], |o| matches!(o, Op::PhaseBegin("fft")));
        let speeds = count(&rewritten[0], |o| matches!(o, Op::SetSpeed(_)));
        assert_eq!(speeds, 2 * begins);
        // Length grew exactly by the inserted requests.
        assert_eq!(rewritten[0].len(), programs[0].len() + speeds);
    }

    #[test]
    fn instrument_keeps_alltoalls_compact() {
        let n = 64;
        let programs = Workload::ft_scale(n).programs(false);
        let eager: Vec<Program> = programs
            .iter()
            .map(|p| Program::from_ops(p.ops().collect()))
            .collect();
        let phases: BTreeSet<String> = ["fft".to_string()].into_iter().collect();
        let compact = AutoTuner::instrument(&programs, &phases);
        let expanded = AutoTuner::instrument(&eager, &phases);
        for (rank, (c, e)) in compact.iter().zip(&expanded).enumerate() {
            assert!(c.ops().eq(e.ops()), "rank {rank}: expanded streams differ");
            assert_eq!(c.len(), e.len(), "rank {rank}");
            // Rewriting added one step per inserted request, and the
            // all-to-all is still one step standing for its 3n - 2 ops:
            // the stored steps grow with the phases, not with n.
            let speeds = c.ops().filter(|o| matches!(o, Op::SetSpeed(_))).count();
            assert!(speeds > 0);
            assert_eq!(c.stored_steps(), programs[rank].stored_steps() + speeds);
            assert_eq!(c.len() - c.stored_steps(), 3 * n - 3, "rank {rank}");
        }
    }

    #[test]
    fn single_phase_workload_selects_nothing() {
        // mgrid has one phase: nothing is "cooler than the hottest".
        let tuner = AutoTuner;
        let pilot_engine = EngineConfig {
            sample_interval: Some(SimDuration::from_millis(100)),
            trace_capacity: 1 << 16,
            ..EngineConfig::default()
        };
        let pilot = Experiment::new(Workload::Mgrid, DvsStrategy::StaticMhz(1400))
            .with_engine(pilot_engine)
            .run();
        assert!(tuner.select_phases(&pilot).is_empty());
    }

    #[test]
    fn tune_many_matches_individual_tunes() {
        let tuner = AutoTuner;
        let workloads = [Workload::ft_test(2), Workload::ft_test(4)];
        let many = tuner.tune_many(&workloads);
        assert_eq!(many.len(), workloads.len());
        for (outcome, w) in many.iter().zip(&workloads) {
            let solo = tuner.tune(w);
            assert_eq!(outcome.selected_phases, solo.selected_phases);
            assert_eq!(outcome.tuned, solo.tuned);
        }
    }

    #[test]
    fn untraced_pilot_selects_nothing() {
        let pilot = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1400)).run();
        assert!(AutoTuner.select_phases(&pilot).is_empty());
    }

    #[test]
    fn instrument_restores_only_at_outermost_nested_end() {
        // Regression: a selected phase nested inside another selected
        // phase used to emit Restore at the *inner* end, running the
        // rest of the outer phase at full speed.
        let work = || Op::Compute(mem_model::WorkUnit::pure_cpu(1.0e6));
        let ops = vec![
            Op::PhaseBegin("outer"),
            work(),
            Op::PhaseBegin("inner"),
            work(),
            Op::PhaseEnd("inner"),
            work(),
            Op::PhaseEnd("outer"),
        ];
        let programs = vec![Program::from_ops(ops)];
        let phases: BTreeSet<String> = ["outer".to_string(), "inner".to_string()]
            .into_iter()
            .collect();
        let rewritten = AutoTuner::instrument(&programs, &phases);
        let out: Vec<Op> = rewritten[0].ops().collect();
        let lowest_positions: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Op::SetSpeed(dvfs::AppSpeedRequest::Lowest)))
            .map(|(i, _)| i)
            .collect();
        let restore_positions: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Op::SetSpeed(dvfs::AppSpeedRequest::Restore)))
            .map(|(i, _)| i)
            .collect();
        // Exactly one down-scale (after the outermost begin) and one
        // restore (before the outermost end) — the inner pair is inert.
        assert_eq!(lowest_positions, vec![1]);
        assert_eq!(restore_positions, vec![out.len() - 2]);
        assert!(matches!(out[out.len() - 1], Op::PhaseEnd("outer")));
    }

    #[test]
    fn instrument_handles_repeated_same_name_nesting_and_stray_ends() {
        // Same-name nesting ("fft" inside "fft") and an unmatched end
        // must neither wrap the depth counter nor emit extra requests.
        let ops = vec![
            Op::PhaseEnd("fft"), // stray end before any begin
            Op::PhaseBegin("fft"),
            Op::PhaseBegin("fft"),
            Op::PhaseEnd("fft"),
            Op::PhaseEnd("fft"),
        ];
        let programs = vec![Program::from_ops(ops)];
        let phases: BTreeSet<String> = ["fft".to_string()].into_iter().collect();
        let rewritten = AutoTuner::instrument(&programs, &phases);
        let speeds = rewritten[0]
            .ops()
            .filter(|o| matches!(o, Op::SetSpeed(_)))
            .count();
        assert_eq!(speeds, 2, "one Lowest + one Restore for the outermost pair");
    }
}
