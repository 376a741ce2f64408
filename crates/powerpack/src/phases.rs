//! Phase-level profiling — PowerPack's core use case.
//!
//! The paper instruments applications with phase markers (`fft()`,
//! transpose steps) and aligns them with the power profiles to attribute
//! time and energy to program phases. This module replays a run's trace
//! (PhaseBegin/PhaseEnd records) against its power samples and produces
//! per-phase totals.

use std::collections::BTreeMap;

use mpi_sim::{RunResult, SampleRow};
use sim_core::{FxHashMap, SimDuration, SimTime, TraceEvent, TraceKind};

/// Aggregated statistics for one named phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// How many (rank, interval) occurrences were observed.
    pub occurrences: u64,
    /// Total rank-time inside the phase (summed across ranks).
    pub total_time: SimDuration,
    /// Approximate energy attributed to the phase, joules (per-node power
    /// sampled at the engine's sampling interval, integrated over the
    /// phase's intervals). Zero when the run carried no samples.
    pub energy_j: f64,
}

/// Per-phase profiles keyed by phase name. A `BTreeMap` so iterating a
/// profile (reports, CSV export) visits phases in a stable order.
pub(crate) type PhaseMap = BTreeMap<String, PhaseProfile>;

/// Collect matched (rank, name, start, end) intervals from a trace.
/// Unbalanced markers (an end without a begin, or a begin never closed)
/// are ignored, mirroring the paper's tooling which drops truncated
/// records at run edges.
pub(crate) fn phase_intervals(
    trace: &[TraceEvent],
) -> Vec<(usize, &'static str, SimTime, SimTime)> {
    let mut open: FxHashMap<(usize, &'static str), SimTime> = FxHashMap::default();
    let mut out = Vec::new();
    for ev in trace {
        let Some(name) = ev.detail.phase() else {
            continue;
        };
        match ev.kind {
            TraceKind::PhaseBegin => {
                open.insert((ev.node, name), ev.time);
            }
            TraceKind::PhaseEnd => {
                if let Some(start) = open.remove(&(ev.node, name)) {
                    out.push((ev.node, name, start, ev.time));
                }
            }
            _ => {}
        }
    }
    out
}

/// Cumulative energy of `node` at time `t`, linearly interpolated from
/// the sampled cumulative-energy series (with an implicit `(0, 0)` point
/// before the first sample). Beyond the last sample, extrapolates with
/// the last sampled power. `None` when the run carried no samples.
fn energy_at(samples: &[SampleRow], node: usize, t: SimTime) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    // Implicit origin.
    let (mut t0, mut e0) = (SimTime::ZERO, 0.0f64);
    for s in samples {
        let (t1, e1) = (s.time, s.node_energy_j[node]);
        if t <= t1 {
            let span = t1.since(t0).as_secs_f64();
            if span <= 0.0 {
                return Some(e1);
            }
            let frac = t.since(t0).as_secs_f64() / span;
            return Some(e0 + (e1 - e0) * frac);
        }
        t0 = t1;
        e0 = e1;
    }
    // Past the last sample: extrapolate with its instantaneous power.
    let last = samples.last()?;
    let tail_j = last.node_power_w[node] * t.since(last.time).as_secs_f64();
    Some(last.node_energy_j[node] + tail_j)
}

/// Energy consumed by `node` over `[start, end]`, from the sample series.
fn interval_energy(
    samples: &[SampleRow],
    node: usize,
    start: SimTime,
    end: SimTime,
) -> Option<f64> {
    Some((energy_at(samples, node, end)? - energy_at(samples, node, start)?).max(0.0))
}

/// Profile every named phase in a run.
pub fn profile_phases(result: &RunResult) -> PhaseMap {
    let mut map: PhaseMap = PhaseMap::new();
    for (node, name, start, end) in phase_intervals(&result.trace) {
        let entry = map.entry(name.to_string()).or_default();
        entry.occurrences += 1;
        let span = end.since(start);
        entry.total_time += span;
        if let Some(e) = interval_energy(&result.samples, node, start, end) {
            entry.energy_j += e;
        }
    }
    map
}

/// Fraction of total rank-time spent in `phase` (across all ranks), in
/// `[0, 1]`; zero when the phase never occurred.
pub fn phase_time_fraction(result: &RunResult, phase: &str) -> f64 {
    let profiles = profile_phases(result);
    let Some(p) = profiles.get(phase) else {
        return 0.0;
    };
    let ranks = result.breakdown.len().max(1) as f64;
    p.total_time.as_secs_f64() / (result.duration_secs() * ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::TraceKind;

    fn ev(t: u64, node: usize, kind: TraceKind, name: &'static str) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_secs(t),
            node,
            kind,
            detail: sim_core::TraceDetail::Phase(name),
        }
    }

    #[test]
    fn intervals_match_begin_end_pairs() {
        let trace = vec![
            ev(1, 0, TraceKind::PhaseBegin, "fft"),
            ev(3, 0, TraceKind::PhaseEnd, "fft"),
            ev(4, 1, TraceKind::PhaseBegin, "fft"),
            ev(9, 1, TraceKind::PhaseEnd, "fft"),
        ];
        let iv = phase_intervals(&trace);
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[0].0, 0);
        assert_eq!(iv[1].3.since(iv[1].2), SimDuration::from_secs(5));
    }

    #[test]
    fn unbalanced_markers_are_dropped() {
        let trace = vec![
            ev(1, 0, TraceKind::PhaseEnd, "orphan"),
            ev(2, 0, TraceKind::PhaseBegin, "dangling"),
        ];
        assert!(phase_intervals(&trace).is_empty());
    }

    #[test]
    fn nested_distinct_phases_both_captured() {
        let trace = vec![
            ev(0, 0, TraceKind::PhaseBegin, "outer"),
            ev(1, 0, TraceKind::PhaseBegin, "inner"),
            ev(2, 0, TraceKind::PhaseEnd, "inner"),
            ev(5, 0, TraceKind::PhaseEnd, "outer"),
        ];
        let iv = phase_intervals(&trace);
        assert_eq!(iv.len(), 2);
    }

    #[test]
    fn profile_aggregates_time_and_energy() {
        use power_model::EnergyReport;
        let trace = vec![
            ev(0, 0, TraceKind::PhaseBegin, "comm"),
            ev(10, 0, TraceKind::PhaseEnd, "comm"),
        ];
        let samples: Vec<SampleRow> = (0..=10)
            .map(|s| SampleRow {
                time: SimTime::from_secs(s),
                node_power_w: vec![20.0],
                node_energy_j: vec![20.0 * s as f64], // cumulative at 20 W
                node_mhz: vec![1400],
                node_battery_mwh: vec![0],
            })
            .collect();
        let result = RunResult {
            duration: SimDuration::from_secs(10),
            per_node: vec![EnergyReport::default()],
            breakdown: vec![Default::default()],
            transitions: vec![0],
            samples,
            trace,
            ..RunResult::default()
        };
        let profiles = profile_phases(&result);
        let comm = &profiles["comm"];
        assert_eq!(comm.occurrences, 1);
        assert_eq!(comm.total_time, SimDuration::from_secs(10));
        assert!((comm.energy_j - 200.0).abs() < 1e-9);
        assert!((phase_time_fraction(&result, "comm") - 1.0).abs() < 1e-9);
        assert_eq!(phase_time_fraction(&result, "absent"), 0.0);
    }
}
