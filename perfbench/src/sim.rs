//! What every compute workload reads from `RunResult`: exact counts,
//! per-layer counters, and the physical invariants the gate checks.

use pwrperf::RunResult;

use crate::report::{expect_eq, ratio, Counts, Metrics};

/// Exact counts that exist with tracing off.
pub fn base_counts(results: &[RunResult]) -> Counts {
    let mut c = Counts::default();
    c.set("runs", results.len() as u64);
    c.set("events", results.iter().map(|r| r.events).sum());
    c.set(
        "dvfs_transitions",
        results.iter().flat_map(|r| &r.transitions).sum(),
    );
    c.set("sim_ps", results.iter().map(|r| r.duration.0).sum());
    c
}

/// Engine counters a traced run reads from `RunResult::metrics`
/// (`EngineConfig::metrics`), keyed by count name and registry name.
const ENGINE_COUNTERS: &[(&str, &str)] = &[
    ("msgs_posted", "engine.msgs.posted"),
    ("msgs_delivered", "engine.msgs.delivered"),
    ("bytes_posted", "engine.msgs.bytes_posted"),
    ("network_wakes", "engine.events.network_wake"),
    ("queue_pushed", "engine.queue.pushed"),
    ("queue_cancelled", "engine.queue.cancelled"),
    ("solver_invocations", "net.solver.invocations"),
    ("solver_rounds", "net.solver.rounds"),
    ("rate_recomputes", "net.rate_recomputes"),
    ("domains_touched", "net.solver.domains_touched"),
    ("domains_skipped", "net.solver.domains_skipped"),
    ("dvfs_decisions", "engine.dvfs.decisions"),
];

/// [`base_counts`] plus the registry counters, the queue's depth
/// high-water mark (max over runs), and the causal log's sizes when the
/// runs recorded one.
pub fn traced_counts(results: &[RunResult]) -> Counts {
    let mut c = base_counts(results);
    for &(name, key) in ENGINE_COUNTERS {
        c.set(
            name,
            results
                .iter()
                .filter_map(|r| r.metrics.as_ref()?.counter(key))
                .sum(),
        );
    }
    let hwm = results
        .iter()
        .filter_map(|r| r.metrics.as_ref()?.gauge("engine.queue.depth_hwm"))
        .fold(0.0, f64::max);
    c.set("queue_depth_hwm", hwm as u64);
    if results.iter().any(|r| r.causal.is_some()) {
        let logs = results.iter().filter_map(|r| r.causal.as_ref());
        let (msgs, waits) = logs.fold((0, 0), |(m, w), log| {
            (m + log.msgs.len() as u64, w + log.waits.len() as u64)
        });
        c.set("causal_msgs", msgs);
        c.set("causal_waits", waits);
    }
    c
}

/// The per-layer counters of one round, from its traced counts.
pub fn engine_layers(counts: &Counts, layers: &mut Metrics) {
    let get = |name: &str| counts.0.get(name).copied().unwrap_or(0) as f64;
    let events = get("events");
    let pairs = [
        ("mpi-sim.runs", get("runs")),
        ("mpi-sim.events", events),
        ("mpi-sim.msgs_posted", get("msgs_posted")),
        ("mpi-sim.bytes_posted", get("bytes_posted")),
        ("mpi-sim.network_wakes", get("network_wakes")),
        ("sim-core.queue_pushed", get("queue_pushed")),
        ("sim-core.queue_cancelled", get("queue_cancelled")),
        (
            "sim-core.tombstone_ratio",
            ratio(get("queue_cancelled"), get("queue_pushed")),
        ),
        ("sim-core.queue_depth_hwm", get("queue_depth_hwm")),
        ("net-model.solver_invocations", get("solver_invocations")),
        ("net-model.solver_rounds", get("solver_rounds")),
        ("net-model.rate_recomputes", get("rate_recomputes")),
        (
            "net-model.invocations_per_event",
            ratio(get("solver_invocations"), events),
        ),
        ("net-model.domains_touched", get("domains_touched")),
        ("net-model.domains_skipped", get("domains_skipped")),
        (
            "net-model.touched_frac",
            ratio(
                get("domains_touched"),
                get("domains_touched") + get("domains_skipped"),
            ),
        ),
        ("dvfs.decisions", get("dvfs_decisions")),
        ("dvfs.transitions", get("dvfs_transitions")),
        ("obs.causal_msgs", get("causal_msgs")),
        ("obs.causal_waits", get("causal_waits")),
    ];
    layers.extend(pairs);
}

/// Physical invariants of one finished run: it did work, its energy is
/// positive, every rank's time breakdown fits in the run and the last
/// rank's covers it exactly, and (when counted) every posted message was
/// delivered.
pub fn check_physics(r: &RunResult, label: &str) -> Result<(), String> {
    if r.events == 0 {
        return Err(format!("{label}: no events"));
    }
    let joules = r.total_energy_j();
    if !(joules.is_finite() && joules > 0.0) {
        return Err(format!("{label}: energy {joules} J"));
    }
    let longest = r.breakdown.iter().map(|b| b.total()).max();
    if let Some(rank) = r.breakdown.iter().position(|b| b.total() > r.duration) {
        return Err(format!("{label}: rank {rank} breakdown exceeds the run"));
    }
    expect_eq(
        longest,
        Some(r.duration),
        &format!("{label}: breakdown vs duration"),
    )?;
    if let Some(m) = &r.metrics {
        expect_eq(
            m.counter("engine.msgs.posted"),
            m.counter("engine.msgs.delivered"),
            &format!("{label}: msgs posted vs delivered"),
        )?;
    }
    Ok(())
}
