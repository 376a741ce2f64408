//! Metric names, summary statistics, the correctness gate's tally, and
//! the one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload measures each of these itself
/// (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), named after the crate or `pwrperf`
/// module whose public calls or public results they come from.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.programs_s", "s"),
    ("workloads.ops", "count"),
    ("runner.jobs", "count"),
    ("runner.busy_s", "s"),
    ("runner.idle_s", "s"),
    ("runner.utilization", "ratio"),
    ("mpi-sim.runs", "count"),
    ("mpi-sim.run_s", "s"),
    ("mpi-sim.events", "count"),
    ("mpi-sim.events_per_s", "1/s"),
    ("mpi-sim.ns_per_event", "ns"),
    ("mpi-sim.run_share", "ratio"),
    ("mpi-sim.msgs_posted", "count"),
    ("mpi-sim.bytes_posted", "B"),
    ("mpi-sim.network_wakes", "count"),
    ("sim-core.queue_pushed", "count"),
    ("sim-core.queue_cancelled", "count"),
    ("sim-core.tombstone_ratio", "ratio"),
    ("sim-core.queue_depth_hwm", "count"),
    ("net-model.solver_invocations", "count"),
    ("net-model.solver_rounds", "count"),
    ("net-model.rate_recomputes", "count"),
    ("net-model.invocations_per_event", "ratio"),
    ("net-model.domains_touched", "count"),
    ("net-model.domains_skipped", "count"),
    ("net-model.touched_frac", "ratio"),
    ("dvfs.decisions", "count"),
    ("dvfs.transitions", "count"),
    ("edp-metrics.tables_s", "s"),
    ("edp-metrics.points", "count"),
    ("obs.causal_msgs", "count"),
    ("obs.causal_waits", "count"),
    ("scope.attribution_s", "s"),
    ("scope.analyze_s", "s"),
    ("scope.perfetto_s", "s"),
    ("scope.perfetto_bytes", "B"),
    ("scope.ndjson_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_written", "B"),
    ("store.bytes_read", "B"),
    ("store.bytes_per_record", "B"),
    ("service.cold_sweep_s", "s"),
    ("service.warm_sweep_s", "s"),
    ("service.query_s", "s"),
    ("service.cold_jobs_per_s", "1/s"),
    ("service.query_p50_ms", "ms"),
    ("service.query_p99_ms", "ms"),
    ("service.query_samples", "count"),
    ("service.requests", "count"),
    ("service.engine_runs", "count"),
    ("service.hits", "count"),
    ("service.awaited", "count"),
    ("service.inflight_peak", "count"),
    ("service.hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Named metric values, keyed by the names above.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Per-layer metrics of layers a workload does not exercise read 0:
/// the count of, say, store reads in a run without a store is zero.
pub fn zero_unexercised_layers(layers: &mut Metrics) {
    for &(name, _) in PER_LAYER {
        layers.entry(name).or_insert(0.0);
    }
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of the samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operations attempted and failed. An operation is a job, a request, a
/// query, or a stand-alone correctness check; one that errors or fails a
/// check counts as failed.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Count one operation and the outcome of its checks.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            // Keep the first few messages; the count carries the rest.
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Fail with `what` unless `a == b`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(a: T, b: T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// The deterministic counts of one workload input: equal inputs give
/// equal counts on every run, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.0.insert(name, value);
    }

    /// The counts both maps hold must agree: a traced run records more
    /// counters than an untraced one, never different ones.
    pub fn agree_with(&self, other: &Counts) -> Result<(), String> {
        for (name, value) in &self.0 {
            if let Some(theirs) = other.0.get(name) {
                if theirs != value {
                    return Err(format!("exact count {name}: {value} vs {theirs}"));
                }
            }
        }
        Ok(())
    }

    /// `name=value` pairs in name order.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Whatever one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (measured with tracing off).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Exact counts of the seed's first input.
    pub fingerprint: Counts,
    /// Workload sizes (jobs, ranks, cells) that do not depend on the seed.
    pub sizes: Vec<(&'static str, u64)>,
    /// Rounds timed (untraced, traced).
    pub rounds: (usize, usize),
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub gate: Gate,
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": v, "unit": u}}}` over `declared`.
pub fn result_json(
    gate: &Gate,
    metrics: &Metrics,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = *metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        // `{:?}` prints every digit of the shortest exact form (`2.0`,
        // `1e-7`), which is valid JSON.
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.passed(),
        gate.attempted,
        gate.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_json_rejects_missing_extra_and_non_finite_metrics() {
        let gate = Gate::default();
        let declared = [("a", "s"), ("b", "ms")];
        let mut m = Metrics::new();
        m.insert("a", 1.5);
        assert!(result_json(&gate, &m, &declared).is_err());
        m.insert("b", 2.0);
        let line = result_json(&gate, &m, &declared).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        m.insert("c", 1.0);
        assert!(result_json(&gate, &m, &declared).is_err());
        m.remove("c");
        m.insert("b", f64::NAN);
        assert!(result_json(&gate, &m, &declared).is_err());
    }

    #[test]
    fn counts_agree_on_shared_names_only() {
        let mut a = Counts::default();
        a.set("events", 10);
        let mut b = a.clone();
        b.set("msgs", 3);
        assert!(a.agree_with(&b).is_ok());
        b.set("events", 11);
        assert!(a.agree_with(&b).is_err());
    }
}
