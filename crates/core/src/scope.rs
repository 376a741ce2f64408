//! PowerScope: assembling a run's observability artifacts.
//!
//! The engine produces raw telemetry — a bounded [`TraceEvent`] stream,
//! periodic [`SampleRow`]s, and an optional [`MetricsRegistry`] — and this
//! module turns a finished [`RunResult`] into the three export formats the
//! CLI serves:
//!
//! * [`perfetto_json`] — a Chrome/Perfetto `trace_event` timeline: one
//!   track per node with phase slices and messages, plus counter
//!   tracks for per-node frequency (from the trace) and per-node/cluster
//!   power (from the samples). Open it at <https://ui.perfetto.dev>.
//! * [`metrics_ndjson`] — the metrics registry as newline-delimited JSON,
//!   one object per metric, sorted by name.
//! * [`stats_text`] — a human-readable run summary for the terminal.
//!
//! All three are deterministic: timestamps come from simulated time
//! rendered with integer math, metric ordering is name-sorted, and no
//! wall-clock value ever reaches an export.
//!
//! Causal runs ([`mpi_sim::EngineConfig::causal`]) add two more:
//!
//! * [`analyze_text`] / [`attribution_ndjson`] — the "blame analysis"
//!   table behind `pwrperf run --causal`: critical path, per-rank
//!   compute/comm/blocked split, and the energy attribution;
//! * [`perfetto_json`] draws each message as a flow arrow (one per
//!   message lifecycle) instead of a pair of instants when the run
//!   carries a causal log.
//!
//! NDJSON exports carry a [`RunMeta`] header record as their first line
//! (`{"meta":{...}}`), identifying the run that produced the file.

use std::fmt::Write as _;

use mpi_sim::{RunResult, Topology};
use obs::perfetto::push_json_escaped;
use obs::{PerfettoTrace, RunAttribution};

/// Format version stamped into every [`RunMeta`] header record. Bump it
/// when the NDJSON line layout changes.
///
/// v2: the header no longer carries a shard count.
pub(crate) const EXPORT_FORMAT_VERSION: u32 = 2;

/// Run identity prepended to NDJSON exports: everything a reader needs
/// to know which configuration produced the file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Workload label (e.g. `FT.C x1 iter on 256 nodes`).
    pub workload: String,
    /// Strategy label (e.g. `static 1400 MHz`).
    pub strategy: String,
    /// Interconnect shape.
    pub topology: Topology,
    /// Fault-injection RNG seed (the default seed when no faults armed).
    pub seed: u64,
}

/// Canonical text form of a topology (the CLI `--topology` syntax).
pub fn topology_label(topology: &Topology) -> String {
    match topology {
        Topology::Flat => "flat".to_string(),
        Topology::FatTree { radix, oversub } => {
            format!("fat-tree:radix={radix},oversub={oversub}")
        }
    }
}

impl RunMeta {
    /// The header record: one JSON object on one line, always the first
    /// line of an NDJSON export.
    pub(crate) fn header_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"meta":{{"format":{EXPORT_FORMAT_VERSION},"workload":""#
        );
        push_json_escaped(&mut out, &self.workload);
        out.push_str(r#"","strategy":""#);
        push_json_escaped(&mut out, &self.strategy);
        out.push_str(r#"","topology":""#);
        push_json_escaped(&mut out, &topology_label(&self.topology));
        let _ = write!(out, r#"","seed":{}}}}}"#, self.seed);
        out
    }
}

/// Render a run as Perfetto `trace_event` JSON.
///
/// Requires the run to have been executed with `trace_capacity > 0` for
/// the timeline tracks; sample-driven power counters additionally need
/// `sample_interval`. Either may be absent — the export degrades to
/// whatever telemetry the run carried. When the run carries a causal
/// log, each message is exported once, as a flow arrow from the sender
/// at flow start to the receiver at delivery, and the trace's `send` and
/// `recv` instants are left out; otherwise the instants stand for it.
pub fn perfetto_json(result: &RunResult) -> String {
    let nodes = result.per_node.len();
    let mut p = PerfettoTrace::from_trace(&result.trace, nodes, result.causal.is_none());
    let sample_records: usize = result
        .samples
        .iter()
        .map(|s| s.node_power_w.len() + 1)
        .sum();
    let flow_records = result.causal.as_ref().map_or(0, |log| 2 * log.msgs.len());
    p.reserve(sample_records + flow_records);
    let mut name = String::new();
    for s in &result.samples {
        let mut cluster_w = 0.0;
        for (n, &w) in s.node_power_w.iter().enumerate() {
            name.clear();
            let _ = write!(name, "node {n} W");
            p.counter(0, &name, s.time, w);
            cluster_w += w;
        }
        p.counter(0, "cluster W", s.time, cluster_w);
    }
    if let Some(log) = &result.causal {
        for (id, m) in log.msgs.iter().enumerate() {
            let Some(delivered) = m.delivered_at else {
                continue;
            };
            let cat = if m.collective { "collective" } else { "msg" };
            name.clear();
            let _ = write!(name, "{}->{} {}B", m.src, m.dst, m.bytes);
            p.flow_start(0, m.src as u64, cat, &name, id as u64, m.enabled_at());
            p.flow_end(0, m.dst as u64, cat, &name, id as u64, delivered);
        }
    }
    p.finish()
}

/// Render the run's metrics registry as NDJSON (empty string when the run
/// was executed without `metrics` enabled).
pub fn metrics_ndjson(result: &RunResult) -> String {
    result
        .metrics
        .as_ref()
        .map(|m| m.to_ndjson())
        .unwrap_or_default()
}

/// [`metrics_ndjson`] with a [`RunMeta`] header record prepended. The
/// header is written even when the metric body is empty, so a reader can
/// always identify the producing run.
pub fn metrics_ndjson_with_meta(result: &RunResult, meta: &RunMeta) -> String {
    format!("{}\n{}", meta.header_line(), metrics_ndjson(result))
}

/// Render the attribution as NDJSON: the [`RunMeta`] header, one record
/// per rank (times in integer picoseconds — exact, no float rounding —
/// energies in joules), and a closing summary record.
pub fn attribution_ndjson(attribution: &RunAttribution, meta: &RunMeta) -> String {
    let mut out = String::new();
    out.push_str(&meta.header_line());
    out.push('\n');
    for (rank, a) in attribution.ranks.iter().enumerate() {
        let _ = writeln!(
            out,
            r#"{{"rank":{rank},"compute_ps":{},"comm_ps":{},"blocked_ps":{},"cp_residency_ps":{},"finish_ps":{},"compute_j":{:.6},"comm_j":{:.6},"blocked_j":{:.6},"idle_tail_j":{:.6},"slack_j":{:.6},"total_j":{:.6}}}"#,
            a.compute.0,
            a.comm.0,
            a.blocked.0,
            a.cp_residency.0,
            a.finish.0,
            a.compute_j,
            a.comm_j,
            a.blocked_j,
            a.idle_tail_j,
            a.slack_j,
            a.total_j,
        );
    }
    let _ = writeln!(
        out,
        r#"{{"summary":{{"makespan_ps":{},"critical_path_ps":{},"cp_comm_ps":{},"cp_hops":{},"redistributable_j":{:.6}}}}}"#,
        attribution.makespan.0,
        attribution.critical_path.0,
        attribution.cp_comm.0,
        attribution.cp_hops,
        attribution.redistributable_j,
    );
    out
}

/// Render the "blame analysis" table `pwrperf run --causal` prints: critical
/// path, per-rank time split (compute / in-flight comm / blocked), local
/// critical-path residency, and the energy attribution with the
/// cluster-level redistributable slack. Pure and deterministic — the CLI
/// prints it and the golden test pins it byte-for-byte.
pub fn analyze_text(workload: &str, strategy: &str, attribution: &RunAttribution) -> String {
    let mut out = String::new();
    out.push_str("== analyze ==\n");
    let _ = writeln!(out, "workload           {workload}");
    let _ = writeln!(out, "strategy           {strategy}");
    let _ = writeln!(
        out,
        "makespan_s         {:.6}",
        attribution.makespan.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "critical_path_s    {:.6}",
        attribution.critical_path.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "cp_comm_s          {:.6} ({} hops, {:.1}% of path)",
        attribution.cp_comm.as_secs_f64(),
        attribution.cp_hops,
        100.0 * attribution.cp_comm.ratio(attribution.critical_path),
    );
    let _ = writeln!(
        out,
        "redistributable_j  {:.3}",
        attribution.redistributable_j
    );
    out.push_str("\n== per-rank attribution ==\n");
    let _ = writeln!(
        out,
        "{:>5} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "rank", "compute_s", "comm_s", "blocked_s", "cp_res_s", "compute_j", "slack_j"
    );
    let mut totals = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (rank, a) in attribution.ranks.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>5} {:>11.6} {:>11.6} {:>11.6} {:>11.6} {:>11.3} {:>11.3}",
            rank,
            a.compute.as_secs_f64(),
            a.comm.as_secs_f64(),
            a.blocked.as_secs_f64(),
            a.cp_residency.as_secs_f64(),
            a.compute_j,
            a.slack_j,
        );
        totals.0 += a.compute.as_secs_f64();
        totals.1 += a.comm.as_secs_f64();
        totals.2 += a.blocked.as_secs_f64();
        totals.3 += a.cp_residency.as_secs_f64();
        totals.4 += a.compute_j;
        totals.5 += a.slack_j;
    }
    let _ = writeln!(
        out,
        "{:>5} {:>11.6} {:>11.6} {:>11.6} {:>11.6} {:>11.3} {:>11.3}",
        "all", totals.0, totals.1, totals.2, totals.3, totals.4, totals.5,
    );
    out
}

/// Render a human-readable summary of the run: headline figures, per-node
/// transition counts, trace accounting, and (when collected) the full
/// metrics table.
pub fn stats_text(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str("== run ==\n");
    out.push_str(&format!("duration_s      {:.6}\n", result.duration_secs()));
    out.push_str(&format!("energy_j        {:.3}\n", result.total_energy_j()));
    out.push_str(&format!(
        "avg_power_w     {:.3}\n",
        result.average_power_w()
    ));
    out.push_str(&format!("events          {}\n", result.events));
    out.push_str(&format!("nodes           {}\n", result.per_node.len()));
    out.push_str(&format!(
        "transitions     {}\n",
        result.transitions.iter().sum::<u64>()
    ));
    out.push_str(&format!(
        "trace_events    {} (+{} dropped)\n",
        result.trace.len(),
        result.trace_dropped
    ));
    out.push_str(&format!("samples         {}\n", result.samples.len()));
    if let Some(m) = &result.metrics {
        out.push_str("\n== metrics ==\n");
        out.push_str(&m.render_stats());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DvsStrategy, Experiment, Workload};
    use mpi_sim::EngineConfig;

    fn traced_run() -> RunResult {
        let mut e = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800));
        e.engine = EngineConfig {
            trace_capacity: 4096,
            sample_interval: Some(sim_core::SimDuration::from_millis(50)),
            metrics: true,
            ..EngineConfig::default()
        };
        e.run()
    }

    #[test]
    fn perfetto_export_carries_tracks_and_counters() {
        let result = traced_run();
        let json = perfetto_json(&result);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains(r#""name":"node 0""#));
        assert!(json.contains(r#""name":"node 1""#));
        assert!(json.contains(r#""name":"node 0 W""#));
        assert!(json.contains(r#""name":"cluster W""#));
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
    }

    #[test]
    fn perfetto_export_is_deterministic() {
        let a = perfetto_json(&traced_run());
        let b = perfetto_json(&traced_run());
        assert_eq!(a, b);
    }

    #[test]
    fn ndjson_sorted_and_gated() {
        let result = traced_run();
        let ndjson = metrics_ndjson(&result);
        let names: Vec<&str> = ndjson
            .lines()
            .map(|l| {
                let start = l.find("\"name\":\"").unwrap() + 8;
                let end = l[start..].find('"').unwrap();
                &l[start..start + end]
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "NDJSON must be name-sorted");
        assert!(ndjson.contains(r#""name":"engine.events.dispatched""#));

        let bare = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800)).run();
        assert!(metrics_ndjson(&bare).is_empty());
    }

    fn causal_run() -> RunResult {
        let mut e = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800));
        e.engine = EngineConfig {
            trace_capacity: 4096,
            metrics: true,
            causal: true,
            ..EngineConfig::default()
        };
        e.run()
    }

    fn meta() -> RunMeta {
        RunMeta {
            workload: "ft-test2".to_string(),
            strategy: "static 800 MHz".to_string(),
            topology: Topology::Flat,
            seed: 42,
        }
    }

    #[test]
    fn meta_header_prepends_to_metrics_ndjson() {
        let result = causal_run();
        let with_meta = metrics_ndjson_with_meta(&result, &meta());
        let mut lines = with_meta.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            r#"{"meta":{"format":2,"workload":"ft-test2","strategy":"static 800 MHz","topology":"flat","seed":42}}"#
        );
        // The body is exactly the unadorned export.
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.join("\n") + "\n", metrics_ndjson(&result));
    }

    #[test]
    fn topology_labels_round_trip_the_cli_syntax() {
        assert_eq!(topology_label(&Topology::Flat), "flat");
        let tree = Topology::FatTree {
            radix: 16,
            oversub: 2.0,
        };
        assert_eq!(topology_label(&tree), "fat-tree:radix=16,oversub=2");
        assert_eq!(Topology::parse(&topology_label(&tree)), Ok(tree));
    }

    #[test]
    fn analyze_text_reports_path_and_per_rank_split() {
        let result = causal_run();
        let a = result.attribution.as_ref().expect("causal run attributes");
        let text = analyze_text("ft-test2", "static 800 MHz", a);
        assert!(text.contains("== analyze =="));
        assert!(text.contains("critical_path_s"));
        assert!(text.contains("redistributable_j"));
        assert!(text.contains("== per-rank attribution =="));
        // One row per rank plus the totals row.
        let rows = text
            .lines()
            .skip_while(|l| !l.starts_with("== per-rank"))
            .skip(2)
            .count();
        assert_eq!(rows, a.ranks.len() + 1);
        // Deterministic render.
        assert_eq!(text, analyze_text("ft-test2", "static 800 MHz", a));
    }

    #[test]
    fn attribution_ndjson_carries_header_ranks_and_summary() {
        let result = causal_run();
        let a = result.attribution.as_ref().unwrap();
        let ndjson = attribution_ndjson(a, &meta());
        let lines: Vec<&str> = ndjson.lines().collect();
        assert_eq!(lines.len(), a.ranks.len() + 2, "header + ranks + summary");
        assert!(lines[0].starts_with(r#"{"meta":"#));
        assert!(lines[1].starts_with(r#"{"rank":0,"#));
        assert!(lines.last().unwrap().starts_with(r#"{"summary":"#));
        assert!(lines.last().unwrap().contains("redistributable_j"));
    }

    #[test]
    fn perfetto_flows_appear_only_with_a_causal_log() {
        let causal = perfetto_json(&causal_run());
        assert!(causal.contains(r#""ph":"s""#), "flow starts expected");
        assert!(causal.contains(r#""ph":"f""#), "flow ends expected");
        let plain = perfetto_json(&traced_run());
        assert!(!plain.contains(r#""ph":"s""#));
    }

    #[test]
    fn stats_text_summarizes_run_and_metrics() {
        let result = traced_run();
        let text = stats_text(&result);
        assert!(text.contains("== run =="));
        assert!(text.contains("duration_s"));
        assert!(text.contains("== metrics =="));
        assert!(text.contains("engine.events.dispatched"));
        assert!(text.contains(&format!("events          {}", result.events)));
    }
}
