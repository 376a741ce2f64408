//! CSV export of profiles — the file format PowerPack's post-processing
//! scripts consumed. Pure string builders: callers decide where to write.

use mpi_sim::{RunResult, SampleRow};
use sim_core::{TraceEvent, TraceKind};

/// Power/energy samples as CSV: one row per sample, one power and one
/// energy column per node, plus per-node frequency.
pub fn samples_to_csv(samples: &[SampleRow]) -> String {
    let mut out = String::new();
    let Some(first) = samples.first() else {
        return out;
    };
    let nodes = first.node_power_w.len();
    out.push_str("time_s");
    for n in 0..nodes {
        out.push_str(&format!(
            ",power_w_{n},energy_j_{n},mhz_{n},battery_mwh_{n}"
        ));
    }
    out.push('\n');
    for s in samples {
        out.push_str(&format!("{:.6}", s.time.as_secs_f64()));
        for n in 0..nodes {
            out.push_str(&format!(
                ",{:.3},{:.3},{},{}",
                s.node_power_w[n], s.node_energy_j[n], s.node_mhz[n], s.node_battery_mwh[n]
            ));
        }
        out.push('\n');
    }
    out
}

/// Trace events as CSV (`time_s,node,kind,detail`).
pub fn trace_to_csv(trace: &[TraceEvent]) -> String {
    let mut out = String::from("time_s,node,kind,detail\n");
    for ev in trace {
        let kind = match ev.kind {
            TraceKind::PhaseBegin => "phase_begin",
            TraceKind::PhaseEnd => "phase_end",
            TraceKind::FreqChange => "freq_change",
            TraceKind::MsgStart => "msg_start",
            TraceKind::MsgEnd => "msg_end",
        };
        // Details are engine-generated (no commas/quotes by construction),
        // but escape defensively.
        let detail = ev.detail.to_string().replace('"', "\"\"");
        out.push_str(&format!(
            "{:.9},{},{kind},\"{detail}\"\n",
            ev.time.as_secs_f64(),
            ev.node
        ));
    }
    out
}

/// A run summary as CSV (one row per node: energy components, breakdown).
pub fn summary_to_csv(result: &RunResult) -> String {
    let mut out = String::from(
        "node,cpu_dynamic_j,cpu_static_j,base_j,memory_j,nic_j,transition_j,total_j,\
         compute_s,mem_stall_s,wait_busy_s,wait_blocked_s,transition_s,transitions\n",
    );
    for (node, (report, breakdown)) in result.per_node.iter().zip(&result.breakdown).enumerate() {
        out.push_str(&format!(
            "{node},{:.3},{:.3},{:.3},{:.3},{:.3},{:.6},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
            report.cpu_dynamic_j,
            report.cpu_static_j,
            report.base_j,
            report.memory_j,
            report.nic_j,
            report.transition_j,
            report.total_j(),
            breakdown.compute.as_secs_f64(),
            breakdown.mem_stall.as_secs_f64(),
            breakdown.wait_busy.as_secs_f64(),
            breakdown.wait_blocked.as_secs_f64(),
            breakdown.transition.as_secs_f64(),
            result.transitions[node],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::RankBreakdown;
    use power_model::EnergyReport;
    use sim_core::{SimDuration, SimTime};

    fn sample(t: u64) -> SampleRow {
        SampleRow {
            time: SimTime::from_secs(t),
            node_power_w: vec![30.0, 31.0],
            node_energy_j: vec![30.0 * t as f64, 31.0 * t as f64],
            node_mhz: vec![1400, 600],
            node_battery_mwh: vec![72000, 71999],
        }
    }

    #[test]
    fn samples_csv_has_header_and_rows() {
        let csv = samples_to_csv(&[sample(0), sample(1)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("time_s,power_w_0"));
        assert!(lines[0].contains("battery_mwh_1"));
        assert!(lines[2].contains("31.000"));
        assert!(lines[2].contains(",600,"));
    }

    #[test]
    fn empty_samples_export_empty() {
        assert!(samples_to_csv(&[]).is_empty());
    }

    #[test]
    fn trace_csv_escapes_and_labels() {
        let trace = vec![TraceEvent {
            time: SimTime::from_secs(1),
            node: 3,
            kind: TraceKind::PhaseBegin,
            detail: sim_core::TraceDetail::Phase("fft"),
        }];
        let csv = trace_to_csv(&trace);
        assert!(csv.contains("phase_begin"));
        assert!(csv.contains("\"fft\""));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    fn summary_csv_one_row_per_node() {
        let result = RunResult {
            duration: SimDuration::from_secs(10),
            per_node: vec![EnergyReport::default(); 2],
            breakdown: vec![RankBreakdown::default(); 2],
            transitions: vec![4, 0],
            ..RunResult::default()
        };
        let csv = summary_to_csv(&result);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",4"));
    }
}
