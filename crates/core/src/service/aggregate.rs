//! The store-only query layer: stored results → ED²P/wED²P tables.
//!
//! A query names a grid exactly like a sweep submission, but it is
//! answered **entirely from the store**: every grid cell either loads a
//! record or is counted as missing — a query never executes the engine
//! (the service smoke test asserts engine-run counters stay flat across
//! queries). Rows group by workload × fault spec; within a group the
//! per-`∂` weighted ED²P of every strategy is normalized against the
//! group's first present row, which is the paper's way of reading the
//! tables ("relative to the highest operating point") without the
//! client needing any local analysis code.

use edp_metrics::{ed2p, weighted_ed2p};

use crate::store::SweepStore;

use super::protocol::SweepSpec;
use super::ServiceError;

/// One grid cell with a stored result.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Workload label.
    pub(crate) workload: String,
    /// Fault-spec string (`clean` for the empty spec).
    pub(crate) fault: String,
    /// Strategy label.
    pub(crate) strategy: String,
    /// Total energy, joules.
    pub(crate) energy_j: f64,
    /// Makespan, seconds.
    pub(crate) delay_s: f64,
    /// Plain `E · D²`.
    pub(crate) ed2p: f64,
    /// Weighted ED²P per requested `∂`, normalized to the first present
    /// row of the same workload × fault group (that row reads `1.0`).
    pub(crate) wed2p: Vec<f64>,
}

/// A rendered aggregation answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateTable {
    /// Topology the grid was keyed under.
    pub(crate) topology: String,
    /// The `∂` columns.
    pub(crate) deltas: Vec<f64>,
    /// One row per grid cell with a stored result, grid order.
    pub(crate) rows: Vec<AggregateRow>,
    /// Grid cells with no valid stored record — counted, never run.
    pub(crate) missing: u64,
}

/// Answer `spec` from `store` alone (see module docs).
pub fn aggregate(store: &mut SweepStore, spec: &SweepSpec) -> Result<AggregateTable, ServiceError> {
    let sweep = spec.resolve().map_err(ServiceError::Spec)?;
    let fault_labels: Vec<String> = if spec.fault_specs.is_empty() {
        vec!["clean".to_string()]
    } else {
        spec.fault_specs.clone()
    };

    let mut rows = Vec::new();
    let mut missing = 0u64;
    let cells = sweep.cells();
    // Per cell: its stored `(energy_j, delay_s)`; duplicates reuse their
    // primary's.
    let mut points: Vec<Option<(f64, f64)>> = Vec::with_capacity(cells.len());
    // The group baseline: the first cell of this workload × fault group
    // with a stored result.
    let mut baseline: Option<((usize, usize), (f64, f64))> = None;
    for cell in &cells {
        let point = match cell.duplicate_of {
            Some(primary) => points[primary],
            None => store
                .load(cell.fingerprint)
                .ok()
                .flatten()
                .map(|result| (result.total_energy_j(), result.duration_secs())),
        };
        points.push(point);
        let Some((energy_j, delay_s)) = point else {
            missing += 1;
            continue;
        };
        let group = (cell.workload, cell.fault);
        let (base_e, base_d) = match baseline {
            Some((g, base)) if g == group => base,
            _ => {
                baseline = Some((group, (energy_j, delay_s)));
                (energy_j, delay_s)
            }
        };
        let wed2p = spec
            .deltas
            .iter()
            .map(|&delta| {
                let raw = weighted_ed2p(energy_j, delay_s, delta);
                let base = weighted_ed2p(base_e, base_d, delta);
                if base > 0.0 {
                    raw / base
                } else {
                    raw
                }
            })
            .collect();
        rows.push(AggregateRow {
            workload: cell.experiment.workload.label(),
            fault: fault_labels.get(cell.fault).cloned().unwrap_or_default(),
            strategy: cell.experiment.strategy.label(),
            energy_j,
            delay_s,
            ed2p: ed2p(energy_j, delay_s),
            wed2p,
        });
    }
    Ok(AggregateTable {
        topology: spec.topology.clone(),
        deltas: spec.deltas.clone(),
        rows,
        missing,
    })
}

impl AggregateTable {
    /// Render the table as aligned text (what the CLI client prints).
    pub(crate) fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# topology={} rows={} missing={}\n",
            self.topology,
            self.rows.len(),
            self.missing
        ));
        let mut header = format!(
            "{:<14} {:<12} {:<16} {:>12} {:>10} {:>14}",
            "workload", "fault", "strategy", "energy_J", "delay_s", "ed2p"
        );
        for delta in &self.deltas {
            header.push_str(&format!(" {:>12}", format!("wed2p[{delta}]")));
        }
        out.push_str(&header);
        out.push('\n');
        for row in &self.rows {
            let mut line = format!(
                "{:<14} {:<12} {:<16} {:>12.3} {:>10.4} {:>14.4}",
                row.workload, row.fault, row.strategy, row.energy_j, row.delay_s, row.ed2p
            );
            for w in &row.wed2p {
                line.push_str(&format!(" {w:>12.4}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::DvsStrategy;
    use crate::sweep::Sweep;
    use crate::workload::Workload;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pwrperf-agg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn aggregates_from_store_only_and_counts_missing() {
        let dir = tmp_dir("table");
        let mut store = SweepStore::open(&dir).unwrap();
        // Seed two of three strategies; the third must be *missing*, not
        // executed.
        let sweep = Sweep::grid(
            vec![Workload::ft_test(2)],
            vec![DvsStrategy::StaticMhz(600), DvsStrategy::StaticMhz(800)],
            vec![],
        );
        sweep.run(Some(&mut store), Some(2)).unwrap();

        let spec = SweepSpec {
            workloads: vec!["ft-test4".into()],
            strategies: vec!["static-600".into(), "static-800".into()],
            deltas: vec![0.0, 0.2],
            ..SweepSpec::default()
        };
        // ft-test4 != the seeded ft_test(2): every cell missing.
        let table = aggregate(&mut store, &spec).unwrap();
        assert_eq!(table.rows.len(), 0);
        assert_eq!(table.missing, 2);

        // The seeded grid itself: two rows, no missing, baseline row
        // normalized to exactly 1.0 in every delta column.
        let mut store2 = SweepStore::open(&dir).unwrap();
        let seeded = Sweep::grid(
            vec![Workload::ft_test(4)],
            vec![DvsStrategy::StaticMhz(600), DvsStrategy::StaticMhz(800)],
            vec![],
        );
        seeded.run(Some(&mut store2), Some(2)).unwrap();
        let runs_before = store2.stats().misses;
        let table = aggregate(&mut store2, &spec).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.missing, 0);
        assert_eq!(store2.stats().misses, runs_before, "query never executes");
        for w in &table.rows[0].wed2p {
            assert_eq!(*w, 1.0, "baseline row is the unit row");
        }
        assert!(table.rows[1].wed2p.iter().all(|w| *w > 0.0));
        let text = table.render_text();
        assert!(text.contains("stat 600MHz") && text.contains("wed2p[0.2]"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
