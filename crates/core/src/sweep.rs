//! The sweep pipeline: plan, dedupe, run and persist.
//!
//! Every multi-run path — a [`Sweep`] grid, a ladder [`crescendo`], the
//! figure regenerators, `pwrperf sweep` and the daemon — goes through two
//! steps. **Planning** turns experiments into [`SweepCell`]s: each cell
//! carries its experiment, its store fingerprint, its grid position, and
//! `duplicate_of` when an earlier cell has the same key. **Executing**
//! (behind [`Sweep::run`] and [`crescendo`]) serves unique cells from an
//! optional [`SweepStore`], runs the rest on the parallel batch runner,
//! persists them, and fills duplicates from their primaries. Against a
//! store a killed sweep resumes where it stopped, and re-invoking a
//! completed sweep performs **zero** engine executions and returns
//! bit-identical results (the determinism suite asserts this). `deltas` parameterize the
//! energy-delay analysis of the results (the paper's `∂` weighting), not
//! the execution grid: one stored ladder yields every `∂` row for free.

use std::collections::btree_map::{BTreeMap, Entry};

use edp_metrics::{best_operating_point, Crescendo};
use mpi_sim::{EngineConfig, Program, RunResult};
use obs::MetricsRegistry;
use sim_core::FaultSpec;

use crate::experiment::{ladder_mhz_desc, Experiment};
use crate::runner::map_or_reraise;
use crate::store::{fingerprint_with_programs, Fingerprint, StoreError, SweepStore};
use crate::strategy::DvsStrategy;
use crate::workload::Workload;

/// A grid of experiments: `workloads × fault_specs × strategies`, all
/// sharing one base engine configuration (each job's fault spec replaces
/// the engine's). `deltas` ride along for EDP analysis of the results.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Applications to run.
    pub workloads: Vec<Workload>,
    /// DVS strategies per workload.
    pub strategies: Vec<DvsStrategy>,
    /// `∂` weightings for [`Sweep::best_static_points`] (analysis only —
    /// deltas never spawn engine runs).
    pub deltas: Vec<f64>,
    /// Fault specs per workload (empty input means one clean run).
    pub fault_specs: Vec<FaultSpec>,
    /// Base engine configuration for every job.
    pub engine: EngineConfig,
}

/// One planned cell: the experiment, its cache key, and where it sits in
/// the grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The experiment this cell runs.
    pub experiment: Experiment,
    /// Its cache key.
    pub fingerprint: Fingerprint,
    /// `Some(i)` when an earlier cell `i` has the same fingerprint: this
    /// cell never loads or executes anything itself — it is filled from
    /// cell `i`'s result.
    pub duplicate_of: Option<usize>,
    /// Index into [`Sweep::workloads`].
    pub workload: usize,
    /// Index into [`Sweep::fault_specs`].
    pub fault: usize,
    /// Index into [`Sweep::strategies`].
    pub strategy: usize,
}

/// The cached/uncached partition of a sweep (what `--dry-run` prints).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Every cell in grid order.
    pub cells: Vec<SweepCell>,
    /// Per cell: whether the store held a record when the plan was made.
    pub cached: Vec<bool>,
}

impl SweepPlan {
    fn count(&self, cached: bool) -> usize {
        self.cells
            .iter()
            .zip(&self.cached)
            .filter(|(cell, &c)| c == cached && cell.duplicate_of.is_none())
            .count()
    }

    /// Unique cells already present in the store.
    pub fn hits(&self) -> usize {
        self.count(true)
    }

    /// Unique cells that would execute.
    pub fn misses(&self) -> usize {
        self.count(false)
    }

    /// Cells whose fingerprint repeats an earlier cell (they ride on
    /// that cell's result; `hits + misses + duplicates == cells`).
    pub fn duplicates(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.duplicate_of.is_some())
            .count()
    }
}

/// What one sweep invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Grid size.
    pub jobs: u64,
    /// Results served from the store.
    pub cache_hits: u64,
    /// Results that were not in the store (includes rejected records).
    pub cache_misses: u64,
    /// Engine executions actually performed (equals `cache_misses` when
    /// caching is on; the warm-path invariant is `engine_runs == 0`).
    pub engine_runs: u64,
    /// Records found but rejected (corrupt, version skew, undecodable) —
    /// each also counts as a miss and was re-run.
    pub corrupt_records: u64,
    /// Record bytes read from the store.
    pub bytes_read: u64,
    /// Record bytes written to the store.
    pub bytes_written: u64,
    /// Grid cells whose fingerprint repeated an earlier cell: each was
    /// served from the earlier cell's result — never loaded, executed,
    /// or counted as a hit or miss.
    pub duplicate_jobs: u64,
}

impl SweepReport {
    /// The report as an `obs` registry (`sweep.cache_hits`,
    /// `sweep.cache_misses`, ...), mergeable into run telemetry.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("sweep.jobs", self.jobs);
        m.counter_add("sweep.cache_hits", self.cache_hits);
        m.counter_add("sweep.cache_misses", self.cache_misses);
        m.counter_add("sweep.engine_runs", self.engine_runs);
        m.counter_add("sweep.corrupt_records", self.corrupt_records);
        m.counter_add("sweep.bytes_read", self.bytes_read);
        m.counter_add("sweep.bytes_written", self.bytes_written);
        m.counter_add("sweep.duplicate_jobs", self.duplicate_jobs);
        m
    }

    /// One-line human summary.
    pub fn render_text(&self) -> String {
        let duplicates = if self.duplicate_jobs > 0 {
            format!(", {} duplicates", self.duplicate_jobs)
        } else {
            String::new()
        };
        format!(
            "{} jobs: {} cache hits, {} misses ({} engine runs, {} corrupt records{}), {} B read, {} B written",
            self.jobs,
            self.cache_hits,
            self.cache_misses,
            self.engine_runs,
            self.corrupt_records,
            duplicates,
            self.bytes_read,
            self.bytes_written,
        )
    }
}

/// The planned cells, their results (grid order), and accounting.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The cells that ran, in grid order.
    pub cells: Vec<SweepCell>,
    /// One result per cell, row-major
    /// (`workloads × fault_specs × strategies`).
    pub results: Vec<RunResult>,
    /// What the run did.
    pub report: SweepReport,
}

/// One row of the sweep-level slack table: the energy attribution of a
/// single grid cell, aggregated to cluster scope (see
/// [`SweepOutcome::slack_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SlackRow {
    /// Workload label.
    pub workload: String,
    /// Strategy label.
    pub strategy: String,
    /// Index into [`Sweep::fault_specs`].
    pub fault_index: usize,
    /// Run makespan, seconds.
    pub makespan_s: f64,
    /// Critical-path time in network flight, seconds.
    pub cp_comm_s: f64,
    /// Message hops on the critical path.
    pub cp_hops: u64,
    /// Cluster joules off the critical path (comm + blocked + idle tail).
    pub redistributable_j: f64,
    /// Whole-run cluster joules.
    pub total_j: f64,
}

impl SlackRow {
    /// `redistributable_j` as a fraction of the run's total energy.
    pub fn slack_fraction(&self) -> f64 {
        if self.total_j <= 0.0 {
            0.0
        } else {
            self.redistributable_j / self.total_j
        }
    }
}

/// Render slack rows as the table `pwrperf sweep` appends for causal
/// sweeps: one line per workload × strategy (× fault spec), the
/// group-by view of where each configuration's energy slack sits.
pub fn render_slack_table(rows: &[SlackRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:<18} {:>10} {:>10} {:>8} {:>12} {:>8}\n",
        "workload", "strategy", "time(s)", "cp_comm", "hops", "slack(J)", "slack%"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<28} {:<18} {:>10.3} {:>10.3} {:>8} {:>12.1} {:>7.1}%\n",
            row.workload,
            row.strategy,
            row.makespan_s,
            row.cp_comm_s,
            row.cp_hops,
            row.redistributable_j,
            100.0 * row.slack_fraction(),
        ));
    }
    out
}

/// A `∂`-weighted best operating point over one workload's static ladder
/// (see [`Sweep::best_static_points`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BestPoint {
    /// Workload label.
    pub workload: String,
    /// Index into [`Sweep::fault_specs`].
    pub fault_index: usize,
    /// The `∂` weighting.
    pub delta: f64,
    /// Winning frequency, `None` when the sweep had no static points.
    pub best_mhz: Option<u32>,
}

/// The one planning step: fingerprint each experiment and mark repeats.
/// Each item carries its `[workload, fault, strategy]` grid position.
/// Programs depend only on the workload and the strategy's
/// instrumentation flag, so a run of consecutive cells on one workload
/// builds them once per flag and every such cell is fingerprinted from
/// them. Only the current workload's programs are held.
fn plan(items: impl IntoIterator<Item = (Experiment, [usize; 3])>) -> Vec<SweepCell> {
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut first_seen: BTreeMap<Fingerprint, usize> = BTreeMap::new();
    let mut programs: [Option<Vec<Program>>; 2] = [None, None];
    for (experiment, [workload, fault, strategy]) in items {
        let same_workload = cells
            .last()
            .is_some_and(|prev| prev.experiment.workload == experiment.workload);
        if !same_workload {
            programs = [None, None];
        }
        let instrumented = experiment.strategy.wants_instrumentation();
        let built = programs[usize::from(instrumented)]
            .get_or_insert_with(|| experiment.workload.programs(instrumented));
        let fingerprint = fingerprint_with_programs(&experiment, built);
        // Two cells can collide legitimately — a duplicated axis entry,
        // or two requests that ladder-resolve to the same operating
        // point — and running both would double-count misses.
        let duplicate_of = match first_seen.entry(fingerprint) {
            Entry::Occupied(primary) => Some(*primary.get()),
            Entry::Vacant(slot) => {
                slot.insert(cells.len());
                None
            }
        };
        cells.push(SweepCell {
            experiment,
            fingerprint,
            duplicate_of,
            workload,
            fault,
            strategy,
        });
    }
    cells
}

/// Fill every duplicate cell's slot from its primary's. `None` when a
/// slot is still empty afterwards.
pub(crate) fn fill_duplicates(
    cells: &[SweepCell],
    mut slots: Vec<Option<RunResult>>,
) -> Option<Vec<RunResult>> {
    for (i, cell) in cells.iter().enumerate() {
        if let Some(primary) = cell.duplicate_of {
            slots[i] = slots[primary].clone();
        }
    }
    slots.into_iter().collect()
}

/// The one execute step. Serves each unique cell from `store` when it
/// holds a valid record, runs the rest on the parallel batch runner
/// (`workers` as in [`crate::BatchPolicy::workers`]), persists them, and
/// fills duplicates. With no store every unique cell is an engine run.
/// Records that exist but fail validation count as misses (and as
/// `corrupt_records`) and are re-run and overwritten; store *write*
/// failures abort, since silently losing results would defeat
/// resumability.
pub(crate) fn run_cells(
    cells: Vec<SweepCell>,
    mut store: Option<&mut SweepStore>,
    workers: Option<usize>,
) -> Result<SweepOutcome, StoreError> {
    let before = store.as_deref().map(SweepStore::stats).unwrap_or_default();
    let mut slots: Vec<Option<RunResult>> = vec![None; cells.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if cell.duplicate_of.is_some() {
            continue;
        }
        match store.as_deref_mut().map(|s| s.load(cell.fingerprint)) {
            Some(Ok(Some(result))) => slots[i] = Some(result),
            // No store, no record, or a rejected one: run (and overwrite).
            _ => misses.push(i),
        }
    }

    let to_run: Vec<&Experiment> = misses.iter().map(|&i| &cells[i].experiment).collect();
    let (fresh, _) = map_or_reraise(&to_run, |experiment| experiment.run(), workers);
    for (&i, result) in misses.iter().zip(fresh) {
        if let Some(store) = store.as_deref_mut() {
            store.store(cells[i].fingerprint, &result)?;
        }
        slots[i] = Some(result);
    }
    let results = fill_duplicates(&cells, slots).unwrap_or_default();
    assert_eq!(
        results.len(),
        cells.len(),
        "every sweep slot must be filled"
    );

    let after = store.as_deref().map(SweepStore::stats).unwrap_or_default();
    let engine_runs = misses.len() as u64;
    let report = SweepReport {
        jobs: cells.len() as u64,
        cache_hits: after.hits - before.hits,
        cache_misses: engine_runs,
        engine_runs,
        corrupt_records: after.corrupt - before.corrupt,
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_written: after.bytes_written - before.bytes_written,
        duplicate_jobs: cells.iter().filter(|c| c.duplicate_of.is_some()).count() as u64,
    };
    Ok(SweepOutcome {
        cells,
        results,
        report,
    })
}

/// A ladder crescendo: `make` builds the experiment at each operating
/// point (fastest first), and the points run through the sweep pipeline
/// — against `store` when given, so cached points replay and fresh ones
/// persist.
pub fn crescendo(
    make: impl Fn(u32) -> Experiment,
    store: Option<&mut SweepStore>,
) -> Result<Crescendo, StoreError> {
    let ladder = ladder_mhz_desc();
    let cells = plan(
        ladder
            .iter()
            .enumerate()
            .map(|(i, &mhz)| (make(mhz), [0, 0, i])),
    );
    let outcome = run_cells(cells, store, None)?;
    Ok(crescendo_from_results(&ladder, &outcome.results))
}

/// The crescendo of `results`, run at the operating points `mhz` in
/// order.
pub fn crescendo_from_results(mhz: &[u32], results: &[RunResult]) -> Crescendo {
    Crescendo::from_pairs(
        mhz.iter()
            .zip(results)
            .map(|(&mhz, r)| (mhz, r.total_energy_j(), r.duration_secs())),
    )
}

impl Sweep {
    /// The full grid: every workload under every strategy and fault
    /// spec. An empty `fault_specs` means "one clean run per cell".
    pub fn grid(
        workloads: Vec<Workload>,
        strategies: Vec<DvsStrategy>,
        deltas: Vec<f64>,
        fault_specs: Vec<FaultSpec>,
    ) -> Self {
        let fault_specs = if fault_specs.is_empty() {
            vec![FaultSpec::default()]
        } else {
            fault_specs
        };
        Sweep {
            workloads,
            strategies,
            deltas,
            fault_specs,
            engine: EngineConfig::default(),
        }
    }

    /// The paper's ladder sweep for `workloads`: every static operating
    /// point plus the dynamic strategy at top base frequency.
    pub fn ladder(workloads: Vec<Workload>) -> Self {
        let mut strategies: Vec<DvsStrategy> = ladder_mhz_desc()
            .into_iter()
            .map(DvsStrategy::StaticMhz)
            .collect();
        strategies.push(DvsStrategy::DynamicBaseMhz(1400));
        Sweep::grid(workloads, strategies, Vec::new(), Vec::new())
    }

    /// Replace the base engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Grid size.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.fault_specs.len() * self.strategies.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plan the grid in row-major order
    /// (`workloads × fault_specs × strategies`).
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut items = Vec::with_capacity(self.len());
        for (wi, workload) in self.workloads.iter().enumerate() {
            for (fi, spec) in self.fault_specs.iter().enumerate() {
                for (si, &strategy) in self.strategies.iter().enumerate() {
                    let mut engine = self.engine.clone();
                    engine.faults = spec.clone();
                    let experiment =
                        Experiment::new(workload.clone(), strategy).with_engine(engine);
                    items.push((experiment, [wi, fi, si]));
                }
            }
        }
        plan(items)
    }

    /// Partition the grid against `store` without executing anything.
    pub fn plan(&self, store: &SweepStore) -> SweepPlan {
        let cells = self.cells();
        let cached = cells
            .iter()
            .map(|c| store.contains(c.fingerprint))
            .collect();
        SweepPlan { cells, cached }
    }

    /// Plan and execute the grid: the one execute step, with `workers`
    /// as in [`crate::BatchPolicy::workers`].
    pub fn run(
        &self,
        store: Option<&mut SweepStore>,
        workers: Option<usize>,
    ) -> Result<SweepOutcome, StoreError> {
        run_cells(self.cells(), store, workers)
    }

    /// For every workload × fault spec × `∂`: the best static operating
    /// point by the paper's weighted ED²P, assembled from `outcome`'s
    /// [`DvsStrategy::StaticMhz`] cells. Empty when the sweep has no
    /// deltas.
    pub fn best_static_points(&self, outcome: &SweepOutcome) -> Vec<BestPoint> {
        let cells: Vec<(&SweepCell, &RunResult)> =
            outcome.cells.iter().zip(&outcome.results).collect();
        let mut out = Vec::new();
        // Row-major order makes each workload × fault group contiguous.
        for group in cells.chunk_by(|(a, _), (b, _)| (a.workload, a.fault) == (b.workload, b.fault))
        {
            let crescendo = Crescendo::from_pairs(group.iter().filter_map(|(cell, r)| {
                match cell.experiment.strategy {
                    DvsStrategy::StaticMhz(mhz) => {
                        Some((mhz, r.total_energy_j(), r.duration_secs()))
                    }
                    _ => None,
                }
            }));
            let Some((first, _)) = group.first() else {
                continue;
            };
            for &delta in &self.deltas {
                out.push(BestPoint {
                    workload: first.experiment.workload.label(),
                    fault_index: first.fault,
                    delta,
                    best_mhz: best_operating_point(&crescendo, delta),
                });
            }
        }
        out
    }
}

impl SweepOutcome {
    /// Aggregate the per-run energy attributions of a causal sweep into
    /// the group-by workload × strategy slack table. Rows come out in
    /// grid order; cells whose results carry no attribution (the sweep
    /// ran without [`EngineConfig::causal`]) are skipped, so a
    /// non-causal sweep yields an empty table rather than zeros.
    pub fn slack_rows(&self) -> Vec<SlackRow> {
        self.cells
            .iter()
            .zip(&self.results)
            .filter_map(|(cell, result)| {
                let a = result.attribution.as_ref()?;
                Some(SlackRow {
                    workload: cell.experiment.workload.label(),
                    strategy: cell.experiment.strategy.label(),
                    fault_index: cell.fault,
                    makespan_s: a.makespan.as_secs_f64(),
                    cp_comm_s: a.cp_comm.as_secs_f64(),
                    cp_hops: a.cp_hops,
                    redistributable_j: a.redistributable_j,
                    total_j: result.total_energy_j(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pwrperf-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_sweep() -> Sweep {
        Sweep::grid(
            vec![Workload::ft_test(2)],
            vec![DvsStrategy::StaticMhz(1400), DvsStrategy::StaticMhz(600)],
            vec![0.5],
            Vec::new(),
        )
    }

    #[test]
    fn grid_shape_and_order() {
        let sweep = tiny_sweep();
        assert_eq!(sweep.len(), 2);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells.first().map(|c| c.experiment.strategy),
            Some(DvsStrategy::StaticMhz(1400))
        );
        assert_eq!(cells.last().map(|c| c.strategy), Some(1));
    }

    #[test]
    fn cold_then_warm_sweep_is_bit_identical_with_zero_engine_runs() {
        let dir = tmp_dir("warm");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = tiny_sweep();

        let cold = sweep.run(Some(&mut store), None).unwrap();
        assert_eq!(cold.report.cache_hits, 0);
        assert_eq!(cold.report.engine_runs, 2);

        let warm = sweep.run(Some(&mut store), None).unwrap();
        assert_eq!(warm.report.engine_runs, 0, "warm sweep must not execute");
        assert_eq!(warm.report.cache_hits, 2);
        assert_eq!(
            cold.results, warm.results,
            "cached results must be bit-identical"
        );

        let plan = sweep.plan(&store);
        assert_eq!((plan.hits(), plan.misses()), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planned_keys_match_per_experiment_fingerprints() {
        // The planner builds each workload's programs once per
        // instrumentation flag; the keys must not notice.
        let sweep = Sweep::grid(
            vec![Workload::ft_test(2), Workload::ft_test(4)],
            vec![
                DvsStrategy::StaticMhz(800),
                DvsStrategy::DynamicBaseMhz(1400),
                DvsStrategy::StaticMhz(1400),
            ],
            Vec::new(),
            vec![
                FaultSpec::default(),
                FaultSpec::parse("seed:3,slow:1:1.5").unwrap(),
            ],
        );
        let cells = sweep.cells();
        assert_eq!(cells.len(), 12);
        for cell in &cells {
            assert_eq!(
                cell.fingerprint,
                crate::store::fingerprint_experiment(&cell.experiment)
            );
        }
        let last = cells.last().unwrap();
        assert_eq!((last.workload, last.fault, last.strategy), (1, 1, 2));
    }

    #[test]
    fn report_metrics_expose_counters() {
        let report = SweepReport {
            jobs: 5,
            cache_hits: 3,
            cache_misses: 2,
            engine_runs: 2,
            corrupt_records: 1,
            bytes_read: 100,
            bytes_written: 50,
            duplicate_jobs: 0,
        };
        let m = report.metrics();
        assert_eq!(m.counter("sweep.cache_hits"), Some(3));
        assert_eq!(m.counter("sweep.cache_misses"), Some(2));
        assert_eq!(m.counter("sweep.bytes_read"), Some(100));
        assert_eq!(m.counter("sweep.duplicate_jobs"), Some(0));
        let text = report.render_text();
        assert!(text.contains("3 cache hits"));
        assert!(!text.contains("duplicates"), "quiet when there are none");
        let with_dups = SweepReport {
            duplicate_jobs: 2,
            ..report
        };
        assert!(with_dups.render_text().contains("2 duplicates"));
    }

    #[test]
    fn duplicated_grid_cells_execute_once() {
        // The dedupe regression: a duplicated axis entry (here both a
        // literal repeat and a request that ladder-resolves onto another
        // cell's operating point) must not run the engine twice or
        // double-count misses.
        let dir = tmp_dir("dedupe");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = Sweep::grid(
            vec![Workload::ft_test(2)],
            vec![
                DvsStrategy::StaticMhz(1400),
                DvsStrategy::StaticMhz(1400), // literal duplicate
                DvsStrategy::StaticMhz(5000), // clamps to 1400: same key
                DvsStrategy::StaticMhz(600),
            ],
            Vec::new(),
            Vec::new(),
        );

        let plan = sweep.plan(&store);
        assert_eq!(
            (plan.hits(), plan.misses(), plan.duplicates()),
            (0, 2, 2),
            "only unique fingerprints count as misses"
        );

        let cold = sweep.run(Some(&mut store), Some(1)).unwrap();
        assert_eq!(cold.report.jobs, 4);
        assert_eq!(cold.report.engine_runs, 2, "one run per unique key");
        assert_eq!(cold.report.cache_misses, 2);
        assert_eq!(cold.report.duplicate_jobs, 2);
        assert_eq!(cold.results.len(), 4);
        assert_eq!(cold.results[0], cold.results[1]);
        assert_eq!(cold.results[0], cold.results[2]);
        assert_ne!(cold.results[0], cold.results[3]);

        // Warm pass: two unique hits, still zero engine work.
        let warm = sweep.run(Some(&mut store), Some(1)).unwrap();
        assert_eq!(warm.report.engine_runs, 0);
        assert_eq!(warm.report.cache_hits, 2);
        assert_eq!(warm.report.duplicate_jobs, 2);
        assert_eq!(warm.results, cold.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn best_static_points_pick_sane_frequencies() {
        let sweep = Sweep::ladder(vec![Workload::ft_test(2)]);
        let sweep = Sweep {
            deltas: vec![0.0, 1.0],
            ..sweep
        };
        let outcome = sweep.run(None, None).unwrap();
        let points = sweep.best_static_points(&outcome);
        assert_eq!(points.len(), 2);
        for p in &points {
            let mhz = p.best_mhz.expect("ladder sweep has static points");
            assert!((600..=1400).contains(&mhz));
        }
    }

    #[test]
    fn causal_sweep_yields_the_slack_table_and_plain_sweeps_do_not() {
        let sweep = Sweep {
            engine: EngineConfig {
                causal: true,
                ..EngineConfig::default()
            },
            ..tiny_sweep()
        };
        let rows = sweep.run(None, Some(1)).unwrap().slack_rows();
        assert_eq!(rows.len(), 2, "one row per grid cell");
        for row in &rows {
            assert!(row.makespan_s > 0.0);
            assert!(row.total_j > 0.0);
            assert!((0.0..=1.0).contains(&row.slack_fraction()), "{row:?}");
        }
        assert_eq!(rows[0].strategy, "stat 1400MHz");
        let table = render_slack_table(&rows);
        assert!(table.contains("slack%"));
        assert_eq!(table.lines().count(), 3, "header + two rows");

        // Without causal recording there is nothing to aggregate.
        let rows = tiny_sweep().run(None, Some(1)).unwrap().slack_rows();
        assert!(rows.is_empty());
    }
}
