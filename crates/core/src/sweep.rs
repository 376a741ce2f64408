//! Resumable grid sweeps over workloads × strategies × fault specs.
//!
//! A [`Sweep`] names a cartesian grid of experiments. Against a
//! [`SweepStore`] it partitions the grid into cached and uncached jobs,
//! feeds only the misses to the parallel batch runner, and writes fresh
//! results back — so a killed sweep resumes where it stopped, and
//! re-invoking a completed sweep performs **zero** engine executions and
//! returns bit-identical results (the determinism suite asserts this).
//! `deltas` parameterize the energy-delay analysis of the results (the
//! paper's `∂` weighting), not the execution grid: one stored ladder
//! yields every `∂` row for free.

use edp_metrics::{best_operating_point, Crescendo};
use mpi_sim::{EngineConfig, RunResult};
use obs::MetricsRegistry;
use sim_core::FaultSpec;

use crate::experiment::{ladder_mhz_desc, Experiment};
use crate::runner::map_or_reraise;
use crate::store::{fingerprint_experiment, Fingerprint, StoreError, SweepStore};
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

/// One planned job: grid position, cache key, and whether the store
/// already holds it.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Row-major grid index.
    pub index: usize,
    /// The experiment this job runs.
    pub experiment: Experiment,
    /// Its cache key.
    pub fingerprint: Fingerprint,
    /// Whether a record existed when the plan was made.
    pub cached: bool,
    /// `Some(i)` when an earlier job `i` in the same grid has the same
    /// fingerprint: this job never loads or executes anything itself —
    /// its slot is filled from job `i`'s result.
    pub duplicate_of: Option<usize>,
}

/// The cached/uncached partition of a sweep (what `--dry-run` prints).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Every job in grid order.
    pub jobs: Vec<SweepJob>,
}

impl SweepPlan {
    /// Unique jobs already present in the store.
    pub fn hits(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.cached && j.duplicate_of.is_none())
            .count()
    }

    /// Unique jobs that would execute.
    pub fn misses(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| !j.cached && j.duplicate_of.is_none())
            .count()
    }

    /// Jobs whose fingerprint repeats an earlier grid cell (they ride on
    /// that cell's result; `hits + misses + duplicates == jobs`).
    pub fn duplicates(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.duplicate_of.is_some())
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

/// Results (grid order) plus accounting.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One result per grid job, row-major
    /// (`workloads × fault_specs × strategies`).
    pub results: Vec<RunResult>,
    /// What the run did.
    pub report: SweepReport,
}

/// One row of the sweep-level slack table: the energy attribution of a
/// single grid cell, aggregated to cluster scope (see
/// [`Sweep::slack_rows`]).
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

/// For each position, the index of the *earlier* position holding the
/// same fingerprint (`None` for first occurrences). Two grid cells can
/// collide legitimately — a duplicated axis entry, or two requests that
/// ladder-resolve to the same operating point — and running the engine
/// for both would double-count misses and waste the duplicate's run.
pub(crate) fn duplicate_map(fingerprints: &[Fingerprint]) -> Vec<Option<usize>> {
    let mut first_seen: std::collections::BTreeMap<Fingerprint, usize> =
        std::collections::BTreeMap::new();
    fingerprints
        .iter()
        .enumerate()
        .map(|(i, &fp)| match first_seen.get(&fp) {
            Some(&primary) => Some(primary),
            None => {
                first_seen.insert(fp, i);
                None
            }
        })
        .collect()
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

    /// Materialize the grid in row-major order
    /// (`workloads × fault_specs × strategies`).
    pub fn experiments(&self) -> Vec<Experiment> {
        let mut out = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for spec in &self.fault_specs {
                for &strategy in &self.strategies {
                    let mut engine = self.engine.clone();
                    engine.faults = spec.clone();
                    out.push(Experiment::new(workload.clone(), strategy).with_engine(engine));
                }
            }
        }
        out
    }

    /// Partition the grid against `store` without executing anything.
    /// Jobs repeating an earlier cell's fingerprint (a duplicated axis
    /// entry, or two requests resolving to the same operating point) are
    /// marked [`SweepJob::duplicate_of`] so they are neither loaded nor
    /// executed twice.
    pub fn plan(&self, store: &SweepStore) -> SweepPlan {
        let experiments = self.experiments();
        let fingerprints: Vec<Fingerprint> =
            experiments.iter().map(fingerprint_experiment).collect();
        let duplicate_of = duplicate_map(&fingerprints);
        let jobs = experiments
            .into_iter()
            .zip(fingerprints)
            .zip(duplicate_of)
            .enumerate()
            .map(
                |(index, ((experiment, fingerprint), duplicate_of))| SweepJob {
                    index,
                    cached: store.contains(fingerprint),
                    experiment,
                    fingerprint,
                    duplicate_of,
                },
            )
            .collect();
        SweepPlan { jobs }
    }

    /// Run the sweep against `store`: serve hits from disk, execute only
    /// the misses (on the parallel batch runner, `workers` as in
    /// [`crate::BatchPolicy::workers`]), and persist fresh results.
    /// Records that exist but fail validation count as misses (and as
    /// `corrupt_records`) and are re-run and overwritten; store *write*
    /// failures abort, since silently losing results would defeat
    /// resumability.
    pub fn run(
        &self,
        store: &mut SweepStore,
        workers: Option<usize>,
    ) -> Result<SweepOutcome, StoreError> {
        let experiments = self.experiments();
        let fingerprints: Vec<Fingerprint> =
            experiments.iter().map(fingerprint_experiment).collect();
        let duplicate_of = duplicate_map(&fingerprints);
        let duplicate_jobs = duplicate_of.iter().filter(|d| d.is_some()).count() as u64;
        let before = store.stats();

        // Only primary cells (the first occurrence of each fingerprint)
        // touch the store or the engine; duplicates are filled from
        // their primary afterwards.
        let mut slots: Vec<Option<RunResult>> = Vec::with_capacity(experiments.len());
        let mut miss_indices: Vec<usize> = Vec::new();
        for (i, &fp) in fingerprints.iter().enumerate() {
            if duplicate_of.get(i).is_some_and(|d| d.is_some()) {
                slots.push(None);
                continue;
            }
            match store.load(fp) {
                Ok(Some(result)) => slots.push(Some(result)),
                Ok(None) | Err(_) => {
                    // A rejected record is a miss: re-run and overwrite.
                    slots.push(None);
                    miss_indices.push(i);
                }
            }
        }

        let to_run: Vec<Experiment> = miss_indices
            .iter()
            .map(|&i| experiments[i].clone())
            .collect();
        let engine_runs = to_run.len() as u64;
        let (fresh, _) = map_or_reraise(&to_run, Experiment::run, workers);
        for (&i, result) in miss_indices.iter().zip(fresh) {
            store.store(fingerprints[i], &result)?;
            slots[i] = Some(result);
        }
        for (i, dup) in duplicate_of.iter().enumerate() {
            if let Some(primary) = dup {
                slots[i] = slots.get(*primary).cloned().flatten();
            }
        }

        let results: Vec<RunResult> = slots.into_iter().flatten().collect();
        assert_eq!(
            results.len(),
            experiments.len(),
            "every sweep slot must be filled"
        );
        let after = store.stats();
        let report = SweepReport {
            jobs: experiments.len() as u64,
            cache_hits: after.hits - before.hits,
            cache_misses: engine_runs,
            engine_runs,
            corrupt_records: after.corrupt - before.corrupt,
            bytes_read: after.bytes_read - before.bytes_read,
            bytes_written: after.bytes_written - before.bytes_written,
            duplicate_jobs,
        };
        Ok(SweepOutcome { results, report })
    }

    /// Run the whole grid with no cache involved (a CLI sweep without
    /// `--store`). Every *unique* job is an engine run; duplicated grid cells
    /// share their primary's result.
    pub fn run_uncached(&self, workers: Option<usize>) -> SweepOutcome {
        let experiments = self.experiments();
        let jobs = experiments.len() as u64;
        let fingerprints: Vec<Fingerprint> =
            experiments.iter().map(fingerprint_experiment).collect();
        let duplicate_of = duplicate_map(&fingerprints);
        let duplicate_jobs = duplicate_of.iter().filter(|d| d.is_some()).count() as u64;

        let primary_indices: Vec<usize> = duplicate_of
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| i)
            .collect();
        let to_run: Vec<Experiment> = primary_indices
            .iter()
            .map(|&i| experiments[i].clone())
            .collect();
        let engine_runs = to_run.len() as u64;
        let (fresh, _) = map_or_reraise(&to_run, Experiment::run, workers);

        let mut slots: Vec<Option<RunResult>> = vec![None; experiments.len()];
        for (&i, result) in primary_indices.iter().zip(fresh) {
            slots[i] = Some(result);
        }
        for (i, dup) in duplicate_of.iter().enumerate() {
            if let Some(primary) = dup {
                slots[i] = slots.get(*primary).cloned().flatten();
            }
        }
        let results: Vec<RunResult> = slots.into_iter().flatten().collect();
        assert_eq!(results.len(), jobs as usize, "every sweep slot filled");
        SweepOutcome {
            results,
            report: SweepReport {
                jobs,
                cache_misses: engine_runs,
                engine_runs,
                duplicate_jobs,
                ..SweepReport::default()
            },
        }
    }

    /// Aggregate the per-run energy attributions of a causal sweep into
    /// the group-by workload × strategy slack table. Rows come out in
    /// grid order; cells whose results carry no attribution (the sweep
    /// ran without [`EngineConfig::causal`]) are skipped, so a
    /// non-causal sweep yields an empty table rather than zeros.
    pub fn slack_rows(&self, outcome: &SweepOutcome) -> Vec<SlackRow> {
        let strategy_count = self.strategies.len();
        let mut out = Vec::new();
        for (wi, workload) in self.workloads.iter().enumerate() {
            for fi in 0..self.fault_specs.len() {
                let row_base = (wi * self.fault_specs.len() + fi) * strategy_count;
                for (si, strategy) in self.strategies.iter().enumerate() {
                    let Some(result) = outcome.results.get(row_base + si) else {
                        continue;
                    };
                    let Some(a) = &result.attribution else {
                        continue;
                    };
                    out.push(SlackRow {
                        workload: workload.label(),
                        strategy: strategy.label(),
                        fault_index: fi,
                        makespan_s: a.makespan.as_secs_f64(),
                        cp_comm_s: a.cp_comm.as_secs_f64(),
                        cp_hops: a.cp_hops,
                        redistributable_j: a.redistributable_j,
                        total_j: result.total_energy_j(),
                    });
                }
            }
        }
        out
    }

    /// For every workload × fault spec × `∂`: the best static operating
    /// point by the paper's weighted ED²P, assembled from `outcome`'s
    /// [`DvsStrategy::StaticMhz`] columns. Empty when the sweep has no
    /// deltas or no static strategies.
    pub fn best_static_points(&self, outcome: &SweepOutcome) -> Vec<BestPoint> {
        let strategy_count = self.strategies.len();
        let mut out = Vec::new();
        for (wi, workload) in self.workloads.iter().enumerate() {
            for fi in 0..self.fault_specs.len() {
                let row_base = (wi * self.fault_specs.len() + fi) * strategy_count;
                let crescendo = Crescendo::from_pairs(
                    self.strategies.iter().enumerate().filter_map(
                        |(si, strategy)| match strategy {
                            DvsStrategy::StaticMhz(mhz) => outcome
                                .results
                                .get(row_base + si)
                                .map(|r| (*mhz, r.total_energy_j(), r.duration_secs())),
                            _ => None,
                        },
                    ),
                );
                for &delta in &self.deltas {
                    out.push(BestPoint {
                        workload: workload.label(),
                        fault_index: fi,
                        delta,
                        best_mhz: best_operating_point(&crescendo, delta),
                    });
                }
            }
        }
        out
    }
}

/// Ladder crescendo with any strategy constructor, served through a
/// store (the cached analogue of [`crate::crescendo_with`]): cached
/// points are read back, missing ones are run and persisted — so figure
/// pipelines go warm after their first invocation.
pub fn crescendo_cached(
    workload: &Workload,
    engine: EngineConfig,
    make: impl Fn(u32) -> DvsStrategy,
    store: &mut SweepStore,
) -> Result<Crescendo, StoreError> {
    let ladder = ladder_mhz_desc();
    let strategies: Vec<DvsStrategy> = ladder.iter().map(|&mhz| make(mhz)).collect();
    // The grid stamps each job's faults from its fault-spec axis, so the
    // engine's own spec must ride along there — otherwise a faulted
    // cached sweep would silently run (and cache) unfaulted results.
    let fault_specs = vec![engine.faults.clone()];
    let sweep = Sweep::grid(vec![workload.clone()], strategies, Vec::new(), fault_specs)
        .with_engine(engine);
    let outcome = sweep.run(store, None)?;
    Ok(Crescendo::from_pairs(
        ladder
            .into_iter()
            .zip(&outcome.results)
            .map(|(mhz, result)| (mhz, result.total_energy_j(), result.duration_secs())),
    ))
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
        let exps = sweep.experiments();
        assert_eq!(exps.len(), 2);
        assert_eq!(
            exps.first().map(|e| e.strategy),
            Some(DvsStrategy::StaticMhz(1400))
        );
    }

    #[test]
    fn cold_then_warm_sweep_is_bit_identical_with_zero_engine_runs() {
        let dir = tmp_dir("warm");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = tiny_sweep();

        let cold = sweep.run(&mut store, None).unwrap();
        assert_eq!(cold.report.cache_hits, 0);
        assert_eq!(cold.report.engine_runs, 2);

        let warm = sweep.run(&mut store, None).unwrap();
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
    fn uncached_run_matches_direct_execution() {
        let sweep = tiny_sweep();
        let outcome = sweep.run_uncached(Some(1));
        assert_eq!(outcome.report.engine_runs, 2);
        assert_eq!(outcome.report.cache_hits, 0);
        let direct: Vec<RunResult> = sweep.experiments().iter().map(Experiment::run).collect();
        assert_eq!(outcome.results, direct);
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

        let cold = sweep.run(&mut store, Some(1)).unwrap();
        assert_eq!(cold.report.jobs, 4);
        assert_eq!(cold.report.engine_runs, 2, "one run per unique key");
        assert_eq!(cold.report.cache_misses, 2);
        assert_eq!(cold.report.duplicate_jobs, 2);
        assert_eq!(cold.results.len(), 4);
        assert_eq!(cold.results[0], cold.results[1]);
        assert_eq!(cold.results[0], cold.results[2]);
        assert_ne!(cold.results[0], cold.results[3]);

        // Warm pass: two unique hits, still zero engine work.
        let warm = sweep.run(&mut store, Some(1)).unwrap();
        assert_eq!(warm.report.engine_runs, 0);
        assert_eq!(warm.report.cache_hits, 2);
        assert_eq!(warm.report.duplicate_jobs, 2);
        assert_eq!(warm.results, cold.results);

        // The uncached path dedupes identically.
        let uncached = sweep.run_uncached(Some(1));
        assert_eq!(uncached.report.engine_runs, 2);
        assert_eq!(uncached.report.duplicate_jobs, 2);
        assert_eq!(uncached.results, cold.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn best_static_points_pick_sane_frequencies() {
        let sweep = Sweep::ladder(vec![Workload::ft_test(2)]);
        let sweep = Sweep {
            deltas: vec![0.0, 1.0],
            ..sweep
        };
        let outcome = sweep.run_uncached(None);
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
        let outcome = sweep.run_uncached(Some(1));
        let rows = sweep.slack_rows(&outcome);
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
        let plain = tiny_sweep();
        let rows = plain.slack_rows(&plain.run_uncached(Some(1)));
        assert!(rows.is_empty());
    }

    #[test]
    fn cached_crescendo_matches_uncached() {
        let dir = tmp_dir("crescendo");
        let mut store = SweepStore::open(&dir).unwrap();
        let workload = Workload::ft_test(2);
        let cached = crescendo_cached(
            &workload,
            EngineConfig::default(),
            DvsStrategy::StaticMhz,
            &mut store,
        )
        .unwrap();
        let direct = crate::experiment::static_crescendo(&workload);
        assert_eq!(cached.points(), direct.points());
        // Second assembly is all hits.
        let again = crescendo_cached(
            &workload,
            EngineConfig::default(),
            DvsStrategy::StaticMhz,
            &mut store,
        )
        .unwrap();
        assert_eq!(again.points(), direct.points());
        let stats = store.stats();
        assert_eq!(stats.hits, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
