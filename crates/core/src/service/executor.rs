//! The one execute step: every sweep's cells are satisfied here.
//!
//! [`crate::Sweep::run`] and [`crate::crescendo`] run it on a private
//! [`MissExecutor`]; the daemon runs every submission on one shared
//! executor, so any number of handler threads can execute overlapping
//! sweeps against one store. For each unique cell the step:
//!
//! 1. **claims** the fingerprint — under one lock on the in-flight map,
//!    an existing slot means another thread owns the cell, so this one
//!    waits on that slot; otherwise it inserts a slot and owns the cell;
//! 2. **loads** an owned cell from the store, once: a hit is published
//!    and unclaimed at once;
//! 3. **runs** the owned misses on the batch runner (`parallel_map`);
//! 4. **persists, publishes and unclaims** each of them, in that order —
//!    a panicking experiment publishes its error, so waiters never hang;
//!
//! then fills duplicates from their primaries and builds the
//! [`SweepReport`]. An owner persists before it unclaims, so a claim on a
//! fingerprint some earlier owner ran finds its record on disk: total
//! engine executions equal unique missing fingerprints, however requests
//! interleave (the concurrency tests check this).
//!
//! Failure policy: every job runs and every success persists; the step
//! then returns a [`SweepError`] naming the lowest-index failed cell.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mpi_sim::RunResult;

use crate::experiment::Experiment;
use crate::runner::{parallel_map, ExperimentError};
use crate::store::{Fingerprint, StoreStats, SweepStore};
use crate::sweep::{Sweep, SweepCell, SweepError, SweepOutcome, SweepReport};

use super::ServiceError;

/// Daemon-lifetime counters, exported as `service.*` on [`Request::Status`].
///
/// [`Request::Status`]: super::Request::Status
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests accepted (any kind).
    pub(crate) requests: AtomicU64,
    /// Sweep submissions handled.
    pub(crate) sweeps: AtomicU64,
    /// Aggregation queries handled.
    pub(crate) queries: AtomicU64,
    /// Results served from the store.
    pub(crate) hits: AtomicU64,
    /// Missing fingerprints this executor claimed and executed.
    pub(crate) misses: AtomicU64,
    /// Results obtained by waiting on another request's execution.
    pub(crate) awaited: AtomicU64,
    /// Engine executions actually performed.
    pub(crate) engine_runs: AtomicU64,
    /// Claims currently being executed (gauge).
    pub(crate) inflight: AtomicU64,
    /// High-water mark of `inflight`.
    pub(crate) inflight_peak: AtomicU64,
    /// Claimed jobs accepted but not yet started (gauge).
    pub(crate) queue_depth: AtomicU64,
    /// Compaction passes completed.
    pub(crate) compactions: AtomicU64,
    /// Bytes reclaimed by compaction (dropped + evicted records).
    pub(crate) compacted_bytes: AtomicU64,
    /// Valid records evicted by the store-size bound.
    pub(crate) evicted_records: AtomicU64,
}

impl ServiceMetrics {
    /// A zeroed counter set.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Raise `inflight` by one and fold the new value into the peak.
    fn inflight_enter(&self) {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.inflight_peak.fetch_max(now, Ordering::SeqCst);
    }

    /// Snapshot every counter as `(name, value)`, sorted by name — the
    /// payload of a status reply.
    pub(crate) fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = [
            ("service.awaited", &self.awaited),
            ("service.compacted_bytes", &self.compacted_bytes),
            ("service.compactions", &self.compactions),
            ("service.engine_runs", &self.engine_runs),
            ("service.evicted_records", &self.evicted_records),
            ("service.hits", &self.hits),
            ("service.inflight", &self.inflight),
            ("service.inflight_peak", &self.inflight_peak),
            ("service.misses", &self.misses),
            ("service.queries", &self.queries),
            ("service.queue_depth", &self.queue_depth),
            ("service.requests", &self.requests),
            ("service.sweeps", &self.sweeps),
        ]
        .iter()
        .map(|(name, counter)| ((*name).to_string(), counter.load(Ordering::SeqCst)))
        .collect();
        out.sort();
        out
    }
}

/// One in-flight execution: waiters park on `ready` until `result` is
/// published. A failed execution publishes `Err` — waiters never hang.
struct InflightSlot {
    result: Mutex<Option<Result<RunResult, String>>>,
    ready: Condvar,
}

impl InflightSlot {
    fn new() -> Self {
        InflightSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<RunResult, String>) {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<RunResult, String> {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The shared miss executor (one per daemon; a local sweep makes its
/// own).
pub struct MissExecutor {
    inflight: Mutex<BTreeMap<Fingerprint, Arc<InflightSlot>>>,
    metrics: Arc<ServiceMetrics>,
    /// Worker override for [`parallel_map`].
    workers: Option<usize>,
}

impl MissExecutor {
    /// A fresh executor publishing into `metrics`.
    pub fn new(metrics: Arc<ServiceMetrics>, workers: Option<usize>) -> Self {
        MissExecutor {
            inflight: Mutex::new(BTreeMap::new()),
            metrics,
            workers,
        }
    }

    /// Run `sweep` against the shared store through the execute step.
    /// Returns the same row-major results a direct [`Sweep::run`] would
    /// produce.
    pub fn run_sweep(
        &self,
        store: &Mutex<SweepStore>,
        sweep: &Sweep,
    ) -> Result<SweepOutcome, ServiceError> {
        self.metrics.sweeps.fetch_add(1, Ordering::SeqCst);
        Ok(self.execute(sweep.cells(), Some(store))?)
    }

    /// The execute step (see the module docs), against `store` when
    /// given: without one every unique cell is an engine run.
    pub(crate) fn execute(
        &self,
        cells: Vec<SweepCell>,
        store: Option<&Mutex<SweepStore>>,
    ) -> Result<SweepOutcome, SweepError> {
        let mut io = StoreStats::default();
        let mut slots: Vec<Option<Result<RunResult, SweepError>>> = Vec::new();
        slots.resize_with(cells.len(), || None);
        let mut claimed: Vec<usize> = Vec::new();
        let mut awaited: Vec<(usize, Arc<InflightSlot>)> = Vec::new();
        let mut hits = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            if cell.duplicate_of.is_some() {
                continue;
            }
            let fp = cell.fingerprint;
            if let Some(slot) = self.claim(fp) {
                awaited.push((i, slot));
                continue;
            }
            // A record that fails validation is a miss: it re-runs and
            // the fresh record overwrites it.
            match store.and_then(|s| with_store(s, &mut io, |s| s.load(fp).ok().flatten())) {
                Some(result) => {
                    hits += 1;
                    self.unclaim(fp, Ok(&result));
                    slots[i] = Some(Ok(result));
                }
                None => claimed.push(i),
            }
        }

        let engine_runs = claimed.len() as u64;
        self.metrics.misses.fetch_add(engine_runs, Ordering::SeqCst);
        self.metrics
            .queue_depth
            .fetch_add(engine_runs, Ordering::SeqCst);
        let to_run: Vec<&Experiment> = claimed.iter().map(|&i| &cells[i].experiment).collect();
        let (fresh, _) = parallel_map(
            &to_run,
            |experiment| {
                self.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
                self.metrics.inflight_enter();
                let result = experiment.run();
                self.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
                self.metrics.engine_runs.fetch_add(1, Ordering::SeqCst);
                result
            },
            self.workers,
        );

        // Persist, publish, unclaim — in that order (see module docs).
        for (&i, outcome) in claimed.iter().zip(fresh) {
            let fp = cells[i].fingerprint;
            slots[i] = Some(match outcome {
                Ok(result) => {
                    let persisted =
                        store.map_or(Ok(()), |s| with_store(s, &mut io, |s| s.store(fp, &result)));
                    self.unclaim(fp, Ok(&result));
                    persisted.map(|()| result).map_err(SweepError::Store)
                }
                Err(e) => {
                    self.unclaim(fp, Err(&e.message));
                    Err(SweepError::Failed(ExperimentError { index: i, ..e }))
                }
            });
        }
        let awaited_jobs = awaited.len() as u64;
        for (i, slot) in awaited {
            slots[i] = Some(
                slot.wait()
                    .map_err(|message| SweepError::Failed(ExperimentError { index: i, message })),
            );
        }
        self.metrics.hits.fetch_add(hits, Ordering::SeqCst);
        self.metrics
            .awaited
            .fetch_add(awaited_jobs, Ordering::SeqCst);

        // Grid order: duplicates copy their (earlier) primary, and the
        // first failure met is the lowest-index one.
        let mut results: Vec<RunResult> = Vec::with_capacity(cells.len());
        for (cell, slot) in cells.iter().zip(slots) {
            let result = match cell.duplicate_of {
                Some(primary) => results[primary].clone(),
                #[expect(
                    clippy::expect_used,
                    reason = "every unique cell is a hit, a claim or an await, and each fills its slot above"
                )]
                None => slot.expect("every unique cell has an outcome")?,
            };
            results.push(result);
        }

        let jobs = cells.len() as u64;
        let duplicate_jobs = cells.iter().filter(|c| c.duplicate_of.is_some()).count() as u64;
        let report = SweepReport {
            jobs,
            // Awaited results executed elsewhere; from this request's
            // point of view they are hits (it ran nothing for them).
            cache_hits: hits + awaited_jobs,
            cache_misses: engine_runs,
            engine_runs,
            corrupt_records: io.corrupt,
            bytes_read: io.bytes_read,
            bytes_written: io.bytes_written,
            duplicate_jobs,
        };
        Ok(SweepOutcome { results, report })
    }

    /// Claim `fp` for this thread (`None`), or return the slot of the
    /// thread that already owns it.
    fn claim(&self, fp: Fingerprint) -> Option<Arc<InflightSlot>> {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = inflight.get(&fp) {
            return Some(Arc::clone(slot));
        }
        inflight.insert(fp, Arc::new(InflightSlot::new()));
        None
    }

    /// Drop the claim on `fp` and hand `result` to every thread parked
    /// on it. Waiters clone the slot under the map lock, so once the slot
    /// is out of the map a sole reference means nobody is waiting, and
    /// the result is not copied.
    fn unclaim(&self, fp: Fingerprint, result: Result<&RunResult, &String>) {
        let slot = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            inflight.remove(&fp)
        };
        if let Some(slot) = slot.filter(|slot| Arc::strong_count(slot) > 1) {
            slot.publish(result.cloned().map_err(String::clone));
        }
    }
}

/// Run `f` on the locked store and add the store traffic it caused to
/// `io`. The lock is held across the diff, so concurrent requests never
/// count each other's bytes.
fn with_store<R>(
    store: &Mutex<SweepStore>,
    io: &mut StoreStats,
    f: impl FnOnce(&mut SweepStore) -> R,
) -> R {
    let mut store = store.lock().unwrap_or_else(|e| e.into_inner());
    let before = store.stats();
    let out = f(&mut store);
    let after = store.stats();
    io.corrupt += after.corrupt - before.corrupt;
    io.bytes_read += after.bytes_read - before.bytes_read;
    io.bytes_written += after.bytes_written - before.bytes_written;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::DvsStrategy;
    use crate::workload::Workload;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pwrperf-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_sweep(strategies: Vec<DvsStrategy>) -> Sweep {
        Sweep::grid(vec![Workload::ft_test(2)], strategies, vec![])
    }

    #[test]
    fn cold_then_warm_through_the_executor() {
        let dir = tmp_dir("warm");
        let store = Mutex::new(SweepStore::open(&dir).unwrap());
        let metrics = Arc::new(ServiceMetrics::new());
        let executor = MissExecutor::new(Arc::clone(&metrics), Some(2));
        let sweep = tiny_sweep(vec![
            DvsStrategy::StaticMhz(600),
            DvsStrategy::StaticMhz(800),
        ]);

        let cold = executor.run_sweep(&store, &sweep).unwrap();
        assert_eq!(cold.report.engine_runs, 2);
        assert_eq!(cold.report.cache_hits, 0);
        // The byte counters equal the record files the sweep created.
        let record_bytes: u64 = store
            .lock()
            .unwrap()
            .record_files()
            .unwrap()
            .iter()
            .map(|path| std::fs::metadata(path).unwrap().len())
            .sum();
        assert!(record_bytes > 0);
        assert_eq!(cold.report.bytes_written, record_bytes);

        let warm = executor.run_sweep(&store, &sweep).unwrap();
        assert_eq!(warm.report.engine_runs, 0, "warm store executes nothing");
        assert_eq!(warm.report.cache_hits, 2);
        assert_eq!(warm.report.bytes_read, record_bytes);
        assert_eq!(warm.report.bytes_written, 0);
        assert_eq!(warm.report.corrupt_records, 0);
        assert_eq!(warm.results, cold.results, "bit-identical replay");
        assert_eq!(metrics.engine_runs.load(Ordering::SeqCst), 2);
        assert_eq!(executor.inflight.lock().unwrap().len(), 0, "no claims leak");

        let counters = metrics.counters();
        assert!(counters.contains(&("service.engine_runs".to_string(), 2)));
        assert!(counters.contains(&("service.hits".to_string(), 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_overlapping_sweeps_execute_each_cell_once() {
        let dir = tmp_dir("concurrent");
        let store = Mutex::new(SweepStore::open(&dir).unwrap());
        let metrics = Arc::new(ServiceMetrics::new());
        let executor = MissExecutor::new(Arc::clone(&metrics), Some(2));
        // 3 unique cells; every thread submits the same grid.
        let sweep = tiny_sweep(vec![
            DvsStrategy::StaticMhz(600),
            DvsStrategy::StaticMhz(800),
            DvsStrategy::StaticMhz(1000),
        ]);

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(scope.spawn(|| executor.run_sweep(&store, &sweep).unwrap()));
            }
            let outcomes: Vec<SweepOutcome> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for outcome in &outcomes {
                assert_eq!(outcome.results, outcomes[0].results, "all threads agree");
                assert_eq!(
                    outcome.report.cache_hits
                        + outcome.report.engine_runs
                        + outcome.report.duplicate_jobs,
                    outcome.report.jobs
                );
            }
        });
        assert_eq!(
            metrics.engine_runs.load(Ordering::SeqCst),
            3,
            "every unique fingerprint executes exactly once across all threads"
        );
        assert_eq!(executor.inflight.lock().unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
