//! The miss executor: in-flight dedupe over a shared [`SweepStore`].
//!
//! Any number of handler threads can submit overlapping sweeps. Hits
//! stream straight from the store; each missing fingerprint is *claimed*
//! by exactly one thread (which executes it on the work-stealing batch
//! runner) while every other thread that wants the same result parks on
//! the in-flight slot and is handed the result when it lands. The
//! invariant — checked by the concurrency tests — is that the total
//! number of engine executions equals the number of unique missing
//! fingerprints, no matter how requests interleave.
//!
//! The claim protocol closes the obvious races:
//!
//! 1. **claim** — lock the in-flight map; an existing slot means another
//!    thread owns the execution: wait on it. Otherwise insert a slot —
//!    this thread owns it.
//! 2. **recheck** — after claiming, probe the store again. The previous
//!    owner persists *before* it unclaims, so a fingerprint absent from
//!    the map is either truly new or already on disk; the recheck
//!    converts the latter into a hit instead of a second execution.
//! 3. **publish** — execution results (including failures — a panicking
//!    experiment publishes an error, never a hang) are persisted, then
//!    published to waiters, then unclaimed, in that order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mpi_sim::RunResult;

use crate::experiment::Experiment;
use crate::runner::{parallel_map, BatchPolicy};
use crate::store::{Fingerprint, StoreStats, SweepStore};
use crate::sweep::{fill_duplicates, Sweep, SweepOutcome, SweepReport};

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
    /// Results served from the store (incl. post-claim rechecks).
    pub(crate) hits: AtomicU64,
    /// Missing fingerprints this daemon claimed and executed.
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

/// How a planned unique job will be satisfied.
enum JobSource {
    /// Loaded from the store (or recheck) during planning.
    Hit(Box<RunResult>),
    /// This request owns the execution.
    Claimed,
    /// Another request owns it; park on the slot.
    Awaited(Arc<InflightSlot>),
}

/// The shared miss executor (one per daemon).
pub struct MissExecutor {
    inflight: Mutex<BTreeMap<Fingerprint, Arc<InflightSlot>>>,
    metrics: Arc<ServiceMetrics>,
    /// Worker override for the batch runner ([`BatchPolicy::workers`]).
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

    /// Run `sweep` against the shared store: hits from disk, misses
    /// claimed-or-awaited as described in the module docs. Returns the
    /// same row-major results a direct [`Sweep::run`] would produce.
    pub fn run_sweep(
        &self,
        store: &Mutex<SweepStore>,
        sweep: &Sweep,
    ) -> Result<SweepOutcome, ServiceError> {
        self.metrics.sweeps.fetch_add(1, Ordering::SeqCst);
        let cells = sweep.cells();
        let mut io = StoreStats::default();

        // Each unique cell is a hit, a claim, or an await.
        let mut sources: Vec<Option<JobSource>> = Vec::with_capacity(cells.len());
        let mut hits = 0u64;
        for cell in &cells {
            if cell.duplicate_of.is_some() {
                sources.push(None);
                continue;
            }
            let fp = cell.fingerprint;
            let source = match with_store(store, &mut io, |s| s.load(fp).ok().flatten()) {
                Some(result) => {
                    hits += 1;
                    JobSource::Hit(Box::new(result))
                }
                None => self.claim_or_await(store, fp, &mut hits, &mut io),
            };
            sources.push(Some(source));
        }

        // Execute every claim on the work-stealing batch runner.
        let claimed: Vec<usize> = sources
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Some(JobSource::Claimed)))
            .map(|(i, _)| i)
            .collect();
        let engine_runs = claimed.len() as u64;
        self.metrics.misses.fetch_add(engine_runs, Ordering::SeqCst);
        self.metrics
            .queue_depth
            .fetch_add(engine_runs, Ordering::SeqCst);
        let to_run: Vec<&Experiment> = claimed.iter().map(|&i| &cells[i].experiment).collect();
        let policy = BatchPolicy {
            workers: self.workers,
            ..BatchPolicy::default()
        };
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
            policy,
        );

        // Persist, publish, unclaim — in that order (see module docs).
        let mut first_error: Option<ServiceError> = None;
        let mut slots: Vec<Option<RunResult>> = vec![None; cells.len()];
        for (&i, outcome) in claimed.iter().zip(fresh) {
            let fp = cells[i].fingerprint;
            let published = match outcome {
                Ok(result) => {
                    if let Err(e) = with_store(store, &mut io, |s| s.store(fp, &result)) {
                        first_error.get_or_insert(ServiceError::Store(e));
                    }
                    Ok(result)
                }
                Err(e) => {
                    // An execution that panicked through its whole retry
                    // budget still publishes: waiters get the error, not
                    // a deadlock.
                    first_error.get_or_insert(ServiceError::Failed(e.to_string()));
                    Err(e.to_string())
                }
            };
            self.unclaim(fp, &published);
            if let Ok(result) = published {
                slots[i] = Some(result);
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }

        // Collect hits and awaited results; the planner fills duplicates.
        for (i, source) in sources.into_iter().enumerate() {
            match source {
                Some(JobSource::Hit(result)) => slots[i] = Some(*result),
                Some(JobSource::Awaited(slot)) => match slot.wait() {
                    Ok(result) => slots[i] = Some(result),
                    Err(msg) => return Err(ServiceError::Failed(msg)),
                },
                Some(JobSource::Claimed) | None => {}
            }
        }
        let results = fill_duplicates(&cells, slots).ok_or_else(|| {
            ServiceError::Failed("sweep left a cell without a result".to_string())
        })?;

        let jobs = cells.len() as u64;
        let duplicate_jobs = cells.iter().filter(|c| c.duplicate_of.is_some()).count() as u64;
        let awaited = jobs - hits - engine_runs - duplicate_jobs;
        self.metrics.hits.fetch_add(hits, Ordering::SeqCst);
        self.metrics.awaited.fetch_add(awaited, Ordering::SeqCst);
        let report = SweepReport {
            jobs,
            // Awaited results executed elsewhere; from this request's
            // point of view they are hits (it ran nothing for them).
            cache_hits: hits + awaited,
            cache_misses: engine_runs,
            engine_runs,
            corrupt_records: io.corrupt,
            bytes_read: io.bytes_read,
            bytes_written: io.bytes_written,
            duplicate_jobs,
        };
        Ok(SweepOutcome { results, report })
    }

    /// Step 1+2 of the claim protocol for one missing fingerprint.
    fn claim_or_await(
        &self,
        store: &Mutex<SweepStore>,
        fp: Fingerprint,
        hits: &mut u64,
        io: &mut StoreStats,
    ) -> JobSource {
        {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = inflight.get(&fp) {
                return JobSource::Awaited(Arc::clone(slot));
            }
            inflight.insert(fp, Arc::new(InflightSlot::new()));
        }
        // Recheck: the previous owner persists before it unclaims, so
        // anything that finished between our miss and our claim is on
        // disk now.
        match with_store(store, io, |s| s.load(fp).ok().flatten()) {
            Some(result) => {
                self.unclaim(fp, &Ok(result.clone()));
                *hits += 1;
                JobSource::Hit(Box::new(result))
            }
            None => JobSource::Claimed,
        }
    }

    /// Step 3's tail: drop the claim on `fp` and hand `result` to every
    /// request parked on it.
    fn unclaim(&self, fp: Fingerprint, result: &Result<RunResult, String>) {
        let slot = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            inflight.remove(&fp)
        };
        if let Some(slot) = slot {
            slot.publish(result.clone());
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
