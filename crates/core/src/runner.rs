//! Parallel execution of independent experiments.
//!
//! A paper-reproduction session runs *many* simulations — a crescendo is
//! five, a figure a dozen, the full figure suite hundreds — and every one
//! is an isolated deterministic state machine. [`run_batch`] fans a batch
//! over OS threads and returns results **in input order**, bit-identical
//! to running the same experiments sequentially:
//!
//! * parallelism is only ever *across* runs — a single simulation is never
//!   split, so its event order (and thus every float) is untouched;
//! * each result lands in the slot of the experiment that produced it,
//!   so batch order is input order regardless of scheduling;
//! * with one worker (or one job) the exact sequential path runs.
//!
//! Worker count comes from [`std::thread::available_parallelism`], clamped
//! to the job count; callers can pin it with [`parallel_map`]'s
//! `workers` override (tests use this — mutating `PWRPERF_THREADS` from a
//! test races sibling tests reading it), or process-wide with the
//! `PWRPERF_THREADS` environment variable (`PWRPERF_THREADS=1` forces
//! sequential execution).
//!
//! ## Degraded batches
//!
//! Every job runs under `catch_unwind`, so one poisoned experiment can
//! never take down a 500-run figure sweep:
//!
//! * [`parallel_map`] converts each panic into a per-slot
//!   [`ExperimentError`], returning `Err` for exactly the poisoned slots
//!   with all other results intact and in input order. Nothing is
//!   retried: runs are deterministic, so a panic would only repeat;
//! * [`run_batch`] / [`run_batch_telemetry`] keep the panicking contract —
//!   the lowest-index panic propagates to the caller — but only after
//!   **every** job has run, so no completed work is discarded mid-batch.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use mpi_sim::RunResult;
use obs::WallTimer;

use crate::experiment::Experiment;

/// Environment variable overriding the worker thread count.
pub(crate) const THREADS_ENV: &str = "PWRPERF_THREADS";

/// The `PWRPERF_THREADS` override, if set to a positive integer.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned environment read: PWRPERF_THREADS is parsed here, once per batch"
)]
fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Number of worker threads a batch of `jobs` independent tasks will use:
/// `override_workers` if set (minimum 1), otherwise the machine's
/// available parallelism; never more than `jobs`.
fn thread_count_with(jobs: usize, override_workers: Option<usize>) -> usize {
    if jobs <= 1 {
        return 1;
    }
    let workers = override_workers.filter(|&n| n >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    workers.min(jobs)
}

/// Wall-clock execution telemetry for one batch: how many workers ran,
/// what each did, and how well the batch kept them fed. Host-timing only —
/// never feeds simulated results, so determinism is untouched.
#[derive(Debug, Clone, Default)]
pub struct BatchTelemetry {
    /// Worker threads used (1 = sequential path).
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Wall-clock time of the whole batch.
    pub(crate) wall: Duration,
    /// Time each worker spent inside job closures.
    pub per_worker_busy: Vec<Duration>,
}

impl BatchTelemetry {
    /// Fraction of the batch wall-time each worker spent executing jobs.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall.as_secs_f64();
        self.per_worker_busy
            .iter()
            .map(|b| {
                if wall > 0.0 {
                    (b.as_secs_f64() / wall).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Aggregate time workers sat idle (waiting on the claim cursor or for
    /// the batch to end) — the queue-wait cost of imbalanced job lengths.
    pub fn idle_total(&self) -> Duration {
        let busy: Duration = self.per_worker_busy.iter().sum();
        (self.wall * self.workers as u32).saturating_sub(busy)
    }
}

/// One job of a batch failed (panicked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    /// Input-order index of the failed experiment.
    pub index: usize,
    /// The panic's message, when it carried one.
    pub message: String,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "experiment {} failed: {}", self.index, self.message)
    }
}

impl std::error::Error for ExperimentError {}

/// Best-effort text of a panic payload (`panic!` carries `&str`/`String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run every experiment and return the results in input order.
///
/// Each experiment is a self-contained deterministic simulation, so the
/// output is bit-identical whatever the worker count (asserted by
/// `tests/parallel_runner.rs`). A panicking experiment propagates after
/// the whole batch has drained; use [`parallel_map`] to get per-slot
/// errors instead.
#[must_use]
pub fn run_batch(experiments: Vec<Experiment>) -> Vec<RunResult> {
    run_batch_telemetry(experiments).0
}

/// [`run_batch`] with execution telemetry.
#[must_use]
pub fn run_batch_telemetry(experiments: Vec<Experiment>) -> (Vec<RunResult>, BatchTelemetry) {
    map_or_reraise(&experiments, Experiment::run, None)
}

/// Map `f` over `items` on `workers` threads (`None` defers to
/// `PWRPERF_THREADS`, then available parallelism), collecting results in
/// input order together with a [`BatchTelemetry`] of the pass. Workers
/// claim items through a shared atomic cursor (dynamic load balancing:
/// simulations vary widely in length). Each job runs exactly once, under
/// `catch_unwind`: a job that panics leaves an [`ExperimentError`] in its
/// slot, and no worker dies mid-batch.
pub fn parallel_map<T, R, F>(
    items: &[T],
    f: F,
    workers: Option<usize>,
) -> (Vec<Result<R, ExperimentError>>, BatchTelemetry)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_count_with(items.len(), workers.or_else(env_threads));
    let run = |index: usize| {
        catch_unwind(AssertUnwindSafe(|| f(&items[index]))).map_err(|payload| ExperimentError {
            index,
            message: panic_message(payload.as_ref()),
        })
    };
    let batch_timer = WallTimer::start();
    if workers <= 1 {
        let timer = WallTimer::start();
        let results = (0..items.len()).map(run).collect();
        let telemetry = BatchTelemetry {
            workers: 1,
            jobs: items.len(),
            per_worker_busy: vec![timer.elapsed()],
            wall: batch_timer.elapsed(),
        };
        return (results, telemetry);
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<R, ExperimentError>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut per_worker_busy = vec![Duration::ZERO; workers];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    let mut busy = Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let timer = WallTimer::start();
                        local.push((i, run(i)));
                        busy += timer.elapsed();
                    }
                    (local, busy)
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "join fails only if a worker died outside catch_unwind; nothing sane to degrade to"
            )]
            let (local, busy) = handle.join().expect("worker closures catch panics");
            per_worker_busy[w] = busy;
            for (i, r) in local {
                results[i] = Some(r);
            }
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "the atomic work-stealing counter claims every index exactly once; a hole is corrupted batch state"
    )]
    let results = results
        .into_iter()
        .map(|r| r.expect("every claimed index produces a result"))
        .collect();
    let telemetry = BatchTelemetry {
        workers,
        jobs: items.len(),
        wall: batch_timer.elapsed(),
        per_worker_busy,
    };
    (results, telemetry)
}

/// [`parallel_map`], re-raising the lowest-index panic as a panic
/// carrying its message — the panic a sequential run would have hit
/// first. The re-raise happens once the whole batch has drained, so no
/// completed work is lost before the caller sees it.
pub(crate) fn map_or_reraise<T, R, F>(
    items: &[T],
    f: F,
    workers: Option<usize>,
) -> (Vec<R>, BatchTelemetry)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (slots, telemetry) = parallel_map(items, f, workers);
    let results = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e.message))))
        .collect();
    (results, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let (out, _) = map_or_reraise(&items, |&x| x * x, Some(4));
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: [u64; 0] = [];
        assert!(map_or_reraise(&empty, |&x| x, Some(4)).0.is_empty());
        assert_eq!(map_or_reraise(&[7u64], |&x| x + 1, Some(4)).0, vec![8]);
    }

    #[test]
    fn thread_count_with_explicit_override() {
        assert_eq!(thread_count_with(8, Some(3)), 3);
        assert_eq!(thread_count_with(2, Some(16)), 2, "clamped to jobs");
        assert_eq!(thread_count_with(0, Some(4)), 1);
        assert_eq!(thread_count_with(1, None), 1);
        assert_eq!(thread_count_with(8, Some(0)), thread_count_with(8, None));
        assert!(thread_count_with(3, None) <= 3);
        assert!(thread_count_with(1000, None) >= 1);
    }

    #[test]
    fn telemetry_accounts_for_every_job() {
        let items: Vec<u64> = (0..64).collect();
        let (out, t) = parallel_map(&items, |&x| x + 1, Some(4));
        assert_eq!(out.len(), 64);
        assert_eq!(t.jobs, 64);
        assert_eq!(t.workers, 4);
        assert_eq!(t.per_worker_busy.len(), t.workers);
        assert!(t.utilization().iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn telemetry_sequential_path_uses_one_worker() {
        let items: Vec<u64> = (0..16).collect();
        let (out, t) = parallel_map(&items, |&x| x * 2, Some(1));
        assert_eq!(out[15], Ok(30));
        assert_eq!(t.workers, 1);
        assert_eq!(t.per_worker_busy.len(), 1);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panic_propagates() {
        let items: Vec<u64> = (0..8).collect();
        let _ = map_or_reraise(
            &items,
            |&x| {
                if x == 5 {
                    panic!("deliberate");
                }
                x
            },
            Some(2),
        );
    }

    #[test]
    fn panic_propagates_only_after_all_jobs_ran() {
        // The result-loss regression: a panic at item 5 must not discard
        // the other workers' completed jobs — every item still runs.
        let ran = AtomicUsize::new(0);
        let items: Vec<u64> = (0..8).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            map_or_reraise(
                &items,
                |&x| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if x == 5 {
                        panic!("deliberate");
                    }
                    x
                },
                Some(2),
            )
        }));
        assert!(outcome.is_err(), "the panic still propagates");
        assert_eq!(ran.load(Ordering::SeqCst), 8, "no job was abandoned");
    }

    #[test]
    fn lowest_index_panic_wins() {
        // Sequential semantics: the panic a sequential run would hit
        // first is the one the caller sees, whatever thread interleaving.
        let items: Vec<u64> = (0..8).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            map_or_reraise(
                &items,
                |&x| {
                    if x >= 3 {
                        panic!("boom at {x}");
                    }
                    x
                },
                Some(4),
            )
        }));
        let payload = outcome.unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom at 3");
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn experiment_error_displays_context() {
        let e = ExperimentError {
            index: 3,
            message: "battery".into(),
        };
        assert_eq!(e.to_string(), "experiment 3 failed: battery");
    }
}
