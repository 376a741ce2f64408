//! Determinism and degraded-mode behavior of the parallel batch runner:
//! fanning experiments over worker threads must return results
//! **bit-identical** to running them sequentially, in the same order —
//! with or without fault injection armed — and a poisoned experiment must
//! cost exactly its own slot, never the batch. Worker counts are pinned
//! with the explicit `BatchPolicy::workers` override rather than
//! `PWRPERF_THREADS` (mutating the shared process environment from one
//! test races every sibling test that reads it).

use mpi_sim::RunResult;
use pwrperf::{
    parallel_map, BatchPolicy, DvsStrategy, Experiment, ExperimentError, FaultSpec, Workload,
};

/// Run `experiments` on exactly `workers` threads, one slot per input.
fn run_checked(
    experiments: Vec<Experiment>,
    workers: usize,
    retries: u32,
) -> Vec<Result<RunResult, ExperimentError>> {
    let policy = BatchPolicy {
        workers: Some(workers),
        retries,
        ..BatchPolicy::default()
    };
    parallel_map(&experiments, Experiment::run, policy).0
}

/// [`run_checked`] for a batch that must not fail.
fn run_with(experiments: Vec<Experiment>, workers: usize) -> Vec<RunResult> {
    run_checked(experiments, workers, 0)
        .into_iter()
        .map(|slot| slot.expect("healthy experiment"))
        .collect()
}

fn batch_for(workload: &Workload) -> Vec<Experiment> {
    vec![
        Experiment::new(workload.clone(), DvsStrategy::StaticMhz(1400)),
        Experiment::new(workload.clone(), DvsStrategy::StaticMhz(600)),
        Experiment::new(workload.clone(), DvsStrategy::DynamicBaseMhz(1400)),
        Experiment::new(workload.clone(), DvsStrategy::Cpuspeed),
    ]
}

/// Every float in a RunResult, for exact bitwise comparison. `PartialEq`
/// on `RunResult` already compares all fields; this catches the subtler
/// failure of two floats comparing equal while differing in bits
/// (e.g. 0.0 vs -0.0 from a reordered accumulation).
fn energy_bits(results: &[RunResult]) -> Vec<u64> {
    results
        .iter()
        .flat_map(|r| {
            [r.total_energy_j().to_bits(), r.duration_secs().to_bits()]
                .into_iter()
                .chain(r.per_node.iter().map(|n| n.total_j().to_bits()))
        })
        .collect()
}

fn assert_parallel_matches_sequential(workload: &Workload) {
    let sequential = run_with(batch_for(workload), 1);
    let parallel = run_with(batch_for(workload), 4);
    assert_eq!(parallel.len(), sequential.len());
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(p, s, "experiment {i} diverged under parallel execution");
    }
    assert_eq!(energy_bits(&parallel), energy_bits(&sequential));
}

#[test]
fn ft_b_batch_is_bit_identical_across_thread_counts() {
    assert_parallel_matches_sequential(&Workload::ft_b8());
}

#[test]
fn transpose_batch_is_bit_identical_across_thread_counts() {
    assert_parallel_matches_sequential(&Workload::transpose_paper());
}

#[test]
fn faulted_batch_is_bit_identical_across_thread_counts() {
    // Fault injection draws from per-run seeded RNG, so worker count must
    // not leak into faulted results either.
    let spec =
        FaultSpec::parse("seed:42,slow:1:1.3,skip-sample:0.2,dvfs-fail:0:0.5").expect("valid spec");
    let make = |spec: &FaultSpec| -> Vec<Experiment> {
        batch_for(&Workload::ft_test(4))
            .into_iter()
            .map(|e| e.with_faults(spec.clone()))
            .collect()
    };
    let sequential = run_with(make(&spec), 1);
    let parallel = run_with(make(&spec), 4);
    assert_eq!(energy_bits(&parallel), energy_bits(&sequential));
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(p, s, "faulted experiment {i} diverged");
        assert_eq!(p.faults, s.faults, "fault counts diverged at slot {i}");
    }
    // The spec actually fired (otherwise this test proves nothing).
    assert!(sequential.iter().any(|r| r.faults.total() > 0));
}

/// An experiment whose construction panics (negative battery capacity
/// trips `SmartBattery::new`'s validity assert) — the checked runner must
/// contain the blast radius to its slot.
fn poisoned(workload: &Workload) -> Experiment {
    let node = cluster_sim::NodeConfig {
        battery_mwh: -1.0,
        ..cluster_sim::NodeConfig::inspiron_8600()
    };
    Experiment::new(workload.clone(), DvsStrategy::StaticMhz(800)).with_node_config(node)
}

#[test]
fn checked_batch_isolates_a_panicking_slot() {
    let w = Workload::ft_test(2);
    let mut experiments = batch_for(&w);
    experiments.insert(2, poisoned(&w));
    let outcomes = run_checked(experiments, 2, 1);
    assert_eq!(outcomes.len(), 5);
    // Exactly the poisoned slot fails; the error names it and its attempts.
    let err = outcomes[2].as_ref().expect_err("slot 2 was poisoned");
    assert_eq!(err.index, 2);
    assert_eq!(err.attempts, 2, "one initial run + one retry");
    assert!(
        err.message.contains("capacity_mwh"),
        "panic message surfaced: {}",
        err.message
    );
    // Every other slot succeeded, in input order, bit-identical to a
    // sequential run of the healthy batch.
    let healthy = run_with(batch_for(&w), 1);
    let ok: Vec<&RunResult> = outcomes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, r)| r.as_ref().expect("healthy slot"))
        .collect();
    for (h, o) in healthy.iter().zip(ok) {
        assert_eq!(h, o);
    }
}

#[test]
fn checked_batch_with_no_failures_matches_unchecked() {
    let w = Workload::ft_test(2);
    let checked = run_checked(batch_for(&w), 2, 0);
    let plain = pwrperf::run_batch(batch_for(&w));
    assert_eq!(checked.len(), plain.len());
    for (c, p) in checked.iter().zip(&plain) {
        assert_eq!(c.as_ref().expect("no failures"), p);
    }
}
