//! Causal tracing end-to-end guarantees: the critical path and the
//! per-rank time/energy attribution are exact (integer identities, not
//! approximations), bit-deterministic, and recording them
//! never perturbs a single simulated bit.

use pwrperf::{analyze_text, DvsStrategy, EngineConfig, Experiment, Workload};
use sim_core::SimDuration;

fn causal_run(workload: Workload, strategy: DvsStrategy) -> pwrperf::RunResult {
    Experiment::new(workload, strategy)
        .with_engine(EngineConfig {
            causal: true,
            ..EngineConfig::default()
        })
        .run()
}

/// The critical path can never be longer than the makespan, and because
/// the backward walk is contiguous in time it lands exactly on it.
#[test]
fn critical_path_never_exceeds_the_makespan() {
    let cases = [
        (Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400)),
        (Workload::ft_test(8), DvsStrategy::StaticMhz(800)),
        (Workload::cg_b8(), DvsStrategy::StaticMhz(1400)),
        (Workload::mg_b8(), DvsStrategy::DynamicBaseMhz(1200)),
        (Workload::transpose_paper(), DvsStrategy::StaticMhz(1000)),
    ];
    for (workload, strategy) in cases {
        let label = workload.label();
        let result = causal_run(workload, strategy);
        let a = result.attribution.as_ref().expect("causal run attributes");
        assert!(
            a.critical_path <= a.makespan,
            "{label}: critical path {:?} exceeds makespan {:?}",
            a.critical_path,
            a.makespan
        );
        assert_eq!(
            a.critical_path, a.makespan,
            "{label}: the contiguous backward walk must land on the makespan"
        );
        // The path's own split covers it exactly: residency + comm == length.
        let residency: SimDuration = a.ranks.iter().map(|r| r.cp_residency).sum();
        assert_eq!(residency + a.cp_comm, a.critical_path, "{label}");
        assert_eq!(a.makespan, result.duration, "{label}");
    }
}

/// A single-rank serial program has no communication to blame: the whole
/// critical path is that rank's own residency.
#[test]
fn single_rank_serial_critical_path_is_the_makespan() {
    for workload in [Workload::Swim, Workload::Mgrid] {
        let label = workload.label();
        let result = causal_run(workload, DvsStrategy::StaticMhz(1400));
        let a = result.attribution.as_ref().expect("causal run attributes");
        assert_eq!(a.critical_path, a.makespan, "{label}");
        assert_eq!(a.cp_comm, SimDuration::ZERO, "{label}: no network flight");
        assert_eq!(a.cp_hops, 0, "{label}: no message hops");
        assert_eq!(a.ranks.len(), 1, "{label}");
        assert_eq!(a.ranks[0].cp_residency, a.makespan, "{label}");
        assert_eq!(a.ranks[0].comm, SimDuration::ZERO, "{label}");
    }
}

/// The compute/comm/blocked split is an integer identity against the
/// engine's own per-rank breakdown — picosecond-exact, every rank.
#[test]
fn attribution_split_sums_to_the_engine_breakdown_exactly() {
    let cases = [
        (Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400)),
        (Workload::ft_test(8), DvsStrategy::StaticMhz(600)),
        (Workload::cg_b8(), DvsStrategy::DynamicBaseMhz(1000)),
    ];
    for (workload, strategy) in cases {
        let label = workload.label();
        let result = causal_run(workload, strategy);
        let a = result.attribution.as_ref().expect("causal run attributes");
        assert_eq!(a.ranks.len(), result.breakdown.len(), "{label}");
        for (rank, (row, breakdown)) in a.ranks.iter().zip(&result.breakdown).enumerate() {
            assert_eq!(
                row.wall(),
                breakdown.total(),
                "{label} rank {rank}: compute+comm+blocked must equal the \
                 engine breakdown total exactly"
            );
        }
        // Energy attribution covers the whole cluster: per-rank splits plus
        // idle tails re-sum to the run's total joules (float round-trip,
        // same summation order, so exact equality is too strict — bound it).
        let attributed: f64 = a
            .ranks
            .iter()
            .map(|r| r.compute_j + r.comm_j + r.blocked_j + r.idle_tail_j)
            .sum();
        let total = result.total_energy_j();
        assert!(
            (attributed - total).abs() <= total * 1e-9,
            "{label}: attributed {attributed} J vs total {total} J"
        );
    }
}

/// The causal log and the attribution built from it derive from simulated
/// state in `(time, seq)` dispatch order only, so they repeat bit for bit.
#[test]
fn attribution_is_bit_deterministic() {
    let run = || causal_run(Workload::ft_test(8), DvsStrategy::DynamicBaseMhz(1400));
    let (one, two) = (run(), run());
    assert!(one.causal.is_some(), "causal run must record a log");
    assert_eq!(one.causal, two.causal, "causal log drifted");
    assert_eq!(one.attribution, two.attribution, "attribution drifted");
    assert_eq!(one, two, "full result drifted");
}

/// Causal recording is observation only: every simulated quantity must be
/// bit-identical with the recorder on or off.
#[test]
fn causal_recording_never_changes_simulation_bits() {
    let base = Experiment::new(Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1200));
    let plain = base.clone().run();
    let observed = base
        .with_engine(EngineConfig {
            causal: true,
            ..EngineConfig::default()
        })
        .run();
    assert!(plain.causal.is_none() && plain.attribution.is_none());
    assert_eq!(plain.duration, observed.duration);
    assert_eq!(
        plain.total_energy_j().to_bits(),
        observed.total_energy_j().to_bits(),
        "energy must match at the bit level"
    );
    assert_eq!(plain.transitions, observed.transitions);
    assert_eq!(plain.breakdown, observed.breakdown);
    assert_eq!(plain.events, observed.events);
    assert_eq!(plain.freq_residency, observed.freq_residency);
}

/// The rendered analyze table for a fixed scenario is pinned byte-for-byte.
/// Regenerate with `BLESS=1 cargo test --test causal`.
#[test]
fn analyze_table_matches_golden_bytes() {
    let workload = Workload::ft_test(4);
    let strategy = DvsStrategy::StaticMhz(1400);
    let result = causal_run(workload.clone(), strategy);
    let a = result.attribution.as_ref().expect("causal run attributes");
    let table = analyze_text(&workload.label(), &strategy.label(), a);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/ft_test4_stat1400.analyze.txt"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, &table).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file (BLESS=1 to regenerate)");
    assert_eq!(
        table, golden,
        "analyze table drifted from tests/golden/ft_test4_stat1400.analyze.txt \
         (BLESS=1 cargo test --test causal to re-bless a deliberate change)"
    );
}

/// A record that never carried a causal log — a plain run, round-tripped
/// through the store codec the way `sweep --store` persists it — must
/// produce the typed "causal log absent" error from the analysis entry
/// point, never a panic.
#[test]
fn causal_free_record_yields_a_typed_absent_error() {
    use pwrperf::{decode_run_result, encode_run_result, try_analyze_text, AnalyzeError};
    let workload = Workload::ft_test(4);
    let strategy = DvsStrategy::StaticMhz(1400);
    let plain = Experiment::new(workload.clone(), strategy).run();
    let loaded = decode_run_result(&encode_run_result(&plain)).expect("codec round-trip");
    assert!(loaded.causal.is_none() && loaded.attribution.is_none());
    let err = try_analyze_text(&workload.label(), &strategy.label(), &loaded)
        .expect_err("causal-free record must not analyze");
    assert_eq!(err, AnalyzeError::CausalAbsent);
    assert!(
        err.to_string().contains("causal log absent"),
        "error must name the failure: {err}"
    );

    // And the causal run itself analyzes fine through the same path.
    let causal = causal_run(workload.clone(), strategy);
    assert!(try_analyze_text(&workload.label(), &strategy.label(), &causal).is_ok());
}
