//! PowerScope end-to-end guarantees: deterministic exports, zero behaviour
//! change under instrumentation, and honest trace/metric accounting.

use pwrperf::{
    attribution_ndjson, metrics_ndjson, perfetto_json, DvsStrategy, EngineConfig, Experiment,
    RunMeta, Topology, Workload,
};
use sim_core::SimDuration;

/// The golden scenario: small enough to keep the reference file readable,
/// rich enough to exercise every record type (phase slices, messages,
/// frequency changes, power counters).
fn scenario() -> Experiment {
    Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(1400)).with_engine(
        EngineConfig {
            trace_capacity: 4096,
            sample_interval: Some(SimDuration::from_millis(25)),
            metrics: true,
            ..EngineConfig::default()
        },
    )
}

/// The causal golden scenario: the blame-analysis run (`ft-test4`, static
/// 1400 MHz, causal log on), whose export is mostly flow arrows
/// (`ph: "s"`/`"f"`), one pair per message.
fn causal_scenario() -> Experiment {
    Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(1400)).with_engine(EngineConfig {
        trace_capacity: 4096,
        sample_interval: Some(SimDuration::from_millis(50)),
        causal: true,
        ..EngineConfig::default()
    })
}

/// Compare `json` with `tests/golden/<name>`, or rewrite the file when
/// `BLESS` is set.
fn assert_golden(name: &str, json: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    #[expect(
        clippy::disallowed_methods,
        reason = "BLESS=1 re-blesses the golden; the comparison never reads the environment"
    )]
    let bless = std::env::var("BLESS").is_ok();
    if bless {
        std::fs::write(&path, json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file (BLESS=1 to regenerate)");
    assert_eq!(
        json, golden,
        "export drifted from tests/golden/{name} \
         (BLESS=1 cargo test --test observability to re-bless a deliberate change)"
    );
}

/// The Perfetto export must be byte-for-byte reproducible across runs and
/// across hosts (simulated timestamps only, integer formatting). The
/// reference bytes live in `tests/golden/`; regenerate with
/// `BLESS=1 cargo test --test observability`.
#[test]
fn perfetto_export_matches_golden_bytes() {
    assert_golden(
        "ft_test2_dyn1400.perfetto.json",
        &perfetto_json(&scenario().run()),
    );
}

/// The same for a causal run: pins the flow-arrow records, which are
/// almost all of a causal export's bytes. Each message is exported once,
/// as one flow pair, and never also as `send`/`recv` instants.
#[test]
fn causal_perfetto_export_matches_golden_bytes() {
    let result = causal_scenario().run();
    let json = perfetto_json(&result);
    let msg_instant = |l: &&str| {
        l.contains(r#""ph":"i""#)
            && (l.contains(r#""name":"send "#) || l.contains(r#""name":"recv "#))
    };
    assert_eq!(json.lines().filter(msg_instant).count(), 0);
    let log = result.causal.as_ref().expect("causal run logs");
    let delivered = log.msgs.iter().filter(|m| m.delivered_at.is_some()).count();
    assert!(delivered > 0);
    assert_eq!(json.matches(r#""ph":"s""#).count(), delivered);
    assert_eq!(json.matches(r#""ph":"f""#).count(), delivered);
    assert_golden("ft_test4_stat1400_causal.perfetto.json", &json);
}

/// The golden scenario's metrics NDJSON (every engine counter, gauge
/// and histogram, in name order) and its trace as the PowerPack CSV.
#[test]
fn metrics_and_trace_exports_match_golden_bytes() {
    let result = scenario().run();
    assert_golden("ft_test2_dyn1400.metrics.ndjson", &metrics_ndjson(&result));
    let csv = powerpack::trace_to_csv(&result.trace);
    assert_golden("ft_test2_dyn1400.trace.csv", &csv);
}

/// The attribution NDJSON of the causal scenario: per-rank split and
/// energy, and the critical-path summary.
#[test]
fn attribution_export_matches_golden_bytes() {
    let workload = Workload::ft_test(4);
    let strategy = DvsStrategy::StaticMhz(1400);
    let meta = RunMeta {
        workload: workload.label(),
        strategy: strategy.label(),
        topology: Topology::Flat,
        seed: EngineConfig::default().faults.seed,
    };
    let result = causal_scenario().run();
    let attribution = result.attribution.as_ref().expect("causal run attributes");
    assert_golden(
        "ft_test4_stat1400_causal.attribution.ndjson",
        &attribution_ndjson(attribution, &meta),
    );
}

#[test]
fn exports_are_deterministic_across_runs() {
    let a = scenario().run();
    let b = scenario().run();
    assert_eq!(perfetto_json(&a), perfetto_json(&b));
    assert_eq!(metrics_ndjson(&a), metrics_ndjson(&b));
    // And re-exporting the same result is a pure function.
    assert_eq!(perfetto_json(&a), perfetto_json(&a));
}

/// Instrumentation is observation only: every simulated quantity must be
/// bit-identical with recording on or off — metrics and tracing, and
/// every channel at once (trace, metrics, causal log and samples all
/// sharing the recorder).
#[test]
fn instrumentation_never_changes_simulation_bits() {
    let base = Experiment::new(Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1200));
    let plain = base.clone().run();
    let traced = EngineConfig {
        trace_capacity: 1 << 16,
        metrics: true,
        ..EngineConfig::default()
    };
    let everything = EngineConfig {
        causal: true,
        sample_interval: Some(SimDuration::from_millis(10)),
        ..traced.clone()
    };
    for config in [traced, everything] {
        let observed = base.clone().with_engine(config).run();
        assert_eq!(plain.duration, observed.duration);
        assert_eq!(
            plain.total_energy_j().to_bits(),
            observed.total_energy_j().to_bits(),
            "energy must match at the bit level"
        );
        assert_eq!(plain.transitions, observed.transitions);
        assert_eq!(plain.breakdown, observed.breakdown);
        assert_eq!(plain.freq_residency, observed.freq_residency);
        // Sampling adds its own events, so the count compares only
        // without it.
        if observed.samples.is_empty() {
            assert_eq!(plain.events, observed.events);
        }
    }
}

/// `RunResult::events` (the throughput figure) and the metrics registry
/// count the same thing through independent code paths.
#[test]
fn dispatched_counter_matches_events_figure() {
    let result = scenario().run();
    let metrics = result.metrics.as_ref().expect("metrics enabled");
    assert_eq!(
        metrics.counter("engine.events.dispatched"),
        Some(result.events)
    );
    assert_eq!(
        metrics.counter("engine.trace.recorded"),
        Some(result.trace.len() as u64)
    );
    assert_eq!(
        metrics.counter("engine.trace.dropped"),
        Some(result.trace_dropped)
    );
}

/// Under capacity pressure the trace keeps the most recent `capacity`
/// events and counts every discard: retained + dropped covers exactly the
/// record attempts an unbounded run observes.
#[test]
fn bounded_trace_accounts_for_every_event() {
    let run_with_capacity = |cap: usize| {
        Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(1400))
            .with_engine(EngineConfig {
                trace_capacity: cap,
                ..EngineConfig::default()
            })
            .run()
    };
    let full = run_with_capacity(1 << 20);
    assert_eq!(full.trace_dropped, 0, "huge capacity must not drop");
    let total = full.trace.len() as u64;
    assert!(total > 16, "scenario too small to pressure the trace");

    let cap = 16;
    let squeezed = run_with_capacity(cap);
    assert_eq!(squeezed.trace.len(), cap, "ring keeps exactly `capacity`");
    assert_eq!(
        squeezed.trace.len() as u64 + squeezed.trace_dropped,
        total,
        "retained + dropped must cover every record attempt"
    );
    // The ring keeps the *most recent* events: its contents are the tail
    // of the unbounded trace.
    assert_eq!(
        squeezed.trace.as_slice(),
        &full.trace[full.trace.len() - cap..]
    );
}
