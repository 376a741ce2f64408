//! Determinism sanitizer (`--features simsan`): the engine's checkpoint
//! hash stream — state digests at phase boundaries, sample instants, and
//! the pre-finalize instant — is pinned against
//! `tests/golden/simsan_streams.txt`. This is strictly stronger than
//! comparing final `RunResult`s: a refactor that perturbs an intermediate
//! state and later cancels out still trips the sanitizer at the first
//! checkpoint it touches, and the failure names that checkpoint.
//!
//! Regenerate with `BLESS=1 cargo test --features simsan --test simsan`
//! — only for a deliberate change to the simulated physics.

#![cfg(feature = "simsan")]

use cluster_sim::Cluster;
use dvfs::CapPolicy;
use mpi_sim::{Engine, EngineConfig, FaultSpec, RunResult};
use pwrperf::{DvsStrategy, Workload};
use sim_core::SimDuration;
use workloads::{CgClass, MgClass};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/simsan_streams.txt"
);

/// Fault spec of the faulted scenario: one straggler, flaky DVFS and a
/// weak link, all on ranks every workload of the trio has.
const FAULTS: &str = "seed:11,slow:1:1.4,dvfs-fail:2:0.3,weak-link:3:0.6";

/// The paper's benchmark trio at test scale.
fn workloads() -> Vec<Workload> {
    vec![
        Workload::ft_test(4),
        Workload::Cg {
            class: CgClass::Test,
            ranks: 4,
        },
        Workload::Mg {
            class: MgClass::Test,
            ranks: 4,
        },
    ]
}

/// The pinned scenarios: `(name, strategy, fault spec)`. The power-cap
/// controller folds its replanning state into every checkpoint via
/// `state_digest`, so its stream also pins controller state.
fn scenarios() -> Vec<(&'static str, DvsStrategy, &'static str)> {
    vec![
        ("clean", DvsStrategy::DynamicBaseMhz(1400), ""),
        ("faulted", DvsStrategy::DynamicBaseMhz(1400), FAULTS),
        (
            "power-cap",
            DvsStrategy::PowerCap {
                watts: 100,
                policy: CapPolicy::Redistribute,
            },
            "",
        ),
    ]
}

/// Build the engine exactly as `Experiment::run` does and run it under
/// the sanitizer.
fn sanitized(w: &Workload, strategy: DvsStrategy, faults: &str) -> (RunResult, Vec<u64>) {
    let cluster = Cluster::paper_testbed(w.ranks());
    let programs = w.programs(strategy.wants_instrumentation());
    let controller = strategy.controller(cluster.nodes());
    let config = EngineConfig {
        sample_interval: Some(SimDuration::from_millis(50)),
        faults: FaultSpec::parse(faults).expect("valid fault spec"),
        ..EngineConfig::default()
    };
    Engine::with_controller(cluster, programs, controller, config).run_sanitized()
}

/// Render streams as `[name] <count>` headers, one hex hash per line.
fn render(streams: &[(String, Vec<u64>)]) -> String {
    let mut out = String::new();
    for (name, hashes) in streams {
        out.push_str(&format!("[{name}] {}\n", hashes.len()));
        for h in hashes {
            out.push_str(&format!("{h:016x}\n"));
        }
    }
    out
}

fn parse(text: &str) -> Vec<(String, Vec<u64>)> {
    let mut streams: Vec<(String, Vec<u64>)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest.split(']').next().expect("section header");
            streams.push((name.to_string(), Vec::new()));
        } else {
            let h = u64::from_str_radix(line, 16).expect("hex checkpoint hash");
            streams.last_mut().expect("hash before header").1.push(h);
        }
    }
    streams
}

#[test]
fn hash_streams_match_golden() {
    let mut streams = Vec::new();
    for w in &workloads() {
        for (scenario, strategy, faults) in scenarios() {
            let (result, hashes) = sanitized(w, strategy, faults);
            let name = format!("{}/{scenario}", w.label());
            assert!(
                hashes.len() > 10,
                "{name}: expected a real checkpoint stream, got {}",
                hashes.len()
            );
            if !faults.is_empty() {
                assert!(result.faults.total() > 0, "{name}: the spec must fire");
            }
            streams.push((name, hashes));
        }
    }
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, render(&streams)).expect("write golden");
        return;
    }
    let golden =
        parse(&std::fs::read_to_string(GOLDEN).expect("golden file (BLESS=1 to regenerate)"));
    assert_eq!(
        golden.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        streams.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "golden stream set differs"
    );
    for ((name, got), (_, want)) in streams.iter().zip(&golden) {
        if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            panic!(
                "{name}: sanitizer stream diverged from tests/golden/simsan_streams.txt \
                 at checkpoint {i} of {} (golden has {}): got {:016x?}, want {:016x?}",
                got.len(),
                want.len(),
                got.get(i),
                want.get(i)
            );
        }
    }
}

#[test]
fn sanitized_runs_report_the_same_result_as_plain_runs() {
    // The sanitizer observes; it must not perturb. `run_sanitized` has
    // to hand back the byte-for-byte `RunResult` of `Engine::run`.
    let w = Workload::ft_test(4);
    let strategy = DvsStrategy::DynamicBaseMhz(1400);
    let make_engine = || {
        let cluster = Cluster::paper_testbed(w.ranks());
        let programs = w.programs(strategy.wants_instrumentation());
        let controller = strategy.controller(cluster.nodes());
        let config = EngineConfig {
            sample_interval: Some(SimDuration::from_millis(50)),
            ..EngineConfig::default()
        };
        Engine::with_controller(cluster, programs, controller, config)
    };
    let plain = make_engine().run();
    let (sanitized, hashes) = make_engine().run_sanitized();
    assert_eq!(plain, sanitized);
    assert_eq!(
        plain.total_energy_j().to_bits(),
        sanitized.total_energy_j().to_bits()
    );
    assert!(!hashes.is_empty());
}

#[test]
fn different_workloads_produce_different_streams() {
    // Guard against a degenerate hasher: distinct simulations must not
    // share a checkpoint stream.
    let (_, ft) = sanitized(&Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400), "");
    let cg = Workload::Cg {
        class: CgClass::Test,
        ranks: 4,
    };
    let (_, cg_stream) = sanitized(&cg, DvsStrategy::DynamicBaseMhz(1400), "");
    assert_ne!(ft, cg_stream);
}
