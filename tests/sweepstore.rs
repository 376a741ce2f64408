//! SweepStore invariants: fingerprint stability and injectivity over
//! single-field edits, bit-identical record round-trips, typed rejection
//! of corrupt records, and the warm-sweep zero-execution guarantee.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use cluster_sim::NodeConfig;
use mem_model::{MemHierarchy, WorkUnit};
use mpi_sim::{MsgCostModel, Program, ProgramBuilder};
use net_model::NetworkParams;
use proptest::prelude::*;
use pwrperf::store::{canonical_experiment_bytes, fingerprint_parts};
use pwrperf::{
    crescendo, decode_run_result, encode_run_result, fingerprint_experiment, ladder_mhz_desc,
    static_crescendo, CapPolicy, DvsStrategy, EngineConfig, Experiment, Fault, FaultSpec,
    MissExecutor, RunResult, ServiceMetrics, StoreError, Sweep, SweepStore, WaitPolicy, Workload,
};
use sim_core::SimDuration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwrperf-sweepstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_experiment() -> Experiment {
    let engine = EngineConfig {
        metrics: true,
        sample_interval: Some(SimDuration::from_millis(5)),
        trace_capacity: 1 << 10,
        faults: FaultSpec {
            seed: 7,
            faults: vec![Fault::ComputeSlowdown {
                node: 1,
                factor: 1.5,
            }],
        },
        ..EngineConfig::default()
    };
    Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(1400)).with_engine(engine)
}

/// Pinned in a *separate process*: this constant was produced by the CLI
/// (`pwrperf sweep --dry-run`), so agreement here proves the digest has
/// no per-process state (ASLR, hash seeding, iteration order).
#[test]
fn fingerprint_is_stable_across_processes() {
    let exp = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(1400));
    assert_eq!(
        fingerprint_experiment(&exp).to_hex(),
        "9060b427c316e0e45d9e6031da45fb7d"
    );
}

#[test]
fn canonical_bytes_are_deterministic() {
    let a = canonical_experiment_bytes(&base_experiment());
    let b = canonical_experiment_bytes(&base_experiment());
    assert_eq!(a, b);
    assert_eq!(
        fingerprint_experiment(&base_experiment()),
        fingerprint_experiment(&base_experiment())
    );
}

/// Every single-field edit — workload, strategy, each engine knob, one
/// fault entry, the fault seed, a cluster override — must move the key.
#[test]
fn any_single_field_edit_changes_the_key() {
    let mut variants: Vec<(&str, Experiment)> = vec![("base", base_experiment())];

    variants.push((
        "workload ranks",
        Experiment {
            workload: Workload::ft_test(4),
            ..base_experiment()
        },
    ));
    variants.push((
        "strategy kind",
        Experiment {
            strategy: DvsStrategy::StaticMhz(1400),
            ..base_experiment()
        },
    ));
    variants.push((
        "strategy frequency",
        Experiment {
            strategy: DvsStrategy::DynamicBaseMhz(1200),
            ..base_experiment()
        },
    ));

    let mut e = base_experiment();
    e.engine.eager_threshold += 1;
    variants.push(("eager threshold", e));

    let mut e = base_experiment();
    e.engine.wait_policy = WaitPolicy::PollThenBlock(SimDuration::from_millis(50));
    variants.push(("wait policy", e));

    let mut e = base_experiment();
    e.engine.sample_interval = Some(SimDuration::from_millis(10));
    variants.push(("sample interval value", e));

    let mut e = base_experiment();
    e.engine.sample_interval = None;
    variants.push(("sample interval presence", e));

    let mut e = base_experiment();
    e.engine.trace_capacity += 1;
    variants.push(("trace capacity", e));

    let mut e = base_experiment();
    e.engine.metrics = false;
    variants.push(("metrics flag", e));

    // Causal recording changes the stored payload, so it must key.
    let mut e = base_experiment();
    e.engine.causal = true;
    variants.push(("causal flag", e));

    let mut e = base_experiment();
    e.engine.faults.seed += 1;
    variants.push(("fault seed", e));

    // One float inside one fault entry.
    let mut e = base_experiment();
    e.engine.faults.faults = vec![Fault::ComputeSlowdown {
        node: 1,
        factor: 1.5 + 1e-9,
    }];
    variants.push(("fault entry float", e));

    let mut e = base_experiment();
    e.engine.faults.faults = vec![Fault::ComputeSlowdown {
        node: 0,
        factor: 1.5,
    }];
    variants.push(("fault entry node", e));

    let mut e = base_experiment();
    e.engine.faults.faults.clear();
    variants.push(("fault entry removed", e));

    // Cluster overrides: presence, and a single parameter within.
    variants.push((
        "node config present",
        base_experiment().with_node_config(NodeConfig::inspiron_8600()),
    ));
    let mut node = NodeConfig::inspiron_8600();
    node.power.base_w += 0.125;
    variants.push((
        "node config base power",
        base_experiment().with_node_config(node),
    ));
    variants.push((
        "network present",
        base_experiment().with_network(NetworkParams::catalyst_2950_100m()),
    ));
    let network = NetworkParams {
        link_bw_bps: 1e9,
        ..NetworkParams::catalyst_2950_100m()
    };
    variants.push(("network bandwidth", base_experiment().with_network(network)));

    // Interconnect shape, and one parameter within it.
    let mut e = base_experiment();
    e.engine.topology = pwrperf::Topology::FatTree {
        radix: 4,
        oversub: 2.0,
    };
    variants.push(("fat-tree topology", e));
    let mut e = base_experiment();
    e.engine.topology = pwrperf::Topology::FatTree {
        radix: 4,
        oversub: 4.0,
    };
    variants.push(("fat-tree oversub", e));

    // The power-cap controller: budget and division policy both key.
    variants.push((
        "power cap strategy",
        Experiment {
            strategy: DvsStrategy::PowerCap {
                watts: 120,
                policy: CapPolicy::Uniform,
            },
            ..base_experiment()
        },
    ));
    variants.push((
        "power cap watts",
        Experiment {
            strategy: DvsStrategy::PowerCap {
                watts: 110,
                policy: CapPolicy::Uniform,
            },
            ..base_experiment()
        },
    ));
    variants.push((
        "power cap policy",
        Experiment {
            strategy: DvsStrategy::PowerCap {
                watts: 120,
                policy: CapPolicy::Redistribute,
            },
            ..base_experiment()
        },
    ));

    let keys: Vec<(&str, String)> = variants
        .iter()
        .map(|(label, e)| (*label, fingerprint_experiment(e).to_hex()))
        .collect();
    let distinct: BTreeSet<&str> = keys.iter().map(|(_, k)| k.as_str()).collect();
    assert_eq!(
        distinct.len(),
        keys.len(),
        "fingerprint collision among single-field edits: {keys:#?}"
    );
}

/// Regression (the requested-vs-resolved frequency bug): `StaticMhz(5000)`
/// clamps to the 1400 MHz ladder top, so it must hit the cache entry a
/// `StaticMhz(1400)` sweep filled — one record, zero re-execution.
#[test]
fn requests_resolving_to_the_same_point_share_a_cache_entry() {
    let dir = tmp_dir("resolved-share");
    let mut store = SweepStore::open(&dir).unwrap();
    let workloads = vec![Workload::ft_test(2)];

    let canonical = Sweep::grid(
        workloads.clone(),
        vec![DvsStrategy::StaticMhz(1400)],
        Vec::new(),
    );
    let cold = canonical.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(cold.report.engine_runs, 1);

    let requested = Sweep::grid(workloads, vec![DvsStrategy::StaticMhz(5000)], Vec::new());
    let warm = requested.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(
        warm.report.engine_runs, 0,
        "an off-ladder request resolving to a cached point must not re-run"
    );
    assert_eq!(warm.report.cache_hits, 1);
    assert_eq!(warm.results, cold.results);
    let _ = std::fs::remove_dir_all(&dir);
}

fn ring_programs(cost: MsgCostModel) -> Vec<Program> {
    (0..2)
        .map(|rank| {
            let mut b =
                ProgramBuilder::with_cost(rank, 2, cost.clone(), MemHierarchy::pentium_m_1400());
            b.compute(WorkUnit::pure_cpu(1.0e7));
            let peer = 1 - rank;
            b.sendrecv(peer, 64 * 1024, 0, peer, 64 * 1024, 0);
            b.build()
        })
        .collect()
}

/// The message-cost model is baked into the lowered ops, so nudging one
/// of its floats must change the fingerprint of the built programs.
#[test]
fn msg_cost_model_float_changes_the_key() {
    let engine = EngineConfig::default();
    let strategy = DvsStrategy::StaticMhz(800);
    let base = fingerprint_parts(&ring_programs(MsgCostModel::default()), strategy, &engine);
    let nudged = MsgCostModel {
        cycles_per_byte: MsgCostModel::default().cycles_per_byte * (1.0 + 1e-12),
        ..MsgCostModel::default()
    };
    assert_ne!(
        base,
        fingerprint_parts(&ring_programs(nudged), strategy, &engine)
    );
    // Same model, same key.
    assert_eq!(
        base,
        fingerprint_parts(&ring_programs(MsgCostModel::default()), strategy, &engine)
    );
}

/// One stored record (built once; reused by the corruption proptests).
fn golden_record() -> &'static (pwrperf::Fingerprint, Vec<u8>) {
    static RECORD: OnceLock<(pwrperf::Fingerprint, Vec<u8>)> = OnceLock::new();
    RECORD.get_or_init(|| {
        let dir = tmp_dir("golden-record");
        let mut store = SweepStore::open(&dir).unwrap();
        let exp = base_experiment();
        let fp = fingerprint_experiment(&exp);
        store.store(fp, &exp.run()).unwrap();
        let bytes = std::fs::read(store.record_path(fp)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (fp, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Encode → decode → re-encode is the identity on both sides, for
    /// runs with every observability combination armed.
    #[test]
    fn run_result_round_trip_is_bit_identical(
        mhz_idx in 0usize..3,
        metrics in any::<bool>(),
        causal in any::<bool>(),
        sample_ms in prop_oneof![Just(None), Just(Some(2u64)), Just(Some(7u64))],
        trace_pow in prop_oneof![Just(0usize), Just(6), Just(16)],
        faulty in any::<bool>(),
    ) {
        let mhz = [600, 1000, 1400][mhz_idx];
        let faults = if faulty {
            FaultSpec {
                seed: 3,
                faults: vec![Fault::ComputeSlowdown { node: 0, factor: 1.3 }],
            }
        } else {
            FaultSpec::default()
        };
        let engine = EngineConfig {
            metrics,
            causal,
            sample_interval: sample_ms.map(SimDuration::from_millis),
            trace_capacity: if trace_pow == 0 { 0 } else { 1 << trace_pow },
            faults,
            ..EngineConfig::default()
        };
        let result = Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(mhz))
            .with_engine(engine)
            .run();
        let bytes = encode_run_result(&result);
        let decoded = decode_run_result(&bytes).expect("round trip decodes");
        prop_assert_eq!(&decoded, &result);
        prop_assert_eq!(encode_run_result(&decoded), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single byte of a record makes the load a typed error
    /// (never a panic, never silently wrong data).
    #[test]
    fn any_corrupted_byte_is_rejected(pos_frac in 0.0f64..1.0, flip in 1u8..255) {
        let (fp, bytes) = golden_record();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= flip;

        let dir = tmp_dir(&format!("corrupt-{pos}-{flip}"));
        let mut store = SweepStore::open(&dir).unwrap();
        let path = store.record_path(*fp);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, &corrupted).unwrap();
        let outcome = store.load(*fp);
        prop_assert!(
            matches!(
                outcome,
                Err(StoreError::Corrupt { .. })
                    | Err(StoreError::Version { .. })
                    | Err(StoreError::Decode { .. })
            ),
            "byte {pos} xor {flip:#x} must be rejected, got {outcome:?}"
        );
        prop_assert_eq!(store.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every strict prefix of a record is rejected as truncated.
    #[test]
    fn any_truncation_is_rejected(keep_frac in 0.0f64..1.0) {
        let (fp, bytes) = golden_record();
        let keep = ((bytes.len() as f64 * keep_frac) as usize).min(bytes.len() - 1);

        let dir = tmp_dir(&format!("trunc-{keep}"));
        let mut store = SweepStore::open(&dir).unwrap();
        let path = store.record_path(*fp);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, &bytes[..keep]).unwrap();
        prop_assert!(matches!(
            store.load(*fp),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The headline guarantee: a re-run sweep executes nothing and returns
/// bit-identical results; a partially cached sweep (a killed run) only
/// executes the gap.
#[test]
fn warm_sweep_executes_nothing_and_resumes_after_partial_cache() {
    let dir = tmp_dir("warm");
    let mut store = SweepStore::open(&dir).unwrap();
    let faults = FaultSpec {
        seed: 11,
        faults: vec![Fault::DvfsLatency {
            node: 0,
            factor: 2.0,
        }],
    };
    let full = Sweep::grid(
        vec![Workload::ft_test(2)],
        vec![
            DvsStrategy::StaticMhz(1400),
            DvsStrategy::StaticMhz(800),
            DvsStrategy::DynamicBaseMhz(1400),
        ],
        vec![FaultSpec::default(), faults.clone()],
    );

    // "Killed" first attempt: only the clean-fault half ran.
    let partial = Sweep::grid(
        vec![Workload::ft_test(2)],
        full.strategies.clone(),
        vec![FaultSpec::default()],
    );
    let first = partial.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(first.report.engine_runs, 3);

    // Resume: the full grid only executes the missing faulted half.
    let resumed = full.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(resumed.report.cache_hits, 3);
    assert_eq!(resumed.report.engine_runs, 3);
    assert_eq!(resumed.results.len(), 6);

    // Warm: zero executions, bit-identical to the resumed pass.
    let warm = full.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(warm.report.engine_runs, 0, "warm sweep must not execute");
    assert_eq!(warm.report.cache_hits, 6);
    assert_eq!(warm.report.corrupt_records, 0);
    assert_eq!(warm.results, resumed.results);
    assert_eq!(warm.report.metrics().counter("sweep.engine_runs"), Some(0));

    // And the direct engine agrees with what the cache replays.
    let direct: Vec<_> = full.cells().iter().map(|c| c.experiment.run()).collect();
    assert_eq!(warm.results, direct);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One pipeline: every entry point that runs a grid or a ladder returns
/// the same bits, with or without a store, cold or warm, locally or
/// through the daemon's executor. The grid has a duplicated cell
/// (5000 MHz clamps to 1400) and two fault specs.
#[test]
fn every_entry_point_returns_identical_bytes() {
    let workload = Workload::ft_test(4);
    let faulted = FaultSpec::parse("seed:5,slow:1:1.3,dvfs-fail:2:0.5").unwrap();
    let mut strategies: Vec<DvsStrategy> = ladder_mhz_desc()
        .into_iter()
        .map(DvsStrategy::StaticMhz)
        .collect();
    strategies.push(DvsStrategy::StaticMhz(5000));
    let row_len = strategies.len();
    let sweep = Sweep::grid(
        vec![workload.clone()],
        strategies,
        vec![FaultSpec::default(), faulted],
    );
    let dir = tmp_dir("equivalence");
    let mut store = SweepStore::open(dir.join("local")).unwrap();
    let shared = Mutex::new(SweepStore::open(dir.join("daemon")).unwrap());
    let executor = MissExecutor::new(Arc::new(ServiceMetrics::new()), Some(2));

    let reference = sweep.run(None, Some(2)).unwrap();
    let bytes = |results: &[RunResult]| results.iter().map(encode_run_result).collect::<Vec<_>>();
    let grid_entries = [
        ("Sweep::run(None)", sweep.run(None, Some(1)).unwrap()),
        (
            "cold Sweep::run(store)",
            sweep.run(Some(&mut store), Some(2)).unwrap(),
        ),
        (
            "warm Sweep::run(store)",
            sweep.run(Some(&mut store), Some(1)).unwrap(),
        ),
        (
            "MissExecutor::run_sweep",
            executor.run_sweep(&shared, &sweep).unwrap(),
        ),
    ];
    // 12 cells, 10 unique: every entry point runs (or, warm, loads) each
    // unique cell exactly once.
    let accounting = [(10, 0), (10, 0), (0, 10), (10, 0)];
    for ((name, outcome), (runs, hits)) in grid_entries.iter().zip(accounting) {
        assert_eq!(outcome.results.len(), 12, "{name}");
        assert_eq!(bytes(&outcome.results), bytes(&reference.results), "{name}");
        assert_eq!(outcome.report.duplicate_jobs, 2, "{name}");
        assert_eq!(outcome.report.engine_runs, runs, "{name}");
        assert_eq!(outcome.report.cache_hits, hits, "{name}");
    }
    let direct: Vec<RunResult> = sweep.cells().iter().map(|c| c.experiment.run()).collect();
    assert_eq!(bytes(&direct), bytes(&reference.results), "Experiment::run");

    // A crescendo keeps each point's energy and delay, which must be the
    // bits of the grid's static ladder in the same fault row. Against the
    // warm store every point is a hit: crescendos and grids share keys.
    let misses = store.stats().misses;
    let ladder = |spec: &FaultSpec| {
        let spec = spec.clone();
        let workload = workload.clone();
        move |mhz| {
            Experiment::new(workload.clone(), DvsStrategy::StaticMhz(mhz)).with_faults(spec.clone())
        }
    };
    let [clean, faulted] = [0, 1].map(|row| &sweep.fault_specs[row]);
    let ladder_entries = [
        (
            "crescendo(None), clean",
            0,
            crescendo(ladder(clean), None).unwrap(),
        ),
        (
            "crescendo(None), faulted",
            1,
            crescendo(ladder(faulted), None).unwrap(),
        ),
        (
            "crescendo(store), clean",
            0,
            crescendo(ladder(clean), Some(&mut store)).unwrap(),
        ),
        (
            "crescendo(store), faulted",
            1,
            crescendo(ladder(faulted), Some(&mut store)).unwrap(),
        ),
        ("static_crescendo", 0, static_crescendo(&workload)),
    ];
    for (name, row, crescendo) in &ladder_entries {
        let got: Vec<(u32, u64, u64)> = crescendo
            .points()
            .iter()
            .map(|p| (p.mhz, p.energy_j.to_bits(), p.delay_s.to_bits()))
            .collect();
        let want: Vec<(u32, u64, u64)> = ladder_mhz_desc()
            .into_iter()
            .zip(&reference.results[row * row_len..])
            .map(|(mhz, r)| {
                (
                    mhz,
                    r.total_energy_j().to_bits(),
                    r.duration_secs().to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "{name}");
    }
    assert_eq!(
        store.stats().misses,
        misses,
        "crescendos hit the grid's records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep that trips over a corrupt record heals it: the record is
/// re-run, overwritten, and the next pass is clean.
#[test]
fn sweep_heals_corrupt_records() {
    let dir = tmp_dir("heal");
    let mut store = SweepStore::open(&dir).unwrap();
    let sweep = Sweep::grid(
        vec![Workload::ft_test(2)],
        vec![DvsStrategy::StaticMhz(1400), DvsStrategy::StaticMhz(600)],
        Vec::new(),
    );
    let cold = sweep.run(Some(&mut store), Some(1)).unwrap();

    // Smash one record's payload.
    let cell = &sweep.cells()[0];
    let path = store.record_path(cell.fingerprint);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xA5;
    std::fs::write(&path, &bytes).unwrap();

    let healed = sweep.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(healed.report.corrupt_records, 1);
    assert_eq!(
        healed.report.engine_runs, 1,
        "only the smashed record re-runs"
    );
    assert_eq!(healed.results, cold.results);

    let warm = sweep.run(Some(&mut store), Some(1)).unwrap();
    assert_eq!(warm.report.engine_runs, 0);
    assert_eq!(warm.report.corrupt_records, 0);
    assert_eq!(warm.results, cold.results);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the tmp-file write race: all writers used the same
/// `<hex>.tmp` sibling, so two concurrent `store()` calls for one
/// fingerprint could interleave create/write/rename and a concurrent
/// reader could observe a torn record. With unique tmp names
/// (pid + per-process counter) and `sync_all` before the atomic rename,
/// N threads hammering put/get on one fingerprint must never observe a
/// corrupt record.
#[test]
fn concurrent_put_get_on_one_fingerprint_never_tears() {
    let dir = tmp_dir("hammer");
    let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800));
    let fp = fingerprint_experiment(&exp);
    let result = exp.run();
    // Seed once so readers always have something to find.
    SweepStore::open(&dir).unwrap().store(fp, &result).unwrap();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for writer in 0..4 {
            let dir = &dir;
            let result = &result;
            handles.push(scope.spawn(move || {
                let mut store = SweepStore::open(dir).unwrap();
                for _ in 0..25 {
                    store.store(fp, result).unwrap();
                    let _ = writer;
                }
            }));
        }
        for _ in 0..4 {
            let dir = &dir;
            let result = &result;
            handles.push(scope.spawn(move || {
                let mut store = SweepStore::open(dir).unwrap();
                for _ in 0..50 {
                    match store.load(fp) {
                        Ok(Some(seen)) => assert_eq!(&seen, result, "torn record observed"),
                        Ok(None) => panic!("record vanished mid-rename"),
                        Err(e) => panic!("reader saw a corrupt record: {e}"),
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
    });

    // No tmp droppings left behind, and the record still loads clean.
    let strays: Vec<_> = std::fs::read_dir(dir.join(&fp.to_hex()[..2]))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect();
    assert!(strays.is_empty(), "stale tmp files: {strays:?}");
    assert_eq!(
        SweepStore::open(&dir).unwrap().load(fp).unwrap(),
        Some(result)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
