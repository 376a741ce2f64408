//! Sweep service end-to-end: daemon over a real socket, wire-protocol
//! robustness (mirroring the store codec's truncation/corruption
//! proptests), in-flight miss dedupe across concurrent clients, and the
//! headline invariants — a warm store answers with **zero** engine
//! executions, and daemon results are bit-identical to a direct
//! [`Sweep::run`] of the same grid.

use std::path::PathBuf;

use proptest::prelude::*;
use pwrperf::service::wire::{read_request, write_request};
use pwrperf::{Client, ProtocolError, Request, Server, ServerConfig, SweepSpec, SweepStore};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwrperf-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid(strategies: &[&str]) -> SweepSpec {
    SweepSpec {
        workloads: vec!["ft-test4".to_string()],
        strategies: strategies.iter().map(|s| s.to_string()).collect(),
        deltas: vec![0.0, 0.2],
        ..SweepSpec::default()
    }
}

/// Bind a daemon on an ephemeral TCP port and serve it from a thread.
fn spawn_daemon(dir: &PathBuf, config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let store = SweepStore::open(dir).unwrap();
    let server = Server::bind_tcp(store, config, "127.0.0.1:0").unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    (addr, handle)
}

#[test]
fn daemon_sweep_is_bit_identical_and_warm_queries_execute_nothing() {
    let dir = tmp_dir("roundtrip");
    let (addr, daemon) = spawn_daemon(&dir, ServerConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let spec = grid(&["static-600", "static-800", "cpuspeed"]);

    // Cold: every cell executes, once.
    let cold = client.submit_sweep(&spec).unwrap();
    assert_eq!(cold.report.jobs, 3);
    assert_eq!(cold.report.engine_runs, 3);
    assert_eq!(cold.report.cache_hits, 0);
    assert_eq!(cold.results.len(), 3);

    // Bit-identity: the daemon's results are exactly what a local
    // uncached run of the same named grid produces.
    let direct = spec.resolve().unwrap().run_uncached(Some(2));
    assert_eq!(cold.results, direct.results);

    // Warm: zero executions, byte-identical results.
    let warm = client.submit_sweep(&spec).unwrap();
    assert_eq!(warm.report.engine_runs, 0, "warm store must not execute");
    assert_eq!(warm.report.cache_hits, 3);
    assert_eq!(warm.results, cold.results);

    // Query: the whole wED²P table from the store, nothing executed.
    let reply = client.query(&spec).unwrap();
    assert_eq!(reply.rows, 3);
    assert_eq!(reply.missing, 0);
    assert!(reply.table.contains("wed2p[0.2]"));
    let status = client.status().unwrap();
    assert_eq!(status.counter("service.engine_runs"), Some(3));
    assert_eq!(status.counter("service.queries"), Some(1));
    assert_eq!(status.counter("service.inflight"), Some(0));

    // A query over a grid the store has never seen counts missing cells
    // without running them.
    let unseen = grid(&["static-1000"]);
    let reply = client.query(&unseen).unwrap();
    assert_eq!((reply.rows, reply.missing), (0, 1));
    let status = client.status().unwrap();
    assert_eq!(
        status.counter("service.engine_runs"),
        Some(3),
        "queries never execute"
    );

    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_dedupe_inflight_misses() {
    let dir = tmp_dir("inflight");
    let (addr, daemon) = spawn_daemon(&dir, ServerConfig::default());
    let spec = grid(&["static-600", "static-800", "static-1000", "static-1200"]);

    // Several clients race the same cold grid; the executor's claim
    // protocol must hand every overlapping miss to exactly one engine
    // execution, whichever connection gets there first.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    Client::connect_tcp(&addr)
                        .unwrap()
                        .submit_sweep(&spec)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcome in &outcomes {
        assert_eq!(outcome.results, outcomes[0].results, "all clients agree");
        assert_eq!(
            outcome.report.cache_hits + outcome.report.engine_runs,
            outcome.report.jobs
        );
    }

    let mut client = Client::connect_tcp(&addr).unwrap();
    let status = client.status().unwrap();
    assert_eq!(
        status.counter("service.engine_runs"),
        Some(4),
        "4 unique cells, 16 requested: each executed exactly once"
    );
    assert_eq!(status.counter("service.inflight"), Some(0));
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_rejects_bad_specs_with_typed_remote_errors() {
    let dir = tmp_dir("badspec");
    let (addr, daemon) = spawn_daemon(&dir, ServerConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let bad = SweepSpec {
        workloads: vec!["warp-core".to_string()],
        strategies: vec!["static-800".to_string()],
        ..SweepSpec::default()
    };
    match client.submit_sweep(&bad) {
        Err(ProtocolError::Remote(msg)) => assert!(msg.contains("warp-core"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The connection stays usable after a rejected spec.
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire round-tripping is name-agnostic, so the pool mixes real grid
/// names with strings no parser accepts.
const NAMES: &[&str] = &[
    "ft-test4",
    "mem-micro",
    "static-600",
    "cap-80-redist",
    "seed:7,rate:0.25",
    "fat-tree:k=4",
    "not-a-real-name",
    "",
];

fn names(indices: Vec<usize>) -> Vec<String> {
    indices.into_iter().map(|i| NAMES[i].to_string()).collect()
}

fn arb_spec() -> impl Strategy<Value = SweepSpec> {
    (
        (
            proptest::collection::vec(0usize..NAMES.len(), 0..4),
            proptest::collection::vec(0usize..NAMES.len(), 0..4),
            proptest::collection::vec(-1.0f64..1.0, 0..3),
            proptest::collection::vec(0usize..NAMES.len(), 0..3),
        ),
        (0usize..NAMES.len(), any::<bool>()),
    )
        .prop_map(
            |((workloads, strategies, deltas, fault_specs), (topology, causal))| SweepSpec {
                workloads: names(workloads),
                strategies: names(strategies),
                deltas,
                fault_specs: names(fault_specs),
                topology: NAMES[topology].to_string(),
                causal,
            },
        )
}

proptest! {
    /// Mirrors the store codec's round-trip proptest: any spec survives
    /// the wire bit-for-bit.
    #[test]
    fn any_sweep_spec_round_trips_the_wire(spec in arb_spec()) {
        for request in [Request::SubmitSweep(spec.clone()), Request::Query(spec)] {
            let mut frame = Vec::new();
            write_request(&mut frame, &request).unwrap();
            let back = read_request(&mut &frame[..]).unwrap();
            prop_assert_eq!(back, request.clone());
        }
    }

    /// Mirrors `any_truncation_is_rejected`: a frame cut anywhere is a
    /// typed I/O error, never a hang or a partial decode.
    #[test]
    fn any_frame_truncation_is_typed(keep_frac in 0.0f64..1.0) {
        let request = Request::SubmitSweep(grid(&["static-800", "cpuspeed"]));
        let mut frame = Vec::new();
        write_request(&mut frame, &request).unwrap();
        let keep = ((frame.len() as f64) * keep_frac) as usize;
        prop_assume!(keep < frame.len());
        let err = read_request(&mut &frame[..keep]).unwrap_err();
        prop_assert!(matches!(err, ProtocolError::Io(_)), "cut at {} gave {:?}", keep, err);
    }

    /// Mirrors `any_corrupted_byte_is_rejected`: flip any byte of a
    /// frame and the reader reports a typed error — magic, version,
    /// kind, length, checksum, or payload decode, never silence.
    #[test]
    fn any_frame_corruption_is_typed(pos_frac in 0.0f64..1.0, flip in 1u8..255) {
        let request = Request::SubmitSweep(grid(&["static-800", "cpuspeed"]));
        let mut frame = Vec::new();
        write_request(&mut frame, &request).unwrap();
        let pos = (((frame.len() - 1) as f64) * pos_frac) as usize;
        frame[pos] ^= flip;
        let result = read_request(&mut &frame[..]);
        prop_assert!(result.is_err(), "flip {:#04x} at {} decoded fine", flip, pos);
    }
}
