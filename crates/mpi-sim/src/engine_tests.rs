//! Engine integration tests (public-API level), split from `engine.rs`
//! to keep the simulator source readable: blocking semantics, DVFS
//! behaviour, non-blocking operations, and edge cases.

#![cfg(test)]

use crate::config::{EngineConfig, WaitPolicy};
use crate::engine::Engine;
use crate::program::Program;
use crate::result::RunResult;
use cluster_sim::Cluster;
use dvfs::Governor;
use power_model::OpIndex;
use sim_core::SimDuration;

mod blocking_tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use dvfs::{AppDirectedGovernor, CpuspeedGovernor, StaticGovernor};
    use mem_model::WorkUnit;

    fn static_governors(n: usize, idx: OpIndex) -> Vec<Box<dyn Governor>> {
        (0..n)
            .map(|_| Box::new(StaticGovernor::pinned(idx)) as Box<dyn Governor>)
            .collect()
    }

    fn run_programs(n: usize, idx: OpIndex, build: impl Fn(&mut ProgramBuilder)) -> RunResult {
        let cluster = Cluster::paper_testbed(n);
        let programs: Vec<Program> = (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, n);
                build(&mut b);
                b.build()
            })
            .collect();
        Engine::new(
            cluster,
            programs,
            static_governors(n, idx),
            EngineConfig::default(),
        )
        .run()
    }

    #[test]
    fn pure_compute_duration_matches_model() {
        // 1.4e9 scaled cycles at 1.4 GHz -> exactly 1 s.
        let res = run_programs(1, 4, |b| {
            b.compute(WorkUnit::pure_cpu(1.4e9));
        });
        assert!(
            (res.duration_secs() - 1.0).abs() < 1e-6,
            "{}",
            res.duration_secs()
        );
        assert!((res.breakdown[0].compute.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn static_slow_point_stretches_compute() {
        let fast = run_programs(1, 4, |b| {
            b.compute(WorkUnit::pure_cpu(1.4e9));
        });
        let slow = run_programs(1, 0, |b| {
            b.compute(WorkUnit::pure_cpu(1.4e9));
        });
        let ratio = slow.duration_secs() / fast.duration_secs();
        assert!((ratio - 1.4 / 0.6).abs() < 1e-6, "{ratio}");
        // ...but CPU-bound slowdown costs energy overall at the bottom
        // point only if base power dominates; here just check energy is
        // in a sane band.
        assert!(slow.total_energy_j() > 0.0);
    }

    #[test]
    fn dram_stall_is_frequency_invariant() {
        let w = WorkUnit {
            cpu_cycles: 0.0,
            l2_accesses: 0.0,
            dram_accesses: 1e6,
        };
        let fast = run_programs(1, 4, move |b| {
            b.compute(w);
        });
        let slow = run_programs(1, 0, move |b| {
            b.compute(w);
        });
        assert!((fast.duration_secs() - slow.duration_secs()).abs() < 1e-9);
        assert!((fast.duration_secs() - 0.11).abs() < 1e-3);
    }

    #[test]
    fn ping_pong_completes_and_takes_wire_time() {
        let bytes = 256 * 1024u64;
        let res = run_programs(2, 4, move |b| {
            if b.rank() == 0 {
                b.send(1, bytes, 1);
                b.recv(1, bytes, 2);
            } else {
                b.recv(0, bytes, 1);
                b.send(0, bytes, 2);
            }
        });
        // Round trip of 256 KB at ~11.5 MB/s payload: ~45 ms + overheads.
        let d = res.duration_secs();
        assert!(d > 0.04 && d < 0.08, "round trip {d}");
        // Rank 0 spends most of its life waiting.
        assert!(res.breakdown[0].wait_busy.as_secs_f64() > 0.8 * d);
    }

    #[test]
    fn eager_send_completes_without_receiver() {
        // Rank 0 sends small eagerly then computes; rank 1 computes first,
        // receives later. No deadlock, and rank 0 finishes its send early.
        let res = run_programs(2, 4, |b| {
            if b.rank() == 0 {
                b.send(1, 1024, 9);
                b.compute(WorkUnit::pure_cpu(1.4e8));
            } else {
                b.compute(WorkUnit::pure_cpu(1.4e9));
                b.recv(0, 1024, 9);
            }
        });
        // Rank 1's compute (1 s) dominates; rank 0 must not wait for it.
        assert!(res.breakdown[0].wait_busy.as_secs_f64() < 0.1);
        assert!((res.duration_secs() - 1.0).abs() < 0.05);
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        // Large message: sender must rendezvous with the late receiver.
        let res = run_programs(2, 4, |b| {
            if b.rank() == 0 {
                b.send(1, 10 * 1024 * 1024, 9);
            } else {
                b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s late
                b.recv(0, 10 * 1024 * 1024, 9);
            }
        });
        // 10 MB at ~11.5 MB/s ~ 0.87 s, starting after 1 s.
        assert!(res.duration_secs() > 1.8, "{}", res.duration_secs());
        assert!(res.breakdown[0].wait_busy.as_secs_f64() > 1.0);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        // Rank 0 computes 1 s before the barrier; everyone leaves at ~1 s.
        let res = run_programs(4, 4, |b| {
            if b.rank() == 0 {
                b.compute(WorkUnit::pure_cpu(1.4e9));
            }
            b.barrier();
        });
        assert!(res.duration_secs() > 0.99);
        for r in 1..4 {
            let waited = res.breakdown[r].wait_busy.as_secs_f64();
            assert!(waited > 0.9, "rank {r} waited only {waited}");
        }
    }

    #[test]
    fn alltoall_pairwise_is_contention_free() {
        // 8 ranks, 1 MB per pair: 7 rounds of disjoint full-duplex pairs,
        // each round ~1 MB / 11.5 MB/s.
        let res = run_programs(8, 4, |b| {
            b.alltoall(1024 * 1024);
        });
        let per_round = 1024.0 * 1024.0 / (100e6 * 0.92 / 8.0);
        let d = res.duration_secs();
        assert!(
            d > 7.0 * per_round * 0.95 && d < 7.0 * per_round * 1.35,
            "alltoall {d}, expected ~{}",
            7.0 * per_round
        );
    }

    #[test]
    fn gather_root_downlink_serializes() {
        let n = 5;
        let bytes = 1024 * 1024u64;
        let res = run_programs(n, 4, move |b| {
            b.gather(0, bytes);
        });
        let solo = bytes as f64 / (100e6 * 0.92 / 8.0);
        let d = res.duration_secs();
        assert!(d > 4.0 * solo * 0.95, "gather too fast: {d}");
    }

    #[test]
    fn bcast_reaches_everyone_in_log_rounds() {
        let bytes = 512 * 1024u64;
        let res = run_programs(8, 4, move |b| {
            b.bcast(0, bytes);
        });
        let hop = bytes as f64 / (100e6 * 0.92 / 8.0);
        let d = res.duration_secs();
        // Binomial tree: 3 serial hops for 8 ranks (plus overheads), far
        // below the 7 hops of a linear broadcast.
        assert!(d > 2.9 * hop && d < 4.5 * hop, "bcast {d}, hop {hop}");
    }

    #[test]
    fn app_directed_dvfs_slows_marked_region_only() {
        let n = 1;
        let cluster = Cluster::paper_testbed(n);
        let mut b = ProgramBuilder::new(0, 1);
        b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s at 1.4 GHz
        b.set_speed(dvfs::AppSpeedRequest::Lowest);
        b.compute(WorkUnit::pure_cpu(1.4e9)); // 2.333 s at 600 MHz
        b.set_speed(dvfs::AppSpeedRequest::Restore);
        b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s again
        let governors: Vec<Box<dyn Governor>> = vec![Box::new(AppDirectedGovernor::with_base(4))];
        let res = Engine::new(cluster, vec![b.build()], governors, EngineConfig::default()).run();
        let expect = 1.0 + 1.4 / 0.6 + 1.0;
        assert!(
            (res.duration_secs() - expect).abs() < 1e-3,
            "{} vs {expect}",
            res.duration_secs()
        );
        assert_eq!(res.transitions[0], 2);
        assert!(res.breakdown[0].transition.as_secs_f64() > 0.0);
    }

    #[test]
    fn cpuspeed_steps_down_on_idle_wait() {
        // One rank waits (blocked) on a message that arrives after 5 s;
        // with PollThenBlock the wait is visible idle time, so cpuspeed
        // steps down. The sender computes at 1.4 GHz the whole time.
        let n = 2;
        let cluster = Cluster::paper_testbed(n);
        let mut b0 = ProgramBuilder::new(0, 2);
        b0.compute(WorkUnit::pure_cpu(7.0e9)); // 5 s
        b0.send(1, 1024, 1);
        let mut b1 = ProgramBuilder::new(1, 2);
        b1.recv(0, 1024, 1);
        let governors: Vec<Box<dyn Governor>> = vec![
            Box::new(CpuspeedGovernor::stock()),
            Box::new(CpuspeedGovernor::stock()),
        ];
        let config = EngineConfig {
            wait_policy: WaitPolicy::PollThenBlock(SimDuration::from_millis(100)),
            ..EngineConfig::default()
        };
        let res = Engine::new(cluster, vec![b0.build(), b1.build()], governors, config).run();
        assert!(
            res.transitions[1] >= 3,
            "receiver stepped down {} times",
            res.transitions[1]
        );
        assert_eq!(res.transitions[0], 0, "busy sender never scales");
        assert!(res.breakdown[1].wait_blocked.as_secs_f64() > 4.0);
    }

    #[test]
    fn cpuspeed_blind_to_busy_poll() {
        // Same workload under the default BusyPoll policy: no transitions.
        let n = 2;
        let cluster = Cluster::paper_testbed(n);
        let mut b0 = ProgramBuilder::new(0, 2);
        b0.compute(WorkUnit::pure_cpu(7.0e9));
        b0.send(1, 1024, 1);
        let mut b1 = ProgramBuilder::new(1, 2);
        b1.recv(0, 1024, 1);
        let governors: Vec<Box<dyn Governor>> = vec![
            Box::new(CpuspeedGovernor::stock()),
            Box::new(CpuspeedGovernor::stock()),
        ];
        let res = Engine::new(
            cluster,
            vec![b0.build(), b1.build()],
            governors,
            EngineConfig::default(),
        )
        .run();
        assert_eq!(res.transitions[0], 0);
        assert_eq!(res.transitions[1], 0);
        assert!(res.breakdown[1].wait_busy.as_secs_f64() > 4.0);
    }

    #[test]
    fn sampling_collects_rows() {
        let config = EngineConfig {
            sample_interval: Some(SimDuration::from_millis(100)),
            ..EngineConfig::default()
        };
        let cluster = Cluster::paper_testbed(1);
        let mut b = ProgramBuilder::new(0, 1);
        b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s
        let res = Engine::new(cluster, vec![b.build()], static_governors(1, 4), config).run();
        assert!(res.samples.len() >= 9, "{} samples", res.samples.len());
        let s = &res.samples[0];
        assert_eq!(s.node_power_w.len(), 1);
        assert!(
            s.node_power_w[0] > 20.0,
            "active node power {}",
            s.node_power_w[0]
        );
        assert_eq!(s.node_mhz[0], 1400);
    }

    #[test]
    fn determinism_identical_runs_identical_results() {
        let run = || {
            run_programs(4, 2, |b| {
                b.alltoall(128 * 1024);
                b.barrier();
                b.compute(WorkUnit::pure_cpu(5e8));
                b.allreduce(4096);
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.duration, b.duration);
        assert!((a.total_energy_j() - b.total_energy_j()).abs() < 1e-12);
        for (x, y) in a.breakdown.iter().zip(&b.breakdown) {
            assert_eq!(x.compute, y.compute);
            assert_eq!(x.wait_busy, y.wait_busy);
        }
    }

    #[test]
    fn energy_equals_power_integral_for_constant_run() {
        // A single halted... rather, a single fully-active compute run:
        // energy must equal active node power x duration.
        let res = run_programs(1, 4, |b| {
            b.compute(WorkUnit::pure_cpu(2.8e9)); // 2 s
        });
        let p_active = 8.0 + 21.0 + 1.484; // base + cpu dyn + static
        let expect = p_active * res.duration_secs();
        assert!(
            (res.total_energy_j() - expect).abs() < 0.5,
            "{} vs {expect}",
            res.total_energy_j()
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_recv_deadlocks_loudly() {
        let _ = run_programs(2, 4, |b| {
            if b.rank() == 0 {
                b.recv(1, 64, 99);
            }
        });
    }

    #[test]
    fn sendrecv_exchange_is_full_duplex() {
        let bytes = 2 * 1024 * 1024u64;
        let res = run_programs(2, 4, move |b| {
            let peer = 1 - b.rank();
            b.sendrecv(peer, bytes, 1, peer, bytes, 1);
        });
        let one_way = bytes as f64 / (100e6 * 0.92 / 8.0);
        let d = res.duration_secs();
        // Full duplex: both directions overlap, so ~1x one-way, not 2x.
        assert!(d < 1.4 * one_way, "exchange {d} vs one-way {one_way}");
        assert!(d > 0.95 * one_way);
    }
}

mod nonblocking_tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use dvfs::StaticGovernor;
    use mem_model::WorkUnit;

    fn run(n: usize, build: impl Fn(&mut ProgramBuilder)) -> RunResult {
        let cluster = Cluster::paper_testbed(n);
        let programs: Vec<Program> = (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, n);
                build(&mut b);
                b.build()
            })
            .collect();
        let governors: Vec<Box<dyn Governor>> = (0..n)
            .map(|_| Box::new(StaticGovernor::performance()) as Box<dyn Governor>)
            .collect();
        Engine::new(cluster, programs, governors, EngineConfig::default()).run()
    }

    #[test]
    fn isend_overlaps_with_compute() {
        // Rank 0 isends 2 MB then computes 1 s; the drain (~0.17 s)
        // overlaps the compute, so the total is ~1 s, not ~1.17 s.
        let bytes = 2 * 1024 * 1024u64;
        let res = run(2, move |b| {
            if b.rank() == 0 {
                b.isend(1, bytes, 1);
                b.compute(WorkUnit::pure_cpu(1.4e9));
                b.wait_all(0);
            } else {
                b.recv(0, bytes, 1);
            }
        });
        assert!(
            res.duration_secs() < 1.1,
            "overlap failed: {}",
            res.duration_secs()
        );
        assert!(res.breakdown[0].wait_busy.as_secs_f64() < 0.05);
    }

    #[test]
    fn waitall_blocks_until_drain() {
        // Without compute to hide it, waitall must absorb the drain time.
        let bytes = 2 * 1024 * 1024u64;
        let res = run(2, move |b| {
            if b.rank() == 0 {
                b.isend(1, bytes, 1);
                b.wait_all(0);
            } else {
                b.recv(0, bytes, 1);
            }
        });
        let wire = bytes as f64 / (100e6 * 0.92 / 8.0);
        assert!(res.breakdown[0].wait_busy.as_secs_f64() > 0.8 * wire);
    }

    #[test]
    fn irecv_waitall_delivers() {
        let res = run(2, |b| {
            if b.rank() == 0 {
                b.compute(WorkUnit::pure_cpu(1.4e8)); // receiver late poster
                b.irecv(1, 7);
                b.wait_all(1024);
            } else {
                b.send(0, 1024, 7);
            }
        });
        assert!(res.duration_secs() > 0.09);
        assert!(res.duration_secs() < 0.2);
    }

    #[test]
    fn empty_waitall_is_a_noop() {
        let res = run(1, |b| {
            b.wait_all(0);
            b.compute(WorkUnit::pure_cpu(1.4e8));
        });
        assert!((res.duration_secs() - 0.1).abs() < 1e-3);
    }

    #[test]
    fn nonblocking_alltoall_completes_like_pairwise() {
        let bytes = 256 * 1024u64;
        let flood = run(8, move |b| {
            b.alltoall_nonblocking(bytes);
        });
        let pairwise = run(8, move |b| {
            b.alltoall(bytes);
        });
        // Same volume, same fabric: total times are comparable; the flood
        // version must not deadlock and not be dramatically slower.
        let ratio = flood.duration_secs() / pairwise.duration_secs();
        assert!(ratio < 1.5 && ratio > 0.5, "flood/pairwise = {ratio}");
    }

    #[test]
    fn flood_alltoall_shares_links_fairly() {
        // In the flood schedule every rank's uplink carries 7 concurrent
        // flows; the fluid model must still deliver all bytes.
        let res = run(4, |b| {
            b.alltoall_nonblocking(1024 * 1024);
        });
        assert!(res.duration_secs() > 0.0);
        for b in &res.breakdown {
            assert!(b.total() <= res.duration + SimDuration::from_nanos(1));
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn waitall_on_unmatched_irecv_deadlocks_loudly() {
        let _ = run(2, |b| {
            if b.rank() == 0 {
                b.irecv(1, 99);
                b.wait_all(64);
            }
        });
    }

    #[test]
    fn match_tables_hold_only_in_flight_keys() {
        // Five all-to-alls use five tag ranges: 5 * n * (n - 1) distinct
        // keys. The tables must end empty, and both they and the message
        // arena must stay sized by what is in flight at once.
        let n = 64;
        let per_round = n * (n - 1);
        for flood in [false, true] {
            let programs: Vec<Program> = (0..n)
                .map(|r| {
                    let mut b = ProgramBuilder::new(r, n);
                    for _ in 0..5 {
                        if flood {
                            b.alltoall_nonblocking(4096);
                        } else {
                            b.alltoall(4096);
                        }
                    }
                    b.build()
                })
                .collect();
            let tables = Engine::new(
                Cluster::homogeneous(
                    n,
                    cluster_sim::NodeConfig::inspiron_8600(),
                    net_model::NetworkParams::catalyst_2950_100m(),
                ),
                programs,
                (0..n)
                    .map(|_| Box::new(StaticGovernor::performance()) as Box<dyn Governor>)
                    .collect(),
                // The tree model keeps a 4032-flow flood cheap to simulate.
                EngineConfig {
                    topology: net_model::Topology::FatTree {
                        radix: 8,
                        oversub: 1.0,
                    },
                    ..EngineConfig::default()
                },
            )
            .run_for_match_tables();
            assert_eq!(tables.live_keys, 0, "flood={flood}: {tables:?}");
            assert_eq!(tables.rank_outstanding, 0, "flood={flood}: {tables:?}");
            assert_eq!(tables.msgs_posted, 5 * per_round);
            assert_eq!(tables.msg_size, 48);
            // Pairwise exchange leaves about one unmatched key per rank; the
            // flood posts at most one round's keys at once. Either way the
            // bound is independent of the number of rounds, and so is the
            // number of message slots, which are recycled on delivery.
            let bound = if flood { 2 * per_round } else { 4 * n };
            assert!(
                tables.table_capacity <= bound,
                "flood={flood}: capacity {} > {bound}",
                tables.table_capacity
            );
            assert!(
                tables.msg_slots <= bound,
                "flood={flood}: {} message slots > {bound}",
                tables.msg_slots
            );
        }
    }

    #[test]
    fn mixed_blocking_and_nonblocking_ranks_interoperate() {
        let res = run(4, |b| {
            let n = b.size();
            let r = b.rank();
            // Ring: nonblocking sends, blocking receives.
            b.isend((r + 1) % n, 4096, 5);
            b.recv((r + n - 1) % n, 4096, 5);
            b.wait_all(0);
            b.barrier();
        });
        assert!(res.duration_secs() > 0.0);
    }
}

mod edge_case_tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use dvfs::StaticGovernor;
    use mem_model::WorkUnit;

    fn static_govs(n: usize) -> Vec<Box<dyn Governor>> {
        (0..n)
            .map(|_| Box::new(StaticGovernor::performance()) as Box<dyn Governor>)
            .collect()
    }

    fn run_with_config(
        n: usize,
        config: EngineConfig,
        build: impl Fn(&mut ProgramBuilder),
    ) -> RunResult {
        let cluster = Cluster::paper_testbed(n);
        let programs: Vec<Program> = (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, n);
                build(&mut b);
                b.build()
            })
            .collect();
        Engine::new(cluster, programs, static_govs(n), config).run()
    }

    #[test]
    fn same_key_messages_match_in_fifo_order() {
        // Two sends with the same (src, dst, tag) must deliver in order:
        // MPI's non-overtaking guarantee. If matching were LIFO, the
        // receiver's second (larger) recv would pair with the first
        // (small) send and timing would shift measurably.
        let small = 1_000u64;
        let large = 5_000_000u64; // rendezvous-sized
        let res = run_with_config(2, EngineConfig::default(), |b| {
            if b.rank() == 0 {
                b.send(1, small, 7);
                b.send(1, large, 7);
            } else {
                b.recv(0, small, 7);
                b.compute(WorkUnit::pure_cpu(1.4e8)); // 0.1 s gap
                b.recv(0, large, 7);
            }
        });
        // The large rendezvous send cannot start before the receiver's
        // second recv posts at ~0.1 s; total ≈ 0.1 + 0.43 s wire.
        let wire = large as f64 / (100e6 * 0.92 / 8.0);
        assert!(res.duration_secs() > 0.1 + 0.9 * wire);
    }

    #[test]
    fn eager_threshold_boundary_behaviour() {
        // Exactly at the threshold: still eager (sender needs no receiver).
        let threshold = EngineConfig::default().eager_threshold;
        let res = run_with_config(2, EngineConfig::default(), move |b| {
            if b.rank() == 0 {
                b.send(1, threshold, 1);
                b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s
            } else {
                b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s before posting
                b.recv(0, threshold, 1);
            }
        });
        // Sender never waits on the late receiver.
        assert!(res.breakdown[0].wait_busy.as_secs_f64() < 0.05);
        // One byte over: rendezvous, sender must wait ~1 s.
        let res = run_with_config(2, EngineConfig::default(), move |b| {
            if b.rank() == 0 {
                b.send(1, threshold + 1, 1);
            } else {
                b.compute(WorkUnit::pure_cpu(1.4e9));
                b.recv(0, threshold + 1, 1);
            }
        });
        assert!(res.breakdown[0].wait_busy.as_secs_f64() > 0.9);
    }

    #[test]
    fn trace_capacity_bounds_memory() {
        let config = EngineConfig {
            trace_capacity: 8,
            ..EngineConfig::default()
        };
        let res = run_with_config(1, config, |b| {
            for _ in 0..100 {
                b.phase_begin("p");
                b.compute(WorkUnit::pure_cpu(1000.0));
                b.phase_end("p");
            }
        });
        assert_eq!(res.trace.len(), 8, "ring buffer must cap retention");
    }

    #[test]
    fn governor_requests_during_transition_are_dropped() {
        // An AppDirected stack with a base point plus a cpuspeed-style
        // storm cannot double-transition: request_transition refuses while
        // one is in flight. Exercise via rapid SetSpeed pairs.
        let cluster = Cluster::paper_testbed(1);
        let mut b = ProgramBuilder::new(0, 1);
        for _ in 0..10 {
            b.set_speed(dvfs::AppSpeedRequest::Lowest);
            b.set_speed(dvfs::AppSpeedRequest::Restore);
        }
        b.compute(WorkUnit::pure_cpu(1.4e6));
        let governors: Vec<Box<dyn Governor>> =
            vec![Box::new(dvfs::AppDirectedGovernor::with_base(4))];
        let res = Engine::new(cluster, vec![b.build()], governors, EngineConfig::default()).run();
        assert_eq!(res.transitions[0], 20);
        // Each transition stalls 10 us; total stall is accounted.
        assert!((res.breakdown[0].transition.as_secs_f64() - 20.0 * 10e-6).abs() < 1e-9);
    }

    #[test]
    fn self_message_uses_loopback() {
        // A rank sending to itself must complete (loopback flow), quickly.
        let res = run_with_config(1, EngineConfig::default(), |b| {
            b.isend(0, 1024, 1);
            b.recv(0, 1024, 1);
            b.wait_all(0);
        });
        assert!(res.duration_secs() < 0.01, "{}", res.duration_secs());
    }

    #[test]
    fn zero_length_program_finishes_instantly() {
        let res = run_with_config(3, EngineConfig::default(), |_| {});
        assert_eq!(res.duration, SimDuration::ZERO);
        assert_eq!(res.total_energy_j(), 0.0);
    }

    #[test]
    fn blocked_waiter_resumes_through_halt() {
        // A rank that blocked (PollThenBlock) must wake when the message
        // lands, and the blocked time must be charged as wait_blocked.
        let config = EngineConfig {
            wait_policy: WaitPolicy::PollThenBlock(SimDuration::from_millis(1)),
            ..EngineConfig::default()
        };
        let res = run_with_config(2, config, |b| {
            if b.rank() == 0 {
                b.compute(WorkUnit::pure_cpu(1.4e9)); // 1 s
                b.send(1, 64, 1);
            } else {
                b.recv(0, 64, 1);
            }
        });
        assert!(res.breakdown[1].wait_blocked.as_secs_f64() > 0.99);
        assert!(res.breakdown[1].wait_busy.as_secs_f64() < 0.002);
        assert!((res.duration_secs() - 1.0).abs() < 0.01);
    }
}

mod topology_tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use dvfs::StaticGovernor;
    use mem_model::WorkUnit;
    use net_model::Topology;

    fn static_govs(n: usize) -> Vec<Box<dyn Governor>> {
        (0..n)
            .map(|_| Box::new(StaticGovernor::pinned(4)) as Box<dyn Governor>)
            .collect()
    }

    /// Compute epochs separated by exchanges: the boot epoch batches
    /// every rank's first compute at t=0, the stall-tailed identical
    /// computes line up same-time `PhaseDone` runs, and the ring
    /// exchanges interleave network events between epochs.
    fn epochal_programs(n: usize) -> Vec<Program> {
        (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, n);
                for iter in 0..3 {
                    // Identical across ranks: same-time phase boundaries.
                    b.compute(WorkUnit {
                        cpu_cycles: 2.0e8,
                        l2_accesses: 1.0e6,
                        dram_accesses: 5.0e5,
                    });
                    // Rank-skewed: staggers the following exchange.
                    b.compute(WorkUnit::pure_cpu(1.0e7 * (r + 1) as f64));
                    b.sendrecv(
                        (r + 1) % n,
                        1024,
                        10 + iter,
                        (r + n - 1) % n,
                        1024,
                        10 + iter,
                    );
                    b.allreduce(64);
                }
                b.build()
            })
            .collect()
    }

    fn run_epochal(n: usize, topology: Topology) -> RunResult {
        let config = EngineConfig {
            metrics: true,
            trace_capacity: 1 << 12,
            sample_interval: Some(SimDuration::from_millis(10)),
            topology,
            ..EngineConfig::default()
        };
        Engine::new(
            Cluster::paper_testbed(n),
            epochal_programs(n),
            static_govs(n),
            config,
        )
        .run()
    }

    #[test]
    fn fat_tree_runs_are_bit_deterministic() {
        let topo = Topology::parse("fat-tree:radix=4,oversub=2").unwrap();
        assert!(run_epochal(8, topo) == run_epochal(8, topo));
    }

    #[test]
    fn solver_domain_counters_are_always_published() {
        // A flat run does no domain work, but the counters still exist
        // (at zero) so output diffs never depend on solver activity.
        let flat = run_epochal(4, Topology::Flat);
        let flat_m = flat.metrics.as_ref().unwrap();
        assert_eq!(flat_m.counter("net.solver.domains_touched"), Some(0));
        assert_eq!(flat_m.counter("net.solver.domains_skipped"), Some(0));

        let topo = Topology::parse("fat-tree:radix=2").unwrap();
        let tree = run_epochal(4, topo);
        let tree_m = tree.metrics.as_ref().unwrap();
        // Tiny messages rarely overlap on a link, so most (sometimes
        // all) domain updates leave the quantized share untouched; the
        // counters must exist and show activity either way.
        let touched = tree_m.counter("net.solver.domains_touched").unwrap_or(0);
        let skipped = tree_m.counter("net.solver.domains_skipped").unwrap_or(0);
        assert!(touched + skipped > 0, "tree mode must track link domains");
    }

    #[test]
    fn fat_tree_oversubscription_slows_cross_leaf_traffic() {
        // All-to-all over an oversubscribed trunk must take longer than
        // on the flat single switch; the compute part is identical.
        let flat = run_epochal(8, Topology::Flat);
        let tree = run_epochal(8, Topology::parse("fat-tree:radix=2,oversub=4").unwrap());
        assert!(
            tree.duration > flat.duration,
            "oversub=4 tree {:?} should be slower than flat {:?}",
            tree.duration,
            flat.duration
        );
    }
}
