//! The PowerPack microbenchmarks (paper Figures 6–8).
//!
//! Four probes, each isolating one system component's response to DVS:
//!
//! * **memory-bound** — read/write a 32 MB buffer with a 128 B stride:
//!   every reference misses to DRAM (Figure 6);
//! * **CPU-bound** — the same walk over a 256 KB buffer: every reference
//!   hits the on-die L2, so all time scales with frequency (Figure 7);
//! * **register-only** — arithmetic with no memory traffic at all (the
//!   "even more striking" variant in the Figure 7 discussion);
//! * **communication** — two ranks ping-ponging (a) a 256 KB message and
//!   (b) a 4 KB message assembled with a 64 B stride (Figure 8).

use mem_model::{AccessPattern, MemHierarchy, WorkUnit};
use mpi_sim::{Program, ProgramBuilder};

/// Configuration for the single-node microbenchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroConfig {
    /// Number of passes over the buffer (scales runtime).
    pub passes: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig { passes: 400 }
    }
}

/// Configuration for the two-rank communication microbenchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct CommMicroConfig {
    /// Message payload, bytes.
    pub message_bytes: u64,
    /// Stride used to assemble the message from memory (the paper's 64 B
    /// stride variant); `None` for contiguous payloads.
    pub assemble_stride: Option<u64>,
    /// Number of round trips.
    pub round_trips: u64,
}

impl CommMicroConfig {
    /// Paper Figure 8(a): 256 KB round trips.
    pub fn paper_256k() -> Self {
        CommMicroConfig {
            message_bytes: 256 * 1024,
            assemble_stride: None,
            round_trips: 200,
        }
    }

    /// Paper Figure 8(b): 4 KB messages with a 64 B stride.
    pub fn paper_4k_strided() -> Self {
        CommMicroConfig {
            message_bytes: 4 * 1024,
            assemble_stride: Some(64),
            round_trips: 2000,
        }
    }
}

/// The paper's memory benchmark: 32 MB buffer, 128 B stride — every
/// reference fetched from main memory.
pub fn memory_bound_program(config: &MicroConfig) -> Program {
    strided_walk_program(32 * 1024 * 1024, 128, config.passes)
}

/// The paper's CPU benchmark: 256 KB buffer, 128 B stride — every
/// reference an on-die L2 hit.
pub fn cpu_bound_program(config: &MicroConfig) -> Program {
    strided_walk_program(256 * 1024, 128, config.passes)
}

/// Register-only arithmetic: the work a memory pass would do, minus all
/// memory traffic (so durations are comparable across the three probes).
pub fn register_program(config: &MicroConfig) -> Program {
    let accesses_per_pass = 32 * 1024 * 1024 / 128;
    let cycles =
        config.passes as f64 * accesses_per_pass as f64 * mem_model::pattern::CYCLES_PER_ACCESS;
    let mut b = ProgramBuilder::new(0, 1);
    b.phase_begin("register");
    b.compute(WorkUnit::pure_cpu(cycles));
    b.phase_end("register");
    b.build()
}

fn strided_walk_program(buffer: u64, stride: u64, passes: u64) -> Program {
    let hier = MemHierarchy::pentium_m_1400();
    let work = AccessPattern::passes(buffer, stride, passes).classify(&hier);
    let mut b = ProgramBuilder::new(0, 1);
    b.phase_begin("walk");
    b.compute(work);
    b.phase_end("walk");
    b.build()
}

/// Two-rank ping-pong programs `(rank0, rank1)`.
pub fn comm_roundtrip_programs(config: &CommMicroConfig) -> Vec<Program> {
    assert!(config.round_trips > 0, "need at least one round trip");
    let hier = MemHierarchy::pentium_m_1400();
    // Message assembly cost from strided memory (Figure 8b's stride).
    let assemble = config.assemble_stride.map(|stride| {
        AccessPattern {
            buffer_bytes: 32 * 1024 * 1024, // strided gathers from a large source
            stride_bytes: stride,
            accesses: config.message_bytes / stride.min(config.message_bytes),
        }
        .classify(&hier)
    });

    (0..2usize)
        .map(|rank| {
            let mut b = ProgramBuilder::new(rank, 2);
            b.phase_begin("pingpong");
            for _ in 0..config.round_trips {
                if let Some(w) = assemble {
                    b.compute(w);
                }
                if rank == 0 {
                    b.send(1, config.message_bytes, 1);
                    b.recv(1, config.message_bytes, 2);
                } else {
                    b.recv(0, config.message_bytes, 1);
                    b.send(0, config.message_bytes, 2);
                }
            }
            b.phase_end("pingpong");
            b.build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::Op;

    fn total_work(p: &Program) -> WorkUnit {
        p.ops()
            .filter_map(|op| match op {
                Op::Compute(w) => Some(w),
                _ => None,
            })
            .fold(WorkUnit::ZERO, |acc, w| acc.add(&w))
    }

    #[test]
    fn memory_probe_is_dram_dominated() {
        let hier = MemHierarchy::pentium_m_1400();
        let w = total_work(&memory_bound_program(&MicroConfig { passes: 1 }));
        assert!(w.dram_accesses > 0.0);
        assert!(w.scaled_fraction(&hier, 1.4e9) < 0.35);
    }

    #[test]
    fn cpu_probe_is_fully_scaled() {
        let hier = MemHierarchy::pentium_m_1400();
        let w = total_work(&cpu_bound_program(&MicroConfig { passes: 1 }));
        assert_eq!(w.dram_accesses, 0.0);
        assert_eq!(w.scaled_fraction(&hier, 1.4e9), 1.0);
        assert!(w.l2_accesses > 0.0);
    }

    #[test]
    fn register_probe_touches_no_memory() {
        let w = total_work(&register_program(&MicroConfig { passes: 1 }));
        assert_eq!(w.dram_accesses, 0.0);
        assert_eq!(w.l2_accesses, 0.0);
        assert!(w.cpu_cycles > 0.0);
    }

    #[test]
    fn comm_programs_pair_up() {
        let p = comm_roundtrip_programs(&CommMicroConfig {
            message_bytes: 1024,
            assemble_stride: None,
            round_trips: 3,
        });
        assert_eq!(p.len(), 2);
        let sends = |prog: &Program| {
            prog.ops()
                .filter(|op| matches!(op, Op::Send { .. }))
                .count()
        };
        assert_eq!(sends(&p[0]), 3);
        assert_eq!(sends(&p[1]), 3);
    }

    #[test]
    fn strided_assembly_adds_memory_work() {
        let plain = comm_roundtrip_programs(&CommMicroConfig {
            message_bytes: 4096,
            assemble_stride: None,
            round_trips: 1,
        });
        let strided = comm_roundtrip_programs(&CommMicroConfig::paper_4k_strided());
        let w_plain = total_work(&plain[0]);
        let w_strided = total_work(&strided[0]);
        assert!(w_strided.dram_accesses > w_plain.dram_accesses);
    }

    #[test]
    fn paper_configs_match_figures() {
        let a = CommMicroConfig::paper_256k();
        assert_eq!(a.message_bytes, 256 * 1024);
        assert!(a.assemble_stride.is_none());
        let b = CommMicroConfig::paper_4k_strided();
        assert_eq!(b.message_bytes, 4 * 1024);
        assert_eq!(b.assemble_stride, Some(64));
    }

    #[test]
    #[should_panic(expected = "at least one round trip")]
    fn zero_round_trips_rejected() {
        let _ = comm_roundtrip_programs(&CommMicroConfig {
            message_bytes: 1,
            assemble_stride: None,
            round_trips: 0,
        });
    }
}
