//! Single-node SPEC CFP2000 proxies: `swim` and `mgrid` (paper Figure 1).
//!
//! The paper motivates distributed DVS with two sequential codes whose
//! energy-delay crescendos bracket the behaviour space:
//!
//! * **swim** — shallow-water finite differences over arrays far larger
//!   than the caches: memory-bound, so delay barely grows as the clock
//!   drops and energy falls steeply;
//! * **mgrid** — multigrid relaxation with strong cache reuse:
//!   CPU-bound, so delay grows nearly linearly with `1/f` and slowing
//!   down saves little (or costs) energy.
//!
//! These proxies reproduce the operation mix, not the numerics: work
//! volumes follow the reference inputs' array sizes and flop counts.

use mem_model::{streaming_work, MemHierarchy, WorkUnit};
use mpi_sim::{Program, ProgramBuilder};
use sim_core::DetRng;

use crate::CYCLES_PER_FLOP;

/// Configuration for the sequential proxies.
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Number of outer timesteps (scales runtime; the paper runs minutes).
    pub(crate) timesteps: u32,
    /// Work jitter amplitude.
    pub(crate) jitter: f64,
    /// Jitter seed.
    pub(crate) seed: u64,
}

impl SpecConfig {
    /// Enough timesteps for a minutes-long run at 1.4 GHz, as the paper's
    /// battery methodology requires (swim steps are much shorter than
    /// mgrid's, so the count is sized for swim).
    pub fn paper() -> Self {
        SpecConfig {
            timesteps: 200,
            jitter: 0.005,
            seed: 0x53_50, // "SP"
        }
    }
}

/// swim's working set: the reference input is a 1335×1335 grid with ~14
/// double arrays — ~200 MB touched per timestep.
const SWIM_BYTES_PER_STEP: u64 = 200 * 1024 * 1024;

/// swim flops per byte streamed (stencil updates: ~0.2 flops/byte).
const SWIM_FLOPS_PER_BYTE: f64 = 0.2;

/// Build the swim proxy (single rank).
pub fn swim_program(config: &SpecConfig) -> Program {
    let mut b = ProgramBuilder::new(0, 1);
    let hier = MemHierarchy::pentium_m_1400();
    let mut rng = DetRng::new(config.seed);
    for _ in 0..config.timesteps {
        b.phase_begin("swim_step");
        let stream = streaming_work(
            SWIM_BYTES_PER_STEP,
            8,
            8.0 * SWIM_FLOPS_PER_BYTE * CYCLES_PER_FLOP,
            &hier,
        );
        b.compute(stream.scale(rng.jitter(config.jitter)));
        b.phase_end("swim_step");
    }
    b.build()
}

/// mgrid per-step work: relaxations over a hierarchy of grids; the finest
/// level dominates flops but most levels fit in the 1 MB L2 once blocked.
/// Modeled as a large cache-resident flop block plus a small streaming
/// component for the finest grid's boundary traffic.
const MGRID_FLOPS_PER_STEP: f64 = 2.0e9;

/// Fraction of mgrid's data traffic that escapes to DRAM.
const MGRID_DRAM_BYTES_PER_STEP: u64 = 12 * 1024 * 1024;

/// Build the mgrid proxy (single rank).
pub fn mgrid_program(config: &SpecConfig) -> Program {
    let mut b = ProgramBuilder::new(0, 1);
    let hier = MemHierarchy::pentium_m_1400();
    let mut rng = DetRng::new(config.seed ^ 0x4D47); // "MG"
    for _ in 0..config.timesteps {
        b.phase_begin("mgrid_step");
        let w = WorkUnit {
            cpu_cycles: MGRID_FLOPS_PER_STEP * CYCLES_PER_FLOP,
            ..WorkUnit::ZERO
        }
        .add(&streaming_work(MGRID_DRAM_BYTES_PER_STEP, 8, 0.0, &hier));
        b.compute(w.scale(rng.jitter(config.jitter)));
        b.phase_end("mgrid_step");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny run for tests.
    fn small() -> SpecConfig {
        SpecConfig {
            timesteps: 2,
            ..SpecConfig::paper()
        }
    }

    fn total_work(p: &Program) -> WorkUnit {
        p.ops()
            .filter_map(|op| match op {
                mpi_sim::Op::Compute(w) => Some(w),
                _ => None,
            })
            .fold(WorkUnit::ZERO, |acc, w| acc.add(&w))
    }

    #[test]
    fn swim_is_memory_bound() {
        let p = swim_program(&small());
        let w = total_work(&p);
        let hier = MemHierarchy::pentium_m_1400();
        // Under a third of swim's time scales with frequency.
        assert!(
            w.scaled_fraction(&hier, 1.4e9) < 0.35,
            "{}",
            w.scaled_fraction(&hier, 1.4e9)
        );
    }

    #[test]
    fn mgrid_is_cpu_bound() {
        let p = mgrid_program(&small());
        let w = total_work(&p);
        let hier = MemHierarchy::pentium_m_1400();
        assert!(
            w.scaled_fraction(&hier, 1.4e9) > 0.85,
            "{}",
            w.scaled_fraction(&hier, 1.4e9)
        );
    }

    #[test]
    fn paper_config_runs_minutes_at_full_speed() {
        let hier = MemHierarchy::pentium_m_1400();
        for p in [
            swim_program(&SpecConfig::paper()),
            mgrid_program(&SpecConfig::paper()),
        ] {
            let secs = total_work(&p).duration(&hier, 1.4e9).as_secs_f64();
            assert!(secs > 60.0, "run too short for ACPI methodology: {secs}s");
            assert!(secs < 900.0, "run unreasonably long: {secs}s");
        }
    }

    #[test]
    fn programs_are_single_rank_and_communication_free() {
        let p = swim_program(&small());
        assert!(p
            .ops()
            .all(|op| !matches!(op, mpi_sim::Op::Send { .. } | mpi_sim::Op::Recv { .. })));
    }

    #[test]
    fn timesteps_scale_work_linearly() {
        let one = total_work(&swim_program(&SpecConfig {
            timesteps: 1,
            jitter: 0.0,
            seed: 1,
        }));
        let four = total_work(&swim_program(&SpecConfig {
            timesteps: 4,
            jitter: 0.0,
            seed: 1,
        }));
        assert!((four.dram_accesses / one.dram_accesses - 4.0).abs() < 1e-9);
    }
}
