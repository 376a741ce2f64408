//! NAS CG: conjugate gradient with an irregular sparse matrix.
//!
//! A beyond-the-paper workload (the paper's conclusion calls for studying
//! how "energy savings vary greatly with application"): CG is the
//! memory-bound counterpoint to FT's communication-bound transpose.
//! Per inner CG step, each rank:
//!
//! 1. **SpMV** — streams its partition's nonzeros (value + index) and
//!    gathers the source vector irregularly: heavily DRAM-bound;
//! 2. **dot products** — two short reductions, each an `MPI_Allreduce`
//!    of one double;
//! 3. **vector updates** — three AXPYs over the local partition;
//! 4. **exchange** — an allgather of the updated direction vector (the
//!    row-partitioned SpMV's communication).
//!
//! Sizes follow the NPB CG classes.

use dvfs::AppSpeedRequest;
use mem_model::{streaming_work, MemHierarchy, WorkUnit};
use mpi_sim::{Program, ProgramBuilder};
use sim_core::DetRng;

use crate::CYCLES_PER_FLOP;

/// NPB CG problem classes (plus a tiny test class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgClass {
    /// n = 14 000, ~2.0 M nonzeros, 15 outer iterations.
    A,
    /// n = 75 000, ~13.7 M nonzeros, 75 outer iterations.
    B,
    /// n = 150 000, ~36.1 M nonzeros, 75 outer iterations.
    C,
    /// n = 1 000, 20 K nonzeros, 2 outer iterations — tests only.
    Test,
}

impl CgClass {
    /// Matrix dimension.
    pub fn n(self) -> u64 {
        match self {
            CgClass::A => 14_000,
            CgClass::B => 75_000,
            CgClass::C => 150_000,
            CgClass::Test => 1_000,
        }
    }

    /// Approximate nonzero count.
    pub fn nnz(self) -> u64 {
        match self {
            CgClass::A => 2_000_000,
            CgClass::B => 13_700_000,
            CgClass::C => 36_100_000,
            CgClass::Test => 20_000,
        }
    }

    /// Outer iterations (each runs [`CG_INNER_STEPS`] inner steps).
    pub fn outer_iterations(self) -> u32 {
        match self {
            CgClass::A => 15,
            CgClass::B | CgClass::C => 75,
            CgClass::Test => 2,
        }
    }
}

/// Inner CG steps per outer iteration (NPB fixes 25).
pub const CG_INNER_STEPS: u32 = 25;

/// CG run configuration.
#[derive(Debug, Clone)]
pub struct CgConfig {
    /// Problem class.
    pub class: CgClass,
    /// Rank count (row partitioning; any count >= 1).
    pub ranks: usize,
    /// Wrap each inner step's communication in dynamic-DVS calls.
    pub dynamic_dvs: bool,
    /// Per-rank work jitter amplitude.
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl CgConfig {
    /// Standard configuration for `class` on `ranks` nodes.
    pub fn paper_style(class: CgClass, ranks: usize) -> Self {
        CgConfig {
            class,
            ranks,
            dynamic_dvs: false,
            jitter: 0.01,
            seed: 0x4347, // "CG"
        }
    }

    /// Same run with dynamic-DVS instrumentation.
    pub fn with_dynamic_dvs(mut self) -> Self {
        self.dynamic_dvs = true;
        self
    }
}

/// Build all ranks' programs for one CG run.
pub fn cg_programs(config: &CgConfig) -> Vec<Program> {
    assert!(config.ranks > 0, "CG needs at least one rank");
    let root = DetRng::new(config.seed);
    (0..config.ranks)
        .map(|rank| build_rank(config, rank, root.fork(rank as u64)))
        .collect()
}

fn build_rank(config: &CgConfig, rank: usize, mut rng: DetRng) -> Program {
    let mut b = ProgramBuilder::new(rank, config.ranks);
    let hier = MemHierarchy::pentium_m_1400();
    let p = config.ranks as u64;
    let n = config.class.n();
    let nnz = config.class.nnz();
    let local_n = n / p;
    let local_nnz = nnz / p;

    // SpMV: stream (value f64 + column index u32) per nonzero, plus the
    // irregular gathers from the source vector (one potential miss per
    // nonzero, damped because consecutive nonzeros share cached rows).
    let spmv = WorkUnit {
        cpu_cycles: 2.0 * local_nnz as f64 * CYCLES_PER_FLOP,
        ..WorkUnit::ZERO
    }
    .add(&streaming_work(local_nnz * 12, 12, 0.0, &hier))
    .add(&WorkUnit {
        dram_accesses: local_nnz as f64 * 0.3,
        ..WorkUnit::ZERO
    });

    // Three AXPY-style vector updates over the local partition.
    let axpy = WorkUnit {
        cpu_cycles: 3.0 * 2.0 * local_n as f64 * CYCLES_PER_FLOP,
        ..WorkUnit::ZERO
    }
    .add(&streaming_work(3 * 3 * local_n * 8, 8, 0.0, &hier));

    // Two local dot products feeding the allreduces.
    let dots = WorkUnit {
        cpu_cycles: 2.0 * 2.0 * local_n as f64 * CYCLES_PER_FLOP,
        ..WorkUnit::ZERO
    }
    .add(&streaming_work(2 * local_n * 8, 8, 0.0, &hier));

    // One-time setup: build the sparse matrix.
    b.phase_begin("makea");
    b.compute(streaming_work(local_nnz * 12, 12, 4.0, &hier).scale(rng.jitter(config.jitter)));
    b.barrier();
    b.phase_end("makea");

    for _ in 0..config.class.outer_iterations() {
        for _ in 0..CG_INNER_STEPS {
            b.phase_begin("spmv");
            b.compute(spmv.scale(rng.jitter(config.jitter)));
            b.phase_end("spmv");

            b.phase_begin("reductions");
            b.compute(dots.scale(rng.jitter(config.jitter)));
            b.allreduce(8);
            b.allreduce(8);
            b.phase_end("reductions");

            b.phase_begin("axpy");
            b.compute(axpy.scale(rng.jitter(config.jitter)));
            b.phase_end("axpy");

            if config.ranks > 1 {
                b.phase_begin("exchange");
                if config.dynamic_dvs {
                    b.set_speed(AppSpeedRequest::Lowest);
                }
                b.allgather(local_n * 8);
                if config.dynamic_dvs {
                    b.set_speed(AppSpeedRequest::Restore);
                }
                b.phase_end("exchange");
            }
        }
        // Outer residual norm.
        b.allreduce(8);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::Op;

    #[test]
    fn class_parameters_match_npb() {
        assert_eq!(CgClass::A.n(), 14_000);
        assert_eq!(CgClass::B.n(), 75_000);
        assert_eq!(CgClass::B.outer_iterations(), 75);
        assert!(CgClass::C.nnz() > CgClass::B.nnz());
    }

    #[test]
    fn builds_one_program_per_rank() {
        let p = cg_programs(&CgConfig::paper_style(CgClass::Test, 4));
        assert_eq!(p.len(), 4);
        assert!(!p[0].is_empty());
    }

    #[test]
    fn single_rank_has_no_exchange() {
        let p = cg_programs(&CgConfig::paper_style(CgClass::Test, 1));
        assert!(!p[0]
            .ops()
            .any(|op| matches!(op, Op::Send { .. } | Op::SendRecv { .. })));
    }

    #[test]
    fn spmv_is_memory_bound() {
        let hier = MemHierarchy::pentium_m_1400();
        let p = cg_programs(&CgConfig::paper_style(CgClass::B, 8));
        // Find the biggest compute op — the SpMV — and check its split.
        let spmv = p[0]
            .ops()
            .filter_map(|op| match op {
                Op::Compute(w) => Some(w),
                _ => None,
            })
            .max_by(|a, b| a.dram_accesses.total_cmp(&b.dram_accesses))
            .unwrap();
        assert!(
            spmv.scaled_fraction(&hier, 1.4e9) < 0.5,
            "{}",
            spmv.scaled_fraction(&hier, 1.4e9)
        );
    }

    #[test]
    fn dynamic_variant_wraps_exchanges_only() {
        let plain = cg_programs(&CgConfig::paper_style(CgClass::Test, 4));
        let dynamic = cg_programs(&CgConfig::paper_style(CgClass::Test, 4).with_dynamic_dvs());
        let count = |p: &Program| p.ops().filter(|op| matches!(op, Op::SetSpeed(_))).count();
        assert_eq!(count(&plain[0]), 0);
        let steps = CgClass::Test.outer_iterations() * CG_INNER_STEPS;
        assert_eq!(count(&dynamic[0]), 2 * steps as usize);
    }

    #[test]
    fn jitter_is_deterministic() {
        let cfg = CgConfig::paper_style(CgClass::Test, 2);
        assert!(cg_programs(&cfg)[0].ops().eq(cg_programs(&cfg)[0].ops()));
    }
}
