//! NAS Parallel Benchmarks FT: 3-D FFT with all-to-all transpose.
//!
//! Structure per iteration (matching NPB 2.x FT):
//!
//! 1. `evolve` — pointwise multiply of the frequency-domain data by
//!    exponential factors (streaming, ~6 flops/point);
//! 2. `fft()` — the paper's instrumented function: two local 1-D FFT
//!    passes, the transpose (MPI all-to-all of the local partition), and
//!    the third local pass;
//! 3. `checksum` — a small allreduce.
//!
//! FFT work is the textbook `5 · N · log2(N)` flops per full 3-D
//! transform, split 2/3 before and 1/3 after the transpose. FFT passes
//! stream the local partition through DRAM (the strides are cache-hostile
//! at these problem sizes).

use mem_model::{streaming_work, MemHierarchy, WorkUnit};
use mpi_sim::{Program, ProgramBuilder};
use sim_core::DetRng;

use crate::CYCLES_PER_FLOP;

/// NPB problem classes used by the paper (plus a tiny test class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtClass {
    /// 256×256×128, 6 iterations.
    A,
    /// 512×256×256, 20 iterations.
    B,
    /// 512×512×512, 20 iterations.
    C,
    /// 64×64×32, 3 iterations — not an NPB class; fast unit tests only.
    Test,
}

impl FtClass {
    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(self) -> (u64, u64, u64) {
        match self {
            FtClass::A => (256, 256, 128),
            FtClass::B => (512, 256, 256),
            FtClass::C => (512, 512, 512),
            FtClass::Test => (64, 64, 32),
        }
    }

    /// Official iteration count.
    pub fn iterations(self) -> u32 {
        match self {
            FtClass::A => 6,
            FtClass::B => 20,
            FtClass::C => 20,
            FtClass::Test => 3,
        }
    }

    /// Total grid points.
    pub fn total_points(self) -> u64 {
        let (x, y, z) = self.dims();
        x * y * z
    }
}

/// FT run configuration.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Problem class.
    pub class: FtClass,
    /// Number of ranks (one per node). NPB FT requires a power of two.
    pub ranks: usize,
    /// Insert the paper's dynamic-DVS instrumentation: drop to the lowest
    /// operating point on entry to `fft()`, restore on exit.
    pub dynamic_dvs: bool,
    /// Per-rank work jitter amplitude (fraction, e.g. 0.01 = ±1%).
    pub jitter: f64,
    /// RNG seed for the jitter.
    pub seed: u64,
    /// Run this many iterations instead of the class's NPB count.
    /// Scale benchmarking uses `Some(1)` so a 4096-rank class-C run
    /// exercises one full evolve→fft→checksum epoch without paying for
    /// twenty.
    pub iterations_override: Option<u32>,
}

impl FtConfig {
    /// The paper's FT runs: `class` on `ranks` processors, no
    /// instrumentation.
    pub fn paper(class: FtClass, ranks: usize) -> Self {
        FtConfig {
            class,
            ranks,
            dynamic_dvs: false,
            jitter: 0.01,
            seed: 0x46_54, // "FT"
            iterations_override: None,
        }
    }

    /// A scale-benchmark run: class C work decomposition on `ranks`
    /// processors, a single iteration.
    pub fn scale(ranks: usize) -> Self {
        FtConfig {
            iterations_override: Some(1),
            ..FtConfig::paper(FtClass::C, ranks)
        }
    }

    /// Same run with dynamic-DVS instrumentation.
    pub fn with_dynamic_dvs(mut self) -> Self {
        self.dynamic_dvs = true;
        self
    }

    /// Iterations to run: the override if set, else the class's count.
    pub fn iterations(&self) -> u32 {
        self.iterations_override
            .unwrap_or_else(|| self.class.iterations())
    }
}

/// Bytes per grid point (complex double).
const BYTES_PER_POINT: u64 = 16;

/// Flops per point in `evolve`.
const EVOLVE_FLOPS_PER_POINT: f64 = 6.0;

/// Build all ranks' programs for one FT run.
pub fn ft_programs(config: &FtConfig) -> Vec<Program> {
    assert!(
        config.ranks > 0 && config.ranks.is_power_of_two(),
        "NPB FT needs a power-of-two rank count"
    );
    let root = DetRng::new(config.seed);
    (0..config.ranks)
        .map(|rank| build_rank(config, rank, root.fork(rank as u64)))
        .collect()
}

fn build_rank(config: &FtConfig, rank: usize, mut rng: DetRng) -> Program {
    let mut b = ProgramBuilder::new(rank, config.ranks);
    let hier = MemHierarchy::pentium_m_1400();
    let p = config.ranks as u64;
    let n = config.class.total_points();
    let local_points = n / p;
    let local_bytes = local_points * BYTES_PER_POINT;
    // 5 N log2 N flops per full 3-D FFT, this rank's share.
    let fft_flops = 5.0 * local_points as f64 * (n as f64).log2();
    let alltoall_bytes_per_pair = local_bytes / p;

    // One-time setup: index map + initial conditions (two streaming passes).
    let setup = streaming_work(2 * local_bytes, 8, 2.0, &hier);
    b.phase_begin("setup");
    b.compute(jittered(setup, &mut rng, config.jitter));
    b.barrier();
    b.phase_end("setup");

    for _ in 0..config.iterations() {
        // evolve: pointwise multiply, streaming read+write.
        let evolve = WorkUnit {
            cpu_cycles: EVOLVE_FLOPS_PER_POINT * local_points as f64 * CYCLES_PER_FLOP,
            ..WorkUnit::ZERO
        }
        .add(&streaming_work(
            2 * local_bytes,
            BYTES_PER_POINT,
            0.0,
            &hier,
        ));
        b.phase_begin("evolve");
        b.compute(jittered(evolve, &mut rng, config.jitter));
        b.phase_end("evolve");

        // fft(): the paper's instrumented slack-heavy function.
        b.phase_begin("fft");
        if config.dynamic_dvs {
            b.set_speed(dvfs::AppSpeedRequest::Lowest);
        }
        // Two local passes before the transpose (2/3 of the flops),
        // streaming the partition twice (read + write per pass).
        let pre = WorkUnit {
            cpu_cycles: fft_flops * (2.0 / 3.0) * CYCLES_PER_FLOP,
            ..WorkUnit::ZERO
        }
        .add(&streaming_work(
            4 * local_bytes,
            BYTES_PER_POINT,
            0.0,
            &hier,
        ));
        b.compute(jittered(pre, &mut rng, config.jitter));
        // The distributed transpose.
        b.alltoall(alltoall_bytes_per_pair);
        // Third local pass (1/3 of the flops).
        let post = WorkUnit {
            cpu_cycles: fft_flops * (1.0 / 3.0) * CYCLES_PER_FLOP,
            ..WorkUnit::ZERO
        }
        .add(&streaming_work(
            2 * local_bytes,
            BYTES_PER_POINT,
            0.0,
            &hier,
        ));
        b.compute(jittered(post, &mut rng, config.jitter));
        if config.dynamic_dvs {
            b.set_speed(dvfs::AppSpeedRequest::Restore);
        }
        b.phase_end("fft");

        // checksum: tiny local reduction + allreduce.
        b.phase_begin("checksum");
        b.compute(WorkUnit::pure_cpu(1_000.0 + local_points as f64 * 0.01));
        b.allreduce(16);
        b.phase_end("checksum");
    }
    b.build()
}

fn jittered(w: WorkUnit, rng: &mut DetRng, amplitude: f64) -> WorkUnit {
    w.scale(rng.jitter(amplitude))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::Op;

    #[test]
    fn class_dims_match_npb() {
        assert_eq!(FtClass::A.dims(), (256, 256, 128));
        assert_eq!(FtClass::B.dims(), (512, 256, 256));
        assert_eq!(FtClass::C.dims(), (512, 512, 512));
        assert_eq!(FtClass::B.iterations(), 20);
        assert_eq!(FtClass::C.total_points(), 512 * 512 * 512);
    }

    #[test]
    fn builds_one_program_per_rank() {
        let p = ft_programs(&FtConfig::paper(FtClass::Test, 4));
        assert_eq!(p.len(), 4);
        assert!(!p[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_ranks_rejected() {
        let _ = ft_programs(&FtConfig::paper(FtClass::Test, 6));
    }

    #[test]
    fn alltoall_volume_matches_partition() {
        // Every rank ships its whole partition (minus the self block) per
        // iteration through the transpose; plus barrier/checksum traffic.
        let cfg = FtConfig::paper(FtClass::Test, 4);
        let p = ft_programs(&cfg);
        let n = FtClass::Test.total_points();
        let local_bytes = n / 4 * 16;
        let per_iter_transpose = local_bytes / 4 * 3; // 3 peers
        let lower_bound = per_iter_transpose * FtClass::Test.iterations() as u64;
        let sent = p[0].bytes_sent();
        assert!(
            sent >= lower_bound,
            "sent {sent} < transpose volume {lower_bound}"
        );
        assert!(sent < lower_bound * 2, "sent {sent} unreasonably high");
    }

    #[test]
    fn dynamic_variant_instruments_fft_only() {
        let plain = ft_programs(&FtConfig::paper(FtClass::Test, 4));
        let dynamic = ft_programs(&FtConfig::paper(FtClass::Test, 4).with_dynamic_dvs());
        let count = |p: &Program| p.ops().filter(|op| matches!(op, Op::SetSpeed(_))).count();
        assert_eq!(count(&plain[0]), 0);
        // Two requests (down + restore) per iteration.
        assert_eq!(count(&dynamic[0]), 2 * FtClass::Test.iterations() as usize);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = FtConfig::paper(FtClass::Test, 2);
        let a = ft_programs(&cfg);
        let b = ft_programs(&cfg);
        assert_eq!(a[0].ops().len(), b[0].ops().len());
        for (x, y) in a[0].ops().zip(b[0].ops()) {
            assert_eq!(x, y);
        }
        // And ranks differ from each other (independent jitter streams).
        assert!(a[0].ops().ne(a[1].ops()));
    }

    #[test]
    fn fft_phase_markers_are_balanced() {
        let p = ft_programs(&FtConfig::paper(FtClass::Test, 2));
        let begins = p[0]
            .ops()
            .filter(|op| matches!(op, Op::PhaseBegin("fft")))
            .count();
        let ends = p[0]
            .ops()
            .filter(|op| matches!(op, Op::PhaseEnd("fft")))
            .count();
        assert_eq!(begins, FtClass::Test.iterations() as usize);
        assert_eq!(begins, ends);
    }

    #[test]
    fn class_c_is_communication_dominated() {
        // Structural sanity behind the paper's FT result: wire time for the
        // transpose exceeds frequency-scaled compute time at 1.4 GHz.
        let n = FtClass::C.total_points();
        let p = 8u64;
        let local_bytes = n / p * 16;
        let wire_secs = (local_bytes - local_bytes / p) as f64 / (100e6 * 0.92 / 8.0);
        let fft_flops = 5.0 * (n / p) as f64 * (n as f64).log2();
        let compute_secs = fft_flops / 1.4e9;
        assert!(
            wire_secs > 5.0 * compute_secs,
            "wire {wire_secs}s vs compute {compute_secs}s"
        );
    }
}
