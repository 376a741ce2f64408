//! The paper's parallel matrix transpose (Section 4, Figure 5).
//!
//! A 12K×12K matrix of doubles on 15 processors in a 5×3 grid (each rank
//! holds a 2400×4000 submatrix, ~76.8 MB). Per iteration:
//!
//! 1. **local transpose** — memory-bound: stride-N writes miss on nearly
//!    every element;
//! 2. **exchange** — the submatrix is sent to the rank at the transposed
//!    grid position (a permutation; ranks on the permutation's fixed
//!    points — including the paper's node (0,0) — skip this step, the
//!    designed-in load imbalance);
//! 3. **gather** — every rank ships its block to the root for assembly,
//!    serializing on the root's downlink (the big slack source).
//!
//! The dynamic-DVS variant wraps steps 2 and 3 in PowerPack speed calls,
//! as the paper does.

use dvfs::AppSpeedRequest;
use mem_model::{MemHierarchy, WorkUnit};
use mpi_sim::{Program, ProgramBuilder, Tag};
use sim_core::DetRng;

/// Transpose run configuration.
#[derive(Debug, Clone)]
pub struct TransposeConfig {
    /// Matrix dimension (N×N doubles).
    pub n: u64,
    /// Process grid (rows, cols); `rows * cols` ranks.
    pub grid: (usize, usize),
    /// Number of transpose iterations (the paper iterates for measurable
    /// battery drain).
    pub iterations: u32,
    /// Insert dynamic-DVS instrumentation around steps 2–3.
    pub dynamic_dvs: bool,
    /// Per-rank work jitter amplitude.
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl TransposeConfig {
    /// The paper's experiment: 12 000 × 12 000 doubles on a 5×3 grid.
    pub fn paper() -> Self {
        TransposeConfig {
            n: 12_000,
            grid: (5, 3),
            iterations: 2,
            dynamic_dvs: false,
            jitter: 0.01,
            seed: 0x545250, // "TRP"
        }
    }

    /// A small configuration for fast tests.
    pub fn small() -> Self {
        TransposeConfig {
            n: 600,
            grid: (3, 2),
            iterations: 1,
            ..TransposeConfig::paper()
        }
    }

    /// Same run with dynamic-DVS instrumentation.
    pub fn with_dynamic_dvs(mut self) -> Self {
        self.dynamic_dvs = true;
        self
    }

    /// Total ranks.
    pub fn ranks(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Bytes of one rank's submatrix.
    pub fn block_bytes(&self) -> u64 {
        let (rows, cols) = self.grid;
        (self.n / rows as u64) * (self.n / cols as u64) * 8
    }

    /// The rank holding the transposed position of `rank`'s block: rank
    /// `(p, q)` of the rows×cols grid maps to index `q·rows + p` (its
    /// coordinates swapped, linearized in the transposed grid).
    pub fn partner(&self, rank: usize) -> usize {
        let (rows, cols) = self.grid;
        assert!(rank < rows * cols);
        let p = rank / cols;
        let q = rank % cols;
        q * rows + p
    }

    /// Inverse of [`TransposeConfig::partner`]: who sends *to* `rank`.
    pub fn partner_inverse(&self, rank: usize) -> usize {
        let (rows, cols) = self.grid;
        assert!(rank < rows * cols);
        let q = rank / rows;
        let p = rank % rows;
        p * cols + q
    }
}

/// Build all ranks' programs.
pub fn transpose_programs(config: &TransposeConfig) -> Vec<Program> {
    let (rows, cols) = config.grid;
    assert!(rows > 0 && cols > 0, "degenerate grid");
    assert!(
        config.n.is_multiple_of(rows as u64) && config.n.is_multiple_of(cols as u64),
        "matrix dimension must divide the grid"
    );
    let root = DetRng::new(config.seed);
    (0..config.ranks())
        .map(|rank| build_rank(config, rank, root.fork(rank as u64)))
        .collect()
}

const EXCHANGE_TAG: Tag = 1;

fn build_rank(config: &TransposeConfig, rank: usize, mut rng: DetRng) -> Program {
    let mut b = ProgramBuilder::new(rank, config.ranks());
    let hier = MemHierarchy::pentium_m_1400();
    let block = config.block_bytes();
    let elems = block / 8;

    // Local out-of-place transpose: read streams (1 miss per line), write
    // strides by a full row so essentially every element write misses.
    let local_transpose = WorkUnit {
        cpu_cycles: elems as f64 * 2.0, // index arithmetic per element
        l2_accesses: elems as f64,
        dram_accesses: elems as f64 / 8.0 + elems as f64 * 0.9,
    };

    let partner = config.partner(rank);
    let partner_inv = config.partner_inverse(rank);

    for _ in 0..config.iterations {
        b.phase_begin("local_transpose");
        b.compute(local_transpose.scale(rng.jitter(config.jitter)));
        b.phase_end("local_transpose");

        if config.dynamic_dvs {
            b.set_speed(AppSpeedRequest::Lowest);
        }
        b.phase_begin("exchange");
        // Fixed points of the permutation (e.g. rank 0 = grid (0,0)) keep
        // their block: the paper's load imbalance.
        if partner != rank {
            b.sendrecv(
                partner,
                block,
                EXCHANGE_TAG,
                partner_inv,
                block,
                EXCHANGE_TAG,
            );
        }
        b.phase_end("exchange");

        b.phase_begin("gather");
        b.gather(0, block);
        if rank == 0 {
            // Root assembles the received blocks (streaming copy).
            let assemble =
                mem_model::streaming_work(block * (config.ranks() as u64 - 1), 8, 1.0, &hier);
            b.compute(assemble.scale(rng.jitter(config.jitter)));
        }
        b.phase_end("gather");
        if config.dynamic_dvs {
            b.set_speed(AppSpeedRequest::Restore);
        }
        b.barrier();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::Op;

    #[test]
    fn paper_config_matches_section_4() {
        let c = TransposeConfig::paper();
        assert_eq!(c.ranks(), 15);
        // "each processor is provided a submatrix of size 2400x4000".
        assert_eq!(c.block_bytes(), 2400 * 4000 * 8);
    }

    #[test]
    fn partner_is_a_permutation_with_expected_fixed_points() {
        let c = TransposeConfig::paper();
        let mut seen = [false; 15];
        for r in 0..15 {
            let p = c.partner(r);
            assert!(!seen[p], "partner not injective at {r}");
            seen[p] = true;
            assert_eq!(c.partner_inverse(p), r, "inverse mismatch at {r}");
        }
        // Grid (0,0) — rank 0 — keeps its block, as the paper notes.
        assert_eq!(c.partner(0), 0);
        // The 5x3 permutation has exactly 3 fixed points.
        let fixed = (0..15).filter(|&r| c.partner(r) == r).count();
        assert_eq!(fixed, 3);
    }

    #[test]
    fn fixed_point_ranks_skip_exchange() {
        let c = TransposeConfig::small(); // 3x2 grid
        let programs = transpose_programs(&c);
        // Exchange sendrecvs carry a full block; barrier sendrecvs are tiny.
        let block = c.block_bytes();
        let sends_exchange = |p: &Program| {
            p.ops()
                .any(|op| matches!(op, Op::SendRecv { send_bytes, .. } if send_bytes == block))
        };
        for (r, program) in programs.iter().enumerate() {
            let has = sends_exchange(program);
            let is_fixed = c.partner(r) == r;
            assert_eq!(
                has, !is_fixed,
                "rank {r}: fixed={is_fixed}, exchanges={has}"
            );
        }
    }

    #[test]
    fn everyone_but_root_sends_gather_block() {
        let c = TransposeConfig::small();
        let programs = transpose_programs(&c);
        let block = c.block_bytes();
        for (r, program) in programs.iter().enumerate().skip(1) {
            assert!(
                program.bytes_sent() >= block,
                "rank {r} must ship its block to root"
            );
        }
    }

    #[test]
    fn dynamic_variant_wraps_steps_2_and_3() {
        let c = TransposeConfig::small().with_dynamic_dvs();
        let programs = transpose_programs(&c);
        let speed_ops = programs[1]
            .ops()
            .filter(|op| matches!(op, Op::SetSpeed(_)))
            .count();
        assert_eq!(speed_ops, 2 * c.iterations as usize);
        // The local transpose comes before the first SetSpeed: it runs at
        // the base operating point.
        let first_speed = programs[1]
            .ops()
            .position(|op| matches!(op, Op::SetSpeed(_)))
            .unwrap();
        let first_compute = programs[1]
            .ops()
            .position(|op| matches!(op, Op::Compute(_)))
            .unwrap();
        assert!(first_compute < first_speed);
    }

    #[test]
    #[should_panic(expected = "divide the grid")]
    fn indivisible_matrix_rejected() {
        let mut c = TransposeConfig::paper();
        c.n = 12_001;
        let _ = transpose_programs(&c);
    }

    #[test]
    fn local_transpose_is_memory_bound() {
        // The step-1 work unit must be dominated by DRAM stalls at
        // 1.4 GHz — that's what makes it a DVS opportunity (paper Fig. 6
        // reasoning applied to step 1).
        let c = TransposeConfig::paper();
        let elems = (c.block_bytes() / 8) as f64;
        let w = WorkUnit {
            cpu_cycles: elems * 2.0,
            l2_accesses: elems,
            dram_accesses: elems / 8.0 + elems * 0.9,
        };
        let hier = MemHierarchy::pentium_m_1400();
        assert!(w.scaled_fraction(&hier, 1.4e9) < 0.5);
    }
}
