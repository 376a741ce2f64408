//! NAS MG: V-cycle multigrid with nearest-neighbour halo exchange.
//!
//! The third distributed communication pattern in the suite (FT:
//! all-to-all; transpose: permutation + incast; CG: allgather +
//! allreduce; **MG: 6-neighbour ghost-cell exchange** on a 3-D process
//! grid, repeated at every grid level of the V-cycle). Communication
//! volume shrinks by 4× per level while message *count* stays constant,
//! so MG stresses latency and small-message overhead — the
//! frequency-scaled part of communication — more than any other kernel.
//!
//! Sizes follow the NPB MG classes.

use mem_model::{streaming_work, MemHierarchy, WorkUnit};
use mpi_sim::{Program, ProgramBuilder, Tag};
use sim_core::DetRng;

use crate::CYCLES_PER_FLOP;

/// NPB MG problem classes (plus a tiny test class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgClass {
    /// 256³ grid, 4 iterations.
    A,
    /// 256³ grid, 20 iterations.
    B,
    /// 512³ grid, 20 iterations.
    C,
    /// 32³ grid, 2 iterations — tests only.
    Test,
}

impl MgClass {
    /// Grid edge length (the grid is cubic).
    pub fn n(self) -> u64 {
        match self {
            MgClass::A | MgClass::B => 256,
            MgClass::C => 512,
            MgClass::Test => 32,
        }
    }

    /// V-cycle iterations.
    pub fn iterations(self) -> u32 {
        match self {
            MgClass::A => 4,
            MgClass::B | MgClass::C => 20,
            MgClass::Test => 2,
        }
    }
}

/// MG run configuration.
#[derive(Debug, Clone)]
pub struct MgConfig {
    /// Problem class.
    pub class: MgClass,
    /// Rank count; must factor into a 3-D grid (powers of two work best).
    pub ranks: usize,
    /// Wrap each level's halo exchange in dynamic-DVS calls.
    pub dynamic_dvs: bool,
    /// Per-rank work jitter amplitude.
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl MgConfig {
    /// Standard configuration.
    pub fn paper_style(class: MgClass, ranks: usize) -> Self {
        MgConfig {
            class,
            ranks,
            dynamic_dvs: false,
            jitter: 0.01,
            seed: 0x4D47, // "MG"
        }
    }

    /// Same run with dynamic-DVS instrumentation.
    pub fn with_dynamic_dvs(mut self) -> Self {
        self.dynamic_dvs = true;
        self
    }
}

/// Factor `p` into a near-cubic 3-D grid `(px, py, pz)` with
/// `px >= py >= pz` (the NPB processor-grid rule).
pub fn process_grid_3d(p: usize) -> (usize, usize, usize) {
    assert!(p > 0);
    let mut best = (p, 1, 1);
    let mut best_surface = usize::MAX;
    for pz in 1..=p {
        if !p.is_multiple_of(pz) {
            continue;
        }
        let rest = p / pz;
        for py in 1..=rest {
            if !rest.is_multiple_of(py) {
                continue;
            }
            let px = rest / py;
            if px < py || py < pz {
                continue;
            }
            // Minimize the communication surface px*py + py*pz + px*pz.
            let surface = px * py + py * pz + px * pz;
            if surface < best_surface {
                best_surface = surface;
                best = (px, py, pz);
            }
        }
    }
    best
}

/// Rank of grid coordinate `(x, y, z)` in row-major order.
fn coord_to_rank(grid: (usize, usize, usize), x: usize, y: usize, z: usize) -> usize {
    (x * grid.1 + y) * grid.2 + z
}

/// Coordinates of `rank`.
fn rank_to_coord(grid: (usize, usize, usize), rank: usize) -> (usize, usize, usize) {
    let z = rank % grid.2;
    let y = (rank / grid.2) % grid.1;
    let x = rank / (grid.1 * grid.2);
    (x, y, z)
}

/// The six periodic neighbours of `rank` as `(minus, plus)` per axis.
pub fn neighbours(grid: (usize, usize, usize), rank: usize) -> [(usize, usize); 3] {
    let (x, y, z) = rank_to_coord(grid, rank);
    let (gx, gy, gz) = grid;
    [
        (
            coord_to_rank(grid, (x + gx - 1) % gx, y, z),
            coord_to_rank(grid, (x + 1) % gx, y, z),
        ),
        (
            coord_to_rank(grid, x, (y + gy - 1) % gy, z),
            coord_to_rank(grid, x, (y + 1) % gy, z),
        ),
        (
            coord_to_rank(grid, x, y, (z + gz - 1) % gz),
            coord_to_rank(grid, x, y, (z + 1) % gz),
        ),
    ]
}

/// Flops per grid point for one smoothing + residual pass (27-point
/// stencil arithmetic).
const FLOPS_PER_POINT: f64 = 30.0;

/// Build all ranks' programs for one MG run.
pub fn mg_programs(config: &MgConfig) -> Vec<Program> {
    let grid = process_grid_3d(config.ranks);
    let n = config.class.n();
    assert!(
        (n as usize).is_multiple_of(grid.0)
            && (n as usize).is_multiple_of(grid.1)
            && (n as usize).is_multiple_of(grid.2),
        "grid {n}^3 must divide the {grid:?} process grid"
    );
    let root = DetRng::new(config.seed);
    (0..config.ranks)
        .map(|rank| build_rank(config, grid, rank, root.fork(rank as u64)))
        .collect()
}

fn build_rank(
    config: &MgConfig,
    grid: (usize, usize, usize),
    rank: usize,
    mut rng: DetRng,
) -> Program {
    let mut b = ProgramBuilder::new(rank, config.ranks);
    let hier = MemHierarchy::pentium_m_1400();
    let n = config.class.n();
    let nbrs = neighbours(grid, rank);

    // Levels: n, n/2, ..., down to 4 (or the coarsest that still divides
    // the process grid; below that NPB agglomerates — we stop exchanging).
    let mut levels = Vec::new();
    let mut edge = n;
    while edge >= 4 {
        levels.push(edge);
        edge /= 2;
    }

    for _ in 0..config.class.iterations() {
        // Downward (restriction) and upward (prolongation) passes touch
        // every level; we emit each level twice per V-cycle.
        for pass in 0..2u32 {
            let level_list: Vec<u64> = if pass == 0 {
                levels.clone()
            } else {
                levels.iter().rev().cloned().collect()
            };
            for &edge in &level_list {
                let local = (
                    edge / grid.0 as u64,
                    edge / grid.1 as u64,
                    edge / grid.2 as u64,
                );
                if local.0 == 0 || local.1 == 0 || local.2 == 0 {
                    continue;
                }
                let points = local.0 * local.1 * local.2;

                // Smooth + residual at this level.
                b.phase_begin("smooth");
                let work = WorkUnit {
                    cpu_cycles: points as f64 * FLOPS_PER_POINT * CYCLES_PER_FLOP,
                    ..WorkUnit::ZERO
                }
                .add(&streaming_work(points * 8 * 2, 8, 0.0, &hier));
                b.compute(work.scale(rng.jitter(config.jitter)));
                b.phase_end("smooth");

                // Halo exchange: one face per direction per axis.
                b.phase_begin("halo");
                if config.dynamic_dvs {
                    b.set_speed(dvfs::AppSpeedRequest::Lowest);
                }
                let faces = [
                    local.1 * local.2 * 8,
                    local.0 * local.2 * 8,
                    local.0 * local.1 * 8,
                ];
                for (axis, &(minus, plus)) in nbrs.iter().enumerate() {
                    if minus == rank {
                        continue; // periodic wrap onto self: local copy
                    }
                    let bytes = faces[axis];
                    let tag_base: Tag = (axis as Tag) * 4 + pass;
                    // Exchange with both neighbours (send up / recv down,
                    // then the reverse), as NPB's comm3 does.
                    b.sendrecv(plus, bytes, tag_base, minus, bytes, tag_base);
                    b.sendrecv(minus, bytes, tag_base + 2, plus, bytes, tag_base + 2);
                }
                if config.dynamic_dvs {
                    b.set_speed(dvfs::AppSpeedRequest::Restore);
                }
                b.phase_end("halo");
            }
        }
        // Convergence check.
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
        assert_eq!(MgClass::A.n(), 256);
        assert_eq!(MgClass::C.n(), 512);
        assert_eq!(MgClass::B.iterations(), 20);
    }

    #[test]
    fn process_grid_is_near_cubic() {
        assert_eq!(process_grid_3d(8), (2, 2, 2));
        assert_eq!(process_grid_3d(16), (4, 2, 2));
        assert_eq!(process_grid_3d(1), (1, 1, 1));
        let (px, py, pz) = process_grid_3d(12);
        assert_eq!(px * py * pz, 12);
        assert!(px >= py && py >= pz);
    }

    #[test]
    fn neighbours_are_symmetric() {
        let grid = process_grid_3d(8);
        for rank in 0..8 {
            for (axis, &(minus, plus)) in neighbours(grid, rank).iter().enumerate() {
                // My plus-neighbour's minus-neighbour is me.
                assert_eq!(neighbours(grid, plus)[axis].0, rank);
                assert_eq!(neighbours(grid, minus)[axis].1, rank);
            }
        }
    }

    #[test]
    fn builds_and_communicates() {
        let p = mg_programs(&MgConfig::paper_style(MgClass::Test, 8));
        assert_eq!(p.len(), 8);
        assert!(p[0].ops().any(|op| matches!(op, Op::SendRecv { .. })));
    }

    #[test]
    fn halo_pattern_is_closed() {
        // Every sendrecv must have its mirror on the peer: collect and
        // match the multiset across ranks.
        let programs = mg_programs(&MgConfig::paper_style(MgClass::Test, 8));
        let mut sends: Vec<(usize, usize, Tag, u64)> = Vec::new();
        let mut recvs: Vec<(usize, usize, Tag)> = Vec::new();
        for (rank, p) in programs.iter().enumerate() {
            for op in p.ops() {
                if let Op::SendRecv {
                    dst,
                    send_bytes,
                    send_tag,
                    src,
                    recv_tag,
                } = op
                {
                    sends.push((rank, dst, send_tag, send_bytes));
                    recvs.push((src, rank, recv_tag));
                }
            }
        }
        let mut s: Vec<(usize, usize, Tag)> = sends.iter().map(|&(a, b, t, _)| (a, b, t)).collect();
        s.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(s, recvs);
    }

    #[test]
    fn communication_volume_shrinks_with_level() {
        // Face bytes at the finest level exceed the next level's by 4x.
        let programs = mg_programs(&MgConfig::paper_style(MgClass::Test, 8));
        let volumes: Vec<u64> = programs[0]
            .ops()
            .filter_map(|op| match op {
                Op::SendRecv { send_bytes, .. } => Some(send_bytes),
                _ => None,
            })
            .collect();
        let max = *volumes.iter().max().unwrap();
        let min = *volumes.iter().min().unwrap();
        assert!(max >= 4 * min, "level scaling missing: max {max} min {min}");
    }

    #[test]
    fn single_rank_runs_without_exchange() {
        let p = mg_programs(&MgConfig::paper_style(MgClass::Test, 1));
        assert!(!p[0]
            .ops()
            .any(|op| matches!(op, Op::SendRecv { .. } | Op::Send { .. })));
    }

    #[test]
    fn dynamic_variant_instruments_halos() {
        let d = mg_programs(&MgConfig::paper_style(MgClass::Test, 8).with_dynamic_dvs());
        let speed_ops = d[0]
            .ops()
            .filter(|op| matches!(op, Op::SetSpeed(_)))
            .count();
        assert!(speed_ops > 0);
        assert_eq!(speed_ops % 2, 0, "balanced lower/restore pairs");
    }
}
