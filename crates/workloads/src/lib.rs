//! # workloads — the paper's applications as phase-accurate models
//!
//! Each workload builds per-rank [`mpi_sim::Program`]s whose compute,
//! memory, and communication volumes follow the real algorithms:
//!
//! * `ft` — the NAS Parallel Benchmarks FT kernel (3-D FFT with an
//!   all-to-all transpose each iteration), classes A/B/C, with the paper's
//!   dynamic-DVS instrumentation around the `fft()` function;
//! * `transpose` — the paper's 12K×12K parallel matrix transpose on a
//!   5×3 process grid: local transpose (memory-bound), block exchange to
//!   the transposed position, and gather to the root (the load-imbalance
//!   showcase), with dynamic-DVS instrumentation around steps 2–3;
//! * `spec` — single-node proxies for SPEC CFP2000 `swim`
//!   (memory-bound) and `mgrid` (cache-resident, CPU-bound), the paper's
//!   Figure 1 motivators;
//! * `cg` — NAS CG (beyond the paper): memory-bound sparse SpMV with
//!   allreduce/allgather communication;
//! * `mg` — NAS MG (beyond the paper): V-cycle multigrid with
//!   6-neighbour halo exchange on a 3-D process grid.
//!
//! Work volumes carry small deterministic per-rank jitter (seeded
//! [`sim_core::DetRng`]) so the cluster exhibits the mild natural
//! imbalance real machines show.

pub(crate) mod cg;
pub(crate) mod ft;
pub(crate) mod mg;
pub(crate) mod spec;
pub(crate) mod transpose;

pub use cg::{cg_programs, CgClass, CgConfig};
pub use ft::{ft_programs, FtClass, FtConfig};
pub use mg::{mg_programs, neighbours, MgClass, MgConfig};
pub use spec::{mgrid_program, swim_program, SpecConfig};
pub use transpose::{transpose_programs, TransposeConfig};

/// Cycles per floating-point operation assumed for the Pentium M on
/// optimized scientific kernels: SSE2 issues up to two double-precision
/// flops per cycle, degraded by dependency chains in FFT butterflies.
/// Fitted to the paper's FT delay crescendos (FT.B +6.8% at 600 MHz).
pub(crate) const CYCLES_PER_FLOP: f64 = 0.7;
