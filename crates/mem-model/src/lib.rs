//! # mem-model — memory hierarchy and compute-segment cost model
//!
//! The paper's crescendos are explained by one decomposition (its Section 4
//! "power-performance analysis"): execution time splits into a part that
//! scales with CPU frequency (instruction execution and on-die cache access)
//! and a part that does not (DRAM latency, network wire time). This crate
//! owns that decomposition for compute:
//!
//! * [`MemHierarchy`] — the Pentium M memory system (32 KB L1D, 1 MB on-die
//!   L2, DDR SDRAM with ~110 ns load latency, 64 B lines).
//! * [`WorkUnit`] — a compute segment as `(cpu_cycles, l2_accesses,
//!   dram_accesses)`; its duration at frequency `f` is
//!   `(cpu_cycles + l2_accesses · L2_cycles) / f + dram_accesses · t_mem`.
//! * [`AccessPattern`] — classifies a strided buffer walk (the paper's
//!   microbenchmark shape: a buffer of size S walked with stride k) onto the
//!   hierarchy, producing the `WorkUnit` that the PowerPack microbenchmarks
//!   and the application models are built from.

pub(crate) mod hierarchy;
pub mod pattern;
pub(crate) mod work;

pub use hierarchy::MemHierarchy;
pub use pattern::{streaming_work, AccessPattern};
pub use work::WorkUnit;
