//! Strided access-pattern classification.
//!
//! The paper's PowerPack microbenchmarks all have the same shape: walk a
//! buffer of size `S` with stride `k`, reading and writing elements. Where
//! those references land in the hierarchy determines the benchmark's DVS
//! behaviour:
//!
//! * `S` = 32 MB, `k` = 128 B → every reference misses to DRAM (Fig. 6).
//! * `S` = 256 KB, `k` = 128 B → every reference hits the on-die L2
//!   (Fig. 7), which the paper counts as CPU-intensive.
//! * register-only loops → pure core execution (Fig. 7's "even more
//!   striking" variant).
//!
//! [`AccessPattern::classify`] turns `(buffer, stride, accesses)` into a
//! [`WorkUnit`] using steady-state reasoning: a buffer larger than a cache
//! level, walked with a stride at least one line, misses that level on
//! every reference.

use crate::hierarchy::MemHierarchy;
use crate::work::WorkUnit;

/// A strided walk over a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPattern {
    /// Buffer footprint, bytes.
    pub buffer_bytes: u64,
    /// Distance between consecutive references, bytes.
    pub stride_bytes: u64,
    /// Total number of references performed.
    pub accesses: u64,
}

/// Core cycles of loop overhead charged per reference (address generation,
/// compare, branch, read-modify-write). Fitted to the paper's memory
/// microbenchmark delay at 600 MHz (+5.4%).
pub const CYCLES_PER_ACCESS: f64 = 6.0;

impl AccessPattern {
    /// One full pass over the buffer (touching every `stride`-th byte).
    pub(crate) fn one_pass(buffer_bytes: u64, stride_bytes: u64) -> Self {
        assert!(stride_bytes > 0, "stride must be positive");
        AccessPattern {
            buffer_bytes,
            stride_bytes,
            accesses: buffer_bytes / stride_bytes,
        }
    }

    /// `passes` repeated walks over the buffer.
    pub fn passes(buffer_bytes: u64, stride_bytes: u64, passes: u64) -> Self {
        let one = AccessPattern::one_pass(buffer_bytes, stride_bytes);
        AccessPattern {
            accesses: one.accesses * passes,
            ..one
        }
    }

    /// Steady-state hierarchy level this walk is served from, and the
    /// fraction of references that miss the caches.
    ///
    /// With stride >= line size, every reference touches a new line, so a
    /// buffer bigger than L2 misses on every reference. With stride < line,
    /// only `stride/line` of references start a new line; the rest hit L1.
    fn miss_fraction(&self, hier: &MemHierarchy) -> f64 {
        if self.stride_bytes >= hier.line_bytes {
            1.0
        } else {
            self.stride_bytes as f64 / hier.line_bytes as f64
        }
    }

    /// Classify the walk into a [`WorkUnit`].
    pub fn classify(&self, hier: &MemHierarchy) -> WorkUnit {
        let n = self.accesses as f64;
        let base_cycles = n * CYCLES_PER_ACCESS;
        if self.buffer_bytes <= hier.l1_bytes {
            // Everything L1-resident: pure core execution.
            WorkUnit::pure_cpu(base_cycles)
        } else if self.buffer_bytes <= hier.l2_bytes {
            // Served by the on-die L2.
            let f = self.miss_fraction(hier);
            WorkUnit {
                cpu_cycles: base_cycles,
                l2_accesses: n * f,
                dram_accesses: 0.0,
            }
        } else {
            // Served by DRAM. The L2 fill is part of the miss and fully
            // overlapped by the (frequency-invariant) DRAM latency, so it
            // adds no frequency-scaled cycles.
            let f = self.miss_fraction(hier);
            WorkUnit {
                cpu_cycles: base_cycles,
                l2_accesses: 0.0,
                dram_accesses: n * f,
            }
        }
    }
}

/// Work for streaming `bytes` of data through DRAM sequentially (stride =
/// one element, hardware-friendly): one miss per cache line plus `cycles
/// per element` of core work. Used by the application models for their
/// streaming phases.
pub fn streaming_work(
    bytes: u64,
    elem_bytes: u64,
    cycles_per_elem: f64,
    hier: &MemHierarchy,
) -> WorkUnit {
    assert!(elem_bytes > 0);
    let elems = bytes as f64 / elem_bytes as f64;
    let lines = bytes as f64 / hier.line_bytes as f64;
    // Fills overlap the DRAM misses; no frequency-scaled L2 charge.
    WorkUnit {
        cpu_cycles: elems * cycles_per_elem,
        l2_accesses: 0.0,
        dram_accesses: lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hier() -> MemHierarchy {
        MemHierarchy::pentium_m_1400()
    }

    #[test]
    fn paper_memory_microbenchmark_is_dram_bound() {
        // 32 MB buffer, 128 B stride: every reference from main memory.
        let p = AccessPattern::one_pass(32 * 1024 * 1024, 128);
        let w = p.classify(&hier());
        assert_eq!(w.dram_accesses, p.accesses as f64);
        // Memory stalls dominate execution time at top frequency.
        assert!(w.scaled_fraction(&hier(), 1.4e9) < 0.35);
    }

    #[test]
    fn paper_cpu_microbenchmark_is_l2_bound() {
        // 256 KB buffer, 128 B stride: L2 hits, zero DRAM.
        let p = AccessPattern::one_pass(256 * 1024, 128);
        let w = p.classify(&hier());
        assert_eq!(w.dram_accesses, 0.0);
        assert_eq!(w.l2_accesses, p.accesses as f64);
        assert_eq!(w.scaled_fraction(&hier(), 1.4e9), 1.0);
    }

    #[test]
    fn l1_resident_walk_is_pure_cpu() {
        let p = AccessPattern::one_pass(16 * 1024, 64);
        let w = p.classify(&hier());
        assert_eq!(w.l2_accesses, 0.0);
        assert_eq!(w.dram_accesses, 0.0);
        assert!(w.cpu_cycles > 0.0);
    }

    #[test]
    fn sub_line_stride_hits_mostly_l1() {
        // 4 KB message walked with 64 B stride in a huge buffer would miss
        // every line; with a 16 B stride only a quarter of refs miss.
        let p = AccessPattern::one_pass(32 * 1024 * 1024, 16);
        let w = p.classify(&hier());
        assert!((w.dram_accesses - p.accesses as f64 * 0.25).abs() < 1.0);
    }

    #[test]
    fn passes_multiply_accesses() {
        let p = AccessPattern::passes(1024 * 1024 * 8, 128, 10);
        assert_eq!(p.accesses, (8 * 1024 * 1024 / 128) * 10);
    }

    #[test]
    fn streaming_work_counts_lines() {
        let h = hier();
        let w = streaming_work(64 * 1024 * 1024, 8, 2.0, &h);
        assert!((w.dram_accesses - (64.0 * 1024.0 * 1024.0 / 64.0)).abs() < 1.0);
        assert!((w.cpu_cycles - (64.0 * 1024.0 * 1024.0 / 8.0) * 2.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = AccessPattern::one_pass(1024, 0);
    }

    proptest! {
        /// Larger buffers never produce less DRAM traffic per access.
        #[test]
        fn prop_dram_monotone_in_footprint(
            small_kb in 1u64..64, big_mb in 2u64..64, stride in 64u64..512
        ) {
            let h = hier();
            let small = AccessPattern { buffer_bytes: small_kb * 1024, stride_bytes: stride, accesses: 1000 };
            let big = AccessPattern { buffer_bytes: big_mb * 1024 * 1024, stride_bytes: stride, accesses: 1000 };
            prop_assert!(big.classify(&h).dram_accesses >= small.classify(&h).dram_accesses);
        }

        /// Classification never produces negative or non-finite counts.
        #[test]
        fn prop_classification_sane(
            buf in 1u64..(256*1024*1024), stride in 1u64..4096, acc in 0u64..1_000_000
        ) {
            let w = AccessPattern { buffer_bytes: buf, stride_bytes: stride, accesses: acc }.classify(&hier());
            prop_assert!(w.cpu_cycles >= 0.0 && w.cpu_cycles.is_finite());
            prop_assert!(w.l2_accesses >= 0.0 && w.l2_accesses.is_finite());
            prop_assert!(w.dram_accesses >= 0.0 && w.dram_accesses.is_finite());
            prop_assert!(w.dram_accesses <= acc as f64 + 1e-9);
        }
    }
}
