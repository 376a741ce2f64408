//! Memory-hierarchy parameters.

use sim_core::SimDuration;

/// Cache/memory parameters of one node.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    /// L1 data cache capacity, bytes.
    pub(crate) l1_bytes: u64,
    /// L2 unified cache capacity, bytes (on-die: access time scales with
    /// core frequency).
    pub(crate) l2_bytes: u64,
    /// Cache line size, bytes.
    pub line_bytes: u64,
    /// L2 hit latency in core cycles.
    pub l2_latency_cycles: f64,
    /// DRAM load-to-use latency (frequency-independent). The paper quotes
    /// 110 ns for its platform.
    pub(crate) dram_latency: SimDuration,
    /// Fraction of DRAM latency hidden by memory-level parallelism and
    /// hardware prefetch, in `[0, 1)`. Applied as `t_eff = t·(1-overlap)`.
    pub(crate) mlp_overlap: f64,
}

impl MemHierarchy {
    /// The Pentium M 1.4 GHz / Dell Inspiron 8600 memory system used by the
    /// paper: 32 KB L1D, 1 MB on-die L2, 64 B lines, 110 ns DDR latency.
    pub fn pentium_m_1400() -> Self {
        MemHierarchy {
            l1_bytes: 32 * 1024,
            l2_bytes: 1024 * 1024,
            line_bytes: 64,
            l2_latency_cycles: 10.0,
            dram_latency: SimDuration::from_nanos(110),
            mlp_overlap: 0.0,
        }
    }

    /// Effective DRAM stall time per miss after overlap.
    #[inline]
    pub(crate) fn effective_dram_latency(&self) -> SimDuration {
        self.dram_latency.mul_f64(1.0 - self.mlp_overlap)
    }

    /// Panic on nonsensical parameters; used by the cluster builder.
    pub fn validate(&self) {
        assert!(self.l1_bytes > 0 && self.l2_bytes >= self.l1_bytes);
        assert!(self.line_bytes > 0 && self.line_bytes <= self.l1_bytes);
        assert!(self.l2_latency_cycles >= 0.0 && self.l2_latency_cycles.is_finite());
        assert!((0.0..1.0).contains(&self.mlp_overlap));
    }
}

impl Default for MemHierarchy {
    fn default() -> Self {
        MemHierarchy::pentium_m_1400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_matches_paper_platform() {
        let h = MemHierarchy::pentium_m_1400();
        assert_eq!(h.l1_bytes, 32 * 1024);
        assert_eq!(h.l2_bytes, 1024 * 1024);
        assert_eq!(h.dram_latency, SimDuration::from_nanos(110));
        h.validate();
    }

    #[test]
    fn overlap_scales_effective_latency() {
        let mut h = MemHierarchy::pentium_m_1400();
        h.mlp_overlap = 0.5;
        assert_eq!(h.effective_dram_latency(), SimDuration::from_nanos(55));
    }

    #[test]
    #[should_panic]
    fn validate_rejects_l2_smaller_than_l1() {
        let mut h = MemHierarchy::pentium_m_1400();
        h.l2_bytes = 1024;
        h.validate();
    }
}
