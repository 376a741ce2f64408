//! Compute-segment work units and their timing at a given frequency.

use sim_core::{cycles_to_duration, SimDuration};

use crate::hierarchy::MemHierarchy;

/// A compute segment, decomposed the way DVFS sees it.
///
/// * `cpu_cycles` — core cycles of instruction execution including L1 hits;
///   time contribution scales as `1/f`.
/// * `l2_accesses` — references served by the on-die L2; each costs
///   `l2_latency_cycles`, also scaling as `1/f`.
/// * `dram_accesses` — references served by DRAM; each costs the effective
///   DRAM latency regardless of core frequency. The CPU is in the
///   `MemStall` activity state for that time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkUnit {
    /// Core execution cycles (frequency-scaled).
    pub cpu_cycles: f64,
    /// L2 cache references (frequency-scaled, on-die).
    pub l2_accesses: f64,
    /// DRAM references (frequency-invariant stall time).
    pub dram_accesses: f64,
}

/// How a segment's duration divides between CPU-active time and
/// memory-stall time at a particular frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSplit {
    /// Time with the CPU in the `Active` state.
    pub(crate) active: SimDuration,
    /// Time with the CPU in the `MemStall` state.
    pub stall: SimDuration,
}

impl TimeSplit {
    /// Total segment duration.
    pub(crate) fn total(&self) -> SimDuration {
        self.active + self.stall
    }
}

impl WorkUnit {
    /// A segment of pure core execution (registers/L1 only).
    pub fn pure_cpu(cycles: f64) -> Self {
        WorkUnit {
            cpu_cycles: cycles,
            ..WorkUnit::default()
        }
    }

    /// No work at all.
    pub const ZERO: WorkUnit = WorkUnit {
        cpu_cycles: 0.0,
        l2_accesses: 0.0,
        dram_accesses: 0.0,
    };

    /// True when the segment contains no work.
    pub fn is_zero(&self) -> bool {
        use sim_core::float::exact_eq;
        exact_eq(self.cpu_cycles, 0.0)
            && exact_eq(self.l2_accesses, 0.0)
            && exact_eq(self.dram_accesses, 0.0)
    }

    /// Frequency-scaled cycles: core execution plus on-die L2 service.
    #[inline]
    pub fn scaled_cycles(&self, hier: &MemHierarchy) -> f64 {
        self.cpu_cycles + self.l2_accesses * hier.l2_latency_cycles
    }

    /// Duration at core frequency `freq_hz`, split into active and stall
    /// portions.
    #[inline(always)]
    pub fn split(&self, hier: &MemHierarchy, freq_hz: f64) -> TimeSplit {
        let active = cycles_to_duration(self.scaled_cycles(hier), freq_hz);
        let stall = hier.effective_dram_latency().mul_f64(self.dram_accesses);
        TimeSplit { active, stall }
    }

    /// Total duration at `freq_hz`.
    pub fn duration(&self, hier: &MemHierarchy, freq_hz: f64) -> SimDuration {
        self.split(hier, freq_hz).total()
    }

    /// Fraction of the segment's duration that scales with frequency,
    /// evaluated at `freq_hz` (the paper's "CPU efficiency" inverse:
    /// low values mean DVS opportunity).
    pub fn scaled_fraction(&self, hier: &MemHierarchy, freq_hz: f64) -> f64 {
        let s = self.split(hier, freq_hz);
        let total = s.total();
        if total.is_zero() {
            0.0
        } else {
            s.active.ratio(total)
        }
    }

    /// Element-wise sum of two segments.
    pub fn add(&self, other: &WorkUnit) -> WorkUnit {
        WorkUnit {
            cpu_cycles: self.cpu_cycles + other.cpu_cycles,
            l2_accesses: self.l2_accesses + other.l2_accesses,
            dram_accesses: self.dram_accesses + other.dram_accesses,
        }
    }

    /// Scale all components by a non-negative factor (workload jitter,
    /// problem-size scaling).
    pub fn scale(&self, factor: f64) -> WorkUnit {
        assert!(factor >= 0.0 && factor.is_finite(), "bad scale {factor}");
        WorkUnit {
            cpu_cycles: self.cpu_cycles * factor,
            l2_accesses: self.l2_accesses * factor,
            dram_accesses: self.dram_accesses * factor,
        }
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
    fn pure_cpu_scales_inversely_with_frequency() {
        let w = WorkUnit::pure_cpu(1.4e9); // one second at 1.4 GHz
        let d_fast = w.duration(&hier(), 1.4e9);
        let d_slow = w.duration(&hier(), 0.6e9);
        assert!((d_fast.as_secs_f64() - 1.0).abs() < 1e-9);
        // Paper Fig. 7: at 600 MHz, the CPU-bound delay is +134% = 1.4/0.6.
        assert!((d_slow.as_secs_f64() / d_fast.as_secs_f64() - 1.4 / 0.6).abs() < 1e-9);
        assert_eq!(w.scaled_fraction(&hier(), 1.4e9), 1.0);
    }

    #[test]
    fn dram_time_is_frequency_invariant() {
        let w = WorkUnit {
            dram_accesses: 1e6,
            ..WorkUnit::default()
        };
        let d_fast = w.duration(&hier(), 1.4e9);
        let d_slow = w.duration(&hier(), 0.6e9);
        assert_eq!(d_fast, d_slow);
        assert!((d_fast.as_secs_f64() - 1e6 * 110e-9).abs() < 1e-9);
        assert_eq!(w.scaled_fraction(&hier(), 1.4e9), 0.0);
    }

    #[test]
    fn l2_counts_as_scaled_cycles() {
        let w = WorkUnit {
            l2_accesses: 100.0,
            ..WorkUnit::default()
        };
        assert_eq!(w.scaled_cycles(&hier()), 1000.0);
        let s = w.split(&hier(), 1e9);
        assert_eq!(s.stall, SimDuration::ZERO);
        assert!((s.active.as_secs_f64() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn mixed_segment_splits_correctly() {
        let w = WorkUnit {
            cpu_cycles: 1e9, // 1s at 1 GHz
            l2_accesses: 0.0,
            dram_accesses: 1e7, // 1.1s of stall
        };
        let s = w.split(&hier(), 1e9);
        assert!((s.active.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((s.stall.as_secs_f64() - 1.1).abs() < 1e-9);
        let frac = w.scaled_fraction(&hier(), 1e9);
        assert!((frac - 1.0 / 2.1).abs() < 1e-6);
    }

    #[test]
    fn add_and_scale_compose() {
        let a = WorkUnit {
            cpu_cycles: 10.0,
            l2_accesses: 4.0,
            dram_accesses: 2.0,
        };
        let b = a.add(&a);
        assert_eq!(b.cpu_cycles, 20.0);
        let half = b.scale(0.5);
        assert_eq!(half, a);
        assert!(WorkUnit::ZERO.is_zero());
    }

    proptest! {
        /// Duration is monotonically nonincreasing in frequency.
        #[test]
        fn prop_duration_monotone_in_frequency(
            cpu in 0.0f64..1e9, l2 in 0.0f64..1e7, dram in 0.0f64..1e6
        ) {
            let w = WorkUnit { cpu_cycles: cpu, l2_accesses: l2, dram_accesses: dram };
            let h = hier();
            let freqs = [0.6e9, 0.8e9, 1.0e9, 1.2e9, 1.4e9];
            for pair in freqs.windows(2) {
                prop_assert!(w.duration(&h, pair[0]) >= w.duration(&h, pair[1]));
            }
        }

        /// split().total() always equals duration().
        #[test]
        fn prop_split_consistent(
            cpu in 0.0f64..1e9, dram in 0.0f64..1e6, f in 0.5e9f64..2.0e9
        ) {
            let w = WorkUnit { cpu_cycles: cpu, l2_accesses: 0.0, dram_accesses: dram };
            let h = hier();
            prop_assert_eq!(w.split(&h, f).total(), w.duration(&h, f));
        }

        /// scaled_fraction stays in [0,1].
        #[test]
        fn prop_fraction_bounded(
            cpu in 0.0f64..1e9, l2 in 0.0f64..1e6, dram in 0.0f64..1e6
        ) {
            let w = WorkUnit { cpu_cycles: cpu, l2_accesses: l2, dram_accesses: dram };
            let f = w.scaled_fraction(&hier(), 1.0e9);
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
