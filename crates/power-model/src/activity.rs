//! CPU activity states and their effective switching-activity factors.
//!
//! The paper's central observation is that during application-dependent
//! slack — memory stalls, blocking MPI communication, load imbalance — the
//! CPU does less useful switching, so running it slower barely hurts
//! time-to-solution while saving substantial energy. We model this with a
//! small set of activity states that scale the CMOS dynamic-power term.

/// What the CPU is doing during a simulation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuActivity {
    /// Retiring instructions at full tilt (register/L1/L2-resident compute).
    Active,
    /// Stalled waiting on DRAM; the clock runs but few units switch.
    MemStall,
    /// Spinning in the MPI progress engine (MPICH busy-wait polling).
    BusyWait,
    /// Halted / in the idle loop (blocking wait, true idle).
    Halt,
}

impl CpuActivity {
    /// All states, useful for exhaustive tests and reports.
    pub(crate) const ALL: [CpuActivity; 4] = [
        CpuActivity::Active,
        CpuActivity::MemStall,
        CpuActivity::BusyWait,
        CpuActivity::Halt,
    ];

    /// Does the Linux `/proc/stat` accounting consider this state "busy"?
    ///
    /// Crucially, busy-wait polling *is* busy: this is why the paper finds
    /// the `cpuspeed` daemon nearly useless for MPI codes — the utilization
    /// metric it reads cannot see communication slack.
    pub fn counts_as_busy(self) -> bool {
        !matches!(self, CpuActivity::Halt)
    }
}

/// Effective switching-activity factors per state, as a fraction of the
/// fully-active dynamic power at the same operating point.
#[derive(Debug, Clone, Copy)]
pub struct ActivityFactors {
    /// Fully active execution. By definition 1.0 in the default model.
    pub(crate) active: f64,
    /// Stalled on DRAM: out-of-order window drained, most units quiet.
    pub(crate) mem_stall: f64,
    /// Busy-wait polling: a tight load/compare loop, caches hot.
    pub(crate) busy_wait: f64,
    /// Halted (`hlt`/C-state): only clock distribution and leakage-adjacent
    /// dynamic power remain.
    pub(crate) halt: f64,
    /// Waiting on on-die L2 hits: time scales with frequency (the cache
    /// runs at core clock) but most execution units idle between fills.
    /// Not a [`CpuActivity`] state — compute segments blend it with
    /// `active` in proportion to their L2-service cycles.
    pub(crate) l2_stall: f64,
}

impl ActivityFactors {
    /// Calibrated defaults for the Pentium-M node model, fitted to the
    /// paper's microbenchmark crescendos (see `pwrperf::calibration`):
    ///
    /// * memory stalls keep the out-of-order engine and prefetchers
    ///   churning, so they draw over half of full-tilt power (the paper's
    ///   Fig. 6 energy drop pins this);
    /// * the MPI busy-wait loop *looks* 100% busy to `/proc/stat` but is a
    ///   tight syscall-poll that keeps most execution units quiet — its
    ///   low draw is what limits the paper's communication-benchmark
    ///   energy savings (Fig. 8) to ~30% rather than the ~45% a
    ///   fully-switching core would give.
    pub(crate) fn pentium_m_default() -> Self {
        ActivityFactors {
            active: 1.0,
            mem_stall: 0.55,
            busy_wait: 0.30,
            halt: 0.08,
            l2_stall: 0.60,
        }
    }

    /// Look up the factor for a state.
    #[inline]
    pub(crate) fn factor(&self, activity: CpuActivity) -> f64 {
        match activity {
            CpuActivity::Active => self.active,
            CpuActivity::MemStall => self.mem_stall,
            CpuActivity::BusyWait => self.busy_wait,
            CpuActivity::Halt => self.halt,
        }
    }

    /// Panic if any factor is outside `[0, 1.5]` or non-finite. (Factors a
    /// little above 1.0 are legal: some codes switch more capacitance than
    /// the calibration workload.)
    pub(crate) fn validate(&self) {
        for a in CpuActivity::ALL {
            let f = self.factor(a);
            assert!(
                f.is_finite() && (0.0..=1.5).contains(&f),
                "activity factor for {a:?} out of range: {f}"
            );
        }
        assert!(
            self.l2_stall.is_finite() && (0.0..=1.5).contains(&self.l2_stall),
            "l2_stall factor out of range: {}",
            self.l2_stall
        );
    }

    /// The largest factor any state (or compute blend) can reach — the
    /// worst-case dynamic multiplier a power-cap controller must assume
    /// when it budgets a node without knowing what the node will run.
    /// Blends are convex combinations of `active` and `l2_stall`, so the
    /// maximum over the five fields bounds every reachable factor.
    pub(crate) fn max_factor(&self) -> f64 {
        self.active
            .max(self.mem_stall)
            .max(self.busy_wait)
            .max(self.halt)
            .max(self.l2_stall)
    }

    /// Effective dynamic-power factor of a compute segment that spends
    /// `cpu_cycles` executing and `l2_cycles` waiting on the on-die L2
    /// (both frequency-scaled): the cycle-weighted blend of `active` and
    /// `l2_stall`. Pure-compute segments return `active`.
    pub fn compute_blend(&self, cpu_cycles: f64, l2_cycles: f64) -> f64 {
        let total = cpu_cycles + l2_cycles;
        if total <= 0.0 {
            self.active
        } else {
            (cpu_cycles * self.active + l2_cycles * self.l2_stall) / total
        }
    }
}

impl Default for ActivityFactors {
    fn default() -> Self {
        ActivityFactors::pentium_m_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_factors_are_ordered_sensibly() {
        let f = ActivityFactors::default();
        f.validate();
        assert!(f.active >= f.mem_stall);
        assert!(f.mem_stall >= f.busy_wait);
        assert!(f.busy_wait > f.halt);
        assert!(f.halt > 0.0);
    }

    #[test]
    fn busy_accounting_matches_proc_stat_semantics() {
        assert!(CpuActivity::Active.counts_as_busy());
        assert!(CpuActivity::MemStall.counts_as_busy());
        assert!(CpuActivity::BusyWait.counts_as_busy());
        assert!(!CpuActivity::Halt.counts_as_busy());
    }

    #[test]
    fn factor_lookup_is_exhaustive() {
        let f = ActivityFactors {
            active: 1.0,
            mem_stall: 0.5,
            busy_wait: 0.7,
            halt: 0.1,
            l2_stall: 0.6,
        };
        assert_eq!(f.factor(CpuActivity::Active), 1.0);
        assert_eq!(f.factor(CpuActivity::MemStall), 0.5);
        assert_eq!(f.factor(CpuActivity::BusyWait), 0.7);
        assert_eq!(f.factor(CpuActivity::Halt), 0.1);
    }

    #[test]
    fn compute_blend_interpolates() {
        let f = ActivityFactors::default();
        assert_eq!(f.compute_blend(100.0, 0.0), f.active);
        assert_eq!(f.compute_blend(0.0, 100.0), f.l2_stall);
        assert_eq!(f.compute_blend(0.0, 0.0), f.active);
        let half = f.compute_blend(50.0, 50.0);
        assert!((half - (f.active + f.l2_stall) / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "l2_stall factor out of range")]
    fn validate_rejects_bad_l2_stall() {
        ActivityFactors {
            l2_stall: 2.0,
            ..ActivityFactors::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_rejects_negative() {
        ActivityFactors {
            active: -0.1,
            ..ActivityFactors::default()
        }
        .validate();
    }
}
