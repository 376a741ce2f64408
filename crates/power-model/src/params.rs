//! Power parameters for the CPU and the whole node.
//!
//! Calibration note: absolute wattages are chosen so that whole-node power
//! and its frequency sensitivity reproduce the paper's measured *ratios*
//! (normalized energy/delay crescendos), not any particular meter reading.
//! The constants live here; the fit against the paper's headline numbers is
//! exercised by the calibration tests in the `pwrperf` core crate.

use crate::activity::ActivityFactors;
#[cfg(test)]
use crate::activity::CpuActivity;
use crate::op_point::OperatingPoint;

/// First-order CMOS CPU power model.
///
/// `P_cpu(f, V, a) = k_dyn · factor(a) · f · V² + k_static · V`
#[derive(Debug, Clone)]
pub struct CpuPowerParams {
    /// Dynamic coefficient (W per Hz·V²); absorbs switched capacitance.
    pub(crate) k_dyn: f64,
    /// Static/leakage coefficient (W per V).
    pub(crate) k_static: f64,
    /// Per-state switching-activity factors.
    pub activity: ActivityFactors,
}

impl CpuPowerParams {
    /// Pentium M 1.4 GHz calibration: ≈21 W fully active at 1.4 GHz/1.484 V
    /// (vendor TDP ballpark) and ≈1.5 W of voltage-proportional static power
    /// at the top point.
    pub(crate) fn pentium_m_1400() -> Self {
        // k_dyn solves k * 1.4e9 * 1.484^2 = 21.0
        let k_dyn = 21.0 / (1.4e9 * 1.484 * 1.484);
        CpuPowerParams {
            k_dyn,
            k_static: 1.0, // 1.484 V -> 1.484 W leakage-like
            activity: ActivityFactors::pentium_m_default(),
        }
    }

    /// Dynamic power at `op` in activity state `a`, watts.
    #[cfg(test)]
    pub(crate) fn dynamic_power(&self, op: OperatingPoint, a: CpuActivity) -> f64 {
        self.dynamic_power_with_factor(op, self.activity.factor(a))
    }

    /// Dynamic power at `op` for an explicit switching-activity factor
    /// (used for blended compute segments, see
    /// [`ActivityFactors::compute_blend`]).
    #[inline]
    pub(crate) fn dynamic_power_with_factor(&self, op: OperatingPoint, factor: f64) -> f64 {
        self.k_dyn * factor * op.freq_hz * op.voltage * op.voltage
    }

    /// Static (leakage) power at `op`, watts.
    #[inline]
    pub(crate) fn static_power(&self, op: OperatingPoint) -> f64 {
        self.k_static * op.voltage
    }

    /// Total CPU power at `op` in state `a`, watts.
    #[cfg(test)]
    pub(crate) fn power(&self, op: OperatingPoint, a: CpuActivity) -> f64 {
        self.dynamic_power(op, a) + self.static_power(op)
    }
}

/// Whole-node power parameters (one Dell Inspiron 8600 analog).
#[derive(Debug, Clone)]
pub struct NodePowerParams {
    /// CPU model.
    pub cpu: CpuPowerParams,
    /// Constant "everything else" draw: chipset, DRAM refresh, disk idle,
    /// regulators — what remains when the CPU halts. Laptops idle around
    /// 12–18 W with the display off.
    pub base_w: f64,
    /// Extra draw while the DRAM interface is streaming (active reads /
    /// writes beyond refresh).
    pub(crate) mem_active_w: f64,
    /// Extra draw while the NIC is transmitting or receiving.
    pub(crate) nic_active_w: f64,
    /// Energy dissipated by one DVFS transition (voltage-regulator swing);
    /// small, but the paper observes dynamic control pays a real overhead.
    pub(crate) transition_energy_j: f64,
}

impl NodePowerParams {
    /// The calibrated Inspiron-8600 node used in all paper experiments.
    /// The 8 W base (display dimmed, disk spun down during runs) is fitted
    /// jointly with the activity factors to the paper's microbenchmark
    /// crescendos — large enough that slowing a CPU-bound code wastes
    /// energy (Fig. 7), small enough that memory- and communication-bound
    /// codes save 30–40% (Figs. 6 and 8).
    pub fn inspiron_8600() -> Self {
        NodePowerParams {
            cpu: CpuPowerParams::pentium_m_1400(),
            base_w: 8.0,
            mem_active_w: 1.8,
            nic_active_w: 0.9,
            transition_energy_j: 1.2e-3,
        }
    }

    /// Whole-node power with the CPU at `op` in state `a`, optionally with
    /// active memory traffic and NIC traffic, watts. The reference the
    /// `max_node_power_w` bound is tested against.
    #[cfg(test)]
    pub(crate) fn node_power(
        &self,
        op: OperatingPoint,
        a: CpuActivity,
        mem_active: bool,
        nic_active: bool,
    ) -> f64 {
        self.base_w
            + self.cpu.power(op, a)
            + if mem_active { self.mem_active_w } else { 0.0 }
            + if nic_active { self.nic_active_w } else { 0.0 }
    }

    /// Worst-case whole-node power at `op`, watts: base plus CPU dynamic
    /// power at the largest activity factor any state can reach, plus
    /// static power, plus memory and NIC draw both active. A cluster
    /// power-cap controller that budgets `max_node_power_w` per node holds
    /// its cap at every instant regardless of what the nodes execute —
    /// measured power can only come in at or under this bound.
    pub fn max_node_power_w(&self, op: OperatingPoint) -> f64 {
        self.base_w
            + self
                .cpu
                .dynamic_power_with_factor(op, self.cpu.activity.max_factor())
            + self.cpu.static_power(op)
            + self.mem_active_w
            + self.nic_active_w
    }

    /// Sanity-check every parameter; used by the cluster builder so bad
    /// calibration constants fail fast.
    pub fn validate(&self) {
        assert!(self.cpu.k_dyn > 0.0 && self.cpu.k_dyn.is_finite());
        assert!(self.cpu.k_static >= 0.0 && self.cpu.k_static.is_finite());
        self.cpu.activity.validate();
        assert!(self.base_w >= 0.0 && self.base_w.is_finite());
        assert!(self.mem_active_w >= 0.0);
        assert!(self.nic_active_w >= 0.0);
        assert!(self.transition_energy_j >= 0.0);
    }
}

impl Default for NodePowerParams {
    fn default() -> Self {
        NodePowerParams::inspiron_8600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op_point::DvfsLadder;

    fn top() -> OperatingPoint {
        DvfsLadder::pentium_m_1400().point(4)
    }

    fn bottom() -> OperatingPoint {
        DvfsLadder::pentium_m_1400().point(0)
    }

    #[test]
    fn max_node_power_bounds_every_state() {
        let node = NodePowerParams::inspiron_8600();
        for op in [bottom(), top()] {
            let cap = node.max_node_power_w(op);
            for a in CpuActivity::ALL {
                for mem in [false, true] {
                    for nic in [false, true] {
                        let p = node.node_power(op, a, mem, nic);
                        assert!(p <= cap + 1e-12, "{a:?} mem={mem} nic={nic}: {p} > {cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn active_power_at_top_matches_calibration() {
        let cpu = CpuPowerParams::pentium_m_1400();
        let p = cpu.dynamic_power(top(), CpuActivity::Active);
        assert!((p - 21.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn power_scales_as_f_v_squared() {
        let cpu = CpuPowerParams::pentium_m_1400();
        let hi = cpu.dynamic_power(top(), CpuActivity::Active);
        let lo = cpu.dynamic_power(bottom(), CpuActivity::Active);
        let expected_ratio = (0.6e9 * 0.956 * 0.956) / (1.4e9 * 1.484 * 1.484);
        assert!((lo / hi - expected_ratio).abs() < 1e-12);
        // The quoted headline: bottom point draws under a fifth the top's
        // dynamic power.
        assert!(lo / hi < 0.19);
    }

    #[test]
    fn static_power_tracks_voltage() {
        let cpu = CpuPowerParams::pentium_m_1400();
        assert!(cpu.static_power(top()) > cpu.static_power(bottom()));
        assert!((cpu.static_power(top()) - 1.484).abs() < 1e-9);
    }

    #[test]
    fn activity_ordering_carries_to_power() {
        let cpu = CpuPowerParams::pentium_m_1400();
        let p = |a| cpu.power(top(), a);
        assert!(p(CpuActivity::Active) > p(CpuActivity::MemStall));
        assert!(p(CpuActivity::MemStall) > p(CpuActivity::BusyWait));
        assert!(p(CpuActivity::BusyWait) > p(CpuActivity::Halt));
    }

    #[test]
    fn node_power_composes_components() {
        let node = NodePowerParams::inspiron_8600();
        let bare = node.node_power(top(), CpuActivity::Active, false, false);
        let with_mem = node.node_power(top(), CpuActivity::Active, true, false);
        let with_all = node.node_power(top(), CpuActivity::Active, true, true);
        assert!((with_mem - bare - node.mem_active_w).abs() < 1e-12);
        assert!((with_all - with_mem - node.nic_active_w).abs() < 1e-12);
        // Whole active node lands in the plausible laptop envelope.
        assert!(bare > 30.0 && bare < 45.0, "node power {bare}");
    }

    #[test]
    fn halted_node_is_dominated_by_base_power() {
        let node = NodePowerParams::inspiron_8600();
        let idle = node.node_power(bottom(), CpuActivity::Halt, false, false);
        assert!(idle < node.base_w + 3.0, "idle node {idle} W");
        assert!(idle > node.base_w);
    }

    #[test]
    fn default_params_validate() {
        NodePowerParams::default().validate();
    }
}
