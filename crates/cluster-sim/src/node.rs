//! One cluster node: CPU, memory system, NIC, battery, and accounting.

use mem_model::MemHierarchy;
use power_model::{
    CpuActivity, DvfsLadder, EnergyMeter, EnergyReport, MeasurementError, NodePowerParams, OpIndex,
    OperatingPoint, SmartBattery,
};
use sim_core::{SimDuration, SimTime};

use crate::proc_stat::{ProcStat, ProcStatSnapshot};

/// Hardware description of a node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Electrical model.
    pub power: NodePowerParams,
    /// Memory hierarchy.
    pub mem: MemHierarchy,
    /// DVFS operating points.
    pub ladder: DvfsLadder,
    /// Battery capacity, mWh.
    pub battery_mwh: f64,
}

impl NodeConfig {
    /// The paper's node: Dell Inspiron 8600, Pentium M 1.4 GHz.
    pub fn inspiron_8600() -> Self {
        NodeConfig {
            power: NodePowerParams::inspiron_8600(),
            mem: MemHierarchy::pentium_m_1400(),
            ladder: DvfsLadder::pentium_m_1400(),
            battery_mwh: 72_000.0,
        }
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig::inspiron_8600()
    }
}

/// Live state of one node.
#[derive(Debug)]
pub struct Node {
    config: NodeConfig,
    meter: EnergyMeter,
    battery: SmartBattery,
    proc_stat: ProcStat,
    op_index: OpIndex,
    /// While `Some`, a DVFS transition is in flight and completes at the
    /// stored time; the CPU cannot execute until then.
    transition_until: Option<SimTime>,
    /// Cumulative residency per ladder index (Linux cpufreq's
    /// `time_in_state`), current state open since `residency_since`.
    residency: Vec<SimDuration>,
    residency_since: SimTime,
}

impl Node {
    /// A node starting halted at the *highest* operating point (how Linux
    /// boots with the performance governor the paper starts from).
    pub fn new(config: NodeConfig) -> Self {
        config.power.validate();
        config.mem.validate();
        let top = config.ladder.highest();
        let meter = EnergyMeter::new(
            SimTime::ZERO,
            config.power.clone(),
            config.ladder.point(top),
        );
        let battery = SmartBattery::new(config.battery_mwh);
        let ladder_len = config.ladder.len();
        Node {
            meter,
            battery,
            proc_stat: ProcStat::new(SimTime::ZERO),
            op_index: top,
            transition_until: None,
            residency: vec![SimDuration::ZERO; ladder_len],
            residency_since: SimTime::ZERO,
            config,
        }
    }

    /// Hardware description.
    #[inline]
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Current operating-point index.
    pub fn op_index(&self) -> OpIndex {
        self.op_index
    }

    /// Current operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.config.ladder.point(self.op_index)
    }

    /// Core frequency right now, Hz.
    #[inline]
    pub fn freq_hz(&self) -> f64 {
        self.operating_point().freq_hz
    }

    /// Change the CPU activity state at `now`.
    #[inline]
    pub fn set_activity(&mut self, now: SimTime, activity: CpuActivity) {
        self.meter.set_activity(now, activity);
        self.proc_stat.on_activity(now, activity);
    }

    /// Enter active compute with a blended dynamic-power factor (compute
    /// segments mixing execution with frequency-scaled L2 stalls).
    /// `/proc/stat` counts this busy, like any active state.
    #[inline]
    pub fn set_active_blended(&mut self, now: SimTime, factor: f64) {
        self.meter.set_active_blended(now, factor);
        self.proc_stat.on_activity(now, CpuActivity::Active);
    }

    /// Begin a DVFS transition to `target` at `now`. Returns the latency
    /// the caller must stall execution for (zero when already there).
    /// The new frequency and the transition-energy impulse take effect at
    /// `now + latency`.
    pub fn begin_transition(&mut self, now: SimTime, target: OpIndex) -> SimDuration {
        assert!(target < self.config.ladder.len(), "op index out of range");
        if target == self.op_index {
            return SimDuration::ZERO;
        }
        let latency = self.config.ladder.transition_latency();
        self.transition_until = Some(now + latency);
        latency
    }

    /// Complete a transition begun earlier: switch the operating point at
    /// `now` (the meter charges the transition impulse).
    pub fn complete_transition(&mut self, now: SimTime, target: OpIndex) {
        assert!(target < self.config.ladder.len(), "op index out of range");
        self.account_residency(now);
        self.op_index = target;
        self.meter
            .set_operating_point(now, self.config.ladder.point(target));
        self.transition_until = None;
    }

    /// True while a frequency change is in flight.
    pub fn in_transition(&self) -> bool {
        self.transition_until.is_some()
    }

    /// Set the operating point instantly without latency or transition
    /// energy — boot-time setup before the measured run begins.
    pub fn force_operating_point(&mut self, now: SimTime, target: OpIndex) {
        assert!(target < self.config.ladder.len(), "op index out of range");
        self.account_residency(now);
        self.op_index = target;
        self.meter
            .jam_operating_point(now, self.config.ladder.point(target));
    }

    /// DRAM interface activity (for power accounting).
    #[inline]
    pub fn set_mem_active(&mut self, now: SimTime, active: bool) {
        self.meter.set_mem_active(now, active);
    }

    /// NIC activity (for power accounting).
    #[inline]
    pub fn set_nic_active(&mut self, now: SimTime, active: bool) {
        self.meter.set_nic_active(now, active);
    }

    /// Ground-truth energy by component through `now`.
    pub fn energy(&self, now: SimTime) -> EnergyReport {
        self.meter.report_at(now)
    }

    /// Instantaneous node power, watts.
    pub fn power_now(&self) -> f64 {
        self.meter.power_now()
    }

    /// Number of DVFS transitions performed.
    pub fn transitions(&self) -> u64 {
        self.meter.transitions()
    }

    /// Poll the ACPI battery at `now`: sync it to the meter's ground truth
    /// and return the quantized remaining capacity in mWh. A reading the
    /// pack rejects (the meter total going backwards would mean the
    /// battery recharged mid-run) is surfaced as a [`MeasurementError`]
    /// so the engine can degrade instead of aborting the run.
    pub fn poll_battery(&mut self, now: SimTime) -> Result<u64, MeasurementError> {
        self.battery.set_drawn(self.meter.total_at(now))?;
        Ok(self.battery.reading_mwh())
    }

    /// The battery's current quantized reading *without* syncing it to
    /// the meter — the last value a successful [`Node::poll_battery`]
    /// would have produced. Degraded-mode fallback for faulted polls.
    pub fn battery_reading(&self) -> u64 {
        self.battery.reading_mwh()
    }

    /// Read `/proc/stat` at `now`.
    pub fn proc_stat(&self, now: SimTime) -> ProcStatSnapshot {
        self.proc_stat.snapshot(now)
    }

    fn account_residency(&mut self, now: SimTime) {
        self.residency[self.op_index] += now.since(self.residency_since);
        self.residency_since = now;
    }

    /// Cumulative time spent at each ladder index through `now` — the
    /// cpufreq `time_in_state` counters, `(mhz, duration)` per point.
    pub fn time_in_state(&self, now: SimTime) -> Vec<(u32, SimDuration)> {
        self.residency
            .iter()
            .enumerate()
            .map(|(idx, &d)| {
                let mhz = self.config.ladder.point(idx).mhz();
                if idx == self.op_index {
                    (mhz, d + now.since(self.residency_since))
                } else {
                    (mhz, d)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc_stat::ProcStat;

    fn node() -> Node {
        Node::new(NodeConfig::inspiron_8600())
    }

    #[test]
    fn boots_halted_at_top_frequency() {
        let n = node();
        assert_eq!(n.op_index(), 4);
        assert!((n.freq_hz() - 1.4e9).abs() < 1.0);
        assert!(!n.in_transition());
    }

    #[test]
    fn transition_has_latency_and_charges_energy() {
        let mut n = node();
        let t0 = SimTime::from_secs(1);
        let lat = n.begin_transition(t0, 0);
        assert_eq!(lat, SimDuration::from_micros(10));
        assert!(n.in_transition());
        n.complete_transition(t0 + lat, 0);
        assert_eq!(n.op_index(), 0);
        assert!((n.freq_hz() - 0.6e9).abs() < 1.0);
        assert_eq!(n.transitions(), 1);
        assert!(!n.in_transition());
    }

    #[test]
    fn transition_to_same_point_is_free() {
        let mut n = node();
        let lat = n.begin_transition(SimTime::ZERO, 4);
        assert_eq!(lat, SimDuration::ZERO);
        assert!(!n.in_transition());
        assert_eq!(n.transitions(), 0);
    }

    #[test]
    fn battery_drains_with_metered_energy() {
        let mut n = node();
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        let full = n.poll_battery(SimTime::ZERO).unwrap();
        // ~37 W for 100 s ~ 3.7 kJ ~ 1027 mWh.
        let later = n.poll_battery(SimTime::from_secs(100)).unwrap();
        assert_eq!(n.battery_reading(), later);
        let measured_j = SmartBattery::energy_between(full, later).unwrap();
        let true_j = n.energy(SimTime::from_secs(100)).total_j();
        assert!(
            (measured_j - true_j).abs() < 2.0 * 3.6,
            "measured {measured_j} true {true_j}"
        );
    }

    #[test]
    fn proc_stat_sees_activity_changes() {
        let mut n = node();
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        let a = n.proc_stat(SimTime::ZERO);
        n.set_activity(SimTime::from_secs(3), CpuActivity::Halt);
        let b = n.proc_stat(SimTime::from_secs(4));
        let util = ProcStat::utilization(a, b);
        assert!((util - 0.75).abs() < 1e-9);
    }

    #[test]
    fn slow_point_draws_less_than_fast_under_load() {
        let mut n = node();
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        let p_fast = n.power_now();
        let lat = n.begin_transition(SimTime::from_secs(1), 0);
        n.complete_transition(SimTime::from_secs(1) + lat, 0);
        let p_slow = n.power_now();
        assert!(p_slow < p_fast);
        // Paper's core economics: the whole-node active-power span between
        // 1.4 GHz and 600 MHz is on the order of 2x.
        let ratio = p_fast / p_slow;
        assert!(ratio > 1.6 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_op_index_panics() {
        node().begin_transition(SimTime::ZERO, 9);
    }
}
