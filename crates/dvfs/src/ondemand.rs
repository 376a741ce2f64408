//! An `ondemand`-style governor — a beyond-the-paper extension.
//!
//! The kernel governor that superseded `cpuspeed` after 2005 picks, on each
//! tick, the *lowest* frequency that would keep utilization under a target
//! rather than stepping one level at a time: `f_needed = f_cur · util /
//! target`, rounded up to the next ladder point; above the up-threshold it
//! still jumps to maximum. Used in ablation benches to ask whether the
//! paper's cpuspeed conclusion is an artifact of that daemon or inherent to
//! utilization-driven control (it is inherent: busy-wait still reads 100%).

use cluster_sim::{Node, ProcStat, ProcStatSnapshot};
use power_model::OpIndex;
use sim_core::{SimDuration, SimTime};

use crate::governor::Governor;

/// Tunables for [`OnDemandGovernor`].
#[derive(Debug, Clone)]
pub(crate) struct OnDemandConfig {
    /// Sampling interval (the kernel default is tens of milliseconds; we
    /// default to 100 ms).
    pub(crate) interval: SimDuration,
    /// Utilization at or above which the governor jumps to maximum.
    pub(crate) up_threshold: f64,
    /// Target utilization used to size the downward pick.
    pub(crate) target_util: f64,
}

impl Default for OnDemandConfig {
    fn default() -> Self {
        OnDemandConfig {
            interval: SimDuration::from_millis(100),
            up_threshold: 0.80,
            target_util: 0.70,
        }
    }
}

/// The ondemand policy state for one node.
#[derive(Debug)]
pub struct OnDemandGovernor {
    config: OnDemandConfig,
    prev: Option<ProcStatSnapshot>,
}

impl OnDemandGovernor {
    /// A governor with custom tunables.
    pub(crate) fn new(config: OnDemandConfig) -> Self {
        assert!(config.up_threshold > 0.0 && config.up_threshold <= 1.0);
        assert!(config.target_util > 0.0 && config.target_util <= 1.0);
        assert!(!config.interval.is_zero());
        OnDemandGovernor { config, prev: None }
    }

    /// Kernel-default tunables.
    pub fn stock() -> Self {
        OnDemandGovernor::new(OnDemandConfig::default())
    }
}

impl Governor for OnDemandGovernor {
    fn name(&self) -> &'static str {
        "ondemand"
    }

    fn initial(&mut self, node: &Node) -> Option<OpIndex> {
        self.prev = Some(node.proc_stat(SimTime::ZERO));
        None
    }

    fn poll_interval(&self) -> Option<SimDuration> {
        Some(self.config.interval)
    }

    fn on_tick(&mut self, now: SimTime, node: &Node) -> Option<OpIndex> {
        let curr = node.proc_stat(now);
        let decision = match self.prev {
            None => None,
            Some(prev) => {
                let util = ProcStat::utilization(prev, curr);
                let ladder = &node.config().ladder;
                let cur = node.op_index();
                if util >= self.config.up_threshold {
                    (cur != ladder.highest()).then(|| ladder.highest())
                } else {
                    // Lowest point that keeps projected utilization at or
                    // under target: f_needed = f_cur * util / target.
                    let f_needed = node.freq_hz() * util / self.config.target_util;
                    let mut pick = ladder.highest();
                    for (i, p) in ladder.points().iter().enumerate() {
                        if p.freq_hz >= f_needed {
                            pick = i;
                            break;
                        }
                    }
                    (pick != cur).then_some(pick)
                }
            }
        };
        self.prev = Some(curr);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::NodeConfig;
    use power_model::CpuActivity;

    fn node() -> Node {
        Node::new(NodeConfig::inspiron_8600())
    }

    #[test]
    fn idle_cpu_drops_straight_to_bottom() {
        let mut n = node();
        let mut g = OnDemandGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Halt);
        // Unlike cpuspeed's one-step descent, ondemand goes directly low.
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), Some(0));
    }

    #[test]
    fn busy_cpu_jumps_to_top() {
        let mut n = node();
        n.complete_transition(SimTime::ZERO, 0);
        let mut g = OnDemandGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), Some(4));
    }

    #[test]
    fn busy_wait_still_defeats_it() {
        // The ablation's answer: utilization-driven control cannot see
        // busy-wait slack regardless of its picking rule.
        let mut n = node();
        let mut g = OnDemandGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::BusyWait);
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), None);
        assert_eq!(n.op_index(), 4);
    }

    #[test]
    fn partial_load_picks_proportional_point() {
        // 35% utilization at 1.4 GHz needs ~0.7 GHz at 70% target: pick
        // the 800 MHz point (first at or above 700 MHz).
        let mut n = node();
        let mut g = OnDemandGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        n.set_activity(
            SimTime::ZERO + SimDuration::from_millis(350),
            CpuActivity::Halt,
        );
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), Some(1));
    }

    #[test]
    fn stable_point_returns_none() {
        let mut n = node();
        n.complete_transition(SimTime::ZERO, 4);
        let mut g = OnDemandGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), None);
    }
}
