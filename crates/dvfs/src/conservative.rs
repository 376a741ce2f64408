//! The kernel `conservative` governor — a beyond-the-paper extension.
//!
//! Linux's `conservative` policy differs from both daemons the paper era
//! offered: it moves *one ladder step at a time in both directions*
//! (cpuspeed jumps to max on load; ondemand picks a proportional target).
//! Included for the governor-design ablations: its gentle ascent trades
//! performance for stability on bursty MPI phases.

use cluster_sim::{Node, ProcStat, ProcStatSnapshot};
use power_model::OpIndex;
use sim_core::{SimDuration, SimTime};

use crate::governor::Governor;

/// Tunables for [`ConservativeGovernor`].
#[derive(Debug, Clone)]
pub(crate) struct ConservativeConfig {
    /// Sampling interval.
    pub(crate) interval: SimDuration,
    /// Utilization at or above which the governor steps up one point.
    pub(crate) up_threshold: f64,
    /// Utilization at or below which it steps down one point.
    pub(crate) down_threshold: f64,
}

impl Default for ConservativeConfig {
    fn default() -> Self {
        ConservativeConfig {
            interval: SimDuration::from_millis(200),
            up_threshold: 0.80,
            down_threshold: 0.40,
        }
    }
}

/// One node's `conservative` policy state.
#[derive(Debug)]
pub struct ConservativeGovernor {
    config: ConservativeConfig,
    prev: Option<ProcStatSnapshot>,
}

impl ConservativeGovernor {
    /// A governor with custom tunables.
    pub(crate) fn new(config: ConservativeConfig) -> Self {
        assert!(config.up_threshold > config.down_threshold);
        assert!(!config.interval.is_zero());
        ConservativeGovernor { config, prev: None }
    }

    /// Kernel-default tunables.
    pub fn stock() -> Self {
        ConservativeGovernor::new(ConservativeConfig::default())
    }
}

impl Governor for ConservativeGovernor {
    fn name(&self) -> &'static str {
        "conservative"
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
        let decision = self.prev.and_then(|prev| {
            let util = ProcStat::utilization(prev, curr);
            let ladder = &node.config().ladder;
            let cur = node.op_index();
            if util >= self.config.up_threshold && cur != ladder.highest() {
                Some(ladder.step_up(cur))
            } else if util <= self.config.down_threshold && cur != ladder.lowest() {
                Some(ladder.step_down(cur))
            } else {
                None
            }
        });
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
    fn steps_up_one_at_a_time() {
        let mut n = node();
        n.complete_transition(SimTime::ZERO, 0);
        let mut g = ConservativeGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        // Unlike cpuspeed's jump-to-max, one rung only.
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), Some(1));
    }

    #[test]
    fn steps_down_one_at_a_time() {
        let mut n = node();
        let mut g = ConservativeGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Halt);
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), Some(3));
    }

    #[test]
    fn holds_in_the_middle_band() {
        let mut n = node();
        let mut g = ConservativeGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        n.set_activity(
            SimTime::ZERO + SimDuration::from_millis(600),
            CpuActivity::Halt,
        );
        // 60% utilization over the 1 s window: between thresholds.
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), None);
    }

    #[test]
    fn clamps_at_ladder_ends() {
        let mut n = node();
        let mut g = ConservativeGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        assert_eq!(g.on_tick(SimTime::from_secs(1), &n), None, "already at max");
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_rejected() {
        let _ = ConservativeGovernor::new(ConservativeConfig {
            up_threshold: 0.2,
            down_threshold: 0.8,
            ..ConservativeConfig::default()
        });
    }
}
