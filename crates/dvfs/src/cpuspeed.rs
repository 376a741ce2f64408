//! A faithful model of the Fedora `cpuspeed` userspace daemon.
//!
//! The daemon the paper evaluates (Fedora Core 2, kernel 2.6 CPUFreq
//! userspace interface) works like this: every polling interval it diffs
//! `/proc/stat`, computes CPU utilization, and
//!
//! * if utilization exceeds the *up* threshold → jump straight to the
//!   maximum frequency (latency matters for interactive loads);
//! * if utilization falls below the *down* threshold → step down one
//!   operating point (cautious descent);
//! * otherwise → stay put.
//!
//! Because busy-wait MPI polling and memory stalls both count as "busy" in
//! `/proc/stat`, this policy rides at the top frequency through exactly the
//! slack the paper wants to exploit — reproducing its Figure 3 result that
//! cpuspeed ≈ static 1.4 GHz for FT.

use cluster_sim::{Node, ProcStat, ProcStatSnapshot};
use power_model::OpIndex;
use sim_core::{SimDuration, SimTime};

use crate::governor::Governor;

/// Tunables of the daemon.
#[derive(Debug, Clone)]
pub(crate) struct CpuspeedConfig {
    /// Polling interval (daemon default: 1 s).
    pub(crate) interval: SimDuration,
    /// Utilization at or above which the daemon jumps to maximum.
    pub(crate) up_threshold: f64,
    /// Utilization at or below which the daemon steps down one point.
    pub(crate) down_threshold: f64,
}

impl Default for CpuspeedConfig {
    fn default() -> Self {
        CpuspeedConfig {
            interval: SimDuration::from_secs(1),
            up_threshold: 0.90,
            down_threshold: 0.75,
        }
    }
}

/// The daemon state for one node.
#[derive(Debug)]
pub struct CpuspeedGovernor {
    config: CpuspeedConfig,
    prev: Option<ProcStatSnapshot>,
}

impl CpuspeedGovernor {
    /// A daemon with custom tunables.
    pub(crate) fn new(config: CpuspeedConfig) -> Self {
        assert!(config.up_threshold >= config.down_threshold);
        assert!(!config.interval.is_zero());
        CpuspeedGovernor { config, prev: None }
    }

    /// The stock Fedora configuration the paper ran.
    pub fn stock() -> Self {
        CpuspeedGovernor::new(CpuspeedConfig::default())
    }
}

impl Governor for CpuspeedGovernor {
    fn name(&self) -> &'static str {
        "cpuspeed"
    }

    fn initial(&mut self, node: &Node) -> Option<OpIndex> {
        // The daemon starts wherever the kernel left the CPU; it only acts
        // on observed utilization.
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
                if util >= self.config.up_threshold && cur != ladder.highest() {
                    Some(ladder.highest())
                } else if util <= self.config.down_threshold && cur != ladder.lowest() {
                    Some(ladder.step_down(cur))
                } else {
                    None
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

    fn tick_after(g: &mut CpuspeedGovernor, node: &Node, now: SimTime) -> Option<OpIndex> {
        g.on_tick(now, node)
    }

    #[test]
    fn high_utilization_jumps_to_max() {
        let mut n = node();
        let mut g = CpuspeedGovernor::stock();
        g.initial(&n);
        // Start at a low point with a fully busy CPU.
        n.complete_transition(SimTime::ZERO, 0);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        let d = tick_after(&mut g, &n, SimTime::from_secs(1));
        assert_eq!(d, Some(4), "busy CPU should jump straight to 1.4 GHz");
    }

    #[test]
    fn idle_cpu_steps_down_one_at_a_time() {
        let mut n = node();
        let mut g = CpuspeedGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Halt);
        assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(1)), Some(3));
        n.complete_transition(SimTime::from_secs(1), 3);
        assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(2)), Some(2));
        n.complete_transition(SimTime::from_secs(2), 2);
        assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(3)), Some(1));
    }

    #[test]
    fn busy_wait_is_invisible_slack() {
        // The paper's point: a rank spinning in MPI_Recv looks 100% busy,
        // so cpuspeed never steps down.
        let mut n = node();
        let mut g = CpuspeedGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::BusyWait);
        for s in 1..=5 {
            assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(s)), None);
        }
        assert_eq!(n.op_index(), 4);
    }

    #[test]
    fn already_at_max_stays_put_when_busy() {
        let mut n = node();
        let mut g = CpuspeedGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(1)), None);
    }

    #[test]
    fn already_at_min_stays_put_when_idle() {
        let mut n = node();
        let mut g = CpuspeedGovernor::stock();
        g.initial(&n);
        n.complete_transition(SimTime::ZERO, 0);
        n.set_activity(SimTime::ZERO, CpuActivity::Halt);
        assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(1)), None);
    }

    #[test]
    fn intermediate_utilization_holds() {
        // 80% busy sits between the thresholds: no change.
        let mut n = node();
        let mut g = CpuspeedGovernor::stock();
        g.initial(&n);
        n.set_activity(SimTime::ZERO, CpuActivity::Active);
        n.set_activity(
            SimTime::ZERO + SimDuration::from_millis(800),
            CpuActivity::Halt,
        );
        assert_eq!(tick_after(&mut g, &n, SimTime::from_secs(1)), None);
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_rejected() {
        let _ = CpuspeedGovernor::new(CpuspeedConfig {
            up_threshold: 0.5,
            down_threshold: 0.9,
            ..CpuspeedConfig::default()
        });
    }
}
