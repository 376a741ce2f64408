//! Application-directed dynamic control — the paper's third strategy.
//!
//! The paper inserts PowerPack library calls into the application: before a
//! slack-heavy region (`fft()`, transpose steps 2–3) the node drops to the
//! lowest operating point; afterwards it restores the previous speed.
//! [`AppDirectedGovernor`] honors those requests (a speed stack supports
//! nesting) and otherwise pins a base operating point, which gives the
//! paper's "Dyn" series: one curve per base point, each dipping to minimum
//! inside the instrumented region.

use cluster_sim::Node;
use power_model::OpIndex;
use sim_core::SimTime;

use crate::governor::{AppSpeedRequest, Governor};

/// Dynamic (application-directed) control with a base operating point.
#[derive(Debug)]
pub struct AppDirectedGovernor {
    base: OpIndex,
    /// Speeds to restore, innermost last.
    stack: Vec<OpIndex>,
}

impl AppDirectedGovernor {
    /// Run at ladder index `base` outside instrumented regions.
    pub fn with_base(base: OpIndex) -> Self {
        AppDirectedGovernor {
            base,
            stack: Vec::new(),
        }
    }
}

impl Governor for AppDirectedGovernor {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn initial(&mut self, node: &Node) -> Option<OpIndex> {
        Some(self.base.min(node.config().ladder.highest()))
    }

    fn on_app_request(
        &mut self,
        _now: SimTime,
        node: &Node,
        request: AppSpeedRequest,
    ) -> Option<OpIndex> {
        let ladder = &node.config().ladder;
        match request {
            AppSpeedRequest::Lowest => {
                self.stack.push(node.op_index());
                Some(ladder.lowest())
            }
            AppSpeedRequest::Highest => {
                self.stack.push(node.op_index());
                Some(ladder.highest())
            }
            AppSpeedRequest::Index(idx) => {
                self.stack.push(node.op_index());
                Some(idx.min(ladder.highest()))
            }
            AppSpeedRequest::Restore => self.stack.pop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::NodeConfig;

    fn node() -> Node {
        Node::new(NodeConfig::inspiron_8600())
    }

    #[test]
    fn base_point_applied_at_start() {
        let n = node();
        let mut g = AppDirectedGovernor::with_base(2);
        assert_eq!(g.initial(&n), Some(2));
        assert_eq!(g.name(), "dynamic");
    }

    #[test]
    fn lowest_then_restore_roundtrips() {
        let mut n = node();
        n.complete_transition(SimTime::ZERO, 3); // running at 1.2 GHz
        let mut g = AppDirectedGovernor::with_base(3);
        let down = g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Lowest);
        assert_eq!(down, Some(0));
        n.complete_transition(SimTime::ZERO, 0);
        let up = g.on_app_request(SimTime::from_secs(1), &n, AppSpeedRequest::Restore);
        assert_eq!(up, Some(3), "restores the speed in force at entry");
    }

    #[test]
    fn nested_regions_restore_in_order() {
        let mut n = node();
        n.complete_transition(SimTime::ZERO, 4);
        let mut g = AppDirectedGovernor::with_base(4);
        g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Index(2));
        n.complete_transition(SimTime::ZERO, 2);
        g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Lowest);
        n.complete_transition(SimTime::ZERO, 0);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Restore),
            Some(2)
        );
        n.complete_transition(SimTime::ZERO, 2);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Restore),
            Some(4)
        );
    }

    #[test]
    fn unmatched_restore_is_ignored() {
        let n = node();
        let mut g = AppDirectedGovernor::with_base(4);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Restore),
            None
        );
    }

    #[test]
    fn highest_request_pushes_current() {
        let mut n = node();
        n.complete_transition(SimTime::ZERO, 1);
        let mut g = AppDirectedGovernor::with_base(1);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Highest),
            Some(4)
        );
        n.complete_transition(SimTime::ZERO, 4);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Restore),
            Some(1)
        );
    }

    #[test]
    fn explicit_index_clamps_to_ladder() {
        let n = node();
        let mut g = AppDirectedGovernor::with_base(0);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Index(42)),
            Some(4)
        );
    }
}
