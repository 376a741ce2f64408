//! The governor interface and the trivial static policy.

use cluster_sim::Node;
use power_model::OpIndex;
use sim_core::{SimDuration, SimTime};

/// An application-level speed request — the simulated equivalent of the
/// PowerPack library's `set_speed()` calls that the paper inserts before
/// and after slack-heavy functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpeedRequest {
    /// Drop to the ladder's lowest point (what the paper's dynamic strategy
    /// does on entry to `fft()` / transpose steps 2–3).
    Lowest,
    /// Go to the ladder's highest point.
    Highest,
    /// Go to a specific operating point.
    Index(OpIndex),
    /// Return to the speed in force before the matching earlier request.
    Restore,
}

/// Per-node frequency policy.
///
/// Governors are passive deciders: the simulation engine calls them and
/// performs any returned retargeting itself (paying transition latency and
/// energy), which keeps hardware mechanics out of policy code.
pub trait Governor {
    /// Human-readable policy name (appears in reports).
    fn name(&self) -> &'static str;

    /// Desired operating point at simulation start, or `None` to keep the
    /// node's boot default.
    fn initial(&mut self, node: &Node) -> Option<OpIndex>;

    /// How often [`Governor::on_tick`] should run, or `None` for purely
    /// event-driven governors.
    fn poll_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Periodic decision point. Returns a new target, or `None` to stay.
    fn on_tick(&mut self, _now: SimTime, _node: &Node) -> Option<OpIndex> {
        None
    }

    /// The application issued a speed request. Returns the operating point
    /// to move to, or `None` to ignore (every policy except dynamic control
    /// ignores these, as in the paper where static/cpuspeed runs leave the
    /// PowerPack calls inert).
    fn on_app_request(
        &mut self,
        _now: SimTime,
        _node: &Node,
        _request: AppSpeedRequest,
    ) -> Option<OpIndex> {
        None
    }
}

/// Pin one operating point for the entire run (the paper's *static
/// control*, also covering the `performance` and `powersave` kernel
/// policies at the ladder ends).
#[derive(Debug, Clone)]
pub struct StaticGovernor {
    target: OpIndex,
    name: &'static str,
}

impl StaticGovernor {
    /// Pin the given ladder index.
    pub fn pinned(target: OpIndex) -> Self {
        StaticGovernor {
            target,
            name: "static",
        }
    }

    /// The kernel `performance` policy: pin the top point. The ladder size
    /// is resolved at `initial()` time.
    pub fn performance() -> Self {
        StaticGovernor {
            target: usize::MAX,
            name: "performance",
        }
    }

    /// The kernel `powersave` policy: pin the bottom point.
    pub fn powersave() -> Self {
        StaticGovernor {
            target: 0,
            name: "powersave",
        }
    }
}

impl Governor for StaticGovernor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn initial(&mut self, node: &Node) -> Option<OpIndex> {
        let ladder = &node.config().ladder;
        Some(self.target.min(ladder.highest()))
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
    fn static_pins_requested_index() {
        let n = node();
        let mut g = StaticGovernor::pinned(2);
        assert_eq!(g.initial(&n), Some(2));
        assert_eq!(g.poll_interval(), None);
        assert_eq!(g.on_tick(SimTime::ZERO, &n), None);
        assert_eq!(
            g.on_app_request(SimTime::ZERO, &n, AppSpeedRequest::Lowest),
            None,
            "static control ignores application requests"
        );
    }

    #[test]
    fn performance_and_powersave_resolve_ladder_ends() {
        let n = node();
        assert_eq!(StaticGovernor::performance().initial(&n), Some(4));
        assert_eq!(StaticGovernor::powersave().initial(&n), Some(0));
        assert_eq!(StaticGovernor::performance().name(), "performance");
    }

    #[test]
    fn pinned_index_clamps_to_ladder() {
        let n = node();
        assert_eq!(StaticGovernor::pinned(99).initial(&n), Some(4));
    }
}
