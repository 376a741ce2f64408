//! The paper's three distributed DVS strategies (plus extensions).

use cluster_sim::Node;
use dvfs::{
    AppDirectedGovernor, CapPolicy, ClusterController, ConservativeGovernor, CpuspeedGovernor,
    Governor, OnDemandGovernor, PerNodeGovernors, PowerCapController, StaticGovernor,
};
use power_model::DvfsLadder;

/// A cluster-wide DVS strategy (the paper's Section 4 taxonomy, plus the
/// cluster power-budget extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DvsStrategy {
    /// The stock `cpuspeed` daemon on every node, acting independently.
    Cpuspeed,
    /// Static control: all nodes pinned to the given frequency.
    StaticMhz(u32),
    /// Dynamic (application-directed) control with the given base
    /// frequency; instrumented regions drop to the ladder minimum.
    DynamicBaseMhz(u32),
    /// Beyond-the-paper: the kernel `ondemand` policy on every node.
    OnDemand,
    /// Beyond-the-paper: the kernel `conservative` policy (one-step moves
    /// in both directions) on every node.
    Conservative,
    /// Beyond-the-paper: a global cluster watt budget enforced at every
    /// sample instant by [`dvfs::PowerCapController`], with the given
    /// division policy.
    PowerCap { watts: u32, policy: CapPolicy },
}

impl DvsStrategy {
    /// Whether workloads should be built with the PowerPack dynamic-DVS
    /// instrumentation (only the dynamic strategy honors it; building it
    /// in for others would be inert anyway, matching the paper's setup
    /// where the library calls are present but the governor ignores them).
    pub fn wants_instrumentation(&self) -> bool {
        matches!(self, DvsStrategy::DynamicBaseMhz(_))
    }

    /// The strategy with any requested frequency snapped to its actual
    /// ladder operating point. `index_for_mhz` clamps to the nearest
    /// point, so `StaticMhz(5000)` *runs* at 1400 MHz; labels and store
    /// fingerprints must describe the resolved point, or identical runs
    /// would miss the cache and legends would lie.
    pub(crate) fn resolved(&self, ladder: &DvfsLadder) -> Self {
        match self {
            DvsStrategy::StaticMhz(mhz) => {
                DvsStrategy::StaticMhz(ladder.point(ladder.index_for_mhz(*mhz)).mhz())
            }
            DvsStrategy::DynamicBaseMhz(mhz) => {
                DvsStrategy::DynamicBaseMhz(ladder.point(ladder.index_for_mhz(*mhz)).mhz())
            }
            other => *other,
        }
    }

    /// Instantiate one governor per node.
    pub(crate) fn governors(&self, nodes: &[Node]) -> Vec<Box<dyn Governor>> {
        nodes
            .iter()
            .map(|node| -> Box<dyn Governor> {
                let ladder: &DvfsLadder = &node.config().ladder;
                match self {
                    DvsStrategy::Cpuspeed => Box::new(CpuspeedGovernor::stock()),
                    DvsStrategy::StaticMhz(mhz) => {
                        Box::new(StaticGovernor::pinned(ladder.index_for_mhz(*mhz)))
                    }
                    DvsStrategy::DynamicBaseMhz(mhz) => {
                        Box::new(AppDirectedGovernor::with_base(ladder.index_for_mhz(*mhz)))
                    }
                    DvsStrategy::OnDemand => Box::new(OnDemandGovernor::stock()),
                    DvsStrategy::Conservative => Box::new(ConservativeGovernor::stock()),
                    // A power cap is not expressible per node; the top
                    // point stands in when someone asks anyway, and
                    // `controller` is the real instantiation path.
                    DvsStrategy::PowerCap { .. } => Box::new(StaticGovernor::performance()),
                }
            })
            .collect()
    }

    /// Instantiate the run's [`ClusterController`] — the engine's single
    /// strategy dispatch path. Per-node strategies wrap their governors;
    /// the power cap builds its cluster-level controller.
    pub fn controller(&self, nodes: &[Node]) -> Box<dyn ClusterController> {
        match self {
            DvsStrategy::PowerCap { watts, policy } => {
                Box::new(PowerCapController::new(f64::from(*watts), *policy))
            }
            per_node => Box::new(PerNodeGovernors::new(per_node.governors(nodes))),
        }
    }

    /// Parse a CLI/wire strategy name: `static-<mhz>`, `dynamic-<mhz>`,
    /// the three kernel governors, and `cap-<watts>[-uniform|-redist]`
    /// (redistribute being the default policy). The single name
    /// registry — the CLI and the sweep-service protocol (which carries
    /// strategies by name) both resolve through it.
    pub fn parse_name(name: &str) -> Result<DvsStrategy, String> {
        if let Some(mhz) = name.strip_prefix("static-") {
            let mhz: u32 = mhz
                .parse()
                .map_err(|_| format!("bad frequency in '{name}'"))?;
            return Ok(DvsStrategy::StaticMhz(mhz));
        }
        if let Some(mhz) = name.strip_prefix("dynamic-") {
            let mhz: u32 = mhz
                .parse()
                .map_err(|_| format!("bad frequency in '{name}'"))?;
            return Ok(DvsStrategy::DynamicBaseMhz(mhz));
        }
        if let Some(spec) = name.strip_prefix("cap-") {
            let (watts, policy) = match spec.split_once('-') {
                None => (spec, CapPolicy::Redistribute),
                Some((watts, "redist")) => (watts, CapPolicy::Redistribute),
                Some((watts, "uniform")) => (watts, CapPolicy::Uniform),
                Some((_, other)) => {
                    return Err(format!("unknown cap policy '{other}' in '{name}'"))
                }
            };
            let watts: u32 = watts
                .parse()
                .map_err(|_| format!("bad watt budget in '{name}'"))?;
            return Ok(DvsStrategy::PowerCap { watts, policy });
        }
        match name {
            "cpuspeed" => Ok(DvsStrategy::Cpuspeed),
            "ondemand" => Ok(DvsStrategy::OnDemand),
            "conservative" => Ok(DvsStrategy::Conservative),
            other => Err(format!("unknown strategy '{other}' (try `pwrperf list`)")),
        }
    }

    /// Known strategy name patterns (for `pwrperf list` and error hints).
    pub fn names() -> &'static [&'static str] {
        &[
            "static-<mhz>",
            "dynamic-<mhz>",
            "cpuspeed",
            "ondemand",
            "conservative",
            "cap-<watts>[-uniform|-redist]",
        ]
    }

    /// Report label (matches the paper's figure legends). Frequencies are
    /// ladder-resolved first so the label names the point the run
    /// actually executed at.
    pub fn label(&self) -> String {
        match self.resolved(&DvfsLadder::pentium_m_1400()) {
            DvsStrategy::Cpuspeed => "cpuspeed".to_string(),
            DvsStrategy::StaticMhz(mhz) => format!("stat {mhz}MHz"),
            DvsStrategy::DynamicBaseMhz(mhz) => format!("dyn {mhz}MHz"),
            DvsStrategy::OnDemand => "ondemand".to_string(),
            DvsStrategy::Conservative => "conservative".to_string(),
            DvsStrategy::PowerCap { watts, policy } => match policy {
                CapPolicy::Uniform => format!("cap {watts}W uniform"),
                CapPolicy::Redistribute => format!("cap {watts}W redist"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::NodeConfig;

    fn nodes(n: usize) -> Vec<Node> {
        (0..n)
            .map(|_| Node::new(NodeConfig::inspiron_8600()))
            .collect()
    }

    #[test]
    fn names_parse_including_power_caps() {
        assert_eq!(
            DvsStrategy::parse_name("static-800"),
            Ok(DvsStrategy::StaticMhz(800))
        );
        assert_eq!(
            DvsStrategy::parse_name("dynamic-1400"),
            Ok(DvsStrategy::DynamicBaseMhz(1400))
        );
        assert_eq!(
            DvsStrategy::parse_name("cpuspeed"),
            Ok(DvsStrategy::Cpuspeed)
        );
        assert_eq!(
            DvsStrategy::parse_name("cap-80"),
            Ok(DvsStrategy::PowerCap {
                watts: 80,
                policy: CapPolicy::Redistribute
            })
        );
        assert_eq!(
            DvsStrategy::parse_name("cap-100-uniform"),
            Ok(DvsStrategy::PowerCap {
                watts: 100,
                policy: CapPolicy::Uniform
            })
        );
        assert!(DvsStrategy::parse_name("cap-80-bogus").is_err());
        assert!(DvsStrategy::parse_name("static-fast").is_err());
        assert!(DvsStrategy::parse_name("warp-speed").is_err());
    }

    #[test]
    fn one_governor_per_node() {
        let ns = nodes(8);
        for strat in [
            DvsStrategy::Cpuspeed,
            DvsStrategy::StaticMhz(800),
            DvsStrategy::DynamicBaseMhz(1400),
            DvsStrategy::OnDemand,
        ] {
            assert_eq!(strat.governors(&ns).len(), 8);
        }
    }

    #[test]
    fn only_dynamic_wants_instrumentation() {
        assert!(DvsStrategy::DynamicBaseMhz(1400).wants_instrumentation());
        assert!(!DvsStrategy::Cpuspeed.wants_instrumentation());
        assert!(!DvsStrategy::StaticMhz(600).wants_instrumentation());
        assert!(!DvsStrategy::OnDemand.wants_instrumentation());
        assert!(!DvsStrategy::PowerCap {
            watts: 120,
            policy: CapPolicy::Redistribute
        }
        .wants_instrumentation());
    }

    #[test]
    fn static_governor_resolves_mhz() {
        let ns = nodes(1);
        let mut govs = DvsStrategy::StaticMhz(800).governors(&ns);
        assert_eq!(govs[0].initial(&ns[0]), Some(1));
        let mut govs = DvsStrategy::StaticMhz(1400).governors(&ns);
        assert_eq!(govs[0].initial(&ns[0]), Some(4));
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(DvsStrategy::Cpuspeed.label(), "cpuspeed");
        assert_eq!(DvsStrategy::StaticMhz(800).label(), "stat 800MHz");
        assert_eq!(DvsStrategy::DynamicBaseMhz(1000).label(), "dyn 1000MHz");
        assert_eq!(
            DvsStrategy::PowerCap {
                watts: 120,
                policy: CapPolicy::Uniform
            }
            .label(),
            "cap 120W uniform"
        );
        assert_eq!(
            DvsStrategy::PowerCap {
                watts: 96,
                policy: CapPolicy::Redistribute
            }
            .label(),
            "cap 96W redist"
        );
    }

    #[test]
    fn resolution_snaps_off_ladder_requests_to_real_points() {
        let ladder = DvfsLadder::pentium_m_1400();
        assert_eq!(
            DvsStrategy::StaticMhz(5000).resolved(&ladder),
            DvsStrategy::StaticMhz(1400)
        );
        assert_eq!(
            DvsStrategy::StaticMhz(950).resolved(&ladder),
            DvsStrategy::StaticMhz(1000)
        );
        assert_eq!(
            DvsStrategy::DynamicBaseMhz(100).resolved(&ladder),
            DvsStrategy::DynamicBaseMhz(600)
        );
        // Already-on-ladder requests are fixed points.
        assert_eq!(
            DvsStrategy::StaticMhz(800).resolved(&ladder),
            DvsStrategy::StaticMhz(800)
        );
        // Labels describe the executed point, not the request.
        assert_eq!(DvsStrategy::StaticMhz(5000).label(), "stat 1400MHz");
        assert_eq!(DvsStrategy::DynamicBaseMhz(1).label(), "dyn 600MHz");
    }

    #[test]
    fn controller_dispatch_covers_every_strategy() {
        let ns = nodes(4);
        for strat in [
            DvsStrategy::Cpuspeed,
            DvsStrategy::StaticMhz(800),
            DvsStrategy::DynamicBaseMhz(1400),
            DvsStrategy::OnDemand,
            DvsStrategy::Conservative,
        ] {
            let c = strat.controller(&ns);
            assert!(!c.wants_runtime_events(), "{}", strat.label());
        }
        let cap = DvsStrategy::PowerCap {
            watts: 100,
            policy: CapPolicy::Redistribute,
        };
        let c = cap.controller(&ns);
        assert!(c.wants_runtime_events());
        assert_eq!(c.name(), "cap 100W redistribute");
    }
}
