//! # cluster-sim — the Beowulf cluster hardware model
//!
//! Assembles the per-component models into nodes and a cluster matching the
//! paper's testbed: 16 Dell Inspiron 8600 laptops (Pentium M 1.4 GHz with
//! Enhanced SpeedStep, 1 GB DDR, smart battery) on a 100 Mb/s switch.
//!
//! * [`NodeConfig`] — hardware description of one node.
//! * [`Node`] — live state: current operating point, CPU activity,
//!   per-component energy meter, ACPI battery, and the simulated
//!   `/proc/stat` busy/idle accounting the `cpuspeed` governor reads.
//! * [`Cluster`] — a vector of nodes plus the interconnect parameters,
//!   with aggregate energy reporting.

pub(crate) mod node;
pub(crate) mod proc_stat;

pub use node::{Node, NodeConfig};
pub use proc_stat::{ProcStat, ProcStatSnapshot};

use net_model::NetworkParams;
use power_model::EnergyReport;
use sim_core::SimTime;

/// A homogeneous cluster of nodes and its interconnect.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    network: NetworkParams,
}

impl Cluster {
    /// Build a cluster of `n` identical nodes.
    pub fn homogeneous(n: usize, config: NodeConfig, network: NetworkParams) -> Self {
        Cluster::from_configs(vec![config; n], network)
    }

    /// Build a cluster from per-node hardware descriptions (heterogeneous
    /// clusters: mixed ladders, base powers, memory systems — the
    /// straggler studies).
    pub fn from_configs(configs: Vec<NodeConfig>, network: NetworkParams) -> Self {
        assert!(!configs.is_empty(), "cluster needs at least one node");
        network.validate();
        let nodes = configs.into_iter().map(Node::new).collect();
        Cluster { nodes, network }
    }

    /// The paper's testbed: `n` Inspiron-8600 nodes (up to 16) on the
    /// 100 Mb/s Catalyst switch.
    pub fn paper_testbed(n: usize) -> Self {
        assert!(
            (1..=16).contains(&n),
            "the paper's cluster has 16 nodes; asked for {n}"
        );
        Cluster::homogeneous(
            n,
            NodeConfig::inspiron_8600(),
            NetworkParams::catalyst_2950_100m(),
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false; construction requires at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable node access.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: usize) -> &mut Node {
        &mut self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Interconnect parameters.
    pub fn network(&self) -> &NetworkParams {
        &self.network
    }

    /// Sum of all nodes' per-component energy through `now`.
    pub fn total_energy(&self, now: SimTime) -> EnergyReport {
        self.nodes
            .iter()
            .fold(EnergyReport::default(), |acc, n| acc.add(&n.energy(now)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::CpuActivity;

    #[test]
    fn paper_testbed_has_requested_size() {
        let c = Cluster::paper_testbed(16);
        assert_eq!(c.len(), 16);
        assert!((c.network().link_bw_bps - 100e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "16 nodes")]
    fn testbed_rejects_oversize() {
        let _ = Cluster::paper_testbed(17);
    }

    #[test]
    fn total_energy_sums_nodes() {
        let mut c = Cluster::paper_testbed(4);
        let t = SimTime::from_secs(10);
        for id in 0..4 {
            c.node_mut(id)
                .set_activity(SimTime::ZERO, CpuActivity::Active);
        }
        let total = c.total_energy(t);
        let single = c.node(0).energy(t);
        assert!((total.total_j() - 4.0 * single.total_j()).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_cluster_keeps_per_node_configs() {
        let mut hot = NodeConfig::inspiron_8600();
        hot.power.base_w = 30.0;
        let configs = vec![NodeConfig::inspiron_8600(), hot];
        let c = Cluster::from_configs(configs, net_model::NetworkParams::catalyst_2950_100m());
        assert_eq!(c.len(), 2);
        assert!(c.node(1).power_now() > c.node(0).power_now() + 20.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_config_list_rejected() {
        let _ = Cluster::from_configs(vec![], net_model::NetworkParams::catalyst_2950_100m());
    }
}
