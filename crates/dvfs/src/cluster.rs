//! Cluster-level runtime control.
//!
//! The per-node [`Governor`] trait sees exactly one node; the paper's
//! strategies never need more. A cluster power budget does: deciding
//! which rank deserves the next watt requires observing *cross-node*
//! state — who is blocked in communication, who is lagging the critical
//! path, what the cluster draws right now. [`ClusterController`] is that
//! interface: the engine drives one controller per run with per-node
//! callbacks (boot, governor ticks, application speed requests) plus
//! cluster-wide runtime events (wait boundaries and power samples). The
//! per-node callbacks answer for their own node; cluster-wide decisions
//! are issued only at sample instants, the one runtime hook that takes a
//! decision buffer.
//!
//! Every classic strategy is re-expressed under it by
//! [`PerNodeGovernors`], which routes the per-node callbacks to a boxed
//! [`Governor`] per node and ignores the cluster-wide ones — the engine
//! has a single dispatch path either way, and a per-node controller is
//! bit-identical to the pre-controller engine by construction.
//!
//! [`PowerCapController`] is the first genuinely cluster-level strategy:
//! a global watt budget enforced at every sample instant, either
//! uniformly or by redistributing budget from ranks blocked in
//! communication toward the ranks still computing (the Medhat et al.
//! direction). Cap accounting is worst-case: each ladder point is
//! charged [`power_model::NodePowerParams::max_node_power_w`], so any
//! allocation the controller grants keeps measured cluster power at or
//! under the cap no matter what the nodes execute.

use cluster_sim::Node;
use power_model::OpIndex;
use sim_core::{SimDuration, SimTime};

use crate::governor::{AppSpeedRequest, Governor};

/// One frequency decision for one node, issued at a sample instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Node to retarget.
    pub node: usize,
    /// Ladder index to transition to.
    pub target: OpIndex,
}

/// How a [`PowerCapController`] divides the cluster budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapPolicy {
    /// Every node gets the same frequency: the highest uniform ladder
    /// point whose worst-case cluster power fits the cap.
    Uniform,
    /// Ranks blocked in communication are parked at the slowest point;
    /// their reclaimed budget is granted to the ranks still computing,
    /// least-waiting (most critical-path-like) ranks first.
    Redistribute,
}

impl CapPolicy {
    /// Canonical CLI spelling (`policy=<label>`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            CapPolicy::Uniform => "uniform",
            CapPolicy::Redistribute => "redistribute",
        }
    }
}

/// A runtime strategy observing cross-node engine state.
///
/// The engine calls the per-node hooks (`initial`, `on_tick`,
/// `on_app_request`) exactly where it called the per-node [`Governor`]
/// before, and — only when [`wants_runtime_events`] says so — the
/// cluster-wide hooks at wait boundaries and sample instants. The wait
/// hooks only update controller state; [`on_sample`] alone pushes
/// [`Decision`]s into `out`, and the engine applies them in push order
/// through its normal transition path (latency, transition energy, fault
/// injection included).
///
/// Determinism contract: hooks run on the sequential dispatch path in
/// `(time, seq)` event order, and a controller may consult only its own
/// state and the `nodes` slice — never wall-clock, ambient randomness,
/// or thread identity. Controllers therefore inherit the engine's
/// run-to-run bit-identical guarantee for free, as the simsan golden
/// checkpoint streams (`tests/golden/simsan_streams.txt`) check.
///
/// [`wants_runtime_events`]: ClusterController::wants_runtime_events
/// [`on_sample`]: ClusterController::on_sample
pub trait ClusterController {
    /// Short label for traces and reports.
    fn name(&self) -> &str;

    /// Boot-time operating point for `node`, applied before the run
    /// starts (no latency, no transition energy).
    fn initial(&mut self, node: usize, nodes: &[Node]) -> Option<OpIndex>;

    /// Periodic tick interval for `node`; `None` disables ticks.
    fn poll_interval(&self, _node: usize) -> Option<SimDuration> {
        None
    }

    /// Periodic per-node decision (interval-driven governors).
    fn on_tick(&mut self, _now: SimTime, _node: usize, _nodes: &[Node]) -> Option<OpIndex> {
        None
    }

    /// Application speed request from instrumented code on `node`.
    fn on_app_request(
        &mut self,
        _now: SimTime,
        _node: usize,
        _nodes: &[Node],
        _req: AppSpeedRequest,
    ) -> Option<OpIndex> {
        None
    }

    /// Whether the engine should deliver the cluster-wide hooks below.
    /// Per-node controllers return `false` and keep the dispatch loop
    /// free of the calls entirely.
    fn wants_runtime_events(&self) -> bool {
        false
    }

    /// `rank` blocked waiting for communication at `now`.
    fn on_wait_begin(&mut self, _now: SimTime, _rank: usize, _nodes: &[Node]) {}

    /// `rank` released from its wait at `now`.
    fn on_wait_end(&mut self, _now: SimTime, _rank: usize, _nodes: &[Node]) {}

    /// Periodic power sample just taken across the cluster; the only
    /// runtime hook that may issue decisions.
    fn on_sample(&mut self, _now: SimTime, _nodes: &[Node], _out: &mut Vec<Decision>) {}

    /// Digest of the controller's mutable state for the engine's
    /// determinism sanitizer (`simsan` builds): two runs that agree on
    /// every checkpoint must have controllers in identical states, so
    /// stateful controllers fold their decision-relevant fields in here.
    /// Stateless controllers keep the default. Not feature-gated: the
    /// trait contract must not change shape with a downstream crate's
    /// feature set, and an unused `&self -> u64` default costs nothing.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// The classic per-node strategies under the controller interface: one
/// boxed [`Governor`] per node, cluster-wide hooks ignored.
pub struct PerNodeGovernors {
    governors: Vec<Box<dyn Governor>>,
}

impl PerNodeGovernors {
    /// Wrap one governor per node (checked by the engine against the
    /// cluster size).
    pub fn new(governors: Vec<Box<dyn Governor>>) -> Self {
        PerNodeGovernors { governors }
    }
}

impl ClusterController for PerNodeGovernors {
    fn name(&self) -> &str {
        "per-node"
    }

    fn initial(&mut self, node: usize, nodes: &[Node]) -> Option<OpIndex> {
        self.governors[node].initial(&nodes[node])
    }

    fn poll_interval(&self, node: usize) -> Option<SimDuration> {
        self.governors[node].poll_interval()
    }

    fn on_tick(&mut self, now: SimTime, node: usize, nodes: &[Node]) -> Option<OpIndex> {
        self.governors[node].on_tick(now, &nodes[node])
    }

    fn on_app_request(
        &mut self,
        now: SimTime,
        node: usize,
        nodes: &[Node],
        req: AppSpeedRequest,
    ) -> Option<OpIndex> {
        self.governors[node].on_app_request(now, &nodes[node], req)
    }
}

/// Global cluster watt budget with optional runtime redistribution.
///
/// Frequency decisions are issued only at sample instants (and at
/// boot); the wait hooks only update the controller's wait accounting.
/// Between two samples every granted transition settles within the
/// ~10 µs hardware latency, so the worst-case allocation in force at
/// each sample bounds the measured power at that instant: the cap holds
/// at every sample row.
pub struct PowerCapController {
    label: String,
    cap_w: f64,
    policy: CapPolicy,
    /// Worst-case node power per (node, ladder index); built on first
    /// sight of the cluster.
    p_max: Vec<Vec<f64>>,
    /// The allocation currently being enforced (ladder index per node).
    alloc: Vec<OpIndex>,
    /// Whether each rank is currently blocked in communication.
    blocked: Vec<bool>,
    /// Cumulative closed-wait time per rank.
    wait_total: Vec<SimDuration>,
    /// Open-wait start per rank, when blocked.
    wait_since: Vec<SimTime>,
}

impl PowerCapController {
    /// A controller enforcing `cap_w` watts across the whole cluster.
    pub fn new(cap_w: f64, policy: CapPolicy) -> Self {
        assert!(cap_w > 0.0 && cap_w.is_finite(), "cap must be positive");
        PowerCapController {
            label: format!("cap {cap_w:.0}W {}", policy.label()),
            cap_w,
            policy,
            p_max: Vec::new(),
            alloc: Vec::new(),
            blocked: Vec::new(),
            wait_total: Vec::new(),
            wait_since: Vec::new(),
        }
    }

    fn ensure_tables(&mut self, nodes: &[Node]) {
        if !self.p_max.is_empty() {
            return;
        }
        self.p_max = nodes
            .iter()
            .map(|n| {
                let cfg = n.config();
                (0..cfg.ladder.len())
                    .map(|idx| cfg.power.max_node_power_w(cfg.ladder.point(idx)))
                    .collect()
            })
            .collect();
        self.blocked = vec![false; nodes.len()];
        self.wait_total = vec![SimDuration::ZERO; nodes.len()];
        self.wait_since = vec![SimTime::ZERO; nodes.len()];
        self.alloc = self.plan(nodes.len());
    }

    /// Worst-case cluster power of an allocation, summed in node order
    /// (a fixed float reduction order, so replans are bit-stable).
    fn worst_case_w(&self, alloc: &[OpIndex]) -> f64 {
        alloc
            .iter()
            .enumerate()
            .map(|(i, &idx)| self.p_max[i][idx])
            .sum()
    }

    /// Highest uniform ladder index whose worst-case cluster power fits
    /// the cap (the slowest point when nothing fits — a cap below the
    /// floor cannot be met and is enforced as best-effort).
    fn uniform_fit(&self, n: usize) -> OpIndex {
        let levels = self.p_max.iter().map(|p| p.len()).min().unwrap_or(1);
        let mut fit = 0;
        for idx in 0..levels {
            let total: f64 = (0..n).map(|i| self.p_max[i][idx]).sum();
            if total <= self.cap_w {
                fit = idx;
            }
        }
        fit
    }

    /// Compute the allocation the cap admits right now.
    fn plan(&self, n: usize) -> Vec<OpIndex> {
        // An unconstrained cluster runs flat out: if the cap admits every
        // node at its top point, the controller is inert (an infinite cap
        // is bit-identical to the uncontrolled run).
        let top: Vec<OpIndex> = (0..n).map(|i| self.p_max[i].len() - 1).collect();
        if self.worst_case_w(&top) <= self.cap_w {
            return top;
        }
        match self.policy {
            CapPolicy::Uniform => vec![self.uniform_fit(n); n],
            CapPolicy::Redistribute => self.plan_redistribute(n),
        }
    }

    /// Water-fill the budget over the non-blocked ranks: everyone starts
    /// at the slowest point, blocked ranks stay there, and the runnable
    /// ranks are raised one step at a time in priority order while the
    /// worst-case total stays under the cap.
    fn plan_redistribute(&self, n: usize) -> Vec<OpIndex> {
        let mut alloc: Vec<OpIndex> = vec![0; n];
        let mut total = self.worst_case_w(&alloc);
        let mut order: Vec<usize> = (0..n).filter(|&i| !self.blocked[i]).collect();
        order.sort_by_key(|&i| (self.wait_total[i], i));
        loop {
            let mut raised = false;
            for &i in &order {
                let next = alloc[i] + 1;
                if next >= self.p_max[i].len() {
                    continue;
                }
                let delta = self.p_max[i][next] - self.p_max[i][alloc[i]];
                if total + delta <= self.cap_w {
                    total += delta;
                    alloc[i] = next;
                    raised = true;
                }
            }
            if !raised {
                return alloc;
            }
        }
    }

    /// Emit transitions moving the cluster toward `alloc`. Nodes already
    /// there are left alone; nodes mid-transition are skipped and picked
    /// up at the next sample (this also self-heals transitions a
    /// `dvfs-fail` fault dropped).
    fn emit(&self, nodes: &[Node], out: &mut Vec<Decision>) {
        for (i, node) in nodes.iter().enumerate() {
            if self.alloc[i] != node.op_index() && !node.in_transition() {
                out.push(Decision {
                    node: i,
                    target: self.alloc[i],
                });
            }
        }
    }
}

impl ClusterController for PowerCapController {
    fn name(&self) -> &str {
        &self.label
    }

    fn initial(&mut self, node: usize, nodes: &[Node]) -> Option<OpIndex> {
        self.ensure_tables(nodes);
        Some(self.alloc[node])
    }

    fn wants_runtime_events(&self) -> bool {
        true
    }

    fn on_wait_begin(&mut self, now: SimTime, rank: usize, nodes: &[Node]) {
        self.ensure_tables(nodes);
        if !self.blocked[rank] {
            self.blocked[rank] = true;
            self.wait_since[rank] = now;
        }
    }

    fn on_wait_end(&mut self, now: SimTime, rank: usize, nodes: &[Node]) {
        self.ensure_tables(nodes);
        if self.blocked[rank] {
            self.blocked[rank] = false;
            self.wait_total[rank] = self.wait_total[rank] + now.since(self.wait_since[rank]);
        }
    }

    fn on_sample(&mut self, _now: SimTime, nodes: &[Node], out: &mut Vec<Decision>) {
        self.ensure_tables(nodes);
        self.alloc = self.plan(nodes.len());
        self.emit(nodes, out);
    }

    fn state_digest(&self) -> u64 {
        // Every field a replan reads: cap, policy, the allocation being
        // enforced, and the wait-fairness bookkeeping. `p_max` is derived
        // once from static node config and never mutated, so it is
        // covered by the fields that built it.
        let mut h = fnv_fold(FNV_OFFSET, self.cap_w.to_bits());
        h = fnv_fold(h, self.policy as u64);
        for &idx in &self.alloc {
            h = fnv_fold(h, idx as u64);
        }
        for &b in &self.blocked {
            h = fnv_fold(h, u64::from(b));
        }
        for &w in &self.wait_total {
            h = fnv_fold(h, w.as_ps());
        }
        for &s in &self.wait_since {
            h = fnv_fold(h, s.since(SimTime::ZERO).as_ps());
        }
        h
    }
}

/// FNV-1a basis for [`ClusterController::state_digest`] implementations.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one word into an FNV-1a digest, byte by byte, little-endian.
fn fnv_fold(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
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

    fn p_max_at(idx: OpIndex) -> f64 {
        let cfg = NodeConfig::inspiron_8600();
        cfg.power.max_node_power_w(cfg.ladder.point(idx))
    }

    #[test]
    fn infinite_cap_allocates_the_top_point_everywhere() {
        let ns = nodes(4);
        let mut c = PowerCapController::new(1e9, CapPolicy::Redistribute);
        for i in 0..4 {
            assert_eq!(c.initial(i, &ns), Some(4));
        }
        let mut out = Vec::new();
        c.on_sample(SimTime::from_secs(1), &ns, &mut out);
        assert!(out.is_empty(), "inert controller must not issue decisions");
    }

    #[test]
    fn uniform_fit_respects_worst_case_accounting() {
        let ns = nodes(4);
        // Budget for exactly four nodes at index 2, not at index 3.
        let cap = 4.0 * p_max_at(2) + 0.5 * (p_max_at(3) - p_max_at(2));
        let mut c = PowerCapController::new(cap, CapPolicy::Uniform);
        for i in 0..4 {
            assert_eq!(c.initial(i, &ns), Some(2));
        }
    }

    #[test]
    fn redistribute_parks_blocked_ranks_and_boosts_the_rest() {
        let ns = nodes(4);
        let cap = 4.0 * p_max_at(2);
        let mut c = PowerCapController::new(cap, CapPolicy::Redistribute);
        let mut out = Vec::new();
        for i in 0..4 {
            c.initial(i, &ns);
        }
        // Ranks 1..4 block; rank 0 keeps computing.
        for r in 1..4 {
            c.on_wait_begin(SimTime::from_secs(1), r, &ns);
        }
        c.on_sample(SimTime::from_secs(2), &ns, &mut out);
        let alloc = c.alloc.clone();
        assert_eq!(&alloc[1..], &[0, 0, 0], "blocked ranks parked");
        assert_eq!(alloc[0], 4, "reclaimed budget boosts the runnable rank");
        let worst = c.worst_case_w(&alloc);
        assert!(worst <= cap, "worst-case {worst} over cap {cap}");
    }

    #[test]
    fn plans_never_exceed_the_cap() {
        let ns = nodes(8);
        let floor = 8.0 * p_max_at(0);
        for frac in [0.4, 0.6, 0.8, 1.0] {
            let cap = 8.0 * p_max_at(4) * frac;
            for policy in [CapPolicy::Uniform, CapPolicy::Redistribute] {
                let mut c = PowerCapController::new(cap, policy);
                let mut out = Vec::new();
                for i in 0..8 {
                    c.initial(i, &ns);
                }
                c.on_wait_begin(SimTime::from_secs(1), 3, &ns);
                c.on_sample(SimTime::from_secs(2), &ns, &mut out);
                let worst = c.worst_case_w(&c.alloc);
                if cap >= floor {
                    assert!(
                        worst <= cap + 1e-9,
                        "{policy:?} frac {frac}: {worst} > {cap}"
                    );
                } else {
                    // A cap below the cluster floor cannot be met; it is
                    // enforced best-effort with every rank at the floor.
                    assert!(
                        (worst - floor).abs() < 1e-9,
                        "{policy:?} frac {frac}: below-floor cap must park \
                         the whole cluster at the floor ({worst} vs {floor})"
                    );
                }
            }
        }
    }

    #[test]
    fn least_waiting_rank_wins_the_tiebreak_budget() {
        let ns = nodes(2);
        // Room for one node at index 1 and one at index 0, roughly.
        let cap = p_max_at(1) + p_max_at(0);
        let mut c = PowerCapController::new(cap, CapPolicy::Redistribute);
        let mut out = Vec::new();
        for i in 0..2 {
            c.initial(i, &ns);
        }
        // Rank 0 accumulates closed wait time; rank 1 never waits.
        c.on_wait_begin(SimTime::from_secs(1), 0, &ns);
        c.on_wait_end(SimTime::from_secs(5), 0, &ns);
        c.on_sample(SimTime::from_secs(6), &ns, &mut out);
        assert!(
            c.alloc[1] > c.alloc[0],
            "rank 1 (no wait) must outrank rank 0: {:?}",
            c.alloc
        );
    }

    #[test]
    fn per_node_wrapper_routes_to_each_governor() {
        use crate::governor::StaticGovernor;
        let ns = nodes(2);
        let mut c = PerNodeGovernors::new(vec![
            Box::new(StaticGovernor::pinned(1)),
            Box::new(StaticGovernor::pinned(3)),
        ]);
        assert_eq!(c.initial(0, &ns), Some(1));
        assert_eq!(c.initial(1, &ns), Some(3));
        assert!(!c.wants_runtime_events());
        assert_eq!(c.poll_interval(0), None);
    }
}
