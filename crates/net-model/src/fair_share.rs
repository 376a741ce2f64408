//! Max-min fair rate allocation by progressive filling.
//!
//! The solver works over an arbitrary set of directed capacity
//! constraints ("links"); a flow is constrained by every link on its
//! path. Progressive filling raises all unfixed flows' rates together
//! until some link saturates, freezes the flows on that link, and
//! repeats — yielding the unique max-min fair allocation.
//!
//! In the paper's flat testbed every flow crosses exactly two links:
//! its source node's uplink and its destination node's downlink (the
//! switch backplane is non-blocking, as the Catalyst 2950 is for this
//! port count). The flat entry points ([`FairShare::compute_into`],
//! [`FairShare::compute_with_capacities_into`]) express that as paths
//! `[2·src, 2·dst+1]` over the same core loop as the test-only
//! hierarchical oracle `FairShare::compute_topology_into` — the link
//! numbering (see [`crate::topology`]) makes the generalized scan visit
//! capacities in the historical per-node up/down order, so flat results
//! are bit-identical to the pre-topology solver.
//!
//! The solver lives in [`FairShare`], which owns all the per-call scratch
//! (active-flow worklists, per-link residual capacities and counts) so a
//! caller that recomputes rates on every flow arrival/departure — the
//! fluid network does — allocates nothing after the first call.
//! `max_min_fair`, a test-only wrapper over a throwaway solver, is the
//! flat oracle.

#[cfg(test)]
use crate::topology::LinkTable;

/// A flow to be allocated: `(src_node, dst_node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowEndpoints {
    /// Sending node index.
    pub(crate) src: usize,
    /// Receiving node index.
    pub(crate) dst: usize,
}

/// Relative slack of the freeze test: a flow whose tightest link offers
/// at most `share · (1 + FREEZE_TOLERANCE)` freezes in the round whose
/// bottleneck share is `share`.
const FREEZE_TOLERANCE: f64 = 1e-12;

/// True when a flow limited to `limit` freezes in a round whose
/// bottleneck share is `share` — the single definition both the solver
/// and the flat network's near-tie guard use.
#[inline]
pub(crate) fn freezes_at(limit: f64, share: f64) -> bool {
    limit <= share * (1.0 + FREEZE_TOLERANCE)
}

/// Lifetime counters describing how hard the solver has worked — exposed
/// through the observability layer to spot pathological contention (many
/// filling rounds per call) and the rare float-degenerate fallback freezes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SolverStats {
    /// Solver calls. The flat fluid network solves each connected
    /// component a flow arrival or departure touches on its own, so there
    /// this counts component solves (plus the rare full solves its
    /// near-tie guard publishes), not flow-set changes.
    pub invocations: u64,
    /// Progressive-filling rounds across all calls (each round freezes at
    /// least one link's flows); per component solve in the flat network.
    pub rounds: u64,
    /// Times the degenerate-float fallback freeze rule fired.
    pub fallback_freezes: u64,
    /// Link domains an incremental update actually had to revisit
    /// (maintained by the tree-mode fluid network, not by `fill`).
    pub domains_touched: u64,
    /// Link domains an incremental update proved unchanged and skipped.
    pub domains_skipped: u64,
}

/// Per-flow link paths for one solver call.
enum Paths {
    /// Flat fabric: flow `i`'s path is `[2·src, 2·dst+1]`, derived on
    /// the fly — no per-flow storage on the hot path.
    Flat,
    /// Explicit paths in CSR form: flow `i` crosses
    /// `links[offsets[i]..offsets[i+1]]`.
    #[cfg(test)]
    Csr { offsets: Vec<u32>, links: Vec<u32> },
}

impl Paths {
    /// The links flow `i` crosses; `buf` is scratch for a path derived on
    /// the fly.
    #[inline]
    fn path<'b>(&'b self, flows: &[FlowEndpoints], i: usize, buf: &'b mut [u32; 2]) -> &'b [u32] {
        match self {
            Paths::Flat => {
                let f = flows[i];
                // simlint: allow(literal-index): buf is a fixed [u32; 2], both slots exist by construction
                buf[0] = (2 * f.src) as u32;
                // simlint: allow(literal-index): buf is a fixed [u32; 2], both slots exist by construction
                buf[1] = (2 * f.dst + 1) as u32;
                buf
            }
            #[cfg(test)]
            Paths::Csr { offsets, links } => &links[offsets[i] as usize..offsets[i + 1] as usize],
        }
    }
}

/// Progressive-filling solver with reusable scratch buffers.
#[derive(Debug, Default)]
pub(crate) struct FairShare {
    active: Vec<usize>,
    still_active: Vec<usize>,
    /// Residual capacity per link id; only entries of `touched` are live.
    link_cap: Vec<f64>,
    /// Unfrozen flows per link id. All zero between calls, so a call
    /// reads and resets only the links its flows cross.
    link_count: Vec<usize>,
    /// `link_cap / link_count` of each crossed link with unfrozen flows,
    /// kept current through a round so a flow's limit costs no division.
    link_share: Vec<f64>,
    /// Links the current call's flows cross, in first-crossing order.
    touched: Vec<u32>,
    stats: SolverStats,
}

impl FairShare {
    /// A solver with empty scratch; buffers grow to fit on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Compute max-min fair rates for `flows` over per-node uplinks and
    /// downlinks of capacity `link_capacity` (any unit; results share it),
    /// writing one rate per flow into `rates` (cleared first, same order).
    ///
    /// Self-flows (src == dst) are serviced by loopback and get
    /// `loopback_capacity` each without contending for the switch.
    pub(crate) fn compute_into(
        &mut self,
        flows: &[FlowEndpoints],
        nodes: usize,
        link_capacity: f64,
        loopback_capacity: f64,
        rates: &mut Vec<f64>,
    ) {
        assert!(link_capacity > 0.0);
        self.compute_flat_into(flows, nodes, |_| link_capacity, loopback_capacity, rates);
    }

    /// Like [`FairShare::compute_into`] but with an individual full-duplex
    /// link capacity per node (`capacities[n]` bounds both node `n`'s
    /// uplink and downlink) — the degraded-link fault-injection path,
    /// where one node's cable runs below the nominal rate. With uniform
    /// capacities the allocation is bit-identical to `compute_into`.
    pub(crate) fn compute_with_capacities_into(
        &mut self,
        flows: &[FlowEndpoints],
        nodes: usize,
        capacities: &[f64],
        loopback_capacity: f64,
        rates: &mut Vec<f64>,
    ) {
        assert_eq!(capacities.len(), nodes, "one capacity per node");
        for &c in capacities {
            assert!(c > 0.0 && c.is_finite(), "link capacity must be positive");
        }
        self.compute_flat_into(flows, nodes, |n| capacities[n], loopback_capacity, rates);
    }

    /// The flat solve both public flat entry points share: node `n`'s
    /// uplink and downlink each carry `node_capacity(n)`. Does not
    /// validate capacities, so a caller that solves many small flow sets
    /// over the same validated capacities pays O(flows) per call, not
    /// O(nodes).
    pub(crate) fn compute_flat_into(
        &mut self,
        flows: &[FlowEndpoints],
        nodes: usize,
        node_capacity: impl Fn(usize) -> f64,
        loopback_capacity: f64,
        rates: &mut Vec<f64>,
    ) {
        self.fill(
            flows,
            2 * nodes,
            |link| node_capacity(link / 2),
            &Paths::Flat,
            nodes,
            loopback_capacity,
            rates,
        );
    }

    /// The flat solve of one fabric flow whose uplink and downlink carry
    /// `up` and `down`: it freezes in the first round at `min(up, down)`.
    /// Returns those bits and counts the call and its round as the full
    /// fill would, without running it.
    pub(crate) fn solve_one_flat(&mut self, up: f64, down: f64) -> f64 {
        self.stats.invocations += 1;
        self.stats.rounds += 1;
        up.min(down)
    }

    /// Max-min fair rates over an arbitrary compiled topology: each flow
    /// is constrained by every link on its up/down path through the
    /// switch hierarchy (see [`LinkTable::push_path`]). With a flat or
    /// single-switch table this is bit-identical to
    /// [`FairShare::compute_into`]. The exact fat-tree oracle the tests
    /// compare against.
    #[cfg(test)]
    pub(crate) fn compute_topology_into(
        &mut self,
        flows: &[FlowEndpoints],
        table: &LinkTable,
        loopback_capacity: f64,
        rates: &mut Vec<f64>,
    ) {
        let mut offsets = vec![0];
        let mut links = Vec::new();
        for f in flows {
            table.push_path(f.src, f.dst, &mut links);
            offsets.push(links.len() as u32);
        }
        self.fill(
            flows,
            table.num_links(),
            |link| table.capacity(link),
            &Paths::Csr { offsets, links },
            table.nodes(),
            loopback_capacity,
            rates,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn fill<C: Fn(usize) -> f64>(
        &mut self,
        flows: &[FlowEndpoints],
        num_links: usize,
        capacity_of: C,
        paths: &Paths,
        nodes: usize,
        loopback_capacity: f64,
        rates: &mut Vec<f64>,
    ) {
        let n = flows.len();
        rates.clear();
        rates.resize(n, 0.0);

        let FairShare {
            active,
            still_active,
            link_cap,
            link_count,
            link_share,
            touched,
            stats,
            ..
        } = self;
        stats.invocations += 1;

        // Loopback flows bypass the fabric.
        active.clear();
        for (i, f) in flows.iter().enumerate() {
            assert!(f.src < nodes && f.dst < nodes, "flow endpoint out of range");
            if f.src == f.dst {
                rates[i] = loopback_capacity;
            } else {
                active.push(i);
            }
        }

        // `link_count` is all zero here (every call resets what it
        // touched), so only the crossed links need their capacity loaded.
        if link_count.len() < num_links {
            link_count.resize(num_links, 0);
            link_cap.resize(num_links, 0.0);
            link_share.resize(num_links, 0.0);
        }
        touched.clear();
        let mut buf = [0u32; 2];
        for &i in active.iter() {
            for &l in paths.path(flows, i, &mut buf) {
                let link = l as usize;
                if link_count[link] == 0 {
                    link_cap[link] = capacity_of(link);
                    touched.push(l);
                }
                link_count[link] += 1;
            }
        }

        while !active.is_empty() {
            stats.rounds += 1;
            // The bottleneck link is the one offering the least share per
            // flow. `min` does not depend on the visiting order, so
            // scanning only the crossed links gives the full scan's bits.
            let mut bottleneck_share = f64::INFINITY;
            for &l in touched.iter() {
                let link = l as usize;
                if link_count[link] > 0 {
                    link_share[link] = link_cap[link] / link_count[link] as f64;
                    bottleneck_share = bottleneck_share.min(link_share[link]);
                }
            }
            // Always-on: a NaN/infinite share would propagate into every
            // flow rate and silently wreck completion times in release.
            assert!(
                bottleneck_share.is_finite(),
                "fair-share bottleneck share is not finite"
            );

            // Freeze every flow crossing a link that saturates at this share.
            let mut frozen_any = false;
            still_active.clear();
            for &i in active.iter() {
                let path = paths.path(flows, i, &mut buf);
                let mut limit = f64::INFINITY;
                for &l in path {
                    limit = limit.min(link_share[l as usize]);
                }
                if freezes_at(limit, bottleneck_share) {
                    rates[i] = bottleneck_share;
                    for &l in path {
                        let link = l as usize;
                        link_cap[link] -= bottleneck_share;
                        link_count[link] -= 1;
                        if link_count[link] > 0 {
                            link_share[link] = link_cap[link] / link_count[link] as f64;
                        }
                    }
                    frozen_any = true;
                } else {
                    still_active.push(i);
                }
            }

            if !frozen_any {
                stats.fallback_freezes += 1;
                // Degenerate float case: residual capacities can drift a few
                // ulps negative after many subtractions, and once the
                // bottleneck share is negative the relative tolerance above
                // moves the threshold the wrong way (multiplying a negative
                // share by 1 + 1e-12 makes it smaller), so nothing passes the
                // test. Freeze the flows on the strict minimum-share link
                // directly — that link has at least one flow by construction,
                // so filling always terminates. The scan stays ascending over
                // every link id so ties keep going to the lowest id.
                let mut min_link: Option<(usize, f64)> = None;
                for link in 0..num_links {
                    if link_count[link] > 0 {
                        let share = link_cap[link] / link_count[link] as f64;
                        if min_link.is_none_or(|(_, s)| share < s) {
                            min_link = Some((link, share));
                        }
                    }
                }
                match min_link {
                    Some((min_id, _)) => {
                        let min_id = min_id as u32;
                        still_active.retain(|&i| {
                            let path = paths.path(flows, i, &mut buf);
                            let on_link = path.contains(&min_id);
                            if on_link {
                                rates[i] = bottleneck_share;
                                for &l in path {
                                    link_cap[l as usize] -= bottleneck_share;
                                    link_count[l as usize] -= 1;
                                }
                            }
                            !on_link
                        });
                    }
                    None => {
                        // Every remaining share is NaN (poisoned capacities);
                        // assign what we have and stop rather than spin.
                        for &i in still_active.iter() {
                            rates[i] = bottleneck_share;
                        }
                        still_active.clear();
                    }
                }
            }
            std::mem::swap(active, still_active);
        }
        for &l in touched.iter() {
            link_count[l as usize] = 0;
        }
    }

    /// Lifetime work counters for this solver instance.
    pub(crate) fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Record incremental-domain bookkeeping from a caller that scopes
    /// recomputation to perturbed link domains (the tree-mode fluid
    /// network) — surfaced through [`SolverStats`] to prove the
    /// sub-linear asymptotics.
    pub(crate) fn note_domains(&mut self, touched: u64, skipped: u64) {
        self.stats.domains_touched += touched;
        self.stats.domains_skipped += skipped;
    }
}

/// Compute max-min fair rates with a throwaway solver. Returns one rate per
/// flow, in the same order; zero-length input returns an empty vector. See
/// [`FairShare::compute_into`] for the allocation-free form. The flat
/// oracle the tests compare against.
#[cfg(test)]
pub(crate) fn max_min_fair(
    flows: &[FlowEndpoints],
    nodes: usize,
    link_capacity: f64,
    loopback_capacity: f64,
) -> Vec<f64> {
    let mut rates = Vec::with_capacity(flows.len());
    FairShare::new().compute_into(flows, nodes, link_capacity, loopback_capacity, &mut rates);
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const C: f64 = 100.0;

    fn flow(src: usize, dst: usize) -> FlowEndpoints {
        FlowEndpoints { src, dst }
    }

    #[test]
    fn single_flow_gets_full_link() {
        let r = max_min_fair(&[flow(0, 1)], 2, C, C);
        assert_eq!(r, vec![C]);
    }

    #[test]
    fn two_flows_share_a_common_uplink() {
        let r = max_min_fair(&[flow(0, 1), flow(0, 2)], 3, C, C);
        assert_eq!(r, vec![C / 2.0, C / 2.0]);
    }

    #[test]
    fn incast_shares_the_downlink() {
        // Everyone sends to node 0 — the parallel-transpose gather pattern.
        let flows: Vec<_> = (1..5).map(|s| flow(s, 0)).collect();
        let r = max_min_fair(&flows, 5, C, C);
        for rate in r {
            assert!((rate - C / 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let r = max_min_fair(&[flow(0, 1), flow(2, 3)], 4, C, C);
        assert_eq!(r, vec![C, C]);
    }

    #[test]
    fn mixed_bottlenecks_are_max_min() {
        // f0: 0->1, f1: 0->2, f2: 3->2.
        // Uplink 0 carries f0,f1; downlink 2 carries f1,f2.
        // Max-min: f0 = f1 = 50 (uplink 0 bottleneck); then f2 takes the
        // remaining 50 of downlink 2... but f2's own links allow 100, so
        // downlink 2 splits 50/50 first? Progressive filling: all rise to
        // 50 together, uplink 0 and downlink 2 both saturate at 50.
        let r = max_min_fair(&[flow(0, 1), flow(0, 2), flow(3, 2)], 4, C, C);
        assert!((r[0] - 50.0).abs() < 1e-9);
        assert!((r[1] - 50.0).abs() < 1e-9);
        assert!((r[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_release_goes_to_survivor() {
        // f0: 0->1, f1: 2->1, f2: 2->3.
        // Downlink 1: f0,f1. Uplink 2: f1,f2. All rise to 50; both links
        // saturate; everyone freezes at 50? f2 shares uplink 2 with f1:
        // at 50 uplink 2 is full. So yes all 50... but max-min optimal for
        // f0 would be 50 (downlink 1 shared) — consistent.
        let r = max_min_fair(&[flow(0, 1), flow(2, 1), flow(2, 3)], 4, C, C);
        for rate in &r {
            assert!((rate - 50.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn loopback_bypasses_fabric() {
        let r = max_min_fair(&[flow(0, 0), flow(0, 1)], 2, C, 1000.0);
        assert_eq!(r[0], 1000.0);
        assert_eq!(r[1], C);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(max_min_fair(&[], 4, C, C).is_empty());
    }

    #[test]
    fn solver_stats_count_work() {
        let mut solver = FairShare::new();
        let mut rates = Vec::new();
        solver.compute_into(&[flow(0, 1), flow(0, 2), flow(3, 2)], 4, C, C, &mut rates);
        solver.compute_into(&[flow(1, 0)], 4, C, C, &mut rates);
        let s = solver.stats();
        assert_eq!(s.invocations, 2);
        assert!(
            s.rounds >= 2,
            "at least one round per non-empty call: {s:?}"
        );
        assert_eq!(
            s.fallback_freezes, 0,
            "benign inputs never hit the fallback"
        );
    }

    #[test]
    fn reused_solver_matches_fresh_solver_bitwise() {
        // The whole point of FairShare is reuse; stale scratch must never
        // leak into a later answer.
        let scenarios: Vec<Vec<FlowEndpoints>> = vec![
            vec![flow(0, 1), flow(0, 2), flow(3, 2)],
            vec![flow(1, 0)],
            vec![flow(0, 0), flow(0, 1), flow(2, 1), flow(2, 3)],
            vec![],
            (0..20).map(|i| flow(i % 4, (i + 1) % 4)).collect(),
        ];
        let mut solver = FairShare::new();
        let mut rates = Vec::new();
        for flows in &scenarios {
            solver.compute_into(flows, 4, C, C, &mut rates);
            let fresh = max_min_fair(flows, 4, C, C);
            assert_eq!(rates.len(), fresh.len());
            for (a, b) in rates.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let _ = max_min_fair(&[flow(0, 9)], 2, C, C);
    }

    #[test]
    fn uniform_capacities_match_compute_into_bitwise() {
        let scenarios: Vec<Vec<FlowEndpoints>> = vec![
            vec![flow(0, 1), flow(0, 2), flow(3, 2)],
            vec![flow(0, 0), flow(0, 1), flow(2, 1), flow(2, 3)],
            (0..20).map(|i| flow(i % 4, (i + 1) % 4)).collect(),
        ];
        let caps = [C; 4];
        let mut uniform = Vec::new();
        let mut per_node = Vec::new();
        for flows in &scenarios {
            FairShare::new().compute_into(flows, 4, C, C, &mut uniform);
            FairShare::new().compute_with_capacities_into(flows, 4, &caps, C, &mut per_node);
            assert_eq!(uniform.len(), per_node.len());
            for (a, b) in uniform.iter().zip(&per_node) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn degraded_uplink_caps_its_flows_and_frees_the_rest() {
        // Node 0's link runs at a quarter rate; its flow to 1 is capped at
        // 25 while the untouched 2->3 pair still gets the full link.
        let caps = [C / 4.0, C, C, C];
        let mut rates = Vec::new();
        FairShare::new().compute_with_capacities_into(
            &[flow(0, 1), flow(2, 3)],
            4,
            &caps,
            C,
            &mut rates,
        );
        assert!((rates[0] - C / 4.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - C).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn degraded_downlink_redistributes_incast_share() {
        // Two senders into a degraded node 0: they split the weak downlink.
        let caps = [C / 2.0, C, C];
        let mut rates = Vec::new();
        FairShare::new().compute_with_capacities_into(
            &[flow(1, 0), flow(2, 0)],
            3,
            &caps,
            C,
            &mut rates,
        );
        for r in &rates {
            assert!((r - C / 4.0).abs() < 1e-9, "{rates:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one capacity per node")]
    fn capacity_slice_must_cover_every_node() {
        let mut rates = Vec::new();
        FairShare::new().compute_with_capacities_into(&[flow(0, 1)], 3, &[C, C], C, &mut rates);
    }

    #[test]
    fn single_switch_topology_matches_flat_bitwise() {
        use crate::topology::Topology;
        let scenarios: Vec<Vec<FlowEndpoints>> = vec![
            vec![flow(0, 1), flow(0, 2), flow(3, 2)],
            vec![flow(0, 0), flow(0, 1), flow(2, 1), flow(2, 3)],
            (0..20).map(|i| flow(i % 4, (i + 1) % 4)).collect(),
        ];
        let table = Topology::FatTree {
            radix: 8,
            oversub: 2.0,
        }
        .link_table(4, C);
        let mut solver = FairShare::new();
        let mut rates = Vec::new();
        for flows in &scenarios {
            solver.compute_topology_into(flows, &table, C, &mut rates);
            let flat = max_min_fair(flows, 4, C, C);
            assert_eq!(rates.len(), flat.len());
            for (a, b) in rates.iter().zip(&flat) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn nonblocking_tree_matches_flat_values() {
        // oversub = 1 with multiple trunk levels: trunks never bind
        // strictly below the edges, so the allocation equals flat's.
        use crate::topology::Topology;
        let table = Topology::FatTree {
            radix: 2,
            oversub: 1.0,
        }
        .link_table(8, C);
        let flows: Vec<_> = (0..24).map(|i| flow(i % 8, (i * 3 + 1) % 8)).collect();
        let mut rates = Vec::new();
        FairShare::new().compute_topology_into(&flows, &table, C, &mut rates);
        let flat = max_min_fair(&flows, 8, C, C);
        for (a, b) in rates.iter().zip(&flat) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn oversubscribed_trunk_throttles_cross_traffic() {
        // 4 hosts, radix 2, oversub 4: the two leaf trunks carry
        // 2*C/4 = C/2 each. One cross-leaf flow is trunk-limited to
        // C/2; an intra-leaf flow still gets the full edge.
        use crate::topology::Topology;
        let table = Topology::FatTree {
            radix: 2,
            oversub: 4.0,
        }
        .link_table(4, C);
        let mut rates = Vec::new();
        FairShare::new().compute_topology_into(&[flow(0, 2), flow(2, 3)], &table, C, &mut rates);
        assert!((rates[0] - C / 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - C).abs() < 1e-9, "{rates:?}");
    }

    proptest! {
        /// The ISSUE-mandated degeneracy: with radix >= nodes (single
        /// leaf switch) the hierarchical solver must match the flat
        /// solver bit-for-bit, over random flow sets and radices.
        #[test]
        fn prop_wide_tree_is_bitwise_flat(
            endpoints in proptest::collection::vec((0usize..8, 0usize..8), 1..40),
            radix in 8usize..64,
            oversub in 1u32..8,
        ) {
            use crate::topology::Topology;
            let flows: Vec<_> = endpoints.iter().map(|&(s, d)| flow(s, d)).collect();
            let table = Topology::FatTree { radix, oversub: oversub as f64 }
                .link_table(8, C);
            let mut rates = Vec::new();
            FairShare::new().compute_topology_into(&flows, &table, C, &mut rates);
            let flat = max_min_fair(&flows, 8, C, C);
            prop_assert_eq!(rates.len(), flat.len());
            for (a, b) in rates.iter().zip(&flat) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Feasibility on a deep oversubscribed tree: no link on any
        /// flow's path carries more than its capacity.
        #[test]
        fn prop_tree_allocation_feasible(
            endpoints in proptest::collection::vec((0usize..8, 0usize..8), 1..40),
            oversub in 1u32..5,
        ) {
            use crate::topology::Topology;
            let flows: Vec<_> = endpoints.iter().map(|&(s, d)| flow(s, d)).collect();
            let table = Topology::FatTree { radix: 2, oversub: oversub as f64 }
                .link_table(8, C);
            let mut rates = Vec::new();
            FairShare::new().compute_topology_into(&flows, &table, C, &mut rates);
            let mut load = vec![0.0f64; table.num_links()];
            let mut path = Vec::new();
            for (f, r) in flows.iter().zip(&rates) {
                prop_assert!(*r > 0.0);
                path.clear();
                table.push_path(f.src, f.dst, &mut path);
                for &l in &path {
                    load[l as usize] += r;
                }
            }
            for (l, &used) in load.iter().enumerate() {
                prop_assert!(
                    used <= table.capacity(l) * (1.0 + 1e-6),
                    "link {} oversubscribed: {} > {}", l, used, table.capacity(l)
                );
            }
        }

        /// No link is ever oversubscribed and every flow gets a positive
        /// rate — the feasibility + efficiency half of max-min fairness.
        #[test]
        fn prop_allocation_feasible(
            endpoints in proptest::collection::vec((0usize..8, 0usize..8), 1..40)
        ) {
            let flows: Vec<_> = endpoints.iter().map(|&(s, d)| flow(s, d)).collect();
            let rates = max_min_fair(&flows, 8, C, C);
            prop_assert_eq!(rates.len(), flows.len());
            let mut up = [0.0f64; 8];
            let mut down = [0.0f64; 8];
            for (f, r) in flows.iter().zip(&rates) {
                prop_assert!(*r > 0.0);
                if f.src != f.dst {
                    up[f.src] += r;
                    down[f.dst] += r;
                }
            }
            for node in 0..8 {
                prop_assert!(up[node] <= C * (1.0 + 1e-9), "uplink {} oversubscribed: {}", node, up[node]);
                prop_assert!(down[node] <= C * (1.0 + 1e-9), "downlink {} oversubscribed: {}", node, down[node]);
            }
        }

        /// Work conservation: every fabric flow is bottlenecked somewhere —
        /// it crosses at least one link with (almost) no spare capacity.
        #[test]
        fn prop_work_conserving(
            endpoints in proptest::collection::vec((0usize..6, 0usize..6), 1..30)
        ) {
            let flows: Vec<_> = endpoints.iter()
                .filter(|(s, d)| s != d)
                .map(|&(s, d)| flow(s, d)).collect();
            prop_assume!(!flows.is_empty());
            let rates = max_min_fair(&flows, 6, C, C);
            let mut up = [0.0f64; 6];
            let mut down = [0.0f64; 6];
            for (f, r) in flows.iter().zip(&rates) {
                up[f.src] += r;
                down[f.dst] += r;
            }
            for (f, _r) in flows.iter().zip(&rates) {
                let saturated = up[f.src] >= C * (1.0 - 1e-9) || down[f.dst] >= C * (1.0 - 1e-9);
                prop_assert!(saturated, "flow {:?} has no saturated link", f);
            }
        }

        /// Dense contention stress: progressive filling must terminate
        /// (no "failed to make progress" panic) and stay feasible even when
        /// hundreds of flows hammer the same few links with awkward
        /// capacities. This is the regime where residual capacities drift
        /// negative by a few ulps and the fallback freeze rule earns its keep.
        #[test]
        fn prop_dense_contention_terminates(
            endpoints in proptest::collection::vec((0usize..4, 0usize..4), 50..300),
            cap_millis in 1u64..10_000,
        ) {
            let cap = cap_millis as f64 * 1.0e-3; // exercise non-dyadic capacities
            let flows: Vec<_> = endpoints.iter().map(|&(s, d)| flow(s, d)).collect();
            let rates = max_min_fair(&flows, 4, cap, cap);
            let mut up = [0.0f64; 4];
            let mut down = [0.0f64; 4];
            for (f, r) in flows.iter().zip(&rates) {
                prop_assert!(r.is_finite());
                if f.src != f.dst {
                    up[f.src] += r.max(0.0);
                    down[f.dst] += r.max(0.0);
                }
            }
            for node in 0..4 {
                prop_assert!(up[node] <= cap * (1.0 + 1e-6));
                prop_assert!(down[node] <= cap * (1.0 + 1e-6));
            }
        }
    }
}
