//! The fluid-flow network: active transfers draining at max-min fair rates.
//!
//! The engine drives this with three calls:
//!
//! 1. [`FluidNetwork::start_flow`] when a sender/receiver pair is matched;
//! 2. [`FluidNetwork::next_completion`] to learn when to schedule the next
//!    network event;
//! 3. [`FluidNetwork::take_completed_into`] at that event to collect
//!    finished transfers (rates are recomputed automatically as flows
//!    come and go).
//!
//! ## Incremental recomputation
//!
//! Rates only change when the *fabric* flow set changes: loopback (self)
//! flows never contend for the switch, so arrivals and departures of
//! loopback flows leave every other rate untouched, and a lone fabric flow
//! always gets the full link. Those cases skip the progressive-filling
//! solver entirely; the general case reuses a [`FairShare`] solver and
//! per-call scratch, so the steady-state event loop allocates nothing.
//! All fast paths are bit-identical to a from-scratch recomputation (a
//! property-based test below drives random arrivals/departures and checks
//! rates against [`max_min_fair`] exactly).
//!
//! ## Hierarchical (tree) mode
//!
//! [`FluidNetwork::with_topology`] with a non-flat [`Topology`] switches
//! the network to an incremental, sub-linear regime built for
//! thousand-node fabrics, where the O(flows) solver sweep per arrival is
//! unaffordable:
//!
//! * per-link flow counts are maintained incrementally (O(path) per
//!   arrival/departure), and each link carries a *quantized* fair share
//!   `Q(capacity / count)`;
//! * a flow's rate is fixed at admission to the minimum quantized share
//!   along its up/down path, and its completion time goes into a lazy
//!   min-heap (stale entries are generation-stamped and dropped on pop)
//!   — flows drain lazily, so `advance` is O(1);
//! * quantization makes shares insensitive to small count changes: a
//!   path link whose quantized share is unchanged by an update is a
//!   *skipped* domain, a changed one is *touched*; both are counted in
//!   [`SolverStats`] to demonstrate the asymptotics.
//!
//! Tree mode defines its own (deterministic) semantics: rates are not
//! re-fair-shared over surviving flows on every event as in flat mode,
//! so results are reproducible run-to-run but intentionally not
//! comparable to flat mode bit-for-bit. Flat mode is byte-for-byte
//! untouched by all of this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sim_core::{SimDuration, SimTime};

use crate::fair_share::{FairShare, FlowEndpoints, SolverStats};
use crate::params::NetworkParams;
use crate::topology::{LinkTable, Topology};

/// Handle to an active transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

/// Residual bytes below which a flow counts as drained (absorbs
/// picosecond-rounding error; at 100 Mb/s one picosecond moves ~1e-5 bytes).
const EPS_BYTES: f64 = 1e-3;

/// Memory-to-memory bandwidth used for loopback (self) sends, bytes/s.
/// Far faster than the fabric; rank-to-self copies are effectively free.
const LOOPBACK_BYTES_PER_SEC: f64 = 1.0e9;

#[derive(Debug, Clone)]
struct ActiveFlow {
    src: usize,
    dst: usize,
    remaining_bytes: f64,
    rate_bytes_per_sec: f64,
    /// Tree mode only: completion-heap generation stamp for this slot's
    /// current occupant (stale heap entries carry an older stamp).
    generation: u64,
}

/// Incremental per-link state for hierarchical (fat-tree) fabrics.
#[derive(Debug)]
struct TreeState {
    table: LinkTable,
    /// Live fabric flows crossing each link.
    count: Vec<u32>,
    /// Quantized fair share of each link at its current count.
    qshare: Vec<f64>,
    /// Rate quantum (bytes/s); shares are floored to a multiple of it so
    /// small count changes leave them — and every dependent subtree —
    /// untouched.
    quantum: f64,
    /// Pending completions `(finish, generation, slot)`; entries go
    /// stale when a slot is freed and are dropped lazily on pop.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_generation: u64,
    active_count: usize,
    path_scratch: Vec<u32>,
}

impl TreeState {
    /// Re-derive link `l`'s quantized share after a count/capacity
    /// change. Returns whether the share actually moved (a *touched*
    /// domain, in [`SolverStats`] terms).
    fn requantize(&mut self, l: usize) -> bool {
        let c = self.count[l];
        let share = if c == 0 {
            self.table.capacity(l)
        } else {
            quantize(self.table.capacity(l) / c as f64, self.quantum)
        };
        let changed = share.to_bits() != self.qshare[l].to_bits();
        self.qshare[l] = share;
        changed
    }
}

/// Floor `share` to a multiple of `quantum`, except below one quantum
/// where the raw share is kept so rates never collapse to zero.
fn quantize(share: f64, quantum: f64) -> f64 {
    if share <= quantum {
        share
    } else {
        (share / quantum).floor() * quantum
    }
}

/// Absolute drain instant of `remaining_bytes` at `rate` starting at
/// `from` — the same upward-rounded formula flat mode's
/// `next_completion` uses.
fn completion_instant(from: SimTime, remaining_bytes: f64, rate: f64) -> SimTime {
    let secs = if remaining_bytes <= EPS_BYTES {
        0.0
    } else {
        remaining_bytes / rate
    };
    from + SimDuration::from_secs_f64(secs) + SimDuration::from_ps(1)
}

/// The flow occupying an active slot. Active slots always hold `Some`:
/// `start_flow` fills the slot before linking it into `active_slots`, and
/// `take_completed_into` clears both together. Free functions (not
/// methods) so callers can keep `active_slots` borrowed while touching
/// `flows`.
fn slot_flow(flows: &[Option<ActiveFlow>], slot: usize) -> &ActiveFlow {
    // simlint: allow(panic-path): active-slot invariant documented above; corrupted bookkeeping must stop the run
    flows[slot].as_ref().expect("active slot holds a flow")
}

/// Mutable counterpart of [`slot_flow`], same invariant.
fn slot_flow_mut(flows: &mut [Option<ActiveFlow>], slot: usize) -> &mut ActiveFlow {
    // simlint: allow(panic-path): active-slot invariant documented above; corrupted bookkeeping must stop the run
    flows[slot].as_mut().expect("active slot holds a flow")
}

/// A switched network carrying fluid flows between `nodes` endpoints.
#[derive(Debug)]
pub struct FluidNetwork {
    params: NetworkParams,
    nodes: usize,
    flows: Vec<Option<ActiveFlow>>,
    free_slots: Vec<usize>,
    /// Slots of live flows, kept sorted ascending so every scan visits
    /// flows in the same order a full `flows` sweep would.
    active_slots: Vec<usize>,
    /// Live flows with src != dst (the ones that contend for the switch).
    fabric_count: usize,
    /// Per node: how many live flows touch it as src or dst (a loopback
    /// flow counts twice). Makes `node_busy` O(1).
    node_touch: Vec<usize>,
    /// Per-node link capacity overrides (bytes/s), present only when a
    /// degraded-link fault is armed; `None` keeps every fast path on the
    /// uniform-capacity code and the output bit-identical to a build
    /// without fault support.
    link_caps: Option<Vec<f64>>,
    /// Hierarchical-fabric state; `None` keeps every code path on the
    /// historical flat model, byte-for-byte.
    tree: Option<Box<TreeState>>,
    last_advance: SimTime,
    total_bytes_delivered: f64,
    total_flows_completed: u64,
    total_rate_recomputes: u64,
    // Reused across rate recomputations so the event loop stays
    // allocation-free after warm-up.
    solver: FairShare,
    scratch_endpoints: Vec<FlowEndpoints>,
    scratch_rates: Vec<f64>,
}

impl FluidNetwork {
    /// A network of `nodes` endpoints with the given parameters.
    pub fn new(params: NetworkParams, nodes: usize) -> Self {
        params.validate();
        assert!(nodes > 0);
        FluidNetwork {
            params,
            nodes,
            flows: Vec::new(),
            free_slots: Vec::new(),
            active_slots: Vec::new(),
            fabric_count: 0,
            node_touch: vec![0; nodes],
            link_caps: None,
            tree: None,
            last_advance: SimTime::ZERO,
            total_bytes_delivered: 0.0,
            total_flows_completed: 0,
            total_rate_recomputes: 0,
            solver: FairShare::new(),
            scratch_endpoints: Vec::new(),
            scratch_rates: Vec::new(),
        }
    }

    /// A network of `nodes` endpoints routed over `topology`. A flat
    /// topology is exactly [`FluidNetwork::new`]; a fat-tree switches to
    /// the incremental tree-mode model (see the module docs).
    pub fn with_topology(params: NetworkParams, nodes: usize, topology: &Topology) -> Self {
        let mut net = Self::new(params, nodes);
        if *topology != Topology::Flat {
            let table = topology.link_table(nodes, net.params.goodput_bytes_per_sec());
            let num_links = table.num_links();
            // ~1e-6 of the edge rate: coarse enough that counts drifting
            // by a few flows rarely move a share, fine enough that the
            // rounding is irrelevant to simulated transfer times.
            let quantum = net.params.goodput_bytes_per_sec() / (1u64 << 20) as f64;
            net.tree = Some(Box::new(TreeState {
                qshare: table.capacities().to_vec(),
                count: vec![0; num_links],
                table,
                quantum,
                heap: BinaryHeap::new(),
                next_generation: 0,
                active_count: 0,
                path_scratch: Vec::new(),
            }));
        }
        net
    }

    /// True when the network runs the hierarchical (tree-mode) model.
    pub fn is_hierarchical(&self) -> bool {
        self.tree.is_some()
    }

    /// Network parameters in force.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Degrade `node`'s link to `factor` (in (0, 1]) of the nominal
    /// goodput — the fault-injection path for a failing cable or duplex
    /// mismatch. Call before traffic starts; cumulative if called twice
    /// for the same node. A factor of exactly 1.0 on every node still
    /// switches the solver to the per-node-capacity path, so only call
    /// this when a link is genuinely degraded.
    pub fn set_link_bandwidth_factor(&mut self, node: usize, factor: f64) {
        assert!(node < self.nodes, "endpoint out of range");
        assert!(
            factor > 0.0 && factor <= 1.0,
            "bandwidth factor must be in (0, 1]"
        );
        if let Some(tree) = &mut self.tree {
            // Hierarchical fabric: the per-node fault hook degrades both
            // directions of the node's edge link in the link table.
            tree.table.scale_edge_capacity(node, factor);
            tree.requantize(2 * node);
            tree.requantize(2 * node + 1);
            return;
        }
        let goodput = self.params.goodput_bytes_per_sec();
        let caps = self
            .link_caps
            .get_or_insert_with(|| vec![goodput; self.nodes]);
        caps[node] *= factor;
    }

    /// The capacity of a lone fabric flow from `src` to `dst`: the full
    /// nominal goodput unless either endpoint's link is degraded.
    fn lone_flow_rate(&self, src: usize, dst: usize) -> f64 {
        match &self.link_caps {
            None => self.params.goodput_bytes_per_sec(),
            Some(caps) => caps[src].min(caps[dst]),
        }
    }

    /// Move the fluid state forward to `now`, draining flows at their
    /// current rates. Idempotent for equal `now`.
    pub fn advance(&mut self, now: SimTime) {
        // Always-on: `since` saturates, so a backwards `now` would silently
        // under-drain every active flow in release builds.
        assert!(now >= self.last_advance, "network time went backwards");
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 {
            for &slot in &self.active_slots {
                let f = slot_flow_mut(&mut self.flows, slot);
                let moved = f.rate_bytes_per_sec * dt;
                let drained = moved.min(f.remaining_bytes);
                f.remaining_bytes -= drained;
                self.total_bytes_delivered += drained;
            }
        }
        self.last_advance = now;
    }

    /// Begin transferring `bytes` from `src` to `dst` at `now`.
    /// Zero-byte flows are legal and complete immediately (control
    /// messages' payload; their latency cost is handled by the MPI layer).
    pub fn start_flow(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> FlowId {
        assert!(
            src < self.nodes && dst < self.nodes,
            "endpoint out of range"
        );
        if self.tree.is_some() {
            return self.start_flow_tree(now, src, dst, bytes);
        }
        self.advance(now);
        let flow = ActiveFlow {
            src,
            dst,
            remaining_bytes: bytes as f64,
            rate_bytes_per_sec: 0.0,
            generation: 0,
        };
        let id = if let Some(slot) = self.free_slots.pop() {
            self.flows[slot] = Some(flow);
            slot
        } else {
            self.flows.push(Some(flow));
            self.flows.len() - 1
        };
        let pos = self.active_slots.binary_search(&id).unwrap_err();
        self.active_slots.insert(pos, id);
        self.node_touch[src] += 1;
        self.node_touch[dst] += 1;

        if src == dst {
            // Loopback never contends: nobody else's rate changes.
            slot_flow_mut(&mut self.flows, id).rate_bytes_per_sec = LOOPBACK_BYTES_PER_SEC;
        } else {
            self.fabric_count += 1;
            if self.fabric_count == 1 {
                // A lone fabric flow takes the whole link (or the weaker
                // of its two endpoints' links when one is degraded).
                let rate = self.lone_flow_rate(src, dst);
                slot_flow_mut(&mut self.flows, id).rate_bytes_per_sec = rate;
            } else {
                self.recompute_rates();
            }
        }
        FlowId(id)
    }

    /// Tree-mode admission: bump the path links' counts, fix the flow's
    /// rate to the minimum quantized share along its path, and schedule
    /// its completion. O(path · log flows).
    fn start_flow_tree(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> FlowId {
        self.advance(now);
        let tree = self
            .tree
            .as_mut()
            // simlint: allow(panic-path): callers dispatch here only when tree mode was built; a None is corrupted state
            .expect("start_flow_tree requires tree mode");
        let generation = tree.next_generation;
        tree.next_generation += 1;

        let rate = if src == dst {
            LOOPBACK_BYTES_PER_SEC
        } else {
            let mut path = std::mem::take(&mut tree.path_scratch);
            path.clear();
            tree.table.push_path(src, dst, &mut path);
            let (mut touched, mut skipped) = (0u64, 0u64);
            let mut rate = f64::INFINITY;
            for &l in &path {
                let l = l as usize;
                tree.count[l] += 1;
                if tree.requantize(l) {
                    touched += 1;
                } else {
                    skipped += 1;
                }
                rate = rate.min(tree.qshare[l]);
            }
            tree.path_scratch = path;
            self.solver.note_domains(touched, skipped);
            self.fabric_count += 1;
            rate
        };

        let flow = ActiveFlow {
            src,
            dst,
            remaining_bytes: bytes as f64,
            rate_bytes_per_sec: rate,
            generation,
        };
        let id = if let Some(slot) = self.free_slots.pop() {
            self.flows[slot] = Some(flow);
            slot
        } else {
            self.flows.push(Some(flow));
            self.flows.len() - 1
        };
        self.node_touch[src] += 1;
        self.node_touch[dst] += 1;

        // simlint: allow(panic-path): same tree-mode dispatch invariant as above
        let tree = self.tree.as_mut().expect("tree mode");
        tree.active_count += 1;
        let finish = completion_instant(now, bytes as f64, rate);
        tree.heap.push(Reverse((finish, generation, id)));
        FlowId(id)
    }

    fn recompute_rates(&mut self) {
        self.scratch_endpoints.clear();
        for &slot in &self.active_slots {
            let f = slot_flow(&self.flows, slot);
            self.scratch_endpoints.push(FlowEndpoints {
                src: f.src,
                dst: f.dst,
            });
        }
        if self.scratch_endpoints.is_empty() {
            return;
        }
        self.total_rate_recomputes += 1;
        match &self.link_caps {
            None => self.solver.compute_into(
                &self.scratch_endpoints,
                self.nodes,
                self.params.goodput_bytes_per_sec(),
                LOOPBACK_BYTES_PER_SEC,
                &mut self.scratch_rates,
            ),
            Some(caps) => self.solver.compute_with_capacities_into(
                &self.scratch_endpoints,
                self.nodes,
                caps,
                LOOPBACK_BYTES_PER_SEC,
                &mut self.scratch_rates,
            ),
        }
        for (k, &slot) in self.active_slots.iter().enumerate() {
            slot_flow_mut(&mut self.flows, slot).rate_bytes_per_sec = self.scratch_rates[k];
        }
    }

    /// Absolute time at which the earliest active flow drains, or `None`
    /// when the network is idle. Always strictly at-or-after the last
    /// `advance` point; rounding is upward so the flow is guaranteed
    /// drained by the returned instant.
    pub fn next_completion(&self) -> Option<SimTime> {
        if let Some(tree) = &self.tree {
            // The heap head may be stale (its slot completed or was
            // recycled); waking at a stale instant is harmless — the
            // `take_completed_into` it triggers pops and discards the
            // entry, so the next query sees a fresh head and the engine
            // always makes progress.
            return tree.heap.peek().map(|&Reverse((t, _, _))| t);
        }
        let mut best: Option<f64> = None;
        for &slot in &self.active_slots {
            let f = slot_flow(&self.flows, slot);
            let secs = if f.remaining_bytes <= EPS_BYTES {
                0.0
            } else {
                f.remaining_bytes / f.rate_bytes_per_sec
            };
            best = Some(match best {
                None => secs,
                Some(b) => b.min(secs),
            });
        }
        best.map(|secs| {
            self.last_advance + SimDuration::from_secs_f64(secs) + SimDuration::from_ps(1)
        })
    }

    /// Advance to `now` and remove every drained flow, appending
    /// `(id, src, dst)` for each in id order to `done` (cleared first).
    /// Rates are only recomputed if a fabric flow actually finished.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<(FlowId, usize, usize)>) {
        done.clear();
        self.advance(now);
        if self.tree.is_some() {
            self.take_completed_tree(now, done);
            return;
        }
        let mut removed_fabric = 0usize;
        let mut keep = 0usize;
        for read in 0..self.active_slots.len() {
            let slot = self.active_slots[read];
            let f = slot_flow(&self.flows, slot);
            if f.remaining_bytes <= EPS_BYTES {
                let (src, dst) = (f.src, f.dst);
                done.push((FlowId(slot), src, dst));
                self.flows[slot] = None;
                self.free_slots.push(slot);
                self.node_touch[src] -= 1;
                self.node_touch[dst] -= 1;
                if src != dst {
                    removed_fabric += 1;
                }
                self.total_flows_completed += 1;
            } else {
                self.active_slots[keep] = slot;
                keep += 1;
            }
        }
        self.active_slots.truncate(keep);
        if removed_fabric > 0 {
            self.fabric_count -= removed_fabric;
            match self.fabric_count {
                0 => {} // only loopbacks remain; their rate is a constant
                1 => {
                    // The survivor takes the whole link; no solver needed.
                    let survivor = self.active_slots.iter().copied().find_map(|slot| {
                        let f = slot_flow(&self.flows, slot);
                        (f.src != f.dst).then_some((slot, f.src, f.dst))
                    });
                    if let Some((slot, src, dst)) = survivor {
                        let rate = self.lone_flow_rate(src, dst);
                        slot_flow_mut(&mut self.flows, slot).rate_bytes_per_sec = rate;
                    }
                }
                _ => self.recompute_rates(),
            }
        }
    }

    /// Tree-mode harvest: pop every due completion off the lazy heap,
    /// release the path links, and return the batch in slot order (the
    /// same order the flat path reports).
    fn take_completed_tree(&mut self, now: SimTime, done: &mut Vec<(FlowId, usize, usize)>) {
        let FluidNetwork {
            tree,
            flows,
            free_slots,
            node_touch,
            fabric_count,
            total_bytes_delivered,
            total_flows_completed,
            solver,
            ..
        } = self;
        let tree = tree
            .as_mut()
            // simlint: allow(panic-path): callers dispatch here only when tree mode was built; a None is corrupted state
            .expect("take_completed_tree requires tree mode");
        let (mut touched, mut skipped) = (0u64, 0u64);
        while let Some(&Reverse((finish, generation, slot))) = tree.heap.peek() {
            if finish > now {
                break;
            }
            tree.heap.pop();
            let stale = flows
                .get(slot)
                .and_then(|f| f.as_ref())
                .is_none_or(|f| f.generation != generation);
            if stale {
                continue;
            }
            // simlint: allow(panic-path): the stale check above just proved the slot holds this generation's flow
            let flow = flows[slot].take().expect("live slot holds a flow");
            done.push((FlowId(slot), flow.src, flow.dst));
            free_slots.push(slot);
            node_touch[flow.src] -= 1;
            node_touch[flow.dst] -= 1;
            *total_bytes_delivered += flow.remaining_bytes;
            *total_flows_completed += 1;
            tree.active_count -= 1;
            if flow.src != flow.dst {
                *fabric_count -= 1;
                let mut path = std::mem::take(&mut tree.path_scratch);
                path.clear();
                tree.table.push_path(flow.src, flow.dst, &mut path);
                for &l in &path {
                    let l = l as usize;
                    tree.count[l] -= 1;
                    if tree.requantize(l) {
                        touched += 1;
                    } else {
                        skipped += 1;
                    }
                }
                tree.path_scratch = path;
            }
        }
        solver.note_domains(touched, skipped);
        done.sort_unstable_by_key(|&(id, _, _)| id.0);
    }

    /// True while `node` has at least one active flow touching it (drives
    /// the NIC power state). O(1).
    pub fn node_busy(&self, node: usize) -> bool {
        self.node_touch[node] > 0
    }

    /// Number of in-flight flows. O(1).
    pub fn active_flows(&self) -> usize {
        match &self.tree {
            Some(tree) => tree.active_count,
            None => self.active_slots.len(),
        }
    }

    /// The current fair-share rate of a live flow, bytes/s.
    pub fn current_rate(&self, id: FlowId) -> Option<f64> {
        self.flows
            .get(id.0)
            .and_then(|slot| slot.as_ref())
            .map(|f| f.rate_bytes_per_sec)
    }

    /// Total payload bytes fully drained so far.
    pub fn bytes_delivered(&self) -> f64 {
        self.total_bytes_delivered
    }

    /// Total flows completed so far.
    pub fn flows_completed(&self) -> u64 {
        self.total_flows_completed
    }

    /// How many times the full progressive-filling recompute ran (the
    /// loopback / lone-fabric fast paths don't count — that's the point
    /// of tracking it).
    pub fn rate_recomputes(&self) -> u64 {
        self.total_rate_recomputes
    }

    /// Work counters of the embedded max-min fair solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> FluidNetwork {
        FluidNetwork::new(NetworkParams::catalyst_2950_100m(), nodes)
    }

    /// Test-side convenience over the allocation-free harvest call.
    fn take(n: &mut FluidNetwork, now: SimTime) -> Vec<(FlowId, usize, usize)> {
        let mut done = Vec::new();
        n.take_completed_into(now, &mut done);
        done
    }

    #[test]
    fn lone_flow_drains_at_link_rate() {
        let mut n = net(2);
        let bytes = 1_150_000u64; // ~0.1 s at 11.5 MB/s
        n.start_flow(SimTime::ZERO, 0, 1, bytes);
        let done_at = n.next_completion().unwrap();
        let expect = bytes as f64 / n.params().goodput_bytes_per_sec();
        assert!((done_at.as_secs_f64() - expect).abs() < 1e-6);
        let done = take(&mut n, done_at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 0);
        assert_eq!(done[0].2, 1);
        assert_eq!(n.active_flows(), 0);
    }

    #[test]
    fn sharing_halves_rate_then_releases() {
        let mut n = net(3);
        let b = 1_000_000u64;
        n.start_flow(SimTime::ZERO, 0, 1, b);
        n.start_flow(SimTime::ZERO, 0, 2, b);
        // Both share node 0's uplink: each finishes in 2x the solo time.
        let solo = b as f64 / n.params().goodput_bytes_per_sec();
        let t1 = n.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 2.0 * solo).abs() < 1e-6, "{t1}");
        let done = take(&mut n, t1);
        assert_eq!(done.len(), 2); // identical flows drain together
    }

    #[test]
    fn staggered_start_speeds_up_survivor() {
        let mut n = net(3);
        let b = 2_300_000u64; // ~0.2 s solo
        let gbps = n.params().goodput_bytes_per_sec();
        n.start_flow(SimTime::ZERO, 0, 1, b);
        // Second flow starts when the first is half done.
        let half = SimTime::from_secs(0) + SimDuration::from_secs_f64(0.5 * b as f64 / gbps);
        n.start_flow(half, 0, 2, b);
        // First flow: half at full rate + half at half rate = 1.5x solo.
        let t1 = n.next_completion().unwrap();
        let solo = b as f64 / gbps;
        assert!((t1.as_secs_f64() - 1.5 * solo).abs() < 1e-6);
        let done = take(&mut n, t1);
        assert_eq!(done.len(), 1);
        // Survivor then gets the full link back.
        let t2 = n.next_completion().unwrap();
        assert!(t2 > t1);
        assert_eq!(take(&mut n, t2).len(), 1);
    }

    #[test]
    fn survivor_rate_restored_without_full_recompute() {
        // Exercises the fabric_count == 1 fast path in take_completed.
        let mut n = net(3);
        n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        let long = n.start_flow(SimTime::ZERO, 0, 2, 5_000_000);
        let half = n.params().goodput_bytes_per_sec() / 2.0;
        assert_eq!(n.current_rate(long).unwrap().to_bits(), half.to_bits());
        let t1 = n.next_completion().unwrap();
        assert_eq!(take(&mut n, t1).len(), 1);
        let full = n.params().goodput_bytes_per_sec();
        assert_eq!(n.current_rate(long).unwrap().to_bits(), full.to_bits());
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, 0, 1, 0);
        let t = n.next_completion().unwrap();
        assert!(t.as_secs_f64() < 1e-9);
        assert_eq!(take(&mut n, t).len(), 1);
    }

    #[test]
    fn node_busy_tracks_flow_presence() {
        let mut n = net(3);
        assert!(!n.node_busy(0));
        n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        assert!(n.node_busy(0));
        assert!(n.node_busy(1));
        assert!(!n.node_busy(2));
        let t = n.next_completion().unwrap();
        take(&mut n, t);
        assert!(!n.node_busy(0));
    }

    #[test]
    fn loopback_is_fast_and_does_not_contend() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, 0, 0, 10_000_000);
        n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        // Loopback 10 MB at 1 GB/s = 10 ms, fabric 1 MB ~ 87 ms.
        let t1 = n.next_completion().unwrap();
        let done = take(&mut n, t1);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 0);
        assert_eq!(done[0].2, 0);
    }

    #[test]
    fn accounting_tracks_bytes_and_flows() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, 0, 1, 500_000);
        let t = n.next_completion().unwrap();
        take(&mut n, t);
        assert_eq!(n.flows_completed(), 1);
        assert!((n.bytes_delivered() - 500_000.0).abs() < 1.0);
    }

    #[test]
    fn recompute_counter_skips_fast_paths() {
        let mut n = net(3);
        // Lone fabric flow and loopback: both fast paths, no recompute.
        n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        n.start_flow(SimTime::ZERO, 2, 2, 1_000_000);
        assert_eq!(n.rate_recomputes(), 0);
        assert_eq!(n.solver_stats().invocations, 0);
        // A second fabric flow forces the solver.
        n.start_flow(SimTime::ZERO, 0, 2, 1_000_000);
        assert_eq!(n.rate_recomputes(), 1);
        assert_eq!(n.solver_stats().invocations, 1);
    }

    #[test]
    fn incast_serializes_on_downlink() {
        // 4 senders to one root: each gets 1/4 of the root downlink, so the
        // batch takes 4x a solo transfer — the transpose gather bottleneck.
        let mut n = net(5);
        let b = 1_000_000u64;
        for s in 1..5 {
            n.start_flow(SimTime::ZERO, s, 0, b);
        }
        let solo = b as f64 / n.params().goodput_bytes_per_sec();
        let t = n.next_completion().unwrap();
        assert!((t.as_secs_f64() - 4.0 * solo).abs() < 1e-6);
        assert_eq!(take(&mut n, t).len(), 4);
    }

    #[test]
    fn slot_reuse_after_completion() {
        let mut n = net(2);
        let a = n.start_flow(SimTime::ZERO, 0, 1, 1000);
        let t = n.next_completion().unwrap();
        take(&mut n, t);
        let b = n.start_flow(t, 1, 0, 1000);
        assert_eq!(a.0, b.0, "slot should be recycled");
    }

    #[test]
    fn take_completed_into_reuses_buffer() {
        let mut n = net(2);
        let mut done = Vec::new();
        n.start_flow(SimTime::ZERO, 0, 1, 1000);
        let t = n.next_completion().unwrap();
        n.take_completed_into(t, &mut done);
        assert_eq!(done.len(), 1);
        n.start_flow(t, 0, 1, 1000);
        let t2 = n.next_completion().unwrap();
        n.take_completed_into(t2, &mut done);
        assert_eq!(done.len(), 1, "buffer must be cleared per call");
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn bad_endpoint_panics() {
        net(2).start_flow(SimTime::ZERO, 0, 5, 10);
    }

    #[test]
    fn degraded_link_slows_lone_flow() {
        let mut n = net(2);
        n.set_link_bandwidth_factor(1, 0.5);
        let id = n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        let half = n.params().goodput_bytes_per_sec() / 2.0;
        assert_eq!(n.current_rate(id).unwrap().to_bits(), half.to_bits());
        // Flows avoiding the weak node still get the full link.
        let mut ok = net(3);
        ok.set_link_bandwidth_factor(2, 0.5);
        let id = ok.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        let full = ok.params().goodput_bytes_per_sec();
        assert_eq!(ok.current_rate(id).unwrap().to_bits(), full.to_bits());
    }

    #[test]
    fn degraded_link_survivor_fast_path_respects_cap() {
        let mut n = net(3);
        n.set_link_bandwidth_factor(2, 0.25);
        n.start_flow(SimTime::ZERO, 0, 1, 1_000);
        let long = n.start_flow(SimTime::ZERO, 0, 2, 50_000_000);
        let t1 = n.next_completion().unwrap();
        assert_eq!(take(&mut n, t1).len(), 1);
        // The survivor crosses the weak link: a quarter rate, not full.
        let quarter = n.params().goodput_bytes_per_sec() * 0.25;
        assert!((n.current_rate(long).unwrap() - quarter).abs() < 1.0);
    }

    #[test]
    fn degraded_link_factors_compose() {
        let mut n = net(2);
        n.set_link_bandwidth_factor(0, 0.5);
        n.set_link_bandwidth_factor(0, 0.5);
        let id = n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        let quarter = n.params().goodput_bytes_per_sec() * 0.25;
        assert!((n.current_rate(id).unwrap() - quarter).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn degraded_link_rejects_zero_factor() {
        net(2).set_link_bandwidth_factor(0, 0.0);
    }

    fn tree_net(nodes: usize, radix: usize, oversub: f64) -> FluidNetwork {
        FluidNetwork::with_topology(
            NetworkParams::catalyst_2950_100m(),
            nodes,
            &Topology::FatTree { radix, oversub },
        )
    }

    #[test]
    fn flat_topology_stays_on_flat_model() {
        let n =
            FluidNetwork::with_topology(NetworkParams::catalyst_2950_100m(), 4, &Topology::Flat);
        assert!(!n.is_hierarchical());
        assert!(tree_net(4, 2, 2.0).is_hierarchical());
    }

    #[test]
    fn tree_lone_flow_drains_at_edge_rate() {
        let mut n = tree_net(4, 2, 1.0);
        let bytes = 1_150_000u64;
        n.start_flow(SimTime::ZERO, 0, 1, bytes);
        let done_at = n.next_completion().unwrap();
        let expect = bytes as f64 / n.params().goodput_bytes_per_sec();
        assert!((done_at.as_secs_f64() - expect).abs() < 1e-6);
        let done = take(&mut n, done_at);
        assert_eq!(done, vec![(FlowId(0), 0, 1)]);
        assert_eq!(n.active_flows(), 0);
        assert!(!n.node_busy(0));
    }

    #[test]
    fn tree_oversubscribed_trunk_throttles_cross_leaf_flow() {
        // radix 2, oversub 4: a cross-leaf flow is trunk-limited to half
        // the edge rate even with no contention.
        let mut n = tree_net(4, 2, 4.0);
        let id = n.start_flow(SimTime::ZERO, 0, 2, 1_000_000);
        let half = n.params().goodput_bytes_per_sec() / 2.0;
        let got = n.current_rate(id).unwrap();
        assert!((got - half).abs() <= half * 1e-6, "{got} vs {half}");
        // An intra-leaf flow still gets (close to) the full edge.
        let intra = n.start_flow(SimTime::ZERO, 2, 3, 1_000_000);
        let full = n.params().goodput_bytes_per_sec();
        let got = n.current_rate(intra).unwrap();
        assert!((got - full).abs() <= full * 1e-5, "{got} vs {full}");
    }

    #[test]
    fn tree_flows_all_drain_and_account() {
        let mut n = tree_net(8, 2, 2.0);
        let mut total = 0u64;
        for s in 0..8usize {
            let bytes = 100_000 + 50_000 * s as u64;
            n.start_flow(SimTime::ZERO, s, (s + 3) % 8, bytes);
            total += bytes;
        }
        let mut completed = 0;
        let mut guard = 0;
        while let Some(t) = n.next_completion() {
            completed += take(&mut n, t).len();
            guard += 1;
            assert!(guard < 1000, "tree network failed to converge");
        }
        assert_eq!(completed, 8);
        assert_eq!(n.active_flows(), 0);
        assert!((n.bytes_delivered() - total as f64).abs() < 1.0);
        assert_eq!(n.flows_completed(), 8);
        // Incremental domain bookkeeping fired.
        let stats = n.solver_stats();
        assert!(stats.domains_touched > 0, "{stats:?}");
    }

    #[test]
    fn tree_quantization_skips_unmoved_domains() {
        // Dense load on one path: once a link's count is past
        // sqrt(cap/quantum) (~1.2k here), one more flow no longer moves
        // the quantized share and the whole update is a skipped domain.
        let mut n = tree_net(4, 2, 1.0);
        for _ in 0..5000 {
            n.start_flow(SimTime::ZERO, 0, 2, 1_000_000);
        }
        let stats = n.solver_stats();
        assert!(
            stats.domains_skipped > stats.domains_touched,
            "quantization should skip most domains under dense load: {stats:?}"
        );
    }

    #[test]
    fn tree_runs_are_deterministic() {
        let run = || {
            let mut n = tree_net(8, 2, 2.0);
            let mut events = Vec::new();
            for i in 0..32usize {
                n.start_flow(
                    SimTime::ZERO,
                    i % 8,
                    (i * 5 + 2) % 8,
                    10_000 + i as u64 * 997,
                );
            }
            while let Some(t) = n.next_completion() {
                for (id, src, dst) in take(&mut n, t) {
                    events.push((t, id.0, src, dst));
                }
            }
            (events, n.bytes_delivered().to_bits(), n.solver_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tree_degraded_edge_slows_flow() {
        let mut n = tree_net(4, 2, 1.0);
        n.set_link_bandwidth_factor(1, 0.5);
        let id = n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        let half = n.params().goodput_bytes_per_sec() / 2.0;
        let got = n.current_rate(id).unwrap();
        assert!((got - half).abs() <= half * 1e-6, "{got} vs {half}");
    }

    #[test]
    fn tree_slot_reuse_keeps_completions_fresh() {
        let mut n = tree_net(4, 2, 1.0);
        let a = n.start_flow(SimTime::ZERO, 0, 1, 1000);
        let t = n.next_completion().unwrap();
        assert_eq!(take(&mut n, t).len(), 1);
        // Recycled slot with a new generation; the old heap entry is gone.
        let b = n.start_flow(t, 1, 0, 1000);
        assert_eq!(a.0, b.0, "slot should be recycled");
        let t2 = n.next_completion().unwrap();
        assert_eq!(take(&mut n, t2), vec![(b, 1, 0)]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::fair_share::max_min_fair;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Test-side convenience over the allocation-free harvest call.
    fn take_p(n: &mut FluidNetwork, now: SimTime) -> Vec<(FlowId, usize, usize)> {
        let mut done = Vec::new();
        n.take_completed_into(now, &mut done);
        done
    }

    proptest! {
        /// Any batch of flows fully drains, delivering exactly the bytes
        /// that were injected, regardless of contention pattern.
        #[test]
        fn prop_all_flows_drain_and_bytes_conserve(
            flows in proptest::collection::vec((0usize..6, 0usize..6, 1u64..5_000_000), 1..24)
        ) {
            let mut net = FluidNetwork::new(NetworkParams::catalyst_2950_100m(), 6);
            let mut total = 0u64;
            for &(src, dst, bytes) in &flows {
                net.start_flow(SimTime::ZERO, src, dst, bytes);
                total += bytes;
            }
            let mut completed = 0usize;
            let mut guard = 0;
            while let Some(t) = net.next_completion() {
                completed += take_p(&mut net, t).len();
                guard += 1;
                prop_assert!(guard < 10_000, "network failed to converge");
            }
            prop_assert_eq!(completed, flows.len());
            prop_assert_eq!(net.active_flows(), 0);
            prop_assert!((net.bytes_delivered() - total as f64).abs() < 1.0,
                "delivered {} of {}", net.bytes_delivered(), total);
        }

        /// Completion time is never better than the contention-free bound
        /// (bytes / link rate) and never worse than full serialization of
        /// everything sharing the slowest link.
        #[test]
        fn prop_completion_bounded(
            flows in proptest::collection::vec((0usize..4, 0usize..4, 100_000u64..2_000_000), 1..12)
        ) {
            let params = NetworkParams::catalyst_2950_100m();
            let rate = params.goodput_bytes_per_sec();
            let mut net = FluidNetwork::new(params, 4);
            let mut total_fabric = 0u64;
            let mut max_single = 0u64;
            for &(src, dst, bytes) in &flows {
                net.start_flow(SimTime::ZERO, src, dst, bytes);
                if src != dst {
                    total_fabric += bytes;
                    max_single = max_single.max(bytes);
                }
            }
            prop_assume!(total_fabric > 0);
            let mut last = SimTime::ZERO;
            while let Some(t) = net.next_completion() {
                take_p(&mut net, t);
                last = t;
            }
            let lower = max_single as f64 / rate;
            // Upper bound: all fabric bytes through one link pair.
            let upper = total_fabric as f64 / rate + 1e-6;
            prop_assert!(last.as_secs_f64() >= lower * 0.999, "{} < {}", last.as_secs_f64(), lower);
            prop_assert!(last.as_secs_f64() <= upper, "{} > {}", last.as_secs_f64(), upper);
        }

        /// The incremental rate maintenance (loopback skip, lone-fabric fast
        /// path, reused solver scratch) is bit-identical to a from-scratch
        /// progressive filling over the live flow set, under an arbitrary
        /// interleaving of arrivals and completions.
        #[test]
        fn prop_incremental_rates_match_from_scratch(
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..5, 0usize..5, 1_000u64..2_000_000), 1..40)
        ) {
            let params = NetworkParams::catalyst_2950_100m();
            let goodput = params.goodput_bytes_per_sec();
            let mut net = FluidNetwork::new(params, 5);
            let mut shadow: BTreeMap<usize, FlowEndpoints> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for &(complete, src, dst, bytes) in &ops {
                if complete {
                    if let Some(t) = net.next_completion() {
                        now = t;
                        for (id, _, _) in take_p(&mut net, now) {
                            shadow.remove(&id.0);
                        }
                    }
                } else {
                    let id = net.start_flow(now, src, dst, bytes);
                    shadow.insert(id.0, FlowEndpoints { src, dst });
                }
                let endpoints: Vec<FlowEndpoints> = shadow.values().copied().collect();
                let expect = max_min_fair(&endpoints, 5, goodput, LOOPBACK_BYTES_PER_SEC);
                for ((slot, _), exp) in shadow.iter().zip(&expect) {
                    let got = net.current_rate(FlowId(*slot)).unwrap();
                    prop_assert!(got.to_bits() == exp.to_bits(),
                        "slot {} rate {} != from-scratch {}", slot, got, exp);
                }
            }
        }
    }
}
