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
//! flows never contend for the switch, so their arrivals and departures
//! leave every other rate untouched. On the flat switch a fabric flow
//! crosses exactly two links, its source's uplink `2·src` and its
//! destination's downlink `2·dst+1` (the [`LinkTable`] numbering), and
//! the network keeps, per link, the live fabric flows crossing it. Max-min
//! fairness decomposes over the connected components of the
//! flow–link graph, so an arrival or departure re-solves only what it
//! touches: from each changed flow's two links it walks shared links to
//! collect each connected component separately, sorts the component's
//! slots, and runs [`FairShare`] over that component alone. Components
//! are solved one at a time on purpose: a single call over the union of
//! two components re-couples them through the solver's freeze tolerance.
//!
//! That tolerance is also why the per-component answer needs a guard to
//! be exact. The global solve freezes, in a round at bottleneck share
//! `b`, every flow whose tightest link offers at most `b · (1 + 1e-12)`;
//! two components whose fill levels differ but sit within that window are
//! frozen together at the lower level. The network therefore keeps the
//! sorted multiset of every fabric flow's component share and counts the
//! adjacent distinct values within the tolerance. While that count is
//! nonzero, or while any component solve needed the fallback freeze or
//! gave a non-positive share, the network publishes the full
//! from-scratch solve instead; when the condition clears it publishes the
//! component shares again. A one-flow component skips the solver:
//! filling one flow yields `min(cap_up, cap_down)`, published directly.
//! Link capacities come from the flat [`LinkTable`], which a degraded-link
//! fault scales in place. Scratch buffers are reused, so the steady-state
//! event loop allocates nothing, and every published rate is
//! bit-identical to the from-scratch flat solve over the live flows —
//! property and seeded-sequence tests below check this bitwise.
//!
//! ## Dense draining
//!
//! Draining and the next-completion query still visit every live flow,
//! but as a stream: each flat-mode flow's remaining bytes and rate live
//! only in two `f64` arrays parallel to the sorted `active_slots`, and
//! solves write rates into them by position. `advance` and the drained
//! scan of `take_completed_into` walk them in ascending slot order, so
//! `bytes_delivered` sums in the order a per-flow sweep would.
//! `next_completion` divides only for flows that could lower the running
//! minimum (see `min_drain_secs`), with the bits of a plain minimum over
//! every flow's `remaining / rate`.
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
//!   along its up/down path, and its completion time goes into a min-heap
//!   keyed by `(finish, admission sequence, slot)` — flows drain lazily,
//!   so `advance` is O(1). A flow leaves only by popping its own entry,
//!   so the heap never holds a stale one. Among flows that finish at the
//!   same instant the sequence fixes the order their slots are freed
//!   (and so reused) and the order of the `bytes_delivered` sum;
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

use crate::fair_share::{freezes_at, FairShare, FlowEndpoints, SolverStats};
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
    /// Tree mode only: bytes left and drain rate. Flat mode keeps these
    /// in [`FluidNetwork`]'s dense `remaining`/`rate` arrays instead.
    remaining_bytes: f64,
    rate_bytes_per_sec: f64,
}

/// A live fabric flow's rate from the last solve of its connected
/// component alone. It is the published rate unless the near-tie guard
/// published the full solve.
#[derive(Debug, Clone, Copy)]
struct ComponentShare {
    share: f64,
    /// From a solve that hit the fallback freeze, or not positive: may
    /// differ from the full solve.
    suspect: bool,
}

/// Flat-mode state for per-component re-solves (see the module docs).
/// Left empty in tree mode.
#[derive(Debug, Default)]
struct FlatState {
    /// Per flow slot (one entry per `flows` slot): its component share,
    /// `None` for loopback flows, free slots and a new flow before its
    /// first solve.
    by_slot: Vec<Option<ComponentShare>>,
    /// Live fabric-flow slots crossing each link: `2v` is node `v`'s
    /// uplink, `2v+1` its downlink.
    members: Vec<Vec<usize>>,
    /// Per-link visit stamp of the component walks; a link is visited in
    /// the current update when its stamp equals `epoch`.
    stamp: Vec<u64>,
    epoch: u64,
    /// The `by_slot` shares, sorted by `f64::total_cmp`.
    shares: Vec<f64>,
    /// Adjacent distinct entries of `shares` close enough that the full
    /// solve would freeze them in one round.
    near_ties: usize,
    /// Live fabric flows whose share is suspect.
    suspects: usize,
    /// The published rates are the full solve's, not the component shares.
    published_full: bool,
    /// Links whose components the pending update must re-solve.
    seeds: Vec<usize>,
    /// Scratch: component walk stack and the component's slots.
    stack: Vec<usize>,
    component: Vec<usize>,
}

/// True when sorted neighbours `lo < hi` of the share multiset would be
/// frozen together by the full solve.
fn near_tie(lo: f64, hi: f64) -> bool {
    lo < hi && freezes_at(hi, lo)
}

impl FlatState {
    fn new(nodes: usize) -> Self {
        FlatState {
            members: vec![Vec::new(); 2 * nodes],
            stamp: vec![0; 2 * nodes],
            ..FlatState::default()
        }
    }

    fn insert_share(&mut self, x: f64) {
        let p = self.shares.partition_point(|y| y.total_cmp(&x).is_lt());
        let prev = p.checked_sub(1).map(|i| self.shares[i]);
        let next = self.shares.get(p).copied();
        if let (Some(a), Some(b)) = (prev, next) {
            self.near_ties -= usize::from(near_tie(a, b));
        }
        if let Some(a) = prev {
            self.near_ties += usize::from(near_tie(a, x));
        }
        if let Some(b) = next {
            self.near_ties += usize::from(near_tie(x, b));
        }
        self.shares.insert(p, x);
    }

    fn remove_share(&mut self, x: f64) {
        let p = self.shares.partition_point(|y| y.total_cmp(&x).is_lt());
        debug_assert_eq!(self.shares[p].to_bits(), x.to_bits());
        let prev = p.checked_sub(1).map(|i| self.shares[i]);
        let next = self.shares.get(p + 1).copied();
        if let Some(a) = prev {
            self.near_ties -= usize::from(near_tie(a, x));
        }
        if let Some(b) = next {
            self.near_ties -= usize::from(near_tie(x, b));
        }
        if let (Some(a), Some(b)) = (prev, next) {
            self.near_ties += usize::from(near_tie(a, b));
        }
        self.shares.remove(p);
    }

    /// Record `slot`'s new component share.
    fn set(&mut self, slot: usize, share: f64, suspect: bool) {
        if let Some(old) = self.by_slot[slot] {
            if old.share.to_bits() == share.to_bits() && old.suspect == suspect {
                return; // its multiset entry stands
            }
        }
        self.forget(slot);
        self.by_slot[slot] = Some(ComponentShare { share, suspect });
        self.suspects += usize::from(suspect);
        self.insert_share(share);
    }

    /// Drop `slot`'s component share (when its flow leaves).
    fn forget(&mut self, slot: usize) {
        if let Some(old) = self.by_slot[slot].take() {
            self.remove_share(old.share);
            self.suspects -= usize::from(old.suspect);
        }
    }

    /// Whether the component shares may differ from the full solve.
    fn guarded(&self) -> bool {
        self.near_ties > 0 || self.suspects > 0
    }
}

/// Incremental per-link state for hierarchical (fat-tree) fabrics, over
/// the network's [`LinkTable`].
#[derive(Debug)]
struct TreeState {
    /// Live fabric flows crossing each link.
    count: Vec<u32>,
    /// Quantized fair share of each link at its current count.
    qshare: Vec<f64>,
    /// Rate quantum (bytes/s); shares are floored to a multiple of it so
    /// small count changes leave them — and every dependent subtree —
    /// untouched.
    quantum: f64,
    /// Pending completions `(finish, admission sequence, slot)`, one per
    /// live flow.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
    path_scratch: Vec<u32>,
}

impl TreeState {
    /// Re-derive link `l`'s quantized share after a count/capacity
    /// change. Returns whether the share actually moved (a *touched*
    /// domain, in [`SolverStats`] terms).
    fn requantize(&mut self, table: &LinkTable, l: usize) -> bool {
        let c = self.count[l];
        let share = if c == 0 {
            table.capacity(l)
        } else {
            quantize(table.capacity(l) / c as f64, self.quantum)
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
#[expect(
    clippy::expect_used,
    reason = "active-slot invariant documented above; corrupted bookkeeping must stop the run"
)]
fn slot_flow(flows: &[Option<ActiveFlow>], slot: usize) -> &ActiveFlow {
    flows[slot].as_ref().expect("active slot holds a flow")
}

/// Position of a live flat-mode flow's `slot` in the sorted
/// `active_slots`, which indexes the dense `remaining`/`rate` arrays.
#[expect(
    clippy::expect_used,
    reason = "callers pass live slots only, and every live flat-mode slot is in `active_slots`; corrupted bookkeeping must stop the run"
)]
fn slot_pos(active_slots: &[usize], slot: usize) -> usize {
    active_slots
        .binary_search(&slot)
        .expect("live slot is active")
}

/// The least `remaining[i] / rate[i]` (0 for a drained flow), `None` for
/// no flows: the same value a plain `f64::min` fold over every flow gives,
/// without dividing for most of them.
///
/// A flow with `r > best · c` (the rounded product) cannot lower the
/// minimum `best`. The rounded product is the float nearest the exact
/// one, so no float lies strictly between them: `r` exceeds the exact
/// `best · c` too, its exact quotient exceeds `best`, and the rounded
/// quotient is at least `best`. The test only holds for `c > 0`, so other
/// rates always divide. A drained flow ends the scan: nothing drains
/// sooner than now.
fn min_drain_secs(remaining: &[f64], rate: &[f64]) -> Option<f64> {
    if remaining.is_empty() {
        return None;
    }
    let mut best = f64::INFINITY;
    for (&r, &c) in remaining.iter().zip(rate) {
        if r <= EPS_BYTES {
            return Some(0.0);
        }
        if c > 0.0 && r > best * c {
            continue;
        }
        best = best.min(r / c);
    }
    Some(best)
}

/// A switched network carrying fluid flows between `nodes` endpoints.
#[derive(Debug)]
pub struct FluidNetwork {
    params: NetworkParams,
    nodes: usize,
    flows: Vec<Option<ActiveFlow>>,
    free_slots: Vec<usize>,
    /// Slots of live flat-mode flows, kept sorted ascending so every scan
    /// visits flows in the same order a full `flows` sweep would. Empty
    /// in tree mode.
    active_slots: Vec<usize>,
    /// Per entry of `active_slots`: the flow's bytes left to drain and
    /// its published rate (bytes/s). The only copy of either value in
    /// flat mode, stored densely so draining and the next-completion
    /// query stream two arrays.
    remaining: Vec<f64>,
    rate: Vec<f64>,
    /// Per node: how many live flows touch it as src or dst (a loopback
    /// flow counts twice). Makes `node_busy` O(1).
    node_touch: Vec<usize>,
    /// The compiled topology: per-link capacities (bytes/s) and routes.
    /// Flat mode reads only the edge links `2v`/`2v+1`.
    table: LinkTable,
    /// Hierarchical-fabric state; `None` selects the flat model.
    tree: Option<Box<TreeState>>,
    /// Flat-fabric component state; empty in tree mode. Boxed to keep
    /// the network (embedded in the engine) small.
    flat: Box<FlatState>,
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
        Self::with_topology(params, nodes, &Topology::Flat)
    }

    /// A network of `nodes` endpoints routed over `topology`. A flat
    /// topology is exactly [`FluidNetwork::new`]; a fat-tree switches to
    /// the incremental tree-mode model (see the module docs).
    pub fn with_topology(params: NetworkParams, nodes: usize, topology: &Topology) -> Self {
        params.validate();
        let table = topology.link_table(nodes, params.goodput_bytes_per_sec());
        let (tree, flat) = if *topology == Topology::Flat {
            (None, FlatState::new(nodes))
        } else {
            // ~1e-6 of the edge rate: coarse enough that counts drifting
            // by a few flows rarely move a share, fine enough that the
            // rounding is irrelevant to simulated transfer times.
            let quantum = params.goodput_bytes_per_sec() / (1u64 << 20) as f64;
            let tree = TreeState {
                qshare: table.capacities().to_vec(),
                count: vec![0; table.num_links()],
                quantum,
                heap: BinaryHeap::new(),
                next_seq: 0,
                path_scratch: Vec::new(),
            };
            (Some(Box::new(tree)), FlatState::default())
        };
        FluidNetwork {
            params,
            nodes,
            flows: Vec::new(),
            free_slots: Vec::new(),
            active_slots: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            node_touch: vec![0; nodes],
            table,
            tree,
            flat: Box::new(flat),
            last_advance: SimTime::ZERO,
            total_bytes_delivered: 0.0,
            total_flows_completed: 0,
            total_rate_recomputes: 0,
            solver: FairShare::new(),
            scratch_endpoints: Vec::new(),
            scratch_rates: Vec::new(),
        }
    }

    /// Network parameters in force.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Degrade `node`'s link to `factor` (in (0, 1]) of the nominal
    /// goodput — the fault-injection path for a failing cable or duplex
    /// mismatch. Call before traffic starts; cumulative if called twice
    /// for the same node. Degrades both directions of the node's edge
    /// link in the link table.
    pub fn set_link_bandwidth_factor(&mut self, node: usize, factor: f64) {
        self.table.scale_edge_capacity(node, factor);
        if let Some(tree) = &mut self.tree {
            tree.requantize(&self.table, 2 * node);
            tree.requantize(&self.table, 2 * node + 1);
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
            // Tree-mode flows drain lazily; these arrays are empty there.
            for (left, &rate) in self.remaining.iter_mut().zip(&self.rate) {
                let moved = rate * dt;
                let drained = moved.min(*left);
                *left -= drained;
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
            remaining_bytes: 0.0,
            rate_bytes_per_sec: 0.0,
        };
        let id = if let Some(slot) = self.free_slots.pop() {
            self.flows[slot] = Some(flow);
            slot
        } else {
            self.flows.push(Some(flow));
            self.flat.by_slot.push(None);
            self.flows.len() - 1
        };
        // A freshly allocated slot is never already active, so its
        // position is the first active slot above it.
        let pos = self.active_slots.partition_point(|&s| s < id);
        self.active_slots.insert(pos, id);
        self.remaining.insert(pos, bytes as f64);
        // Loopback never contends: nobody else's rate changes. A fabric
        // flow's rate comes from the solve below.
        let rate = if src == dst {
            LOOPBACK_BYTES_PER_SEC
        } else {
            0.0
        };
        self.rate.insert(pos, rate);
        self.node_touch[src] += 1;
        self.node_touch[dst] += 1;

        if src != dst {
            let flat = &mut self.flat;
            flat.members[2 * src].push(id);
            flat.members[2 * dst + 1].push(id);
            flat.seeds.push(2 * src);
            self.resolve_components();
        }
        FlowId(id)
    }

    /// Tree-mode admission: bump the path links' counts, fix the flow's
    /// rate to the minimum quantized share along its path, and schedule
    /// its completion. O(path · log flows).
    fn start_flow_tree(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> FlowId {
        self.advance(now);
        let table = &self.table;
        #[expect(
            clippy::expect_used,
            reason = "callers dispatch here only when tree mode was built; a None is corrupted state"
        )]
        let tree = self
            .tree
            .as_mut()
            .expect("start_flow_tree requires tree mode");
        let seq = tree.next_seq;
        tree.next_seq += 1;

        let rate = if src == dst {
            LOOPBACK_BYTES_PER_SEC
        } else {
            let mut path = std::mem::take(&mut tree.path_scratch);
            path.clear();
            table.push_path(src, dst, &mut path);
            let (mut touched, mut skipped) = (0u64, 0u64);
            let mut rate = f64::INFINITY;
            for &l in &path {
                let l = l as usize;
                tree.count[l] += 1;
                if tree.requantize(table, l) {
                    touched += 1;
                } else {
                    skipped += 1;
                }
                rate = rate.min(tree.qshare[l]);
            }
            tree.path_scratch = path;
            self.solver.note_domains(touched, skipped);
            rate
        };

        let flow = ActiveFlow {
            src,
            dst,
            remaining_bytes: bytes as f64,
            rate_bytes_per_sec: rate,
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

        #[expect(
            clippy::expect_used,
            reason = "same tree-mode dispatch invariant as above"
        )]
        let tree = self.tree.as_mut().expect("tree mode");
        let finish = completion_instant(now, bytes as f64, rate);
        tree.heap.push(Reverse((finish, seq, id)));
        FlowId(id)
    }

    /// Re-solve, one at a time, the connected components that contain the
    /// links in `flat.seeds`, and publish their component shares, or the
    /// full solve while the near-tie guard holds.
    fn resolve_components(&mut self) {
        let FluidNetwork {
            nodes,
            flows,
            active_slots,
            rate,
            table,
            flat,
            solver,
            scratch_endpoints,
            scratch_rates,
            ..
        } = self;
        flat.epoch += 1;
        // Every seed link carries a live flow, so each walk below finds a
        // non-empty component.
        let solved = !flat.seeds.is_empty();
        for k in 0..flat.seeds.len() {
            let seed = flat.seeds[k];
            if flat.stamp[seed] == flat.epoch {
                continue;
            }
            // Walk shared links. Every fabric flow has exactly one uplink
            // (an even id), so collecting at uplinks lists each once.
            flat.stamp[seed] = flat.epoch;
            flat.stack.push(seed);
            flat.component.clear();
            while let Some(link) = flat.stack.pop() {
                let up = link % 2 == 0;
                for &slot in &flat.members[link] {
                    let f = slot_flow(flows, slot);
                    let other = if up { 2 * f.dst + 1 } else { 2 * f.src };
                    if flat.stamp[other] != flat.epoch {
                        flat.stamp[other] = flat.epoch;
                        flat.stack.push(other);
                    }
                }
                if up {
                    flat.component.extend_from_slice(&flat.members[link]);
                }
            }
            if let [slot] = flat.component[..] {
                // A lone flow gets its tighter link: what filling it gives.
                let f = slot_flow(flows, slot);
                let share =
                    solver.solve_one_flat(table.capacity(2 * f.src), table.capacity(2 * f.dst + 1));
                rate[slot_pos(active_slots, slot)] = share;
                flat.set(slot, share, share <= 0.0);
                continue;
            }
            // Slot order is the order the full solve visits these flows.
            flat.component.sort_unstable();
            scratch_endpoints.clear();
            for &slot in &flat.component {
                let f = slot_flow(flows, slot);
                scratch_endpoints.push(FlowEndpoints {
                    src: f.src,
                    dst: f.dst,
                });
            }
            let fallbacks = solver.stats().fallback_freezes;
            solver.compute_flat_into(
                scratch_endpoints,
                *nodes,
                |link| table.capacity(link),
                LOOPBACK_BYTES_PER_SEC,
                scratch_rates,
            );
            let fell_back = solver.stats().fallback_freezes != fallbacks;
            for (k, &share) in scratch_rates.iter().enumerate() {
                let slot = flat.component[k];
                // Published now; if the guard holds below, the full
                // solve overwrites every rate anyway.
                rate[slot_pos(active_slots, slot)] = share;
                flat.set(slot, share, fell_back || share <= 0.0);
            }
        }
        flat.seeds.clear();

        if flat.guarded() {
            flat.published_full = true;
            self.recompute_rates();
            return;
        }
        if solved {
            self.total_rate_recomputes += 1;
        }
        if std::mem::take(&mut self.flat.published_full) {
            // The last publish was the full solve: every survivor goes
            // back to its component share.
            for (rate, &slot) in self.rate.iter_mut().zip(&self.active_slots) {
                if let Some(c) = self.flat.by_slot[slot] {
                    *rate = c.share;
                }
            }
        }
    }

    /// The full solve over every live flow, published while the near-tie
    /// guard holds.
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
        let table = &self.table;
        self.solver.compute_flat_into(
            &self.scratch_endpoints,
            self.nodes,
            |link| table.capacity(link),
            LOOPBACK_BYTES_PER_SEC,
            &mut self.scratch_rates,
        );
        // The solve visited the live flows in `active_slots` order.
        self.rate.copy_from_slice(&self.scratch_rates);
    }

    /// Absolute time at which the earliest active flow drains, or `None`
    /// when the network is idle. Always strictly at-or-after the last
    /// `advance` point; rounding is upward so the flow is guaranteed
    /// drained by the returned instant.
    pub fn next_completion(&self) -> Option<SimTime> {
        if let Some(tree) = &self.tree {
            return tree.heap.peek().map(|&Reverse((t, _, _))| t);
        }
        min_drain_secs(&self.remaining, &self.rate).map(|secs| {
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
        // Flows before the first drained one keep their positions.
        let Some(first) = self.remaining.iter().position(|&r| r <= EPS_BYTES) else {
            return;
        };
        let mut removed_fabric = false;
        let mut keep = first;
        for read in first..self.active_slots.len() {
            let slot = self.active_slots[read];
            if self.remaining[read] <= EPS_BYTES {
                let f = slot_flow(&self.flows, slot);
                let (src, dst) = (f.src, f.dst);
                done.push((FlowId(slot), src, dst));
                self.flows[slot] = None;
                self.free_slots.push(slot);
                self.node_touch[src] -= 1;
                self.node_touch[dst] -= 1;
                if src != dst {
                    // The survivors on both links lose a competitor.
                    let flat = &mut self.flat;
                    flat.forget(slot);
                    for link in [2 * src, 2 * dst + 1] {
                        let members = &mut flat.members[link];
                        if let Some(p) = members.iter().position(|&s| s == slot) {
                            members.swap_remove(p);
                        }
                        if !members.is_empty() {
                            flat.seeds.push(link);
                        }
                    }
                    removed_fabric = true;
                }
                self.total_flows_completed += 1;
            } else {
                self.active_slots[keep] = slot;
                self.remaining[keep] = self.remaining[read];
                self.rate[keep] = self.rate[read];
                keep += 1;
            }
        }
        self.active_slots.truncate(keep);
        self.remaining.truncate(keep);
        self.rate.truncate(keep);
        if removed_fabric {
            // Re-solve the survivors' components; also re-publishes when
            // the departure settles (or raises) the near-tie guard.
            self.resolve_components();
        }
    }

    /// Tree-mode harvest: pop every due completion off the heap, release
    /// the path links, and return the batch in slot order (the same order
    /// the flat path reports).
    fn take_completed_tree(&mut self, now: SimTime, done: &mut Vec<(FlowId, usize, usize)>) {
        let FluidNetwork {
            table,
            tree,
            flows,
            free_slots,
            node_touch,
            total_bytes_delivered,
            total_flows_completed,
            solver,
            ..
        } = self;
        #[expect(
            clippy::expect_used,
            reason = "callers dispatch here only when tree mode was built; a None is corrupted state"
        )]
        let tree = tree
            .as_mut()
            .expect("take_completed_tree requires tree mode");
        let (mut touched, mut skipped) = (0u64, 0u64);
        while let Some(&Reverse((finish, _, slot))) = tree.heap.peek() {
            if finish > now {
                break;
            }
            tree.heap.pop();
            #[expect(
                clippy::expect_used,
                reason = "a slot is freed only here, by popping its one heap entry, so the entry's slot holds its flow"
            )]
            let flow = flows[slot].take().expect("live slot holds a flow");
            done.push((FlowId(slot), flow.src, flow.dst));
            free_slots.push(slot);
            node_touch[flow.src] -= 1;
            node_touch[flow.dst] -= 1;
            *total_bytes_delivered += flow.remaining_bytes;
            *total_flows_completed += 1;
            if flow.src != flow.dst {
                let mut path = std::mem::take(&mut tree.path_scratch);
                path.clear();
                table.push_path(flow.src, flow.dst, &mut path);
                for &l in &path {
                    let l = l as usize;
                    tree.count[l] -= 1;
                    if tree.requantize(table, l) {
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

    /// The current fair-share rate of a live flow, bytes/s.
    pub fn current_rate(&self, id: FlowId) -> Option<f64> {
        if self.tree.is_some() {
            return self
                .flows
                .get(id.0)
                .and_then(|slot| slot.as_ref())
                .map(|f| f.rate_bytes_per_sec);
        }
        let pos = self.active_slots.binary_search(&id.0).ok()?;
        Some(self.rate[pos])
    }

    /// Total payload bytes fully drained so far.
    pub fn bytes_delivered(&self) -> f64 {
        self.total_bytes_delivered
    }

    /// Total flows completed so far.
    pub fn flows_completed(&self) -> u64 {
        self.total_flows_completed
    }

    /// How many fabric flow-set changes re-rated flows: each ran one
    /// solve per connected component it touched, or the full solve while
    /// the near-tie guard held. Loopback changes and departures that
    /// leave no fabric flow behind do not count.
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
    fn survivor_takes_the_whole_link_back() {
        // The departure re-solves the survivor's one-flow component.
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
    fn recompute_counter_skips_loopback_and_counts_components() {
        let mut n = net(6);
        // A loopback flow never runs the solver.
        n.start_flow(SimTime::ZERO, 2, 2, 1_000_000);
        assert_eq!(n.rate_recomputes(), 0);
        assert_eq!(n.solver_stats().invocations, 0);
        // Each fabric arrival solves its own component only.
        n.start_flow(SimTime::ZERO, 0, 1, 1_000_000);
        n.start_flow(SimTime::ZERO, 3, 4, 1_000_000);
        assert_eq!(n.rate_recomputes(), 2);
        assert_eq!(n.solver_stats().invocations, 2);
        // A flow bridging 0->1 and 3->4 (uplink 0, downlink 4) merges
        // them into one three-flow component: one more solve.
        n.start_flow(SimTime::ZERO, 0, 4, 1_000_000);
        assert_eq!(n.rate_recomputes(), 3);
        assert_eq!(n.solver_stats().invocations, 3);
    }

    #[test]
    fn departure_resolves_each_survivor_component_separately() {
        // 0->1 and 2->3 are joined only by the bridge 0->3 (uplink 0,
        // downlink 3). When the short bridge drains, the survivors fall
        // into two components, each solved on its own.
        let mut n = net(4);
        let a = n.start_flow(SimTime::ZERO, 0, 1, 5_000_000);
        let b = n.start_flow(SimTime::ZERO, 2, 3, 5_000_000);
        n.start_flow(SimTime::ZERO, 0, 3, 1_000);
        let before = n.solver_stats().invocations;
        let t = n.next_completion().unwrap();
        assert_eq!(take(&mut n, t).len(), 1);
        assert_eq!(n.solver_stats().invocations, before + 2);
        let full = n.params().goodput_bytes_per_sec();
        assert_eq!(n.current_rate(a).unwrap().to_bits(), full.to_bits());
        assert_eq!(n.current_rate(b).unwrap().to_bits(), full.to_bits());
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
    fn degraded_link_survivor_respects_cap() {
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
    fn tree_lone_flow_drains_at_edge_rate() {
        let mut n = tree_net(4, 2, 1.0);
        let bytes = 1_150_000u64;
        n.start_flow(SimTime::ZERO, 0, 1, bytes);
        let done_at = n.next_completion().unwrap();
        let expect = bytes as f64 / n.params().goodput_bytes_per_sec();
        assert!((done_at.as_secs_f64() - expect).abs() < 1e-6);
        let done = take(&mut n, done_at);
        assert_eq!(done, vec![(FlowId(0), 0, 1)]);
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
        // Recycled slot; the old flow's heap entry left with it.
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

    /// One step of a replayed sequence: `(complete, src, dst, bytes)`. A
    /// completion step harvests at the next completion instant; any
    /// other step starts a `src -> dst` flow of `bytes` at the current
    /// instant.
    type Op = (bool, usize, usize, u64);

    /// Drive `ops` through a flat network of `nodes` endpoints whose
    /// links in `weak` run at the given factors, and after every step
    /// compare each live flow's published rate bitwise against a
    /// from-scratch full solve over the live flows in slot order
    /// ([`FairShare::compute_into`], or
    /// [`FairShare::compute_with_capacities_into`] with degraded links).
    /// Returns the number of rates compared.
    fn replay(nodes: usize, weak: &[(usize, f64)], ops: &[Op]) -> Result<u64, String> {
        let params = NetworkParams::catalyst_2950_100m();
        let goodput = params.goodput_bytes_per_sec();
        let mut net = FluidNetwork::new(params, nodes);
        let mut caps = vec![goodput; nodes];
        for &(node, factor) in weak {
            net.set_link_bandwidth_factor(node, factor);
            caps[node] *= factor;
        }
        let mut shadow: BTreeMap<usize, FlowEndpoints> = BTreeMap::new();
        let mut oracle = FairShare::new();
        let mut expect = Vec::new();
        let mut now = SimTime::ZERO;
        let mut checked = 0u64;
        for (step, &(complete, src, dst, bytes)) in ops.iter().enumerate() {
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
            if weak.is_empty() {
                oracle.compute_into(
                    &endpoints,
                    nodes,
                    goodput,
                    LOOPBACK_BYTES_PER_SEC,
                    &mut expect,
                );
            } else {
                oracle.compute_with_capacities_into(
                    &endpoints,
                    nodes,
                    &caps,
                    LOOPBACK_BYTES_PER_SEC,
                    &mut expect,
                );
            }
            for ((&slot, f), exp) in shadow.iter().zip(&expect) {
                let got = net.current_rate(FlowId(slot)).unwrap();
                if got.to_bits() != exp.to_bits() {
                    return Err(format!(
                        "step {step}: slot {slot} ({f:?}) rate {got:e} != full solve {exp:e}"
                    ));
                }
                checked += 1;
            }
        }
        Ok(checked)
    }

    /// A seeded op sequence: 2-12 nodes, up to two degraded links at
    /// awkward factors, and 80 steps that keep a handful of flows in
    /// flight so components form, merge and split.
    fn seeded_case(seed: u64) -> (usize, Vec<(usize, f64)>, Vec<Op>) {
        const FACTORS: [f64; 6] = [0.5, 1.0 / 3.0, 0.7, 0.25, 0.9, 2.0 / 3.0];
        let mut rng = sim_core::DetRng::new(seed);
        let nodes = rng.gen_range(2, 13) as usize;
        let weak = (0..rng.gen_range(0, 3))
            .map(|_| {
                let node = rng.gen_range(0, nodes as u64) as usize;
                (
                    node,
                    FACTORS[rng.gen_range(0, FACTORS.len() as u64) as usize],
                )
            })
            .collect();
        let ops = (0..80)
            .map(|_| {
                let complete = rng.gen_range(0, 5) < 2;
                let src = rng.gen_range(0, nodes as u64) as usize;
                let dst = rng.gen_range(0, nodes as u64) as usize;
                (complete, src, dst, rng.gen_range(1_000, 2_000_000))
            })
            .collect();
        (nodes, weak, ops)
    }

    /// Two components whose fill levels differ by one ulp: the full solve
    /// freezes them in one round, so the network must publish the full
    /// solve (the near-tie guard), and go back to the component shares
    /// once the tie is gone.
    #[test]
    fn near_tie_publishes_the_full_solve() {
        let params = NetworkParams::catalyst_2950_100m();
        let c = params.goodput_bytes_per_sec();
        let mut net = FluidNetwork::new(params, 3);
        // Component B (short flows): downlink 2 carries six flows (four
        // from node 1, two from node 0) at C/6; node 1's uplink then has
        // C - 4·C/6 left for its fifth flow, 1 -> 0.
        let mut flows = vec![(1, 2); 4];
        flows.extend([(0, 2), (0, 2), (1, 0)]);
        // Component A (long flows): three flows 2 -> 1 share uplink 2.
        flows.extend([(2, 1); 3]);
        let ids: Vec<FlowId> = flows
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                let bytes = if i < 7 { 1_000 } else { 50_000_000 };
                net.start_flow(SimTime::ZERO, s, d, bytes)
            })
            .collect();
        let (residual, a) = (ids[6], ids[7]);
        let share = |net: &FluidNetwork, id: FlowId| net.flat.by_slot[id.0].map(|c| c.share);
        let third = c / 3.0;
        let below = f64::from_bits(third.to_bits() - 1);
        assert_eq!(share(&net, a), Some(third));
        assert_eq!(share(&net, residual), Some(below), "B's residual level");

        let endpoints: Vec<FlowEndpoints> = flows
            .iter()
            .map(|&(src, dst)| FlowEndpoints { src, dst })
            .collect();
        let expect = max_min_fair(&endpoints, 3, c, LOOPBACK_BYTES_PER_SEC);
        for (id, exp) in ids.iter().zip(&expect) {
            assert_eq!(net.current_rate(*id).unwrap().to_bits(), exp.to_bits());
        }
        // The full solve froze A at B's lower level: only the guard's
        // full-solve path gives these bits.
        assert_eq!(net.current_rate(a), Some(below));

        // B's 1 -> 0 flow drains first; the rest of B sits at C/6, far
        // from A, so A goes back to its own component share.
        let t = net.next_completion().unwrap();
        assert_eq!(take_p(&mut net, t), vec![(residual, 1, 0)]);
        let mut live = endpoints.clone();
        live.remove(6);
        let expect = max_min_fair(&live, 3, c, LOOPBACK_BYTES_PER_SEC);
        let live_ids = ids.iter().filter(|&&id| id != residual);
        for (id, exp) in live_ids.zip(&expect) {
            assert_eq!(net.current_rate(*id).unwrap().to_bits(), exp.to_bits());
        }
        assert_eq!(net.current_rate(a), Some(third));
    }

    /// Deterministic companion to the proptest: 2,000 seeded sequences,
    /// every published rate compared bitwise against the full solve.
    #[test]
    fn seeded_sequences_match_from_scratch() {
        let mut checked = 0u64;
        for seed in 0..2_000 {
            let (nodes, weak, ops) = seeded_case(seed);
            match replay(nodes, &weak, &ops) {
                Ok(n) => checked += n,
                Err(e) => panic!("seed {seed} ({nodes} nodes, weak {weak:?}): {e}"),
            }
        }
        assert!(checked > 100_000, "too few rates compared: {checked}");
    }

    /// The scan [`min_drain_secs`] replaces: divide for every flow and
    /// keep the `f64::min`.
    fn plain_min(remaining: &[f64], rate: &[f64]) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (&r, &c) in remaining.iter().zip(rate) {
            let secs = if r <= EPS_BYTES { 0.0 } else { r / c };
            best = Some(best.map_or(secs, |b| b.min(secs)));
        }
        best
    }

    /// `min_drain_secs` against [`plain_min`]: bitwise while every rate is
    /// positive, and as the same drain delay otherwise (any delay at or
    /// below zero is an immediate completion).
    fn check_scan(remaining: &[f64], rate: &[f64]) -> Result<(), String> {
        let (got, want) = (min_drain_secs(remaining, rate), plain_min(remaining, rate));
        let same = if rate.iter().all(|&c| c > 0.0) {
            got.map(f64::to_bits) == want.map(f64::to_bits)
        } else {
            got.map(SimDuration::from_secs_f64) == want.map(SimDuration::from_secs_f64)
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "scan {got:?} != plain minimum {want:?} over {remaining:?} / {rate:?}"
            ))
        }
    }

    /// Ratios planted within a few ulps of one another, so the skip test
    /// meets quotients on both sides of its margin, mixed with drained
    /// flows, loopback and degraded rates, and now and then a zero or
    /// negative rate.
    #[test]
    fn drain_scan_matches_the_plain_minimum_on_planted_ratios() {
        let goodput = NetworkParams::catalyst_2950_100m().goodput_bytes_per_sec();
        let rates = [
            goodput,
            goodput / 3.0,
            goodput * 0.7,
            goodput / 7.0,
            LOOPBACK_BYTES_PER_SEC,
            f64::from_bits(goodput.to_bits() - 1),
        ];
        let mut rng = sim_core::DetRng::new(20);
        for case in 0..20_000u64 {
            let n = rng.gen_range(1, 24) as usize;
            let target = 1e-3 + rng.next_f64() * 2.0;
            let mut remaining = Vec::with_capacity(n);
            let mut rate = Vec::with_capacity(n);
            for _ in 0..n {
                let mut c = rates[rng.gen_range(0, rates.len() as u64) as usize];
                if case % 97 == 0 && rng.gen_range(0, 8) == 0 {
                    c = [0.0, -1e-9][rng.gen_range(0, 2) as usize];
                }
                let planted = (target * c.abs().max(1.0)).to_bits();
                let r = match rng.gen_range(0, 16) {
                    0 => EPS_BYTES * rng.next_f64(),
                    1 => 1e3 + rng.next_f64() * 1e7,
                    _ => f64::from_bits(planted + rng.gen_range(0, 9) - 4),
                };
                remaining.push(r);
                rate.push(c);
            }
            if let Err(e) = check_scan(&remaining, &rate) {
                panic!("case {case}: {e}");
            }
        }
        assert_eq!(min_drain_secs(&[], &[]), None);
    }

    /// `next_completion` on live networks: the seeded sequences (loopback
    /// flows, degraded links), each step also queried after draining past
    /// the next completion without harvesting it.
    #[test]
    fn next_completion_matches_the_plain_minimum() {
        for seed in 0..500 {
            let (nodes, weak, ops) = seeded_case(seed);
            let mut net = FluidNetwork::new(NetworkParams::catalyst_2950_100m(), nodes);
            for &(node, factor) in &weak {
                net.set_link_bandwidth_factor(node, factor);
            }
            let mut now = SimTime::ZERO;
            for (step, &(complete, src, dst, bytes)) in ops.iter().enumerate() {
                if complete {
                    if let Some(t) = net.next_completion() {
                        // Drained but not yet harvested: the scan stops at 0.
                        net.advance(t);
                        let want = plain_min(&net.remaining, &net.rate).map(|secs| {
                            t + SimDuration::from_secs_f64(secs) + SimDuration::from_ps(1)
                        });
                        assert_eq!(net.next_completion(), want, "seed {seed} step {step}");
                        now = t;
                        take_p(&mut net, now);
                    }
                } else {
                    net.start_flow(now, src, dst, bytes);
                }
                if let Err(e) = check_scan(&net.remaining, &net.rate) {
                    panic!("seed {seed} step {step}: {e}");
                }
            }
        }
    }

    /// Draining is pinned bit for bit: the bits of `bytes_delivered` and
    /// every next-completion instant over seeded sequences, folded into
    /// one digest. The digest was computed with the per-flow scans this
    /// network had before its flat-mode arrays went dense.
    #[test]
    fn seeded_drain_bits_are_pinned() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| digest = (digest ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for seed in 0..300 {
            let (nodes, weak, ops) = seeded_case(seed);
            let mut net = FluidNetwork::new(NetworkParams::catalyst_2950_100m(), nodes);
            for &(node, factor) in &weak {
                net.set_link_bandwidth_factor(node, factor);
            }
            let mut now = SimTime::ZERO;
            for &(complete, src, dst, bytes) in &ops {
                if complete {
                    if let Some(t) = net.next_completion() {
                        now = t;
                        take_p(&mut net, now);
                    }
                } else {
                    net.start_flow(now, src, dst, bytes);
                }
                fold(net.bytes_delivered().to_bits());
                fold(net.next_completion().map_or(u64::MAX, |t| t.0));
            }
            while let Some(t) = net.next_completion() {
                take_p(&mut net, t);
                fold(net.bytes_delivered().to_bits());
            }
        }
        assert_eq!(digest, 0x31e4_e4a9_036e_df66, "drain digest {digest:#018x}");
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

        /// The per-component re-solves, the near-tie guard and the reused
        /// scratch publish rates bit-identical to a from-scratch full solve
        /// over the live flow set, under an arbitrary interleaving of
        /// arrivals and completions, with or without degraded links.
        #[test]
        fn prop_incremental_rates_match_from_scratch(
            nodes in 2usize..13,
            weak in proptest::collection::vec((0usize..12, 1u32..1000), 0..3),
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..12, 0usize..12, 1_000u64..2_000_000), 1..60)
        ) {
            let weak: Vec<(usize, f64)> = weak
                .iter()
                .map(|&(node, millis)| (node % nodes, millis as f64 / 1000.0))
                .collect();
            let ops: Vec<Op> = ops
                .iter()
                .map(|&(complete, src, dst, bytes)| (complete, src % nodes, dst % nodes, bytes))
                .collect();
            if let Err(e) = replay(nodes, &weak, &ops) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}
