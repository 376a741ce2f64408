//! The discrete-event simulation engine.
//!
//! One [`Engine`] couples:
//!
//! * per-rank [`Program`]s (one rank per node, as in the paper's runs),
//! * the [`FluidNetwork`] carrying message payloads,
//! * per-node [`cluster_sim::Node`] power meters and `/proc/stat`,
//! * one DVFS [`ClusterController`] — per-node [`Governor`]s (static /
//!   cpuspeed / dynamic / ondemand) wrapped by [`PerNodeGovernors`], or a
//!   cluster-level strategy such as [`dvfs::PowerCapController`] observing
//!   wait boundaries and power samples across all nodes,
//! * optional periodic power sampling (the PowerPack measurement tap).
//!
//! ## Message semantics
//!
//! Point-to-point follows MPICH-1.2.5 over TCP:
//!
//! * **eager** (payload ≤ eager threshold): the flow enters the network as
//!   soon as the sender posts; the receiver matches whenever it arrives;
//! * **rendezvous** (larger): the flow starts only once both sides posted;
//! * the *sender* completes when its payload has drained into the network;
//!   the *receiver* completes one wire latency after the drain;
//! * blocked ranks busy-poll (`BusyWait` activity — counted busy by
//!   `/proc/stat`), optionally blocking into `Halt` after a configured
//!   window ([`WaitPolicy::PollThenBlock`]).
//!
//! ## DVFS semantics
//!
//! A frequency change stalls the CPU for the ladder's transition latency
//! (~10 µs on the Pentium M) and charges the transition energy impulse.
//! A change landing mid-compute pauses the active phase, banks its
//! progress in *cycles*, and re-times the remainder at the new frequency.
//! Memory-stall phases and network flows are frequency-invariant and
//! proceed through transitions untouched.

use cluster_sim::{Cluster, Node};
use dvfs::{ClusterController, Decision, Governor, PerNodeGovernors};
use mem_model::WorkUnit;
use net_model::{FlowId, FluidNetwork};
use obs::{obs_count, obs_observe, MetricsRegistry};
use power_model::{CpuActivity, OpIndex};
use sim_core::time::PS_PER_US;
use sim_core::{
    duration_to_cycles, CausalLog, DvfsRecord, EventQueue, FaultCounts, FxHashMap, FxHashSet,
    MsgRecord, SimDuration, SimTime, Trace, TraceDetail, TraceKind, WaitCause, WaitRecord,
};

use crate::config::{EngineConfig, WaitPolicy};
use crate::faults::FaultRuntime;
use crate::program::{Cursor, Op, Program, Rank, Tag};
use crate::result::{RankBreakdown, RunResult, SampleRow};

type MsgId = usize;
type MsgKey = (Rank, Rank, Tag);

/// [`Msg::next_pending`] of a message that ends its key's unmatched-send
/// FIFO or the free-slot list (or is in neither).
const NO_PENDING: u32 = u32::MAX;

#[derive(Debug)]
enum Event {
    /// Continue a rank stalled by boot or a DVFS request.
    Resume(Rank),
    /// A compute phase (active or stall) finished.
    PhaseDone(Rank),
    /// A message fully arrived at its receiver (drain + wire latency).
    Delivered(MsgId),
    /// The network's earliest flow completion is due.
    NetworkWake,
    /// A DVFS transition completes; the new point takes effect.
    TransitionDone(usize, OpIndex),
    /// A governor's periodic decision point.
    GovernorTick(usize),
    /// A polling wait exceeded its window and blocks into idle.
    WaitBlock(Rank),
    /// Periodic measurement sample.
    Sample,
}

/// What a waiting rank's receive side is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RecvWait {
    /// Matched to a concrete in-flight message.
    Matched(MsgId),
    /// Posted, but no send has arrived yet for this key.
    Unmatched(MsgKey),
}

#[derive(Debug)]
enum RState {
    /// Stalled awaiting a `Resume` (boot or DVFS stall).
    Stalled,
    /// Executing the frequency-scaled part of a compute segment.
    ComputeActive {
        cycles_total: f64,
        started: SimTime,
        event: u64,
        /// Blended dynamic-power factor for this segment.
        power_factor: f64,
        then_stall: SimDuration,
    },
    /// Active compute paused by an in-flight DVFS transition.
    PausedCompute {
        remaining_cycles: f64,
        power_factor: f64,
        then_stall: SimDuration,
    },
    /// In the frequency-invariant DRAM-stall part of a compute segment.
    ComputeStall,
    /// Blocked on message completion(s).
    Waiting {
        need_send: Option<MsgId>,
        need_recv: Option<RecvWait>,
        block_event: Option<u64>,
    },
    /// Blocked in MPI_Waitall until every outstanding non-blocking
    /// operation completes.
    WaitingAll { block_event: Option<u64> },
    /// Program finished.
    Done,
}

/// Time-accounting bucket a rank is currently charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    None,
    Compute,
    MemStall,
    WaitBusy,
    WaitBlocked,
    Transition,
}

#[derive(Debug)]
struct RankRuntime {
    /// Ops executed so far, compact all-to-alls counted expanded.
    pc: usize,
    /// Where the next op comes from in the rank's program.
    cursor: Cursor,
    state: RState,
    bucket: Bucket,
    bucket_since: SimTime,
    breakdown: RankBreakdown,
    finish_time: Option<SimTime>,
    /// Isends posted but not yet drained into the network.
    outstanding_sends: FxHashSet<MsgId>,
    /// Irecvs matched to a message but not yet delivered.
    outstanding_recvs_matched: FxHashSet<MsgId>,
    /// Irecvs posted with no matching send yet, counted per key; a key
    /// leaves the map when its count reaches zero.
    outstanding_recvs_unmatched: FxHashMap<MsgKey, u32>,
}

#[derive(Debug)]
struct Msg {
    src: Rank,
    dst: Rank,
    bytes: u64,
    flow_started: bool,
    recv_posted: bool,
    drained_at: Option<SimTime>,
    /// When the send was posted — start of the message's observable life,
    /// used for the delivery-latency histograms.
    posted_at: SimTime,
    /// Whether the tag marks collective-internal traffic
    /// ([`crate::ProgramBuilder`] lowers collectives onto a reserved tag
    /// range), splitting the latency histograms by origin.
    collective: bool,
    /// Next unmatched send on this message's key: the link of the
    /// per-key FIFO that [`Engine::pending_sends`] holds the ends of.
    /// For a free slot, the next free slot. Sits in what would otherwise
    /// be padding.
    next_pending: u32,
}

/// Live causal-recording state: the log under construction plus each
/// rank's currently open blocking wait (entry time and the node's
/// cumulative joules at entry). A wait record is emitted when the wait is
/// released, carrying the releasing message completion as its cause.
#[derive(Debug)]
struct CausalRecorder {
    log: CausalLog,
    open: Vec<Option<(SimTime, f64)>>,
    /// The log record of the message in each arena slot. Slots are
    /// recycled; records are not, so the log numbers messages in posting
    /// order whatever slot they used.
    record: Vec<usize>,
}

/// The frequency-dependent float plan for one `Op::Compute`: exactly the
/// values `execute_next` derives before starting the phase.
#[derive(Debug, Clone, Copy)]
struct ComputePlan {
    /// Frequency-scaled cycles, before any straggler-fault stretching
    /// (faults mutate run state, so they apply at the sequential step).
    cycles: f64,
    /// Blended dynamic-power factor for the active portion.
    power_factor: f64,
    /// Frequency-invariant DRAM-stall tail.
    stall: SimDuration,
}

/// Derive the compute-phase floats for `w` on `node`. Pure: reads only
/// the node's frequency and static configuration.
fn plan_compute(w: &WorkUnit, node: &Node) -> ComputePlan {
    let hier = &node.config().mem;
    let split = w.split(hier, node.freq_hz());
    let cycles = w.scaled_cycles(hier);
    let power_factor = node
        .config()
        .power
        .cpu
        .activity
        .compute_blend(w.cpu_cycles, w.l2_accesses * hier.l2_latency_cycles);
    ComputePlan {
        cycles,
        power_factor,
        stall: split.stall,
    }
}

/// Take one from `key`'s count, dropping the key when it reaches zero.
/// False when `key` has no count.
fn take_one(counts: &mut FxHashMap<MsgKey, u32>, key: MsgKey) -> bool {
    let Some(count) = counts.get_mut(&key) else {
        return false;
    };
    *count -= 1;
    if *count == 0 {
        counts.remove(&key);
    }
    true
}

/// Sanitizer checkpoint tags: which instant produced a digest. Folded
/// into the hash so a stream that drops one checkpoint and gains another
/// cannot collide back to equality.
#[cfg(feature = "simsan")]
const SAN_TAG_PHASE_BEGIN: u8 = 1;
#[cfg(feature = "simsan")]
const SAN_TAG_PHASE_END: u8 = 2;
#[cfg(feature = "simsan")]
const SAN_TAG_SAMPLE: u8 = 3;
#[cfg(feature = "simsan")]
const SAN_TAG_FINAL: u8 = 4;

/// FNV-1a accumulator for sanitizer checkpoints. Not a quality hash —
/// it is a cheap, dependency-free, platform-stable fold; the sanitizer
/// compares full streams, so a single colliding checkpoint would also
/// need every subsequent checkpoint to collide to mask a divergence.
#[cfg(feature = "simsan")]
struct SanHasher(u64);

#[cfg(feature = "simsan")]
impl SanHasher {
    fn new() -> Self {
        SanHasher(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Matching state after a run ([`Engine::run_for_match_tables`]).
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct MatchTables {
    /// Keys left in the unmatched-send and unmatched-receive tables.
    pub(crate) live_keys: usize,
    /// The larger of the two tables' capacities.
    pub(crate) table_capacity: usize,
    /// Entries left in every rank's outstanding non-blocking sets.
    pub(crate) rank_outstanding: usize,
    pub(crate) msgs_posted: usize,
    /// Message slots the arena ever held: the peak in flight at once.
    pub(crate) msg_slots: usize,
    /// `size_of::<Msg>()`.
    pub(crate) msg_size: usize,
}

/// The simulator. Construct with [`Engine::new`], run with [`Engine::run`].
pub struct Engine {
    config: EngineConfig,
    cluster: Cluster,
    network: FluidNetwork,
    programs: Vec<Program>,
    /// The run's strategy, driven through the [`ClusterController`]
    /// callbacks. Classic per-node governors arrive wrapped in
    /// [`PerNodeGovernors`]; cluster-level strategies (power caps) see
    /// cross-node state through the runtime hooks.
    controller: Box<dyn ClusterController>,
    /// Cached [`ClusterController::wants_runtime_events`] so per-node
    /// controllers pay one bool test per hook site, nothing more.
    controller_events: bool,
    /// Reused buffer for controller decisions (drained every hook).
    decision_buf: Vec<Decision>,
    queue: EventQueue<Event>,
    now: SimTime,
    ranks: Vec<RankRuntime>,
    /// Message slots, indexed by [`MsgId`]. A slot is freed once its
    /// message is delivered (nothing refers to it after that) and reused
    /// by the next post, so the arena holds only messages in flight.
    msgs: Vec<Msg>,
    /// Head of the free-slot list, linked through [`Msg::next_pending`].
    free_msg: u32,
    /// Messages posted so far.
    msgs_posted: usize,
    /// Sends no receive has matched yet: each key's `(head, tail)` FIFO,
    /// linked through [`Msg::next_pending`]. Only live keys are present:
    /// an entry leaves the moment its FIFO drains.
    pending_sends: FxHashMap<MsgKey, (u32, u32)>,
    /// Receives no send has matched yet, counted per key; an entry
    /// leaves the moment its count drains.
    pending_recvs: FxHashMap<MsgKey, u32>,
    /// Message owning each network flow slot. Flow ids are small densely
    /// reused slot indices, so a flat vector beats a hash map here.
    flow_to_msg: Vec<Option<MsgId>>,
    net_event: Option<u64>,
    finished: usize,
    samples: Vec<SampleRow>,
    trace: Trace,
    /// PowerScope metrics, boxed to keep the engine small when disabled.
    /// `None` unless [`EngineConfig::metrics`] is set; every update goes
    /// through the `obs_*` macros, which skip a `None` registry.
    metrics: Option<Box<MetricsRegistry>>,
    /// Causal dependency recorder, boxed like `metrics`. `None` unless
    /// [`EngineConfig::causal`] is set, so a disabled run pays only a
    /// pointer-sized field and `is_some` checks off the hot path. All
    /// recording happens in `(time, seq)` dispatch order, which is what
    /// makes the log deterministic.
    causal: Option<Box<CausalRecorder>>,
    /// Fault-injection runtime, boxed for the same reason as `metrics`.
    /// `None` unless [`EngineConfig::faults`] armed at least one fault,
    /// which is what guarantees empty specs are bit-identical to today.
    faults: Option<Box<FaultRuntime>>,
    /// Injected-fault and degraded-measurement tallies for the run.
    fault_counts: FaultCounts,
    /// Last good battery reading per node — the degraded-mode fallback
    /// when a poll errors or a stuck register repeats itself.
    last_battery: Vec<Option<u64>>,
    /// Reused between network wakes to collect completed flows without
    /// allocating on every event.
    completed_buf: Vec<(FlowId, usize, usize)>,
    /// Determinism-sanitizer hash stream (`simsan` builds only): one
    /// digest of observable engine state per checkpoint — phase
    /// boundaries, sample instants, and the pre-finalize instant; see
    /// [`Engine::run_sanitized`].
    #[cfg(feature = "simsan")]
    san_hashes: Vec<u64>,
}

impl Engine {
    /// Assemble a simulation: one program and one governor per node. The
    /// governors run under a [`PerNodeGovernors`] controller — the same
    /// dispatch path every strategy uses.
    pub fn new(
        cluster: Cluster,
        programs: Vec<Program>,
        governors: Vec<Box<dyn Governor>>,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(governors.len(), cluster.len(), "one governor per node");
        Self::with_controller(
            cluster,
            programs,
            Box::new(PerNodeGovernors::new(governors)),
            config,
        )
    }

    /// Assemble a simulation driven by a [`ClusterController`].
    pub fn with_controller(
        cluster: Cluster,
        programs: Vec<Program>,
        controller: Box<dyn ClusterController>,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(
            programs.len(),
            cluster.len(),
            "one program per node (rank i runs on node i)"
        );
        let n = cluster.len();
        let mut network =
            FluidNetwork::with_topology(cluster.network().clone(), n, &config.topology);
        let mut fault_counts = FaultCounts::default();
        let faults = FaultRuntime::build(&config.faults, n, &mut network, &mut fault_counts);
        let trace = if config.trace_capacity > 0 {
            Trace::new(config.trace_capacity)
        } else {
            Trace::disabled()
        };
        let config_metrics = config.metrics;
        let config_causal = config.causal;
        let controller_events = controller.wants_runtime_events();
        Engine {
            config,
            network,
            programs,
            controller,
            controller_events,
            decision_buf: Vec::new(),
            // A rank contributes at most a handful of concurrently pending
            // events; pre-size the queue so steady state never reallocates.
            queue: EventQueue::with_capacity(16 * n + 16),
            now: SimTime::ZERO,
            ranks: (0..n)
                .map(|_| RankRuntime {
                    pc: 0,
                    cursor: Cursor::default(),
                    state: RState::Stalled,
                    bucket: Bucket::None,
                    bucket_since: SimTime::ZERO,
                    breakdown: RankBreakdown::default(),
                    finish_time: None,
                    outstanding_sends: FxHashSet::with_capacity_and_hasher(16, Default::default()),
                    outstanding_recvs_matched: FxHashSet::with_capacity_and_hasher(
                        16,
                        Default::default(),
                    ),
                    outstanding_recvs_unmatched: FxHashMap::with_capacity_and_hasher(
                        16,
                        Default::default(),
                    ),
                })
                .collect(),
            // A blocking exchange keeps about two messages in flight per
            // rank; non-blocking bursts grow the arena on demand.
            msgs: Vec::with_capacity(2 * n),
            free_msg: NO_PENDING,
            msgs_posted: 0,
            // Blocking ranks keep about one unmatched key each; bursts of
            // non-blocking posts grow the tables on demand.
            pending_sends: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            pending_recvs: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            flow_to_msg: Vec::new(),
            net_event: None,
            finished: 0,
            samples: Vec::new(),
            cluster,
            trace,
            metrics: if config_metrics {
                Some(Box::new(MetricsRegistry::new()))
            } else {
                None
            },
            causal: if config_causal {
                Some(Box::new(CausalRecorder {
                    log: CausalLog::new(n),
                    open: vec![None; n],
                    record: Vec::new(),
                }))
            } else {
                None
            },
            faults,
            fault_counts,
            last_battery: vec![None; n],
            completed_buf: Vec::new(),
            #[cfg(feature = "simsan")]
            san_hashes: Vec::new(),
        }
    }

    /// Run to completion and report.
    pub fn run(mut self) -> RunResult {
        self.drive();
        self.finalize()
    }

    /// Run to completion under the determinism sanitizer: alongside the
    /// normal [`RunResult`], return the checkpoint hash stream — one
    /// digest of observable engine state (clock, queue counters, rank
    /// clocks, metered energy, battery registers, controller digest) per
    /// phase boundary, sample instant, and the pre-finalize instant.
    ///
    /// The guarantee backing bit-exact refactors: the stream is pinned
    /// against a golden, not just the final result — a divergence that
    /// later cancels out still trips the sanitizer at the first
    /// checkpoint it perturbs.
    #[cfg(feature = "simsan")]
    pub fn run_sanitized(mut self) -> (RunResult, Vec<u64>) {
        self.drive();
        self.san_checkpoint(SAN_TAG_FINAL);
        let hashes = std::mem::take(&mut self.san_hashes);
        (self.finalize(), hashes)
    }

    /// Run to completion and report the matching state left behind.
    #[cfg(test)]
    pub(crate) fn run_for_match_tables(mut self) -> MatchTables {
        self.drive();
        MatchTables {
            live_keys: self.pending_sends.len() + self.pending_recvs.len(),
            table_capacity: self
                .pending_sends
                .capacity()
                .max(self.pending_recvs.capacity()),
            rank_outstanding: self
                .ranks
                .iter()
                .map(|r| {
                    r.outstanding_sends.len()
                        + r.outstanding_recvs_matched.len()
                        + r.outstanding_recvs_unmatched.len()
                })
                .sum(),
            msgs_posted: self.msgs_posted,
            msg_slots: self.msgs.len(),
            msg_size: std::mem::size_of::<Msg>(),
        }
    }

    /// Boot the controller and pump the event loop until every rank
    /// retires (the shared body of [`Engine::run`] and
    /// [`Engine::run_sanitized`]).
    fn drive(&mut self) {
        let n = self.cluster.len();
        // Boot: the controller picks initial points instantly
        // (pre-measurement).
        for i in 0..n {
            if let Some(target) = self.controller.initial(i, self.cluster.nodes()) {
                self.cluster
                    .node_mut(i)
                    .force_operating_point(SimTime::ZERO, target);
            }
            if let Some(interval) = self.controller.poll_interval(i) {
                self.queue
                    .push(SimTime::ZERO + interval, Event::GovernorTick(i));
            }
        }
        if let Some(interval) = self.config.sample_interval {
            self.queue.push(SimTime::ZERO + interval, Event::Sample);
        }
        for r in 0..n {
            self.queue.push(SimTime::ZERO, Event::Resume(r));
        }

        while let Some(ev) = self.queue.pop() {
            // Always-on (not debug_assert): a time regression here would
            // silently corrupt every downstream energy integral in release
            // builds. The batch layer (`parallel_map`) converts the panic
            // into a per-slot error.
            assert!(ev.time >= self.now, "event time went backwards");
            self.now = ev.time;
            self.dispatch(ev.event);
            if self.finished == n {
                break;
            }
        }
        assert_eq!(
            self.finished, n,
            "deadlock: events exhausted with ranks pending"
        );
    }

    fn dispatch(&mut self, ev: Event) {
        if self.metrics.is_some() {
            self.count_dispatch(&ev);
        }
        match ev {
            Event::Resume(r) => {
                if matches!(self.ranks[r].state, RState::Stalled) {
                    self.execute_next(r);
                }
            }
            Event::PhaseDone(r) => self.on_phase_done(r),
            Event::Delivered(m) => self.on_delivered(m),
            Event::NetworkWake => self.on_network_wake(),
            Event::TransitionDone(node, target) => self.on_transition_done(node, target),
            Event::GovernorTick(node) => self.on_governor_tick(node),
            Event::WaitBlock(r) => self.on_wait_block(r),
            Event::Sample => self.on_sample(),
        }
    }

    /// Metrics-path event accounting, kept out of line so the default
    /// (metrics-off) `dispatch` body stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn count_dispatch(&mut self, ev: &Event) {
        let name = match ev {
            Event::Resume(_) => "engine.events.resume",
            Event::PhaseDone(_) => "engine.events.phase_done",
            Event::Delivered(_) => "engine.events.delivered",
            Event::NetworkWake => "engine.events.network_wake",
            Event::TransitionDone(..) => "engine.events.transition_done",
            Event::GovernorTick(_) => "engine.events.governor_tick",
            Event::WaitBlock(_) => "engine.events.wait_block",
            Event::Sample => "engine.events.sample",
        };
        obs_count!(self.metrics, name, 1);
        obs_count!(self.metrics, "engine.events.dispatched", 1);
    }

    // ----- time accounting -------------------------------------------------

    fn switch_bucket(&mut self, r: Rank, bucket: Bucket) {
        let rt = &mut self.ranks[r];
        let dt = self.now.since(rt.bucket_since);
        match rt.bucket {
            Bucket::None => {}
            Bucket::Compute => rt.breakdown.compute += dt,
            Bucket::MemStall => rt.breakdown.mem_stall += dt,
            Bucket::WaitBusy => rt.breakdown.wait_busy += dt,
            Bucket::WaitBlocked => rt.breakdown.wait_blocked += dt,
            Bucket::Transition => rt.breakdown.transition += dt,
        }
        rt.bucket = bucket;
        rt.bucket_since = self.now;
    }

    // ----- causal recording ------------------------------------------------

    /// Mark `r` as entering a blocking wait now, with its energy meter
    /// read, so the eventual release can emit a complete wait record.
    fn causal_open_wait(&mut self, r: Rank) {
        if self.causal.is_none() {
            return;
        }
        let energy_j = self.cluster.node(r).energy(self.now).total_j();
        if let Some(c) = self.causal.as_deref_mut() {
            c.open[r] = Some((self.now, energy_j));
        }
    }

    /// Emit the wait record for `r`'s open wait, released now by `cause`.
    fn causal_close_wait(&mut self, r: Rank, cause: WaitCause) {
        if self.causal.is_none() {
            return;
        }
        let energy_end_j = self.cluster.node(r).energy(self.now).total_j();
        let end = self.now;
        if let Some(c) = self.causal.as_deref_mut() {
            if let Some((start, energy_start_j)) = c.open[r].take() {
                c.log.waits.push(WaitRecord {
                    rank: r,
                    start,
                    end,
                    cause,
                    energy_start_j,
                    energy_end_j,
                });
            }
        }
    }

    // ----- program execution -----------------------------------------------

    /// Execute ops for `r` until one blocks or the program ends.
    fn execute_next(&mut self, r: Rank) {
        loop {
            let rt = &mut self.ranks[r];
            // Ops are cheap to clone (WorkUnit is Copy-sized; strings are 'static).
            let Some(op) = self.programs[r].fetch(&mut rt.cursor) else {
                self.finish_rank(r);
                return;
            };
            rt.pc += 1;
            match op {
                Op::Compute(w) => {
                    let plan = plan_compute(&w, self.cluster.node(r));
                    let mut cycles = plan.cycles;
                    if let Some(f) = self.faults.as_deref() {
                        // Straggler fault: stretch the cycle cost, not the
                        // wall time, so transition pause/resume banking
                        // stays consistent.
                        cycles = f.scale_compute(r, cycles, &mut self.fault_counts);
                    }
                    self.begin_active_phase(r, cycles, plan.power_factor, plan.stall);
                    return;
                }
                Op::Send { dst, bytes, tag } => {
                    let id = self.post_send(r, dst, bytes, tag);
                    self.enter_wait(r, Some(id), None);
                    return;
                }
                Op::Recv { src, tag } => match self.post_recv(r, src, tag) {
                    None => {} // already delivered: keep executing
                    Some(wait) => {
                        self.enter_wait(r, None, Some(wait));
                        return;
                    }
                },
                Op::SendRecv {
                    dst,
                    send_bytes,
                    send_tag,
                    src,
                    recv_tag,
                } => {
                    let send_id = self.post_send(r, dst, send_bytes, send_tag);
                    let recv_wait = self.post_recv(r, src, recv_tag);
                    self.enter_wait(r, Some(send_id), recv_wait);
                    return;
                }
                Op::Isend { dst, bytes, tag } => {
                    let id = self.post_send(r, dst, bytes, tag);
                    // Unless it already drained (impossible synchronously),
                    // track it for the next WaitAll.
                    self.ranks[r].outstanding_sends.insert(id);
                }
                Op::Irecv { src, tag } => match self.post_recv(r, src, tag) {
                    None => {}
                    Some(RecvWait::Matched(id)) => {
                        self.ranks[r].outstanding_recvs_matched.insert(id);
                    }
                    Some(RecvWait::Unmatched(key)) => {
                        *self.ranks[r]
                            .outstanding_recvs_unmatched
                            .entry(key)
                            .or_insert(0) += 1;
                    }
                },
                Op::WaitAll => {
                    if self.rank_has_outstanding(r) {
                        let block_event = match self.config.wait_policy {
                            WaitPolicy::BusyPoll => None,
                            WaitPolicy::PollThenBlock(window) => {
                                Some(self.queue.push(self.now + window, Event::WaitBlock(r)))
                            }
                        };
                        self.ranks[r].state = RState::WaitingAll { block_event };
                        self.switch_bucket(r, Bucket::WaitBusy);
                        self.cluster
                            .node_mut(r)
                            .set_activity(self.now, CpuActivity::BusyWait);
                        self.causal_open_wait(r);
                        self.controller_wait_begin(r);
                        return;
                    }
                }
                Op::SetSpeed(req) => {
                    let decision =
                        self.controller
                            .on_app_request(self.now, r, self.cluster.nodes(), req);
                    if decision.is_some() {
                        obs_count!(self.metrics, "engine.dvfs.decisions", 1);
                    }
                    if let Some(target) = decision {
                        let lat = self.request_transition(r, target);
                        if !lat.is_zero() {
                            self.ranks[r].state = RState::Stalled;
                            self.switch_bucket(r, Bucket::Transition);
                            self.cluster
                                .node_mut(r)
                                .set_activity(self.now, CpuActivity::Halt);
                            // TransitionDone was queued by request_transition
                            // first, so at the tied timestamp the new
                            // frequency applies before execution resumes.
                            self.queue.push(self.now + lat, Event::Resume(r));
                            return;
                        }
                    }
                }
                Op::PhaseBegin(name) => {
                    self.trace
                        .record(self.now, r, TraceKind::PhaseBegin, TraceDetail::Phase(name));
                    #[cfg(feature = "simsan")]
                    self.san_checkpoint(SAN_TAG_PHASE_BEGIN);
                    if self.controller_phase(r, name, true) {
                        return;
                    }
                }
                Op::PhaseEnd(name) => {
                    self.trace
                        .record(self.now, r, TraceKind::PhaseEnd, TraceDetail::Phase(name));
                    #[cfg(feature = "simsan")]
                    self.san_checkpoint(SAN_TAG_PHASE_END);
                    if self.controller_phase(r, name, false) {
                        return;
                    }
                }
            }
        }
    }

    fn begin_active_phase(
        &mut self,
        r: Rank,
        cycles: f64,
        power_factor: f64,
        then_stall: SimDuration,
    ) {
        if cycles <= 0.0 {
            self.begin_stall_phase(r, then_stall);
            return;
        }
        let freq = self.cluster.node(r).freq_hz();
        let duration = SimDuration::from_secs_f64(cycles / freq);
        let event = self.queue.push(self.now + duration, Event::PhaseDone(r));
        self.ranks[r].state = RState::ComputeActive {
            cycles_total: cycles,
            started: self.now,
            event,
            power_factor,
            then_stall,
        };
        self.switch_bucket(r, Bucket::Compute);
        self.cluster
            .node_mut(r)
            .set_active_blended(self.now, power_factor);
    }

    fn begin_stall_phase(&mut self, r: Rank, stall: SimDuration) {
        if stall.is_zero() {
            self.execute_next(r);
            return;
        }
        self.queue.push(self.now + stall, Event::PhaseDone(r));
        self.ranks[r].state = RState::ComputeStall;
        self.switch_bucket(r, Bucket::MemStall);
        let node = self.cluster.node_mut(r);
        node.set_activity(self.now, CpuActivity::MemStall);
        node.set_mem_active(self.now, true);
    }

    fn on_phase_done(&mut self, r: Rank) {
        match self.ranks[r].state {
            RState::ComputeActive { then_stall, .. } => {
                self.begin_stall_phase(r, then_stall);
            }
            RState::ComputeStall => {
                self.cluster.node_mut(r).set_mem_active(self.now, false);
                self.execute_next(r);
            }
            // A cancelled/stale phase event for a rank that moved on.
            _ => {}
        }
    }

    fn finish_rank(&mut self, r: Rank) {
        self.switch_bucket(r, Bucket::None);
        self.ranks[r].state = RState::Done;
        self.ranks[r].finish_time = Some(self.now);
        self.cluster
            .node_mut(r)
            .set_activity(self.now, CpuActivity::Halt);
        self.finished += 1;
        if self.causal.is_some() {
            let energy_j = self.cluster.node(r).energy(self.now).total_j();
            if let Some(c) = self.causal.as_deref_mut() {
                c.log.finish[r] = self.now;
                c.log.finish_energy_j[r] = energy_j;
            }
        }
    }

    // ----- waiting ---------------------------------------------------------

    fn enter_wait(&mut self, r: Rank, need_send: Option<MsgId>, need_recv: Option<RecvWait>) {
        if need_send.is_none() && need_recv.is_none() {
            self.execute_next(r);
            return;
        }
        let block_event = match self.config.wait_policy {
            WaitPolicy::BusyPoll => None,
            WaitPolicy::PollThenBlock(window) => {
                Some(self.queue.push(self.now + window, Event::WaitBlock(r)))
            }
        };
        self.ranks[r].state = RState::Waiting {
            need_send,
            need_recv,
            block_event,
        };
        self.switch_bucket(r, Bucket::WaitBusy);
        self.cluster
            .node_mut(r)
            .set_activity(self.now, CpuActivity::BusyWait);
        self.causal_open_wait(r);
        self.controller_wait_begin(r);
    }

    fn on_wait_block(&mut self, r: Rank) {
        match &mut self.ranks[r].state {
            RState::Waiting { block_event, .. } | RState::WaitingAll { block_event } => {
                *block_event = None;
                self.switch_bucket(r, Bucket::WaitBlocked);
                self.cluster
                    .node_mut(r)
                    .set_activity(self.now, CpuActivity::Halt);
            }
            _ => {}
        }
    }

    fn rank_has_outstanding(&self, r: Rank) -> bool {
        let rt = &self.ranks[r];
        !rt.outstanding_sends.is_empty()
            || !rt.outstanding_recvs_matched.is_empty()
            || !rt.outstanding_recvs_unmatched.is_empty()
    }

    /// An outstanding non-blocking op completed; resume a rank parked in
    /// WaitAll once everything it posted has finished. `cause` is the
    /// completion that just landed — when it releases the wait it is by
    /// definition the last (gating) one, so it closes the wait record.
    fn maybe_resume_waitall(&mut self, r: Rank, cause: WaitCause) {
        if matches!(self.ranks[r].state, RState::WaitingAll { .. }) && !self.rank_has_outstanding(r)
        {
            if let RState::WaitingAll {
                block_event: Some(ev),
            } = self.ranks[r].state
            {
                self.queue.cancel(ev);
            }
            self.causal_close_wait(r, cause);
            if !self.controller_wait_end(r) {
                self.execute_next(r);
            }
        }
    }

    /// Clear a satisfied wait condition and resume the rank if nothing is
    /// left to wait for. `cause` closes the wait record when it does.
    fn maybe_resume_waiter(&mut self, r: Rank, cause: WaitCause) {
        let ready = matches!(
            &self.ranks[r].state,
            RState::Waiting {
                need_send: None,
                need_recv: None,
                ..
            }
        );
        if ready {
            if let RState::Waiting {
                block_event: Some(ev),
                ..
            } = self.ranks[r].state
            {
                self.queue.cancel(ev);
            }
            self.causal_close_wait(r, cause);
            if !self.controller_wait_end(r) {
                self.execute_next(r);
            }
        }
    }

    // ----- messaging -------------------------------------------------------

    fn post_send(&mut self, src: Rank, dst: Rank, bytes: u64, tag: Tag) -> MsgId {
        let collective = tag >= crate::program::ProgramBuilder::COLLECTIVE_TAG_BASE;
        let id = self.alloc_msg(Msg {
            src,
            dst,
            bytes,
            flow_started: false,
            recv_posted: false,
            drained_at: None,
            posted_at: self.now,
            collective,
            next_pending: NO_PENDING,
        });
        if let Some(c) = self.causal.as_deref_mut() {
            if id == c.record.len() {
                c.record.push(c.log.msgs.len());
            } else {
                c.record[id] = c.log.msgs.len();
            }
            c.log.msgs.push(MsgRecord {
                src,
                dst,
                bytes,
                collective,
                posted_at: self.now,
                flow_started_at: None,
                drained_at: None,
                delivered_at: None,
            });
        }
        self.trace
            .record_with(self.now, src, TraceKind::MsgStart, || TraceDetail::MsgTo {
                dst,
                bytes,
            });
        obs_count!(self.metrics, "engine.msgs.posted", 1);
        obs_count!(self.metrics, "engine.msgs.bytes_posted", bytes);
        let key = (src, dst, tag);
        if take_one(&mut self.pending_recvs, key) {
            self.msgs[id].recv_posted = true;
            self.rebind_receiver_wait(dst, key, id);
        } else {
            self.push_pending_send(key, id);
        }
        let eager = bytes <= self.config.eager_threshold;
        if eager || self.msgs[id].recv_posted {
            self.start_flow_for(id);
        }
        id
    }

    /// Put `msg` in a free slot, or a new one when none is free.
    fn alloc_msg(&mut self, msg: Msg) -> MsgId {
        self.msgs_posted += 1;
        let id = self.free_msg as usize;
        if let Some(slot) = self.msgs.get_mut(id) {
            self.free_msg = slot.next_pending;
            *slot = msg;
            return id;
        }
        assert!(
            self.msgs.len() < NO_PENDING as usize,
            "{} messages in flight overflow the u32 slot links",
            self.msgs.len()
        );
        self.msgs.push(msg);
        self.msgs.len() - 1
    }

    /// Return delivered message `id`'s slot to the free list. Nothing
    /// refers to a delivered message: its flow has drained, its sender
    /// was released at the drain, and its receiver is released now.
    fn free_msg(&mut self, id: MsgId) {
        self.msgs[id].next_pending = self.free_msg;
        // Lossless: the arena holds fewer than `NO_PENDING` slots.
        self.free_msg = id as u32;
    }

    /// The causal-log record of the message in slot `id` (the slot
    /// itself when not recording, where no cause is ever read).
    fn record_of(&self, id: MsgId) -> usize {
        self.causal.as_deref().map_or(id, |c| c.record[id])
    }

    /// Returns `None` when the receive completed synchronously, otherwise
    /// the wait descriptor.
    fn post_recv(&mut self, dst: Rank, src: Rank, tag: Tag) -> Option<RecvWait> {
        let key = (src, dst, tag);
        match self.pop_pending_send(key) {
            None => {
                *self.pending_recvs.entry(key).or_default() += 1;
                Some(RecvWait::Unmatched(key))
            }
            Some(id) => {
                self.msgs[id].recv_posted = true;
                if !self.msgs[id].flow_started {
                    self.start_flow_for(id); // rendezvous now matched
                }
                match self.msgs[id].drained_at {
                    Some(drained) => {
                        let deliver_at = drained + self.network.params().wire_latency;
                        if deliver_at <= self.now {
                            if let Some(c) = self.causal.as_deref_mut() {
                                // Physical arrival time: the payload was
                                // already here when the recv posted.
                                c.log.msgs[c.record[id]].delivered_at = Some(deliver_at);
                            }
                            self.trace
                                .record_with(self.now, dst, TraceKind::MsgEnd, || {
                                    TraceDetail::MsgFrom { src }
                                });
                            self.observe_delivery(id);
                            self.free_msg(id);
                            None // already here
                        } else {
                            self.queue.push(deliver_at, Event::Delivered(id));
                            Some(RecvWait::Matched(id))
                        }
                    }
                    None => Some(RecvWait::Matched(id)),
                }
            }
        }
    }

    /// A send just matched a receiver that already posted: upgrade its
    /// unmatched wait (blocking Recv) or unmatched irecv bookkeeping to
    /// this concrete message. When a rank has both a blocked Recv and an
    /// outstanding Irecv on the same key, the blocked Recv wins — mixing
    /// the two styles on one (src, tag) key is not meaningful MPI anyway.
    fn rebind_receiver_wait(&mut self, dst: Rank, key: MsgKey, id: MsgId) {
        if let RState::Waiting {
            need_recv: Some(w @ RecvWait::Unmatched(_)),
            ..
        } = &mut self.ranks[dst].state
        {
            if *w == RecvWait::Unmatched(key) {
                *w = RecvWait::Matched(id);
                return;
            }
        }
        let rt = &mut self.ranks[dst];
        if take_one(&mut rt.outstanding_recvs_unmatched, key) {
            rt.outstanding_recvs_matched.insert(id);
        }
    }

    /// Append send `id` to `key`'s unmatched-send FIFO.
    fn push_pending_send(&mut self, key: MsgKey, id: MsgId) {
        // Lossless: the arena holds fewer than `NO_PENDING` messages.
        let id = id as u32;
        match self.pending_sends.get_mut(&key) {
            Some((_, tail)) => {
                self.msgs[*tail as usize].next_pending = id;
                *tail = id;
            }
            None => {
                self.pending_sends.insert(key, (id, id));
            }
        }
    }

    /// Pop the oldest unmatched send on `key`, if any.
    fn pop_pending_send(&mut self, key: MsgKey) -> Option<MsgId> {
        let (head, tail) = self.pending_sends.get_mut(&key)?;
        let id = *head;
        if id == *tail {
            self.pending_sends.remove(&key);
        } else {
            *head = self.msgs[id as usize].next_pending;
        }
        Some(id as usize)
    }

    fn start_flow_for(&mut self, id: MsgId) {
        let (src, dst, bytes) = {
            let m = &self.msgs[id];
            (m.src, m.dst, m.bytes)
        };
        let flow = self.network.start_flow(self.now, src, dst, bytes);
        self.msgs[id].flow_started = true;
        if let Some(c) = self.causal.as_deref_mut() {
            c.log.msgs[c.record[id]].flow_started_at = Some(self.now);
        }
        if flow.0 >= self.flow_to_msg.len() {
            self.flow_to_msg.resize(flow.0 + 1, None);
        }
        self.flow_to_msg[flow.0] = Some(id);
        self.refresh_nic(src);
        self.refresh_nic(dst);
        self.reschedule_network();
    }

    fn refresh_nic(&mut self, node: usize) {
        let busy = self.network.node_busy(node);
        self.cluster.node_mut(node).set_nic_active(self.now, busy);
    }

    fn reschedule_network(&mut self) {
        if let Some(ev) = self.net_event.take() {
            self.queue.cancel(ev);
        }
        if let Some(t) = self.network.next_completion() {
            let t = t.max(self.now);
            self.net_event = Some(self.queue.push(t, Event::NetworkWake));
        }
    }

    fn on_network_wake(&mut self) {
        self.net_event = None;
        let mut completed = std::mem::take(&mut self.completed_buf);
        self.network.take_completed_into(self.now, &mut completed);
        let latency = self.network.params().wire_latency;
        for &(flow, src, dst) in completed.iter() {
            let id = self.flow_to_msg[flow.0]
                .take()
                // simlint: allow(panic-path): flow/message bookkeeping invariant; a miss means corrupted engine state and must stop the run
                .expect("completed flow without a message");
            self.msgs[id].drained_at = Some(self.now);
            if let Some(c) = self.causal.as_deref_mut() {
                c.log.msgs[c.record[id]].drained_at = Some(self.now);
            }
            self.refresh_nic(src);
            self.refresh_nic(dst);
            // Sender side completes at drain.
            if let RState::Waiting {
                need_send: ns @ Some(_),
                ..
            } = &mut self.ranks[src].state
            {
                if *ns == Some(id) {
                    *ns = None;
                    let cause = WaitCause::SendDrained(self.record_of(id));
                    self.maybe_resume_waiter(src, cause);
                }
            }
            // Non-blocking sender: strike the isend off the outstanding set.
            if self.ranks[src].outstanding_sends.remove(&id) {
                let cause = WaitCause::SendDrained(self.record_of(id));
                self.maybe_resume_waitall(src, cause);
            }
            // Receiver side completes after the wire latency, if posted.
            if self.msgs[id].recv_posted {
                self.queue.push(self.now + latency, Event::Delivered(id));
            }
        }
        self.completed_buf = completed;
        self.reschedule_network();
    }

    /// Record a completed message into the delivery metrics (latency from
    /// post to arrival, split by p2p vs collective-internal traffic).
    fn observe_delivery(&mut self, id: MsgId) {
        if self.metrics.is_none() {
            return;
        }
        let Msg {
            posted_at,
            collective,
            ..
        } = self.msgs[id];
        let latency_us = self.now.since(posted_at).as_ps() as f64 / PS_PER_US as f64;
        let name = if collective {
            "engine.msg.latency_us.collective"
        } else {
            "engine.msg.latency_us.p2p"
        };
        obs_observe!(self.metrics, name, latency_us);
        obs_count!(self.metrics, "engine.msgs.delivered", 1);
    }

    fn on_delivered(&mut self, id: MsgId) {
        let dst = self.msgs[id].dst;
        let src = self.msgs[id].src;
        if let Some(c) = self.causal.as_deref_mut() {
            c.log.msgs[c.record[id]].delivered_at = Some(self.now);
        }
        self.trace
            .record_with(self.now, dst, TraceKind::MsgEnd, || TraceDetail::MsgFrom {
                src,
            });
        self.observe_delivery(id);
        if let RState::Waiting {
            need_recv: nr @ Some(RecvWait::Matched(_)),
            ..
        } = &mut self.ranks[dst].state
        {
            if *nr == Some(RecvWait::Matched(id)) {
                *nr = None;
                let cause = WaitCause::RecvDelivered(self.record_of(id));
                self.maybe_resume_waiter(dst, cause);
            }
        }
        // Non-blocking receiver: strike the irecv off the outstanding set.
        if self.ranks[dst].outstanding_recvs_matched.remove(&id) {
            let cause = WaitCause::RecvDelivered(self.record_of(id));
            self.maybe_resume_waitall(dst, cause);
        }
        self.free_msg(id);
    }

    // ----- DVFS ------------------------------------------------------------

    /// Begin moving `node` to `target`. Returns the stall latency (zero if
    /// no transition was needed or one is already in flight).
    fn request_transition(&mut self, node: usize, target: OpIndex) -> SimDuration {
        {
            let n = self.cluster.node(node);
            if n.in_transition() || target == n.op_index() {
                return SimDuration::ZERO;
            }
        }
        if let Some(f) = self.faults.as_deref_mut() {
            // Injected DVFS failure: the governor's request is silently
            // dropped and the node stays at its current operating point,
            // exactly like a cpufreq write that returned -EBUSY.
            if f.dvfs_fails(node, &mut self.fault_counts) {
                return SimDuration::ZERO;
            }
        }
        let old_freq = self.cluster.node(node).freq_hz();
        let from_mhz = self.cluster.node(node).operating_point().mhz();
        let mut lat = self
            .cluster
            .node_mut(node)
            .begin_transition(self.now, target);
        if let Some(f) = self.faults.as_deref() {
            // Latency-spike fault: the engine stalls the CPU for the
            // stretched latency. The node only tracks *that* it is in
            // transition, so completing later is safe.
            lat = f.spike_dvfs_latency(node, lat, &mut self.fault_counts);
        }
        // Pause mid-flight active compute: bank progress in cycles.
        if let RState::ComputeActive {
            cycles_total,
            started,
            event,
            power_factor,
            then_stall,
        } = self.ranks[node].state
        {
            self.queue.cancel(event);
            let done = duration_to_cycles(self.now.since(started), old_freq);
            let remaining = (cycles_total - done).max(0.0);
            self.ranks[node].state = RState::PausedCompute {
                remaining_cycles: remaining,
                power_factor,
                then_stall,
            };
            self.switch_bucket(node, Bucket::Transition);
            self.cluster
                .node_mut(node)
                .set_activity(self.now, CpuActivity::Halt);
        }
        self.queue
            .push(self.now + lat, Event::TransitionDone(node, target));
        if let Some(c) = self.causal.as_deref_mut() {
            c.log.dvfs.push(DvfsRecord {
                node,
                start: self.now,
                end: self.now + lat,
            });
        }
        self.trace
            .record_with(self.now, node, TraceKind::FreqChange, || {
                TraceDetail::Freq {
                    from_mhz,
                    to_mhz: self.cluster.node(node).config().ladder.point(target).mhz(),
                }
            });
        obs_count!(self.metrics, "engine.dvfs.transitions", 1);
        obs_observe!(
            self.metrics,
            "engine.dvfs.transition_latency_us",
            lat.as_ps() as f64 / PS_PER_US as f64
        );
        lat
    }

    fn on_transition_done(&mut self, node: usize, target: OpIndex) {
        self.cluster
            .node_mut(node)
            .complete_transition(self.now, target);
        if let RState::PausedCompute {
            remaining_cycles,
            power_factor,
            then_stall,
        } = self.ranks[node].state
        {
            self.begin_active_phase(node, remaining_cycles, power_factor, then_stall);
        }
    }

    fn on_governor_tick(&mut self, node: usize) {
        if self.finished == self.cluster.len() {
            return;
        }
        let decision = self
            .controller
            .on_tick(self.now, node, self.cluster.nodes());
        if let Some(target) = decision {
            obs_count!(self.metrics, "engine.dvfs.decisions", 1);
            self.request_transition(node, target);
        }
        if let Some(interval) = self.controller.poll_interval(node) {
            self.queue
                .push(self.now + interval, Event::GovernorTick(node));
        }
    }

    // ----- cluster-controller runtime hooks --------------------------------
    //
    // Delivered only when the controller asked for runtime events; the
    // per-node path (every classic strategy) pays one bool test per site.
    // All hooks run in (time, seq) event order, so controller state —
    // and therefore every decision — is deterministic.

    /// `r` just blocked in communication; a runtime controller may react.
    fn controller_wait_begin(&mut self, r: Rank) {
        if !self.controller_events {
            return;
        }
        let mut buf = std::mem::take(&mut self.decision_buf);
        self.controller
            .on_wait_begin(self.now, r, self.cluster.nodes(), &mut buf);
        self.decision_buf = buf;
        obs_count!(self.metrics, "controller.wait_events", 1);
        self.apply_decisions(None);
    }

    /// `r` was just released from its wait (the causal record is already
    /// closed). Returns true when a controller decision stalled `r` into
    /// a transition — the caller must then skip resuming it; the `Resume`
    /// queued here continues it once the new frequency lands.
    fn controller_wait_end(&mut self, r: Rank) -> bool {
        if !self.controller_events {
            return false;
        }
        let mut buf = std::mem::take(&mut self.decision_buf);
        self.controller
            .on_wait_end(self.now, r, self.cluster.nodes(), &mut buf);
        self.decision_buf = buf;
        obs_count!(self.metrics, "controller.wait_events", 1);
        self.apply_decisions(Some(r))
    }

    /// `r` crossed a phase marker. Same stall contract as wait end.
    fn controller_phase(&mut self, r: Rank, name: &'static str, begin: bool) -> bool {
        if !self.controller_events {
            return false;
        }
        let mut buf = std::mem::take(&mut self.decision_buf);
        self.controller
            .on_phase(self.now, r, name, begin, self.cluster.nodes(), &mut buf);
        self.decision_buf = buf;
        self.apply_decisions(Some(r))
    }

    /// A sample row was just recorded; the controller may replan. Sample
    /// instants are the natural cap-enforcement points: every transition
    /// granted here settles within the ~10 µs hardware latency, long
    /// before the next sample reads power.
    fn controller_sample(&mut self) {
        if !self.controller_events {
            return;
        }
        let mut buf = std::mem::take(&mut self.decision_buf);
        self.controller
            .on_sample(self.now, self.cluster.nodes(), &mut buf);
        self.decision_buf = buf;
        obs_count!(self.metrics, "controller.samples", 1);
        self.apply_decisions(None);
    }

    /// Apply buffered controller decisions through the normal transition
    /// path — latency, transition energy, and fault injection included.
    /// When a nonzero-latency transition lands on `resuming` (the rank
    /// the caller is about to continue), the rank is stalled exactly like
    /// an app-directed `SetSpeed` and `true` is returned so the caller
    /// leaves it parked until the transition completes.
    fn apply_decisions(&mut self, resuming: Option<Rank>) -> bool {
        if self.decision_buf.is_empty() {
            return false;
        }
        let mut decisions = std::mem::take(&mut self.decision_buf);
        let mut stalled = false;
        for d in decisions.drain(..) {
            obs_count!(self.metrics, "controller.decisions", 1);
            let lat = self.request_transition(d.node, d.target);
            if !lat.is_zero() && resuming == Some(d.node) {
                obs_count!(self.metrics, "controller.stalls", 1);
                self.ranks[d.node].state = RState::Stalled;
                self.switch_bucket(d.node, Bucket::Transition);
                self.cluster
                    .node_mut(d.node)
                    .set_activity(self.now, CpuActivity::Halt);
                // TransitionDone was queued first, so at the tied
                // timestamp the new frequency applies before resume.
                self.queue.push(self.now + lat, Event::Resume(d.node));
                stalled = true;
            }
        }
        self.decision_buf = decisions;
        stalled
    }

    // ----- sampling --------------------------------------------------------

    fn on_sample(&mut self) {
        if let Some(f) = self.faults.as_deref_mut() {
            // Skipped ACPI window: the whole row is dropped but the
            // sampling cadence continues at the next interval.
            if f.skip_sample(&mut self.fault_counts) {
                if let Some(interval) = self.config.sample_interval {
                    self.queue.push(self.now + interval, Event::Sample);
                }
                return;
            }
        }
        let n = self.cluster.len();
        let mut row = SampleRow {
            time: self.now,
            node_power_w: Vec::with_capacity(n),
            node_energy_j: Vec::with_capacity(n),
            node_mhz: Vec::with_capacity(n),
            node_battery_mwh: Vec::with_capacity(n),
        };
        for i in 0..n {
            let mut power = self.cluster.node(i).power_now();
            if let Some(f) = self.faults.as_deref() {
                // Meter bias only lies to the measurement tap; the
                // ground-truth energy column stays honest so the outlier
                // filter can spot the sick meter.
                power = f.bias_power(i, power, &mut self.fault_counts);
            }
            row.node_power_w.push(power);
            row.node_energy_j
                .push(self.cluster.node(i).energy(self.now).total_j());
            row.node_mhz
                .push(self.cluster.node(i).operating_point().mhz());
            row.node_battery_mwh.push(self.sample_battery(i));
        }
        self.samples.push(row);
        if let Some(interval) = self.config.sample_interval {
            self.queue.push(self.now + interval, Event::Sample);
        }
        self.controller_sample();
        // After the controller replans: the digest then covers the
        // decisions it just made, not only the state it saw.
        #[cfg(feature = "simsan")]
        self.san_checkpoint(SAN_TAG_SAMPLE);
    }

    /// One node's battery reading for the current sample row, with the
    /// degraded-mode ladder: a stuck register repeats its last reading; a
    /// poll the battery model rejects falls back to the node's last
    /// consistent reading (counted, never panicking); injected noise
    /// perturbs whatever was read.
    fn sample_battery(&mut self, i: usize) -> u64 {
        if let Some(f) = self.faults.as_deref() {
            if f.battery_stuck(i, self.now) {
                if let Some(last) = self.last_battery[i] {
                    self.fault_counts.battery_stuck_reads += 1;
                    return last;
                }
                // No reading captured before the register froze: take one
                // real poll below to have something to stick to.
            }
        }
        let reading = match self.cluster.node_mut(i).poll_battery(self.now) {
            Ok(r) => r,
            Err(_) => {
                self.fault_counts.battery_errors += 1;
                self.last_battery[i].unwrap_or_else(|| self.cluster.node(i).battery_reading())
            }
        };
        let reading = match self.faults.as_deref_mut() {
            Some(f) => f.battery_noise(i, reading, &mut self.fault_counts),
            None => reading,
        };
        self.last_battery[i] = Some(reading);
        reading
    }

    // ----- determinism sanitizer -------------------------------------------

    /// Append one digest of observable engine state to the sanitizer
    /// stream. Everything hashed is simulation state — simulated clock,
    /// queue lifetime counters, per-rank program counters and activity
    /// buckets, metered joules, battery registers, and the controller's
    /// own digest — so two runs that agree here agree on everything the
    /// [`RunResult`] is derived from. Host-side state (allocation
    /// addresses, map iteration order, thread scheduling) never enters
    /// the hash.
    #[cfg(feature = "simsan")]
    fn san_checkpoint(&mut self, tag: u8) {
        let mut h = SanHasher::new();
        h.write_u64(u64::from(tag));
        h.write_u64(self.now.since(SimTime::ZERO).as_ps());
        h.write_u64(self.finished as u64);
        h.write_u64(self.queue.len() as u64);
        h.write_u64(self.queue.pushed_total());
        for r in &self.ranks {
            h.write_u64(r.pc as u64);
            h.write_u64(r.bucket as u64);
        }
        for i in 0..self.cluster.len() {
            let node = self.cluster.node(i);
            h.write_u64(node.energy(self.now).total_j().to_bits());
            h.write_u64(node.battery_reading());
        }
        h.write_u64(self.controller.state_digest());
        self.san_hashes.push(h.finish());
    }

    // ----- teardown --------------------------------------------------------

    fn finalize(mut self) -> RunResult {
        let end = self
            .ranks
            .iter()
            // simlint: allow(panic-path): finalize runs only after the event loop retires every rank; an unfinished rank is corrupted engine state
            .map(|r| r.finish_time.expect("finalize with unfinished rank"))
            .max()
            .unwrap_or(SimTime::ZERO);
        let per_node: Vec<_> = self.cluster.nodes().iter().map(|n| n.energy(end)).collect();
        let freq_residency: Vec<_> = self
            .cluster
            .nodes()
            .iter()
            .map(|n| n.time_in_state(end))
            .collect();
        let total = self.cluster.total_energy(end);

        // Causal teardown: hand the recorded log to the solver. The
        // attribution derives from simulated state only (log, bucket
        // totals, metered joules), so it shares the registry's
        // determinism guarantees.
        let (causal, attribution) = match self.causal.take() {
            Some(rec) => {
                let log = rec.log;
                let buckets: Vec<obs::BucketTotals> = self
                    .ranks
                    .iter()
                    .map(|r| obs::BucketTotals {
                        compute: r.breakdown.compute + r.breakdown.mem_stall,
                        wait: r.breakdown.wait_busy + r.breakdown.wait_blocked,
                        transition: r.breakdown.transition,
                    })
                    .collect();
                let node_total_j: Vec<f64> = per_node.iter().map(|e| e.total_j()).collect();
                let attribution = obs::attribute(&log, &buckets, &node_total_j);
                (Some(log), Some(attribution))
            }
            None => (None, None),
        };

        // Fold teardown-time statistics into the registry: queue lifetime
        // counters, fair-share solver work, trace accounting, and the
        // cluster-wide per-frequency residency. These are derived from
        // simulated state only, so the whole registry stays deterministic.
        let trace_dropped = self.trace.dropped();
        if let Some(m) = self.metrics.as_deref_mut() {
            let pushed = self.queue.pushed_total();
            let cancelled = self.queue.cancelled_total();
            m.counter_add("engine.queue.pushed", pushed);
            m.counter_add("engine.queue.cancelled", cancelled);
            m.counter_add("engine.queue.processed", self.queue.processed_total());
            m.gauge_set(
                "engine.queue.depth_hwm",
                self.queue.depth_high_water() as f64,
            );
            m.gauge_set(
                "engine.queue.tombstone_ratio",
                if pushed > 0 {
                    cancelled as f64 / pushed as f64
                } else {
                    0.0
                },
            );
            let s = self.network.solver_stats();
            m.counter_add("net.solver.invocations", s.invocations);
            m.counter_add("net.solver.rounds", s.rounds);
            m.counter_add("net.solver.fallback_freezes", s.fallback_freezes);
            // Only the hierarchical (tree-mode) network tracks per-link
            // domains, but the counters are published unconditionally so
            // downstream diffs (the scale-smoke CI job) never depend on
            // whether the solver happened to do domain work.
            m.counter_add("net.solver.domains_touched", s.domains_touched);
            m.counter_add("net.solver.domains_skipped", s.domains_skipped);
            m.counter_add("net.rate_recomputes", self.network.rate_recomputes());
            m.counter_add("net.flows_completed", self.network.flows_completed());
            m.gauge_set("net.bytes_delivered", self.network.bytes_delivered());
            m.counter_add("engine.trace.recorded", self.trace.len() as u64);
            m.counter_add("engine.trace.dropped", trace_dropped);
            let mut per_mhz: std::collections::BTreeMap<u32, SimDuration> = Default::default();
            for node_res in &freq_residency {
                for &(mhz, d) in node_res {
                    *per_mhz.entry(mhz).or_insert(SimDuration::ZERO) += d;
                }
            }
            for (mhz, d) in per_mhz {
                m.gauge_set_owned(format!("engine.freq.residency_s.{mhz}mhz"), d.as_secs_f64());
            }
            // Fault counters are only published when something was
            // injected, so a fault-free run's registry is unchanged.
            let c = self.fault_counts;
            if c.total() > 0 {
                m.counter_add("engine.faults.compute_slowdowns", c.compute_slowdowns);
                m.counter_add("engine.faults.dvfs_failures", c.dvfs_failures);
                m.counter_add("engine.faults.dvfs_latency_spikes", c.dvfs_latency_spikes);
                m.counter_add("engine.faults.battery_stuck_reads", c.battery_stuck_reads);
                m.counter_add("engine.faults.battery_noisy_reads", c.battery_noisy_reads);
                m.counter_add("engine.faults.battery_errors", c.battery_errors);
                m.counter_add("engine.faults.samples_skipped", c.samples_skipped);
                m.counter_add("engine.faults.meter_biased_samples", c.meter_biased_samples);
                m.counter_add("engine.faults.degraded_links", c.degraded_links);
            }
        }

        RunResult {
            duration: end.since(SimTime::ZERO),
            per_node,
            total,
            breakdown: self.ranks.into_iter().map(|r| r.breakdown).collect(),
            transitions: self
                .cluster
                .nodes()
                .iter()
                .map(|n| n.transitions())
                .collect(),
            samples: self.samples,
            trace: self.trace.events().cloned().collect(),
            trace_dropped,
            freq_residency,
            events: self.queue.processed_total(),
            faults: self.fault_counts,
            metrics: self.metrics.map(|b| *b),
            causal,
            attribution,
        }
    }
}
