//! The engine's one observation seam.
//!
//! A run can record a bounded trace ([`EngineConfig::trace_capacity`]),
//! metrics ([`EngineConfig::metrics`]) and the causal log
//! ([`EngineConfig::causal`]). All three live in one [`Recorder`], which
//! the engine holds as `Option<Box<Recorder>>`, built only when one of
//! them is on. The engine reports each fact of the run with one call
//! behind one branch, and the recorder hands it to whichever channels are
//! on. Every fact method is out of line, so the engine's hot paths stay
//! small and a run with recording off pays one pointer test per fact.
//!
//! Facts arrive in `(time, seq)` dispatch order and carry only simulated
//! state, so everything recorded is deterministic. Counters and latency
//! histograms stay typed fields until teardown, when they are folded into
//! a [`MetricsRegistry`] under their published names; a counter no fact
//! touched is not published.

use std::collections::{BTreeMap, VecDeque};

use cluster_sim::Node;
use net_model::FluidNetwork;
use obs::{BucketTotals, Histogram, MetricsRegistry};
use power_model::OpIndex;
use sim_core::time::PS_PER_US;
use sim_core::{
    CausalLog, DvfsRecord, EventQueue, MsgRecord, SimDuration, SimTime, TraceDetail, TraceEvent,
    TraceKind, WaitCause, WaitRecord,
};

use crate::config::EngineConfig;
use crate::engine::{Event, MsgId, MsgKey};
use crate::program::{ProgramBuilder, Rank};
use crate::result::RunResult;

/// A per-event counter: its index in [`Counters::counts`] and in
/// [`COUNT_NAMES`]. The first eight count dispatched events by kind.
#[derive(Clone, Copy)]
pub(crate) enum Count {
    Resume,
    PhaseDone,
    Delivered,
    NetworkWake,
    TransitionDone,
    GovernorTick,
    WaitBlock,
    Sample,
    MsgsPosted,
    MsgsDelivered,
    DvfsDecisions,
    DvfsTransitions,
    ControllerWaitEvents,
    ControllerSamples,
    ControllerDecisions,
}

/// Each [`Count`]'s published name, in declaration order.
const COUNT_NAMES: [&str; 15] = [
    "engine.events.resume",
    "engine.events.phase_done",
    "engine.events.delivered",
    "engine.events.network_wake",
    "engine.events.transition_done",
    "engine.events.governor_tick",
    "engine.events.wait_block",
    "engine.events.sample",
    "engine.msgs.posted",
    "engine.msgs.delivered",
    "engine.dvfs.decisions",
    "engine.dvfs.transitions",
    "controller.wait_events",
    "controller.samples",
    "controller.decisions",
];

fn as_us(d: SimDuration) -> f64 {
    d.as_ps() as f64 / PS_PER_US as f64
}

/// The bounded trace: the most recent `capacity` (at least one) events,
/// and a count of the older ones it discarded to stay within it.
struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        TraceRing {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    fn record(&mut self, time: SimTime, node: usize, kind: TraceKind, detail: TraceDetail) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let event = TraceEvent {
            time,
            node,
            kind,
            detail,
        };
        self.events.push_back(event);
    }
}

#[derive(Default)]
struct Counters {
    counts: [u64; COUNT_NAMES.len()],
    bytes_posted: u64,
    /// Post-to-arrival latency of point-to-point messages, µs.
    p2p_latency: Histogram,
    /// The same for collective-internal messages, µs.
    collective_latency: Histogram,
    /// DVFS transition stall, µs.
    transition_latency: Histogram,
}

/// The causal log under construction, plus each rank's open blocking
/// wait: its entry time and the node's cumulative joules then.
struct Causal {
    log: CausalLog,
    open: Vec<Option<(SimTime, f64)>>,
}

/// What the recorder keeps about the message in one engine arena slot.
/// Only the latency histograms and the causal log read it, so the
/// engine's own message carries none of it.
#[derive(Clone, Copy)]
struct Slot {
    posted_at: SimTime,
    src: Rank,
    dst: Rank,
    /// The tag is in [`ProgramBuilder`]'s collective-internal range.
    collective: bool,
    /// The message's causal-log record. Slots are recycled; records are
    /// not, so the log numbers messages in posting order.
    record: usize,
}

/// The trace ring, the metrics and the causal state, each present only
/// when its channel is on, and what they know of each message slot.
pub(crate) struct Recorder {
    trace: Option<TraceRing>,
    counters: Option<Counters>,
    causal: Option<Causal>,
    slots: Vec<Slot>,
}

impl Recorder {
    /// The recorder for `config` over `ranks` ranks, or `None` when the
    /// run records nothing.
    pub(crate) fn new(config: &EngineConfig, ranks: usize) -> Option<Box<Self>> {
        if config.trace_capacity == 0 && !config.metrics && !config.causal {
            return None;
        }
        Some(Box::new(Recorder {
            trace: (config.trace_capacity > 0).then(|| TraceRing::new(config.trace_capacity)),
            counters: config.metrics.then(Counters::default),
            causal: config.causal.then(|| Causal {
                log: CausalLog::new(ranks),
                open: vec![None; ranks],
            }),
            slots: Vec::new(),
        }))
    }

    /// The engine is about to dispatch `ev`.
    #[cold]
    #[inline(never)]
    pub(crate) fn event_dispatched(&mut self, ev: &Event) {
        if let Some(c) = &mut self.counters {
            let kind = match ev {
                Event::Resume(_) => Count::Resume,
                Event::PhaseDone(_) => Count::PhaseDone,
                Event::Delivered(_) => Count::Delivered,
                Event::NetworkWake => Count::NetworkWake,
                Event::TransitionDone(..) => Count::TransitionDone,
                Event::GovernorTick(_) => Count::GovernorTick,
                Event::WaitBlock(_) => Count::WaitBlock,
                Event::Sample => Count::Sample,
            };
            c.counts[kind as usize] += 1;
        }
    }

    /// A fact with nothing to record but its count: a DVFS decision, or a
    /// controller hook or decision.
    #[cold]
    #[inline(never)]
    pub(crate) fn count(&mut self, what: Count) {
        if let Some(c) = &mut self.counters {
            c.counts[what as usize] += 1;
        }
    }

    /// Rank `r` entered (`begin`) or left program phase `name`.
    #[cold]
    #[inline(never)]
    pub(crate) fn phase(&mut self, now: SimTime, r: Rank, name: &'static str, begin: bool) {
        if let Some(t) = &mut self.trace {
            let kind = if begin {
                TraceKind::PhaseBegin
            } else {
                TraceKind::PhaseEnd
            };
            t.record(now, r, kind, TraceDetail::Phase(name));
        }
    }

    /// A send of `bytes` on `key` was posted and is held in slot `id`.
    #[cold]
    #[inline(never)]
    pub(crate) fn msg_posted(&mut self, now: SimTime, id: MsgId, key: MsgKey, bytes: u64) {
        let (src, dst, tag) = key;
        let collective = tag >= ProgramBuilder::COLLECTIVE_TAG_BASE;
        let mut record = 0;
        if let Some(c) = &mut self.causal {
            record = c.log.msgs.len();
            c.log.msgs.push(MsgRecord {
                src,
                dst,
                bytes,
                collective,
                posted_at: now,
                flow_started_at: None,
                drained_at: None,
                delivered_at: None,
            });
        }
        let slot = Slot {
            posted_at: now,
            src,
            dst,
            collective,
            record,
        };
        if id == self.slots.len() {
            self.slots.push(slot);
        } else {
            self.slots[id] = slot;
        }
        if let Some(t) = &mut self.trace {
            let detail = TraceDetail::MsgTo { dst, bytes };
            t.record(now, src, TraceKind::MsgStart, detail);
        }
        if let Some(c) = &mut self.counters {
            c.counts[Count::MsgsPosted as usize] += 1;
            c.bytes_posted += bytes;
        }
    }

    /// The message in slot `id` entered the network.
    #[cold]
    #[inline(never)]
    pub(crate) fn flow_started(&mut self, now: SimTime, id: MsgId) {
        if let Some(c) = &mut self.causal {
            c.log.msgs[self.slots[id].record].flow_started_at = Some(now);
        }
    }

    /// The message in slot `id` fully drained into the network.
    #[cold]
    #[inline(never)]
    pub(crate) fn msg_drained(&mut self, now: SimTime, id: MsgId) {
        if let Some(c) = &mut self.causal {
            c.log.msgs[self.slots[id].record].drained_at = Some(now);
        }
    }

    /// The message in slot `id` reached its receiver, which takes it now.
    /// It arrived at `arrived_at`, earlier than `now` when it was already
    /// there as the receive posted.
    #[cold]
    #[inline(never)]
    pub(crate) fn msg_delivered(&mut self, now: SimTime, arrived_at: SimTime, id: MsgId) {
        let slot = self.slots[id];
        if let Some(c) = &mut self.causal {
            c.log.msgs[slot.record].delivered_at = Some(arrived_at);
        }
        if let Some(t) = &mut self.trace {
            let detail = TraceDetail::MsgFrom { src: slot.src };
            t.record(now, slot.dst, TraceKind::MsgEnd, detail);
        }
        if let Some(c) = &mut self.counters {
            let latency = if slot.collective {
                &mut c.collective_latency
            } else {
                &mut c.p2p_latency
            };
            latency.record(as_us(now.since(slot.posted_at)));
            c.counts[Count::MsgsDelivered as usize] += 1;
        }
    }

    /// Rank `r`, on `node`, blocked in communication.
    #[cold]
    #[inline(never)]
    pub(crate) fn wait_opened(&mut self, now: SimTime, r: Rank, node: &Node) {
        if let Some(c) = &mut self.causal {
            c.open[r] = Some((now, node.energy(now).total_j()));
        }
    }

    /// Rank `r`, on `node`, was released from its wait by the completion
    /// `cause` names of the message in slot `id`.
    #[cold]
    #[inline(never)]
    pub(crate) fn wait_closed(
        &mut self,
        now: SimTime,
        r: Rank,
        node: &Node,
        cause: fn(usize) -> WaitCause,
        id: MsgId,
    ) {
        if let Some(c) = &mut self.causal {
            if let Some((start, energy_start_j)) = c.open[r].take() {
                c.log.waits.push(WaitRecord {
                    rank: r,
                    start,
                    end: now,
                    cause: cause(self.slots[id].record),
                    energy_start_j,
                    energy_end_j: node.energy(now).total_j(),
                });
            }
        }
    }

    /// Node `i` began a transition to `target` that stalls it for `lat`;
    /// `node` still runs at the point it leaves.
    #[cold]
    #[inline(never)]
    pub(crate) fn dvfs_transition(
        &mut self,
        now: SimTime,
        i: usize,
        node: &Node,
        target: OpIndex,
        lat: SimDuration,
    ) {
        if let Some(c) = &mut self.causal {
            c.log.dvfs.push(DvfsRecord {
                node: i,
                start: now,
                end: now + lat,
            });
        }
        if let Some(t) = &mut self.trace {
            let detail = TraceDetail::Freq {
                from_mhz: node.operating_point().mhz(),
                to_mhz: node.config().ladder.point(target).mhz(),
            };
            t.record(now, i, TraceKind::FreqChange, detail);
        }
        if let Some(c) = &mut self.counters {
            c.counts[Count::DvfsTransitions as usize] += 1;
            c.transition_latency.record(as_us(lat));
        }
    }

    /// Rank `r`, on `node`, finished its program.
    #[cold]
    #[inline(never)]
    pub(crate) fn rank_finished(&mut self, now: SimTime, r: Rank, node: &Node) {
        if let Some(c) = &mut self.causal {
            c.log.finish[r] = now;
            c.log.finish_energy_j[r] = node.energy(now).total_j();
        }
    }

    /// Write what the run recorded into `result`, whose simulated fields
    /// are final: the trace, the metrics folded into a registry with the
    /// teardown statistics of `queue` and `network`, and the causal log
    /// with its attribution.
    pub(crate) fn teardown(
        self,
        result: &mut RunResult,
        queue: &EventQueue<Event>,
        network: &FluidNetwork,
    ) {
        if let Some(t) = self.trace {
            result.trace = Vec::from(t.events);
            result.trace_dropped = t.dropped;
        }
        if let Some(c) = self.counters {
            result.metrics = Some(registry(c, result, queue, network));
        }
        if let Some(c) = self.causal {
            let buckets: Vec<BucketTotals> = result
                .breakdown
                .iter()
                .map(|b| BucketTotals {
                    compute: b.compute + b.mem_stall,
                    wait: b.wait_busy + b.wait_blocked,
                    transition: b.transition,
                })
                .collect();
            let node_total_j: Vec<f64> = result.per_node.iter().map(|e| e.total_j()).collect();
            result.attribution = Some(obs::attribute(&c.log, &buckets, &node_total_j));
            result.causal = Some(c.log);
        }
    }
}

/// Fold the run's counters into a registry with its teardown statistics:
/// queue lifetime counters, solver work, trace accounting, cluster-wide
/// per-frequency residency and, when something was injected, the fault
/// counters. All of it derives from simulated state only.
fn registry(
    c: Counters,
    result: &RunResult,
    queue: &EventQueue<Event>,
    network: &FluidNetwork,
) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for (name, &n) in COUNT_NAMES.iter().zip(&c.counts) {
        if n > 0 {
            m.counter_add(name, n);
        }
    }
    let dispatched: u64 = c.counts[..=Count::Sample as usize].iter().sum();
    if dispatched > 0 {
        m.counter_add("engine.events.dispatched", dispatched);
    }
    if c.counts[Count::MsgsPosted as usize] > 0 {
        // Every post adds its size, zero-byte ones included.
        m.counter_add("engine.msgs.bytes_posted", c.bytes_posted);
    }
    for (name, h) in [
        ("engine.msg.latency_us.p2p", c.p2p_latency),
        ("engine.msg.latency_us.collective", c.collective_latency),
        ("engine.dvfs.transition_latency_us", c.transition_latency),
    ] {
        if h.count() > 0 {
            m.histogram_insert(name, h);
        }
    }
    m.counter_add("engine.queue.pushed", queue.pushed_total());
    m.counter_add("engine.queue.cancelled", queue.cancelled_total());
    m.counter_add("engine.queue.processed", queue.processed_total());
    m.gauge_set("engine.queue.depth_hwm", queue.depth_high_water() as f64);
    let s = network.solver_stats();
    m.counter_add("net.solver.invocations", s.invocations);
    m.counter_add("net.solver.rounds", s.rounds);
    m.counter_add("net.solver.fallback_freezes", s.fallback_freezes);
    // Only the hierarchical (tree-mode) network tracks per-link domains,
    // but the counters are published unconditionally so downstream diffs
    // (the scale-smoke CI job) never depend on whether the solver happened
    // to do domain work.
    m.counter_add("net.solver.domains_touched", s.domains_touched);
    m.counter_add("net.solver.domains_skipped", s.domains_skipped);
    m.counter_add("net.rate_recomputes", network.rate_recomputes());
    m.counter_add("net.flows_completed", network.flows_completed());
    m.gauge_set("net.bytes_delivered", network.bytes_delivered());
    m.counter_add("engine.trace.recorded", result.trace.len() as u64);
    m.counter_add("engine.trace.dropped", result.trace_dropped);
    let mut per_mhz: BTreeMap<u32, SimDuration> = BTreeMap::new();
    for &(mhz, d) in result.freq_residency.iter().flatten() {
        *per_mhz.entry(mhz).or_insert(SimDuration::ZERO) += d;
    }
    for (mhz, d) in per_mhz {
        m.gauge_set(
            &format!("engine.freq.residency_s.{mhz}mhz"),
            d.as_secs_f64(),
        );
    }
    // Fault counters are only published when something was injected, so
    // a fault-free run's registry is unchanged.
    if result.faults.total() > 0 {
        for (name, n) in result.faults.named() {
            m.counter_add(&format!("engine.faults.{name}"), n);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(t: &TraceRing) -> Vec<u64> {
        t.events.iter().map(|e| e.time.0).collect()
    }

    #[test]
    fn trace_keeps_the_latest_events_in_order() {
        let mut t = TraceRing::new(3);
        for i in 0..5 {
            t.record(
                SimTime(i),
                0,
                TraceKind::PhaseBegin,
                TraceDetail::Phase("x"),
            );
            if i == 1 {
                assert_eq!(times(&t), vec![0, 1], "records in order");
                assert_eq!(t.dropped, 0);
            }
        }
        assert_eq!(times(&t), vec![2, 3, 4]);
        assert_eq!(t.dropped, 2);
    }

    #[test]
    fn a_recorder_exists_only_when_something_records() {
        let on = |f: fn(&mut EngineConfig)| {
            let mut config = EngineConfig::default();
            f(&mut config);
            Recorder::new(&config, 4).is_some()
        };
        assert!(!on(|_| {}));
        assert!(on(|c| c.trace_capacity = 1));
        assert!(on(|c| c.metrics = true));
        assert!(on(|c| c.causal = true));
    }
}
