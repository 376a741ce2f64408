//! Engine and message-cost configuration.

use net_model::Topology;
use sim_core::{FaultSpec, SimDuration};

/// The frequency-scaled CPU cost of sending or receiving one message —
/// the MPI software stack the DVS literature calls the "communication
/// computation". MPICH-1.2.5 over TCP pays protocol bookkeeping per
/// message plus multiple buffer copies per byte.
#[derive(Debug, Clone)]
pub struct MsgCostModel {
    /// Core cycles of fixed per-message overhead at each end (envelope
    /// handling, matching, syscall entry).
    pub per_msg_cycles: f64,
    /// Core cycles per payload byte at each end (user→MPICH→socket copies,
    /// TCP checksum).
    pub cycles_per_byte: f64,
    /// Payload size above which copies stream through DRAM (the buffer no
    /// longer fits in the on-die L2), adding frequency-invariant stall
    /// time per cache line.
    pub dram_copy_threshold: u64,
}

impl Default for MsgCostModel {
    fn default() -> Self {
        MsgCostModel {
            per_msg_cycles: 6_000.0,
            cycles_per_byte: 2.0,
            dram_copy_threshold: 512 * 1024,
        }
    }
}

/// What a blocked rank does while it waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Spin in the progress engine forever — MPICH-1.2.5's ch_p4 behaviour
    /// and the paper's platform default. `/proc/stat` reads 100% busy.
    BusyPoll,
    /// Spin for the given window, then block in the kernel (idle). Models
    /// interrupt-driven transports; used by ablation benches to show how
    /// the cpuspeed result depends on wait visibility.
    PollThenBlock(SimDuration),
}

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Messages at or below this size are sent eagerly (flow starts without
    /// the receiver having posted); larger ones use rendezvous.
    pub eager_threshold: u64,
    /// Wait behaviour of blocked ranks.
    pub wait_policy: WaitPolicy,
    /// Periodic power/energy sampling interval, `None` to disable.
    pub sample_interval: Option<SimDuration>,
    /// Capacity of the in-memory trace (0 disables tracing).
    pub trace_capacity: usize,
    /// Collect engine metrics (event counts, queue stats, message latency
    /// histograms, DVFS decision counters) into
    /// [`crate::RunResult::metrics`]. Off by default: the registry is
    /// passive observation only and never affects simulated behaviour, but
    /// leaving it off keeps the hot path free of even the `Option` checks.
    pub metrics: bool,
    /// Deterministic fault injection. Empty by default; the engine only
    /// builds a fault runtime when at least one fault is armed, so an
    /// empty spec is guaranteed bit-identical to a build without fault
    /// support (the determinism suite checks exactly this).
    pub faults: FaultSpec,
    /// Interconnect shape. [`Topology::Flat`] is the paper's single
    /// switch and keeps the historical flat fluid model bit-for-bit;
    /// a fat-tree routes flows over per-level trunk links with an
    /// oversubscription ratio (see `net_model::Topology`).
    pub topology: Topology,
    /// Record the causal dependency log (message lifecycles, released
    /// waits with their releasing completions, DVFS transition edges,
    /// wait-boundary energy marks) into [`crate::RunResult::causal`] and
    /// compute [`crate::RunResult::attribution`] from it. Off by default:
    /// recording is passive observation in sequential dispatch order and
    /// never affects simulated behaviour, but leaving it off keeps the
    /// hot path free of even the `Option` checks.
    pub causal: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            eager_threshold: 64 * 1024,
            wait_policy: WaitPolicy::BusyPoll,
            sample_interval: None,
            trace_capacity: 0,
            metrics: false,
            faults: FaultSpec::default(),
            topology: Topology::Flat,
            causal: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_msg_cost_is_microseconds_scale() {
        let m = MsgCostModel::default();
        // Per-message overhead at 1.4 GHz lands in the "dozens of
        // microseconds" range the paper quotes for send+recv pairs.
        let us_per_end = m.per_msg_cycles / 1.4e9 * 1e6;
        assert!(us_per_end > 2.0 && us_per_end < 20.0, "{us_per_end}");
    }

    #[test]
    fn default_engine_config_matches_mpich_p4() {
        let c = EngineConfig::default();
        assert_eq!(c.eager_threshold, 64 * 1024);
        assert_eq!(c.wait_policy, WaitPolicy::BusyPoll);
        assert!(c.sample_interval.is_none());
        assert!(!c.metrics, "metrics collection must be opt-in");
        assert!(c.faults.is_empty(), "fault injection must be opt-in");
        assert_eq!(c.topology, Topology::Flat, "flat switch is the default");
        assert!(!c.causal, "causal tracing must be opt-in");
    }
}
