//! Causal event identity for "blame analysis".
//!
//! When [`causal` recording] is enabled, the engine logs the observable
//! life of every message (post → flow start → drain → delivery) and every
//! blocking wait it released, each wait carrying the identity of the
//! message whose completion ended it. That is exactly the dependency
//! information a critical-path walk needs: in this engine a blocked rank
//! resumes *only* when a message completes (sender side at drain, receiver
//! side at delivery), so the wait→cause edges plus each rank's local
//! execution order form the full happens-before DAG of the run.
//!
//! The types here are pure data — recorded by `mpi-sim`, solved by
//! `obs::causal` — so neither crate needs to depend on the other's
//! internals to agree on edge identity.
//!
//! [`causal` recording]: ../../mpi_sim/struct.EngineConfig.html

use crate::time::SimTime;

/// Index into [`CausalLog::msgs`]: messages numbered in posting order.
/// The engine recycles its message slots and maps each slot to its
/// record, so this is not a slot index.
pub type CausalMsgId = usize;

/// The observable life of one point-to-point message (collectives are
/// lowered onto p2p before they reach the engine, so this covers their
/// fan-in/fan-out edges too).
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRecord {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size.
    pub bytes: u64,
    /// Tag in the reserved collective-internal range.
    pub collective: bool,
    /// When the sender posted.
    pub posted_at: SimTime,
    /// When the payload entered the network: the send post for eager
    /// traffic, the rendezvous match otherwise. `None` only for a message
    /// whose flow never started (a run cut short).
    pub flow_started_at: Option<SimTime>,
    /// When the payload fully drained into the network (sender-side
    /// completion).
    pub drained_at: Option<SimTime>,
    /// When the payload arrived at the receiver (drain + wire latency).
    pub delivered_at: Option<SimTime>,
}

impl MsgRecord {
    /// The instant the network took over: the latest rank-local action
    /// (send post or rendezvous match) that enabled the flow. Falls back
    /// to the post time for flows that never started.
    pub fn enabled_at(&self) -> SimTime {
        self.flow_started_at.unwrap_or(self.posted_at)
    }

    /// The rank whose action at [`MsgRecord::enabled_at`] put the payload
    /// on the wire: the sender when the flow started at the send post
    /// (eager, or rendezvous matched by an earlier receive), otherwise
    /// the receiver whose later rendezvous match released it.
    pub fn enabler(&self) -> usize {
        if self.enabled_at() == self.posted_at {
            self.src
        } else {
            self.dst
        }
    }
}

/// Which message completion released a blocking wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitCause {
    /// The rank's own send drained into the network.
    SendDrained(CausalMsgId),
    /// A message the rank was receiving arrived.
    RecvDelivered(CausalMsgId),
}

impl WaitCause {
    /// The message whose completion ended the wait.
    pub fn msg(self) -> CausalMsgId {
        match self {
            WaitCause::SendDrained(id) | WaitCause::RecvDelivered(id) => id,
        }
    }
}

/// One blocking wait (a blocked `Send`/`Recv`/`SendRecv` or `WaitAll`)
/// from entry to the message completion that released it, with the node's
/// cumulative energy meter read at both ends so the joules burned while
/// blocked can be attributed without re-integrating the power model.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitRecord {
    /// The waiting rank.
    pub rank: usize,
    /// When the rank blocked.
    pub start: SimTime,
    /// When the releasing completion arrived (`end >= start`).
    pub end: SimTime,
    /// The completion that released the wait. For a wait on several
    /// conditions (`SendRecv`, `WaitAll`) this is the *last* one — the
    /// one that actually gated progress.
    pub cause: WaitCause,
    /// Node cumulative energy at `start`, joules.
    pub energy_start_j: f64,
    /// Node cumulative energy at `end`, joules.
    pub energy_end_j: f64,
}

/// One DVFS transition stall: the frequency switch gates the node's rank
/// locally for the ladder's transition latency.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsRecord {
    /// The transitioning node.
    pub node: usize,
    /// When the transition began.
    pub start: SimTime,
    /// When the new operating point took effect.
    pub end: SimTime,
}

/// The full causal log of one run: message lifecycles, released waits
/// (chronological per rank, appended in event order), DVFS transition
/// edges, and per-rank completion marks.
///
/// Everything here derives from simulated state in `(time, seq)`
/// dispatch order, so the log is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalLog {
    /// Every posted message, indexed by [`CausalMsgId`].
    pub msgs: Vec<MsgRecord>,
    /// Every released wait, in global event order (per-rank subsequences
    /// are therefore chronological and non-overlapping).
    pub waits: Vec<WaitRecord>,
    /// Every DVFS transition performed.
    pub dvfs: Vec<DvfsRecord>,
    /// Per-rank program completion time.
    pub finish: Vec<SimTime>,
    /// Per-rank node cumulative energy at program completion, joules.
    pub finish_energy_j: Vec<f64>,
}

impl CausalLog {
    /// An empty log for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        CausalLog {
            msgs: Vec::new(),
            waits: Vec::new(),
            dvfs: Vec::new(),
            finish: vec![SimTime::ZERO; ranks],
            finish_energy_j: vec![0.0; ranks],
        }
    }

    /// Number of ranks the log covers.
    pub fn ranks(&self) -> usize {
        self.finish.len()
    }

    /// The last rank completion — the run's makespan as an instant. The
    /// lowest-numbered rank wins ties, deterministically.
    pub fn last_finisher(&self) -> Option<(usize, SimTime)> {
        let mut best: Option<(usize, SimTime)> = None;
        for (r, &t) in self.finish.iter().enumerate() {
            if best.map(|(_, bt)| t > bt).unwrap_or(true) {
                best = Some((r, t));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(posted: u64, flow: u64) -> MsgRecord {
        MsgRecord {
            src: 0,
            dst: 1,
            bytes: 64,
            collective: false,
            posted_at: SimTime(posted),
            flow_started_at: Some(SimTime(flow)),
            drained_at: Some(SimTime(flow + 10)),
            delivered_at: Some(SimTime(flow + 12)),
        }
    }

    #[test]
    fn enabler_is_sender_for_eager_and_receiver_for_rendezvous() {
        // Flow started at the send post: the sender enabled it.
        assert_eq!(msg(5, 5).enabler(), 0);
        // Flow started later (rendezvous matched by the recv): receiver.
        assert_eq!(msg(5, 9).enabler(), 1);
    }

    #[test]
    fn last_finisher_breaks_ties_toward_the_lowest_rank() {
        let mut log = CausalLog::new(3);
        log.finish = vec![SimTime(7), SimTime(9), SimTime(9)];
        assert_eq!(log.last_finisher(), Some((1, SimTime(9))));
        assert_eq!(CausalLog::new(0).last_finisher(), None);
    }

    #[test]
    fn wait_cause_exposes_its_message() {
        assert_eq!(WaitCause::SendDrained(3).msg(), 3);
        assert_eq!(WaitCause::RecvDelivered(4).msg(), 4);
    }
}
