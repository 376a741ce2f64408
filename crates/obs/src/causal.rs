//! Critical-path extraction and per-rank time/energy attribution from a
//! [`CausalLog`] — the "blame analysis" behind `pwrperf run --causal`.
//!
//! ## The walk
//!
//! The log is already a happens-before DAG in adjacency form: each
//! released wait carries the message completion that ended it, and each
//! message carries the rank-local action that put it on the wire. The
//! critical path is extracted by a deterministic backward walk from the
//! last rank completion to time zero. At cursor `(rank, t)`:
//!
//! * if a wait of `rank` ended exactly at `t`, the releasing message is
//!   the gate: the in-network interval `[enabled_at, t]` joins the path
//!   as a communication hop and the walk continues on the rank whose
//!   action enabled the flow;
//! * otherwise the rank was locally busy (compute, DRAM stall, posting,
//!   DVFS stall): the interval back to its previous wait joins the path
//!   as that rank's residency.
//!
//! The walk is contiguous, so the path length equals the makespan by
//! construction — the interesting output is *where* it sits: per-rank
//! residency versus network hops. Everything is integer picosecond
//! arithmetic in event order; no wall clock, no floats on the path sums.
//!
//! ## The attribution
//!
//! Independently of the path, every rank's wall time splits exactly into
//! compute (frequency-scaled work + DRAM stall), in-flight communication
//! (wait time overlapping the releasing message's network flight), and
//! blocked-waiting (the rest of the waits + DVFS stalls). The same split
//! carries the node's metered joules, yielding a per-rank slack profile
//! and the cluster-level redistributable-energy figure that ROADMAP
//! item 2's power redistribution will feed on.

use sim_core::{CausalLog, SimDuration, SimTime};

/// One link of the critical path, chronological.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CpSegment {
    /// `rank` was locally busy over `[start, end]`.
    Local {
        rank: usize,
        start: SimTime,
        end: SimTime,
    },
    /// Message `msg` was in the network over `[start, end]`, gating the
    /// rank that its completion released.
    Comm {
        msg: usize,
        start: SimTime,
        end: SimTime,
    },
}

impl CpSegment {
    fn span(&self) -> SimDuration {
        match *self {
            CpSegment::Local { start, end, .. } | CpSegment::Comm { start, end, .. } => {
                end.since(start)
            }
        }
    }
}

/// The extracted critical path.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CriticalPath {
    /// Total path length (equals the makespan: the walk is contiguous).
    pub(crate) length: SimDuration,
    /// Path time spent in network flight.
    pub(crate) comm: SimDuration,
    /// Message hops on the path.
    pub(crate) hops: u64,
    /// Per-rank local residency on the path; sums to `length - comm`.
    pub(crate) residency: Vec<SimDuration>,
    /// The path itself, chronological.
    pub(crate) segments: Vec<CpSegment>,
}

/// The causal DAG in solver-ready adjacency form: the log plus per-rank
/// chronological wait indices. Building it is `O(waits)`.
#[derive(Debug)]
pub(crate) struct CausalGraph<'a> {
    log: &'a CausalLog,
    /// Indices into `log.waits` per rank, chronological.
    by_rank: Vec<Vec<usize>>,
}

impl<'a> CausalGraph<'a> {
    /// Index the log's wait edges by rank.
    pub(crate) fn from_log(log: &'a CausalLog) -> Self {
        let mut by_rank: Vec<Vec<usize>> = vec![Vec::new(); log.ranks()];
        for (i, w) in log.waits.iter().enumerate() {
            by_rank[w.rank].push(i);
        }
        CausalGraph { log, by_rank }
    }

    /// Extract the critical path: the deterministic backward walk
    /// described in the module docs. Longest-path over this DAG reduces
    /// to the walk because gating is total — at every instant exactly one
    /// predecessor (the releasing completion, or the rank's own local
    /// history) bounds progress.
    pub(crate) fn critical_path(&self) -> CriticalPath {
        let n = self.log.ranks();
        let mut cp = CriticalPath {
            residency: vec![SimDuration::ZERO; n],
            ..CriticalPath::default()
        };
        let Some((mut rank, makespan)) = self.log.last_finisher() else {
            return cp;
        };
        let mut t = makespan;
        // Per-rank exclusive upper bound into `by_rank`: a consumed wait
        // edge is never revisited, which both bounds the walk by the edge
        // count and keeps zero-duration edges from cycling at one instant.
        let mut ptr: Vec<usize> = self.by_rank.iter().map(Vec::len).collect();
        while t > SimTime::ZERO {
            let list = &self.by_rank[rank];
            let mut i = ptr[rank];
            while i > 0 && self.log.waits[list[i - 1]].end > t {
                i -= 1;
            }
            if i == 0 {
                // No earlier wait: the rank's local history reaches zero.
                cp.residency[rank] += t.since(SimTime::ZERO);
                cp.segments.push(CpSegment::Local {
                    rank,
                    start: SimTime::ZERO,
                    end: t,
                });
                break;
            }
            let w = &self.log.waits[list[i - 1]];
            if w.end == t {
                // The releasing message gates: follow its flight back to
                // the rank-local action that enabled it.
                ptr[rank] = i - 1;
                let m = &self.log.msgs[w.cause.msg()];
                let start = m.enabled_at().min(t);
                cp.comm += t.since(start);
                cp.hops += 1;
                cp.segments.push(CpSegment::Comm {
                    msg: w.cause.msg(),
                    start,
                    end: t,
                });
                rank = m.enabler();
                t = start;
            } else {
                // Locally busy back to the previous wait's release.
                ptr[rank] = i;
                cp.residency[rank] += t.since(w.end);
                cp.segments.push(CpSegment::Local {
                    rank,
                    start: w.end,
                    end: t,
                });
                t = w.end;
            }
        }
        cp.segments.reverse();
        cp.length = cp.segments.iter().map(CpSegment::span).sum();
        cp
    }
}

/// Per-rank bucket totals the engine already accounts (its breakdown),
/// pre-combined for attribution: the solver needs only these three sums.
#[derive(Debug, Clone, Copy, Default)]
pub struct BucketTotals {
    /// Frequency-scaled compute + DRAM stall.
    pub compute: SimDuration,
    /// Busy-poll + blocked wait time.
    pub wait: SimDuration,
    /// DVFS transition stalls.
    pub transition: SimDuration,
}

/// One rank's share of the blame.
#[derive(Debug, Clone, PartialEq)]
pub struct RankAttribution {
    /// Time doing work (compute + DRAM stall).
    pub compute: SimDuration,
    /// Wait time overlapping the releasing message's network flight.
    pub comm: SimDuration,
    /// Wait time before the gating flow even started, plus DVFS stalls.
    pub blocked: SimDuration,
    /// Local residency on the critical path.
    pub cp_residency: SimDuration,
    /// Program completion time.
    pub finish: SimTime,
    /// Joules up to completion, minus wait joules.
    pub compute_j: f64,
    /// Wait joules prorated onto the in-flight share of each wait.
    pub comm_j: f64,
    /// Wait joules prorated onto the pre-flight share of each wait.
    pub blocked_j: f64,
    /// Joules burned after this rank finished, waiting for the run to end.
    pub idle_tail_j: f64,
    /// Joules off the critical path: `comm_j + blocked_j + idle_tail_j`.
    pub slack_j: f64,
    /// Whole-run node energy (`compute_j + slack_j`).
    pub total_j: f64,
}

impl RankAttribution {
    /// The rank's accounted wall time; equals the engine's breakdown
    /// total exactly (integer picoseconds, no rounding).
    pub fn wall(&self) -> SimDuration {
        self.compute + self.comm + self.blocked
    }
}

/// Whole-run attribution summary: the critical path plus the per-rank
/// time/energy split and the cluster-level slack figure.
#[derive(Debug, Clone, PartialEq)]
pub struct RunAttribution {
    /// Last rank completion.
    pub makespan: SimDuration,
    /// Critical-path length (== makespan; kept separate so the invariant
    /// is checkable, not assumed).
    pub critical_path: SimDuration,
    /// Critical-path time in network flight.
    pub cp_comm: SimDuration,
    /// Message hops on the critical path.
    pub cp_hops: u64,
    /// Per-rank attribution rows.
    pub ranks: Vec<RankAttribution>,
    /// Cluster-wide joules off the critical path — the budget a power
    /// redistribution controller could shift toward gating ranks.
    pub redistributable_j: f64,
}

/// Compute the full attribution from a causal log, the engine's bucket
/// totals, and whole-run per-node energy.
pub fn attribute(
    log: &CausalLog,
    buckets: &[BucketTotals],
    node_total_j: &[f64],
) -> RunAttribution {
    let n = log.ranks();
    debug_assert_eq!(buckets.len(), n);
    debug_assert_eq!(node_total_j.len(), n);
    let cp = CausalGraph::from_log(log).critical_path();
    let makespan = log
        .last_finisher()
        .map(|(_, t)| t.since(SimTime::ZERO))
        .unwrap_or(SimDuration::ZERO);

    // Per-rank in-flight wait time and wait joules, split by overlap with
    // the releasing message's network flight.
    let mut comm = vec![SimDuration::ZERO; n];
    let mut comm_j = vec![0.0; n];
    let mut wait_j = vec![0.0; n];
    for w in &log.waits {
        let m = &log.msgs[w.cause.msg()];
        let flight_from = m.enabled_at().max(w.start).min(w.end);
        let in_flight = w.end.since(flight_from);
        comm[w.rank] += in_flight;
        let joules = w.energy_end_j - w.energy_start_j;
        wait_j[w.rank] += joules;
        comm_j[w.rank] += joules * in_flight.ratio(w.end.since(w.start));
    }

    let mut ranks = Vec::with_capacity(n);
    let mut redistributable_j = 0.0;
    for r in 0..n {
        let b = buckets[r];
        // `comm` only ever counts sub-intervals of waits, so the
        // subtraction cannot underflow.
        let blocked = (b.wait - comm[r]) + b.transition;
        let blocked_j = wait_j[r] - comm_j[r];
        let idle_tail_j = node_total_j[r] - log.finish_energy_j[r];
        let slack_j = comm_j[r] + blocked_j + idle_tail_j;
        redistributable_j += slack_j;
        ranks.push(RankAttribution {
            compute: b.compute,
            comm: comm[r],
            blocked,
            cp_residency: cp.residency[r],
            finish: log.finish[r],
            compute_j: log.finish_energy_j[r] - wait_j[r],
            comm_j: comm_j[r],
            blocked_j,
            idle_tail_j,
            slack_j,
            total_j: node_total_j[r],
        });
    }
    RunAttribution {
        makespan,
        critical_path: cp.length,
        cp_comm: cp.comm,
        cp_hops: cp.hops,
        ranks,
        redistributable_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{MsgRecord, WaitCause, WaitRecord};

    fn ms(v: u64) -> SimTime {
        SimTime(v * 1_000_000_000)
    }

    /// Two ranks: rank 0 computes 10ms and sends; rank 1 computes 2ms,
    /// then waits 8ms for the eager message plus 3ms of flight.
    fn two_rank_log() -> CausalLog {
        let mut log = CausalLog::new(2);
        log.msgs.push(MsgRecord {
            src: 0,
            dst: 1,
            bytes: 1024,
            collective: false,
            posted_at: ms(10),
            flow_started_at: Some(ms(10)),
            drained_at: Some(ms(12)),
            delivered_at: Some(ms(13)),
        });
        log.waits.push(WaitRecord {
            rank: 1,
            start: ms(2),
            end: ms(13),
            cause: WaitCause::RecvDelivered(0),
            energy_start_j: 10.0,
            energy_end_j: 32.0,
        });
        log.finish = vec![ms(10), ms(13)];
        log.finish_energy_j = vec![50.0, 40.0];
        log
    }

    #[test]
    fn critical_path_walks_through_the_message() {
        let log = two_rank_log();
        let cp = CausalGraph::from_log(&log).critical_path();
        // CP: rank 0 local [0,10] → flight [10,13] gating rank 1.
        assert_eq!(cp.length, ms(13).since(SimTime::ZERO));
        assert_eq!(cp.comm, ms(13).since(ms(10)));
        assert_eq!(cp.hops, 1);
        assert_eq!(cp.residency[0], ms(10).since(SimTime::ZERO));
        assert_eq!(cp.residency[1], SimDuration::ZERO);
        assert_eq!(cp.segments.len(), 2);
    }

    #[test]
    fn attribution_splits_sum_to_wall_time() {
        let log = two_rank_log();
        let buckets = [
            BucketTotals {
                compute: ms(10).since(SimTime::ZERO),
                wait: SimDuration::ZERO,
                transition: SimDuration::ZERO,
            },
            BucketTotals {
                compute: ms(2).since(SimTime::ZERO),
                wait: ms(13).since(ms(2)),
                transition: SimDuration::ZERO,
            },
        ];
        let a = attribute(&log, &buckets, &[55.0, 41.0]);
        assert_eq!(a.critical_path, a.makespan);
        // Rank 1 waited [2,13]; the flow covered [10,13].
        assert_eq!(a.ranks[1].comm, ms(13).since(ms(10)));
        assert_eq!(a.ranks[1].blocked, ms(10).since(ms(2)));
        assert_eq!(a.ranks[1].wall(), ms(13).since(SimTime::ZERO));
        assert_eq!(a.ranks[0].wall(), ms(10).since(SimTime::ZERO));
        // Wait joules (22) prorate 3/11 comm, 8/11 blocked.
        assert!((a.ranks[1].comm_j - 6.0).abs() < 1e-12);
        assert!((a.ranks[1].blocked_j - 16.0).abs() < 1e-12);
        // Idle tails: rank 0 burned 5J after finishing, rank 1 burned 1J.
        assert!((a.ranks[0].idle_tail_j - 5.0).abs() < 1e-12);
        assert!(
            (a.redistributable_j - (5.0 + 6.0 + 16.0 + 1.0)).abs() < 1e-12,
            "{}",
            a.redistributable_j
        );
    }

    #[test]
    fn empty_log_yields_an_empty_path() {
        let log = CausalLog::new(0);
        let cp = CausalGraph::from_log(&log).critical_path();
        assert_eq!(cp.length, SimDuration::ZERO);
        assert!(cp.segments.is_empty());
        let a = attribute(&log, &[], &[]);
        assert_eq!(a.makespan, SimDuration::ZERO);
        assert!(a.ranks.is_empty());
    }

    #[test]
    fn zero_duration_edges_cannot_cycle_the_walk() {
        // Pathological log: a zero-length wait at the makespan whose
        // cause flow also spans zero time on the same rank. The per-rank
        // consumption pointer must retire the edge and fall through to
        // the local-history base case instead of spinning.
        let mut log = CausalLog::new(1);
        log.msgs.push(MsgRecord {
            src: 0,
            dst: 0,
            bytes: 0,
            collective: false,
            posted_at: ms(5),
            flow_started_at: Some(ms(5)),
            drained_at: Some(ms(5)),
            delivered_at: Some(ms(5)),
        });
        log.waits.push(WaitRecord {
            rank: 0,
            start: ms(5),
            end: ms(5),
            cause: WaitCause::SendDrained(0),
            energy_start_j: 0.0,
            energy_end_j: 0.0,
        });
        log.finish = vec![ms(5)];
        log.finish_energy_j = vec![1.0];
        let cp = CausalGraph::from_log(&log).critical_path();
        assert_eq!(cp.length, ms(5).since(SimTime::ZERO));
        assert_eq!(cp.hops, 1);
    }
}
