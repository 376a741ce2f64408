//! Simulated `/proc/stat` CPU accounting.
//!
//! The `cpuspeed` daemon's whole world-view is the busy/idle split it
//! derives from `/proc/stat`. We reproduce that: time in any activity state
//! except `Halt` accumulates as *busy* (busy-wait polling looks 100% busy to
//! Linux, which is exactly why the paper finds `cpuspeed` blind to
//! communication slack).

use power_model::CpuActivity;
use sim_core::{SimTime, TimeWeighted};

/// Running busy/idle accounting for one CPU.
#[derive(Debug)]
pub struct ProcStat {
    /// Indicator signal: 1.0 while busy, 0.0 while idle.
    busy: TimeWeighted,
}

/// A point-in-time reading, used to compute interval utilization the same
/// way the daemon diffs successive `/proc/stat` reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcStatSnapshot {
    /// When the snapshot was taken.
    pub(crate) at: SimTime,
    /// Cumulative busy seconds since boot.
    pub(crate) busy_secs: f64,
}

impl ProcStat {
    /// Accounting starts at `start` with the CPU idle.
    pub(crate) fn new(start: SimTime) -> Self {
        ProcStat {
            busy: TimeWeighted::new(start, 0.0),
        }
    }

    /// The CPU changed activity state at `now`.
    pub(crate) fn on_activity(&mut self, now: SimTime, activity: CpuActivity) {
        self.busy
            .set(now, if activity.counts_as_busy() { 1.0 } else { 0.0 });
    }

    /// Read the counters, like opening `/proc/stat`.
    pub(crate) fn snapshot(&self, now: SimTime) -> ProcStatSnapshot {
        ProcStatSnapshot {
            at: now,
            busy_secs: self.busy.integral_at(now),
        }
    }

    /// Utilization in `[0, 1]` over the interval between two snapshots,
    /// `0` for an empty interval (matching the daemon's guard).
    pub fn utilization(prev: ProcStatSnapshot, curr: ProcStatSnapshot) -> f64 {
        let wall = curr.at.since(prev.at).as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        ((curr.busy_secs - prev.busy_secs) / wall).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    #[test]
    fn fully_busy_interval_reads_one() {
        let mut ps = ProcStat::new(SimTime::ZERO);
        ps.on_activity(SimTime::ZERO, CpuActivity::Active);
        let a = ps.snapshot(SimTime::ZERO);
        let b = ps.snapshot(SimTime::from_secs(2));
        assert!((ProcStat::utilization(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busy_wait_counts_as_busy() {
        // The key cpuspeed blindness: polling in MPI_Recv looks 100% busy.
        let mut ps = ProcStat::new(SimTime::ZERO);
        ps.on_activity(SimTime::ZERO, CpuActivity::BusyWait);
        let a = ps.snapshot(SimTime::ZERO);
        let b = ps.snapshot(SimTime::from_secs(5));
        assert_eq!(ProcStat::utilization(a, b), 1.0);
    }

    #[test]
    fn halt_counts_as_idle() {
        let mut ps = ProcStat::new(SimTime::ZERO);
        ps.on_activity(SimTime::ZERO, CpuActivity::Active);
        let a = ps.snapshot(SimTime::ZERO);
        ps.on_activity(SimTime::from_secs(1), CpuActivity::Halt);
        let b = ps.snapshot(SimTime::from_secs(4));
        assert!((ProcStat::utilization(a, b) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn mem_stall_is_busy_like_linux() {
        let mut ps = ProcStat::new(SimTime::ZERO);
        ps.on_activity(SimTime::ZERO, CpuActivity::MemStall);
        let a = ps.snapshot(SimTime::ZERO);
        let b = ps.snapshot(SimTime::from_secs(1));
        assert_eq!(ProcStat::utilization(a, b), 1.0);
    }

    #[test]
    fn empty_interval_reads_zero() {
        let ps = ProcStat::new(SimTime::ZERO);
        let s = ps.snapshot(SimTime::from_secs(1));
        assert_eq!(ProcStat::utilization(s, s), 0.0);
    }

    #[test]
    fn interval_utilization_is_windowed_not_cumulative() {
        let mut ps = ProcStat::new(SimTime::ZERO);
        ps.on_activity(SimTime::ZERO, CpuActivity::Active);
        // Busy 10 s, then idle.
        ps.on_activity(SimTime::from_secs(10), CpuActivity::Halt);
        let a = ps.snapshot(SimTime::from_secs(10));
        let b = ps.snapshot(SimTime::from_secs(10) + SimDuration::from_secs(10));
        assert_eq!(ProcStat::utilization(a, b), 0.0);
    }
}
