//! Bounded in-memory simulation trace.
//!
//! The PowerPack framework in the paper coordinates and aligns measurement
//! records from many nodes. Our simulated equivalent logs structured
//! [`TraceEvent`]s (phase markers, frequency transitions, message
//! lifecycles) that the `powerpack` crate later filters and aligns the same
//! way the paper's post-processing tools do, and that the `obs` crate
//! renders as a Perfetto timeline.
//!
//! Events carry a typed [`TraceDetail`] payload rather than a string:
//! recording is allocation-free (the detail is a `Copy` enum), exporters
//! get structure instead of re-parsing text, and the old string forms are
//! still available through `Display`.

use std::fmt;

use crate::time::SimTime;

/// What kind of thing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A program phase began (e.g. entering `fft()`).
    PhaseBegin,
    /// A program phase ended.
    PhaseEnd,
    /// A DVFS transition was requested or completed.
    FreqChange,
    /// A message entered the network.
    MsgStart,
    /// A message fully arrived.
    MsgEnd,
    /// A measurement sample was taken (battery/meter poll).
    Sample,
    /// Governor decision or other control action.
    Control,
    /// Anything else.
    Other,
}

/// Typed event payload. `Copy`, so recording never allocates and exporters
/// (CSV, Perfetto) can destructure instead of parsing strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceDetail {
    /// Nothing beyond the kind.
    None,
    /// A named program phase (PhaseBegin / PhaseEnd).
    Phase(&'static str),
    /// An outgoing message: destination rank and payload size.
    MsgTo {
        /// Destination rank.
        dst: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// An arriving message: source rank.
    MsgFrom {
        /// Source rank.
        src: usize,
    },
    /// A DVFS retarget: operating frequencies before and after.
    Freq {
        /// Frequency before the transition, MHz.
        from_mhz: u32,
        /// Frequency after the transition, MHz.
        to_mhz: u32,
    },
    /// Free-form static label (control actions, samples).
    Label(&'static str),
}

impl TraceDetail {
    /// The phase name, when this detail marks a phase.
    pub fn phase(&self) -> Option<&'static str> {
        match self {
            TraceDetail::Phase(name) => Some(name),
            _ => None,
        }
    }
}

impl fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDetail::None => Ok(()),
            TraceDetail::Phase(name) | TraceDetail::Label(name) => f.write_str(name),
            TraceDetail::MsgTo { dst, bytes } => write!(f, "->{dst} {bytes}B"),
            TraceDetail::MsgFrom { src } => write!(f, "<-{src}"),
            TraceDetail::Freq { from_mhz, to_mhz } => write!(f, "{from_mhz}->{to_mhz}"),
        }
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Which node it happened on (`usize::MAX` = cluster-wide).
    pub node: usize,
    /// Category for filtering.
    pub kind: TraceKind,
    /// Structured detail, e.g. `Phase("fft")` or `Freq { 1400, 600 }`.
    pub detail: TraceDetail,
}

/// Node id used for cluster-wide (not node-specific) events.
pub const CLUSTER_NODE: usize = usize::MAX;

/// A bounded event log. When the capacity is reached, the oldest events are
/// discarded (the paper notes their tools must cope with "large amounts of
/// data for typical scientific application runs" — we bound memory instead).
#[derive(Debug)]
pub struct Trace {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Trace {
    /// A trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            enabled: true,
        }
    }

    /// A disabled trace that records nothing (zero overhead in hot loops
    /// beyond a branch).
    pub fn disabled() -> Self {
        let mut t = Trace::new(0);
        t.enabled = false;
        t
    }

    /// Record an event.
    pub fn record(&mut self, time: SimTime, node: usize, kind: TraceKind, detail: TraceDetail) {
        self.record_with(time, node, kind, || detail);
    }

    /// Record an event, building the detail lazily: `detail` runs only if
    /// the event will actually be retained (or counted as dropped), so a
    /// disabled trace pays nothing — not even the detail's construction.
    pub fn record_with(
        &mut self,
        time: SimTime,
        node: usize,
        kind: TraceKind,
        detail: impl FnOnce() -> TraceDetail,
    ) {
        if !self.enabled {
            return;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            time,
            node,
            kind,
            detail: detail(),
        });
    }

    /// All retained events in chronological order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// How many events were discarded due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: &mut Trace, t: u64, node: usize, kind: TraceKind) {
        trace.record(SimTime(t), node, kind, TraceDetail::Label("x"));
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::new(10);
        ev(&mut t, 1, 0, TraceKind::PhaseBegin);
        ev(&mut t, 2, 0, TraceKind::PhaseEnd);
        let times: Vec<u64> = t.events().map(|e| e.time.0).collect();
        assert_eq!(times, vec![1, 2]);
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            ev(&mut t, i, 0, TraceKind::Other);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let times: Vec<u64> = t.events().map(|e| e.time.0).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        ev(&mut t, 1, 0, TraceKind::Other);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn disabled_trace_never_runs_the_detail_closure() {
        let mut t = Trace::disabled();
        let mut ran = false;
        t.record_with(SimTime(1), 0, TraceKind::Other, || {
            ran = true;
            TraceDetail::None
        });
        assert!(!ran, "disabled trace must not build details");

        // An enabled zero-capacity trace counts the drop without building
        // the detail either.
        let mut t = Trace::new(0);
        let mut ran = false;
        t.record_with(SimTime(1), 0, TraceKind::Other, || {
            ran = true;
            TraceDetail::None
        });
        assert!(!ran);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn zero_capacity_counts_drops() {
        let mut t = Trace::new(0);
        ev(&mut t, 1, 0, TraceKind::Other);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn detail_display_matches_legacy_strings() {
        assert_eq!(TraceDetail::Phase("fft").to_string(), "fft");
        assert_eq!(
            TraceDetail::MsgTo {
                dst: 3,
                bytes: 1024
            }
            .to_string(),
            "->3 1024B"
        );
        assert_eq!(TraceDetail::MsgFrom { src: 2 }.to_string(), "<-2");
        assert_eq!(
            TraceDetail::Freq {
                from_mhz: 1400,
                to_mhz: 600
            }
            .to_string(),
            "1400->600"
        );
        assert_eq!(TraceDetail::None.to_string(), "");
        assert_eq!(TraceDetail::Phase("fft").phase(), Some("fft"));
        assert_eq!(TraceDetail::MsgFrom { src: 2 }.phase(), None);
    }
}
