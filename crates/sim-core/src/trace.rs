//! The simulation trace's vocabulary.
//!
//! The PowerPack framework in the paper coordinates and aligns measurement
//! records from many nodes. Our simulated equivalent logs structured
//! [`TraceEvent`]s (the engine's recorder keeps the most recent ones in a
//! bounded ring) that the `powerpack` crate later filters and aligns the
//! same way the paper's post-processing tools do, and that the `obs` crate
//! renders as a Perfetto timeline. The vocabulary is exactly what the
//! engine records: phase markers, message starts and ends, and frequency
//! changes, each on one rank's node.
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
}

/// Typed event payload. `Copy`, so recording never allocates and exporters
/// (CSV, Perfetto) can destructure instead of parsing strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceDetail {
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
            TraceDetail::Phase(name) => f.write_str(name),
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
    /// The node of the rank it happened on.
    pub node: usize,
    /// Category for filtering.
    pub kind: TraceKind,
    /// Structured detail, e.g. `Phase("fft")` or `Freq { 1400, 600 }`.
    pub detail: TraceDetail,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(TraceDetail::Phase("fft").phase(), Some("fft"));
        assert_eq!(TraceDetail::MsgFrom { src: 2 }.phase(), None);
    }
}
