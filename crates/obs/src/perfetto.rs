//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Builds the legacy JSON trace format understood by
//! <https://ui.perfetto.dev> and `chrome://tracing`: duration slices
//! (`ph: "B"/"E"`), instants (`"i"`), counter tracks (`"C"`), and metadata
//! records naming processes and threads.
//!
//! Timestamps in the format are microseconds. Simulated picoseconds are
//! rendered with pure integer math — `ps / PS_PER_US` whole microseconds,
//! `ps % PS_PER_US` as a six-digit fraction — so the emitted bytes are
//! exact and identical across hosts; no float formatting is involved.

use std::fmt::Write as _;

use sim_core::time::PS_PER_US;
use sim_core::trace::CLUSTER_NODE;
use sim_core::{SimTime, TraceDetail, TraceEvent, TraceKind};

/// Document opening; every record follows it, separated by `,\n`.
const HEADER: &str = "{\"traceEvents\":[\n";

/// Bytes [`PerfettoTrace::reserve`] sets aside per record: flow records,
/// the bulk of a causal export, take 100–112 bytes with their separator.
const RECORD_BYTES: usize = 112;

/// The same for the records [`PerfettoTrace::from_trace`] writes, which
/// are mostly 80-byte instants.
const TRACE_RECORD_BYTES: usize = 84;

/// Append `s` to `out` as the body of a JSON string: quotes, backslashes
/// and control characters escaped, everything else copied. A string with
/// nothing to escape is one `push_str`.
pub fn push_json_escaped(out: &mut String, s: &str) {
    // Every byte of a multi-byte UTF-8 character is >= 0x80, so a byte
    // scan finds exactly the characters that need escaping.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `n` in decimal without going through `fmt`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

/// Append a simulated instant as a Perfetto `ts` value (microseconds with
/// picosecond precision): whole microseconds, a dot, and the remainder as
/// six zero-padded digits.
fn push_ts(out: &mut String, t: SimTime) {
    push_u64(out, t.0 / PS_PER_US);
    out.push('.');
    let mut frac = t.0 % PS_PER_US;
    let mut digits = [b'0'; 6];
    for d in digits.iter_mut().rev() {
        *d += (frac % 10) as u8;
        frac /= 10;
    }
    for d in digits {
        out.push(d as char);
    }
}

/// `,"<key>":"<escaped value>"`.
fn push_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    push_json_escaped(out, value);
    out.push('"');
}

/// `,"tid":<tid>,"ts":<ts>`.
fn push_tid_ts(out: &mut String, tid: u64, t: SimTime) {
    out.push_str(",\"tid\":");
    push_u64(out, tid);
    out.push_str(",\"ts\":");
    push_ts(out, t);
}

/// The fields a flow start and end share after `pid`.
fn push_flow_tail(out: &mut String, tid: u64, cat: &str, name: &str, id: u64, t: SimTime) {
    push_tid_ts(out, tid, t);
    push_field(out, "cat", cat);
    push_field(out, "name", name);
    out.push_str(",\"id\":");
    push_u64(out, id);
    out.push('}');
}

/// An incremental `trace_event` JSON builder.
///
/// Records are written in call order straight into one output buffer;
/// callers are expected to feed events chronologically (the simulator's
/// [`sim_core::Trace`] already is).
#[derive(Debug)]
pub struct PerfettoTrace {
    out: String,
    records: usize,
}

impl Default for PerfettoTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfettoTrace {
    pub(crate) fn new() -> Self {
        PerfettoTrace {
            out: String::from(HEADER),
            records: 0,
        }
    }

    /// Make room for about `records` more records, so a large export
    /// grows its buffer once instead of doubling its way up.
    pub fn reserve(&mut self, records: usize) {
        self.out.reserve_exact(records * RECORD_BYTES);
    }

    /// Start a record: the separator after the previous one, `head`
    /// (the record's fields up to and including `"pid":`), then `pid`.
    fn open(&mut self, head: &str, pid: u64) -> &mut String {
        if self.records > 0 {
            self.out.push_str(",\n");
        }
        self.records += 1;
        let out = &mut self.out;
        out.push_str(head);
        push_u64(out, pid);
        out
    }

    /// Name a process (a top-level group in the UI).
    pub(crate) fn process_name(&mut self, pid: u64, name: &str) {
        let out = self.open(r#"{"ph":"M","pid":"#, pid);
        out.push_str(",\"name\":\"process_name\",\"args\":{\"name\":\"");
        push_json_escaped(out, name);
        out.push_str("\"}}");
    }

    /// Name a thread (one timeline track within a process).
    pub(crate) fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let out = self.open(r#"{"ph":"M","pid":"#, pid);
        out.push_str(",\"tid\":");
        push_u64(out, tid);
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        push_json_escaped(out, name);
        out.push_str("\"}}");
    }

    /// Open a duration slice on (pid, tid).
    pub(crate) fn begin_slice(&mut self, pid: u64, tid: u64, name: &str, t: SimTime) {
        let out = self.open(r#"{"ph":"B","pid":"#, pid);
        push_tid_ts(out, tid, t);
        push_field(out, "name", name);
        out.push('}');
    }

    /// Close the most recent open slice on (pid, tid).
    pub(crate) fn end_slice(&mut self, pid: u64, tid: u64, t: SimTime) {
        let out = self.open(r#"{"ph":"E","pid":"#, pid);
        push_tid_ts(out, tid, t);
        out.push('}');
    }

    /// A zero-duration instant marker on (pid, tid).
    pub(crate) fn instant(&mut self, pid: u64, tid: u64, name: &str, t: SimTime) {
        let out = self.open(r#"{"ph":"i","pid":"#, pid);
        push_tid_ts(out, tid, t);
        out.push_str(",\"s\":\"t\"");
        push_field(out, "name", name);
        out.push('}');
    }

    /// Open a flow (`ph: "s"`): the tail of an arrow the UI draws from
    /// (pid, tid, t) to the matching [`PerfettoTrace::flow_end`] with the
    /// same `id` and `cat`.
    pub fn flow_start(&mut self, pid: u64, tid: u64, cat: &str, name: &str, id: u64, t: SimTime) {
        let out = self.open(r#"{"ph":"s","pid":"#, pid);
        push_flow_tail(out, tid, cat, name, id, t);
    }

    /// Close a flow (`ph: "f"`, binding to the enclosing slice's end): the
    /// head of the arrow opened by the matching [`PerfettoTrace::flow_start`].
    pub fn flow_end(&mut self, pid: u64, tid: u64, cat: &str, name: &str, id: u64, t: SimTime) {
        let out = self.open(r#"{"ph":"f","bp":"e","pid":"#, pid);
        push_flow_tail(out, tid, cat, name, id, t);
    }

    /// A counter-track sample. Counter tracks are keyed by (pid, name); the
    /// UI draws one stepped line per track.
    pub fn counter(&mut self, pid: u64, name: &str, t: SimTime, value: f64) {
        let out = self.open(r#"{"ph":"C","pid":"#, pid);
        out.push_str(",\"ts\":");
        push_ts(out, t);
        push_field(out, "name", name);
        let _ = write!(out, ",\"args\":{{\"value\":{value}}}}}");
    }

    /// Close the JSON document and return it.
    pub fn finish(mut self) -> String {
        if self.records > 0 {
            self.out.push('\n');
        }
        self.out.push_str("]}\n");
        self.out
    }

    /// Convert a simulation trace into a timeline: one thread track per
    /// node carrying phase slices and message instants, one `MHz` counter
    /// track per node fed by frequency-change events, and a `cluster`
    /// track for node-agnostic events.
    pub fn from_trace(events: &[TraceEvent], nodes: usize) -> Self {
        let mut p = PerfettoTrace::new();
        p.out
            .reserve_exact((nodes + 2 + events.len()) * TRACE_RECORD_BYTES);
        let mut label = String::new();
        p.process_name(0, "pwrperf cluster");
        for n in 0..nodes {
            label.clear();
            let _ = write!(label, "node {n}");
            p.thread_name(0, n as u64, &label);
        }
        p.thread_name(0, nodes as u64, "cluster");

        for ev in events {
            let tid = if ev.node == CLUSTER_NODE {
                nodes as u64
            } else {
                ev.node as u64
            };
            label.clear();
            match ev.kind {
                TraceKind::PhaseBegin => {
                    let name = ev.detail.phase().unwrap_or("phase");
                    p.begin_slice(0, tid, name, ev.time);
                }
                TraceKind::PhaseEnd => {
                    p.end_slice(0, tid, ev.time);
                }
                TraceKind::MsgStart => {
                    let _ = write!(label, "send {}", ev.detail);
                    p.instant(0, tid, &label, ev.time);
                }
                TraceKind::MsgEnd => {
                    let _ = write!(label, "recv {}", ev.detail);
                    p.instant(0, tid, &label, ev.time);
                }
                TraceKind::FreqChange => {
                    if let TraceDetail::Freq { to_mhz, .. } = ev.detail {
                        let _ = write!(label, "node {} MHz", ev.node);
                        p.counter(0, &label, ev.time, to_mhz as f64);
                        label.clear();
                    }
                    let _ = write!(label, "freq {}", ev.detail);
                    p.instant(0, tid, &label, ev.time);
                }
                TraceKind::Sample => {
                    // Samples are exported through the richer SampleRow
                    // path by callers; a raw trace renders them as marks.
                    p.instant(0, tid, "sample", ev.time);
                }
                TraceKind::Control | TraceKind::Other => {
                    let _ = write!(label, "{}", ev.detail);
                    p.instant(0, tid, &label, ev.time);
                }
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: SimTime) -> String {
        let mut out = String::new();
        push_ts(&mut out, t);
        out
    }

    fn escape(s: &str) -> String {
        let mut out = String::new();
        push_json_escaped(&mut out, s);
        out
    }

    #[test]
    fn timestamps_are_integer_formatted_microseconds() {
        assert_eq!(ts(SimTime(0)), "0.000000");
        assert_eq!(ts(SimTime(1)), "0.000001");
        assert_eq!(ts(SimTime(1_500_000)), "1.500000");
        assert_eq!(ts(SimTime(12_000_000_000_007)), "12000000.000007");
    }

    #[test]
    fn decimal_writers_match_fmt() {
        let mut rng = sim_core::DetRng::new(7);
        let mut values = vec![0, 9, 10, 99, 100, PS_PER_US - 1, PS_PER_US, u64::MAX];
        values.extend((0..2_000).map(|i| rng.next_u64() >> (i % 64)));
        for v in values {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
            assert_eq!(
                ts(SimTime(v)),
                format!("{}.{:06}", v / PS_PER_US, v % PS_PER_US)
            );
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), "x\\u000ay");
        assert_eq!(escape(r"C:\dir"), r"C:\\dir");
        assert_eq!(escape("\u{1f}\u{7f}"), "\\u001f\u{7f}");
        // Nothing to escape: copied as is, multi-byte characters included.
        assert_eq!(escape("node 3 MHz"), "node 3 MHz");
        assert_eq!(escape("µs → ü"), "µs → ü");
    }

    #[test]
    fn finish_produces_wellformed_document() {
        let mut p = PerfettoTrace::new();
        p.process_name(0, "test");
        p.begin_slice(0, 0, "work", SimTime(0));
        p.end_slice(0, 0, SimTime(1_000_000));
        p.counter(0, "mhz", SimTime(0), 1400.0);
        let json = p.finish();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        // Commas between records, none after the last.
        assert_eq!(json.matches("},\n").count(), 3);
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""args":{"value":1400}"#));
    }

    #[test]
    fn from_trace_maps_kinds_to_records() {
        use sim_core::TraceKind::*;
        let events = vec![
            TraceEvent {
                time: SimTime(0),
                node: 0,
                kind: PhaseBegin,
                detail: TraceDetail::Phase("fft"),
            },
            TraceEvent {
                time: SimTime(10),
                node: 0,
                kind: MsgStart,
                detail: TraceDetail::MsgTo { dst: 1, bytes: 64 },
            },
            TraceEvent {
                time: SimTime(20),
                node: 1,
                kind: FreqChange,
                detail: TraceDetail::Freq {
                    from_mhz: 1400,
                    to_mhz: 600,
                },
            },
            TraceEvent {
                time: SimTime(30),
                node: 0,
                kind: PhaseEnd,
                detail: TraceDetail::Phase("fft"),
            },
        ];
        let json = PerfettoTrace::from_trace(&events, 2).finish();
        assert!(json.contains(r#""name":"node 0""#));
        assert!(json.contains(r#""name":"node 1""#));
        assert!(json.contains(r#""name":"cluster""#));
        assert!(json.contains(r#""name":"fft""#));
        assert!(json.contains(r#""name":"send ->1 64B""#));
        assert!(json.contains(r#""name":"node 1 MHz""#));
        assert!(json.contains(r#""args":{"value":600}"#));
        assert!(json.contains(r#""ph":"E""#));
    }

    #[test]
    fn flow_records_pair_by_id_and_cat() {
        let mut p = PerfettoTrace::new();
        p.flow_start(0, 0, "msg", "0->1 64B", 7, SimTime(10));
        p.flow_end(0, 1, "msg", "0->1 64B", 7, SimTime(30));
        let json = p.finish();
        assert!(json.contains(r#""ph":"s""#));
        assert!(json.contains(r#""ph":"f","bp":"e""#));
        assert_eq!(json.matches(r#""id":7"#).count(), 2);
        assert_eq!(json.matches(r#""cat":"msg""#).count(), 2);
    }

    #[test]
    fn export_is_deterministic() {
        let events = vec![TraceEvent {
            time: SimTime(123_456),
            node: 0,
            kind: TraceKind::PhaseBegin,
            detail: TraceDetail::Phase("init"),
        }];
        let a = PerfettoTrace::from_trace(&events, 1).finish();
        let b = PerfettoTrace::from_trace(&events, 1).finish();
        assert_eq!(a, b);
    }
}
