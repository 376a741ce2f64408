//! Request/response frames and their payload encodings.
//!
//! Every payload flows through the store's [`ByteWriter`]/[`ByteReader`]
//! codec: little-endian, length-prefixed sequences, typed errors, no
//! panics on hostile input. Sweep grids travel as *names* (workload,
//! strategy, fault-spec, topology strings), resolved server-side through
//! the same registries the CLI uses — so a client never has to encode an
//! `Experiment`, and both ends derive identical fingerprints from
//! identical specs by construction.

use mpi_sim::{EngineConfig, RunResult, Topology};
use sim_core::FaultSpec;

use crate::store::{decode_run_result, encode_run_result, ByteReader, ByteWriter, DecodeError};
use crate::strategy::DvsStrategy;
use crate::sweep::{Sweep, SweepReport};
use crate::workload::Workload;

/// Wire protocol version; mixed into every frame header. Bump on any
/// frame or payload layout change: a mismatched peer gets a typed
/// [`ProtocolError::Version`] instead of decoding garbage.
///
/// v2: [`SweepSpec`] lost its trailing shard-count field.
pub(crate) const PROTOCOL_VERSION: u32 = 2;

/// Why a frame could not be read or understood.
#[derive(Debug)]
pub enum ProtocolError {
    /// The socket failed mid-frame (includes EOF inside a frame).
    Io(std::io::Error),
    /// The frame header did not start with the protocol magic.
    BadMagic,
    /// The peer speaks a different protocol version.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The frame kind byte names no known frame.
    BadKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// The declared payload length exceeds the frame size bound.
    TooLarge {
        /// Declared payload byte count.
        len: u64,
    },
    /// The payload checksum did not match (torn or corrupted frame).
    Checksum,
    /// The payload failed structural decoding.
    Decode(DecodeError),
    /// The server answered with an error frame.
    Remote(String),
    /// The peer answered with a well-formed frame of the wrong kind.
    Unexpected {
        /// What the caller was waiting for.
        wanted: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "socket I/O failed: {e}"),
            ProtocolError::BadMagic => write!(f, "bad frame magic (not a pwrperfd peer?)"),
            ProtocolError::Version { found } => write!(
                f,
                "peer speaks protocol version {found}, expected {PROTOCOL_VERSION}"
            ),
            ProtocolError::BadKind { kind } => write!(f, "unknown frame kind {kind:#04x}"),
            ProtocolError::TooLarge { len } => write!(f, "frame payload of {len} bytes too large"),
            ProtocolError::Checksum => write!(f, "frame checksum mismatch"),
            ProtocolError::Decode(e) => write!(f, "frame payload would not decode: {e}"),
            ProtocolError::Remote(msg) => write!(f, "server error: {msg}"),
            ProtocolError::Unexpected { wanted, got } => {
                write!(f, "expected a {wanted} frame, got {got}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        ProtocolError::Decode(e)
    }
}

/// A sweep grid by name: what travels on the wire. Resolved server-side
/// via [`SweepSpec::resolve`] into a [`Sweep`] whose fingerprints match
/// what the same names produce anywhere else.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Workload names (`ft-test4`, `ft-scale-1024`, `mem-micro`, ...).
    pub workloads: Vec<String>,
    /// Strategy names (`static-800`, `dynamic-1400`, `cap-80`, ...).
    pub strategies: Vec<String>,
    /// `∂` weightings for the aggregation layer (never spawn runs).
    pub deltas: Vec<f64>,
    /// Fault-spec strings (`slow:0:5.0`, `seed:7`, ...); empty = clean.
    pub fault_specs: Vec<String>,
    /// Topology spec (`flat`, `fat-tree:radix=16,oversub=2`).
    pub topology: String,
    /// Record the causal log (keys the cache, like the CLI flag).
    pub causal: bool,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            workloads: Vec::new(),
            strategies: Vec::new(),
            deltas: Vec::new(),
            fault_specs: Vec::new(),
            topology: "flat".to_string(),
            causal: false,
        }
    }
}

impl SweepSpec {
    /// Resolve every name into a concrete [`Sweep`]. Any unknown name is
    /// a [`ServiceError::Spec`]-grade `Err` with the offending token.
    ///
    /// [`ServiceError::Spec`]: super::ServiceError::Spec
    pub fn resolve(&self) -> Result<Sweep, String> {
        let workloads = self
            .workloads
            .iter()
            .map(|name| Workload::parse_name(name))
            .collect::<Result<Vec<_>, _>>()?;
        let strategies = self
            .strategies
            .iter()
            .map(|name| DvsStrategy::parse_name(name))
            .collect::<Result<Vec<_>, _>>()?;
        let fault_specs = self
            .fault_specs
            .iter()
            .map(|spec| FaultSpec::parse(spec))
            .collect::<Result<Vec<_>, _>>()?;
        let topology = Topology::parse(&self.topology)?;
        if workloads.is_empty() || strategies.is_empty() {
            return Err("a sweep needs at least one workload and one strategy".to_string());
        }
        for &delta in &self.deltas {
            if !delta.is_finite() || !(-1.0..=1.0).contains(&delta) {
                return Err(format!("delta {delta} outside [-1, 1]"));
            }
        }
        let engine = EngineConfig {
            topology,
            causal: self.causal,
            ..EngineConfig::default()
        };
        Ok(Sweep::grid(workloads, strategies, fault_specs).with_engine(engine))
    }

    fn encode(&self, w: &mut ByteWriter) {
        encode_strings(w, &self.workloads);
        encode_strings(w, &self.strategies);
        w.put_usize(self.deltas.len());
        for &d in &self.deltas {
            w.put_f64(d);
        }
        encode_strings(w, &self.fault_specs);
        w.put_str(&self.topology);
        w.put_bool(self.causal);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let workloads = decode_strings(r, "workloads")?;
        let strategies = decode_strings(r, "strategies")?;
        let n = r.get_seq_len("deltas", 8)?;
        let mut deltas = Vec::with_capacity(n);
        for _ in 0..n {
            deltas.push(r.get_f64()?);
        }
        let fault_specs = decode_strings(r, "fault_specs")?;
        let topology = r.get_str()?;
        let causal = r.get_bool()?;
        Ok(SweepSpec {
            workloads,
            strategies,
            deltas,
            fault_specs,
            topology,
            causal,
        })
    }
}

fn encode_strings(w: &mut ByteWriter, items: &[String]) {
    w.put_usize(items.len());
    for s in items {
        w.put_str(s);
    }
}

fn decode_strings(r: &mut ByteReader<'_>, what: &'static str) -> Result<Vec<String>, DecodeError> {
    let n = r.get_seq_len(what, 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_str()?);
    }
    Ok(out)
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or replay) a sweep: hits stream from the store, misses drain
    /// through the executor, and the full results come back.
    SubmitSweep(SweepSpec),
    /// Aggregate a sweep's stored results into the ED²P/wED²P table —
    /// store-only, never executes (missing cells are *counted*, not run).
    Query(SweepSpec),
    /// Report the daemon's `service.*` counters.
    Status,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

impl Request {
    /// This frame's kind byte.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Request::SubmitSweep(_) => kind::SUBMIT_SWEEP,
            Request::Query(_) => kind::QUERY,
            Request::Status => kind::STATUS,
            Request::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Encode the payload (everything after the frame header).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::SubmitSweep(spec) | Request::Query(spec) => spec.encode(&mut w),
            Request::Status | Request::Shutdown => {}
        }
        w.into_bytes()
    }

    /// Decode a request from its kind byte and payload.
    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = ByteReader::new(payload);
        let request = match kind {
            kind::SUBMIT_SWEEP => Request::SubmitSweep(SweepSpec::decode(&mut r)?),
            kind::QUERY => Request::Query(SweepSpec::decode(&mut r)?),
            kind::STATUS => Request::Status,
            kind::SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::BadKind { kind: other }),
        };
        r.finish()?;
        Ok(request)
    }
}

/// What a completed sweep sends back.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDone {
    /// Accounting for this invocation (hits/misses/engine runs as seen
    /// by the daemon for *this* request).
    pub report: SweepReport,
    /// One result per grid cell, row-major — bit-identical to what a
    /// local [`Sweep::run`] of the same spec produces.
    pub results: Vec<RunResult>,
}

/// The rendered aggregation answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The ED²P/wED²P table, rendered server-side.
    pub table: String,
    /// Rows in the table (grid cells with a stored result).
    pub rows: u64,
    /// Grid cells with no (valid) stored result — counted, never run.
    pub missing: u64,
}

/// The daemon's counters at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusReply {
    /// `service.*` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl StatusReply {
    /// The value of one counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Sweep finished; full results attached.
    SweepDone(SweepDone),
    /// Aggregation table.
    QueryDone(QueryReply),
    /// Counter snapshot.
    Status(StatusReply),
    /// Acknowledges [`Request::Shutdown`]; the daemon exits after this.
    ShuttingDown,
    /// The request failed server-side (bad spec, store error, ...).
    Error(String),
}

impl Response {
    /// This frame's kind byte.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Response::SweepDone(_) => kind::SWEEP_DONE,
            Response::QueryDone(_) => kind::QUERY_DONE,
            Response::Status(_) => kind::STATUS_REPLY,
            Response::ShuttingDown => kind::SHUTTING_DOWN,
            Response::Error(_) => kind::ERROR,
        }
    }

    /// A short name for [`ProtocolError::Unexpected`] messages.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Response::SweepDone(_) => "sweep-done",
            Response::QueryDone(_) => "query-done",
            Response::Status(_) => "status",
            Response::ShuttingDown => "shutting-down",
            Response::Error(_) => "error",
        }
    }

    /// Encode the payload (everything after the frame header).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::SweepDone(done) => {
                encode_report(&mut w, &done.report);
                w.put_usize(done.results.len());
                for result in &done.results {
                    let bytes = encode_run_result(result);
                    w.put_usize(bytes.len());
                    w.put_raw(&bytes);
                }
            }
            Response::QueryDone(reply) => {
                w.put_str(&reply.table);
                w.put_u64(reply.rows);
                w.put_u64(reply.missing);
            }
            Response::Status(status) => {
                w.put_usize(status.counters.len());
                for (name, value) in &status.counters {
                    w.put_str(name);
                    w.put_u64(*value);
                }
            }
            Response::ShuttingDown => {}
            Response::Error(msg) => w.put_str(msg),
        }
        w.into_bytes()
    }

    /// Decode a response from its kind byte and payload.
    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = ByteReader::new(payload);
        let response = match kind {
            kind::SWEEP_DONE => {
                let report = decode_report(&mut r)?;
                let n = r.get_seq_len("results", 8)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.get_seq_len("result bytes", 1)?;
                    let bytes = r.get_raw(len)?;
                    results.push(decode_run_result(bytes)?);
                }
                Response::SweepDone(SweepDone { report, results })
            }
            kind::QUERY_DONE => Response::QueryDone(QueryReply {
                table: r.get_str()?,
                rows: r.get_u64()?,
                missing: r.get_u64()?,
            }),
            kind::STATUS_REPLY => {
                let n = r.get_seq_len("counters", 12)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.get_str()?;
                    let value = r.get_u64()?;
                    counters.push((name, value));
                }
                Response::Status(StatusReply { counters })
            }
            kind::SHUTTING_DOWN => Response::ShuttingDown,
            kind::ERROR => Response::Error(r.get_str()?),
            other => return Err(ProtocolError::BadKind { kind: other }),
        };
        r.finish()?;
        Ok(response)
    }
}

fn encode_report(w: &mut ByteWriter, report: &SweepReport) {
    w.put_u64(report.jobs);
    w.put_u64(report.cache_hits);
    w.put_u64(report.cache_misses);
    w.put_u64(report.engine_runs);
    w.put_u64(report.corrupt_records);
    w.put_u64(report.bytes_read);
    w.put_u64(report.bytes_written);
    w.put_u64(report.duplicate_jobs);
}

fn decode_report(r: &mut ByteReader<'_>) -> Result<SweepReport, DecodeError> {
    Ok(SweepReport {
        jobs: r.get_u64()?,
        cache_hits: r.get_u64()?,
        cache_misses: r.get_u64()?,
        engine_runs: r.get_u64()?,
        corrupt_records: r.get_u64()?,
        bytes_read: r.get_u64()?,
        bytes_written: r.get_u64()?,
        duplicate_jobs: r.get_u64()?,
    })
}

/// Frame kind bytes (requests low, responses high).
pub(crate) mod kind {
    pub(crate) const SUBMIT_SWEEP: u8 = 0x01;
    pub(crate) const QUERY: u8 = 0x02;
    pub(crate) const STATUS: u8 = 0x03;
    pub(crate) const SHUTDOWN: u8 = 0x04;
    pub(crate) const SWEEP_DONE: u8 = 0x81;
    pub(crate) const QUERY_DONE: u8 = 0x82;
    pub(crate) const STATUS_REPLY: u8 = 0x83;
    pub(crate) const SHUTTING_DOWN: u8 = 0x84;
    pub(crate) const ERROR: u8 = 0xFF;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    fn spec() -> SweepSpec {
        SweepSpec {
            workloads: vec!["ft-test4".into(), "swim".into()],
            strategies: vec!["static-800".into(), "cap-80-uniform".into()],
            deltas: vec![0.0, 0.5],
            fault_specs: vec!["slow:0:5.0".into()],
            topology: "fat-tree:radix=4,oversub=2".into(),
            causal: false,
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::SubmitSweep(spec()),
            Request::Query(spec()),
            Request::Status,
            Request::Shutdown,
        ] {
            let payload = request.encode_payload();
            let back = Request::decode(request.kind(), &payload).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let result = Experiment::new(
            crate::workload::Workload::ft_test(2),
            DvsStrategy::StaticMhz(800),
        )
        .run();
        let responses = [
            Response::SweepDone(SweepDone {
                report: SweepReport {
                    jobs: 2,
                    cache_hits: 1,
                    engine_runs: 1,
                    cache_misses: 1,
                    bytes_read: 10,
                    bytes_written: 20,
                    corrupt_records: 0,
                    duplicate_jobs: 0,
                },
                results: vec![result.clone(), result],
            }),
            Response::QueryDone(QueryReply {
                table: "workload strategy ed2p\n".into(),
                rows: 4,
                missing: 1,
            }),
            Response::Status(StatusReply {
                counters: vec![("service.hits".into(), 3), ("service.misses".into(), 1)],
            }),
            Response::ShuttingDown,
            Response::Error("no such workload".into()),
        ];
        for response in responses {
            let payload = response.encode_payload();
            let back = Response::decode(response.kind(), &payload).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        assert!(matches!(
            Request::decode(0x7E, &[]),
            Err(ProtocolError::BadKind { kind: 0x7E })
        ));
        assert!(matches!(
            Response::decode(0x7E, &[]),
            Err(ProtocolError::BadKind { kind: 0x7E })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Status.encode_payload();
        payload.push(0xAB);
        assert!(matches!(
            Request::decode(kind::STATUS, &payload),
            Err(ProtocolError::Decode(_))
        ));
    }

    #[test]
    fn spec_resolves_to_the_grid_the_names_describe() {
        let sweep = spec().resolve().unwrap();
        assert_eq!(sweep.len(), 4, "2 workloads x 1 fault x 2 strategies");
        assert!(matches!(
            sweep.engine.topology,
            mpi_sim::Topology::FatTree { radix: 4, .. }
        ));
        let bad = SweepSpec {
            workloads: vec!["warp-core".into()],
            strategies: vec!["static-800".into()],
            ..SweepSpec::default()
        };
        assert!(bad.resolve().is_err());
        let empty = SweepSpec::default();
        assert!(empty.resolve().is_err(), "empty grid is a spec error");
    }
}
