//! `pwrperfd` — the long-running sweep service over [`crate::SweepStore`].
//!
//! The batch runner and result cache make one-shot invocations cheap,
//! but every figure still pays process startup and runs alone. This
//! module turns the store into a *shared* resource: a daemon that holds
//! one [`crate::store::SweepStore`] open, serves cache hits concurrently
//! to any number of clients, drains misses through a work-stealing
//! executor built on the batch runner, and answers ED²P/wED²P
//! aggregation queries server-side — so a warm store answers the whole
//! figure suite with **zero** engine executions (see DESIGN.md §17).
//!
//! The pieces:
//!
//! * `protocol` — request/response frames ([`Request`], `Response`)
//!   and the wire-level [`SweepSpec`] that names grids by workload /
//!   strategy / fault / topology strings, so client and daemon agree on
//!   fingerprints by construction;
//! * [`wire`] — the length-prefixed, versioned, checksummed framing
//!   (the store codec idiom on a socket), with typed [`ProtocolError`];
//! * `server` — the accept loop (Unix or TCP), one handler thread per
//!   connection, `service.*` counters;
//! * `executor` — the miss executor: in-flight dedupe keyed by
//!   fingerprint, so a miss being computed for one client is *awaited*,
//!   never re-executed, by every other client that wants it;
//! * `compaction` — store GC: drop version-skewed and corrupt
//!   records, migrate legacy flat records into their shard, and bound
//!   total store size;
//! * `aggregate` — the store-only query layer (group-by workload ×
//!   strategy × topology → ED²P/wED²P tables rendered server-side);
//! * `client` — the blocking client the CLI and tests drive.

pub mod aggregate;
pub(crate) mod client;
pub(crate) mod compaction;
pub(crate) mod executor;
pub(crate) mod protocol;
pub(crate) mod server;
pub mod wire;

pub use aggregate::aggregate;
pub use client::Client;
pub use compaction::{compact, CompactionPolicy};
pub use executor::{MissExecutor, ServiceMetrics};
pub use protocol::{ProtocolError, Request, StatusReply, SweepDone, SweepSpec};
pub use server::{Server, ServerConfig};

use crate::store::StoreError;

/// Why a service operation failed (the client-visible error sum).
#[derive(Debug)]
pub enum ServiceError {
    /// The wire protocol broke (I/O, framing, version skew, decode).
    Protocol(ProtocolError),
    /// The store refused a read or write.
    Store(StoreError),
    /// A sweep spec failed to resolve (unknown workload/strategy name,
    /// bad fault or topology spec).
    Spec(String),
    /// An experiment failed on every attempt (panicked in the engine).
    Failed(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServiceError::Store(e) => write!(f, "store error: {e}"),
            ServiceError::Spec(msg) => write!(f, "bad sweep spec: {msg}"),
            ServiceError::Failed(msg) => write!(f, "experiment failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Protocol(e) => Some(e),
            ServiceError::Store(e) => Some(e),
            ServiceError::Spec(_) | ServiceError::Failed(_) => None,
        }
    }
}

impl From<ProtocolError> for ServiceError {
    fn from(e: ProtocolError) -> Self {
        ServiceError::Protocol(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}
