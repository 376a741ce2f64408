//! SweepStore: a persistent, content-addressed experiment result cache.
//!
//! The paper's figures re-run the same workload at every operating
//! point, every `∂`, and (in our extensions) every fault spec — and the
//! simulator is deterministic, so an identical configuration always
//! produces an identical [`mpi_sim::RunResult`]. That makes results
//! memoizable by *content*: [`fingerprint_experiment`] digests the
//! canonical byte encoding of everything that can influence a run
//! (built programs incl. message-cost model, strategy, engine config,
//! fault spec, cluster overrides, format version) with the workspace's
//! deterministic FxHash, and [`SweepStore`] keeps one checksummed record
//! per digest. See DESIGN.md §12 for the format and invalidation rules,
//! and `crate::sweep` for the resumable planner built on top.

mod codec;
mod disk;
mod fingerprint;
mod run_codec;

pub(crate) use codec::{ByteReader, ByteWriter, DecodeError, Sink};
pub use disk::{StoreError, StoreStats, SweepStore};
pub use fingerprint::{
    canonical_experiment_bytes, fingerprint_experiment, fingerprint_parts, Fingerprint,
};
pub(crate) use fingerprint::{checksum64, fingerprint_with_programs};
pub use run_codec::{decode_run_result, encode_run_result};
