//! # sim-core — deterministic discrete-event simulation core
//!
//! Foundation for the `pwrperf` reproduction of Ge, Feng and Cameron,
//! *"Improvement of Power-Performance Efficiency for High-End Computing"*
//! (IPPS 2005). Every higher-level substrate (cluster, network, MPI runtime,
//! DVFS governors, measurement framework) is built on the primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time.
//!   A 1.4 GHz Pentium-M cycle is ~714 ps; minutes-long cluster runs fit in a
//!   `u64` with five orders of magnitude to spare.
//! * [`EventQueue`] — a stable priority queue of timestamped events.
//!   Ties are broken by insertion sequence number so simulations are
//!   bit-for-bit reproducible regardless of heap internals.
//! * [`DetRng`] — a small deterministic PRNG (splitmix64-seeded
//!   xoshiro256**) used for workload jitter. Same seed, same stream.
//! * [`TimeWeighted`] — time-weighted integrators used by the power model
//!   and the simulated `/proc/stat`.
//! * [`trace`] — the typed trace records the engine keeps for debugging
//!   and for the PowerPack-style profile alignment tools.
//! * `faults` — typed, seed-deterministic fault-injection specs
//!   (stragglers, sick batteries, flaky DVFS, weak links) consumed by the
//!   engine; empty specs are guaranteed bit-identical to no spec at all.

pub(crate) mod causal;
pub(crate) mod event;
pub(crate) mod faults;
pub mod float;
pub mod hash;
pub(crate) mod intern;
pub(crate) mod rng;
pub(crate) mod stats;
pub mod time;
pub mod trace;

pub use causal::{CausalLog, DvfsRecord, MsgRecord, WaitCause, WaitRecord};
pub use event::EventQueue;
pub use faults::{Fault, FaultCounts, FaultSpec};
pub use hash::{FxHashMap, FxHashSet};
pub use intern::intern_static;
pub use rng::DetRng;
pub use stats::{OnlineStats, TimeWeighted};
pub use time::{cycles_to_duration, duration_to_cycles, SimDuration, SimTime};
pub use trace::{TraceDetail, TraceEvent, TraceKind};
