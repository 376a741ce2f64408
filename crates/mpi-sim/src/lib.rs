//! # mpi-sim — the MPI runtime and simulation engine
//!
//! The MPICH-1.2.5 analog: per-rank programs of compute and message
//! operations, an eager/rendezvous point-to-point protocol over the fluid
//! network, collective algorithms lowered to point-to-point at program
//! build time, and the discrete-event engine that couples programs,
//! network, power meters, and DVFS governors into one deterministic
//! simulation.
//!
//! Layering:
//!
//! * `program` — [`Op`]s and the [`ProgramBuilder`], which injects the
//!   frequency-scaled software cost of each message (stack overhead +
//!   copies) as explicit compute work, exactly the part of communication
//!   DVFS slows down;
//! * `collectives` — barrier (dissemination), broadcast/reduce (binomial
//!   tree), all-to-all (pairwise exchange / ring), gather — the algorithms
//!   MPICH used, lowered to sends and receives;
//! * `engine` — the simulator: rank state machines, message matching,
//!   busy-wait/block wait accounting, DVFS transitions with their 10 µs
//!   stall, governor ticks, and periodic power sampling.
//!
//! ```
//! use cluster_sim::Cluster;
//! use dvfs::{Governor, StaticGovernor};
//! use mem_model::WorkUnit;
//! use mpi_sim::{Engine, EngineConfig, Program, ProgramBuilder};
//!
//! // Two ranks: rank 0 computes then sends; rank 1 receives.
//! let programs: Vec<Program> = (0..2)
//!     .map(|rank| {
//!         let mut b = ProgramBuilder::new(rank, 2);
//!         if rank == 0 {
//!             b.compute(WorkUnit::pure_cpu(1.4e8)); // 0.1 s at 1.4 GHz
//!             b.send(1, 64 * 1024, 0);
//!         } else {
//!             b.recv(0, 64 * 1024, 0);
//!         }
//!         b.build()
//!     })
//!     .collect();
//! let governors: Vec<Box<dyn Governor>> = (0..2)
//!     .map(|_| Box::new(StaticGovernor::performance()) as Box<dyn Governor>)
//!     .collect();
//! let result = Engine::new(
//!     Cluster::paper_testbed(2),
//!     programs,
//!     governors,
//!     EngineConfig::default(),
//! )
//! .run();
//! assert!(result.duration_secs() > 0.1);
//! assert!(result.total_energy_j() > 0.0);
//! ```

pub(crate) mod collectives;
pub(crate) mod config;
pub(crate) mod engine;
#[cfg(test)]
mod engine_tests;
mod faults;
pub(crate) mod program;
pub(crate) mod result;

pub use config::{EngineConfig, MsgCostModel, WaitPolicy};
pub use engine::Engine;
pub use program::{Op, Program, ProgramBuilder, Rank, Tag};
pub use result::{RankBreakdown, RunResult, SampleRow};
// The cluster-level strategy layer the engine drives (dvfs crate): one
// controller per run, classic per-node governors wrapped under it.
pub use dvfs::{CapPolicy, ClusterController, Decision, PerNodeGovernors, PowerCapController};
// Causal-observability types: the log the engine records behind
// [`EngineConfig::causal`] (sim-core) and the attribution summary the
// obs solver derives from it at finalize, both carried on [`RunResult`].
pub use obs::RunAttribution;
pub use sim_core::CausalLog;
// Fault-injection types come from sim-core; re-exported here because they
// are configured through [`EngineConfig::faults`] and reported through
// [`RunResult::faults`].
pub use sim_core::{Fault, FaultCounts, FaultSpec};
// The interconnect shape is configured through [`EngineConfig::topology`];
// re-exported so engine users need not depend on net-model directly.
pub use net_model::Topology;
