//! # net-model — switched-Ethernet fluid network model
//!
//! Models the paper's interconnect: a 100 Mb/s Cisco Catalyst 2950 switch
//! with one full-duplex link per node. Messages are fluid flows that share
//! link bandwidth max-min fairly:
//!
//! * each node has an uplink and a downlink of `link_bw_bps`;
//! * a flow is constrained by its source's uplink and destination's
//!   downlink;
//! * rates are assigned by progressive filling (water-filling), the
//!   standard max-min fair allocation;
//! * whenever the flow set changes, rates are recomputed and the engine is
//!   told when the next flow will finish.
//!
//! Frequency-*independent* network time lives here. The per-message CPU
//! cost of the MPI software stack (which *does* scale with DVFS frequency)
//! is modeled by `mpi-sim` on top.

pub(crate) mod fair_share;
pub(crate) mod fluid;
pub(crate) mod params;
pub(crate) mod topology;

pub use fluid::{FlowId, FluidNetwork};
pub use params::NetworkParams;
pub use topology::Topology;
