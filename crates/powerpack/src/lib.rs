//! # powerpack — the measurement framework
//!
//! The paper's PowerPack suite, rebuilt over the simulation:
//!
//! * `acpi` — energy measurement by smart-battery polling: readings in
//!   whole mWh that refresh only every 15–20 s, measured as the difference
//!   between the readings bracketing a run (`libbattery.a`'s method);
//! * `baytech` — the Baytech remote power strip: per-outlet power
//!   averages reported once a minute over SNMP;
//! * `align` — timestamp-driven merging of per-node profiles into
//!   cluster power series (the paper's filter-and-align post-processing);
//! * `protocol` — the paper's repeatability protocol: discharge
//!   stabilization, repeated runs, outlier detection;
//! * `micro` — the PowerPack microbenchmarks that profile each system
//!   component under DVS: memory-bound (32 MB, 128 B stride), CPU-bound
//!   (256 KB L2-resident walk), register-only, and the two communication
//!   benchmarks (256 KB round trip; 4 KB messages with 64 B stride).

pub(crate) mod acpi;
pub(crate) mod align;
pub(crate) mod battery_life;
pub(crate) mod baytech;
pub(crate) mod export;
pub(crate) mod micro;
pub(crate) mod phases;
pub(crate) mod protocol;

pub use acpi::acpi_measured_energy;
pub use align::{
    aligned_cluster_power, aligned_cluster_power_filtered, most_deviant_node, node_average_power,
};
pub use battery_life::{battery_life_secs, runs_per_charge};
pub use baytech::baytech_energy;
pub use export::{samples_to_csv, summary_to_csv, trace_to_csv};
pub use micro::{
    comm_roundtrip_programs, cpu_bound_program, memory_bound_program, register_program,
    CommMicroConfig, MicroConfig,
};
pub use phases::{phase_time_fraction, profile_phases, PhaseProfile};
pub use protocol::ExperimentProtocol;
