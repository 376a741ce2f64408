//! # power-model — CMOS power and energy model for the DVS cluster
//!
//! Models the electrical side of the paper's testbed:
//!
//! * [`OperatingPoint`] / [`DvfsLadder`] — the Pentium M 1.4 GHz Enhanced
//!   SpeedStep ladder, exactly the paper's Table 2 (1.4 GHz @ 1.484 V down
//!   to 600 MHz @ 0.956 V), with the ~10 µs transition latency the Intel
//!   datasheet quotes.
//! * `CpuPowerParams` — the first-order CMOS laws the paper motivates in
//!   Section 2.1: dynamic power `P ∝ c·f·V²` plus a voltage-proportional
//!   static/leakage term.
//! * [`CpuActivity`] — what the CPU is doing (issuing instructions, stalled
//!   on DRAM, busy-waiting in the MPI progress loop, or halted). Activity
//!   scales the effective switched capacitance, which is how slack converts
//!   to energy savings.
//! * [`EnergyMeter`] — per-component (CPU dynamic/static, memory, NIC, base
//!   system, DVFS transitions) time integration of power into joules.
//! * [`SmartBattery`] — an ACPI smart battery that reports remaining
//!   capacity quantized to 1 mWh (3.6 J), reproducing the paper's
//!   measurement granularity.

pub(crate) mod activity;
pub mod battery;
pub(crate) mod meter;
pub(crate) mod op_point;
pub(crate) mod params;

pub use activity::CpuActivity;
pub use battery::{MeasurementError, SmartBattery, J_PER_MWH};
pub use meter::{Component, EnergyMeter, EnergyReport};
pub use op_point::{DvfsLadder, OpIndex, OperatingPoint};
pub use params::NodePowerParams;
