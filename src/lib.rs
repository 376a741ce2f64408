//! Umbrella crate for the pwrperf workspace: re-exports the experiment
//! API so downstream users can depend on one name. The integration tests
//! under `tests/` depend on the member crates directly.
//!
//! ```
//! use pwrperf_repro::pwrperf::{DvsStrategy, Experiment, Workload};
//!
//! let result = Experiment::new(
//!     Workload::ft_test(2),
//!     DvsStrategy::StaticMhz(1000),
//! )
//! .run();
//! assert!(result.total_energy_j() > 0.0);
//! ```

pub use pwrperf;
