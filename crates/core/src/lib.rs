//! # pwrperf — distributed power-performance analysis and optimization
//!
//! The top of the reproduction stack for Ge, Feng and Cameron,
//! *"Improvement of Power-Performance Efficiency for High-End Computing"*
//! (IPPS 2005): a framework to **measure, analyze, and optimize** the
//! energy and time-to-solution of distributed scientific applications
//! under dynamic voltage scaling.
//!
//! ```
//! use pwrperf::{DvsStrategy, Experiment, Workload};
//! use edp_metrics::{best_operating_point, DELTA_HPC};
//!
//! // Run NAS FT (tiny test class) on 4 nodes at a static 800 MHz.
//! let experiment = Experiment::new(
//!     Workload::ft_test(4),
//!     DvsStrategy::StaticMhz(800),
//! );
//! let result = experiment.run();
//! assert!(result.total_energy_j() > 0.0);
//!
//! // Sweep the whole ladder and pick the paper's "HPC best" point.
//! let crescendo = pwrperf::static_crescendo(&Workload::ft_test(4));
//! let best = best_operating_point(&crescendo, DELTA_HPC).unwrap();
//! assert!(best >= 600 && best <= 1400);
//! ```
//!
//! Everything underneath is reachable through the re-exported substrate
//! crates: `cluster-sim` (hardware), `mpi-sim` (runtime + engine), `dvfs`
//! (governors), `powerpack` (measurement), `workloads` (applications),
//! `edp-metrics` (metrics).

pub(crate) mod adaptive;
pub mod calibration;
pub(crate) mod experiment;
pub mod report;
pub(crate) mod runner;
pub(crate) mod scope;
pub mod service;
pub mod store;
pub(crate) mod strategy;
pub(crate) mod sweep;
pub(crate) mod workload;

pub use adaptive::AutoTuner;
pub use experiment::{
    cpuspeed_point, crescendo_of, dynamic_crescendo, ladder_mhz_desc, power_cap_default_sample,
    static_crescendo, Experiment,
};
pub use runner::{
    parallel_map, run_batch, run_batch_telemetry, BatchPolicy, BatchTelemetry, ExperimentError,
};
pub use scope::{
    analyze_text, attribution_ndjson, metrics_ndjson, metrics_ndjson_with_meta, perfetto_json,
    stats_text, topology_label, RunMeta,
};
pub use service::{
    aggregate, compact, Client, CompactionPolicy, MissExecutor, ProtocolError, Request, Server,
    ServerConfig, ServiceError, ServiceMetrics, StatusReply, SweepDone, SweepSpec,
};
pub use store::{
    decode_run_result, encode_run_result, fingerprint_experiment, Fingerprint, StoreError,
    StoreStats, SweepStore,
};
pub use strategy::DvsStrategy;
pub use sweep::{crescendo, crescendo_from_results, Sweep, SweepPlan, SweepReport};
pub use workload::Workload;

// Convenience re-exports for downstream binaries.
pub use mpi_sim::{
    CapPolicy, CausalLog, ClusterController, EngineConfig, Fault, FaultCounts, FaultSpec,
    PowerCapController, RunAttribution, RunResult, Topology, WaitPolicy,
};
