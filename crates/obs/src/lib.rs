//! # obs — the PowerScope observability layer
//!
//! The paper's PowerPack contribution is *coordinated measurement*: you
//! cannot improve power-performance efficiency you cannot see. This crate
//! is the simulated stack's equivalent for the simulator itself — a small,
//! deterministic observability toolkit threaded through every layer:
//!
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket histograms
//!   keyed by name. Plain single-threaded data held in name order: the
//!   same run always produces byte-identical output.
//! * [`WallTimer`] — host wall-clock timing for the batch runner's
//!   telemetry; measurement-only, never in a deterministic export.
//! * [`perfetto`] — a Chrome/Perfetto `trace_event` JSON builder, plus a
//!   converter from the engine's [`sim_core::TraceEvent`]s so a whole
//!   cluster run renders as one timeline at <https://ui.perfetto.dev>
//!   (one track per node: phase slices, message instants or flow arrows
//!   from a causal log, and frequency counter tracks).
//! * `causal` — critical-path extraction and per-rank time/energy
//!   attribution ("blame analysis") over the engine's recorded
//!   [`sim_core::CausalLog`], feeding `RunResult::attribution` and the
//!   blame table `pwrperf run --causal` prints.
//!
//! ## Determinism contract
//!
//! Exports that describe *simulated* behaviour (Perfetto timelines, the
//! simulated-time metrics) contain only simulated-clock values and are
//! byte-identical across runs of the same scenario. Wall-clock readings
//! (worker utilization) are clearly separated and only surface in human
//! summaries.

pub(crate) mod causal;
pub(crate) mod metrics;
pub mod perfetto;
pub(crate) mod timer;

pub use causal::{attribute, BucketTotals, RankAttribution, RunAttribution};
pub use metrics::{Histogram, MetricsRegistry};
pub use perfetto::PerfettoTrace;
pub use timer::WallTimer;
