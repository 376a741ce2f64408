//! # obs — the PowerScope observability layer
//!
//! The paper's PowerPack contribution is *coordinated measurement*: you
//! cannot improve power-performance efficiency you cannot see. This crate
//! is the simulated stack's equivalent for the simulator itself — a small,
//! deterministic observability toolkit threaded through every layer:
//!
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket histograms
//!   keyed by (mostly static) names. Plain single-threaded data, insertion
//!   ordered, exported sorted: the same run always produces byte-identical
//!   output.
//! * [`SpanProfiler`] — named scopes accumulating both **simulated** time
//!   ([`sim_core::SimTime`]) and **wall-clock** time. Simulated totals are
//!   deterministic; wall-clock totals are measurement-only and never appear
//!   in deterministic exports.
//! * [`perfetto`] — a Chrome/Perfetto `trace_event` JSON builder, plus a
//!   converter from the engine's [`sim_core::Trace`] so a whole cluster run
//!   renders as one timeline at <https://ui.perfetto.dev> (one track per
//!   node: phase slices, message instants, frequency counter tracks, and
//!   flow arrows from a causal log).
//! * [`causal`] — critical-path extraction and per-rank time/energy
//!   attribution ("blame analysis") over the engine's recorded
//!   [`sim_core::CausalLog`], feeding `RunResult::attribution` and the
//!   blame table `pwrperf run --causal` prints.
//! * [`obs_count!`] / [`obs_gauge_max!`] / [`obs_observe!`] — feature-gated
//!   instrumentation macros. With the `enabled` feature off they expand to
//!   nothing, so instrumented code compiles to exactly the uninstrumented
//!   binary.
//!
//! ## Determinism contract
//!
//! Exports that describe *simulated* behaviour (Perfetto timelines, the
//! simulated-time metrics) contain only simulated-clock values and are
//! byte-identical across runs of the same scenario. Wall-clock readings
//! (span wall totals, worker utilization) are clearly separated and only
//! surface in human summaries.

pub mod causal;
pub mod metrics;
pub mod perfetto;
pub mod span;

pub use causal::{
    attribute, BucketTotals, CausalGraph, CpSegment, CriticalPath, RankAttribution, RunAttribution,
};
pub use metrics::{Histogram, MetricValue, MetricsRegistry};
pub use perfetto::PerfettoTrace;
pub use span::{SpanProfiler, SpanStats, WallTimer};

/// Add `$n` to counter `$name` in an `Option<&mut MetricsRegistry>`-like
/// expression (anything with `as_deref_mut`). Compiles to nothing without
/// the `enabled` feature.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_count {
    ($reg:expr, $name:expr, $n:expr) => {
        if let Some(m) = $reg.as_deref_mut() {
            m.counter_add($name, $n);
        }
    };
}

/// Disabled-form of [`obs_count!`]: expands to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_count {
    ($reg:expr, $name:expr, $n:expr) => {};
}

/// Raise gauge `$name` to at least `$v` (high-water mark). Compiles to
/// nothing without the `enabled` feature.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_gauge_max {
    ($reg:expr, $name:expr, $v:expr) => {
        if let Some(m) = $reg.as_deref_mut() {
            m.gauge_max($name, $v);
        }
    };
}

/// Disabled-form of [`obs_gauge_max!`]: expands to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_gauge_max {
    ($reg:expr, $name:expr, $v:expr) => {};
}

/// Record `$v` into histogram `$name` (created on first use with the
/// default buckets of [`MetricsRegistry::observe`]). Compiles to nothing
/// without the `enabled` feature.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_observe {
    ($reg:expr, $name:expr, $v:expr) => {
        if let Some(m) = $reg.as_deref_mut() {
            m.observe($name, $v);
        }
    };
}

/// Disabled-form of [`obs_observe!`]: expands to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_observe {
    ($reg:expr, $name:expr, $v:expr) => {};
}
