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
//! * [`WallTimer`] — host wall-clock timing for the batch runner's
//!   telemetry; measurement-only, never in a deterministic export.
//! * [`perfetto`] — a Chrome/Perfetto `trace_event` JSON builder, plus a
//!   converter from the engine's [`sim_core::Trace`] so a whole cluster run
//!   renders as one timeline at <https://ui.perfetto.dev> (one track per
//!   node: phase slices, message instants, frequency counter tracks, and
//!   flow arrows from a causal log).
//! * `causal` — critical-path extraction and per-rank time/energy
//!   attribution ("blame analysis") over the engine's recorded
//!   [`sim_core::CausalLog`], feeding `RunResult::attribution` and the
//!   blame table `pwrperf run --causal` prints.
//! * [`obs_count!`] / [`obs_observe!`] — instrumentation macros over an
//!   optional registry: with no registry attached they cost one branch.
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

/// Add `$n` to counter `$name` in an `Option<&mut MetricsRegistry>`-like
/// expression (anything with `as_deref_mut`).
#[macro_export]
macro_rules! obs_count {
    ($reg:expr, $name:expr, $n:expr) => {
        if let Some(m) = $reg.as_deref_mut() {
            m.counter_add($name, $n);
        }
    };
}

/// Record `$v` into histogram `$name` (created on first use with the
/// default buckets of [`MetricsRegistry::observe`]).
#[macro_export]
macro_rules! obs_observe {
    ($reg:expr, $name:expr, $v:expr) => {
        if let Some(m) = $reg.as_deref_mut() {
            m.observe($name, $v);
        }
    };
}
