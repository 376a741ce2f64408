//! Rule-set configuration: which files are exempt from `float-eq`, what
//! the blessed unit types are, and the controller contract the
//! `controller-discipline` family audits. The crates in scope are read
//! from the manifests (see `lint_scope`), not listed here.

/// Everything the analyzer needs to know about the workspace's conventions.
/// [`Config::workspace_default`] encodes this repository's rules.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path suffixes exempt from `float-eq`: the approved epsilon-helper
    /// modules themselves.
    pub(crate) float_eq_allowed_files: Vec<&'static str>,
    /// Struct/enum names that must carry `#[must_use]` at declaration.
    pub(crate) must_use_types: Vec<&'static str>,
    /// Public functions whose names start with one of these prefixes must
    /// carry `#[must_use]`.
    pub(crate) must_use_fn_prefixes: Vec<&'static str>,
    /// Crates whose public `Result`-returning functions must carry
    /// `#[must_use]` (measurement APIs: dropping a reading silently is a
    /// validity bug, not a style nit).
    pub(crate) measurement_crates: Vec<&'static str>,
}

/// The controller trait whose impls the `controller-discipline` family
/// audits.
pub(crate) const CONTROLLER_TRAIT: &str = "ClusterController";

/// The `ClusterController` hooks that only fire when
/// `wants_runtime_events` returns true.
pub(crate) const CONTROLLER_RUNTIME_HOOKS: &[&str] = &["on_wait_begin", "on_wait_end", "on_sample"];

/// The gate method runtime hooks hide behind.
pub(crate) const CONTROLLER_GATE: &str = "wants_runtime_events";

/// The unit suffixes rule `unit-suffix-type` and `unit-mix` recognize, in
/// longest-first order so `_mwh` wins over `_w` and `_mhz`/`_hz` resolve
/// correctly.
pub(crate) const UNIT_SUFFIXES: &[&str] = &["_mwh", "_mhz", "_mw", "_hz", "_us", "_w", "_j", "_s"];

/// The blessed numeric types for each suffix: what a field/parameter with
/// that unit suffix must be declared as.
pub(crate) fn blessed_types(suffix: &str) -> &'static [&'static str] {
    match suffix {
        // Instantaneous power and energy are continuous model outputs.
        "_w" | "_mw" | "_j" => &["f64"],
        // Battery quanta are whole mWh at the ACPI interface, fractional
        // inside the battery model.
        "_mwh" => &["u64", "f64"],
        // Operating points are exact MHz steps; physics uses Hz floats.
        "_hz" => &["f64"],
        "_mhz" => &["u32", "f64"],
        // Seconds/microseconds as raw numbers (simulated clocks use
        // SimTime/SimDuration and don't carry a unit suffix).
        "_s" => &["f64"],
        "_us" => &["f64", "u64"],
        _ => &[],
    }
}

/// The unit suffix of an identifier, if it ends in one.
pub(crate) fn unit_suffix(name: &str) -> Option<&'static str> {
    UNIT_SUFFIXES
        .iter()
        .find(|s| name.ends_with(**s) && name.len() > s.len())
        .copied()
}

/// Every rule id the analyzer knows, with a one-line description
/// (`simlint --list-rules` prints this table; DESIGN.md §11 documents it).
pub const RULES: &[(&str, &str)] = &[
    (
        "unit-suffix-type",
        "fields/params with a unit suffix (_w, _j, _mwh, _hz, ...) must use the blessed numeric type",
    ),
    (
        "unit-mix",
        "additive/comparison arithmetic on identifiers with different unit suffixes",
    ),
    (
        "literal-index",
        "indexing by integer literal can panic; use .get()/.first() or destructure",
    ),
    (
        "must-use-measurement",
        "measurement results and Result-returning measurement APIs must be #[must_use]",
    ),
    (
        "float-eq",
        "==/!= on floats outside the approved epsilon helpers (sim_core::float)",
    ),
    (
        "unit-flow",
        "unit suffixes must agree across let-bindings, call arguments, and function returns",
    ),
    (
        "controller-discipline",
        "ClusterController runtime hooks must be gated behind wants_runtime_events",
    ),
];

impl Config {
    /// The rule set for this repository.
    pub fn workspace_default() -> Config {
        Config {
            float_eq_allowed_files: vec!["crates/sim-core/src/float.rs"],
            must_use_types: vec!["RunResult", "FaultCounts", "SolverStats"],
            must_use_fn_prefixes: vec!["run_batch", "aligned_"],
            measurement_crates: vec!["power-model", "powerpack"],
        }
    }

    /// True when `rel_path` (unix-style) is one of the `suffixes`.
    pub(crate) fn path_matches(rel_path: &str, suffixes: &[&str]) -> bool {
        suffixes
            .iter()
            .any(|s| rel_path == *s || rel_path.ends_with(&format!("/{s}")))
    }
}
