//! Rule-set configuration: which crates are in scope, which files hold
//! sanctioned escape hatches, what the blessed unit types are, and the
//! dataflow settings (purity roots, controller traits) that `simlint.toml`
//! can override.

use std::collections::BTreeSet;
use std::path::Path;

/// Everything the analyzer needs to know about the workspace's conventions.
/// [`Config::workspace_default`] encodes this repository's rules; callers
/// embedding the linter as a library can build their own.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names (under `crates/`) whose `src/` trees are
    /// linted in workspace mode. Everything else — `obs` (wall-clock
    /// profiling is its job), `cli`, `bench`, the compat shims, and
    /// simlint itself — is out of scope.
    pub scope_crates: Vec<&'static str>,
    /// Path suffixes (unix-style) where environment reads are sanctioned:
    /// the single `PWRPERF_THREADS` funnel.
    pub env_allowed_files: Vec<&'static str>,
    /// Path suffixes exempt from `float-eq`: the approved epsilon-helper
    /// modules themselves.
    pub float_eq_allowed_files: Vec<&'static str>,
    /// Struct/enum names that must carry `#[must_use]` at declaration.
    pub must_use_types: Vec<&'static str>,
    /// Public functions whose names start with one of these prefixes must
    /// carry `#[must_use]`.
    pub must_use_fn_prefixes: Vec<&'static str>,
    /// Crates whose public `Result`-returning functions must carry
    /// `#[must_use]` (measurement APIs: dropping a reading silently is a
    /// validity bug, not a style nit).
    pub measurement_crates: Vec<&'static str>,
    /// Rule ids disabled for this run.
    pub skip_rules: BTreeSet<String>,
    /// Declared pure roots for the `shard-purity` dataflow pass: bare
    /// names match free functions (`plan_compute`), `Type::method` forms
    /// match inherent/trait methods. Everything transitively reachable
    /// from a root must stay side-effect free. `simlint.toml`'s
    /// `[purity] roots` overrides this list.
    pub purity_roots: Vec<String>,
    /// Trait names whose impls the `controller-discipline` family audits
    /// (`simlint.toml`'s `[controller] traits` overrides).
    pub controller_traits: Vec<String>,
}

/// The `ClusterController` hooks that only fire when
/// `wants_runtime_events` returns true — and whose non-sample members may
/// never emit `Decision`s.
pub const CONTROLLER_RUNTIME_HOOKS: &[&str] =
    &["on_wait_begin", "on_wait_end", "on_phase", "on_sample"];

/// The runtime hooks that must *not* push decisions (decisions are legal
/// only from sample instants — DESIGN.md §15).
pub const CONTROLLER_NON_SAMPLE_HOOKS: &[&str] = &["on_wait_begin", "on_wait_end", "on_phase"];

/// The gate method runtime hooks hide behind.
pub const CONTROLLER_GATE: &str = "wants_runtime_events";

/// The unit suffixes rule `unit-suffix-type` and `unit-mix` recognize, in
/// longest-first order so `_mwh` wins over `_w` and `_mhz`/`_hz` resolve
/// correctly.
pub const UNIT_SUFFIXES: &[&str] = &["_mwh", "_mhz", "_mw", "_hz", "_us", "_w", "_j", "_s"];

/// The blessed numeric types for each suffix: what a field/parameter with
/// that unit suffix must be declared as.
pub fn blessed_types(suffix: &str) -> &'static [&'static str] {
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
pub fn unit_suffix(name: &str) -> Option<&'static str> {
    UNIT_SUFFIXES
        .iter()
        .find(|s| name.ends_with(**s) && name.len() > s.len())
        .copied()
}

/// Every rule id the analyzer knows, with a one-line description
/// (`simlint --list-rules` prints this table; DESIGN.md §11 documents it).
pub const RULES: &[(&str, &str)] = &[
    (
        "nondet-collections",
        "std HashMap/HashSet have nondeterministic iteration; use FxHashMap/FxHashSet/BTreeMap",
    ),
    (
        "wall-clock",
        "Instant::now/SystemTime::now leak host time into sim code; use SimTime or obs::WallTimer",
    ),
    (
        "ambient-rng",
        "thread_rng/rand::random/from_entropy are unseeded; use sim_core::DetRng",
    ),
    (
        "env-read",
        "environment access outside the sanctioned thread_count_with path breaks replay",
    ),
    (
        "unit-suffix-type",
        "fields/params with a unit suffix (_w, _j, _mwh, _hz, ...) must use the blessed numeric type",
    ),
    (
        "unit-mix",
        "additive/comparison arithmetic on identifiers with different unit suffixes",
    ),
    (
        "panic-path",
        "unwrap/expect/panic!/unreachable!/todo! in non-test engine code; return a checked error",
    ),
    (
        "literal-index",
        "indexing by integer literal can panic; use .get()/.first() or justify",
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
        "bad-allow",
        "a `// simlint: allow(...)` comment without a justification",
    ),
    (
        "unused-allow",
        "a justified allow-comment that suppresses nothing",
    ),
    (
        "shard-purity",
        "functions reachable from declared pure roots must not take &mut self, touch statics, use interior mutability, or call I/O/rng",
    ),
    (
        "unit-flow",
        "unit suffixes must agree across let-bindings, call arguments, and function returns",
    ),
    (
        "controller-discipline",
        "ClusterController runtime hooks must be gated behind wants_runtime_events and emit Decisions only from on_sample",
    ),
];

impl Config {
    /// The rule set for this repository.
    pub fn workspace_default() -> Config {
        Config {
            scope_crates: vec![
                "sim-core",
                "mpi-sim",
                "net-model",
                "power-model",
                "mem-model",
                "cluster-sim",
                "dvfs",
                "powerpack",
                "edp-metrics",
                "workloads",
                "core",
            ],
            env_allowed_files: vec!["crates/core/src/runner.rs"],
            float_eq_allowed_files: vec!["crates/sim-core/src/float.rs"],
            must_use_types: vec!["RunResult", "FaultCounts", "SolverStats"],
            must_use_fn_prefixes: vec!["run_batch", "aligned_"],
            measurement_crates: vec!["power-model", "powerpack"],
            skip_rules: BTreeSet::new(),
            purity_roots: vec![
                "plan_compute".to_string(),
                "PowerCapController::plan".to_string(),
            ],
            controller_traits: vec!["ClusterController".to_string()],
        }
    }

    /// The workspace defaults overlaid with `<root>/simlint.toml`, when
    /// present. Only the dataflow sections are file-configurable; the
    /// per-file rule plumbing stays in code.
    pub fn load(root: &Path) -> Config {
        let mut cfg = Config::workspace_default();
        let path = root.join("simlint.toml");
        if let Ok(text) = std::fs::read_to_string(&path) {
            cfg.apply_toml(&text);
        }
        cfg
    }

    /// Overlay `simlint.toml` content: `[purity] roots` and
    /// `[controller] traits` replace the built-in lists when present.
    pub fn apply_toml(&mut self, text: &str) {
        let doc = crate::toml::parse(text);
        if let Some(roots) = doc.list("purity", "roots") {
            self.purity_roots = roots;
        }
        if let Some(traits) = doc.list("controller", "traits") {
            self.controller_traits = traits;
        }
    }

    /// True when `rule` is enabled.
    pub fn rule_enabled(&self, rule: &str) -> bool {
        !self.skip_rules.contains(rule)
    }

    /// True when `rel_path` (unix-style) is one of the `suffixes`.
    pub fn path_matches(rel_path: &str, suffixes: &[&str]) -> bool {
        suffixes
            .iter()
            .any(|s| rel_path == *s || rel_path.ends_with(&format!("/{s}")))
    }
}
