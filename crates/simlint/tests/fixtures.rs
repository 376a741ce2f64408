//! Fixture self-tests: each rule family has a bad fixture that must fire
//! the expected rules and a good fixture that must be silent. Fixtures
//! live under `tests/fixtures/` and are parsed, never compiled.

use simlint::{analyze_sources, lint_source, Config, Finding};

/// Lint a fixture as if it lived at `rel_path` inside the workspace.
fn lint_fixture(name: &str, rel_path: &str) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_source(rel_path, &src, &Config::workspace_default())
}

/// Run the full analysis (per-file + dataflow families) on one fixture.
fn analyze_fixture(name: &str, rel_path: &str) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    analyze_sources(&[(rel_path.to_string(), src)], &Config::workspace_default())
}

fn count_rule(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn units_bad_fires_type_and_mix_rules() {
    let f = lint_fixture("units_bad.rs", "crates/power-model/src/fixture.rs");
    assert_eq!(count_rule(&f, "unit-suffix-type"), 3, "{f:?}");
    assert_eq!(count_rule(&f, "unit-mix"), 3, "{f:?}");
}

#[test]
fn units_good_is_silent() {
    let f = lint_fixture("units_good.rs", "crates/power-model/src/fixture.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn errors_bad_fires_index_and_must_use_rules() {
    let f = lint_fixture("errors_bad.rs", "crates/power-model/src/fixture.rs");
    assert_eq!(count_rule(&f, "literal-index"), 1, "{f:?}");
    // RunResult type, run_batch_ prefix, Result in a measurement crate.
    assert_eq!(count_rule(&f, "must-use-measurement"), 3, "{f:?}");
}

#[test]
fn errors_good_is_silent() {
    let f = lint_fixture("errors_good.rs", "crates/power-model/src/fixture.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn result_rule_only_applies_in_measurement_crates() {
    // Same bad fixture linted under a non-measurement crate: the bare
    // Result-returning fn is no longer flagged, the rest still is.
    let f = lint_fixture("errors_bad.rs", "crates/dvfs/src/fixture.rs");
    assert_eq!(count_rule(&f, "must-use-measurement"), 2, "{f:?}");
}

#[test]
fn float_bad_fires_on_each_comparison() {
    let f = lint_fixture("float_bad.rs", "crates/sim-core/src/fixture.rs");
    assert_eq!(count_rule(&f, "float-eq"), 4, "{f:?}");
}

#[test]
fn float_good_is_silent() {
    let f = lint_fixture("float_good.rs", "crates/sim-core/src/fixture.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn float_rule_is_exempt_in_the_helper_module_itself() {
    let f = lint_fixture("float_bad.rs", "crates/sim-core/src/float.rs");
    assert_eq!(count_rule(&f, "float-eq"), 0, "{f:?}");
}

#[test]
fn unitflow_bad_fires_across_statements_and_calls() {
    let f = analyze_fixture("unitflow_bad.rs", "crates/powerpack/src/fixture.rs");
    assert_eq!(count_rule(&f, "unit-flow"), 4, "{f:?}");
    // The shadowed re-binding (v1 escape) is checked like the first.
    assert!(
        f.iter()
            .any(|x| x.rule == "unit-flow" && x.message.contains("annotated `u32`")),
        "{f:?}"
    );
    // Cross-function: the call argument against the parameter suffix.
    assert!(
        f.iter()
            .any(|x| x.rule == "unit-flow" && x.message.contains("parameter `dt_s`")),
        "{f:?}"
    );
    // The return-unit check on the function's own suffix.
    assert!(
        f.iter()
            .any(|x| x.rule == "unit-flow" && x.message.contains("`reading_w` is suffixed")),
        "{f:?}"
    );
}

#[test]
fn unitflow_good_is_silent() {
    let f = analyze_fixture("unitflow_good.rs", "crates/powerpack/src/fixture.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn controller_bad_fires_the_gate_rule() {
    let f = analyze_fixture("controller_bad.rs", "crates/dvfs/src/fixture.rs");
    assert_eq!(count_rule(&f, "controller-discipline"), 1, "{f:?}");
    assert!(f[0].message.contains("wants_runtime_events"), "{f:?}");
}

#[test]
fn controller_good_is_silent() {
    let f = analyze_fixture("controller_good.rs", "crates/dvfs/src/fixture.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn findings_carry_rustc_style_positions() {
    let f = lint_fixture("float_bad.rs", "crates/sim-core/src/fixture.rs");
    let first = &f[0];
    assert_eq!(first.file, "crates/sim-core/src/fixture.rs");
    // `factor == 1.0` on line 4; column is 1-based.
    assert_eq!(first.line, 4);
    assert!(first.column > 1);
}

#[test]
fn test_files_skip_the_rules_but_not_the_parser() {
    let cfg = Config::workspace_default();
    let rel = "crates/mpi-sim/src/engine_tests.rs";
    let clean = lint_source(rel, "fn f(x: f64) -> bool { x == 0.0 }\n", &cfg);
    assert!(clean.is_empty(), "{clean:?}");
    let broken = lint_source(rel, "fn f( {\n", &cfg);
    assert_eq!(count_rule(&broken, "parse"), 1, "{broken:?}");
}
