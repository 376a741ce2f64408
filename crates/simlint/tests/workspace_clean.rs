//! Golden test: the workspace itself must be simlint-clean. Any new
//! violation fails here even before the CI `lint` job runs the binary.
//! The CLI cases drive the `simlint` binary from inside a workspace, the
//! way CI and `scripts/lint.sh` run it.

use simlint::{lint_scope, lint_workspace, render_text, Config};
use std::path::Path;
use std::process::{Command, Output};

fn workspace_root() -> &'static Path {
    // crates/simlint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("simlint manifest dir has a workspace root two levels up")
}

fn simlint_in(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .current_dir(dir)
        .output()
        .expect("spawn simlint binary")
}

#[test]
fn workspace_has_zero_findings() {
    let findings = lint_workspace(workspace_root(), &Config::workspace_default())
        .expect("workspace lint must not hit IO/parse errors");
    assert!(
        findings.is_empty(),
        "workspace is not simlint-clean:\n{}",
        render_text(&findings)
    );
}

#[test]
fn scope_is_the_crates_that_inherit_the_workspace_lints() {
    let scope = lint_scope(workspace_root()).expect("read crate manifests");
    assert_eq!(
        scope,
        [
            "cluster-sim",
            "core",
            "dvfs",
            "edp-metrics",
            "mem-model",
            "mpi-sim",
            "net-model",
            "power-model",
            "powerpack",
            "sim-core",
            "workloads",
        ]
    );
}

/// The determinism and panic rules live in clippy's configuration, not
/// in simlint: dropping a disallowed path or a lint level must fail here.
#[test]
fn clippy_config_keeps_the_determinism_and_panic_rules() {
    let read = |name: &str| {
        std::fs::read_to_string(workspace_root().join(name))
            .unwrap_or_else(|e| panic!("read {name}: {e}"))
    };
    let clippy_toml: String = read("clippy.toml")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect();
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::env::vars_os",
        "std::env::set_var",
        "std::env::remove_var",
    ] {
        assert!(
            clippy_toml.contains(&format!("{{ path = \"{path}\",")),
            "clippy.toml no longer disallows {path}"
        );
    }
    for setting in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
    ] {
        assert!(
            clippy_toml.contains(setting),
            "clippy.toml lost `{setting}`"
        );
    }
    let manifest = read("Cargo.toml");
    let levels: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .collect();
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "allow_attributes",
        "allow_attributes_without_reason",
    ] {
        let line = format!("{lint} = \"warn\"");
        assert!(
            levels.contains(&line.as_str()),
            "[workspace.lints.clippy] no longer has `{line}`: {levels:?}"
        );
    }
}

#[test]
fn cli_exits_clean_on_the_workspace() {
    let out = simlint_in(workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "simlint failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout, "simlint: no findings\n");
}

#[test]
fn cli_exits_1_on_a_finding() {
    let dir = std::env::temp_dir().join(format!("simlint-dirty-{}", std::process::id()));
    let src = dir.join("crates/sim-core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("crates/sim-core/Cargo.toml"),
        "[package]\nname = \"sim-core\"\n\n[lints]\nworkspace = true\n",
    )
    .unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn idle(x: f64) -> bool {\n    x == 0.0\n}\n",
    )
    .unwrap();
    // Run from a subdirectory: the workspace root is found by walking up.
    let out = simlint_in(&src);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.lines().any(
            |l| l.starts_with("crates/sim-core/src/lib.rs:2:") && l.contains("error[float-eq]")
        ),
        "{stdout}"
    );
}

#[test]
fn cli_rejects_any_argument_but_list_rules() {
    for flag in [
        "--deny",
        "--json",
        "--no-cache",
        "crates/sim-core/src/lib.rs",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
            .arg(flag)
            .current_dir(workspace_root())
            .output()
            .expect("spawn simlint binary");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}");
    }
}
