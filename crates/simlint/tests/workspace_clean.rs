//! Golden test: the workspace itself must be simlint-clean. Any new
//! violation fails here even before the CI `lint` job runs the binary.
//! The CLI cases drive the `simlint` binary from inside a workspace, the
//! way CI and `scripts/lint.sh` run it.

use simlint::{lint_workspace, render_text, Config};
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
        src.join("lib.rs"),
        "use std::collections::HashMap;\n\npub fn table() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n",
    )
    .unwrap();
    // Run from a subdirectory: the workspace root is found by walking up.
    let out = simlint_in(&src);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("crates/sim-core/src/lib.rs:1:")
                && l.contains("error[nondet-collections]")),
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
