//! End-to-end test of the `all_figures` binary through a result store:
//! a cold and a warm regeneration both print exactly
//! `results/all_figures.txt`, and the warm one runs no engine at all.

use std::path::Path;
use std::process::Command;

/// `(stdout, stderr)` of a successful `all_figures` run.
fn all_figures(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(args)
        .output()
        .expect("spawn all_figures");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        out.status.success(),
        "all_figures {args:?} failed: {stderr}"
    );
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), stderr)
}

#[test]
fn cold_and_warm_store_runs_print_the_committed_figures() {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/all_figures.txt"),
    )
    .expect("results/all_figures.txt");
    let dir = std::env::temp_dir().join(format!("pwrperf-all-figures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("utf-8 temp path");

    let (cold, cold_err) = all_figures(&["--store", store]);
    assert!(
        cold == golden,
        "cold stdout differs from the committed figures"
    );
    assert!(
        !cold_err.contains(" 0 misses"),
        "cold run must fill the store: {cold_err}"
    );

    let (warm, warm_err) = all_figures(&["--store", store]);
    assert!(
        warm == golden,
        "warm stdout differs from the committed figures"
    );
    assert!(
        warm_err.contains(" hits, 0 misses, 0 corrupt,") && warm_err.contains(" 0 B written"),
        "warm run must replay every result from the store: {warm_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
