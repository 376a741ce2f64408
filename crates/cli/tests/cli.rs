//! End-to-end tests of the `pwrperf` binary: the two experiment commands
//! (`run`, `sweep`) produce the documented stdout and artifacts, and the
//! subcommands and flags they replaced are usage errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn pwrperf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pwrperf"))
        .args(args)
        .output()
        .expect("spawn pwrperf")
}

/// Stdout of a run that must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = pwrperf(args);
    assert!(
        out.status.success(),
        "pwrperf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh, empty directory for one test's artifacts.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwrperf-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_table() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/ft_test4_stat1400.analyze.txt");
    std::fs::read_to_string(path).expect("golden blame table")
}

#[test]
fn run_causal_ends_with_the_golden_blame_table() {
    let stdout = stdout_of(&["run", "-w", "ft-test4", "-s", "static-1400", "--causal"]);
    let golden = golden_table();
    assert!(
        stdout.ends_with(&golden),
        "stdout tail differs from tests/golden/ft_test4_stat1400.analyze.txt:\n{stdout}"
    );
    // The summary comes first.
    assert!(
        stdout.starts_with("workload : FT.Test on 4 nodes\n"),
        "{stdout}"
    );
}

#[test]
fn run_out_dir_writes_every_artifact() {
    let dir = scratch_dir("artifacts");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let stdout = stdout_of(&[
        "run",
        "-w",
        "ft-test4",
        "-s",
        "dynamic-1400",
        "--metrics",
        "--causal",
        "-o",
        dir_arg,
    ]);
    assert!(stdout.contains("== metrics =="), "{stdout}");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("artifact dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "attribution.ndjson",
            "metrics.ndjson",
            "run.perfetto.json",
            "samples.csv",
            "summary.csv",
            "trace.csv"
        ]
    );
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect(name);
    for name in ["metrics.ndjson", "attribution.ndjson"] {
        let text = read(name);
        assert!(
            text.starts_with(r#"{"meta":{"format":2"#),
            "{name} lacks the meta header: {}",
            text.lines().next().unwrap_or("")
        );
    }
    let perfetto = read("run.perfetto.json");
    assert!(perfetto.contains(r#""ph":"s""#), "no flow arrows");
    assert!(perfetto.contains(r#""ph":"f""#), "unpaired flow arrows");
    // The 0.15 s run is sampled at 100 ms: a header and one row.
    assert_eq!(read("samples.csv").lines().count(), 2);
    assert!(read("trace.csv").lines().count() > 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_dir_leaves_the_run_summary_byte_identical() {
    let cases: [&[&str]; 2] = [
        &["run", "-w", "ft-test4", "-s", "cpuspeed"],
        &[
            "run",
            "-w",
            "ft-test4",
            "--power-cap",
            "80",
            "--faults",
            "slow:0:5.0",
        ],
    ];
    for (i, args) in cases.into_iter().enumerate() {
        let dir = scratch_dir(&format!("summary-{i}"));
        let mut with_out = args.to_vec();
        with_out.extend(["-o", dir.to_str().expect("utf-8 temp path")]);
        assert_eq!(stdout_of(args), stdout_of(&with_out), "{args:?}");
        assert!(dir.join("summary.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sweep_ends_with_the_best_point() {
    let stdout = stdout_of(&["sweep", "-w", "swim", "--delta", "0.2"]);
    assert!(stdout.contains("best     : 600 MHz\n"), "{stdout}");
    assert!(
        stdout.ends_with("gain     : 22.2% over static 1400 MHz\n"),
        "{stdout}"
    );
}

#[test]
fn sweep_output_does_not_depend_on_the_worker_count() {
    let one = stdout_of(&["sweep", "-w", "ft-test4", "-j", "1"]);
    let two = stdout_of(&["sweep", "-w", "ft-test4", "-j", "2"]);
    assert!(one.contains("best     :"), "{one}");
    assert_eq!(one, two);
}

#[test]
fn removed_subcommands_and_flags_exit_2() {
    let cases: [&[&str]; 8] = [
        &["trace", "-w", "ft-test4", "-s", "static-800"],
        &["stats", "-w", "ft-test4", "-s", "static-800"],
        &["export", "-w", "ft-test4", "-s", "static-800"],
        &["analyze", "-w", "ft-test4", "-s", "static-800"],
        &["best", "-w", "swim"],
        &["sweep", "-w", "ft-test4", "--no-cache"],
        &[
            "run",
            "-w",
            "ft-test4",
            "-s",
            "static-800",
            "--trace-capacity",
            "100",
        ],
        &[
            "sweep",
            "-w",
            "ft-test4",
            "--power-cap",
            "80",
            "--delta",
            "0.2",
        ],
    ];
    for args in cases {
        let out = pwrperf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("error: "),
            "{args:?}"
        );
    }
}

#[test]
fn a_fault_on_a_node_the_workload_lacks_exits_2() {
    let cases: [&[&str]; 3] = [
        &[
            "run",
            "-w",
            "comm-256k",
            "-s",
            "static-1400",
            "--faults",
            "weak-link:3:0.5",
        ],
        &["sweep", "-w", "comm-256k", "--faults", "weak-link:3:0.5"],
        &[
            "run",
            "-w",
            "swim",
            "-s",
            "static-1400",
            "--faults",
            "slow:1:2",
        ],
    ];
    for args in cases {
        let out = pwrperf(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: bad --faults spec: "), "{stderr}");
    }
}

#[test]
fn help_lists_exactly_the_remaining_commands() {
    let stdout = stdout_of(&["help"]);
    let usage = stdout
        .split_once("USAGE:")
        .and_then(|(_, rest)| rest.split_once("EXAMPLES:"))
        .map(|(usage, _)| usage)
        .expect("help has USAGE and EXAMPLES sections");
    let mut commands: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("pwrperf "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    commands.sort_unstable();
    commands.dedup();
    assert_eq!(
        commands,
        ["client", "help", "list", "run", "serve", "sweep"],
        "{stdout}"
    );
}
