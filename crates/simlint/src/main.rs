//! simlint CLI.
//!
//! ```text
//! simlint [--list-rules]
//! ```
//!
//! Lints every in-scope crate of the workspace that contains the current
//! directory (found by walking up to a `Cargo.toml` with `[workspace]`)
//! and exits 1 on any finding. Usage and I/O errors exit 2.

use std::process::ExitCode;

use simlint::{find_workspace_root, lint_workspace, render_text, Config, RULES};

const USAGE: &str = "usage: simlint [--list-rules]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        [] => {}
        ["--list-rules"] => {
            for (id, desc) in RULES {
                println!("{id:<22} {desc}");
            }
            return ExitCode::SUCCESS;
        }
        ["--help" | "-h"] => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            return fail(&format!(
                "unexpected arguments `{}`; {USAGE}",
                args.join(" ")
            ))
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return fail(&format!("cannot read current dir: {e}")),
    };
    let Some(root) = find_workspace_root(&cwd) else {
        return fail("no workspace root found above the current directory");
    };
    let findings = match lint_workspace(&root, &Config::workspace_default()) {
        Ok(f) => f,
        Err(e) => return fail(&e.to_string()),
    };
    print!("{}", render_text(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}");
    ExitCode::from(2)
}
