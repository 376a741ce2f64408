//! simlint — a static-analysis pass over the simulator crates.
//!
//! It lexes and shallowly parses every `.rs` file in the in-scope crates
//! (with its own offline tokenizer and item parser) and enforces the
//! unit-safety, literal-index, must-use and float-equality conventions
//! that clippy cannot express. The determinism and panic rules are
//! clippy's. See DESIGN.md §11 for the split. A finding is fixed in the
//! code; there is no way to excuse one.
//!
//! Library layout:
//!
//! * `tokens` — the lexer: source text to a tree of spanned tokens;
//! * `items` — the shallow item parser over those tokens;
//! * `config` — rule ids, blessed unit types, the controller contract;
//! * `scan` — token-stream flattening and unit-chain walkers;
//! * `rules` — the per-file rule implementations ([`lint_source`]);
//! * `model` — the workspace symbol table;
//! * `unitflow`, `controller` — the dataflow rule families built on the
//!   model (DESIGN.md §16);
//! * this module — scope and file discovery, orchestration, and
//!   rendering.

mod config;
mod controller;
mod items;
mod model;
mod rules;
mod scan;
mod tokens;
mod unitflow;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::{Config, RULES};
pub use rules::{lint_source, Finding};

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// The crates simlint lints: every `crates/<name>` whose manifest opts
/// into the workspace lint table with `[lints] workspace = true`, the
/// same marker that turns on the clippy determinism and panic lints.
/// Sorted by directory name.
pub fn lint_scope(root: &Path) -> io::Result<Vec<String>> {
    let mut scope = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        if inherits_workspace_lints(&manifest) {
            if let Some(name) = dir.file_name() {
                scope.push(name.to_string_lossy().into_owned());
            }
        }
    }
    scope.sort();
    Ok(scope)
}

/// True when a manifest's `[lints]` table says `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Every `.rs` file in the in-scope crates' `src/` trees, as
/// `(workspace-relative unix path, absolute path)` pairs, sorted so runs
/// are deterministic.
fn discover_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for krate in lint_scope(root)? {
        let src = root.join("crates").join(krate).join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    let mut pairs: Vec<(String, PathBuf)> = out
        .into_iter()
        .map(|abs| (rel_unix(root, &abs), abs))
        .collect();
    pairs.sort();
    Ok(pairs)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_unix(root: &Path, abs: &Path) -> String {
    let rel = abs.strip_prefix(root).unwrap_or(abs);
    rel.to_string_lossy().replace('\\', "/")
}

/// The full analysis over in-memory sources: the per-file rules and the
/// workspace dataflow families (unit-flow, controller-discipline).
/// Findings come back sorted by (file, line, column, rule).
pub fn analyze_sources(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed: Vec<(String, Option<items::File>)> = Vec::with_capacity(files.len());
    for (rel, src) in files {
        findings.extend(rules::lint_source(rel, src, cfg));
        parsed.push((rel.clone(), items::parse_file(src).ok()));
    }
    let ws = model::Workspace::build(&parsed);
    findings.extend(unitflow::check(&ws));
    findings.extend(controller::check(&ws));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.column, a.rule).cmp(&(
            b.file.as_str(),
            b.line,
            b.column,
            b.rule,
        ))
    });
    findings
}

/// Lint the whole workspace under `root` with `cfg`; findings come back
/// sorted by (file, line, column, rule).
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for (rel, abs) in discover_files(root)? {
        sources.push((rel, fs::read_to_string(&abs)?));
    }
    Ok(analyze_sources(&sources, cfg))
}

/// rustc-style text rendering: `file:line:col: error[rule]: message`.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: error[{}]: {}",
            f.file, f.line, f.column, f.rule, f.message
        );
    }
    if findings.is_empty() {
        out.push_str("simlint: no findings\n");
    } else {
        let _ = writeln!(
            out,
            "simlint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }
    out
}
