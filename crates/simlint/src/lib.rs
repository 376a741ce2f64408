//! simlint — a static-analysis pass over the simulator crates.
//!
//! It lexes and shallowly parses every `.rs` file in the in-scope crates
//! (with its own offline tokenizer and item parser) and enforces the
//! determinism, unit-safety, error-discipline, and float-equality
//! conventions that the replay guarantee rests on. See DESIGN.md §11 for
//! the rule catalogue and the allow-comment grammar.
//!
//! Library layout:
//!
//! * `tokens` — the lexer: source text to a tree of spanned tokens;
//! * `items` — the shallow item parser over those tokens;
//! * `config` — rule ids, scope, blessed unit types;
//! * `allow` — the `// simlint: allow(rule): why` grammar;
//! * `scan` — token-stream flattening and unit-chain walkers;
//! * `rules` — the per-file rule implementations ([`lint_source`]);
//! * `model` — the workspace symbol table;
//! * `unitflow`, `controller` — the dataflow rule families built on the
//!   model (DESIGN.md §16);
//! * this module — file discovery, orchestration, and rendering.

mod allow;
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

use allow::AllowTable;

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

/// Every `.rs` file in the in-scope crates' `src/` trees, as
/// `(workspace-relative unix path, absolute path)` pairs, sorted so runs
/// are deterministic.
fn discover_files(root: &Path, cfg: &Config) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for krate in &cfg.scope_crates {
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

/// The full analysis over in-memory sources: per-file rules, the
/// workspace dataflow families (unit-flow, controller-discipline), and
/// allow hygiene — all sharing one allow table per file so
/// `// simlint: allow(...)` works uniformly. Findings come back sorted by
/// (file, line, column, rule).
pub fn analyze_sources(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed: Vec<(String, Option<items::File>)> = Vec::with_capacity(files.len());
    let mut allows: Vec<(String, AllowTable)> = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let table = AllowTable::parse(src);
        findings.extend(rules::lint_source_with(rel, src, cfg, &table));
        parsed.push((rel.clone(), items::parse_file(src).ok()));
        allows.push((rel.clone(), table));
    }
    let ws = model::Workspace::build(&parsed);
    let mut dataflow = unitflow::check(&ws);
    dataflow.extend(controller::check(&ws));
    for f in dataflow {
        let table = allows.iter().find(|(r, _)| *r == f.file).map(|(_, t)| t);
        if table.is_some_and(|t| t.suppresses(f.line, f.rule)) {
            continue;
        }
        findings.push(f);
    }
    for (rel, table) in &allows {
        findings.extend(rules::allow_hygiene(rel, table));
    }
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
    for (rel, abs) in discover_files(root, cfg)? {
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
