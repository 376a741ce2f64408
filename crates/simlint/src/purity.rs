//! The `shard-purity` dataflow pass.
//!
//! Starting from the configured pure roots (`plan_compute`, the snapshot
//! candidates — `simlint.toml [purity] roots`), walk the call graph
//! breadth-first and flag anything that could make a re-evaluated or
//! replayed computation diverge: `&mut self` receivers on the path,
//! assignments to `static mut` state, interior mutability, and I/O or
//! ambient-rng sinks. Every finding carries the full call chain from the
//! root to the sink so the report reads as a path, not a point.
//!
//! Resolution is conservative (see `model.rs`): unresolved calls are
//! assumed pure. The `simsan` engine feature is the runtime cross-check.

use std::collections::VecDeque;

use proc_macro2::{Delimiter, Group, TokenTree};

use crate::config::Config;
use crate::model::{CallBase, CallSite, FnNode, Workspace};
use crate::rules::Finding;
use crate::scan::{flatten, Flat};

/// Types whose presence in a pure region means shared mutable state.
const INTERIOR_MUT_TYPES: &[&str] = &[
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
];

/// Macros that perform I/O.
const IO_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Idents that mean I/O when they appear at all (method or path position).
const IO_IDENTS: &[&str] = &["stdout", "stderr", "read_to_string", "write_all"];

/// Path qualifiers that mean I/O (`fs::read`, `File::open`).
const IO_QUALIFIERS: &[&str] = &["fs", "File"];

/// Ambient randomness.
const RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy"];

/// Methods that mutate through a shared reference (interior mutability).
const INTERIOR_MUT_METHODS: &[&str] = &[
    "borrow_mut",
    "lock",
    "store",
    "fetch_add",
    "fetch_sub",
    "get_or_init",
    "get_or_insert_with",
];

/// Run the pass over the whole workspace model.
pub fn check(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    if !cfg.rule_enabled("shard-purity") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    // parent[i] = (caller idx, call line) once visited; roots are their
    // own parents (None).
    let mut visited = vec![false; ws.fns.len()];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; ws.fns.len()];
    let mut queue = VecDeque::new();

    for root in &cfg.purity_roots {
        for &idx in resolve_root(ws, root) {
            if ws.fns[idx].is_test || visited[idx] {
                continue;
            }
            visited[idx] = true;
            queue.push_back(idx);
            let f = &ws.fns[idx];
            if f.receiver.is_some_and(|r| r.is_mut()) {
                findings.push(finding(
                    ws,
                    &parent,
                    idx,
                    f.line,
                    f.column,
                    &format!("pure root `{}` takes `&mut self`", f.qualified()),
                ));
            }
        }
    }

    while let Some(idx) = queue.pop_front() {
        let f = &ws.fns[idx];
        if let Some(body) = &f.body {
            scan_body_sinks(ws, &parent, idx, body, &mut findings);
        }
        for call in &f.calls {
            let (mut_violation, targets) = resolve_call(ws, f, call);
            if let Some(desc) = mut_violation {
                findings.push(finding(ws, &parent, idx, call.line, call.column, &desc));
            }
            for t in targets {
                if ws.fns[t].is_test || visited[t] {
                    continue;
                }
                visited[t] = true;
                parent[t] = Some((idx, call.line));
                queue.push_back(t);
            }
        }
    }
    findings
}

/// Indices matching a configured root: `Type::method` matches methods, a
/// bare name matches every function with that name (free fns and methods).
fn resolve_root<'w>(ws: &'w Workspace, root: &str) -> &'w [usize] {
    match root.split_once("::") {
        Some((ty, name)) => ws.methods_of(ty, name),
        None => ws.fns_named(root),
    }
}

/// Resolve one call site in `f`: an optional `&mut self` violation
/// description, plus the callee indices to traverse into.
fn resolve_call(ws: &Workspace, f: &FnNode, call: &CallSite) -> (Option<String>, Vec<usize>) {
    match &call.base {
        // `self.m()` / `self.field.m()`: resolve within the enclosing
        // type first; a field-hop method lives on another type, so fall
        // back to the workspace-unique method of that name.
        CallBase::SelfChain => {
            let own: Vec<usize> = f
                .self_ty
                .as_deref()
                .map(|ty| ws.methods_of(ty, &call.callee).to_vec())
                .unwrap_or_default();
            let candidates = if own.is_empty() {
                let named: Vec<usize> = ws
                    .fns_named(&call.callee)
                    .iter()
                    .copied()
                    .filter(|&i| ws.fns[i].receiver.is_some())
                    .collect();
                if named.len() == 1 {
                    named
                } else {
                    Vec::new()
                }
            } else {
                own
            };
            let mutating = !candidates.is_empty()
                && candidates
                    .iter()
                    .all(|&i| ws.fns[i].receiver.is_some_and(|r| r.is_mut()));
            let desc = mutating.then(|| {
                format!(
                    "calls `{}` which takes `&mut self` on a value reached through `self`",
                    ws.fns[candidates[0]].qualified()
                )
            });
            (desc, candidates)
        }
        // Method on a named binding: a parameter's declared type makes
        // this precise; locals stay unresolved (mutating a local is pure).
        CallBase::Named(base) => {
            let param = f.params.iter().find(|p| p.name == *base);
            match param.and_then(|p| p.ty_name.as_deref()) {
                Some(ty) => {
                    let candidates = ws.methods_of(ty, &call.callee).to_vec();
                    let mutating = !candidates.is_empty()
                        && candidates
                            .iter()
                            .all(|&i| ws.fns[i].receiver.is_some_and(|r| r.is_mut()));
                    let desc = mutating.then(|| {
                        format!(
                            "calls `{}::{}` which takes `&mut self` on parameter `{base}`",
                            ty, call.callee
                        )
                    });
                    (desc, candidates)
                }
                None if param.is_some() => {
                    // Parameter of unknown type: flag only when every
                    // method of that name in the workspace mutates.
                    let named: Vec<usize> = ws
                        .fns_named(&call.callee)
                        .iter()
                        .copied()
                        .filter(|&i| ws.fns[i].receiver.is_some())
                        .collect();
                    let mutating = !named.is_empty()
                        && named
                            .iter()
                            .all(|&i| ws.fns[i].receiver.is_some_and(|r| r.is_mut()));
                    let desc = mutating.then(|| {
                        format!(
                            "calls `.{}()` which takes `&mut self` on parameter `{base}`",
                            call.callee
                        )
                    });
                    let targets = if named.len() == 1 { named } else { Vec::new() };
                    (desc, targets)
                }
                // A local: its mutation is invisible outside the pure
                // region; don't traverse (no declared type to resolve by).
                None => (None, Vec::new()),
            }
        }
        CallBase::Expr => (None, Vec::new()),
        CallBase::Path(Some(qual)) => {
            let typed = ws.methods_of(qual, &call.callee);
            if !typed.is_empty() {
                return (None, typed.to_vec());
            }
            // Module-qualified free call: match free functions by name.
            let free: Vec<usize> = ws
                .fns_named(&call.callee)
                .iter()
                .copied()
                .filter(|&i| ws.fns[i].self_ty.is_none())
                .collect();
            (None, free)
        }
        CallBase::Path(None) => {
            let free: Vec<usize> = ws
                .fns_named(&call.callee)
                .iter()
                .copied()
                .filter(|&i| ws.fns[i].self_ty.is_none())
                .collect();
            (None, free)
        }
    }
}

/// Scan one reachable body for direct sinks.
fn scan_body_sinks(
    ws: &Workspace,
    parent: &[Option<(usize, usize)>],
    idx: usize,
    body: &Group,
    findings: &mut Vec<Finding>,
) {
    scan_tokens(ws, parent, idx, body.stream().tokens(), findings);
}

fn scan_tokens(
    ws: &Workspace,
    parent: &[Option<(usize, usize)>],
    idx: usize,
    tokens: &[TokenTree],
    findings: &mut Vec<Finding>,
) {
    let flats = flatten(tokens);
    for (i, flat) in flats.iter().enumerate() {
        let Flat::Ident(id) = flat else { continue };
        let name = id.to_string();
        let span = id.span();
        let line = span.start().line.max(1);
        let column = span.start().column + 1;
        let is_macro = matches!(flats.get(i + 1), Some(Flat::Op(op, _)) if op == "!");
        let after_dot = i > 0 && matches!(&flats[i - 1], Flat::Op(op, _) if op == ".");
        let before_call = matches!(
            flats.get(i + 1),
            Some(Flat::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        );
        let qualifies = matches!(flats.get(i + 1), Some(Flat::Op(op, _)) if op == "::");

        let sink: Option<String> = if INTERIOR_MUT_TYPES.contains(&name.as_str())
            || (name.starts_with("Atomic") && name.len() > "Atomic".len())
        {
            Some(format!("uses interior mutability (`{name}`)"))
        } else if is_macro && IO_MACROS.contains(&name.as_str()) {
            Some(format!("performs I/O (`{name}!`)"))
        } else if IO_IDENTS.contains(&name.as_str()) {
            Some(format!("performs I/O (`{name}`)"))
        } else if qualifies && IO_QUALIFIERS.contains(&name.as_str()) {
            Some(format!("performs I/O (`{name}::...`)"))
        } else if RNG_IDENTS.contains(&name.as_str())
            || (name == "random"
                && i >= 2
                && matches!(&flats[i - 1], Flat::Op(op, _) if op == "::")
                && matches!(&flats[i - 2], Flat::Ident(q) if *q == "rand"))
        {
            Some(format!("draws ambient randomness (`{name}`)"))
        } else if after_dot && before_call && INTERIOR_MUT_METHODS.contains(&name.as_str()) {
            Some(format!("mutates through a shared reference (`.{name}()`)"))
        } else if is_static_assign(&name, &flats, i) {
            Some(format!("assigns to static `{name}`"))
        } else {
            None
        };
        if let Some(desc) = sink {
            findings.push(finding(ws, parent, idx, line, column, &desc));
        }
    }
    for t in tokens {
        if let TokenTree::Group(g) = t {
            scan_tokens(ws, parent, idx, g.stream().tokens(), findings);
        }
    }
}

/// `SCREAMING_CASE = ...` / `+=` / `-=`: an assignment to a static.
/// (Consts cannot be assigned, so an all-caps assignment target is a
/// `static mut` — or close enough to deserve a look.)
fn is_static_assign(name: &str, flats: &[Flat<'_>], i: usize) -> bool {
    if name.len() < 2
        || !name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    {
        return false;
    }
    // Not a path segment of something else (`E::VARIANT = x` in a match
    // guard is not assignment; also skip `Self::CAP` reads).
    if i > 0 && matches!(&flats[i - 1], Flat::Op(op, _) if op == "::" || op == ".") {
        return false;
    }
    matches!(
        flats.get(i + 1),
        Some(Flat::Op(op, _)) if matches!(op.as_str(), "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^=")
    )
}

/// Build a finding whose message leads with the root→here call chain.
fn finding(
    ws: &Workspace,
    parent: &[Option<(usize, usize)>],
    idx: usize,
    line: usize,
    column: usize,
    desc: &str,
) -> Finding {
    let mut chain = vec![idx];
    let mut cur = idx;
    while let Some((p, _)) = parent[cur] {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    let path: Vec<String> = chain
        .iter()
        .map(|&i| format!("`{}`", ws.fns[i].qualified()))
        .collect();
    let f = &ws.fns[idx];
    Finding {
        file: f.file.clone(),
        line,
        column,
        rule: "shard-purity",
        message: format!(
            "{}: {} (reached from pure root {})",
            path.join(" → "),
            desc,
            path.first().cloned().unwrap_or_default()
        ),
    }
}
