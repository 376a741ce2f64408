//! The `unit-flow` pass: propagate the `_w/_j/_hz/...` suffix types
//! through let-bindings, call arguments, and return values, so a unit
//! mistake that crosses a statement or function boundary is caught — the
//! per-file `unit-mix` rule only sees a single expression.
//!
//! The inference is suffix-directed: an expression's unit is the suffix
//! of the identifier chain it evaluates (`self.node.power_w` → `_w`,
//! `total_j(...)` → `_j`), additive chains must agree, and any `*`/`/`/`%`
//! clears the unit (products genuinely change dimensions). Bare locals
//! resolve through the environment built from earlier `let`s and the
//! parameter list, which is what makes the flow cross statements.
//!
//! Every `let` is checked, including shadowing re-bindings — the v1
//! suffix-type rule only looked at fields and parameters, so a shadowed
//! `let x_j = ...` escaped entirely.

use std::collections::BTreeMap;

use crate::items::{split_top_level_commas, split_top_level_semis};
use crate::tokens::{Delimiter, TokenTree};

use crate::config::{blessed_types, unit_suffix};
use crate::model::{FnNode, Workspace};
use crate::rules::Finding;

/// Per-function environment: binding name -> unit suffix.
type Env = BTreeMap<String, &'static str>;

/// Run the pass over every non-test function body.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.fns {
        if f.is_test {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let mut env = Env::new();
        for p in &f.params {
            if let Some(u) = p.unit {
                env.insert(p.name.clone(), u);
            }
        }
        let mut checker = Checker {
            ws,
            f,
            findings: &mut findings,
        };
        checker.check_block(body.stream().tokens(), &mut env, true);
    }
    findings
}

struct Checker<'a> {
    ws: &'a Workspace,
    f: &'a FnNode,
    findings: &'a mut Vec<Finding>,
}

impl Checker<'_> {
    fn push(&mut self, line: usize, column: usize, message: String) {
        self.findings.push(Finding {
            file: self.f.file.clone(),
            line,
            column,
            rule: "unit-flow",
            message,
        });
    }

    /// Walk one brace-block's statements. `is_fn_body` enables the
    /// return-unit check on the tail expression.
    fn check_block(&mut self, tokens: &[TokenTree], env: &mut Env, is_fn_body: bool) {
        let stream = crate::tokens::TokenStream::from(tokens.to_vec());
        let stmts = split_top_level_semis(&stream);
        let n = stmts.len();
        for (k, stmt) in stmts.iter().enumerate() {
            self.check_stmt(stmt, env);
            // Nested blocks see (and may shadow) the enclosing bindings;
            // their inner lets don't leak back out, which over-retains
            // shadowed outer names — acceptable at this altitude.
            for t in stmt {
                self.walk_nested_blocks(t, env);
            }
            if is_fn_body && k + 1 == n && !starts_with_keyword(stmt, "let") {
                self.check_return_unit(stmt, env);
            }
        }
    }

    /// Find brace blocks at any depth in a statement (through paren and
    /// bracket groups) and walk each with a cloned environment.
    fn walk_nested_blocks(&mut self, t: &TokenTree, env: &Env) {
        if let TokenTree::Group(g) = t {
            if g.delimiter() == Delimiter::Brace {
                let mut inner = env.clone();
                self.check_block(g.stream().tokens(), &mut inner, false);
            } else {
                for inner in g.stream().tokens() {
                    self.walk_nested_blocks(inner, env);
                }
            }
        }
    }

    fn check_stmt(&mut self, stmt: &[TokenTree], env: &mut Env) {
        if starts_with_keyword(stmt, "let") {
            self.check_let(stmt, env);
        }
        self.check_call_args(stmt, env);
    }

    /// `let [mut] name [: Ty] = expr` — bind, and cross-check the unit
    /// and the annotated type against the name's suffix.
    fn check_let(&mut self, stmt: &[TokenTree], env: &mut Env) {
        let mut i = 1usize; // past `let`
        if matches!(stmt.get(i), Some(TokenTree::Ident(id)) if *id == "mut") {
            i += 1;
        }
        let Some(TokenTree::Ident(name_tok)) = stmt.get(i) else {
            return; // destructuring patterns
        };
        let name = name_tok.to_string();
        let span = name_tok.span();
        i += 1;
        // Optional `: Type` annotation up to the `=`.
        let eq = stmt[i..]
            .iter()
            .position(
                |t| matches!(t, TokenTree::Punct(p) if p.as_char() == '=' && p.spacing() == crate::tokens::Spacing::Alone),
            )
            .map(|off| i + off);
        let name_unit = unit_suffix(&name);
        if let (Some(u), Some(eq_at)) = (name_unit, eq) {
            if matches!(stmt.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
                let ty = &stmt[i + 1..eq_at];
                self.check_let_type(&name, u, ty, span);
            }
        }
        let Some(eq_at) = eq else {
            // `let x;` — deferred init; just bind the suffix.
            if let Some(u) = name_unit {
                env.insert(name, u);
            }
            return;
        };
        let rhs = &stmt[eq_at + 1..];
        let rhs_unit = self.infer_unit(rhs, env);
        match (name_unit, rhs_unit) {
            (Some(lu), Some(ru)) if lu != ru => {
                self.push(
                    span.start().line.max(1),
                    span.start().column + 1,
                    format!(
                        "`{name}` ({lu}) is bound to a value carrying `{ru}`; convert \
                         explicitly or rename the binding"
                    ),
                );
            }
            _ => {}
        }
        // Bind: the declared suffix wins; otherwise propagate the RHS
        // unit through the (unsuffixed) name.
        match (name_unit, rhs_unit) {
            (Some(u), _) => {
                env.insert(name, u);
            }
            (None, Some(u)) => {
                env.insert(name, u);
            }
            (None, None) => {
                env.remove(&name);
            }
        }
    }

    /// An annotated `let x_w: f64` must use the blessed numeric type —
    /// this is what catches shadowing re-bindings the v1 rule missed.
    fn check_let_type(
        &mut self,
        name: &str,
        suffix: &'static str,
        ty: &[TokenTree],
        span: crate::tokens::Span,
    ) {
        let blessed = blessed_types(suffix);
        let Some(core) = ty.iter().rev().find_map(|t| match t {
            TokenTree::Ident(id) => {
                let n = id.to_string();
                matches!(
                    n.as_str(),
                    "f32"
                        | "f64"
                        | "u8"
                        | "u16"
                        | "u32"
                        | "u64"
                        | "u128"
                        | "usize"
                        | "i8"
                        | "i16"
                        | "i32"
                        | "i64"
                        | "i128"
                        | "isize"
                )
                .then_some(n)
            }
            _ => None,
        }) else {
            return;
        };
        if !blessed.contains(&core.as_str()) {
            self.push(
                span.start().line.max(1),
                span.start().column + 1,
                format!(
                    "`{name}` is suffixed `{suffix}` but annotated `{core}`; blessed \
                     type(s) for `{suffix}`: {}",
                    blessed.join(", ")
                ),
            );
        }
    }

    /// Check argument units against parameter-name suffixes for every
    /// resolvable call in the statement (recursing into nested groups).
    fn check_call_args(&mut self, tokens: &[TokenTree], env: &Env) {
        for (k, t) in tokens.iter().enumerate() {
            if let TokenTree::Group(g) = t {
                // Brace groups are statement blocks: `check_block` walks
                // them with the right (cloned) environment — recursing
                // here too would double-report.
                if g.delimiter() != Delimiter::Brace {
                    self.check_call_args(g.stream().tokens(), env);
                }
                // A call: preceding ident + paren group. Keywords like
                // `if (...)` fall out naturally — they never resolve to a
                // workspace function.
                if g.delimiter() != Delimiter::Parenthesis || k == 0 {
                    continue;
                }
                let Some(TokenTree::Ident(callee)) = tokens.get(k - 1) else {
                    continue;
                };
                let callee_name = callee.to_string();
                let is_method =
                    k >= 2 && matches!(&tokens[k - 2], TokenTree::Punct(p) if p.as_char() == '.');
                let Some(params) = self.resolve_params(&callee_name, is_method, tokens, k) else {
                    continue;
                };
                let args = split_top_level_commas(g.stream());
                for (ai, arg) in args.iter().enumerate() {
                    let Some(param) = params.get(ai) else { break };
                    let (Some(pu), Some(au)) = (param.1, self.infer_unit(arg, env)) else {
                        continue;
                    };
                    if pu != au {
                        let span = callee.span();
                        self.push(
                            span.start().line.max(1),
                            span.start().column + 1,
                            format!(
                                "argument {} of `{}` carries `{au}` but parameter \
                                 `{}` expects `{pu}`",
                                ai + 1,
                                callee_name,
                                param.0,
                            ),
                        );
                    }
                }
            }
        }
    }

    /// The callee's parameter (name, unit) list, when the call resolves
    /// to workspace functions that all agree on the unit signature.
    fn resolve_params(
        &self,
        callee: &str,
        is_method: bool,
        tokens: &[TokenTree],
        call_at: usize,
    ) -> Option<Vec<(String, Option<&'static str>)>> {
        let candidates: Vec<usize> = if is_method {
            // Resolve through a named receiver's declared type when the
            // receiver is a parameter of the current fn.
            let recv = if call_at >= 3 {
                match &tokens[call_at - 3] {
                    TokenTree::Ident(id) => Some(id.to_string()),
                    _ => None,
                }
            } else {
                None
            };
            match recv
                .and_then(|r| self.f.params.iter().find(|p| p.name == r))
                .and_then(|p| p.ty_name.clone())
            {
                Some(ty) => self.ws.methods_of(&ty, callee).to_vec(),
                None => {
                    let named: Vec<usize> = self
                        .ws
                        .fns_named(callee)
                        .iter()
                        .copied()
                        .filter(|&i| self.ws.fns[i].takes_self)
                        .collect();
                    if named.len() == 1 {
                        named
                    } else {
                        Vec::new()
                    }
                }
            }
        } else {
            self.ws
                .fns_named(callee)
                .iter()
                .copied()
                .filter(|&i| self.ws.fns[i].self_ty.is_none())
                .collect()
        };
        let first = candidates.first().copied()?;
        let sig: Vec<(String, Option<&'static str>)> = self.ws.fns[first]
            .params
            .iter()
            .map(|p| (p.name.clone(), p.unit))
            .collect();
        // All candidates must agree on arity and units, or we stay quiet.
        for &c in &candidates[1..] {
            let other = &self.ws.fns[c].params;
            if other.len() != sig.len() || other.iter().zip(&sig).any(|(a, b)| a.unit != b.1) {
                return None;
            }
        }
        Some(sig)
    }

    /// Tail expression vs the function name's own unit suffix.
    fn check_return_unit(&mut self, stmt: &[TokenTree], env: &Env) {
        let Some(fn_unit) = self.f.ret_unit else {
            return;
        };
        let Some(tail_unit) = self.infer_unit(stmt, env) else {
            return;
        };
        if tail_unit != fn_unit {
            let span = stmt.first().map(|t| t.span()).unwrap_or_default();
            self.push(
                span.start().line.max(1),
                span.start().column + 1,
                format!(
                    "`{}` is suffixed `{fn_unit}` but returns a value carrying `{tail_unit}`",
                    self.f.name
                ),
            );
        }
    }

    /// Infer the unit of an expression token run. `None` means "unknown
    /// or dimension-changing" — only confident answers come back.
    fn infer_unit(&self, tokens: &[TokenTree], env: &Env) -> Option<&'static str> {
        // Strip a trailing `as <ty>` (numeric casts preserve units) and
        // a leading `&`/`*` borrow/deref.
        let mut toks = tokens;
        while let [TokenTree::Punct(p), rest @ ..] = toks {
            if p.as_char() == '&' || p.as_char() == '*' && !rest.is_empty() {
                // A leading `*` is a deref only when followed directly by
                // an ident/group; arithmetic `*` never leads.
                toks = rest;
            } else {
                break;
            }
        }
        if let Some(as_at) = toks
            .iter()
            .position(|t| matches!(t, TokenTree::Ident(id) if *id == "as"))
        {
            toks = &toks[..as_at];
        }
        if toks.is_empty() {
            return None;
        }
        // Split on top-level additive operators; `* / %` clear the unit.
        let mut parts: Vec<&[TokenTree]> = Vec::new();
        let mut start = 0usize;
        for (i, t) in toks.iter().enumerate() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    // Multiplicative arithmetic changes dimensions —
                    // unless this is a `*` deref at expression start.
                    '*' | '/' | '%' if i > start => return None,
                    '+' | '-' if i > start => {
                        parts.push(&toks[start..i]);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
        }
        parts.push(&toks[start..]);
        let mut unit: Option<&'static str> = None;
        for part in parts {
            let u = self.infer_chain_unit(part, env)?;
            match unit {
                None => unit = Some(u),
                Some(prev) if prev == u => {}
                // Disagreeing additive units: `unit-mix` (per-file)
                // already reports this shape; stay quiet here.
                Some(_) => return None,
            }
        }
        unit
    }

    /// The unit of one postfix chain: nearest suffixed ident wins; a bare
    /// leading local resolves through the environment; a call to a
    /// workspace fn with a suffixed name yields that suffix; a
    /// parenthesized group recurses.
    fn infer_chain_unit(&self, part: &[TokenTree], env: &Env) -> Option<&'static str> {
        match part.first()? {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                if part.len() == 1 {
                    return self.infer_unit(g.stream().tokens(), env);
                }
                None
            }
            _ => {
                let mut leading = true;
                for t in part {
                    match t {
                        TokenTree::Ident(id) => {
                            let n = id.to_string();
                            if n == "self" || n == "Self" {
                                leading = false;
                                continue;
                            }
                            if let Some(u) = unit_suffix(&n) {
                                return Some(u);
                            }
                            if leading {
                                if let Some(&u) = env.get(&n) {
                                    return Some(u);
                                }
                            }
                            leading = false;
                        }
                        TokenTree::Punct(p)
                            if p.as_char() == '.' || p.as_char() == ':' || p.as_char() == '&' => {}
                        TokenTree::Group(g)
                            if matches!(
                                g.delimiter(),
                                Delimiter::Parenthesis | Delimiter::Bracket
                            ) => {}
                        TokenTree::Literal(_) => {}
                        _ => return None,
                    }
                }
                None
            }
        }
    }
}

fn starts_with_keyword(stmt: &[TokenTree], kw: &str) -> bool {
    matches!(stmt.first(), Some(TokenTree::Ident(id)) if *id == kw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn run(src: &str) -> Vec<Finding> {
        let parsed = crate::items::parse_file(src).expect("parse");
        let ws = Workspace::build(&[("crates/x/src/lib.rs".to_string(), Some(parsed))]);
        check(&ws)
    }

    #[test]
    fn let_binding_mismatch_is_flagged() {
        let f = run("fn f(energy_j: f64) { let power_w = energy_j; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("power_w"));
    }

    #[test]
    fn shadowed_rebinding_is_still_checked() {
        // The second (shadowing) binding must be checked like the first.
        let f = run("fn f(energy_j: f64) { let power_w = 1.0; let power_w = energy_j; }");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = run("fn f() { let x_j = 1.0; let x_j: u32 = 2; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("annotated `u32`"));
    }

    #[test]
    fn unit_propagates_through_unsuffixed_locals() {
        let f = run("fn f(power_w: f64) { let p = power_w; let total_j = p; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("total_j"));
    }

    #[test]
    fn call_arguments_check_against_parameter_suffixes() {
        let f = run("fn sink(power_w: f64) -> f64 { power_w }\n\
             fn g(energy_j: f64) { sink(energy_j); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("parameter `power_w`"));
    }

    #[test]
    fn return_unit_checks_the_tail_expression() {
        let f = run("fn total_j(power_w: f64) -> f64 { power_w }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("total_j"));
    }

    #[test]
    fn products_and_matching_units_stay_quiet() {
        let f = run(
            "fn total_j(power_w: f64, dt_s: f64) -> f64 { power_w * dt_s }\n\
             fn g(a_w: f64, b_w: f64) { let sum_w = a_w + b_w; let c_w = sum_w; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn casts_are_transparent() {
        let f = run("fn f(ticks_us: u64) { let t_us = ticks_us as f64; let t_s = t_us; }");
        // `t_s` binds `_us` flow — mismatch.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("t_s"));
    }

    #[test]
    fn test_functions_are_exempt() {
        let f = run("#[cfg(test)] mod t { fn f(energy_j: f64) { let power_w = energy_j; } }");
        assert!(f.is_empty(), "{f:?}");
    }
}
