//! The per-file rules: one file in, findings out.
//!
//! Three families (DESIGN.md §11):
//!
//! * **unit-safety** — `unit-suffix-type`, `unit-mix`;
//! * **error discipline** — `literal-index`, `must-use-measurement`;
//! * **float equality** — `float-eq`.
//!
//! Plus `parse` for files the parser cannot read. The determinism and
//! panic rules are clippy's (`clippy.toml`, `[workspace.lints.clippy]`).
//!
//! Test code (a `#[cfg(test)]` module, a `#[test]` fn, a `*_tests.rs`
//! file, or anything under `tests/`/`benches/`/`examples/`) is exempt
//! from every family here: tests index and assert exact floats *on
//! purpose* (bit-identical replay is this repo's headline invariant).

use crate::items::{split_top_level_commas, Attribute, Field, Item, ItemFn, Signature, Visibility};
use crate::tokens::{Delimiter, Group, Span, TokenStream, TokenTree};

use crate::config::{blessed_types, unit_suffix, Config};
use crate::scan::{
    chain_suffix_back, chain_suffix_fwd, flatten, is_float_literal, is_int_literal, Flat,
};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, unix separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (rustc convention; spans store 0-based).
    pub column: usize,
    /// Rule id (`float-eq`, ...).
    pub rule: &'static str,
    pub message: String,
}

/// Lint one file's source text with the per-file rules.
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let mut ctx = Ctx {
        cfg,
        rel_path,
        crate_name: crate_of(rel_path),
        findings: Vec::new(),
    };
    // Test files are parsed too: a file simlint cannot read is a
    // finding wherever it lives; only the rule walk skips tests.
    match crate::items::parse_file(src) {
        Ok(file) => {
            if !path_is_test(rel_path) {
                ctx.walk_items(&file.items);
            }
        }
        Err(e) => {
            ctx.findings.push(Finding {
                file: rel_path.to_string(),
                line: e.pos.line.max(1),
                column: e.pos.column + 1,
                rule: "parse",
                message: format!("cannot parse file: {}", e.message),
            });
        }
    }
    ctx.findings
}

/// The crate directory name a `crates/<name>/...` path belongs to.
fn crate_of(rel_path: &str) -> Option<String> {
    let mut parts = rel_path.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    parts.next().map(|s| s.to_string())
}

pub(crate) fn path_is_test(rel_path: &str) -> bool {
    rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.ends_with("_tests.rs")
        || rel_path.rsplit('/').next().is_some_and(|f| f == "tests.rs")
}

pub(crate) fn attrs_mark_test(attrs: &[Attribute]) -> bool {
    attrs.iter().any(|a| a.is_cfg_test() || a.is_test_marker())
}

struct Ctx<'c> {
    cfg: &'c Config,
    rel_path: &'c str,
    crate_name: Option<String>,
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn push(&mut self, rule: &'static str, span: Span, message: String) {
        self.findings.push(Finding {
            file: self.rel_path.to_string(),
            line: span.start().line.max(1),
            column: span.start().column + 1,
            rule,
            message,
        });
    }

    fn walk_items(&mut self, items: &[Item]) {
        for item in items {
            if attrs_mark_test(item.attrs()) {
                continue;
            }
            match item {
                Item::Fn(f) => self.visit_fn(f),
                Item::Struct(s) => {
                    self.check_must_use_type(&s.ident.to_string(), &s.attrs, s.ident.span());
                    for field in &s.fields {
                        self.check_field(field);
                    }
                }
                Item::Enum(e) => {
                    self.check_must_use_type(&e.ident.to_string(), &e.attrs, e.ident.span());
                    for v in &e.variants {
                        for field in &v.fields {
                            self.check_field(field);
                        }
                    }
                }
                Item::Mod(m) => {
                    if let Some(content) = &m.content {
                        self.walk_items(content);
                    }
                }
                Item::Impl(im) => {
                    self.scan_stream(im.header.tokens());
                    self.walk_items(&im.items);
                }
                Item::Trait(tr) => {
                    self.scan_stream(tr.header.tokens());
                    self.walk_items(&tr.items);
                }
                Item::Verbatim(v) => self.scan_stream(v.tokens.tokens()),
            }
        }
    }

    fn visit_fn(&mut self, f: &ItemFn) {
        self.check_fn_params(&f.sig);
        self.check_fn_must_use(f);
        // Signatures hold expressions too (array lengths, const-generic
        // arguments), so they are scanned like bodies.
        self.scan_stream(f.sig.inputs.tokens());
        self.scan_stream(f.sig.output.tokens());
        if let Some(body) = &f.body {
            self.scan_stream(body.stream().tokens());
        }
    }

    // -- unit-safety ------------------------------------------------------

    fn check_field(&mut self, field: &Field) {
        if let Some(ident) = &field.ident {
            let name = ident.to_string();
            if let Some(suffix) = unit_suffix(&name) {
                self.check_unit_type(&name, suffix, &field.ty, ident.span());
            }
        }
        self.scan_stream(field.ty.tokens());
    }

    fn check_fn_params(&mut self, sig: &Signature) {
        for part in split_top_level_commas(&sig.inputs) {
            let mut i = 0usize;
            // Skip parameter attributes.
            while matches!(&part[i..], [TokenTree::Punct(p), TokenTree::Group(_), ..] if p.as_char() == '#')
            {
                i += 2;
            }
            if matches!(part.get(i), Some(TokenTree::Ident(id)) if *id == "mut") {
                i += 1;
            }
            let Some(TokenTree::Ident(pname)) = part.get(i) else {
                continue; // `self`, `&self`, pattern bindings
            };
            let name = pname.to_string();
            if name == "self" {
                continue;
            }
            if !matches!(part.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
                continue;
            }
            let ty = TokenStream::from(part[i + 2..].to_vec());
            if let Some(suffix) = unit_suffix(&name) {
                self.check_unit_type(&name, suffix, &ty, pname.span());
            }
        }
    }

    /// A suffixed field/param must resolve to the blessed numeric type:
    /// the innermost primitive numeric of the declared type (`f64`,
    /// `Vec<f64>`, `Option<u64>`, `[f64; N]` all resolve).
    fn check_unit_type(&mut self, name: &str, suffix: &str, ty: &TokenStream, span: Span) {
        let blessed = blessed_types(suffix);
        let mut numeric: Option<String> = None;
        collect_numeric_idents(ty, &mut numeric);
        match numeric {
            Some(n) if blessed.contains(&n.as_str()) => {}
            Some(n) => self.push(
                "unit-suffix-type",
                span,
                format!(
                    "`{name}` is suffixed `{suffix}` but typed `{n}`; blessed type(s) for `{suffix}`: {}",
                    blessed.join(", ")
                ),
            ),
            None => self.push(
                "unit-suffix-type",
                span,
                format!(
                    "`{name}` is suffixed `{suffix}` but its type has no blessed numeric core ({}); \
                     rename it or use the blessed type",
                    blessed.join(", ")
                ),
            ),
        }
    }

    // -- must-use ---------------------------------------------------------

    fn check_must_use_type(&mut self, name: &str, attrs: &[Attribute], span: Span) {
        if !self.cfg.must_use_types.contains(&name) {
            return;
        }
        if !attrs.iter().any(|a| a.is_must_use()) {
            self.push(
                "must-use-measurement",
                span,
                format!("`{name}` is a measurement result; mark the type `#[must_use]`"),
            );
        }
    }

    fn check_fn_must_use(&mut self, f: &ItemFn) {
        if f.vis != Visibility::Public {
            return;
        }
        let name = f.sig.ident.to_string();
        let has = f.attrs.iter().any(|a| a.is_must_use());
        if has {
            return;
        }
        if self
            .cfg
            .must_use_fn_prefixes
            .iter()
            .any(|p| name.starts_with(p))
        {
            self.push(
                "must-use-measurement",
                f.sig.ident.span(),
                format!("`{name}` produces measurement results; mark it `#[must_use]`"),
            );
            return;
        }
        let in_measurement_crate = self
            .crate_name
            .as_deref()
            .is_some_and(|c| self.cfg.measurement_crates.contains(&c));
        if in_measurement_crate {
            let returns_result = f
                .sig
                .output
                .tokens()
                .iter()
                .any(|t| matches!(t, TokenTree::Ident(i) if *i == "Result"));
            if returns_result {
                self.push(
                    "must-use-measurement",
                    f.sig.ident.span(),
                    format!(
                        "measurement API `{name}` returns a Result; mark it `#[must_use]` so a \
                         dropped reading (or error) cannot pass silently"
                    ),
                );
            }
        }
    }

    // -- expression-level scan -------------------------------------------

    /// Pattern rules over one stream level, recursing into groups.
    fn scan_stream(&mut self, tokens: &[TokenTree]) {
        let flats = flatten(tokens);
        for (i, flat) in flats.iter().enumerate() {
            match flat {
                Flat::Op(op, span) => self.check_ops(op, *span, &flats, i),
                Flat::Group(g) => self.check_literal_index(g, &flats, i),
                Flat::Ident(_) | Flat::Lit(_) => {}
            }
        }
        for t in tokens {
            if let TokenTree::Group(g) = t {
                self.scan_stream(g.stream().tokens());
            }
        }
    }

    fn check_ops(&mut self, op: &str, span: Span, flats: &[Flat<'_>], i: usize) {
        let additive_or_cmp = matches!(op, "+" | "-" | "+=" | "-=" | "<" | ">" | "<=" | ">=");
        let eq = matches!(op, "==" | "!=");
        if !additive_or_cmp && !eq {
            return;
        }
        // unit-mix: both operands carry (different) unit suffixes.
        let left = chain_suffix_back(flats, i);
        let right = chain_suffix_fwd(flats, i + 1);
        if let (Some((ln, ls)), Some((rn, rs))) = (&left, &right) {
            if ls != rs {
                self.push(
                    "unit-mix",
                    span,
                    format!(
                        "`{ln}` ({ls}) {op} `{rn}` ({rs}) mixes units in one expression; \
                         convert into a named intermediate first"
                    ),
                );
                return;
            }
        }
        // float-eq: exact equality where an operand is visibly a float.
        if eq && !Config::path_matches(self.rel_path, &self.cfg.float_eq_allowed_files) {
            let float_neighbor = |f: Option<&Flat<'_>>| match f {
                Some(Flat::Lit(l)) => is_float_literal(l),
                Some(Flat::Ident(id)) => {
                    let n = id.to_string();
                    unit_suffix(&n).is_some()
                        || matches!(n.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON")
                }
                _ => false,
            };
            if float_neighbor(i.checked_sub(1).and_then(|j| flats.get(j)))
                || float_neighbor(flats.get(i + 1))
            {
                self.push(
                    "float-eq",
                    span,
                    format!(
                        "`{op}` on floats compares bit patterns; use `sim_core::float::approx_eq`, \
                         or `sim_core::float::exact_eq` when bitwise equality is the point"
                    ),
                );
            }
        }
    }

    fn check_literal_index(&mut self, g: &Group, flats: &[Flat<'_>], i: usize) {
        if g.delimiter() != Delimiter::Bracket {
            return;
        }
        // Exactly one integer literal inside the brackets.
        let inner = g.stream().tokens();
        let [TokenTree::Literal(lit)] = inner else {
            return;
        };
        if !is_int_literal(lit) {
            return;
        }
        // Must be an index expression: preceded by an ident or a
        // call/index group (not an array literal or attribute).
        let indexes = match i.checked_sub(1).map(|j| &flats[j]) {
            Some(Flat::Ident(_)) => true,
            Some(Flat::Group(pg)) => {
                matches!(pg.delimiter(), Delimiter::Parenthesis | Delimiter::Bracket)
            }
            _ => false,
        };
        if indexes {
            self.push(
                "literal-index",
                g.span(),
                format!(
                    "indexing with `[{}]` panics when the slice is shorter; use `.get({})` / \
                     `.first()`, or destructure the array",
                    lit, lit
                ),
            );
        }
    }
}

/// `collect_numeric_idents` resolves a declared type to its primitive
/// numeric core, recursing into generic arguments; the *last* primitive
/// seen wins (`Vec<f64>` → `f64`).
fn collect_numeric_idents(ty: &TokenStream, out: &mut Option<String>) {
    for t in ty.tokens() {
        match t {
            TokenTree::Ident(id) => {
                let n = id.to_string();
                if matches!(
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
                ) {
                    *out = Some(n);
                }
            }
            TokenTree::Group(g) => collect_numeric_idents(g.stream(), out),
            _ => {}
        }
    }
}
